import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from symcenter import GF, SkewPresentation, from_skew_presentation, gf25
from symcenter.algebra import Algebra

CASES = Path(__file__).parent.parent / "cases"


@pytest.fixture(scope="session")
def g2():
    return GF(2)


@pytest.fixture(scope="session")
def g3():
    return GF(3)


@pytest.fixture(scope="session")
def f25():
    return gf25()


def mat2_table():
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    tab = np.zeros((4, 4, 4), dtype=np.int64)
    for i, (a, b) in enumerate(basis):
        for j, (c, d) in enumerate(basis):
            if b == c:
                tab[i, j, basis.index((a, d))] = 1
    return tab


@pytest.fixture(scope="session")
def mat2(g3):
    return Algebra(
        g3, mat2_table(), g3.arr([1, 0, 0, 1]),
        labels=["E11", "E12", "E21", "E22"],
        sym_form=g3.arr([1, 0, 0, 1]),
        name="mat2",
    )


@pytest.fixture(scope="session")
def dual3(g3):
    a = from_skew_presentation(g3, SkewPresentation.commuting([2]), name="dual3")
    return a.replace(sym_form=g3.arr([0, 1]))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0x5EED)
