"""Every shipped output, byte for byte.

Each case report, construct output, demo and the paper-suite text report
is compared with its expected file exactly as a shell loop would build it:
``analyze`` in both formats with stdout, stderr and the exit code per
case; ``construct`` on every case whose presentation is a construction;
each demo's stdout.  The command-line runs go through ``cli.main`` in this
process, since a file builds its algebras afresh; the demos and the
paper suite, which share memoised corpus algebras, run in cold processes.
The dimension-100 and rational dimension-27 rungs assert their dimensions
and verdicts.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symcenter import GF, QQ, SkewPresentation, from_skew_presentation
from symcenter.analysis import analyze
from symcenter.cli import CONSTRUCTION_TYPES, main
from symcenter.constructions import trivial_extension
from symcenter.corpus import get

ROOT = Path(__file__).parent.parent
CASES = ROOT / "cases"
EXPECTED = CASES / "expected"
CASE_NAMES = sorted(p.stem for p in CASES.glob("*.json"))
CONSTRUCTION_CASES = [
    name for name in CASE_NAMES
    if json.loads((CASES / f"{name}.json").read_text())["presentation"]["type"]
    in CONSTRUCTION_TYPES
]
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def _main(*argv):
    """(exit code, stdout, stderr) of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env=env)


def _expected(name: str) -> str:
    return (EXPECTED / name).read_text(encoding="utf-8")


def _verdicts(report) -> dict:
    return {p: report.verdicts[p]["holds"] for p in ("p1", "p2", "p3")}


@pytest.mark.parametrize("name", CASE_NAMES)
def test_case_report(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = ""
    for fmt in ("text", "machine"):
        code, stdout, stderr = _main("analyze", "--format", fmt, f"cases/{name}.json")
        out += f"== analyze --format {fmt}: stdout\n{stdout}== stderr\n{stderr}== exit {code}\n"
    assert out == _expected(f"{name}.txt")


def test_every_construction_case_is_pinned():
    pinned = sorted(p.name[: -len(".construct.json")]
                    for p in EXPECTED.glob("*.construct.json"))
    assert CONSTRUCTION_CASES and CONSTRUCTION_CASES == pinned


@pytest.mark.parametrize("name", CONSTRUCTION_CASES)
def test_construct_output(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / f"{name}.construct.json"
    code, _, stderr = _main("construct", f"cases/{name}.json", "--out", str(out))
    assert code == 0, stderr
    assert out.read_text(encoding="utf-8") == _expected(f"{name}.construct.json")


def test_paper_suite_text_report():
    proc = _run("-m", "symcenter", "paper-suite")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _expected("paper-suite.txt")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout(demo):
    proc = _run(f"demos/{demo}.py")
    assert proc.returncode == 0, proc.stderr
    expected = (ROOT / "demos" / "expected" / f"{demo}.txt").read_text(encoding="utf-8")
    assert proc.stdout == expected


def test_dimension_100_rung():
    report = analyze(trivial_extension(get("counterexample_A")))
    assert report.dim == 100
    assert _verdicts(report) == {"p1": False, "p2": False, "p3": True}


def test_rational_dimension_27_rung():
    pres = SkewPresentation.anticommuting([3, 3, 3])
    q, g = (analyze(from_skew_presentation(f, pres)) for f in (QQ, GF(31)))
    assert (q.dims, q.loewy_layers, q.verdicts) == (g.dims, g.loewy_layers, g.verdicts)
    assert q.dims == {"Z": 12, "K": 15, "J": 26, "soc": 1, "JZ": 11, "socZ": 4, "R": 1}
    assert _verdicts(q) == {"p1": False, "p2": True, "p3": True}
