"""Algebra definition files: parsing, canonical emission, round trips."""

import json
from pathlib import Path

import pytest

from conftest import CASES

from symcenter import cli
from symcenter.analysis import analyze
from symcenter.corpus import get
from symcenter.errors import (
    AlgebraValidationError,
    FileFormatError,
    NotAnIdeal,
)
import symcenter.fileformat as fileformat
from symcenter.fileformat import (
    emit_structure_constants,
    load_algebra,
    parse_document,
)

EXPECTED_DIMS = {
    "scalars_gf3": 1,
    "dual_numbers_gf3": 2,
    "firstexample_i": 27,
    "counterexample_B": 8,
    "dim12_sharp": 12,
    "soc20_base": 10,
    "soc20_trivext": 20,
    "mat2_gf3": 4,
    "mat2_dual_numbers": 8,
    "trivext_dual_gf3": 4,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_DIMS))
def test_case_files_parse(name):
    alg = load_algebra(str(CASES / f"{name}.json"))
    assert alg.dim == EXPECTED_DIMS[name]
    assert alg.name == name


def test_roundtrip_is_canonical(dual3):
    text1 = emit_structure_constants(dual3)
    alg2 = parse_document(json.loads(text1))
    text2 = emit_structure_constants(alg2)
    assert text1 == text2
    assert alg2.same_table(dual3)


def test_scalar_forms_in_files(f25):
    doc = {
        "name": "literals",
        "field": {"kind": "extension", "p": 5, "modulus": [2, 0, 1]},
        "presentation": {
            "type": "skew_truncated",
            "bounds": [2, 2],
            "q": {"2,1": [2, 3]},
        },
    }
    alg = parse_document(doc)
    assert alg.dim == 4
    doc["presentation"]["q"] = {"2,1": "[2,3]"}
    assert parse_document(doc).same_table(alg)


def test_rational_field_file():
    doc = {
        "name": "rational_dual",
        "field": {"kind": "rational"},
        "presentation": {"type": "skew_truncated", "bounds": [3]},
        "symmetrizing_form": ["0", "0", "1/2"],
    }
    alg = parse_document(doc)
    assert alg.dim == 3
    from symcenter.symmetric import symmetric_gram

    assert symmetric_gram(alg) is not None


def test_bad_scalar_is_path_anchored():
    doc = {
        "field": {"kind": "prime", "p": 3},
        "presentation": {
            "type": "structure_constants",
            "dim": 1,
            "table": [[["x"]]],
            "one": [1],
        },
    }
    with pytest.raises(FileFormatError) as err:
        parse_document(doc)
    assert "table[0][0][0]" in str(err.value)


def test_non_associative_table_cites_triple():
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    table = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i, (a, b) in enumerate(basis):
        for j, (c, d) in enumerate(basis):
            if b == c:
                table[i][j][basis.index((a, d))] = 1
    table[1][2][0] = 2
    doc = {
        "field": {"kind": "prime", "p": 3},
        "presentation": {
            "type": "structure_constants",
            "dim": 4,
            "table": table,
            "one": [1, 0, 0, 1],
        },
    }
    with pytest.raises(AlgebraValidationError) as err:
        parse_document(doc)
    assert err.value.triple is not None


def test_quotient_node_requires_ideal():
    doc = {
        "field": {"kind": "prime", "p": 3},
        "presentation": {
            "type": "quotient",
            "base": {"type": "skew_truncated", "bounds": [2, 2],
                     "q": {"2,1": "-1"}},
            "ideal": {"vectors": [[0, 1, 0, 0]]},
        },
    }
    with pytest.raises(NotAnIdeal):
        parse_document(doc)
    doc["presentation"]["ideal"]["closure"] = True
    alg = parse_document(doc)
    assert alg.dim == 2  # the ideal generated by x1 is {x1, x1*x2}


@pytest.mark.parametrize("closure", ["no", 0, 1, None, [True]])
def test_quotient_closure_must_be_a_boolean(closure):
    doc = {
        "field": {"kind": "prime", "p": 7},
        "presentation": {
            "type": "quotient",
            "base": {"type": "skew_truncated", "bounds": [3]},
            "ideal": {"vectors": [[0, 1, 0]], "closure": closure},
        },
    }
    with pytest.raises(FileFormatError, match="expected true or false") as err:
        parse_document(doc)
    assert err.value.location == "presentation.ideal.closure"
    doc["presentation"]["ideal"]["closure"] = False
    with pytest.raises(NotAnIdeal):
        parse_document(doc)


def test_boolean_scalars_are_refused_at_their_path():
    doc = {
        "field": {"kind": "prime", "p": 3},
        "presentation": {"type": "structure_constants", "dim": 1,
                         "table": [[[1]]], "one": [True]},
    }
    with pytest.raises(FileFormatError, match="booleans are not scalars") as err:
        parse_document(doc)
    assert err.value.location == "presentation.one[0]"


def test_unknown_kinds_rejected():
    with pytest.raises(FileFormatError):
        parse_document({"field": {"kind": "septenary"}, "presentation": {}})
    with pytest.raises(FileFormatError):
        parse_document({
            "field": {"kind": "prime", "p": 3},
            "presentation": {"type": "mystery"},
        })


def test_malformed_json_is_line_anchored(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "field": {,}\n}\n')
    with pytest.raises(FileFormatError) as err:
        load_algebra(str(path))
    assert "line 2" in str(err.value)


def test_emitted_file_reanalyzes_identically():
    alg = load_algebra(str(CASES / "trivext_dual_gf3.json"))
    report1 = analyze(alg).to_machine()
    text = emit_structure_constants(alg)
    alg2 = parse_document(json.loads(text))
    report2 = analyze(alg2).to_machine()
    assert report1 == report2


def test_rejected_hint_raises_from_emit():
    # a hint is checked when the file is read, so nothing is ever emitted
    # from a wrong one: span{E12, E21, E22} is not J(Mat2) = 0
    doc = json.loads((CASES / "mat2_gf3.json").read_text(encoding="utf-8"))
    doc["radical_hint"] = {"kind": "local_codim1"}
    with pytest.raises(FileFormatError, match="dimension 3, which is not J") as err:
        parse_document(doc)
    assert err.value.location == "radical_hint"


def test_emit_names_the_rule_radical_as_a_hint():
    # soc20_trivext's radical comes from the rule, and the file names it as a hint
    alg = load_algebra(str(CASES / "soc20_trivext.json"))
    doc = json.loads(emit_structure_constants(alg))
    assert doc["radical_hint"]["kind"] == "basis"
    assert len(doc["radical_hint"]["vectors"]) == 19
    assert analyze(parse_document(doc)).to_machine() == analyze(alg).to_machine()


def test_wrong_length_symmetrizing_form_is_anchored():
    doc = json.loads((CASES / "dual_numbers_gf3.json").read_text())
    doc["symmetrizing_form"] = [0, 1, 2]
    with pytest.raises(FileFormatError) as err:
        parse_document(doc)
    assert err.value.location == "symmetrizing_form"


DUAL_GF3_TABLE = {
    "type": "structure_constants",
    "dim": 2,
    "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    "one": [1, 0],
}


@pytest.mark.parametrize("presentation, hint, location", [
    (DUAL_GF3_TABLE, {"kind": "basis", "vectors": [[0, 1, 0]]},
     "radical_hint.vectors[0]"),
    (DUAL_GF3_TABLE, {"kind": "basis", "vectors": 5}, "radical_hint.vectors"),
    (DUAL_GF3_TABLE, {"kind": "basis", "vectors": [[0, 1], 1]},
     "radical_hint.vectors[1]"),
    ({"type": "skew_truncated", "bounds": [2]},
     {"kind": "basis", "vectors": [[0, 1], [1]]}, "radical_hint.vectors[1]"),
])
def test_malformed_radical_hint_is_anchored(presentation, hint, location):
    doc = {"field": {"kind": "prime", "p": 3}, "presentation": presentation,
           "radical_hint": hint}
    with pytest.raises(FileFormatError) as err:
        parse_document(doc)
    assert err.value.location == location


def test_nested_radical_hint_checked_against_its_node():
    base = dict(DUAL_GF3_TABLE, radical_hint={"kind": "basis", "vectors": [[0, 1, 0]]})
    doc = {"field": {"kind": "prime", "p": 3},
           "presentation": {"type": "trivial_extension", "base": base}}
    with pytest.raises(FileFormatError) as err:
        parse_document(doc)
    assert err.value.location == "presentation.base.radical_hint.vectors[0]"


@pytest.mark.parametrize("presentation, location", [
    ({"type": "structure_constants", "dim": 10**6, "table": [], "one": []},
     "presentation.dim"),
    ({"type": "skew_truncated", "bounds": [10**6]}, "presentation.bounds"),
    ({"type": "skew_truncated", "bounds": [2] * 10}, "presentation.bounds"),
    ({"type": "matrix_generators", "size": 23, "generators": {}}, "presentation.size"),
])
def test_declared_dimension_is_capped_before_allocating(presentation, location):
    doc = {"field": {"kind": "prime", "p": 3}, "presentation": presentation}
    with pytest.raises(FileFormatError, match="desk-scale cap of 512") as err:
        parse_document(doc)
    assert err.value.location == location


@pytest.mark.parametrize("presentation", [
    {"type": "trivial_extension", "base": DUAL_GF3_TABLE},
    {"type": "tensor", "left": DUAL_GF3_TABLE, "right": DUAL_GF3_TABLE},
])
def test_constructions_are_capped_at_their_dimension(presentation, monkeypatch):
    doc = {"field": {"kind": "prime", "p": 3}, "presentation": presentation}
    monkeypatch.setattr(fileformat, "MAX_DIM", 4)
    assert parse_document(doc).dim == 4
    monkeypatch.setattr(fileformat, "MAX_DIM", 3)
    with pytest.raises(FileFormatError, match="dimension 4 exceeds") as err:
        parse_document(doc)
    assert err.value.location == "presentation"


def test_node_symmetrizing_form_is_anchored():
    base = {"type": "skew_truncated", "bounds": [2], "symmetrizing_form": [0, 1, 2]}
    doc = {"field": {"kind": "prime", "p": 3},
           "presentation": {"type": "trivial_extension", "base": base}}
    with pytest.raises(FileFormatError, match="expected 2 coordinates") as err:
        parse_document(doc)
    assert err.value.location == "presentation.base.symmetrizing_form"
    base["symmetrizing_form"] = [0, 1]
    assert parse_document(doc).dim == 4


# -- GF(25) encodings in files: coefficient lists outside GF(5) ------------------

GF25 = {"kind": "extension", "p": 5, "modulus": [2, 0, 1]}
# F[x, y]/(x, y)^2 in the basis 1, t + x, y: (t + x)^2 = 2 + 2t(t + x) and
# (t + x)y = ty; its radical basis holds x = (t + x) - t, i.e. the entry 3t
SHIFTED_SQUARE_ZERO = {
    "type": "structure_constants",
    "dim": 3,
    "table": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
              [[0, 1, 0], [2, [0, 2], 0], [0, 0, [0, 1]]],
              [[0, 0, 1], [0, 0, [0, 1]], [0, 0, 0]]],
    "one": [1, 0, 0],
}


def _same_report_as_counterexample_A(path):
    assert analyze(load_algebra(str(path))).to_machine() == \
        analyze(get("counterexample_A")).to_machine()


def _dim_2(path):
    assert load_algebra(str(path)).dim == 2


def _basis_hint_accepted(path):
    report = analyze(load_algebra(str(path)))
    assert report.dims["J"] == 1 and report.radical_strategy == "kuelshammer"


def _construct_output_reloads(path):
    out = path.with_name("constructed.json")
    assert cli.main(["construct", str(path), "--out", str(out)]) == 0
    assert [0, 3] in json.loads(out.read_text())["radical_hint"]["vectors"][0]
    assert analyze(load_algebra(str(out))).to_machine() == \
        analyze(load_algebra(str(path))).to_machine()


@pytest.mark.parametrize("presentation, extra, check", [
    ({"type": "skew_truncated", "bounds": [5, 5, 2],
      "q": {"2,1": -1, "3,1": [1, 1], "3,2": [1, 1]}},
     {"name": "counterexample_A"}, _same_report_as_counterexample_A),
    ({"type": "matrix_generators", "size": 2,
      "generators": {"n": [[0, [0, 1]], [0, 0]]}}, {}, _dim_2),
    (DUAL_GF3_TABLE, {"radical_hint": {"kind": "basis", "vectors": [[0, [0, 1]]]}},
     _basis_hint_accepted),
    ({"type": "opposite", "base": SHIFTED_SQUARE_ZERO}, {}, _construct_output_reloads),
], ids=["skew_q", "matrix_generators", "basis_hint", "construct_output"])
def test_gf25_encodings_in_files_keep_their_meaning(presentation, extra, check, tmp_path):
    path = tmp_path / "gf25.json"
    path.write_text(json.dumps({"field": GF25, "presentation": presentation, **extra}))
    check(path)
