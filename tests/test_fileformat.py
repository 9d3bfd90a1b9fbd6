"""Algebra definition files: parsing, canonical emission, round trips."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import CASES, mat2_table
from oracles import reference_emit

from symcenter import GF, cli, gf25
from symcenter.algebra import Algebra
from symcenter.analysis import analyze
from symcenter.corpus import get
from symcenter.errors import (
    AlgebraValidationError,
    FileFormatError,
    NotAnIdeal,
)
import symcenter.fileformat as fileformat
from symcenter.fields import ExtensionField
from symcenter.fileformat import (
    emit_structure_constants,
    load_algebra,
    parse_document,
    parse_scalar,
    parse_vector,
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


# -- the emitter against its reference, the block reader against parse_scalar --


def _labelled_with_form(name, labels):
    g3 = GF(3)
    return Algebra(g3, mat2_table(), g3.arr([1, 0, 0, 1]), labels=labels,
                   sym_form=g3.arr([1, 0, 0, 1]), name=name)


EMIT_ORACLE_CASES = {
    **{f"case_{path.stem}": (lambda path=path: load_algebra(str(path)))
       for path in sorted(CASES.glob("*.json"))},
    **{f"corpus_{name}": (lambda name=name: get(name))
       for name in ("dual_gf2", "trunc3_gf3", "qplane22_gf5", "dual_gf25", "counterexample_A")},
    "labels_and_form": lambda: _labelled_with_form("mat2", ["E11", "E12", "E21", "E22"]),
    "odd_name_and_labels": lambda: _labelled_with_form(
        'mat2 "table": [] \u00e9\u2202', ['"table": []', "E\u2081\u2082", "\u00fc\n", '",\n  "one": [']),
}


@pytest.mark.parametrize("build", EMIT_ORACLE_CASES.values(), ids=EMIT_ORACLE_CASES)
def test_emitter_matches_its_reference(build):
    alg = build()
    text = emit_structure_constants(alg)
    assert text == reference_emit(alg)
    again = parse_document(json.loads(text))
    assert again.same_table(alg) and emit_structure_constants(again) == text


@pytest.mark.parametrize("field", [GF(7), gf25(), ExtensionField(2, [1, 1, 0, 1])],
                         ids=["gf7", "gf25", "gf8"])
def test_block_reader_matches_parse_scalar(field, rng):
    # plain ints, and over GF(p^k) coefficient lists of every length up to k
    values = [int(x) for x in rng.integers(-10**12, 10**12, size=40)]
    if isinstance(field, ExtensionField):
        values += [rng.integers(-99, 99, size=length).tolist()
                   for length in rng.integers(0, field.degree + 1, size=40)]
    rows = [values[t:t + 8] for t in range(0, len(values), 8)]
    block = fileformat._parse_block(field, rows, "v", (None, 8))
    assert block.dtype == np.int64
    assert block.tolist() == [[parse_scalar(field, v, "v") for v in row] for row in rows]


def test_integers_past_int64_reduce_mod_p(f25):
    big = [2**64 + 1, -2**70, 3**50]
    assert parse_vector(GF(3), big, "v").tolist() == [x % 3 for x in big]
    assert parse_vector(f25, [[big[0], big[1]], big[2]], "v").tolist() == [
        f25.coeffs_to_enc([big[0] % 5, big[1] % 5]), big[2] % 5]
    doc = {"field": {"kind": "prime", "p": 3},
           "presentation": dict(DUAL_GF3_TABLE, one=[1 + 3 * 2**64, -3 * 2**70])}
    assert parse_document(doc).same_table(parse_document(
        {"field": {"kind": "prime", "p": 3}, "presentation": DUAL_GF3_TABLE}))


# a document over GF(p) holding each coordinate block, the keys to one of the
# block's vectors, and an entry of it
ANCHOR_BLOCKS = {
    "table": ({"presentation": DUAL_GF3_TABLE}, ["presentation", "table", 1, 0], 1),
    "generator": ({"presentation": {"type": "matrix_generators", "size": 2,
                                    "generators": {"n": [[0, 1], [0, 0]]}}},
                  ["presentation", "generators", "n", 0], 1),
    "one": ({"presentation": DUAL_GF3_TABLE}, ["presentation", "one"], 1),
    "form": ({"presentation": DUAL_GF3_TABLE, "symmetrizing_form": [0, 1]},
             ["symmetrizing_form"], 1),
    "hint": ({"presentation": DUAL_GF3_TABLE,
              "radical_hint": {"kind": "basis", "vectors": [[0, 1]]}},
             ["radical_hint", "vectors", 0], 1),
    "ideal": ({"presentation": {"type": "quotient",
                                "base": {"type": "skew_truncated", "bounds": [3]},
                                "ideal": {"vectors": [[0, 0, 1]]}}},
              ["presentation", "ideal", "vectors", 0], 2),
}
# bad entries, read over GF(3) except the coefficient lists (GF(25))
BAD_ENTRIES = {"bool": True, "float": 1.0, "string": "x",
               "long_coeffs": [1, 2, 3], "bool_coeff": [True, 0]}
# (location, message after "location: ") of each bad entry and of a short
# row and a non-list vector, recorded before coordinate blocks were read in
# one step
ANCHORS = {
    ("table", "bool"): ("presentation.table[1][0][1]", "booleans are not scalars"),
    ("table", "float"): ("presentation.table[1][0][1]", "cannot read scalar 1.0"),
    ("table", "string"): ("presentation.table[1][0][1]", "bad GF(3) literal 'x'"),
    ("table", "long_coeffs"): ("presentation.table[1][0][1]", "coefficient list longer than degree 2"),
    ("table", "bool_coeff"): ("presentation.table[1][0][1][0]", "expected an integer, got True"),
    ("table", "short_row"): ("presentation.table[1][0]", "expected 2 entries, got 1"),
    ("table", "non_list"): ("presentation.table[1][0]", "expected a list"),
    ("generator", "bool"): ("presentation.generators.n[0][1]", "booleans are not scalars"),
    ("generator", "float"): ("presentation.generators.n[0][1]", "cannot read scalar 1.0"),
    ("generator", "string"): ("presentation.generators.n[0][1]", "bad GF(3) literal 'x'"),
    ("generator", "long_coeffs"): ("presentation.generators.n[0][1]", "coefficient list longer than degree 2"),
    ("generator", "bool_coeff"): ("presentation.generators.n[0][1][0]", "expected an integer, got True"),
    ("generator", "short_row"): ("presentation.generators.n[0]", "expected 2 entries, got 1"),
    ("generator", "non_list"): ("presentation.generators.n[0]", "expected a list"),
    ("one", "bool"): ("presentation.one[1]", "booleans are not scalars"),
    ("one", "float"): ("presentation.one[1]", "cannot read scalar 1.0"),
    ("one", "string"): ("presentation.one[1]", "bad GF(3) literal 'x'"),
    ("one", "long_coeffs"): ("presentation.one[1]", "coefficient list longer than degree 2"),
    ("one", "bool_coeff"): ("presentation.one[1][0]", "expected an integer, got True"),
    ("one", "short_row"): ("presentation.one", "expected 2 entries, got 1"),
    ("one", "non_list"): ("presentation.one", "expected a list"),
    ("form", "bool"): ("symmetrizing_form[1]", "booleans are not scalars"),
    ("form", "float"): ("symmetrizing_form[1]", "cannot read scalar 1.0"),
    ("form", "string"): ("symmetrizing_form[1]", "bad GF(3) literal 'x'"),
    ("form", "long_coeffs"): ("symmetrizing_form[1]", "coefficient list longer than degree 2"),
    ("form", "bool_coeff"): ("symmetrizing_form[1][0]", "expected an integer, got True"),
    ("form", "short_row"): ("symmetrizing_form", "expected 2 coordinates"),
    ("form", "non_list"): ("symmetrizing_form", "expected a list"),
    ("hint", "bool"): ("radical_hint.vectors[0][1]", "booleans are not scalars"),
    ("hint", "float"): ("radical_hint.vectors[0][1]", "cannot read scalar 1.0"),
    ("hint", "string"): ("radical_hint.vectors[0][1]", "bad GF(3) literal 'x'"),
    ("hint", "long_coeffs"): ("radical_hint.vectors[0][1]", "coefficient list longer than degree 2"),
    ("hint", "bool_coeff"): ("radical_hint.vectors[0][1][0]", "expected an integer, got True"),
    ("hint", "short_row"): ("radical_hint.vectors[0]", "expected 2 entries, got 1"),
    ("hint", "non_list"): ("radical_hint.vectors[0]", "expected a list"),
    ("ideal", "bool"): ("presentation.ideal.vectors[0][2]", "booleans are not scalars"),
    ("ideal", "float"): ("presentation.ideal.vectors[0][2]", "cannot read scalar 1.0"),
    ("ideal", "string"): ("presentation.ideal.vectors[0][2]", "bad GF(3) literal 'x'"),
    ("ideal", "long_coeffs"): ("presentation.ideal.vectors[0][2]", "coefficient list longer than degree 2"),
    ("ideal", "bool_coeff"): ("presentation.ideal.vectors[0][2][0]", "expected an integer, got True"),
    ("ideal", "short_row"): ("presentation.ideal.vectors[0]", "expected 3 entries, got 2"),
    ("ideal", "non_list"): ("presentation.ideal.vectors[0]", "expected a list"),
}


@pytest.mark.parametrize("block, bad", ANCHORS, ids=[f"{b}-{bad}" for b, bad in ANCHORS])
def test_bad_entries_keep_their_anchors(block, bad):
    doc, keys, index = copy.deepcopy(ANCHOR_BLOCKS[block])
    doc["field"] = GF25 if bad in ("long_coeffs", "bool_coeff") else {"kind": "prime", "p": 3}
    holder = doc
    for key in keys[:-1]:
        holder = holder[key]
    if bad == "short_row":
        holder[keys[-1]] = holder[keys[-1]][:-1]
    elif bad == "non_list":
        holder[keys[-1]] = 5
    else:
        holder[keys[-1]][index] = BAD_ENTRIES[bad]
    with pytest.raises(FileFormatError) as err:
        parse_document(doc)
    location, message = ANCHORS[block, bad]
    assert type(err.value) is FileFormatError
    assert (err.value.location, str(err.value)) == (location, f"{location}: {message}")
