"""The command-line interface, exercised through real subprocesses."""

import json
import os
import subprocess
import sys

import pytest

from conftest import CASES

from symcenter import cli


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "symcenter", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def test_analyze_text():
    proc = run_cli("analyze", str(CASES / "dim12_sharp.json"))
    assert proc.returncode == 0
    assert "dim A     12" in proc.stdout
    assert "(p1)      J(Z(A)) is NOT an ideal" in proc.stdout
    assert "witness: u = M^2" in proc.stdout


def test_analyze_machine_schema():
    proc = run_cli("analyze", str(CASES / "counterexample_B.json"),
                   "--format", "machine")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema_version"] == 1
    assert doc["dim"] == 8
    assert doc["dims"]["JZ"] == 2
    assert doc["verdicts"]["p1"]["holds"] is False


def test_analyze_scalar_field_all_verdicts_true():
    proc = run_cli("analyze", str(CASES / "scalars_gf3.json"), "--format", "machine")
    doc = json.loads(proc.stdout)
    assert all(doc["verdicts"][p]["holds"] for p in ("p1", "p2", "p3"))


def test_parse_error_is_line_anchored(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "field": oops\n}\n')
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


def test_non_associative_table_exit_2(tmp_path):
    # matrix units with E12*E21 = 2*E11 break associativity
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
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2
    assert "associativity fails at basis triple" in proc.stderr


def test_analyze_without_a_hint_certifies_the_rule_radical(tmp_path):
    doc = {
        "field": {"kind": "prime", "p": 2},
        "presentation": {
            "type": "structure_constants",
            "dim": 2,
            "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
            "one": [1, 0],
        },
    }
    path = tmp_path / "nohint.json"
    path.write_text(json.dumps(doc))
    # char 2 <= dim and no hint: the radical rule certifies J = span{x}
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "dim J(A)      1" in proc.stdout
    assert "radical   kuelshammer: " in proc.stdout


@pytest.mark.parametrize("hint", [
    {"kind": "semisimple"},
    {"kind": "basis", "vectors": [[1, 1]]},
    {"kind": "local_codim1", "vectors": []},
    {"kind": "bogus"},
    {"kind": "basis"},
], ids=["semisimple", "basis", "local_codim1", "unknown_kind", "basis_without_vectors"])
def test_contradicting_radical_hint_exit_2(tmp_path, hint):
    # J(A) = span{x}: each hint names another span, or none, at a nested node
    presentation = {"type": "structure_constants", "dim": 2,
                    "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], "one": [1, 0]}
    doc = {"field": {"kind": "prime", "p": 2},
           "presentation": {"type": "opposite", "base": dict(presentation, radical_hint=hint)}}
    path = tmp_path / "wrong_hint.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: presentation.base.radical_hint: ")
    assert "Traceback" not in proc.stderr


def test_missing_file_exit_2():
    proc = run_cli("analyze", "/nonexistent/file.json")
    assert proc.returncode == 2


@pytest.mark.parametrize("command", ["analyze", "construct"])
@pytest.mark.parametrize("kind", ["directory", "not_utf8", "long_integer"])
def test_unreadable_input_exit_2(command, kind, tmp_path):
    if kind == "directory":
        path = tmp_path / "cases"
        path.mkdir()
    elif kind == "not_utf8":
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
    else:
        # past the interpreter's 4300-digit limit for int parsing
        path = tmp_path / "long_int.json"
        path.write_text('{"field": {"kind": "prime", "p": 1' + "0" * 5000 + "}}")
    extra = ["--out", str(tmp_path / "out.json")] if command == "construct" else []
    proc = run_cli(command, str(path), *extra)
    assert proc.returncode == 2, proc.stderr
    assert str(path) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_paper_suite_single_case():
    proc = run_cli("paper-suite", "--case", "soc20_base")
    assert proc.returncode == 0
    assert "PASS soc20_base/matrix_relations" in proc.stdout
    assert "FAIL" not in proc.stdout


# The modules loaded after ``import symcenter.cli``, then after one command:
# each command imports only the layer it runs.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import symcenter.cli
loaded = [sorted(m for m in sys.modules if m.split(".")[0] == "symcenter")]
with contextlib.redirect_stdout(io.StringIO()):
    code = symcenter.cli.main(sys.argv[1:])
loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "symcenter"))
print(json.dumps([code, loaded]))
"""

_CLI_MODULES = {"symcenter"} | {
    f"symcenter.{name}" for name in ("algebra", "analysis", "cli", "constructions",
                                     "errors", "fields", "linalg", "substructures",
                                     "symmetric")}


@pytest.mark.parametrize("command, layer", [
    (["analyze", str(CASES / "dim12_sharp.json")], {"fileformat"}),
    (["paper-suite", "--case", "matn"], {"suites", "corpus", "lemmas", "family"}),
])
def test_each_command_imports_only_its_layer(command, layer):
    env = dict(os.environ, PYTHONPATH=str(CASES.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *command],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, (at_import, after_command) = json.loads(proc.stdout)
    assert code == 0
    assert set(at_import) == _CLI_MODULES
    assert set(after_command) - set(at_import) == {f"symcenter.{name}" for name in layer}


def test_paper_suite_unknown_case():
    proc = run_cli("paper-suite", "--case", "nonexistent")
    assert proc.returncode == 2
    assert "unknown case" in proc.stderr


def test_construct_roundtrip(tmp_path):
    out = tmp_path / "materialised.json"
    proc = run_cli("construct", str(CASES / "trivext_dual_gf3.json"),
                   "--out", str(out))
    assert proc.returncode == 0
    direct = run_cli("analyze", str(CASES / "trivext_dual_gf3.json"),
                     "--format", "machine")
    emitted = run_cli("analyze", str(out), "--format", "machine")
    assert json.loads(direct.stdout) == json.loads(emitted.stdout)


def test_construct_includes_form_and_radical(tmp_path):
    out = tmp_path / "t.json"
    run_cli("construct", str(CASES / "trivext_dual_gf3.json"), "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["presentation"]["type"] == "structure_constants"
    assert doc["symmetrizing_form"] == [0, 0, 1, 0]
    assert doc["radical_hint"]["kind"] == "basis"
    assert len(doc["radical_hint"]["vectors"]) == 3


def test_construct_reads_its_input_once(tmp_path, monkeypatch):
    src = str(CASES / "trivext_dual_gf3.json")
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert cli.main(["construct", src, "--out", str(tmp_path / "t.json")]) == 0
    assert opened.count(src) == 1


def test_construct_rejects_plain_presentation(tmp_path):
    proc = run_cli("construct", str(CASES / "mat2_gf3.json"),
                   "--out", str(tmp_path / "x.json"))
    assert proc.returncode == 2
    assert "construction presentation" in proc.stderr


def test_construct_rejects_quotient_by_non_ideal(tmp_path):
    doc = {
        "field": {"kind": "prime", "p": 3},
        "presentation": {
            "type": "quotient",
            "base": {"type": "skew_truncated", "bounds": [2, 2],
                     "q": {"2,1": "-1"}},
            "ideal": {"vectors": [[0, 1, 0, 0]]},
        },
    }
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("construct", str(path), "--out", str(tmp_path / "o.json"))
    assert proc.returncode == 2
    assert "ideal" in proc.stderr


def test_wrong_length_symmetrizing_form_exit_2(tmp_path):
    doc = json.loads((CASES / "dual_numbers_gf3.json").read_text())
    doc["symmetrizing_form"] = [0, 1, 2]                 # dim is 2
    bad = tmp_path / "long_form.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 2
    assert "symmetrizing_form: expected 2 coordinates" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_malformed_radical_hint_exit_2(tmp_path):
    presentation = {
        "type": "structure_constants",
        "dim": 2,
        "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        "one": [1, 0],
    }
    for vectors, location in (([[0, 1, 0]], "radical_hint.vectors[0]"),
                              (5, "radical_hint.vectors")):
        doc = {"field": {"kind": "prime", "p": 3}, "presentation": presentation,
               "radical_hint": {"kind": "basis", "vectors": vectors}}
        path = tmp_path / "bad_hint.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("analyze", str(path))
        assert proc.returncode == 2, proc.stderr
        assert location in proc.stderr
        assert "Traceback" not in proc.stderr


_TABLE_2 = {
    "type": "structure_constants",
    "dim": 2,
    "table": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    "one": [1, 0],
}


def _node(presentation):
    return {"presentation": presentation}


@pytest.mark.parametrize("entries, anchor", [
    (_node(dict(_TABLE_2, dim=-1)), "presentation.dim"),
    (_node(dict(_TABLE_2, dim=True)), "presentation.dim"),
    (_node({"type": "matrix_generators", "size": -2, "generators": {}}),
     "presentation.size"),
    (_node({"type": "matrix_generators", "size": 2,
            "generators": {"a": [[0, 1], [0, 0]]}, "monomial_basis": 5}),
     "presentation.monomial_basis"),
    (_node({"type": "quotient", "base": _TABLE_2, "ideal": {"vectors": 5}}),
     "presentation.ideal.vectors"),
    (_node({"type": "skew_truncated", "bounds": [2, 2], "q": [1]}),
     "presentation.q"),
    (_node({"type": "skew_truncated", "bounds": [True, 2]}),
     "presentation.bounds"),
    (_node({"type": "skew_truncated", "bounds": [2, 2], "variables": 5}),
     "presentation.variables"),
    (_node(dict(_TABLE_2, labels=5)), "presentation.labels"),
    (_node(dict(_TABLE_2, labels=["a", 2])), "presentation.labels"),
    ({"name": 5}, "name: expected a string"),
    # well-formed JSON that the constructions reject
    (_node({"type": "skew_truncated", "bounds": [2, 2], "variables": ["x"]}),
     "1 variable names for 2 generators"),
    (_node({"type": "matrix_generators", "size": 0, "generators": {}}),
     "size >= 1"),
    # field parameters must be integers, not truncated floats or bools
    ({"field": {"kind": "prime", "p": 3.9}}, "field.p"),
    ({"field": {"kind": "prime", "p": True}}, "field.p"),
    ({"field": {"kind": "extension", "p": 5, "modulus": [2.5, 0, 1]}},
     "field.modulus[0]"),
    ({"field": {"kind": "extension", "p": 5, "modulus": [2, 0, 1]},
      **_node(dict(_TABLE_2, one=[[1.5], 0]))}, "presentation.one[0][0]"),
    # a huge p is refused by the size caps instead of hanging
    ({"field": {"kind": "prime", "p": 2**61 - 1}}, "cap"),
    ({"field": {"kind": "extension", "p": 2**61 - 1, "modulus": [1, 0, 1]}},
     "cap"),
    # a huge declared dimension is refused before anything is allocated
    (_node({"type": "structure_constants", "dim": 10**6, "table": [], "one": []}),
     "presentation.dim: dimension 1000000 exceeds"),
    (_node({"type": "skew_truncated", "bounds": [10**6]}),
     "presentation.bounds: dimension"),
    (_node({"type": "matrix_generators", "size": 10**6, "generators": {}}),
     "presentation.size: dimension"),
])
def test_malformed_document_exit_2(entries, anchor, tmp_path):
    doc = {"field": {"kind": "prime", "p": 3}, **_node(_TABLE_2), **entries}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2, proc.stderr
    assert anchor in proc.stderr
    assert "Traceback" not in proc.stderr


def test_q_pair_given_twice_in_a_file_exits_2(tmp_path, capsys):
    # "2,1" and "2, 1" both name the pair x2 x1; the later key used to win silently
    doc = {"field": {"kind": "prime", "p": 5},
           "presentation": {"type": "skew_truncated", "bounds": [2, 2],
                            "q": {"2,1": 2, "2, 1": 1}}}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "q pair (1, 0) (x2, x1) is given twice" in err
    assert "Traceback" not in err
