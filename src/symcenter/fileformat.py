"""Algebra definition files: a single JSON document per algebra.

The document names a field, one presentation node (possibly nested
constructions) and an optional symmetrizing form and radical hint.  A
radical hint is a checked claim: the file is refused, at the hint's path,
unless the span it names is the J(A) the engine computes.  Scalars use
the exact literal syntax of the field: prime-field values are decimal
integers, extension values are coefficient lists (low degree first),
rationals are "a/b" strings or integers.  Parsed values reach the library
as typed encodings (int64 arrays, ``FieldScalar``), never as bare ints,
which ``fields`` reads as numbers.

Every declared size is checked against ``MAX_DIM`` before anything is
allocated, so a tiny file cannot ask for a huge table.

Emission is canonical: the text of ``json.dumps(doc, indent=2,
ensure_ascii=False)`` and one trailing newline, so identical algebras
produce byte-identical files.  It is built from the table's nonzero
constants, each distinct scalar and the zero vector laid out once; parsing
reads each coordinate block in one numpy step when its scalars are plain
ints.  Both are linear in the document, with no n x n x n Python list.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from itertools import chain

import numpy as np

from .algebra import Algebra
from .constructions import (
    SkewPresentation,
    from_matrix_generators,
    from_skew_presentation,
    opposite,
    quotient,
    tensor,
    trivial_extension,
)
from .errors import FileFormatError, ScalarFormatError, SymcenterError
from .fields import (
    ExtensionField,
    FieldDescriptor,
    FieldScalar,
    PrimeField,
    RationalField,
)
from .linalg import Subspace
from .substructures import radical

MAX_DIM = 512      # a dense int64 structure table of this dimension is 1 GiB


def parse_field(obj, path="field") -> FieldDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FileFormatError(f"{path}: expected an object with a 'kind'", path)
    kind = obj["kind"]
    try:
        if kind == "prime":
            return PrimeField(_integer(obj["p"], f"{path}.p"))
        if kind == "extension":
            return ExtensionField(
                _integer(obj["p"], f"{path}.p"),
                [_integer(c, f"{path}.modulus[{i}]")
                 for i, c in enumerate(obj["modulus"])],
            )
        if kind == "rational":
            return RationalField()
    except KeyError as exc:
        raise FileFormatError(f"{path}: missing field parameter {exc}", path) from None
    except FileFormatError:
        raise
    except (SymcenterError, ValueError, TypeError) as exc:
        raise FileFormatError(f"{path}: {exc}", path) from None
    raise FileFormatError(f"{path}: unknown field kind {kind!r}", path)


def field_to_json(field: FieldDescriptor) -> dict:
    if isinstance(field, PrimeField):
        return {"kind": "prime", "p": field.p}
    if isinstance(field, ExtensionField):
        return {"kind": "extension", "p": field.p, "modulus": list(field.modulus)}
    return {"kind": "rational"}


def parse_scalar(field: FieldDescriptor, value, path: str):
    """A scalar from its JSON form: int, literal string, or coefficient list."""
    try:
        if isinstance(value, int):      # a bool too, which _enc refuses
            return field._enc(value)
        if isinstance(value, str):
            return field.parse_enc(value)
        if isinstance(value, list) and isinstance(field, ExtensionField):
            return field.coeffs_to_enc([_integer(c, f"{path}[{i}]")
                                        for i, c in enumerate(value)])
    except (ScalarFormatError, ValueError, TypeError) as exc:
        raise FileFormatError(f"{path}: {exc}", path) from None
    raise FileFormatError(f"{path}: cannot read scalar {value!r}", path)


def scalar_to_json(field: FieldDescriptor, enc):
    if isinstance(field, PrimeField):
        return int(enc)
    if isinstance(field, ExtensionField):
        return [int(c) for c in field.enc_to_coeffs(int(enc))]
    return int(enc) if enc.denominator == 1 else str(enc)


def parse_vector(field, values, path: str, length: int | None = None):
    return _parse_block(field, values, path, (length,))


def _parse_block(field, values, path: str, shape: tuple) -> np.ndarray:
    """The encodings of a nested list of scalars, an array of ``shape`` (a
    length per level; None, outermost only, takes any), checked level by
    level.  ``parse_scalar`` reads the scalars, and names the first bad
    one, only where ``_encode`` cannot take the block in one step."""
    level, dims = [values], []
    for length in shape:
        for t, v in enumerate(level):
            if not isinstance(v, list) or length not in (None, len(v)):
                at = path + "".join(f"[{i}]" for i in np.unravel_index(t, dims))
                raise FileFormatError(f"{at}: expected a list" if not isinstance(v, list)
                                      else f"{at}: expected {length} entries, got {len(v)}", at)
        dims.append(len(values) if length is None else length)
        level = list(chain.from_iterable(level))
    enc = _encode(field, level)
    if enc is None:
        enc = np.array([parse_scalar(field, value, path + "".join(f"[{i}]" for i in index))
                        for index, value in zip(np.ndindex(*dims), level)], dtype=field.dtype)
    return enc.reshape(dims)


def _encode(field, scalars: list):
    """The encodings of JSON scalars in one numpy step, or None unless each
    is an int in int64 (n meaning n * 1) or, over GF(p^k), a list of at
    most k such ints."""
    if isinstance(field, ExtensionField):
        rows = [x if type(x) is list else [x] for x in scalars]
        lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        scalars = list(chain.from_iterable(rows))
    if field.order is None or not set(map(type, scalars)) <= {int}:
        return None
    try:
        ints = np.array(scalars, dtype=np.int64)
        if not isinstance(field, ExtensionField):
            return ints % field.p
        coeffs = field.zeros((len(lens), field.degree))
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        coeffs[np.repeat(np.arange(len(lens)), lens), np.arange(len(ints)) - starts] = ints
    except (OverflowError, IndexError):     # past int64, or more than k coefficients
        return None
    return field.coeff_rows_to_enc(coeffs)


def _integer(value, path: str) -> int:
    """A JSON integer; bools and floats are refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{path}: expected an integer, got {value!r}", path)
    return value


def _count(node: dict, key: str, path: str) -> int:
    """A non-negative integer entry of a presentation node; bools are not counts."""
    value = node.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FileFormatError(
            f"{path}.{key}: expected a non-negative integer, got {value!r}",
            f"{path}.{key}",
        )
    return value


def _check_dim(what: str, dim: int, path: str):
    if dim > MAX_DIM:
        raise FileFormatError(f"{path}: {what} {dim} exceeds the desk-scale cap of {MAX_DIM}", path)


def _names(node: dict, key: str, path: str, length: int | None = None):
    """An optional list of strings (basis labels, variable names)."""
    value = node.get(key)
    if value is None:
        return None
    if (not isinstance(value, list) or not all(isinstance(s, str) for s in value)
            or (length is not None and len(value) != length)):
        count = "" if length is None else f"{length} "
        raise FileFormatError(
            f"{path}.{key}: expected a list of {count}strings", f"{path}.{key}"
        )
    return value


def _parse_hint(field, spec, path: str, one) -> Subspace:
    """The span a radical hint names: explicit vectors (kinds 'basis' and
    'local_codim1'), every basis vector but the unit's first nonzero
    coordinate ('local_codim1' without vectors), or zero ('semisimple')."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise FileFormatError(f"{path}: expected an object with 'kind'", path)
    kind, dim = spec["kind"], len(one)
    if kind == "semisimple":
        return Subspace.zero(field, dim)
    if kind not in ("basis", "local_codim1"):
        raise FileFormatError(f"{path}: unknown radical hint kind {kind!r}", path)
    if "vectors" not in spec:
        if kind == "basis":
            raise FileFormatError(f"{path}: a basis hint needs 'vectors'", path)
        skip = int(np.nonzero(one != field.zero_enc)[0][0])
        return Subspace.from_rows(field, dim, np.delete(field.eye(dim), skip, axis=0))
    rows = _parse_block(field, spec["vectors"], f"{path}.vectors", (None, dim))
    return Subspace.from_rows(field, dim, rows)


def _parse_form(field, spec, path: str, dim: int):
    form = parse_vector(field, spec, path)
    if len(form) != dim:
        raise FileFormatError(f"{path}: expected {dim} coordinates", path)
    return form


def _parse_presentation(field, node, path: str, hint=None, form=None,
                        name=None) -> Algebra:
    """The algebra of one presentation node.

    ``hint`` and ``form`` are the (spec, path) of a radical hint and of a
    symmetrizing form that override the node's own; both are parsed once
    the dimension they must match is known, and the hint is then checked
    against the node's J(A).
    """
    if not isinstance(node, dict) or "type" not in node:
        raise FileFormatError(f"{path}: expected an object with a 'type'", path)
    # nested nodes may carry their own hint and form
    if hint is None and "radical_hint" in node:
        hint = (node["radical_hint"], f"{path}.radical_hint")
    if form is None and "symmetrizing_form" in node:
        form = (node["symmetrizing_form"], f"{path}.symmetrizing_form")
    ptype = node["type"]
    if ptype == "structure_constants":
        alg = _parse_structure_constants(field, node, path)
    elif ptype == "skew_truncated":
        bounds = node.get("bounds")
        if not isinstance(bounds, list) or not all(
                isinstance(b, int) and not isinstance(b, bool) for b in bounds):
            raise FileFormatError(
                f"{path}.bounds: expected a list of integers", f"{path}.bounds"
            )
        _check_dim("dimension (product of the bounds)", math.prod(bounds), f"{path}.bounds")
        qnode = node.get("q", {})
        if not isinstance(qnode, dict):
            raise FileFormatError(
                f"{path}.q: expected an object with 'j,i' keys", f"{path}.q"
            )
        qspec = []
        for key, val in sorted(qnode.items()):
            try:
                j, i = (int(s) for s in key.split(","))
            except ValueError:
                raise FileFormatError(
                    f"{path}.q: keys look like 'j,i' with 1-based j > i", path
                ) from None
            enc = parse_scalar(field, val, f"{path}.q[{key}]")
            qspec.append(((j - 1, i - 1), FieldScalar(field, enc)))
        names = _names(node, "variables", path)
        pres = SkewPresentation(
            tuple(bounds), tuple(qspec),
            None if names is None else tuple(names),
        )
        alg = from_skew_presentation(field, pres, name=name)
    elif ptype == "matrix_generators":
        size = _count(node, "size", path)
        _check_dim("dimension bound size^2 =", size * size, f"{path}.size")
        gens = node.get("generators")
        if not isinstance(gens, dict):
            raise FileFormatError(
                f"{path}: matrix_generators needs 'size' and 'generators'", path
            )
        parsed = {}
        for gname, rows in gens.items():
            if not isinstance(rows, list) or len(rows) != size:
                raise FileFormatError(
                    f"{path}.generators.{gname}: expected {size} rows", path
                )
            parsed[gname] = _parse_block(field, rows, f"{path}.generators.{gname}",
                                         (size, size))
        alg = from_matrix_generators(
            field, size, parsed,
            monomial_basis=_names(node, "monomial_basis", path),
            name=name,
        )
    elif ptype == "tensor":
        left = _parse_presentation(field, node.get("left"), f"{path}.left")
        right = _parse_presentation(field, node.get("right"), f"{path}.right")
        _check_dim("dimension", left.dim * right.dim, path)
        alg = tensor(left, right)
    elif ptype == "trivial_extension":
        base = _parse_presentation(field, node.get("base"), f"{path}.base")
        _check_dim("dimension", 2 * base.dim, path)
        alg = trivial_extension(base)
    elif ptype == "quotient":
        base = _parse_presentation(field, node.get("base"), f"{path}.base")
        spec = node.get("ideal")
        if not isinstance(spec, dict) or "vectors" not in spec:
            raise FileFormatError(f"{path}.ideal: expected vectors", path)
        rows = _parse_block(field, spec["vectors"], f"{path}.ideal.vectors",
                            (None, base.dim))
        sub = Subspace.from_rows(field, base.dim, rows)
        closure = spec.get("closure", False)
        if not isinstance(closure, bool):
            raise FileFormatError(f"{path}.ideal.closure: expected true or false, "
                                  f"got {closure!r}", f"{path}.ideal.closure")
        if closure:
            sub = base.ideal_closure(sub)
        alg = quotient(base, sub)
    elif ptype == "opposite":
        base = _parse_presentation(field, node.get("base"), f"{path}.base")
        alg = opposite(base)
    else:
        raise FileFormatError(f"{path}: unknown presentation type {ptype!r}", path)
    claimed = None if hint is None else _parse_hint(field, *hint, alg.one)
    sym_form = None if form is None else _parse_form(field, *form, alg.dim)
    if name is not None or sym_form is not None:
        alg = alg.replace(name=name, sym_form=sym_form)
    if claimed is not None:
        j = radical(alg).radical
        if j != claimed:
            raise FileFormatError(
                f"{hint[1]}: the hint names a span of dimension {claimed.dim}, which "
                f"is not J(A) (dimension {j.dim})", hint[1])
    return alg


def _parse_structure_constants(field, node, path) -> Algebra:
    table_spec = node.get("table")
    one_spec = node.get("one")
    if "dim" not in node or table_spec is None or one_spec is None:
        raise FileFormatError(
            f"{path}: structure_constants needs 'dim', 'table' and 'one'", path
        )
    dim = _count(node, "dim", path)
    _check_dim("dimension", dim, f"{path}.dim")
    labels = _names(node, "labels", path, dim)
    if not isinstance(table_spec, list) or len(table_spec) != dim:
        raise FileFormatError(f"{path}.table: expected {dim} rows", path)
    for i, plane in enumerate(table_spec):
        if not isinstance(plane, list) or len(plane) != dim:
            raise FileFormatError(f"{path}.table[{i}]: expected {dim} entries", path)
    table = _parse_block(field, table_spec, f"{path}.table", (dim, dim, dim))
    one = parse_vector(field, one_spec, f"{path}.one", dim)
    return Algebra(field, table, one, labels=labels)


def parse_document(doc: dict) -> Algebra:
    """Build the algebra described by a parsed JSON document."""
    if not isinstance(doc, dict):
        raise FileFormatError("top level: expected a JSON object", "top")
    field = parse_field(doc.get("field"), "field")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise FileFormatError("name: expected a string", "name")
    # the top-level hint and form override any in the presentation
    hint, form = ((doc[key], key) if key in doc else None
                  for key in ("radical_hint", "symmetrizing_form"))
    return _parse_presentation(
        field, doc.get("presentation"), "presentation",
        hint=hint, form=form, name=name,
    )


def read_document(path: str):
    """The parsed JSON of a file; bad UTF-8 or JSON raise FileFormatError.

    OSError from opening or reading (missing file, a directory, no
    permission) propagates; its message names the path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FileFormatError(
                f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}",
            f"line {exc.lineno}",
        ) from None
    except ValueError as exc:   # e.g. an integer literal past the digit limit
        raise FileFormatError(f"{path}: {exc}") from None


def load_algebra(path: str) -> Algebra:
    """Parse an algebra definition file; errors carry line or path anchors."""
    return parse_document(read_document(path))


def _dumps(value, depth: int) -> str:
    """``value`` as ``json.dumps(indent=2)`` lays it out ``depth`` levels deep."""
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + "  " * depth)


def emit_structure_constants(alg: Algebra) -> str:
    """Canonical explicit file for an algebra (used by cmd_construct)."""
    field, n = alg.field, alg.dim
    pad3, pad4, pad5 = ("\n" + "  " * depth for depth in (3, 4, 5))
    values = [arr.tolist() for arr in alg.entries]
    texts = {v: _dumps(scalar_to_json(field, v), 5) for v in {field.zero_enc, *values[3]}}
    zero = texts[field.zero_enc]
    rows = defaultdict(lambda: [zero] * n, {-1: [zero] * n})    # -1: the zero vector
    for i, j, k, v in zip(*values):
        rows[i * n + j][k] = texts[v]
    joined = {ij: f"[{pad5}{(',' + pad5).join(row)}{pad4}]" for ij, row in rows.items()}
    vecs = [joined.get(ij, joined[-1]) for ij in range(n * n)]
    # the n planes of n vectors, as pieces of the one final join
    seps = ([f",{pad4}"] * (n - 1) + [f"{pad3}],{pad3}[{pad4}"]) * n
    seps[-1] = f"{pad3}]\n    ]"
    pres = {"type": "structure_constants", "dim": n, "table": []}
    rest = {"one": [scalar_to_json(field, v) for v in alg.one]}
    if alg.labels is not None:
        rest["labels"] = list(alg.labels)
    tail = {"radical_hint": {"kind": "basis", "vectors": [
        [scalar_to_json(field, v) for v in row] for row in radical(alg).radical.basis]}}
    if alg.sym_form is not None:
        tail["symmetrizing_form"] = [scalar_to_json(field, v) for v in alg.sym_form]
    # cut at fixed offsets of the canonical layout: the head ends in the
    # table's '[]\n  }\n}', and the other two parts open with '{'
    head = _dumps({"name": alg.name or "algebra", "field": field_to_json(field),
                   "presentation": pres}, 0)[:-8]
    return "".join([head, "[", pad3, "[", pad4, *chain.from_iterable(zip(vecs, seps)),
                    ",", _dumps(rest, 1)[1:], ",", _dumps(tail, 0)[1:], "\n"])
