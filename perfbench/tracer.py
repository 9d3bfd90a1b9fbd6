"""Outside-in layer tracing for one benchmark child process.

The tracer never edits the program.  It replaces each traced function in
every ``symcenter.*`` namespace that binds it (``from .linalg import
rref_data`` copies the binding, so patching ``symcenter.linalg`` alone
would miss most calls) and wraps methods on their classes.  Each wrapper
records a span: its self time is the span's duration minus the time of
the traced spans it called.  Counters that need the arguments or the
result are computed after the span's clock has stopped, and that time is
also hidden from the enclosing span, so they do not inflate self times.

Only the public return values and arguments are read, with one
exception: the radical cache-hit test looks at ``Algebra._cache`` before
the call, without writing to it.
"""

from __future__ import annotations

import importlib
import pkgutil
import time

import numpy as np

# (module, function, span name): module-level functions, replaced in
# every symcenter namespace that binds the same object
FUNCTIONS = [
    ("linalg", "rref_data", "linalg.rref_data"),
    ("linalg", "reduce_rows", "linalg.reduce_rows"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "subspace_intersect", "linalg.subspace_intersect"),
    ("constructions", "from_skew_presentation", "constructions.from_skew_presentation"),
    ("constructions", "from_matrix_generators", "constructions.from_matrix_generators"),
    ("constructions", "tensor", "constructions.tensor"),
    ("constructions", "trivial_extension", "constructions.trivial_extension"),
    ("constructions", "quotient", "constructions.quotient"),
    ("constructions", "opposite", "constructions.opposite"),
    ("substructures", "radical", "substructures.radical"),
    ("substructures", "socle", "substructures.socle"),
    ("substructures", "j_of_center", "substructures.j_of_center"),
    ("substructures", "soc_of_center", "substructures.soc_of_center"),
    ("substructures", "reynolds", "substructures.reynolds"),
    ("substructures", "property_verdicts", "substructures.property_verdicts"),
    ("symmetric", "verify_symmetric", "symmetric.verify_symmetric"),
    ("symmetric", "symmetric_quotient", "symmetric.symmetric_quotient"),
    ("analysis", "analyze", "analysis.analyze"),
    ("fileformat", "load_algebra", "fileformat.load_algebra"),
    ("fileformat", "emit_structure_constants", "fileformat.emit_structure_constants"),
    ("suites", "run_paper_suite", "suites.run_paper_suite"),
    ("family", "generate_symmetric_local_family", "family.generate_symmetric_local_family"),
]

# (module, class, method, span name): wrapped on the class that defines it
METHODS = [
    ("fields", "FieldDescriptor", "elim", "fields.elim"),
    ("fields", "FieldDescriptor", "tensordot_lf", "fields.tensordot_lf"),
    ("fields", "PrimeField", "matmul2", "fields.matmul2"),
    ("fields", "ExtensionField", "matmul2", "fields.matmul2"),
    ("fields", "RationalField", "matmul2", "fields.matmul2"),
    ("algebra", "Algebra", "__init__", "algebra.construct"),
    ("algebra", "Algebra", "center", "algebra.center"),
    ("algebra", "Algebra", "commutator_space", "algebra.commutator_space"),
    ("algebra", "Algebra", "subspace_product", "algebra.subspace_product"),
    ("algebra", "Algebra", "is_ideal", "algebra.is_ideal"),
    ("algebra", "Algebra", "multiply_coords", "algebra.multiply_coords"),
    ("algebra", "Algebra", "left_annihilator", "algebra.annihilator"),
    ("algebra", "Algebra", "right_annihilator", "algebra.annihilator"),
    ("algebra", "Algebra", "loewy_series", "algebra.loewy_series"),
]

SPANS = sorted({name for *_, name in FUNCTIONS} | {name for *_, name in METHODS})


class Tracer:
    """Spans and counters of one process; single-threaded by design."""

    def __init__(self):
        self.active = False
        self.calls = {name: 0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        self.counts: dict[str, float] = {}
        self.strategies: dict[str, int] = {}
        self.suite_elapsed: dict[str, float] = {}
        self.families: list = []
        self._stack = [0.0]            # child time of each open span

    def count(self, key: str, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name, fn, pre=None, post=None):
        """A wrapper that records a ``name`` span around each call of ``fn``.

        ``pre(args)`` runs before the clock starts; ``post(state, args,
        result, exc)`` runs after it stops.
        """
        clock = time.perf_counter
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = pre(args) if pre is not None else None
            stack.append(0.0)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                inner = stack.pop()
                calls[name] += 1
                self_s[name] += dt - inner
                stack[-1] += dt
                if post is not None:
                    h0 = clock()
                    post(state, args, result, exc)
                    stack[-1] += clock() - h0

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, package):
        """Import every submodule of ``package`` and wrap the traced calls."""
        modules = _import_all(package)
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        hooks = self._hooks()
        for mod, fn_name, span in FUNCTIONS:
            original = getattr(by_name[mod], fn_name)
            _refuse_hidden_references(modules, original, span)
            wrapped = self.wrap(span, original, *hooks.get(span, (None, None)))
            replaced = 0
            for m in modules + [package]:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        replaced += 1
            if replaced == 0:
                raise RuntimeError(f"{span}: no namespace binds the function")
        for mod, cls_name, meth, span in METHODS:
            cls = getattr(by_name[mod], cls_name)
            original = cls.__dict__.get(meth)
            if original is None:
                raise RuntimeError(f"{span}: {cls_name} does not define {meth}")
            setattr(cls, meth, self.wrap(span, original, *hooks.get(span, (None, None))))
        self.active = True

    # -- counters ------------------------------------------------------------

    def _hooks(self):
        count = self.count

        def elim_post(state, args, result, exc):
            field, _, f, _ = args
            count("fields.elim.rows", int(f.shape[0]))
            count("fields.elim.rows_nz", int(np.count_nonzero(f != field.zero_enc)))

        def matmul_post(state, args, result, exc):
            field, a, b = args
            r, m, c = int(a.shape[0]), int(a.shape[1]), int(b.shape[1])
            count("fields.matmul2.madds", r * m * c)
            if type(field).__name__ == "ExtensionField":
                count("fields.kron_elems", r * m + m * c)

        def rref_post(state, args, result, exc):
            if result is None:
                return
            data = np.asarray(args[1])
            count("linalg.rref_data.cells", int(data.size))
            count("linalg.rref_data.input_rows", int(data.shape[0]) if data.ndim == 2 else 0)
            count("linalg.rref_data.rank", len(result[1]))

        def construct_post(state, args, result, exc):
            if exc is None:
                count("algebra.construct.n3", int(args[0].dim) ** 3)

        def radical_pre(args):
            return "radical_cert" in args[0]._cache

        def radical_post(hit, args, result, exc):
            if hit:
                count("substructures.radical.cache_hits")
                return
            if exc is not None:
                if type(exc).__name__ == "RadicalUnavailable":
                    self.strategies["unavailable"] = self.strategies.get("unavailable", 0) + 1
                return
            key = result.strategy
            self.strategies[key] = self.strategies.get(key, 0) + 1

        def suite_post(state, args, result, exc):
            for r in result or ():
                sid = r.suite_id
                kind = "family" if sid == "family" else (
                    "lemmas" if sid.startswith("lemma/") else "corpus")
                self.suite_elapsed[kind] = self.suite_elapsed.get(kind, 0.0) + r.elapsed

        def family_post(state, args, result, exc):
            if result is not None and all(result is not f for f in self.families):
                self.families.append(result)

        return {
            "fields.elim": (None, elim_post),
            "fields.matmul2": (None, matmul_post),
            "linalg.rref_data": (None, rref_post),
            "algebra.construct": (None, construct_post),
            "substructures.radical": (radical_pre, radical_post),
            "suites.run_paper_suite": (None, suite_post),
            "family.generate_symmetric_local_family": (None, family_post),
        }

    def family_coverage(self):
        """Members and noncommutative members per dimension, over every
        family the run generated; call after tracing is switched off."""
        members: dict[int, int] = {}
        noncomm: dict[int, int] = {}
        for fam in self.families:
            for m in fam:
                d = int(m.algebra.dim)
                members[d] = members.get(d, 0) + 1
                if not m.algebra.is_commutative():
                    noncomm[d] = noncomm.get(d, 0) + 1
        return members, noncomm

    def report(self) -> dict:
        self.active = False
        members, noncomm = self.family_coverage()
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "strategies": dict(self.strategies),
            "suite_elapsed": dict(self.suite_elapsed),
            "family_members": {str(k): v for k, v in sorted(members.items())},
            "family_noncommutative": {str(k): v for k, v in sorted(noncomm.items())},
        }


def _import_all(package):
    """Every submodule of ``package`` except ``__main__``, which runs the CLI."""
    modules = []
    for info in pkgutil.iter_modules(package.__path__):
        if info.name == "__main__":
            continue
        modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return modules


def _refuse_hidden_references(modules, original, span):
    """Fail loudly if a module-level container holds a traced function:
    such a reference would bypass the wrapper and undercount the span."""
    for m in modules:
        for attr, value in vars(m).items():
            if isinstance(value, dict):
                items = list(value.values())
            elif isinstance(value, (list, tuple)):
                items = list(value)
            else:
                continue
            if any(v is original for v in items):
                raise RuntimeError(
                    f"{span}: {m.__name__}.{attr} holds a direct reference "
                    "that the tracer cannot replace"
                )
