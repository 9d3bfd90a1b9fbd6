"""symcenter benchmark: cold closed-loop workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --out entry.json

Each iteration is one cold child process (``child.py``), started only
after the previous one has exited (a closed loop with one client).  The
loop stops before an iteration that would end past ``--seconds``; at
least one iteration always runs.  Every output is checked against the
frozen references in ``references.json``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose
iterations alternate untraced and traced children with the same input
order.  Everything above the last line is for people: the environment
record, every metric with its unit, and every failed operation by name.
Times, end to end and per layer, are in reference seconds: measured
seconds scaled by the machine's speed, sampled on the same CPU while each
child runs (see "machine speed" below).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 11         # set-up is measured at least this often per run

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "SYMCENTER_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


# -- children -----------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def _drain(stream, sink: list):
    sink.append(stream.read())
    stream.close()


def run_child(ops: list, trace: bool = False, setup_only: bool = False) -> dict:
    """Start one child, wait for it, and return its measured iteration."""
    rfd, wfd = os.pipe()
    cmd = [sys.executable, CHILD, "--root", ROOT, "--ops", json.dumps(ops),
           "--fd", str(wfd), "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env(), cwd=ROOT, pass_fds=(wfd,))
    os.close(wfd)
    out, err, res = [], [], []
    readers = [
        threading.Thread(target=_drain, args=(proc.stdout, out)),
        threading.Thread(target=_drain, args=(proc.stderr, err)),
        threading.Thread(target=_drain, args=(os.fdopen(rfd, "rb"), res)),
    ]
    for t in readers:
        t.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    t1 = time.monotonic()
    for t in readers:
        t.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    it = {
        "t_spawn": t0,
        "returncode": proc.returncode,
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stdout_sha256": hashlib.sha256(out[0]).hexdigest(),
        "stderr_tail": err[0].decode("utf-8", "replace")[-400:],
        "ops": [],
    }
    try:
        body = json.loads(res[0].decode("utf-8"))
    except ValueError:
        body = None
    if proc.returncode != 0 or body is None:
        it["crashed"] = True
        return it
    it["setup_s"] = body["t_setup"] - t0
    it["peak_rss_mb"] = body["peak_rss_mb"]
    it["ops"] = body["ops"]
    it["build_s"] = sum(op.get("build_s", 0.0) for op in body["ops"])
    it["analyze_s"] = sum(op.get("analyze_s", 0.0) for op in body["ops"])
    if "trace" in body:
        it["trace"] = body["trace"]
    return it


# -- correctness ----------------------------------------------------------------


def judge(it: dict, refs: dict, ops: list) -> list:
    """(op id, outcome, detail) for each operation of one iteration.

    Outcomes: ``ok``; ``failed`` (raised or the child died); ``wrong``
    (output differs from the reference); ``known_defect`` (raised exactly
    the error the reference records for this input at the seed).
    """
    if it.get("crashed"):
        why = f"child exit {it['returncode']}: {it['stderr_tail'].strip()[-200:]}"
        return [(op, "failed", why) for op in ops]
    verdicts = []
    for rec in it["ops"]:
        op, ref = rec["id"], refs[rec["id"]]
        err = rec.get("error")
        if err is not None:
            known = ref.get("known_defect")
            kind = "known_defect" if known and err.startswith(known + ":") else "failed"
            verdicts.append((op, kind, err))
        elif op == "paper-suite":
            ok = it["stdout_sha256"] == ref["stdout_sha256"]
            verdicts.append((op, "ok" if ok else "wrong",
                             None if ok else f"report sha256 {it['stdout_sha256'][:16]}"))
        elif rec["invariants"] != ref["invariants"]:
            verdicts.append((op, "wrong", f"invariants {rec['invariants']}"))
        elif ref.get("machine_sha256") and rec["machine_sha256"] != ref["machine_sha256"]:
            verdicts.append((op, "wrong", f"machine report sha256 {rec['machine_sha256'][:16]}"))
        else:
            verdicts.append((op, "ok", None))
    return verdicts


# -- statistics -----------------------------------------------------------------


def med(values):
    return statistics.median(values) if values else 0.0


def describe(values, unit):
    if not values:
        return "n/a"
    return (f"median {med(values):.4f} {unit}  min {min(values):.4f}  "
            f"max {max(values):.4f}  n={len(values)}")


def frac(num, den):
    return num / den if den else 0.0


# -- machine speed ----------------------------------------------------------------
#
# On a shared virtual machine (measured on one with 2 vCPUs) the speed of
# a vCPU changes under the program: 2x from one 0.1 s slice to the next,
# and run medians drift by up to 1.5x over minutes.  Two vCPUs change
# independently.  So the benchmark and every child it starts run on one
# pinned CPU, and a sampler thread in the parent times one fixed integer
# loop on that same CPU every SAMPLE_EVERY_S while the child runs.  Each
# measured time, of every workload, is scaled by the reference sample time
# over the mean sample time of its own interval, giving reference seconds.
# The loop is benchmark code and the same for every workload, and its
# working set stays in the L1 cache, so the factor does not depend on what
# the program computes; the sampler takes about 1 % of the CPU from the
# child.

SAMPLE_EVERY_S = 0.2
SAMPLE_PAD_S = 0.5         # samples this long before an interval also count
SAMPLE_REF_S = 0.002       # sample CPU time that defines one reference second


def pin_to_one_cpu() -> int:
    """Run this process and every child it starts on one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _int_loop():
    acc = 0
    for i in range(20_000):
        acc += i * i % 7


class SpeedSampler:
    """Times a fixed pure-Python loop every SAMPLE_EVERY_S on this CPU."""

    def __init__(self):
        self.samples: list = []            # (monotonic time, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(SAMPLE_EVERY_S):
            t0 = time.thread_time()
            _int_loop()
            self.samples.append((time.monotonic(), time.thread_time() - t0))

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end]."""
        near = [d for t, d in self.samples if start - SAMPLE_PAD_S <= t <= end]
        if not near:                           # before the first sample
            near = [d for _, d in self.samples[-3:]] or [SAMPLE_REF_S]
        return SAMPLE_REF_S / statistics.mean(near)

    def of(self, it: dict) -> float:
        """The factor over one child's whole life."""
        return self.factor(it["t_spawn"], it["t_spawn"] + it["wall_s"])


# -- per-layer metrics ---------------------------------------------------------------

FAMILY_DIMS = range(2, 17)
# Spans that at least one workload never enters.  Their self time would
# read a constant 0 there, so the result line has only their call counts;
# their self times are printed on the lines above it.
PARTIAL_SPANS = (
    "constructions.from_matrix_generators", "constructions.tensor",
    "constructions.trivial_extension", "constructions.quotient",
    "constructions.opposite", "symmetric.verify_symmetric",
    "symmetric.symmetric_quotient", "analysis.analyze",
    "fileformat.load_algebra", "fileformat.emit_structure_constants",
)
SUITE_KINDS = ("corpus", "lemmas", "family")
STRATEGIES = ("propagated", "hinted_local", "hinted_general",
              "semisimple_traceform", "dickson", "unavailable")


def ref_self_s(traced: list, span: str) -> float:
    """Median self time of ``span`` in reference seconds."""
    return med([t["trace"]["self_s"][span] * t["k"] for t in traced])


def layer_metrics(traced: list, plain: list, verdicts: list) -> dict:
    """Per-layer metrics from the traced iterations of one run.

    Counts come from the first traced iteration (the caller checks that
    every traced iteration repeats them).  Times are medians of self time
    in reference seconds: each iteration's ``k`` is its machine-speed
    factor (1.0 for measured seconds).
    """
    first = traced[0]["trace"]
    calls, counts = first["calls"], first["counts"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def span(name):
        put(f"{name}.calls", calls[name], "count")
        if name not in PARTIAL_SPANS:
            put(f"{name}.s", ref_self_s(traced, name), "s")

    span("fields.elim")
    rows, rows_nz = counts.get("fields.elim.rows", 0), counts.get("fields.elim.rows_nz", 0)
    put("fields.elim.rows", rows, "count")
    put("fields.elim.rows_nz", rows_nz, "count")
    put("fields.elim.useful_frac", frac(rows_nz, rows), "frac")
    span("fields.matmul2")
    put("fields.matmul2.madds", counts.get("fields.matmul2.madds", 0), "count")
    put("fields.kron_elems", counts.get("fields.kron_elems", 0), "count")
    span("fields.tensordot_lf")
    span("linalg.rref_data")
    put("linalg.rref_data.cells", counts.get("linalg.rref_data.cells", 0), "count")
    put("linalg.rref_data.rank_frac",
        frac(counts.get("linalg.rref_data.rank", 0), counts.get("linalg.rref_data.input_rows", 0)),
        "frac")
    for name in ("linalg.reduce_rows", "linalg.kernel", "linalg.subspace_intersect"):
        span(name)
    span("algebra.construct")
    put("algebra.construct.n3", counts.get("algebra.construct.n3", 0), "count")
    for name in ("algebra.center", "algebra.commutator_space", "algebra.subspace_product",
                 "algebra.is_ideal", "algebra.multiply_coords", "algebra.annihilator",
                 "algebra.loewy_series"):
        span(name)
    for fn in ("from_skew_presentation", "from_matrix_generators", "tensor",
               "trivial_extension", "quotient", "opposite"):
        span(f"constructions.{fn}")
    span("substructures.radical")
    hits = counts.get("substructures.radical.cache_hits", 0)
    put("substructures.radical.cache_hit_frac", frac(hits, calls["substructures.radical"]), "frac")
    for s in STRATEGIES:
        put(f"substructures.radical.strategy.{s}", first["strategies"].get(s, 0), "count")
    for name in ("substructures.socle", "substructures.j_of_center",
                 "substructures.soc_of_center", "substructures.reynolds",
                 "substructures.property_verdicts", "symmetric.verify_symmetric",
                 "symmetric.symmetric_quotient", "analysis.analyze",
                 "fileformat.load_algebra", "fileformat.emit_structure_constants"):
        span(name)
    members, noncomm = first["family_members"], first["family_noncommutative"]
    put("family.members", sum(members.values()), "count")
    put("family.noncommutative", sum(noncomm.values()), "count")
    for d in FAMILY_DIMS:
        put(f"family.members.dim{d}", members.get(str(d), 0), "count")
        put(f"family.noncommutative.dim{d}", noncomm.get(str(d), 0), "count")
    wall_traced = med([t["wall_s"] * t["k"] for t in traced])
    wall_plain = med([i["wall_s"] * i["k"] for i in plain])
    put("trace_overhead_frac", frac(wall_traced, wall_plain) - 1.0, "frac")
    n_all = len(verdicts)
    n_bad = sum(1 for _, kind, _ in verdicts if kind != "ok")
    put("error_frac", frac(n_bad, n_all), "frac")
    return m


def end_to_end_metrics(samples: dict) -> dict:
    """Medians of each metric's samples (times already in reference seconds)."""
    return {k: {"value": med(samples[k]), "unit": unit} for k, unit in END_TO_END_UNITS.items()}


def trace_signature(it: dict) -> dict:
    """The parts of a trace that must repeat exactly between runs."""
    t = it["trace"]
    return {k: t[k] for k in ("calls", "counts", "strategies",
                              "family_members", "family_noncommutative")}


# -- environment ------------------------------------------------------------------


def git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # numpy < 1.26 has no dict mode
        blas = f"unknown ({type(exc).__name__})"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "blas_threads": {k: v for k, v in PINNED_ENV.items() if k.endswith("_THREADS")},
        "numpy_blas": blas,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
    }


# -- one run ------------------------------------------------------------------------


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def check_checkout():
    for need in ("src/symcenter/__init__.py", "src/symcenter/cli.py", "cases"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} is missing under {ROOT}: not a symcenter checkout")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 refs: dict, log=print) -> dict:
    """One run of one workload; returns the object printed as the last line."""
    wref = refs["workloads"][name]
    op_ids = sorted(wref["ops"])
    rng = random.Random(f"{name}:{seed}")
    plain, traced, extras, verdicts, mismatches = [], [], [], [], []
    with SpeedSampler() as speed:
        run_child(op_ids[:1], setup_only=True)   # byte-compile, warm the file cache
        t_begin = time.monotonic()
        while True:
            order = rng.sample(op_ids, len(op_ids))
            t_iter = time.monotonic()
            it = run_child(order)
            plain.append(it)
            verdicts.extend(judge(it, wref["ops"], order))
            if trace:
                tit = run_child(order, trace=True)
                traced.append(tit)
                verdicts.extend(judge(tit, wref["ops"], order))
                if not tit.get("crashed") and not it.get("crashed"):
                    if tit["stdout_sha256"] != it["stdout_sha256"]:
                        mismatches.append("traced stdout differs from untraced stdout")
                    base = next(t for t in traced if not t.get("crashed"))
                    if trace_signature(tit) != trace_signature(base):
                        mismatches.append("per-layer counts differ between traced iterations")
            spent = time.monotonic() - t_begin
            if spent + (time.monotonic() - t_iter) > seconds:
                break
        while len(plain) + len(traced) + len(extras) < SETUP_SAMPLES:
            extra = run_child(op_ids[:1], setup_only=True)
            if extra.get("crashed"):
                raise BenchError(f"set-up failed: {extra['stderr_tail']}")
            extras.append(extra)
    setups, setups_ref = [], []
    for i in plain + traced + extras:
        i["k"] = speed.of(i)
        if not i.get("crashed"):
            setups.append(i["setup_s"])
            setups_ref.append(i["setup_s"] * speed.factor(i["t_spawn"],
                                                          i["t_spawn"] + i["setup_s"]))
    good = [i for i in plain if not i.get("crashed")]
    good_traced = [t for t in traced if not t.get("crashed")]
    ref = {"setup_s": setups_ref,
           "wall_s": [i["wall_s"] * i["k"] for i in good],
           "cpu_s": [i["cpu_s"] * i["k"] for i in good],
           "peak_rss_mb": [i["peak_rss_mb"] for i in good]}

    counted = [v for v in verdicts if v[1] != "known_defect"]
    failed = [v for v in counted if v[1] != "ok"]
    wrong = [v for v in counted if v[1] == "wrong"]
    log(f"workload {name}  seed {seed}  trace {int(trace)}  iterations {len(plain)}"
        + (f" untraced + {len(traced)} traced" if trace else ""))
    log(f"  int sample   {describe([d for _, d in speed.samples], 's')}")
    for key, unit in END_TO_END_UNITS.items():
        measured = setups if key == "setup_s" else [i[key] for i in good]
        log(f"  {key:<12} {describe(ref[key], unit)}   measured median {med(measured):.4f}")
    if name != "paper_suite":
        for key in ("build_s", "analyze_s"):
            log(f"  {key:<12} {describe([i[key] * i['k'] for i in good], 's')}   "
                f"measured median {med([i[key] for i in good]):.4f}")
    n_bad = sum(1 for v in verdicts if v[1] != "ok")
    log(f"  error_frac   {n_bad}/{len(verdicts)} = {frac(n_bad, len(verdicts)):.4f} "
        f"(known defects included; result line {len(failed)}/{len(counted)})")
    seen = set()
    for op, kind, detail in verdicts:
        if kind != "ok" and (op, kind) not in seen:
            seen.add((op, kind))
            log(f"  {kind:<13}{op}: {detail}")
    for msg in sorted(set(mismatches)):
        log(f"  TRACE CHECK FAILED: {msg}")

    correct = not wrong and not mismatches and bool(good)
    if trace:
        if not good_traced or not good:
            raise BenchError("every traced or every untraced iteration failed")
        metrics = layer_metrics(good_traced, good, verdicts)
        for key, v in metrics.items():
            log(f"  {key:<48} {v['value']:.6g} {v['unit']}")
        log("  self time of spans some workload never enters (not in the result line):")
        for span in PARTIAL_SPANS:
            log(f"  {span + '.s':<48} {ref_self_s(good_traced, span):.6g} s")
        for kind in SUITE_KINDS:
            elapsed = med([t["trace"]["suite_elapsed"].get(kind, 0.0) * t["k"]
                           for t in good_traced])
            log(f"  {'suites.' + kind + '.s':<48} {elapsed:.6g} s")
    else:
        if not good:
            raise BenchError("every iteration failed")
        metrics = end_to_end_metrics(ref)
    return {"correct": correct, "attempted": len(counted), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write every result and the environment here (JSON)")
    args = ap.parse_args(argv)
    try:
        check_checkout()
        refs = load_references()
        names = list(refs["workloads"]) if args.workload == "all" else [args.workload]
        for name in names:
            if name not in refs["workloads"]:
                raise BenchError(f"unknown workload {name!r}; known: {sorted(refs['workloads'])}")
        env = environment()
        env["pinned_cpu"] = pin_to_one_cpu()
        print("env " + json.dumps(env, sort_keys=True))
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), refs)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": env, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "results": results}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    final = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
