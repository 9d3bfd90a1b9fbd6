"""Quick self-test of the benchmark: one short iteration per workload.

    python3 perfbench/selftest.py

Checks, and exits non-zero if any fails:

* every workload's outputs match the frozen references;
* a deliberately failing input is counted as a failed operation and the
  run goes on;
* every metric name matches ``[A-Za-z0-9_.-]+`` and the metrics produced
  are exactly those that ``BENCHMARK.json`` lists, with the same units;
* no end-to-end metric and no per-layer time reads 0;
* per-layer counts are identical across two traced iterations whose
  inputs come in different orders, and traced stdout is byte-identical
  to untraced stdout.

Takes about two minutes on a 2-core machine, most of it in the QQ
workload.  The file is not named ``test_*`` so that the repository's
pytest run does not collect it.
"""

from __future__ import annotations

import json
import os
import re
import sys

from run import (
    ROOT, end_to_end_metrics, judge, layer_metrics, load_references, run_child,
    run_workload, trace_signature,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BROKEN = "analyze:perfbench/fixtures/bad_unit.json"


def check(ok: bool, what: str, problems: list):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def spec_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def units_of(metrics: dict) -> dict:
    return {k: v["unit"] for k, v in metrics.items()}


def main() -> int:
    refs = load_references()
    problems: list = []
    for section in ("end_to_end", "per_layer"):
        names = spec_units(section)
        check(all(NAME.match(n) for n in names), f"BENCHMARK.json {section} names are well formed",
              problems)

    for name, wref in refs["workloads"].items():
        ops = sorted(wref["ops"])
        plain = run_child(ops)
        traced = [run_child(ops, trace=True), run_child(ops[::-1], trace=True)]
        verdicts = [v for it in [plain] + traced for v in judge(it, wref["ops"], ops)]
        bad = [v for v in verdicts if v[1] not in ("ok", "known_defect")]
        check(not bad, f"{name}: outputs match the references {bad or ''}", problems)
        check(plain["stdout_sha256"] == traced[0]["stdout_sha256"],
              f"{name}: traced stdout is byte-identical to untraced stdout", problems)
        same = all("trace" in t for t in traced) and \
            trace_signature(traced[0]) == trace_signature(traced[1])
        check(same, f"{name}: per-layer counts repeat across two traced iterations", problems)
        if bad or not same:
            continue
        for it in [plain] + traced:
            it["k"] = 1.0                      # measured seconds
        per_layer = layer_metrics(traced, [plain], verdicts)
        check(units_of(per_layer) == spec_units("per_layer"),
              f"{name}: per-layer metrics are exactly BENCHMARK.json's", problems)
        e2e = end_to_end_metrics({k: [plain[k]] for k in ("setup_s", "wall_s", "cpu_s",
                                                           "peak_rss_mb")})
        check(units_of(e2e) == spec_units("end_to_end"),
              f"{name}: end-to-end metrics are exactly BENCHMARK.json's", problems)
        check(all(NAME.match(k) for k in list(per_layer) + list(e2e)),
              f"{name}: produced metric names are well formed", problems)
        check(all(v["value"] > 0 for v in e2e.values()),
              f"{name}: no end-to-end metric is 0", problems)
        zero = [k for k, v in per_layer.items() if v["unit"] == "s" and v["value"] <= 0]
        check(not zero, f"{name}: no per-layer time is 0 {zero or ''}", problems)

    # a deliberately failing input: counted against the attempts, run goes on
    small = refs["workloads"]["analyze_small"]
    small["ops"][BROKEN] = {"invariants": {}, "machine_sha256": None}
    result = run_workload("analyze_small", seed=1, seconds=0, trace=False, refs=refs,
                          log=lambda *a: None)
    expected_attempts = sum(1 for r in small["ops"].values() if "known_defect" not in r)
    check(result["failed"] == 1 and result["attempted"] == expected_attempts,
          f"a broken input counts as 1 failed of {expected_attempts} "
          f"(got {result['failed']} of {result['attempted']})", problems)
    check(result["correct"], "a failed operation is not mistaken for a wrong output", problems)

    print("selftest " + ("passed" if not problems else f"FAILED: {len(problems)} check(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
