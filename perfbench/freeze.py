"""Regenerate ``references.json`` from the program as it is now.

    python3 perfbench/freeze.py

Run it only on a commit whose outputs are known to be right: every later
run is checked against what this writes.  An operation that raises at
freeze time is recorded as a known defect, with the error type it raised
and the invariants that the corpus registry (``symcenter.corpus.get``)
gives for the same algebra, so that a later fix is checked for
correctness and not only counted.
"""

from __future__ import annotations

import json
import os
import sys

from run import ROOT, run_child

def analyze_small_ops() -> list:
    from symcenter.cli import CONSTRUCTION_TYPES

    ops = []
    for fname in sorted(os.listdir(os.path.join(ROOT, "cases"))):
        if not fname.endswith(".json"):
            continue
        rel = f"cases/{fname}"
        ops.append(f"analyze:{rel}")
        with open(os.path.join(ROOT, rel)) as fh:
            if json.load(fh)["presentation"]["type"] in CONSTRUCTION_TYPES:
                ops.append(f"roundtrip:{rel}")
    return ops


WORKLOAD_OPS = {
    "paper_suite": lambda: ["paper-suite"],
    "analyze_small": analyze_small_ops,
    "qq_skew": lambda: ["qq-skew:3,3,2"],
}


def registry_reference(op: str) -> dict:
    from symcenter.analysis import analyze
    from symcenter.corpus import ENTRY_IDS, get

    from child import invariants

    with open(os.path.join(ROOT, op.partition(":")[2])) as fh:
        name = json.load(fh)["name"]
    if name not in ENTRY_IDS:
        raise SystemExit(f"{op} fails and has no corpus entry to take a reference from")
    return {"invariants": invariants(analyze(get(name))), "machine_sha256": None,
            "source": f"corpus registry get({name!r})"}


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    refs = {"workloads": {}}
    for workload, make_ops in WORKLOAD_OPS.items():
        ops = make_ops()
        it = run_child(ops)
        if it.get("crashed"):
            raise SystemExit(f"{workload}: child failed: {it['stderr_tail']}")
        entries = {}
        for rec in it["ops"]:
            op = rec["id"]
            if rec["error"] is not None:
                entry = registry_reference(op)
                entry["known_defect"] = rec["error"].split(":", 1)[0]
            elif op == "paper-suite":
                entry = {"stdout_sha256": it["stdout_sha256"]}
            else:
                entry = {"invariants": rec["invariants"],
                         "machine_sha256": rec["machine_sha256"]}
            entries[op] = entry
            print(f"{workload:<14} {op:<45} {entry.get('known_defect', 'ok')}")
        refs["workloads"][workload] = {"ops": entries}
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
