"""Record the oracle's reference content of every workload op.

    python3 perfbench/record_reference.py

Runs each op once at seed 0 and writes reference.json next to this file.
Run it only when a change is meant to alter an op's mathematical content
(for example the fix of a known defect), and say so in the change.
"""

from __future__ import annotations

import json
import sys

import oracle
from run import OUT, child_env, op_args, provenance, run_child
from workloads import KNOWN_DEFECTS, WORKLOADS, op_key


def main():
    OUT.mkdir(exist_ok=True)
    env = child_env()
    ops = {}
    for workload_ops in WORKLOADS.values():
        for op in workload_ops:
            child = run_child(op_args(op, 0), env)
            payload = oracle.parse(child.stdout)
            ops[op_key(op)] = oracle.content(payload)
            verdict = "pass" if payload.get("pass") is True else "FAIL"
            print(f"{verdict} exit {child.exit_code}: {op_key(op)}")
    reference = {
        "recorded_at": provenance(None, 0, 0)["git_sha"],
        "known_defects": KNOWN_DEFECTS,
        "ops": ops,
    }
    with open(oracle.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
