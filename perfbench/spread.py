"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload mad --seeds 1 2 3 4 5

Runs the benchmark command of BENCHMARK.json once per seed, then prints
each end-to-end metric's median, quartiles and quartile spread (q3 - q1
as a share of the median) next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable if arg == "python3" else arg
               for arg in spec["command"]]
        cmd += ["--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = [f"seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.4f}")
        print(" ".join(line), flush=True)
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        print(f"{metric['name']:<12} median {median:.4f} {metric['unit']}  "
              f"q1 {q1:.4f}  q3 {q3:.4f}  spread {(q3 - q1) / median:.4f}  "
              f"(bound/3 {metric['bound'] / 3:.4f}, n={len(vals)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
