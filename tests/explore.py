"""Run the Hypothesis property tests of Tier-1 under many random seeds.

    PYTHONPATH=src python tests/explore.py                   # seeds 1..20
    PYTHONPATH=src python tests/explore.py --start 100 --seeds 5

Tier-1 draws every property test derandomized (the `tier1` profile of
`conftest.py`), so that two runs on one checkout draw the same examples.
This script runs the property tests (pytest's `hypothesis` marker) once
per seed under the `explore` profile instead, which draws from
`--hypothesis-seed` and keeps no example database, so no seed replays
what another found.  It prints one JSON line per seed with the ids of the
tests that failed, two seeds at a time, and exits 1 if any failed.
pytest does not collect this file: its name does not start with `test_`.
"""

import argparse
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def failures(seed):
    """The ids of the property tests that fail under `seed`."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "-m", "hypothesis", "--hypothesis-profile", "explore",
         f"--hypothesis-seed={seed}", "tests"],
        cwd=ROOT, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    if proc.returncode not in (0, 1) or (proc.returncode == 1 and not failed):
        raise RuntimeError(f"seed {seed}: pytest exited {proc.returncode}\n"
                           + proc.stdout[-2000:] + proc.stderr[-2000:])
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--start", type=int, default=1, help="first seed")
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds")
    args = parser.parse_args()
    seeds = range(args.start, args.start + args.seeds)
    bad = False
    with ThreadPoolExecutor(max_workers=2) as pool:
        for seed, failed in zip(seeds, pool.map(failures, seeds)):
            print(json.dumps({"seed": seed, "failed": failed}), flush=True)
            bad = bad or bool(failed)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
