"""Stdout sha256 and exit code of a fixed list of CLI runs, as JSON.

A design change that must keep every report byte for byte is checked by
running this script on the parent checkout and on the change, and
comparing the two outputs:

    python tests/stdout_digests.py --root ../parent > parent.json
    python tests/stdout_digests.py > change.json
    diff parent.json change.json

`--root` names the checkout whose `src/` and `algebras/` are run (default:
the one holding this script).  The 62 runs are the 36 `verify <suite>
--seed 7` runs over every shipped algebra (D4 `jacobi` at `--window -1
1`), nine `spectrum` runs (one with weights outside Q, one with x partly
outside its window, one with x outside the twisted algebra), five `verify mad`
runs, one `conjugate` run, five more of `construct`, `--format text`
and small windows, three `--seed 3` runs of the sampled suites at
one- and two-degree windows, and three more `verify mad --word` runs
whose words hold every generator kind but the exponentials.  The two runs
that read a subalgebra file pass `tests/a1_conjugate.spec` of this
checkout by its absolute path, so a `--root` checkout without the file
runs them too.  Two run at a time.  pytest does not collect this file:
its name does not start with `test_`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SPEC = str(Path(__file__).resolve().parent / "a1_conjugate.spec")
ALGEBRAS = ["a1", "a2", "a2_twisted", "a3_twisted", "d4_triality", "sl2_table"]
SUITES = ["jacobi", "form", "lifts", "exactseq", "spectral", "mad"]


def _alg(name):
    return ["--algebra", f"algebras/{name}.alg"]


def runs():
    out = []
    for name in ALGEBRAS:
        for suite in SUITES:
            argv = ["verify", suite, *_alg(name), "--seed", "7"]
            if name == "d4_triality" and suite == "jacobi":
                argv += ["--window", "-1", "1"]
            out.append(argv)
    for name, x, extra in [
            ("a2", "H_1*t^0 + 2*H_2*t^0 + X_a1*t^1 + d", []),
            ("a1", "H_1*t^0 + X_a1*t^1 + d", []),
            ("a1", "X_a1*t^0 + d", []),
            ("a1", "1/3*H_1*t^0 + d", []),
            ("a2", "3*H_1*t^0 + 5*H_2*t^0 + X_a1*t^1 + X_a2*t^-1 + d", []),
            ("a2_twisted", "H_1*t^0 + H_2*t^0 + d", ["--window", "-2", "2"]),
            ("d4_triality", "z*H_2*t^0 + H_1*t^0 + H_3*t^0 + H_4*t^0 + d",
             ["--window", "-2", "2"]),
            # x partly outside the window: exit 1 with rendered failures
            ("a1", "H_1*t^0 + X_a1*t^-1 + d", ["--window", "2", "9"]),
            # the same x is no element of the twisted algebra: exit 3
            ("a2_twisted", "H_1*t^0 + X_a1*t^-1 + d", ["--window", "2", "9"])]:
        out.append(["spectrum", *_alg(name), "--x", x, *extra])
    out += [
        ["verify", "mad", *_alg("a2_twisted"), "--word", "vshift(2) @ hat"],
        ["verify", "mad", *_alg("a1"), "--word",
         "rootexp(a1, 2*t^1) . cochar(1) . torus(2) . ring(1,-1) @ hat"],
        ["verify", "mad", *_alg("a2_twisted"), "--window", "-1", "1"],
        ["verify", "mad", *_alg("a1"), "--word", "rootexp(a1, 1*t^5) @ hat"],
        ["verify", "mad", *_alg("a1"), "--word", "rootexp(a1, 1/3*t^1) @ hat",
         "--spec", SPEC],
        ["conjugate", *_alg("a1"), "--word", "rootexp(a1, 1/3*t^1) @ hat",
         "--spec", SPEC],
        ["construct", *_alg("d4_triality")],
        ["construct", *_alg("a2_twisted"), "--format", "text"],
        ["verify", "lifts", *_alg("a1"), "--format", "text", "--samples", "5"],
        ["verify", "form", *_alg("a2_twisted"), "--window", "-1", "1",
         "--seed", "7"],
        ["verify", "jacobi", *_alg("a2_twisted"), "--window", "-1", "1"],
        # small windows, where the two terms of a sample often share a slot
        ["verify", "form", *_alg("a1"), "--window", "0", "0", "--seed", "3"],
        ["verify", "lifts", *_alg("a2_twisted"), "--window", "0", "1",
         "--seed", "3"],
        ["verify", "exactseq", *_alg("a1"), "--window", "0", "0",
         "--seed", "3"],
        # conjugacy words of every object-level generator kind
        ["verify", "mad", *_alg("a2"), "--word",
         "cochar(1,0) . torus(2,3) . ring(3,-1) . diagram(2,1) @ hat"],
        ["verify", "mad", *_alg("d4_triality"), "--window", "-3", "3",
         "--word", "torus(2,2,2,2) . ring(3,+1) . diagram(3,2,4,1) @ hat"],
        ["verify", "mad", *_alg("d4_triality"), "--window", "-3", "3",
         "--word", "cochar(1,1,1,1) . vshift(2) @ hat"],
    ]
    return out


def digest(root, argv):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "affinelie", *argv],
                          cwd=root, env=env, capture_output=True)
    return [proc.returncode, hashlib.sha256(proc.stdout).hexdigest()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to run (default: this one)")
    args = parser.parse_args()
    root = args.root.resolve()
    argvs = runs()
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = pool.map(lambda argv: digest(root, argv), argvs)
        table = {" ".join(argv): res for argv, res in zip(argvs, results)}
    print(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
