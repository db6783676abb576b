"""The four fixed workloads: ordered lists of `affinelie` invocations.

Each op is the argument list after `python -m affinelie`; the benchmark
appends `--seed <n>` to every op.  README.md explains why each workload
was chosen and which layers it stresses.
"""

from __future__ import annotations

REACH1_X = "H_1*t^0 + 2*H_2*t^0 + X_a1*t^1 + d"

# The reach-1 spectrum op is expected to pass: its x is the image of
# H_1*t^0 + 2*H_2*t^0 + d under the hat word below, so ad x is
# diagonalizable by construction.  At the commit that introduced this
# benchmark it exits 1 with spurious `opposite` mismatches and an
# "incomplete" decomposition, caused by the window boundary (ROADMAP
# item 4).  The oracle counts it as a failed op; KNOWN_DEFECTS lets the
# run still report `correct` as long as that failure is the only one.
REACH1_WORD = "rootexp(a1, -1*t^1) @ hat"
REACH1_BASE = "H_1*t^0 + 2*H_2*t^0 + d"

WORKLOADS = {
    "jacobi": [
        ["verify", "jacobi", "--algebra", "algebras/a2_twisted.alg"],
        ["verify", "jacobi", "--algebra", "algebras/d4_triality.alg",
         "--window", "-1", "1"],
    ],
    "spectral": [
        ["verify", "spectral", "--algebra", "algebras/a2.alg"],
        ["verify", "spectral", "--algebra", "algebras/a2_twisted.alg"],
        ["spectrum", "--algebra", "algebras/a2.alg", "--x", REACH1_X],
    ],
    "mad": [
        ["verify", "mad", "--algebra", "algebras/a3_twisted.alg"],
        ["verify", "mad", "--algebra", "algebras/d4_triality.alg",
         "--window", "-3", "3"],
        ["verify", "mad", "--algebra", "algebras/a2_twisted.alg",
         "--word", "vshift(2) @ hat"],
    ],
    "sampled": [
        ["verify", suite, "--algebra", f"algebras/{alg}.alg"]
        for suite in ("form", "lifts", "exactseq")
        for alg in ("a3_twisted", "d4_triality")
    ],
}

# op key -> why its failure is known and tolerated by `correct`
KNOWN_DEFECTS = {
    " ".join(WORKLOADS["spectral"][2]):
        "window-boundary defect, ROADMAP item 4; x = "
        f"({REACH1_WORD}) applied to {REACH1_BASE}",
}


def op_key(op):
    """Stable name of an op (its argv without the seed)."""
    return " ".join(op)


def algebras(ops):
    """Distinct algebra files of a workload, in first-use order."""
    seen = []
    for op in ops:
        path = op[op.index("--algebra") + 1]
        if path not in seen:
            seen.append(path)
    return seen
