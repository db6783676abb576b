"""Golden bytes: stdout sha256 and exit code of a few cheap CLI runs.

The digests were recorded before the elimination kernels in `linalg`
became sparse.  An RREF is unique and every report is rendered from exact
values, so any later change to elimination, pivoting or span membership
that alters a report fails here.  Two more pins, recorded while every
coefficient was still a `Fraction`, guard both number kinds of
`CycScalar`: a non-integral weight that must render as `-11/3`, and the
m = 3 zeta path of a D4 triality Jacobi run.

The two reach-1 `spectrum` pins (exit 1) were recorded while
`weight_decompose` still had a kernel sweep of its own, before it called
`linalg.eigenspaces`.  They are the only pins whose x moves degrees, so
the window's boundary rows and the rational-roots fallback decide their
bytes.  Both runs still report the window-boundary defect of ROADMAP
item 2; its periodicity certificate will re-record both on purpose.
They were re-recorded, still exit 1, when the shift lemma stopped
comparing dimensions along a series, which rspan alone compares: only
their shift `checked` count and the total moved (130 to 122 and 48 to
38).

The four degree-reach-0 spectral pins (a1 `verify spectral`, the
a2_twisted `verify spectral --window -1 1`, and the a1 `spectrum` runs of
`X_a1*t^0 + d` and `1/3*H_1*t^0 + d`) were re-recorded when x of degree
reach 0 began to be decided on g, slice by slice: their weights, dims,
series ids, `complete` and `interior_dim` stayed as they were, and three
things moved on purpose.  The lemma `checked` counts became the counts of
the lemmas on g, the shift lemma counting the re-verified lift of every
slice eigenvector to every window degree (the a2_twisted run on [-1, 1],
which `--window` reaches, went from 342 checks to 113, complete, exit 0);
each weight's `"interior": true` became `"scope": "g"`; and the failing
`X_a1*t^0 + d` (a non-diagonalizable x, exit 1) gained the Jordan pair
that witnesses its incomplete decomposition.

The two `verify mad --word` pins were recorded while `suite_mad` still
ran `is_diagonalizable` itself and handed the result to `mad_sanity`
through `diag=`: one word carries the standard MAD onto itself (exit 0),
the other moves it out of the window (exit 1, conjugacy failures).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TWISTED_WINDOW = ["--algebra", "algebras/a2_twisted.alg", "--window", "-1", "1"]

GOLDEN = [
    (["verify", "spectral", "--algebra", "algebras/a1.alg"], 0,
     "62d23a2dda3335fb29903603de9a80962bcb1fac8faf4f73ad8c36d827ebe616"),
    (["verify", "mad", "--algebra", "algebras/a1.alg"], 0,
     "a1f8c9299c30bd99efd3d0191be2feeef4c0d460a3b740c4fd982e639d2543b6"),
    (["verify", "form", "--algebra", "algebras/a1.alg", "--seed", "7"], 0,
     "04337317b65b09b499d6888dde63d2edc2e32b732222d80f3e9125c040b42eef"),
    (["verify", "spectral", *TWISTED_WINDOW], 0,
     "3ee848d81178d148360134af3030fc3508b531e68d0140bbea187077b8b853c8"),
    (["verify", "mad", *TWISTED_WINDOW], 0,
     "b64bf1bdd9ac897b1a16ef4206c2b5e2c721874c78884a9425728f81a217ccd5"),
    (["verify", "form", *TWISTED_WINDOW, "--seed", "7"], 0,
     "74f54a32290d754355984d341725cb0c9c366796507c82caf9316f408ed2ea3f"),
    (["spectrum", "--algebra", "algebras/a1.alg", "--x", "X_a1*t^0 + d"], 1,
     "679d0f30604d001e3a5d906464bf30fd15a1aea7f0ab4dbdc39fad0d445f6405"),
    (["verify", "lifts", "--algebra", "algebras/a2_twisted.alg",
      "--samples", "50", "--seed", "7"], 0,
     "a36df2cfecc0f2ad526cdd00cdc565ad43e1c6208449886fbad36e017d222c76"),
    (["verify", "exactseq", "--algebra", "algebras/d4_triality.alg",
      "--samples", "50", "--seed", "7"], 0,
     "fd1c7e27d8b748238d6ab2efa60a074fb214f0f1b2f6d6d4a70280f48e9e09aa"),
    (["spectrum", "--algebra", "algebras/a1.alg", "--x", "1/3*H_1*t^0 + d"], 0,
     "64d8afebe37f33160a089ce9499ba8858b53b6522bdb44ecb4f688ff456e8907"),
    (["verify", "jacobi", "--algebra", "algebras/d4_triality.alg",
      "--window", "-1", "1", "--seed", "7"], 0,
     "c1d95fa2afac17268e5708b4b5832c37d626bc82d8c43570aa9298824a430053"),
    (["spectrum", "--algebra", "algebras/a2.alg",
      "--x", "H_1*t^0 + 2*H_2*t^0 + X_a1*t^1 + d"], 1,
     "9a169ccaa77c945e70b27be22a092566b888742b097e4545f1b8f8b06169c740"),
    (["spectrum", "--algebra", "algebras/a1.alg",
      "--x", "H_1*t^0 + X_a1*t^1 + d"], 1,
     "a9fa32ffa66bd3ec4d6ab869e32d91ea9a08301143790846f9c92c6af42972b0"),
    (["verify", "mad", "--algebra", "algebras/a2_twisted.alg",
      "--word", "vshift(2) @ hat"], 0,
     "68e163aac70ca6053c0aa8d0a78fb1508b307e867998c463c14df5b06597fecd"),
    (["verify", "mad", "--algebra", "algebras/a1.alg",
      "--word", "rootexp(a1, 1*t^5) @ hat"], 1,
     "7cfe78054a9f08923753c420c25bc3f76230fa7a1902be0c03e0d7b059c3249b"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_stdout_bytes_pinned(argv, code, digest):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "affinelie", *argv],
                          cwd=ROOT, env=env, capture_output=True)
    assert proc.returncode == code
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
