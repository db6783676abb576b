"""Golden bytes: stdout sha256 and exit code of a few cheap CLI runs.

The digests were recorded before the elimination kernels in `linalg`
became sparse.  An RREF is unique and every report is rendered from exact
values, so any later change to elimination, pivoting or span membership
that alters a report fails here.  The failing reach-0 `spectrum` run (a
non-diagonalizable x, exit 1) was recorded while degree-zero x still had
a per-slice solver of its own.  Two more pins, recorded while every
coefficient was still a `Fraction`, guard both number kinds of
`CycScalar`: a non-integral weight that must render as `-11/3`, and the
m = 3 zeta path of a D4 triality Jacobi run.

The two reach-1 `spectrum` pins (exit 1) were recorded while
`weight_decompose` still had a kernel sweep of its own, before it called
`linalg.eigenspaces`.  They are the only pins whose x moves degrees, so
the window's boundary rows and the rational-roots fallback decide their
bytes.  Both runs still report the window-boundary defect of ROADMAP
item 2; its periodicity certificate will re-record both on purpose.

The a2_twisted `verify spectral --window -1 1` pin was re-recorded when
`--window` began to reach the spectral suite: it used to decompose on
[-3m, 3m] whatever the option said, and now runs on [-1, 1] (342 checks,
complete, exit 0).

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
     "af7eaab8c2d766f46d7851e29833d0e00390a650d5c2d6a9a86262c68299886f"),
    (["verify", "mad", "--algebra", "algebras/a1.alg"], 0,
     "a1f8c9299c30bd99efd3d0191be2feeef4c0d460a3b740c4fd982e639d2543b6"),
    (["verify", "form", "--algebra", "algebras/a1.alg", "--seed", "7"], 0,
     "04337317b65b09b499d6888dde63d2edc2e32b732222d80f3e9125c040b42eef"),
    (["verify", "spectral", *TWISTED_WINDOW], 0,
     "9f8669dfc817c5be5e4aa7b3f9385b29c52818dd10cbe34f48bdb75dfdc69062"),
    (["verify", "mad", *TWISTED_WINDOW], 0,
     "b64bf1bdd9ac897b1a16ef4206c2b5e2c721874c78884a9425728f81a217ccd5"),
    (["verify", "form", *TWISTED_WINDOW, "--seed", "7"], 0,
     "74f54a32290d754355984d341725cb0c9c366796507c82caf9316f408ed2ea3f"),
    (["spectrum", "--algebra", "algebras/a1.alg", "--x", "X_a1*t^0 + d"], 1,
     "000ab2b431d97f9138ac532f14ba093dc8dbf116419f1750a52f7f37eb53e2c6"),
    (["verify", "lifts", "--algebra", "algebras/a2_twisted.alg",
      "--samples", "50", "--seed", "7"], 0,
     "a36df2cfecc0f2ad526cdd00cdc565ad43e1c6208449886fbad36e017d222c76"),
    (["verify", "exactseq", "--algebra", "algebras/d4_triality.alg",
      "--samples", "50", "--seed", "7"], 0,
     "fd1c7e27d8b748238d6ab2efa60a074fb214f0f1b2f6d6d4a70280f48e9e09aa"),
    (["spectrum", "--algebra", "algebras/a1.alg", "--x", "1/3*H_1*t^0 + d"], 0,
     "33146bd5c17dd5a72a020005f394c78fc8b0485342662384f14179158ea23978"),
    (["verify", "jacobi", "--algebra", "algebras/d4_triality.alg",
      "--window", "-1", "1", "--seed", "7"], 0,
     "c1d95fa2afac17268e5708b4b5832c37d626bc82d8c43570aa9298824a430053"),
    (["spectrum", "--algebra", "algebras/a2.alg",
      "--x", "H_1*t^0 + 2*H_2*t^0 + X_a1*t^1 + d"], 1,
     "c70b743631b1f48186b4e88caf5fe5295b91547de32463fa5ffce07c3a3bc4f4"),
    (["spectrum", "--algebra", "algebras/a1.alg",
      "--x", "H_1*t^0 + X_a1*t^1 + d"], 1,
     "54223fccb6f76433d5ebe01ea9023a9b1662da47ddc0c1ae09b9773a4ddf20a0"),
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
