"""Golden bytes: stdout sha256 and exit code of a few cheap CLI runs.

The digests were recorded before the elimination kernels in `linalg`
became sparse.  An RREF is unique and every report is rendered from exact
values, so any later change to elimination, pivoting or span membership
that alters a report fails here.  The failing reach-0 `spectrum` run (a
non-diagonalizable x, exit 1) was recorded while degree-zero x still had
a per-slice solver of its own.
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
     "b81aef210f2d0d0045c7021d1ebbcb0eee0cb5e9aafc22a2484822cbd0b3ac67"),
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
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_stdout_bytes_pinned(argv, code, digest):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "affinelie", *argv],
                          cwd=ROOT, env=env, capture_output=True)
    assert proc.returncode == code
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
