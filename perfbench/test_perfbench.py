"""Self-test of the benchmark's oracle, failure count, pacing and tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

import oracle
import pace
import run
from workloads import KNOWN_DEFECTS, REACH1_BASE, REACH1_WORD, REACH1_X, WORKLOADS, op_key

sys.path.insert(0, str(run.SRC))

REFERENCE = oracle.load_reference()
SPECTRAL_OP = op_key(WORKLOADS["spectral"][0])
DEFECT_OP = op_key(WORKLOADS["spectral"][2])


def spectral_payload(key=SPECTRAL_OP, verdict=True):
    """A verify-spectral payload carrying the reference content of `key`."""
    ref = REFERENCE[key]
    weights = [{"w": w, "dim": d, "interior": True, "series_id": 0}
               for w, d in ref["weights"]]
    return {"command": "verify spectral", "pass": verdict,
            "reports": {"spectral": {"checked": 1, "failures": [],
                                     "decomposition": {
                                         "weights": weights,
                                         "complete": ref["complete"]}}}}


def encode(payload):
    return (json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def test_untampered_payload_passes():
    assert oracle.judge(SPECTRAL_OP, 0, encode(spectral_payload()), REFERENCE) == []


def test_layout_changes_do_not_fail():
    payload = spectral_payload()
    payload["reports"]["spectral"]["skipped"] = 3
    stdout = json.dumps(payload, indent=2).encode()
    assert oracle.judge(SPECTRAL_OP, 0, stdout, REFERENCE) == []


@pytest.mark.parametrize("tamper, reason", [
    ("verdict", "verdict"),
    ("weight_dim", "content"),
    ("exit", "exit"),
    ("trace_mismatch", "trace"),
    ("two_objects", "json"),
])
def test_tampered_payload_fails(tamper, reason):
    payload = spectral_payload()
    exit_code, stdout = 0, encode(payload)
    traced = stdout
    if tamper == "verdict":
        payload["pass"] = False
        stdout = traced = encode(payload)
    elif tamper == "weight_dim":
        payload["reports"]["spectral"]["decomposition"]["weights"][0]["dim"] += 1
        stdout = traced = encode(payload)
    elif tamper == "exit":
        exit_code = 1
    elif tamper == "trace_mismatch":
        traced = stdout.replace(b'"checked":1', b'"checked":2')
    else:
        stdout = traced = stdout + stdout
    reasons = oracle.judge(SPECTRAL_OP, exit_code, stdout, REFERENCE, traced)
    assert reason in reasons
    assert not oracle.tolerated(SPECTRAL_OP, reasons)


def test_known_defect_tolerates_only_its_verdict():
    payload = spectral_payload(DEFECT_OP, verdict=False)
    payload["command"] = "spectrum"
    reasons = oracle.judge(DEFECT_OP, 1, encode(payload), REFERENCE)
    assert reasons == ["exit", "verdict"]
    assert oracle.tolerated(DEFECT_OP, reasons)
    payload["reports"]["spectral"]["decomposition"]["complete"] = True
    reasons = oracle.judge(DEFECT_OP, 1, encode(payload), REFERENCE)
    assert "content" in reasons and not oracle.tolerated(DEFECT_OP, reasons)
    assert set(KNOWN_DEFECTS) == {DEFECT_OP}


def test_an_op_counts_once_however_often_it_ran():
    ok = {"op": SPECTRAL_OP, "failed": [], "tolerated": False}
    defect = {"op": DEFECT_OP, "failed": ["exit", "verdict"], "tolerated": True}
    assert run.tally([ok, defect, ok, defect, ok]) == (
        2, {DEFECT_OP: ["exit", "verdict"]}, True)
    broken = dict(ok, failed=["content"])
    assert run.tally([ok, defect, broken]) == (
        2, {DEFECT_OP: ["exit", "verdict"], SPECTRAL_OP: ["content"]}, False)


def test_paced_child_runs_to_completion(tmp_path):
    code = "import sys, time; time.sleep(0.35); print('done'); sys.exit(3)"
    child = pace.run([sys.executable, "-c", code], tmp_path, None, tmp_path)
    assert (child.exit_code, child.stdout) == (3, b"done\n")
    assert len(child.probes_s) >= 4  # stopped and probed between slices
    assert 0.35 <= child.wall_s < 2
    assert 0 < child.paced_wall_s and 0 < child.paced_cpu_s < child.paced_wall_s


def test_reference_covers_every_op():
    keys = {op_key(op) for ops in WORKLOADS.values() for op in ops}
    assert keys == set(REFERENCE)


def test_reach1_x_is_conjugate_to_a_diagonal_element():
    from affinelie.parsing import parse_affine, parse_algebra_file, parse_word
    alg, auto = parse_algebra_file(
        (run.ROOT / "algebras" / "a2.alg").read_text(encoding="utf-8"))
    word = parse_word(REACH1_WORD, alg, auto.m)
    base = parse_affine(REACH1_BASE, alg, auto.m)
    assert word.apply(base) == parse_affine(REACH1_X, alg, auto.m)


def traced_once(argv):
    from tracer import Tracer, EXACT
    from affinelie import cli
    tracer = Tracer()
    tracer.install()
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    return code, buf.getvalue().encode(), {k: metrics[k] for k in EXACT}


def test_traced_pass_is_steady_and_byte_identical():
    from affinelie import cli, affine
    original = cli.bracket_affine
    argv = ["verify", "jacobi", "--algebra", "algebras/a1.alg", "--seed", "3"]
    with contextlib.chdir(run.ROOT):
        first = traced_once(argv)
        second = traced_once(argv)
    assert cli.bracket_affine is original is affine.bracket_affine
    assert first == second
    assert first[2]["affine.bracket.calls"] > 0
    assert first[2]["scalars.made"] > 0
    run.OUT.mkdir(exist_ok=True)
    child = run.run_child(argv, run.child_env())
    assert (child.exit_code, child.stdout) == first[:2]
