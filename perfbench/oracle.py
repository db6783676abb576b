"""Verdict and content oracle for one `affinelie` op.

An op fails when its exit code is not 0, when its stdout is not a single
JSON object with `"pass": true`, when its mathematical content differs
from reference.json, or when the traced and untraced passes printed
different bytes.  Byte layout is not compared, only the content below.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import KNOWN_DEFECTS

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# failure reasons that a documented known defect may show
DEFECT_REASONS = {"exit", "verdict"}


def content(payload):
    """The mathematical content of a report, per command."""
    command = payload["command"]
    reports = payload["reports"]
    if command == "verify jacobi":
        return {"checked": reports["jacobi"]["checked"]}
    if command in ("verify spectral", "spectrum"):
        dec = reports["spectral"]["decomposition"]
        return {"weights": [[w["w"], w["dim"]] for w in dec["weights"]],
                "complete": dec["complete"]}
    if command == "verify mad":
        return {"dim": reports["mad"]["dim"]}
    if command == "verify form":
        return {"gram": [[g["window"], g["rank"]]
                         for g in reports["form"]["gram"]]}
    if command in ("verify lifts", "verify exactseq"):
        return {"checked": reports[command.split()[1]]["checked"]}
    raise KeyError(f"no content rule for {command!r}")


def parse(stdout):
    """The single JSON object on stdout, or None."""
    try:
        payload = json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def judge(key, exit_code, stdout, reference, traced_stdout=None):
    """Sorted failure reasons of one op; empty when it passed."""
    reasons = set()
    if exit_code != 0:
        reasons.add("exit")
    payload = parse(stdout)
    if payload is None:
        reasons.add("json")
    else:
        if payload.get("pass") is not True:
            reasons.add("verdict")
        try:
            if content(payload) != reference.get(key):
                reasons.add("content")
        except (KeyError, TypeError):
            reasons.add("content")
    if traced_stdout is not None and traced_stdout != stdout:
        reasons.add("trace")
    return sorted(reasons)


def tolerated(key, reasons):
    """True when the failure is the documented known defect of this op."""
    return key in KNOWN_DEFECTS and set(reasons) <= DEFECT_REASONS


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["ops"]
