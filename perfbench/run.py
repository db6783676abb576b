"""Time to verdict of the affinelie CLI on one fixed workload.

    python3 perfbench/run.py --workload jacobi --seed 1 --seconds 25 --trace 0

Run from a source checkout (the package is taken from src/).  Each op is
one fresh `python -m affinelie ...` process; ops run one after another
from this single driver process, so the load is a closed loop with one
client.  With --trace 0 the run times set-up (`construct` on the
workload's algebras, SETUP_REPEATS times, median) and then runs the workload's
ops round-robin until the next op would overrun --seconds; a pass's
time is the sum over ops of each op's median paced time, which pace.py
measures at a fixed host speed (README.md says why).  An op counts as
attempted once per run, and as failed if any of its runs failed.  With
--trace 1 it runs one untraced pass and one traced in-process pass, and
reports the per-layer metrics of tracer.py.  Every op's stdout goes through the
oracle.  The last stdout line is the JSON result; the full record with
provenance is written under .perfbench_out/.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import pace
from workloads import WORKLOADS, algebras, op_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, env):
    """Run one op to completion in probed slices (pace.py)."""
    return pace.run([sys.executable, "-m", "affinelie", *args], ROOT, env, OUT)


def op_args(op, seed):
    return [*op, "--seed", str(seed)]


def measure_setup(paths, env):
    """Paced wall time of `construct` summed over the algebras; one repeat."""
    total = 0.0
    for path in paths:
        child = run_child(["construct", "--algebra", path], env)
        if child.exit_code != 0:
            raise RuntimeError(f"construct failed on {path}: exit {child.exit_code}")
        total += child.paced_wall_s
    return total


def run_pass(ops, seed, env):
    """One untraced pass: every op in order, each in a fresh process."""
    children = [run_child(op_args(op, seed), env) for op in ops]
    return sum(c.wall_s for c in children), children


def run_traced_pass(ops, seed, tracer):
    """The same ops in this process, through affinelie.cli.main."""
    from affinelie import cli
    outputs = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        tracer.op = index
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(op_args(op, seed))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an op that crashes is a failed op, not a crash
                traceback.print_exc()
                code = 1
        outputs.append((code or 0, buf.getvalue().encode("utf-8")))
    return time.perf_counter() - start, outputs


def judge_pass(ops, results, reference, traced=None):
    """Oracle records for one pass; results are (exit, stdout) pairs."""
    records = []
    for i, (op, (code, stdout)) in enumerate(zip(ops, results)):
        key = op_key(op)
        reasons = oracle.judge(key, code, stdout, reference,
                               None if traced is None else traced[i][1])
        records.append({"op": key, "exit": code,
                        "stdout_sha256": oracle.sha256(stdout),
                        "failed": reasons,
                        "tolerated": bool(reasons) and oracle.tolerated(key, reasons)})
    return records


def provenance(workload, seed, trace):
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "affinelie").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "trace": trace,
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "executable": sys.executable, "nproc": os.cpu_count()}


def untraced_run(ops, seed, seconds, env, reference, record):
    """Ops round-robin until the next would overrun, set-up spread among them.

    The set-up repeats are spaced evenly over the run, like the op repeats.
    Each op's time is the median of its repeats' paced times (pace.py).
    """
    paths = algebras(ops)
    run_child(["construct", "--algebra", paths[0]], env)  # byte-compile once
    setups = []
    samples = [[] for _ in ops]
    start = time.perf_counter()
    turn = 0
    while True:
        if (len(setups) < SETUP_REPEATS and time.perf_counter() - start
                >= len(setups) * seconds / SETUP_REPEATS):
            setups.append(measure_setup(paths, env))
        i = turn % len(ops)
        child = run_child(op_args(ops[i], seed), env)
        (rec,) = judge_pass([ops[i]], [(child.exit_code, child.stdout)],
                            reference)
        rec.update(argv=child.argv,
                   wall_s=child.wall_s, cpu_s=child.cpu_s,
                   paced_wall_s=child.paced_wall_s,
                   paced_cpu_s=child.paced_cpu_s, rss_mb=child.rss_mb,
                   probe_s=statistics.median(child.probes_s),
                   stderr_tail=child.stderr[-2000:].decode("utf-8", "replace"))
        samples[i].append(rec)
        turn += 1
        upcoming = samples[turn % len(ops)]
        if upcoming and (time.perf_counter() - start
                         + upcoming[-1]["wall_s"] > seconds):
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(paths, env))
    record.update(setup_s=setups, ops=samples)

    def per_op(key, combine=sum):
        return combine(statistics.median(r[key] for r in recs)
                       for recs in samples)

    metrics = {
        "wall_s": per_op("paced_wall_s"),
        "cpu_s": per_op("paced_cpu_s"),
        "peak_rss_mb": per_op("rss_mb", max),
        "setup_s": statistics.median(setups),
    }
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    probes = [r["probe_s"] for recs in samples for r in recs]
    lines = [f"repeats per op={[len(recs) for recs in samples]} "
             f"setup repeats={len(setups)}",
             f"unpaced wall {per_op('wall_s'):.4f} s, cpu {per_op('cpu_s'):.4f} s;"
             f" probe {statistics.median(probes) * 1e3:.2f} ms median"
             f" (reference {pace.PROBE_REF_S * 1e3:.2f} ms)"]
    for name, value in metrics.items():
        lines.append(f"{name:<12} {value:.4f} {units[name]}")
    for op, recs in zip(ops, samples):
        lines.append(f"op {op_key(op)}: paced wall " + " ".join(
            f"{r['paced_wall_s']:.3f}" for r in recs))
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in metrics.items()}
    return [rec for recs in samples for rec in recs], metrics, lines


def traced_run(ops, seed, env, reference, record, spans_path):
    from tracer import OVERHEAD, Tracer, layer_unit
    run_child(["construct", "--algebra", algebras(ops)[0]], env)
    plain_wall, children = run_pass(ops, seed, env)
    plain = [(c.exit_code, c.stdout) for c in children]
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced = run_traced_pass(ops, seed, tracer)
    finally:
        tracer.uninstall()
    records = (judge_pass(ops, plain, reference, traced)
               + judge_pass(ops, traced, reference))
    for rec, child in zip(records, children + children):
        rec["argv"] = child.argv
    layers = tracer.layer_metrics()
    layers[OVERHEAD] = traced_wall - plain_wall
    tracer.write_spans(spans_path)
    record.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                  spans=str(spans_path.relative_to(ROOT)), ops=records,
                  layers=layers)
    metrics = {name: {"value": value, "unit": layer_unit(name)}
               for name, value in layers.items()}
    lines = [f"untraced pass {plain_wall:.4f} s, traced pass {traced_wall:.4f} s,"
             f" overhead {traced_wall - plain_wall:.4f} s"]
    return records, metrics, lines


def tally(records):
    """(attempted, {op: failure reasons}, correct) of a run's op records.

    An op is attempted once per run, however often it ran, and fails if
    any of its runs failed; so both counts are the same in every run.
    """
    reasons = {}
    for rec in records:
        reasons.setdefault(rec["op"], set()).update(rec["failed"])
    failed = {op: sorted(found) for op, found in reasons.items() if found}
    correct = all(r["tolerated"] for r in records if r["failed"])
    return len(reasons), failed, correct


def check_checkout():
    needed = [SRC / "affinelie" / "cli.py", oracle.REFERENCE_PATH]
    needed += [ROOT / p for ops in WORKLOADS.values() for p in algebras(ops)]
    return [p for p in dict.fromkeys(needed) if not p.is_file()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = check_checkout()
    if missing:
        print("perfbench: not an affinelie source checkout; missing "
              + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    os.chdir(ROOT)  # ops name their files relative to the checkout
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    cpu = pace.pin()
    ops = WORKLOADS[args.workload]
    reference = oracle.load_reference()
    env = child_env()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": provenance(args.workload, args.seed, args.trace)}
    record["provenance"]["pinned_cpu"] = cpu
    if args.trace:
        records, metrics, lines = traced_run(
            ops, args.seed, env, reference, record,
            OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz")
    else:
        records, metrics, lines = untraced_run(
            ops, args.seed, args.seconds, env, reference, record)
    attempted, failed, correct = tally(records)
    record.update(correct=correct, attempted=attempted, failed=len(failed),
                  metrics=metrics)
    result_path = OUT / f"{stem}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} {lines[0]}")
    for line in lines[1:]:
        print("  " + line)
    failed_runs = sum(1 for r in records if r["failed"])
    print(f"  fail_frac    {len(failed) / attempted:.4f} ratio  "
          f"({len(failed)}/{attempted} ops failed; "
          f"{failed_runs}/{len(records)} op runs)")
    for op, reasons in failed.items():
        print(f"  failed: {op} {','.join(reasons)}"
              + (" (known defect)" if oracle.tolerated(op, reasons) else ""))
    print(f"  record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
