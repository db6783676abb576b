"""Span tracing of the affinelie modules from outside the package.

`Tracer.install()` replaces the public functions and methods listed in
SPANS with wrappers that record one span per call (name, start, end,
parent span, op id), and the scalar constructors listed in COUNTERS with
wrappers that only increment a count, because that layer is too hot to
span.  A function is replaced on its home module and on every affinelie
module that imported it by name; a method is replaced on its class.
`uninstall()` restores the originals.  Nothing under src/ changes.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time

# span name -> (module, attribute path); two targets may share a name
SPANS = [
    ("linalg.rref", "linalg", "rref"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("linalg.span.add", "linalg", "SpanSolver.add"),
    ("linalg.span.contains", "linalg", "SpanSolver.contains"),
    ("linalg.span.coords", "linalg", "SpanSolver.coords"),
    ("linalg.mat_vec", "linalg", "mat_vec"),
    ("linalg.eigenspaces", "linalg", "eigenspaces"),
    ("linalg.joint_eigenspaces", "linalg", "joint_eigenspaces"),
    ("linalg.charpoly", "linalg", "charpoly"),
    ("linalg.rational_roots", "linalg", "rational_roots"),
    ("rootsys.build", "rootsys", "build_chevalley"),
    ("rootsys.build", "rootsys", "build_diagram_auto"),
    ("rootsys.sigma_eigenspaces", "rootsys", "sigma_eigenspaces"),
    ("parsing.algebra_file", "parsing", "parse_algebra_file"),
    ("parsing.affine", "parsing", "parse_affine"),
    ("parsing.word", "parsing", "parse_word"),
    ("loop.bracket", "loop", "LoopElt.bracket"),
    ("loop.decompose_slice", "loop", "TwistedContext.decompose_slice"),
    ("loop.context", "loop", "TwistedContext.__init__"),
    ("affine.bracket", "affine", "bracket_affine"),
    ("affine.form", "affine", "invariant_form"),
    ("affine.gram_rank", "affine", "window_gram_rank"),
    ("autos.apply", "autos", "AutoWord.apply"),
    ("autos.verify_automorphism", "autos", "verify_automorphism"),
    ("autos.verify_exact_sequence", "autos", "verify_exact_sequence"),
    ("spectral.window", "spectral", "Window.__init__"),
    ("spectral.to_vector", "spectral", "Window.to_vector"),
    ("spectral.decompose", "spectral", "weight_decompose"),
    ("spectral.loop_space", "spectral", "WeightDecomp.loop_space"),
    ("spectral.verify_product_rule", "spectral", "verify_product_rule"),
    ("spectral.verify_shift", "spectral", "verify_shift"),
    ("spectral.verify_opposite", "spectral", "verify_opposite"),
    ("spectral.verify_rspan", "spectral", "rspan_isomorphism_check"),
    ("mad.is_diagonalizable", "mad", "is_diagonalizable"),
    ("mad.probe", "mad", "maximality_probe"),
    ("mad.conjugacy", "mad", "conjugacy_verify"),
    ("cli.load", "cli", "load_session"),
    *[(f"cli.suite.{s}", "cli", f"suite_{s}")
      for s in ("jacobi", "form", "lifts", "exactseq", "spectral", "mad")],
    ("cli.emit", "cli", "emit"),
]

COUNTERS = [
    ("scalars.made", "scalars", "CycScalar._make"),
    ("scalars.coerced", "scalars", "CycScalar.__init__"),
    ("scalars.laurent_mul", "scalars", "LaurentElt.__mul__"),
]

# Per-layer metrics a traced run reports: name -> (span or counter, statistic)
METRICS = {name: (name, "count") for name, _, _ in COUNTERS}
for _span, _stats in [
        ("linalg.rref", ("calls", "s", "cells")),
        ("linalg.kernel_basis", ("calls", "s", "hit_ratio")),
        ("linalg.span.add", ("calls", "s")),
        ("linalg.span.contains", ("calls", "s")),
        ("linalg.span.coords", ("calls", "s")),
        ("linalg.mat_vec", ("calls", "s")),
        ("linalg.eigenspaces", ("calls", "s")),
        ("linalg.joint_eigenspaces", ("calls", "s")),
        ("linalg.charpoly", ("calls", "s")),
        ("linalg.rational_roots", ("calls", "s")),
        ("rootsys.build", ("s",)),
        ("rootsys.sigma_eigenspaces", ("s",)),
        ("parsing.algebra_file", ("s",)),
        ("parsing.affine", ("calls", "s")),
        ("parsing.word", ("calls", "s")),
        ("loop.bracket", ("calls", "s", "self_s")),
        ("loop.decompose_slice", ("calls", "s")),
        ("loop.context", ("s",)),
        ("affine.bracket", ("calls", "s", "self_s", "distinct_ratio")),
        ("affine.form", ("calls", "s")),
        ("affine.gram_rank", ("s",)),
        ("autos.apply", ("calls", "s")),
        ("autos.verify_automorphism", ("s",)),
        ("autos.verify_exact_sequence", ("s",)),
        ("spectral.window", ("calls", "s")),
        ("spectral.to_vector", ("calls", "s")),
        ("spectral.decompose", ("calls", "s")),
        ("spectral.loop_space", ("calls", "s")),
        ("spectral.verify_product_rule", ("s",)),
        ("spectral.verify_shift", ("s",)),
        ("spectral.verify_opposite", ("s",)),
        ("spectral.verify_rspan", ("s",)),
        ("mad.is_diagonalizable", ("calls", "s")),
        ("mad.probe", ("s",)),
        ("mad.conjugacy", ("s",)),
        ("cli.load", ("s",)),
        *[(f"cli.suite.{s}", ("s",))
          for s in ("jacobi", "form", "lifts", "exactseq", "spectral", "mad")],
        ("cli.emit", ("s",)),
]:
    for _stat in _stats:
        METRICS[f"{_span}.{_stat}"] = (_span, _stat)

# traced pass wall time minus untraced pass wall time, reported by run.py
OVERHEAD = "trace.overhead_s"

UNITS = {"count": "count", "calls": "count", "cells": "count", "s": "s",
         "self_s": "s", "hit_ratio": "ratio", "distinct_ratio": "ratio"}


def layer_unit(metric):
    return "s" if metric == OVERHEAD else UNITS[METRICS[metric][1]]


# Metrics that are exact counts and must repeat exactly for a fixed seed.
EXACT = sorted(name for name, (_, stat) in METRICS.items()
               if stat in ("calls", "count", "cells"))


def _affine_key(x):
    loop = tuple(sorted((i, tuple(sorted(p.terms.items())))
                        for i, p in x.loop.coords.items()))
    return loop, x.c, x.d


def _note_rref(acc, args, result):
    mat = args[0]
    acc["cells"] += len(mat) * (len(mat[0]) if mat else 0)


def _note_kernel(acc, args, result):
    acc["hits"] += bool(result)


def _note_bracket(acc, args, result):
    acc["pairs"].add((_affine_key(args[0]), _affine_key(args[1])))


NOTES = {
    "linalg.rref": (_note_rref, {"cells": 0}),
    "linalg.kernel_basis": (_note_kernel, {"hits": 0}),
    "affine.bracket": (_note_bracket, {"pairs": None}),
}


class Tracer:
    """Records spans and counts for calls into the affinelie modules."""

    def __init__(self):
        self.spans = []       # [name, start_ns, end_ns, parent, op, outermost]
        self.stack = []
        self.depth = {}
        self.counts = {name: [0] for name, _, _ in COUNTERS}
        self.notes = {}
        self.op = 0
        self._saved = []

    # -- patching -----------------------------------------------------

    def install(self):
        pkg = importlib.import_module("affinelie")
        modules = [importlib.import_module(f"affinelie.{name}") for name in
                   ("scalars", "linalg", "rootsys", "parsing", "loop",
                    "affine", "autos", "spectral", "mad", "cli")]
        modules.append(pkg)
        for name, mod, path in SPANS:
            self._replace(modules, mod, path, self._span_wrapper(name))
        for name, mod, path in COUNTERS:
            self._replace(modules, mod, path, self._count_wrapper(name))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _replace(self, modules, mod, path, make):
        home = sys.modules[f"affinelie.{mod}"]
        if "." not in path:
            original = getattr(home, path)
            wrapped = make(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)
            return
        cls_name, attr = path.split(".")
        cls = getattr(home, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        for alias, value in list(cls.__dict__.items()):
            if value is raw:
                self._set(cls, alias, wrapped)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _span_wrapper(self, name):
        spans, stack, depth = self.spans, self.stack, self.depth
        clock = time.perf_counter_ns
        note = None
        if name in NOTES:
            note, init = NOTES[name]
            acc = self.notes.setdefault(
                name, {k: (set() if v is None else v) for k, v in init.items()})
        depth.setdefault(name, 0)

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                record = [name, 0, 0, stack[-1] if stack else -1, self.op,
                          depth[name] == 0]
                spans.append(record)
                stack.append(idx)
                depth[name] += 1
                record[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    depth[name] -= 1
                    stack.pop()
                if note is not None:
                    note(acc, args, result)
                return result
            wrapper.__wrapped__ = fn
            wrapper.__name__ = getattr(fn, "__name__", name)
            return wrapper
        return make

    def _count_wrapper(self, name):
        cell = self.counts[name]

        def make(fn):
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            wrapper.__name__ = getattr(fn, "__name__", name)
            return wrapper
        return make

    # -- results ------------------------------------------------------

    def layer_metrics(self):
        """Every per-layer metric of METRICS, as plain numbers."""
        calls, busy, own = {}, {}, {}
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, _, _, outermost) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            if outermost:
                busy[name] = busy.get(name, 0) + end - start
            own[name] = own.get(name, 0) + end - start - child[idx]
        out = {}
        for metric, (name, stat) in METRICS.items():
            n = calls.get(name, 0)
            acc = self.notes.get(name, {})
            if stat == "count":
                value = self.counts[name][0]
            elif stat == "calls":
                value = n
            elif stat == "s":
                value = busy.get(name, 0) / 1e9
            elif stat == "self_s":
                value = own.get(name, 0) / 1e9
            elif stat == "cells":
                value = acc["cells"]
            elif stat == "hit_ratio":
                value = acc["hits"] / n if n else 0.0
            else:  # distinct_ratio
                value = len(acc["pairs"]) / n if n else 0.0
            out[metric] = value
        return out

    def write_spans(self, path):
        """Write spans as gzip'd tab-separated lines: op name start end parent."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(f"{op}\t{name}\t{start}\t{end}\t{parent}\n")
