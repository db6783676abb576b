"""Which checks catch which bugs: a mutation census of the verification
suites, as JSON.

    PYTHONPATH=src python tests/mutation_census.py          # the 62 digest runs
    PYTHONPATH=src python tests/mutation_census.py --fast   # the 13 FAST runs

Each mutant is one named, hand-made bug, put into the program by replacing
one function or method for as long as the mutant is applied (mutation
testing: DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978).  Under each mutant the runs of
`stdout_digests.runs()`, or of `FAST`, go through `cli.main` in this
process, from the checkout root.  A mutant is caught by a run whose exit
code goes from 0 to 1, that is, by a FAIL report.  For each mutant the
census lists those runs with the report families that fail on each (a
failure's `part`, else its suite, and every `"pass": false` key by its
path) and the `Report.check` calls that returned false, as
module.function:line; any other change of exit code is listed under
"other".  Last it lists the `Report.check` call sites that the unmutated
runs reach and no mutant fails: a check there is vacuous on these runs or
repeats another.  The failure reports are rendered from the values the
checks compared, so this census, not a second computation, is the
evidence that a check detects what it claims to.  pytest does not collect
this file: its name does not start with `test_`.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from affinelie import affine, autos, cli, linalg, mad, spectral
from affinelie.autos import Cochar, Diagram, NilExp, Ring, TorusK, VShift
from affinelie.report import Report
from affinelie.scalars import _add_pair, add_products, pair_mul, table_pairing
from affinelie.spectral import WeightSpace

import stdout_digests

ROOT = Path(__file__).resolve().parent.parent

# a1 and a2_twisted under every suite on a small window, and one a1
# conjugacy word: every mutant below is caught by one of these runs
FAST = [["verify", suite, "--algebra", f"algebras/{name}.alg",
         "--window", "-2", "2", "--seed", "7"]
        for name in ("a1", "a2_twisted") for suite in cli.SUITES]
FAST.append(["verify", "mad", "--algebra", "algebras/a1.alg", "--window",
             "-2", "2", "--seed", "7", "--word", "vshift(2) @ hat"])

# name -> a function returning the (owner, attribute, replacement) triples
MUTANTS = {}


def mutant(name):
    def register(make):
        MUTANTS[name] = make
        return make
    return register


def everywhere(owner, name, replacement):
    """Replace `owner.name` and every `from ... import` binding of it in the
    package's modules."""
    real = getattr(owner, name)
    return [(module, name, replacement)
            for key, module in sorted(sys.modules.items())
            if key.startswith("affinelie") and getattr(module, name, None) is real]


@mutant("v-shift does nothing")
def _():
    return [(VShift, "act", lambda self, f, loop=False: f)]


@mutant("v-shift applied twice")
def _():
    real = VShift.act
    return [(VShift, "act", lambda self, f, loop=False:
             real(self, real(self, f, loop), loop))]


@mutant("cochar without central correction")
def _():
    return [(Cochar, "_central_correction", lambda self, terms: (0, 0))]


@mutant("cochar without -d*X_phi")
def _():
    real = Cochar.act

    def act(self, f, loop=False):
        terms, c, _ = real(self, (f[0], f[1], None), loop)
        return terms, c, f[2]
    return [(Cochar, "act", act)]


@mutant("lifted cochar shifts one root by phi(alpha) + 1")
def _():
    real = Cochar.act

    def act(self, f, loop=False):
        """The loop action as it is; the lift moves the terms of the first
        root index one degree further."""
        terms, c, d = real(self, f, loop)
        if not loop:
            rank = self.alg.rank
            terms = {(i, p + (i == rank)): v for (i, p), v in terms.items()}
        return terms, c, d
    return [(Cochar, "act", act)]


@mutant("ring e = -1 keeps c, d")
def _():
    real = Ring.act

    def act(self, f, loop=False):
        return real(self, f, loop)[0], f[1], f[2]
    return [(Ring, "act", act)]


@mutant("diagram without signs")
def _():
    def act(self, f, loop=False):
        terms, c, d = f
        return {(self.auto.index_image(i)[0], p): v
                for (i, p), v in terms.items()}, c, d
    return [(Diagram, "act", act)]


@mutant("torus scales X_-alpha like X_alpha")
def _():
    real = TorusK._eigen
    return [(TorusK, "_eigen", lambda self, root:
             real(self, tuple(abs(k) for k in root)))]


def cocycle_times(k):
    real = affine.flat_bracket

    def bracket(alg, x, y):
        terms, c, d = real(alg, x, y)
        return terms, (k * c[0], k * c[1]) if c and k else None, d
    return everywhere(affine, "flat_bracket", bracket)


@mutant("cocycle c-term dropped")
def _():
    return cocycle_times(0)


@mutant("cocycle c-term doubled")
def _():
    return cocycle_times(2)


@mutant("cocycle symmetric in x, y")
def _():
    real = affine.flat_bracket

    def bracket(alg, x, y):
        """[x, y] with the c-term weighted by |p| instead of p, so that it
        keeps its sign when x and y swap."""
        terms, _, d = real(alg, x, y)
        a = b = 0
        for (i, p), u in x[0].items():
            for (j, q), v in y[0].items():
                if p + q == 0 and (k := alg.killing_table.get((i, j), 0) * abs(p)):
                    pa, pb = pair_mul(u, v)
                    a, b = a + pa * k, b + pb * k
        return terms, (a, b) if a or b else None, d
    return everywhere(affine, "flat_bracket", bracket)


@mutant("d-action graded by |degree|")
def _():
    real = affine.flat_bracket

    def bracket(alg, x, y):
        """[x, y] with [d, X t^p] = |p| X t^p instead of p X t^p."""
        out, c, _ = real(alg, (x[0], None, None), (y[0], None, None))
        for coef, terms, sign in ((x[2], y[0], 1), (y[2], x[0], -1)):
            if coef:
                for key, value in terms.items():
                    a, b = pair_mul(coef, value)
                    k = sign * abs(key[1])
                    _add_pair(out, key, a * k, b * k)
        return out, c, None
    return everywhere(affine, "flat_bracket", bracket)


@mutant("form without c*d")
def _():
    return everywhere(affine, "flat_pairing", lambda alg, x, y:
                      table_pairing(alg.killing_table, x[0], y[0]))


@mutant("loop pairing doubled")
def _():
    real = affine.flat_pairing

    def pairing(alg, x, y):
        a, b = real(alg, x, y)
        la, lb = table_pairing(alg.killing_table, x[0], y[0])
        return a + la, b + lb
    return everywhere(affine, "flat_pairing", pairing)


@mutant("nilexp to first order only")
def _():
    def act(self, f, loop=False):
        """f + [z, f]: the series cut after its linear term."""
        t = autos._bracket(self.alg, (self.z, None, None), f, loop)
        acc = {}
        for terms, c, _ in (f, t):
            add_products(acc, (1, 0), {**terms, "c": c} if c else terms)
        c = acc.pop("c", None)
        return acc, c, f[2]
    return [(NilExp, "act", act)]


@mutant("eigen-solve drops one eigenvector")
def _():
    real = linalg.eigenspaces

    def eigenspaces(*args, **kwargs):
        ((w, basis), *rest), complete = real(*args, **kwargs)
        return [(w, basis[:-1]), *rest], complete
    return [(linalg, "eigenspaces", eigenspaces)]


@mutant("weight off by one after the lift")
def _():
    real = WeightSpace.__init__

    def init(self, w, vectors):
        real(self, (w[0] + 1, w[1]), vectors)
    return [(WeightSpace, "__init__", init)]


@mutant("A_w at loop level drops its last independent vector")
def _():
    real = WeightSpace.__init__

    def init(self, w, vectors):
        real(self, w, vectors)
        self.loop = self.loop[:-1]
    return [(WeightSpace, "__init__", init)]


@mutant("series ids split per weight")
def _():
    def assign(decomp):
        """Every weight a series of its own, numbered in weight order."""
        for sid, sp in enumerate(sorted(decomp.spaces, key=lambda s: s.w)):
            sp.series_id = sid
    return [(spectral, "_assign_series", assign)]


@mutant("conjugacy_verify skips the first image")
def _():
    real = mad.conjugacy_verify

    def verify(word, spec, window, reference, span):
        rest = SimpleNamespace(generators=spec.generators[1:])
        return real(word, rest, window, reference, span)
    return everywhere(mad, "conjugacy_verify", verify)


@contextlib.contextmanager
def mutated(name):
    """The program with mutant `name` in place; restored on exit."""
    patches = MUTANTS[name]()
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextlib.contextmanager
def watched_checks():
    """(reached, failed): the `Report.check` call sites, as
    module.function:line, called and returning false while in the block."""
    reached, failed, real = set(), set(), Report.check

    def check(self, ok):
        frame = sys._getframe(1)
        site = (f"{frame.f_globals['__name__'].removeprefix('affinelie.')}."
                f"{frame.f_code.co_qualname}:{frame.f_lineno}")
        reached.add(site)
        if not ok:
            failed.add(site)
        return real(self, ok)

    Report.check = check
    try:
        yield reached, failed
    finally:
        Report.check = real


def families(node, path=()):
    """The report families that fail in a JSON report payload."""
    if isinstance(node, list):
        for item in node:
            yield from families(item, path)
        return
    if not isinstance(node, dict):
        return
    if node.get("pass") is False and "failures" not in node and path:
        yield ":".join(path)
    for key, value in node.items():
        if key == "failures":
            for f in value:
                yield ":".join(path + ((f["part"],) if "part" in f else ()))
        else:
            yield from families(value, path + (key,))


def outcome(argv):
    """(exit code, failing families) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    try:
        payload = json.loads(out.getvalue())
    except ValueError:  # a --format text run, or nothing on stdout
        return code, []
    return code, list(dict.fromkeys(families(payload.get("reports", {}))))


def census(argvs, names=None):
    """The census of the mutants `names` (default: all) over the runs."""
    with watched_checks() as (reached, _):
        before = [outcome(argv)[0] for argv in argvs]
    failed_anywhere, out = set(), {}
    for name in names or MUTANTS:
        entry = out[name] = {"caught": [], "other": []}
        for argv, was in zip(argvs, before):
            with mutated(name), watched_checks() as (_, failed):
                code, failing = outcome(argv)
            failed_anywhere |= failed
            if code == was:
                continue
            run = " ".join(argv)
            if (was, code) == (0, 1):
                entry["caught"].append({"run": run, "families": failing,
                                        "checks": sorted(failed)})
            else:
                entry["other"].append({"run": run, "exit": [was, code]})
    return {"runs": len(argvs), "mutants": out,
            "escaped": [name for name, e in out.items() if not e["caught"]],
            "never_failed": sorted(reached - failed_anywhere)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="run only the FAST runs")
    args = parser.parse_args()
    argvs = FAST if args.fast else stdout_digests.runs()
    print(json.dumps(census(argvs), indent=1))


if __name__ == "__main__":
    main()
