"""Command-line surface: construct algebras, run verification suites,
dump weight decompositions, certify conjugacy words.

All randomized checks draw integer coefficients in [-5, 5] and degrees
inside the active window from a PRNG fully determined by --seed, so equal
configurations produce byte-identical JSON.  Exit codes: 0 all checks
pass, 1 verification failure, 2 parse error, 3 unsupported input, 4
internal error (an exact re-verification inside the program failed; one
`internal error:` line on stderr, nothing on stdout), 141 stdout closed
before the report was written (`... | head -c 5`; nothing on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from .scalars import CycScalar, LaurentElt
from .rootsys import cartan_of_fixed
from .loop import LoopElt, TwistedContext
from .affine import (AffineElt, bracket_affine, verify_form_invariance,
                     window_gram_rank)
from .autos import (AutoWord, RootExp, Diagram, Cochar, TorusK, Ring,
                    tilde_lift, hat_lift, verify_automorphism,
                    verify_exact_sequence)
from .spectral import (Window, weight_decompose, verify_shift, verify_opposite,
                       verify_zero_weight, verify_product_rule,
                       rspan_isomorphism_check, decomposition_report)
from .mad import SubalgebraSpec, standard_mad, is_diagonalizable, mad_sanity, conjugacy_verify
from .parsing import ParseError, parse_affine, parse_word, parse_algebra_file

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # what a shell reports for a process killed by SIGPIPE

# suite -> the options of `verify` it reads, in the order it takes them
SUITES = {"jacobi": (), "form": (), "lifts": (), "exactseq": (),
          "spectral": ("x",), "mad": ("word", "spec")}
# option -> the only run that reads it; given to any other, a parse error
READ_BY = {"x": "verify spectral", "word": "verify mad",
           "spec": "verify mad --word"}


class Session:
    """Loaded algebra context shared by all commands."""

    def __init__(self, alg, auto, window, seed, beta, samples,
                 window_explicit=False):
        self.alg = alg
        self.auto = auto
        self.m = auto.m
        self.ctx = TwistedContext(auto)
        self.lo, self.hi = window
        self.window_explicit = window_explicit
        self.seed = seed
        self.beta = beta
        self.samples = samples
        self.rng = random.Random(seed)
        self._win = None

    def window(self, lo=None, hi=None):
        if lo is None and hi is None and self._win is not None:
            return self._win
        w = Window(self.auto, self.lo if lo is None else lo,
                   self.hi if hi is None else hi, context=self.ctx)
        if lo is None and hi is None:
            self._win = w
        return w

    def sample_loop(self, terms=2):
        out = LoopElt.zero(self.alg, self.m)
        for _ in range(terms):
            j = self.rng.randint(self.lo, self.hi)
            basis = self.ctx.slice_basis(j)
            if not basis:
                continue
            e = basis[self.rng.randrange(len(basis))]
            coef = self.rng.randint(-5, 5)
            out = out + LoopElt.from_g(e.scale(coef), j)
        return out

    def sample_affine(self, terms=2):
        return AffineElt(self.sample_loop(terms),
                         c=self.rng.randint(-5, 5), d=self.rng.randint(-5, 5))

    def generator_kinds(self):
        """One representative generator per kind, for the lift suites."""
        alg, m = self.alg, self.m
        root = alg.root_of_index[alg.rank]
        gens = [
            RootExp(alg, root, LaurentElt.s_power(m, self.m, 2)),
            Cochar(alg, tuple(1 if i == 0 else 0 for i in range(alg.rank))),
            TorusK(alg, tuple(CycScalar(m, 2) for _ in range(alg.rank))),
            Ring(CycScalar(m, 3), 1),
            Ring(CycScalar(m, 1), -1),
        ]
        if not self.auto.is_identity():
            gens.append(Diagram(self.auto))
        return gens


def _passed(report):
    return not report.get("failures")


# -- suites -------------------------------------------------------------


# A failing Jacobi triple is listed while the failure list (antisymmetry
# failures included) is shorter than this, and the first one always;
# later failing triples are only counted, in "failures_omitted".
JACOBI_LISTED = 11


def _flat(elt, shared):
    """An AffineElt as a tuple of (key, coefficient) pairs.

    A key is (Chevalley index, s-degree) for a loop monomial, or "c" or
    "d"; no coefficient is zero.  Equal pairs are stored once, in the
    dict `shared`, which keeps a table of many flat brackets small.
    """
    out = [((i, p), coef) for i, poly in elt.loop.coords.items()
           for p, coef in poly.terms.items()]
    if elt.c:
        out.append(("c", elt.c))
    if elt.d:
        out.append(("d", elt.d))
    return tuple(shared.setdefault(term, term) for term in out)


def _key_elt(alg, m, key):
    """The basis element a flat key names."""
    if key == "c":
        return AffineElt.c_elt(alg, m)
    if key == "d":
        return AffineElt.d_elt(alg, m)
    return AffineElt(LoopElt.monomial(alg, m, *key))


def suite_jacobi(session):
    """Antisymmetry on all window basis pairs, Jacobi on all triples.

    Every bracket comes from `bracket_affine`, and each is computed once:
    [b_i, b_j] for every ordered pair of window basis elements, and
    [b_i, X] for every Chevalley monomial X (or c) that occurs in a pair
    bracket, filled in as the triples need it.  A triple's sum is then
    [b_i, [b_j, b_k]] + ... expanded by bilinearity over those cached
    brackets.  A failing pair or listed triple is recomputed through the
    nested brackets, so its report is rendered from the direct formula.
    """
    if session.window_explicit:
        win = session.window()
    else:
        win = session.window(-2 * session.m, 2 * session.m)
    alg, m = session.alg, session.m
    basis = win.basis
    n = len(basis)
    shared = {}
    pair = [[_flat(bracket_affine(bi, bj), shared) for bj in basis]
            for bi in basis]
    memo = [{} for _ in range(n)]

    def add_outer(acc, i, inner):
        """acc += [b_i, inner], inner a flat bracket."""
        row = memo[i]
        for key, coef in inner:
            image = row.get(key)
            if image is None:
                image = row[key] = _flat(
                    bracket_affine(basis[i], _key_elt(alg, m, key)), shared)
            for out_key, value in image:
                prev = acc.get(out_key)
                term = coef * value
                acc[out_key] = term if prev is None else prev + term

    checked = 0
    failures = []
    for i in range(n):
        for j in range(i, n):
            checked += 1
            if dict(pair[i][j]) == {key: -value for key, value in pair[j][i]}:
                continue
            anti = bracket_affine(basis[i], basis[j]) + bracket_affine(basis[j], basis[i])
            if not anti:
                raise AssertionError("cached brackets disagree with bracket_affine")
            failures.append({
                "inputs": [basis[i].render(), basis[j].render()],
                "lhs": anti.render(), "rhs": "0"})
    listed = omitted = 0
    for i in range(n):
        bi = basis[i]
        for j in range(i, n):
            bj = basis[j]
            for k in range(j, n):
                checked += 1
                acc = {}
                add_outer(acc, i, pair[j][k])
                add_outer(acc, j, pair[k][i])
                add_outer(acc, k, pair[i][j])
                if not any(acc.values()):
                    continue
                if listed and len(failures) >= JACOBI_LISTED:
                    omitted += 1
                    continue
                listed += 1
                bk = basis[k]
                s = (bracket_affine(bi, bracket_affine(bj, bk))
                     + bracket_affine(bj, bracket_affine(bk, bi))
                     + bracket_affine(bk, bracket_affine(bi, bj)))
                if not s:
                    raise AssertionError("cached brackets disagree with bracket_affine")
                failures.append({
                    "inputs": [bi.render(), bj.render(), bk.render()],
                    "lhs": s.render(), "rhs": "0"})
    report = {"checked": checked, "failures": failures}
    if omitted:
        report["failures_omitted"] = omitted
    return report


def suite_form(session):
    """Invariance on seeded random triples; Gram full rank per window."""
    report = verify_form_invariance(session.sample_affine, session.samples,
                                    session.beta)
    granks = []
    for halfwidth in range(session.m, 3 * session.m + 1, session.m):
        win = session.window(-halfwidth, halfwidth)
        rank = window_gram_rank(win.basis, session.beta)
        granks.append({"window": [-halfwidth, halfwidth],
                       "rank": rank, "size": win.size()})
        if rank != win.size():
            report["failures"].append({
                "inputs": [f"window [-{halfwidth},{halfwidth}]"],
                "lhs": str(rank), "rhs": str(win.size())})
    report["checked"] += len(granks)
    report["gram"] = granks
    return report


def suite_lifts(session):
    """Lift coherence per generator kind plus the cochar corrections."""
    failures = []
    checked = 0
    alg, m = session.alg, session.m
    for gen in session.generator_kinds():
        for level in ("loop", "tilde", "hat"):
            word = AutoWord(level, (gen,))
            sampler = (session.sample_loop if level == "loop"
                       else (lambda: AffineElt(session.sample_loop()))
                       if level == "tilde" else session.sample_affine)
            rep = verify_automorphism(word, sampler, max(1, session.samples // 10))
            checked += rep["checked"]
            for f in rep["failures"]:
                f["part"] = f"automorphism:{level}:{gen.render()}"
                failures.append(f)
    # cochar central correction: H_i (x) 1 gains phi(alpha_i) <X_i, X_-i> c
    phi = tuple(1 if i == 0 else 0 for i in range(alg.rank))
    co = Cochar(alg, phi)
    word = tilde_lift(AutoWord("loop", (co,)))
    for i in range(alg.rank):
        h = AffineElt(LoopElt.monomial(alg, m, i, 0))
        img = word.apply(h)
        expected = CycScalar(m, phi[i] * alg.simple_pairing(i))
        checked += 1
        if img.c != expected or img.loop != h.loop:
            failures.append({
                "part": "cochar-correction",
                "inputs": [h.render()],
                "lhs": img.render(),
                "rhs": f"{h.render()} + {expected.render()}*c"})
    # hat lift: d -> d - X_phi with [X_phi, X_alpha] = phi(alpha) X_alpha
    hat = hat_lift(word)
    img = hat.apply(AffineElt.d_elt(alg, m))
    xphi = co.x_phi(m)
    checked += 1
    if img != AffineElt(LoopElt.from_g(xphi, 0).scale(-1), d=1):
        failures.append({
            "part": "cochar-derivation",
            "inputs": ["d"],
            "lhs": img.render(),
            "rhs": f"d - {xphi.render()}"})
    return {"checked": checked, "failures": failures}


def suite_exactseq(session):
    return verify_exact_sequence(session.generator_kinds(),
                                 session.sample_loop,
                                 max(1, session.samples // 10))


def suite_spectral(session, x_text=None):
    alg, m = session.alg, session.m
    if x_text:
        x = parse_affine(x_text, alg, m)
    else:
        h0, _ = cartan_of_fixed(session.auto)
        reg = LoopElt.zero(alg, m)
        for h in h0:
            reg = reg + LoopElt.from_g(h, 0)
        x = AffineElt(reg, d=1)
    win = session.window(-3 * session.m, 3 * session.m)
    decomp = weight_decompose(x, win)
    reports = {
        "decomposition": decomposition_report(decomp),
        "shift": verify_shift(decomp),
        "opposite": verify_opposite(decomp, session.beta),
        "zero_weight": verify_zero_weight(decomp),
        "product_rule": verify_product_rule(decomp),
        "rspan": rspan_isomorphism_check(decomp),
    }
    failures = []
    checked = 0
    checks = {}
    for name, rep in reports.items():
        if name == "decomposition":
            continue
        checked += rep["checked"]
        failures.extend(dict(f, part=name) for f in rep["failures"])
        checks[name] = {"checked": rep["checked"],
                        "pass": not rep["failures"]}
    if not decomp.complete:
        failures.append({"part": "decomposition",
                         "inputs": [x.render()],
                         "lhs": "incomplete",
                         "rhs": f"defect {decomp.defect}"})
    dump = dict(reports["decomposition"])
    dump["checks"] = checks
    return {"checked": checked, "failures": failures, "decomposition": dump}


def _word_and_spec(session, word_text, spec_lines, default=None):
    """The hat word and the subalgebra of a conjugacy check; without a
    spec file the subalgebra is `default`, when one is given.  A spec file
    without element lines is an empty subalgebra, which is rejected."""
    alg, m = session.alg, session.m
    word = parse_word(word_text, alg, m)
    if default is not None and spec_lines is None:
        return word, default
    return word, SubalgebraSpec([parse_affine(line, alg, m) for line in spec_lines])


def suite_conjugacy(session, word_text, spec_lines):
    """Whether the word carries the subalgebra onto the standard MAD."""
    word, spec = _word_and_spec(session, word_text, spec_lines)
    return conjugacy_verify(word, spec, session.window())


def suite_mad(session, word_text=None, spec_lines=None):
    win = session.window()
    reference = standard_mad(session.auto)
    if word_text is not None:
        word, spec = _word_and_spec(session, word_text, spec_lines, reference)
    failures = []
    checked = 0
    diag = is_diagonalizable(reference, win)
    flag, witness = diag
    checked += 1
    if not flag:
        failures.append({"part": "diagonalizable", "inputs": ["standard"],
                         "lhs": str(witness), "rhs": "joint eigenbasis"})
    rep = mad_sanity(reference, win, diag)
    checked += rep["checked"]
    failures.extend(dict(f, part="sanity") for f in rep["failures"])
    result = {"checked": checked, "failures": failures,
              "dim": rep["checks"]["dim"]}
    if word_text is not None:
        conj = conjugacy_verify(word, spec, win)
        result["checked"] += conj["checked"]
        result["failures"].extend(dict(f, part="conjugacy")
                                  for f in conj["failures"])
    return result


# -- commands ------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affinelie",
        description="Exact construction and verification of split and "
                    "twisted affine Kac-Moody Lie algebras.",
        epilog="Randomized checks draw integer coefficients in [-5,5] and "
               "degrees inside the window; --seed fixes every sample.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, window_default=None):
        p.add_argument("--algebra", required=True,
                       help="path to an algebra description file")
        p.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"),
                       default=window_default,
                       help="degree window in 1/m units (default -3m 3m)")
        p.add_argument("--samples", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--beta", default="1",
                       help="nonzero (c,d) pairing value")
        p.add_argument("--format", choices=("text", "json"), default="json")

    p = sub.add_parser("construct", help="build the algebra and print dimensions")
    common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    common(p)
    p.add_argument("--x", help="element for the spectral suite")
    p.add_argument("--word", help="hat-level word for mad conjugacy")
    p.add_argument("--spec", help="subalgebra file (one element per line)")

    p = sub.add_parser("spectrum", help="dump a weight decomposition")
    common(p)
    p.add_argument("--x", help="element x = x' + d to decompose")

    p = sub.add_parser("conjugate", help="certify a conjugacy word")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--spec", required=True,
                   help="subalgebra file (one element per line)")
    return parser


def load_session(args):
    try:
        with open(args.algebra, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read algebra file: {exc}")
    alg, auto = parse_algebra_file(text)
    m = auto.m
    window = tuple(args.window) if args.window else (-3 * m, 3 * m)
    if window[0] > window[1]:
        raise ParseError("window LO must not exceed HI")
    from .parsing import parse_scalar
    beta = parse_scalar(args.beta, m)
    if not beta:
        raise ParseError("beta must be nonzero")
    if args.samples < 1:
        raise ParseError("--samples must be at least 1")
    return Session(alg, auto, window, args.seed, beta, args.samples,
                   window_explicit=args.window is not None)


def read_spec(path):
    """Element lines of a subalgebra file, without blanks and # comments."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [l.strip() for l in fh]
    except OSError as exc:
        raise ParseError(f"cannot read spec file: {exc}")
    return [l for l in lines if l and not l.startswith("#")]


def emit(args, session, command, fields):
    """Print the payload of a command: its header, then `fields`."""
    payload = {"schema": 1, "command": command,
               "algebra": session.alg.datum.label, "m": session.m,
               "window": [session.lo, session.hi], **fields}
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        _emit_text(payload)


def _emit_text(payload):
    if "dims" in payload:
        dims = payload["dims"]
        parts = [f"g: {dims['g']}"]
        for i, d in enumerate(dims.get("g_i", [])):
            parts.append(f"g_{i}: {d}")
        parts.append(f"h0: {dims['h0']}")
        print(", ".join(parts))
        print(f"window basis: {dims['window_basis']}")
        return
    for name, rep in sorted(payload.get("reports", {}).items()):
        status = "pass" if not rep.get("failures") else "FAIL"
        print(f"{name}: {status} (checked {rep.get('checked', 0)})")
        for f in rep.get("failures", [])[:5]:
            print(f"  {f}")
    print("pass" if payload.get("pass") else "FAIL")


def cmd_construct(args):
    session = load_session(args)
    h0, h = cartan_of_fixed(session.auto)
    win = session.window()
    dims = {
        "g": session.alg.dim,
        "h0": len(h0),
        "window_basis": win.size(),
    }
    if session.m > 1:
        dims["g_i"] = [len(b) for b in session.ctx.eigenspaces]
    emit(args, session, "construct", {"dims": dims})
    return EXIT_PASS


def cmd_report(args):
    """`verify SUITE`; `spectrum`, which is `verify spectral` under its
    own name; and `conjugate`, the conjugacy half of `verify mad` alone."""
    if args.command == "conjugate":
        suite, reads = "conjugacy", ("word", "spec")
    else:
        suite = getattr(args, "suite", "spectral")
        reads = SUITES[suite]
    command = f"verify {suite}" if args.command == "verify" else args.command
    given = {opt: getattr(args, opt, None) for opt in READ_BY}
    for opt, reader in READ_BY.items():
        if given[opt] is not None and (
                opt not in reads or opt == "spec" and given["word"] is None):
            raise ParseError(f"--{opt} is read only by `{reader}`")
    session = load_session(args)
    if given["spec"] is not None:
        given["spec"] = read_spec(given["spec"])
    # looked up by name, so that a wrapper set on this module is called
    run = globals()[f"suite_{suite}"]
    report = run(session, *(given[opt] for opt in reads))
    ok = _passed(report)
    fields = {"reports": {suite: report}, "pass": ok}
    if command != "conjugate":
        fields["seed"] = session.seed
    emit(args, session, command, fields)
    return EXIT_PASS if ok else EXIT_FAIL


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = cmd_construct if args.command == "construct" else cmd_report
        code = run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; send the interpreter's final flush nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
