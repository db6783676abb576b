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
import functools
import json
import os
import random
import sys
from .scalars import add_products, render_flat, render_pair, render_sum
from .rootsys import cartan_of_fixed
from .loop import Window
from .affine import jacobi_sums, verify_form_invariance, window_gram_rank
from .parsing import (ParseError, parse_affine, parse_flat, parse_word,
                      parse_algebra_file)
from .report import Report
# autos, spectral and mad: imported only in the suites that use them

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
    """Loaded algebra context shared by all commands, with the run's one
    degree window [lo, hi], built at load: every command reads it, and its
    TwistedContext `ctx` serves construct, the sampler and form windows."""

    def __init__(self, auto, window, seed, samples):
        self.alg = auto.alg
        self.auto = auto
        self.m = auto.m
        self.lo, self.hi = window
        self.window = Window(auto, self.lo, self.hi)
        self.ctx = self.window.ctx
        self.seed = seed
        self.samples = samples
        self.rng = random.Random(seed)

    def sample_loop(self):
        """Two random terms coef * b (x) s^j: a degree j in the window, a
        basis element b of g_j and coef in [-5, 5], as one flat form read
        from the window's flat forms."""
        rng, out, win = self.rng, {}, self.window
        for _ in range(2):
            j = rng.randint(self.lo, self.hi)
            size = len(self.ctx.slice_basis(j))
            if not size:
                continue
            terms = win.flats[win.slot[(j, rng.randrange(size))]][0]
            add_products(out, (rng.randint(-5, 5), 0), terms)
        return out, None, None

    def sample_affine(self):
        """A flat `sample_loop` form with c and d drawn from [-5, 5]."""
        terms, _, _ = self.sample_loop()
        c, d = self.rng.randint(-5, 5), self.rng.randint(-5, 5)
        return terms, (c, 0) if c else None, (d, 0) if d else None

    @functools.cached_property
    def cochar(self):
        """The cochar phi = (1, 0, ..., 0) of the lift suites, one per run."""
        from .autos import Cochar
        return Cochar(self.alg, (1,) + (0,) * (self.alg.rank - 1))

    def generator_kinds(self):
        """One representative generator per kind, for the lift suites."""
        from .autos import Diagram, Ring, RootExp, TorusK
        alg, m = self.alg, self.m
        root = alg.root_of_index[alg.rank]
        gens = [
            RootExp(alg, m, root, {m: (2, 0)}),
            self.cochar,
            TorusK(alg, ((2, 0),) * alg.rank),
            Ring((3, 0), 1),
            Ring((1, 0), -1),
        ]
        if not self.auto.is_identity():
            gens.append(Diagram(self.auto))
        return gens


# -- suites -------------------------------------------------------------


# A failing Jacobi triple is listed while the failure list (antisymmetry
# failures included) is shorter than this, and the first one always;
# later failing triples are only counted, in "failures_omitted".
JACOBI_LISTED = 11


def suite_jacobi(session):
    """Antisymmetry on all window basis pairs, Jacobi on all triples, as
    `affine.jacobi_sums` yields them: only failing triples come back, so
    every triple is counted at once."""
    alg, m, flats = session.alg, session.m, session.window.flats
    n = len(flats)
    rep = Report(n * (n + 1) * (n + 2) // 6)
    listed = omitted = 0  # failing triples listed, and only counted
    for slots, s in jacobi_sums(alg, flats):
        if len(slots) == 2 and rep.check(not (s[0] or s[1])):
            continue
        if len(slots) == 3:
            if listed and len(rep["failures"]) >= JACOBI_LISTED:
                omitted += 1
                continue
            listed += 1
        rep.fail([render_flat(alg.labels, m, flats[i]) for i in slots],
                 render_flat(alg.labels, m, s), "0")
    if omitted:
        rep["failures_omitted"] = omitted
    return rep


def suite_form(session):
    """Invariance on seeded random triples from the run's window; Gram full
    rank on [-m, m], [-2m, 2m] and [-3m, 3m], whatever that window is."""
    if session.lo > 0 or session.hi < 0:
        raise ValueError(f"window [{session.lo}, {session.hi}] holds no "
                         "opposite degrees: every sampled pairing is 0")
    report = verify_form_invariance(session.alg, session.m,
                                    session.sample_affine, session.samples)
    report["gram"] = []
    for halfwidth in range(session.m, 3 * session.m + 1, session.m):
        win = Window(session.auto, -halfwidth, halfwidth, context=session.ctx)
        rank = window_gram_rank(win)
        report["gram"].append({"window": [-halfwidth, halfwidth],
                               "rank": rank, "size": win.size()})
        if not report.check(rank == win.size()):
            report.fail([f"window [-{halfwidth},{halfwidth}]"],
                        str(rank), str(win.size()))
    return report


def suite_lifts(session):
    """Lift coherence per generator kind plus the cochar corrections, the
    latter on the session's cochar."""
    from .autos import AutoWord, hat_lift, tilde_lift, verify_automorphism
    rep = Report()
    alg, m = session.alg, session.m
    for gen in session.generator_kinds():
        for level in ("loop", "tilde", "hat"):
            # a loop sample is the flat form of a tilde one: no c, no d
            sampler = (session.sample_affine if level == "hat"
                       else session.sample_loop)
            rep.merge(verify_automorphism(alg, m, AutoWord(level, (gen,)),
                                          sampler,
                                          max(1, session.samples // 10)),
                      f"automorphism:{level}:{gen.render()}")
    # cochar central correction: H_i (x) 1 gains phi(alpha_i) <X_i, X_-i> c
    word = tilde_lift(AutoWord("loop", (session.cochar,)))
    for i in range(alg.rank):
        h = ({(i, 0): (1, 0)}, None, None)
        img = word.act(h)
        expected = (session.cochar.phi[i] * alg.simple_pairing(i), 0)
        if not rep.check((img[1] or (0, 0)) == expected and img[0] == h[0]):
            text = render_flat(alg.labels, m, h)
            rep.fail([text], render_flat(alg.labels, m, img),
                     f"{text} + {render_pair(expected)}*c",
                     part="cochar-correction")
    # hat lift: d -> d - X_phi with [X_phi, X_alpha] = phi(alpha) X_alpha
    img = hat_lift(word).act(({}, None, (1, 0)))
    xphi = session.cochar.x_phi()
    minus = {key: (-a, -b) for key, (a, b) in xphi.items()}
    if not rep.check(img == (minus, None, (1, 0))):
        text = render_sum((v, alg.labels[i])
                          for (i, _), v in sorted(xphi.items()))
        rep.fail(["d"], render_flat(alg.labels, m, img), f"d - {text}",
                 part="cochar-derivation")
    return rep


def suite_exactseq(session):
    from .autos import verify_exact_sequence
    return verify_exact_sequence(
        session.alg, session.m, session.generator_kinds(), session.sample_loop,
        max(1, session.samples // 10))


def suite_spectral(session, x_text=None):
    """The weight lemmas for x = x' + d; their shift rule needs d-part 1
    and a window with room for a t-shift."""
    from .spectral import (weight_decompose, verify_shift, verify_opposite,
                           verify_zero_weight, verify_product_rule,
                           rspan_isomorphism_check, decomposition_report)
    alg, m = session.alg, session.m
    if x_text is not None:
        x = parse_flat(x_text, alg, m)
        if x[2] != (1, 0):
            raise ValueError(f"--x must be x' + d, not "
                             f"{render_flat(alg.labels, m, x)}")
    else:
        # the sum of the h0 basis: orbit sums of disjoint orbits
        h0, _ = cartan_of_fixed(session.auto)
        x = ({(k, 0): v for h in h0 for k, v in h.items()}, None, (1, 0))
    decomp = weight_decompose(x, session.window)
    rep = Report()
    shift = verify_shift(decomp)
    if not shift["checked"]:
        raise ValueError(f"window [{session.lo}, {session.hi}] has no room "
                         "for a t-shift inside its interior: the shift lemma "
                         "checks nothing")
    rep["decomposition"] = dump = decomposition_report(decomp)
    dump["checks"] = {}
    for name, part in [
            ("shift", shift),
            ("opposite", verify_opposite(decomp)),
            ("zero_weight", verify_zero_weight(decomp)),
            ("product_rule", verify_product_rule(decomp)),
            ("rspan", rspan_isomorphism_check(decomp))]:
        rep.merge(part, name)
        dump["checks"][name] = {"checked": part["checked"],
                                "pass": part.passed}
    if not decomp.complete:
        rep.fail([render_flat(alg.labels, m, x)], "incomplete",
                 f"defect {decomp.defect}", part="decomposition")
    return rep


def _word_and_spec(session, word_text, spec_lines):
    """The hat word and the subalgebra of a conjugacy check; the subalgebra
    is None without a spec file.  A spec file without element lines is an
    empty subalgebra, which is rejected; a parse error names its line."""
    from .mad import SubalgebraSpec
    alg, m = session.alg, session.m
    word = parse_word(word_text, alg, m)
    if spec_lines is None:
        return word, None
    spec = []
    for n, line in spec_lines:
        try:
            spec.append(parse_affine(line, alg, m))
        except ParseError as exc:
            raise ParseError(f"spec line {n}: {exc}") from None
    return word, SubalgebraSpec(spec)


def suite_conjugacy(session, word_text, spec_lines):
    """Whether the word carries the subalgebra onto the standard MAD."""
    from .mad import conjugacy_verify, standard_mad
    word, spec = _word_and_spec(session, word_text, spec_lines)
    win = session.window
    reference = standard_mad(session.auto)
    return conjugacy_verify(word, spec, win, reference,
                            reference.span_solver(win))


def suite_mad(session, word_text=None, spec_lines=None):
    """The MAD sanity checks of the standard MAD and, given a word, its
    conjugacy check, on one standard MAD and one span solver."""
    from .mad import conjugacy_verify, mad_sanity, standard_mad
    win = session.window
    reference = standard_mad(session.auto)
    if word_text is not None:
        word, spec = _word_and_spec(session, word_text, spec_lines)
    span = reference.span_solver(win)
    rep = Report()
    sanity = mad_sanity(reference, win, span)
    rep.merge(sanity, "sanity")
    rep["dim"] = sanity["checks"]["dim"]
    if word_text is not None:
        rep.merge(conjugacy_verify(word, spec or reference, win, reference,
                                   span), "conjugacy")
    return rep


# -- commands ------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affinelie",
        description="Exact construction and verification of split and "
                    "twisted affine Kac-Moody Lie algebras.",
        epilog="Randomized checks draw integer coefficients in [-5,5] and "
               "degrees inside the window; --seed fixes every sample.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", required=True,
                       help="path to an algebra description file")
        p.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"),
                       help="degree window in 1/m units (default -3m 3m; "
                            "-2m 2m for verify jacobi)")
        p.add_argument("--samples", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read algebra file: {exc}")
    _, auto = parse_algebra_file(text)
    if args.window:
        window = tuple(args.window)
    else:
        # the default window: [-2m, 2m] for jacobi, [-3m, 3m] otherwise
        half = (2 if getattr(args, "suite", None) == "jacobi" else 3) * auto.m
        window = (-half, half)
    if window[0] > window[1]:
        raise ParseError("window LO must not exceed HI")
    if args.samples < 1:
        raise ParseError("--samples must be at least 1")
    return Session(auto, window, args.seed, args.samples)


def read_spec(path):
    """The numbered element lines of a subalgebra file: no blanks, no #."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(enumerate(fh, 1))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read spec file: {exc}")
    return [(n, l) for n, l in lines if l.strip()[:1] not in ("", "#")]


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
    win = session.window
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
    ok = report.passed
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
