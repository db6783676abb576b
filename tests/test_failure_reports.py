"""The failure branches of the verifiers and suites, with whole reports.

The shipped algebras pass every check, so a failure record is only built
when a test breaks something on purpose: a bilinear form that is not
invariant, a generator that is no automorphism or whose lift disagrees
with its loop action, a tampered `window_gram_rank`, `Cochar` or
`VShift`, or a `WeightDecomp` rebuilt by hand from a real one with a
vector dropped, a weight relabelled or A_0 removed.  Each test asserts
the whole report, so the keys, the order of the failures and every
rendered value are pinned.  A failure branch renders the flat values
its check compared and computes nothing a second time; that a check
fails at all when the program is wrong is shown by the mutants of
`tests/mutation_census.py`.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from affinelie import affine, cli
from affinelie.affine import flat, verify_form_invariance
from affinelie.autos import AutoGen, Cochar, VShift, verify_exact_sequence
from affinelie.cli import build_parser, load_session
from affinelie.loop import Window
from affinelie.parsing import parse_affine, parse_flat
from affinelie.scalars import pair_exact, pair_mul, render_flat, render_pair
from affinelie.spectral import (WeightDecomp, WeightSpace,
                                rspan_isomorphism_check, verify_opposite,
                                verify_product_rule, verify_shift,
                                verify_zero_weight, weight_decompose)

A1 = str(Path(__file__).resolve().parent.parent / "algebras" / "a1.alg")


def a1_session(suite, *extra):
    return load_session(build_parser().parse_args(
        ["verify", suite, "--algebra", A1, "--seed", "7", *extra]))


class Doubling(AutoGen):
    """x -> 2x on the loop part: no automorphism, since [2x, 2y] = 4[x, y].
    Its inverse scales the loop part by k = 1/2."""

    def __init__(self, k=2):
        self.k = k

    def act(self, f, loop=False):
        terms, c, d = f
        return {key: pair_exact((self.k * a, self.k * b))
                for key, (a, b) in terms.items()}, c, d

    def inverse(self):
        return type(self)(Fraction(1, self.k))

    def render(self):
        return "double" if self.k == 2 else f"scale({self.k})"


class LoopOnlyDoubling(Doubling):
    """Doubles at loop level, but its affine lift is the identity."""

    def act(self, f, loop=False):
        return super().act(f, loop) if loop else f


def a1_decomp():
    """The weight decomposition of H_1 + d on the a1 window [-2, 2]."""
    s = a1_session("spectral")
    return weight_decompose(parse_flat("H_1*t^0 + d", s.alg, s.m),
                            Window(s.auto, -2, 2))


def rational(q):
    """The rational weight q (a Fraction or its text) as a pair."""
    return pair_exact((Fraction(q), 0))


def rebuilt(decomp, edit):
    """A WeightDecomp made from fresh WeightSpaces of `decomp`; `edit` maps
    a weight's rendering and its vectors (flat forms) to (weight, vectors),
    or to None to remove the space."""
    spaces = []
    for sp in decomp.spaces:
        edited = edit(render_pair(sp.w), list(sp.vectors))
        if edited is not None:
            spaces.append(WeightSpace(*edited))
    return WeightDecomp(decomp.x, decomp.window, spaces, decomp.complete,
                        decomp.interior, decomp.defect)


def dropping(weight, vector):
    """An edit that drops one rendered vector from one weight space."""
    alg = a1_session("spectral").alg

    def edit(w, vectors):
        if w == weight:
            vectors = [v for v in vectors
                       if render_flat(alg.labels, 1, v) != vector]
        return rational(w), vectors
    return edit


# -- affine ------------------------------------------------------------------


def test_form_invariance_failure(monkeypatch):
    """A form with (c, c) = 1 is not invariant: ([x, y], c) picks up the
    cocycle of [X_a1 t, X_-a1 t^-1].  The c*c term is added to
    `flat_pairing`, which gives both pairings of the sum and the report."""
    s = a1_session("form")
    real = affine.flat_pairing

    def with_cc(alg, x, y):
        a, b = real(alg, x, y)
        if x[1] and y[1]:
            pa, pb = pair_mul(x[1], y[1])
            a, b = a + pa, b + pb
        return a, b

    monkeypatch.setattr(affine, "flat_pairing", with_cc)
    elts = iter([parse_affine(t, s.alg, s.m)
                 for t in ("X_a1*t^1", "X_ma1*t^-1 + c", "c")])
    report = verify_form_invariance(s.alg, s.m, lambda: flat(next(elts)), 1)
    assert report == {
        "checked": 1,
        "failures": [{"inputs": ["X_a1*t^1", "X_ma1*t^-1 + c", "c"],
                      "lhs": "4", "rhs": "0"}],
    }


# -- autos -------------------------------------------------------------------


def test_exact_sequence_section_and_kernel_failures():
    """A lift that disagrees with the loop action breaks the section and
    the kernel identity on every sample."""
    s = a1_session("exactseq")
    x = flat(parse_affine("H_1*t^-2 + X_a1*t^1", s.alg, s.m).loop)
    report = verify_exact_sequence(s.alg, s.m, [LoopOnlyDoubling()],
                                   lambda: x, 1)
    assert report == {
        "checked": 5,
        "failures": [
            {"part": "section", "generator": "double",
             "inputs": ["H_1*t^-2 + X_a1*t^1"],
             "lhs": "H_1*t^-2 + X_a1*t^1",
             "rhs": "2*H_1*t^-2 + 2*X_a1*t^1"},
            {"part": "kernel", "generator": "double",
             "inputs": ["H_1*t^-2 + X_a1*t^1"],
             "lhs": "H_1*t^-2 + X_a1*t^1",
             "rhs": "2*H_1*t^-2 + 2*X_a1*t^1"},
        ],
    }


def test_exact_sequence_kernel_recovery_failure(monkeypatch):
    """A v-shift that moves d by 2a c reads back 2a, not a."""
    s = a1_session("exactseq")

    real = VShift.act
    monkeypatch.setattr(VShift, "act", lambda self, f, loop=False:
                        real(VShift((2 * self.a[0], 2 * self.a[1])), f, loop))
    x = flat(parse_affine("X_a1*t^1", s.alg, s.m).loop)
    report = verify_exact_sequence(s.alg, s.m, [Doubling()], lambda: x, 1)
    assert report == {
        "checked": 5,
        "failures": [
            {"part": "kernel-recovery", "generator": "double",
             "inputs": ["a=1"], "lhs": "2", "rhs": "1"},
            {"part": "kernel-recovery", "generator": "double",
             "inputs": ["a=-3"], "lhs": "-6", "rhs": "-3"},
        ],
    }


# -- cli suites --------------------------------------------------------------


def test_form_gram_rank_failure(monkeypatch):
    """A Gram rank one short of the window size fails all three windows."""
    monkeypatch.setattr(cli, "window_gram_rank",
                        lambda window: window.size() - 1)
    report = cli.suite_form(a1_session("form", "--samples", "1"))
    assert report == {
        "checked": 4,
        "failures": [
            {"inputs": ["window [-1,1]"], "lhs": "10", "rhs": "11"},
            {"inputs": ["window [-2,2]"], "lhs": "16", "rhs": "17"},
            {"inputs": ["window [-3,3]"], "lhs": "22", "rhs": "23"},
        ],
        "gram": [{"window": [-1, 1], "rank": 10, "size": 11},
                 {"window": [-2, 2], "rank": 16, "size": 17},
                 {"window": [-3, 3], "rank": 22, "size": 23}],
    }


def test_lifts_automorphism_failure(monkeypatch):
    """x -> 2x fails phi([x, y]) = [phi(x), phi(y)] at every level."""
    session = a1_session("lifts", "--samples", "10")
    monkeypatch.setattr(session, "generator_kinds", lambda: [Doubling()])
    report = cli.suite_lifts(session)
    assert report == {
        "checked": 5,
        "failures": [
            {"part": "automorphism:loop:double",
             "inputs": ["H_1*t^-1 - 4*H_1*t^2",
                        "-5*X_ma1*t^-1 - 4*X_ma1*t^3"],
             "lhs": "20*X_ma1*t^-2 - 80*X_ma1*t^1 + 16*X_ma1*t^2"
                    " - 64*X_ma1*t^5",
             "rhs": "40*X_ma1*t^-2 - 160*X_ma1*t^1 + 32*X_ma1*t^2"
                    " - 128*X_ma1*t^5"},
            {"part": "automorphism:tilde:double",
             "inputs": ["-5*H_1*t^1 + X_a1*t^-3", "-4*H_1*t^-3 - 5*X_a1*t^1"],
             "lhs": "16*X_a1*t^-6 + 100*X_a1*t^2",
             "rhs": "32*X_a1*t^-6 + 200*X_a1*t^2"},
            {"part": "automorphism:hat:double",
             "inputs": ["5*X_ma1*t^-2 - 4*X_ma1*t^3 + 4*c - 5*d",
                        "-5*H_1*t^-3 + X_ma1*t^1 + 3*c - 3*d"],
             "lhs": "-150*H_1*t^-3 - 100*X_ma1*t^-5 - 60*X_ma1*t^-2"
                    " + 80*X_ma1*t^0 - 10*X_ma1*t^1 - 72*X_ma1*t^3",
             "rhs": "-150*H_1*t^-3 - 200*X_ma1*t^-5 - 60*X_ma1*t^-2"
                    " + 160*X_ma1*t^0 - 10*X_ma1*t^1 - 72*X_ma1*t^3"},
        ],
    }


def test_lifts_cochar_correction_failure(monkeypatch):
    """A cochar lift without its central correction leaves H_1 alone."""
    session = a1_session("lifts", "--samples", "10")
    monkeypatch.setattr(session, "generator_kinds", lambda: [])
    monkeypatch.setattr(Cochar, "_central_correction",
                        lambda self, terms: (0, 0))
    report = cli.suite_lifts(session)
    assert report == {
        "checked": 2,
        "failures": [{"part": "cochar-correction", "inputs": ["H_1*t^0"],
                      "lhs": "H_1*t^0", "rhs": "H_1*t^0 + 4*c"}],
    }


def test_lifts_cochar_derivation_failure(monkeypatch):
    """A cochar lift that fixes d misses d -> d - X_phi."""
    session = a1_session("lifts", "--samples", "10")
    monkeypatch.setattr(session, "generator_kinds", lambda: [])

    real = Cochar.act

    def fixes_d(self, f, loop=False):
        terms, c, _ = real(self, (f[0], f[1], None), loop)
        return terms, c, f[2]

    monkeypatch.setattr(Cochar, "act", fixes_d)
    report = cli.suite_lifts(session)
    assert report == {
        "checked": 2,
        "failures": [{"part": "cochar-derivation", "inputs": ["d"],
                      "lhs": "d", "rhs": "d - 1/2*H_1"}],
    }


# -- spectral ----------------------------------------------------------------


def test_shift_failures():
    """Without H_1 t^-2 in A_-2, its shifts are not in A_-2 and the
    dimensions along the series disagree."""
    report = verify_shift(rebuilt(a1_decomp(), dropping("-2", "H_1*t^-2")))
    assert report == {
        "checked": 68,
        "failures": [
            {"inputs": ["-2", "-1"], "lhs": "1", "rhs": "2"},
            {"inputs": ["H_1*t^-1", "n=-1"], "lhs": "H_1*t^-2",
             "rhs": "A_-2"},
            {"inputs": ["-1", "-2"], "lhs": "2", "rhs": "1"},
            {"inputs": ["H_1*t^0", "n=-2"], "lhs": "H_1*t^-2",
             "rhs": "A_-2"},
            {"inputs": ["H_1*t^1", "n=-3"], "lhs": "H_1*t^-2",
             "rhs": "A_-2"},
            {"inputs": ["H_1*t^2", "n=-4"], "lhs": "H_1*t^-2",
             "rhs": "A_-2"},
        ],
    }


def test_opposite_orthogonality_failure():
    """Relabelling A_3 as weight 5 leaves both 5 and -3 without an
    opposite, and X_a1 t pairs with X_-a1 t^-1 across weights 5 and -3."""
    def edit(w, vectors):
        return rational(5 if w == "3" else w), vectors

    report = verify_opposite(rebuilt(a1_decomp(), edit))
    assert report == {
        "checked": 255,
        "failures": [
            {"inputs": ["-3"], "lhs": "dim 1",
             "rhs": "missing opposite weight"},
            {"inputs": ["5"], "lhs": "dim 1",
             "rhs": "missing opposite weight"},
            {"inputs": ["X_ma1*t^-1", "X_a1*t^1"], "lhs": "4", "rhs": "0"},
            {"inputs": ["X_a1*t^1", "X_ma1*t^-1"], "lhs": "4", "rhs": "0"},
        ],
    }


def test_opposite_pairs_c_with_d_across_weights():
    """Moving d from A_0 into a weight 7 of its own leaves 7 without an
    opposite, and c pairs with d across weights 0 and 7: (c, d) = 1.  The
    count is every cross-weight pair, as if each had been paired."""
    decomp = a1_decomp()
    spaces = [WeightSpace(sp.w, [v for v in sp.vectors if not v[2]])
              for sp in decomp.spaces]
    spaces.append(WeightSpace((7, 0), [decomp.space((0, 0)).vectors[-1]]))
    report = verify_opposite(WeightDecomp(
        decomp.x, decomp.window, spaces, decomp.complete, decomp.interior))
    pairs = sum(sp1.dim * sp2.dim for sp1 in spaces for sp2 in spaces
                if sp1.w[0] + sp2.w[0] or sp1.w[1] + sp2.w[1])
    assert report == {
        "checked": len(spaces) + pairs,
        "failures": [
            {"inputs": ["7"], "lhs": "dim 1",
             "rhs": "missing opposite weight"},
            {"inputs": ["c", "d"], "lhs": "1", "rhs": "0"},
            {"inputs": ["d", "c"], "lhs": "1", "rhs": "0"},
        ],
    }


def test_zero_weight_failure():
    """Without A_0 the conclusion check fails and lists the weights."""
    def edit(w, vectors):
        return None if w == "0" else (rational(w), vectors)

    report = verify_zero_weight(rebuilt(a1_decomp(), edit))
    assert report == {
        "checked": 1,
        "failures": [{"inputs": ["H_1*t^0 + d"], "lhs": "A_0 = 0",
                      "rhs": ["-4", "-3", "-2", "-1", "1", "2", "3", "4"]}],
    }


def test_product_rule_failure():
    """Without X_a1 t^-2 in A_0, the brackets that land on it fail."""
    report = verify_product_rule(
        rebuilt(a1_decomp(), dropping("0", "X_a1*t^-2")))
    assert report == {
        "checked": 168,
        "failures": [
            {"inputs": ["H_1*t^-2", "X_a1*t^0"], "lhs": "2*X_a1*t^-2",
             "rhs": "A_0"},
            {"inputs": ["H_1*t^-1", "X_a1*t^-1"], "lhs": "2*X_a1*t^-2",
             "rhs": "A_0"},
            {"inputs": ["X_a1*t^-1", "H_1*t^-1"], "lhs": "-2*X_a1*t^-2",
             "rhs": "A_0"},
            {"inputs": ["X_a1*t^0", "H_1*t^-2"], "lhs": "-2*X_a1*t^-2",
             "rhs": "A_0"},
        ],
    }


def test_rspan_dimension_failure():
    """Without H_1 t^-2 in A_-2, dim A_-2 differs from dim A_-1."""
    report = rspan_isomorphism_check(
        rebuilt(a1_decomp(), dropping("-2", "H_1*t^-2")))
    assert report == {
        "checked": 7,
        "failures": [{"inputs": ["-2", "-1"], "lhs": "1", "rhs": "2"}],
    }


def test_rspan_series_count_failure():
    """Nine weights in nine classes mod 1 exceed dim g = 3 series."""
    weights = iter(range(9))

    def edit(w, vectors):
        return rational(Fraction(next(weights), 10)), vectors

    report = rspan_isomorphism_check(rebuilt(a1_decomp(), edit))
    assert report == {
        "checked": 1,
        "failures": [{"inputs": ["series count"], "lhs": "9",
                      "rhs": "<= 3"}],
    }

