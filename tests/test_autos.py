"""Automorphism generators, their lifts through the central extension and
derivation, the kernel family, and the exact-sequence identities.
"""

import functools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from affinelie.affine import AffineElt, bracket_affine, flat, unflat
from affinelie.autos import (LEVELS, AutoWord, Cochar, Diagram, NilExp, Ring,
                             RootExp, TorusK, VShift, hat_lift, tilde_lift,
                             v_auto, verify_automorphism,
                             verify_exact_sequence)
from affinelie.loop import LoopElt
from affinelie.parsing import parse_algebra_file
from affinelie.scalars import (ZETA, CycScalar, LaurentElt, pair_inv, pair_mul,
                               pair_of, table_products)

from conftest import flattened, g_loop, make_affine_sampler, make_loop_sampler


@pytest.fixture
def sl2(a1):
    alpha = a1.root_of_index[a1.label_index["X_a1"]]
    return a1, alpha


class TestRootExp:
    def test_fixes_own_root_vector(self, sl2):
        a1, alpha = sl2
        gen = RootExp(a1, 1, alpha, {0: (1, 0)})
        x = LoopElt.monomial(a1, 1, 1, 0)
        assert AutoWord("loop", (gen,)).apply(x) == x

    def test_on_cartan(self, sl2):
        # exp(ad X)(H) = H - 2X: ad X kills X and sends H to -2X
        a1, alpha = sl2
        gen = RootExp(a1, 1, alpha, {0: (1, 0)})
        h = LoopElt.monomial(a1, 1, 0, 0)
        expected = h + LoopElt.monomial(a1, 1, 1, 0, -2)
        assert AutoWord("loop", (gen,)).apply(h) == expected

    def test_full_nilpotent_series(self, sl2):
        # oracle: expand exp(u ad X)(Y) = Y + u H - u^2 X term by term
        a1, alpha = sl2
        u = LaurentElt.s_power(1, 2, 3)
        gen = RootExp(a1, 1, alpha, {2: (3, 0)})
        y = LoopElt.monomial(a1, 1, 2, 0)
        z = LoopElt(a1, 1, {1: u})
        term1 = z.bracket(y)
        term2 = z.bracket(term1).scale(Fraction(1, 2))
        term3 = z.bracket(term2)
        assert term3.is_zero()
        assert AutoWord("loop", (gen,)).apply(y) == y + term1 + term2

    def test_group_law(self, sl2):
        a1, alpha = sl2
        word = AutoWord("loop", (RootExp(a1, 1, alpha, {-1: (2, 0)}),
                                 RootExp(a1, 1, alpha, {-1: (-2, 0)})))
        for idx in range(a1.dim):
            for deg in (-2, 0, 1):
                v = LoopElt.monomial(a1, 1, idx, deg)
                assert word.apply(v) == v

    def test_hat_level_includes_cocycle(self, sl2):
        # exp at hat level fixes c and never produces d
        a1, alpha = sl2
        word = AutoWord("hat", (RootExp(a1, 1, alpha, {1: (1, 0)}),))
        c = AffineElt.c_elt(a1, 1)
        assert word.apply(c) == c
        y = AffineElt(LoopElt.monomial(a1, 1, 2, -1))
        img = word.apply(y)
        assert not img.d
        # c-part appears exactly when the pairing hits degree zero
        assert img.c == CycScalar(1, 4)


class TestNilExp:
    def test_matches_root_exp_on_single_line(self, sl2):
        a1, alpha = sl2
        re = AutoWord("loop", (RootExp(a1, 1, alpha, {1: (3, 0)}),))
        ne = AutoWord("loop", (NilExp(a1, 1, {(1, 1): (3, 0)}),))
        for idx in range(a1.dim):
            for deg in (-2, 0, 1):
                v = LoopElt.monomial(a1, 1, idx, deg)
                assert re.apply(v) == ne.apply(v)

    def test_orbit_sum_is_twisted_automorphism(self, a2_flip):
        # exp of a fixed-subalgebra nilpotent preserves the twisted algebra
        from affinelie.loop import is_in_twisted
        from affinelie.rootsys import sigma_eigenspaces
        from affinelie.loop import Window
        alg, m = a2_flip.alg, 2
        fixed = sigma_eigenspaces(a2_flip)[0]
        nil = next(e for e in fixed
                   if all(i >= alg.rank and sum(alg.root_of_index[i]) > 0
                          for i in e))
        gen = NilExp(alg, m, flat(g_loop(alg, m, nil))[0])
        rng = random.Random(71)
        win = Window(a2_flip, -2, 2)
        for b in win.basis[:win.c_slot]:
            img = AutoWord("loop", (gen,)).apply(b.loop)
            assert is_in_twisted(img, a2_flip)
        sample = make_affine_sampler(alg, m, rng)
        rep = verify_automorphism(alg, m, AutoWord("hat", (gen,)),
                                  flattened(sample), 30)
        assert rep["failures"] == []

    def test_inverse(self, a2):
        gen = NilExp(a2, 1, {(a2.label_index["X_a1"], 1): (1, 0),
                             (a2.label_index["X_a2"], -1): (2, 0)})
        word = AutoWord("hat", (gen, gen.inverse()))
        rng = random.Random(72)
        sample = make_affine_sampler(a2, 1, rng)
        for _ in range(15):
            x = sample()
            assert word.apply(x) == x

    def test_cartan_part_rejected(self, a1):
        with pytest.raises(ValueError):
            NilExp(a1, 1, {(0, 0): (1, 0)})

    def test_non_nilpotent_rejected(self, a1):
        # X + Y is semisimple: the series cannot terminate
        gen = NilExp(a1, 1, {(1, 0): (1, 0), (2, 0): (1, 0)})
        with pytest.raises(ValueError):
            AutoWord("loop", (gen,)).apply(LoopElt.monomial(a1, 1, 0, 0))


class TestCochar:
    def test_shifts_root_lines_only(self, a1):
        co = AutoWord("loop", (Cochar(a1, (1,)),))
        x = LoopElt.monomial(a1, 1, 1, 0)
        assert co.apply(x) == LoopElt.monomial(a1, 1, 1, 1)
        h3 = LoopElt.monomial(a1, 1, 0, 3)
        assert co.apply(h3) == h3

    def test_additive_on_roots(self, a2):
        co = AutoWord("loop", (Cochar(a2, (1, -2)),))
        theta = a2.index_of_root[(1, 1)]
        x = LoopElt.monomial(a2, 1, theta, 0)
        assert co.apply(x) == LoopElt.monomial(a2, 1, theta, -1)

    def test_bracket_compatibility(self, a2):
        rng = random.Random(5)
        sample = make_loop_sampler(a2, 1, rng)
        word = AutoWord("loop", (Cochar(a2, (1, 0)),))
        rep = verify_automorphism(a2, 1, word, flattened(sample), 40)
        assert rep["failures"] == []


class TestTildeLift:
    def test_cochar_central_correction(self, a1):
        # H (x) 1 gains phi(alpha) <X_alpha, X_-alpha> c = 4c
        word = tilde_lift(AutoWord("loop", (Cochar(a1, (1,)),)))
        h = AffineElt(LoopElt.monomial(a1, 1, 0, 0))
        assert word.apply(h) == AffineElt(h.loop, c=4)

    def test_cochar_no_correction_off_degree_zero(self, a1):
        word = tilde_lift(AutoWord("loop", (Cochar(a1, (1,)),)))
        h = AffineElt(LoopElt.monomial(a1, 1, 0, 1))
        assert word.apply(h) == h

    def test_cochar_correction_on_composite_coroot(self, a2):
        # the correction is linear: the coroot of the highest root gains
        # phi(theta) <X_theta, X_-theta> c
        from conftest import oracle_killing
        phi = (1, -2)
        word = tilde_lift(AutoWord("loop", (Cochar(a2, phi),)))
        theta = (1, 1)
        h_theta = (LoopElt.monomial(a2, 1, 0, 0)
                   + LoopElt.monomial(a2, 1, 1, 0))
        pair = oracle_killing(a2, a2.index_of_root[theta],
                              a2.index_of_root[(-1, -1)])
        expected_c = CycScalar(1, (phi[0] + phi[1]) * pair)
        assert word.apply(AffineElt(h_theta)) == AffineElt(h_theta, c=expected_c)

    def test_root_exp_fixes_center(self, sl2):
        a1, alpha = sl2
        word = tilde_lift(AutoWord("loop", (RootExp(a1, 1, alpha, {0: (1, 0)}),)))
        c = AffineElt.c_elt(a1, 1)
        assert word.apply(c) == c

    def test_projection_section(self, a1):
        # projecting the tilde lift back to loop level recovers the word
        rng = random.Random(8)
        sample = make_loop_sampler(a1, 1, rng)
        loop_word = AutoWord("loop", (Cochar(a1, (1,)),))
        tword = tilde_lift(loop_word)
        for _ in range(25):
            x = sample()
            assert tword.apply(AffineElt(x)).loop == loop_word.apply(x)


class TestHatLift:
    def test_cochar_derivation_correction(self, a1):
        # d -> d - X_phi with X_phi = H/2 for phi(alpha) = 1
        word = hat_lift(tilde_lift(AutoWord("loop", (Cochar(a1, (1,)),))))
        d = AffineElt.d_elt(a1, 1)
        img = word.apply(d)
        expected_loop = LoopElt(a1, 1, {0: LaurentElt.from_scalar(CycScalar(1, Fraction(-1, 2)))})
        assert img == AffineElt(expected_loop, d=1)

    def test_x_phi_solves_defining_equation(self, a2):
        # the inverse, made once X_phi is solved, is handed -X_phi
        co = Cochar(a2, (2, -1))
        co.x_phi()
        for gen in (co, co.inverse()):
            xphi = gen.x_phi()
            for idx, root in a2.root_of_index.items():
                v = gen.value(root)
                want = {(idx, 0): (v, 0)} if v else {}
                assert table_products(a2.table, xphi, {(idx, 0): (1, 0)}) == want

    def test_x_phi_unique_in_cartan(self, a2):
        # the Cartan matrix is invertible, so two solutions cannot differ
        co = Cochar(a2, (1, 1))
        x1 = co.x_phi()
        alt = Cochar(a2, (1, 1)).x_phi()
        assert x1 == alt

    def test_diagram_fixes_d(self, a2, a2_flip):
        word = AutoWord("hat", (Diagram(a2_flip),))
        d = AffineElt.d_elt(a2, 2)
        assert word.apply(d) == d

    def test_ring_inversion_negates_d_and_c(self, a1):
        word = AutoWord("hat", (Ring((1, 0), -1),))
        assert word.apply(AffineElt.d_elt(a1, 1)) == AffineElt.d_elt(a1, 1, -1)
        assert word.apply(AffineElt.c_elt(a1, 1)) == AffineElt.c_elt(a1, 1, -1)

    def test_ring_scale_fixes_d(self, a1):
        word = AutoWord("hat", (Ring((5, 0), 1),))
        assert word.apply(AffineElt.d_elt(a1, 1)) == AffineElt.d_elt(a1, 1)


class TestGeneratorConstants:
    """Each generator computes its constants once and reuses them."""

    def test_cochar_solves_once_per_instance(self, monkeypatch, capsys):
        from pathlib import Path
        from affinelie import cli, linalg
        solves, made = [], []
        solve, init = linalg.solve, Cochar.__init__

        def counted_solve(mat, rhs):
            solves.append(rhs)
            return solve(mat, rhs)

        def counted_init(self, alg, phi):
            made.append(self)
            init(self, alg, phi)

        monkeypatch.setattr(linalg, "solve", counted_solve)
        monkeypatch.setattr(Cochar, "__init__", counted_init)
        algebras = Path(__file__).resolve().parent.parent / "algebras"
        assert cli.main(["verify", "lifts", "--algebra",
                         str(algebras / "a2.alg")]) == 0
        capsys.readouterr()
        # the lift checks read the cochar of the session's generators
        assert len(made) == len(solves) == 1
        # exactseq inverts the cochar: one solve serves phi and -phi
        solves.clear()
        made.clear()
        assert cli.main(["verify", "exactseq", "--seed", "1", "--algebra",
                         str(algebras / "a2_twisted.alg")]) == 0
        capsys.readouterr()
        pm = {frozenset((co.phi, tuple(-v for v in co.phi))) for co in made}
        assert len(made) == 2 and len(pm) == len(solves) == 1

    def test_cochar_without_cartan_solution_raises_on_first_call(self):
        from types import SimpleNamespace
        # a singular Cartan matrix: 2x - 2y = 1 and -x + y = 0 disagree
        alg = SimpleNamespace(rank=2, datum=SimpleNamespace(
            cartan=[[2, -2], [-1, 1]]))
        co = Cochar(alg, (1, 0))
        for _ in range(2):
            with pytest.raises(ValueError, match="no Cartan solution"):
                co.x_phi()

    def test_cochar_x_phi_is_that_of_a_fresh_instance(self, a2):
        co = Cochar(a2, (2, -1))
        first = co.x_phi()
        assert co.x_phi() is first
        assert first == Cochar(a2, (2, -1)).x_phi()
        assert co.inverse().x_phi() == Cochar(a2, (-2, 1)).x_phi()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_torus_and_ring_applied_twice_match_fresh(self, a2, m):
        rng = random.Random(m)
        sample = make_affine_sampler(a2, m, rng, lo=-3 * m, hi=3 * m, terms=4)
        gens = [lambda: TorusK(a2, ((2, 0), pair_of(CycScalar(m, 3, 1)))),
                lambda: Ring(pair_of(CycScalar(m, 2, 1)), 1),
                lambda: Ring((Fraction(1, 2), 0), -1)]
        for make in gens:
            gen = make()
            for _ in range(2):
                for _ in range(5):
                    x = sample()
                    assert (AutoWord("hat", (gen,)).apply(x)
                            == AutoWord("hat", (make(),)).apply(x))


class TestVAuto:
    def test_zero_is_identity(self, a1):
        rng = random.Random(12)
        sample = make_affine_sampler(a1, 1, rng)
        word = v_auto((0, 0))
        for _ in range(20):
            x = sample()
            assert word.apply(x) == x

    def test_shifts_d_fixes_core(self, a1):
        word = v_auto((1, 0))
        d = AffineElt.d_elt(a1, 1)
        assert word.apply(d) == AffineElt(LoopElt.zero(a1, 1), c=1, d=1)
        xt = AffineElt(LoopElt.monomial(a1, 1, 1, 1))
        assert word.apply(xt) == xt

    def test_bracket_compatibility(self, a1):
        rng = random.Random(13)
        sample = make_affine_sampler(a1, 1, rng)
        rep = verify_automorphism(a1, 1, v_auto((7, 0)),
                                  flattened(sample), 50)
        assert rep["failures"] == []

    def test_only_at_hat_level(self, a1):
        with pytest.raises(ValueError):
            AutoWord("tilde", (VShift((1, 0)),))


class TestWords:
    def all_kind_word(self, a1, rng):
        alpha = a1.root_of_index[1]
        return AutoWord("hat", (
            RootExp(a1, 1, alpha, {rng.randint(-1, 1): (2, 0)}),
            Cochar(a1, (rng.choice([-1, 1]),)),
            TorusK(a1, ((rng.choice([2, 3, Fraction(1, 2)]), 0),)),
            Ring((rng.choice([2, -1]), 0), rng.choice([1, -1])),
            VShift((rng.randint(-2, 2), 0)),
        ))

    def test_every_kind_is_an_automorphism(self, a1):
        rng = random.Random(21)
        sample = make_affine_sampler(a1, 1, rng)
        for _ in range(10):
            word = self.all_kind_word(a1, rng)
            rep = verify_automorphism(a1, 1, word, flattened(sample), 20)
            assert rep["failures"] == [], word.render()

    def test_inverse_round_trip(self, a1):
        rng = random.Random(22)
        sample = make_affine_sampler(a1, 1, rng)
        for _ in range(10):
            word = self.all_kind_word(a1, rng)
            inv = word.inverse()
            for _ in range(5):
                x = sample()
                assert inv.apply(word.apply(x)) == x
                assert word.apply(inv.apply(x)) == x

    def test_corrupted_sign_detected(self, a1):
        # negative control: a wrong sign in a diagram map breaks the check
        class BadGen(Diagram):
            def act(self, f, loop=False):
                terms, c, d = super().act(f, loop)
                if len({i for i, _ in terms}) == 1:
                    terms = {key: (-a, -b) for key, (a, b) in terms.items()}
                return terms, c, d
        from affinelie.rootsys import build_diagram_auto
        bad = AutoWord("loop", (BadGen(build_diagram_auto(a1, (0,))),))
        rng = random.Random(30)
        sample = make_loop_sampler(a1, 1, rng, terms=1)
        rep = verify_automorphism(a1, 1, bad, flattened(sample), 50)
        assert rep["failures"], "corrupted generator must fail verification"

    def test_composition_order(self, a1):
        # f . g applies g first
        co = Cochar(a1, (1,))
        ring = Ring((2, 0), 1)
        word = AutoWord("loop", (co, ring))
        x = LoopElt.monomial(a1, 1, 1, 1)
        by_hand = AutoWord("loop", (co,)).apply(AutoWord("loop", (ring,)).apply(x))
        assert word.apply(x) == by_hand

    def test_gamma_conjugation(self, a2_flip):
        # conjugating by the Galois generator keeps automorphism words exact
        m = 2
        alg = a2_flip.alg
        rng = random.Random(33)
        sample = make_affine_sampler(alg, m, rng)
        gens = (Diagram(a2_flip), Cochar(alg, (1, 0)))
        zeta = ZETA[m]
        tw = AutoWord("hat", (Ring(zeta, 1), *gens, Ring(zeta, 1).inverse()))
        rep = verify_automorphism(alg, m, tw, flattened(sample), 25)
        assert rep["failures"] == []

    def test_diagram_and_galois_commute(self, a2_flip):
        m = 2
        alg = a2_flip.alg
        zhat = AutoWord("hat", (Ring(ZETA[m], 1),))
        phat = AutoWord("hat", (Diagram(a2_flip),))
        rng = random.Random(34)
        sample = make_affine_sampler(alg, m, rng)
        for _ in range(30):
            x = sample()
            assert zhat.apply(phat.apply(x)) == phat.apply(zhat.apply(x))


class TestExactSequence:
    def test_identities(self, a1):
        rng = random.Random(40)
        sample = make_loop_sampler(a1, 1, rng)
        alpha = a1.root_of_index[1]
        gens = [RootExp(a1, 1, alpha, {1: (2, 0)}),
                Cochar(a1, (1,)),
                TorusK(a1, ((2, 0),)),
                Ring((3, 0), 1),
                Ring((1, 0), -1)]
        rep = verify_exact_sequence(a1, 1, gens, flattened(sample), 20)
        assert rep["failures"] == []

    def test_v_auto_invisible_at_loop_level(self, a1):
        rng = random.Random(41)
        sample = make_loop_sampler(a1, 1, rng)
        word = v_auto((5, 0))
        for _ in range(20):
            x = sample()
            assert word.apply(AffineElt(x)).loop == x

    def test_core_fixing_word_shift_recovered_from_d(self, a1):
        word = v_auto((-3, 0))
        d = AffineElt.d_elt(a1, 1)
        assert word.apply(d).c == CycScalar(1, -3)

    def test_hat_restricts_to_tilde_on_core(self, a1):
        # on elements with zero d-part the hat lift agrees with the tilde lift
        rng = random.Random(44)
        sample = make_loop_sampler(a1, 1, rng)
        alpha = a1.root_of_index[1]
        for gen in (RootExp(a1, 1, alpha, {1: (1, 0)}),
                    Cochar(a1, (1,)), Ring((2, 0), 1), Ring((1, 0), -1)):
            tword = tilde_lift(AutoWord("loop", (gen,)))
            hword = hat_lift(tword)
            for _ in range(15):
                x = AffineElt(sample(), c=rng.randint(-3, 3))
                assert hword.apply(x) == tword.apply(x)


class TestTorusFactorization:
    def test_torus_point_equals_product_of_unipotents(self, sl2):
        # h_alpha(a) = n_alpha(a) n_alpha(-1) acts on X_beta by a^<beta,av>
        a1, alpha = sl2
        nroot = tuple(-c for c in alpha)
        aval = (2, 0)

        def n_word(t):
            inv = pair_inv(t)
            return [RootExp(a1, 1, alpha, {0: t}),
                    RootExp(a1, 1, nroot, {0: (-inv[0], -inv[1])}),
                    RootExp(a1, 1, alpha, {0: t})]

        unipotent = AutoWord("loop", tuple(n_word(aval) + n_word((-1, 0))))
        torus = AutoWord("loop", (TorusK(a1, (pair_mul(aval, aval),)),))
        for idx in range(a1.dim):
            for deg in (-1, 0, 2):
                v = LoopElt.monomial(a1, 1, idx, deg)
                assert unipotent.apply(v) == torus.apply(v)


# -- flat actions against the object actions they replaced ---------------------

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"
FLAT_ALGEBRAS = ["a1", "a2", "a2_twisted", "a3_twisted", "d4_triality"]


@functools.cache
def shipped(name):
    return parse_algebra_file((ALGEBRAS / f"{name}.alg").read_text())


def ref_map_root_lines(x, f):
    alg = x.alg
    return LoopElt(alg, x.m, {
        i: p if i < alg.rank else f(alg.root_of_index[i], p)
        for i, p in x.coords.items()})


def ref_exp(gen, x, bracket):
    total = term = x
    n, cap = 0, 2 * gen.alg.dim + 2
    while True:
        n += 1
        if n > cap:
            raise ValueError("exponential series did not terminate")
        term = bracket(term)
        if term.is_zero():
            return total
        total = total + term.scale(Fraction(1, math.factorial(n)))


def ref_central_correction(gen, x):
    total = CycScalar.zero(x.m)
    for i in range(gen.alg.rank):
        coef = x.coords[i].terms.get(0) if i in x.coords else None
        if coef:
            total = total + coef * (gen.phi[i] * gen.alg.simple_pairing(i))
    return total


def ref_loop(gen, x):
    """Each generator's loop action on elements, as written before the flat
    actions replaced it."""
    if isinstance(gen, NilExp):
        return ref_exp(gen, x, unflat(x.alg, x.m, (gen.z, None, None)).loop.bracket)
    if isinstance(gen, Diagram):
        return x.permuted(gen.auto.index_image)
    if isinstance(gen, Cochar):
        return ref_map_root_lines(x, lambda root, p: p.shift(gen.value(root)))
    if isinstance(gen, TorusK):
        return ref_map_root_lines(x, lambda root, p: p.scale(math.prod(
            (CycScalar(x.m, *t) ** c for c, t in zip(root, gen.coords)),
            start=CycScalar.one(x.m))))
    if isinstance(gen, Ring):
        a = CycScalar(x.m, *gen.a)
        return LoopElt(x.alg, x.m, {i: p.substitute(a, gen.e == -1)
                                    for i, p in x.coords.items()})
    assert isinstance(gen, VShift)
    return x


def ref_affine(gen, x):
    """Each generator's tilde and hat lift on elements, as written before
    the flat actions replaced it."""
    if isinstance(gen, NilExp):
        zhat = unflat(x.alg, x.m, (gen.z, None, None))
        return ref_exp(gen, x, lambda y: bracket_affine(zhat, y))
    if isinstance(gen, Cochar):
        loop = ref_loop(gen, x.loop)
        if x.d:
            x_phi = unflat(x.alg, x.m, (gen.x_phi(), None, None)).loop
            loop = loop - x_phi.scale(x.d)
        return AffineElt(loop, x.c + ref_central_correction(gen, x.loop), x.d)
    if isinstance(gen, Ring) and gen.e == -1:
        return AffineElt(ref_loop(gen, x.loop), -x.c, -x.d)
    if isinstance(gen, VShift):
        return AffineElt(x.loop, x.c + CycScalar(x.m, *gen.a) * x.d, x.d)
    return AffineElt(ref_loop(gen, x.loop), x.c, x.d)


def rationals(m):
    """Small ints and halves, and for m = 3 elements with a zeta part."""
    part = st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)])
    return st.builds(CycScalar, st.just(m), part, part if m == 3 else st.just(0))


KINDS = ["rootexp", "nilexp", "cochar", "torus", "ring", "diagram", "vshift"]


@st.composite
def generator_and_element(draw, kind, level):
    """A generator of the given kind on one of FLAT_ALGEBRAS and an element
    for the given level: up to five monomials, with c (and d at hat level)."""
    alg, auto = shipped(draw(st.sampled_from(FLAT_ALGEBRAS)))
    m = auto.m
    nonzero = rationals(m).filter(bool)
    positive = [i for i, r in alg.root_of_index.items() if sum(r) > 0]
    if kind == "rootexp":
        gen = RootExp(alg, m, alg.root_of_index[draw(st.sampled_from(positive))],
                      {draw(st.integers(-2, 2)): pair_of(draw(nonzero))})
    elif kind == "nilexp":
        # a sum of positive root vectors is ad-nilpotent
        lines = draw(st.lists(st.sampled_from(positive), min_size=1,
                              max_size=3, unique=True))
        gen = NilExp(alg, m, {(i, draw(st.integers(-1, 1))): pair_of(draw(nonzero))
                              for i in lines})
    elif kind == "cochar":
        gen = Cochar(alg, draw(st.lists(st.integers(-2, 2), min_size=alg.rank,
                                        max_size=alg.rank)))
    elif kind == "torus":
        gen = TorusK(alg, tuple(map(pair_of, draw(st.lists(
            nonzero, min_size=alg.rank, max_size=alg.rank)))))
    elif kind == "ring":
        gen = Ring(pair_of(draw(nonzero)), draw(st.sampled_from([1, -1])))
    elif kind == "diagram":
        gen = Diagram(auto)
    else:
        gen = VShift(pair_of(draw(rationals(m))))
    terms = draw(st.lists(st.tuples(st.integers(0, alg.dim - 1),
                                    st.integers(-4, 4), rationals(m)),
                          max_size=5))
    loop = LoopElt.zero(alg, m)
    for i, p, coef in terms:
        loop = loop + LoopElt.monomial(alg, m, i, p, coef)
    if level == "loop":
        return gen, loop
    c = draw(rationals(m))
    d = draw(rationals(m)) if level == "hat" else 0
    return gen, AffineElt(loop, c, d)


def exact_parts(f):
    """Every part of a flat form's pairs: ints when integral, no zero pair."""
    terms, c, d = f
    pairs = list(terms.values()) + [v for v in (c, d) if v is not None]
    assert all(a or b for a, b in pairs)
    return all(type(q) is int or q.denominator != 1
               for pair in pairs for q in pair)


class TestFlatActions:
    """Each generator's `act` on flat forms equals its object action before
    the flat actions (`ref_loop`, `ref_affine`), on every kind and level."""

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_flat_action_is_the_object_action(self, kind, level, data):
        gen, x = data.draw(generator_and_element(kind, level))
        loop = level == "loop"
        out = gen.act(flat(x), loop)
        assert exact_parts(out)
        expected = ref_loop(gen, x) if loop else ref_affine(gen, x)
        assert out == flat(expected)
        if not (loop and kind == "vshift"):  # a v-shift word is hat-level only
            word = AutoWord("hat" if kind == "vshift" else level, (gen,))
            assert word.apply(x) == expected

    def test_root_exp_with_non_integral_series_terms(self, sl2):
        # z = X t/2 on Y t^-1 + d: the n = 2 term (ad z)^2 Y t^-1 / 2! =
        # -X t/4 and [z, d] = -X t/2 sum to -3/4 X t
        a1, alpha = sl2
        gen = RootExp(a1, 1, alpha, {1: (Fraction(1, 2), 0)})
        x = AffineElt(LoopElt.monomial(a1, 1, 2, -1), d=1)
        out = gen.act(flat(x))
        assert exact_parts(out)
        assert out == flat(ref_affine(gen, x))
        assert out[0][a1.label_index["X_a1"], 1] == (Fraction(-3, 4), 0)
