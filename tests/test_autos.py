"""Automorphism generators, their lifts through the central extension and
derivation, the kernel family, and the exact-sequence identities.
"""

import random
from fractions import Fraction

import pytest

from affinelie.affine import AffineElt
from affinelie.autos import (AutoWord, Cochar, Diagram, NilExp, Ring, RootExp,
                             TorusK, VShift, hat_lift, tilde_lift, v_auto,
                             verify_automorphism, verify_exact_sequence)
from affinelie.loop import LoopElt
from affinelie.rootsys import GElt
from affinelie.scalars import CycScalar, LaurentElt

from conftest import make_affine_sampler, make_loop_sampler


@pytest.fixture
def sl2(a1):
    alpha = a1.root_of_index[a1.label_index["X_a1"]]
    return a1, alpha


class TestRootExp:
    def test_fixes_own_root_vector(self, sl2):
        a1, alpha = sl2
        gen = RootExp(a1, alpha, LaurentElt.one(1))
        x = LoopElt.monomial(a1, 1, 1, 0)
        assert gen.apply_loop(x) == x

    def test_on_cartan(self, sl2):
        # exp(ad X)(H) = H - 2X: ad X kills X and sends H to -2X
        a1, alpha = sl2
        gen = RootExp(a1, alpha, LaurentElt.one(1))
        h = LoopElt.monomial(a1, 1, 0, 0)
        expected = h + LoopElt.monomial(a1, 1, 1, 0, -2)
        assert gen.apply_loop(h) == expected

    def test_full_nilpotent_series(self, sl2):
        # oracle: expand exp(u ad X)(Y) = Y + u H - u^2 X term by term
        a1, alpha = sl2
        u = LaurentElt.s_power(1, 2, 3)
        gen = RootExp(a1, alpha, u)
        y = LoopElt.monomial(a1, 1, 2, 0)
        z = LoopElt(a1, 1, {1: u})
        term1 = z.bracket(y)
        term2 = z.bracket(term1).scale(Fraction(1, 2))
        term3 = z.bracket(term2)
        assert term3.is_zero()
        assert gen.apply_loop(y) == y + term1 + term2

    def test_group_law(self, sl2):
        a1, alpha = sl2
        u = LaurentElt.s_power(1, -1, 2)
        word = AutoWord("loop", (RootExp(a1, alpha, u), RootExp(a1, alpha, -u)))
        for idx in range(a1.dim):
            for deg in (-2, 0, 1):
                v = LoopElt.monomial(a1, 1, idx, deg)
                assert word.apply(v) == v

    def test_hat_level_includes_cocycle(self, sl2):
        # exp at hat level fixes c and never produces d
        a1, alpha = sl2
        gen = RootExp(a1, alpha, LaurentElt.s_power(1, 1))
        c = AffineElt.c_elt(a1, 1)
        assert gen.apply_affine(c) == c
        y = AffineElt(LoopElt.monomial(a1, 1, 2, -1))
        img = gen.apply_affine(y)
        assert not img.d
        # c-part appears exactly when the pairing hits degree zero
        assert img.c == CycScalar(1, 4)


class TestNilExp:
    def test_matches_root_exp_on_single_line(self, sl2):
        a1, alpha = sl2
        u = LaurentElt.s_power(1, 1, 3)
        re = RootExp(a1, alpha, u)
        ne = NilExp(LoopElt(a1, 1, {1: u}))
        for idx in range(a1.dim):
            for deg in (-2, 0, 1):
                v = LoopElt.monomial(a1, 1, idx, deg)
                assert re.apply_loop(v) == ne.apply_loop(v)

    def test_orbit_sum_is_twisted_automorphism(self, a2_flip):
        # exp of a fixed-subalgebra nilpotent preserves the twisted algebra
        from affinelie.loop import is_in_twisted
        from affinelie.rootsys import sigma_eigenspaces
        from affinelie.spectral import Window
        alg, m = a2_flip.alg, 2
        fixed = sigma_eigenspaces(a2_flip)[0]
        nil = next(e for e in fixed
                   if all(i >= alg.rank and sum(alg.root_of_index[i]) > 0
                          for i in e.coords))
        gen = NilExp(LoopElt.from_g(nil, 0))
        rng = random.Random(71)
        win = Window(a2_flip, -2, 2)
        for b in win.basis[:win.c_slot]:
            img = gen.apply_loop(b.loop)
            assert is_in_twisted(img, a2_flip)
        sample = make_affine_sampler(alg, m, rng)
        rep = verify_automorphism(AutoWord("hat", (gen,)), sample, 30)
        assert rep["failures"] == []

    def test_inverse(self, a2):
        z = (LoopElt.monomial(a2, 1, a2.label_index["X_a1"], 1)
             + LoopElt.monomial(a2, 1, a2.label_index["X_a2"], -1, 2))
        gen = NilExp(z)
        word = AutoWord("hat", (gen, gen.inverse()))
        rng = random.Random(72)
        sample = make_affine_sampler(a2, 1, rng)
        for _ in range(15):
            x = sample()
            assert word.apply(x) == x

    def test_cartan_part_rejected(self, a1):
        with pytest.raises(ValueError):
            NilExp(LoopElt.monomial(a1, 1, 0, 0))

    def test_non_nilpotent_rejected(self, a1):
        # X + Y is semisimple: the series cannot terminate
        z = LoopElt.monomial(a1, 1, 1, 0) + LoopElt.monomial(a1, 1, 2, 0)
        with pytest.raises(ValueError):
            NilExp(z).apply_loop(LoopElt.monomial(a1, 1, 0, 0))


class TestCochar:
    def test_shifts_root_lines_only(self, a1):
        co = Cochar(a1, (1,))
        x = LoopElt.monomial(a1, 1, 1, 0)
        assert co.apply_loop(x) == LoopElt.monomial(a1, 1, 1, 1)
        h3 = LoopElt.monomial(a1, 1, 0, 3)
        assert co.apply_loop(h3) == h3

    def test_additive_on_roots(self, a2):
        co = Cochar(a2, (1, -2))
        theta = a2.index_of_root[(1, 1)]
        x = LoopElt.monomial(a2, 1, theta, 0)
        assert co.apply_loop(x) == LoopElt.monomial(a2, 1, theta, -1)

    def test_bracket_compatibility(self, a2):
        rng = random.Random(5)
        sample = make_loop_sampler(a2, 1, rng)
        word = AutoWord("loop", (Cochar(a2, (1, 0)),))
        rep = verify_automorphism(word, sample, 40)
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
        word = tilde_lift(AutoWord("loop", (RootExp(a1, alpha, LaurentElt.one(1)),)))
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
        co = Cochar(a2, (2, -1))
        xphi = co.x_phi(1)
        for idx, root in a2.root_of_index.items():
            want = GElt.basis(a2, 1, idx).scale(co.value(root))
            assert xphi.bracket(GElt.basis(a2, 1, idx)) == want

    def test_x_phi_unique_in_cartan(self, a2):
        # the Cartan matrix is invertible, so two solutions cannot differ
        co = Cochar(a2, (1, 1))
        x1 = co.x_phi(1)
        alt = Cochar(a2, (1, 1)).x_phi(1)
        assert x1 == alt

    def test_diagram_fixes_d(self, a2, a2_flip):
        word = AutoWord("hat", (Diagram(a2_flip),))
        d = AffineElt.d_elt(a2, 2)
        assert word.apply(d) == d

    def test_ring_inversion_negates_d_and_c(self, a1):
        word = AutoWord("hat", (Ring(CycScalar.one(1), -1),))
        assert word.apply(AffineElt.d_elt(a1, 1)) == AffineElt.d_elt(a1, 1, -1)
        assert word.apply(AffineElt.c_elt(a1, 1)) == AffineElt.c_elt(a1, 1, -1)

    def test_ring_scale_fixes_d(self, a1):
        word = AutoWord("hat", (Ring(CycScalar(1, 5), 1),))
        assert word.apply(AffineElt.d_elt(a1, 1)) == AffineElt.d_elt(a1, 1)


class TestGeneratorConstants:
    """Each generator computes its constants once and reuses them."""

    def test_cochar_solves_once_per_instance(self, monkeypatch, capsys):
        from pathlib import Path
        from affinelie import cli, linalg
        solves, made = [], []
        solve, init = linalg.solve, Cochar.__init__

        def counted_solve(mat, rhs, m):
            solves.append(m)
            return solve(mat, rhs, m)

        def counted_init(self, alg, phi):
            made.append(self)
            init(self, alg, phi)

        monkeypatch.setattr(linalg, "solve", counted_solve)
        monkeypatch.setattr(Cochar, "__init__", counted_init)
        alg_file = Path(__file__).resolve().parent.parent / "algebras" / "a2.alg"
        assert cli.main(["verify", "lifts", "--algebra", str(alg_file)]) == 0
        capsys.readouterr()
        assert made and len(solves) == len(made)

    def test_cochar_without_cartan_solution_raises_on_first_call(self):
        from types import SimpleNamespace
        # a singular Cartan matrix: 2x - 2y = 1 and -x + y = 0 disagree
        alg = SimpleNamespace(rank=2, datum=SimpleNamespace(
            cartan=[[2, -2], [-1, 1]]))
        co = Cochar(alg, (1, 0))
        for _ in range(2):
            with pytest.raises(ValueError, match="no Cartan solution"):
                co.x_phi(1)

    def test_cochar_x_phi_is_that_of_a_fresh_instance(self, a2):
        co = Cochar(a2, (2, -1))
        first = co.x_phi(1)
        assert co.x_phi(1) is first
        assert first == Cochar(a2, (2, -1)).x_phi(1)
        assert co.x_phi(3) == Cochar(a2, (2, -1)).x_phi(3)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_torus_and_ring_applied_twice_match_fresh(self, a2, m):
        rng = random.Random(m)
        sample = make_affine_sampler(a2, m, rng, lo=-3 * m, hi=3 * m, terms=4)
        gens = [lambda: TorusK(a2, (CycScalar(m, 2), CycScalar(m, 3, 1))),
                lambda: Ring(CycScalar(m, 2, 1), 1),
                lambda: Ring(CycScalar(m, Fraction(1, 2)), -1)]
        for make in gens:
            gen = make()
            for _ in range(2):
                for _ in range(5):
                    x = sample()
                    assert gen.apply_affine(x) == make().apply_affine(x)


class TestVAuto:
    def test_zero_is_identity(self, a1):
        rng = random.Random(12)
        sample = make_affine_sampler(a1, 1, rng)
        word = v_auto(CycScalar.zero(1))
        for _ in range(20):
            x = sample()
            assert word.apply(x) == x

    def test_shifts_d_fixes_core(self, a1):
        word = v_auto(CycScalar.one(1))
        d = AffineElt.d_elt(a1, 1)
        assert word.apply(d) == AffineElt(LoopElt.zero(a1, 1), c=1, d=1)
        xt = AffineElt(LoopElt.monomial(a1, 1, 1, 1))
        assert word.apply(xt) == xt

    def test_bracket_compatibility(self, a1):
        rng = random.Random(13)
        sample = make_affine_sampler(a1, 1, rng)
        rep = verify_automorphism(v_auto(CycScalar(1, 7)), sample, 50)
        assert rep["failures"] == []

    def test_only_at_hat_level(self, a1):
        with pytest.raises(ValueError):
            AutoWord("tilde", (VShift(CycScalar(1, 1)),))


class TestWords:
    def all_kind_word(self, a1, rng):
        alpha = a1.root_of_index[1]
        return AutoWord("hat", (
            RootExp(a1, alpha, LaurentElt.s_power(1, rng.randint(-1, 1), 2)),
            Cochar(a1, (rng.choice([-1, 1]),)),
            TorusK(a1, (CycScalar(1, rng.choice([2, 3, Fraction(1, 2)])),)),
            Ring(CycScalar(1, rng.choice([2, -1])), rng.choice([1, -1])),
            VShift(CycScalar(1, rng.randint(-2, 2))),
        ))

    def test_every_kind_is_an_automorphism(self, a1):
        rng = random.Random(21)
        sample = make_affine_sampler(a1, 1, rng)
        for _ in range(10):
            word = self.all_kind_word(a1, rng)
            rep = verify_automorphism(word, sample, 20)
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
            def apply_loop(self, x):
                out = super().apply_loop(x)
                flipped = {i: -p for i, p in out.coords.items()}
                return LoopElt(out.alg, out.m, flipped) if len(flipped) == 1 else out
        from affinelie.rootsys import build_diagram_auto
        bad = AutoWord("loop", (BadGen(build_diagram_auto(a1, (0,))),))
        rng = random.Random(30)
        sample = make_loop_sampler(a1, 1, rng, terms=1)
        rep = verify_automorphism(bad, sample, 50)
        assert rep["failures"], "corrupted generator must fail verification"

    def test_composition_order(self, a1):
        # f . g applies g first
        co = Cochar(a1, (1,))
        ring = Ring(CycScalar(1, 2), 1)
        word = AutoWord("loop", (co, ring))
        x = LoopElt.monomial(a1, 1, 1, 1)
        by_hand = co.apply_loop(ring.apply_loop(x))
        assert word.apply(x) == by_hand

    def test_gamma_conjugation(self, a2_flip):
        # conjugating by the Galois generator keeps automorphism words exact
        m = 2
        alg = a2_flip.alg
        rng = random.Random(33)
        sample = make_affine_sampler(alg, m, rng)
        gens = (Diagram(a2_flip), Cochar(alg, (1, 0)))
        zeta = CycScalar.zeta(m)
        tw = AutoWord("hat", (Ring(zeta, 1), *gens, Ring(zeta, 1).inverse()))
        rep = verify_automorphism(tw, sample, 25)
        assert rep["failures"] == []

    def test_diagram_and_galois_commute(self, a2_flip):
        m = 2
        alg = a2_flip.alg
        zhat = AutoWord("hat", (Ring(CycScalar.zeta(m), 1),))
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
        gens = [RootExp(a1, alpha, LaurentElt.s_power(1, 1, 2)),
                Cochar(a1, (1,)),
                TorusK(a1, (CycScalar(1, 2),)),
                Ring(CycScalar(1, 3), 1),
                Ring(CycScalar.one(1), -1)]
        rep = verify_exact_sequence(gens, sample, 20)
        assert rep["failures"] == []

    def test_v_auto_invisible_at_loop_level(self, a1):
        rng = random.Random(41)
        sample = make_loop_sampler(a1, 1, rng)
        word = v_auto(CycScalar(1, 5))
        for _ in range(20):
            x = sample()
            assert word.apply(AffineElt(x)).loop == x

    def test_core_fixing_word_shift_recovered_from_d(self, a1):
        a = CycScalar(1, -3)
        word = v_auto(a)
        d = AffineElt.d_elt(a1, 1)
        assert word.apply(d).c == a

    def test_hat_restricts_to_tilde_on_core(self, a1):
        # on elements with zero d-part the hat lift agrees with the tilde lift
        rng = random.Random(44)
        sample = make_loop_sampler(a1, 1, rng)
        alpha = a1.root_of_index[1]
        for gen in (RootExp(a1, alpha, LaurentElt.s_power(1, 1)),
                    Cochar(a1, (1,)), Ring(CycScalar(1, 2), 1),
                    Ring(CycScalar.one(1), -1)):
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
        aval = CycScalar(1, 2)

        def n_word(t):
            return [RootExp(a1, alpha, LaurentElt.from_scalar(t)),
                    RootExp(a1, nroot, LaurentElt.from_scalar(-t.inverse())),
                    RootExp(a1, alpha, LaurentElt.from_scalar(t))]

        unipotent = AutoWord("loop", tuple(n_word(aval) + n_word(-CycScalar.one(1))))
        torus = AutoWord("loop", (TorusK(a1, (aval * aval,)),))
        for idx in range(a1.dim):
            for deg in (-1, 0, 2):
                v = LoopElt.monomial(a1, 1, idx, deg)
                assert unipotent.apply(v) == torus.apply(v)
