"""MAD predicates, the standard subalgebra, centralizers, conjugacy."""

import random
from fractions import Fraction

import pytest

from affinelie.affine import AffineElt
from affinelie.autos import (AutoWord, Cochar, Ring, RootExp, TorusK, VShift,
                             v_auto)
from affinelie.loop import LoopElt, Window
from affinelie.parsing import parse_affine
from affinelie.mad import (SubalgebraSpec, centralizer, conjugacy_verify,
                           is_diagonalizable, mad_sanity, maximality_probe,
                           standard_mad)
from affinelie.scalars import CycScalar, LaurentElt


class TestSubalgebraSpec:
    def test_non_abelian_rejected(self, a1):
        x = AffineElt(LoopElt.monomial(a1, 1, 1, 0))
        y = AffineElt(LoopElt.monomial(a1, 1, 2, 0))
        with pytest.raises(ValueError):
            SubalgebraSpec([x, y])

    def test_dim_counts_span(self, a1, a1_id):
        win = Window(a1_id, -2, 2)
        c = AffineElt.c_elt(a1, 1)
        spec = SubalgebraSpec([c, c.scale(2)])
        assert spec.span_solver(win).rank == 1


class TestStandardMad:
    def test_dimensions(self, a1_id, a2_id, a2_flip):
        for auto, expect in ((a1_id, 3), (a2_flip, 3), (a2_id, 4)):
            win = Window(auto, -2 * auto.m, 2 * auto.m)
            assert standard_mad(auto).span_solver(win).rank == expect

    def test_dim_is_rank_of_fixed_cartan_plus_two(self, a1_id, a2_id, a2_flip, d4_triality):
        from affinelie.rootsys import cartan_of_fixed
        for auto in (a1_id, a2_id, a2_flip, d4_triality):
            win = Window(auto, -auto.m, auto.m)
            h0, _ = cartan_of_fixed(auto)
            dim = standard_mad(auto).span_solver(win).rank
            assert dim == len(h0) + 2
            assert dim >= 3

    def test_diagonalizable_with_joint_weights(self, a1, a1_id):
        win = Window(a1_id, -3, 3)
        flag, data = is_diagonalizable(standard_mad(a1_id), win)
        assert flag
        # joint weights carry (alpha-value, degree) information: the basis
        # line X (x) t at weights (2, 1) for generators (H, c, d)
        found = set()
        for weights, vectors in data["eigenbasis"]:
            for _ in vectors:
                found.add(tuple(a for a, _ in weights))
        assert (Fraction(2), Fraction(0), Fraction(1)) in found

    def test_sanity(self, a1_id, a2_id, a2_flip):
        for auto in (a1_id, a2_flip, a2_id):
            win = Window(auto, -2 * auto.m, 2 * auto.m)
            ref = standard_mad(auto)
            rep = mad_sanity(ref, win, ref.span_solver(win))
            assert rep["failures"] == [], rep["checks"]


class TestDiagonalizability:
    def test_nilpotent_generator_fails(self, a1, a1_id):
        win = Window(a1_id, -2, 2)
        spec = SubalgebraSpec([AffineElt(LoopElt.monomial(a1, 1, 1, 0))])
        flag, witness = is_diagonalizable(spec, win)
        assert not flag
        assert "defective_generator" in witness

    def test_reach_one_family_reports_a_defect(self, a1, a1_id):
        # a reach-1 generator: its interior kernel vectors are eigenvectors
        # only if they also vanish on the window rows outside the joint
        # interior, so the family is reported defective, never lifted
        x = parse_affine("H_1*t^0 + X_a1*t^1 + d", a1, 1)
        spec = SubalgebraSpec([x, AffineElt.c_elt(a1, 1)])
        flag, witness = is_diagonalizable(spec, Window(a1_id, -3, 3))
        assert not flag
        assert witness == {"defective_generator": x.render()}

    def test_center_alone(self, a1, a1_id):
        win = Window(a1_id, -2, 2)
        flag, data = is_diagonalizable(SubalgebraSpec([AffineElt.c_elt(a1, 1)]), win)
        assert flag
        for weights, _ in data["eigenbasis"]:
            assert all(w == (0, 0) for w in weights)


class TestMaximalityProbe:
    def test_dim2_fails_with_explicit_enlargement(self, a1, a1_id):
        # <c, H (x) 1 + d> is enlarged by the zero-weight vector H (x) 1,
        # the constructive step of the dimension bound
        win = Window(a1_id, -3, 3)
        x = AffineElt(LoopElt.monomial(a1, 1, 0, 0), d=1)
        spec = SubalgebraSpec([AffineElt.c_elt(a1, 1), x])
        rep = mad_sanity(spec, win, spec.span_solver(win))
        assert rep["failures"]
        checks = rep["checks"]
        assert not checks["dim_at_least_3"]
        assert checks["probe_enlargement"] is not None
        witness = checks["probe_enlargement"]
        assert "H_1" in witness

    def test_standard_minus_one_generator_fails_probe(self, a2, a2_id):
        # dropping an h_0 generator from the standard subalgebra leaves a
        # commuting diagonalizable direction for the probe to find
        win = Window(a2_id, -2, 2)
        gens = [AffineElt(LoopElt.monomial(a2, 1, 0, 0)),
                AffineElt.c_elt(a2, 1), AffineElt.d_elt(a2, 1)]
        spec = SubalgebraSpec(gens)
        witness = maximality_probe(spec, win, spec.span_solver(win))
        assert witness is not None

    def test_standard_mad_survives_probe(self, a2_flip):
        win = Window(a2_flip, -4, 4)
        ref = standard_mad(a2_flip)
        assert maximality_probe(ref, win, ref.span_solver(win)) is None

    def test_non_diagonalizable_input_rejected(self, a1, a1_id):
        win = Window(a1_id, -2, 2)
        spec = SubalgebraSpec([AffineElt(LoopElt.monomial(a1, 1, 1, 0))])
        with pytest.raises(ValueError):
            maximality_probe(spec, win, spec.span_solver(win))


class TestCentralizer:
    def test_h0_centralizer_is_cartan_slice(self, a1, a1_id):
        win = Window(a1_id, -3, 3)
        cen = centralizer([LoopElt.monomial(a1, 1, 0, 0)], win)
        assert len(cen) == 7
        for v in cen:
            assert set(v.coords) == {0}

    def test_twisted_h0_centralizer(self, a2, a2_flip):
        win = Window(a2_flip, -4, 4)
        h0 = LoopElt(a2, 2, {0: LaurentElt.one(2), 1: LaurentElt.one(2)})
        cen = centralizer([h0], win)
        # h cap twisted: h_0 at even degrees, anti-fixed Cartan at odd
        assert len(cen) == 9
        for v in cen:
            assert set(v.coords) <= {0, 1}

    def test_empty_family_is_everything(self, a1, a1_id):
        win = Window(a1_id, -1, 1)
        cen = centralizer([LoopElt.zero(a1, 1)], win)
        assert len(cen) == 9


class TestConjugacy:
    def rand_word(self, alg, m, rng, length=3):
        roots = sorted(alg.root_of_index.values())
        gens = []
        for _ in range(length):
            k = rng.randrange(5)
            if k == 0:
                gens.append(RootExp(alg, m, roots[rng.randrange(len(roots))],
                                    {0: (rng.randint(1, 2), 0)}))
            elif k == 1:
                phi = [0] * alg.rank
                phi[rng.randrange(alg.rank)] = rng.choice([1, -1])
                gens.append(Cochar(alg, tuple(phi)))
            elif k == 2:
                gens.append(TorusK(alg, tuple((rng.choice([2, 3]), 0)
                                              for _ in range(alg.rank))))
            elif k == 3:
                gens.append(Ring((rng.choice([2, -1]), 0), rng.choice([1, -1])))
            else:
                gens.append(VShift((rng.randint(-2, 2), 0)))
        return AutoWord("hat", tuple(gens))

    def test_identity_on_standard(self, a1_id):
        win = Window(a1_id, -3, 3)
        ref = standard_mad(a1_id)
        rep = conjugacy_verify(AutoWord("hat", ()), ref, win, ref,
                               ref.span_solver(win))
        assert rep["failures"] == []

    def test_round_trip_words(self, a1, a1_id):
        rng = random.Random(55)
        win = Window(a1_id, -3, 3)
        ref = standard_mad(a1_id)
        span = ref.span_solver(win)
        for _ in range(12):
            word = self.rand_word(a1, 1, rng)
            image = SubalgebraSpec([word.apply(g) for g in ref.generators])
            rep = conjugacy_verify(word.inverse(), image, win, ref, span)
            assert rep["failures"] == [], word.render()

    def test_twisted_round_trip(self, a2_flip):
        rng = random.Random(56)
        win = Window(a2_flip, -4, 4)
        ref = standard_mad(a2_flip)
        span = ref.span_solver(win)
        for _ in range(6):
            word = self.rand_word(a2_flip.alg, 2, rng)
            image = SubalgebraSpec([word.apply(g) for g in ref.generators])
            rep = conjugacy_verify(word.inverse(), image, win, ref, span)
            assert rep["failures"] == [], word.render()

    def test_v_auto_image_equals_standard_directly(self, a1, a1_id):
        # the center absorbs a v-shift: v_a(H) spans H itself
        win = Window(a1_id, -3, 3)
        ref = standard_mad(a1_id)
        image = SubalgebraSpec([v_auto((4, 0)).apply(g)
                                for g in ref.generators])
        rep = conjugacy_verify(AutoWord("hat", ()), image, win, ref,
                               ref.span_solver(win))
        assert rep["failures"] == []

    def test_wrong_word_detected(self, a1, a1_id):
        win = Window(a1_id, -3, 3)
        ref = standard_mad(a1_id)
        alpha = a1.root_of_index[1]
        word = AutoWord("hat", (RootExp(a1, 1, alpha, {0: (1, 0)}),))
        image = SubalgebraSpec([word.apply(g) for g in ref.generators])
        # applying the same word again does not return to the standard MAD
        rep = conjugacy_verify(word, image, win, ref, ref.span_solver(win))
        assert rep["failures"]


class TestInvariantsUnderWords:
    def test_hat_words_scale_center(self, a1, a1_id):
        rng = random.Random(60)
        c = AffineElt.c_elt(a1, 1)
        for _ in range(15):
            word = TestConjugacy().rand_word(a1, 1, rng)
            img = word.apply(c)
            assert img.loop.is_zero() and not img.d
            assert img.c in (CycScalar(1, 1), CycScalar(1, -1))

    def test_only_ring_inversion_negates_center(self, a1):
        riw = AutoWord("hat", (Ring((1, 0), -1),))
        c = AffineElt.c_elt(a1, 1)
        assert riw.apply(c) == c.scale(-1)
        other = AutoWord("hat", (Cochar(a1, (1,)), VShift((2, 0))))
        assert other.apply(c) == c

    def test_conjugated_mad_keeps_predicates(self, a1, a1_id):
        rng = random.Random(61)
        win = Window(a1_id, -3, 3)
        ref = standard_mad(a1_id)
        for _ in range(5):
            word = TestConjugacy().rand_word(a1, 1, rng, length=2)
            image = SubalgebraSpec([word.apply(g) for g in ref.generators])
            flag, _ = is_diagonalizable(image, win)
            assert flag
