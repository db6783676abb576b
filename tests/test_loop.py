"""Loop algebra bracket and the twisted subalgebra."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from affinelie.loop import (LoopElt, gamma_twist, is_in_twisted,
                            twisted_basis)
from affinelie.rootsys import build_chevalley, sigma_eigenspaces
from affinelie.scalars import CycScalar, LaurentElt
from affinelie import linalg

from conftest import make_loop_sampler

_sl2 = build_chevalley("A", 1)


def sl2_loop_elements():
    term = st.tuples(st.integers(0, 2), st.integers(-3, 3), st.integers(-4, 4))
    return st.builds(
        lambda terms: sum(
            (LoopElt.monomial(_sl2, 1, i, p, c) for i, p, c in terms),
            LoopElt.zero(_sl2, 1)),
        st.lists(term, max_size=3))


class TestBracket:
    def test_cartan_action_degree_zero(self, a1):
        h = LoopElt.monomial(a1, 1, 0, 0)
        xt = LoopElt.monomial(a1, 1, 1, 1)
        assert h.bracket(xt) == LoopElt.monomial(a1, 1, 1, 1, 2)

    def test_exponents_cancel(self, a1):
        xs = LoopElt.monomial(a1, 1, 1, 1)
        ys = LoopElt.monomial(a1, 1, 2, -1)
        assert xs.bracket(ys) == LoopElt.monomial(a1, 1, 0, 0)

    def test_algebra_mismatch(self, a1, a2):
        with pytest.raises(ValueError):
            LoopElt.monomial(a1, 1, 0, 0).bracket(LoopElt.monomial(a2, 1, 0, 0))

    def test_antisymmetry_and_jacobi_random(self, a2):
        rng = random.Random(9)
        sample = make_loop_sampler(a2, 1, rng, lo=-3, hi=3)
        for _ in range(60):
            x, y, z = sample(), sample(), sample()
            assert (x.bracket(y) + y.bracket(x)).is_zero()
            total = (x.bracket(y.bracket(z)) + y.bracket(z.bracket(x))
                     + z.bracket(x.bracket(y)))
            assert total.is_zero()

    @given(x=sl2_loop_elements(), y=sl2_loop_elements(), z=sl2_loop_elements())
    @settings(max_examples=60)
    def test_lie_axioms_property(self, x, y, z):
        assert (x.bracket(y) + y.bracket(x)).is_zero()
        total = (x.bracket(y.bracket(z)) + y.bracket(z.bracket(x))
                 + z.bracket(x.bracket(y)))
        assert total.is_zero()

    @given(x=sl2_loop_elements(), y=sl2_loop_elements())
    @settings(max_examples=40)
    def test_bilinearity_property(self, x, y):
        two = CycScalar(1, 2)
        assert x.scale(two).bracket(y) == x.bracket(y).scale(two)
        assert (x + y).bracket(y) == x.bracket(y) + y.bracket(y)


class TestTwisted:
    def test_split_window_count(self, a1, a1_id):
        assert len(twisted_basis(a1_id, -1, 1)) == 9

    def test_a2_flip_window_counts(self, a2_flip):
        assert len(twisted_basis(a2_flip, 0, 1)) == 3 + 5

    def test_m1_reproduces_whole_algebra(self, a2, a2_id):
        basis = twisted_basis(a2_id, -2, 2)
        assert len(basis) == a2.dim * 5
        for v in basis:
            assert is_in_twisted(v, a2_id)

    def test_membership_examples(self, a2_flip):
        spaces = sigma_eigenspaces(a2_flip)
        fixed = spaces[0][0]
        anti = spaces[1][0]
        assert is_in_twisted(LoopElt.from_g(fixed, 0), a2_flip)
        assert is_in_twisted(LoopElt.from_g(anti, 1), a2_flip)
        assert not is_in_twisted(LoopElt.from_g(anti, 0), a2_flip)

    def test_twist_generator_has_order_m(self, a2_flip):
        rng = random.Random(4)
        sample = make_loop_sampler(a2_flip.alg, 2, rng, lo=-3, hi=3)
        for _ in range(20):
            x = sample()
            y = x
            for _ in range(2):
                y = gamma_twist(y, a2_flip)
            assert y == x

    def test_closure_under_bracket(self, a2_flip, a2_flip_ctx):
        # brackets of window vectors re-expand exactly in a larger window
        inner = twisted_basis(a2_flip, -2, 2, a2_flip_ctx)
        outer = twisted_basis(a2_flip, -4, 4, a2_flip_ctx)
        m = 2
        index = {}
        for i, v in enumerate(outer):
            j = min(v.degree_support())
            index.setdefault(j, []).append(i)

        def vectorize(x):
            vec = {}
            for j in sorted(x.degree_support()):
                coords = a2_flip_ctx.decompose_slice(x.slice(j), j)
                assert coords is not None, "bracket left the twisted algebra"
                for pos, coef in coords.items():
                    vec[index[j][pos]] = coef
            return vec

        solver = linalg.SpanSolver(m)
        for v in outer:
            solver.add(vectorize(v))
        for u in inner:
            for v in inner:
                w = u.bracket(v)
                if w.is_zero():
                    continue
                assert is_in_twisted(w, a2_flip)
                assert solver.contains(vectorize(w))

    def test_d4_triality_window(self, d4_triality):
        basis = twisted_basis(d4_triality, 0, 2)
        assert len(basis) == 14 + 7 + 7
        for v in basis:
            assert is_in_twisted(v, d4_triality)


class TestDegreeAction:
    def test_numerator_eigenvalue(self, a1):
        v = LoopElt.monomial(a1, 2, 1, 3)
        assert v.degree_action() == v.scale(3)

    def test_slice(self, a1):
        x = LoopElt(a1, 1, {0: LaurentElt(1, {2: 5}), 1: LaurentElt(1, {2: 1, 0: 7})})
        s = x.slice(2)
        assert s.coords == {0: CycScalar(1, 5), 1: CycScalar(1, 1)}
