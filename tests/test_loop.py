"""Loop algebra bracket and the twisted subalgebra."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from affinelie.autos import Diagram
from affinelie.loop import (LoopElt, gamma_twist, is_in_twisted,
                            twisted_basis)
from affinelie.rootsys import GElt, build_chevalley, sigma_eigenspaces
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


# -- the shared sparse arithmetic of GElt and LoopElt -------------------------

def explicit_diagram_apply(auto, x):
    """`DiagramAuto.apply` as written before the shared `permuted`."""
    out = {}
    for i, c in x.coords.items():
        if i < auto.alg.rank:
            j, s = auto.perm[i], 1
        else:
            root = auto.alg.root_of_index[i]
            j = auto.alg.index_of_root[auto.root_image[root]]
            s = auto.signs[root]
        term = c if s == 1 else -c
        acc = out.get(j)
        acc = term if acc is None else acc + term
        if acc:
            out[j] = acc
        elif j in out:
            del out[j]
    return GElt(x.alg, x.m, out)


def explicit_diagram_apply_loop(auto, x):
    """`autos.Diagram.apply_loop` as written before the shared `permuted`."""
    out = {}
    for i, p in x.coords.items():
        j, s = auto.index_image(i)
        q = p if s == 1 else -p
        acc = out.get(j)
        acc = q if acc is None else acc + q
        if acc:
            out[j] = acc
        elif j in out:
            del out[j]
    return LoopElt(x.alg, x.m, out)


def explicit_gamma_twist(x, auto):
    """`loop.gamma_twist` as written before the shared `permuted`."""
    inv = auto.inverse()
    out = {}
    for i, p in x.coords.items():
        j, s = inv.index_image(i)
        q = p.zeta_scale()
        if s == -1:
            q = -q
        acc = out.get(j)
        acc = q if acc is None else acc + q
        if acc:
            out[j] = acc
        elif j in out:
            del out[j]
    return LoopElt(x.alg, x.m, out)


def zero_free(x):
    """No stored coefficient of x is zero, nor any Laurent term of one."""
    return all(c and (not isinstance(c, LaurentElt) or all(c.terms.values()))
               for c in x.coords.values())


def summed(pairs, zero):
    """{key: sum of values} with zero sums dropped at the end."""
    out = {}
    for key, value in pairs:
        out[key] = out.get(key, zero) + value
    return {key: value for key, value in out.items() if value}


class TestSharedArithmetic:
    """+, -, bracket and the signed permutation on small random elements.

    Supports are drawn from few indices, degrees and coefficients so that
    sums and brackets cancel often."""

    @staticmethod
    def loop_elt(data, auto):
        alg, m = auto.alg, auto.m
        # indices of a Cartan line, a root and its image, so that both
        # the bracket and the permutation have something to cancel
        picks = sorted({0, alg.rank, auto.index_image(alg.rank)[0],
                        alg.index_of_root[tuple(-c for c in
                                                alg.root_of_index[alg.rank])]})
        zeta = st.integers(-1, 1) if m == 3 else st.just(0)
        terms = data.draw(st.lists(st.tuples(
            st.sampled_from(picks), st.integers(-1, 1),
            st.integers(-1, 1), zeta), max_size=5))
        coords = {}
        for i, p, a, b in terms:
            coords[i] = coords.get(i, LaurentElt.zero(m)) + LaurentElt.s_power(
                m, p, CycScalar(m, a, b))
        return LoopElt(alg, m, coords)

    @pytest.mark.parametrize("auto_name", ["a1_id", "a2_flip", "d4_triality"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_results_store_no_zero(self, request, auto_name, data):
        auto = request.getfixturevalue(auto_name)
        m = auto.m
        x = self.loop_elt(data, auto)
        y = self.loop_elt(data, auto)
        lzero = LaurentElt.zero(m)
        both = [*x.coords.items(), *y.coords.items()]
        assert (x + y).coords == summed(both, lzero)
        assert (x - y).coords == summed(
            [*x.coords.items(), *((i, -p) for i, p in y.coords.items())], lzero)
        assert (x + (-x)).coords == {}
        for result in (x + y, x - y, x.bracket(y), y.bracket(x)):
            assert zero_free(result)

        # a signed map that sends every index to one of two targets
        fold = (lambda i: (i % 2, 1 if i % 3 else -1))
        folded = x.permuted(fold)
        assert zero_free(folded)
        assert folded.coords == summed(
            ((i % 2, p if i % 3 else -p) for i, p in x.coords.items()), lzero)

        twisted = gamma_twist(x, auto)
        assert zero_free(twisted)
        assert twisted == explicit_gamma_twist(x, auto)
        image = Diagram(auto).apply_loop(x)
        assert zero_free(image)
        assert image == explicit_diagram_apply_loop(auto, x)

        for degree in (-1, 0, 1):
            g, h = x.slice(degree), y.slice(degree)
            czero = CycScalar.zero(m)
            assert (g + h).coords == summed([*g.coords.items(),
                                             *h.coords.items()], czero)
            for result in (g + h, g - h, g.bracket(h), auto.apply(g)):
                assert zero_free(result)
            assert auto.apply(g) == explicit_diagram_apply(auto, g)
