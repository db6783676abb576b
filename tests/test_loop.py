"""Loop algebra bracket and the twisted subalgebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affinelie.affine import AffineElt, bracket_affine
from affinelie.autos import AutoWord, Diagram
from affinelie.loop import LoopElt, Window, gamma_twist, is_in_twisted
from affinelie.rootsys import build_chevalley, sigma_eigenspaces
from affinelie.scalars import (CycScalar, LaurentElt, _add_pair, add_into,
                               add_products, pair_terms, table_products)
from affinelie import linalg

from conftest import g_loop, g_slice, make_loop_sampler

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


def loop_basis(auto, lo, hi, context=None):
    """The loop parts of a window basis: the basis e (x) s^j of L(g, sigma)."""
    win = Window(auto, lo, hi, context)
    return [b.loop for b in win.basis[:win.c_slot]]


class TestTwisted:
    def test_split_window_count(self, a1, a1_id):
        assert len(loop_basis(a1_id, -1, 1)) == 9

    def test_a2_flip_window_counts(self, a2_flip):
        basis = loop_basis(a2_flip, 0, 1)
        assert len(basis) == 3 + 5
        for v in basis:
            assert is_in_twisted(v, a2_flip)

    def test_m1_reproduces_whole_algebra(self, a2, a2_id):
        basis = loop_basis(a2_id, -2, 2)
        assert len(basis) == a2.dim * 5
        for v in basis:
            assert is_in_twisted(v, a2_id)

    def test_membership_examples(self, a2_flip):
        spaces = sigma_eigenspaces(a2_flip)
        fixed = spaces[0][0]
        anti = spaces[1][0]
        alg = a2_flip.alg
        assert is_in_twisted(g_loop(alg, 2, fixed, 0), a2_flip)
        assert is_in_twisted(g_loop(alg, 2, anti, 1), a2_flip)
        assert not is_in_twisted(g_loop(alg, 2, anti, 0), a2_flip)

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
        inner = loop_basis(a2_flip, -2, 2, a2_flip_ctx)
        outer = loop_basis(a2_flip, -4, 4, a2_flip_ctx)
        m = 2
        index = {}
        for i, v in enumerate(outer):
            j = min(v.degree_support())
            index.setdefault(j, []).append(i)

        def vectorize(x):
            vec = {}
            for j in sorted(x.degree_support()):
                coords = a2_flip_ctx.decompose_slice(g_slice(x, j), j)
                assert coords is not None, "bracket left the twisted algebra"
                for pos, coef in coords.items():
                    vec[index[j][pos]] = coef
            return vec

        solver = linalg.SpanSolver()
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
        basis = loop_basis(d4_triality, 0, 2)
        assert len(basis) == 14 + 7 + 7
        for v in basis:
            assert is_in_twisted(v, d4_triality)


class TestDegreeAction:
    def test_numerator_eigenvalue(self, a1):
        v = LoopElt.monomial(a1, 2, 1, 3)
        d = AffineElt.d_elt(a1, 2)
        assert bracket_affine(d, AffineElt(v)) == AffineElt(v.scale(3))

    def test_slice(self, a1):
        # the g-vector of s^2 is read from the (index, degree) pair terms
        x = LoopElt(a1, 1, {0: LaurentElt(1, {2: 5}), 1: LaurentElt(1, {2: 1, 0: 7})})
        assert pair_terms(x.coords) == {(0, 2): (5, 0), (1, 2): (1, 0),
                                        (1, 0): (7, 0)}
        assert g_slice(x, 2) == {0: (5, 0), 1: (1, 0)}


# -- the sparse arithmetic of loop elements and g-vectors ----------------------

def degree_zero(x, p):
    """The s^p coefficients of a LoopElt as degree-0 pair terms."""
    return {(i, 0): c for i, c in g_slice(x, p).items()}


def explicit_diagram_apply(auto, g):
    """The diagram automorphism on pair terms, b_i -> sign * b_j, each
    image summed into a fresh map."""
    out = {}
    for (i, p), (a, b) in g.items():
        j, s = auto.index_image(i)
        _add_pair(out, (j, p), s * a, s * b)
    return out


def explicit_diagram_on_loop(auto, x):
    """`autos.Diagram` on a loop element as written before the shared
    `permuted`."""
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
    return all(c and all(c.terms.values()) for c in x.coords.values())


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
        image = AutoWord("loop", (Diagram(auto),)).apply(x)
        assert zero_free(image)
        assert image == explicit_diagram_on_loop(auto, x)

        # g-vectors as degree-0 pair terms: sums by `add_products`, the
        # bracket by `table_products`, the diagram by its flat action
        for degree in (-1, 0, 1):
            g, h = degree_zero(x, degree), degree_zero(y, degree)
            total, diff = dict(g), dict(g)
            add_products(total, (1, 0), h)
            add_products(diff, (-1, 0), h)
            assert total == degree_zero(x + y, degree)
            assert diff == degree_zero(x - y, degree)
            image = Diagram(auto).act((g, None, None), True)[0]
            for result in (total, diff, table_products(auto.alg.table, g, h),
                           image):
                assert all(a or b for a, b in result.values())
            assert image == explicit_diagram_apply(auto, g)


# -- the pair kernel under every bracket ---------------------------------------

def zeta_product(c, d):
    """c*d in Q(zeta_m) with zeta^2 = -1 - zeta, written out here so that
    the reference does not share the package's product rule."""
    return CycScalar(c.m, c.a * d.a - c.b * d.b,
                     c.a * d.b + c.b * d.a - c.b * d.b)


def reference_bracket(x, y):
    """`LoopElt.bracket` as a sum of products on scalar objects: each
    term the product ci*cj, then times N_ij^k, then added."""
    m, out = x.m, {}
    for i, ci in x.coords.items():
        for j, cj in y.coords.items():
            cij = {}
            for p, a in ci.terms.items():
                for q, b in cj.terms.items():
                    add_into(cij, p + q, zeta_product(a, b))
            for k, n in x.alg.table.get((i, j), {}).items():
                for p, c in cij.items():
                    add_into(out, (k, p), zeta_product(c, CycScalar(m, n)))
    coords = {}
    for (k, p), c in out.items():
        coords.setdefault(k, {})[p] = c
    return LoopElt(x.alg, m, {k: LaurentElt(m, t) for k, t in coords.items()})


def scalar_parts(x):
    """(index, degree, type of a, type of b) of every stored scalar of x."""
    return sorted(((i, p, type(s.a), type(s.b)) for i, c in x.coords.items()
                   for p, s in c.terms.items()), key=repr)


def tampered_a2():
    """A2 with one structure constant doubled, as `tampered_session` in
    test_cli.py changes it: the kernel must read the table it is given."""
    alg = build_chevalley("A", 2)
    key = min(alg.table)
    row = dict(alg.table[key])
    row[min(row)] *= 2
    alg.table = {**alg.table, key: row}
    return alg


# int parts, and halves and thirds whose sums may come back to an int
PARTS = st.one_of(st.integers(-2, 2), st.sampled_from(
    [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2)]))
ALGEBRAS = {"a2": build_chevalley("A", 2), "d4": build_chevalley("D", 4),
            "a2_tampered": tampered_a2()}


class TestPairKernel:
    """LoopElt brackets, and `table_products` on degree-0 g-vectors, on
    pairs against the sum of products."""

    @staticmethod
    def element(data, alg, m, loop):
        # a Cartan line, a root, its neighbour and its negative, so that
        # brackets both meet the table and cancel
        root = alg.root_of_index[alg.rank]
        picks = [0, alg.rank, alg.rank + 1,
                 alg.index_of_root[tuple(-c for c in root)]]
        terms = data.draw(st.lists(st.tuples(
            st.sampled_from(picks), st.integers(-1, 1), PARTS,
            PARTS if m == 3 else st.just(0)), max_size=4))
        out = LoopElt.zero(alg, m)
        for i, p, a, b in terms:
            out = out + LoopElt.monomial(alg, m, i, p if loop else 0,
                                         CycScalar(m, a, b))
        return out

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("loop", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bracket_matches_sum_of_products(self, name, m, loop, data):
        alg = ALGEBRAS[name]
        x = self.element(data, alg, m, loop)
        y = self.element(data, alg, m, loop)
        expected = reference_bracket(x, y)
        if not loop:
            got = table_products(alg.table, pair_terms(x.coords),
                                 pair_terms(y.coords))
            assert got == pair_terms(expected.coords)
            assert all(a or b for a, b in got.values())
            return
        got = x.bracket(y)
        assert type(got) is LoopElt
        assert got == expected
        assert scalar_parts(got) == scalar_parts(expected)
        assert zero_free(got)
