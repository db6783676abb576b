"""Base field and Laurent arithmetic: worked examples plus ring laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affinelie.scalars import (CycScalar, LaurentElt, pair_mul,
                               table_products)


class TestCycScalar:
    def test_zeta3_times_zeta3_squared_is_one(self):
        z = CycScalar.zeta(3)
        assert z * (z * z) == CycScalar.one(3)

    def test_zeta3_square_reduces_mod_cyclotomic(self):
        z = CycScalar.zeta(3)
        assert z * z == CycScalar(3, -1, -1)

    def test_zeta2_square_is_one(self):
        z = CycScalar.zeta(2)
        assert z == CycScalar(2, -1)
        assert z * z == CycScalar.one(2)

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            CycScalar(2, 1) * CycScalar(3, 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_scalar_times_laurent_reaches_laurent(self, m):
        # CycScalar.__mul__ returns NotImplemented on a LaurentElt, so the
        # product falls through to LaurentElt.__rmul__ and commutes.
        c = CycScalar(m, 1, 2)
        p = LaurentElt(m, {-1: CycScalar(m, 3), 2: CycScalar.one(m)})
        assert c * p == p * c
        assert c * LaurentElt.one(m) == LaurentElt.one(m) * c
        other = 1 if m != 1 else 2
        with pytest.raises(ValueError):
            c * LaurentElt.one(other)

    def test_inverse(self):
        for a, b in [(2, 0), (Fraction(1, 3), 0), (1, 1), (Fraction(-2, 7), 3)]:
            x = CycScalar(3, a, b)
            assert x * x.inverse() == CycScalar.one(3)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            CycScalar.zero(3).inverse()

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            CycScalar(4, 1)

    def test_canonical_form_low_order(self):
        # zeta folds into the rational part for m = 1, 2
        assert CycScalar(1, 0, 5) == CycScalar(1, 5)
        assert CycScalar(2, 0, 5) == CycScalar(2, -5)
        folded = CycScalar(2, 0, 5)
        assert (folded.a, folded.b) == (-5, 0)

    def test_power(self):
        z = CycScalar.zeta(3)
        assert z ** 3 == CycScalar.one(3)
        assert z ** -1 == z * z
        assert CycScalar(1, 2) ** 10 == CycScalar(1, 1024)


scalars3 = st.builds(
    lambda a, b: CycScalar(3, a, b),
    st.fractions(max_denominator=6, min_value=-5, max_value=5),
    st.fractions(max_denominator=6, min_value=-5, max_value=5),
)


class TestFieldLaws:
    @given(x=scalars3, y=scalars3, z=scalars3)
    def test_mul_associative_distributive(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(x=scalars3, y=scalars3)
    def test_mul_commutative(self, x, y):
        assert x * y == y * x

    @given(x=scalars3)
    def test_field_inverse(self, x):
        if x:
            assert x * x.inverse() == CycScalar.one(3)


def laurent_strategy(m):
    return st.builds(
        lambda items: LaurentElt(m, dict(items)),
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-5, 5)), max_size=4),
    )


class TestLaurent:
    def test_substitute_scale(self):
        # s -> zeta*s on s^2 multiplies by zeta^2
        m = 3
        z = CycScalar.zeta(m)
        p = LaurentElt.s_power(m, 2)
        assert p.substitute(z) == LaurentElt.s_power(m, 2, z * z)

    def test_substitute_invert(self):
        p = LaurentElt(1, {0: 1, 3: 1})
        assert p.substitute(CycScalar.one(1), invert=True) == LaurentElt(1, {0: 1, -3: 1})

    def test_substitute_scale_negative_exponent(self):
        # s -> 2s sends 3 s^-1 to (3/2) s^-1
        p = LaurentElt.s_power(1, -1, 3)
        expected = LaurentElt.s_power(1, -1, Fraction(3, 2))
        assert p.substitute(CycScalar(1, 2)) == expected

    def test_substitute_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            LaurentElt.one(2).substitute(CycScalar.zero(2))

    def test_no_zero_terms_stored(self):
        p = LaurentElt(2, {1: 3}) - LaurentElt(2, {1: 3})
        assert p.terms == {} and p.is_zero()

    def test_product_support_is_sumset(self):
        p = LaurentElt(2, {1: 1, 3: 2})
        q = LaurentElt(2, {-1: 1, 0: 5})
        assert set((p * q).terms) <= {a + b for a in (1, 3) for b in (-1, 0)}

    @given(p=laurent_strategy(2), q=laurent_strategy(2), r=laurent_strategy(2))
    @settings(max_examples=60)
    def test_ring_axioms(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p

    @given(p=laurent_strategy(3))
    @settings(max_examples=40)
    def test_zeta_scale_has_order_m(self, p):
        q = p
        for _ in range(3):
            q = q.zeta_scale()
        assert q == p

    @given(p=laurent_strategy(2))
    def test_substitution_is_ring_morphism(self, p):
        a = CycScalar(2, Fraction(3, 2))
        q = LaurentElt(2, {1: 2, -2: 1})
        assert (p * q).substitute(a) == p.substitute(a) * q.substitute(a)


# -- exact parts: an int when integral, a Fraction otherwise, never a float --

def ref_canon(m, a, b=0):
    """Fraction-only reference: (a, b) reduced mod Phi_m."""
    a, b = Fraction(a), Fraction(b)
    if m != 3:
        return (a + b if m == 1 else a - b), Fraction(0)
    return a, b


def ref_mul(x, y):
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2


def ref_inverse(x):
    a, b = x
    n = a * a - a * b + b * b
    return (a - b) / n, -b / n


def ref_pow(x, n):
    base = x if n >= 0 else ref_inverse(x)
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = ref_mul(out, base)
    return out


def assert_exact(x, ref):
    """Both parts are int or Fraction, an integral part is an int, and the
    value equals the Fraction-only reference."""
    for part in (x.a, x.b):
        assert type(part) in (int, Fraction)
        if type(part) is Fraction:
            assert part.denominator != 1
    assert (x.a, x.b) == ref


orders = st.sampled_from([1, 2, 3])
rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.booleans(),
)
exponents = st.integers(-4, 4)


class TestExactParts:
    def test_inverse_of_an_int_is_a_fraction(self):
        inv = CycScalar(1, 2).inverse()
        assert inv.a == Fraction(1, 2)
        assert type(inv.a) is Fraction
        assert type((CycScalar(3, 1, 1) ** -1).a) is int

    def test_zero_and_one_are_ints(self):
        for m in (1, 2, 3):
            for x in (CycScalar.zero(m), CycScalar.one(m), CycScalar.zeta(m)):
                assert type(x.a) is int and type(x.b) is int

    @given(m=orders, a=rationals, b=rationals)
    def test_constructor(self, m, a, b):
        assert_exact(CycScalar(m, a, b), ref_canon(m, a, b))

    @given(m=orders, a1=rationals, b1=rationals, a2=rationals, b2=rationals,
           n=exponents)
    def test_field_operations(self, m, a1, b1, a2, b2, n):
        x, y = CycScalar(m, a1, b1), CycScalar(m, a2, b2)
        rx, ry = ref_canon(m, a1, b1), ref_canon(m, a2, b2)
        assert_exact(x + y, (rx[0] + ry[0], rx[1] + ry[1]))
        assert_exact(x - y, (rx[0] - ry[0], rx[1] - ry[1]))
        assert_exact(-x, (-rx[0], -rx[1]))
        assert_exact(x * y, ref_mul(rx, ry))
        if y:
            assert_exact(y.inverse(), ref_inverse(ry))
            assert_exact(x / y, ref_mul(rx, ref_inverse(ry)))
            assert_exact(y ** n, ref_pow(ry, n))
        elif n >= 0:
            assert_exact(y ** n, ref_pow(ry, n))

    @given(m=orders, a=rationals, b=rationals, q=rationals)
    def test_rational_operands(self, m, a, b, q):
        x, rx = CycScalar(m, a, b), ref_canon(m, a, b)
        rq = (Fraction(q), Fraction(0))
        assert_exact(x * q, ref_mul(rx, rq))
        assert_exact(q * x, ref_mul(rx, rq))
        if q:
            assert_exact(x / q, ref_mul(rx, ref_inverse(rq)))

    @given(m=orders,
           items=st.lists(st.tuples(st.integers(-4, 4), rationals, rationals),
                          max_size=4),
           coef=st.one_of(rationals, st.tuples(rationals, rationals)),
           sa=rationals, sb=rationals, invert=st.booleans())
    def test_laurent_scale_and_substitute(self, m, items, coef, sa, sb,
                                          invert):
        ref = {}
        for p, a, b in items:
            ref[p] = ref_canon(m, a, b)
        p = LaurentElt(m, {k: CycScalar(m, *v) for k, v in ref.items()})
        ref = {k: v for k, v in ref.items() if any(v)}
        if isinstance(coef, tuple):
            coef, rcoef = CycScalar(m, *coef), ref_canon(m, *coef)
        else:
            rcoef = (Fraction(coef), Fraction(0))
        scaled = p.scale(coef)
        want = {k: ref_mul(v, rcoef) for k, v in ref.items()}
        assert set(scaled.terms) == {k for k, v in want.items() if any(v)}
        for k, c in scaled.terms.items():
            assert_exact(c, want[k])
        s = CycScalar(m, sa, sb)
        if s:
            rs = ref_canon(m, sa, sb)
            sub = p.substitute(s, invert=invert)
            assert set(sub.terms) == {-k if invert else k for k in ref}
            for k, v in ref.items():
                assert_exact(sub.terms[-k if invert else k],
                             ref_mul(v, ref_pow(rs, k)))


# -- the pair layer: pair_mul and table_products against the full formula --

pair_parts = st.one_of(st.integers(-6, 6),
                       st.fractions(min_value=-5, max_value=5,
                                    max_denominator=6))
# an m = 3 pair (a, b) = a + b*zeta, its zeta part often 0
m3_pairs = st.tuples(pair_parts, st.one_of(st.just(0), pair_parts))


def assert_pair(got, want):
    assert all(type(part) in (int, Fraction) for part in got)
    assert got == want


class TestPairLayer:
    @given(x=m3_pairs, y=m3_pairs)
    @settings(max_examples=300)
    def test_pair_mul_is_the_full_formula(self, x, y):
        assert_pair(pair_mul(x, y), ref_mul(x, y))

    def test_pair_mul_zero_zeta_parts(self):
        half = Fraction(1, 2)
        assert_pair(pair_mul((3, 0), (half, 2)), (Fraction(3, 2), 6))
        assert_pair(pair_mul((half, 2), (3, 0)), (Fraction(3, 2), 6))
        assert_pair(pair_mul((half, 0), (4, 0)), (2, 0))
        assert_pair(pair_mul((0, 1), (0, 1)), (-1, -1))  # zeta^2

    @given(data=st.data())
    @settings(max_examples=60)
    def test_table_products_on_a_row_with_a_2(self, d4, data):
        # a D4 row whose structure constant is +-2 ([H_i, X_a]), plus terms
        # at drawn indices, which mostly meet +-1 entries
        i2, j2 = next(key for key, row in d4.table.items()
                      if any(abs(n) == 2 for n in row.values()))
        index = st.integers(0, d4.dim - 1)
        degree = st.integers(-2, 2)
        xs = {(i2, data.draw(degree)): data.draw(m3_pairs)}
        ys = {(j2, data.draw(degree)): data.draw(m3_pairs)}
        for terms in (xs, ys):
            for _ in range(data.draw(st.integers(0, 3))):
                terms[data.draw(index), data.draw(degree)] = data.draw(m3_pairs)
        want = {}
        for (i, p), x in xs.items():
            for (j, q), y in ys.items():
                for k, n in d4.table.get((i, j), {}).items():
                    a, b = ref_mul(x, y)
                    wa, wb = want.get((k, p + q), (0, 0))
                    want[k, p + q] = wa + n * a, wb + n * b
        got = table_products(d4.table, xs, ys)
        assert set(got) == {key for key, v in want.items() if any(v)}
        for key, value in got.items():
            assert_pair(value, want[key])


# -- immutability: no operation writes to a scalar or a Laurent polynomial --

def frozen(x):
    """Everything an operation could write, as plain values."""
    if isinstance(x, CycScalar):
        return (x.m, x.a, x.b)
    return (x.m, {p: frozen(c) for p, c in x.terms.items()})


def scalar_op(draw, x, y, q, n):
    """One drawn operation on CycScalars x, y and a rational q."""
    ops = ["+", "-", "neg", "*", "*q", "q*"]
    if y:
        ops += ["/", "/q" if q else "*q", "inverse"]
    if x:
        ops.append("**")
    op = draw(st.sampled_from(ops))
    return {"+": lambda: x + y, "-": lambda: x - y, "neg": lambda: -x,
            "*": lambda: x * y, "*q": lambda: x * q, "q*": lambda: q * x,
            "/": lambda: x / y, "/q": lambda: x / q,
            "inverse": lambda: y.inverse(), "**": lambda: x ** n}[op]()


def laurent_op(draw, p, r, x, q, k):
    """One drawn operation on LaurentElts p, r, a CycScalar x and a
    rational q."""
    ops = ["+", "-", "neg", "*", "*x", "*q", "scale", "scale_q", "shift"]
    if x:
        ops.append("substitute")
    op = draw(st.sampled_from(ops))
    return {"+": lambda: p + r, "-": lambda: p - r, "neg": lambda: -p,
            "*": lambda: p * r, "*x": lambda: p * x,
            "*q": lambda: p * q, "scale": lambda: p.scale(x),
            "scale_q": lambda: p.scale(q), "shift": lambda: p.shift(k),
            "substitute": lambda: p.substitute(
                x, invert=draw(st.booleans()))}[op]()


class TestImmutability:
    """A CycScalar or LaurentElt is never written after construction, so
    results may share coefficients with operands, and every order has one
    shared zero and one."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_operations_leave_every_operand_unchanged(self, m, data):
        draw = data.draw
        parts = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
        scalar = st.builds(lambda a, b: CycScalar(m, a, b), parts, parts)
        laurent = st.builds(
            lambda items: LaurentElt(m, {p: CycScalar(m, a, b)
                                         for p, a, b in items}),
            st.lists(st.tuples(st.integers(-4, 4), parts, parts), max_size=3))
        shared = [CycScalar.zero(m), CycScalar.one(m)]
        scalars = shared + draw(st.lists(scalar, min_size=2, max_size=3))
        laurents = draw(st.lists(laurent, min_size=2, max_size=3))
        seen = [(v, frozen(v)) for v in scalars + laurents]
        for _ in range(draw(st.integers(1, 12))):
            q = draw(parts)
            if draw(st.booleans()):
                x, y = draw(st.sampled_from(scalars)), draw(st.sampled_from(scalars))
                out = scalar_op(draw, x, y, q, draw(st.integers(-3, 3)))
                scalars.append(out)
            else:
                p, r = draw(st.sampled_from(laurents)), draw(st.sampled_from(laurents))
                out = laurent_op(draw, p, r, draw(st.sampled_from(scalars)),
                                 q, draw(st.integers(-3, 3)))
                laurents.append(out)
            seen.append((out, frozen(out)))
            for value, before in seen:
                assert frozen(value) == before
        assert frozen(CycScalar.zero(m)) == (m, 0, 0)
        assert frozen(CycScalar.one(m)) == (m, 1, 0)
        assert CycScalar.zero(m) is shared[0] and CycScalar.one(m) is shared[1]
