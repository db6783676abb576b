"""Exact base-field and Laurent-polynomial arithmetic.

The coefficient field is Q(zeta_m) for m in {1, 2, 3}, represented by
residues modulo the m-th cyclotomic polynomial.  Laurent polynomials in
s = t^(1/m) are finitely supported maps from exponent numerators (integers,
in units of 1/m) to field elements.  Everything is exact and equality is
decidable: each rational part of a coefficient is an `int` when it is
integral and a `fractions.Fraction` only when it is not, so products of the
integer structure constants of the Chevalley and twisted slice bases are
int products, without a gcd per operation.  No float ever appears: every
division goes through `Fraction`, because `int / int` is a float.

Every bracket, the Killing pairing and the Jacobi triple sums run on pairs:
a + b*zeta as a tuple (a, b) of such parts, multiplied by `pair_mul`, the
one product rule (`CycScalar.__mul__` calls it; the triple loop of
`affine.jacobi_sums` inlines it and `_add_pair`), and `render_flat` writes
every element's text from its flat form.  Sparse maps never store a zero:
`add_into` accumulates every map of scalar objects, `add_products` every
multiple of a map of pairs (the rows of `linalg` too), `_add_pair` one pair.
"""

from __future__ import annotations

from fractions import Fraction

SUPPORTED_ORDERS = (1, 2, 3)


def _exact(q):
    """q as an int when it is integral, otherwise as a Fraction."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class CycScalar:
    """Element of Q(zeta_m), stored as a + b*zeta with b = 0 unless m = 3.

    For m in {1, 2} the cyclotomic polynomial is linear, so the canonical
    representative is a rational number; zeta itself reduces to 1 or -1.
    For m = 3 the relation zeta^2 = -1 - zeta is applied on construction.
    No operation writes to a scalar (a property test checks every one).
    """

    __slots__ = ("m", "a", "b")

    def __init__(self, m, a=0, b=0):
        if m not in SUPPORTED_ORDERS:
            raise ValueError(f"unsupported root-of-unity order {m!r}")
        a, b = _exact(a), _exact(b)
        if b and m != 3:
            # zeta_1 = 1, zeta_2 = -1: fold the zeta part into the constant.
            a = _exact(a + b if m == 1 else a - b)
            b = 0
        self.m, self.a, self.b = m, a, b

    @classmethod
    def _make(cls, m, a, b):
        # Internal fast path: a, b are exact (int or Fraction, never float)
        # and already reduced mod Phi_m; an integral Fraction becomes an int.
        if type(a) is not int and a.denominator == 1:
            a = a.numerator
        if type(b) is not int and b.denominator == 1:
            b = b.numerator
        self = object.__new__(cls)
        self.m, self.a, self.b = m, a, b
        return self

    @classmethod
    def zero(cls, m):
        return _ZEROS[m]

    @classmethod
    def one(cls, m):
        return _ONES[m]

    @classmethod
    def zeta(cls, m):
        """The fixed primitive m-th root of unity."""
        return cls._make(m, *ZETA[m])

    def _check(self, other):
        if not isinstance(other, CycScalar):
            raise TypeError(f"expected CycScalar, got {type(other).__name__}")
        if other.m != self.m:
            raise ValueError(f"mixed root-of-unity orders {self.m} and {other.m}")

    def __add__(self, other):
        self._check(other)
        return CycScalar._make(self.m, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        self._check(other)
        return CycScalar._make(self.m, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return CycScalar._make(self.m, -self.a, -self.b)

    def __mul__(self, other):
        # The type test first: isinstance against Fraction (an ABC) is slow.
        # An operand of another type may know how to multiply a scalar.
        if type(other) is not CycScalar:
            if isinstance(other, (int, Fraction)):
                return CycScalar._make(self.m, self.a * other, self.b * other)
            return NotImplemented
        self._check(other)
        return CycScalar._make(self.m, *pair_mul((self.a, self.b),
                                                 (other.a, other.b)))

    __rmul__ = __mul__

    def inverse(self):
        return CycScalar._make(self.m, *pair_inv((self.a, self.b)))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycScalar._make(self.m, Fraction(self.a, other),
                                   Fraction(self.b, other))
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        return CycScalar._make(self.m, *pair_pow((self.a, self.b), n))

    def __eq__(self, other):
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.m == other.m and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.m, self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def rational(self):
        """The value as an int or Fraction; error if the zeta part is nonzero."""
        if self.b:
            raise ValueError(f"{self} is not rational")
        return self.a

    def render(self):
        return render_pair((self.a, self.b))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"CycScalar({self.m}, {self.render()!r})"


# One shared zero and one per order: a CycScalar is immutable.
_ZEROS = {m: CycScalar._make(m, 0, 0) for m in SUPPORTED_ORDERS}
_ONES = {m: CycScalar._make(m, 1, 0) for m in SUPPORTED_ORDERS}


def as_scalar(m, value):
    """Coerce ints, Fractions and CycScalars into a CycScalar of order m."""
    if isinstance(value, CycScalar):
        if value.m != m:
            raise ValueError(f"mixed root-of-unity orders {m} and {value.m}")
        return value
    return CycScalar(m, value)


# the fixed primitive m-th root of unity zeta as a pair
ZETA = {1: (1, 0), 2: (-1, 0), 3: (0, 1)}


def pair_mul(x, y):
    """(a1 + b1 z)(a2 + b2 z) with z^2 = -1 - z; b1 = b2 = 0 unless m = 3.
    A zero zeta part skips the products it would zero."""
    a1, b1 = x
    a2, b2 = y
    if not b1:
        return a1 * a2, a1 * b2 if b2 else 0
    if not b2:
        return a1 * a2, b1 * a2
    return a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2


def pair_inv(x):
    """1 / (a + b*zeta), by the norm a^2 - ab + b^2; ZeroDivisionError at 0.
    Fraction(1) / a, never 1 / a: the quotient of two ints is a float."""
    a, b = x
    if not b:
        if a == 1 or a == -1:
            return a, 0
        return _exact(Fraction(1) / a), 0
    n = a * a - a * b + b * b
    return _exact(Fraction(a - b) / n), _exact(Fraction(-b) / n)


def pair_pow(x, n):
    """x^n for an integer n, exact; a negative n goes through `pair_inv`."""
    if n < 0:
        x, n = pair_inv(x), -n
    out = (1, 0)
    while n:
        if n & 1:
            out = pair_mul(out, x)
        x = pair_mul(x, x)
        n >>= 1
    return pair_exact(out)


def pair_exact(x, n=1):
    """The pair x / n with each part an int when it is integral."""
    a, b = x
    if n != 1:
        a, b = Fraction(a, n), Fraction(b, n)
    return _exact(a), _exact(b)


def pair_of(scalar):
    return scalar.a, scalar.b


def pair_terms(coords):
    """{(index, degree): pair} for every monomial of a sparse element whose
    coefficients are LaurentElts."""
    return {(i, p): (c.a, c.b) for i, coef in coords.items()
            for p, c in coef.terms.items()}


def laurent_coords(m, flat):
    """{(index, degree): pair} as {index: LaurentElt}."""
    out = {}
    for (k, p), (a, b) in flat.items():
        out.setdefault(k, {})[p] = CycScalar._make(m, a, b)
    return {k: LaurentElt._make(m, terms) for k, terms in out.items()}


def _add_pair(acc, key, a, b):
    """acc[key] += a + b*zeta, deleting a sum that cancels."""
    prev = acc.get(key)
    if prev is not None:
        a, b = a + prev[0], b + prev[1]
    if a or b:
        acc[key] = (a, b)
    elif prev is not None:
        del acc[key]


def add_products(acc, coef, terms, graded=0):
    """acc[key] += coef * value over the items of the map `terms`, each
    also times graded * key[1] (+-its degree) when `graded` is +-1; returns
    acc.  The one row update: integral parts are stored as ints."""
    for key, value in terms.items():
        a, b = pair_mul(coef, value)
        if graded:
            a, b = a * graded * key[1], b * graded * key[1]
        x = acc.get(key)
        if x is not None:
            a, b = a + x[0], b + x[1]
        if a or b:
            if type(a) is not int and a.denominator == 1:
                a = a.numerator
            if type(b) is not int and b.denominator == 1:
                b = b.numerator
            acc[key] = (a, b)
        elif x is not None:
            del acc[key]
    return acc


def table_products(table, xs, ys):
    """The product of two sparse graded elements under an integer structure
    table: sum x*y*N_ij^k at (k, p + q) over the terms (i, p): x of the map
    xs, (j, q): y of ys and N_ij = table[(i, j)] = {k: N_ij^k}.  This is
    every bracket of the package."""
    acc = {}
    ys = ys.items()
    for (i, p), x in xs.items():
        for (j, q), y in ys:
            row = table.get((i, j))
            if row is not None:
                a, b = pair_mul(x, y)
                for k, n in row.items():  # +-1 but in [H_i, X_a] = +-2 X_a
                    if n == 1:
                        _add_pair(acc, (k, p + q), a, b)
                    elif n == -1:
                        _add_pair(acc, (k, p + q), -a, -b)
                    else:
                        _add_pair(acc, (k, p + q), a * n, b * n)
    return acc


def table_pairing(form, xs, ys, graded=False):
    """sum x*y*form[(i, j)] over terms (i, p): x, (j, -p): y of the maps xs
    and ys, each also times p when `graded`, as a pair.  Ungraded it is the
    loop pairing <x, y>, graded the Killing 2-cocycle of the c-term."""
    a = b = 0
    ys = ys.items()
    for (i, p), x in xs.items():
        for (j, q), y in ys:
            if p + q == 0 and (k := form.get((i, j), 0) * (p if graded else 1)):
                pa, pb = pair_mul(x, y)
                a, b = a + pa * k, b + pb * k
    return a, b


def add_into(out, key, value):
    """out[key] += value in a sparse map, which never stores a zero.

    Every map of scalar objects (Laurent terms, g and loop coordinates)
    accumulates through this one function: a cancelled entry is deleted.
    """
    acc = out.get(key)
    if acc is not None:
        value = acc + value
    if value:
        out[key] = value
    elif acc is not None:
        del out[key]


class LaurentElt:
    """Finitely supported Laurent polynomial in s = t^(1/m).

    Keys of `terms` are exponent numerators: the monomial s^p represents
    t^(p/m).  Zero coefficients are never stored, and `terms` is never
    written after construction (a property test checks every operation).
    """

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        if m not in SUPPORTED_ORDERS:
            raise ValueError(f"unsupported root-of-unity order {m!r}")
        clean = {}
        for p, coef in (terms or {}).items():
            coef = as_scalar(m, coef)
            if coef:
                clean[int(p)] = coef
        self.m, self.terms = m, clean

    @classmethod
    def _make(cls, m, terms):
        # Internal fast path: terms already a zero-free {int: CycScalar} map.
        self = object.__new__(cls)
        self.m, self.terms = m, terms
        return self

    @classmethod
    def zero(cls, m):
        return cls(m)

    @classmethod
    def one(cls, m):
        return cls(m, {0: CycScalar.one(m)})

    @classmethod
    def s_power(cls, m, p, coef=None):
        """The monomial coef * s^p = coef * t^(p/m) (coef 1 by default);
        the coefficient is coerced once, and a zero one gives zero."""
        coef = CycScalar.one(m) if coef is None else as_scalar(m, coef)
        return cls._make(m, {p: coef} if coef else {})

    @classmethod
    def from_scalar(cls, scalar):
        return cls(scalar.m, {0: scalar})

    def _check(self, other):
        if not isinstance(other, LaurentElt):
            raise TypeError(f"expected LaurentElt, got {type(other).__name__}")
        if other.m != self.m:
            raise ValueError(f"mixed root-of-unity orders {self.m} and {other.m}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for p, coef in other.terms.items():
            add_into(out, p, coef)
        return LaurentElt._make(self.m, out)

    def __neg__(self):
        return LaurentElt._make(self.m, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not LaurentElt and isinstance(
                other, (int, Fraction, CycScalar)):
            return self.scale(other)
        self._check(other)
        out = {}
        for p, cp in self.terms.items():
            for q, cq in other.terms.items():
                add_into(out, p + q, cp * cq)
        return LaurentElt._make(self.m, out)

    __rmul__ = __mul__

    def scale(self, coef):
        coef = as_scalar(self.m, coef)
        if not coef:
            return LaurentElt.zero(self.m)
        return LaurentElt._make(self.m, {p: c * coef for p, c in self.terms.items()})

    def shift(self, p):
        """Multiply by s^p (degree shift by p exponent-numerator units)."""
        return LaurentElt._make(self.m, {q + p: c for q, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, LaurentElt):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def substitute(self, a, invert=False):
        """Apply the ring endomorphism s -> a*s (or s -> a*s^-1).

        Every monomial c*s^p maps to c*a^p*s^(+-p); a must be nonzero.
        """
        a = as_scalar(self.m, a)
        if not a:
            raise ValueError("substitution scale must be nonzero")
        out = {}
        for p, coef in self.terms.items():
            add_into(out, -p if invert else p, coef * a ** p)
        return LaurentElt._make(self.m, out)

    def zeta_scale(self):
        """The Galois generator s -> zeta*s."""
        return self.substitute(CycScalar.zeta(self.m))

    def render(self):
        return render_sum(((c.a, c.b), render_t_power(p, self.m))
                          for p, c in sorted(self.terms.items()))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"LaurentElt({self.m}, {self.render()!r})"


def render_t_power(p, m):
    """Exponent numerator p in 1/m units as `t^n` or `t^(p/m)`."""
    if p % m == 0:
        return f"t^{p // m}"
    return f"t^({p}/{m})"


def render_pair(x):
    """The canonical text of a pair a + b*zeta: fractions with `z` for zeta."""
    a, b = x
    if not b:
        return str(a)
    ztxt = "z" if b == 1 else "-z" if b == -1 else f"{b}*z"
    if not a:
        return ztxt
    return f"{a}+{ztxt}" if not ztxt.startswith("-") else f"{a}{ztxt}"


def _coef_prefix(coef):
    """Split a pair coefficient into (sign, multiplier-text) for rendering.

    The multiplier text ends with '*' unless the coefficient is +-1; sums
    like 1+z are parenthesised so rendered elements parse back exactly.
    """
    a, b = coef
    if b:
        if a:
            return ("+", f"({render_pair(coef)})*")
        # pure zeta multiple: sign comes from the zeta coefficient
        if b == 1:
            return ("+", "z*")
        if b == -1:
            return ("-", "z*")
        return ("+", f"{b}*z*") if b > 0 else ("-", f"{-b}*z*")
    if a == 1:
        return ("+", "")
    if a == -1:
        return ("-", "")
    return ("+", f"{a}*") if a > 0 else ("-", f"{-a}*")


def render_sum(terms):
    """The canonical sum text of (pair, monomial text) terms, "0" when
    every pair is zero; a zero term is left out."""
    out = []
    for coef, text in terms:
        if coef[0] or coef[1]:
            sign, mult = _coef_prefix(coef)
            out.append(f" {sign} " if out else ("" if sign == "+" else "-"))
            out.append(mult + text)
    return "".join(out) or "0"


def render_flat(labels, m, f):
    """The canonical text of a flat form: its terms by (index, degree),
    then c, then d.  Every element renders through this one writer."""
    terms, c, d = f
    return render_sum([(terms[i, p], f"{labels[i]}*{render_t_power(p, m)}")
                       for i, p in sorted(terms)]
                      + [(x, s) for x, s in ((c, "c"), (d, "d")) if x])
