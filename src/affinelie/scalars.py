"""Exact base-field and Laurent-polynomial arithmetic.

The coefficient field is Q(zeta_m) for m in {1, 2, 3}, represented by
residues modulo the m-th cyclotomic polynomial.  Laurent polynomials in
s = t^(1/m) are finitely supported maps from exponent numerators (integers,
in units of 1/m) to field elements.  Everything is exact: coefficients are
`fractions.Fraction` values and equality is decidable.  `add_into` is the
one accumulate of every sparse map in the package that never stores a zero.
"""

from __future__ import annotations

from fractions import Fraction

SUPPORTED_ORDERS = (1, 2, 3)


class CycScalar:
    """Element of Q(zeta_m), stored as a + b*zeta with b = 0 unless m = 3.

    For m in {1, 2} the cyclotomic polynomial is linear, so the canonical
    representative is a rational number; zeta itself reduces to 1 or -1.
    For m = 3 the relation zeta^2 = -1 - zeta is applied on construction.
    """

    __slots__ = ("m", "a", "b")

    def __init__(self, m, a=0, b=0):
        if m not in SUPPORTED_ORDERS:
            raise ValueError(f"unsupported root-of-unity order {m!r}")
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        if b and m != 3:
            # zeta_1 = 1, zeta_2 = -1: fold the zeta part into the constant.
            a = a + b if m == 1 else a - b
            b = Fraction(0)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    @classmethod
    def _make(cls, m, a, b):
        # Internal fast path: a, b already canonical Fractions.
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        return self

    @classmethod
    def zero(cls, m):
        return cls._make(m, Fraction(0), Fraction(0))

    @classmethod
    def one(cls, m):
        return cls._make(m, Fraction(1), Fraction(0))

    @classmethod
    def zeta(cls, m):
        """The fixed primitive m-th root of unity."""
        if m == 1:
            return cls._make(1, Fraction(1), Fraction(0))
        if m == 2:
            return cls._make(2, Fraction(-1), Fraction(0))
        return cls._make(3, Fraction(0), Fraction(1))

    @property
    def coeffs(self):
        """Residue coefficients, length deg Phi_m (1 for m<=2, 2 for m=3)."""
        return (self.a,) if self.m != 3 else (self.a, self.b)

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
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycScalar._make(self.m, self.a * q, self.b * q)
        self._check(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if not b1 and not b2:
            return CycScalar._make(self.m, a1 * a2, Fraction(0))
        # (a1 + b1 z)(a2 + b2 z) with z^2 = -1 - z (only reachable for m = 3).
        return CycScalar._make(
            self.m, a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2
        )

    __rmul__ = __mul__

    def inverse(self):
        if not self.a and not self.b:
            raise ZeroDivisionError("inverse of zero scalar")
        a, b = self.a, self.b
        if not b:
            return CycScalar._make(self.m, 1 / a, Fraction(0))
        n = a * a - a * b + b * b
        return CycScalar._make(self.m, (a - b) / n, -b / n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycScalar._make(self.m, self.a / q, self.b / q)
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = CycScalar.one(self.m)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.m == other.m and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.m, self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def is_zero(self):
        return not self

    def is_rational(self):
        return not self.b

    def rational(self):
        """The value as a Fraction; error if the zeta part is nonzero."""
        if self.b:
            raise ValueError(f"{self} is not rational")
        return self.a

    def render(self):
        """Canonical text form: fractions with `z` for zeta."""
        a, b = self.a, self.b
        if not b:
            return str(a)
        if b == 1:
            ztxt = "z"
        elif b == -1:
            ztxt = "-z"
        else:
            ztxt = f"{b}*z"
        if not a:
            return ztxt
        return f"{a}+{ztxt}" if not ztxt.startswith("-") else f"{a}{ztxt}"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"CycScalar({self.m}, {self.render()!r})"


def as_scalar(m, value):
    """Coerce ints, Fractions and CycScalars into a CycScalar of order m."""
    if isinstance(value, CycScalar):
        if value.m != m:
            raise ValueError(f"mixed root-of-unity orders {m} and {value.m}")
        return value
    return CycScalar(m, value)


def add_into(out, key, value):
    """out[key] += value in a sparse map, which never stores a zero.

    Every sparse map of the package (Laurent terms, g and loop coordinates)
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
    t^(p/m).  Zero coefficients are never stored.
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
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentElt is immutable")

    @classmethod
    def _make(cls, m, terms):
        # Internal fast path: terms already a zero-free {int: CycScalar} map.
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, m):
        return cls(m)

    @classmethod
    def one(cls, m):
        return cls(m, {0: CycScalar.one(m)})

    @classmethod
    def s_power(cls, m, p, coef=1):
        """The monomial coef * s^p = coef * t^(p/m)."""
        return cls(m, {p: as_scalar(m, coef)})

    @classmethod
    def t_power(cls, m, n, coef=1):
        """The monomial coef * t^n (integral powers of t)."""
        return cls(m, {n * m: as_scalar(m, coef)})

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
        if isinstance(other, (int, Fraction, CycScalar)):
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

    def support(self):
        return sorted(self.terms)

    def substitute(self, a, invert=False):
        """Apply the ring endomorphism s -> a*s (or s -> a*s^-1).

        Every monomial c*s^p maps to c*a^p*s^(+-p); a must be nonzero.
        """
        a = as_scalar(self.m, a)
        if not a:
            raise ValueError("substitution scale must be nonzero")
        out = {}
        for p, coef in self.terms.items():
            add_into(out, -p if invert else p, coef * (a ** p))
        return LaurentElt._make(self.m, out)

    def zeta_scale(self):
        """The Galois generator s -> zeta*s."""
        return self.substitute(CycScalar.zeta(self.m))

    def gamma_invariant(self):
        """True iff fixed by s -> zeta*s, i.e. supported on exponents = 0 mod m."""
        return all(p % self.m == 0 for p in self.terms)

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for p in sorted(self.terms):
            coef = self.terms[p]
            txt = _coef_prefix(coef)
            parts.append((txt[0], txt[1] + render_t_power(p, self.m)))
        return join_signed(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"LaurentElt({self.m}, {self.render()!r})"


def render_t_power(p, m):
    """Exponent numerator p in 1/m units as `t^n` or `t^(p/m)`."""
    if p % m == 0:
        return f"t^{p // m}"
    return f"t^({p}/{m})"


def _coef_prefix(coef):
    """Split a scalar coefficient into (sign, multiplier-text) for rendering.

    The multiplier text ends with '*' unless the coefficient is +-1; sums
    like 1+z are parenthesised so rendered elements parse back exactly.
    """
    if coef.b:
        if coef.a:
            return ("+", f"({coef.render()})*")
        # pure zeta multiple: sign comes from the zeta coefficient
        b = coef.b
        if b == 1:
            return ("+", "z*")
        if b == -1:
            return ("-", "z*")
        return ("+", f"{b}*z*") if b > 0 else ("-", f"{-b}*z*")
    a = coef.a
    if a == 1:
        return ("+", "")
    if a == -1:
        return ("-", "")
    return ("+", f"{a}*") if a > 0 else ("-", f"{-a}*")


def join_signed(parts):
    """Join (sign, text) term pairs into a canonical sum string."""
    out = []
    for i, (sign, text) in enumerate(parts):
        if i == 0:
            out.append(text if sign == "+" else "-" + text)
        else:
            out.append(f" {sign} {text}")
    return "".join(out)
