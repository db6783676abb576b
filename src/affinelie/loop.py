"""Loop algebra g (x) S and the twisted subalgebra L(g, sigma).

Elements are finitely supported maps from Chevalley basis indices to
Laurent polynomials.  g itself enters as {index: pair} vectors: the slice
bases of `rootsys.sigma_eigenspaces`, which `TwistedContext` spans and
`Window` keys by (index, degree).  No truncation happens in arithmetic.
Degree windows (`Window`) exist only for basis enumeration.  L(g, sigma)
is the fixed subalgebra of the Galois twist sigma^(-1) (x) (s -> zeta*s),
which is a signed basis permutation with `LaurentElt.zeta_scale` on the
coefficients.  The split case is m = 1 with the identity diagram
automorphism.
"""

from __future__ import annotations

from .linalg import unit_coords
from .scalars import (LaurentElt, add_into, add_products, as_scalar,
                      laurent_coords, pair_terms, render_flat, table_products)


class LoopElt:
    """Element of g (x) k[t^(1/m), t^(-1/m)]: {index: LaurentElt}, no
    stored coefficient zero."""

    __slots__ = ("alg", "m", "coords")

    def __init__(self, alg, m, coords=None):
        self.alg, self.m, self.coords = alg, m, {}
        for i, p in (coords or {}).items():
            if not isinstance(p, LaurentElt):
                p = LaurentElt.from_scalar(as_scalar(m, p))
            elif p.m != m:
                raise ValueError("mixed root-of-unity orders")
            if p:
                self.coords[int(i)] = p

    @classmethod
    def _make(cls, alg, m, coords):
        # Internal fast path: coords already a zero-free {index: LaurentElt}.
        self = object.__new__(cls)
        self.alg, self.m, self.coords = alg, m, coords
        return self

    @classmethod
    def zero(cls, alg, m):
        return cls(alg, m)

    @classmethod
    def monomial(cls, alg, m, index, p=0, coef=None):
        """coef * b_index (x) s^p (coef 1 by default)."""
        return cls(alg, m, {index: LaurentElt.s_power(m, p, coef)})

    def _check(self, other):
        if self.alg is not other.alg or self.m != other.m:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coords)
        for i, c in other.coords.items():
            add_into(out, i, c)
        return LoopElt._make(self.alg, self.m, out)

    def __neg__(self):
        return LoopElt._make(self.alg, self.m,
                             {i: -c for i, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def bracket(self, other):
        """[a (x) p, b (x) q] = [a, b] (x) pq, summed on pairs by
        `scalars.table_products`."""
        self._check(other)
        flat = table_products(self.alg.table, pair_terms(self.coords),
                              pair_terms(other.coords))
        return LoopElt._make(self.alg, self.m, laurent_coords(self.m, flat))

    def permuted(self, index_image, f=None):
        """The image under b_i -> sign * b_j, (j, sign) = index_image(i),
        with each coefficient first mapped by `f`."""
        out = {}
        for i, c in self.coords.items():
            j, sign = index_image(i)
            if f is not None:
                c = f(c)
            add_into(out, j, c if sign == 1 else -c)
        return LoopElt._make(self.alg, self.m, out)

    def scale(self, coef):
        coef = as_scalar(self.m, coef)
        return LoopElt(self.alg, self.m,
                       {i: p.scale(coef) for i, p in self.coords.items()})

    def shift(self, p):
        """Multiply by s^p."""
        return LoopElt(self.alg, self.m,
                       {i: q.shift(p) for i, q in self.coords.items()})

    def degree_support(self):
        degs = set()
        for p in self.coords.values():
            degs.update(p.terms)
        return degs

    def is_zero(self):
        return not self.coords

    def __bool__(self):
        return bool(self.coords)

    def __eq__(self, other):
        if type(other) is not LoopElt:
            return NotImplemented
        return (self.alg is other.alg and self.m == other.m
                and self.coords == other.coords)

    def render(self):
        return render_flat(self.alg.labels, self.m,
                           (pair_terms(self.coords), None, None))

    def __repr__(self):
        return f"LoopElt({self.render()!r})"


def gamma_twist(x, auto):
    """The twisted Galois generator: sigma^(-1) on g, s -> zeta*s on S."""
    return x.permuted(auto.inverse().index_image, LaurentElt.zeta_scale)


def is_in_twisted(x, auto):
    """Membership in L(g, sigma) = fixed points of the twisted action."""
    return gamma_twist(x, auto) == x


class TwistedContext:
    """Cached eigenspace data for one (algebra, diagram automorphism) pair.

    Provides the graded basis g_i of the twisted algebra, as {index: pair}
    vectors, and exact decomposition of g-vectors over it.
    """

    def __init__(self, auto):
        from .rootsys import sigma_eigenspaces
        self.auto = auto
        self.alg = auto.alg
        self.m = auto.m
        self.eigenspaces = sigma_eigenspaces(auto)
        self.units = [[max(v) for v in basis] for basis in self.eigenspaces]

    def slice_basis(self, degree):
        return self.eigenspaces[degree % self.m]

    def decompose_slice(self, pairs, degree):
        """Coordinates {position: pair} of a g-vector {index: pair} over
        the g_{degree mod m} basis.

        Returns None when the vector leaves the twisted slice (meaning the
        input was not an element of the twisted algebra).
        """
        i = degree % self.m
        return unit_coords(self.eigenspaces[i], self.units[i], pairs)


class Window:
    """Ordered monomial basis of the twisted algebra within [lo, hi], as
    flat forms (`affine.flat`): the slice basis elements by degree, then c
    and d."""

    __slots__ = ("auto", "ctx", "lo", "hi", "flats", "meta", "slot",
                 "c_slot", "d_slot")

    def __init__(self, auto, lo, hi, context=None):
        if lo > hi:
            raise ValueError("empty window")
        self.auto = auto
        self.ctx = context or TwistedContext(auto)
        self.lo = lo
        self.hi = hi
        self.flats = []
        self.meta = []
        self.slot = {}
        for j in range(lo, hi + 1):
            for pos, e in enumerate(self.ctx.slice_basis(j)):
                self.slot[(j, pos)] = len(self.flats)
                self.flats.append(({(i, j): c for i, c in e.items()},
                                   None, None))
                self.meta.append(("loop", j, pos))
        self.c_slot = len(self.flats)
        self.flats.append(({}, (1, 0), None))
        self.meta.append(("c", None, None))
        self.d_slot = len(self.flats)
        self.flats.append(({}, None, (1, 0)))
        self.meta.append(("d", None, None))

    @property
    def alg(self):
        return self.auto.alg

    @property
    def m(self):
        return self.auto.m

    @property
    def basis(self):
        """The basis as AffineElts."""
        from .affine import unflat
        return [unflat(self.alg, self.m, f) for f in self.flats]

    def size(self):
        return len(self.flats)

    def inside(self, degrees, reach=0):
        """The one boundary rule: lo + reach <= p <= hi - reach for every p."""
        lo, hi = self.lo + reach, self.hi - reach
        return all(lo <= p <= hi for p in degrees)

    def to_vector(self, f):
        """Window coordinates {slot: pair} of a flat form, without zeros,
        or None if it leaves [lo, hi]."""
        terms, c, d = f
        slices = {}
        for (i, p), x in terms.items():
            slices.setdefault(p, {})[i] = x
        if not self.inside(slices):
            return None
        vec = {}
        for j in sorted(slices):
            coords = self.ctx.decompose_slice(slices[j], j)
            if coords is None:
                raise ValueError("element leaves the twisted algebra")
            for pos, coef in coords.items():
                vec[self.slot[(j, pos)]] = coef
        for slot, coef in ((self.c_slot, c), (self.d_slot, d)):
            if coef:
                vec[slot] = coef
        return vec

    def from_vector(self, vec):
        """The flat form of the element with window coordinates
        {slot: pair}, summed on pairs from the basis forms."""
        terms = {}
        for i, coef in vec.items():
            add_products(terms, coef, self.flats[i][0])
        return terms, vec.get(self.c_slot), vec.get(self.d_slot)
