"""Loop algebra g (x) S and the twisted subalgebra L(g, sigma).

Elements are finitely supported maps from Chevalley basis indices to
Laurent polynomials: `rootsys.SparseElt` with Laurent coefficients, so sum,
bracket and the signed basis permutation are the ones `GElt` uses.  No
truncation happens in arithmetic.  Degree windows exist only for basis
enumeration.  L(g, sigma) is the fixed subalgebra of the Galois twist
sigma^(-1) (x) (s -> zeta*s), which is that signed permutation with
`LaurentElt.zeta_scale` on the coefficients.  The split case is m = 1 with
the identity diagram automorphism.
"""

from __future__ import annotations

from .scalars import LaurentElt, as_scalar, render_t_power
from .rootsys import GElt, SparseElt


class LoopElt(SparseElt):
    """Element of g (x) k[t^(1/m), t^(-1/m)]."""

    __slots__ = ()

    def __init__(self, alg, m, coords=None):
        self.alg = alg
        self.m = m
        clean = {}
        for i, p in (coords or {}).items():
            if isinstance(p, LaurentElt):
                if p.m != m:
                    raise ValueError("mixed root-of-unity orders")
            else:
                p = LaurentElt.from_scalar(as_scalar(m, p))
            if p:
                clean[int(i)] = p
        self.coords = clean

    @classmethod
    def zero(cls, alg, m):
        return cls(alg, m)

    @classmethod
    def monomial(cls, alg, m, index, p=0, coef=1):
        """coef * b_index (x) s^p."""
        return cls(alg, m, {index: LaurentElt.s_power(m, p, coef)})

    @classmethod
    def from_g(cls, x, p=0):
        """Embed a g-element at degree p (exponent-numerator units)."""
        return cls(x.alg, x.m, {i: LaurentElt.s_power(x.m, p, c)
                                for i, c in x.coords.items()})

    # [a (x) p, b (x) q] = [a, b] (x) pq.  Bound here as well as inherited
    # so that the method is found in LoopElt's own namespace, where the
    # benchmark tracer patches it.
    bracket = SparseElt.bracket

    def scale(self, coef):
        if isinstance(coef, LaurentElt):
            return LoopElt(self.alg, self.m,
                           {i: p * coef for i, p in self.coords.items()})
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

    def slice(self, degree):
        """The g-coefficient of s^degree as a GElt."""
        out = {}
        for i, p in self.coords.items():
            c = p.terms.get(degree)
            if c:
                out[i] = c
        return GElt(self.alg, self.m, out)

    def degree_action(self):
        """The derivation d: b (x) s^p -> p * b (x) s^p."""
        out = {}
        for i, p in self.coords.items():
            scaled = LaurentElt(self.m, {q: c * q for q, c in p.terms.items()})
            if scaled:
                out[i] = scaled
        return LoopElt(self.alg, self.m, out)

    def render(self):
        if not self.coords:
            return "0"
        from .scalars import _coef_prefix, join_signed
        parts = []
        for i in sorted(self.coords):
            p = self.coords[i]
            for deg in sorted(p.terms):
                sign, mult = _coef_prefix(p.terms[deg])
                parts.append((sign, f"{mult}{self.alg.labels[i]}*"
                                    f"{render_t_power(deg, self.m)}"))
        return join_signed(parts)

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

    Provides the graded basis g_i of the twisted algebra and exact
    decomposition of g-vectors over the full eigenbasis.
    """

    def __init__(self, auto):
        from .rootsys import sigma_eigenspaces
        from . import linalg
        self.auto = auto
        self.alg = auto.alg
        self.m = auto.m
        self.eigenspaces = sigma_eigenspaces(auto)
        self.slice_solvers = []
        for basis in self.eigenspaces:
            solver = linalg.SpanSolver(self.m)
            for v in basis:
                solver.add(v.coords)
            self.slice_solvers.append(solver)

    def slice_dim(self, degree):
        return len(self.eigenspaces[degree % self.m])

    def slice_basis(self, degree):
        return self.eigenspaces[degree % self.m]

    def decompose_slice(self, gelt, degree):
        """Coordinates {position: coefficient} of a g-vector over the
        g_{degree mod m} basis.

        Returns None when the vector leaves the twisted slice (meaning the
        input was not an element of the twisted algebra).
        """
        solver = self.slice_solvers[degree % self.m]
        return solver.coords(gelt.coords)


def twisted_basis(auto, lo, hi, context=None):
    """Monomial basis e (x) s^j of L(g, sigma) with lo <= j <= hi.

    Each vector is Gamma-invariance checked on construction.
    """
    ctx = context or TwistedContext(auto)
    out = []
    for j in range(lo, hi + 1):
        for e in ctx.slice_basis(j):
            v = LoopElt.from_g(e, j)
            if not is_in_twisted(v, auto):
                raise AssertionError("eigenvector failed the twisted-invariance test")
            out.append(v)
    return out
