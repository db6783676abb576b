"""The full affine algebra L = loop (+) kc (+) kd with its invariant form.

One bracket implementation covers the split and twisted cases: the twisted
algebra is the subspace of the split one cut out by `loop.is_in_twisted`,
and the bracket restricts (the cocycle term uses the same Killing form).
The central element c and the degree derivation d follow
[d, x (x) t^(p/m)] = p * x (x) t^(p/m) and
[x (x) t^(p/m), y (x) t^(q/m)] = [x,y] (x) t^((p+q)/m) + p <x,y> delta_{0,p+q} c.
"""

from __future__ import annotations

from .scalars import (CycScalar, _add_pair, add_products, as_scalar,
                      laurent_coords, pair_mul, pair_of, pair_terms,
                      render_flat, render_pair, table_pairing, table_products)
from .loop import LoopElt, Window
from . import linalg
from .report import Report


class AffineElt:
    """Element x' + a*c + b*d with x' a loop element."""

    __slots__ = ("loop", "c", "d")

    def __init__(self, loop, c=None, d=None):
        self.loop = loop
        zero = CycScalar.zero(loop.m)
        self.c = zero if c is None else as_scalar(loop.m, c)
        self.d = zero if d is None else as_scalar(loop.m, d)

    @classmethod
    def zero(cls, alg, m):
        return cls(LoopElt.zero(alg, m))

    @classmethod
    def c_elt(cls, alg, m, coef=1):
        return cls(LoopElt.zero(alg, m), c=coef)

    @classmethod
    def d_elt(cls, alg, m, coef=1):
        return cls(LoopElt.zero(alg, m), d=coef)

    @property
    def alg(self):
        return self.loop.alg

    @property
    def m(self):
        return self.loop.m

    def _check(self, other):
        if self.alg is not other.alg or self.m != other.m:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        return AffineElt(self.loop + other.loop, self.c + other.c, self.d + other.d)

    def scale(self, coef):
        coef = as_scalar(self.m, coef)
        return AffineElt(self.loop.scale(coef), self.c * coef, self.d * coef)

    def is_zero(self):
        return self.loop.is_zero() and not self.c and not self.d

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, AffineElt):
            return NotImplemented
        return (self.loop == other.loop and self.c == other.c
                and self.d == other.d)

    def render(self):
        return render_flat(self.alg.labels, self.m, flat(self))

    def __repr__(self):
        return f"AffineElt({self.render()!r})"


def flat(x):
    """An AffineElt or LoopElt as the flat form that `flat_bracket`,
    `flat_pairing` and the automorphism actions read: {(index, degree):
    pair} without zeros, then the c- and d-coefficients as pairs or None."""
    if isinstance(x, LoopElt):
        return pair_terms(x.coords), None, None
    return (pair_terms(x.loop.coords), pair_of(x.c) if x.c else None,
            pair_of(x.d) if x.d else None)


def unflat(alg, m, f):
    """A flat form as an AffineElt; its `.loop` for a loop-level form."""
    terms, c, d = f
    return AffineElt(LoopElt._make(alg, m, laurent_coords(m, terms)),
                     c and CycScalar._make(m, *c), d and CycScalar._make(m, *d))


def flat_bracket(alg, x, y):
    """[x, y] of two flat forms as a flat form (a bracket has no d-part; c
    is central): the loop bracket, the d-action and the cocycle c-term in
    one call, all summed on pairs."""
    (xs, _, xd), (ys, _, yd) = x, y
    out = table_products(alg.table, xs, ys)
    if xd:
        add_products(out, xd, ys, graded=1)
    if yd:
        add_products(out, yd, xs, graded=-1)
    c = table_pairing(alg.killing_table, xs, ys, graded=True)
    return out, c if c[0] or c[1] else None, None


def flat_pairing(alg, x, y):
    """(x, y) of two flat forms as a pair: `table_pairing` on the Killing
    table plus c*d + d*c.  Every value of the invariant form is this sum."""
    (xs, xc, xd), (ys, yc, yd) = x, y
    a, b = table_pairing(alg.killing_table, xs, ys)
    for s, t in ((xc, yd), (xd, yc)):
        if s and t:
            pa, pb = pair_mul(s, t)
            a, b = a + pa, b + pb
    return a, b


def bracket_affine(x, y):
    """Affine bracket: `flat_bracket` on the flat forms of x and y."""
    x._check(y)
    return unflat(x.alg, x.m, flat_bracket(x.alg, flat(x), flat(y)))


def invariant_form(x, y):
    """The invariant bilinear form with (c,d) = 1, (c,c) = (d,d) = 0: the
    cocycle pins the ratio of the loop and c-d blocks, so it is unique up to
    one global scalar, fixed here."""
    return CycScalar._make(x.m, *flat_pairing(x.alg, flat(x), flat(y)))


def verify_form_invariance(alg, m, sampler, samples):
    """([x,y], z) + (y, [x,z]) = 0 on sampled triples; exact, no tolerance.

    The sampler draws flat forms, and the sum is taken on pairs from
    `flat_bracket` and `flat_pairing`.  A failing triple is rendered from
    its samples and the two pairings it summed."""
    rep = Report()
    for _ in range(samples):
        fx, fy, fz = sampler(), sampler(), sampler()
        lhs = flat_pairing(alg, flat_bracket(alg, fx, fy), fz)
        rhs = flat_pairing(alg, fy, flat_bracket(alg, fx, fz))
        if not rep.check(not (lhs[0] + rhs[0] or lhs[1] + rhs[1])):
            rep.fail([render_flat(alg.labels, m, f) for f in (fx, fy, fz)],
                     render_pair(lhs), render_pair(rhs))
    return rep


def jacobi_sums(alg, flats):
    """Antisymmetry, then Jacobi, on a basis of flat forms: yields ((i, j),
    [b_i, b_j] + [b_j, b_i]) for every pair i <= j, then ((i, j, k),
    [b_i, [b_j, b_k]] + [b_j, [b_k, b_i]] + [b_k, [b_i, b_j]]) for every
    triple i <= j <= k whose sum is not 0; each sum a flat form.

    Every bracket is one `flat_bracket` call: [b_i, b_j] for each ordered
    pair and [b_i, X] for each monomial X of a pair bracket ([b_i, c] = 0),
    as (id, a, b) tuples over keys ((index, degree) or c) numbered once; a
    triple sums into one map by id, `pair_mul` and `_add_pair` inlined."""
    n = len(flats)
    ids = {}  # key -> id, c under the key "c"

    def interned(f):
        terms, c, _ = f
        out = tuple([(ids.setdefault(key, len(ids)), a, b)
                     for key, (a, b) in terms.items()]) if terms else ()
        return out + ((ids.setdefault("c", len(ids)), *c),) if c else out

    pair = [[interned(flat_bracket(alg, x, y)) for y in flats] for x in flats]
    reached = list(ids)  # an ad(b_i) image may number new keys
    ad = [[() if key == "c" else
           interned(flat_bracket(alg, x, ({key: (1, 0)}, None, None)))
           for key in reached] for x in flats]
    keys = list(ids)

    def decoded(acc):
        terms = {keys[key]: value for key, value in acc.items()}
        return terms, terms.pop("c", None), None

    for i in range(n):
        for j in range(i, n):
            acc = {key: (a, b) for key, a, b in pair[i][j]}
            for key, a, b in pair[j][i]:
                _add_pair(acc, key, a, b)
            yield (i, j), decoded(acc)
    for i in range(n):
        ad_i, pair_i = ad[i], pair[i]
        for j in range(i, n):
            ad_j, pair_j, pair_ij = ad[j], pair[j], pair_i[j]
            for k in range(j, n):
                acc = {}
                for terms, images in ((pair_j[k], ad_i), (pair[k][i], ad_j),
                                      (pair_ij, ad[k])):
                    for key, xa, xb in terms:
                        for out, ya, yb in images[key]:
                            if not xb:  # z^2 = -1 - z
                                a, b = xa * ya, xa * yb if yb else 0
                            elif not yb:
                                a, b = xa * ya, xb * ya
                            else:
                                a = xa * ya - xb * yb
                                b = xa * yb + xb * ya - xb * yb
                            prev = acc.get(out)
                            if prev is not None:
                                a, b = a + prev[0], b + prev[1]
                            if a or b:
                                acc[out] = a, b
                            elif prev is not None:
                                del acc[out]
                if acc:
                    yield (i, j, k), decoded(acc)


def window_gram_rank(window):
    """Rank of the Gram matrix of the invariant form on a window's basis.

    The form is symmetric and pairs degree j only with -j, c only with d;
    so the rank is rank G_{0,0} + 2 rank G_{j,-j} over j > 0 + the rank of
    the c/d block, each block built once from `window.meta` (degree j for a
    loop slot, None for c and d) on the basis's flat forms."""
    alg, blocks = window.alg, {}
    for f, (_, j, _) in zip(window.flats, window.meta):
        blocks.setdefault(j, []).append(f)

    def block_rank(rows, cols):
        return linalg.rank([{j: f for j, v in enumerate(cols)
                             if (f := flat_pairing(alg, u, v))[0] or f[1]}
                            for u in rows])

    total = block_rank(blocks[None], blocks[None])
    for j, rows in blocks.items():
        if j is not None and j >= 0:
            total += (1 if j == 0 else 2) * block_rank(rows, blocks.get(-j, []))
    return total


def core_and_derived(auto, lo, hi):
    """Span of window brackets: the core loop (+) kc, never reaching d.

    Brackets are taken over basis pairs whose degrees sum into [lo, hi], so
    every product stays inside the window.  Returns (basis, flag) where the
    flag asserts span == (windowed twisted loop) (+) kc and d not in span.
    """
    window = Window(auto, lo, hi)
    flats, alg, m = window.flats, auto.alg, auto.m
    loop = [(i, j) for i, (kind, j, _) in enumerate(window.meta) if kind == "loop"]
    solver = linalg.SpanSolver()
    produced = []
    for a, da in loop:
        for b, db in loop:
            if not (lo <= da + db <= hi):
                continue
            w = flat_bracket(alg, flats[a], flats[b])
            if (w[0] or w[1]) and solver.add(window.to_vector(w)):
                produced.append(unflat(alg, m, w))
    # brackets have no d-part: the span is the windowed loop (+) kc at full rank
    d_vec = window.to_vector(flats[window.d_slot])
    return produced, solver.rank == len(loop) + 1 and not solver.contains(d_vec)
