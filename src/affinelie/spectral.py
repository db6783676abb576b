"""Windowed weight-space decomposition of ad(x) and the induced operator
on the core modulo its center.

All claims are made on the window *interior*: a basis column is interior
when its degree stays inside the window after shifting by any degree
occurring in the loop part of x, so every asserted eigenvector equation is
an exact statement about the infinite-dimensional algebra, not an artifact
of truncation.  Eigenvalues are harvested from diagonal entries and
rational roots of the characteristic polynomial, all tried by
`linalg.eigenspaces`; completeness is certified by dimension count, never
assumed.  From the input to the verdict x and every element is a flat form
(`affine.flat`): window basis, ad(x) columns, eigenvectors and loop
spaces; weights are pairs, and `scalars.render_flat` renders a failure.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .scalars import (add_products, pair_mul, render_flat, render_pair,
                      table_products)
from .loop import Window  # re-exported: only perfbench/tracer.py reads it
from .affine import flat_bracket, flat_pairing
from .report import Report


def degree_reach(x):
    """Largest |degree| in the loop support of the flat form x."""
    return max((abs(p) for _, p in x[0]), default=0)


def interior_indices(x, window):
    """Columns whose ad(x)-image provably stays inside the window: loop
    degrees inside at the reach of x, c, and d when x's loop part is inside."""
    reach = degree_reach(x)
    d_inside = window.inside({p for _, p in x[0]})
    return [i for i, (kind, j, _) in enumerate(window.meta)
            if kind == "c" or (d_inside if kind == "d"
                               else window.inside((j,), reach))]


class AdOperator:
    """ad(x) on the interior columns of a window, for a flat form x.

    The interior defaults to `interior_indices(x, window)`; a commuting
    family shares its joint interior (`AdOperator.family`).  Each interior
    column holds the window coordinates of [x, b_i], computed once.  The
    rows handed to `linalg` are keyed by column position in `interior`,
    so kernel vectors are coefficients over the interior columns; the
    interior rows come first, so the first len(interior) rows are the
    square block that `linalg.eigenspaces` shifts by each weight, and the
    other window rows must vanish on every eigenvector.
    """

    __slots__ = ("x", "window", "interior", "columns")

    def __init__(self, x, window, interior=None):
        self.x = x
        self.window = window
        self.interior = interior_indices(x, window) if interior is None else interior
        self.columns = {}
        for i in self.interior:
            vec = window.to_vector(flat_bracket(window.alg, x, window.flats[i]))
            if vec is None:
                raise AssertionError("interior column left the window")
            self.columns[i] = vec

    @classmethod
    def family(cls, generators, window, loop_only=False):
        """One operator per generator, all over the joint interior (only
        its loop columns when `loop_only`)."""
        joint = set.intersection(*(set(interior_indices(g, window))
                                   for g in generators))
        if loop_only:
            joint = {i for i in joint if window.meta[i][0] == "loop"}
        return [cls(g, window, sorted(joint)) for g in generators]

    @staticmethod
    def joint_lift(ops, coeffs, weights):
        """`lift` for a family sharing one interior, re-verified against
        every operator with its own weight: one flat form."""
        f = ops[0].window.from_vector({ops[0].interior[k]: coef
                                       for k, coef in coeffs.items()})
        for op, w in zip(ops, weights):
            op.check(f, w)
        return f

    def rows(self):
        """Rows of ad(x) over the interior columns: the interior rows in
        `interior` order, then the other window rows in window order."""
        order = {i: k for k, i in enumerate(self.interior)}
        for r in range(self.window.size()):
            order.setdefault(r, len(order))
        out = [{} for _ in order]
        for k, i in enumerate(self.interior):
            for r, x in self.columns[i].items():
                out[order[r]][k] = x
        return out

    def lift(self, coeffs, w):
        """The flat form of the window element with coefficients {k: pair}
        on the interior columns interior[k], re-verified as an eigenvector
        of weight w."""
        return self.joint_lift([self], coeffs, [w])

    def check(self, f, w):
        """Exact re-verification [x, v] = w v of the flat form f of v, for
        a pair w: loop part, c-part and d-part, with [x, v] from
        `flat_bracket` (which has no d-part)."""
        image, c, _ = flat_bracket(self.window.alg, self.x, f)
        add_products(image, (-w[0], -w[1]), f[0])
        wc, wd = (pair_mul(w, y) if y else (0, 0) for y in f[1:])
        if image or (c or (0, 0)) != wc or wd != (0, 0):
            raise AssertionError("eigenvector failed exact re-verification")


class WeightSpace:
    """One weight pair w, its eigenvectors (flat forms), and A_w at loop
    level: `loop`, the loop terms {(index, degree): pair} of the
    independent d-free eigenvectors, center dropped, and `solver`, their
    SpanSolver over (index, degree) monomials, which are injective on the
    twisted algebra and so decide membership as window coordinates would."""

    __slots__ = ("w", "vectors", "series_id", "loop", "solver")

    def __init__(self, w, vectors):
        self.w = w  # a pair
        self.vectors = vectors  # flat forms
        self.series_id = None
        self.solver = linalg.SpanSolver()
        self.loop = [terms for terms, _, d in vectors
                     if not d and terms and self.solver.add(terms)]

    @property
    def dim(self):
        return len(self.vectors)


class WeightDecomp:
    """Exact interior eigendata of ad(x) on a window, with the reach of x,
    the spaces by weight and by series id, and the one edge rule of the
    verifiers (`inside`)."""

    __slots__ = ("x", "window", "spaces", "complete", "interior", "defect",
                 "reach", "by_weight", "series")

    def __init__(self, x, window, spaces, complete, interior, defect=None):
        self.x = x
        self.window = window
        self.spaces = spaces
        self.complete = complete
        self.interior = interior
        self.defect = defect
        self.reach = degree_reach(x)
        self.by_weight = {sp.w: sp for sp in reversed(spaces)}
        _assign_series(self)
        self.series = {}  # series id -> its spaces, ids in increasing order
        for sp in sorted(spaces, key=lambda s: s.series_id):
            self.series.setdefault(sp.series_id, []).append(sp)

    def inside(self, terms, steps=0, sign=1):
        """Whether loop terms, times `sign` and shifted by `steps` degrees,
        lie inside the window at the reach of x, where ad(x) keeps their
        image."""
        return self.window.inside({sign * p + steps for _, p in terms},
                                  self.reach)

    def space(self, w):
        """The weight space of the pair w, or None."""
        return self.by_weight.get(w)

    def loop_space(self, w):
        """A_w at loop level (`WeightSpace.loop`); [] if w is no weight."""
        sp = self.space(w)
        return [] if sp is None else sp.loop

    def shifts(self, basis, steps):
        """The one shift rule of the shift and rspan lemmas: whether every
        loop vector of `basis`, shifted by `steps` degrees, stays inside."""
        return all(self.inside(v, steps) for v in basis)


def _assign_series(decomp):
    """Group weights into classes {w + m n}, filed under (a mod m, b) for
    w = a + b*zeta, and assign deterministic ids."""
    m = decomp.window.m
    groups = {}
    for sp in sorted(decomp.spaces, key=lambda s: s.w):
        groups.setdefault((sp.w[0] % m, sp.w[1]), []).append(sp)

    def rep_key(group):
        a, b = group[0].w
        return (a % m, Fraction(0)) if not b else (a, b)

    for sid, g in enumerate(sorted(groups.values(), key=rep_key)):
        for sp in g:
            sp.series_id = sid


def weight_decompose(x, window):
    """Exact eigenvalues and eigenspaces of ad(x) on the window interior.

    One call to `linalg.eigenspaces` solves for every weight, on the rows
    of `AdOperator.rows`: the interior block of ad(x) - w, stacked over
    the other window rows, so each kernel vector is an exact eigenvector
    of the whole algebra.  Candidate weights are the block's diagonal
    entries and, while the dimensions fall short, the rational eigenvalues
    of the interior block.  x is a flat form, and each weight a pair.
    Every returned
    eigenvector is re-verified on its flat form through `flat_bracket`
    (`AdOperator.check`).  `complete` certifies that interior eigenspace
    dimensions sum to the interior dimension; when they do not, `defect`
    reports the shortfall (either boundary loss or non-diagonalizability
    over Q(zeta_m)).

    `linalg.eigenspaces` solves each connected component of those rows
    alone, whatever the reach of x: for a degree-zero loop part each slice
    (often each basis vector) is its own block, with the c and d columns
    apart, and a nonzero degree still leaves apart every column ad(x)
    does not link.
    """
    op = AdOperator(x, window)
    interior = op.interior
    if not any(window.meta[i][0] == "loop" for i in interior):
        raise ValueError("window too small: no interior loop columns")
    solved, complete = linalg.eigenspaces(op.rows(), len(interior))
    spaces = [WeightSpace(w, [op.lift(coeffs, w) for coeffs in basis])
              for w, basis in solved]
    spaces.sort(key=lambda sp: sp.w)
    defect = None if complete else len(interior) - sum(sp.dim for sp in spaces)
    return WeightDecomp(x, window, spaces, complete, interior, defect)


def verify_shift(decomp):
    """Windowed form of A_{w+mn} = t^n A_w for interior weight pairs.

    For every weight pair (w, w + m n): each vector of `WeightSpace.loop`
    whose t^n shift stays interior must lie in span A_{w+mn}, and the
    dimensions agree where A_w and A_{w+mn} shift both ways inside
    (`WeightDecomp.shifts`).  Membership is the whole eigen-equation:
    `AdOperator.check` re-verified each basis vector of A_{w+mn}, loop part
    included, and the loop part of `flat_bracket` is linear in its second
    argument, so [x, t^n v] = (w + m n) t^n v at loop level.
    """
    alg, m = decomp.window.alg, decomp.window.m
    rep = Report()
    for sp1 in decomp.spaces:
        for sp2 in decomp.spaces:
            q = sp2.w[0] - sp1.w[0]
            if sp2.w[1] != sp1.w[1] or q == 0 or q % m != 0:
                continue
            shift = int(q)
            for v in sp1.loop:
                terms = {(i, p + shift): x for (i, p), x in v.items()}
                if (decomp.inside(terms)
                        and not rep.check(sp2.solver.contains(terms))):
                    before, after = (render_flat(alg.labels, m, (t, None, None))
                                     for t in (v, terms))
                    rep.fail([before, f"n={shift // m}"], after,
                             f"A_{render_pair(sp2.w)}")
            if (decomp.shifts(sp1.loop, shift)
                    and decomp.shifts(sp2.loop, -shift)
                    and not rep.check(len(sp1.loop) == len(sp2.loop))):
                rep.fail([render_pair(sp1.w), render_pair(sp2.w)],
                         str(len(sp1.loop)), str(len(sp2.loop)))
    return rep


def _pair_keys(f, sign):
    """The keys a flat form is filed under (sign 1), or looks up its
    partners by (sign -1): sign * p for each loop degree p, sign / 2 for a
    c-part and -sign / 2 for a d-part.  The form pairs degree p only with
    -p, and c only with d, so partners meet on a key."""
    keys = {sign * p for _, p in f[0]}
    keys.update(sign * h for h, y in ((0.5, f[1]), (-0.5, f[2])) if y)
    return keys


def verify_opposite(decomp):
    """Weight-set symmetry where the window holds A_w and A_-w with their
    degrees negated, plus cross-weight orthogonality of the form.

    Each eigenvector's flat form is filed once under its `_pair_keys`;
    `affine.flat_pairing` runs only on the pairs whose keys meet, and every
    other pair, exactly 0, is counted as checked in bulk.  A nonzero value
    is rendered from the pair it summed."""
    rep = Report()
    for sp in decomp.spaces:
        opp = decomp.space((-sp.w[0], -sp.w[1]))
        held = [v[0] for s in (sp, opp) if s is not None for v in s.vectors]
        if (all(decomp.inside(terms, sign=-1) for terms in held)
                and not rep.check(opp is not None and opp.dim == sp.dim)):
            rep.fail([render_pair(sp.w)], f"dim {sp.dim}",
                     "missing opposite weight" if opp is None
                     else f"dim {opp.dim}")
    alg, m = decomp.window.alg, decomp.window.m
    filed = [{} for _ in decomp.spaces]
    for by_key, sp in zip(filed, decomp.spaces):
        for k, f in enumerate(sp.vectors):
            for key in _pair_keys(f, 1):
                by_key.setdefault(key, []).append(k)
    for sp1 in decomp.spaces:
        for sp2, by_key in zip(decomp.spaces, filed):
            if sp1.w[0] + sp2.w[0] or sp1.w[1] + sp2.w[1]:
                for u in sp1.vectors:
                    meet = sorted({k for key in _pair_keys(u, -1)
                                   for k in by_key.get(key, ())})
                    rep["checked"] += sp2.dim - len(meet)
                    for k in meet:
                        v = sp2.vectors[k]
                        a, b = flat_pairing(alg, u, v)
                        if not rep.check(not (a or b)):
                            rep.fail([render_flat(alg.labels, m, f)
                                      for f in (u, v)], render_pair((a, b)), "0")
    return rep


def verify_zero_weight(decomp):
    """The loop-level zero-weight space is nonzero (conclusion check)."""
    window = decomp.window
    rep = Report()
    if not rep.check(bool(decomp.loop_space((0, 0)))):
        rep.fail([render_flat(window.alg.labels, window.m, decomp.x)], "A_0 = 0",
                 [render_pair(sp.w) for sp in decomp.spaces])
    return rep


def verify_product_rule(decomp):
    """[A_w1, A_w2] lies in A_{w1+w2}, on interior pairs with interior sum.

    Each bracket is `scalars.table_products`, the loop bracket, on the loop
    terms of `WeightSpace.loop`, tested against the target's solver in the
    same (index, degree) coordinates; a failing pair is rendered from them
    and their bracket."""
    alg, m = decomp.window.alg, decomp.window.m
    rep = Report()
    for sp1 in decomp.spaces:
        for sp2 in decomp.spaces:
            w = (sp1.w[0] + sp2.w[0], sp1.w[1] + sp2.w[1])
            target = decomp.space(w)
            for u in sp1.loop:
                for v in sp2.loop:
                    b = table_products(alg.table, u, v)
                    if not decomp.inside(b):
                        continue
                    # outside a known eigenspace: exact failure witness
                    if not rep.check(not b or target is not None
                                     and target.solver.contains(b)):
                        *pair, image = (render_flat(alg.labels, m, (t, None, None))
                                        for t in (u, v, b))
                        rep.fail(pair, image, f"A_{render_pair(w)}")
    return rep


def rspan_isomorphism_check(decomp):
    """Dimension stability along weight series and series finiteness.

    dim A_w = dim A_{w+mn} is asserted for nonzero A_w and A_{w+mn} exactly
    when the shift by t^n maps the windowed A_w inside the interior and t^-n
    does the same for A_{w+mn} (`WeightDecomp.shifts`): under those
    conditions the span map restricts to a bijection of the windowed
    pieces.  The number of series is bounded by dim g.
    """
    rep = Report()
    for group in decomp.series.values():
        members = [sp for sp in group if sp.loop]
        for i, sp1 in enumerate(members):
            for sp2 in members[i + 1:]:
                steps = int(sp2.w[0] - sp1.w[0])
                if (decomp.shifts(sp1.loop, steps)
                        and decomp.shifts(sp2.loop, -steps)
                        and not rep.check(len(sp1.loop) == len(sp2.loop))):
                    rep.fail([render_pair(sp1.w), render_pair(sp2.w)],
                             str(len(sp1.loop)), str(len(sp2.loop)))
    n_series, dim = len(decomp.series), decomp.window.alg.dim
    if not rep.check(n_series <= dim):
        rep.fail(["series count"], str(n_series), f"<= {dim}")
    return rep


def decomposition_report(decomp):
    """JSON-ready dump: weights with dims, series ids, interior flags."""
    return {
        "weights": [
            {
                "w": render_pair(sp.w),
                "dim": sp.dim,
                "series_id": sp.series_id,
                "interior": True,
            }
            for sp in decomp.spaces
        ],
        "complete": decomp.complete,
        "interior_dim": len(decomp.interior),
        "window": [decomp.window.lo, decomp.window.hi],
    }
