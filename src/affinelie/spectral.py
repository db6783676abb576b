"""Windowed weight-space decomposition of ad(x) and the induced operator
on the core modulo its center.

An x = d + s of degree reach 0 is decided on g instead, slice by slice
(`slices`), and shares from here the weight spaces, the series ids, the
exact re-verification and the dump.  Any other x is decomposed here, and
all its claims are made on the window *interior*: a basis column is interior
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


def interior_indices(window, *xs):
    """Columns whose ad-image under each x of a commuting family provably
    stays inside the window: loop degrees inside at the largest reach, c,
    and d when every loop part is inside."""
    reach = max(degree_reach(x) for x in xs)
    d_inside = all(window.inside({p for _, p in x[0]}) for x in xs)
    return [i for i, (kind, j, _) in enumerate(window.meta)
            if kind == "c" or (d_inside if kind == "d"
                               else window.inside((j,), reach))]


ZERO_FORM = ({}, None, None)


def eigen_residual(alg, x, f, w):
    """[x, v] - w v for the flat form f of v and a pair w, as a flat form:
    loop part, c-part and d-part, with [x, v] from `flat_bracket` (which
    has no d-part).  It is `ZERO_FORM` exactly when v is an eigenvector of
    weight w."""
    image, c, _ = flat_bracket(alg, x, f)
    add_products(image, (-w[0], -w[1]), f[0])
    wc, wd = (pair_mul(w, y) if y else (0, 0) for y in f[1:])
    c = c or (0, 0)
    c = (c[0] - wc[0], c[1] - wc[1])
    return (image, c if c[0] or c[1] else None,
            (-wd[0], -wd[1]) if wd[0] or wd[1] else None)


def reverify(alg, x, f, w):
    """Raise AssertionError unless the flat form f is an eigenvector of
    ad x of weight w (`eigen_residual`): an exact re-verification inside
    the program."""
    if eigen_residual(alg, x, f, w) != ZERO_FORM:
        raise AssertionError("eigenvector failed exact re-verification")


def ad_rows(x, window, interior):
    """Rows of ad(x) over the columns `interior`, as `linalg.eigenspaces`
    reads them: the interior rows in `interior` order, then the other
    window rows in window order, each keyed by column position in
    `interior`.  The first len(interior) rows are the square block shifted
    by each weight, and the others must vanish on every eigenvector.
    Column k is `Window.to_vector(flat_bracket(x, b_i))` for i =
    interior[k]."""
    order = {i: k for k, i in enumerate(interior)}
    for r in range(window.size()):
        order.setdefault(r, len(order))
    rows = [{} for _ in order]
    for k, i in enumerate(interior):
        vec = window.to_vector(flat_bracket(window.alg, x, window.flats[i]))
        if vec is None:
            raise AssertionError("interior column left the window")
        for r, v in vec.items():
            rows[order[r]][k] = v
    return rows


def lift(window, interior, coeffs, checks):
    """The flat form of the window element with coefficients {k: pair} on
    the columns interior[k], re-verified (`reverify`) as an eigenvector of
    ad x of weight w for each (x, w) in `checks`."""
    f = window.from_vector({interior[k]: c for k, c in coeffs.items()})
    for x, w in checks:
        reverify(window.alg, x, f, w)
    return f


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
    verifiers (`inside`).  A decomposition decided on g
    (`slices.decompose_on_g`) also keeps its `classes`, {(i, weight):
    WeightSpace} of the eigenspaces of ad x on each slice g_i as degree-0
    flat forms, and `jordan`, None or the rendered Jordan pair {"w", "v",
    "u"} of a slice that falls short, lifted to its degree."""

    __slots__ = ("x", "window", "spaces", "complete", "interior", "defect",
                 "reach", "by_weight", "series", "classes", "jordan")

    def __init__(self, x, window, spaces, complete, interior, defect=None,
                 classes=None, jordan=None):
        self.x = x
        self.window = window
        self.spaces = spaces
        self.complete = complete
        self.interior = interior
        self.defect = defect
        self.classes = classes
        self.jordan = jordan
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
    of `ad_rows`: the interior block of ad(x) - w, stacked over
    the other window rows, so each kernel vector is an exact eigenvector
    of the whole algebra.  Candidate weights are the block's diagonal
    entries and, while the dimensions fall short, the rational eigenvalues
    of the interior block.  x is a flat form, and each weight a pair.
    Every returned
    eigenvector is re-verified on its flat form through `flat_bracket`
    (`lift`).  `complete` certifies that interior eigenspace
    dimensions sum to the interior dimension; when they do not, `defect`
    reports the shortfall (either boundary loss or non-diagonalizability
    over Q(zeta_m)).

    `linalg.eigenspaces` solves each connected component of those rows
    alone, whatever the reach of x: for a degree-zero loop part each slice
    (often each basis vector) is its own block, with the c and d columns
    apart, and a nonzero degree still leaves apart every column ad(x)
    does not link.
    """
    interior = interior_indices(window, x)
    if not any(window.meta[i][0] == "loop" for i in interior):
        raise ValueError("window too small: no interior loop columns")
    solved, complete = linalg.eigenspaces(ad_rows(x, window, interior),
                                          len(interior))
    spaces = [WeightSpace(w, [lift(window, interior, coeffs, [(x, w)])
                              for coeffs in basis])
              for w, basis in solved]
    spaces.sort(key=lambda sp: sp.w)
    defect = None if complete else len(interior) - sum(sp.dim for sp in spaces)
    return WeightDecomp(x, window, spaces, complete, interior, defect)


def verify_shift(decomp):
    """Windowed form of A_{w+mn} = t^n A_w for interior weight pairs.

    For every weight pair (w, w + m n), each vector of `WeightSpace.loop`
    whose t^n shift stays interior must lie in span A_{w+mn}; the
    dimensions along a series are compared once, by
    `rspan_isomorphism_check`.  Membership is the whole eigen-equation:
    `lift` re-verified each basis vector of A_{w+mn}, loop part
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
    return rep


def mirrored(rep, sp, opp, name):
    """dim A_w = dim A_-w, for the space sp named `name` and its opposite
    opp (None when -w is no weight)."""
    if not rep.check(opp is not None and opp.dim == sp.dim):
        rep.fail([name], f"dim {sp.dim}",
                 "missing opposite weight" if opp is None else f"dim {opp.dim}")


def orthogonal(rep, alg, m, sp1, sp2):
    """The form pairs every vector of sp1 with every vector of sp2 to 0:
    one `affine.flat_pairing` per pair, a nonzero value rendered from the
    pair it summed."""
    for u in sp1.vectors:
        for v in sp2.vectors:
            a, b = flat_pairing(alg, u, v)
            if not rep.check(not (a or b)):
                rep.fail([render_flat(alg.labels, m, f) for f in (u, v)],
                         render_pair((a, b)), "0")


def verify_opposite(decomp):
    """Weight-set symmetry where the window holds A_w and A_-w with their
    degrees negated (`mirrored`), plus the form's orthogonality on every
    pair of spaces whose weights do not cancel (`orthogonal`)."""
    rep = Report()
    for sp in decomp.spaces:
        opp = decomp.space((-sp.w[0], -sp.w[1]))
        held = [v[0] for s in (sp, opp) if s is not None for v in s.vectors]
        if all(decomp.inside(terms, sign=-1) for terms in held):
            mirrored(rep, sp, opp, render_pair(sp.w))
    alg, m = decomp.window.alg, decomp.window.m
    for sp1 in decomp.spaces:
        for sp2 in decomp.spaces:
            if sp1.w[0] + sp2.w[0] or sp1.w[1] + sp2.w[1]:
                orthogonal(rep, alg, m, sp1, sp2)
    return rep


def verify_zero_weight(decomp):
    """The loop-level zero-weight space is nonzero (conclusion check)."""
    window = decomp.window
    rep = Report()
    if not rep.check(bool(decomp.loop_space((0, 0)))):
        rep.fail([render_flat(window.alg.labels, window.m, decomp.x)], "A_0 = 0",
                 [render_pair(sp.w) for sp in decomp.spaces])
    return rep


def closed(rep, alg, m, sp1, sp2, target, name, inside=None):
    """[sp1, sp2] lies in the space `target` (None when it is no weight):
    `scalars.table_products`, the loop bracket, on each pair of loop terms
    of `WeightSpace.loop`, tested against the target's solver in the same
    (index, degree) coordinates.  A bracket that `inside` rejects is
    dropped unchecked; a failing pair is rendered from its terms, their
    bracket and the target's `name`."""
    for u in sp1.loop:
        for v in sp2.loop:
            b = table_products(alg.table, u, v)
            if inside is not None and not inside(b):
                continue
            # outside a known eigenspace: exact failure witness
            if not rep.check(not b or target is not None
                             and target.solver.contains(b)):
                *pair, image = (render_flat(alg.labels, m, (t, None, None))
                                for t in (u, v, b))
                rep.fail(pair, image, name)


def verify_product_rule(decomp):
    """[A_w1, A_w2] lies in A_{w1+w2} (`closed`), on interior pairs with
    interior sum."""
    alg, m = decomp.window.alg, decomp.window.m
    rep = Report()
    for sp1 in decomp.spaces:
        for sp2 in decomp.spaces:
            w = (sp1.w[0] + sp2.w[0], sp1.w[1] + sp2.w[1])
            closed(rep, alg, m, sp1, sp2, decomp.space(w),
                   f"A_{render_pair(w)}", decomp.inside)
    return rep


def rspan_isomorphism_check(decomp):
    """Dimension stability along weight series and series finiteness.

    dim A_w = dim A_{w+mn} is asserted once for each pair of spaces of a
    series, an A_w without loop vectors included, exactly when the shift
    by t^n maps the windowed A_w inside the interior and t^-n does the
    same for A_{w+mn} (`WeightDecomp.inside`): under those conditions the
    span map restricts to a bijection of the windowed pieces.  This is
    the one dimension comparison of the series; `verify_shift` tests
    membership only.  The number of series is bounded by dim g.  A
    decomposition decided on g (`slices`) has no stability to check: each
    slice eigenspace gives every degree of its series one dimension, so
    there the count is the whole check.
    """
    rep = Report()
    if decomp.classes is None:
        for group in decomp.series.values():
            for i, sp1 in enumerate(group):
                for sp2 in group[i + 1:]:
                    steps = int(sp2.w[0] - sp1.w[0])
                    if (all(decomp.inside(v, steps) for v in sp1.loop)
                            and all(decomp.inside(v, -steps) for v in sp2.loop)
                            and not rep.check(len(sp1.loop) == len(sp2.loop))):
                        rep.fail([render_pair(sp1.w), render_pair(sp2.w)],
                                 str(len(sp1.loop)), str(len(sp2.loop)))
    n_series, dim = len(decomp.series), decomp.window.alg.dim
    if not rep.check(n_series <= dim):
        rep.fail(["series count"], str(n_series), f"<= {dim}")
    return rep


INTERIOR = {"interior": True}


def decomposition_report(decomp, scope=INTERIOR):
    """JSON-ready dump: weights with dims, series ids and `scope`, the key
    each weight carries for where its claim holds: `INTERIOR` on the
    window interior, `{"scope": "g"}` on every degree (`slices`)."""
    return {
        "weights": [
            {
                "w": render_pair(sp.w),
                "dim": sp.dim,
                "series_id": sp.series_id,
                **scope,
            }
            for sp in decomp.spaces
        ],
        "complete": decomp.complete,
        "interior_dim": len(decomp.interior),
        "window": [decomp.window.lo, decomp.window.hi],
    }
