"""The decision on g for an x = d + s of degree reach 0, s in g_0.

The loop bracket adds degrees and the cocycle of [s (x) t^0, .] is 0, so
ad x acts on g_i (x) t^j (j = i mod m) as ad s + j: `decide_slices`
solves ad s once on each slice g_i of g, `decompose_on_g` lifts its
eigenvectors to the window for the dump, and the weight lemmas are
checked on g, so they hold on every degree.  Any other x is decomposed on
the window (`spectral.weight_decompose`); a run with such an x never
imports this module.
"""

from __future__ import annotations

from . import linalg
from .loop import Window
from .scalars import render_flat, render_pair
from .report import Report
from .spectral import (ZERO_FORM, WeightDecomp, WeightSpace, ad_rows, closed,
                       eigen_residual, interior_indices, mirrored, orthogonal,
                       reverify)

SCOPE = {"scope": "g"}  # what each dumped weight carries: it holds on g


def decide_slices(ctx, s):
    """ad s on each slice g_i of g, i < m, for s in g_0 (a g-vector): the
    finite decision of ad x for every x = d + s (+ a c-part), on all the
    degrees of each slice at once.  A slice's matrix is the square block
    of `spectral.ad_rows` for s at degree 0 on the one-degree window
    [i, i], whose first slots are the slice basis: column k is [s, e_k]
    for its basis element e_k, in slice coordinates (`Window.to_vector`);
    `linalg.eigenspaces` solves it, the one place that tries weights.

    Returns (classes, jordan): classes lists (i, weight, g-vectors) for
    each nonzero eigenspace, slice by slice; jordan is None, or (i, w, v,
    u), g-vectors with (ad s - w) v = u != 0 and (ad s - w) u = 0, from
    the first slice whose eigenspaces fall short on a Jordan block
    (`jordan_pair`).  When no slice has one, a slice that falls short on
    eigenvalues no tried weight gives is unsupported input, named by the
    first such slice.
    """
    m = ctx.m
    if ctx.decompose_slice(s, 0) is None:
        raise ValueError("element leaves the twisted algebra")
    s = {(k, 0): v for k, v in s.items()}, None, None
    classes, jordan, outside = [], None, None
    for i in range(m):
        basis = ctx.slice_basis(i)
        n = len(basis)
        rows = ad_rows(s, Window(ctx.auto, i, i, context=ctx), range(n))[:n]
        spaces, complete = linalg.eigenspaces(rows, n)
        classes += [(i, w, [linalg.mat_vec(basis, v) for v in sub])
                    for w, sub in spaces if sub]
        if complete or jordan:
            continue
        for w, _ in spaces:
            pair = jordan_pair(rows, w)
            if pair:
                jordan = (i, w, *(linalg.mat_vec(basis, v) for v in pair))
                break
        else:
            outside = i if outside is None else outside
    if outside is not None and not jordan:
        field = ("outside Q" if m < 3
                 else "that no rational root or diagonal entry gives")
        raise ValueError(f"ad x on g_{outside} has eigenvalues {field}")
    return classes, jordan


def jordan_pair(mat, w):
    """(v, u) with (M - w) v = u != 0 and (M - w) u = 0 for a square
    matrix M, or None when (M - w)^2 kills no more than M - w does.  Such
    a pair spans a Jordan block of weight w: a witness that M is not
    diagonalizable.  v is the first kernel vector of (M - w)^2
    (`linalg.kernel_basis`) that M - w does not kill."""
    n = len(mat)
    rows = linalg.shifted(mat, w)
    columns = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j][i] = x
    square = [linalg.mat_vec(rows, row) for row in rows]  # (M - w)^2
    for v in linalg.kernel_basis(square, n):
        u = linalg.mat_vec(columns, v)
        if u:
            return v, u
    return None


def _at(v, j):
    """The flat form of the g-vector v at degree j."""
    return {(k, j): c for k, c in v.items()}, None, None


def decompose_on_g(x, window):
    """`weight_decompose` for x = d + s (+ a c-part) of degree reach 0,
    decided on g and lifted to the window: (decomp, shift).

    `decide_slices` decides ad x slice by slice.  Each eigenvector v of a
    slice g_i with weight w is lifted to t^n v at every window degree j = i
    + m n, of weight w + j, and re-verified there through `flat_bracket`
    (`eigen_residual`): the shift lemma A_{w+mn} = t^n A_w, on every degree
    of the window.  `shift`, a Report, counts each of those
    re-verifications, so it checks something whenever g has an
    eigenvector, and fails a lift at n != 0 that is no eigenvector; at n =
    0 the lift is the slice decision's own claim, and a mismatch is an
    internal error.  c, and d when the window holds the degree of s
    (`interior_indices`), are weight-0 vectors.  The window's spaces are
    the re-verified lifts by weight, so the dump reads as
    `weight_decompose`'s.  The decomposition keeps the slice eigenspaces
    as `classes` (degree-0 flat forms, keyed by slice and weight) for the
    lemmas on g, and a Jordan pair lifted to degree i, re-verified and
    rendered for the report.
    """
    alg, m = window.alg, window.m
    found, jordan = decide_slices(window.ctx,
                                  {k: v for (k, _), v in x[0].items()})
    shift, lifted = Report(), {}
    for i, lam, vectors in found:
        for j in range(window.lo + (i - window.lo) % m, window.hi + 1, m):
            w = (lam[0] + j, lam[1])
            for v in vectors:
                f = _at(v, j)
                residual = eigen_residual(alg, x, f, w)
                if shift.check(residual == ZERO_FORM):
                    lifted.setdefault(w, []).append(f)
                elif j == i:
                    raise AssertionError("eigenvector failed exact "
                                         "re-verification")
                else:
                    shift.fail([render_flat(alg.labels, m, g) for g in (x, f)]
                               + [render_pair(w)],
                               render_flat(alg.labels, m, residual), "0")
    interior = interior_indices(window, x)
    for slot in (window.c_slot, window.d_slot):
        if slot in interior:
            reverify(alg, x, window.flats[slot], (0, 0))
            lifted.setdefault((0, 0), []).append(window.flats[slot])
    if jordan:
        i, w, v, u = jordan
        w, v, u = (w[0] + i, w[1]), _at(v, i), _at(u, i)
        if (eigen_residual(alg, x, v, w) != u
                or eigen_residual(alg, x, u, w) != ZERO_FORM):
            raise AssertionError("Jordan pair failed exact re-verification")
        # (ad x - w) v = u != 0 and (ad x - w) u = 0: ad x is not
        # diagonalizable, whatever the window
        jordan = {"w": render_pair(w), "v": render_flat(alg.labels, m, v),
                  "u": render_flat(alg.labels, m, u)}
    spaces = [WeightSpace(w, lifted[w]) for w in sorted(lifted)]
    short = len(interior) - sum(sp.dim for sp in spaces)
    classes = {}
    for i, lam, vectors in found:
        sp = WeightSpace(lam, [_at(v, 0) for v in vectors])
        classes[(i, sp.w)] = sp
    return WeightDecomp(x, window, spaces, not short, interior, short or None,
                        classes, jordan), shift


def _class_name(key):
    """A slice eigenspace (i, w) as text: (g_i)_w."""
    i, w = key
    return f"(g_{i})_{render_pair(w)}"


def opposite_on_g(decomp):
    """The opposite lemma on every degree, for a decomposition decided on
    g: dim (g_i)_w = dim (g_-i)_-w for each slice eigenspace (`mirrored`),
    and the form pairs (g_i)_w with (g_k)_u to 0 where i + k = 0 mod m and
    w + u != 0 (`orthogonal`; the form pairs degree j only with -j, so no
    other pair can meet)."""
    alg, m, classes = decomp.window.alg, decomp.window.m, decomp.classes
    rep = Report()
    for (i, w), sp in classes.items():
        mirrored(rep, sp, classes.get((-i % m, (-w[0], -w[1]))),
                 _class_name((i, w)))
    for (i, w1), sp1 in classes.items():
        for (k, w2), sp2 in classes.items():
            if (i + k) % m == 0 and (w1[0] + w2[0] or w1[1] + w2[1]):
                orthogonal(rep, alg, m, sp1, sp2)
    return rep


def zero_weight_on_g(decomp):
    """(g_0)_0 != 0, the zero-weight lemma on every degree."""
    window = decomp.window
    rep = Report()
    zero = decomp.classes.get((0, (0, 0)))
    if not rep.check(zero is not None and bool(zero.loop)):
        rep.fail([render_flat(window.alg.labels, window.m, decomp.x)],
                 "(g_0)_0 = 0", [_class_name(key) for key in decomp.classes])
    return rep


def product_rule_on_g(decomp):
    """[(g_i)_w1, (g_k)_w2] in (g_{i+k})_{w1+w2}, the product rule on every
    degree, in at most (dim g)^2 brackets (`closed`, on the degree-0 terms
    of `WeightSpace.loop`)."""
    alg, m, classes = decomp.window.alg, decomp.window.m, decomp.classes
    rep = Report()
    for (i, w1), sp1 in classes.items():
        for (k, w2), sp2 in classes.items():
            key = ((i + k) % m, (w1[0] + w2[0], w1[1] + w2[1]))
            closed(rep, alg, m, sp1, sp2, classes.get(key), _class_name(key))
    return rep
