"""Exact linear algebra over Q(zeta_m) by sparse-row elimination.

Vectors and matrix rows are sparse {index: (a, b)} dicts of pairs
a + b*zeta, the number format of `scalars.pair_mul`, and never store a
zero; a matrix is a list of such rows, and a square n x n matrix has n
rows (empty ones included) over the columns 0..n-1.  Eigenvalues and
polynomial coefficients are pairs too.  A pair carries its field (b = 0
unless m = 3) and its arithmetic is the same at every order, so no
function here takes the order m.  Everything here is plain Gaussian
elimination over the field: no pivot-size heuristics, no floating point.
There is one elimination, `SpanSolver`: `rref` reads its rows, and
`rank`, `kernel_basis` and `solve` read `rref`.  Every row update, the
Hessenberg reduction of `charpoly` included, goes through
`scalars.add_products` (its column operation through `scalars._add_pair`)
and touches only nonzero entries.  `unit_coords` reads coordinates over
a basis with unit columns, such as those of `kernel_basis`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import _add_pair, add_products, pair_inv, pair_mul

ZERO, ONE = (0, 0), (1, 0)


def shifted(mat, w):
    """mat - w I, for a square matrix."""
    out = []
    for i, row in enumerate(mat):
        a, b = row.get(i, ZERO)
        row = {j: y for j, y in row.items() if j != i}
        if a != w[0] or b != w[1]:
            row[i] = (a - w[0], b - w[1])
        out.append(row)
    return out


def mat_vec(columns, v):
    """Product of a matrix, given as its list of sparse columns, with a
    vector: the sum of v_j * columns[j] over the entries of v."""
    out = {}
    for j, x in v.items():
        add_products(out, x, columns[j])
    return out


def rref(mat):
    """Reduced row echelon form: (its nonzero rows, pivot-column list), the
    row at position i having its leading 1 in column pivots[i].

    The rows are those of a `SpanSolver` fed the rows of `mat`, in pivot
    order; the form is unique, so row order and empty rows do not matter.
    """
    solver = SpanSolver()
    for row in mat:
        solver.add(row)
    pivots = sorted(solver._rows)
    return [solver._rows[p] for p in pivots], pivots


def rank(mat):
    return len(rref(mat)[1])


def kernel_basis(mat, n):
    """Basis of the right kernel of `mat` over the unknowns 0..n-1, one
    vector per free column, in column order.  That is its unit column: its
    largest key, where it is 1 and no other vector of the basis has a key."""
    rows, pivots = rref(mat)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = {f: ONE}
        for row, p in zip(rows, pivots):
            x = row.get(f)
            if x is not None:
                v[p] = (-x[0], -x[1])
        basis.append(v)
    return basis


def solve(mat, rhs):
    """One solution of mat*x = rhs (free unknowns zero), or None if
    inconsistent.  `rhs` is a vector over the row indices."""
    col = 1 + max((j for row in mat for j in row), default=-1)
    aug = [{**row, col: rhs[i]} if i in rhs else row
           for i, row in enumerate(mat)]
    rows, pivots = rref(aug)
    if col in pivots:
        return None
    return {p: row[col] for row, p in zip(rows, pivots) if col in row}


def unit_coords(basis, units, vec):
    """Coordinates {k: pair} of `vec` over `basis`, or None off its span:
    read at the unit columns units[k] = max(basis[k]) (see `kernel_basis`),
    then the residual is checked."""
    coords = {k: vec[u] for k, u in enumerate(units) if u in vec}
    residual = dict(vec)
    for k, (a, b) in coords.items():
        add_products(residual, (-a, -b), basis[k])
    return None if residual else coords


class SpanSolver:
    """Incremental row-reduced span of vectors, for membership.

    Rows are kept in reduced echelon form, keyed by their pivot column.
    Columns are any mutually comparable keys: window slots, or (index,
    degree) monomials.
    """

    def __init__(self):
        self._rows = {}  # pivot -> reduced row
        self._added = []  # added vectors; one that enlarged nothing as {}

    def _reduce(self, vec):
        """Residual of `vec` modulo the span.  Rows vanish at each other's
        pivots: `vec` gives every factor."""
        v = dict(vec)
        for p in [p for p in v if p in self._rows]:
            a, b = v[p]
            add_products(v, (-a, -b), self._rows[p])
        return v

    def add(self, vec):
        """Add a vector; returns True if it enlarged the span."""
        v = self._reduce(vec)
        self._added.append(vec if v else {})
        if not v:
            return False
        p = min(v)
        v = add_products({}, pair_inv(v[p]), v)
        for row in self._rows.values():
            if p in row:
                a, b = row[p]
                add_products(row, (-a, -b), v)
        self._rows[p] = v
        return True

    @property
    def rank(self):
        return len(self._rows)

    def contains(self, vec):
        return not self._reduce(vec)

    def coords(self, vec):
        """Coefficients over the added vectors, or None if not in the span,
        by `solve`: a vector kept as {} is a free unknown and gets none."""
        keys = list(set(vec).union(*self._added))
        mat = [{j: v[key] for j, v in enumerate(self._added) if key in v}
               for key in keys]
        return solve(mat, {r: vec[key] for r, key in enumerate(keys)
                           if key in vec})


def charpoly(mat):
    """Characteristic polynomial det(xI - M), lowest degree first.

    Computed by exact similarity reduction to upper Hessenberg form and the
    leading-principal-minor recurrence for Hessenberg matrices.
    """
    n = len(mat)
    if n == 0:
        return [ONE]
    h = [dict(row) for row in mat]
    for c in range(n - 2):
        pivot = next((r for r in range(c + 1, n) if c in h[r]), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            h[c + 1], h[pivot] = h[pivot], h[c + 1]
            swap = {c + 1: pivot, pivot: c + 1}
            h = [{swap.get(j, j): x for j, x in row.items()} for row in h]
        inv = pair_inv(h[c + 1][c])
        for r in range(c + 2, n):
            if c in h[r]:
                f = pair_mul(h[r][c], inv)
                add_products(h[r], (-f[0], -f[1]), h[c + 1])
                # column op: col[c+1] += f * col[r]
                for row in h:
                    if r in row:
                        _add_pair(row, c + 1, *pair_mul(f, row[r]))

    def minus(poly, coef, other):
        """poly - coef * other, coefficientwise (other no longer)."""
        out = list(poly)
        for j, y in enumerate(other):
            pa, pb = pair_mul(coef, y)
            out[j] = (out[j][0] - pa, out[j][1] - pb)
        return out

    # p_k(x) = (x - h[k][k]) p_{k-1}(x) - sum_i h[i][k] (prod subdiag) p_{i-1}(x)
    polys = [[ONE]]
    for k in range(n):
        prev = polys[k]
        term = minus([ZERO] + prev, h[k].get(k, ZERO), prev)
        sub = ONE
        for i in range(k - 1, -1, -1):
            sub = pair_mul(sub, h[i + 1].get(i, ZERO))
            if sub == ZERO:
                break
            if k in h[i]:
                term = minus(term, pair_mul(h[i][k], sub), polys[i])
        polys.append(term)
    return polys[n]


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_roots(poly):
    """All rational roots (as pairs) with multiplicities.  With zeta parts,
    a + b*zeta vanishes at a rational x only where a and b both do."""
    if any(b for _, b in poly):
        rat, zeta = ([(x[k], 0) for x in poly] for k in (0, 1))
        if not any(a for a, _ in rat):
            return rational_roots(zeta)
        both = dict(rational_roots(zeta))
        return [(r, min(k, both[r])) for r, k in rational_roots(rat)
                if r in both]
    coeffs = [a for a, _ in poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    roots = []
    # factor out x^k
    k = 0
    while k < len(coeffs) and coeffs[k] == 0:
        k += 1
    if k:
        roots.append((ZERO, k))
        coeffs = coeffs[k:]
    if len(coeffs) <= 1:
        return roots
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    a0, an = ints[0], ints[-1]
    candidates = set()
    denominators = _divisors(an)
    for p in _divisors(a0):
        for q in denominators:
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    for cand in sorted(candidates):
        mult = 0
        while len(ints) > 1 and (quot := _deflate(
                ints, cand.numerator, cand.denominator)) is not None:
            ints = quot
            mult += 1
        if mult:
            root = cand.numerator if cand.denominator == 1 else cand
            roots.append(((root, 0), mult))
    return roots


def _deflate(ints, p, q):
    """Quotient of an integer polynomial by (q x - p), or None when p/q (in
    lowest terms) is no root.  Carries b_j q^(n-j), so the remainder is
    sum a_i p^i q^(n-i); when it is zero, each b_j is an integer (Gauss's
    lemma) and q^(n-j) divides out exactly."""
    n = len(ints) - 1
    scaled, acc = [0] * n, 0
    for j in range(n, 0, -1):
        acc = acc * p + ints[j] * q ** (n - j)
        scaled[j - 1] = acc
    if acc * p + ints[0] * q ** n:
        return None
    return [b // q ** (n - j) for j, b in enumerate(scaled)]


def _blocks(mat, n):
    """Column lists of the connected components of the square block (the
    first n rows) of `mat`, each ascending, in order of its first column:
    square row i joins column i and its columns, a later row its columns."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, row in enumerate(mat):
        anchor = i if i < n else next(iter(row), None)
        for j in row:
            root[find(j)] = find(anchor)
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def rational_eigenvalues(mat):
    """Distinct rational roots of the characteristic polynomial of a square
    matrix, zero first and then ascending, as `rational_roots` lists them.

    The polynomial is the product of those of the matrix's diagonal
    blocks, so each block is searched alone.  That keeps each constant
    term, whose divisors the search tries, small: one degree-0 x with a
    nilpotent part on a2_twisted gives a 22-digit constant term for its
    whole interior.
    """
    found = []
    for block in _blocks(mat, len(mat)):
        index = {i: k for k, i in enumerate(block)}
        sub = [{index[j]: x for j, x in mat[i].items()} for i in block]
        for root, _ in rational_roots(charpoly(sub)):
            if root not in found:
                found.append(root)
    return sorted(found, key=lambda w: (w[0] != 0, w[0]))


def eigenspaces(mat, n):
    """Exact eigenspaces of the square block of `mat`, the one place where
    candidate eigenvalues are tried.

    The first n rows of `mat` are a square block over the unknowns
    0..n-1; any further rows must also vanish on every eigenvector.  The
    kernel of the block minus w I over those rows is the direct sum of its
    kernels on the components of `_blocks`, so each candidate w costs one
    kernel per component.  A component tries its own diagonal entries,
    then, while its dimensions sum to less than its size, every diagonal
    entry (the only source of zeta-valued weights off its own diagonal)
    and its own rational eigenvalues; eigenspaces of distinct weights are
    independent, so once it is full any further kernel would be zero.
    Returns (spaces, complete): spaces is a list of (eigenvalue, basis) in
    candidate order (the diagonal entries, then the roots, zero first and
    ascending), one
    basis vector per free column, in column order; `complete` says that
    the dimensions sum to n.  Each basis keeps the unit columns of
    `kernel_basis`, as components share no column.  A 1 x 1 component that
    no further row touches is its diagonal entry with its unit vector,
    which is what its kernel would give.
    """
    order = {}
    for i, row in enumerate(mat[:n]):
        order.setdefault(row.get(i, ZERO), len(order))
    blocks = _blocks(mat, n)
    where = {j: b for b, block in enumerate(blocks) for j in block}
    extra = [[] for _ in blocks]
    for row in mat[n:]:
        if row:
            extra[where[next(iter(row))]].append(row)
    found = {}
    for block, rest in zip(blocks, extra):
        if len(block) == 1 and not rest:
            # a lone column is its own eigenvector: no kernel to solve
            j = block[0]
            found.setdefault(mat[j].get(j, ZERO), []).append({j: ONE})
            continue
        index = {j: k for k, j in enumerate(block)}
        square = [{index[j]: x for j, x in mat[i].items()} for i in block]
        rest = [{index[j]: x for j, x in row.items()} for row in rest]
        seen = set()
        size = short = len(block)

        def sweep(ws):
            nonlocal short
            for w in ws:
                if not short:
                    return
                if w not in seen:
                    seen.add(w)
                    for v in kernel_basis(shifted(square, w) + rest, size):
                        found.setdefault(w, []).append(
                            {block[k]: x for k, x in v.items()})
                        short -= 1

        sweep([row.get(k, ZERO) for k, row in enumerate(square)])
        sweep(order)
        if short:
            sweep(rational_eigenvalues(square))
    spaces = sorted(found.items(), key=lambda item: (0, order[item[0]])
                    if item[0] in order else (1, item[0][0] != 0, item[0][0]))
    return ([(w, sorted(basis, key=max)) for w, basis in spaces],
            sum(len(basis) for _, basis in spaces) == n)


def joint_eigenspaces(mats, n):
    """Simultaneous eigenspace refinement for a commuting family.

    Each matrix has the row layout of `eigenspaces`: a square block over
    the unknowns 0..n-1, then rows that must vanish on every eigenvector.
    The eigenspaces of the first operator are the starting spaces; each
    later operator is read once into its columns and restricted to every
    current space: the image of a basis vector v is the sum of v_j times
    column j (`mat_vec`), expressed in the space's basis by `unit_coords`,
    and its eigenspaces there refine the space.  An image with an entry in
    a row after the square block is not in the space, which counts as a
    defect.  Refined basis vectors are rebuilt in the ambient space from
    the old basis vectors, again through `mat_vec`: each is 1 times the
    old vector at its own unit column plus old ones of lower unit columns,
    so the unit columns carry over.

    Returns (spaces, defect) where spaces is a list of
    (weight-tuple, basis-of-ambient-vectors); defect is None on success or
    the index of the first operator whose restriction fails to
    diagonalize over the implemented field.
    """
    spaces, complete = eigenspaces(mats[0], n)
    if not complete:
        return [], 0
    current = [([w], basis) for w, basis in spaces]
    for op_index, mat in enumerate(mats[1:], 1):
        columns = [{} for _ in range(n)]
        for i, row in enumerate(mat):
            for j, x in row.items():
                columns[j][i] = x
        refined = []
        for weights, basis in current:
            # restriction of `mat` to span(basis), read at its unit columns
            units = [max(v) for v in basis]
            restricted = [{} for _ in basis]
            for j, v in enumerate(basis):
                coords = unit_coords(basis, units, mat_vec(columns, v))
                if coords is None:
                    return [], op_index
                for i, x in coords.items():
                    restricted[i][j] = x
            spaces, complete = eigenspaces(restricted, len(basis))
            if not complete:
                return [], op_index
            for w, sub in spaces:
                refined.append((weights + [w],
                                [mat_vec(basis, coeffs) for coeffs in sub]))
        current = refined
    return [(tuple(w), basis) for w, basis in current], None
