"""Exact linear algebra over Q(zeta_m) by sparse-row elimination.

Vectors and matrix rows are sparse {index: CycScalar} dicts that never
store a zero; a matrix is a list of such rows, and a square n x n matrix
has n rows (empty ones included) over the columns 0..n-1.  Every public
function takes the root-of-unity order m last, also where no scalar needs
to be built from it.  Everything here is plain Gaussian elimination over
the field: no pivot-size heuristics, no floating point.  `rref` and
`SpanSolver` share one row update, `_subtract`, which touches only the
pivot row's nonzero entries.  Only `charpoly` works on dense rows, through
`_dense`, because its Hessenberg reduction fills them in.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce

from .scalars import CycScalar, as_scalar


def identity(n, m):
    one = CycScalar.one(m)
    return [{i: one} for i in range(n)]


def shifted(mat, w, m):
    """mat - w I, for a square matrix."""
    zero = CycScalar.zero(m)
    out = []
    for i, row in enumerate(mat):
        x = row.get(i, zero) - w
        row = {j: y for j, y in row.items() if j != i}
        if x:
            row[i] = x
        out.append(row)
    return out


def _dense(mat, m):
    """The square matrix as dense rows, for the Hessenberg reduction."""
    n = len(mat)
    out = [[CycScalar.zero(m)] * n for _ in range(n)]
    for dense, row in zip(out, mat):
        for j, x in row.items():
            dense[j] = x
    return out


def mat_mul(a, b, m):
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            _subtract(acc, -x, b[k])
        out.append(acc)
    return out


def mat_vec(rows, v, m):
    """Product of a matrix with a vector."""
    out = {}
    for i, row in enumerate(rows):
        products = [x * v[j] for j, x in row.items() if j in v]
        if products:
            acc = reduce(operator.add, products)
            if acc:
                out[i] = acc
    return out


def _subtract(row, f, pivot_row):
    """row -= f * pivot_row, in place.

    Only the pivot row's entries are touched, and an entry that cancels is
    deleted, so a sparse row never stores a zero.
    """
    for j, y in pivot_row.items():
        x = row.get(j)
        if x is None:
            row[j] = -(f * y)
            continue
        x = x - f * y
        if x:
            row[j] = x
        else:
            del row[j]


def rref(mat, m):
    """Reduced row echelon form: (its nonzero rows, pivot-column list), the
    row at position i having its leading 1 in column pivots[i].

    The pivot of column c is the first remaining row with an entry there;
    the result is unique, so row order and empty rows do not matter.
    """
    rows = [dict(row) for row in mat if row]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in sorted(set().union(*rows)):
        pivot = next((i for i in range(r, nrows) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = prow = {j: x * inv for j, x in rows[r].items()}
        for i in range(nrows):
            if i != r and c in rows[i]:
                _subtract(rows[i], rows[i][c], prow)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def rank(mat, m):
    return len(rref(mat, m)[1])


def kernel_basis(mat, n, m):
    """Basis of the right kernel of `mat` over the unknowns 0..n-1, one
    vector per free column, in column order."""
    rows, pivots = rref(mat, m)
    pivot_set = set(pivots)
    one = CycScalar.one(m)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = {f: one}
        for row, p in zip(rows, pivots):
            x = row.get(f)
            if x is not None:
                v[p] = -x
        basis.append(v)
    return basis


def solve(mat, rhs, m):
    """One solution of mat*x = rhs (free unknowns zero), or None if
    inconsistent.  `rhs` is a vector over the row indices."""
    col = 1 + max((j for row in mat for j in row), default=-1)
    aug = [{**row, col: rhs[i]} if i in rhs else row
           for i, row in enumerate(mat)]
    rows, pivots = rref(aug, m)
    if col in pivots:
        return None
    return {p: row[col] for row, p in zip(rows, pivots) if col in row}


class SpanSolver:
    """Incremental row-reduced span of vectors, for membership and coords.

    Rows are kept in reduced echelon form, keyed by their pivot column,
    together with the expression of each row in terms of the originally
    added vectors (numbered from 0), so `coords` can report exact
    coefficients.
    """

    def __init__(self, m):
        self.m = m
        self._rows = {}  # pivot -> (reduced row, its coords over added vectors)
        self.count = 0

    def _reduce(self, vec, coords=None):
        """Residual of `vec` modulo the span, updating `coords` if given.
        Rows vanish at each other's pivots: `vec` gives every factor."""
        v = dict(vec)
        for p in [p for p in v if p in self._rows]:
            row, rc = self._rows[p]
            f = v[p]
            _subtract(v, f, row)
            if coords is not None:
                _subtract(coords, f, rc)
        return v

    def add(self, vec):
        """Add a vector; returns True if it enlarged the span."""
        c = {self.count: CycScalar.one(self.m)}
        self.count += 1
        v = self._reduce(vec, c)
        if not v:
            return False
        p = min(v)
        inv = v[p].inverse()
        v = {j: x * inv for j, x in v.items()}
        c = {k: x * inv for k, x in c.items()}
        for row, rc in self._rows.values():
            if p in row:
                f = row[p]
                _subtract(row, f, v)
                _subtract(rc, f, c)
        self._rows[p] = (v, c)
        return True

    @property
    def rank(self):
        return len(self._rows)

    def contains(self, vec):
        return not self._reduce(vec)

    def coords(self, vec):
        """Coefficients over the added vectors, or None if not in the span."""
        c = {}
        if self._reduce(vec, c):
            return None
        return {k: -x for k, x in c.items()}


def same_span(vectors_a, vectors_b, m):
    sa = SpanSolver(m)
    for v in vectors_a:
        sa.add(v)
    sb = SpanSolver(m)
    for v in vectors_b:
        sb.add(v)
    if sa.rank != sb.rank:
        return False
    return all(sa.contains(v) for v in vectors_b)


def charpoly(mat, m):
    """Characteristic polynomial det(xI - M), lowest degree first.

    Computed by exact similarity reduction to upper Hessenberg form and the
    leading-principal-minor recurrence for Hessenberg matrices.
    """
    n = len(mat)
    zero, one = CycScalar.zero(m), CycScalar.one(m)
    if n == 0:
        return [one]
    h = _dense(mat, m)
    for c in range(n - 2):
        pivot = next((r for r in range(c + 1, n) if h[r][c]), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            h[c + 1], h[pivot] = h[pivot], h[c + 1]
            for row in h:
                row[c + 1], row[pivot] = row[pivot], row[c + 1]
        inv = h[c + 1][c].inverse()
        for r in range(c + 2, n):
            if h[r][c]:
                f = h[r][c] * inv
                h[r] = [x - f * y for x, y in zip(h[r], h[c + 1])]
                # column op: col[c+1] += f * col[r]
                for row in h:
                    row[c + 1] = row[c + 1] + f * row[r]
    # p_k(x) = (x - h[k][k]) p_{k-1}(x) - sum_i h[i][k] (prod subdiag) p_{i-1}(x)
    polys = [[one]]
    for k in range(n):
        prev = polys[k]
        term = [zero] + prev
        term = [t - h[k][k] * p for t, p in zip(term, prev + [zero])]
        sub = one
        for i in range(k - 1, -1, -1):
            sub = sub * h[i + 1][i]
            if h[i][k] and sub:
                coefp = h[i][k] * sub
                pi = polys[i]
                term = [t - coefp * (pi[j] if j < len(pi) else zero)
                        for j, t in enumerate(term)]
        polys.append(term)
    return polys[n]


def poly_eval(poly, x):
    acc = CycScalar.zero(x.m)
    for coef in reversed(poly):
        acc = acc * x + coef
    return acc


def poly_divmod_linear(poly, root):
    """Divide poly by (x - root) via synthetic division; (quotient, rem)."""
    m = root.m
    n = len(poly) - 1
    quot = [CycScalar.zero(m)] * n
    carry = poly[n]
    for j in range(n - 1, -1, -1):
        quot[j] = carry
        carry = poly[j] + carry * root
    return quot, carry


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


def rational_roots(poly, m):
    """All rational roots (as CycScalar) with multiplicities.

    Requires every coefficient to be rational; returns [] when the
    polynomial has zeta-part coefficients (out of reach of this search).
    """
    if any(c.b for c in poly):
        return []
    coeffs = [c.a for c in poly]
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
        roots.append((CycScalar.zero(m), k))
        coeffs = coeffs[k:]
    if len(coeffs) <= 1:
        return roots
    den = 1
    for c in coeffs:
        den = den * c.denominator // _gcd(den, c.denominator)
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
            roots.append((CycScalar(m, cand), mult))
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


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _blocks(mat):
    """Index lists of the diagonal blocks of a square matrix: the connected
    components of the graph with an edge i - j for each nonzero entry."""
    root = list(range(len(mat)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, row in enumerate(mat):
        for j in row:
            root[find(i)] = find(j)
    blocks = {}
    for i in range(len(mat)):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def rational_eigenvalues(mat, m):
    """Distinct rational roots of the characteristic polynomial of a square
    matrix, zero first and then ascending, as `rational_roots` lists them.

    The polynomial is the product of those of the matrix's diagonal
    blocks, so each block is searched alone.  That keeps each constant
    term, whose divisors the search tries, small: one degree-0 x with a
    nilpotent part on a2_twisted gives a 22-digit constant term for its
    whole interior.
    """
    found = []
    for block in _blocks(mat):
        index = {i: k for k, i in enumerate(block)}
        sub = [{index[j]: x for j, x in mat[i].items()} for i in block]
        for root, _ in rational_roots(charpoly(sub, m), m):
            if root not in found:
                found.append(root)
    return sorted(found, key=lambda w: (w.a != 0, w.a))


def eigenspaces(mat, m, candidates=()):
    """Exact eigenspaces of a square matrix.

    Candidate eigenvalues are the diagonal entries, any caller-provided
    values, and the rational roots of the characteristic polynomial when
    the diagonal harvest does not already certify completeness
    (`rational_eigenvalues`).  Returns
    (spaces, complete) where spaces is a list of (eigenvalue, basis).
    """
    n = len(mat)
    if n == 0:
        return [], True
    seen = []
    spaces = []
    total = 0

    def try_candidate(w):
        nonlocal total
        if any(w == s for s in seen):
            return
        seen.append(w)
        basis = kernel_basis(shifted(mat, w, m), n, m)
        if basis:
            spaces.append((w, basis))
            total += len(basis)

    zero = CycScalar.zero(m)
    for i, row in enumerate(mat):
        try_candidate(row.get(i, zero))
    for w in candidates:
        if total >= n:
            break
        try_candidate(as_scalar(m, w))
    if total < n:
        for root in rational_eigenvalues(mat, m):
            try_candidate(root)
    return spaces, total == n


def joint_eigenspaces(mats, m, candidates=()):
    """Simultaneous eigenspace refinement for a commuting family.

    The eigenspaces of the first operator are the starting spaces; each
    later operator is restricted to every current space (images through
    `mat_vec`, expressed in the space's basis) and its eigenspaces there
    refine the space.  Refined basis vectors are rebuilt in the ambient
    space from the old basis vectors.

    Returns (spaces, defect) where spaces is a list of
    (weight-tuple, basis-of-ambient-vectors); defect is None on success or
    the index of the first operator whose restriction fails to
    diagonalize over the implemented field.
    """
    spaces, complete = eigenspaces(mats[0], m, candidates)
    if not complete:
        return [], 0
    current = [([w], basis) for w, basis in spaces]
    for op_index, mat in enumerate(mats[1:], 1):
        refined = []
        for weights, basis in current:
            # restriction of `mat` to span(basis): solve in the basis
            solver = SpanSolver(m)
            for v in basis:
                solver.add(v)
            restricted = [{} for _ in basis]
            for j, v in enumerate(basis):
                coords = solver.coords(mat_vec(mat, v, m))
                if coords is None:
                    return [], op_index
                for i, x in coords.items():
                    restricted[i][j] = x
            spaces, complete = eigenspaces(restricted, m, candidates)
            if not complete:
                return [], op_index
            for w, sub in spaces:
                ambient = []
                for coeffs in sub:
                    vec = {}
                    for i, coef in coeffs.items():
                        _subtract(vec, -coef, basis[i])
                    ambient.append(vec)
                refined.append((weights + [w], ambient))
        current = refined
    return [(tuple(w), basis) for w, basis in current], None


def generalized_eigenspace(mat, w, mult, m):
    n = len(mat)
    step = shifted(mat, w, m)
    power = identity(n, m)
    for _ in range(mult):
        power = mat_mul(step, power, m)
    return kernel_basis(power, n, m)


def jordan_split(mat, m, candidates=()):
    """Exact Jordan-Chevalley split M = S + N over Q(zeta_m).

    Finds eigenvalues via the characteristic polynomial (plus extra
    candidates), builds generalized eigenspaces, and assembles the
    semisimple part blockwise.  Raises ValueError when the characteristic
    polynomial does not split over the implemented field.
    """
    n = len(mat)
    poly = charpoly(mat, m)
    roots = rational_roots(poly, m)
    found = {w: mult for w, mult in roots}
    for w in candidates:
        w = as_scalar(m, w)
        if w in found:
            continue
        mult = 0
        poly_now = poly
        while len(poly_now) > 1 and not poly_eval(poly_now, w):
            poly_now, _ = poly_divmod_linear(poly_now, w)
            mult += 1
        if mult:
            found[w] = mult
    if sum(found.values()) != n:
        raise ValueError("characteristic polynomial does not split over Q(zeta_m)")
    # change of basis: the columns of P are the generalized eigenvectors
    p = [{} for _ in range(n)]
    d = []
    for w, mult in found.items():
        basis = generalized_eigenspace(mat, w, mult, m)
        if len(basis) != mult:
            raise ValueError("generalized eigenspace dimension mismatch")
        for v in basis:
            for i, x in v.items():
                p[i][len(d)] = x
            d.append({len(d): w} if w else {})
    s = mat_mul(mat_mul(p, d, m), invert(p, m), m)
    nmat = []
    for row, srow in zip(mat, s):
        row = dict(row)
        _subtract(row, CycScalar.one(m), srow)
        nmat.append(row)
    return s, nmat


def invert(mat, m):
    n = len(mat)
    one = CycScalar.one(m)
    aug = [{**row, n + i: one} for i, row in enumerate(mat)]
    rows, pivots = rref(aug, m)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [{j - n: x for j, x in row.items() if j >= n} for row in rows]
