"""Exact linear algebra over Q(zeta_m) by sparse-row elimination.

Matrices are lists of dense rows of CycScalar.  Everything here is plain
Gaussian elimination over the field: no pivot-size heuristics, no floating
point.  `rref` and `SpanSolver` eliminate on sparse rows ({column: entry}
dicts without zeros) through one row update, `_subtract`, which touches
only the pivot row's nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import CycScalar, as_scalar


def zeros(rows, cols, m):
    z = CycScalar.zero(m)
    return [[z] * cols for _ in range(rows)]


def identity(n, m):
    z, o = CycScalar.zero(m), CycScalar.one(m)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_mul(a, b, m):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols, m)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] = oi[j] + aik * bk[j]
    return out


def _sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def sparse_rows(a):
    """Rows of `a` as {column: entry} dicts, zeros dropped."""
    return [_sparse(row) for row in a]


def mat_vec(rows, v, m):
    """Product of a matrix, given as `sparse_rows`, with a dense vector."""
    zero = CycScalar.zero(m)
    out = [zero] * len(rows)
    for i, row in enumerate(rows):
        acc = zero
        for j, x in row.items():
            y = v[j]
            if y:
                acc = acc + x * y
        out[i] = acc
    return out


def _subtract(row, f, pivot_row):
    """row -= f * pivot_row on sparse {column: entry} rows, in place.

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
    """Reduced row echelon form; returns (rows, pivot-column list).

    Takes and returns dense rows; the elimination runs on sparse rows.
    """
    rows = sparse_rows(mat)
    nrows = len(rows)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
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
    dense = zeros(nrows, ncols, m)
    for out, row in zip(dense, rows):
        for j, x in row.items():
            out[j] = x
    return dense, pivots


def rank(mat, m):
    return len(rref(mat, m)[1])


def kernel_basis(mat, m):
    """Basis of the right kernel of `mat` (columns = unknowns)."""
    ncols = len(mat[0]) if mat else 0
    rows, pivots = rref(mat, m)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    zero, one = CycScalar.zero(m), CycScalar.one(m)
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return basis


def solve(mat, rhs, m):
    """One solution of mat*x = rhs, or None if inconsistent."""
    ncols = len(mat[0]) if mat else 0
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    rows, pivots = rref(aug, m)
    if ncols in pivots:
        return None
    x = [CycScalar.zero(m)] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return x


class SpanSolver:
    """Incremental row-reduced span of vectors, for membership and coords.

    Rows are kept in reduced echelon form, as sparse dicts keyed by their
    pivot column, together with the sparse expression of each row in terms
    of the originally added vectors, so `coords` can report exact
    coefficients.
    """

    def __init__(self, dim, m):
        self.dim = dim
        self.m = m
        self._rows = {}  # pivot -> (reduced row, its coords over added vectors)
        self.count = 0

    def _reduce(self, vec, coords=None):
        """Residual of `vec` modulo the span, updating `coords` if given.
        Rows vanish at each other's pivots: `vec` gives every factor."""
        v = _sparse(vec)
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
        out = [CycScalar.zero(self.m)] * self.count
        for k, x in c.items():
            out[k] = -x
        return out


def same_span(vectors_a, vectors_b, m, dim):
    sa = SpanSolver(dim, m)
    for v in vectors_a:
        sa.add(v)
    sb = SpanSolver(dim, m)
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
    h = [list(row) for row in mat]
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


def eigenspaces(mat, m, candidates=()):
    """Exact eigenspaces of a square matrix.

    Candidate eigenvalues are the diagonal entries, any caller-provided
    values, and the rational roots of the characteristic polynomial when
    the diagonal harvest does not already certify completeness.  Returns
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
        shifted = [[mat[i][j] - w if i == j else mat[i][j] for j in range(n)]
                   for i in range(n)]
        basis = kernel_basis(shifted, m)
        if basis:
            spaces.append((w, basis))
            total += len(basis)

    for i in range(n):
        try_candidate(mat[i][i])
    for w in candidates:
        if total >= n:
            break
        try_candidate(as_scalar(m, w))
    if total < n:
        for root, _ in rational_roots(charpoly(mat, m), m):
            try_candidate(root)
    return spaces, total == n


def joint_eigenspaces(mats, m, candidates=()):
    """Simultaneous eigenspace refinement for a commuting family.

    The eigenspaces of the first operator are the starting spaces; each
    later operator is restricted to every current space (images through
    `mat_vec` on its sparse rows, expressed in the space's basis) and its
    eigenspaces there refine the space.  Refined basis vectors are rebuilt
    in the ambient space from the nonzero entries of the old basis only.

    Returns (spaces, defect) where spaces is a list of
    (weight-tuple, basis-of-ambient-vectors); defect is None on success or
    the index of the first operator whose restriction fails to
    diagonalize over the implemented field.
    """
    n = len(mats[0])
    spaces, complete = eigenspaces(mats[0], m, candidates)
    if not complete:
        return [], 0
    current = [([w], basis) for w, basis in spaces]
    for op_index, mat in enumerate(mats[1:], 1):
        rows = sparse_rows(mat)
        refined = []
        for weights, basis in current:
            k = len(basis)
            # restriction of `mat` to span(basis): solve in the basis
            solver = SpanSolver(n, m)
            for v in basis:
                solver.add(v)
            restricted_cols = []
            for v in basis:
                coords = solver.coords(mat_vec(rows, v, m))
                if coords is None:
                    return [], op_index
                restricted_cols.append(coords)
            restricted = [[restricted_cols[j][i] for j in range(k)] for i in range(k)]
            spaces, complete = eigenspaces(restricted, m, candidates)
            if not complete:
                return [], op_index
            support = sparse_rows(basis)
            for w, sub in spaces:
                ambient = []
                for coeffs in sub:
                    vec = [CycScalar.zero(m)] * n
                    for coef, entries in zip(coeffs, support):
                        if coef:
                            for i, y in entries.items():
                                vec[i] = vec[i] + coef * y
                    ambient.append(vec)
                refined.append((weights + [w], ambient))
        current = refined
    return [(tuple(w), basis) for w, basis in current], None


def generalized_eigenspace(mat, w, mult, m):
    n = len(mat)
    shifted = [[mat[i][j] - w if i == j else mat[i][j] for j in range(n)]
               for i in range(n)]
    power = identity(n, m)
    for _ in range(mult):
        power = mat_mul(shifted, power, m)
    return kernel_basis(power, m)


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
    cols = []
    diag = []
    for w, mult in found.items():
        basis = generalized_eigenspace(mat, w, mult, m)
        if len(basis) != mult:
            raise ValueError("generalized eigenspace dimension mismatch")
        cols.extend(basis)
        diag.extend([w] * mult)
    # change of basis: columns of P are the generalized eigenvectors
    p = [[cols[j][i] for j in range(n)] for i in range(n)]
    p_inv = invert(p, m)
    d = [[diag[i] if i == j else CycScalar.zero(m) for j in range(n)] for i in range(n)]
    s = mat_mul(mat_mul(p, d, m), p_inv, m)
    nmat = [[mat[i][j] - s[i][j] for j in range(n)] for i in range(n)]
    return s, nmat


def invert(mat, m):
    n = len(mat)
    aug = [list(row) + list(irow) for row, irow in zip(mat, identity(n, m))]
    rows, pivots = rref(aug, m)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows[:n]]
