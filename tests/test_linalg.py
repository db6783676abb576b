"""Exact linear algebra: kernels, characteristic polynomials, Jordan split."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from affinelie import linalg
from affinelie.scalars import CycScalar


def sparse_vec(vec):
    """A dense vector as the sparse {index: entry} dict `linalg` takes."""
    return {j: x for j, x in enumerate(vec) if x}


def sparse(mat):
    return [sparse_vec(row) for row in mat]


def dense_vec(vec, n, m):
    out = [CycScalar.zero(m)] * n
    for j, x in vec.items():
        out[j] = x
    return out


def dense(mat, n, m):
    return [dense_vec(row, n, m) for row in mat]


def rmat(entries, m=1):
    return sparse([[CycScalar(m, e) for e in row] for row in entries])


class TestKernelSolve:
    def test_kernel_of_rank_one(self):
        ker = linalg.kernel_basis(rmat([[1, 2, 3]]), 3, 1)
        assert len(ker) == 2
        for v in ker:
            s = CycScalar.zero(1)
            for c, e in zip(dense_vec(v, 3, 1), (1, 2, 3)):
                s = s + c * e
            assert not s

    def test_solve_consistent(self):
        x = linalg.solve(rmat([[2, 0], [1, 1]]), {0: CycScalar(1, 4), 1: CycScalar(1, 5)}, 1)
        assert x == {0: CycScalar(1, 2), 1: CycScalar(1, 3)}

    def test_solve_inconsistent(self):
        assert linalg.solve(rmat([[1], [1]]), {0: CycScalar(1, 1), 1: CycScalar(1, 2)}, 1) is None

    def test_invert_round_trip(self):
        rng = random.Random(3)
        mat = rmat([[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)])
        try:
            inv = linalg.invert(mat, 1)
        except ValueError:
            pytest.skip("random matrix was singular")
        assert linalg.mat_mul(mat, inv, 1) == linalg.identity(5, 1)

    def test_span_solver_membership_and_coords(self):
        sol = linalg.SpanSolver(1)
        v1 = sparse_vec([CycScalar(1, 1), CycScalar(1, 0), CycScalar(1, 2)])
        v2 = sparse_vec([CycScalar(1, 0), CycScalar(1, 1), CycScalar(1, 1)])
        assert sol.add(v1) and sol.add(v2)
        target = sparse_vec([CycScalar(1, 2), CycScalar(1, 3), CycScalar(1, 7)])
        coords = sol.coords(target)
        assert coords == {0: CycScalar(1, 2), 1: CycScalar(1, 3)}
        assert not sol.contains(sparse_vec([CycScalar(1, 0), CycScalar(1, 0), CycScalar(1, 1)]))


def poly_from_roots(roots, m=1):
    poly = [CycScalar.one(m)]
    for r in roots:
        nxt = [CycScalar.zero(m)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * CycScalar(m, r)
        poly = nxt
    return poly


class TestCharpoly:
    def test_known_roots(self):
        rng = random.Random(11)
        roots = [1, 1, -2, Fraction(1, 2)]
        # conjugate a diagonal matrix by a random invertible one
        n = len(roots)
        while True:
            p = rmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            try:
                pinv = linalg.invert(p, 1)
                break
            except ValueError:
                continue
        d = sparse([[CycScalar(1, roots[i]) if i == j else CycScalar.zero(1)
                     for j in range(n)] for i in range(n)])
        mat = linalg.mat_mul(linalg.mat_mul(p, d, 1), pinv, 1)
        assert linalg.charpoly(mat, 1) == poly_from_roots(roots)
        found = dict()
        for root, mult in linalg.rational_roots(linalg.charpoly(mat, 1), 1):
            found[root.rational()] = mult
        assert found == {Fraction(1): 2, Fraction(-2): 1, Fraction(1, 2): 1}

    def test_nilpotent(self):
        mat = rmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        poly = linalg.charpoly(mat, 1)
        assert poly == poly_from_roots([0, 0, 0])

    def test_rational_root_multiplicity(self):
        poly = poly_from_roots([3, 3, 3])
        assert linalg.rational_roots(poly, 1) == [(CycScalar(1, 3), 3)]


class TestEigen:
    def test_eigenspaces_complete(self):
        mat = rmat([[2, 1], [0, 3]])
        spaces, complete = linalg.eigenspaces(mat, 2, 1)
        assert complete and sorted(w.rational() for w, _ in spaces) == [2, 3]

    def test_defective_detected(self):
        mat = rmat([[1, 1], [0, 1]])
        _, complete = linalg.eigenspaces(mat, 2, 1)
        assert not complete

    def test_joint_eigenspaces(self):
        m1 = rmat([[1, 0], [0, 2]])
        m2 = rmat([[5, 0], [0, 5]])
        spaces, defect = linalg.joint_eigenspaces([m1, m2], 2, 1)
        assert defect is None
        weights = sorted((w[0].rational(), w[1].rational()) for w, _ in spaces)
        assert weights == [(1, 5), (2, 5)]

    def test_joint_defect_reports_operator(self):
        good = rmat([[1, 0], [0, 1]])
        bad = rmat([[0, 1], [0, 0]])
        _, defect = linalg.joint_eigenspaces([good, bad], 2, 1)
        assert defect == 1

    def test_joint_defective_first_operator(self):
        bad = rmat([[1, 1], [0, 1]])
        good = rmat([[1, 0], [0, 1]])
        assert linalg.joint_eigenspaces([bad, good], 2, 1) == ([], 0)

    def test_joint_first_operator_not_diagonal(self):
        # eigenvectors (1, 0) and (1, 1) of the first operator; the second
        # is the first plus 3, so the joint weights are (2, 5) and (3, 6)
        first = rmat([[2, 1], [0, 3]])
        second = rmat([[5, 1], [0, 6]])
        spaces, defect = linalg.joint_eigenspaces([first, second], 2, 1)
        assert defect is None
        weights = sorted((w[0].rational(), w[1].rational()) for w, _ in spaces)
        assert weights == [(2, 5), (3, 6)]
        for w, basis in spaces:
            for v in basis:
                for mat, wi in zip((first, second), w):
                    image = linalg.mat_vec(mat, v, 1)
                    assert image == {j: wi * x for j, x in v.items() if wi}


def dense_joint_eigenspaces(mats, m):
    """Identity-start joint refinement with dense products, kept as the
    reference for `linalg.joint_eigenspaces`; it calls `linalg` only for
    `SpanSolver` and `eigenspaces`, through dense/sparse conversions."""
    n = len(mats[0]) if mats else 0

    def dense_mat_vec(a, v):
        out = []
        for row in a:
            acc = CycScalar.zero(m)
            for x, y in zip(row, v):
                if x and y:
                    acc = acc + x * y
            out.append(acc)
        return out

    current = [([], dense(linalg.identity(n, m), n, m))]
    for op_index, mat in enumerate(mats):
        refined = []
        for weights, basis in current:
            k = len(basis)
            if k == 0:
                continue
            solver = linalg.SpanSolver(m)
            for v in basis:
                solver.add(sparse_vec(v))
            restricted_cols = []
            for v in basis:
                coords = solver.coords(sparse_vec(dense_mat_vec(mat, v)))
                if coords is None:
                    return [], op_index
                restricted_cols.append(dense_vec(coords, k, m))
            restricted = [[restricted_cols[j][i] for j in range(k)] for i in range(k)]
            spaces, complete = linalg.eigenspaces(sparse(restricted), k, m)
            if not complete:
                return [], op_index
            for w, sub in spaces:
                ambient = []
                for coeffs in (dense_vec(c, k, m) for c in sub):
                    vec = [CycScalar.zero(m)] * n
                    for coef, bvec in zip(coeffs, basis):
                        if coef:
                            vec = [x + coef * y for x, y in zip(vec, bvec)]
                    ambient.append(vec)
                refined.append((weights + [w], ambient))
        current = refined
    return [(tuple(w), basis) for w, basis in current], None


@st.composite
def commuting_family(draw, m):
    """P D_i P^-1 for a random invertible integer P and diagonal D_i with
    entries from a small pool, so eigenvalues repeat."""
    n = draw(st.integers(1, 4))
    count = draw(st.integers(1, 3))
    pool = [CycScalar(m, a, b) for a in range(-2, 3)
            for b in ((0,) if m == 1 else (0, 1))]
    p = [[CycScalar(m, draw(st.integers(-2, 2))) for _ in range(n)]
         for _ in range(n)]
    try:
        p_inv = linalg.invert(sparse(p), m)
    except ValueError:
        assume(False)
    mats = []
    for _ in range(count):
        d = [[CycScalar.zero(m)] * n for _ in range(n)]
        for i in range(n):
            d[i][i] = draw(st.sampled_from(pool))
        mats.append(linalg.mat_mul(linalg.mat_mul(sparse(p), sparse(d), m), p_inv, m))
    return mats


class TestJointEigenspacesProperty:
    @pytest.mark.parametrize("m", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_dense_reference(self, m, data):
        mats = data.draw(commuting_family(m))
        n = len(mats[0])
        got = linalg.joint_eigenspaces(mats, n, m)
        ref_spaces, ref_defect = dense_joint_eigenspaces(
            [dense(mat, n, m) for mat in mats], m)
        assert got == ([(w, [sparse_vec(v) for v in basis])
                        for w, basis in ref_spaces], ref_defect)
        spaces, defect = got
        if defect is None:
            assert sum(len(b) for _, b in spaces) == len(mats[0])
            for weights, basis in spaces:
                for v in basis:
                    for mat, w in zip(mats, weights):
                        image = linalg.mat_vec(mat, v, m)
                        assert image == {j: w * x for j, x in v.items() if w}


def dense_rref(mat, m):
    """The dense Gauss-Jordan elimination that `linalg.rref` replaced,
    kept as its reference: every entry of a row is updated."""
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def dense_kernel_basis(mat, m):
    ncols = len(mat[0]) if mat else 0
    rows, pivots = dense_rref(mat, m)
    basis = []
    for f in [c for c in range(ncols) if c not in pivots]:
        v = [CycScalar.zero(m)] * ncols
        v[f] = CycScalar.one(m)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return basis


def dense_solve(mat, rhs, m):
    ncols = len(mat[0]) if mat else 0
    rows, pivots = dense_rref([list(row) + [b] for row, b in zip(mat, rhs)], m)
    if ncols in pivots:
        return None
    x = [CycScalar.zero(m)] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return x


class DenseSpanSolver:
    """The dense incremental span that `linalg.SpanSolver` replaced, kept
    as its reference: dense rows and dense coordinate lists."""

    def __init__(self, dim, m):
        self.m = m
        self.rows, self.row_coords, self.pivots = [], [], []
        self.count = 0

    def _reduce(self, vec, coords):
        v, c = list(vec), list(coords)
        for row, rc, p in zip(self.rows, self.row_coords, self.pivots):
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
                c = [x - f * y for x, y in zip(c, rc)]
        return v, c

    def add(self, vec):
        zero = CycScalar.zero(self.m)
        coords = [zero] * self.count + [CycScalar.one(self.m)]
        for rc in self.row_coords:
            rc.append(zero)
        self.count += 1
        v, c = self._reduce(vec, coords)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        inv = v[p].inverse()
        v = [x * inv for x in v]
        c = [x * inv for x in c]
        for i, (row, rc) in enumerate(zip(self.rows, self.row_coords)):
            if row[p]:
                f = row[p]
                self.rows[i] = [x - f * y for x, y in zip(row, v)]
                self.row_coords[i] = [x - f * y for x, y in zip(rc, c)]
        at = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(at, v)
        self.row_coords.insert(at, c)
        self.pivots.insert(at, p)
        return True

    @property
    def rank(self):
        return len(self.rows)

    def contains(self, vec):
        v, _ = self._reduce(vec, [CycScalar.zero(self.m)] * self.count)
        return all(not x for x in v)

    def coords(self, vec):
        v, c = self._reduce(vec, [CycScalar.zero(self.m)] * self.count)
        if any(v):
            return None
        return [-x for x in c]


def combination(m, coefs, vectors, dim):
    out = [CycScalar.zero(m)] * dim
    for a, v in zip(coefs, vectors):
        out = [x + a * y for x, y in zip(out, v)]
    return out


@st.composite
def sparse_matrix(draw, m, nrows, ncols):
    """Mostly-zero rows over Q(zeta_m); some rows are combinations of
    earlier ones, and a column can be zero throughout."""
    zero = CycScalar.zero(m)
    nonzero = [CycScalar(m, a, b) for a in (-2, -1, Fraction(1, 2), 1, 3)
               for b in ((0,) if m == 1 else (0, 1))]
    empty = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.integers(0, 3)) == 0:
            picks = draw(st.lists(st.sampled_from(range(len(rows))),
                                  min_size=1, max_size=2))
            coefs = draw(st.lists(st.sampled_from(nonzero + [zero]),
                                  min_size=len(picks), max_size=len(picks)))
            rows.append(combination(m, coefs, [rows[i] for i in picks], ncols))
            continue
        rows.append([zero if j in empty or draw(st.integers(0, 2)) else
                     draw(st.sampled_from(nonzero)) for j in range(ncols)])
    return rows


@pytest.mark.parametrize("m", [1, 2, 3])
class TestSparseElimination:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rref_kernel_solve_match_dense(self, m, data):
        nrows = data.draw(st.integers(1, 6))
        ncols = data.draw(st.integers(1, 7))
        mat = data.draw(sparse_matrix(m, nrows, ncols))
        rows, pivots = linalg.rref(sparse(mat), m)
        dense_rows, dense_pivots = dense_rref(mat, m)
        # the sparse form lists the nonzero rows only
        assert (rows + [{}] * (nrows - len(rows)), pivots) == (sparse(dense_rows), dense_pivots)
        assert linalg.kernel_basis(sparse(mat), ncols, m) == [
            sparse_vec(v) for v in dense_kernel_basis(mat, m)]
        rhs = data.draw(sparse_matrix(m, 1, nrows))[0]
        x = dense_solve(mat, rhs, m)
        assert linalg.solve(sparse(mat), sparse_vec(rhs), m) == (
            None if x is None else sparse_vec(x))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_span_solver_matches_dense(self, m, data):
        dim = data.draw(st.integers(1, 7))
        added = data.draw(sparse_matrix(m, data.draw(st.integers(1, 6)), dim))
        probes = data.draw(sparse_matrix(m, 3, dim))
        probes.append(combination(m, [CycScalar(m, k) for k in (2, -1, 3)],
                                  added, dim))
        solver, reference = linalg.SpanSolver(m), DenseSpanSolver(dim, m)
        for v in added:
            assert solver.add(sparse_vec(v)) == reference.add(v)
            assert solver.rank == reference.rank
            for probe in probes + added:
                assert solver.contains(sparse_vec(probe)) == reference.contains(probe)
                coords = reference.coords(probe)
                assert solver.coords(sparse_vec(probe)) == (
                    None if coords is None else sparse_vec(coords))


def parent_rational_roots(poly, m):
    """The CycScalar root search that `linalg.rational_roots` replaced,
    kept as its reference."""

    def divisors(n):
        n = abs(n)
        return sorted({d for k in range(1, int(n ** 0.5) + 2) if k * k <= n
                       and n % k == 0 for d in (k, n // k)})

    coeffs = [c.a for c in poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    roots = []
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k:
        roots.append((CycScalar.zero(m), k))
        coeffs = coeffs[k:]
    if len(coeffs) <= 1:
        return roots
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    candidates = {Fraction(s * p, q) for p in divisors(ints[0])
                  for q in divisors(ints[-1]) for s in (1, -1)}
    poly_now = [CycScalar(m, c) for c in coeffs]
    for cand in sorted(candidates):
        root = CycScalar(m, cand)
        mult = 0
        while len(poly_now) > 1 and not linalg.poly_eval(poly_now, root):
            poly_now, _ = linalg.poly_divmod_linear(poly_now, root)
            mult += 1
        if mult:
            roots.append((root, mult))
    return roots


class TestRationalRootsProperty:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(roots=st.lists(st.fractions(min_value=-4, max_value=4,
                                       max_denominator=3), max_size=5),
           repeat=st.integers(0, 3), scale=st.sampled_from([1, -2, Fraction(3, 5)]),
           quadratic=st.booleans())
    def test_matches_parent_search(self, m, roots, repeat, scale, quadratic):
        roots = roots + roots[:repeat]
        poly = [c * scale for c in poly_from_roots(roots, m)]
        if quadratic:
            # times x^2 + 2, which has no rational root
            two = CycScalar(m, 2)
            poly = [two * a + (poly[i - 2] if i >= 2 else CycScalar.zero(m))
                    for i, a in enumerate(poly + [CycScalar.zero(m)] * 2)]
        got = linalg.rational_roots(poly, m)
        assert got == parent_rational_roots(poly, m)
        found = {}
        for r in roots:
            found[CycScalar(m, r)] = found.get(CycScalar(m, r), 0) + 1
        assert dict(got) == found


@st.composite
def block_diagonal(draw, m):
    """A square matrix made of conjugated diagonal or Jordan blocks, its
    rows and columns shuffled by one permutation, so the blocks are
    scattered over the index range."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 3))
        roots = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        # eigenvalues on the diagonal, optionally a 1 just above it
        block = [[CycScalar(m, roots[i] if i == j else
                            int(j == i + 1 and draw(st.booleans())))
                  for j in range(k)] for i in range(k)]
        p = [[CycScalar(m, draw(st.integers(-2, 2))) for _ in range(k)] for _ in range(k)]
        try:
            p_inv = linalg.invert(sparse(p), m)
        except ValueError:
            assume(False)
        blocks.append(linalg.mat_mul(linalg.mat_mul(sparse(p), sparse(block), m), p_inv, m))
    n = sum(len(b) for b in blocks)
    order = draw(st.permutations(range(n)))
    mat = [{} for _ in range(n)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in row.items():
                mat[order[start + i]][order[start + j]] = x
        start += len(block)
    return mat


class TestRationalEigenvalues:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_whole_polynomial(self, m, data):
        mat = data.draw(block_diagonal(m))
        whole = linalg.rational_roots(linalg.charpoly(mat, m), m)
        assert linalg.rational_eigenvalues(mat, m) == [w for w, _ in whole]


class TestEigenspacesWithExtraRows:
    @pytest.mark.parametrize("m", [1, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_dense_kernels(self, m, data):
        # a square block with eigenvalues in -3..3, stacked over extra
        # rows that every eigenvector must also satisfy
        square = data.draw(block_diagonal(m))
        n = len(square)
        zeta = st.sampled_from([0, 0, 1]) if m == 3 else st.just(0)
        rest = []
        for _ in range(data.draw(st.integers(0, 2))):
            row = [CycScalar(m, data.draw(st.sampled_from([0, 0, 0, 1, -1])),
                             data.draw(zeta)) for _ in range(n)]
            rest.append(sparse_vec(row))
        spaces, complete = linalg.eigenspaces(square + rest, n, m)
        expected = []
        for a in range(-3, 4):
            w = CycScalar(m, a)
            shifted = dense(square, n, m)
            for i in range(n):
                shifted[i][i] = shifted[i][i] - w
            basis = dense_kernel_basis(shifted + dense(rest, n, m), m)
            if basis:
                expected.append((w, [sparse_vec(v) for v in basis]))
        assert sorted(spaces, key=lambda space: space[0].a) == expected
        assert complete == (sum(len(basis) for _, basis in spaces) == n)


class TestJordanSplit:
    def brute_force(self, diag, nil_positions, n):
        """Assemble M = D + N in a basis where the split is by inspection."""
        d = [[CycScalar(1, diag[i]) if i == j else CycScalar.zero(1)
              for j in range(n)] for i in range(n)]
        nmat = [[CycScalar.zero(1)] * n for _ in range(n)]
        for i, j in nil_positions:
            nmat[i][j] = CycScalar.one(1)
        return d, nmat

    def test_split_matches_construction(self):
        rng = random.Random(5)
        n = 4
        d, nmat = self.brute_force([2, 2, 3, 3], [(0, 1)], n)
        mat = sparse([[d[i][j] + nmat[i][j] for j in range(n)] for i in range(n)])
        while True:
            p = rmat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            try:
                pinv = linalg.invert(p, 1)
                break
            except ValueError:
                continue
        conj = linalg.mat_mul(linalg.mat_mul(p, mat, 1), pinv, 1)
        s, nn = linalg.jordan_split(conj, 1)
        expected_s = linalg.mat_mul(linalg.mat_mul(p, sparse(d), 1), pinv, 1)
        assert s == expected_s
        # nilpotent part really is nilpotent
        power = nn
        for _ in range(n):
            power = linalg.mat_mul(power, nn, 1)
        assert all(not row for row in power)
        # S and N commute
        assert linalg.mat_mul(s, nn, 1) == linalg.mat_mul(nn, s, 1)

    def test_semisimple_of_block_diagonal_is_block_diagonal(self):
        d1, n1 = self.brute_force([1, 1], [(0, 1)], 2)
        blocks = [[CycScalar.zero(1)] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                blocks[i][j] = d1[i][j] + n1[i][j]
        blocks[2][2] = CycScalar(1, 7)
        blocks[3][3] = CycScalar(1, 9)
        s, _ = linalg.jordan_split(sparse(blocks), 1)
        for i in range(2):
            for j in range(2, 4):
                assert not s[i].get(j) and not s[j].get(i)

    def test_non_split_raises(self):
        # rotation by 90 degrees: x^2 + 1 has no rational roots
        mat = rmat([[0, -1], [1, 0]])
        with pytest.raises(ValueError):
            linalg.jordan_split(mat, 1)
