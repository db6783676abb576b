"""Exact linear algebra on pair rows: kernels, characteristic polynomials,
Jordan split.  The dense references compute on `conftest.Z3`, Fraction
pairs with their own arithmetic, and meet `linalg` only through
`pairs`/`z3` at their ends."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from affinelie import linalg
from affinelie.rootsys import sigma_eigenspaces
from affinelie.scalars import add_products, pair_mul
from affinelie.slices import jordan_pair

from conftest import Z3
from pair_linalg import (generalized_eigenspace, global_eigenspaces, identity,
                         invert, jordan_split, mat_mul, poly_divmod_linear,
                         poly_eval)

ZERO, ONE = linalg.ZERO, linalg.ONE


def elt(m, a, b=0):
    """a + b*zeta as a pair, zeta folded into a for m = 1, 2."""
    return (a, b) if m == 3 else (a + (b if m == 1 else -b), 0)


def z3(x):
    return Z3(*x)


def pairs(vec):
    """A dense list of Z3 entries as the sparse pair vector `linalg` takes."""
    return {j: (x.a, x.b) for j, x in enumerate(vec) if x}


def sparse_vec(vec):
    """A dense list of pairs as the sparse {index: pair} dict `linalg` takes."""
    return {j: x for j, x in enumerate(vec) if x[0] or x[1]}


def sparse(mat):
    return [sparse_vec(row) for row in mat]


def dense_vec(vec, n):
    """A sparse pair vector as a dense list of Z3 entries."""
    out = [Z3(0)] * n
    for j, x in vec.items():
        out[j] = z3(x)
    return out


def dense(mat, n):
    return [dense_vec(row, n) for row in mat]


def rmat(entries):
    return sparse([[(e, 0) for e in row] for row in entries])


def columns(mat, n):
    """The list of n sparse columns of a matrix given by its rows, as
    `linalg.mat_vec` takes it."""
    cols = [{} for _ in range(n)]
    for i, row in enumerate(mat):
        for j, x in row.items():
            cols[j][i] = x
    return cols


def scaled(w, vec):
    """w * vec on pairs, without zeros."""
    return {j: pair_mul(w, x) for j, x in vec.items() if w[0] or w[1]}


class TestKernelSolve:
    def test_kernel_of_rank_one(self):
        ker = linalg.kernel_basis(rmat([[1, 2, 3]]), 3)
        assert len(ker) == 2
        for v in ker:
            s = Z3(0)
            for c, e in zip(dense_vec(v, 3), (1, 2, 3)):
                s = s + c * Z3(e)
            assert not s

    def test_solve_consistent(self):
        x = linalg.solve(rmat([[2, 0], [1, 1]]), {0: (4, 0), 1: (5, 0)})
        assert x == {0: (2, 0), 1: (3, 0)}

    def test_solve_inconsistent(self):
        assert linalg.solve(rmat([[1], [1]]), {0: (1, 0), 1: (2, 0)}) is None

    def test_invert_round_trip(self):
        rng = random.Random(3)
        mat = rmat([[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)])
        try:
            inv = invert(mat)
        except ValueError:
            pytest.skip("random matrix was singular")
        assert mat_mul(mat, inv) == identity(5)

    def test_span_solver_membership_and_coords(self):
        sol = linalg.SpanSolver()
        v1 = sparse_vec([(1, 0), ZERO, (2, 0)])
        v2 = sparse_vec([ZERO, (1, 0), (1, 0)])
        assert sol.add(v1) and sol.add(v2)
        coords = sol.coords(sparse_vec([(2, 0), (3, 0), (7, 0)]))
        assert coords == {0: (2, 0), 1: (3, 0)}
        assert not sol.contains(sparse_vec([ZERO, ZERO, (1, 0)]))

    def test_integral_parts_are_ints(self):
        # 2 * 1/2 is stored as the int 1: rows stay on int arithmetic
        sol = linalg.SpanSolver()
        sol.add({0: (2, 0), 1: (1, 0)})
        sol.add({0: (0, 1), 1: (0, 1), 2: (3, 3)})
        for row in sol._rows.values():
            for a, b in row.values():
                assert all(type(x) is int or x.denominator > 1 for x in (a, b))


def poly_from_roots(roots):
    poly = [ONE]
    for r in roots:
        nxt = [ZERO] * (len(poly) + 1)
        for i, (a, b) in enumerate(poly):
            nxt[i + 1] = (nxt[i + 1][0] + a, nxt[i + 1][1] + b)
            nxt[i] = (nxt[i][0] - a * r, nxt[i][1] - b * r)
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
                pinv = invert(p)
                break
            except ValueError:
                continue
        d = rmat([[roots[i] if i == j else 0 for j in range(n)] for i in range(n)])
        mat = mat_mul(mat_mul(p, d), pinv)
        assert linalg.charpoly(mat) == poly_from_roots(roots)
        found = dict()
        for (root, zeta), mult in linalg.rational_roots(linalg.charpoly(mat)):
            assert not zeta
            found[root] = mult
        assert found == {Fraction(1): 2, Fraction(-2): 1, Fraction(1, 2): 1}

    def test_nilpotent(self):
        mat = rmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        poly = linalg.charpoly(mat)
        assert poly == poly_from_roots([0, 0, 0])

    def test_rational_root_multiplicity(self):
        poly = poly_from_roots([3, 3, 3])
        assert linalg.rational_roots(poly) == [((3, 0), 3)]


class TestEigen:
    def test_eigenspaces_complete(self):
        mat = rmat([[2, 1], [0, 3]])
        spaces, complete = linalg.eigenspaces(mat, 2)
        assert complete and sorted(w for w, _ in spaces) == [(2, 0), (3, 0)]

    def test_defective_detected(self):
        mat = rmat([[1, 1], [0, 1]])
        _, complete = linalg.eigenspaces(mat, 2)
        assert not complete

    def test_joint_eigenspaces(self):
        m1 = rmat([[1, 0], [0, 2]])
        m2 = rmat([[5, 0], [0, 5]])
        spaces, defect = linalg.joint_eigenspaces([m1, m2], 2)
        assert defect is None
        weights = sorted((w[0][0], w[1][0]) for w, _ in spaces)
        assert weights == [(1, 5), (2, 5)]

    def test_joint_defect_reports_operator(self):
        good = rmat([[1, 0], [0, 1]])
        bad = rmat([[0, 1], [0, 0]])
        _, defect = linalg.joint_eigenspaces([good, bad], 2)
        assert defect == 1

    def test_joint_defective_first_operator(self):
        bad = rmat([[1, 1], [0, 1]])
        good = rmat([[1, 0], [0, 1]])
        assert linalg.joint_eigenspaces([bad, good], 2) == ([], 0)

    def test_joint_first_operator_not_diagonal(self):
        # eigenvectors (1, 0) and (1, 1) of the first operator; the second
        # is the first plus 3, so the joint weights are (2, 5) and (3, 6)
        first = rmat([[2, 1], [0, 3]])
        second = rmat([[5, 1], [0, 6]])
        spaces, defect = linalg.joint_eigenspaces([first, second], 2)
        assert defect is None
        weights = sorted((w[0][0], w[1][0]) for w, _ in spaces)
        assert weights == [(2, 5), (3, 6)]
        for w, basis in spaces:
            for v in basis:
                for mat, wi in zip((first, second), w):
                    assert linalg.mat_vec(columns(mat, 2), v) == scaled(wi, v)


def dense_joint_eigenspaces(mats):
    """Identity-start joint refinement with dense products, kept as the
    reference for `linalg.joint_eigenspaces`; it calls `linalg` only for
    `SpanSolver` and `eigenspaces`, through dense/sparse conversions."""
    n = len(mats[0]) if mats else 0

    def dense_mat_vec(a, v):
        out = []
        for row in a:
            acc = Z3(0)
            for x, y in zip(row, v):
                if x and y:
                    acc = acc + x * y
            out.append(acc)
        return out

    current = [([], dense(identity(n), n))]
    for op_index, mat in enumerate(mats):
        refined = []
        for weights, basis in current:
            k = len(basis)
            if k == 0:
                continue
            solver = linalg.SpanSolver()
            for v in basis:
                solver.add(pairs(v))
            restricted_cols = []
            for v in basis:
                coords = solver.coords(pairs(dense_mat_vec(mat, v)))
                if coords is None:
                    return [], op_index
                restricted_cols.append(dense_vec(coords, k))
            restricted = [[restricted_cols[j][i] for j in range(k)] for i in range(k)]
            spaces, complete = linalg.eigenspaces([pairs(r) for r in restricted], k)
            if not complete:
                return [], op_index
            for w, sub in spaces:
                ambient = []
                for coeffs in (dense_vec(c, k) for c in sub):
                    vec = [Z3(0)] * n
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
    pool = [elt(m, a, b) for a in range(-2, 3)
            for b in ((0,) if m == 1 else (0, 1))]
    p = [[(draw(st.integers(-2, 2)), 0) for _ in range(n)] for _ in range(n)]
    try:
        p_inv = invert(sparse(p))
    except ValueError:
        assume(False)
    mats = []
    for _ in range(count):
        d = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            d[i][i] = draw(st.sampled_from(pool))
        mats.append(mat_mul(mat_mul(sparse(p), sparse(d)), p_inv))
    return mats


class TestJointEigenspacesProperty:
    @pytest.mark.parametrize("m", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_dense_reference(self, m, data):
        mats = data.draw(commuting_family(m))
        n = len(mats[0])
        got = linalg.joint_eigenspaces(mats, n)
        ref_spaces, ref_defect = dense_joint_eigenspaces(
            [dense(mat, n) for mat in mats])
        assert got == ([(w, [pairs(v) for v in basis])
                        for w, basis in ref_spaces], ref_defect)
        spaces, defect = got
        if defect is None:
            assert sum(len(b) for _, b in spaces) == len(mats[0])
            for weights, basis in spaces:
                for v in basis:
                    for mat, w in zip(mats, weights):
                        assert linalg.mat_vec(columns(mat, n), v) == scaled(w, v)


def dense_rref(mat):
    """The dense Gauss-Jordan elimination that `linalg.rref` replaced,
    kept as its reference on Z3 entries: every entry of a row is updated."""
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
        inv = rows[r][c].inv()
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


def dense_kernel_basis(mat):
    ncols = len(mat[0]) if mat else 0
    rows, pivots = dense_rref(mat)
    basis = []
    for f in [c for c in range(ncols) if c not in pivots]:
        v = [Z3(0)] * ncols
        v[f] = Z3(1)
        for r, p in enumerate(pivots):
            v[p] = Z3(0) - rows[r][f]
        basis.append(v)
    return basis


def dense_solve(mat, rhs):
    ncols = len(mat[0]) if mat else 0
    rows, pivots = dense_rref([list(row) + [b] for row, b in zip(mat, rhs)])
    if ncols in pivots:
        return None
    x = [Z3(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return x


class DenseSpanSolver:
    """The dense incremental span that `linalg.SpanSolver` replaced, kept
    as its reference: dense rows and dense coordinate lists of Z3."""

    def __init__(self, dim):
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
        zero = Z3(0)
        coords = [zero] * self.count + [Z3(1)]
        for rc in self.row_coords:
            rc.append(zero)
        self.count += 1
        v, c = self._reduce(vec, coords)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        inv = v[p].inv()
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
        v, _ = self._reduce(vec, [Z3(0)] * self.count)
        return all(not x for x in v)

    def coords(self, vec):
        v, c = self._reduce(vec, [Z3(0)] * self.count)
        if any(v):
            return None
        return [Z3(0) - x for x in c]


def combination(m, coefs, vectors, dim):
    out = [Z3(0)] * dim
    for a, v in zip(coefs, vectors):
        out = [x + a * y for x, y in zip(out, v)]
    return out


@st.composite
def sparse_matrix(draw, m, nrows, ncols):
    """Mostly-zero dense Z3 rows over Q(zeta_m); some rows are combinations
    of earlier ones, and a column can be zero throughout."""
    zero = Z3(0)
    nonzero = [z3(elt(m, a, b)) for a in (-2, -1, Fraction(1, 2), 1, 3)
               for b in ((0,) if m == 1 else (0, 1))]
    nonzero = [x for x in nonzero if x]
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
        rows, pivots = linalg.rref([pairs(r) for r in mat])
        dense_rows, dense_pivots = dense_rref(mat)
        # the sparse form lists the nonzero rows only
        assert (rows + [{}] * (nrows - len(rows)), pivots) == (
            [pairs(r) for r in dense_rows], dense_pivots)
        assert linalg.kernel_basis([pairs(r) for r in mat], ncols) == [
            pairs(v) for v in dense_kernel_basis(mat)]
        rhs = data.draw(sparse_matrix(m, 1, nrows))[0]
        x = dense_solve(mat, rhs)
        assert linalg.solve([pairs(r) for r in mat], pairs(rhs)) == (
            None if x is None else pairs(x))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_span_solver_matches_dense(self, m, data):
        dim = data.draw(st.integers(1, 7))
        added = data.draw(sparse_matrix(m, data.draw(st.integers(1, 6)), dim))
        probes = data.draw(sparse_matrix(m, 3, dim))
        probes.append(combination(m, [Z3(k) for k in (2, -1, 3)],
                                  added, dim))
        solver, reference = linalg.SpanSolver(), DenseSpanSolver(dim)
        for v in added:
            assert solver.add(pairs(v)) == reference.add(v)
            assert solver.rank == reference.rank
            for probe in probes + added:
                assert solver.contains(pairs(probe)) == reference.contains(probe)
                coords = reference.coords(probe)
                assert solver.coords(pairs(probe)) == (
                    None if coords is None else pairs(coords))


def parent_rational_roots(poly):
    """The evaluate-and-divide root search that `linalg.rational_roots`
    replaced, kept as its reference."""

    def divisors(n):
        n = abs(n)
        return sorted({d for k in range(1, int(n ** 0.5) + 2) if k * k <= n
                       and n % k == 0 for d in (k, n // k)})

    coeffs = [a for a, _ in poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    roots = []
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k:
        roots.append((ZERO, k))
        coeffs = coeffs[k:]
    if len(coeffs) <= 1:
        return roots
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    candidates = {Fraction(s * p, q) for p in divisors(ints[0])
                  for q in divisors(ints[-1]) for s in (1, -1)}
    poly_now = [(c, 0) for c in coeffs]
    for cand in sorted(candidates):
        root = (cand, 0)
        mult = 0
        while len(poly_now) > 1 and poly_eval(poly_now, root) == ZERO:
            poly_now, _ = poly_divmod_linear(poly_now, root)
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
        poly = [(a * scale, b * scale) for a, b in poly_from_roots(roots)]
        if quadratic:
            # times x^2 + 2, which has no rational root
            poly = [(2 * a + (poly[i - 2][0] if i >= 2 else 0), 0)
                    for i, (a, _) in enumerate(poly + [ZERO] * 2)]
        got = linalg.rational_roots(poly)
        assert got == parent_rational_roots(poly)
        found = {}
        for r in roots:
            found[(r, 0)] = found.get((r, 0), 0) + 1
        assert dict(got) == found


@st.composite
def block_diagonal(draw):
    """A square matrix made of conjugated diagonal or Jordan blocks, its
    rows and columns shuffled by one permutation, so the blocks are
    scattered over the index range."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 3))
        roots = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        # eigenvalues on the diagonal, optionally a 1 just above it
        block = [[(roots[i] if i == j else int(j == i + 1 and draw(st.booleans())), 0)
                  for j in range(k)] for i in range(k)]
        p = [[(draw(st.integers(-2, 2)), 0) for _ in range(k)] for _ in range(k)]
        try:
            p_inv = invert(sparse(p))
        except ValueError:
            assume(False)
        blocks.append(mat_mul(mat_mul(sparse(p), sparse(block)), p_inv))
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
        mat = data.draw(block_diagonal())
        whole = linalg.rational_roots(linalg.charpoly(mat))
        assert linalg.rational_eigenvalues(mat) == [w for w, _ in whole]


class TestEigenspacesWithExtraRows:
    @pytest.mark.parametrize("m", [1, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_dense_kernels(self, m, data):
        # a square block with eigenvalues in -3..3, stacked over extra
        # rows that every eigenvector must also satisfy
        square = data.draw(block_diagonal())
        n = len(square)
        zeta = st.sampled_from([0, 0, 1]) if m == 3 else st.just(0)
        rest = []
        for _ in range(data.draw(st.integers(0, 2))):
            row = [elt(m, data.draw(st.sampled_from([0, 0, 0, 1, -1])),
                       data.draw(zeta)) for _ in range(n)]
            rest.append(sparse_vec(row))
        spaces, complete = linalg.eigenspaces(square + rest, n)
        expected = []
        for a in range(-3, 4):
            shifted = dense(square, n)
            for i in range(n):
                shifted[i][i] = shifted[i][i] - Z3(a)
            basis = dense_kernel_basis(shifted + dense(rest, n))
            if basis:
                expected.append(((a, 0), [pairs(v) for v in basis]))
        assert sorted(spaces, key=lambda space: space[0][0]) == expected
        assert complete == (sum(len(basis) for _, basis in spaces) == n)


@st.composite
def eigen_problem(draw, m):
    """(mat, n) for `linalg.eigenspaces`: diagonal or Jordan blocks with
    eigenvalues from a small pool (zeta parts at m = 3), some conjugated
    so their eigenvalues leave the diagonal, their rows and columns
    interleaved by one permutation; then up to two extra rows, which may
    join blocks."""
    pool = [elt(m, a, b) for a in range(-2, 3)
            for b in ((0, 1) if m == 3 else (0,))]
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 3))
        roots = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
        # eigenvalues on the diagonal, optionally a 1 just above it
        block = [sparse_vec([roots[i] if i == j
                             else (int(j == i + 1 and draw(st.booleans())), 0)
                             for j in range(k)]) for i in range(k)]
        if draw(st.booleans()):
            p = sparse([[(draw(st.integers(-2, 2)), 0) for _ in range(k)]
                        for _ in range(k)])
            try:
                p_inv = invert(p)
            except ValueError:
                assume(False)
            block = mat_mul(mat_mul(p, block), p_inv)
        blocks.append(block)
    n = sum(len(b) for b in blocks)
    order = draw(st.permutations(range(n)))
    mat = [{} for _ in range(n)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in row.items():
                mat[order[start + i]][order[start + j]] = x
        start += len(block)
    zeta = st.sampled_from([0, 0, 1]) if m == 3 else st.just(0)
    for _ in range(draw(st.integers(0, 2))):
        mat.append(sparse_vec([elt(m, draw(st.sampled_from([0, 0, 0, 1, -1])),
                                   draw(zeta)) for _ in range(n)]))
    return mat, n


class TestBlockwiseEigenspaces:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_global_sweep(self, m, data):
        mat, n = data.draw(eigen_problem(m))
        assert linalg.eigenspaces(mat, n) == global_eigenspaces(mat, n)

    def test_roots_candidates_extra_row_and_jordan_block(self):
        # columns {0, 3}: eigenvalues 2, 3, off the diagonal, found as
        # rational roots; {1, 4}: eigenvalues z and 1 off the diagonal, of a
        # characteristic polynomial with a zeta part, so z is found only as
        # the diagonal entry of column 6 and 1 only as that of column 0,
        # each in another block; {2, 5}: a Jordan block of 5; {6}: z; the
        # extra row joins {0, 3} to {2, 5} and keeps only the 2-eigenvector
        # there
        mat = [{0: (1, 0), 3: (1, 0)}, {1: (-1, 2), 4: (1, -1)},
               {2: (5, 0), 5: (1, 0)}, {0: (-2, 0), 3: (4, 0)},
               {1: (-2, 2), 4: (2, -1)}, {5: (5, 0)}, {6: (0, 1)},
               {0: (1, 0), 3: (-1, 0), 5: (1, 0)}]
        got = linalg.eigenspaces(mat, 7)
        assert got == global_eigenspaces(mat, 7)
        assert got == ([((1, 0), [{1: (Fraction(1, 2), 0), 4: (1, 0)}]),
                        ((5, 0), [{2: (1, 0)}]),
                        ((0, 1), [{1: (1, 0), 4: (1, 0)}, {6: (1, 0)}]),
                        ((2, 0), [{0: (1, 0), 3: (1, 0)}])], False)


class TestLoneColumns:
    def test_lone_columns_solve_no_kernel(self, monkeypatch):
        # a 1 x 1 component that no further row touches is its diagonal
        # entry with its unit vector, byte for byte what its kernel gives
        mat = [{0: (2, 0)}, {}, {2: (0, 1)}, {3: (2, 0)}, {4: (Fraction(1, 3), 0)}]
        expected = global_eigenspaces(mat, 5)

        def no_kernel(*args):
            raise AssertionError("kernel_basis called")
        monkeypatch.setattr(linalg, "kernel_basis", no_kernel)
        assert linalg.eigenspaces(mat, 5) == expected

    def test_a_further_row_on_a_lone_column_still_counts(self):
        # the extra row kills the eigenvector of column 1
        mat = [{0: (2, 0)}, {1: (3, 0)}, {1: (1, 0)}]
        assert linalg.eigenspaces(mat, 2) == global_eigenspaces(mat, 2) == (
            [((2, 0), [{0: (1, 0)}])], False)


class TestJordanPair:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_jordan_pair_exactly_where_a_block_is(self, m, data):
        mat, n = data.draw(eigen_problem(m))
        square = mat[:n]
        spaces, _ = global_eigenspaces(square, n)
        for w, basis in spaces:
            pair = jordan_pair(square, w)
            generalized = generalized_eigenspace(square, w, n)
            assert (pair is None) == (len(generalized) == len(basis))
            if pair is not None:
                v, u = pair
                step = columns(linalg.shifted(square, w), n)
                assert u and linalg.mat_vec(step, v) == u
                assert linalg.mat_vec(step, u) == {}

    def test_jordan_pair_of_a_nilpotent_block(self):
        mat = rmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert jordan_pair(mat, ZERO) == ({1: ONE}, {0: ONE})
        assert jordan_pair(rmat([[3, 0], [0, 3]]), (3, 0)) is None


class TestZetaBlockRoots:
    def test_rational_eigenvalue_beside_a_zeta_one(self):
        # the block {0, 1, 2} has eigenvalues -2+z, -2, -2: its
        # characteristic polynomial has zeta parts, and -2 is a common root
        # of its rational and zeta parts; {3, 4} has -2 and -1
        mat = [{2: (0, -1), 1: (0, 1), 0: (-2, 1)},
               {2: (0, -1), 0: (0, 1), 1: (-2, 1)},
               {2: (-2, -1), 0: (0, 1), 1: (0, 1)},
               {3: (Fraction(-3, 2), 0), 4: (Fraction(-1, 2), 0)},
               {3: (Fraction(-1, 2), 0), 4: (Fraction(-3, 2), 0)}]
        assert linalg.rational_roots(linalg.charpoly(mat[:3])) == [
            ((-2, 0), 2)]
        got = linalg.eigenspaces(mat, 5)
        assert got == global_eigenspaces(mat, 5)
        assert got[1] and dict(got[0])[(-2, 0)] == [
            {0: (-1, 0), 1: (1, 0)}, {0: (1, 0), 2: (1, 0)},
            {3: (1, 0), 4: (1, 0)}]


class TestJordanSplit:
    def brute_force(self, diag, nil_positions, n):
        """Assemble M = D + N in a basis where the split is by inspection."""
        d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        nmat = [[0] * n for _ in range(n)]
        for i, j in nil_positions:
            nmat[i][j] = 1
        return d, nmat

    def test_split_matches_construction(self):
        rng = random.Random(5)
        n = 4
        d, nmat = self.brute_force([2, 2, 3, 3], [(0, 1)], n)
        mat = rmat([[d[i][j] + nmat[i][j] for j in range(n)] for i in range(n)])
        while True:
            p = rmat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            try:
                pinv = invert(p)
                break
            except ValueError:
                continue
        conj = mat_mul(mat_mul(p, mat), pinv)
        s, nn = jordan_split(conj)
        expected_s = mat_mul(mat_mul(p, rmat(d)), pinv)
        assert s == expected_s
        # nilpotent part really is nilpotent
        power = nn
        for _ in range(n):
            power = mat_mul(power, nn)
        assert all(not row for row in power)
        # S and N commute
        assert mat_mul(s, nn) == mat_mul(nn, s)

    def test_semisimple_of_block_diagonal_is_block_diagonal(self):
        d1, n1 = self.brute_force([1, 1], [(0, 1)], 2)
        blocks = [[0] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                blocks[i][j] = d1[i][j] + n1[i][j]
        blocks[2][2] = 7
        blocks[3][3] = 9
        s, _ = jordan_split(rmat(blocks))
        for i in range(2):
            for j in range(2, 4):
                assert not s[i].get(j) and not s[j].get(i)

    def test_non_split_raises(self):
        # rotation by 90 degrees: x^2 + 1 has no rational roots
        mat = rmat([[0, -1], [1, 0]])
        with pytest.raises(ValueError):
            jordan_split(mat)


def assert_unit_columns(basis, coefs):
    """Each vector of `basis` is 1 at its largest key, a key of no other
    vector, and `unit_coords` reads sum coefs[k] basis[k] back as coefs."""
    units = [max(v) for v in basis]
    for k, (v, u) in enumerate(zip(basis, units)):
        assert v[u] == ONE
        assert not any(u in w for i, w in enumerate(basis) if i != k)
    vec = {}
    for c, v in zip(coefs, basis):
        add_products(vec, c, v)
    assert linalg.unit_coords(basis, units, vec) == {
        k: c for k, c in enumerate(coefs) if c != ZERO}
    return units


@st.composite
def coefficients(draw, m, basis):
    return draw(st.lists(st.builds(elt, st.just(m), st.integers(-3, 3),
                                   st.integers(-3, 3)),
                         min_size=len(basis), max_size=len(basis)))


@pytest.mark.parametrize("m", [1, 2, 3])
class TestUnitColumns:
    """The bases `linalg.unit_coords` reads have unit columns: those of
    `kernel_basis`, each weight of `eigenspaces`, each space of
    `joint_eigenspaces` and each slice of `sigma_eigenspaces`."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_kernel_basis(self, m, data):
        ncols = data.draw(st.integers(1, 7))
        mat = [pairs(r) for r in data.draw(
            sparse_matrix(m, data.draw(st.integers(1, 6)), ncols))]
        basis = linalg.kernel_basis(mat, ncols)
        units = assert_unit_columns(basis, data.draw(coefficients(m, basis)))
        # a probe is in the span exactly when mat sends it to zero
        probe = pairs(data.draw(sparse_matrix(m, 1, ncols))[0])
        got = linalg.unit_coords(basis, units, probe)
        if linalg.mat_vec(columns(mat, ncols), probe):
            assert got is None
        else:
            assert linalg.mat_vec(basis, got) == probe

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_eigenspaces(self, m, data):
        mat, n = data.draw(eigen_problem(m))
        for _, basis in linalg.eigenspaces(mat, n)[0]:
            assert_unit_columns(basis, data.draw(coefficients(m, basis)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_joint_eigenspaces(self, m, data):
        mats = data.draw(commuting_family(m))
        spaces, _ = linalg.joint_eigenspaces(mats, len(mats[0]))
        for _, basis in spaces:
            assert_unit_columns(basis, data.draw(coefficients(m, basis)))

    def test_sigma_eigenspaces(self, m, request):
        auto = request.getfixturevalue(
            {1: "a2_id", 2: "a2_flip", 3: "d4_triality"}[m])
        slices = sigma_eigenspaces(auto)
        for i, basis in enumerate(slices):
            units = assert_unit_columns(basis, [elt(m, k % 5 - 2, k % 3)
                                                for k in range(len(basis))])
            # the slices are independent: no vector of another is in this one
            for other in slices[:i] + slices[i + 1:]:
                for v in other:
                    assert linalg.unit_coords(basis, units, v) is None
