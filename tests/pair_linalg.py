"""Matrix helpers only the tests use, on the {index: (a, b)} pair rows of
`affinelie.linalg`: the identity, products, the inverse, generalized
eigenspaces, the Jordan-Chevalley split, the global candidate sweep that
`linalg.eigenspaces` replaced, and evaluation and division of
polynomials given as lists of pairs, lowest degree first.
"""

from affinelie import linalg
from affinelie.scalars import add_products, pair_mul

ZERO, ONE = linalg.ZERO, linalg.ONE


def identity(n):
    return [{i: ONE} for i in range(n)]


def mat_mul(a, b):
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            add_products(acc, x, b[k])
        out.append(acc)
    return out


def invert(mat):
    n = len(mat)
    aug = [{**row, n + i: ONE} for i, row in enumerate(mat)]
    rows, pivots = linalg.rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [{j - n: x for j, x in row.items() if j >= n} for row in rows]


def generalized_eigenspace(mat, w, mult):
    n = len(mat)
    step = linalg.shifted(mat, w)
    power = identity(n)
    for _ in range(mult):
        power = mat_mul(step, power)
    return linalg.kernel_basis(power, n)


def jordan_split(mat):
    """Exact Jordan-Chevalley split M = S + N over Q(zeta_m).

    Finds eigenvalues via the characteristic polynomial, builds
    generalized eigenspaces, and assembles the semisimple part blockwise.
    Raises ValueError when the characteristic polynomial does not split
    over the implemented field.
    """
    n = len(mat)
    found = dict(linalg.rational_roots(linalg.charpoly(mat)))
    if sum(found.values()) != n:
        raise ValueError("characteristic polynomial does not split over Q(zeta_m)")
    # change of basis: the columns of P are the generalized eigenvectors
    p = [{} for _ in range(n)]
    d = []
    for w, mult in found.items():
        basis = generalized_eigenspace(mat, w, mult)
        if len(basis) != mult:
            raise ValueError("generalized eigenspace dimension mismatch")
        for v in basis:
            for i, x in v.items():
                p[i][len(d)] = x
            d.append({len(d): w} if w != ZERO else {})
    s = mat_mul(mat_mul(p, d), invert(p))
    nmat = []
    for row, srow in zip(mat, s):
        row = dict(row)
        add_products(row, (-1, 0), srow)
        nmat.append(row)
    return s, nmat


def global_eigenspaces(mat, n):
    """The global candidate sweep that `linalg.eigenspaces` ran before it
    solved each connected component alone, kept as its reference: each
    candidate w costs one kernel of the whole square block minus w I
    stacked over the further rows.  Candidates are the block's diagonal
    entries, then the block's rational eigenvalues; the roots are tried
    only while the dimensions found sum to less than n."""
    if n == 0:
        return [], True
    square, rest = mat[:n], mat[n:]
    seen = set()
    spaces = []
    total = 0

    def try_candidate(w):
        nonlocal total
        if w in seen:
            return
        seen.add(w)
        basis = linalg.kernel_basis(linalg.shifted(square, w) + rest, n)
        if basis:
            spaces.append((w, basis))
            total += len(basis)

    for i, row in enumerate(square):
        try_candidate(row.get(i, ZERO))
    if total < n:
        for root in linalg.rational_eigenvalues(square):
            try_candidate(root)
    return spaces, total == n


def poly_eval(poly, x):
    acc = ZERO
    for a, b in reversed(poly):
        pa, pb = pair_mul(acc, x)
        acc = (pa + a, pb + b)
    return acc


def poly_divmod_linear(poly, root):
    """Divide poly by (x - root) via synthetic division; (quotient, rem)."""
    n = len(poly) - 1
    quot = [ZERO] * n
    carry = poly[n]
    for j in range(n - 1, -1, -1):
        quot[j] = carry
        pa, pb = pair_mul(carry, root)
        carry = (poly[j][0] + pa, poly[j][1] + pb)
    return quot, carry
