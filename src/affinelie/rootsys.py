"""Simple Lie algebras with Chevalley bases and diagram automorphisms.

Roots live in the root lattice as integer coefficient tuples over the simple
roots, found by closing the simple roots under the simple reflections.  The
supported built-in types are simply laced, so N_{a,b} = +-1 whenever a + b is
a root, with the sign fixed by a bimultiplicative asymmetry function on the
lattice (edges oriented from the lower to the higher node index): the A
series and D4 share one code path.  Arbitrary algebras can be fed in as
explicit structure-constant tables.
"""

from __future__ import annotations

from . import linalg
from .scalars import ZETA, _add_pair, pair_pow, table_products

CARTAN_MATRICES = {
    ("A", 1): ((2,),),
    ("A", 2): ((2, -1), (-1, 2)),
    ("A", 3): ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    ("D", 4): ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
}


class RootDatum:
    """Root system data: Cartan matrix, simple roots, and the full root set."""

    __slots__ = ("label", "rank", "cartan", "simple", "positive", "roots")

    def __init__(self, label, rank, cartan, positive):
        self.label = label
        self.rank = rank
        self.cartan = cartan
        self.simple = tuple(
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        )
        self.positive = tuple(positive)
        self.roots = self.positive + tuple(neg(r) for r in self.positive)


def neg(root):
    return tuple(-c for c in root)


def add(r1, r2):
    return tuple(a + b for a, b in zip(r1, r2))


def pairing(root, i, cartan):
    """<root, alpha_i^vee> = root(H_{alpha_i})."""
    return sum(c * cartan[j][i] for j, c in enumerate(root))


def root_datum(kind, rank):
    """Generate the root system of a supported simply-laced type."""
    key = (kind.upper(), rank)
    if key not in CARTAN_MATRICES:
        raise ValueError(f"unsupported algebra type {kind}{rank}")
    cartan = CARTAN_MATRICES[key]
    # Every root is Weyl-conjugate to a simple root (Humphreys, Introduction
    # to Lie Algebras, 10.3): close the simple roots under the simple
    # reflections b -> b - <b, a_i^vee> a_i.
    found = {tuple(int(j == i) for j in range(rank)) for i in range(rank)}
    todo = list(found)
    while todo:
        beta = todo.pop()
        for i in range(rank):
            k = pairing(beta, i, cartan)
            image = tuple(c - k * (j == i) for j, c in enumerate(beta))
            if image not in found:
                found.add(image)
                todo.append(image)
    positive = sorted((r for r in found if sum(r) > 0),
                      key=lambda r: (sum(r), r))
    return RootDatum(f"{kind.upper()}{rank}", rank, cartan, positive)


def root_label(root):
    """Compact text label: a1, a12, ma122 (indices with multiplicity)."""
    prefix = ""
    r = root
    if sum(r) < 0:
        prefix = "m"
        r = neg(r)
    digits = "".join(str(i + 1) * c for i, c in enumerate(r))
    return f"{prefix}a{digits}"


class ChevAlgebra:
    """Simple Lie algebra with an indexed Chevalley basis.

    Basis order: H_{alpha_1}..H_{alpha_n}, then X_alpha for alpha running
    over positive roots by height then their negatives in matching order.
    The structure table maps (i, j) to a sparse {k: integer} row, and the
    Killing table is the exact trace form of the adjoint operators.
    """

    __slots__ = (
        "datum", "rank", "dim", "labels", "label_index", "root_of_index",
        "index_of_root", "table", "killing_table",
    )

    def __init__(self, datum, table_override=None):
        self.datum = datum
        self.rank = datum.rank
        roots = list(datum.positive) + [neg(r) for r in datum.positive]
        self.dim = datum.rank + len(roots)
        self.labels = self.default_labels(datum)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.root_of_index = {datum.rank + i: r for i, r in enumerate(roots)}
        self.index_of_root = {r: datum.rank + i for i, r in enumerate(roots)}
        self.table = table_override if table_override is not None else _build_table(self)
        self.killing_table = _killing_from_table(self)

    @staticmethod
    def default_labels(datum):
        """H_1..H_n, then X_<root> in basis order."""
        roots = list(datum.positive) + [neg(r) for r in datum.positive]
        return ([f"H_{i+1}" for i in range(datum.rank)]
                + [f"X_{root_label(r)}" for r in roots])

    def simple_pairing(self, i):
        """<X_{alpha_i}, X_{-alpha_i}> for the i-th simple root."""
        alpha = self.datum.simple[i]
        return self.killing_table[(self.index_of_root[alpha],
                                   self.index_of_root[neg(alpha)])]

    def __repr__(self):
        return f"ChevAlgebra({self.datum.label}, dim={self.dim})"


def _asymmetry_sign(datum, r1, r2):
    """Bimultiplicative sign with e(ai,ai) = -1 and -1 on edges i < j."""
    total = 0
    n = datum.rank
    for i in range(n):
        if not r1[i]:
            continue
        for j in range(n):
            if not r2[j]:
                continue
            if i == j or (i < j and datum.cartan[i][j] == -1):
                total += r1[i] * r2[j]
    return -1 if total % 2 else 1


def _build_table(alg):
    """Structure constants: N_{a,b} = +-1 by the asymmetry sign when a + b
    is a root, since a simply-laced a-string through b has length 2."""
    datum = alg.datum
    n = datum.rank
    rootset = set(datum.roots)
    table = {}

    def put(i, j, row):
        row = {k: c for k, c in row.items() if c}
        if row:
            table[(i, j)] = row
            table[(j, i)] = {k: -c for k, c in row.items()}

    for i in range(n):
        for idx, alpha in alg.root_of_index.items():
            val = pairing(alpha, i, datum.cartan)
            if val:
                put(i, idx, {idx: val})
    for i1, alpha in alg.root_of_index.items():
        for i2, beta in alg.root_of_index.items():
            if i1 >= i2:
                continue
            if beta == neg(alpha):
                # [X_a, X_-a] = H_a, the coroot, with sign following the
                # positive member of the pair
                pos = alpha if sum(alpha) > 0 else beta
                sgn = 1 if sum(alpha) > 0 else -1
                put(i1, i2, {i: sgn * c for i, c in enumerate(pos) if c})
                continue
            gamma = add(alpha, beta)
            if gamma not in rootset:
                continue
            sign = _asymmetry_sign(datum, alpha, beta)
            flips = sum(1 for r in (alpha, beta, gamma) if sum(r) < 0)
            if flips % 2:
                sign = -sign
            put(i1, i2, {alg.index_of_root[gamma]: sign})
    return table


def _killing_from_table(alg):
    """Exact trace form <b_i, b_j> = tr(ad b_i . ad b_j), the sum of
    N_jk^l N_il^k over k and l, taken over the table's nonzero entries: an
    index (l, k) -> [(i, N_il^k)] meets each entry N_jk^l.  Each i <= j is
    summed and mirrored, in (i, j) order."""
    into = {}
    for (i, l), row in alg.table.items():
        for k, c in row.items():
            into.setdefault((l, k), []).append((i, c))
    totals = {}
    for (j, k), row in alg.table.items():
        for l, c1 in row.items():
            for i, c2 in into.get((l, k), ()):
                if i <= j:
                    totals[(i, j)] = totals.get((i, j), 0) + c1 * c2
    killing = {}
    for (i, j) in sorted(totals):
        if totals[(i, j)]:
            killing[(i, j)] = killing[(j, i)] = totals[(i, j)]
    return killing


def build_chevalley(kind, rank):
    """Construct the Chevalley algebra of a supported type, e.g. ('A', 2)."""
    return ChevAlgebra(root_datum(kind, rank))


class DiagramAuto:
    """Extension of a Dynkin-diagram symmetry to a basis automorphism.

    Acts by H_{alpha_i} -> H_{alpha_sigma(i)} and X_alpha ->
    sign(alpha) * X_{sigma(alpha)}; signs are +1 on simple roots, and
    `build_diagram_auto` sets the others from the structure table.
    `image[i]` is the image of b_i as (index, integer sign).
    """

    __slots__ = ("alg", "perm", "m", "image")

    def __init__(self, alg, perm, image, order):
        self.alg = alg
        self.perm = perm
        self.m = order
        self.image = image

    def index_image(self, i):
        """Image of basis index i as (index, integer sign)."""
        return self.image[i]

    def inverse(self):
        inv = sorted((j, i, s) for i, (j, s) in enumerate(self.image))
        inv_perm = tuple(self.perm.index(i) for i in range(self.alg.rank))
        return DiagramAuto(self.alg, inv_perm, tuple((i, s) for _, i, s in inv), self.m)

    def matrix(self):
        """Integer matrix of the automorphism on the Chevalley basis."""
        mat = [{} for _ in range(self.alg.dim)]
        for i, (j, s) in enumerate(self.image):
            mat[j][i] = (s, 0)
        return mat

    def is_identity(self):
        return all(img == (i, 1) for i, img in enumerate(self.image))

    def __repr__(self):
        images = " ".join(str(p + 1) for p in self.perm)
        return f"DiagramAuto(perm=[{images}], order={self.m})"


def build_diagram_auto(alg, perm):
    """Extend a permutation of the simple roots to a basis automorphism.

    `perm` gives 0-based images of the simple-root indices.  The extension
    is b_i -> s_i b_{sigma i} with s = +1 on each H_i and X_{+-alpha_i}.  It
    respects the bracket entry by entry, s_i s_j N_{sigma i, sigma j}^{sigma k}
    = s_k N_ij^k, and each image row has the size of its row, so empty
    brackets map to empty ones.  One pass over the integer table, lowest
    height first, sets each other sign from the first entry that reaches it
    and checks every entry.  Raises ValueError when the permutation is not a
    diagram symmetry or no signs make it an automorphism of the table.
    """
    datum = alg.datum
    n = datum.rank
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the simple roots")
    if any(datum.cartan[perm[i]][perm[j]] != datum.cartan[i][j]
           for i in range(n) for j in range(n)):
        raise ValueError("permutation is not a Dynkin-diagram symmetry")
    root_image = {r: tuple(sum(c for i, c in enumerate(r) if perm[i] == j)
                           for j in range(n)) for r in datum.roots}
    if not set(root_image.values()) <= set(datum.roots):
        raise ValueError("permutation does not stabilize the root set")
    roots = [alg.root_of_index[i] for i in range(n, alg.dim)]
    sigma = list(perm) + [alg.index_of_root[root_image[r]] for r in roots]
    height = [0] * n + [abs(sum(r)) for r in roots]
    sign = [1 if h <= 1 else None for h in height]
    # inputs are no higher than the sort key and each root of height h + 1
    # has an entry of key h; an unsigned input reads as 0 and fails its entry
    for i, j in sorted(alg.table, key=lambda p: max(height[p[0]], height[p[1]])):
        row = alg.table[(i, j)]
        image_row = alg.table.get((sigma[i], sigma[j]), {})
        s_ij = (sign[i] or 0) * (sign[j] or 0)
        for k, c in row.items():
            s = s_ij * image_row.get(sigma[k], 0)
            if sign[k] is None and s in (c, -c):
                sign[k] = s // c
            if sign[k] is None or sign[k] * c != s or len(image_row) != len(row):
                raise ValueError(f"sign resolution infeasible: automorphism fails "
                                 f"on ({alg.labels[i]}, {alg.labels[j]})")
    if None in sign:
        raise ValueError(f"sign resolution infeasible: no entry reaches "
                         f"{alg.labels[sign.index(None)]}")
    order, cur = 1, perm
    while cur != tuple(range(n)):
        cur = tuple(perm[c] for c in cur)
        order += 1
    for i in range(alg.dim):
        j, s = i, 1
        for _ in range(order):
            j, s = sigma[j], s * sign[j]
        if (j, s) != (i, 1):
            raise ValueError("constructed map does not have the expected order")
    return DiagramAuto(alg, perm, tuple(zip(sigma, sign)), order)


def sigma_eigenspaces(auto):
    """Bases of the eigenspaces g_i = ker(sigma - zeta^i), i in Z/mZ, as
    {index: pair} vectors."""
    alg = auto.alg
    m = auto.m
    mat = auto.matrix()
    spaces = [linalg.kernel_basis(linalg.shifted(mat, pair_pow(ZETA[m], i)),
                                  alg.dim) for i in range(m)]
    if sum(len(b) for b in spaces) != alg.dim:
        raise ValueError("eigenspace dimensions do not sum to dim g")
    return spaces


def cartan_of_fixed(auto):
    """(basis of h_0, basis of h = C_g(h_0)) as {index: pair} vectors; h is
    verified Cartan-like.

    h_0 is spanned by the sigma-orbit sums of the H_{alpha_i}; its
    centralizer is computed by an exact joint kernel and checked to be
    abelian and self-centralizing.
    """
    alg = auto.alg
    seen = set()
    h0 = []
    for i in range(alg.rank):
        if i in seen:
            continue
        orbit = []
        j = i
        while j not in orbit:
            orbit.append(j)
            j = auto.perm[j]
        seen.update(orbit)
        h0.append({k: (1, 0) for k in orbit})
    h = centralizer_in_g(alg, h0)
    _assert_abelian(alg, h)
    # h is abelian, so h lies in C_g(h): equal kernel dimensions make them equal
    if len(centralizer_in_g(alg, h)) != len(h):
        raise ValueError("centralizer of h_0 is not self-centralizing")
    return h0, h


def centralizer_in_g(alg, elements):
    """Exact solution of [t, x] = 0 for all t in `elements`: row k of ad t
    holds t_i * N_ij^k at column j, read from the table rows."""
    stacked = []
    for t in elements:
        rows = [{} for _ in range(alg.dim)]
        for (i, j), row in alg.table.items():
            if (x := t.get(i)) is not None:
                for k, n in row.items():
                    _add_pair(rows[k], j, x[0] * n, x[1] * n)
        stacked.extend(rows)
    return linalg.kernel_basis(stacked, alg.dim)


def _assert_abelian(alg, elements):
    terms = [{(i, 0): v for i, v in x.items()} for x in elements]
    for i, x in enumerate(terms):
        for y in terms[i:]:
            if table_products(alg.table, x, y):
                raise ValueError("expected an abelian subalgebra")
