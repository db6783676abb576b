"""Simple Lie algebras with Chevalley bases and diagram automorphisms.

Roots live in the root lattice as integer coefficient tuples over the simple
roots.  Structure constants come from the root-chain rule with signs fixed by
a bimultiplicative asymmetry function on the lattice (edges oriented from the
lower to the higher node index), so the A series and D4 share one code path.
The supported built-in types are simply laced; arbitrary algebras can be fed
in as explicit structure-constant tables.
"""

from __future__ import annotations

from . import linalg
from .scalars import CycScalar, add_into, as_scalar

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
    n = rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    # positive roots by height induction using the chain rule q = p - <b, a_i>
    by_height = {1: list(simple)}
    known = set(simple)
    height = 1
    while by_height.get(height):
        nxt = []
        for beta in by_height[height]:
            for i in range(n):
                p = 0
                lower = beta
                while True:
                    lower = tuple(c - (1 if j == i else 0) for j, c in enumerate(lower))
                    if all(c >= 0 for c in lower) and (lower in known or lower == (0,) * n):
                        if lower == (0,) * n:
                            break
                        p += 1
                    else:
                        break
                q = p - pairing(beta, i, cartan)
                if q > 0:
                    cand = add(beta, simple[i])
                    if cand not in known:
                        known.add(cand)
                        nxt.append(cand)
        height += 1
        if nxt:
            by_height[height] = nxt
    positive = sorted(known, key=lambda r: (sum(r), r))
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

    def bracket_basis(self, i, j):
        """Sparse {k: c} row of [b_i, b_j]."""
        return self.table.get((i, j), {})

    def killing_basis(self, i, j):
        return self.killing_table.get((i, j), 0)

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


def _chain_p(datum, alpha, beta, rootset):
    """Largest p with beta - p*alpha a root."""
    p = 0
    cur = beta
    while True:
        cur = tuple(a - b for a, b in zip(cur, alpha))
        if cur in rootset:
            p += 1
        else:
            return p


def _build_table(alg):
    """Structure constants via the root-chain rule with asymmetry signs."""
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
            p = _chain_p(datum, alpha, beta, rootset)
            sign = _asymmetry_sign(datum, alpha, beta)
            flips = sum(1 for r in (alpha, beta, gamma) if sum(r) < 0)
            if flips % 2:
                sign = -sign
            put(i1, i2, {alg.index_of_root[gamma]: sign * (p + 1)})
    return table


def _killing_from_table(alg):
    """Exact trace form <x,y> = tr(ad x . ad y) over the structure table."""
    dim = alg.dim
    killing = {}
    for i in range(dim):
        for j in range(i, dim):
            total = 0
            for k in range(dim):
                row_jk = alg.table.get((j, k))
                if not row_jk:
                    continue
                for l, c1 in row_jk.items():
                    c2 = alg.table.get((i, l), {}).get(k, 0)
                    if c2:
                        total += c1 * c2
            if total:
                killing[(i, j)] = total
                killing[(j, i)] = total
    return killing


def build_chevalley(kind, rank):
    """Construct the Chevalley algebra of a supported type, e.g. ('A', 2)."""
    return ChevAlgebra(root_datum(kind, rank))


class SparseElt:
    """Sparse coordinates over the Chevalley basis: {index: coefficient}.

    The coefficients lie in one ring, Q(zeta_m) for GElt and the Laurent
    polynomials for LoopElt, and no stored coefficient is zero.  The
    arithmetic both rings share lives here; subclasses coerce coefficients
    in their constructors and add what is particular to them.
    """

    __slots__ = ("alg", "m", "coords")

    @classmethod
    def _make(cls, alg, m, coords):
        # Internal fast path: coords already a zero-free map of ring elements.
        self = object.__new__(cls)
        self.alg = alg
        self.m = m
        self.coords = coords
        return self

    def _check(self, other):
        if self.alg is not other.alg or self.m != other.m:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coords)
        for i, c in other.coords.items():
            add_into(out, i, c)
        return self._make(self.alg, self.m, out)

    def __neg__(self):
        return self._make(self.alg, self.m, {i: -c for i, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def bracket(self, other):
        """[sum ci b_i, sum cj b_j] = sum ci*cj [b_i, b_j] over the table."""
        self._check(other)
        table = self.alg.table
        out = {}
        for i, ci in self.coords.items():
            for j, cj in other.coords.items():
                row = table.get((i, j))
                if not row:
                    continue
                cij = ci * cj
                for k, c in row.items():
                    add_into(out, k, cij * c)
        return self._make(self.alg, self.m, out)

    def permuted(self, index_image, f=None):
        """The image under b_i -> sign * b_j, (j, sign) = index_image(i),
        with each coefficient first mapped by `f`."""
        out = {}
        for i, c in self.coords.items():
            j, sign = index_image(i)
            if f is not None:
                c = f(c)
            add_into(out, j, c if sign == 1 else -c)
        return self._make(self.alg, self.m, out)

    def is_zero(self):
        return not self.coords

    def __bool__(self):
        return bool(self.coords)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.alg is other.alg and self.m == other.m
                and self.coords == other.coords)


class GElt(SparseElt):
    """Element of g with coordinates in Q(zeta_m) over the Chevalley basis."""

    __slots__ = ()

    def __init__(self, alg, m, coords=None):
        self.alg = alg
        self.m = m
        clean = {}
        for i, c in (coords or {}).items():
            c = as_scalar(m, c)
            if c:
                clean[int(i)] = c
        self.coords = clean

    @classmethod
    def basis(cls, alg, m, index, coef=1):
        return cls(alg, m, {index: as_scalar(m, coef)})

    def scale(self, coef):
        coef = as_scalar(self.m, coef)
        return GElt(self.alg, self.m, {i: c * coef for i, c in self.coords.items()})

    def killing(self, other):
        self._check(other)
        total = CycScalar.zero(self.m)
        for i, ci in self.coords.items():
            for j, cj in other.coords.items():
                k = self.alg.killing_table.get((i, j), 0)
                if k:
                    total = total + ci * cj * k
        return total

    def render(self):
        if not self.coords:
            return "0"
        from .scalars import _coef_prefix, join_signed
        parts = []
        for i in sorted(self.coords):
            sign, mult = _coef_prefix(self.coords[i])
            parts.append((sign, mult + self.alg.labels[i]))
        return join_signed(parts)

    def __repr__(self):
        return f"GElt({self.render()!r})"


class DiagramAuto:
    """Extension of a Dynkin-diagram symmetry to a basis automorphism.

    Acts by H_{alpha_i} -> H_{alpha_sigma(i)} and X_alpha ->
    sign(alpha) * X_{sigma(alpha)}; signs are +1 on simple roots and are
    propagated through the structure constants.
    """

    __slots__ = ("alg", "perm", "m", "root_image", "signs")

    def __init__(self, alg, perm, root_image, signs, order):
        self.alg = alg
        self.perm = perm
        self.m = order
        self.root_image = root_image
        self.signs = signs

    def index_image(self, i):
        """Image of basis index i as (index, integer sign)."""
        alg = self.alg
        if i < alg.rank:
            return self.perm[i], 1
        root = alg.root_of_index[i]
        return alg.index_of_root[self.root_image[root]], self.signs[root]

    def apply(self, x):
        return x.permuted(self.index_image)

    def inverse(self):
        n = self.alg.rank
        inv_perm = tuple(self.perm.index(i) for i in range(n))
        inv_root_image = {img: r for r, img in self.root_image.items()}
        inv_signs = {img: self.signs[r] for r, img in self.root_image.items()}
        return DiagramAuto(self.alg, inv_perm, inv_root_image, inv_signs, self.m)

    def matrix(self):
        """Integer matrix of the automorphism on the Chevalley basis."""
        mat = [{} for _ in range(self.alg.dim)]
        for i in range(self.alg.dim):
            j, s = self.index_image(i)
            mat[j][i] = CycScalar(self.m, s)
        return mat

    def is_identity(self):
        return all(self.perm[i] == i for i in range(self.alg.rank)) and all(
            s == 1 for s in self.signs.values()
        )

    def __repr__(self):
        images = " ".join(str(p + 1) for p in self.perm)
        return f"DiagramAuto(perm=[{images}], order={self.m})"


def build_diagram_auto(alg, perm):
    """Extend a permutation of the simple roots to a basis automorphism.

    `perm` gives 0-based images of the simple-root indices.  Raises
    ValueError when the permutation is not a diagram symmetry or when sign
    propagation fails to produce an automorphism.
    """
    datum = alg.datum
    n = datum.rank
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the simple roots")
    for i in range(n):
        for j in range(n):
            if datum.cartan[perm[i]][perm[j]] != datum.cartan[i][j]:
                raise ValueError("permutation is not a Dynkin-diagram symmetry")

    def image(root):
        out = [0] * n
        for i, c in enumerate(root):
            out[perm[i]] += c
        return tuple(out)

    root_image = {r: image(r) for r in datum.roots}
    if any(img not in set(datum.roots) for img in root_image.values()):
        raise ValueError("permutation does not stabilize the root set")

    signs = {}
    for i in range(n):
        signs[datum.simple[i]] = 1
    # propagate by height through decompositions gamma = beta + alpha_i
    for gamma in sorted(datum.positive, key=lambda r: (sum(r), r)):
        if sum(gamma) == 1:
            continue
        done = False
        for i in range(n):
            beta = tuple(c - (1 if j == i else 0) for j, c in enumerate(gamma))
            if beta not in signs or any(c < 0 for c in beta):
                continue
            alpha = datum.simple[i]
            n_ab = alg.table[(alg.index_of_root[beta], alg.index_of_root[alpha])][
                alg.index_of_root[gamma]
            ]
            n_img = alg.table[
                (alg.index_of_root[root_image[beta]], alg.index_of_root[root_image[alpha]])
            ][alg.index_of_root[root_image[gamma]]]
            val = signs[beta] * signs[alpha] * n_img // n_ab
            if val not in (1, -1):
                raise ValueError("sign resolution failed: structure-constant bug")
            signs[gamma] = val
            done = True
            break
        if not done:
            raise ValueError(f"no decomposition found for root {gamma}")
    for r in datum.positive:
        signs[neg(r)] = signs[r]

    order = 1
    cur = perm
    ident = tuple(range(n))
    while cur != ident:
        cur = tuple(perm[c] for c in cur)
        order += 1

    auto = DiagramAuto(alg, perm, root_image, signs, order)
    _verify_diagram_auto(alg, auto, order)
    return auto


def _verify_diagram_auto(alg, auto, order):
    """Exhaustive check: bracket compatibility and sigma^order = id."""
    m = order if order in (1, 2, 3) else 1
    for i in range(alg.dim):
        for j in range(alg.dim):
            x = GElt.basis(alg, m, i)
            y = GElt.basis(alg, m, j)
            lhs = auto.apply(x.bracket(y))
            rhs = auto.apply(x).bracket(auto.apply(y))
            if lhs != rhs:
                raise ValueError(
                    f"sign resolution infeasible: automorphism fails on "
                    f"({alg.labels[i]}, {alg.labels[j]})"
                )
    for i in range(alg.dim):
        x = GElt.basis(alg, m, i)
        y = x
        for _ in range(order):
            y = auto.apply(y)
        if y != x:
            raise ValueError("constructed map does not have the expected order")


def sigma_eigenspaces(auto):
    """Bases of the eigenspaces g_i = ker(sigma - zeta^i), i in Z/mZ."""
    alg = auto.alg
    m = auto.m
    mat = auto.matrix()
    zeta = CycScalar.zeta(m)
    spaces = []
    for i in range(m):
        basis = linalg.kernel_basis(linalg.shifted(mat, zeta ** i, m), alg.dim, m)
        spaces.append([GElt(alg, m, v) for v in basis])
    if sum(len(b) for b in spaces) != alg.dim:
        raise ValueError("eigenspace dimensions do not sum to dim g")
    return spaces


def cartan_of_fixed(auto):
    """(basis of h_0, basis of h = C_g(h_0)); h is verified Cartan-like.

    h_0 is spanned by the sigma-orbit sums of the H_{alpha_i}; its
    centralizer is computed by an exact joint kernel and checked to be
    abelian and self-centralizing.
    """
    alg = auto.alg
    m = auto.m
    n = alg.rank
    seen = set()
    h0 = []
    for i in range(n):
        if i in seen:
            continue
        orbit = []
        j = i
        while j not in orbit:
            orbit.append(j)
            j = auto.perm[j]
        seen.update(orbit)
        h0.append(GElt(alg, m, {k: CycScalar.one(m) for k in orbit}))
    h = centralizer_in_g(alg, m, h0)
    _assert_abelian(h)
    again = centralizer_in_g(alg, m, h)
    if not linalg.same_span([x.coords for x in h], [x.coords for x in again], m):
        raise ValueError("centralizer of h_0 is not self-centralizing")
    return h0, h


def centralizer_in_g(alg, m, elements):
    """Exact solution of [t, x] = 0 for all t in `elements`."""
    dim = alg.dim
    stacked = []
    for t in elements:
        rows = [{} for _ in range(dim)]
        for j in range(dim):
            img = t.bracket(GElt.basis(alg, m, j))
            for i, c in img.coords.items():
                rows[i][j] = c
        stacked.extend(rows)
    return [GElt(alg, m, v) for v in linalg.kernel_basis(stacked, dim, m)]


def _assert_abelian(elements):
    for i, x in enumerate(elements):
        for y in elements[i:]:
            if not x.bracket(y).is_zero():
                raise ValueError("expected an abelian subalgebra")
