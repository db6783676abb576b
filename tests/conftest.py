"""Shared fixtures and independent test oracles.

Oracles here deliberately avoid the library's own code paths: the
eigenspace oracle is a self-contained row reduction over explicit
(rational, rational) pairs representing a + b*zeta, and the trace oracle
multiplies dense adjoint matrices directly.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from affinelie.rootsys import build_chevalley, build_diagram_auto
from affinelie.loop import LoopElt, TwistedContext
from affinelie.affine import AffineElt, flat
from affinelie.scalars import CycScalar, LaurentElt, pair_terms, table_products

# Tier-1 draws the same examples on every run and keeps no example
# database; tests/explore.py draws the property tests from many seeds
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def a1():
    return build_chevalley("A", 1)


@pytest.fixture(scope="session")
def a2():
    return build_chevalley("A", 2)


@pytest.fixture(scope="session")
def a3():
    return build_chevalley("A", 3)


@pytest.fixture(scope="session")
def d4():
    return build_chevalley("D", 4)


@pytest.fixture(scope="session")
def a1_id(a1):
    return build_diagram_auto(a1, (0,))


@pytest.fixture(scope="session")
def a2_id(a2):
    return build_diagram_auto(a2, (0, 1))


@pytest.fixture(scope="session")
def a2_flip(a2):
    return build_diagram_auto(a2, (1, 0))


@pytest.fixture(scope="session")
def a3_flip(a3):
    return build_diagram_auto(a3, (2, 1, 0))


@pytest.fixture(scope="session")
def d4_triality(d4):
    return build_diagram_auto(d4, (2, 1, 3, 0))


@pytest.fixture(scope="session")
def a1_ctx(a1_id):
    return TwistedContext(a1_id)


@pytest.fixture(scope="session")
def a2_flip_ctx(a2_flip):
    return TwistedContext(a2_flip)


def g_loop(alg, m, vec, p=0, coef=1):
    """coef * v (x) s^p as a LoopElt, for a g-vector v = {index: pair}."""
    return LoopElt(alg, m, {i: LaurentElt.s_power(m, p, CycScalar(m, *c) * coef)
                            for i, c in vec.items()})


def g_slice(x, p=0):
    """The g-vector {index: pair} of the s^p coefficients of a LoopElt."""
    return {i: c for (i, q), c in pair_terms(x.coords).items() if q == p}


def make_loop_sampler(alg, m, rng, lo=-3, hi=3, terms=2, ctx=None):
    """Seeded random loop elements: basis monomials with coefficients in
    [-5, 5]; when a twisted context is given, sampling stays twisted."""
    def sample():
        out = LoopElt.zero(alg, m)
        for _ in range(terms):
            j = rng.randint(lo, hi)
            if ctx is not None:
                basis = ctx.slice_basis(j)
                e = basis[rng.randrange(len(basis))]
                out = out + g_loop(alg, m, e, j, rng.randint(-5, 5))
            else:
                idx = rng.randrange(alg.dim)
                out = out + LoopElt.monomial(alg, m, idx, j, rng.randint(-5, 5))
        return out
    return sample


def make_affine_sampler(alg, m, rng, lo=-3, hi=3, terms=2, ctx=None):
    loop_sampler = make_loop_sampler(alg, m, rng, lo, hi, terms, ctx)

    def sample():
        return AffineElt(loop_sampler(), c=rng.randint(-5, 5), d=rng.randint(-5, 5))
    return sample


def flattened(sample):
    """A sampler of the flat forms (`affine.flat`) of what `sample` draws,
    as the sampled verifiers read them."""
    return lambda: flat(sample())


def nilpotent_twisted_lines(ctx):
    """Eigenbasis lines supported purely on one sign of root vectors.

    Orbit sums of same-sign root vectors lie in a nilpotent subalgebra, so
    their ad-action is nilpotent and exponentiates exactly.
    """
    alg = ctx.alg
    out = []
    for residue in range(ctx.m):
        for e in ctx.eigenspaces[residue]:
            signs = set()
            cartan = False
            for i in e:
                if i < alg.rank:
                    cartan = True
                else:
                    signs.add(1 if sum(alg.root_of_index[i]) > 0 else -1)
            if not cartan and len(signs) == 1:
                out.append((residue, e))
    return out


def make_twisted_word_sampler(ctx, rng, length=4):
    """Hat words that preserve the twisted subalgebra.

    Uses Galois-equivariant kinds only: exponentials of degree-zero
    twisted nilpotents, symmetric constant torus points, base-ring maps
    (inversion only when m <= 2), the diagram automorphism itself, and
    kernel shifts.  All have zero degree spread.
    """
    from affinelie.autos import (AutoWord, Diagram, NilExp, Ring, TorusK,
                                 VShift)
    alg, m, auto = ctx.alg, ctx.m, ctx.auto
    degree_zero_nils = [e for residue, e in nilpotent_twisted_lines(ctx)
                        if residue == 0]

    def symmetric_torus():
        orbit_value = {}
        coords = []
        for i in range(alg.rank):
            j = min(_orbit(auto.perm, i))
            if j not in orbit_value:
                orbit_value[j] = (rng.choice([2, 3, -1]), 0)
            coords.append(orbit_value[j])
        return TorusK(alg, tuple(coords))

    def sample():
        gens = []
        while len(gens) < length:
            k = rng.randrange(5)
            if k == 0 and degree_zero_nils:
                e = degree_zero_nils[rng.randrange(len(degree_zero_nils))]
                z = g_loop(alg, m, e, 0, rng.randint(1, 2))
                gens.append(NilExp(alg, m, pair_terms(z.coords)))
            elif k == 1:
                gens.append(symmetric_torus())
            elif k == 2:
                e = rng.choice([1, -1]) if m <= 2 else 1
                gens.append(Ring((rng.choice([2, 3, -1]), 0), e))
            elif k == 3 and not auto.is_identity():
                gens.append(Diagram(auto))
            else:
                gens.append(VShift((rng.randint(-3, 3), 0)))
        return AutoWord("hat", tuple(gens))

    return sample


def _orbit(perm, i):
    out = [i]
    j = perm[i]
    while j != i:
        out.append(j)
        j = perm[j]
    return out


# -- malformed algebra files -------------------------------------------------

_SL2_BRACKETS = ("bracket: H_1 X_a1 -> 2 X_a1\nbracket: H_1 X_ma1 -> -2 X_ma1\n"
                 "bracket: X_a1 X_ma1 -> 1 H_1\n")

# the Chevalley table of A2, whose labels order the positive roots by
# height and then as tuples: X_a2 before X_a1
_A2_BRACKETS = "".join(f"bracket: {line}\n" for line in (
    "H_1 X_a2 -> -1 X_a2", "H_1 X_a1 -> 2 X_a1", "H_1 X_a12 -> 1 X_a12",
    "H_1 X_ma2 -> 1 X_ma2", "H_1 X_ma1 -> -2 X_ma1", "H_1 X_ma12 -> -1 X_ma12",
    "H_2 X_a2 -> 2 X_a2", "H_2 X_a1 -> -1 X_a1", "H_2 X_a12 -> 1 X_a12",
    "H_2 X_ma2 -> -2 X_ma2", "H_2 X_ma1 -> 1 X_ma1", "H_2 X_ma12 -> -1 X_ma12",
    "X_a2 X_a1 -> 1 X_a12", "X_a2 X_ma2 -> 1 H_2", "X_a2 X_ma12 -> -1 X_ma1",
    "X_a1 X_ma1 -> 1 H_1", "X_a1 X_ma12 -> 1 X_ma2", "X_a12 X_ma2 -> -1 X_a1",
    "X_a12 X_ma1 -> 1 X_a2", "X_a12 X_ma12 -> 1 H_1, 1 H_2",
    "X_ma2 X_ma1 -> -1 X_ma12"))

# sp(4), type C2, a Chevalley table derived from 4x4 symplectic matrices: a1
# is short and a2 long, so it has N = +-2 (X_a1 X_a12 -> 2 X_a112) and a
# long coroot (X_a12 X_ma12 -> 1 H_1, 2 H_2), which no shipped file has
_C2_BRACKETS = "".join(f"bracket: {line}\n" for line in (
    "H_1 X_a1 -> 2 X_a1", "H_1 X_a2 -> -2 X_a2", "H_1 X_a112 -> 2 X_a112",
    "H_1 X_ma1 -> -2 X_ma1", "H_1 X_ma2 -> 2 X_ma2",
    "H_1 X_ma112 -> -2 X_ma112", "H_2 X_a1 -> -1 X_a1", "H_2 X_a2 -> 2 X_a2",
    "H_2 X_a12 -> 1 X_a12", "H_2 X_ma1 -> 1 X_ma1", "H_2 X_ma2 -> -2 X_ma2",
    "H_2 X_ma12 -> -1 X_ma12", "X_a1 X_a2 -> 1 X_a12",
    "X_a1 X_a12 -> 2 X_a112", "X_a1 X_ma1 -> 1 H_1", "X_a1 X_ma12 -> -2 X_ma2",
    "X_a1 X_ma112 -> -1 X_ma12", "X_a2 X_ma2 -> 1 H_2",
    "X_a2 X_ma12 -> 1 X_ma1", "X_a12 X_ma1 -> -2 X_a2",
    "X_a12 X_ma2 -> 1 X_a1", "X_a12 X_ma12 -> 1 H_1, 2 H_2",
    "X_a12 X_ma112 -> 1 X_ma1", "X_a112 X_ma1 -> -1 X_a12",
    "X_a112 X_ma12 -> 1 X_a1", "X_a112 X_ma112 -> 1 H_1, 1 H_2",
    "X_ma1 X_ma2 -> -1 X_ma12", "X_ma1 X_ma12 -> -2 X_ma112"))
_C2 = ("rank: 2\ncartan: 2 -1; -2 2\nroot: 1 0\nroot: 0 1\nroot: 1 1\n"
       "root: 2 1\n" + _C2_BRACKETS)
C2_TABLE = "schema: 1\ntype: table\n" + _C2

# (id, algebra file text, the parse error it must give); each one loaded
# before the table-mode checks, or ended in a traceback
_MALFORMED = [
    ("no_root_line", "rank: 1\ncartan: 2\n", "simple root 1 has no 'root:' line"),
    ("zero_root", "rank: 1\ncartan: 2\nroot: 0\n",
     "line 5: a root must be nonnegative and nonzero"),
    ("negative_root", "rank: 2\ncartan: 2 -1; -1 2\nroot: 1 0\nroot: 0 1\n"
     "root: 1 -1\n", "line 7: a root must be nonnegative and nonzero"),
    ("repeated_root", "rank: 1\ncartan: 2\nroot: 1\nroot: 1\n" + _SL2_BRACKETS,
     "line 6: root 1 is listed twice"),
    ("simple_root_missing", "rank: 2\ncartan: 2 -1; -1 2\nroot: 1 0\nroot: 1 1\n",
     "simple root 2 has no 'root:' line"),
    ("zero_cartan", "rank: 1\ncartan: 0\nroot: 1\n",
     "table has a degenerate Killing form"),
    ("no_brackets", "rank: 2\ncartan: 2 -1; -1 2\nroot: 1 0\nroot: 0 1\n"
     "root: 1 1\n", "table has a degenerate Killing form"),
    ("self_bracket", "rank: 1\ncartan: 2\nroot: 1\n" + _SL2_BRACKETS
     + "bracket: X_a1 X_a1 -> 1 H_1\n", r"line 9: \[X_a1, X_a1\] must be 0"),
    ("pair_reversed", "rank: 1\ncartan: 2\nroot: 1\n" + _SL2_BRACKETS
     + "bracket: X_ma1 X_a1 -> -2 H_1\n",
     "line 9: the bracket of X_ma1 and X_a1 is given twice"),
    ("pair_repeated", "rank: 1\ncartan: 2\nroot: 1\n" + _SL2_BRACKETS
     + "bracket: X_a1 X_ma1 -> 1 H_1\n",
     "line 9: the bracket of X_a1 and X_ma1 is given twice"),
    ("label", "rank: 1\ncartan: 2\nroot: 1\n" + _SL2_BRACKETS + "label: nonsense\n",
     "line 9: unknown key 'label'"),
    # sl(2) under a cartan line it does not have
    ("cartan_5", "rank: 1\ncartan: 5\nroot: 1\n" + _SL2_BRACKETS,
     r"line 6: \[H_1, X_a1\] must be 5 X_a1 by the cartan matrix"),
    # so(3): ad H_1 has eigenvalues +-i, so its "roots" are no roots
    ("so3", "rank: 1\ncartan: 2\nroot: 1\nbracket: H_1 X_a1 -> 1 X_ma1\n"
     "bracket: X_a1 X_ma1 -> 1 H_1\nbracket: X_ma1 H_1 -> 1 X_a1\n",
     r"line 6: \[H_1, X_a1\] must be 2 X_a1 by the cartan matrix"),
    # a valid sl(2), but [X_a1, X_ma1] = 2 H_1 is twice the coroot, so the
    # cochar lifts' central correction, which reads it as H_1, is wrong
    ("coroot_scaled", "rank: 1\ncartan: 2\nroot: 1\n"
     + _SL2_BRACKETS.replace("-> 1 H_1", "-> 2 H_1"),
     r"line 8: \[X_a1, X_ma1\] must be the coroot: a Cartan element h with "
     r"a1\(h\) = 2"),
    # A2 with [X_a2, X_a1] doubled: its Killing form is nondegenerate and
    # its grading and coroots are right, so only the Jacobi sums reject it
    ("a2_doubled_constant", "rank: 2\ncartan: 2 -1; -1 2\nroot: 1 0\nroot: 0 1\n"
     "root: 1 1\n" + _A2_BRACKETS.replace("X_a1 -> 1 X_a12", "X_a1 -> 2 X_a12"),
     r"table violates Jacobi at \(2,3,5\)"),
    # C2 with its N = 2 constant set to 1: again only the Jacobi sums
    ("c2_constant_1", _C2.replace("X_a12 -> 2 X_a112", "X_a12 -> 1 X_a112"),
     r"table violates Jacobi at \(2,4,6\)"),
    # C2 with the coroot of a12 written as H_1 + H_2, the coroot of a112
    ("c2_coroot_short", _C2.replace("-> 1 H_1, 2 H_2", "-> 1 H_1, 1 H_2"),
     r"line 30: \[X_a12, X_ma12\] must be the coroot: a Cartan element h "
     r"with a12\(h\) = 2"),
]
MALFORMED_TABLES = [pytest.param("schema: 1\ntype: table\n" + text, error, id=name)
                    for name, text, error in _MALFORMED]

# typed files (`type: A`) with a key the type never reads; each one loaded
# as the plain algebra with that line dropped
_TABLE_ONLY = "is read only in a 'type: table' file"
_MALFORMED_TYPED = [
    ("perm_typo", "rank: 2\nprem: 2 1\n", "line 4: unknown key 'prem'"),
    ("label", "rank: 1\nlabel: nonsense\n", "line 4: unknown key 'label'"),
    ("cartan", "rank: 2\ncartan: 2 0; 0 2\n", f"line 4: 'cartan' {_TABLE_ONLY}"),
    ("root", "rank: 1\nroot: 1\n", f"line 4: 'root' {_TABLE_ONLY}"),
    ("bracket", "rank: 2\nperm: 2 1\nbracket: H_1 X_a1 -> 5 X_a1\n",
     f"line 5: 'bracket' {_TABLE_ONLY}"),
    # unknown keys are rejected as they are read, table keys once the type is
    ("table_lines_and_label", "rank: 2\ncartan: 2 0; 0 2\n"
     "bracket: H_1 X_a1 -> 5 X_a1\nlabel: nonsense\n", "line 6: unknown key 'label'"),
]
MALFORMED_TYPED = [pytest.param("schema: 1\ntype: A\n" + text, error, id=f"typed_{name}")
                   for name, text, error in _MALFORMED_TYPED]


# -- independent oracles -----------------------------------------------------


def oracle_ad_matrix(alg, index):
    """Dense integer adjoint matrix of a basis element, built from scratch."""
    n = alg.dim
    mat = [[0] * n for _ in range(n)]
    for j in range(n):
        for k, c in alg.table.get((index, j), {}).items():
            mat[k][j] += c
    return mat


def oracle_killing(alg, i, j):
    """Trace of ad(b_i) . ad(b_j) by direct dense multiplication."""
    a = oracle_ad_matrix(alg, i)
    b = oracle_ad_matrix(alg, j)
    n = alg.dim
    total = 0
    for r in range(n):
        for k in range(n):
            total += a[r][k] * b[k][r]
    return total


class Z3:
    """Minimal standalone Q(zeta_3) elements as (a, b) pairs, a + b*zeta."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, o):
        return Z3(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Z3(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return Z3(self.a * o.a - self.b * o.b,
                  self.a * o.b + self.b * o.a - self.b * o.b)

    def inv(self):
        n = self.a * self.a - self.a * self.b + self.b * self.b
        return Z3((self.a - self.b) / n, -self.b / n)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, o):
        return self.a == o.a and self.b == o.b


def oracle_kernel_dim_z3(rows):
    """Kernel dimension of a matrix of Z3 entries by plain row reduction."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return ncols - rank


def oracle_eigenspace_dims(auto, m):
    """Dimensions of ker(sigma - zeta^i) over Q(zeta_3)-style pairs."""
    alg = auto.alg
    n = alg.dim
    zeta = {1: Z3(1), 2: Z3(-1), 3: Z3(0, 1)}[m]
    sigma = [[Z3(0)] * n for _ in range(n)]
    for i in range(n):
        j, s = auto.index_image(i)
        sigma[j][i] = Z3(s)
    dims = []
    power = Z3(1)
    for _ in range(m):
        shifted = [[sigma[r][c] - (power if r == c else Z3(0))
                    for c in range(n)] for r in range(n)]
        dims.append(oracle_kernel_dim_z3(shifted))
        power = power * zeta
    return dims


def closed_form_weight_counts(ctx, x_cartan, lo, hi):
    """Exact infinite-algebra weight counts for x = h + d with h in h_0.

    Every twisted eigenbasis line e is an exact eigenvector of ad(h) (h is
    regular in h_0), with eigenvalue alpha_e; the line at degree j carries
    weight alpha_e + j.  `x_cartan` is h as a g-vector {index: pair}.
    Returns {weight (Fraction): count} over degrees in [lo, hi], loop level
    only.
    """
    h = {(i, 0): c for i, c in x_cartan.items()}
    counts = {}
    for residue in range(ctx.m):
        for e in ctx.eigenspaces[residue]:
            img = table_products(ctx.alg.table, h,
                                 {(i, 0): c for i, c in e.items()})
            if not img:
                alpha = Fraction(0)
            else:
                (i, _), c = next(iter(img.items()))
                alpha = (CycScalar(ctx.m, *c) / CycScalar(ctx.m, *e[i])).rational()
                assert img == {(k, 0): (alpha * a, alpha * b)
                               for k, (a, b) in e.items()}, \
                    "line is not an eigenvector"
            j = lo
            while j % ctx.m != residue % ctx.m:
                j += 1
            while j <= hi:
                w = alpha + j
                counts[w] = counts.get(w, 0) + 1
                j += ctx.m
    return counts
