"""Weight decompositions: closed-form cross-checks, the windowed lemma
verifiers, and behaviour under conjugation.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from affinelie import linalg
from affinelie.affine import (AffineElt, bracket_affine, flat, flat_bracket,
                              invariant_form, unflat)
from affinelie.autos import AutoWord, Cochar, Ring, RootExp, TorusK, VShift
from affinelie.loop import LoopElt, Window
from affinelie.parsing import (parse_affine, parse_algebra_file, parse_flat,
                               parse_scalar)
from affinelie.rootsys import build_chevalley, build_diagram_auto, cartan_of_fixed
from affinelie.scalars import (CycScalar, LaurentElt, add_products, pair_terms,
                               render_pair,
                               table_pairing, table_products)
from affinelie.slices import (decide_slices, decompose_on_g, opposite_on_g,
                              product_rule_on_g)
from affinelie.spectral import (ad_rows, decomposition_report,
                                degree_reach, interior_indices, lift,
                                reverify, rspan_isomorphism_check,
                                verify_opposite,
                                verify_product_rule, verify_shift,
                                verify_zero_weight, weight_decompose)

from conftest import closed_form_weight_counts, g_loop, g_slice


@pytest.fixture
def a1_x(a1, a1_id):
    """x = H (x) 1 + d on the split rank-1 affine algebra."""
    return AffineElt(LoopElt.monomial(a1, 1, 0, 0), d=1)


@pytest.fixture
def a2_twisted_x(a2, a2_flip):
    """x = (H_1 + H_2) (x) 1 + d, regular in the fixed Cartan."""
    h = LoopElt(a2, 2, {0: LaurentElt.one(2), 1: LaurentElt.one(2)})
    return AffineElt(h, d=1)


class TestAdMatrix:
    def test_d_is_diagonal_degree(self, a1_id):
        win = Window(a1_id, -2, 2)
        d = flat(AffineElt.d_elt(a1_id.alg, 1))
        interior = interior_indices(win, d)
        assert interior == list(range(win.size()))
        mat = ad_rows(d, win, interior)
        for i, (kind, j, _) in enumerate(win.meta):
            expect = (j if kind == "loop" else 0, 0)
            assert mat[i].get(i, (0, 0)) == expect

    def test_degree_zero_cartan_is_diagonal(self, a1, a1_id, a1_x):
        win = Window(a1_id, -2, 2)
        x = flat(a1_x)
        interior = interior_indices(win, x)
        assert interior == list(range(win.size()))
        mat = ad_rows(x, win, interior)
        for i in range(win.size()):
            for j in range(win.size()):
                if i != j:
                    assert not mat[i].get(j)

    def test_degree_shift_flags_boundary(self, a1, a1_id):
        win = Window(a1_id, -2, 2)
        x = flat(AffineElt(LoopElt.monomial(a1, 1, 1, 1)))
        interior = interior_indices(win, x)
        # columns at the end degrees would be pushed out of the window
        ends = [i for i, (k, j, _) in enumerate(win.meta)
                if k == "loop" and j in (-2, 2)]
        assert ends and not set(ends) & set(interior)
        # and no row names an unknown outside the interior columns
        assert all(set(row) <= set(range(len(interior)))
                   for row in ad_rows(x, win, interior))

    def test_joint_interior_is_the_intersection(self, a1, a1_id):
        # a family's joint interior is the intersection of its members':
        # loop columns at the largest reach, d only when every loop part
        # lies inside the window
        from itertools import combinations
        win = Window(a1_id, -2, 2)
        xs = [flat(AffineElt(LoopElt.monomial(a1, 1, 0, 0), d=1)),
              flat(AffineElt(LoopElt.monomial(a1, 1, 1, 1))),
              flat(AffineElt(LoopElt.monomial(a1, 1, 0, -2))),
              flat(AffineElt(LoopElt.monomial(a1, 1, 0, 3)))]
        for k in (1, 2, 3):
            for family in combinations(xs, k):
                joint = set.intersection(*(set(interior_indices(win, x))
                                           for x in family))
                assert interior_indices(win, *family) == sorted(joint)
        assert win.d_slot not in interior_indices(win, xs[0], xs[3])

    def test_rows_put_the_interior_first(self, a1, a1_id):
        # rows[:n] is the square block over the interior, in interior
        # order; every other window row follows once, in window order
        win = Window(a1_id, -2, 2)
        x = flat(AffineElt(LoopElt.monomial(a1, 1, 1, 1), d=1))
        interior = interior_indices(win, x)
        n = len(interior)
        assert 0 < n < win.size()
        rows = ad_rows(x, win, interior)
        columns = {i: win.to_vector(flat_bracket(a1, x, win.flats[i]))
                   for i in interior}
        order = interior + [r for r in range(win.size()) if r not in interior]
        assert len(rows) == win.size() and any(rows[n:])
        assert all(set(row) <= set(range(n)) for row in rows)
        for pos, r in enumerate(order):
            assert rows[pos] == {k: columns[i][r] for k, i in enumerate(interior)
                                 if r in columns[i]}

    def test_check_compares_the_c_part(self, a1, a1_id):
        # [H_1 t, H_1 t^-1] is a nonzero multiple of c and nothing else:
        # a loop- and d-only comparison would accept v as a weight-0 vector
        win = Window(a1_id, -2, 2)
        x = AffineElt(LoopElt.monomial(a1, 1, 0, 1))
        v = AffineElt(LoopElt.monomial(a1, 1, 0, -1))
        image = bracket_affine(x, v)
        assert not image.loop and not image.d and image.c
        with pytest.raises(AssertionError):
            reverify(win.alg, flat(x), flat(v), (0, 0))

    def test_check_compares_the_d_part(self, a1, a1_id):
        # [H_1, d] = 0, so v = d has a zero image: a loop- and c-only
        # comparison would accept v at every weight
        win = Window(a1_id, -2, 2)
        x = AffineElt(LoopElt.monomial(a1, 1, 0, 0))
        v = AffineElt.d_elt(a1, 1)
        assert bracket_affine(x, v).is_zero()
        reverify(win.alg, flat(x), flat(v), (0, 0))
        with pytest.raises(AssertionError):
            reverify(win.alg, flat(x), flat(v), (1, 0))

    def test_lift_reverifies(self, a1, a1_id, a1_x):
        win = Window(a1_id, -2, 2)
        x = flat(a1_x)
        interior = interior_indices(win, x)
        e = win.slot[(1, 0)]
        k = interior.index(e)
        coeffs = {k: (1, 0)}
        w = ad_rows(x, win, interior)[k][k]
        assert lift(win, interior, coeffs, [(x, w)]) == win.flats[e]
        with pytest.raises(AssertionError):
            lift(win, interior, coeffs, [(x, (w[0] + 1, w[1]))])


# one small window per root-of-unity order, built once
WINDOW_AUTOS = {1: ("A", 1, (0,)), 2: ("A", 2, (1, 0)), 3: ("D", 4, (2, 1, 3, 0))}
_small_windows = {}


def small_window(m):
    if m not in _small_windows:
        kind, rank, perm = WINDOW_AUTOS[m]
        auto = build_diagram_auto(build_chevalley(kind, rank), perm)
        _small_windows[m] = Window(auto, -m, m)
    return _small_windows[m]


class TestToVector:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_without_zeros(self, m, data):
        win = small_window(m)
        zeta = st.integers(-2, 2) if m == 3 else st.just(0)
        terms = data.draw(st.lists(st.tuples(st.integers(0, win.size() - 1),
                                             st.integers(-3, 3), zeta),
                                   max_size=6))
        elt = AffineElt.zero(win.alg, m)
        for i, a, b in terms:
            elt = elt + win.basis[i].scale(CycScalar(m, a, b))
        vec = win.to_vector(flat(elt))
        assert set(vec) <= set(range(win.size()))
        # `SpanSolver.add` inverts v[min(v)]: no stored entry may be zero
        assert all(a or b for a, b in vec.values())
        assert win.from_vector(vec) == flat(elt)
        # one term just outside [lo, hi] takes the element out of the window
        j = data.draw(st.sampled_from([win.lo - 1, win.hi + 1]))
        basis = win.ctx.slice_basis(j)
        e = basis[data.draw(st.integers(0, len(basis) - 1))]
        assert win.to_vector(flat(elt + AffineElt(g_loop(win.alg, m, e, j)))) is None


def blockwise_reference(x, window):
    """The per-slice eigensolve that `weight_decompose` ran for degree-zero
    loop parts before it had one path, kept as its reference (only its
    slice blocks are now built from sparse columns).  Returns the sorted
    (weight, vectors) pairs, `complete` and `defect`."""
    m = window.m
    interior = interior_indices(window, x)
    columns = {i: window.to_vector(flat_bracket(window.alg, x, window.flats[i]))
               for i in interior}
    by_weight = {}
    total = 0

    def stash(w, vector):
        nonlocal total
        by_weight.setdefault(w, (w, []))[1].append(vector)
        total += 1

    for j in range(window.lo, window.hi + 1):
        block = [window.slot[(j, pos)] for pos in range(len(window.ctx.slice_basis(j)))]
        mat = [{k: columns[col][row] for k, col in enumerate(block)
                if row in columns[col]} for row in block]
        # an incomplete slice surfaces through the dimension certificate
        spaces, _ = linalg.eigenspaces(mat, len(mat))
        for w, sub in spaces:
            for coeffs in sub:
                f = window.from_vector({block[k]: c for k, c in coeffs.items()})
                reverify(window.alg, x, f, w)
                stash(w, f)
    zero = (0, 0)
    for elt in (AffineElt.c_elt(window.alg, m), AffineElt.d_elt(window.alg, m)):
        reverify(window.alg, x, flat(elt), zero)
        stash(zero, flat(elt))
    spaces = [by_weight[key] for key in sorted(by_weight)]
    complete = total == len(interior)
    return spaces, complete, None if complete else len(interior) - total


ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"


class TestDegreeZeroMatchesBlockwise:
    @pytest.mark.parametrize("name, x_text, half", [
        ("a1", "H_1*t^0 + d", 3),
        ("a1", "X_a1*t^0 + d", 3),
        ("a1", "2*H_1*t^0 + X_a1*t^0", 2),
        ("a2", "H_1*t^0 + 2*H_2*t^0 + d", 2),
        ("a2", "H_1*t^0 + X_a1*t^0 + d", 2),
        ("a2_twisted", "H_1*t^0 + H_2*t^0 + d", 4),
        # the CLI window: the characteristic polynomial of the whole
        # interior has a 22-digit constant term, each slice's a small one
        ("a2_twisted", "X_a1*t^0 + X_a2*t^0 + d", 6),
        ("sl2_table", "H_1*t^0 + d", 3),
    ])
    def test_same_weights_vectors_and_defect(self, name, x_text, half):
        alg, auto = parse_algebra_file((ALGEBRAS / f"{name}.alg").read_text())
        win = Window(auto, -half, half)
        x = parse_flat(x_text, alg, auto.m)
        assert degree_reach(x) == 0
        dec = weight_decompose(x, win)
        spaces, complete, defect = blockwise_reference(x, win)
        assert [(sp.w, sp.vectors) for sp in dec.spaces] == spaces
        assert (dec.complete, dec.defect) == (complete, defect)


class TestWeightDecompose:
    def test_matches_closed_form(self, a1, a1_id, a1_ctx, a1_x):
        win = Window(a1_id, -3, 3)
        dec = weight_decompose(flat(a1_x), win)
        assert dec.complete
        h = g_slice(a1_x.loop)
        counts = closed_form_weight_counts(a1_ctx, h, -3, 3)
        for sp in dec.spaces:
            w, zeta_part = sp.w
            assert not zeta_part
            loop_dim = len(dec.loop_space(sp.w))
            assert counts.get(w, 0) == loop_dim

    def test_insider_split(self, a1, a1_id, a1_x):
        # the zero eigenspace splits as (core part) + the line through x
        win = Window(a1_id, -3, 3)
        dec = weight_decompose(flat(a1_x), win)
        sp0 = dec.space((0, 0))
        from affinelie import linalg
        solver = linalg.SpanSolver()
        d_free = [v for v in sp0.vectors if not v[2]]
        for v in d_free:
            solver.add(win.to_vector(v))
        assert len(d_free) == sp0.dim - 1
        assert solver.contains(win.to_vector(flat(AffineElt.c_elt(a1, 1))))
        full = linalg.SpanSolver()
        for v in sp0.vectors:
            full.add(win.to_vector(v))
        assert full.contains(win.to_vector(flat(a1_x)))

    def test_nonzero_weights_have_no_d_part(self, a1_id, a1_x):
        win = Window(a1_id, -3, 3)
        dec = weight_decompose(flat(a1_x), win)
        for sp in dec.spaces:
            if sp.w != (0, 0):
                assert all(not v[2] for v in sp.vectors)

    def test_loop_level_x_d_alone(self, a1, a1_id):
        # x = d: zero-weight loop space is the degree-zero slice
        win = Window(a1_id, -2, 2)
        dec = weight_decompose(flat(AffineElt.d_elt(a1, 1)), win)
        assert dec.complete
        zero_loop = dec.loop_space((0, 0))
        assert len(zero_loop) == a1.dim

    def test_window_too_small(self, a1, a1_id):
        win = Window(a1_id, -1, 1)
        x = AffineElt(LoopElt.monomial(a1, 1, 1, 2), d=1)
        with pytest.raises(ValueError):
            weight_decompose(flat(x), win)

    def test_interior_stability_under_enlargement(self, a1_id, a1_x):
        small = weight_decompose(flat(a1_x), Window(a1_id, -2, 2))
        large = weight_decompose(flat(a1_x), Window(a1_id, -4, 4))
        for sp in small.spaces:
            big = large.space(sp.w)
            small_loop = len(small.loop_space(sp.w))
            big_loop = len(large.loop_space(sp.w))
            assert big is not None and big_loop >= small_loop


class TestLemmas:
    def test_split_a1(self, a1_id, a1_x):
        win = Window(a1_id, -3, 3)
        dec = weight_decompose(flat(a1_x), win)
        for check in (verify_shift, verify_opposite, verify_zero_weight,
                      verify_product_rule, rspan_isomorphism_check):
            rep = check(dec)
            assert rep["failures"] == [], check.__name__

    def test_twisted_a2(self, a2_flip, a2_twisted_x):
        win = Window(a2_flip, -6, 6)
        dec = weight_decompose(flat(a2_twisted_x), win)
        assert dec.complete
        for check in (verify_shift, verify_opposite, verify_zero_weight,
                      verify_product_rule, rspan_isomorphism_check):
            rep = check(dec)
            assert rep["failures"] == [], check.__name__

    def test_twisted_shift_by_m(self, a2_flip, a2_twisted_x):
        # explicit instance: t A_w = A_{w+2} for the twisted algebra
        win = Window(a2_flip, -6, 6)
        dec = weight_decompose(flat(a2_twisted_x), win)
        basis = [unflat(a2_flip.alg, 2, (v, None, None)).loop
                 for v in dec.loop_space((1, 0))]
        target = dec.loop_space((3, 0))
        assert basis and target
        shifted = [v.shift(2) for v in basis]
        for v in shifted:
            img = bracket_affine(a2_twisted_x, AffineElt(v))
            assert img.loop == v.scale(3)

    def test_report_shape(self, a1_id, a1_x):
        win = Window(a1_id, -3, 3)
        dec = weight_decompose(flat(a1_x), win)
        report = decomposition_report(dec)
        assert report["complete"] is True
        assert {"w", "dim", "series_id", "interior"} <= set(report["weights"][0])


class TestSeries:
    def test_m1_single_series(self, a1_id):
        win = Window(a1_id, -2, 2)
        dec = weight_decompose(flat(AffineElt.d_elt(a1_id.alg, 1)), win)
        assert len({sp.series_id for sp in dec.spaces}) == 1

    def test_a1_regular_three_series_mod_window(self, a1_id, a1_x):
        # weights 2+n, -2+n, n all lie in one series when m = 1
        win = Window(a1_id, -3, 3)
        dec = weight_decompose(flat(a1_x), win)
        assert len({sp.series_id for sp in dec.spaces}) == 1

    def test_twisted_series_count(self, a2_flip, a2_twisted_x):
        win = Window(a2_flip, -6, 6)
        dec = weight_decompose(flat(a2_twisted_x), win)
        n_series = len({sp.series_id for sp in dec.spaces})
        assert n_series <= a2_flip.alg.dim
        # weights 1+2n and -1+2n fall in distinct series from 0+2n and 2+2n
        assert n_series == 2

    def test_zeta_weights_keep_their_series_ids(self):
        # A zeta part in h gives non-rational weights: a series is filed
        # under (w.a mod m, w.b), a non-rational one ordered by its least
        # member, and verify_shift pairs only weights a rational step apart.
        alg, auto = parse_algebra_file(
            (ALGEBRAS / "d4_triality.alg").read_text())
        x = parse_flat("z*H_2*t^0 + H_1*t^0 + H_3*t^0 + H_4*t^0 + d",
                       alg, auto.m)
        dec = weight_decompose(x, Window(auto, -2, 2))
        assert [(render_pair(sp.w), sp.series_id) for sp in dec.spaces] == [
            ("-4+z", 0), ("-3", 6), ("-3+z", 1), ("-3+2*z", 2), ("-2", 8),
            ("-2+z", 3), ("-1-z", 4), ("-1", 9), ("-1+z", 0), ("-z", 5),
            ("0", 6), ("z", 1), ("1-z", 7), ("1", 8), ("1+z", 3),
            ("2-z", 4), ("2", 9), ("3-2*z", 10), ("3-z", 5), ("3", 6),
            ("4-z", 7)]
        shift = verify_shift(dec)
        assert shift.passed and shift["checked"] == 28


class TestConjugation:
    def word_pool(self, alg, m, rng, spread_budget):
        roots = sorted(alg.root_of_index.values())
        gens = []
        budget = spread_budget
        while len(gens) < 4:
            k = rng.randrange(6)
            if k == 0:
                deg = rng.choice([0, 0, 1, -1])
                if 2 * abs(deg) > budget:
                    deg = 0
                budget -= 2 * abs(deg)
                gens.append(RootExp(alg, m, roots[rng.randrange(len(roots))],
                                    {deg: (rng.randint(1, 2), 0)}))
            elif k == 1:
                phi = [0] * alg.rank
                phi[rng.randrange(alg.rank)] = rng.choice([1, -1])
                cost = max(abs(sum(c * v for c, v in zip(r, phi))) for r in roots)
                if cost > budget:
                    continue
                budget -= cost
                gens.append(Cochar(alg, tuple(phi)))
            elif k == 2:
                gens.append(TorusK(alg, tuple((rng.choice([2, 3]), 0)
                                              for _ in range(alg.rank))))
            elif k == 3:
                gens.append(Ring((rng.choice([2, -1]), 0), rng.choice([1, -1])))
            else:
                gens.append(VShift((rng.randint(-2, 2), 0)))
        return AutoWord("hat", tuple(gens))

    def test_zero_weight_is_conjugation_invariant(self, a1, a1_id, a1_ctx, a1_x):
        rng = random.Random(77)
        win = Window(a1_id, -3, 3)
        for _ in range(8):
            word = self.word_pool(a1, 1, rng, spread_budget=1)
            xc = flat(word.apply(a1_x))
            dec = weight_decompose(xc, win)
            assert dec.loop_space((0, 0)), word.render()

    def test_weight_multisets_sandwiched_by_closed_form(self, a1, a1_id, a1_ctx, a1_x):
        # deep-interior counts <= conjugated dims <= extended-window counts
        rng = random.Random(78)
        win = Window(a1_id, -3, 3)
        h = g_slice(a1_x.loop)
        spread = 1
        for _ in range(6):
            word = self.word_pool(a1, 1, rng, spread_budget=spread)
            xc = flat(word.apply(a1_x))
            reach = degree_reach(xc)
            dec = weight_decompose(xc, win)
            deep = closed_form_weight_counts(a1_ctx, h, win.lo + reach + spread,
                                             win.hi - reach - spread)
            wide = closed_form_weight_counts(a1_ctx, h, win.lo - spread,
                                             win.hi + spread)
            seen = {sp.w[0]: len(dec.loop_space(sp.w)) for sp in dec.spaces}
            for w, low in deep.items():
                got = seen.get(w, 0)
                assert low <= got <= wide.get(w, 0), (word.render(), w, low, got)


class TestTrialityOrderThree:
    @pytest.fixture
    def d4_x(self, d4_triality):
        # 3*(H_1+H_3+H_4) + H_2 evaluates to a nonzero scalar on every root
        h0, _ = cartan_of_fixed(d4_triality)
        d4 = d4_triality.alg
        reg = g_loop(d4, 3, h0[0], 0, 3) + g_loop(d4, 3, h0[1])
        return AffineElt(reg, d=1)

    def test_lemmas_over_zeta3(self, d4_triality, d4_x):
        # the full check battery at m = 3, coefficients in Q(zeta_3)
        win = Window(d4_triality, -3, 3)
        dec = weight_decompose(flat(d4_x), win)
        assert dec.complete
        for check in (verify_shift, verify_opposite, verify_zero_weight,
                      verify_product_rule, rspan_isomorphism_check):
            rep = check(dec)
            assert rep["failures"] == [], check.__name__

    def test_zero_weight_space_contains_fixed_cartan(self, d4_triality, d4_x):
        # the degree-zero slice of A_0 is exactly h_0 (regularity); root
        # lines re-enter A_0 at degree -alpha(x') and are genuinely there
        win = Window(d4_triality, -3, 3)
        dec = weight_decompose(flat(d4_x), win)
        zero = dec.loop_space((0, 0))
        degree_zero = [v for v in zero if {p for _, p in v} == {0}]
        assert len(degree_zero) == 2
        for v in degree_zero:
            assert {i for i, _ in v} <= {0, 1, 2, 3}  # Cartan indices only


class TestJordanBlockInvariant:
    def test_block_semisimple_parts(self, a1, a1_id):
        # ad of a mixed element block-splits; the computed semisimple part
        # of the whole equals the blockwise semisimple parts
        from pair_linalg import jordan_split
        h_plus_x = LoopElt.monomial(a1, 1, 0, 0) + LoopElt.monomial(a1, 1, 1, 0)
        win = Window(a1_id, -1, 1)
        x = flat(h_plus_x)
        interior = interior_indices(win, x)
        assert interior == list(range(win.size()))
        mat = ad_rows(x, win, interior)
        s, n = jordan_split(mat)
        # blocks are the degree slices, and the c and d columns are zero
        # (a degree-0 x without d); off-block entries of S must vanish
        for i, (_, ji, _) in enumerate(win.meta):
            for j, (_, jj, _) in enumerate(win.meta):
                if ji != jj:
                    assert not s[i].get(j)
        # and S restricted to one slice equals the slice's own split
        idx = [i for i, (_, j, _) in enumerate(win.meta) if j == 0]
        block = [{k: row[j] for k, j in enumerate(idx) if j in row}
                 for row in (mat[i] for i in idx)]
        s_block, _ = jordan_split(block)
        lifted = [{k: row[j] for k, j in enumerate(idx) if j in row}
                  for row in (s[i] for i in idx)]
        assert s_block == lifted


def standard_x(auto):
    """h + d with h the sum of the h_0 basis, the `verify spectral` default."""
    h0, _ = cartan_of_fixed(auto)
    reg = LoopElt.zero(auto.alg, auto.m)
    for h in h0:
        reg = reg + g_loop(auto.alg, auto.m, h)
    return AffineElt(reg, d=1)


FLAT_CASES = [(name, None) for name in
              ("a1", "a2", "a2_twisted", "a3_twisted", "d4_triality", "sl2_table")]
FLAT_CASES.append(("a2", "H_1*t^0 + 2*H_2*t^0 + X_a1*t^1 + d"))


class TestFlatVerifiersMatchObjects:
    """The spectral verifiers read flat pair forms; on every weight vector
    of a decomposition at --window -2 2 they must agree with the object
    brackets, the invariant form and window-coordinate membership."""

    @pytest.fixture(params=FLAT_CASES, ids=lambda case: case[0] + ("" if case[1] is None else "-reach1"))
    def decomp(self, request):
        name, x_text = request.param
        alg, auto = parse_algebra_file((ALGEBRAS / f"{name}.alg").read_text())
        x = standard_x(auto) if x_text is None else parse_affine(x_text, alg, auto.m)
        return weight_decompose(flat(x), Window(auto, -2, 2))

    def test_brackets_and_pairings(self, decomp):
        alg, m = decomp.window.alg, decomp.window.m
        flats = [f for sp in decomp.spaces for f in sp.vectors]
        vectors = [unflat(alg, m, f) for f in flats]
        assert [flat(v) for v in vectors] == flats
        for u, fu in zip(vectors, flats):
            for v, fv in zip(vectors, flats):
                assert flat_bracket(alg, fu, fv) == flat(bracket_affine(u, v))
                loop = table_products(alg.table, fu[0], fv[0])
                assert loop == dict(pair_terms(u.loop.bracket(v.loop).coords))
                a, zeta = table_pairing(alg.killing_table, fu[0], fv[0])
                for s, t in ((u.c, v.d), (u.d, v.c)):
                    a, zeta = a + (s * t).a, zeta + (s * t).b
                assert CycScalar(decomp.window.m, a, zeta) == invariant_form(u, v)

    def test_flat_membership_is_window_membership(self, decomp):
        window = decomp.window
        spaces = [(sp.w, [unflat(window.alg, window.m, (v, None, None)).loop
                          for v in decomp.loop_space(sp.w)])
                  for sp in decomp.spaces]
        probes = [u for _, basis in spaces for u in basis]
        probes += [u.bracket(v) for u in probes for v in probes]
        probes = [p for p in probes if window.inside(p.degree_support())]
        for w, basis in spaces:
            in_window = linalg.SpanSolver()
            for v in basis:
                in_window.add(window.to_vector(flat(v)))
            in_flat = decomp.space(w).solver
            assert in_flat.rank == in_window.rank == len(basis)
            for p in probes:
                assert (in_flat.contains(dict(pair_terms(p.coords)))
                        == in_window.contains(window.to_vector(flat(p))))


ALGEBRA_NAMES = [path.stem for path in sorted(ALGEBRAS.glob("*.alg"))]
SLICE_CASES = [(name, None, window) for name in ALGEBRA_NAMES
               for window in (None, (-2, 2))] + [
    ("a1", "X_a1*t^0 + d", None),
    ("a1", "1/3*H_1*t^0 + d", None),
    ("a1", "H_1*t^0 + d + 3*c", (2, 9)),
    ("a2", "d", (-2, 2)),
    ("a2", "H_1*t^0 + X_a1*t^0 + d", (-2, 2)),
    ("a2_twisted", "X_a1*t^0 + X_a2*t^0 + d", (-1, 3)),
    ("d4_triality", "z*H_2*t^0 + H_1*t^0 + H_3*t^0 + H_4*t^0 + d", (-2, 2)),
]


class TestSlicesMatchWindow:
    """A degree-0 x decided on g dumps what the windowed decomposition
    dumps: weights, dims, series ids, `complete` and `interior_dim`, on
    every shipped algebra (m = 1, 2, 3), at the default window of
    `verify spectral` and at [-2, 2]."""

    @pytest.mark.parametrize("name, x_text, window", SLICE_CASES,
                             ids=[f"{n}-{x}-{w}" for n, x, w in SLICE_CASES])
    def test_slice_dump_is_the_window_dump(self, name, x_text, window):
        alg, auto = parse_algebra_file((ALGEBRAS / f"{name}.alg").read_text())
        lo, hi = window or (-3 * auto.m, 3 * auto.m)
        win = Window(auto, lo, hi)
        x = flat(standard_x(auto)) if x_text is None else parse_flat(x_text, alg, auto.m)
        assert degree_reach(x) == 0
        decomp, shift = decompose_on_g(x, win)
        assert decomposition_report(decomp) == decomposition_report(
            weight_decompose(x, win))
        assert shift.passed and shift["checked"] > 0
        dim = sum(sp.dim for sp in decomp.classes.values())
        assert (dim == alg.dim) == (decomp.jordan is None)

    @pytest.mark.parametrize("name, lo, hi", [("a1", 0, 1), ("a2", 0, 2)])
    def test_windowed_opposite_compares_only_mirrored_weights(self, name, lo, hi):
        # the CLI decides these x on g now; on a window that is not
        # symmetric about 0 the windowed rule still reports no FAIL for a
        # weight whose opposite the window cannot hold
        alg, auto = parse_algebra_file((ALGEBRAS / f"{name}.alg").read_text())
        rep = verify_opposite(weight_decompose(flat(standard_x(auto)),
                                               Window(auto, lo, hi)))
        assert rep.passed and rep["checked"] > 0

    @pytest.mark.parametrize("name", ALGEBRA_NAMES)
    def test_lemmas_on_g_pass_within_dim_g_squared(self, name):
        alg, auto = parse_algebra_file((ALGEBRAS / f"{name}.alg").read_text())
        decomp, _ = decompose_on_g(flat(standard_x(auto)),
                                   Window(auto, -auto.m, auto.m))
        product = product_rule_on_g(decomp)
        assert product.passed and 0 < product["checked"] <= alg.dim ** 2
        assert opposite_on_g(decomp).passed


class TestDecideSlices:
    def test_jordan_pair_reverifies_through_flat_bracket(self, capsys):
        # ad X_a1 on sl2 is one nilpotent 3 x 3 block: the slice falls
        # short, and the report carries the pair that shows it
        from affinelie.cli import main
        path = str(ALGEBRAS / "a1.alg")
        code = main(["spectrum", "--algebra", path, "--x", "X_a1*t^0 + d"])
        report = json.loads(capsys.readouterr().out)["reports"]["spectral"]
        assert code == 1
        (failure,) = report["failures"]
        assert (failure["part"], failure["lhs"], failure["rhs"]) == (
            "decomposition", "incomplete", "defect 14")
        alg, _ = parse_algebra_file((ALGEBRAS / "a1.alg").read_text())
        x = parse_flat("X_a1*t^0 + d", alg, 1)
        pair = failure["jordan"]
        w = parse_scalar(pair["w"], 1)
        v, u = (parse_flat(pair[k], alg, 1) for k in ("v", "u"))
        assert u[0] and u[1:] == v[1:] == (None, None)
        # [x, v] = w v + u and [x, u] = w u, u != 0
        wv_plus_u = add_products(add_products({}, w, v[0]), (1, 0), u[0])
        assert flat_bracket(alg, x, v) == (wv_plus_u, None, None)
        assert flat_bracket(alg, x, u) == (add_products({}, w, u[0]), None, None)

    def test_weights_outside_q_exit_3_naming_the_slice(self, capsys):
        # ad(X + 2Y) on sl2 has the eigenvalues 0 and +-2*sqrt(2)
        from affinelie.cli import main
        code = main(["spectrum", "--algebra", str(ALGEBRAS / "a1.alg"),
                     "--x", "X_a1*t^0 + 2*X_ma1*t^0 + d"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == ("unsupported input: ad x on g_0 has eigenvalues "
                                "outside Q\n")

    def test_classes_cover_every_slice(self, d4_triality):
        # the standard x diagonalizes every slice g_0, g_1, g_2 of D4 under
        # triality
        ctx = Window(d4_triality, 0, 0).ctx
        h0, _ = cartan_of_fixed(d4_triality)
        s = {k: v for h in h0 for k, v in h.items()}
        classes, jordan = decide_slices(ctx, s)
        assert jordan is None
        for i in range(3):
            assert sum(len(vs) for j, _, vs in classes if j == i) == len(ctx.slice_basis(i))
