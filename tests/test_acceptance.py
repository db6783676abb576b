"""Acceptance criteria, one test per criterion.

Every check is exact (rational / cyclotomic arithmetic, no tolerances).
Each test prints one `ACCEPTANCE n [pass]` line; run with `pytest -s
tests/test_acceptance.py` to see them.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from affinelie.affine import (AffineElt, bracket_affine, flat,
                              verify_form_invariance, window_gram_rank)
from affinelie.autos import (AutoWord, Cochar, Diagram, Ring, RootExp, TorusK,
                             VShift, hat_lift, tilde_lift, v_auto)
from affinelie.cli import main
from affinelie.loop import LoopElt, Window
from affinelie.mad import (SubalgebraSpec, conjugacy_verify, is_diagonalizable,
                           mad_sanity, standard_mad)
from affinelie.rootsys import cartan_of_fixed, sigma_eigenspaces
from affinelie.scalars import table_products
from affinelie.spectral import (degree_reach, rspan_isomorphism_check,
                                verify_opposite, verify_product_rule,
                                verify_shift, verify_zero_weight,
                                weight_decompose)

from conftest import (closed_form_weight_counts, flattened, g_loop, g_slice,
                      make_affine_sampler, oracle_eigenspace_dims,
                      oracle_killing)


def report(n, ok, detail=""):
    status = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {n} [{status}]{': ' + detail if detail else ''}")
    assert ok, f"criterion {n} failed: {detail}"


def regular_x(auto):
    """x = (sum of the fixed-Cartan basis) (x) 1 + d; regular for our types."""
    h0, _ = cartan_of_fixed(auto)
    reg = LoopElt.zero(auto.alg, auto.m)
    for h in h0:
        reg = reg + g_loop(auto.alg, auto.m, h)
    return AffineElt(reg, d=1)


def sample_hat_word(alg, m, rng, length, spread_budget):
    roots = sorted(alg.root_of_index.values())
    gens = []
    budget = spread_budget
    while len(gens) < length:
        k = rng.randrange(5)
        if k == 0:
            deg = rng.choice([0, 0, m, -m])
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
            gens.append(TorusK(alg, tuple((rng.choice([2, 3, -1]), 0)
                                          for _ in range(alg.rank))))
        elif k == 3:
            gens.append(Ring((rng.choice([2, -1]), 0), rng.choice([1, -1])))
        else:
            gens.append(VShift((rng.randint(-3, 3), 0)))
    return AutoWord("hat", tuple(gens))


class TestCriterion1:
    def test_jacobi_and_antisymmetry(self, a1_id, a2_flip):
        started = time.time()
        checked = 0
        for auto in (a1_id, a2_flip):
            m = auto.m
            win = Window(auto, -2 * m, 2 * m)
            basis = win.basis
            n = len(basis)
            for i in range(n):
                for j in range(i, n):
                    checked += 1
                    anti = (bracket_affine(basis[i], basis[j])
                            + bracket_affine(basis[j], basis[i]))
                    assert anti.is_zero(), (basis[i].render(), basis[j].render())
            for i in range(n):
                bi = basis[i]
                for j in range(i, n):
                    bj = basis[j]
                    bij = bracket_affine(bi, bj)
                    for k in range(j, n):
                        bk = basis[k]
                        checked += 1
                        total = (bracket_affine(bi, bracket_affine(bj, bk))
                                 + bracket_affine(bj, bracket_affine(bk, bi))
                                 + bracket_affine(bk, bij))
                        assert total.is_zero(), (
                            bi.render(), bj.render(), bk.render())
        elapsed = time.time() - started
        report(1, elapsed < 30,
               f"{checked} exact identities on A1(1) and A2(2) in {elapsed:.1f}s")


class TestCriterion2:
    def test_realization_dimensions(self, a2_flip, d4_triality):
        flip_dims = [len(b) for b in sigma_eigenspaces(a2_flip)]
        tri_dims = [len(b) for b in sigma_eigenspaces(d4_triality)]
        oracle_flip = oracle_eigenspace_dims(a2_flip, 2)
        oracle_tri = oracle_eigenspace_dims(d4_triality, 3)
        ok = (flip_dims == [3, 5] == oracle_flip
              and tri_dims[0] == 14 and tri_dims == oracle_tri)
        report(2, ok, f"A2 flip {flip_dims}, D4 triality {tri_dims}, "
                      f"oracle agreement exact")


class TestCriterion3:
    def test_form_invariance_and_nondegeneracy(self, a1_id, a2_id, a2_flip):
        failures = 0
        granks = []
        for auto in (a1_id, a2_id, a2_flip):
            rng = random.Random(42)
            sampler = make_affine_sampler(auto.alg, auto.m, rng, lo=-4, hi=4)
            rep = verify_form_invariance(auto.alg, auto.m, flattened(sampler),
                                         500)
            failures += len(rep["failures"])
            for half in range(1, 5):
                win = Window(auto, -half, half)
                rank = window_gram_rank(win)
                granks.append(rank == win.size())
        report(3, failures == 0 and all(granks),
               f"1500 invariance triples, {len(granks)} Gram matrices full rank")


class TestCriterion4:
    def test_lift_coherence(self, a1, a2_flip):
        ok = True
        details = []
        for alg, auto, m in ((a1, None, 1), (a2_flip.alg, a2_flip, 2)):
            rng = random.Random(7)
            root = alg.root_of_index[alg.rank]
            kinds = [RootExp(alg, m, root, {m: (2, 0)}),
                     Cochar(alg, tuple(1 if i == 0 else 0 for i in range(alg.rank))),
                     TorusK(alg, ((2, 0),) * alg.rank),
                     Ring((3, 0), 1),
                     Ring((1, 0), -1)]
            if auto is not None:
                kinds.append(Diagram(auto))
            from conftest import make_loop_sampler
            sample = make_loop_sampler(alg, m, rng, lo=-3, hi=3)
            per_kind = 200 // len(kinds) + 1
            for gen in kinds:
                loop_word = AutoWord("loop", (gen,))
                hat_word = hat_lift(tilde_lift(loop_word))
                for _ in range(per_kind):
                    x = sample()
                    if hat_word.apply(AffineElt(x)).loop != loop_word.apply(x):
                        ok = False
                        details.append(f"section fails for {gen.render()}")
            # v_auto kernel property
            for a in (1, -2, 5):
                va = v_auto((a, 0))
                for _ in range(30):
                    x = sample()
                    if va.apply(AffineElt(x)).loop != x:
                        ok = False
                        details.append("v_auto kernel property fails")
        # cochar tilde correction on A1 equals the Killing-oracle value 4
        x_idx = a1.label_index["X_a1"]
        y_idx = a1.label_index["X_ma1"]
        pair = oracle_killing(a1, x_idx, y_idx)
        word = tilde_lift(AutoWord("loop", (Cochar(a1, (1,)),)))
        h = AffineElt(LoopElt.monomial(a1, 1, 0, 0))
        img = word.apply(h)
        if pair != 4 or img != AffineElt(h.loop, c=pair):
            ok = False
            details.append("cochar central correction mismatch")
        # X_phi: existence and uniqueness in h for several phi
        from affinelie import linalg
        for alg in (a1, a2_flip.alg):
            n = alg.rank
            cartan = [{j: (a, 0) for j, a in enumerate(alg.datum.cartan[i]) if a}
                      for i in range(n)]
            if linalg.rank(cartan) != n:
                ok = False
                details.append("Cartan matrix singular: X_phi not unique")
            for phi in [tuple(1 if i == k else 0 for i in range(n)) for k in range(n)]:
                co = Cochar(alg, phi)
                xphi = co.x_phi()
                for idx, rt in alg.root_of_index.items():
                    v = co.value(rt)
                    want = {(idx, 0): (v, 0)} if v else {}
                    if table_products(alg.table, xphi, {(idx, 0): (1, 0)}) != want:
                        ok = False
                        details.append(f"X_phi defining equation fails for {phi}")
        report(4, ok, "; ".join(details) if details else
               "section, kernel, central correction (= 4), X_phi all exact")


class TestCriterion5:
    def test_weight_lemmas(self, a1_id, a2_flip):
        started = time.time()
        summaries = []
        for auto in (a1_id, a2_flip):
            m = auto.m
            win = Window(auto, -3 * m, 3 * m)
            x = regular_x(auto)
            dec = weight_decompose(flat(x), win)
            assert dec.complete, "decomposition must certify completeness"
            for check in (verify_shift, verify_opposite, verify_zero_weight,
                          verify_product_rule, rspan_isomorphism_check):
                rep = check(dec)
                assert rep["failures"] == [], (check.__name__, rep["failures"][:2])
            summaries.append(f"{auto.alg.datum.label}(m={m}): "
                             f"{len(dec.spaces)} weights")
        elapsed = time.time() - started
        report(5, elapsed < 60, ", ".join(summaries) + f" in {elapsed:.1f}s")


class TestCriterion6:
    def test_zero_weight_under_conjugation(self, a1_id, a1_ctx, a2_flip,
                                           a2_flip_ctx):
        from conftest import make_twisted_word_sampler
        rng = random.Random(2024)
        ok = True
        details = []
        for auto, ctx in ((a1_id, a1_ctx), (a2_flip, a2_flip_ctx)):
            alg, m = auto.alg, auto.m
            win = Window(auto, -3 * m, 3 * m)
            x = regular_x(auto)
            base = weight_decompose(flat(x), win)
            h = g_slice(x.loop)
            if m == 1:
                spread = 1
                next_word = lambda: sample_hat_word(alg, m, rng, length=4,
                                                    spread_budget=spread)
            else:
                # the twisted subalgebra is preserved only by equivariant
                # words; the compatible kinds all have zero degree spread
                spread = 0
                next_word = make_twisted_word_sampler(ctx, rng, length=4)
            for _ in range(20):
                word = next_word()
                xc = flat(word.apply(x))
                dec = weight_decompose(xc, win)
                if not dec.loop_space((0, 0)):
                    ok = False
                    details.append(f"A_0 = 0 after {word.render()}")
                    continue
                reach = degree_reach(xc)
                deep = closed_form_weight_counts(
                    ctx, h, win.lo + reach + spread, win.hi - reach - spread)
                wide = closed_form_weight_counts(
                    ctx, h, win.lo - spread, win.hi + spread)
                seen = {sp.w[0]: len(dec.loop_space(sp.w))
                        for sp in dec.spaces if not sp.w[1]}
                for w, low in deep.items():
                    got = seen.get(w, 0)
                    if not (low <= got <= wide.get(w, 0)):
                        ok = False
                        details.append(
                            f"weight {w} multiplicity {got} outside "
                            f"[{low}, {wide.get(w, 0)}] after {word.render()}")
                for w, got in seen.items():
                    if got and w not in wide:
                        ok = False
                        details.append(f"spurious weight {w}")
        report(6, ok, "; ".join(details[:3]) if details else
               "40 conjugations: A_0 != 0 and spectra invariant on shared interiors")


class TestCriterion7:
    def test_mad_suite(self, a1_id, a2_id, a2_flip):
        ok = True
        details = []
        rng = random.Random(99)
        for auto in (a1_id, a2_id, a2_flip):
            m = auto.m
            win = Window(auto, -2 * m, 2 * m)
            ref = standard_mad(auto)
            h0, _ = cartan_of_fixed(auto)
            flag, _ = is_diagonalizable(ref, win)
            span = ref.span_solver(win)
            rep = mad_sanity(ref, win, span)
            dim = span.rank
            if not flag or rep["failures"] or dim != len(h0) + 2 or dim < 3:
                ok = False
                details.append(f"standard MAD fails on {auto.alg.datum.label}")
        # the dim-2 counterexample must fail with an explicit enlargement
        a1 = a1_id.alg
        win1 = Window(a1_id, -3, 3)
        x = AffineElt(LoopElt.monomial(a1, 1, 0, 0), d=1)
        small = SubalgebraSpec([AffineElt.c_elt(a1, 1), x])
        rep = mad_sanity(small, win1, small.span_solver(win1))
        if not rep["failures"] or rep["checks"]["probe_enlargement"] is None:
            ok = False
            details.append("dim-2 subalgebra not rejected with a witness")
        else:
            details.append(f"probe witness {rep['checks']['probe_enlargement']}")
        # 20 seeded round-trip conjugacy certificates
        trips = 0
        for auto, count in ((a1_id, 8), (a2_id, 6), (a2_flip, 6)):
            alg, m = auto.alg, auto.m
            win = Window(auto, -2 * m, 2 * m)
            ref = standard_mad(auto)
            span = ref.span_solver(win)
            for _ in range(count):
                word = sample_hat_word(alg, m, rng, length=3, spread_budget=0)
                image = SubalgebraSpec([word.apply(g) for g in ref.generators])
                conj = conjugacy_verify(word.inverse(), image, win, ref, span)
                if conj["failures"]:
                    ok = False
                    details.append(f"round trip fails for {word.render()}")
                trips += 1
        report(7, ok and trips == 20,
               "; ".join(details[:3]) + f"; {trips} conjugacy round trips")


class TestCriterion8:
    def test_determinism(self, tmp_path, capsys):
        a1f = tmp_path / "a1.alg"
        a1f.write_text("schema: 1\ntype: A\nrank: 1\n")
        a2f = tmp_path / "a2t.alg"
        a2f.write_text("schema: 1\ntype: A\nrank: 2\nperm: 2 1\n")

        def full_suite():
            chunks = []
            for algebra in (str(a1f), str(a2f)):
                for suite in ("jacobi", "form", "lifts", "exactseq",
                              "spectral", "mad"):
                    code = main(["verify", suite, "--algebra", algebra,
                                 "--seed", "7", "--samples", "60"])
                    chunks.append(capsys.readouterr().out)
                    assert code == 0, (algebra, suite)
            return "".join(chunks)

        first = full_suite()
        second = full_suite()
        for chunk in first.split("\n"):
            if chunk:
                json.loads(chunk)
        report(8, first == second and len(first) > 0,
               f"{len(first)} bytes of JSON, byte-identical across runs")
