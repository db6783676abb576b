"""Affine bracket with the Killing cocycle, the invariant form, and the
core/derived-subalgebra identities.
"""

import random
from pathlib import Path

import pytest

from affinelie import affine, cli, linalg
from affinelie.affine import (AffineElt, bracket_affine, core_and_derived,
                              invariant_form, verify_form_invariance,
                              window_gram_rank)
from affinelie.loop import LoopElt, Window
from affinelie.parsing import parse_algebra_file
from affinelie.scalars import CycScalar

from conftest import flattened, make_affine_sampler, make_loop_sampler


class TestBracket:
    def test_derivation_eigenvalue_is_exponent_numerator(self, a1):
        # [d, X (x) t^(3/2)] = 3 X (x) t^(3/2) at m = 2
        d = AffineElt.d_elt(a1, 2)
        x = AffineElt(LoopElt.monomial(a1, 2, 1, 3))
        assert bracket_affine(d, x) == x.scale(3)

    def test_cocycle_value(self, a1):
        # [X (x) t, Y (x) t^-1] = H (x) 1 + <X,Y> c with <X,Y> = 4
        x = AffineElt(LoopElt.monomial(a1, 1, 1, 1))
        y = AffineElt(LoopElt.monomial(a1, 1, 2, -1))
        out = bracket_affine(x, y)
        assert out.loop == LoopElt.monomial(a1, 1, 0, 0)
        assert out.c == CycScalar(1, 4)
        assert not out.d

    def test_center(self, a1):
        c = AffineElt.c_elt(a1, 1)
        d = AffineElt.d_elt(a1, 1)
        x = AffineElt(LoopElt.monomial(a1, 1, 1, 2), c=3, d=-1)
        assert bracket_affine(c, x).is_zero()
        assert bracket_affine(d, d).is_zero()

    def test_antisymmetry_and_jacobi_random(self, a2_flip):
        rng = random.Random(17)
        sample = make_affine_sampler(a2_flip.alg, 2, rng, lo=-4, hi=4)
        for _ in range(50):
            x, y, z = sample(), sample(), sample()
            assert (bracket_affine(x, y) + bracket_affine(y, x)).is_zero()
            total = (bracket_affine(x, bracket_affine(y, z))
                     + bracket_affine(y, bracket_affine(z, x))
                     + bracket_affine(z, bracket_affine(x, y)))
            assert total.is_zero()

    def test_difference_identity(self, a1):
        # hat-bracket of loop elements differs from the loop bracket by a
        # multiple of c only
        rng = random.Random(23)
        sample = make_loop_sampler(a1, 1, rng, lo=-3, hi=3)
        for _ in range(40):
            l1, l2 = sample(), sample()
            hat = bracket_affine(AffineElt(l1), AffineElt(l2))
            assert hat.loop == l1.bracket(l2)
            assert not hat.d

    def test_differential_identity(self, a2_flip):
        # [d, y t^n] = m n y t^n + [d, y] t^n
        m = 2
        alg = a2_flip.alg
        rng = random.Random(31)
        sample = make_loop_sampler(alg, m, rng, lo=-2, hi=2)
        d = AffineElt.d_elt(alg, m)
        for n in (-2, -1, 1, 3):
            for _ in range(10):
                y = sample()
                yt = y.shift(m * n)
                lhs = bracket_affine(d, AffineElt(yt))
                rhs = (AffineElt(yt).scale(m * n)
                       + AffineElt(bracket_affine(d, AffineElt(y)).loop.shift(m * n)))
                assert lhs == rhs


class TestInvariantForm:
    def test_c_d_pairing(self, a1):
        c = AffineElt.c_elt(a1, 1)
        d = AffineElt.d_elt(a1, 1)
        assert invariant_form(c, d) == CycScalar.one(1)
        assert not invariant_form(c, c)
        assert not invariant_form(d, d)

    def test_loop_pairing_with_killing_value(self, a1):
        x = AffineElt(LoopElt.monomial(a1, 1, 1, 1))
        y = AffineElt(LoopElt.monomial(a1, 1, 2, -1))
        assert invariant_form(x, y) == CycScalar(1, 4)

    def test_c_d_orthogonal_to_loop(self, a1):
        d = AffineElt.d_elt(a1, 1)
        c = AffineElt.c_elt(a1, 1)
        x = AffineElt(LoopElt.monomial(a1, 1, 1, 5))
        assert not invariant_form(d, x)
        assert not invariant_form(c, x)

    def test_invariance_triple_example(self, a1):
        d = AffineElt.d_elt(a1, 1)
        x = AffineElt(LoopElt.monomial(a1, 1, 1, 1))
        y = AffineElt(LoopElt.monomial(a1, 1, 2, -1))
        lhs = invariant_form(bracket_affine(d, x), y)
        rhs = invariant_form(x, bracket_affine(d, y))
        assert lhs == CycScalar(1, 4)
        assert lhs + rhs == CycScalar.zero(1)

    def test_invariance_500_random_triples(self, a2_flip):
        rng = random.Random(42)
        sample = make_affine_sampler(a2_flip.alg, 2, rng, lo=-4, hi=4,
                                     ctx=None)
        report = verify_form_invariance(a2_flip.alg, 2, flattened(sample), 500)
        assert report["checked"] == 500
        assert report["failures"] == []

    def test_gram_full_rank_on_symmetric_windows(self, a1_id, a2_flip):
        for auto in (a1_id, a2_flip):
            for half in (1, 2, 4):
                win = Window(auto, -half * auto.m, half * auto.m)
                assert window_gram_rank(win) == win.size()

    def test_symmetry(self, a2):
        rng = random.Random(3)
        sample = make_affine_sampler(a2, 1, rng)
        for _ in range(30):
            x, y = sample(), sample()
            assert invariant_form(x, y) == invariant_form(y, x)


ALGEBRAS = sorted((Path(__file__).resolve().parent.parent / "algebras").glob("*.alg"))


def block_key(x):
    """The degree of a window basis element, or "cd" for c and d."""
    return "cd" if x.c or x.d else next(iter(x.loop.degree_support()))


def opposite(key):
    return "cd" if key == "cd" else -key


class TestBlockGramRank:
    @pytest.mark.parametrize("path", ALGEBRAS, ids=lambda p: p.stem)
    def test_blocks_carry_the_dense_rank(self, path):
        # the dense Gram matrix, one invariant_form call per ordered pair
        _, auto = parse_algebra_file(path.read_text())
        for half in (auto.m, 2 * auto.m):
            win = Window(auto, -half, half)
            basis = win.basis
            keys = [block_key(x) for x in basis]
            gram = [[invariant_form(u, v) for v in basis] for u in basis]
            for i, row in enumerate(gram):
                for j, entry in enumerate(row):
                    assert entry == gram[j][i]
                    if keys[j] != opposite(keys[i]):
                        assert not entry
            sparse = [{j: (e.a, e.b) for j, e in enumerate(row) if e}
                      for row in gram]
            assert linalg.rank(sparse) == window_gram_rank(win)

    @pytest.mark.parametrize("name", ["a1", "a3_twisted"])
    def test_verify_form_builds_each_block_once(self, monkeypatch, capsys,
                                                name):
        # per Gram window: (flat_pairing calls, sum over j >= 0 of
        # |B_j| |B_-j| plus the 4 of the c/d block)
        calls, windows = [], []
        form, gram_rank = affine.flat_pairing, affine.window_gram_rank

        def counted_form(alg, x, y):
            calls.append(None)
            return form(alg, x, y)

        def counted_rank(window):
            sizes = {}
            for x in window.basis:
                sizes[block_key(x)] = sizes.get(block_key(x), 0) + 1
            bound = 4 + sum(n * sizes.get(-k, 0) for k, n in sizes.items()
                            if k != "cd" and k >= 0)
            before = len(calls)
            rank = gram_rank(window)
            windows.append((len(calls) - before, bound))
            return rank

        monkeypatch.setattr(affine, "flat_pairing", counted_form)
        monkeypatch.setattr(cli, "window_gram_rank", counted_rank)
        path = Path(__file__).resolve().parent.parent / "algebras" / f"{name}.alg"
        assert cli.main(["verify", "form", "--algebra", str(path),
                         "--samples", "5"]) == 0
        capsys.readouterr()
        assert len(windows) == 3
        assert all(0 < used <= bound for used, bound in windows)


class TestCoreAndDerived:
    def test_split_a1(self, a1_id):
        produced, flag = core_and_derived(a1_id, -2, 2)
        assert flag
        assert produced

    def test_twisted_a2(self, a2_flip):
        _, flag = core_and_derived(a2_flip, -2, 2)
        assert flag

    @pytest.mark.parametrize("path", ALGEBRAS, ids=lambda p: p.stem)
    def test_degree_zero_window_never_produces_c(self, path):
        # the cocycle term of [x t^p, y t^-p] is p <x, y> c, which is 0 at
        # p = 0, so at window [0, 0] the span misses kc
        _, auto = parse_algebra_file(path.read_text())
        produced, flag = core_and_derived(auto, 0, 0)
        assert not flag
        assert produced and not any(e.c for e in produced)
