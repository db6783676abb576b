"""Chevalley bases: defining relations, Killing oracle values, Jacobi,
diagram automorphisms and their eigenspace dimensions.
"""

import pytest

from affinelie.rootsys import (ChevAlgebra, build_chevalley,
                               build_diagram_auto, cartan_of_fixed,
                               sigma_eigenspaces)
from affinelie.scalars import (CycScalar, add_products, pair_mul, pair_of,
                               table_pairing, table_products)
from affinelie import linalg, rootsys

from conftest import oracle_killing, oracle_eigenspace_dims


# g-vectors are {index: pair} maps; brackets and the Killing form read
# them as degree-0 terms {(index, 0): pair}

def at_zero(v):
    return {(i, 0): c for i, c in v.items()}


def g_bracket(alg, x, y):
    """[x, y] of two g-vectors: `table_products` at degree 0."""
    return {k: c for (k, _), c in
            table_products(alg.table, at_zero(x), at_zero(y)).items()}


def g_killing(alg, x, y):
    """<x, y> of two g-vectors as a pair: `table_pairing` at degree 0."""
    return table_pairing(alg.killing_table, at_zero(x), at_zero(y))


def sigma_image(auto, v):
    """The diagram automorphism on a g-vector: b_i -> sign * b_j."""
    out = {}
    for i, (a, b) in v.items():
        j, s = auto.index_image(i)
        out[j] = (s * a, s * b)
    return out


class TestConstruction:
    def test_a1_defining_relations(self, a1):
        h = a1.label_index["H_1"]
        x = a1.label_index["X_a1"]
        y = a1.label_index["X_ma1"]
        assert a1.table[(h, x)] == {x: 2}
        assert a1.table[(h, y)] == {y: -2}
        assert a1.table[(x, y)] == {h: 1}

    def test_a2_dimensions(self, a2):
        assert a2.dim == 8
        assert len(a2.datum.roots) == 6

    def test_a3_and_d4_dimensions(self, a3, d4):
        assert a3.dim == 15
        assert d4.dim == 28

    def test_unsupported_type(self):
        with pytest.raises(ValueError):
            build_chevalley("A", 7)
        with pytest.raises(ValueError):
            build_chevalley("G", 2)

    def test_structure_constants_integral(self, d4):
        for row in d4.table.values():
            assert all(isinstance(c, int) and c != 0 for c in row.values())

    def test_root_chain_magnitudes_are_one(self, a2):
        # simply-laced: every N_{alpha,beta} = +-(p+1) with p = 0
        for (i, j), row in a2.table.items():
            if i < a2.rank or j < a2.rank:
                continue
            for k, c in row.items():
                if k >= a2.rank:
                    assert c in (1, -1)


class TestKilling:
    def test_a1_values_against_trace_oracle(self, a1):
        h = a1.label_index["H_1"]
        x = a1.label_index["X_a1"]
        y = a1.label_index["X_ma1"]
        # frozen values computed by the independent dense-trace oracle
        assert oracle_killing(a1, x, y) == 4
        assert oracle_killing(a1, h, h) == 8
        assert a1.killing_table[(x, y)] == 4
        assert a1.killing_table[(h, h)] == 8
        assert a1.killing_table.get((h, x), 0) == 0

    def test_matches_oracle_everywhere(self, a2):
        for i in range(a2.dim):
            for j in range(a2.dim):
                assert a2.killing_table.get((i, j), 0) == oracle_killing(a2, i, j)

    @pytest.mark.parametrize("name", ["a1", "a2", "a2_twisted", "a3_twisted",
                                      "d4_triality", "sl2_table"])
    def test_sparse_sum_is_the_dense_loop(self, name):
        # the O(dim^3) loop the sparse sum replaced: the same dict, in the
        # same order, on every shipped algebra
        from pathlib import Path
        from affinelie.parsing import parse_algebra_file
        path = Path(__file__).resolve().parent.parent / "algebras" / f"{name}.alg"
        alg, _ = parse_algebra_file(path.read_text())
        dense = {}
        for i in range(alg.dim):
            for j in range(i, alg.dim):
                total = sum(c1 * alg.table.get((i, l), {}).get(k, 0)
                            for k in range(alg.dim)
                            for l, c1 in alg.table.get((j, k), {}).items())
                if total:
                    dense[(i, j)] = dense[(j, i)] = total
        assert list(alg.killing_table.items()) == list(dense.items())

    def test_bilinear_extension_and_symmetry(self, a1):
        x = {0: (2, 0), 1: (3, 0)}
        y = {0: (1, 0), 2: (-1, 0)}
        assert g_killing(a1, x, y) == g_killing(a1, y, x)
        assert g_killing(a1, x, y) == (2 * 8 + 3 * (-1) * 4, 0)

    def test_invariance_on_basis_triples(self, a2):
        for i in range(a2.dim):
            x = {i: (1, 0)}
            for j in range(a2.dim):
                y = {j: (1, 0)}
                for k in range(a2.dim):
                    z = {k: (1, 0)}
                    assert (g_killing(a2, g_bracket(a2, x, y), z)
                            == g_killing(a2, x, g_bracket(a2, y, z)))

    def test_nondegenerate(self, a2):
        m = 1
        gram = [{j: (a2.killing_table[(i, j)], 0) for j in range(a2.dim)
                 if a2.killing_table.get((i, j))} for i in range(a2.dim)]
        assert linalg.rank(gram) == a2.dim


def jacobi_exhaustive(alg):
    basis = [{i: (1, 0)} for i in range(alg.dim)]
    for i, x in enumerate(basis):
        for j in range(i, alg.dim):
            y = basis[j]
            total = g_bracket(alg, x, y)
            add_products(total, (1, 0), g_bracket(alg, y, x))
            assert total == {}
            for k in range(j, alg.dim):
                z = basis[k]
                total = {}
                for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
                    add_products(total, (1, 0), g_bracket(alg, u, g_bracket(alg, v, w)))
                assert total == {}, (alg.labels[i], alg.labels[j], alg.labels[k])


class TestJacobi:
    def test_a1(self, a1):
        jacobi_exhaustive(a1)

    def test_a2(self, a2):
        jacobi_exhaustive(a2)

    def test_a3(self, a3):
        jacobi_exhaustive(a3)

    def test_d4(self, d4):
        jacobi_exhaustive(d4)


class TestDiagramAuto:
    def test_identity(self, a2):
        auto = build_diagram_auto(a2, (0, 1))
        assert auto.m == 1
        assert all(auto.index_image(i) == (i, 1) for i in range(a2.dim))

    def test_a2_flip_order_two(self, a2_flip):
        assert a2_flip.m == 2

    def test_a2_flip_negates_highest_root(self, a2, a2_flip):
        theta = a2.index_of_root[(1, 1)]
        assert a2_flip.index_image(theta) == (theta, -1)

    def test_simple_root_signs_are_one(self, a2_flip, d4_triality):
        for auto in (a2_flip, d4_triality):
            for s in auto.alg.datum.simple:
                assert auto.index_image(auto.alg.index_of_root[s])[1] == 1

    # every diagram symmetry of A2, A3 and D4 with its order: the identity
    # and the flip of A2 and A3, the six permutations of D4's outer nodes
    SYMMETRIES = [("A", 2, (0, 1), 1), ("A", 2, (1, 0), 2),
                  ("A", 3, (0, 1, 2), 1), ("A", 3, (2, 1, 0), 2),
                  ("D", 4, (0, 1, 2, 3), 1), ("D", 4, (2, 1, 0, 3), 2),
                  ("D", 4, (3, 1, 2, 0), 2), ("D", 4, (0, 1, 3, 2), 2),
                  ("D", 4, (2, 1, 3, 0), 3), ("D", 4, (3, 1, 0, 2), 3)]

    def test_automorphism_on_all_pairs(self):
        """The signs set from the integer table against brackets of g-vectors
        on every basis pair, and sigma^order = id, for each symmetry.  The
        A2 table without its (X_a1, X_a2) pair admits no signs, and with
        [H_1, X_a1] doubled it admits no flip."""
        for kind, rank, perm, order in self.SYMMETRIES:
            alg = build_chevalley(kind, rank)
            auto = build_diagram_auto(alg, perm)
            assert auto.m == order, perm
            basis = [{i: (1, 0)} for i in range(alg.dim)]
            images = [sigma_image(auto, x) for x in basis]
            for x, ax in zip(basis, images):
                for y, ay in zip(basis, images):
                    assert (sigma_image(auto, g_bracket(alg, x, y))
                            == g_bracket(alg, ax, ay)), perm
                y = ax
                for _ in range(order - 1):
                    y = sigma_image(auto, y)
                assert y == x, perm
        a2 = build_chevalley("A", 2)
        x, y = a2.label_index["X_a1"], a2.label_index["X_a2"]
        table = {key: row for key, row in a2.table.items()
                 if key not in ((x, y), (y, x))}
        broken = ChevAlgebra(a2.datum, table_override=table)
        for perm in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="sign resolution infeasible"):
                build_diagram_auto(broken, perm)
        h, x = a2.label_index["H_1"], a2.label_index["X_a1"]
        doubled = ChevAlgebra(a2.datum,
                              table_override={**a2.table, (h, x): {x: 4}})
        with pytest.raises(ValueError, match="sign resolution infeasible"):
            build_diagram_auto(doubled, (1, 0))

    def test_power_is_identity(self, d4, d4_triality):
        for i in range(d4.dim):
            x = {i: (1, 0)}
            y = x
            for _ in range(3):
                y = sigma_image(d4_triality, y)
            assert y == x

    def test_inverse(self, d4, d4_triality):
        inv = d4_triality.inverse()
        for i in range(d4.dim):
            x = {i: (1, 0)}
            assert sigma_image(inv, sigma_image(d4_triality, x)) == x

    def test_non_symmetry_rejected(self, a3):
        with pytest.raises(ValueError):
            build_diagram_auto(a3, (1, 0, 2))

    def test_non_permutation_rejected(self, a2):
        with pytest.raises(ValueError):
            build_diagram_auto(a2, (0, 0))


class TestEigenspaces:
    def test_a2_flip_dims(self, a2_flip):
        spaces = sigma_eigenspaces(a2_flip)
        assert [len(s) for s in spaces] == [3, 5]

    def test_d4_triality_dims(self, d4_triality):
        spaces = sigma_eigenspaces(d4_triality)
        assert [len(s) for s in spaces] == [14, 7, 7]

    def test_a3_flip_dims(self, a3_flip):
        spaces = sigma_eigenspaces(a3_flip)
        assert [len(s) for s in spaces] == [10, 5]

    def test_m1_single_space(self, a1, a1_id):
        spaces = sigma_eigenspaces(a1_id)
        assert len(spaces) == 1 and len(spaces[0]) == 3

    def test_eigenvector_property_exact(self, a2_flip):
        zeta = CycScalar.zeta(2)
        for i, basis in enumerate(sigma_eigenspaces(a2_flip)):
            for v in basis:
                w = pair_of(zeta ** i)
                assert sigma_image(a2_flip, v) == {k: pair_mul(c, w)
                                                   for k, c in v.items()}

    def test_dims_against_row_reduction_oracle(self, a2_flip, d4_triality):
        assert oracle_eigenspace_dims(a2_flip, 2) == [3, 5]
        assert oracle_eigenspace_dims(d4_triality, 3) == [14, 7, 7]

    def test_direct_sum(self, d4, d4_triality):
        vectors = []
        for basis in sigma_eigenspaces(d4_triality):
            vectors.extend(basis)
        solver = linalg.SpanSolver()
        for v in vectors:
            solver.add(v)
        assert solver.rank == d4.dim


class TestCartanOfFixed:
    def test_a1_identity(self, a1, a1_id):
        h0, h = cartan_of_fixed(a1_id)
        assert len(h0) == 1 and len(h) == 1

    def test_a2_flip(self, a2_flip):
        h0, h = cartan_of_fixed(a2_flip)
        assert len(h0) == 1 and len(h) == 2

    def test_a2_identity(self, a2, a2_id):
        h0, h = cartan_of_fixed(a2_id)
        assert len(h0) == 2 and len(h) == 2

    def test_d4_triality(self, d4_triality):
        h0, h = cartan_of_fixed(d4_triality)
        assert len(h0) == 2 and len(h) == 4

    def test_a_centralizer_of_h_larger_than_h_is_rejected(self, a1_id, monkeypatch):
        """h is abelian, so h lies in C_g(h); a C_g(h) of another dimension
        means h is not self-centralizing."""
        real, calls = rootsys.centralizer_in_g, []

        def centralizer(alg, elements):
            calls.append(elements)
            out = real(alg, elements)
            return out + [{alg.rank: (1, 0)}] if len(calls) == 2 else out

        monkeypatch.setattr(rootsys, "centralizer_in_g", centralizer)
        with pytest.raises(ValueError, match="not self-centralizing"):
            cartan_of_fixed(a1_id)
        assert len(calls) == 2

    def test_h_is_abelian_and_contains_h0(self, a2_flip):
        h0, h = cartan_of_fixed(a2_flip)
        for x in h:
            for y in h:
                assert g_bracket(a2_flip.alg, x, y) == {}
        solver = linalg.SpanSolver()
        for x in h:
            solver.add(x)
        for x in h0:
            assert solver.contains(x)
