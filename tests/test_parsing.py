"""Round-trip guarantees for the text formats and the algebra file loader."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affinelie.affine import AffineElt, jacobi_sums
from affinelie.loop import LoopElt
from affinelie.parsing import (ParseError, parse_affine, parse_algebra_file,
                               parse_flat, parse_laurent, parse_scalar,
                               parse_word, verify_grading)
from affinelie.rootsys import ChevAlgebra, build_chevalley
from affinelie.scalars import (CycScalar, LaurentElt, _add_pair, add_products,
                               pair_exact, render_flat, render_pair,
                               table_products)

from conftest import MALFORMED_TABLES, MALFORMED_TYPED


class TestScalarRoundTrip:
    @given(a=st.fractions(max_denominator=12, min_value=-9, max_value=9),
           b=st.fractions(max_denominator=12, min_value=-9, max_value=9))
    def test_zeta3(self, a, b):
        s = CycScalar(3, a, b)
        assert parse_scalar(s.render(), 3) == (s.a, s.b)

    @given(a=st.fractions(max_denominator=12, min_value=-9, max_value=9))
    def test_rational(self, a):
        s = CycScalar(1, a)
        assert parse_scalar(s.render(), 1) == (s.a, s.b)


class TestLaurentRoundTrip:
    @given(items=st.lists(st.tuples(st.integers(-8, 8), st.integers(-6, 6)),
                          max_size=4))
    @settings(max_examples=60)
    def test_m2(self, items):
        p = LaurentElt(2, dict(items))
        assert parse_laurent(p.render(), 2) == {q: (c.a, c.b)
                                                for q, c in p.terms.items()}

    def test_integral_and_fractional_powers(self):
        p = parse_laurent("2*t^(1/2) - t^0 + t^-2", 2)
        assert p == {1: (2, 0), 0: (-1, 0), -4: (1, 0)}
        assert parse_laurent("t^(2/4) - t^(-6/3)", 2) == {1: (1, 0),
                                                          -4: (-1, 0)}

    def test_fractional_power_must_match_m(self):
        with pytest.raises(ParseError):
            parse_laurent("t^(1/3)", 2)


class TestElementRoundTrip:
    def test_documented_example(self, a2):
        e = parse_affine("X_a12*t^(3/2) + 2*H_1*t^0", a2, 2)
        out = e.render()
        assert parse_affine(out, a2, 2) == e

    def test_random_affine(self, a2):
        rng = random.Random(1)
        for m in (1, 2):
            for _ in range(40):
                loop = LoopElt.zero(a2, m)
                for _ in range(3):
                    loop = loop + LoopElt.monomial(
                        a2, m, rng.randrange(a2.dim), rng.randint(-4, 4),
                        Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                e = AffineElt(loop, c=rng.randint(-3, 3), d=rng.randint(-2, 2))
                assert parse_affine(e.render(), a2, m) == e

    def test_zeta_coefficients(self, d4):
        e = parse_affine("(1+z)*X_a2*t^(1/3) - z*H_1*t^0 + c - 2*d", d4, 3)
        assert parse_affine(e.render(), d4, 3) == e

    def test_loop_rejects_c_and_d(self, a1):
        for z in ("X_a1*t^0 + c", "X_a1*t^0 + d"):
            with pytest.raises(ParseError, match="c and d are not allowed"):
                parse_word(f"nilexp({z}) @ loop", a1, 1)

    def test_unknown_symbol(self, a1):
        with pytest.raises(ParseError):
            parse_affine("Q_7*t^0", a1, 1)

    def test_spectral_cli_shorthand(self, a1):
        e = parse_affine("H_1*t^0 + d", a1, 1)
        assert e.d == CycScalar.one(1)


def pairs(m):
    """Pairs of small fractions, exact; with a zeta part only at m = 3."""
    part = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.tuples(part, part if m == 3 else st.just(0)).map(pair_exact)


@st.composite
def flat_forms(draw, alg, m):
    """Flat forms of up to five monomials at degrees in [-2m, 2m] (so t^(p/m)
    with p/m fractional for m > 1), each with or without c and d."""
    terms = {}
    for i, p, x in draw(st.lists(st.tuples(
            st.integers(0, alg.dim - 1), st.integers(-2 * m, 2 * m), pairs(m)),
            max_size=5)):
        _add_pair(terms, (i, p), *x)
    c, d = (draw(st.none() | pairs(m).filter(any)) for _ in range(2))
    return {key: pair_exact(x) for key, x in terms.items()}, c, d


class TestFlatRoundTrip:
    """The one writer's renders parse back at m = 1, 2, 3."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_render_flat_parses_back(self, a2, d4, m, data):
        alg = d4 if m == 3 else a2
        f = data.draw(flat_forms(alg, m))
        assert parse_flat(render_flat(alg.labels, m, f), alg, m) == f

    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(data=st.data())
    def test_render_pair_parses_back(self, m, data):
        x = data.draw(pairs(m))
        assert parse_scalar(render_pair(x), m) == x


class TestWordRoundTrip:
    def test_documented_example(self, a2):
        text = "rootexp(a1, 2*t^1) . cochar(1,0) . ring(1,-1) @ hat"
        w = parse_word(text, a2, 1)
        assert w.level == "hat" and len(w.gens) == 3
        assert parse_word(w.render(), a2, 1).render() == w.render()

    def test_identity_word(self, a1):
        w = parse_word("id @ loop", a1, 1)
        assert len(w.gens) == 0

    def test_vshift_and_torus(self, a2):
        w = parse_word("vshift(3/2) . torus(2, 1/3) @ hat", a2, 1)
        assert parse_word(w.render(), a2, 1).render() == w.render()

    def test_nilexp(self, a2):
        w = parse_word("nilexp(X_a1*t^0 + 2*X_a12*t^1) @ hat", a2, 1)
        assert parse_word(w.render(), a2, 1).render() == w.render()

    def test_application_round_trip(self, a1):
        # parsing preserves the action, not just the rendering
        text = "rootexp(a1, t^1) . cochar(1) . vshift(2) @ hat"
        w = parse_word(text, a1, 1)
        w2 = parse_word(w.render(), a1, 1)
        x = AffineElt(LoopElt.monomial(a1, 1, 2, -1), c=1, d=1)
        assert w.apply(x) == w2.apply(x)

    def test_unknown_generator(self, a1):
        with pytest.raises(ParseError):
            parse_word("frobenius(1) @ hat", a1, 1)

    def test_missing_level(self, a1):
        with pytest.raises(ParseError):
            parse_word("cochar(1)", a1, 1)

    def test_unknown_level(self, a1):
        with pytest.raises(ParseError, match="^unknown level 'hatt'$"):
            parse_word("rootexp(a1, 1*t^1) @ hatt", a1, 1)

    def test_diagram_uses_the_typed_permutation(self, a2):
        w = parse_word("diagram(2,1) @ hat", a2, 1)
        assert w.gens[0].auto.perm == (1, 0)
        assert w.render() == "diagram(2,1) @ hat"

    def test_diagram_rejects_a_non_permutation(self, a2):
        with pytest.raises(ValueError, match="not a permutation"):
            parse_word("diagram(3,1) @ hat", a2, 1)

    @pytest.mark.parametrize("text", ["cochar(1,x) @ hat", "ring(2,x) @ hat",
                                      "diagram(1,x) @ hat"])
    def test_non_integer_argument(self, a2, text):
        with pytest.raises(ParseError, match="expected an integer"):
            parse_word(text, a2, 1)

    @pytest.mark.parametrize("text", ["vshift(2, 7) @ hat",
                                      "vshift(1/2, 1/3, 5) @ hat"])
    def test_vshift_takes_one_argument(self, a1, text):
        with pytest.raises(ParseError, match=r"vshift takes \(scale\)"):
            parse_word(text, a1, 1)


    @pytest.mark.parametrize("name, shape", [
        ("rootexp", "(root, laurent)"), ("nilexp", "(loop element)"),
        ("diagram", "(image of 1, ..., image of n)"),
        ("cochar", "(one integer per simple root)"),
        ("torus", "(one scalar per simple root)"),
        ("ring", "(scale, +1|-1)"), ("vshift", "(scale)"),
    ])
    @pytest.mark.parametrize("argtext", ["", "  "])
    def test_empty_arguments_name_the_shape(self, a2, name, shape, argtext):
        # `name()` has no arguments, not one empty one; a ParseError (exit
        # 2), never the ValueError (exit 3) of an empty cochar or torus
        with pytest.raises(ParseError) as info:
            parse_word(f"{name}({argtext}) @ hat", a2, 1)
        assert str(info.value) == f"{name} takes {shape}"

    def test_nilexp_takes_one_argument(self, a1):
        with pytest.raises(ParseError, match=r"nilexp takes \(loop element\)"):
            parse_word("nilexp(X_a1*t^1, X_a1*t^2) @ hat", a1, 1)


TABLE_ALGEBRAS = {rank: build_chevalley("A", rank) for rank in (1, 2, 3)}


def reference_table_jacobi(alg):
    """The first basis triple i <= j <= k of g at which [x, [y, z]] +
    [y, [z, x]] + [z, [x, y]] is nonzero, or None: six `table_products`
    calls per triple, with no interning and no shared bracket table."""
    basis = [{(i, 0): (1, 0)} for i in range(alg.dim)]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis[i:], i):
            for k, z in enumerate(basis[j:], j):
                s = {}
                for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
                    add_products(s, (1, 0), table_products(
                        alg.table, u, table_products(alg.table, v, w)))
                if s:
                    return i, j, k
    return None


class TestAlgebraFiles:
    def test_split_and_twisted(self):
        alg, auto = parse_algebra_file("schema: 1\ntype: A\nrank: 2\n")
        assert alg.dim == 8 and auto.m == 1
        alg, auto = parse_algebra_file("schema: 1\ntype: A\nrank: 2\nperm: 2 1\n")
        assert auto.m == 2

    def test_d4_triality_file(self):
        alg, auto = parse_algebra_file("schema: 1\ntype: D\nrank: 4\nperm: 3 2 4 1\n")
        assert alg.dim == 28 and auto.m == 3

    def test_comments_and_blanks(self):
        text = "# comment\nschema: 1\n\ntype: A  # trailing\nrank: 1\n"
        alg, _ = parse_algebra_file(text)
        assert alg.dim == 3

    def test_table_mode(self):
        text = """
schema: 1
type: table
rank: 1
cartan: 2
root: 1
bracket: H_1 X_a1 -> 2 X_a1
bracket: H_1 X_ma1 -> -2 X_ma1
bracket: X_a1 X_ma1 -> 1 H_1
"""
        alg, auto = parse_algebra_file(text)
        assert alg.dim == 3
        x = alg.label_index["X_a1"]
        y = alg.label_index["X_ma1"]
        assert alg.killing_table[(x, y)] == 4

    def test_table_mode_rejects_bad_jacobi(self):
        text = """
schema: 1
type: table
rank: 1
cartan: 2
root: 1
bracket: H_1 X_a1 -> 2 X_a1
bracket: H_1 X_ma1 -> 2 X_ma1
bracket: X_a1 X_ma1 -> 1 H_1
"""
        with pytest.raises(ParseError):
            parse_algebra_file(text)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_table_jacobi_matches_the_direct_loop(self, data):
        """One structure constant of a1, a2 or a3 changed, at (i, j) and
        (j, i) together: the load check (`jacobi_sums` on g's basis at
        degree 0) and the direct triple loop find the same first failing
        triple, or none."""
        alg = TABLE_ALGEBRAS[data.draw(st.sampled_from(sorted(TABLE_ALGEBRAS)))]
        i, j = data.draw(st.lists(st.integers(0, alg.dim - 1), min_size=2,
                                  max_size=2, unique=True))
        k = data.draw(st.integers(0, alg.dim - 1))
        old = alg.table.get((i, j), {}).get(k, 0)
        new = data.draw(st.integers(-3, 3).filter(lambda v: v != old))
        table = dict(alg.table)
        for key, sign in (((i, j), 1), ((j, i), -1)):
            row = {**table.get(key, {}), k: sign * new}
            table[key] = {b: c for b, c in row.items() if c}
        tampered = ChevAlgebra(alg.datum, table_override=table)
        basis = [({(b, 0): (1, 0)}, None, None) for b in range(alg.dim)]
        found = next((slots for slots, _ in jacobi_sums(tampered, basis)
                      if len(slots) == 3), None)
        assert found == reference_table_jacobi(tampered)

    @pytest.mark.parametrize("text, error", MALFORMED_TABLES + MALFORMED_TYPED)
    def test_table_mode_rejects_malformed_tables(self, text, error):
        with pytest.raises(ParseError, match=f"^{error}$"):
            parse_algebra_file(text)

    @pytest.mark.parametrize("kind, rank", [("A", 1), ("A", 2), ("A", 3), ("D", 4)])
    def test_typed_tables_pass_the_grading_gate(self, kind, rank):
        verify_grading(build_chevalley(kind, rank), {})

    def test_grading_gate_names_a_missing_bracket(self):
        alg = build_chevalley("A", 1)
        h, y = alg.label_index["H_1"], alg.label_index["X_ma1"]
        table = {k: v for k, v in alg.table.items() if k not in ((h, y), (y, h))}
        with pytest.raises(ParseError, match=r"^\[H_1, X_ma1\] must be -2 X_ma1 "
                           "by the cartan matrix; no bracket line gives it$"):
            verify_grading(ChevAlgebra(alg.datum, table_override=table), {})

    def test_coroot_gate_names_a_missing_bracket(self):
        alg = build_chevalley("A", 1)
        x, y = alg.label_index["X_a1"], alg.label_index["X_ma1"]
        table = {k: v for k, v in alg.table.items() if k not in ((x, y), (y, x))}
        with pytest.raises(ParseError, match=r"^\[X_a1, X_ma1\] must be the coroot: "
                           r"a Cartan element h with a1\(h\) = 2; no bracket line "
                           "gives it$"):
            verify_grading(ChevAlgebra(alg.datum, table_override=table), {})

    def test_coroot_gate_rejects_a_root_vector_term(self):
        alg = build_chevalley("A", 1)
        h, x, y = (alg.label_index[lab] for lab in ("H_1", "X_a1", "X_ma1"))
        table = dict(alg.table)
        table[(x, y)] = {h: 1, x: 1}
        table[(y, x)] = {h: -1, x: -1}
        with pytest.raises(ParseError, match=r"^line 9: \[X_a1, X_ma1\] must be "
                           "the coroot"):
            verify_grading(ChevAlgebra(alg.datum, table_override=table),
                           {(x, y): 9, (y, x): 9})

    def test_table_mode_reads_a_reversed_pair_as_its_negative(self):
        # and stores no zero coefficient: the sign pass divides by each
        text = """
schema: 1
type: table
rank: 1
cartan: 2
root: 1
bracket: X_a1 H_1 -> -2 X_a1
bracket: H_1 X_ma1 -> -2 X_ma1
bracket: X_ma1 X_a1 -> -1 H_1, 0 X_a1
"""
        alg, _ = parse_algebra_file(text)
        h, x, y = (alg.label_index[lab] for lab in ("H_1", "X_a1", "X_ma1"))
        assert alg.table[(h, x)] == {x: 2} and alg.table[(x, y)] == {h: 1}

    def test_unsupported_type_is_value_error(self):
        with pytest.raises(ValueError) as err:
            parse_algebra_file("schema: 1\ntype: E\nrank: 8\n")
        assert not isinstance(err.value, ParseError)

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_algebra_file("schema: 1\ngarbage line\n")

    def test_wrong_schema(self):
        with pytest.raises(ParseError):
            parse_algebra_file("schema: 2\ntype: A\nrank: 1\n")


@pytest.mark.parametrize("parse, text, column", [
    (lambda text, alg: parse_scalar(text, 1), "1 2", 3),
    (lambda text, alg: parse_laurent(text, 1), "t^1 2", 5),
    (lambda text, alg: parse_affine(text, alg, 1), "H_1*t^0 H_1", 9),
], ids=["scalar", "laurent", "affine"])
def test_input_after_a_whole_element_is_a_parse_error(a1, parse, text, column):
    with pytest.raises(ParseError, match=rf"^trailing input \(column {column}\)$"):
        parse(text, a1)


@pytest.mark.parametrize("text, error", [
    ("1/x", "expected a denominator (column 3)"),
    ("t^(1/x)", "expected a denominator (column 6)"),
    ("1/0", "zero denominator (column 3)"),
    ("t^(1/0)", "zero denominator (column 6)"),
    ("t^(x)", "expected a number (column 4)"),
    ("t^(-2/4)", "exponent -1/2 is not in (1/1)Z (column 3)"),
    ("t^x", "expected an integer exponent (column 3)"),
    ("t^1/2", "trailing input (column 4)"),
])
def test_factors_and_exponents_share_one_number_reader(text, error):
    # a rational factor and a parenthesised exponent read their numbers
    # with one reader, so they fail with the same messages; a bare
    # exponent is an integer
    with pytest.raises(ParseError, match=f"^{re.escape(error)}$"):
        parse_laurent(text, 1)


@pytest.mark.parametrize("text, error", [
    ("cochar(1) . rootexp(a1, 1/0*t^1) @ hat", "zero denominator (column 27)"),
    ("nilexp(X_a1*t^1 + Q*t^2) @ hat", "unknown symbol 'Q' (column 19)"),
    ("torus(1/0) @ hat", "zero denominator (column 9)"),
    ("ring(2 3, 1) @ hat", "trailing input (column 8)"),
    ("vshift(t^x) @ hat", "expected an integer exponent (column 10)"),
    ("ring(2, 1$) @ hat", "unexpected character '$' (column 10)"),
    ("cochar(1$) @ hat", "unexpected character '$' (column 9)"),
], ids=["rootexp_laurent", "nilexp_flat", "torus_scalar", "ring_scalar",
        "vshift_scalar", "ring_integer", "cochar_integer"])
def test_word_argument_errors_give_their_column_in_the_word(a1, text, error):
    # every argument is read from the word's one token list, whose columns
    # count from the start of the word
    with pytest.raises(ParseError, match=f"^{re.escape(error)}$"):
        parse_word(text, a1, 1)


@pytest.mark.parametrize("text, error", [
    ("H_1 $", "unexpected character '$' (column 5)"),
    ("H_1*t^0 + é", "unexpected character 'é' (column 11)"),
], ids=["after_a_space", "not_ascii"])
def test_a_character_outside_the_grammar_is_named_at_its_column(a1, text, error):
    with pytest.raises(ParseError, match=f"^{re.escape(error)}$"):
        parse_affine(text, a1, 1)


def test_a_word_is_read_one_generator_at_a_time(a2):
    # one token list for the whole word, but no generator is read before
    # the ones in front of it are built: the diagram is rejected as
    # unsupported input (exit 3) before the `$` of the next call is seen
    with pytest.raises(ValueError, match="not a permutation") as info:
        parse_word("diagram(3,1) . vshift(2$) @ hat", a2, 1)
    assert not isinstance(info.value, ParseError)
