"""Round-trip guarantees for the text formats and the algebra file loader."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affinelie.affine import AffineElt
from affinelie.loop import LoopElt
from affinelie.parsing import (ParseError, parse_affine, parse_algebra_file,
                               parse_laurent, parse_loop, parse_scalar,
                               parse_word)
from affinelie.scalars import CycScalar, LaurentElt


class TestScalarRoundTrip:
    @given(a=st.fractions(max_denominator=12, min_value=-9, max_value=9),
           b=st.fractions(max_denominator=12, min_value=-9, max_value=9))
    def test_zeta3(self, a, b):
        s = CycScalar(3, a, b)
        assert parse_scalar(s.render(), 3) == s

    @given(a=st.fractions(max_denominator=12, min_value=-9, max_value=9))
    def test_rational(self, a):
        s = CycScalar(1, a)
        assert parse_scalar(s.render(), 1) == s


class TestLaurentRoundTrip:
    @given(items=st.lists(st.tuples(st.integers(-8, 8), st.integers(-6, 6)),
                          max_size=4))
    @settings(max_examples=60)
    def test_m2(self, items):
        p = LaurentElt(2, dict(items))
        assert parse_laurent(p.render(), 2) == p

    def test_integral_and_fractional_powers(self):
        p = parse_laurent("2*t^(1/2) - t^0 + t^-2", 2)
        assert p == LaurentElt(2, {1: 2, 0: -1, -4: 1})

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
        with pytest.raises(ParseError):
            parse_loop("H_1*t^0 + c", a1, 1)

    def test_unknown_symbol(self, a1):
        with pytest.raises(ParseError):
            parse_affine("Q_7*t^0", a1, 1)

    def test_spectral_cli_shorthand(self, a1):
        e = parse_affine("H_1*t^0 + d", a1, 1)
        assert e.d == CycScalar.one(1)


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
