"""Parsers for the canonical text forms: scalars, Laurent polynomials,
loop/affine elements, automorphism words, and algebra description files.

The element grammar is one shared sum-of-products language:

    element := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := rational | 'z' | 't' '^' exponent | symbol | '(' element ')'

where exponents are integers or parenthesised fractions `(p/q)` and symbols
are basis labels (H_1, X_a12, X_ma1), `c`, or `d`.  Rendering and parsing
round-trip exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import CycScalar, LaurentElt
from .loop import LoopElt
from .affine import AffineElt


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (column {pos + 1})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^(),.@])")


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Value:
    """Partial product: scalar * t^exp * (optional basis symbol)."""

    __slots__ = ("scalar", "exp", "symbol")

    def __init__(self, scalar, exp=0, symbol=None):
        self.scalar = scalar
        self.exp = exp
        self.symbol = symbol

    def times(self, other, m):
        if self.symbol is not None and other.symbol is not None:
            raise ParseError("product of two basis symbols")
        return _Value(
            self.scalar * other.scalar,
            self.exp + other.exp,
            self.symbol if self.symbol is not None else other.symbol,
        )


class _ElementParser:
    def __init__(self, tokens, m, alg=None):
        self.tokens = tokens
        self.m = m
        self.alg = alg
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text):
        tok, pos = self.next()
        if tok != text:
            raise ParseError(f"expected {text!r}, got {tok!r}", pos)

    def parse_element(self):
        terms = []
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        elif self.peek() == "+":
            self.next()
        terms.append(self.parse_term(sign))
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            terms.append(self.parse_term(-1 if op == "-" else 1))
        return terms

    def parse_term(self, sign):
        value = self.parse_factor()
        while self.peek() == "*":
            self.next()
            value = value.times(self.parse_factor(), self.m)
        if sign == -1:
            value.scalar = -value.scalar
        return value

    def parse_factor(self):
        tok, pos = self.next()
        if tok == "(":
            inner = self.parse_element()
            self.expect(")")
            return self._collapse_scalar(inner, pos)
        if tok.isdigit():
            num = Fraction(int(tok))
            if self.peek() == "/":
                self.next()
                den, dpos = self.next()
                if not den.isdigit():
                    raise ParseError("expected a denominator", dpos)
                if not int(den):
                    raise ParseError("zero denominator", dpos)
                num = num / int(den)
            return _Value(CycScalar(self.m, num))
        if tok == "z":
            return _Value(CycScalar.zeta(self.m))
        if tok == "t":
            self.expect("^")
            return _Value(CycScalar.one(self.m), exp=self.parse_exponent())
        if tok in ("c", "d"):
            return _Value(CycScalar.one(self.m), symbol=tok)
        if self.alg is not None and tok in self.alg.label_index:
            return _Value(CycScalar.one(self.m), symbol=tok)
        raise ParseError(f"unknown symbol {tok!r}", pos)

    def parse_exponent(self):
        sign = 1
        if self.peek() == "(":
            self.next()
            if self.peek() == "-":
                self.next()
                sign = -1
            num_tok, pos = self.next()
            if not num_tok.isdigit():
                raise ParseError("expected an exponent numerator", pos)
            p = int(num_tok)
            q = 1
            if self.peek() == "/":
                self.next()
                den_tok, dpos = self.next()
                if not den_tok.isdigit():
                    raise ParseError("expected an exponent denominator", dpos)
                q = int(den_tok)
                if not q:
                    raise ParseError("zero exponent denominator", dpos)
            self.expect(")")
            numerator = sign * p * self.m
            if numerator % q:
                raise ParseError(f"exponent {sign*p}/{q} is not in (1/{self.m})Z", pos)
            return numerator // q
        if self.peek() == "-":
            self.next()
            sign = -1
        tok, pos = self.next()
        if not tok.isdigit():
            raise ParseError("expected an integer exponent", pos)
        return sign * int(tok) * self.m

    def _collapse_scalar(self, terms, pos):
        scalar = CycScalar.zero(self.m)
        for v in terms:
            if v.symbol is not None or v.exp:
                raise ParseError("parenthesised factor must be a pure scalar", pos)
            scalar = scalar + v.scalar
        return _Value(scalar)


def parse_scalar(text, m):
    parser = _ElementParser(tokenize(text), m)
    terms = parser.parse_element()
    if parser.i != len(parser.tokens):
        raise ParseError("trailing input", parser.tokens[parser.i][1])
    out = CycScalar.zero(m)
    for v in terms:
        if v.symbol is not None or v.exp:
            raise ParseError("expected a scalar expression")
        out = out + v.scalar
    return out


def parse_laurent(text, m):
    parser = _ElementParser(tokenize(text), m)
    terms = parser.parse_element()
    if parser.i != len(parser.tokens):
        raise ParseError("trailing input", parser.tokens[parser.i][1])
    out = LaurentElt.zero(m)
    for v in terms:
        if v.symbol is not None:
            raise ParseError("unexpected basis symbol in a Laurent polynomial")
        out = out + LaurentElt.s_power(m, v.exp, v.scalar)
    return out


def parse_affine(text, alg, m, allow_cd=True):
    """Parse an affine (or loop when allow_cd=False) element."""
    parser = _ElementParser(tokenize(text), m, alg)
    terms = parser.parse_element()
    if parser.i != len(parser.tokens):
        raise ParseError("trailing input", parser.tokens[parser.i][1])
    loop = LoopElt.zero(alg, m)
    c = CycScalar.zero(m)
    d = CycScalar.zero(m)
    for v in terms:
        if v.symbol == "c":
            if v.exp:
                raise ParseError("c carries no t-power")
            c = c + v.scalar
        elif v.symbol == "d":
            if v.exp:
                raise ParseError("d carries no t-power")
            d = d + v.scalar
        elif v.symbol is None:
            if v.scalar:
                raise ParseError("term without a basis symbol")
        else:
            idx = alg.label_index[v.symbol]
            loop = loop + LoopElt.monomial(alg, m, idx, v.exp, v.scalar)
    if (c or d) and not allow_cd:
        raise ParseError("c and d are not allowed in a loop element")
    if not allow_cd:
        return loop
    return AffineElt(loop, c, d)


def parse_loop(text, alg, m):
    return parse_affine(text, alg, m, allow_cd=False)


# -- automorphism words ------------------------------------------------------

def _split_top_level(text, sep):
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_word(text, alg, m):
    """Parse `gen . gen . ... @ level` into an AutoWord.

    A `diagram(...)` permutation is built and verified by
    `build_diagram_auto`; one that is no diagram symmetry is rejected.
    """
    from .autos import (AutoWord, RootExp, Diagram, Cochar, TorusK, Ring,
                        VShift)
    from .rootsys import build_diagram_auto, root_label

    if "@" not in text:
        raise ParseError("missing '@ level' suffix")
    body, level = text.rsplit("@", 1)
    level = level.strip()
    body = body.strip()
    gens = []
    if body and body != "id":
        label_to_root = {root_label(r): r for r in alg.datum.roots}
        for chunk in _split_top_level(body, "."):
            chunk = chunk.strip()
            mfun = re.match(r"^([a-z]+)\((.*)\)$", chunk, re.S)
            if not mfun:
                raise ParseError(f"malformed generator {chunk!r}")
            name, argtext = mfun.group(1), mfun.group(2)
            args = [a.strip() for a in _split_top_level(argtext, ",")]
            if name == "rootexp":
                if len(args) != 2:
                    raise ParseError("rootexp takes (root, laurent)")
                if args[0] not in label_to_root:
                    raise ParseError(f"unknown root label {args[0]!r}")
                gens.append(RootExp(alg, label_to_root[args[0]],
                                    parse_laurent(args[1], m)))
            elif name == "nilexp":
                from .autos import NilExp
                gens.append(NilExp(parse_affine(argtext.strip(), alg, m,
                                                allow_cd=False)))
            elif name == "diagram":
                perm = tuple(_int(a, "diagram") - 1 for a in args)
                gens.append(Diagram(build_diagram_auto(alg, perm)))
            elif name == "cochar":
                gens.append(Cochar(alg, tuple(_int(a, "cochar") for a in args)))
            elif name == "torus":
                gens.append(TorusK(alg, tuple(parse_scalar(a, m) for a in args)))
            elif name == "ring":
                if len(args) != 2:
                    raise ParseError("ring takes (scale, +1|-1)")
                gens.append(Ring(parse_scalar(args[0], m), _int(args[1], "ring")))
            elif name == "vshift":
                gens.append(VShift(parse_scalar(args[0], m)))
            else:
                raise ParseError(f"unknown generator kind {name!r}")
    return AutoWord(level, tuple(gens))


# -- algebra description files ----------------------------------------------

def parse_algebra_file(text):
    """Parse a versioned algebra description into (algebra, diagram auto).

    Line format, `key: value`:
        schema: 1
        type: A | D | table
        rank: n
        perm: images of 1..n      (optional diagram automorphism)
    Table mode additionally takes `label:` lines naming Cartan and root
    basis elements and `bracket: b_i b_j -> coef label, ...` lines.
    """
    from .rootsys import build_chevalley, build_diagram_auto, ChevAlgebra
    fields = {}
    brackets = []
    labels = []
    roots = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key == "bracket":
            brackets.append((lineno, value))
        elif key == "label":
            labels.append(value)
        elif key == "root":
            roots.append((lineno, value))
        else:
            if key in fields:
                raise ParseError(f"line {lineno}: duplicate key {key!r}")
            fields[key] = (lineno, value)

    def need(key):
        if key not in fields:
            raise ParseError(f"missing required key {key!r}")
        return fields[key][1]

    if need("schema") != "1":
        raise ParseError("unsupported schema version")
    kind = need("type")
    rank = _int(need("rank"), "rank")
    if kind == "table":
        alg = _table_algebra(rank, fields, labels, roots, brackets)
    else:
        # unknown kinds raise ValueError: unsupported input, not a parse error
        alg = build_chevalley(kind, rank)
    if "perm" in fields:
        images = tuple(_int(v, "perm") - 1 for v in fields["perm"][1].split())
        auto = build_diagram_auto(alg, images)
    else:
        auto = build_diagram_auto(alg, tuple(range(alg.rank)))
    return alg, auto


def _int(text, what):
    """An integer field of an algebra file or an integer argument of a
    word generator; anything else is a parse error."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what}: expected an integer, got {text!r}") from None


def _table_algebra(rank, fields, labels, roots, brackets):
    """Escape hatch: an explicit structure-constant table.

    Roots are coefficient tuples over the simple roots; brackets list the
    sparse structure constants by basis label.  Jacobi and antisymmetry
    are verified on load.
    """
    from .rootsys import RootDatum, ChevAlgebra

    if "cartan" not in fields:
        raise ParseError("table mode requires a cartan matrix")
    rows = [r.strip() for r in fields["cartan"][1].split(";")]
    cartan = tuple(tuple(_int(v, "cartan") for v in row.split()) for row in rows)
    if len(cartan) != rank or any(len(r) != rank for r in cartan):
        raise ParseError("cartan matrix shape mismatch")
    pos = []
    for lineno, value in roots:
        vec = tuple(_int(v, f"line {lineno}: root") for v in value.split())
        if len(vec) != rank:
            raise ParseError(f"line {lineno}: root length mismatch")
        pos.append(vec)
    datum = RootDatum("table", rank, cartan, pos)
    label_index = {lab: i for i, lab in
                   enumerate(ChevAlgebra.default_labels(datum))}
    table = {}
    for lineno, value in brackets:
        m = re.match(r"^(\S+)\s+(\S+)\s*->\s*(.*)$", value)
        if not m:
            raise ParseError(f"line {lineno}: malformed bracket")
        b1, b2, rhs = m.group(1), m.group(2), m.group(3).strip()
        if b1 not in label_index or b2 not in label_index:
            raise ParseError(f"line {lineno}: unknown basis label")
        i, j = label_index[b1], label_index[b2]
        row = {}
        if rhs and rhs != "0":
            for part in rhs.split(","):
                cm = re.match(r"^\s*(-?\d+)\s+(\S+)\s*$", part)
                if not cm:
                    raise ParseError(f"line {lineno}: malformed bracket term")
                coef, lab = int(cm.group(1)), cm.group(2)
                if lab not in label_index:
                    raise ParseError(f"line {lineno}: unknown basis label {lab!r}")
                row[label_index[lab]] = coef
        table[(i, j)] = row
        table[(j, i)] = {k: -c for k, c in row.items()}
    alg = ChevAlgebra(datum, table_override={k: v for k, v in table.items() if v})
    _verify_table(alg)
    return alg


def _verify_table(alg):
    from .rootsys import GElt
    for i in range(alg.dim):
        x = GElt.basis(alg, 1, i)
        for j in range(i, alg.dim):
            y = GElt.basis(alg, 1, j)
            if (x.bracket(y) + y.bracket(x)).coords:
                raise ParseError(f"table violates antisymmetry at ({i},{j})")
            for k in range(j, alg.dim):
                z = GElt.basis(alg, 1, k)
                s = x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y))
                if s.coords:
                    raise ParseError(f"table violates Jacobi at ({i},{j},{k})")
