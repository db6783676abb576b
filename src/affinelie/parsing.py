"""Parsers for the canonical text forms: scalars, Laurent polynomials,
loop/affine elements, automorphism words, and algebra description files.

The element grammar is one shared sum-of-products language:

    element := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := rational | 'z' | 't' '^' exponent | symbol | '(' element ')'

where exponents are integers or parenthesised rationals `(p/q)`, read by the
one number reader of rational factors, and symbols are basis labels (H_1,
X_a12, X_ma1), `c`, or `d`.  Rendering and parsing round-trip exactly.

Words are read from the same tokens, with no space before a name's `(`:

    word := ('id' | call ('.' call)*) '@' level
    call := name '(' argument (',' argument)* ')'

A root label or an integer is read from its text, and an element as the
run of tokens it spans, so that its errors give their column in the word.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import linalg
from .scalars import ZETA, _add_pair, pair_exact, pair_mul
from .affine import jacobi_sums, unflat


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (column {pos + 1})")
        self.pos = pos


_LEXEME = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^(),.@]")
_TOKEN = re.compile(rf"\s*({_LEXEME.pattern}|\S)")


def tokenize(text):
    """(token, offset) pairs; a character outside the grammar is one token."""
    return [(m.group(1), m.start(1)) for m in _TOKEN.finditer(text)]


def _lexemes(tokens):
    """`tokens`, once none of them is a character outside the grammar."""
    for tok, pos in tokens:
        if not _LEXEME.fullmatch(tok):
            raise ParseError(f"unexpected character {tok!r}", pos)
    return tokens


class _Value:
    """Partial product: pair * t^exp * (optional basis symbol)."""

    __slots__ = ("scalar", "exp", "symbol")

    def __init__(self, scalar, exp=0, symbol=None):
        self.scalar = scalar
        self.exp = exp
        self.symbol = symbol

    def times(self, other):
        if self.symbol is not None and other.symbol is not None:
            raise ParseError("product of two basis symbols")
        return _Value(
            pair_mul(self.scalar, other.scalar),
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

    def take(self, text):
        """Whether the next token is `text`; it is consumed if so."""
        if self.peek() != text:
            return False
        self.i += 1
        return True

    def parse_element(self):
        sign = -1 if self.take("-") else 1
        if sign > 0:
            self.take("+")
        terms = [self.parse_term(sign)]
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            terms.append(self.parse_term(-1 if op == "-" else 1))
        return terms

    def parse_term(self, sign):
        value = self.parse_factor()
        while self.take("*"):
            value = value.times(self.parse_factor())
        if sign == -1:
            value.scalar = (-value.scalar[0], -value.scalar[1])
        return value

    def parse_factor(self):
        if (self.peek() or "").isdigit():
            return _Value((self.parse_number(), 0))
        tok, pos = self.next()
        if tok == "(":
            inner = self.parse_element()
            self.expect(")")
            return _Value(_scalar_sum(inner, pos))
        if tok == "z":
            return _Value(ZETA[self.m])
        if tok == "t":
            self.expect("^")
            return _Value((1, 0), exp=self.parse_exponent())
        if tok in ("c", "d") or (self.alg is not None
                                 and tok in self.alg.label_index):
            return _Value((1, 0), symbol=tok)
        raise ParseError(f"unknown symbol {tok!r}", pos)

    def parse_integer(self, what):
        """A numeral as an int; `what` names it when the token is none."""
        tok, pos = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected {what}", pos)
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise ParseError("numeral too long", pos) from None

    def parse_number(self):
        """The one number reader: a numeral and an optional `/den`."""
        num = Fraction(self.parse_integer("a number"))
        if self.take("/"):
            den = self.parse_integer("a denominator")
            if not den:
                raise ParseError("zero denominator", self.tokens[self.i - 1][1])
            num /= den
        return num

    def parse_exponent(self):
        """An exponent in units of 1/m: a signed integer, or a signed
        number in parentheses that lies in (1/m)Z."""
        if not self.take("("):
            sign = -1 if self.take("-") else 1
            return sign * self.parse_integer("an integer exponent") * self.m
        pos = self.tokens[self.i - 1][1]
        scaled = (-1 if self.take("-") else 1) * self.parse_number() * self.m
        self.expect(")")
        if scaled.denominator != 1:
            raise ParseError(f"exponent {scaled / self.m} is not in (1/{self.m})Z", pos)
        return int(scaled)


def _scalar_sum(terms, pos=None):
    """The pair sum of terms that carry no symbol and no t-power; `pos` is
    the column of the whole expression when it is known."""
    a = b = 0
    for v in terms:
        if v.symbol is not None or v.exp:
            raise ParseError("expected a scalar expression", pos)
        a, b = a + v.scalar[0], b + v.scalar[1]
    return pair_exact((a, b))


def _terms(source, m, alg=None):
    """The terms of one whole element, from text or from a run of word tokens
    that `parse_word` checked; anything after it is a parse error."""
    tokens = _lexemes(tokenize(source)) if isinstance(source, str) else source
    parser = _ElementParser(tokens, m, alg)
    try:
        terms = parser.parse_element()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if parser.i != len(parser.tokens):
        raise ParseError("trailing input", parser.tokens[parser.i][1])
    return terms


def parse_scalar(source, m):
    """A scalar of Q(zeta_m) as a pair."""
    return _scalar_sum(_terms(source, m))


def parse_laurent(source, m):
    """A Laurent polynomial as a zero-free {degree: pair} map."""
    out = {}
    for v in _terms(source, m):
        if v.symbol is not None:
            raise ParseError("unexpected basis symbol in a Laurent polynomial")
        _add_pair(out, v.exp, *v.scalar)
    return {p: pair_exact(x) for p, x in out.items()}


def parse_flat(source, alg, m):
    """An affine element as a flat form (`affine.flat`)."""
    out = {}
    for v in _terms(source, m, alg):
        if v.symbol in ("c", "d"):
            if v.exp:
                raise ParseError(f"{v.symbol} carries no t-power")
            _add_pair(out, v.symbol, *v.scalar)
        elif v.symbol is None:
            if v.scalar[0] or v.scalar[1]:
                raise ParseError("term without a basis symbol")
        else:
            _add_pair(out, (alg.label_index[v.symbol], v.exp), *v.scalar)
    out = {key: pair_exact(x) for key, x in out.items()}
    return out, out.pop("c", None), out.pop("d", None)


def parse_affine(text, alg, m):
    """An affine element as an AffineElt."""
    return unflat(alg, m, parse_flat(text, alg, m))


# -- automorphism words ------------------------------------------------------

def _split(tokens, sep):
    """`tokens` cut at each `sep` token outside parentheses."""
    parts, depth = [[]], 0
    for tok in tokens:
        depth += (tok[0] == "(") - (tok[0] == ")")
        if tok[0] == sep and depth == 0:
            parts.append([])
        else:
            parts[-1].append(tok)
    return parts


# argument shape of each word generator, reported when a call does not
# have it; a fixed argument count where the kind has one
_WORD_ARGS = {"rootexp": "(root, laurent)", "nilexp": "(loop element)",
              "diagram": "(image of 1, ..., image of n)",
              "cochar": "(one integer per simple root)",
              "torus": "(one scalar per simple root)",
              "ring": "(scale, +1|-1)", "vshift": "(scale)"}
_WORD_ARITY = {"rootexp": 2, "nilexp": 1, "ring": 2, "vshift": 1}


def parse_word(text, alg, m):
    """Parse `gen . gen . ... @ level` into an AutoWord, split on its tokens.

    A call without its kind's argument count is a parse error naming its
    shape; a `diagram(...)` that is no diagram symmetry is rejected by
    `build_diagram_auto`."""
    from .autos import (LEVELS, AutoWord, RootExp, NilExp, Diagram, Cochar,
                        TorusK, Ring, VShift)
    from .rootsys import build_diagram_auto

    def span(run):
        """The text a token run spans, without the space around it."""
        return text[run[0][1]:run[-1][1] + len(run[-1][0])] if run else ""

    tokens = tokenize(text)
    ats = [k for k, (tok, _) in enumerate(tokens) if tok == "@"]
    if not ats:
        raise ParseError("missing '@ level' suffix")
    level = text[tokens[ats[-1]][1] + 1:].strip()
    if level not in LEVELS:
        raise ParseError(f"unknown level {level!r}")
    body = tokens[:ats[-1]]
    gens = []
    if span(body) not in ("", "id"):
        for call in _split(body, "."):
            (name, pos), *rest = call or [("", 0)]
            if not (rest[1:] and re.fullmatch("[a-z]+", name) and rest[-1][0] == ")"
                    and rest[0] == ("(", pos + len(name))):
                raise ParseError(f"malformed generator {span(call)!r}")
            if name not in _WORD_ARGS:
                raise ParseError(f"unknown generator kind {name!r}")
            args = _split(rest[1:-1], ",") if rest[1:-1] else []
            if not args or len(args) != _WORD_ARITY.get(name, len(args)):
                raise ParseError(f"{name} takes {_WORD_ARGS[name]}")
            words = [span(_lexemes(a)) for a in args]
            if name == "rootexp":  # X_<root label> is the root's basis label
                index = alg.label_index.get(f"X_{words[0]}")
                if index is None:
                    raise ParseError(f"unknown root label {words[0]!r}")
                gens.append(RootExp(alg, m, alg.root_of_index[index],
                                    parse_laurent(args[1], m)))
            elif name == "nilexp":
                terms, c, d = parse_flat(args[0], alg, m)
                if c or d:
                    raise ParseError("c and d are not allowed in a loop element")
                gens.append(NilExp(alg, m, terms))
            elif name == "diagram":
                perm = tuple(_int(a, "diagram") - 1 for a in words)
                gens.append(Diagram(build_diagram_auto(alg, perm)))
            elif name == "cochar":
                gens.append(Cochar(alg, tuple(_int(a, "cochar") for a in words)))
            elif name == "torus":
                gens.append(TorusK(alg, tuple(parse_scalar(a, m) for a in args)))
            elif name == "ring":
                gens.append(Ring(parse_scalar(args[0], m), _int(words[1], "ring")))
            else:
                gens.append(VShift(parse_scalar(args[0], m)))
    return AutoWord(level, tuple(gens))


# -- algebra description files ----------------------------------------------

_FILE_KEYS = ("schema", "type", "rank", "perm")
_TABLE_KEYS = ("cartan", "root", "bracket")


def parse_algebra_file(text):
    """Parse a versioned algebra description into (algebra, diagram auto).

    Line format, `key: value`:
        schema: 1
        type: A | D | table
        rank: n
        perm: images of 1..n      (optional diagram automorphism)
    Table mode also takes a `cartan:` line, `root:` lines and `bracket: b_i
    b_j -> coef label, ...` lines; any other key, or one of these in a typed
    file, is a parse error naming its line.
    """
    from .rootsys import build_chevalley, build_diagram_auto
    fields = {}
    brackets = []
    roots = []
    table_lines = []  # (lineno, key) of every table-only line
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key not in _FILE_KEYS + _TABLE_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in _TABLE_KEYS:
            table_lines.append((lineno, key))
        if key == "bracket":
            brackets.append((lineno, value))
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
        alg = _table_algebra(rank, fields, roots, brackets)
    elif table_lines:
        lineno, key = table_lines[0]
        raise ParseError(f"line {lineno}: {key!r} is read only in a "
                         "'type: table' file")
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


def _table_algebra(rank, fields, roots, brackets):
    """Escape hatch: an explicit structure-constant table.

    Roots are coefficient tuples over the simple roots: each nonnegative,
    nonzero and listed once, every simple root among them.  Brackets list
    the sparse structure constants by basis label, each pair of labels at
    most once, in either order, and [b, b] = 0.  A degenerate Killing form,
    a bracket against the grading of the cartan matrix (`verify_grading`)
    and a Jacobi failure (`affine.jacobi_sums` on g's basis at degree 0)
    are rejected on load.
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
        if min(vec) < 0 or not any(vec):
            raise ParseError(f"line {lineno}: a root must be nonnegative and nonzero")
        if vec in pos:
            raise ParseError(f"line {lineno}: root {value} is listed twice")
        pos.append(vec)
    for i in range(rank):
        if tuple(int(j == i) for j in range(rank)) not in pos:
            raise ParseError(f"simple root {i + 1} has no 'root:' line")
    datum = RootDatum("table", rank, cartan, pos)
    label_index = {lab: i for i, lab in
                   enumerate(ChevAlgebra.default_labels(datum))}
    table, where = {}, {}
    for lineno, value in brackets:
        m = re.match(r"^(\S+)\s+(\S+)\s*->\s*(.*)$", value)
        if not m:
            raise ParseError(f"line {lineno}: malformed bracket")
        b1, b2, rhs = m.group(1), m.group(2), m.group(3).strip()
        if b1 not in label_index or b2 not in label_index:
            raise ParseError(f"line {lineno}: unknown basis label")
        i, j = label_index[b1], label_index[b2]
        if (i, j) in table:
            raise ParseError(f"line {lineno}: the bracket of {b1} and {b2} is given twice")
        row = {}
        if rhs and rhs != "0":
            for part in rhs.split(","):
                cm = re.match(r"^\s*(-?\d+)\s+(\S+)\s*$", part)
                if not cm:
                    raise ParseError(f"line {lineno}: malformed bracket term")
                coef, lab = int(cm.group(1)), cm.group(2)
                if lab not in label_index:
                    raise ParseError(f"line {lineno}: unknown basis label {lab!r}")
                row[label_index[lab]] = row.get(label_index[lab], 0) + coef
        row = {k: c for k, c in row.items() if c}
        if i == j and row:
            raise ParseError(f"line {lineno}: [{b1}, {b2}] must be 0")
        table[(i, j)] = row
        table[(j, i)] = {k: -c for k, c in row.items()}
        where[(i, j)] = where[(j, i)] = lineno
    alg = ChevAlgebra(datum, table_override={k: v for k, v in table.items() if v})
    gram = [{} for _ in range(alg.dim)]
    for (i, j), c in alg.killing_table.items():
        gram[i][j] = (c, 0)
    if linalg.rank(gram) < alg.dim:
        raise ParseError("table has a degenerate Killing form")
    verify_grading(alg, where)
    basis = [({(i, 0): (1, 0)}, None, None) for i in range(alg.dim)]
    for slots, _ in jacobi_sums(alg, basis):
        if len(slots) == 3:
            raise ParseError("table violates Jacobi at ({},{},{})".format(*slots))
    return alg


def verify_grading(alg, where):
    """The grading of the cartan matrix: [H_i, H_j] = 0 and [H_i, X_a] =
    <a, a_i^vee> X_a; and [X_a, X_-a] is the coroot of each positive root
    a.  In a semisimple algebra [x, y] = kappa(x, y) t_a for x in g_a and y
    in g_-a (Humphreys, Introduction to Lie Algebras, 8.3), so a Cartan
    element h with a(h) = 2 is that coroot.  `where` maps a basis pair to
    its bracket line."""
    from .rootsys import neg, pairing, root_label
    cartan = alg.datum.cartan

    def fail(i, j, text):
        line = where.get((i, j))
        raise ParseError(("" if line is None else f"line {line}: ")
                         + f"[{alg.labels[i]}, {alg.labels[j]}] must be {text}"
                         + ("; no bracket line gives it" if line is None else ""))

    for i in range(alg.rank):
        for j in range(alg.dim):
            root = alg.root_of_index.get(j)
            c = pairing(root, i, cartan) if root else 0
            if alg.table.get((i, j), {}) != ({j: c} if c else {}):
                fail(i, j, (f"{c} {alg.labels[j]}" if c else "0")
                     + " by the cartan matrix")
    for root in alg.datum.positive:
        i, j = alg.index_of_root[root], alg.index_of_root[neg(root)]
        row = alg.table.get((i, j), {})
        if (max(row, default=0) >= alg.rank
                or sum(c * pairing(root, k, cartan) for k, c in row.items()) != 2):
            fail(i, j, f"the coroot: a Cartan element h with {root_label(root)}(h) = 2")

