"""Automorphism generators of the affine algebra at three lift levels.

Generators are the unipotent root exponentials exp(u ad X_alpha), diagram
automorphisms, cocharacter torus points (degree shifts on root lines),
constant torus points, base-ring automorphisms s -> a s^(+-1), and the
one-parameter kernel family d -> d + a c.  A word is a composable sequence
of generators at a fixed level: `loop` acts on loop elements, `tilde` on
affine elements with zero d-part, `hat` on the full affine algebra.

Composition convention: AutoWord([f, g]) applies g first, then f, matching
the rendered form `f . g`.
"""

from __future__ import annotations

import math

from .scalars import (add_products, pair_exact, pair_inv, pair_mul, pair_pow,
                      render_flat, render_pair, render_sum, render_t_power,
                      table_products)
from .loop import LoopElt
from .affine import AffineElt, flat, flat_bracket, unflat
from . import linalg
from .report import Report

LEVELS = ("loop", "tilde", "hat")


def _bracket(alg, x, y, loop):
    """[x, y] of flat forms: at loop level without the c-term."""
    if loop:
        return table_products(alg.table, x[0], y[0]), None, None
    return flat_bracket(alg, x, y)


class AutoGen:
    """Base class for one named generator.  Its one action `act` maps a flat
    form (`affine.flat`) to a flat form: the loop action when `loop`, else
    the lift, one for tilde and hat level.  Its parameters are pairs and
    maps of pairs, and a generator that reads the algebra holds it;
    `AutoWord.apply` acts on elements."""

    def act(self, f, loop=False):
        raise NotImplementedError

    def inverse(self):
        raise NotImplementedError

    def inverse_gens(self, level):
        """Generators of the inverse at the given level, rightmost first.

        A single closed-form inverse generator suffices for every kind
        except the hat-level cocharacter, whose lift composes with its
        negative to a kernel v-shift rather than to the identity.
        """
        return (self.inverse(),)

    def render(self):
        raise NotImplementedError

    def __repr__(self):
        return self.render()


class NilExp(AutoGen):
    """exp(ad z) for an ad-nilpotent loop element z, given by its terms
    {(index, degree): pair} over `alg` at order m.

    Generalizes the single-root exponential to sums of root vectors (the
    twisted algebra's unipotents are orbit sums, not single root lines).
    The series must terminate within 2*dim steps or the input was not
    nilpotent.
    """

    def __init__(self, alg, m, z):
        if any(i < alg.rank for i, _ in z):
            raise ValueError("exponential input must avoid the Cartan part")
        self.alg, self.m, self.z = alg, m, z

    def act(self, f, loop=False):
        """sum (ad z)^n f / n! up to the last nonzero power N, summed with
        weights N!/n! (c-parts under the key "c") and divided by N! once."""
        z, series = (self.z, None, None), [f]
        while (t := _bracket(self.alg, z, series[-1], loop))[0] or t[1]:
            if len(series) > 2 * self.alg.dim + 1:
                raise ValueError("exponential series did not terminate")
            series.append(t)
        top, acc = math.factorial(len(series) - 1), {}
        for n, (terms, c, _) in enumerate(series):
            add_products(acc, (top // math.factorial(n), 0),
                         {**terms, "c": c} if c else terms)
        acc = {key: pair_exact(v, top) for key, v in acc.items()}
        c = acc.pop("c", None)
        return acc, c, f[2]

    def inverse(self):
        return NilExp(self.alg, self.m,
                      {key: (-a, -b) for key, (a, b) in self.z.items()})

    def render(self):
        z = render_flat(self.alg.labels, self.m, (self.z, None, None))
        return f"nilexp({z})"


class RootExp(NilExp):
    """x_alpha(u) = exp(u ad X_alpha), the exponential of z = u X_alpha,
    for a Laurent polynomial u given as a {degree: pair} map."""

    def __init__(self, alg, m, root, u):
        self.root = tuple(root)
        self.u = u
        index = alg.index_of_root[self.root]
        super().__init__(alg, m, {(index, p): x for p, x in u.items()})

    def inverse(self):
        return RootExp(self.alg, self.m, self.root,
                       {p: (-a, -b) for p, (a, b) in self.u.items()})

    def render(self):
        from .rootsys import root_label
        u = render_sum((self.u[p], render_t_power(p, self.m))
                       for p in sorted(self.u))
        return f"rootexp({root_label(self.root)}, {u})"


class Diagram(AutoGen):
    """Diagram automorphism acting basiswise; fixes c and d."""

    def __init__(self, auto):
        self.auto = auto

    def act(self, f, loop=False):
        terms, c, d = f
        out = {}
        for (i, p), (a, b) in terms.items():
            j, sign = self.auto.index_image(i)
            out[j, p] = (a, b) if sign == 1 else (-a, -b)
        return out, c, d

    def inverse(self):
        return Diagram(self.auto.inverse())

    def render(self):
        images = ",".join(str(p + 1) for p in self.auto.perm)
        return f"diagram({images})"


class Cochar(AutoGen):
    """Cocharacter phi in Hom(Q, Z): X_alpha -> X_alpha (x) s^phi(alpha).

    The tilde lift adds the central correction
    H_alpha -> H_alpha + phi(alpha) <X_alpha, X_-alpha> c on degree-zero
    Cartan lines; the hat lift sends d -> d - X_phi where X_phi is the
    unique Cartan solution of [X_phi, X_alpha] = phi(alpha) X_alpha.
    """

    def __init__(self, alg, phi):
        self.alg = alg
        self.phi = tuple(int(v) for v in phi)
        if len(self.phi) != alg.rank:
            raise ValueError("phi must assign an integer to each simple root")
        self._x_phi = None  # X_phi, solved and checked once

    def value(self, root):
        return sum(c * v for c, v in zip(root, self.phi))

    def _central_correction(self, terms):
        """phi(alpha_i) <X_{alpha_i}, X_{-alpha_i}> per degree-0 H term."""
        a = b = 0
        for i in range(self.alg.rank):
            v = terms.get((i, 0))
            if v:
                k = self.phi[i] * self.alg.simple_pairing(i)
                a, b = a + v[0] * k, b + v[1] * k
        return a, b

    def x_phi(self):
        """The Cartan element with [X_phi, X_alpha] = phi(alpha) X_alpha, as
        degree-0 terms {(index, 0): pair}; rational, so one for every m."""
        if self._x_phi is not None:
            return self._x_phi
        n = self.alg.rank
        cartan = self.alg.datum.cartan
        mat = [{j: (a, 0) for j, a in enumerate(cartan[i]) if a}
               for i in range(n)]
        rhs = {i: (v, 0) for i, v in enumerate(self.phi) if v}
        sol = linalg.solve(mat, rhs)
        if sol is None:
            raise ValueError("no Cartan solution for phi")
        x = {(i, 0): v for i, v in sol.items()}
        for idx, root in self.alg.root_of_index.items():
            v = self.value(root)
            if (table_products(self.alg.table, x, {(idx, 0): (1, 0)})
                    != ({(idx, 0): (v, 0)} if v else {})):
                raise ValueError("no Cartan solution for phi")
        self._x_phi = x
        return x

    def act(self, f, loop=False):
        terms, c, d = f
        rank, roots = self.alg.rank, self.alg.root_of_index
        out = {(i, p if i < rank else p + self.value(roots[i])): v
               for (i, p), v in terms.items()}
        if loop:
            return out, c, d
        a, b = self._central_correction(terms)
        if c:
            a, b = a + c[0], b + c[1]
        if d:
            add_products(out, (-d[0], -d[1]), self.x_phi())
        return out, pair_exact((a, b)) if a or b else None, d

    def inverse(self):
        inv = Cochar(self.alg, tuple(-v for v in self.phi))
        if self._x_phi is not None:  # the system is linear: X_-phi = -X_phi
            inv._x_phi = {key: (-a, -b) for key, (a, b) in self._x_phi.items()}
        return inv

    def inverse_gens(self, level):
        if level != "hat":
            return (self.inverse(),)
        # hat lifts of phi and -phi compose to d -> d + a*c with a the
        # central correction of X_phi; compensate exactly.
        a, _ = self._central_correction(self.x_phi())
        return (VShift(pair_exact((-a, 0))), self.inverse())

    def render(self):
        return f"cochar({','.join(str(v) for v in self.phi)})"


class TorusK(AutoGen):
    """Constant adjoint-torus point: X_alpha -> alpha(t) X_alpha.

    Coordinates are the values t_i = alpha_i(t) in k^x, as pairs; fixes the
    Cartan part, c and d at every level.
    """

    def __init__(self, alg, coords):
        self.alg = alg
        self.coords = tuple(coords)
        if len(self.coords) != alg.rank:
            raise ValueError("one coordinate per simple root required")
        if any(not (a or b) for a, b in self.coords):
            raise ValueError("torus coordinates must be nonzero")
        self._eigens = {}  # root -> alpha(t) as a pair, computed once

    def _eigen(self, root):
        if root not in self._eigens:
            value = (1, 0)
            for c, t in zip(root, self.coords):
                value = pair_mul(value, pair_pow(t, c))
            self._eigens[root] = pair_exact(value)
        return self._eigens[root]

    def act(self, f, loop=False):
        terms, c, d = f
        rank, roots = self.alg.rank, self.alg.root_of_index
        return {(i, p): v if i < rank
                else pair_exact(pair_mul(v, self._eigen(roots[i])))
                for (i, p), v in terms.items()}, c, d

    def inverse(self):
        return TorusK(self.alg, tuple(pair_inv(t) for t in self.coords))

    def render(self):
        return f"torus({','.join(render_pair(t) for t in self.coords)})"


class Ring(AutoGen):
    """Base-ring automorphism s -> a*s (e=1) or s -> a*s^-1 (e=-1), with
    the scale a a pair.

    The inverting form negates the grading: its lift sends c -> -c and
    d -> -d (forced by uniqueness of lifts through the central extension).
    """

    def __init__(self, a, e):
        if e not in (1, -1):
            raise ValueError("e must be +1 or -1")
        if not (a[0] or a[1]):
            raise ValueError("ring scale must be nonzero")
        self.a = a
        self.e = e
        self._powers = {}  # p -> a^p as a pair, computed once

    def _power(self, p):
        return self._powers.get(p) or self._powers.setdefault(p, pair_pow(self.a, p))

    def act(self, f, loop=False):
        terms, c, d = f
        out = {(i, self.e * p): pair_exact(pair_mul(v, self._power(p)))
               for (i, p), v in terms.items()}
        if self.e == 1:
            return out, c, d
        return out, c and (-c[0], -c[1]), d and (-d[0], -d[1])

    def inverse(self):
        if self.e == 1:
            return Ring(pair_inv(self.a), 1)
        return Ring(self.a, -1)

    def render(self):
        return f"ring({render_pair(self.a)},{'+1' if self.e == 1 else '-1'})"


class VShift(AutoGen):
    """Kernel generator: fixes the core pointwise, d -> d + a*c, with the
    shift a a pair.  Hat level only (`AutoWord`).
    """

    def __init__(self, a):
        self.a = a

    def act(self, f, loop=False):
        terms, c, d = f
        if not d:
            return f
        a, b = pair_mul(self.a, d)
        if c:
            a, b = a + c[0], b + c[1]
        return terms, pair_exact((a, b)) if a or b else None, d

    def inverse(self):
        return VShift((-self.a[0], -self.a[1]))

    def render(self):
        return f"vshift({render_pair(self.a)})"


class AutoWord:
    """Composable sequence of generators at one lift level of LEVELS."""

    __slots__ = ("level", "gens")

    def __init__(self, level, gens):
        if level != "hat" and any(isinstance(g, VShift) for g in gens):
            raise ValueError("v-shift generators exist only at hat level")
        self.level = level
        self.gens = tuple(gens)

    def act(self, f):
        """The word on a flat form, each generator's `act` at this level."""
        loop = self.level == "loop"
        for gen in reversed(self.gens):
            f = gen.act(f, loop)
        return f

    def apply(self, x):
        if self.level == "loop":
            if not isinstance(x, LoopElt):
                raise TypeError("loop-level words act on LoopElt")
        elif not isinstance(x, AffineElt):
            raise TypeError("tilde/hat-level words act on AffineElt")
        elif self.level == "tilde" and x.d:
            raise ValueError("tilde-level words act on elements with zero d-part")
        out = unflat(x.alg, x.m, self.act(flat(x)))
        return out.loop if self.level == "loop" else out

    def inverse(self):
        gens = []
        for g in reversed(self.gens):
            gens.extend(g.inverse_gens(self.level))
        return AutoWord(self.level, tuple(gens))

    def then(self, other):
        """self . other (other acts first)."""
        if other.level != self.level:
            raise ValueError("cannot compose words at different levels")
        return AutoWord(self.level, self.gens + other.gens)

    def render(self):
        body = " . ".join(g.render() for g in self.gens) if self.gens else "id"
        return f"{body} @ {self.level}"

    def __repr__(self):
        return f"AutoWord({self.render()!r})"


def tilde_lift(word):
    """The unique lift through the central extension (level loop -> tilde)."""
    if word.level != "loop":
        raise ValueError("tilde_lift starts from a loop-level word")
    return AutoWord("tilde", word.gens)


def hat_lift(word):
    """The lift adding the derivation action (level tilde -> hat)."""
    if word.level != "tilde":
        raise ValueError("hat_lift starts from a tilde-level word")
    return AutoWord("hat", word.gens)


def v_auto(a):
    """The kernel automorphism fixing the core with d -> d + a*c."""
    return AutoWord("hat", (VShift(a),))


def verify_automorphism(alg, m, word, sampler, samples):
    """Check phi([x,y]) = [phi(x), phi(y)] exactly on sampled pairs.

    The sampler draws flat forms, and both sides are flat forms.  A
    failing pair is rendered from its samples and the two sides it
    compared."""
    rep = Report()
    loop = word.level == "loop"
    for _ in range(samples):
        fx, fy = sampler(), sampler()
        lhs = word.act(_bracket(alg, fx, fy, loop))
        rhs = _bracket(alg, word.act(fx), word.act(fy), loop)
        if not rep.check(lhs == rhs):
            x, y, lhs, rhs = (render_flat(alg.labels, m, f)
                              for f in (fx, fy, lhs, rhs))
            rep.fail([x, y], lhs, rhs)
    return rep


def verify_exact_sequence(alg, m, generators, loop_sampler, samples):
    """Mechanized identities behind 1 -> V -> Aut(hat) -> Aut(loop) -> 1.

    (i) section: projecting the hat lift of each generator back to loop
    level recovers the generator on sampled loop elements;
    (ii) kernel: composing with a v-shift is invisible at loop level;
    (iii) the hat word v_auto(a) . g . g^-1, g each generator in turn,
    fixes sampled core elements, and a is read off from its action on d.
    Each identity compares flat forms of flat samples, and a failure is
    rendered from the flat forms it compared.
    """
    rep = Report()
    for gen in generators:
        loop_word = AutoWord("loop", (gen,))
        hat_word = hat_lift(tilde_lift(loop_word))
        words = (("section", hat_word),
                 ("kernel", hat_word.then(v_auto((5, 0)))))
        for _ in range(samples):
            f = loop_sampler()
            direct = loop_word.act(f)[0]
            for part, word in words:
                lifted = word.act(f)[0]
                if not rep.check(lifted == direct):
                    x, lhs, rhs = (render_flat(alg.labels, m, (t, None, None))
                                   for t in (f[0], lifted, direct))
                    rep.fail([x], lhs, rhs, part=part, generator=gen.render())
    # (iii) recover the shift parameter of a core-fixing word from d
    for k, a in enumerate((0, 1, -3)):
        gen = generators[k % len(generators)]
        hat = hat_lift(tilde_lift(AutoWord("loop", (gen,))))
        w = v_auto((a, 0)).then(hat).then(hat.inverse())
        moved = False
        for _ in range(samples):
            f = loop_sampler()
            moved |= not rep.check(w.act(f) == f)
        terms, c, d = w.act(({}, None, (1, 0)))
        if moved or terms or d != (1, 0) or (c or (0, 0)) != (a, 0):
            rep.fail([f"a={a}"], render_pair(c or (0, 0)), str(a),
                     part="kernel-recovery", generator=gen.render())
    return rep
