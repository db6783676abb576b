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
from fractions import Fraction

from .scalars import CycScalar, LaurentElt, as_scalar
from .rootsys import GElt
from .loop import LoopElt
from .affine import AffineElt, bracket_affine
from . import linalg

LEVELS = ("loop", "tilde", "hat")


class AutoGen:
    """Base class for one named generator."""

    def apply_loop(self, x):
        raise NotImplementedError

    def apply_affine(self, x, level):
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
    """exp(ad z) for an ad-nilpotent loop element z.

    Generalizes the single-root exponential to sums of root vectors (the
    twisted algebra's unipotents are orbit sums, not single root lines).
    The series must terminate within 2*dim steps or the input was not
    nilpotent.
    """

    def __init__(self, z):
        if not isinstance(z, LoopElt):
            raise TypeError("z must be a LoopElt")
        if any(i < z.alg.rank for i in z.coords):
            raise ValueError("exponential input must avoid the Cartan part")
        self.z = z

    def _exp(self, x, bracket):
        total = x
        term = x
        n = 0
        cap = 2 * self.z.alg.dim + 2
        while True:
            n += 1
            if n > cap:
                raise ValueError("exponential series did not terminate")
            term = bracket(term)
            if term.is_zero():
                return total
            total = total + term.scale(Fraction(1, math.factorial(n)))

    def apply_loop(self, x):
        return self._exp(x, self.z.bracket)

    def apply_affine(self, x, level):
        zhat = AffineElt(self.z)
        return self._exp(x, lambda y: bracket_affine(zhat, y))

    def inverse(self):
        return NilExp(-self.z)

    def render(self):
        return f"nilexp({self.z.render()})"


class RootExp(NilExp):
    """x_alpha(u) = exp(u ad X_alpha), the exponential of z = u X_alpha."""

    def __init__(self, alg, root, u):
        self.root = tuple(root)
        if not isinstance(u, LaurentElt):
            raise TypeError("u must be a LaurentElt")
        self.u = u
        super().__init__(LoopElt(alg, u.m, {alg.index_of_root[self.root]: u}))

    def inverse(self):
        return RootExp(self.z.alg, self.root, -self.u)

    def render(self):
        from .rootsys import root_label
        return f"rootexp({root_label(self.root)}, {self.u.render()})"


class Diagram(AutoGen):
    """Diagram automorphism acting basiswise; fixes c and d."""

    def __init__(self, auto):
        self.auto = auto

    def apply_loop(self, x):
        return x.permuted(self.auto.index_image)

    def apply_affine(self, x, level):
        return AffineElt(self.apply_loop(x.loop), x.c, x.d)

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

    def value(self, root):
        return sum(c * v for c, v in zip(root, self.phi))

    def apply_loop(self, x):
        out = {}
        for i, p in x.coords.items():
            if i < self.alg.rank:
                out[i] = p
            else:
                shift = self.value(self.alg.root_of_index[i])
                out[i] = p.shift(shift)
        return LoopElt(x.alg, x.m, out)

    def _central_correction(self, x):
        """phi(alpha_i) <X_{alpha_i}, X_{-alpha_i}> per degree-0 H line."""
        total = CycScalar.zero(x.m)
        for i in range(self.alg.rank):
            p = x.coords.get(i)
            if not p:
                continue
            coef = p.terms.get(0)
            if not coef:
                continue
            total = total + coef * (self.phi[i] * self.alg.simple_pairing(i))
        return total

    def x_phi(self, m):
        """The Cartan element with [X_phi, X_alpha] = phi(alpha) X_alpha."""
        n = self.alg.rank
        cartan = self.alg.datum.cartan
        mat = [{j: CycScalar(m, a) for j, a in enumerate(cartan[i]) if a}
               for i in range(n)]
        rhs = {i: CycScalar(m, v) for i, v in enumerate(self.phi) if v}
        sol = linalg.solve(mat, rhs, m)
        if sol is None:
            raise ValueError("no Cartan solution for phi")
        x = GElt(self.alg, m, sol)
        for idx, root in self.alg.root_of_index.items():
            expect = GElt.basis(self.alg, m, idx).scale(self.value(root))
            if x.bracket(GElt.basis(self.alg, m, idx)) != expect:
                raise ValueError("no Cartan solution for phi")
        return x

    def apply_affine(self, x, level):
        new_loop = self.apply_loop(x.loop)
        c = x.c + self._central_correction(x.loop)
        d = x.d
        if level == "hat" and x.d:
            xphi = LoopElt.from_g(self.x_phi(x.m), 0).scale(x.d)
            new_loop = new_loop - xphi
        return AffineElt(new_loop, c, d)

    def inverse(self):
        return Cochar(self.alg, tuple(-v for v in self.phi))

    def inverse_gens(self, level):
        if level != "hat":
            return (self.inverse(),)
        # hat lifts of phi and -phi compose to d -> d + a*c with
        # a = sum_i (X_phi)_i phi(alpha_i) <X_i, X_-i>; compensate exactly.
        xphi = self.x_phi(1)
        a = Fraction(0)
        for i in range(self.alg.rank):
            coef = xphi.coords.get(i)
            if not coef:
                continue
            a += coef.rational() * self.phi[i] * self.alg.simple_pairing(i)
        return (VShift(-a), self.inverse())

    def render(self):
        return f"cochar({','.join(str(v) for v in self.phi)})"


class TorusK(AutoGen):
    """Constant adjoint-torus point: X_alpha -> alpha(t) X_alpha.

    Coordinates are the values t_i = alpha_i(t) in k^x; fixes the Cartan
    part, c and d at every level.
    """

    def __init__(self, alg, coords):
        self.alg = alg
        self.coords = tuple(coords)
        if len(self.coords) != alg.rank:
            raise ValueError("one coordinate per simple root required")
        if any(not c for c in self.coords):
            raise ValueError("torus coordinates must be nonzero")

    def _eigen(self, root, m):
        out = CycScalar.one(m)
        for c, t in zip(root, self.coords):
            out = out * (t ** c)
        return out

    def apply_loop(self, x):
        out = {}
        for i, p in x.coords.items():
            if i < self.alg.rank:
                out[i] = p
            else:
                out[i] = p.scale(self._eigen(self.alg.root_of_index[i], x.m))
        return LoopElt(x.alg, x.m, out)

    def apply_affine(self, x, level):
        return AffineElt(self.apply_loop(x.loop), x.c, x.d)

    def inverse(self):
        return TorusK(self.alg, tuple(t.inverse() for t in self.coords))

    def render(self):
        return f"torus({','.join(t.render() for t in self.coords)})"


class Ring(AutoGen):
    """Base-ring automorphism s -> a*s (e=1) or s -> a*s^-1 (e=-1).

    The inverting form negates the grading: its lift sends c -> -c and
    d -> -d (forced by uniqueness of lifts through the central extension).
    """

    def __init__(self, a, e):
        if e not in (1, -1):
            raise ValueError("e must be +1 or -1")
        if not a:
            raise ValueError("ring scale must be nonzero")
        self.a = a
        self.e = e

    def apply_loop(self, x):
        return LoopElt(x.alg, x.m,
                       {i: p.substitute(self.a, invert=self.e == -1)
                        for i, p in x.coords.items()})

    def apply_affine(self, x, level):
        loop = self.apply_loop(x.loop)
        if self.e == 1:
            return AffineElt(loop, x.c, x.d)
        return AffineElt(loop, -x.c, -x.d)

    def inverse(self):
        if self.e == 1:
            return Ring(self.a.inverse(), 1)
        return Ring(self.a, -1)

    def render(self):
        return f"ring({self.a.render()},{'+1' if self.e == 1 else '-1'})"


class VShift(AutoGen):
    """Kernel generator: fixes the core pointwise, d -> d + a*c.

    The shift parameter may be an int, Fraction or CycScalar; numeric
    values are coerced at application time.
    """

    def __init__(self, a):
        self.a = a

    def apply_loop(self, x):
        return x

    def apply_affine(self, x, level):
        if level != "hat":
            raise ValueError("v-shift generators exist only at hat level")
        a = as_scalar(x.m, self.a)
        return AffineElt(x.loop, x.c + a * x.d, x.d)

    def inverse(self):
        return VShift(-self.a)

    def render(self):
        a = self.a.render() if isinstance(self.a, CycScalar) else str(self.a)
        return f"vshift({a})"


class AutoWord:
    """Composable sequence of generators at a fixed lift level."""

    __slots__ = ("level", "gens")

    def __init__(self, level, gens):
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}")
        if level != "hat" and any(isinstance(g, VShift) for g in gens):
            raise ValueError("v-shift generators exist only at hat level")
        self.level = level
        self.gens = tuple(gens)

    def apply(self, x):
        if self.level == "loop":
            if not isinstance(x, LoopElt):
                raise TypeError("loop-level words act on LoopElt")
            for gen in reversed(self.gens):
                x = gen.apply_loop(x)
            return x
        if not isinstance(x, AffineElt):
            raise TypeError("tilde/hat-level words act on AffineElt")
        if self.level == "tilde" and x.d:
            raise ValueError("tilde-level words act on elements with zero d-part")
        for gen in reversed(self.gens):
            x = gen.apply_affine(x, self.level)
        return x

    def __call__(self, x):
        return self.apply(x)

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


def project_word(word, level="loop"):
    """Image of a hat/tilde word at a lower level (v-shifts project away)."""
    gens = tuple(g for g in word.gens if not isinstance(g, VShift))
    return AutoWord(level, gens)


def v_auto(a):
    """The kernel automorphism fixing the core with d -> d + a*c."""
    return AutoWord("hat", (VShift(a),))


def verify_automorphism(word, sampler, samples):
    """Check phi([x,y]) = [phi(x), phi(y)] exactly on sampled pairs."""
    failures = []
    for _ in range(samples):
        x, y = sampler(), sampler()
        if word.level == "loop":
            lhs = word.apply(x.bracket(y))
            rhs = word.apply(x).bracket(word.apply(y))
        else:
            lhs = word.apply(bracket_affine(x, y))
            rhs = bracket_affine(word.apply(x), word.apply(y))
        if lhs != rhs:
            failures.append({
                "inputs": [x.render(), y.render()],
                "lhs": lhs.render(),
                "rhs": rhs.render(),
            })
    return {"checked": samples, "failures": failures}


def verify_exact_sequence(generators, loop_sampler, samples):
    """Mechanized identities behind 1 -> V -> Aut(hat) -> Aut(loop) -> 1.

    (i) section: projecting the hat lift of each generator back to loop
    level recovers the generator on sampled loop elements;
    (ii) kernel: composing with a v-shift is invisible at loop level;
    (iii) a hat word fixing sampled core elements agrees with the v_auto
    read off from its action on d.
    """
    failures = []
    checked = 0
    alg = None
    m = None
    for gen in generators:
        loop_word = AutoWord("loop", (gen,))
        hat_word = hat_lift(tilde_lift(loop_word))
        for _ in range(samples):
            x = loop_sampler()
            alg, m = x.alg, x.m
            checked += 1
            lifted = hat_word.apply(AffineElt(x))
            projected = lifted.loop
            direct = loop_word.apply(x)
            if projected != direct:
                failures.append({
                    "part": "section",
                    "generator": gen.render(),
                    "inputs": [x.render()],
                    "lhs": projected.render(),
                    "rhs": direct.render(),
                })
            shifted = hat_word.then(v_auto(CycScalar(m, 5)))
            with_v = shifted.apply(AffineElt(x)).loop
            checked += 1
            if with_v != direct:
                failures.append({
                    "part": "kernel",
                    "generator": gen.render(),
                    "inputs": [x.render()],
                    "lhs": with_v.render(),
                    "rhs": direct.render(),
                })
    # (iii) recover the shift parameter of a core-fixing word from d
    if alg is not None:
        for a in (0, 1, -3):
            w = v_auto(CycScalar(m, a))
            fixes_core = True
            for _ in range(samples):
                x = AffineElt(loop_sampler())
                checked += 1
                if w.apply(x) != x:
                    fixes_core = False
            d = AffineElt.d_elt(alg, m)
            recovered = w.apply(d).c
            if not fixes_core or recovered != CycScalar(m, a):
                failures.append({
                    "part": "kernel-recovery",
                    "inputs": [f"a={a}"],
                    "lhs": recovered.render(),
                    "rhs": str(a),
                })
    return {"checked": checked, "failures": failures}
