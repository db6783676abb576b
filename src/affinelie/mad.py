"""Diagonalizable-subalgebra machinery: the standard candidate, MAD
predicates, centralizers and conjugacy certification.

Maximality is probed at window scale: the probe searches the interior for a
commuting, diagonalizable enlargement outside the span, mirroring the
constructive step of the dimension bound.  True maximality quantifies over
an infinite-dimensional space and is not decided here.  Conjugacy is
certified for a given word, never searched.
"""

from __future__ import annotations

from . import linalg
from .loop import LoopElt
from .affine import AffineElt, bracket_affine
from .spectral import AdOperator, weight_decompose


class SubalgebraSpec:
    """Abelian subalgebra given by generators (abelian-ness is enforced)."""

    __slots__ = ("generators",)

    def __init__(self, generators):
        generators = list(generators)
        if not generators:
            raise ValueError("a subalgebra needs at least one generator")
        for i, x in enumerate(generators):
            for y in generators[i:]:
                if not bracket_affine(x, y).is_zero():
                    raise ValueError(
                        f"generators do not commute: [{x.render()}, {y.render()}] != 0"
                    )
        self.generators = generators

    @property
    def alg(self):
        return self.generators[0].alg

    @property
    def m(self):
        return self.generators[0].m

    def dim(self, window):
        return self.span_solver(window).rank

    def span_solver(self, window):
        solver = linalg.SpanSolver(self.m)
        for g in self.generators:
            vec = window.to_vector(g)
            if vec is None:
                raise ValueError("generator does not fit in the window")
            solver.add(vec)
        return solver


def standard_mad(auto):
    """The reference MAD: degree-zero Cartan part of the fixed algebra
    plus the center and the derivation."""
    from .rootsys import cartan_of_fixed
    alg, m = auto.alg, auto.m
    h0, _ = cartan_of_fixed(auto)
    gens = [AffineElt(LoopElt.from_g(h, 0)) for h in h0]
    gens.append(AffineElt.c_elt(alg, m))
    gens.append(AffineElt.d_elt(alg, m))
    return SubalgebraSpec(gens)


def is_diagonalizable(spec, window):
    """Simultaneous exact diagonalizability of the family over Q(zeta_m).

    Returns (flag, witness): on success the witness is the joint eigenbasis
    as (weight-tuple, vectors) pairs; on failure it names a defective
    generator.
    """
    ops = AdOperator.family(spec.generators, window)
    if not ops[0].interior:
        raise ValueError("window too small: empty joint interior")
    spaces, defect = linalg.joint_eigenspaces(
        [op.rows(square=True) for op in ops], window.m)
    if defect is not None:
        return False, {"defective_generator": spec.generators[defect].render()}
    eigen = [(weights, [AdOperator.joint_lift(ops, coeffs, weights)
                        for coeffs in basis])
             for weights, basis in spaces]
    return True, {"eigenbasis": eigen}


def maximality_probe(spec, window, diag=None):
    """Search the interior for a diagonalizable commuting enlargement.

    Mirrors the constructive step of the dimension bound: any loop-level
    interior vector of joint weight zero outside the span whose restricted
    ad-action is diagonalizable enlarges the subalgebra.  `diag` is the
    result of `is_diagonalizable(spec, window)` when the caller already
    has it.  Returns the witness or None.
    """
    flag, data = diag if diag is not None else is_diagonalizable(spec, window)
    if not flag:
        raise ValueError("maximality probe requires a diagonalizable input")
    span = spec.span_solver(window)
    zero_weight = None
    for weights, vectors in data["eigenbasis"]:
        if all(not w for w in weights):
            zero_weight = vectors
            break
    if zero_weight is None:
        return None
    for v in zero_weight:
        if v.d or not v.loop:
            continue
        candidate = AffineElt(v.loop)
        vec = window.to_vector(candidate)
        if span.contains(vec):
            continue
        # weight zero makes the candidate commute with the family; verify
        # exactly, then test that its own ad-action diagonalizes
        if any(bracket_affine(g, candidate) for g in spec.generators):
            continue
        dec = weight_decompose(candidate, window)
        if dec.complete:
            return candidate
    return None


def mad_sanity(spec, window, diag=None):
    """The structural MAD requirements, checked exactly at window scale:
    center membership, a generator leaving the core, dimension >= 3, and
    failure of the interior enlargement probe.  `diag` is passed on to
    `maximality_probe`."""
    alg, m = spec.alg, spec.m
    checks = {}
    c_vec = window.to_vector(AffineElt.c_elt(alg, m))
    checks["contains_center"] = spec.span_solver(window).contains(c_vec)
    checks["leaves_core"] = any(bool(g.d) for g in spec.generators)
    dim = spec.dim(window)
    checks["dim"] = dim
    checks["dim_at_least_3"] = dim >= 3
    witness = maximality_probe(spec, window, diag)
    checks["probe_enlargement"] = witness.render() if witness is not None else None
    checks["window_maximal"] = witness is None
    passed = (checks["contains_center"] and checks["leaves_core"]
              and checks["dim_at_least_3"] and checks["window_maximal"])
    return {
        "checked": 4,
        "failures": [] if passed else [
            {"inputs": [g.render() for g in spec.generators],
             "lhs": {k: v for k, v in checks.items()},
             "rhs": "MAD requirements"}
        ],
        "checks": checks,
    }


def centralizer(loop_generators, window):
    """Basis of the loop-level centralizer of a diagonalizable family.

    Exact joint kernel of the interior ad-matrices; equals the zero piece
    of the joint weight decomposition.
    """
    gens = [AffineElt(g) if isinstance(g, LoopElt) else g for g in loop_generators]
    ops = AdOperator.family(gens, window, loop_only=True)
    if not ops[0].interior:
        return []
    stacked = [row for op in ops for row in op.rows()]
    return [AdOperator.joint_lift(ops, coeffs, [0] * len(ops)).loop
            for coeffs in linalg.kernel_basis(stacked, len(ops[0].interior),
                                              window.m)]


def conjugacy_verify(word, spec, window):
    """Certify that `word` carries `spec` exactly onto the standard MAD.

    Applies the word to every generator and checks mutual span membership
    against the standard subalgebra inside the window.
    """
    if word.level != "hat":
        raise ValueError("conjugacy certificates use hat-level words")
    reference = standard_mad(window.auto)
    ref_solver = reference.span_solver(window)
    images = [word.apply(g) for g in spec.generators]
    failures = []
    checked = 0
    img_solver = linalg.SpanSolver(window.m)
    for g, img in zip(spec.generators, images):
        checked += 1
        vec = window.to_vector(img)
        if vec is None:
            failures.append({
                "inputs": [g.render()],
                "lhs": img.render(),
                "rhs": "image leaves the window",
            })
            continue
        img_solver.add(vec)
        if not ref_solver.contains(vec):
            failures.append({
                "inputs": [g.render()],
                "lhs": img.render(),
                "rhs": "not in the standard subalgebra",
            })
    for g in reference.generators:
        checked += 1
        vec = window.to_vector(g)
        if not img_solver.contains(vec):
            failures.append({
                "inputs": [g.render()],
                "lhs": "standard generator",
                "rhs": "not in the image span",
            })
    return {"checked": checked, "failures": failures}
