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
from .scalars import render_flat
from .affine import AffineElt, bracket_affine, flat, unflat
from .report import Report
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

    def span_solver(self, window):
        solver = linalg.SpanSolver()
        for g in self.generators:
            vec = window.to_vector(flat(g))
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
    gens = [unflat(alg, m, ({(k, 0): v for k, v in h.items()}, None, None))
            for h in h0]
    gens.append(AffineElt.c_elt(alg, m))
    gens.append(AffineElt.d_elt(alg, m))
    return SubalgebraSpec(gens)


def is_diagonalizable(spec, window):
    """Simultaneous exact diagonalizability of the family over Q(zeta_m).

    Returns (flag, witness): on success the witness is the joint eigenbasis
    as (tuple of weight pairs, flat forms) pairs; on failure it names a
    defective generator.  Every operator hands over its window rows
    outside the joint interior too, so a joint eigenvector must also
    vanish there.
    """
    ops = AdOperator.family([flat(g) for g in spec.generators], window)
    if not ops[0].interior:
        raise ValueError("window too small: empty joint interior")
    spaces, defect = linalg.joint_eigenspaces(
        [op.rows() for op in ops], len(ops[0].interior))
    if defect is not None:
        return False, {"defective_generator": spec.generators[defect].render()}
    eigen = []
    for weights, basis in spaces:
        eigen.append((weights, [AdOperator.joint_lift(ops, coeffs, weights)
                                for coeffs in basis]))
    return True, {"eigenbasis": eigen}


def maximality_probe(spec, window, span):
    """Search the interior for a diagonalizable commuting enlargement.

    Mirrors the constructive step of the dimension bound: any loop-level
    interior vector of joint weight zero outside the span (`span`, the
    spec's span solver on the window) whose restricted ad-action is
    diagonalizable enlarges the subalgebra.  Diagonalizes the family first
    (ValueError if it is not).  Returns the witness's flat form or None.
    """
    flag, data = is_diagonalizable(spec, window)
    if not flag:
        raise ValueError("maximality probe requires a diagonalizable input")
    zero_weight = None
    for weights, vectors in data["eigenbasis"]:
        if all(not (a or b) for a, b in weights):
            zero_weight = vectors
            break
    if zero_weight is None:
        return None
    for terms, _, d in zero_weight:
        f = (terms, None, None)  # v less its central c-part
        if d or not terms or span.contains(window.to_vector(f)):
            continue
        # the joint lift verified [g, v] = 0 for every g: does f diagonalize?
        if weight_decompose(f, window).complete:
            return f
    return None


def mad_sanity(spec, window, span):
    """The five structural MAD requirements, checked exactly at window
    scale: diagonalizability (the probe's own), center membership, a
    generator leaving the core, dimension >= 3, and failure of the
    interior enlargement probe.  `span` is the spec's span solver on the
    window."""
    checks = {}
    c_vec = window.to_vector(window.flats[window.c_slot])
    checks["contains_center"] = span.contains(c_vec)
    checks["leaves_core"] = any(bool(g.d) for g in spec.generators)
    dim = span.rank
    checks["dim"] = dim
    checks["dim_at_least_3"] = dim >= 3
    witness = maximality_probe(spec, window, span)
    checks["probe_enlargement"] = (None if witness is None else render_flat(
        window.alg.labels, window.m, witness))
    checks["window_maximal"] = witness is None
    rep = Report(5)
    if not (checks["contains_center"] and checks["leaves_core"]
            and checks["dim_at_least_3"] and checks["window_maximal"]):
        rep.fail([g.render() for g in spec.generators], dict(checks),
                 "MAD requirements")
    rep["checks"] = checks
    return rep


def centralizer(loop_generators, window):
    """Basis of the loop-level centralizer of a diagonalizable family.

    Exact joint kernel of the interior ad-matrices; equals the zero piece
    of the joint weight decomposition.
    """
    ops = AdOperator.family([flat(g) for g in loop_generators], window,
                            loop_only=True)
    if not ops[0].interior:
        return []
    stacked = [row for op in ops for row in op.rows()]
    return [unflat(window.alg, window.m,
                   AdOperator.joint_lift(ops, coeffs, [(0, 0)] * len(ops))).loop
            for coeffs in linalg.kernel_basis(stacked, len(ops[0].interior))]


def conjugacy_verify(word, spec, window, reference, span):
    """Certify that `word` carries `spec` exactly onto `reference`, the
    standard MAD, whose span solver on the window is `span`.

    Applies the word to every generator and checks mutual span membership
    against the standard subalgebra inside the window.
    """
    if word.level != "hat":
        raise ValueError("conjugacy certificates use hat-level words")
    images = [word.apply(g) for g in spec.generators]
    rep = Report()
    img_solver = linalg.SpanSolver()
    for g, img in zip(spec.generators, images):
        vec = window.to_vector(flat(img))
        if not rep.check(vec is not None):
            rep.fail([g.render()], img.render(), "image leaves the window")
            continue
        img_solver.add(vec)
        if not span.contains(vec):
            rep.fail([g.render()], img.render(),
                     "not in the standard subalgebra")
    for g in reference.generators:
        if not rep.check(img_solver.contains(window.to_vector(flat(g)))):
            rep.fail([g.render()], "standard generator",
                     "not in the image span")
    return rep
