"""Exact-arithmetic construction and machine verification of split and
twisted affine Kac-Moody Lie algebras: Chevalley bases, loop and affine
brackets, automorphism generators with their lifts through the central
extension and derivation, windowed weight decompositions, and MAD
(maximal abelian diagonalizable subalgebra) checks.
"""

from .scalars import CycScalar, LaurentElt
from .rootsys import (ChevAlgebra, DiagramAuto, GElt, RootDatum,
                      build_chevalley, build_diagram_auto, cartan_of_fixed,
                      sigma_eigenspaces)
from .loop import LoopElt, TwistedContext, is_in_twisted
from .affine import (AffineElt, bracket_affine, core_and_derived,
                     invariant_form, verify_form_invariance)
from .autos import (AutoWord, Cochar, Diagram, NilExp, Ring, RootExp, TorusK,
                    VShift, hat_lift, tilde_lift, v_auto, verify_automorphism,
                    verify_exact_sequence)
from .spectral import (AdOperator, Window, WeightDecomp, weight_decompose,
                       verify_opposite, verify_product_rule, verify_shift,
                       verify_zero_weight, rspan_isomorphism_check)
from .mad import (SubalgebraSpec, centralizer, conjugacy_verify,
                  is_diagonalizable, mad_sanity, standard_mad)

__version__ = "0.1.0"
