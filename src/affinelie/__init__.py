"""Exact-arithmetic construction and machine verification of split and
twisted affine Kac-Moody Lie algebras: Chevalley bases, loop and affine
brackets, automorphism generators with their lifts through the central
extension and derivation, windowed weight decompositions, and MAD
(maximal abelian diagonalizable subalgebra) checks.
"""

__version__ = "0.1.0"
