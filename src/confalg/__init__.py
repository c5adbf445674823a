"""Exact symbolic kernel for conformal endomorphism algebras.

Polynomial symbols over exact rationals, substitution products and brackets,
normal forms of polynomial matrices, and the decision procedures built on
them (ideals, isomorphism, anti-involutions, subalgebra classification).
"""
