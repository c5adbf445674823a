"""Exact symbolic kernel for conformal endomorphism algebras.

Polynomial symbols over exact rationals, substitution products and brackets,
normal forms of polynomial matrices, and the decision procedures built on
them (ideals, isomorphism, anti-involutions, subalgebra classification).
"""

from .cend import (
    AntiInvSpec,
    CendElem,
    LambdaSeries,
    apply_antiinv,
    lambda_product,
    lie_bracket,
    modvec,
    standard_action,
    verify_assoc_axioms,
    verify_lie_axioms,
    verify_module_axioms,
)
from .cend1 import ClosureState, SubalgDescriptor, classify, closure, irreducible_on_standard
from .gclie import (
    ConfBilinearForm,
    OcSpcGen,
    check_anti_fixed,
    invariance_check,
    irreducibility_probe,
    make_oc_spc_generators,
)
from .grammar import ParseError, format_poly, format_upoly, parse_poly
from .poly import MPoly, UPoly, bipoly_gcd, upoly_gcd
from .polymat import (
    PolyMat,
    SmithCert,
    det,
    hermite_left_generator,
    inverse_unimodular,
    is_unimodular,
    smith_form,
    star,
)
from .structure import (
    ExtensionModule,
    IdealReport,
    IsoDecision,
    anti_automorphism_exists,
    anti_involution_search,
    build_extension,
    decide_isomorphism,
    left_ideal_generator,
    right_ideal_generator,
    unital_closure_probe,
)

__version__ = "0.1.0"
