"""Arithmetic invariants of quaternionic modular curves over F_q(T).

The library computes, from an even set of finite places of the rational
function field: the genus of the attached modular curve, supersingular
point-count lower bounds, Atkin-Lehner fixed-point numbers via optimal
embedding counts, and the resulting hyperellipticity classification.
"""

from .gf import (
    ENUMERATION_BOUND,
    BoundExceededError,
    ExtensionField,
    FiniteField,
    PrimeField,
    extend_field,
    is_prime,
    make_field,
)
from .polyring import (
    Place,
    Poly,
    is_irreducible,
    is_squarefree,
    iter_monic_irreducibles,
    monic_irreducibles,
    parse_poly,
    poly_gcd,
    residue_symbol,
)
from .curves import (
    ClassNumberCache,
    QuadOrderInfo,
    class_number,
    is_imaginary,
    jacobian_order,
    l_polynomial,
    point_count,
    predicted_point_count,
    quadratic_order_info,
)
from .shimura import (
    ClassificationReport,
    InvolutionKey,
    RamSet,
    aut_equals_atkin_lehner,
    candidate_degree_multisets,
    classify,
    classify_all,
    embedding_count,
    finiteness_bound_holds,
    finiteness_sweep,
    fixed_point_count,
    genus,
    iter_ramsets,
    minimal_place_outside,
    odd_parity,
    supersingular_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ENUMERATION_BOUND",
    "BoundExceededError",
    "ClassNumberCache",
    "ClassificationReport",
    "ExtensionField",
    "FiniteField",
    "InvolutionKey",
    "Place",
    "Poly",
    "PrimeField",
    "QuadOrderInfo",
    "RamSet",
    "aut_equals_atkin_lehner",
    "candidate_degree_multisets",
    "class_number",
    "classify",
    "classify_all",
    "embedding_count",
    "extend_field",
    "finiteness_bound_holds",
    "finiteness_sweep",
    "fixed_point_count",
    "genus",
    "is_imaginary",
    "is_irreducible",
    "is_prime",
    "is_squarefree",
    "iter_monic_irreducibles",
    "iter_ramsets",
    "jacobian_order",
    "l_polynomial",
    "make_field",
    "minimal_place_outside",
    "monic_irreducibles",
    "odd_parity",
    "parse_poly",
    "point_count",
    "poly_gcd",
    "predicted_point_count",
    "quadratic_order_info",
    "residue_symbol",
    "supersingular_lower_bound",
]
