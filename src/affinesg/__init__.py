"""Numerical semigroups closed under an affine map x -> a*x + b.

Given a multiplier a, an offset b and a seed c (with gcd(b, c) = 1), this
package computes the smallest numerical semigroup containing c whose
nonzero elements are closed under the map: minimal generators, embedding
dimension, Apery set, Frobenius number, genus, gaps, and O(log_a c)
membership.  A brute-force fixpoint oracle cross-checks every closed form.
"""

__version__ = "0.1.0"

from .core import (
    InvalidParamsError,
    NotReducedError,
    OverflowLimitError,
    Params,
    ReducedVector,
    ReductionStep,
    ReductionTrace,
    affine_image,
    bit_limit,
    compare,
    decompose,
    geometric_sum,
    orbit_term,
    reduce_coefficients,
)
from .oracle import (
    BoundTooSmallError,
    OracleSemigroup,
    build_oracle,
    check_agreement,
    default_bound,
    oracle_apery,
    oracle_frobenius,
    oracle_minimal_generators,
    representable,
)
from .semigroup import (
    DEFAULT_GAPS_CAP,
    GapsCapError,
    SemigroupProfile,
    apery_element,
    apery_set,
    contains,
    frobenius,
    gaps,
    genus,
    k_tilde,
    members_below,
    minimal_generators,
    profile,
)

__all__ = [
    "__version__",
    "InvalidParamsError",
    "NotReducedError",
    "OverflowLimitError",
    "Params",
    "ReducedVector",
    "ReductionStep",
    "ReductionTrace",
    "affine_image",
    "bit_limit",
    "compare",
    "decompose",
    "geometric_sum",
    "orbit_term",
    "reduce_coefficients",
    "BoundTooSmallError",
    "OracleSemigroup",
    "build_oracle",
    "check_agreement",
    "default_bound",
    "oracle_apery",
    "oracle_frobenius",
    "oracle_minimal_generators",
    "representable",
    "DEFAULT_GAPS_CAP",
    "GapsCapError",
    "SemigroupProfile",
    "apery_element",
    "apery_set",
    "contains",
    "frobenius",
    "gaps",
    "genus",
    "k_tilde",
    "members_below",
    "minimal_generators",
    "profile",
]
