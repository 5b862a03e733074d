"""Exact generating functions for partition diamonds.

Descent-statistic polynomials, closed-form diamond generating functions and
their infinite-product specializations, P-partition generating functions
over naturally labelled posets, and brute-force enumeration oracles that
independently confirm every identity. All arithmetic is exact.
"""

from .diamonds import (
    apr_product,
    djsw_product,
    schmidt_closed,
    schmidt_product,
    sigma_closed,
    sigma_multifold_closed,
    sigma_multifold_rational,
    sigma_rational,
)
from .oracle import (
    enumerate_diamonds,
    enumerate_infinite_univariate,
    enumerate_ppartitions,
    random_poset_corpus,
    schmidt_oracle,
)
from .permstat import (
    DTooLarge,
    ascent_set,
    descent_count,
    descent_set,
    djsw_recursion,
    euler_mahonian,
    eulerian,
    major_index,
)
from .poset import (
    CycleDetected,
    DiamondSpec,
    NotNaturallyLabelled,
    ParseError,
    Poset,
    PosetTooLarge,
    build_antichain,
    build_chain,
    build_diamond_poset,
    build_q_poset,
    jordan_holder,
    linear_sum,
    parse_poset_file,
    stanley_sigma,
)
from .series import (
    Monomial2,
    NonExactDivision,
    NonInvertibleFactor,
    Poly2,
    RationalExpr,
    TruncationMismatch,
    TruncSeries2,
    geometric_series,
)
from .verify import VerifyReport, verify_theorem1

__version__ = "0.1.0"

__all__ = [
    "Monomial2",
    "Poly2",
    "TruncSeries2",
    "RationalExpr",
    "NonExactDivision",
    "NonInvertibleFactor",
    "TruncationMismatch",
    "geometric_series",
    "descent_set",
    "ascent_set",
    "descent_count",
    "major_index",
    "euler_mahonian",
    "eulerian",
    "djsw_recursion",
    "verify_theorem1",
    "VerifyReport",
    "DTooLarge",
    "Poset",
    "DiamondSpec",
    "PosetTooLarge",
    "ParseError",
    "NotNaturallyLabelled",
    "CycleDetected",
    "build_chain",
    "build_antichain",
    "build_q_poset",
    "build_diamond_poset",
    "linear_sum",
    "jordan_holder",
    "stanley_sigma",
    "parse_poset_file",
    "enumerate_ppartitions",
    "enumerate_diamonds",
    "enumerate_infinite_univariate",
    "schmidt_oracle",
    "random_poset_corpus",
    "sigma_closed",
    "sigma_rational",
    "sigma_multifold_closed",
    "sigma_multifold_rational",
    "schmidt_closed",
    "schmidt_product",
    "apr_product",
    "djsw_product",
]
