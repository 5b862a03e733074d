"""Exact generating functions for partition diamonds.

Descent-statistic polynomials, closed-form diamond generating functions and
their infinite-product specializations, P-partition generating functions
over naturally labelled posets, and brute-force enumeration oracles that
independently confirm every identity. All arithmetic is exact.
"""

from .budget import TooLarge
from .diamonds import (
    apr_product,
    djsw_product,
    schmidt_closed,
    schmidt_product,
    sigma_closed,
    sigma_multifold_closed,
    sigma_multifold_rational,
    sigma_rational,
    sigma_univariate,
)
from .oracle import (
    enumerate_diamonds,
    enumerate_infinite_univariate,
    enumerate_ppartitions,
    random_poset_corpus,
    schmidt_oracle,
)
from .permstat import (
    djsw_recursion,
    euler_mahonian,
    eulerian,
)
from .poset import (
    CycleDetected,
    DiamondSpec,
    NotNaturallyLabelled,
    ParseError,
    Poset,
    build_diamond_poset,
    jordan_holder,
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
    "euler_mahonian",
    "eulerian",
    "djsw_recursion",
    "verify_theorem1",
    "VerifyReport",
    "TooLarge",
    "Poset",
    "DiamondSpec",
    "ParseError",
    "NotNaturallyLabelled",
    "CycleDetected",
    "build_diamond_poset",
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
    "sigma_univariate",
    "schmidt_closed",
    "schmidt_product",
    "apr_product",
    "djsw_product",
]
