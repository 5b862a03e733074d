"""Closed-form generating functions for partition diamonds.

``sigma_closed`` and ``sigma_multifold_closed`` expand the bivariate
rational forms whose numerators are substituted descent polynomials;
``schmidt_closed`` is the links-only weighting (first variable set to 1);
``apr_product`` and ``djsw_product`` are the classical infinite products,
truncated by keeping the factors n = 1..T, which is exact because every
dropped factor is 1 + O(q^{T+1}).

The sigma forms and ``djsw_product`` take E_d from the recurrence
``djsw_recursion``; only the links-only forms enumerate (``eulerian``).
E_d depends on d alone, so this module runs the recurrence at most once per
d in a process and shares the result (``_descent_polynomial``); the
recurrence itself stores nothing, so ``verify theorem1`` still compares a
fresh run with the enumeration.

Numerator substitution always happens at the polynomial level. For series
output the substituted factors are multiplied with a total-degree bound,
which drops only terms that could never reach a retained coefficient; the
``*_rational`` builders keep the numerator product exact for desk-scale
parameters.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional

from .permstat import MAX_ENUM_D, djsw_recursion, eulerian
from .poset import DiamondSpec
from .series import Monomial2, Poly2, RationalExpr, TruncSeries2


def _product(factors: Iterable[Poly2], bound: Optional[int] = None) -> Poly2:
    """The exact product, or with a bound only its terms of total degree
    <= bound."""
    result = Poly2.one()
    for factor in factors:
        result = result * factor if bound is None else result.mul_bounded(factor, bound)
    return result


def _univariate(
    numerator_factors: Iterable[Poly2], denominator_exponents: Iterable[int], truncation: int
) -> list[int]:
    """Coefficients of q^0..q^T of prod(numerator factors) / prod_e (1 - q^e),
    with every factor a polynomial in the second variable alone."""
    numerator = _product(numerator_factors, truncation)
    factors = tuple(Monomial2(0, e) for e in denominator_exponents)
    return RationalExpr(numerator, factors).expand(truncation).specialize_univariate()


def _check_dm(d: int, length: int) -> None:
    if d < 1:
        raise ValueError("d must be at least 1")
    if length < 1:
        raise ValueError("length must be at least 1")


@functools.cache
def _descent_polynomial(d: int) -> Poly2:
    """E_d for the closed forms: ``djsw_recursion(d)``, run at most once per
    d in a process. Callers share the result and must not mutate it."""
    return djsw_recursion(d)


def _sigma_numerator_factors(d: int, length: int) -> list[Poly2]:
    em = _descent_polynomial(d)
    return [
        em.substitute(Monomial2((n - 1) * d, n), Monomial2(1, 0))
        for n in range(1, length + 1)
    ]


def _sigma_denominator(d: int, length: int) -> list[Monomial2]:
    factors = [Monomial2(length * d, length + 1)]
    factors.extend(
        Monomial2(n * d - j, n) for n in range(1, length + 1) for j in range(d + 1)
    )
    return factors


def sigma_rational(d: int, length: int) -> RationalExpr:
    """The exact rational form of the length-M diamond generating function:

        prod_{n=1..M} E_d(a^{(n-1)d} b^n, a)
        -------------------------------------------------------
        (1 - a^{Md} b^{M+1}) prod_{n=1..M} prod_{j=0..d} (1 - a^{nd-j} b^n)

    where E_d is the bivariate descent polynomial. The numerator product is
    expanded exactly, so keep M at desk scale here; use ``sigma_closed``
    for large truncated expansions.
    """
    _check_dm(d, length)
    numerator = _product(_sigma_numerator_factors(d, length))
    return RationalExpr(numerator, tuple(_sigma_denominator(d, length)))


def sigma_closed(d: int, length: int, truncation: int) -> TruncSeries2:
    """The diamond generating function expanded through total degree T.

    Coefficient of a^i b^j counts length-M d-fold diamonds with fold sum i
    and link sum j.
    """
    _check_dm(d, length)
    numerator = _product(_sigma_numerator_factors(d, length), truncation)
    return RationalExpr(numerator, tuple(_sigma_denominator(d, length))).expand(truncation)


def _multifold_numerator_factors(spec: DiamondSpec) -> list[Poly2]:
    length = spec.length
    descent_polys = {d: _descent_polynomial(d) for d in set(spec.folds)}
    return [
        descent_polys[spec.folds[k - 1]].substitute(
            Monomial2(spec.omega(k), length - k + 1), Monomial2(1, 0)
        )
        for k in range(1, length + 1)
    ]


def _multifold_denominator(spec: DiamondSpec) -> list[Monomial2]:
    length = spec.length
    factors = [Monomial2(spec.omega(0), length + 1)]
    for k in range(1, length + 1):
        d_k = spec.folds[k - 1]
        factors.extend(
            Monomial2(spec.omega(k) + d_k - j, length - k + 1) for j in range(d_k + 1)
        )
    return factors


def sigma_multifold_rational(spec: DiamondSpec) -> RationalExpr:
    """Exact rational form for a diamond whose block k has d_k folds:

        prod_{k=1..M} E_{d_k}(a^{w_k} b^{M-k+1}, a)
        ----------------------------------------------------------------
        (1 - a^{w_0} b^{M+1}) prod_{k=1..M} prod_{j=0..d_k}
                                    (1 - a^{w_k + d_k - j} b^{M-k+1})

    with w_k the number of folds strictly above block k.
    """
    numerator = _product(_multifold_numerator_factors(spec))
    return RationalExpr(numerator, tuple(_multifold_denominator(spec)))


def sigma_multifold_closed(spec: DiamondSpec, truncation: int) -> TruncSeries2:
    """The multifold diamond generating function expanded through total
    degree T. On a uniform fold sequence this agrees with ``sigma_closed``
    factor for factor."""
    numerator = _product(_multifold_numerator_factors(spec), truncation)
    return RationalExpr(numerator, tuple(_multifold_denominator(spec))).expand(truncation)


def schmidt_closed(
    d: int, length: int, truncation: int, max_d: int = MAX_ENUM_D
) -> list[int]:
    """Length-M diamonds counted by link sum only.

    This is the first variable of ``sigma_closed`` set to 1 before
    expansion: numerator prod_n E_d(q^n, 1), denominator
    (1 - q^{M+1}) prod_n (1 - q^n)^{d+1}.
    """
    _check_dm(d, length)
    descent_poly = eulerian(d, max_d)
    return _univariate(
        (descent_poly.substitute(Monomial2(0, n), Monomial2(0, 0)) for n in range(1, length + 1)),
        [length + 1, *(n for n in range(1, length + 1) for _ in range(d + 1))],
        truncation,
    )


def schmidt_product(d: int, truncation: int, max_d: int = MAX_ENUM_D) -> list[int]:
    """The infinite links-only product prod_{n>=1} E_d(q^n, 1)/(1-q^n)^{d+1},
    truncated by keeping factors n = 1..T."""
    if d < 1:
        raise ValueError("d must be at least 1")
    descent_poly = eulerian(d, max_d)
    return _univariate(
        (
            descent_poly.substitute(Monomial2(0, n), Monomial2(0, 0))
            for n in range(1, truncation + 1)
        ),
        (n for n in range(1, truncation + 1) for _ in range(d + 1)),
        truncation,
    )


def apr_product(truncation: int) -> list[int]:
    """The plane partition diamond product prod_{n>=1} (1 + q^{3n-1})/(1 - q^n),
    truncated by keeping factors n = 1..T."""
    return _univariate(
        (
            Poly2({Monomial2(0, 0): 1, Monomial2(0, 3 * n - 1): 1})
            for n in range(1, truncation + 1)
        ),
        range(1, truncation + 1),
        truncation,
    )


def djsw_product(d: int, truncation: int, *, base: Optional[Poly2] = None) -> list[int]:
    """The d-fold diamond product prod_{n>=1} F_d(q^{(n-1)(d+1)+1}, q)/(1-q^n),
    truncated by keeping factors n = 1..T.

    F_d comes from the recurrence unless ``base`` supplies the descent
    polynomial, such as the enumerated E_d, which must give the same
    coefficients.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    base = _descent_polynomial(d) if base is None else base
    return _univariate(
        (
            base.substitute(Monomial2(0, (n - 1) * (d + 1) + 1), Monomial2(0, 1))
            for n in range(1, truncation + 1)
        ),
        range(1, truncation + 1),
        truncation,
    )
