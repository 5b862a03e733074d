"""Closed-form generating functions for partition diamonds.

``sigma_closed`` and ``sigma_multifold_closed`` expand the bivariate
rational forms whose numerators are substituted descent polynomials;
``schmidt_closed`` is the links-only weighting (first variable set to 1);
``apr_product`` and ``djsw_product`` are the classical infinite products,
truncated by keeping the denominator factors n = 1..T and the numerator
factors that can reach q^T, which is exact because every dropped factor is
1 + O(q^{T+1}).

The sigma forms and ``djsw_product`` take E_d from the recurrence
``djsw_recursion``; only the links-only forms enumerate (``eulerian``).
E_d depends on d alone, so this module runs the recurrence at most once per
d in a process and shares the result (``_descent_polynomial``); the
recurrence itself stores nothing, so ``verify theorem1`` still compares a
fresh run with the enumeration.

For series output every numerator factor is built with the truncation as
its bound: ``Poly2.substitute`` writes no image term of total degree above
T, the factors are multiplied with the same bound, and a factor that is the
constant 1 is skipped. Where the images' degrees grow along the factor
list, the list stops at the first factor that would be 1 + O(degree > T),
a cut read from the factor's own terms (``_substituted``). The
``*_rational`` builders substitute and multiply exactly, for desk-scale
parameters. ``sigma_univariate`` sets a = b = q before expanding: its
factors are univariate, so it never builds the bivariate triangle that
``sigma_multifold_closed(...).specialize_univariate()`` expands.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Optional

from .permstat import MAX_ENUM_D, djsw_recursion, eulerian
from .poset import DiamondSpec
from .series import Monomial2, Poly2, RationalExpr, TruncSeries2


def _product(factors: Iterable[Poly2], bound: Optional[int] = None) -> Poly2:
    """The exact product, or with a bound only its terms of total degree
    <= bound, skipping every factor that is the constant 1."""
    result = Poly2.one()
    for factor in factors:
        if bound is None:
            result = result * factor
        elif factor != 1:
            result = result.mul_bounded(factor, bound)
    return result


def _substituted(
    base: Poly2, images: Iterable[tuple[Monomial2, Monomial2]], bound: Optional[int] = None
) -> Iterator[Poly2]:
    """``base.substitute(x_image, y_image, bound)`` for each pair of images.

    With a bound, the images' degrees must not fall along the pairs. The
    factors then end before the first pair that sends every term of base
    but a constant 1 past the bound: that factor, and every later one, is
    1 + O(degree > bound). The cut reads base's own terms, not the shape
    of E_d, so a base with a term in y alone keeps every factor, and a
    cancellation inside one factor ends nothing early.
    """
    lowest: dict[int, int] = {}  # per power of x, the lowest power of y off the constant
    for i, j in base.terms:
        if i or j:
            lowest[i] = min(j, lowest.get(i, j))
    cuts = bound is not None and base.coefficient(0, 0) == 1
    for x_image, y_image in images:
        if cuts and all(i * x_image.degree + j * y_image.degree > bound for i, j in lowest.items()):
            return
        yield base.substitute(x_image, y_image, bound)


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


def _sigma_numerator_factors(d: int, length: int, bound: Optional[int] = None) -> Iterator[Poly2]:
    images = ((Monomial2((n - 1) * d, n), Monomial2(1, 0)) for n in range(1, length + 1))
    return _substituted(_descent_polynomial(d), images, bound)


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
    numerator = _product(_sigma_numerator_factors(d, length, truncation), truncation)
    return RationalExpr(numerator, tuple(_sigma_denominator(d, length))).expand(truncation)


def _multifold_numerator_factors(spec: DiamondSpec, bound: Optional[int] = None) -> list[Poly2]:
    length = spec.length
    return [
        _descent_polynomial(spec.folds[k - 1]).substitute(
            Monomial2(spec.omega(k), length - k + 1), Monomial2(1, 0), bound
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
    numerator = _product(_multifold_numerator_factors(spec, truncation), truncation)
    return RationalExpr(numerator, tuple(_multifold_denominator(spec))).expand(truncation)


def sigma_univariate(spec: DiamondSpec, truncation: int) -> list[int]:
    """The multifold diamond generating function with a = b = q: the
    coefficients of q^0..q^T of

        prod_{k=1..M} E_{d_k}(q^{w_k+M-k+1}, q)
        ---------------------------------------------------------------
        (1 - q^{w_0+M+1}) prod_{k=1..M} prod_{j=0..d_k} (1 - q^{w_k+d_k-j+M-k+1})

    The variables meet before anything is expanded, so this equals
    ``sigma_multifold_closed(spec, T).specialize_univariate()`` at the cost
    of univariate series.
    """
    length, omega = spec.length, spec.omega
    blocks = list(enumerate(spec.folds, 1))
    return _univariate(
        (
            _descent_polynomial(d_k).substitute(
                Monomial2(0, omega(k) + length - k + 1), Monomial2(0, 1), truncation
            )
            for k, d_k in blocks
        ),
        [
            omega(0) + length + 1,
            *(omega(k) + d_k - j + length - k + 1 for k, d_k in blocks for j in range(d_k + 1)),
        ],
        truncation,
    )


def schmidt_closed(
    d: int, length: int, truncation: int, max_d: int = MAX_ENUM_D
) -> list[int]:
    """Length-M diamonds counted by link sum only.

    This is the first variable of ``sigma_closed`` set to 1 before
    expansion: numerator prod_n E_d(q^n, 1), denominator
    (1 - q^{M+1}) prod_n (1 - q^n)^{d+1}.
    """
    _check_dm(d, length)
    images = ((Monomial2(0, n), Monomial2(0, 0)) for n in range(1, length + 1))
    return _univariate(
        _substituted(eulerian(d, max_d), images, truncation),
        [length + 1, *(n for n in range(1, length + 1) for _ in range(d + 1))],
        truncation,
    )


def schmidt_product(d: int, truncation: int, max_d: int = MAX_ENUM_D) -> list[int]:
    """The infinite links-only product prod_{n>=1} E_d(q^n, 1)/(1-q^n)^{d+1},
    truncated by keeping factors n = 1..T."""
    if d < 1:
        raise ValueError("d must be at least 1")
    images = ((Monomial2(0, n), Monomial2(0, 0)) for n in range(1, truncation + 1))
    return _univariate(
        _substituted(eulerian(d, max_d), images, truncation),
        (n for n in range(1, truncation + 1) for _ in range(d + 1)),
        truncation,
    )


def apr_product(truncation: int) -> list[int]:
    """The plane partition diamond product prod_{n>=1} (1 + q^{3n-1})/(1 - q^n),
    truncated by keeping the denominator factors n = 1..T and the numerator
    factors with 3n - 1 <= T."""
    return _univariate(
        (
            Poly2({Monomial2(0, 0): 1, Monomial2(0, 3 * n - 1): 1})
            for n in range(1, (truncation + 1) // 3 + 1)
        ),
        range(1, truncation + 1),
        truncation,
    )


def djsw_product(d: int, truncation: int, *, base: Optional[Poly2] = None) -> list[int]:
    """The d-fold diamond product prod_{n>=1} F_d(q^{(n-1)(d+1)+1}, q)/(1-q^n),
    truncated by keeping the denominator factors n = 1..T and the numerator
    factors that can reach q^T.

    F_d comes from the recurrence unless ``base`` supplies the descent
    polynomial, such as the enumerated E_d, which must give the same
    coefficients. The numerator cut reads the terms of whichever base is
    used, so a corrupted base is cut by the same rule.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    base = _descent_polynomial(d) if base is None else base
    images = ((Monomial2(0, (n - 1) * (d + 1) + 1), Monomial2(0, 1)) for n in range(1, truncation + 1))
    return _univariate(
        _substituted(base, images, truncation),
        range(1, truncation + 1),
        truncation,
    )
