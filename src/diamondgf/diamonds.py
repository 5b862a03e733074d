"""Closed-form generating functions for partition diamonds.

Every truncated closed form reads one factor list, the multifold one
(``_multifold_factors``), through a monomial map applied before anything
is expanded: the identity gives ``sigma_multifold_closed`` (and
``sigma_closed``, its uniform case); (i, j) -> (0, i + j) gives
``sigma_univariate``, the a = b series; (i, j) -> (0, j) gives
``schmidt_closed``, the links-only weighting. ``sigma_rational`` writes
the uniform form apart from that list, as the exact reference that
``verify multifold`` compares a uniform fold sequence with.
``apr_product`` and ``djsw_product`` are the classical infinite products,
truncated by keeping the denominator factors n = 1..T and the numerator
factors that can reach q^T, which is exact because every dropped factor is
1 + O(q^{T+1}).

The sigma forms and ``djsw_product`` take E_d from the recurrence
``djsw_recursion``; only the links-only forms count words (``eulerian``).
E_d depends on d alone, so this module runs the recurrence at most once per
d in a process and shares the result (``_descent_polynomial``); the
recurrence itself stores nothing, so ``verify theorem1`` still compares a
fresh run with the count of words.

For series output every numerator factor is built with the truncation as
its bound: ``Poly2.substitute`` writes no image term of total degree above
T, the factors are multiplied with the same bound, and a factor that is the
constant 1 is skipped. The closed forms stop walking blocks at the first
one whose image of x passes T, where every factor left is 1 unless its
base has more than 1 in y alone (``_multifold_factors``), so a diamond of
many more blocks than T costs no more than one of T + 1. The product
lists of ``schmidt_product`` and
``djsw_product`` stop at the first factor that would be 1 + O(degree > T),
a cut read from the factor's own terms (``_substituted``). The
``*_rational`` builders substitute and multiply exactly, for desk-scale
parameters. ``sigma_univariate`` never builds the bivariate triangle that
``sigma_multifold_closed(...).specialize_univariate()`` expands. On that
univariate path (``_univariate``, shared by the three products,
``schmidt_closed`` and ``sigma_univariate``) every factor whose terms past
its constant 1 all lie above T/2 is added into one row instead of being
multiplied in or swept, since the product of any two such terms passes
q^T; on even T a denominator factor 1 - q^(T/2) keeps its sweep, because
its square q^T survives.
"""

from __future__ import annotations

import functools
from collections import Counter
from operator import add
from typing import Callable, Iterable, Iterator, Optional

from .permstat import djsw_recursion, eulerian
from .poset import DiamondSpec
from .series import Monomial2, Poly2, RationalExpr, TruncSeries2, _check_truncation, _poly


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
        if cuts:
            x_degree, y_degree = x_image.degree, y_image.degree
            if all(i * x_degree + j * y_degree > bound for i, j in lowest.items()):
                return
        yield base.substitute(x_image, y_image, bound)


def _univariate(
    numerator_factors: Iterable[Poly2], denominator_exponents: Iterable[int], truncation: int
) -> list[int]:
    """Coefficients of q^0..q^T of prod(numerator factors) / prod_e (1 - q^e),
    with every factor a polynomial in the second variable alone.

    Every factor whose terms past its constant 1 all lie above T/2 is added
    into one row, not multiplied in: a numerator factor 1 + g whose lowest
    term in g is above floor(T/2) contributes g, and each copy of
    1/(1 - q^e) with floor(T/2) < e <= T contributes q^e. Any product of two
    such terms passes q^T, so the product of those factors is 1 plus the
    sum of their terms through q^T. On even T, e = T/2 keeps its sweep,
    since its q^(2e) = q^T term survives. The row is the first numerator
    factor, and it is allocated before any factor is consumed. Each
    distinct exponent left becomes one ``Monomial2``, shared by all its
    copies, so ``RationalExpr`` converts and checks it once."""
    half = truncation // 2
    far = [0] * (truncation + 1)  # allocated before any factor is built
    far[0] = 1
    numerators = []
    for factor in numerator_factors:
        rows = factor._rows  # a factor in q alone has at most row 0
        if len(rows) == 1 and rows[0][0] == 1 and not any(rows[0][1:half + 1]):
            stop = min(len(rows[0]), truncation + 1)
            far[half + 1:stop] = map(add, far[half + 1:stop], rows[0][half + 1:stop])
        else:
            numerators.append(factor)
    monomials: dict[int, Monomial2] = {}
    factors = []
    for e in denominator_exponents:
        if half < e <= truncation:
            far[e] += 1
            continue
        m = monomials.get(e)
        if m is None:
            m = monomials[e] = Monomial2(0, e)
        factors.append(m)
    numerator = _product([_poly([far]), *numerators], truncation)
    return RationalExpr(numerator, tuple(factors)).expand(truncation).specialize_univariate()


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


def _multifold_factors(
    spec: DiamondSpec,
    base: Callable[[int], Poly2],
    image: Callable[[Monomial2], Monomial2] = lambda m: m,
    bound: Optional[int] = None,
) -> tuple[list[Poly2], list[Monomial2]]:
    """The numerator factors and denominator monomials of
    ``sigma_multifold_rational``'s form, with ``base(d_k)`` for E_{d_k} and
    every monomial, a included, sent through ``image``. The blocks are
    walked top block first, keeping the running fold count w_k, so degrees
    rise along both lists for every map used here. Each numerator factor is
    substituted with ``bound``.

    With a bound, the walk stops at the first block whose image of x has
    degree above it. There and below, every term of a base in x and every
    denominator monomial lands past the bound, so what is left of a factor
    is its base's part in y alone. Like ``_substituted``, this reads each
    base's own terms: a base whose part in y alone is not exactly 1 keeps
    its factor, once per block that uses it."""
    y_image = image(Monomial2(1, 0))
    numerators: list[Poly2] = []
    denominator: list[Monomial2] = []
    above = 0
    for n, d_k in enumerate(reversed(spec.folds), 1):  # n = M - k + 1
        x_image = image(Monomial2(above, n))
        if bound is not None and x_image.degree > bound:
            for d, count in Counter(spec.folds[: spec.length - n + 1]).items():
                if not _one_in_y(base(d)):
                    numerators += [base(d).substitute(x_image, y_image, bound)] * count
            break
        numerators.append(base(d_k).substitute(x_image, y_image, bound))
        denominator.extend(image(Monomial2(above + d_k - j, n)) for j in range(d_k + 1))
        above += d_k
    return numerators, [image(Monomial2(sum(spec.folds), spec.length + 1)), *denominator]


def _one_in_y(base: Poly2) -> bool:
    """Whether the terms of base free of x are exactly the constant 1."""
    return [(m, c) for m, c in base.terms.items() if not m.exp_a] == [(Monomial2(0, 0), 1)]


def sigma_rational(d: int, length: int) -> RationalExpr:
    """The exact rational form of the length-M diamond generating function:

        prod_{n=1..M} E_d(a^{(n-1)d} b^n, a)
        -------------------------------------------------------
        (1 - a^{Md} b^{M+1}) prod_{n=1..M} prod_{j=0..d} (1 - a^{nd-j} b^n)

    where E_d is the bivariate descent polynomial. The numerator product is
    expanded exactly, so keep M at desk scale here; use ``sigma_closed``
    for large truncated expansions. It is written apart from the multifold
    factor list that ``sigma_closed`` reads, as the reference of
    ``verify multifold``.
    """
    _check_dm(d, length)
    e_d = _descent_polynomial(d)
    numerator = _product(
        e_d.substitute(Monomial2((n - 1) * d, n), Monomial2(1, 0)) for n in range(1, length + 1)
    )
    denominator = [Monomial2(length * d, length + 1)]
    denominator.extend(Monomial2(n * d - j, n) for n in range(1, length + 1) for j in range(d + 1))
    return RationalExpr(numerator, tuple(denominator))


def sigma_closed(d: int, length: int, truncation: int) -> TruncSeries2:
    """The diamond generating function expanded through total degree T.

    Coefficient of a^i b^j counts length-M d-fold diamonds with fold sum i
    and link sum j. This is the multifold form on M blocks of d folds.
    """
    truncation = _check_truncation(truncation)
    _check_dm(d, length)
    return sigma_multifold_closed(DiamondSpec.uniform(d, length), truncation)


def sigma_multifold_rational(spec: DiamondSpec) -> RationalExpr:
    """Exact rational form for a diamond whose block k has d_k folds:

        prod_{k=1..M} E_{d_k}(a^{w_k} b^{M-k+1}, a)
        ----------------------------------------------------------------
        (1 - a^{w_0} b^{M+1}) prod_{k=1..M} prod_{j=0..d_k}
                                    (1 - a^{w_k + d_k - j} b^{M-k+1})

    with w_k the number of folds strictly above block k.
    """
    numerators, denominator = _multifold_factors(spec, _descent_polynomial)
    return RationalExpr(_product(numerators), tuple(denominator))


def sigma_multifold_closed(spec: DiamondSpec, truncation: int) -> TruncSeries2:
    """The multifold diamond generating function expanded through total
    degree T: ``sigma_multifold_rational``'s factors, each numerator factor
    and their product cut at T. ``sigma_closed`` is this form on a uniform
    fold sequence."""
    truncation = _check_truncation(truncation)
    numerators, denominator = _multifold_factors(spec, _descent_polynomial, bound=truncation)
    return RationalExpr(_product(numerators, truncation), tuple(denominator)).expand(truncation)


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
    truncation = _check_truncation(truncation)
    numerators, denominator = _multifold_factors(
        spec, _descent_polynomial, lambda m: Monomial2(0, m.degree), truncation
    )
    return _univariate(numerators, (m.exp_b for m in denominator), truncation)


def schmidt_closed(d: int, length: int, truncation: int) -> list[int]:
    """Length-M diamonds counted by link sum only.

    This is the first variable of ``sigma_closed`` set to 1 before
    expansion: numerator prod_n E_d(q^n, 1), denominator
    (1 - q^{M+1}) prod_n (1 - q^n)^{d+1}.
    """
    truncation = _check_truncation(truncation)
    _check_dm(d, length)
    e_d = eulerian(d)
    numerators, denominator = _multifold_factors(
        DiamondSpec.uniform(d, length), lambda _: e_d, lambda m: Monomial2(0, m.exp_b), truncation
    )
    return _univariate(numerators, (m.exp_b for m in denominator), truncation)


def schmidt_product(d: int, truncation: int) -> list[int]:
    """The infinite links-only product prod_{n>=1} E_d(q^n, 1)/(1-q^n)^{d+1},
    truncated by keeping factors n = 1..T."""
    truncation = _check_truncation(truncation)
    if d < 1:
        raise ValueError("d must be at least 1")
    constant = Monomial2(0, 0)
    images = ((Monomial2(0, n), constant) for n in range(1, truncation + 1))
    return _univariate(
        _substituted(eulerian(d), images, truncation),
        (n for n in range(1, truncation + 1) for _ in range(d + 1)),
        truncation,
    )


def apr_product(truncation: int) -> list[int]:
    """The plane partition diamond product prod_{n>=1} (1 + q^{3n-1})/(1 - q^n),
    truncated by keeping the denominator factors n = 1..T and the numerator
    factors with 3n - 1 <= T."""
    truncation = _check_truncation(truncation)
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
    truncation = _check_truncation(truncation)
    if d < 1:
        raise ValueError("d must be at least 1")
    base = _descent_polynomial(d) if base is None else base
    q = Monomial2(0, 1)
    images = ((Monomial2(0, (n - 1) * (d + 1) + 1), q) for n in range(1, truncation + 1))
    return _univariate(
        _substituted(base, images, truncation),
        range(1, truncation + 1),
        truncation,
    )
