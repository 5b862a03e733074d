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

For bivariate output every numerator factor is substituted with the
truncation as its bound, and the factors are multiplied with the same
bound. The closed forms stop walking blocks at the first one whose image
of x passes T, where every factor left is 1 unless its base has more than
1 in y alone (``_multifold_factors``), so a diamond of many more blocks
than T costs no more than one of T + 1. The ``*_rational`` builders
substitute and multiply exactly, for desk-scale parameters.

The univariate path (``_univariate``, shared by the three products,
``schmidt_closed`` and ``sigma_univariate``) never builds a bivariate
triangle, and no numerator factor is substituted: each is a list of (power
of q, coefficient) pairs read from its base's terms (``_image_terms``). The
product lists stop at the first factor that would be 1 + O(q^(T+1)). Every
factor whose terms past its constant 1 all lie above T/2 is added into one
row instead of being multiplied in or swept, since the product of any two
such terms passes q^T; on even T a denominator factor 1 - q^(T/2) keeps its
sweep, because its square q^T survives.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Callable, Iterable, Iterator, Optional

from .permstat import check_recursion_guard, djsw_recursion, eulerian
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


def _image_terms(
    base: Poly2, pairs: Iterable[tuple[int, int]], bound: Optional[int] = None
) -> Iterator[list[tuple[int, int]]]:
    """base(q^xs, q^ys) for each pair (xs, ys): the (power of q, coefficient)
    pairs of its terms x^i y^j -> q^(i xs + j ys), powers possibly repeated.

    With a bound, the powers must not fall along the pairs. The lists then
    end before the first pair that sends every term of base but a constant 1
    past the bound: that factor, and every later one, is 1 + O(q^(bound+1)).
    The cut reads base's own terms, so a base with a term in y alone keeps
    every factor, and a cancellation inside one factor ends nothing early.
    """
    terms = [(i, j, c) for i, row in enumerate(base._rows) for j, c in enumerate(row) if c]
    cuts = bound is not None and base.coefficient(0, 0) == 1
    lowest: dict[int, int] = {}  # per power of x, the lowest power of y off the constant
    for i, j, _ in terms if cuts else ():
        if i or j:
            lowest[i] = min(j, lowest.get(i, j))
    for xs, ys in pairs:
        if cuts and all(i * xs + j * ys > bound for i, j in lowest.items()):
            return
        yield [(i * xs + j * ys, c) for i, j, c in terms]


def _univariate(
    numerator_factors: Iterable[list[tuple[int, int]]], denominator_exponents: Iterable[int],
    truncation: int,
) -> list[int]:
    """Coefficients of q^0..q^T of prod(numerator factors) / prod_e (1 - q^e),
    each numerator factor a list of (power of q, coefficient) pairs.

    Every factor whose terms past its constant 1 all lie above T/2 is added
    into one row, not multiplied in: a numerator factor 1 + g whose powers
    in g are all above floor(T/2) contributes g, and each copy of
    1/(1 - q^e) with floor(T/2) < e <= T contributes q^e. Any product of two
    such terms passes q^T, so the product of those factors is 1 plus the
    sum of their terms through q^T. On even T, e = T/2 keeps its sweep,
    since its q^(2e) = q^T term survives. The row is the first numerator
    factor, and it is allocated before any factor is consumed. Every other
    numerator factor becomes one row through q^T and is multiplied in, and
    every exponent left becomes one denominator factor (1 - q^e). Those go
    to ``RationalExpr`` largest exponent first, so most sweeps run while
    the coefficients are still small ints; the order changes no
    coefficient."""
    half = truncation // 2
    far = [1] + [0] * truncation  # allocated before any factor is consumed
    numerators = []
    for terms in numerator_factors:
        if all(e > half for e, _ in terms if e) and sum(c for e, c in terms if not e) == 1:
            for e, c in terms:
                if half < e <= truncation:
                    far[e] += c
        else:
            row = [0] * (min(max((e for e, _ in terms), default=0), truncation) + 1)
            for e, c in terms:
                if e <= truncation:
                    row[e] += c
            numerators.append(_poly([row]))
    exponents = []
    for e in denominator_exponents:
        if half < e <= truncation:
            far[e] += 1
            continue
        exponents.append(e)
    exponents.sort(reverse=True)
    numerator = _product([_poly([far]), *numerators], truncation)
    factors = tuple((0, e) for e in exponents)
    return RationalExpr(numerator, factors).expand(truncation).specialize_univariate()


def _check_dm(d: int, length: int) -> None:
    if d < 1:
        raise ValueError("d must be at least 1")
    if length < 1:
        raise ValueError("length must be at least 1")


def _descent_polynomial(d: int) -> Poly2:
    """E_d for the closed forms: ``djsw_recursion(d)``, run at most once per
    d in a process, its guard checked on every call. Callers share the
    result and must not mutate it."""
    return _recurrence(check_recursion_guard(d))


@functools.cache
def _recurrence(d: int) -> Poly2:
    return djsw_recursion(d)


def _multifold_factors(
    spec: DiamondSpec,
    base: Callable[[int], Poly2],
    image: Callable[[Monomial2], Monomial2] = lambda m: m,
    bound: Optional[int] = None,
) -> tuple[list[tuple[Poly2, Monomial2, Monomial2]], list[Monomial2]]:
    """The numerator factors and denominator monomials of
    ``sigma_multifold_rational``'s form, with ``base(d_k)`` for E_{d_k} and
    every monomial, a included, sent through ``image``. Each numerator
    factor is a triple (base, x_image, y_image), the base at those images.
    The blocks are walked top block first, keeping the running fold count
    w_k, so degrees rise along both lists for every map used here.

    With a bound, the walk stops at the first block whose image of x has
    degree above it. There and below, every term of a base in x and every
    denominator monomial lands past the bound, so what is left of a factor
    is its base's part in y alone. Like ``_image_terms``, this reads each
    base's own rows: a base whose row 0, its part in y alone, is not
    exactly 1 keeps its factor, once per block that uses it."""
    y_image = image(Monomial2(1, 0))
    numerators = []
    denominator: list[Monomial2] = []
    above = 0
    for n, d_k in enumerate(reversed(spec.folds), 1):  # n = M - k + 1
        x_image = image(Monomial2(above, n))
        if bound is not None and x_image.degree > bound:
            for d, count in Counter(spec.folds[: spec.length - n + 1]).items():
                if base(d)._rows[:1] != [[1]]:
                    numerators += [(base(d), x_image, y_image)] * count
            break
        numerators.append((base(d_k), x_image, y_image))
        denominator.extend(image(Monomial2(above + d_k - j, n)) for j in range(d_k + 1))
        above += d_k
    return numerators, [image(Monomial2(sum(spec.folds), spec.length + 1)), *denominator]


def _univariate_closed(spec: DiamondSpec, base: Callable, image: Callable, truncation: int) -> list[int]:
    """``_univariate`` of ``_multifold_factors`` under an image in q alone."""
    numerators, denominator = _multifold_factors(spec, base, image, truncation)
    factors = (f for b, x, y in numerators for f in _image_terms(b, [(x.exp_b, y.exp_b)]))
    return _univariate(factors, (m.exp_b for m in denominator), truncation)


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
    return RationalExpr(_product(b.substitute(x, y) for b, x, y in numerators), tuple(denominator))


def sigma_multifold_closed(spec: DiamondSpec, truncation: int) -> TruncSeries2:
    """The multifold diamond generating function expanded through total
    degree T: ``sigma_multifold_rational``'s factors, each numerator factor
    and their product cut at T. ``sigma_closed`` is this form on a uniform
    fold sequence."""
    truncation = _check_truncation(truncation)
    numerators, denominator = _multifold_factors(spec, _descent_polynomial, bound=truncation)
    numerator = _product((b.substitute(x, y, truncation) for b, x, y in numerators), truncation)
    return RationalExpr(numerator, tuple(denominator)).expand(truncation)


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
    return _univariate_closed(spec, _descent_polynomial, lambda m: Monomial2(0, m.degree), truncation)


def schmidt_closed(d: int, length: int, truncation: int) -> list[int]:
    """Length-M diamonds counted by link sum only.

    This is the first variable of ``sigma_closed`` set to 1 before
    expansion: numerator prod_n E_d(q^n, 1), denominator
    (1 - q^{M+1}) prod_n (1 - q^n)^{d+1}.
    """
    truncation = _check_truncation(truncation)
    _check_dm(d, length)
    e_d = eulerian(d)
    return _univariate_closed(
        DiamondSpec.uniform(d, length), lambda _: e_d, lambda m: Monomial2(0, m.exp_b), truncation
    )


def schmidt_product(d: int, truncation: int) -> list[int]:
    """The infinite links-only product prod_{n>=1} E_d(q^n, 1)/(1-q^n)^{d+1},
    truncated by keeping factors n = 1..T."""
    truncation = _check_truncation(truncation)
    if d < 1:
        raise ValueError("d must be at least 1")
    numerators = _image_terms(eulerian(d), ((n, 0) for n in range(1, truncation + 1)), truncation)
    denominator = (n for n in range(1, truncation + 1) for _ in range(d + 1))
    return _univariate(numerators, denominator, truncation)


def apr_product(truncation: int) -> list[int]:
    """The plane partition diamond product prod_{n>=1} (1 + q^{3n-1})/(1 - q^n),
    truncated by keeping the denominator factors n = 1..T and the numerator
    factors with 3n - 1 <= T."""
    truncation = _check_truncation(truncation)
    numerators = ([(0, 1), (3 * n - 1, 1)] for n in range(1, (truncation + 1) // 3 + 1))
    return _univariate(numerators, range(1, truncation + 1), truncation)


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
    pairs = (((n - 1) * (d + 1) + 1, 1) for n in range(1, truncation + 1))
    return _univariate(_image_terms(base, pairs, truncation), range(1, truncation + 1), truncation)
