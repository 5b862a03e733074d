"""Exact arithmetic in two formal variables: sparse polynomials, truncated
power series, and rational expressions with denominators of the shape
prod (1 - monomial).

Coefficients are plain Python integers, so partition counts never wrap
around. A polynomial is stored as a map from exponent pairs to nonzero
coefficients. A product of two polynomials runs the factor with fewer
terms, in increasing degree, over the other: a constant term starts the
result as a copy of the other factor, each new key is built as a Monomial2
once, and the cost is O(|small| * |big|) pair visits.

A truncated series carries a total-degree bound T and is stored as
triangular rows: ``rows[i][j]`` is the coefficient of a^i b^j, row i has
T - i + 1 entries, and trailing all-zero rows are dropped, so equal series
have equal rows. Its ``terms`` map is built from the rows on first read and
cached. The two variables are anonymous slots; rendering attaches names
such as ``a, b`` or ``x, y`` only at output time.

All values are immutable after construction and every operation is a pure
function, so they are safe to share across threads. The one write after
construction, filling a series' cached ``terms``, is idempotent: threads
that race to fill it store equal maps.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import add, sub
from typing import Iterable, NamedTuple, Optional, Sequence, Union


class NonExactDivision(ArithmeticError):
    """A polynomial division that must be remainder-free left a remainder."""


class NonInvertibleFactor(ValueError):
    """A denominator factor (1 - m) where m has total degree 0."""


class TruncationMismatch(ValueError):
    """Arithmetic between truncated series with different degree bounds."""


class Monomial2(NamedTuple):
    """An exponent pair, representing ``a^exp_a * b^exp_b``."""

    exp_a: int
    exp_b: int

    @property
    def degree(self) -> int:
        return self.exp_a + self.exp_b


MonomialLike = Union[Monomial2, Sequence[int]]


def _as_monomial(mono: MonomialLike) -> Monomial2:
    m = Monomial2(int(mono[0]), int(mono[1]))
    if m.exp_a < 0 or m.exp_b < 0:
        raise ValueError(f"negative exponent in monomial {m}")
    return m


def _grlex(mono: Sequence[int]) -> tuple[int, int]:
    # Graded lexicographic sort key: total degree first, then exp_a.
    return (mono[0] + mono[1], mono[0])


def _collect(items: Iterable[tuple[MonomialLike, int]]) -> dict[Monomial2, int]:
    acc: dict[Monomial2, int] = {}
    for mono, coeff in items:
        if not isinstance(coeff, int):
            raise TypeError(f"coefficient {coeff!r} is not an exact integer")
        if coeff == 0:
            continue
        key = _as_monomial(mono)
        total = acc.get(key, 0) + coeff
        if total:
            acc[key] = total
        else:
            del acc[key]
    return acc


def _add_terms(left: Mapping, right: Mapping, sign: int = 1) -> dict:
    """The term map of left + sign * right; cancelled terms drop."""
    result = dict(left)
    for mono, coeff in right.items():
        total = result.get(mono, 0) + sign * coeff
        if total:
            result[mono] = total
        else:
            del result[mono]
    return result


# Builds a Monomial2 from an exponent pair in C, skipping the NamedTuple's
# Python-level __new__; only for pairs this module computed itself.
_monomial = partial(tuple.__new__, Monomial2)


def _mul_terms(left: Mapping, right: Mapping, bound: int) -> dict[Monomial2, int]:
    """The term map of left * right with every term of total degree > bound
    dropped. Safe whenever only the degree-<= bound part of the product
    matters, because all exponents are nonnegative.

    The operand with fewer terms drives the loop in increasing degree and
    stops at its first term past the bound. Each of its terms adds a scaled,
    shifted copy of the other operand's terms that stay in bound; a constant
    term starts the result as a copy, made in C when its coefficient is 1.
    A key is built as a Monomial2 once, when it enters the result, and a sum
    that cancels leaves at once. The cost is O(|small| * |big|) pair visits.
    """
    small, big = (left, right) if len(left) <= len(right) else (right, left)
    top = max(map(sum, big), default=-1)
    result: dict[Monomial2, int] = {}
    for degree, sa, sb, coeff in sorted((a + b, a, b, c) for (a, b), c in small.items()):
        room = bound - degree
        if room < 0:
            break
        if not degree:
            # Only the first term can be constant, so the result is still empty.
            if coeff == 1 and top <= bound:
                result = dict(big)
            else:
                result = {m: coeff * c for m, c in big.items() if sum(m) <= bound}
            continue
        if room >= top:
            shifted = big.items()
        else:
            shifted = [(m, c) for m, c in big.items() if m[0] + m[1] <= room]
        get = result.get
        for (ba, bb), c in shifted:
            key = (sa + ba, sb + bb)
            total = get(key)
            if total is None:
                result[_monomial(key)] = coeff * c
            else:
                total += coeff * c
                if total:
                    result[key] = total  # the existing Monomial2 key stays
                else:
                    del result[key]
    return result


def _divide_along_ray(terms: Mapping, alpha: int, beta: int) -> Optional[dict[Monomial2, int]]:
    """The term map of terms / (1 - a^alpha b^beta), with alpha + beta > 0,
    or None when that quotient is not a polynomial.

    With m = (alpha, beta), a term (a, b) is step k = a // alpha (b // beta
    when alpha is 0) of the chain base + j*m through it; the base is only a
    key and may have a negative exponent. Along a chain the quotient at
    step j is the sum of the coefficients at steps i <= j, so it is
    constant from one term to the next, and it must be 0 from the last one
    on. The cost is O(n log n) in the n terms plus one step per quotient
    term.
    """
    chains: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (a, b), coeff in terms.items():
        k = a // alpha if alpha else b // beta
        chains.setdefault((a - k * alpha, b - k * beta), []).append((k, coeff))
    quotient: dict[Monomial2, int] = {}
    for (base_a, base_b), steps in chains.items():
        steps.sort()
        total = 0
        since = 0
        for k, coeff in steps:
            if total:
                for j in range(since, k):
                    quotient[_monomial((base_a + j * alpha, base_b + j * beta))] = total
            total += coeff
            since = k
        if total:
            return None
    return quotient


def _monomial_keys(terms: dict) -> dict[Monomial2, int]:
    """A term map keyed by plain exponent pairs, rekeyed by Monomial2 with
    cancelled terms dropped."""
    return {_monomial(key): coeff for key, coeff in terms.items() if coeff}


class _TermMap:
    """What polynomials and truncated series share: a map from exponent
    pairs to nonzero integer coefficients, read in graded-lex order."""

    __slots__ = ("_terms",)

    @property
    def terms(self) -> Mapping[Monomial2, int]:
        """The underlying term map; treat as read-only."""
        return self._terms

    def coefficient(self, exp_a: int, exp_b: int) -> int:
        return self.terms.get(Monomial2(exp_a, exp_b), 0)

    def sorted_terms(self) -> list[tuple[Monomial2, int]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex(kv[0]))

    def first_difference(self, other: "_TermMap") -> Optional[tuple[Monomial2, int, int]]:
        """Graded-lex smallest monomial where the two differ, with both
        coefficients, or None when equal."""
        mine, theirs = self.terms, other.terms
        for mono in sorted(set(mine) | set(theirs), key=_grlex):
            left = mine.get(mono, 0)
            right = theirs.get(mono, 0)
            if left != right:
                return (mono, left, right)
        return None

    def text(self, names: tuple[str, str] = ("a", "b")) -> str:
        return format_terms(self.sorted_terms(), names)


class Poly2(_TermMap):
    """A polynomial with exact integer coefficients in two variables.

    >>> x, y = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    >>> ((1 - y) * (1 + y + y**2)).text()
    '1 + -b^3'
    >>> (1 + x * y).substitute(Monomial2(0, 1), Monomial2(1, 0)).text()
    '1 + a*b'
    """

    __slots__ = ()

    def __init__(self, terms: Mapping | Iterable[tuple[MonomialLike, int]] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _collect(items)

    @classmethod
    def _trusted(cls, terms: dict[Monomial2, int]) -> "Poly2":
        """Wrap a term map this module built itself, with Monomial2 keys and
        no zero coefficients, without the public constructor's checks."""
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def one(cls) -> "Poly2":
        return cls({Monomial2(0, 0): 1})

    @classmethod
    def constant(cls, value: int) -> "Poly2":
        return cls({Monomial2(0, 0): value})

    @classmethod
    def monomial(cls, exp_a: int, exp_b: int, coeff: int = 1) -> "Poly2":
        return cls({Monomial2(exp_a, exp_b): coeff})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def total_degree(self) -> int:
        """Maximum exp_a + exp_b, or -1 for the zero polynomial."""
        return max(map(sum, self._terms), default=-1)

    @staticmethod
    def _coerce(other) -> Optional["Poly2"]:
        if isinstance(other, Poly2):
            return other
        if isinstance(other, int):
            return Poly2.constant(other)
        return None

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._terms == coerced._terms

    def __add__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return Poly2._trusted(_add_terms(self._terms, coerced._terms))

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2._trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return Poly2._trusted(_add_terms(self._terms, coerced._terms, -1))

    def __rsub__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return Poly2._trusted(_add_terms(coerced._terms, self._terms, -1))

    def __mul__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        # No product term exceeds the sum of the factors' degrees.
        bound = self.total_degree() + coerced.total_degree()
        return Poly2._trusted(_mul_terms(self._terms, coerced._terms, bound))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly2":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take a nonnegative integer exponent")
        result = Poly2.one()
        for _ in range(exponent):
            result = result * self
        return result

    def mul_bounded(self, other: Union["Poly2", int], bound: int) -> "Poly2":
        """Product with every term of total degree > bound dropped.

        Safe whenever only the degree-<= bound part of the result matters,
        because all exponents here are nonnegative. ``other`` is a Poly2 or
        an int, as for ``*``; anything else, or a bound that is not an int,
        raises TypeError.

        The factor with fewer terms drives the loop and stops at its first
        term past the bound, a constant term copies the other factor, and
        each result key is built once: O(|small| * |big|) pair visits.
        """
        coerced = self._coerce(other)
        if coerced is None:
            raise TypeError(f"mul_bounded takes a Poly2 or an int, not {type(other).__name__}")
        if not isinstance(bound, int):
            raise TypeError(f"mul_bounded takes an int bound, not {type(bound).__name__}")
        return Poly2._trusted(_mul_terms(self._terms, coerced._terms, bound))

    def substitute(self, x_image: MonomialLike, y_image: MonomialLike) -> "Poly2":
        """Map each term x^i y^j to x_image^i * y_image^j, recollected exactly."""
        xi = _as_monomial(x_image)
        yi = _as_monomial(y_image)
        result: dict[tuple[int, int], int] = {}
        for (i, j), coeff in self._terms.items():
            key = (i * xi.exp_a + j * yi.exp_a, i * xi.exp_b + j * yi.exp_b)
            result[key] = result.get(key, 0) + coeff
        return Poly2._trusted(_monomial_keys(result))

    def divide_exact(self, divisor: "Poly2") -> "Poly2":
        """Return q with q * divisor == self, or raise NonExactDivision.

        Long division by the graded-lex leading term. A single divisor
        generates its own ideal basis, so a nonzero remainder (or a
        non-divisible integer leading coefficient) proves no exact integer
        quotient exists.

        The remainder's monomials are visited once each, in descending
        graded-lex order, from a heap: a monomial is pushed when it enters
        the remainder and skipped if it has cancelled by the time it comes
        out. Every product of a quotient term with the divisor's other terms
        lies below the term just cleared, so the order never goes back up,
        and the division costs O(n log n) in the n monomials the remainder
        ever holds, times the divisor's length.

        A divisor of exactly 1 - m, for a monomial m of positive degree,
        takes the ray path first: q = self / (1 - m) has q[s] = self[s] +
        q[s - m], so along each chain p, p + m, p + 2m, ... of the
        dividend's terms the quotient is the running sum of their
        coefficients. The quotient is a polynomial iff every chain sums to
        0; when one does not, the long division above runs instead and
        raises its usual NonExactDivision.
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        lead = max(divisor._terms, key=_grlex)
        lead_coeff = divisor._terms[lead]
        if len(divisor._terms) == 2 and lead_coeff == -1 and divisor._terms.get((0, 0)) == 1:
            quotient = _divide_along_ray(self._terms, *lead)
            if quotient is not None:
                return Poly2._trusted(quotient)
        rest = [(da, db, dc) for (da, db), dc in divisor._terms.items() if (da, db) != lead]
        remainder: dict[tuple[int, int], int] = dict(self._terms)
        heap = [(-a - b, -a) for a, b in remainder]
        heapify(heap)
        quotient: dict[Monomial2, int] = {}
        while heap:
            neg_degree, neg_a = heappop(heap)
            top = _monomial((-neg_a, neg_a - neg_degree))
            top_coeff = remainder.pop(top, 0)
            if not top_coeff:
                continue  # cancelled after it was pushed
            if top.exp_a < lead.exp_a or top.exp_b < lead.exp_b:
                raise NonExactDivision(f"no exact quotient: stuck at term {top}")
            q, r = divmod(top_coeff, lead_coeff)
            if r:
                raise NonExactDivision(
                    f"no exact quotient: coefficient {top_coeff} not divisible by {lead_coeff}"
                )
            qa, qb = top.exp_a - lead.exp_a, top.exp_b - lead.exp_b
            quotient[_monomial((qa, qb))] = q
            # The lead term of q * divisor cancels top, which is already popped.
            for da, db, dc in rest:
                key = (qa + da, qb + db)
                if key in remainder:
                    total = remainder[key] - q * dc
                    if total:
                        remainder[key] = total
                    else:
                        del remainder[key]
                else:
                    remainder[key] = -q * dc
                    heappush(heap, (-key[0] - key[1], -key[0]))
        return Poly2._trusted(quotient)

    def __repr__(self) -> str:
        return f"Poly2({self.text()})"


def _check_truncation(truncation: int) -> None:
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")


# rows[i][j] is the coefficient of a^i b^j; row i has T - i + 1 entries.
Rows = list[list[int]]


def _trimmed(rows: Rows) -> Rows:
    """Drop trailing all-zero rows in place, so equal series have equal rows."""
    while rows and not any(rows[-1]):
        rows.pop()
    return rows


def _rows_from_terms(truncation: int, terms: Mapping) -> Rows:
    """The rows of a term map with no zero coefficients and no term beyond
    the bound; its highest exp_a gives the last row, which is nonzero."""
    height = max((mono[0] for mono in terms), default=-1) + 1
    rows = [[0] * (truncation - i + 1) for i in range(height)]
    for (i, j), coeff in terms.items():
        rows[i][j] = coeff
    return rows


def _sweep_row(row: list[int], step: int) -> None:
    """row[j] += row[j - step] for j increasing, in place: the row times
    1/(1 - b^step)."""
    if step * step <= len(row):
        # Each residue class mod step becomes its running sum.
        for start in range(step):
            row[start::step] = accumulate(row[start::step])
    else:
        # Each block of step entries adds the finished block before it.
        for start in range(step, len(row), step):
            row[start:start + step] = map(add, row[start:start + step], row[start - step:start])


def _sweep(rows: Rows, ray: Monomial2, truncation: int) -> Rows:
    """The rows times 1/(1 - a^alpha b^beta): on a copy, c[i][j] +=
    c[i - alpha][j - beta] in increasing (i, j). Costs O(T) list operations
    when alpha > 0 and O(sqrt T) per row when alpha = 0."""
    alpha, beta = ray
    out = [row[:] for row in rows]
    if alpha:
        out += [[0] * (truncation - i + 1) for i in range(len(out), truncation + 1)]
        for i in range(alpha, truncation + 1):
            row = out[i]
            # Row i - alpha is final already; zip-style map stops at row i's end.
            row[beta:] = map(add, row[beta:], out[i - alpha])
    else:
        for row in out:
            _sweep_row(row, beta)
    return _trimmed(out)


def _term_count(rows: Rows) -> int:
    return sum(len(row) - row.count(0) for row in rows)


def _row_product(left: Rows, right: Rows, truncation: int) -> Rows:
    """left * right through the bound: each term of the operand with fewer
    terms adds a scaled, shifted slice of the other operand's rows."""
    if _term_count(left) > _term_count(right):
        left, right = right, left
    height = min(truncation + 1, len(left) + len(right) - 1)
    out = [[0] * (truncation - i + 1) for i in range(height)]
    for i, row in enumerate(left):
        for j, coeff in enumerate(row):
            if coeff:
                for target, source in zip(out[i:], right):
                    target[j:] = [x + coeff * y for x, y in zip(target[j:], source)]
    return _trimmed(out)


def _row_sum(left: Rows, right: Rows, sign: int) -> Rows:
    """left + sign * right, row by row. Rows only one side has are shared,
    which is safe because no kernel writes to a row it did not create."""
    out = [list(map(add if sign == 1 else sub, a, b)) for a, b in zip(left, right)]
    out += left[len(right):]
    out += right[len(left):] if sign == 1 else [[-c for c in row] for row in right[len(left):]]
    return _trimmed(out)


class TruncSeries2(_TermMap):
    """A power series kept only through total degree ``truncation``.

    Operations between two series require equal truncation bounds; anything
    else raises TruncationMismatch rather than silently mixing precisions.
    """

    __slots__ = ("_truncation", "_rows", "_ray")

    def __init__(self, truncation: int, terms: Mapping | Iterable = ()) -> None:
        _check_truncation(truncation)
        items = terms.items() if isinstance(terms, Mapping) else terms
        collected = _collect(items)
        for mono in collected:
            if mono.degree > truncation:
                raise ValueError(f"term {mono} exceeds truncation {truncation}")
        self._truncation = truncation
        self._rows = _rows_from_terms(truncation, collected)
        self._terms = collected
        self._ray = None

    @classmethod
    def _from_rows(
        cls, truncation: int, rows: Rows, ray: Optional[Monomial2] = None
    ) -> "TruncSeries2":
        """Wrap rows this module built itself, row i of length T - i + 1 and
        no trailing all-zero row, without the public constructor's checks.
        ``ray`` marks the series 1/(1 - ray) for the product sweep."""
        series = cls.__new__(cls)
        series._truncation = truncation
        series._rows = rows
        series._terms = None
        series._ray = ray
        return series

    @classmethod
    def from_poly(cls, poly: Poly2, truncation: int) -> "TruncSeries2":
        """The polynomial viewed as a series: terms beyond the bound drop."""
        _check_truncation(truncation)
        terms = {m: c for m, c in poly.terms.items() if m.degree <= truncation}
        series = cls._from_rows(truncation, _rows_from_terms(truncation, terms))
        series._terms = terms
        return series

    @classmethod
    def zero(cls, truncation: int) -> "TruncSeries2":
        return cls(truncation)

    @classmethod
    def one(cls, truncation: int) -> "TruncSeries2":
        return cls(truncation, {Monomial2(0, 0): 1})

    @property
    def truncation(self) -> int:
        return self._truncation

    @property
    def terms(self) -> Mapping[Monomial2, int]:
        """The term map, built from the rows on first read; treat as
        read-only."""
        terms = self._terms
        if terms is None:
            terms = {
                Monomial2(i, j): c
                for i, row in enumerate(self._rows)
                for j, c in enumerate(row)
                if c
            }
            self._terms = terms
        return terms

    def _check_compatible(self, other: "TruncSeries2") -> None:
        if self._truncation != other._truncation:
            raise TruncationMismatch(
                f"truncations differ: {self._truncation} vs {other._truncation}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        return self._truncation == other._truncation and self._rows == other._rows

    def __add__(self, other: "TruncSeries2") -> "TruncSeries2":
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        self._check_compatible(other)
        return TruncSeries2._from_rows(self._truncation, _row_sum(self._rows, other._rows, 1))

    def __sub__(self, other: "TruncSeries2") -> "TruncSeries2":
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        self._check_compatible(other)
        return TruncSeries2._from_rows(self._truncation, _row_sum(self._rows, other._rows, -1))

    def __mul__(self, other: "TruncSeries2") -> "TruncSeries2":
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        self._check_compatible(other)
        bound = self._truncation
        if other._ray is not None:
            rows = _sweep(self._rows, other._ray, bound)
        elif self._ray is not None:
            rows = _sweep(other._rows, self._ray, bound)
        else:
            rows = _row_product(self._rows, other._rows, bound)
        return TruncSeries2._from_rows(bound, rows)

    def specialize_univariate(self) -> list[int]:
        """Set both variables to one formal variable q: the coefficient of
        q^n is the sum of all coefficients of total degree n."""
        out = [0] * (self._truncation + 1)
        for i, row in enumerate(self._rows):
            out[i:] = map(add, out[i:], row)
        return out

    def first_difference(self, other: "TruncSeries2") -> Optional[tuple[Monomial2, int, int]]:
        self._check_compatible(other)
        return super().first_difference(other)

    def __repr__(self) -> str:
        return f"TruncSeries2[T={self._truncation}]({self.text()})"


def geometric_series(mono: MonomialLike, truncation: int) -> TruncSeries2:
    """1/(1 - m) = 1 + m + m^2 + ... through the truncation bound.

    The result records m, so a product with it, on either side, runs as the
    sweep c[i][j] += c[i - alpha][j - beta] over a copy of the other
    factor's rows instead of a convolution. A factor then costs O(T) list
    operations (O(sqrt T) per row when alpha = 0), not one multiply for
    each pair of a term and a power of m: O(T^2 / deg m) for a series in b
    alone.
    """
    m = _as_monomial(mono)
    if m.degree == 0:
        raise NonInvertibleFactor(f"factor (1 - {m}) has no series inverse")
    _check_truncation(truncation)
    powers = truncation // m.degree + 1
    rows = [[0] * (truncation - i + 1) for i in range((powers - 1) * m.exp_a + 1)]
    for k in range(powers):
        rows[k * m.exp_a][k * m.exp_b] = 1
    return TruncSeries2._from_rows(truncation, rows, m)


@dataclass(frozen=True)
class RationalExpr:
    """numerator / prod (1 - m) for monomials m of total degree >= 1."""

    numerator: Poly2
    denominator_factors: tuple[Monomial2, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.numerator, Poly2):
            raise TypeError("numerator must be a Poly2")
        factors = tuple(_as_monomial(m) for m in self.denominator_factors)
        for m in factors:
            if m.degree == 0:
                raise NonInvertibleFactor(f"factor (1 - {m}) has no series inverse")
        object.__setattr__(self, "denominator_factors", factors)

    def expand(self, truncation: int) -> TruncSeries2:
        """Multiply the numerator by each factor's geometric expansion.

        Each product with ``geometric_series`` runs as a sweep over the
        rows: a factor (1 - a^alpha b^beta) with alpha > 0 costs one slice
        add per row, O(T) list operations and O(T^2) integer additions, and
        a factor (1 - b^beta) costs O(sqrt T) slice operations per row.

        Numerator terms beyond the bound drop up front, and factors whose
        monomial degree exceeds the bound expand to 1; neither affects any
        retained coefficient. The result is independent of factor order.
        """
        series = TruncSeries2.from_poly(self.numerator, truncation)
        for mono in self.denominator_factors:
            if mono.degree > truncation:
                continue
            series = series * geometric_series(mono, truncation)
        return series


# --- rendering ------------------------------------------------------------


def _format_term(mono: Monomial2, coeff: int, names: tuple[str, str]) -> str:
    factors = []
    if mono.exp_a:
        factors.append(names[0] if mono.exp_a == 1 else f"{names[0]}^{mono.exp_a}")
    if mono.exp_b:
        factors.append(names[1] if mono.exp_b == 1 else f"{names[1]}^{mono.exp_b}")
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def format_terms(
    sorted_terms: Sequence[tuple[Monomial2, int]], names: tuple[str, str] = ("a", "b")
) -> str:
    if not sorted_terms:
        return "0"
    return " + ".join(_format_term(m, c, names) for m, c in sorted_terms)


def terms_as_json(sorted_terms: Sequence[tuple[Monomial2, int]]) -> list[list]:
    # Coefficients go out as decimal strings; they can exceed double precision.
    return [[m.exp_a, m.exp_b, str(c)] for m, c in sorted_terms]


def poly_json(poly: Poly2) -> dict:
    return {"truncation": None, "terms": terms_as_json(poly.sorted_terms())}


def series_json(series: TruncSeries2) -> dict:
    return {"truncation": series.truncation, "terms": terms_as_json(series.sorted_terms())}


def coeffs_text(coeffs: Sequence[int]) -> str:
    return ", ".join(str(c) for c in coeffs)


def coeffs_json(coeffs: Sequence[int]) -> dict:
    return {"truncation": len(coeffs) - 1, "coefficients": [str(c) for c in coeffs]}
