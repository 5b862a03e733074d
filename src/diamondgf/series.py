"""Exact arithmetic in two formal variables: polynomials, truncated power
series, and rational expressions with denominators of the shape
prod (1 - monomial).

Coefficients are plain Python integers, so partition counts never wrap
around. Both kinds of value are stored as rows: ``rows[i][j]`` is the
coefficient of a^i b^j. A polynomial's row ends at its last nonzero entry;
a series with total-degree bound T has row i of T - i + 1 entries. Neither
keeps a trailing all-zero row, so equal values have equal rows. The
``terms`` map is built from the rows on first read and cached. The two
variables are anonymous slots; names such as ``a, b`` or ``x, y`` are
attached only at output time.

Values are immutable after construction and operations are pure, so they
are safe to share across threads, and values may share rows: no kernel
writes to a row it did not create. The only later writes, filling cached
``terms`` or a geometric series' rows, are idempotent.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import accumulate, compress, count, repeat, zip_longest
from operator import add, itemgetter, mul, neg, sub
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


# Builds a Monomial2 from an exponent pair in C, skipping the NamedTuple's
# Python-level __new__.
_monomial = partial(tuple.__new__, Monomial2)


def _as_monomial(mono: MonomialLike) -> Monomial2:
    m = _monomial((int(mono[0]), int(mono[1])))
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


Rows = list[list[int]]  # rows[i][j] is the coefficient of a^i b^j
_UNBOUNDED = sys.maxsize // 2  # beyond any degree: exponents index lists


def _trimmed(rows: Rows) -> Rows:  # drops trailing all-zero rows in place
    while rows and not any(rows[-1]):
        rows.pop()
    return rows


def _padded(rows: Rows, truncation: int) -> Rows:
    """Extend each row i in place to T - i + 1 entries, then trim."""
    for i, row in enumerate(rows):
        row += [0] * (truncation - i + 1 - len(row))
    return _trimmed(rows)


def _rows_from_terms(terms: Iterable[tuple[tuple[int, int], int]]) -> Rows:
    """Rows holding the sum of the terms, which may end in zeros."""
    rows: Rows = []
    for (i, j), coeff in terms:
        if i >= len(rows):
            rows += [[] for _ in range(i + 1 - len(rows))]
        row = rows[i]
        if j >= len(row):
            row += [0] * (j + 1 - len(row))
        row[j] += coeff
    return rows


def _series_rows(truncation: int, terms: Iterable[tuple[tuple[int, int], int]]) -> Rows:
    """Series rows, row i of T - i + 1 entries, holding the sum of the terms,
    whose exponents are nonnegative ints of total degree <= T."""
    rows: Rows = []
    for (i, j), coeff in terms:
        while len(rows) <= i:
            rows.append([0] * (truncation - len(rows) + 1))
        rows[i][j] += coeff
    return _trimmed(rows)


def _term_count(rows: Rows) -> int:
    return sum(map(len, rows)) - sum(map(list.count, rows, repeat(0)))


def _clipped(rows: Rows, bound: int) -> Rows:
    """Copies of rows[:bound + 1], row t cut after column bound - t."""
    return [row[:stop] for row, stop in zip(rows, range(bound + 1, 0, -1))]


def _row_product(left: Rows, right: Rows, bound: int) -> Rows:
    """The rows, which may end in zeros, of left * right without terms of
    total degree > bound. The operand whose terms times the other's rows is
    smaller drives: its constant term starts the result as a scaled copy of
    the other's rows, and each other term c a^i b^j adds c times row k of the
    other to result row i + k from column j on, one slice add clipped at the
    bound, stopping at the first row where column j is past the bound."""
    if _term_count(left) * (len(right) + 1) > _term_count(right) * (len(left) + 1):
        left, right = right, left
    height = min(len(left) + len(right) - 1, bound + 1)
    if not (left and right) or height <= 0:
        return []
    const = left[0][0] if left[0] else 0
    if not const:
        out = []
    elif bound == _UNBOUNDED:
        out = list(map(list.copy, right))
    else:
        out = _clipped(right, bound)
    if const and const != 1:
        out = [list(map(mul, repeat(const), row)) for row in out]
    for _ in range(height - len(out)):
        out.append([])
    i = -1
    for row in left[:height]:
        i += 1
        if not row:
            continue
        row = row[:bound - i + 1]
        # A long row's nonzero entries are found in C, so it costs its terms.
        terms = zip(compress(count(), row), filter(None, row)) if len(row) > 16 else enumerate(row)
        for j, coeff in terms:
            if not coeff or not i + j:
                continue  # a zero, or the constant term already copied
            stop = bound - i + 1  # row i + k holds columns below stop - k
            t = i
            for source in right:
                if j >= stop:
                    break
                target = out[t]
                t += 1
                end = j + len(source)
                if end > stop:
                    end = stop
                stop -= 1
                if len(target) <= j:  # nothing from column j on yet: append
                    target += [0] * (j - len(target))
                    target += source[:end - j] if coeff == 1 else map(mul, repeat(coeff), source[:end - j])
                    continue
                if len(target) < end:
                    target += [0] * (end - len(target))
                if coeff == 1:
                    target[j:end] = map(add, target[j:end], source)
                elif coeff == -1:
                    target[j:end] = map(sub, target[j:end], source)
                else:
                    target[j:end] = map(add, target[j:end], map(mul, repeat(coeff), source))
    return out


def _row_sum(left: Rows, right: Rows, sign: int) -> Rows:
    """left + sign * right, row by row; the rows may differ in length, and
    the result may end in zeros."""
    op = add if sign == 1 else sub
    out = []
    for a, b in zip_longest(left, right, fillvalue=()):
        if len(a) == len(b):
            out.append(list(map(op, a, b)))
        elif not b:
            out.append(a[:])
        elif not a:
            out.append(b[:] if sign == 1 else list(map(neg, b)))
        else:
            row = list(map(op, a, b))
            row += a[len(b):] if len(a) > len(b) else b[len(a):] if sign == 1 else map(neg, b[len(a):])
            out.append(row)
    return out


def _ray_quotient(rows: Rows, alpha: int, beta: int) -> Optional[Rows]:
    """The rows of q = rows / (1 - a^alpha b^beta), or None when q is not a
    polynomial. q[i][j] = rows[i][j] + q[i - alpha][j - beta] is a running
    sum along each chain s, s + m, s + 2m, ..., exact iff every chain's tail
    is 0: with alpha = 0 the chains are a row's residue classes mod beta,
    tails its last beta entries; else each row adds the row alpha above,
    shifted by beta, and the tails are the last alpha rows."""
    out: Rows = []
    if not alpha:
        for row in rows:
            quotient = row[:]
            _sweep_row(quotient, beta)
            cut = max(len(quotient) - beta, 0)
            if any(quotient[cut:]):
                return None
            del quotient[cut:]  # an exact quotient row ends in a nonzero entry
            out.append(quotient)
        return out
    for i, row in enumerate(rows):
        quotient = row[:]
        above = out[i - alpha] if i >= alpha else None
        if above:
            end = beta + len(above)
            quotient += [0] * (end - len(quotient))
            quotient[beta:end] = map(add, quotient[beta:end], above)
        out.append(quotient)
    if any(map(any, out[-alpha:])):
        return None
    return out


def _long_division(terms: Mapping, divisor: Mapping) -> dict[Monomial2, int]:
    """The term map of q with q * divisor == terms, or raise NonExactDivision.
    Long division by the graded-lex leading term, whose remainder leaves a
    heap in descending order: O(n log n) in the n monomials it ever holds."""
    lead = max(divisor, key=_grlex)
    lead_coeff = divisor[lead]
    rest = [(da, db, dc) for (da, db), dc in divisor.items() if (da, db) != lead]
    remainder: dict[tuple[int, int], int] = dict(terms)
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
            if key not in remainder:
                heappush(heap, (-key[0] - key[1], -key[0]))
            total = remainder.get(key, 0) - q * dc
            if total:
                remainder[key] = total
            else:
                del remainder[key]
    return quotient


class _TermMap:
    """What polynomials and truncated series share: rows, and the map from
    exponent pairs to nonzero coefficients that they give."""

    __slots__ = ("_rows", "_terms")

    @property
    def terms(self) -> Mapping[Monomial2, int]:
        """Built from the rows on first read and cached; treat as read-only."""
        terms = self._terms
        if terms is None:
            rows = self._rows
            terms = {_monomial((i, j)): c for i, row in enumerate(rows) for j, c in enumerate(row) if c}
            self._terms = terms
        return terms

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

    Row i lists the coefficients of a^i b^0, a^i b^1, ... up to its last
    nonzero one, with no trailing empty row. A sum costs one C-level map per
    row. A product costs one slice add per pair of a term of one factor and
    a row of the other, the cheaper way round. x -> x*y is a shift of each
    row, and division by 1 - m a running sum per row or a row sweep. Memory
    follows the exponents, not the term count: ``Poly2.monomial(0, 10**6)``
    holds a row of 10^6 + 1 entries, about 8 MB.

    >>> x, y = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    >>> ((1 - y) * (1 + y + y**2)).text()
    '1 + -b^3'
    >>> (1 + x * y).substitute(Monomial2(0, 1), Monomial2(1, 0)).text()
    '1 + a*b'
    """

    __slots__ = ()

    def __init__(self, terms: Mapping | Iterable[tuple[MonomialLike, int]] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        collected = _collect(items)
        self._rows = _rows_from_terms(collected.items())
        self._terms = collected

    @classmethod
    def zero(cls) -> "Poly2":
        return _poly([])

    @classmethod
    def one(cls) -> "Poly2":
        return _poly([[1]])

    @classmethod
    def constant(cls, value: int) -> "Poly2":
        return cls({Monomial2(0, 0): value})

    @classmethod
    def monomial(cls, exp_a: int, exp_b: int, coeff: int = 1) -> "Poly2":
        if type(exp_a) is type(exp_b) is type(coeff) is int and exp_a >= 0 and exp_b >= 0:
            return _poly([[] for _ in range(exp_a)] + [[0] * exp_b + [coeff]])
        return cls({Monomial2(exp_a, exp_b): coeff})

    def __bool__(self) -> bool:
        return bool(self._rows)

    def total_degree(self) -> int:
        """Maximum exp_a + exp_b, or -1 for the zero polynomial."""
        return max((i + len(row) - 1 for i, row in enumerate(self._rows) if row), default=-1)

    @staticmethod
    def _coerce(other) -> Optional["Poly2"]:
        if isinstance(other, Poly2):
            return other
        if isinstance(other, int):
            return _poly([[other]] if other else [])
        return None

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._rows == coerced._rows

    def __add__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return _poly(_row_sum(self._rows, coerced._rows, 1))

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return _poly([list(map(neg, row)) for row in self._rows])

    def __sub__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return _poly(_row_sum(self._rows, coerced._rows, -1))

    def __rsub__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return _poly(_row_sum(coerced._rows, self._rows, -1))

    def __mul__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return _poly(_row_product(self._rows, coerced._rows, _UNBOUNDED))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly2":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take a nonnegative integer exponent")
        result = Poly2.one()
        for _ in range(exponent):
            result = result * self
        return result

    def mul_bounded(self, other: Union["Poly2", int], bound: int) -> "Poly2":
        """The product of ``*`` without its terms of total degree > bound, for
        callers that keep only lower degrees. ``other`` is a Poly2 or an int;
        anything else, or a bound that is not an int, raises TypeError."""
        coerced = self._coerce(other)
        if coerced is None:
            raise TypeError(f"mul_bounded takes a Poly2 or an int, not {type(other).__name__}")
        if not isinstance(bound, int):
            raise TypeError(f"mul_bounded takes an int bound, not {type(bound).__name__}")
        return _poly(_row_product(self._rows, coerced._rows, bound))

    def substitute(self, x_image: MonomialLike, y_image: MonomialLike) -> "Poly2":
        """Map each term x^i y^j to x_image^i * y_image^j, recollected exactly.
        x -> x*b^s, y -> y shifts row i by i*s; another y_image without an a
        adds each row as one strided slice, and one with an a writes each term
        straight into its output row."""
        xa, xb = _as_monomial(x_image)
        ya, yb = _as_monomial(y_image)
        rows = self._rows
        if xa == yb == 1 and not ya:
            return _poly([[0] * (i * xb) + row if row else [] for i, row in enumerate(rows)])
        if ya:
            # Row i's terms land in rows i*xa, i*xa + ya, ... one apiece.
            height = max((i * xa + (len(row) - 1) * ya for i, row in enumerate(rows) if row), default=-1) + 1
            out = [[] for _ in range(height)]
            for i, row in enumerate(rows):
                r, col = i * xa, i * xb
                for c in row:
                    if c:
                        target = out[r]
                        if len(target) > col:
                            target[col] += c
                        else:
                            target += [0] * (col - len(target))
                            target.append(c)
                    r += ya
                    col += yb
            return _poly(out)
        out: Rows = [[] for _ in range(xa * len(rows) - xa + 1)] if rows else []
        for i, row in enumerate(rows):
            if row:
                target, start = out[i * xa], i * xb
                values, step = (row, yb) if yb else ([sum(row)], 1)
                stop = start + step * len(values) - step + 1
                if len(target) < stop:
                    target += [0] * (stop - len(target))
                target[start:stop:step] = map(add, target[start:stop:step], values)
        return _poly(out)

    def divide_exact(self, divisor: "Poly2") -> "Poly2":
        """Return q with q * divisor == self, or raise NonExactDivision. A
        divisor of exactly 1 - m divides on the rows (``_ray_quotient``); any
        other, or a remainder, takes ``_long_division``."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        rows = divisor._rows
        if rows[0][:1] == [1] and rows[-1][-1] == -1 and _term_count(rows) == 2:
            quotient = _ray_quotient(self._rows, len(rows) - 1, len(rows[-1]) - 1)
            if quotient is not None:
                return _poly(quotient)
        return Poly2(_long_division(self.terms, divisor.terms))

    def __repr__(self) -> str:
        return f"Poly2({self.text()})"


_last = itemgetter(-1)


def _poly(rows: Rows) -> Poly2:
    """Wrap rows this module built as a Poly2, unchecked, after dropping in
    place each row's trailing zeros and then the trailing empty rows."""
    if not all(map(_last, filter(None, rows))):
        for row in rows:
            if row and not row[-1]:
                del row[bytes(map(bool, row)).rfind(1) + 1:]
    while rows and not rows[-1]:
        rows.pop()
    poly = object.__new__(Poly2)
    poly._rows = rows
    poly._terms = None
    return poly


def _check_truncation(truncation: int) -> None:
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")


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
    """The rows times 1/(1 - a^alpha b^beta): c[i][j] += c[i - alpha][j -
    beta] in increasing (i, j), into new rows. Costs O(T) list operations
    when alpha > 0 and O(sqrt T) per row when alpha = 0."""
    alpha, beta = ray
    if not alpha:
        out = [row[:] for row in rows]
        for row in out:
            _sweep_row(row, beta)
        return _trimmed(out)
    # Row i gains row i - alpha, shifted by beta, while i + beta <= T; the rest are shared.
    zero = [0] * (truncation + 1)
    out = rows[:alpha] + [zero[i:] for i in range(len(rows), alpha)]
    for i in range(alpha, truncation - beta + 1):
        row = rows[i] if i < len(rows) else zero[i:]
        out.append([*row[:beta], *map(add, row[beta:], out[i - alpha])])
    out += rows[len(out):]
    return _trimmed(out)


class TruncSeries2(_TermMap):
    """A power series kept only through total degree ``truncation``.

    Operations between two series require equal truncation bounds; anything
    else raises TruncationMismatch rather than silently mixing precisions.
    """

    __slots__ = ("_truncation", "_ray")

    def __init__(self, truncation: int, terms: Mapping | Iterable = ()) -> None:
        _check_truncation(truncation)
        items = terms.items() if isinstance(terms, Mapping) else terms
        collected = _collect(items)
        for mono in collected:
            if mono.degree > truncation:
                raise ValueError(f"term {mono} exceeds truncation {truncation}")
        self._truncation = truncation
        self._rows = _series_rows(truncation, collected.items())
        self._terms = collected
        self._ray = None

    @classmethod
    def _from_rows(
        cls, truncation: int, rows: Rows, ray: Optional[Monomial2] = None
    ) -> "TruncSeries2":
        """Wrap series rows this module built, unchecked; ``ray`` marks the
        series 1/(1 - ray) for the product sweep."""
        series = cls.__new__(cls)
        series._truncation = truncation
        series._rows = rows
        series._terms = None
        series._ray = ray
        return series

    @classmethod
    def _from_terms(cls, truncation: int, terms: Mapping[tuple[int, int], int]) -> "TruncSeries2":
        """A series from a map of int exponent pairs to coefficients, unchecked:
        the exponents must be nonnegative with total degree <= T."""
        return cls._from_rows(truncation, _series_rows(truncation, terms.items()))

    @classmethod
    def from_poly(cls, poly: Poly2, truncation: int) -> "TruncSeries2":
        """The polynomial viewed as a series: terms beyond the bound drop."""
        _check_truncation(truncation)
        return cls._from_rows(truncation, _padded(_clipped(poly._rows, truncation), truncation))

    @classmethod
    def zero(cls, truncation: int) -> "TruncSeries2":
        return cls(truncation)

    @classmethod
    def one(cls, truncation: int) -> "TruncSeries2":
        return cls(truncation, {Monomial2(0, 0): 1})

    @property
    def truncation(self) -> int:
        return self._truncation

    def __getattr__(self, name: str):
        # Runs only for an unset slot: the rows of a geometric series, which
        # a product with it never reads, are built on first use.
        if name != "_rows" or self._ray is None:
            raise AttributeError(name)
        (alpha, beta), truncation = self._ray, self._truncation
        powers = range(truncation // (alpha + beta) + 1)
        self._rows = _series_rows(truncation, (((k * alpha, k * beta), 1) for k in powers))
        return self._rows

    def _check_compatible(self, other: "TruncSeries2") -> None:
        if self._truncation != other._truncation:
            raise TruncationMismatch(
                f"truncations differ: {self._truncation} vs {other._truncation}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        return self._truncation == other._truncation and self._rows == other._rows

    def _sum(self, other, sign: int):
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        self._check_compatible(other)
        return TruncSeries2._from_rows(self._truncation, _trimmed(_row_sum(self._rows, other._rows, sign)))

    def __add__(self, other: "TruncSeries2") -> "TruncSeries2":
        return self._sum(other, 1)

    def __sub__(self, other: "TruncSeries2") -> "TruncSeries2":
        return self._sum(other, -1)

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
            rows = _padded(_row_product(self._rows, other._rows, bound), bound)
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

    The result records m, so a product with it runs as the sweep c[i][j] +=
    c[i - alpha][j - beta] over the other factor's rows, O(T) list operations
    (O(sqrt T) per row when alpha = 0); its own rows are built only if read.
    """
    m = _as_monomial(mono)
    if m.degree == 0:
        raise NonInvertibleFactor(f"factor (1 - {m}) has no series inverse")
    _check_truncation(truncation)
    series = TruncSeries2.__new__(TruncSeries2)
    series._truncation, series._terms, series._ray = truncation, None, m
    return series  # _rows stays unset until TruncSeries2.__getattr__ builds it


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
        """Multiply the numerator by each factor's geometric expansion, a
        sweep over the rows (see ``geometric_series``). Numerator terms beyond
        the bound drop up front, and factors of degree beyond it expand to 1;
        neither affects a retained coefficient, nor does the factor order."""
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
