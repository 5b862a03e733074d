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

A product with ``geometric_series(m, T, p)``, that is 1/(1 - m)^p, on the
right is a sweep over the left factor's rows, not a convolution: when m has
no a, one ``_sweep_row`` call per row, at most min(p, sqrt T) * sqrt T slice
operations (sqrt T for p = 1), else p passes of O(T) list operations.
``RationalExpr.expand`` makes one such product per distinct denominator
factor, with p its multiplicity.

Values are immutable after construction and operations are pure, so they
are safe to share across threads, and values may share rows: no kernel
writes to a row it did not create. The only later writes, filling cached
``terms`` or a geometric series' rows, are idempotent.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, compress, count, repeat, zip_longest
from math import comb
from operator import add, index, itemgetter, mul, neg, sub
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
    m = _monomial((index(mono[0]), index(mono[1])))
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
# The most coefficients, (T + 1)(T + 2)/2, of a bivariate series that a sweep
# fills, lifted or not. sigma_closed(1, 1, 4400), 9.7 million cells, peaks at
# 0.24 GiB in 1.2 s on a shared 2-core host.
MAX_SERIES_CELLS = 10**7


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
    if len(left) == 1 == len(right):
        return _one_row_product(left[0], right[0], bound)
    if _term_count(left) * (len(right) + 1) > _term_count(right) * (len(left) + 1):
        left, right = right, left
    height = min(len(left) + len(right) - 1, bound + 1)
    if not (left and right) or height <= 0:
        return []
    const = left[0][0] if left[0] else 0
    out = _clipped(right, bound) if const else []
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
        # The row's nonzero entries are found in C, so it costs its terms.
        for j, coeff in zip(compress(count(), row), filter(None, row)):
            if not i + j:
                continue  # the constant term, already copied
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


def _one_row_product(left: list[int], right: list[int], bound: int) -> Rows:
    """``_row_product`` of two one-row operands: the row with fewer nonzero
    entries drives, its constant term starting the result as a scaled copy
    of the other row, and each other entry adding one scaled slice of it."""
    if len(left) - left.count(0) > len(right) - right.count(0):
        left, right = right, left
    size = min(len(left) + len(right) - 1, bound + 1)
    if size <= 0:
        return []
    const = left[0]
    out = right[:size] if const == 1 else list(map(mul, repeat(const), right[:size]))
    out += [0] * (size - len(out))
    rest = left[1:size]
    for j, coeff in zip(compress(count(1), rest), filter(None, rest)):
        stop = j + len(right)
        if coeff == 1:
            out[j:stop] = map(add, out[j:stop], right)
        else:
            out[j:stop] = map(add, out[j:stop], map(mul, repeat(coeff), right))
    return [out]


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
        coefficients, or None when equal. Rows are canonical, so equal rows
        answer None before either term map is built."""
        if self._rows == other._rows:
            return None
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
    row, and division by 1 - b^k a running sum per row. Memory follows the
    exponents, not the term count: ``Poly2.monomial(0, 10**6)`` holds a row
    of 10^6 + 1 entries, about 8 MB.

    >>> x, y = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    >>> ((1 - y) * (1 + y + y * y)).text()
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
    def one(cls) -> "Poly2":
        return _poly([[1]])

    @classmethod
    def monomial(cls, exp_a: int, exp_b: int, coeff: int = 1) -> "Poly2":
        if type(exp_a) is type(exp_b) is type(coeff) is int and exp_a >= 0 and exp_b >= 0:
            return _poly([[] for _ in range(exp_a)] + [[0] * exp_b + [coeff]])
        return cls({Monomial2(exp_a, exp_b): coeff})

    def __bool__(self) -> bool:
        return bool(self._rows)

    @staticmethod
    def _coerce(other) -> Optional["Poly2"]:
        if isinstance(other, Poly2):
            return other
        if isinstance(other, int):
            return _poly([[other]] if other else [])
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, int):  # compared as rows, with no Poly2 built
            return self._rows == ([[other]] if other else [])
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._rows == other._rows

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

    def substitute(
        self, x_image: MonomialLike, y_image: MonomialLike, bound: Optional[int] = None
    ) -> "Poly2":
        """Map each term x^i y^j to x_image^i * y_image^j, recollected exactly.
        With a bound, as in ``mul_bounded``, no image of total degree > bound
        is written, so the result is the exact one without those terms; each
        row is cut before its first such term. x -> x*b^s, y -> y shifts row
        i by i*s; any other pair writes each term straight into its output
        row. A bound that is not an int raises TypeError."""
        xa, xb = _as_monomial(x_image)
        ya, yb = _as_monomial(y_image)
        rows = self._rows
        if bound is None:
            bound = _UNBOUNDED
        elif not isinstance(bound, int):
            raise TypeError(f"substitute takes an int bound, not {type(bound).__name__}")
        if bound != _UNBOUNDED:
            # Row i keeps its terms j with i*deg(x_image) + j*deg(y_image) <= bound.
            x_degree, y_degree = xa + xb, ya + yb
            rows = [
                [] if i * x_degree > bound
                else row[:(bound - i * x_degree) // y_degree + 1] if y_degree else row
                for i, row in enumerate(rows)
            ]
        if xa == yb == 1 and not ya:
            return _poly([[0] * (i * xb) + row if row else [] for i, row in enumerate(rows)])
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

    def divide_exact(self, divisor: "Poly2") -> "Poly2":
        """Return q with q * divisor == self for a divisor 1 - b^k, k >= 1,
        the recurrence's only divisor. q[i][j] = self[i][j] + q[i][j - k] is
        a running sum along each residue class mod k of each row, exact iff
        every class's sum ends at 0, that is iff the last k entries of each
        swept row are 0. For k = 1, the recurrence's case, a row's quotient
        is built by one ``accumulate`` pass, with no copy first; larger k
        sweep a copy with ``_sweep_row``. A remainder in any row raises
        NonExactDivision, any other divisor ValueError."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        rows = divisor._rows
        if not (len(rows) == 1 and rows[0][0] == 1 and rows[0][-1] == -1
                and _term_count(rows) == 2):
            raise ValueError(f"divide_exact divides only by 1 - b^k, not by {divisor.text()}")
        step = len(rows[0]) - 1
        out: Rows = []
        for row in self._rows:
            if step == 1:
                quotient = list(accumulate(row))
            else:
                quotient = row[:]
                _sweep_row(quotient, step)
            cut = max(len(quotient) - step, 0)
            if any(quotient[cut:]):
                raise NonExactDivision(f"no exact quotient by {divisor.text()}")
            del quotient[cut:]  # an exact quotient row ends in a nonzero entry
            out.append(quotient)
        return _poly(out)

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


def _check_truncation(truncation: int) -> int:
    """The truncation as an exact int, refused when negative. It is read
    with ``operator.index``, as exponents are in ``_as_monomial``: a float
    raises TypeError, and a bool becomes the int it stands for."""
    truncation = index(truncation)
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    return truncation


def _sweep_row(row: list[int], step: int, power: int = 1) -> None:
    """The row times 1/(1 - b^step)^power, in place; at power 1, row[j] +=
    row[j - step] for j increasing. With K = (len - 1) // step, the
    multiples of step that fit, it costs step slice operations when step^2
    <= len, K when 1 < power and K <= power, else power * K."""
    if step * step <= len(row):
        # Each residue class mod step becomes its power-fold running sum.
        for start in range(step):
            sums = accumulate(row[start::step])
            for _ in range(power - 1):
                sums = accumulate(sums)
            row[start::step] = sums
    elif power > 1 and (len(row) - 1) // step <= power:
        # The row adds C(k + power - 1, k) times its original entries,
        # shifted by k*step, for k = 1..K: K slice multiply-adds, not
        # power * K block adds.
        original = row[:]
        for k in range(1, (len(row) - 1) // step + 1):
            row[k * step:] = map(add, row[k * step:], map(mul, repeat(comb(k + power - 1, k)), original))
    else:
        # Each block of step entries adds the finished block before it, once per power.
        for _ in range(power):
            for start in range(step, len(row), step):
                row[start:start + step] = map(add, row[start:start + step], row[start - step:start])


def _sweep(rows: Rows, ray: Monomial2, power: int, truncation: int) -> Rows:
    """The rows times 1/(1 - a^alpha b^beta)^power, into new rows. When
    alpha > 0, power passes of c[i][j] += c[i - alpha][j - beta] in
    increasing (i, j), each O(T) list operations, which fill the triangle:
    past MAX_SERIES_CELLS cells that raises MemoryError before it starts.
    When alpha = 0, one ``_sweep_row`` call per row, at most
    min(power, sqrt T) * sqrt T slice operations."""
    alpha, beta = ray
    if not alpha:
        out = [row[:] for row in rows]
        for row in out:
            _sweep_row(row, beta, power)
        return out  # a nonzero row stays nonzero, so the rows stay trimmed
    if (truncation + 1) * (truncation + 2) // 2 > MAX_SERIES_CELLS:
        raise MemoryError(f"a series through degree {truncation} passes {MAX_SERIES_CELLS} cells")
    zero = [0] * (truncation + 1)
    for _ in range(power):
        # Row i gains row i - alpha, shifted by beta, while i + beta <= T; the rest are shared.
        out = rows[:alpha] + [zero[i:] for i in range(len(rows), alpha)]
        for i in range(alpha, truncation - beta + 1):
            row = rows[i] if i < len(rows) else zero[i:]
            out.append([*row[:beta], *map(add, row[beta:], out[i - alpha])])
        out += rows[len(out):]
        rows = _trimmed(out)
    return rows


class TruncSeries2(_TermMap):
    """A power series kept only through total degree ``truncation``.

    Operations between two series require equal truncation bounds; anything
    else raises TruncationMismatch rather than silently mixing precisions.
    """

    __slots__ = ("_truncation", "_ray")

    def __init__(self, truncation: int, terms: Mapping | Iterable = ()) -> None:
        truncation = _check_truncation(truncation)
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
    def _from_rows(cls, truncation: int, rows: Rows) -> "TruncSeries2":
        """Wrap series rows this module built, unchecked."""
        series = cls.__new__(cls)
        series._truncation = truncation
        series._rows = rows
        series._terms = None
        series._ray = None
        return series

    @classmethod
    def _from_terms(cls, truncation: int, terms: Mapping[tuple[int, int], int]) -> "TruncSeries2":
        """A series from a map of int exponent pairs to coefficients, unchecked:
        the exponents must be nonnegative with total degree <= T."""
        return cls._from_rows(truncation, _series_rows(truncation, terms.items()))

    @classmethod
    def from_poly(cls, poly: Poly2, truncation: int) -> "TruncSeries2":
        """The polynomial viewed as a series: terms beyond the bound drop."""
        truncation = _check_truncation(truncation)
        return cls._from_rows(truncation, _padded(_clipped(poly._rows, truncation), truncation))

    @classmethod
    def zero(cls, truncation: int) -> "TruncSeries2":
        return cls(truncation)

    @property
    def truncation(self) -> int:
        return self._truncation

    def __getattr__(self, name: str):
        # Runs only for an unset slot: the rows of a geometric series, which
        # a product with it on the right never reads, are built on first use.
        if name != "_rows" or self._ray is None:
            raise AttributeError(name)
        ((alpha, beta), power), truncation = self._ray, self._truncation
        ks = range(truncation // (alpha + beta) + 1)
        terms = (((k * alpha, k * beta), comb(k + power - 1, k)) for k in ks)
        self._rows = _series_rows(truncation, terms)
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
        if other._ray is not None:  # callers put the geometric factor on the right
            rows = _sweep(self._rows, *other._ray, bound)
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


def geometric_series(mono: MonomialLike, truncation: int, power: int = 1) -> TruncSeries2:
    """1/(1 - m)^power = sum_k C(k + power - 1, k) m^k through the truncation
    bound; the power is read with ``operator.index`` and must be at least 1.

    The result records m and the power, so a product with it on the right
    runs as a sweep over the left factor's rows, c[i][j] += c[i - alpha][j
    - beta] once per power: power passes of O(T) list operations when alpha
    > 0, at most min(power, sqrt T) * sqrt T slice operations per row when
    alpha = 0 (see ``_sweep_row``). Its own rows are built only if read, as
    by a product with it on the left, and then carry the binomial
    coefficients.
    """
    m = _as_monomial(mono)
    if m.degree == 0:
        raise NonInvertibleFactor(f"factor (1 - {m}) has no series inverse")
    truncation = _check_truncation(truncation)
    power = index(power)
    if power < 1:
        raise ValueError("power must be at least 1")
    series = TruncSeries2.__new__(TruncSeries2)
    series._truncation, series._terms, series._ray = truncation, None, (m, power)
    return series  # _rows stays unset until TruncSeries2.__getattr__ builds it


@dataclass(frozen=True)
class RationalExpr:
    """numerator / prod (1 - m) for monomials m of total degree >= 1. Each
    factor is converted and checked as given, one at a time, so a float
    exponent raises TypeError even beside an equal int pair."""

    numerator: Poly2
    denominator_factors: tuple[Monomial2, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.numerator, Poly2):
            raise TypeError("numerator must be a Poly2")
        factors = []
        for mono in self.denominator_factors:
            m = _as_monomial(mono)
            if m.degree == 0:
                raise NonInvertibleFactor(f"factor (1 - {m}) has no series inverse")
            factors.append(m)
        object.__setattr__(self, "denominator_factors", tuple(factors))

    def expand(self, truncation: int) -> TruncSeries2:
        """Multiply the numerator by each distinct factor's geometric
        expansion, raised to the factor's multiplicity: one product, one
        row copy and one powered sweep per distinct factor, not per copy
        (see ``geometric_series``), so prod_n (1 - b^n)^(d+1) makes T
        products, not (d + 1) T. Numerator
        terms beyond the bound drop up front, and factors of degree beyond it
        expand to 1; neither affects a retained coefficient, nor does the
        factor order or grouping."""
        truncation = _check_truncation(truncation)
        series = TruncSeries2.from_poly(self.numerator, truncation)
        for mono, power in Counter(self.denominator_factors).items():
            if mono.degree > truncation:
                continue
            series = series * geometric_series(mono, truncation, power)
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


def terms_json(value: Union[Poly2, TruncSeries2]) -> dict:
    """A polynomial (truncation None) or a truncated series as JSON."""
    truncation = value.truncation if isinstance(value, TruncSeries2) else None
    return {"truncation": truncation, "terms": terms_as_json(value.sorted_terms())}


def coeffs_text(coeffs: Sequence[int]) -> str:
    return ", ".join(str(c) for c in coeffs)


def coeffs_json(coeffs: Sequence[int]) -> dict:
    return {"truncation": len(coeffs) - 1, "coefficients": [str(c) for c in coeffs]}
