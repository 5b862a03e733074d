"""Permutations of {1..d} with descent statistics and their generating
polynomials.

A permutation is a word: a tuple (w(1), ..., w(d)) containing each of
1..d exactly once. Positions are 1-based, so position j is a descent when
w(j) > w(j+1). ``euler_mahonian`` tallies x^des * y^maj over all d! words;
``djsw_recursion`` builds the same polynomial by a divided-difference
recurrence without touching any permutation, which is what makes the two
routes worth comparing.

The count reads words letter by letter and keeps together the words that
agree on the rank of their last letter, which is all the next letter sees:
the transfer-matrix method (Stanley, *EC1* §4.7). It takes polynomial time
and only adds up word counts, with no polynomial arithmetic. Each d is
counted at most once per process and later calls share the result; the
recurrence is never cached, so every comparison of the two routes runs it
afresh. The closed forms in ``diamonds`` keep their own copy of each E_d
they use, which this module never reads.
"""

from __future__ import annotations

import functools
from collections import Counter
from operator import index

from . import budget
from .series import Monomial2, Poly2

# Counting S_d by state takes O(d^2) tally sums of O(d^3) keys each: about
# 2 ms for E_9, 0.3 s for E_25 and 0.8 s for E_30 (lifted with --force) on a
# 2-core Xeon under CPython 3.11, once per d in a process. The guard applies
# to every call; past it, use the recursion (faster still) or lift it.
MAX_ENUM_D = 25

# The recurrence costs about d^5: 0.26 s at d = 60 and 0.93 s at d = 80 on
# the same host. The guard applies to every call; lift it past 60.
MAX_RECURSION_D = 60


def _check_guard(d: int, limit: int, route: str) -> int:
    """d as an exact int, refused when below 1 or, unless
    ``budget.lifted()``, above the route's limit. It is read with
    ``operator.index``, so a float raises TypeError."""
    d = index(d)
    if d < 1:
        raise ValueError("d must be at least 1")
    budget.check(d, limit, f"d={d} exceeds the {route} guard {limit}")
    return d


def check_enum_guard(d: int) -> int:
    """``_check_guard`` for the enumeration's guard, MAX_ENUM_D."""
    return _check_guard(d, MAX_ENUM_D, "enumeration")


def check_recursion_guard(d: int) -> int:
    """``_check_guard`` for the recurrence's guard, MAX_RECURSION_D."""
    return _check_guard(d, MAX_RECURSION_D, "recurrence")


def euler_mahonian(d: int) -> Poly2:
    """Sum over all permutations of {1..d} of x^descents * y^(major index).

    Evaluated at x = y = 1 this is d!. The words are counted by state, not
    listed one by one, in polynomial time. The guard is checked on every
    call; the count runs at most once per d in a process, and later calls
    return the same Poly2, which callers must not mutate.

    >>> euler_mahonian(2).text(("x", "y"))
    '1 + x*y'
    """
    return _enumerate(check_enum_guard(d))


@functools.cache
def _enumerate(d: int) -> Poly2:
    """E_d by counting the words of S_d by state; d is already guarded.

    The first k letters of a word, read in their ranks among themselves,
    extend in ways that depend only on the rank r of the last one: a next
    letter of rank s in 0..k makes position k a descent exactly when s <= r.
    So ``tallies[r]`` counts the k-letter words ending in rank r by their
    key des * stride + maj, and a step moves the words with r >= s and with
    r < s to rank s as two running sums, the first shifted by the descent.
    """
    stride = d * (d - 1) // 2 + 1  # one more than the largest major index
    tallies = [Counter({0: 1})]  # the one word of one letter
    for k in range(1, d):
        descent = stride + k  # the key of a descent at position k
        above: Counter[int] = Counter()  # the words with r >= s, zero counts kept
        for tally in tallies:
            above.update(tally)
        below: Counter[int] = Counter()  # the words with r < s
        extended = []
        for tally in [*tallies, Counter()]:  # the words with r = s
            ending = below.copy()  # the (k + 1)-letter words ending in rank s
            ending.update({key + descent: n for key, n in above.items() if n})
            extended.append(ending)
            above.subtract(tally)
            below.update(tally)
        tallies = extended
    counts = sum(tallies, Counter())
    return Poly2({divmod(key, stride): n for key, n in counts.items()})


def eulerian(d: int) -> Poly2:
    """The descent-count polynomial: euler_mahonian with y set to 1."""
    return euler_mahonian(d).substitute(Monomial2(1, 0), Monomial2(0, 0))


def djsw_recursion(d: int) -> Poly2:
    """The descent polynomial built by recurrence instead of counting words.

    F_1 = 1 and

        F_d(x, y) = ((1 - x*y^d) F_{d-1}(x, y) - y (1 - x) F_{d-1}(x*y, y)) / (1 - y)

    where the division must be remainder-free; a NonExactDivision here
    signals an implementation bug, not bad input. Nothing is cached: each
    call runs the whole recurrence and returns a new Poly2. Unless
    ``budget.lifted()``, d above MAX_RECURSION_D is refused.
    """
    d = check_recursion_guard(d)
    one = Poly2.one()
    y = Poly2.monomial(0, 1)
    one_minus_y = one - y
    y_one_minus_x = y * (one - Poly2.monomial(1, 0))
    f = one
    for k in range(2, d + 1):
        shifted = f.substitute(Monomial2(1, 1), Monomial2(0, 1))
        numerator = (one - Poly2.monomial(1, k)) * f - y_one_minus_x * shifted
        f = numerator.divide_exact(one_minus_y)
    return f
