"""Permutations of {1..d} with descent statistics and their generating
polynomials.

A permutation is a word: a tuple (w(1), ..., w(d)) containing each of
1..d exactly once. Positions are 1-based, so position j is a descent when
w(j) > w(j+1). ``euler_mahonian`` tallies x^des * y^maj over all d! words;
``djsw_recursion`` builds the same polynomial by a divided-difference
recurrence without touching any permutation, which is what makes the two
routes worth comparing.

The enumeration visits each word once and adds exactly one to the tally of
that word's own (des, maj). It reads a word as a prefix followed by an
ordering of the values left; the ordering's descents depend only on its
word of ranks, so they come from a table built once per enumeration. E_d
depends on d alone, so each d is enumerated at most once per process and
later calls share the result; the recurrence is never cached, so every
comparison of the two routes runs it afresh. The closed forms in
``diamonds`` keep their own copy of each E_d they use, which this module
never reads.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from operator import add

from .series import Monomial2, Poly2

# Enumerating S_d costs d! tally increments: about 0.04 s for 9! and 0.5 s
# for 10! (lifted with --force) on a 2-core Xeon under CPython 3.11, and each
# further d multiplies that. The cost is paid once per d in a process; the
# guard still applies to every call. Beyond the guard callers should use the
# recursion (polynomial time) or lift it.
MAX_ENUM_D = 9

# Length k of the suffix whose statistics come from the rank-word table:
# k! increments per prefix, (k + 1) * k! table entries per call.
_SUFFIX_LEN = 6


class DTooLarge(ValueError):
    """Permutation enumeration requested beyond the factorial-size guard."""


def check_enum_guard(d: int, max_d: int) -> None:
    """Refuse d < 1, and d beyond the enumeration guard with DTooLarge."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if d > max_d:
        raise DTooLarge(f"d={d} exceeds the enumeration guard {max_d}")


def euler_mahonian(d: int, max_d: int = MAX_ENUM_D) -> Poly2:
    """Sum over all permutations of {1..d} of x^descents * y^(major index).

    Evaluated at x = y = 1 this is d!. The guard is checked on every call;
    the enumeration runs at most once per d in a process, and later calls
    return the same Poly2, which callers must not mutate.

    >>> euler_mahonian(2).text(("x", "y"))
    '1 + x*y'
    """
    check_enum_guard(d, max_d)
    return _enumerate(d)


@functools.cache
def _enumerate(d: int) -> Poly2:
    """E_d by visiting every word of S_d once; d is already guarded.

    Each word w = prefix + suffix is visited once, with k = min(d, 6)
    suffix letters and r = d - k prefix letters: the prefix is one of the
    r-letter arrangements from ``itertools.permutations`` and the suffix
    one of the k! orderings of the values left, read as a word in their
    ranks 0..k-1. The suffix's own descents sit at positions offset by r,
    and its first letter is below the prefix's last letter exactly when its
    rank is below t, the number of values left that are smaller than that
    letter; so the key des * stride + maj of every suffix, junction
    included, is looked up in ``table[t]``. Each word adds exactly one to
    the tally of its own key.
    """
    k = min(d, _SUFFIX_LEN)
    r = d - k
    stride = d * (d - 1) // 2 + 1  # one more than the largest major index
    suffixes = []  # (key of the descents inside the suffix, rank of its first letter)
    for word in itertools.permutations(range(k)):
        key = 0
        for j in range(1, k):
            if word[j - 1] > word[j]:
                key += stride + r + j
        suffixes.append((key, word[0]))
    junction = stride + r  # the descent at position r
    # Without a prefix there is no junction and only table[0] is read.
    table = [[key + junction if first < t else key for key, first in suffixes]
             for t in range(k + 1 if r else 1)]

    counts: Counter[int] = Counter()
    for prefix in itertools.permutations(range(1, d + 1), r):
        key = 0
        for j in range(1, r):
            if prefix[j - 1] > prefix[j]:
                key += stride + j
        if r:
            last = prefix[-1]
            t = last - 1 - sum(1 for v in prefix if v < last)
        else:
            t = 0
        counts.update(map(add, itertools.repeat(key), table[t]))
    return Poly2({divmod(key, stride): count for key, count in counts.items()})


def eulerian(d: int, max_d: int = MAX_ENUM_D) -> Poly2:
    """The descent-count polynomial: euler_mahonian with y set to 1."""
    return euler_mahonian(d, max_d).substitute(Monomial2(1, 0), Monomial2(0, 0))


def djsw_recursion(d: int) -> Poly2:
    """The descent polynomial built by recurrence instead of enumeration.

    F_1 = 1 and

        F_d(x, y) = ((1 - x*y^d) F_{d-1}(x, y) - y (1 - x) F_{d-1}(x*y, y)) / (1 - y)

    where the division must be remainder-free; a NonExactDivision here
    signals an implementation bug, not bad input. Nothing is cached: each
    call runs the whole recurrence and returns a new Poly2.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
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
