"""Brute-force enumeration oracles.

These recount, straight from the poset, what the closed formulas claim.
They use no algebra and nothing from ``diamonds`` or ``permstat``, so that
agreement with the series machinery is a genuine two-route check rather
than a tautology. None of them recurses: each is a loop, so its depth is no
limit.

``enumerate_ppartitions`` is a depth-first search on an explicit stack. It
reaches every object by its own path and counts it once, and it only skips
branches that can hold no object: it caps element k at
``budget // (1 + u)``, where u counts the elements above k. Each of them is
at least k's value, so a larger value overspends the budget however the
rest is filled.

The two diamond oracles count by link value instead (the transfer-matrix
method of Stanley, *EC1* §4.7). The d folds of a block are independent
values between the two links around it, so the objects that share a chain
of links differ only in those fold tuples, and a loop over the links alone
can add them up:

- ``enumerate_infinite_univariate`` keeps, per state (last link, part sum
  so far), the number of objects. Links weakly decrease away from the first
  link, the d folds of a block between links u <= v are d-tuples in
  [u, v], counted by their sum, and a chain of links ends at its first 0.
- ``schmidt_oracle`` weighs links alone, so a block between links u <= v
  holds (v - u + 1)^d fold tuples. It keeps, per state (last link, link
  sum), the number of objects, block by block. Links weakly increase, and a
  link is capped by the unspent link budget over the links left, this one
  included, since each later link costs at least as much.

That is still a plain transcription of the poset's inequalities, with no
E_d, no denominators and no series. The object-by-object searches stay in
the tests as their references
(``enumerate_diamonds(...).specialize_univariate()`` and
``tests/test_oracle.py::_unpruned_schmidt``).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

from .poset import (
    DiamondSpec,
    FOLD_TAG,
    Poset,
    build_diamond_poset,
    validate_assignment,
)
from .series import TruncSeries2

DEFAULT_CORPUS_SEED = 20240601


def enumerate_ppartitions(
    p: Poset, assignment: Sequence[str], truncation: int
) -> TruncSeries2:
    """Directly enumerate order-preserving assignments of nonnegative
    integers with total sum <= truncation.

    Elements are assigned in label order, so every lower cover is already
    fixed; each value ranges from the largest lower-cover value up to the
    remaining budget shared with the elements above it. One monomial is
    accumulated per assignment: the fold tags feed the first exponent, the
    link tags the second. The last element's values complete one assignment
    each, so they are counted in one loop.
    """
    tags = validate_assignment(assignment, p.size)
    c = p.size
    lowers = [()] + [p.lower_covers(k) for k in range(1, c + 1)]
    # Element k plus every element above it (all later, by natural labels).
    shares = [1] * (c + 1)
    for j in range(1, c + 1):
        below = p.down_mask(j)
        for k in range(1, j):
            if below >> k & 1:
                shares[k] += 1
    is_fold = [False] + [tag == FOLD_TAG for tag in tags]
    values, caps = [0] * (c + 1), [0] * (c + 1)
    # The fold and link weights of elements 1..k-1, when element k is set.
    spent_a, spent_b = [0] * (c + 1), [0] * (c + 1)
    counts: dict[tuple[int, int], int] = {}
    k, entering = 1, True
    while k:
        if entering:
            weight_a, weight_b = spent_a[k], spent_b[k]
            low = max((values[j] for j in lowers[k]), default=0)
            cap = (truncation - weight_a - weight_b) // shares[k]
            if k == c:
                for m in range(low, cap + 1):
                    key = (weight_a + m, weight_b) if is_fold[k] else (weight_a, weight_b + m)
                    counts[key] = counts.get(key, 0) + 1
                k, entering = k - 1, False
                continue
            values[k], caps[k] = low, cap
        else:
            values[k] += 1
        m = values[k]
        if m > caps[k]:
            k, entering = k - 1, False
            continue
        spent_a[k + 1] = spent_a[k] + m if is_fold[k] else spent_a[k]
        spent_b[k + 1] = spent_b[k] if is_fold[k] else spent_b[k] + m
        k, entering = k + 1, True
    return TruncSeries2(truncation, counts)


def enumerate_diamonds(spec: DiamondSpec, truncation: int) -> TruncSeries2:
    """Enumerate diamonds of the given fold sequence by (fold sum, link sum)."""
    poset, tags = build_diamond_poset(spec)
    return enumerate_ppartitions(poset, tags, truncation)


def _fold_tuples(d: int, gap: int, truncation: int) -> list[int]:
    """Entry t: the d-tuples of values in [0, gap] that sum to t <= truncation."""
    counts = [1]
    for _ in range(d):
        # One more fold: each entry sums a window of gap + 1 entries.
        below = list(itertools.accumulate(counts, initial=0))
        width = min(len(counts) + gap, truncation + 1)
        counts = [below[min(t + 1, len(counts))] - below[max(t - gap, 0)] for t in range(width)]
    return counts


def enumerate_infinite_univariate(d: int, truncation: int) -> list[int]:
    """Count unbounded-length d-fold diamonds by total part sum.

    Uses the orientation in which parts weakly decrease away from the first
    link, so every diamond has finite support: a chain of links ends at its
    first 0, and every part after it is 0. Each state is a chain so far,
    kept as its last link v > 0 and its part sum s; the next block chooses
    a link u <= v and d folds in [u, v].
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    coeffs = [0] * (truncation + 1)
    coeffs[0] = 1  # a first link of 0: every part is 0
    # by_link[v][s]: chains whose last link is v, with part sum s
    by_link = [[0] * (truncation + 1) for _ in range(truncation + 1)]
    for v in range(1, truncation + 1):
        by_link[v][v] = 1  # the first link
    tuples = [_fold_tuples(d, gap, truncation) for gap in range(truncation + 1)]
    # Links only decrease, so once the larger links are done every chain
    # into v is counted; a next link u = v adds to a larger sum of v's own
    # row, which the loop over s reaches later.
    for v in range(truncation, 0, -1):
        row = by_link[v]
        for s, ways in enumerate(row):
            if not ways:
                continue
            for u in range(min(v, (truncation - s) // (d + 1)) + 1):
                # The link u and its d folds, each at least u; the folds'
                # excess over u is a d-tuple in [0, v - u].
                base = s + (d + 1) * u
                target = by_link[u] if u else coeffs  # a chain ends at its first 0
                for t, n in enumerate(tuples[v - u][: truncation - base + 1]):
                    target[base + t] += ways * n
    return coeffs


def schmidt_oracle(d: int, length: int, truncation: int) -> list[int]:
    """Count length-M diamonds by link sum alone.

    Links form a weakly increasing chain, and a link is capped by the
    unspent budget shared with the links after it. Every fold sits between
    its two neighbouring links and its value does not enter the weight, so
    the chains of links are counted block by block, keyed by (last link,
    link sum), each carrying the number of fold tuples it admits:
    (link - prev_link + 1)^d per block.
    """
    if d < 1 or length < 1:
        raise ValueError("d and length must be at least 1")
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    # (last link, link sum) -> the objects that share that chain state
    states = {(link, link): 1 for link in range(truncation // (length + 1) + 1)}
    for block in range(1, length + 1):
        links_left = length - block + 1
        after: dict[tuple[int, int], int] = {}
        for (prev_link, link_sum), ways in states.items():
            for link in range(prev_link, (truncation - link_sum) // links_left + 1):
                # d independent folds in [prev_link, link], none of them weighed
                key = (link, link_sum + link)
                after[key] = after.get(key, 0) + ways * (link - prev_link + 1) ** d
        states = after
    coeffs = [0] * (truncation + 1)
    for (_, link_sum), ways in states.items():
        coeffs[link_sum] += ways
    return coeffs


def random_poset(rng: random.Random, max_size: int = 7) -> tuple[Poset, tuple[str, ...]]:
    """A random naturally labelled poset with a random fold/link assignment.

    Samples an upper-triangular cover matrix at a random density; the Poset
    constructor reduces transitively implied pairs.
    """
    size = rng.randint(1, max_size)
    density = rng.choice((0.15, 0.3, 0.5))
    covers = [
        (j, k)
        for j in range(1, size + 1)
        for k in range(j + 1, size + 1)
        if rng.random() < density
    ]
    tags = tuple(rng.choice("ab") for _ in range(size))
    return Poset(size, covers), tags


def random_poset_corpus(
    count: int, seed: int = DEFAULT_CORPUS_SEED, max_size: int = 7
) -> Iterator[tuple[Poset, tuple[str, ...]]]:
    """A reproducible stream of random posets for equivalence testing."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_poset(rng, max_size)
