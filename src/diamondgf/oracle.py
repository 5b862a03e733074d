"""Brute-force enumeration oracles.

These recount, straight from the poset, what the closed formulas claim.
They are deliberately naive (depth-first search, no memoization, no
algebra, nothing from ``diamonds`` or ``permstat``) so that agreement with
the series machinery is a genuine two-route check rather than a tautology.

The searches only skip branches that can hold no object:

- ``enumerate_ppartitions`` caps element k at ``budget // (1 + u)``, where u
  counts the elements above k. Each of them is at least k's value, so a
  larger value overspends the budget however the rest is filled.
- ``enumerate_infinite_univariate`` seals on an element that lies below
  every later element: the values decrease upward, so a 0 there forces
  every later value to 0. That single completion is counted at once and
  the loop starts at 1.
- ``schmidt_oracle`` caps each link at the unspent link budget over the
  links left, this one included. Links weakly increase, so each later link
  costs at least as much.

``enumerate_ppartitions`` and ``enumerate_infinite_univariate`` reach
every object by its own path and count it once. ``schmidt_oracle`` walks
link chains instead. Its weight ignores fold values, and the d folds of a
block are independent values between the two links around it, so a block
whose links are u <= v holds (v - u + 1)^d fold tuples, and the search
multiplies that count in rather than visiting each tuple. That is still a
plain transcription of the poset's inequalities (weakly increasing links,
each fold sandwiched between its two links), with no E_d, no denominators
and no series. The object-by-object search stays in the tests as its
reference (``tests/test_oracle.py::_unpruned_schmidt``).
"""

from __future__ import annotations

import random
import sys
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
    link tags the second.
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
    values = [0] * (c + 1)
    counts: dict[tuple[int, int], int] = {}

    def assign(k: int, weight_a: int, weight_b: int) -> None:
        if k > c:
            key = (weight_a, weight_b)
            counts[key] = counts.get(key, 0) + 1
            return
        low = max((values[j] for j in lowers[k]), default=0)
        cap = (truncation - weight_a - weight_b) // shares[k]
        for m in range(low, cap + 1):
            values[k] = m
            if is_fold[k]:
                assign(k + 1, weight_a + m, weight_b)
            else:
                assign(k + 1, weight_a, weight_b + m)

    try:
        assign(1, 0, 0)
    finally:
        del assign  # it refers to itself through its closure
    return TruncSeries2(truncation, counts)


def enumerate_diamonds(spec: DiamondSpec, truncation: int) -> TruncSeries2:
    """Enumerate diamonds of the given fold sequence by (fold sum, link sum)."""
    poset, tags = build_diamond_poset(spec)
    return enumerate_ppartitions(poset, tags, truncation)


def enumerate_infinite_univariate(d: int, truncation: int) -> list[int]:
    """Count unbounded-length d-fold diamonds by total part sum.

    Uses the orientation in which parts weakly decrease away from the first
    link, so every assignment has finite support: any nonzero part in block
    n forces n earlier links to be positive, hence a length-T prefix
    captures every diamond of sum <= T exactly once.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if truncation == 0:
        return [1]
    spec = DiamondSpec.uniform(d, truncation)
    c = spec.element_count
    # A size guard, not a depth bound: the search nests at most T + d + 1
    # calls (a seal counts its 0 at once, and a 0 on a fold leaves the link
    # above nothing, so only the folds of one block nest with a 0), but its
    # work grows exponentially with T. A poset of more elements than the
    # frames left under the recursion limit is refused before it is built,
    # so that search never starts. ``left`` keeps two frames back from the
    # limit: one for the call past the last element, and one to spare.
    left, frame = sys.getrecursionlimit() - 2, sys._getframe()
    while frame is not None:
        left, frame = left - 1, frame.f_back
    if c > left:
        raise RecursionError(
            f"the poset has {c} elements, more than the {left} frames left under the "
            "recursion limit; a search that size is refused before it starts"
        )
    poset, _ = build_diamond_poset(spec)
    lowers = [()] + [poset.lower_covers(k) for k in range(1, c + 1)]
    # Values decrease upward, so 0 on an element below every later element
    # forces 0 on the rest.
    seals = [False] + [
        all(poset.down_mask(j) >> k & 1 for j in range(k + 1, c + 1)) for k in range(1, c + 1)
    ]
    values = [0] * (c + 1)
    coeffs = [0] * (truncation + 1)

    def assign(k: int, total: int) -> None:
        # Once the budget is spent the all-zero completion is the only one
        # left, and decreasing constraints always allow it.
        if k > c or total == truncation:
            coeffs[total] += 1
            return
        cap = min((values[j] for j in lowers[k]), default=truncation - total)
        cap = min(cap, truncation - total)
        low = 0
        if seals[k]:
            coeffs[total] += 1
            low = 1
        for m in range(low, cap + 1):
            values[k] = m
            assign(k + 1, total + m)

    try:
        assign(1, 0)
    finally:
        del assign  # it refers to itself through its closure
    return coeffs


def schmidt_oracle(d: int, length: int, truncation: int) -> list[int]:
    """Count length-M diamonds by link sum alone.

    Links form a weakly increasing chain, and a link is capped by the
    unspent budget shared with the links after it. Every fold sits between
    its two neighbouring links and its value does not enter the weight, so
    each chain of links is walked once and carries the number of fold
    tuples it admits: (link - prev_link + 1)^d per block.
    """
    if d < 1 or length < 1:
        raise ValueError("d and length must be at least 1")
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    coeffs = [0] * (truncation + 1)

    def assign(block: int, prev_link: int, link_sum: int, ways: int) -> None:
        # ways: the objects that share this chain of links so far.
        if block > length:
            coeffs[link_sum] += ways
            return
        cap = (truncation - link_sum) // (length - block + 1)
        for link in range(prev_link, cap + 1):
            # d independent folds in [prev_link, link], none of them weighed
            assign(block + 1, link, link_sum + link, ways * (link - prev_link + 1) ** d)

    try:
        for first_link in range(truncation // (length + 1) + 1):
            assign(1, first_link, first_link, 1)
    finally:
        del assign  # it refers to itself through its closure
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
