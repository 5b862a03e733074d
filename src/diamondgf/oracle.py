"""Brute-force enumeration oracles.

These recount, straight from the poset, what the closed formulas claim.
They use no algebra and nothing from ``diamonds`` or ``permstat``, so that
agreement with the series machinery is a genuine two-route check rather
than a tautology. None of them recurses: each is a loop, so its depth is no
limit.

Each oracle counts objects by state, the transfer-matrix method of
Stanley, *EC1* §4.7: objects that agree on what the rest of the order can
still see extend in the same ways, so they are counted together.

- ``enumerate_ppartitions`` places the elements of any finite poset along
  a linear extension: label order, or a greedy one when that keeps fewer
  elements pending at once. Its state is the frontier: the floor of each
  pending element, that is, the largest value among its lower covers
  placed so far. Per state it keeps the number of partial assignments per
  (fold sum, link sum). It only skips values that can complete no object:
  it caps element k at ``budget // (1 + u)``, where u counts the elements
  above k. Each of them is at least k's value, so a larger value
  overspends the budget however the rest is filled. ``enumerate_diamonds``
  is this counter on the diamond poset.
- ``enumerate_infinite_univariate`` keeps, per state (last link, part sum
  so far), the number of objects. Links weakly decrease away from the first
  link, the d folds of a block between links u <= v are d-tuples in
  [u, v], counted by their sum, and a chain of links ends at its first 0.
- ``schmidt_oracle`` weighs links alone, so a block between links u <= v
  holds (v - u + 1)^d fold tuples. It keeps, per state (last link, link
  sum), the number of objects, block by block. Links weakly increase, and a
  link is capped by the unspent link budget over the links left, this one
  included, since each later link costs at least as much.

That is still a plain transcription of the poset's inequalities and the
budget, with no E_d, no denominators and no series. The object-by-object
searches stay in the tests as their references
(``tests/test_oracle.py::_object_search`` and ``_unpruned_schmidt``); the
infinite oracle is checked against ``enumerate_diamonds`` on a long finite
diamond, a count by a different state.
"""

from __future__ import annotations

import itertools
import random
from operator import index
from typing import Iterator, Sequence

from .poset import (
    DiamondSpec,
    FOLD_TAG,
    Poset,
    build_diamond_poset,
    validate_assignment,
)
from .series import TruncSeries2, _check_truncation

DEFAULT_CORPUS_SEED = 20240601


def enumerate_ppartitions(
    p: Poset, assignment: Sequence[str], truncation: int
) -> TruncSeries2:
    """Count order-preserving assignments of nonnegative integers with total
    sum <= truncation, by (fold sum, link sum).

    Elements are placed along a linear extension (``_placement_order``), so
    every lower cover of element k is placed before it. An element is
    pending from its first placed lower cover until it is placed itself,
    and its floor is the largest value among its lower covers placed so
    far. Assignments of the elements placed so far that give every pending
    element the same floor extend in the same ways, so they are kept
    together, counted per (fold sum, link sum).
    Element k takes each value m from its floor up to the unspent budget
    over the elements that share it: k and every element above k, each at
    least m. Then m raises the floors of k's upper covers to at least m.
    When that moves no floor, as for the last element, all of k's values
    land in one state.
    """
    truncation = _check_truncation(truncation)
    tags = validate_assignment(assignment, p.size)
    c = p.size
    uppers: list[list[int]] = [[] for _ in range(c + 1)]
    for k in range(1, c + 1):
        for j in p.lower_covers(k):
            uppers[j].append(k)
    # above[k]: the elements above k, as a bitmask built from the top down.
    above = [0] * (c + 1)
    for k in range(c, 0, -1):
        for u in uppers[k]:
            above[k] |= above[u] | 1 << u
    order = _placement_order(p, uppers)
    # A (fold sum, link sum) pair is kept as one int, its code
    # (fold sum + link sum) * width + fold sum, so a value m adds m * step.
    width = truncation + 1
    pending: list[int] = []
    # the floors of the pending elements, in order -> {code: count}
    states: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    for k in order:
        share = above[k].bit_count() + 1
        step = width + 1 if tags[k - 1] == FOLD_TAG else width
        at = pending.index(k) if k in pending else None
        if at is not None:
            del pending[at]
        lifts = [u in uppers[k] for u in pending]  # floors that k's value raises
        # Upper covers not yet pending have k as their first placed lower
        # cover: they start pending, at k's value.
        fresh = [u for u in uppers[k] if u not in pending]
        pending += fresh
        moves = bool(fresh) or any(lifts)
        after: dict[tuple[int, ...], dict[int, int]] = {}
        for floors, entries in states.items():
            if at is None:
                low, rest = 0, floors
            else:
                low, rest = floors[at], floors[:at] + floors[at + 1:]
            top = (truncation - min(entries) // width) // share
            if top < low:
                continue
            if moves:
                targets = []  # the state that each m in low..top leads to
                for m in range(low, top + 1):
                    key = (*[max(f, m) if lift else f for f, lift in zip(rest, lifts)],
                           *[m] * len(fresh))
                    target = after.get(key)
                    if target is None:
                        target = after[key] = {}
                    targets.append(target)
            else:
                target = after.get(rest)
                if target is None:
                    target = after[rest] = {}
            for code, n in entries.items():
                cap = (truncation - code // width) // share
                placed = range(code + low * step, code + cap * step + 1, step)
                if moves:
                    for e, into in zip(placed, targets):
                        into[e] = into.get(e, 0) + n
                else:
                    for e in placed:
                        target[e] = target.get(e, 0) + n
        states = after
    counts = {}
    for code, n in states.get((), {}).items():
        spent, fold_sum = divmod(code, width)
        counts[(fold_sum, spent - fold_sum)] = n
    return TruncSeries2(truncation, counts)


def _placement_order(p: Poset, uppers: Sequence[Sequence[int]]) -> Sequence[int]:
    """Label order, or a greedy linear extension when that keeps fewer
    elements pending at once: the frontier count costs about (T + 1)^w in
    the largest pending count w, so the narrower order is taken, label
    order on a tie. The greedy order places, among the elements whose lower
    covers are all placed, the one that leaves the fewest pending, the
    smaller label on a tie; it is given up as soon as it is as wide as
    label order. No order is narrower than the most upper covers of one
    element, all pending once it is placed, so label order at that width
    is kept without a search. Either is a linear extension, and the count
    depends only on the order being one."""
    c = p.size
    label = range(1, c + 1)
    # In label order u is pending from its least lower cover until u itself.
    starts = [0] * (c + 1)
    for u in label:
        lowers = p.lower_covers(u)
        if lowers:
            starts[lowers[0]] += 1
            starts[u] -= 1
    widest = max(itertools.accumulate(starts))
    if widest <= max(map(len, uppers)):
        return label
    import heapq  # only a greedy search needs it, so start-up skips it

    unplaced_lowers = [0] + [len(p.lower_covers(k)) for k in label]
    # Placing k unpends k and starts each upper cover of k not yet pending,
    # so the greedy order takes the least |uppers[k] - pending| - [k pending]
    # among the ready k. A score only falls, by one, when an upper cover of
    # its element starts pending; the heap gets a fresh entry then, and an
    # entry whose score is stale, or whose element is placed, is skipped.
    score = [len(ups) for ups in uppers]
    heap = [(score[k], k) for k in label if not unplaced_lowers[k]]
    heapq.heapify(heap)
    placed = bytearray(c + 1)
    pending: set[int] = set()
    greedy = []
    while heap:
        s, k = heapq.heappop(heap)
        if placed[k] or s != score[k]:
            continue
        placed[k] = 1
        pending.discard(k)
        for u in uppers[k]:
            if u not in pending:
                pending.add(u)
                score[u] -= 1
                for j in p.lower_covers(u):
                    score[j] -= 1
                    if not (unplaced_lowers[j] or placed[j]):
                        heapq.heappush(heap, (score[j], j))
        if len(pending) >= widest:
            return label
        greedy.append(k)
        for u in uppers[k]:
            unplaced_lowers[u] -= 1
            if not unplaced_lowers[u]:
                heapq.heappush(heap, (score[u], u))
    return greedy


def enumerate_diamonds(spec: DiamondSpec, truncation: int) -> TruncSeries2:
    """Enumerate diamonds of the given fold sequence by (fold sum, link sum)."""
    truncation = _check_truncation(truncation)
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
    truncation = _check_truncation(truncation)
    d = index(d)
    if d < 1:
        raise ValueError("d must be at least 1")
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
    truncation = _check_truncation(truncation)
    d, length = index(d), index(length)
    if d < 1 or length < 1:
        raise ValueError("d and length must be at least 1")
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


def _random_poset(rng: random.Random, max_size: int) -> tuple[Poset, tuple[str, ...]]:
    """A random naturally labelled poset of 1..max_size elements with a
    random fold/link assignment; ``random_poset_corpus`` checks max_size.

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
    """A reproducible stream of random posets for equivalence testing; a
    ``max_size`` below 1 is refused before any poset is drawn."""
    max_size = index(max_size)
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    rng = random.Random(seed)
    return (_random_poset(rng, max_size) for _ in range(count))
