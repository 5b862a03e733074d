import gc
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from diamondgf import oracle
from diamondgf.oracle import (
    enumerate_diamonds,
    enumerate_infinite_univariate,
    enumerate_ppartitions,
    random_poset_corpus,
    schmidt_oracle,
)
from diamondgf.poset import (
    DiamondSpec,
    Poset,
    build_diamond_poset,
    jordan_holder,
    stanley_sigma,
)
from diamondgf.series import Poly2, RationalExpr, TruncSeries2


def test_random_poset_corpus_refuses_an_empty_size_range():
    # Refused when called, before any poset is drawn, in the library's words.
    with pytest.raises(ValueError, match="^max_size must be at least 1$"):
        random_poset_corpus(1, 1, 0)


def test_the_per_poset_sampler_is_private():
    # Only the corpus draws posets, and it checks max_size; a public sampler
    # would take max_size 0 and leak random's own "empty range" text.
    assert not hasattr(oracle, "random_poset")


def test_ppartitions_chain_pair():
    # pairs m1 <= m2 with m1 + m2 <= 2: (0,0), (0,1), (0,2), (1,1)
    s = enumerate_ppartitions(Poset(2, [(1, 2)]), ("b",) * 2, 2)
    assert s == TruncSeries2(2, {(0, 0): 1, (0, 1): 1, (0, 2): 2})


def test_ppartitions_truncation_zero():
    for p in (Poset(3, [(1, 2), (2, 3)]), Poset(4)):
        s = enumerate_ppartitions(p, ("b",) * p.size, 0)
        assert s == TruncSeries2(0, {(0, 0): 1})


def test_ppartitions_antichain():
    s = enumerate_ppartitions(Poset(2), ("b",) * 2, 3)
    assert s == TruncSeries2(3, {(0, 0): 1, (0, 1): 2, (0, 2): 3, (0, 3): 4})


def test_enumerate_diamonds_single_chain_block():
    s = enumerate_diamonds(DiamondSpec.uniform(1, 1), 3)
    expected = RationalExpr(Poly2.one(), ((0, 1), (1, 1), (1, 2))).expand(3)
    assert s == expected


def test_enumerate_diamonds_two_fold_block():
    # direct listing of 4-element diamonds with total sum <= 2
    s = enumerate_diamonds(DiamondSpec.uniform(2, 1), 2)
    assert s == TruncSeries2(2, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 1): 2})


def test_enumerate_diamonds_truncation_zero():
    assert enumerate_diamonds(DiamondSpec((3, 1)), 0) == TruncSeries2(0, {(0, 0): 1})


def test_infinite_univariate_values():
    assert enumerate_infinite_univariate(2, 3) == [1, 1, 3, 4]
    assert enumerate_infinite_univariate(1, 4) == [1, 1, 2, 3, 5]
    for d in (1, 2, 3):
        assert enumerate_infinite_univariate(d, 0) == [1]
        assert enumerate_infinite_univariate(d, 5)[0] == 1


def test_infinite_univariate_validation():
    with pytest.raises(ValueError, match="^d must be at least 1$"):
        enumerate_infinite_univariate(0, 2)
    with pytest.raises(ValueError, match="^truncation must be nonnegative$"):
        enumerate_infinite_univariate(2, -1)


def test_schmidt_oracle_values():
    # 1/((1-q)^2 (1-q^2)) through q^2
    assert schmidt_oracle(1, 1, 2) == [1, 2, 4]
    for d in (1, 2, 3):
        assert schmidt_oracle(d, 2, 3)[0] == 1


def test_schmidt_oracle_validation():
    with pytest.raises(ValueError):
        schmidt_oracle(0, 1, 2)
    with pytest.raises(ValueError):
        schmidt_oracle(1, 1, -1)


def test_oracle_outputs_count_objects():
    # nonnegative coefficients, constant term 1 (the empty assignment)
    bivariate = [
        enumerate_diamonds(DiamondSpec((2, 1)), 5),
        enumerate_ppartitions(Poset(4, [(1, 2), (2, 3), (3, 4)]), ("b",) * 4, 5),
    ]
    for s in bivariate:
        assert s.coefficient(0, 0) == 1
        assert all(c >= 0 for c in s.terms.values())
    univariate = [
        enumerate_infinite_univariate(2, 6),
        schmidt_oracle(2, 3, 6),
    ]
    for coeffs in univariate:
        assert coeffs[0] == 1
        assert all(c >= 0 for c in coeffs)


def test_corpus_is_deterministic():
    first = [
        (p.size, sorted(p.covers), tags)
        for p, tags in random_poset_corpus(20, seed=99, max_size=6)
    ]
    second = [
        (p.size, sorted(p.covers), tags)
        for p, tags in random_poset_corpus(20, seed=99, max_size=6)
    ]
    assert first == second
    sizes = {entry[0] for entry in first}
    assert len(sizes) > 1  # the corpus varies


def test_corpus_matches_stanley_on_a_sample():
    for p, tags in random_poset_corpus(40, seed=5, max_size=6):
        assert stanley_sigma(p, tags, 6) == enumerate_ppartitions(p, tags, 6)


oracle_settings = settings(max_examples=60, deadline=None)


@st.composite
def small_posets(draw, max_size=5):
    size = draw(st.integers(1, max_size))
    pairs = [(j, k) for j in range(1, size + 1) for k in range(j + 1, size + 1)]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    tags = tuple(draw(st.lists(st.sampled_from("ab"), min_size=size, max_size=size)))
    return Poset(size, covers), tags


@oracle_settings
@given(small_posets(), st.integers(0, 5))
def test_ppartitions_match_exhaustive_search(poset_and_tags, truncation):
    # Every value tuple in [0, T]^c, kept when order-preserving and in budget.
    p, tags = poset_and_tags
    counts = {}
    for values in itertools.product(range(truncation + 1), repeat=p.size):
        if sum(values) > truncation:
            continue
        if any(values[j - 1] > values[k - 1] for j, k in p.covers):
            continue
        fold_sum = sum(v for v, tag in zip(values, tags) if tag == "a")
        key = (fold_sum, sum(values) - fold_sum)
        counts[key] = counts.get(key, 0) + 1
    assert enumerate_ppartitions(p, tags, truncation) == TruncSeries2(truncation, counts)


def _object_search(p, tags, truncation):
    # Every P-partition visited one at a time by a depth-first search on an
    # explicit stack, in label order: element k ranges from the largest
    # value of its lower covers up to the unspent budget shared with the
    # elements above it, and the last element's values are counted in one
    # loop.
    c = p.size
    lowers = [()] + [p.lower_covers(k) for k in range(1, c + 1)]
    shares = [1] * (c + 1)
    down = [0] * (c + 1)  # strict down-sets as bitmasks, bit i for element i
    for j in range(1, c + 1):
        for i in lowers[j]:
            down[j] |= down[i] | 1 << i
        for k in range(1, j):
            if down[j] >> k & 1:
                shares[k] += 1
    is_fold = [False] + [tag == "a" for tag in tags]
    values, caps = [0] * (c + 1), [0] * (c + 1)
    spent_a, spent_b = [0] * (c + 1), [0] * (c + 1)
    counts = {}
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


@oracle_settings
@given(small_posets(max_size=7), st.integers(0, 10))
def test_frontier_count_matches_the_object_search(poset_and_tags, truncation):
    p, tags = poset_and_tags
    assert enumerate_ppartitions(p, tags, truncation) == _object_search(p, tags, truncation)


@oracle_settings
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 12))
def test_frontier_count_matches_the_object_search_on_diamonds(folds, truncation):
    p, tags = build_diamond_poset(DiamondSpec(tuple(folds)))
    assert enumerate_ppartitions(p, tags, truncation) == _object_search(p, tags, truncation)


@st.composite
def relabelled_posets(draw):
    """A corpus poset, or w chains of two with covers i -> i + w, which
    label order places worst, under the labels of a random linear
    extension, so each stays naturally labelled."""
    if draw(st.booleans()):
        p, tags = next(random_poset_corpus(1, draw(st.integers(0, 10**6)), 8))
    else:
        w = draw(st.integers(1, 4))
        p = Poset(2 * w, [(i, i + w) for i in range(1, w + 1)])
        tags = tuple(draw(st.lists(st.sampled_from("ab"), min_size=2 * w, max_size=2 * w)))
    placed, extension = set(), []
    while len(extension) < p.size:
        ready = [k for k in range(1, p.size + 1)
                 if k not in placed and placed.issuperset(p.lower_covers(k))]
        k = draw(st.sampled_from(ready))
        placed.add(k)
        extension.append(k)
    label = {k: i for i, k in enumerate(extension, 1)}
    covers = [(label[j], label[k]) for j, k in p.covers]
    return Poset(p.size, covers), tuple(tags[k - 1] for k in extension)


@oracle_settings
@given(relabelled_posets(), st.integers(0, 9))
def test_any_natural_labelling_counts_like_the_object_search(poset_and_tags, truncation):
    # The counter places elements in label order or in a greedy linear
    # extension, whichever keeps fewer pending; the object search always
    # walks label order.
    p, tags = poset_and_tags
    assert enumerate_ppartitions(p, tags, truncation) == _object_search(p, tags, truncation)


def test_chains_across_labels_count_in_the_narrow_order_within_a_time_bound():
    # Covers i -> i + 10: label order keeps all ten upper elements pending at
    # once, (T + 1)^10 floor states, and took 97 s at T = 20; the greedy
    # order places each chain's top right after its bottom, one pending.
    p = Poset(20, [(i, i + 10) for i in range(1, 11)])
    start = time.monotonic()
    counted = enumerate_ppartitions(p, ("a", "b") * 10, 20)
    assert time.monotonic() - start < 1.0
    # Element i is an a exactly when i is odd, so five chains hold two a's,
    # 1/((1 - a)(1 - a^2)) each, and five two b's.
    chains = ((1, 0), (2, 0)) * 5 + ((0, 1), (0, 2)) * 5
    assert counted == RationalExpr(Poly2.one(), chains).expand(20)


def _uppers(p):
    uppers = [[] for _ in range(p.size + 1)]
    for k in range(1, p.size + 1):
        for j in p.lower_covers(k):
            uppers[j].append(k)
    return uppers


def _greedy_placement_order(p, uppers):
    """The placement order by a full rescan of the ready elements at each
    step: label order when no linear extension can be narrower, else the
    greedy extension that leaves the fewest pending, smaller label first,
    given up for label order as soon as it is as wide."""
    c = p.size
    label = range(1, c + 1)
    starts = [0] * (c + 1)
    for u in label:
        lowers = p.lower_covers(u)
        if lowers:
            starts[lowers[0]] += 1
            starts[u] -= 1
    widest = max(itertools.accumulate(starts))
    if widest <= max(map(len, uppers)):
        return label
    unplaced_lowers = [0] + [len(p.lower_covers(k)) for k in label]
    ready = [k for k in label if not unplaced_lowers[k]]
    pending = set()
    greedy = []
    while ready:
        k = min([(len(pending.union(uppers[k])) - (k in pending), k) for k in ready])[1]
        pending.discard(k)
        pending.update(uppers[k])
        if len(pending) >= widest:
            return label
        ready.remove(k)
        greedy.append(k)
        for u in uppers[k]:
            unplaced_lowers[u] -= 1
            if not unplaced_lowers[u]:
                ready.append(u)
    return greedy


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_posets(max_size=12), relabelled_posets()))
def test_the_heap_placement_order_is_the_greedy_rescan(poset_and_tags):
    p, _ = poset_and_tags
    uppers = _uppers(p)
    assert list(oracle._placement_order(p, uppers)) == list(_greedy_placement_order(p, uppers))


def test_the_placement_order_of_a_wide_poset_within_a_time_bound():
    # Covers i -> i + 1000: a rescan of the up to 1000 ready elements at
    # each of 2000 steps took about half a second; the heap touches each
    # cover a constant number of times.
    w = 1000
    p = Poset(2 * w, [(i, i + w) for i in range(1, w + 1)])
    uppers = _uppers(p)
    start = time.monotonic()
    order = oracle._placement_order(p, uppers)
    assert time.monotonic() - start < 0.1
    assert list(order) == [k for i in range(1, w + 1) for k in (i, i + w)]


def _unpruned_schmidt(d, length, truncation):
    coeffs = [0] * (truncation + 1)

    def assign(block, prev_link, link_sum):
        if block > length:
            coeffs[link_sum] += 1
            return
        for link in range(prev_link, truncation - link_sum + 1):
            for _folds in itertools.product(range(prev_link, link + 1), repeat=d):
                assign(block + 1, link, link_sum + link)

    for first_link in range(truncation + 1):
        assign(1, first_link, first_link)
    return coeffs


@oracle_settings
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 7))
def test_schmidt_oracle_matches_unpruned_search(d, length, truncation):
    assert schmidt_oracle(d, length, truncation) == _unpruned_schmidt(d, length, truncation)


@pytest.mark.parametrize("d, length, truncation", [(4, 1, 5), (4, 2, 6), (5, 1, 4), (5, 2, 5)])
def test_schmidt_oracle_matches_unpruned_search_at_larger_d(d, length, truncation):
    # The property above stops at d = 3; these reach the exponent of the
    # (v - u + 1)^d fold tuples per block at d = 4 and 5.
    assert schmidt_oracle(d, length, truncation) == _unpruned_schmidt(d, length, truncation)


@oracle_settings
@given(st.integers(1, 3), st.integers(0, 7))
def test_infinite_oracle_matches_a_long_finite_diamond(d, truncation):
    # A length-T diamond holds every infinite diamond of total sum <= T.
    finite = enumerate_diamonds(DiamondSpec.uniform(d, max(truncation, 1)), truncation)
    assert enumerate_infinite_univariate(d, truncation) == finite.specialize_univariate()


@pytest.mark.parametrize(
    "d, truncation", [(4, 0), (4, 1), (4, 7), (4, 10), (5, 1), (5, 6), (5, 10)]
)
def test_infinite_oracle_matches_a_long_finite_diamond_at_larger_d(d, truncation):
    # The property above stops at d = 3; these reach the d-tuples of fold
    # values per block, counted by their sum, at d = 4 and 5.
    finite = enumerate_diamonds(DiamondSpec.uniform(d, max(truncation, 1)), truncation)
    assert enumerate_infinite_univariate(d, truncation) == finite.specialize_univariate()


@pytest.mark.parametrize(
    "search",
    [
        lambda: enumerate_ppartitions(Poset(3, [(1, 2), (2, 3)]), ("b",) * 3, 4),
        lambda: enumerate_infinite_univariate(2, 6),
        lambda: schmidt_oracle(2, 3, 6),
        lambda: jordan_holder(Poset(4, [(1, 4), (2, 4), (3, 4)])),
    ],
    ids=["ppartitions", "infinite", "schmidt", "jordan_holder"],
)
def test_searches_leave_no_reference_cycles(search):
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        search()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
