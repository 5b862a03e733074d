import gc
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from diamondgf import budget, poset
from diamondgf.poset import (
    FOLD_TAG,
    MAX_JH_WORDS,
    CycleDetected,
    DiamondSpec,
    NotNaturallyLabelled,
    ParseError,
    Poset,
    build_diamond_poset,
    jordan_holder,
    parse_poset_file,
    stanley_sigma,
    _declared_size,
    validate_assignment,
)
from diamondgf.series import Monomial2, Poly2, RationalExpr, TruncSeries2


CHAIN2 = Poset(2, [(1, 2)])
CHAIN3 = Poset(3, [(1, 2), (2, 3)])
ANTICHAIN2 = Poset(2)
Q2 = Poset(3, [(1, 3), (2, 3)])  # two elements under one top


def _linear_sum(first, second):
    """Every element of ``first`` below every element of ``second``: the
    maximal elements of the first are covered by the minimal ones of the
    second, shifted up by the first's size."""
    shift = first.size
    tops = sorted({*range(1, first.size + 1)} - {j for j, _ in first.covers})
    bottoms = [k for k in range(1, second.size + 1) if not second.lower_covers(k)]
    covers = [*first.covers, *((j + shift, k + shift) for j, k in second.covers)]
    covers += [(j, k + shift) for j in tops for k in bottoms]
    return Poset(first.size + second.size, covers)


def _dual(p):
    """Reverse every relation; relabelling j -> size + 1 - j keeps it natural."""
    return Poset(p.size, [(p.size + 1 - k, p.size + 1 - j) for j, k in p.covers])


def _down_masks(p):
    """Each element's strict down-set as a bitmask (bit j for element j),
    at index k, grown from the lower covers in label order."""
    down = [0] * (p.size + 1)
    for k in range(1, p.size + 1):
        for j in p.lower_covers(k):
            down[k] |= down[j] | 1 << j
    return down


def test_q_poset():
    # d elements under one top: the top's lower covers, and one upper cover each
    q3 = Poset(4, [(1, 4), (2, 4), (3, 4)])
    assert q3.lower_covers(4) == (1, 2, 3)
    assert all(q3.lower_covers(j) == () for j in (1, 2, 3))
    assert q3.covers == frozenset({(1, 4), (2, 4), (3, 4)})
    assert _down_masks(Q2)[3] == 0b110  # bits 1 and 2


def test_poset_validation():
    with pytest.raises(NotNaturallyLabelled):
        Poset(2, [(2, 1)])
    with pytest.raises(CycleDetected):
        Poset(2, [(1, 1)])
    with pytest.raises(ValueError):
        Poset(2, [(1, 3)])
    with pytest.raises(ValueError):
        Poset(0)


@pytest.mark.parametrize(
    "cover, error, message",
    [
        ((1, 3), ParseError, "element 3 out of range 1..2"),
        ((0, 2), ParseError, "element 0 out of range 1..2"),
        ((2, 2), CycleDetected, "cover 2 2 relates an element to itself"),
        ((2, 1), NotNaturallyLabelled, "cover 2 1 decreases; labels must increase along relations"),
    ],
    ids=["above-range", "below-range", "self-cover", "decreasing"],
)
def test_poset_and_parser_check_covers_alike(cover, error, message):
    # One validator serves both: the parser adds the line number, Poset does not.
    with pytest.raises(error) as built:
        Poset(2, [cover])
    assert str(built.value) == message and built.value.lineno is None
    with pytest.raises(error) as parsed:
        parse_poset_file("elements 2\ncover {} {}\n".format(*cover))
    assert str(parsed.value) == f"line 2: {message}" and parsed.value.lineno == 2


def test_transitive_reduction():
    p = Poset(3, [(1, 2), (2, 3), (1, 3)])
    assert p.covers == frozenset({(1, 2), (2, 3)})
    assert _down_masks(p)[3] == 0b110  # bits 1 and 2


def _reference_reduction(size, covers):
    """The transitive reduction in three passes: the given lower covers of
    each element, the strict down-sets, then each given cover j -> k kept
    unless j lies below another given lower cover of k."""
    raw_lowers = {k: {j for j, top in covers if top == k} for k in range(1, size + 1)}
    down = [0] * (size + 1)
    for k in range(1, size + 1):
        for j in raw_lowers[k]:
            down[k] |= down[j] | 1 << j
    reduced = frozenset(
        (j, k) for k in range(1, size + 1) for j in raw_lowers[k]
        if not any(down[z] >> j & 1 for z in raw_lowers[k] if z != j)
    )
    return reduced, down


@st.composite
def cover_lists(draw, max_size=20):
    """A size and a cover list with duplicates and transitively implied
    pairs, shuffled."""
    size = draw(st.integers(1, max_size))
    pairs = [(j, k) for k in range(2, size + 1) for j in range(1, k)]
    if not pairs:
        return size, []
    covers = draw(st.lists(st.sampled_from(pairs), max_size=3 * size))
    down = _reference_reduction(size, covers)[1]
    implied = [(j, k) for j, k in pairs if down[k] >> j & 1]
    if implied:
        covers += draw(st.lists(st.sampled_from(implied), max_size=size))
    return size, draw(st.permutations(covers))


@settings(max_examples=300, deadline=None)
@given(cover_lists())
def test_one_pass_reduction_matches_the_three_pass_reference(case):
    size, covers = case
    reduced = _reference_reduction(size, covers)[0]
    p = Poset(size, covers)
    assert p.covers == reduced
    for k in range(1, size + 1):
        assert p.lower_covers(k) == tuple(sorted(j for j, top in reduced if top == k))


def test_linear_sum_examples():
    # Pins the reference that build_diamond_poset is compared against below.
    assert _linear_sum(Poset(1), Poset(1)) == CHAIN2
    assert _linear_sum(CHAIN2, CHAIN2) == Poset(4, [(1, 2), (2, 3), (3, 4)])
    diamond = _linear_sum(Poset(1), Q2)
    assert diamond.covers == frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})


def test_linear_sum_extension_counts_multiply():
    cases = [CHAIN2, ANTICHAIN2, Q2]
    for first in cases:
        for second in cases:
            combined = _linear_sum(first, second)
            assert len(jordan_holder(combined)) == len(jordan_holder(first)) * len(
                jordan_holder(second)
            )


def test_diamond_spec():
    spec = DiamondSpec.uniform(2, 3)
    assert spec.length == 3
    with pytest.raises(ValueError):
        DiamondSpec(())
    with pytest.raises(ValueError):
        DiamondSpec((1, 0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Poly2({(1.5, 0): 1}),
        lambda: DiamondSpec((2.7, 1)),
        lambda: Poset(3, [(1.2, 2.9)]),
    ],
    ids=["monomial", "folds", "cover"],
)
def test_a_non_integral_exponent_fold_or_label_is_refused(build):
    # Read as an int, 1.5 would silently become 1.
    with pytest.raises(TypeError):
        build()


def test_build_diamond_poset():
    p, tags = build_diamond_poset(DiamondSpec.uniform(1, 1))
    assert p == CHAIN3
    assert tags == ("b", "a", "b")

    p, tags = build_diamond_poset(DiamondSpec.uniform(2, 1))
    assert p.covers == frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})
    assert tags == ("b", "a", "a", "b")

    p, tags = build_diamond_poset(DiamondSpec.uniform(2, 2))
    assert p.size == 7
    assert tags == ("b", "a", "a", "b", "a", "a", "b")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8))
def test_build_diamond_poset_is_the_linear_sum_of_blocks(folds):
    reference = Poset(1)
    for d in folds:
        block = Poset(d + 1, [(j, d + 1) for j in range(1, d + 1)])
        reference = _linear_sum(reference, block)
    p, _ = build_diamond_poset(DiamondSpec(folds))
    assert p == reference
    for k in range(1, p.size + 1):
        assert p.lower_covers(k) == reference.lower_covers(k)
    assert _down_masks(p) == _down_masks(reference)


def test_jordan_holder_examples():
    assert jordan_holder(CHAIN2) == [(1, 2)]
    assert jordan_holder(ANTICHAIN2) == [(1, 2), (2, 1)]
    diamond, _ = build_diamond_poset(DiamondSpec.uniform(2, 1))
    assert jordan_holder(diamond) == [(1, 2, 3, 4), (1, 3, 2, 4)]


def test_jordan_holder_lex_order_and_counts():
    words = jordan_holder(Poset(3))
    assert words == sorted(words)
    assert len(words) == 6
    for d in (1, 2, 3):
        for length in (1, 2, 3):
            p, _ = build_diamond_poset(DiamondSpec.uniform(d, length))
            with budget.lifted():  # d = 3, M = 3 has 13 elements
                words = jordan_holder(p)
            assert len(words) == math.factorial(d) ** length


def test_jordan_holder_guard():
    big = Poset(13, [(j, j + 1) for j in range(1, 13)])
    with pytest.raises(budget.TooLarge):
        jordan_holder(big)
    with budget.lifted():
        assert len(jordan_holder(big)) == 1


def test_jordan_holder_word_budget(monkeypatch):
    # The budget holds under budget.lifted() too, and a level is refused
    # before it is built: an antichain's level k holds c!/(c - k)! words.
    assert MAX_JH_WORDS >= math.factorial(9)
    monkeypatch.setattr(poset, "MAX_JH_WORDS", 6)
    assert len(jordan_holder(Poset(3))) == 6
    with pytest.raises(ValueError, match="more than 6 linear extensions") as refused:
        with budget.lifted():
            jordan_holder(Poset(4))
    assert type(refused.value) is ValueError
    assert len(jordan_holder(CHAIN3)) == 1


def test_stanley_sigma_chain():
    # unique extension, no descents: 1/((1-b)(1-b^2)(1-b^3))
    s = stanley_sigma(CHAIN3, ("b",) * 3, 4)
    assert s == TruncSeries2(
        4, {(0, 0): 1, (0, 1): 1, (0, 2): 2, (0, 3): 3, (0, 4): 4}
    )


def test_stanley_sigma_antichain():
    s = stanley_sigma(ANTICHAIN2, ("b",) * 2, 3)
    assert s == TruncSeries2(3, {(0, 0): 1, (0, 1): 2, (0, 2): 3, (0, 3): 4})


def test_stanley_sigma_single_diamond_block():
    # the 3-chain tagged (b, a, b) expands 1/((1-b)(1-ab)(1-ab^2))
    p, tags = build_diamond_poset(DiamondSpec.uniform(1, 1))
    s = stanley_sigma(p, tags, 3)
    expected = RationalExpr(Poly2.one(), ((0, 1), (1, 1), (1, 2))).expand(3)
    assert s == expected
    assert s == TruncSeries2(
        3,
        {(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 1): 1, (1, 2): 2},
    )


def test_stanley_sigma_validates_assignment():
    with pytest.raises(ValueError):
        stanley_sigma(CHAIN2, ("a",), 3)
    with pytest.raises(ValueError):
        stanley_sigma(CHAIN2, ("a", "q"), 3)


def _reference_stanley_sigma(p, assignment, truncation):
    """Stanley's formula one denominator group at a time: each group of
    words with equal suffix monomials runs its own RationalExpr.expand."""
    tags = validate_assignment(assignment, p.size)
    c = p.size
    words = jordan_holder(p)
    groups: dict[tuple[Monomial2, ...], dict[Monomial2, int]] = {}
    for w in words:
        suffix: list[Monomial2] = [Monomial2(0, 0)] * c
        count_a = count_b = 0
        for i in range(c - 1, -1, -1):
            if tags[w[i] - 1] == FOLD_TAG:
                count_a += 1
            else:
                count_b += 1
            suffix[i] = Monomial2(count_a, count_b)
        numer_a = numer_b = 0
        for j in range(1, c):
            if w[j - 1] > w[j]:
                numer_a += suffix[j].exp_a
                numer_b += suffix[j].exp_b
        key = tuple(sorted(suffix))
        numerators = groups.setdefault(key, {})
        mono = Monomial2(numer_a, numer_b)
        numerators[mono] = numerators.get(mono, 0) + 1

    total = TruncSeries2.zero(truncation)
    for factors, numerators in groups.items():
        total = total + RationalExpr(Poly2(numerators), factors).expand(truncation)
    return total


@st.composite
def small_posets(draw, max_size=7):
    """A naturally labelled poset of at most ``max_size`` elements, with
    fold/link tags."""
    size = draw(st.integers(1, max_size))
    pairs = [(j, k) for k in range(2, size + 1) for j in range(1, k)]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    tags = tuple(draw(st.lists(st.sampled_from("ab"), min_size=size, max_size=size)))
    return Poset(size, covers), tags


@settings(max_examples=150, deadline=None)
@given(small_posets(), st.integers(0, 9))
def test_stanley_sigma_matches_the_per_group_expansion(case, truncation):
    # T < c cuts the denominator keys, so words whose denominators differ
    # only past T share a group.
    p, tags = case
    assert stanley_sigma(p, tags, truncation) == _reference_stanley_sigma(p, tags, truncation)


def _extension_count(p):
    """Linear extensions counted over down-sets: the ways to reach each
    down-set, grown one element at a time."""
    down = _down_masks(p)
    ways = {0: 1}  # bit k set for each placed k
    for _ in range(p.size):
        grown: dict[int, int] = {}
        for placed, n in ways.items():
            for k in range(1, p.size + 1):
                below = down[k]
                if not placed >> k & 1 and below & placed == below:
                    key = placed | 1 << k
                    grown[key] = grown.get(key, 0) + n
        ways = grown
    return sum(ways.values())


@settings(max_examples=150, deadline=None)
@given(small_posets())
def test_jordan_holder_lists_every_extension_once_in_order(case):
    p, _ = case
    words = jordan_holder(p)
    assert words == sorted(set(words))
    assert len(words) == _extension_count(p)
    for w in words:
        assert sorted(w) == list(range(1, p.size + 1))
        position = {element: i for i, element in enumerate(w)}
        assert all(position[j] < position[k] for j, k in p.covers)


def test_large_poset_retains_little_memory():
    # 1001 elements: down-sets as sets would hold about half a million
    # entries; the poset keeps only its lower covers.
    gc.collect()
    tracemalloc.start()
    try:
        p, _ = build_diamond_poset(DiamondSpec.uniform(4, 200))
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.size == 1001
    assert retained < 4 * 2**20
    down = _down_masks(p)
    assert down[7] == sum(1 << j for j in range(1, 7))
    assert down[1001] == sum(1 << j for j in range(1, 1001))


def test_uniform_diamond_self_dual():
    for d in (1, 2, 3):
        for length in (1, 2, 3):
            p, tags = build_diamond_poset(DiamondSpec.uniform(d, length))
            assert _dual(p) == p
            assert tags == tags[::-1]


def test_multifold_dual_reverses_fold_sequence():
    p12, _ = build_diamond_poset(DiamondSpec((1, 2)))
    p21, _ = build_diamond_poset(DiamondSpec((2, 1)))
    assert _dual(p12) == p21
    assert p12 != p21


def test_parse_chain_file():
    p, tags = parse_poset_file("elements 3\ncover 1 2\ncover 2 3\n")
    assert p == CHAIN3
    assert tags == ("b", "b", "b")


def test_parse_diamond_file_matches_builder():
    text = """
    # a single two-fold diamond block
    elements 4
    cover 1 2
    cover 1 3
    cover 2 4
    cover 3 4
    assign a 2 3
    """
    p, tags = parse_poset_file(text)
    expected_p, expected_tags = build_diamond_poset(DiamondSpec.uniform(2, 1))
    assert p == expected_p
    assert tags == expected_tags


def test_parse_handles_duplicates_and_redundant_covers():
    text = "elements 3\ncover 1 2\ncover 1 2\ncover 2 3\ncover 1 3\n"
    p, _ = parse_poset_file(text)
    assert p.covers == frozenset({(1, 2), (2, 3)})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(NotNaturallyLabelled) as err:
        parse_poset_file("elements 2\ncover 2 1\n")
    assert err.value.lineno == 2

    with pytest.raises(CycleDetected) as err:
        parse_poset_file("elements 2\n\ncover 2 2\n")
    assert err.value.lineno == 3

    with pytest.raises(ParseError) as err:
        parse_poset_file("elements 2\ncover 1\n")
    assert err.value.lineno == 2

    with pytest.raises(ParseError):
        parse_poset_file("cover 1 2\nelements 3\n")
    with pytest.raises(ParseError):
        parse_poset_file("elements 2\ncover 1 5\n")
    with pytest.raises(ParseError):
        parse_poset_file("elements 2\nfrobnicate 1\n")
    with pytest.raises(ParseError):
        parse_poset_file("elements 2\nassign b 1\n")
    with pytest.raises(ParseError):
        parse_poset_file("elements two\n")
    with pytest.raises(ParseError):
        parse_poset_file("# nothing but comments\n")
    with pytest.raises(ParseError):
        parse_poset_file("elements 2\nelements 2\n")


def _not_an_int(token):
    try:
        int(token)
    except ValueError:
        return True
    return False


# Junk holds no whitespace or line break, so each drawn line stays one line
# of the tokens drawn for it.
_junk = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp", "Zs")), min_size=1, max_size=4
).filter(_not_an_int)
# Labels run negative, through zero and past 2^64. An 'elements' count stays
# at 64 or below: the parser builds a poset of the size it declares, with
# work and memory per element, and only the CLI refuses a large one unread.
_labels = st.one_of(st.integers(-3, 70), st.integers(2**64, 2**70)).map(str)
_counts = st.integers(-3, 64).map(str)
_comments = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8)
_fuzz_lines = st.one_of(
    st.lists(st.one_of(_counts, _junk), max_size=2).map(lambda rest: ["elements", *rest]),
    st.lists(st.one_of(_labels, _junk), max_size=3).map(lambda rest: ["cover", *rest]),
    st.lists(st.one_of(st.sampled_from(["a", "b"]), _labels, _junk), max_size=4).map(
        lambda rest: ["assign", *rest]
    ),
    st.lists(st.one_of(_labels, _junk.filter(lambda t: t != "elements")), min_size=1, max_size=3),
)
# Lines the grammar accepts once 'elements' admits their labels.
_small = st.integers(1, 8)
_sound_lines = st.one_of(
    st.lists(_small, min_size=2, max_size=2, unique=True).map(lambda pair: ["cover", *map(str, sorted(pair))]),
    st.lists(_small.map(str), min_size=1, max_size=3).map(lambda rest: ["assign", "a", *rest]),
    st.just([]),
)


@st.composite
def poset_texts(draw):
    """A file that may open with an 'elements' line, then sound lines with
    up to three fuzz lines among them, each line perhaps commented."""
    lines = [["elements", draw(_counts)]] if draw(st.booleans()) else []
    lines += draw(st.lists(_sound_lines, max_size=10))
    for tokens in draw(st.lists(_fuzz_lines, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), tokens)
    for index, tokens in enumerate(lines):
        comment = draw(st.one_of(st.none(), _comments))
        lines[index] = " ".join(tokens) + ("" if comment is None else f" #{comment}")
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(poset_texts())
def test_parser_returns_or_raises_parse_error_on_any_text(text):
    try:
        p, tags = parse_poset_file(text)
    except ParseError:
        return
    assert len(tags) == p.size <= 64
    # The count the CLI checks against its guard before parsing is the one
    # the parser built.
    assert _declared_size(text) == p.size
