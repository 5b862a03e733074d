"""Naturally labelled finite posets, the diamond poset, linear extension
enumeration, and the linear-extension expansion of the P-partition
generating function.

Natural labelling means j below k in the order implies j < k as integers.
One check enforces it on every cover, from code or from a poset file.
Cover input may contain duplicates and transitively implied pairs;
construction reduces them. Listing linear extensions refuses more than
MAX_JH_SIZE elements with ``budget.TooLarge``, which ``budget.lifted()``
lifts, and more than MAX_JH_WORDS words, which nothing lifts.

The P-partitions of a disjoint union are independent pairs, so its
generating function is the product of its components' (Stanley 1972; EC1
§3.15). Stanley's route therefore walks each connected component of the
cover graph on its own, and both guards apply per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from operator import add, gt, index
from typing import Iterable, Iterator, Optional, Sequence

from . import budget
from .series import TruncSeries2, _check_truncation, geometric_series

# Linear-extension counts can reach c!, so enumeration is guarded by poset
# size; budget.lifted() lifts the guard.
MAX_JH_SIZE = 12

# The most words jordan_holder lists, lifted or not: 9! = 362,880
# (verify main --d 9 --M 1) fits, while a 12-element antichain's 12! words
# would take tens of GiB.
MAX_JH_WORDS = 10**6

FOLD_TAG = "a"
LINK_TAG = "b"


class ParseError(ValueError):
    """Malformed poset file input."""

    def __init__(self, message: str, lineno: Optional[int] = None) -> None:
        self.lineno = lineno
        super().__init__(message if lineno is None else f"line {lineno}: {message}")


class NotNaturallyLabelled(ParseError):
    """A cover relation j -> k with j > k."""


class CycleDetected(ParseError):
    """A relation from an element to itself (the only cycle natural labels allow)."""


def _check_cover(j: int, k: int, size: int, lineno: Optional[int] = None) -> None:
    """Refuse a cover j -> k that leaves 1..size, relates an element to
    itself or decreases. ``lineno`` is the poset-file line it came from."""
    for v in (j, k):
        if not 1 <= v <= size:
            raise ParseError(f"element {v} out of range 1..{size}", lineno)
    if j == k:
        raise CycleDetected(f"cover {j} {k} relates an element to itself", lineno)
    if j > k:
        raise NotNaturallyLabelled(
            f"cover {j} {k} decreases; labels must increase along relations", lineno
        )


class Poset:
    """A partial order on {1..size} given by cover relations.

    Covers are stored transitively reduced. Since every cover must increase
    the integer label, acyclicity is automatic. The reduction reads each
    strict down-set as an int bitmask (bit j for element j) in one pass by
    label; the masks are dropped once it is done, and only the lower covers
    are kept.
    """

    __slots__ = ("size", "covers", "_lowers")

    def __init__(self, size: int, covers: Iterable[tuple[int, int]] = ()) -> None:
        if size < 1:
            raise ValueError("a poset needs at least one element")
        down = [0] * (size + 1)  # one step before any loop: a huge size fails at once
        raw: list[set[int]] = [set() for _ in range(size + 1)]  # the given lower covers
        for pair in covers:
            j, k = index(pair[0]), index(pair[1])
            _check_cover(j, k, size)
            raw[k].add(j)

        # Covers point upward, so one ascending pass builds the strict
        # down-sets. No element lies strictly below itself, so the down-sets
        # of k's given lower covers hold exactly the implied ones.
        self._lowers = {}
        for k in range(1, size + 1):
            below = 0
            for j in raw[k]:
                below |= down[j]
            lowers = self._lowers[k] = tuple(sorted(j for j in raw[k] if not below >> j & 1))
            down[k] = below | sum(1 << j for j in lowers)
        self.size = size
        self.covers = frozenset((j, k) for k, lowers in self._lowers.items() for j in lowers)

    def lower_covers(self, k: int) -> tuple[int, ...]:
        return self._lowers[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.size == other.size and self.covers == other.covers

    def __hash__(self) -> int:
        return hash((self.size, self.covers))

    def __repr__(self) -> str:
        return f"Poset(size={self.size}, covers={sorted(self.covers)})"


@dataclass(frozen=True)
class DiamondSpec:
    """Fold counts per diamond block, bottom block first."""

    folds: tuple[int, ...]

    def __post_init__(self) -> None:
        folds = tuple(map(index, self.folds))
        if not folds:
            raise ValueError("a diamond needs at least one block")
        if any(d < 1 for d in folds):
            raise ValueError("every block needs at least one fold")
        object.__setattr__(self, "folds", folds)

    @classmethod
    def uniform(cls, d: int, length: int) -> "DiamondSpec":
        length = index(length)
        if length < 1:
            raise ValueError("length must be at least 1")
        return cls((d,) * length)

    @property
    def length(self) -> int:
        return len(self.folds)


def build_diamond_poset(spec: DiamondSpec) -> tuple[Poset, tuple[str, ...]]:
    """The chain of diamond blocks: a bottom link, then for each block its
    folds (an antichain) capped by the next link.

    Returns the poset together with the variable assignment tagging link
    elements ``b`` and fold elements ``a``. Every element of a block lies
    above every element below the block, so the poset is the ordinal sum of
    a one-element chain and the blocks; its covers are listed directly.
    """
    covers: list[tuple[int, int]] = []
    tags = [LINK_TAG]
    link = 1
    for d in spec.folds:
        top = link + d + 1
        for fold in range(link + 1, top):
            covers.append((link, fold))
            covers.append((fold, top))
        tags.extend([FOLD_TAG] * d)
        tags.append(LINK_TAG)
        link = top
    return Poset(link, covers), tuple(tags)


def validate_assignment(assignment: Sequence[str], size: int) -> tuple[str, ...]:
    tags = tuple(assignment)
    if len(tags) != size:
        raise ValueError(f"assignment covers {len(tags)} elements, poset has {size}")
    if any(tag not in (FOLD_TAG, LINK_TAG) for tag in tags):
        raise ValueError(f"assignment tags must be '{FOLD_TAG}' or '{LINK_TAG}'")
    return tags


def check_size(size: int) -> None:
    """Refuse more than MAX_JH_SIZE elements, unless ``budget.lifted()``."""
    message = f"poset has {size} elements, guard is {MAX_JH_SIZE}"
    budget.check(size, MAX_JH_SIZE, message)


def check_extensions(factors: Iterable[int]) -> None:
    """Refuse a poset whose linear extensions, counted as the product of
    ``factors``, number more than MAX_JH_WORDS, even under
    ``budget.lifted()``. The product stops at the first factor that takes it
    past the budget, so a huge count is never built."""
    count = 1
    for factor in factors:
        count *= factor
        if count > MAX_JH_WORDS:
            raise ValueError(f"poset has more than {MAX_JH_WORDS} linear extensions")


def jordan_holder(p: Poset) -> list[tuple[int, ...]]:
    """All linear extensions as words, in lexicographic order.

    A word lists the poset elements so that every element appears after all
    elements below it. The words grow one letter per level, without
    recursion. The letters of a prefix form a down-set, and what may follow
    depends on that set alone: each element not yet placed whose lower
    covers all are. So each level keeps its prefixes grouped by down-set,
    and a group's next letters are found once, by int mask tests, and
    appended to all of its prefixes at once. A prefix always completes to
    some extension, so no level holds more prefixes than the answer has
    words; the last level is one group, sorted once. Each level is counted
    before it is built, and a level of more than MAX_JH_WORDS words raises
    ValueError, even under ``budget.lifted()``.
    """
    check_size(p.size)
    # (the one-letter word, its bit, the mask of its lower covers), by label
    elements = [
        ((k,), 1 << k, sum(1 << j for j in p.lower_covers(k))) for k in range(1, p.size + 1)
    ]
    level: dict[int, list[tuple[int, ...]]] = {0: [()]}
    for _ in elements:
        groups = []  # (down-set, its prefixes, the letters that may follow)
        for placed, prefixes in level.items():
            missing = ~placed
            letters = [(letter, bit) for letter, bit, needs in elements
                       if bit & missing and not needs & missing]
            groups.append((placed, prefixes, letters))
        check_extensions([sum(len(prefixes) * len(letters) for _, prefixes, letters in groups)])
        level = {}
        while groups:  # each group is freed once it has grown
            placed, prefixes, letters = groups.pop()
            for letter, bit in letters:
                grown = map(add, prefixes, repeat(letter, len(prefixes)))
                level.setdefault(placed | bit, []).extend(grown)
    (words,) = level.values()
    words.sort()
    return words


def _components(p: Poset) -> list[list[int]]:
    """The element sets of the connected components of p's cover graph,
    each ascending, listed by least element (union-find over the covers)."""
    root = list(range(p.size + 1))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]  # path halving
            v = root[v]
        return v

    for j, k in p.covers:
        root[find(j)] = find(k)
    parts: dict[int, list[int]] = {}
    for k in range(1, p.size + 1):
        parts.setdefault(find(k), []).append(k)
    return list(parts.values())


def stanley_sigma(p: Poset, assignment: Sequence[str], truncation: int) -> TruncSeries2:
    """The P-partition generating function via linear extensions.

    A poset whose cover graph has several connected components is the
    disjoint union of them, so its series is the product of theirs. Each
    component is relabelled 1..k in label order, which keeps it naturally
    labelled, keeps the tags of its original elements, and goes through this
    function on its own; so the size guard and the word budget of
    ``jordan_holder`` apply per component, and a c-element antichain costs c
    one-letter words, not c! words. An ordinal sum is connected and is
    walked whole.

    Each extension word w contributes

        prod_{descents j of w} m(j+1)  /  prod_{i=1..c} (1 - m(i))

    where m(i) is the product of the variables assigned to the trailing
    elements w(i), ..., w(c). The suffix of length L has degree L, so
    m_L = a^(f_L) b^(L - f_L), where f_L counts the fold elements among the
    last L letters; the fold counts (f_1, ..., f_c) fix the denominator.

    A factor of degree above T expands to 1, so words are grouped by
    (f_1, ..., f_K) with K = min(c, T), which merges denominators that
    differ only past T, and a word whose numerator has degree above T is
    dropped. The groups are the leaves of a trie on these keys, and the sum
    is factored along it, Horner style: from L = K down to 1, each node's
    series is multiplied by 1/(1 - m_L) and added into its parent. That is
    one sweep per trie node rather than one per factor of every group, and
    none at a node whose terms all have degree above T - L, which the
    factor cannot change.
    """
    truncation = _check_truncation(truncation)
    tags = validate_assignment(assignment, p.size)
    parts = _components(p)
    if len(parts) > 1:
        product = None
        for part in parts:
            label = {v: i for i, v in enumerate(part, 1)}
            covers = [(label[j], label[k]) for k in part for j in p.lower_covers(k)]
            factor = stanley_sigma(
                Poset(len(part), covers), [tags[v - 1] for v in part], truncation
            )
            product = factor if product is None else product * factor
        return product
    c = p.size
    words = jordan_holder(p)
    is_fold = (0, *(int(tag == FOLD_TAG) for tag in tags))
    depth = min(c, truncation)
    lengths = range(c - 1, 0, -1)  # the suffix length after each adjacent pair
    groups: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for w in words:
        # A descent just before the suffix of length L puts m_L on top.
        descents = list(compress(lengths, map(gt, w, w[1:])))
        degree = sum(descents)
        if degree > truncation:
            continue
        folds = (0, *accumulate(map(is_fold.__getitem__, reversed(w))))  # folds[L] = f_L
        numer_a = sum(map(folds.__getitem__, descents))
        numerators = groups.setdefault(folds[1:depth + 1], {})
        mono = (numer_a, degree - numer_a)
        numerators[mono] = numerators.get(mono, 0) + 1

    # key -> (its series, the lowest degree among its terms)
    nodes = {
        key: (TruncSeries2._from_terms(truncation, numerators), min(map(sum, numerators)))
        for key, numerators in groups.items()
    }
    for length in range(depth, 0, -1):
        parents: dict[tuple[int, ...], tuple[TruncSeries2, int]] = {}
        for key, (series, low) in nodes.items():
            if low + length <= truncation:
                a = key[-1]
                series = series * geometric_series((a, length - a), truncation)
            sibling = parents.get(key[:-1])
            if sibling is not None:
                series, low = sibling[0] + series, min(sibling[1], low)
            parents[key[:-1]] = (series, low)
        nodes = parents
    return nodes[()][0] if nodes else TruncSeries2.zero(truncation)


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got '{token}'", lineno) from None


def _directives(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each line with a directive, comments dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _declared_size(text: str) -> int:
    """The count of the 'elements' line that opens a poset file, read with
    no work per element, or 0 when the file opens otherwise (the parser
    then reports it)."""
    _, tokens = next(_directives(text), (0, []))
    if len(tokens) == 2 and tokens[0] == "elements":
        try:
            return int(tokens[1])
        except ValueError:
            pass
    return 0


def parse_poset_file(text: str) -> tuple[Poset, tuple[str, ...]]:
    """Parse the line-oriented poset format.

    Grammar (tokens whitespace separated, ``#`` starts a comment):

        elements <c>          first directive, exactly once
        cover <j> <k>         with 1 <= j < k <= c; duplicates ignored
        assign a <j1> <j2>..  tag the listed elements 'a'; default is 'b'
    """
    size: Optional[int] = None
    covers: list[tuple[int, int]] = []
    fold_elements: set[int] = set()
    for lineno, tokens in _directives(text):
        keyword = tokens[0]
        if keyword == "elements":
            if size is not None:
                raise ParseError("duplicate 'elements' line", lineno)
            if len(tokens) != 2:
                raise ParseError("'elements' expects exactly one count", lineno)
            size = _parse_int(tokens[1], lineno)
            if size < 1:
                raise ParseError("element count must be positive", lineno)
            continue
        if size is None:
            raise ParseError(f"'{keyword}' appears before 'elements'", lineno)
        if keyword == "cover":
            if len(tokens) != 3:
                raise ParseError("'cover' expects two element labels", lineno)
            j = _parse_int(tokens[1], lineno)
            k = _parse_int(tokens[2], lineno)
            _check_cover(j, k, size, lineno)
            covers.append((j, k))
        elif keyword == "assign":
            if len(tokens) < 2 or tokens[1] != FOLD_TAG:
                raise ParseError(f"'assign' supports only the tag '{FOLD_TAG}'", lineno)
            if len(tokens) == 2:
                raise ParseError("'assign a' lists at least one element", lineno)
            for token in tokens[2:]:
                v = _parse_int(token, lineno)
                if not 1 <= v <= size:
                    raise ParseError(f"element {v} out of range 1..{size}", lineno)
                fold_elements.add(v)
        else:
            raise ParseError(f"unknown directive '{keyword}'", lineno)
    if size is None:
        raise ParseError("missing 'elements' line")
    tags = [LINK_TAG] * size  # one allocation, so a huge count fails at once
    for v in fold_elements:
        tags[v - 1] = FOLD_TAG
    return Poset(size, covers), tuple(tags)
