"""Naturally labelled finite posets, the diamond poset, linear extension
enumeration, and the linear-extension expansion of the P-partition
generating function.

Natural labelling means j below k in the order implies j < k as integers.
One check enforces it on every cover, from code or from a poset file.
Cover input may contain duplicates and transitively implied pairs;
construction reduces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from operator import add, gt
from typing import Iterable, Optional, Sequence

from .series import TruncSeries2, geometric_series

# Linear-extension counts can reach c!, so enumeration is guarded by poset
# size; pass a larger max_size to override.
MAX_JH_SIZE = 12

FOLD_TAG = "a"
LINK_TAG = "b"


class PosetTooLarge(ValueError):
    """Linear-extension enumeration requested beyond the size guard."""


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
    the integer label, acyclicity is automatic. Each strict down-set is kept
    as an int bitmask (bit j for element j), so a c-element poset holds
    about c^2 / 8 bytes of down-sets rather than c^2 / 2 set entries.
    """

    __slots__ = ("size", "covers", "_down", "_lowers", "_uppers")

    def __init__(self, size: int, covers: Iterable[tuple[int, int]] = ()) -> None:
        if size < 1:
            raise ValueError("a poset needs at least one element")
        raw: set[tuple[int, int]] = set()
        for pair in covers:
            j, k = int(pair[0]), int(pair[1])
            _check_cover(j, k, size)
            raw.add((j, k))

        raw_lowers: dict[int, list[int]] = {k: [] for k in range(1, size + 1)}
        for j, k in raw:
            raw_lowers[k].append(j)

        # Strict down-sets in one ascending pass; covers only point upward.
        down = [0] * (size + 1)
        for k in range(1, size + 1):
            below = 0
            for j in raw_lowers[k]:
                below |= down[j] | 1 << j
            down[k] = below

        reduced: set[tuple[int, int]] = set()
        for k in range(1, size + 1):
            for j in raw_lowers[k]:
                implied = any(down[z] >> j & 1 for z in raw_lowers[k] if z != j)
                if not implied:
                    reduced.add((j, k))

        lowers: dict[int, list[int]] = {k: [] for k in range(1, size + 1)}
        uppers: dict[int, list[int]] = {k: [] for k in range(1, size + 1)}
        for j, k in sorted(reduced):
            lowers[k].append(j)
            uppers[j].append(k)

        self.size = size
        self.covers = frozenset(reduced)
        self._down = tuple(down)
        self._lowers = {k: tuple(v) for k, v in lowers.items()}
        self._uppers = {j: tuple(v) for j, v in uppers.items()}

    def lower_covers(self, k: int) -> tuple[int, ...]:
        return self._lowers[k]

    def upper_covers(self, j: int) -> tuple[int, ...]:
        return self._uppers[j]

    def down_mask(self, k: int) -> int:
        """All elements strictly below k, as a bitmask: bit j is set for
        each such j."""
        if not 1 <= k <= self.size:
            raise KeyError(k)
        return self._down[k]

    def predecessors(self, k: int) -> frozenset[int]:
        """All elements strictly below k, built from ``down_mask`` on call."""
        mask = self.down_mask(k)
        return frozenset(j for j in range(1, k) if mask >> j & 1)

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
        folds = tuple(int(d) for d in self.folds)
        if not folds:
            raise ValueError("a diamond needs at least one block")
        if any(d < 1 for d in folds):
            raise ValueError("every block needs at least one fold")
        object.__setattr__(self, "folds", folds)

    @classmethod
    def uniform(cls, d: int, length: int) -> "DiamondSpec":
        if length < 1:
            raise ValueError("length must be at least 1")
        return cls((d,) * length)

    @property
    def length(self) -> int:
        return len(self.folds)

    @property
    def element_count(self) -> int:
        return self.length + 1 + sum(self.folds)

    def omega(self, k: int) -> int:
        """Total folds strictly above block k: omega(0) counts all folds,
        omega(length) is 0."""
        if not 0 <= k <= self.length:
            raise ValueError(f"block index {k} out of range 0..{self.length}")
        return sum(self.folds[k:])


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


def jordan_holder(p: Poset, max_size: int = MAX_JH_SIZE) -> list[tuple[int, ...]]:
    """All linear extensions as words, in lexicographic order.

    A word lists the poset elements so that every element appears after all
    elements below it. The words grow one letter per level, without
    recursion. The letters of a prefix form a down-set, and what may follow
    depends on that set alone: each element not yet placed whose lower
    covers all are. So each level keeps its prefixes grouped by down-set,
    and a group's next letters are found once, by int mask tests, and
    appended to all of its prefixes at once. A prefix always completes to
    some extension, so no level holds more prefixes than the answer has
    words; the last level is one group, sorted once.
    """
    if p.size > max_size:
        raise PosetTooLarge(
            f"poset has {p.size} elements, guard is {max_size}; raise max_size to override"
        )
    # (the one-letter word, its bit, the mask of its lower covers), by label
    elements = [
        ((k,), 1 << k, sum(1 << j for j in p.lower_covers(k))) for k in range(1, p.size + 1)
    ]
    level: dict[int, list[tuple[int, ...]]] = {0: [()]}
    for _ in elements:
        longer: dict[int, list[tuple[int, ...]]] = {}
        while level:  # each group is freed once it has grown
            placed, prefixes = level.popitem()
            missing = ~placed
            for letter, bit, needs in elements:
                if bit & missing and not needs & missing:
                    grown = map(add, prefixes, repeat(letter, len(prefixes)))
                    longer.setdefault(placed | bit, []).extend(grown)
        level = longer
    (words,) = level.values()
    words.sort()
    return words


def stanley_sigma(
    p: Poset,
    assignment: Sequence[str],
    truncation: int,
    max_size: int = MAX_JH_SIZE,
) -> TruncSeries2:
    """The P-partition generating function via linear extensions.

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
    tags = validate_assignment(assignment, p.size)
    c = p.size
    words = jordan_holder(p, max_size)
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
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
    tags = tuple(FOLD_TAG if j in fold_elements else LINK_TAG for j in range(1, size + 1))
    return Poset(size, covers), tags
