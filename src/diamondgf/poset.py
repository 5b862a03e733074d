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
from typing import Iterable, Optional, Sequence

from .series import Monomial2, Poly2, RationalExpr, TruncSeries2

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
    the integer label, acyclicity is automatic.
    """

    __slots__ = ("size", "covers", "_pred", "_lowers", "_uppers")

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
        pred: dict[int, set[int]] = {}
        for k in range(1, size + 1):
            below: set[int] = set()
            for j in raw_lowers[k]:
                below.add(j)
                below |= pred[j]
            pred[k] = below

        reduced: set[tuple[int, int]] = set()
        for k in range(1, size + 1):
            for j in raw_lowers[k]:
                implied = any(j in pred[z] for z in raw_lowers[k] if z != j)
                if not implied:
                    reduced.add((j, k))

        lowers: dict[int, list[int]] = {k: [] for k in range(1, size + 1)}
        uppers: dict[int, list[int]] = {k: [] for k in range(1, size + 1)}
        for j, k in sorted(reduced):
            lowers[k].append(j)
            uppers[j].append(k)

        self.size = size
        self.covers = frozenset(reduced)
        self._pred = {k: frozenset(v) for k, v in pred.items()}
        self._lowers = {k: tuple(v) for k, v in lowers.items()}
        self._uppers = {j: tuple(v) for j, v in uppers.items()}

    def lower_covers(self, k: int) -> tuple[int, ...]:
        return self._lowers[k]

    def upper_covers(self, j: int) -> tuple[int, ...]:
        return self._uppers[j]

    def predecessors(self, k: int) -> frozenset[int]:
        """All elements strictly below k."""
        return self._pred[k]

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
    elements below it.
    """
    if p.size > max_size:
        raise PosetTooLarge(
            f"poset has {p.size} elements, guard is {max_size}; raise max_size to override"
        )
    c = p.size
    pending = [0] * (c + 1)  # unplaced lower covers per element
    for k in range(1, c + 1):
        pending[k] = len(p.lower_covers(k))
    used = [False] * (c + 1)
    word: list[int] = []
    words: list[tuple[int, ...]] = []

    def extend() -> None:
        if len(word) == c:
            words.append(tuple(word))
            return
        for k in range(1, c + 1):
            if used[k] or pending[k]:
                continue
            used[k] = True
            for upper in p.upper_covers(k):
                pending[upper] -= 1
            word.append(k)
            extend()
            word.pop()
            for upper in p.upper_covers(k):
                pending[upper] += 1
            used[k] = False

    try:
        extend()
    finally:
        del extend  # it refers to itself through its closure
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
    elements w(i), ..., w(c). Words sharing a denominator (as a multiset of
    factors) are grouped so the expansion runs once per group.
    """
    tags = validate_assignment(assignment, p.size)
    c = p.size
    words = jordan_holder(p, max_size)
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
