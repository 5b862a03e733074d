import math
from collections import Counter
from itertools import permutations

import pytest

from diamondgf.permstat import (
    DTooLarge,
    ascent_set,
    complement,
    descent_count,
    descent_set,
    djsw_recursion,
    euler_mahonian,
    eulerian,
    major_index,
    permutations_lex,
)
from diamondgf.series import Monomial2, Poly2
from diamondgf.verify import verify_theorem1


def test_descent_set_examples():
    assert descent_set((1, 2, 3)) == set()
    assert descent_count((1, 2, 3)) == 0 and major_index((1, 2, 3)) == 0
    assert descent_set((3, 2, 1)) == {1, 2}
    assert descent_count((3, 2, 1)) == 2 and major_index((3, 2, 1)) == 3
    assert descent_set((2, 3, 1)) == {2}
    assert major_index((2, 3, 1)) == 2


def test_descent_set_rejects_non_permutations():
    with pytest.raises(ValueError):
        descent_set((1, 1, 2))
    with pytest.raises(ValueError):
        descent_set((0, 1))


def test_descents_and_ascents_partition_positions():
    for d in range(1, 6):
        for w in permutations(range(1, d + 1)):
            des, asc = descent_set(w), ascent_set(w)
            assert des & asc == set()
            assert des | asc == set(range(1, d))


def test_complement_swaps_descents_and_ascents():
    for d in range(1, 6):
        for w in permutations(range(1, d + 1)):
            assert descent_set(complement(w)) == ascent_set(w)


def test_descent_and_ascent_multisets_agree():
    # Sum over words of the formal product of z_j over Des equals the same
    # over Asc: the multisets of descent sets and ascent sets coincide.
    for d in range(1, 6):
        des_counter = Counter(
            frozenset(descent_set(w)) for w in permutations(range(1, d + 1))
        )
        asc_counter = Counter(
            frozenset(ascent_set(w)) for w in permutations(range(1, d + 1))
        )
        assert des_counter == asc_counter


def test_permutations_lex_order():
    words = list(permutations_lex(3))
    assert words == sorted(words)
    assert len(words) == 6


def test_euler_mahonian_small_values():
    assert euler_mahonian(1) == Poly2.one()
    assert euler_mahonian(2) == Poly2({(0, 0): 1, (1, 1): 1})
    assert euler_mahonian(3) == Poly2({(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1})


def _euler_mahonian_word_by_word(d):
    """The plain tally: every word's descents and major index by one scan."""
    counts = {}
    for w in permutations(range(1, d + 1)):
        des = 0
        maj = 0
        for j in range(1, d):
            if w[j - 1] > w[j]:
                des += 1
                maj += j
        key = (des, maj)
        counts[key] = counts.get(key, 0) + 1
    return Poly2(counts)


def test_euler_mahonian_matches_a_word_by_word_scan():
    # d <= 6 is the rank-word table alone; d = 7, 8 add prefixes and the
    # descent at their junction with the table's words.
    for d in range(1, 9):
        assert euler_mahonian(d) == _euler_mahonian_word_by_word(d), d


def test_euler_mahonian_counts_all_permutations():
    # Each word adds one to exactly one coefficient.
    for d in range(1, 10):
        assert euler_mahonian(d).evaluate(1, 1) == math.factorial(d)


def test_euler_mahonian_past_the_guard_equals_the_recursion():
    assert euler_mahonian(10, max_d=10) == djsw_recursion(10)


def test_euler_mahonian_degrees():
    for d in range(1, 7):
        p = euler_mahonian(d)
        assert p.degree_a() == d - 1
        assert p.degree_b() == d * (d - 1) // 2


def test_eulerian_values():
    assert eulerian(1) == Poly2.one()
    assert eulerian(3) == Poly2({(0, 0): 1, (1, 0): 4, (2, 0): 1})
    assert eulerian(4).evaluate(1, 1) == 24


def test_eulerian_palindromic():
    for d in range(1, 8):
        p = eulerian(d)
        coeffs = [p.coefficient(i, 0) for i in range(d)]
        assert coeffs == coeffs[::-1]


def test_enumeration_guard():
    with pytest.raises(DTooLarge):
        euler_mahonian(10)
    with pytest.raises(DTooLarge):
        euler_mahonian(4, max_d=3)
    assert euler_mahonian(4, max_d=4).evaluate(1, 1) == 24
    with pytest.raises(ValueError):
        euler_mahonian(0)


def test_recursion_small_values():
    assert djsw_recursion(1) == Poly2.one()
    assert djsw_recursion(2) == Poly2({(0, 0): 1, (1, 1): 1})
    assert djsw_recursion(3) == euler_mahonian(3)


def test_recursion_has_no_guard():
    # The recursion is polynomial time, so it runs past the enumeration guard.
    p = djsw_recursion(11)
    assert p.evaluate(1, 1) == math.factorial(11)


def test_recursion_invariants_without_enumeration():
    # Far past the enumeration guard, check what is known without listing
    # permutations: E_d(1, 1) = d!; MacMahon's equidistribution of maj and
    # inv, E_d(1, y) = [d]_y!; and E_d(x, 1), whose coefficients are the
    # Eulerian numbers A(d, k) = (k+1) A(d-1, k) + (d-k) A(d-1, k-1), which
    # are palindromic in k.
    y = Poly2.monomial(0, 1)
    q_factorial = Poly2.one()
    eulerian_numbers = [1]
    for d in range(1, 26):
        q_factorial = q_factorial * sum((y**k for k in range(d)), Poly2.zero())
        padded = [0, *eulerian_numbers, 0]
        eulerian_numbers = [(k + 1) * padded[k + 1] + (d - k) * padded[k] for k in range(d)]
        if d > 12 and d not in (16, 20, 25):
            continue  # keeps the test well under a second
        f = djsw_recursion(d)
        assert f.evaluate(1, 1) == math.factorial(d)
        assert f.substitute(Monomial2(0, 0), Monomial2(0, 1)) == q_factorial
        descents = f.substitute(Monomial2(1, 0), Monomial2(0, 0))
        assert descents == Poly2({(k, 0): a for k, a in enumerate(eulerian_numbers)})
        assert eulerian_numbers == eulerian_numbers[::-1]


def test_verify_theorem1_report():
    report = verify_theorem1(5)
    assert report.passed
    assert report.mismatch is None
    assert [line.split(":")[0] for line in report.details] == ["d=1", "d=2", "d=3", "d=4", "d=5"]
    for d, line in enumerate(report.details, start=1):
        terms = len(djsw_recursion(d).terms)
        assert line == f"d={d}: equal (recursion {terms} terms, enumeration {terms} terms)"
    payload = report.as_json_dict()
    assert payload["status"] == "pass"
    assert payload["details"][2] == "d=3: equal (recursion 4 terms, enumeration 4 terms)"
