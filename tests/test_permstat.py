import math
from itertools import permutations

import pytest

from diamondgf import budget
from diamondgf.budget import TooLarge
from diamondgf.permstat import djsw_recursion, euler_mahonian, eulerian
from diamondgf.series import Monomial2, Poly2
from diamondgf.verify import verify_theorem1


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
    # The count by state against the reference that reads every word.
    for d in range(1, 9):
        assert euler_mahonian(d) == _euler_mahonian_word_by_word(d), d


def test_euler_mahonian_counts_all_permutations():
    # Each word adds one to exactly one coefficient.
    for d in range(1, 26):
        assert sum(euler_mahonian(d).terms.values()) == math.factorial(d)


def test_euler_mahonian_past_the_guard_equals_the_recursion():
    with budget.lifted():
        assert euler_mahonian(26) == djsw_recursion(26)


def test_euler_mahonian_degrees():
    for d in range(1, 7):
        p = euler_mahonian(d)
        assert max(m.exp_a for m in p.terms) == d - 1
        assert max(m.exp_b for m in p.terms) == d * (d - 1) // 2


def test_eulerian_values():
    assert eulerian(1) == Poly2.one()
    assert eulerian(3) == Poly2({(0, 0): 1, (1, 0): 4, (2, 0): 1})
    assert sum(eulerian(4).terms.values()) == 24


def test_eulerian_palindromic():
    for d in range(1, 8):
        p = eulerian(d)
        coeffs = [p.coefficient(i, 0) for i in range(d)]
        assert coeffs == coeffs[::-1]


def test_enumeration_guard():
    # The boundary sits at MAX_ENUM_D = 25: d = 25 is counted, d = 26 refused.
    assert sum(euler_mahonian(25).terms.values()) == math.factorial(25)
    with pytest.raises(TooLarge, match="^d=26 exceeds the enumeration guard 25$"):
        euler_mahonian(26)
    with pytest.raises(ValueError):
        euler_mahonian(0)


def test_the_guard_holds_after_a_lifted_call_enumerated_past_it():
    # The memo is keyed by d alone; the guard is checked on every call.
    with budget.lifted():
        assert sum(euler_mahonian(26).terms.values()) == math.factorial(26)
    with pytest.raises(TooLarge):
        euler_mahonian(26)


def test_each_d_is_enumerated_once_and_shared():
    first = euler_mahonian(8)
    assert euler_mahonian(8) is first
    assert first == _euler_mahonian_word_by_word(8)


def test_the_recursion_runs_afresh_on_every_call():
    # verify theorem1 compares the enumeration with a recurrence that has
    # just run, never with a stored result.
    assert djsw_recursion(6) is not djsw_recursion(6)
    assert djsw_recursion(6) == djsw_recursion(6)


def test_recursion_small_values():
    assert djsw_recursion(1) == Poly2.one()
    assert djsw_recursion(2) == Poly2({(0, 0): 1, (1, 1): 1})
    assert djsw_recursion(3) == euler_mahonian(3)


def test_recursion_has_no_guard():
    # The recursion takes no guard, so it runs past the enumeration guard.
    p = djsw_recursion(26)
    assert sum(p.terms.values()) == math.factorial(26)


def test_recursion_invariants_without_enumeration():
    # Check the recursion against what is known without counting
    # permutations: E_d(1, 1) = d!; MacMahon's equidistribution of maj and
    # inv, E_d(1, y) = [d]_y!; and E_d(x, 1), whose coefficients are the
    # Eulerian numbers A(d, k) = (k+1) A(d-1, k) + (d-k) A(d-1, k-1), which
    # are palindromic in k.
    q_factorial = Poly2.one()
    eulerian_numbers = [1]
    for d in range(1, 26):
        q_factorial = q_factorial * sum((Poly2.monomial(0, k) for k in range(d)), Poly2())
        padded = [0, *eulerian_numbers, 0]
        eulerian_numbers = [(k + 1) * padded[k + 1] + (d - k) * padded[k] for k in range(d)]
        if d > 12 and d not in (16, 20, 25):
            continue  # keeps the test well under a second
        f = djsw_recursion(d)
        assert sum(f.terms.values()) == math.factorial(d)
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
