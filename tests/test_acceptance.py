"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

from diamondgf import budget
from diamondgf.diamonds import (
    apr_product,
    djsw_product,
    schmidt_closed,
    schmidt_product,
    sigma_closed,
    sigma_multifold_closed,
    sigma_multifold_rational,
    sigma_rational,
)
from diamondgf.oracle import (
    enumerate_diamonds,
    enumerate_infinite_univariate,
    enumerate_ppartitions,
    random_poset_corpus,
    schmidt_oracle,
)
from diamondgf.permstat import djsw_recursion, euler_mahonian, eulerian
from diamondgf.verify import verify_theorem1
from diamondgf.poset import DiamondSpec, build_diamond_poset, jordan_holder, stanley_sigma

CORPUS_SEED = 20240601


@contextmanager
def criterion(label, time_limit=None):
    start = time.monotonic()
    done = False
    try:
        yield
        elapsed = time.monotonic() - start
        if time_limit is not None:
            assert elapsed < time_limit, f"{label} took {elapsed:.1f}s, limit {time_limit}s"
        done = True
        print(f"{label}: PASS ({elapsed:.2f}s)")
    finally:
        if not done:
            print(f"{label}: FAIL")


def test_criterion_1_recursion_equals_enumeration():
    with criterion("criterion 1 (recurrence equals enumeration, d <= 9)", time_limit=10):
        report = verify_theorem1(9)
        assert report.passed
        assert report.mismatch is None
        assert [line.split(":")[0] for line in report.details] == [f"d={d}" for d in range(1, 10)]
        assert all(": equal " in line for line in report.details)


def test_criterion_2_three_way_bivariate_identity():
    with criterion("criterion 2 (closed == stanley == oracle, d,M <= 3, T=10)", time_limit=60):
        for d in (1, 2, 3):
            for length in (1, 2, 3):
                spec = DiamondSpec.uniform(d, length)
                closed = sigma_closed(d, length, 10)
                p, tags = build_diamond_poset(spec)
                with budget.lifted():  # d = 3, M = 3 has 13 elements
                    stanley = stanley_sigma(p, tags, 10)
                enumerated = enumerate_diamonds(spec, 10)
                assert closed == stanley, (d, length)
                assert closed == enumerated, (d, length)


def test_criterion_3_plane_diamond_product():
    with criterion("criterion 3 (plane-diamond product, three ways at T=20)", time_limit=60):
        product = apr_product(20)
        enumerated = enumerate_infinite_univariate(2, 20)
        stabilized = sigma_closed(2, 20, 20).specialize_univariate()
        assert product[:4] == [1, 1, 3, 4]
        assert product == enumerated
        assert product == stabilized


def test_criterion_4_recursive_product_vs_enumeration():
    with criterion("criterion 4 (recursive product == enumeration, d <= 3, T=12)"):
        for d in (1, 2, 3):
            assert djsw_product(d, 12) == enumerate_infinite_univariate(d, 12)


def test_criterion_5_links_only_weighting():
    with criterion("criterion 5 (links-only: closed == product == oracle, d <= 3)"):
        for d in (1, 2, 3):
            closed = schmidt_closed(d, 10, 10)
            assert closed == schmidt_product(d, 10)
            assert closed == schmidt_oracle(d, 10, 10)


def test_criterion_6_multifold_closed_form():
    with criterion("criterion 6 (multifold closed == oracle; uniform == single-d)"):
        for folds in ((1, 2), (2, 1), (3, 1, 2)):
            spec = DiamondSpec(folds)
            assert sigma_multifold_closed(spec, 8) == enumerate_diamonds(spec, 8)
        for d in (1, 2, 3):
            for length in (1, 2, 3):
                spec = DiamondSpec.uniform(d, length)
                assert sigma_multifold_closed(spec, 8) == sigma_rational(d, length).expand(8)
                mixed = sigma_multifold_rational(spec)
                uniform = sigma_rational(d, length)
                assert sorted(mixed.denominator_factors) == sorted(uniform.denominator_factors)
                assert mixed.numerator == uniform.numerator


def test_criterion_7_random_poset_equivalence():
    with criterion("criterion 7 (200 random posets: formula == enumeration, T=8)", time_limit=120):
        count = 0
        for p, tags in random_poset_corpus(200, seed=CORPUS_SEED, max_size=7):
            assert stanley_sigma(p, tags, 8) == enumerate_ppartitions(p, tags, 8), p
            count += 1
        assert count == 200


def test_criterion_8_invariant_suite():
    with criterion("criterion 8 (invariant suite)"):
        for d in range(1, 8):
            em = euler_mahonian(d)
            assert sum(em.terms.values()) == math.factorial(d)
            assert max(m.exp_a for m in em.terms) == d - 1
            assert max(m.exp_b for m in em.terms) == d * (d - 1) // 2
            coeffs = [eulerian(d).coefficient(i, 0) for i in range(d)]
            assert coeffs == coeffs[::-1]
        for d in (1, 2, 3):
            for length in (1, 2, 3):
                p, _ = build_diamond_poset(DiamondSpec.uniform(d, length))
                with budget.lifted():
                    words = jordan_holder(p)
                assert len(words) == math.factorial(d) ** length
        for d in (1, 2, 3):
            for length in (1, 2, 3):
                s = sigma_closed(d, length, 10)
                assert all(c >= 0 for c in s.terms.values())
        # the recurrence divides exactly at every step; NonExactDivision
        # would propagate as a failure
        for d in range(1, 10):
            djsw_recursion(d)
