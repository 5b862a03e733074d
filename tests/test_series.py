import math
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from diamondgf.series import (
    Monomial2,
    NonExactDivision,
    NonInvertibleFactor,
    Poly2,
    RationalExpr,
    TruncationMismatch,
    TruncSeries2,
    coeffs_json,
    coeffs_text,
    geometric_series,
    terms_json,
)

X = Poly2.monomial(1, 0)
Y = Poly2.monomial(0, 1)
ONE = Poly2.one()


def random_poly(rng, max_terms=4, max_exp=3, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[mono] = terms.get(mono, 0) + rng.randint(-max_coeff, max_coeff)
    return Poly2(terms)


monomials = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(monomials, st.integers(-6, 6), max_size=6).map(Poly2)
nonzero_polys = polys.filter(bool)
bounds = st.integers(0, 9)
kernel_settings = settings(max_examples=100, deadline=None)


def reference_divide(dividend, divisor):
    """Textbook long division: rescan the whole remainder for its graded-lex
    largest term on every step. Quadratic, but plainly right."""

    def grlex(mono):
        return (mono.exp_a + mono.exp_b, mono.exp_a)

    lead = max(divisor.terms, key=grlex)
    lead_coeff = divisor.terms[lead]
    remainder = dict(dividend.terms)
    quotient = {}
    while remainder:
        top = max(remainder, key=grlex)
        if top.exp_a < lead.exp_a or top.exp_b < lead.exp_b:
            raise NonExactDivision(f"no exact quotient: stuck at term {top}")
        q, r = divmod(remainder[top], lead_coeff)
        if r:
            raise NonExactDivision(
                f"no exact quotient: coefficient {remainder[top]} not divisible by {lead_coeff}"
            )
        shift = Monomial2(top.exp_a - lead.exp_a, top.exp_b - lead.exp_b)
        quotient[shift] = q
        for mono, coeff in divisor.terms.items():
            key = Monomial2(shift.exp_a + mono.exp_a, shift.exp_b + mono.exp_b)
            remainder[key] = remainder.get(key, 0) - q * coeff
            if not remainder[key]:
                del remainder[key]
    return Poly2(quotient)


def assert_valid_term_map(result):
    """What the public constructors guarantee, checked on a result that
    skipped them: canonical rows, and a term map that reads the rows."""
    rows = result._rows
    assert all(type(mono) is Monomial2 for mono in result.terms)
    assert all(result.terms.values())
    assert result.terms == {(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row) if c}
    assert not rows or any(rows[-1]), "a trailing all-zero row"
    if isinstance(result, TruncSeries2):
        assert [len(row) for row in rows] == [result.truncation - i + 1 for i in range(len(rows))]
        assert result == TruncSeries2(result.truncation, result.terms)
    else:
        assert all(row[-1] for row in rows if row), "a row ending in 0"
        assert result == Poly2(result.terms)


def test_add_identity_and_inverse():
    p = ONE + X * Y
    assert p + Poly2() == p
    assert p + (-p) == Poly2()
    assert p + p == Poly2({(0, 0): 2, (1, 1): 2})


def test_mul_examples():
    p = ONE + X * Y
    assert p * ONE == p
    assert (ONE - Y) * (ONE + Y + Y * Y) == ONE - Y * Y * Y
    assert p * p == Poly2({(0, 0): 1, (1, 1): 2, (2, 2): 1})


def test_constructor_merges_and_drops_zeros():
    p = Poly2([((1, 1), 2), ((1, 1), -2), ((0, 0), 3)])
    assert p == Poly2({(0, 0): 3})
    assert not Poly2({(2, 2): 0})


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Poly2({(-1, 0): 1})
    with pytest.raises(TypeError):
        Poly2({(0, 0): 1.5})


def test_substitute_examples():
    p = ONE + X * Y
    # x -> b, y -> a turns xy into ab
    assert p.substitute(Monomial2(0, 1), Monomial2(1, 0)) == Poly2({(0, 0): 1, (1, 1): 1})
    assert p.substitute(Monomial2(1, 1), Monomial2(0, 1)) == Poly2({(0, 0): 1, (1, 2): 1})
    assert ONE.substitute(Monomial2(5, 7), Monomial2(2, 0)) == ONE


def test_substitute_merges_terms():
    # y -> 1 on 1 + 2xy + 2xy^2 + x^2 y^3 gives 1 + 4x + x^2
    p = Poly2({(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1})
    assert p.substitute(Monomial2(1, 0), Monomial2(0, 0)) == Poly2(
        {(0, 0): 1, (1, 0): 4, (2, 0): 1}
    )


def test_divide_exact_examples():
    assert (ONE - Y * Y * Y).divide_exact(ONE - Y) == ONE + Y + Y * Y
    # one recursion step at d = 2: (1 - x y^2 - y + x y) / (1 - y) = 1 + x y
    numerator = ONE - X * Y * Y - Y + X * Y
    assert numerator.divide_exact(ONE - Y) == ONE + X * Y
    with pytest.raises(NonExactDivision):
        (ONE + Y).divide_exact(ONE - Y)
    # Rows 0 and 2 divide by 1 - b^k; row 1 alone leaves the remainder a.
    for k in (1, 2):
        divisor = ONE - Poly2.monomial(0, k)
        dividend = divisor * (ONE + X * Y + X * X * Y * Y) + X
        assert len(dividend._rows) == 3
        with pytest.raises(NonExactDivision):
            dividend.divide_exact(divisor)


def test_divide_exact_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        ONE.divide_exact(Poly2())


@pytest.mark.parametrize(
    "divisor",
    [-(ONE - X * Y), ONE + Y, ONE - 2 * X, X - Y, ONE],
    ids=["-(1 - m)", "1 + m", "1 - 2m", "two monomials", "one"],
)
def test_divide_exact_refuses_a_divisor_not_of_the_form_one_minus_m(divisor):
    with pytest.raises(ValueError, match=r"only by 1 - b\^k"):
        (divisor * (ONE + X)).divide_exact(divisor)


@pytest.mark.parametrize("m", [X, X * Y, X * X * Y * Y * Y], ids=["a", "a*b", "a^2*b^3"])
def test_divide_exact_refuses_one_minus_a_monomial_with_an_a(m):
    # The recurrence divides by 1 - y alone, so 1 - m is taken only for m = b^k.
    with pytest.raises(ValueError, match=r"only by 1 - b\^k"):
        ((ONE - m) * (ONE + Y)).divide_exact(ONE - m)


# A ray m = a^alpha b^beta along b alone, along a alone, or along both; the
# divisor 1 - m is taken only along b alone.
b_rays = st.tuples(st.just(0), st.integers(1, 4))
rays = st.one_of(
    b_rays,
    st.tuples(st.integers(1, 4), st.just(0)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
)


def is_one_minus_b_power(q):
    """Whether q is 1 - b^k for some k >= 1, read off its terms."""
    terms = dict(q.terms)
    return (len(terms) == 2 and terms.pop((0, 0), None) == 1 and list(terms.values()) == [-1]
            and not next(iter(terms)).exp_a)


@kernel_settings
@given(polys, b_rays)
def test_divide_round_trip_random(p, ray):
    q = ONE - Poly2.monomial(*ray)
    assert (p * q).divide_exact(q) == p


@kernel_settings
@given(polys, st.one_of(rays.map(lambda ray: ONE - Poly2.monomial(*ray)), nonzero_polys), polys)
def test_divide_exact_matches_reference_division(p, q, r):
    # p*q + r is exact when r == 0 and usually not otherwise; a divisor
    # 1 - b^k must match the reference on the quotient or on the failure,
    # and any other divisor is refused.
    dividend = p * q + r
    if not is_one_minus_b_power(q):
        with pytest.raises(ValueError):
            dividend.divide_exact(q)
        return
    try:
        expected = reference_divide(dividend, q)
    except NonExactDivision:
        with pytest.raises(NonExactDivision):
            dividend.divide_exact(q)
    else:
        assert dividend.divide_exact(q) == expected


@kernel_settings
@given(polys, b_rays, polys)
def test_division_by_one_minus_a_ray_matches_reference_division(p, ray, r):
    # The contract of divide_exact: by 1 - m with m = b^k, the reference's
    # quotient or a NonExactDivision where the reference leaves a remainder;
    # -(1 - m) and 1 + m, one sign away from it, are refused, and so is zero.
    one_minus_m = ONE - Poly2.monomial(*ray)
    dividend = p * one_minus_m + r
    try:
        expected = reference_divide(dividend, one_minus_m)
    except NonExactDivision:
        with pytest.raises(NonExactDivision):
            dividend.divide_exact(one_minus_m)
    else:
        quotient = dividend.divide_exact(one_minus_m)
        assert quotient == expected
        assert_valid_term_map(quotient)
    if not r:
        assert dividend.divide_exact(one_minus_m) == p
    for divisor in (-one_minus_m, ONE + Poly2.monomial(*ray)):
        with pytest.raises(ValueError):
            dividend.divide_exact(divisor)
    with pytest.raises(ZeroDivisionError):
        dividend.divide_exact(Poly2())


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(50):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


@kernel_settings
@given(polys, polys, bounds)
def test_mul_bounded_matches_truncated_full_product(p, q, bound):
    full = reference_multiply(p, q)
    kept = Poly2({m: c for m, c in full.terms.items() if m.degree <= bound})
    assert p.mul_bounded(q, bound) == kept


def test_mul_bounded_takes_an_int_factor_like_mul():
    assert ONE.mul_bounded(3, 5) == Poly2({(0, 0): 3}) == ONE * 3
    assert (ONE + Y * Y).mul_bounded(-2, 1) == Poly2({(0, 0): -2})
    assert X.mul_bounded(0, 5) == Poly2()


@pytest.mark.parametrize("other", [1.5, "1", None, TruncSeries2(3, {(0, 0): 1})])
def test_mul_bounded_rejects_a_factor_that_is_not_a_poly_or_int(other):
    with pytest.raises(TypeError, match="Poly2 or an int"):
        ONE.mul_bounded(other, 5)


@pytest.mark.parametrize("bound", [5.0, "5", None])
def test_mul_bounded_rejects_a_bound_that_is_not_an_int(bound):
    with pytest.raises(TypeError, match="int bound"):
        X.mul_bounded(Y, bound)


@kernel_settings
@given(polys, polys, bounds, monomials, monomials)
def test_kernel_results_are_valid_term_maps(p, q, bound, x_image, y_image):
    results = [p + q, p - q, 1 - p, -p, p * q, p * p, p.mul_bounded(q, bound)]
    results.append(p.substitute(x_image, y_image))
    factors = tuple(Monomial2(*m) for m in (x_image, y_image) if sum(m))
    for m in factors:
        one_minus_b_power = ONE - Poly2.monomial(0, m.degree)
        results.append((p * one_minus_b_power).divide_exact(one_minus_b_power))
    s, t = TruncSeries2.from_poly(p, bound), TruncSeries2.from_poly(q, bound)
    results += [s, s + t, s - t, s * t, s - s]
    results += [geometric_series(m, bound) for m in factors]
    results += [s * geometric_series(m, bound) for m in factors]
    results.append(RationalExpr(p, factors).expand(bound))
    # Every row above the first cancels, so the sum must shed those rows.
    upper = TruncSeries2(bound, {m: -c for m, c in s.terms.items() if m.exp_a})
    results.append(s + upper)
    for result in results:
        assert_valid_term_map(result)
    assert s - s == TruncSeries2.zero(bound)
    assert (p - p)._rows == [] and p - p == Poly2()


# Coefficients past 64 bits or negative, so no kernel can lean on machine
# integers or on cancellation-free sums.
coefficients = st.one_of(
    st.integers(-3, 3), st.integers(2**64, 2**70), st.integers(-(2**70), -(2**64))
)
# A ray a^alpha b^beta: one along b alone and one with alpha > 0.
flat_rays = st.tuples(st.just(0), st.integers(1, 4))
rising_rays = st.tuples(st.integers(1, 3), st.integers(0, 3))


def series_terms(truncation):
    in_bound = [(i, j) for i in range(truncation + 1) for j in range(truncation + 1 - i)]
    return st.dictionaries(st.sampled_from(in_bound), coefficients, max_size=8)


def reference_product(left, right, truncation):
    """The sparse truncated product of two term maps, term pair by term pair."""
    out = {}
    for (ia, ib), c1 in left.items():
        for (ja, jb), c2 in right.items():
            if ia + ib + ja + jb <= truncation:
                key = (ia + ja, ib + jb)
                out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def degree(p):
    """The largest total degree among p's terms, or -1 for zero."""
    return max((m.degree for m in p.terms), default=-1)


def reference_multiply(p, q, bound=None):
    """The textbook product of two polynomials: every pair of terms, kept
    when its total degree is within the bound, if one is given."""
    return Poly2(reference_product(p.terms, q.terms, math.inf if bound is None else bound))


# Lopsided operands, as in the products: a factor of 0-3 terms, with or
# without a constant term, against up to 40 terms.
exponents = st.tuples(st.integers(0, 6), st.integers(0, 6))
nonconstant = exponents.filter(any)


@st.composite
def lopsided_operands(draw):
    """(small, big). Either both are free, or small = c*u*(1 - m) and big =
    r*(1 + m + ... + m^j), so all but the ends of each run of m cancel."""
    if draw(st.booleans()):
        u, m = draw(exponents), draw(nonconstant)
        c = draw(coefficients.filter(bool))
        small = Poly2({u: c, (u[0] + m[0], u[1] + m[1]): -c})
        r = Poly2(draw(st.dictionaries(exponents, coefficients, max_size=5)))
        run = Poly2({(k * m[0], k * m[1]): 1 for k in range(draw(st.integers(1, 8)))})
        return small, reference_multiply(r, run)
    constant = draw(st.one_of(st.none(), st.just(1), coefficients.filter(bool)))
    size = 3 if constant is None else 2
    terms = draw(st.dictionaries(nonconstant, coefficients, max_size=size))
    if constant is not None:
        terms[(0, 0)] = constant
    big = draw(st.dictionaries(exponents, coefficients, max_size=40))
    return Poly2(terms), Poly2(big)


@settings(max_examples=300, deadline=None)
@given(st.data(), lopsided_operands())
def test_products_match_reference_multiply(data, operands):
    p, q = operands
    # From below both operands' degrees to past the full product's.
    bound = data.draw(st.integers(-1, degree(p) + degree(q) + 1))
    full = reference_multiply(p, q)
    kept = reference_multiply(p, q, bound)
    checks = [(p * q, full), (q * p, full), (p.mul_bounded(q, bound), kept),
              (q.mul_bounded(p, bound), kept)]
    power, expected = ONE, ONE
    for _ in range(3):
        power, expected = power * p, reference_multiply(expected, p)
        checks.append((power, expected))
    checks.append((q * q, reference_multiply(q, q)))
    for result, expected in checks:
        assert_valid_term_map(result)
        assert result == expected


# Polynomials in b alone, one row each, as on the univariate path.
one_row_polys = st.dictionaries(st.tuples(st.just(0), st.integers(0, 30)), coefficients,
                                max_size=12).map(Poly2)


@settings(max_examples=200, deadline=None)
@given(st.data(), one_row_polys, one_row_polys)
def test_one_row_products_match_reference_multiply(data, p, q):
    bound = data.draw(st.integers(-1, degree(p) + degree(q) + 1))
    kept = reference_multiply(p, q, bound)
    for result, expected in [(p * q, reference_multiply(p, q)), (p.mul_bounded(q, bound), kept),
                             (q.mul_bounded(p, bound), kept)]:
        assert_valid_term_map(result)
        assert result == expected
    if bound >= 0:
        series = TruncSeries2.from_poly(p, bound) * TruncSeries2.from_poly(q, bound)
        assert series == TruncSeries2.from_poly(kept, bound)


def reference_substitute(terms, x_image, y_image):
    """Each term x^i y^j sent to x_image^i * y_image^j, one at a time."""
    out = {}
    for (i, j), c in terms.items():
        key = (i * x_image[0] + j * y_image[0], i * x_image[1] + j * y_image[1])
        out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c}


@st.composite
def row_shaped_operands(draw):
    """(p, q, m): operands in one of three shapes that the row kernels treat
    differently, and a monomial m whose degree k sets the divisor 1 - b^k."""
    shape = draw(st.sampled_from(["long", "tall", "cancelling"]))
    m = draw(nonconstant)
    if shape == "long":
        # A long row in b alone against a factor of one to three terms.
        p = Poly2({(0, j): c for j, c in enumerate(draw(st.lists(coefficients, max_size=300)))})
        q = Poly2(draw(st.dictionaries(exponents, coefficients.filter(bool), min_size=1, max_size=3)))
    elif shape == "tall":
        # Shaped like E_d(a^w b^n, a): many rows of a few entries each.
        def tall():
            e = draw(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 8)), coefficients,
                                     max_size=12))
            return Poly2(reference_substitute(e, (draw(st.integers(0, 6)), draw(st.integers(1, 4))), (1, 0)))
        p, q = tall(), tall()
    else:
        # c*u*(1 - m) against r*(1 + m + ... + m^j): all but the ends cancel.
        u, c = draw(exponents), draw(coefficients.filter(bool))
        p = Poly2({u: c, (u[0] + m[0], u[1] + m[1]): -c})
        run = {(k * m[0], k * m[1]): 1 for k in range(draw(st.integers(1, 8)))}
        q = Poly2(reference_product(draw(st.dictionaries(exponents, coefficients, max_size=5)), run,
                                    math.inf))
    return p, q, m


@settings(max_examples=200, deadline=None)
@given(st.data(), row_shaped_operands())
def test_row_kernels_match_independent_references(data, operands):
    p, q, m = operands
    # From below both operands' degrees to past the full product's.
    bound = data.draw(st.integers(-1, degree(p) + degree(q) + 1))
    images = data.draw(st.tuples(exponents, exponents))
    shift = (1, data.draw(st.integers(0, 3)))  # x -> x*y^s, y -> y: the recurrence's row shift
    full = reference_product(p.terms, q.terms, math.inf)
    kept = reference_product(p.terms, q.terms, bound)
    divisor = Poly2({(0, 0): 1, (0, sum(m)): -1})
    checks = [
        (p * q, full), (q * p, full), (p.mul_bounded(q, bound), kept), (q.mul_bounded(p, bound), kept),
        (p + q, reference_sum(p.terms, q.terms, 1)), (p - q, reference_sum(p.terms, q.terms, -1)),
        (q - p, reference_sum(q.terms, p.terms, -1)), (p - p, {}),
        (p.substitute(*images), reference_substitute(p.terms, *images)),
        (q.substitute(shift, (0, 1)), reference_substitute(q.terms, shift, (0, 1))),
        (Poly2(reference_product(p.terms, divisor.terms, math.inf)).divide_exact(divisor), p.terms),
    ]
    for result, expected in checks:
        assert_valid_term_map(result)
        assert result.terms == expected
    # With a remainder, the quotient or the failure matches.
    dividend = Poly2(reference_sum(reference_product(p.terms, divisor.terms, math.inf), q.terms, 1))
    try:
        expected = reference_divide(dividend, divisor)
    except NonExactDivision:
        with pytest.raises(NonExactDivision):
            dividend.divide_exact(divisor)
    else:
        assert dividend.divide_exact(divisor).terms == expected.terms


# Image pairs for both substitute writers: the recurrence's row shift
# x -> x*b^s, y -> y; and the per-term writer, drawn both with a y image
# without an a and with any pair at all.
image_pairs = st.one_of(
    st.tuples(st.tuples(st.just(1), st.integers(0, 3)), st.just((0, 1))),
    st.tuples(exponents, st.tuples(st.just(0), st.integers(0, 6))),
    st.tuples(exponents, exponents),
)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.one_of(polys, row_shaped_operands().map(lambda ops: ops[0])), image_pairs)
def test_bounded_substitute_is_the_full_image_cut_at_the_bound(data, p, images):
    full = p.substitute(*images)
    bound = data.draw(st.integers(-2, max((sum(m) for m in full.terms), default=0) + 1))
    bounded = p.substitute(*images, bound)
    assert_valid_term_map(bounded)
    assert bounded == Poly2({m: c for m, c in full.terms.items() if m.degree <= bound})
    assert p.substitute(*images, bound=None) == full


def test_bounded_substitute_examples():
    e3 = Poly2({(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1})  # E_3(x, y)
    # x -> b^3, y -> b: 1 + 2b^4 + 2b^5 + b^9, cut at 5 and at 4.
    assert e3.substitute((0, 3), (0, 1), 5) == Poly2({(0, 0): 1, (0, 4): 2, (0, 5): 2})
    assert e3.substitute((0, 3), (0, 1), 4) == Poly2({(0, 0): 1, (0, 4): 2})
    assert e3.substitute((0, 3), (0, 1), 3) == ONE
    assert e3.substitute((0, 3), (0, 1), -1) == Poly2()
    # A cancellation below the bound still cancels.
    assert (X - Y).substitute((0, 1), (0, 1), 1) == Poly2()


@pytest.mark.parametrize("bound", [5.0, "5"])
def test_substitute_rejects_a_bound_that_is_not_an_int(bound):
    with pytest.raises(TypeError, match="int bound"):
        X.substitute((0, 1), (1, 0), bound)


def reference_geometric(ray, truncation):
    alpha, beta = ray
    return {(k * alpha, k * beta): 1 for k in range(truncation // (alpha + beta) + 1)}


def reference_sum(left, right, sign):
    out = dict(left)
    for m, c in right.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 10), flat_rays, rising_rays)
def test_row_kernels_match_sparse_reference(data, truncation, flat, rising):
    s_terms = data.draw(series_terms(truncation))
    t_terms = data.draw(series_terms(truncation))
    s, t = TruncSeries2(truncation, s_terms), TruncSeries2(truncation, t_terms)

    def check(result, expected):
        assert result.terms == expected
        assert result == TruncSeries2(truncation, expected)

    for ray in (flat, rising):
        g = geometric_series(ray, truncation)
        expected = reference_product(s_terms, reference_geometric(ray, truncation), truncation)
        check(s * g, expected)
        check(g * s, expected)
        # The sweep and the general product agree on the same factor.
        unmarked = TruncSeries2(truncation, g.terms)
        assert s * g == s * unmarked == unmarked * s
    trusted = TruncSeries2._from_terms(truncation, s_terms)
    assert_valid_term_map(trusted)
    check(trusted, reference_sum(s_terms, {}, 1))
    check(s * t, reference_product(s_terms, t_terms, truncation))
    check(s + t, reference_sum(s_terms, t_terms, 1))
    check(s - t, reference_sum(s_terms, t_terms, -1))

    expected = s_terms
    for ray in (flat, rising, rising):
        expected = reference_product(expected, reference_geometric(ray, truncation), truncation)
    check(RationalExpr(Poly2(s_terms), (flat, rising, rising)).expand(truncation), expected)


def test_cached_terms_are_safe_to_fill_from_many_threads():
    # Threads race to build the same lazily cached term maps, of series and
    # of polynomials; each must see the whole map, whichever thread's copy
    # ends up cached.
    bound = 100
    run = reference_geometric((0, 1), bound)
    series = reference_product({(0, 0): 1, (1, 0): 1}, run, bound)
    poly = reference_product({(0, 0): 1, (1, 0): 1}, run, math.inf)
    values = [
        (TruncSeries2.from_poly(ONE + X, bound) * geometric_series((0, 1), bound), series)
        for _ in range(100)
    ]
    values += [((ONE + X) * Poly2(run), poly) for _ in range(100)]
    seen = []

    def read():
        for value, expected in values:
            seen.append(dict(value.terms) == expected)

    threads = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [True] * (8 * len(values))


def test_geometric_series():
    s = geometric_series(Monomial2(0, 1), 3)
    assert s == TruncSeries2(3, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1})
    with pytest.raises(NonInvertibleFactor):
        geometric_series(Monomial2(0, 0), 3)


@pytest.mark.parametrize(
    "power, error, message",
    [(2.0, TypeError, "float"), (0, ValueError, "^power must be at least 1$"),
     (-1, ValueError, "^power must be at least 1$")],
)
def test_geometric_series_refuses_a_power_below_one_or_not_an_int(power, error, message):
    with pytest.raises(error, match=message):
        geometric_series(Monomial2(0, 1), 3, power)


@pytest.mark.parametrize("ray", [(0, 1), (0, 3), (1, 0), (2, 1)])
@pytest.mark.parametrize("power", [1, 2, 5])
def test_a_powered_geometric_series_carries_binomial_coefficients(ray, power):
    # 1/(1 - m)^p = sum_k C(k + p - 1, k) m^k, in its own terms and on the
    # left of a product, where its rows are read; p products of the
    # power-1 series give the same series.
    truncation = 12
    alpha, beta = ray
    expected = {
        (k * alpha, k * beta): math.comb(k + power - 1, k)
        for k in range(truncation // (alpha + beta) + 1)
    }
    assert geometric_series(ray, truncation, power).terms == expected
    copies = TruncSeries2.from_poly(ONE, truncation)
    for _ in range(power):
        copies = copies * geometric_series(ray, truncation)
    assert copies.terms == expected
    s = TruncSeries2.from_poly(ONE + X - 3 * Y * Y, truncation)
    on_the_left = geometric_series(ray, truncation, power) * s
    assert on_the_left == s * geometric_series(ray, truncation, power) == copies * s


def numerators(max_exp_a):
    return st.dictionaries(
        st.tuples(st.integers(0, max_exp_a), st.integers(0, 8)), coefficients, max_size=6
    ).map(Poly2)


def factor_multisets(factors):
    """Lists of a few distinct monomials, each up to four times, shuffled."""
    counted = st.lists(st.tuples(factors, st.integers(1, 4)), max_size=4, unique_by=lambda fc: fc[0])
    return counted.map(lambda pairs: [m for m, n in pairs for _ in range(n)]).flatmap(st.permutations)


# Flat steps up to 8 against rows of up to 25 entries take every branch of
# the row sweep at power > 1: step^2 <= len runs the running sums, a longer
# step the binomial slices when at most power multiples of it fit in the
# row and the block adds otherwise; a rising ray takes one pass per power.
long_flat_rays = st.tuples(st.just(0), st.integers(1, 8))
expansions = st.one_of(
    st.tuples(numerators(0), factor_multisets(long_flat_rays)),
    st.tuples(numerators(4), factor_multisets(st.one_of(long_flat_rays, rising_rays))),
)


@kernel_settings
@example((Poly2({(0, 0): 1, (1, 0): 2}), [(0, 2), (1, 1), (0, 7), (0, 5), (0, 2), (1, 1), (0, 7),
                                          (0, 2), (0, 5)]), 20)
@given(expansions, st.integers(0, 24))
def test_expand_equals_one_copy_of_each_factor_at_a_time(case, truncation):
    # Grouping a repeated factor into one powered sweep changes no retained
    # coefficient: the expansion equals the numerator times each copy's
    # geometric series in turn, in the given order.
    numerator, factors = case
    expected = TruncSeries2.from_poly(numerator, truncation)
    for m in factors:
        expected = expected * geometric_series(m, truncation)
    assert RationalExpr(numerator, tuple(factors)).expand(truncation) == expected


def test_expand_rational_examples():
    assert RationalExpr(ONE, (Monomial2(0, 1),)).expand(3) == TruncSeries2(
        3, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1}
    )
    # 1/((1-b)(1-ab)(1-ab^2)) to total degree 2: the ab^2 factor enters at 3
    expr = RationalExpr(ONE, (Monomial2(0, 1), Monomial2(1, 1), Monomial2(1, 2)))
    assert expr.expand(2) == TruncSeries2(2, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 1): 1})
    with pytest.raises(NonInvertibleFactor):
        RationalExpr(ONE, (Monomial2(0, 0),))


def test_expand_is_order_independent():
    rng = random.Random(17)
    factors = [Monomial2(0, 1), Monomial2(1, 1), Monomial2(1, 2), Monomial2(2, 1)]
    numerator = ONE + X
    reference = RationalExpr(numerator, tuple(factors)).expand(6)
    for _ in range(5):
        rng.shuffle(factors)
        assert RationalExpr(numerator, tuple(factors)).expand(6) == reference


def test_expand_times_denominator_recovers_numerator():
    rng = random.Random(19)
    for _ in range(20):
        numerator = random_poly(rng)
        factors = tuple(
            Monomial2(rng.randint(0, 2), rng.randint(0, 2))
            for _ in range(rng.randint(0, 3))
        )
        factors = tuple(m for m in factors if m.degree >= 1)
        bound = 6
        expansion = RationalExpr(numerator, factors).expand(bound)
        product = expansion
        for m in factors:
            product = product * TruncSeries2.from_poly(ONE - Poly2.monomial(*m), bound)
        assert product == TruncSeries2.from_poly(numerator, bound)


def test_specialize_univariate_examples():
    assert TruncSeries2(2, {(0, 0): 1, (1, 1): 1}).specialize_univariate() == [1, 0, 1]
    assert TruncSeries2(
        2, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 1): 1}
    ).specialize_univariate() == [1, 1, 2]


def test_specialize_commutes_with_multiplication():
    rng = random.Random(23)
    for _ in range(20):
        bound = 6
        s = TruncSeries2.from_poly(random_poly(rng), bound)
        t = TruncSeries2.from_poly(random_poly(rng), bound)
        direct = (s * t).specialize_univariate()
        cs, ct = s.specialize_univariate(), t.specialize_univariate()
        convolved = [
            sum(cs[i] * ct[n - i] for i in range(n + 1)) for n in range(bound + 1)
        ]
        assert direct == convolved


def test_series_truncation_discipline():
    s = TruncSeries2(3, {(0, 0): 1})
    t = TruncSeries2(4, {(0, 0): 1})
    with pytest.raises(TruncationMismatch):
        s + t
    with pytest.raises(TruncationMismatch):
        s * t
    with pytest.raises(ValueError):
        TruncSeries2(2, {(2, 1): 1})
    assert TruncSeries2.from_poly(Poly2({(2, 1): 1, (0, 1): 1}), 2) == TruncSeries2(
        2, {(0, 1): 1}
    )


def test_text_rendering():
    p = Poly2({(0, 0): 1, (1, 1): 1, (0, 2): 2})
    assert p.text() == "1 + 2*b^2 + a*b"
    assert p.text(("x", "y")) == "1 + 2*y^2 + x*y"
    assert Poly2().text() == "0"
    assert Poly2({(1, 1): -1, (0, 0): 1}).text() == "1 + -a*b"
    assert Poly2({(2, 0): -3}).text() == "-3*a^2"


def test_graded_lex_print_order():
    # total degree ascending, then exp_a ascending
    s = TruncSeries2(2, {(1, 1): 1, (0, 2): 1, (0, 1): 1, (0, 0): 1, (2, 0): 1})
    assert s.text() == "1 + b + b^2 + a*b + a^2"


def test_json_rendering():
    p = Poly2({(1, 1): 2, (0, 0): 1})
    assert terms_json(p) == {"truncation": None, "terms": [[0, 0, "1"], [1, 1, "2"]]}
    s = TruncSeries2(2, {(0, 1): 12345678901234567890})
    assert terms_json(s) == {
        "truncation": 2,
        "terms": [[0, 1, "12345678901234567890"]],
    }
    assert coeffs_text([1, 1, 3]) == "1, 1, 3"
    assert coeffs_json([1, 2]) == {"truncation": 1, "coefficients": ["1", "2"]}


def test_big_coefficients_stay_exact():
    p = Poly2({(0, 0): 10**40}) + X
    q = p * p
    assert q.coefficient(0, 0) == 10**80
    assert q.coefficient(1, 0) == 2 * 10**40


def test_first_difference():
    p = Poly2({(0, 0): 1, (1, 1): 2})
    q = Poly2({(0, 0): 1, (1, 1): 3, (0, 3): 1})
    mono, lc, rc = p.first_difference(q)
    assert (mono, lc, rc) == (Monomial2(1, 1), 2, 3)
    assert p.first_difference(p) is None


def grlex_scan(left, right):
    """The first difference of two term maps by a plain scan: every monomial
    of total degree 0, 1, ... in increasing exp_a, up to the largest degree
    either map holds."""
    top = max((a + b for a, b in [*left, *right]), default=-1)
    for n in range(top + 1):
        for a in range(n + 1):
            lc, rc = left.get((a, n - a), 0), right.get((a, n - a), 0)
            if lc != rc:
                return (Monomial2(a, n - a), lc, rc)
    return None


def poly_routes(terms):
    """The polynomial with the given term map, built four ways."""
    p = Poly2(terms)
    ray = ONE - Y * Y
    return [
        p,
        sum((Poly2.monomial(a, b, c) for (a, b), c in terms.items()), Poly2()),
        (p * ray).divide_exact(ray),
        p + (X - 5) * Y - (X - 5) * Y,
    ]


def series_routes(truncation, terms):
    """The series with the given term map, built four ways."""
    s = TruncSeries2(truncation, terms)
    beyond = Poly2.monomial(truncation + 1, 0) + Poly2.monomial(0, truncation + 2, 7)
    ray = Monomial2(0, 2)
    return [
        s,
        TruncSeries2.from_poly(Poly2(terms) + beyond, truncation),
        RationalExpr(Poly2(terms) * (ONE - Poly2.monomial(*ray)), (ray,)).expand(truncation),
        s + TruncSeries2(truncation, {(0, 0): 3}) - TruncSeries2(truncation, {(0, 0): 3}),
    ]


@st.composite
def term_map_pairs(draw):
    """(x, y, x's terms, y's terms): two polynomials or two series of one
    truncation. y is often x built another way, or x with one coefficient
    changed, so equal values and near misses are both common."""
    truncation = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["poly", "series"]))
    if kind == "series":
        drawn = series_terms(truncation)
    else:
        drawn = st.dictionaries(monomials, coefficients, max_size=8)
    left = {m: c for m, c in draw(drawn).items() if c}
    how = draw(st.sampled_from(["same", "changed", "independent"]))
    if how == "same":
        right = dict(left)
    elif how == "changed":
        in_bound = [(a, b) for a in range(truncation + 1) for b in range(truncation + 1 - a)]
        mono = draw(st.sampled_from(in_bound) if kind == "series" else monomials)
        right = {**left, mono: left.get(mono, 0) + draw(coefficients.filter(bool))}
        right = {m: c for m, c in right.items() if c}
    else:
        right = {m: c for m, c in draw(drawn).items() if c}
    routes = (lambda terms: series_routes(truncation, terms)) if kind == "series" else poly_routes
    return draw(st.sampled_from(routes(left))), draw(st.sampled_from(routes(right))), left, right


@settings(max_examples=300, deadline=None)
@given(term_map_pairs())
def test_first_difference_is_none_exactly_when_equal_else_the_grlex_first(pair):
    x, y, left, right = pair
    assert (x.first_difference(y) is None) == (x == y)
    assert x.first_difference(y) == grlex_scan(left, right)
    assert y.first_difference(x) == grlex_scan(right, left)


def test_first_difference_of_series_checks_truncations_first():
    # Zero series of any truncation have equal (empty) rows, so the
    # truncation check must come before the equal-rows answer.
    with pytest.raises(TruncationMismatch):
        TruncSeries2(3).first_difference(TruncSeries2(4))


def test_a_repeated_factor_object_is_checked_once_and_a_float_copy_still_fails():
    # Each factor is checked as given: (1.0, 1) equals (1, 1) and hashes
    # alike, but must still be refused.
    with pytest.raises(TypeError):
        RationalExpr(ONE, ((1, 1), (1.0, 1)))
    shared = Monomial2(0, 3)
    with pytest.raises(NonInvertibleFactor):
        RationalExpr(ONE, (shared, shared, (0, 0), shared))
    same = (0, 2)
    stored = RationalExpr(ONE, (same, Monomial2(0, 2), same)).denominator_factors
    assert stored == (Monomial2(0, 2),) * 3
    assert all(type(m) is Monomial2 for m in stored)
    # A generator is read once, and each of its items is kept in order.
    assert RationalExpr(ONE, ((0, n % 3 + 1) for n in range(6))).denominator_factors == tuple(
        Monomial2(0, n % 3 + 1) for n in range(6)
    )
