import pytest
from hypothesis import given, settings, strategies as st

from diamondgf import diamonds
from diamondgf.diamonds import (
    apr_product,
    djsw_product,
    schmidt_closed,
    schmidt_product,
    sigma_closed,
    sigma_multifold_closed,
    sigma_multifold_rational,
    sigma_rational,
    sigma_univariate,
)
from diamondgf.oracle import (
    enumerate_diamonds,
    enumerate_infinite_univariate,
    enumerate_ppartitions,
    schmidt_oracle,
)
from diamondgf.budget import TooLarge
from diamondgf.permstat import check_enum_guard, djsw_recursion, euler_mahonian
from diamondgf.poset import DiamondSpec, build_diamond_poset, stanley_sigma
from diamondgf.series import Monomial2, Poly2, RationalExpr, TruncSeries2
from diamondgf.verify import verify_djsw_product


def partition_numbers(limit):
    # independent oracle: DP over part sizes
    counts = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            counts[n] += counts[n - part]
    return counts


def test_sigma_closed_single_chain_block():
    s = sigma_closed(1, 1, 3)
    expected = RationalExpr(Poly2.one(), ((0, 1), (1, 1), (1, 2))).expand(3)
    assert s == expected


def test_sigma_rational_two_fold_single_block():
    expr = sigma_rational(2, 1)
    assert expr.numerator == Poly2({(0, 0): 1, (1, 1): 1})  # E_2(b, a) = 1 + ab
    assert sorted(expr.denominator_factors) == [
        Monomial2(0, 1),
        Monomial2(1, 1),
        Monomial2(2, 1),
        Monomial2(2, 2),
    ]


def test_sigma_closed_matches_rational_expansion():
    for d in (1, 2, 3):
        for length in (1, 2):
            assert sigma_closed(d, length, 8) == sigma_rational(d, length).expand(8)


def test_sigma_closed_two_fold_block_identities():
    s = sigma_closed(2, 1, 12)
    direct = RationalExpr(
        Poly2({(0, 0): 1, (1, 1): 1}),
        ((0, 1), (1, 1), (2, 1), (2, 2)),
    ).expand(12)
    assert s == direct
    assert s == enumerate_diamonds(DiamondSpec.uniform(2, 1), 12)

    # a = b = q gives (1 + q^2)/((1-q)(1-q^2)(1-q^3)(1-q^4))
    univariate = RationalExpr(
        Poly2({(0, 0): 1, (0, 2): 1}),
        ((0, 1), (0, 2), (0, 3), (0, 4)),
    ).expand(12)
    assert s.specialize_univariate() == univariate.specialize_univariate()
    assert s.specialize_univariate()[:5] == [1, 1, 3, 4, 7]


def test_sigma_closed_matches_stanley_expansion():
    for d, length in ((1, 2), (2, 2), (3, 1)):
        p, tags = build_diamond_poset(DiamondSpec.uniform(d, length))
        assert sigma_closed(d, length, 8) == stanley_sigma(p, tags, 8)


def test_sigma_coefficients_nonnegative():
    for d, length in ((1, 3), (2, 2), (3, 1)):
        s = sigma_closed(d, length, 9)
        assert all(c >= 0 for c in s.terms.values())
        assert s.coefficient(0, 0) == 1


def test_sigma_guards():
    with pytest.raises(ValueError):
        sigma_closed(1, 0, 2)
    with pytest.raises(ValueError):
        sigma_closed(0, 1, 2)


def test_recurrence_forms_past_the_enumeration_guard():
    # E_d comes from the recurrence, so d = 26 needs no E_26 by counting.
    assert sigma_closed(26, 1, 6) == enumerate_diamonds(DiamondSpec.uniform(26, 1), 6)
    spec = DiamondSpec((26, 2))
    assert sigma_multifold_closed(spec, 6) == enumerate_diamonds(spec, 6)
    assert djsw_product(26, 6) == enumerate_infinite_univariate(26, 6)


def test_multifold_uniform_matches_single_d_form():
    for d in (1, 2, 3):
        for length in (1, 2, 3):
            spec = DiamondSpec.uniform(d, length)
            assert sigma_multifold_closed(spec, 8) == sigma_rational(d, length).expand(8)
            mixed = sigma_multifold_rational(spec)
            uniform = sigma_rational(d, length)
            assert sorted(mixed.denominator_factors) == sorted(uniform.denominator_factors)
            assert mixed.numerator == uniform.numerator


def test_multifold_single_block():
    spec = DiamondSpec((1,))
    assert sigma_multifold_closed(spec, 6) == sigma_rational(1, 1).expand(6)


def test_multifold_matches_oracle():
    for folds in ((1, 2), (2, 1), (2, 3)):
        spec = DiamondSpec(folds)
        assert sigma_multifold_closed(spec, 8) == enumerate_diamonds(spec, 8)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 7))
def test_multifold_closed_matches_oracle_on_random_specs(folds, truncation):
    spec = DiamondSpec(folds)
    assert sigma_multifold_closed(spec, truncation) == enumerate_diamonds(spec, truncation)


def test_multifold_order_matters():
    # the (1,2) and (2,1) diamonds are dual but not isomorphic, and the
    # order-preserving convention tells them apart
    first = sigma_multifold_closed(DiamondSpec((1, 2)), 6)
    second = sigma_multifold_closed(DiamondSpec((2, 1)), 6)
    assert first != second
    assert first.specialize_univariate() != second.specialize_univariate()


def test_schmidt_closed_single_chain_block():
    # a = 1 in 1/((1-b)(1-ab)(1-ab^2)) leaves 1/((1-q)^2 (1-q^2))
    closed = schmidt_closed(1, 1, 6)
    direct = RationalExpr(Poly2.one(), ((0, 1), (0, 1), (0, 2))).expand(6)
    assert closed == direct.specialize_univariate()
    assert closed[:3] == [1, 2, 4]


def test_schmidt_closed_matches_oracle():
    for d in (1, 2, 3):
        for length in (1, 2, 3):
            assert schmidt_closed(d, length, 6) == schmidt_oracle(d, length, 6)


def test_schmidt_closed_is_a_one_specialization():
    # collapsing the fold variable of the bivariate expansion matches
    # schmidt_closed wherever the total-degree truncation cannot bite:
    # with D total folds, fold sums stay <= D * link sum.
    for d, length in ((1, 1), (2, 1), (1, 2)):
        total_folds = d * length
        big = 12
        bivariate = sigma_rational(d, length).expand(big)
        window = big // (total_folds + 1)
        collapsed = [0] * (window + 1)
        for mono, coeff in bivariate.terms.items():
            if mono.exp_b <= window:
                collapsed[mono.exp_b] += coeff
        assert collapsed == schmidt_closed(d, length, window)


def test_schmidt_product_pairs_of_partitions():
    # d = 1: prod 1/(1-q^n)^2 counts pairs of partitions
    limit = 10
    p = partition_numbers(limit)
    convolved = [sum(p[i] * p[n - i] for i in range(n + 1)) for n in range(limit + 1)]
    assert schmidt_product(1, limit) == convolved


def test_schmidt_product_stabilizes_against_closed_form():
    for d in (1, 2, 3):
        product = schmidt_product(d, 10)
        for length in (4, 7, 10):
            closed = schmidt_closed(d, length, 10)
            window = min(length, 10)
            assert closed[: window + 1] == product[: window + 1]


def test_apr_product_values():
    assert apr_product(0) == [1]
    assert apr_product(3) == [1, 1, 3, 4]
    assert apr_product(8) == enumerate_infinite_univariate(2, 8)


def test_apr_matches_stabilized_closed_form():
    coeffs = apr_product(10)
    assert sigma_closed(2, 10, 10).specialize_univariate() == coeffs
    assert sigma_closed(2, 11, 10).specialize_univariate() == coeffs


def test_djsw_product_values():
    assert djsw_product(1, 6) == partition_numbers(6)
    assert djsw_product(2, 10) == apr_product(10)
    for d in (1, 2, 3, 4, 5):
        assert djsw_product(d, 8) == djsw_product(d, 8, base=euler_mahonian(d))


def test_djsw_product_matches_enumeration():
    for d in (1, 2, 3, 4):
        assert djsw_product(d, 8) == enumerate_infinite_univariate(d, 8)


def test_djsw_product_guard():
    with pytest.raises(ValueError):
        djsw_product(0, 4)
    with pytest.raises(ValueError):
        djsw_product(0, 4, base=Poly2.one())
    # The counted side of the cross-check keeps the d <= 25 guard.
    with pytest.raises(TooLarge):
        verify_djsw_product(26, 4)


# --- truncation cuts ----------------------------------------------------------


def univariate_reference(numerators, denominator_exponents, truncation):
    """prod(numerators) / prod_e (1 - q^e) through q^T by plain list
    arithmetic; each numerator is a map from powers of q to coefficients."""
    coeffs = [1] + [0] * truncation
    for factor in numerators:
        product = [0] * (truncation + 1)
        for power, c in factor.items():
            for n in range(truncation + 1 - power):
                product[n + power] += c * coeffs[n]
        coeffs = product
    for e in denominator_exponents:
        for n in range(e, truncation + 1):
            coeffs[n] += coeffs[n - e]
    return coeffs


def univariate_image(base, x_power, y_power):
    """base(q^x_power, q^y_power) as a map from powers of q to coefficients."""
    out = {}
    for (i, j), c in base.terms.items():
        out[i * x_power + j * y_power] = out.get(i * x_power + j * y_power, 0) + c
    return out


def djsw_reference(d, truncation, base):
    """The djsw product with every numerator factor n = 1..T kept."""
    numerators = [univariate_image(base, (n - 1) * (d + 1) + 1, 1) for n in range(1, truncation + 1)]
    return univariate_reference(numerators, range(1, truncation + 1), truncation)


@pytest.mark.parametrize("truncation", [2, 5, 8, 11, 20])
def test_apr_product_keeps_the_factor_whose_term_lands_on_q_to_the_t(truncation):
    # T = 2 mod 3: the last factor kept, n = (T + 1)/3, is 1 + q^T exactly.
    last = (truncation + 1) // 3
    assert 3 * last - 1 == truncation
    factors = [{0: 1, 3 * n - 1: 1} for n in range(1, truncation + 1)]
    denominators = range(1, truncation + 1)
    assert apr_product(truncation) == univariate_reference(factors, denominators, truncation)
    without_last = univariate_reference(factors[: last - 1], denominators, truncation)
    assert apr_product(truncation)[truncation] == without_last[truncation] + 1


@pytest.mark.parametrize("d, last", [(2, 3), (3, 2), (4, 3), (5, 2)])
def test_djsw_product_keeps_the_factor_whose_lowest_term_is_q_to_the_t(d, last):
    # Factor n's lowest non-constant term is x*y -> q^{(n-1)(d+1)+2}.
    truncation = (last - 1) * (d + 1) + 2
    base = djsw_recursion(d)
    assert djsw_product(d, truncation) == djsw_reference(d, truncation, base)
    pairs = (((n - 1) * (d + 1) + 1, 1) for n in range(1, truncation + 1))
    assert len(list(diamonds._image_terms(base, pairs, truncation))) == last
    if d <= 3:
        assert djsw_product(d, truncation) == enumerate_infinite_univariate(d, truncation)


@pytest.mark.parametrize(
    "base",
    [
        djsw_recursion(2) + Poly2.monomial(0, 3),  # a term in y alone reaches q^3 in every factor
        Poly2({(0, 0): 1, (1, 0): 1, (0, 1): -1}),  # 1 + x - y: factor 1 cancels to 1, factor 2 does not
        Poly2({(0, 0): 2, (1, 1): 1}),  # a constant term other than 1
    ],
    ids=["pure-y-term", "cancelling", "constant-2"],
)
def test_djsw_product_cut_reads_the_base_terms(base):
    # Each base keeps every factor: a term in y alone reaches q^T in all of
    # them, and a constant other than 1 is never dropped.
    truncation = 12
    assert djsw_product(2, truncation, base=base) == djsw_reference(2, truncation, base)
    assert djsw_product(2, truncation, base=base) != djsw_product(2, truncation)
    pairs = [(3 * n - 2, 1) for n in range(1, truncation + 1)]
    assert len(list(diamonds._image_terms(base, pairs, truncation))) == truncation


def test_sigma_closed_with_more_blocks_than_the_truncation_reaches():
    # d = 2: factor n's lowest term a^{2n-1} b^n has degree 3n - 1, so at
    # T = 8 factors 4 and 5 are the constant 1, and blocks 4 and 5 add only
    # denominator factors.
    d, length, truncation = 2, 5, 8
    closed = sigma_closed(d, length, truncation)
    assert closed == sigma_rational(d, length).expand(truncation)
    assert closed == enumerate_diamonds(DiamondSpec.uniform(d, length), truncation)


@pytest.mark.parametrize("folds, truncation", [((1, 3, 2, 1, 2, 1), 5), ((2, 1) * 5, 7)])
def test_multifold_forms_with_more_blocks_than_the_truncation_reaches(folds, truncation):
    # M > T on a mixed fold sequence: the top blocks' numerator factors are
    # the constant 1 at T, in the bivariate form and in the a = b form.
    spec = DiamondSpec(folds)
    enumerated = enumerate_diamonds(spec, truncation)
    assert sigma_multifold_closed(spec, truncation) == enumerated
    assert sigma_multifold_rational(spec).expand(truncation) == enumerated
    assert sigma_univariate(spec, truncation) == enumerated.specialize_univariate()


def test_schmidt_closed_with_more_blocks_than_the_truncation_reaches():
    # Factor n, E_d(q^n, 1), is 1 + O(q^n), so factors past n = T are cut.
    assert schmidt_closed(2, 9, 5) == schmidt_oracle(2, 9, 5)
    assert schmidt_closed(3, 6, 6) == schmidt_oracle(3, 6, 6)


def _counted_substitutions(monkeypatch):
    """The list that each later ``Poly2.substitute`` call appends its arguments to."""
    calls, original = [], Poly2.substitute

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Poly2, "substitute", counted)
    return calls


@pytest.mark.parametrize(
    "closed",
    [
        lambda length, truncation: sigma_closed(2, length, truncation),
        lambda length, truncation: schmidt_closed(3, length, truncation),
        lambda length, truncation: sigma_univariate(DiamondSpec.uniform(2, length), truncation),
    ],
    ids=["sigma", "schmidt", "a-eq-b"],
)
def test_blocks_past_the_truncation_are_not_substituted(monkeypatch, closed):
    # Block n's image of x has degree at least n, so at most blocks 1..T
    # are substituted, however many there are.
    truncation, calls = 10, _counted_substitutions(monkeypatch)
    long = closed(2000, truncation)
    assert len(calls) <= truncation + 1
    assert long == closed(truncation + 1, truncation)


@pytest.mark.parametrize(
    "base",
    [
        lambda d: djsw_recursion(d) + Poly2.monomial(0, 1),  # a term in y alone
        lambda d: djsw_recursion(d) + 1,  # a constant other than 1
        lambda d: djsw_recursion(d) + (Poly2.monomial(0, 2) if d == 1 else 0),  # one fold count
    ],
    ids=["pure-y-term", "constant-2", "mixed"],
)
def test_multifold_factors_past_the_bound_read_the_base_terms(base):
    # Past the bound every term in x is gone, but a base's part in y alone
    # is not: a factor whose base has more there than 1 is kept, once per
    # block that uses it.
    spec, truncation = DiamondSpec((1, 2) * 6), 6
    numerators, denominator = diamonds._multifold_factors(spec, base, bound=truncation)
    exact = sigma_multifold_rational(spec)
    exact_numerators, exact_denominator = diamonds._multifold_factors(spec, base)
    exact_product = diamonds._product(b.substitute(x, y) for b, x, y in exact_numerators)
    bounded_product = diamonds._product((b.substitute(x, y) for b, x, y in numerators), truncation)
    expected = RationalExpr(exact_product, tuple(exact_denominator))
    bounded = RationalExpr(bounded_product, tuple(denominator))
    assert bounded.expand(truncation) == expected.expand(truncation)
    assert bounded.expand(truncation) != exact.expand(truncation)
    plain, _ = diamonds._multifold_factors(spec, diamonds._descent_polynomial, bound=truncation)
    assert len(plain) < spec.length
    assert len(numerators) > len(plain)


# --- the a = b route ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.integers(0, 16))
def test_sigma_univariate_matches_the_specialized_bivariate_form(folds, truncation):
    spec = DiamondSpec(folds)
    expected = sigma_multifold_closed(spec, truncation).specialize_univariate()
    assert sigma_univariate(spec, truncation) == expected


def test_sigma_univariate_examples():
    # (1 + q^2)/((1-q)(1-q^2)(1-q^3)(1-q^4)), as in the two-fold block above
    assert sigma_univariate(DiamondSpec.uniform(2, 1), 4) == [1, 1, 3, 4, 7]
    assert sigma_univariate(DiamondSpec.uniform(2, 1), 0) == [1]
    for length in (8, 9):
        assert sigma_univariate(DiamondSpec.uniform(2, length), 8) == apr_product(8)


_SPEC = DiamondSpec((2, 1))
_POSET, _TAGS = build_diamond_poset(_SPEC)

# Every public entry point that takes a truncation, called with T = t.
TRUNCATED_ENTRIES = {
    "sigma_closed": lambda t: sigma_closed(1, 1, t),
    "sigma_multifold_closed": lambda t: sigma_multifold_closed(_SPEC, t),
    "sigma_univariate": lambda t: sigma_univariate(_SPEC, t),
    "schmidt_closed": lambda t: schmidt_closed(1, 2, t),
    "schmidt_product": lambda t: schmidt_product(1, t),
    "apr_product": lambda t: apr_product(t),
    "djsw_product": lambda t: djsw_product(2, t),
    "enumerate_ppartitions": lambda t: enumerate_ppartitions(_POSET, _TAGS, t),
    "enumerate_diamonds": lambda t: enumerate_diamonds(_SPEC, t),
    "enumerate_infinite_univariate": lambda t: enumerate_infinite_univariate(2, t),
    "schmidt_oracle": lambda t: schmidt_oracle(1, 2, t),
    "stanley_sigma": lambda t: stanley_sigma(_POSET, _TAGS, t),
    "TruncSeries2": lambda t: TruncSeries2(t, {}),
    "RationalExpr.expand": lambda t: RationalExpr(Poly2.one(), ((0, 1),)).expand(t),
}


@pytest.mark.parametrize("entry", TRUNCATED_ENTRIES.values(), ids=TRUNCATED_ENTRIES)
def test_a_float_truncation_is_refused(entry):
    with pytest.raises(TypeError):
        entry(2.0)


# Every entry point that reads a fold count d or a length, given a float there.
FLOAT_SIZES = {
    "schmidt_oracle d": lambda: schmidt_oracle(2.0, 2, 4),
    "schmidt_oracle length": lambda: schmidt_oracle(2, 2.0, 4),
    "enumerate_infinite_univariate": lambda: enumerate_infinite_univariate(2.0, 4),
    "check_enum_guard": lambda: check_enum_guard(2.0),
    "djsw_recursion": lambda: djsw_recursion(2.0),
    "DiamondSpec.uniform": lambda: DiamondSpec.uniform(2, 2.0),
    "schmidt_closed": lambda: schmidt_closed(2, 2.0, 4),
}


@pytest.mark.parametrize("entry", FLOAT_SIZES.values(), ids=FLOAT_SIZES)
def test_a_float_size_is_refused(entry):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        entry()


@pytest.mark.parametrize("entry", TRUNCATED_ENTRIES.values(), ids=TRUNCATED_ENTRIES)
def test_a_bool_truncation_is_read_as_the_int_it_stands_for(entry):
    result = entry(True)
    assert result == entry(1)
    if isinstance(result, TruncSeries2):
        assert type(result.truncation) is int
        assert repr(result).startswith("TruncSeries2[T=1]")


@st.composite
def univariate_inputs(draw):
    """T in 0..40, numerator factors as lists of (power of q, coefficient)
    pairs (a constant 1 or not, powers anywhere up to past T, often at
    floor(T/2) or just above, and powers repeated inside a factor, the
    constant's included) and a multiset of denominator exponents (repeats,
    T/2, and past T)."""
    truncation = draw(st.integers(0, 40))
    half = truncation // 2
    near_half = st.one_of(st.just(max(half, 1)), st.integers(max(half, 1), half + 2))
    exponents = st.one_of(st.integers(1, truncation + 3), near_half)
    factors = []
    for _ in range(draw(st.integers(0, 5))):
        powers = [0, *draw(st.lists(st.one_of(exponents, st.just(half)), max_size=4))]
        powers += draw(st.lists(st.sampled_from(powers), max_size=2))  # repeats
        constant = draw(st.sampled_from([1, 1, 1, 0, 2, -1]))
        factors.append([(0, constant), *((e, draw(st.integers(-3, 3))) for e in powers[1:])])
    denominator = draw(st.lists(st.one_of(exponents, st.just(half + 1), st.just(max(half, 1))),
                                max_size=12))
    return factors, denominator, truncation


@settings(max_examples=300, deadline=None)
@given(st.data(), univariate_inputs())
def test_univariate_equals_the_unsplit_expansion(data, inputs):
    # The reference multiplies every numerator factor in, its repeated
    # powers summed, and sweeps every denominator factor in the order
    # drawn; _univariate adds those whose terms all lie past T/2 into one
    # row instead, and gets the denominator in any order.
    factors, exponents, truncation = inputs
    polys = [Poly2(((0, e), c) for e, c in factor) for factor in factors]
    monomials = tuple(Monomial2(0, e) for e in exponents)
    unsplit = RationalExpr(diamonds._product(polys, truncation), monomials)
    expected = unsplit.expand(truncation).specialize_univariate()
    shuffled = data.draw(st.permutations(exponents))
    assert diamonds._univariate(iter(factors), iter(shuffled), truncation) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)), max_size=6))
def test_image_terms_are_the_substituted_base(d, pairs):
    # Without a bound, one term list per pair: the base at x = q^xs, y = q^ys.
    base = djsw_recursion(d)
    images = list(diamonds._image_terms(base, pairs))
    assert len(images) == len(pairs)
    for (xs, ys), terms in zip(pairs, images):
        assert Poly2(((0, e), c) for e, c in terms) == base.substitute((0, xs), (0, ys))


@pytest.mark.parametrize(
    "product", [lambda t: schmidt_product(3, t), lambda t: djsw_product(3, t)], ids=["schmidt", "djsw"]
)
def test_product_factors_are_not_substituted(monkeypatch, product):
    # Each numerator factor is read from the base's terms, so the number of
    # substitutions does not grow with T.
    product(4)  # stores E_3
    calls = _counted_substitutions(monkeypatch)
    counts = []
    for truncation in (10, 100):
        calls.clear()
        product(truncation)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 1
