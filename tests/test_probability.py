import hashlib
import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruinpaths import (
    absorption_exact,
    absorption_series,
    absorption_via_gf,
    generating_function,
    tail_start,
    verify_three_term,
)
from ruinpaths.probability import series_terms

RATIONAL_GRID = [
    Fraction(1, 10),
    Fraction(1, 4),
    Fraction(2, 5),
    Fraction(1, 2),
    Fraction(3, 5),
    Fraction(3, 4),
    Fraction(9, 10),
]


def rational_p_open_interval():
    # Fractions strictly inside (0, 1) with small denominators.
    return (
        st.integers(min_value=2, max_value=60)
        .flatmap(
            lambda den: st.integers(min_value=1, max_value=den - 1).map(
                lambda num: Fraction(num, den)
            )
        )
    )


def rational_p_closed_interval():
    # Fractions in [0, 1], endpoints included, with small denominators.
    return st.integers(min_value=1, max_value=60).flatmap(
        lambda den: st.integers(min_value=0, max_value=den).map(lambda num: Fraction(num, den))
    )


# Floats in [0, 1] spread evenly over binary exponents, subnormals included.
LOG_UNIFORM_P = st.builds(
    math.ldexp, st.floats(min_value=0.5, max_value=1.0), st.integers(min_value=-1074, max_value=0)
)


# ---------------------------------------------------------------------------
# closed form

def test_absorption_exact_below_half_is_one():
    assert absorption_exact(3, 0.4) == 1.0
    assert absorption_exact(7, Fraction(1, 2)) == 1
    assert absorption_exact(2, 0) == 1


def test_absorption_exact_above_half():
    assert absorption_exact(1, Fraction(2, 3)) == Fraction(1, 2)
    assert absorption_exact(3, Fraction(2, 3)) == Fraction(1, 8)
    assert absorption_exact(3, Fraction(3, 4)) == Fraction(1, 27)
    assert absorption_exact(1, 0.75) == pytest.approx(1 / 3)


def test_absorption_exact_boundaries():
    assert absorption_exact(5, 1) == 0
    assert absorption_exact(5, 1.0) == 0.0
    assert absorption_exact(5, Fraction(0)) == 1


def test_absorption_exact_preserves_representation():
    assert isinstance(absorption_exact(2, Fraction(3, 5)), Fraction)
    assert isinstance(absorption_exact(2, 0.6), float)
    assert isinstance(absorption_exact(2, 0.4), float)
    assert isinstance(absorption_exact(2, Fraction(2, 5)), Fraction)


def test_absorption_exact_power_law():
    for p in RATIONAL_GRID:
        base = absorption_exact(1, p)
        for k in range(1, 65):
            assert absorption_exact(k, p) == base**k


def test_negative_zero_p_is_zero():
    # -0.0 lies in [0, 1]; it used to come back signed from every route.
    for value in (
        absorption_series(1, -0.0, 1e-12).tail_bound,
        generating_function(-0.0),
        next(series_terms(1, -0.0))[2],
    ):
        assert math.copysign(1.0, value) == 1.0


def test_absorption_exact_rejects_bad_input():
    with pytest.raises(ValueError):
        absorption_exact(0, 0.5)
    with pytest.raises(ValueError):
        absorption_exact(2, 1.5)
    with pytest.raises(TypeError):
        absorption_exact(2, "0.5")


# ---------------------------------------------------------------------------
# generating function route

def test_generating_function_endpoints():
    assert generating_function(0) == 0
    assert generating_function(0.0) == 0.0
    assert generating_function(Fraction(1, 4)) == Fraction(1, 2)


@given(
    st.one_of(
        st.floats(min_value=0.0, max_value=0.25),
        st.floats(min_value=0.25 - 1e-6, max_value=0.25),
        LOG_UNIFORM_P.map(lambda z: z / 4),
    )
)
@example(0.0)
@example(0.01)
@example(0.1)
@example(0.2)
@example(0.25)
@example(5e-324)
def test_generating_function_solves_quadratic(z):
    # The residual that `verify probability` checks at the five points above
    # holds on all of [0, 1/4], beside 1/4 and at subnormal z included.
    f = generating_function(z)
    assert abs(f * f - f + z) <= 1e-14


def test_generating_function_exact_on_perfect_squares():
    # 1 - 4z = 1/9 at z = 2/9, a perfect rational square.
    assert generating_function(Fraction(2, 9)) == Fraction(1, 3)


def test_generating_function_falls_back_to_float_otherwise():
    value = generating_function(Fraction(1, 5))
    assert isinstance(value, float)
    assert abs(value * value - value + 0.2) <= 1e-14


def test_generating_function_domain():
    with pytest.raises(ValueError):
        generating_function(-0.01)
    with pytest.raises(ValueError):
        generating_function(0.2501)
    with pytest.raises(ValueError):
        generating_function(Fraction(1, 3))


def test_gf_route_matches_closed_form():
    assert absorption_via_gf(Fraction(1, 2)) == 1
    assert absorption_via_gf(Fraction(2, 3)) == Fraction(1, 2)
    assert abs(absorption_via_gf(0.3) - 1.0) <= 1e-12
    for p in (0.1, 0.3, 0.5, 0.6, 0.9):
        assert abs(absorption_via_gf(p) - absorption_exact(1, p)) <= 1e-12
    for p in RATIONAL_GRID:
        assert absorption_via_gf(p) == absorption_exact(1, p)


def test_gf_route_rejects_p_zero():
    with pytest.raises(ValueError):
        absorption_via_gf(0)
    assert absorption_via_gf(1.0) == 0.0


@given(
    st.one_of(
        st.floats(min_value=0.0, max_value=0.49, exclude_min=True),
        st.floats(min_value=0.51, max_value=1.0),
    )
)
@example(1e-320)
@example(1e-9)
@example(1 - 2**-40)
def test_float_gf_route_is_accurate_away_from_one_half(p):
    # Written as (1 - sqrt(1-4z))/2, the route cancels at small p and
    # printed 0.0 for p = 1e-320, where the answer is 1.
    exact = absorption_exact(1, Fraction(p))
    assert abs(Fraction(absorption_via_gf(p)) - exact) <= Fraction(1e-12) * exact


@given(
    st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        st.floats(min_value=1e-15, max_value=1e-1).flatmap(
            lambda d: st.sampled_from([0.5 - d, 0.5 + d])
        ),
        LOG_UNIFORM_P.filter(lambda p: p > 0),
    )
)
@example(0.5)
@example(0.5 + 2**-53)
@example(5e-324)
@example(1.0)
def test_float_gf_route_relative_error_bound(p):
    # The docstring's bound u/|1-2p| + 4u, u = 2^-53, multiplied through by
    # |1-2p| so that p = 1/2 needs no special case.
    exact = absorption_exact(1, Fraction(p))
    gap = abs(1 - 2 * Fraction(p))
    error = abs(Fraction(absorption_via_gf(p)) - exact)
    assert error * gap <= Fraction(1, 2**53) * (1 + 4 * gap) * exact


def test_float_gf_route_never_exceeds_one():
    # The exact value is 1 for every p <= 1/2; rounding lifted 102 of these p,
    # 0.072 and 0.1 among them, to 1 + 2^-52 and more.
    for i in range(1, 501):
        assert 1 - 1e-12 <= absorption_via_gf(i / 1000) <= 1


# ---------------------------------------------------------------------------
# series route

def test_tail_start_values():
    assert [tail_start(k) for k in (1, 2, 3, 4, 5, 10)] == [0, 0, 2, 5, 9, 44]


def test_series_degenerate_p_zero():
    result = absorption_series(1, Fraction(0), 1e-12)
    assert result.partial_sum == 1
    assert result.terms_used == 1
    assert result.converged


def test_series_degenerate_p_one():
    result = absorption_series(3, Fraction(1), 1e-12)
    assert result.partial_sum == 0
    assert result.converged
    assert result.terms_used == tail_start(3) + 1


def test_series_brackets_exact_value_in_rational_arithmetic():
    for p in (Fraction(1, 10), Fraction(2, 5), Fraction(3, 5), Fraction(9, 10)):
        for k in range(1, 7):
            result = absorption_series(k, p, 1e-12)
            exact = absorption_exact(k, p)
            assert result.converged
            assert result.tail_bound <= 1e-12
            assert result.partial_sum <= exact <= result.partial_sum + result.tail_bound
            assert result.terms_used >= tail_start(k) + 1


def test_series_float_route_close_to_closed_form():
    result = absorption_series(1, 0.6, 1e-12)
    assert result.converged
    assert math.isclose(result.partial_sum, 2 / 3, abs_tol=1e-11)


def test_series_certificate_never_starts_before_gate():
    # Generous tail target: without the gate the bound would fire at n = 0.
    for k in range(3, 11):
        result = absorption_series(k, Fraction(1, 10), 0.5)
        assert result.converged
        assert result.terms_used >= tail_start(k) + 1


def test_series_near_critical_reports_lower_bound():
    result = absorption_series(2, Fraction(1, 2), 1e-12, max_terms=1500)
    assert not result.converged
    assert math.isinf(result.tail_bound)
    assert result.terms_used == 1500
    assert result.partial_sum < 1
    longer = absorption_series(2, Fraction(1, 2), 1e-12, max_terms=3000)
    assert longer.partial_sum > result.partial_sum  # monotone in the term budget


def test_series_near_one_half_does_not_certify_in_200_terms():
    for p in (0.499, 0.501):
        result = absorption_series(1, p, 1e-12, max_terms=200)
        assert not result.converged


@pytest.mark.parametrize(
    "p, k, terms",
    [
        (Fraction(47, 100), 1, 5_319),
        (Fraction(47, 100), 4, 5_722),
        (Fraction(53, 100), 1, 5_288),
        (Fraction(53, 100), 4, 5_597),
        (Fraction(12, 25), 1, 11_733),
        (Fraction(12, 25), 4, 12_605),
    ],
)
def test_series_certifies_exact_p_near_one_half(p, k, terms):
    # 4p(1-p) is 0.9964 at 47/100 and 53/100 and 0.9984 at 12/25: below 1,
    # so the geometric bound certifies, late but well inside the budget.
    result = absorption_series(k, p, 1e-12, max_terms=13_000)
    assert result.converged and result.tail_bound <= 1e-12
    assert result.terms_used == terms
    assert result.partial_sum <= absorption_exact(k, p) <= result.partial_sum + result.tail_bound


@pytest.mark.parametrize("p", [0.47, 0.48, 0.49, 0.51, 0.52, 0.53])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_series_certifies_float_p_near_one_half(p, k):
    result = absorption_series(k, p, 1e-12)
    assert result.converged and result.tail_bound <= 1e-12
    exact = absorption_exact(k, Fraction(p))
    assert result.partial_sum <= exact <= result.partial_sum + result.tail_bound


def test_series_budget_before_tail_start_still_sums_its_terms():
    # The library keeps the partial sum of a short budget; only the CLI
    # refuses a budget that cannot certify.
    result = absorption_series(5, Fraction(3, 5), 1e-12, max_terms=9)
    assert not result.converged
    assert result.terms_used == 9
    assert math.isinf(result.tail_bound)
    assert absorption_series(5, Fraction(3, 5), 1e-12, max_terms=10).terms_used == 10


def test_series_rejects_bad_parameters():
    with pytest.raises(ValueError):
        absorption_series(1, 0.6, 0.0)
    with pytest.raises(ValueError):
        absorption_series(1, 0.6, 1e-12, max_terms=0)


@given(
    st.integers(min_value=1, max_value=40),
    st.one_of(
        st.integers(min_value=1, max_value=64).flatmap(
            lambda den: st.integers(min_value=0, max_value=den).map(
                lambda num: Fraction(num, den)
            )
        ),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
# Ratios just below 1 are bounded from tail_start(k): 4p(1-p) is 0.994898...
# at 15/28 and 0.995133... at 23/43.  Ratio 1 is never bounded: p = 1/2, and
# a float p beside it whose 4p(1-p) rounds to 1.
@example(5, Fraction(15, 28))
@example(5, Fraction(23, 43))
@example(5, Fraction(1, 2))
@example(5, 0.5 + 2**-30)
def test_series_terms_bound_exactly_where_certified(k, p):
    ratio = 4 * (p * (1 - p))
    certifiable = ratio < 1
    for n, (term, _, bound) in enumerate(islice(series_terms(k, p), 60)):
        if n < tail_start(k) or not certifiable:
            assert bound is None
        else:
            assert bound == term * ratio / (1 - ratio)


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.one_of(
        st.integers(min_value=1, max_value=2**16).flatmap(
            lambda den: st.integers(min_value=0, max_value=den).map(
                lambda num: Fraction(num, den)
            )
        ),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    st.one_of(st.floats(min_value=1e-300, max_value=10.0), st.just(math.inf)),
    st.integers(min_value=1, max_value=80),
)
# A budget that ends past tail_start with every bound above the target.
@example(1, Fraction(3, 5), 1e-30, 3)
@example(2, 0.5, 1e-12, 80)
# A budget that ends before tail_start(6) = 14: five terms, no bound.
@example(6, Fraction(3, 5), 1e-12, 5)
@example(6, 0.6, 1e-12, 5)
def test_series_rows_carry_the_partial_sums_absorption_series_returns(
    k, p, target_tail, max_terms
):
    rows = list(islice(series_terms(k, p), 80))
    total = 0 * p
    for term, partial_sum, _ in rows:
        total += term
        assert type(partial_sum) is type(total)
        assert partial_sum == total
    result = absorption_series(k, p, target_tail, max_terms=max_terms)
    _, partial_sum, bound = rows[result.terms_used - 1]
    assert result.partial_sum == partial_sum
    assert result.tail_bound == (bound if result.converged else math.inf)


@given(rational_p_open_interval(), st.integers(min_value=1, max_value=8))
def test_series_partial_sum_never_exceeds_exact_value(p, k):
    result = absorption_series(k, p, 1e-6, max_terms=400)
    assert result.partial_sum <= absorption_exact(k, p)


def reference_term(k, p, n):
    """The series term C_k(n) p^n (1-p)^(n+k), built from math.comb."""
    return Fraction(k * math.comb(2 * n + k, n), 2 * n + k) * p**n * (1 - p) ** (n + k)


def reference_bound(k, p, n):
    """The tail bound t_n r/(1-r), r = 4p(1-p), after reference_term n."""
    ratio = 4 * p * (1 - p)
    return reference_term(k, p, n) * ratio / (1 - ratio)


def reference_series(k, p, target_tail, max_terms):
    """absorption_series summed one Fraction term at a time, each term
    from reference_term."""
    p = Fraction(p)
    bounded_from = tail_start(k) if 4 * p * (1 - p) < 1 else math.inf
    total = Fraction(0)
    for n in range(max_terms):
        total += reference_term(k, p, n)
        if n >= bounded_from:
            bound = reference_bound(k, p, n)
            if bound <= target_tail:
                return total, n + 1, bound, True
    return total, max_terms, math.inf, False


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=2**20).flatmap(
        lambda den: st.integers(min_value=0, max_value=den).map(
            lambda num: Fraction(num, den)
        )
    ),
    st.one_of(
        st.floats(min_value=1e-300, max_value=10.0),
        st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**40)),
        st.just(math.inf),
    ),
    st.integers(min_value=1, max_value=500),
)
@example(5, Fraction(15, 28), 1e-12, 500)
@example(5, Fraction(23, 43), 1e-12, 500)
@example(3, Fraction(0), 1e-12, 10)
@example(3, Fraction(1), 1e-300, 10)
@example(2, 0, Fraction(1, 10**12), 5)
@example(2, 1, math.inf, 5)
@example(1, Fraction(1, 3), 1e-12, 1)
@example(7, Fraction(2, 5), math.inf, 500)
@example(1, Fraction(1, 2), math.inf, 50)
# Targets equal to the first bound, 9/4 and 81/160: the rule stops at n = 0.
@example(1, Fraction(1, 4), 2.25, 5)
@example(1, Fraction(1, 10), Fraction(81, 160), 5)
# The bit-length pre-test.  A target equal to the bound at n = 400 (1,825 over
# 1,858 bits) reaches the exact compare, meets equality and stops after 401
# terms; 10^-600 below it, after 402.  At 47/100 the bound stays bits above
# 1e-12, so no term reaches the compare and the run ends unconverged at 500.
@example(1, Fraction(2, 5), reference_bound(1, Fraction(2, 5), 400), 500)
@example(1, Fraction(2, 5), reference_bound(1, Fraction(2, 5), 400) - Fraction(1, 10**600), 500)
@example(1, Fraction(47, 100), 1e-12, 500)
# The float just above the first bound 16/3 at 1/3: both products have the same
# bit length, one short of the sum of their factors', and the run stops at n = 0.
@example(1, Fraction(1, 3), 5.333333333333334, 5)
def test_exact_series_equals_term_by_term_fraction_sum(k, p, target_tail, max_terms):
    result = absorption_series(k, p, target_tail, max_terms=max_terms)
    assert isinstance(result.partial_sum, Fraction)
    assert (result.partial_sum, result.terms_used, result.tail_bound, result.converged) \
        == reference_series(k, p, target_tail, max_terms)


# absorption_series on the acceptance-criterion-8 grid (target 10^-12), as
# the Fraction-by-Fraction summation before the integer kernel computed it:
# terms used per p, and a SHA-256 over the hex numerator and denominator of
# every partial_sum and tail_bound in the row.
SERIES_BAND = (
    Fraction(1, 10),
    Fraction(1, 4),
    Fraction(2, 5),
    Fraction(9, 20),
    Fraction(11, 20),
    Fraction(3, 5),
    Fraction(3, 4),
    Fraction(9, 10),
)
PINNED_SERIES = [
    (1, (23, 76, 501, 1960, 1942, 492, 72, 21),
     "e9de845470464fc007916ba114fc0c6148613c784fb11f55ea58a50ccff3e8f0"),
    (2, (24, 79, 521, 2033, 1996, 503, 72, 20),
     "d426fc99f361b86a628dcb04be7c54a90bf6222fcbcc78cb4561eceaefdae212"),
    (3, (25, 82, 535, 2079, 2024, 507, 71, 19),
     "29dee1b2ecc305762c32206772f4bd94b714856844384a57fa9d99f0d897bbbc"),
    (4, (25, 84, 545, 2115, 2040, 508, 70, 17),
     "2eae5c753e005d387c823909be2d5d850274715b803bef201bab9262173b0691"),
    (5, (26, 86, 554, 2144, 2051, 508, 68, 16),
     "5c3d36071f208f62d3c36d54b81e185f1480299b11805c4b7aabda5a4dc83937"),
    (6, (27, 88, 563, 2170, 2058, 507, 66, 15),
     "7383ea77aebd317d34895692ce260732b75f3cfa9852b1a2f7389f79d2f9048c"),
    (7, (27, 90, 570, 2193, 2063, 505, 64, 21),
     "4cec04afccf2acc17df812be72c3c0d45645b7fa10380a4c4f37a2dc3d2f486d"),
    (8, (28, 91, 577, 2214, 2065, 503, 62, 28),
     "275659017d3b84e67a9161c73209909a6258686606146bc3653a43a402c09ad3"),
    (9, (36, 93, 584, 2234, 2066, 500, 60, 36),
     "fafd532dad305900553d51f06d5cb5df4bf0c3e2f3080816d73a6f7ff0872a15"),
    (10, (45, 94, 591, 2252, 2066, 497, 58, 45),
     "0fa9018386b6cd02788cdb0a2f9ed114f698785fb418899d20affdcdcfed5968"),
]


@pytest.mark.parametrize("k, terms, digest", PINNED_SERIES)
def test_exact_series_outputs_are_pinned(k, terms, digest):
    results = [absorption_series(k, p, Fraction(1, 10**12)) for p in SERIES_BAND]
    assert tuple(r.terms_used for r in results) == terms
    text = ",".join(
        f"{x.numerator:x}/{x.denominator:x}"
        for r in results
        for x in (r.partial_sum, r.tail_bound)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# three-term recurrence

def test_three_term_known_cases():
    assert verify_three_term(1, Fraction(3, 4))
    assert verify_three_term(2, Fraction(1, 3))
    assert verify_three_term(7, 0.51)


@pytest.mark.parametrize("p", [0, 1, 0.0, 1.0, Fraction(0), Fraction(1)])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_three_term_holds_at_endpoints(p, k):
    # Stated as the first-step equation, the identity divides by nothing.
    assert verify_three_term(k, p)


@given(rational_p_closed_interval(), st.integers(min_value=1, max_value=32))
def test_three_term_holds_for_rational_p(p, k):
    assert verify_three_term(k, p)


@given(
    st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.5 - 1e-6, max_value=0.5 + 1e-6),
        LOG_UNIFORM_P,
    ),
    st.integers(min_value=1, max_value=2000),
)
@example(1e-5, 1)
@example(1e-300, 5)
def test_three_term_holds_for_every_float_p(p, k):
    # Divided by p, the identity cancels: its rounding grows like u/p and
    # passed the 1e-12 tolerance at p = 1e-5.
    assert verify_three_term(k, p)


def test_three_term_holds_on_float_grid():
    for p in (0.1, 0.3, 0.5, 0.6, 0.9):
        for k in range(1, 33):
            assert verify_three_term(k, p)


# ---------------------------------------------------------------------------
# the float k limit

FLOAT_ROUTES = {
    "exact": lambda k: absorption_exact(k, 0.6),
    "exact-below-half": lambda k: absorption_exact(k, 0.3),
    "exact-p-one": lambda k: absorption_exact(k, 1.0),
    "series_terms": lambda k: series_terms(k, 0.6),
    "series": lambda k: absorption_series(k, 0.6, 1e-12, max_terms=2),
    "three-term": lambda k: verify_three_term(k, 0.6),
}


@pytest.mark.parametrize("route", FLOAT_ROUTES.values(), ids=FLOAT_ROUTES)
@pytest.mark.parametrize("k", [2**511, 2**512 - 1, 10**400], ids=["2^511", "2^512-1", "10^400"])
def test_float_routes_reject_k_from_2_to_the_511(route, k):
    # One limit serves every float route, though the closed form alone would
    # compute up to 2**1024.
    with pytest.raises(ValueError, match=r"^k must be < 2\*\*511 when p is a float$"):
        route(k)


def test_float_routes_take_k_below_the_limit():
    k = 2**511 - 1
    assert absorption_exact(k, 0.6) == 0.0
    assert absorption_exact(k, 0.3) == 1.0
    assert list(islice(series_terms(k, 0.6), 3)) == [(0.0, 0.0, None)] * 3
    result = absorption_series(k, 0.6, 1e-12, max_terms=2)
    assert (result.partial_sum, result.converged) == (0.0, False)
    assert verify_three_term(k - 2, 0.6)
    # A Fraction p has no such limit.
    assert absorption_exact(2**1024, Fraction(1, 4)) == 1
