import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruinpaths import (
    ballot_count,
    ballot_via_recurrence,
    catalan,
    catalan_via_convolution,
    combinatorics,
)

# Path counts below were frozen after recounting them with the brute-force
# enumerator (exhaustive placement of right steps plus a prefix walk).
CATALAN_KNOWN = [(0, 1), (1, 1), (2, 2), (3, 5), (4, 14), (7, 429), (10, 16796)]
BALLOT_KNOWN = [
    (1, 3, 5),
    (2, 1, 2),
    (2, 2, 5),
    (2, 3, 14),
    (3, 0, 1),
    (3, 1, 3),
    (3, 2, 9),
    (4, 1, 4),
    (4, 2, 14),
    (5, 0, 1),
]


@pytest.mark.parametrize("n, expected", CATALAN_KNOWN)
def test_catalan_known_values(n, expected):
    assert catalan(n) == expected


def test_catalan_matches_binomial_form():
    for n in range(300):
        assert catalan(n) == math.comb(2 * n, n) // (n + 1)


def test_catalan_rejects_bad_input():
    with pytest.raises(ValueError):
        catalan(-1)
    with pytest.raises(TypeError):
        catalan(2.0)
    with pytest.raises(TypeError):
        catalan(True)


@pytest.mark.parametrize("k, n, expected", BALLOT_KNOWN)
def test_ballot_known_values(k, n, expected):
    assert ballot_count(k, n) == expected


def test_ballot_start_one_is_catalan():
    for n in range(60):
        assert ballot_count(1, n) == catalan(n)


def test_ballot_rejects_absorbed_start():
    with pytest.raises(ValueError):
        ballot_count(0, 3)
    with pytest.raises(ValueError):
        ballot_count(-2, 3)
    with pytest.raises(ValueError):
        ballot_count(2, -1)


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=200))
def test_ballot_division_is_exact(k, n):
    assert ballot_count(k, n) * (2 * n + k) == k * math.comb(2 * n + k, n)


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=200))
def test_ballot_strictly_increasing_in_n(k, n):
    assert ballot_count(k, n + 1) > ballot_count(k, n)


@pytest.mark.parametrize("n, expected", [(1, 1), (4, 14), (7, 429)])
def test_convolution_known_values(n, expected):
    assert catalan_via_convolution(n) == expected


def test_convolution_matches_catalan():
    for n in range(1, 120):
        assert catalan_via_convolution(n) == catalan(n)


def test_convolution_rejects_empty_sum():
    with pytest.raises(ValueError):
        catalan_via_convolution(0)


# k = 1100 chains more rows than the default recursion limit allows frames.
@pytest.mark.parametrize("k, n, expected", [(2, 3, 14), (3, 0, 1), (4, 2, 14), (1100, 0, 1)])
def test_recurrence_known_values(k, n, expected):
    assert ballot_via_recurrence(k, n) == expected


def test_recurrence_matches_closed_form_small_grid():
    for k in range(1, 13):
        for n in range(41):
            assert ballot_via_recurrence(k, n) == ballot_count(k, n)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=200))
def test_recurrence_matches_closed_form(k, n):
    assert ballot_via_recurrence(k, n) == ballot_count(k, n)


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=60),
                          st.integers(min_value=0, max_value=60)), max_size=20))
def test_recurrence_fills_an_empty_table_in_any_call_order(calls):
    saved = combinatorics._RECURRENCE_ROWS
    combinatorics._RECURRENCE_ROWS = []
    try:
        for k, n in calls:
            assert ballot_via_recurrence(k, n) == ballot_count(k, n)
    finally:
        combinatorics._RECURRENCE_ROWS = saved


def test_start_two_counts_are_shifted_catalan():
    for n in range(0, 501):
        assert ballot_count(2, n) == catalan(n + 1)


def test_recurrence_rejects_bad_input():
    with pytest.raises(ValueError):
        ballot_via_recurrence(0, 1)
    with pytest.raises(ValueError):
        ballot_via_recurrence(3, -1)
