import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruinpaths import (
    EnumerationCapError,
    LatticePath,
    Step,
    ballot_count,
    catalan,
    enumerate_first_passage,
    first_return_compose,
    first_return_decompose,
    is_first_passage,
    partition_by_first_step,
    path_from_string,
    path_to_string,
    serialize_all,
    shift_bijection_k2,
)

R, L = Step.RIGHT, Step.LEFT


def steps_of(text: str) -> tuple[Step, ...]:
    return tuple(Step(c) for c in text)


# ---------------------------------------------------------------------------
# step and path model

def test_step_symbols():
    assert Step("R") is R and Step("L") is L
    assert R.delta == 1 and L.delta == -1


def test_path_construction_and_counts():
    p = LatticePath(2, steps_of("RLLL"))
    assert p.right_steps() == 1
    assert len(p) == 4
    assert p == LatticePath(2, list(steps_of("RLLL")))  # sequence coerced to tuple


@pytest.mark.parametrize(
    "start, text",
    [
        (2, "LLRL"),  # absorbed at step 2, before the end
        (1, "R"),  # ends at 2, not 0
        (1, "LL"),  # continues past absorption
        (3, "LL"),  # ends at 1
        (0, "L"),  # start must be positive
        (-1, "L"),
    ],
)
def test_path_rejects_non_first_passage(start, text):
    with pytest.raises(ValueError):
        LatticePath(start, steps_of(text))


@pytest.mark.parametrize(
    "start, text, expected",
    [
        (1, "L", True),
        (2, "LLRL", False),
        (2, "RLLL", True),
        (1, "", False),
        (0, "L", False),
        (3, "LLL", True),
    ],
)
def test_is_first_passage(start, text, expected):
    assert is_first_passage(start, steps_of(text)) is expected


def test_non_step_elements_are_rejected():
    assert is_first_passage(1, ["L"]) is False
    assert is_first_passage(2, [R, "L", L, L]) is False
    with pytest.raises(ValueError, match="^steps must be Step members"):
        LatticePath(1, ("L",))


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.sampled_from([R, L]), max_size=12),
)
def test_is_first_passage_agrees_with_reference_walk(start, steps):
    # Independent reference: track every prefix position explicitly.
    positions = [start]
    for s in steps:
        positions.append(positions[-1] + s.delta)
    expected = (
        len(steps) > 0
        and positions[-1] == 0
        and all(pos > 0 for pos in positions[:-1])
    )
    assert is_first_passage(start, steps) is expected


# ---------------------------------------------------------------------------
# serialization

def test_serialization_round_trip():
    p = LatticePath(2, steps_of("RLLL"))
    assert path_to_string(p) == "2:RLLL"
    assert path_from_string("2:RLLL") == p


@pytest.mark.parametrize(
    "text", ["", "2RLLL", "x:RLL", "2:RLX", "2:RL", "0:L", ":"]
)
def test_serialization_rejects_malformed(text):
    with pytest.raises(ValueError):
        path_from_string(text)


def test_round_trip_over_enumerated_paths():
    for k, n in [(1, 4), (2, 3), (3, 2)]:
        for p in enumerate_first_passage(k, n):
            assert path_from_string(path_to_string(p)) == p


# ---------------------------------------------------------------------------
# enumeration oracle

def test_enumerate_smallest_cases():
    assert serialize_all(enumerate_first_passage(1, 0)) == ["1:L"]
    assert serialize_all(enumerate_first_passage(2, 1)) == ["2:LRLL", "2:RLLL"]
    assert len(enumerate_first_passage(1, 3)) == 5


def test_enumerate_is_canonically_ordered_and_duplicate_free():
    for k, n in [(1, 5), (2, 4), (4, 3)]:
        serialized = serialize_all(enumerate_first_passage(k, n))
        assert serialized == sorted(serialized)
        assert len(set(serialized)) == len(serialized)


def test_enumerate_counts_match_ballot_numbers():
    for k in range(1, 7):
        for n in range((14 - k) // 2 + 1):
            assert len(enumerate_first_passage(k, n)) == ballot_count(k, n)


def test_enumerate_paths_have_requested_shape():
    for p in enumerate_first_passage(3, 2):
        assert p.start == 3
        assert p.right_steps() == 2
        assert len(p) == 7


def test_enumerate_cap_is_enforced_and_overridable():
    with pytest.raises(EnumerationCapError, match="26"):
        enumerate_first_passage(1, 13)
    with pytest.raises(EnumerationCapError):
        enumerate_first_passage(2, 1, cap=3)
    assert len(enumerate_first_passage(2, 1, cap=4)) == 2


def test_enumerate_has_no_depth_limit():
    # Far longer than the interpreter's default recursion limit.
    assert enumerate_first_passage(1500, 0, cap=2000) == [LatticePath(1500, (L,) * 1500)]


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_first_passage(0, 1)
    with pytest.raises(ValueError):
        enumerate_first_passage(1, -1)


# ---------------------------------------------------------------------------
# first-return decomposition

def test_decompose_smallest_case():
    alpha, left, right = first_return_decompose(path_from_string("1:RLL"))
    assert alpha == 1
    assert path_to_string(left) == "1:L"
    assert path_to_string(right) == "1:L"


def test_decompose_rejects_bad_paths():
    with pytest.raises(ValueError):
        first_return_decompose(path_from_string("2:RLLL"))
    with pytest.raises(ValueError):
        first_return_decompose(path_from_string("1:L"))


def test_decompose_compose_round_trip():
    for n in range(1, 7):
        for p in enumerate_first_passage(1, n):
            alpha, left, right = first_return_decompose(p)
            assert 1 <= alpha <= n
            assert left.right_steps() == alpha - 1
            assert right.right_steps() == n - alpha
            assert first_return_compose(alpha, left, right) == p


def test_compose_covers_all_paths_exactly_once():
    # Assembling every (alpha, left, right) triple rebuilds the n=4 path set
    # with no collisions: the convolution identity made concrete, 14 paths.
    n = 4
    built = []
    for alpha in range(1, n + 1):
        for left in enumerate_first_passage(1, alpha - 1):
            for right in enumerate_first_passage(1, n - alpha):
                built.append(path_to_string(first_return_compose(alpha, left, right)))
    assert len(built) == 14
    assert sorted(built) == serialize_all(enumerate_first_passage(1, n))


def test_compose_validates_components():
    left = path_from_string("1:L")
    right = path_from_string("1:L")
    with pytest.raises(ValueError):
        first_return_compose(2, left, right)  # alpha inconsistent with left
    with pytest.raises(ValueError):
        first_return_compose(1, path_from_string("2:LL"), right)


# ---------------------------------------------------------------------------
# shift bijection

def test_shift_smallest_case():
    assert path_to_string(shift_bijection_k2(path_from_string("1:RLL"))) == "2:LL"


def test_shift_rejects_bad_input():
    with pytest.raises(ValueError):
        shift_bijection_k2(path_from_string("1:L"))  # no right step to strip
    with pytest.raises(ValueError):
        shift_bijection_k2(path_from_string("2:LL"))


def test_shift_is_a_bijection_onto_start_two():
    for n in range(0, 7):
        source = enumerate_first_passage(1, n + 1)
        image = [shift_bijection_k2(p) for p in source]
        target = enumerate_first_passage(2, n)
        assert set(serialize_all(image)) == set(serialize_all(target))
        assert len(set(serialize_all(image))) == len(source)
        for original, shifted in zip(source, image):
            assert LatticePath(1, (R,) + shifted.steps) == original


# ---------------------------------------------------------------------------
# partition by first step

def test_partition_smallest_case():
    to_k, to_k_minus_2 = partition_by_first_step(3, 0)
    assert serialize_all(to_k) == ["3:LLL"]
    assert serialize_all(to_k_minus_2) == ["1:RLL"]


def test_partition_matches_both_target_sets():
    to_k, to_k_minus_2 = partition_by_first_step(4, 1)
    assert len(to_k) == 4 and len(to_k_minus_2) == 5
    assert set(serialize_all(to_k)) == set(serialize_all(enumerate_first_passage(4, 1)))
    assert set(serialize_all(to_k_minus_2)) == set(
        serialize_all(enumerate_first_passage(2, 2))
    )


def test_partition_counts_add_up():
    to_k, to_k_minus_2 = partition_by_first_step(3, 2)
    assert len(to_k) + len(to_k_minus_2) == ballot_count(2, 3) == 14


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        partition_by_first_step(2, 1)
    with pytest.raises(EnumerationCapError):
        partition_by_first_step(3, 12)


def test_partition_identity_across_range():
    for k in range(3, 6):
        for n in range(0, 5):
            to_k, to_k_minus_2 = partition_by_first_step(k, n)
            assert len(to_k) == ballot_count(k, n)
            assert len(to_k_minus_2) == ballot_count(k - 2, n + 1)


def test_catalan_equals_enumeration():
    for n in range(0, 8):
        assert len(enumerate_first_passage(1, n)) == catalan(n)
