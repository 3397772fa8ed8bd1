import copy
import dataclasses
import gc
import hashlib
import pickle
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
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
from ruinpaths import paths

R, L = Step.RIGHT, Step.LEFT


def steps_of(text: str) -> tuple[Step, ...]:
    return tuple(Step(c) for c in text)


def reference_first_passage(k: int, n: int) -> list[str]:
    # Shares no search code with the enumerator: every R/L string with n
    # rights, kept where is_first_passage accepts it, then sorted.
    length = 2 * n + k
    found = []
    for rights in combinations(range(length), n):
        text = "".join("R" if i in rights else "L" for i in range(length))
        if is_first_passage(k, steps_of(text)):
            found.append(f"{k}:{text}")
    return sorted(found)


# Cells with k <= 14 and 2n + k <= 16, odd and even lengths, n = 0 included.
small_cells = st.integers(min_value=1, max_value=14).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(min_value=0, max_value=(16 - k) // 2))
)


# ---------------------------------------------------------------------------
# step and path model

def test_step_symbols():
    assert Step("R") is R and Step("L") is L
    assert R.delta == 1 and L.delta == -1
    # A str enum: each member equals its letter, so steps join to the text.
    assert Step.RIGHT == "R" and Step.LEFT == "L"
    for text in ["", "L", "RLLL", "RRLRLLLL"]:
        assert "".join(steps_of(text)) == text


def test_path_construction_and_counts():
    p = LatticePath(2, steps_of("RLLL"))
    assert p.right_steps() == 1
    assert len(p) == 4
    assert p == LatticePath(2, list(steps_of("RLLL")))  # sequence coerced to tuple


def test_path_is_a_frozen_value():
    p = LatticePath(2, steps_of("RLLL"))
    assert p == LatticePath(start=2, steps=steps_of("RLLL"))
    assert hash(p) == hash(LatticePath(2, list(steps_of("RLLL"))))
    assert p != LatticePath(2, steps_of("LRLL"))
    assert repr(p) == (
        "LatticePath(start=2, steps=(<Step.RIGHT: 'R'>, <Step.LEFT: 'L'>, "
        "<Step.LEFT: 'L'>, <Step.LEFT: 'L'>))"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.start = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.steps = ()
    assert dataclasses.replace(p, start=4, steps=steps_of("LLLL")) == path_from_string("4:LLLL")
    with pytest.raises(ValueError, match="^not a first-passage sequence from 3: 'RLLL'$"):
        dataclasses.replace(p, start=3)
    assert not hasattr(p, "__dict__")
    for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert clone == p and hash(clone) == hash(p)
        assert clone.steps[0] is R and type(clone) is LatticePath


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
    assert is_first_passage(1, "L") is False
    assert is_first_passage(2, [R, "L", L, L]) is False
    with pytest.raises(ValueError, match="^steps must be Step members"):
        LatticePath(1, ("L",))
    # A stand-in with the right delta is still not a Step.
    fake_left = SimpleNamespace(delta=-1)
    assert is_first_passage(1, [fake_left]) is False
    assert is_first_passage(2, [L, fake_left]) is False
    with pytest.raises(ValueError, match="^steps must be Step members"):
        LatticePath(1, (fake_left,))
    # A Step equals its letter, yet plain letters among members are refused.
    assert is_first_passage(2, [R, "L", "L", "L"]) is False
    assert is_first_passage(2, ["R", L, L, L]) is False
    with pytest.raises(ValueError, match="^steps must be Step members"):
        LatticePath(2, (R, L, "L", L))
    # So is a str subclass that looks like a left step.
    fake_str_left = type("Letter", (str,), {"delta": -1})("L")
    assert is_first_passage(1, [fake_str_left]) is False
    assert is_first_passage(2, [L, fake_str_left]) is False
    with pytest.raises(ValueError, match="^steps must be Step members"):
        LatticePath(1, (fake_str_left,))


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
    "text",
    ["", "2RLLL", "x:RLL", "2:RLX", "2:RL", "0:L", ":",
     "01:L", "+1:L", " 1:L", "1_0:LLLLLLLLLL", "\u0661:L"],
)
def test_serialization_rejects_malformed(text):
    with pytest.raises(ValueError):
        path_from_string(text)


def test_negative_start_reaches_the_path_check():
    with pytest.raises(ValueError, match="^start must be >= 1, got -1$"):
        path_from_string("-1:L")


@given(st.text(alphabet="0123456789+-_ :RL\u0661", max_size=16))
@example("3:RLLLL")
@example("01:L")
@example("3:RLLLLL")
def test_parsed_text_serializes_back_to_itself(text):
    try:
        path = path_from_string(text)
    except ValueError:
        return
    assert path_to_string(path) == text


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


@settings(deadline=None)
@given(small_cells)
@example((1, 0))  # length 1: the prefix is empty
@example((2, 0))
@example((1, 1))
@example((14, 1))
@example((1, 7))
def test_enumerate_equals_filtered_strings(cell):
    k, n = cell
    assert serialize_all(enumerate_first_passage(k, n)) == reference_first_passage(k, n)


@settings(deadline=None)
@given(small_cells)
@example((1, 0))
@example((3, 6))
def test_every_returned_path_is_a_valid_lattice_path(cell):
    k, n = cell
    found = enumerate_first_passage(k, n)
    if k >= 3 and 2 * n + k <= 15:
        to_k, to_k_minus_2 = partition_by_first_step(k, n)
        found += to_k + to_k_minus_2
    for p in found:
        assert type(p) is LatticePath
        assert is_first_passage(p.start, p.steps)
        assert p == LatticePath(p.start, p.steps)


def _spoil(walks, start, how, last=False):
    # Spoil the first walk that allows it, or the last one if `last`.
    # "dips": the lefts of a walk with at least `start` lefts and one right
    # moved to the front, so it reaches 0 with steps still to go.  "short":
    # a walk ending in a left loses it, so it stays positive but ends one
    # above where it should.
    for i, walk in reversed(list(enumerate(walks))) if last else enumerate(walks):
        if how == "dips" and walk.count(L) >= start and R in walk:
            walks[i] = (L,) * walk.count(L) + (R,) * walk.count(R)
            return True
        if how == "short" and walk[-1:] == (L,):
            walks[i] = walk[:-1]
            return True
    return False


def _spoil_walks(monkeypatch, half, how, calls):
    # The search lists the prefixes in its first _walks call and each
    # state's completions in later ones; spoil one walk of one of them.
    # Prefixes come in canonical order, 'L' < 'R', so "last-prefix" spoils
    # one that opens with 'R' in a partition, whose image starts at k; a
    # "short" one keeps that first step.  Each call's start is appended to
    # calls.
    real_walks = paths._walks

    def spoiled(start, rights, depth):
        walks = real_walks(start, rights, depth)
        calls.append(start)
        if len(calls) == (2 if half == "completion" else 1):
            assert _spoil(walks, start, how, last=half == "last-prefix")
        return walks

    monkeypatch.setattr(paths, "_walks", spoiled)


@pytest.mark.parametrize("half", ["prefix", "completion", "last-prefix"])
@pytest.mark.parametrize("how", ["dips", "short"])
@pytest.mark.parametrize("build", [
    lambda: enumerate_first_passage(1, 4),
    lambda: enumerate_first_passage(4, 5),
    lambda: partition_by_first_step(3, 3),
    lambda: partition_by_first_step(5, 2),
], ids=["enumerate-1-4", "enumerate-4-5", "partition-3-3", "partition-5-2"])
def test_a_spoiled_half_is_rejected(half, how, build, monkeypatch):
    calls = []
    _spoil_walks(monkeypatch, half, how, calls)
    with pytest.raises(ValueError, match="^not a first-passage sequence from "):
        build()
    assert len(calls) >= 2


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("build, spoiled, error", [
    (lambda: enumerate_first_passage(3, 4), False, None),
    (lambda: partition_by_first_step(4, 3), False, None),
    (lambda: enumerate_first_passage(1, 13), False, "exceeds enumeration cap"),
    (lambda: partition_by_first_step(3, 12), False, "exceeds enumeration cap"),
    (lambda: enumerate_first_passage(4, 5), True, "^not a first-passage sequence from "),
    (lambda: partition_by_first_step(5, 2), True, "^not a first-passage sequence from "),
], ids=["enumerate", "partition", "enumerate-cap", "partition-cap",
        "enumerate-spoiled", "partition-spoiled"])
def test_the_collector_state_is_restored(enabled, build, spoiled, error, monkeypatch):
    # The enumerator pauses the cyclic collector while it joins; whether it
    # returns or raises, it must leave the collector as the caller had it.
    if spoiled:
        _spoil_walks(monkeypatch, "completion", "dips", [])
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            build()
        else:
            with pytest.raises(ValueError, match=error):
                build()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_oracle_output_is_pinned():
    # Every serialized path, one per line, of each enumeration with
    # 2n + k <= 22 and, after it, of both partition lists whose source
    # has 2n + k + 1 <= 22.  A change to how the oracle builds or
    # serializes its paths must leave this digest as it is.
    digest = hashlib.sha256()
    for k in range(1, 13):
        for n in range((22 - k) // 2 + 1):
            lists = [enumerate_first_passage(k, n)]
            if k >= 3 and 2 * n + k + 1 <= 22:
                lists += partition_by_first_step(k, n)
            for found in lists:
                for text in serialize_all(found):
                    digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == (
        "0740740f545a4c6f39ef2cd10ff04457f681b0576c08b0d33346d01f0729e436"
    )


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
    # The parts are walked here too, apart from the constructor.
    for n in range(1, 9):
        for p in enumerate_first_passage(1, n):
            alpha, left, right = first_return_decompose(p)
            assert 1 <= alpha <= n
            assert left.right_steps() == alpha - 1
            assert right.right_steps() == n - alpha
            assert is_first_passage(1, left.steps) and is_first_passage(1, right.steps)
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
    # The image is built without a walk, so a stand-in is refused.
    fake = SimpleNamespace(start=1, steps=("L",), right_steps=lambda: 0)
    with pytest.raises(TypeError, match="left must be a LatticePath"):
        first_return_compose(1, fake, right)
    with pytest.raises(TypeError, match="right must be a LatticePath"):
        first_return_compose(1, left, fake)


# ---------------------------------------------------------------------------
# shift bijection

def test_shift_smallest_case():
    assert path_to_string(shift_bijection_k2(path_from_string("1:RLL"))) == "2:LL"


def test_shift_rejects_bad_input():
    with pytest.raises(ValueError):
        shift_bijection_k2(path_from_string("1:L"))  # no right step to strip
    with pytest.raises(ValueError):
        shift_bijection_k2(path_from_string("2:LL"))
    fake = SimpleNamespace(start=1, steps=("R", "L", "L"), right_steps=lambda: 1)
    with pytest.raises(TypeError, match="path must be a LatticePath"):
        shift_bijection_k2(fake)


def test_shift_is_a_bijection_onto_start_two():
    for n in range(0, 7):
        source = enumerate_first_passage(1, n + 1)
        image = [shift_bijection_k2(p) for p in source]
        target = enumerate_first_passage(2, n)
        assert set(serialize_all(image)) == set(serialize_all(target))
        assert len(set(serialize_all(image))) == len(source)
        for original, shifted in zip(source, image):
            # The image is built without a walk of its steps; walk it here.
            assert is_first_passage(2, shifted.steps)
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


@settings(deadline=None)
@given(small_cells.filter(lambda cell: cell[0] >= 3 and 2 * cell[1] + cell[0] <= 15))
@example((3, 0))
@example((14, 0))
@example((3, 6))
def test_partition_equals_filtered_strings(cell):
    # Both lists in canonical order: source length 2(n+1) + k - 1 <= 16.
    k, n = cell
    to_k, to_k_minus_2 = partition_by_first_step(k, n)
    assert serialize_all(to_k) == reference_first_passage(k, n)
    assert serialize_all(to_k_minus_2) == reference_first_passage(k - 2, n + 1)


def test_partition_identity_across_range():
    for k in range(3, 6):
        for n in range(0, 5):
            to_k, to_k_minus_2 = partition_by_first_step(k, n)
            assert len(to_k) == ballot_count(k, n)
            assert len(to_k_minus_2) == ballot_count(k - 2, n + 1)


def test_catalan_equals_enumeration():
    for n in range(0, 8):
        assert len(enumerate_first_passage(1, n)) == catalan(n)
