"""Lattice-path model of absorbed walks, a brute-force enumerator, and the
counting bijections.

A walk starts at integer position k >= 1, moves +1 (right) or -1 (left) per
step, and is absorbed the first time it reaches 0.  A LatticePath records one
complete absorbed trajectory: position stays positive at every proper prefix
and hits 0 exactly at the final step.  With n right steps the length is
2n + k.

The enumerator is the independent oracle the counting identities are checked
against: it finds every admissible step sequence by a depth-first search,
with no reference to the closed-form counts.  The search splits each path at
its midpoint, the standard first-passage decomposition (Flajolet and
Sedgewick, Analytic Combinatorics, ch. I): a prefix that stays positive, then
a first-passage path from where the prefix ends.  It lists the prefixes,
lists each distinct end state's completions once, and joins them.  By the
same decomposition, a join is first passage when both halves are: each
prefix is checked to stay positive and end where its state says, and each
state's completions to be first passage from there, once per call, so every
path it returns is a valid LatticePath without a second walk of its steps.

Step is a str enum: each member is a one-character str equal to its letter
(Step.RIGHT == "R"), so a path serializes with one str.join.  A walk still
accepts only Step members; a plain "R" or "L" is not one.  The enumerator
pauses the process-wide cyclic garbage collector while it builds its paths
and restores the state it found: the search creates no reference cycles,
and every path it builds stays reachable, so a collection there frees
nothing but walks every step tuple built so far.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from ._validate import check_int

DEFAULT_ENUMERATION_CAP = 26


class EnumerationCapError(ValueError):
    """Raised when a requested enumeration exceeds the configured size cap."""


class Step(str, Enum):
    """One step of a walk: RIGHT (+1) or LEFT (-1).

    A str enum: each member is the one-character str of its letter and
    equals it (Step.RIGHT == "R"), so "".join(path.steps) is the step part
    of a path's serialization.  Equality is not membership: walks and paths
    accept only Step members, never the plain letters.
    """

    RIGHT = "R"
    LEFT = "L"

    def __init__(self, symbol: str) -> None:
        # Member data, not a property: every path walk reads it per step.
        self.delta = 1 if symbol == "R" else -1


# Reading a member off the class runs Python code (about 0.2 us on Python
# 3.11); the per-path code below reads these names instead.
_RIGHT, _LEFT = Step.RIGHT, Step.LEFT
# A str Step equals its letter, so walks test each element's exact type.
_STEP_TYPE = frozenset({Step})
# Enum lookup by value, Step(c), runs Python code; a dict read runs in C.
_STEP_OF_LETTER = {s.value: s for s in Step}
# A frozen dataclass's own __setattr__ raises; fields are set through these.
_new, _set = object.__new__, object.__setattr__


def _walk_end(start: int, steps: tuple[Step, ...]) -> int | None:
    # Where a walk of Step members ends if it is positive before every step,
    # else None.  The type test runs in C, not per step in Python.
    if not _STEP_TYPE.issuperset(map(type, steps)):
        return None
    pos = start
    for s in steps:
        if pos <= 0:
            return None
        pos += s.delta
    return pos


def is_first_passage(start: int, steps: Sequence[Step]) -> bool:
    """True iff (start, steps) is a complete absorbed trajectory."""
    try:
        check_int(start, "start", 1)
    except (TypeError, ValueError):
        return False
    return _walk_end(start, tuple(steps)) == 0


@dataclass(frozen=True, init=False, slots=True)
class LatticePath:
    """An absorbed trajectory: start position plus its step sequence.

    Validated on construction, so every LatticePath in existence satisfies
    the first-passage invariants; the enumerator builds its paths from
    halves it has validated instead (see _first_passage_paths).  Step
    counts are derived, never stored: right_steps() gives n, and
    len(steps) == 2n + start.  steps holds Step members only, each a str
    equal to its letter.  The class has slots and no __dict__, so a path is
    two objects, itself and its step tuple.
    """

    start: int
    steps: tuple[Step, ...]

    def __init__(self, start: int, steps: Sequence[Step]) -> None:
        check_int(start, "start", 1)
        steps = tuple(steps)
        if _walk_end(start, steps) != 0:
            if not all(isinstance(s, Step) for s in steps):
                raise ValueError(f"steps must be Step members, got {steps!r}")
            raise ValueError(
                f"not a first-passage sequence from {start}: "
                f"{''.join(steps)!r}"
            )
        _set(self, "start", start)
        _set(self, "steps", steps)

    def right_steps(self) -> int:
        return self.steps.count(_RIGHT)

    def __len__(self) -> int:
        return len(self.steps)


def path_to_string(path: LatticePath) -> str:
    """Canonical serialization: start, colon, one R/L character per step."""
    return f"{path.start}:" + "".join(path.steps)


def path_from_string(text: str) -> LatticePath:
    """Inverse of path_to_string; rejects any text that it would not write."""
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"missing ':' separator in {text!r}")
    try:
        start = int(head)
        # int() also takes signs, spaces, '_', leading zeros, non-ASCII digits.
        if str(start) != head:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad start position in {text!r}") from None
    try:
        steps = tuple(map(_STEP_OF_LETTER.__getitem__, body))
    except KeyError:
        raise ValueError(f"steps must be 'R'/'L' characters in {text!r}") from None
    return LatticePath(start, steps)


def _walks(start: int, rights: int, depth: int) -> list[tuple[Step, ...]]:
    # The first `depth` steps of every first-passage path from `start` with
    # `rights` right steps, in canonical order.  'L' < 'R': right is pushed
    # before left, so the left subtree comes out first.
    out: list[tuple[Step, ...]] = []
    stack: list[tuple[tuple[Step, ...], int, int]] = [((), start, rights)]
    while stack:
        prefix, pos, r = stack.pop()
        if len(prefix) == depth:
            out.append(prefix)
            continue
        if r:
            stack.append((prefix + (_RIGHT,), pos + 1, r - 1))
        if pos > 1 or not r:
            stack.append((prefix + (_LEFT,), pos - 1, r))
    return out


def _first_passage_paths(
    k: int,
    n: int,
    cap: int,
    split: Callable[[tuple[Step, ...]], tuple[int, tuple[Step, ...]]],
) -> dict[int, list[LatticePath]]:
    # The search behind enumerate_first_passage(k, n, cap=cap), with its
    # paths built as split places them: split maps each prefix to
    # (start, head), and head + tail for each completion tail of the
    # prefix's state becomes a LatticePath from start, kept under start,
    # in canonical order.  A walk is first passage exactly when it is
    # positive before every step and its last step reaches 0, so a head
    # that stays positive from start and ends where the prefix does,
    # followed by a first-passage walk from there, is a first-passage walk
    # from start: each head is checked, and each state's completions once,
    # not each join.  If either half fails, the joins go through the
    # validating constructor, which raises its own error at the first join
    # that is not first passage.  The cyclic collector is paused for the
    # search and left as it was found (see the module docstring).
    check_int(k, "k", 1)
    check_int(n, "n", 0)
    check_int(cap, "cap", 0)
    length = 2 * n + k
    if length > cap:
        raise EnumerationCapError(
            f"path length 2n+k = {length} exceeds enumeration cap {cap}"
        )
    mid = length // 2
    # Prefixes that end in the same state share its completions.
    completions: dict[tuple[int, int], tuple[list[tuple[Step, ...]], bool]] = {}
    out: dict[int, list[LatticePath]] = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for prefix in _walks(k, n, mid):
            r = prefix.count(_RIGHT)
            end = k + 2 * r - mid
            state = (end, n - r)
            shared = completions.get(state)
            if shared is None:
                tails = _walks(*state, length - mid)
                shared = completions[state] = (
                    tails, all(_walk_end(end, t) == 0 for t in tails)
                )
            tails, tails_ok = shared
            start, head = split(prefix)
            paths = out.setdefault(start, [])
            if tails_ok and _walk_end(start, head) == end:
                for tail in tails:
                    path = _new(LatticePath)
                    _set(path, "start", start)
                    _set(path, "steps", head + tail)
                    paths.append(path)
            else:
                paths += [LatticePath(start, head + tail) for tail in tails]
    finally:
        if enabled:
            gc.enable()
    return out


def enumerate_first_passage(
    k: int, n: int, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[LatticePath]:
    """Every absorbed trajectory from k with exactly n right steps.

    Returned in canonical order (lexicographic in the R/L serialization,
    'L' < 'R'), so the result is deterministic.  A depth-first search on an
    explicit stack (no recursion limit) lists every prefix of mid =
    (2n+k) // 2 steps that is not absorbed early; a prefix with r rights
    and l lefts remaining sits at position l - r, so feasibility is kept by
    construction.  Each distinct state a prefix ends in, its position and
    the rights it has left, gets its completions to the full length from
    the same search, once; every path is a prefix followed by one of its
    state's completions, both in canonical order, so the concatenations
    come out lexicographic.  Each prefix and each state's completions are
    validated once per call, which validates every path built from them.
    The process-wide cyclic garbage collector is paused for the call and
    left as it was found.
    """
    return _first_passage_paths(k, n, cap, lambda prefix: (k, prefix))[k]


def first_return_decompose(path: LatticePath) -> tuple[int, LatticePath, LatticePath]:
    """Split a start-1 path at its first return to level 1.

    The first step is necessarily right (a left step from 1 would end the
    walk, impossible while n >= 1).  The segment between that step and the
    first return to 1, shifted down one level, is `left`; the remainder is
    `right`.  Returns (alpha, left, right) with alpha - 1 right steps in
    `left` and n - alpha in `right`; first_return_compose inverts exactly.
    """
    if path.start != 1:
        raise ValueError(f"decomposition requires start = 1, got {path.start}")
    n = path.right_steps()
    if n == 0:
        raise ValueError("decomposition requires at least one right step")
    pos = 1
    for i, s in enumerate(path.steps):
        pos += s.delta
        if pos == 1:
            first_return = i
            break
    # Steps 1..first_return run strictly above level 1, so shifting them
    # down one level gives a valid start-1 path; the suffix already is one.
    left = LatticePath(1, path.steps[1 : first_return + 1])
    right_part = LatticePath(1, path.steps[first_return + 1 :])
    return left.right_steps() + 1, left, right_part


def first_return_compose(
    alpha: int, left: LatticePath, right: LatticePath
) -> LatticePath:
    """Inverse of first_return_decompose: one right step, then left raised a
    level, then right."""
    if left.start != 1 or right.start != 1:
        raise ValueError("both components must start at 1")
    if alpha != left.right_steps() + 1:
        raise ValueError(
            f"alpha {alpha} inconsistent with left component "
            f"({left.right_steps()} right steps)"
        )
    return LatticePath(1, (_RIGHT,) + left.steps + right.steps)


def shift_bijection_k2(path: LatticePath) -> LatticePath:
    """Map a start-1 path with n+1 right steps to a start-2 path with n.

    Strips the (necessarily right) first step; the inverse prepends one
    right step and resets the start to 1.  Stripping a common first step
    preserves canonical order: the image of enumerate_first_passage(1, n + 1)
    is enumerate_first_passage(2, n), order included.
    """
    if path.start != 1:
        raise ValueError(f"shift bijection requires start = 1, got {path.start}")
    if path.right_steps() == 0:
        raise ValueError("shift bijection requires at least one right step")
    return LatticePath(2, path.steps[1:])


def partition_by_first_step(
    k: int, n: int, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[list[LatticePath], list[LatticePath]]:
    """Partition the start-(k-1) paths with n+1 rights by their first step.

    Paths opening right map, first step stripped, onto the start-k paths
    with n rights; paths opening left map onto the start-(k-2) paths with
    n+1 rights.  Cardinalities realize
    C_{k-1}(n+1) = C_k(n) + C_{k-2}(n+1).  Each part shares its first step,
    and stripping a common first step preserves canonical order, so each
    list equals the enumeration of its target, order included.

    The sources come from the enumerator's search in halves, and only the
    images are validated: each stripped prefix from k or k - 2, each
    state's completions once.  That checks the sources too: for k >= 3 an
    image is a first-passage path exactly when its source is, since the
    source's first step moves it from k - 1 >= 2 to the image's start, k
    after 'R' and k - 2 >= 1 after 'L', and the rest of the walk is the
    image's.  Like the enumerator, it pauses the cyclic garbage collector
    for the call and leaves it as it was found.
    """
    check_int(k, "k", 3)
    check_int(n, "n", 0)
    found = _first_passage_paths(
        k - 1, n + 1, cap,
        lambda prefix: (k if prefix[0] is _RIGHT else k - 2, prefix[1:]),
    )
    return found[k], found[k - 2]


def serialize_all(paths: Iterable[LatticePath]) -> list[str]:
    """Canonical serializations of a path collection, order preserved."""
    return [path_to_string(p) for p in paths]
