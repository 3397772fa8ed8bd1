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

Two builds skip the constructor's walk, each by setting the two slots of
a bare instance.  The enumerator builds from halves it has checked, all of
one start's paths in three passes that run in C.  first_return_compose and
shift_bijection_k2 build from LatticePath inputs, which are valid by
construction, because each map sends a valid path to a valid one (the
proof is a comment in each); they still make every check of their input's
start and right steps, and take nothing that is not a LatticePath.
first_return_decompose still walks its two parts: no caller has anything
to check them against.

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
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable, Iterable, Sequence

from ._validate import check_int

__all__ = ["DEFAULT_ENUMERATION_CAP", "EnumerationCapError", "LatticePath", "Step",
           "enumerate_first_passage", "first_return_compose", "first_return_decompose",
           "is_first_passage", "partition_by_first_step", "path_from_string",
           "path_to_string", "serialize_all", "shift_bijection_k2"]

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
# Runs an iterator to its end in C, keeping nothing.
_consume = deque(maxlen=0).extend


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
    the first-passage invariants.  Two trusted builds set the slots of a
    bare instance instead: the enumerator's, from halves it has validated
    (see _first_passage_paths), and first_return_compose's and
    shift_bijection_k2's, from LatticePath inputs that each map sends to
    valid paths.  Step
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
        _set_start(self, start)
        _set_steps(self, steps)

    def right_steps(self) -> int:
        return self.steps.count(_RIGHT)

    def __len__(self) -> int:
        return len(self.steps)


# A frozen dataclass's own __setattr__ raises; its fields are set through
# their slot descriptors, on instances made by _new.
_new = object.__new__
_set_start, _set_steps = LatticePath.start.__set__, LatticePath.steps.__set__


# The two trusted builds: LatticePaths made without the constructor's walk,
# only for a (start, steps) that is first passage by construction.  The
# bijections build one path at a time; the enumerator builds all of one
# start's paths in three passes run in C, so no path costs a Python-level
# call.  Each is the faster at its own size: the three passes cost about
# 0.8 us more than _trusted_path for a single path, and a _trusted_path
# call per path makes the enumerator's builds about a fifth slower.


def _trusted_path(start: int, steps: tuple[Step, ...]) -> LatticePath:
    path = _new(LatticePath)
    _set_start(path, start)
    _set_steps(path, steps)
    return path


def _trusted_paths(start: int, steps: list[tuple[Step, ...]]) -> list[LatticePath]:
    m = len(steps)
    paths = list(map(_new, repeat(LatticePath, m)))
    _consume(map(_set_start, paths, repeat(start, m)))
    _consume(map(_set_steps, paths, steps))
    return paths


def _check_path(value: object, name: str) -> None:
    # A bijection that builds its image with _trusted_path takes only
    # LatticePaths, the inputs valid by construction.
    if not isinstance(value, LatticePath):
        raise TypeError(f"{name} must be a LatticePath, got {type(value).__name__}")


def path_to_string(path: LatticePath) -> str:
    """Canonical serialization: start, colon, one R/L character per step."""
    return serialize_all((path,))[0]


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
    # that is not first passage.  Each start's joined steps are gathered
    # first, then built into paths by _trusted_paths at once.  The cyclic
    # collector is paused for the search and left as it was found
    # (see the module docstring).
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
    joined: dict[int, list[tuple[Step, ...]]] = {}
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
            steps = joined.setdefault(start, [])
            if tails_ok and _walk_end(start, head) == end:
                steps += map(head.__add__, tails)
            else:
                steps += (LatticePath(start, head + tail).steps for tail in tails)
        out = {start: _trusted_paths(start, steps) for start, steps in joined.items()}
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
    # Both are still built through the walk: no caller checks the parts
    # against anything, so the walk is what catches a wrong split.
    left = LatticePath(1, path.steps[1 : first_return + 1])
    right_part = LatticePath(1, path.steps[first_return + 1 :])
    return left.right_steps() + 1, left, right_part


def first_return_compose(
    alpha: int, left: LatticePath, right: LatticePath
) -> LatticePath:
    """Inverse of first_return_decompose: one right step, then left raised a
    level, then right.

    Relies on left and right being LatticePaths, valid by construction,
    and raises TypeError for anything else: the image is built without a
    walk of its steps.
    """
    _check_path(left, "left")
    _check_path(right, "right")
    if left.start != 1 or right.start != 1:
        raise ValueError("both components must start at 1")
    if alpha != left.right_steps() + 1:
        raise ValueError(
            f"alpha {alpha} inconsistent with left component "
            f"({left.right_steps()} right steps)"
        )
    # From 1 the right step reaches 2; left, raised a level, stays above 1
    # until its last step reaches 1; right then runs from 1 to 0.
    return _trusted_path(1, (_RIGHT,) + left.steps + right.steps)


def shift_bijection_k2(path: LatticePath) -> LatticePath:
    """Map a start-1 path with n+1 right steps to a start-2 path with n.

    Strips the (necessarily right) first step; the inverse prepends one
    right step and resets the start to 1.  Stripping a common first step
    preserves canonical order: the image of enumerate_first_passage(1, n + 1)
    is enumerate_first_passage(2, n), order included.

    Relies on path being a LatticePath, valid by construction, and raises
    TypeError for anything else: the image is built without a second walk
    of its steps.
    """
    _check_path(path, "path")
    if path.start != 1:
        raise ValueError(f"shift bijection requires start = 1, got {path.start}")
    if path.right_steps() == 0:
        raise ValueError("shift bijection requires at least one right step")
    # From 1 the first step is right, to 2, and the rest of the walk is
    # a first-passage walk from there.
    return _trusted_path(2, path.steps[1:])


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
    # The one place the canonical text is written: path_to_string goes
    # through here, and path_from_string inverts it.  It is formatted
    # inline, since a call per path would cost more than the formatting.
    join = "".join
    return [f"{p.start}:{join(p.steps)}" for p in paths]
