"""Lattice-path model of absorbed walks, a brute-force enumerator, and the
counting bijections.

A walk starts at integer position k >= 1, moves +1 (right) or -1 (left) per
step, and is absorbed the first time it reaches 0.  A LatticePath records one
complete absorbed trajectory: position stays positive at every proper prefix
and hits 0 exactly at the final step.  With n right steps the length is
2n + k.

The enumerator is the independent oracle the counting identities are checked
against: it finds every admissible step sequence by a depth-first search,
with no reference to the closed-form counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from ._validate import check_int

DEFAULT_ENUMERATION_CAP = 26


class EnumerationCapError(ValueError):
    """Raised when a requested enumeration exceeds the configured size cap."""


class Step(Enum):
    RIGHT = "R"
    LEFT = "L"

    def __init__(self, symbol: str) -> None:
        # Member data, not a property: every path walk reads it per step.
        self.delta = 1 if symbol == "R" else -1


def _walk_is_first_passage(start: int, steps: Sequence[Step]) -> bool:
    # Positive before every step, zero after the last; a non-Step has no delta.
    pos = start
    try:
        for s in steps:
            if pos <= 0:
                return False
            pos += s.delta
    except AttributeError:
        return False
    return pos == 0


def is_first_passage(start: int, steps: Sequence[Step]) -> bool:
    """True iff (start, steps) is a complete absorbed trajectory."""
    try:
        check_int(start, "start", 1)
    except (TypeError, ValueError):
        return False
    return _walk_is_first_passage(start, steps)


@dataclass(frozen=True)
class LatticePath:
    """An absorbed trajectory: start position plus its step sequence.

    Validated on construction, so every LatticePath in existence satisfies
    the first-passage invariants.  Step counts are derived, never stored:
    right_steps() gives n, and len(steps) == 2n + start.
    """

    start: int
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        check_int(self.start, "start", 1)
        object.__setattr__(self, "steps", tuple(self.steps))
        if not _walk_is_first_passage(self.start, self.steps):
            if not all(isinstance(s, Step) for s in self.steps):
                raise ValueError(f"steps must be Step members, got {self.steps!r}")
            raise ValueError(
                f"not a first-passage sequence from {self.start}: "
                f"{''.join(s.value for s in self.steps)!r}"
            )

    def right_steps(self) -> int:
        return sum(1 for s in self.steps if s is Step.RIGHT)

    def __len__(self) -> int:
        return len(self.steps)


def path_to_string(path: LatticePath) -> str:
    """Canonical serialization: start, colon, one R/L character per step."""
    return f"{path.start}:" + "".join(s.value for s in path.steps)


def path_from_string(text: str) -> LatticePath:
    """Inverse of path_to_string; rejects anything malformed."""
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"missing ':' separator in {text!r}")
    try:
        start = int(head)
    except ValueError:
        raise ValueError(f"bad start position in {text!r}") from None
    try:
        steps = tuple(Step(c) for c in body)
    except ValueError:
        raise ValueError(f"steps must be 'R'/'L' characters in {text!r}") from None
    return LatticePath(start, steps)


def enumerate_first_passage(
    k: int, n: int, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[LatticePath]:
    """Every absorbed trajectory from k with exactly n right steps.

    Returned in canonical order (lexicographic in the R/L serialization,
    'L' < 'R'), so the result is deterministic.  A depth-first search on an
    explicit stack (no recursion limit) prunes any prefix that would be
    absorbed early; a prefix with r rights and l lefts remaining sits at
    position l - r, so feasibility is maintained by construction.
    """
    check_int(k, "k", 1)
    check_int(n, "n", 0)
    length = 2 * n + k
    if length > cap:
        raise EnumerationCapError(
            f"path length 2n+k = {length} exceeds enumeration cap {cap}"
        )

    out: list[LatticePath] = []
    stack: list[tuple[tuple[Step, ...], int]] = [((), 0)]
    while stack:
        prefix, rights = stack.pop()
        depth = len(prefix)
        if depth == length:
            out.append(LatticePath(k, prefix))
            continue
        r_rem = n - rights
        # 'L' < 'R': push right before left so the left subtree comes out first.
        if r_rem > 0:
            stack.append((prefix + (Step.RIGHT,), rights + 1))
        if k + 2 * rights - depth > 1 or r_rem == 0:
            stack.append((prefix + (Step.LEFT,), rights))
    return out


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
    return LatticePath(1, (Step.RIGHT,) + left.steps + right.steps)


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
    """
    check_int(k, "k", 3)
    check_int(n, "n", 0)
    to_k: list[LatticePath] = []
    to_k_minus_2: list[LatticePath] = []
    for path in enumerate_first_passage(k - 1, n + 1, cap=cap):
        if path.steps[0] is Step.RIGHT:
            to_k.append(LatticePath(k, path.steps[1:]))
        else:
            to_k_minus_2.append(LatticePath(k - 2, path.steps[1:]))
    return to_k, to_k_minus_2


def serialize_all(paths: Iterable[LatticePath]) -> list[str]:
    """Canonical serializations of a path collection, order preserved."""
    return [path_to_string(p) for p in paths]
