"""Polynomial procedures for the ideal case: recognizing instances whose
neighborhoods already nest, deriving the question order from a nested student
order, and the optimal solver when one side's ordering is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core_model import (
    ChainRankError,
    EditSet,
    Instance,
    Mode,
    Side,
    Solution,
    inverse_positions,
)


class NotNestedError(ChainRankError):
    code = "NOT_NESTED"


@dataclass(frozen=True)
class NestingCertificate:
    """Witness that an instance is ideal: orders under which the nested and
    interval properties hold with no edits."""

    student_order: tuple[int, ...]
    question_order: tuple[int, ...]


@dataclass(frozen=True)
class NotIdeal:
    """Witness that an instance is not ideal: a student pair whose
    neighborhoods are incomparable under containment."""

    witness: tuple[int, int]


def recognize_ideal(inst: Instance) -> NestingCertificate | NotIdeal:
    """Decide whether the instance admits edit-free mutual orderings.

    Students are sorted by degree (ties by id). Because a lower-degree
    neighborhood can never strictly contain a higher-degree one, containment
    holds for all pairs iff it holds for every consecutive pair in degree
    order, which also makes any failing consecutive pair a genuine
    incomparability witness.
    """
    n = inst.num_students
    order = sorted(range(1, n + 1), key=lambda s: (len(inst.neighbors(s)), s))
    for weak, strong in zip(order, order[1:]):
        if not inst.neighbors(weak) <= inst.neighbors(strong):
            return NotIdeal((weak, strong))
    return NestingCertificate(
        student_order=tuple(order),
        question_order=derive_question_order(inst, order),
    )


def derive_question_order(inst: Instance, student_order: Sequence[int]) -> tuple[int, ...]:
    """Question order making every neighborhood a prefix, given a student
    order along which neighborhoods nest.

    Questions are layered by the first (weakest) neighborhood containing
    them; ties inside a layer and the unanswered tail are sorted ascending by
    id. Raises NotNestedError if neighborhoods do not nest along the order.
    """
    seen: set[int] = set()
    layers: list[int] = []
    prev: frozenset[int] = frozenset()
    for s in student_order:
        nbh = inst.neighbors(s)
        if not prev <= nbh:
            raise NotNestedError(
                f"neighborhood of student {s} does not contain its weaker predecessor's"
            )
        layers.extend(sorted(nbh - seen))
        seen |= nbh
        prev = nbh
    layers.extend(q for q in range(1, inst.num_questions + 1) if q not in seen)
    return tuple(layers)


def _cheapest_prefix(positions: set[int], length: int, mode: Mode) -> tuple[int, int]:
    """(t, cost) for the cheapest prefix of a fixed order of ``length`` to
    turn a neighborhood, at ``positions`` of that order, into: smallest t on
    ties. In ADDITION mode the prefix must cover every neighbor."""
    costs = [len(positions)]
    for t in range(1, length + 1):
        costs.append(costs[-1] + (-1 if t in positions else 1))
    lo = max(positions) if (mode == Mode.ADDITION and positions) else 0
    t = min(range(lo, length + 1), key=costs.__getitem__)
    return t, costs[t]


def solve_fixed_side(
    inst: Instance,
    side: Side,
    fixed_order: Sequence[int],
    mode: Mode = Mode.EDITING,
) -> Solution:
    """Optimal edits when one side's ordering is fixed.

    With questions fixed, each student independently takes the cheapest
    prefix of the question order as its corrected neighborhood (in ADDITION
    mode the prefix must cover the hardest existing neighbor, so only
    additions occur); students are then ordered by threshold. With students
    fixed the same pass runs per question on the reversed student order:
    a question's answerers are a suffix of the student order, the strongest
    students, and questions answered by more students come first.
    """
    fixed_order = tuple(fixed_order)
    if side == Side.QUESTIONS_FIXED:
        order = fixed_order
        members = {s: inst.neighbors(s) for s in range(1, inst.num_students + 1)}
        pair = lambda s, q: (s, q)
    elif side == Side.STUDENTS_FIXED:
        order = fixed_order[::-1]
        members = {q: set() for q in range(1, inst.num_questions + 1)}
        for s, q in inst.edges():
            members[q].add(s)
        pair = lambda q, s: (s, q)
    else:
        raise ValueError(f"unknown side {side!r}")

    pos = inverse_positions(order)
    additions: list[tuple[int, int]] = []
    deletions: list[tuple[int, int]] = []
    total = 0
    prefix: dict[int, int] = {}
    for e, nbh in members.items():
        t, cost = _cheapest_prefix({pos[x] for x in nbh}, len(order), mode)
        prefix[e] = t
        total += cost
        target = set(order[:t])
        additions.extend(pair(e, x) for x in target - nbh)
        deletions.extend(pair(e, x) for x in nbh - target)

    if side == Side.QUESTIONS_FIXED:
        student_order = tuple(sorted(members, key=lambda s: (prefix[s], s)))
        question_order = fixed_order
    else:
        question_order = tuple(sorted(members, key=lambda q: (-prefix[q], q)))
        student_order = fixed_order

    return Solution(
        cost=total,
        student_order=student_order,
        question_order=question_order,
        edits=EditSet.of(additions, deletions),
        solver_tag=f"ideal.fixed_side.{mode.value}",
    )
