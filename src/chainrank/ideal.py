"""Polynomial procedures on per-student bitsets (``Instance.adj_bits``),
where a neighborhood nests in another iff ``weak & ~strong == 0``:
recognition, the question order of a nested student order (the one
derivation, ``nested_question_order``, which the DPs share), the fixed-side
solver, and ``nested_solution``, the nesting-to-edits step every polynomial
solver ends with. It keeps each student's edits as the two bitsets it
computes, ``prefix & ~row`` and ``row & ~prefix``, in a row-built
``EditSet``, and builds no (student, question) pairs. The verifier and the
oracle keep their own derivations, as the references these are checked
against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Sequence

from .core_model import (
    ChainRankError,
    EditSet,
    Instance,
    Mode,
    Side,
    Solution,
    bit_ids,
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
    bits = inst.adj_bits
    order = sorted(range(1, inst.num_students + 1), key=lambda s: (bits[s - 1].bit_count(), s))
    for weak, strong in zip(order, order[1:]):
        if bits[weak - 1] & ~bits[strong - 1]:
            return NotIdeal((weak, strong))
    return NestingCertificate(
        student_order=tuple(order),
        question_order=derive_question_order(inst, order),
    )


def nested_question_order(rows: Sequence[int], m: int) -> list[int]:
    """Questions 1..m (bit q-1 for question q) by the first of ``rows`` to
    hold them, ascending within a row, then the rest ascending. Every row
    of nesting rows is a prefix of the result."""
    qids = list(range(1, m + 1))
    order: list[int] = []
    seen = 0
    for row in rows:
        order.extend(bit_ids(row & ~seen, qids))
        seen |= row
    order.extend(bit_ids(((1 << m) - 1) & ~seen, qids))
    return order


def derive_question_order(inst: Instance, student_order: Sequence[int]) -> tuple[int, ...]:
    """Question order making every neighborhood a prefix, given a student
    order along which neighborhoods nest.

    Questions are layered by the first (weakest) neighborhood containing
    them; ties inside a layer and the unanswered tail are sorted ascending by
    id. Raises NotNestedError if neighborhoods do not nest along the order.
    """
    rows = [inst.adj_bits[s - 1] for s in student_order]
    for s, weak, strong in zip(student_order[1:], rows, rows[1:]):
        if weak & ~strong:
            raise NotNestedError(
                f"neighborhood of student {s} does not contain its weaker predecessor's"
            )
    return tuple(nested_question_order(rows, inst.num_questions))


def nested_solution(
    inst: Instance,
    student_order: Sequence[int],
    question_order: Sequence[int],
    prefix_lengths: Sequence[int],
    solver_tag: str,
) -> Solution:
    """The Solution whose edits make the i-th student of ``student_order``
    answer exactly the first ``prefix_lengths[i]`` questions of
    ``question_order``; its cost is their number. Non-decreasing lengths
    make the corrected neighborhoods nest. The edits are row-built
    (``EditSet.from_rows``): student s adds ``target & ~row`` and deletes
    ``row & ~target``."""
    prefix = list(accumulate((1 << (q - 1) for q in question_order), or_, initial=0))
    bits = inst.adj_bits
    add_rows = [0] * inst.num_students
    del_rows = [0] * inst.num_students
    for s, t in zip(student_order, prefix_lengths):
        row, target = bits[s - 1], prefix[t]
        add_rows[s - 1] |= target & ~row
        del_rows[s - 1] |= row & ~target
    edits = EditSet.from_rows(add_rows, del_rows)
    return Solution(
        cost=edits.size,
        student_order=tuple(student_order),
        question_order=tuple(question_order),
        edits=edits,
        solver_tag=solver_tag,
    )


def _cheapest_prefix(positions: set[int], length: int, mode: Mode) -> int:
    """The cheapest prefix of a fixed order of ``length`` to turn a
    neighborhood, at ``positions`` of that order, into: smallest on ties.
    In ADDITION mode the prefix must cover every neighbor."""
    costs = [len(positions)]
    for t in range(1, length + 1):
        costs.append(costs[-1] + (-1 if t in positions else 1))
    lo = max(positions) if (mode == Mode.ADDITION and positions) else 0
    return min(range(lo, length + 1), key=costs.__getitem__)


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
    students, and questions answered by more students come first, so each
    student answers a prefix of that question order.
    """
    fixed_order = tuple(fixed_order)
    n, m = inst.num_students, inst.num_questions
    tag = f"ideal.fixed_side.{mode.value}"
    if side == Side.QUESTIONS_FIXED:
        pos = inverse_positions(fixed_order)
        qids = range(1, m + 1)
        prefix = [_cheapest_prefix({pos[q] for q in bit_ids(b, qids)}, len(fixed_order), mode) for b in inst.adj_bits]
        student_order = sorted(range(1, n + 1), key=lambda s: (prefix[s - 1], s))
        lengths = [prefix[s - 1] for s in student_order]
        return nested_solution(inst, student_order, fixed_order, lengths, tag)
    if side != Side.STUDENTS_FIXED:
        raise ValueError(f"unknown side {side!r}")

    pos = inverse_positions(fixed_order[::-1])
    answerers: list[set[int]] = [set() for _ in range(m + 1)]
    for s, q in inst.edges():
        answerers[q].add(pos[s])
    # depth[q]: how many of the strongest students answer q once corrected.
    depth = [0] + [_cheapest_prefix(answerers[q], n, mode) for q in range(1, m + 1)]
    question_order = sorted(range(1, m + 1), key=lambda q: (-depth[q], q))
    # The student at position p answers the questions of depth n - p + 1 or more.
    ascending = sorted(depth[1:])
    lengths = [m - bisect_left(ascending, n - p + 1) for p in range(1, n + 1)]
    return nested_solution(inst, fixed_order, question_order, lengths, tag)
