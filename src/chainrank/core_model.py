"""Core domain types for bipartite chain editing: instances, edit sets,
solutions, and the solver-independent feasibility verifier.

Students and questions are 1-indexed everywhere. Ordering tuples list the
entity occupying each position, with position 1 holding the weakest student
(or easiest question). Frontier value 0 is the "answered nothing" sentinel
used by the solvers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence


# ---------------------------------------------------------------------------
# Errors


class ChainRankError(Exception):
    """Base library error; ``code`` is a stable machine-readable tag."""

    code = "ERROR"


class InvalidInstanceError(ChainRankError):
    code = "INVALID_INSTANCE"


class OutOfRangeEdgeError(ChainRankError):
    code = "OUT_OF_RANGE_EDGE"


class DuplicateEdgeError(ChainRankError):
    code = "DUPLICATE_EDGE"


class NotAPermutationError(ChainRankError):
    code = "NOT_A_PERMUTATION"


class EditConflictError(ChainRankError):
    code = "EDIT_CONFLICT"


class MissingBaseOrderError(ChainRankError):
    code = "MISSING_BASE_ORDER"


class ParseError(ChainRankError):
    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# ---------------------------------------------------------------------------
# Enums


class Mode(enum.Enum):
    EDITING = "editing"
    ADDITION = "addition"


class Variant(enum.Enum):
    IMO_RECOGNIZE = "imo"
    FIXED_BOTH_CHECK = "fixed-both"
    FIXED_ONE_SIDE = "fixed-side"
    CONSTRAINED_KNEAR = "constrained"
    UNCONSTRAINED_KNEAR = "unconstrained"
    BOTH_KNEAR = "both"


class Side(enum.Enum):
    STUDENTS_FIXED = "students"
    QUESTIONS_FIXED = "questions"


# ---------------------------------------------------------------------------
# Permutation helpers


def is_permutation(seq: Sequence[int], n: int) -> bool:
    return len(seq) == n and sorted(seq) == list(range(1, n + 1))


def inverse_positions(order: Sequence[int]) -> list[int]:
    """Entity -> position array for a position -> entity tuple.

    Index 0 is unused so that ``inv[entity]`` reads naturally.
    """
    inv = [0] * (len(order) + 1)
    for pos, entity in enumerate(order, start=1):
        inv[entity] = pos
    return inv


def max_displacement(order: Sequence[int], base: Sequence[int]) -> int:
    """Largest |position - base position| over all entities."""
    base_inv = inverse_positions(base)
    worst = 0
    for pos, entity in enumerate(order, start=1):
        worst = max(worst, abs(pos - base_inv[entity]))
    return worst


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class Instance:
    """Bipartite student/question graph, optionally with base orderings.

    ``adjacency[s - 1]`` holds the sorted question ids answered correctly by
    student ``s``. Base orders, when present, map position -> entity with
    position 1 the weakest student / easiest question.
    """

    num_students: int
    num_questions: int
    adjacency: tuple[tuple[int, ...], ...]
    base_student_order: tuple[int, ...] | None = None
    base_question_order: tuple[int, ...] | None = None

    @cached_property
    def adj_bits(self) -> tuple[int, ...]:
        """Per-student neighborhoods as bitsets (bit q-1 set iff edge s-q)."""
        return tuple(sum(1 << (q - 1) for q in row) for row in self.adjacency)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(row) for row in self.adjacency)

    def neighbors(self, s: int) -> frozenset[int]:
        return self.neighbor_sets[s - 1]

    def has_edge(self, s: int, q: int) -> bool:
        return q in self.neighbor_sets[s - 1]

    def edges(self) -> Iterator[tuple[int, int]]:
        for s, row in enumerate(self.adjacency, start=1):
            for q in row:
                yield (s, q)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency)


@dataclass(frozen=True)
class EditSet:
    """Disjoint sets of edge additions and deletions."""

    additions: frozenset[tuple[int, int]] = frozenset()
    deletions: frozenset[tuple[int, int]] = frozenset()

    @classmethod
    def of(
        cls,
        additions: Iterable[tuple[int, int]] = (),
        deletions: Iterable[tuple[int, int]] = (),
    ) -> "EditSet":
        return cls(
            frozenset((int(s), int(q)) for s, q in additions),
            frozenset((int(s), int(q)) for s, q in deletions),
        )

    @property
    def size(self) -> int:
        return len(self.additions) + len(self.deletions)

    def reversed(self) -> "EditSet":
        """The edit set undoing this one."""
        return EditSet(self.deletions, self.additions)


EMPTY_EDITS = EditSet()


@dataclass(frozen=True)
class Solution:
    """Solver output: cost, the two orderings, edits, and provenance."""

    cost: int
    student_order: tuple[int, ...]
    question_order: tuple[int, ...]
    edits: EditSet
    solver_tag: str


@dataclass(frozen=True)
class ProblemSpec:
    """Which problem variant to solve, in which mode, with which bound k."""

    variant: Variant
    mode: Mode = Mode.EDITING
    k: int = 0
    fixed_side: Side | None = None

    def validate_for(self, inst: Instance) -> None:
        """Raise if the instance lacks what this variant needs."""
        if self.k < 0:
            raise InvalidInstanceError("k must be non-negative")
        needs_students = self.variant in (
            Variant.CONSTRAINED_KNEAR,
            Variant.UNCONSTRAINED_KNEAR,
            Variant.BOTH_KNEAR,
            Variant.FIXED_BOTH_CHECK,
        )
        needs_questions = self.variant in (
            Variant.CONSTRAINED_KNEAR,
            Variant.BOTH_KNEAR,
            Variant.FIXED_BOTH_CHECK,
        )
        if self.variant == Variant.FIXED_ONE_SIDE:
            if self.fixed_side is None:
                raise InvalidInstanceError("FIXED_ONE_SIDE requires fixed_side")
            needs_students = self.fixed_side == Side.STUDENTS_FIXED
            needs_questions = self.fixed_side == Side.QUESTIONS_FIXED
        if needs_students and inst.base_student_order is None:
            raise MissingBaseOrderError(
                f"variant {self.variant.value} requires a base student order"
            )
        if needs_questions and inst.base_question_order is None:
            raise MissingBaseOrderError(
                f"variant {self.variant.value} requires a base question order"
            )


# ---------------------------------------------------------------------------
# Instance construction and validation


def _validated_order(order: Sequence[int], n: int, label: str) -> tuple[int, ...]:
    order = tuple(int(x) for x in order)
    if not is_permutation(order, n):
        raise NotAPermutationError(f"base {label} order {order!r} is not a permutation of 1..{n}")
    return order


def validate_instance(inst: Instance) -> Instance:
    """Check all invariants and return the instance in canonical form.

    Canonical form stores each adjacency row as a sorted tuple and the base
    orders as int tuples. Idempotent: validating a validated instance returns
    an equal instance.
    """
    n, m = inst.num_students, inst.num_questions
    if n < 1 or m < 1:
        raise InvalidInstanceError(f"need at least one student and one question, got {n}x{m}")
    if len(inst.adjacency) != n:
        raise InvalidInstanceError(
            f"adjacency has {len(inst.adjacency)} rows for {n} students"
        )
    rows = []
    for s, row in enumerate(inst.adjacency, start=1):
        seen: set[int] = set()
        for q in row:
            q = int(q)
            if not 1 <= q <= m:
                raise OutOfRangeEdgeError(
                    f"student {s} lists question {q}, outside 1..{m}"
                )
            if q in seen:
                raise DuplicateEdgeError(f"student {s} lists question {q} twice")
            seen.add(q)
        rows.append(tuple(sorted(seen)))
    so = inst.base_student_order
    qo = inst.base_question_order
    return Instance(
        num_students=n,
        num_questions=m,
        adjacency=tuple(rows),
        base_student_order=None if so is None else _validated_order(so, n, "student"),
        base_question_order=None if qo is None else _validated_order(qo, m, "question"),
    )


def make_instance(
    num_students: int,
    num_questions: int,
    edges: Iterable[tuple[int, int]] = (),
    base_student_order: Sequence[int] | None = None,
    base_question_order: Sequence[int] | None = None,
) -> Instance:
    """Build a validated Instance from an edge list."""
    rows: list[set[int]] = [set() for _ in range(num_students)]
    for s, q in edges:
        if not 1 <= int(s) <= num_students:
            raise OutOfRangeEdgeError(f"edge ({s},{q}) names student outside 1..{num_students}")
        rows[int(s) - 1].add(int(q))
    return validate_instance(
        Instance(
            num_students=num_students,
            num_questions=num_questions,
            adjacency=tuple(tuple(sorted(r)) for r in rows),
            base_student_order=None if base_student_order is None else tuple(base_student_order),
            base_question_order=None if base_question_order is None else tuple(base_question_order),
        )
    )


def with_base_orders(
    inst: Instance,
    student_order: Sequence[int] | None = None,
    question_order: Sequence[int] | None = None,
) -> Instance:
    """Attach (or replace) base orders, revalidating the result."""
    return validate_instance(
        replace(
            inst,
            base_student_order=tuple(student_order) if student_order is not None else inst.base_student_order,
            base_question_order=tuple(question_order) if question_order is not None else inst.base_question_order,
        )
    )


def apply_edits(inst: Instance, edits: EditSet) -> Instance:
    """Return the instance with E' = (E + additions) - deletions.

    Base orders are carried through unchanged. Raises EditConflictError when
    an addition already exists, a deletion is absent, or a pair is malformed.
    """
    n, m = inst.num_students, inst.num_questions
    overlap = edits.additions & edits.deletions
    if overlap:
        raise EditConflictError(f"pairs both added and deleted: {sorted(overlap)}")
    rows = [set(r) for r in inst.adjacency]
    for s, q in sorted(edits.additions):
        if not (1 <= s <= n and 1 <= q <= m):
            raise EditConflictError(f"addition ({s},{q}) is out of range")
        if q in rows[s - 1]:
            raise EditConflictError(f"addition ({s},{q}) already present")
        rows[s - 1].add(q)
    for s, q in sorted(edits.deletions):
        if not (1 <= s <= n and 1 <= q <= m):
            raise EditConflictError(f"deletion ({s},{q}) is out of range")
        if q not in rows[s - 1] or (s, q) in edits.additions:
            raise EditConflictError(f"deletion ({s},{q}) is absent")
        rows[s - 1].discard(q)
    return replace(inst, adjacency=tuple(tuple(sorted(r)) for r in rows))


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _knear_check(
    order: Sequence[int], base: Sequence[int] | None, k: int, what: str
) -> CheckResult:
    name = f"{what}_order_constraint"
    if base is None:
        return CheckResult(name, False, f"no base {what} order to compare against")
    worst = max_displacement(order, base)
    return CheckResult(
        name, worst <= k, f"max displacement {worst} vs bound {k}"
    )


def _exact_check(order: Sequence[int], base: Sequence[int] | None, what: str) -> CheckResult:
    name = f"{what}_order_constraint"
    if base is None:
        return CheckResult(name, False, f"no base {what} order to compare against")
    return CheckResult(name, tuple(order) == tuple(base), "order must equal the base order")


def verify_solution(inst: Instance, spec: ProblemSpec, sol: Solution) -> VerificationReport:
    """Feasibility report for a proposed solution.

    Deliberately implemented with plain set arithmetic and no solver code so
    it can serve as the independent oracle for every solver in the package.
    Failures are report entries, never exceptions.
    """
    n, m = inst.num_students, inst.num_questions
    checks: list[CheckResult] = []
    adds, dels = sol.edits.additions, sol.edits.deletions
    original = [set(row) for row in inst.adjacency]

    in_range = all(1 <= s <= n and 1 <= q <= m for s, q in adds | dels)
    bad_add = [p for p in adds if in_range and p[1] in original[p[0] - 1]]
    bad_del = [p for p in dels if in_range and p[1] not in original[p[0] - 1]]
    edits_ok = in_range and not bad_add and not bad_del and not (adds & dels)
    checks.append(
        CheckResult(
            "edit_set_valid",
            edits_ok,
            "additions must be absent, deletions present, sets disjoint and in range",
        )
    )

    checks.append(
        CheckResult(
            "cost_matches_edits",
            sol.cost == len(adds) + len(dels),
            f"cost field {sol.cost} vs {len(adds)} additions + {len(dels)} deletions",
        )
    )

    checks.append(
        CheckResult(
            "mode_compliance",
            spec.mode != Mode.ADDITION or not dels,
            "ADDITION solutions must not delete edges",
        )
    )

    so_ok = is_permutation(sol.student_order, n)
    qo_ok = is_permutation(sol.question_order, m)
    checks.append(CheckResult("student_order_valid", so_ok, "must be a permutation of students"))
    checks.append(CheckResult("question_order_valid", qo_ok, "must be a permutation of questions"))

    # Edited neighborhoods, tolerating a malformed edit set so later checks
    # still report something sensible.
    edited = [set(row) for row in original]
    for s, q in adds:
        if 1 <= s <= n and 1 <= q <= m:
            edited[s - 1].add(q)
    for s, q in dels:
        if 1 <= s <= n and 1 <= q <= m:
            edited[s - 1].discard(q)

    if so_ok:
        nested = True
        detail = "every weaker student's neighborhood is contained in every stronger one's"
        by_pos = [edited[s - 1] for s in sol.student_order]
        # Containment is transitive, so adjacent pairs decide all pairs.
        for weak in range(n - 1):
            if not by_pos[weak] <= by_pos[weak + 1]:
                nested = False
                detail = (
                    f"students {sol.student_order[weak]} (position {weak + 1}) and "
                    f"{sol.student_order[weak + 1]} (position {weak + 2}) break nesting"
                )
                break
        checks.append(CheckResult("nested_property", nested, detail))
    else:
        checks.append(CheckResult("nested_property", False, "student order malformed"))

    if qo_ok:
        qpos = inverse_positions(sol.question_order)
        interval = True
        detail = "each neighborhood is a prefix of the question order"
        for s in range(1, n + 1):
            positions = sorted(qpos[q] for q in edited[s - 1])
            if positions != list(range(1, len(positions) + 1)):
                interval = False
                detail = f"student {s} answers non-prefix positions {positions}"
                break
        checks.append(CheckResult("interval_property", interval, detail))
    else:
        checks.append(CheckResult("interval_property", False, "question order malformed"))

    # Order constraints per variant.
    v = spec.variant
    if so_ok:
        if v in (Variant.CONSTRAINED_KNEAR, Variant.UNCONSTRAINED_KNEAR, Variant.BOTH_KNEAR):
            checks.append(_knear_check(sol.student_order, inst.base_student_order, spec.k, "student"))
        elif v == Variant.FIXED_BOTH_CHECK or (
            v == Variant.FIXED_ONE_SIDE and spec.fixed_side == Side.STUDENTS_FIXED
        ):
            checks.append(_exact_check(sol.student_order, inst.base_student_order, "student"))
        else:
            checks.append(CheckResult("student_order_constraint", True, "unconstrained"))
    else:
        checks.append(CheckResult("student_order_constraint", False, "student order malformed"))

    if qo_ok:
        if v == Variant.BOTH_KNEAR:
            checks.append(_knear_check(sol.question_order, inst.base_question_order, spec.k, "question"))
        elif v in (Variant.CONSTRAINED_KNEAR, Variant.FIXED_BOTH_CHECK) or (
            v == Variant.FIXED_ONE_SIDE and spec.fixed_side == Side.QUESTIONS_FIXED
        ):
            checks.append(_exact_check(sol.question_order, inst.base_question_order, "question"))
        else:
            checks.append(CheckResult("question_order_constraint", True, "unconstrained"))
    else:
        checks.append(CheckResult("question_order_constraint", False, "question order malformed"))

    return VerificationReport(tuple(checks))
