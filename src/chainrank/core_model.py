"""Core domain types for bipartite chain editing: instances, edit sets,
solutions, and the solver-independent feasibility verifier.

An Instance stores one bitset per student, its neighborhood, and checks its
sizes, rows and base orders when it is built, so every Instance is valid.

An EditSet holds one addition and one deletion bitset per student, whether
a solver built it or a file was parsed into it (``EditRowBuilder``), plus a
side list of the pairs that rows cannot hold, such as a negative or a huge
id, which only a parsed file may name. This module alone reads that
storage: the verifier and ``apply_edits`` read per-student rows from
``EditSet.rows``, the solution writer reads ``EditSet.grouped``, and the
pair sets are derived on demand for the callers that want pairs.

Students and questions are 1-indexed everywhere. Ordering tuples list the
entity occupying each position, with position 1 holding the weakest student
(or easiest question). Frontier value 0 is the "answered nothing" sentinel
used by the solvers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, compress, repeat
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

    ``adj_bits[s - 1]`` is student s's neighborhood as a bitset, bit q-1 set
    iff s answers question q: the form every solver works on. Base orders,
    when present, map position -> entity with position 1 the weakest
    student / easiest question. Construction checks the sizes, each row's
    range and the base orders, in that order, and stores them as tuples, so
    every Instance is valid.
    """

    num_students: int
    num_questions: int
    adj_bits: tuple[int, ...]
    base_student_order: tuple[int, ...] | None = None
    base_question_order: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        n, m = self.num_students, self.num_questions
        bits = tuple(self.adj_bits)
        _check_sizes(n, m, len(bits))
        for s, b in enumerate(bits, start=1):
            if not isinstance(b, int):
                raise InvalidInstanceError(f"student {s}'s bitset {b!r} is not an int")
            if b >> m:  # a bit past question m, or any negative b
                raise OutOfRangeEdgeError(f"student {s}'s bitset {b} names a question outside 1..{m}")
        object.__setattr__(self, "adj_bits", tuple(map(int, bits)))
        for field, size, label in (("base_student_order", n, "student"), ("base_question_order", m, "question")):
            order = getattr(self, field)
            if order is not None:
                object.__setattr__(self, field, _validated_order(order, size, label))

    def edges(self) -> Iterator[tuple[int, int]]:
        qids = list(range(1, self.num_questions + 1))  # one int object per id
        for s, b in enumerate(self.adj_bits, start=1):
            for q in bit_ids(b, qids):
                yield (s, q)

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj_bits))


class EditSet:
    """Disjoint sets of edge additions and deletions.

    An EditSet holds one addition and one deletion bitset per student
    (index s-1, bit q-1 for question q), the form the solvers compute;
    the two lists may hold fewer rows than there are students. Beside the
    rows it keeps ``_strays``, the addition and the deletion pairs that
    rows do not hold (see ``EditRowBuilder``), which only a parsed file
    may give: a pair with an id below 1 or a question id past
    ``_ROW_WIDTH``, or any pair read after the rows' budget ran out. A
    solver-built set has none. The pair sets are derived on first read
    and kept; equality and hashing go by them.

    ``EditSet.from_rows`` takes the rows. ``EditSet(additions,
    deletions)`` and ``EditSet.of`` take (student, question) pairs, which
    may be any ints, and hold them as a parsed file is held. Only this
    module reads the storage. The verifier and ``apply_edits`` take rows
    from ``rows``, the solution writer takes ``grouped``.
    """

    __slots__ = ("_add_rows", "_del_rows", "_strays", "_additions", "_deletions")

    def __init__(
        self,
        additions: Iterable[tuple[int, int]] = frozenset(),
        deletions: Iterable[tuple[int, int]] = frozenset(),
    ):
        builder = EditRowBuilder()
        for block, pairs in enumerate((additions, deletions)):
            for s, qids in _by_student(pairs).items():
                builder.add(block, s, qids)
        built = builder.edits()
        self._hold(built._add_rows, built._del_rows, built._strays)

    def _hold(self, add_rows: tuple[int, ...], del_rows: tuple[int, ...], strays: tuple[frozenset, ...]) -> None:
        self._add_rows, self._del_rows, self._strays = add_rows, del_rows, strays
        self._additions = self._deletions = None

    @classmethod
    def of(
        cls,
        additions: Iterable[tuple[int, int]] = (),
        deletions: Iterable[tuple[int, int]] = (),
    ) -> "EditSet":
        return cls(
            [(int(s), int(q)) for s, q in additions],
            [(int(s), int(q)) for s, q in deletions],
        )

    @classmethod
    def from_rows(cls, add_rows: Iterable[int], del_rows: Iterable[int]) -> "EditSet":
        """The edits whose student s adds the questions of ``add_rows[s-1]``
        and deletes those of ``del_rows[s-1]``; rows are non-negative ints."""
        edits = cls.__new__(cls)
        edits._hold(tuple(add_rows), tuple(del_rows), (frozenset(), frozenset()))
        if min(edits._add_rows + edits._del_rows, default=0) < 0:
            raise ValueError("edit rows must be non-negative")
        return edits

    @property
    def additions(self) -> frozenset[tuple[int, int]]:
        if self._additions is None:
            self._additions = _row_pairs(self._add_rows) | self._strays[0]
        return self._additions

    @property
    def deletions(self) -> frozenset[tuple[int, int]]:
        if self._deletions is None:
            self._deletions = _row_pairs(self._del_rows) | self._strays[1]
        return self._deletions

    @property
    def counts(self) -> tuple[int, int]:
        """(number of additions, number of deletions): rows and strays never
        hold the same pair."""
        add_strays, del_strays = self._strays
        return _bit_total(self._add_rows) + len(add_strays), _bit_total(self._del_rows) + len(del_strays)

    @property
    def size(self) -> int:
        return sum(self.counts)

    def rows(self, n: int, m: int) -> tuple[Sequence[int], Sequence[int], bool]:
        """Per-student addition and deletion bitsets (index s-1) of the
        pairs in range for n students and m questions, and whether every
        pair was in range: an out-of-range id never reaches a bitset."""
        fitted = []
        in_range = True
        for rows, strays in zip((self._add_rows, self._del_rows), self._strays):
            kept, kept_all = _fitted_rows(rows, n, m)
            if strays:  # only a parsed file has strays; each is a distinct pair
                stray_rows = _pair_rows(strays, n, m)
                kept_all = kept_all and _bit_total(stray_rows) == len(strays)
                kept = [row | stray for row, stray in zip(kept, stray_rows)]
            fitted.append(kept)
            in_range = in_range and kept_all
        return fitted[0], fitted[1], in_range

    def grouped(self) -> tuple[list[tuple[int, Iterable[str]]], list[tuple[int, Iterable[str]]]]:
        """The additions and the deletions, each grouped by student: one
        (student, question ids as decimal strings) entry per student with a
        pair, students ascending and each student's ids ascending. Each
        entry's ids can be read once."""
        if any(self._strays):  # only a parsed file, which no command writes back
            return _pair_groups(self.additions), _pair_groups(self.deletions)
        width = max(self._add_rows + self._del_rows, default=0).bit_length()
        qids = list(map(str, range(1, width + 1)))  # one str per question id
        return tuple(
            [(s, bit_ids(row, qids)) for s, row in enumerate(rows, start=1) if row]
            for rows in (self._add_rows, self._del_rows)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EditSet):
            return NotImplemented
        return (self.additions, self.deletions) == (other.additions, other.deletions)

    def __hash__(self) -> int:
        return hash((self.additions, self.deletions))

    def __repr__(self) -> str:
        return f"EditSet(additions={self.additions!r}, deletions={self.deletions!r})"


EMPTY_EDITS = EditSet.from_rows((), ())

# What a parsed file may name and still be held as rows: question ids up to
# _ROW_WIDTH, so that no row, nor a view derived from it, is wider, and
# _ROW_BUDGET bytes of rows and row slots.
_ROW_WIDTH = 1 << 16
_ROW_BUDGET = 1 << 24


class EditRowBuilder:
    """A parsed file's edits, fed one run of a student's question ids at a
    time: ``add(block, s, qids)``, block 0 for an addition run and 1 for a
    deletion run, then ``edits()``. Repeated pairs collapse.

    Rows hold the pairs whose ids are all at least 1 and whose question
    ids are at most ``_ROW_WIDTH``, within ``_ROW_BUDGET`` bytes: 8 per
    student slot up to the largest student id, plus the bytes of the row
    each run writes, so that a student split over many runs pays for each
    copy of its row. Every other pair is a stray, kept as a (student,
    question) pair: one with another id, and, from the run that spends the
    budget on, every pair the rows do not already hold.
    """

    __slots__ = ("_run_rows", "_strays", "_charged")

    def __init__(self) -> None:
        self._run_rows: tuple[list[int], list[int]] = ([], [])
        self._strays: tuple[set[tuple[int, int]], set[tuple[int, int]]] = (set(), set())
        self._charged = 0

    def add(self, block: int, s: int, qids: list[int]) -> None:
        """Hold one run in the rows, and what they cannot hold as strays."""
        rows = self._run_rows[block]
        top = max(qids)
        if s < 1 or min(qids) < 1 or top > _ROW_WIDTH:  # ids that no row holds
            held = [q for q in qids if 0 < q <= _ROW_WIDTH] if s > 0 else []
            self._strays[block].update((s, q) for q in qids if not 0 < q <= _ROW_WIDTH or s < 1)
            if not held:
                return
            qids, top = held, max(held)
        grow = s - len(rows)
        width = top if grow > 0 else max(top, rows[s - 1].bit_length())
        # The charge only grows, so once it passes the budget every later
        # run lands here too.
        self._charged += 8 * max(grow, 0) + width // 8 + 1
        if self._charged > _ROW_BUDGET:
            row = 0 if grow > 0 else rows[s - 1]
            self._strays[block].update((s, q) for q in qids if not row >> (q - 1) & 1)
            return
        if grow > 0:
            rows.extend(repeat(0, grow))
        if len(qids) > 16:
            rows[s - 1] |= _row_bits(qids, top)
        else:  # a shift copies top/8 bytes per id, a flag row 3*top bytes per run
            for q in qids:
                rows[s - 1] |= 1 << (q - 1)

    def edits(self) -> EditSet:
        edits = EditSet.__new__(EditSet)
        edits._hold(*map(tuple, self._run_rows), tuple(map(frozenset, self._strays)))
        return edits


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

    @property
    def bounds(self) -> tuple[int | None, int | None]:
        """(student bound, question bound). None leaves that side free; an
        int b keeps it within b positions of its base order, so 0 means the
        base order itself. This is the one map from a variant to what it
        requires of each side's order."""
        k, side = self.k, self.fixed_side
        return {
            Variant.IMO_RECOGNIZE: (None, None),
            Variant.FIXED_BOTH_CHECK: (0, 0),
            Variant.FIXED_ONE_SIDE: (
                0 if side == Side.STUDENTS_FIXED else None,
                0 if side == Side.QUESTIONS_FIXED else None,
            ),
            Variant.CONSTRAINED_KNEAR: (k, 0),
            Variant.UNCONSTRAINED_KNEAR: (k, None),
            Variant.BOTH_KNEAR: (k, k),
        }[self.variant]

    def validate_for(self, inst: Instance) -> None:
        """Raise if the instance lacks a base order that a bound needs."""
        if self.k < 0:
            raise InvalidInstanceError("k must be non-negative")
        if self.variant == Variant.FIXED_ONE_SIDE and self.fixed_side is None:
            raise InvalidInstanceError("FIXED_ONE_SIDE requires fixed_side")
        bases = (inst.base_student_order, inst.base_question_order)
        for what, bound, base in zip(("student", "question"), self.bounds, bases):
            if bound is not None and base is None:
                raise MissingBaseOrderError(
                    f"variant {self.variant.value} requires a base {what} order"
                )


# ---------------------------------------------------------------------------
# Instance construction
#
# ``Instance`` checks itself; ``make_instance`` builds one from edges and the
# other constructors from bitsets.


def _validated_order(order: Sequence[int], n: int, label: str) -> tuple[int, ...]:
    order = tuple(int(x) for x in order)
    if not is_permutation(order, n):
        raise NotAPermutationError(f"base {label} order {order!r} is not a permutation of 1..{n}")
    return order


def _check_sizes(n: int, m: int, row_count: int) -> None:
    if n < 1 or m < 1:
        raise InvalidInstanceError(f"need at least one student and one question, got {n}x{m}")
    if row_count != n:
        raise InvalidInstanceError(f"adjacency has {row_count} rows for {n} students")


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _row_bits(qids: Iterable[int], m: int) -> int:
    """The bitset of question ids in 1..m, m >= 1, read as one binary
    numeral: one shift per id would copy an m-bit int each time."""
    flags = bytearray(m + 1)  # flags[q] for question q
    for q in qids:
        flags[q] = 1
    return int(flags[:0:-1].translate(_BIT_DIGITS), 2)


def bit_ids(bits: int, ids: Sequence[int]) -> Iterator[int]:
    """The entries of ``ids`` at the set bits of a non-negative ``bits``,
    lowest bit first: ``ids[q-1]`` for bit q-1. With ``ids`` a list, the
    results share its int objects."""
    # bin(bits) read backwards puts bit q-1 at index q-1 as "0" or "1".
    return compress(ids, bin(bits)[:1:-1].encode().translate(_BIT_BYTES))


def make_instance(
    num_students: int,
    num_questions: int,
    edges: Iterable[tuple[int, int]] = (),
    base_student_order: Sequence[int] | None = None,
    base_question_order: Sequence[int] | None = None,
) -> Instance:
    """Build an Instance from an edge list; a repeated edge counts once.

    Checks each edge's student in input order, then the sizes, then each
    student's question ids in ascending order, then the base orders.
    """
    n, m = num_students, num_questions
    rows: list[set[int]] = [set() for _ in range(n)]
    for s, q in edges:
        if not 1 <= int(s) <= n:
            raise OutOfRangeEdgeError(f"edge ({s},{q}) names student outside 1..{n}")
        rows[int(s) - 1].add(int(q))
    _check_sizes(n, m, len(rows))
    for s, row in enumerate(rows, start=1):
        outside = [q for q in row if not 1 <= q <= m]
        if outside:
            raise OutOfRangeEdgeError(f"student {s} lists question {min(outside)}, outside 1..{m}")
    bits = [_row_bits(row, m) for row in rows]
    return Instance(n, m, bits, base_student_order, base_question_order)


def with_base_orders(
    inst: Instance,
    student_order: Sequence[int] | None = None,
    question_order: Sequence[int] | None = None,
) -> Instance:
    """Attach (or replace) base orders, validating them; the rows are
    ``inst.adj_bits`` as they are."""
    return Instance(
        inst.num_students,
        inst.num_questions,
        inst.adj_bits,
        inst.base_student_order if student_order is None else student_order,
        inst.base_question_order if question_order is None else question_order,
    )


def apply_edits(inst: Instance, edits: EditSet) -> Instance:
    """Return the instance with E' = (E + additions) - deletions.

    Base orders are carried through unchanged. Raises EditConflictError when
    an addition already exists, a deletion is absent, or a pair is malformed.
    """
    n, m = inst.num_students, inst.num_questions
    add_rows, del_rows, in_range = edits.rows(n, m)
    original = inst.adj_bits
    # As in ``verify_solution``, a pair both added and deleted fails one of
    # the two row tests; its message is found on the pairs.
    if (
        not in_range
        or any(a & o for a, o in zip(add_rows, original))
        or any(d & ~o for d, o in zip(del_rows, original))
    ):
        _raise_edit_conflict(inst, edits)
    bits = [o ^ a ^ d for o, a, d in zip(original, add_rows, del_rows)]
    return Instance(n, m, bits, inst.base_student_order, inst.base_question_order)


def _raise_edit_conflict(inst: Instance, edits: EditSet) -> None:
    """Raise the EditConflictError of a faulty edit set, read off its
    pairs: a pair both added and deleted first, then the smallest faulty
    pair that checking additions, then deletions, in sorted order would
    meet. Each set is checked whole against the original rows."""
    n, m = inst.num_students, inst.num_questions
    overlap = edits.additions & edits.deletions
    if overlap:
        raise EditConflictError(f"pairs both added and deleted: {sorted(overlap)}")
    original = inst.adj_bits
    for kind, pairs, present, fault in (
        ("addition", edits.additions, 0, "already present"),
        ("deletion", edits.deletions, 1, "is absent"),
    ):
        faulty = [
            (s, q)
            for s, q in pairs
            if not (0 < s <= n and 0 < q <= m and (original[s - 1] >> (q - 1)) & 1 == present)
        ]
        if faulty:
            s, q = min(faulty)
            if not (0 < s <= n and 0 < q <= m):
                raise EditConflictError(f"{kind} ({s},{q}) is out of range")
            raise EditConflictError(f"{kind} ({s},{q}) {fault}")


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
    order: Sequence[int], order_ok: bool, base: Sequence[int] | None, bound: int | None, what: str
) -> CheckResult:
    name = f"{what}_order_constraint"
    if not order_ok:
        return CheckResult(name, False, f"{what} order malformed")
    if bound is None:
        return CheckResult(name, True, "unconstrained")
    if base is None:
        return CheckResult(name, False, f"no base {what} order to compare against")
    worst = max_displacement(order, base)
    return CheckResult(name, worst <= bound, f"max displacement {worst} vs bound {bound}")


def _pair_rows(pairs: Iterable[tuple[int, int]], n: int, m: int) -> list[int]:
    """Per-student bitsets (index s-1) of the pairs that are in range; an
    out-of-range id never reaches a bitset."""
    cols: list[list[int]] = [[] for _ in range(n)]
    for s, q in pairs:
        if 0 < s <= n and 0 < q <= m:
            cols[s - 1].append(q)
    return [_row_bits(col, m) if col else 0 for col in cols]


def _fitted_rows(rows: tuple[int, ...], n: int, m: int) -> tuple[Sequence[int], bool]:
    """Stored rows as n rows of m bits, and whether that kept every bit:
    missing rows are empty, rows past n and bits past m are cut."""
    if len(rows) <= n and not max(rows, default=0) >> m:
        return rows + (0,) * (n - len(rows)), True
    mask = (1 << m) - 1
    kept = [row & mask for row in rows[:n]]
    kept += [0] * (n - len(kept))
    return kept, _bit_total(kept) == _bit_total(rows)


def _row_pairs(rows: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The (student, question) pairs of per-student bitsets (index s-1)."""
    qids = list(range(1, max(rows, default=0).bit_length() + 1))
    return frozenset(
        chain.from_iterable(zip(repeat(s), bit_ids(row, qids)) for s, row in enumerate(rows, start=1) if row)
    )


def _by_student(pairs: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """Each student's question ids among the pairs, in the pairs' order."""
    by_student: dict[int, list[int]] = {}
    for s, q in pairs:
        by_student.setdefault(s, []).append(q)
    return by_student


def _pair_groups(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, Iterable[str]]]:
    """``EditSet.grouped`` for one set of pairs: grouped by student."""
    by_student = _by_student(pairs)
    return [(s, map(str, sorted(by_student[s]))) for s in sorted(by_student)]


def _bit_total(rows: Iterable[int]) -> int:
    return sum(map(int.bit_count, rows))


def verify_solution(inst: Instance, spec: ProblemSpec, sol: Solution) -> VerificationReport:
    """Feasibility report for a proposed solution.

    Works on one bitset per student (bit q-1 for question q), the edits'
    in-range rows from ``EditSet.rows`` included, and shares no code with
    any solver, so it can serve as the independent oracle for every solver
    in the package. Failures are report entries, never exceptions.
    """
    n, m = inst.num_students, inst.num_questions
    checks: list[CheckResult] = []
    add_count, del_count = sol.edits.counts
    original = inst.adj_bits

    add_rows, del_rows, in_range = sol.edits.rows(n, m)
    # A pair both added and deleted is either present or absent, so the
    # sets are disjoint once both row tests pass.
    edits_ok = (
        in_range
        and not any(a & o for a, o in zip(add_rows, original))
        and not any(d & ~o for d, o in zip(del_rows, original))
    )
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
            sol.cost == add_count + del_count,
            f"cost field {sol.cost} vs {add_count} additions + {del_count} deletions",
        )
    )

    checks.append(
        CheckResult(
            "mode_compliance",
            spec.mode != Mode.ADDITION or not del_count,
            "ADDITION solutions must not delete edges",
        )
    )

    so_ok = is_permutation(sol.student_order, n)
    qo_ok = is_permutation(sol.question_order, m)
    checks.append(CheckResult("student_order_valid", so_ok, "must be a permutation of students"))
    checks.append(CheckResult("question_order_valid", qo_ok, "must be a permutation of questions"))

    # Edited neighborhoods from the in-range pairs, so that later checks
    # still report something sensible for a malformed edit set.
    edited = [(o | a) & ~d for o, a, d in zip(original, add_rows, del_rows)]

    if so_ok:
        nested = True
        detail = "every weaker student's neighborhood is contained in every stronger one's"
        by_pos = [edited[s - 1] for s in sol.student_order]
        # Containment is transitive, so adjacent pairs decide all pairs.
        for weak in range(n - 1):
            if by_pos[weak] & ~by_pos[weak + 1]:
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
        # prefix[c] holds the first c questions of the order, for each size c
        # of an edited neighborhood; a neighborhood of c questions is a
        # prefix iff it equals prefix[c].
        sizes = {row.bit_count() for row in edited}
        prefix = {0: 0}
        mask = 0
        for c, q in enumerate(sol.question_order, start=1):
            mask |= 1 << (q - 1)
            if c in sizes:
                prefix[c] = mask
        interval = True
        detail = "each neighborhood is a prefix of the question order"
        for s, row in enumerate(edited, start=1):
            if row != prefix[row.bit_count()]:
                interval = False
                positions = [pos for pos, q in enumerate(sol.question_order, start=1) if row >> (q - 1) & 1]
                detail = f"student {s} answers non-prefix positions {positions}"
                break
        checks.append(CheckResult("interval_property", interval, detail))
    else:
        checks.append(CheckResult("interval_property", False, "question order malformed"))

    # Order constraints: each side within its bound of its base order.
    for what, order, order_ok, base, bound in zip(
        ("student", "question"),
        (sol.student_order, sol.question_order),
        (so_ok, qo_ok),
        (inst.base_student_order, inst.base_question_order),
        spec.bounds,
    ):
        checks.append(_knear_check(order, order_ok, base, bound, what))

    return VerificationReport(tuple(checks))
