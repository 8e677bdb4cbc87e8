"""Constructive reduction from 3-SAT to unconstrained 1-near editing, with
converters between satisfying assignments and budget-optimal editings.

Each variable becomes a group of six students ordered a > b > f > t > c > d
(strongest first) in the base order; groups follow variable order. Enforcement
questions pin every adjacent pair of that order except (f, t): each enforced
pair gets a block of identical questions whose neighborhood is the top
segment of the base order ending at the pair's upper student. Top segments
stay top segments when any group swaps its f and t, so these questions are
nested with each other and never need edits; crossing any other pair costs
more than the whole budget. One extra question per clause carries the
satisfiability signal: its cheapest cut sits at s_t (variable true) or s_f
(variable false) of a variable occurring in the clause, at 3|V|-1 edits, one
less than any other cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne
from typing import Sequence

from . import ideal
from .core_model import (
    ChainRankError,
    Instance,
    InvalidInstanceError,
    Mode,
    ParseError,
    ProblemSpec,
    Solution,
    Variant,
    inverse_positions,
    make_instance,
    verify_solution,
)

ROLES = ("a", "b", "f", "t", "c", "d")

# Adjacent pairs of the in-group order that must never swap; (f, t) is the
# deliberate gap that encodes the variable's truth value.
_ENFORCED_IN_GROUP = (("a", "b"), ("b", "f"), ("t", "c"), ("c", "d"))


class ClauseTooWideError(ChainRankError):
    code = "CLAUSE_TOO_WIDE"


class TautologicalClauseError(ChainRankError):
    code = "TAUTOLOGICAL_CLAUSE"


class UnsatisfiedClauseError(ChainRankError):
    code = "UNSATISFIED"

    def __init__(self, clause_index: int):
        self.clause_index = clause_index
        super().__init__(f"clause {clause_index} has no satisfied literal")


class NotWithinBudgetError(ChainRankError):
    code = "NOT_WITHIN_BUDGET"


@dataclass(frozen=True)
class Formula:
    """A CNF formula with at most three literals per clause.

    Literals are signed 1-based variable indices; clause literals are stored
    deduplicated and sorted by (variable, polarity), positive first.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise InvalidInstanceError("a formula needs at least one variable")
        for idx, clause in enumerate(self.clauses, start=1):
            if not clause:
                raise InvalidInstanceError(f"clause {idx} is empty")
            if len(clause) > 3:
                raise ClauseTooWideError(f"clause {idx} has {len(clause)} literals")
            vars_seen = set()
            for lit in clause:
                var = abs(lit)
                if lit == 0 or var > self.num_vars:
                    raise InvalidInstanceError(f"clause {idx} literal {lit} out of range")
                if var in vars_seen:
                    raise TautologicalClauseError(
                        f"clause {idx} uses variable {var} twice"
                    )
                vars_seen.add(var)

    def is_satisfied_by(self, assignment: Sequence[bool]) -> bool:
        return all(
            any((lit > 0) == bool(assignment[abs(lit) - 1]) for lit in clause)
            for clause in self.clauses
        )


def formula(num_vars: int, clauses: Sequence[Sequence[int]]) -> Formula:
    """Normalize and validate raw clause lists into a Formula."""
    normalized = tuple(
        tuple(sorted(set(clause), key=lambda lit: (abs(lit), lit < 0)))
        for clause in clauses
    )
    return Formula(num_vars=num_vars, clauses=normalized)


def parse_cnf(text: str) -> Formula:
    """Parse DIMACS CNF text. The 'p cnf' header is optional; without it the
    variable count is inferred from the literals, and with it the clauses
    read must number what it declares. A line starting with '%' ends the
    formula: SATLIB files close with a '%' line and a lone '0'."""
    tokens: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("%"):
            break
        if not stripped or stripped.startswith("c"):
            continue
        tokens.extend(stripped.split())
    if not tokens:
        raise ParseError("no clauses found")
    num_vars = num_clauses = None
    pos = 0
    if tokens[0] == "p":
        if len(tokens) < 4 or tokens[1] != "cnf":
            raise ParseError("malformed problem line, expected 'p cnf <vars> <clauses>'")
        try:
            num_vars = int(tokens[2])
            num_clauses = int(tokens[3])
        except ValueError as exc:
            raise ParseError(f"bad problem line counts: {exc}") from exc
        pos = 4
    clauses: list[list[int]] = []
    current: list[int] = []
    for tok in tokens[pos:]:
        try:
            lit = int(tok)
        except ValueError as exc:
            raise ParseError(f"bad literal {tok!r}") from exc
        if lit == 0:
            if not current:
                raise ParseError("empty clause")
            clauses.append(current)
            current = []
        else:
            current.append(lit)
    if current:
        raise ParseError("last clause is not terminated by 0")
    if not clauses:
        raise ParseError("no clauses found")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise ParseError(f"the problem line declares {num_clauses} clauses, but {len(clauses)} were read")
    if num_vars is None:
        num_vars = max(abs(lit) for clause in clauses for lit in clause)
    return formula(num_vars, clauses)


# ---------------------------------------------------------------------------
# Student bookkeeping


def student_id(group: int, role: str) -> int:
    """Students are numbered strongest first: group 1's a, b, f, t, c, d,
    then group 2's, and so on."""
    return 6 * (group - 1) + ROLES.index(role) + 1


def student_role(sid: int) -> tuple[int, str]:
    return (sid - 1) // 6 + 1, ROLES[(sid - 1) % 6]


@dataclass(frozen=True)
class GadgetRange:
    """The block of identical questions enforcing one student pair."""

    upper: tuple[int, str]
    lower: tuple[int, str]
    first_question: int
    last_question: int


@dataclass(frozen=True)
class ReductionInstance:
    """The built editing instance plus reduction bookkeeping."""

    instance: Instance
    formula: Formula
    pi_phi: tuple[int, ...]
    t_phi: int
    k: int
    clause_question_ids: tuple[int, ...]
    gadget_ranges: tuple[GadgetRange, ...]


def build_reduction(phi: Formula) -> ReductionInstance:
    """Instance whose optimal unconstrained 1-near editing cost is t_phi
    exactly when phi is satisfiable. Each enforced pair gets t_phi + 1
    copies of its gadget question.
    """
    n = phi.num_vars
    m = len(phi.clauses)
    num_students = 6 * n
    t_phi = m * (3 * n - 1)
    mult = t_phi + 1

    # Base order, weakest first: ids descend from the weakest (last group's d).
    pi_phi = tuple(range(num_students, 0, -1))

    edges: list[tuple[int, int]] = []
    gadget_ranges: list[GadgetRange] = []
    next_q = 1

    def add_block(upper: tuple[int, str], lower: tuple[int, str]) -> None:
        nonlocal next_q
        cut = student_id(*upper)
        first = next_q
        for q in range(first, first + mult):
            edges.extend((s, q) for s in range(1, cut + 1))
        next_q += mult
        gadget_ranges.append(GadgetRange(upper, lower, first, next_q - 1))

    for g in range(1, n + 1):
        for hi, lo in _ENFORCED_IN_GROUP:
            add_block((g, hi), (g, lo))
        if g < n:
            add_block((g, "d"), (g + 1, "a"))

    clause_qids = []
    for clause in phi.clauses:
        q = next_q
        next_q += 1
        clause_qids.append(q)
        polarity = {abs(lit): lit > 0 for lit in clause}
        for g in range(1, n + 1):
            edges.append((student_id(g, "b"), q))
            edges.append((student_id(g, "d"), q))
            if g in polarity:
                edges.append((student_id(g, "t" if polarity[g] else "f"), q))
            else:
                edges.append((student_id(g, "c"), q))

    inst = make_instance(
        num_students=num_students,
        num_questions=next_q - 1,
        edges=edges,
        base_student_order=pi_phi,
    )
    return ReductionInstance(
        instance=inst,
        formula=phi,
        pi_phi=pi_phi,
        t_phi=t_phi,
        k=1,
        clause_question_ids=tuple(clause_qids),
        gadget_ranges=tuple(gadget_ranges),
    )


def _swapped_order(red: ReductionInstance, assignment: Sequence[bool]) -> list[int]:
    order = list(red.pi_phi)
    num_students = len(order)
    for g, value in enumerate(assignment, start=1):
        if value:
            pf = num_students + 1 - student_id(g, "f")
            pt = num_students + 1 - student_id(g, "t")
            order[pf - 1], order[pt - 1] = order[pt - 1], order[pf - 1]
    return order


def assignment_to_editing(red: ReductionInstance, assignment: Sequence[bool]) -> Solution:
    """Turn a satisfying assignment into a 1-near editing of cost exactly
    t_phi: swap f and t in the true variables' groups and cut each clause
    question at a satisfied literal's student.

    Raises UnsatisfiedClauseError naming the first clause the assignment
    leaves unsatisfied.
    """
    phi = red.formula
    if len(assignment) != phi.num_vars:
        raise InvalidInstanceError(
            f"assignment covers {len(assignment)} of {phi.num_vars} variables"
        )
    order = _swapped_order(red, assignment)
    n = phi.num_vars
    # The rows in ``order``; each clause question goes to exactly the
    # students at or above its cut.
    rows = [red.instance.adj_bits[s - 1] for s in order]
    for idx, (clause, q) in enumerate(zip(phi.clauses, red.clause_question_ids), start=1):
        chosen = next(
            (lit for lit in clause if (lit > 0) == bool(assignment[abs(lit) - 1])), None
        )
        if chosen is None:
            raise UnsatisfiedClauseError(idx)
        cut = order.index(student_id(abs(chosen), "t" if chosen > 0 else "f"))
        bit = 1 << (q - 1)
        edited = [row | bit if p >= cut else row & ~bit for p, row in enumerate(rows)]
        assert sum(map(ne, rows, edited)) == 3 * n - 1, "clause edit count off"
        rows = edited

    sol = ideal.nested_solution(
        red.instance,
        order,
        ideal.nested_question_order(rows, red.instance.num_questions),
        [row.bit_count() for row in rows],
        "hardness.assignment_to_editing",
    )
    assert sol.cost == red.t_phi
    report = verify_solution(
        red.instance, ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, red.k), sol
    )
    if not report.ok:
        raise AssertionError(f"constructed editing fails verification: {report.failed()}")
    return sol


def editing_to_assignment(red: ReductionInstance, sol: Solution) -> tuple[bool, ...]:
    """Read the assignment off a within-budget editing: variable i is true
    iff its s_t ranks above its s_f in the output order.

    Raises NotWithinBudgetError when the editing costs more than t_phi. A
    within-budget editing that decoded to an unsatisfying assignment would
    falsify the construction, so that case fails loudly.
    """
    report = verify_solution(
        red.instance, ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, red.k), sol
    )
    if not report.ok:
        raise InvalidInstanceError(
            f"solution fails feasibility checks: {[c.name for c in report.failed()]}"
        )
    if sol.cost > red.t_phi:
        raise NotWithinBudgetError(f"cost {sol.cost} exceeds budget t_phi = {red.t_phi}")
    ppos = inverse_positions(sol.student_order)
    assignment = tuple(
        ppos[student_id(g, "t")] > ppos[student_id(g, "f")]
        for g in range(1, red.formula.num_vars + 1)
    )
    if not red.formula.is_satisfied_by(assignment):
        raise RuntimeError(
            "within-budget editing decoded to an unsatisfying assignment; "
            "this contradicts the reduction and means the implementation is wrong"
        )
    return assignment
