from __future__ import annotations

import itertools
import random

import pytest

from chainrank import (
    EditSet,
    Mode,
    ParseError,
    ProblemSpec,
    Solution,
    Variant,
    apply_edits,
    assignment_to_editing,
    build_reduction,
    derive_question_order,
    editing_to_assignment,
    oracle_solve,
    parse_cnf,
    verify_solution,
)
from chainrank.hardness import (
    ClauseTooWideError,
    NotWithinBudgetError,
    TautologicalClauseError,
    UnsatisfiedClauseError,
    formula,
    student_id,
    student_role,
)
from conftest import adjacency


class TestParseCnf:
    def test_single_positive_unit(self):
        phi = parse_cnf("p cnf 1 1\n1 0\n")
        assert phi.num_vars == 1
        assert phi.clauses == ((1,),)

    def test_three_literals(self):
        phi = parse_cnf("p cnf 3 1\n1 -2 3 0\n")
        assert phi.clauses == ((1, -2, 3),)

    def test_tautological_clause_rejected(self):
        with pytest.raises(TautologicalClauseError):
            parse_cnf("1 -1 0\n")

    def test_wide_clause_rejected(self):
        with pytest.raises(ClauseTooWideError):
            parse_cnf("p cnf 4 1\n1 2 3 4 0\n")

    def test_comments_and_missing_header(self):
        phi = parse_cnf("c a comment\n1 2 0\n-2 0\n")
        assert phi.num_vars == 2
        assert phi.clauses == ((1, 2), (-2,))

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            parse_cnf("p cnf 2 1\n1 2\n")

    def test_satlib_trailer_ends_the_formula(self):
        text = "c SATLIB style\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n"
        assert parse_cnf(text + "%\n0\n\n") == parse_cnf(text)


    @pytest.mark.parametrize(
        "text, declared, read",
        [
            ("p cnf 3 5\n1 -2 0\n", 5, 1),
            ("p cnf 3 2\n1 -2 3 0\n", 2, 1),
            ("p cnf 3 1\n1 -2 0\n2 3 0\n-1 0\n", 1, 3),
        ],
    )
    def test_clause_count_must_match_the_header(self, text, declared, read):
        """A file cut short after a clause's 0, or one with extra clauses."""
        with pytest.raises(ParseError, match=f"declares {declared} clauses, but {read} were read"):
            parse_cnf(text)


class TestBuildReduction:
    def test_student_layout(self):
        assert student_id(1, "a") == 1
        assert student_id(2, "d") == 12
        assert student_role(10) == (2, "t")

    def test_figure_four_clause_edges(self):
        # clause (w or not-x or y) over four variables w,x,y,z
        phi = formula(4, [(1, -2, 3)])
        red = build_reduction(phi)
        q = red.clause_question_ids[0]
        neighbors = {s for s in range(1, 25) if q in adjacency(red.instance)[s - 1]}
        expected = {student_id(1, "t"), student_id(2, "f"), student_id(3, "t"), student_id(4, "c")}
        for g in range(1, 5):
            expected |= {student_id(g, "b"), student_id(g, "d")}
        assert neighbors == expected

    def test_budget_formula(self):
        for n, m in ((1, 1), (2, 2), (3, 1), (4, 5)):
            clauses = [tuple((1,))] * m
            red = build_reduction(formula(n, clauses))
            assert red.t_phi == m * (3 * n - 1)

    def test_single_variable_unit_clause_layout(self):
        red = build_reduction(formula(1, [(1,)]))
        assert red.instance.num_students == 6
        q = red.clause_question_ids[0]
        neighbors = {s for s in range(1, 7) if q in adjacency(red.instance)[s - 1]}
        assert neighbors == {student_id(1, "t"), student_id(1, "b"), student_id(1, "d")}
        # four enforced pairs per group, t_phi + 1 = 3 questions each
        assert red.instance.num_questions == 4 * 3 + 1

    def test_gadget_multiplicity_and_pairs(self):
        phi = formula(2, [(1, 2), (-1,)])
        red = build_reduction(phi)
        # 4 in-group pairs per variable plus 1 boundary pair
        assert len(red.gadget_ranges) == 4 * 2 + 1
        for fam in red.gadget_ranges:
            assert fam.last_question - fam.first_question + 1 == red.t_phi + 1

    def test_gadget_neighborhoods_are_nested_and_pin_their_pair(self):
        phi = formula(2, [(1, -2)])
        red = build_reduction(phi)
        inst = red.instance
        adj = adjacency(inst)
        members = {}
        for fam in red.gadget_ranges:
            q = fam.first_question
            members[q] = {s for s in range(1, 13) if q in adj[s - 1]}
            assert student_id(*fam.upper) in members[q]
            assert student_id(*fam.lower) not in members[q]
        for a, b in itertools.combinations(members.values(), 2):
            assert a <= b or b <= a

    def test_base_order_is_weakest_first(self):
        red = build_reduction(formula(1, [(1,)]))
        assert red.pi_phi == (6, 5, 4, 3, 2, 1)
        assert red.k == 1


class TestAssignmentToEditing:
    def test_true_unit_clause_costs_two_and_swaps(self):
        red = build_reduction(formula(1, [(1,)]))
        sol = assignment_to_editing(red, [True])
        assert sol.cost == red.t_phi == 2
        pos = {s: p for p, s in enumerate(sol.student_order, start=1)}
        assert pos[student_id(1, "t")] > pos[student_id(1, "f")]

    def test_false_assignment_is_rejected(self):
        red = build_reduction(formula(1, [(1,)]))
        with pytest.raises(UnsatisfiedClauseError) as exc:
            assignment_to_editing(red, [False])
        assert exc.value.clause_index == 1

    def test_two_variable_clause_costs_five(self):
        red = build_reduction(formula(2, [(1, 2)]))
        sol = assignment_to_editing(red, [True, False])
        assert sol.cost == red.t_phi == 5

    def test_edit_distribution(self):
        phi = formula(2, [(1, 2), (-2,)])
        red = build_reduction(phi)
        sol = assignment_to_editing(red, [True, False])
        clause_qs = set(red.clause_question_ids)
        per_question: dict[int, int] = {}
        for _, q in sol.edits.additions | sol.edits.deletions:
            per_question[q] = per_question.get(q, 0) + 1
        assert set(per_question) == clause_qs
        assert all(count == 3 * 2 - 1 for count in per_question.values())

    def test_output_is_one_near(self):
        red = build_reduction(formula(2, [(1, -2)]))
        sol = assignment_to_editing(red, [True, True])
        for p, s in enumerate(sol.student_order, start=1):
            assert abs(p - (len(sol.student_order) + 1 - s)) <= 1


def _assignment_to_editing_reference(red, assignment):
    """``assignment_to_editing`` as it was when it built the clause
    questions' edits as set differences and applied them, kept as the
    reference for the build through ``nested_solution``."""
    phi = red.formula
    order = list(red.pi_phi)
    for g, value in enumerate(assignment, start=1):
        if value:
            pf, pt = len(order) + 1 - student_id(g, "f"), len(order) + 1 - student_id(g, "t")
            order[pf - 1], order[pt - 1] = order[pt - 1], order[pf - 1]
    ppos = {s: p for p, s in enumerate(order, start=1)}
    q_members = {q: set() for q in red.clause_question_ids}
    for s, q in red.instance.edges():
        if q in q_members:
            q_members[q].add(s)
    additions, deletions = [], []
    for idx, (clause, q) in enumerate(zip(phi.clauses, red.clause_question_ids), start=1):
        chosen = next((lit for lit in clause if (lit > 0) == bool(assignment[abs(lit) - 1])), None)
        if chosen is None:
            raise UnsatisfiedClauseError(idx)
        cut = student_id(abs(chosen), "t" if chosen > 0 else "f")
        target = {s for s in order if ppos[s] >= ppos[cut]}
        additions.extend((s, q) for s in target - q_members[q])
        deletions.extend((s, q) for s in q_members[q] - target)
    edits = EditSet.of(additions, deletions)
    return Solution(
        cost=edits.size,
        student_order=tuple(order),
        question_order=derive_question_order(apply_edits(red.instance, edits), order),
        edits=edits,
        solver_tag="hardness.assignment_to_editing",
    )


def test_assignment_to_editing_matches_set_difference_reference():
    """The same Solution, or the same unsatisfied clause, for every
    assignment of random formulas."""
    rng = random.Random(17)
    for _ in range(40):
        num_vars = rng.randint(1, 4)
        clauses = []
        for _ in range(rng.randint(1, 5)):
            chosen = rng.sample(range(1, num_vars + 1), rng.randint(1, min(3, num_vars)))
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        red = build_reduction(formula(num_vars, clauses))
        for assignment in itertools.product([False, True], repeat=num_vars):
            try:
                want = _assignment_to_editing_reference(red, assignment)
            except UnsatisfiedClauseError as exc:
                with pytest.raises(UnsatisfiedClauseError) as got:
                    assignment_to_editing(red, assignment)
                assert got.value.clause_index == exc.clause_index
            else:
                assert assignment_to_editing(red, assignment) == want


class TestEditingToAssignment:
    def test_round_trip(self):
        phi = formula(2, [(1, 2), (-1, 2)])
        red = build_reduction(phi)
        sol = assignment_to_editing(red, [False, True])
        assert editing_to_assignment(red, sol) == (False, True)

    def test_budget_violation(self):
        red = build_reduction(formula(1, [(1,)]))
        inst = red.instance
        # wipe the graph: feasible for any order, but far over budget
        edits = EditSet.of(deletions=list(inst.edges()))
        sol = Solution(
            cost=edits.size,
            student_order=red.pi_phi,
            question_order=tuple(range(1, inst.num_questions + 1)),
            edits=edits,
            solver_tag="test",
        )
        spec = ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, 1)
        assert verify_solution(inst, spec, sol).ok
        with pytest.raises(NotWithinBudgetError):
            editing_to_assignment(red, sol)

    def test_oracle_optimum_decodes_to_satisfying_assignment(self):
        phi = formula(2, [(1, 2), (-1,)])
        red = build_reduction(phi)
        sol = oracle_solve(red.instance, ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, 1))
        assert sol.cost == red.t_phi
        assignment = editing_to_assignment(red, sol)
        assert phi.is_satisfied_by(assignment)


class TestSeparation:
    def test_satisfiable_meets_budget_unsatisfiable_exceeds_it(self):
        sat = build_reduction(formula(1, [(1,)]))
        unsat = build_reduction(formula(1, [(1,), (-1,)]))
        spec = ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, 1)
        assert oracle_solve(sat.instance, spec).cost == sat.t_phi
        assert oracle_solve(unsat.instance, spec).cost > unsat.t_phi

    def test_budget_optimal_orders_respect_every_enforced_pair(self):
        spec = ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, 1)
        for clauses in ([(1,)], [(1, 2)], [(-1,), (1, 2)]):
            red = build_reduction(formula(max(abs(l) for c in clauses for l in c), clauses))
            sol = oracle_solve(red.instance, spec)
            assert sol.cost == red.t_phi
            pos = {s: p for p, s in enumerate(sol.student_order, start=1)}
            for fam in red.gadget_ranges:
                assert pos[student_id(*fam.upper)] > pos[student_id(*fam.lower)]
