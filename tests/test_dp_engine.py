from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank import (
    MissingBaseOrderError,
    Mode,
    ProblemSpec,
    Side,
    Variant,
    enumerate_window_sets,
    make_instance,
    oracle_solve,
    solve_both_knear,
    solve_constrained_knear,
    solve_fixed_side,
    solve_unconstrained_knear_addition,
    verify_solution,
)
from chainrank.dp_engine import _window_sets_bruteforce
from conftest import figure_one, random_instance


def fig1_with_orders():
    inst = figure_one()
    return make_instance(
        3, 5, list(inst.edges()), base_student_order=(1, 2, 3), base_question_order=(1, 2, 3, 4, 5)
    )


class TestWindowSets:
    def test_first_position_has_empty_prefix(self):
        assert enumerate_window_sets(1, 1, 1, 3) == [()]

    def test_weakest_must_precede(self):
        # occupant 1 at position 2 forces student 2 first; 3 cannot reach position 1
        assert enumerate_window_sets(2, 1, 1, 3) == [(2,)]

    def test_displacement_rules_out_candidate(self):
        # occupant 3 at position 2: prefix {2} would push student 1 to position 3
        assert enumerate_window_sets(2, 3, 1, 3) == [(1,)]

    def test_matches_bruteforce_enumeration(self):
        for n in range(1, 7):
            for k in range(0, 4):
                for i in range(1, n + 1):
                    for u in range(1, n + 1):
                        fast = set(enumerate_window_sets(i, u, k, n))
                        assert fast == _window_sets_bruteforce(i, u, k, n), (n, k, i, u)


def _constrained_bruteforce(inst, k, mode):
    """Independent check: enumerate k-near orders x monotone frontier tuples."""
    from chainrank import enumerate_knear_permutations

    n, m = inst.num_students, inst.num_questions
    best = None
    for pi in enumerate_knear_permutations(inst.base_student_order, k):
        qpos = {q: p for p, q in enumerate(inst.base_question_order, start=1)}
        for frontiers in itertools.product(range(m + 1), repeat=n):
            if any(a > b for a, b in zip(frontiers, frontiers[1:])):
                continue
            total = 0
            ok = True
            for s, v in zip(pi, frontiers):
                positions = {qpos[q] for q in inst.neighbors(s)}
                target = set(range(1, v + 1))
                if mode == Mode.ADDITION and not positions <= target:
                    ok = False
                    break
                total += len(positions ^ target)
            if ok and (best is None or total < best):
                best = total
    return best


class TestConstrainedKNear:
    def test_ideal_instance_costs_nothing_for_any_k(self):
        inst = fig1_with_orders()
        for k in (0, 1, 2, 5):
            for mode in (Mode.EDITING, Mode.ADDITION):
                assert solve_constrained_knear(inst, k, mode).cost == 0

    def test_k0_forces_frontier_equalization(self):
        inst = make_instance(2, 2, [(1, 1), (1, 2)], (1, 2), (1, 2))
        assert _constrained_bruteforce(inst, 0, Mode.EDITING) == 2
        sol = solve_constrained_knear(inst, 0, Mode.EDITING)
        assert sol.cost == 2

    def test_k1_swap_reaches_zero(self):
        inst = make_instance(2, 2, [(1, 1), (1, 2)], (1, 2), (1, 2))
        assert _constrained_bruteforce(inst, 1, Mode.EDITING) == 0
        sol = solve_constrained_knear(inst, 1, Mode.EDITING)
        assert sol.cost == 0
        assert sol.student_order == (2, 1)
        assert sol.edits.size == 0

    def test_missing_base_order_raises(self):
        inst = make_instance(2, 2, [(1, 1)])
        with pytest.raises(MissingBaseOrderError):
            solve_constrained_knear(inst, 1)

    def test_bound_at_least_n_minus_1_matches_oracle(self):
        rng = random.Random(26)
        for _ in range(40):
            inst = random_instance(rng, max_side=7)
            n = inst.num_students
            for k in (n - 1, n, n + 3):
                for mode in (Mode.EDITING, Mode.ADDITION):
                    sol = solve_constrained_knear(inst, k, mode)
                    spec = ProblemSpec(Variant.CONSTRAINED_KNEAR, mode, k)
                    assert sol.cost == oracle_solve(inst, spec).cost, (k, mode, inst)
                    assert sol.solver_tag == f"dp.constrained_knear.{mode.value}"
                    assert verify_solution(inst, spec, sol).ok

    def test_bound_at_least_n_minus_1_is_fast(self):
        rng = random.Random(27)
        edges = [(s, q) for s in range(1, 17) for q in range(1, 17) if rng.random() < 0.5]
        inst = make_instance(16, 16, edges, tuple(rng.sample(range(1, 17), 16)), tuple(range(1, 17)))
        start = time.perf_counter()
        sol = solve_constrained_knear(inst, 16, Mode.EDITING)
        assert time.perf_counter() - start < 2.0
        free = solve_fixed_side(inst, Side.QUESTIONS_FIXED, inst.base_question_order)
        assert sol.cost == free.cost

    def test_huge_k_recovers_fixed_side_cost(self):
        rng = random.Random(21)
        for _ in range(30):
            inst = random_instance(rng, max_side=5)
            n = inst.num_students
            free = solve_fixed_side(inst, Side.QUESTIONS_FIXED, inst.base_question_order)
            assert solve_constrained_knear(inst, n, Mode.EDITING).cost == free.cost


class TestUnconstrainedKNearAddition:
    def test_ideal_instance_costs_nothing(self):
        inst = fig1_with_orders()
        assert solve_unconstrained_knear_addition(inst, 0).cost == 0

    def test_k0_must_fill_weaker_neighborhood(self):
        inst = make_instance(2, 2, [(1, 1), (1, 2), (2, 1)], (1, 2), None)
        sol = solve_unconstrained_knear_addition(inst, 0)
        assert sol.cost == 1
        assert sol.edits.additions == {(2, 2)}

    def test_k1_swap_reaches_zero(self):
        inst = make_instance(2, 2, [(1, 1), (1, 2), (2, 1)], (1, 2), None)
        sol = solve_unconstrained_knear_addition(inst, 1)
        assert sol.cost == 0
        assert sol.student_order == (2, 1)

    def test_neighborhoods_only_grow(self):
        rng = random.Random(22)
        for _ in range(40):
            inst = random_instance(rng, max_side=5)
            sol = solve_unconstrained_knear_addition(inst, rng.choice([0, 1, 2]))
            assert not sol.edits.deletions


class TestBothKNear:
    def test_ideal_instance_costs_nothing(self):
        inst = fig1_with_orders()
        assert solve_both_knear(inst, 1).cost == 0

    def test_single_student_k0_breaks_tie_toward_empty_frontier(self):
        inst = make_instance(1, 2, [(1, 2)], (1,), (1, 2))
        # frontier 0 (delete q2) and frontier 2 (add q1) both cost 1; 1 costs 2
        sol = solve_both_knear(inst, 0, Mode.EDITING)
        assert sol.cost == 1
        assert sol.edits.deletions == {(1, 2)} and not sol.edits.additions

    def test_single_student_k1_reorders_questions(self):
        inst = make_instance(1, 2, [(1, 2)], (1,), (1, 2))
        sol = solve_both_knear(inst, 1, Mode.EDITING)
        assert sol.cost == 0
        assert sol.question_order == (2, 1)


class TestOracleAgreement:
    def test_randomized_equivalence(self):
        rng = random.Random(23)
        for _ in range(120):
            inst = random_instance(rng, max_side=5)
            k = rng.choice([0, 1, 2])
            runs = [
                (solve_constrained_knear(inst, k, Mode.EDITING), Variant.CONSTRAINED_KNEAR, Mode.EDITING),
                (solve_constrained_knear(inst, k, Mode.ADDITION), Variant.CONSTRAINED_KNEAR, Mode.ADDITION),
                (solve_unconstrained_knear_addition(inst, k), Variant.UNCONSTRAINED_KNEAR, Mode.ADDITION),
                (solve_both_knear(inst, k, Mode.EDITING), Variant.BOTH_KNEAR, Mode.EDITING),
                (solve_both_knear(inst, k, Mode.ADDITION), Variant.BOTH_KNEAR, Mode.ADDITION),
            ]
            for sol, variant, mode in runs:
                spec = ProblemSpec(variant, mode, k)
                assert sol.cost == oracle_solve(inst, spec).cost, (spec, inst)
                assert verify_solution(inst, spec, sol).ok

    def test_cost_monotone_in_k(self):
        rng = random.Random(24)
        for _ in range(40):
            inst = random_instance(rng, max_side=5)
            for solver in (
                lambda k: solve_constrained_knear(inst, k, Mode.EDITING).cost,
                lambda k: solve_constrained_knear(inst, k, Mode.ADDITION).cost,
                lambda k: solve_unconstrained_knear_addition(inst, k).cost,
                lambda k: solve_both_knear(inst, k, Mode.EDITING).cost,
                lambda k: solve_both_knear(inst, k, Mode.ADDITION).cost,
            ):
                costs = [solver(k) for k in (0, 1, 2)]
                assert costs[0] >= costs[1] >= costs[2]

    def test_editing_no_worse_than_addition(self):
        rng = random.Random(25)
        for _ in range(40):
            inst = random_instance(rng, max_side=5)
            k = rng.choice([0, 1, 2])
            assert (
                solve_constrained_knear(inst, k, Mode.EDITING).cost
                <= solve_constrained_knear(inst, k, Mode.ADDITION).cost
            )
            assert (
                solve_both_knear(inst, k, Mode.EDITING).cost
                <= solve_both_knear(inst, k, Mode.ADDITION).cost
            )


def test_reconstruct_rejects_tampered_table():
    from chainrank.dp_engine import CorruptTableError, _frontier_table, reconstruct

    inst = make_instance(2, 2, [(1, 1), (1, 2)], (1, 2), (1, 2))
    table, terminal = _frontier_table(inst, 1, 0, Mode.EDITING)
    for state in table.layers[0]:
        table.layers[0][state] = [c + 1 for c in table.layers[0][state]]
    with pytest.raises(CorruptTableError):
        reconstruct(table, terminal, inst)


def test_covering_edge_closure_matches_knear_orders():
    """p reaches q along covering edges iff some k-near question order
    passes through p's frontier state and later through q's."""
    from chainrank import enumerate_knear_permutations
    from chainrank.dp_engine import _covering_edges, _question_states, _window_families

    for m in range(1, 8):
        for k in range(0, 4):
            qstates = _question_states(m, k, _window_families(k, m))
            index = {st[:3]: qi for qi, st in enumerate(qstates)}
            brute = set()
            for order in enumerate_knear_permutations(tuple(range(1, m + 1)), k):
                path = [0]
                for j in range(1, m + 1):
                    window = tuple(sorted(x for x in order[: j - 1] if x > j - k - 1))
                    path.append(index[(j, order[j - 1], window)])
                brute.update(itertools.combinations(path, 2))

            covered_by = [[] for _ in qstates]
            for q, p in _covering_edges(qstates):
                covered_by[q].append(p)
            closure = set()
            for q in range(len(qstates)):
                stack = list(covered_by[q])
                while stack:
                    p = stack.pop()
                    if (p, q) not in closure:
                        closure.add((p, q))
                        stack.extend(covered_by[p])
            assert closure == brute, (m, k)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9), k=st.integers(0, 3))
def test_every_solution_verifies(seed, k):
    rng = random.Random(seed)
    inst = random_instance(rng, max_side=5)
    runs = [
        (solve_constrained_knear(inst, k, Mode.EDITING), Variant.CONSTRAINED_KNEAR, Mode.EDITING),
        (solve_constrained_knear(inst, k, Mode.ADDITION), Variant.CONSTRAINED_KNEAR, Mode.ADDITION),
        (solve_unconstrained_knear_addition(inst, k), Variant.UNCONSTRAINED_KNEAR, Mode.ADDITION),
        (solve_both_knear(inst, k, Mode.EDITING), Variant.BOTH_KNEAR, Mode.EDITING),
        (solve_both_knear(inst, k, Mode.ADDITION), Variant.BOTH_KNEAR, Mode.ADDITION),
    ]
    for sol, variant, mode in runs:
        report = verify_solution(inst, ProblemSpec(variant, mode, k), sol)
        assert report.ok, [c.name for c in report.failed()]
