from __future__ import annotations

import gc
import itertools
import random
import tracemalloc
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank import (
    InstanceTooLargeError,
    InvalidInstanceError,
    Mode,
    ProblemSpec,
    Side,
    Variant,
    apply_edits,
    count_knear_permutations,
    enumerate_knear_permutations,
    enumerate_window_sets,
    inner_fixed_orders_cost,
    make_instance,
    oracle_solve,
    solve_unconstrained_knear_editing_exact,
    verify_solution,
)
from chainrank.exact_oracle import knear_automaton
from conftest import adjacency, random_instance


def fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


class TestEnumeration:
    def test_k0_yields_identity_only(self):
        assert list(enumerate_knear_permutations((1, 2, 3), 0)) == [(1, 2, 3)]

    def test_k1_of_three(self):
        got = list(enumerate_knear_permutations((1, 2, 3), 1))
        assert set(got) == {(1, 2, 3), (2, 1, 3), (1, 3, 2)}
        assert got == sorted(got)

    def test_bound_beyond_size_gives_all(self):
        assert set(enumerate_knear_permutations((1, 2), 2)) == {(1, 2), (2, 1)}

    def test_matches_filtering_all_permutations(self):
        rng = random.Random(31)
        for n in range(1, 6):
            base = tuple(rng.sample(range(1, n + 1), n))
            pos = {e: p for p, e in enumerate(base, start=1)}
            for k in range(0, n + 1):
                expected = sorted(
                    pi
                    for pi in itertools.permutations(range(1, n + 1))
                    if all(abs(p - pos[e]) <= k for p, e in enumerate(pi, start=1))
                )
                assert list(enumerate_knear_permutations(base, k)) == expected

    def test_matches_filtering_up_to_eight(self):
        rng = random.Random(32)
        for n in range(0, 9):
            base = tuple(rng.sample(range(10, 30), n))
            pos = {e: p for p, e in enumerate(base, start=1)}
            perms = list(itertools.permutations(sorted(base)))
            for k in range(0, 4):
                expected = [
                    pi for pi in perms if all(abs(p - pos[e]) <= k for p, e in enumerate(pi, start=1))
                ]
                assert list(enumerate_knear_permutations(base, k)) == expected, (n, k)

    def test_deep_base_needs_no_recursion(self):
        """The stack is explicit: 1100 positions, past the recursion limit."""
        base = tuple(range(1, 1101))
        stream = enumerate_knear_permutations(base, 1)
        assert next(stream) == base
        assert next(stream) == base[:1098] + (base[1099], base[1098])

    def test_one_near_counts_are_fibonacci(self):
        for n in range(1, 13):
            stream = sum(1 for _ in enumerate_knear_permutations(tuple(range(1, n + 1)), 1))
            assert stream == fib(n + 1)
            assert count_knear_permutations(n, 1) == stream

    def test_count_matches_stream(self):
        for n in range(1, 7):
            for k in range(0, n + 1):
                stream = sum(1 for _ in enumerate_knear_permutations(tuple(range(1, n + 1)), k))
                assert count_knear_permutations(n, k) == stream
        assert count_knear_permutations(8, 7) == factorial(8)


def _knear_candidates_reference(base, k, p, used):
    """The entities that may go at position p of a k-near order of ``base``,
    ascending, where ``used[e]`` marks the entities already placed. The
    deadline rule: the entity whose last admissible position is p goes
    there. Every entity due earlier was placed by then, so no branch
    dead-ends."""
    if p > k and not used[base[p - k - 1]]:
        return [base[p - k - 1]]
    return sorted(e for e in base[max(0, p - 1 - k) : p + k] if not used[e])


def _enumerate_knear_reference(base, k):
    """The enumeration before it walked the automaton: backtracking over
    ``_knear_candidates_reference`` with an explicit stack."""
    base = tuple(base)
    n = len(base)
    if k == 0 or n == 0:
        yield base
        return
    used = [False] * (max(base) + 1)
    out = []
    stack = [iter(_knear_candidates_reference(base, k, 1, used))]
    while stack:
        if len(out) == len(stack):
            used[out.pop()] = False
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            continue
        used[e] = True
        out.append(e)
        if len(out) == n:
            yield tuple(out)
        else:
            stack.append(iter(_knear_candidates_reference(base, k, len(out) + 1, used)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_enumeration_matches_candidate_reference(data):
    """The automaton walk emits the deadline-rule reference's orders, in
    the same sequence, for bounds up to past the base's size."""
    n = data.draw(st.integers(0, 8))
    base = tuple(data.draw(st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True)))
    k = data.draw(st.integers(0, n + 1))
    assert list(enumerate_knear_permutations(base, k)) == list(_enumerate_knear_reference(base, k))


class TestNegativeK:
    """Every public k-near function refuses a negative bound, with the
    message ``ProblemSpec.validate_for`` uses."""

    def test_enumeration(self):
        with pytest.raises(InvalidInstanceError, match="k must be non-negative"):
            list(enumerate_knear_permutations((1, 2, 3, 4), -1))

    def test_automaton(self):
        with pytest.raises(InvalidInstanceError, match="k must be non-negative"):
            knear_automaton(4, -1)

    def test_count(self):
        with pytest.raises(InvalidInstanceError, match="k must be non-negative"):
            count_knear_permutations(4, -1)

    def test_window_sets_stay_empty(self):
        assert enumerate_window_sets(2, 1, -1, 4) == []


def test_large_k_shapes_are_not_kept_after_the_call():
    """Shapes above the shared bound live for one call: after the automaton
    at n = 15, k = 7 (12.5 MB of shapes) is dropped, under 5 MB stays."""
    gc.collect()
    tracemalloc.start()
    try:
        auto = knear_automaton(15, 7)
        assert len(auto) == 15
        del auto
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 5 * 2**20, f"{held / 2**20:.2f} MB"


class TestInnerFixedOrders:
    def test_ideal_true_orders_cost_nothing(self, fig1):
        cost, _, edits = inner_fixed_orders_cost(fig1, (1, 2, 3), (1, 2, 3, 4, 5))
        assert cost == 0 and edits.size == 0

    def test_monotone_thresholds_force_two_edits(self):
        inst = make_instance(2, 2, [(1, 1), (1, 2)])
        cost, _, edits = inner_fixed_orders_cost(inst, (1, 2), (1, 2))
        assert cost == 2 == edits.size

    def test_single_student_exact(self):
        inst = make_instance(1, 2, [(1, 2)])
        cost, _, _ = inner_fixed_orders_cost(inst, (1,), (1, 2))
        assert cost == 1

    def test_free_equals_best_exact_over_all_question_orders(self):
        rng = random.Random(32)
        for _ in range(30):
            inst = random_instance(rng, max_side=4, with_orders=False)
            order = tuple(rng.sample(range(1, inst.num_students + 1), inst.num_students))
            for mode in (Mode.EDITING, Mode.ADDITION):
                free_cost, _, _ = inner_fixed_orders_cost(inst, order, None, mode)
                best = min(
                    inner_fixed_orders_cost(inst, order, beta, mode)[0]
                    for beta in itertools.permutations(range(1, inst.num_questions + 1))
                )
                assert free_cost == best

    def test_witness_ties_go_to_smallest_thresholds_and_suffixes(self):
        """Brute force over every threshold vector and suffix size: among
        optimal ones the witness takes, per question, the smallest suffix and,
        per student from the last, the smallest threshold."""
        rng = random.Random(38)
        for _ in range(60):
            inst = random_instance(rng, max_side=4, with_orders=False)
            n, m = inst.num_students, inst.num_questions
            sorder = tuple(rng.sample(range(1, n + 1), n))
            qorder = tuple(rng.sample(range(1, m + 1), m))
            for mode in (Mode.EDITING, Mode.ADDITION):

                def edits(nbh, target):
                    if mode == Mode.ADDITION and not nbh <= target:
                        return float("inf")
                    return len(nbh ^ target)

                adj = adjacency(inst)
                _, _, got = inner_fixed_orders_cost(inst, sorder, qorder, mode)
                edited = apply_edits(inst, got)
                rows = [set(adjacency(edited)[s - 1]) for s in sorder]
                thresholds = tuple(len(row) for row in rows)
                assert all(row == set(qorder[:t]) for row, t in zip(rows, thresholds))
                best = min(
                    itertools.combinations_with_replacement(range(m + 1), n),
                    key=lambda ts: (
                        sum(edits(set(adj[s - 1]), set(qorder[:t])) for s, t in zip(sorder, ts)),
                        ts[::-1],
                    ),
                )
                assert thresholds == best

                _, qfree, got = inner_fixed_orders_cost(inst, sorder, None, mode)
                edited = apply_edits(inst, got)
                edited_adj = adjacency(edited)
                sizes = {}
                for q in range(1, m + 1):
                    nbh = {s for s in sorder if q in adj[s - 1]}
                    target = {s for s in sorder if q in edited_adj[s - 1]}
                    sizes[q] = len(target)
                    assert target == set(sorder[n - sizes[q] :])
                    assert sizes[q] == min(
                        range(n + 1), key=lambda z: (edits(nbh, set(sorder[n - z :])), z)
                    )
                assert qfree == tuple(sorted(sizes, key=lambda q: (-sizes[q], q)))


class TestOracleSolve:
    def test_k0_equals_exact_inner(self):
        rng = random.Random(33)
        for _ in range(30):
            inst = random_instance(rng, max_side=4)
            spec = ProblemSpec(Variant.BOTH_KNEAR, Mode.EDITING, 0)
            exact, _, _ = inner_fixed_orders_cost(inst, inst.base_student_order, inst.base_question_order)
            assert oracle_solve(inst, spec).cost == exact

    def test_fixed_both_matches_exact_inner(self):
        rng = random.Random(37)
        for _ in range(20):
            inst = random_instance(rng, max_side=4)
            for mode in (Mode.EDITING, Mode.ADDITION):
                spec = ProblemSpec(Variant.FIXED_BOTH_CHECK, mode)
                sol = oracle_solve(inst, spec)
                exact, _, _ = inner_fixed_orders_cost(
                    inst, inst.base_student_order, inst.base_question_order, mode
                )
                assert sol.cost == exact
                assert sol.student_order == inst.base_student_order
                assert sol.question_order == inst.base_question_order
                assert verify_solution(inst, spec, sol).ok

    def test_ideal_instance_is_free_for_every_variant(self, fig1):
        inst = make_instance(
            3, 5, list(fig1.edges()), base_student_order=(1, 2, 3),
            base_question_order=(1, 2, 3, 4, 5),
        )
        for variant in (
            Variant.IMO_RECOGNIZE,
            Variant.FIXED_BOTH_CHECK,
            Variant.CONSTRAINED_KNEAR,
            Variant.UNCONSTRAINED_KNEAR,
            Variant.BOTH_KNEAR,
        ):
            assert oracle_solve(inst, ProblemSpec(variant, Mode.EDITING, 1)).cost == 0

    def test_cap_guard(self):
        inst = make_instance(2, 2, [(1, 1)], (1, 2), (1, 2))
        with pytest.raises(InstanceTooLargeError):
            oracle_solve(inst, ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, 2), cap=1)

    def test_fixed_students_enumerates_every_question_order(self):
        inst = make_instance(2, 4, [(1, 2), (2, 1), (2, 4)], (2, 1), (1, 2, 3, 4))
        spec = ProblemSpec(Variant.FIXED_ONE_SIDE, Mode.EDITING, 0, Side.STUDENTS_FIXED)
        with pytest.raises(InstanceTooLargeError):
            oracle_solve(inst, spec, cap=factorial(4) - 1)
        sol = oracle_solve(inst, spec, cap=factorial(4))
        assert sol.student_order == (2, 1)
        assert verify_solution(inst, spec, sol).ok

    def test_transpose_symmetry_for_both_variant(self):
        rng = random.Random(34)
        for _ in range(60):
            inst = random_instance(rng, max_side=4)
            transposed = make_instance(
                inst.num_questions,
                inst.num_students,
                [(q, s) for s, q in inst.edges()],
                tuple(reversed(inst.base_question_order)),
                tuple(reversed(inst.base_student_order)),
            )
            k = rng.choice([0, 1, 2])
            for mode in (Mode.EDITING, Mode.ADDITION):
                spec = ProblemSpec(Variant.BOTH_KNEAR, mode, k)
                assert oracle_solve(inst, spec).cost == oracle_solve(transposed, spec).cost

    def test_outputs_verify(self):
        rng = random.Random(35)
        for _ in range(40):
            inst = random_instance(rng, max_side=4)
            k = rng.choice([0, 1, 2])
            for variant in (Variant.CONSTRAINED_KNEAR, Variant.UNCONSTRAINED_KNEAR, Variant.BOTH_KNEAR):
                for mode in (Mode.EDITING, Mode.ADDITION):
                    spec = ProblemSpec(variant, mode, k)
                    sol = oracle_solve(inst, spec)
                    report = verify_solution(inst, spec, sol)
                    assert report.ok, (spec, [c.name for c in report.failed()])


class TestUnconstrainedEditingExact:
    def test_ideal_is_free(self, fig1):
        inst = make_instance(3, 5, list(fig1.edges()), base_student_order=(1, 2, 3))
        sol = solve_unconstrained_knear_editing_exact(inst, 1)
        assert sol.cost == 0
        assert sol.solver_tag == "exact.unconstrained_knear_editing"

    def test_matches_generic_oracle(self):
        rng = random.Random(36)
        for _ in range(30):
            inst = random_instance(rng, max_side=5)
            k = rng.choice([0, 1, 2])
            spec = ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, k)
            assert solve_unconstrained_knear_editing_exact(inst, k).cost == oracle_solve(inst, spec).cost

    def test_cap_counts_the_k_near_orders(self):
        edges = [(1, 1), (2, 2), (3, 1), (4, 3), (5, 2), (5, 3)]
        inst = make_instance(5, 3, edges, base_student_order=(2, 4, 1, 5, 3))
        count = count_knear_permutations(5, 2)
        with pytest.raises(InstanceTooLargeError, match=f"{count} orderings"):
            solve_unconstrained_knear_editing_exact(inst, 2, cap=count - 1)
        spec = ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, 2)
        assert solve_unconstrained_knear_editing_exact(inst, 2, cap=count).cost == oracle_solve(inst, spec).cost

    def test_deep_ideal_instance_needs_no_recursion(self):
        # Student s answers the first s // 100 questions: ideal in the base
        # order 1..n, and 1100 positions deep, past the recursion limit.
        n, m = 1100, 11
        edges = [(s, q) for s in range(1, n + 1) for q in range(1, s // 100 + 1)]
        inst = make_instance(n, m, edges, base_student_order=tuple(range(1, n + 1)))
        sol = solve_unconstrained_knear_editing_exact(inst, 1, cap=10**300)
        assert sol.cost == 0
        assert sol.student_order == inst.base_student_order


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), k=st.integers(0, 3), wide=st.booleans())
def test_branch_and_bound_equals_oracle(seed, k, wide):
    """Same cost, orders and edits as the oracle; with ``wide``, k >= n - 1."""
    inst = random_instance(random.Random(seed), max_side=8)
    if wide:
        k += inst.num_students - 1
    got = solve_unconstrained_knear_editing_exact(inst, k)
    want = oracle_solve(inst, ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, k))
    assert got.solver_tag == "exact.unconstrained_knear_editing"
    assert (got.cost, got.student_order, got.question_order, got.edits) == (
        want.cost,
        want.student_order,
        want.question_order,
        want.edits,
    )
