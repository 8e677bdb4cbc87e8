from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from array import array
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank import (
    ChainRankError,
    InstanceTooLargeError,
    MissingBaseOrderError,
    Mode,
    ProblemSpec,
    Side,
    Variant,
    apply_edits,
    count_knear_permutations,
    derive_question_order,
    enumerate_knear_permutations,
    enumerate_window_sets,
    make_instance,
    oracle_solve,
    solve,
    solve_both_knear,
    solve_constrained_knear,
    solve_fixed_side,
    solve_unconstrained_knear_addition,
    solve_unconstrained_knear_editing_exact,
    verify_solution,
)
from chainrank.exact_oracle import _knear_shape, knear_automaton
from chainrank.instance_gen import GenConfig, gen_ideal, perturb_edges, perturb_order
from conftest import DP_VARIANT_MODES, figure_one, random_instance


def fig1_with_orders():
    inst = figure_one()
    return make_instance(
        3, 5, list(inst.edges()), base_student_order=(1, 2, 3), base_question_order=(1, 2, 3, 4, 5)
    )


def _window_sets_bruteforce(i: int, occupant: int, k: int, n_side: int) -> set[tuple[int, ...]]:
    """Reference for enumerate_window_sets: filter all k-near permutations."""
    forced_end = max(0, i - k - 1)
    found: set[tuple[int, ...]] = set()
    for pi in enumerate_knear_permutations(tuple(range(1, n_side + 1)), k):
        if pi[i - 1] != occupant:
            continue
        found.add(tuple(sorted(e for e in pi[: i - 1] if e > forced_end)))
    return found


def _window_realizable_reference(combo, pool, lo, i, k) -> bool:
    """Can some permutation with displacement <= k put the labels below lo
    plus ``combo`` before position i and the occupant at i, where ``pool``
    is the window [lo, i+k-1] minus the occupant? Sorted assignment is
    optimal for interval constraints, so only the window labels, sorted,
    need a check against positions lo..i-1 and i+1.. in turn."""
    for pos, e in enumerate(combo, start=lo):
        if abs(e - pos) > k:
            return False
    pos = i + 1
    for e in pool:
        if e in combo:
            continue
        if abs(e - pos) > k:
            return False
        pos += 1
    return True


def _window_sets_reference(i: int, occupant: int, k: int, n: int) -> list[tuple[int, ...]]:
    """Reference for the automaton's windows: the combinations of the window
    that pass the sorted-assignment check, in combinations order."""
    if not max(1, i - k) <= occupant <= min(n, i + k):
        return []
    lo = max(1, i - k)
    pool = [x for x in range(lo, min(n, i + k - 1) + 1) if x != occupant]
    if i - lo > len(pool):
        return []
    return [
        combo
        for combo in itertools.combinations(pool, i - lo)
        if _window_realizable_reference(combo, pool, lo, i, k)
    ]


def _parent_candidates_reference(i: int, window: tuple[int, ...], k: int) -> list[tuple[int, tuple[int, ...]]]:
    """Reference for the automaton's parents: the (occupant, window) pairs
    at position i-1 that lead to ``window`` at i, sorted. The previous
    occupant comes from the position-i prefix; removing it and re-exposing
    label i-k-1 gives the parent's window."""
    boundary = i - k - 1
    members = list(window) + ([boundary] if boundary >= 1 else [])
    return sorted(
        (u_prev, tuple(sorted(x for x in members if x != u_prev)))
        for u_prev in members
        if abs(u_prev - (i - 1)) <= k
    )


def _count_reference(n: int, k: int) -> int:
    """Reference for the path count: the position sweep over bitmasks of
    used labels, mask bit j for label window_low + j."""
    states = {0: 1}
    for p in range(1, n + 1):
        wlo = max(1, p - k)
        shift = max(1, p + 1 - k) - wlo
        new: dict[int, int] = {}
        for mask, cnt in states.items():
            for e in range(wlo, min(n, p + k) + 1):
                bit = 1 << (e - wlo)
                if mask & bit:
                    continue
                nm = mask | bit
                if shift:
                    if not nm & 1:
                        continue  # label p-k missed its last slot
                    nm >>= shift
                new[nm] = new.get(nm, 0) + cnt
        states = new
    return sum(states.values())


def _absolute_states(pos) -> list[tuple[int, tuple[int, ...]]]:
    return [(pos.lo + e, tuple(pos.lo + x for x in pos.windows[w])) for e, w in pos.states]


class TestAutomaton:
    """``knear_automaton`` against the enumeration it replaced, kept above
    as references, for n <= 14 and k <= 4, k >= n-1 included."""

    SIZES = [(n, k) for n in range(1, 15) for k in range(0, 5)]

    def test_states_match_the_reference_windows(self):
        for n, k in self.SIZES:
            for i, pos in enumerate(knear_automaton(n, k), start=1):
                states = _absolute_states(pos)
                assert states == sorted(states)
                for u in range(1, n + 1):
                    want = _window_sets_reference(i, u, k, n)
                    assert [w for v, w in states if v == u] == want, (n, k, i, u)
                    assert enumerate_window_sets(i, u, k, n) == want, (n, k, i, u)
                assert len(pos.parents) == len(pos.windows) == len(set(pos.windows))

    def test_parents_match_the_reference_candidates(self):
        for n, k in self.SIZES:
            auto = knear_automaton(n, k)
            assert auto[0].parents == ((0,),)
            for i in range(2, n + 1):
                pos, prev = auto[i - 1], auto[i - 2]
                # The parents index the windows that position i-1's shape
                # builds for its successor, so those must be position i's.
                assert _knear_shape(k, min(i - 2, k), min(n - i + 1, k))[2] == pos.windows
                index = {st: s for s, st in enumerate(_absolute_states(prev))}
                for (_u, window), (_e, w) in zip(_absolute_states(pos), pos.states):
                    want = [index[c] for c in _parent_candidates_reference(i, window, k) if c in index]
                    assert list(pos.parents[w]) == want, (n, k, i, window)

    def test_path_counts_match_the_mask_sweep(self):
        for n, k in self.SIZES:
            counts = [1]
            for pos in knear_automaton(n, k):
                counts = [sum(counts[p] for p in pos.parents[w]) for _e, w in pos.states]
            assert sum(counts) == _count_reference(n, k), (n, k)
            assert count_knear_permutations(n, k) == _count_reference(n, k), (n, k)

    def test_window_view_cost_does_not_grow_with_n(self):
        """A view builds the shape of one position, not the automaton."""
        _knear_shape.cache_clear()
        start = time.perf_counter()
        windows = enumerate_window_sets(50_000, 50_000, 2, 100_000)
        assert time.perf_counter() - start < 0.05
        assert windows == _window_sets_reference(50_000, 50_000, 2, 100_000)


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

    def test_question_order_is_derived_from_the_edited_instance(self):
        """The reconstruction reads the question order off its bitsets; it
        must be what ``derive_question_order`` makes of the solution."""
        rng = random.Random(41)
        for _ in range(300):
            inst = random_instance(rng, max_side=7)
            sol = solve_unconstrained_knear_addition(inst, rng.randint(0, inst.num_students))
            edited = apply_edits(inst, sol.edits)
            assert sol.question_order == derive_question_order(edited, sol.student_order)


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
            for variant, mode in DP_VARIANT_MODES:
                spec = ProblemSpec(variant, mode, k)
                sol = solve(inst, spec)
                assert sol.cost == oracle_solve(inst, spec).cost, (spec, inst)
                assert verify_solution(inst, spec, sol).ok

    def test_cost_monotone_in_k(self):
        rng = random.Random(24)
        for _ in range(40):
            inst = random_instance(rng, max_side=5)
            for variant, mode in DP_VARIANT_MODES:
                costs = [solve(inst, ProblemSpec(variant, mode, k)).cost for k in (0, 1, 2)]
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
    from chainrank.dp_engine import CorruptTableError, _frontier_table, _reconstruct_frontier

    inst = make_instance(2, 2, [(1, 1), (1, 2)], (1, 2), (1, 2))
    layers, *shared = _frontier_table(inst, 1, 0, Mode.EDITING)
    for row in layers[0]:
        assert isinstance(row, array)
        for qi in range(len(row)):
            row[qi] += 1
    with pytest.raises(CorruptTableError):
        _reconstruct_frontier(inst, 1, 0, Mode.EDITING, layers, *shared)


@pytest.mark.parametrize("mode", [Mode.EDITING, Mode.ADDITION])
@pytest.mark.parametrize("ks, kq", [(1, 0), (2, 0), (1, 1), (2, 2)])
def test_frontier_rows_are_double_arrays(mode, ks, kq):
    from chainrank.dp_engine import _frontier_table

    rng = random.Random(29)
    for _ in range(10):
        inst = random_instance(rng, max_side=6)
        n, m = inst.num_students, inst.num_questions
        layers, auto, _nb, qstates, _edges = _frontier_table(inst, min(ks, n - 1), min(kq, m - 1), mode)
        assert len(layers) == n
        for layer, pos in zip(layers, auto):
            assert len(layer) == len(pos.states)
            for row in layer:
                assert isinstance(row, array) and row.typecode == "d"
                assert len(row) == len(qstates)


def _noisy_instance(n: int, k: int, seed: int):
    cfg = GenConfig(n, n, seed=seed, flip_count=n * n // 10, k_perturb=k)
    planted, true_s, true_q = gen_ideal(cfg)
    noisy = perturb_edges(planted, cfg)
    return make_instance(n, n, list(noisy.edges()), perturb_order(true_s, k, seed), true_q)


def test_frontier_table_peak_memory():
    """Finished rows are 8 bytes a cell. The 120x120 k=2 constrained table
    peaks at 1.9 MB; the bound leaves 1.6x headroom, and the same table with
    rows of Python ints (6.4 MB) fails it."""
    from chainrank.dp_engine import _frontier_table

    inst = _noisy_instance(120, 2, 5)
    tracemalloc.start()
    try:
        table = _frontier_table(inst, 2, 0, Mode.EDITING)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, table[0])) > 1000
    assert peak < 3 * 2**20, peak


class TestTableSizeGuard:
    @pytest.mark.parametrize("k", [39, 40])
    @pytest.mark.parametrize(
        "solver",
        [
            lambda inst, k: solve_both_knear(inst, k, Mode.EDITING),
            lambda inst, k: solve_both_knear(inst, k, Mode.ADDITION),
            solve_unconstrained_knear_addition,
        ],
    )
    def test_degenerate_k_is_refused_fast(self, solver, k):
        inst = _noisy_instance(40, 2, 7)
        start = time.perf_counter()
        with pytest.raises(InstanceTooLargeError, match="GiB"):
            solver(inst, k)
        assert time.perf_counter() - start < 1.0

    def test_state_bound_covers_the_families(self):
        from chainrank.dp_engine import _window_state_bound

        for n in range(1, 12):
            for k in range(0, n + 1):
                states = sum(len(pos.states) for pos in knear_automaton(n, k))
                assert states <= _window_state_bound(k, n, 10**9), (n, k)

    def test_benchmark_and_grid_sizes_fit(self):
        """Every benchmark item and every point of the sizes the solvers are
        measured on, up to constrained n=1000 at k=3 and both-near n=80 at
        k=2, passes the guard. (n, ks, m, kq); m = 0 is unconstrained
        addition."""
        from chainrank.dp_engine import _check_table_size

        items = [
            (600, 1, 600, 0), (400, 2, 400, 0), (300, 2, 300, 0), (400, 3, 0, 0), (400, 2, 0, 0),
            (80, 1, 80, 1), (60, 1, 60, 1), (30, 2, 30, 2), (40, 2, 40, 2), (60, 2, 0, 0),
        ]
        items += [(n, k, n, 0) for n in (100, 200, 400, 600, 800, 1000) for k in (1, 2, 3)]
        items += [(n, k, 0, 0) for n in (100, 200, 400, 600, 800, 1000) for k in (1, 2, 3)]
        items += [(n, k, n, k) for n in (20, 40, 60, 80) for k in (1, 2)]
        for item in items:
            _check_table_size(*item)


def test_covering_edge_closure_matches_knear_orders():
    """p reaches q along covering edges iff some k-near question order
    passes through p's frontier state and later through q's."""
    from chainrank.dp_engine import _question_states

    for m in range(1, 8):
        for k in range(0, 4):
            qstates, edges = _question_states(m, k)
            index = {st[:3]: qi for qi, st in enumerate(qstates)}
            brute = set()
            for order in enumerate_knear_permutations(tuple(range(1, m + 1)), k):
                path = [0]
                for j in range(1, m + 1):
                    prefix = sum(1 << (x - 1) for x in order[: j - 1])
                    path.append(index[(j, order[j - 1], prefix)])
                brute.update(itertools.combinations(path, 2))

            covered_by = [[] for _ in qstates]
            for q, p in edges:
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
    for variant, mode in DP_VARIANT_MODES:
        spec = ProblemSpec(variant, mode, k)
        report = verify_solution(inst, spec, solve(inst, spec))
        assert report.ok, [c.name for c in report.failed()]


class TestSolveDispatch:
    def test_matches_direct_solvers(self):
        rng = random.Random(28)
        for _ in range(30):
            inst = random_instance(rng, max_side=5)
            k = rng.choice([0, 1, 2])
            cases = [
                (Variant.CONSTRAINED_KNEAR, Mode.EDITING, solve_constrained_knear(inst, k, Mode.EDITING)),
                (Variant.CONSTRAINED_KNEAR, Mode.ADDITION, solve_constrained_knear(inst, k, Mode.ADDITION)),
                (Variant.BOTH_KNEAR, Mode.EDITING, solve_both_knear(inst, k, Mode.EDITING)),
                (Variant.BOTH_KNEAR, Mode.ADDITION, solve_both_knear(inst, k, Mode.ADDITION)),
                (Variant.UNCONSTRAINED_KNEAR, Mode.ADDITION, solve_unconstrained_knear_addition(inst, k)),
                (Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, solve_unconstrained_knear_editing_exact(inst, k)),
            ]
            for variant, mode, sol in cases:
                assert solve(inst, ProblemSpec(variant, mode, k)) == sol, (variant, mode)
            for side, order in (
                (Side.STUDENTS_FIXED, inst.base_student_order),
                (Side.QUESTIONS_FIXED, inst.base_question_order),
            ):
                for mode in (Mode.EDITING, Mode.ADDITION):
                    spec = ProblemSpec(Variant.FIXED_ONE_SIDE, mode, 0, side)
                    assert solve(inst, spec) == solve_fixed_side(inst, side, order, mode), spec

    def test_validates_once(self, monkeypatch):
        """``solve`` and each public solver of the module validate the spec
        exactly once, whichever engine runs (k = 2 on three students sends
        constrained k-near to the fixed-side solver)."""
        calls = []
        validate = ProblemSpec.validate_for

        def counting(spec, inst):
            calls.append(spec)
            validate(spec, inst)

        monkeypatch.setattr(ProblemSpec, "validate_for", counting)
        inst = fig1_with_orders()
        cases = [
            *(partial(solve, inst, ProblemSpec(v, mode, k)) for v, mode in DP_VARIANT_MODES for k in (1, 2)),
            partial(solve, inst, ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, 1)),
            *(partial(solve, inst, ProblemSpec(Variant.FIXED_ONE_SIDE, mode, 0, side)) for side in Side for mode in Mode),
            *(partial(solve_constrained_knear, inst, k, mode) for k in (1, 2) for mode in Mode),
            *(partial(solve_both_knear, inst, 1, mode) for mode in Mode),
            partial(solve_unconstrained_knear_addition, inst, 1),
        ]
        for case in cases:
            calls.clear()
            case()
            assert len(calls) == 1, case

    @pytest.mark.parametrize("variant", [Variant.IMO_RECOGNIZE, Variant.FIXED_BOTH_CHECK])
    def test_non_optimization_variants_raise(self, variant):
        with pytest.raises(ChainRankError):
            solve(fig1_with_orders(), ProblemSpec(variant))

    @pytest.mark.parametrize(
        "spec",
        [
            ProblemSpec(Variant.CONSTRAINED_KNEAR, Mode.EDITING, 1),
            ProblemSpec(Variant.BOTH_KNEAR, Mode.ADDITION, 1),
            ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.ADDITION, 1),
            ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, 1),
            ProblemSpec(Variant.FIXED_ONE_SIDE, Mode.EDITING, 0, Side.STUDENTS_FIXED),
            ProblemSpec(Variant.FIXED_ONE_SIDE, Mode.EDITING, 0, Side.QUESTIONS_FIXED),
        ],
    )
    def test_missing_base_order_raises(self, spec):
        with pytest.raises(MissingBaseOrderError):
            solve(figure_one(), spec)
