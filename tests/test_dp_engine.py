from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from array import array
from dataclasses import replace
from functools import partial
from operator import add, itemgetter, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank import (
    ChainRankError,
    Instance,
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
from chainrank import dp_engine, ideal
from chainrank.dp_engine import CorruptTableError
from chainrank.exact_oracle import _knear_shape, _shared_shapes, knear_automaton
from chainrank.instance_gen import GenConfig, gen_ideal, perturb_edges, perturb_order
from conftest import (
    CELL_INF,
    DP_VARIANT_MODES,
    adjacency,
    cells,
    cost_cells_reference,
    fields,
    figure_one,
    layer_cells,
    random_instance,
    with_cell,
)


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
        _shared_shapes.clear()
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
    adj = adjacency(inst)
    best = None
    for pi in enumerate_knear_permutations(inst.base_student_order, k):
        qpos = {q: p for p, q in enumerate(inst.base_question_order, start=1)}
        for frontiers in itertools.product(range(m + 1), repeat=n):
            if any(a > b for a, b in zip(frontiers, frontiers[1:])):
                continue
            total = 0
            ok = True
            for s, v in zip(pi, frontiers):
                positions = {qpos[q] for q in adj[s - 1]}
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
    nq = len(shared[2])
    rows, offs = layers[0]
    for sid, row in enumerate(rows):
        assert isinstance(row, int)
        off = offs[sid]
        for qi in range(nq):
            row, off = with_cell(row, off, nq, qi, cells(row, off, nq)[qi] + 1)
        rows[sid], offs[sid] = row, off
    with pytest.raises(CorruptTableError):
        _reconstruct_frontier(inst, 0, Mode.EDITING, layers, *shared)


def test_reconstruct_rejects_finite_cell_in_infinite_prefix():
    """A finite addition cell in a last-layer student's infinite prefix,
    where the student would lose a question, is a corrupt table: the
    reconstruction reads that cell's cost as infinite, below the offset of
    the student's cost row, not by a negative shift into it."""
    from chainrank.dp_engine import CorruptTableError, _frontier_table, _reconstruct_frontier

    inst = make_instance(2, 3, [(1, 3), (2, 2), (2, 3)], (1, 2), (1, 2, 3))
    _layers, auto, (cost_rows, cost_offs), qstates, _edges = _frontier_table(inst, 1, 0, Mode.ADDITION)
    nq = len(qstates)
    last = auto[-1]
    prefix = [
        (sid, qi)
        for sid, (e, _w) in enumerate(last.states)
        for qi, _c in enumerate(
            itertools.takewhile(lambda c: c == float("inf"), cells(cost_rows[last.lo + e], cost_offs[last.lo + e], nq))
        )
    ]
    assert len(prefix) == 6  # both students' hardest question is 3: three states each
    assert all(qi < cost_offs[last.lo + last.states[sid][0]] for sid, qi in prefix)
    for sid, qi in prefix:
        layers, *shared = _frontier_table(inst, 1, 0, Mode.ADDITION)
        rows, offs = layers[-1]
        assert cells(rows[sid], offs[sid], nq)[qi] == float("inf")
        rows[sid], offs[sid] = with_cell(rows[sid], offs[sid], nq, qi, 0)
        with pytest.raises(CorruptTableError):
            _reconstruct_frontier(inst, 0, Mode.ADDITION, layers, *shared)


def _reaching_chain(layers, auto, costs, edges, nq):
    """The frontier walk-back's chain as it was found with a depth-first
    search over the covering edges: the terminal (sid, qi) and, per step
    from position n down, (i, qi, p, qp, target). The banded rows are
    read cell by cell, with ``cells``."""
    inf = float("inf")
    layers = [layer_cells(layer, nq) for layer in layers]
    cost_rows, cost_offs = costs
    covered_by = [[] for _ in range(nq)]
    for q, p in edges:
        covered_by[q].append(p)

    def reaching(qi):
        seen = {qi}
        stack = [qi]
        while stack:
            for p in covered_by[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return sorted(seen)

    terminal_cost, terminal = inf, None
    for sid, row in enumerate(layers[-1]):
        for qi, val in enumerate(row):
            if val < terminal_cost:
                terminal_cost, terminal = val, (sid, qi)
    if terminal is None:
        raise CorruptTableError("no feasible terminal state")
    sid, qi = terminal
    value = terminal_cost
    steps = []
    for i in range(len(layers), 1, -1):
        pos = auto[i - 1]
        u = pos.lo + pos.states[sid][0]
        target = value - cells(cost_rows[u], cost_offs[u], nq)[qi]
        found = next(
            ((p, qp) for p in pos.parents[pos.states[sid][1]] for qp in reaching(qi) if layers[i - 2][p][qp] == target),
            None,
        )
        if found is None:
            raise CorruptTableError(f"broken parent chain at position {i}")
        steps.append((i, qi, *found, target))
        sid, qi = found
        value = target
    return terminal, terminal_cost, steps


def _reaching_walk_reference(inst, kq, mode, layers, auto, costs, qstates, edges):
    """``_reconstruct_frontier`` as it was when each step rebuilt the
    states reaching the current one by a depth-first search, kept as the
    reference for the sweep over the covering edges."""
    m = inst.num_questions
    alpha, beta0 = inst.base_student_order, inst.base_question_order
    terminal, terminal_cost, steps = _reaching_chain(layers, auto, costs, edges, len(qstates))
    chain = [terminal] + [(p, qp) for _i, _qi, p, qp, _target in steps]
    chain.reverse()
    rows = []
    for q_idx in dict.fromkeys(qi for _sid, qi in chain):
        rows.extend(qstates[q_idx][2:])
    beta_label_order = ideal.nested_question_order(rows, m)
    if sorted(beta_label_order) != list(range(1, m + 1)):
        raise CorruptTableError("reconstructed question order is not a permutation")
    if any(abs(lab - pos) > kq for pos, lab in enumerate(beta_label_order, start=1)):
        raise CorruptTableError("reconstructed question order exceeds displacement bound")
    sol = ideal.nested_solution(
        inst,
        [alpha[pos.lo + pos.states[sid][0] - 1] for pos, (sid, _qi) in zip(auto, chain)],
        [beta0[lab - 1] for lab in beta_label_order],
        [qstates[qi][0] for _sid, qi in chain],
        f"dp.frontier.{mode.value}",
    )
    if mode == Mode.ADDITION and sol.edits.deletions:
        raise CorruptTableError("addition solve produced deletions")
    if sol.edits.size != terminal_cost:
        raise CorruptTableError(f"reconstructed cost {sol.edits.size} != table cost {terminal_cost}")
    return sol


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**9), ks=st.integers(0, 3), kq=st.integers(0, 3), mode=st.sampled_from(list(Mode)))
def test_reconstruct_frontier_matches_reaching_walk_reference(seed, ks, kq, mode):
    inst = random_instance(random.Random(seed), max_side=7)
    n, m = inst.num_students, inst.num_questions
    ks, kq = min(ks, n - 1), min(kq, m - 1)
    table = dp_engine._frontier_table(inst, ks, kq, mode)
    assert dp_engine._reconstruct_frontier(inst, kq, mode, *table) == _reaching_walk_reference(inst, kq, mode, *table)


@pytest.mark.parametrize("mode", list(Mode))
def test_reconstruct_ignores_target_at_a_state_that_does_not_reach(mode):
    """A step's target planted in the chosen parent row, at a state below
    the chosen one that does not reach the current state, leaves the
    Solution as it is: the walk-back looks only at the reaching states."""
    rng = random.Random(41)
    planted = 0
    while planted < 20:
        inst = random_instance(rng, max_side=7)
        n, m = inst.num_students, inst.num_questions
        kq = min(rng.randint(1, 3), m - 1)
        if n < 2 or kq < 1:
            continue
        ks = min(rng.randint(0, 3), n - 1)
        layers, auto, costs, qstates, edges = dp_engine._frontier_table(inst, ks, kq, mode)
        want = dp_engine._reconstruct_frontier(inst, kq, mode, layers, auto, costs, qstates, edges)
        reaching = [{q} for q in range(len(qstates))]
        for q, p in edges:  # sorted by q, and p < q: reaching[p] is complete
            reaching[q] |= reaching[p]
        for i, qi, p, qp, target in _reaching_chain(layers, auto, costs, edges, len(qstates))[2]:
            for x in range(qp):
                if x not in reaching[qi]:
                    rows, offs = layers[i - 2]
                    saved = rows[p], offs[p]
                    rows[p], offs[p] = with_cell(*saved, len(qstates), x, target)
                    got = dp_engine._reconstruct_frontier(inst, kq, mode, layers, auto, costs, qstates, edges)
                    rows[p], offs[p] = saved
                    assert got == want, (i, qi, p, qp, x)
                    planted += 1


def _union_band_table_reference(inst, ks, kq, mode):
    """The frontier table as filled when addition tested each cell's target
    against the union of the prefix's neighborhoods, kept as the reference
    for the per-student cost rows: ``layers[i-1][s]`` as lists."""
    inf = float("inf")
    n, m = inst.num_students, inst.num_questions
    alpha, beta0 = inst.base_student_order, inst.base_question_order
    pick = itemgetter(*[q - 1 for q in reversed(beta0)])
    nb = [0] + [int("".join(pick(bin(inst.adj_bits[s - 1])[:1:-1].ljust(m, "0"))), 2) for s in alpha]
    pref_union = list(itertools.accumulate(nb, or_))
    auto = knear_automaton(n, ks)
    qstates, edges = dp_engine._question_states(m, kq)
    nq = len(qstates)
    targets = [st[3] for st in qstates]
    first_at = [nq] * (m + 2)
    for qi in range(nq - 1, -1, -1):
        first_at[qstates[qi][0]] = qi
    editing = mode == Mode.EDITING
    if editing:
        cost_table = [[(b ^ t).bit_count() for t in targets] for b in nb]
    else:
        cost_table = [[(t & ~b).bit_count() for t in targets] for b in nb]

    def prefix_union(pos, w):
        bits = pref_union[pos.lo - 1]
        for x in pos.windows[w]:
            bits |= nb[pos.lo + x]
        return bits

    def fill(u, union, merged):
        row = cost_table[u]
        if editing:
            return list(map(add, merged, row))
        un = union | nb[u]
        hi = un.bit_length()
        lo_q, hi_q = first_at[max(0, hi - kq)], first_at[min(m + 1, hi + kq)]
        out = [inf] * lo_q
        for qi in range(lo_q, hi_q):
            out.append(inf if un & ~targets[qi] else merged[qi] + row[qi])
        out.extend(map(add, itertools.islice(merged, hi_q, None), itertools.islice(row, hi_q, None)))
        return out

    def merge(rows):
        merged = list(rows[0])
        for arr in rows[1:]:
            merged = [a if a < b else b for a, b in zip(merged, arr)]
        for qi, p in edges:
            if merged[p] < merged[qi]:
                merged[qi] = merged[p]
        return merged

    layers = []
    prev = [[0] * nq]
    for pos in auto:
        merged = [merge([prev[p] for p in parents]) for parents in pos.parents]
        unions = [0 if editing else prefix_union(pos, w) for w in range(len(merged))]
        prev = [fill(pos.lo + e, unions[w], merged[w]) for e, w in pos.states]
        layers.append(prev)
    return layers


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**9), ks=st.integers(0, 3), kq=st.integers(0, 3), mode=st.sampled_from(list(Mode)))
def test_frontier_table_matches_union_band_reference(seed, ks, kq, mode):
    """Every cell equals the union-band fill's: the prefix-union test never
    changes a cell, so addition is editing with infinite cost where a
    student would lose a question."""
    inst = random_instance(random.Random(seed), max_side=7)
    n, m = inst.num_students, inst.num_questions
    ks, kq = min(ks, n - 1), min(kq, m - 1)
    layers, _auto, _costs, qstates, _edges = dp_engine._frontier_table(inst, ks, kq, mode)
    ref = _union_band_table_reference(inst, ks, kq, mode)
    assert [layer_cells(layer, len(qstates)) for layer in layers] == ref


@pytest.mark.parametrize("mode", [Mode.EDITING, Mode.ADDITION])
@pytest.mark.parametrize("ks, kq", [(1, 0), (2, 0), (1, 1), (2, 2)])
def test_frontier_rows_are_banded_packed_ints(mode, ks, kq):
    """Every frontier row and cost row is an int of nq - offset 32-bit
    fields, 0 <= offset <= nq, whose guard bits (bit 31 of each field) are
    clear. A frontier row's first field is finite, so a row with none
    finite has offset nq; editing rows all start at 0."""
    from chainrank.dp_engine import _frontier_table

    rng = random.Random(29)
    for _ in range(10):
        inst = random_instance(rng, max_side=6)
        n, m = inst.num_students, inst.num_questions
        layers, auto, costs, qstates, _edges = _frontier_table(inst, min(ks, n - 1), min(kq, m - 1), mode)
        nq = len(qstates)
        assert len(layers) == n
        for (rows, offs), pos in zip([costs, *layers], [None, *auto]):
            assert len(rows) == len(offs) == (n + 1 if pos is None else len(pos.states))
            for row, off in zip(rows, offs):
                assert isinstance(row, int) and 0 <= off <= nq and 0 <= row < 1 << 32 * (nq - off)
                raw = fields(row, off, nq)
                assert all(c < 1 << 31 for c in raw)
                assert pos is None or off == nq or raw[off] != CELL_INF
                assert mode == Mode.ADDITION or off == 0


_packed_rows = st.integers(1, 40).flatmap(
    lambda nq: st.tuples(*[st.lists(st.one_of(st.just(CELL_INF), st.integers(0, CELL_INF)), min_size=nq, max_size=nq)] * 2)
)


@settings(max_examples=300, deadline=None)
@given(rows=_packed_rows)
def test_packed_min_and_saturating_add_match_per_cell(rows):
    """The packed minimum and the saturating sum equal per-cell Python on
    values up to the infinite field, and keep every guard bit clear."""
    a, b = rows
    nq = len(a)
    pa, pb = dp_engine._pack(a), dp_engine._pack(b)
    guards, full = dp_engine._pack([1 << 31] * nq), dp_engine._pack([CELL_INF] * nq)
    assert list(fields(pa, 0, nq)) == a
    assert list(dp_engine._unpack(pa, nq)) == a
    low = dp_engine._packed_min(pa, pb, guards)
    assert list(fields(low, 0, nq)) == [min(x, y) for x, y in zip(a, b)]
    total = dp_engine._packed_add(pa, pb, guards, full)
    assert list(fields(total, 0, nq)) == [min(x + y, CELL_INF) for x, y in zip(a, b)]


class _BigEndianWords(array):
    """``array('I')`` as a big-endian host holds it: the same values, with
    each word's bytes reversed in ``tobytes`` and when read from bytes."""

    def __new__(cls, typecode, init=()):
        words = super().__new__(cls, typecode, init)
        if isinstance(init, (bytes, bytearray)):
            words.byteswap()
        return words

    def tobytes(self):
        native = array(self.typecode, self)
        native.byteswap()
        return native.tobytes()


def test_packed_rows_are_little_endian_words():
    """Cell i of a packed row is bits 32i to 32i+31, which every shift and
    offset of the fill assumes."""
    assert dp_engine._pack([1, 2]) == 1 | 2 << 32
    assert list(dp_engine._unpack(1 | 2 << 32, 2)) == [1, 2]


def test_packed_rows_keep_their_layout_on_a_big_endian_host(monkeypatch):
    """On an emulated big-endian host, where reading the native words with
    ``sys.byteorder`` would put cell 0 in the high word (0x100000002 for
    [1, 2]), the rows, the tables and the solutions are the same."""
    rng = random.Random(24)
    cases = []
    for _ in range(20):
        inst = random_instance(rng, max_side=6)
        n, m = inst.num_students, inst.num_questions
        ks, kq, mode = min(rng.randint(0, 2), n - 1), min(rng.randint(0, 2), m - 1), rng.choice(list(Mode))
        table = dp_engine._frontier_table(inst, ks, kq, mode)
        cases.append((inst, ks, kq, mode, table, dp_engine._reconstruct_frontier(inst, kq, mode, *table)))
    monkeypatch.setattr(dp_engine, "array", _BigEndianWords)
    monkeypatch.setattr(dp_engine, "_BIG_ENDIAN", True)
    assert dp_engine._pack([1, 2]) == 1 | 2 << 32
    assert list(dp_engine._unpack(1 | 2 << 32, 2)) == [1, 2]
    for inst, ks, kq, mode, table, sol in cases:
        got = dp_engine._frontier_table(inst, ks, kq, mode)
        assert got[0] == table[0] and got[2] == table[2]
        assert dp_engine._reconstruct_frontier(inst, kq, mode, *got) == sol


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_cost_rows_match_per_cell_reference(data):
    """The column-built cost rows decode to one popcount per cell (see
    ``cost_cells_reference``), in both modes, for any neighborhoods, the
    empty and the full one included, and any base orders."""
    n, m = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    kq = min(data.draw(st.integers(0, 3)), m - 1)
    mode = data.draw(st.sampled_from(list(Mode)))
    every = (1 << m) - 1
    bits = data.draw(st.lists(st.just(0) | st.just(every) | st.integers(0, every), min_size=n, max_size=n))
    inst = Instance(
        n, m, bits, tuple(data.draw(st.permutations(range(1, n + 1)))), tuple(data.draw(st.permutations(range(1, m + 1))))
    )
    qstates, edges = dp_engine._question_states(m, kq)
    rows, offs = dp_engine._cost_rows(inst, qstates, edges, mode)
    nq = len(qstates)
    assert [cells(row, off, nq) for row, off in zip(rows, offs)] == cost_cells_reference(inst, qstates, mode)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_banded_min_aligns_rows_at_the_lower_offset(data):
    """The minimum of two banded rows starts at the lower offset, and every
    cell, those in the gap below the higher offset included, is the per-cell
    minimum of the decoded rows. The fill's parents of one window share
    their offset, so this is where a gap is tested."""
    nq = data.draw(st.integers(1, 30))
    cell = st.one_of(st.just(CELL_INF), st.integers(0, CELL_INF))
    rows = []
    for _ in range(2):
        off = data.draw(st.integers(0, nq))
        rows.append((dp_engine._pack(data.draw(st.lists(cell, min_size=nq - off, max_size=nq - off))), off))
    guards, full = dp_engine._pack([1 << 31] * nq), dp_engine._pack([CELL_INF] * nq)
    (a, a_off), (b, b_off) = rows
    low, off = dp_engine._banded_min(a, a_off, b, b_off, nq, guards, full)
    assert off == min(a_off, b_off) and 0 <= low < 1 << 32 * (nq - off)
    assert cells(low, off, nq) == [min(x, y) for x, y in zip(cells(a, a_off, nq), cells(b, b_off, nq))]


def _noisy_instance(n: int, k: int, seed: int):
    cfg = GenConfig(n, n, seed=seed, flip_count=n * n // 10, k_perturb=k)
    planted, true_s, true_q = gen_ideal(cfg)
    noisy = perturb_edges(planted, cfg)
    return make_instance(n, n, list(noisy.edges()), perturb_order(true_s, k, seed), true_q)


def _frontier_table_peak(mode: Mode):
    """The tracemalloc peak of the 120x120 k=2 constrained table, and the
    table."""
    from chainrank.dp_engine import _frontier_table

    inst = _noisy_instance(120, 2, 5)
    tracemalloc.start()
    try:
        table = _frontier_table(inst, 2, 0, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(rows) for rows, _offs in table[0]) > 1000
    return peak, table


def test_frontier_table_peak_memory():
    """Rows are packed ints, 4 bytes a cell. The 120x120 k=2 constrained
    editing table, all of whose rows start at offset 0, peaks at 0.89 MB;
    the bound leaves 1.6x headroom, and the same table with rows of
    ``array('d')`` (1.70 MB) fails it."""
    peak, _table = _frontier_table_peak(Mode.EDITING)
    assert peak < 1.4 * 2**20, peak


def test_frontier_addition_table_peak_memory():
    """Addition rows are banded: each holds the cells from its first finite
    question state on. The 120x120 k=2 constrained addition table peaks at
    0.14 MB, against 0.86 MB with every row nq cells wide, which fails the
    bound."""
    peak, (layers, *_shared) = _frontier_table_peak(Mode.ADDITION)
    assert any(off for _rows, offs in layers for off in offs)
    assert peak < 0.3 * 2**20, peak


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

    @pytest.mark.parametrize("mode", list(Mode))
    def test_question_states_are_charged(self, mode):
        """2x20 at k = 19 has few student states but about 10.5M question
        states, each holding far more than its 4-byte cells."""
        rng = random.Random(20)
        inst = Instance(2, 20, [rng.getrandbits(20) for _ in range(2)], (1, 2), tuple(range(1, 21)))
        start = time.perf_counter()
        with pytest.raises(InstanceTooLargeError, match="GiB"):
            solve_both_knear(inst, 19, mode)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "n, ks, m, kq",
        [(1 << 16, 0, 1 << 15, 0), (1 << 15, 0, 1 << 16, 0), (46341, 0, 46341, 0), (1 << 16, 1, 1 << 15, 1)],
    )
    def test_costs_stay_below_the_infinite_field(self, n, ks, m, kq):
        """A frontier cost is at most n*m, and a packed row reads 2^31 - 1
        as infinite; every shape with n*m >= 2^31 - 1 is refused, fast."""
        assert n * m >= CELL_INF
        start = time.perf_counter()
        with pytest.raises(InstanceTooLargeError, match="GiB"):
            dp_engine._check_table_size(n, ks, m, kq)
        assert time.perf_counter() - start < 1.0

    def test_packed_cells_are_charged_four_bytes(self):
        """A packed cell takes 4 bytes: constrained n = 1500 at k = 3 (0.73
        GiB) and n = 600 at k = 4 (0.57 GiB) pass the guard, which refused
        both at 8 bytes a cell; n = 2000 at k = 3 is still refused."""
        dp_engine._check_table_size(1500, 3, 1500, 0)
        dp_engine._check_table_size(600, 4, 600, 0)
        with pytest.raises(InstanceTooLargeError, match="GiB"):
            dp_engine._check_table_size(2000, 3, 2000, 0)

    def test_cost_rows_are_charged(self):
        """Constrained k = 0 at n = m = 15,000 has a 0.86 GiB table besides
        its n+1 cost rows of 0.84 GiB and the column buffer they are read
        from, which the estimate charges; nothing is allocated."""
        start = time.perf_counter()
        with pytest.raises(InstanceTooLargeError, match="GiB"):
            dp_engine._check_table_size(15000, 0, 15000, 0)
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


def _variant_dispatch_reference(inst, spec):
    """``solve`` as it was when variant names chose the engine, kept as the
    reference for the dispatch by bounds. The NP-hard variant is left out."""
    variant, mode = spec.variant, spec.mode
    spec.validate_for(inst)
    n, m = inst.num_students, inst.num_questions
    ks, kq = (None if b is None else min(b, size - 1) for b, size in zip(spec.bounds, (n, m)))
    if variant == Variant.FIXED_ONE_SIDE or (variant == Variant.CONSTRAINED_KNEAR and ks == n - 1):
        if kq == 0:
            sol = ideal.solve_fixed_side(inst, Side.QUESTIONS_FIXED, inst.base_question_order, mode)
        else:
            sol = ideal.solve_fixed_side(inst, Side.STUDENTS_FIXED, inst.base_student_order, mode)
    elif kq is None:
        dp_engine._check_table_size(n, ks)
        table = dp_engine._unconstrained_addition_table(inst, ks)
        sol = dp_engine._reconstruct_unconstrained_addition(inst, *table)
    else:
        dp_engine._check_table_size(n, ks, m, kq)
        sol = dp_engine._reconstruct_frontier(inst, kq, mode, *dp_engine._frontier_table(inst, ks, kq, mode))
    return replace(sol, solver_tag=f"{dp_engine._TAGS[variant]}.{mode.value}")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9), k=st.integers(0, 8))
def test_dispatch_by_bounds_matches_variant_dispatch(seed, k):
    """Same cost always, and the same solution outside the thin ``both``
    shapes (one student or one question, k >= 1), whose orders are ties;
    there the cost is the oracle's."""
    inst = random_instance(random.Random(seed), max_side=7)
    n, m = inst.num_students, inst.num_questions
    specs = [ProblemSpec(v, mode, k) for v, mode in DP_VARIANT_MODES]
    specs += [ProblemSpec(Variant.FIXED_ONE_SIDE, mode, 0, side) for side in Side for mode in Mode]
    for spec in specs:
        got, ref = solve(inst, spec), _variant_dispatch_reference(inst, spec)
        assert got.cost == ref.cost, spec
        if spec.variant == Variant.BOTH_KNEAR and min(n, m) == 1 and k >= 1:
            assert got.cost == oracle_solve(inst, spec).cost, spec
            assert verify_solution(inst, spec, got).ok, spec
        else:
            assert got == ref, spec


@pytest.mark.parametrize("n, m, k", [(1, 16, 15), (1, 20, 19), (20, 1, 19), (40, 1, 39), (1, 2000, 1999)])
@pytest.mark.parametrize("mode", list(Mode))
def test_thin_both_takes_the_fixed_side_solver(n, m, k, mode):
    """One student or one question at a k that frees the other side is the
    fixed-side problem, solved at once."""
    rng = random.Random(n + m)
    inst = Instance(n, m, [rng.getrandbits(m) for _ in range(n)], tuple(range(1, n + 1)), tuple(range(1, m + 1)))
    spec = ProblemSpec(Variant.BOTH_KNEAR, mode, k)
    start = time.perf_counter()
    sol = solve(inst, spec)
    assert time.perf_counter() - start < 1.0
    side = Side.STUDENTS_FIXED if n == 1 else Side.QUESTIONS_FIXED
    assert sol.cost == solve_fixed_side(inst, side, (1,), mode).cost
    assert verify_solution(inst, spec, sol).ok
