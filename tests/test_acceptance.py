"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with -rA or -s to see them).

Criteria 1-4 register every produced solution; criterion 6 re-verifies the
whole registry with the solver-independent checker.
"""

from __future__ import annotations

import itertools
import random
import time

from chainrank import (
    EMPTY_EDITS,
    GenConfig,
    Mode,
    NestingCertificate,
    NotIdeal,
    ProblemSpec,
    Side,
    Solution,
    Variant,
    assignment_to_editing,
    build_reduction,
    editing_to_assignment,
    gen_ideal,
    make_instance,
    oracle_solve,
    perturb_order,
    recognize_ideal,
    solve,
    solve_both_knear,
    solve_constrained_knear,
    solve_fixed_side,
    solve_unconstrained_knear_addition,
    solve_unconstrained_knear_editing_exact,
    verify_solution,
    with_base_orders,
)
from chainrank.hardness import formula
from conftest import DP_VARIANT_MODES, adjacency, random_instance

_REGISTRY: list[tuple] = []


def _record(inst, spec, sol):
    _REGISTRY.append((inst, spec, sol))


def _report(criterion: int, started: float, detail: str):
    print(f"ACCEPTANCE {criterion} PASS ({time.perf_counter() - started:.1f}s): {detail}")


def _dp_runs(inst, k):
    return [
        (solve(inst, ProblemSpec(variant, mode, k)), variant, mode)
        for variant, mode in DP_VARIANT_MODES
    ]


def test_criterion_1_oracle_equivalence_randomized():
    """Every polynomial DP matches the oracle exactly on 2100 seeded random
    instances, |S|,|Q| in 1..6, k in {0,1,2}, densities {0.2, 0.5, 0.8}."""
    started = time.perf_counter()
    densities = (0.2, 0.5, 0.8)
    checked = 0
    for i in range(2100):
        rng = random.Random(1_000_000 + i)
        inst = random_instance(rng, max_side=6, density=densities[i % 3])
        k = i % 3
        for sol, variant, mode in _dp_runs(inst, k):
            spec = ProblemSpec(variant, mode, k)
            opt = oracle_solve(inst, spec).cost
            assert sol.cost == opt, (
                f"instance seed {i}: {variant.value}/{mode.value} k={k} "
                f"dp={sol.cost} oracle={opt}"
            )
            _record(inst, spec, sol)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"criterion 1 took {elapsed:.0f}s, budget 300s"
    _report(1, started, f"{checked} DP-vs-oracle comparisons over 2100 instances")


def test_criterion_2_exhaustive_tiny_sweep():
    """All 512 bipartite 3x3 graphs x k in {0,1,2} x both modes x the three
    k-near variants: DP equals oracle exactly."""
    started = time.perf_counter()
    checked = 0
    for bits in range(512):
        edges = [
            (s, q)
            for s in range(1, 4)
            for q in range(1, 4)
            if bits >> ((s - 1) * 3 + (q - 1)) & 1
        ]
        inst = make_instance(3, 3, edges, (1, 2, 3), (1, 2, 3))
        for k in (0, 1, 2):
            for sol, variant, mode in _dp_runs(inst, k):
                spec = ProblemSpec(variant, mode, k)
                assert sol.cost == oracle_solve(inst, spec).cost, (bits, k, variant, mode)
                _record(inst, spec, sol)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"criterion 2 took {elapsed:.0f}s, budget 120s"
    _report(2, started, f"{checked} comparisons over all 512 graphs")


def _ideal_with_crossing(seed: int):
    """An ideal instance plus one injected incomparable pair."""
    rng = random.Random(seed)
    n = rng.randint(2, 50)
    m = rng.randint(2, 50)
    for attempt in range(100):
        lengths = sorted(rng.randint(0, m) for _ in range(n))
        pair = next(
            (
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if lengths[i] < lengths[j] < m
            ),
            None,
        )
        if pair:
            break
    assert pair is not None, "could not sample a crossable instance"
    cfg = GenConfig(num_students=n, num_questions=m, seed=seed)
    inst, true_s, true_q = gen_ideal(cfg, prefix_lengths=lengths)
    weak_idx, strong_idx = pair
    crossing_edge = (true_s[weak_idx], true_q[lengths[strong_idx]])
    edges = list(inst.edges()) + [crossing_edge]
    return inst, make_instance(n, m, edges)


def test_criterion_3_recognition():
    """500 generated ideal instances up to 50x50 are accepted with verifying
    certificates; 500 single-crossing variants are rejected with valid
    witnesses."""
    started = time.perf_counter()
    for seed in range(500):
        cfg = GenConfig(
            num_students=random.Random(seed).randint(1, 50),
            num_questions=random.Random(seed + 77_000).randint(1, 50),
            seed=seed,
        )
        inst, _, _ = gen_ideal(cfg)
        cert = recognize_ideal(inst)
        assert isinstance(cert, NestingCertificate), f"seed {seed} rejected"
        sol = Solution(0, cert.student_order, cert.question_order, EMPTY_EDITS, "certificate")
        spec = ProblemSpec(Variant.IMO_RECOGNIZE)
        assert verify_solution(inst, spec, sol).ok, f"seed {seed} certificate fails"
        _record(inst, spec, sol)

        _, crossed = _ideal_with_crossing(10_000 + seed)
        result = recognize_ideal(crossed)
        assert isinstance(result, NotIdeal), f"seed {seed}: crossing not detected"
        s1, s2 = result.witness
        n1, n2 = set(adjacency(crossed)[s1 - 1]), set(adjacency(crossed)[s2 - 1])
        assert not n1 <= n2 and not n2 <= n1, f"seed {seed}: witness not incomparable"
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"criterion 3 took {elapsed:.0f}s, budget 60s"
    _report(3, started, "500 ideal accepted + 500 crossings rejected with witnesses")


def test_criterion_4_fixed_side_optimality():
    """solve_fixed_side equals the enumeration oracle on 500 random
    instances with |S|,|Q| <= 5, both sides, both modes, tolerance 0."""
    started = time.perf_counter()
    for seed in range(500):
        rng = random.Random(40_000 + seed)
        inst = random_instance(rng, max_side=5)
        for side in (Side.QUESTIONS_FIXED, Side.STUDENTS_FIXED):
            fixed = (
                inst.base_question_order
                if side == Side.QUESTIONS_FIXED
                else inst.base_student_order
            )
            for mode in (Mode.EDITING, Mode.ADDITION):
                sol = solve_fixed_side(inst, side, fixed, mode)
                spec = ProblemSpec(Variant.FIXED_ONE_SIDE, mode, 0, side)
                opt = oracle_solve(inst, spec).cost
                assert sol.cost == opt, (seed, side, mode, sol.cost, opt)
                _record(inst, spec, sol)
    _report(4, started, "500 seeds x 2 sides x 2 modes, exact agreement")


def _all_tiny_formulas():
    for num_vars in (1, 2):
        lits = [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)]
        pool = []
        for size in (1, 2, 3):
            for combo in itertools.combinations(sorted(lits, key=abs), size):
                if len({abs(l) for l in combo}) == size:
                    pool.append(tuple(combo))
        for m in (1, 2):
            for clauses in itertools.combinations_with_replacement(pool, m):
                yield formula(num_vars, clauses)


def _brute_force_satisfying(phi):
    for bits in range(1 << phi.num_vars):
        assignment = [bool(bits >> i & 1) for i in range(phi.num_vars)]
        if phi.is_satisfied_by(assignment):
            return assignment
    return None


def test_criterion_5_hardness_sanity():
    """For every 3-CNF with <= 2 variables and <= 2 clauses, the oracle
    optimum on the reduction equals t_phi exactly when the formula is
    satisfiable, and the branch-and-bound solver finds the same cost and
    student order; constructions verify at t_phi and round-trip."""
    started = time.perf_counter()
    spec = ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, 1)
    count_sat = count_unsat = 0
    for phi in _all_tiny_formulas():
        red = build_reduction(phi)
        opt = oracle_solve(red.instance, spec)
        fast = solve_unconstrained_knear_editing_exact(red.instance, 1)
        assert (fast.cost, fast.student_order) == (opt.cost, opt.student_order), phi
        satisfying = _brute_force_satisfying(phi)
        if satisfying is not None:
            count_sat += 1
            assert opt.cost == red.t_phi, (phi, opt.cost, red.t_phi)
            built = assignment_to_editing(red, satisfying)
            assert built.cost == red.t_phi
            assert verify_solution(red.instance, spec, built).ok
            assert phi.is_satisfied_by(editing_to_assignment(red, built))
            assert phi.is_satisfied_by(editing_to_assignment(red, opt))
        else:
            count_unsat += 1
            assert opt.cost > red.t_phi, (phi, opt.cost, red.t_phi)
    elapsed = time.perf_counter() - started
    assert elapsed < 600, f"criterion 5 took {elapsed:.0f}s, budget 600s"
    _report(5, started, f"{count_sat} satisfiable + {count_unsat} unsatisfiable formulas")


def test_criterion_6_structural_properties():
    """Every recorded solver output passes the independent verifier;
    additions never delete; cost is non-increasing in k; editing never costs
    more than addition."""
    started = time.perf_counter()
    assert _REGISTRY, "criteria 1-4 must run first (full-module run)"
    for inst, spec, sol in _REGISTRY:
        report = verify_solution(inst, spec, sol)
        assert report.ok, (spec, [c.name for c in report.failed()])
        if spec.mode == Mode.ADDITION:
            assert not sol.edits.deletions

    for seed in range(200):
        rng = random.Random(60_000 + seed)
        inst = random_instance(rng, max_side=6)
        for variant, mode in DP_VARIANT_MODES:
            costs = [solve(inst, ProblemSpec(variant, mode, k)).cost for k in (0, 1, 2)]
            assert costs[0] >= costs[1] >= costs[2], (seed, costs)
        for k in (0, 1, 2):
            assert (
                solve_constrained_knear(inst, k, Mode.EDITING).cost
                <= solve_constrained_knear(inst, k, Mode.ADDITION).cost
            )
            assert (
                solve_both_knear(inst, k, Mode.EDITING).cost
                <= solve_both_knear(inst, k, Mode.ADDITION).cost
            )
    for seed in range(50):
        rng = random.Random(61_000 + seed)
        inst = random_instance(rng, max_side=5)
        k = seed % 3
        assert (
            solve_unconstrained_knear_editing_exact(inst, k).cost
            <= solve_unconstrained_knear_addition(inst, k).cost
        )
    _report(6, started, f"{len(_REGISTRY)} recorded outputs re-verified + property sweeps")


def _noisy_square(n: int, k: int, seed: int):
    cfg = GenConfig(num_students=n, num_questions=n, seed=seed, flip_probability=0.05)
    from chainrank import perturb_edges

    inst, true_s, true_q = gen_ideal(cfg)
    inst = perturb_edges(inst, cfg)
    return with_base_orders(
        inst, perturb_order(true_s, k, seed), perturb_order(true_q, k, seed + 1)
    )


def test_criterion_7_runtime_smoke():
    """Constrained 100x100 finishes under 5s at k=1 and 60s at k=2;
    both-near 40x40 finishes under 60s at k=1."""
    started = time.perf_counter()
    timings = []
    inst = _noisy_square(100, 1, 71)
    t0 = time.perf_counter()
    sol = solve_constrained_knear(inst, 1, Mode.EDITING)
    t_k1 = time.perf_counter() - t0
    assert verify_solution(inst, ProblemSpec(Variant.CONSTRAINED_KNEAR, Mode.EDITING, 1), sol).ok
    assert t_k1 < 5.0, f"constrained 100x100 k=1 took {t_k1:.1f}s"
    timings.append(("constrained", 100, 1, t_k1))

    inst = _noisy_square(100, 2, 72)
    t0 = time.perf_counter()
    sol = solve_constrained_knear(inst, 2, Mode.EDITING)
    t_k2 = time.perf_counter() - t0
    assert verify_solution(inst, ProblemSpec(Variant.CONSTRAINED_KNEAR, Mode.EDITING, 2), sol).ok
    assert t_k2 < 60.0, f"constrained 100x100 k=2 took {t_k2:.1f}s"
    timings.append(("constrained", 100, 2, t_k2))

    inst = _noisy_square(40, 1, 73)
    t0 = time.perf_counter()
    sol = solve_both_knear(inst, 1, Mode.EDITING)
    t_b = time.perf_counter() - t0
    assert verify_solution(inst, ProblemSpec(Variant.BOTH_KNEAR, Mode.EDITING, 1), sol).ok
    assert t_b < 60.0, f"both 40x40 k=1 took {t_b:.1f}s"
    timings.append(("both", 40, 1, t_b))

    # scaling record, not asserted: the k-dependence is exponential in theory
    for n in (25, 50, 100):
        for k in (1, 2):
            inst = _noisy_square(n, k, 74 + n + k)
            t0 = time.perf_counter()
            solve_constrained_knear(inst, k, Mode.EDITING)
            timings.append(("constrained-scaling", n, k, time.perf_counter() - t0))
    curve = ", ".join(f"{name} n={n} k={k}: {t * 1000:.0f}ms" for name, n, k, t in timings)
    _report(7, started, curve)
