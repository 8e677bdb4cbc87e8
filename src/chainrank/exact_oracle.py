"""Brute-force exact solvers used to certify the optimized ones.

The oracle enumerates bounded-displacement orderings of one or both sides and
solves the remaining fixed-order problem optimally. Its value is obvious
correctness on desk-scale instances, including the NP-hard unconstrained
k-near editing variant, which is only available here.

What it enumerates comes from ``ProblemSpec.bounds``: each bounded side's
orders within its bound of the base order, every order of a free student
side, and no orders at all for a free question side, which the inner pass
solves directly. ``inner_fixed_orders_cost`` takes the question side the same
way: None when free, ``(base, k)`` when bounded (k = 0 is the base order).

Each inner problem is one pass: ``_free_cost`` for a free question side and
``_exact_cost`` for a fixed question order. The enumeration calls them for
the cost alone; ``inner_fixed_orders_cost`` calls the same pass once more on
the winning orders and reads the witness from what it already computes, the
smallest optimal suffix sizes or the prefix-minimum rows.
"""

from __future__ import annotations

from dataclasses import replace
from math import factorial
from typing import Iterator, Sequence

from .core_model import (
    ChainRankError,
    EditSet,
    Instance,
    Mode,
    ProblemSpec,
    Side,
    Solution,
    Variant,
    inverse_positions,
)

DEFAULT_CAP = 10_000_000
_INF = float("inf")


class InstanceTooLargeError(ChainRankError):
    code = "INSTANCE_TOO_LARGE"


# ---------------------------------------------------------------------------
# Bounded-displacement permutation enumeration


def enumerate_knear_permutations(base: Sequence[int], k: int) -> Iterator[tuple[int, ...]]:
    """Yield every permutation moving each entity at most k positions from
    its position in ``base``, each exactly once, in lexicographic order of
    the emitted position -> entity tuples.

    Backtracking with displacement pruning: an entity whose deadline
    (base position + k) has arrived must be placed immediately.
    """
    base = tuple(base)
    if k == 0:
        yield base
        return
    n = len(base)
    bpos = {e: p for p, e in enumerate(base, start=1)}
    entities = sorted(base)
    used: set[int] = set()
    out: list[int] = []

    def rec(p: int) -> Iterator[tuple[int, ...]]:
        if p > n:
            yield tuple(out)
            return
        pending = [e for e in entities if e not in used and bpos[e] + k <= p]
        if pending:
            if len(pending) > 1 or bpos[pending[0]] + k < p:
                return
            cands = pending
        else:
            cands = [e for e in entities if e not in used and abs(bpos[e] - p) <= k]
        for e in cands:
            used.add(e)
            out.append(e)
            yield from rec(p + 1)
            out.pop()
            used.remove(e)

    yield from rec(1)


def count_knear_permutations(n: int, k: int) -> int:
    """Number of permutations of n elements with displacement at most k,
    without enumerating them."""
    if n <= 0:
        return 1
    if k <= 0:
        return 1
    if k >= n - 1:
        return factorial(n)
    # Sweep positions; mask bit j marks entity (window_low + j) as used.
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
                        continue  # entity p-k missed its last slot
                    nm >>= shift
                new[nm] = new.get(nm, 0) + cnt
        states = new
    return sum(states.values())


# ---------------------------------------------------------------------------
# Inner solvers for a fixed student order


def _question_groups(inst: Instance) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Group questions sharing a neighborhood; returns (neighbor tuples, ids)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    members: list[list[int]] = [[] for _ in range(inst.num_questions + 1)]
    for s, q in inst.edges():
        members[q].append(s)
    for q in range(1, inst.num_questions + 1):
        groups.setdefault(tuple(members[q]), []).append(q)
    keys = list(groups)
    return keys, [groups[key] for key in keys]


def _free_cost(
    group_keys: list[tuple[int, ...]],
    group_sizes: list[int],
    student_order: Sequence[int],
    n: int,
    mode: Mode,
    sizes: list[int] | None = None,
) -> int:
    """Total cost of the best per-question suffix under this student order.

    When ``sizes`` is given, each group's smallest optimal suffix size is
    appended to it: that is the witness.
    """
    spos = inverse_positions(student_order)
    total = 0
    for key, weight in zip(group_keys, group_sizes):
        deg = len(key)
        positions = {spos[s] for s in key}
        if mode == Mode.ADDITION:
            best_size = (n - min(positions) + 1) if deg else 0
            best = best_size - deg
        else:
            c = deg
            best, best_size = c, 0
            for size in range(1, n + 1):
                c += -1 if (n - size + 1) in positions else 1
                if c < best:
                    best, best_size = c, size
        total += best * weight
        if sizes is not None:
            sizes.append(best_size)
    return total


def _exact_cost(
    nbh_bits: Sequence[int],
    degs: Sequence[int],
    question_order: Sequence[int],
    mode: Mode,
    rows: list[list[int | float]] | None = None,
) -> int | float:
    """Minimum edits with both orders fixed: non-decreasing prefix thresholds
    along the student order, one pass of rolling prefix minima.

    When ``rows`` is given, each student's prefix-minimum row is appended to
    it; walking them back from the last gives the thresholds.
    """
    m = len(question_order)
    add = mode == Mode.ADDITION
    pm: list[int | float] = [0] * (m + 1)
    for nb, deg in zip(nbh_bits, degs):
        c = deg
        covered = 0
        v = _INF if (add and deg) else c + pm[0]
        run = v
        new = [run]
        for t in range(1, m + 1):
            if nb >> (question_order[t - 1] - 1) & 1:
                c -= 1
                covered += 1
            else:
                c += 1
            v = _INF if (add and covered < deg) else c + pm[t]
            if v < run:
                run = v
            new.append(run)
        pm = new
        if rows is not None:
            rows.append(new)
    return pm[m]


def inner_fixed_orders_cost(
    inst: Instance,
    student_order: Sequence[int],
    question_side: tuple[Sequence[int], int] | None,
    mode: Mode = Mode.EDITING,
) -> tuple[int, tuple[int, ...], EditSet]:
    """Optimal edits for a fixed student order. ``question_side`` is None for
    a free question order, or ``(base, k)`` for one within k of ``base`` (k = 0
    is ``base`` itself). Returns (cost, question_order, edits).

    Ties go to the smallest optimal suffix per question (free) or the
    smallest optimal threshold per student, last student first (ordered).
    """
    student_order = tuple(student_order)
    n = inst.num_students
    if question_side is None:
        group_keys, group_members = _question_groups(inst)
        sizes: list[int] = []
        cost = _free_cost(
            group_keys, [len(ms) for ms in group_members], student_order, n, mode, sizes
        )
        size_of = {q: size for ms, size in zip(group_members, sizes) for q in ms}
        order = tuple(sorted(size_of, key=lambda q: (-size_of[q], q)))
        target = {(s, q) for q, size in size_of.items() for s in student_order[n - size :]}
    else:
        nbh_bits = [inst.adj_bits[s - 1] for s in student_order]
        degs = [len(inst.adjacency[s - 1]) for s in student_order]
        cost, order, rows = _INF, None, []
        for beta in enumerate_knear_permutations(*question_side):
            beta_rows: list[list[int | float]] = []
            c = _exact_cost(nbh_bits, degs, beta, mode, beta_rows)
            if c < cost:
                cost, order, rows = c, beta, beta_rows
        assert order is not None
        # Prefix-minimum rows are non-increasing, so the first occurrence of
        # row[t] is the smallest optimal threshold <= t for that student.
        t = len(order)
        target = set()
        for s, row in zip(reversed(student_order), reversed(rows)):
            t = row.index(row[t])
            target.update((s, q) for q in order[:t])
    edges = set(inst.edges())
    edits = EditSet.of(target - edges, edges - target)
    assert edits.size == cost
    return int(cost), order, edits


# ---------------------------------------------------------------------------
# Full oracle


def _guard(count: int, cap: int) -> None:
    if count > cap:
        raise InstanceTooLargeError(
            f"{count} orderings to enumerate exceeds the cap of {cap}"
        )


def oracle_solve(inst: Instance, spec: ProblemSpec, cap: int = DEFAULT_CAP) -> Solution:
    """Exact optimum for any variant by exhaustive enumeration.

    Enumerates the admissible orderings of the non-fixed side(s) and solves
    the inner fixed-order problem for each; refuses with
    InstanceTooLargeError when the enumeration would exceed ``cap``.
    """
    spec.validate_for(inst)
    n, m = inst.num_students, inst.num_questions
    mode = spec.mode
    v = spec.variant

    # Per side: the orders within its bound of its base order, or, when the
    # side is free, every student order and the free question pass.
    sb, qb = spec.bounds
    sbase, sk = (inst.base_student_order, sb) if sb is not None else (tuple(range(1, n + 1)), n)
    qbase, qk = (inst.base_question_order, qb) if qb is not None else (None, 0)
    # Fixed-side with students fixed enumerates every question order instead
    # of taking the free pass, so that the oracle stays a brute force that
    # solve_fixed_side is checked against (acceptance criterion 4).
    if v == Variant.FIXED_ONE_SIDE and spec.fixed_side == Side.STUDENTS_FIXED:
        qbase, qk = tuple(range(1, m + 1)), m

    qcount = 1 if qbase is None else count_knear_permutations(m, qk)
    _guard(count_knear_permutations(n, sk) * qcount, cap)

    group_keys, group_members = _question_groups(inst)
    group_sizes = [len(ms) for ms in group_members]
    nbh_bits_by_id = inst.adj_bits
    degs_by_id = [len(row) for row in inst.adjacency]

    best_cost: int | float = _INF
    best_pi: tuple[int, ...] | None = None
    best_beta: tuple[int, ...] | None = None

    for pi in enumerate_knear_permutations(sbase, sk):
        if qbase is None:
            c = _free_cost(group_keys, group_sizes, pi, n, mode)
            if c < best_cost:
                best_cost, best_pi = c, pi
        else:
            nbh_bits = [nbh_bits_by_id[s - 1] for s in pi]
            degs = [degs_by_id[s - 1] for s in pi]
            for beta in enumerate_knear_permutations(qbase, qk):
                c = _exact_cost(nbh_bits, degs, beta, mode)
                if c < best_cost:
                    best_cost, best_pi, best_beta = c, pi, beta

    assert best_pi is not None, "feasible ordering always exists"
    assert qbase is None or best_beta is not None
    question_side = None if qbase is None else (best_beta, 0)
    cost, qorder, edits = inner_fixed_orders_cost(inst, best_pi, question_side, mode)
    assert cost == best_cost
    return Solution(
        cost=cost,
        student_order=best_pi,
        question_order=qorder,
        edits=edits,
        solver_tag=f"oracle.{v.value}.{mode.value}",
    )


def solve_unconstrained_knear_editing_exact(
    inst: Instance, k: int, cap: int = DEFAULT_CAP
) -> Solution:
    """Exact optimum for the NP-hard unconstrained k-near editing variant.

    Exhaustive over the k-near student orderings (exponential in k in the
    worst case); the free question side is solved per ordering in polynomial
    time.
    """
    sol = oracle_solve(
        inst, ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, k), cap
    )
    return replace(sol, solver_tag="exact.unconstrained_knear_editing")
