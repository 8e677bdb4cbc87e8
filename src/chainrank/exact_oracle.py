"""Brute-force exact solvers used to certify the optimized ones, and the
exact solver for the NP-hard variant.

The oracle enumerates bounded-displacement orderings of one or both sides and
solves the remaining fixed-order problem optimally. Its value is obvious
correctness on desk-scale instances. The NP-hard unconstrained k-near editing
variant is solved here too, by ``solve_unconstrained_knear_editing_exact``: a
branch-and-bound over the same student orders, in the same order, which
returns the oracle's solution and is checked against it.

What it enumerates comes from ``ProblemSpec.bounds``: each bounded side's
orders within its bound of the base order, every order of a free student
side, and no orders at all for a free question side, which the inner pass
solves directly. ``inner_fixed_orders_cost`` takes the question side as None
when free and as the question order itself when fixed.

Each inner problem is one pass: ``_free_cost`` for a free question side and
``_exact_cost`` for a fixed question order. The enumeration calls them for
the cost alone; ``inner_fixed_orders_cost`` calls the same pass once more on
the winning orders and reads the witness from what it already computes, the
smallest optimal suffix sizes or the prefix-minimum rows.

Every k-near walk reads one layered automaton, ``knear_automaton``, whose
paths are the k-near orders of 1..n: the DP engines fill their tables over
its states, ``count_knear_permutations`` counts its paths, and the
enumeration and the branch-and-bound follow its forward view by entity,
``_knear_steps``.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial
from operator import or_
from typing import Iterator, NamedTuple, Sequence

from .core_model import (
    ChainRankError,
    EditSet,
    Instance,
    InvalidInstanceError,
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

    A walk of the automaton's forward view, ``_knear_steps``. The stack is
    explicit, so n is not limited by the recursion limit.
    """
    base = tuple(base)
    steps = _knear_steps(base, k)
    return _walk(steps) if base else iter([()])


def _knear_steps(base: tuple[int, ...], k: int) -> list[list[list[tuple[int, int]]]]:
    """The forward view of ``knear_automaton`` over ``base``: entry i lists,
    per state id at position i (state 0 of the start layer at i = 0), the
    (entity, state id) pairs at position i+1 that may follow it, ascending by
    entity, shared by the states that lead to the same window."""
    steps = []
    for pos in knear_automaton(len(base), min(k, max(len(base) - 1, 0))):
        by_window: list[list[tuple[int, int]]] = [[] for _ in pos.windows]
        for sid, (e, w) in enumerate(pos.states):
            by_window[w].append((base[pos.lo + e - 1], sid))
        step = {p: f for f, ps in zip(map(sorted, by_window), pos.parents) for p in ps}
        steps.append([step[p] for p in range(len(step))])
    return steps


def _walk(steps: list[list[list[tuple[int, int]]]]) -> Iterator[tuple[int, ...]]:
    """The orders spelled by ``steps`` (at least one position), in order."""
    n = len(steps)
    out: list[int] = []
    # stack[p] iterates the successors of the state placed at position p
    # (the start state at p = 0); out[p-1] is the entity placed at p, if any.
    stack = [iter(steps[0][0])]
    while stack:
        if len(out) == len(stack):
            out.pop()
        e, sid = next(stack[-1], (None, 0))
        if e is None:
            stack.pop()
            continue
        out.append(e)
        if len(out) == n:
            yield tuple(out)
        else:
            stack.append(iter(steps[len(out)][sid]))


def count_knear_permutations(n: int, k: int) -> int:
    """Number of permutations of n elements with displacement at most k,
    without enumerating them: the paths through ``knear_automaton(n, k)``."""
    if k >= max(n - 1, 0):
        return factorial(max(n, 0))
    counts = [1]
    for pos in knear_automaton(n, k):
        per_window = [sum(counts[p] for p in parents) for parents in pos.parents]
        counts = [per_window[w] for _e, w in pos.states]
    return sum(counts)


# ---------------------------------------------------------------------------
# The k-near window automaton


class KnearPosition(NamedTuple):
    """Position i of the k-near orders of 1..n, as a layer of states.

    A state is the occupant of position i and its window: the labels of
    [lo, i+k-1] other than the occupant placed before i, where
    lo = max(1, i-k); every label below lo is due before i. Labels are
    offsets from ``lo``. ``states`` holds (occupant, window index) per state
    id, sorted, so ids follow the (occupant, window) order. ``windows``
    holds each window as an ascending tuple, the windows sorted.
    ``parents`` lists per window, ascending, the ids of the states at
    position i-1 that lead to it; at position 1 that is state 0 of an
    implicit start layer.
    """

    lo: int
    states: tuple[tuple[int, int], ...]
    windows: tuple[tuple[int, ...], ...]
    parents: tuple[tuple[int, ...], ...]


# Shapes at k <= _SHARED_K are kept across calls, 3.6 MB at most in all. A
# larger k builds them once per call: kept, k = 15 alone would hold 60 MB.
_SHARED_K = 6
_shared_shapes: dict[tuple[int, int, int], tuple] = {}


def _shape_memo(k: int) -> dict:
    if k < 0:
        raise InvalidInstanceError("k must be non-negative")
    return _shared_shapes if k <= _SHARED_K else {}


def _knear_shape(k: int, a: int, b: int, memo: dict | None = None):
    """(states, windows, next windows, next parents) of a position with
    a = min(i-1, k) and b = min(n-i, k), in offsets from lo = i - a.

    The states of position i depend on its shape (a, b) alone, so one build
    serves every position of that shape, kept in ``memo`` (by default
    ``_shape_memo(k)``). The windows are the successors of the states of
    the shape before it, (a-1, min(b+1, k)); any position before one of
    shape (a, b) has the same successors. A state places an unplaced label
    of [lo, i+b] at i. When i is the last position label lo may take (a = k),
    only placements that leave it placed are kept. Every state so reached
    completes to a k-near order, by the sorted placement of the rest, so no
    state is a dead end.
    """
    memo = _shape_memo(k) if memo is None else memo
    shape = memo.get((k, a, b))
    if shape is not None:
        return shape
    windows = _knear_shape(k, a - 1, min(b + 1, k), memo)[2] if a else ((),)
    due = a == k
    masks = [sum(1 << x for x in window) for window in windows]
    states = sorted(
        (e, w)
        for w, mask in enumerate(masks)
        for e in range(a + b + 1)
        if not mask >> e & 1 and (not due or (mask | 1 << e) & 1)
    )
    successors: dict[int, list[int]] = {}
    for sid, (e, w) in enumerate(states):
        # The next position's window starts one label later when lo is due.
        successors.setdefault((masks[w] | 1 << e) >> due, []).append(sid)
    following = sorted(
        (tuple(x for x in range(a + b + 1) if mask >> x & 1), tuple(sids))
        for mask, sids in successors.items()
    )
    shape = memo[k, a, b] = (tuple(states), windows, *zip(*following))
    return shape


def _position(n: int, k: int, i: int, memo: dict) -> KnearPosition:
    a = min(i - 1, k)
    states, windows = _knear_shape(k, a, min(n - i, k), memo)[:2]
    parents = _knear_shape(k, min(i - 2, k), min(n - i + 1, k), memo)[3] if i > 1 else ((0,),)
    return KnearPosition(i - a, states, windows, parents)


def knear_position(n: int, k: int, i: int) -> KnearPosition:
    """Position i of ``knear_automaton(n, k)``, for 1 <= i <= n and k >= 0,
    built without the positions around it."""
    return _position(n, k, i, _shape_memo(k))


def knear_automaton(n: int, k: int) -> list[KnearPosition]:
    """The k-near orders of 1..n as a layered automaton: entry i-1 is
    position i. Its paths, one state per position, are exactly the k-near
    orders, each spelled out by its occupants."""
    memo = _shape_memo(k)
    return [_position(n, k, i, memo) for i in range(1, n + 1)]


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
    question_order: Sequence[int] | None,
    mode: Mode = Mode.EDITING,
) -> tuple[int, tuple[int, ...], EditSet]:
    """Optimal edits for a fixed student order and either a free question
    order (None) or the given one. Returns (cost, question_order, edits).

    Ties go to the smallest optimal suffix per question (free) or the
    smallest optimal threshold per student, last student first (ordered).
    """
    student_order = tuple(student_order)
    n = inst.num_students
    targets = [0] * n  # each student's target row: the questions it answers
    if question_order is None:
        group_keys, group_members = _question_groups(inst)
        sizes: list[int] = []
        cost = _free_cost(
            group_keys, [len(ms) for ms in group_members], student_order, n, mode, sizes
        )
        size_of = {q: size for ms, size in zip(group_members, sizes) for q in ms}
        order = tuple(sorted(size_of, key=lambda q: (-size_of[q], q)))
        for q, size in size_of.items():
            for s in student_order[n - size :]:
                targets[s - 1] |= 1 << (q - 1)
    else:
        nbh_bits = [inst.adj_bits[s - 1] for s in student_order]
        degs = [b.bit_count() for b in nbh_bits]
        order = tuple(question_order)
        rows: list[list[int | float]] = []
        cost = _exact_cost(nbh_bits, degs, order, mode, rows)
        prefix = list(accumulate((1 << (q - 1) for q in order), or_, initial=0))
        # Prefix-minimum rows are non-increasing, so the first occurrence of
        # row[t] is the smallest optimal threshold <= t for that student.
        t = len(order)
        for s, row in zip(reversed(student_order), reversed(rows)):
            t = row.index(row[t])
            targets[s - 1] = prefix[t]
    bits = inst.adj_bits
    edits = EditSet.from_rows([t & ~b for t, b in zip(targets, bits)], [b & ~t for t, b in zip(targets, bits)])
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
    qsteps = None if qbase is None else _knear_steps(qbase, qk)
    nbh_bits_by_id = inst.adj_bits
    degs_by_id = [b.bit_count() for b in nbh_bits_by_id]

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
            for beta in _walk(qsteps):
                c = _exact_cost(nbh_bits, degs, beta, mode)
                if c < best_cost:
                    best_cost, best_pi, best_beta = c, pi, beta

    assert best_pi is not None, "feasible ordering always exists"
    assert qbase is None or best_beta is not None
    cost, qorder, edits = inner_fixed_orders_cost(inst, best_pi, best_beta, mode)
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

    Depth-first branch-and-bound over the k-near student orders, placed
    position by position in the order ``enumerate_knear_permutations``
    yields them: each frame takes its candidates from ``_knear_steps``, the
    successors of the automaton state placed before it. A question with deg
    answerers, A(t) of them among the first t students, costs
    ``n - deg + 2A(t) - t`` at threshold t. Each question group carries A
    and M, the minimum of ``2A(t) - t`` up to its last placed answerer. Past the placed prefix the value cannot drop below
    ``A + deg - n``, since the unplaced answerers fit at the end at best, so
    ``sum(w * (n - deg + min(M, A + deg - n)))`` bounds every completion and
    is ``_free_cost`` itself at a leaf. A subtree whose bound is no better than
    the best cost so far is cut; with the strict ``<`` the first optimal order
    found is the oracle's. The stack is explicit, so n is not limited by the
    recursion limit. Refuses with InstanceTooLargeError when there are more
    than ``cap`` k-near student orders, as the oracle does.
    """
    ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, k).validate_for(inst)
    n = inst.num_students
    _guard(count_knear_permutations(n, k), cap)
    steps = _knear_steps(inst.base_student_order, k)

    group_keys, group_members = _question_groups(inst)
    weights = [len(ms) for ms in group_members]
    slack = [len(key) - n for key in group_keys]  # A + deg - n at A = 0
    groups_of: list[list[int]] = [[] for _ in range(n + 1)]
    for g, key in enumerate(group_keys):
        for s in key:
            groups_of[s].append(g)
    answered = [0] * len(group_keys)  # A per group
    run_min = [0] * len(group_keys)  # M per group

    # Per position p: the student placed there (0 for none), an iterator
    # over its candidates as (student, automaton state id) pairs, the bound
    # of the prefix before p and the run minima that placing order[p]
    # overwrote.
    order = [0] * (n + 1)
    cands_at: list[Iterator[tuple[int, int]]] = [iter(())] * (n + 1)
    bound_at = [0] * (n + 1)
    saved_at: list[list[int]] = [[] for _ in range(n + 1)]
    best_cost: int | float = _INF
    best_pi: tuple[int, ...] | None = None

    p = 1
    cands_at[1] = iter(steps[0][0])
    while p:
        s = order[p]
        if s:
            order[p] = 0
            for g, m in zip(groups_of[s], saved_at[p]):
                answered[g] -= 1
                run_min[g] = m
        s, sid = next(cands_at[p], (0, 0))
        if not s:
            p -= 1
            continue
        gs = groups_of[s]
        bound = bound_at[p]
        new_min = []
        for g in gs:
            # 2A - t fell by one per position since g's last answerer, so
            # its value at t = p - 1 is the least of that stretch.
            a, m = answered[g], run_min[g]
            v = 2 * a - p + 1
            m2 = v if v < m else m
            new_min.append(m2)
            lo = a + slack[g]
            bound += weights[g] * ((m2 if m2 <= lo else lo + 1) - (m if m < lo else lo))
        if bound >= best_cost:
            continue
        if p == n:
            best_cost, best_pi = bound, tuple(order[1:n]) + (s,)
            continue
        saved_at[p] = [run_min[g] for g in gs]
        for g, m2 in zip(gs, new_min):
            run_min[g] = m2
            answered[g] += 1
        order[p] = s
        p += 1
        bound_at[p] = bound
        cands_at[p] = iter(steps[p - 1][sid])

    assert best_pi is not None, "feasible ordering always exists"
    cost, qorder, edits = inner_fixed_orders_cost(inst, best_pi, None, Mode.EDITING)
    assert cost == best_cost
    return Solution(
        cost=cost,
        student_order=best_pi,
        question_order=qorder,
        edits=edits,
        solver_tag="exact.unconstrained_knear_editing",
    )
