"""Dynamic programs for the polynomial k-near variants, and ``solve``, the
one map from a ``ProblemSpec`` to the solver for its variant.

``solve`` is the only place that turns a spec into an engine call. It
validates the spec once, reads the student and question bounds (ks, kq) from
``ProblemSpec.bounds``, clamps each to its side's size minus 1 and sets the
solver tag; the public per-variant solvers are one-line calls of it. Two
engines cover the three variants:

- The frontier engine (``_frontier_table``) takes both bounds: constrained
  k-near has kq = 0, where the question order is the base order, and
  both-near k-near has ks = kq = k.
- The unconstrained-addition DP has a free question side and tracks no
  frontier at all.

All solvers relabel entities by their base-order positions, so internally a
student (or question) label equals its base position and the k-near
constraint reads |output position - label| <= k. The states of both engines
come from one automaton, ``exact_oracle.knear_automaton``: per position, its
states (an occupant and its window, the undetermined part of the prefix set
inside the displacement window), numbered in (occupant, window) order, and
each window's parents at the position before.

- Student states are its states for (n, ks); a layer is a list indexed by
  state id. The occupants sharing a window share one merged parent row.
- Question states track the frontier: the hardest question answered so
  far, by its position, identity and easier set (position 0 = none). They
  are its states for (m, kq), and the covering edges are its parents.

Tables store costs only; each engine's reconstruction walks the parents
back, which keeps the hot loops small. The frontier fill works on lists and
stores each finished layer's rows as ``array('d')``. Both engines refuse a
table whose estimated size passes ``_TABLE_BYTES_LIMIT``; the estimate is a
binomial bound on the state count, taken before any state is built.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import replace
from math import comb
from operator import add, itemgetter, or_

from . import ideal
from .core_model import (
    ChainRankError,
    EditSet,
    Instance,
    Mode,
    ProblemSpec,
    Side,
    Solution,
    Variant,
)
from .exact_oracle import (
    DEFAULT_CAP,
    InstanceTooLargeError,
    KnearPosition,
    knear_automaton,
    knear_position,
    solve_unconstrained_knear_editing_exact,
)

_INF = float("inf")
# The largest DP table a solve may allocate, by ``_check_table_size``.
_TABLE_BYTES_LIMIT = 1 << 30
# Bytes a student state holds besides its cost row: its layer slot, row
# header and share of the automaton. 45-306 were measured per state on the
# benchmark's n = 300-600 tables; keeping 512 keeps the refused sizes.
_STATE_BYTES = 512


class CorruptTableError(ChainRankError):
    code = "CORRUPT_TABLE"


# ---------------------------------------------------------------------------
# Window states


def enumerate_window_sets(i: int, occupant: int, k: int, n_side: int) -> list[tuple[int, ...]]:
    """All candidate window subsets that can precede position i.

    Entities labelled at most i-k-1 are forced into the prefix and omitted;
    each returned tuple lists the chosen entities from the window
    [max(1, i-k), min(n, i+k-1)] minus the occupant, sorted ascending. A
    view of position i of the k-near automaton, which is built for its
    shape alone.
    """
    if k < 0 or not 1 <= i <= n_side:
        return []
    pos = knear_position(n_side, k, i)
    return [
        tuple(pos.lo + x for x in pos.windows[w])
        for e, w in pos.states
        if pos.lo + e == occupant
    ]


def _window_state_bound(k: int, n: int, stop: int) -> int:
    """Upper bound on the number of states of ``knear_automaton(n, k)``:
    C(|pool|, need) per (position, occupant), where the pool is the window
    [max(1, i-k), min(n, i+k-1)] minus the occupant and need = i - max(1, i-k)
    is the window's size. Stops once the sum passes ``stop``, so a
    runaway bound costs no more than a small one."""
    total = 0
    for i in range(1, n + 1):
        lo, hi = max(1, i - k), min(n, i + k - 1)
        for u in range(lo, min(n, i + k) + 1):
            total += comb(hi - lo + 1 - (u <= hi), i - lo)
        if total > stop:
            break
    return total


def _check_table_size(n: int, ks: int, m: int = 0, kq: int = 0) -> None:
    """Raise InstanceTooLargeError when the estimated table passes
    ``_TABLE_BYTES_LIMIT``, before any automaton state is built.

    The table has n students with bound ks and, when m > 0, m questions with
    bound kq; m = 0 is a table with one cost per state. The estimate is the
    student-state bound times ``_STATE_BYTES`` plus 8 bytes per question
    state. The sums stop past the limit, so a refused estimate is a lower
    bound.
    """
    cells = 1 + _window_state_bound(kq, m, _TABLE_BYTES_LIMIT // 8) if m else 0
    per_state = _STATE_BYTES + 8 * cells
    estimate = per_state * _window_state_bound(ks, n, _TABLE_BYTES_LIMIT // per_state)
    if estimate > _TABLE_BYTES_LIMIT:
        raise InstanceTooLargeError(
            f"the DP table needs an estimated {estimate / 2**30:.3g} GiB or more, "
            f"over the limit of {_TABLE_BYTES_LIMIT / 2**30:.3g} GiB"
        )


# ---------------------------------------------------------------------------
# Shared helpers


def _bits_to_labels(bits: int) -> list[int]:
    labels = []
    while bits:
        low = bits & -bits
        labels.append(low.bit_length())
        bits ^= low
    return labels


def _prefix_union(nb: list[int], pref_union: list[int], pos: KnearPosition, w: int) -> int:
    """Union of the neighborhoods of the labels placed before a state of
    window w at ``pos``: those below ``pos.lo``, which are due there, and
    the window's."""
    lo = pos.lo
    bits = pref_union[lo - 1]
    for x in pos.windows[w]:
        bits |= nb[lo + x]
    return bits


# ---------------------------------------------------------------------------
# Frontier engine: constrained k-near (kq = 0) and both k-near


def solve_constrained_knear(inst: Instance, k: int, mode: Mode = Mode.EDITING) -> Solution:
    """Minimum edits (or additions) with the question order fixed and the
    student order within k of its base order.

    This is the frontier engine with question bound 0. Frontiers must not
    decrease along the output order, so thresholds are nested. A bound
    k >= n-1 admits every student order, which the fixed-side solver handles
    directly.
    """
    return solve(inst, ProblemSpec(Variant.CONSTRAINED_KNEAR, mode, k))


def solve_both_knear(inst: Instance, k: int, mode: Mode = Mode.EDITING) -> Solution:
    """Minimum edits (or additions) with both output orders within k of
    their base orders: the frontier engine with both bounds k."""
    return solve(inst, ProblemSpec(Variant.BOTH_KNEAR, mode, k))


def _question_states(m: int, k: int) -> tuple[list[tuple[int, int, int, int]], list[tuple[int, int]]]:
    """The question states and their covering edges.

    A state is (j, v, prefix_bits, target_bits): frontier position j, the
    question v there, the questions before it and those plus v. The j = 0
    sentinel (nothing answered) comes first, then the states of
    ``knear_automaton(m, k)`` position by position, in its order.

    An edge (q, p) says that p covers q: p is one of q's parents in the
    automaton, so p's frontier position is q's minus one and p's target set
    is q's prefix set; the sentinel covers the states at position 1. The
    edges come sorted by q. Say p precedes q when some k-near question order
    puts p's frontier at position j' and q's at j > j'. Then p precedes q
    iff p reaches q along covering edges, so relaxing over these edges in
    order of q replaces a scan over all earlier states:

    - A k-near order passes through one state per position, and each state
      covers the next; the states from j' to j form the path.
    - Conversely, a path from p to q spells out the questions at positions
      j'+1..j. A k-near order through p, cut after j', followed by that
      path, followed by a k-near order through q from position j+1 on, is
      a k-near order through both.
    - The DP only needs the compatible pairs: p's target set lies inside
      q's prefix set and the gap, q's prefix minus p's target, fits
      positions j'+1..j-1 within k. Splice a witness order through p (up to
      j'), the gap in ascending order, and a witness order through q (from
      j on). Sorted assignment fills the gap whenever any assignment does,
      so the splice is k-near and passes through p and then q.
    """
    states = [(0, 0, 0, 0)]
    edges = []
    prev_first = 0  # the index of the previous position's first state
    for j, pos in enumerate(knear_automaton(m, k), start=1):
        first = len(states)
        forced = (1 << (pos.lo - 1)) - 1
        prefixes = [forced | sum(1 << (pos.lo - 1 + x) for x in window) for window in pos.windows]
        for qi, (e, w) in enumerate(pos.states, start=first):
            states.append((j, pos.lo + e, prefixes[w], prefixes[w] | 1 << (pos.lo + e - 1)))
            edges.extend((qi, prev_first + p) for p in pos.parents[w])
        prev_first = first
    return states, edges


def _frontier_table(inst: Instance, ks: int, kq: int, mode: Mode):
    """Cost table over (student state, question state) pairs with student
    bound ks < n and question bound kq < m; the callers check the base
    orders.

    Returns (layers, auto, nb, qstates, edges). ``layers[i-1][s]`` holds the
    costs of student state s of ``auto[i-1]``, position i of the student
    automaton, indexed by question state: an ``array('d')`` with ``_INF``
    where the state is infeasible. The rest is what reconstruction shares
    with the fill. Layer i is filled as lists from the lists of layer i-1,
    whose rows are then frozen into arrays. Each window's parent rows are
    merged and relaxed once per layer and the result is shared by every
    occupant with that window.
    """
    n, m = inst.num_students, inst.num_questions
    alpha = inst.base_student_order
    beta0 = inst.base_question_order
    # Row bits in question-position space: bit p-1 for the question at base
    # position p. Reading bin() backwards gives question q at index q-1, and
    # pick lists those characters from the last position to the first.
    pick = itemgetter(*[q - 1 for q in reversed(beta0)])
    nb = [0] + [int("".join(pick(bin(inst.adj_bits[s - 1])[:1:-1].ljust(m, "0"))), 2) for s in alpha]
    pref_union = list(itertools.accumulate(nb, or_))

    auto = knear_automaton(n, ks)
    qstates, edges = _question_states(m, kq)
    nq = len(qstates)
    targets = [st[3] for st in qstates]
    first_at = [nq] * (m + 2)  # first question state at frontier position >= j
    for qi in range(nq - 1, -1, -1):
        first_at[qstates[qi][0]] = qi

    editing = mode == Mode.EDITING
    if editing:
        cost_table = [[(b ^ t).bit_count() for t in targets] for b in nb]
    else:
        cost_table = [[(t & ~b).bit_count() for t in targets] for b in nb]

    def fill(u: int, union: int, merged: list) -> list:
        """merged + state cost per question state, where ``union`` is the
        union of the prefix's neighborhoods. In addition mode the target set
        must contain it and nb[u]. States whose frontier lies more than kq
        below the hardest label of those miss it; states kq or more above it
        contain every label up to it. Only the band between needs the subset
        test."""
        row = cost_table[u]
        if editing:
            return list(map(add, merged, row))
        un = union | nb[u]
        hi = un.bit_length()
        lo_q, hi_q = first_at[max(0, hi - kq)], first_at[min(m + 1, hi + kq)]
        out = [_INF] * lo_q
        for qi in range(lo_q, hi_q):
            out.append(_INF if un & ~targets[qi] else merged[qi] + row[qi])
        out.extend(map(add, itertools.islice(merged, hi_q, None), itertools.islice(row, hi_q, None)))
        return out

    def merge(rows: list) -> list:
        """Elementwise minimum of the parent rows, relaxed over the covering
        edges."""
        merged = list(rows[0])
        for arr in rows[1:]:
            merged = [a if a < b else b for a, b in zip(merged, arr)]
        for qi, p in edges:
            if merged[p] < merged[qi]:
                merged[qi] = merged[p]
        return merged

    layers: list[list] = []
    prev: list = [[0] * nq]  # the start state, parent of position 1
    for pos in auto:
        # The parents depend on the window alone, so the occupants sharing a
        # window share one merged row; fill copies it.
        merged = [merge([prev[p] for p in parents]) for parents in pos.parents]
        unions = [0 if editing else _prefix_union(nb, pref_union, pos, w) for w in range(len(merged))]
        cur = [fill(pos.lo + e, unions[w], merged[w]) for e, w in pos.states]
        _freeze(prev)
        layers.append(cur)
        prev = cur
    _freeze(prev)
    return layers, auto, nb, qstates, edges


def _freeze(layer: list) -> None:
    """Store a finished layer's rows as ``array('d')``: 8 bytes a cell, not
    a pointer plus an int object. Costs are at most n*m, far below 2^53, so
    doubles hold them exactly, and ``_INF`` as it is."""
    layer[:] = [array("d", row) for row in layer]


def _reaching(qi: int, covered_by: list[list[int]]) -> list[int]:
    """qi and every question state that reaches it, ascending."""
    seen = {qi}
    stack = [qi]
    while stack:
        for p in covered_by[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return sorted(seen)


def _reconstruct_frontier(
    inst: Instance,
    ks: int,
    kq: int,
    mode: Mode,
    layers: list[list],
    auto: list[KnearPosition],
    nb: list[int],
    qstates: list[tuple],
    edges: list[tuple[int, int]],
) -> Solution:
    """Walk parents back from the cheapest terminal state and assemble the
    Solution; raises CorruptTableError if the chain breaks or the result
    disagrees with the table."""
    n, m = inst.num_students, inst.num_questions
    alpha, beta0 = inst.base_student_order, inst.base_question_order
    pref_union = list(itertools.accumulate(nb, or_))
    covered_by: list[list[int]] = [[] for _ in qstates]
    for qi, p in edges:
        covered_by[qi].append(p)

    def state_cost(pos: KnearPosition, sid: int, qi: int):
        e, w = pos.states[sid]
        u = pos.lo + e
        target_bits = qstates[qi][3]
        if mode == Mode.EDITING:
            return (nb[u] ^ target_bits).bit_count()
        if (_prefix_union(nb, pref_union, pos, w) | nb[u]) & ~target_bits:
            return _INF
        return (target_bits & ~nb[u]).bit_count()

    terminal_cost = _INF
    terminal = None
    for sid, row in enumerate(layers[-1]):
        for qi, val in enumerate(row):
            if val < terminal_cost:
                terminal_cost = val
                terminal = (sid, qi)
    if terminal is None:
        raise CorruptTableError("no feasible terminal state")

    sid, qi = terminal
    value = terminal_cost
    chain = [terminal]
    for i in range(n, 1, -1):
        pos = auto[i - 1]
        target = value - state_cost(pos, sid, qi)
        candidates = _reaching(qi, covered_by)
        found = None
        for p in pos.parents[pos.states[sid][1]]:
            arr = layers[i - 2][p]
            for qp in candidates:
                if arr[qp] == target:
                    found = (p, qp)
                    break
            if found:
                break
        if found is None:
            raise CorruptTableError(f"broken parent chain at position {i}")
        sid, qi = found
        value = target
        chain.append(found)
    chain.reverse()

    # Build the question order from the distinct question states in order.
    beta_labels = [0] * (m + 1)
    prev_j, prev_target = 0, 0
    seen_qis = []
    for (_sid, q_idx) in chain:
        if seen_qis and seen_qis[-1] == q_idx:
            continue
        seen_qis.append(q_idx)
    for q_idx in seen_qis:
        j, v, prefix_bits, target_bits = qstates[q_idx]
        if j == 0:
            continue
        gap = _bits_to_labels(prefix_bits & ~prev_target)
        for offset, lab in enumerate(gap):
            beta_labels[prev_j + 1 + offset] = lab
        beta_labels[j] = v
        prev_j, prev_target = j, target_bits
    tail = _bits_to_labels(((1 << m) - 1) & ~prev_target)
    for offset, lab in enumerate(tail):
        beta_labels[prev_j + 1 + offset] = lab
    beta_label_order = beta_labels[1:]
    if sorted(beta_label_order) != list(range(1, m + 1)):
        raise CorruptTableError("reconstructed question order is not a permutation")
    if any(abs(lab - pos) > kq for pos, lab in enumerate(beta_label_order, start=1)):
        raise CorruptTableError("reconstructed question order exceeds displacement bound")

    additions: list[tuple[int, int]] = []
    deletions: list[tuple[int, int]] = []
    student_order = []
    total = 0
    for pos, (sid, q_idx) in zip(auto, chain):
        u_i = pos.lo + pos.states[sid][0]
        s = alpha[u_i - 1]
        student_order.append(s)
        target_bits = qstates[q_idx][3]
        add_bits = target_bits & ~nb[u_i]
        del_bits = nb[u_i] & ~target_bits
        additions.extend((s, beta0[lab - 1]) for lab in _bits_to_labels(add_bits))
        deletions.extend((s, beta0[lab - 1]) for lab in _bits_to_labels(del_bits))
        total += add_bits.bit_count() + del_bits.bit_count()
    if mode == Mode.ADDITION and deletions:
        raise CorruptTableError("addition solve produced deletions")
    if total != terminal_cost:
        raise CorruptTableError(f"reconstructed cost {total} != table cost {terminal_cost}")

    question_order = tuple(beta0[lab - 1] for lab in beta_label_order)
    return Solution(
        cost=total,
        student_order=tuple(student_order),
        question_order=question_order,
        edits=EditSet.of(additions, deletions),
        solver_tag=f"dp.frontier.{mode.value}",
    )


# ---------------------------------------------------------------------------
# Unconstrained k-near addition


def solve_unconstrained_knear_addition(inst: Instance, k: int) -> Solution:
    """Minimum additions making some k-near student order nested, the
    question side free.

    No frontier is tracked: in addition mode the corrected neighborhood of
    the student at position i is forced to the union of the original
    neighborhoods of the weakest i students, so the state is just (position,
    occupant, window).
    """
    return solve(inst, ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.ADDITION, k))


def _unconstrained_addition_table(inst: Instance, k: int):
    """Returns (layers, auto, nb): ``layers[i-1][s]`` is the cost of state s
    of ``auto[i-1]``, position i of the automaton, and ``nb[lab]`` is the
    neighborhood of the student at base position lab."""
    n = inst.num_students
    nb = [0] + [inst.adj_bits[s - 1] for s in inst.base_student_order]
    pref_union = list(itertools.accumulate(nb, or_))
    auto = knear_automaton(n, k)

    layers: list[list[int]] = []
    prev = [0]  # the start state, parent of position 1
    for pos in auto:
        best = [min([prev[p] for p in parents]) for parents in pos.parents]
        unions = [_prefix_union(nb, pref_union, pos, w) for w in range(len(best))]
        prev = [best[w] + (unions[w] & ~nb[pos.lo + e]).bit_count() for e, w in pos.states]
        layers.append(prev)
    return layers, auto, nb


def _reconstruct_unconstrained_addition(
    inst: Instance, layers: list[list[int]], auto: list[KnearPosition], nb: list[int]
) -> Solution:
    """Walk parents back from the cheapest terminal state, as the frontier
    reconstruction does."""
    n = inst.num_students
    alpha = inst.base_student_order
    pref_union = list(itertools.accumulate(nb, or_))

    terminal_cost = min(layers[-1], default=_INF)
    if terminal_cost == _INF:
        raise CorruptTableError("no feasible terminal state")

    sid = layers[-1].index(terminal_cost)
    value = terminal_cost
    chain = [sid]
    for i in range(n, 1, -1):
        pos = auto[i - 1]
        e, w = pos.states[sid]
        target = value - (_prefix_union(nb, pref_union, pos, w) & ~nb[pos.lo + e]).bit_count()
        sid = next((p for p in pos.parents[w] if layers[i - 2][p] == target), None)
        if sid is None:
            raise CorruptTableError(f"broken parent chain at position {i}")
        value = target
        chain.append(sid)
    chain.reverse()

    # Corrected neighborhoods nest along the order: the one at position i
    # is acc, the union of the first i. The question order lists each
    # position's new questions, ascending, then the unanswered ones.
    additions: list[tuple[int, int]] = []
    student_order = []
    question_order: list[int] = []
    acc = 0
    total = 0
    for pos, sid in zip(auto, chain):
        u_i = pos.lo + pos.states[sid][0]
        s = alpha[u_i - 1]
        student_order.append(s)
        question_order.extend(_bits_to_labels(nb[u_i] & ~acc))
        acc |= nb[u_i]
        add_bits = acc & ~nb[u_i]
        additions.extend((s, q) for q in _bits_to_labels(add_bits))
        total += add_bits.bit_count()
    if total != terminal_cost:
        raise CorruptTableError(f"reconstructed cost {total} != table cost {terminal_cost}")
    question_order.extend(_bits_to_labels(((1 << inst.num_questions) - 1) & ~acc))

    return Solution(
        cost=total,
        student_order=tuple(student_order),
        question_order=tuple(question_order),
        edits=EditSet.of(additions, ()),
        solver_tag="dp.unconstrained_knear.addition",
    )


# ---------------------------------------------------------------------------
# Variant dispatch


_TAGS = {
    Variant.FIXED_ONE_SIDE: "ideal.fixed_side",
    Variant.CONSTRAINED_KNEAR: "dp.constrained_knear",
    Variant.BOTH_KNEAR: "dp.both_knear",
    Variant.UNCONSTRAINED_KNEAR: "dp.unconstrained_knear",
}


def solve(inst: Instance, spec: ProblemSpec, cap: int = DEFAULT_CAP) -> Solution:
    """Solve ``spec`` on ``inst`` with the solver for its variant.

    The DPs take their bounds from ``spec.bounds``, each clamped to its
    side's size minus 1, beyond which it constrains nothing. Constrained
    k-near with a clamped student bound admits every student order and goes
    to the fixed-side solver. Unconstrained k-near editing is NP-hard; it
    runs the exact branch-and-bound over the k-near student orders, which
    raises InstanceTooLargeError when there are more than ``cap`` of them.
    Recognition and the fixed-both check are not optimization problems and
    raise ChainRankError, as does a missing base order (MissingBaseOrderError).
    """
    variant, mode = spec.variant, spec.mode
    if variant == Variant.UNCONSTRAINED_KNEAR and mode == Mode.EDITING:
        # The exact solver validates the spec itself.
        return solve_unconstrained_knear_editing_exact(inst, spec.k, cap)
    spec.validate_for(inst)
    if variant not in _TAGS:
        raise ChainRankError(f"variant {variant.value} has no solver")
    n, m = inst.num_students, inst.num_questions
    ks, kq = (None if b is None else min(b, size - 1) for b, size in zip(spec.bounds, (n, m)))
    if variant == Variant.FIXED_ONE_SIDE or (variant == Variant.CONSTRAINED_KNEAR and ks == n - 1):
        # One side keeps its base order and the other is free.
        if kq == 0:
            sol = ideal.solve_fixed_side(inst, Side.QUESTIONS_FIXED, inst.base_question_order, mode)
        else:
            sol = ideal.solve_fixed_side(inst, Side.STUDENTS_FIXED, inst.base_student_order, mode)
    elif kq is None:
        # Unconstrained addition: the question side is free.
        _check_table_size(n, ks)
        sol = _reconstruct_unconstrained_addition(inst, *_unconstrained_addition_table(inst, ks))
    else:
        _check_table_size(n, ks, m, kq)
        sol = _reconstruct_frontier(inst, ks, kq, mode, *_frontier_table(inst, ks, kq, mode))
    return replace(sol, solver_tag=f"{_TAGS[variant]}.{mode.value}")
