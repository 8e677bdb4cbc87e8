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
constraint reads |output position - label| <= k. Student states track the
occupant of the current position and the undetermined part of the prefix set
inside the displacement window. Question states track the frontier: the
hardest question answered so far, by its position, identity and easier set
(position 0 = none). Tables store costs only; each engine's reconstruction
re-derives parents, which keeps the hot loops small. The frontier fill works
on lists and stores each finished layer's rows as ``array('d')``; the merged
parent row of a position depends only on the window, so the occupants that
share a window share one merge. Both engines refuse a table whose estimated
size passes ``_TABLE_BYTES_LIMIT`` before building it.
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
from .exact_oracle import DEFAULT_CAP, InstanceTooLargeError, solve_unconstrained_knear_editing_exact

_INF = float("inf")
# The largest DP table a solve may allocate, by ``_check_table_size``.
_TABLE_BYTES_LIMIT = 1 << 30
# Bytes a student state holds besides its cost row: its dict slot, key and
# window tuples, row header and share of the window families. 214-493 were
# measured per state on the benchmark's n = 300-600 tables.
_STATE_BYTES = 512


class CorruptTableError(ChainRankError):
    code = "CORRUPT_TABLE"


# ---------------------------------------------------------------------------
# Window-set machinery


def _window_realizable(combo: tuple[int, ...], pool: list[int], lo: int, i: int, k: int) -> bool:
    """Can some permutation with displacement <= k put the labels below
    ``lo`` plus ``combo`` before position i and the occupant at i, where
    ``pool`` is the window [lo, i+k-1] minus the occupant?

    Sorted assignment is optimal for interval constraints, so it suffices to
    check the sorted prefix against positions 1..i-1 and the sorted
    complement against positions i+1..n. Labels below ``lo`` then sit at
    their own positions, and so do the labels above the window, since they
    fill the last positions; only the window labels need a check.
    """
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


def enumerate_window_sets(i: int, occupant: int, k: int, n_side: int) -> list[tuple[int, ...]]:
    """All candidate window subsets that can precede position i.

    Entities labelled at most i-k-1 are forced into the prefix and omitted;
    each returned tuple lists the chosen entities from the window
    [max(1, i-k), min(n, i+k-1)] minus the occupant, sorted ascending.
    Realizability is decided by the sorted-assignment check rather than by
    enumerating window permutations.
    """
    n = n_side
    if not max(1, i - k) <= occupant <= min(n, i + k):
        return []
    lo = max(1, i - k)
    need = i - lo
    pool = [x for x in range(lo, min(n, i + k - 1) + 1) if x != occupant]
    if need > len(pool):
        return []
    return [
        combo
        for combo in itertools.combinations(pool, need)
        if _window_realizable(combo, pool, lo, i, k)
    ]


def _window_state_bound(k: int, n: int, stop: int) -> int:
    """Upper bound on the number of states in ``_window_families(k, n)``:
    C(|pool|, need) per (position, occupant), with the pool and need of
    ``enumerate_window_sets``. Stops once the sum passes ``stop``, so a
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
    ``_TABLE_BYTES_LIMIT``, before any window family is enumerated.

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


def _window_families(k: int, n: int) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    fams: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for i in range(1, n + 1):
        for u in range(max(1, i - k), min(n, i + k) + 1):
            fam = enumerate_window_sets(i, u, k, n)
            if fam:
                fams[(i, u)] = fam
    return fams


def _parent_candidates(i: int, window: tuple[int, ...], k: int) -> list[tuple[int, tuple[int, ...]]]:
    """(occupant, window) pairs at position i-1 compatible with a position-i
    state whose undetermined prefix part is ``window``.

    The previous occupant u' is drawn from the position-i prefix; removing it
    and re-exposing label i-k-1 (which leaves the forced region when the
    window slides left) yields the parent's window set.
    """
    boundary = i - k - 1
    members = list(window) + ([boundary] if boundary >= 1 else [])
    out = []
    for u_prev in members:
        if abs(u_prev - (i - 1)) > k:
            continue
        w_prev = tuple(sorted(x for x in members if x != u_prev))
        out.append((u_prev, w_prev))
    return sorted(out)


# ---------------------------------------------------------------------------
# Shared helpers


def _bits_to_labels(bits: int) -> list[int]:
    labels = []
    while bits:
        low = bits & -bits
        labels.append(low.bit_length())
        bits ^= low
    return labels


def _prefix_union(nb: list[int], pref_union: list[int], i: int, k: int, window: tuple[int, ...]) -> int:
    """Union of the neighborhoods of the labels before position i: those up
    to i-k-1, which the bound k forces there, and ``window``."""
    bits = pref_union[max(0, i - k - 1)]
    for w in window:
        bits |= nb[w]
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


def _question_states(m: int, k: int, fams_q) -> list[tuple[int, int, tuple[int, ...], int, int]]:
    """(j, v, window, prefix_bits, target_bits) tuples, j=0 sentinel first,
    then sorted by (j, v, window)."""
    states = [(0, 0, (), 0, 0)]
    for j in range(1, m + 1):
        forced_bits = (1 << max(0, j - k - 1)) - 1
        for v in range(max(1, j - k), min(m, j + k) + 1):
            for window in fams_q.get((j, v), []):
                prefix_bits = forced_bits
                for w in window:
                    prefix_bits |= 1 << (w - 1)
                states.append((j, v, window, prefix_bits, prefix_bits | 1 << (v - 1)))
    return states


def _covering_edges(qstates) -> list[tuple[int, int]]:
    """(q, p) index pairs, sorted by q, such that state p covers state q:
    p's frontier position is q's minus one and p's target set is q's prefix
    set.

    Say p precedes q when some k-near question order puts p's frontier at
    position j' and q's at j > j'. Then p precedes q iff p reaches q along
    covering edges, so relaxing over these edges in order of q replaces a
    scan over all earlier states:

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
    by_target: dict[int, list[int]] = {}
    for qi, st in enumerate(qstates):
        by_target.setdefault(st[4], []).append(qi)
    # A target set's size is its frontier position, so equal sets share one.
    return [
        (qi, p)
        for qi, st in enumerate(qstates)
        if st[0] > 0
        for p in by_target.get(st[3], ())
    ]


def _frontier_table(inst: Instance, ks: int, kq: int, mode: Mode):
    """Cost table over (student state, question state) pairs with student
    bound ks < n and question bound kq < m; the callers check the base
    orders.

    Returns (layers, nb, qstates, edges). ``layers[i-1]`` maps a position-i
    student state (occupant, window) to its costs indexed by question state,
    an ``array('d')`` with ``_INF`` where the state is infeasible; the rest is
    what reconstruction shares with the fill. Layer i is filled as lists from
    the lists of layer i-1, whose rows are then frozen into arrays. Each
    window's parent rows are merged and relaxed once per layer and the
    result is shared by every occupant with that window.
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

    fams_s = _window_families(ks, n)
    qstates = _question_states(m, kq, _window_families(kq, m))
    edges = _covering_edges(qstates)
    nq = len(qstates)
    targets = [st[4] for st in qstates]
    first_at = [nq] * (m + 2)  # first question state at frontier position >= j
    for qi in range(nq - 1, -1, -1):
        first_at[qstates[qi][0]] = qi

    editing = mode == Mode.EDITING
    if editing:
        cost_table = [[(b ^ t).bit_count() for t in targets] for b in nb]
    else:
        cost_table = [[(t & ~b).bit_count() for t in targets] for b in nb]

    def fill(i: int, u: int, window: tuple[int, ...], merged: list) -> list:
        """merged + state cost per question state. In addition mode the
        target set must contain the union of the prefix's neighborhoods.
        States whose frontier lies more than kq below the union's hardest
        label miss it; states kq or more above it contain every label up to
        it. Only the band between needs the subset test."""
        row = cost_table[u]
        if editing:
            return list(map(add, merged, row))
        un = _prefix_union(nb, pref_union, i, ks, window) | nb[u]
        hi = un.bit_length()
        lo_q, hi_q = first_at[max(0, hi - kq)], first_at[min(m + 1, hi + kq)]
        out = [_INF] * lo_q
        for qi in range(lo_q, hi_q):
            out.append(_INF if un & ~targets[qi] else merged[qi] + row[qi])
        out.extend(map(add, itertools.islice(merged, hi_q, None), itertools.islice(row, hi_q, None)))
        return out

    def merge(prev: dict, i: int, window: tuple[int, ...]) -> list | None:
        """Elementwise minimum of the parent rows, relaxed over the covering
        edges; None when no parent exists."""
        merged: list | None = None
        for parent in _parent_candidates(i, window, ks):
            arr = prev.get(parent)
            if arr is None:
                continue
            if merged is None:
                merged = list(arr)
            else:
                merged = [a if a < b else b for a, b in zip(merged, arr)]
        if merged is not None:
            for qi, p in edges:
                if merged[p] < merged[qi]:
                    merged[qi] = merged[p]
        return merged

    zeros = [0] * nq
    layers: list[dict] = [
        {
            (u, window): fill(1, u, window, zeros)
            for u in range(1, min(n, 1 + ks) + 1)
            for window in fams_s.get((1, u), [])
        }
    ]
    for i in range(2, n + 1):
        prev = layers[-1]
        cur: dict = {}
        # The parents depend on the window alone, so the occupants sharing a
        # window share one merged row; fill copies it.
        merged_by_window: dict = {}
        for u in range(max(1, i - ks), min(n, i + ks) + 1):
            for window in fams_s.get((i, u), []):
                if window not in merged_by_window:
                    merged_by_window[window] = merge(prev, i, window)
                merged = merged_by_window[window]
                if merged is not None:
                    cur[(u, window)] = fill(i, u, window, merged)
        _freeze(prev)
        layers.append(cur)
    _freeze(layers[-1])
    return layers, nb, qstates, edges


def _freeze(layer: dict) -> None:
    """Store a finished layer's rows as ``array('d')``: 8 bytes a cell, not
    a pointer plus an int object. Costs are at most n*m, far below 2^53, so
    doubles hold them exactly, and ``_INF`` as it is."""
    for key, row in layer.items():
        layer[key] = array("d", row)


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
    layers: list[dict],
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

    def state_cost(i: int, u: int, window: tuple[int, ...], qi: int):
        target_bits = qstates[qi][4]
        if mode == Mode.EDITING:
            return (nb[u] ^ target_bits).bit_count()
        if (_prefix_union(nb, pref_union, i, ks, window) | nb[u]) & ~target_bits:
            return _INF
        return (target_bits & ~nb[u]).bit_count()

    terminal_cost = _INF
    terminal = None
    for key in sorted(layers[-1]):
        for qi, val in enumerate(layers[-1][key]):
            if val < terminal_cost:
                terminal_cost = val
                terminal = (*key, qi)
    if terminal is None:
        raise CorruptTableError("no feasible terminal state")

    u, window, qi = terminal
    value = terminal_cost
    chain = [terminal]
    for i in range(n, 1, -1):
        target = value - state_cost(i, u, window, qi)
        candidates = _reaching(qi, covered_by)
        found = None
        for u_prev, w_prev in _parent_candidates(i, window, ks):
            arr = layers[i - 2].get((u_prev, w_prev))
            if arr is None:
                continue
            for qp in candidates:
                if arr[qp] == target:
                    found = (u_prev, w_prev, qp)
                    break
            if found:
                break
        if found is None:
            raise CorruptTableError(f"broken parent chain at position {i}")
        u, window, qi = found
        value = target
        chain.append(found)
    chain.reverse()

    # Build the question order from the distinct question states in order.
    beta_labels = [0] * (m + 1)
    prev_j, prev_target = 0, 0
    seen_qis = []
    for (_u, _w, q_idx) in chain:
        if seen_qis and seen_qis[-1] == q_idx:
            continue
        seen_qis.append(q_idx)
    for q_idx in seen_qis:
        j, v, _wv, prefix_bits, target_bits = qstates[q_idx]
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
    for (u_i, _w, q_idx) in chain:
        s = alpha[u_i - 1]
        student_order.append(s)
        target_bits = qstates[q_idx][4]
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
    """Returns (layers, nb): ``layers[i-1]`` maps a position-i state
    (occupant, window) to its cost, and ``nb[lab]`` is the neighborhood of
    the student at base position lab."""
    n = inst.num_students
    nb = [0] + [inst.adj_bits[s - 1] for s in inst.base_student_order]
    pref_union = list(itertools.accumulate(nb, or_))
    fams = _window_families(k, n)

    layers: list[dict] = [
        {
            (u, window): 0
            for u in range(1, min(n, 1 + k) + 1)
            for window in fams.get((1, u), [])
        }
    ]
    for i in range(2, n + 1):
        prev = layers[-1]
        cur: dict = {}
        for u in range(max(1, i - k), min(n, i + k) + 1):
            for window in fams.get((i, u), []):
                best = _INF
                for parent in _parent_candidates(i, window, k):
                    val = prev.get(parent, _INF)
                    if val < best:
                        best = val
                if best == _INF:
                    continue
                cost = (_prefix_union(nb, pref_union, i, k, window) & ~nb[u]).bit_count()
                cur[(u, window)] = best + cost
        layers.append(cur)
    return layers, nb


def _reconstruct_unconstrained_addition(
    inst: Instance, k: int, layers: list[dict], nb: list[int]
) -> Solution:
    """Walk parents back from the cheapest terminal state, as the frontier
    reconstruction does."""
    n = inst.num_students
    alpha = inst.base_student_order
    pref_union = list(itertools.accumulate(nb, or_))

    terminal_cost = _INF
    terminal = None
    for key in sorted(layers[-1]):
        if layers[-1][key] < terminal_cost:
            terminal_cost = layers[-1][key]
            terminal = key
    if terminal is None:
        raise CorruptTableError("no feasible terminal state")

    u, window = terminal
    value = terminal_cost
    chain = [terminal]
    for i in range(n, 1, -1):
        cost = (_prefix_union(nb, pref_union, i, k, window) & ~nb[u]).bit_count()
        target = value - cost
        found = None
        for parent in _parent_candidates(i, window, k):
            if layers[i - 2].get(parent) == target:
                found = parent
                break
        if found is None:
            raise CorruptTableError(f"broken parent chain at position {i}")
        u, window = found
        value = target
        chain.append(found)
    chain.reverse()

    # Corrected neighborhoods nest along the order: the one at position i
    # is acc, the union of the first i. The question order lists each
    # position's new questions, ascending, then the unanswered ones.
    additions: list[tuple[int, int]] = []
    student_order = []
    question_order: list[int] = []
    acc = 0
    total = 0
    for (u_i, _w) in chain:
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
        sol = _reconstruct_unconstrained_addition(inst, ks, *_unconstrained_addition_table(inst, ks))
    else:
        _check_table_size(n, ks, m, kq)
        sol = _reconstruct_frontier(inst, ks, kq, mode, *_frontier_table(inst, ks, kq, mode))
    return replace(sol, solver_tag=f"{_TAGS[variant]}.{mode.value}")
