"""Dynamic programs for the polynomial k-near variants.

Two engines cover the three variants:

- The frontier engine (``_frontier_table``) takes separate student and
  question displacement bounds (ks, kq). Constrained k-near is the engine at
  kq = 0, where the question order is the base order; both-near k-near runs
  it at ks = kq = k.
- The unconstrained-addition DP tracks no frontier at all.

All solvers relabel entities by their base-order positions, so internally a
student (or question) label equals its base position and the k-near
constraint reads |output position - label| <= k. Student states track the
occupant of the current position and the undetermined part of the prefix set
inside the displacement window. Question states track the frontier: the
hardest question answered so far, by its position, identity and easier set
(position 0 = none). Tables store costs only; reconstruction re-derives
parents, which keeps the hot loops small.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from operator import add

from . import ideal
from .core_model import (
    ChainRankError,
    EditSet,
    Instance,
    InvalidInstanceError,
    MissingBaseOrderError,
    Mode,
    Side,
    Solution,
    inverse_positions,
)

_INF = float("inf")


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


def _window_sets_bruteforce(i: int, occupant: int, k: int, n_side: int) -> set[tuple[int, ...]]:
    """Reference implementation by filtering all k-near permutations.

    Exponential; kept for cross-checking enumerate_window_sets in tests.
    """
    from .exact_oracle import enumerate_knear_permutations

    forced_end = max(0, i - k - 1)
    found: set[tuple[int, ...]] = set()
    for pi in enumerate_knear_permutations(tuple(range(1, n_side + 1)), k):
        if pi[i - 1] != occupant:
            continue
        found.add(tuple(sorted(e for e in pi[: i - 1] if e > forced_end)))
    return found


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
# DP table plumbing


@dataclass
class DPTable:
    """Cost tables for one solve, enough to reconstruct the optimum.

    ``layers[i-1]`` maps a position-i student state (occupant, window) to
    its cost: for the frontier engine a list indexed by question state, for
    unconstrained addition a scalar.
    """

    kind: str
    mode: Mode
    k: int
    layers: list[dict]
    ctx: dict = field(repr=False, default_factory=dict)


def _bits_to_labels(bits: int) -> list[int]:
    labels = []
    while bits:
        low = bits & -bits
        labels.append(low.bit_length())
        bits ^= low
    return labels


# ---------------------------------------------------------------------------
# Frontier engine: constrained k-near (kq = 0) and both k-near


def _check_base_orders(inst: Instance, k: int, variant: str) -> None:
    if inst.base_student_order is None or inst.base_question_order is None:
        raise MissingBaseOrderError(f"{variant} needs both base orders")
    if k < 0:
        raise InvalidInstanceError("k must be non-negative")


def solve_constrained_knear(inst: Instance, k: int, mode: Mode = Mode.EDITING) -> Solution:
    """Minimum edits (or additions) with the question order fixed and the
    student order within k of its base order.

    This is the frontier engine with question bound 0. Frontiers must not
    decrease along the output order, so thresholds are nested. A bound
    k >= n-1 admits every student order, which the fixed-side solver handles
    directly.
    """
    _check_base_orders(inst, k, "constrained k-near")
    if k >= inst.num_students - 1:
        sol = ideal.solve_fixed_side(inst, Side.QUESTIONS_FIXED, inst.base_question_order, mode)
    else:
        table, terminal = _frontier_table(inst, k, 0, mode)
        sol = reconstruct(table, terminal, inst)
    return replace(sol, solver_tag=f"dp.constrained_knear.{mode.value}")


def solve_both_knear(inst: Instance, k: int, mode: Mode = Mode.EDITING) -> Solution:
    """Minimum edits (or additions) with both output orders within k of
    their base orders: the frontier engine with both bounds k."""
    _check_base_orders(inst, k, "both k-near")
    table, terminal = _frontier_table(inst, k, k, mode)
    return replace(reconstruct(table, terminal, inst), solver_tag=f"dp.both_knear.{mode.value}")


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
    bound ks and question bound kq; the callers check the base orders."""
    n, m = inst.num_students, inst.num_questions
    ks, kq = min(ks, n - 1), min(kq, m - 1)
    alpha = inst.base_student_order
    beta0 = inst.base_question_order
    qpos = inverse_positions(beta0)

    nb = [0] * (n + 1)
    for lab in range(1, n + 1):
        for q in inst.adjacency[alpha[lab - 1] - 1]:
            nb[lab] |= 1 << (qpos[q] - 1)
    pref_union = [0] * (n + 1)
    for lab in range(1, n + 1):
        pref_union[lab] = pref_union[lab - 1] | nb[lab]

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

    def union_with(i: int, u: int, window: tuple[int, ...]) -> int:
        bits = pref_union[max(0, i - ks - 1)] | nb[u]
        for w in window:
            bits |= nb[w]
        return bits

    def fill(i: int, u: int, window: tuple[int, ...], merged: list) -> list:
        """merged + state cost per question state. In addition mode the
        target set must contain the union of the prefix's neighborhoods.
        States whose frontier lies more than kq below the union's hardest
        label miss it; states kq or more above it contain every label up to
        it. Only the band between needs the subset test."""
        row = cost_table[u]
        if editing:
            return list(map(add, merged, row))
        un = union_with(i, u, window)
        hi = un.bit_length()
        lo_q, hi_q = first_at[max(0, hi - kq)], first_at[min(m + 1, hi + kq)]
        out = [_INF] * lo_q
        for qi in range(lo_q, hi_q):
            out.append(_INF if un & ~targets[qi] else merged[qi] + row[qi])
        out.extend(map(add, itertools.islice(merged, hi_q, None), itertools.islice(row, hi_q, None)))
        return out

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
        for u in range(max(1, i - ks), min(n, i + ks) + 1):
            for window in fams_s.get((i, u), []):
                merged: list | None = None
                for parent in _parent_candidates(i, window, ks):
                    arr = prev.get(parent)
                    if arr is None:
                        continue
                    if merged is None:
                        merged = list(arr)
                    else:
                        merged = [a if a < b else b for a, b in zip(merged, arr)]
                if merged is None:
                    continue
                for qi, p in edges:
                    if merged[p] < merged[qi]:
                        merged[qi] = merged[p]
                cur[(u, window)] = fill(i, u, window, merged)
        layers.append(cur)

    best = _INF
    terminal = None
    for key in sorted(layers[-1]):
        arr = layers[-1][key]
        for qi, val in enumerate(arr):
            if val < best:
                best = val
                terminal = (n, key[0], key[1], qi)
    if terminal is None:
        raise CorruptTableError("no feasible terminal state")

    table = DPTable(
        kind="frontier",
        mode=mode,
        k=ks,
        layers=layers,
        ctx={
            "n": n,
            "m": m,
            "kq": kq,
            "nb": nb,
            "qstates": qstates,
            "edges": edges,
            "cost_table": cost_table,
            "union_with": union_with,
            "alpha": alpha,
            "beta0": beta0,
        },
    )
    return table, terminal


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


def _reconstruct_frontier(table: DPTable, terminal, inst: Instance) -> Solution:
    ctx = table.ctx
    n, m = ctx["n"], ctx["m"]
    ks, kq = table.k, ctx["kq"]
    nb, alpha, beta0 = ctx["nb"], ctx["alpha"], ctx["beta0"]
    qstates, cost_table, union_with = ctx["qstates"], ctx["cost_table"], ctx["union_with"]
    mode = table.mode
    covered_by: list[list[int]] = [[] for _ in qstates]
    for qi, p in ctx["edges"]:
        covered_by[qi].append(p)

    def state_cost(i: int, u: int, window: tuple[int, ...], qi: int):
        if mode == Mode.ADDITION and union_with(i, u, window) & ~qstates[qi][4]:
            return _INF
        return cost_table[u][qi]

    _, u, window, qi = terminal
    value = table.layers[n - 1][(u, window)][qi]
    chain = [(u, window, qi)]
    for i in range(n, 1, -1):
        target = value - state_cost(i, u, window, qi)
        candidates = _reaching(qi, covered_by)
        found = None
        for u_prev, w_prev in _parent_candidates(i, window, ks):
            arr = table.layers[i - 2].get((u_prev, w_prev))
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
    terminal_cost = table.layers[n - 1][(terminal[1], terminal[2])][terminal[3]]
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
    table, terminal = _unconstrained_addition_table(inst, k)
    return reconstruct(table, terminal, inst)


def _unconstrained_addition_table(inst: Instance, k: int):
    if inst.base_student_order is None:
        raise MissingBaseOrderError("unconstrained k-near needs a base student order")
    if k < 0:
        raise InvalidInstanceError("k must be non-negative")
    n = inst.num_students
    k = min(k, n)
    alpha = inst.base_student_order

    nb = [0] * (n + 1)
    for lab in range(1, n + 1):
        nb[lab] = inst.adj_bits[alpha[lab - 1] - 1]
    pref_union = [0] * (n + 1)
    for lab in range(1, n + 1):
        pref_union[lab] = pref_union[lab - 1] | nb[lab]

    fams = _window_families(k, n)

    def union_before(i: int, window: tuple[int, ...]) -> int:
        bits = pref_union[max(0, i - k - 1)]
        for w in window:
            bits |= nb[w]
        return bits

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
                cost = (union_before(i, window) & ~nb[u]).bit_count()
                cur[(u, window)] = best + cost
        layers.append(cur)

    best = _INF
    terminal = None
    for key in sorted(layers[-1]):
        val = layers[-1][key]
        if val < best:
            best = val
            terminal = (n, key[0], key[1])
    if terminal is None:
        raise CorruptTableError("no feasible terminal state")

    table = DPTable(
        kind="unconstrained_addition",
        mode=Mode.ADDITION,
        k=k,
        layers=layers,
        ctx={"inst": inst, "n": n, "nb": nb, "union_before": union_before, "alpha": alpha},
    )
    return table, terminal


def _reconstruct_unconstrained_addition(table: DPTable, terminal, inst: Instance) -> Solution:
    ctx = table.ctx
    n, k = ctx["n"], table.k
    nb, alpha = ctx["nb"], ctx["alpha"]
    union_before = ctx["union_before"]

    _, u, window = terminal
    value = table.layers[n - 1][(u, window)]
    chain = [(u, window)]
    for i in range(n, 1, -1):
        cost = (union_before(i, window) & ~nb[u]).bit_count()
        target = value - cost
        found = None
        for parent in _parent_candidates(i, window, k):
            if table.layers[i - 2].get(parent) == target:
                found = parent
                break
        if found is None:
            raise CorruptTableError(f"broken parent chain at position {i}")
        u, window = found
        value = target
        chain.append(found)
    chain.reverse()

    additions: list[tuple[int, int]] = []
    student_order = []
    rows = []
    acc = 0
    total = 0
    for (u_i, _w) in chain:
        s = alpha[u_i - 1]
        student_order.append(s)
        acc |= nb[u_i]
        add_bits = acc & ~nb[u_i]
        additions.extend((s, q) for q in _bits_to_labels(add_bits))
        total += add_bits.bit_count()
        rows.append((s, acc))
    terminal_cost = table.layers[n - 1][(terminal[1], terminal[2])]
    if total != terminal_cost:
        raise CorruptTableError(f"reconstructed cost {total} != table cost {terminal_cost}")

    edited_rows = list(inst.adjacency)
    for s, bits in rows:
        edited_rows[s - 1] = tuple(_bits_to_labels(bits))
    edited = replace(inst, adjacency=tuple(edited_rows))
    question_order = ideal.derive_question_order(edited, student_order)

    return Solution(
        cost=total,
        student_order=tuple(student_order),
        question_order=question_order,
        edits=EditSet.of(additions, ()),
        solver_tag="dp.unconstrained_knear.addition",
    )


# ---------------------------------------------------------------------------
# Shared reconstruction entry point


def reconstruct(table: DPTable, terminal, inst: Instance) -> Solution:
    """Walk parent pointers from a terminal state back to position 1 and
    assemble the Solution; raises CorruptTableError if the chain breaks or
    the recomputed cost disagrees with the table."""
    if table.kind == "frontier":
        return _reconstruct_frontier(table, terminal, inst)
    if table.kind == "unconstrained_addition":
        return _reconstruct_unconstrained_addition(table, terminal, inst)
    raise ValueError(f"unknown table kind {table.kind!r}")
