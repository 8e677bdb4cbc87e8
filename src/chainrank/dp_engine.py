"""Dynamic programs for the polynomial k-near variants, and ``solve``, the
one map from a ``ProblemSpec`` to the engine its bounds call for.

``solve`` is the only place that turns a spec into an engine call. It
validates the spec once, reads the student and question bounds (ks, kq) from
``ProblemSpec.bounds`` and clamps each to its side's size minus 1; the public
per-variant solvers are one-line calls of it. The clamped bounds alone pick
the engine, and the variant only names the solver tag:

- A bound of 0 facing a free side (None, or the side's size minus 1) is the
  fixed-side problem, ``ideal.solve_fixed_side``.
- Any other question side without a bound runs the unconstrained-addition
  DP, which tracks no frontier at all.
- Everything else runs the frontier engine (``_frontier_table``) with both
  bounds: constrained k-near is kq = 0, both-near k-near ks = kq = k.

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

In addition mode a frontier state costs what it costs in editing, or
infinity where its student would lose a question; the union of the prefix's
neighborhoods appears only in the unconstrained-addition DP, where it is the
target itself.

Tables store costs only; each engine's reconstruction walks the parents
back, which keeps the hot loops small, then hands the orders and each
student's prefix length (its question state's frontier position, or the
size of the union placed so far) to ``ideal.nested_solution``. The
frontier walk-back finds a step's candidate question states by one
backward sweep over the covering edges the fill relaxed over.

A frontier row is banded: an offset, its first possibly finite question
state, and one int with a 32-bit field per question state from the offset
to the end, 4 bytes a cell: 31 value bits under a guard bit, and the
all-ones value ``_CELL_INF`` for infinity. Every state below the offset is
infinite, so an addition row, finite only from its student's hardest
question on, holds a few cells; an editing row starts at 0. A layer keeps
its offsets in a list beside its rows. The fill aligns rows by shifting,
and takes elementwise minima and sums as big-int arithmetic in C; only
the relaxation over the covering edges above a row's offset unpacks it
into its cells. Both engines refuse a table whose estimated size passes
``_TABLE_BYTES_LIMIT``; the estimate is a binomial bound on the state
counts of both sides, taken before any state is built.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from bisect import bisect_right
from dataclasses import replace
from math import comb
from operator import itemgetter, or_

from . import ideal
from .core_model import (
    ChainRankError,
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
# The infinite cell of a packed frontier row: every value bit of its 32-bit
# field set, the guard bit (bit 31) clear.
_CELL_INF = (1 << 31) - 1
# The largest DP table a solve may allocate, by ``_check_table_size``.
_TABLE_BYTES_LIMIT = 1 << 30
# Bytes a student state holds besides its cost row: its layer slot, row
# header and share of the automaton. 45-306 were measured per state on the
# benchmark's n = 300-600 tables; keeping 512 keeps the refused sizes.
_STATE_BYTES = 512
# Bytes a question state holds besides its cells: its tuple, prefix and
# target bitsets, covering edges and automaton state. tracemalloc measured
# 680-960 per state in the question-state build at m = 10-14, k = m - 1,
# rising with m.
_QSTATE_BYTES = 1024


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
    question-state bound times ``_QSTATE_BYTES``, plus the student-state
    bound times ``_STATE_BYTES`` and 4 bytes (one packed cell) per question
    state. The sums stop past the limit, so a refused estimate is a lower
    bound.
    """
    cells = 1 + _window_state_bound(kq, m, _TABLE_BYTES_LIMIT // _QSTATE_BYTES) if m else 0
    per_state = _STATE_BYTES + 4 * cells
    estimate = _QSTATE_BYTES * cells + per_state * _window_state_bound(ks, n, _TABLE_BYTES_LIMIT // per_state)
    if estimate > _TABLE_BYTES_LIMIT:
        raise InstanceTooLargeError(
            f"the DP table needs an estimated {estimate / 2**30:.3g} GiB or more, "
            f"over the limit of {_TABLE_BYTES_LIMIT / 2**30:.3g} GiB"
        )


# ---------------------------------------------------------------------------
# Frontier engine: constrained k-near (kq = 0) and both k-near


def solve_constrained_knear(inst: Instance, k: int, mode: Mode = Mode.EDITING) -> Solution:
    """Minimum edits (or additions) with the question order fixed and the
    student order within k of its base order.

    This is the frontier engine with question bound 0. Frontiers must not
    decrease along the output order, so thresholds are nested. A bound
    k >= n-1 frees the student side, which ``solve`` hands to the fixed-side
    solver.
    """
    return solve(inst, ProblemSpec(Variant.CONSTRAINED_KNEAR, mode, k))


def solve_both_knear(inst: Instance, k: int, mode: Mode = Mode.EDITING) -> Solution:
    """Minimum edits (or additions) with both output orders within k of
    their base orders: the frontier engine with both bounds k, or the
    fixed-side solver when one side has a single entity and k frees the
    other."""
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

    Returns (layers, auto, costs, qstates, edges). ``layers[i-1]`` is a pair
    of lists (rows, offsets) for position i of the student automaton,
    ``auto[i-1]``, indexed by its student states. A state's costs over the
    question states are banded: every question state below its offset is
    infeasible, and its row packs (``_pack``) the cells from the offset to
    nq, one 32-bit field each, field 0 for the offset, ``_CELL_INF`` where
    the state is infeasible. A stored row's first field is finite; a row
    with no finite cell has offset nq and is 0. The rest is what
    reconstruction shares with the fill. Each window's parent rows are
    merged once per layer (aligned at their smallest offset, a packed
    minimum, then the covering edges whose child lies above that offset
    relaxed on the unpacked cells), and the result is shared by every
    occupant with that window.

    ``costs`` is the pair (rows, offsets) of per-student cost rows, student
    u at index u, in the same banded form. Editing costs |b ^ t| for
    neighborhood b and target t, from offset 0. Addition costs the same
    where b lies inside t and ``_CELL_INF`` where u would lose a question;
    its row starts at the first state whose frontier lies at most kq below
    b's hardest question, as every state before it loses that question.
    Both modes fill a state as its window's merged row plus its student's
    costs, saturated at ``_CELL_INF``, from the larger of the two offsets,
    and raise the offset past any infinite cells at its low end. The
    prefix's neighborhoods need no test of their own: a finite merged cell
    has a parent chain that placed each of them inside a parent target, and
    targets only grow along the covering edges.

    No finite cost reaches ``_CELL_INF`` = 2^31 - 1: a cost is at most n*m,
    and ``_check_table_size`` charges more than 4*n*(m+1) bytes, so it
    refuses every table with n*m >= 2^28 before this fill runs.
    """
    n, m = inst.num_students, inst.num_questions
    alpha = inst.base_student_order
    beta0 = inst.base_question_order
    # Row bits in question-position space: bit p-1 for the question at base
    # position p. Reading bin() backwards gives question q at index q-1, and
    # pick lists those characters from the last position to the first.
    pick = itemgetter(*[q - 1 for q in reversed(beta0)])
    nb = [0] + [int("".join(pick(bin(inst.adj_bits[s - 1])[:1:-1].ljust(m, "0"))), 2) for s in alpha]

    auto = knear_automaton(n, ks)
    qstates, edges = _question_states(m, kq)
    nq = len(qstates)
    first_at = [nq] * (m + 1)  # first question state at frontier position >= j
    for qi in range(nq - 1, -1, -1):
        first_at[qstates[qi][0]] = qi
    # The relax of a row from offset o reads edges[relax_from[o]:], those
    # whose child lies above o.
    relax_from = [bisect_right(edges, (o, nq)) for o in range(nq + 1)]
    guards = _pack([1 << 31] * nq)
    full = _pack([_CELL_INF] * nq)
    pad = [_CELL_INF] * nq

    targets = [st[3] for st in qstates]
    cost_rows, cost_offs = [], []
    for b in nb:
        if mode == Mode.EDITING:
            skip = 0
            cost_rows.append(_pack([(b ^ t).bit_count() for t in targets]))
        else:
            skip = first_at[max(0, b.bit_length() - kq)]
            cost_rows.append(_pack([(b ^ t).bit_count() if b & t == b else _CELL_INF for t in targets[skip:]]))
        cost_offs.append(skip)

    def merge(rows: list[int], offs: list[int], parents: list[int]) -> tuple[int, int]:
        """The parent rows' elementwise minimum, relaxed over the covering
        edges, as (row, offset)."""
        merged, lo = rows[parents[0]], offs[parents[0]]
        for p in parents[1:]:
            merged, lo = _banded_min(merged, lo, rows[p], offs[p], nq, guards, full)
        start = relax_from[lo]
        if start == len(edges):
            return merged, lo
        # Cells indexed by question state, those below lo infinite. At
        # offset 0 neither the cells nor the edges are copied.
        cells, todo = _unpack(merged, nq - lo).tolist(), edges
        if lo:
            cells, todo = pad[:lo] + cells, edges[start:]
        for qi, p in todo:
            if cells[p] < cells[qi]:
                cells[qi] = cells[p]
        return _pack(cells[lo:] if lo else cells), lo

    layers: list[tuple[list[int], list[int]]] = []
    rows, offs = [0], [0]  # the start state, parent of position 1: every cell 0
    for pos in auto:
        # The parents depend on the window alone, so the occupants sharing a
        # window share one merged row.
        merged = [merge(rows, offs, parents) for parents in pos.parents]
        rows, offs = [], []
        for e, w in pos.states:
            row, lo = merged[w]
            u = pos.lo + e
            cost, off = cost_rows[u], cost_offs[u]
            if lo > off:
                cost >>= 32 * (lo - off)
                off = lo
            elif off > lo:
                row >>= 32 * (off - lo)
            if off:
                row = _packed_add(row, cost, guards >> 32 * off, full >> 32 * off)
            else:
                row = _packed_add(row, cost, guards, full)
            if row & _CELL_INF == _CELL_INF:
                # Raise the offset past the infinite fields at the low end;
                # a row with none finite goes to nq.
                finite = row ^ full >> 32 * off
                gap = ((finite & -finite).bit_length() - 1) >> 5 if finite else nq - off
                row >>= 32 * gap
                off += gap
            rows.append(row)
            offs.append(off)
        layers.append((rows, offs))
    return layers, auto, (cost_rows, cost_offs), qstates, edges


def _pack(cells) -> int:
    """One int holding ``cells`` (each below 2^32) in 32-bit fields, cell i
    in the i-th 4-byte word of its native-order bytes; ``_unpack`` inverts
    it."""
    return int.from_bytes(array("I", cells).tobytes(), sys.byteorder)


def _unpack(row: int, nq: int) -> array:
    """The nq cells of a packed row, as ``array('I')``."""
    return array("I", row.to_bytes(4 * nq, sys.byteorder))


def _packed_min(a: int, b: int, guards: int) -> int:
    """Elementwise minimum of two packed rows of 31-bit values; ``guards``
    holds bit 31 of every field. Each field of (a | guards) - b keeps its
    guard bit iff a >= b there, without borrowing from the next field, and
    d - (d >> 31) widens each kept guard into a mask of that field's value
    bits, where b is taken."""
    d = ((a | guards) - b) & guards
    return a ^ ((a ^ b) & (d - (d >> 31)))


def _banded_min(a: int, a_off: int, b: int, b_off: int, nq: int, guards: int, full: int) -> tuple[int, int]:
    """Elementwise minimum of two banded rows of nq states, as (row,
    offset) from the lower offset: the row with the higher offset is
    shifted up by 32 bits per state of difference, the gap filled with
    ``_CELL_INF`` fields. ``guards`` and ``full`` are the nq-wide rows of
    guard bits and of ``_CELL_INF`` fields."""
    if a_off != b_off:
        if b_off < a_off:
            a, a_off, b, b_off = b, b_off, a, a_off
        gap = b_off - a_off
        b = b << 32 * gap | full >> 32 * (nq - gap)
    return _packed_min(a, b, guards >> 32 * a_off if a_off else guards), a_off


def _packed_add(a: int, b: int, guards: int, full: int) -> int:
    """Elementwise sum of two packed rows of 31-bit values, saturated at
    ``_CELL_INF``: a field's sum stays below 2^32, and one that reaches
    2^31 sets its guard bit, which widens into all ones there. ``full`` is
    the row of ``_CELL_INF`` fields."""
    r = a + b
    g = r & guards
    if g:
        r = (r | (g - (g >> 31))) & full
    return r


def _reconstruct_frontier(
    inst: Instance,
    kq: int,
    mode: Mode,
    layers: list[tuple[list[int], list[int]]],
    auto: list[KnearPosition],
    costs: tuple[list[int], list[int]],
    qstates: list[tuple],
    edges: list[tuple[int, int]],
) -> Solution:
    """Walk parents back from the cheapest terminal state and assemble the
    Solution; raises CorruptTableError if the chain breaks or the result
    disagrees with the table.

    A parent's question state is qi or one that reaches qi. Each step reads
    the student's cost at qi with a shift and a mask (infinite below its
    cost row's offset), skips the parents whose offset lies above qi, finds
    the cells from a parent's offset up to qi that hold the target with
    ``array.index``, then asks ``_Reach`` whether each, ascending, reaches
    qi. The candidates come ascending, and the first (parent, state) that
    does is taken.
    """
    n, m = inst.num_students, inst.num_questions
    alpha, beta0 = inst.base_student_order, inst.base_question_order
    nq = len(qstates)
    cost_rows, cost_offs = costs

    rows, offs = layers[-1]
    last = [_unpack(row, nq - off) for row, off in zip(rows, offs)]
    terminal_cost = min(map(min, filter(None, last)), default=_CELL_INF)
    if terminal_cost == _CELL_INF:
        raise CorruptTableError("no feasible terminal state")
    sid = next(s for s, row in enumerate(last) if terminal_cost in row)
    qi = offs[sid] + last[sid].index(terminal_cost)

    value = terminal_cost
    chain = [(sid, qi)]
    for i in range(n, 1, -1):
        pos = auto[i - 1]
        e, w = pos.states[sid]
        u = pos.lo + e
        field = qi - cost_offs[u]
        # An infinite cost makes the target negative, which no cell holds.
        target = value - ((cost_rows[u] >> 32 * field) & 0xFFFFFFFF if field >= 0 else _CELL_INF)
        reaches = _Reach(edges, qi, nq)
        rows, offs = layers[i - 2]
        found = None
        for p in pos.parents[w]:
            off = offs[p]
            if off <= qi:
                qp = _first_marked(_unpack(rows[p], nq - off), target, off, qi + 1, reaches)
                if qp is not None:
                    found = (p, qp)
                    break
        if found is None:
            raise CorruptTableError(f"broken parent chain at position {i}")
        sid, qi = found
        value = target
        chain.append(found)
    chain.reverse()

    # The distinct question states along the chain, each as its prefix set
    # and then its target set: rows that nest, so each state's gap comes
    # ascending before its frontier question.
    rows = []
    for q_idx in dict.fromkeys(qi for _sid, qi in chain):
        rows.extend(qstates[q_idx][2:])
    beta_label_order = ideal.nested_question_order(rows, m)
    if sorted(beta_label_order) != list(range(1, m + 1)):
        raise CorruptTableError("reconstructed question order is not a permutation")
    if any(abs(lab - pos) > kq for pos, lab in enumerate(beta_label_order, start=1)):
        raise CorruptTableError("reconstructed question order exceeds displacement bound")

    # Each student answers the first j questions, j its state's frontier.
    student_order = [alpha[pos.lo + pos.states[sid][0] - 1] for pos, (sid, _qi) in zip(auto, chain)]
    sol = ideal.nested_solution(
        inst,
        student_order,
        [beta0[lab - 1] for lab in beta_label_order],
        [qstates[qi][0] for _sid, qi in chain],
        f"dp.frontier.{mode.value}",
    )
    if mode == Mode.ADDITION and sol.edits.counts[1]:
        raise CorruptTableError("addition solve produced deletions")
    if sol.edits.size != terminal_cost:
        raise CorruptTableError(f"reconstructed cost {sol.edits.size} != table cost {terminal_cost}")
    return sol


class _Reach:
    """Which question states reach qi along the covering edges, marked by a
    backward sweep over the edges the fill relaxed, read only as far down
    as asked. The edges are sorted by child and every parent has a lower
    index than its child, so a state's mark is final once every edge whose
    child lies above it has been read."""

    def __init__(self, edges: list[tuple[int, int]], qi: int, nq: int):
        self.edges, self.nq = edges, nq
        self.marks = bytearray(qi + 1)
        self.marks[qi] = 1
        self.unread = bisect_right(edges, (qi, qi))  # edges[:unread] are not yet read

    def __call__(self, x: int) -> bool:
        stop = bisect_right(self.edges, (x, self.nq))  # the first edge whose child lies above x
        if stop < self.unread:
            marks = self.marks
            for q, p in reversed(self.edges[stop : self.unread]):
                if marks[q]:
                    marks[p] = 1
            self.unread = stop
        return bool(self.marks[x])


def _first_marked(cells: array, value: int, off: int, end: int, marked) -> int | None:
    """The first question state off <= i < end with ``cells[i - off] ==
    value`` and ``marked(i)`` true, or None; ``cells`` is a row from offset
    off. C-level scans from one match to the next."""
    i = 0
    try:
        while True:
            i = cells.index(value, i, end - off)
            if marked(i + off):
                return i + off
            i += 1
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Unconstrained k-near addition


def solve_unconstrained_knear_addition(inst: Instance, k: int) -> Solution:
    """Minimum additions making some k-near student order nested, the
    question side free.

    No frontier is tracked: in addition mode the corrected neighborhood of
    the student at position i is forced to the union of the original
    neighborhoods of the weakest i students, so the state is just (position,
    occupant, window). At k = 0 the student order is the base order, which
    ``solve`` hands to the fixed-side solver.
    """
    return solve(inst, ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.ADDITION, k))


def _prefix_union(nb: list[int], pref_union: list[int], pos: KnearPosition, w: int) -> int:
    """Union of the neighborhoods of the labels placed before a state of
    window w at ``pos``: those below ``pos.lo``, which are due there, and
    the window's."""
    lo = pos.lo
    bits = pref_union[lo - 1]
    for x in pos.windows[w]:
        bits |= nb[lo + x]
    return bits


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
    # is the union of the first i neighborhoods, a prefix of the question
    # order that lists each position's new questions.
    labels = [pos.lo + pos.states[sid][0] for pos, sid in zip(auto, chain)]
    rows = [nb[u] for u in labels]
    sol = ideal.nested_solution(
        inst,
        [alpha[u - 1] for u in labels],
        ideal.nested_question_order(rows, inst.num_questions),
        [union.bit_count() for union in itertools.accumulate(rows, or_)],
        "dp.unconstrained_knear.addition",
    )
    if sol.edits.size != terminal_cost:
        raise CorruptTableError(f"reconstructed cost {sol.edits.size} != table cost {terminal_cost}")
    return sol


# ---------------------------------------------------------------------------
# Variant dispatch


_TAGS = {
    Variant.FIXED_ONE_SIDE: "ideal.fixed_side",
    Variant.CONSTRAINED_KNEAR: "dp.constrained_knear",
    Variant.BOTH_KNEAR: "dp.both_knear",
    Variant.UNCONSTRAINED_KNEAR: "dp.unconstrained_knear",
}


def solve(inst: Instance, spec: ProblemSpec, cap: int = DEFAULT_CAP) -> Solution:
    """Solve ``spec`` on ``inst`` with the engine its bounds call for.

    The bounds (ks, kq) come from ``spec.bounds``, each clamped to its
    side's size minus 1, beyond which it constrains nothing; a side is free
    when its bound is None or that size minus 1. The engine follows from the
    clamped bounds alone:

    - a question bound 0 facing a free student side is the fixed-side
      problem with the questions fixed;
    - a student bound 0 facing a free question side is the fixed-side
      problem with the students fixed;
    - any other question side without a bound (None) runs the
      unconstrained-addition DP;
    - everything else runs the frontier engine with (ks, kq).

    The variant names the solver tag, and unconstrained k-near editing, which
    is NP-hard, runs the exact branch-and-bound over the k-near student
    orders; it raises InstanceTooLargeError when there are more than ``cap``
    of them. Recognition and the fixed-both check are not optimization
    problems and raise ChainRankError, as does a missing base order
    (MissingBaseOrderError).
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
    if kq == 0 and ks in (None, n - 1):
        sol = ideal.solve_fixed_side(inst, Side.QUESTIONS_FIXED, inst.base_question_order, mode)
    elif ks == 0 and kq in (None, m - 1):
        sol = ideal.solve_fixed_side(inst, Side.STUDENTS_FIXED, inst.base_student_order, mode)
    elif kq is None:
        _check_table_size(n, ks)
        sol = _reconstruct_unconstrained_addition(inst, *_unconstrained_addition_table(inst, ks))
    else:
        _check_table_size(n, ks, m, kq)
        sol = _reconstruct_frontier(inst, kq, mode, *_frontier_table(inst, ks, kq, mode))
    return replace(sol, solver_tag=f"{_TAGS[variant]}.{mode.value}")
