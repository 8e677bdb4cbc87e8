from __future__ import annotations

import itertools
import random
import tracemalloc
from dataclasses import dataclass
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank import (
    EMPTY_EDITS,
    MissingBaseOrderError,
    EditConflictError,
    EditSet,
    Instance,
    InvalidInstanceError,
    Mode,
    NotAPermutationError,
    OutOfRangeEdgeError,
    ProblemSpec,
    Side,
    Solution,
    Variant,
    apply_edits,
    make_instance,
    solve_fixed_side,
    verify_solution,
)
from chainrank.core_model import EditRowBuilder
from conftest import PairEdits, adjacency, figure_one, random_instance, row_pairs


class TestValidateInstance:
    def test_minimal_instance_is_valid(self):
        inst = make_instance(2, 2, [(1, 1)])
        assert adjacency(inst) == ((1,), ())
        assert inst.base_student_order is None

    def test_duplicate_position_in_base_order(self):
        with pytest.raises(NotAPermutationError):
            make_instance(2, 2, [], base_student_order=(1, 1))

    def test_out_of_range_edge(self):
        with pytest.raises(OutOfRangeEdgeError):
            make_instance(1, 2, [(1, 3)])

    def test_rows_are_sorted(self):
        inst = make_instance(1, 3, [(1, 3), (1, 1)])
        assert adjacency(inst) == ((1, 3),)

    def test_adj_bits_match_rows(self):
        inst = make_instance(2, 4, [(1, 2), (1, 4), (2, 1)])
        assert inst.adj_bits == (0b1010, 0b0001)

    def test_instance_from_bitsets_equals_validated_rows(self):
        rng = random.Random(8)
        for _ in range(25):
            inst = random_instance(rng, max_side=9, with_orders=rng.random() < 0.5)
            built = Instance(
                inst.num_students, inst.num_questions, inst.adj_bits,
                inst.base_student_order, inst.base_question_order,
            )
            assert built == inst and adjacency(built) == adjacency(inst)

    def test_instance_from_bitsets_checks_range_and_orders(self):
        with pytest.raises(OutOfRangeEdgeError):
            Instance(2, 3, (0b001, 0b1000))
        with pytest.raises(OutOfRangeEdgeError):
            Instance(1, 3, (-1,))
        with pytest.raises(InvalidInstanceError):
            Instance(2, 3, (0b001,))
        with pytest.raises(NotAPermutationError):
            Instance(2, 3, (0, 0), base_question_order=(1, 2, 2))

    def test_checks_sizes_then_rows_then_orders(self):
        with pytest.raises(InvalidInstanceError, match="rows for 2 students"):
            Instance(2, 3, (0b1000,), base_student_order=(1, 1))
        with pytest.raises(OutOfRangeEdgeError, match="student 2's bitset"):
            Instance(2, 3, (0, 0b1000), base_student_order=(1, 1))
        with pytest.raises(NotAPermutationError, match="base student order"):
            Instance(2, 3, (0, 0), (1, 1), (1, 2, 2))

    @pytest.mark.parametrize("row", [1.0, "1", None, (1,)])
    def test_row_that_is_not_an_int_is_invalid(self, row):
        with pytest.raises(InvalidInstanceError, match="student 2's bitset .* is not an int"):
            Instance(2, 3, (0b001, row))

    def test_stores_canonical_tuples(self):
        inst = Instance(2, 3, [True, 0b101], [2, 1], (3, 1, 2))
        assert inst.adj_bits == (1, 5) and type(inst.adj_bits[0]) is int
        assert inst.base_student_order == (2, 1) and adjacency(inst) == ((1,), (1, 3))
        assert inst == make_instance(2, 3, [(1, 1), (2, 1), (2, 3)], (2, 1), (3, 1, 2))


class TestApplyEdits:
    def test_addition(self):
        inst = make_instance(1, 2, [(1, 1)])
        out = apply_edits(inst, EditSet.of(additions=[(1, 2)]))
        assert adjacency(out) == ((1, 2),)

    def test_deletion(self):
        inst = make_instance(1, 2, [(1, 1)])
        out = apply_edits(inst, EditSet.of(deletions=[(1, 1)]))
        assert adjacency(out) == ((),)

    def test_deleting_absent_edge_conflicts(self):
        inst = make_instance(1, 2, [])
        with pytest.raises(EditConflictError):
            apply_edits(inst, EditSet.of(deletions=[(1, 1)]))

    def test_adding_present_edge_conflicts(self):
        inst = make_instance(1, 2, [(1, 1)])
        with pytest.raises(EditConflictError):
            apply_edits(inst, EditSet.of(additions=[(1, 1)]))

    def test_reversal_restores_instance(self):
        rng = random.Random(13)
        for _ in range(50):
            inst = random_instance(rng, with_orders=False)
            present = list(inst.edges())
            adj = adjacency(inst)
            absent = [
                (s, q)
                for s in range(1, inst.num_students + 1)
                for q in range(1, inst.num_questions + 1)
                if q not in adj[s - 1]
            ]
            dels = rng.sample(present, min(len(present), rng.randint(0, 3)))
            adds = rng.sample(absent, min(len(absent), rng.randint(0, 3)))
            edits = EditSet.of(adds, dels)
            undo = EditSet(edits.deletions, edits.additions)
            assert apply_edits(apply_edits(inst, edits), undo) == inst


def _solution(inst, student_order, question_order, edits=EMPTY_EDITS, cost=None):
    return Solution(
        cost=edits.size if cost is None else cost,
        student_order=tuple(student_order),
        question_order=tuple(question_order),
        edits=edits,
        solver_tag="test",
    )


class TestVerifySolution:
    def test_ideal_instance_passes_all_checks(self):
        inst = figure_one()
        spec = ProblemSpec(Variant.IMO_RECOGNIZE)
        sol = _solution(inst, (1, 2, 3), (1, 2, 3, 4, 5))
        report = verify_solution(inst, spec, sol)
        assert report.ok

    def test_reversed_students_break_nesting(self):
        inst = figure_one()
        spec = ProblemSpec(Variant.IMO_RECOGNIZE)
        sol = _solution(inst, (3, 1, 2), (1, 2, 3, 4, 5))
        report = verify_solution(inst, spec, sol)
        assert not report["nested_property"].passed

    def test_zero_displacement_forces_identity(self):
        inst = make_instance(2, 1, [(2, 1)], base_student_order=(1, 2))
        spec = ProblemSpec(Variant.UNCONSTRAINED_KNEAR, Mode.EDITING, k=0)
        sol = _solution(inst, (2, 1), (1,))
        report = verify_solution(inst, spec, sol)
        assert not report["student_order_constraint"].passed
        sol_id = _solution(inst, (1, 2), (1,))
        assert verify_solution(inst, spec, sol_id).ok

    def test_cost_mismatch_is_flagged(self):
        inst = figure_one()
        sol = _solution(inst, (1, 2, 3), (1, 2, 3, 4, 5), cost=1)
        report = verify_solution(inst, ProblemSpec(Variant.IMO_RECOGNIZE), sol)
        assert not report["cost_matches_edits"].passed

    def test_addition_mode_rejects_deletions(self):
        inst = figure_one()
        edits = EditSet.of(deletions=[(3, 5)])
        sol = _solution(inst, (1, 2, 3), (1, 2, 3, 4, 5), edits)
        report = verify_solution(
            inst, ProblemSpec(Variant.IMO_RECOGNIZE, Mode.ADDITION), sol
        )
        assert not report["mode_compliance"].passed

    def test_interval_check_needs_prefixes(self):
        inst = make_instance(1, 3, [(1, 2)])
        sol = _solution(inst, (1,), (1, 2, 3))
        report = verify_solution(inst, ProblemSpec(Variant.IMO_RECOGNIZE), sol)
        assert not report["interval_property"].passed
        sol2 = _solution(inst, (1,), (2, 1, 3))
        assert verify_solution(inst, ProblemSpec(Variant.IMO_RECOGNIZE), sol2).ok


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_edit_roundtrip_property(data):
    seed = data.draw(st.integers(0, 10**9))
    rng = random.Random(seed)
    inst = random_instance(rng, max_side=5, with_orders=False)
    pairs = [
        (s, q)
        for s in range(1, inst.num_students + 1)
        for q in range(1, inst.num_questions + 1)
    ]
    chosen = [p for p in pairs if rng.random() < 0.3]
    adj = adjacency(inst)
    adds = [(s, q) for s, q in chosen if q not in adj[s - 1]]
    dels = [(s, q) for s, q in chosen if q in adj[s - 1]]
    edits = EditSet.of(adds, dels)
    assert apply_edits(apply_edits(inst, edits), EditSet(edits.deletions, edits.additions)) == inst


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nesting_verdict_matches_all_pairs(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 4))
    # Mostly prefix neighborhoods with a few flips, so both verdicts occur.
    rows = []
    for _ in range(n):
        cut = data.draw(st.integers(0, m))
        flips = data.draw(st.sets(st.integers(1, m), max_size=1))
        rows.append(set(range(1, cut + 1)) ^ flips)
    inst = make_instance(n, m, [(s, q) for s, row in enumerate(rows, start=1) for q in row])
    order = data.draw(st.permutations(range(1, n + 1)))
    report = verify_solution(inst, ProblemSpec(Variant.IMO_RECOGNIZE), _solution(inst, order, range(1, m + 1)))
    all_pairs = all(
        rows[weak - 1] <= rows[strong - 1]
        for a, weak in enumerate(order)
        for strong in order[a + 1 :]
    )
    assert report["nested_property"].passed == all_pairs


# (variant, fixed side) -> (student bound, question bound), as the paper
# defines the problems; "k" stands for the spec's k, and a side given outside
# fixed-side is ignored.
_BOUNDS = {
    (Variant.IMO_RECOGNIZE, None): (None, None),
    (Variant.FIXED_BOTH_CHECK, None): (0, 0),
    (Variant.FIXED_ONE_SIDE, Side.STUDENTS_FIXED): (0, None),
    (Variant.FIXED_ONE_SIDE, Side.QUESTIONS_FIXED): (None, 0),
    (Variant.FIXED_ONE_SIDE, None): (None, None),
    (Variant.CONSTRAINED_KNEAR, None): ("k", 0),
    (Variant.CONSTRAINED_KNEAR, Side.STUDENTS_FIXED): ("k", 0),
    (Variant.UNCONSTRAINED_KNEAR, None): ("k", None),
    (Variant.BOTH_KNEAR, None): ("k", "k"),
}


def _expected_bounds(variant, side, k):
    return tuple(k if b == "k" else b for b in _BOUNDS[variant, side])


@pytest.mark.parametrize("variant, side", list(_BOUNDS))
def test_bounds_table(variant, side):
    for k in (0, 3):
        assert ProblemSpec(variant, Mode.EDITING, k, side).bounds == _expected_bounds(variant, side, k)


@pytest.mark.parametrize("variant, side", list(_BOUNDS))
def test_validate_for_needs_base_orders_exactly_where_bounded(variant, side):
    spec = ProblemSpec(variant, Mode.EDITING, 1, side)
    for so in (None, (2, 1)):
        for qo in (None, (1, 2)):
            inst = make_instance(2, 2, [(1, 1)], so, qo)
            bounds = _expected_bounds(variant, side, 1)
            if variant == Variant.FIXED_ONE_SIDE and side is None:
                with pytest.raises(InvalidInstanceError):
                    spec.validate_for(inst)
            elif any(b is not None and base is None for b, base in zip(bounds, (so, qo))):
                with pytest.raises(MissingBaseOrderError):
                    spec.validate_for(inst)
            else:
                spec.validate_for(inst)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_order_constraint_verdicts_follow_bounds(data):
    """Each side's verdict: a free side passes, a bounded side passes when
    no entity moves more than the bound from its base position."""
    variant, side = data.draw(st.sampled_from(list(_BOUNDS)))
    k = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 6))
    so = data.draw(st.permutations(range(1, n + 1)))
    qo = data.draw(st.permutations(range(1, m + 1)))
    sol_so = data.draw(st.permutations(range(1, n + 1)))
    sol_qo = data.draw(st.permutations(range(1, m + 1)))
    inst = make_instance(n, m, [], so, qo)
    spec = ProblemSpec(variant, Mode.EDITING, k, side)
    report = verify_solution(inst, spec, _solution(inst, sol_so, sol_qo))
    for what, bound, base, order in zip(
        ("student", "question"), _expected_bounds(variant, side, k), (so, qo), (sol_so, sol_qo)
    ):
        moved = max(abs(pos - base.index(e)) for pos, e in enumerate(order))
        assert report[f"{what}_order_constraint"].passed == (bound is None or moved <= bound)


def _reference_verify(inst: Instance, spec: ProblemSpec, sol: Solution) -> list[tuple[str, bool, str]]:
    """The set-arithmetic verifier that the bitset one replaced, kept as its
    reference: (name, verdict, detail) for each check, in report order."""
    n, m = inst.num_students, inst.num_questions
    checks = []
    adds, dels = sol.edits.additions, sol.edits.deletions
    original = [set(row) for row in adjacency(inst)]

    in_range = all(1 <= s <= n and 1 <= q <= m for s, q in adds | dels)
    bad_add = [p for p in adds if in_range and p[1] in original[p[0] - 1]]
    bad_del = [p for p in dels if in_range and p[1] not in original[p[0] - 1]]
    edits_ok = in_range and not bad_add and not bad_del and not (adds & dels)
    checks.append(("edit_set_valid", edits_ok, "additions must be absent, deletions present, sets disjoint and in range"))
    checks.append((
        "cost_matches_edits",
        sol.cost == len(adds) + len(dels),
        f"cost field {sol.cost} vs {len(adds)} additions + {len(dels)} deletions",
    ))
    checks.append(("mode_compliance", spec.mode != Mode.ADDITION or not dels, "ADDITION solutions must not delete edges"))

    def is_perm(seq, size):
        return len(seq) == size and sorted(seq) == list(range(1, size + 1))

    so_ok = is_perm(sol.student_order, n)
    qo_ok = is_perm(sol.question_order, m)
    checks.append(("student_order_valid", so_ok, "must be a permutation of students"))
    checks.append(("question_order_valid", qo_ok, "must be a permutation of questions"))

    edited = [set(row) for row in original]
    for s, q in adds:
        if 1 <= s <= n and 1 <= q <= m:
            edited[s - 1].add(q)
    for s, q in dels:
        if 1 <= s <= n and 1 <= q <= m:
            edited[s - 1].discard(q)

    if so_ok:
        nested = True
        detail = "every weaker student's neighborhood is contained in every stronger one's"
        by_pos = [edited[s - 1] for s in sol.student_order]
        for weak in range(n - 1):
            if not by_pos[weak] <= by_pos[weak + 1]:
                nested = False
                detail = (
                    f"students {sol.student_order[weak]} (position {weak + 1}) and "
                    f"{sol.student_order[weak + 1]} (position {weak + 2}) break nesting"
                )
                break
        checks.append(("nested_property", nested, detail))
    else:
        checks.append(("nested_property", False, "student order malformed"))

    if qo_ok:
        qpos = {q: pos for pos, q in enumerate(sol.question_order, start=1)}
        interval = True
        detail = "each neighborhood is a prefix of the question order"
        for s in range(1, n + 1):
            positions = sorted(qpos[q] for q in edited[s - 1])
            if positions != list(range(1, len(positions) + 1)):
                interval = False
                detail = f"student {s} answers non-prefix positions {positions}"
                break
        checks.append(("interval_property", interval, detail))
    else:
        checks.append(("interval_property", False, "question order malformed"))

    for what, order, order_ok, base, bound in zip(
        ("student", "question"),
        (sol.student_order, sol.question_order),
        (so_ok, qo_ok),
        (inst.base_student_order, inst.base_question_order),
        spec.bounds,
    ):
        name = f"{what}_order_constraint"
        if not order_ok:
            checks.append((name, False, f"{what} order malformed"))
        elif bound is None:
            checks.append((name, True, "unconstrained"))
        elif base is None:
            checks.append((name, False, f"no base {what} order to compare against"))
        else:
            worst = max(abs(pos - base.index(e)) for pos, e in enumerate(order))
            checks.append((name, worst <= bound, f"max displacement {worst} vs bound {bound}"))
    return checks


_SPECS = [
    ProblemSpec(variant, mode, k, side)
    for variant, side in _BOUNDS
    for mode in Mode
    for k in range(4)
]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_verifier_matches_set_reference(data):
    """The bitset verifier gives the reference's check names, verdicts and
    details on valid solutions and on every kind of broken one."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    inst = random_instance(rng, max_side=8, with_orders=rng.random() < 0.8)
    n, m = inst.num_students, inst.num_questions
    spec = data.draw(st.sampled_from(_SPECS))

    # A valid solution: nested prefixes of a random question order.
    so = list(rng.sample(range(1, n + 1), n))
    qo = list(rng.sample(range(1, m + 1), m))
    cuts = sorted(rng.randint(0, m) for _ in range(n))
    target = {(s, q) for s, cut in zip(so, cuts) for q in qo[:cut]}
    edges = set(inst.edges())
    adds, dels = set(target - edges), set(edges - target)

    tampers = data.draw(st.sets(st.sampled_from([
        "cost", "add_present", "delete_absent", "overlap", "out_of_range",
        "student_order", "question_order", "random_edits",
    ])))
    missing = [(s, q) for s in range(1, n + 1) for q in range(1, m + 1) if (s, q) not in edges]
    if "random_edits" in tampers:
        chosen = {p for p in edges | set(missing) if rng.random() < 0.3}
        adds, dels = chosen - edges, chosen & edges
    if "add_present" in tampers and edges:
        adds.add(rng.choice(sorted(edges)))
    if "delete_absent" in tampers and missing:
        dels.add(rng.choice(missing))
    if "overlap" in tampers:
        pair = (rng.randint(1, n), rng.randint(1, m))
        adds.add(pair)
        dels.add(pair)
    if "out_of_range" in tampers:
        bad = rng.choice([(0, 1), (n + 1, 1), (1, 0), (1, m + 1), (-1, -1), (1, 10**12), (10**12, 1)])
        rng.choice([adds, dels]).add(bad)
    for key, order, size in (("student_order", so, n), ("question_order", qo, m)):
        if key in tampers:
            how = rng.choice(["duplicate", "drop", "extra", "out_of_range"])
            if how == "duplicate":
                order[rng.randrange(size)] = order[rng.randrange(size)]
            elif how == "drop":
                order.pop()
            elif how == "extra":
                order.append(rng.randint(1, size))
            else:
                order[rng.randrange(size)] = rng.choice([0, size + 1, 10**12])
    cost = len(adds) + len(dels) + (rng.choice([-1, 1, 5]) if "cost" in tampers else 0)
    sol = Solution(cost, tuple(so), tuple(qo), EditSet(frozenset(adds), frozenset(dels)), "t")

    report = verify_solution(inst, spec, sol)
    assert [(c.name, c.passed, c.detail) for c in report.checks] == _reference_verify(inst, spec, sol)


# ---------------------------------------------------------------------------
# The row-set constructors that the bitset ones replaced, kept as references


def _validated_order_reference(order, n, label):
    order = tuple(int(x) for x in order)
    if sorted(order) != list(range(1, n + 1)):
        raise NotAPermutationError(f"base {label} order {order!r} is not a permutation of 1..{n}")
    return order


def _check_sizes_reference(n, m, row_count):
    if n < 1 or m < 1:
        raise InvalidInstanceError(f"need at least one student and one question, got {n}x{m}")
    if row_count != n:
        raise InvalidInstanceError(f"adjacency has {row_count} rows for {n} students")


def _row_set_bits(rows) -> list[int]:
    return [sum(1 << (q - 1) for q in row) for row in rows]


def _make_instance_reference(n, m, edges=(), so=None, qo=None) -> Instance:
    rows: list[set[int]] = [set() for _ in range(n)]
    for s, q in edges:
        if not 1 <= int(s) <= n:
            raise OutOfRangeEdgeError(f"edge ({s},{q}) names student outside 1..{n}")
        rows[int(s) - 1].add(int(q))
    _check_sizes_reference(n, m, len(rows))
    for s, row in enumerate(rows, start=1):
        for q in sorted(row):
            if not 1 <= q <= m:
                raise OutOfRangeEdgeError(f"student {s} lists question {q}, outside 1..{m}")
    return Instance(
        n,
        m,
        _row_set_bits(rows),
        None if so is None else _validated_order_reference(so, n, "student"),
        None if qo is None else _validated_order_reference(qo, m, "question"),
    )


def _apply_edits_reference(inst: Instance, edits: EditSet) -> Instance:
    n, m = inst.num_students, inst.num_questions
    overlap = edits.additions & edits.deletions
    if overlap:
        raise EditConflictError(f"pairs both added and deleted: {sorted(overlap)}")
    rows = [set(r) for r in adjacency(inst)]
    for s, q in sorted(edits.additions):
        if not (1 <= s <= n and 1 <= q <= m):
            raise EditConflictError(f"addition ({s},{q}) is out of range")
        if q in rows[s - 1]:
            raise EditConflictError(f"addition ({s},{q}) already present")
        rows[s - 1].add(q)
    for s, q in sorted(edits.deletions):
        if not (1 <= s <= n and 1 <= q <= m):
            raise EditConflictError(f"deletion ({s},{q}) is out of range")
        if q not in rows[s - 1]:
            raise EditConflictError(f"deletion ({s},{q}) is absent")
        rows[s - 1].discard(q)
    return Instance(n, m, _row_set_bits(rows), inst.base_student_order, inst.base_question_order)


@dataclass(frozen=True)
class _RowInstance:
    """The old Instance, which stored row tuples and derived its bitsets."""

    num_students: int
    num_questions: int
    adjacency: tuple[tuple[int, ...], ...]
    base_student_order: tuple[int, ...] | None = None
    base_question_order: tuple[int, ...] | None = None

    @cached_property
    def adj_bits(self) -> tuple[int, ...]:
        return tuple(_row_set_bits(self.adjacency))

    def edges(self):
        for s, row in enumerate(self.adjacency, start=1):
            for q in row:
                yield (s, q)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency)


def _instance_from_bitsets_reference(n, m, bits, so=None, qo=None) -> _RowInstance:
    """The old ``instance_from_bitsets``: row tuples read off the bitsets,
    which then seed the cached ``adj_bits``."""
    _check_sizes_reference(n, m, len(bits))
    rows = []
    for s, b in enumerate(bits, start=1):
        if b >> m:
            raise OutOfRangeEdgeError(f"student {s}'s bitset {b} names a question outside 1..{m}")
        rows.append(tuple(q for q in range(1, m + 1) if b >> (q - 1) & 1))
    inst = _RowInstance(
        n,
        m,
        tuple(rows),
        None if so is None else _validated_order_reference(so, n, "student"),
        None if qo is None else _validated_order_reference(qo, m, "question"),
    )
    vars(inst)["adj_bits"] = tuple(bits)
    return inst


def _outcome(build):
    """(instance, bitsets) of a build, or the (type, message) it raised."""
    try:
        inst = build()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return inst, inst.adj_bits


_ORDER_FAULTS = ("duplicate", "short", "long", "zero", "too_big")


def _broken_order(rng: random.Random, size: int, how: str) -> list[int]:
    order = rng.sample(range(1, size + 1), size)
    if how == "duplicate" and size > 1:
        order[0] = order[1]
    elif how == "short":
        order.pop()
    elif how == "long":
        order.append(rng.randint(1, size))
    elif how == "zero":
        order[rng.randrange(size)] = 0
    elif how == "too_big":
        order[rng.randrange(size)] = size + 1
    return order


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_make_instance_matches_row_set_reference(data):
    """Equal instances without a fault; the same error type and message with
    any single fault: a size below 1, a student or question out of range, a
    malformed base order."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    fault = data.draw(st.sampled_from(["none", "size", "student", "question", "student_order", "question_order"]))
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    edges = [(rng.randint(1, n), rng.randint(1, m)) for _ in range(rng.randint(0, 2 * n * m))]
    so = rng.sample(range(1, n + 1), n) if rng.random() < 0.7 else None
    qo = rng.sample(range(1, m + 1), m) if rng.random() < 0.7 else None
    if fault == "size":
        n, m = rng.choice([(0, m), (n, 0), (-1, m), (0, 0)])
        edges = [] if n < 1 or rng.random() < 0.5 else [(1, 1)]
        so = qo = None
    elif fault == "student":
        edges.insert(rng.randint(0, len(edges)), (rng.choice([0, -1, n + 1, n + 7]), rng.randint(1, m)))
    elif fault == "question":
        # One or two such pairs: the smallest one is reported, as the
        # sorted rows of the reference report it.
        for _ in range(rng.randint(1, 2)):
            edges.insert(rng.randint(0, len(edges)), (rng.randint(1, n), rng.choice([0, -3, m + 1, 10**12])))
    elif fault == "student_order":
        so = _broken_order(rng, n, rng.choice(_ORDER_FAULTS[1:] if n == 1 else _ORDER_FAULTS))
    elif fault == "question_order":
        qo = _broken_order(rng, m, rng.choice(_ORDER_FAULTS[1:] if m == 1 else _ORDER_FAULTS))
    got = _outcome(lambda: make_instance(n, m, edges, so, qo))
    assert got == _outcome(lambda: _make_instance_reference(n, m, edges, so, qo))
    if fault == "none":
        assert isinstance(got[0], Instance)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_instance_matches_bitset_reference(data):
    """``Instance`` against the old ``instance_from_bitsets``: equal bitsets,
    rows, edges, edge count and orders without a fault; the same error type
    and message with one fault: a bit past m, a negative row, a row count
    off, a size below 1, a malformed base order."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    fault = data.draw(st.sampled_from(["none", "bit", "negative", "rows", "size", "student_order", "question_order"]))
    n, m = rng.randint(1, 6), rng.randint(1, 70)
    bits = [rng.getrandbits(m) for _ in range(n)]
    so = rng.sample(range(1, n + 1), n) if rng.random() < 0.7 else None
    qo = rng.sample(range(1, m + 1), m) if rng.random() < 0.7 else None
    # One or two faulty rows of the fault's kind: the first is reported.
    for s in rng.sample(range(n), min(n, rng.randint(1, 2))):
        if fault == "bit":
            bits[s] |= 1 << rng.choice([m, m + 1, rng.randint(m, m + 70)])
        elif fault == "negative":
            bits[s] = rng.choice([-1, -bits[s] - 1, -(1 << m)])
    if fault == "rows":
        bits = bits[:-1] if rng.random() < 0.5 else bits + [0]
    elif fault == "size":
        n, m = rng.choice([(0, m), (n, 0), (-2, m), (0, 0)])
    elif fault == "student_order":
        so = _broken_order(rng, n, rng.choice(_ORDER_FAULTS[1:] if n == 1 else _ORDER_FAULTS))
    elif fault == "question_order":
        qo = _broken_order(rng, m, rng.choice(_ORDER_FAULTS[1:] if m == 1 else _ORDER_FAULTS))

    def outcome(build):
        try:
            inst = build()
        except Exception as exc:  # noqa: BLE001 - the type is what is compared
            return type(exc), str(exc)
        return (
            inst.num_students,
            inst.num_questions,
            inst.adj_bits,
            adjacency(inst),
            list(inst.edges()),
            inst.edge_count,
            inst.base_student_order,
            inst.base_question_order,
        )

    got = outcome(lambda: Instance(n, m, bits, so, qo))
    assert got == outcome(lambda: _instance_from_bitsets_reference(n, m, bits, so, qo))
    if fault == "none":
        assert isinstance(got[0], int)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_apply_edits_matches_row_set_reference(data):
    """The same for ``apply_edits``: pairs both added and deleted, out of
    range, added while present or deleted while absent."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    fault = data.draw(st.sampled_from(["none", "overlap", "out_of_range", "present", "absent"]))
    inst = random_instance(rng, max_side=5)
    n, m = inst.num_students, inst.num_questions
    edges = set(inst.edges())
    pairs = [(s, q) for s in range(1, n + 1) for q in range(1, m + 1)]
    chosen = [p for p in pairs if rng.random() < 0.3]
    adds = {p for p in chosen if p not in edges}
    dels = {p for p in chosen if p in edges}
    # One or two faulty pairs of the fault's kind: the first in sorted
    # order is reported.
    for _ in range(rng.randint(1, 2)):
        pair = rng.choice(pairs)
        if fault == "overlap":
            adds.add(pair)
            dels.add(pair)
        elif fault == "out_of_range":
            rng.choice([adds, dels]).add(rng.choice([(0, 1), (n + 1, 1), (1, 0), (1, m + 1)]))
        elif fault == "present" and edges:
            adds.add(rng.choice(sorted(edges)))
        elif fault == "absent" and len(edges) < len(pairs):
            dels.add(rng.choice(sorted(set(pairs) - edges)))
    edits = EditSet(frozenset(adds), frozenset(dels))
    assert _outcome(lambda: apply_edits(inst, edits)) == _outcome(lambda: _apply_edits_reference(inst, edits))


_ROW_FAULTS = ("none", "row_count", "wide", "present", "absent", "overlap")


def _drawn_rows(rng: random.Random, inst: Instance, fault: str):
    """(student order, question order, addition rows, deletion rows): the
    rows of a random nested solution, each student's edits to a prefix of
    the question order, with one fault of the given kind planted."""
    n, m = inst.num_students, inst.num_questions
    so = rng.sample(range(1, n + 1), n)
    qo = rng.sample(range(1, m + 1), m)
    prefix = [sum(1 << (q - 1) for q in qo[:c]) for c in range(m + 1)]
    targets = [0] * n
    for s, c in zip(so, sorted(rng.randint(0, m) for _ in range(n))):
        targets[s - 1] = prefix[c]
    adds = [t & ~b for t, b in zip(targets, inst.adj_bits)]
    dels = [b & ~t for t, b in zip(targets, inst.adj_bits)]
    s = rng.randrange(n)
    row = inst.adj_bits[s]
    if fault == "row_count":
        rows = rng.choice([adds, dels])
        how = rng.choice(["drop", "zero", "extra"])
        if how == "drop":
            rows.pop()
        else:
            rows.append(0 if how == "zero" else rng.randrange(1, 1 << (m + 2)))
    elif fault == "wide":  # a question at or past m + 1
        rng.choice([adds, dels])[s] |= 1 << (m + rng.randrange(3))
    elif fault == "present" and row:
        adds[s] |= row & -row
    elif fault == "absent" and row != (1 << m) - 1:
        gap = ~row & ((1 << m) - 1)
        dels[s] |= gap & -gap
    elif fault == "overlap":
        bit = 1 << rng.randrange(m)
        adds[s] |= bit
        dels[s] |= bit
    return so, qo, adds, dels


def _row_built_and_pairs(add_rows, del_rows):
    """The same edits as ``EditSet.from_rows`` and as bare pair sets read
    bit by bit; the row-built set derives those pairs."""
    row_built = EditSet.from_rows(add_rows, del_rows)
    pairs = PairEdits(frozenset(row_pairs(add_rows)), frozenset(row_pairs(del_rows)))
    assert (row_built.additions, row_built.deletions) == (pairs.additions, pairs.deletions)
    assert row_built.counts == (len(pairs.additions), len(pairs.deletions))
    return row_built, pairs


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_row_built_edits_verify_as_their_pairs(data):
    """The verifier gives a row-built edit set the set reference's report
    on its pairs, check by check and detail by detail: valid rows, and rows
    of the wrong count, with a question past m, an addition of an edge
    present, a deletion of one absent, or a pair both added and deleted."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    inst = random_instance(rng, max_side=8, with_orders=rng.random() < 0.8)
    spec = data.draw(st.sampled_from(_SPECS))
    fault = data.draw(st.sampled_from(_ROW_FAULTS))
    so, qo, add_rows, del_rows = _drawn_rows(rng, inst, fault)
    row_built, pairs = _row_built_and_pairs(add_rows, del_rows)
    cost = row_built.size + rng.choice([0, 0, 1])
    report = [(c.name, c.passed, c.detail) for c in verify_solution(inst, spec, Solution(cost, so, qo, row_built, "t")).checks]
    assert report == _reference_verify(inst, spec, Solution(cost, so, qo, pairs, "t"))
    if fault == "none":
        passed = {name for name, ok, _ in report if ok}
        assert {"edit_set_valid", "nested_property", "interval_property"} <= passed


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_built_edits_apply_as_their_pairs(data):
    """The same for ``apply_edits``: the edited instance, or the error and
    its text, of the reference on the pairs."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    inst = random_instance(rng, max_side=6)
    fault = data.draw(st.sampled_from(_ROW_FAULTS))
    _so, _qo, add_rows, del_rows = _drawn_rows(rng, inst, fault)
    row_built, pairs = _row_built_and_pairs(add_rows, del_rows)
    assert _outcome(lambda: apply_edits(inst, row_built)) == _outcome(lambda: _apply_edits_reference(inst, pairs))


def test_row_built_edits_reject_negative_rows():
    with pytest.raises(ValueError):
        EditSet.from_rows([1, -2], [0, 0])


def _drawn_runs(rng: random.Random, inst: Instance) -> list[tuple[int, int, list[int]]]:
    """(block, student, question ids) runs as a parser feeds them: sparse
    or dense random edits split into runs of one student, students repeated
    and out of order, repeated pairs, and sometimes a student past n, a
    question past m, an id of 0, a negative or a huge one."""
    n, m = inst.num_students, inst.num_questions
    runs = []
    for block in (0, 1):
        density = rng.choice([0.3, 0.9])
        pairs = [(s, q) for s in range(1, n + 1) for q in range(1, m + 1) if rng.random() < density]
        pairs += rng.choices(pairs, k=min(len(pairs), rng.randint(0, 2)))
        for _ in range(rng.choice([0, 0, 0, 1, 2])):
            s, q = rng.randint(1, n), rng.randint(1, m)
            pairs.append(rng.choice([
                (n + 1, q), (s, m + 1), (s, m + 3), (s, 1 << 16), (s, (1 << 16) + 1),
                (0, q), (s, 0), (-2, q), (s, -1), (10**12, q), (s, 10**12),
            ]))
        if rng.random() < 0.5:
            rng.shuffle(pairs)
        else:
            pairs.sort()
        for s, run in itertools.groupby(pairs, key=lambda p: p[0]):
            qids = [q for _, q in run]
            while qids:  # a run split in two, as a blank line splits it
                cut = rng.randint(1, len(qids))
                runs.append((block, s, qids[:cut]))
                qids = qids[cut:]
    if rng.random() < 0.2:
        rng.shuffle(runs)  # additions and deletions interleaved
    return runs


def _held_in_rows(pair: tuple[int, int]) -> bool:
    s, q = pair
    return s >= 1 and 1 <= q <= 1 << 16


def _storage(edits: EditSet):
    """(pairs in the rows, stray pairs) of each block of an edit set."""
    return [
        (frozenset(row_pairs(rows)), strays)
        for rows, strays in zip((edits._add_rows, edits._del_rows), edits._strays)
    ]


def _row_bytes(edits: EditSet) -> int:
    """What the budget charges for rows of this size and width, at least:
    8 bytes per student slot and each row's bytes once."""
    rows = edits._add_rows + edits._del_rows
    return 8 * len(rows) + sum(row.bit_length() // 8 + 1 for row in rows if row)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_edit_row_builder_matches_pairs(data):
    """``EditRowBuilder`` holds the runs' pairs: its edit set has exactly
    the drawn pairs, with exact counts, the rows holding every pair whose
    ids are at least 1 with a question at most 2^16 and the strays every
    other pair; the verifier gives the set reference's report check by
    check, and ``apply_edits`` the reference's result or error text."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    side = rng.choice([8, 24])  # 24 gives runs of more than 16 ids
    inst = figure_one() if rng.random() < 0.3 else random_instance(rng, max_side=side, with_orders=rng.random() < 0.8)
    n, m = inst.num_students, inst.num_questions
    spec = data.draw(st.sampled_from(_SPECS))
    runs = _drawn_runs(rng, inst)
    builder = EditRowBuilder()
    for block, s, qids in runs:
        builder.add(block, s, qids)
    edits = builder.edits()
    pairs = PairEdits(*(frozenset((s, q) for b, s, qids in runs if b == block for q in qids) for block in (0, 1)))
    assert (edits.additions, edits.deletions) == (pairs.additions, pairs.deletions)
    assert edits.counts == (len(pairs.additions), len(pairs.deletions))
    if max((s for _, s, _ in runs), default=1) < 10**12:  # a huge student spends the budget
        for (held, strays), block_pairs in zip(_storage(edits), (pairs.additions, pairs.deletions)):
            assert held == {p for p in block_pairs if _held_in_rows(p)}
            assert strays == {p for p in block_pairs if not _held_in_rows(p)}
    so, qo = tuple(rng.sample(range(1, n + 1), n)), tuple(rng.sample(range(1, m + 1), m))
    cost = edits.size + rng.choice([0, 0, 1])
    report = [(c.name, c.passed, c.detail) for c in verify_solution(inst, spec, Solution(cost, so, qo, edits, "t")).checks]
    assert report == _reference_verify(inst, spec, Solution(cost, so, qo, pairs, "t"))
    assert _outcome(lambda: apply_edits(inst, edits)) == _outcome(lambda: _apply_edits_reference(inst, pairs))


def test_edit_row_builder_budget():
    """Rows hold a file within 16 MiB: 8 bytes per student slot up to the
    largest student id, plus the bytes of each run's row. Past that, or
    with a question id past 2^16, the builder keeps the pairs as strays:
    the edits are the runs' pairs, and the rows they hold stay within the
    budget."""

    def built(runs):
        builder = EditRowBuilder()
        for s, qids in runs:
            builder.add(0, s, qids)
        edits = builder.edits()
        (held, strays), _ = _storage(edits)
        pairs = {(s, q) for s, qids in runs for q in qids}
        assert held | strays == pairs and edits.counts == (len(pairs), 0)
        assert _row_bytes(edits) <= 1 << 24
        return held, strays

    wide = 1 << 16  # a row of 8 KiB and one bit
    assert not built([(s, [wide]) for s in range(1, 1901)])[1]
    held, strays = built([(s, [wide]) for s in range(1, 2201)])
    assert held and strays and max(held) < min(strays)  # from the run that spends the budget on
    assert built([(1_900_000, [1])]) == ({(1_900_000, 1)}, frozenset())
    assert built([(2_200_000, [1])]) == (frozenset(), {(2_200_000, 1)})
    assert built([(1, [wide + 1])]) == (frozenset(), {(1, wide + 1)})
    # A student split over many runs pays for its row at each one.
    assert not built([(1, [wide])] + [(s % 2 + 1, [1]) for s in range(3800)])[1]
    held, strays = built([(1, [wide])] + [(s % 2 + 1, [1]) for s in range(4400)])
    assert held == {(1, wide), (1, 1), (2, 1)} and not strays  # repeats the rows hold never stray


def test_strays_in_range_reach_the_rows():
    """A question id past 2^16 is a stray, and still in range for an
    instance with more questions: the verifier and ``apply_edits`` read it
    as the set reference does."""
    m = (1 << 16) + 3
    inst = Instance(2, m, [1, 1 << (m - 1)])
    spec = ProblemSpec(Variant.IMO_RECOGNIZE)  # no base order: the reference's displacement is quadratic
    for adds, dels in (([(1, m), (2, 1)], [(2, m)]), ([(1, m), (3, m)], [(1, m)])):
        edits, pairs = EditSet.of(adds, dels), PairEdits(frozenset(adds), frozenset(dels))
        assert any(edits._strays) and (edits.additions, edits.deletions) == (pairs.additions, pairs.deletions)
        sol = Solution(edits.size, (1, 2), tuple(range(1, m + 1)), edits, "t")
        report = [(c.name, c.passed, c.detail) for c in verify_solution(inst, spec, sol).checks]
        assert report == _reference_verify(inst, spec, Solution(sol.cost, sol.student_order, sol.question_order, pairs, "t"))
        assert _outcome(lambda: apply_edits(inst, edits)) == _outcome(lambda: _apply_edits_reference(inst, pairs))


def test_verifier_memory_does_not_grow_with_questions_squared():
    """On 3 students and 30,000 questions ``verify_solution`` and
    ``apply_edits`` hold per-student rows and one prefix mask per
    neighbourhood size present: a bit per question id and a mask per
    prefix took 119.5 MB and 62 MB traced."""
    rng = random.Random(30000)
    m = 30000
    inst = Instance(3, m, [rng.getrandbits(m) for _ in range(3)], (1, 2, 3), tuple(range(1, m + 1)))
    spec = ProblemSpec(Variant.FIXED_ONE_SIDE, Mode.EDITING, 0, Side.QUESTIONS_FIXED)
    sol = solve_fixed_side(inst, Side.QUESTIONS_FIXED, inst.base_question_order)
    bad = Solution(sol.cost, sol.student_order, sol.question_order[::-1], sol.edits, sol.solver_tag)
    for candidate, ok in ((sol, True), (bad, False)):
        tracemalloc.start()
        try:
            report = verify_solution(inst, spec, candidate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok == ok
        assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MB"
    tracemalloc.start()
    try:
        edited = apply_edits(inst, sol.edits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edited.adj_bits[0] == (1 << edited.adj_bits[0].bit_count()) - 1
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MB"
