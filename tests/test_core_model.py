from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank import (
    EMPTY_EDITS,
    MissingBaseOrderError,
    DuplicateEdgeError,
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
    validate_instance,
    verify_solution,
)
from conftest import figure_one, random_instance


class TestValidateInstance:
    def test_minimal_instance_is_valid(self):
        inst = make_instance(2, 2, [(1, 1)])
        assert inst.adjacency == ((1,), ())
        assert inst.base_student_order is None

    def test_duplicate_position_in_base_order(self):
        with pytest.raises(NotAPermutationError):
            make_instance(2, 2, [], base_student_order=(1, 1))

    def test_out_of_range_edge(self):
        with pytest.raises(OutOfRangeEdgeError):
            validate_instance(Instance(1, 2, ((1, 3),)))

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            validate_instance(Instance(1, 2, ((1, 1),)))

    def test_rows_are_sorted(self):
        inst = validate_instance(Instance(1, 3, ((3, 1),)))
        assert inst.adjacency == ((1, 3),)

    def test_validation_is_idempotent(self):
        rng = random.Random(7)
        for _ in range(25):
            inst = random_instance(rng)
            assert validate_instance(inst) == inst

    def test_adj_bits_match_rows(self):
        inst = make_instance(2, 4, [(1, 2), (1, 4), (2, 1)])
        assert inst.adj_bits == (0b1010, 0b0001)


class TestApplyEdits:
    def test_addition(self):
        inst = make_instance(1, 2, [(1, 1)])
        out = apply_edits(inst, EditSet.of(additions=[(1, 2)]))
        assert out.adjacency == ((1, 2),)

    def test_deletion(self):
        inst = make_instance(1, 2, [(1, 1)])
        out = apply_edits(inst, EditSet.of(deletions=[(1, 1)]))
        assert out.adjacency == ((),)

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
            absent = [
                (s, q)
                for s in range(1, inst.num_students + 1)
                for q in range(1, inst.num_questions + 1)
                if not inst.has_edge(s, q)
            ]
            dels = rng.sample(present, min(len(present), rng.randint(0, 3)))
            adds = rng.sample(absent, min(len(absent), rng.randint(0, 3)))
            edits = EditSet.of(adds, dels)
            assert apply_edits(apply_edits(inst, edits), edits.reversed()) == inst


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
    adds = [p for p in chosen if not inst.has_edge(*p)]
    dels = [p for p in chosen if inst.has_edge(*p)]
    edits = EditSet.of(adds, dels)
    assert apply_edits(apply_edits(inst, edits), edits.reversed()) == inst


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
