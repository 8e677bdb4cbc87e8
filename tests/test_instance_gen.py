from __future__ import annotations

import random
import time
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank import (
    GenConfig,
    Mode,
    NestingCertificate,
    ProblemSpec,
    Variant,
    gen_ideal,
    make_instance,
    oracle_solve,
    perturb_edges,
    perturb_order,
    recognize_ideal,
    with_base_orders,
)
from chainrank.core_model import Instance, InvalidInstanceError
from chainrank.instance_gen import NotEnoughPairsError, _rng
from conftest import adjacency, random_instance


class TestGenIdeal:
    def test_output_is_always_ideal(self):
        for seed in range(20):
            inst, _, _ = gen_ideal(GenConfig(num_students=4, num_questions=6, seed=seed))
            assert isinstance(recognize_ideal(inst), NestingCertificate)

    def test_reproducible(self):
        cfg = GenConfig(num_students=5, num_questions=5, seed=42)
        assert gen_ideal(cfg) == gen_ideal(cfg)

    def test_forced_prefix_lengths_make_figure_one_shape(self):
        cfg = GenConfig(num_students=3, num_questions=5, seed=0)
        inst, true_students, _ = gen_ideal(cfg, prefix_lengths=(2, 4, 5))
        assert sorted(len(adjacency(inst)[s - 1]) for s in range(1, 4)) == [2, 4, 5]
        cert = recognize_ideal(inst)
        assert isinstance(cert, NestingCertificate)
        sizes = [len(adjacency(inst)[s - 1]) for s in cert.student_order]
        assert sizes == [2, 4, 5]

    def test_one_by_one_is_deterministic(self):
        cfg = GenConfig(num_students=1, num_questions=1, seed=3)
        inst, _, _ = gen_ideal(cfg)
        assert gen_ideal(cfg)[0] == inst
        assert inst.edge_count in (0, 1)

    def test_bad_prefix_lengths(self):
        cfg = GenConfig(num_students=2, num_questions=3, seed=0)
        with pytest.raises(InvalidInstanceError):
            gen_ideal(cfg, prefix_lengths=(3, 1))
        with pytest.raises(InvalidInstanceError):
            gen_ideal(cfg, prefix_lengths=(1, 4))

    def test_true_orders_line_up_with_prefixes(self):
        inst, true_students, true_questions = gen_ideal(
            GenConfig(num_students=4, num_questions=5, seed=9)
        )
        lengths = [len(adjacency(inst)[s - 1]) for s in true_students]
        assert lengths == sorted(lengths)
        for pos, s in enumerate(true_students):
            assert set(adjacency(inst)[s - 1]) == set(true_questions[: lengths[pos]])

    def test_recognition_recovers_true_order_up_to_ties(self):
        for seed in range(15):
            inst, true_students, _ = gen_ideal(GenConfig(num_students=6, num_questions=8, seed=seed))
            cert = recognize_ideal(inst)
            recovered = [inst.adj_bits[s - 1] for s in cert.student_order]
            truth = [inst.adj_bits[s - 1] for s in true_students]
            assert recovered == truth


class TestPerturbEdges:
    def test_zero_flips_is_identity(self):
        inst, _, _ = gen_ideal(GenConfig(num_students=3, num_questions=4, seed=1))
        cfg = GenConfig(num_students=3, num_questions=4, seed=1, flip_count=0)
        assert perturb_edges(inst, cfg) == inst

    def test_delete_everything(self):
        inst, _, _ = gen_ideal(GenConfig(num_students=3, num_questions=4, seed=2))
        cfg = GenConfig(
            num_students=3, num_questions=4, seed=2,
            flip_count=inst.edge_count, mode_hint="delete",
        )
        assert perturb_edges(inst, cfg).edge_count == 0

    def test_exact_flip_count(self):
        inst, _, _ = gen_ideal(GenConfig(num_students=4, num_questions=4, seed=3))
        for flips in (1, 3, 5):
            cfg = GenConfig(num_students=4, num_questions=4, seed=3, flip_count=flips)
            out = perturb_edges(inst, cfg)
            diff = set(inst.edges()) ^ set(out.edges())
            assert len(diff) == flips

    def test_add_mode_only_adds(self):
        inst, _, _ = gen_ideal(GenConfig(num_students=3, num_questions=3, seed=4))
        cfg = GenConfig(num_students=3, num_questions=3, seed=4, flip_count=2, mode_hint="add")
        out = perturb_edges(inst, cfg)
        assert set(inst.edges()) <= set(out.edges())

    def test_flip_count_must_fit_the_pairs(self):
        with pytest.raises(InvalidInstanceError, match="flip_count must be non-negative"):
            GenConfig(num_students=3, num_questions=3, flip_count=-4)
        with pytest.raises(InvalidInstanceError, match="exceeds the number of pairs"):
            GenConfig(num_students=3, num_questions=3, flip_count=10)
        assert GenConfig(num_students=3, num_questions=3, flip_count=9).flip_count == 9

    def test_not_enough_pairs(self):
        inst = make_instance(1, 1, [(1, 1)])
        cfg = GenConfig(num_students=1, num_questions=1, seed=0, flip_count=1, mode_hint="add")
        with pytest.raises(NotEnoughPairsError):
            perturb_edges(inst, cfg)

    def test_flip_count_bounds_editing_optimum(self):
        for seed in range(8):
            cfg = GenConfig(num_students=4, num_questions=4, seed=seed, flip_count=3)
            inst, true_s, true_q = gen_ideal(cfg)
            noisy = perturb_edges(inst, cfg)
            noisy = with_base_orders(noisy, true_s, true_q)
            spec = ProblemSpec(Variant.BOTH_KNEAR, Mode.EDITING, 0)
            assert oracle_solve(noisy, spec).cost <= 3


class TestPerturbOrder:
    def test_k0_is_identity(self):
        assert perturb_order((3, 1, 2), 0, 17) == (3, 1, 2)

    def test_only_valid_permutations_appear(self):
        seen = set()
        for seed in range(200):
            seen.add(perturb_order((1, 2, 3), 1, seed))
        assert seen <= {(1, 2, 3), (2, 1, 3), (1, 3, 2)}
        assert len(seen) > 1

    def test_displacement_bound_holds(self):
        base = tuple(range(1, 13))
        for seed in range(100):
            out = perturb_order(base, 2, seed)
            assert sorted(out) == list(base)
            for pos, e in enumerate(out, start=1):
                assert abs(pos - e) <= 2

    def test_huge_k_walks_as_n_minus_one(self):
        """Past n - 1 every swap is admissible, so the walk is k = n - 1's:
        k = 10**12 neither runs away nor changes the result. k = 10**5 goes
        first, so that a walk of 4·n·k swaps fails (in seconds) rather than
        hangs."""
        base = tuple(range(1, 51))
        want = perturb_order(base, 49, 5)
        for k in (10**5, 10**12):
            start = time.perf_counter()
            out = perturb_order(base, k, 5)
            assert time.perf_counter() - start < 1.0, k
            assert out == want, k

    def test_zero_noise_with_perturbed_orders_is_still_free(self):
        from chainrank import (
            solve_both_knear,
            solve_constrained_knear,
            solve_unconstrained_knear_addition,
        )

        for seed in range(6):
            cfg = GenConfig(num_students=5, num_questions=5, seed=seed)
            inst, true_s, true_q = gen_ideal(cfg)
            inst = with_base_orders(
                inst,
                perturb_order(true_s, 1, seed),
                perturb_order(true_q, 1, seed + 1),
            )
            spec = ProblemSpec(Variant.BOTH_KNEAR, Mode.EDITING, 1)
            assert oracle_solve(inst, spec).cost == 0
            assert solve_both_knear(inst, 1).cost == 0
            assert solve_unconstrained_knear_addition(inst, 1).cost == 0
            # the generator's question order is one the true order can reach
            ideal_q = with_base_orders(inst, question_order=true_q)
            assert solve_constrained_knear(ideal_q, 1).cost == 0


def _perturb_edges_reference(inst: Instance, cfg: GenConfig) -> Instance:
    """The pair-set ``perturb_edges`` that the bitset one replaced."""
    rng = _rng(cfg.seed, "edges")
    n, m = inst.num_students, inst.num_questions
    present = set(inst.edges())
    pool: Sequence[int] = range(n * m)
    if cfg.mode_hint != "toggle":
        delete = cfg.mode_hint == "delete"
        pool = [i for i in pool if ((i // m + 1, i % m + 1) in present) == delete]
    if cfg.flip_count is not None:
        if cfg.flip_count > len(pool):
            raise NotEnoughPairsError(
                f"{cfg.flip_count} flips requested but only {len(pool)} eligible pairs"
            )
        chosen = rng.sample(pool, cfg.flip_count)
    elif cfg.flip_probability is not None:
        chosen = [i for i in pool if rng.random() < cfg.flip_probability]
    else:
        chosen = []
    flipped = present.symmetric_difference((i // m + 1, i % m + 1) for i in chosen)
    bits = [0] * n
    for s, q in flipped:
        bits[s - 1] |= 1 << (q - 1)
    return Instance(n, m, bits, inst.base_student_order, inst.base_question_order)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_perturb_edges_matches_pair_set_reference(data):
    """Equal instances for every noise mode and setting; the same error type
    and message with one fault: more flips than eligible pairs, or a
    malformed base order, which the instance refuses before either runs."""
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    fault = data.draw(st.sampled_from(["none", "flips", "student_order", "question_order"]))
    inst = random_instance(rng, max_side=7, with_orders=rng.random() < 0.7)
    n, m = inst.num_students, inst.num_questions
    orders = (inst.base_student_order, inst.base_question_order)
    mode = rng.choice(["toggle", "add", "delete"])
    noise = rng.choice(["count", "probability", "none"])
    cfg = GenConfig(
        num_students=n,
        num_questions=m,
        seed=rng.randint(0, 10**6),
        flip_count=rng.randint(0, n * m) if noise == "count" else None,
        flip_probability=rng.random() if noise == "probability" else None,
        mode_hint=mode,
    )
    if fault == "flips":
        eligible = inst.edge_count if mode == "delete" else n * m - inst.edge_count
        if mode != "toggle" and eligible < n * m:
            cfg = GenConfig(num_students=n, num_questions=m, seed=cfg.seed, flip_count=eligible + 1, mode_hint=mode)
    elif fault in ("student_order", "question_order"):
        size = n if fault == "student_order" else m
        order = tuple(rng.sample(range(1, size + 1), size))
        bad = order[:-1] if size == 1 or rng.random() < 0.5 else (order[1],) + order[1:]
        orders = (bad, orders[1]) if fault == "student_order" else (orders[0], bad)

    def outcome(perturb):
        try:
            out = perturb(Instance(n, m, inst.adj_bits, *orders), cfg)
        except Exception as exc:  # noqa: BLE001 - the type is what is compared
            return type(exc), str(exc)
        return out, out.adj_bits

    assert outcome(perturb_edges) == outcome(_perturb_edges_reference)
