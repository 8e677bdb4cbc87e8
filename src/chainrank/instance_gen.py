"""Seeded generators: ideal chain instances, edge noise, and
bounded-displacement scrambles of the true orders.

All randomness flows through a single PRNG per call, seeded by hashing the
caller's seed with a fixed per-operation tag, so output is bit-reproducible
across platforms and independent of Python hash randomization.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Sequence

from .core_model import (
    ChainRankError,
    Instance,
    InvalidInstanceError,
    bit_ids,
    inverse_positions,
)


class NotEnoughPairsError(ChainRankError):
    code = "NOT_ENOUGH_PAIRS"


_NOISE_MODES = ("toggle", "add", "delete")


def _rng(seed: int, tag: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the generators; exactly one of flip_count/flip_probability
    may be set (neither means no edge noise)."""

    num_students: int
    num_questions: int
    seed: int = 0
    flip_count: int | None = None
    flip_probability: float | None = None
    k_perturb: int = 0
    mode_hint: str = "toggle"

    def __post_init__(self):
        if self.num_students < 1 or self.num_questions < 1:
            raise InvalidInstanceError("need at least one student and one question")
        if self.flip_count is not None and self.flip_probability is not None:
            raise InvalidInstanceError("set flip_count or flip_probability, not both")
        if self.flip_count is not None and self.flip_count < 0:
            raise InvalidInstanceError("flip_count must be non-negative")
        if self.flip_count is not None and self.flip_count > self.num_students * self.num_questions:
            raise InvalidInstanceError("flip_count exceeds the number of pairs")
        if self.flip_probability is not None and not 0.0 <= self.flip_probability <= 1.0:
            raise InvalidInstanceError("flip_probability must be within [0, 1]")
        if self.k_perturb < 0:
            raise InvalidInstanceError("k_perturb must be non-negative")
        if self.mode_hint not in _NOISE_MODES:
            raise InvalidInstanceError(f"mode_hint must be one of {_NOISE_MODES}")


def gen_ideal(
    cfg: GenConfig, prefix_lengths: Sequence[int] | None = None
) -> tuple[Instance, tuple[int, ...], tuple[int, ...]]:
    """A random ideal instance plus its hidden true orders.

    Students get non-decreasing prefix lengths along the true student order;
    each neighborhood is that prefix of the true question order, so
    recognition always succeeds on the output. ``prefix_lengths`` pins the
    lengths instead of sampling them.
    """
    rng = _rng(cfg.seed, "ideal")
    n, m = cfg.num_students, cfg.num_questions
    true_students = tuple(rng.sample(range(1, n + 1), n))
    true_questions = tuple(rng.sample(range(1, m + 1), m))
    if prefix_lengths is None:
        lengths = sorted(rng.randint(0, m) for _ in range(n))
    else:
        lengths = [int(x) for x in prefix_lengths]
        if len(lengths) != n or any(not 0 <= x <= m for x in lengths):
            raise InvalidInstanceError("prefix_lengths must give each student 0..m questions")
        if any(a > b for a, b in zip(lengths, lengths[1:])):
            raise InvalidInstanceError("prefix_lengths must be non-decreasing")
    # prefix[t] holds the first t questions of the true question order.
    prefix = list(accumulate((1 << (q - 1) for q in true_questions), or_, initial=0))
    bits = [0] * n
    for s, length in zip(true_students, lengths):
        bits[s - 1] = prefix[length]
    return Instance(n, m, bits), true_students, true_questions


def perturb_edges(inst: Instance, cfg: GenConfig) -> Instance:
    """Toggle edges per the config's noise settings; base orders carry
    through unchanged."""
    rng = _rng(cfg.seed, "edges")
    n, m = inst.num_students, inst.num_questions
    bits = inst.adj_bits
    # Every pair, as the index (s - 1) * m + (q - 1): the same draws as a
    # list of the pairs in that order, without building it.
    pool: Sequence[int] = range(n * m)
    if cfg.mode_hint != "toggle":
        full = (1 << m) - 1
        eligible = bits if cfg.mode_hint == "delete" else [full & ~b for b in bits]
        pool = [r * m + c for r, b in enumerate(eligible) for c in bit_ids(b, range(m))]

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

    flips = [0] * n
    for i in chosen:
        flips[i // m] |= 1 << (i % m)
    flipped = [b ^ f for b, f in zip(bits, flips)]
    return Instance(n, m, flipped, inst.base_student_order, inst.base_question_order)


def perturb_order(true_order: Sequence[int], k: int, seed: int) -> tuple[int, ...]:
    """A scramble of ``true_order`` in which no entity moves more than k
    positions, via a random walk of adjacent swaps that rejects any swap
    breaking the bound. Not uniform over the k-bounded permutations, which
    the tests do not need. Past n - 1 every swap is admissible, so a larger
    k walks as k = n - 1 does."""
    if k < 0:
        raise InvalidInstanceError("k must be non-negative")
    order = list(true_order)
    n = len(order)
    if k == 0 or n < 2:
        return tuple(order)
    k = min(k, n - 1)
    rng = _rng(seed, "order")
    base_pos = inverse_positions(order)
    for _ in range(4 * n * k):
        p = rng.randrange(n - 1)
        left, right = order[p], order[p + 1]
        if abs(p + 2 - base_pos[left]) <= k and abs(p + 1 - base_pos[right]) <= k:
            order[p], order[p + 1] = right, left
    return tuple(order)
