"""Seeded inputs of the benchmark's workloads.

A run is a sequence of rounds. Round ``i`` of a workload under ``seed`` is
drawn from its own ``random.Random(f"{workload}/{seed}/{i}")``, so the same
seed gives the same inputs whatever the run length, and every round has the
same make-up: the same kinds of tower, the same number of curves in each and
the same fixed rows that are expected to fail. That keeps the share of
failed analyses identical in every run.

One ``Job`` is one call of the ``batch`` command: a tower config and the
curves of its CSV.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import reference as ref

Curve = tuple[int, int, int, int, int]

# y^2 = x^3 + x has a_p = 0 at p = 3 mod 4, y^2 = x^3 + 1 at p = 2 mod 3.
CM_CURVES: tuple[Curve, ...] = ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))

# (d, p, primes declared ramified in L/K, dim_Sp_E_K).  Between them the
# sites lie at 2, at 3, at p inert in K (d = 5, -3), at p ramified in K
# (d = -7), at p split in K (d = -1) and at 13 and 11, where about one
# curve in thirteen is multiplicative.  Both parities of dim_Sp_E_K occur.
SMALL_TOWERS = (
    (5, 7, (2, 3, 7, 13), 0),
    (-7, 7, (3, 7), 1),
    (-1, 5, (3, 5), 0),
    (-3, 5, (2, 5, 11), 1),
)
BATCH_CURVES_PER_TOWER = 50
LARGE_DISC_CURVES_PER_TOWER = 8

# The largest prime factor P of a large_disc discriminant lies in this band;
# every other prime factor stays below SMOOTH_COFACTOR, so P alone sets the
# cost of trial division.
LARGE_PRIME_BAND = (10**9, 4 * 10**9)
SMOOTH_COFACTOR = 10**4
LARGE_DISC_A4 = 1000
LARGE_DISC_A6 = 30000

# large_p: p is drawn from this band for each tower.  Counting points is
# linear in p, so a narrow band keeps the cost per analysis comparable.
LARGE_P_BAND = (10_000, 12_500)
LARGE_P_RANDOM_CURVES = 2
# Above the program's point-counting bound of 100 000 every analysis fails
# today ("exceeds the counting bound"); these rows do not depend on the seed.
OVER_BOUND_TOWER = (-1, 100_003)
OVER_BOUND_ERROR = "exceeds the counting bound"


@dataclass(frozen=True)
class Job:
    tower: dict          # the tower config the batch command reads
    curves: tuple[Curve, ...]
    check_frobenius: bool = False   # compare the verdict at p with a reference a_p
    expected_error: str | None = None   # a row whose error holds this counts as failed, not wrong


def tower_config(d: int, p: int, ramified, dim: int) -> dict:
    return {"d": d, "p": p, "n": 1, "dim_Sp_E_K": dim,
            "ramified_sites": [{"ell": ell} for ell in ramified]}


def small_curve(rng: random.Random) -> Curve:
    """a1, a3 in {0, 1}, a2 in {-1, 0, 1}, a4, a6 in [-50, 50], nonsingular."""
    while True:
        a = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
             rng.randint(-50, 50), rng.randint(-50, 50))
        if ref.discriminant(a):
            return a


def large_disc_curve(rng: random.Random) -> Curve:
    """A curve whose discriminant has one prime factor in LARGE_PRIME_BAND
    and all others below SMOOTH_COFACTOR."""
    lo, hi = LARGE_PRIME_BAND
    while True:
        a = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
             rng.randint(-LARGE_DISC_A4, LARGE_DISC_A4),
             rng.randint(-LARGE_DISC_A6, LARGE_DISC_A6))
        disc = ref.discriminant(a)
        if not disc:
            continue
        primes = ref.prime_factors(disc)
        if lo <= primes[-1] <= hi and (len(primes) < 2 or primes[-2] < SMOOTH_COFACTOR):
            return a


def batch_round(rng: random.Random) -> list[Job]:
    return [Job(tower_config(d, p, ram, dim),
                tuple(small_curve(rng) for _ in range(BATCH_CURVES_PER_TOWER)))
            for d, p, ram, dim in SMALL_TOWERS]


def large_disc_round(rng: random.Random) -> list[Job]:
    return [Job(tower_config(d, p, ram, dim),
                tuple(large_disc_curve(rng) for _ in range(LARGE_DISC_CURVES_PER_TOWER)))
            for d, p, ram, dim in SMALL_TOWERS]


def _prime_in(rng: random.Random, band: tuple[int, int]) -> int:
    while True:
        p = rng.randrange(*band)
        if ref.is_prime(p):
            return p


def _inert_d(p: int) -> int:
    """A small squarefree d with p inert in Q(sqrt d)."""
    if p % 4 == 3:
        return -1
    for d in (2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -11, 13, -13):
        if pow(d % p, (p - 1) // 2, p) == p - 1:
            return d
    raise AssertionError(f"no small nonresidue mod {p}")


def _good_at(rng: random.Random, p: int) -> Curve:
    while True:
        a = small_curve(rng)
        if ref.discriminant(a) % p:
            return a


def large_p_round(rng: random.Random) -> list[Job]:
    """One tower with p inert in K and one with p ramified in K, each with
    both CM curves and two seeded curves of good reduction at p, plus the
    fixed tower above the counting bound."""
    jobs = []
    for kind in ("inert", "ramified"):
        p = _prime_in(rng, LARGE_P_BAND)
        d = _inert_d(p) if kind == "inert" else (p if p % 4 == 1 else -p)
        curves = CM_CURVES + tuple(_good_at(rng, p) for _ in range(LARGE_P_RANDOM_CURVES))
        jobs.append(Job(tower_config(d, p, (p,), len(jobs)), curves, check_frobenius=True))
    d, p = OVER_BOUND_TOWER
    jobs.append(Job(tower_config(d, p, (p,), 0), CM_CURVES, check_frobenius=True,
                    expected_error=OVER_BOUND_ERROR))
    return jobs


ROUNDS = {"batch": batch_round, "large_disc": large_disc_round,
          "large_p": large_p_round}


def round_jobs(workload: str, seed: int, index: int) -> list[Job]:
    return ROUNDS[workload](random.Random(f"{workload}/{seed}/{index}"))
