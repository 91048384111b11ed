"""Mechanical verification of the machinery behind the convergence guarantee.

Three facts carry the analysis, and each is checked against the code that
decides acceptance, :func:`boost.edge` and :func:`boost.cache_from_scores`:

* the second-order log-sum-exp bound that the edge certifies, defined where
  the edge's clip holds (no coordinate drops by more than 1) and claimed
  where no coordinate rises (no margin drops),
* the existence of a candidate (scores shifted by the labels) whose edge is
  exactly -1/2 under any example distribution,
* the chained potential decrease that turns accepted iterations into an
  ``exp(-rho * k)`` bound on training error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import boost
from .boost import EdgeReport, IterationRecord, MarginCache
from .data import gen_realizable
from .errors import DomainError, ValidationError
from .nnet import NetworkArchitecture, forward_batch, grad_check, init_network
from .sampling import SplitMix64, derive_seed

ALGEBRAIC_TOL = 1e-12  # identities
CHAIN_TOL = 1e-9  # inequalities chained through log-sum-exp arithmetic
LSE_MAX_DIM = 64  # largest vector length the lse suite draws
GRAD_EPS = 1e-4  # finite-difference step of the grad suite


@dataclass(frozen=True)
class SuiteReport:
    name: str
    instances: int
    worst_deficit: float
    passed: bool


def lse_inequality_deficit(theta: np.ndarray, lam: np.ndarray) -> float:
    """Slack of the second-order log-sum-exp bound that :func:`boost.edge` certifies.

    Returns ``RHS - LHS`` of::

        log(sum e^lam) <= log(sum e^theta) + sum p_i (lam_i - theta_i)
                          + (1/2) sum p_i (lam_i - theta_i)^2

    with ``p_i = e^theta_i / sum_j e^theta_j``, read off :func:`boost.edge` of
    scores ``-lam`` over ``-theta`` (all labels +1) and their potentials.  Defined
    only where the edge's clip holds, ``max_i (theta_i - lam_i) <= 1``; callers
    outside it get a :class:`DomainError` because the bound is not claimed there.

    The deficit can be negative inside that region: the bound is guaranteed
    only when no coordinate of ``lam`` exceeds its ``theta`` counterpart
    (then ``e^(lam-theta) <= 1 + (lam-theta) + (lam-theta)^2/2`` holds
    pointwise).  With enough upward mass on low-probability coordinates it
    fails, e.g. ``theta=(10, 0), lam=(10, 3)`` gives deficit ~ -5e-4.
    """
    theta = np.asarray(theta, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if theta.shape != lam.shape or theta.ndim != 1 or theta.size == 0:
        raise DomainError("theta and lambda must be equal-length nonempty vectors")
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(lam))):
        raise DomainError("theta and lambda must be finite")
    cache = boost.cache_from_scores(-theta, np.ones_like(theta))
    report = boost.edge(cache, -lam)
    if report.violation_count > 0:
        raise DomainError("bound requires theta_i - lambda_i <= 1 for all i")
    return report.edge - (report.candidate.potential - cache.potential)


def oracle_step(cache: MarginCache) -> np.ndarray:
    """The existence witness: scores moved by exactly one unit toward each label.

    Its edge is ``-1/2`` for every weight distribution (the linear and
    quadratic terms contribute ``-1`` and ``+1/2`` per unit of probability),
    and its max margin shift is exactly 1.
    """
    return cache.raw_scores + cache.labels


def iteration_count_for(epsilon: float, rho: float) -> int:
    """Iterations sufficient for training error ``epsilon``: ``ceil(log(1/eps)/rho)``."""
    if not 0 < epsilon < 1:
        raise DomainError("epsilon must lie in (0, 1)")
    if not 0 < rho < math.inf:  # also rejects nan
        raise DomainError("rho must be a finite number > 0")
    # tiny backoff so an analytically integer ratio never rounds up
    return math.ceil(math.log(1.0 / epsilon) / rho - 1e-9)


# ---------------------------------------------------------------------------
# randomized suites (used by the CLI and the acceptance gate)


def lse_suite(pairs: int = 10_000, seed: int = 0) -> SuiteReport:
    """Random (theta, lambda) pairs; every deficit must be >= -1e-9.

    Pairs are drawn with ``lambda = theta - u`` for ``u_i`` uniform in
    ``[0, 1]``: coordinates only move down, by at most 1.  On that region the
    bound follows pointwise from ``e^{-v} <= 1 - v + v^2/2`` (``v >= 0``), so
    a negative deficit can only be a numerical bug.  Coordinates moving up
    are excluded deliberately; with enough upward mass on low-weight slots
    the bound is simply false (see the deficit function's docstring).
    """
    rng = SplitMix64(derive_seed(seed, 11))
    worst = math.inf
    for _ in range(pairs):
        dim = 1 + int(rng.uniform() * LSE_MAX_DIM)
        scale = 10.0 ** (rng.uniform() * 2 - 1)  # 0.1 .. 10
        theta = rng.normal_block(dim) * scale
        u = rng.uniform_block(dim)  # theta - lambda in [0, 1]
        deficit = lse_inequality_deficit(theta, theta - u)
        worst = min(worst, deficit)
    return SuiteReport("lse", pairs, worst, worst >= -CHAIN_TOL)


def _random_cache(rng: SplitMix64, m: int, spread: float) -> MarginCache:
    raw = rng.normal_block(m) * spread
    labels = np.where(rng.uniform_block(m) < 0.5, -1.0, 1.0)
    return boost.cache_from_scores(raw, labels)


def lemma_suite(trials: int = 100, seed: int = 0) -> SuiteReport:
    """Random network/dataset states: the oracle step must hit edge -1/2 and
    margin shift 1, both within 1e-12, under whatever weights arise.

    Half the trials take scores from actual random networks, half from a
    realizable teacher whose outputs are clipped to +-1 on the sample (which
    recovers the labels, since teacher margins are >= 1).
    """
    rng = SplitMix64(derive_seed(seed, 13))
    worst = 0.0
    for trial in range(trials):
        if trial % 2 == 0:
            m = 5 + int(rng.uniform() * 60)
            cache = _random_cache(rng, m, 10.0 ** (rng.uniform() * 2 - 1))
            step = oracle_step(cache)
        else:
            m = 5 + int(rng.uniform() * 40)
            d = 2 + int(rng.uniform() * 5)
            arch = NetworkArchitecture(d, (3,), "tanh")
            dataset, teacher = gen_realizable(m, d, arch, 0.1, rng.next_u64() & 0x7FFFFFFF)
            learner = init_network(
                NetworkArchitecture(d, (4,), "tanh"), rng.next_u64() & 0x7FFFFFFF, 1.0
            )
            cache = boost.margins(learner, dataset)
            clipped = np.clip(forward_batch(teacher, dataset.features), -1.0, 1.0)
            step = cache.raw_scores + clipped
        report: EdgeReport = boost.edge(cache, step, rho=0.1)
        worst = max(worst, abs(report.edge + 0.5), abs(report.max_margin_diff - 1.0))
    return SuiteReport("lemma", trials, worst, worst <= ALGEBRAIC_TOL)


def grad_suite(trials_per_activation: int = 10, seed: int = 0) -> SuiteReport:
    """Random small nets per activation; max grad_check error must be <= 1e-6."""
    rng = SplitMix64(derive_seed(seed, 17))
    worst = 0.0
    count = 0
    for activation in ("tanh", "relu"):
        for _ in range(trials_per_activation):
            d = 2 + int(rng.uniform() * 9)  # <= 10
            h = 1 + int(rng.uniform() * 16)  # <= 16
            arch = NetworkArchitecture(d, (h,), activation)
            net = init_network(arch, rng.next_u64() & 0x7FFFFFFF, 1.0)
            x = rng.normal_block(d)
            worst = max(worst, grad_check(net, x, GRAD_EPS))
            count += 1
    return SuiteReport("grad", count, worst, worst <= 1e-6)


def bound_suite(records: Sequence[IterationRecord], m: int, rho: float) -> SuiteReport:
    """Check a recorded run against the convergence guarantee.

    The run starts at the first record's ``potential_before``, or at ``log m``
    (the zero function's potential) when there are no records.  Record ``k``
    must have ``t == k``, start exactly where record ``k - 1`` ended, and drop
    the potential by at least ``rho`` and by at least ``-edge`` (the chain
    ``after - before <= edge``).  Final mistakes must be at most
    ``exp(initial - rho * k)`` after ``k`` records.  The reported deficit is
    the worst slack of the two per-record inequalities.
    """
    initial = records[0].potential_before if records else math.log(m)
    worst = -math.inf if records else 0.0
    ok = True
    before = initial
    for k, rec in enumerate(records, start=1):
        if not (math.isfinite(rec.potential_before) and math.isfinite(rec.potential_after)):
            raise ValidationError(f"record t={rec.t}: non-finite potential")
        if not (0 <= rec.mistakes <= m):
            raise ValidationError(f"record t={rec.t}: mistakes {rec.mistakes} outside [0, {m}]")
        change = rec.potential_after - rec.potential_before
        ok &= rec.t == k and rec.potential_before == before
        worst = float(np.max((worst, change + rho, change - rec.edge)))  # a nan edge fails
        before = rec.potential_after
    if records:
        log_bound = initial - rho * len(records)
        bound = math.exp(log_bound) if log_bound < 700 else math.inf
        ok &= records[-1].mistakes <= bound + CHAIN_TOL
    return SuiteReport("bound", len(records), worst, bool(ok and worst <= CHAIN_TOL))
