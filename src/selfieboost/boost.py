"""The single-network boosting loop.

Each iteration reweights examples by ``exp(-margin)``, resamples a working
set, runs SGD on a surrogate that rewards moving scores toward the labels
while tethering the candidate to the current network, then accepts the
candidate only if a full-dataset functional drops below ``-rho``, no
margin moves up by more than 1, and the log-sum-exp potential drops by at
least ``rho``, which is what drives training error to ``exp(-rho * iterations)``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, EmptyDatasetError, NumericError, ShapeError
from .nnet import (
    FeedForwardNet,
    NetworkArchitecture,
    _backprop_core,
    _forward_cached,
    forward_batch,
    init_network,
    sgd_step,
    widen,
)
from .sampling import (
    SplitMix64,
    build_alias,
    chunked_sum,
    derive_seed,
    sample_indices,
    uniform_picks,
    weights_from_margins,
)

STOP_COMPLETED = "completed_T"
STOP_NO_CANDIDATE = "no_candidate_found"
STOP_ZERO_ERROR = "zero_training_error"


@dataclass(frozen=True)
class SgdParams:
    steps: int = 500
    lr: float = 0.05
    batch: int = 32

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError("sgd.steps must be >= 0")
        if not 0 < self.lr <= sys.float_info.max:  # also rejects nan and inf
            raise ConfigError(f"sgd.lr must be a finite number > 0, got {self.lr}")
        if self.batch < 1:
            raise ConfigError("sgd.batch must be >= 1")


@dataclass(frozen=True)
class RetryPolicy:
    """Escalation when a candidate is rejected: more SGD, optionally a wider
    net, and a smaller learning rate after margin-clip violations."""

    max_retries: int = 5
    sgd_growth: float = 2.0
    widen_units: int = 0
    lr_shrink: float = 0.5

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError("retry.max_retries must be >= 0")
        if not 1 <= self.sgd_growth <= sys.float_info.max:
            raise ConfigError(f"retry.sgd_growth must be a finite number >= 1, got {self.sgd_growth}")
        if self.widen_units < 0:
            raise ConfigError("retry.widen_units must be >= 0")
        if not 0 < self.lr_shrink <= 1:
            raise ConfigError("retry.lr_shrink must be in (0, 1]")


@dataclass(frozen=True)
class BoostConfig:
    """Knobs of the boosting run.  ``n`` is the working-set size; ``None``
    means ``min(m, 256)``.  ``init_scale=0`` starts from the all-zero net,
    for which the initial potential is exactly ``log m``."""

    rho: float = 0.1
    T: int = 50
    n: int | None = None
    sgd: SgdParams = SgdParams()
    retry: RetryPolicy = RetryPolicy()
    seed: int = 0
    init_scale: float = 0.0
    hidden: tuple[int, ...] = (32,)
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if not 0.0 < self.rho < 0.25:
            raise ConfigError(f"rho must lie in (0, 0.25), got {self.rho}")
        if self.T < 0:
            raise ConfigError("T must be >= 0")
        if self.n is not None and self.n < 1:
            raise ConfigError("n must be >= 1")
        if not 0 <= self.init_scale <= sys.float_info.max:
            raise ConfigError(f"init_scale must be a finite number >= 0, got {self.init_scale}")
        # architecture validity (raises ValueError with a clear message)
        try:
            NetworkArchitecture(1, self.hidden, self.activation)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.retry.widen_units > 0 and not self.hidden:
            raise ConfigError("retry.widen_units needs a hidden layer to widen")


@dataclass(frozen=True)
class MarginCache:
    """Per-example state of the current network, computed once per iteration:
    the resampling weights ``probs``, the potential ``log(sum(exp(-margins)))``
    and the number of margins at or below zero."""

    raw_scores: np.ndarray
    labels: np.ndarray
    probs: np.ndarray
    potential: float
    mistakes: int


@dataclass(frozen=True)
class EdgeReport:
    edge: float
    max_margin_diff: float
    accepted: bool
    violation_count: int
    candidate: MarginCache


@dataclass(frozen=True)
class IterationRecord:
    t: int
    edge: float
    potential_before: float
    potential_after: float
    train_err: float
    mistakes: int
    retries_used: int
    sgd_steps_used: int
    widened_to: int
    wall_ms: float


@dataclass(frozen=True)
class TrainResult:
    final_net: FeedForwardNet
    records: tuple[IterationRecord, ...]
    accepted_count: int
    stop_reason: str
    final_mistakes: int  # of final_net, from the loop's last full-dataset sweep


def cache_from_scores(raw_scores: np.ndarray, labels: np.ndarray) -> MarginCache:
    """Margins, resampling weights, potential and mistakes from precomputed scores."""
    raw_scores = np.asarray(raw_scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if raw_scores.shape != labels.shape:
        raise ShapeError("scores and labels must have equal length")
    margins = labels * raw_scores
    probs, potential = weights_from_margins(margins)
    return MarginCache(
        raw_scores=raw_scores,
        labels=labels,
        probs=probs,
        potential=potential,
        mistakes=int(np.count_nonzero(margins <= 0.0)),  # the boundary counts as a mistake
    )


def margins(net: FeedForwardNet, data: Dataset, threads: int = 1) -> MarginCache:
    """One forward sweep over the dataset: the one way to score a net on it.
    Non-finite scores raise :class:`NumericError`."""
    with np.errstate(all="ignore"):  # overflow surfaces in the check below
        scores = forward_batch(net, data.features, threads)
    if not np.isfinite(scores).all():
        raise NumericError("network scores are non-finite")
    return cache_from_scores(scores, data.labels)


def err(net: FeedForwardNet, data: Dataset) -> float:
    return margins(net, data).mistakes / data.m


def surrogate_loss(labels: np.ndarray, snapshot: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Per-example ``y*(f - g) + (g - f)^2 / 2``.

    Zero at ``g = f`` and exactly ``-1/2`` at ``g = f + y``, its minimum.
    """
    diff = np.asarray(candidate) - np.asarray(snapshot)
    return -np.asarray(labels) * diff + 0.5 * diff * diff


def surrogate_output_grad(labels: np.ndarray, snapshot: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Derivative of the per-example surrogate loss wrt the candidate score."""
    return -np.asarray(labels) + (np.asarray(candidate) - np.asarray(snapshot))


def _sgd_loop(net, feats, steps, lr, batch, rng, upstream) -> None:
    """``steps`` minibatch SGD updates of ``net`` in place, on rows of ``feats``:
    the one loop behind SelfieBoost's candidates and the baselines.

    All ``steps * batch`` picks come from ``rng`` in one block, the stream of
    one draw of ``batch`` per step.  ``upstream(pick, scores)`` is the loss
    gradient wrt the scores.  Non-finite scores or parameters raise
    :class:`NumericError`.
    """
    picks = uniform_picks(rng, steps * batch, len(feats)).reshape(steps, batch)
    # overflow surfaces as NumericError via the explicit checks below, so
    # numpy's intermediate warnings carry no extra information here
    with np.errstate(all="ignore"):
        for k, pick in enumerate(picks):
            acts = _forward_cached(net, feats[pick])
            scores = acts[-1][:, 0]
            if not np.isfinite(scores).all():
                # hand back the unused draws: the stream stands where
                # drawing one minibatch per step would have left it
                rng.skip(-(steps - k - 1) * batch)
                raise NumericError("scores became non-finite during SGD")
            sgd_step(net, _backprop_core(net, acts, upstream(pick, scores)), lr)
    for p in net.weights + net.biases:
        if not np.isfinite(p).all():
            raise NumericError("parameters became non-finite during SGD")


def sgd_inner(
    data: Dataset,
    working_set: np.ndarray,
    snapshot_scores: np.ndarray,
    candidate: FeedForwardNet,
    sgd_params: SgdParams,
    rng: SplitMix64,
) -> FeedForwardNet:
    """Minibatch SGD on the surrogate, sampling uniformly from the working set.

    ``snapshot_scores`` are the frozen scores of the current network over the
    full dataset; the candidate should start as a copy of it (warm start, at
    surrogate loss zero).

    Each update applies the minibatch-mean gradient scaled by a further
    ``1/n``, so ``lr`` measures the total parameter movement of one full pass
    over the working set in units of the mean example gradient.  The modest
    default budget is deliberate: the surrogate's minimizer sits exactly on
    the unit margin-shift boundary, so a fully optimized candidate overshoots
    it on roughly half the examples and the acceptance test must reject it.
    Acceptance wants partial progress, and the retry policy grows the budget
    geometrically until the edge test is satisfied.
    """
    if len(working_set) == 0:
        raise EmptyDatasetError("working set is empty")
    labels = data.labels[working_set]
    snap = np.asarray(snapshot_scores, dtype=np.float64)[working_set]
    scale = sgd_params.batch * len(working_set)
    _sgd_loop(
        candidate, data.features[working_set], sgd_params.steps, sgd_params.lr, sgd_params.batch, rng,
        lambda pick, scores: surrogate_output_grad(labels[pick], snap[pick], scores) / scale,
    )
    return candidate


def edge(cache: MarginCache, candidate_scores: np.ndarray, rho: float = 0.1) -> EdgeReport:
    """Full-dataset acceptance functional for a candidate.

    ``edge = sum_i D_i * (-d_i + d_i^2 / 2)`` with ``d_i = y_i (g_i - f_i)``,
    summed in fixed index order.  Accepted iff ``edge < -rho``, every
    ``d_i <= 1`` and the ``candidate`` cache's potential is at most
    ``cache.potential - rho``: the edge bounds the potential's change only
    where no margin drops.  Non-finite scores raise :class:`NumericError`.
    """
    candidate_scores = np.asarray(candidate_scores, dtype=np.float64)
    if candidate_scores.shape != cache.raw_scores.shape:
        raise ShapeError("candidate scores length must match the cache")
    candidate = cache_from_scores(candidate_scores, cache.labels)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: edge inf or nan, rejected
        d = cache.labels * (candidate_scores - cache.raw_scores)
        terms = cache.probs * (-d + 0.5 * d * d)
    value = chunked_sum(terms)
    max_diff = float(np.max(d))
    violations = int(np.count_nonzero(d > 1.0))
    drops_by_rho = candidate.potential <= cache.potential - rho
    return EdgeReport(
        edge=value,
        max_margin_diff=max_diff,
        accepted=bool(value < -rho and max_diff <= 1.0 and drops_by_rho),
        violation_count=violations,
        candidate=candidate,
    )


def _initial_net(arch: NetworkArchitecture, seed: int, init_scale: float) -> FeedForwardNet:
    """Initial network of a boosting run and of the baselines' SGD.

    ``init_scale > 0`` draws every layer at that scale.  ``init_scale = 0``
    must give the exactly-zero function (its potential is then exactly
    ``log m``), but an all-zero parameter vector is a saddle that blocks
    backprop: with zero output weights and zero hidden activations no
    gradient ever reaches a weight.  So the zero function is realized the
    same way widening realizes it: random hidden layers, output layer
    exactly zero.
    """
    if init_scale > 0:
        return init_network(arch, seed, init_scale)
    net = init_network(arch, seed, 1.0)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    return net


def run_selfieboost(
    data: Dataset,
    config: BoostConfig,
    threads: int = 1,
    measure_time: bool = False,
) -> TrainResult:
    """Run the boosting loop for up to ``config.T`` accepted iterations.

    Per iteration: cache margins, resample a working set, warm-start a
    candidate from the current net, optimize the surrogate, and test the
    edge on the full dataset.  Rejected candidates escalate per the retry
    policy (more SGD steps, optional widening, smaller learning rate after
    clip violations) with a fresh working set each time; when retries are
    exhausted, or the shrunk learning rate underflows to 0, the run stops
    with ``no_candidate_found``.  Stops early with
    ``zero_training_error`` once the current net makes no mistakes.

    With ``measure_time=False`` (the default) ``wall_ms`` is recorded as 0.0
    so that identical runs produce bit-identical records.
    """
    if data.m < 1:
        raise EmptyDatasetError("cannot boost an empty dataset")
    arch = NetworkArchitecture(data.d, config.hidden, config.activation)
    net = _initial_net(arch, derive_seed(config.seed, 0), config.init_scale)
    rng_sets = SplitMix64(derive_seed(config.seed, 1))
    rng_sgd = SplitMix64(derive_seed(config.seed, 2))
    rng_widen = SplitMix64(derive_seed(config.seed, 3))
    n = config.n if config.n is not None else min(data.m, 256)

    records: list[IterationRecord] = []
    stop_reason = STOP_COMPLETED
    cache = cache_from_scores(forward_batch(net, data.features, threads), data.labels)

    for t in range(1, config.T + 1):
        if cache.mistakes == 0:
            stop_reason = STOP_ZERO_ERROR
            break
        started = time.perf_counter()
        table = build_alias(cache.probs)
        cur_steps = config.sgd.steps
        cur_lr = config.sgd.lr
        cur_widen = 0
        accepted = False
        for attempt in range(config.retry.max_retries + 1):
            if cur_lr == 0.0:  # shrunk to underflow: no attempt at lr 0 can move the net
                break
            working_set = sample_indices(table, n, rng_sets)
            candidate = net.copy()
            if cur_widen > 0:
                candidate = widen(candidate, cur_widen, rng_widen.next_u64())
            violation = True  # a numeric blow-up also warrants a smaller lr
            try:
                sgd_inner(
                    data,
                    working_set,
                    cache.raw_scores,
                    candidate,
                    SgdParams(cur_steps, cur_lr, config.sgd.batch),
                    rng_sgd,
                )
                report = edge(cache, forward_batch(candidate, data.features, threads), config.rho)
            except NumericError:
                if attempt == config.retry.max_retries:
                    raise
            else:
                accepted = report.accepted
                if accepted:
                    break
                violation = report.violation_count > 0
            cur_steps = int(np.ceil(cur_steps * config.retry.sgd_growth))
            if violation:
                cur_lr *= config.retry.lr_shrink
            cur_widen += config.retry.widen_units
        if not accepted:
            stop_reason = STOP_NO_CANDIDATE
            break
        net = candidate
        elapsed_ms = (time.perf_counter() - started) * 1000.0 if measure_time else 0.0
        records.append(
            IterationRecord(
                t=t,
                edge=report.edge,
                potential_before=cache.potential,
                potential_after=report.candidate.potential,
                train_err=report.candidate.mistakes / data.m,
                mistakes=report.candidate.mistakes,
                retries_used=attempt,
                sgd_steps_used=cur_steps,
                widened_to=net.architecture.hidden_layers[-1] if net.architecture.hidden_layers else 0,
                wall_ms=elapsed_ms,
            )
        )
        cache = report.candidate

    return TrainResult(
        final_net=net,
        records=tuple(records),
        accepted_count=len(records),
        stop_reason=stop_reason,
        final_mistakes=cache.mistakes,
    )
