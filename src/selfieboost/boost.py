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
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import ConfigError, EmptyDatasetError, NumericError, ShapeError, _sized_by
from .nnet import (
    FeedForwardNet,
    NetworkArchitecture,
    _backprop_core,
    _forward_cached,
    _train_workspace,
    forward_batch,
    init_network,
    sgd_step,  # noqa: F401 -- unused; perfbench's boundary table names boost.sgd_step
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
    """Knobs of the boosting run, and the learner, working-set size and
    initial net they give on a dataset.  ``n`` is the working-set size;
    ``None`` means ``min(m, 256)``.  ``init_scale=0`` starts from the zero
    function (see :func:`init_network`), whose potential is exactly ``log m``."""

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
            self.learner(1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.retry.widen_units > 0 and not self.hidden:
            raise ConfigError("retry.widen_units needs a hidden layer to widen")

    def learner(self, d: int) -> NetworkArchitecture:
        """The architecture every trainer starts from on ``d`` features."""
        return NetworkArchitecture(d, self.hidden, self.activation)

    def working_set_size(self, m: int) -> int:
        return self.n if self.n is not None else min(m, 256)

    def initial_net(self, d: int) -> FeedForwardNet:
        """SelfieBoost's start, and plain SGD's."""
        return init_network(self.learner(d), derive_seed(self.seed, 0), self.init_scale)


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


def margins(net: FeedForwardNet, data: Dataset) -> MarginCache:
    """A net's scores on the dataset, from one forward sweep, as a cache.
    Non-finite scores raise :class:`NumericError`."""
    scores = forward_batch(net, data.features)
    if not np.isfinite(scores).all():
        raise NumericError("network scores are non-finite")
    return cache_from_scores(scores, data.labels)


def err(net: FeedForwardNet, data: Dataset) -> float:
    return margins(net, data).mistakes / data.m


def surrogate_output_grad(labels: np.ndarray, snapshot: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Derivative wrt the candidate score ``g`` of the surrogate ``-y (g - f) + (g - f)^2 / 2``."""
    return (np.asarray(candidate) - snapshot) - labels


# Bytes of the rows that one chunk of SGD steps gathers at once: the picked
# feature rows and the loss's per-example entries.  Chunks of up to 224 KiB
# cost the reference run (batch 32, 10 features) no peak memory; 896 KiB
# raised it by 3%.
_CHUNK_BYTES = 2**17


def _sgd_loop(net, feats, steps, lr, batch, rng, upstream, per_example=()) -> None:
    """``steps`` minibatch SGD updates of ``net`` in place, on rows of ``feats``:
    the one loop behind SelfieBoost's candidates and the baselines.

    All ``steps * batch`` picks come from ``rng`` in one block, the stream of
    one draw of ``batch`` per step.  ``upstream(scores, *picked)`` is the loss
    gradient wrt the scores, where ``picked`` holds the minibatch's entries of
    each vector in ``per_example``.  Non-finite scores or parameters raise
    :class:`NumericError`; a run that raises leaves the net as it was.

    Each step runs ``nnet``'s training kernel on one workspace, which pads
    the step's rows itself, and whose ``theta`` is copied into the net once,
    when the run succeeds.  Rows are gathered once per chunk of steps, and
    the chunk's scores checked once; on a non-finite row the unused draws
    after its step go back to ``rng``.  The scores are checked, not only
    ``theta``: the hinge's gradient is 0 at +inf with label +1.
    """
    work = _sized_by("--batch", _train_workspace, net, batch)
    theta, grad = work.theta, work.grad
    d = net.architecture.input_dim
    chunk = max(1, _CHUNK_BYTES // (8 * batch * (d + len(per_example))))
    scores = np.empty((min(chunk, steps), batch, 1))
    picks = _sized_by("--sgd-steps", uniform_picks, rng, steps * batch, len(feats)).reshape(steps, batch)
    # overflow surfaces as NumericError via the explicit checks below, so
    # numpy's intermediate warnings carry no extra information here
    with np.errstate(all="ignore"):
        for c in range(0, steps, chunk):
            block = picks[c : c + chunk]
            xs = feats[block]
            picked = [v[block] for v in per_example]
            for j in range(len(block)):
                _forward_cached(work, xs[j], scores[j])
                _backprop_core(work, upstream(scores[j, :, 0], *[v[j] for v in picked])[:, None])
                theta -= lr * grad
            finite = np.isfinite(scores[: len(block)]).all(axis=(1, 2))
            if not finite.all():
                # the stream stands where drawing one minibatch per step, up
                # to the failing one, would have left it
                rng.skip(-(steps - c - int(np.argmin(finite)) - 1) * batch)
                raise NumericError("scores became non-finite during SGD")
    if not np.isfinite(theta).all():
        raise NumericError("parameters became non-finite during SGD")
    for p, q in zip(net.weights + net.biases, work.params):
        p[...] = q


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
    surrogate loss zero), or be an earlier call's candidate on the same working
    set: picks are counter-based, so ``k`` steps and then ``j`` more from one
    generator give bit for bit one ``k + j``-step run.

    Each update applies the minibatch-mean gradient scaled by a further
    ``1/n``, so ``lr`` measures the total parameter movement of one full pass
    over the working set in units of the mean example gradient.  The modest
    default budget is deliberate: the surrogate's minimizer sits exactly on
    the unit margin-shift boundary, so a fully optimized candidate overshoots
    it on roughly half the examples and the acceptance test must reject it.
    Acceptance wants partial progress, and the retry policy grows the budget
    geometrically until the edge test is satisfied.  A run that raises
    :class:`NumericError` leaves the candidate as it was.
    """
    if len(working_set) == 0:
        raise EmptyDatasetError("working set is empty")
    labels = data.labels[working_set]
    snap = np.asarray(snapshot_scores, dtype=np.float64)[working_set]
    scale = sgd_params.batch * len(working_set)
    _sgd_loop(
        candidate, data.features[working_set], sgd_params.steps, sgd_params.lr, sgd_params.batch, rng,
        lambda scores, y, f: surrogate_output_grad(y, f, scores) / scale, (labels, snap),
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
    candidate = cache_from_scores(candidate_scores, cache.labels)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: edge inf or nan, rejected
        d = candidate.raw_scores - cache.raw_scores
        d *= cache.labels
        terms = 0.5 * d  # in place from here: the bits of probs * (-d + 0.5 * d * d)
        terms *= d
        terms -= d
        terms *= cache.probs
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


class Attempt(NamedTuple):
    """One try at a candidate; ``done``: its steps on a kept working set, 0 for a fresh draw."""

    number: int
    steps: int
    lr: float
    widen: int
    done: int


def _next_attempt(config: BoostConfig, attempt: Attempt, outcome: str) -> Attempt | None:
    """The retry after ``attempt``'s candidate was rejected for ``outcome``:
    ``"shallow"`` edge, ``"clip"`` violation or ``"numeric"`` blow-up.

    Every retry grows the budget to ``ceil(steps * sgd_growth)`` and widens by
    ``widen_units``; a clip or numeric outcome also shrinks lr by ``lr_shrink``.
    A shallow rejection keeps its working set and runs just the steps the grown
    budget adds, which gives bit for bit the candidate of one grown run on that
    set; every other retry (a smaller lr, widening, or a budget that does not
    grow) draws a fresh working set and starts again from the current net.
    None when retries are exhausted, the grown budget's ``steps * batch``
    8-byte picks overflow what one array can hold, or lr underflows to 0.
    """
    retry = config.retry
    grown = attempt.steps * retry.sgd_growth
    if attempt.number == retry.max_retries or not grown * config.sgd.batch * 8 <= np.iinfo(np.intp).max:
        return None
    lr = attempt.lr if outcome == "shallow" else attempt.lr * retry.lr_shrink
    if lr == 0.0:  # no attempt at lr 0 can move the net
        return None
    steps = int(np.ceil(grown))
    done = attempt.steps if outcome == "shallow" and not retry.widen_units and steps > attempt.steps else 0
    return Attempt(attempt.number + 1, steps, lr, attempt.widen + retry.widen_units, done)


def run_selfieboost(
    data: Dataset,
    config: BoostConfig,
    threads: int = 1,
    measure_time: bool = False,
) -> TrainResult:
    """Run the boosting loop for up to ``config.T`` accepted iterations.

    Per iteration: cache margins, resample a working set, warm-start a
    candidate from the current net, optimize the surrogate, test the edge on
    the full dataset, and retry a rejection as :func:`_next_attempt` says.
    Stops with ``no_candidate_found`` when it schedules no retry, and with
    ``zero_training_error`` once the current net makes no mistakes.

    With ``measure_time=False`` (the default) ``wall_ms`` is recorded as 0.0
    so that identical runs produce bit-identical records.
    """
    net = config.initial_net(data.d)
    rng_sets = SplitMix64(derive_seed(config.seed, 1))
    rng_sgd = SplitMix64(derive_seed(config.seed, 2))
    rng_widen = SplitMix64(derive_seed(config.seed, 3))
    n = config.working_set_size(data.m)

    records: list[IterationRecord] = []
    stop_reason = STOP_COMPLETED
    cache = cache_from_scores(forward_batch(net, data.features, threads), data.labels)

    for t in range(1, config.T + 1):
        if cache.mistakes == 0:
            stop_reason = STOP_ZERO_ERROR
            break
        started = time.perf_counter()
        table = build_alias(cache.probs)
        attempt = Attempt(0, config.sgd.steps, config.sgd.lr, 0, 0)
        while attempt is not None:
            report = None  # free the rejected candidate's full-dataset cache before this sweep
            if not attempt.done:
                working_set = _sized_by("--n", sample_indices, table, n, rng_sets)
                candidate = widen(net, attempt.widen, rng_widen.next_u64()) if attempt.widen else net.copy()
            try:
                sgd_inner(
                    data,
                    working_set,
                    cache.raw_scores,
                    candidate,
                    SgdParams(attempt.steps - attempt.done, attempt.lr, config.sgd.batch),
                    rng_sgd,
                )
                report = edge(cache, forward_batch(candidate, data.features, threads), config.rho)
            except NumericError:
                if attempt.number == config.retry.max_retries:
                    raise
                outcome = "numeric"
            else:
                if report.accepted:
                    break
                outcome = "clip" if report.violation_count else "shallow"
            attempt = _next_attempt(config, attempt, outcome)
        if attempt is None:
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
                retries_used=attempt.number,
                sgd_steps_used=attempt.steps,
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
