"""Ensemble and plain-SGD baselines for the single-network comparison.

The AdaBoost variant resamples (rather than reweights) so it shares the
inverse-CDF working-set sampler: each round draws a working set from the
current example distribution, trains a weak net on it by hinge SGD, and
keeps the net only if its weighted error beats chance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .boost import BoostConfig, _sgd_loop, err
from .data import Dataset
from .errors import ModelFormatError, ModelVersionError, NoWeakLearnerError, ShapeError, _sized_by
from .nnet import (
    FeedForwardNet,
    NetworkArchitecture,
    _check_batch,
    backprop_batch,  # noqa: F401 -- unused; perfbench's boundary table names baselines.backprop_batch
    forward_batch,
    forward_stacked,
    init_network,
    net_from_dict,
    net_to_dict,
    read_json,
    stack_nets,
    write_json,
)
from .sampling import SplitMix64, build_alias, chunked_sum, derive_seed, sample_indices

ENSEMBLE_FORMAT_VERSION = 1
_CHECKPOINTS = 100  # plain SGD's trajectory points
# Floats in one ensemble row block's vote terms and widest workspace buffer
# together (512 KiB).  Whole 1024-row blocks of a 50-member ensemble scored
# slower and raised peak RSS.
_STACK_FLOATS = 2**16


@dataclass(frozen=True)
class EnsembleModel:
    """A weighted vote of nets.  ``groups`` stacks the members once (:func:`stack_nets`);
    their arrays are made read-only, so a write raises instead of leaving it stale."""

    members: tuple[FeedForwardNet, ...]
    alphas: tuple[float, ...]

    def __post_init__(self):
        if len(self.members) != len(self.alphas):
            raise ValueError("members and alphas must have equal length")
        for net in self.members:
            for p in net.weights + net.biases:
                p.flags.writeable = False
        object.__setattr__(self, "groups", stack_nets(self.members))


@dataclass(frozen=True)
class CostReport:
    network_evals_per_prediction: int
    total_params_evaluated: int


@dataclass(frozen=True)
class AdaBoostRound:
    eps: float
    alpha: float
    ensemble_err: float


@dataclass(frozen=True)
class AdaBoostResult:
    model: EnsembleModel
    rounds: tuple[AdaBoostRound, ...]


def _hinge_steps(
    net: FeedForwardNet,
    data: Dataset,
    steps: int,
    lr: float,
    batch: int,
    rng: SplitMix64,
) -> None:
    """``steps`` SGD updates of ``net`` in place on the linear hinge: gradient
    -y on examples with margin below 1, minibatches drawn uniformly by ``rng``.
    The minibatch mean's share of -y, ``pull``, is worked out once per run."""

    def upstream(scores, y, pull):
        return np.where(y * scores < 1.0, pull, 0.0)

    _sgd_loop(net, data.features, steps, lr, batch, rng, upstream, (data.labels, -data.labels / batch))


def _hinge_sgd(
    data: Dataset,
    arch: NetworkArchitecture,
    steps: int,
    lr: float,
    batch: int,
    seed: int,
) -> FeedForwardNet:
    """A weak learner: a net drawn at scale 1, after ``steps`` hinge-SGD updates."""
    net = init_network(arch, derive_seed(seed, 0), 1.0)
    _hinge_steps(net, data, steps, lr, batch, SplitMix64(derive_seed(seed, 1)))
    return net


def run_adaboost(data: Dataset, config: BoostConfig) -> AdaBoostResult:
    """Classic exponential-reweighting boosting over resampled weak learners.

    Per round: draw ``config.n`` indices from the current distribution, train
    a weak net on them by hinge SGD with SelfieBoost's architecture and
    per-attempt SGD budget (``init_scale`` is ignored: weak learners start at
    scale 1), measure its weighted error on the full set, and stop early on a
    chance-or-worse learner (discarded) or on a perfect one.  A perfect
    learner receives a vote larger than all previous votes combined so the
    ensemble inherits its zero error.
    """
    if config.T < 1:
        raise ValueError("T must be >= 1")
    arch = config.learner(data.d)
    sgd = config.sgd
    n = config.working_set_size(data.m)
    rng = SplitMix64(derive_seed(config.seed, 5))
    dist = np.full(data.m, 1.0 / data.m)
    members: list[FeedForwardNet] = []
    alphas: list[float] = []
    rounds: list[AdaBoostRound] = []
    ensemble_votes = np.zeros(data.m)

    for t in range(config.T):
        table = build_alias(dist)
        picked = _sized_by("--n", sample_indices, table, n, rng)
        weak = _hinge_sgd(data.subset(picked), arch, sgd.steps, sgd.lr, sgd.batch,
                          derive_seed(config.seed, 100 + t))
        votes = np.where(forward_batch(weak, data.features) > 0.0, 1.0, -1.0)  # a score of 0 votes -1
        eps = chunked_sum(np.where(votes != data.labels, dist, 0.0))
        if eps >= 0.5:
            break  # chance or worse: discard and stop
        if eps == 0.0:
            alpha = 1.0 + sum(abs(a) for a in alphas)
        else:
            alpha = 0.5 * math.log((1.0 - eps) / eps)
        members.append(weak)
        alphas.append(alpha)
        ensemble_votes = ensemble_votes + alpha * votes
        ens_err = float(np.count_nonzero(_vote_sum_sign(ensemble_votes) != data.labels)) / data.m
        rounds.append(AdaBoostRound(eps=eps, alpha=alpha, ensemble_err=ens_err))
        if eps == 0.0:
            break
        dist = dist * np.exp(-alpha * data.labels * votes)
        dist = dist / chunked_sum(dist)

    if not members:
        raise NoWeakLearnerError("every weak learner was at or below chance; ensemble is empty")
    return AdaBoostResult(
        model=EnsembleModel(members=tuple(members), alphas=tuple(alphas)),
        rounds=tuple(rounds),
    )


def _vote_sum_sign(total: np.ndarray) -> np.ndarray:
    # ties resolve to +1
    return np.where(np.asarray(total) >= 0.0, 1.0, -1.0)


def ensemble_predict_batch(model: EnsembleModel, features: np.ndarray) -> np.ndarray:
    """Weighted-majority vote for each row of ``features``; ties go to +1.

    Each of the model's ``groups`` scores a row block with one
    :func:`forward_stacked` call over a workspace kept for the call, which
    gives every member its ``forward_batch`` bits.  The ``alpha * vote`` terms
    are member-major rows after a row of zeros, filled as ``±alpha`` (exactly
    ``alpha * ±1.0``; a score of 0 votes -1).  ``add.reduce`` down the member
    axis of a block at least 2 columns wide adds one member row at a time to
    +0.0, in member order, so each row's total has the bits of a per-member
    loop; one column alone would be summed pairwise, so a 1-row block is
    summed beside a spare column whose total is dropped.
    Blocks are sized so that a block of terms and the widest workspace buffer
    together hold at most ``_STACK_FLOATS`` floats unless one row exceeds it.
    """
    if not model.members:
        raise ValueError("empty ensemble")
    for stack, _ in model.groups:
        features = _check_batch(stack.input_dim, features)  # also when there are no rows
    alphas, width, m = np.array(model.alphas), len(model.members) + 1, features.shape[0]
    rows = max(1, _STACK_FLOATS // (width + max(stack.row_floats for stack, _ in model.groups)))
    groups = [(stack, positions + 1, alphas[positions], stack.workspace(min(rows, m)))
              for stack, positions in model.groups]
    terms = np.zeros((width, max(2, min(rows, m))))
    preds = np.empty(m)
    for k in range(0, m, rows):
        block = features[k : k + rows]
        n = block.shape[0]
        for stack, members, alpha, buffers in groups:
            terms[members, :n] = np.where(forward_stacked(stack, block, buffers) > 0.0, alpha, -alpha).T
        preds[k : k + n] = _vote_sum_sign(np.add.reduce(terms[:, : max(n, 2)], axis=0)[:n])
    return preds


def ensemble_err(model: EnsembleModel, data: Dataset) -> float:
    preds = ensemble_predict_batch(model, data.features)
    return float(np.count_nonzero(preds != data.labels)) / data.m


def cost(model: EnsembleModel) -> CostReport:
    """Every member must be evaluated for each prediction."""
    return CostReport(
        network_evals_per_prediction=len(model.members),
        total_params_evaluated=sum(member.param_count for member in model.members),
    )


@dataclass(frozen=True)
class PlainSgdResult:
    net: FeedForwardNet
    trajectory: tuple[tuple[int, float], ...]  # (step, train_err) checkpoints


def run_plain_sgd(data: Dataset, config: BoostConfig) -> PlainSgdResult:
    """Uniform-sampling hinge SGD control: one network, no boosting.

    It starts from SelfieBoost's initial net and runs ``config.sgd.steps``
    updates.  The training-error trajectory is recorded at roughly
    ``_CHECKPOINTS`` evenly spaced steps.
    """
    steps, lr, batch = config.sgd.steps, config.sgd.lr, config.sgd.batch
    net = config.initial_net(data.d)
    rng = SplitMix64(derive_seed(config.seed, 1))
    every = max(1, steps // _CHECKPOINTS)
    trajectory = [(0, err(net, data))]
    for start in range(0, steps, every):
        stop = min(start + every, steps)
        _hinge_steps(net, data, stop - start, lr, batch, rng)
        trajectory.append((stop, err(net, data)))
    return PlainSgdResult(net=net, trajectory=tuple(trajectory))


def save_ensemble(model: EnsembleModel, path) -> None:
    write_json({
        "format_version": ENSEMBLE_FORMAT_VERSION,
        "alphas": list(model.alphas),
        "members": [net_to_dict(member) for member in model.members],
    }, path)


def ensemble_from_dict(obj) -> EnsembleModel:
    """Validate a parsed ensemble file; an ensemble needs at least one member."""
    if not isinstance(obj, dict):
        raise ModelFormatError("ensemble file must hold a JSON object")
    version = obj.get("format_version")
    if isinstance(version, bool) or version != ENSEMBLE_FORMAT_VERSION:
        raise ModelVersionError(
            f"unsupported format_version {version!r}, "
            f"expected {ENSEMBLE_FORMAT_VERSION}"
        )
    alphas = obj.get("alphas")
    members = obj.get("members")
    if not isinstance(alphas, list) or not isinstance(members, list) or len(alphas) != len(members):
        raise ModelFormatError("fields 'alphas' and 'members' must be lists of equal length")
    if not members:
        raise ModelFormatError("ensemble has no members")
    for i, a in enumerate(alphas):
        if isinstance(a, bool) or not isinstance(a, (int, float)) or not abs(a) <= sys.float_info.max:
            raise ModelFormatError(f"alpha {i} must be a finite number, got {a!r}")
    nets = []
    for i, member in enumerate(members):
        try:
            nets.append(net_from_dict(member))
        except ModelFormatError as exc:
            raise type(exc)(f"member {i}: {exc}") from exc
    if len({net.architecture.input_dim for net in nets}) > 1:
        raise ShapeError("ensemble members disagree on input dimension")
    return EnsembleModel(members=tuple(nets), alphas=tuple(float(a) for a in alphas))


def load_ensemble(path) -> EnsembleModel:
    return ensemble_from_dict(read_json(path))
