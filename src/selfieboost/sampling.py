"""Deterministic randomness, stable exponential example weights, alias sampling.

Every random draw in the package flows through :class:`SplitMix64`, so a run
is reproducible bit for bit from a single integer seed on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, NumericError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53

# Reductions over full-dataset vectors are summed in fixed 1024-wide chunks,
# combined in ascending order, so results never depend on thread count.
CHUNK = 1024


def _mix64(state: int) -> int:
    z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 generator with a counter-based vectorized path.

    The output stream for seed ``s`` is ``mix(s + GAMMA)``, ``mix(s + 2*GAMMA)``,
    ... with the standard splitmix64 finalizer, so every implementation of the
    published algorithm produces the identical sequence.  Uniform reals are
    derived as ``(u64 >> 11) * 2**-53``, giving values in ``[0, 1)``.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def next_u64_block(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array, advancing the stream.

        Bit-identical to ``count`` successive :meth:`next_u64` calls.
        """
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
        self.skip(count)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def skip(self, count: int) -> None:
        """Move the stream by ``count`` outputs without producing them;
        a negative ``count`` rewinds, so the next outputs replay."""
        self._state = (self._state + count * _GAMMA) & _MASK64

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _INV53

    def uniform_block(self, count: int) -> np.ndarray:
        return (self.next_u64_block(count) >> np.uint64(11)).astype(np.float64) * _INV53

    def normal_block(self, count: int) -> np.ndarray:
        """``count`` standard normals via Box-Muller, two uniforms per value.

        Uses ``1 - u`` for the radial draw so the logarithm never sees zero.
        The sine half of each pair is discarded, keeping stream consumption
        a fixed function of ``count``.
        """
        u = self.uniform_block(2 * count)
        r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        return r * np.cos(2.0 * np.pi * u[1::2])


def derive_seed(seed: int, stream: int) -> int:
    """Seed for an independent sub-stream: output ``stream`` of the base stream."""
    return _mix64((seed + (stream + 1) * _GAMMA) & _MASK64)


def uniform_picks(rng: SplitMix64, count: int, n: int) -> np.ndarray:
    """``count`` indices uniform on ``range(n)``, one uniform ``u`` each:
    ``min(floor(u * n), n - 1)``.  Drawing ``s * b`` picks at once equals
    ``s`` draws of ``b``, because the generator is counter-based."""
    if count < 0:
        raise ValueError(f"cannot draw {count} picks")
    return np.minimum((rng.uniform_block(count) * n).astype(np.int64), n - 1)


def chunked_sum(values: np.ndarray) -> float:
    """Sum in fixed ascending chunks so the result is thread-count independent."""
    total = 0.0
    for k in range(0, len(values), CHUNK):
        total += float(np.add.reduce(values[k : k + CHUNK]))
    return total


def logsumexp(values: np.ndarray) -> float:
    """Stable ``log(sum(exp(values)))`` using the shift-by-max trick."""
    values = np.asarray(values, dtype=np.float64)
    hi = float(np.max(values))
    return hi + np.log(chunked_sum(np.exp(values - hi)))


def softmax(values: np.ndarray) -> np.ndarray:
    """Stable ``exp(values) / sum(exp(values))``."""
    values = np.asarray(values, dtype=np.float64)
    shifted = np.exp(values - np.max(values))
    return shifted / chunked_sum(shifted)


@dataclass(frozen=True)
class WeightTable:
    """Example distribution proportional to ``exp(-margin)``.

    ``probs`` is the normalized distribution and ``normalizer_log`` equals
    ``log(sum(exp(-margins)))``, which downstream code uses as the
    log-sum-exp potential of the current network.
    """

    probs: np.ndarray
    normalizer_log: float


def weights_from_margins(margins: np.ndarray) -> WeightTable:
    """Build the resampling distribution ``D_i ∝ exp(-margin_i)``."""
    margins = np.asarray(margins, dtype=np.float64)
    if margins.size == 0:
        raise EmptyDatasetError("cannot weight an empty margin vector")
    if not np.all(np.isfinite(margins)):
        raise NumericError("margins contain non-finite values")
    neg = -margins
    hi = float(np.max(neg))
    unnorm = np.exp(neg - hi)
    total = chunked_sum(unnorm)
    return WeightTable(
        probs=unnorm / total,
        normalizer_log=hi + float(np.log(total)),
    )


@dataclass(frozen=True)
class AliasTable:
    """Vose alias table: O(m) build, O(1) exact-distribution draws."""

    prob: np.ndarray
    alias: np.ndarray

    @property
    def size(self) -> int:
        return len(self.prob)


def build_alias(probs: np.ndarray) -> AliasTable:
    """Construct an alias table for a normalized distribution.

    The reconstruction ``(prob[i] + sum_{alias[j]=i} (1 - prob[j])) / m``
    recovers the input probabilities to rounding error.
    """
    probs = np.asarray(probs, dtype=np.float64)
    m = len(probs)
    if m == 0:
        raise EmptyDatasetError("cannot build an alias table for zero outcomes")
    if np.any(probs < 0) or not np.all(np.isfinite(probs)):
        raise NumericError("alias table needs finite non-negative probabilities")
    if abs(chunked_sum(probs) - 1.0) > 1e-9:
        raise NumericError("alias table input must sum to 1 within 1e-9")

    scaled = [p * m for p in probs.tolist()]
    prob = np.ones(m, dtype=np.float64)
    alias = np.arange(m, dtype=np.int64)
    small = [i for i, p in enumerate(scaled) if p < 1.0]
    large = [i for i, p in enumerate(scaled) if p >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        if scaled[hi] < 1.0:
            small.append(hi)
        else:
            large.append(hi)
    # leftovers were never popped as ``lo``: they keep their initial prob 1, alias i
    return AliasTable(prob=prob, alias=alias)


def sample_indices(table: AliasTable, n: int, rng: SplitMix64) -> np.ndarray:
    """``n`` i.i.d. draws (with replacement) from the table's distribution.

    Each draw consumes two uniforms: one to pick a slot, one for the coin
    against the slot's alias.  Deterministic for a fixed rng state.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    u = rng.uniform_block(2 * n)
    slots = np.minimum((u[0::2] * table.size).astype(np.int64), table.size - 1)
    take_alias = u[1::2] >= table.prob[slots]
    return np.where(take_alias, table.alias[slots], slots)
