"""Deterministic randomness, stable exponential example weights, inverse-CDF draws.

Every random draw in the package flows through :class:`SplitMix64`, so a run
is reproducible bit for bit from a single integer seed on any platform.
"""

from __future__ import annotations

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


def weights_from_margins(margins: np.ndarray) -> tuple[np.ndarray, float]:
    """The resampling distribution ``D_i ∝ exp(-margin_i)`` and its log
    normalizer ``log(sum(exp(-margins)))``, the log-sum-exp potential."""
    margins = np.asarray(margins, dtype=np.float64)
    if margins.size == 0:
        raise EmptyDatasetError("cannot weight an empty margin vector")
    if not np.all(np.isfinite(margins)):
        raise NumericError("margins contain non-finite values")
    neg = -margins
    hi = float(np.max(neg))
    unnorm = np.exp(neg - hi)
    total = chunked_sum(unnorm)
    return unnorm / total, hi + float(np.log(total))


def build_alias(probs: np.ndarray) -> np.ndarray:
    """Inverse-CDF table of a normalized distribution: its running sums ``c``.
    Index ``i`` owns ``[c[i-1], c[i])`` (index 0 owns ``[0, c[0])``), so a
    zero weight owns nothing.  The name is the one the benchmark wraps."""
    probs = np.asarray(probs, dtype=np.float64)
    if len(probs) == 0:
        raise EmptyDatasetError("cannot build a sampling table for zero outcomes")
    if np.any(probs < 0) or not np.all(np.isfinite(probs)):
        raise NumericError("sampling table needs finite non-negative probabilities")
    if abs(chunked_sum(probs) - 1.0) > 1e-9:
        raise NumericError("sampling table input must sum to 1 within 1e-9")
    return np.cumsum(probs)


def sample_indices(table: np.ndarray, n: int, rng: SplitMix64) -> np.ndarray:
    """``n`` i.i.d. draws from a :func:`build_alias` table, one uniform ``u``
    each: the index whose interval holds ``u * c[-1]``.  A value that rounds
    up to ``c[-1]`` goes to the last index with positive weight, so a zero
    weight is never drawn.  The name is the one the benchmark wraps."""
    if n < 1:
        raise ValueError("need at least one draw")
    picks = np.searchsorted(table, rng.uniform_block(n) * table[-1], side="right")
    return np.minimum(picks, np.searchsorted(table, table[-1]))
