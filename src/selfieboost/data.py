"""Synthetic realizable datasets and CSV I/O.

Datasets are labeled by a randomly initialized teacher network after
rejection-sampling away points the teacher scores inside a dead zone, then
rescaling the teacher's output layer so every example has margin at least 1
under it.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DatasetParseError, DegenerateTeacherError, EmptyDatasetError, _sized_by
from .nnet import FeedForwardNet, NetworkArchitecture, forward_batch, init_network
from .nnet import forward  # noqa: F401 -- unused; perfbench's boundary table names data.forward
from .sampling import SplitMix64, derive_seed

# Rejection attempts draw their normals in blocks of at most ``_ROWS`` rows
# and ``_BLOCK_NORMALS`` values, so a wide ``d`` stays bounded; ``save_csv``
# formats ``_ROWS`` rows at a time, so it never holds the whole matrix as
# Python floats.
_ROWS = 1024
_BLOCK_NORMALS = 65536


@dataclass(frozen=True)
class DatasetProvenance:
    margin_floor: float
    rejected: int = 0


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    provenance: Optional[DatasetProvenance] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise EmptyDatasetError("need a (m, d) feature matrix with m >= 1")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must match the number of rows")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.provenance)


def gen_realizable(
    m: int,
    d: int,
    teacher_arch: NetworkArchitecture,
    tau: float,
    seed: int,
) -> tuple[Dataset, FeedForwardNet]:
    """Generate ``m`` standard-normal points labeled by a seeded teacher.

    Points with raw teacher score inside ``(-tau, tau)`` are rejected and
    redrawn (total attempt cap ``100 * m``); the teacher's output layer is
    then rescaled by ``1/tau`` so every margin is at least 1.
    """
    # also rejects nan, inf and a tau below about 5.6e-309, whose 1/tau is inf
    if not (0 < tau <= sys.float_info.max and 1.0 / tau <= sys.float_info.max):
        raise ValueError(f"tau must be a finite number > 0 with a finite reciprocal, got {tau}")
    if teacher_arch.input_dim != d:
        raise ValueError(f"teacher input_dim {teacher_arch.input_dim} != d {d}")
    if m < 1:
        raise ValueError("m must be >= 1")
    return realize(m, teacher_arch, tau, seed)


def realize(
    m: int, teacher_arch: NetworkArchitecture, tau: float, seed: int
) -> tuple[Dataset, FeedForwardNet]:
    """Rejection-sample ``m`` points for :func:`gen_realizable` (arguments
    already validated) and rescale the teacher's output layer by ``1/tau``."""
    d = teacher_arch.input_dim
    teacher = _sized_by("--d, --teacher-hidden", init_network, teacher_arch, derive_seed(seed, 0), 1.0)
    rng = SplitMix64(derive_seed(seed, 1))

    features = _sized_by("--m, --d", np.empty, (m, d))
    labels = np.empty(m)
    filled = attempts = 0
    cap = 100 * m
    for block in _normal_blocks(rng, d):
        raw = forward_batch(teacher, block)
        kept = np.flatnonzero(np.abs(raw) >= tau)[: m - filled]
        done = filled + kept.size == m
        # attempts run up to the m-th accepted row, or through the block
        attempts += int(kept[-1]) + 1 if done else block.shape[0]
        if attempts > cap:
            raise DegenerateTeacherError(
                f"rejection sampling exceeded {cap} attempts; "
                f"teacher (seed {seed}) scores almost everything inside +-{tau}"
            )
        features[filled : filled + kept.size] = block[kept]
        labels[filled : filled + kept.size] = np.where(raw[kept] > 0, 1.0, -1.0)
        filled += kept.size
        if done:
            break

    # lift every margin to >= 1 by scaling the output layer
    teacher.weights[-1] *= 1.0 / tau
    teacher.biases[-1] *= 1.0 / tau
    floor = float(np.min(labels * forward_batch(teacher, features)))
    dataset = Dataset(
        features,
        labels,
        provenance=DatasetProvenance(margin_floor=floor, rejected=attempts - m),
    )
    return dataset, teacher


def _normal_blocks(rng: SplitMix64, d: int):
    """Endless blocks of standard-normal rows of width ``d``, one row per
    rejection attempt.

    Each block comes from one ``normal_block`` call.  The generator is
    counter-based and every normal takes two uniforms, so row ``r`` of the
    concatenated blocks equals the ``r``-th of separate ``normal_block(d)``
    calls bit for bit.
    """
    rows = min(_ROWS, max(1, _BLOCK_NORMALS // d))
    while True:
        yield rng.normal_block(rows * d).reshape(rows, d)


def save_csv(dataset: Dataset, path) -> None:
    """Header ``f0,...,f{d-1},label``; one row per example; LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_header(dataset.d)) + "\n")
        for k in range(0, dataset.m, _ROWS):
            rows = dataset.features[k : k + _ROWS].tolist()
            labels = dataset.labels[k : k + _ROWS].tolist()
            for row, label in zip(rows, labels):
                fh.write(",".join(map(repr, row)) + f",{int(label)}\n")


def load_csv(path) -> Dataset:
    """Parse a dataset file.  Empty lines are skipped; an error names a row
    by its line number in the file.

    numpy's C reader parses the rows with the correctly rounded conversion
    behind ``float()``.  A file it rejects, or whose table ``Dataset`` rejects,
    goes to :func:`_parse_rows`, the reference parser and the only source of
    error messages.  ``features`` and ``labels`` are views into one table.
    """
    table = _read_table(path)
    if table is not None:
        try:
            return Dataset(table[:, :-1], table[:, -1])
        except ValueError:  # a label or a feature that _parse_rows names by its row
            pass
    return _parse_rows(path)


def _header(d: int) -> list[str]:
    """The header fields of a dataset file with ``d`` features."""
    return [f"f{j}" for j in range(d)] + ["label"]


def _read_table(path) -> Optional[np.ndarray]:
    """numpy's ``(m, d+1)`` table of a dataset file as wide as its header, else ``None``."""
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. "input contained no data"
        try:
            header = next((line for line in fh if line != "\n"), "").rstrip("\n").split(",")
            if len(header) < 2 or header != _header(len(header) - 1):
                return None
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except (ValueError, Warning):  # a UnicodeDecodeError is a ValueError
            return None
    # a file without rows has already failed on "input contained no data"
    return table if table.shape[1] == len(header) else None


def _parse_rows(path) -> Dataset:
    """The row-at-a-time parser behind :func:`load_csv`: ``float()`` per field."""
    rows = read_rows(path)
    if not rows:
        raise EmptyDatasetError(f"{path}: empty dataset file")
    (_, head), rows = rows[0], rows[1:]
    header = head.split(",")
    if len(header) < 2 or header != _header(len(header) - 1):
        raise DatasetParseError(f"{path}: bad header {head!r}")
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    table = np.empty((len(rows), len(header)))
    for k, values in enumerate(convert_rows(path, rows, [float] * len(header))):
        if values[-1] not in (-1.0, 1.0):
            r, label = rows[k][0], rows[k][1].rsplit(",", 1)[1]
            raise DatasetParseError(f"{path}: row {r}: label must be -1 or 1, got {label!r}")
        table[k] = values
    finite = np.isfinite(table[:, :-1]).all(axis=1)
    if not finite.all():
        raise DatasetParseError(f"{path}: row {rows[np.argmin(finite)][0]}: non-finite feature")
    return Dataset(table[:, :-1], table[:, -1])


def read_rows(path) -> list[tuple[int, str]]:
    """The non-empty lines of a UTF-8 CSV file, without line ending, each with its line number."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [(r, line.rstrip("\n")) for r, line in enumerate(fh, start=1) if line != "\n"]
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"{path}: {exc}") from exc


def convert_rows(path, rows: list[tuple[int, str]], kinds: list):
    """Yield each of :func:`read_rows`' ``rows`` split on commas and converted by ``kinds``."""
    for r, line in rows:
        fields = line.split(",")
        if len(fields) != len(kinds):
            raise DatasetParseError(f"{path}: row {r} has {len(fields)} fields, expected {len(kinds)}")
        try:
            values = [kind(field) for kind, field in zip(kinds, fields)]
        except ValueError as exc:
            raise DatasetParseError(f"{path}: row {r}: {exc}") from exc
        yield values
