"""Synthetic Gaussian-cluster datasets, CSV loading, and client partitioning."""

from __future__ import annotations

import array
import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import ARRAY_BYTES_LIMIT, HETEROGENEITY_MODES, HeterogeneitySpec
from .core import ClientId

# Class means are pushed at least this many cluster widths apart so a
# linear model can separate them.
_MIN_SEPARATION = 4.0


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix plus integer labels, row-aligned. Treated as immutable."""

    features: np.ndarray  # (num_samples, num_features) float64
    labels: np.ndarray  # (num_samples,) int64

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if x.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError(
                f"labels length {y.shape[0]} does not match {x.shape[0]} rows"
            )
        if y.size and y.min() < 0:
            raise ValueError("negative label")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices])


@dataclass(frozen=True, eq=False)
class ClientShard:
    """One client's local training data."""

    client: ClientId
    train: Dataset


def _class_means(num_classes: int, num_features: int, cluster_spread: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Regular-polygon class means with nearest neighbors 4 spreads apart.

    The polygon (a line when num_features is 1) lives in a random 2-plane
    drawn from the rng, so every feature participates, while the class
    geometry itself is identical for every seed: adjacent classes sit at
    exactly the separability floor, which keeps task hardness comparable
    across draws.
    """
    side = _MIN_SEPARATION * cluster_spread
    if num_features == 1:
        ray = np.arange(num_classes, dtype=np.float64) * side
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return (sign * ray)[:, None]
    if num_classes == 2:
        verts = np.asarray([[0.0, 0.0], [side, 0.0]])
    else:
        radius = side / (2.0 * np.sin(np.pi / num_classes))
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        verts = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    frame, _ = np.linalg.qr(rng.standard_normal((num_features, 2)))
    return verts @ frame.T


def synthetic_labels(num_classes: int, samples_per_class: int) -> np.ndarray:
    """The labels of :func:`generate_synthetic`'s rows in generated order:
    ``samples_per_class`` rows of each class, grouped by class."""
    return np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)


def generate_synthetic(
    num_classes: int,
    num_features: int,
    samples_per_class: int,
    cluster_spread: float,
    rng: np.random.Generator,
    order: np.ndarray | None = None,
) -> Dataset:
    """Isotropic Gaussian clusters, one per class, exactly balanced labels.

    Class means come from :func:`_class_means`; all pairs are at least
    ``4 * cluster_spread`` apart. Rows are generated grouped by class
    (:func:`synthetic_labels`). With ``order``, a permutation of the
    generated rows, row i of the result is generated row ``order[i]``: the
    same bits as ``generate_synthetic(...).subset(order)``, each row
    written once, straight to its place.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if num_features < 1:
        raise ValueError(f"num_features must be >= 1, got {num_features}")
    if samples_per_class < 1:
        raise ValueError(f"samples_per_class must be >= 1, got {samples_per_class}")
    if not cluster_spread > 0:
        raise ValueError(f"cluster_spread must be positive, got {cluster_spread}")
    labels = synthetic_labels(num_classes, samples_per_class)
    n = labels.shape[0]
    if order is None:
        order = np.arange(n)
    order = np.asarray(order)
    if order.dtype.kind not in "iu" or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"order must be a permutation of the {n} generated rows")
    # generated row g goes to row at[g] of the result
    at = np.empty(n, dtype=np.int64)
    at[order] = np.arange(n)

    means = _class_means(num_classes, num_features, cluster_spread, rng)
    features = np.empty((n, num_features))
    for k in range(num_classes):
        noise = rng.standard_normal((samples_per_class, num_features))
        # the two roundings of means[k] + cluster_spread * noise, in place
        noise *= cluster_spread
        noise += means[k]
        features[at[k * samples_per_class : (k + 1) * samples_per_class]] = noise
    return Dataset(features, labels[order])


def load_csv(path: str) -> Dataset:
    """Load a dataset from CSV with header ``f0,...,f{d-1},label``.

    The file is read as UTF-8, with or without a byte-order mark. Rejects a
    malformed header, rows of wrong arity, non-finite features, and labels
    that are not integers, are negative or lie beyond int64. Features go
    straight into one growable float64 buffer, which becomes the feature
    matrix without a copy.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        d = len(header) - 1
        expected = [f"f{i}" for i in range(d)] + ["label"]
        if d < 1 or header != expected:
            raise ValueError(f"{path}: bad header, expected f0,...,f{{d-1}},label")
        feats = array.array("d")
        labels = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise ValueError(
                    f"{path}: line {lineno}: expected {d + 1} fields, got {len(row)}"
                )
            try:
                values = [float(v) for v in row[:d]]
                label = int(row[d])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed value") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: line {lineno}: non-finite value")
            if label < 0:
                raise ValueError(f"{path}: line {lineno}: negative label")
            if label >= 1 << 63:
                raise ValueError(f"{path}: line {lineno}: label beyond int64")
            feats.extend(values)
            labels.append(label)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    features = np.frombuffer(feats).reshape(-1, d)
    return Dataset(features, np.asarray(labels, dtype=np.int64))


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Round ``proportions * total`` to integer counts summing to total.

    Largest-remainder rule, ties broken by lower client id.
    """
    raw = proportions * total
    base = np.floor(raw).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        frac = raw - base
        # Highest remainder first; the stable sort keeps equal ones in id order.
        order = np.argsort(-frac, kind="stable")
        base[order[:leftover]] += 1
    return base


def partition(
    labels: np.ndarray, num_clients: int, spec: HeterogeneitySpec, rng: np.random.Generator
) -> list[np.ndarray]:
    """Deal rows, given by their labels, to clients: each client's ascending
    row indices, in client order.

    Each row gets an owner client, and one stable argsort of the owners
    gives every client its rows in ascending order. iid mode deals the
    shuffled rows round-robin. Dirichlet mode draws, class by class, a
    permutation of the class's rows and client proportions from
    Dirichlet(alpha), dealt by largest-remainder counts; a draw that leaves
    a client without rows is retried up to 100 times. Then, while a client
    has no rows, the lowest empty id takes the largest shard's highest row.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if num_clients > n:
        raise ValueError(f"num_clients={num_clients} exceeds {n} samples")
    if spec.mode not in HETEROGENEITY_MODES:
        raise ValueError(f"unknown heterogeneity mode {spec.mode!r}")

    owner = np.empty(n, dtype=np.int64)
    if spec.mode == "iid":
        owner[rng.permutation(n)] = np.arange(n) % num_clients
    else:
        if not spec.dirichlet_alpha > 0:
            raise ValueError(f"dirichlet_alpha must be positive, got {spec.dirichlet_alpha}")
        # labels are non-negative; np.unique would import numpy.ma. np.bincount
        # holds max + 1 counts, and past an array's limit it corrupts the heap.
        if int(labels.max()) >= ARRAY_BYTES_LIMIT // 8:
            raise ValueError(f"label {int(labels.max())} is too large to count")
        by_class = [np.flatnonzero(labels == c) for c in np.flatnonzero(np.bincount(labels))]
        alpha = np.full(num_clients, float(spec.dirichlet_alpha))
        for _ in range(100):
            trial = [
                (idx[rng.permutation(len(idx))],
                 _largest_remainder_counts(rng.dirichlet(alpha), len(idx)))
                for idx in by_class
            ]
            if sum(counts for _, counts in trial).all():
                break
        for idx, counts in trial:
            owner[idx] = np.repeat(np.arange(num_clients), counts)
    # argmin and argmax pick the lowest id among ties
    while not (sizes := np.bincount(owner, minlength=num_clients)).all():
        owner[np.flatnonzero(owner == np.argmax(sizes))[-1]] = np.argmin(sizes)

    return np.split(np.argsort(owner, kind="stable"), np.cumsum(sizes)[:-1])
