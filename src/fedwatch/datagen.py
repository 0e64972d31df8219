"""Synthetic Gaussian-cluster datasets, CSV loading, and client partitioning."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import ClientId, Rng

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
    """One client's local training data, with its source-row indices."""

    client: ClientId
    train: Dataset
    indices: np.ndarray  # ascending row indices into the source dataset


@dataclass(frozen=True)
class HeterogeneitySpec:
    """How training data is spread across clients."""

    mode: str = "iid"  # "iid" or "dirichlet"
    dirichlet_alpha: float = 1.0


def _class_means(num_classes: int, num_features: int, cluster_spread: float, rng: Rng) -> np.ndarray:
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


def generate_synthetic(
    num_classes: int,
    num_features: int,
    samples_per_class: int,
    cluster_spread: float,
    rng: Rng,
) -> Dataset:
    """Isotropic Gaussian clusters, one per class, exactly balanced labels.

    Class means come from :func:`_class_means`; all pairs are at least
    ``4 * cluster_spread`` apart. Rows come out grouped by class.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if num_features < 1:
        raise ValueError(f"num_features must be >= 1, got {num_features}")
    if samples_per_class < 1:
        raise ValueError(f"samples_per_class must be >= 1, got {samples_per_class}")
    if not cluster_spread > 0:
        raise ValueError(f"cluster_spread must be positive, got {cluster_spread}")

    means = _class_means(num_classes, num_features, cluster_spread, rng)
    blocks = []
    labels = []
    for k in range(num_classes):
        noise = rng.standard_normal((samples_per_class, num_features))
        blocks.append(means[k] + cluster_spread * noise)
        labels.append(np.full(samples_per_class, k, dtype=np.int64))
    return Dataset(np.vstack(blocks), np.concatenate(labels))


def load_csv(path: str) -> Dataset:
    """Load a dataset from CSV with header ``f0,...,f{d-1},label``.

    Rejects a malformed header, rows of wrong arity, and non-integer or
    negative labels.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        d = len(header) - 1
        expected = [f"f{i}" for i in range(d)] + ["label"]
        if d < 1 or header != expected:
            raise ValueError(f"{path}: bad header, expected f0,...,f{{d-1}},label")
        features = []
        labels = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise ValueError(
                    f"{path}: line {lineno}: expected {d + 1} fields, got {len(row)}"
                )
            try:
                features.append([float(v) for v in row[:d]])
                label = int(row[d])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed value") from None
            if label < 0:
                raise ValueError(f"{path}: line {lineno}: negative label")
            labels.append(label)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64))


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Round ``proportions * total`` to integer counts summing to total.

    Largest-remainder rule, ties broken by lower client id.
    """
    raw = proportions * total
    base = np.floor(raw).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        frac = raw - base
        # Stable sort on (-frac, id): highest remainder first, then lower id.
        order = np.lexsort((np.arange(len(frac)), -frac))
        base[order[:leftover]] += 1
    return base


def partition(
    data: Dataset, num_clients: int, spec: HeterogeneitySpec, rng: Rng
) -> list[ClientShard]:
    """Split a dataset into per-client shards.

    iid mode shuffles and deals round-robin; dirichlet mode draws per-class
    client proportions from Dirichlet(alpha) and assigns each class's
    samples by largest-remainder counts. Every client ends up with at
    least one sample: the draw is retried up to 100 times, then single
    samples are moved from the largest shard.
    """
    n = data.num_samples
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if num_clients > n:
        raise ValueError(f"num_clients={num_clients} exceeds {n} samples")
    if spec.mode not in ("iid", "dirichlet"):
        raise ValueError(f"unknown heterogeneity mode {spec.mode!r}")

    if spec.mode == "iid":
        perm = rng.permutation(n)
        index_lists = [np.sort(perm[i::num_clients]) for i in range(num_clients)]
    else:
        if not spec.dirichlet_alpha > 0:
            raise ValueError(f"dirichlet_alpha must be positive, got {spec.dirichlet_alpha}")
        classes = np.unique(data.labels)
        by_class = {int(c): np.flatnonzero(data.labels == c) for c in classes}
        alpha = np.full(num_clients, float(spec.dirichlet_alpha))
        for _ in range(100):
            trial: list[list[int]] = [[] for _ in range(num_clients)]
            for c in sorted(by_class):
                idx = by_class[c]
                shuffled = idx[rng.permutation(len(idx))]
                counts = _largest_remainder_counts(rng.dirichlet(alpha), len(idx))
                stops = np.cumsum(counts)
                start = 0
                for i in range(num_clients):
                    trial[i].extend(shuffled[start : stops[i]].tolist())
                    start = int(stops[i])
            index_lists = [np.sort(np.asarray(t, dtype=np.int64)) for t in trial]
            if all(len(ix) for ix in index_lists):
                break
        # Fallback: move one sample at a time from the largest shard.
        while any(len(ix) == 0 for ix in index_lists):
            empty = min(i for i in range(num_clients) if len(index_lists[i]) == 0)
            donor = min(range(num_clients), key=lambda i: (-len(index_lists[i]), i))
            moved = index_lists[donor][-1]
            index_lists[donor] = index_lists[donor][:-1]
            index_lists[empty] = np.asarray([moved], dtype=np.int64)

    return [
        ClientShard(client=i, train=data.subset(ix), indices=ix)
        for i, ix in enumerate(index_lists)
    ]
