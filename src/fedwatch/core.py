"""Shared domain types: flat parameter vectors, client updates, seeded streams.

All model parameters travel as flat float64 vectors with a (num_classes,
num_features) shape descriptor, so every aggregation strategy is a plain
vector operator. All randomness flows through ``Rng`` streams derived from
one master seed by a fixed 64-bit hash, which makes results independent of
scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A client id is a plain non-negative int, unique within a federation
# (ids are 0..N-1 for a federation of N clients).
ClientId = int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(seed: int, stream_id: int) -> int:
    """Derive a 64-bit stream seed from (master seed, stream id).

    splitmix64 finalizer applied to ``seed + (stream_id + 1) * golden``;
    pure integer math, so identical on every platform.
    """
    z = (seed + (stream_id + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream(purpose: int, a: int = 0, b: int = 0) -> int:
    """Pack (purpose, a, b) into a single stream id.

    ``a`` and ``b`` must fit in 24 bits (rounds and client ids easily do);
    ``purpose`` is a small tag kept apart in the top bits.
    """
    if not 0 <= a < (1 << 24):
        raise ValueError(f"substream component a out of range: {a}")
    if not 0 <= b < (1 << 24):
        raise ValueError(f"substream component b out of range: {b}")
    if not 0 <= purpose < (1 << 16):
        raise ValueError(f"substream purpose out of range: {purpose}")
    return (purpose << 48) | (a << 24) | b


class Rng:
    """Deterministic random stream: (seed, stream_id) fixes every draw.

    Distinct stream ids (per client, per round, per purpose) give
    independent streams derived from the master seed via :func:`mix64`,
    so no draw ever depends on iteration order. Instances are
    single-owner; never share one across threads.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id)
        self._gen = np.random.Generator(
            np.random.PCG64(mix64(self.seed, self.stream_id))
        )

    # Thin delegation to the underlying generator; every draw consumes
    # from this stream only.
    def random(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high=high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def dirichlet(self, alpha) -> np.ndarray:
        return self._gen.dirichlet(alpha)

    def choice(self, n, size=None, replace=True):
        return self._gen.choice(n, size=size, replace=replace)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Flat float64 parameter vector for a linear num_classes-way model.

    Layout: num_classes x num_features weights in row-major order,
    followed by num_classes biases. Entries are always finite; callers
    that can produce non-finite values must catch that before building.
    """

    values: np.ndarray
    shape: tuple[int, int]  # (num_classes, num_features)

    def __post_init__(self):
        c, f = self.shape
        if c < 1 or f < 1:
            raise ValueError(f"invalid shape {self.shape}")
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size != c * f + c:
            raise ValueError(
                f"expected {c * f + c} values for shape {self.shape}, got {v.size}"
            )
        if not np.isfinite(v).all():
            raise ValueError("non-finite parameter values")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "shape", (int(c), int(f)))

    @classmethod
    def zeros(cls, shape: tuple[int, int]) -> "ModelParams":
        c, f = shape
        return cls(np.zeros(c * f + c), (c, f))

    @property
    def num_classes(self) -> int:
        return self.shape[0]

    @property
    def num_features(self) -> int:
        return self.shape[1]

    def weights(self) -> np.ndarray:
        """Weight block as a (num_classes, num_features) view."""
        c, f = self.shape
        return self.values[: c * f].reshape(c, f)

    def biases(self) -> np.ndarray:
        """Bias block as a (num_classes,) view."""
        c, f = self.shape
        return self.values[c * f :]

    def __add__(self, other: "ModelParams") -> "ModelParams":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return ModelParams(self.values + other.values, self.shape)


@dataclass(frozen=True, eq=False)
class ClientUpdate:
    """One client's per-round contribution: its delta plus local context.

    ``delta`` is local params minus broadcast params for this round.
    """

    client: ClientId
    delta: ModelParams
    num_samples: int

    def __post_init__(self):
        if self.client < 0:
            raise ValueError(f"negative client id {self.client}")
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
