"""Shared domain types: flat parameter vectors, client updates, seeded streams.

All model parameters travel as flat float64 vectors with a (num_classes,
num_features) shape descriptor, so every aggregation strategy is a plain
vector operator. All randomness flows through ``Rng`` streams, numpy
Generators seeded from one master seed by a fixed 64-bit hash, which makes
results independent of scheduling order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .config import SEED_MAX, STREAM_FIELD_LIMIT

# A client id is a plain non-negative int, unique within a federation
# (ids are 0..N-1 for a federation of N clients).
ClientId = int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# StreamGrid hashes at most this many stream ids in one call (128 KiB of
# words), or one round's if a round has more.
STREAM_BLOCK_IDS = 4096


def mix64(seed: int, stream_id):
    """Derive a 64-bit stream seed from (master seed, stream id).

    splitmix64 finalizer applied to ``seed + (stream_id + 1) * golden``;
    pure integer math, so identical on every platform. ``stream_id`` is an
    int or a uint64 array; array arithmetic wraps mod 2**64 as the masks
    do for ints, so each element gets the int result.
    """
    z = (seed + (stream_id + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _stream_id(purpose, a, b):
    """The stream id of (purpose, a, b), unchecked: ints, or uint64 arrays
    that broadcast, for which every element gets the int result."""
    return (purpose << 48) | (a << 24) | b


def substream(purpose: int, a: int = 0, b: int = 0) -> int:
    """Pack (purpose, a, b) into a single stream id.

    ``a`` and ``b`` must fit in 24 bits (rounds and client ids easily do);
    ``purpose`` is a small tag kept apart in the top bits.
    """
    if not 0 <= a < STREAM_FIELD_LIMIT:
        raise ValueError(f"substream component a out of range: {a}")
    if not 0 <= b < STREAM_FIELD_LIMIT:
        raise ValueError(f"substream component b out of range: {b}")
    if not 0 <= purpose < (1 << 16):
        raise ValueError(f"substream purpose out of range: {purpose}")
    return _stream_id(purpose, a, b)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), for an entropy
# of at most two 32-bit words, no spawn key and the default pool of 4 words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """Per call of the hash: the constant it xors in and the one it then
    multiplies by, which is the xor constant times mult."""
    xors, mults = [], []
    h = init
    for _ in range(calls):
        xors.append(h)
        h = (h * mult) & _MASK32
        mults.append(h)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


# (xor, mult) columns of the 16 pool-mixing and the 8 output hash calls.
_POOL_HASH = _hash_constants(_INIT_A, _MULT_A, 16)
_OUTPUT_HASH = _hash_constants(_INIT_B, _MULT_B, 8)


class PresetWords(ISeedSequence):
    """A SeedSequence stand-in that hands PCG64 precomputed words.

    They are the four uint64 words SeedSequence.generate_state(4, np.uint64)
    would return; PCG64 seeds from nothing else.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes the type itself; np.dtype() only for anything else
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(f"preset seed holds 4 uint64 words, not {n_words} {dtype}")
        return self.words


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mult
    return v ^ (v >> 16)


def _seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each uint64 e,
    as one (len(entropy), 4) uint64 array.

    SeedSequence reads e as 32-bit words, least significant first, and pads
    its pool with hashes of zero; a high word of 0 hashes the same as that
    padding, so every e is taken as two words. Each hash call's constants
    are the same for every e, so the pool is a (4, k) uint32 array and all
    arithmetic wraps in uint32 array ops.
    """
    (xa, ma), (xb, mb) = _POOL_HASH, _OUTPUT_HASH
    e = np.asarray(entropy, dtype=np.uint64)
    pool = np.zeros((4, e.size), np.uint32)
    pool[0] = e & _MASK32
    pool[1] = e >> 32
    pool = _hashmix(pool, xa[:4], ma[:4])
    # Each word, hashed with the next three constants, is mixed into the
    # other three words in turn.
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        call = 4 + 3 * src
        h = _hashmix(pool[src], xa[call : call + 3], ma[call : call + 3])
        mixed = pool[dst] * _MIX_MULT_L - h * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> 16)
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], xb, mb).astype(np.uint64)
    # Output words pair up little-endian: word 2i is the low half of uint64 i.
    return np.ascontiguousarray((out[0::2] | (out[1::2] << 32)).T)


class Rng(np.random.Generator):
    """Deterministic random stream: a numpy Generator on PCG64 whose
    starting state (seed, stream_id) fixes.

    Distinct stream ids (per client, per round, per purpose) give
    independent streams derived from the master seed via :func:`mix64`,
    so no draw ever depends on iteration order. Instances are
    single-owner; never share one across threads. A copy or an unpickled
    Rng is a plain Generator in the same state.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id)
        super().__init__(np.random.PCG64(mix64(self.seed, self.stream_id)))

    @classmethod
    def _from_words(cls, seed: int, stream_id: int, words: np.ndarray) -> "Rng":
        """The stream ``Rng(seed, stream_id)`` gives, from the four words
        SeedSequence would hash its mix64 value to."""
        rng = cls.__new__(cls)
        rng.seed = seed
        rng.stream_id = stream_id
        np.random.Generator.__init__(rng, np.random.PCG64(PresetWords(words)))
        return rng


class StreamGrid:
    """``Rng(seed, substream(purpose, t, c))`` for each round t in
    range(rounds) and each c in clients, each in exactly the state that
    constructor gives.

    The SeedSequence hash (see :func:`_seed_sequence_words`) runs over a
    block of rounds at once, every client of each: as many rounds as fit in
    STREAM_BLOCK_IDS ids, and at least one. A block starts at a multiple of
    its length and is hashed when a round in it is first asked for; each
    generator is built only when asked for.
    """

    def __init__(self, seed: int, purpose: int, rounds: int, clients: Sequence[int]):
        # substream's range checks, on the grid's corners
        substream(purpose, 0, min(clients, default=0))
        substream(purpose, max(rounds - 1, 0), max(clients, default=0))
        self.seed = int(seed) & _MASK64
        self.purpose = purpose
        self.rounds = rounds
        self._column = {c: j for j, c in enumerate(clients)}
        self._clients = np.array(clients, dtype=np.uint64)
        self._block = max(1, STREAM_BLOCK_IDS // max(1, len(clients)))
        self._first = 0
        self._words = np.empty((0, len(clients), 4), np.uint64)  # rounds x clients x 4

    def rng(self, t: int, c: int) -> Rng:
        """Client c's stream at round t."""
        k = t - self._first
        if not 0 <= k < len(self._words):
            self._hash_block(t)
            k = t - self._first
        words = self._words[k, self._column[c]]
        return Rng._from_words(self.seed, _stream_id(self.purpose, t, c), words)

    def _hash_block(self, t: int) -> None:
        """Hash every stream of the block that holds round t."""
        if not 0 <= t < self.rounds:
            raise IndexError(f"round {t} is outside the grid's {self.rounds} rounds")
        first = t - t % self._block
        rounds = np.arange(first, min(first + self._block, self.rounds), dtype=np.uint64)
        ids = _stream_id(self.purpose, rounds[:, None], self._clients)
        words = _seed_sequence_words(mix64(self.seed, ids.ravel()))
        self._first = first
        self._words = words.reshape(len(rounds), len(self._clients), 4)


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
