"""The blocked kernels give the bytes of their whole-matrix forms, and hold
no second update matrix.

The monitor's median and distances, the weighted mean, trimmed_mean and
the Krum family's pairwise distances each work over blocks of columns or
rows; every value keeps its own operation order, so the bytes must equal
one pass over the whole matrix. ``BLOCK`` and ``PAIRWISE_CHUNK`` are
shrunk here so that small shapes cut into many blocks.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedwatch import aggregators
from fedwatch.aggregators import (
    AGGREGATORS,
    _column_blocks,
    _distances_to,
    _pairwise_sq_dists,
    _sorted_median,
    _weighted_mean,
    aggregate,
    robust_distances,
    stack_updates,
    trimmed_mean,
)
from fedwatch.core import ClientUpdate, ModelParams, Rng
from fedwatch.trust import compute_indicators

from oracles import trimmed_mean_naive


def whole_robust_distances(mat):
    """robust_distances over the whole matrix at once."""
    reference = _sorted_median(np.sort(mat, axis=0))
    dists = np.linalg.norm(mat - reference, axis=1)
    med = float(_sorted_median(np.sort(dists)))
    mad = float(_sorted_median(np.sort(np.abs(dists - med))))
    return dists, med, max(aggregators.MAD_SCALE * mad, aggregators.MAD_FLOOR)


def whole_weighted_mean(mat, weights, rows):
    """The weighted mean of mat[rows] as one product of the gathered rows."""
    w = weights[rows]
    return (w[:, None] * mat[rows]).sum(axis=0) / w.sum()


def whole_pairwise_sq_dists(mat):
    """The pairwise kernel with one difference buffer the size of mat."""
    n = mat.shape[0]
    sq = np.zeros((n, n))
    diff = np.empty_like(mat)
    for i in range(n - 1):
        tail = np.subtract(mat[i + 1 :], mat[i], out=diff[i + 1 :])
        np.vecdot(tail, tail, out=sq[i, i + 1 :])
        sq[i + 1 :, i] = sq[i, i + 1 :]
    return sq


def rows_of(rng, n, d, exponent, overflow):
    """n rows of d values; with ``overflow`` some rows are scaled by 1e154,
    so their squared distances overflow to inf."""
    mat = rng.standard_normal((n, d)) * 10.0**exponent
    if overflow:
        mat[rng.integers(0, 2, size=n) == 1] *= 1e154
    return mat


# (n, d, block): each cuts d into 3 or more column blocks or n into 3 or
# more row blocks, or leaves a would-be 1-column tail (d = 3 * width + 1).
BLOCKED_SHAPES = [
    (1, 9, 4),    # one row, width 4: 4 + 5, a would-be 1-column tail joined
    (2, 13, 8),   # width 4: 4 + 4 + 5
    (3, 7, 6),    # width 2: 2 + 2 + 3
    (3, 10, 12),  # width 4: 4 + 4 + 2
    (9, 25, 72),  # width 8: 8 + 8 + 9
    (20, 5, 12),  # distances: 2 rows a block, 10 blocks
    (40, 61, 100),  # width 2 for the columns, 1 row a block for the distances
]


class TestColumnBlocks:
    @pytest.mark.parametrize("d, width", [(1, 2), (2, 2), (3, 2), (7, 2), (9, 4), (100, 10),
                                          (101, 10), (5, 5461)])
    def test_blocks_tile_the_columns_at_least_two_wide(self, d, width):
        spans = list(_column_blocks(d, width))
        assert spans[0][0] == 0 and spans[-1][1] == d
        assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        assert all(hi - lo >= 2 for lo, hi in spans) or d == 1
        assert all(hi - lo <= width + 1 for lo, hi in spans)


class TestBlockedKernelsMatchTheWholeMatrix:
    @pytest.mark.parametrize("n, d, block", BLOCKED_SHAPES)
    @pytest.mark.parametrize("overflow", [False, True])
    def test_fixed_shapes(self, n, d, block, overflow, monkeypatch):
        monkeypatch.setattr(aggregators, "BLOCK", block)
        monkeypatch.setattr(aggregators, "PAIRWISE_CHUNK", block)
        self.check(rows_of(Rng(n * 1000 + d), n, d, 0, overflow), Rng(d))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 30),
        d=st.integers(1, 90),
        block=st.integers(1, 200),
        exponent=st.integers(-150, 150),
        overflow=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=12, d=31, block=36, exponent=0, overflow=False, seed=0)  # 1-column tail
    def test_random_shapes(self, n, d, block, exponent, overflow, seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aggregators, "BLOCK", block)
            patch.setattr(aggregators, "PAIRWISE_CHUNK", block)
            rng = Rng(seed)
            self.check(rows_of(rng, n, d, exponent, overflow), rng)

    def test_default_blocks_on_a_wide_stack(self):
        # 3 x 20,000: 4 column blocks of 5,461 values, rows one at a time,
        # and 6 rows a pairwise chunk
        rng = Rng(3)
        self.check(rows_of(rng, 3, 20_000, 0, True), rng)

    @staticmethod
    def check(mat, rng):
        n = mat.shape[0]
        weights = rng.integers(1, 500, size=n).astype(float)
        rows = np.sort(rng.permutation(n)[: int(rng.integers(1, n + 1))])
        with np.errstate(over="ignore", invalid="ignore"):
            dists, med, scale = robust_distances(mat)
            want_dists, want_med, want_scale = whole_robust_distances(mat)
            assert dists.tobytes() == want_dists.tobytes()
            assert np.array_equal([med, scale], [want_med, want_scale], equal_nan=True)
            reference = _sorted_median(np.sort(mat, axis=0))
            assert (_distances_to(mat, reference).tobytes()
                    == np.linalg.norm(mat - reference, axis=1).tobytes())
            for kept in (None, rows):
                whole = whole_weighted_mean(mat, weights, slice(None) if kept is None else kept)
                assert _weighted_mean(mat, weights, kept).tobytes() == whole.tobytes()
            assert _pairwise_sq_dists(mat).tobytes() == whole_pairwise_sq_dists(mat).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 15),
        dim=st.integers(1, 40),
        block=st.integers(1, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trimmed_mean_equals_the_sorted_whole_matrix(self, n, dim, block, seed):
        rng = Rng(seed)
        vectors = rng.standard_normal((n, dim + 1))
        ups = [ClientUpdate(i, ModelParams(v, (1, dim)), 1) for i, v in enumerate(vectors)]
        beta = int(rng.integers(0, (n - 1) // 2 + 1))
        want = trimmed_mean(ups, trim_beta=beta)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aggregators, "BLOCK", block)
            got = trimmed_mean(ups, trim_beta=beta)
        assert got.delta.values.tobytes() == want.delta.values.tobytes()
        assert (got.included, got.info) == (want.included, want.info)
        assert np.array_equal(got.delta.values, trimmed_mean_naive(vectors, beta))


# Traced bytes above the stack, as a share of one 64 x 4,096 update matrix
# (2 MiB). The monitor and the means work in blocks of under 128 KiB; the
# Krum family adds its 1 MiB pairwise chunk and n x n distances. A second
# matrix-sized array would take any of them past 1.0.
PEAK_SHARE = {
    "compute_indicators": 0.25,
    "fedavg": 0.25,
    "trimmed_mean": 0.25,
    "krum": 0.6,
    "multi_krum": 0.6,
    "bulyan": 0.6,
    "geomedian": 0.25,
    "sigma_pid": 0.25,
}
PEAK_PARAMS = {
    "trimmed_mean": {"trim_beta": 6},
    "krum": {"byzantine_f": 6},
    "multi_krum": {"byzantine_f": 6, "multi_krum_m": 40},
    "bulyan": {"byzantine_f": 6},
}


class TestNoSecondUpdateMatrix:
    N, D = 64, 4096

    def stack(self):
        mat = Rng(7).standard_normal((self.N, self.D))
        return stack_updates(
            [ClientUpdate(i, ModelParams(row, (1, self.D - 1)), 1 + i % 5) for i, row in enumerate(mat)]
        )

    def peak_share(self, call) -> float:
        stack = self.stack()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call(stack)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / stack.mat.nbytes

    def test_every_rule_is_listed(self):
        assert set(PEAK_SHARE) == {"compute_indicators", *AGGREGATORS}

    def test_the_monitor_works_in_blocks(self):
        zeros = ModelParams.zeros((1, self.D - 1))
        assert self.peak_share(lambda s: compute_indicators(s, zeros)) <= PEAK_SHARE["compute_indicators"]

    @pytest.mark.parametrize("name", AGGREGATORS)
    def test_each_aggregator_stays_within_its_bound(self, name):
        share = self.peak_share(lambda s: aggregate(name, PEAK_PARAMS.get(name, {}), s))
        assert share <= PEAK_SHARE[name]
