import numpy as np
import pytest

from fedwatch.core import ClientUpdate, ModelParams, Rng, mix64, substream


def mp(values, shape):
    return ModelParams(np.asarray(values, dtype=float), shape)


class TestModelParams:
    def test_length_must_match_shape(self):
        with pytest.raises(ValueError):
            mp([1, 2, 3], (2, 2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mp([np.nan, 0, 0, 0, 0, 0], (2, 2))
        with pytest.raises(ValueError):
            mp([np.inf, 0, 0, 0, 0, 0], (2, 2))

    def test_weights_biases_views(self):
        p = mp([1, 2, 3, 4, 5, 6], (2, 2))
        assert p.weights().tolist() == [[1, 2], [3, 4]]
        assert p.biases().tolist() == [5, 6]

    def test_bias_slot_location(self):
        p = ModelParams.zeros((3, 4))
        v = p.values.copy()
        v[3 * 4 + 2] = 7.0
        p2 = mp(v, (3, 4))
        assert p2.biases()[2] == 7.0

    def test_add_sub(self):
        a = mp([1, 2, 3, 4, 5, 6], (2, 2))
        b = mp([1, 1, 1, 1, 1, 1], (2, 2))
        assert (a + b).values.tolist() == [2, 3, 4, 5, 6, 7]
        with pytest.raises(ValueError):
            a + ModelParams.zeros((3, 1))


class TestClientUpdate:
    def test_validates_fields(self):
        delta = ModelParams.zeros((2, 2))
        ClientUpdate(client=0, delta=delta, num_samples=1)
        with pytest.raises(ValueError):
            ClientUpdate(client=0, delta=delta, num_samples=0)
        with pytest.raises(ValueError):
            ClientUpdate(client=-1, delta=delta, num_samples=1)


class TestRng:
    def test_same_stream_identical_draws(self):
        a = Rng(123456789, 7)
        b = Rng(123456789, 7)
        assert np.array_equal(a.random(10_000), b.random(10_000))

    def test_distinct_streams_differ(self):
        a = Rng(123456789, 7)
        b = Rng(123456789, 8)
        assert not np.array_equal(a.random(100), b.random(100))

    def test_mix64_frozen_values(self):
        # Pinned so a platform or refactor change cannot slip by silently.
        assert mix64(0, 0) == 16294208416658607535
        assert mix64(1, 0) == 10451216379200822465
        assert mix64(0, 1) == 7960286522194355700

    def test_substream_packing_disjoint(self):
        seen = {substream(p, a, b) for p in (1, 2) for a in (0, 1, 5) for b in (0, 3)}
        assert len(seen) == 12

    def test_substream_range_checks(self):
        with pytest.raises(ValueError):
            substream(1, 1 << 24, 0)
        with pytest.raises(ValueError):
            substream(1, 0, -1)
