import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedwatch.attacks import AttackSpec, flip_labels, poison_update
from fedwatch.core import ClientUpdate, ModelParams, Rng
from fedwatch.datagen import Dataset


def make_update(values, shape=(1, 3), client=3, num_samples=5):
    return ClientUpdate(
        client=client,
        delta=ModelParams(np.asarray(values, dtype=float), shape),
        num_samples=num_samples,
    )


class TestFlipLabels:
    def test_shift_rule_at_full_fraction(self):
        data = Dataset(np.zeros((4, 1)), np.asarray([0, 1, 2, 3]))
        out = flip_labels(data, 1.0, 4, Rng(0))
        assert out.labels.tolist() == [1, 2, 3, 0]

    def test_zero_fraction_is_identity(self):
        data = Dataset(np.arange(6.0).reshape(3, 2), np.asarray([0, 1, 0]))
        out = flip_labels(data, 0.0, 2, Rng(0))
        assert out.labels.tolist() == [0, 1, 0]

    def test_involution_for_two_classes(self):
        data = Dataset(np.zeros((5, 1)), np.asarray([0, 1, 1, 0, 1]))
        once = flip_labels(data, 1.0, 2, Rng(1))
        twice = flip_labels(once, 1.0, 2, Rng(2))
        assert twice.labels.tolist() == data.labels.tolist()

    def test_features_untouched_bitwise(self):
        rng = Rng(5)
        data = Dataset(rng.standard_normal((30, 3)), rng.integers(0, 4, size=30))
        out = flip_labels(data, 0.5, 4, Rng(6))
        assert out.features is data.features

    @settings(max_examples=100, derandomize=True)
    @given(
        n=st.integers(1, 40),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
    )
    def test_flips_exactly_ceil_fraction_n(self, n, fraction, seed):
        data = Dataset(np.zeros((n, 1)), np.arange(n, dtype=np.int64) % 5)
        out = flip_labels(data, fraction, 5, Rng(seed))
        changed = int(np.sum(out.labels != data.labels))
        assert changed == min(n, math.ceil(fraction * n))

    def test_histogram_is_permuted_at_full_fraction(self):
        rng = Rng(7)
        labels = rng.integers(0, 3, size=60)
        data = Dataset(np.zeros((60, 1)), labels)
        out = flip_labels(data, 1.0, 3, Rng(8))
        before = np.bincount(labels, minlength=3)
        after = np.bincount(out.labels, minlength=3)
        assert after.tolist() == np.roll(before, 1).tolist()

    def test_rejects_bad_args(self):
        data = Dataset(np.zeros((2, 1)), np.asarray([0, 1]))
        with pytest.raises(ValueError):
            flip_labels(data, 0.5, 1, Rng(0))
        with pytest.raises(ValueError):
            flip_labels(data, 1.5, 2, Rng(0))


class TestPoisonUpdate:
    def test_sign_flip_negates(self):
        upd = make_update([1.0, -2.0, 0.0, 0.5])
        spec = AttackSpec(kind="sign_flip", magnitude=1.0, targets=(3,))
        out = poison_update(upd, spec, Rng(0))
        assert out.delta.values.tolist() == [-1.0, 2.0, -0.0, -0.5]

    def test_scale_zero_gives_zero_delta(self):
        upd = make_update([1.0, -2.0, 3.0, 0.5])
        out = poison_update(upd, AttackSpec(kind="scale", magnitude=0.0), Rng(0))
        assert np.all(out.delta.values == 0.0)

    def test_noise_zero_is_identity(self):
        upd = make_update([0.25, -1.0, 2.0, 0.125])
        out = poison_update(upd, AttackSpec(kind="gaussian_noise", magnitude=0.0), Rng(0))
        assert np.array_equal(out.delta.values, upd.delta.values)

    def test_metadata_preserved(self):
        upd = make_update([1.0, 2.0, 3.0, 4.0], client=11, num_samples=42)
        for kind in ("sign_flip", "gaussian_noise", "scale"):
            out = poison_update(upd, AttackSpec(kind=kind, magnitude=0.5), Rng(1))
            assert out.client == 11
            assert out.num_samples == 42
            assert out.delta.shape == upd.delta.shape

    def test_label_flip_rejected_here(self):
        upd = make_update([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            poison_update(upd, AttackSpec(kind="label_flip"), Rng(0))
