import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedwatch.core import ModelParams, Rng
from fedwatch.datagen import ClientShard, Dataset, generate_synthetic
from fedwatch.trainer import (
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    local_train,
    loss_and_gradient,
)

from oracles import local_train_reference, predict_proba_naive


def mp(values, shape):
    return ModelParams(np.asarray(values, dtype=float), shape)


def shard_of(ds, client=0):
    return ClientShard(client=client, train=ds)


class TestLossAndGradient:
    def test_zero_params_gives_ln2(self):
        ds = generate_synthetic(2, 3, 10, 0.5, Rng(0))
        loss, _ = loss_and_gradient(ModelParams.zeros((2, 3)), ds, 0.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_single_sample_hand_gradient(self):
        # one sample, zero params, x=[1,0], y=0: row for class 0 is (0.5-1)*x
        ds = Dataset(np.asarray([[1.0, 0.0]]), np.asarray([0]))
        _, grad = loss_and_gradient(ModelParams.zeros((2, 2)), ds, 0.0)
        assert grad.weights()[0].tolist() == [-0.5, 0.0]
        assert grad.weights()[1].tolist() == [0.5, 0.0]
        assert grad.biases().tolist() == [-0.5, 0.5]

    def test_matches_finite_differences(self):
        # central differences, h=1e-5, 100 random single-sample cases
        rng = Rng(99)
        h = 1e-5
        worst = 0.0
        for case in range(100):
            shape = (int(rng.integers(2, 5)), int(rng.integers(1, 6)))
            dim = shape[0] * shape[1] + shape[0]
            params = mp(rng.standard_normal(dim), shape)
            x = rng.standard_normal((1, shape[1]))
            y = np.asarray([int(rng.integers(0, shape[0]))])
            data = Dataset(x, y)
            l2 = 0.0 if case % 2 == 0 else 0.05
            _, grad = loss_and_gradient(params, data, l2)
            fd = np.empty(dim)
            for i in range(dim):
                up = params.values.copy()
                up[i] += h
                dn = params.values.copy()
                dn[i] -= h
                lu, _ = loss_and_gradient(mp(up, shape), data, l2)
                ld, _ = loss_and_gradient(mp(dn, shape), data, l2)
                fd[i] = (lu - ld) / (2 * h)
            scale = max(float(np.max(np.abs(grad.values))), 1e-8)
            worst = max(worst, float(np.max(np.abs(grad.values - fd))) / scale)
        assert worst <= 1e-4

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            loss_and_gradient(ModelParams.zeros((2, 2)), empty, 0.0)


class TestLocalTrain:
    def test_zero_learning_rate_means_zero_delta(self):
        ds = generate_synthetic(2, 3, 10, 0.5, Rng(1))
        cfg = TrainConfig(learning_rate=0.0, local_epochs=3, batch_size=4, l2_reg=0.0)
        upd = local_train(ModelParams.zeros((2, 3)), shard_of(ds), cfg, Rng(1, 5))
        assert np.all(upd.delta.values == 0.0)
        assert upd.num_samples == 20

    def test_deterministic(self):
        ds = generate_synthetic(3, 4, 15, 0.5, Rng(2))
        cfg = TrainConfig(learning_rate=0.1, local_epochs=2, batch_size=8)
        a = local_train(ModelParams.zeros((3, 4)), shard_of(ds), cfg, Rng(2, 5))
        b = local_train(ModelParams.zeros((3, 4)), shard_of(ds), cfg, Rng(2, 5))
        assert np.array_equal(a.delta.values, b.delta.values)

    def test_loss_decreases_on_separable_shard(self):
        ds = generate_synthetic(2, 4, 30, 0.5, Rng(3))
        cfg = TrainConfig(learning_rate=0.1, local_epochs=5, batch_size=16, l2_reg=0.0)
        start = ModelParams.zeros((2, 4))
        upd = local_train(start, shard_of(ds), cfg, Rng(3, 5))
        assert evaluate(start + upd.delta, ds)[0] < math.log(2.0)

    def test_divergence_raises(self):
        ds = generate_synthetic(2, 3, 10, 0.5, Rng(4))
        cfg = TrainConfig(learning_rate=1e150, local_epochs=4, batch_size=4, l2_reg=1.0)
        with pytest.raises(TrainingDivergedError):
            local_train(ModelParams.zeros((2, 3)), shard_of(ds), cfg, Rng(4, 5))

    @pytest.mark.filterwarnings("error")
    def test_divergence_warns_nothing_outside_any_errstate(self):
        # local_train sets its own error state, so a lone call that
        # overflows raises its own error and no RuntimeWarning
        assert np.geterr() == {"divide": "warn", "over": "warn", "under": "ignore", "invalid": "warn"}
        ds = generate_synthetic(2, 3, 10, 0.5, Rng(4))
        cfg = TrainConfig(learning_rate=1e150, local_epochs=4, batch_size=4, l2_reg=1.0)
        with pytest.raises(TrainingDivergedError):
            local_train(ModelParams.zeros((2, 3)), shard_of(ds), cfg, Rng(4, 5))

    def test_finite_parameters_are_not_divergence(self):
        # One step at lr 1e300 leaves the parameters finite, near 1e300, so
        # training returns a delta although the ridge term of its loss
        # overflows. The delta's squared norm overflows as well; engine.run
        # still hands such an update to the aggregator, because only
        # non-finite values make an update unusable.
        ds = Dataset(
            np.asarray([[1.0, 0.5], [-1.0, 0.25], [0.5, -1.0], [-0.5, 1.0]]),
            np.asarray([0, 1, 0, 1]),
        )
        cfg = TrainConfig(learning_rate=1e300, local_epochs=1, batch_size=4, l2_reg=1e-4)
        start = ModelParams.zeros((2, 2))
        upd = local_train(start, shard_of(ds), cfg, Rng(6, 5))
        assert np.isfinite(upd.delta.values).all()
        with np.errstate(all="ignore"):
            loss, _ = loss_and_gradient(start + upd.delta, ds, cfg.l2_reg)
            sq_norm = float(np.dot(upd.delta.values, upd.delta.values))
        assert not np.isfinite(loss)
        assert not np.isfinite(sq_norm)


def _train_outcome(train, start, shard, cfg, rng):
    """The delta bits of one training call, or the error it raised."""
    try:
        upd = train(start, shard, cfg, rng)
    except (TrainingDivergedError, ValueError) as exc:
        return type(exc).__name__
    return upd.delta.values.tobytes()


class TestLocalTrainMatchesReference:
    """The step kernel must give the reference loop's bits, divergence included."""

    @settings(max_examples=300, deadline=None)
    @given(
        classes=st.integers(2, 10),
        features=st.integers(1, 40),
        n=st.integers(1, 90),
        batch_over=st.integers(0, 100),
        epochs=st.integers(1, 3),
        l2=st.sampled_from([0.0, 1e-4, 0.5]),
        lr=st.sampled_from([1e-3, 0.1, 1.0, 3.0, 30.0, 1e4, 1e100, 1e200, 1e300]),
        spread=st.sampled_from([0.0, 0.5, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical(self, classes, features, n, batch_over, epochs, l2, lr, spread, seed):
        rng = Rng(seed)
        shape = (classes, features)
        start = mp(rng.standard_normal(classes * features + classes) * spread, shape)
        data = Dataset(
            rng.standard_normal((n, features)) * 2.0, rng.integers(0, classes, size=n)
        )
        shard = ClientShard(client=3, train=data)
        cfg = TrainConfig(
            learning_rate=lr,
            local_epochs=epochs,
            batch_size=1 + batch_over % (n + 2),
            l2_reg=l2,
        )
        expected = _train_outcome(local_train_reference, start, shard, cfg, Rng(seed, 5))
        got = _train_outcome(local_train, start, shard, cfg, Rng(seed, 5))
        assert got == expected


class TestKernelBytesAtWorkloadShapes:
    """The reference loop's bits at the feature and class counts the
    workloads and the scale curve use, where BLAS may run other kernels
    than at the small random shapes above; each epoch ends on a 1-row batch."""

    @pytest.mark.parametrize("l2", [0.0, 1e-4])
    @pytest.mark.parametrize("classes", [4, 10, 40])
    @pytest.mark.parametrize("features", [32, 64, 330])
    @pytest.mark.parametrize("n, batch_size", [(33, 16), (65, 32), (17, 1)])
    def test_bit_identical(self, features, classes, l2, n, batch_size):
        seed = features * 1000 + classes
        rng = Rng(seed)
        shape = (classes, features)
        start = mp(rng.standard_normal(classes * features + classes) * 0.5, shape)
        data = Dataset(rng.standard_normal((n, features)) * 2.0, rng.integers(0, classes, size=n))
        shard = ClientShard(client=1, train=data)
        cfg = TrainConfig(learning_rate=0.5, local_epochs=2, batch_size=batch_size, l2_reg=l2)
        expected = _train_outcome(local_train_reference, start, shard, cfg, Rng(seed, 1))
        got = _train_outcome(local_train, start, shard, cfg, Rng(seed, 1))
        assert isinstance(expected, bytes)
        assert got == expected


class TestCheckedGradientIsApplied:
    """loss_and_gradient's gradient, the one the finite-difference tests
    check, is the step local_train takes."""

    @settings(max_examples=200, deadline=None)
    @given(
        classes=st.integers(2, 10),
        features=st.integers(1, 40),
        n=st.integers(1, 60),
        batch_over=st.integers(0, 20),
        l2=st.sampled_from([0.0, 1e-4, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_full_batch_step_from_zero_is_minus_the_gradient(
        self, classes, features, n, batch_over, l2, seed
    ):
        rng = Rng(seed)
        shape = (classes, features)
        data = Dataset(
            rng.standard_normal((n, features)) * 2.0, rng.integers(0, classes, size=n)
        )
        shard = ClientShard(client=0, train=data)
        cfg = TrainConfig(learning_rate=1.0, local_epochs=1, batch_size=n + batch_over, l2_reg=l2)
        upd = local_train(ModelParams.zeros(shape), shard, cfg, Rng(seed, 5))
        order = Rng(seed, 5).permutation(n)
        _, grad = loss_and_gradient(
            ModelParams.zeros(shape), Dataset(data.features[order], data.labels[order]), l2
        )
        # From zero at lr 1.0 the step sets theta = 0.0 - grad and the delta
        # is theta - 0.0, both exact. The delta is compared with 0.0 - grad
        # rather than its negation with grad: a gradient entry of exactly 0.0
        # (two classes at an even split, say) gives the delta 0.0, not -0.0.
        assert upd.delta.values.tobytes() == (0.0 - grad.values).tobytes()


class TestEvaluate:
    def test_zero_params_on_balanced_data(self):
        ds = generate_synthetic(4, 3, 25, 0.5, Rng(5))
        loss, acc = evaluate(ModelParams.zeros((4, 3)), ds)
        # uniform predictor; argmax tie resolves to class 0 on balanced labels
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)
        assert acc == 0.25

    def test_perfect_predictor_scores_one(self):
        # one-hot features with identity weights: argmax equals the label
        feats = np.eye(3)[[0, 1, 2, 1, 0]]
        data = Dataset(feats, np.asarray([0, 1, 2, 1, 0]))
        params = mp(np.concatenate([np.eye(3).ravel() * 50.0, np.zeros(3)]), (3, 3))
        _, acc = evaluate(params, data)
        assert acc == 1.0

    def test_matches_naive_per_sample_oracle(self):
        rng = Rng(8)
        for _ in range(50):
            c = int(rng.integers(2, 5))
            f = int(rng.integers(1, 5))
            n = int(rng.integers(1, 12))
            params = mp(rng.standard_normal(c * f + c) * 3, (c, f))
            data = Dataset(rng.standard_normal((n, f)) * 2, rng.integers(0, c, size=n))
            loss, acc = evaluate(params, data)
            total = 0.0
            hits = 0
            for i in range(n):
                p = predict_proba_naive(params, data.features[i])
                total += -math.log(p[data.labels[i]])
                hits += int(np.argmax(p) == data.labels[i])
            assert loss == pytest.approx(total / n, abs=1e-9)
            assert acc == pytest.approx(hits / n, abs=0.0)
