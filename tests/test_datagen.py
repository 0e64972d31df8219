import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedwatch.core import ModelParams, Rng
from fedwatch.datagen import (
    HETEROGENEITY_MODES,
    Dataset,
    HeterogeneitySpec,
    _largest_remainder_counts,
    generate_synthetic,
    load_csv,
    partition,
    synthetic_labels,
)
from fedwatch.trainer import evaluate, loss_and_gradient


def test_balanced_labels_by_construction():
    ds = generate_synthetic(2, 3, 50, 0.3, Rng(0))
    assert ds.num_samples == 100
    assert np.bincount(ds.labels).tolist() == [50, 50]


def test_determinism():
    a = generate_synthetic(3, 5, 20, 0.5, Rng(11, 4))
    b = generate_synthetic(3, 5, 20, 0.5, Rng(11, 4))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_class_mean_separation_floor():
    for seed in range(5):
        for c, f, spread in [(4, 2, 1.0), (3, 8, 0.5), (5, 1, 2.0), (2, 6, 0.25)]:
            ds = generate_synthetic(c, f, 2000, spread, Rng(seed))
            means = np.stack([ds.features[ds.labels == k].mean(axis=0) for k in range(c)])
            for i in range(c):
                for j in range(i + 1, c):
                    d = np.linalg.norm(means[i] - means[j])
                    # empirical means wobble by ~spread/sqrt(n)
                    assert d > 4 * spread - 0.2 * spread


def test_converged_model_separates_the_clusters():
    # Full-batch descent to convergence as the quality oracle.
    ds = generate_synthetic(4, 8, 100, 0.5, Rng(7))
    params = ModelParams.zeros((4, 8))
    for _ in range(2000):
        _, grad = loss_and_gradient(params, ds, 0.0)
        params = ModelParams(params.values - 0.5 * grad.values, params.shape)
    _, acc = evaluate(params, ds)
    assert acc >= 0.95


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        generate_synthetic(1, 3, 10, 0.5, Rng(0))
    with pytest.raises(ValueError):
        generate_synthetic(2, 0, 10, 0.5, Rng(0))
    with pytest.raises(ValueError):
        generate_synthetic(2, 3, 0, 0.5, Rng(0))
    with pytest.raises(ValueError):
        generate_synthetic(2, 3, 10, 0.0, Rng(0))


def test_labels_come_grouped_by_class():
    ds = generate_synthetic(3, 2, 4, 0.5, Rng(0))
    assert np.array_equal(ds.labels, synthetic_labels(3, 4))
    assert synthetic_labels(3, 4).tolist() == [0] * 4 + [1] * 4 + [2] * 4


@settings(max_examples=60, derandomize=True)
@given(
    classes=st.integers(2, 6),
    features=st.integers(1, 7),
    per_class=st.integers(1, 20),
    spread=st.sampled_from([0.25, 1.0, 3.7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_order_places_generated_rows(classes, features, per_class, spread, seed):
    # row i of the ordered result is generated row order[i], bit for bit
    order = np.random.default_rng(seed).permutation(classes * per_class)
    plain = generate_synthetic(classes, features, per_class, spread, Rng(seed, 2))
    placed = generate_synthetic(classes, features, per_class, spread, Rng(seed, 2), order=order)
    expected = plain.subset(order)
    assert placed.features.tobytes() == expected.features.tobytes()
    assert placed.labels.tobytes() == expected.labels.tobytes()


@pytest.mark.parametrize("order", [
    [0, 1, 2],  # too short
    [0, 1, 2, 3, 4],  # too long
    [0, 1, 1, 3],  # a repeat
    [0, 1, 2, 4],  # out of range
    [-1, 0, 1, 2],
    [0.0, 1.0, 2.0, 3.0],  # not integers
    [[0, 1], [2, 3]],
])
def test_order_must_be_a_permutation(order):
    with pytest.raises(ValueError, match="permutation"):
        generate_synthetic(2, 3, 2, 0.5, Rng(0), order=np.asarray(order))


class TestPartition:
    def test_iid_even_division(self):
        ds = generate_synthetic(4, 2, 25, 0.5, Rng(3))
        rows = partition(ds.labels, 20, HeterogeneitySpec("iid"), Rng(3, 1))
        assert [len(ix) for ix in rows] == [5] * 20

    @settings(max_examples=60, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        num_clients=st.integers(1, 12),
        mode=st.sampled_from(["iid", "dirichlet"]),
        alpha=st.sampled_from([0.1, 1.0, 100.0]),
    )
    def test_is_a_set_partition(self, seed, num_clients, mode, alpha):
        ds = generate_synthetic(3, 2, 8, 0.5, Rng(seed))
        rows = partition(ds.labels, num_clients, HeterogeneitySpec(mode, alpha), Rng(seed, 1))
        all_idx = np.concatenate(rows)
        assert len(all_idx) == ds.num_samples
        assert len(np.unique(all_idx)) == ds.num_samples
        assert all(len(ix) >= 1 for ix in rows)
        assert len(rows) == num_clients

    def test_unknown_mode_rejected(self):
        ds = generate_synthetic(3, 2, 8, 0.5, Rng(0))
        with pytest.raises(ValueError, match="unknown heterogeneity mode 'pathological'"):
            partition(ds.labels, 4, HeterogeneitySpec("pathological"), Rng(0, 1))

    def test_deterministic(self):
        ds = generate_synthetic(4, 3, 30, 0.5, Rng(9))
        a = partition(ds.labels, 7, HeterogeneitySpec("dirichlet", 0.3), Rng(9, 2))
        b = partition(ds.labels, 7, HeterogeneitySpec("dirichlet", 0.3), Rng(9, 2))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_dirichlet_alpha_controls_label_skew(self):
        # Lower alpha concentrates classes: mean per-shard label entropy drops.
        def mean_entropy(alpha):
            out = []
            for seed in range(10):
                ds = generate_synthetic(4, 2, 50, 0.5, Rng(seed))
                rows = partition(ds.labels, 8, HeterogeneitySpec("dirichlet", alpha), Rng(seed, 1))
                for ix in rows:
                    counts = np.bincount(ds.labels[ix], minlength=4)
                    p = counts[counts > 0] / counts.sum()
                    out.append(float(-(p * np.log(p)).sum()))
            return float(np.mean(out))

        assert mean_entropy(0.1) < mean_entropy(100.0)

    # sha256 over each client's sha256(row indices bytes), in client order.
    # Data: generate_synthetic(classes, 2, per_class, 1.0, Rng(1, 1));
    # partition rng: Rng(1, 3).
    PINNED = [
        # (mode, alpha, clients, classes, per_class, digest)
        ("iid", 1.0, 50, 10, 800,
         "b85cc9fa08424f6f3040f150b6d757d453b735d2c1d47b3a4cadd51519884dcc"),
        # 30 rows on 7 clients: clients 0 and 1 get the extra rows
        ("iid", 1.0, 7, 3, 10,
         "1dbf9c7e55a8de7b3717b4c3f6133a9fb44e6e6038b37a8a04056568ee1af4d1"),
        # the first Dirichlet trial gives every client a row
        ("dirichlet", 0.4, 20, 4, 200,
         "da864f8be11db0d066bc73deced0a4722e767b475886234767098ec9ff4eb9aa"),
        # four trials leave a client empty, the fifth is accepted
        ("dirichlet", 0.3, 8, 2, 10,
         "8f82f57cb4c04d6d4a1085d49642e9025c6799bee96e0ffbccaf85d19b6314d1"),
        # all 100 trials fail; the fallback moves 5 rows
        ("dirichlet", 0.1, 10, 3, 5,
         "0e7eafd03d55905daf8f3b1abb04c534feec7a0d5c1c4cdba10c11d5a433c66a"),
    ]

    @pytest.mark.parametrize("mode,alpha,clients,classes,per_class,digest", PINNED)
    def test_pinned_shard_digests(self, mode, alpha, clients, classes, per_class, digest):
        ds = generate_synthetic(classes, 2, per_class, 1.0, Rng(1, 1))
        rows = partition(ds.labels, clients, HeterogeneitySpec(mode, alpha), Rng(1, 3))
        h = hashlib.sha256()
        for ix in rows:
            assert ix.dtype == np.int64
            assert np.all(np.diff(ix) > 0)
            h.update(hashlib.sha256(ix.tobytes()).digest())
        assert h.hexdigest() == digest

    def test_too_many_clients_rejected(self):
        ds = generate_synthetic(2, 2, 3, 0.5, Rng(0))
        with pytest.raises(ValueError):
            partition(ds.labels, 7, HeterogeneitySpec("iid"), Rng(0, 1))

    def test_largest_remainder_counts(self):
        # dirichlet draws sum to one; rounded counts must sum exactly
        rng = Rng(42)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            p = rng.dirichlet(np.full(k, 0.5))
            assert abs(p.sum() - 1.0) <= 1e-9
            total = int(rng.integers(1, 500))
            counts = _largest_remainder_counts(p, total)
            assert counts.sum() == total
            assert np.all(counts >= 0)
        # remainder ties break toward the lower client id
        assert _largest_remainder_counts(np.asarray([0.5, 0.5]), 3).tolist() == [2, 1]


class TestCsvLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n0.5,-1.25,0\n2.0,3.5,1\n1.0,0.0,2\n")
        ds = load_csv(str(path))
        assert ds.features.tolist() == [[0.5, -1.25], [2.0, 3.5], [1.0, 0.0]]
        assert ds.labels.tolist() == [0, 1, 2]

    def test_rejects_wrong_arity(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(str(path))

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,label\n1.0,2.0,0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(str(path))

    def test_rejects_non_integer_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,zero\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_rejects_non_finite_feature(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,{value},1\n")
        with pytest.raises(ValueError, match="line 3: non-finite value"):
            load_csv(str(path))

    def test_reads_utf8_with_or_without_bom(self, tmp_path):
        text = "f0,f1,label\n0.5,-1.25,0\n2.0,3.5,1\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(text.encode("utf-8-sig"))
        a, b = load_csv(str(plain)), load_csv(str(bom))
        assert a.features.tolist() == b.features.tolist() == [[0.5, -1.25], [2.0, 3.5]]
        assert a.labels.tolist() == b.labels.tolist() == [0, 1]

    def test_peak_memory_is_near_the_features(self, tmp_path):
        # rows go into one float64 buffer, not a Python float per value
        n, d = 4000, 64
        x = np.random.default_rng(0).normal(size=(n, d))
        path = tmp_path / "big.csv"
        header = ",".join([f"f{i}" for i in range(d)] + ["label"])
        rows = (",".join(map(repr, x[i].tolist())) + f",{i % 5}" for i in range(n))
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            ds = load_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.tobytes() == x.tobytes()
        assert peak <= 2.5 * x.nbytes

    def test_errors_name_their_line_past_the_first_block(self, tmp_path):
        # line 20,002 comes long after the feature buffer first grows
        path = tmp_path / "bad.csv"
        good = "".join(f"{i}.5,1.0,{i % 3}\n" for i in range(20_000))
        for bad, message in [("1.0,nan,0", "non-finite value"), ("1.0,2.0,-1", "negative label"),
                             ("1.0,x,0", "malformed value"), ("1.0,0", "expected 3 fields")]:
            path.write_text("f0,f1,label\n" + good + bad + "\n")
            with pytest.raises(ValueError, match=f"line 20002: {message}"):
                load_csv(str(path))
        path.write_text("f0,f1,label\n" + good)
        ds = load_csv(str(path))
        assert ds.features[:, 0].tolist() == [i + 0.5 for i in range(20_000)]
        assert ds.labels.tolist() == [i % 3 for i in range(20_000)]

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,label\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(str(path))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.asarray([0, -1]))
