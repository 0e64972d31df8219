import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from fedwatch import core, engine
from fedwatch.aggregators import AGGREGATORS, aggregate
from fedwatch.config import ConfigError, build_config, eval_split_size, set_by_path
from fedwatch.core import Rng, substream
from fedwatch.datagen import generate_synthetic, load_csv
from fedwatch.engine import (
    STREAM_DATA,
    STREAM_SPLIT,
    EngineError,
    _build_data,
    confusion_rates,
    metrics_to_csv,
    rounds,
    run,
    sweep,
)
from fedwatch.trust import update_reputation
from test_no_crash import HUGE_NOISE


def cfg(**overrides):
    base = {
        "seed": 5,
        "rounds": 6,
        "num_clients": 8,
        "malicious": {"kind": "label_flip", "fraction": 1.0, "targets": []},
        "dataset": {
            "type": "synthetic",
            "classes": 3,
            "features": 4,
            "samples_per_class": 40,
            "cluster_spread": 0.5,
        },
        "heterogeneity": {"mode": "iid"},
        "train": {"learning_rate": 0.1, "local_epochs": 2, "batch_size": 16, "l2_reg": 1e-4},
        "aggregator": {"name": "fedavg", "params": {}},
        "eval_fraction": 0.2,
    }
    base.update(overrides)
    return build_config(base)


def shards_of(conf):
    """The shards run trains on, built by the calls run makes itself."""
    return _build_data(conf)[1]


class TestConfusionRates:
    def test_perfect_round(self):
        acc, prec, rec = confusion_rates(tp=4, fp=0, tn=16, fn=0)
        assert (acc, prec, rec) == (1.0, 1.0, 1.0)

    def test_mixed_round(self):
        # 3 malicious + 1 benign excluded out of 20 submitters
        acc, prec, rec = confusion_rates(tp=3, fp=1, tn=15, fn=1)
        assert prec == 0.75
        assert rec == 0.75
        assert acc == pytest.approx(18 / 20)

    def test_zero_over_zero_is_one(self):
        acc, prec, rec = confusion_rates(tp=0, fp=0, tn=10, fn=0)
        assert prec == 1.0 and rec == 1.0 and acc == 1.0


class TestRun:
    def test_zero_rounds_is_a_noop(self):
        result = run(cfg(rounds=0))
        assert result.metrics == []
        assert np.all(result.final_params.values == 0.0)
        assert result.initial_loss == pytest.approx(math.log(3), abs=1e-9)

    def test_round_zero_loss_anchor(self):
        result = run(cfg())
        assert result.initial_loss == pytest.approx(math.log(3), abs=1e-6)

    def test_update_rule_identity_every_round(self):
        steps = rounds(cfg(rounds=8))
        records = list(steps)
        assert len(records) == 8
        params = [steps.initial_params] + [r.params for r in records]
        for t, record in enumerate(records):
            expected = params[t].values + record.decision.delta.values
            assert np.array_equal(params[t + 1].values, expected)
        assert np.array_equal(params[-1].values, run(cfg(rounds=8)).final_params.values)

    def test_metrics_cardinality_and_confusion_totals(self):
        result = run(cfg(rounds=5, malicious={"kind": "label_flip", "fraction": 1.0, "targets": [0, 1]}))
        assert len(result.metrics) == 5
        for m in result.metrics:
            submitting = 8 - len(m.non_participants)
            assert m.tp + m.fp + m.tn + m.fn == submitting

    def test_byte_identical_reruns(self):
        a = metrics_to_csv(run(cfg()).metrics)
        b = metrics_to_csv(run(cfg()).metrics)
        assert a == b

    def test_seed_changes_output(self):
        a = metrics_to_csv(run(cfg()).metrics)
        b = metrics_to_csv(run(cfg(seed=6)).metrics)
        assert a != b

    def test_clean_run_converges(self):
        # no attack: loss makes progress within every 5-round stretch and
        # the final model is accurate
        result = run(cfg(rounds=20, num_clients=10, dataset={
            "type": "synthetic", "classes": 4, "features": 8,
            "samples_per_class": 100, "cluster_spread": 0.5,
        }))
        losses = [m.global_loss for m in result.metrics]
        for t in range(5, len(losses)):
            assert losses[t] < losses[t - 5]
        assert result.metrics[-1].global_accuracy >= 0.9

    def test_label_flip_applied_once_before_round_one(self):
        conf = cfg(malicious={"kind": "label_flip", "fraction": 1.0, "targets": [2]})
        # the poisoned shard should disagree with the source labels
        shard = next(s for s in shards_of(conf) if s.client == 2)
        clean = cfg()  # same seed, no attack: same partition
        clean_shard = next(s for s in shards_of(clean) if s.client == 2)
        assert np.array_equal(shard.indices, clean_shard.indices)
        assert not np.array_equal(shard.train.labels, clean_shard.train.labels)
        assert np.array_equal(shard.train.features, clean_shard.train.features)

    def test_malicious_exclusions_counted(self):
        conf = cfg(
            num_clients=9,
            rounds=4,
            malicious={"kind": "label_flip", "fraction": 1.0, "targets": [7, 8]},
            aggregator={"name": "sigma_pid", "params": {"sigma_k": 2.5}},
            train={"learning_rate": 0.5, "local_epochs": 2, "batch_size": 16, "l2_reg": 1e-4},
        )
        result = run(conf)
        total_tp = sum(m.tp for m in result.metrics)
        assert total_tp > 0

    def test_model_poisoning_path(self):
        conf = cfg(
            malicious={"kind": "scale", "magnitude": 50.0, "targets": [1]},
            aggregator={"name": "krum", "params": {"byzantine_f": 1}},
        )
        result = run(conf)
        # a 50x scaled update should basically never win krum
        winners = [m for m in result.metrics if 1 not in m.excluded_ids]
        assert len(winners) == 0

    def test_diverged_client_is_force_excluded(self):
        # noise of stddev 1e308 overflows some of the 195 values to inf
        conf = cfg(
            malicious={"kind": "gaussian_noise", "magnitude": 1e308, "targets": [3]},
            dataset={"type": "synthetic", "classes": 3, "features": 64,
                     "samples_per_class": 40, "cluster_spread": 0.5},
            aggregator={"name": "fedavg", "params": {}},
        )
        result = run(conf)
        for m in result.metrics:
            assert 3 in m.excluded_ids
            # excluded, but not a defence decision: no true positive
            assert (m.tp, m.fp, m.tn, m.fn) == (0, 0, 7, 0)
        assert np.all(np.isfinite(result.final_params.values))

    def test_reputation_trace_and_gating(self):
        conf = cfg(
            num_clients=9,
            rounds=8,
            malicious={"kind": "label_flip", "fraction": 1.0, "targets": [8]},
            aggregator={"name": "sigma_pid", "params": {"sigma_k": 2.5}},
            train={"learning_rate": 0.5, "local_epochs": 2, "batch_size": 16, "l2_reg": 1e-4},
            reputation={"enabled": True, "decay_lambda": 0.9, "participation_threshold": 0.5},
        )
        records = list(rounds(conf))
        reputation_trace = [r.reputation for r in records]
        for snapshot in reputation_trace:
            assert all(0.0 <= r <= 1.0 for r in snapshot.values())
        # once reputation dips below the gate the client stops participating
        if any(reputation_trace[t][8] < 0.5 for t in range(len(records) - 1)):
            assert any(8 in r.metrics.non_participants for r in records)

    def test_reputation_disabled_keeps_everyone(self):
        conf = cfg(reputation={"enabled": False, "decay_lambda": 0.9, "participation_threshold": 0.9})
        records = list(rounds(conf))
        assert all(r.metrics.non_participants == () for r in records)
        assert all(r == 1.0 for r in records[-1].reputation.values())

    def test_ledger_identity_and_totals(self):
        conf = cfg(resource={"alpha": 0.5, "beta": 0.25})
        result = run(conf)
        assert len(result.metrics) == conf.rounds
        for m in result.metrics:
            assert m.objective == m.global_loss + 0.5 * m.cost + 0.25 * m.overhead

    def test_cost_counts_epochs_times_samples(self):
        conf = cfg(rounds=1)
        result = run(conf)
        train_total = sum(s.train.num_samples for s in shards_of(conf))
        assert result.metrics[0].cost == 2 * train_total

    def test_csv_dataset_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["f0,f1,label"]
        for i in range(60):
            label = i % 3
            x = rng.normal(size=2) + 5.0 * label
            lines.append(f"{x[0]},{x[1]},{label}")
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        conf = cfg(
            num_clients=5,
            rounds=3,
            dataset={"type": "csv", "classes": 3, "csv_path": str(path)},
        )
        result = run(conf)
        assert len(result.metrics) == 3
        assert result.initial_loss == pytest.approx(math.log(3), abs=1e-9)

    def test_csv_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n1.0,0\n2.0,5\n3.0,1\n4.0,0\n5.0,1\n")
        conf = cfg(num_clients=2, dataset={"type": "csv", "classes": 2, "csv_path": str(path)})
        from fedwatch.config import ConfigError

        with pytest.raises(ConfigError, match="dataset.classes"):
            run(conf)

    def test_csv_training_samples_must_cover_clients(self, tmp_path):
        # 10 rows, round(0.2 * 10) = 2 held out: 8 training samples
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n" + "".join(f"{i}.0,{i % 2}\n" for i in range(10)))
        dataset = {"type": "csv", "classes": 2, "csv_path": str(path)}
        assert len(run(cfg(num_clients=8, rounds=1, dataset=dataset)).metrics) == 1
        with pytest.raises(ConfigError) as exc:
            run(cfg(num_clients=9, rounds=1, dataset=dataset))
        assert exc.value.path == "num_clients"
        assert str(exc.value) == "num_clients: 8 training samples cannot cover 9 clients"

    def test_pool_too_small_raises(self):
        conf = cfg(
            num_clients=8,
            rounds=3,
            malicious={"kind": "scale", "magnitude": 1e308, "targets": list(range(6))},
            aggregator={"name": "krum", "params": {"byzantine_f": 1}},
        )
        with pytest.raises(EngineError):
            run(conf)

    def test_diverged_client_under_multi_krum_raises_engine_error(self):
        # multi_krum needs max(2f+3, m+f) = 8 updates; one non-finite update
        # leaves 7, which must stop the run before multi_krum itself rejects m.
        conf = build_config(
            {
                "num_clients": 8,
                "rounds": 3,
                "dataset": {"features": 64},
                "malicious": {"kind": "gaussian_noise", "magnitude": 1e308, "targets": [0]},
                "aggregator": {"name": "multi_krum", "params": {"byzantine_f": 1, "multi_krum_m": 7}},
            }
        )
        with pytest.raises(EngineError, match="7 usable updates, multi_krum needs 8"):
            run(conf)


DEFAULT_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "default.json"


class TestDataLayout:
    """Eval and every shard are views of one read-only matrix: the eval rows
    first, then each client's rows, one block per client in client order."""

    def test_a_dirichlet_run_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma, which would add to every run's set-up
        code = (
            "import json, sys, fedwatch; "
            "raw = json.load(open('configs/default.json')); raw['rounds'] = 2; "
            "fedwatch.run(fedwatch.build_config(raw)); "
            "print('numpy.ma' in sys.modules)"
        )
        root = DEFAULT_CONFIG.parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    @staticmethod
    def csv_conf(tmp_path, **overrides):
        rng = np.random.default_rng(1)
        lines = ["f0,f1,f2,label"]
        lines += [",".join(map(repr, rng.normal(size=3).tolist())) + f",{i % 3}" for i in range(90)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        return cfg(dataset={"type": "csv", "classes": 3, "csv_path": str(path)}, **overrides)

    @staticmethod
    def split_oracle(conf):
        """(train, eval) as a separate generate, split and subset would give."""
        ds = conf.dataset
        if ds.type == "synthetic":
            full = generate_synthetic(
                ds.classes, ds.features, ds.samples_per_class, ds.cluster_spread,
                Rng(conf.seed, substream(STREAM_DATA)),
            )
        else:
            full = load_csv(ds.csv_path)
        n = full.num_samples
        n_eval = eval_split_size(n, conf.eval_fraction, conf.num_clients)
        perm = Rng(conf.seed, substream(STREAM_SPLIT)).permutation(n)
        return full.subset(np.sort(perm[n_eval:])), full.subset(np.sort(perm[:n_eval]))

    CONFIGS = {
        "iid": {},
        "dirichlet": {"heterogeneity": {"mode": "dirichlet", "dirichlet_alpha": 0.3}},
        "label_flip": {"malicious": {"kind": "label_flip", "fraction": 0.5, "targets": [1, 4]}},
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS) + ["csv"])
    def test_eval_and_shards_share_one_read_only_matrix(self, name, tmp_path):
        overrides = self.CONFIGS.get(name, {})
        conf = self.csv_conf(tmp_path) if name == "csv" else cfg(**overrides)
        eval_data, shards = _build_data(conf)
        features, labels = eval_data.features.base, eval_data.labels.base
        lo = eval_data.num_samples
        assert np.shares_memory(eval_data.features, features[:lo])
        for s in shards:
            hi = lo + s.train.num_samples
            assert s.train.features.base is features
            assert np.shares_memory(s.train.features, features[lo:hi])
            assert not s.train.features.flags.writeable
            if s.client not in conf.malicious.targets:
                assert np.shares_memory(s.train.labels, labels[lo:hi])
                assert not s.train.labels.flags.writeable
            lo = hi
        assert lo == features.shape[0] == labels.shape[0]
        assert not features.flags.writeable and not labels.flags.writeable
        with pytest.raises(ValueError):
            shards[0].train.features[0, 0] = 1.0

    @pytest.mark.parametrize("name", ["iid", "dirichlet", "csv"])
    def test_shard_rows_match_indices(self, name, tmp_path):
        conf = self.csv_conf(tmp_path) if name == "csv" else cfg(**self.CONFIGS[name])
        train, eval_oracle = self.split_oracle(conf)
        eval_data, shards = _build_data(conf)
        assert eval_data.features.tobytes() == eval_oracle.features.tobytes()
        assert np.array_equal(eval_data.labels, eval_oracle.labels)
        for s in shards:
            assert s.train.features.tobytes() == train.features[s.indices].tobytes()
            assert np.array_equal(s.train.labels, train.labels[s.indices])

    def test_data_step_peak_is_under_one_and_a_half_features(self):
        conf = cfg(num_clients=10, dataset={
            "type": "synthetic", "classes": 10, "features": 64,
            "samples_per_class": 1000, "cluster_spread": 0.5,
        })
        feature_bytes = 10 * 1000 * 64 * 8
        _build_data(conf)
        tracemalloc.start()
        try:
            data = _build_data(conf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data[0].num_samples + sum(s.train.num_samples for s in data[1]) == 10_000
        assert peak <= 1.5 * feature_bytes


class TestGateFallback:
    """The reputation gate admits at least what the aggregator needs."""

    @pytest.mark.parametrize(
        "threshold, aggregator",
        [
            (0.95, None),  # the default multi_krum, f=4, m=12: needs 16
            (0.5, {"name": "krum", "params": {"byzantine_f": 4}}),
            (0.95, {"name": "trimmed_mean", "params": {"trim_beta": 4}}),
        ],
    )
    def test_every_round_has_min_clients_participants(self, threshold, aggregator):
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw["reputation"]["participation_threshold"] = threshold
        if aggregator is not None:
            raw["aggregator"] = aggregator
        conf = build_config(raw)
        need = AGGREGATORS[conf.aggregator.name].min_clients(conf.aggregator.params)
        result = run(conf)
        assert len(result.metrics) == conf.rounds
        assert any(m.non_participants for m in result.metrics)  # the gate engaged
        for m in result.metrics:
            assert conf.num_clients - len(m.non_participants) >= need


class TestDivergedClientsAreNotScored:
    """Diverged clients stay in excluded_ids but count in no confusion cell."""

    @staticmethod
    def overflowing_fedavg():
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw.update(num_clients=8, rounds=2)
        raw["aggregator"] = {"name": "fedavg", "params": {}}
        raw["dataset"]["features"] = 64
        raw["malicious"] = {"kind": "gaussian_noise", "magnitude": 1e308, "targets": [2, 5]}
        return build_config(raw)

    def test_fedavg_reports_no_true_positives(self):
        records = list(rounds(self.overflowing_fedavg()))
        assert len(records) == 2
        for m in (r.metrics for r in records):
            assert m.excluded_ids == (2, 5)
            assert (m.tp, m.fp, m.tn, m.fn) == (0, 0, 6, 0)
            assert (m.excl_precision, m.excl_recall, m.excl_accuracy) == (1.0, 1.0, 1.0)
        # the reputation penalty for the excluded clients is unchanged
        last = records[-1].reputation
        assert last[2] < last[0] and last[5] < last[0]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_attack_raises_no_warning(self):
        run(self.overflowing_fedavg())


class TestTheDefenceSeesEveryFiniteUpdate:
    """An update counts as usable when its values are finite, however large:
    only the aggregator decides whether a huge update is excluded."""

    @staticmethod
    def scaled_attack(aggregator):
        # Updates scaled by 1e154 are finite, but distances between them
        # overflow to inf.
        raw = json.loads(DEFAULT_CONFIG.read_text())
        raw.update(rounds=2, aggregator=aggregator)
        raw["malicious"] = {"kind": "scale", "magnitude": 1e154, "targets": [0, 1, 2, 3]}
        return build_config(raw)

    @pytest.mark.filterwarnings("error")
    def test_bulyan_excludes_every_attacker(self):
        result = run(self.scaled_attack({"name": "bulyan", "params": {"byzantine_f": 4}}))
        assert [(m.tp, m.fn) for m in result.metrics] == [(4, 0), (4, 0)]
        assert [m.excluded_ids for m in result.metrics] == [
            (0, 1, 2, 3, 4, 5, 11, 16),
            (0, 1, 2, 3, 4, 8, 10, 18),
        ]

    @pytest.mark.filterwarnings("error")
    def test_geomedian_ends_with_a_finite_model(self):
        result = run(self.scaled_attack({"name": "geomedian", "params": {}}))
        assert len(result.metrics) == 2
        assert all(d.info["converged"] for d in result.decisions)
        assert np.all(np.isfinite(result.final_params.values))


class TestRoundPhases:
    """Every participant trains before any attacker poisons its update."""

    def test_everyone_trains_before_anyone_poisons(self, monkeypatch):
        from fedwatch import engine

        events = []

        def record(name, seen):
            """Wrap engine.<name>; log (name, seen(args, result)) per call."""
            original = getattr(engine, name)

            def wrapped(*args):
                result = original(*args)
                events.append((name, seen(args, result)))
                return result

            monkeypatch.setattr(engine, name, wrapped)

        record("local_train", lambda args, trained: trained)
        record("poison_update", lambda args, poisoned: args[0])
        record("aggregate", lambda args, decision: None)
        run(cfg(rounds=2, malicious={"kind": "sign_flip", "targets": [1, 4]}))

        rounds, current = [], []
        for kind, update in events:
            if kind == "aggregate":
                rounds.append(current)
                current = []
            else:
                current.append((kind, update))
        assert len(rounds) == 2 and current == []
        for calls in rounds:
            kinds = [kind for kind, _ in calls]
            assert kinds == ["local_train"] * 8 + ["poison_update"] * 2
            trained = {u.client: u for kind, u in calls if kind == "local_train"}
            poisoned = [u for kind, u in calls if kind == "poison_update"]
            assert [u.client for u in poisoned] == [1, 4]
            assert all(u is trained[u.client] for u in poisoned)


class TestStreamBlocks:
    """Where a block of rounds' streams ends moves no stream."""

    def config(self):
        # Attacker 7 drops out at round 3 and attacker 2 at round 6, so who
        # trains and who poisons changes across block edges.
        return cfg(
            num_clients=9,
            rounds=8,
            malicious={"kind": "gaussian_noise", "magnitude": 0.02, "targets": [2, 7]},
            aggregator={"name": "sigma_pid", "params": {"sigma_k": 1.5}},
            reputation={"enabled": True, "decay_lambda": 0.5, "participation_threshold": 0.5},
        )

    # 1: every block one round; 6: poisoning blocks of 3 rounds; 27: training
    # blocks of 3 rounds.
    @pytest.mark.parametrize("bound", [1, 6, 27])
    def test_block_edges_move_no_stream(self, bound, monkeypatch):
        conf = self.config()
        want = run(conf)
        assert [m.non_participants for m in want.metrics] == [()] * 3 + [(7,)] * 3 + [(2, 7)] * 2
        monkeypatch.setattr(core, "STREAM_BLOCK_IDS", bound)
        got = run(conf)
        assert metrics_to_csv(got.metrics) == metrics_to_csv(want.metrics)
        assert got.final_params.values.tobytes() == want.final_params.values.tobytes()

    @pytest.mark.parametrize("bound, hashes", [(core.STREAM_BLOCK_IDS, 2), (27, 4)])
    def test_each_block_is_hashed_once(self, bound, hashes, monkeypatch):
        calls = []

        def counted(entropy, original=core._seed_sequence_words):
            calls.append(entropy.size)
            return original(entropy)

        monkeypatch.setattr(core, "_seed_sequence_words", counted)
        monkeypatch.setattr(core, "STREAM_BLOCK_IDS", bound)
        run(self.config())
        assert len(calls) == hashes


class TestOneStackPerRound:
    """The monitor and the aggregator read one stack and one distance pass."""

    @pytest.mark.parametrize("name", AGGREGATORS)
    def test_each_round_stacks_and_measures_once(self, name, monkeypatch):
        from fedwatch import aggregators

        built, measured = [], []

        class CountedStack(aggregators.UpdateStack):
            def __init__(self, *fields):
                super().__init__(*fields)
                built.append(self)

        def counted_distances(mat, original=aggregators.robust_distances):
            measured.append(mat)
            return original(mat)

        monkeypatch.setattr(aggregators, "UpdateStack", CountedStack)
        monkeypatch.setattr(aggregators, "robust_distances", counted_distances)
        records = list(rounds(cfg(rounds=3, aggregator={"name": name, "params": {}})))
        assert len(built) == 3
        assert len(measured) == 3
        assert all(mat is stack.mat for mat, stack in zip(measured, built))
        if name == "sigma_pid":
            for record in records:
                assert record.decision.info["distances"] == record.indicators.distance



class TestEachRoundHoldsItsDeltasOnce:
    """Once stacked, a round's updates are dropped: only the stack holds
    its deltas while the monitor and the aggregator read them."""

    def test_no_trained_or_poisoned_delta_lives_through_aggregation(self, monkeypatch):
        from fedwatch import engine

        returned, seen = [], []

        def tracked(name):
            original = getattr(engine, name)

            def wrapped(*args):
                update = original(*args)
                returned.append(weakref.ref(update.delta.values))
                return update

            monkeypatch.setattr(engine, name, wrapped)

        def aggregate(name, params, stack, state, original=engine.aggregate):
            alive = sum(ref() is not None for ref in returned)
            decision, state = original(name, params, stack, state)
            seen.append((len(returned), alive, np.shares_memory(decision.delta.values, stack.mat)))
            returned.clear()
            return decision, state

        tracked("local_train")
        tracked("poison_update")
        monkeypatch.setattr(engine, "aggregate", aggregate)
        run(cfg(rounds=3, malicious={"kind": "sign_flip", "targets": [1, 4]},
                aggregator={"name": "krum", "params": {"byzantine_f": 1}}))
        assert seen == [(8 + 2, 0, False)] * 3

class TestRoundsIterator:
    """``rounds`` yields one record a round; ``run`` keeps no trajectory."""

    @staticmethod
    def retained_bytes(conf) -> int:
        """Traced bytes that ``run(conf)``'s result keeps alive."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run(conf)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.metrics) == conf.rounds
        return kept

    def test_run_keeps_less_than_one_model_per_round(self):
        dataset = {"classes": 10, "features": 256, "samples_per_class": 40, "cluster_spread": 0.5}
        model_bytes = 10 * 257 * 8  # 20,560
        run(cfg(rounds=2, dataset=dataset))  # warm-up: imports and caches
        short = self.retained_bytes(cfg(rounds=2, dataset=dataset))
        long = self.retained_bytes(cfg(rounds=30, dataset=dataset))
        assert (long - short) / 28 < model_bytes

    def test_run_keeps_each_rounds_metrics_and_decision_without_delta(self):
        conf = cfg(malicious={"kind": "label_flip", "fraction": 1.0, "targets": [0, 1]},
                   aggregator={"name": "sigma_pid", "params": {}})
        records = list(rounds(conf))
        result = run(conf)
        assert result.metrics == [r.metrics for r in records]
        assert [d.delta for d in result.decisions] == [None] * conf.rounds
        for kept, r in zip(result.decisions, records):
            assert kept.included == r.decision.included and kept.excluded == r.decision.excluded
            assert kept.info == r.decision.info
        assert result.final_params.values.tobytes() == records[-1].params.values.tobytes()

    def test_each_rounds_reputation_follows_from_the_previous_record(self):
        conf = cfg(malicious={"kind": "label_flip", "fraction": 1.0, "targets": [0, 1]},
                   aggregator={"name": "sigma_pid", "params": {}})
        before = dict.fromkeys(range(conf.num_clients), 1.0)
        records = list(rounds(conf))
        assert any(r.decision.excluded for r in records)
        for r in records:
            assert r.reputation == update_reputation(before, r.decision, conf.reputation)
            before = r.reputation

    def test_a_records_params_and_reputation_are_read_only(self):
        # the next round broadcasts the one and gates on the other
        conf = cfg(malicious={"kind": "label_flip", "fraction": 1.0, "targets": [0, 1]},
                   aggregator={"name": "sigma_pid", "params": {}},
                   reputation={"participation_threshold": 0.95})
        steps = rounds(conf)
        with pytest.raises(ValueError, match="read-only"):
            steps.initial_params.values[:] = 0.0
        metrics = []
        for record in steps:
            with pytest.raises(ValueError, match="read-only"):
                record.params.values[:] = 0.0
            with pytest.raises(TypeError):
                record.reputation[0] = 0.0
            metrics.append(record.metrics)
        assert any(m.non_participants for m in metrics)
        assert metrics_to_csv(metrics) == metrics_to_csv(run(conf).metrics)

    def test_a_records_pid_state_is_the_one_the_next_round_reads(self, monkeypatch):
        calls = []  # (state given, state returned) per aggregate call

        def spy(name, params, updates, state=None):
            decision, out = aggregate(name, params, updates, state)
            calls.append((state, out))
            return decision, out

        monkeypatch.setattr(engine, "aggregate", spy)
        records = list(rounds(cfg(aggregator={"name": "sigma_pid", "params": {"ki": 0.5, "kd": 0.5}})))
        assert len(records) == len(calls) > 1
        previous = None
        for record, (given, returned) in zip(records, calls):
            assert given is previous and record.pid_state is returned
            for array in (record.pid_state.prev_error, record.pid_state.integral):
                assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                record.pid_state.integral[:] = 0.0
            previous = record.pid_state
        assert all(r.pid_state is None for r in rounds(cfg(rounds=2)))

    def test_construction_evaluates_the_zero_model(self):
        steps = rounds(cfg(rounds=0))
        assert np.all(steps.initial_params.values == 0.0)
        assert steps.initial_loss == pytest.approx(math.log(3), abs=1e-9)
        assert list(steps) == []

    @pytest.mark.parametrize("stop", ["break", "close"])
    def test_a_consumer_that_stops_after_round_0_keeps_its_errstate(self, stop):
        left = np.geterr()
        steps = rounds(build_config(HUGE_NOISE))
        assert np.geterr() == left
        seen = []
        for record in steps:
            assert np.geterr() == left  # the consumer never runs under the round's state
            seen.append(record.t)
            if stop == "break":
                break
            steps.close()
        assert seen == [0]
        assert np.geterr() == left

    @pytest.mark.filterwarnings("error")
    def test_huge_noise_rounds_warn_nothing(self):
        assert [r.t for r in rounds(build_config(HUGE_NOISE))] == [0, 1]


class TestCsvFormat:
    def test_header_and_shape(self):
        result = run(cfg(rounds=2))
        text = metrics_to_csv(result.metrics)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "round,global_loss,global_accuracy,tp,fp,tn,fn,excl_accuracy,"
            "excl_precision,excl_recall,excluded_ids,non_participants,cost,"
            "overhead,objective"
        )
        assert len(lines) == 3
        assert lines[1].startswith("0,")

    def test_nine_significant_digits(self):
        result = run(cfg(rounds=1))
        row = metrics_to_csv(result.metrics).strip().split("\n")[1]
        loss_field = row.split(",")[1]
        assert float(loss_field) == pytest.approx(result.metrics[0].global_loss, rel=1e-8)
        assert len(loss_field.replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_excluded_ids_semicolon_joined(self):
        conf = cfg(
            malicious={"kind": "scale", "magnitude": 1e308, "targets": [2, 5]},
        )
        text = metrics_to_csv(run(conf).metrics)
        assert "2;5" in text


class TestSweep:
    def test_singleton_sweep_equals_single_run(self):
        conf = cfg(aggregator={"name": "sigma_pid", "params": {"sigma_k": 2.5}})
        rows = sweep(conf, "aggregator.params.sigma_k", [2.5])
        single = run(conf)
        assert rows[0].final_loss == single.metrics[-1].global_loss
        assert rows[0].final_accuracy == single.metrics[-1].global_accuracy

    def test_one_row_per_value(self):
        conf = cfg(aggregator={"name": "sigma_pid", "params": {"sigma_k": 2.5}})
        rows = sweep(conf, "aggregator.params.sigma_k", [1.0, 2.5, 5.0])
        assert [r.value for r in rows] == [1.0, 2.5, 5.0]

    def test_writes_directories(self, tmp_path):
        conf = cfg(rounds=2, aggregator={"name": "sigma_pid", "params": {"sigma_k": 2.5}})
        sweep(conf, "aggregator.params.sigma_k", [1.0, 2.5], out_dir=str(tmp_path))
        assert (tmp_path / "1.0" / "metrics.csv").exists()
        assert (tmp_path / "2.5" / "summary.json").exists()
        summary = (tmp_path / "sweep_summary.csv").read_text()
        assert summary.startswith(
            "value,final_loss,final_accuracy,mean_excl_precision,mean_excl_recall,total_objective"
        )
        assert len(summary.strip().split("\n")) == 3

    def test_each_run_directory_holds_the_config_of_its_point(self, tmp_path):
        conf = cfg(rounds=2, aggregator={"name": "sigma_pid", "params": {"sigma_k": 2.5}})
        path = "aggregator.params.sigma_k"
        sweep(conf, path, [1.0, 2.5], out_dir=str(tmp_path))
        for value in (1.0, 2.5):
            raw = json.loads((tmp_path / str(value) / "config.json").read_text())
            assert raw == build_config(set_by_path(conf.to_dict(), path, value)).to_dict()

    def test_unknown_path_rejected(self):
        from fedwatch.config import ConfigError

        with pytest.raises(ConfigError):
            sweep(cfg(), "aggregator.params.nonexistent", [1.0])

    def test_bad_path_writes_nothing(self, tmp_path):
        from fedwatch.config import ConfigError

        with pytest.raises(ConfigError):
            sweep(cfg(), "train.nope", [1.0, 2.0], out_dir=str(tmp_path / "sweep"))
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("bad", [
        "", ".", "..", "a/b", "nul\0byte", "sweep_summary.csv",
        # 200 characters but 400 bytes: over a 255-byte file name limit.
        pytest.param("é" * 200, id="name-too-long-when-encoded"),
    ])
    def test_value_that_cannot_name_a_run_directory_is_rejected(self, tmp_path, bad):
        with pytest.raises(ConfigError) as exc:
            sweep(cfg(rounds=1), "description", ["ok", bad], out_dir=str(tmp_path / "sweep"))
        assert exc.value.path == "description"
        assert not (tmp_path / "sweep").exists()

    def test_repeated_run_directory_name_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="repeats"):
            sweep(cfg(rounds=1), "description", ["1", "1"], out_dir=str(tmp_path / "sweep"))
        assert not (tmp_path / "sweep").exists()

    def test_names_are_free_without_an_out_dir(self):
        rows = sweep(cfg(rounds=1), "description", ["../x", "../x"])
        assert [r.value for r in rows] == ["../x", "../x"]
