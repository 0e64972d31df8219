import json
import math
import pathlib

import numpy as np
import pytest

from fedwatch.aggregators import AGGREGATORS
from fedwatch.config import ConfigError, build_config
from fedwatch.engine import EngineError, confusion_rates, metrics_to_csv, run, sweep


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
        result = run(cfg(rounds=8))
        for t, decision in enumerate(result.decisions):
            expected = result.param_trace[t].values + decision.delta.values
            assert np.array_equal(result.param_trace[t + 1].values, expected)
        assert np.array_equal(result.param_trace[-1].values, result.final_params.values)

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
        result = run(conf)
        # the poisoned shard should disagree with the source labels
        shard = next(s for s in result.shards if s.client == 2)
        clean = run(cfg())  # same seed, no attack: same partition
        clean_shard = next(s for s in clean.shards if s.client == 2)
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
        result = run(conf)
        for snapshot in result.reputation_trace:
            assert all(0.0 <= r <= 1.0 for r in snapshot.values())
        # once reputation dips below the gate the client stops participating
        if any(result.reputation_trace[t][8] < 0.5 for t in range(len(result.metrics) - 1)):
            assert any(8 in m.non_participants for m in result.metrics)

    def test_reputation_disabled_keeps_everyone(self):
        conf = cfg(reputation={"enabled": False, "decay_lambda": 0.9, "participation_threshold": 0.9})
        result = run(conf)
        assert all(m.non_participants == () for m in result.metrics)
        assert all(r == 1.0 for r in result.reputation_trace[-1].values())

    def test_ledger_identity_and_totals(self):
        conf = cfg(resource={"alpha": 0.5, "beta": 0.25})
        result = run(conf)
        for m, e in zip(result.metrics, result.ledger.entries):
            assert m.objective == e.mean_loss + 0.5 * e.cost + 0.25 * e.overhead
            assert abs(m.objective - (m.global_loss + 0.5 * m.cost + 0.25 * m.overhead)) <= 1e-12

    def test_cost_counts_epochs_times_samples(self):
        result = run(cfg(rounds=1))
        train_total = sum(s.train.num_samples for s in result.shards)
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
        result = run(self.overflowing_fedavg())
        assert len(result.metrics) == 2
        for m in result.metrics:
            assert m.excluded_ids == (2, 5)
            assert (m.tp, m.fp, m.tn, m.fn) == (0, 0, 6, 0)
            assert (m.excl_precision, m.excl_recall, m.excl_accuracy) == (1.0, 1.0, 1.0)
        # the reputation penalty for the excluded clients is unchanged
        last = result.reputation_trace[-1]
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
