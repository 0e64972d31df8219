import json
import pathlib

import pytest

from fedwatch.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def small_config(**overrides):
    cfg = {
        "seed": 3,
        "rounds": 3,
        "num_clients": 6,
        "dataset": {
            "type": "synthetic",
            "classes": 3,
            "features": 4,
            "samples_per_class": 30,
            "cluster_spread": 0.5,
        },
        "aggregator": {"name": "fedavg", "params": {}},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRunCommand:
    def test_writes_four_files(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["config.json", "metrics.csv", "model.json", "summary.json"]

    def test_rerun_on_stored_config_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
        stored = out1 / "config.json"
        assert main(["run", "--config", str(stored), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_seed_override_recorded_and_effective(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        base = tmp_path / "base"
        seeded = tmp_path / "seeded"
        assert main(["run", "--config", cfg_path, "--out", str(base)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(seeded), "--seed", "99"]) == 0
        stored = json.loads((seeded / "config.json").read_text())
        assert stored["seed"] == 99
        assert (base / "metrics.csv").read_bytes() != (seeded / "metrics.csv").read_bytes()

    def test_summary_contents(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        main(["run", "--config", cfg_path, "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        for key in (
            "config", "initial_loss", "initial_accuracy", "final_loss",
            "final_accuracy", "mean_excl_precision", "mean_excl_recall",
            "total_cost", "total_overhead", "total_objective", "wall_time_seconds",
        ):
            assert key in summary
        model = json.loads((out / "model.json").read_text())
        assert model["shape"] == [3, 4]
        assert len(model["values"]) == 3 * 4 + 3

    @pytest.mark.parametrize(
        "overrides, nulls",
        [
            ({"rounds": 0}, {"mean_excl_precision", "mean_excl_recall"}),
            (
                {"rounds": 2, "resource": {"alpha": 1e308, "beta": 1e308}},
                {"total_objective"},
            ),
        ],
    )
    def test_summary_is_strict_json(self, tmp_path, overrides, nulls):
        # NaN and Infinity are not JSON (RFC 8259): a non-finite real is null.
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        cfg_path = write_config(tmp_path, small_config(**overrides))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert {k for k, v in summary.items() if v is None} == nulls

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        cfg = small_config(num_clients=4, aggregator={"name": "krum", "params": {"byzantine_f": 1}})
        cfg_path = write_config(tmp_path, cfg)
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "aggregator.params.byzantine_f" in err
        assert "\n" not in err.strip()

    def test_too_few_usable_updates_exits_3(self, tmp_path, capsys):
        # Client 0's noise overflows to a non-finite update, which leaves 7
        # updates; multi_krum with f=1, m=7 needs 8.
        cfg = {
            "num_clients": 8,
            "rounds": 3,
            "dataset": {"features": 64},
            "malicious": {"kind": "gaussian_noise", "magnitude": 1e308, "targets": [0]},
            "aggregator": {"name": "multi_krum", "params": {"byzantine_f": 1, "multi_krum_m": 7}},
        }
        cfg_path = write_config(tmp_path, cfg)
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:")
        assert "\n" not in err.strip()

    def test_model_that_overflows_exits_3_naming_the_round(self, tmp_path, capsys):
        # Updates scaled by 1e306 stay finite, but fedavg's weighted sum of
        # them does not.
        cfg = json.loads((ROOT / "configs" / "default.json").read_text())
        cfg.update(rounds=2)
        cfg["aggregator"] = {"name": "fedavg", "params": {}}
        cfg["malicious"] = {"kind": "scale", "magnitude": 1e306, "targets": [0, 1, 2, 3]}
        cfg_path = write_config(tmp_path, cfg)
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: round 0: fedavg gave a model that is not finite\n"

    def test_missing_config_exits_4(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = small_config()
        cfg["surprise"] = 1
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2

    def test_writes_only_inside_out_dir(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out = tmp_path / "only"
        before = set(p.name for p in tmp_path.iterdir())
        main(["run", "--config", cfg_path, "--out", str(out)])
        after = set(p.name for p in tmp_path.iterdir())
        assert after - before == {"only"}


class TestSweepCommand:
    def test_directories_and_summary(self, tmp_path):
        cfg = small_config(aggregator={"name": "sigma_pid", "params": {}})
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--config", cfg_path,
            "--param", "aggregator.params.sigma_k",
            "--values", "1.5,2.0,2.5,3.0",
            "--out", str(out),
        ])
        assert code == 0
        subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert subdirs == ["1.5", "2.0", "2.5", "3.0"]
        rows = (out / "sweep_summary.csv").read_text().strip().split("\n")
        assert len(rows) == 5

    def test_unknown_param_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_config())
        code = main([
            "sweep", "--config", cfg_path,
            "--param", "aggregator.params.bogus",
            "--values", "1,2",
            "--out", str(tmp_path / "s"),
        ])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_invalid_later_value_runs_nothing(self, tmp_path, capsys):
        # byzantine_f=1 is valid on the benchmark, 9 needs 21 clients
        out = tmp_path / "s"
        code = main([
            "sweep", "--config", str(ROOT / "configs" / "default.json"),
            "--param", "aggregator.params.byzantine_f",
            "--values", "1,9",
            "--out", str(out),
        ])
        assert code == 2
        assert "aggregator.params.byzantine_f" in capsys.readouterr().err
        assert not (out / "1").exists()

    def test_singleton_sweep_matches_run(self, tmp_path):
        cfg = small_config(aggregator={"name": "sigma_pid", "params": {"sigma_k": 2.5}})
        cfg_path = write_config(tmp_path, cfg)
        run_out = tmp_path / "single"
        sweep_out = tmp_path / "sw"
        main(["run", "--config", cfg_path, "--out", str(run_out)])
        main([
            "sweep", "--config", cfg_path,
            "--param", "aggregator.params.sigma_k",
            "--values", "2.5",
            "--out", str(sweep_out),
        ])
        assert (run_out / "metrics.csv").read_bytes() == (
            sweep_out / "2.5" / "metrics.csv"
        ).read_bytes()

    def test_sweep_run_directory_reruns_from_its_config(self, tmp_path):
        cfg = small_config(aggregator={"name": "sigma_pid", "params": {}})
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "sw"
        assert main([
            "sweep", "--config", cfg_path,
            "--param", "aggregator.params.sigma_k",
            "--values", "1.5,3.0",
            "--out", str(out),
        ]) == 0
        for value in ("1.5", "3.0"):
            point = out / value
            names = sorted(p.name for p in point.iterdir())
            assert names == ["config.json", "metrics.csv", "model.json", "summary.json"]
            rerun = tmp_path / f"rerun-{value}"
            assert main(["run", "--config", str(point / "config.json"), "--out", str(rerun)]) == 0
            assert (rerun / "metrics.csv").read_bytes() == (point / "metrics.csv").read_bytes()

    def test_boolean_field_sweeps_over_true_and_false(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out = tmp_path / "s"
        code = main([
            "sweep", "--config", cfg_path,
            "--param", "reputation.enabled",
            "--values", "true,false",
            "--out", str(out),
        ])
        assert code == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["False", "True"]
        rows = (out / "sweep_summary.csv").read_text().strip().split("\n")
        assert [r.split(",")[0] for r in rows[1:]] == ["True", "False"]

    def test_boolean_field_still_rejects_a_number(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_config())
        out = tmp_path / "s"
        code = main([
            "sweep", "--config", cfg_path,
            "--param", "reputation.enabled",
            "--values", "1",
            "--out", str(out),
        ])
        assert code == 2
        assert "reputation.enabled: expected a boolean, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "values, problem",
        [
            ("../escaped,x", "cannot name a run directory"),
            ("x,x", "repeats a run directory name"),
            pytest.param("x," + "a" * 300, "bytes long", id="name-too-long"),
        ],
    )
    def test_value_that_is_no_run_directory_name_writes_nothing(
        self, tmp_path, capsys, values, problem
    ):
        cfg_path = write_config(tmp_path, small_config())
        work = tmp_path / "d"
        work.mkdir()
        code = main([
            "sweep", "--config", cfg_path,
            "--param", "description",
            "--values", values,
            "--out", str(work / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: description: sweep value ")
        assert err.count("\n") == 1
        assert problem in err
        assert list(work.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "d"]


class TestConfigErrorPaths:
    """Each failure of reading or validating a config exits with one line."""

    def one_error_line(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        return err

    def sweep(self, config_path, out, values="1.0,2.0"):
        return main([
            "sweep", "--config", config_path,
            "--param", "aggregator.params.sigma_k",
            "--values", values,
            "--out", str(out),
        ])

    def command(self, command, config_path, out):
        if command == "run":
            return main(["run", "--config", config_path, "--out", str(out)])
        return self.sweep(config_path, out)

    def test_sweep_missing_config_exits_4(self, tmp_path, capsys):
        assert self.sweep(str(tmp_path / "nope.json"), tmp_path / "s") == 4
        assert "cannot read config" in self.one_error_line(capsys)

    def test_sweep_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert self.sweep(str(path), tmp_path / "s") == 2
        self.one_error_line(capsys)

    def test_sweep_without_values_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_config(aggregator={"name": "sigma_pid"}))
        assert self.sweep(cfg_path, tmp_path / "s", values=",") == 2
        assert "no sweep values given" in self.one_error_line(capsys)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("seed", [None, "7"])
    def test_run_on_json_array_exits_2(self, tmp_path, capsys, seed):
        cfg_path = write_config(tmp_path, [small_config()])
        argv = ["run", "--config", cfg_path, "--out", str(tmp_path / "o")]
        assert main(argv + (["--seed", seed] if seed else [])) == 2
        self.one_error_line(capsys)

    def test_seed_beyond_64_bits_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        argv = ["run", "--config", cfg_path, "--out", str(out), "--seed", str(2**64)]
        assert main(argv) == 2
        assert self.one_error_line(capsys).startswith("error: seed: must be <= ")
        assert not out.exists()

    def test_run_seed_equal_to_file_seed_changes_nothing(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        plain = tmp_path / "plain"
        seeded = tmp_path / "seeded"
        assert main(["run", "--config", cfg_path, "--out", str(plain)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(seeded), "--seed", "3"]) == 0
        for name in ("metrics.csv", "config.json", "model.json"):
            assert (plain / name).read_bytes() == (seeded / name).read_bytes()

    @pytest.mark.parametrize("dataset", ["synthetic", "csv"])
    def test_training_samples_must_cover_clients(self, tmp_path, capsys, dataset):
        if dataset == "synthetic":
            # 3 x 30 samples, round(0.2 * 90) = 18 held out: 72 training samples
            cfg = small_config(num_clients=73)
            expected = "error: num_clients: 72 training samples cannot cover 73 clients"
        else:
            path = tmp_path / "data.csv"
            path.write_text("f0,label\n" + "".join(f"{i}.0,{i % 2}\n" for i in range(10)))
            cfg = small_config(num_clients=9, dataset={"type": "csv", "classes": 2, "csv_path": str(path)})
            expected = "error: num_clients: 8 training samples cannot cover 9 clients"
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert self.one_error_line(capsys).strip() == expected
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_nan_eval_fraction_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "nan.json"
        path.write_text('{"aggregator": {"name": "sigma_pid"}, "eval_fraction": NaN}')
        out = tmp_path / "out"
        assert self.command(command, str(path), out) == 2
        assert self.one_error_line(capsys).startswith("error: eval_fraction: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "override, path",
        [
            ({"aggregator": {"name": "sigma_pid", "params": {"kp": float("nan")}}}, "aggregator.params.kp"),
            ({"train": {"learning_rate": 10**400}}, "train.learning_rate"),
            ({"heterogeneity": {"dirichlet_alpha": float("inf")}}, "heterogeneity.dirichlet_alpha"),
            ({"dataset": {"cluster_spread": float("inf")}}, "dataset.cluster_spread"),
            ({"resource": {"beta": float("inf")}}, "resource.beta"),
        ],
    )
    def test_non_finite_real_exits_2(self, tmp_path, capsys, command, override, path):
        # json writes these as NaN, Infinity and a 401-digit integer
        cfg = small_config(**{"aggregator": {"name": "sigma_pid"}, **override})
        out = tmp_path / "out"
        assert self.command(command, write_config(tmp_path, cfg), out) == 2
        assert self.one_error_line(capsys).startswith(f"error: {path}: must be finite, got ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_undecodable_config_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"description": "\xff", "aggregator": {"name": "sigma_pid"}}')
        out = tmp_path / "out"
        assert self.command(command, str(path), out) == 2
        assert self.one_error_line(capsys).startswith("error: invalid JSON: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "contents", [None, "f0,label\n1.0,0\nabc,1\n", "f0,label\n1.0,0\nnan,1\n"]
    )
    def test_unreadable_csv_dataset_exits_2(self, tmp_path, capsys, command, contents):
        data = tmp_path / "data.csv"
        if contents is not None:
            data.write_text(contents)
        dataset = {"type": "csv", "classes": 2, "csv_path": str(data)}
        cfg = small_config(aggregator={"name": "sigma_pid"}, dataset=dataset)
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert self.command(command, cfg_path, out) == 2
        assert self.one_error_line(capsys).startswith("error: dataset.csv_path: ")
        assert not out.exists()

    def test_csv_with_bom_runs_like_without(self, tmp_path):
        text = "f0,label\n" + "".join(f"{i}.0,{i % 2}\n" for i in range(10))
        outs = []
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            (tmp_path / f"{name}.csv").write_bytes(text.encode(encoding))
            dataset = {"type": "csv", "classes": 2, "csv_path": str(tmp_path / f"{name}.csv")}
            cfg_path = write_config(tmp_path, small_config(dataset=dataset), f"{name}.json")
            outs.append(tmp_path / name)
            assert main(["run", "--config", cfg_path, "--out", str(outs[-1])]) == 0
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()


class TestOutOfMemory:
    """A size numpy refuses to allocate exits 3 with one error line, not a traceback."""

    @pytest.mark.parametrize("field, value", [("features", 10**13), ("samples_per_class", 10**15)])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_default_config_too_large_exits_3(self, tmp_path, capsys, command, field, value):
        raw = json.loads((ROOT / "configs" / "default.json").read_text())
        raw["dataset"][field] = value
        argv = [command, "--config", write_config(tmp_path, raw), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--param", "seed", "--values", "1"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert err.count("\n") == 1


class TestListAggregators:
    def test_roster(self, capsys):
        assert main(["list-aggregators"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 7
        assert lines[0].split("\t")[0] == "fedavg"
        sigma = next(l for l in lines if l.startswith("sigma_pid"))
        assert "sigma_k=2.5" in sigma

    def test_stable_output(self, capsys):
        main(["list-aggregators"])
        first = capsys.readouterr().out
        main(["list-aggregators"])
        second = capsys.readouterr().out
        assert first == second

    def test_every_name_listed_once(self, capsys):
        main(["list-aggregators"])
        out = capsys.readouterr().out
        names = [l.split("\t")[0] for l in out.strip().split("\n")]
        assert names == [
            "fedavg", "trimmed_mean", "krum", "multi_krum",
            "bulyan", "geomedian", "sigma_pid",
        ]


class TestUsageErrors:
    DEFAULT = str(ROOT / "configs" / "default.json")

    @pytest.mark.parametrize("argv, message", [
        (["run", "--config", DEFAULT, "--out", "o", "--seed", "abc"],
         "error: argument --seed: invalid int value: 'abc'"),
        (["run", "--config", DEFAULT], "error: the following arguments are required: --out"),
        (["bogus"], "error: argument command: invalid choice: 'bogus'"),
    ], ids=["bad-seed", "missing-out", "unknown-command"])
    def test_usage_error_is_one_error_line_and_exit_2(self, tmp_path, monkeypatch, capsys,
                                                      argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["run", "--help"])
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fedwatch run")
