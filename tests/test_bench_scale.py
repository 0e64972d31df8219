import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_scale.py"


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_one_row_per_cell_in_table_order(tmp_path, capsys):
    # sizes are tiny and no timing is asserted: this checks the script runs
    script = load(SCRIPT, "bench_scale")
    script.CELLS = [(5, 1, ("fedavg", "bulyan")), (6, 3, ("fedavg",))]
    out = tmp_path / "BENCH_scale.json"
    assert script.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rounds"] == 2
    system = load(ROOT / "benchmark" / "system.py", "benchmark_system")
    assert set(report["environment"]) == set(system.environment(str(ROOT)))
    rows = report["rows"]
    assert [(r["n"], r["d"], r["aggregator"]) for r in rows] == [
        (5, 20, "fedavg"), (5, 20, "bulyan"), (6, 40, "fedavg"),
    ]
    tracing = load(ROOT / "benchmark" / "tracing.py", "benchmark_tracing")
    phases = set(tracing.WRAPPED) - {"build_config", "write_run_outputs"} | {"other"}
    for r in rows:
        assert set(r["seconds"]) == phases
        assert all(isinstance(v, float) for v in r["seconds"].values())
        assert r["peak_rss_mb"] > 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + len(rows)


def test_n_and_aggregators_keep_only_matching_cells(tmp_path, monkeypatch):
    script = load(SCRIPT, "bench_scale")
    measured = []

    def fake_measure(n, features, aggregator, log_dir):
        measured.append((n, features, aggregator))
        return {"seconds": dict.fromkeys(script.PHASES + ("run", "other"), 0.0), "peak_rss_mb": 1.0}

    monkeypatch.setattr(script, "measure", fake_measure)
    argv = ["--n", "200,5000", "--aggregators", "krum,bulyan", "--out", str(tmp_path / "b.json")]
    assert script.main(argv) == 0
    assert measured == [
        (200, 32, "krum"), (200, 32, "bulyan"), (5000, 32, "krum"),
        (200, 256, "krum"), (200, 256, "bulyan"), (200, 1024, "krum"), (200, 1024, "bulyan"),
        (200, 4096, "krum"), (200, 4096, "bulyan"),
    ]


def test_scale_config_is_valid_in_every_cell():
    from fedwatch.config import build_config

    script = load(SCRIPT, "bench_scale")
    cells = script.cells(None, None)
    assert len(cells) == 27
    for n, features, name in cells:
        conf = build_config(script.scale_config(n, features, name))
        assert conf.num_clients == n and conf.rounds == 2
        assert conf.dataset.classes * (conf.dataset.features + 1) == script.CLASSES * (features + 1)


def test_committed_record_has_one_row_per_cell_of_the_table():
    script = load(SCRIPT, "bench_scale")
    system = load(ROOT / "benchmark" / "system.py", "benchmark_system")
    report = json.loads((ROOT / "BENCH_scale.json").read_text())
    assert set(report["environment"]) == set(system.environment(str(ROOT)))
    assert [(r["n"], r["d"], r["aggregator"]) for r in report["rows"]] == [
        (n, script.CLASSES * (features + 1), name) for n, features, name in script.cells(None, None)]
