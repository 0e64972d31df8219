"""fedwatch benchmark: closed-loop simulations, a cold CLI run and set-up time.

Run from the root of a checkout:

    python3 benchmark/run.py --workload paper_labelflip --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it measures the end-to-end metrics: fresh interpreters
that import fedwatch and load the workload config (set-up time), cold
``fedwatch run`` CLI processes, the workload's fixed reference seeds (the
defence-quality metrics; also the warm-up), then one caller running
``engine.run`` back to back for ``--seconds`` over the block of seeds that
``--seed`` derives. With ``--trace 1`` it alternates untraced and traced
simulations of that block and reports per-layer numbers from spans taken
at the layer boundaries of ``fedwatch.engine``.

Simulation and CLI times are scaled to nominal machine speed by
calibrate.Clock; the unscaled times are kept in the report. Every simulation passes the
correctness gate in gate.py. Metric names and units come from
BENCHMARK.json; workloads from workloads.json. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
Details go to benchmark/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import COLD_NOMINAL_S, Clock
from gate import Gate, params_digest, self_check
from system import environment, run_child
from tracing import Tracer, assert_clean, by_aggregator, layer_metrics
from workloads import load_workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_RUNS = 9  # timed fresh interpreters, after one untimed
CHILD_TIMEOUT_S = 60.0
SETUP_SNIPPET = "import sys, fedwatch; fedwatch.load_config(sys.argv[1])"
COLD_SNIPPET = "import numpy"  # the bare start-up that calibrates child processes


def import_fedwatch():
    """Import fedwatch from this checkout's src/, and nowhere else."""
    if not (SRC / "fedwatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no fedwatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fedwatch.engine
    import fedwatch.trainer

    if Path(fedwatch.__file__).resolve().parent != SRC / "fedwatch":
        raise SystemExit(f"error: imported fedwatch from {fedwatch.__file__}, not from {SRC}")
    return fedwatch.engine, fedwatch.trainer.TrainingDivergedError


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


class Bench:
    """One benchmark run: a workload, its gate and its output directory."""

    def __init__(self, engine, workload, run_seed: int):
        self.engine = engine
        self.workload = workload
        self.seeds = workload.run_seeds(run_seed)
        self.gate = Gate(engine.metrics_to_csv)
        self.out = OUT / workload.name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        # Faults the gate's self-check missed; None until it has run on the
        # first simulation that passes the gate.
        self.self_check_missed: list[str] | None = None
        self.clock = Clock()
        self.raw_s: dict[str, list[float]] = {}  # unscaled times, for the report

    def scaled(self, kind: str, seconds: float) -> tuple[float, float]:
        """(seconds at nominal machine speed, scale) for a time just measured."""
        factor = self.clock.factor(seconds)
        self.raw_s.setdefault(kind, []).append(seconds)
        return seconds * factor, factor

    def simulate(self, seed: int, label: str):
        """Build, run and write one simulation.

        Returns (seconds at nominal speed, scale, config, result), or None
        if the simulation raised.
        """
        engine = self.engine
        sim_dir = self.out / "sims" / str(seed)
        try:
            t0 = perf_counter()
            config = engine.build_config(self.workload.config(seed))
            result = engine.run(config)
            sim_s, factor = self.scaled("sim_s", perf_counter() - t0)
            engine.write_run_outputs(str(sim_dir), config, result, sim_s)
            csv = (sim_dir / "metrics.csv").read_bytes()
            problems = self.gate.simulation_problems(seed, label, config, result, csv)
        except Exception as exc:  # a failed simulation is counted, not fatal
            traceback.print_exc()
            self.gate.record(label, [f"raised {type(exc).__name__}: {exc}"])
            return None
        self.gate.record(label, problems)
        if self.self_check_missed is None and not problems:
            self.self_check_missed = self_check(engine.metrics_to_csv, seed, config, result, csv)
            for line in self.self_check_missed:
                print(f"gate self-check: {line}", file=sys.stderr)
        return sim_s, factor, config, result

    # --- end to end --------------------------------------------------------

    def cold_start(self) -> float:
        """Wall seconds of a bare child that starts Python and imports numpy."""
        argv = [sys.executable, "-c", COLD_SNIPPET]
        wall, code, _rss = run_child(argv, str(ROOT), self.child_env, str(self.out / "cold.log"), CHILD_TIMEOUT_S)
        if code != 0:
            raise SystemExit(f"error: bare child exited {code}; see {self.out / 'cold.log'}")
        self.raw_s.setdefault("cold_start_s", []).append(wall)
        return wall

    def setup_times(self, config_path: Path) -> list[float]:
        """Set-up is almost all process start and imports, which do not track
        the kernel: each time is scaled by COLD_NOMINAL_S over the bare
        children run just before and after it."""
        argv = [sys.executable, "-c", SETUP_SNIPPET, str(config_path)]
        times = []
        cold_before = self.cold_start()
        for i in range(SETUP_RUNS + 1):
            wall, code, _rss = run_child(argv, str(ROOT), self.child_env, str(self.out / "setup.log"), CHILD_TIMEOUT_S)
            if code != 0:
                raise SystemExit(f"error: set-up child exited {code}; see {self.out / 'setup.log'}")
            cold_after = self.cold_start()
            if i:
                self.raw_s.setdefault("setup_s", []).append(wall)
                times.append(wall * COLD_NOMINAL_S / ((cold_before + cold_after) / 2))
            cold_before = cold_after
        return times

    def cli_runs(self, config_path: Path) -> tuple[list[float], list[float]]:
        seed = self.seeds[0]
        out_dir = self.out / "cli"
        argv = [sys.executable, "-m", "fedwatch.cli", "run", "--config", str(config_path),
                "--seed", str(seed), "--out", str(out_dir)]
        walls, rss = [], []
        cold_before = self.cold_start()
        self.clock.mark()
        for i in range(self.workload.cli_runs):
            label = f"cli run {i} seed {seed}"
            wall, code, peak = run_child(argv, str(ROOT), self.child_env, str(self.out / "cli.log"), CHILD_TIMEOUT_S)
            factor = self.clock.factor(wall)
            cold_after = self.cold_start()
            self.clock.mark()
            # The bare start-up share at its nominal speed, the rest (imports
            # of fedwatch, the simulation, the writes) at the kernel's.
            cold = (cold_before + cold_after) / 2
            cold_before = cold_after
            self.raw_s.setdefault("cli_run_s", []).append(wall)
            wall = COLD_NOMINAL_S + (wall - cold) * factor
            if code != 0:
                self.gate.record(label, [f"exit code {code}; see {self.out / 'cli.log'}"])
                continue
            csv = (out_dir / "metrics.csv").read_bytes()
            values = json.loads((out_dir / "model.json").read_text())["values"]
            self.gate.record(label, self.gate.repeat_problems(seed, label, csv, params_digest(values)))
            walls.append(wall)
            rss.append(peak)
        return walls, rss

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        w = self.workload
        config_path = self.out / "config.json"
        config_path.write_text(json.dumps(w.config(self.seeds[0]), indent=2) + "\n")
        setup = self.setup_times(config_path)
        cli_walls, cli_rss = self.cli_runs(config_path)

        # Reference seeds: the defence-quality metrics, and the warm-up.
        quality = []
        for seed in w.reference_seeds:
            done = self.simulate(seed, f"reference seed {seed}")
            if done:
                ms = done[3].metrics
                quality.append((ms[-1].global_accuracy,
                                statistics.fmean(m.excl_recall for m in ms),
                                statistics.fmean(m.excl_precision for m in ms)))

        times, rounds, i = [], 0, 0
        start = perf_counter()
        while perf_counter() - start < seconds:
            seed = self.seeds[i % len(self.seeds)]
            done = self.simulate(seed, f"loop sim {i} seed {seed}")
            i += 1
            if done:
                times.append(done[0])
                rounds += done[2].rounds
        if not (times and setup and cli_walls and len(quality) == len(w.reference_seeds)):
            raise SystemExit("error: too few successful simulations to report")
        metrics = {
            "rounds_per_s": rounds / sum(times),
            "sim_s_p50": statistics.median(times),
            "setup_s": statistics.median(setup),
            "cli_run_s": statistics.median(cli_walls),
            "peak_rss_mb": statistics.median(cli_rss),
            "final_accuracy": statistics.fmean(q[0] for q in quality),
            "excl_recall": statistics.fmean(q[1] for q in quality),
            "excl_precision": statistics.fmean(q[2] for q in quality),
        }
        detail = {"sim_s": times, "setup_s": setup, "cli_run_s": cli_walls, "cli_peak_rss_mb": cli_rss,
                  "loop_seconds": perf_counter() - start, "unscaled_s": self.raw_s,
                  "calibration_kernel_s": self.clock.samples}
        return metrics, detail

    # --- traced --------------------------------------------------------------

    def traced(self, seconds: float, diverged_error: type) -> tuple[dict, dict]:
        """Pairs of one untraced then one traced simulation of the same seed."""
        self.simulate(self.seeds[0], "warm-up")
        tracer = Tracer(self.engine, diverged_error)
        k = len(self.seeds)
        untraced_s, traced_s, traced_sims, sim_seed = [], [], [], {}
        start = perf_counter()
        pair = 0
        while pair < k or perf_counter() - start < seconds:
            seed = self.seeds[pair % k]
            assert_clean(self.engine, tracer.originals)
            plain = self.simulate(seed, f"untraced sim {pair} seed {seed}")
            tracer.sim = pair
            with tracer.installed():
                traced = self.simulate(seed, f"traced sim {pair} seed {seed}")
            if traced:
                tracer.scale[pair] = traced[1]
            if plain and traced:
                untraced_s.append(plain[0])
                traced_s.append(traced[0])
            traced_sims.append(pair)
            sim_seed[pair] = seed
            pair += 1
        if not traced_s:
            raise SystemExit("error: no successful traced simulation")

        counts = tracer.deterministic_counts()
        first_of_seed: dict[int, int] = {}
        for sim in traced_sims:
            first = first_of_seed.setdefault(sim_seed[sim], sim)
            if counts[sim] != counts[first]:
                self.gate.flag(f"traced sim {sim} seed {sim_seed[sim]}",
                               [f"deterministic counts differ from traced sim {first}"])
        metrics = layer_metrics(tracer, counts, traced_sims, traced_sims[:k], traced_s, untraced_s)
        busy, own = tracer.busy_and_self()
        tracer.write(str(self.out / "spans.jsonl"), sim_seed)
        detail = {
            "by_aggregator": by_aggregator(tracer),
            "busy_s_per_sim": {n: v / len(traced_sims) for n, v in sorted(busy.items())},
            "self_s_per_sim": {n: v / len(traced_sims) for n, v in sorted(own.items())},
            "traced_sim_s": traced_s,
            "untraced_sim_s": untraced_s,
            "unscaled_s": self.raw_s,
            "calibration_kernel_s": self.clock.samples,
            "spans": len(tracer.spans),
        }
        return metrics, detail


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    engine, diverged_error = import_fedwatch()
    bench = Bench(engine, workloads[args.workload], args.seed)
    env = environment(str(ROOT))
    print(json.dumps({"environment": env}, sort_keys=True))

    if args.trace:
        metrics, detail = bench.traced(args.seconds, diverged_error)
    else:
        metrics, detail = bench.end_to_end(args.seconds)
    if set(metrics) != set(declared):
        raise SystemExit(f"error: computed metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")
    gate = bench.gate
    correct = gate.failed == 0 and bench.self_check_missed == []
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "simulation_seeds": bench.seeds, "environment": env, "metrics": metrics, "detail": detail,
        "attempted": gate.attempted, "failed": sorted(gate.failed_labels),
        "self_check_missed": bench.self_check_missed,
    }
    (bench.out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.trace:
        for name, row in detail["by_aggregator"].items():
            print(f"aggregators.{name}.ns_per_overhead_op = {row['ns_per_overhead_op']:.6g} ns "
                  f"(overhead_ops {row['overhead_ops']}, busy {row['busy_s']:.6g} s)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {declared[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
