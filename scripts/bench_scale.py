"""Measure how a run grows with the number of clients n.

Runs ``engine.run`` for 2 rounds at d = 330 (10 classes x 32 features + 10
biases) over n in {200, 1000, 2000, 5000} x {fedavg, sigma_pid, krum,
bulyan}; bulyan is skipped above n = 2000, where its selection alone would
take tens of seconds a call. Everything else is ``configs/default.json``:
4 label-flippers, Dirichlet alpha 0.4, reputation on. The data grows with
n: 2n samples per class, so 16 training rows per client on average. krum
and bulyan run with f = n // 10, sigma_pid with its defaults.

Each (n, aggregator) runs in a child process of its own, so its peak RSS
(from ``os.wait4``) is that run's alone. Inside the child, every layer
function the engine calls is wrapped by engine name, as the benchmark's
tracer does, and its seconds are summed; ``other`` is the rest of
``engine.run``. One row per cell is printed and all of them, with the
machine, go to ``BENCH_scale.json`` at the repository root.

Usage: PYTHONPATH=src python scripts/bench_scale.py [--n 200,1000,2000,5000]
                                                [--aggregators fedavg,sigma_pid,krum,bulyan]
                                                [--out BENCH_scale.json]
"""

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

import numpy as np

import fedwatch
from fedwatch import engine

ROOT = pathlib.Path(__file__).resolve().parent.parent
ROUNDS = 2
BULYAN_MAX_N = 2000
# engine names timed in the child; engine.run's own time is "run"
PHASES = (
    "generate_synthetic", "partition", "flip_labels", "local_train", "poison_update",
    "compute_indicators", "aggregate", "evaluate", "select_participants",
    "update_reputation", "ledger_record",
)


def scale_config(n: int, aggregator: str) -> dict:
    raw = json.loads((ROOT / "configs" / "default.json").read_text())
    params = {"byzantine_f": n // 10} if aggregator in ("krum", "bulyan") else {}
    raw.update(
        rounds=ROUNDS,
        num_clients=n,
        aggregator={"name": aggregator, "params": params},
    )
    raw["dataset"].update(classes=10, features=32, samples_per_class=2 * n)
    return raw


def run_cell(n: int, aggregator: str) -> dict:
    """Run one config in this process; per-phase seconds by engine name."""
    seconds = dict.fromkeys(PHASES + ("run",), 0.0)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - start
        return wrapper

    config = engine.build_config(scale_config(n, aggregator))
    for name in PHASES:
        setattr(engine, name, timed(name, getattr(engine, name)))
    timed("run", engine.run)(config)
    seconds["other"] = seconds["run"] - sum(seconds[name] for name in PHASES)
    return seconds


def measure(n: int, aggregator: str) -> dict:
    """Run one cell in a child: its phase seconds and its peak RSS in MB."""
    # the child imports the fedwatch this process did
    src = str(pathlib.Path(fedwatch.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()), "--cell", f"{n},{aggregator}"]
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"n={n} {aggregator}: child exited {proc.returncode}")
    return {"seconds": json.loads(out), "peak_rss_mb": usage.ru_maxrss / 1024.0}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", default="200,1000,2000,5000", help="client counts, comma-separated")
    parser.add_argument("--aggregators", default="fedavg,sigma_pid,krum,bulyan")
    parser.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    parser.add_argument("--cell", help=argparse.SUPPRESS)  # "n,aggregator": run one, print JSON
    args = parser.parse_args(argv)
    if args.cell:
        n, aggregator = args.cell.split(",")
        print(json.dumps(run_cell(int(n), aggregator)))
        return 0
    sizes = [int(v) for v in args.n.split(",")]
    names = args.aggregators.split(",")

    rows = []
    print(f"{'aggregator':<10} {'n':>5} {'run_s':>8} {'generate':>9} {'partition':>9} "
          f"{'train':>8} {'aggregate':>9} {'other':>8} {'rss_mb':>8}")
    for n in sizes:
        for aggregator in names:
            row = {"n": n, "aggregator": aggregator}
            if aggregator == "bulyan" and n > BULYAN_MAX_N:
                rows.append({**row, "skipped": f"bulyan above n = {BULYAN_MAX_N}"})
                print(f"{aggregator:<10} {n:>5} {'skipped':>8}")
                continue
            row.update(measure(n, aggregator))
            rows.append(row)
            s = row["seconds"]
            print(f"{aggregator:<10} {n:>5} {s['run']:>8.3f} {s['generate_synthetic']:>9.3f} "
                  f"{s['partition']:>9.3f} {s['local_train']:>8.3f} {s['aggregate']:>9.3f} "
                  f"{s['other']:>8.3f} {row['peak_rss_mb']:>8.1f}", flush=True)
    report = {
        "rounds": ROUNDS,
        "config": "configs/default.json with 10 classes x 32 features, 2n samples per class",
        "machine": machine(),
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
