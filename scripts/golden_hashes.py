"""Print the sha256 digests that a bit-exact change must leave unchanged.

First the 21 golden ``metrics.csv`` digests: every aggregator of
``scripts/compare_aggregators.py``, with its params, on
``configs/default.json`` at seeds 1-3. Then one digest per benchmark
workload and reference seed (``benchmark/workloads.json``), taken over the
``metrics.csv`` bytes followed by the float64 bytes of ``final_params``.
One ``label digest`` line each; run it before and after a change and diff.

Usage: python scripts/golden_hashes.py
"""

import hashlib
import importlib.util
import json
import pathlib
import sys

from fedwatch import build_config, run
from fedwatch.engine import metrics_to_csv

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_SEEDS = (1, 2, 3)


def _module(path: pathlib.Path):
    """Import a file that is not on sys.path (dataclasses need it registered)."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def golden_hashes():
    """Yield ``(label, sha256 hex)`` pairs, golden runs first."""
    aggregators = _module(ROOT / "scripts" / "compare_aggregators.py").AGGREGATORS
    base = json.loads((ROOT / "configs" / "default.json").read_text())
    for name, params in aggregators.items():
        for seed in GOLDEN_SEEDS:
            raw = {**base, "seed": seed, "aggregator": {"name": name, "params": params}}
            csv = metrics_to_csv(run(build_config(raw)).metrics).encode()
            yield f"{name}/{seed}", hashlib.sha256(csv).hexdigest()
    yield from workload_hashes()


def workload_hashes():
    """Yield ``(label, sha256 hex)`` per workload and reference seed."""
    workloads = _module(ROOT / "benchmark" / "workloads.py").load_workloads()
    for workload in workloads.values():
        for seed in workload.reference_seeds:
            result = run(build_config(workload.config(seed)))
            digest = hashlib.sha256(metrics_to_csv(result.metrics).encode())
            digest.update(result.final_params.values.tobytes())
            yield f"{workload.name}/{seed}", digest.hexdigest()


def main() -> int:
    for label, digest in golden_hashes():
        print(label, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
