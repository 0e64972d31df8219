"""Print, for each seed, every aggregator on the label-flip benchmark and the
sigma filter's exclusion-threshold trade-off: a tight threshold excludes
benign clients, a loose one lets attackers through.

Usage: python scripts/compare_aggregators.py [--seeds 1,2,3,4,5]
"""

import argparse
import json
import pathlib
import sys

from fedwatch import ConfigError, build_config, run
from fedwatch.engine import summarize

AGGREGATORS = {
    "fedavg": {},
    "trimmed_mean": {"trim_beta": 4},
    "krum": {"byzantine_f": 4},
    "multi_krum": {"byzantine_f": 4, "multi_krum_m": 12},
    "bulyan": {"byzantine_f": 4},
    "geomedian": {},
    "sigma_pid": {"sigma_k": 2.5},
}
SIGMA_K = (1.0, 2.5, 5.0)
DEFAULT = pathlib.Path(__file__).resolve().parent.parent / "configs" / "default.json"


def outcome(base: dict, seed: int, name: str, params: dict) -> tuple[dict, int]:
    """One run's summary (no wall time) and its benign clients excluded."""
    config = build_config({**base, "seed": seed, "aggregator": {"name": name, "params": params}})
    result = run(config)
    return summarize(config, result, 0.0), sum(m.fp for m in result.metrics)


def int_list(text: str) -> list[int]:
    """A comma-separated list of integers; a ValueError is argparse's usage error."""
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the aggregators on configs/default.json.")
    parser.add_argument("--seeds", type=int_list, default="1", help="comma-separated seeds (default 1)")
    seeds = parser.parse_args(argv).seeds
    base = json.loads(DEFAULT.read_text())
    try:  # every seed is checked before the first table prints
        for seed in seeds:
            build_config({**base, "seed": seed})
    except ConfigError as e:
        parser.error(f"argument --seeds: {e}")
    for seed in seeds:
        print(f"seed {seed}")
        print(f"{'aggregator':<14} {'final_acc':>9} {'final_loss':>10} {'mean_prec':>9} "
              f"{'mean_rec':>8} {'overhead':>9}")
        for name, params in AGGREGATORS.items():
            s, _ = outcome(base, seed, name, params)
            print(f"{name:<14} {s['final_accuracy']:>9.3f} {s['final_loss']:>10.4f} "
                  f"{s['mean_excl_precision']:>9.3f} {s['mean_excl_recall']:>8.3f} "
                  f"{s['total_overhead']:>9.0f}")
        print(f"{'sigma_k':>7} {'benign_fp':>9} {'mean_rec':>8} {'final_acc':>9}")
        for k in SIGMA_K:
            s, fp = outcome(base, seed, "sigma_pid", {"sigma_k": k})
            print(f"{k:>7.1f} {fp:>9d} {s['mean_excl_recall']:>8.3f} {s['final_accuracy']:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
