"""The benchmark's workloads, read from workloads.json beside this file.

A workload is the paper config plus a stated delta. The benchmark's
``--seed`` picks the block of simulation seeds that a run cycles through;
the defence-quality metrics use the workload's fixed reference seeds, so
that they compare the same simulations on every run and move only when the
program's results do.
"""

from __future__ import annotations

import copy
import json
import pathlib
from dataclasses import dataclass

import numpy as np

SPEC_PATH = pathlib.Path(__file__).resolve().parent / "workloads.json"

# Sections a delta replaces whole instead of merging key by key: an
# aggregator's params depend on its name, an attack's fields on its kind.
REPLACED_SECTIONS = ("aggregator", "malicious")


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict
    delta: dict
    block_seeds: int
    reference_seeds: tuple[int, ...]
    cli_runs: int

    def config(self, seed: int) -> dict:
        """The raw config dict of one simulation."""
        raw = copy.deepcopy(self.base)
        for key, value in self.delta.items():
            if isinstance(value, dict) and key not in REPLACED_SECTIONS:
                raw[key] = {**raw[key], **copy.deepcopy(value)}
            else:
                raw[key] = copy.deepcopy(value)
        raw["seed"] = int(seed)
        return raw

    def run_seeds(self, run_seed: int) -> list[int]:
        """Simulation seeds of one benchmark run, derived from its --seed."""
        state = np.random.SeedSequence(run_seed).generate_state(self.block_seeds)
        return [int(s) for s in state]


def load_workloads() -> dict[str, Workload]:
    spec = json.loads(SPEC_PATH.read_text())
    return {
        w["name"]: Workload(
            name=w["name"],
            base=spec["base_config"],
            delta=w["delta"],
            block_seeds=int(w["block_seeds"]),
            reference_seeds=tuple(int(s) for s in w["reference_seeds"]),
            cli_runs=int(w["cli_runs"]),
        )
        for w in spec["workloads"]
    }
