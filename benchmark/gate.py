"""Correctness gate: every simulation the benchmark makes is checked here.

A simulation fails if it raises, if its results differ from an earlier run
of the same seed (in process or through the CLI), if its written
metrics.csv differs from ``metrics_to_csv`` of its own metrics, if a round
breaks the ledger identity objective = loss + alpha*cost + beta*overhead,
or if a round excludes a client that did not participate. The gate reads
only ``RunResult.metrics``, ``final_params``, ``decisions`` and the written
files, and pins no golden hash, so a recorded bit change between versions
passes while a change between two runs of one version does not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys

import numpy as np

LEDGER_REL_TOL = 1e-12


def params_digest(values) -> str:
    """Exact digest of a parameter vector (float64 bytes)."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def ledger_problems(metrics, alpha: float, beta: float) -> list[str]:
    out = []
    for m in metrics:
        expected = m.global_loss + alpha * m.cost + beta * m.overhead
        if not math.isclose(m.objective, expected, rel_tol=LEDGER_REL_TOL, abs_tol=LEDGER_REL_TOL):
            out.append(f"round {m.round}: objective {m.objective!r} != loss + a*cost + b*overhead {expected!r}")
    return out


def exclusion_problems(metrics, num_clients: int) -> list[str]:
    out = []
    for m in metrics:
        participants = set(range(num_clients)) - set(m.non_participants)
        stray = sorted(set(m.excluded_ids) - participants)
        if stray:
            out.append(f"round {m.round}: excluded ids {stray} did not participate")
    return out


def shape_problems(config, result) -> list[str]:
    out = []
    if len(result.metrics) != config.rounds:
        out.append(f"{len(result.metrics)} metrics rows for {config.rounds} rounds")
    if len(result.decisions) != config.rounds:
        out.append(f"{len(result.decisions)} decisions for {config.rounds} rounds")
    if not np.all(np.isfinite(result.final_params.values)):
        out.append("final_params is not finite")
    return out


def csv_problems(expected: bytes, actual: bytes, what: str) -> list[str]:
    if expected == actual:
        return []
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    for i, (a, b) in enumerate(zip(exp_lines, act_lines)):
        if a != b:
            return [f"{what}: metrics.csv differs at line {i + 1}"]
    return [f"{what}: metrics.csv has {len(act_lines)} lines, expected {len(exp_lines)}"]


class Gate:
    """Counts checked simulations and keeps the first result of each seed."""

    def __init__(self, metrics_to_csv):
        self.metrics_to_csv = metrics_to_csv
        self.first: dict[int, tuple[str, bytes, str]] = {}
        self.attempted = 0
        self.failed_labels: set[str] = set()

    @property
    def failed(self) -> int:
        return len(self.failed_labels)

    def repeat_problems(self, seed: int, label: str, csv: bytes, digest: str) -> list[str]:
        """Compare with the first result of the same seed, or become it."""
        if seed not in self.first:
            self.first[seed] = (label, csv, digest)
            return []
        first_label, first_csv, first_digest = self.first[seed]
        out = csv_problems(first_csv, csv, f"seed {seed}: {label} vs {first_label}")
        if digest != first_digest:
            out.append(f"seed {seed}: final_params of {label} differ from {first_label}")
        return out

    def simulation_problems(self, seed: int, label: str, config, result, written_csv: bytes) -> list[str]:
        out = shape_problems(config, result)
        out += ledger_problems(result.metrics, config.resource.alpha, config.resource.beta)
        out += exclusion_problems(result.metrics, config.num_clients)
        own = self.metrics_to_csv(result.metrics).encode()
        out += csv_problems(own, written_csv, f"{label}: written vs metrics_to_csv")
        out += self.repeat_problems(seed, label, written_csv, params_digest(result.final_params.values))
        return out

    def record(self, label: str, problems: list[str]) -> None:
        """Count one attempted simulation, failed if it has problems."""
        self.attempted += 1
        self.flag(label, problems)

    def flag(self, label: str, problems: list[str]) -> None:
        """Mark an already counted simulation failed if it has problems."""
        if problems:
            self.failed_labels.add(label)
            for p in problems:
                print(f"gate: {label}: {p}", file=sys.stderr)


def perturb_digit(csv: bytes) -> bytes:
    """The same CSV with its last data digit changed."""
    body_start = csv.index(b"\n") + 1
    for i in range(len(csv) - 1, body_start - 1, -1):
        if csv[i : i + 1].isdigit():
            digit = (csv[i] - ord("0") + 1) % 10
            return csv[:i] + str(digit).encode() + csv[i + 1 :]
    raise ValueError("metrics.csv has no data digit to perturb")


def self_check(metrics_to_csv, seed: int, config, result, written_csv: bytes) -> list[str]:
    """Feed the gate faults derived from one good simulation.

    Returns a line for each fault the gate missed, and one if it flags the
    unmodified simulation; an empty list means the gate works.
    """
    missed = []
    gate = Gate(metrics_to_csv)
    digest = params_digest(result.final_params.values)
    if gate.simulation_problems(seed, "original", config, result, written_csv):
        missed.append("the unmodified simulation was flagged")

    if not gate.repeat_problems(seed, "perturbed metrics.csv", perturb_digit(written_csv), digest):
        missed.append("a perturbed metrics.csv passed as a repeat of the same seed")

    nudged = np.nextafter(result.final_params.values, np.inf)
    if not gate.repeat_problems(seed, "one-ulp final_params", written_csv, params_digest(nudged)):
        missed.append("final_params one ulp off passed as a repeat of the same seed")

    last = result.metrics[-1]
    drifted = result.metrics[:-1] + [dataclasses.replace(last, global_loss=last.global_loss * (1 + 1e-6) + 1e-6)]
    if not gate.repeat_problems(seed, "drifted loss", metrics_to_csv(drifted).encode(), digest):
        missed.append("a run with a different final loss passed as a repeat of the same seed")

    broken = result.metrics[:-1] + [dataclasses.replace(last, objective=last.objective + 1e-6 * abs(last.objective) + 1e-6)]
    if not ledger_problems(broken, config.resource.alpha, config.resource.beta):
        missed.append("a broken ledger identity passed")

    stray = result.metrics[:-1] + [dataclasses.replace(last, excluded_ids=last.excluded_ids + (config.num_clients,))]
    if not exclusion_problems(stray, config.num_clients):
        missed.append("an excluded id outside the participants passed")
    return missed
