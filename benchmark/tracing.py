"""Spans and counters at the layer boundaries that ``fedwatch.engine`` calls.

The tracer replaces, in the ``fedwatch.engine`` namespace, each name the
engine imports from a layer, plus ``run``, ``write_run_outputs`` and
``build_config``, with a wrapper that records a span (name, start, end,
parent, simulation id) and a few counters. Spans stay in memory until the
benchmark writes them out. ``installed()`` puts every original back when it
exits, and ``assert_clean`` checks that no wrapper is left.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
from collections import defaultdict
from time import perf_counter

# engine attribute -> span name (layer.function)
WRAPPED = {
    "build_config": "config.build_config",
    "generate_synthetic": "datagen.generate_synthetic",
    "partition": "datagen.partition",
    "flip_labels": "attacks.flip_labels",
    "poison_update": "attacks.poison_update",
    "local_train": "trainer.local_train",
    "evaluate": "trainer.evaluate",
    "compute_indicators": "trust.compute_indicators",
    "select_participants": "trust.select_participants",
    "update_reputation": "trust.update_reputation",
    "ledger_record": "trust.ledger_record",
    "aggregate": "aggregators.aggregate",
    "run": "engine.run",
    "write_run_outputs": "engine.write_run_outputs",
}

OUTPUT_FILES = ("metrics.csv", "summary.json", "model.json")

# Span fields. Spans are tuples of atoms, which the garbage collector
# stops tracking, so a long trace does not slow the traced program's GC.
NAME, START, END, PARENT, SIM = range(5)


def assert_clean(engine, originals: dict) -> None:
    """Raise if any wrapped engine name is not its original."""
    left = [attr for attr, fn in originals.items() if getattr(engine, attr) is not fn]
    if left:
        raise RuntimeError(f"tracing wrappers left installed on fedwatch.engine: {left}")


class Tracer:
    def __init__(self, engine, diverged_error: type):
        self.engine = engine
        self.diverged_error = diverged_error
        self.originals = {attr: getattr(engine, attr) for attr in WRAPPED}
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.sim = -1
        # sim id -> factor to nominal machine speed (calibrate.Clock);
        # busy and self times are scaled by it
        self.scale: dict[int, float] = {}
        # sim id -> counter -> value
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        # (aggregator name, span, overhead ops) per aggregate call
        self.aggregator_calls: list[tuple[str, tuple, int]] = []

    @contextlib.contextmanager
    def installed(self):
        try:
            for attr, name in WRAPPED.items():
                setattr(self.engine, attr, self._wrap(attr, name, self.originals[attr]))
            yield self
        finally:
            for attr, fn in self.originals.items():
                setattr(self.engine, attr, fn)
            assert_clean(self.engine, self.originals)

    def _wrap(self, attr: str, name: str, fn):
        observe = getattr(self, "_observe_" + attr, None)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # filled when the call ends; children come after
            stack.append(index)
            outcome = None
            start = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[index] = (name, start, end, parent, self.sim)
                if observe is not None:
                    observe(span, args, outcome)

        return wrapper

    # --- counters, taken where the work happens -------------------------

    def _observe_local_train(self, span, args, outcome):
        _start, shard, cfg, _rng = args
        c = self.counts[self.sim]
        batches = math.ceil(shard.train.num_samples / max(1, int(cfg.batch_size)))
        c["trainer.sgd_steps"] += cfg.local_epochs * batches
        if isinstance(outcome, self.diverged_error):
            c["trainer.diverged"] += 1

    def _observe_aggregate(self, span, args, outcome):
        if isinstance(outcome, BaseException):
            return
        name, _params, updates = args[:3]
        decision = outcome[0]
        c = self.counts[self.sim]
        c["aggregators.submitted"] += len(updates)
        c["aggregators.included"] += len(decision.included)
        c["aggregators.overhead_ops"] += decision.overhead_ops
        self.aggregator_calls.append((name, span, decision.overhead_ops))

    def _observe_select_participants(self, span, args, outcome):
        if not isinstance(outcome, BaseException):
            self.counts[self.sim]["trust.non_participants"] += len(args[1]) - len(outcome)

    def _observe_write_run_outputs(self, span, args, outcome):
        if not isinstance(outcome, BaseException):
            out_dir = args[0]
            size = sum(os.path.getsize(os.path.join(out_dir, f)) for f in OUTPUT_FILES)
            self.counts[self.sim]["engine.output_bytes"] += size

    # --- derived numbers -------------------------------------------------

    def deterministic_counts(self) -> dict[int, dict[str, float]]:
        """Per simulation, the counts that depend only on its inputs."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s[SIM]][s[NAME] + ".calls"] += 1
        for sim, counts in self.counts.items():
            for k, v in counts.items():
                if k != "engine.output_bytes":
                    out[sim][k] += v
        return {sim: dict(c) for sim, c in out.items()}

    def busy_and_self(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total busy and self seconds per span name, over every span.

        Self time is a span's duration minus that of its direct children;
        calls are sequential, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += self.duration(s)
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            busy[s[NAME]] += self.duration(s)
            own[s[NAME]] += self.duration(s) - c
        return dict(busy), dict(own)

    def duration(self, span) -> float:
        return (span[END] - span[START]) * self.scale.get(span[SIM], 1.0)

    def durations(self, name: str) -> list[float]:
        return [self.duration(s) for s in self.spans if s[NAME] == name]

    def write(self, path: str, sim_seeds: dict[int, int]) -> None:
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "start": s[START] - t0,
                            "end": s[END] - t0,
                            "parent": s[PARENT],
                            "sim": s[SIM],
                            "seed": sim_seeds.get(s[SIM]),
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, counts_by_sim: dict[int, dict[str, float]],
                  traced_sims: list[int], first_pass: list[int],
                  traced_s: list[float], untraced_s: list[float]) -> dict[str, float]:
    """Per-layer numbers, per simulation.

    Times are totals over every traced simulation divided by their number.
    Counts are totals over ``first_pass`` (one simulation per seed of the
    block) divided by its length, so they repeat exactly for a given seed.
    """
    n = len(traced_sims)
    busy, own = tracer.busy_and_self()
    counts: dict[str, float] = defaultdict(float)
    for sim in first_pass:
        for key, v in counts_by_sim[sim].items():
            counts[key] += v
    all_steps = sum(tracer.counts[s]["trainer.sgd_steps"] for s in traced_sims)
    all_ops = sum(tracer.counts[s]["aggregators.overhead_ops"] for s in traced_sims)
    out_bytes = sum(tracer.counts[s]["engine.output_bytes"] for s in traced_sims)
    k = len(first_pass)
    per_sim = lambda name: busy.get(name, 0.0) / n
    agg_ms = tracer.durations("aggregators.aggregate")
    return {
        "trainer.local_train.busy_s": per_sim("trainer.local_train"),
        "trainer.local_train.calls": counts["trainer.local_train.calls"] / k,
        "trainer.sgd_steps": counts["trainer.sgd_steps"] / k,
        "trainer.us_per_step": busy.get("trainer.local_train", 0.0) * 1e6 / all_steps,
        "trainer.diverged": counts["trainer.diverged"] / k,
        "trainer.evaluate.busy_s": per_sim("trainer.evaluate"),
        "aggregators.aggregate.busy_s": per_sim("aggregators.aggregate"),
        "aggregators.aggregate.calls": counts["aggregators.aggregate.calls"] / k,
        "aggregators.aggregate.ms_p50": statistics.median(agg_ms) * 1e3,
        "aggregators.overhead_ops": counts["aggregators.overhead_ops"] / k,
        "aggregators.ns_per_overhead_op": busy.get("aggregators.aggregate", 0.0) * 1e9 / all_ops,
        "aggregators.kept_ratio": counts["aggregators.included"] / counts["aggregators.submitted"],
        "trust.compute_indicators.busy_s": per_sim("trust.compute_indicators"),
        "trust.select_participants.busy_s": per_sim("trust.select_participants"),
        "trust.update_reputation.busy_s": per_sim("trust.update_reputation"),
        "trust.ledger_record.busy_s": per_sim("trust.ledger_record"),
        "trust.non_participants": counts["trust.non_participants"] / k,
        "attacks.poison_update.busy_s": per_sim("attacks.poison_update"),
        "attacks.poison_update.calls": counts["attacks.poison_update.calls"] / k,
        "attacks.flip_labels.busy_s": per_sim("attacks.flip_labels"),
        "datagen.generate_synthetic.busy_s": per_sim("datagen.generate_synthetic"),
        "datagen.partition.busy_s": per_sim("datagen.partition"),
        "engine.run.busy_s": per_sim("engine.run"),
        "engine.self_s": own.get("engine.run", 0.0) / n,
        "engine.write_run_outputs.busy_s": per_sim("engine.write_run_outputs"),
        "engine.output_bytes": out_bytes / n,
        "config.build_config.busy_s": per_sim("config.build_config"),
        "trace.overhead_share": statistics.median(traced_s) / statistics.median(untraced_s),
    }


def by_aggregator(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per aggregator name: busy seconds and overhead ops summed over every
    traced call, and their ratio in ns per op."""
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for name, span, ops in tracer.aggregator_calls:
        totals[name][0] += tracer.duration(span)
        totals[name][1] += ops
    return {
        name: {"busy_s": busy, "overhead_ops": ops, "ns_per_overhead_op": busy * 1e9 / ops}
        for name, (busy, ops) in sorted(totals.items())
    }
