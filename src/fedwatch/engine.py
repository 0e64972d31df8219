"""The round loop: broadcast, local train, attack, monitor, aggregate, apply.

One ``run`` builds the federation from the config seed, then repeats the
cycle for the configured number of rounds, asserting the literal global
update rule (new params = old params + aggregation delta) and recording a
metrics row plus a ledger entry per round. Identical configs give
bit-identical outputs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .aggregators import AGGREGATORS, AggregationDecision, PidState, aggregate
from .attacks import flip_labels, poison_update
from .config import ConfigError, SimConfig, build_config, set_by_path
from .core import ClientId, ModelParams, Rng, substream
from .datagen import ClientShard, Dataset, generate_synthetic, load_csv, partition
from .trainer import TrainingDivergedError, evaluate, local_train
from .trust import (
    ReputationState,
    ResourceLedger,
    TrustIndicators,
    compute_indicators,
    ledger_record,
    select_participants,
    update_reputation,
)

# Stream purposes; combined with (round, client) via core.substream.
STREAM_DATA = 1
STREAM_SPLIT = 2
STREAM_PARTITION = 3
STREAM_FLIP = 4
STREAM_TRAIN = 5
STREAM_POISON = 6


class EngineError(RuntimeError):
    """A run that cannot proceed (for example, too few usable updates)."""


@dataclass(frozen=True)
class RoundMetrics:
    """One metrics row; `positive` means truly malicious, `predicted
    positive` means excluded this round, and 0/0 ratios resolve to 1.0.

    tp/fp/tn/fn count only the participants whose update reached the
    aggregator. A client whose training diverged, or whose update was not
    finite, is listed in `excluded_ids` but counted in none of the four."""

    round: int
    global_loss: float
    global_accuracy: float
    tp: int
    fp: int
    tn: int
    fn: int
    excl_accuracy: float
    excl_precision: float
    excl_recall: float
    excluded_ids: tuple[ClientId, ...]
    non_participants: tuple[ClientId, ...]
    cost: float
    overhead: float
    objective: float


@dataclass
class RunResult:
    metrics: list[RoundMetrics]
    final_params: ModelParams
    initial_loss: float
    initial_accuracy: float
    param_trace: list[ModelParams]
    decisions: list[AggregationDecision]
    indicators: list[TrustIndicators]
    reputation_trace: list[dict[ClientId, float]]
    ledger: ResourceLedger
    shards: list[ClientShard] = field(repr=False, default_factory=list)


def _ratio(num: int, den: int) -> float:
    return 1.0 if den == 0 else num / den


def confusion_rates(tp: int, fp: int, tn: int, fn: int) -> tuple[float, float, float]:
    """(accuracy, precision, recall) with the 0/0 -> 1.0 convention."""
    total = tp + fp + tn + fn
    accuracy = _ratio(tp + tn, total)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return accuracy, precision, recall


def _build_data(config: SimConfig) -> tuple[Dataset, Dataset]:
    """(train, eval) datasets; the eval split is clean and server-side."""
    ds = config.dataset
    if ds.type == "synthetic":
        full = generate_synthetic(
            ds.classes,
            ds.features,
            ds.samples_per_class,
            ds.cluster_spread,
            Rng(config.seed, substream(STREAM_DATA)),
        )
    else:
        full = load_csv(ds.csv_path)
        if int(full.labels.max()) >= ds.classes:
            raise ConfigError(
                "dataset.classes",
                f"csv contains label {int(full.labels.max())} >= classes={ds.classes}",
            )
    n = full.num_samples
    n_eval = max(1, round(config.eval_fraction * n))
    if n - n_eval < config.num_clients:
        raise ConfigError(
            "num_clients",
            f"{n - n_eval} training samples cannot cover {config.num_clients} clients",
        )
    perm = Rng(config.seed, substream(STREAM_SPLIT)).permutation(n)
    eval_idx = np.sort(perm[:n_eval])
    train_idx = np.sort(perm[n_eval:])
    return full.subset(train_idx), full.subset(eval_idx)


def _prepare_shards(config: SimConfig, train: Dataset) -> list[ClientShard]:
    shards = partition(
        train,
        config.num_clients,
        config.heterogeneity,
        Rng(config.seed, substream(STREAM_PARTITION)),
    )
    attack = config.malicious
    if attack.kind == "label_flip" and attack.targets:
        poisoned = []
        for shard in shards:
            if shard.client in attack.targets:
                flipped = flip_labels(
                    shard.train,
                    attack.fraction,
                    config.dataset.classes,
                    Rng(config.seed, substream(STREAM_FLIP, 0, shard.client)),
                )
                poisoned.append(ClientShard(shard.client, flipped, shard.indices))
            else:
                poisoned.append(shard)
        return poisoned
    return shards


def run(config: SimConfig) -> RunResult:
    """Execute every round and return the full trajectory."""
    train_data, eval_data = _build_data(config)
    shards = _prepare_shards(config, train_data)
    shard_by_id = {s.client: s for s in shards}
    all_clients = tuple(range(config.num_clients))
    malicious = set(config.malicious.targets)
    model_attack = config.malicious.kind != "label_flip" and bool(config.malicious.targets)

    shape = (config.dataset.classes, train_data.num_features)
    params = ModelParams.zeros(shape)
    reputation = ReputationState.fresh(
        all_clients,
        decay_lambda=config.reputation.decay_lambda,
        participation_threshold=config.reputation.participation_threshold,
    )
    ledger = ResourceLedger(alpha=config.resource.alpha, beta=config.resource.beta)
    pid_state: PidState | None = None
    agg = config.aggregator
    needed = AGGREGATORS[agg.name].min_clients(agg.params)

    initial_loss, initial_accuracy = evaluate(params, eval_data)

    metrics: list[RoundMetrics] = []
    decisions: list[AggregationDecision] = []
    indicators_log: list[TrustIndicators] = []
    param_trace = [params]
    reputation_trace: list[dict[ClientId, float]] = []

    for t in range(config.rounds):
        if config.reputation.enabled:
            # Never below the gate's own fallback of 3, so runs that already
            # succeeded keep their participants and their bytes.
            participants = select_participants(reputation, all_clients, minimum=max(3, needed))
        else:
            participants = all_clients
        participant_set = set(participants)
        non_participants = tuple(c for c in all_clients if c not in participant_set)

        updates = []
        diverged: list[ClientId] = []
        for cid in participants:
            rng_train = Rng(config.seed, substream(STREAM_TRAIN, t, cid))
            try:
                upd = local_train(params, shard_by_id[cid], config.train, rng_train)
            except TrainingDivergedError:
                diverged.append(cid)
                continue
            if model_attack and cid in malicious:
                rng_poison = Rng(config.seed, substream(STREAM_POISON, t, cid))
                try:
                    upd = poison_update(upd, config.malicious, rng_poison)
                except ValueError:
                    # Hostile numerics: treat a non-finite poisoned update
                    # like a diverged client.
                    diverged.append(cid)
                    continue
            with np.errstate(over="ignore"):
                sq_norm = float(np.dot(upd.delta.values, upd.delta.values))
            if not np.isfinite(sq_norm):
                # Finite values can still overflow distance arithmetic;
                # such updates are unusable for any aggregator.
                diverged.append(cid)
                continue
            updates.append(upd)

        if len(updates) < needed:
            raise EngineError(
                f"round {t}: {len(updates)} usable updates, {agg.name} needs {needed}"
            )

        indicators_log.append(compute_indicators(updates, params, reputation))
        decision, pid_state = aggregate(agg.name, agg.params, updates, pid_state)
        if diverged:
            decision = AggregationDecision(
                included=decision.included,
                excluded=tuple(sorted(set(decision.excluded) | set(diverged))),
                delta=decision.delta,
                overhead_ops=decision.overhead_ops,
                info=decision.info,
            )
        decisions.append(decision)

        # The one and only mutation of the global model.
        params = params + decision.delta
        param_trace.append(params)

        if config.reputation.enabled:
            reputation = update_reputation(reputation, decision)
        reputation_trace.append(dict(reputation.reputation))

        loss, accuracy = evaluate(params, eval_data)
        cost = float(
            sum(config.train.local_epochs * shard_by_id[c].train.num_samples for c in participants)
        )
        overhead = float(decision.overhead_ops)
        ledger_record(ledger, loss, cost, overhead)
        objective = ledger.entries[-1].objective

        # Defence quality is scored only on the updates the aggregator saw: a
        # diverged client stays in excluded_ids but is no true or false positive.
        excluded_set = set(decision.excluded)
        judged = participant_set.difference(diverged)
        tp = sum(1 for c in judged if c in malicious and c in excluded_set)
        fp = sum(1 for c in judged if c not in malicious and c in excluded_set)
        fn = sum(1 for c in judged if c in malicious and c not in excluded_set)
        tn = sum(1 for c in judged if c not in malicious and c not in excluded_set)
        excl_accuracy, excl_precision, excl_recall = confusion_rates(tp, fp, tn, fn)

        metrics.append(
            RoundMetrics(
                round=t,
                global_loss=loss,
                global_accuracy=accuracy,
                tp=tp,
                fp=fp,
                tn=tn,
                fn=fn,
                excl_accuracy=excl_accuracy,
                excl_precision=excl_precision,
                excl_recall=excl_recall,
                excluded_ids=tuple(sorted(excluded_set)),
                non_participants=non_participants,
                cost=cost,
                overhead=overhead,
                objective=objective,
            )
        )

    return RunResult(
        metrics=metrics,
        final_params=params,
        initial_loss=initial_loss,
        initial_accuracy=initial_accuracy,
        param_trace=param_trace,
        decisions=decisions,
        indicators=indicators_log,
        reputation_trace=reputation_trace,
        ledger=ledger,
        shards=shards,
    )


# --- persistence ---------------------------------------------------------

CSV_COLUMNS = (
    "round", "global_loss", "global_accuracy", "tp", "fp", "tn", "fn",
    "excl_accuracy", "excl_precision", "excl_recall", "excluded_ids",
    "non_participants", "cost", "overhead", "objective",
)


def _fmt(v: float) -> str:
    """Reals printed with 9 significant digits, '.' decimal separator."""
    return format(float(v), ".9g")


def metrics_to_csv(metrics: list[RoundMetrics]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for m in metrics:
        lines.append(
            ",".join(
                [
                    str(m.round),
                    _fmt(m.global_loss),
                    _fmt(m.global_accuracy),
                    str(m.tp),
                    str(m.fp),
                    str(m.tn),
                    str(m.fn),
                    _fmt(m.excl_accuracy),
                    _fmt(m.excl_precision),
                    _fmt(m.excl_recall),
                    ";".join(str(c) for c in m.excluded_ids),
                    ";".join(str(c) for c in m.non_participants),
                    _fmt(m.cost),
                    _fmt(m.overhead),
                    _fmt(m.objective),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def summarize(config: SimConfig, result: RunResult, wall_time: float) -> dict:
    ms = result.metrics
    mean = lambda xs: float(np.mean(xs)) if xs else float("nan")
    return {
        "config": config.to_dict(),
        "initial_loss": result.initial_loss,
        "initial_accuracy": result.initial_accuracy,
        "final_loss": ms[-1].global_loss if ms else result.initial_loss,
        "final_accuracy": ms[-1].global_accuracy if ms else result.initial_accuracy,
        "mean_excl_precision": mean([m.excl_precision for m in ms]),
        "mean_excl_recall": mean([m.excl_recall for m in ms]),
        "total_cost": float(sum(m.cost for m in ms)),
        "total_overhead": float(sum(m.overhead for m in ms)),
        "total_objective": float(sum(m.objective for m in ms)),
        "wall_time_seconds": wall_time,
    }


def write_run_outputs(out_dir: str, config: SimConfig, result: RunResult, wall_time: float) -> None:
    """Write metrics.csv, summary.json, and model.json into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write(metrics_to_csv(result.metrics))
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summarize(config, result, wall_time), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "model.json"), "w") as fh:
        json.dump(
            {
                "shape": list(result.final_params.shape),
                "values": result.final_params.values.tolist(),
            },
            fh,
        )
        fh.write("\n")


@dataclass(frozen=True)
class SweepRow:
    value: object
    final_loss: float
    final_accuracy: float
    mean_excl_precision: float
    mean_excl_recall: float
    total_objective: float


def sweep_summary_csv(rows: list[SweepRow]) -> str:
    lines = ["value,final_loss,final_accuracy,mean_excl_precision,mean_excl_recall,total_objective"]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.value),
                    _fmt(r.final_loss),
                    _fmt(r.final_accuracy),
                    _fmt(r.mean_excl_precision),
                    _fmt(r.mean_excl_recall),
                    _fmt(r.total_objective),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def sweep(
    config: SimConfig, param_path: str, values, out_dir: str | None = None
) -> list[SweepRow]:
    """Re-run the config once per value of one scalar field, same seed.

    With ``out_dir`` set, each value gets its own run directory (named
    after the value) plus a sweep_summary.csv at the top.
    """
    if not values:
        raise ConfigError(param_path, "no sweep values given")
    base = config.to_dict()
    # Every value is validated before any runs, so a bad one leaves no output.
    configs = [build_config(set_by_path(base, param_path, value)) for value in values]
    rows: list[SweepRow] = []
    for value, cfg in zip(values, configs):
        start = time.monotonic()
        result = run(cfg)
        elapsed = time.monotonic() - start
        if out_dir is not None:
            write_run_outputs(os.path.join(out_dir, str(value)), cfg, result, elapsed)
        s = summarize(cfg, result, elapsed)
        rows.append(
            SweepRow(
                value=value,
                final_loss=s["final_loss"],
                final_accuracy=s["final_accuracy"],
                mean_excl_precision=s["mean_excl_precision"],
                mean_excl_recall=s["mean_excl_recall"],
                total_objective=s["total_objective"],
            )
        )
    if out_dir is not None:
        with open(os.path.join(out_dir, "sweep_summary.csv"), "w") as fh:
            fh.write(sweep_summary_csv(rows))
    return rows

