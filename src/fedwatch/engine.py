"""The round loop: broadcast, local train, attack, monitor, aggregate, apply.

One ``run`` builds the federation from the config seed, then repeats the
cycle for the configured number of rounds, asserting the literal global
update rule (new params = old params + aggregation delta) and recording a
metrics row plus a ledger entry per round. Identical configs give
bit-identical outputs.

A round has two phases: every participant trains, then every attacker
poisons its own update. Only a diverged or non-finite update is left out;
every finite one, however large, reaches the monitor and the aggregator.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

from .aggregators import AGGREGATORS, AggregationDecision, PidState, aggregate
from .attacks import flip_labels, poison_update
from .config import ConfigError, SimConfig, build_config, eval_split_size, set_by_path
from .core import ClientId, ClientUpdate, ModelParams, Rng, substream
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
    """A run that cannot proceed: too few usable updates or a non-finite model."""


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
        try:
            full = load_csv(ds.csv_path)
        except (OSError, ValueError) as e:
            raise ConfigError("dataset.csv_path", str(e)) from None
        if int(full.labels.max()) >= ds.classes:
            raise ConfigError(
                "dataset.classes",
                f"csv contains label {int(full.labels.max())} >= classes={ds.classes}",
            )
    n = full.num_samples
    n_eval = eval_split_size(n, config.eval_fraction, config.num_clients)
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
    if attack.kind == "label_flip":
        # partition returns the shards in client-id order, so shards[cid] is cid's.
        flip_ids = [substream(STREAM_FLIP, 0, c) for c in attack.targets]
        for cid, rng in zip(attack.targets, Rng.streams(config.seed, flip_ids)):
            shard = shards[cid]
            flipped = flip_labels(shard.train, attack.fraction, config.dataset.classes, rng)
            shards[cid] = ClientShard(cid, flipped, shard.indices)
    return shards


@np.errstate(over="ignore", invalid="ignore")  # huge finite updates overflow distances to inf
def run(config: SimConfig) -> RunResult:
    """Execute every round and return the full trajectory."""
    train_data, eval_data = _build_data(config)
    shards = _prepare_shards(config, train_data)
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
        updates: dict[ClientId, ClientUpdate] = {}
        if config.reputation.enabled:
            # Never below the gate's own fallback of 3, so runs that already
            # succeeded keep their participants and their bytes.
            participants = select_participants(reputation, all_clients, minimum=max(3, needed))
        else:
            participants = all_clients
        participant_set = set(participants)
        non_participants = tuple(c for c in all_clients if c not in participant_set)

        # One Rng.streams call per purpose seeds the round's streams; each is
        # in the state Rng(seed, substream(purpose, t, cid)) would give.
        # Phase A: every participant trains; a diverged one is left out.
        train_ids = [substream(STREAM_TRAIN, t, c) for c in participants]
        for cid, rng in zip(participants, Rng.streams(config.seed, train_ids)):
            try:
                updates[cid] = local_train(params, shards[cid], config.train, rng)
            except TrainingDivergedError:
                pass
        # Phase B: each attacker that trained poisons its own update; one
        # whose poisoned update is not finite is left out too.
        attackers = [c for c in updates if c in malicious] if model_attack else []
        poison_ids = [substream(STREAM_POISON, t, c) for c in attackers]
        for cid, rng in zip(attackers, Rng.streams(config.seed, poison_ids)):
            try:
                updates[cid] = poison_update(updates[cid], config.malicious, rng)
            except ValueError:
                del updates[cid]

        if len(updates) < needed:
            raise EngineError(
                f"round {t}: {len(updates)} usable updates, {agg.name} needs {needed}"
            )

        indicators_log.append(compute_indicators(updates.values(), params, reputation))
        try:
            decision, pid_state = aggregate(agg.name, agg.params, updates.values(), pid_state)
            # The one and only mutation of the global model.
            params = params + decision.delta
        except ValueError:
            raise EngineError(f"round {t}: {agg.name} gave a model that is not finite") from None
        param_trace.append(params)
        # A client left out of updates is excluded as well.
        excluded = tuple(sorted(participant_set.difference(decision.included)))
        decision = replace(decision, excluded=excluded)
        decisions.append(decision)

        if config.reputation.enabled:
            reputation = update_reputation(reputation, decision)
        reputation_trace.append(dict(reputation.reputation))

        loss, accuracy = evaluate(params, eval_data)
        cost = float(
            sum(config.train.local_epochs * shards[c].train.num_samples for c in participants)
        )
        overhead = float(decision.overhead_ops)
        ledger_record(ledger, loss, cost, overhead)
        objective = ledger.entries[-1].objective

        # Defence quality is scored only on the updates the aggregator saw: a
        # client left out above stays in excluded_ids but is no true or false positive.
        passed = set(decision.included)
        caught = updates.keys() - passed
        tp = len(caught & malicious)
        fn = len(passed & malicious)
        fp, tn = len(caught) - tp, len(passed) - fn
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
                excluded_ids=excluded,
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


def _fmt(v: float) -> str:
    """Reals printed with 9 significant digits, '.' decimal separator."""
    return format(float(v), ".9g")


def _ids(ids: tuple[ClientId, ...]) -> str:
    return ";".join(str(c) for c in ids)


def _columns(row_type) -> tuple[tuple[str, Callable], ...]:
    """(name, cell formatter) per field of a row dataclass, by declared type:
    reals as _fmt, id tuples joined by ';', anything else as str."""
    hints = get_type_hints(row_type)
    cell = {float: _fmt, tuple[ClientId, ...]: _ids}
    return tuple((f.name, cell.get(hints[f.name], str)) for f in fields(row_type))


def _to_csv(columns, rows) -> str:
    lines = [",".join(name for name, _ in columns)]
    lines.extend(",".join(fmt(getattr(r, name)) for name, fmt in columns) for r in rows)
    return "\n".join(lines) + "\n"


_METRICS_COLUMNS = _columns(RoundMetrics)


def metrics_to_csv(metrics: list[RoundMetrics]) -> str:
    return _to_csv(_METRICS_COLUMNS, metrics)


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


_SWEEP_COLUMNS = _columns(SweepRow)
_SWEEP_SUMMARY = "sweep_summary.csv"


def sweep_summary_csv(rows: list[SweepRow]) -> str:
    return _to_csv(_SWEEP_COLUMNS, rows)


def _name_max(out_dir: str) -> int:
    """The longest file name, in bytes, that out_dir's file system takes: asked
    of out_dir's nearest existing ancestor, else the usual 255."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    try:
        limit = os.pathconf(path, "PC_NAME_MAX")
    except (AttributeError, ValueError, OSError):
        return 255
    return limit if limit > 0 else 255


def _check_run_dir_names(param_path: str, values, out_dir: str) -> None:
    """Each value must name a directory of its own inside the sweep's out_dir."""
    seen: set[str] = set()
    name_max = _name_max(out_dir)
    for name in map(str, values):
        if name in seen:
            raise ConfigError(param_path, f"sweep value {name!r} repeats a run directory name")
        if name in ("", ".", "..", _SWEEP_SUMMARY) or any(
            sep in name for sep in ("/", os.sep, os.altsep, "\0") if sep
        ):
            raise ConfigError(param_path, f"sweep value {name!r} cannot name a run directory")
        if len(os.fsencode(name)) > name_max:
            raise ConfigError(param_path, f"sweep value {name!r} is over {name_max} bytes long")
        seen.add(name)


def sweep(
    config: SimConfig, param_path: str, values, out_dir: str | None = None
) -> list[SweepRow]:
    """Re-run the config once per value of one scalar field, same seed.

    With ``out_dir`` set, each value gets its own run directory inside it,
    named ``str(value)``, plus a sweep_summary.csv at the top.
    """
    if not values:
        raise ConfigError(param_path, "no sweep values given")
    if out_dir is not None:
        _check_run_dir_names(param_path, values, out_dir)
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
        rows.append(SweepRow(value, *(s[name] for name, _ in _SWEEP_COLUMNS[1:])))
    if out_dir is not None:
        with open(os.path.join(out_dir, _SWEEP_SUMMARY), "w") as fh:
            fh.write(sweep_summary_csv(rows))
    return rows

