"""The round loop: broadcast, local train, attack, monitor, aggregate, apply.

``rounds`` builds the federation from the config seed, then runs the
cycle one round per step, applying the literal global update rule (new
params = old params + aggregation delta) and yielding the round's record:
its metrics row, model, decision, indicators, reputation and sigma_pid's
controller state. ``run`` keeps the metrics, the decisions and the last
model. Identical configs give bit-identical outputs.

A round has two phases: every participant trains, then every attacker
poisons its own update. Only a diverged or non-finite update is left out;
every finite one, however large, reaches the monitor and the aggregator.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import get_type_hints

import numpy as np

from .aggregators import AggregationDecision, PidState, UpdateStack, aggregate, stack_rows
from .attacks import flip_labels, poison_update
from .config import AGGREGATORS, ConfigError, SimConfig, build_config, eval_split_size, set_by_path
from .core import ClientId, ModelParams, Rng, StreamGrid, substream
from .datagen import (
    ClientShard,
    Dataset,
    generate_synthetic,
    load_csv,
    partition,
    synthetic_labels,
)
from .trainer import TrainingDivergedError, evaluate, local_train
from .trust import (
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
    """What ``run`` keeps of a run. Each decision's ``delta`` is None."""

    metrics: list[RoundMetrics]
    final_params: ModelParams
    initial_loss: float
    initial_accuracy: float
    decisions: list[AggregationDecision]


def _ratio(num: int, den: int) -> float:
    return 1.0 if den == 0 else num / den


def confusion_rates(tp: int, fp: int, tn: int, fn: int) -> tuple[float, float, float]:
    """(accuracy, precision, recall) with the 0/0 -> 1.0 convention."""
    total = tp + fp + tn + fn
    accuracy = _ratio(tp + tn, total)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return accuracy, precision, recall


def _build_data(config: SimConfig) -> tuple[Dataset, list[ClientShard]]:
    """(eval, shards): views of one read-only matrix, laid out in one pass.

    The eval rows, clean and server-side, come first; then each client's
    training rows, one block per client in client order. ``partition`` deals
    labels only, so every row is placed before any feature is written, and
    no training matrix is ever held apart from the shards.
    """
    ds = config.dataset
    if ds.type == "synthetic":
        labels = synthetic_labels(ds.classes, ds.samples_per_class)
    else:
        try:
            full = load_csv(ds.csv_path)
        except (OSError, ValueError) as e:
            raise ConfigError("dataset.csv_path", str(e)) from None
        labels = full.labels
        if int(labels.max()) >= ds.classes:
            raise ConfigError(
                "dataset.classes",
                f"csv contains label {int(labels.max())} >= classes={ds.classes}",
            )
    n = labels.shape[0]
    n_eval = eval_split_size(n, config.eval_fraction, config.num_clients)
    perm = Rng(config.seed, substream(STREAM_SPLIT)).permutation(n)
    eval_idx = np.sort(perm[:n_eval])
    train_idx = np.sort(perm[n_eval:])
    rows = partition(
        labels[train_idx],
        config.num_clients,
        config.heterogeneity,
        Rng(config.seed, substream(STREAM_PARTITION)),
    )
    layout = np.concatenate([eval_idx, train_idx[np.concatenate(rows)]])
    if ds.type == "synthetic":
        data = generate_synthetic(
            ds.classes,
            ds.features,
            ds.samples_per_class,
            ds.cluster_spread,
            Rng(config.seed, substream(STREAM_DATA)),
            order=layout,
        )
    else:
        data = full.subset(layout)
        del full
    # every shard shares these arrays; a write through one would reach all
    data.features.flags.writeable = False
    data.labels.flags.writeable = False

    bounds = np.cumsum([n_eval] + [len(ix) for ix in rows]).tolist()
    shards = [
        ClientShard(cid, Dataset(data.features[lo:hi], data.labels[lo:hi]), ix)
        for cid, (lo, hi, ix) in enumerate(zip(bounds, bounds[1:], rows))
    ]
    attack = config.malicious
    if attack.kind == "label_flip":
        flip_streams = StreamGrid(config.seed, STREAM_FLIP, 1, attack.targets)
        for cid in attack.targets:
            shard = shards[cid]
            rng = flip_streams.rng(0, cid)
            flipped = flip_labels(shard.train, attack.fraction, config.dataset.classes, rng)
            shards[cid] = ClientShard(cid, flipped, shard.indices)
    return Dataset(data.features[:n_eval], data.labels[:n_eval]), shards


@dataclass(frozen=True, eq=False)
class RoundRecord:
    """What one round saw and did; ``reputation`` (each client's, by id),
    ``params`` and ``pid_state`` (sigma_pid's, else None) are after it. All
    three are read-only: the next round reads them."""

    t: int
    indicators: TrustIndicators
    decision: AggregationDecision
    reputation: Mapping[ClientId, float]
    params: ModelParams
    metrics: RoundMetrics
    pid_state: PidState | None


class rounds(Iterator[RoundRecord]):
    """A run, one round per step: iterating yields each round's RoundRecord.

    Constructing it builds the data and evaluates the zero model, into
    ``initial_params``, ``initial_loss`` and ``initial_accuracy``. A failed
    round raises EngineError and ends the run, as ``close()`` does.
    Construction and each step run under np.errstate(over="ignore",
    invalid="ignore"), as huge finite updates overflow distances to inf, and
    leave it before they return, so the consumer never runs under it.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, config: SimConfig):
        eval_data, shards = _build_data(config)
        self.initial_params = ModelParams.zeros((config.dataset.classes, eval_data.num_features))
        self.initial_params.values.flags.writeable = False
        self.initial_loss, self.initial_accuracy = evaluate(self.initial_params, eval_data)
        self._steps = _play(config, eval_data, shards, self.initial_params)

    @np.errstate(over="ignore", invalid="ignore")
    def __next__(self) -> RoundRecord:
        return next(self._steps)

    def close(self) -> None:
        self._steps.close()


def _train_round(config: SimConfig, t: int, participants, params: ModelParams,
                 shards: list[ClientShard], train_streams: StreamGrid,
                 poison_streams: StreamGrid) -> UpdateStack:
    """Round t's two phases, into one (participants x d) update matrix.

    Phase A: every participant trains; a diverged one leaves no row. A
    benign delta is copied into its row as soon as it is made, and its
    update is dropped. An attacker's update is kept for Phase B, in which
    each attacker that trained poisons its own update and the poisoned
    delta goes into its row; one whose poisoned update is not finite
    leaves no row either. Returns the stack of the filled rows, which
    ascend by client id as ``participants`` do.
    """
    attack = config.malicious
    attackers = set(attack.targets) if attack.kind != "label_flip" else set()
    mat = np.empty((len(participants), params.values.size))
    ids, samples, held = [], [], {}  # held: row -> an attacker's update
    for cid in participants:
        try:
            update = local_train(params, shards[cid], config.train, train_streams.rng(t, cid))
        except TrainingDivergedError:
            continue
        if cid in attackers:
            held[len(ids)] = update
        else:
            mat[len(ids)] = update.delta.values
        ids.append(cid)
        samples.append(update.num_samples)
    dropped = set()
    for row, update in held.items():
        try:
            mat[row] = poison_update(update, attack, poison_streams.rng(t, update.client)).delta.values
        except ValueError:
            dropped.add(row)
    if dropped:  # close the gaps one row at a time, with no second matrix
        kept = [row for row in range(len(ids)) if row not in dropped]
        for new, old in enumerate(kept):
            mat[new] = mat[old]
        ids, samples = [ids[row] for row in kept], [samples[row] for row in kept]
    return stack_rows(ids, mat[: len(ids)], samples, params.shape)


def _play(config: SimConfig, eval_data: Dataset, shards: list[ClientShard],
          params: ModelParams) -> Iterator[RoundRecord]:
    """The round loop of ``rounds``, from the model ``params``."""
    all_clients = tuple(range(config.num_clients))
    malicious = set(config.malicious.targets)
    reputation = dict.fromkeys(all_clients, 1.0)
    pid_state: PidState | None = None
    agg = config.aggregator
    needed = AGGREGATORS[agg.name].min_clients(agg.params)
    # Per-round streams, each in the state Rng(seed, substream(purpose, t,
    # cid)) gives; a grid seeds a block of rounds with one hash call.
    train_streams = StreamGrid(config.seed, STREAM_TRAIN, config.rounds, all_clients)
    poison_streams = StreamGrid(config.seed, STREAM_POISON, config.rounds, config.malicious.targets)

    for t in range(config.rounds):
        if config.reputation.enabled:
            participants = select_participants(reputation, all_clients, config.reputation, needed)
        else:
            participants = all_clients
        participant_set = set(participants)
        non_participants = tuple(c for c in all_clients if c not in participant_set)

        # One stack serves the monitor and the aggregator, distances included;
        # it holds the round's deltas, and no update outlives its row.
        stack = _train_round(config, t, participants, params, shards, train_streams, poison_streams)
        if len(stack) < needed:
            raise EngineError(
                f"round {t}: {len(stack)} usable updates, {agg.name} needs {needed}"
            )
        indicators = compute_indicators(stack, params)
        try:
            decision, pid_state = aggregate(agg.name, agg.params, stack, pid_state)
            # The one and only mutation of the global model.
            params = params + decision.delta
        except ValueError:
            raise EngineError(f"round {t}: {agg.name} gave a model that is not finite") from None
        params.values.flags.writeable = False
        del stack  # the next round trains without this round's matrix
        # Defence quality is scored only on the updates the aggregator saw: a
        # client left out of them is excluded below but is no true or false positive.
        tp = len(malicious.intersection(decision.excluded))
        fn = len(malicious.intersection(decision.included))
        fp, tn = len(decision.excluded) - tp, len(decision.included) - fn
        excl_accuracy, excl_precision, excl_recall = confusion_rates(tp, fp, tn, fn)
        excluded = tuple(sorted(participant_set.difference(decision.included)))
        decision = replace(decision, excluded=excluded)

        if config.reputation.enabled:
            reputation = update_reputation(reputation, decision, config.reputation)

        loss, accuracy = evaluate(params, eval_data)
        cost = float(
            sum(config.train.local_epochs * shards[c].train.num_samples for c in participants)
        )
        overhead = float(decision.overhead_ops)
        objective = ledger_record(config.resource, loss, cost, overhead)

        metrics = RoundMetrics(
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
        yield RoundRecord(t, indicators, decision, MappingProxyType(reputation), params, metrics,
                          pid_state)


def run(config: SimConfig) -> RunResult:
    """Every round of ``rounds(config)``, folded into what the outputs read;
    a caller that wants more of each round iterates ``rounds`` itself."""
    steps = rounds(config)
    result = RunResult([], steps.initial_params, steps.initial_loss, steps.initial_accuracy, [])
    for record in steps:
        result.metrics.append(record.metrics)
        result.decisions.append(replace(record.decision, delta=None))
        result.final_params = record.params
    return result


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
    """Write one run directory, for run or sweep: metrics.csv, summary.json, model.json, config.json.

    JSON has no NaN or Infinity, so summary.json writes a non-finite real as null.
    """
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write(metrics_to_csv(result.metrics))
    summary = {
        k: None if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in summarize(config, result, wall_time).items()
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
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
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class SweepRow:
    """One sweep_summary.csv row: a swept value and its run's summary."""

    value: object
    final_loss: float
    final_accuracy: float
    mean_excl_precision: float
    mean_excl_recall: float
    total_objective: float


_SWEEP_COLUMNS = _columns(SweepRow)
_SWEEP_SUMMARY = "sweep_summary.csv"


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
            fh.write(_to_csv(_SWEEP_COLUMNS, rows))
    return rows

