"""Deterministic federated-learning simulator with monitored, robust aggregation."""

from .aggregators import (
    AGGREGATORS,
    AggregationDecision,
    PidState,
    aggregate,
    bulyan,
    fedavg,
    geomedian,
    krum,
    multi_krum,
    sigma_pid,
    trimmed_mean,
)
from .attacks import AttackSpec, flip_labels, poison_update
from .config import (
    AggregatorSpec,
    ConfigError,
    DatasetConfig,
    SimConfig,
    build_config,
    load_config,
)
from .core import ClientId, ClientUpdate, ModelParams, Rng
from .datagen import ClientShard, Dataset, HeterogeneitySpec, generate_synthetic, load_csv, partition
from .engine import EngineError, RoundMetrics, RunResult, run, sweep, write_run_outputs
from .trainer import TrainConfig, TrainingDivergedError, evaluate, local_train, loss_and_gradient
from .trust import (
    ReputationConfig,
    ReputationState,
    ResourceConfig,
    ResourceLedger,
    TrustIndicators,
    compute_indicators,
    ledger_record,
    select_participants,
    update_reputation,
)

__version__ = "0.1.0"
