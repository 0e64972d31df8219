"""Deterministic federated-learning simulator with monitored, robust aggregation."""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it. A name is imported on
# first use, so loading a config imports no simulation layer.
_EXPORTS = {
    "aggregators": ("AggregationDecision", "PidState", "aggregate", "bulyan", "fedavg",
                    "geomedian", "krum", "multi_krum", "sigma_pid", "trimmed_mean"),
    "attacks": ("flip_labels", "poison_update"),
    "config": ("AGGREGATORS", "AggregatorSpec", "AttackSpec", "ConfigError", "DatasetConfig",
               "HeterogeneitySpec", "ReputationConfig", "ResourceConfig", "SimConfig", "TrainConfig",
               "build_config", "load_config"),
    "core": ("ClientId", "ClientUpdate", "ModelParams", "Rng"),
    "datagen": ("ClientShard", "Dataset", "generate_synthetic", "load_csv", "partition"),
    "engine": ("EngineError", "RoundMetrics", "RoundRecord", "RunResult", "rounds", "run", "sweep",
               "write_run_outputs"),
    "trainer": ("TrainingDivergedError", "evaluate", "local_train", "loss_and_gradient"),
    "trust": ("TrustIndicators", "compute_indicators", "ledger_record", "select_participants",
              "update_reputation"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: fedwatch.engine needs no import fedwatch.engine
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
