"""The package namespace: what each entry point imports, and the public names."""

import json
import os
import pathlib
import subprocess
import sys
from importlib import import_module

import pytest

import fedwatch

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Each public name, with the module that defines it first and then each
# layer module that imports it from there.
PUBLIC = {
    "AGGREGATORS": ("aggregators",),
    "AggregationDecision": ("aggregators",),
    "PidState": ("aggregators",),
    "aggregate": ("aggregators",),
    "bulyan": ("aggregators",),
    "fedavg": ("aggregators",),
    "geomedian": ("aggregators",),
    "krum": ("aggregators",),
    "multi_krum": ("aggregators",),
    "sigma_pid": ("aggregators",),
    "trimmed_mean": ("aggregators",),
    "AttackSpec": ("config", "attacks"),
    "flip_labels": ("attacks",),
    "poison_update": ("attacks",),
    "AggregatorSpec": ("config",),
    "ConfigError": ("config",),
    "DatasetConfig": ("config",),
    "SimConfig": ("config",),
    "build_config": ("config",),
    "load_config": ("config",),
    "ClientId": ("core",),
    "ClientUpdate": ("core",),
    "ModelParams": ("core",),
    "Rng": ("core",),
    "ClientShard": ("datagen",),
    "Dataset": ("datagen",),
    "HeterogeneitySpec": ("config", "datagen"),
    "generate_synthetic": ("datagen",),
    "load_csv": ("datagen",),
    "partition": ("datagen",),
    "EngineError": ("engine",),
    "RoundMetrics": ("engine",),
    "RoundRecord": ("engine",),
    "RunResult": ("engine",),
    "rounds": ("engine",),
    "run": ("engine",),
    "sweep": ("engine",),
    "write_run_outputs": ("engine",),
    "TrainConfig": ("config", "trainer"),
    "TrainingDivergedError": ("trainer",),
    "evaluate": ("trainer",),
    "local_train": ("trainer",),
    "loss_and_gradient": ("trainer",),
    "ReputationConfig": ("config", "trust"),
    "ReputationState": ("trust",),
    "ResourceConfig": ("config", "trust"),
    "TrustIndicators": ("trust",),
    "compute_indicators": ("trust",),
    "ledger_record": ("trust",),
    "select_participants": ("trust",),
    "update_reputation": ("trust",),
}

LAYERS = ("aggregators", "attacks", "config", "core", "datagen", "engine", "trainer", "trust")


def run_python(code: str) -> list:
    """Each line a fresh interpreter prints, parsed as JSON."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    return [json.loads(line) for line in out.stdout.splitlines()]


class TestImports:
    def test_each_step_imports_only_the_modules_it_needs(self):
        code = (
            "import json, sys\n"
            "def loaded():\n"
            "    print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'fedwatch')))\n"
            "import fedwatch\n"
            "loaded()\n"
            "fedwatch.load_config('configs/default.json')\n"
            "loaded()\n"
            "fedwatch.run\n"
            "loaded()\n"
        )
        bare, config, everything = run_python(code)
        assert bare == ["fedwatch"]
        assert config == ["fedwatch", "fedwatch.aggregators", "fedwatch.config", "fedwatch.core"]
        assert everything == ["fedwatch", *(f"fedwatch.{m}" for m in LAYERS)]

    def test_a_submodule_is_imported_when_named(self):
        code = (
            "import json, sys, fedwatch\n"
            "named = {'trainer': fedwatch.trainer}\n"
            "from fedwatch import engine, cli\n"
            "named.update(engine=engine, cli=cli)\n"
            "print(json.dumps({k: m is sys.modules['fedwatch.' + k] for k, m in named.items()}))\n"
        )
        assert run_python(code) == [{"trainer": True, "engine": True, "cli": True}]


class TestPublicNames:
    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_name_is_the_object_in_each_module_that_holds_it(self, name):
        value = getattr(fedwatch, name)
        for module in PUBLIC[name]:
            assert getattr(import_module(f"fedwatch.{module}"), name) is value

    def test_all_and_dir_list_every_name(self):
        assert sorted(fedwatch.__all__) == sorted([*PUBLIC, "__version__"])
        assert set(PUBLIC) | {"__version__"} <= set(dir(fedwatch))

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fedwatch.no_such_name
        assert not hasattr(fedwatch, "SYNTHETIC_ONLY")

    def test_layer_modules_name_their_config_sections_from_config(self):
        from fedwatch import attacks, config, datagen

        assert attacks.ATTACK_KINDS is config.ATTACK_KINDS
        assert datagen.HETEROGENEITY_MODES is config.HETEROGENEITY_MODES
