import hashlib
import importlib.util
import json
import pathlib

from fedwatch import build_config, run
from fedwatch.engine import metrics_to_csv

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "golden_hashes.py"


def load_script():
    spec = importlib.util.spec_from_file_location("golden_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_entry_is_fedavg_seed_1_metrics_csv():
    label, digest = next(load_script().golden_hashes())
    raw = json.loads((ROOT / "configs" / "default.json").read_text())
    raw["seed"] = 1
    raw["aggregator"] = {"name": "fedavg", "params": {}}
    csv = metrics_to_csv(run(build_config(raw)).metrics)
    assert label == "fedavg/1"
    assert digest == hashlib.sha256(csv.encode()).hexdigest()
