import hashlib
import importlib.util
import itertools
import json
import pathlib

from fedwatch import build_config, run
from fedwatch.engine import metrics_to_csv

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "golden_hashes.py"

# sha256 of metrics.csv on configs/default.json, every aggregator of
# scripts/compare_aggregators.py at seeds 1-3, as first recorded with the
# aggregator registry. A change that moves these bits on purpose records the
# new digests here and says why in CHANGES.md.
GOLDEN_METRICS_CSV = {
    "fedavg/1": "06fb6a26ff4b8df75db85f834c4d2461d3b78f7e799cf03f02eca5382803a9d1",
    "fedavg/2": "76f813fe22deff7920dd4c92d183ec33703d71417f58be1108516883e3f75326",
    "fedavg/3": "faf486c3bf6ab59ee4fe5bc2821f3fd8fe24d2a4c676efbff91c94f225ae3a52",
    "trimmed_mean/1": "6147a48e0f7b64982ebc81a340c232b0c74b032d28d09a71d08078504014a06c",
    "trimmed_mean/2": "66423fd03b8c00d9485531b0f6bde5cbb75106a73ee29372466b8e4494d23818",
    "trimmed_mean/3": "9aecd97b3e1cb89feede534265313180d50f782e8cb9e772d3b03d338c166c3d",
    "krum/1": "92789dbdecf3edf211a35ef1f6f7d2548b8486de6a795e170c9db28617c3dbe4",
    "krum/2": "b5aeecd52f300ac3e8ba744211b55c19cb0bfc0cd704c15ca5b0c51ba0c26503",
    "krum/3": "66c02c3d0e3645d736afb592df26113628a680ba0d8adfd30aa1aa5630c9fe00",
    "multi_krum/1": "efea4216da6be704f7b22ad110d24133860c245487966fa66e24109e629fabf3",
    "multi_krum/2": "2079e756f78a04c6e9b8489079617d4b7e542215d4074134fd682e7292d19e21",
    "multi_krum/3": "7fd116a37a884142aa0499ab9653aff9a8d843cb1a7e2d2cad72e2f3ca42973e",
    "bulyan/1": "cbf97287212a9deda5e15d7c37d9428c35f6b8fa7113b3fdf4220ee4e50a033e",
    "bulyan/2": "1945c8dcaa4c9121b34ef1ab4df5b5870360f50d5072f15f1bbefba6895d6b09",
    "bulyan/3": "47e73ae13e62e676100bdb0b754095a509d1cdea3a0b74ba328db3def01daaf7",
    "geomedian/1": "bcd22dd9cc1db8d8aa2418bd90322b045a478f5e89d3d67d1218f66493cba1aa",
    "geomedian/2": "d3de5b515cdadd0ede3e450c6ad2e61002d99303aadfb47e5ce846c661542494",
    "geomedian/3": "ea1b082c3409548742e42979865ac2d43eac8e3a144b3d794c24ea94b61d2fdb",
    "sigma_pid/1": "23b75832cc266ccfd3cd0ecfdf77791bd0001a72ee303e294341b3ce0cbdc3c5",
    "sigma_pid/2": "624b2a23f5b32fd27c5ff700466f959de85bf87f2e14ce808eb982f4c527066b",
    "sigma_pid/3": "e1bd5b1e5a675e5bd41d08f039767d61e9e395c95739a1cbfaba5da2b2d17e1b",
}


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


def test_golden_metrics_csv_digests_are_unchanged():
    golden = itertools.islice(load_script().golden_hashes(), len(GOLDEN_METRICS_CSV))
    assert dict(golden) == GOLDEN_METRICS_CSV
