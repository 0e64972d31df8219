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

# sha256 of metrics.csv followed by the final_params bytes, per benchmark
# workload and reference seed, as scripts/golden_hashes.py prints them. Only
# sigma_noise_iid draws from the model-poisoning streams.
WORKLOAD_DIGESTS = {
    "paper_labelflip/1": "b7759b38fed99162b1ffecaae472f78d899542ae0e05d948ef70ca31405c0536",
    "paper_labelflip/2": "ad1ca73acc92ea920b5bcfbdd3c07a44a42bba2f27ae6f0731d2aab1179ffecb",
    "paper_labelflip/3": "4a43c14f62626287ac7e73fab24a33aa1ecd525c00326800a7aada77d051e2a6",
    "paper_labelflip/4": "1c2ee7c943c46f424b5f4b9b259e16ac66d9001c4ddd0c2545d82865c4587472",
    "paper_labelflip/5": "29cb14b5539df70708864f8926a9b7818082d7edfe98cf7743ae7564552e31ec",
    "paper_labelflip/6": "d7e3784aa123e66d03d0dcfcc5f855bd7b0208a06a42f2b0a185651f8bf85cc2",
    "paper_labelflip/7": "23ed70536c1300d48f4eb64d73968a6eaf7aa61e880518b7160bd27d54796893",
    "paper_labelflip/8": "71a144001a7f71f9d6b6ed21d4aea9edd8fa13d752193c26b49c29f8f0e4da6d",
    "bulyan_scale/1": "cdca9c42096a26ebcb6f44e14d8f41907d2ca770e5b87dd5c397403cee9bc763",
    "sigma_noise_iid/1": "2569a82dc8c2a1e6b3745379027cbbac5517e7698b400fedb9f08c9d33379b98",
    "sigma_noise_iid/2": "d8d425433aa6c05fa5d5ad63d54f211a2ae549d817212a2c748ec830aa3a052c",
    "sigma_noise_iid/3": "ff855133a7576dd0127ed8b0df15ed804b3c551c34c2a6dac7639cd9292d2be3",
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


def test_workload_reference_seed_digests_are_unchanged():
    assert dict(load_script().workload_hashes()) == WORKLOAD_DIGESTS
