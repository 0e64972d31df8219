"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import csv
import json
import math
import pathlib
import time

import numpy as np
import pytest

from fedwatch.aggregators import bulyan, fedavg, geomedian, krum, trimmed_mean
from fedwatch.cli import main as cli_main
from fedwatch.config import build_config
from fedwatch.core import ClientUpdate, ModelParams, Rng
from fedwatch.datagen import Dataset
from fedwatch.engine import rounds, run, sweep
from fedwatch.trainer import loss_and_gradient
from fedwatch.trust import ReputationState, update_reputation

from oracles import (
    anchor_dominance_margin,
    bulyan_naive,
    geomedian_grid_2d,
    krum_scores_naive,
    trimmed_mean_naive,
)
from test_trust import decision as make_decision

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
SEEDS = (1, 2, 3, 4, 5)


def report(num, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


def scenario(seed, aggregator_name, params, targets=(0, 1, 2, 3)):
    """The benchmark scenario: 20 clients, 4 flipping 100% of labels."""
    base = json.loads(DEFAULT_CONFIG.read_text())
    base["seed"] = seed
    base["malicious"]["targets"] = list(targets)
    base["aggregator"] = {"name": aggregator_name, "params": params}
    return build_config(base)


def updates_from(rng, n, dim, weighted=True):
    out = []
    for i in range(n):
        out.append(
            ClientUpdate(
                client=i,
                delta=ModelParams(rng.standard_normal(dim + 1), (1, dim)),
                num_samples=int(rng.integers(1, 6)) if weighted else 1,
            )
        )
    return out


def test_criterion_1_determinism(tmp_path):
    start = time.monotonic()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["run", "--config", str(DEFAULT_CONFIG), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(DEFAULT_CONFIG), "--out", str(out_b)]) == 0
    elapsed = time.monotonic() - start
    identical = (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    report(1, identical and elapsed <= 10.0, f"byte-identical={identical} elapsed={elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    rng = Rng(2024)
    h = 1e-5
    worst = 0.0
    for case in range(100):
        shape = (int(rng.integers(2, 6)), int(rng.integers(1, 7)))
        dim = shape[0] * shape[1] + shape[0]
        params = ModelParams(rng.standard_normal(dim), shape)
        n = int(rng.integers(1, 4))
        data = Dataset(
            rng.standard_normal((n, shape[1])) * 2.0,
            rng.integers(0, shape[0], size=n),
        )
        l2 = 0.0 if case % 3 else 0.05
        _, grad = loss_and_gradient(params, data, l2)
        fd = np.empty(dim)
        for i in range(dim):
            up = params.values.copy()
            up[i] += h
            dn = params.values.copy()
            dn[i] -= h
            lu, _ = loss_and_gradient(ModelParams(up, shape), data, l2)
            ld, _ = loss_and_gradient(ModelParams(dn, shape), data, l2)
            fd[i] = (lu - ld) / (2 * h)
        scale = max(float(np.max(np.abs(grad.values))), 1e-8)
        worst = max(worst, float(np.max(np.abs(grad.values - fd))) / scale)
    report(2, worst <= 1e-4, f"max relative error {worst:.2e}")


def test_criterion_3_aggregator_oracles():
    start = time.monotonic()
    rng = Rng(2025)
    ok = True

    for _ in range(200):
        n = int(rng.integers(3, 10))
        beta = int(rng.integers(0, (n - 1) // 2 + 1))
        ups = updates_from(rng, n, int(rng.integers(1, 7)), weighted=False)
        got = trimmed_mean(ups, beta).delta.values
        ref = trimmed_mean_naive([u.delta.values for u in ups], beta)
        ok &= float(np.max(np.abs(got - ref))) <= 1e-12

    for _ in range(200):
        f = int(rng.integers(0, 3))
        n = int(rng.integers(2 * f + 3, 2 * f + 8))
        ups = updates_from(rng, n, int(rng.integers(1, 10)), weighted=False)
        d = krum(ups, f)
        ref = krum_scores_naive([u.delta.values for u in ups], f)
        ok &= [d.info["scores"][i] for i in range(n)] == ref
        ok &= d.included == (min(range(n), key=lambda i: (ref[i], i)),)

    done = 0
    while done < 200:
        n = int(rng.integers(3, 7))
        pts = rng.standard_normal((n, 2)) * 3.0
        w = rng.integers(1, 5, size=n).astype(float)
        if anchor_dominance_margin(pts, w) < 0.05:
            # measure-zero dominance boundary: ill-conditioned for any method
            continue
        done += 1
        ups = [
            ClientUpdate(
                client=i,
                delta=ModelParams(np.append(pts[i], 0.0), (1, 2)),
                num_samples=int(w[i]),
            )
            for i in range(n)
        ]
        got = geomedian(ups, weiszfeld_tol=1e-12, weiszfeld_max_iters=200_000).delta.values[:2]
        ref = geomedian_grid_2d(pts, w)
        ok &= float(np.max(np.abs(got - ref))) <= 1e-4

    for _ in range(200):
        ups = updates_from(rng, 7, 1, weighted=False)
        d = bulyan(ups, 1)
        sel, agg = bulyan_naive([u.delta.values for u in ups], list(range(7)), 1)
        ok &= list(d.included) == sel and bool(np.array_equal(d.delta.values, agg))

    elapsed = time.monotonic() - start
    report(3, ok and elapsed <= 30.0, f"4x200 randomized instances in {elapsed:.1f}s")


def test_criterion_4_update_rule_identity():
    steps = rounds(scenario(1, "multi_krum", {"byzantine_f": 4, "multi_krum_m": 12}))
    records = list(steps)
    assert len(records) == 20
    params = [steps.initial_params] + [r.params for r in records]
    ok = True
    for t, r in enumerate(records):
        expected = params[t].values + r.decision.delta.values
        ok &= bool(np.array_equal(params[t + 1].values, expected))
    report(4, ok, "theta_next == theta + decision.delta, bit-exact, 20 rounds")


def _final_accuracy(result):
    return result.metrics[-1].global_accuracy


def _late_recall(result):
    return float(np.mean([m.excl_recall for m in result.metrics[4:]]))


def test_criterion_5_attack_defense_separation():
    start = time.monotonic()
    passes = 0
    details = []
    for seed in SEEDS:
        clean = run(scenario(seed, "fedavg", {}, targets=()))
        att_fed = run(scenario(seed, "fedavg", {}))
        att_mk = run(scenario(seed, "multi_krum", {"byzantine_f": 4, "multi_krum_m": 12}))
        att_sp = run(scenario(seed, "sigma_pid", {"sigma_k": 2.5}))
        gap = _final_accuracy(clean) - _final_accuracy(att_fed)
        mk_diff = abs(_final_accuracy(clean) - _final_accuracy(att_mk))
        sp_diff = abs(_final_accuracy(clean) - _final_accuracy(att_sp))
        rec_mk = _late_recall(att_mk)
        rec_sp = _late_recall(att_sp)
        seed_ok = (
            gap >= 0.10
            and mk_diff <= 0.03
            and sp_diff <= 0.03
            and rec_mk >= 0.9
            and rec_sp >= 0.9
        )
        passes += seed_ok
        details.append(f"s{seed}:{'ok' if seed_ok else 'no'}(gap={gap:.3f})")
    elapsed = time.monotonic() - start
    report(5, passes >= 4 and elapsed <= 60.0, f"{passes}/5 seeds, {elapsed:.1f}s, {' '.join(details)}")


def _sweep_fp_and_recall(seed, tmp_path):
    cfg = scenario(seed, "sigma_pid", {"sigma_k": 2.5})
    out = tmp_path / f"seed{seed}"
    sweep(cfg, "aggregator.params.sigma_k", [1.0, 2.5, 5.0], out_dir=str(out))
    stats = {}
    for value in ("1.0", "2.5", "5.0"):
        with open(out / value / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        fp = sum(int(r["fp"]) for r in rows)
        recall = float(np.mean([float(r["excl_recall"]) for r in rows]))
        stats[value] = (fp, recall)
    return stats


def test_criterion_6_sigma_threshold_tradeoff(tmp_path):
    passes = 0
    details = []
    for seed in SEEDS:
        stats = _sweep_fp_and_recall(seed, tmp_path)
        tight_over_excludes = stats["1.0"][0] > stats["2.5"][0]
        loose_under_recalls = stats["5.0"][1] < stats["2.5"][1]
        seed_ok = tight_over_excludes and loose_under_recalls
        passes += seed_ok
        details.append(
            f"s{seed}:{'ok' if seed_ok else 'no'}"
            f"(fp {stats['1.0'][0]}/{stats['2.5'][0]}, rec {stats['2.5'][1]:.2f}/{stats['5.0'][1]:.2f})"
        )
    report(6, passes >= 3, f"{passes}/5 seeds, {' '.join(details)}")


def test_criterion_7_ledger_identity_and_overhead_ordering():
    base = json.loads(DEFAULT_CONFIG.read_text())
    base["resource"] = {"alpha": 0.001, "beta": 0.01}
    ok = True
    totals = {}
    for name, params in (("fedavg", {}), ("krum", {"byzantine_f": 4})):
        cfg_dict = dict(base)
        cfg_dict["aggregator"] = {"name": name, "params": params}
        result = run(build_config(cfg_dict))
        for m in result.metrics:
            recomputed = m.global_loss + 0.001 * m.cost + 0.01 * m.overhead
            ok &= m.objective == recomputed
        totals[name] = sum(m.overhead for m in result.metrics)
    ok &= totals["krum"] > totals["fedavg"]
    report(7, ok, f"total overhead krum={totals['krum']:.0f} > fedavg={totals['fedavg']:.0f}")


def test_criterion_8_reputation_dynamics():
    state = ReputationState.fresh([0, 1], decay_lambda=0.9)
    ok = True
    for t in range(1, 31):
        state = update_reputation(state, make_decision(included=[1], excluded=[0]))
        ok &= abs(state.reputation[0] - 0.9**t) <= 1e-12
        ok &= 0.0 <= state.reputation[0] <= 1.0

    records = list(rounds(scenario(1, "multi_krum", {"byzantine_f": 4, "multi_krum_m": 12})))
    reputation_trace = [r.reputation.reputation for r in records]
    for snapshot in reputation_trace:
        ok &= all(0.0 <= r <= 1.0 for r in snapshot.values())
    always_excluded = [
        c for c in range(20)
        if all(c in r.metrics.excluded_ids for r in records)
    ]
    ok &= len(always_excluded) > 0
    for c in always_excluded:
        for t in range(len(records)):
            ok &= abs(reputation_trace[t][c] - 0.9 ** (t + 1)) <= 1e-12
    report(8, ok, f"decay matches 0.9^t; {len(always_excluded)} always-excluded clients checked")


def test_criterion_9_round_one_loss_anchor():
    result = run(scenario(1, "multi_krum", {"byzantine_f": 4, "multi_krum_m": 12}))
    anchor = abs(result.initial_loss - math.log(4.0))
    report(9, anchor <= 1e-6, f"|loss(theta_0) - ln 4| = {anchor:.2e}")
