"""Each round's stack holds exactly the usable updates, each in its row.

The engine writes each trained delta into its row of one round matrix and
each poisoned one over its attacker's row, and leaves no row for a client
whose training diverged or whose poisoned update is not finite. The stack
the monitor reads must equal ``stack_updates`` of the updates that
``local_train`` and ``poison_update`` returned, so a misaligned row, or a
dropped row left in, fails.
"""

import numpy as np
import pytest

from fedwatch.aggregators import stack_updates
from fedwatch.engine import run

from test_engine import cfg


def captured_rounds(conf, monkeypatch):
    """Run conf; per round, (the stack compute_indicators was given, the
    trained and poisoned updates in call order, the clients that diverged
    and the attackers whose poisoned update was refused)."""
    from fedwatch import engine

    events = []

    def record(name):
        original = getattr(engine, name)

        def wrapped(*args):
            try:
                result = original(*args)
            except (ValueError, RuntimeError):
                client = args[1].client if name == "local_train" else args[0].client
                events.append((name + " failed", client))
                raise
            events.append((name, result))
            return result

        monkeypatch.setattr(engine, name, wrapped)

    def indicators(stack, params, original=engine.compute_indicators):
        events.append(("stack", stack))
        return original(stack, params)

    record("local_train")
    record("poison_update")
    monkeypatch.setattr(engine, "compute_indicators", indicators)
    run(conf)

    rounds, updates, failed = [], {}, {"local_train failed": [], "poison_update failed": []}
    for kind, item in events:
        if kind == "stack":
            rounds.append((item, updates, failed))
            updates, failed = {}, {"local_train failed": [], "poison_update failed": []}
        elif kind.endswith("failed"):
            failed[kind].append(item)
            updates.pop(item, None)
        else:
            updates[item.client] = item  # a poisoned update replaces its trained one
    assert updates == {} and rounds
    return rounds


CASES = {
    # some clients diverge; the attackers' scaled updates are kept
    "diverged": dict(
        rounds=2,
        heterogeneity={"mode": "dirichlet", "dirichlet_alpha": 0.3},
        train={"learning_rate": 300.0, "local_epochs": 2, "batch_size": 1, "l2_reg": 10.0},
        malicious={"kind": "scale", "magnitude": 3.0, "targets": [0, 4]},
    ),
    # 1e308 times a delta overflows to inf for some attackers, not all
    "scale_overflow": dict(
        rounds=4,
        malicious={"kind": "scale", "magnitude": 1e308, "targets": [1, 3, 6]},
        train={"learning_rate": 0.02, "local_epochs": 1, "batch_size": 16, "l2_reg": 1e-4},
    ),
    "label_flip": dict(malicious={"kind": "label_flip", "fraction": 1.0, "targets": [1, 5]}),
    # gated clients are left out of the matrix altogether
    "reputation": dict(
        num_clients=9,
        rounds=8,
        malicious={"kind": "gaussian_noise", "magnitude": 0.02, "targets": [2, 7]},
        aggregator={"name": "sigma_pid", "params": {"sigma_k": 1.5}},
        reputation={"enabled": True, "decay_lambda": 0.5, "participation_threshold": 0.5},
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_the_stack_is_the_stack_of_the_returned_updates(case, monkeypatch):
    rounds = captured_rounds(cfg(**CASES[case]), monkeypatch)
    for stack, updates, _ in rounds:
        want = stack_updates(updates.values())
        assert stack.ids == want.ids
        assert stack.shape == want.shape
        assert stack.weights.tobytes() == want.weights.tobytes()
        assert stack.mat.tobytes() == want.mat.tobytes()
        assert not stack.mat.flags.writeable and not stack.weights.flags.writeable
    # each case reaches the path it is named for
    if case == "diverged":
        # a round in which clients diverged and both attackers kept rows
        assert any(failed["local_train failed"] and {0, 4} <= set(stack.ids)
                   for stack, _, failed in rounds)
    if case == "scale_overflow":
        # a refused attacker with kept rows after it, and an attacker kept
        assert any(c < stack.ids[-1] for stack, _, failed in rounds for c in failed["poison_update failed"])
        assert any(c in stack.ids for stack, _, _ in rounds for c in (1, 3, 6))
    if case == "reputation":
        assert any(len(stack) < 9 for stack, _, _ in rounds)
