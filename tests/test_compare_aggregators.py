import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_one_seed_prints_seven_rule_rows_and_three_sigma_rows(capsys):
    spec = importlib.util.spec_from_file_location(
        "compare_aggregators", ROOT / "scripts" / "compare_aggregators.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--seeds", "1"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines[0] == ["seed", "1"]
    rules, sigma = lines[2:9], lines[10:]
    assert [row[0] for row in rules] == list(script.AGGREGATORS)
    assert [row[0] for row in sigma] == ["1.0", "2.5", "5.0"]
    # the rule table's sigma_pid is the same run as sigma_k 2.5
    final_acc, mean_rec = rules[-1][1], rules[-1][4]
    assert sigma[1][2:] == [mean_rec, final_acc]


@pytest.mark.parametrize("seeds", ["1,,2", "x", ""])
def test_a_malformed_seed_list_is_a_usage_error(capsys, seeds):
    # "1,,2" ended in a ValueError traceback
    spec = importlib.util.spec_from_file_location(
        "compare_aggregators", ROOT / "scripts" / "compare_aggregators.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SystemExit) as e:
        script.main(["--seeds", seeds])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --seeds: invalid int_list value: {seeds!r}" in captured.err
