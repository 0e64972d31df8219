"""README names each experiment script that exists, and only those, with
options each script's --help lists, and its CLI and library examples run."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from fedwatch import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def script_block() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("Experiment scripts:\n\n```\n", 1)[1].split("```", 1)[0]


def test_readme_script_block_lists_every_script_and_no_other():
    readme = (ROOT / "README.md").read_text()
    in_block = set(re.findall(r"scripts/(\w+\.py)", script_block()))
    on_disk = {p.name for p in (ROOT / "scripts").glob("*.py")}
    assert in_block == on_disk
    assert set(re.findall(r"scripts/(\w+\.py)", readme)) <= on_disk


@pytest.mark.parametrize("line", [
    line for line in script_block().splitlines() if "golden_hashes.py" not in line
], ids=lambda line: re.search(r"scripts/(\w+\.py)", line).group(1))
def test_every_option_the_script_block_names_is_in_the_scripts_help(line):
    script = re.search(r"scripts/\w+\.py", line).group(0)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    help_text = subprocess.run([sys.executable, script, "--help"], cwd=ROOT, env=env,
                               capture_output=True, text=True, check=True).stdout
    options = set(re.findall(r"--[a-z][\w-]*", line))
    assert options and options <= set(re.findall(r"--[a-z][\w-]*", help_text))


def test_readme_cli_block_commands_exit_zero(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    # join continuation lines and drop the optional [...] parts
    lines = re.sub(r"\[[^]]*\]", "", block.replace("\\\n", " ")).splitlines()
    commands = [line.split() for line in lines if line.strip()]
    assert commands and all(c[0] == "fedwatch" for c in commands)
    monkeypatch.chdir(ROOT)  # the examples name configs/ from the repository root
    for i, argv in enumerate(commands):
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / f"out{i}")
        assert cli.main(argv[1:]) == 0, " ".join(argv)
    assert "error:" not in capsys.readouterr().err


def test_readme_library_block_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md: Library use", "exec"), {})
    assert capsys.readouterr().out.strip()
