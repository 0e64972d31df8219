"""README names each experiment script that exists, and only those, and
its CLI and library examples run."""

import pathlib
import re

from fedwatch import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_script_block_lists_every_script_and_no_other():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("Experiment scripts:\n\n```\n", 1)[1].split("```", 1)[0]
    in_block = set(re.findall(r"scripts/(\w+\.py)", block))
    on_disk = {p.name for p in (ROOT / "scripts").glob("*.py")}
    assert in_block == on_disk
    assert set(re.findall(r"scripts/(\w+\.py)", readme)) <= on_disk


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
