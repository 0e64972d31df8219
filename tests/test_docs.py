"""README names each experiment script that exists, and only those."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_script_block_lists_every_script_and_no_other():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("Experiment scripts:\n\n```\n", 1)[1].split("```", 1)[0]
    in_block = set(re.findall(r"scripts/(\w+\.py)", block))
    on_disk = {p.name for p in (ROOT / "scripts").glob("*.py")}
    assert in_block == on_disk
    assert set(re.findall(r"scripts/(\w+\.py)", readme)) <= on_disk
