"""Every demo under ``demos/`` runs to completion against the package in
``src/``: one subprocess per script, exit code 0.  The README's ``python``
code blocks and the package doctest run too, so a public name removed from
the package but left in the docs fails here."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hyperorient

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def readme_python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_block_runs():
    blocks = readme_python_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_package_doctest_passes():
    failed, attempted = doctest.testmod(hyperorient)
    assert attempted and not failed
