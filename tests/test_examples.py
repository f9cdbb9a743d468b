"""The demo scripts and the README's python examples run to exit 0.

Each runs in a fresh interpreter on the package the suite imported (the
source tree, or an installed copy), where a numerical warning
(RuntimeWarning) is an error, as it is in the test suite.  The
README's python blocks are joined in order into one script.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import afd

ROOT = Path(__file__).resolve().parents[1]


def _run(script, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(afd.__file__)))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    _run(demo, tmp_path)


def test_readme_examples_run(tmp_path):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    script = tmp_path / "readme_examples.py"
    script.write_text("".join(blocks))
    _run(script, tmp_path)
