"""The README's library quickstart and the estimation demos run as printed."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python block"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quickstart"})
    dphi_hat, sigma = map(float, capsys.readouterr().out.split())
    assert abs(dphi_hat - 0.002) < 5.0 * sigma


@pytest.mark.parametrize("demo", ["03_estimation_vs_crlb.py", "04_iterative_lock.py"])
def test_estimation_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, str(REPO / "demos" / demo)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
