"""The README's library quick start runs as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env, cwd=REPO,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")
    assert abs(float(lines[0]) - np.sqrt(2.0 / 5.0)) < 1e-12
    product, residual = (float(v) for v in lines[2].split())
    assert residual < 1e-12
    assert abs(product - 1.0) < 1e-12
