"""The README's library quick start runs as documented, and its config is
the one the CI steps and the benchmark run."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from hardydual.cli import parse_config

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


def test_readme_config_is_the_committed_config():
    # CI's byte-identity steps and the benchmark run perfbench/readme_config.json
    # as "the README config": the README's JSON block must be that file
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    committed = (REPO / "perfbench" / "readme_config.json").read_text(encoding="utf-8")
    assert blocks[0] == committed
    parse_config(json.loads(blocks[0]))  # raises ConfigError on a bad config
