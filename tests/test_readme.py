"""The README's library quick start runs as documented, its config is the
one the CI steps and the benchmark run, and its CLI usage line names the
options the command takes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from hardydual.cli import main, parse_config

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


def test_readme_usage_line_names_the_run_options():
    # the options are read from the run parser's help, so a removed flag
    # cannot stay documented, nor a new one go undocumented
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    usage = re.search(r"^## CLI\n\n```\n(hardydual run .*?)^```", readme, flags=re.S | re.M)
    assert usage is not None
    help_text = io.StringIO()
    with contextlib.redirect_stdout(help_text), contextlib.suppress(SystemExit):
        main(["run", "--help"])
    options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", help_text.getvalue())) - {"--help"}
    assert options
    assert set(re.findall(r"--[a-z][a-z-]*", usage.group(1))) == options
