"""The benchmark's gated workloads still produce their recorded outputs.

Each run is one short untraced `perfbench/run.py` run at seed 1; it must
exit 0 and print a passing `matches_reference` check, so a comparison
that is skipped fails the test as one that finds a value below the
reference does.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["desk_limit", "desk_replicates"])
def test_gated_outputs_match_reference(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    assert any(line.startswith("check matches_reference PASS") for line in out.stdout.splitlines()), out.stdout
