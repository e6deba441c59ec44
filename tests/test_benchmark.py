"""The benchmark's traced runs still find the package functions they wrap.

``perfbench/tracing.py`` replaces functions by name and reads the
``(value, count)`` results of the two finite games, so a renamed function
or a changed result shape would break every traced run, and a function
called through a name the tracer does not wrap would count nothing.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "workload, count",
    [
        ("chain-games", "games.agent_sweeps"),
        ("parity-games", "parity.arena_nodes"),
        ("ltlf-synth", "compiler.calls"),
        ("fond-plan", "domain.validate_calls"),
    ],
)
def test_traced_fast_run(workload, count):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--fast", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"][count]["value"] > 0
