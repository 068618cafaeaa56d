"""The benchmark tracer in benchmarks/ installs on the library in src/ and reports.

Tier-1 does not run benchmarks/test_smoke.py, so a library name that the
tracer binds would otherwise break only traced benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import tracing
from symshift import subshifts as S, words as W

tracer = tracing.Tracer()
tracer.install()
S.entropy(S.SftShift(W.BINARY, ("11",)))
print(json.dumps(tracer.metrics()))
"""


def test_tracer_installs_and_reports():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    metrics = json.loads(result.stdout)
    assert metrics["subshifts.perron_value.calls"] >= 1
    assert metrics["subshifts.automaton_states"] == 2
