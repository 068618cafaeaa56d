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
from symshift import subshifts as S, verify as V, words as W

tracer = tracing.Tracer()
tracer.install()
golden = S.SftShift(W.BINARY, ("11",))
S.entropy(golden)
# the level walk and both counting DPs run under the wrappers too
assert V.check_main_inequality(golden, 3, 1e-12).status == "pass"
assert V.check_limit(S.SGapSet((0, 1)), 40, 10, 1e-3, 1e-9).status == "pass"
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
    assert metrics["subshifts.automaton_states"] == 2 + 2  # golden mean, S = {0,1}
    assert metrics["verify.checks"] == 2
