"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q benchmarks/test_smoke.py

Runs every workload once untraced and once traced with ``--smoke`` and
checks the result line against BENCHMARK.json; then checks that the
benchmark refuses to run in a checkout without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def load_sample():
    paths = [str(HERE), str(ROOT / "src")]
    sys.path[:0] = paths
    try:
        import sample
    finally:
        del sys.path[: len(paths)]
    return sample


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_has_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert result["metrics"]["ok_frac"]["value"] > 0
        run = json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace0.json").read_text())
        timed = [s for s in run["samples"] if not s["setup_only"]]
        assert timed and all(s["probes"] >= 1 and s["speed"] > 0 for s in timed)


def test_all_workloads_in_one_command():
    proc = bench(ROOT, "all", 0)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(WORKLOADS)
    for result in results.values():
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_spec_zoo_inputs_follow_the_seed():
    sample = load_sample()
    size = sample.SIZES["full"]
    same = [sample.S.describe(s) for s in sample.zoo_specs(5, size)]
    assert same == [sample.S.describe(s) for s in sample.zoo_specs(5, size)]
    assert same != [sample.S.describe(s) for s in sample.zoo_specs(6, size)]


def test_random_sfts_contain_the_golden_mean():
    sample = load_sample()
    size = sample.SIZES["full"]
    for seed in range(20):
        specs = sample.zoo_specs(seed, size)[: len(size["zoo_sft_memories"])]
        for spec, m in zip(specs, size["zoo_sft_memories"]):
            if m > 1:
                assert all("11" in word for word in spec.forbidden), spec


def test_refuses_to_run_without_library_sources():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
