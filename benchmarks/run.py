"""symshift benchmark: run one workload for about --seconds and print one JSON result line.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere; it uses the library under ``src/`` of the checkout
that holds this file and writes only under ``.bench_out/`` there.  Samples
run one after another (a closed loop with one client), each in a fresh
interpreter (``benchmarks/sample.py``) with BLAS pinned to one thread.  The
number of samples is fixed by the workload and ``--seconds`` (SAMPLE_S is a
sample's usual cost), so that a seed always gives the same ops; at least
one always runs.

With ``--trace 0`` the result holds the end-to-end metrics:

    wall_s       median time of one sample's workload calls, in reference
                 seconds (wall time scaled to nominal host speed; see
                 sample.py)
    setup_s      median time from starting the interpreter to ready
                 (``import symshift`` plus generating the inputs), over
                 the samples and EXTRA_SETUPS set-up-only interpreters, in
                 reference seconds (scaled by the set-up probe SETUP_PROBE)
    peak_rss_mb  median peak resident memory of a sample process
    ok_frac      ops that returned a checked answer, over ops attempted

With ``--trace 1`` untraced and traced samples alternate, and the result
holds the per-layer metrics of ``benchmarks/tracing.py`` (medians over the
traced samples, in wall seconds) plus ``trace.overhead_s`` (traced minus
untraced ``wall_s``) and the op exceptions by kind.
Every sample, the per-function table and the environment are written to
``.bench_out/<workload>-seed<N>-trace<T>.json``.  ``--workload all`` runs
the four workloads one after another, each for ``--seconds``, and ends with
one JSON line that maps each workload to its result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKLOADS = ("verify-suite", "replacement-sweep", "extender-pairs", "spec-zoo")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# Usual wall seconds of one untraced sample, set-up included, on a 2-CPU
# Xeon; run_samples derives a run's fixed sample count from it.  A traced
# sample costs about TRACED_COST untraced ones.
SAMPLE_S = {"verify-suite": 5.2, "replacement-sweep": 4.3, "extender-pairs": 2.6, "spec-zoo": 6.0}
TRACED_COST = 1.5
EXTRA_SETUPS = 8
SETUP_S = 0.55  # wall seconds of one set-up-only interpreter and its probe
# The set-up probe: a fresh isolated interpreter importing a fixed set of
# standard-library modules, about SETUP_PROBE_NOMINAL_S on an idle 2-CPU
# Xeon.  Started right before each sample, it slows and speeds up with the
# host as the sample's own imports do, which the in-process probe does not.
# Like a sample, it prints the monotonic clock when it is ready: the parent's
# wait with a timeout polls in steps of up to 50 ms, too coarse to time it.
SETUP_PROBE = (
    "import argparse, decimal, email.parser, http.client, json, logging, unittest, xml.dom.minidom, zipfile\n"
    "import time; print(time.monotonic())"
)
SETUP_PROBE_NOMINAL_S = 0.12


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def sample_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_sample(args, workload: str, traced: bool, deadline: float, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "sample.py"),
        "--workload", workload, "--seed", str(args.seed), "--trace", str(int(traced)),
    ] + (["--smoke"] if args.smoke else []) + (["--setup-only"] if setup_only else [])
    probe_start = time.monotonic()
    try:
        probe = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE], stdout=subprocess.PIPE, text=True, check=True, timeout=60,
        )
        start = time.monotonic()
        proc = subprocess.run(
            cmd, env=sample_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"sample or set-up probe did not finish within {exc.timeout:.0f} s") from exc
    except subprocess.CalledProcessError as exc:
        raise HarnessError(f"set-up probe exited with code {exc.returncode}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"sample exited with code {proc.returncode}")
    sample = json.loads(lines[-1])
    sample["setup_raw_s"] = sample.pop("ready") - start
    sample["setup_probe_s"] = float(probe.stdout) - probe_start
    sample["setup_s"] = sample["setup_raw_s"] * SETUP_PROBE_NOMINAL_S / sample["setup_probe_s"]
    sample["traced"] = traced
    sample["setup_only"] = setup_only
    return sample


def run_samples(args, workload: str) -> tuple[list, list]:
    """A fixed number of samples that fills about --seconds, and extra set-ups.

    Traced samples alternate with untraced ones, three of each at least.
    Untraced runs also start EXTRA_SETUPS interpreters that stop when
    ready, so that the median set-up time rests on more set-ups than
    samples.
    """
    hard_deadline = time.monotonic() + RUN_LIMIT_S
    cycle = (False, True) if args.trace else (False,)
    cost = SAMPLE_S[workload] * (1 + TRACED_COST if args.trace else 1)
    extra = 0 if args.trace or args.smoke else EXTRA_SETUPS
    budget = args.seconds - extra * SETUP_S
    rounds = 1 if args.smoke else max(3 if args.trace else 1, round(budget / cost))
    samples = [run_sample(args, workload, traced, hard_deadline) for _ in range(rounds) for traced in cycle]
    setups = [run_sample(args, workload, False, hard_deadline, setup_only=True) for _ in range(extra)]
    return samples, setups


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def median_of(samples, key) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(samples, setups) -> dict:
    ops = [op for s in samples for op in s["ops"]]
    return {
        "wall_s": median_of(samples, "wall_s"),
        "setup_s": median_of(samples + setups, "setup_s"),
        "peak_rss_mb": median_of(samples, "peak_rss_mb"),
        "ok_frac": sum(op["ok"] for op in ops) / len(ops),
    }


def per_layer(samples) -> dict:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    values = {
        name: statistics.median_low(s["layers"][name] for s in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    ops = [op for s in traced for op in s["ops"]]
    for kind, typed in (("typed", True), ("untyped", False)):
        count = sum(1 for op in ops if op["error"] and op["typed"] == typed)
        values[f"errors.{kind}"] = count / len(traced)
    return values


def run_workload(args, workload: str, declared: list) -> dict:
    """Measure one workload, print its metrics by name, write its run file."""
    samples, setups = run_samples(args, workload)
    values = per_layer(samples) if args.trace else end_to_end(samples, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    ops = [op for s in samples for op in s["ops"]]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": workload,
        "seed": args.seed,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": samples[0]["numpy"],
            "cpu": cpu_model(),
        },
        "metrics": metrics,
        "errors_by_class": Counter(op["error"] for op in ops if op["error"]),
        "samples": samples + setups,
    }, indent=1))

    n = sum(1 for s in samples if not s["traced"])
    print(f"{workload} seed {args.seed}: {len(samples)} samples ({n} untraced)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    return {
        "correct": all(op["ok"] for op in ops if op["error"] is None),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness's own test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symshift" / "__init__.py").is_file():
        print(f"no symshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads(SPEC_FILE.read_text())["per_layer" if args.trace else "end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(args, w, declared) for w in workloads}
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
