"""One benchmark sample: a fresh interpreter runs one workload once.

    PYTHONPATH=src python3 benchmarks/sample.py --workload NAME --seed N --trace 0|1 [--smoke] [--setup-only]

``benchmarks/run.py`` starts this once per sample, so the library's lru
caches and the peak resident memory are cold and per sample, as they are
for a command-line user.  The last line of standard output is one JSON
object: the monotonic clock when the sample was ready (imports done and
inputs generated), the wall and CPU time of the workload calls (the CPU
time includes the probe below), the host speed the probe measured, the
peak resident memory, one outcome per op and, when traced, the per-layer
metrics.  An op fails if it raises
any exception or if its answer fails the workload's cross-check; every op
runs whatever the others did.  With ``--setup-only`` the sample stops
when it is ready and prints only its set-up fields.

The workload time is reported in reference seconds as well as in wall
seconds.  A shared host changes speed by up to a quarter within seconds
(neighbours, clock frequency), and CPU time drifts with wall time, so raw
wall times of identical runs spread too widely to compare two commits.  A
SIGALRM timer therefore runs a fixed pure-Python reference every
PROBE_PERIOD_S through the workload calls.  Its speed, PROBE_NOMINAL_S
over the time it took, averaged over the calls, scales their wall time
(less the probes' own time) to the time the host would have taken at
nominal speed.  A slowdown of the host slows the reference alike and
cancels; a change to the library does not touch the reference.  Set-up
is scaled by ``run.py`` instead, with a probe interpreter of its own: the
speed of imports follows the host's only about half as much as this
probe's does.  Traced samples run the probe too, so that their time is in
the same unit; the tracer leaves the probes' time out of every span.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

import symshift  # noqa: E402  (set-up cost of every CLI call: numpy, click)
from symshift import cli, grid2d as G, mme as M, subshifts as S
from symshift import verify as V, words as W
from symshift.errors import SymshiftError

# ---------------------------------------------------------------------------
# Host speed

PROBE_PERIOD_S = 0.1
# The probe's time at nominal speed: a fixed scale, about its median time on
# an idle 2-CPU Xeon, so that a reference second is about a wall second there.
PROBE_NOMINAL_S = 0.004


def reference(n: int = 3000) -> int:
    """Fixed work of the library's kind: short strings, dicts and integers."""
    acc, seen = 0, {}
    for i in range(n):
        s = format(i, "b")
        acc += s.count("1") + len(s.replace("10", "0"))
        key = s[-5:]
        seen[key] = seen.get(key, 0) + 1
    return acc + len(seen)


class SpeedProbe:
    """Runs ``reference`` every PROBE_PERIOD_S and keeps (start, duration)."""

    def __init__(self, on_tick=None):
        self.ticks: list[tuple[float, float]] = []
        self.on_tick = on_tick  # called with each probe's duration

    def tick(self, *_signal) -> None:
        t0 = time.monotonic()
        reference()
        d = time.monotonic() - t0
        self.ticks.append((t0, d))
        if self.on_tick is not None:
            self.on_tick(d)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def window(self, t0: float, t1: float) -> tuple[float, float, int]:
        """Probe seconds spent in [t0, t1), mean speed there, and probe count.

        One more probe runs now, after t1, so that no window is empty.
        """
        inside = [d for start, d in self.ticks if t0 <= start < t1]
        self.tick()
        speeds = [PROBE_NOMINAL_S / d for d in inside + [self.ticks[-1][1]]]
        return sum(inside), sum(speeds) / len(speeds), len(speeds)


# ---------------------------------------------------------------------------
# Workload sizes.  "smoke" shrinks every workload for the harness's own test.

SIZES = {
    "full": {
        "verify_config": None,  # the default `symshift verify run`
        "verify_records": 29,
        "replacement": (3, 7, 76),  # v_maxlen, u_maxlen, respecting pairs
        "extender_maxlen": 7,
        # (main-inequality pairs, equality pairs) per extender spec
        "extender_pairs": ((4327, 2058), (4327, 2058), (3569, 809)),
        "zoo_sft_memories": (1, 1, 3, 4, 5, 6, 7, 8, 9, 10),
        "zoo_sgap_finite": (3, 5, 7),
        "zoo_sgap_cofinite": (3, 5, 7),
        "zoo_strip_widths": [4, 6, 8, 10],
    },
    "smoke": {
        "verify_config": {
            "maxlen_pairs": 3,
            "maxlen_value": 3,
            "limit_n": 50,
            "limit_exact_n": 10,
            "synch_maxgap": 10,
            "hereditary_nmax": 3,
            "replacement_u_maxlen": 4,
            "strip_widths": [4],
        },
        "verify_records": 29,
        "replacement": (2, 4, 16),
        "extender_maxlen": 3,
        "extender_pairs": ((60, 28), (60, 28), (40, 13)),
        "zoo_sft_memories": (1, 3),
        "zoo_sgap_finite": (3,),
        "zoo_sgap_cofinite": (3,),
        "zoo_strip_widths": [4],
    },
}

EXTENDER_SPECS = (
    S.SftShift(W.BINARY, ("11",)),  # golden mean
    S.SGapShift(S.SGapSet((0, 1))),  # the same shift with 0 and 1 swapped
    S.SftShift(W.BINARY, ("111", "1001")),  # 7 states, memory 3
)

# The memory-1 binary SFTs fall in two symmetry classes, drawn as two strata
# so that every seed carries the same work: forbidding 00 or 11 gives the
# golden mean; forbidding 01 or 10 gives a reducible, zero-entropy shift.
MEMORY_ONE_CLASSES = (("00", "11"), ("01", "10"))


def forbidden_word(rng: random.Random, n: int) -> str:
    """A random binary word of length n that contains 11.

    A shift whose forbidden words all contain 11 contains the golden mean
    shift, so its entropy is at least log((1 + 5 ** 0.5) / 2).  Free draws
    at memory 3 give a zero-entropy shift for about one seed in twenty,
    which costs seconds in ``perron_value``; the zero-entropy case has its
    own stratum instead, so that its cost and its failure come once per
    sample on every seed.
    """
    word = [rng.choice("01") for _ in range(n)]
    i = rng.randrange(n - 1)
    word[i] = word[i + 1] = "1"
    return "".join(word)


# ---------------------------------------------------------------------------
# Ops


class Outcomes:
    """Per-op results, with exceptions counted by class."""

    def __init__(self):
        self.ops: list[dict] = []

    def attempt(self, name: str, fn, count_on_error: int = 1) -> None:
        """Run fn; it returns a list of (op name, ok) pairs, or one bool."""
        try:
            result = fn()
        except Exception as exc:  # one op never aborts the workload
            error = type(exc).__name__
            typed = isinstance(exc, SymshiftError)
            print(f"op {name}: {error}: {exc}", file=sys.stderr)
            for k in range(count_on_error):
                self.ops.append({"op": f"{name}#{k}", "ok": False, "error": error, "typed": typed})
            return
        pairs = [(name, result)] if isinstance(result, bool) else result
        for op, ok in pairs:
            if not ok:
                print(f"op {op}: wrong answer", file=sys.stderr)
            self.ops.append({"op": op, "ok": bool(ok), "error": None, "typed": False})


def verify_suite(seed: int, size: dict):
    """`symshift verify run --out ... --csv ...` through the CLI entry point."""
    out = OUT / "verify-suite"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    report_path, csv_dir = out / "report.json", out / "csv"
    argv = ["verify", "run", "--out", str(report_path), "--csv", str(csv_dir)]
    if size["verify_config"] is not None:
        config = out / "config.json"
        config.write_text(json.dumps(size["verify_config"]))
        argv += ["--config", str(config)]
    expected = size["verify_records"]

    def run():
        echoed = io.StringIO()
        with contextlib.redirect_stdout(echoed):
            try:
                cli.main.main(argv, prog_name="symshift", standalone_mode=False)
            except SystemExit as exc:  # `verify run` exits 1 when a check fails
                if exc.code not in (0, 1, None):
                    raise
        summary = json.loads(echoed.getvalue())
        report = json.loads(report_path.read_text())
        outcomes = [(c["name"], c["status"] in ("pass", "skipped")) for c in report["checks"]]
        statuses = [c["status"] for c in report["checks"]]
        consistent = (
            len(outcomes) == expected
            and summary["passed"] == report["passed"]
            and summary["checks"] == {s: statuses.count(s) for s in summary["checks"]}
            and any(csv_dir.glob("*.csv"))
        )
        return outcomes + [("report consistent", consistent)]

    return [("verify run", run, expected + 1)]


def replacement_sweep(seed: int, size: dict):
    """The public lemma check: decider vs oracle, then the subset sweep."""
    v_maxlen, u_maxlen, respecting = size["replacement"]

    def run():
        rec = V.check_replacement_lemmas(W.BINARY, v_maxlen, u_maxlen)
        return (
            rec.status == "pass"
            and rec.residuals["decider vs oracle disagreements"] == 0
            and rec.residuals["lemma violations"] == 0
            and rec.params["respecting pairs"] == respecting
        )

    return [("replacement-lemmas", run, 1)]


def extender_pairs(seed: int, size: dict):
    """All-pairs main inequality and equality corollary on three specs."""
    maxlen = size["extender_maxlen"]
    ops = []
    for spec, (n_ineq, n_eq) in zip(EXTENDER_SPECS, size["extender_pairs"]):
        name = S.describe(spec)

        def ineq(spec=spec, n=n_ineq):
            rec = V.check_main_inequality(spec, maxlen, 1e-12)
            return rec.status == "pass" and rec.params["pairs"] == n

        def eq(spec=spec, n=n_eq):
            rec = V.check_equality_corollary(spec, maxlen, 1e-9)
            return rec.status == "pass" and rec.params["pairs"] == n

        ops += [(f"main-inequality[{name}]", ineq, 1), (f"equality-corollary[{name}]", eq, 1)]
    return ops


def zoo_specs(seed: int, size: dict) -> list:
    """Cold specs drawn from the seed, one per stratum (kind x presentation memory).

    The strata are fixed, so the total work barely depends on the seed; the
    seed only picks the words and gap sets inside each stratum.
    """
    specs = []
    one_classes = iter(MEMORY_ONE_CLASSES)
    for k, m in enumerate(size["zoo_sft_memories"]):
        rng = random.Random(f"{seed}:sft:{k}")
        if m == 1:
            forbidden = (rng.choice(next(one_classes)),)
        else:
            # 1-4 words; the longest has length m+1 and fixes the memory.  No
            # word is shorter than m-1, so nearly all 2^m blocks stay states
            # and the presentation's size (time and memory) is fixed by m.
            shortest = max(4, m - 1)
            lengths = [m + 1] + [rng.randint(shortest, m + 1) for _ in range(rng.randint(0, 3))]
            forbidden = tuple(sorted({forbidden_word(rng, n) for n in lengths}))
        specs.append(S.SftShift(W.BINARY, forbidden))
    for k, top in enumerate(size["zoo_sgap_finite"]):
        rng = random.Random(f"{seed}:sgap-finite:{k}")
        rest = sorted(rng.sample(range(top), (top + 1) // 2))
        specs.append(S.SGapShift(S.SGapSet(tuple(rest) + (top,))))
    for k, start in enumerate(size["zoo_sgap_cofinite"]):
        rng = random.Random(f"{seed}:sgap-cofinite:{k}")
        extra = sorted(rng.sample(range(start - 1), (start - 1) // 2))
        specs.append(S.SGapShift(S.SGapSet(tuple(extra), start)))
    return specs


def spec_pipeline(spec) -> bool:
    """Presentation, entropy, counting, enumeration, membership and measures."""
    aut = S.build_automaton(spec)
    h = S.entropy(spec)
    c120, c121 = S.count_words(spec, 120), S.count_words(spec, 121)
    # |L_n| never shrinks with n, and h = inf log|L_n| / n (Fekete)
    ok = c120 <= c121 and math.log(c120) / 120 >= h - 1e-9
    lang = S.enumerate_words(spec, 10)
    ok = ok and len(lang) == S.count_words(spec, 10)
    ok = ok and all(S.member(spec, u) for u in lang)
    if aut.irreducible and h > 1e-12:
        model = M.parry(spec)
        ok = ok and abs(sum(M.mu_parry(model, u) for u in lang) - 1.0) < 1e-9
    if isinstance(spec, S.SGapShift):
        for u in W.BINARY.words(7):
            value, _cert = M.sgap_mu(spec.gaps, u)
            ok = ok and abs(value - M.sgap_mu_oracle(spec.gaps, u)) < 1e-9
    return ok


def spec_zoo(seed: int, size: dict):
    """Seeded cold specs through the whole 1D pipeline, plus one plane check."""
    ops = [(S.describe(spec), lambda spec=spec: spec_pipeline(spec), 1) for spec in zoo_specs(seed, size)]
    widths = size["zoo_strip_widths"]

    def plane():
        one, zero = G.Pattern2D((((0, 0), "1"),)), G.Pattern2D((((0, 0), "0"),))
        rec = G.check_gtheorem(G.hard_square(), one, zero, widths, 1e-12)
        return rec["status"] == "pass" and [row[0] for row in rec["series"]["strip"]] == widths

    return ops + [("gtheorem-strips[hard square]", plane, 1)]


WORKLOADS = {
    "verify-suite": verify_suite,
    "replacement-sweep": replacement_sweep,
    "extender-pairs": extender_pairs,
    "spec-zoo": spec_zoo,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness's own test")
    parser.add_argument("--setup-only", action="store_true", help="stop when ready: one more set-up time")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(symshift.__file__).resolve().parents:
        print(f"symshift was imported from {symshift.__file__}, not from {src}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](args.seed, SIZES["smoke" if args.smoke else "full"])
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    probe = SpeedProbe(None if tracer is None else tracer.exclude)
    probe.start()
    outcomes = Outcomes()
    t0, c0 = time.monotonic(), time.process_time()
    for name, fn, count_on_error in ops:
        outcomes.attempt(name, fn, count_on_error)
    t1, cpu = time.monotonic(), time.process_time() - c0
    probe.stop()
    probe_s, speed, probes = probe.window(t0, t1)
    wall_raw = t1 - t0 - probe_s

    result = {
        "ready": ready,
        "wall_raw_s": wall_raw,
        "wall_s": wall_raw * speed,
        "speed": speed,
        "probes": probes,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": outcomes.ops,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["functions"] = tracer.table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
