"""Per-layer tracing for benchmark samples, from outside the library.

``Tracer.install`` rebinds every public function of each library module
(plus the few private helpers another module calls) to a timing wrapper.
Because the module attribute itself is replaced, both cross-module calls
(``S.member`` from ``extender``) and same-module global calls (``member``
inside ``subshifts``) go through the wrapper.  A span stack turns the
per-call durations into self time; the totals are aggregated in memory per
(layer, function), because ``words.occurrences`` runs millions of times.

Work counters are computed from arguments, results and ``cache_info()``
only; nothing inside the library is changed.  Time that ``exclude`` reports
(the sample's speed probe, which runs from a signal handler in the middle
of any call) is taken out of every span open while it ran.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LIBRARY_LAYERS = ("verify", "words", "subshifts", "extender", "mme", "grid2d")
LAYERS = ("cli",) + LIBRARY_LAYERS

# Private helpers that another module calls: they are layer boundaries too.
CROSS_MODULE_PRIVATE = {"subshifts": ("_landing_states", "_strongly_connected")}

# Shared numerical kernels: counted and timed, but not a span, so their time
# is self time of the calling layer.  perron_value serves the entropy of a
# presentation (subshifts), the Parry models and the S-gap oracle (mme) and
# the strips (grid2d); its cost belongs to the computation that asked for it.
KERNELS = {"subshifts": ("perron_value",)}


def _oracle_words(v, w, max_len, alphabet=None):
    """Words the brute-force oracle sweeps: sum of |A|^L for |v| <= L <= max_len."""
    k = 2 if alphabet is None else len(alphabet.symbols)
    return sum(k**L for L in range(len(v), max_len + 1))


class Tracer:
    """Span stack plus in-memory aggregates for one sample process."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._originals: dict[str, object] = {}
        self._gap_sets: set = set()
        self._excluded = [0.0]  # seconds passed to exclude() so far

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` just spent outside the library out of the open spans."""
        self._excluded[0] += seconds

    def wrap(self, layer: str, name: str, fn, after=None):
        """Timing wrapper for fn; ``after(args, kwargs, result, dt)`` adds counters."""
        stats = self.stats.setdefault((layer, name), [0, 0.0, 0.0])
        stack = self._stack
        excluded = self._excluded
        clock = time.perf_counter

        if name in KERNELS.get(layer, ()):

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                x0, t0 = excluded[0], clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stats[0] += 1
                    stats[1] += clock() - t0 - (excluded[0] - x0)

            return timed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            x0, t0 = excluded[0], clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (excluded[0] - x0)
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        return traced

    def install(self) -> None:
        """Rebind the library's functions to timing wrappers."""
        hooks = self._hooks()
        for layer in LIBRARY_LAYERS:
            mod = importlib.import_module(f"symshift.{layer}")
            names = [
                name
                for name, obj in vars(mod).items()
                if not name.startswith("_")
                and callable(obj)
                and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == mod.__name__
            ]
            names += CROSS_MODULE_PRIVATE.get(layer, ())
            for name in names:
                fn = getattr(mod, name)
                self._originals[f"{layer}.{name}"] = fn
                setattr(mod, name, self.wrap(layer, name, fn, hooks.get(f"{layer}.{name}")))
        subshifts = importlib.import_module("symshift.subshifts")
        aut = subshifts.Automaton
        aut.follower_contains = self.wrap("subshifts", "Automaton.follower_contains", aut.follower_contains)
        group = importlib.import_module("symshift.cli").main
        group.main = self.wrap("cli", "main", group.main)

    def _hooks(self) -> dict:
        c = self.counters
        build = importlib.import_module("symshift.subshifts").build_automaton
        misses = [build.cache_info().misses]
        extender = importlib.import_module("symshift.extender")
        useful = (extender.PROPER_SUBSET, extender.EQUAL)

        def built(args, kwargs, aut, dt):
            now = build.cache_info().misses
            if now != misses[0]:  # a miss: the presentation was built in this call
                misses[0] = now
                c["subshifts.build_automaton.s"] += dt
                c["subshifts.blocks_enumerated"] += len(aut.alphabet.symbols) ** aut.memory
                c["subshifts.automaton_states"] += len(aut.states)

        def oracle(args, kwargs, result, dt):
            c["words.oracle_words"] += _oracle_words(*args, **kwargs)

        def enumerated(args, kwargs, result, dt):
            c["subshifts.enumerate_words.words"] += len(result)

        def compared(args, kwargs, result, dt):
            c["extender.useful"] += result in useful

        def chained(args, kwargs, result, dt):
            self._gap_sets.add(args[0])

        def strip(args, kwargs, model, dt):
            n = len(model.columns)
            c["grid2d.columns"] += n
            c["grid2d.column_pairs"] += n * n

        return {
            "subshifts.build_automaton": built,
            "words.respects_transition_bounded": oracle,
            "subshifts.enumerate_words": enumerated,
            "extender.extender_compare": compared,
            "mme.gap_chain": chained,
            "grid2d.strip_mme": strip,
        }

    def _calls(self, layer: str, name: str) -> int:
        return self.stats.get((layer, name), [0])[0]

    def _total(self, layer: str, name: str) -> float:
        return self.stats.get((layer, name), [0, 0.0])[1]

    def metrics(self) -> dict:
        """Per-layer metric values for this sample, by the names in BENCHMARK.json."""
        c = self.counters
        self_s = {layer: 0.0 for layer in LAYERS}
        for (layer, _name), (_calls, _total, own) in self.stats.items():
            self_s[layer] += own
        busy = sum(self_s.values())

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(key):
            info = self._originals[key].cache_info()
            return ratio(info.hits, info.hits + info.misses)

        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({f"{layer}.share": ratio(self_s[layer], busy) for layer in LAYERS})
        for layer, name in (
            ("words", "occurrences"),
            ("words", "replace_seq"),
            ("subshifts", "perron_value"),
            ("subshifts", "member"),
            ("extender", "extender_compare"),
            ("mme", "sgap_mu"),
            ("mme", "sgap_mu_oracle"),
            ("mme", "gap_chain"),
            ("grid2d", "strip_mme"),
        ):
            out[f"{layer}.{name}.calls"] = self._calls(layer, name)
        for layer, name in (
            ("words", "respects_transition_bounded"),
            ("subshifts", "perron_value"),
            ("mme", "parry"),
            ("mme", "sgap_mu_oracle"),
            ("grid2d", "strip_mme"),
            ("grid2d", "replaceability_windowed"),
        ):
            out[f"{layer}.{name}.s"] = self._total(layer, name)
        for key in (
            "words.oracle_words",
            "subshifts.build_automaton.s",
            "subshifts.blocks_enumerated",
            "subshifts.automaton_states",
            "subshifts.enumerate_words.words",
            "grid2d.columns",
            "grid2d.column_pairs",
        ):
            out[key] = c[key]
        out["verify.checks"] = sum(
            calls for (layer, name), (calls, _t, _s) in self.stats.items()
            if layer == "verify" and name.startswith("check_")
        )
        out["subshifts.build_automaton.hit_ratio"] = hit_ratio("subshifts.build_automaton")
        out["mme.sgap_model.hit_ratio"] = hit_ratio("mme.sgap_model")
        out["extender.useful_ratio"] = ratio(c["extender.useful"], out["extender.extender_compare.calls"])
        out["mme.gap_chain.reuse_ratio"] = ratio(len(self._gap_sets), out["mme.gap_chain.calls"])
        return out

    def table(self) -> list:
        """Per-function rows [layer, function, calls, total_s, self_s], busiest first."""
        rows = [[layer, name, *vals] for (layer, name), vals in self.stats.items() if vals[0]]
        return sorted(rows, key=lambda row: -row[4])
