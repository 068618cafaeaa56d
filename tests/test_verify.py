import collections
import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
import types
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symshift import extender as E
from symshift import grid2d as G
from symshift import lemma_sweep as LS
from symshift import mme as M
from symshift import subshifts as S
from symshift import verify as V
from symshift import words as W
from symshift.errors import (
    NumericalError,
    ReplacementBrokenError,
    ResourceLimitError,
    SpecFormatError,
)
from test_presentation import landing_states

GOLDEN = S.SftShift(W.BINARY, ("11",))

SMALL_CONFIG = {
    "maxlen_pairs": 4,
    "maxlen_value": 5,
    "limit_n": 60,
    "limit_exact_n": 20,
    "synch_maxgap": 25,
    "synch_words": ["0"],
    "hereditary_nmax": 4,
    "replacement_v_maxlen": 2,
    "replacement_u_maxlen": 6,
    "strip_widths": [4],
    "sgap_specs": [
        {"type": "sgap", "finite": [0, 1]},
        {"type": "sgap", "finite": [1]},
    ],
    "pair_specs": [{"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]}],
    "hereditary_specs": [{"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]}],
}


@pytest.fixture
def cold_caches():
    """Empty landing-class and presentation caches before and after the test,
    so that a table or a spectral record (``Automaton.perron``) built under a
    patched measure, Perron kernel or block size is neither read nor left
    behind."""
    caches = (V._landing_classes, S.build_automaton)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


class TestIndividualChecks:
    def test_main_inequality_golden(self):
        rec = V.check_main_inequality(GOLDEN, 4, 1e-12)
        assert rec.status == "pass"
        assert rec.params["pairs"] > 0
        assert rec.params["states"] == 2

    def test_zero_entropy_skipped(self):
        spec = S.SGapShift(S.SGapSet((1,)))
        rec = V.check_main_inequality(spec, 3, 1e-12)
        assert rec.status == "skipped"
        assert "entropy" in rec.reason

    def test_equality_corollary_includes_known_pair(self):
        rec = V.check_equality_corollary(GOLDEN, 3, 1e-12)
        assert rec.status == "pass"

    def test_entropy_root(self):
        rec = V.check_entropy_root(S.SGapSet((0, 1)), 1e-12, 1e-10)
        assert rec.status == "pass"

    @pytest.mark.parametrize("eps, status", [(0.0, "pass"), (1e-9, "fail")])
    def test_entropy_root_sees_a_scaled_lambda(self, monkeypatch, cold_caches, eps, status):
        # negative control: the graph side's lambda off by a factor 1 + eps
        perron_value = S.perron_value

        def scaled(A):
            lam, x = perron_value(A)
            return lam * (1.0 + eps), x

        monkeypatch.setattr(S, "perron_value", scaled)
        for gaps in [S.SGapSet((0, 1)), S.SGapSet((1, 3)), S.SGapSet((), 1), S.SGapSet((0, 40))]:
            rec = V.check_entropy_root(gaps, 1e-12, 1e-10)
            assert rec.status == status
            assert rec.residuals["root equation"] <= 1e-12
            assert (rec.residuals["log-lambda vs graph entropy"] > 1e-10) == bool(eps)

    @pytest.mark.parametrize("p, status", [(0.3, "fail"), (0.382, "fail"), ((3 - math.sqrt(5)) / 2, "pass")])
    def test_extender_checks_see_a_planted_measure(self, monkeypatch, cold_caches, p, status):
        # negative control: the golden mean under the Markov measure with
        # P(0 -> 1) = p, which is its Parry measure only at p = 1/phi^2
        model = M.ParryModel(
            stationary=np.array([1.0, p]) / (1.0 + p),
            steps={"0": {0: (0, 1.0 - p), 1: (0, 1.0)}, "1": {0: (1, p)}},
        )
        monkeypatch.setattr(M, "parry", lambda spec: model)
        for check, tol in [(V.check_main_inequality, 1e-12), (V.check_equality_corollary, 1e-9)]:
            assert check(GOLDEN, 6, tol).status == status

    def test_entropy_root_degenerate(self):
        rec = V.check_entropy_root(S.SGapSet((0,)), 1e-12, 1e-10)
        assert rec.status == "pass"

    def test_limit_mixing_gate(self):
        rec = V.check_limit(S.SGapSet((1,)), 40, 10, 1e-3, 1e-9)
        assert rec.status == "skipped"
        assert "gcd" in rec.reason

    def test_limit_with_series(self):
        rec = V.check_limit(S.SGapSet((0, 1)), 80, 20, 1e-3, 1e-9)
        assert rec.status == "pass"
        rows = rec.series["growth"]["rows"]
        assert rows[0][:2] == [1, 2]
        assert len(rows) == 20

    @pytest.mark.parametrize("doc", V.DEFAULT_CONFIG["sgap_specs"], ids=json.dumps)
    def test_limit_series_is_the_per_n_counts(self, doc):
        # both DPs run once; each row must still be what a per-n count gives
        gaps = V._gaps(doc)
        rec = V.check_limit(gaps, 200, 300, 1e-3, 1e-9)
        if gaps.gcd_shifted() != 1:
            assert rec.status == "skipped"
            return
        spec, lam = S.SGapShift(gaps), S.sgap_lambda(gaps)
        rows = rec.series["growth"]["rows"]
        assert [row[0] for row in rows] == list(range(1, 301))
        scaled_counts = list(itertools.islice(S._scaled_counts(spec, lam), 301))
        for n, exact, scaled in rows:
            assert exact == S.count_words(spec, n)
            assert scaled.hex() == scaled_counts[n].hex()
        a_prev, a_N = scaled_counts[199:201]
        assert rec.residuals["|a_N - a_{N-1}|"] == abs(a_N - a_prev)

    def test_value_theorem(self):
        rec = V.check_value_theorem(S.SGapSet((1, 3)), 5, 1e-9)
        assert rec.status == "pass"
        assert rec.params["certificates integral"]

    def test_synch_formula_bad_word(self):
        rec = V.check_synch_formula(S.SGapSet((1,)), "11", 10, 1e-6)
        assert rec.status == "error"

    def test_synch_formula_monotone_series(self):
        rec = V.check_synch_formula(S.SGapSet((0, 1)), "0", 25, 1e-4)
        assert rec.status == "pass"
        sums = [row[1] for row in rec.series["truncation"]["rows"]]
        assert all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))

    def test_synch_formula_nan_model_fails_monotonicity(self, monkeypatch):
        # a NaN mu1 makes every ring NaN, and the bound's residual NaN: both
        # the monotonicity check and the bound fail
        gaps = S.SGapSet((0, 1))
        real = M.sgap_model(gaps)
        broken = types.SimpleNamespace(mu1=math.nan, t=real.t, certificate=real.certificate)
        monkeypatch.setattr(M, "sgap_model", lambda g: broken)
        rec = V.check_synch_formula(gaps, "0", 25, 1e-4)
        assert rec.status == "fail"
        assert rec.witnesses[0] == {"monotonicity": "violated"}
        assert [sorted(w) for w in rec.witnesses[1:]] == [["T", "mu"]]
        assert math.isnan(rec.residuals["|T(maxgap) - mu(u)|"])

    def test_hereditary(self):
        rec = V.check_hereditary_entropy(GOLDEN, 5, 1e-9)
        assert rec.status == "pass"
        assert rec.params["specification_distance"] == 1

    @pytest.mark.parametrize("low, high", [("a", "b"), ("x0", "x1")])
    def test_hereditary_other_alphabets(self, low, high):
        # the golden mean relabelled: the first symbol plays 0
        alphabet = W.Alphabet((low, high))
        bad = high + high if alphabet.single_char else (high, high)
        rec = V.check_hereditary_entropy(S.SftShift(alphabet, (bad,)), 5, 1e-9)
        golden = V.check_hereditary_entropy(GOLDEN, 5, 1e-9)
        assert rec.status == "pass"
        expected = dict(golden.residuals)
        expected[f"mu({high}) - mu({low})"] = expected.pop("mu(1) - mu(0)")
        assert rec.residuals == pytest.approx(expected, abs=1e-15)

    def test_hereditary_gate(self):
        spec = S.SGapShift(S.SGapSet((1,)))
        rec = V.check_hereditary_entropy(spec, 3, 1e-9)
        assert rec.status == "skipped"

    def test_hereditary_forbidden_zero_power_skipped(self):
        # 0^8 is forbidden but the insertion sweep stops at length 6; the
        # ratio at n = 7 would divide by mu(0^8) = 0
        spec = S.SftShift(W.BINARY, ("00000000",))
        assert S.is_i_hereditary_bounded(spec, 6)
        rec = V.check_hereditary_entropy(spec, 8, 1e-9)
        assert rec.status == "skipped"
        assert V.check_hereditary_entropy(spec, 6, 1e-9).status != "skipped"

    def test_hereditary_underflow_is_a_numerical_error(self):
        # mu(0^1473) is subnormal: the ratios after it lost their digits and
        # used to give a false fail, with witness n = 1505
        with pytest.raises(NumericalError, match="at n = 1472"):
            V.check_hereditary_entropy(GOLDEN, 1560, 1e-9)

    def test_replacement_lemmas_small(self):
        rec = V.check_replacement_lemmas(W.BINARY, 2, 6)
        assert rec.status == "pass"
        assert rec.residuals["decider vs oracle disagreements"] == 0

    def test_replacement_lemmas_leave_numpy_ma_unimported(self):
        # numpy.ma costs about 15 ms to import (np.unique loads it on first
        # call), so a fresh interpreter running the check must not load it
        script = (
            "import sys\n"
            "from symshift import verify as V, words as W\n"
            "assert V.check_replacement_lemmas(W.BINARY, 2, 4).status == 'pass'\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


SGAP_01 = S.SGapShift(S.SGapSet((0, 1)))
SFT_7 = S.SftShift(W.BINARY, ("111", "1001"))
def _reference_synch(gaps, u, maxgap):
    """The synchronized-formula table as one membership test per cell
    1 0^a u 0^b 1, in the (a, b) order of the check: (rows, T(maxgap))."""
    spec = S.SGapShift(gaps)
    model = M.sgap_model(gaps)
    ring = [0.0] * (maxgap + 1)
    for a in range(maxgap + 1):
        for b in range(maxgap + 1):
            if S.member(spec, "1" + "0" * a + u + "0" * b + "1"):
                ring[max(a, b)] += model.mu1 * model.t ** (a + b + len(u) + 1)
    partial = list(itertools.accumulate(ring))
    return [[g, total] for g, total in enumerate(partial)], partial[-1]


SYNCH_GAP_SETS = [
    S.SGapSet((0, 1)),
    S.SGapSet((1, 3)),
    S.SGapSet((0, 2, 3)),
    S.SGapSet((), 1),
    S.SGapSet((2,), 5),
    S.SGapSet((), 0),
]


class TestSynchTable:
    @pytest.mark.parametrize("gaps", SYNCH_GAP_SETS, ids=lambda g: g.describe())
    @pytest.mark.parametrize("u", ["", "0", "1", "01", "0110"], ids=repr)
    @pytest.mark.parametrize("maxgap", [0, 1, 25])
    def test_matches_per_cell_membership(self, gaps, u, maxgap):
        rec = V.check_synch_formula(gaps, u, maxgap, 1e-6)
        if not S.member(S.SGapShift(gaps), u):
            assert rec.status == "error" and not rec.series
            return
        rows, total = _reference_synch(gaps, u, maxgap)
        got = rec.series["truncation"]["rows"]
        assert [[g, x.hex()] for g, x in got] == [[g, x.hex()] for g, x in rows]
        target, _ = M.sgap_mu(gaps, u)
        assert rec.residuals["|T(maxgap) - mu(u)|"].hex() == abs(total - target).hex()

    def test_guard_bounds_the_table(self):
        # 162^2 cells are under the budget; 162^3 used to be compared with it
        gaps = S.SGapSet((0, 1))
        rec = V.check_synch_formula(gaps, "0", 161, 1e-6)
        rows, _ = _reference_synch(gaps, "0", 161)
        got = rec.series["truncation"]["rows"]
        assert [[g, x.hex()] for g, x in got] == [[g, x.hex()] for g, x in rows]

    def test_over_budget_table_is_refused_before_any_walk(self, monkeypatch):
        # 2049^2 cells exceed the 2^22 budget
        def walk(*args):
            raise AssertionError("the table started")

        monkeypatch.setattr(S, "_walk", walk)
        with pytest.raises(ResourceLimitError, match="synch_maxgap 2048"):
            V.check_synch_formula(S.SGapSet((0, 1)), "0", 2048, 1e-6)

    def test_grid_has_rows_that_leave_the_language(self):
        # 1 0^a 01 holds a gap a + 1, outside {1, 3} for a = 1 and a >= 3, so
        # those rows of the table are empty; other rows are not
        spec = S.SGapShift(S.SGapSet((1, 3)))
        legal = [S.member(spec, "1" + "0" * a + "01") for a in range(26)]
        assert legal[:4] == [True, False, True, False] and not any(legal[3:])


SWEEP_SPECS = [
    GOLDEN,
    SGAP_01,
    SFT_7,
    S.SftShift(W.Alphabet(("a", "b", "c")), ("aa", "bc")),
    S.SftShift(W.Alphabet(("x0", "x1")), (("x1", "x1"),)),
]


# counts and residuals, bit for bit, of the benchmark's extender specs and
# of a presentation with many landing classes
PINNED_SWEEPS = [
    pytest.param(GOLDEN, 7, False, 4327, 4, 2, "0x1p-51", id="golden-inequality"),
    pytest.param(GOLDEN, 7, True, 2058, 4, 2, "0x1p-51", id="golden-equality"),
    pytest.param(SGAP_01, 7, False, 4327, 4, 2, "0x1p-51", id="S01-inequality"),
    pytest.param(SGAP_01, 7, True, 2058, 4, 2, "0x1p-51", id="S01-equality"),
    pytest.param(SFT_7, 7, False, 3569, 28, 5, "0x1p-53", id="111,1001-inequality"),
    pytest.param(SFT_7, 7, True, 809, 28, 5, "0x1p-53", id="111,1001-equality"),
    pytest.param(
        S.SGapShift(S.SGapSet((0, 40))), 12, False, 2378, 90, 41, "0x1.44p-48",
        id="S040-inequality",
    ),
]


def _reference_extender_sweep(spec, maxlen, name, key, tol, two_sided):
    """The extender checks' record as a loop over the class pairs and, per
    class pair, over its length-bucket pairs, building every input afresh:
    the per-pair loop that the cached class table and its array pass
    replaced, kept as their reference."""
    label = "gap" if two_sided else "excess"
    record = V.CheckRecord(
        name=f"{name}[{S.describe(spec)}]",
        spec=S.describe(spec),
        params={"maxlen": maxlen},
        tolerance={key: tol},
    )
    h = S.entropy(spec)
    if h <= 1e-12:
        record.status = "skipped"
        record.reason = "positive-entropy hypothesis fails"
        return record
    model = M.parry(spec)
    aut = S.build_automaton(spec)
    class_of = {}  # landing row (bytes) -> class index, in order of first word
    reps = []  # class -> its landing row
    classes = []  # class -> length -> [(mu, word), ...]
    for n, words, rows in S._landing_levels(spec, maxlen):
        for u, row in zip(words, rows):
            c = class_of.setdefault(row.tobytes(), len(reps))
            if c == len(reps):
                reps.append(row)
                classes.append({})
            classes[c].setdefault(n, []).append((M.mu_parry(model, u), u))

    def extremes(bucket):
        # min and max skip a NaN that is not first, so a NaN is taken as both
        nan = [e for e in bucket if math.isnan(e[0])]
        return (nan[0], nan[0]) if nan else (min(bucket), max(bucket))

    # per class: [(length, count, (min mu, word), (max mu, word)), ...]
    summary = [[(n, len(b), *extremes(b)) for n, b in by_len.items()] for by_len in classes]
    reps = np.array(reps, dtype=np.intp).reshape(len(reps), len(aut.states))
    below = E._contains(aut._containment_table, reps, reps)
    worst = 0.0
    pairs = 0
    for i, j in zip(*np.nonzero(below & below.T if two_sided else below)):
        for (nv, kv, lo_v, hi_v), (nw, kw, lo_w, hi_w) in itertools.product(summary[i], summary[j]):
            pairs += kv * kw
            scale = math.exp(h * (nw - nv))
            residual, v, w = hi_v[0] - lo_w[0] * scale, hi_v[1], lo_w[1]
            if two_sided and not hi_w[0] * scale - lo_v[0] <= residual:
                residual, v, w = hi_w[0] * scale - lo_v[0], lo_v[1], hi_w[1]
            if not (residual <= worst or math.isnan(worst)):
                worst = residual
            if not residual <= tol:
                V._fail(record, {"v": W.format_word(v), "w": W.format_word(w), label: residual})
    record.params["pairs"] = pairs
    record.params["classes"] = len(classes)
    record.params["states"] = len(aut.states)
    record.residuals[f"max {label}"] = worst
    return record


def _exact(x):
    """x with each number as its type name and value, floats in hex: records
    compare bit for bit, NaN included, and a numpy scalar differs from a
    Python one."""
    if isinstance(x, dict):
        return {k: _exact(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_exact(v) for v in x]
    if isinstance(x, (str, bool)) or x is None:
        return x
    return type(x).__name__, x.hex() if isinstance(x, float) else x


# (check, name, tolerance key, default tolerance, two_sided)
EXTENDER_CHECKS = [
    pytest.param(V.check_main_inequality, "main-inequality", "inequality", 1e-12, False,
                 id="main-inequality"),
    pytest.param(V.check_equality_corollary, "equality-corollary", "equality", 1e-9, True,
                 id="equality-corollary"),
]


class TestLandingClassTable:
    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=S.describe)
    @pytest.mark.parametrize("maxlen", [0, 1, 3, 5])
    @pytest.mark.parametrize("failing", [False, True], ids=["normal", "negative-tolerance"])
    @pytest.mark.parametrize("check, name, key, tol, two_sided", EXTENDER_CHECKS)
    def test_matches_pairwise_loop(self, spec, maxlen, failing, check, name, key, tol, two_sided):
        # records equal bit for bit, witnesses and their order included
        tol = -1e-3 if failing else tol
        ref = _reference_extender_sweep(spec, maxlen, name, key, tol, two_sided)
        rec = check(spec, maxlen, tol)
        assert rec.status == ("fail" if failing and maxlen else "pass")
        assert _exact(asdict(rec)) == _exact(asdict(ref))

    @pytest.mark.parametrize("spec", [GOLDEN, SFT_7], ids=S.describe)
    def test_matches_pairwise_loop_on_a_nan_measure(self, monkeypatch, cold_caches, spec):
        mu_parry = M.mu_parry
        monkeypatch.setattr(
            M, "mu_parry", lambda model, w: math.nan if w == "0100" else mu_parry(model, w)
        )
        for param in EXTENDER_CHECKS:
            check, name, key, tol, two_sided = param.values
            ref = _reference_extender_sweep(spec, 5, name, key, tol, two_sided)
            rec = check(spec, 5, tol)
            assert rec.status == "fail"
            assert _exact(asdict(rec)) == _exact(asdict(ref))

    def test_check_order_does_not_matter(self, cold_caches):
        # the equality check first, the main check first, and each on a cold
        # cache give the same records
        main = (V.check_main_inequality, 1e-12)
        eq = (V.check_equality_corollary, 1e-9)

        def records(*checks):
            return [_exact(asdict(check(SFT_7, 5, tol))) for check, tol in checks]

        eq_first = records(eq, main)
        V._landing_classes.cache_clear()
        main_first = records(main, eq)
        cold = []
        for check in (main, eq):
            V._landing_classes.cache_clear()
            cold += records(check)
        assert eq_first[::-1] == main_first == cold

    def test_one_table_is_kept(self, cold_caches):
        def stats():
            info = V._landing_classes.cache_info()
            return info.hits, info.misses, info.currsize

        V.check_main_inequality(GOLDEN, 4, 1e-12)
        V.check_equality_corollary(GOLDEN, 4, 1e-9)
        assert stats() == (1, 1, 1)
        V.check_main_inequality(SFT_7, 4, 1e-12)  # evicts the golden mean's table
        V.check_equality_corollary(GOLDEN, 4, 1e-9)
        assert stats() == (1, 3, 1)
        V.check_main_inequality(GOLDEN, 5, 1e-12)  # another maxlen, another table
        assert stats() == (1, 4, 1)
        table = V._landing_classes(GOLDEN, 5)
        assert not any(a.flags.writeable for a in table if isinstance(a, np.ndarray))

    def test_run_all_builds_one_table_per_pair_spec(self, cold_caches):
        config = dict(
            SMALL_CONFIG,
            pair_specs=V.DEFAULT_CONFIG["pair_specs"],
            sgap_specs=[],
            hereditary_specs=[],
            replacement_u_maxlen=2,
            strip_widths=[],
        )
        V.run_all(config)
        info = V._landing_classes.cache_info()
        assert (info.hits, info.misses) == (2, 2)


@pytest.mark.usefixtures("cold_caches")
class TestNaNFailsClosed:
    """A NaN measure fails every family of checks; no residual passes as NaN."""

    @pytest.mark.parametrize(
        "check, key",
        [(V.check_main_inequality, "max excess"), (V.check_equality_corollary, "max gap")],
        ids=["main-inequality", "equality-corollary"],
    )
    @pytest.mark.parametrize("bad", [None, "0", "0100", "10101"], ids=str)
    def test_extender_sweep(self, monkeypatch, check, key, bad):
        # NaN on every word (None), or on one word, first among the words of
        # its landing class and length or not
        mu_parry = M.mu_parry
        monkeypatch.setattr(
            M, "mu_parry", lambda model, w: math.nan if bad in (None, w) else mu_parry(model, w)
        )
        rec = check(GOLDEN, 5, 1e-9)
        assert rec.status == "fail" and rec.witnesses
        assert bad is None or any(bad in (w["v"], w["w"]) for w in rec.witnesses)
        assert math.isnan(rec.residuals[key])

    def test_value_theorem(self, monkeypatch):
        # the gap-chain oracle (read through mu_parry) gives NaN on every word
        # but 1: mu(1) stays finite, so only the sweep over the words can fail
        mu_parry = M.mu_parry
        monkeypatch.setattr(
            M, "mu_parry", lambda model, w: mu_parry(model, w) if w == "1" else math.nan
        )
        rec = V.check_value_theorem(S.SGapSet((1, 3)), 3, 1e-9)
        assert rec.status == "fail"
        assert rec.residuals["mu(1) formula vs oracle"] <= 1e-9
        # the first NaN is the worst from then on
        assert rec.witnesses == [{"word": "0", "gap": rec.witnesses[0]["gap"]}]
        assert math.isnan(rec.residuals["max |recursion - oracle|"])

    def test_hereditary_entropy(self, monkeypatch):
        # mu(0) and mu(1) stay finite; every ratio mu(0^n) / mu(0^(n+1)) is NaN
        mu_parry = M.mu_parry
        monkeypatch.setattr(
            M, "mu_parry", lambda model, w: mu_parry(model, w) if len(w) == 1 else math.nan
        )
        rec = V.check_hereditary_entropy(GOLDEN, 4, 1e-9)
        assert rec.status == "fail"
        assert [w["n"] for w in rec.witnesses if "n" in w] == [1]
        assert math.isnan(rec.residuals["max(log ratio - h)"])
        assert rec.residuals["mu(1) - mu(0)"] <= 1e-9

    def test_counting_limit(self, monkeypatch):
        # a NaN among the scaled counts past limit_n, so only the exact-vs-scaled
        # comparison reads it; a max() fold used to drop it and pass
        scaled_counts = S._scaled_counts

        def planted(spec, lam):
            for n, a in enumerate(scaled_counts(spec, lam)):
                yield math.nan if n == 20 else a

        gaps = S.SGapSet((0, 1))
        assert V.check_limit(gaps, 10, 40, 1e-3, 1e-9).status == "pass"
        monkeypatch.setattr(S, "_scaled_counts", planted)
        rec = V.check_limit(gaps, 10, 40, 1e-3, 1e-9)
        assert rec.status == "fail"
        assert math.isnan(rec.residuals["exact vs scaled (relative)"])
        assert rec.residuals["|a_N - a_{N-1}|"] <= 1e-3

    @pytest.mark.parametrize(
        "lam, r, message",
        [(1.618, [math.nan, 1.0], "normalize"), (math.nan, [1.618, 1.0], "invariant")],
        ids=["stationary", "P"],
    )
    def test_parry_chain(self, lam, r, message):
        # a planted Perron pair: NaN reaches the stationary vector, or P alone
        A = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError, match=message):
            M._chain_from(A, lam, np.array(r))


class TestExtenderSweep:
    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=S.describe)
    @pytest.mark.parametrize("maxlen", [1, 3, 5])
    def test_matches_pairwise_reference(self, spec, maxlen):
        # the pairwise loop is the reference: one extender_compare per word pair
        h = S.entropy(spec)
        model = M.parry(spec)
        language = [u for n in range(1, maxlen + 1) for u in S.enumerate_words(spec, n)]
        mu = {u: M.mu_parry(model, u) for u in language}
        n_ineq = n_eq = 0
        worst_excess = worst_gap = 0.0
        for v, w in itertools.product(language, repeat=2):
            rel = E.extender_compare(spec, v, w)
            if rel not in (E.PROPER_SUBSET, E.EQUAL):
                continue
            diff = mu[v] - mu[w] * math.exp(h * (len(w) - len(v)))
            n_ineq += 1
            worst_excess = max(worst_excess, diff)
            if rel == E.EQUAL:
                n_eq += 1
                worst_gap = max(worst_gap, abs(diff))
        ineq = V.check_main_inequality(spec, maxlen, 1e-12)
        eq = V.check_equality_corollary(spec, maxlen, 1e-9)
        assert ineq.status == eq.status == "pass"
        assert (ineq.params["pairs"], ineq.residuals["max excess"]) == (n_ineq, worst_excess)
        assert (eq.params["pairs"], eq.residuals["max gap"]) == (n_eq, worst_gap)
        assert 0 < ineq.params["classes"] == eq.params["classes"] <= len(language)

    @pytest.mark.parametrize(
        "spec, maxlen, two_sided, pairs, classes, states, residual", PINNED_SWEEPS
    )
    def test_pinned_records(self, spec, maxlen, two_sided, pairs, classes, states, residual):
        if two_sided:
            rec, label = V.check_equality_corollary(spec, maxlen, 1e-9), "max gap"
        else:
            rec, label = V.check_main_inequality(spec, maxlen, 1e-12), "max excess"
        assert rec.status == "pass"
        assert rec.params == {"maxlen": maxlen, "pairs": pairs, "classes": classes, "states": states}
        assert rec.residuals[label].hex() == float.fromhex(residual).hex()

    @pytest.mark.parametrize(
        "spec, maxlen, two_sided, pairs, classes, states, residual", PINNED_SWEEPS
    )
    def test_pinned_records_in_small_blocks(
        self, monkeypatch, cold_caches, spec, maxlen, two_sided, pairs, classes, states, residual
    ):
        # the class table is built here, not read from the cache, with its
        # class pairs decided in chunks of at most 64 entries (or one v row,
        # where a row alone is larger): the spy sees the v rows of each chunk
        chunks = []

        class Spy(np.ndarray):
            def __getitem__(self, index):
                chunks.append(len(index[0]))
                return np.asarray(self)[index]

        contains = E._contains
        monkeypatch.setattr(E, "_contains", lambda C, Lv, Lw: contains(C.view(Spy), Lv, Lw))
        monkeypatch.setattr(E, "_BLOCK", 64)
        self.test_pinned_records(spec, maxlen, two_sided, pairs, classes, states, residual)
        assert sum(chunks) == classes
        assert all(rows * classes * states <= 64 or rows == 1 for rows in chunks)
        assert len(chunks) > 1 or classes * states <= 64

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_chunks_match_one_block(self, monkeypatch, cold_caches, block):
        aut = S.build_automaton(SFT_7)
        rows = np.concatenate([r for _, _, r in S._landing_levels(SFT_7, 5)])
        reps = np.unique(rows, axis=0)
        C = aut._containment_table
        whole = E._contains(C, reps, reps)
        assert whole.any() and not whole.all()
        monkeypatch.setattr(E, "_BLOCK", block)
        assert np.array_equal(E._contains(C, reps, reps), whole)
        assert np.array_equal(E._contains(C, reps[:5], reps), whole[:5])
        assert np.array_equal(E._contains(C, reps, reps[3:9]), whole[:, 3:9])
        for Lv, Lw in ((reps[:0], reps), (reps, reps[:0]), (reps[:0], reps[:0])):
            assert E._contains(C, Lv, Lw).shape == (len(Lv), len(Lw))

    @pytest.mark.parametrize(
        "check, label", [(V.check_main_inequality, "max excess"), (V.check_equality_corollary, "max gap")]
    )
    def test_no_words_gives_empty_record(self, check, label):
        rec = check(GOLDEN, 0, 1e-12)
        assert rec.status == "pass"
        assert rec.params == {"maxlen": 0, "pairs": 0, "classes": 0, "states": 2}
        assert rec.residuals == {label: 0.0}

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=S.describe)
    def test_prefix_built_rows_match_landing_states(self, spec):
        aut = S.build_automaton(spec)
        assert list(S._landing_levels(spec, 0)) == list(S._word_levels(spec, 0)) == []
        levels = list(S._landing_levels(spec, 6))
        assert [n for n, _, _ in levels] == list(range(1, 7))
        letters = list(aut.alphabet.letters.values())
        before = S.enumerate_words(spec, 0)
        assert before == [aut.alphabet.empty]
        for (n, words, rows), (walked, prefix, last) in zip(levels, S._word_levels(spec, 6)):
            assert words == walked == S.enumerate_words(spec, n)
            # each word is its prefix in the level before plus its last symbol
            assert [before[i] + letters[c] for i, c in zip(prefix, last)] == words
            before = words
            assert rows.shape == (len(words), len(aut.states))
            for u, row in zip(words, rows.tolist()):
                landing = {q: r for q, r in enumerate(row) if r >= 0}
                assert landing == S._landing_states(aut, u) == landing_states(aut, u), u

    @pytest.mark.parametrize("check", [V.check_main_inequality, V.check_equality_corollary])
    def test_over_budget_sweep_is_refused_before_any_measure(
        self, monkeypatch, cold_caches, check
    ):
        # |L_4| = 64^4 is over the budget: the 266,304 words of L_1..L_3 used
        # to be measured first
        def unreachable(model, w):
            raise AssertionError("a cylinder measure was computed")

        monkeypatch.setattr(M, "mu_parry", unreachable)
        spec = S.FullShift(W.Alphabet(tuple(f"s{i}" for i in range(64))))
        with pytest.raises(ResourceLimitError):
            check(spec, 4, 1e-12)

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=S.describe)
    def test_witnesses_are_real_pairs(self, spec):
        # with a negative tolerance every length-bucket pair leaves a witness
        h = S.entropy(spec)
        model = M.parry(spec)
        for check, label, relations in (
            (V.check_main_inequality, "excess", (E.PROPER_SUBSET, E.EQUAL)),
            (V.check_equality_corollary, "gap", (E.EQUAL,)),
        ):
            rec = check(spec, 4, -1.0)
            assert rec.status == "fail" and rec.witnesses
            for wit in rec.witnesses:
                v, w = (W.parse_word(wit[k], spec.alphabet) for k in ("v", "w"))
                assert E.extender_compare(spec, v, w) in relations
                diff = M.mu_parry(model, v) - M.mu_parry(model, w) * math.exp(
                    h * (len(w) - len(v))
                )
                assert wit[label] == (diff if label == "excess" else abs(diff))
            assert max(wit[label] for wit in rec.witnesses) == rec.residuals[f"max {label}"]


def _reference_walk(u, v, w, occ):
    """Yield (S, image) for every nonempty subset S of the occurrences ``occ``.

    The depth-first walk the level sweep replaced, kept as its reference: S
    grows in increasing order, and each step splices w into the image of S
    minus its last element at ``s + m(|w|-|v|)``.  If no occurrence of v is
    left there, it yields (S, None) and skips every extension of S.
    """
    nv = len(v)
    shift = len(w) - nv
    n = len(occ)
    stack = [((), u, 0)]
    while stack:
        prefix, cur, start = stack.pop()
        m = len(prefix)
        for k in range(start, n):
            s = occ[k]
            sub = prefix + (s,)
            pos = s + m * shift
            if pos < 0 or cur[pos : pos + nv] != v:
                yield sub, None
                continue
            img = cur[:pos] + w + cur[pos + nv :]
            yield sub, img
            if k + 1 < n:
                stack.append((sub, img, k + 1))


def _reference_pair(record, v, w, u_maxlen, alphabet, check_inj):
    """The per-word sweep over ``_reference_walk`` that ``V._subset_sweep`` replaced."""
    nv, nw = len(v), len(w)
    shift = nw - nv
    violations = 0
    for L in range(nv, u_maxlen + 1):
        preimages = {}
        for u in alphabet.words(L):
            occ = W.occurrences(u, v)
            if not occ:
                continue
            images = {}
            for sub, img in _reference_walk(u, v, w, occ):
                if img is None:
                    violations += 1
                    V._fail(record, {"lemma": "broken-step", "u": u, "S": list(sub)})
                    continue
                size = len(sub)
                m = 0
                for s in occ:
                    p = s + m * shift
                    if m < size and sub[m] == s:
                        m += 1
                        if img[p : p + nw] != w:
                            violations += 1
                            V._fail(record, {"lemma": "persistence", "u": u, "S": list(sub), "m": s})
                    elif p < 0 or img[p : p + nv] != v:
                        violations += 1
                        V._fail(record, {"lemma": "survival", "u": u, "S": list(sub), "m": s})
                if check_inj:
                    key = (img, size)
                    preimages[key] = preimages.get(key, 0) + 1
                    first = images.setdefault(key, sub)
                    if first is not sub:
                        violations += 1
                        V._fail(
                            record,
                            {"lemma": "injectivity", "u": u, "S": list(sub), "S'": list(first)},
                        )
        for (img, m), count in preimages.items():
            bound = math.comb(len(W.occurrences(img, w)), m)
            if count > bound:
                violations += 1
                V._fail(
                    record, {"lemma": "preimage", "u'": img, "m": m, "count": count, "bound": bound}
                )
    return violations


def _reference_sweep(record, pairs, u_maxlen, alphabet):
    """``_reference_pair`` on each (v, w, check_inj) of ``pairs`` in turn."""
    return sum(_reference_pair(record, v, w, u_maxlen, alphabet, inj) for v, w, inj in pairs)


def _pairs(alphabet, maxlen):
    pool = [u for n in range(1, maxlen + 1) for u in alphabet.words(n)]
    return [(v, w) for v, w in itertools.product(pool, repeat=2) if v != w]


def _sweep(sweep, v, w, u_maxlen, alphabet, check_inj):
    rec = V.CheckRecord(name="sweep", spec="", params={}, tolerance={})
    return sweep(rec, [(v, w, check_inj)], u_maxlen, alphabet), rec.witnesses


def _level_tables(v, w, u_maxlen, alphabet):
    """The levels ``LS._sweep_levels`` yields for (v, w): (u, [(S, image, or
    None for a broken marker), ...]) for each word u with a node, by length
    and then in canonical order, decoded from the level's arrays."""
    k = len(alphabet.symbols)

    @functools.cache
    def spell(code, n):
        letters = [alphabet.symbols[code // k ** (n - 1 - i) % k] for i in range(n)]
        return "".join(letters) if alphabet.single_char else tuple(letters)

    @functools.cache
    def sites(bits):
        return tuple(s for s in range(u_maxlen) if bits >> s & 1)

    table = LS._pair_table([(v, w)], u_maxlen, alphabet)
    out = []
    for level in LS._sweep_levels(table, u_maxlen):
        L, nodes = level.L, collections.defaultdict(list)
        assert not level.pair.any() and not level.bpair.any()
        for j, m, sub, img in zip(*(x.tolist() for x in (level.word, level.m, level.sub, level.img))):
            assert len(sites(sub)) == m
            nodes[j].append((sites(sub), spell(img, L + m * (len(w) - len(v)))))
        for j, sub in zip(level.bword.tolist(), level.bsub.tolist()):
            nodes[j].append((sites(sub), None))
        out += [(spell(j, L), nodes[j]) for j in sorted(nodes)]
    return out


class TestReplacementWalk:
    def test_walk_matches_replace_seq(self):
        # replace_seq is the reference: each word's entries in its level hold
        # its image for every subset, and the marker S[:step] where
        # replace_seq breaks at that step; every word with an occurrence
        # comes once, by length and then in canonical order
        contexts = [u for n in range(1, 9) for u in W.BINARY.words(n)]
        for v, w in _pairs(W.BINARY, 3):
            respecting, _ = W.respects_transition_exact(v, w)
            levels = _level_tables(v, w, 8, W.BINARY)
            assert [u for u, _ in levels] == [u for u in contexts if W.occurrences(u, v)], (v, w)
            for u, nodes in levels:
                table = dict(nodes)
                assert len(table) == len(nodes), (v, w, u)
                occ = W.occurrences(u, v)
                expected = {}
                for size in range(1, len(occ) + 1):
                    for sub in itertools.combinations(occ, size):
                        try:
                            expected[sub] = W.replace_seq(u, v, w, sub)
                        except ReplacementBrokenError as err:
                            expected[sub[: err.step]] = None
                assert table == expected, (v, w, u)
                if respecting:
                    assert None not in expected.values(), (v, w, u)

    def test_broken_step_is_recorded_not_raised(self):
        # "00" -> "1" breaks the overlapping occurrence of "00" in "000"
        rec = V.CheckRecord(name="sweep", spec="", params={}, tolerance={})
        violations = V._subset_sweep(rec, [("00", "1", True)], 6, W.BINARY)
        assert violations > 0
        assert rec.status == "fail"
        assert any(wit["lemma"] == "broken-step" for wit in rec.witnesses)

    def test_preimage_bound_counts_overlapping_occurrences(self):
        # "000" holds "00" twice (overlapping), so the bound is C(2, 2) = 1
        rec = V.CheckRecord(name="sweep", spec="", params={}, tolerance={})
        V._subset_sweep(rec, [("000", "00", True)], 5, W.BINARY)
        assert {"lemma": "preimage", "u'": "000", "m": 2, "count": 3, "bound": 1} in rec.witnesses

    def test_witnesses_follow_the_documented_order(self):
        # by level, word, then broken (by last site, largest S first, then
        # colex), failed (by |S|, colex, site), injectivity (by |S|, colex);
        # the preimage witnesses close their level and are left out here
        def colex(sub):
            return sum(1 << s for s in sub)

        def key(wit):
            S = wit["S"]
            if wit["lemma"] == "broken-step":
                return (0, S[-1], -len(S), colex(S))
            if wit["lemma"] == "injectivity":
                return (2, len(S), colex(S))
            return (1, len(S), colex(S), wit["m"])

        kinds = set()
        for v, w in (("00", "1"), ("00", "10"), ("0", "00"), ("010", "1")):
            _, witnesses = _sweep(V._subset_sweep, v, w, 8, W.BINARY, True)
            keys = [(len(x["u"]), int(x["u"], 2), *key(x)) for x in witnesses if x["lemma"] != "preimage"]
            assert keys == sorted(set(keys)), (v, w)
            kinds |= {k[2] for k in keys}
        assert kinds == {0, 1, 2}

    def test_witnesses_are_distinct(self):
        # every violation leaves its own witness, without a dedup scan
        rec = V.CheckRecord(name="sweep", spec="", params={}, tolerance={})
        violations = V._subset_sweep(rec, [("00", "1", True)], 9, W.BINARY)
        keys = {json.dumps(wit, sort_keys=True) for wit in rec.witnesses}
        assert violations == len(rec.witnesses) == len(keys) == 4984


TUPLES = W.Alphabet(("x0", "x1"))
V4_PAIRS = [
    (v, w)
    for v in W.BINARY.words(4)
    for w in ("0", "1", "01", "10", "0000", "0110", "11111")
    if v != w
]


class TestSweepMatchesReference:
    @pytest.mark.parametrize(
        "alphabet, pairs, u_maxlen, violations",
        [
            (W.BINARY, _pairs(W.BINARY, 3), 7, 48976),
            (W.Alphabet(("a", "b", "c")), _pairs(W.Alphabet(("a", "b", "c")), 2), 5, 7728),
            (TUPLES, _pairs(TUPLES, 2), 6, 4584),
            (W.BINARY, V4_PAIRS, 8, 7469),
        ],
        ids=["binary-3-at-7", "abc-2-at-5", "tuples-2-at-6", "v4-at-8"],
    )
    def test_same_violations_as_reference(self, alphabet, pairs, u_maxlen, violations):
        # both injectivity modes, so every failure path runs; only the order
        # within a word and the earlier S' a duplicate names may differ
        def collisions(v, w, witnesses):
            found = collections.Counter()
            for wit in witnesses:
                image = W.replace_seq(wit["u"], v, w, wit["S"])
                assert W.replace_seq(wit["u"], v, w, wit["S'"]) == image
                assert len(wit["S'"]) == len(wit["S"])
                found[json.dumps([wit["u"], image, len(wit["S"])])] += 1
            return found

        total = 0
        for v, w in pairs:
            for check_inj in (True, False):
                ref_count, ref = _sweep(_reference_sweep, v, w, u_maxlen, alphabet, check_inj)
                count, got = _sweep(V._subset_sweep, v, w, u_maxlen, alphabet, check_inj)
                assert count == ref_count == len(got), (v, w, check_inj)
                split = {}
                for side, witnesses in (("ref", ref), ("new", got)):
                    inj = [x for x in witnesses if x["lemma"] == "injectivity"]
                    rest = [x for x in witnesses if x["lemma"] != "injectivity"]
                    split[side] = (
                        collections.Counter(x["lemma"] for x in witnesses),
                        collections.Counter(json.dumps(x, sort_keys=True) for x in rest),
                        collisions(v, w, inj),
                    )
                assert split["new"] == split["ref"], (v, w, check_inj)
                total += count
        assert total == violations

    def test_budget_bounds_a_level(self):
        # a level holds at most (|A| + 1)^L nodes: binary |u| <= 13 fits, 14 does not
        v = "0" * 14
        assert _sweep(V._subset_sweep, v, "1", 13, W.BINARY, True) == (0, [])
        with pytest.raises(ResourceLimitError):
            _sweep(V._subset_sweep, v, "1", 14, W.BINARY, True)
        with pytest.raises(ResourceLimitError):
            _sweep(V._subset_sweep, ("x0",), ("x1",), 12, W.Alphabet(("x0", "x1", "x2")), True)

    def test_wide_images_run_on_python_ints(self):
        # 8 + 8 * 7 = 64-letter images pass int64, so these sweeps run on
        # object arrays, by the same expressions
        pairs = [("0", "11111111"), ("1", "11111111")]
        assert all(LS._pair_table([pair], 8, W.BINARY).pw.dtype == object for pair in pairs)
        total = sum(_sweep(_reference_sweep, v, w, 8, W.BINARY, inj)[0] for v, w in pairs for inj in (True, False))
        self.test_same_violations_as_reference(W.BINARY, pairs, 8, total)
        assert total == 5661


class TestSweepPasses:
    # both injectivity modes of the pairs up to length 2, then a pair whose
    # 56-letter images need Python ints, which runs apart
    PAIRS = [(v, w, inj) for v, w in _pairs(W.BINARY, 2) for inj in (True, False)] + [("1", "11111111", True)]

    @pytest.mark.parametrize("cap", [LS._SWEEP_NODES, 50])
    def test_one_call_equals_a_call_per_pair(self, monkeypatch, cap):
        # a small cap splits the pass at each level, down to single pairs
        alone = V.CheckRecord(name="sweep", spec="", params={}, tolerance={})
        count = sum(V._subset_sweep(alone, [pair], 7, W.BINARY) for pair in self.PAIRS)
        monkeypatch.setattr(LS, "_SWEEP_NODES", cap)
        together = V.CheckRecord(name="sweep", spec="", params={}, tolerance={})
        assert V._subset_sweep(together, self.PAIRS, 7, W.BINARY) == count == len(alone.witnesses)
        assert together.witnesses == alone.witnesses
        assert together.params == alone.params

    @pytest.mark.parametrize("cap", [50, 2000])
    def test_split_passes_stay_under_the_cap(self, monkeypatch, cap):
        # each pair gets each level once, in order; a level of several pairs
        # holds at most cap nodes and broken entries
        monkeypatch.setattr(LS, "_SWEEP_NODES", cap)
        pairs = [pair[:2] for pair in self.PAIRS[:-1:2]]
        table = LS._pair_table(pairs, 7, W.BINARY)
        levels = collections.defaultdict(list)
        for level in LS._sweep_levels(table, 7):
            owners = set(level.pair.tolist()) | set(level.bpair.tolist())
            assert len(owners) <= 1 or len(level.pair) + len(level.bpair) <= cap
            for p in owners:
                levels[p].append(level.L)
        assert all(levels[p] == list(range(len(pairs[p][0]), 8)) for p in levels)
        assert len(levels) == len(pairs)


RANDOM_ALPHABETS = [W.BINARY, W.Alphabet(("a", "b", "c")), W.Alphabet(("x0", "x1", "x2"))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_pairs_match_reference(data):
    # the checks of TestSweepMatchesReference on one random pair, both
    # injectivity modes, its violation total taken from the reference
    alphabet = data.draw(st.sampled_from(RANDOM_ALPHABETS))
    word = st.lists(st.sampled_from(alphabet.symbols), min_size=1, max_size=4).map(
        "".join if alphabet.single_char else tuple
    )
    v, w = data.draw(st.tuples(word, word).filter(lambda pair: pair[0] != pair[1]))
    u_maxlen = data.draw(st.integers(min_value=1, max_value=6))
    total = sum(_sweep(_reference_sweep, v, w, u_maxlen, alphabet, inj)[0] for inj in (True, False))
    check = TestSweepMatchesReference().test_same_violations_as_reference
    check(alphabet, [(v, w)], u_maxlen, total)


class TestLemmasFire:
    """Negative controls: on a pair that breaks a lemma, the sweep reports
    it, and each witness is a real violation by ``words.replace_seq``."""

    def witnesses(self, v, w, lemma):
        rec = V.CheckRecord(name="sweep", spec="", params={}, tolerance={})
        V._subset_sweep(rec, [(v, w, True)], 7, W.BINARY)
        found = [wit for wit in rec.witnesses if wit["lemma"] == lemma]
        assert found and rec.status == "fail"
        return found

    def test_broken_step(self):
        for wit in self.witnesses("00", "1", "broken-step"):
            with pytest.raises(ReplacementBrokenError) as err:
                W.replace_seq(wit["u"], "00", "1", wit["S"])
            assert err.value.step == len(wit["S"])  # the last site of S breaks

    @pytest.mark.parametrize("v, w, lemma", [("00", "1", "survival"), ("00", "10", "persistence")])
    def test_failed_window(self, v, w, lemma):
        # the site's window in the image no longer holds v (survival) or w
        for wit in self.witnesses(v, w, lemma):
            sub, s = wit["S"], wit["m"]
            assert (s in sub) == (lemma == "persistence")
            image = W.replace_seq(wit["u"], v, w, sub)
            p = s + sum(x < s for x in sub) * (len(w) - len(v))
            lost = w if lemma == "persistence" else v
            assert image[p : p + len(lost)] != lost

    def test_injectivity(self):
        for wit in self.witnesses("0", "00", "injectivity"):
            assert wit["S"] != wit["S'"] and len(wit["S"]) == len(wit["S'"])
            assert W.replace_seq(wit["u"], "0", "00", wit["S"]) == W.replace_seq(
                wit["u"], "0", "00", wit["S'"]
            )

    def test_preimage(self):
        # 178 of them have one preimage and bound 0: a shortcut that passed
        # every image met once would lose them
        found = self.witnesses("00", "10", "preimage")
        for wit in found:
            assert wit["bound"] == math.comb(len(W.occurrences(wit["u'"], "10")), wit["m"])
            assert wit["count"] > wit["bound"]
        assert sum(wit["count"] == 1 for wit in found) == 178

@pytest.fixture(scope="module")
def report():
    return V.run_all(SMALL_CONFIG)


class TestSuite:
    def test_all_pass_or_skip(self, report):
        assert report.passed
        assert {r.status for r in report.records} <= {"pass", "skipped"}

    def test_gate_reported_as_skip(self, report):
        skipped = [r for r in report.records if r.status == "skipped"]
        assert any("gcd" in r.reason for r in skipped)

    def test_records_sorted_in_output(self, report):
        names = [c["name"] for c in report.to_dict()["checks"]]
        assert names == sorted(names)

    def test_json_serializable_and_deterministic(self, report):
        again = V.run_all(SMALL_CONFIG)
        a = json.loads(report.to_json())
        b = json.loads(again.to_json())
        del a["meta"]["timestamps"]
        del b["meta"]["timestamps"]
        assert a == b

    def test_elapsed_times_are_positive_microseconds(self, report):
        # one entry per record, kept to the microsecond: none rounds to 0
        elapsed = report.meta["timestamps"]["elapsed_s"]
        assert len(elapsed) == len(report.records)
        assert all(0 < t == round(t, 6) for t in elapsed), elapsed

    def test_elapsed_times_follow_the_sorted_checks(self, monkeypatch):
        # the two over-budget synchronized-formula records share a name: keyed
        # by name, 7 records had 6 times.  A clock that jumps 1000 s inside
        # the replacement check shows which entry is that check's
        config = dict(
            SMALL_CONFIG,
            synch_maxgap=2048,
            synch_words=["0", "1"],
            sgap_specs=SMALL_CONFIG["sgap_specs"][:1],
            pair_specs=[],
            hereditary_specs=[],
        )
        skew = [0.0]
        clock = types.SimpleNamespace(
            monotonic=lambda: time.monotonic() + skew[0], strftime=time.strftime
        )
        lemmas = V.check_replacement_lemmas

        def slow(*args):
            skew[0] += 1000.0
            return lemmas(*args)

        monkeypatch.setattr(V, "time", clock)
        monkeypatch.setattr(V, "check_replacement_lemmas", slow)
        report = V.run_all(config)
        names = [c["name"] for c in report.to_dict()["checks"]]
        elapsed = report.meta["timestamps"]["elapsed_s"]
        assert len(report.records) == len(elapsed) == 7
        assert names.count("synchronized-formula") == 2
        assert [t >= 1000 for t in elapsed] == [n == "replacement-lemmas" for n in names]

    def test_csv_emission(self, report, tmp_path):
        paths = V.write_csv(report, tmp_path)
        assert paths
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().strip()
            assert "," in header

    def test_numerical_error_does_not_abort_suite(self, report, monkeypatch, cold_caches):
        # an unconverged power iteration on the pair spec's presentation only
        spec = {"type": "sft", "alphabet": ["a", "b", "c"], "forbidden": ["aa"]}
        target = S.build_automaton(S.spec_from_dict(spec)).adjacency()
        perron_value = S.perron_value

        def flaky(A, *args, **kwargs):
            if np.array_equal(A, target):
                raise NumericalError("power iteration residual too large")
            return perron_value(A, *args, **kwargs)

        monkeypatch.setattr(S, "perron_value", flaky)
        broken = V.run_all(dict(SMALL_CONFIG, pair_specs=[spec]))
        errors = [r for r in broken.records if r.status == "error"]
        assert sorted(r.name for r in errors) == ["equality-corollary", "main-inequality"]
        assert all(r.reason.startswith("NumericalError") for r in errors)
        assert len(broken.records) == len(report.records)

    def test_wrong_spec_type_does_not_abort_suite(self, report):
        # an SFT where an S-gap spec belongs: each check that reads it errors
        sft = {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]}
        broken = V.run_all(dict(SMALL_CONFIG, sgap_specs=[sft, SMALL_CONFIG["sgap_specs"][1]]))
        errors = [r for r in broken.records if r.status == "error"]
        assert sorted(r.name for r in errors) == [
            "counting-limit",
            "entropy-root",
            "synchronized-formula",
            "value-theorem",
        ]
        assert all(r.reason.startswith("SpecFormatError") for r in errors)
        assert len(broken.records) == len(report.records)

    def test_zero_entropy_pair_spec_is_skipped(self, report):
        # forbidding 10 leaves a reducible shift of entropy 0
        config = dict(
            SMALL_CONFIG,
            pair_specs=[{"type": "sft", "alphabet": ["0", "1"], "forbidden": ["10"]}],
        )
        rerun = V.run_all(config)
        pair_records = [r for r in rerun.records if r.spec == "SFT forbidding {10}"]
        assert sorted(r.name.split("[")[0] for r in pair_records) == [
            "equality-corollary",
            "main-inequality",
        ]
        assert all(r.status == "skipped" for r in pair_records)
        assert rerun.passed
        assert len(rerun.records) == len(report.records)

    def test_zero_maxlen_pairs_gives_empty_pair_records(self, report):
        rerun = V.run_all(dict(SMALL_CONFIG, maxlen_pairs=0))
        pair_records = [r for r in rerun.records if r.name.split("[")[0] in ("main-inequality", "equality-corollary")]
        assert len(pair_records) == 2 * len(SMALL_CONFIG["pair_specs"])
        assert all(r.status == "pass" for r in pair_records)
        assert all((r.params["pairs"], r.params["classes"]) == (0, 0) for r in pair_records)
        assert rerun.passed
        assert len(rerun.records) == len(report.records)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(SpecFormatError):
            V.run_all({"bogus": 1})

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(SpecFormatError):
            V.merge_config({"tolerances": {"bogus": 1.0}})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"replacement_u_maxlen": "8"},
            {"maxlen_pairs": "x"},
            {"tolerances": {"value": "a"}},
            {"limit_n": True},
            {"maxlen_value": -1},
            {"maxlen_value": 8.0},
            {"synch_words": "0"},
            {"tolerances": {"value": float("nan")}},
            {"tolerances": 1e-9},
            ["replacement_u_maxlen"],
            {"strip_widths": ["a"]},
            {"synch_words": [5]},
            {"strip_widths": [True]},
        ],
        ids=json.dumps,
    )
    def test_mistyped_config_value_rejected(self, overrides):
        # each of these used to escape run_all as a bare TypeError, to pass
        # every check against a NaN tolerance, or to run True as width 1
        with pytest.raises(SpecFormatError):
            V.run_all(overrides)

    @pytest.mark.parametrize(
        "widths, error", [([100], "ResourceLimitError"), ([0], "InvalidWordError")]
    )
    def test_strip_width_error_is_a_record(self, report, widths, error):
        # the strip check used to run outside the per-check guard
        broken = V.run_all(dict(SMALL_CONFIG, strip_widths=widths))
        errors = [r for r in broken.records if r.status == "error"]
        assert [r.name for r in errors] == ["gtheorem-strips"]
        assert errors[0].reason.startswith(error)
        assert len(broken.records) == len(report.records)

    def test_foreign_synch_word_is_an_error_record(self, report):
        # "2" is no binary word: an error per S-gap spec, where before the
        # checks vanished; "11" is binary but not in the second spec's language
        broken = V.run_all(dict(SMALL_CONFIG, synch_words=["2"]))
        errors = [r for r in broken.records if r.status == "error"]
        assert [r.name for r in errors] == ["synchronized-formula"] * 2
        assert all(r.reason.startswith("InvalidWordError") for r in errors)
        assert len(broken.records) == len(report.records)
        absent = V.run_all(dict(SMALL_CONFIG, synch_words=["11"]))
        assert absent.passed
        assert len(absent.records) == len(report.records) - 1

    def test_single_gap_zero_spec_keeps_its_other_records(self, report):
        # S = {0} has lambda = 1, and the counting limit's closed form divides
        # by lambda - 1: a ZeroDivisionError used to abort run_all
        doc = {"type": "sgap", "finite": [0]}
        rerun = V.run_all(dict(SMALL_CONFIG, sgap_specs=[doc], synch_words=["1"]))
        records = {r.name: r for r in rerun.records if r.spec == "S-gap shift, S={0}"}
        assert {name: r.status for name, r in records.items()} == {
            "entropy-root[S={0}]": "pass",
            "counting-limit[S={0}]": "skipped",
            "value-theorem[S={0}]": "pass",
            "synchronized-formula[S={0},u=1]": "pass",
        }
        assert records["counting-limit[S={0}]"].reason == "positive-entropy hypothesis fails"
        assert rerun.passed

    def test_forbidden_zero_power_keeps_the_suite(self, report):
        # a ZeroDivisionError at n = 7 used to abort run_all
        doc = {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["00000000"]}
        rerun = V.run_all(dict(SMALL_CONFIG, hereditary_specs=[doc], hereditary_nmax=8))
        [rec] = [r for r in rerun.records if r.name.startswith("hereditary-entropy")]
        assert rec.status == "skipped"
        assert len(rerun.records) == len(report.records)

    def test_no_strip_widths_gives_valid_json(self, report):
        # max(mu_v - mu_w) over no widths was -inf, written as -Infinity
        rerun = V.run_all(dict(SMALL_CONFIG, strip_widths=[]))

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(rerun.to_json(), parse_constant=reject)
        [rec] = [c for c in doc["checks"] if c["name"] == "gtheorem-strips"]
        assert rec["status"] == "skipped"
        assert rec["residuals"] == {}
        assert len(rerun.records) == len(report.records)

    def test_every_bound_fails_below_zero_tolerance(self):
        tolerances = {key: -1 for key in V.DEFAULT_CONFIG["tolerances"]}
        rerun = V.run_all(dict(SMALL_CONFIG, tolerances=tolerances))
        checked = [r for r in rerun.records if r.tolerance and r.status != "skipped"]
        assert len(checked) == len(rerun.records) - 2  # replacement-lemmas, one gcd gate
        for rec in checked:
            assert rec.status == "fail" and rec.witnesses, rec.name
        witnesses = {r.name: len(r.witnesses) for r in checked}
        assert witnesses["entropy-root[S={0,1}]"] == witnesses["entropy-root[S={1}]"] == 2
        assert witnesses["counting-limit[S={0,1}]"] == 3
        assert witnesses["synchronized-formula[S={0,1},u=0]"] == 1

    def test_hereditary_underflow_is_an_error_record(self, report):
        # mu(0^1501) = 2^-1501 is 0.0 in floats: a bare ZeroDivisionError
        # used to abort run_all
        doc = {"type": "full", "alphabet": ["0", "1"]}
        rerun = V.run_all(dict(SMALL_CONFIG, hereditary_specs=[doc], hereditary_nmax=1500))
        errors = [r for r in rerun.records if r.status == "error"]
        assert [r.name for r in errors] == ["hereditary-entropy"]
        assert errors[0].reason.startswith("NumericalError") and "n = 1022" in errors[0].reason
        assert len(rerun.records) == len(report.records)

    def test_counting_limit_overflow_is_an_error_record(self, report):
        # lambda^n leaves the floats at n = 1024 for S = [0, inf): a bare
        # OverflowError used to abort run_all
        doc = {"type": "sgap", "extra": [], "from": 0}
        rerun = V.run_all(dict(SMALL_CONFIG, sgap_specs=[doc], limit_exact_n=1100))
        errors = [r for r in rerun.records if r.status == "error"]
        assert [r.name for r in errors] == ["counting-limit"]
        assert errors[0].reason.startswith("NumericalError")
        assert "limit_exact_n" in errors[0].reason

    def test_zero_limit_n_names_the_field(self, report):
        # a_{N-1} at N = 0 used to give "length must be nonnegative"
        rerun = V.run_all(dict(SMALL_CONFIG, limit_n=0))
        errors = [r for r in rerun.records if r.status == "error"]
        assert [r.name for r in errors] == ["counting-limit"] * 2
        assert all(r.reason.startswith("SpecFormatError: limit_n") for r in errors)
        # each error record names the spec document it ran on
        assert [json.loads(r.spec) for r in errors] == SMALL_CONFIG["sgap_specs"]
        assert len(rerun.records) == len(report.records)

    def test_value_sweep_over_budget_is_an_error_record(self, report, monkeypatch):
        # 2^31 words used to be swept and memoized; stop a sweep that starts
        sgap_mu, calls = M.sgap_mu, itertools.count()

        def guarded(gaps, w):
            assert next(calls) < 1000, "the value-theorem sweep started"
            return sgap_mu(gaps, w)

        monkeypatch.setattr(M, "sgap_mu", guarded)
        rerun = V.run_all(dict(SMALL_CONFIG, maxlen_value=30))
        errors = [r for r in rerun.records if r.status == "error"]
        assert [r.name for r in errors] == ["value-theorem"] * 2
        assert all(r.reason.startswith("ResourceLimitError") for r in errors)
        assert [json.loads(r.spec) for r in errors] == SMALL_CONFIG["sgap_specs"]
        assert len(rerun.records) == len(report.records)

    def test_synch_truncation_over_budget_is_an_error_record(self, report, monkeypatch):
        # the (maxgap + 1)^2 membership tests used to run unbudgeted (4.5 s at
        # maxgap 320); stop a truncation sweep that starts
        member, calls = S.member, itertools.count()

        def guarded(spec, u):
            assert next(calls) < 50_000, "the truncation sweep started"
            return member(spec, u)

        monkeypatch.setattr(S, "member", guarded)
        rerun = V.run_all(dict(SMALL_CONFIG, synch_maxgap=2048))
        errors = [r for r in rerun.records if r.status == "error"]
        assert [r.name for r in errors] == ["synchronized-formula"] * 2
        assert all(r.reason.startswith("ResourceLimitError: synch_maxgap") for r in errors)
        assert [json.loads(r.spec) for r in errors] == SMALL_CONFIG["sgap_specs"]
        assert len(rerun.records) == len(report.records)
        assert [r.params for r in errors] == [{"u": "0"}] * 2
        # one record per (spec, word), told apart by the word in its params
        words = V.run_all(dict(SMALL_CONFIG, synch_maxgap=2048, synch_words=["0", "1"]))
        errors = [r for r in words.records if r.status == "error"]
        assert [(json.loads(r.spec), r.params) for r in errors] == [
            (doc, {"u": u}) for doc in SMALL_CONFIG["sgap_specs"] for u in ("0", "1")
        ]
        assert len({(r.spec, json.dumps(r.params)) for r in errors}) == len(errors) == 4
        # the bound is (maxgap + 1)^2 <= budget, the table's cells
        monkeypatch.setattr(W, "_SWEEP_BUDGET", 9)
        assert V.check_synch_formula(S.SGapSet((), 1), "01", 2, 1.0).status == "pass"
        with pytest.raises(ResourceLimitError, match="synch_maxgap 3"):
            V.check_synch_formula(S.SGapSet((), 1), "01", 3, 1.0)

    @pytest.mark.parametrize(
        "field, value, name",
        [("maxlen_value", 20000, "value-theorem"),
         ("replacement_u_maxlen", 10000, "replacement-lemmas"),
         ("maxlen_value", 10**12, "value-theorem"),
         ("replacement_u_maxlen", 10**12, "replacement-lemmas"),
         ("replacement_v_maxlen", 10**12, "replacement-lemmas")],
    )
    def test_refusal_past_the_int_to_str_limit_is_an_error_record(self, field, value, name):
        # 2^20001 words or 3^10000 nodes: counts past Python's 4300-digit
        # int-to-str limit, which a message must not format; at 10**12 the
        # refusal must not build the power (2^(10**9) alone took seconds)
        t0 = time.monotonic()
        rerun = V.run_all(dict(SMALL_CONFIG, **{field: value}))
        assert time.monotonic() - t0 < 2.0
        errors = [r for r in rerun.records if r.status == "error"]
        assert {r.name for r in errors} == {name}
        assert all(r.reason.startswith("ResourceLimitError") for r in errors)
        assert all(field.removeprefix("replacement_") in r.reason for r in errors)

    def test_long_synch_word_is_checked(self):
        # mu(0^1500) used to raise RecursionError out of run_all, ending the suite
        config = dict(SMALL_CONFIG, sgap_specs=[{"type": "sgap", "extra": [], "from": 1}],
                      synch_words=["0" * 1500], synch_maxgap=2)
        records = V.run_all(config).records
        synch = [r for r in records if r.name.startswith("synchronized-formula")]
        assert len(synch) == 1 and synch[0].params["u"] == "0" * 1500
        assert all(r.status != "error" for r in records)

    def test_lemma_pool_over_budget_is_refused_before_the_oracle(self, monkeypatch):
        # the pair |v| = |w| = 7 sweeps the words of lengths 7..23, over the
        # budget; the 254-word pool's 64,262 pairs used to reach the oracle
        def oracle(*args):
            raise AssertionError("the oracle was called")

        monkeypatch.setattr(W, "transition_oracle", oracle)
        with pytest.raises(ResourceLimitError):
            V.check_replacement_lemmas(W.BINARY, 7, 4)

    def test_sweep_over_budget_is_an_error_record(self, report):
        broken = V.run_all(dict(SMALL_CONFIG, replacement_u_maxlen=30))
        errors = [r for r in broken.records if r.status == "error"]
        assert [r.name for r in errors] == ["replacement-lemmas"]
        assert errors[0].reason.startswith("ResourceLimitError")
        assert errors[0].params == {}
        assert len(broken.records) == len(report.records)


def _canonical(report) -> str:
    doc = report.to_dict()
    del doc["meta"]["timestamps"]
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.fixture
def reaped():
    """After the test, this process has no child left, reaped or running."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forking(monkeypatch):
    """run_all with its worker forked, whatever the CPU count."""
    monkeypatch.setattr(V, "_can_fork", lambda: True)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: run_all runs every check here")
class TestWorker:
    """The cache-free families (replacement-lemmas, gtheorem-strips) run in a
    forked worker beside the rest of the suite."""

    @pytest.mark.parametrize(
        "config, errors",
        [
            (None, set()),
            (SMALL_CONFIG, set()),
            (dict(SMALL_CONFIG, pair_specs=[{"type": "sft", "alphabet": ["0", "1"]}]),
             {"main-inequality", "equality-corollary"}),
        ],
        ids=["default", "small", "bad-pair-spec"],
    )
    def test_forked_and_serial_reports_are_identical(self, monkeypatch, tmp_path, reaped, config, errors):
        reports = {}
        for forked in (True, False):
            monkeypatch.setattr(V, "_can_fork", lambda forked=forked: forked)
            report = V.run_all(config)
            paths = V.write_csv(report, tmp_path / str(forked))
            csvs = {os.path.basename(p): Path(p).read_bytes() for p in paths}
            assert len(report.meta["timestamps"]["elapsed_s"]) == len(report.records)
            assert {r.name for r in report.records if r.status == "error"} == errors
            reports[forked] = (_canonical(report), csvs)
        assert reports[True] == reports[False]

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="one CPU: run_all runs every check here",
    )
    def test_forks_exactly_once(self, monkeypatch, reaped):
        forks = []
        fork = os.fork

        def spy():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", spy)
        V.run_all(SMALL_CONFIG)
        assert forks == [os.getpid()]

    def test_failed_fork_runs_every_check_here(self, monkeypatch, forking, report, reaped):
        def fork():
            raise BlockingIOError("no process to be had")

        monkeypatch.setattr(os, "fork", fork)
        assert _canonical(V.run_all(SMALL_CONFIG)) == _canonical(report)

    def test_dead_worker_gives_error_records(self, monkeypatch, forking, report, reaped):
        parent = os.getpid()

        def die(*args):
            assert os.getpid() != parent, "the worker's check ran in this process"
            os._exit(3)

        monkeypatch.setattr(V, "check_replacement_lemmas", die)
        rerun = V.run_all(SMALL_CONFIG)
        errors = [r for r in rerun.records if r.status == "error"]
        assert [r.name for r in errors] == ["replacement-lemmas", "gtheorem-strips"]
        assert {r.reason for r in errors} == {"ChildProcessError: the check worker exited with status 3"}
        assert len(rerun.records) == len(rerun.meta["timestamps"]["elapsed_s"]) == len(report.records)
        expected = {r.name: r.status for r in report.records}
        assert all(r.status == expected[r.name] for r in rerun.records if r not in errors)

    def test_untyped_worker_error_propagates(self, monkeypatch, forking, reaped):
        def planted(*args):
            raise LookupError("planted in the worker")

        monkeypatch.setattr(G, "check_gtheorem", planted)
        with pytest.raises(LookupError, match="planted in the worker") as raised:
            V.run_all(SMALL_CONFIG)
        # the worker's traceback comes along
        assert "in planted" in str(raised.value.__cause__)

    def test_untyped_parent_error_still_reaps_the_worker(self, monkeypatch, forking, reaped):
        def planted(*args):
            raise LookupError("planted in the parent")

        monkeypatch.setattr(V, "check_hereditary_entropy", planted)
        with pytest.raises(LookupError, match="planted in the parent"):
            V.run_all(SMALL_CONFIG)
