"""Executable theorem suite: every quantitative statement becomes a check.

Each check pairs two independently computed quantities (formula vs oracle,
root vs eigenvalue, exact count vs scaled DP) and records the residual
against a stated tolerance.  Failures always carry a minimal witness; checks
never abort the suite.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import extender as E
from . import grid2d as G
from . import lemma_sweep as LS
from . import mme as M
from . import subshifts as S
from . import words as W
from .errors import NumericalError, ResourceLimitError, SpecFormatError, SymshiftError


@dataclass
class CheckRecord:
    name: str
    spec: str
    params: dict
    tolerance: dict
    residuals: dict = field(default_factory=dict)
    status: str = "pass"
    reason: str = ""
    witnesses: list = field(default_factory=list)
    series: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    records: list
    meta: dict

    @property
    def passed(self) -> bool:
        return all(r.status in ("pass", "skipped") for r in self.records)

    def to_dict(self) -> dict:
        checks = sorted(self.records, key=lambda r: r.name)
        return {
            "meta": self.meta,
            "passed": self.passed,
            "checks": [{f.name: getattr(r, f.name) for f in fields(r)} for r in checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _fail(record: CheckRecord, witness) -> None:
    record.status = "fail"
    record.witnesses.append(witness)


def _bound(record: CheckRecord, key: str, residual: float, tol: float, witness) -> None:
    """Record ``residual`` under ``key``; above ``tol``, or NaN, the check fails
    with ``witness``."""
    record.residuals[key] = residual
    if not residual <= tol:
        _fail(record, witness)


# ---------------------------------------------------------------------------
# Measure inequality / equality under extender containment


class _ClassTable(NamedTuple):
    """The words of L_1..L_maxlen of one spec, grouped into landing classes.

    Each of count, lo, hi, lo_word and hi_word is a (classes x maxlen) grid:
    cell (c, n - 1) holds the count of the words of length n in class c,
    their extreme measures lo <= hi and the words that attain them.  An
    empty cell holds count 0, measures 0.0 and no word.  below[i, j] is
    E(v) subset-or-equal E(w) for v in class i and w in class j.
    """

    h: float
    states: int
    count: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lo_word: np.ndarray
    hi_word: np.ndarray
    below: np.ndarray


def _extremes(cell):
    """(min, max) of a cell's (mu, word) entries.  min and max skip a NaN
    that is not first, so the first NaN entry is taken as both."""
    nan = [e for e in cell if math.isnan(e[0])]
    return (nan[0], nan[0]) if nan else (min(cell), max(cell))


@functools.lru_cache(maxsize=1)
def _landing_classes(spec, maxlen: int) -> _ClassTable | None:
    """The landing-class table of ``spec`` up to ``maxlen``, or None when the
    entropy is not positive.

    Both extender checks read it, and ``run_all`` runs them one after the
    other on each spec, so the table of the last (spec, maxlen) is kept.
    E(v) vs E(w) depends only on the landing rows, so classes are decided
    once, in one ``extender._contains`` pass over their rows.
    """
    h = S.entropy(spec)
    if h <= 1e-12:
        return None
    model = M.parry(spec)
    aut = S.build_automaton(spec)
    class_of = {}  # landing row (bytes) -> class index, in order of first word
    reps = []  # class -> its landing row
    cells = {}  # (class, length - 1) -> [(mu, word), ...]
    for n, words, rows in S._landing_levels(spec, maxlen):
        for u, row in zip(words, rows):
            c = class_of.setdefault(row.tobytes(), len(reps))
            if c == len(reps):
                reps.append(row)
            cells.setdefault((c, n - 1), []).append((M.mu_parry(model, u), u))
    shape = (len(reps), maxlen)
    count, lo, hi = np.zeros(shape, np.int64), np.zeros(shape), np.zeros(shape)
    lo_word, hi_word = np.full(shape, None, object), np.full(shape, None, object)
    for (c, k), cell in cells.items():
        count[c, k] = len(cell)
        (lo[c, k], lo_word[c, k]), (hi[c, k], hi_word[c, k]) = _extremes(cell)
    reps = np.array(reps, dtype=np.intp).reshape(len(reps), len(aut.states))
    below = E._contains(aut._containment_table, reps, reps)
    for array in (count, lo, hi, lo_word, hi_word, below):
        array.flags.writeable = False  # every later check shares the table
    return _ClassTable(h, len(aut.states), count, lo, hi, lo_word, hi_word, below)


def _extender_sweep(spec, maxlen: int, name: str, key: str, tol: float, two_sided: bool) -> CheckRecord:
    """Check mu(v) <= mu(w) e^{h(|w|-|v|)} on the pairs of L_1..L_maxlen with
    E(v) subset-or-equal E(w); when ``two_sided``, on the pairs with E(v) = E(w),
    and equality both ways.

    The words come grouped into landing classes by ``_landing_classes``, and
    every selected class pair is judged on its (|v|, |w|) grid of cells in
    one broadcast; cell pairs with an empty side are masked out.  Rounding
    is monotone, so the worst pair of two cells is found from their extreme
    mu values.  The witnesses follow the class pairs (row-major), then |v|,
    then |w|.
    """
    label = "gap" if two_sided else "excess"
    record = CheckRecord(
        name=f"{name}[{S.describe(spec)}]",
        spec=S.describe(spec),
        params={"maxlen": maxlen},
        tolerance={key: tol},
    )
    table = _landing_classes(spec, maxlen)
    if table is None:
        record.status = "skipped"
        record.reason = "positive-entropy hypothesis fails"
        return record
    I, J = np.nonzero(table.below & table.below.T if two_sided else table.below)
    # math.exp(h d) for d = -maxlen..maxlen: np.exp can differ from it in the last bit
    exps = np.array([math.exp(table.h * d) for d in range(-maxlen, maxlen + 1)])
    n = np.arange(maxlen)
    scale = exps[n - n[:, None] + maxlen]  # scale[a, b] = e^{h(b - a)}
    residual = table.hi[I, :, None] - table.lo[J, None, :] * scale
    swap = np.zeros(residual.shape, dtype=bool)
    if two_sided:
        back = table.hi[J, None, :] * scale - table.lo[I, :, None]
        # negated, so that a NaN is taken and stays the worst
        swap = ~(back <= residual)
        residual = np.where(swap, back, residual)
    live = (table.count[I, :, None] > 0) & (table.count[J, None, :] > 0)
    for p, a, b in np.argwhere(live & ~(residual <= tol)).tolist():
        if swap[p, a, b]:
            v, w = table.lo_word[I[p], a], table.hi_word[J[p], b]
        else:
            v, w = table.hi_word[I[p], a], table.lo_word[J[p], b]
        _fail(record, {"v": W.format_word(v), "w": W.format_word(w), label: float(residual[p, a, b])})
    words = table.count.sum(axis=1)
    record.params["pairs"] = int(np.dot(words[I], words[J]))
    record.params["classes"] = len(table.count)
    record.params["states"] = table.states
    # max propagates a NaN, so a NaN residual is the worst
    record.residuals[f"max {label}"] = float(np.max(residual, initial=0.0, where=live))
    return record


def check_main_inequality(spec, maxlen: int, tol: float) -> CheckRecord:
    return _extender_sweep(spec, maxlen, "main-inequality", "inequality", tol, two_sided=False)


def check_equality_corollary(spec, maxlen: int, tol: float) -> CheckRecord:
    return _extender_sweep(spec, maxlen, "equality-corollary", "equality", tol, two_sided=True)


# ---------------------------------------------------------------------------
# S-gap entropy, counting limit, and measure values


def _root_equation_residual(gaps: S.SGapSet, lam: float) -> float:
    if lam <= 1.0:
        total = float(len(gaps.extra) == 1)
    else:
        total = sum(lam ** (-n - 1) for n in gaps.extra)
        if gaps.cofinite_from is not None:
            total += M.geometric_tail(1.0 / lam, gaps.cofinite_from + 1)
    return abs(total - 1.0)


def check_entropy_root(gaps: S.SGapSet, tol_root: float, tol_cross: float) -> CheckRecord:
    record = CheckRecord(
        name=f"entropy-root[S={gaps.describe()}]",
        spec=S.describe(S.SGapShift(gaps)),
        params={},
        tolerance={"root": tol_root, "cross": tol_cross},
    )
    lam = S.sgap_lambda(gaps)
    _bound(record, "root equation", _root_equation_residual(gaps, lam), tol_root, {"lambda": lam})
    h_graph = math.log(S.perron_eigenvalue(S.SGapShift(gaps)))
    _bound(record, "log-lambda vs graph entropy", abs(math.log(lam) - h_graph), tol_cross,
           {"lambda": lam, "h_graph": h_graph})
    return record


def limit_closed_form(gaps: S.SGapSet) -> float:
    """Limit of |L_n| / lambda^n for mixing S-gap shifts."""
    lam = S.sgap_lambda(gaps)
    mu1 = M.sgap_mu1(gaps)
    base = mu1 * lam / (lam - 1.0) ** 2
    if gaps.finite:
        base *= (1.0 - lam ** (-max(gaps.extra) - 1)) ** 2
    return base


def check_limit(
    gaps: S.SGapSet, N: int, exact_n: int, tol: float, rel_tol: float
) -> CheckRecord:
    if N < 1:
        raise SpecFormatError(f"limit_n must be at least 1, not {N}: a_N is compared with a_(N-1)")
    record = CheckRecord(
        name=f"counting-limit[S={gaps.describe()}]",
        spec=S.describe(S.SGapShift(gaps)),
        params={"N": N, "exact_n": exact_n},
        tolerance={"limit": tol, "cauchy": tol, "exact-vs-scaled (relative)": rel_tol},
    )
    if gaps.gcd_shifted() != 1:
        record.status = "skipped"
        record.reason = f"mixing hypothesis fails: gcd(S+1) = {gaps.gcd_shifted()}"
        return record
    lam = S.sgap_lambda(gaps)
    if lam <= 1.0:
        record.status = "skipped"
        record.reason = "positive-entropy hypothesis fails"
        return record
    spec = S.SGapShift(gaps)
    S._check_steps(spec, N, "limit_n")
    S._check_exact_steps(spec, exact_n, "limit_exact_n")
    # one pass of each DP: a[n] = |L_n| / lambda^n from the scaled one
    a = list(itertools.islice(S._scaled_counts(spec, lam), max(N, exact_n) + 1))
    a_prev, a_N = a[N - 1], a[N]
    cf = limit_closed_form(gaps)
    _bound(record, "|a_N - closed form|", abs(a_N - cf), tol, {"a_N": a_N, "closed_form": cf})
    _bound(record, "|a_N - a_{N-1}|", abs(a_N - a_prev), tol, {"a_N": a_N, "a_prev": a_prev})
    rows = []
    worst_rel = 0.0
    for n, exact in enumerate(itertools.islice(S._counts(spec), 1, exact_n + 1), 1):
        rows.append([n, exact, a[n]])
        try:
            rel = abs(exact / lam**n - a[n]) / a[n]
        except OverflowError:
            raise NumericalError(f"|L_{n}| / lambda^{n} overflows; lower limit_exact_n") from None
        if not (rel <= worst_rel or math.isnan(worst_rel)):  # a NaN stays the worst
            worst_rel = rel
    record.series["growth"] = {"columns": ["n", "count", "count_over_lambda_n"], "rows": rows}
    _bound(record, "exact vs scaled (relative)", worst_rel, rel_tol, {"worst_relative": worst_rel})
    return record


def check_value_theorem(gaps: S.SGapSet, maxlen: int, tol: float) -> CheckRecord:
    W._check_sweep(2, 1, maxlen, "maxlen_value")  # the binary words of lengths 1..maxlen
    record = CheckRecord(
        name=f"value-theorem[S={gaps.describe()}]",
        spec=S.describe(S.SGapShift(gaps)),
        params={"maxlen": maxlen},
        tolerance={"value": tol},
    )
    # the two sides: the closed-form certificates of ``sgap_mu``, each key
    # built and evaluated once in this sweep, and the presentation's Parry
    # model that ``sgap_mu_oracle`` reads, read off whole levels
    model, presented = M.sgap_model(gaps), M.parry(S.SGapShift(gaps))
    mu1_gap = abs(M.sgap_mu1(gaps) - M.mu_parry(presented, "1"))
    _bound(record, "mu(1) formula vs oracle", mu1_gap, tol, {"word": "1"})
    worst = 0.0
    integral = True
    values = {}  # certificate key -> its value
    for n, oracle in enumerate(M._level_measures(presented, maxlen), 1):
        for w, mu in zip(W.BINARY.words(n), oracle):
            key = model._key(w)
            value = values.get(key)
            if value is None:
                cert = model._build(key)
                value = values[key] = cert.evaluate(model.mu1, model.t)
                if not (
                    isinstance(cert.offset, int)
                    and all(isinstance(c, int) for c in cert.coeffs)
                ):
                    integral = False
                    _fail(record, {"word": w, "certificate": "non-integral"})
            gap = abs(value - mu)
            if not (gap <= worst or math.isnan(worst)):  # a NaN stays the worst
                worst = gap
                if not gap <= tol:
                    _fail(record, {"word": w, "gap": gap})
    record.residuals["max |recursion - oracle|"] = worst
    record.params["certificates integral"] = integral
    return record


def check_synch_formula(gaps: S.SGapSet, u: str, maxgap: int, tol: float) -> CheckRecord:
    # the table below costs (maxgap + 1)^2 word-graph steps at most
    if (maxgap + 1) ** 2 > W._SWEEP_BUDGET:
        raise ResourceLimitError(f"synch_maxgap {maxgap} exceeds the budget of the truncation sweep")
    record = CheckRecord(
        name=f"synchronized-formula[S={gaps.describe()},u={u}]",
        spec=S.describe(S.SGapShift(gaps)),
        params={"u": u, "maxgap": maxgap},
        tolerance={"truncation": tol},
    )
    spec = S.SGapShift(gaps)
    if not S.member(spec, u):
        record.status = "error"
        record.reason = f"{u!r} is not in the language"
        return record
    model = M.sgap_model(gaps)
    mu1, t = model.mu1, model.t
    graph = S.build_automaton(spec).word_graph
    # ring[g] sums the terms with max(a, b) = g, so T(g) = T(g - 1) + ring[g]
    ring = [0.0] * (maxgap + 1)
    for a in range(maxgap + 1):
        # row a: from the node of 1 0^a u, cell b is legal when the node of
        # 1 0^a u 0^b has a 1 edge; a dead node ends the row, as every later
        # word of it contains the dead prefix
        node = S._walk(graph, 0, "1" + "0" * a + u)
        for b in range(maxgap + 1):
            if node is None:
                break
            if "1" in graph[node]:
                ring[max(a, b)] += mu1 * t ** (a + b + len(u) + 1)
            node = graph[node].get("0")
    partial = list(itertools.accumulate(ring))
    rows = [[g, total] for g, total in enumerate(partial)]
    record.series["truncation"] = {"columns": ["maxgap", "partial_sum"], "rows": rows}
    # float sums of terms >= 0 never decrease, so the partial sums are monotone
    # exactly when every ring is >= 0; a NaN ring fails here too
    if not all(total >= 0.0 for total in ring):
        _fail(record, {"monotonicity": "violated"})
    target, _ = M.sgap_mu(gaps, u)
    _bound(record, "|T(maxgap) - mu(u)|", abs(partial[-1] - target), tol,
           {"T": partial[-1], "mu": target})
    return record


# ---------------------------------------------------------------------------
# Hereditary entropy bounds


def check_hereditary_entropy(spec, n_max: int, tol: float) -> CheckRecord:
    record = CheckRecord(
        name=f"hereditary-entropy[{S.describe(spec)}]",
        spec=S.describe(spec),
        params={"n_max": n_max, "specification_distance": 1},
        tolerance={"bound": tol},
    )
    # the alphabet's first symbol plays 0, as in the insertion sweep, which stops
    # at length 6; the ratios below read 0^(n_max+1) and 0^2
    low, *others = spec.alphabet.symbols
    zero = spec.alphabet.letters[low]
    if not (
        S.is_i_hereditary_bounded(spec, max_len=6)
        and S.member(spec, zero * (max(n_max, 1) + 1))
    ):
        record.status = "skipped"
        record.reason = "insertion-hereditary sweep fails"
        return record
    h = S.entropy(spec)
    model = M.parry(spec)

    def log_ratio(n):
        # mu(0^(n+1)) <= mu(0^n); below the normal floats it has lost its digits
        small = M.mu_parry(model, zero * (n + 1))
        if small < sys.float_info.min:
            raise NumericalError(f"mu({low}^{n + 1}) is subnormal at n = {n}; lower n_max")
        return math.log(M.mu_parry(model, zero * n) / small)

    worst = 0.0
    for n in range(1, n_max + 1):
        ratio = log_ratio(n)
        excess = ratio - h
        if not (excess <= worst or math.isnan(worst)):  # a NaN stays the worst
            worst = excess
            if not excess <= tol:
                _fail(record, {"n": n, "log ratio": ratio, "h": h})
    record.residuals["max(log ratio - h)"] = worst
    if S.specification_distance_holds(spec, 1):
        ratio = log_ratio(1)
        _bound(record, "|h - log ratio| at specification distance", abs(h - ratio), tol,
               {"N": 1, "log ratio": ratio, "h": h})
    else:
        record.params["specification_holds"] = False
    mu_zero = M.mu_parry(model, zero)
    for a in others:
        mu_a = M.mu_parry(model, spec.alphabet.letters[a])
        _bound(record, f"mu({a}) - mu({low})", mu_a - mu_zero, tol,
               {f"mu({a})": mu_a, f"mu({low})": mu_zero})
    return record


# ---------------------------------------------------------------------------
# Replacement calculus lemmas


def _subset_sweep(record, pairs, u_maxlen: int, alphabet: W.Alphabet) -> int:
    """Check persistence, survival, injectivity and the preimage bound on
    every (u, S), |u| <= u_maxlen, of each (v, w, check_inj) of ``pairs``,
    by ``lemma_sweep.sweep``; return the violations.  The witnesses go to
    ``record`` pair by pair, in the order ``sweep`` gives (level, word,
    kind, then colex on S), and params["sweep nodes"] gains the nodes
    visited.  ``lemma_sweep`` holds the integer codes of a node, the passes
    and the rule that moves a pass to Python ints.  A level holds at most
    (|A| + 1)^L nodes: mark the first letter of each site.
    """
    if pairs:
        W._check_sweep(len(alphabet.symbols) + 1, u_maxlen, u_maxlen, "u_maxlen")
    found, visited = LS.sweep(pairs, u_maxlen, alphabet)
    for witnesses in found:
        for witness in witnesses:
            _fail(record, witness)
    record.params["sweep nodes"] = record.params.get("sweep nodes", 0) + visited
    return sum(map(len, found))


def check_replacement_lemmas(
    alphabet: W.Alphabet, v_maxlen: int, u_maxlen: int
) -> CheckRecord:
    record = CheckRecord(
        name="replacement-lemmas",
        spec=f"free words over {len(alphabet.symbols)} symbols",
        params={"v_maxlen": v_maxlen, "u_maxlen": u_maxlen},
        tolerance={},
    )
    # the oracle's largest sweep is the pair with |v| = |w| = v_maxlen: refused
    # here, before the pool and its ordered pairs are listed
    W._check_sweep(len(alphabet.symbols), v_maxlen, 3 * v_maxlen + 2, "v_maxlen")
    pool = [u for n in range(1, v_maxlen + 1) for u in alphabet.words(n)]
    pairs = [(v, w) for v, w in itertools.product(pool, repeat=2) if v != w]
    oracle = W.transition_oracle({(v, w): 2 * len(v) + len(w) + 2 for v, w in pairs}, alphabet)
    disagreements = 0
    respecting = []
    for v, w in pairs:
        ok_exact, _ = W.respects_transition_exact(v, w)
        ok_oracle, _ = oracle[v, w]
        if ok_exact != ok_oracle:
            disagreements += 1
            _fail(record, {"lemma": "decider-vs-oracle", "v": v, "w": w})
        if ok_exact:
            respecting.append((v, w, W.affix_flags(v, w) == (False, False)))
    record.params.update({"respecting pairs": len(respecting), "sweep nodes": 0})
    record.residuals["decider vs oracle disagreements"] = disagreements
    record.residuals["lemma violations"] = _subset_sweep(record, respecting, u_maxlen, alphabet)
    return record


# ---------------------------------------------------------------------------
# Suite driver


DEFAULT_CONFIG = {
    "maxlen_pairs": 5,
    "maxlen_value": 8,
    "limit_n": 200,
    "limit_exact_n": 40,
    "synch_maxgap": 40,
    "synch_words": ["0", "01", "1"],
    "hereditary_nmax": 8,
    "replacement_v_maxlen": 2,
    "replacement_u_maxlen": 8,
    "strip_widths": [4, 6],
    "tolerances": {
        "inequality": 1e-12,
        "equality": 1e-9,
        "root": 1e-12,
        "entropy_cross": 1e-10,
        "limit": 1e-3,
        "limit_relative": 1e-9,
        "value": 1e-9,
        "synch": 1e-6,
        "hereditary": 1e-9,
        "gtheorem": 1e-12,
    },
    "sgap_specs": [
        {"type": "sgap", "finite": [0, 1]},
        {"type": "sgap", "finite": [1, 3]},
        {"type": "sgap", "finite": [0, 2, 3]},
        {"type": "sgap", "extra": [], "from": 1},
        {"type": "sgap", "extra": [2], "from": 5},
    ],
    "pair_specs": [
        {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
        {"type": "sgap", "finite": [0, 1]},
    ],
    "hereditary_specs": [
        {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
        {"type": "full", "alphabet": ["0", "1"]},
    ],
}


# the entry type of each list field that is not a list of spec documents
_ENTRY_TYPES = {"synch_words": str, "strip_widths": int}


def merge_config(overrides: dict | None) -> dict:
    """DEFAULT_CONFIG with ``overrides`` applied; a bad field raises SpecFormatError.

    Fields whose default is an integer take integers >= 0, list fields take
    lists (of ``_ENTRY_TYPES`` entries where one is named), and tolerances
    take real numbers.
    """
    config = json.loads(json.dumps(DEFAULT_CONFIG))
    if overrides is None:
        return config
    if not isinstance(overrides, dict):
        raise SpecFormatError(f"config must be an object, not {overrides!r}")
    unknown = set(overrides) - set(DEFAULT_CONFIG)
    if unknown:
        raise SpecFormatError(f"unknown config fields: {sorted(unknown)}")
    for key, value in overrides.items():
        default = DEFAULT_CONFIG[key]
        if key == "tolerances":
            if not isinstance(value, dict):
                raise SpecFormatError(f"tolerances must be an object, not {value!r}")
            bad = set(value) - set(default)
            if bad:
                raise SpecFormatError(f"unknown tolerance fields: {sorted(bad)}")
            for name, tol in value.items():
                if isinstance(tol, bool) or not isinstance(tol, (int, float)) or math.isnan(tol):
                    raise SpecFormatError(f"tolerance {name!r} must be a real number, not {tol!r}")
            config["tolerances"].update(value)
            continue
        if isinstance(default, list):
            if not isinstance(value, list):
                raise SpecFormatError(f"config field {key!r} must be a list, not {value!r}")
            # spec documents are parsed later, inside each check's guard
            kind = _ENTRY_TYPES.get(key)
            if kind and any(isinstance(x, bool) or not isinstance(x, kind) for x in value):
                raise SpecFormatError(
                    f"config field {key!r} takes {kind.__name__} entries, not {value!r}"
                )
        elif not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise SpecFormatError(f"config field {key!r} must be an integer >= 0, not {value!r}")
        config[key] = value
    return config


def _gaps(doc) -> S.SGapSet:
    spec = S.spec_from_dict(doc)
    if not isinstance(spec, S.SGapShift):
        raise SpecFormatError(f"sgap_specs entries must have type 'sgap', not {doc['type']!r}")
    return spec.gaps


def _error_record(label: str, doc, params, exc: BaseException) -> CheckRecord:
    """The record of a check that raised ``exc``: it names the family
    ``label``, the spec document ``doc`` and the ``params`` it ran with."""
    return CheckRecord(
        name=label,
        spec="" if doc is None else json.dumps(doc, default=repr),
        params={} if params is None else params,
        tolerance={},
        status="error",
        reason=f"{type(exc).__name__}: {exc}",
    )


def run_all(config: dict | None = None) -> VerificationReport:
    cfg = merge_config(config)
    tol = cfg["tolerances"]
    records, elapsed = [], []

    def run(label: str, check, doc=None, params=None):
        """Run ``check`` now and keep its record, or an error record for a
        SymshiftError, with the seconds it took; a check that returns None
        keeps nothing.  Spec documents are parsed inside ``check``, so a bad
        one becomes error records, and as ``check`` runs where it is listed
        it reads the loop's current document."""
        t0 = time.monotonic()
        try:
            rec = check()
        except SymshiftError as exc:
            rec = _error_record(label, doc, params, exc)
        if rec is not None:
            records.append(rec)
            elapsed.append(round(time.monotonic() - t0, 6))

    def synch(gaps, u):
        # a foreign symbol is an error; a binary word outside the language is no check
        W._check_over(u, W.BINARY)
        if S.member(S.SGapShift(gaps), u):
            return check_synch_formula(gaps, u, cfg["synch_maxgap"], tol["synch"])
        return None

    def gtheorem():
        one = G.Pattern2D((((0, 0), "1"),))
        zero = G.Pattern2D((((0, 0), "0"),))
        gt = G.check_gtheorem(G.hard_square(), one, zero, cfg["strip_widths"], tol["gtheorem"])
        strip = {"columns": ["width", "mu_v", "mu_w"], "rows": gt["series"]["strip"]}
        tolerance = {"inequality": gt["tolerance"]}
        return CheckRecord(**dict(gt, tolerance=tolerance, series={"strip": strip}))

    for doc in cfg["pair_specs"]:
        run("main-inequality", lambda: check_main_inequality(
            S.spec_from_dict(doc), cfg["maxlen_pairs"], tol["inequality"]), doc)
        run("equality-corollary", lambda: check_equality_corollary(
            S.spec_from_dict(doc), cfg["maxlen_pairs"], tol["equality"]), doc)
    for doc in cfg["sgap_specs"]:
        run("entropy-root", lambda: check_entropy_root(_gaps(doc), tol["root"], tol["entropy_cross"]), doc)
        run("counting-limit", lambda: check_limit(
            _gaps(doc), cfg["limit_n"], cfg["limit_exact_n"], tol["limit"], tol["limit_relative"]), doc)
        run("value-theorem", lambda: check_value_theorem(_gaps(doc), cfg["maxlen_value"], tol["value"]), doc)
    for doc in cfg["sgap_specs"][:2]:
        for u in cfg["synch_words"]:
            run("synchronized-formula", lambda: synch(_gaps(doc), u), doc, {"u": u})
    for doc in cfg["hereditary_specs"]:
        run("hereditary-entropy", lambda: check_hereditary_entropy(
            S.spec_from_dict(doc), cfg["hereditary_nmax"], tol["hereditary"]), doc)
    run("replacement-lemmas", lambda: check_replacement_lemmas(
        W.BINARY, cfg["replacement_v_maxlen"], cfg["replacement_u_maxlen"]))
    run("gtheorem-strips", gtheorem)

    # names repeat (error records carry the bare family name), so the times
    # are a list in the order of the report's name-sorted checks
    order = sorted(range(len(records)), key=lambda i: records[i].name)
    meta = {
        "config": cfg,
        "timestamps": {
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "elapsed_s": [elapsed[i] for i in order],
        },
    }
    return VerificationReport(records=records, meta=meta)


def write_csv(report: VerificationReport, directory) -> list:
    """One CSV per (check, series); returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for rec in sorted(report.records, key=lambda r: r.name):
        for series_name, series in sorted(rec.series.items()):
            slug = re.sub(r"[^A-Za-z0-9._-]+", "_", f"{rec.name}.{series_name}")
            path = os.path.join(directory, slug + ".csv")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(",".join(series["columns"]) + "\n")
                for row in series["rows"]:
                    fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")
            written.append(path)
    return written
