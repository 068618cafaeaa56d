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
import pickle
import re
import sys
import threading
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

    Class c owns the length buckets first[c] .. first[c] + buckets[c] - 1, in
    increasing word length; bucket b holds the count[b] words of length
    length[b] in the class, with extreme measures lo[b] <= hi[b] attained by
    the words lo_word[b] and hi_word[b] (formatted).  below[i, j] is
    E(v) subset-or-equal E(w) for v in class i and w in class j.
    """

    h: float
    states: int
    first: np.ndarray
    buckets: np.ndarray
    length: np.ndarray
    count: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lo_word: tuple
    hi_word: tuple
    below: np.ndarray


def _extremes(bucket):
    """(min, max) of a bucket's (mu, word) entries.  min and max skip a NaN
    that is not first, so the first NaN entry is taken as both."""
    nan = [e for e in bucket if math.isnan(e[0])]
    return (nan[0], nan[0]) if nan else (min(bucket), max(bucket))


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
    classes = []  # class -> length -> [(mu, word), ...]
    for n, words, rows in S._landing_levels(spec, maxlen):
        for u, row in zip(words, rows):
            c = class_of.setdefault(row.tobytes(), len(reps))
            if c == len(reps):
                reps.append(row)
                classes.append({})
            classes[c].setdefault(n, []).append((M.mu_parry(model, u), u))
    buckets = [(n, len(b), *_extremes(b)) for by_len in classes for n, b in by_len.items()]
    sizes = np.array([len(by_len) for by_len in classes], dtype=np.intp)
    reps = np.array(reps, dtype=np.intp).reshape(len(reps), len(aut.states))

    def frozen(values, dtype):
        # read-only, as every later check shares the table
        array = np.array(values, dtype=dtype)
        array.flags.writeable = False
        return array

    return _ClassTable(
        h=h,
        states=len(aut.states),
        first=frozen(np.cumsum(sizes) - sizes, np.intp),
        buckets=frozen(sizes, np.intp),
        length=frozen([b[0] for b in buckets], np.intp),
        count=frozen([b[1] for b in buckets], np.int64),
        lo=frozen([b[2][0] for b in buckets], float),
        hi=frozen([b[3][0] for b in buckets], float),
        lo_word=tuple(W.format_word(b[2][1]) for b in buckets),
        hi_word=tuple(W.format_word(b[3][1]) for b in buckets),
        below=frozen(E._contains(aut._containment_table, reps, reps), bool),
    )


def _extender_sweep(spec, maxlen: int, name: str, key: str, tol: float, two_sided: bool) -> CheckRecord:
    """Check mu(v) <= mu(w) e^{h(|w|-|v|)} on the pairs of L_1..L_maxlen with
    E(v) subset-or-equal E(w); when ``two_sided``, on the pairs with E(v) = E(w),
    and equality both ways.

    The words come grouped into landing classes by ``_landing_classes``, and
    every selected class pair x length-bucket pair is judged in one array
    pass.  Rounding is monotone, so the worst pair of two length buckets is
    found from their extreme mu values.  The pairs run in the order of a
    loop over the class pairs (row-major) and, within one, over the bucket
    pairs of the two classes (as ``itertools.product``); the witnesses
    follow it.
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
    # class pair p spans size[p] bucket pairs; bucket pair k of it is
    # (k // buckets of J, k % buckets of J) from the two classes' first buckets
    cols = table.buckets[J]
    size = table.buckets[I] * cols
    k = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    cols = np.repeat(cols, size)
    bv = np.repeat(table.first[I], size) + k // cols
    bw = np.repeat(table.first[J], size) + k % cols
    # math.exp(h d) for d = -maxlen..maxlen: np.exp can differ from it in the last bit
    exps = np.array([math.exp(table.h * d) for d in range(-maxlen, maxlen + 1)])
    scale = exps[table.length[bw] - table.length[bv] + maxlen]
    residual = table.hi[bv] - table.lo[bw] * scale
    swap = np.zeros(len(residual), dtype=bool)
    if two_sided:
        back = table.hi[bw] * scale - table.lo[bv]
        # negated, so that a NaN is taken and stays the worst
        swap = ~(back <= residual)
        residual = np.where(swap, back, residual)
    for i in np.flatnonzero(~(residual <= tol)).tolist():
        b, c = bv[i], bw[i]
        if swap[i]:
            v, w = table.lo_word[b], table.hi_word[c]
        else:
            v, w = table.hi_word[b], table.lo_word[c]
        _fail(record, {"v": v, "w": w, label: float(residual[i])})
    record.params["pairs"] = int(np.dot(table.count[bv], table.count[bw]))
    record.params["classes"] = len(table.first)
    record.params["states"] = table.states
    # max propagates a NaN, so a NaN residual is the worst
    record.residuals[f"max {label}"] = float(np.max(residual, initial=0.0))
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
    # the two sides, the closed-form certificates of ``sgap_mu`` and the
    # gap-chain oracle of ``sgap_mu_oracle``, each fetched once for the sweep
    model, chain = M.sgap_model(gaps), M.gap_chain(gaps)
    mu1_gap = abs(M.sgap_mu1(gaps) - M.mu_parry(chain, "1"))
    _bound(record, "mu(1) formula vs oracle", mu1_gap, tol, {"word": "1"})
    worst = 0.0
    integral = True
    for n in range(1, maxlen + 1):
        for w in W.BINARY.words(n):
            cert = model.certificate(w)
            gap = abs(cert.evaluate(model.mu1, model.t) - M.mu_parry(chain, w))
            if not (gap <= worst or math.isnan(worst)):  # a NaN stays the worst
                worst = gap
                if not gap <= tol:
                    _fail(record, {"word": w, "gap": gap})
            if not (
                isinstance(cert.offset, int)
                and all(isinstance(c, int) for c in cert.coeffs)
            ):
                integral = False
                _fail(record, {"word": w, "certificate": "non-integral"})
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


def _guarded(label: str, check, doc=None, params=None):
    """(check()'s record, the seconds it took), with an error record for a
    SymshiftError; None when check() returns None."""
    t0 = time.monotonic()
    try:
        rec = check()
    except SymshiftError as exc:
        rec = _error_record(label, doc, params, exc)
    return None if rec is None else (rec, round(time.monotonic() - t0, 6))


def _can_fork() -> bool:
    """A second CPU to run on, and no other thread that a fork would copy in
    mid-step.  os.sched_getaffinity exists on Linux only, which keeps the
    fork off macOS and Windows."""
    return (
        hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _beside(here, there):
    """(here(), there()), with there() run in a forked child when
    ``_can_fork`` allows and the fork succeeds, and else after here() in
    this process.

    The child pickles there()'s result, or the exception it raised, into a
    pipe and always leaves through os._exit; this process runs here(), then
    reads the pipe to EOF and reaps the child, also when here() raises.  An
    exception of there() is raised again here, from the child's traceback;
    a child that exits without a result (it died, or its result would not
    pickle) gives a ChildProcessError naming its exit status as there()'s
    result.
    """
    if not _can_fork():
        return here(), there()
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: both run here
        os.close(read_end)
        os.close(write_end)
        return here(), there()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                payload = (there(), None)
            except BaseException as exc:  # the parent raises it: the child never unwinds into the caller
                import traceback

                payload = (exc, "".join(traceback.format_exception(exc)))
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(payload, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        ours = here()
    finally:
        with os.fdopen(read_end, "rb") as pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        return ours, ChildProcessError(f"the check worker exited with status {code}")
    theirs, trace = pickle.loads(data)
    if trace is not None:
        raise theirs from ChildProcessError(f"in the check worker:\n{trace}")
    return ours, theirs


def run_all(config: dict | None = None) -> VerificationReport:
    cfg = merge_config(config)
    tol = cfg["tolerances"]

    def synch(doc, u):
        gaps = _gaps(doc)
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

    # (family, check, spec document, params) in report order, each check bound
    # to its spec document now; spec documents are parsed inside the guard,
    # so a bad one becomes error records
    jobs = []
    for doc in cfg["pair_specs"]:
        jobs.append(("main-inequality", lambda doc=doc: check_main_inequality(
            S.spec_from_dict(doc), cfg["maxlen_pairs"], tol["inequality"]), doc, None))
        jobs.append(("equality-corollary", lambda doc=doc: check_equality_corollary(
            S.spec_from_dict(doc), cfg["maxlen_pairs"], tol["equality"]), doc, None))
    for doc in cfg["sgap_specs"]:
        jobs.append(("entropy-root", lambda doc=doc: check_entropy_root(
            _gaps(doc), tol["root"], tol["entropy_cross"]), doc, None))
        jobs.append(("counting-limit", lambda doc=doc: check_limit(
            _gaps(doc), cfg["limit_n"], cfg["limit_exact_n"], tol["limit"], tol["limit_relative"]),
            doc, None))
        jobs.append(("value-theorem", lambda doc=doc: check_value_theorem(
            _gaps(doc), cfg["maxlen_value"], tol["value"]), doc, None))
    for doc in cfg["sgap_specs"][:2]:
        for u in cfg["synch_words"]:
            jobs.append(("synchronized-formula", functools.partial(synch, doc, u), doc, {"u": u}))
    for doc in cfg["hereditary_specs"]:
        jobs.append(("hereditary-entropy", lambda doc=doc: check_hereditary_entropy(
            S.spec_from_dict(doc), cfg["hereditary_nmax"], tol["hereditary"]), doc, None))
    # the families that read no presentation cache come last, and a worker
    # runs them beside the rest, which share build_automaton, sgap_model,
    # gap_chain and _landing_classes
    worker = [
        ("replacement-lemmas", functools.partial(
            check_replacement_lemmas, W.BINARY, cfg["replacement_v_maxlen"], cfg["replacement_u_maxlen"]),
            None, None),
        ("gtheorem-strips", gtheorem, None, None),
    ]
    start = time.monotonic()
    ours, theirs = _beside(
        lambda: [_guarded(*job) for job in jobs], lambda: [_guarded(*job) for job in worker]
    )
    if isinstance(theirs, ChildProcessError):  # each of the worker's checks is an error record
        seconds = round(time.monotonic() - start, 6)
        theirs = [(_error_record(label, doc, params, theirs), seconds) for label, _, doc, params in worker]
    done = [result for result in ours + theirs if result is not None]
    records = [rec for rec, _ in done]

    # names repeat (error records carry the bare family name), so the times
    # are a list in the order of the report's name-sorted checks
    order = sorted(range(len(records)), key=lambda i: records[i].name)
    meta = {
        "config": cfg,
        "timestamps": {
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "elapsed_s": [done[i][1] for i in order],
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
