"""Executable theorem suite: every quantitative statement becomes a check.

Each check pairs two independently computed quantities (formula vs oracle,
root vs eigenvalue, exact count vs scaled DP) and records the residual
against a stated tolerance.  Failures always carry a minimal witness; checks
never abort the suite.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import json
import math
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import extender as E
from . import grid2d as G
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
        return {
            "meta": self.meta,
            "passed": self.passed,
            "checks": [asdict(r) for r in sorted(self.records, key=lambda r: r.name)],
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
            worst_rel = max(worst_rel, abs(exact / lam**n - a[n]) / a[n])
        except OverflowError:
            raise NumericalError(f"|L_{n}| / lambda^{n} overflows; lower limit_exact_n") from None
    record.series["growth"] = {"columns": ["n", "count", "count_over_lambda_n"], "rows": rows}
    _bound(record, "exact vs scaled (relative)", worst_rel, rel_tol, {"worst_relative": worst_rel})
    return record


def check_value_theorem(gaps: S.SGapSet, maxlen: int, tol: float) -> CheckRecord:
    words = 2 ** (maxlen + 1) - 2  # the binary words of lengths 1..maxlen
    if words > W._SWEEP_BUDGET:
        raise ResourceLimitError(f"a sweep of {words} words exceeds the budget; lower maxlen_value")
    record = CheckRecord(
        name=f"value-theorem[S={gaps.describe()}]",
        spec=S.describe(S.SGapShift(gaps)),
        params={"maxlen": maxlen},
        tolerance={"value": tol},
    )
    # the two sides, the recursion of ``sgap_mu`` and the gap-chain oracle of
    # ``sgap_mu_oracle``, each fetched once for the whole sweep
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
    # the table below costs order maxgap^2 word-graph steps; the budget still
    # bounds (maxgap + 1)^3, the steps of one membership test per cell
    if (maxgap + 1) ** 3 > W._SWEEP_BUDGET:
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


def _subset_sweep(record, v, w, u_maxlen: int, alphabet: W.Alphabet, check_inj: bool):
    """One pass over all (u, S), |u| <= u_maxlen: persistence, survival,
    injectivity, preimage; params["sweep nodes"] gains the nodes it visits.

    A node is a nonempty subset S of v's occurrences in u on which
    ``words.replace_seq`` goes through, with its image and failed sites
    (persistence for a site of S, survival for the others); where it breaks
    at a step, S[:step] is a "broken-step" violation in u and its extensions.
    Level L lists its words canonically, word i|A| + c being word i of level
    L - 1 and letter c, and per size m four lists over its nodes: word index,
    S, image, failed.  Node work is left to the words that v ends, at
    t = L - |v|: t sits last in the image of S, so it survives exactly when
    that image ends with v, and S + (t,) takes it with that v spliced to w.
    If v does not overlap itself and |w| >= |v|, no site overlaps t and the
    windows of S leave the v at t intact: t survives, no verdict changes.
    Witnesses come by level, word, then broken, failed, injectivity; the
    preimage ones end the level.  When |w| >= |v| and no node of size m has
    a failed site, an image met once passes: its node holds w at the m
    increasing places s + k(|w| - |v|) of its sites, so C(n, m) >= 1.  A
    level has at most (|A| + 1)^L nodes: mark the first letter of each site.
    """
    k = len(alphabet.symbols)
    nodes = (k + 1) ** u_maxlen
    if nodes > W._SWEEP_BUDGET:
        raise ResourceLimitError(
            f"a subset-sweep level of up to {nodes} nodes exceeds the budget; lower u_maxlen"
        )
    nv, nw = len(v), len(w)
    shift = nw - nv
    # str.count skips overlapping matches, and a w without self-overlap has none
    plain = isinstance(w, str) and not W.self_overlaps(w)
    disjoint = shift >= 0 and not W.self_overlaps(v)  # no site overlaps t; t survives
    letters = list(alphabet.letters.values())
    end = letters.index(v[-1:])

    def failed_sites(img, sub, sites):
        # sites is a tail of the occurrences; m counts the sites of sub to
        # the left, so each site sits at s + m * shift in img
        m = bisect.bisect_left(sub, sites[0]) if sites else 0
        size = len(sub)
        failed = []
        for s in sites:
            p = s + m * shift
            if m < size and sub[m] == s:
                m += 1
                if img[p : p + nw] != w:
                    failed.append(s)
            elif p < 0 or img[p : p + nv] != v:
                failed.append(s)
        return tuple(failed)

    words, occ = [alphabet.empty], [()]
    groups = []  # size m - 1 -> [word index, S, image, failed]
    broken = []  # (word index, S[:step])
    violations = visited = 0
    for L in range(1, u_maxlen + 1):
        t = L - nv
        words = [u + a for u in words for a in letters]
        occ = [o for o in occ for _ in letters]
        groups = [
            [[i * k + c for c in range(k) for i in index], subs * k,
             [x + a for a in letters for x in imgs], fails * k]
            for index, subs, imgs, fails in groups
        ]
        if shift < 0:  # else an old site's window lies in the old image: its verdict stands
            for g in groups:
                g[3] = [failed_sites(x, sub, occ[j]) for j, sub, x in zip(*g[:3])]
        broken = [(i * k + c, sub) for c in range(k) for i, sub in broken]
        # each word that v ends -> its old sites whose windows can reach t: all
        # of them when |w| < |v|, else those that overlap t
        near = {}
        for j in range(end, len(words), k) if t >= 0 else ():
            if words[j][t:] == v:
                near[j] = occ[j][bisect.bisect_right(occ[j], t - nv) if shift >= 0 else 0 :]
                occ[j] += (t,)
        if near:
            groups.append([[], [], [], []])
            for m in range(len(groups) - 2, -1, -1):
                index, subs, imgs, fails = groups[m]
                grown = groups[m + 1]
                n = len(index) // k
                spots = [p for p in range(end * n, end * n + n) if index[p] in near]
                if disjoint:
                    grown[0] += [index[p] for p in spots]
                    grown[1] += [subs[p] + (t,) for p in spots]
                    grown[2] += [imgs[p][:-nv] + w for p in spots]
                    grown[3] += [fails[p] for p in spots]
                    continue
                for p in spots:
                    j, new, img = index[p], subs[p] + (t,), imgs[p]
                    if img[-nv:] != v:
                        fails[p] += (t,)
                        broken.append((j, new))
                        continue
                    spliced = img[:-nv] + w  # t carries w at its end
                    failed, sites = fails[p], near[j]
                    if failed:
                        failed = tuple(s for s in failed if s < (sites[0] if sites else t))
                    failed += failed_sites(spliced, new, sites)
                    for column, x in zip(grown, (j, new, spliced, failed)):
                        column.append(x)
            for j, sites in near.items():  # (t,) from the empty subset
                spliced = words[j][:t] + w
                node = (j, (t,), spliced, failed_sites(spliced, (t,), sites))
                for column, x in zip(groups[0], node):
                    column.append(x)
        found = [(j, 0, {"lemma": "broken-step", "u": words[j], "S": list(sub)})
                 for j, sub in broken]
        visited += len(broken)
        for index, subs, imgs, fails in groups:
            visited += len(index)
            for p in [p for p, failed in enumerate(fails) if failed] if any(fails) else ():
                j, sub = index[p], subs[p]
                for s in fails[p]:
                    lemma = "persistence" if s in sub else "survival"
                    found.append((j, 1, {"lemma": lemma, "u": words[j], "S": list(sub), "m": s}))
            # injectivity: subsets of one size of one u give distinct images
            keys = list(zip(index, imgs)) if check_inj else ()
            if len(set(keys)) < len(keys):
                firsts = {}
                for p, key in enumerate(keys):
                    q = firsts.setdefault(key, p)
                    if q != p:
                        found.append((key[0], 2, {"lemma": "injectivity", "u": words[key[0]],
                                                  "S": list(subs[p]), "S'": list(subs[q])}))
        found.sort(key=lambda e: e[:2])
        for *_, witness in found:
            _fail(record, witness)
        violations += len(found)
        # a preimage of (u', m) has length |u'| - m * shift: all are in this level
        for m, (_, _, imgs, fails) in enumerate(groups if check_inj else (), 1):
            lone = shift >= 0 and not any(fails)
            for img, count in collections.Counter(imgs).items():
                if count == 1 and lone:
                    continue
                bound = math.comb(img.count(w) if plain else len(W.occurrences(img, w)), m)
                if count > bound:
                    violations += 1
                    _fail(record, {"lemma": "preimage", "u'": img, "m": m, "count": count,
                                   "bound": bound})
    record.params["sweep nodes"] = record.params.get("sweep nodes", 0) + visited
    return violations


def check_replacement_lemmas(
    alphabet: W.Alphabet, v_maxlen: int, u_maxlen: int
) -> CheckRecord:
    record = CheckRecord(
        name="replacement-lemmas",
        spec=f"free words over {len(alphabet.symbols)} symbols",
        params={"v_maxlen": v_maxlen, "u_maxlen": u_maxlen},
        tolerance={},
    )
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
            respecting.append((v, w))
    record.params.update({"respecting pairs": len(respecting), "sweep nodes": 0})
    record.residuals["decider vs oracle disagreements"] = disagreements
    record.residuals["lemma violations"] = sum(
        _subset_sweep(record, v, w, u_maxlen, alphabet, W.affix_flags(v, w) == (False, False))
        for v, w in respecting
    )
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


def run_all(config: dict | None = None) -> VerificationReport:
    cfg = merge_config(config)
    tol = cfg["tolerances"]
    records = []
    timings = []  # seconds, one per record

    def run(label, check, doc=None, params=None):
        """Record check()'s record, an error record naming the spec document
        ``doc`` and the ``params`` it ran with, or nothing for None."""
        t0 = time.monotonic()
        try:
            rec = check()
        except SymshiftError as exc:
            rec = CheckRecord(
                name=label,
                spec="" if doc is None else json.dumps(doc, default=repr),
                params={} if params is None else params,
                tolerance={},
                status="error",
                reason=f"{type(exc).__name__}: {exc}",
            )
        if rec is not None:
            timings.append(round(time.monotonic() - t0, 6))
            records.append(rec)

    # spec documents are parsed inside the guard: a bad one becomes error records
    for doc in cfg["pair_specs"]:
        run("main-inequality", lambda: check_main_inequality(
            S.spec_from_dict(doc), cfg["maxlen_pairs"], tol["inequality"]), doc)
        run("equality-corollary", lambda: check_equality_corollary(
            S.spec_from_dict(doc), cfg["maxlen_pairs"], tol["equality"]), doc)

    for doc in cfg["sgap_specs"]:
        run("entropy-root", lambda: check_entropy_root(
            _gaps(doc), tol["root"], tol["entropy_cross"]), doc)
        run("counting-limit", lambda: check_limit(
            _gaps(doc), cfg["limit_n"], cfg["limit_exact_n"], tol["limit"], tol["limit_relative"]),
            doc)
        run("value-theorem", lambda: check_value_theorem(
            _gaps(doc), cfg["maxlen_value"], tol["value"]), doc)

    def synch(doc, u):
        gaps = _gaps(doc)
        # a foreign symbol is an error; a binary word outside the language is no check
        W._check_over(u, W.BINARY)
        if S.member(S.SGapShift(gaps), u):
            return check_synch_formula(gaps, u, cfg["synch_maxgap"], tol["synch"])
        return None

    for doc in cfg["sgap_specs"][:2]:
        for u in cfg["synch_words"]:
            run("synchronized-formula", lambda: synch(doc, u), doc, {"u": u})

    for doc in cfg["hereditary_specs"]:
        run("hereditary-entropy", lambda: check_hereditary_entropy(
            S.spec_from_dict(doc), cfg["hereditary_nmax"], tol["hereditary"]), doc)

    run("replacement-lemmas", lambda: check_replacement_lemmas(
        W.BINARY, cfg["replacement_v_maxlen"], cfg["replacement_u_maxlen"]))

    def gtheorem():
        one = G.Pattern2D((((0, 0), "1"),))
        zero = G.Pattern2D((((0, 0), "0"),))
        gt = G.check_gtheorem(G.hard_square(), one, zero, cfg["strip_widths"], tol["gtheorem"])
        strip = {"columns": ["width", "mu_v", "mu_w"], "rows": gt["series"]["strip"]}
        tolerance = {"inequality": gt["tolerance"]}
        return CheckRecord(**dict(gt, tolerance=tolerance, series={"strip": strip}))

    run("gtheorem-strips", gtheorem)

    # names repeat (error records carry the bare family name), so the times
    # are a list in the order of the report's name-sorted checks
    order = sorted(range(len(records)), key=lambda i: records[i].name)
    meta = {
        "config": cfg,
        "timestamps": {
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "elapsed_s": [timings[i] for i in order],
        },
    }
    return VerificationReport(records=records, meta=meta)


def write_csv(report: VerificationReport, directory) -> list:
    """One CSV per (check, series); returns the paths written."""
    import os

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
