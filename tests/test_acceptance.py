"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; every test prints a
summary line with the measured residuals and elapsed time.
"""

import itertools
import json
import math
import random
import time

import pytest

from symshift import extender as E
from symshift import grid2d as G
from symshift import mme as M
from symshift import subshifts as S
from symshift import verify as V
from symshift import words as W

PHI = (1 + math.sqrt(5)) / 2

GOLDEN = S.SftShift(W.BINARY, ("11",))

GAP_SETS = [
    S.SGapSet((0, 1)),
    S.SGapSet((1, 3)),
    S.SGapSet((0, 2, 3)),
    S.SGapSet((), 1),
    S.SGapSet((2,), 5),
]


def summarize(criterion: str, elapsed: float, detail: str) -> None:
    print(f"[{criterion}] PASS in {elapsed:.2f}s -- {detail}")


def test_criterion_01_extender_chain():
    t0 = time.monotonic()
    chain = [
        (("1", "01"), E.PROPER_SUBSET),
        (("01", "000"), E.PROPER_SUBSET),
        (("000", "0"), E.EQUAL),
        (("1", "0"), E.PROPER_SUBSET),
    ]
    for (v, w), expected in chain:
        assert E.extender_compare(GOLDEN, v, w) == expected, (v, w)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    summarize("criterion 01 extender chain", elapsed, "4/4 decisions exact")


def test_criterion_02_entropy_cross_checks():
    t0 = time.monotonic()
    worst_cross = worst_root = 0.0
    for gaps in GAP_SETS:
        lam = S.sgap_lambda(gaps)
        h_graph = math.log(S.perron_eigenvalue(S.SGapShift(gaps)))
        worst_cross = max(worst_cross, abs(math.log(lam) - h_graph))
        root = sum(lam ** (-n - 1) for n in gaps.extra)
        if gaps.cofinite_from is not None:
            root += M.geometric_tail(1 / lam, gaps.cofinite_from + 1)
        worst_root = max(worst_root, abs(root - 1.0))
    assert worst_cross <= 1e-10
    assert worst_root <= 1e-12
    assert abs(S.entropy(GOLDEN) - math.log(PHI)) <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    summarize(
        "criterion 02 entropy cross-check",
        elapsed,
        f"max cross {worst_cross:.2e}, max root residual {worst_root:.2e}",
    )


def test_criterion_03_value_theorem():
    t0 = time.monotonic()
    worst = 0.0
    for gaps in GAP_SETS:
        assert abs(M.sgap_mu1(gaps) - M.sgap_mu_oracle(gaps, "1")) <= 1e-9
        model = M.sgap_model(gaps)
        for n in range(1, 11):
            for w in W.BINARY.words(n):
                cert = model.certificate(w)
                assert isinstance(cert.offset, int)
                assert all(isinstance(c, int) for c in cert.coeffs)
                gap = abs(cert.evaluate(model.mu1, model.t) - M.sgap_mu_oracle(gaps, w))
                worst = max(worst, gap)
    assert worst <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    summarize(
        "criterion 03 value theorem",
        elapsed,
        f"max |recursion - oracle| {worst:.2e} over |w| <= 10, 5 gap sets",
    )


def test_criterion_04_counting_limit():
    t0 = time.monotonic()
    details = []
    for gaps in [S.SGapSet((), 1), S.SGapSet((0, 1)), S.SGapSet((0, 2, 3))]:
        spec = S.SGapShift(gaps)
        lam = S.sgap_lambda(gaps)
        scaled = list(itertools.islice(S._scaled_counts(spec, lam), 201))
        a_200 = scaled[200]
        cf = V.limit_closed_form(gaps)
        assert abs(a_200 - cf) <= 1e-3, gaps.describe()
        worst_rel = max(
            abs(S.count_words(spec, n) / lam**n - scaled[n]) / scaled[n] for n in range(1, 61)
        )
        assert worst_rel <= 1e-9
        details.append(f"{gaps.describe()}: |a_200-cf|={abs(a_200 - cf):.1e}")
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    summarize("criterion 04 counting limit", elapsed, "; ".join(details))


def test_criterion_05_main_inequality():
    t0 = time.monotonic()
    worst_excess = worst_eq = 0.0
    for spec in (GOLDEN, S.SGapShift(S.SGapSet((0, 1)))):
        h = S.entropy(spec)
        model = M.parry(spec)
        language = [w for n in range(1, 7) for w in S.enumerate_words(spec, n)]
        mu = {w: M.mu_parry(model, w) for w in language}
        for v, w in itertools.product(language, repeat=2):
            rel = E.extender_compare(spec, v, w)
            if rel in (E.PROPER_SUBSET, E.EQUAL):
                scaled = mu[w] * math.exp(h * (len(w) - len(v)))
                worst_excess = max(worst_excess, mu[v] - scaled)
                if rel == E.EQUAL:
                    worst_eq = max(worst_eq, abs(mu[v] - scaled))
    assert worst_excess <= 1e-12
    assert worst_eq <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    summarize(
        "criterion 05 main inequality",
        elapsed,
        f"max excess {worst_excess:.2e}, max equality gap {worst_eq:.2e}",
    )


def test_criterion_06_replacement_calculus():
    t0 = time.monotonic()
    # exact decider vs brute-force oracle, |v|,|w| <= 4
    pool4 = [u for n in range(1, 5) for u in W.BINARY.words(n)]
    pairs4 = [(v, w) for v, w in itertools.product(pool4, repeat=2) if v != w]
    oracle = W.transition_oracle({(v, w): 2 * len(v) + len(w) + 2 for v, w in pairs4})
    disagreements = 0
    for v, w in pairs4:
        exact, _ = W.respects_transition_exact(v, w)
        if exact != oracle[v, w][0]:
            disagreements += 1
    assert disagreements == 0
    # lemma sweeps over respecting pairs, |v|,|w| <= 3
    pool3 = [u for n in range(1, 4) for u in W.BINARY.words(n)]
    respecting = [
        (v, w)
        for v, w in itertools.product(pool3, repeat=2)
        if v != w and W.respects_transition_exact(v, w)[0]
    ]
    inj_pairs = [p for p in respecting if W.affix_flags(*p) == (False, False)]
    # injectivity + preimage exhaustively at |u| <= 12, then persistence +
    # survival on the rest of the pairs, one sweep each
    rest = [p for p in respecting if p not in inj_pairs]
    for group, u_maxlen, check_inj in ((inj_pairs, 12, True), (rest, 9, False)):
        rec = V.CheckRecord(name="sweep", spec="", params={}, tolerance={})
        V._subset_sweep(rec, [(v, w, check_inj) for v, w in group], u_maxlen, W.BINARY)
        assert rec.status == "pass", rec.witnesses[:1]
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    summarize(
        "criterion 06 replacement calculus",
        elapsed,
        f"{len(pool4) ** 2 - len(pool4)} oracle pairs agree; "
        f"{len(inj_pairs)} pairs injective with preimage bounds at |u| <= 12",
    )


def test_criterion_07_synchronized_formula():
    t0 = time.monotonic()
    worst = 0.0
    checked = 0
    for gaps in [S.SGapSet((0, 1)), S.SGapSet((), 1)]:
        spec = S.SGapShift(gaps)
        for n in range(1, 5):
            for u in S.enumerate_words(spec, n):
                rec = V.check_synch_formula(gaps, u, 40, 1e-6)
                assert rec.status == "pass", (gaps.describe(), u, rec.residuals)
                worst = max(worst, rec.residuals["|T(maxgap) - mu(u)|"])
                checked += 1
    assert worst <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    summarize(
        "criterion 07 synchronized formula",
        elapsed,
        f"{checked} words, max truncation residual {worst:.2e}",
    )


def test_criterion_08_hereditary_corollary():
    t0 = time.monotonic()
    h = S.entropy(GOLDEN)
    model = M.parry(GOLDEN)
    for n in range(1, 9):
        ratio = math.log(M.mu_parry(model, "0" * n) / M.mu_parry(model, "0" * (n + 1)))
        assert ratio <= h + 1e-9
    assert S.specification_distance_holds(GOLDEN, 1)
    eq = abs(h - math.log(M.mu_parry(model, "0") / M.mu_parry(model, "00")))
    assert eq <= 1e-9
    assert M.mu_parry(model, "1") <= M.mu_parry(model, "0")
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    summarize("criterion 08 hereditary corollary", elapsed, f"equality gap {eq:.2e} at N=1")


def _legal_5x5_grids():
    """All hard-square 5x5 configurations as 25-bit masks (row-major)."""
    rows = [r for r in range(32) if r & (r << 1) == 0]
    grids = []

    def extend(mask, prev, depth):
        if depth == 5:
            grids.append(mask)
            return
        for r in rows:
            if r & prev == 0:
                extend(mask | (r << (5 * depth)), r, depth + 1)

    extend(0, 0, 0)
    return grids


def _mask_to_pattern(mask: int) -> G.Pattern2D:
    cells = tuple(
        ((x, y), "1" if (mask >> (5 * y + x)) & 1 else "0")
        for y in range(5)
        for x in range(5)
    )
    return G.Pattern2D(cells)


def test_criterion_09_grid_inequality_and_lemmas():
    t0 = time.monotonic()
    hs = G.hard_square()
    one = G.Pattern2D((((0, 0), "1"),))
    zero = G.Pattern2D((((0, 0), "0"),))
    assert G.replaceability_windowed(hs, one, zero, 1)
    margins = []
    for width in (4, 6, 8):
        mu1 = G.strip_mme_mu(hs, width, one)
        mu0 = G.strip_mme_mu(hs, width, zero)
        assert mu1 <= mu0
        margins.append(mu0 - mu1)
    assert min(margins) > 0.2

    # exhaustive 2D injectivity and preimage bounds: replace single 1s by 0s
    # in every legal 5x5 configuration, over every subset of occurrences
    grids = _legal_5x5_grids()
    assert len(grids) == 55447
    preimage = {}
    for u in grids:
        images = set()
        s = u
        while True:
            images.add(u ^ s)
            key = ((u ^ s) << 5) | s.bit_count()
            preimage[key] = preimage.get(key, 0) + 1
            if s == 0:
                break
            s = (s - 1) & u
        assert len(images) == 1 << u.bit_count()  # injectivity for this u
    for key, count in preimage.items():
        img, m = key >> 5, key & 31
        assert count <= math.comb(25 - img.bit_count(), m)

    # cross-validate the bitmask fast path against the library operation
    rng = random.Random(0)
    for u in rng.sample(grids, 40):
        ones = [(i % 5, i // 5) for i in range(25) if (u >> i) & 1]
        sites = [p for p in ones if rng.random() < 0.5]
        assert G.f_sparse_check(sites, one.shape)
        out = G.replace_sparse(_mask_to_pattern(u), one, zero, sites)
        expected = u & ~sum(1 << (5 * y + x) for x, y in sites)
        assert out == _mask_to_pattern(expected)

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    summarize(
        "criterion 09 plane inequality",
        elapsed,
        f"min strip margin {min(margins):.3f}; {len(preimage)} preimage classes bounded",
    )


def test_criterion_10_determinism():
    t0 = time.monotonic()
    first = V.run_all().to_dict()
    second = V.run_all().to_dict()
    for report in (first, second):
        del report["meta"]["timestamps"]
    a = json.dumps(first, indent=2, sort_keys=True)
    b = json.dumps(second, indent=2, sort_keys=True)
    assert a == b
    elapsed = time.monotonic() - t0
    summarize("criterion 10 determinism", elapsed, "reports byte-identical minus timestamps")
