import collections
import gc
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from symshift import mme as M
from symshift import subshifts as S
from symshift import verify as V
from symshift import words as W
from symshift.errors import InvalidWordError, ReduciblePresentationError
from test_subshifts import _zoo_style_specs

PHI = (1 + math.sqrt(5)) / 2

GOLDEN = S.SftShift(W.BINARY, ("11",))
FULL = S.FullShift(W.BINARY)

# spec-zoo-style specs of five seeds and the default config's specs, each once
STATIONARITY_SPECS = list(
    dict.fromkeys(
        [GOLDEN]
        + [spec for seed in range(1, 6) for spec in _zoo_style_specs(seed)]
        + [
            S.spec_from_dict(doc)
            for key in ("sgap_specs", "pair_specs", "hereditary_specs")
            for doc in V.DEFAULT_CONFIG[key]
        ]
    )
)

GAP_SETS = [
    S.SGapSet((0, 1)),
    S.SGapSet((1, 3)),
    S.SGapSet((0, 2, 3)),
    S.SGapSet((), 1),
    S.SGapSet((2,), 5),
]
# the default sets, the trivial ends {0} and [0, inf), single gaps, and sets
# whose members sit far apart or below a cofinite tail
WIDE_GAP_SETS = GAP_SETS + [
    S.SGapSet((0,)),
    S.SGapSet((), 0),
    S.SGapSet((3,)),
    S.SGapSet((5,)),
    S.SGapSet((0, 2), 7),
    S.SGapSet((0, 2, 30)),
    S.SGapSet((0, 40)),
    S.SGapSet((1, 3, 5), 7),
]


class ReferenceParry:
    """A from-scratch per-(state, symbol) evaluation of a Parry model (test
    reference): the labelled ``(q, symbol, r)`` edges come from outside the
    model, only its stationary vector from inside, and the transition matrix
    is ``parry_chain``'s on the edges' adjacency."""

    def __init__(self, edges, model):
        counts = collections.Counter((q, r) for q, _, r in edges)
        A = np.zeros((len(model.stationary),) * 2)
        for (q, r), c in counts.items():
            A[q, r] = c
        _, _, P = M.parry_chain(A)
        self.stationary = model.stationary
        self.hops = {(q, a): (r, float(P[q, r] / counts[q, r])) for q, a, r in edges}

    def __call__(self, w):
        weights = dict(enumerate(self.stationary.tolist()))
        for a in w:
            step = {}
            for q, p in weights.items():
                hop = self.hops.get((q, a))
                if hop is not None:
                    r, prob = hop
                    step[r] = step.get(r, 0.0) + p * prob
            weights = step
        return float(sum(weights.values()))


def presentation_edges(spec):
    return S.build_automaton(spec).transitions


def query_orders(spec, foreign):
    """Word sequences that share prefixes with their predecessors in every way.

    Shortlex, reversed and shuffled L_0..L_6 with a word holding the symbol
    ``foreign`` mixed in, and a walk that queries each word, then its prefixes
    down to the empty word, then a word off the language.
    """
    words = [u for n in range(7) for u in S.enumerate_words(spec, n)]
    empty = words[0]
    bad = words[5] + foreign + words[3]
    shuffled = words + [bad]
    random.Random(8).shuffle(shuffled)
    walk = []
    for u in words[::7]:
        walk += [u[:k] for k in range(len(u), -1, -1)] + [u + foreign, u]
    return {
        "shortlex": words + [bad, empty],
        "reversed": [bad] + words[::-1],
        "shuffled": shuffled,
        "prefix walk": walk,
    }


class TestParry:
    def test_golden_values(self):
        model = M.parry(GOLDEN)
        lam, _, _ = M.parry_chain(S.build_automaton(GOLDEN).adjacency())
        assert lam == pytest.approx(PHI, abs=1e-12)
        assert M.mu_parry(model, "0") == pytest.approx(PHI**2 / (1 + PHI**2), abs=1e-12)
        assert M.mu_parry(model, "00") == pytest.approx(
            M.mu_parry(model, "0") / PHI, abs=1e-12
        )
        assert M.mu_parry(model, "11") == 0.0

    def test_full_shift_uniform(self):
        model = M.parry(FULL)
        for n in range(1, 6):
            for w in W.BINARY.words(n):
                assert M.mu_parry(model, w) == pytest.approx(2.0**-n, abs=1e-14)

    def test_additivity(self):
        model = M.parry(GOLDEN)
        for n in range(6):
            total = sum(M.mu_parry(model, w) for w in W.BINARY.words(n + 1))
            assert total == pytest.approx(1.0, abs=1e-12)
        # cylinder refinement: mu(w) = sum_a mu(wa)
        for w in S.enumerate_words(GOLDEN, 4):
            assert M.mu_parry(model, w) == pytest.approx(
                M.mu_parry(model, w + "0") + M.mu_parry(model, w + "1"), abs=1e-12
            )

    def test_shift_invariance(self):
        model = M.parry(GOLDEN)
        for w in S.enumerate_words(GOLDEN, 3):
            assert M.mu_parry(model, w) == pytest.approx(
                sum(M.mu_parry(model, a + w) for a in "01"), abs=1e-12
            )

    @pytest.mark.parametrize("spec", STATIONARITY_SPECS, ids=S.describe)
    def test_stationarity(self, spec):
        # parry reads the right Perron pair of the presentation's record; a
        # model built here from parry_chain's own solves must equal it bit for bit
        aut = S.build_automaton(spec)
        A = aut.adjacency()
        if not aut.irreducible:
            for build in (M.parry, lambda spec: M.parry_chain(A)):
                with pytest.raises(ReduciblePresentationError, match="graph is reducible"):
                    build(spec)
            return
        _, stationary, P = M.parry_chain(A)
        table = [[None] * len(aut.alphabet.symbols) for _ in aut.states]
        for q, a, r in aut.transitions:
            table[q][aut.alphabet.symbols.index(a)] = (r, float(P[q, r] / A[q, r]))
        model = M.parry(spec)
        assert model.stationary.tobytes() == stationary.tobytes()
        assert model.table == table
        assert np.max(np.abs(stationary @ P - stationary)) < 1e-12

    def test_transition_matches_entrywise_formula(self):
        A = S.build_automaton(S.SftShift(W.BINARY, ("111", "1001"))).adjacency()
        lam, _, P = M.parry_chain(A)
        _, r = S.perron_value(A)
        n = len(r)
        assert P.tolist() == [[A[i, j] * r[j] / (lam * r[i]) for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize(
        "spec, foreign, build, edges",
        [
            (GOLDEN, "2", M.parry, presentation_edges),
            (S.SGapShift(S.SGapSet((2,), 5)), "x", M.parry, presentation_edges),
            (
                S.SftShift(W.Alphabet(("a", "bb", "c")), (("bb", "bb"), ("a", "c", "a"))),
                ("b",),
                M.parry,
                presentation_edges,
            ),
        ],
        ids=["golden-mean", "sgap", "multi-char-sft"],
    )
    def test_query_order_does_not_change_values(self, spec, foreign, build, edges):
        # queries resume from the prefix shared with the previous query; every
        # value must still be bit-identical to a from-scratch evaluation
        reference = ReferenceParry(edges(spec), build(spec))
        orders = query_orders(spec, foreign)
        for name, words in orders.items():
            model = build(spec)
            got = [M.mu_parry(model, u).hex() for u in words]
            assert got == [reference(u).hex() for u in words], name
        # parry is cached per spec, so both sequences run interleaved on the
        # one model and its one cursor
        first, second = build(spec), build(spec)
        pairs = list(zip(orders["shortlex"], orders["prefix walk"]))
        got = [(M.mu_parry(first, u).hex(), M.mu_parry(second, v).hex()) for u, v in pairs]
        assert got == [(reference(u).hex(), reference(v).hex()) for u, v in pairs]
        assert M.mu_parry(first, foreign) == 0.0

    def test_a_model_holds_only_its_last_word(self):
        # parry keeps each spec's model for the process, and with it the trail
        # of the last word mu_parry read: one weight dict per symbol, which a
        # query that leaves the word at its first symbol cuts back
        model = M.parry(GOLDEN)
        M.mu_parry(model, "1")
        gc.collect()
        tracemalloc.start()
        try:
            M.mu_parry(model, "01" * 5000)
            gc.collect()
            held_long = tracemalloc.get_traced_memory()[0]
            M.mu_parry(model, "1")
            gc.collect()
            held_after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held_long < 10000 * 2**9
        assert held_after < 16 * 2**10

    def test_reducible_rejected(self):
        # two non-communicating letters once 01 and 10 are forbidden
        spec = S.SftShift(W.BINARY, ("01", "10"))
        with pytest.raises(ReduciblePresentationError):
            M.parry(spec)

    @pytest.mark.parametrize(
        "A",
        [[[1, 1], [0, 1]], [[1, 0], [0, 1]], np.zeros((0, 0))],
        ids=["triangular", "diagonal", "empty"],
    )
    def test_parry_chain_rejects_reducible_matrix(self, A):
        with pytest.raises(ReduciblePresentationError):
            M.parry_chain(np.array(A, dtype=float))


class TestGapChainOracle:
    def test_additivity(self):
        for gaps in GAP_SETS:
            total = sum(M.sgap_mu_oracle(gaps, w) for w in W.BINARY.words(4))
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "gaps",
        [S.SGapSet((0, 1)), S.SGapSet((1, 3, 5), 7), S.SGapSet((0, 19))],
        ids=lambda g: g.describe(),
    )
    def test_matches_array_reference(self, gaps):
        # the edges are read off the presentation, not off the model
        spec = S.SGapShift(gaps)
        reference = ReferenceParry(presentation_edges(spec), M.parry(spec))
        words = [u for n in range(9) for u in W.BINARY.words(n)]
        got = [M.sgap_mu_oracle(gaps, u).hex() for u in words]
        assert got == [reference(u).hex() for u in words]

    def test_single_gap_zero_charges_only_ones(self):
        # S = {0}: the one point 1^inf; its chain has one state and no 0 edge
        gaps = S.SGapSet((0,))
        for n in range(8):
            for w in W.BINARY.words(n):
                assert M.sgap_mu_oracle(gaps, w) == (0.0 if "0" in w else 1.0)

    def test_all_gaps_is_the_fair_coin(self):
        # S = [0, inf) is the full 2-shift: one state with a 0 and a 1 loop
        gaps = S.SGapSet((), 0)
        for n in range(8):
            for w in W.BINARY.words(n):
                assert M.sgap_mu_oracle(gaps, w) == 2.0**-n


# the default gap sets, wide ones up to the largest accepted gap, and a
# presentation whose words die at different lengths from different states
LEVEL_MODELS = {
    **{g.describe(): (lambda g=g: M.parry(S.SGapShift(g)))
       for g in GAP_SETS + [S.SGapSet((0, 2, 30)), S.SGapSet((0, 40)), S.SGapSet((0, 999))]},
    "SFT {111,1001}": lambda: M.parry(S.SftShift(W.BINARY, ("111", "1001"))),
}


class TestLevelMeasures:
    @pytest.mark.parametrize("name", list(LEVEL_MODELS))
    def test_levels_are_mu_parry_bit_for_bit(self, name):
        model = LEVEL_MODELS[name]()
        levels = M._level_measures(model, 10)
        assert len(levels) == 10
        for n, level in enumerate(levels, 1):
            assert [x.hex() for x in level] == [M.mu_parry(model, w).hex() for w in W.BINARY.words(n)]

    @pytest.mark.parametrize("maxlen", [0, -1])
    def test_no_levels(self, maxlen):
        assert M._level_measures(M.parry(S.SGapShift(S.SGapSet((0, 1)))), maxlen) == []

    def test_other_alphabets(self):
        # three symbols, multi-character ones, with words as tuples
        alphabet = W.Alphabet(("x0", "x1", "x2"))
        model = M.parry(S.SftShift(alphabet, (("x1", "x1"), ("x2", "x0", "x2"))))
        for n, level in enumerate(M._level_measures(model, 5), 1):
            assert [x.hex() for x in level] == [M.mu_parry(model, w).hex() for w in alphabet.words(n)]


def _poly_add(p: tuple, q: tuple, sign: int = 1) -> tuple:
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += sign * c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class ReferenceRecursion:
    """The S-gap recursion with pairwise polynomial sums, 1z1 re-pinned for
    each word: the reference for ``SGapMME``'s closed-form certificates."""

    def __init__(self, gaps):
        self.gaps = gaps
        self.memo = {}

    def __call__(self, w):
        if w not in self.memo:
            self.memo[w] = self.build(w)
        return self.memo[w]

    def build(self, w):
        n = len(w)
        if n == 0:
            return (1, ())
        if n == 1:
            return (0, (1,)) if w == "1" else (1, (-1,))
        z = w[1:-1]
        one_z_one = self.pinned("1" + z + "1")
        if w[0] == "1" and w[-1] == "1":
            return one_z_one
        cz1, c1z = self(z + "1"), self("1" + z)
        if w[0] == "1":
            return (c1z[0] - one_z_one[0], _poly_add(c1z[1], one_z_one[1], -1))
        if w[-1] == "1":
            return (cz1[0] - one_z_one[0], _poly_add(cz1[1], one_z_one[1], -1))
        cz = self(z)
        offset = cz[0] - c1z[0] - cz1[0] + one_z_one[0]
        coeffs = _poly_add(_poly_add(cz[1], _poly_add(c1z[1], cz1[1]), -1), one_z_one[1])
        return (offset, coeffs)

    def pinned(self, w):
        """mu(1 z 1) = mu(1) t^(|z|+1) when each run of 0s in it is a gap in S."""
        if all(len(run) in self.gaps for run in w.split("1")[1:-1]):
            return (0, (0,) * (len(w) - 1) + (1,))
        return (0, ())


class TestValueRecursion:
    # and gaps past the 2^32 - 2 zeros that a pattern of the legal cores can count
    @pytest.mark.parametrize(
        "gaps",
        WIDE_GAP_SETS + [S.SGapSet((0, 2**32)), S.SGapSet((0,), 2**32), S.SGapSet((), 2**32)],
        ids=lambda g: g.describe(),
    )
    def test_certificates_match_pairwise_reference(self, gaps):
        model, reference = M.SGapMME(gaps), ReferenceRecursion(gaps)
        for n in range(13):
            for w in W.BINARY.words(n):
                cert = model.certificate(w)
                assert (cert.offset, cert.coeffs) == reference(w), w

    @pytest.mark.parametrize("w", ["2", "012", ("0", "1")], ids=repr)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_foreign_word_rejected_at_the_entry(self, w, warm):
        gaps = S.SGapSet((0, 1))
        model = M.SGapMME(gaps)
        if warm:
            M.sgap_mu(gaps, "0110")
            model.certificate("0110")
        else:
            M.sgap_model.cache_clear()
        with pytest.raises(InvalidWordError):
            model.certificate(w)
        with pytest.raises(InvalidWordError):
            M.sgap_mu(gaps, w)

    @pytest.mark.parametrize("gaps", GAP_SETS, ids=lambda g: g.describe())
    def test_recursion_matches_oracle(self, gaps):
        for n in range(1, 8):
            for w in W.BINARY.words(n):
                value, _ = M.sgap_mu(gaps, w)
                assert value == pytest.approx(M.sgap_mu_oracle(gaps, w), abs=1e-9)

    @pytest.mark.parametrize("gaps", GAP_SETS, ids=lambda g: g.describe())
    def test_certificates_are_integral_and_evaluate(self, gaps):
        model = M.sgap_model(gaps)
        for w in ["1", "0", "101", "0010", "110011"]:
            cert = model.certificate(w)
            assert isinstance(cert.offset, int)
            assert all(isinstance(c, int) for c in cert.coeffs)
            value, _ = M.sgap_mu(gaps, w)
            assert cert.evaluate(model.mu1, model.t) == value

    def test_mu1_formula(self):
        gaps = S.SGapSet((0, 1))
        t = 1 / PHI
        assert M.sgap_mu1(gaps) == pytest.approx(1.0 / (t + 2 * t**2), abs=1e-12)

    def test_pinned_word(self):
        gaps = S.SGapSet((0, 1))
        value, cert = M.sgap_mu(gaps, "11")
        assert cert.offset == 0 and cert.coeffs == (0, 1)
        assert value == pytest.approx(M.sgap_mu1(gaps) / PHI, abs=1e-12)

    def test_illegal_pinned_word_measure_zero(self):
        value, _ = M.sgap_mu(S.SGapSet((0, 1)), "1001")
        assert value == 0.0

    @pytest.mark.parametrize("w", [("01",), ("",), ("0", "1"), "012", "0 1"], ids=repr)
    @pytest.mark.parametrize("mu", [M.sgap_mu, M.sgap_mu_oracle], ids=lambda f: f.__name__)
    def test_non_binary_word_rejected(self, mu, w):
        # ("01",) and ("",) used to pass a substring test and return mu("0");
        # the oracle gave mu("01") for ("0", "1") and 0.0 for ("01",) and "012"
        with pytest.raises(InvalidWordError):
            mu(S.SGapSet((0, 1)), w)

    @pytest.mark.parametrize("gaps", WIDE_GAP_SETS, ids=lambda g: g.describe())
    def test_pinned_rule_is_membership(self, gaps):
        # 1z1 is legal exactly when each run of 0s between two 1s is a gap in S
        model = M.sgap_model(gaps)
        spec = S.SGapShift(gaps)
        top = max(gaps.extra + (gaps.cofinite_from or 0,))
        short = ["1" + z + "1" for n in range(13) for z in W.BINARY.words(n)]
        # and the runs up to two past the largest gap or the cofinite threshold
        runs = ["0" * n for n in range(top + 3)]
        wide = ["1" + x + "1" for x in runs] + ["1" + x + "1" + y + "1" for x in runs for y in runs]
        for w in short + wide:
            assert (model.certificate(w).coeffs != ()) == S.member(spec, w), w

    def test_all_ones_gap_set(self):
        gaps = S.SGapSet((0,))
        assert M.sgap_mu(gaps, "111")[0] == 1.0
        assert M.sgap_mu(gaps, "110")[0] == 0.0

    @pytest.mark.parametrize("gaps", [S.SGapSet((1, 3)), S.SGapSet((), 1)], ids=lambda g: g.describe())
    def test_long_words_obey_the_peeling_rules(self, gaps):
        # past the reference's reach: mu(x0) = mu(x) - mu(x1) and
        # mu(0y1) = mu(y1) - mu(1y1) hold exactly at length 2000
        model = M.sgap_model(gaps)

        def pair(w):
            cert = model.certificate(w)
            return cert.offset, cert.coeffs

        def difference(p, q):
            return p[0] - q[0], _poly_add(p[1], q[1], -1)

        for x in ["0" * 1999, "0" * 1000 + "1" + "0" * 998, "1" + "0" * 1998]:
            assert pair(x + "0") == difference(pair(x), pair(x + "1")), len(x)
        for y in ["0" * 1998, "0" * 997 + "1" + "0" * 1000]:
            assert pair("0" + y + "1") == difference(pair(y + "1"), pair("1" + y + "1"))
        value, cert = M.sgap_mu(gaps, "0" * 2000)
        assert value == cert.evaluate(model.mu1, model.t)

    @pytest.mark.parametrize(
        "gaps, coeffs",
        [
            # 1 - mu(1) (3000 - sum of (3000 - e) t^e for 2 <= e <= 2999)
            (S.SGapSet((), 1), (-3000, 0) + tuple(range(2998, 0, -1))),
            # A_j lists only the members of S below j, not every n < j
            (S.SGapSet((1, 3)), (-3000, 0, 2998, 0, 2996)),
        ],
        ids=["[1,inf)", "{1,3}"],
    )
    def test_long_zero_run_is_linear(self, gaps, coeffs):
        # the memoized recursion took 2-3 s and about 210 MiB here, its memo
        # holding a coefficient tuple for each of about 10,500 subwords
        M.sgap_model.cache_clear()
        tracemalloc.start()
        try:
            start = time.perf_counter()
            _, cert = M.sgap_mu(gaps, "0" * 3000)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 2**20
        assert cert.offset == 1
        assert cert.coeffs == coeffs

    def test_long_core_matches_closed_form(self):
        # on [1, inf), A_j = 1 - t^2 - ... - t^j: the t^e coefficient of
        # A_a A_b is [e = 0] - [2 <= e <= a] - [2 <= e <= b] plus the number
        # of i + j = e with 2 <= i <= a and 2 <= j <= b
        a, b = 150, 149
        cert = M.SGapMME(S.SGapSet((), 1)).certificate("0" * a + "1" + "0" * b)
        closed = [
            (e == 0) - (2 <= e <= a) - (2 <= e <= b) + max(0, min(a, e - 2) - max(2, e - b) + 1)
            for e in range(a + b + 1)
        ]
        assert (cert.offset, cert.coeffs) == (0, tuple(closed))

    def test_nothing_is_kept_between_words(self):
        # the model used to keep every certificate, core and A_j it was asked
        # for: these 300 words left 3.46 MiB held
        gaps = S.SGapSet((0, 2), 7)
        M.sgap_mu(gaps, "0110")
        words = ["0" * a + "1" + "0" * (299 - a) for a in range(300)]
        gc.collect()
        tracemalloc.start()
        try:
            for w in words:
                M.sgap_mu(gaps, w)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 64 * 2**10


class TestTails:
    def test_geometric_tail(self):
        t = 0.4
        assert M.geometric_tail(t, 7) == pytest.approx(
            sum(t**j for j in range(7, 200)), abs=1e-12
        )

    def test_weighted_tail(self):
        t = 0.55
        assert M.weighted_tail(t, 5) == pytest.approx(
            sum(j * t**j for j in range(5, 400)), abs=1e-12
        )

    def test_gap_normalization(self):
        for gaps in GAP_SETS:
            if len(gaps.extra) == 1 and gaps.finite:
                continue
            record = V.check_entropy_root(gaps, tol_root=1e-12, tol_cross=1e-10)
            assert record.residuals["root equation"] < 1e-12
