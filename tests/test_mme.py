import itertools
import math

import numpy as np
import pytest

from symshift import mme as M
from symshift import subshifts as S
from symshift import verify as V
from symshift import words as W
from symshift.errors import ReduciblePresentationError

PHI = (1 + math.sqrt(5)) / 2

GOLDEN = S.SftShift(W.BINARY, ("11",))
FULL = S.FullShift(W.BINARY)

GAP_SETS = [
    S.SGapSet((0, 1)),
    S.SGapSet((1, 3)),
    S.SGapSet((0, 2, 3)),
    S.SGapSet((), 1),
    S.SGapSet((2,), 5),
]


class TestParry:
    def test_golden_values(self):
        model = M.parry(GOLDEN)
        assert model.lam == pytest.approx(PHI, abs=1e-12)
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

    def test_stationarity(self):
        model = M.parry(GOLDEN)
        assert np.max(np.abs(model.stationary @ model.transition - model.stationary)) < 1e-12

    def test_transition_matches_entrywise_formula(self):
        A = S.build_automaton(S.SftShift(W.BINARY, ("111", "1001"))).adjacency()
        lam, _, P = M.parry_chain(A)
        _, r = S.perron_value(A)
        n = len(r)
        assert P.tolist() == [[A[i, j] * r[j] / (lam * r[i]) for j in range(n)] for i in range(n)]

    def test_reducible_rejected(self):
        # two non-communicating letters once 01 and 10 are forbidden
        spec = S.SftShift(W.BINARY, ("01", "10"))
        with pytest.raises(ReduciblePresentationError):
            M.parry(spec)


class TestGapChainOracle:
    def test_matches_block_parry_on_golden_disguise(self):
        gaps = S.SGapSet((0, 1))
        model = M.parry(S.SGapShift(gaps))
        for n in range(1, 7):
            for w in W.BINARY.words(n):
                assert M.sgap_mu_oracle(gaps, w) == pytest.approx(
                    M.mu_parry(model, w), abs=1e-10
                )

    def test_additivity(self):
        for gaps in GAP_SETS:
            total = sum(M.sgap_mu_oracle(gaps, w) for w in W.BINARY.words(4))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestValueRecursion:
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
            assert cert.evaluate(model.mu1, model.t) == pytest.approx(model.mu(w), abs=0)

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

    def test_all_ones_gap_set(self):
        gaps = S.SGapSet((0,))
        assert M.sgap_mu(gaps, "111")[0] == 1.0
        assert M.sgap_mu(gaps, "110")[0] == 0.0


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
