import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symshift import subshifts as S
from symshift import words as W
from symshift.errors import (
    EmptySubshiftError,
    InvalidWordError,
    NumericalError,
    ResourceLimitError,
    SpecFormatError,
)

PHI = (1 + math.sqrt(5)) / 2

GOLDEN = S.SftShift(W.BINARY, ("11",))
FULL = S.FullShift(W.BINARY)


class TestSGapSet:
    def test_membership(self):
        s = S.SGapSet((2,), 5)
        assert 2 in s and 7 in s
        assert 3 not in s and 4 not in s

    def test_validation(self):
        with pytest.raises(SpecFormatError):
            S.SGapSet((3, 1))
        with pytest.raises(SpecFormatError):
            S.SGapSet(())
        with pytest.raises(SpecFormatError):
            S.SGapSet((5,), 3)

    def test_gcd_shifted(self):
        assert S.SGapSet((1, 3)).gcd_shifted() == 2
        assert S.SGapSet((0, 1)).gcd_shifted() == 1
        assert S.SGapSet((), 1).gcd_shifted() == 1

    def test_describe(self):
        assert S.SGapSet((2,), 5).describe() == "{2}u[5,inf)"
        assert S.SGapSet((), 1).describe() == "[1,inf)"


class TestSpecSerialization:
    @pytest.mark.parametrize(
        "doc, expected",
        [
            ({"type": "full", "alphabet": ["0", "1"]}, FULL),
            ({"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]}, GOLDEN),
            ({"type": "sgap", "finite": [0, 1]}, S.SGapShift(S.SGapSet((0, 1)))),
            ({"type": "sgap", "extra": [2], "from": 5}, S.SGapShift(S.SGapSet((2,), 5))),
        ],
        ids=["doc0", "doc1", "doc2", "doc3"],
    )
    def test_round_trip(self, doc, expected):
        assert S.spec_from_dict(doc) == expected

    def test_unknown_type(self):
        with pytest.raises(SpecFormatError):
            S.spec_from_dict({"type": "sofic"})

    def test_unknown_field(self):
        with pytest.raises(SpecFormatError):
            S.spec_from_dict({"type": "full", "alphabet": ["0"], "window": 3})

    def test_empty_gap_list(self):
        with pytest.raises(SpecFormatError):
            S.spec_from_dict({"type": "sgap", "finite": []})


class TestAutomaton:
    def test_golden_mean_states(self):
        aut = S.build_automaton(GOLDEN)
        assert set(aut.states) == {"0", "1"}
        assert aut.irreducible

    def test_empty_language_detected(self):
        spec = S.SftShift(W.BINARY, ("0", "1"))
        with pytest.raises(EmptySubshiftError):
            S.build_automaton(spec)

    def test_trimming_removes_dead_blocks(self):
        # forbidding 00 and 11 leaves only the alternating orbit
        spec = S.SftShift(W.BINARY, ("00", "11"))
        aut = S.build_automaton(spec)
        assert set(aut.states) == {"0", "1"}
        assert S.count_words(spec, 5) == 2

    def test_containment_table_is_lazy(self):
        aut = S.build_automaton(S.SftShift(W.BINARY, ("111", "0000")))
        assert "_containment_table" not in vars(aut)
        assert aut.follower_contains(0, 0)
        assert "_containment_table" in vars(aut)

    def test_sgap_matches_equivalent_sft(self):
        sgap = S.SGapShift(S.SGapSet((0, 1)))
        for n in range(8):
            assert S.count_words(sgap, n) == S.count_words(GOLDEN, n)


class TestLanguage:
    def test_fibonacci_counts(self):
        counts = [S.count_words(GOLDEN, n) for n in range(1, 8)]
        assert counts == [2, 3, 5, 8, 13, 21, 34]

    def test_full_shift_counts(self):
        assert S.count_words(FULL, 10) == 1024

    def test_member(self):
        assert S.member(GOLDEN, "01010")
        assert not S.member(GOLDEN, "0110")
        assert not S.member(S.SGapShift(S.SGapSet((0, 1))), "1001")

    def test_member_rejects_alien_symbols(self):
        assert not S.member(GOLDEN, "012")

    def test_enumerate_matches_count(self):
        for n in range(7):
            words = S.enumerate_words(GOLDEN, n)
            assert len(words) == S.count_words(GOLDEN, n)
            assert words == sorted(words)
            assert all(S.member(GOLDEN, w) for w in words)

    @pytest.mark.parametrize("symbols", [("b", "a"), ("x9", "x10")])
    def test_enumerate_in_alphabet_order(self, symbols):
        # a sort put ("x10", ...) before ("x9", ...), against Alphabet.words
        alphabet = W.Alphabet(symbols)
        spec = S.SftShift(alphabet, (alphabet.letters[symbols[1]] * 2,))
        for n in range(5):
            assert S.enumerate_words(spec, n) == [u for u in alphabet.words(n) if S.member(spec, u)]

    def test_enumerate_budget(self):
        with pytest.raises(ResourceLimitError):
            S.enumerate_words(FULL, 30)

    def test_negative_length(self):
        with pytest.raises(InvalidWordError):
            S.count_words(GOLDEN, -1)

    @given(st.integers(min_value=1, max_value=10))
    def test_scaled_matches_exact(self, n):
        lam = S.perron_eigenvalue(GOLDEN)
        assert next(itertools.islice(S._scaled_counts(GOLDEN, lam), n, None)) == pytest.approx(
            S.count_words(GOLDEN, n) / lam**n, rel=1e-12
        )


class TestEntropy:
    def test_full_shift(self):
        assert S.entropy(FULL) == pytest.approx(math.log(2), abs=1e-12)

    def test_golden_mean(self):
        assert S.entropy(GOLDEN) == pytest.approx(math.log(PHI), abs=1e-12)

    def test_sgap_cofinite_one(self):
        # gaps of length >= 1 between 1s is the golden mean in disguise
        assert S.sgap_lambda(S.SGapSet((), 1)) == pytest.approx(PHI, abs=1e-12)

    def test_singleton_gap_zero_entropy(self):
        assert S.sgap_lambda(S.SGapSet((4,))) == 1.0

    def test_periodic_graph_converges(self):
        spec = S.SGapShift(S.SGapSet((1, 3)))
        lam = S.perron_eigenvalue(spec)
        assert math.log(lam) == pytest.approx(S.entropy(spec), abs=1e-10)

    @pytest.mark.parametrize("forbidden", ["10", "01"])
    def test_reducible_zero_entropy(self, forbidden):
        # two fixed points joined one way: each component has lambda = 1
        spec = S.SftShift(W.BINARY, (forbidden,))
        assert not S.build_automaton(spec).irreducible
        assert S.entropy(spec) == 0.0

    def test_reducible_takes_largest_component(self):
        # 11 can only be followed by 1s: a fixed point beside a golden mean
        spec = S.SftShift(W.BINARY, ("011",))
        assert not S.build_automaton(spec).irreducible
        assert S.entropy(spec) == pytest.approx(math.log(PHI), abs=1e-12)

    def test_components(self):
        A = np.zeros((4, 4))
        for q, r in [(0, 1), (1, 0), (1, 2), (3, 3)]:
            A[q, r] = 1.0
        assert [c.tolist() for c in S._components(A)] == [[0, 1], [2], [3]]
        assert not S._strongly_connected(A)
        assert S._strongly_connected(A[:2, :2])
        assert not S._strongly_connected(np.zeros((0, 0)))

    def test_unconverged_power_iteration_is_typed(self, monkeypatch):
        # S = {0,100} needs thousands of steps from the flat vector: with the
        # dense restart flat too, n + 10 steps reach the step cap
        A = S.build_automaton(S.SGapShift(S.SGapSet((0, 100)))).adjacency()
        monkeypatch.setattr(S, "_dense_vector", lambda A: np.full(A.shape[0], 1.0 / A.shape[0]))
        monkeypatch.setattr(S, "_MAX_STEPS", 10)
        with pytest.raises(NumericalError, match="certificate") as info:
            S.perron_value(A)
        assert isinstance(info.value, ArithmeticError)

    def test_jordan_block_is_typed(self):
        # its one eigenvector, (1, 0), is not positive
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NumericalError, match="not positive"):
            S.perron_value(A)

    @pytest.mark.parametrize("n", [2, 100], ids=["dense", "power"])
    def test_zero_perron_entry_is_typed(self, n):
        # reducible: state 0 leads only to itself (lambda 1) and the others
        # reach it (lambda 3), so the right Perron vector is 0 at state 0
        A = np.zeros((n, n))
        A[0, 0] = 1.0
        A[1:, 0] = 1.0
        A[1:, 1:] = 2.0 / (n - 1)
        A[1:, 1:] += np.eye(n - 1)
        with pytest.raises(NumericalError):
            S.perron_value(A)


def _assert_certified(A, lam, x):
    # positive x, and lam inside its Collatz-Wielandt bracket
    assert np.all(x > 0)
    ratios = (A @ x) / x
    assert ratios.min() <= lam <= ratios.max()


def _hard_square_strip(width):
    # torus columns without two vertically adjacent 1s; columns may sit side
    # by side when no row has a 1 in both
    mask = (1 << width) - 1
    columns = [c for c in range(1 << width) if not c & ((c << 1 | c >> (width - 1)) & mask)]
    return np.array([[float(not a & b) for b in columns] for a in columns])


class TestPerronKernel:
    @pytest.mark.parametrize("gaps", [(0, 7), (0, 40), (0, 100), (1, 3), (0, 2, 50), (0, 1, 170)])
    def test_gap_chains_match_root(self, gaps):
        # 8 and 41 states start from the dense eigenvector; 101 states hand
        # over to it after 101 power steps; S = {1,3} is periodic.  The
        # Perron vectors of {0,2,50} and {0,1,170} have entries near
        # lambda^-50 and phi^-170, which the dense vector gets wrong or 0
        A = S.build_automaton(S.SGapShift(S.SGapSet(gaps))).adjacency()
        lam, x = S.perron_value(A)
        root = S.sgap_lambda(S.SGapSet(gaps))
        assert abs(lam - root) <= 1e-13 * root
        _assert_certified(A, lam, x)

    @pytest.mark.parametrize("value", [0.0, 2.0])
    def test_one_state(self, value):
        A = np.array([[value]])
        lam, x = S.perron_value(A)
        assert lam == value and x.tolist() == [1.0]
        _assert_certified(A, lam, x)

    @pytest.mark.parametrize("width, columns", [(8, 47), (10, 123)])
    def test_hard_square_strips_match_symmetric_solver(self, width, columns):
        # one strip on each side of the dense cut; 123 fast-mixing columns
        # converge by power iteration alone
        A = _hard_square_strip(width)
        assert A.shape == (columns, columns)
        lam, x = S.perron_value(A)
        top = np.linalg.eigvalsh(A)[-1]
        assert abs(lam - top) <= 1e-13 * top
        _assert_certified(A, lam, x)


class TestStructuralPredicates:
    def test_synchronizing(self):
        # w is synchronizing when it lands in one state from every state it
        # is readable from
        for spec, w in [(GOLDEN, "1"), (GOLDEN, "0"), (S.SGapShift(S.SGapSet((0, 2))), "1")]:
            landing = S._landing_states(S.build_automaton(spec), w)
            assert len(set(landing.values())) == 1

    def test_specification_distance(self):
        assert S.specification_distance_holds(GOLDEN, 1)
        assert S.specification_distance_holds(FULL, 0)
        # distance 0 would need 11 to be joinable directly
        assert not S.specification_distance_holds(GOLDEN, 0)

    def test_hereditary(self):
        assert S.is_i_hereditary_bounded(GOLDEN, 6)
        assert S.is_i_hereditary_bounded(FULL, 6)
        # gaps must be exactly 1, so inserting a 0 creates an illegal gap
        assert not S.is_i_hereditary_bounded(S.SGapShift(S.SGapSet((1,))), 6)
