import contextlib
import itertools
import math
import pickle
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symshift import mme as M
from symshift import subshifts as S
from symshift import verify as V
from symshift import words as W
from symshift.errors import (
    EmptySubshiftError,
    InvalidWordError,
    NumericalError,
    ReduciblePresentationError,
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


class TestLargeGapSets:
    """An S-gap presentation has top + 1 states, top = max(S) or the cofinite
    threshold, and a dense (top + 1)^2 matrix: at top = 10^6 that is 8 TB."""

    @pytest.mark.parametrize("gaps", [S.SGapSet((0, 10**6)), S.SGapSet((0,), 10**6)], ids=str)
    def test_refused_before_anything_is_built(self, gaps):
        spec = S.SGapShift(gaps)
        start = time.perf_counter()
        for query in (lambda: S.entropy(spec), lambda: S.member(spec, "1"), lambda: M.gap_chain(gaps)):
            with pytest.raises(ResourceLimitError, match="gap 1000000 needs a 1000001-state"):
                query()
        assert time.perf_counter() - start < 1.0

    def test_cap_bounds_the_dense_solves(self):
        # 1000^3 <= 10^9 < 1001^3; run_all on S = {0,2895}, the largest gap
        # that the matrix cap alone accepts, took 156 s
        assert S._sgap_top(S.SGapSet((0, 999))) == S._sgap_top(S.SGapSet((0,), 999)) == 999
        for gaps in (S.SGapSet((0, 1000)), S.SGapSet((0,), 1000), S.SGapSet((0, 2895))):
            with pytest.raises(ResourceLimitError, match="1000000000 solve steps"):
                S._sgap_top(gaps)

    def test_cap_is_the_shared_matrix_cap(self, monkeypatch):
        # gap sets that no other test presents, so that no cached presentation answers
        monkeypatch.setattr(W, "_MATRIX_ENTRIES", 41**2)
        assert S._sgap_top(S.SGapSet((7, 40))) == S._sgap_top(S.SGapSet((7,), 40)) == 40
        for gaps in (S.SGapSet((7, 41)), S.SGapSet((7,), 41)):
            with pytest.raises(ResourceLimitError):
                S.build_automaton(S.SGapShift(gaps))
            with pytest.raises(ResourceLimitError):
                M.gap_chain(gaps)


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

    def test_enumerate_budget_refuses_before_counting_every_length(self):
        # |L_n| passes the budget near n = 32; counting |L_maxlen| in full
        # took about a minute at 10^6
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="length-1000000 words exceeds the budget"):
            S.enumerate_words(GOLDEN, 10**6)
        assert time.perf_counter() - start < 1.0

    def test_count_resumes_from_the_last_length(self, monkeypatch):
        walked = []

        def counted(spec):
            for count in real(spec):
                walked.append(count)
                yield count

        real = S._counts
        monkeypatch.setattr(S, "_counts", counted)
        # an alphabet no other test uses, so the presentation is fresh
        spec = S.SftShift(W.Alphabet(("p", "q")), ("qq",))
        assert S.count_words(spec, 120) == S.count_words(GOLDEN, 120)
        assert len(walked) == 121  # |L_0| and 120 DP steps
        assert S.count_words(spec, 121) == S.count_words(GOLDEN, 121)
        assert len(walked) == 122  # one DP step
        assert S.count_words(spec, 3) == 5
        assert len(walked) == 126  # a shorter length restarts the walk

    def test_negative_length(self):
        with pytest.raises(InvalidWordError):
            S.count_words(GOLDEN, -1)

    def test_enumerate_negative_length(self):
        # it used to return [""], the words of length 0
        with pytest.raises(InvalidWordError, match="length must be nonnegative"):
            S.enumerate_words(GOLDEN, -1)

    def test_count_budget_refuses_before_any_step(self, monkeypatch):
        # both DPs are bounded by n x word-graph edges: 5 edges for the golden mean
        monkeypatch.setattr(W, "_SWEEP_BUDGET", 10)
        assert S.count_words(GOLDEN, 2) == 3
        with pytest.raises(ResourceLimitError, match="^n 3 needs 3 steps over 5 word-graph edges"):
            S.count_words(GOLDEN, 3)
        monkeypatch.undo()
        # the exact DP's big-integer sums are bounded by n^2 x edges x log2|A| too
        monkeypatch.setattr(S, "_COUNT_BUDGET", 45)
        assert S.count_words(GOLDEN, 3) == 5
        with pytest.raises(ResourceLimitError, match=r"^n 4 needs 4\^2 x 5 word-graph edges x 1 bits "):
            S.count_words(GOLDEN, 4)
        monkeypatch.undo()

        # the big-integer DP is quadratic in n: 10^7 steps would run for hours
        def unreachable(spec):
            raise AssertionError("the DP started")

        monkeypatch.setattr(S, "_counts", unreachable)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="^n 10000000 "):
            S.count_words(S.SftShift(W.Alphabet(("p", "q")), ("qq",)), 10**7)
        assert time.perf_counter() - start < 1.0

    def test_quadratic_count_is_refused_at_once(self, monkeypatch):
        # n = 838,860 passes n x edges on the golden mean (5 edges) and took
        # 49 s; n^2 x edges x log2|A| refuses it, and accepts n = 100,000 at most
        def unreachable(spec):
            raise AssertionError("the DP started")

        monkeypatch.setattr(S, "_counts", unreachable)
        spec = S.SftShift(W.Alphabet(("r", "s")), ("ss",))  # a presentation no other test counts on
        cursor = list(S.build_automaton(spec)._count_cursor)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"^n 838860 needs 838860\^2 x 5 word-graph edges x 1 bits "):
            S.count_words(spec, 838_860)
        assert time.perf_counter() - start < 0.1
        assert S.build_automaton(spec)._count_cursor == cursor
        S._check_exact_steps(GOLDEN, 100_000, "n")
        with pytest.raises(ResourceLimitError):
            S._check_exact_steps(GOLDEN, 100_001, "n")

    def test_count_budget_counts_bits(self):
        # a count gains at most log2|A| bits a step: 4 on 16 letters, where
        # n^2 x edges alone accepted n = 55,901, which took 5.4 s
        spec = S.FullShift(W.Alphabet(tuple("0123456789abcdef")))
        S._check_exact_steps(spec, 27_950, "n")
        with pytest.raises(ResourceLimitError, match=r"^n 27951 needs 27951\^2 x 16 word-graph edges x 4 bits "):
            S._check_exact_steps(spec, 27_951, "n")

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

    @staticmethod
    def _seeded_gap_sets(count=300, seed=32):
        """Finite and cofinite gap sets with top <= 60, none a single gap."""
        rng = random.Random(seed)
        sets = []
        while len(sets) < count:
            top = rng.randint(1, 60)
            extra = tuple(sorted(rng.sample(range(top), rng.randint(0, min(top, 6)))))
            if len(sets) % 2:
                sets.append(S.SGapSet(extra, top))
            elif extra:
                sets.append(S.SGapSet(extra + (top,)))
        return sets

    def test_root_is_bracketed_by_its_neighbouring_floats(self):
        # exact arithmetic: F(lambda - ulp) > 1 > F(lambda + ulp), so no float
        # lies strictly between lambda and the true root
        def F(x):
            x = Fraction(x)
            total = sum(x ** (-n - 1) for n in gaps.extra)
            if gaps.cofinite_from is not None:
                total += x ** -gaps.cofinite_from / (x - 1)
            return total

        named = [S.SGapSet((0, 40)), S.SGapSet((0, 2, 30)), S.SGapSet((0, 1), 9)]
        for gaps in self._seeded_gap_sets() + named:
            lam = S.sgap_lambda(gaps)
            below, above = math.nextafter(lam, 0.0), math.nextafter(lam, 3.0)
            assert F(below) > 1 > F(above), gaps

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

    @given(st.integers(1, 24).flatmap(lambda n: st.sets(st.tuples(*[st.integers(0, n - 1)] * 2))))
    def test_components_match_the_transitive_closure(self, edges):
        n = 1 + max((max(e) for e in edges), default=0)
        A = np.zeros((n, n))
        for q, r in edges:
            A[q, r] = 1.0
        reach = np.eye(n) + A > 0
        for _ in range(n.bit_length()):
            reach = reach.astype(float) @ reach > 0
        mutual = reach & reach.T
        expected = list({tuple(np.flatnonzero(row)): None for row in mutual})
        assert [tuple(c) for c in S._components(A)] == expected

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


def _reference_perron(A):
    """The Perron kernel before the flat phase could quit early: n power
    steps from the flat vector, then the dense restart."""

    def power_steps(x, steps):
        for _ in range(steps):
            Ax = A @ x
            y = Ax + x
            y /= y.sum()
            if abs(y - x).max() < 1e-15:
                if np.all(x > 0):
                    ratios = Ax / x
                    lo, hi = float(ratios.min()), float(ratios.max())
                    if hi - lo <= 1e-12 * max(1.0, lo):
                        return min(max(float(x @ Ax / (x @ x)), lo), hi), x
                elif np.count_nonzero(y) == np.count_nonzero(x):
                    raise NumericalError("Perron vector is not positive")
            x = y
        return None, x

    n = A.shape[0]
    lam, x = power_steps(np.full(n, 1.0 / n), n)
    if lam is None:
        lam, x = power_steps(S._dense_vector(A), S._MAX_STEPS)
    if lam is None:
        raise NumericalError(f"no Collatz-Wielandt certificate after {S._MAX_STEPS} steps")
    return lam, x


def _zoo_style_specs(seed):
    """Specs drawn as the spec-zoo benchmark draws them: binary SFTs of
    memory 1 and 3..10 whose forbidden words contain 11, and finite and
    cofinite S-gap sets."""
    rng = random.Random(seed)
    specs = [S.SftShift(W.BINARY, (rng.choice(pair),)) for pair in [("00", "11"), ("01", "10")]]
    for m in range(3, 11):
        forbidden = set()
        for n in [m + 1] + [rng.randint(max(4, m - 1), m + 1) for _ in range(rng.randint(0, 3))]:
            word = [rng.choice("01") for _ in range(n)]
            i = rng.randrange(n - 1)
            word[i] = word[i + 1] = "1"
            forbidden.add("".join(word))
        specs.append(S.SftShift(W.BINARY, tuple(sorted(forbidden))))
    for top in (3, 5, 7):
        below = tuple(sorted(rng.sample(range(top), (top + 1) // 2)))
        specs.append(S.SGapShift(S.SGapSet(below + (top,))))
        extra = tuple(sorted(rng.sample(range(top - 1), (top - 1) // 2)))
        specs.append(S.SGapShift(S.SGapSet(extra, top)))
    return specs


def _presentation_matrices(spec):
    """The matrices the spectral layer solves for a spec: its adjacency, the
    transpose ``parry_chain`` solves, and each strongly connected component."""
    A = S.build_automaton(spec).adjacency()
    parts = [] if S._strongly_connected(A) else [A[np.ix_(c, c)] for c in S._components(A)]
    return [B for part in [A] + parts for B in (part, part.T)]


def _kernel_outcome(kernel, A):
    try:
        lam, x = kernel(A)
    except NumericalError as exc:
        return str(exc)
    return lam, x.tobytes()


class _CountingMatrix(np.ndarray):
    """A matrix that counts its products with a vector."""

    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return np.asarray(self) @ other


class TestPerronKernel:
    @pytest.mark.parametrize("gaps", [(0, 7), (0, 40), (0, 100), (1, 3), (0, 2, 50), (0, 1, 170)])
    def test_gap_chains_match_root(self, gaps):
        # all six hand over to the dense eigenvector after n power steps;
        # S = {1,3} is periodic.  The
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
        # 47 and 123 fast-mixing columns converge by power iteration alone,
        # within n steps from the flat vector
        A = _hard_square_strip(width)
        assert A.shape == (columns, columns)
        lam, x = S.perron_value(A)
        top = np.linalg.eigvalsh(A)[-1]
        assert abs(lam - top) <= 1e-13 * top
        _assert_certified(A, lam, x)

    @pytest.mark.parametrize("width", [8, 10])
    def test_fast_mixing_strips_never_go_dense(self, width, monkeypatch):
        def refuse(A):
            raise AssertionError("dense restart")

        monkeypatch.setattr(S, "_dense_vector", refuse)
        S.perron_value(_hard_square_strip(width))

    def test_slow_chain_leaves_the_flat_phase_early(self, monkeypatch):
        # S = {0,40} needs thousands of steps from the flat vector; its 41
        # flat steps used to come before every dense restart
        A = S.build_automaton(S.SGapShift(S.SGapSet((0, 40)))).adjacency()
        flat = []
        dense = S._dense_vector

        def restart(B):
            flat.append(B.products)
            return dense(np.asarray(B))

        monkeypatch.setattr(_CountingMatrix, "products", 0)
        monkeypatch.setattr(S, "_dense_vector", restart)
        S.perron_value(A.view(_CountingMatrix))
        # it waits for three step sizes, two ratios, before it quits
        assert len(flat) == 1 and 3 <= flat[0] <= 8

    def test_bit_identical_to_the_reference_kernel(self):
        specs = [spec for seed in range(1, 6) for spec in _zoo_style_specs(seed)]
        for key in ("sgap_specs", "pair_specs", "hereditary_specs"):
            specs += [S.spec_from_dict(doc) for doc in V.DEFAULT_CONFIG[key]]
        gap_chains = [(0, 7), (0, 40), (0, 100), (1, 3), (0, 2, 50), (0, 1, 170)]
        specs += [S.SGapShift(S.SGapSet(gaps)) for gaps in gap_chains]
        matrices = [A for spec in specs for A in _presentation_matrices(spec)]
        matrices += [_hard_square_strip(width) for width in range(2, 13)]
        for A in matrices:
            assert _kernel_outcome(S.perron_value, A) == _kernel_outcome(_reference_perron, A)


class TestParryChainSolves:
    def _solves(self, A, monkeypatch):
        calls = []
        perron = S.perron_value
        monkeypatch.setattr(S, "perron_value", lambda B: calls.append(B) or perron(B))
        M.parry_chain(A)
        return len(calls)

    def test_symmetric_matrix_is_solved_once(self, monkeypatch):
        assert self._solves(_hard_square_strip(8), monkeypatch) == 1
        assert self._solves(S.build_automaton(GOLDEN).adjacency(), monkeypatch) == 1

    def test_other_matrix_is_solved_twice(self, monkeypatch):
        A = S.build_automaton(S.SGapShift(S.SGapSet((0, 2)))).adjacency()
        assert not np.array_equal(A, A.T)
        assert self._solves(A, monkeypatch) == 2

    def test_one_solve_matches_two(self):
        A = _hard_square_strip(8)
        lam, stationary, P = M.parry_chain(A)
        _, r = S.perron_value(A)
        _, l = S.perron_value(A.T)
        np.testing.assert_allclose(stationary, l * r / (l * r).sum(), rtol=1e-15, atol=0)
        np.testing.assert_allclose(P, A * r / (lam * r[:, None]), rtol=1e-15, atol=0)


class TestSpectralRecord:
    """``Automaton.perron`` holds a presentation's one solve of A and its one
    connectivity search; ``entropy`` and ``mme.parry`` both read it."""

    GAP_02 = S.SGapShift(S.SGapSet((0, 2)))
    # 2 can only be followed by 2s: a fixed point beside the full 2-shift on {0, 1}
    REDUCIBLE = S.SftShift(W.Alphabet(("0", "1", "2")), ("20", "21"))

    @pytest.fixture
    def calls(self, monkeypatch):
        """The matrices handed to ``perron_value`` and ``_strongly_connected``,
        on cold presentations."""
        S.build_automaton.cache_clear()
        calls = {"perron_value": [], "_strongly_connected": []}
        for name, log in calls.items():
            kernel = getattr(S, name)
            monkeypatch.setattr(S, name, lambda A, kernel=kernel, log=log: log.append(A) or kernel(A))
        yield calls
        S.build_automaton.cache_clear()

    def test_entropy_solves_A_once(self, calls):
        S.entropy(self.GAP_02)
        S.entropy(self.GAP_02)
        A = S.build_automaton(self.GAP_02).adjacency()
        assert [B.tolist() for B in calls["perron_value"]] == [A.tolist()]

    def test_parry_solves_only_the_transpose(self, calls):
        S.entropy(self.GAP_02)
        M.parry(self.GAP_02)
        A = S.build_automaton(self.GAP_02).adjacency()
        assert [B.tolist() for B in calls["perron_value"]] == [A.tolist(), A.T.tolist()]

    def test_symmetric_presentation_is_solved_once(self, calls):
        S.entropy(GOLDEN)
        M.parry(GOLDEN)
        assert len(calls["perron_value"]) == 1

    @pytest.mark.parametrize("spec", [GAP_02, GOLDEN, REDUCIBLE], ids=S.describe)
    def test_one_connectivity_search(self, calls, spec):
        S.entropy(spec)
        with contextlib.suppress(ReduciblePresentationError):
            M.parry(spec)
        assert len(calls["_strongly_connected"]) == 1

    def test_reducible_presentation(self, calls):
        aut = S.build_automaton(self.REDUCIBLE)
        A = aut.adjacency()
        lam = max(S.perron_value(A[np.ix_(c, c)])[0] for c in S._components(A))
        assert S.entropy(self.REDUCIBLE) == math.log(lam) == pytest.approx(math.log(2), abs=1e-12)
        with pytest.raises(ReduciblePresentationError, match="graph is reducible"):
            M.parry(self.REDUCIBLE)

    def test_record_is_the_kernel_pair(self, calls):
        specs = [spec for seed in range(1, 6) for spec in _zoo_style_specs(seed)]
        for key in ("sgap_specs", "pair_specs", "hereditary_specs"):
            specs += [S.spec_from_dict(doc) for doc in V.DEFAULT_CONFIG[key]]
        for spec in specs + [self.REDUCIBLE]:
            aut = S.build_automaton(spec)
            A = aut.adjacency()
            if aut.irreducible:
                lam, r = S.perron_value(A)
                assert (aut.perron[0], aut.perron[1].tobytes()) == (lam, r.tobytes())
            else:
                lam = max(S.perron_value(A[np.ix_(c, c)])[0] for c in S._components(A))
                assert aut.perron == (lam, None)
            assert S.perron_eigenvalue(spec) == lam


class TestSpecHash:
    DOCS = [
        {"type": "full", "alphabet": ["0", "1"]},
        {"type": "sft", "alphabet": ["a", "b", "c"], "forbidden": ["ab", "cc"]},
        {"type": "sgap", "finite": [0, 2, 5]},
        {"type": "sgap", "extra": [1], "from": 4},
    ]

    @pytest.mark.parametrize("doc", DOCS)
    def test_equal_specs_hash_equal(self, doc):
        a, b = S.spec_from_dict(doc), S.spec_from_dict(dict(doc))
        assert a is not b and a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("doc", DOCS)
    def test_pickle_round_trip_hits_the_cache(self, doc):
        spec = S.spec_from_dict(doc)
        aut = S.build_automaton(spec)
        hits = S.build_automaton.cache_info().hits
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec)
        assert S.build_automaton(copy) is aut
        assert S.build_automaton.cache_info().hits == hits + 1

    def test_alphabet_tells_specs_apart(self):
        binary = S.SftShift(W.BINARY, ("11",))
        ternary = S.SftShift(W.Alphabet(("0", "1", "2")), ("11",))
        assert binary != ternary
        assert S.FullShift(W.BINARY) != S.FullShift(W.Alphabet(("1", "0")))
        assert S.count_words(binary, 3) != S.count_words(ternary, 3)


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
