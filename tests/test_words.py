import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symshift import words as W
from symshift.errors import (
    InvalidPositionError,
    InvalidWordError,
    ReplacementBrokenError,
    ResourceLimitError,
)

binary_words = st.text(alphabet="01", min_size=0, max_size=12)
nonempty_binary = st.text(alphabet="01", min_size=1, max_size=6)


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(InvalidWordError):
            W.Alphabet(())

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidWordError):
            W.Alphabet(("0", "0"))

    def test_multichar_words_are_tuples(self):
        ab = W.Alphabet(("aa", "b"))
        assert not ab.single_char
        assert ("aa", "b") in list(ab.words(2))

    def test_empty_word_and_letters_follow_the_representation(self):
        ab = W.Alphabet(("aa", "b"))
        assert ab.empty == () and ab.letters == {"aa": ("aa",), "b": ("b",)}
        assert W.BINARY.empty == "" and W.BINARY.letters == {"0": "0", "1": "1"}
        assert list(ab.letters) == list(ab.symbols)

    def test_parse_format_roundtrip_multichar(self):
        ab = W.Alphabet(("aa", "b"))
        w = ("aa", "b", "aa")
        assert W.parse_word(W.format_word(w), ab) == w

    def test_parse_rejects_bad_symbol(self):
        with pytest.raises(InvalidWordError):
            W.parse_word("012", W.BINARY)


class TestOccurrences:
    def test_simple(self):
        assert W.occurrences("0101", "01") == [0, 2]

    def test_overlapping(self):
        assert W.occurrences("111", "11") == [0, 1]
        assert W.occurrences("0000", "00") == [0, 1, 2]
        assert W.occurrences(("0",) * 4, ("0", "0")) == [0, 1, 2]
        assert W.occurrences("01010", "010") == [0, 2]

    def test_absent(self):
        assert W.occurrences("000", "1") == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(InvalidWordError):
            W.occurrences("01", "")

    @given(binary_words, nonempty_binary)
    def test_matches_naive_definition(self, u, v):
        naive = [i for i in range(len(u) - len(v) + 1) if u[i : i + len(v)] == v]
        assert W.occurrences(u, v) == naive
        # the tuple path gives the same answer on the same word
        assert W.occurrences(tuple(u), tuple(v)) == naive

    def test_multichar_alphabet_matches_naive(self):
        # tokens compare whole: ("aa",) is not the two-token word ("a", "a")
        ab = W.Alphabet(("aa", "a", "b"))
        for u in ab.words(5):
            for v in itertools.chain(ab.words(1), ab.words(2)):
                naive = [i for i in range(len(u) - len(v) + 1) if u[i : i + len(v)] == v]
                assert W.occurrences(u, v) == naive, (u, v)


class TestReplaceSeq:
    def test_grow(self):
        assert W.replace_seq("010", "1", "11", [1]) == "0110"

    def test_shrink(self):
        assert W.replace_seq("0110", "11", "1", [1]) == "010"

    def test_splice_definition(self):
        # length is |u| - |v| + |w|; the tail starts at i + |v| in u
        assert W.replace_seq("0101", "01", "001", [2]) == "01001"

    def test_out_of_range_index_rejected(self):
        # "0110"[-4:-2] == "01": a bare slice check would accept index -4
        with pytest.raises(InvalidPositionError):
            W.replace_seq("0110", "01", "1", [-4])
        with pytest.raises(InvalidPositionError):
            W.replace_seq(("0", "1", "1", "0"), ("0", "1"), ("1",), [-4])
        with pytest.raises(InvalidPositionError):
            W.replace_seq("0110", "0", "1", [4])

    def test_multichar_tokens(self):
        u = ("aa", "b", "aa")
        assert W.replace_seq(u, ("b",), ("aa", "aa"), [1]) == ("aa", "aa", "aa", "aa")
        with pytest.raises(InvalidPositionError):
            W.replace_seq(u, ("b",), ("aa",), [0])

    @given(binary_words, nonempty_binary, nonempty_binary)
    def test_round_trip(self, u, v, w):
        occ = W.occurrences(u, v)
        if not occ:
            return
        i = occ[0]
        forward = W.replace_seq(u, v, w, [i])
        if i in W.occurrences(forward, w):
            assert W.replace_seq(forward, w, v, [i]) == u

    def test_two_step(self):
        assert W.replace_seq("0101", "01", "001", [0, 2]) == "001001"

    def test_empty_plan_is_identity(self):
        assert W.replace_seq("0101", "01", "001", []) == "0101"

    def test_disjoint_letters(self):
        assert W.replace_seq("11", "1", "0", [0, 1]) == "00"

    def test_length_formula(self):
        u, v, w = "010101", "01", "0011"
        out = W.replace_seq(u, v, w, [0, 2, 4])
        assert len(out) == len(u) + 3 * (len(w) - len(v))

    def test_bad_position(self):
        with pytest.raises(InvalidPositionError):
            W.replace_seq("0101", "01", "1", [1])

    def test_interference_reported(self):
        # replacing the first 11 by 00 destroys the overlapping second one
        with pytest.raises(ReplacementBrokenError) as err:
            W.replace_seq("111", "11", "00", [0, 1])
        assert err.value.step == 2


class TestOverlapsAndAffixes:
    def test_self_overlaps(self):
        assert W.self_overlaps("111") == {1, 2}
        assert W.self_overlaps("010") == {2}
        assert W.self_overlaps("01") == set()

    def test_affix_flags(self):
        assert W.affix_flags("1", "01") == (True, False)
        assert W.affix_flags("10", "0") == (False, False)
        assert W.affix_flags("0", "0") == (True, True)

    @given(nonempty_binary)
    def test_overlap_offsets_are_periods(self, v):
        for d in W.self_overlaps(v):
            assert all(v[i] == v[i + d] for i in range(len(v) - d))


class TestRespectsTransition:
    def test_growing_single_letter(self):
        ok, witness = W.respects_transition_exact("1", "11")
        assert ok and witness is None

    def test_shrinking_overlap_fails(self):
        ok, witness = W.respects_transition_exact("11", "1")
        assert not ok
        assert witness.condition == "iv"
        assert witness.u == "111"

    def test_no_overlap_pair(self):
        ok, _ = W.respects_transition_exact("01", "1")
        assert ok

    def test_equal_words_rejected(self):
        with pytest.raises(InvalidWordError):
            W.respects_transition_exact("0", "0")

    def test_witness_is_a_real_violation(self):
        for v, w in [("11", "1"), ("010", "0"), ("11", "10")]:
            ok, witness = W.respects_transition_exact(v, w)
            if ok:
                continue
            u = witness.u
            occ_v, occ_w = W.occurrences(u, v), W.occurrences(u, w)
            assert W._check_conditions(u, v, w, witness.i, occ_v, occ_w) is not None

    def test_bounded_budget(self):
        with pytest.raises(ResourceLimitError):
            W.respects_transition_bounded("1", "11", 30)

    def test_bounded_agrees_on_small_pairs(self):
        pool = [u for n in (1, 2) for u in W.BINARY.words(n)]
        for v, w in itertools.product(pool, repeat=2):
            if v == w:
                continue
            exact, _ = W.respects_transition_exact(v, w)
            oracle, _ = W.respects_transition_bounded(v, w, 2 * len(v) + len(w) + 2)
            assert exact == oracle, (v, w)


def _reference_conditions(u, v, w, i, occ_v, occ_w):
    """The four conditions for one (u, i), on u with the v at i swapped for w
    (test reference)."""

    def occurs_at(word, pattern, j):
        return 0 <= j <= len(word) - len(pattern) and word[j : j + len(pattern)] == pattern

    shift = len(w) - len(v)
    up = u[:i] + w + u[i + len(v) :]
    for j in occ_v:
        if j > i:
            if j + shift <= i:
                return W.TransitionWitness("iv", u, i, j)
            if not occurs_at(up, v, j + shift):
                return W.TransitionWitness("i", u, i, j)
        elif j < i:
            if not occurs_at(up, v, j):
                return W.TransitionWitness("ii", u, i, j)
    for j in occ_w:
        if j < i and not occurs_at(up, w, j):
            return W.TransitionWitness("iii", u, i, j)
    return None


def _reference_sweep(v, w, max_len, alphabet):
    """One pair's own sweep over every word, first witness wins (test reference)."""
    for L in range(len(v), max_len + 1):
        for u in alphabet.words(L):
            occ_v = W.occurrences(u, v)
            if not occ_v:
                continue
            occ_w = W.occurrences(u, w)
            for i in occ_v:
                witness = _reference_conditions(u, v, w, i, occ_v, occ_w)
                if witness is not None:
                    return False, witness
    return True, None


def _all_pairs(alphabet, v_maxlen):
    """Every pair of distinct words of length <= v_maxlen, at the decider's max_len."""
    pool = [u for n in range(1, v_maxlen + 1) for u in alphabet.words(n)]
    return {
        (v, w): 2 * len(v) + len(w) + 2 for v, w in itertools.product(pool, repeat=2) if v != w
    }


class TestTransitionOracle:
    @pytest.mark.parametrize(
        "alphabet, v_maxlen",
        [(W.BINARY, 3), (W.Alphabet(("a", "b", "c")), 2), (W.Alphabet(("x0", "x1", "y")), 2)],
    )
    def test_matches_per_pair_reference(self, alphabet, v_maxlen):
        pairs = _all_pairs(alphabet, v_maxlen)
        batch = W.transition_oracle(pairs, alphabet)
        assert list(batch) == list(pairs)
        for (v, w), max_len in pairs.items():
            ok, witness = batch[v, w]
            assert (ok, witness) == _reference_sweep(v, w, max_len, alphabet), (v, w)
            assert ok == W.respects_transition_exact(v, w)[0], (v, w)

    def test_matches_per_pair_reference_when_w_is_shorter(self):
        # max_len 9 is short of the decider's 2|v| + |w| + 2, so only the
        # reference sweep is compared
        pairs = {(v, w): 9 for v in W.BINARY.words(4) for w in ("0", "1", "00", "11")}
        batch = W.transition_oracle(pairs)
        assert list(batch) == list(pairs)
        for (v, w), max_len in pairs.items():
            assert batch[v, w] == _reference_sweep(v, w, max_len, W.BINARY), (v, w)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 3).flatmap(
            lambda k: st.lists(
                st.tuples(
                    st.text(alphabet="abc"[:k], min_size=1, max_size=3),
                    st.text(alphabet="abc"[:k], min_size=1, max_size=3),
                    st.integers(0, 5),
                ),
                min_size=1,
                max_size=4,
            ).map(lambda triples: (k, triples))
        )
    )
    def test_random_batch_matches_reference(self, drawn):
        k, triples = drawn
        alphabet = W.Alphabet(tuple("abc"[:k]))
        pairs = {(v, w): min(len(v) + extra, 8) for v, w, extra in triples}
        batch = W.transition_oracle(pairs, alphabet)
        for (v, w), max_len in pairs.items():
            assert batch[v, w] == _reference_sweep(v, w, max_len, alphabet), (v, w)

    @pytest.mark.parametrize(
        "v, w, witness",
        [
            # u = w: the new site is the w at 0, and no v ends u
            ("0", "001", W.TransitionWitness("iii", "001", 1, 0)),
            # u = w ends with v at t = 2, but the w at 0 fails first at i = 1
            ("0", "100", W.TransitionWitness("iii", "100", 1, 0)),
            # w shorter than v: (t, 0) against the w that starts u
            ("001", "10", W.TransitionWitness("iii", "1001", 1, 0)),
            # w shorter than v: (0, t) against the v that starts u
            ("010", "01", W.TransitionWitness("i", "01010", 0, 2)),
        ],
    )
    def test_last_letter_edge_cases(self, v, w, witness):
        max_len = 2 * len(v) + len(w) + 2
        assert _reference_sweep(v, w, max_len, W.BINARY) == (False, witness)
        assert W.transition_oracle({(v, w): max_len})[v, w] == (False, witness)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 3).flatmap(
            lambda k: st.lists(
                st.tuples(
                    st.text(alphabet="abc"[:k], min_size=1, max_size=3),
                    st.text(alphabet="abc"[:k], min_size=1, max_size=4),
                    st.integers(0, 4),
                    st.booleans(),
                ),
                min_size=1,
                max_size=4,
            ).map(lambda quads: (k, quads))
        )
    )
    def test_random_batch_with_longer_w_matches_reference(self, drawn):
        # at_w stops the sweep at |w| when |w| >= |v|, so the word u = w is
        # on the last level swept
        k, quads = drawn
        alphabet = W.Alphabet(tuple("abc"[:k]))
        pairs = {
            (v, w): max(len(v), len(w)) if at_w else min(len(v) + extra, 8)
            for v, w, extra, at_w in quads
        }
        batch = W.transition_oracle(pairs, alphabet)
        for (v, w), max_len in pairs.items():
            assert batch[v, w] == _reference_sweep(v, w, max_len, alphabet), (v, w)

    def test_binary_batch_witnesses_every_condition(self):
        # each condition's first failure needs a different site pair with
        # min(i, j) = 0: (0, j) for i and iv, (i, 0) for ii and iii
        batch = W.transition_oracle(_all_pairs(W.BINARY, 3))
        conditions = {witness.condition for ok, witness in batch.values() if not ok}
        assert conditions == {"i", "ii", "iii", "iv"}

    @pytest.mark.parametrize(
        "bad, error",
        [
            (("", "1", 3), InvalidWordError),
            (("11", "1", 1), InvalidWordError),
            (("1", "11", 30), ResourceLimitError),  # the budget is per pair
        ],
    )
    def test_batch_raises_like_single_call(self, bad, error):
        v, w, max_len = bad
        with pytest.raises(error) as single:
            W.respects_transition_bounded(v, w, max_len)
        pairs = {("0", "1"): 10, ("1", "0"): 10, (v, w): max_len}
        with pytest.raises(error) as batch:
            W.transition_oracle(pairs)
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize(
        "v, w, alphabet",
        [
            ("22", "2", W.BINARY),  # symbols outside the alphabet
            (("1",), ("0",), W.BINARY),  # tuples never equal a str slice
            ("x0", "x1", W.Alphabet(("x0", "x1"))),  # a str never equals a tuple slice
        ],
    )
    def test_rejects_words_not_over_the_alphabet(self, v, w, alphabet):
        with pytest.raises(InvalidWordError):
            W.respects_transition_bounded(v, w, 5, alphabet)
        with pytest.raises(InvalidWordError):
            W.transition_oracle({("0", "1"): 5, (v, w): 5}, alphabet)
