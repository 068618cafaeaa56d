"""Extender sets: descriptors, the exact comparison, and the finite-window
comparison kept here as its reference."""

import itertools
from dataclasses import asdict, dataclass

import pytest

from symshift import extender as E
from symshift import subshifts as S
from symshift import words as W
from symshift.errors import InvalidWordError, ResourceLimitError

GOLDEN = S.SftShift(W.BINARY, ("11",))
FULL = S.FullShift(W.BINARY)


@dataclass(frozen=True)
class WindowedExtender:
    """Finite-window approximation: legal (left, right) context pairs."""

    word: str
    window: int
    pairs: frozenset


def extender_windowed(spec, w, window: int) -> WindowedExtender:
    if window < 1:
        raise InvalidWordError("window must be >= 1")
    contexts = S.enumerate_words(spec, window)
    if len(contexts) ** 2 > 1 << 22:
        raise ResourceLimitError("windowed extender enumeration exceeds budget")
    pairs = frozenset(
        (a, b) for a in contexts for b in contexts if S.member(spec, a + w + b)
    )
    return WindowedExtender(word=W.format_word(w), window=window, pairs=pairs)


def compare_windowed(spec, v, w, window: int) -> str:
    """Window-limited comparison; containment here is a necessary condition
    for true containment, and exact for SFTs once window >= memory."""
    ev = extender_windowed(spec, v, window).pairs
    ew = extender_windowed(spec, w, window).pairs
    v_in_w = all(S.member(spec, a + w + b) for a, b in ev)
    w_in_v = all(S.member(spec, a + v + b) for a, b in ew)
    if v_in_w and w_in_v:
        return E.EQUAL
    if v_in_w:
        return E.PROPER_SUBSET
    if w_in_v:
        return E.PROPER_SUPERSET
    return E.INCOMPARABLE


class TestDescriptors:
    def test_golden_one(self):
        d = E.extender_descriptor(GOLDEN, "1")
        assert d.left_classes == ("0",)
        assert d.right_classes == ("1",)

    def test_golden_zero(self):
        d = E.extender_descriptor(GOLDEN, "0")
        assert d.left_classes == ("0", "1")
        assert d.right_classes == ("0",)

    def test_not_in_language(self):
        with pytest.raises(InvalidWordError):
            E.extender_descriptor(GOLDEN, "11")

    def test_equal_descriptors_unequal_extender_sets(self):
        # the descriptor drops the start -> landing map that E(w) depends on:
        # from the start ac, a lands on b and ca lands on cca
        spec = S.SftShift(W.Alphabet(("a", "b", "c")), ("ccab",))
        da, dca = E.extender_descriptor(spec, "a"), E.extender_descriptor(spec, "ca")
        assert da.left_classes == dca.left_classes == ("b", "ac", "cc", "cca")
        assert da.right_classes == dca.right_classes == ("b", "cca")
        assert E.extender_compare(spec, "a", "ca") == E.PROPER_SUPERSET

    def test_to_dict_keys(self):
        # the CLI's extender cmp emits the descriptor through asdict
        d = asdict(E.extender_descriptor(GOLDEN, "01"))
        assert set(d) == {"word", "left_classes", "right_classes"}


class TestCompare:
    def test_golden_chain(self):
        assert E.extender_compare(GOLDEN, "1", "01") == E.PROPER_SUBSET
        assert E.extender_compare(GOLDEN, "01", "000") == E.PROPER_SUBSET
        assert E.extender_compare(GOLDEN, "000", "0") == E.EQUAL
        assert E.extender_compare(GOLDEN, "0", "1") == E.PROPER_SUPERSET

    def test_full_shift_all_equal(self):
        for v, w in itertools.product(["0", "1", "01", "110"], repeat=2):
            assert E.extender_compare(FULL, v, w) == E.EQUAL

    def test_antisymmetry(self):
        words = [w for n in range(1, 5) for w in S.enumerate_words(GOLDEN, n)]
        flip = {
            E.PROPER_SUBSET: E.PROPER_SUPERSET,
            E.PROPER_SUPERSET: E.PROPER_SUBSET,
            E.EQUAL: E.EQUAL,
            E.INCOMPARABLE: E.INCOMPARABLE,
        }
        for v, w in itertools.product(words, repeat=2):
            assert E.extender_compare(GOLDEN, w, v) == flip[E.extender_compare(GOLDEN, v, w)]

    def test_transitivity_of_containment(self):
        words = [w for n in range(1, 5) for w in S.enumerate_words(GOLDEN, n)]
        below = {E.PROPER_SUBSET, E.EQUAL}
        rel = {
            (v, w): E.extender_compare(GOLDEN, v, w)
            for v, w in itertools.product(words, repeat=2)
        }
        for u, v, w in itertools.product(words, repeat=3):
            if rel[(u, v)] in below and rel[(v, w)] in below:
                assert rel[(u, w)] in below


class TestWindowed:
    def test_matches_exact_on_golden(self):
        words = [w for n in range(1, 4) for w in S.enumerate_words(GOLDEN, n)]
        window = S.build_automaton(GOLDEN).memory + 1
        for v, w in itertools.product(words, repeat=2):
            assert compare_windowed(GOLDEN, v, w, window) == E.extender_compare(
                GOLDEN, v, w
            )

    def test_pair_count_full_shift(self):
        ext = extender_windowed(FULL, "0", 2)
        assert len(ext.pairs) == 16

    def test_window_validation(self):
        with pytest.raises(InvalidWordError):
            extender_windowed(GOLDEN, "0", 0)
