"""Exact extender-set descriptors and comparisons for automaton-presented shifts.

Each state of the presentation is a function of the left-infinite past, so
the completions of a word w decompose per left-context class: a bi-infinite
completion (left ray, right ray) belongs to the extender set of w exactly
when the state of the left ray is one from which w is readable, and the
right ray is legal from the landing state.  Containment between extender
sets of two words (of possibly different lengths, via the concatenation
identification) therefore reduces to containment of left-class sets plus
follower-language containment at each shared left class.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import subshifts as S
from . import words as W
from .errors import InvalidWordError, ResourceLimitError

EQUAL = "equal"
PROPER_SUBSET = "proper-subset"
PROPER_SUPERSET = "proper-superset"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ExtenderDescriptor:
    """Finite certificate of a word's extender set.

    ``left_classes`` are the labels of the states from which the word is
    readable; ``right_classes`` the labels of the landing states; ``landing``
    maps each left class to its landing state (the coupling matters for words
    that do not synchronize, i.e. land in more than one state).
    """

    word: str
    left_classes: tuple[str, ...]
    right_classes: tuple[str, ...]
    landing: tuple[tuple[str, str], ...]

    @property
    def empty(self) -> bool:
        return not self.left_classes

    def to_dict(self) -> dict:
        return {
            "word": self.word,
            "left_classes": list(self.left_classes),
            "right_classes": list(self.right_classes),
        }


def extender_descriptor(spec, w) -> ExtenderDescriptor:
    if not S.member(spec, w):
        raise InvalidWordError(f"{W.format_word(w)!r} is not in the language")
    aut = S.build_automaton(spec)
    landing = S._landing_states(aut, w)
    pairs = tuple(
        (W.format_word(aut.states[q]), W.format_word(aut.states[r]))
        for q, r in sorted(landing.items())
    )
    return ExtenderDescriptor(
        word=W.format_word(w),
        left_classes=tuple(p for p, _ in pairs),
        right_classes=tuple(sorted({r for _, r in pairs})),
        landing=pairs,
    )


def _extender_contains(aut, land_v: dict, land_w: dict) -> bool:
    """E(v) subset-or-equal E(w) from landing maps on a shared automaton."""
    for q, rv in land_v.items():
        rw = land_w.get(q)
        if rw is None or not aut.follower_contains(rv, rw):
            return False
    return True


def extender_compare(spec, v, w) -> str:
    """Exact decision on E(v) vs E(w) (different lengths compared after the
    left/right concatenation identification)."""
    for word in (v, w):
        if not S.member(spec, word):
            raise InvalidWordError(f"{W.format_word(word)!r} is not in the language")
    aut = S.build_automaton(spec)
    land_v = S._landing_states(aut, v)
    land_w = S._landing_states(aut, w)
    v_in_w = _extender_contains(aut, land_v, land_w)
    w_in_v = _extender_contains(aut, land_w, land_v)
    if v_in_w and w_in_v:
        return EQUAL
    if v_in_w:
        return PROPER_SUBSET
    if w_in_v:
        return PROPER_SUPERSET
    return INCOMPARABLE


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
        return EQUAL
    if v_in_w:
        return PROPER_SUBSET
    if w_in_v:
        return PROPER_SUPERSET
    return INCOMPARABLE
