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

import numpy as np

from . import subshifts as S
from . import words as W
from .errors import InvalidWordError

EQUAL = "equal"
PROPER_SUBSET = "proper-subset"
PROPER_SUPERSET = "proper-superset"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ExtenderDescriptor:
    """Finite certificate of a word's extender set.

    ``left_classes`` are the labels of the states from which the word is
    readable; ``right_classes`` the labels of the landing states.
    """

    word: str
    left_classes: tuple[str, ...]
    right_classes: tuple[str, ...]


def extender_descriptor(spec, w) -> ExtenderDescriptor:
    if not S.member(spec, w):
        raise InvalidWordError(f"{W.format_word(w)!r} is not in the language")
    aut = S.build_automaton(spec)
    landing = S._landing_states(aut, w)
    label = [W.format_word(s) for s in aut.states]
    return ExtenderDescriptor(
        word=W.format_word(w),
        left_classes=tuple(label[q] for q in sorted(landing)),
        right_classes=tuple(sorted({label[r] for r in landing.values()})),
    )


# entries of one (v rows x w rows x states) block of ``_contains``
_BLOCK = 1 << 20


def _contains(C: np.ndarray, Lv: np.ndarray, Lw: np.ndarray) -> np.ndarray:
    """sub[i, j] = E(v_i) subset-or-equal E(w_j) for every pair of landing rows
    (``subshifts._landing_row``) Lv[i] and Lw[j] on one automaton, whose
    ``_containment_table`` is C.

    E(v) is in E(w) iff for every start q with Lv[q] >= 0, Lw[q] >= 0 and
    C[Lv[q], Lw[q]].  Index -1 is C's dead state: its empty follower set is
    contained in every follower set and contains no live state's, so the rule
    reads C[Lv[q], Lw[q]] at every q.  The v rows go in chunks, so that one
    block stays within _BLOCK entries; either array may have no rows.
    """
    sub = np.empty((len(Lv), len(Lw)), dtype=bool)
    step = max(1, _BLOCK // max(1, Lw.size))
    for s in range(0, len(Lv), step):
        sub[s : s + step] = C[Lv[s : s + step, None], Lw].all(axis=2)
    return sub


def extender_compare(spec, v, w) -> str:
    """Exact decision on E(v) vs E(w) (different lengths compared after the
    left/right concatenation identification)."""
    for word in (v, w):
        if not S.member(spec, word):
            raise InvalidWordError(f"{W.format_word(word)!r} is not in the language")
    aut = S.build_automaton(spec)
    rv, rw = S._landing_row(aut, v), S._landing_row(aut, w)
    C = aut._containment_table
    v_in_w, w_in_v = C[rv, rw].all(), C[rw, rv].all()
    if v_in_w and w_in_v:
        return EQUAL
    if v_in_w:
        return PROPER_SUBSET
    if w_in_v:
        return PROPER_SUPERSET
    return INCOMPARABLE
