"""Random small SFTs: the automaton-based answers against plain enumeration;
random S-gap sets: the closed-form certificates against the recursion."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symshift import extender as E
from symshift import mme as M
from symshift import subshifts as S
from symshift import words as W
from symshift.errors import EmptySubshiftError
from test_extender import compare_windowed
from test_mme import ReferenceRecursion

SYMBOLS = ("0", "1", "2")


@st.composite
def sft_specs(draw):
    """At most three symbols and forbidden words of length <= 4 (memory <= 3)."""
    alphabet = W.Alphabet(SYMBOLS[: draw(st.integers(1, 3))])
    word = st.text(alphabet="".join(alphabet.symbols), min_size=1, max_size=4)
    forbidden = draw(st.lists(word, max_size=4, unique=True))
    return S.SftShift(alphabet, tuple(forbidden))


@st.composite
def gap_sets(draw):
    """Finite or cofinite gap sets whose listed gaps and tail start are <= 12."""
    extra = draw(st.sets(st.integers(0, 12), min_size=1, max_size=6))
    if draw(st.booleans()):
        tail = draw(st.integers(0, 12))
        return S.SGapSet(tuple(sorted(n for n in extra if n < tail)), tail)
    return S.SGapSet(tuple(sorted(extra)))


@st.composite
def binary_words(draw):
    """Binary words of up to 20 letters, drawn as runs of up to 13 zeros
    between 1s, so long runs at either end are as likely as short ones."""
    w = "0" * draw(st.integers(0, 13))
    while len(w) < 20 and draw(st.booleans()):
        w += "1" + "0" * draw(st.integers(0, 13))
    return w[:20]


def presentation(spec):
    """The spec's automaton, or None after checking that an empty language
    is reported as such by the language layer too."""
    try:
        return S.build_automaton(spec)
    except EmptySubshiftError:
        with pytest.raises(EmptySubshiftError):
            S.enumerate_words(spec, 1)
        return None


@settings(max_examples=200, deadline=None)
@given(sft_specs())
def test_member_agrees_with_enumeration(spec):
    if presentation(spec) is None:
        return
    for n in range(7):
        language = set(S.enumerate_words(spec, n))
        assert {u for u in spec.alphabet.words(n) if S.member(spec, u)} == language
    sizes = [len(words) for words, _, _ in S._word_levels(spec, 6)]
    assert sizes == [S.count_words(spec, n) for n in range(1, 7)]


@settings(max_examples=200, deadline=None)
@given(sft_specs(), st.data())
def test_extender_compare_agrees_with_window(spec, data):
    aut = presentation(spec)
    if aut is None:
        return
    words = [u for n in range(1, 4) for u in S.enumerate_words(spec, n)]
    for _ in range(4):
        v = data.draw(st.sampled_from(words))
        w = data.draw(st.sampled_from(words))
        assert E.extender_compare(spec, v, w) == compare_windowed(spec, v, w, aut.memory)


@settings(max_examples=200, deadline=None)
@given(sft_specs())
def test_entropy_is_below_every_growth_ratio(spec):
    # log|L_n| is subadditive, so h = inf_n log|L_n| / n (Fekete)
    if presentation(spec) is None:
        return
    h = S.entropy(spec)
    assert h >= 0.0
    for n in range(1, 31):
        assert h <= math.log(S.count_words(spec, n)) / n + 1e-12


@settings(max_examples=100, deadline=None)
@given(sft_specs(), sft_specs(), st.lists(st.tuples(st.booleans(), st.integers(0, 30))))
def test_resumed_counts_match_a_fresh_walk(first, second, asks):
    # lengths up, down and repeated, on two presentations in turn
    if presentation(first) is None or presentation(second) is None:
        return
    fresh = {spec: list(itertools.islice(S._counts(spec), 31)) for spec in (first, second)}
    for use_second, n in asks:
        spec = second if use_second else first
        assert S.count_words(spec, n) == fresh[spec][n]


@settings(max_examples=200, deadline=None)
@given(gap_sets(), st.lists(binary_words(), min_size=1, max_size=8))
def test_sgap_certificates_match_the_recursion(gaps, words):
    model, reference = M.SGapMME(gaps), ReferenceRecursion(gaps)
    for w in words:
        cert = model.certificate(w)
        assert (cert.offset, cert.coeffs) == reference(w), w
