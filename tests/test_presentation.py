"""The minimal left-context presentation against the m-block graph it replaced.

The m-block builder below is kept only here, as a reference: its states are
the legal blocks of length m (the longest forbidden word minus one), and a
word of length n >= m is read from the state of its first m letters.  So are
the dict walk over the transitions and the Python fixed point of follower
containment that the library's array layer replaced, and the set-based
structural predicates built on them.  An S-gap shift enters the references
by its forbidden words, written out here, while the library presents it
from its gap counter; the last tests hold the two presentations equal.
"""

import itertools
import math
import random
from functools import cached_property, lru_cache

import pytest
from hypothesis import given, settings

from symshift import extender as E
from symshift import mme as M
from symshift import subshifts as S
from symshift import verify as V
from symshift import words as W
from symshift.errors import EmptySubshiftError
from test_fuzz import sft_specs
from test_subshifts import _zoo_style_specs

TERNARY = W.Alphabet(("0", "1", "2"))
MULTI = W.Alphabet(("a", "bb", "c"))

FIXED_SPECS = [
    S.FullShift(W.BINARY),
    S.FullShift(MULTI),
    S.SftShift(W.BINARY, ("11",)),
    S.SftShift(W.BINARY, ("111", "1001")),
    S.SftShift(W.BINARY, ("011",)),
    S.SftShift(W.BINARY, ("10",)),
    S.SftShift(TERNARY, ("00", "12", "210")),
    S.SftShift(MULTI, (("bb", "bb"), ("a", "c", "a"))),
    S.SGapShift(S.SGapSet((0, 1))),
    S.SGapShift(S.SGapSet((1, 3))),
    S.SGapShift(S.SGapSet((0, 2, 3))),
    S.SGapShift(S.SGapSet((), 1)),
    S.SGapShift(S.SGapSet((2,), 5)),
]


@lru_cache(maxsize=16)
def delta_map(aut):
    return {(p, a): r for p, a, r in aut.transitions}


def read(aut, q, word):
    """Follow the path labelled word from state q; None if it dies."""
    delta = delta_map(aut)
    for a in word:
        q = delta.get((q, a))
        if q is None:
            return None
    return q


def landing_states(aut, w):
    """start state -> state reached by reading w, for starts where w is readable."""
    out = {}
    for i in range(len(aut.states)):
        r = read(aut, i, w)
        if r is not None:
            out[i] = r
    return out


def containment_table(aut):
    """Greatest fixed point of follower containment, by a Python loop that
    updates the table in place until a round changes nothing."""
    n = len(aut.states)
    out = {q: {} for q in range(n)}
    for q, a, r in aut.transitions:
        out[q][a] = r
    table = [[True] * n for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(n):
                if not table[p][q]:
                    continue
                for a, r in out[p].items():
                    rq = out[q].get(a)
                    if rq is None or not table[r][rq]:
                        table[p][q] = False
                        changed = True
                        break
    return table


def extender_contains(table, land_v, land_w):
    """E(v) subset-or-equal E(w) from landing maps on a shared automaton."""
    for q, rv in land_v.items():
        rw = land_w.get(q)
        if rw is None or not table[rv][rw]:
            return False
    return True


def is_synchronizing(aut, w):
    """Whether w lands in one state from every state it is readable from."""
    return len(set(landing_states(aut, w).values())) == 1


def specification_distance_holds(aut, N):
    """Any two legal words joined by a connector of length N, by N-step
    reachability sets and the family of left-context sets."""
    n = len(aut.states)
    adj = [[0] * n for _ in range(n)]
    for q, _a, r in aut.transitions:
        adj[q][r] = 1
    reach = []
    for p in range(n):
        cur = {p}
        for _ in range(N):
            cur = {r for q in cur for r in range(n) if adj[q][r]}
        reach.append(cur)
    pre = {a: {} for a in aut.alphabet.symbols}
    for q, a, r in aut.transitions:
        pre[a].setdefault(r, set()).add(q)
    full = frozenset(range(n))
    family = {full}
    stack = [full]
    while stack:
        Q = stack.pop()
        for a in aut.alphabet.symbols:
            newQ = frozenset(q for r in Q for q in pre[a].get(r, ()))
            if newQ and newQ not in family:
                family.add(newQ)
                stack.append(newQ)
    return all(reach[p] & Q for p in range(n) for Q in family)


def sgap_forbidden(gaps):
    """An S-gap shift's forbidden words, written out here so that the
    references do not take the library's route to its presentation:
    1 0^n 1 for each n < top not in S, and 0^(top+1) when S is finite."""
    top = max(gaps.extra) if gaps.finite else gaps.cofinite_from
    words = ["1" + "0" * n + "1" for n in range(top) if n not in gaps]
    return tuple(words + ["0" * (top + 1)] * gaps.finite)


def as_sft(spec):
    """The spec as an SFT given by its forbidden words."""
    if isinstance(spec, S.SGapShift):
        return S.SftShift(W.BINARY, sgap_forbidden(spec.gaps))
    if isinstance(spec, S.FullShift):
        return S.SftShift(spec.alphabet, ())
    return spec


class BlockGraph:
    """Trimmed m-block presentation of an SFT language (test reference)."""

    def __init__(self, spec):
        sft = as_sft(spec)
        alphabet = sft.alphabet
        m = max([len(f) for f in sft.forbidden] + [2]) - 1

        def legal(u):
            return all(not W.occurrences(u, f) for f in sft.forbidden)

        blocks = {u for u in alphabet.words(m) if legal(u)}
        edges = {}
        for q in blocks:
            for a in alphabet.symbols:
                window = q + alphabet.letters[a]
                if window[1:] in blocks and legal(window):
                    edges.setdefault(q, {})[a] = window[1:]
        alive = blocks
        while True:
            keep = {q for q in alive if any(t in alive for t in edges.get(q, {}).values())}
            keep &= {t for q in keep for t in edges[q].values()}
            if keep == alive:
                break
            alive = keep
        if not alive:
            raise EmptySubshiftError("empty language")
        self.m = m
        self.states = tuple(sorted(alive))
        self.index = {q: i for i, q in enumerate(self.states)}
        # the library's automaton type, read only through the references above
        self.aut = S.Automaton(
            alphabet=alphabet,
            memory=m,
            states=self.states,
            transitions=tuple(
                (self.index[q], a, self.index[t])
                for q in self.states
                for a, t in sorted(edges.get(q, {}).items())
                if t in alive
            ),
            word_graph=(),
        )

    def member(self, u):
        if len(u) < self.m:
            return any(q[: len(u)] == u for q in self.states)
        start = self.index.get(u[: self.m])
        return start is not None and read(self.aut, start, u[self.m :]) is not None

    def count_words(self, n):
        if n <= self.m:
            return len({q[:n] for q in self.states})
        vec = [1] * len(self.states)
        for _ in range(n - self.m):
            new = [0] * len(vec)
            for q, _a, r in self.aut.transitions:
                new[r] += vec[q]
            vec = new
        return sum(vec)

    def entropy(self):
        A = self.aut.adjacency()
        return math.log(max(S.perron_value(A[c][:, c])[0] for c in S._components(A)))

    @cached_property
    def containment(self):
        return containment_table(self.aut)

    def extender_compare(self, v, w):
        land_v = landing_states(self.aut, v)
        land_w = landing_states(self.aut, w)
        v_in_w = extender_contains(self.containment, land_v, land_w)
        w_in_v = extender_contains(self.containment, land_w, land_v)
        if v_in_w and w_in_v:
            return E.EQUAL
        return E.PROPER_SUBSET if v_in_w else E.PROPER_SUPERSET if w_in_v else E.INCOMPARABLE

    @cached_property
    def parry(self):
        return M.parry_chain(self.aut.adjacency())

    def mu_parry(self, w):
        """Stationary weight of the block w starts with, times the path product."""
        _lam, stationary, P = self.parry
        if len(w) <= self.m:
            return sum(p for q, p in zip(self.states, stationary) if q[: len(w)] == w)
        i = self.index.get(w[: self.m])
        prob = 0.0 if i is None else stationary[i]
        for a in w[self.m :]:
            j = None if i is None else delta_map(self.aut).get((i, a))
            if j is None:
                return 0.0
            prob *= P[i, j]
            i = j
        return prob


def assert_agrees(spec, member_len=8, count_len=30, pair_len=4):
    ref = BlockGraph(spec)
    alphabet = spec.alphabet
    for n in range(member_len + 1):
        for u in alphabet.words(n):
            assert S.member(spec, u) == ref.member(u), u
    for n in range(count_len + 1):
        assert S.count_words(spec, n) == ref.count_words(n), n
    words = [u for n in range(1, pair_len + 1) for u in S.enumerate_words(spec, n)]
    for v, w in itertools.product(words, repeat=2):
        assert E.extender_compare(spec, v, w) == ref.extender_compare(v, w), (v, w)
    aut = S.build_automaton(spec)
    assert aut._containment_table[:-1, :-1].tolist() == containment_table(aut)
    for w in words:
        assert S._landing_states(aut, w) == landing_states(aut, w), w
    assert S.entropy(spec) == pytest.approx(ref.entropy(), rel=1e-14, abs=1e-15)
    return ref, words


@pytest.mark.parametrize("spec", FIXED_SPECS, ids=S.describe)
def test_agrees_with_block_graph(spec):
    ref, words = assert_agrees(spec, pair_len=5 if len(spec.alphabet.symbols) == 2 else 3)
    aut = S.build_automaton(spec)
    for w in words:
        assert is_synchronizing(aut, w) == all(
            ref.containment[p][q]
            for p, q in itertools.product(set(landing_states(ref.aut, w).values()), repeat=2)
        )
    if aut.irreducible:
        model = M.parry(spec)
        for w in words:
            assert M.mu_parry(model, w) == pytest.approx(ref.mu_parry(w), rel=1e-12, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(sft_specs())
def test_random_sfts_agree_with_block_graph(spec):
    try:
        ref = BlockGraph(spec)
    except EmptySubshiftError:
        with pytest.raises(EmptySubshiftError):
            S.build_automaton(spec)
        return
    assert len(S.build_automaton(spec).states) <= len(ref.states)
    assert_agrees(spec, pair_len=3)


@pytest.mark.parametrize("g", [1, 5, 19, 40, 200])
def test_sgap_pair_has_one_state_per_gap_count(g):
    spec = S.SGapShift(S.SGapSet((0, g)))
    assert len(S.build_automaton(spec).states) == g + 1
    assert S.entropy(spec) == pytest.approx(math.log(S.sgap_lambda(spec.gaps)), abs=1e-9)


@pytest.mark.parametrize("g", [40, 200])
def test_containment_table_matches_reference_on_long_gaps(g):
    aut = S.build_automaton(S.SGapShift(S.SGapSet((0, g))))
    assert aut._containment_table[:-1, :-1].tolist() == containment_table(aut)


PREDICATE_SPECS = FIXED_SPECS + [
    S.SGapShift(S.SGapSet((0, 12))),
    S.SGapShift(S.SGapSet((1, 4, 6))),
    S.SGapShift(S.SGapSet((3,), 7)),
]


@pytest.mark.parametrize("spec", PREDICATE_SPECS, ids=S.describe)
def test_structural_predicates_match_set_reference(spec):
    aut = S.build_automaton(spec)
    for N in range(61):
        assert S.specification_distance_holds(spec, N) == specification_distance_holds(aut, N), N


def test_forbidden_word_off_the_alphabet_never_occurs():
    spec = S.SftShift(W.BINARY, ("2", "11"))
    assert [S.count_words(spec, n) for n in range(1, 6)] == [2, 3, 5, 8, 13]


def test_long_forbidden_word_builds():
    spec = S.SftShift(W.BINARY, ("1" * 40,))
    aut = S.build_automaton(spec)
    assert len(aut.states) == 40
    assert S.count_words(spec, 39) == 2**39
    assert S.count_words(spec, 40) == 2**40 - 1
    assert S.member(spec, "1" * 39) and not S.member(spec, "1" * 40)


@pytest.mark.parametrize("alphabet", [W.BINARY, TERNARY, MULTI])
def test_full_shift_parry_is_uniform(alphabet):
    # one state with a loop per symbol: each parallel edge carries 1/|A|
    spec = S.FullShift(alphabet)
    assert len(S.build_automaton(spec).states) == 1
    model = M.parry(spec)
    k = len(alphabet.symbols)
    for n in range(5):
        for w in alphabet.words(n):
            assert M.mu_parry(model, w) == pytest.approx(k**-n, rel=1e-14)


def test_states_are_labelled_by_synchronizing_words():
    aut = S.build_automaton(S.SftShift(W.BINARY, ("111", "1001")))
    for q, label in enumerate(aut.states):
        assert set(S._landing_states(aut, label).values()) == {q}


def _gap_sets(seed=36):
    """Every finite and cofinite gap set with top <= 6, and six of each kind
    drawn for each top from 7 to 14."""
    rng = random.Random(seed)
    sets = []
    for top in range(15):
        if top <= 6:
            belows = [tuple(n for n in range(top) if mask >> n & 1) for mask in range(2**top)]
        else:
            belows = [tuple(sorted(rng.sample(range(top), rng.randint(0, top)))) for _ in range(6)]
        for below in belows:
            sets += [S.SGapSet(below + (top,)), S.SGapSet(below, top)]
    return sets


# the gap sets the other tests build, as the presentation or the gap chain
SUITE_GAP_SETS = (
    [S.spec_from_dict(doc).gaps for doc in V.DEFAULT_CONFIG["sgap_specs"]]
    + [spec.gaps for spec in PREDICATE_SPECS if isinstance(spec, S.SGapShift)]
    + [spec.gaps for seed in range(1, 6) for spec in _zoo_style_specs(seed) if isinstance(spec, S.SGapShift)]
    + [
        S.SGapSet(gaps)
        for gaps in [(0,), (1,), (3,), (4,), (5,), (0, 2), (0, 5), (0, 7), (0, 19), (0, 40), (0, 100),
                     (0, 200), (0, 999), (0, 2, 30), (0, 2, 50), (0, 1, 170), (7, 40)]
    ]
    + [S.SGapSet(extra, top) for extra, top in [((), 0), ((0, 2), 7), ((0, 1), 9), ((1, 3, 5), 7), ((7,), 40)]]
)


def assert_same_presentation(gaps):
    """The presentation built from the gap counter is the one built from the
    forbidden words, down to the numbering and the memory."""
    got = S.build_automaton(S.SGapShift(gaps))
    want = S.build_automaton(S.SftShift(W.BINARY, sgap_forbidden(gaps)))
    for name in ("states", "transitions", "word_graph", "memory"):
        assert getattr(got, name) == getattr(want, name), (gaps, name)


def test_gap_counter_presents_what_the_forbidden_words_do():
    sets = _gap_sets()
    assert len(set(sets)) >= 300
    for gaps in sets:
        assert_same_presentation(gaps)


@pytest.mark.parametrize("gaps", sorted(set(SUITE_GAP_SETS), key=S.SGapSet.describe), ids=S.SGapSet.describe)
def test_gap_counter_presents_the_suite_sets_as_the_forbidden_words_do(gaps):
    assert_same_presentation(gaps)
