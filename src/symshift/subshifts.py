"""Subshift specs, transition-graph presentations, languages, and entropy."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

import numpy as np

from . import words as W
from .errors import (
    EmptySubshiftError,
    InvalidWordError,
    NumericalError,
    ResourceLimitError,
    SpecFormatError,
)

# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class SGapSet:
    """Allowed gap lengths between consecutive 1s.

    ``extra`` lists the finite members; when ``cofinite_from`` is an integer
    M the set is extra ∪ [M, ∞), otherwise it is just ``extra``.
    """

    extra: tuple[int, ...]
    cofinite_from: Optional[int] = None

    def __post_init__(self):
        if list(self.extra) != sorted(set(self.extra)):
            raise SpecFormatError("gap list must be sorted and duplicate-free")
        if any(n < 0 for n in self.extra):
            raise SpecFormatError("gaps must be nonnegative")
        if self.cofinite_from is None:
            if not self.extra:
                raise SpecFormatError("finite gap set must be nonempty")
        else:
            if self.cofinite_from < 0:
                raise SpecFormatError("cofinite threshold must be nonnegative")
            if any(n >= self.cofinite_from for n in self.extra):
                raise SpecFormatError("extra gaps must lie below the cofinite threshold")

    @property
    def finite(self) -> bool:
        return self.cofinite_from is None

    def __contains__(self, n: int) -> bool:
        if n in self.extra:
            return True
        return self.cofinite_from is not None and n >= self.cofinite_from

    def gcd_shifted(self) -> int:
        """gcd of {n+1 : n in S}; 1 is the mixing case."""
        if self.cofinite_from is not None:
            # consecutive integers are present
            return 1
        g = 0
        for n in self.extra:
            g = math.gcd(g, n + 1)
        return g

    def describe(self) -> str:
        inner = ",".join(str(n) for n in self.extra)
        if self.cofinite_from is None:
            return "{" + inner + "}"
        tail = f"[{self.cofinite_from},inf)"
        return ("{" + inner + "}u" + tail) if self.extra else tail


@dataclass(frozen=True)
class FullShift:
    alphabet: W.Alphabet


@dataclass(frozen=True)
class SftShift:
    alphabet: W.Alphabet
    forbidden: tuple

    def __post_init__(self):
        if any(len(f) == 0 for f in self.forbidden):
            raise SpecFormatError("forbidden words must be nonempty")


@dataclass(frozen=True)
class SGapShift:
    gaps: SGapSet

    @property
    def alphabet(self) -> W.Alphabet:
        return W.BINARY


SubshiftSpec = FullShift | SftShift | SGapShift


def describe(spec) -> str:
    if isinstance(spec, FullShift):
        return f"full shift on {len(spec.alphabet.symbols)} symbols"
    if isinstance(spec, SftShift):
        forb = ",".join(W.format_word(f) for f in spec.forbidden)
        return f"SFT forbidding {{{forb}}}"
    return f"S-gap shift, S={spec.gaps.describe()}"


# ---------------------------------------------------------------------------
# Spec parsing


def spec_from_dict(doc: dict) -> SubshiftSpec:
    if not isinstance(doc, dict) or "type" not in doc:
        raise SpecFormatError("spec document must be an object with a 'type' field")
    kind = doc["type"]
    if kind == "full":
        _require_keys(doc, {"type", "alphabet"})
        return FullShift(_parse_alphabet(doc))
    if kind == "sft":
        _require_keys(doc, {"type", "alphabet", "forbidden"})
        alphabet = _parse_alphabet(doc)
        raw = doc["forbidden"]
        if not isinstance(raw, list) or not raw or not all(isinstance(f, str) for f in raw):
            raise SpecFormatError("'forbidden' must be a nonempty list of words")
        forbidden = tuple(W.parse_word(f, alphabet) for f in raw)
        return SftShift(alphabet, forbidden)
    if kind == "sgap":
        if "finite" in doc:
            _require_keys(doc, {"type", "finite"})
            gaps = SGapSet(_gap_list(doc["finite"]))
        elif "from" in doc:
            _require_keys(doc, {"type", "extra", "from"})
            if type(doc["from"]) is not int:
                raise SpecFormatError("'from' must be an integer")
            gaps = SGapSet(_gap_list(doc["extra"]), doc["from"])
        else:
            raise SpecFormatError("sgap spec needs either 'finite' or 'extra'+'from'")
        return SGapShift(gaps)
    raise SpecFormatError(f"unknown spec type {kind!r}")


def _parse_alphabet(doc) -> W.Alphabet:
    raw = doc.get("alphabet")
    if not isinstance(raw, list) or not raw:
        raise SpecFormatError("'alphabet' must be a nonempty list of symbols")
    return W.Alphabet(tuple(raw))


def _gap_list(raw) -> tuple:
    # type() rather than isinstance: JSON true/false load as bool, an int subclass
    if not isinstance(raw, list) or any(type(n) is not int for n in raw):
        raise SpecFormatError("gap lists must hold integers")
    return tuple(sorted(set(raw)))


def _require_keys(doc, allowed):
    unknown = set(doc) - allowed
    if unknown:
        raise SpecFormatError(f"unknown spec fields: {sorted(unknown)}")
    missing = allowed - set(doc)
    if missing:
        raise SpecFormatError(f"missing spec fields: {sorted(missing)}")


# ---------------------------------------------------------------------------
# Automaton presentation (minimal left-context automaton)


@dataclass(frozen=True, eq=False)
class Automaton:
    """Minimal deterministic presentation of an SFT language.

    A state stands for the left-infinite pasts that share one follower set,
    the follower-separated presentation of Lind & Marcus §3.3-3.4.  States are
    numbered, and labelled, by the shortlex-first word that leads every state
    into them.  ``word_graph`` is the subset construction from the set of all
    states: its nodes are the nonempty sets delta(Q, w), node 0 reads from
    every state, and its paths from node 0 spell the language, once each.
    """

    alphabet: W.Alphabet
    memory: int  # longest forbidden word minus one, at least 1
    states: tuple
    transitions: tuple  # ((state_index, symbol, target_index), ...)
    word_graph: tuple  # node -> {symbol: node}

    @cached_property
    def column(self) -> dict:
        """symbol -> its column of ``T``, in alphabet order."""
        return {a: k for k, a in enumerate(self.alphabet.symbols)}

    @cached_property
    def T(self) -> np.ndarray:
        """Transition table: T[q, column[a]] is the target of the edge labelled a
        from state q, or -1 where there is none.

        Its one extra, last row is all -1: the dead state, which index -1
        reads, so a landing row steps one symbol as T[row, column[a]] and
        -1 stays -1.  Columns are contiguous, for that step.
        """
        table = np.full((len(self.states) + 1, len(self.column)), -1, dtype=np.intp, order="F")
        for q, a, r in self.transitions:
            table[q, self.column[a]] = r
        return table

    def adjacency(self) -> np.ndarray:
        n = len(self.states)
        A = np.zeros((n, n))
        for q, _a, r in self.transitions:
            A[q, r] += 1.0
        return A

    @cached_property
    def irreducible(self) -> bool:
        return _strongly_connected(self.adjacency())

    def follower_contains(self, p: int, q: int) -> bool:
        """Whether every legal right ray from p is legal from q."""
        return bool(self._containment_table[p, q])

    @cached_property
    def _containment_table(self) -> np.ndarray:
        """Greatest fixed point of follower containment; built on first query.

        An (n + 1) x (n + 1) boolean array over the states and, last, the dead
        state of ``T``, whose follower set is empty: it is contained in every
        follower set, and no live state's is contained in it.  C[p, q] holds
        when C[T[p, a], T[q, a]] does for every symbol a.
        """
        table = np.ones((len(self.T),) * 2, dtype=bool)
        table[:-1, -1] = False
        while True:
            kept = table.copy()
            for col in self.T.T:
                kept &= table[col[:, None], col[None, :]]
            if (kept == table).all():
                return table
            table = kept


def _sgap_forbidden(gaps: SGapSet):
    """Finite forbidden-word list presenting the S-gap shift as an SFT."""
    if gaps.finite:
        m = max(gaps.extra)
        forb = ["1" + "0" * n + "1" for n in range(m + 1) if n not in gaps]
        forb.append("0" * (m + 1))
    else:
        forb = ["1" + "0" * n + "1" for n in range(gaps.cofinite_from) if n not in gaps]
    return tuple(forb)


def _as_sft(spec) -> SftShift:
    if isinstance(spec, SftShift):
        return spec
    if isinstance(spec, FullShift):
        return SftShift(spec.alphabet, ())
    if isinstance(spec, SGapShift):
        return SftShift(W.BINARY, _sgap_forbidden(spec.gaps))
    raise SpecFormatError(f"no automaton presentation for {type(spec).__name__}")


def _aho_corasick(alphabet: W.Alphabet, forbidden) -> dict:
    """Aho–Corasick automaton of the forbidden words, less every transition
    that completes one: state -> {symbol: state}.  A state is the longest
    suffix of the past that is a proper prefix of a forbidden word."""
    empty = alphabet.empty
    # a word with a symbol outside the alphabet never occurs: drop it
    forbidden = {f for f in forbidden if all(a in alphabet.symbols for a in f)}
    prefixes = {f[:i] for f in forbidden for i in range(len(f) + 1)} | {empty}
    goto, fail, banned = {}, {empty: empty}, {empty: False}
    for s in sorted(prefixes, key=len):  # a failure link is shorter: done first
        if s:
            fail[s] = goto[fail[s[:-1]]][s[-1]] if len(s) > 1 else empty
            banned[s] = s in forbidden or banned[fail[s]]
        goto[s] = {}
        for a, letter in alphabet.letters.items():
            t = s + letter
            goto[s][a] = t if t in prefixes else goto[fail[s]][a] if s else empty
    return {
        s: {a: t for a, t in out.items() if not banned[t]}
        for s, out in goto.items()
        if not banned[s]
    }


@lru_cache(maxsize=None)
def build_automaton(spec) -> Automaton:
    """Minimal left-context automaton for a Full/SFT/S-gap spec.

    The Aho–Corasick automaton of the forbidden words is trimmed to its
    essential part; Moore partition refinement then merges the states with
    equal follower sets.
    """
    sft = _as_sft(spec)
    alphabet = sft.alphabet
    edges = _aho_corasick(alphabet, sft.forbidden)

    # essential part: remove, one at a time, the states without a successor
    # or without a predecessor (a worklist: a dead chain costs its length)
    succ = {q: set(out.values()) for q, out in edges.items()}
    pred = {q: set() for q in edges}
    for q, targets in succ.items():
        for t in targets:
            pred[t].add(q)
    doomed = [q for q in edges if not succ[q] or not pred[q]]
    while doomed:
        q = doomed.pop()
        if q not in succ:
            continue
        for t in succ.pop(q):
            pred[t].discard(q)
            if not pred[t]:
                doomed.append(t)
        for p in pred.pop(q):
            succ[p].discard(q)
            if not succ[p]:
                doomed.append(p)
    if not succ:
        raise EmptySubshiftError(f"{describe(spec)} has empty language")
    edges = {q: {a: t for a, t in edges[q].items() if t in succ} for q in succ}

    # Moore refinement: signature (class, per-symbol target class or None)
    cls = dict.fromkeys(edges, 0)
    while True:
        ids, new = {}, {}
        for q, out in edges.items():
            signature = (cls[q],) + tuple(cls.get(out.get(a)) for a in alphabet.symbols)
            new[q] = ids.setdefault(signature, len(ids))
        if len(ids) == len(set(cls.values())):
            break
        cls = new
    delta = [None] * len(ids)
    for q, out in edges.items():
        delta[cls[q]] = {a: cls[t] for a, t in out.items()}

    # word graph: subset construction from all states, breadth-first in shortlex order
    sets = [frozenset(range(len(delta)))]
    words = [alphabet.empty]
    node_of = {sets[0]: 0}
    word_graph = []
    for Q, w in zip(sets, words):  # both lists grow while they are walked
        out = {}
        for a in alphabet.symbols:
            R = frozenset(delta[q][a] for q in Q if a in delta[q])
            if not R:
                continue
            if R not in node_of:
                if len(sets) == W._SWEEP_BUDGET:
                    raise ResourceLimitError(f"word graph exceeds {W._SWEEP_BUDGET} nodes")
                node_of[R] = len(sets)
                sets.append(R)
                words.append(w + alphabet.letters[a])
            out[a] = node_of[R]
        word_graph.append(out)

    # every essential state is {q} = delta(Q, w) for its long enough left contexts w;
    # the dict keeps the breadth-first order
    label = {min(R): w for R, w in zip(sets, words) if len(R) == 1}
    num = {c: i for i, c in enumerate(label)}
    return Automaton(
        alphabet=alphabet,
        memory=max([len(f) for f in sft.forbidden] + [2]) - 1,
        states=tuple(label.values()),
        transitions=tuple(
            (num[c], a, num[delta[c][a]]) for c in label for a in alphabet.symbols if a in delta[c]
        ),
        word_graph=tuple(word_graph),
    )


def _components(A: np.ndarray):
    """Yield the strongly connected components of the graph of A > 0, each a
    sorted index array, by least state."""
    fwd = A > 0
    left = np.ones(len(A), dtype=bool)

    def reach(adj, start):
        seen = np.zeros(len(A), dtype=bool)
        seen[start] = True
        frontier = seen
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & left & ~seen
            seen |= frontier
        return seen

    while left.any():
        q = int(np.argmax(left))
        comp = reach(fwd, q) & reach(fwd.T, q)
        yield np.flatnonzero(comp)
        left &= ~comp


def _strongly_connected(A: np.ndarray) -> bool:
    return len(A) > 0 and len(next(_components(A))) == len(A)


# ---------------------------------------------------------------------------
# Language queries


def member(spec, u) -> bool:
    """Whether u appears in a point of the subshift (bi-extendability enforced)."""
    return _walk(build_automaton(spec).word_graph, 0, u) is not None


def _walk(graph: tuple, node: int, u) -> Optional[int]:
    """The node of the word graph ``graph`` reached by reading u from
    ``node``, or None where u dies; from node 0, u dies exactly when it is
    not in the language."""
    for a in u:
        node = graph[node].get(a)
        if node is None:
            return None
    return node


def _counts(spec):
    """Yield |L_0|, |L_1|, ...: path counts on the word graph (big integers)."""
    graph = build_automaton(spec).word_graph
    edges = [(i, r) for i, out in enumerate(graph) for r in out.values()]
    vec = [1] + [0] * (len(graph) - 1)
    while True:
        yield sum(vec)
        new = [0] * len(graph)
        for i, r in edges:
            new[r] += vec[i]
        vec = new


def _scaled_counts(spec, lam: float):
    """Yield |L_n| / lam^n for n = 0, 1, ...: a floating DP renormalized each step."""
    graph = build_automaton(spec).word_graph
    src, dst = np.array([(i, r) for i, out in enumerate(graph) for r in out.values()]).T
    vec = np.zeros(len(graph))
    vec[0] = 1.0
    while True:
        yield float(vec.sum())
        vec = np.bincount(dst, weights=vec[src], minlength=len(graph)) / lam


def count_words(spec, n: int) -> int:
    """Exact |L_n| via path counting on the word graph (big integers)."""
    if n < 0:
        raise InvalidWordError("length must be nonnegative")
    return next(itertools.islice(_counts(spec), n, None))


def _word_levels(spec, maxlen: int):
    """Yield L_1, ..., L_maxlen in alphabet order, each built from the one
    before, as (words, prefix, last): words[i] is the word at prefix[i] of
    the level before followed by the symbol of column last[i] of ``T``.

    |L_n| never shrinks, since every word extends to the right, so the
    budget is checked once, on L_maxlen, before any level is built.
    """
    if count_words(spec, maxlen) > W._SWEEP_BUDGET:
        raise ResourceLimitError(f"enumerating length-{maxlen} words exceeds the budget")
    aut = build_automaton(spec)
    # the word graph as a table: step[node, column[a]] is the node after a, or -1
    step = np.array([[out.get(a, -1) for a in aut.column] for out in aut.word_graph], dtype=np.intp)
    letters = list(aut.alphabet.letters.values())
    words, nodes = [aut.alphabet.empty], np.zeros(1, dtype=np.intp)
    for _ in range(maxlen):
        # row-major: word by word, and each word's extensions in alphabet order
        prefix, last = np.nonzero(step[nodes] >= 0)
        nodes = step[nodes[prefix], last]
        words = [words[i] + letters[c] for i, c in zip(prefix.tolist(), last.tolist())]
        yield words, prefix, last


def enumerate_words(spec, n: int) -> list:
    """All of L_n in alphabet order, the order of ``Alphabet.words``."""
    words = [build_automaton(spec).alphabet.empty]
    for words, _, _ in _word_levels(spec, n):
        pass
    return words


# ---------------------------------------------------------------------------
# Entropy


# Up to _DENSE_N states the start vector is numpy.linalg.eig's; above it power
# iteration runs first and restarts from eig's vector if it has not certified a
# result after n steps.  Those n steps and one eig both cost order n^3, so a
# matrix that mixes slowly pays about one dense solve, not its mixing time.
_DENSE_N = 64
_MAX_STEPS = 200000


def _dense_vector(A: np.ndarray) -> np.ndarray:
    """|Re v|, normalized to sum 1, for the eigenvector v of the eigenvalue
    of A with the largest real part."""
    values, vectors = np.linalg.eig(A)
    x = np.abs(vectors[:, np.argmax(values.real)].real)
    return x / x.sum()


def _power_steps(A: np.ndarray, x: np.ndarray, steps: int) -> tuple[Optional[float], np.ndarray]:
    """Up to ``steps`` normalized A + I steps from x >= 0, stopping at the
    first certified x: the step is below 1e-15, x > 0 and the Collatz-Wielandt
    bracket min (Ax)_i / x_i <= lam <= max (Ax)_i / x_i is at most
    1e-12 max(1, lam) wide.  Returns (lam, x), with lam None if uncertified."""
    for _ in range(steps):
        Ax = A @ x
        y = Ax + x
        y /= y.sum()
        if np.max(np.abs(y - x)) < 1e-15:
            if np.all(x > 0):
                ratios = Ax / x
                lo, hi = float(ratios.min()), float(ratios.max())
                if hi - lo <= 1e-12 * max(1.0, lo):
                    # the Rayleigh quotient, which rounding can put an ulp outside the bracket
                    return min(max(float(x @ Ax / (x @ x)), lo), hi), x
            elif np.count_nonzero(y) == np.count_nonzero(x):
                # when A is irreducible every step shrinks the zeros of x
                raise NumericalError("Perron vector is not positive")
        x = y
    return None, x


def perron_value(A: np.ndarray):
    """Perron eigenvalue and positive right eigenvector of a nonnegative matrix.

    Small matrices start from the dense eigenvector; larger ones run power
    iteration on A + I (so periodic irreducible graphs converge too), which
    restarts from the dense eigenvector if it is not done after n steps.
    Every result is polished by A + I steps until it is certified by the
    Collatz-Wielandt bracket, which holds lam for any positive x when A is
    irreducible.  A narrow bracket also means every entry of x is accurate
    relative to itself, which a small step alone does not give the entries
    far below the largest (the dense vector's are exact only to about 1e-16
    of the largest).
    """
    n = A.shape[0]
    if n == 0:
        raise EmptySubshiftError("empty transition matrix")
    if n <= _DENSE_N:
        x = _dense_vector(A)
    else:
        lam, x = _power_steps(A, np.full(n, 1.0 / n), n)
        if lam is not None:
            return lam, x
        x = _dense_vector(A)
    lam, x = _power_steps(A, x, _MAX_STEPS)
    if lam is None:
        raise NumericalError(f"no Collatz-Wielandt certificate after {_MAX_STEPS} steps")
    return lam, x


def entropy(spec) -> float:
    """Topological entropy log(lambda); S-gap specs cross-check the root equation."""
    h_graph = math.log(perron_eigenvalue(spec))
    if isinstance(spec, SGapShift):
        lam_root = sgap_lambda(spec.gaps)
        h_root = math.log(lam_root)
        if abs(h_root - h_graph) > 1e-9:
            raise NumericalError(
                f"entropy cross-check failed: root {h_root!r} vs graph {h_graph!r}"
            )
        return h_root
    return h_graph


def perron_eigenvalue(spec) -> float:
    """Spectral radius of the presentation: the largest Perron value over its
    strongly connected components (Lind & Marcus, Thm 4.4.4)."""
    aut = build_automaton(spec)
    if aut.irreducible:  # asked first, so its own adjacency matrix is freed before A
        return perron_value(aut.adjacency())[0]
    A = aut.adjacency()
    return max(perron_value(A[np.ix_(c, c)])[0] for c in _components(A))


def sgap_lambda(gaps: SGapSet) -> float:
    """Unique root > 1 of sum over S of x^(-n-1) = 1 (lambda = 1 degenerate case)."""

    def f(x: float) -> float:
        acc = 0.0
        for n in gaps.extra:
            acc += x ** (-n - 1)
        if gaps.cofinite_from is not None:
            M = gaps.cofinite_from
            acc += x**-M / (x - 1) if x > 1 else math.inf
        return acc

    if gaps.finite and len(gaps.extra) == 1:
        return 1.0  # single gap length: one periodic orbit, zero entropy
    lo, hi = 1.0 + 1e-12, 3.0
    while f(hi) > 1.0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    lam = 0.5 * (lo + hi)
    # Newton polish
    for _ in range(50):
        fx = f(lam) - 1.0
        if abs(fx) <= 1e-14:
            break
        eps = 1e-7
        dfx = (f(lam + eps) - f(lam - eps)) / (2 * eps)
        if dfx == 0:
            break
        step = fx / dfx
        lam -= step
        if abs(step) < 1e-16:
            break
    return lam


# ---------------------------------------------------------------------------
# Structural predicates


def _landing_row(aut: Automaton, w) -> np.ndarray:
    """Per start state, the state reached by reading w, or -1 where w dies.
    Every symbol of w must be in the alphabet."""
    row = np.arange(len(aut.states))
    for a in w:
        row = aut.T[:, aut.column[a]][row]
    return row


def _landing_states(aut: Automaton, w) -> dict[int, int]:
    """start state -> state reached by reading w, for starts where w is readable."""
    row = _landing_row(aut, w)
    return {int(q): int(row[q]) for q in np.flatnonzero(row >= 0)}


def _landing_levels(spec, maxlen: int):
    """Yield (n, words, rows) for n = 1..maxlen: L_n as ``_word_levels``
    builds it and, per word, its landing row (``_landing_row``).

    Each row is its prefix's row of the level before, stepped by the last
    symbol: rows[u + a] = T[rows[u], column[a]], where -1 reads the dead
    state's row of -1s.
    """
    aut = build_automaton(spec)
    rows = np.arange(len(aut.states))[None]
    for n, (words, prefix, last) in enumerate(_word_levels(spec, maxlen), 1):
        rows = aut.T[rows[prefix], last[:, None]]
        yield n, words, rows


def specification_distance_holds(spec, N: int) -> bool:
    """Whether any two legal words can be joined by some connector of length N."""
    if N < 0:
        raise InvalidWordError("distance must be nonnegative")
    aut = build_automaton(spec)
    n = len(aut.states)
    # N-step reachability: a 0/1 matrix power by repeated squaring
    step = (aut.adjacency() > 0).astype(float)
    reach = np.eye(n)
    while N:
        if N & 1:
            reach = (reach @ step > 0).astype(float)
        step = (step @ step > 0).astype(float)
        N >>= 1
    # family of left-context classes {LC(w) : w in L}, via right-to-left closure:
    # the preimage of Q under a symbol is {q : T[q, a] in Q}
    full = np.ones(n, dtype=bool)
    family = {full.tobytes(): full}
    stack = [full]
    while stack:
        Q = stack.pop()
        for col in aut.T[:-1].T:
            pre = (col >= 0) & Q[col]
            if pre.any() and pre.tobytes() not in family:
                family[pre.tobytes()] = pre
                stack.append(pre)
    # every N-step reach set meets every class
    return bool((reach @ np.array(list(family.values())).T > 0).all())


def is_i_hereditary_bounded(spec, max_len: int) -> bool:
    """Necessary condition sweep: every 0-insertion into a legal word stays legal."""
    aut = build_automaton(spec)
    zero_tok = aut.alphabet.letters[aut.alphabet.symbols[0]]
    for words, _, _ in _word_levels(spec, max_len):
        for u in words:
            for i in range(len(u) + 1):
                if not member(spec, u[:i] + zero_tok + u[i:]):
                    return False
    return True
