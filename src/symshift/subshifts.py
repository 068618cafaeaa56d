"""Subshift specs, transition-graph presentations, languages, and entropy."""

from __future__ import annotations

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


# Specs key lru caches, so each hashes its fields' contents, not nested dataclasses.
@dataclass(frozen=True)
class FullShift:
    alphabet: W.Alphabet

    def __hash__(self):
        return hash(self.alphabet.symbols)


@dataclass(frozen=True)
class SftShift:
    alphabet: W.Alphabet
    forbidden: tuple

    def __post_init__(self):
        if any(len(f) == 0 for f in self.forbidden):
            raise SpecFormatError("forbidden words must be nonempty")

    def __hash__(self):
        return hash((self.alphabet.symbols, self.forbidden))


@dataclass(frozen=True)
class SGapShift:
    gaps: SGapSet

    def __hash__(self):
        return hash((self.gaps.extra, self.gaps.cofinite_from))

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
    def _count_cursor(self) -> list:
        """[k, |L_k|, the ``_counts`` walk at k]; it starts past every length."""
        return [math.inf, 0, None]

    @cached_property
    def irreducible(self) -> bool:
        return _strongly_connected(self.adjacency())

    @cached_property
    def perron(self) -> tuple:
        """(lam, r), shared by ``entropy`` and ``mme.parry``: the largest Perron value over the
        components (Lind & Marcus, Thm 4.4.4) and the right Perron vector, None if reducible."""
        if self.irreducible:
            return perron_value(self.adjacency())
        A = self.adjacency()
        return max(perron_value(A[np.ix_(c, c)])[0] for c in _components(A)), None

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


# Most (top + 1)^3 of an S-gap presentation (``_sgap_top``).
_SGAP_SOLVE_STEPS = 10**9


def _sgap_top(gaps: SGapSet) -> int:
    """max(S), or M for S = extra u [M, inf): the gap that the S-gap shift's
    counter (``_gap_counter``) counts zeros up to.  The presentation and the
    gap chain are both built from that counter's top + 1 states, each with
    a dense (top + 1) x (top + 1) matrix, so a top over the matrix budget
    is refused here, before the counter is built.  So is a top whose dense
    solves, of order (top + 1)^3 steps, pass ``_SGAP_SOLVE_STEPS`` = 10^9:
    ``run_all`` on S = {0,999}, the largest gap accepted, took about 8.5 s
    on a 2-CPU x86 box with one BLAS thread (6 s at 900, 19 s at 1200,
    156 s at 2895)."""
    top = max(gaps.extra) if gaps.finite else gaps.cofinite_from
    if (top + 1) ** 2 > W._MATRIX_ENTRIES or (top + 1) ** 3 > _SGAP_SOLVE_STEPS:
        raise ResourceLimitError(
            f"gap {top} needs a {top + 1}-state presentation, over {W._MATRIX_ENTRIES} "
            f"matrix entries or {_SGAP_SOLVE_STEPS} solve steps"
        )
    return top


def _gap_counter(gaps: SGapSet) -> dict:
    """The S-gap shift's counter graph, state -> {symbol: state}: state i is
    the number of 0s since the last 1, capped at top for a cofinite S.  A 0
    counts one more, a 1 after i zeros is legal when i is in S and resets
    the count."""
    top = _sgap_top(gaps)
    graph = {}
    for i in range(top + 1):
        out = graph[i] = {}
        if i < top or not gaps.finite:
            out["0"] = min(i + 1, top)
        if i in gaps:
            out["1"] = 0
    return graph


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

    A labelled graph presents the spec: the Aho–Corasick automaton of the
    forbidden words, or an S-gap shift's counter (``_gap_counter``).  It is
    trimmed to its essential part; Moore partition refinement then merges
    the states with equal follower sets.
    """
    if isinstance(spec, SGapShift):
        gaps = spec.gaps
        alphabet, edges = W.BINARY, _gap_counter(gaps)
        # the longest forbidden word minus one: 0^(top+1) for a finite S, else
        # the longest 1 0^n 1 with n < top not in S
        top = len(edges) - 1
        omitted = [n for n in range(top) if n not in gaps]
        memory = max(top, 1) if gaps.finite else max(omitted, default=0) + 1
    elif isinstance(spec, (FullShift, SftShift)):
        forbidden = spec.forbidden if isinstance(spec, SftShift) else ()
        alphabet, edges = spec.alphabet, _aho_corasick(spec.alphabet, forbidden)
        memory = max([len(f) for f in forbidden] + [2]) - 1
    else:
        raise SpecFormatError(f"no automaton presentation for {type(spec).__name__}")

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
        memory=memory,
        states=tuple(label.values()),
        transitions=tuple(
            (num[c], a, num[delta[c][a]]) for c in label for a in alphabet.symbols if a in delta[c]
        ),
        word_graph=tuple(word_graph),
    )


def _components(A: np.ndarray):
    """Yield the strongly connected components of the graph of A > 0, each a
    sorted index array, by least state.  State sets are the bits of ints, so
    a search costs one OR per state reached (of its successor/predecessor set)."""
    n = len(A)
    succ, pred = (
        [int.from_bytes(row.tobytes(), "little") for row in np.packbits(B, 1, bitorder="little")]
        for B in (A > 0, np.ascontiguousarray(A.T > 0))
    )
    left = (1 << n) - 1

    def reach(table, q):
        seen = frontier = 1 << q
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= table[low.bit_length() - 1]
                frontier ^= low
            frontier = step & left & ~seen
            seen |= frontier
        return seen

    while left:
        q = (left & -left).bit_length() - 1
        comp = reach(succ, q) & reach(pred, q)
        bits = np.frombuffer(comp.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        yield np.flatnonzero(np.unpackbits(bits, bitorder="little")[:n])
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
    try:
        for a in u:
            node = graph[node][a]
    except KeyError:
        return None
    return node


# Most n^2 x word-graph edges x log2|A| of one exact counting DP (``_check_steps``).
_COUNT_BUDGET = 5 * 10**10


def _check_steps(spec, n: int, field: str) -> None:
    """Refuse n steps of a counting DP on the word graph of ``spec`` before
    the first step; the error names ``field``, the option or config field
    that asked for n.

    Both DPs take n x edges steps, refused over ``words._SWEEP_BUDGET``.
    The exact DP (``_counts``) is also refused when n^2 x edges x log2|A|
    passes ``_COUNT_BUDGET`` = 5 x 10^10 (``_check_exact_steps``): it adds
    integers that gain at most log2|A| bits a step, so n steps cost order
    n^2 x edges x log2|A|, with no Perron solve to bound it.  In three runs
    on a 2-CPU x86 box the largest accepted n took 0.7-1.0 s on the golden
    mean (n = 100,000), 1.1-1.4 s on the binary full shift (158,113) and
    0.8-0.9 s on the 16-letter full shift (27,950); the n x edges rule
    alone would accept 838,860 on the golden mean, which takes 49 s.  The
    scaled DP (``_scaled_counts``) adds floats and keeps the n x edges rule
    alone."""
    edges = sum(map(len, build_automaton(spec).word_graph))
    if n * edges > W._SWEEP_BUDGET:
        raise ResourceLimitError(
            f"{field} {n} needs {n} steps over {edges} word-graph edges, "
            f"over the budget of {W._SWEEP_BUDGET}"
        )


def _check_exact_steps(spec, n: int, field: str) -> None:
    """``_check_steps`` for the exact DP, with its n^2 x edges x log2|A| rule."""
    _check_steps(spec, n, field)
    aut = build_automaton(spec)
    edges = sum(map(len, aut.word_graph))
    bits = math.log2(len(aut.alphabet.symbols))
    if n * n * edges * bits > _COUNT_BUDGET:
        raise ResourceLimitError(
            f"{field} {n} needs {n}^2 x {edges} word-graph edges x {bits:g} bits of big-integer sums, "
            f"over the budget of {_COUNT_BUDGET}"
        )


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
    """Exact |L_n| via path counting on the word graph (big integers),
    resumed from the last length asked of the presentation; a shorter one restarts."""
    if n < 0:
        raise InvalidWordError("length must be nonnegative")
    _check_exact_steps(spec, n, "n")
    cursor = build_automaton(spec)._count_cursor
    if n < cursor[0]:
        walk = _counts(spec)
        cursor[:] = 0, next(walk), walk
    while cursor[0] < n:
        cursor[:2] = cursor[0] + 1, next(cursor[2])
    return cursor[1]


def _word_levels(spec, maxlen: int):
    """Yield L_1, ..., L_maxlen in alphabet order, each built from the one
    before, as (words, prefix, last): words[i] is the word at prefix[i] of
    the level before followed by the symbol of column last[i] of ``T``.

    |L_n| never shrinks, since every word extends to the right, so the
    first count over the budget refuses L_maxlen before any level is built.
    """
    if any(count_words(spec, n) > W._SWEEP_BUDGET for n in range(maxlen + 1)):
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
    if n < 0:
        raise InvalidWordError("length must be nonnegative")
    words = [build_automaton(spec).alphabet.empty]
    for words, _, _ in _word_levels(spec, n):
        pass
    return words


# ---------------------------------------------------------------------------
# Entropy


# The n power steps before the dense restart and one eig both cost order n^3,
# so a matrix that mixes slowly pays about one dense solve, not its mixing time.
_MAX_STEPS = 200000


def _dense_vector(A: np.ndarray) -> np.ndarray:
    """|Re v|, normalized to sum 1, for the eigenvector v of the eigenvalue
    of A with the largest real part."""
    values, vectors = np.linalg.eig(A)
    x = np.abs(vectors[:, np.argmax(values.real)].real)
    return x / x.sum()


def _power_steps(
    A: np.ndarray, x: np.ndarray, steps: int, quit_early: bool = False
) -> tuple[Optional[float], np.ndarray]:
    """Up to ``steps`` normalized A + I steps from x >= 0, stopping at the
    first certified x: the step is below 1e-15, x > 0 and the Collatz-Wielandt
    bracket min (Ax)_i / x_i <= lam <= max (Ax)_i / x_i is at most
    1e-12 max(1, lam) wide.  Returns (lam, x), with lam None if uncertified.

    ``quit_early`` also stops once the least ratio q of two successive step
    sizes so far cannot take the step d below 1e-15 in the steps left (d q^left
    >= 1e-15); it waits for two ratios, as the first alone can overstate q.
    """
    fastest = math.inf
    for k in range(steps):
        Ax = A @ x
        y = Ax + x
        y /= y.sum()
        step = float(abs(y - x).max())
        if step < 1e-15:
            if np.all(x > 0):
                ratios = Ax / x
                lo, hi = float(ratios.min()), float(ratios.max())
                if hi - lo <= 1e-12 * max(1.0, lo):
                    # the Rayleigh quotient, which rounding can put an ulp outside the bracket
                    return min(max(float(x @ Ax / (x @ x)), lo), hi), x
            elif np.count_nonzero(y) == np.count_nonzero(x):
                # when A is irreducible every step shrinks the zeros of x
                raise NumericalError("Perron vector is not positive")
        elif quit_early and k:
            fastest = min(fastest, step / prev)
            if k > 1 and (fastest >= 1 or step * fastest ** (steps - 1 - k) >= 1e-15):
                return None, x
        prev = step
        x = y
    return None, x


def perron_value(A: np.ndarray):
    """Perron eigenvalue and positive right eigenvector of a nonnegative matrix.

    Power iteration on A + I (so periodic irreducible graphs converge too)
    runs n steps from the flat vector (fewer once they cannot finish), then
    restarts from the dense eigenvector if it is not done.  Every result is
    certified by the Collatz-Wielandt bracket, which holds lam for any
    positive x when A is irreducible; the dense vector is polished by A + I
    steps until it is.  A narrow bracket also means every entry of x is
    accurate relative to itself, which a small step alone does not give the
    entries far below the largest (the dense vector's are exact only to
    about 1e-16 of the largest).
    """
    n = A.shape[0]
    if n == 0:
        raise EmptySubshiftError("empty transition matrix")
    lam, x = _power_steps(A, np.full(n, 1.0 / n), n, quit_early=True)
    if lam is not None:
        return lam, x
    lam, x = _power_steps(A, _dense_vector(A), _MAX_STEPS)
    if lam is None:
        raise NumericalError(f"no Collatz-Wielandt certificate after {_MAX_STEPS} steps")
    return lam, x


def entropy(spec) -> float:
    """Topological entropy log(lambda), lambda the presentation's Perron value."""
    return math.log(perron_eigenvalue(spec))


def perron_eigenvalue(spec) -> float:
    """Spectral radius of the presentation, read off ``Automaton.perron``."""
    return build_automaton(spec).perron[0]


@lru_cache(maxsize=None)
def sgap_lambda(gaps: SGapSet) -> float:
    """Unique root lambda of F(x) = sum over S of x^(-n-1) = 1 (1 for a single gap).

    F decreases, F(1) > 1 and F(2) <= 1, so bisection on [1, 2] runs until
    lo and hi are neighbouring floats and returns the one nearer F = 1.
    """
    if gaps.finite and len(gaps.extra) == 1:
        return 1.0  # single gap length: one periodic orbit, zero entropy

    def f(x: float) -> float:
        terms = [x ** (-n - 1) for n in gaps.extra]
        if gaps.cofinite_from is not None:
            terms.append(x ** -gaps.cofinite_from / (x - 1) if x > 1 else math.inf)
        return math.fsum(terms)

    lo, hi = 1.0, 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return min(lo, hi, key=lambda x: abs(f(x) - 1.0))


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
