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

_ENUM_BUDGET = 1 << 22


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
# Spec (de)serialization


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


def spec_to_dict(spec) -> dict:
    if isinstance(spec, FullShift):
        return {"type": "full", "alphabet": list(spec.alphabet.symbols)}
    if isinstance(spec, SftShift):
        return {
            "type": "sft",
            "alphabet": list(spec.alphabet.symbols),
            "forbidden": [W.format_word(f) for f in spec.forbidden],
        }
    if isinstance(spec, SGapShift):
        if spec.gaps.finite:
            return {"type": "sgap", "finite": list(spec.gaps.extra)}
        return {"type": "sgap", "extra": list(spec.gaps.extra), "from": spec.gaps.cofinite_from}
    raise SpecFormatError(f"cannot serialize {type(spec).__name__}")


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
# Automaton presentation (m-block graph)


@dataclass(frozen=True)
class Automaton:
    """Trimmed deterministic m-block presentation of an SFT language.

    States are the essential memory-m blocks; reading one symbol maps block
    q to the last m symbols of q+a when that (m+1)-window is legal.  Words
    of length n >= m correspond to unique state paths.
    """

    alphabet: W.Alphabet
    memory: int
    states: tuple
    transitions: tuple  # ((state_index, symbol, target_index), ...)

    @cached_property
    def index(self) -> dict:
        """state block -> state index."""
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def _delta_map(self) -> dict:
        return {(q, a): r for q, a, r in self.transitions}

    def delta(self, q: int, a) -> Optional[int]:
        return self._delta_map.get((q, a))

    def read(self, q: int, word) -> Optional[int]:
        """Follow the path labeled by word from state q; None if it dies."""
        for a in word:
            q = self.delta(q, a)
            if q is None:
                return None
        return q

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
        return self._containment_table[p][q]

    @cached_property
    def _containment_table(self) -> list:
        """Greatest fixed point of follower containment; built on first query."""
        n = len(self.states)
        out = {q: {} for q in range(n)}
        for q, a, r in self.transitions:
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


@lru_cache(maxsize=None)
def build_automaton(spec) -> Automaton:
    """Trimmed m-block automaton for a Full/SFT/S-gap spec."""
    sft = _as_sft(spec)
    alphabet = sft.alphabet
    m = max([len(f) for f in sft.forbidden] + [2]) - 1
    n_blocks = len(alphabet.symbols) ** m
    if n_blocks > _ENUM_BUDGET:
        raise ResourceLimitError(f"{n_blocks} candidate blocks exceed the budget")

    def locally_legal(u):
        return all(not W.occurrences(u, f) for f in sft.forbidden)

    blocks = [u for u in alphabet.words(m) if locally_legal(u)]
    block_set = set(blocks)
    edges = {}
    for q in blocks:
        for a in alphabet.symbols:
            a_tok = a if alphabet.single_char else (a,)
            window = q + a_tok
            tgt = window[1:]
            if tgt in block_set and locally_legal(window):
                edges.setdefault(q, {})[a] = tgt

    # essential part: iterated removal of states lacking a continuation
    alive = set(blocks)
    while True:
        has_out = {q for q in alive if any(t in alive for t in edges.get(q, {}).values())}
        has_in = set()
        for q in alive:
            for t in edges.get(q, {}).values():
                if q in has_out and t in alive:
                    has_in.add(t)
        keep = has_out & has_in
        if keep == alive:
            break
        alive = keep
    if not alive:
        raise EmptySubshiftError(f"{describe(spec)} has empty language")

    states = tuple(sorted(alive))
    idx = {q: i for i, q in enumerate(states)}
    transitions = tuple(
        (idx[q], a, idx[t])
        for q in states
        for a, t in sorted(edges.get(q, {}).items())
        if t in alive
    )
    return Automaton(
        alphabet=alphabet,
        memory=m,
        states=states,
        transitions=transitions,
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
    aut = build_automaton(spec)
    m = aut.memory
    if len(u) < m:
        return any(q[: len(u)] == u for q in aut.states)
    start = aut.index.get(u[:m])
    if start is None:
        return False
    return aut.read(start, u[m:]) is not None


def count_words(spec, n: int) -> int:
    """Exact |L_n| via path counting (big integers)."""
    if n < 0:
        raise InvalidWordError("length must be nonnegative")
    aut = build_automaton(spec)
    m = aut.memory
    if n <= m:
        return len({q[:n] for q in aut.states})
    adj = {}
    for q, _a, r in aut.transitions:
        adj.setdefault(q, []).append(r)
    vec = [1] * len(aut.states)
    for _ in range(n - m):
        new = [0] * len(aut.states)
        for q, outs in adj.items():
            vq = vec[q]
            for r in outs:
                new[r] += vq
        # count paths *into* each state; start-state multiplicity handled by ones
        vec = new
    return sum(vec)


def count_words_scaled(spec, n: int, lam: float) -> float:
    """|L_n| / lam^n via per-step renormalized floating DP."""
    if n < 0:
        raise InvalidWordError("length must be nonnegative")
    aut = build_automaton(spec)
    m = aut.memory
    if n <= m:
        return count_words(spec, n) / lam**n
    A = aut.adjacency()
    vec = np.ones(len(aut.states)) / lam**m
    for _ in range(n - m):
        vec = (vec @ A) / lam
    return float(vec.sum())


def enumerate_words(spec, n: int) -> list:
    """All of L_n in canonical symbol order."""
    if n < 0:
        raise InvalidWordError("length must be nonnegative")
    aut = build_automaton(spec)
    m = aut.memory
    if count_words(spec, n) > _ENUM_BUDGET:
        raise ResourceLimitError(f"enumerating length-{n} words exceeds the budget")
    if n <= m:
        return sorted({q[:n] for q in aut.states})
    frontier = {q: i for i, q in enumerate(aut.states)}
    result = []

    def extend(word, q, remaining):
        if remaining == 0:
            result.append(word)
            return
        for a in aut.alphabet.symbols:
            r = aut.delta(q, a)
            if r is not None:
                a_tok = a if aut.alphabet.single_char else (a,)
                extend(word + a_tok, r, remaining - 1)

    for q_word, q in sorted(frontier.items()):
        extend(q_word, q, n - m)
    return sorted(result)


# ---------------------------------------------------------------------------
# Entropy


def perron_value(A: np.ndarray, tol: float = 1e-14, max_iter: int = 200000):
    """Perron eigenvalue and positive right eigenvector of a nonnegative matrix.

    Power iteration runs on A + I so periodic irreducible graphs converge too.
    """
    n = A.shape[0]
    if n == 0:
        raise EmptySubshiftError("empty transition matrix")
    B = A + np.eye(n)
    x = np.ones(n)
    x /= x.sum()
    for _ in range(max_iter):
        y = B @ x
        y /= y.sum()
        if np.max(np.abs(y - x)) < 1e-15:
            x = y
            break
        x = y
    lam = float(x @ (A @ x) / (x @ x))
    residual = float(np.max(np.abs(A @ x - lam * x)))
    if residual > max(tol * 100, 1e-12) * max(1.0, lam):
        raise NumericalError(f"power iteration residual {residual:.3e} too large")
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


def sgap_lambda(gaps: SGapSet, tol: float = 1e-14) -> float:
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
        if abs(fx) <= tol:
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


def is_synchronizing(spec, w) -> bool:
    """Whether w's follower behavior is independent of its left context."""
    aut = build_automaton(spec)
    if not member(spec, w):
        raise InvalidWordError(f"{W.format_word(w)!r} is not in the language")
    landings = _landing_states(aut, w)
    reps = sorted(set(landings.values()))
    return all(
        aut.follower_contains(p, q) and aut.follower_contains(q, p)
        for p in reps
        for q in reps
    )


def _landing_states(aut: Automaton, w) -> dict[int, int]:
    """start state -> state reached by reading w, for starts where w is readable."""
    out = {}
    for i in range(len(aut.states)):
        r = aut.read(i, w)
        if r is not None:
            out[i] = r
    return out


def specification_distance_holds(spec, N: int) -> bool:
    """Whether any two legal words can be joined by some connector of length N."""
    if N < 0:
        raise InvalidWordError("distance must be nonnegative")
    aut = build_automaton(spec)
    n = len(aut.states)
    adj = [[0] * n for _ in range(n)]
    for q, _a, r in aut.transitions:
        adj[q][r] = 1
    # N-step reachability sets
    reach = []
    for p in range(n):
        cur = {p}
        for _ in range(N):
            cur = {r for q in cur for r in range(n) if adj[q][r]}
        reach.append(cur)
    # family of left-context classes {LC(w) : w in L}, via right-to-left closure
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


def is_i_hereditary_bounded(spec, max_len: int) -> bool:
    """Necessary condition sweep: every 0-insertion into a legal word stays legal."""
    aut = build_automaton(spec)
    zero = aut.alphabet.symbols[0]
    zero_tok = zero if aut.alphabet.single_char else (zero,)
    for n in range(1, max_len + 1):
        for u in enumerate_words(spec, n):
            for i in range(n + 1):
                if not member(spec, u[:i] + zero_tok + u[i:]):
                    return False
    return True
