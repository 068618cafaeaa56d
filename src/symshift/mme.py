"""Measures of maximal entropy: Parry models and S-gap certificates.

Every Parry measure here is built one way, from a labelled graph: the minimal
presentation of a spec (``parry``, on the right Perron pair ``Automaton.perron``
holds) and the S-gap counter (``gap_chain``) each give their ``(q, symbol, r)``
edges to one constructor, and ``mu_parry`` reads cylinders off the result; the
strips of ``grid2d`` share ``parry_chain``.  The counter is
``subshifts._gap_counter``, the graph ``build_automaton`` also minimizes into
an S-gap shift's presentation.  For S-gap shifts a second,
independent route exists: the closed form of the recursion driven by the
synchronization identity mu(1 z 1) = mu(1) t^(|z|+1), an integer certificate
(k, f) with mu(w) = k + mu(1) f(t).  It reads only membership in S and shares
no code with the gap chain, and the two must agree; the test suite enforces it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import subshifts as S
from .errors import NumericalError, ReduciblePresentationError
from .words import BINARY, _check_over

# ---------------------------------------------------------------------------
# Parry model of a labelled graph


def parry_chain(A: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Parry chain of an irreducible nonnegative matrix: (lam, stationary, P).

    With right and left Perron vectors r and l, the stationary vector is l*r
    normalized to sum 1 and P[i, j] = A[i, j] r[j] / (lam r[i]).  A reducible
    (or empty) A raises ReduciblePresentationError.  A symmetric A (the
    hard-square strips, the golden mean) has l = r and takes one solve.
    """
    if not S._strongly_connected(A):
        raise ReduciblePresentationError("graph is reducible")
    return _chain_from(A, *S.perron_value(A))


def _chain_from(A: np.ndarray, lam: float, r: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``parry_chain`` of an irreducible A whose right Perron pair is (lam, r)."""
    l = r if np.array_equal(A, A.T) else S.perron_value(A.T)[1]
    stationary = l * r
    stationary /= stationary.sum()
    # in place: a one-expression quotient would allocate a second n x n array
    P = A * r
    P /= lam * r[:, None]
    # written to fail on NaN as well
    if not abs(stationary.sum() - 1.0) <= 1e-12:
        raise NumericalError("stationary vector does not normalize")
    if not np.max(np.abs(stationary @ P - stationary)) <= 1e-12:
        raise NumericalError("stationary vector is not invariant")
    return lam, stationary, P


@dataclass(frozen=True, eq=False)
class ParryModel:
    """Parry measure of a labelled graph, built by ``_labelled_parry``: what
    ``mu_parry`` reads, the stationary weights and the per-edge steps."""

    stationary: np.ndarray
    steps: dict  # symbol -> {state: (target, probability of that one edge)}

    @cached_property
    def _cursor(self) -> tuple[list, list]:
        """The last word queried, as a list of symbols, and the weights after
        each of its prefixes; the empty prefix holds the stationary weights."""
        return [], [dict(enumerate(self.stationary.tolist()))]


def _labelled_parry(n: int, edges, perron=None) -> ParryModel:
    """Parry model of the graph on states 0..n-1 with ``(q, symbol, r)`` edges.

    Parallel edges share P[q, r] evenly, P[q, r] / A[q, r] each; a known Perron pair ``perron`` is reused.
    """
    A = np.zeros((n, n))
    for q, _, r in edges:
        A[q, r] += 1.0
    _, stationary, P = parry_chain(A) if perron is None else _chain_from(A, *perron)
    steps = {}
    for q, a, r in edges:
        steps.setdefault(a, {})[q] = (r, float(P[q, r] / A[q, r]))
    return ParryModel(stationary=stationary, steps=steps)


def parry(spec) -> ParryModel:
    """Markov measure of maximal entropy of the spec's minimal presentation."""
    aut = S.build_automaton(spec)
    if not aut.irreducible:
        raise ReduciblePresentationError("graph is reducible")
    return _labelled_parry(len(aut.states), aut.transitions, aut.perron)


def mu_parry(model: ParryModel, w) -> float:
    """Cylinder measure of a word under the Parry model; 0 off the language.

    Sums, over the states w is readable from, the stationary weight times the
    edge probabilities along w's path; paths that meet in a state are merged.
    Queries on one model resume from the prefix they share with the previous
    query, so only the symbols after it are stepped through.
    """
    steps = model.steps
    word, trail = model._cursor
    k = 0
    for a, b in zip(word, w):
        if a != b:
            break
        k += 1
    del word[k:], trail[k + 1 :]
    weights = trail[k]
    for a in w[k:]:
        edges = steps.get(a, {})
        step = {}
        for q, p in weights.items():
            hop = edges.get(q)
            if hop is not None:
                r, prob = hop
                step[r] = step.get(r, 0.0) + p * prob
        weights = step
        word.append(a)
        trail.append(weights)
    return float(sum(weights.values()))


def _level_measures(model: ParryModel, symbols, maxlen: int) -> list[array]:
    """For L = 1..maxlen, ``mu_parry(model, w)`` of the |symbols|^L words w
    of length L in canonical order, one array per level, bit for bit.

    Each word of the trie is stepped once from its prefix: the prefix's live
    (state, mass) entries read one letter more, entries that meet in a state
    merge, as in ``mu_parry``, and a dead word keeps 0.0.  The walk is depth
    first, so besides the levels only the weights along one path are held.
    """
    k = len(symbols)
    hops = {}  # state -> [(index of the symbol, target, probability)]
    for j, a in enumerate(symbols):
        for q, (r, prob) in model.steps.get(a, {}).items():
            hops.setdefault(q, []).append((j, r, prob))
    levels = [array("d", [0.0]) * k**n for n in range(1, maxlen + 1)]
    # (length, index, weights) of the words whose children are still to step
    stack = [(0, 0, dict(enumerate(model.stationary.tolist())))] if maxlen > 0 else []
    while stack:
        n, i, weights = stack.pop()
        steps = [{} for _ in range(k)]
        for q, p in weights.items():
            for j, r, prob in hops.get(q, ()):
                step = steps[j]
                step[r] = step.get(r, 0.0) + p * prob
        for j, step in enumerate(steps):
            if step:
                levels[n][i * k + j] = sum(step.values())
                if n + 1 < maxlen:
                    stack.append((n + 1, i * k + j, step))
    return levels


# ---------------------------------------------------------------------------
# Gap-counter Parry model (independent oracle for the S-gap MME)


@lru_cache(maxsize=None)
def gap_chain(gaps: S.SGapSet) -> ParryModel:
    """Parry model of the chain on 'zeros seen since the last 1', capped for
    cofinite sets: the counter graph that also presents the shift."""
    graph = S._gap_counter(gaps)
    return _labelled_parry(len(graph), [(q, a, r) for q, out in graph.items() for a, r in out.items()])


def sgap_mu_oracle(gaps: S.SGapSet, w) -> float:
    """mu(w) from the gap-counter Parry model (independent of the recursion)."""
    return mu_parry(gap_chain(gaps), w)


# ---------------------------------------------------------------------------
# S-gap integer certificates in closed form


def sgap_mu1(gaps: S.SGapSet) -> float:
    """mu(1) = 1 / sum over S of (n+1) t^(n+1), with closed-form cofinite tails."""
    t = 1.0 / S.sgap_lambda(gaps)
    total = 0.0
    for n in gaps.extra:
        total += (n + 1) * t ** (n + 1)
    if gaps.cofinite_from is not None:
        J = gaps.cofinite_from + 1
        total += weighted_tail(t, J)
    return 1.0 / total


def geometric_tail(t: float, J: int) -> float:
    """sum_{j>=J} t^j."""
    return t**J / (1.0 - t)


def weighted_tail(t: float, J: int) -> float:
    """sum_{j>=J} j t^j = t^J (J - (J-1) t) / (1-t)^2."""
    return t**J * (J - (J - 1) * t) / (1.0 - t) ** 2


@dataclass(frozen=True)
class MeasureCertificate:
    """mu(w) = offset + mu1 * poly(t) with integer offset and coefficients."""

    offset: int
    coeffs: tuple[int, ...]

    def evaluate(self, mu1: float, t: float) -> float:
        poly = 0.0
        for c in reversed(self.coeffs):
            poly = poly * t + c
        return self.offset + mu1 * poly


@dataclass
class SGapMME:
    """Unique MME of an S-gap shift, each certificate in closed form.

    With A_j(t) = 1 - sum of t^(n+1) over n in S, n < j, and c the part of
    w from its first 1 to its last,

        mu(0^a c 0^b) = mu(1) t^(|c|-1) A_a(t) A_b(t), or 0 if a gap of c is not in S;
        mu(0^n)       = 1 - mu(1) sum_{j<n} A_j(t).

    This solves the synchronization recursion in three steps.  (1) Trailing
    zeros, by mu(x 0) = mu(x) - mu(x 1): mu(0^a c 0^b) is mu(0^a c) minus
    mu(0^a c 0^j 1) for j < b.  (2) Leading zeros, by mu(0 y 1) =
    mu(y 1) - mu(1 y 1): mu(0^a c) is mu(c) minus mu(1 0^i c) for i < a,
    and mu(0^n) is 1 minus mu(0^j 1) for j < n.  (3) Pins, by mu(1 z 1) =
    mu(1) t^(|z|+1) if every gap of 1 z 1 is in S, else 0: 1 0^i c is legal
    when c is and i is in S, so step 2 gives mu(1) t^(|c|-1) A_a, and step
    1 multiplies it by A_b.  A certificate depends on the word only through
    its key, (n) for 0^n or (a, b, |c|) for a legal 0^a c 0^b, so each is
    built once per key and kept, as are the legality of each c and each
    A_j; an illegal word has the certificate 0.
    """

    gaps: S.SGapSet
    t: float = field(init=False)
    mu1: float = field(init=False)
    _table: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _cores: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _factors: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.t = 1.0 / S.sgap_lambda(self.gaps)
        self.mu1 = sgap_mu1(self.gaps)

    def certificate(self, w: str) -> MeasureCertificate:
        _check_over(w, BINARY)
        return self._lookup(w)

    def _lookup(self, w: str) -> MeasureCertificate:
        """``certificate`` of a word already known to be binary."""
        first, last = w.find("1"), w.rfind("1")
        if first < 0:
            key = (len(w),)
        elif self._legal(w[first : last + 1]):
            key = (first, len(w) - 1 - last, last - first + 1)
        else:
            key = ()
        cert = self._table.get(key)
        if cert is None:
            cert = self._table[key] = self._build(key)
        return cert

    def _build(self, key: tuple) -> MeasureCertificate:
        if not key:
            return MeasureCertificate(0, ())
        if len(key) == 1:
            # the term x t^e of A_{n-1} is one of each A_j with e <= j < n
            (n,) = key
            terms = self._factor(n - 1)
            offset, coeffs = 1, [0] * (terms[-1][0] + 1)
            for e, x in terms:
                coeffs[e] = -x * (n - e)
        else:
            a, b, c = key
            left, right = self._factor(a), self._factor(b)
            offset, coeffs = 0, [0] * (c + left[-1][0] + right[-1][0])
            for i, x in left:
                for j, y in right:
                    coeffs[c - 1 + i + j] += x * y
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return MeasureCertificate(offset, tuple(coeffs))

    def _legal(self, core: str) -> bool:
        """Whether every gap of ``core``, which starts and ends with 1, is in S."""
        legal = self._cores.get(core)
        if legal is None:
            legal = self._cores[core] = all(len(run) in self.gaps for run in core.split("1")[1:-1])
        return legal

    def _factor(self, j: int) -> list[tuple[int, int]]:
        """A_j as its terms (exponent, coefficient), exponents ascending."""
        terms = self._factors.get(j)
        if terms is None:
            terms = self._factors[j] = [(0, 1)] + [(n + 1, -1) for n in range(j) if n in self.gaps]
        return terms


@lru_cache(maxsize=None)
def sgap_model(gaps: S.SGapSet) -> SGapMME:
    return SGapMME(gaps)


def sgap_mu(gaps: S.SGapSet, w: str) -> tuple[float, MeasureCertificate]:
    model = sgap_model(gaps)
    cert = model.certificate(w)
    return cert.evaluate(model.mu1, model.t), cert
