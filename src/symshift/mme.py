"""Measures of maximal entropy: Parry models and the S-gap recursion.

Every Parry measure here is built one way, from a labelled graph: the
minimal presentation of a spec (``parry``) and the S-gap counter
(``gap_chain``) each give their ``(q, symbol, r)`` edges to one constructor,
and ``mu_parry`` reads cylinders off the result; the strips of ``grid2d``
share ``parry_chain``.  For S-gap shifts a second, independent route exists:
a memoized recursion driven by the synchronization identity
mu(1 z 1) = mu(1) t^(|z|+1), which also produces an integer certificate
(k, f) with mu(w) = k + mu(1) f(t).  The recursion shares no code with the
gap chain, and the two must agree; the test suite enforces it.
"""

from __future__ import annotations

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
    (or empty) A raises ReduciblePresentationError.
    """
    if not S._strongly_connected(A):
        raise ReduciblePresentationError("graph is reducible")
    lam, r = S.perron_value(A)
    _, l = S.perron_value(A.T)
    stationary = l * r
    stationary /= stationary.sum()
    # in place: a one-expression quotient would allocate a second n x n array
    P = A * r
    P /= lam * r[:, None]
    if abs(stationary.sum() - 1.0) > 1e-12:
        raise NumericalError("stationary vector does not normalize")
    if np.max(np.abs(stationary @ P - stationary)) > 1e-12:
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


def _labelled_parry(n: int, edges) -> ParryModel:
    """Parry model of the graph on states 0..n-1 with ``(q, symbol, r)`` edges.

    Parallel edges share P[q, r] evenly, P[q, r] / A[q, r] each.
    """
    A = np.zeros((n, n))
    for q, _, r in edges:
        A[q, r] += 1.0
    _, stationary, P = parry_chain(A)
    steps = {}
    for q, a, r in edges:
        steps.setdefault(a, {})[q] = (r, float(P[q, r] / A[q, r]))
    return ParryModel(stationary=stationary, steps=steps)


def parry(spec) -> ParryModel:
    """Markov measure of maximal entropy of the spec's minimal presentation."""
    aut = S.build_automaton(spec)
    return _labelled_parry(len(aut.states), aut.transitions)


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


# ---------------------------------------------------------------------------
# Gap-counter Parry model (independent oracle for the S-gap MME)


@lru_cache(maxsize=None)
def gap_chain(gaps: S.SGapSet) -> ParryModel:
    """Parry model of the chain on 'zeros seen since the last 1', capped for
    cofinite sets."""
    top = max(gaps.extra) if gaps.finite else gaps.cofinite_from
    edges = []
    for i in range(top + 1):
        if i < top or not gaps.finite:
            edges.append((i, "0", min(i + 1, top)))
        if i in gaps or (not gaps.finite and i == top):
            edges.append((i, "1", 0))
    return _labelled_parry(top + 1, edges)


def sgap_mu_oracle(gaps: S.SGapSet, w) -> float:
    """mu(w) from the gap-counter Parry model (independent of the recursion)."""
    return mu_parry(gap_chain(gaps), w)


# ---------------------------------------------------------------------------
# S-gap value recursion with integer certificates


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


def _monomial(k: int) -> tuple:
    return (0,) * k + (1,)


def _signed_sum(terms) -> MeasureCertificate:
    """The certificate of sum(sign * mu(w)) over ``(sign, certificate of w)``."""
    offset = 0
    coeffs = [0] * max(len(c.coeffs) for _, c in terms)
    for sign, c in terms:
        offset += sign * c.offset
        for i, x in enumerate(c.coeffs):
            coeffs[i] += sign * x
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return MeasureCertificate(offset, tuple(coeffs))


@dataclass
class SGapMME:
    """Unique MME of an S-gap shift, via the synchronization recursion.

    ``certificate`` is the public entry: it validates the word once, and the
    recursion below it reads and fills the memo without validating again.
    """

    gaps: S.SGapSet
    t: float = field(init=False)
    mu1: float = field(init=False)

    def __post_init__(self):
        self.t = 1.0 / S.sgap_lambda(self.gaps)
        self.mu1 = sgap_mu1(self.gaps)
        self._memo: dict[str, MeasureCertificate] = {}

    def certificate(self, w: str) -> MeasureCertificate:
        _check_over(w, BINARY)
        return self._certificate(w)

    def _certificate(self, w: str) -> MeasureCertificate:
        """``certificate`` of a binary string w, memoized."""
        cached = self._memo.get(w)
        if cached is None:
            cached = self._build(w)
            self._memo[w] = cached
        return cached

    def _build(self, w: str) -> MeasureCertificate:
        n = len(w)
        if n == 0:
            return MeasureCertificate(1, ())
        if n == 1:
            if w == "1":
                return MeasureCertificate(0, (1,))
            return MeasureCertificate(1, (-1,))
        if w[0] == "1" and w[-1] == "1":
            return self._pinned(w)
        z = w[1:-1]
        one_z_one = self._certificate("1" + z + "1")
        if w[0] == "1":  # 1 z 0
            return _signed_sum([(1, self._certificate("1" + z)), (-1, one_z_one)])
        if w[-1] == "1":  # 0 z 1
            return _signed_sum([(1, self._certificate(z + "1")), (-1, one_z_one)])
        # 0 z 0: mu(z) minus the three sibling extensions of the z-cylinder
        return _signed_sum([
            (1, self._certificate(z)),
            (-1, self._certificate("1" + z)),
            (-1, self._certificate(z + "1")),
            (1, one_z_one),
        ])

    def _pinned(self, w: str) -> MeasureCertificate:
        """Certificate for a word starting and ending with 1: mu(1) t^(|w|-1)
        when each of its gaps is in S (its extender set is that of the 1)."""
        if all(len(run) in self.gaps for run in w.split("1")[1:-1]):
            return MeasureCertificate(0, _monomial(len(w) - 1))
        return MeasureCertificate(0, ())


@lru_cache(maxsize=None)
def sgap_model(gaps: S.SGapSet) -> SGapMME:
    return SGapMME(gaps)


def sgap_mu(gaps: S.SGapSet, w: str) -> tuple[float, MeasureCertificate]:
    model = sgap_model(gaps)
    cert = model.certificate(w)
    return cert.evaluate(model.mu1, model.t), cert
