"""Measures of maximal entropy: Parry models and the S-gap recursion.

Two independent routes exist for S-gap shifts: a memoized recursion driven
by the synchronization identity mu(1 z 1) = mu(1) t^(|z|+1), which also
produces an integer certificate (k, f) with mu(w) = k + mu(1) f(t), and a
Parry model on the gap-counter Markov chain.  The two must agree; the test
suite enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import subshifts as S
from .errors import NumericalError, ReduciblePresentationError
from .words import BINARY, _check_over

# ---------------------------------------------------------------------------
# Parry model for irreducible presentations


def parry_chain(A: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Parry chain of an irreducible nonnegative matrix: (lam, stationary, P).

    With right and left Perron vectors r and l, the stationary vector is l*r
    normalized to sum 1 and P[i, j] = A[i, j] r[j] / (lam r[i]).
    """
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
    automaton: S.Automaton
    lam: float
    stationary: np.ndarray
    transition: np.ndarray

    @cached_property
    def _steps(self) -> dict:
        """symbol -> {state: (target, probability of that one edge)}; parallel
        edges share P[q, r] evenly, P[q, r] / A[q, r] each."""
        A = self.automaton.adjacency()
        steps = {}
        for q, a, r in self.automaton.transitions:
            steps.setdefault(a, {})[q] = (r, float(self.transition[q, r] / A[q, r]))
        return steps

    @cached_property
    def _cursor(self) -> tuple[list, list]:
        """The last word queried, as a list of symbols, and the weights after
        each of its prefixes; the empty prefix holds the stationary weights."""
        return [], [dict(enumerate(self.stationary.tolist()))]


def parry(spec) -> ParryModel:
    """Markov measure of maximal entropy from Perron eigen-data."""
    aut = S.build_automaton(spec)
    if not aut.irreducible:
        raise ReduciblePresentationError(f"{S.describe(spec)}: presentation is reducible")
    lam, stationary, P = parry_chain(aut.adjacency())
    return ParryModel(automaton=aut, lam=lam, stationary=stationary, transition=P)


def mu_parry(model: ParryModel, w) -> float:
    """Cylinder measure of a word under the Parry model; 0 off the language.

    Sums, over the states w is readable from, the stationary weight times the
    edge probabilities along w's path; paths that meet in a state are merged.
    Queries on one model resume from the prefix they share with the previous
    query, so only the symbols after it are stepped through.
    """
    steps = model._steps
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
# Gap-counter Parry chain (independent oracle for the S-gap MME)


@dataclass(frozen=True, eq=False)
class GapChain:
    """Markov chain on 'zeros seen since the last 1', capped for cofinite sets."""

    stationary: np.ndarray
    transition: dict  # (state, symbol) -> (target, probability)
    n_states: int


@lru_cache(maxsize=None)
def gap_chain(gaps: S.SGapSet) -> GapChain:
    if gaps.finite:
        top = max(gaps.extra)
        states = list(range(top + 1))
        succ0 = {i: i + 1 for i in states if i + 1 <= top}
    else:
        top = gaps.cofinite_from
        states = list(range(top + 1))
        succ0 = {i: min(i + 1, top) for i in states}
    n = len(states)
    A = np.zeros((n, n))
    edges = []
    for i in states:
        if i in succ0:
            A[i, succ0[i]] += 1
            edges.append((i, "0", succ0[i]))
        if i in gaps or (not gaps.finite and i == top):
            A[i, 0] += 1
            edges.append((i, "1", 0))
    if not S._strongly_connected(A):
        raise ReduciblePresentationError("gap-counter chain is reducible")
    _, stationary, P = parry_chain(A)
    # parallel edges (a 0 and a 1 from state 0 back to 0 when S = [0, inf)) share P evenly
    transition = {(i, a): (j, float(P[i, j] / A[i, j])) for i, a, j in edges}
    return GapChain(stationary=stationary, transition=transition, n_states=n)


def sgap_mu_oracle(gaps: S.SGapSet, w) -> float:
    """mu(w) from the gap-counter Parry chain (independent of the recursion)."""
    chain = gap_chain(gaps)
    vec = chain.stationary.tolist()
    for a in w:
        new = [0.0] * chain.n_states
        for i, p in enumerate(vec):
            if p == 0.0:
                continue
            hop = chain.transition.get((i, a))
            if hop is not None:
                j, prob = hop
                new[j] += p * prob
        vec = new
    # np.sum keeps numpy's pairwise rounding of the weights
    return float(np.sum(vec))


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


def _poly_add(p: tuple, q: tuple, sign: int = 1) -> tuple:
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += sign * c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _monomial(k: int) -> tuple:
    return (0,) * k + (1,)


@dataclass
class SGapMME:
    """Unique MME of an S-gap shift, via the synchronization recursion."""

    gaps: S.SGapSet
    t: float = field(init=False)
    mu1: float = field(init=False)

    def __post_init__(self):
        self.t = 1.0 / S.sgap_lambda(self.gaps)
        self.mu1 = sgap_mu1(self.gaps)
        self._memo: dict[str, MeasureCertificate] = {}

    def certificate(self, w: str) -> MeasureCertificate:
        _check_over(w, BINARY)
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
        z = w[1:-1]
        one_z_one = self._pinned("1" + z + "1")
        if w[0] == "1" and w[-1] == "1":
            return one_z_one
        cz1 = self.certificate(z + "1")
        c1z = self.certificate("1" + z)
        if w[0] == "1":  # 1 z 0
            return MeasureCertificate(
                c1z.offset - one_z_one.offset, _poly_add(c1z.coeffs, one_z_one.coeffs, -1)
            )
        if w[-1] == "1":  # 0 z 1
            return MeasureCertificate(
                cz1.offset - one_z_one.offset, _poly_add(cz1.coeffs, one_z_one.coeffs, -1)
            )
        # 0 z 0: mu(z) minus the three sibling extensions of the z-cylinder
        cz = self.certificate(z)
        offset = cz.offset - c1z.offset - cz1.offset + one_z_one.offset
        coeffs = _poly_add(
            _poly_add(cz.coeffs, _poly_add(c1z.coeffs, cz1.coeffs), -1), one_z_one.coeffs
        )
        return MeasureCertificate(offset, coeffs)

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
