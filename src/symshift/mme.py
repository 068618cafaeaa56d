"""Measures of maximal entropy: Parry models and S-gap certificates.

Every Parry measure of a shift is built one way: ``parry`` builds it, once
per spec, from the ``(q, symbol, r)`` edges of the spec's minimal presentation
and the right Perron pair ``Automaton.perron`` holds, and ``mu_parry`` reads
cylinders off the result; the strips of ``grid2d`` share ``parry_chain``.  For S-gap shifts a second, independent route exists: the
closed form of the recursion driven by the synchronization identity
mu(1 z 1) = mu(1) t^(|z|+1), an integer certificate (k, f) with
mu(w) = k + mu(1) f(t).  It reads only membership in S and shares no code
with the presentation's Parry model (``sgap_mu_oracle``), and the two must
agree; the test suite enforces it.
"""

from __future__ import annotations

import re
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
    """Parry measure of a spec's presentation (``parry``): the stationary
    weights and the one step table that ``mu_parry`` and ``_level_measures`` read."""

    stationary: np.ndarray
    column: dict  # symbol -> its entry in each row of ``table`` (``Automaton.column``)
    table: list  # state -> per symbol, (target, probability of that one edge) or None

    @cached_property
    def _cursor(self) -> tuple[list, list]:
        """The last word queried, as a list of symbols, and the weights after
        each of its prefixes; the empty prefix holds the stationary weights."""
        return [], [dict(enumerate(self.stationary.tolist()))]


@lru_cache(maxsize=None)
def parry(spec) -> ParryModel:
    """Markov measure of maximal entropy of the spec's minimal presentation.

    One model per spec, held, like ``build_automaton``'s presentation, for
    the life of the process, together with the trail of the last word that
    ``mu_parry`` read on it.  Parallel edges share P[q, r] evenly, P[q, r] /
    A[q, r] each.
    """
    aut = S.build_automaton(spec)
    if not aut.irreducible:
        raise ReduciblePresentationError("graph is reducible")
    A = aut.adjacency()
    _, stationary, P = _chain_from(A, *aut.perron)
    table = [[None] * len(aut.column) for _ in aut.states]
    for q, a, r in aut.transitions:
        table[q][aut.column[a]] = (r, float(P[q, r] / A[q, r]))
    return ParryModel(stationary=stationary, column=aut.column, table=table)


def mu_parry(model: ParryModel, w) -> float:
    """Cylinder measure of a word under the Parry model; 0 off the language.

    Sums, over the states w is readable from, the stationary weight times the
    edge probabilities along w's path; paths that meet in a state are merged.
    Queries on one model, from any caller, resume from the prefix they share
    with the previous query, so only the symbols after it are stepped through.
    """
    column, table = model.column, model.table
    word, trail = model._cursor
    k = 0
    for a, b in zip(word, w):
        if a != b:
            break
        k += 1
    del word[k:], trail[k + 1 :]
    weights = trail[k]
    for a in w[k:]:
        j = column.get(a)
        step = {}
        if j is not None:
            for q, p in weights.items():
                hop = table[q][j]
                if hop is not None:
                    r, prob = hop
                    step[r] = step.get(r, 0.0) + p * prob
        weights = step
        word.append(a)
        trail.append(weights)
    return float(sum(weights.values()))


def _level_measures(model: ParryModel, maxlen: int) -> list[array]:
    """For L = 1..maxlen, ``mu_parry(model, w)`` of the k^L words w of length
    L over the model's k symbols in canonical order, one array per level, bit for bit.

    Each word of the trie is stepped once from its prefix: the prefix's live
    (state, mass) entries read one letter more, entries that meet in a state
    merge, as in ``mu_parry``, and a dead word keeps 0.0.  The walk is depth
    first, so besides the levels only the weights along one path are held.
    """
    table, k = model.table, len(model.column)
    levels = [array("d", [0.0]) * k**n for n in range(1, maxlen + 1)]
    # (length, index, weights) of the words whose children are still to step
    stack = [(0, 0, dict(enumerate(model.stationary.tolist())))] if maxlen > 0 else []
    while stack:
        n, i, weights = stack.pop()
        steps = [{} for _ in range(k)]
        for q, p in weights.items():
            for j, hop in enumerate(table[q]):
                if hop is not None:
                    r, prob = hop
                    step = steps[j]
                    step[r] = step.get(r, 0.0) + p * prob
        for j, step in enumerate(steps):
            if step:
                levels[n][i * k + j] = sum(step.values())
                if n + 1 < maxlen:
                    stack.append((n + 1, i * k + j, step))
    return levels


def sgap_mu_oracle(gaps: S.SGapSet, w) -> float:
    """mu(w) from the Parry model of the S-gap presentation (independent of the recursion)."""
    _check_over(w, BINARY)
    return mu_parry(parry(S.SGapShift(gaps)), w)


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
    its key (``_key``): (n) for 0^n, (a, b, |c|) for a legal 0^a c 0^b and ()
    for an illegal word, whose certificate is 0.  Each call builds its
    certificate afresh from the key; the model keeps only t, mu(1) and one
    pattern of the legal cores, built once from S, so nothing is kept
    between words.
    """

    gaps: S.SGapSet
    t: float = field(init=False)
    mu1: float = field(init=False)
    _core: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.t = 1.0 / S.sgap_lambda(self.gaps)
        self.mu1 = sgap_mu1(self.gaps)
        # a legal core is 1, then runs 0^n 1 with every n in S.  re refuses a
        # count of 2^32 - 1 or more; such gaps are left out, which is exact
        # for every word shorter than 2^32 - 1 symbols
        runs = [f"0{{{n}}}1" for n in self.gaps.extra if n < 2**32 - 1]
        if self.gaps.cofinite_from is not None and self.gaps.cofinite_from < 2**32 - 1:
            runs.append(f"0{{{self.gaps.cofinite_from},}}1")
        self._core = re.compile(f"1(?:{'|'.join(runs)})*")

    def certificate(self, w: str) -> MeasureCertificate:
        _check_over(w, BINARY)
        return self._build(self._key(w))

    def _key(self, w: str) -> tuple:
        """The key of a word already known to be binary."""
        first, last = w.find("1"), w.rfind("1")
        if first < 0:
            return (len(w),)
        if self._core.fullmatch(w, first, last + 1):
            return (first, len(w) - 1 - last, last - first + 1)
        return ()

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

    def _factor(self, j: int) -> list[tuple[int, int]]:
        """A_j as its terms (exponent, coefficient), exponents ascending."""
        # S's members below j: those of extra, then [M, j) for S = extra u [M, inf)
        M = self.gaps.cofinite_from
        below = [n for n in self.gaps.extra if n < j] + [*range(j if M is None else M, j)]
        return [(0, 1)] + [(n + 1, -1) for n in below]


@lru_cache(maxsize=None)
def sgap_model(gaps: S.SGapSet) -> SGapMME:
    return SGapMME(gaps)


def sgap_mu(gaps: S.SGapSet, w: str) -> tuple[float, MeasureCertificate]:
    model = sgap_model(gaps)
    cert = model.certificate(w)
    return cert.evaluate(model.mu1, model.t), cert
