"""Word primitives and the replacement calculus on finite words.

Words are plain Python sequences of symbol tokens: a ``str`` when every
symbol is a single character (the common case), or a tuple of token strings
for multi-character alphabets.  All operations are generic over the two
representations; slicing, concatenation and equality behave identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import (
    InvalidPositionError,
    InvalidWordError,
    ReplacementBrokenError,
    ResourceLimitError,
)

# Most items one exhaustive walk may visit, in every module: the words of a
# sweep over all its lengths, the nodes of a word graph or a lemma sweep, the
# steps of the synchronized-formula table, the assignments of a 2D halo.
_SWEEP_BUDGET = 1 << 22


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite symbol set; the order fixes canonical enumeration."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise InvalidWordError("alphabet must be nonempty")
        if any(not isinstance(s, str) or not s for s in self.symbols):
            raise InvalidWordError("alphabet symbols must be nonempty strings")
        if len(set(self.symbols)) != len(self.symbols):
            raise InvalidWordError("alphabet contains duplicate symbols")

    @cached_property
    def single_char(self) -> bool:
        return all(len(s) == 1 for s in self.symbols)

    @cached_property
    def empty(self):
        """The empty word, in this alphabet's word representation."""
        return "" if self.single_char else ()

    @cached_property
    def letters(self) -> dict:
        """symbol -> the one-symbol word of it, in symbol order."""
        return {a: a if self.single_char else (a,) for a in self.symbols}

    def words(self, length: int):
        """Yield all words of the given length in canonical order."""
        if self.single_char:
            for tup in itertools.product(self.symbols, repeat=length):
                yield "".join(tup)
        else:
            yield from itertools.product(self.symbols, repeat=length)


BINARY = Alphabet(("0", "1"))


def parse_word(text: str, alphabet: Alphabet):
    """Parse the serialized form of a word (tokens joined with '.')."""
    if alphabet.single_char:
        word = text
    else:
        word = tuple(text.split(".")) if text else ()
    _check_over(word, alphabet)
    return word


def _check_over(word, alphabet: Alphabet) -> None:
    """Raise InvalidWordError unless word is a word over alphabet.

    The type must match too: a ``str`` never equals a tuple slice, so a word
    of the wrong representation would silently occur nowhere.
    """
    kind = str if alphabet.single_char else tuple
    if not isinstance(word, kind):
        raise InvalidWordError(f"words over this alphabet are {kind.__name__}s, got {word!r}")
    for s in word:
        if s not in alphabet.symbols:
            raise InvalidWordError(f"symbol {s!r} not in alphabet")


def format_word(word) -> str:
    """Serialize a word; multi-character symbols join with '.'."""
    if isinstance(word, str):
        return word
    return ".".join(word)


def occurrences(u, v) -> list[int]:
    """All start indices where v occurs as a subword of u, ascending."""
    if len(v) == 0:
        raise InvalidWordError("occurrence pattern must be nonempty")
    if isinstance(u, str) and isinstance(v, str):
        # restart one past each match so that overlapping matches are kept
        out = []
        i = u.find(v)
        while i >= 0:
            out.append(i)
            i = u.find(v, i + 1)
        return out
    n, k = len(u), len(v)
    return [i for i in range(n - k + 1) if u[i : i + k] == v]


def replace_seq(u, v, w, positions: Sequence[int]):
    """Replace occurrences of v by w at the given sorted positions, left to right.

    Follows the sequential step rule: the m-th replacement happens at
    ``s_m + (m-1)(|w|-|v|)`` in the current word.  Raises
    ReplacementBrokenError if a shifted position is no longer an occurrence,
    which indicates the non-interference hypothesis fails here.
    """
    positions = sorted(positions)
    occ = set(occurrences(u, v)) if positions else set()
    for s in positions:
        if s not in occ:
            raise InvalidPositionError(f"position {s} is not an occurrence of {format_word(v)!r}")
    shift = len(w) - len(v)
    cur = u
    for m, s in enumerate(positions):
        pos = s + m * shift
        if pos < 0 or cur[pos : pos + len(v)] != v:
            raise ReplacementBrokenError(
                f"shifted position {pos} is not an occurrence at step {m + 1}",
                word=cur,
                step=m + 1,
                position=pos,
            )
        cur = cur[:pos] + w + cur[pos + len(v) :]
    return cur


def self_overlaps(v) -> set[int]:
    """Offsets d in (0,|v|) at which v overlaps itself: v[d:] == v[:|v|-d]."""
    if len(v) == 0:
        raise InvalidWordError("word must be nonempty")
    n = len(v)
    return {d for d in range(1, n) if v[d:] == v[: n - d]}


def affix_flags(v, w) -> tuple[bool, bool]:
    """(v is a suffix of w, w is a prefix of v); a word is an affix of itself."""
    if len(v) == 0 or len(w) == 0:
        raise InvalidWordError("affix test needs nonempty words")
    v_suffix_of_w = len(v) <= len(w) and w[len(w) - len(v) :] == v
    w_prefix_of_v = len(w) <= len(v) and v[: len(w)] == w
    return v_suffix_of_w, w_prefix_of_v


@dataclass(frozen=True)
class TransitionWitness:
    """Concrete violation of the non-interference conditions.

    ``u`` contains the occurrence pattern at index ``i`` (the replaced one)
    and at index ``j`` (the one that breaks); ``condition`` is one of
    "i", "ii", "iii", "iv".
    """

    condition: str
    u: object
    i: int
    j: int


def respects_transition_exact(v, w) -> tuple[bool, Optional[TransitionWitness]]:
    """Decide whether replacing v by w never disturbs other occurrences.

    The four conditions are quantified over every word u and every
    occurrence of v in u; a finite case analysis over relative placements
    of two occurrences decides them exactly.  On failure the returned
    witness pins down a violating (u, i, j).
    """
    if len(v) == 0 or len(w) == 0:
        raise InvalidWordError("words must be nonempty")
    if v == w:
        raise InvalidWordError("the two words must differ")
    nv, nw = len(v), len(w)
    overlaps = self_overlaps(v)

    # (iv): a later occurrence at distance d must stay to the right of the
    # replacement, i.e. d + |w| - |v| > 0.
    for d in sorted(overlaps):
        if d <= nv - nw:
            return False, TransitionWitness("iv", v[:d] + v, 0, d)

    # (i): replacing the left of two d-overlapping occurrences; the
    # surviving occurrence starts inside the spliced-in w, so the length
    # |v|-d suffix of w must equal the length |v|-d prefix of v.
    for d in sorted(overlaps):
        if d <= nv - nw:
            continue  # already fails (iv)
        k = nv - d
        if k > nw or w[nw - k :] != v[:k]:
            return False, TransitionWitness("i", v[:d] + v, 0, d)

    # (ii): replacing the right of two d-overlapping occurrences; the left
    # occurrence now reads into w, so w and v must share a length |v|-d prefix.
    for d in sorted(overlaps):
        k = nv - d
        if k > nw or w[:k] != v[:k]:
            return False, TransitionWitness("ii", v[:d] + v, d, 0)

    # (iii): an occurrence of w at j < i overlapping the replaced v at
    # i = j + d.  The overlap forces letter equations between w and v; if
    # they are consistent such a u exists, and after the splice the old w
    # window reads w shifted by d, so w needs a self-overlap at d.
    for d in range(1, nw):
        k = min(nw - d, nv)
        if w[d : d + k] != v[:k]:
            continue  # placement impossible in any u
        if w[d:] != w[: nw - d]:
            u = w + v[k:] if d + nv > nw else w
            return False, TransitionWitness("iii", u, d, 0)

    return True, None


def _check_conditions(u, v, w, i: int, sites_v, sites_w) -> Optional[TransitionWitness]:
    """Literal check of the four conditions for one (u, i).

    i must be an occurrence of v in u; ``sites_v`` and ``sites_w`` are the
    occurrences of v and of w in u to test against it.
    """
    nv, nw = len(v), len(w)
    shift = nw - nv
    up = u[:i] + w + u[i + nv :]
    # every index below is >= 0, and a slice that runs past the end is short
    for j in sites_v:
        if j > i:
            if j + shift <= i:
                return TransitionWitness("iv", u, i, j)
            if up[j + shift : j + shift + nv] != v:
                return TransitionWitness("i", u, i, j)
        elif j < i:
            if up[j : j + nv] != v:
                return TransitionWitness("ii", u, i, j)
    for j in sites_w:
        if j < i and up[j : j + nw] != w:
            return TransitionWitness("iii", u, i, j)
    return None


def transition_oracle(
    pairs: dict, alphabet: Alphabet = BINARY
) -> dict[tuple, tuple[bool, Optional[TransitionWitness]]]:
    """Brute-force sweep of the four conditions for many (v, w) pairs at once.

    ``pairs`` maps (v, w) to max_len; the result maps each pair to
    (ok, witness).  A pair is checked on every word u over ``alphabet`` with
    |v| <= |u| <= max_len and every occurrence i of v in u against every
    other site j, in canonical order, and stops at its first violation, so
    it gets the same answer as a sweep of its own.  The words are enumerated
    once for all pairs.

    Only the site pairs anchored at both ends of u are tested: one site
    starts at 0 and one ends at |u| = L.  Take the first word u on which
    some check of a pair fails; every check on every shorter word passed.

    - Word start.  The check of (i, j) reads u from a = min(i, j) on: every
      slice starts there or later, and the splice sits at i >= a.  So it
      has the verdict of the (i - a, j - a) check on u[a:], a shorter word
      containing v, where it passed.  So a failing check has min(i, j) = 0.
    - Last letter.  If both sites lie inside u[:-1], so does the splice at
      i, and the spliced u[:-1] is the spliced u, up, without its last
      letter.  u[:-1] holds the v at i, so the check ran on it and passed:
      condition iv compares only i and j, and each slice it compared
      equalled its pattern, so the end of up[:-1] cut none short.  The same
      slices of up are the same words, so the check passes on u unchanged.
      So a failing check uses a site that ends at L.

    The sites ending at L are the v at t = L - |v| and the w at L - |w|.
    A w site is tested only against a replaced v after it, so with
    min(i, j) = 0 that w is at 0, and u = w.  For u != w this leaves (0, t)
    when v starts u, then (t, 0) against the v or w that starts u; the word
    u = w gets every site pair with min(i, j) = 0.  These are tested in the
    order of the full check, so the first failing check, and so the
    witness, is the same as when every site pair is tested.  A word is
    therefore looked at only for the live pairs whose v or w it starts with
    and whose v it ends with, and for the pairs whose w it is.

    Independent oracle for respects_transition_exact.  Each pair is
    validated before any word is swept: v and w must be nonempty words over
    ``alphabet``, max_len at least |v|, and the pair's own sweep, the sum of
    |A|^L over its lengths, within the budget.
    """
    k = len(alphabet.symbols)
    for (v, w), max_len in pairs.items():
        if len(v) == 0 or len(w) == 0:
            raise InvalidWordError("words must be nonempty")
        if max_len < len(v):
            raise InvalidWordError("max_len must be at least |v|")
        _check_over(v, alphabet)
        _check_over(w, alphabet)
        total = sum(k**L for L in range(len(v), max_len + 1))
        if total > _SWEEP_BUDGET:
            raise ResourceLimitError(
                f"sweep of {total} words exceeds budget; lower max_len or shrink the alphabet"
            )
    results = {pair: (True, None) for pair in pairs}
    for L in range(1, max(pairs.values(), default=0) + 1):
        by_ends = {}  # (v or w, v) -> the live pairs of a word that starts and ends so
        whole = {}  # w of length L -> its live pairs
        live = 0
        for (v, w), max_len in pairs.items():
            if len(v) <= L <= max_len and results[v, w][0]:
                live += 1
                if len(v) < L:
                    for head in (v, w):
                        by_ends.setdefault((head, v), []).append((v, w))
                if len(w) == L:
                    whole.setdefault(w, []).append((v, w))
        if not live:
            continue
        heads = sorted({len(h) for h, _ in by_ends if len(h) <= L})
        tails = sorted({len(v) for _, v in by_ends})
        for u in alphabet.words(L):
            ends = [u[L - m :] for m in tails]
            reached = {}  # a pair met through both of its words is checked once
            for n in heads:
                head = u[:n]
                for end in ends:
                    pairs_here = by_ends.get((head, end))
                    if pairs_here:
                        reached.update(dict.fromkeys(pairs_here))
            if u in whole:
                reached.update(dict.fromkeys(whole[u]))
            for v, w in reached:
                if not results[v, w][0]:
                    continue
                head_v = (0,) if u[: len(v)] == v else ()
                head_w = (0,) if u[: len(w)] == w else ()
                if u == w:
                    # every site pair with min(i, j) = 0
                    witness = None
                    occ_v = occurrences(u, v)
                    for i in occ_v:
                        if i == 0:
                            witness = _check_conditions(u, v, w, 0, occ_v, ())
                        else:
                            witness = _check_conditions(u, v, w, i, head_v, head_w)
                        if witness is not None:
                            break
                else:
                    # the v ending u at t: (0, t), then (t, 0)
                    t = L - len(v)
                    witness = _check_conditions(u, v, w, 0, (t,), ()) if head_v else None
                    if witness is None:
                        witness = _check_conditions(u, v, w, t, head_v, head_w)
                if witness is not None:
                    results[v, w] = (False, witness)
                    live -= 1
            if not live:
                break
    return results


def respects_transition_bounded(
    v, w, max_len: int, alphabet: Alphabet = BINARY
) -> tuple[bool, Optional[TransitionWitness]]:
    """Brute-force sweep of the four conditions over all u with |u| <= max_len.

    One pair of transition_oracle, with its validation; cost |A|^max_len.
    """
    return transition_oracle({(v, w): max_len}, alphabet)[v, w]
