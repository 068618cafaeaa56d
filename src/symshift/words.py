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

import numpy as np

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

# Most entries of one dense n x n matrix, in every module: the column pairs of
# a strip, the states squared of an S-gap presentation.  At 8 bytes a float,
# about 64 MiB per matrix.
_MATRIX_ENTRIES = 1 << 23


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


def _check_sweep(k: int, shortest: int, max_len: int, field: str) -> None:
    """Refuse a sweep of the words of lengths shortest..max_len over k
    symbols, the sum of k^L, when it passes the budget; the message names
    ``field``, the setting to lower.  No power past the budget is built:
    with k >= 2, every length from the budget's bit length on is over it."""
    budget = _SWEEP_BUDGET
    if k == 1:
        total = max_len - shortest + 1
    elif max_len >= max(shortest, budget.bit_length()):
        total = budget + 1  # k^max_len alone is over
    else:
        total = (k ** (max_len + 1) - k**shortest) // (k - 1)
    if total > budget:
        raise ResourceLimitError(
            f"a sweep up to {field} exceeds the budget of {budget} words; lower {field}"
        )


# the anchored words that one block of the oracle's array pass holds,
# bounding its memory
_ORACLE_ROWS = 1 << 15
_CONDITIONS = ("iv", "i", "ii", "iii")


def _code(word, alphabet: Alphabet) -> int:
    """The base-|A| code of a word: its index among the words of its length
    in canonical order."""
    c = 0
    for a in word:
        c = c * len(alphabet.symbols) + alphabet.symbols.index(a)
    return c


def _spell(code: int, length: int, alphabet: Alphabet):
    """The word of the given length whose base-|A| code is ``code``."""
    symbols, letters = alphabet.symbols, []
    k = len(symbols)
    for _ in range(length):
        code, d = divmod(code, k)
        letters.append(symbols[d])
    letters.reverse()
    return "".join(letters) if alphabet.single_char else tuple(letters)


def transition_oracle(
    pairs: dict, alphabet: Alphabet = BINARY
) -> dict[tuple, tuple[bool, Optional[TransitionWitness]]]:
    """Brute-force sweep of the four conditions for many (v, w) pairs at once.

    ``pairs`` maps (v, w) to max_len; the result maps each pair to
    (ok, witness).  A pair is checked on every word u over ``alphabet`` with
    |v| <= |u| <= max_len and every occurrence i of v in u against every
    other site j, in canonical order, and stops at its first violation, so
    it gets the same answer as a sweep of its own.

    Only the site pairs anchored at both ends of u need a test: one site
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
    witness, is the same as when every site pair is tested.  So at each
    length a pair looks only at the words that start with v or w and end
    with v, and at u = w: ``_anchored_sweep`` builds the first as base-|A|
    codes, many lengths in one array pass, and reads the four conditions
    off digit windows.

    Independent oracle for respects_transition_exact.  Each pair is
    validated before any word is swept: v and w must be distinct nonempty
    words over ``alphabet``, max_len at least |v|, and the pair's own sweep,
    the sum of |A|^L over its lengths, within the budget.
    """
    k = len(alphabet.symbols)
    words, sweeps = set(), set()  # checked already
    narrow, wide = [], []
    for (v, w), max_len in pairs.items():
        nv, nw = len(v), len(w)
        if nv == 0 or nw == 0:
            raise InvalidWordError("words must be nonempty")
        if v == w:
            raise InvalidWordError("the two words must differ")
        if max_len < nv:
            raise InvalidWordError("max_len must be at least |v|")
        for x in (v, w):
            if x not in words:
                _check_over(x, alphabet)
                words.add(x)
        if (nv, max_len) not in sweeps:
            _check_sweep(k, nv, max_len, "max_len")
            sweeps.add((nv, max_len))
        # the longest spliced word has max_len + max(|w| - |v|, 0) letters;
        # pairs whose codes pass 62 bits run on Python ints in object arrays
        (narrow if k ** (max_len + max(nw - nv, 0)) <= 1 << 62 else wide).append((v, w, max_len))
    results = {pair: (True, None) for pair in pairs}
    for group, dtype in ((narrow, np.int64), (wide, object)):
        if group:
            results.update(_anchored_sweep(group, alphabet, dtype))
    return results


def _anchored_sweep(group, alphabet: Alphabet, dtype) -> dict:
    """(v, w) -> (False, witness) for each failing (v, w, max_len) of
    ``group``: ``transition_oracle``'s anchored checks, on codes of ``dtype``.

    At length L a row is a word u = h x v of a pair: its head h, v or w,
    any x, and v at t = L - |v|; where h and that v overlap they must agree,
    and u is their union.  A head whose words the other head's cover is
    dropped (v if v starts with w, w if w starts with v), so no word is a
    row twice; u = w is left to ``_check_conditions``.

    The lengths run in two phases: first every length up to 2 max |v| for
    every pair, where most failing pairs fail, then the longer lengths for
    the pairs that are still live.  A phase's rows go by length, head and
    x, so by code within a (length, head) entry, in blocks of _ORACLE_ROWS
    over all its lengths; each entry keeps its least failing row of a
    block.  One sort of those rows by pair, length and code gives each
    pair's first failure, the least failing word at the first length that
    has one; the word u = w is checked on the pairs still live at |w|, and
    at that length the lesser code wins.
    """
    k = len(alphabet.symbols)
    nv = np.array([len(v) for v, _, _ in group])
    nw = np.array([len(w) for _, w, _ in group])
    top = np.array([max_len for _, _, max_len in group])
    codes = {x: _code(x, alphabet) for x in {x for v, w, _ in group for x in (v, w)}}
    cv = np.array([codes[v] for v, _, _ in group], dtype)
    cw = np.array([codes[w] for _, w, _ in group], dtype)
    pw = np.array([k**e for e in range(int(np.max(top + np.maximum(nw - nv, 0))) + 1)], dtype)
    heads = [(p, h) for p, (v, w, _) in enumerate(group) for h, g in ((v, w), (w, v)) if h[: len(g)] != g]
    hp = np.array([p for p, _ in heads])
    hn = np.array([len(h) for _, h in heads])
    hc = np.array([codes[h] for _, h in heads], dtype)
    live = np.ones(len(group), bool)
    found = {}
    split = min(2 * int(nv.max()), int(top.max()))
    for first, last in ((1, split), (split + 1, int(top.max()))):
        # the (length, head) entries of the live pairs, by length, then head
        lengths = np.arange(first, last + 1)[:, None]
        L, h = np.nonzero(live[hp] & (nv[hp] < lengths) & (hn <= lengths) & (lengths <= top[hp]))
        L += first
        q = hp[h]
        # the letters of x, or minus the letters that h shares with the v at t
        gap = L - nv[q] - hn[h]
        over = np.maximum(-gap, 0)
        count = np.where(hc[h] % pw[over] == cv[q] // pw[nv[q] - over], k ** np.maximum(gap, 0), 0)
        ends = np.cumsum(count)
        total = int(ends[-1]) if len(ends) else 0
        # what a row reads of its entry: the flags and the powers of |A| at
        # t = L - |v| and around the v at t and the w at 0 or L - |w|; one
        # array each, as a block of rows would pass the size that malloc
        # maps afresh on every call
        t, shift = L - nv[q], nw[q] - nv[q]
        kv, cvq, cwq, pwt = pw[nv[q]], cv[q], cw[q], pw[t]
        of_entry = (q, ends - count, nw[q] <= L, t + shift <= 0, t + shift < 0, L == nw[q], L,
                    hc[h] * pw[np.maximum(gap, 0)], pw[over], kv, cvq, cwq, pwt, cwq * pwt,
                    pw[np.maximum(L - nw[q], 0)], pw[nw[q]], pw[np.maximum(t + shift, 0)])
        fail = []  # (pair, length, code of u, condition) of each entry's least failing row in a block
        for start in range(0, total, _ORACLE_ROWS):
            row = np.arange(start, min(start + _ORACLE_ROWS, total))
            r = np.searchsorted(ends, row, side="right")
            (p, base, w_fits, iv, ii, at_w, n, head, po, kv, cvp, cwp, pwt, cwt, pwh, pww,
             pws) = (x[r] for x in of_entry)
            u = (head + (row - base)) // po * kv + cvp
            v_head = u // pwt == cvp
            w_head = w_fits & (u // pwh == cwp)
            # (0, t): w spliced in at 0, w + u[|v|:], must leave the v at t
            # right of it (iv) and a v (i); (t, 0): w spliced in at t,
            # u[:t] + w, must leave the v (ii) or w (iii) at 0
            up = u // kv * pww + cwp
            fails = np.stack([
                v_head & iv,
                v_head & ((cwt + u % pwt) % kv != cvp),
                v_head & (ii | (up // pws != cvp)),
                w_head & (up // pwt != cwp),
            ])
            bad = np.flatnonzero(fails.any(0) & (~at_w | (u != cwp)))
            # an entry's codes grow with x, so its first failing row is its least
            bad = bad[np.diff(r[bad], prepend=-1) != 0]
            fail.append((p[bad], n[bad], u[bad], fails[:, bad].argmax(0)))
        best = {}  # pair -> (length, code of u, condition or witness) of its first failure
        if fail:
            p, n, u, cond = (np.concatenate(x) for x in zip(*fail))
            order = np.lexsort((u, n, p))
            order = order[np.diff(p[order], prepend=-1) != 0]
            best = dict(zip(p[order].tolist(), zip(n[order].tolist(), u[order].tolist(), cond[order].tolist())))
        for pair in np.flatnonzero(live & (nv <= nw) & (nw <= top) & (first <= nw) & (nw <= last)).tolist():
            # u = w, on a pair live at |w|: every site pair with min(i, j) = 0
            v, w, _ = group[pair]
            if best.get(pair, (len(w),))[0] < len(w):
                continue
            occ_v, head_v = occurrences(w, v), (0,) if w[: len(v)] == v else ()
            for site in occ_v:
                witness = _check_conditions(w, v, w, site, *((occ_v, ()) if site == 0 else (head_v, (0,))))
                if witness is not None:
                    if best.get(pair, (len(w), codes[w]))[:2] >= (len(w), codes[w]):
                        best[pair] = (len(w), codes[w], witness)
                    break
        for pair, (n, code, why) in best.items():
            if isinstance(why, int):
                t = n - len(group[pair][0])
                why = TransitionWitness(_CONDITIONS[why], _spell(code, n, alphabet), *((0, t) if why < 2 else (t, 0)))
            live[pair] = False
            found[group[pair][:2]] = (False, why)
    return found


def respects_transition_bounded(
    v, w, max_len: int, alphabet: Alphabet = BINARY
) -> tuple[bool, Optional[TransitionWitness]]:
    """Brute-force sweep of the four conditions over all u with |u| <= max_len.

    One pair of transition_oracle, with its validation.
    """
    return transition_oracle({(v, w): max_len}, alphabet)[v, w]
