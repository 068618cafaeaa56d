"""The replacement-lemma sweep on integer-coded arrays, many (v, w) pairs at
a time.

A node is a nonempty set S of v's occurrences (sites) in u on which
``words.replace_seq`` goes through, with its image and the sites that fail:
persistence for a site of S, survival for the others.  Where it breaks at a
step, S[:step] is a "broken-step" violation in u and in its extensions.
Every node is a row of integer arrays (``_Level``), built by
``_sweep_levels``: u is its base-|A| code, canonical order, so that word
i|A| + c is word i and letter c; S and the failed sites are bitmasks; the
image is its base-|A| code, its length fixed by L, |S| and the pair.  The
pairs run together, in passes that split by pair where a level would pass
_SWEEP_NODES nodes (``_sweep_levels``).  Pairs whose packed keys (pair, |S|,
image, u) would need more than 62 bits run apart (``_passes``), on Python
ints in object arrays, by the same expressions.

A node of level L + 1 is a copy (uc, S) of a node (u, S) of level L, or a
birth: its last site t = L + 1 - |v| is in S.  No site of S reaches the
letter c, so a copy's image is Ic, I its parent's, and a copy inherits its
parent's verdicts:

- injectivity: Ic = I'c exactly when I = I', so copies of one word uc
  collide exactly when their parents do in u;
- the preimage bound: the copies of image Ic are the copies of letter c of
  the nodes of image I, as many; w occurs in Ic wherever it occurs in I, so
  C(hits, m) does not shrink, and an image that passed stays passed until a
  birth joins it.  A birth's image ends with w, so it joins only copies
  whose image ends with w;
- failed sites: site s has the same place a = s + (the sites of S left of
  s)(|w| - |v|) in Ic as in I, and Ic is one letter longer, so a window
  that fits in I holds the same letters in Ic; one that ran past the end of
  I failed there.  With |w| >= |v| every window fits: s + |v| <= L, and S
  has at most |S| sites up to s, so a + |window| <= L + |S|(|w| - |v|).  So
  a copy keeps its parent's failed sites, and with |w| < |v| only those are
  read again;
- broken steps: where S[:step] breaks in u it breaks in uc.

So ``_next_level`` reads the new site t and the births, and
``_level_witnesses`` groups only the births, the copies whose image ends
with w, and the copies of images that failed their bound or collided a
level before (``_Level.recheck``).  Grouping every node of a level and
bounding each of its images finds the same violations: copies collide only
where their parents did, and were flagged, and an image of copies alone
passes where its parents' image passed and is flagged where it failed.  So
the checks of consecutive levels that hold few nodes run in one call
(``sweep``), and each level after the first, built before its parents'
flags were set, groups all its nodes.  The last level is checked but never
extended, so it holds only the copies that its checks read.

At these sizes a numpy call costs more than the work on its rows, so what
a level reads of each pair comes from per-pass tables (``_PairTable``):
the rows of each level in ``steps``, and the occurrences of w in a window
of images in ``cells``, which counts several offsets of an image at a
time.  Each column of a level is its own array: a level of _SWEEP_NODES
nodes in one block of several int32 rows would pass the 128 KiB from which
malloc maps memory afresh, and pay page faults for every level.  Rows are
picked by index (``np.flatnonzero``), as numpy's boolean indexing pays per
row on a scattered mask, and a ``reduceat`` over the image groups, which
pays per group, runs only to order the images that fail.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import words as W

# the (u, S) nodes that one pass of the lemma sweep may hold in a level,
# bounding its memory; a pair that holds more runs in a pass alone
_SWEEP_NODES = 1 << 14


class _PairTable(NamedTuple):
    """The (v, w) pairs of one pass of the lemma sweep, an entry per pair.

    v, w, kv = |A|^|v| and kw = |A|^|w| have the dtype of the image codes,
    as has pw, the powers |A|^e up to the longest image; v1, kv1, w1 and kw1
    are v and w less their last letters and kv // |A| and kw // |A|, and
    wlast is w's last letter.  uv, ukv, uv1 and ukv1 are v, kv, v1 and kv1
    for the int32 word codes, and last is v's last letter.  steps[:, L]
    holds what level L reads of each pair (``_next_level``): lone = |A|^t,
    the words that v ends at t = L - |v|; bit = 1 << t; low, the failed
    sites that a birth keeps; lo and span, the sites lo..lo + span - 1 that
    a birth checks; and mcap, the largest |S| whose images at level L hold
    at least |v| letters.  bound[p, L] bounds the nodes of pair p in level L
    (``_level_bounds``), and comb[n, r] is C(n, r), capped far above any
    count.  cells[wbase[p] + r wmod + y] counts the occurrences of pair p's
    w at the r lowest of ``window`` offsets of the word of code y < wmod =
    |A|^(max |w| + window - 1) (``_w_hits``); it is None when no table of
    one offset fits in _SWEEP_NODES entries.
    """

    k: int
    nv: np.ndarray
    nw: np.ndarray
    shift: np.ndarray
    last: np.ndarray
    v: np.ndarray
    w: np.ndarray
    kv: np.ndarray
    kw: np.ndarray
    v1: np.ndarray
    kv1: np.ndarray
    w1: np.ndarray
    kw1: np.ndarray
    wlast: np.ndarray
    uv: np.ndarray
    ukv: np.ndarray
    uv1: np.ndarray
    ukv1: np.ndarray
    pw: np.ndarray
    steps: np.ndarray
    bound: np.ndarray
    comb: np.ndarray
    window: int
    wmod: int
    wbase: np.ndarray
    cells: np.ndarray | None


class _Level(NamedTuple):
    """Level L of ``_sweep_levels``: its nodes, then its broken entries.

    Node i is the (u, S) of pair pair[i] with |S| = m[i], u of code word[i]
    and length L, S the sites of the bits of sub[i], the image of code
    img[i] and length L + m[i] (|w| - |v|), and the failed sites of the
    bits of failed[i]; recheck[i] flags a node whose image group
    ``_level_witnesses`` must group again.  Broken entry j is the
    (u, S[:step]) of code bword[j] and bits bsub[j] of pair bpair[j].  The
    nodes from born on are the births, the ones before are copies; the
    last level of a sweep leaves ``skipped`` copies out (``_next_level``).
    """

    L: int
    pair: np.ndarray
    m: np.ndarray
    word: np.ndarray
    sub: np.ndarray
    img: np.ndarray
    failed: np.ndarray
    recheck: np.ndarray
    bpair: np.ndarray
    bword: np.ndarray
    bsub: np.ndarray
    born: int
    skipped: int = 0


def _longest_image(v, w, u_maxlen: int) -> int:
    # each of the at most u_maxlen - |v| + 1 sites adds |w| - |v| letters
    return u_maxlen + max(len(w) - len(v), 0) * max(u_maxlen - len(v) + 1, 0)


def _int64_keys(n_pairs: int, longest: int, k: int, u_maxlen: int) -> bool:
    """Whether the packed keys (pair, m, image, word) of a pass fit in 62 bits."""
    return n_pairs * (u_maxlen + 1) * k ** (longest + u_maxlen) <= 1 << 62


def _level_bounds(v, alphabet: W.Alphabet, u_maxlen: int) -> list:
    """For L = 0..u_maxlen, the (u, S) with |u| = L and S a nonempty set of
    v's occurrences in u: a bound on the nodes and broken entries of level L
    of v's lemma sweep.

    A walk on the states q, the longest suffix of u that begins v, weighs
    each word by 2 for each occurrence that ends in it, then drops the empty
    sets.
    """
    n, k = len(v), len(alphabet.symbols)

    def state(x):
        while v[: len(x)] != x:
            x = x[1:]
        return len(x)

    step = [[state(v[:q] + a) for a in alphabet.letters.values()] for q in range(n + 1)]
    count, out = [1] + [0] * n, [0]
    for L in range(1, u_maxlen + 1):
        new = [0] * (n + 1)
        for q, c in enumerate(count):
            for r in step[q] if c else ():
                new[r] += c
        new[n] *= 2
        count = new
        out.append(sum(count) - k**L)
    return out


def _passes(pairs, u_maxlen: int, k: int) -> list:
    """The pair indices in runs of consecutive pairs whose packed keys fit in
    int64 together; a pair whose keys do not fit alone runs alone."""
    passes, longest = [], 0
    for i, (v, w, _) in enumerate(pairs):
        reach = _longest_image(v, w, u_maxlen)
        if passes and _int64_keys(len(passes[-1]) + 1, max(longest, reach), k, u_maxlen):
            passes[-1].append(i)
            longest = max(longest, reach)
        else:
            passes.append([i])
            longest = reach
    return passes


def _pair_table(pairs, u_maxlen: int, alphabet: W.Alphabet) -> _PairTable:
    """The constants of the (v, w) ``pairs`` of one pass; image codes are
    int64 when every packed key fits, else Python ints in object arrays."""
    k = len(alphabet.symbols)
    longest = max(_longest_image(v, w, u_maxlen) for v, w in pairs)
    dtype = np.int64 if _int64_keys(len(pairs), longest, k, u_maxlen) else object
    # a few numpy calls on whole tables, each op's first use in a process
    # being dear
    nv, nw = np.array([[len(v) for v, _ in pairs], [len(w) for _, w in pairs]])
    shift = nw - nv
    codes = [(W._code(v, alphabet), W._code(w, alphabet), k ** len(v), k ** len(w)) for v, w in pairs]
    v, w, kv, kw = codes = np.array(list(zip(*codes)), dtype)
    v1, w1, kv1, kw1 = codes // k
    # the int32 word codes: |v| <= u_maxlen, and |A|^u_maxlen is within the
    # budget
    last, uv, ukv, uv1, ukv1, wlast = np.array([v % k, v, kv, v1, kv1, w % k], np.int32)
    bounds = {}  # pairs that share v share its bounds
    for x, _ in pairs:
        if x not in bounds:
            bounds[x] = _level_bounds(x, alphabet, u_maxlen)
    # a birth checks the sites from lo on, those whose windows can reach t:
    # those that overlap t, or every site when |w| < |v|
    L = np.arange(u_maxlen + 1)[:, None]
    t = np.maximum(L - nv, 0)
    lo = np.where(shift < 0, 0, np.maximum(t - nv + 1, 0))
    steps = np.array([
        np.where(L >= nv, k**t, 0), 1 << t, (1 << lo) - 1, lo, t - lo,
        # L + |S| (|w| - |v|) >= |v|
        np.where(shift < 0, (L - nv) // np.maximum(-shift, 1), u_maxlen),
    ], np.int32)
    # the window table of the preimage count: each distinct w once, over the
    # words of max |w| + window - 1 letters, for the most offsets that an
    # image needs and that keep it within _SWEEP_NODES entries
    distinct = {}
    wid = np.array([distinct.setdefault(x, len(distinct)) for _, x in pairs], np.intp)
    need, widest = longest - int(nw.min()) + 1, int(nw.max())
    window = 0
    while window < need and len(distinct) * (window + 2) * k ** (widest + window) <= _SWEEP_NODES:
        window += 1
    wmod, cells = k ** (widest + window - 1), None
    if window:
        # the last n letters of the window at each offset, for each |w| = n
        starts = np.arange(wmod, dtype=np.int64) // np.array([k**d for d in range(window)], np.int64)[:, None]
        ends = {n: starts % k**n for n in {len(x) for x in distinct}}
        cells = np.zeros((len(distinct), window + 1, wmod), np.int32)
        cells[:, 1:] = np.cumsum([ends[len(x)] == W._code(x, alphabet) for x in distinct], axis=1)
    return _PairTable(
        k=k,
        nv=nv,
        nw=nw,
        shift=shift,
        last=last,
        v=v,
        w=w,
        kv=kv,
        kw=kw,
        v1=v1,
        kv1=kv1,
        w1=w1,
        kw1=kw1,
        wlast=wlast,
        uv=uv,
        ukv=ukv,
        uv1=uv1,
        ukv1=ukv1,
        pw=np.array([k**e for e in range(longest + 1)], dtype=dtype),
        steps=steps,
        bound=np.array([bounds[x] for x, _ in pairs], np.int64),
        comb=np.array([[min(math.comb(n, r), 1 << 62) for r in range(u_maxlen + 1)] for n in range(longest + 1)]),
        window=window,
        wmod=wmod,
        wbase=wid * (window + 1) * wmod,
        cells=None if cells is None else cells.ravel(),
    )


def _popcount(x: np.ndarray) -> np.ndarray:
    """The set bits of each entry of an integer array of entries in [0, 2^32)."""
    x = x.astype(np.int64)
    x = x - (x >> 1 & 0x55555555)
    x = (x & 0x33333333) + (x >> 2 & 0x33333333)
    x = x + (x >> 4) & 0x0F0F0F0F
    return (x * 0x01010101 >> 24 & 0xFF).astype(np.int32)


def _ranges(counts: np.ndarray) -> tuple:
    """(row, j) for each j < counts[row], row by row."""
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)


def _failed_sites(table: _PairTable, L: int, nodes: tuple, row: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The failed sites, as bits, of ``nodes``, the (pair, m, word, sub,
    img) of some nodes of level L, among the sites s[i] of their nodes
    row[i], each node read at its own sites only.

    Site s of a node lies at s + (the sites of S left of s)(|w| - |v|) in its
    image: it fails if that window does not hold w (s in S, persistence) or
    v (s not in S, survival), or runs out of the image.
    """
    pair, m, word, sub, img = nodes
    p = pair[row]
    site = np.flatnonzero(word[row] // table.pw[L - s - table.nv[p]] % table.ukv[p] == table.uv[p])
    row, s, p = row[site], s[site], p[site]
    if not len(row):
        return np.zeros(len(pair), np.int32)
    bits = sub[row]
    own = (bits >> s & 1).astype(bool)
    at = s + _popcount(bits & (1 << s) - 1) * table.shift[p]
    room = L + m[row] * table.shift[p] - at - np.where(own, table.nw[p], table.nv[p])
    fits = (at >= 0) & (room >= 0)
    window = img[row] // table.pw[np.where(fits, room, 0)] % np.where(own, table.kw[p], table.kv[p])
    bad = np.flatnonzero(~fits | (window != np.where(own, table.w[p], table.v[p])))
    # distinct bits of one node: their sum is their union
    return np.bincount(row[bad], weights=1 << s[bad], minlength=len(pair)).astype(np.int32)


def _spread(k: int, old: np.ndarray, added: list, letters: bool = False, kept=None) -> np.ndarray:
    """The copies of ``old``, once per letter c, letter-major, then the
    pieces ``added``; with ``letters``, the code x becomes x|A| + c in the
    copy of letter c.  ``kept`` = (letters, parents) keeps only the copies
    of those letters of those parents, in that order."""
    if kept is None:
        out = np.concatenate([old] * k + added)
        if letters:
            copies = out[: k * len(old)].reshape(k, len(old))
            copies *= k
            copies += np.arange(k, dtype=np.int32)[:, None]
        return out
    copies = old[kept[1]]
    if letters:
        copies *= k
        copies += kept[0]
    return np.concatenate([copies] + added)


def _next_level(table: _PairTable, level: _Level, pairs: np.ndarray, inj=None) -> _Level:
    """Level L + 1 of the lemma sweep of ``pairs`` from their level L.

    Level L + 1 starts with the copies of level L, one per letter c,
    letter-major: word code i becomes i|A| + c and the image code x becomes
    x|A| + c, with the parent's verdicts (module notes); with |w| < |v| a
    copy's failed sites are read again.  The other work falls on the words
    that v ends, at t = L + 1 - |v|: t survives in the image of S exactly
    when that image ends with v.  If it does not, t fails for S and S + {t}
    is broken; if it does, the birth S + {t} joins with that v spliced to w,
    image x // |A|^|v| |A|^|w| + code(w).  Then the birth {t} joins in every
    word that v ends.  A birth checks only the sites whose windows can reach
    t, and the check is skipped where no pair of the pass has such a site.
    Births follow the copies, new broken entries the old ones, largest S
    first; each column is written once, its copies and births in one call.

    A last level is checked but not extended.  Given ``inj``, the pairs'
    injectivity flags, it keeps only the copies that ``_level_witnesses``
    reads: those with failed sites, and of the pairs that check
    injectivity, the flagged copies and those whose image ends with w, read
    off the parents; ``skipped`` counts the others.
    """
    k, dtype = table.k, table.pw.dtype
    L, pair, m, word, sub, img, failed, recheck, bpair, bword, bsub, _, _ = level
    L += 1
    n = len(word)
    lone, bit, low, lo, span, mcap = table.steps[:, L]
    # the nodes that v's last letter extends to a word that v ends, at
    # t = L - |v|: u ends with v less that letter; and whether their images
    # end with it too, so that image x|A| + last ends with v
    at = np.flatnonzero(word % table.ukv1[pair] == table.uv1[pair])
    p = pair[at]
    ends = (m[at] <= mcap[p]) & (img[at] % table.kv1[p] == table.v1[p])
    # the nodes where t fails: S + {t} is broken, and t fails in their copies
    # of v's last letter
    lost = np.flatnonzero(~ends)
    lost, lq = at[lost], p[lost]
    if len(lost) > 1:
        order = np.argsort(-m[lost], kind="stable")
        lost, lq = lost[order], lq[order]
    kept = at_copy = None
    if inj is not None:
        check = inj[pair]
        keep = np.zeros((k, n), bool)
        keep[:] = (failed != 0) | check & recheck
        ew = np.flatnonzero(check & (img % table.kw1[pair] == table.w1[pair]))
        keep[table.wlast[pair[ew]], ew] = True
        keep[table.last[lq], lost] = True
        at_copy = np.flatnonzero(keep)
        letter = at_copy // n
        kept = letter, at_copy - letter * n
    # S + {t}, with that v spliced to w, then {t} in each of the |A|^t
    # words that v ends: word j |A|^|v| + code(v)
    ends = np.flatnonzero(ends)
    grow, gp = at[ends], p[ends]
    lp, j = _ranges(lone[pairs])
    lp, j = pairs[lp], j.astype(np.int32)
    new = np.concatenate([gp, lp])
    born = np.concatenate([img[grow] // table.kv1[gp], j.astype(dtype)]) * table.kw[new] + table.w[new]
    copies = k * n if kept is None else len(kept[0])
    level = _Level(
        L,
        _spread(k, pair, [new], kept=kept),
        _spread(k, m, [m[grow] + 1, np.ones(len(lp), np.int8)], kept=kept),
        _spread(k, word, [word[grow] * k + table.last[gp], j * table.ukv[lp] + table.uv[lp]], True, kept),
        _spread(k, sub, [sub[grow] | bit[gp], bit[lp]], kept=kept),
        _spread(k, img, [born], True, kept),
        _spread(k, failed, [failed[grow] & low[gp], np.zeros(len(lp), np.int32)], kept=kept),
        _spread(k, recheck, [np.zeros(len(new), bool)], kept=kept),
        bpair, bword, bsub, copies, k * n - copies,
    )

    def place(q):  # where the copies of letter c of parents i, q = c n + i, are
        return q if at_copy is None else np.searchsorted(at_copy, q)

    if span[pairs].any():
        row, s = _ranges(span[new])
        level.failed[copies:] |= _failed_sites(table, L, tuple(x[copies:] for x in level[1:6]), row,
                                               s + lo[new[row]])
    # with |w| < |v|, a copy's window that ran out of its parent's image
    # failed there and may fit in the copy's
    again = np.flatnonzero((failed != 0) & (table.shift[pair] < 0)) if failed.any() else ()
    if len(again):
        again = place((again + n * np.arange(k)[:, None]).ravel())
        row, s = _ranges(L - table.nv[level.pair[again]])
        level.failed[again] = _failed_sites(table, L, tuple(x[again] for x in level[1:6]), row, s)
    if len(lost) or len(bpair):
        level.failed[place(table.last[lq] * n + lost)] |= bit[lq]
        level = level._replace(
            bpair=_spread(k, bpair, [lq]),
            bword=_spread(k, bword, [word[lost] * k + table.last[lq]], True),
            bsub=_spread(k, bsub, [sub[lost] | bit[lq]]),
        )
    return level


def _select(level: _Level, pairs, n_pairs: int) -> _Level:
    """The nodes and broken entries of ``level`` that belong to ``pairs``."""
    member = np.zeros(n_pairs, bool)
    member[pairs] = True
    keep, broken = np.flatnonzero(member[level.pair]), np.flatnonzero(member[level.bpair])
    return _Level(level.L, *(x[keep] for x in level[1:8]), *(x[broken] for x in level[8:11]),
                  int(np.searchsorted(keep, level.born)))


def _sweep_levels(table: _PairTable, u_maxlen: int, inj=None):
    """Yield the ``_Level`` of each word length L = 1..u_maxlen, for each pair
    in increasing L; with ``inj``, the last level holds only the copies that
    ``_level_witnesses`` reads (``_next_level``).

    The pairs start in one pass.  Where a pass's next level would hold more
    than _SWEEP_NODES nodes by ``table.bound``, it splits into passes of
    consecutive pairs whose next levels hold at most that many, or of one
    pair, each going on from the level reached.
    """
    n = len(table.nv)
    none = np.zeros(0, np.int32)
    start = _Level(0, np.zeros(0, np.intp), np.zeros(0, np.int8), none, none, np.zeros(0, table.pw.dtype), none,
                   np.zeros(0, bool), np.zeros(0, np.intp), none, none, 0)
    passes = [(np.arange(n), start)]
    while passes:
        group, level = passes.pop()
        while level.L < u_maxlen:
            sizes = table.bound[group, level.L + 1]
            if len(group) > 1 and sizes.sum() > _SWEEP_NODES:
                parts, total = [], 0
                for p, size in zip(group.tolist(), sizes.tolist()):
                    if parts and total + size <= _SWEEP_NODES:
                        parts[-1].append(p)
                        total += size
                    else:
                        parts.append([p])
                        total = size
                passes += [(np.array(part), _select(level, part, n)) for part in reversed(parts)]
                break
            level = _next_level(table, level, group, inj if level.L + 1 == u_maxlen else None)
            yield level


def _w_hits(table: _PairTable, x: np.ndarray, p: np.ndarray, room: np.ndarray) -> np.ndarray:
    """The occurrences of pair p's w in the image of code x, at the offsets
    0..room from its end: ``table.window`` offsets a step off the window
    table, or one a step where the pass has none."""
    hits = np.zeros(len(x), np.int64)
    step = max(table.window, 1)
    chunks = (int(room.max(initial=-1)) + step) // step
    if table.cells is None:
        for o in range(chunks):
            hits += (x % table.kw[p] == table.w[p]) & (room >= o)
            x = x // table.k
        return hits
    # each chunk's cell less its window's code: the row of r = the offsets
    # left in the image, at most ``window``
    rows = room + 1 - step * np.arange(chunks)[:, None]
    base = table.wbase[p] + np.minimum(np.maximum(rows, 0), step) * table.wmod
    for c in range(chunks):
        hits += table.cells[base[c] + (x % table.wmod).astype(np.intp, copy=False)]
        x = x // table.pw[step]
    return hits


def _level_witnesses(table: _PairTable, inj, levels: list, alphabet: W.Alphabet, u_maxlen: int):
    """Yield (pair, witness) for each violation of ``levels``, consecutive
    levels of one pass: level by level, by pair, word, then broken, failed,
    injectivity; the preimage ones end their level, by size and then first
    node.

    ``_next_level`` keeps a pair's nodes of one size and word in colex order
    on S, and its broken entries of one word by last site, then largest S
    first; each kind follows that order, and names an equal image by its
    first node.  The first level groups only the nodes whose images a birth
    or a flag makes new (module notes); a later one was built before its
    parent's flags were set, and groups all its nodes, which finds the same
    violations.  Then ``recheck`` of the last level flags the nodes of each
    image that fails its bound or has a collision, for the next level's
    copies.
    """
    # the nodes before old are the first level's copies; every later one is
    # a birth or a node of a later level, and new
    k, top, old, many = table.k, levels[-1].L, levels[0].born, len(levels) > 1
    columns = (lv[1:11] for lv in levels)
    pair, m, word, sub, img, failed, recheck, bpair, bword, bsub = (
        map(np.concatenate, zip(*columns)) if many else next(columns))
    depth = np.repeat(np.arange(len(levels)), [len(lv.pair) for lv in levels])  # each node's level
    lengths = np.array([lv.L for lv in levels])

    def sites(bits: int) -> list:
        return [s for s in range(bits.bit_length()) if bits >> s & 1]

    # the new nodes, the copies that a birth can join and the flagged
    # copies: one sort of their packed keys (level, pair, m, image, u) brings
    # equal images of one size together, and each run of equal keys is a
    # collision of one u, named by its first node
    keep, p = inj[pair], pair[:old]
    keep[:old] &= recheck[:old] | (img[:old] % table.kw[p] == table.w[p])
    node = np.flatnonzero(keep)
    key = (depth[node] * len(table.nv) + pair[node] if many else pair[node]).astype(table.pw.dtype)
    for radix, low in ((u_maxlen + 1, m), (table.pw[-1], img), (k**top, word)):
        key *= radix
        key += low[node]
    # on int64 keys with room to spare, the node rides in the low bits
    spare = len(pair).bit_length()
    if key.dtype == np.int64 and _key_bound(table, u_maxlen, len(levels), top) << spare < 1 << 63:
        key <<= spare
        key |= node
        key.sort()
        node = key & (1 << spare) - 1
        key >>= spare
    else:
        order = np.argsort(key)
        key, node = key[order], node[order]
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    twin = first = np.zeros(0, np.int64)
    if len(start) < len(key):
        first = np.repeat(np.minimum.reduceat(node, start), np.diff(start, append=len(key)))
        twin = np.flatnonzero(node != first)
    # preimage: the images of one size and their counts, where a new node or
    # a flag makes them new; an image met once passes when |w| >= |v| and its
    # node has no failed site, as that node holds w at the m places of its
    # sites.  No flag is set when no node is grouped.  Any node of an image
    # stands for it: its nodes share the pair, m and the image, and without
    # a new node they share their flags, as they copy the nodes of one image
    # (a reduceat per image costs more than the rest of the check)
    key //= k**top
    edge = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True])))
    start, count = edge[:-1], np.diff(edge)
    bad = np.zeros(0, np.int64)
    if len(key):
        lead = node[start]
        new = np.concatenate(([0], np.cumsum(node >= old)))
        suspect = (new[edge[1:]] > new[start]) | recheck[lead]
        suspect &= (count > 1) | (table.shift[pair[lead]] < 0) | (failed[lead] != 0)
        recheck[:] = False
        suspect = np.flatnonzero(suspect)
        count, lead = count[suspect], lead[suspect]
        p = pair[lead]
        size = lengths[depth[lead]] + m[lead] * table.shift[p]
        # the overlapping occurrences of w in the image
        bound = table.comb[_w_hits(table, img[lead], p, size - table.nw[p]), m[lead]]
        bad = np.flatnonzero(count > bound)
        if len(bad) or len(twin):
            group = np.repeat(np.arange(len(start)), np.diff(edge))
            flag = np.zeros(len(start), bool)
            flag[suspect[bad]] = True
            flag[group[twin]] = True
            recheck[node[flag[group]]] = True
    if many:
        levels[-1].recheck[:] = recheck[len(pair) - len(levels[-1].pair):]
    twin, first = node[twin], first[twin]
    # rows (level, pair, word, kind, m, node, other): broken entries, failed
    # sites (other = the site), injectivity (other = the first node)
    rows = []
    for s in range(top if failed.any() else 0):
        hit = np.flatnonzero(failed >> s & 1)
        rows.append((depth[hit], pair[hit], word[hit], np.ones_like(hit), m[hit], hit, np.full_like(hit, s)))
    if len(twin):
        rows.append((depth[twin], pair[twin], word[twin], np.full_like(twin, 2), m[twin], twin, first))
    if len(bpair):
        none = np.zeros(len(bpair), np.int64)
        rows.append((np.repeat(np.arange(len(levels)), [len(lv.bpair) for lv in levels]), bpair, bword, none, none,
                     np.arange(len(none)), none))
    found = [[] for _ in levels]  # each level's witnesses, in order
    rows = np.concatenate([np.stack(r) for r in rows], axis=1) if rows else np.zeros((7, 0), np.int64)
    for g, p, j, kind, _, i, other in rows[:, np.lexsort(rows[::-1])].T.tolist() if len(rows[0]) else ():
        u = W._spell(j, int(lengths[g]), alphabet)
        if kind == 0:
            witness = {"lemma": "broken-step", "u": u, "S": sites(int(bsub[i]))}
        elif kind == 1:
            lemma = "persistence" if sub[i] >> other & 1 else "survival"
            witness = {"lemma": lemma, "u": u, "S": sites(int(sub[i])), "m": other}
        else:
            witness = {"lemma": "injectivity", "u": u, "S": sites(int(sub[i])), "S'": sites(int(sub[other]))}
        found[g].append((p, witness))
    if len(bad):
        # by level, pair, size and then the image's first node
        ahead, first_node = lead[bad], np.minimum.reduceat(node, start)[suspect[bad]]
        for i in bad[np.lexsort((first_node, m[ahead], pair[ahead], depth[ahead]))].tolist():
            n = lead[i]
            found[depth[n]].append((int(pair[n]), {
                "lemma": "preimage", "u'": W._spell(int(img[n]), int(size[i]), alphabet), "m": int(m[n]),
                "count": int(count[i]), "bound": int(bound[i])}))
    for witnesses in found:
        yield from witnesses


def _key_bound(table: _PairTable, u_maxlen: int, levels: int, top: int) -> int:
    """A bound on the packed keys (level, pair, m, image, u) of ``levels``
    levels up to level ``top`` (``_level_witnesses``)."""
    return levels * len(table.nv) * (u_maxlen + 1) * int(table.pw[-1]) * table.k**top


def sweep(pairs, u_maxlen: int, alphabet: W.Alphabet) -> tuple[list, int]:
    """The witnesses of each (v, w, check_inj) of ``pairs`` over every
    (u, S), |u| <= u_maxlen, as one list per pair, and the nodes visited.

    Witnesses come by level, word, then broken, failed, injectivity; the
    preimage ones end the level.  Within a word and a kind they follow |S|,
    then colex order on S, the numeric order of its bitmask; broken entries
    go by their last site, then largest S first.  Preimage witnesses follow
    |S| and then the first node of the image.
    """
    k = len(alphabet.symbols)
    # a v longer than u_maxlen occurs nowhere: its pair has no node
    live = [i for i, (v, _, _) in enumerate(pairs) if len(v) <= u_maxlen]
    found = [[] for _ in pairs]
    visited = 0
    for batch in _passes([pairs[i] for i in live], u_maxlen, k):
        ids = [live[i] for i in batch]
        table = _pair_table([pairs[i][:2] for i in ids], u_maxlen, alphabet)
        inj = np.array([pairs[i][2] for i in ids], dtype=bool)
        # a level's checks wait for the next level's while the levels hold at
        # most _SWEEP_NODES nodes by the bound and their packed keys fit; the
        # last level keeps only the copies that its parents' flags and failed
        # sites name, so its parents are checked before it is built
        bound, pending, held = table.bound.sum(axis=0), [], 0
        for level in _sweep_levels(table, u_maxlen, inj):
            visited += len(level.pair) + level.skipped + len(level.bpair)
            pending.append(level)
            held += len(level.pair) + len(level.bpair)
            L = level.L + 1
            if L >= u_maxlen or held + bound[L] > _SWEEP_NODES or (
                    table.pw.dtype != object and _key_bound(table, u_maxlen, len(pending) + 1, L) > 1 << 62):
                for p, witness in _level_witnesses(table, inj, pending, alphabet, u_maxlen):
                    found[ids[p]].append(witness)
                pending, held = [], 0
            del level  # before the next level is built
    return found, visited
