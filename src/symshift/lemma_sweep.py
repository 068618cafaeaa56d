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
level before (``_Level.recheck``).
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
    as has pw, the powers |A|^e up to the longest image; uv and ukv are v
    and kv for the int32 word codes, and last is v's last letter.
    bound[p, L] bounds the nodes of pair p in level L (``_level_bounds``),
    and comb[n, r] is C(n, r), capped far above any count.
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
    uv: np.ndarray
    ukv: np.ndarray
    pw: np.ndarray
    bound: np.ndarray
    comb: np.ndarray


class _Level(NamedTuple):
    """Level L of ``_sweep_levels``: its nodes, then its broken entries.

    Node i is the (u, S) of pair pair[i] with |S| = m[i], u of code word[i]
    and length L, S the sites of the bits of sub[i], the image of code
    img[i] and length L + m[i] (|w| - |v|), and the failed sites of the
    bits of failed[i]; recheck[i] flags a node whose image group
    ``_level_witnesses`` must group again.  Broken entry j is the
    (u, S[:step]) of code bword[j] and bits bsub[j] of pair bpair[j].  The
    nodes from born on are the births, the ones before are copies.
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
    nv = np.array([len(v) for v, _ in pairs], dtype=np.int32)
    nw = np.array([len(w) for _, w in pairs], dtype=np.int32)
    codes = [W._code(v, alphabet) for v, _ in pairs]
    kv = [k ** len(v) for v, _ in pairs]
    bounds = {}  # pairs that share v share its bounds
    for v, _ in pairs:
        if v not in bounds:
            bounds[v] = _level_bounds(v, alphabet, u_maxlen)
    return _PairTable(
        k=k,
        nv=nv,
        nw=nw,
        shift=nw - nv,
        last=np.array([x % k for x in codes], dtype=np.int32),
        v=np.array(codes, dtype=dtype),
        w=np.array([W._code(w, alphabet) for _, w in pairs], dtype=dtype),
        kv=np.array(kv, dtype=dtype),
        kw=np.array([k ** len(w) for _, w in pairs], dtype=dtype),
        # |v| <= u_maxlen, and |A|^u_maxlen is within the budget
        uv=np.array(codes, np.int32),
        ukv=np.array(kv, np.int32),
        pw=np.array([k**e for e in range(longest + 1)], dtype=dtype),
        bound=np.array([bounds[v] for v, _ in pairs], np.int64),
        comb=np.array([[min(math.comb(n, r), 1 << 62) for r in range(u_maxlen + 1)] for n in range(longest + 1)]),
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


def _failed_sites(table: _PairTable, level: _Level, nodes, lo, hi) -> np.ndarray:
    """The failed sites, as bits, of the ``nodes`` of ``level`` among their
    sites s, lo <= s < hi <= L - |v|, each node read at its own s only.

    Site s of a node lies at s + (the sites of S left of s)(|w| - |v|) in its
    image: it fails if that window does not hold w (s in S, persistence) or
    v (s not in S, survival), or runs out of the image.
    """
    L, pair, m, word, sub, img = level[:6]
    row, s = _ranges(np.maximum(hi - lo, 0))  # the (node, s) pairs
    s += lo[row]
    p = pair[nodes[row]]
    site = word[nodes[row]] // table.pw[L - s - table.nv[p]] % table.ukv[p] == table.uv[p]
    row, s, p = row[site], s[site], p[site]
    if not len(row):
        return np.zeros(len(nodes), np.int32)
    i = nodes[row]
    own = (sub[i] >> s & 1).astype(bool)
    at = s + _popcount(sub[i] & (1 << s) - 1) * table.shift[p]
    room = L + m[i] * table.shift[p] - at - np.where(own, table.nw[p], table.nv[p])
    fits = (at >= 0) & (room >= 0)
    window = img[i] // table.pw[np.where(fits, room, 0)] % np.where(own, table.kw[p], table.kv[p])
    bad = ~fits | (window != np.where(own, table.w[p], table.v[p]))
    # distinct bits of one node: their sum is their union
    return np.bincount(row[bad], weights=1 << s[bad], minlength=len(nodes)).astype(np.int32)


def _spread(k: int, old: np.ndarray, extra: np.ndarray, letters: bool = False) -> np.ndarray:
    """``old`` once per letter c, then ``extra``; with ``letters``, the code
    x becomes x|A| + c in the copy of letter c."""
    out = np.concatenate([old] * k + [extra])
    if letters:
        copies = out[: k * len(old)].reshape(k, len(old))
        copies *= k
        copies += np.arange(k, dtype=np.int8)[:, None]
    return out


def _next_level(table: _PairTable, level: _Level, pairs: np.ndarray) -> _Level:
    """Level L + 1 of the lemma sweep of ``pairs`` from their level L.

    Level L + 1 starts with the copies of level L, one per letter c,
    letter-major: word code i becomes i|A| + c and the image code x becomes
    x|A| + c, with the parent's verdicts (module notes); with |w| < |v| a
    copy's failed sites are read again.  The other work falls on the words
    that v ends, at t = L + 1 - |v|: t survives in the image of S exactly
    when that image ends with v.  If it does not, t fails for S and S + {t}
    is broken; if it does, the birth S + {t} joins with that v spliced to w,
    image x // |A|^|v| |A|^|w| + code(w).  Then the birth {t} joins in every
    word that v ends.  Only the sites whose windows can reach t are checked
    on a birth: those that overlap t, or every site when |w| < |v|.  Births
    follow the copies, new broken entries the old ones, largest S first; the
    level is written once, into arrays of its size.
    """
    k, dtype = table.k, table.pw.dtype
    nv, shift, last = table.nv, table.shift, table.last
    L, pair, m, word, sub, img, failed, recheck, bpair, bword, bsub, _ = level
    L += 1
    # the nodes that v's last letter extends to a word that v ends, at
    # t = L - |v|: u ends with v less that letter; and whether their images
    # end with it too, so that image x|A| + last ends with v
    head = np.where(L >= nv, table.uv // k, -1)
    at = np.flatnonzero(word % (table.ukv // k)[pair] == head[pair])
    p = pair[at]
    kv1 = (table.kv // k)[p]  # |A|^(|v| - 1)
    ends = (L + m[at] * shift[p] >= nv[p]) & (img[at] % kv1 == (table.v // k)[p])
    # S + {t}, with that v spliced to w, then {t} in each of the |A|^t
    # words that v ends: word j |A|^|v| + code(v)
    grow, gp = at[ends], p[ends]
    count = np.where(L >= nv[pairs], k ** np.maximum(L - nv[pairs], 0), 0)
    lone, j = _ranges(count)
    lone, j = pairs[lone], j.astype(np.int32)
    new = np.concatenate([gp, lone])
    t, zeros = (L - nv)[new], np.zeros(len(lone), np.int32)
    extra = (
        new,
        np.concatenate([m[grow] + 1, np.ones(len(lone), np.int8)]),
        np.concatenate([word[grow] * k + last[gp], j * table.ukv[lone] + table.uv[lone]]),
        np.concatenate([sub[grow], zeros]) | 1 << t,
        np.concatenate([img[grow] // kv1[ends], j.astype(dtype)]) * table.kw[new] + table.w[new],
    )
    # only the sites whose windows can reach t are checked on a birth: those
    # that overlap t, or every site when |w| < |v|
    lo = np.where(shift >= 0, np.maximum(L - 2 * nv + 1, 0), 0)[new]
    kept = np.concatenate([failed[grow], zeros]) & (1 << lo) - 1
    old = k * len(word)
    level = _Level(L, *(
        _spread(k, column, added, letters)
        for column, added, letters in zip(level[1:6], extra, (False, False, True, False, True))
    ), _spread(k, failed, kept), _spread(k, recheck, np.zeros(len(new), bool)), bpair, bword, bsub, old)
    del extra  # freed before the site checks
    level.failed[old:] |= _failed_sites(table, level, np.arange(old, len(level.word)), lo, t)
    # with |w| < |v|, a copy's window that ran out of its parent's image
    # failed there and may fit in the copy's
    again = np.flatnonzero((failed != 0) & (shift[pair] < 0)) if failed.any() else ()
    if len(again):
        again = (again + len(word) * np.arange(k)[:, None]).ravel()
        level.failed[again] = _failed_sites(table, level, again, np.zeros_like(again), L - nv[level.pair[again]])
    # the nodes where t fails: S + {t} is broken, and t fails in their copies
    # of v's last letter
    lost, lp = at[~ends], p[~ends]
    if len(lost) or len(bpair):
        if len(lost) > 1:
            order = np.argsort(-m[lost], kind="stable")
            lost, lp = lost[order], lp[order]
        bit = 1 << L - nv[lp]
        level.failed[last[lp] * len(word) + lost] |= bit
        level = level._replace(
            bpair=_spread(k, bpair, lp),
            bword=_spread(k, bword, word[lost] * k + last[lp], letters=True),
            bsub=_spread(k, bsub, sub[lost] | bit),
        )
    return level


def _select(level: _Level, pairs, n_pairs: int) -> _Level:
    """The nodes and broken entries of ``level`` that belong to ``pairs``."""
    member = np.zeros(n_pairs, bool)
    member[pairs] = True
    keep, broken = member[level.pair], member[level.bpair]
    return _Level(level.L, *(x[keep] for x in level[1:8]), *(x[broken] for x in level[8:11]),
                  int(np.count_nonzero(keep[: level.born])))


def _sweep_levels(table: _PairTable, u_maxlen: int):
    """Yield the ``_Level`` of each word length L = 1..u_maxlen, for each pair
    in increasing L.

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
            level = _next_level(table, level, group)
            yield level


def _level_witnesses(table: _PairTable, inj, level: _Level, alphabet: W.Alphabet, u_maxlen: int):
    """Yield (pair, witness) for each violation of ``level``: by pair, word,
    then broken, failed, injectivity; the preimage ones come last, by size
    and then first node.

    ``_next_level`` keeps a pair's nodes of one size and word in colex order
    on S, and its broken entries of one word by last site, then largest S
    first; each kind follows that order, and names an equal image by its
    first node.  Only the nodes whose images a birth or a flag makes new are
    grouped (module notes); then ``level.recheck`` flags the nodes of each
    image that fails its bound or has a collision, for the next level's
    copies.
    """
    k, L, old = table.k, level.L, level.born
    pair, m, word, sub, img, failed, recheck = level[1:8]

    def sites(bits: int) -> list:
        return [s for s in range(bits.bit_length()) if bits >> s & 1]

    # the births, the copies that a birth can join and the flagged copies:
    # one sort of their packed keys (pair, m, image, u) brings equal images
    # of one size together, and each run of equal keys is a collision of one
    # u, named by its first node
    keep, p = inj[pair], pair[:old]
    keep[:old] &= recheck[:old] | (img[:old] % table.kw[p] == table.w[p])
    node = np.flatnonzero(keep)
    key = pair[node].astype(table.pw.dtype)
    for radix, low in ((u_maxlen + 1, m), (table.pw[-1], img), (k**L, word)):
        key *= radix
        key += low[node]
    order = np.argsort(key)
    key, node = key[order], node[order]
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    twin = first = np.zeros(0, np.int64)
    if len(start) < len(key):
        first = np.repeat(np.minimum.reduceat(node, start), np.diff(start, append=len(key)))
        twin = np.flatnonzero(node != first)
    # preimage: the images of one size, their counts and first nodes, where a
    # birth or a flag makes them new; an image met once passes when
    # |w| >= |v| and its node has no failed site, as that node holds w at the
    # m places of its sites.  No flag is set when no node is grouped
    key //= k**L
    edge = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True])))
    start, count = edge[:-1], np.diff(edge)
    bad = np.zeros(0, np.int64)
    if len(key):
        lead = np.minimum.reduceat(node, start)
        suspect = (np.maximum.reduceat(node, start) >= old) | recheck[lead]
        suspect &= (count > 1) | (table.shift[pair[lead]] < 0) | (failed[lead] != 0)
        recheck[:] = False
        suspect = np.flatnonzero(suspect)
        count, lead = count[suspect], lead[suspect]
        p = pair[lead]
        size = L + m[lead] * table.shift[p]
        # the overlapping occurrences of w, read from the image's last letters on
        room, x, kw, w = size - table.nw[p], img[lead], table.kw[p], table.w[p]
        hits = np.zeros(len(lead), np.int64)
        for o in range(int(room.max(initial=-1)) + 1):
            hits += (x % kw == w) & (room >= o)
            x = x // k
        bound = table.comb[hits, m[lead]]
        bad = np.flatnonzero(count > bound)
        if len(bad) or len(twin):
            group = np.repeat(np.arange(len(start)), np.diff(edge))
            flag = np.zeros(len(start), bool)
            flag[suspect[bad]] = True
            flag[group[twin]] = True
            recheck[node[flag[group]]] = True
    twin, first = node[twin], first[twin]
    # rows (pair, word, kind, m, node, other): broken entries, failed sites
    # (other = the site), injectivity (other = the first node)
    rows = []
    for s in range(L if failed.any() else 0):
        hit = np.flatnonzero(failed >> s & 1)
        rows.append((pair[hit], word[hit], np.ones_like(hit), m[hit], hit, np.full_like(hit, s)))
    if len(twin):
        rows.append((pair[twin], word[twin], np.full_like(twin, 2), m[twin], twin, first))
    if len(level.bpair):
        none = np.zeros(len(level.bpair), np.int64)
        rows.append((level.bpair, level.bword, none, none, np.arange(len(none)), none))
    rows = np.concatenate([np.stack(r) for r in rows], axis=1) if rows else np.zeros((6, 0), np.int64)
    for p, j, kind, _, i, other in rows[:, np.lexsort(rows[::-1])].T.tolist() if len(rows[0]) else ():
        u = W._spell(j, L, alphabet)
        if kind == 0:
            yield p, {"lemma": "broken-step", "u": u, "S": sites(int(level.bsub[i]))}
        elif kind == 1:
            lemma = "persistence" if sub[i] >> other & 1 else "survival"
            yield p, {"lemma": lemma, "u": u, "S": sites(int(sub[i])), "m": other}
        else:
            yield p, {"lemma": "injectivity", "u": u, "S": sites(int(sub[i])), "S'": sites(int(sub[other]))}
    for i in bad[np.lexsort((lead[bad], m[lead[bad]], pair[lead[bad]]))].tolist() if len(bad) else ():
        n = lead[i]
        yield int(pair[n]), {"lemma": "preimage", "u'": W._spell(int(img[n]), int(size[i]), alphabet), "m": int(m[n]),
                             "count": int(count[i]), "bound": int(bound[i])}


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
        for level in _sweep_levels(table, u_maxlen):
            visited += len(level.pair) + len(level.bpair)
            for p, witness in _level_witnesses(table, inj, level, alphabet, u_maxlen):
                found[ids[p]].append(witness)
            del level  # before the next level is built
    return found, visited
