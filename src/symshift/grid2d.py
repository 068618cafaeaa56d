"""Desk-scale two-dimensional support: finite patterns, sparse replacement,
and strip transfer-matrix approximations of the measure of maximal entropy.

The plane shift is approximated by strips of finite width with vertical
periodicity: legal columns become the alphabet of a one-step 1D shift whose
Parry measure assigns cylinder probabilities to finite patterns.  The
same-shape measure inequality (if every context of v also admits w then
mu(v) <= mu(w)) is checked on those strip approximations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import mme as M
from . import words as W
from .errors import (
    InvalidPositionError,
    InvalidWordError,
    ReduciblePresentationError,
    ResourceLimitError,
    SpecFormatError,
)

# Strip size caps, checked before anything is allocated.  strip_mme lists
# the |A|^W candidate columns of W symbols each as Python tuples, then as a
# numpy array: at most 16 * 2^16 cells, which admits a binary strip up to
# W = 16 and a ternary one up to W = 10.  The n legal columns then cost
# several n x n arrays (the boolean ``bad``, the float adjacency, the Parry
# matrix), 8 n^2 bytes each for the floats: at most ``words._MATRIX_ENTRIES``
# column pairs, which admits hard square at W = 16 (2,207 columns).
_MAX_STRIP_CELLS = 16 << 16


@dataclass(frozen=True)
class Pattern2D:
    """Finite assignment of symbols to cells of the plane.

    ``cells`` is stored in canonical row-major order (by y, then x), which
    makes equality and hashing positional, not presentational.
    """

    cells: tuple[tuple[tuple[int, int], str], ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.cells, key=lambda kv: (kv[0][1], kv[0][0])))
        if len({c for c, _ in ordered}) != len(ordered):
            raise InvalidWordError("pattern assigns a cell twice")
        object.__setattr__(self, "cells", ordered)

    @property
    def shape(self) -> frozenset:
        return frozenset(c for c, _ in self.cells)

    @property
    def mapping(self) -> dict:
        return dict(self.cells)

    def bounding_box(self) -> tuple[int, int, int, int]:
        """(xmin, ymin, xmax, ymax); raises on the empty pattern."""
        if not self.cells:
            raise InvalidWordError("empty pattern has no bounding box")
        xs = [x for (x, _), _ in self.cells]
        ys = [y for (_, y), _ in self.cells]
        return min(xs), min(ys), max(xs), max(ys)

    def translate(self, dx: int, dy: int) -> "Pattern2D":
        return Pattern2D(tuple(((x + dx, y + dy), s) for (x, y), s in self.cells))

    def normalized(self) -> "Pattern2D":
        """Translate so the bounding box corner sits at the origin."""
        xmin, ymin, _, _ = self.bounding_box()
        return self.translate(-xmin, -ymin)


def pattern_from_dict(data: dict) -> Pattern2D:
    if not isinstance(data, dict) or set(data) != {"cells"} or not isinstance(data["cells"], list):
        raise SpecFormatError("pattern must be an object with a single 'cells' list")
    cells = []
    for entry in data["cells"]:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise SpecFormatError(f"pattern cell {entry!r} is not [x, y, symbol]")
        x, y, s = entry
        # type() rather than isinstance: JSON true/false load as bool, an int subclass
        if type(x) is not int or type(y) is not int or not isinstance(s, str):
            raise SpecFormatError(f"pattern cell {entry!r} has wrong field types")
        cells.append(((x, y), s))
    return Pattern2D(tuple(cells))


@dataclass(frozen=True)
class Grid2dSpec:
    """Plane SFT given by an alphabet and finitely many forbidden patterns."""

    alphabet: W.Alphabet
    forbidden: tuple[Pattern2D, ...]

    def __post_init__(self):
        symbols = set(self.alphabet.symbols)
        for p in self.forbidden:
            if not p.cells:
                raise SpecFormatError("forbidden patterns must be nonempty")
            for _, s in p.cells:
                if s not in symbols:
                    raise SpecFormatError(f"forbidden pattern symbol {s!r} not in alphabet")

    @property
    def interaction_range(self) -> int:
        r = 0
        for p in self.forbidden:
            xmin, ymin, xmax, ymax = p.bounding_box()
            r = max(r, xmax - xmin, ymax - ymin)
        return r


def grid_spec_from_dict(data: dict) -> Grid2dSpec:
    keys = set(data)
    if keys != {"type", "alphabet", "forbidden"}:
        raise SpecFormatError(f"grid2d spec has unexpected keys {sorted(keys - {'type'})}")
    if not isinstance(data["alphabet"], list) or not isinstance(data["forbidden"], list):
        raise SpecFormatError("grid2d 'alphabet' and 'forbidden' must be lists")
    alphabet = W.Alphabet(tuple(data["alphabet"]))
    forbidden = tuple(pattern_from_dict(p) for p in data["forbidden"])
    return Grid2dSpec(alphabet=alphabet, forbidden=forbidden)


def hard_square() -> Grid2dSpec:
    """Binary plane shift forbidding horizontally or vertically adjacent 1s."""
    horiz = Pattern2D((((0, 0), "1"), ((1, 0), "1")))
    vert = Pattern2D((((0, 0), "1"), ((0, 1), "1")))
    return Grid2dSpec(alphabet=W.BINARY, forbidden=(horiz, vert))


# ---------------------------------------------------------------------------
# Sparse replacement

def _translated_shape(shape, g):
    gx, gy = g
    return {(x + gx, y + gy) for x, y in shape}


def f_sparse_check(sites, F) -> bool:
    """Pairwise disjointness of the F-translates at the given sites."""
    F = set(F)
    sites = list(sites)
    for i, g in enumerate(sites):
        tg = _translated_shape(F, g)
        for h in sites[i + 1 :]:
            if tg & _translated_shape(F, h):
                return False
    return True


def occurrences_2d(u: Pattern2D, v: Pattern2D) -> list[tuple[int, int]]:
    """Translates g with the shifted copy of v appearing inside u."""
    if not v.cells:
        raise InvalidWordError("occurrence pattern must be nonempty")
    um = u.mapping
    vc = v.cells
    (x0, y0), s0 = vc[0]
    out = []
    for (x, y), s in u.cells:
        if s != s0:
            continue
        g = (x - x0, y - y0)
        if all(um.get((cx + g[0], cy + g[1])) == cs for (cx, cy), cs in vc):
            out.append(g)
    return sorted(out)


def replace_sparse(u: Pattern2D, v: Pattern2D, w: Pattern2D, sites) -> Pattern2D:
    """Simultaneously replace the copies of v at the given F-sparse sites by w."""
    if v.shape != w.shape:
        raise InvalidWordError("replacement patterns must share a shape")
    sites = sorted(sites)
    occ = set(occurrences_2d(u, v))
    for g in sites:
        if g not in occ:
            raise InvalidPositionError(f"site {g} is not an occurrence of the pattern")
    if not f_sparse_check(sites, v.shape):
        raise InvalidPositionError("replacement sites are not F-sparse")
    out = u.mapping
    for gx, gy in sites:
        for (x, y), s in w.cells:
            out[(x + gx, y + gy)] = s
    return Pattern2D(tuple(out.items()))


# ---------------------------------------------------------------------------
# Strip transfer-matrix MME approximation

def _check_two_column(spec: Grid2dSpec):
    """Split forbidden patterns into single-column and two-column families."""
    singles, pairs = [], []
    for p in spec.forbidden:
        q = p.normalized()
        xmin, _, xmax, _ = q.bounding_box()
        if xmax - xmin == 0:
            singles.append(q)
        elif xmax - xmin == 1:
            pairs.append(q)
        else:
            raise ResourceLimitError(
                "strip transfer matrix supports forbidden patterns spanning at most two columns"
            )
    return singles, pairs


def _offsets(p: Pattern2D, width: int, torus: bool) -> range:
    """Vertical offsets at which a normalized pattern fits a width-W column."""
    height = p.bounding_box()[3] + 1
    return range(width) if torus else range(width - height + 1)


def _matches(C: np.ndarray, cells, offsets) -> np.ndarray:
    """(offset x column) table of whether each row of C carries every cell
    ((x, y), s) at height y + offset, wrapping around the column height.
    ``offsets`` may be empty: a pattern taller than a free-boundary strip."""
    rows = np.asarray(offsets, dtype=np.intp)
    out = np.ones((len(rows), len(C)), dtype=bool)
    for (_, y), s in cells:
        out &= (C[:, (rows + y) % C.shape[1]] == s).T
    return out


@dataclass(frozen=True)
class StripMME:
    """Parry model of the width-W column shift."""

    columns: np.ndarray  # one row of symbols per legal column
    stationary: np.ndarray
    transition: np.ndarray


def strip_mme(spec: Grid2dSpec, width: int, torus: bool = True) -> StripMME:
    if width < 1:
        raise InvalidWordError(f"strip width must be positive, got {width}")
    # past _MAX_STRIP_CELLS.bit_length() rows two or more symbols are over the
    # cap, so the exponent stops there and the power stays small
    k = len(spec.alphabet.symbols)
    if k ** min(width, _MAX_STRIP_CELLS.bit_length()) * width > _MAX_STRIP_CELLS:
        raise ResourceLimitError(
            f"strip width {width} over {k} symbols exceeds {_MAX_STRIP_CELLS} column cells"
        )
    singles, pairs = _check_two_column(spec)
    C = np.array(list(itertools.product(spec.alphabet.symbols, repeat=width)))
    for p in singles:
        C = C[~_matches(C, p.cells, _offsets(p, width, torus)).any(axis=0)]
    if not len(C):
        raise ReduciblePresentationError("no legal columns at this width")
    n = len(C)
    if n * n > W._MATRIX_ENTRIES:
        raise ResourceLimitError(f"{n} legal columns exceed {W._MATRIX_ENTRIES} column pairs")
    bad = np.zeros((n, n), dtype=bool)
    for p in pairs:
        offsets = _offsets(p, width, torus)
        left, right = (
            _matches(C, [cell for cell in p.cells if cell[0][0] == x], offsets) for x in (0, 1)
        )
        bad |= left.T @ right  # some offset matches both halves
    _, stationary, P = M.parry_chain((~bad).astype(float))
    return StripMME(columns=C, stationary=stationary, transition=P)


def _check_patterns(spec: Grid2dSpec, *patterns: Pattern2D) -> None:
    """Raise InvalidWordError unless each pattern is nonempty and over the
    spec's alphabet, as ``words._check_over`` does for 1D words."""
    symbols = set(spec.alphabet.symbols)
    for p in patterns:
        if not p.cells:
            raise InvalidWordError("pattern must be nonempty")
        for _, s in p.cells:
            if s not in symbols:
                raise InvalidWordError(f"symbol {s!r} not in alphabet")


def _strip_window(spec: Grid2dSpec, width: int, pattern: Pattern2D) -> tuple[Pattern2D, int]:
    """The normalized pattern and its row offset inside a width-W strip."""
    _check_patterns(spec, pattern)
    r = spec.interaction_range
    p = pattern.normalized()
    ymax = p.bounding_box()[3]
    if ymax + 1 + 2 * r > width:
        raise InvalidWordError(
            f"pattern of height {ymax + 1} does not fit the interior of a width-{width} strip"
        )
    return p, (width - (ymax + 1)) // 2  # centered; irrelevant on the torus


def _strip_mu(model: StripMME, p: Pattern2D, yoff: int) -> float:
    """Cylinder probability of a normalized pattern at row offset yoff."""

    def mask(x: int) -> np.ndarray:
        return _matches(model.columns, [cell for cell in p.cells if cell[0][0] == x], [yoff])[0]

    vec = model.stationary * mask(0)
    for x in range(1, p.bounding_box()[2] + 1):
        vec = (vec @ model.transition) * mask(x)
    return float(vec.sum())


def strip_mme_mu(spec: Grid2dSpec, width: int, pattern: Pattern2D, torus: bool = True) -> float:
    """Approximate cylinder probability of the pattern on a width-W strip."""
    p, yoff = _strip_window(spec, width, pattern)
    return _strip_mu(strip_mme(spec, width, torus), p, yoff)


# ---------------------------------------------------------------------------
# Windowed replaceability and the same-shape measure inequality

_HALO_BLOCK = 1 << 14  # halo assignments per block of the sweep, bounding its memory


def halo_cells(F, L: int) -> list:
    F = set(F)
    out = set()
    for x, y in F:
        for dx in range(-L, L + 1):
            for dy in range(-L, L + 1):
                c = (x + dx, y + dy)
                if c not in F:
                    out.add(c)
    return sorted(out, key=lambda c: (c[1], c[0]))


def replaceability_windowed(spec: Grid2dSpec, v: Pattern2D, w: Pattern2D, L: int) -> bool:
    """Sufficient check for extender containment: every locally-legal L-halo
    around v stays legal after swapping in w."""
    _check_patterns(spec, v, w)
    if v.shape != w.shape:
        raise InvalidWordError("patterns must share a shape")
    if L < spec.interaction_range:
        raise InvalidWordError("window must cover the interaction range")
    k = len(spec.alphabet.symbols)

    def within(cells: int) -> bool:
        # a binary halo has at most 22 cells; the cap bounds a one-symbol
        # alphabet too, whose 1^cells never passes the budget, and keeps the
        # power small
        return cells < W._SWEEP_BUDGET.bit_length() and k**cells <= W._SWEEP_BUDGET

    # (2L + 1)^2 - |v| <= |halo|, so an over-budget halo is refused before it is listed
    if not (within((2 * L + 1) ** 2 - len(v.cells)) and within(len(halo := halo_cells(v.shape, L)))):
        raise ResourceLimitError(
            f"halo sweep at L = {L} exceeds the budget of {W._SWEEP_BUDGET} assignments "
            f"or {W._SWEEP_BUDGET.bit_length() - 1} cells"
        )
    row = {c: i for i, c in enumerate(halo)}  # the halo as one tall column, for _matches

    def placements(fill: dict) -> set:
        """The forbidden patterns placed wholly inside v's shape plus the halo
        that agree with ``fill`` on the shape, each as the halo cells it reads."""
        out = set()
        for p in spec.forbidden:
            (x0, y0), _ = p.cells[0]
            for cx, cy in [*row, *fill]:  # where the first cell lands
                cells = [((x + cx - x0, y + cy - y0), s) for (x, y), s in p.cells]
                if all(c in row or fill.get(c) == s for c, s in cells):
                    out.add(tuple(((0, row[c]), s) for c, s in cells if c in row))
        return out

    on_v, on_w = placements(v.mapping), placements(w.mapping)
    symbols, count = np.array(spec.alphabet.symbols), k ** len(halo)
    for start in range(0, count, _HALO_BLOCK):
        # row r spells r in base |A|, as itertools.product orders them
        r = np.arange(start, min(start + _HALO_BLOCK, count))[:, None]
        C = symbols[r // k ** np.arange(len(halo))[::-1] % k]
        hit = {cells: _matches(C, cells, [0])[0] for cells in on_v | on_w}
        v_bad, w_bad = (np.any([hit[cells] for cells in on], axis=0) for on in (on_v, on_w))
        if np.any(w_bad & ~v_bad):
            return False
    return True


def check_gtheorem(spec: Grid2dSpec, v: Pattern2D, w: Pattern2D, widths, tol: float) -> dict:
    """Same-shape inequality on strips: certified replaceability implies
    mu_W(v) <= mu_W(w) at every width."""
    record = {
        "name": "gtheorem-strips",
        "spec": "grid2d",
        "params": {"widths": list(widths), "tol": tol},
        "tolerance": tol,
        "residuals": {},
        "series": {"strip": []},
        "witnesses": [],
        "status": "pass",
        "reason": "",
    }
    # before any skip: a bad pattern is an error, not a check that did not apply
    _check_patterns(spec, v, w)
    if not widths:
        record["status"] = "skipped"
        record["reason"] = "no strip widths given"
        return record
    try:
        certified = replaceability_windowed(spec, v, w, spec.interaction_range)
    except InvalidWordError as exc:
        record["status"] = "skipped"
        record["reason"] = str(exc)
        return record
    if not certified:
        record["status"] = "skipped"
        record["reason"] = "replaceability precondition not certified at this window"
        return record
    worst = -float("inf")
    for width in widths:
        # one strip model per width serves v and w; v's fit is checked before
        # the model is built, as in strip_mme_mu
        v_at = _strip_window(spec, width, v)
        model = strip_mme(spec, width)
        mu_v = _strip_mu(model, *v_at)
        mu_w = _strip_mu(model, *_strip_window(spec, width, w))
        record["series"]["strip"].append([width, mu_v, mu_w])
        # negated comparisons, so that a NaN measure stays the worst and fails
        if not (mu_v - mu_w <= worst or np.isnan(worst)):
            worst = mu_v - mu_w
        if not mu_v <= mu_w + tol:
            record["status"] = "fail"
            record["witnesses"].append({"width": width, "mu_v": mu_v, "mu_w": mu_w})
    record["residuals"]["max(mu_v - mu_w)"] = worst
    return record
