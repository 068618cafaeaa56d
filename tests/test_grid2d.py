import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from symshift import grid2d as G
from symshift import words as W
from symshift.errors import (
    InvalidPositionError,
    InvalidWordError,
    ReduciblePresentationError,
    ResourceLimitError,
    SpecFormatError,
)


def pattern_from_grid(rows: list[str]) -> G.Pattern2D:
    """Dense rectangle from strings, row y=0 first."""
    return G.Pattern2D(tuple(((x, y), s) for y, row in enumerate(rows) for x, s in enumerate(row)))


def locally_legal(spec: G.Grid2dSpec, assignment: dict) -> bool:
    """The plain pattern scan: no forbidden pattern lies wholly inside the
    assignment's domain.  The independent reference for the strips' columns
    and edges and for the halo sweep of ``replaceability_windowed``."""
    domain = set(assignment)
    for p in spec.forbidden:
        q = p.normalized()
        shape = q.shape
        xs = [x for x, _ in domain]
        ys = [y for _, y in domain]
        _, _, pxmax, pymax = q.bounding_box()
        for gx in range(min(xs), max(xs) - pxmax + 1):
            for gy in range(min(ys), max(ys) - pymax + 1):
                if all(
                    assignment.get((x + gx, y + gy)) == s
                    for (x, y), s in q.cells
                ):
                    if all((x + gx, y + gy) in domain for x, y in shape):
                        return False
    return True


def reference_replaceability(spec, v, w, L) -> bool:
    """The halo sweep as one reference scan per assignment and filling."""
    halo = G.halo_cells(v.shape, L)
    for combo in itertools.product(spec.alphabet.symbols, repeat=len(halo)):
        ctx = dict(zip(halo, combo))
        if locally_legal(spec, {**ctx, **v.mapping}) and not locally_legal(
            spec, {**ctx, **w.mapping}
        ):
            return False
    return True


def sparse_pattern(rows: list[str]) -> G.Pattern2D:
    """Like pattern_from_grid, with '.' for a cell outside the pattern."""
    return G.Pattern2D(tuple(
        ((x, y), s) for y, row in enumerate(rows) for x, s in enumerate(row) if s != "."
    ))


HS = G.hard_square()
ONE = G.Pattern2D((((0, 0), "1"),))
ZERO = G.Pattern2D((((0, 0), "0"),))
# three symbols, with one single-column and two two-column patterns
THREE = G.Grid2dSpec(
    W.Alphabet(("a", "b", "c")),
    (
        pattern_from_grid(["a", "a"]),
        pattern_from_grid(["bb"]),
        G.Pattern2D((((0, 0), "c"), ((1, 1), "a"))),
    ),
)

# c is in no forbidden pattern, so a -> c and b -> c always stay legal
TERNARY = G.Grid2dSpec(
    W.Alphabet(("a", "b", "c")), (pattern_from_grid(["aa"]), pattern_from_grid(["a", "b"]))
)


class TestPattern:
    def test_canonical_order(self):
        a = G.Pattern2D((((1, 0), "0"), ((0, 0), "1")))
        b = G.Pattern2D((((0, 0), "1"), ((1, 0), "0")))
        assert a == b

    def test_duplicate_cell_rejected(self):
        with pytest.raises(InvalidWordError):
            G.Pattern2D((((0, 0), "1"), ((0, 0), "0")))

    def test_json_round_trip(self):
        doc = {"cells": [[1, 1, "1"], [0, 0, "1"], [1, 0, "0"], [0, 1, "0"]]}
        assert G.pattern_from_dict(doc) == pattern_from_grid(["10", "01"])

    def test_bad_cell_entry(self):
        with pytest.raises(SpecFormatError):
            G.pattern_from_dict({"cells": [[0, 0]]})

    def test_normalized(self):
        p = G.Pattern2D((((3, 5), "1"),)).normalized()
        assert p.cells == (((0, 0), "1"),)


class TestSpec:
    def test_interaction_range(self):
        assert HS.interaction_range == 1

    def test_round_trip(self):
        doc = {
            "type": "grid2d",
            "alphabet": ["0", "1"],
            "forbidden": [
                {"cells": [[0, 0, "1"], [1, 0, "1"]]},
                {"cells": [[0, 1, "1"], [0, 0, "1"]]},
            ],
        }
        assert G.grid_spec_from_dict(doc) == HS

    def test_alien_symbol_rejected(self):
        with pytest.raises(SpecFormatError):
            G.Grid2dSpec(W.BINARY, (G.Pattern2D((((0, 0), "2"),)),))


class TestSparseReplacement:
    def test_f_sparse(self):
        row = {(0, 0), (1, 0)}
        assert G.f_sparse_check([(0, 0), (2, 0)], row)
        assert not G.f_sparse_check([(0, 0), (1, 0)], row)
        assert G.f_sparse_check([(5, 5)], row)

    def test_bounding_box_grid_is_sparse(self):
        F = {(0, 0), (1, 0), (1, 1)}
        sites = [(2 * a, 2 * b) for a in range(-2, 3) for b in range(-2, 3)]
        assert G.f_sparse_check(sites, F)

    def test_occurrences(self):
        u = pattern_from_grid(["100", "000", "001"])
        assert G.occurrences_2d(u, ONE) == [(0, 0), (2, 2)]

    def test_replace_to_zero(self):
        u = pattern_from_grid(["100", "000", "001"])
        out = G.replace_sparse(u, ONE, ZERO, [(0, 0), (2, 2)])
        assert all(s == "0" for _, s in out.cells)

    def test_empty_site_set_is_identity(self):
        u = pattern_from_grid(["10", "00"])
        assert G.replace_sparse(u, ONE, ZERO, []) == u

    def test_non_occurrence_rejected(self):
        u = pattern_from_grid(["00", "00"])
        with pytest.raises(InvalidPositionError):
            G.replace_sparse(u, ONE, ZERO, [(0, 0)])

    def test_not_sparse_rejected(self):
        dom = G.Pattern2D((((0, 0), "1"), ((1, 0), "1")))
        big = pattern_from_grid(["111"])
        with pytest.raises(InvalidPositionError):
            G.replace_sparse(big, dom, G.Pattern2D((((0, 0), "0"), ((1, 0), "0"))), [(0, 0), (1, 0)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidWordError):
            G.replace_sparse(pattern_from_grid(["1"]), ONE, pattern_from_grid(["00"]), [])

    def test_order_independence(self):
        u = pattern_from_grid(["101", "000", "101"])
        sites = G.occurrences_2d(u, ONE)
        base = G.replace_sparse(u, ONE, ZERO, sites)
        rng = random.Random(7)
        for _ in range(5):
            perm = sites[:]
            rng.shuffle(perm)
            assert G.replace_sparse(u, ONE, ZERO, perm) == base


class TestStripMME:
    def test_hard_square_single_cells(self):
        for width in (4, 6):
            mu0 = G.strip_mme_mu(HS, width, ZERO)
            mu1 = G.strip_mme_mu(HS, width, ONE)
            assert 0.5 < mu0 < 1.0
            assert mu0 + mu1 == pytest.approx(1.0, abs=1e-12)

    def test_forbidden_pattern_has_measure_zero(self):
        adjacent = pattern_from_grid(["11"])
        assert G.strip_mme_mu(HS, 6, adjacent) == pytest.approx(0.0, abs=1e-15)

    def test_pattern_must_fit(self):
        tall = G.Pattern2D(tuple(((0, y), "0") for y in range(6)))
        with pytest.raises(InvalidWordError):
            G.strip_mme_mu(HS, 6, tall)

    def test_width_cap(self):
        with pytest.raises(ResourceLimitError):
            G.strip_mme_mu(HS, 20, ZERO)

    @pytest.mark.parametrize("width", [0, -1])
    def test_nonpositive_width_rejected(self, width):
        with pytest.raises(InvalidWordError):
            G.strip_mme(HS, width)

    def test_one_row_free_boundary_strip(self):
        # the vertical pattern fits no offset of a one-row strip
        assert G.strip_mme(HS, 1, torus=False).columns.tolist() == [["0"], ["1"]]

    def test_caps_admit_binary_width_16(self):
        # checked on the numbers, without building the strip: 2,207 columns
        # on the width-16 hard-square torus
        assert 2**16 * 16 <= G._MAX_STRIP_CELLS < 2**17 * 17
        assert 2207**2 <= W._MATRIX_ENTRIES

    def test_candidate_cap_counts_the_alphabet(self, monkeypatch):
        # the cap of binary width 4 admits ternary width 2 but not width 3
        monkeypatch.setattr(G, "_MAX_STRIP_CELLS", 2**4 * 4)
        assert len(G.strip_mme(HS, 4).columns) == 7
        with pytest.raises(ResourceLimitError):
            G.strip_mme(HS, 5)
        assert len(G.strip_mme(THREE, 2).columns) == 8
        with pytest.raises(ResourceLimitError):
            G.strip_mme(THREE, 3)

    def test_pair_cap_counts_legal_columns(self, monkeypatch):
        # no single-column rule keeps all 2^W columns; hard square keeps 7 of 16
        monkeypatch.setattr(W, "_MATRIX_ENTRIES", 49)
        horizontal = G.Grid2dSpec(W.BINARY, (pattern_from_grid(["11"]),))
        assert len(G.strip_mme(HS, 4).columns) == 7
        with pytest.raises(ResourceLimitError):
            G.strip_mme(horizontal, 3)

    def test_three_column_forbidden_rejected(self):
        wide = G.Grid2dSpec(W.BINARY, (pattern_from_grid(["111"]),))
        with pytest.raises(ResourceLimitError):
            G.strip_mme_mu(wide, 6, ZERO)

    def test_flat_boundary_also_orders(self):
        mu0 = G.strip_mme_mu(HS, 6, ZERO, torus=False)
        mu1 = G.strip_mme_mu(HS, 6, ONE, torus=False)
        assert mu1 < mu0


    @pytest.mark.parametrize("torus", [True, False])
    def test_stationarity(self, torus):
        model = G.strip_mme(HS, 6, torus)
        assert abs(model.stationary.sum() - 1.0) < 1e-12
        assert np.max(np.abs(model.stationary @ model.transition - model.stationary)) < 1e-12

    def test_reducible_column_graph_rejected(self):
        # proper 3-colourings: down a torus column the colour steps by +1 or -1
        # mod 3, and no move to a neighbouring column changes the steps' sum.
        # At width 6 it is 0 or +-6, so the column graph is reducible; at
        # width 4 it is always 0, on all 2^4 + 2 = 18 columns
        colourings = G.Grid2dSpec(
            W.Alphabet(("0", "1", "2")),
            tuple(pattern_from_grid([s + s]) for s in "012")
            + tuple(pattern_from_grid([s, s]) for s in "012"),
        )
        assert len(G.strip_mme(colourings, 4).columns) == 18
        with pytest.raises(ReduciblePresentationError):
            G.strip_mme(colourings, 6)


class TestStripOracle:
    """Columns and edges of the strip against the plain pattern scan."""

    @staticmethod
    def block(spec, cols, width, torus):
        # on the torus the rows repeat far enough for every wrapped placement
        rows = width + spec.interaction_range if torus else width
        return {(x, y): col[y % width] for x, col in enumerate(cols) for y in range(rows)}

    @pytest.mark.parametrize("torus", [True, False])
    @pytest.mark.parametrize(
        "spec, width",
        [(HS, 4), (HS, 6), (THREE, 3), (THREE, 4)],
        ids=["hs-4", "hs-6", "three-3", "three-4"],
    )
    def test_columns_and_edges_are_locally_legal(self, spec, width, torus):
        model = G.strip_mme(spec, width, torus)
        legal = [
            col
            for col in itertools.product(spec.alphabet.symbols, repeat=width)
            if locally_legal(spec, self.block(spec, [col], width, torus))
        ]
        assert [tuple(col) for col in model.columns.tolist()] == legal
        edges = np.array(
            [
                [locally_legal(spec, self.block(spec, [c1, c2], width, torus)) for c2 in legal]
                for c1 in legal
            ]
        )
        assert np.array_equal(model.transition > 0, edges)


class TestReplaceability:
    def test_one_to_zero(self):
        assert G.replaceability_windowed(HS, ONE, ZERO, 1)

    def test_zero_to_one(self):
        assert not G.replaceability_windowed(HS, ZERO, ONE, 1)

    def test_full_shift_everything(self):
        free = G.Grid2dSpec(W.BINARY, (pattern_from_grid(["11"]),))
        assert G.replaceability_windowed(free, ONE, ZERO, 1)

    def test_wide_window_exceeds_budget(self):
        # a 24-cell binary halo is past the exhaustive-sweep budget
        with pytest.raises(ResourceLimitError):
            G.replaceability_windowed(HS, ONE, ZERO, 2)

    def test_window_below_range_rejected(self):
        with pytest.raises(InvalidWordError):
            G.replaceability_windowed(HS, ONE, ZERO, 0)

    def test_far_window_is_a_typed_refusal(self):
        # 2^14640 assignments: a count of 4,408 digits, past Python's int-to-str
        # limit, must not be formatted into the message
        with pytest.raises(ResourceLimitError, match="budget of 4194304 assignments"):
            G.replaceability_windowed(HS, ONE, ZERO, 60)

    def test_over_budget_halo_is_not_listed(self, monkeypatch):
        # at L = 1000 the halo has 4,004,000 cells; (2L + 1)^2 - |v| bounds it first
        def spy(F, L):
            raise AssertionError(f"halo listed at L = {L}")

        monkeypatch.setattr(G, "halo_cells", spy)
        with pytest.raises(ResourceLimitError):
            G.replaceability_windowed(HS, ONE, ZERO, 1000)

    def test_one_symbol_halo_is_bounded(self, monkeypatch):
        # 1^cells never passes the budget, so the cells are bounded too: a
        # 1-cell v keeps 8 halo cells at L = 1 and 24 at L = 2, past the 22
        # a binary halo may have
        a = G.Pattern2D((((0, 0), "a"),))
        mono = G.Grid2dSpec(W.Alphabet(("a",)), ())
        assert G.replaceability_windowed(mono, a, a, 1)

        def spy(F, L):
            raise AssertionError(f"halo listed at L = {L}")

        monkeypatch.setattr(G, "halo_cells", spy)
        for L in (2, 400):
            with pytest.raises(ResourceLimitError):
                G.replaceability_windowed(mono, a, a, L)

    def test_empty_halo(self):
        # L = 0 leaves no halo: one assignment, the empty one
        free = G.Grid2dSpec(W.BINARY, ())
        assert G.halo_cells(ONE.shape, 0) == []
        assert G.replaceability_windowed(free, ONE, ZERO, 0)
        assert G.replaceability_windowed(free, ZERO, ONE, 0)
        # a forbidden single cell is placed on v's shape alone
        no_ones = G.Grid2dSpec(W.BINARY, (ONE,))
        assert G.replaceability_windowed(no_ones, ONE, ZERO, 0)
        assert not G.replaceability_windowed(no_ones, ZERO, ONE, 0)

    @pytest.mark.parametrize(
        "v, w, expected",
        [(["1.", ".1"], ["0.", ".0"], True), (["0.", ".0"], ["1.", ".1"], False),
         (["1.", ".0"], ["0.", ".0"], True), (["1.", ".0"], ["0.", ".1"], False)],
        ids=["11-00", "00-11", "10-00", "10-01"],
    )
    def test_window_is_not_its_bounding_box(self, v, w, expected):
        # a diagonal pair: its 12-cell halo and the pair leave two corners of
        # the 4 x 4 bounding box outside the window
        v, w = (sparse_pattern(rows) for rows in (v, w))
        halo = G.halo_cells(v.shape, 1)
        assert len(halo) == 12 and (2, -1) not in halo and (-1, 2) not in halo
        assert G.replaceability_windowed(HS, v, w, 1) is expected
        assert reference_replaceability(HS, v, w, 1) is expected

    @pytest.mark.parametrize(
        "v, w, expected",
        [("a", "c", True), ("b", "c", True), ("a", "b", False), ("c", "b", False)],
    )
    def test_ternary_alphabet(self, v, w, expected):
        v, w = pattern_from_grid([v]), pattern_from_grid([w])
        assert G.replaceability_windowed(TERNARY, v, w, 1) is expected
        assert reference_replaceability(TERNARY, v, w, 1) is expected

    def test_answers_across_blocks(self, monkeypatch):
        # blocks of 3 rows: a True answer sweeps 86 blocks, the last one
        # partial; with horizontal 11 alone, 0 -> 1 first fails at row 8,
        # whose halo has 1 at (1, 0), in the third block
        monkeypatch.setattr(G, "_HALO_BLOCK", 3)
        horizontal = G.Grid2dSpec(W.BINARY, (pattern_from_grid(["11"]),))
        assert G.replaceability_windowed(HS, ONE, ZERO, 1)
        assert not G.replaceability_windowed(HS, ZERO, ONE, 1)
        assert not G.replaceability_windowed(horizontal, ZERO, ONE, 1)
        assert G.replaceability_windowed(TERNARY, pattern_from_grid(["a"]),
                                          pattern_from_grid(["c"]), 1)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.data())
    def test_matches_reference_scan(self, data):
        symbols = data.draw(st.sampled_from([("0", "1"), ("a", "b", "c")]))
        letter = st.sampled_from(symbols)
        cell = st.tuples(st.integers(0, 1), st.integers(0, 1))
        forbidden = data.draw(
            st.lists(st.dictionaries(cell, letter, min_size=1, max_size=3), max_size=3)
        )
        spec = G.Grid2dSpec(
            W.Alphabet(symbols), tuple(G.Pattern2D(tuple(p.items())) for p in forbidden)
        )
        shape = data.draw(
            st.sets(st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=1, max_size=3)
        )
        v, w = (G.Pattern2D(tuple((c, data.draw(letter)) for c in sorted(shape)))
                for _ in "vw")
        L = spec.interaction_range + data.draw(st.integers(0, 1))
        assume(len(symbols) ** len(G.halo_cells(shape, L)) <= 1 << 12)
        assert G.replaceability_windowed(spec, v, w, L) == reference_replaceability(spec, v, w, L)


FOREIGN = G.Pattern2D((((0, 0), "2"),))
EMPTY = G.Pattern2D(())


class TestPatternChecks:
    """A pattern symbol outside the alphabet, or an empty pattern, is an error."""

    @pytest.mark.parametrize("bad", [FOREIGN, EMPTY], ids=["foreign", "empty"])
    def test_strip_measure(self, bad):
        with pytest.raises(InvalidWordError):
            G.strip_mme_mu(HS, 6, bad)

    @pytest.mark.parametrize("bad", [FOREIGN, EMPTY], ids=["foreign", "empty"])
    def test_replaceability(self, bad):
        with pytest.raises(InvalidWordError):
            G.replaceability_windowed(HS, bad, bad, 1)
        with pytest.raises(InvalidWordError):
            G.replaceability_windowed(HS, ONE, bad, 1)

    @pytest.mark.parametrize("widths", [(4,), ()])
    def test_gtheorem_is_not_skipped(self, widths):
        with pytest.raises(InvalidWordError, match="'2' not in alphabet"):
            G.check_gtheorem(HS, FOREIGN, ZERO, widths, 1e-12)
        with pytest.raises(InvalidWordError):
            G.check_gtheorem(HS, ZERO, FOREIGN, widths, 1e-12)

    def test_shape_mismatch_is_still_skipped(self):
        rec = G.check_gtheorem(HS, ONE, pattern_from_grid(["00"]), (4,), 1e-12)
        assert rec["status"] == "skipped"
        assert rec["reason"] == "patterns must share a shape"


class TestGtheorem:
    def test_hard_square_passes(self):
        rec = G.check_gtheorem(HS, ONE, ZERO, (4, 6), 1e-12)
        assert rec["status"] == "pass"
        assert all(mu_v <= mu_w for _, mu_v, mu_w in rec["series"]["strip"])

    def test_uncertified_direction_skipped(self):
        rec = G.check_gtheorem(HS, ZERO, ONE, (4,), 1e-12)
        assert rec["status"] == "skipped"

    def test_nan_measure_fails(self, monkeypatch):
        monkeypatch.setattr(G, "_strip_mu", lambda model, p, yoff: float("nan"))
        rec = G.check_gtheorem(HS, ONE, ZERO, (4, 6), 1e-12)
        assert rec["status"] == "fail"
        assert [w["width"] for w in rec["witnesses"]] == [4, 6]
        assert np.isnan(rec["residuals"]["max(mu_v - mu_w)"])
