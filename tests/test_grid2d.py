import itertools
import random

import numpy as np
import pytest

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
            if G._locally_legal(spec, self.block(spec, [col], width, torus))
        ]
        assert [tuple(col) for col in model.columns.tolist()] == legal
        edges = np.array(
            [
                [G._locally_legal(spec, self.block(spec, [c1, c2], width, torus)) for c2 in legal]
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
