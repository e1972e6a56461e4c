import math

import numpy as np
import pytest

from smlsom import (
    Dataset,
    MapGraph,
    Schedule,
    hop_distance,
    lattice_graph,
    neighborhood_indicator,
    schedule_alpha,
    schedule_alphas,
    schedule_radii,
    schedule_radius,
)
from smlsom.errors import DataError

from oracles import oracle_alpha, oracle_radius


class TestLattice:
    def test_smallest(self):
        g = lattice_graph(1, 2, "rectangular")
        assert len(g) == 2
        assert g.edges == {(0, 1)}

    def test_3x3_rectangular(self):
        g = lattice_graph(3, 3, "rectangular")
        assert len(g) == 9
        assert len(g.edges) == 12

    def test_3x3_hexagonal(self):
        g = lattice_graph(3, 3, "hexagonal")
        assert len(g) == 9
        assert len(g.edges) == 16

    def test_interior_hex_degree_is_six(self):
        g = lattice_graph(5, 5, "hexagonal")
        assert g.degree(12) == 6  # center of a 5x5 grid

    @pytest.mark.parametrize("rows,cols", [(1, 2), (2, 1), (4, 3), (5, 5), (1, 7)])
    @pytest.mark.parametrize("kind", ["rectangular", "hexagonal"])
    def test_connected(self, rows, cols, kind):
        g = lattice_graph(rows, cols, kind)
        assert len(g.hops_from(0)) == rows * cols

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            lattice_graph(0, 3)
        with pytest.raises(ValueError):
            lattice_graph(1, 1)


class TestHopDistance:
    def test_identity(self):
        g = lattice_graph(3, 3, "rectangular")
        assert hop_distance(g, 4, 4) == 0

    def test_single_edge(self):
        g = lattice_graph(1, 2, "rectangular")
        assert hop_distance(g, 0, 1) == 1

    def test_opposite_corners(self):
        g = lattice_graph(3, 3, "rectangular")
        assert hop_distance(g, 0, 8) == 4

    def test_unreachable(self):
        g = MapGraph(nodes=[0, 1])
        assert hop_distance(g, 0, 1) == math.inf

    @pytest.mark.parametrize("kind", ["rectangular", "hexagonal"])
    def test_metric_on_5x5(self, kind):
        g = lattice_graph(5, 5, kind)
        nodes = g.nodes
        d = {(a, b): hop_distance(g, a, b) for a in nodes for b in nodes}
        for a in nodes:
            assert d[a, a] == 0
            for b in nodes:
                assert d[a, b] == d[b, a]
                for c in nodes:
                    assert d[a, c] <= d[a, b] + d[b, c]


class TestNeighborhoodIndicator:
    def test_winner_always_updates(self):
        assert neighborhood_indicator(0, 0.5) == 1

    def test_hard_phase_excludes_neighbors(self):
        assert neighborhood_indicator(1, 0.5) == 0

    def test_boundary_inclusive(self):
        assert neighborhood_indicator(2, 2.0) == 1

    def test_unreachable_is_outside(self):
        assert neighborhood_indicator(math.inf, 100.0) == 0

    def test_half_radius_selects_winner_only(self):
        for d in range(0, 6):
            assert neighborhood_indicator(d, 0.5) == (1 if d == 0 else 0)


class TestSchedules:
    def test_alpha_endpoints(self):
        s = Schedule(alpha0=0.05, alpha1=0.01, r1=2, tau_max=5)
        assert schedule_alpha(s, 1) == pytest.approx(0.05)
        assert schedule_alpha(s, 5) == pytest.approx(0.01)

    def test_alpha_midpoint(self):
        s = Schedule(alpha0=0.05, alpha1=0.01, r1=2, tau_max=5)
        assert schedule_alpha(s, 3) == pytest.approx(0.03)

    def test_alpha_single_step(self):
        s = Schedule(alpha0=0.05, alpha1=0.01, r1=2, tau_max=1)
        assert schedule_alpha(s, 1) == 0.05

    def test_radius_decay_and_clamp(self):
        s = Schedule(r1=2, tau_max=6)
        assert schedule_radius(s, 1) == pytest.approx(2 - 4 / 6)
        assert schedule_radius(s, 3) == 0.5  # raw value 0 clamps
        assert schedule_radius(s, 6) == 0.5

    @pytest.mark.parametrize("tau_max", [1, 2, 7, 50])
    def test_monotone_non_increasing(self, tau_max):
        s = Schedule(alpha0=0.05, alpha1=0.01, r1=3.0, tau_max=tau_max)
        alphas = [schedule_alpha(s, t) for t in range(1, tau_max + 1)]
        radii = [schedule_radius(s, t) for t in range(1, tau_max + 1)]
        assert all(a >= b for a, b in zip(alphas, alphas[1:]))
        assert all(a >= b for a, b in zip(radii, radii[1:]))

    def test_tau_out_of_range(self):
        s = Schedule(r1=2, tau_max=5)
        with pytest.raises(ValueError):
            schedule_alpha(s, 0)
        with pytest.raises(ValueError):
            schedule_radius(s, 6)

    @pytest.mark.parametrize("tau_max", [1, 2, 3, 1000, 20000])
    @pytest.mark.parametrize("r1", [0.5, 1.0, 2, 8 * 2.0 / 3.0, 5.3])
    def test_arrays_match_per_tau_formulas_bitwise(self, tau_max, r1):
        s = Schedule(alpha0=0.07, alpha1=0.013, r1=r1, tau_max=tau_max)
        taus = range(1, tau_max + 1)
        alphas, radii = schedule_alphas(s), schedule_radii(s)
        assert alphas.dtype == radii.dtype == np.float64
        np.testing.assert_array_equal(alphas, [oracle_alpha(s, t) for t in taus])
        np.testing.assert_array_equal(radii, [oracle_radius(s, t) for t in taus])
        for t in (1, tau_max, (tau_max + 1) // 2):
            assert schedule_alpha(s, t) == oracle_alpha(s, t)
            assert schedule_radius(s, t) == oracle_radius(s, t)

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            Schedule(alpha0=0.01, alpha1=0.05, r1=2, tau_max=5)
        with pytest.raises(ValueError):
            Schedule(r1=0, tau_max=5)


class TestMapGraph:
    def test_no_self_loops(self):
        g = MapGraph(nodes=[0, 1])
        with pytest.raises(ValueError):
            g.add_edge(0, 0)

    def test_edge_endpoints_must_live(self):
        g = MapGraph(nodes=[0, 1])
        with pytest.raises(ValueError):
            g.add_edge(0, 5)

    def test_remove_node_returns_neighbors_and_keeps_ids(self):
        g = lattice_graph(2, 2, "rectangular")
        former = g.remove_node(0)
        assert former == [1, 2]
        assert g.nodes == [1, 2, 3]
        with pytest.raises(ValueError):
            g.add_node(1)  # ids are unique while live

    def test_copy_is_independent(self):
        g = lattice_graph(2, 2, "rectangular")
        h = g.copy()
        h.remove_node(0)
        assert g.has_node(0) and not h.has_node(0)


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_single_sample(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0, 2.0]]))

    def test_count_validation(self):
        ok = Dataset(np.array([[1.0, 2.0], [0.0, 3.0]]))
        ok.validate_counts()
        bad = Dataset(np.array([[1.5, 2.0], [0.0, 3.0]]))
        with pytest.raises(DataError):
            bad.validate_counts()
        negative = Dataset(np.array([[-1.0, 2.0], [0.0, 3.0]]))
        with pytest.raises(DataError):
            negative.validate_counts()

    def test_counts_that_are_all_zero_rejected(self):
        Dataset(np.array([[0.0, 0.0], [0.0, 1.0]])).validate_counts()  # one count is enough
        with pytest.raises(DataError, match="all zero"):
            Dataset(np.zeros((5, 3))).validate_counts()
