import math

import numpy as np
import pytest

from smlsom import (
    Assignment,
    Dataset,
    GaussianFamily,
    GaussParams,
    MapGraph,
    Schedule,
    lattice_graph,
    mlsom_train,
    schedule_alphas,
    schedule_radii,
)
from smlsom.errors import DataError

from oracles import RecordingFamily, members, oracle_alpha, oracle_radius


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
        hops = g.hops_from(12)  # center of a 5x5 grid
        assert sum(d == 1 for d in hops.values()) == 6

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


def hop_distance(g, c, m):
    """Hop distance from c to m as ``MapGraph.hops_from`` gives it; math.inf
    when m is unreachable."""
    return g.hops_from(c).get(m, math.inf)


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
        assert g.hops_from(0) == {0: 0}
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


def updated_nodes(graph, winner, r1, tau_max):
    """Nodes a training run moves when every draw is the mean of ``winner``.

    Nodes sit one unit apart on a line with identity covariances, so the
    winner of every step is ``winner``. The first step's radius is
    r1 * (1 - 2 / tau_max) and every later step's is smaller, so the nodes
    the run moves are those within the first step's radius.
    """
    ids = graph.nodes
    params = {m: GaussParams([float(m)], [[1.0]]) for m in ids}
    data = Dataset(np.full((2, 1), float(winner)))
    sched = Schedule(r1=r1, tau_max=tau_max)
    family = RecordingFamily(GaussianFamily())
    out = mlsom_train(data, graph, params, sched, np.random.default_rng(0), family)
    assert {ids[k] for k in family.winners} == {winner}
    return {m for m in ids if not np.array_equal(out[m].sigma, params[m].sigma)}


class TestNeighborhoodIndicator:
    """Which nodes a training step moves: those within the radius, the
    boundary included."""

    def test_winner_always_updates(self):
        assert updated_nodes(lattice_graph(1, 5, "rectangular"), 2, 0.5, 1) == {2}

    def test_hard_phase_excludes_neighbors(self):
        # a radius of exactly 1 on the first step moves the neighbors; 0.5 does not
        assert updated_nodes(lattice_graph(1, 5, "rectangular"), 0, 2.0, 4) == {0, 1}
        assert updated_nodes(lattice_graph(1, 5, "rectangular"), 0, 1.0, 4) == {0}

    def test_boundary_inclusive(self):
        assert schedule_radii(Schedule(r1=4.0, tau_max=4))[0] == 2.0
        assert updated_nodes(lattice_graph(1, 5, "rectangular"), 0, 4.0, 4) == {0, 1, 2}

    def test_unreachable_is_outside(self):
        g = MapGraph(nodes=range(4), edges=[(0, 1), (2, 3)])
        assert updated_nodes(g, 0, 100.0, 4) == {0, 1}

    def test_half_radius_selects_winner_only(self):
        # r1 = 0.5 keeps every radius below 1
        for c in range(6):
            assert updated_nodes(lattice_graph(1, 6, "rectangular"), c, 0.5, 3) == {c}


class TestSchedules:
    def test_alpha_endpoints(self):
        s = Schedule(alpha0=0.05, alpha1=0.01, r1=2, tau_max=5)
        alphas = schedule_alphas(s)
        assert alphas[0] == pytest.approx(0.05)
        assert alphas[-1] == pytest.approx(0.01)

    def test_alpha_midpoint(self):
        s = Schedule(alpha0=0.05, alpha1=0.01, r1=2, tau_max=5)
        assert schedule_alphas(s)[2] == pytest.approx(0.03)

    def test_alpha_single_step(self):
        s = Schedule(alpha0=0.05, alpha1=0.01, r1=2, tau_max=1)
        assert schedule_alphas(s).tolist() == [0.05]

    def test_radius_decay_and_clamp(self):
        radii = schedule_radii(Schedule(r1=2, tau_max=6))
        assert radii[0] == pytest.approx(2 - 4 / 6)
        assert radii[2] == 0.5  # raw value 0 clamps
        assert radii[5] == 0.5

    @pytest.mark.parametrize("tau_max", [1, 2, 7, 50])
    def test_monotone_non_increasing(self, tau_max):
        s = Schedule(alpha0=0.05, alpha1=0.01, r1=3.0, tau_max=tau_max)
        alphas, radii = schedule_alphas(s), schedule_radii(s)
        assert len(alphas) == len(radii) == tau_max
        assert np.all(np.diff(alphas) <= 0)
        assert np.all(np.diff(radii) <= 0)

    @pytest.mark.parametrize("tau_max", [1, 2, 3, 1000, 20000])
    @pytest.mark.parametrize("r1", [0.5, 1.0, 2, 8 * 2.0 / 3.0, 5.3])
    def test_arrays_match_per_tau_formulas_bitwise(self, tau_max, r1):
        s = Schedule(alpha0=0.07, alpha1=0.013, r1=r1, tau_max=tau_max)
        taus = range(1, tau_max + 1)
        alphas, radii = schedule_alphas(s), schedule_radii(s)
        assert alphas.dtype == radii.dtype == np.float64
        np.testing.assert_array_equal(alphas, [oracle_alpha(s, t) for t in taus])
        np.testing.assert_array_equal(radii, [oracle_radius(s, t) for t in taus])

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
        assert 0 in g.nodes and 0 not in h.nodes


class TestAssignmentGroups:
    @pytest.mark.parametrize(
        "m, ids",
        [
            (np.random.default_rng(0).integers(0, 64, size=3000), list(range(64))),
            (np.array([-3, 5, -3, 2, 70000, 5, 2]), [-3, 2, 5, 9, 70000]),  # wide and negative ids
            (np.array([4, 4, 1, 7]), [1, 4]),  # a sample whose node is not listed
            (np.array([], dtype=int), [0, 1]),
        ],
    )
    def test_groups_are_each_nodes_ascending_members(self, m, ids):
        groups = Assignment(m).groups(ids)
        assert len(groups) == len(ids)
        for node, idx in zip(ids, groups):
            assert idx.tolist() == members(Assignment(m), node).tolist()


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
