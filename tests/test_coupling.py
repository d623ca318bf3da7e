import numpy as np
import pytest

from speccert import PreconditionError, StructuralError, build_graph, decompose, is_connected
from speccert.coupling import CouplingGraph
from speccert.spectrum import SpectralPoint
from conftest import HOSTILE_TOLERANCES, SIGMA_X, SIGMA_Z, make_family, random_family


def graph_for(drift, controlled, u=(0.0, 0.0), box=((-1, 1), (-1, 1))):
    H = make_family(drift, controlled, box)
    sp = decompose(H, np.asarray(u, dtype=float))
    return build_graph(H, sp)


class TestBuildGraph:
    def test_sigma_x_couples_the_two_levels(self):
        g = graph_for(SIGMA_Z, [SIGMA_X, np.zeros((2, 2))])
        assert g.edges == frozenset({(1, 2)})
        assert g.weights[(1, 2)] == pytest.approx(1.0)

    def test_diagonal_controls_give_empty_graph(self, diag_family):
        sp = decompose(diag_family, [0.3, 0.0])
        g = build_graph(diag_family, sp)
        assert g.edges == frozenset()

    def test_path_graph(self):
        h1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        g = graph_for(np.diag([1.0, 2.0, 3.0]), [h1, np.zeros((3, 3))])
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_degenerate_spectrum_rejected(self):
        H = make_family(np.diag([0.0, 0.0, 1.0]), [SIGMA_X_3(), np.zeros((3, 3))], [[-1, 1], [-1, 1]])
        sp = decompose(H, [0.0, 0.0])
        with pytest.raises(StructuralError):
            build_graph(H, sp)

    @pytest.mark.parametrize("tau", HOSTILE_TOLERANCES)
    def test_hostile_threshold_rejected(self, tau):
        # nan and inf gave no edges, 0 and -1 every edge
        H = random_family(0, 4, 2)
        sp = decompose(H, [0.3, -0.7])
        assert 0 < len(build_graph(H, sp, tau_edge=0.2).edges) < 6
        with pytest.raises(PreconditionError, match="tau_edge must be finite and positive"):
            build_graph(H, sp, tau_edge=tau)

    def test_weights_take_maximum_over_controls(self):
        h1 = 0.2 * SIGMA_X
        h2 = 0.7 * SIGMA_X
        g = graph_for(SIGMA_Z, [h1, h2])
        assert g.weights[(1, 2)] == pytest.approx(0.7)


    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_matches_per_operator_loop(self, n):
        for seed in range(5):
            H = random_family(seed, n, 3)
            sp = decompose(H, [0.3, -0.7, 1.1])
            # at most one edge per pair, weighted by its largest coupling over the controls
            tau = 0.05
            edges, weights = set(), {}
            for hop in H.controlled:
                coupled = np.abs(sp.frame.conj().T @ hop.matrix @ sp.frame)
                for j in range(n):
                    for k in range(j + 1, n):
                        key = (j + 1, k + 1)
                        if coupled[j, k] > tau:
                            edges.add(key)
                            weights[key] = max(weights.get(key, 0.0), coupled[j, k])
            g = build_graph(H, sp, tau_edge=tau)
            assert g.edges == frozenset(edges)
            assert g.weights == weights


def SIGMA_X_3():
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 0] = 1.0
    return m


class TestIsConnected:
    def test_path_graph_connected(self):
        g = CouplingGraph(n_nodes=3, edges=frozenset({(1, 2), (2, 3)}), weights={})
        ok, comps = is_connected(g)
        assert ok
        assert comps == [[1, 2, 3]]

    def test_empty_graph_components(self):
        g = CouplingGraph(n_nodes=3, edges=frozenset(), weights={})
        ok, comps = is_connected(g)
        assert not ok
        assert comps == [[1], [2], [3]]

    def test_partial_graph(self):
        g = CouplingGraph(n_nodes=3, edges=frozenset({(1, 2)}), weights={})
        ok, comps = is_connected(g)
        assert not ok
        assert comps == [[1, 2], [3]]


class TestInvariances:
    def test_gauge_invariance(self, three_level_chain):
        sp = decompose(three_level_chain, [0.2, 0.3])
        g0 = build_graph(three_level_chain, sp)
        rng = np.random.default_rng(31)
        for _ in range(20):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            rephased = SpectralPoint(
                u=sp.u, eigenvalues=sp.eigenvalues, frame=sp.frame * phases[None, :]
            )
            g1 = build_graph(three_level_chain, rephased)
            assert g1.edges == g0.edges
            for key in g0.weights:
                assert g1.weights[key] == pytest.approx(g0.weights[key], rel=1e-12)

    def test_basis_change_consistency(self, three_level_chain):
        sp = decompose(three_level_chain, [0.2, 0.3])
        g0 = build_graph(three_level_chain, sp)
        rng = np.random.default_rng(32)
        for _ in range(10):
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q, _ = np.linalg.qr(z)
            rotated = make_family(
                q @ three_level_chain.drift.matrix @ q.conj().T,
                [q @ h.matrix @ q.conj().T for h in three_level_chain.controlled],
                three_level_chain.box,
            )
            sp_rot = SpectralPoint(
                u=sp.u, eigenvalues=sp.eigenvalues, frame=q @ sp.frame
            )
            g1 = build_graph(rotated, sp_rot)
            assert g1.edges == g0.edges

    def test_json_document(self, three_level_chain):
        sp = decompose(three_level_chain, [0.2, 0.3])
        doc = build_graph(three_level_chain, sp).to_json_dict()
        assert doc["nodes"] == [1, 2, 3]
        assert {"j", "k", "weight"} == set(doc["edges"][0])
        assert isinstance(doc["connected"], bool)
