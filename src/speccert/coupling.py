"""Coupling graph between energy levels in the eigenbasis at a control point.

Nodes are levels 1..n; an edge (j, k) is present when some controlled
operator has a matrix element between the j-th and k-th eigenvectors whose
magnitude clears a relative threshold separating structural zeros from
roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .operators import ControlHamiltonian
from .spectrum import SpectralPoint, _simple_spectra, degeneracy_tol
from .tolerance import EDGE_TOL_SCALE, _check_tolerance


@dataclass(frozen=True, eq=False)
class CouplingGraph:
    """Undirected level-coupling graph with the maximizing coupling magnitudes."""

    n_nodes: int
    edges: frozenset
    weights: dict

    def to_json_dict(self) -> dict:
        connected, components = is_connected(self)
        return {
            "nodes": list(range(1, self.n_nodes + 1)),
            "edges": [
                {"j": j, "k": k, "weight": self.weights[(j, k)]}
                for j, k in sorted(self.edges)
            ],
            "connected": connected,
            "components": [sorted(c) for c in components],
        }


def build_graph(
    H: ControlHamiltonian, sp: SpectralPoint, tau_edge: float | None = None
) -> CouplingGraph:
    """Build the coupling graph from the eigenframe at a simple-spectrum point.

    The edge threshold defaults to 1e-9 times the largest controlled-operator
    norm. Edge decisions depend only on |<phi_j, H_l phi_k>| and are therefore
    invariant under per-eigenvector phase changes.

    Raises
    ------
    PreconditionError
        If a given ``tau_edge`` is not finite and positive.
    StructuralError
        If the spectrum at ``sp`` is degenerate (the frame, and hence the
        edge set, would be ill-defined).
    """
    _check_tolerance("tau_edge", tau_edge)
    if not _simple_spectra(sp.eigenvalues, degeneracy_tol(H)):
        raise StructuralError(
            "coupling graph requires a simple spectrum; degenerate levels found"
        )
    if tau_edge is None:
        tau_edge = EDGE_TOL_SCALE * float(np.max(H.control_norms()))
    frame = sp.frame
    # |<phi_j, H_l phi_k>| for every l at once, maximised over l
    coupled = np.max(np.abs(frame.conj().T @ H._stack[1:] @ frame), axis=0)
    weights = {
        (int(j) + 1, int(k) + 1): float(coupled[j, k])
        for j, k in zip(*np.nonzero(np.triu(coupled > tau_edge, k=1)))
    }
    return CouplingGraph(n_nodes=sp.dim, edges=frozenset(weights), weights=weights)


def is_connected(g: CouplingGraph):
    """Connected-components decision; returns (connected, sorted partition)."""
    parent = list(range(g.n_nodes + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, k in g.edges:
        rj, rk = find(j), find(k)
        if rj != rk:
            parent[max(rj, rk)] = min(rj, rk)
    groups: dict = {}
    for node in range(1, g.n_nodes + 1):
        groups.setdefault(find(node), []).append(node)
    components = sorted(groups.values())
    return len(components) == 1, components
