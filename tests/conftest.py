import itertools

import numpy as np
import pytest

from qglab import inequalities as ineq
from qglab.graphs import DIRICHLET, Edge, MetricGraph


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def make_path(lengths) -> MetricGraph:
    edges = tuple(Edge(i, i + 1, L) for i, L in enumerate(lengths))
    n = len(lengths) + 1
    return MetricGraph(n, edges, {0: DIRICHLET, n - 1: DIRICHLET})


def verify_yang(spectrum, coeff_ratio: float = 1.0) -> ineq.YangCheck:
    """The sum-rule check as ``verify`` builds it, on a batch of every
    eigenpair a mesh resolves: a ``z`` grid up to the top trusted eigenvalue."""
    z_grid = ineq.make_z_grid(spectrum.energies[: ineq.trusted_count(len(spectrum))])
    return ineq.yang_check(
        spectrum.energies, spectrum.total_dirichlet(), spectrum.alpha, z_grid, coeff_ratio=coeff_ratio
    )


def brute_force_admissible(graph: MetricGraph):
    """Reference enumeration: scan all 2^E colorings, check vertex parity."""
    adj = graph.adjacency()
    deg = graph.degrees()
    internal = [v for v in range(graph.num_vertices) if deg[v] >= 2]
    out = []
    for bits in itertools.product((0, 1), repeat=len(graph.edges)):
        if all(sum(bits[eid] for eid, _ in adj[v]) % 2 == 0 for v in internal):
            out.append(bits)
    return out


def gf2_cycle_rank(graph: MetricGraph) -> int:
    """Cycle-space dimension over GF(2); self-loops are independent cycles."""
    basis = {}
    rank = 0
    for e in graph.edges:
        v = 0 if e.u == e.v else (1 << e.u) | (1 << e.v)
        while v:
            top = v.bit_length() - 1
            if top in basis:
                v ^= basis[top]
            else:
                basis[top] = v
                rank += 1
                break
    return len(graph.edges) - rank
