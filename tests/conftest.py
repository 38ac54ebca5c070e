import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from qglab import analytic, inequalities as ineq
from qglab.colorings import Coloring, ColoringError, edge_counts
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
        spectrum.energies, spectrum.edge_dirichlet.sum(axis=0), spectrum.alpha, z_grid, coeff_ratio=coeff_ratio
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


def degenerate_clusters(energies: np.ndarray, rtol: float = 1e-8) -> list[tuple[int, ...]]:
    """Group indices of eigenvalues that coincide to relative tolerance ``rtol``.

    Per-state quantities inside a cluster depend on the eigenbasis the solver
    happened to return; only cluster sums of the per-edge tables are well
    defined, and every check of ``qglab`` consumes sums.
    """
    energies = np.asarray(energies, dtype=float)
    clusters: list[tuple[int, ...]] = []
    current = [0]
    for j in range(1, len(energies)):
        scale = max(abs(energies[j]), abs(energies[j - 1]), 1e-300)
        if abs(energies[j] - energies[j - 1]) <= rtol * scale:
            current.append(j)
        else:
            clusters.append(tuple(current))
            current = [j]
    if len(energies):
        clusters.append(tuple(current))
    return clusters


def binomial_identity_check(n_max: int) -> bool:
    """Even and odd subset counts of an (n-1)-set agree (both are 2^(n-2))."""
    if n_max > 60:
        raise ValueError("n_max capped at 60")
    for n in range(2, n_max + 1):
        even = sum(math.comb(n - 1, 2 * k) for k in range(0, (n - 1) // 2 + 1))
        odd = sum(math.comb(n - 1, 2 * k + 1) for k in range(0, n // 2))
        if even != odd or even != 2 ** (n - 2):
            return False
    return True


@dataclass
class AveragedYangReport:
    z_grid: np.ndarray
    count: int
    max_rel_deviation: float
    verdict: str


def averaged_yang(
    energies: np.ndarray,
    edge_mass: np.ndarray,
    edge_dirichlet: np.ndarray,
    alpha: float,
    colorings: list[Coloring],
    z_grid: np.ndarray,
) -> AveragedYangReport:
    """Sum the per-coloring sum-rule expressions and compare with ``p * S(z)``.

    Each coloring weights edge ``m`` by its bit; summing over all admissible
    colorings must reproduce the plain quadratic form times the uniform
    per-edge count ``p``, giving a construction-level consistency check.
    """
    report = edge_counts(colorings)
    if not report.uniform:
        raise ColoringError("per-edge coloring counts are not uniform")
    p = report.counts[0] if report.counts else 0

    z = np.asarray(z_grid, dtype=float)
    energies = np.asarray(energies, dtype=float)
    pos = np.maximum(z[:, None] - energies[None, :], 0.0)

    averaged = np.zeros(len(z))
    for coloring in colorings:
        w = np.asarray(coloring, dtype=float)
        mass_w = w @ edge_mass
        dir_w = w @ edge_dirichlet
        averaged += pos**2 @ mass_w - 4.0 * alpha * (pos @ dir_w)

    grad = edge_dirichlet.sum(axis=0)
    plain = p * ((pos**2).sum(axis=1) - 4.0 * alpha * (pos @ grad))

    scale = np.maximum(np.abs(plain), p * np.maximum((pos**2).sum(axis=1), 1e-300))
    dev = float(np.max(np.abs(averaged - plain) / scale)) if len(z) else 0.0
    holds = bool(np.all(plain <= p * 1e-3 * z * z))
    verdict = "holds" if holds else "violated"
    return AveragedYangReport(z, p, dev, verdict)


def member_pole_gaps(lengths: np.ndarray, offsets: np.ndarray, cells: np.ndarray | None, k: int):
    """``analytic._pole_gaps`` of one member, listed on its own: the
    reference that the family-wide listing must equal, ``(seeds, below)``."""
    ceiling = math.inf if cells is None else math.sqrt(12.0) * (cells / lengths).max() * (1.0 + 1e-9)
    # every edge's first k + 1 poles, one row each; an offset d puts a pole p at sqrt(p^2 + d)
    poles = analytic._pole(np.arange(1.0, k + 2.0)[:, None], lengths, cells)
    poles = np.where(offsets > 0.0, np.sqrt(poles * poles + offsets), poles)
    bound = min(poles[-1].min(), ceiling)
    poles = np.sort(poles[poles <= bound])
    starts = np.flatnonzero(np.diff(poles, prepend=-np.inf) > analytic.POLE_MERGE_RTOL * poles)  # of each cluster
    lows, highs = poles[starts], poles[np.append(starts[1:], len(poles))[: len(starts)] - 1]
    kth = np.searchsorted(starts, k - 1, side="right") - 1  # the cluster of the k-th pole
    top = ceiling
    if kth + 1 < len(starts):
        top, lows, highs = 0.5 * (highs[kth] + lows[kth + 1]), lows[: kth + 1], highs[: kth + 1]
    # cut each gap between clusters into parts about half an eigenvalue
    # spacing (pi / 2L) wide, and count at their midpoints
    starts, ends = np.append(0.0, highs), np.append(lows, top)
    parts = np.maximum(1, np.rint((ends - starts) * 2.0 * lengths.sum() / math.pi)).astype(int)
    gap = np.repeat(np.arange(len(ends)), parts)
    part = np.arange(len(gap)) - np.repeat(np.cumsum(parts) - parts, parts)
    mids = starts[gap] + (ends - starts)[gap] * (part + 0.5) / parts[gap]
    # and just below and just above each cluster
    after = np.cumsum(parts)[:-1]  # the first midpoint above each cluster
    step = 0.4 * analytic.COUNT_RTOL * lows
    under = lows - np.minimum(step, 0.5 * (lows - mids[after - 1]))
    over = highs + np.minimum(step, 0.5 * (mids[after] - highs))
    points = np.concatenate([mids, under, over, [top]])
    order = np.argsort(points, kind="stable")
    below = (len(mids) <= order) & (order < len(mids) + len(lows))
    return points[order], below
