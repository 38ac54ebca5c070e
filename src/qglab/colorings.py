"""Admissible edge colorings of trees and the piecewise-affine functions they induce.

A coloring assigns a bit to every edge; it is admissible when every vertex of
degree at least 2 touches an even number of colored edges (free ends carry
boundary data and impose no parity).  On a tree, each admissible coloring
lifts to a continuous piecewise-affine function with slope ``+-1`` exactly on
the colored edges and zero outward-slope sum at every vertex; averaging the
induced sum-rule expressions over all admissible colorings multiplies the
plain quadratic form by the per-edge count, which is the same for every edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import MetricGraph, TopologyClass, classify_topology

MAX_EDGES = 22

Coloring = tuple[int, ...]


class ColoringError(ValueError):
    pass


def _tree_structure(graph: MetricGraph):
    """Root the tree and report, per vertex, its parent edge and child edges."""
    adj = graph.adjacency()
    degrees = graph.degrees()
    root = int(np.argmax(degrees))
    parent_edge = {root: None}
    order = [root]
    seen = {root}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for eid, w in adj[v]:
            if w in seen or eid == parent_edge[v]:
                continue
            seen.add(w)
            parent_edge[w] = eid
            order.append(w)
            queue.append(w)
    return root, order, parent_edge, adj, degrees


def enumerate_admissible(graph: MetricGraph) -> list[Coloring]:
    """All admissible colorings of a tree, sorted; the all-zero one is first.

    Exhausts the coloring space with parity forcing: bits of leaf edges are
    free, every other bit is forced bottom-up by the parity constraint of its
    lower vertex, and the root parity prunes the rest.  Capped at
    ``MAX_EDGES`` edges.
    """
    topo = classify_topology(graph)
    if topo.topology_class is not TopologyClass.TREE:
        raise ColoringError("admissible colorings are enumerated on trees only")
    n_edges = len(graph.edges)
    if n_edges > MAX_EDGES:
        raise ColoringError(f"too many edges ({n_edges} > {MAX_EDGES})")

    root, order, parent_edge, adj, degrees = _tree_structure(graph)
    free_edges = [parent_edge[v] for v in order if v != root and degrees[v] == 1]
    forced_vertices = [v for v in reversed(order) if v != root and degrees[v] >= 2]

    out: list[Coloring] = []
    for assignment in itertools.product((0, 1), repeat=len(free_edges)):
        bits = [-1] * n_edges
        for eid, bit in zip(free_edges, assignment):
            bits[eid] = bit
        ok = True
        for v in forced_vertices:
            others = sum(bits[eid] for eid, _ in adj[v] if eid != parent_edge[v])
            bits[parent_edge[v]] = others % 2
        if degrees[root] >= 2:
            ok = sum(bits[eid] for eid, _ in adj[root]) % 2 == 0
        if ok:
            out.append(tuple(bits))
    out.sort()
    return out


@dataclass
class EdgeCountReport:
    counts: tuple[int, ...]
    uniform: bool


def edge_counts(colorings: list[Coloring]) -> EdgeCountReport:
    """Per-edge count of colorings that color it, and whether it is uniform."""
    if not colorings:
        return EdgeCountReport((), True)
    counts = tuple(int(s) for s in np.sum(np.asarray(colorings, dtype=int), axis=0))
    return EdgeCountReport(counts, len(set(counts)) <= 1)


@dataclass
class GFunction:
    """Continuous piecewise-affine function given by integer edge slopes.

    ``slopes[e]`` is taken along edge ``e`` from its "from" endpoint;
    ``vertex_values`` pins the continuous determination.
    """

    slopes: tuple[int, ...]
    vertex_values: tuple[float, ...]


def realize_g(graph: MetricGraph, coloring: Coloring) -> GFunction:
    """Deterministic affine representative of an admissible tree coloring.

    Walking the tree from the root, the colored child edges at each vertex,
    in ascending edge order, get outward slopes that alternate -1, +1 while
    both signs are still needed to balance the already-fixed parent slope,
    then the sign that remains; uncolored edges get slope 0.  Vertex values
    propagate from value 0 at the root.
    """
    root, order, parent_edge, adj, degrees = _tree_structure(graph)
    slopes = [0] * len(graph.edges)
    values = [0.0] * graph.num_vertices

    for v in order:
        pe = parent_edge[v]
        colored_children = sorted(
            eid for eid, _ in adj[v] if eid != pe and coloring[eid] == 1
        )
        if degrees[v] == 1:
            # free end, no balance constraint; a colored edge at a leaf root
            # slopes downhill away from it (at most one exists)
            for eid in colored_children:
                e = graph.edges[eid]
                slopes[eid] = -1 if e.u == v else 1
        else:
            parent_out = 0
            if pe is not None and coloring[pe] == 1:
                e = graph.edges[pe]
                parent_out = slopes[pe] if e.u == v else -slopes[pe]
            c = len(colored_children)
            if (c + abs(parent_out)) % 2 != 0:
                raise ColoringError(f"coloring violates parity at vertex {v}")
            n_minus = (c + parent_out) // 2
            n_plus = c - n_minus
            m = min(n_minus, n_plus)
            outs = [-1, +1] * m + [-1] * (n_minus - m) + [+1] * (n_plus - m)
            for eid, out in zip(colored_children, outs):
                e = graph.edges[eid]
                slopes[eid] = out if e.u == v else -out
        for eid, w in adj[v]:
            if eid != pe and parent_edge.get(w) == eid:
                e = graph.edges[eid]
                values[w] = values[v] + (slopes[eid] * e.length if e.u == v else -slopes[eid] * e.length)

    return GFunction(tuple(slopes), tuple(values))
