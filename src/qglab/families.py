"""Canonical graph builders: named model families, fixtures, random trees."""

from __future__ import annotations

import math

import numpy as np

from .analytic import PT_BALLOON_A
from .graphs import (
    DIRICHLET,
    ZERO,
    Edge,
    MetricGraph,
    PoschlTeller,
    PotentialSpec,
    SquareWell,
)

TWO_PI = 2.0 * math.pi


def interval(
    length: float = 1.0,
    potential: PotentialSpec = ZERO,
    alpha: float = 1.0,
) -> MetricGraph:
    """Single edge from vertex 0 to vertex 1, Dirichlet at both ends."""
    return MetricGraph(2, (Edge(0, 1, length, potential),), {0: DIRICHLET, 1: DIRICHLET}, alpha)


def star(
    lengths,
    potentials=None,
) -> MetricGraph:
    """Star with center vertex 0 and one Dirichlet leaf per entry of ``lengths``."""
    lengths = list(lengths)
    m = len(lengths)
    potentials = list(potentials) if potentials is not None else [ZERO] * m
    edges = tuple(Edge(0, i + 1, lengths[i], potentials[i]) for i in range(m))
    boundary = {i + 1: DIRICHLET for i in range(m)}
    if m == 1:
        boundary[0] = DIRICHLET
    return MetricGraph(m + 1, edges, boundary, 1.0)


def y_graph() -> MetricGraph:
    return star([1.0, 1.0, 1.0])


def balloon(
    string_length: float = math.pi,
    loop_potential: PotentialSpec = ZERO,
) -> MetricGraph:
    """Loop of length ``2 pi`` (edge 0, a self-loop at vertex 0) plus a string
    (edge 1) to the Dirichlet vertex 1."""
    edges = (
        Edge(0, 0, TWO_PI, loop_potential),
        Edge(0, 1, string_length),
    )
    return MetricGraph(2, edges, {1: DIRICHLET}, 1.0)


def poschl_teller_balloon(string_length: float = 60.0) -> MetricGraph:
    """Balloon with the single-bound-state sech-squared well centered opposite
    the junction; the string stands in for an infinite lead, so make it long."""
    well = PoschlTeller(a=PT_BALLOON_A, center=math.pi)
    return balloon(string_length=string_length, loop_potential=well)


def poschl_teller_interval(half_length: float = 40.0) -> MetricGraph:
    """The same well on a plain interval (no loop), centered in the middle."""
    well = PoschlTeller(a=PT_BALLOON_A, center=half_length)
    return interval(2.0 * half_length, potential=well)


def fancy_balloon(
    n_parallel: int,
) -> MetricGraph:
    """String of length ``pi`` (edge 0) at vertex 0 plus ``n_parallel``
    parallel edges 0--1 of length ``pi``."""
    if n_parallel < 2:
        raise ValueError("need at least 2 parallel edges")
    edges = [Edge(0, 2, math.pi)]
    edges += [Edge(0, 1, math.pi) for _ in range(n_parallel)]
    return MetricGraph(3, tuple(edges), {2: DIRICHLET}, 1.0)


def circle_with_leads(
    lead: float = 1.0,
    well: SquareWell | None = None,
) -> MetricGraph:
    """Circle of two semicircle edges (0 and 1) of length ``pi`` between
    vertices 0 and 1, with a lead at each junction (edges 2 and 3, Dirichlet
    far ends).

    ``well`` is placed on semicircle edge 0 when given.
    """
    edges = (
        Edge(0, 1, math.pi, well if well is not None else ZERO),
        Edge(0, 1, math.pi),
        Edge(0, 2, lead),
        Edge(1, 3, lead),
    )
    return MetricGraph(4, edges, {2: DIRICHLET, 3: DIRICHLET}, 1.0)


def wheatstone(
    arms: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0),
    bridge: float = 1.0,
) -> MetricGraph:
    """Bridge circuit graph: unit leads at vertices 0 and 5, bridge edge
    between 2 and 3.

    Vertices: 0 lead end, 1 left junction, 2 upper mid, 3 lower mid,
    4 right junction, 5 lead end.  Edge order: lead, arm 1-2, arm 1-3,
    arm 2-4, arm 3-4, bridge 2-3, lead.  ``arms`` follows that order.
    """
    edges = (
        Edge(0, 1, 1.0),
        Edge(1, 2, arms[0]),
        Edge(1, 3, arms[1]),
        Edge(2, 4, arms[2]),
        Edge(3, 4, arms[3]),
        Edge(2, 3, bridge),
        Edge(4, 5, 1.0),
    )
    return MetricGraph(6, edges, {0: DIRICHLET, 5: DIRICHLET}, 1.0)


def hash_graph() -> tuple[MetricGraph, dict[int, tuple[float, float]]]:
    """Planar '#'-shaped grid: two vertical and two horizontal lines.

    Lines cross at ``{1, 2} x {1, 2}`` and extend over ``[0, 3]`` in both
    directions, so every internal vertex has degree 4 (no vertex touches
    exactly three edges) and every line end is a Dirichlet leaf.  Returns the
    graph and the planar coordinates of each vertex.
    """
    lo, hi = 0.0, 3.0
    xs = ys = [1.0, 2.0]
    coords: dict[int, tuple[float, float]] = {}
    index: dict[tuple[float, float], int] = {}

    def node(x: float, y: float) -> int:
        key = (x, y)
        if key not in index:
            index[key] = len(index)
            coords[index[key]] = key
        return index[key]

    edges: list[Edge] = []
    for x in xs:
        stops = [lo] + ys + [hi]
        for a, b in zip(stops[:-1], stops[1:]):
            edges.append(Edge(node(x, a), node(x, b), b - a))
    for y in ys:
        stops = [lo] + xs + [hi]
        for a, b in zip(stops[:-1], stops[1:]):
            edges.append(Edge(node(a, y), node(b, y), b - a))

    graph = MetricGraph(len(index), tuple(edges), {}, 1.0)
    boundary = {v: DIRICHLET for v in graph.leaf_vertices()}
    return MetricGraph(len(index), tuple(edges), boundary, 1.0), coords


def random_tree(
    rng: np.random.Generator,
    n_edges: int,
    length_range: tuple[float, float] = (0.3, 3.0),
) -> MetricGraph:
    """Random recursive tree with uniform edge lengths and Dirichlet leaves."""
    if n_edges < 1:
        raise ValueError("need at least one edge")
    lo, hi = length_range
    edges = []
    for k in range(n_edges):
        parent = 0 if k == 0 else int(rng.integers(0, k + 1))
        length = float(rng.uniform(lo, hi))
        edges.append(Edge(parent, k + 1, length))
    graph = MetricGraph(n_edges + 1, tuple(edges), {}, 1.0)
    boundary = {v: DIRICHLET for v in graph.leaf_vertices()}
    return MetricGraph(n_edges + 1, tuple(edges), boundary, 1.0)


def with_square_well(
    graph: MetricGraph,
    edge_id: int,
    depth: float,
    width_fraction: float = 0.6,
) -> MetricGraph:
    """Copy of ``graph`` with a centered square well on one edge."""
    e = graph.edges[edge_id]
    half = 0.5 * width_fraction * e.length
    mid = 0.5 * e.length
    well = SquareWell(depth=depth, left=mid - half, right=mid + half)
    edges = list(graph.edges)
    edges[edge_id] = Edge(e.u, e.v, e.length, well, e.cells)
    return MetricGraph(graph.num_vertices, tuple(edges), dict(graph.boundary), graph.alpha)
