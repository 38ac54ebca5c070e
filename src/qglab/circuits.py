"""Resistive-circuit view of a metric graph, in exact rational arithmetic.

Every edge is a resistor whose resistance equals its length; leaf edges act
as external leads and their free ends are the terminals.  Nodal analysis with
terminal voltages as boundary data decides, exactly, which edges can carry
current: an edge that carries none under every terminal assignment (a
generalized bridge balance) obstructs full-support slope families, which is
the working criterion for the weakened quadratic spectral inequality.

Floats are converted to ``Fraction`` exactly (binary rationals), so "zero
current" is a statement about the input lengths, not about tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import MetricGraph, TopologyClass, classify_topology, require_valid


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class CircuitEdge:
    a: int
    b: int
    conductance: Fraction
    graph_edge: int | None  # None marks a synthetic lead resistor


@dataclass(frozen=True)
class CircuitModel:
    n_nodes: int
    edges: tuple[CircuitEdge, ...]
    terminals: tuple[int, ...]


def build_circuit(
    graph: MetricGraph,
    terminals: list[int] | None = None,
    lead_resistance: Fraction | float = 1,
) -> CircuitModel:
    """Circuit with one node per vertex and conductance 1/length per edge.

    ``terminals`` defaults to all leaf ends.  A requested terminal that is
    not a leaf end gets a synthetic series resistor of ``lead_resistance``
    to a fresh terminal node (the stand-in for an unbounded lead).
    """
    require_valid(graph)
    leaves = graph.leaf_vertices()
    if terminals is None:
        terminals = list(leaves)
    n_nodes = graph.num_vertices
    edges = [
        CircuitEdge(e.u, e.v, Fraction(1) / Fraction(e.length), i)
        for i, e in enumerate(graph.edges)
    ]
    term_nodes = []
    for t in terminals:
        if not 0 <= t < graph.num_vertices:
            raise CircuitError(f"terminal {t} is not a vertex")
        if t in leaves:
            term_nodes.append(t)
        else:
            node = n_nodes
            n_nodes += 1
            edges.append(CircuitEdge(t, node, Fraction(1) / Fraction(lead_resistance), None))
            term_nodes.append(node)
    if len(set(term_nodes)) != len(term_nodes):
        raise CircuitError("duplicate terminals")
    return CircuitModel(n_nodes, tuple(edges), tuple(term_nodes))


@dataclass
class CurrentSolution:
    potentials: tuple[Fraction, ...]
    currents: tuple[Fraction, ...]  # signed along each circuit edge a -> b
    voltages: dict[int, Fraction]


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise CircuitError("singular nodal system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def solve_nodal(circuit: CircuitModel, voltages: dict[int, Fraction | int]) -> CurrentSolution:
    """Exact potentials and currents for the given terminal voltages.

    Kirchhoff's current law holds at every non-terminal node as an exact
    rational identity.  A component that touches no terminal has no pinned
    potential and is reported as an error.
    """
    if not circuit.terminals:
        raise CircuitError("need at least one terminal")
    missing = [t for t in circuit.terminals if t not in voltages]
    if missing:
        raise CircuitError(f"missing voltage for terminal {missing[0]}")
    fixed = {t: Fraction(voltages[t]) for t in circuit.terminals}

    reach = set(circuit.terminals)
    frontier = list(circuit.terminals)
    adj: list[list[tuple[int, Fraction]]] = [[] for _ in range(circuit.n_nodes)]
    for e in circuit.edges:
        if e.a != e.b:
            adj[e.a].append((e.b, e.conductance))
            adj[e.b].append((e.a, e.conductance))
    while frontier:
        v = frontier.pop()
        for w, _ in adj[v]:
            if w not in reach:
                reach.add(w)
                frontier.append(w)
    if len(reach) != circuit.n_nodes:
        orphan = next(v for v in range(circuit.n_nodes) if v not in reach)
        raise CircuitError(f"node {orphan} is in a component with no terminal")

    unknown = [v for v in range(circuit.n_nodes) if v not in fixed]
    index = {v: i for i, v in enumerate(unknown)}
    n = len(unknown)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    rhs = [Fraction(0) for _ in range(n)]
    for v in unknown:
        i = index[v]
        for w, g in adj[v]:
            matrix[i][i] += g
            if w in fixed:
                rhs[i] += g * fixed[w]
            else:
                matrix[i][index[w]] -= g
    solution = _solve_exact(matrix, rhs) if n else []

    potentials = [Fraction(0)] * circuit.n_nodes
    for v in range(circuit.n_nodes):
        potentials[v] = fixed[v] if v in fixed else solution[index[v]]
    currents = tuple(
        (potentials[e.a] - potentials[e.b]) * e.conductance for e in circuit.edges
    )
    return CurrentSolution(tuple(potentials), currents, fixed)


@dataclass
class SupportAnalysis:
    dead_edges: tuple[int, ...]  # graph edge ids with zero current in all probes
    a_min: Fraction | None
    a_max: Fraction | None
    probes: list[CurrentSolution]
    note: str = ""


def support_analysis(circuit: CircuitModel) -> SupportAnalysis:
    """Probe with the basis of terminal voltages (last terminal grounded).

    Currents depend linearly on terminal voltages and constants carry no
    current, so an edge is dead precisely when it is exactly zero in every
    basis probe.  With all edges live, each probe is normalized to maximum
    current 1 and ``a_min``/``a_max`` bound the per-edge maxima of the
    squared normalized currents over the probe family.
    """
    graph_edge_ids = sorted({e.graph_edge for e in circuit.edges if e.graph_edge is not None})
    if len(circuit.terminals) < 2:
        return SupportAnalysis(
            dead_edges=tuple(graph_edge_ids),
            a_min=None,
            a_max=None,
            probes=[],
            note="fewer than 2 terminals: only the zero current exists",
        )
    probes = []
    for t in circuit.terminals[:-1]:
        voltages = {s: Fraction(1 if s == t else 0) for s in circuit.terminals}
        probes.append(solve_nodal(circuit, voltages))

    dead = []
    for gid in graph_edge_ids:
        rows = [i for i, e in enumerate(circuit.edges) if e.graph_edge == gid]
        if all(p.currents[i] == 0 for p in probes for i in rows):
            dead.append(gid)

    a_min = a_max = None
    if not dead:
        per_edge_max = {gid: Fraction(0) for gid in graph_edge_ids}
        for p in probes:
            peak = max(abs(c) for c in p.currents)
            if peak == 0:
                continue
            for gid in graph_edge_ids:
                rows = [i for i, e in enumerate(circuit.edges) if e.graph_edge == gid]
                val = max((p.currents[i] / peak) ** 2 for i in rows)
                per_edge_max[gid] = max(per_edge_max[gid], val)
        a_min = min(per_edge_max.values())
        a_max = max(per_edge_max.values())
    return SupportAnalysis(tuple(dead), a_min, a_max, probes)


@dataclass
class GFamilyVerdict:
    exists_full_support: bool
    condition_a: bool
    dead_edges: tuple[int, ...]
    a_min: Fraction | None
    a_max: Fraction | None
    reason: str
    #: The verdict implements a conjectured criterion, not a theorem.
    criterion: str = "conjectured"


def g_family_verdict(graph: MetricGraph) -> GFamilyVerdict:
    """Decide existence of a full-support slope family for the graph.

    Fails when (a) some cycle hangs off a single cut point, or (b) nodal
    analysis exhibits a dead edge (generalized bridge balance).  Otherwise a
    full-support family is expected to exist; the criterion is heuristic for
    general graphs.
    """
    topo = classify_topology(graph)
    condition_a = topo.topology_class is TopologyClass.CUT_VERTEX_CYCLE
    support = support_analysis(build_circuit(graph))
    exists = not condition_a and not support.dead_edges
    if condition_a:
        reason = "a cycle can be cut off from all leads at one point"
    elif support.dead_edges:
        reason = f"dead edges under every lead voltage: {list(support.dead_edges)}"
    else:
        reason = "all edges carry current under some lead voltage"
    return GFamilyVerdict(
        exists_full_support=exists,
        condition_a=condition_a,
        dead_edges=support.dead_edges,
        a_min=support.a_min,
        a_max=support.a_max,
        reason=reason,
    )
