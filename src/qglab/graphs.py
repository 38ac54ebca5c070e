"""Metric graphs: combinatorial structure, edge lengths, potentials, vertex conditions.

A :class:`MetricGraph` couples a combinatorial multigraph (self-loops allowed)
with positive edge lengths, a potential on each edge, and a boundary condition
at every degree-1 vertex.  Interior vertices always carry Kirchhoff conditions
(continuity plus vanishing sum of outward derivatives).

Orientation convention: arclength on an edge is measured from its ``u``
("from") endpoint.  All per-edge output in this package (potentials,
eigenfunction samples, circuit currents, slopes) follows that convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Union, get_args, get_type_hints

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


class GraphFormatError(ValueError):
    """A graph description file violates the schema."""


class InvalidGraphError(ValueError):
    """An operation that requires a valid graph received an invalid one."""


# ---------------------------------------------------------------------------
# potentials
#
# A potential kind is one class: ``kind`` is its ``type`` in graph files, its
# dataclass fields are its other file keys, ``scaled(s)`` is the potential
# ``V(x/s)/s^2`` on the edge stretched by ``s``, and ``pieces(length)`` lists
# its constant pieces ``(left, right, value)`` along the edge, or none where V
# is not piecewise constant.


@dataclass(frozen=True)
class Zero:
    kind = "zero"

    def evaluate(self, x: np.ndarray, length: float) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def scaled(self, s: float) -> Zero:
        return self

    def pieces(self, length: float) -> tuple[tuple[float, float, float], ...]:
        return ((0.0, length, 0.0),)


@dataclass(frozen=True)
class PoschlTeller:
    """Attractive sech-squared well ``-2 a^2 / cosh^2(a (x - center))``."""

    kind = "poschl_teller"
    a: float
    center: float

    def evaluate(self, x: np.ndarray, length: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return -2.0 * self.a**2 / np.cosh(self.a * (x - self.center)) ** 2

    def scaled(self, s: float) -> PoschlTeller:
        return PoschlTeller(a=self.a / s, center=self.center * s)

    def pieces(self, length: float) -> tuple:
        return ()


@dataclass(frozen=True)
class SquareWell:
    """Constant ``depth`` on ``[left, right]``, zero elsewhere on the edge."""

    kind = "square_well"
    depth: float
    left: float
    right: float

    def evaluate(self, x: np.ndarray, length: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = (x >= self.left) & (x <= self.right)
        return np.where(inside, self.depth, 0.0)

    def scaled(self, s: float) -> SquareWell:
        return SquareWell(depth=self.depth / s**2, left=self.left * s, right=self.right * s)

    def pieces(self, length: float) -> tuple[tuple[float, float, float], ...]:
        left = min(max(self.left, 0.0), length)
        right = min(max(self.right, left), length)
        ends = ((0.0, left, 0.0), (left, right, self.depth), (right, length, 0.0))
        return tuple(piece for piece in ends if piece[1] > piece[0])


@dataclass(frozen=True)
class Sampled:
    """Values on a uniform arclength grid spanning the whole edge.

    Evaluation between samples is linear interpolation, which matches the
    P1 quadrature used by the assembler, so assembly is exact for sampled
    potentials on their own grid.
    """

    kind = "sampled"
    values: tuple[float, ...]

    def evaluate(self, x: np.ndarray, length: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        grid = np.linspace(0.0, length, len(self.values))
        return np.interp(x, grid, np.asarray(self.values, dtype=float))

    def scaled(self, s: float) -> Sampled:
        return Sampled(tuple(v / s**2 for v in self.values))

    def pieces(self, length: float) -> tuple:
        return ()


PotentialSpec = Union[Zero, PoschlTeller, SquareWell, Sampled]
_POTENTIALS = {cls.kind: cls for cls in get_args(PotentialSpec)}

ZERO = Zero()


# ---------------------------------------------------------------------------
# graph


@dataclass(frozen=True)
class Edge:
    """Edge between vertices ``u`` and ``v`` with positive arclength ``length``.

    ``u == v`` is a self-loop; solvers expand it into two coordinate
    half-edges joined at a synthetic midpoint vertex, and it contributes 2 to
    the degree of ``u``.  ``cells`` optionally pins the mesh resolution of
    this edge regardless of the global target.
    """

    u: int
    v: int
    length: float
    potential: PotentialSpec = ZERO
    cells: int | None = None

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


@dataclass(frozen=True)
class MetricGraph:
    """Immutable metric graph; safe to share across concurrent solver runs.

    ``boundary`` maps degree-1 vertex ids to ``"dirichlet"`` or ``"neumann"``.
    ``alpha`` is the global coupling in front of the second-derivative term.
    """

    num_vertices: int
    edges: tuple[Edge, ...]
    boundary: dict[int, str] = field(default_factory=dict)
    alpha: float = 1.0

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_vertices, dtype=int)
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return deg

    @property
    def total_length(self) -> float:
        return float(sum(e.length for e in self.edges))

    def leaf_vertices(self) -> list[int]:
        return [v for v, d in enumerate(self.degrees()) if d == 1]

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per vertex, the incident ``(edge_id, other_endpoint)`` pairs.

        A self-loop at ``v`` appears twice in ``adj[v]``.
        """
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for i, e in enumerate(self.edges):
            adj[e.u].append((i, e.v))
            adj[e.v].append((i, e.u))
        return adj

    def components(self, removed: int | None = None) -> list[list[int]]:
        """Vertex lists of the connected pieces left when vertex ``removed``
        and its incident edges are deleted (none when ``removed`` is None)."""
        adj = self.adjacency()
        seen = [False] * self.num_vertices
        if removed is not None:
            seen[removed] = True
        pieces = []
        for start in range(self.num_vertices):
            if seen[start]:
                continue
            seen[start] = True
            piece = [start]
            for v in piece:
                for _, w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        piece.append(w)
            pieces.append(piece)
        return pieces

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def potential_is_zero(self) -> bool:
        return all(isinstance(e.potential, Zero) for e in self.edges)

    def potential_is_piecewise_constant(self) -> bool:
        return all(e.potential.pieces(e.length) for e in self.edges)


def scale_graph(graph: MetricGraph, s: float) -> MetricGraph:
    """Scale all lengths by ``s`` with the matched potential scaling.

    Lengths map to ``s*length`` and potentials to ``V(x/s)/s^2``, so every
    eigenvalue maps to ``E/s^2`` and all dimensionless spectral ratios are
    unchanged.
    """
    if s <= 0:
        raise ValueError("scale factor must be positive")
    edges = tuple(replace(e, length=e.length * s, potential=e.potential.scaled(s)) for e in graph.edges)
    return MetricGraph(graph.num_vertices, edges, dict(graph.boundary), graph.alpha)


def split_at_jumps(graph: MetricGraph) -> MetricGraph:
    """The graph cut at the jumps of its potential into edges of constant V.

    Each piece of an edge becomes an edge of its own, with ``ZERO`` or a
    square well over its whole length, joined to the next by a new degree-2
    Kirchhoff vertex (numbered after the others), which leaves the spectrum
    unchanged.  An edge of one piece is kept as it is, so a graph with no
    jump is returned unchanged.  Raises ``ValueError`` on a potential
    that is not piecewise constant.
    """
    return split_with_sources(graph)[0]


def split_with_sources(graph: MetricGraph) -> tuple[MetricGraph, tuple[int, ...]]:
    """``split_at_jumps(graph)`` and, for each of its edges, the index of
    the edge of ``graph`` that it lies on."""
    edges, sources, n = [], [], graph.num_vertices
    for i, e in enumerate(graph.edges):
        pieces = e.potential.pieces(e.length)
        if not pieces:
            raise ValueError(f"edge {i}: a {e.potential.kind} potential is not piecewise constant")
        sources += [i] * len(pieces)
        if len(pieces) == 1:
            edges.append(e)
            continue
        ends = [e.u, *range(n, n + len(pieces) - 1), e.v]
        n += len(pieces) - 1
        for (left, right, value), u, v in zip(pieces, ends, ends[1:]):
            length = right - left
            edges.append(Edge(u, v, length, SquareWell(value, 0.0, length) if value else ZERO))
    if n == graph.num_vertices:
        return graph, tuple(sources)
    return MetricGraph(n, tuple(edges), dict(graph.boundary), graph.alpha), tuple(sources)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    errors: list[str]
    degrees: dict[int, int]
    total_length: float

    @property
    def valid(self) -> bool:
        return not self.errors


def validate(graph: MetricGraph) -> ValidationReport:
    """Structural validation.  Problems are reported, never raised."""
    errors: list[str] = []
    n = graph.num_vertices
    if n < 1:
        errors.append("graph has no vertices")
    if not graph.edges:
        errors.append("graph has no edges")
    if not (graph.alpha > 0 and math.isfinite(graph.alpha)):
        errors.append(f"nonpositive alpha {graph.alpha}")

    endpoints_ok = True
    for i, e in enumerate(graph.edges):
        if not (0 <= e.u < n and 0 <= e.v < n):
            endpoints_ok = False
            errors.append(f"edge {i}: endpoint out of range ({e.u}, {e.v})")
        if not (e.length > 0 and math.isfinite(e.length)):
            errors.append(f"edge {i}: nonpositive length {e.length}")
        if e.cells is not None and e.cells < 1:
            errors.append(f"edge {i}: nonpositive cell count {e.cells}")
        if isinstance(e.potential, PoschlTeller) and not e.potential.a > 0:
            errors.append(f"edge {i}: Poschl-Teller parameter must be positive")
        if isinstance(e.potential, Sampled) and len(e.potential.values) < 2:
            errors.append(f"edge {i}: sampled potential needs at least 2 values")

    degrees = {}
    if endpoints_ok:
        deg = graph.degrees() if n >= 1 else np.zeros(0, dtype=int)
        degrees = {v: int(d) for v, d in enumerate(deg)}
        for v, d in degrees.items():
            bc = graph.boundary.get(v)
            if d == 1 and bc not in (DIRICHLET, NEUMANN):
                errors.append(f"leaf vertex {v} missing boundary condition")
            if d != 1 and bc is not None:
                errors.append(f"boundary condition on non-leaf vertex {v}")
        for v, bc in graph.boundary.items():
            if bc not in (DIRICHLET, NEUMANN):
                errors.append(f"vertex {v}: unknown boundary condition {bc!r}")
            if not (0 <= v < n):
                errors.append(f"boundary condition on unknown vertex {v}")

    # the search indexes vertices by edge endpoints
    if endpoints_ok and not graph.is_connected():
        errors.append("graph is not connected")
    return ValidationReport(errors, degrees, graph.total_length)


def require_valid(graph: MetricGraph) -> None:
    report = validate(graph)
    if not report.valid:
        raise InvalidGraphError("; ".join(report.errors))


# ---------------------------------------------------------------------------
# topology


class TopologyClass(Enum):
    TREE = "tree"
    ONE_LOOP_WITH_LEADS = "one_loop_with_leads"
    CUT_VERTEX_CYCLE = "cut_vertex_cycle"
    GENERAL = "general"


@dataclass
class TopologyReport:
    topology_class: TopologyClass
    betti: int
    cycle_cut_vertices: list[int]


def classify_topology(graph: MetricGraph) -> TopologyReport:
    """Classify the graph by its cycle structure relative to its leaves.

    ``cycle_cut_vertices`` lists every vertex whose removal (as a metric
    point) disconnects some cycle-containing subgraph from all leaves; a
    self-loop base vertex always qualifies, and so does every vertex of a
    graph that has no leaves at all.
    """
    require_valid(graph)
    n = graph.num_vertices
    betti = len(graph.edges) - n + 1
    leaves = set(graph.leaf_vertices())

    cut: list[int] = []
    if betti > 0:
        loop_bases = {e.u for e in graph.edges if e.is_loop}
        for v in range(n):
            if v in leaves:
                # removing the last leaf makes "cut off from all leaves" vacuous
                continue
            # A piece left by deleting v that holds no leaf is, as a point set
            # of the metric graph, cut off from every leaf by the single point
            # v (and its closure necessarily contains a cycle).
            if v in loop_bases or any(leaves.isdisjoint(piece) for piece in graph.components(removed=v)):
                cut.append(v)

    if betti == 0:
        cls = TopologyClass.TREE
    elif cut:
        cls = TopologyClass.CUT_VERTEX_CYCLE
    elif betti == 1:
        cls = TopologyClass.ONE_LOOP_WITH_LEADS
    else:
        cls = TopologyClass.GENERAL
    return TopologyReport(cls, betti, cut)


# ---------------------------------------------------------------------------
# graph description files (JSON syntax, strict keys)

_TOP_KEYS = {"alpha", "vertices", "edges"}
_VERTEX_KEYS = {"id", "bc"}
_EDGE_KEYS = {"from", "to", "length", "potential", "cells"}


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise GraphFormatError(f"{where}: unknown key {unknown[0]!r}")


def _potential_from_obj(obj, where: str) -> PotentialSpec:
    if obj is None:
        return ZERO
    if not isinstance(obj, dict):
        raise GraphFormatError(f"{where}: potential must be an object")
    kind = obj.get("type")
    cls = _POTENTIALS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise GraphFormatError(f"{where}: unknown potential type {kind!r}")
    types = get_type_hints(cls)  # field name -> float or tuple[float, ...]
    _reject_unknown(obj, {"type", *types}, where)
    fields = {}
    for key, t in types.items():
        value = obj.get(key)
        if t is float:
            fields[key] = _number(value, f"{where}: potential {key!r}")
        elif isinstance(value, (list, tuple)):
            fields[key] = tuple(_number(v, f"{where}: potential {key!r} entry") for v in value)
        else:
            raise GraphFormatError(f"{where}: potential {key!r} must be a list of numbers, got {value!r}")
    return cls(**fields)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _number(value, what: str) -> float:
    """A JSON number as a float; a bool, a string or a list is refused."""
    if not (_is_int(value) or isinstance(value, float)):
        raise GraphFormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise GraphFormatError(f"{what} must fit a float") from None


def graph_from_dict(data: dict) -> MetricGraph:
    if not isinstance(data, dict):
        raise GraphFormatError("top level: expected an object")
    _reject_unknown(data, _TOP_KEYS, "top level")
    alpha = _number(data.get("alpha", 1.0), "top level: 'alpha'")

    vertices = data.get("vertices")
    if not isinstance(vertices, list):
        raise GraphFormatError("top level: missing or bad 'vertices' list")
    boundary: dict[int, str] = {}
    ids = []
    for i, v in enumerate(vertices):
        where = f"vertices[{i}]"
        if not isinstance(v, dict):
            raise GraphFormatError(f"{where}: expected an object")
        _reject_unknown(v, _VERTEX_KEYS, where)
        if "id" not in v:
            raise GraphFormatError(f"{where}: missing 'id'")
        vid = v["id"]
        if not _is_int(vid):
            raise GraphFormatError(f"{where}: 'id' must be an integer")
        ids.append(vid)
        bc = v.get("bc")
        if bc is not None:
            if bc not in (DIRICHLET, NEUMANN):
                raise GraphFormatError(f"{where}: unknown bc {bc!r}")
            boundary[vid] = bc
    if sorted(ids) != list(range(len(ids))):
        raise GraphFormatError("vertex ids must be unique and dense from 0")

    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise GraphFormatError("top level: missing or bad 'edges' list")
    edges = []
    for i, e in enumerate(raw_edges):
        where = f"edges[{i}]"
        if not isinstance(e, dict):
            raise GraphFormatError(f"{where}: expected an object")
        _reject_unknown(e, _EDGE_KEYS, where)
        for key in ("from", "to"):
            if not _is_int(e.get(key)):
                raise GraphFormatError(f"{where}: {key!r} must be an integer")
        length = _number(e.get("length"), f"{where}: 'length'")
        cells = e.get("cells")
        if cells is not None and not (_is_int(cells) and cells >= 1):
            raise GraphFormatError(f"{where}: 'cells' must be a positive integer")
        potential = _potential_from_obj(e.get("potential"), where)
        edges.append(Edge(e["from"], e["to"], length, potential, cells))

    return MetricGraph(len(ids), tuple(edges), boundary, alpha)


def graph_to_dict(graph: MetricGraph) -> dict:
    vertices = []
    for v in range(graph.num_vertices):
        vertices.append({"id": v, "bc": graph.boundary.get(v)})
    edges = []
    for e in graph.edges:
        edges.append(
            {
                "from": e.u,
                "to": e.v,
                "length": e.length,
                "potential": {"type": e.potential.kind, **asdict(e.potential)},
                "cells": e.cells,
            }
        )
    return {"alpha": graph.alpha, "vertices": vertices, "edges": edges}


def load_graph(path) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}: not valid JSON ({exc})") from exc
    return graph_from_dict(data)


def save_graph(graph: MetricGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(graph), fh, indent=2, sort_keys=True)
        fh.write("\n")
