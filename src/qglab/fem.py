"""P1 finite elements on metric graphs.

The quadratic form ``E(phi) = alpha * int |phi'|^2 + int V |phi|^2`` is
discretized with continuous piecewise-linear elements that share one degree of
freedom per vertex, so Kirchhoff matching arises as the natural condition of
the form and needs no vertex stencils.  Dirichlet leaf values are eliminated.

Self-loops are expanded into two half-edges of equal length joined at a
synthetic midpoint vertex; a degree-2 Kirchhoff vertex is spectrally
invisible, so this changes nothing but makes assembly uniform.

Eigenpairs come from shift-invert Lanczos, or from dense LAPACK for small
systems and large shares of the spectrum.  Every Lanczos result is certified
complete, multiplicities included, by counting eigenvalues with Sylvester's
law of inertia; a result that fails the count raises ``SolverError``.  The
negative eigenvalues alone come from one such count at 0 and one solve of
exactly that many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .graphs import DIRICHLET, MetricGraph, require_valid

#: Systems up to this many degrees of freedom go to dense LAPACK, whose
#: ``O(n^3)`` cost is still below the fixed cost of the sparse path.
DENSE_DOF_CAP = 300

#: Dense LAPACK also takes every request for more than this share ``k/n`` of
#: the spectrum: the Lanczos basis grows with ``k`` and its cost overtakes
#: the dense solve.  This also sends ``k >= n - 1``, which ARPACK refuses,
#: to LAPACK.
DENSE_K_FRACTION = 1.0 / 6.0

#: Half-width of the inertia certificate's window around the top computed
#: eigenvalue ``E_k``, relative to ``max(|E_k|, E_k - sigma)``.  On the Y
#: graph, the balloon and ``fancy_balloon(4)`` (``n`` up to 3334) the counts
#: were exact at a tenth of this distance from every eigenvalue.
CERT_RTOL = 1e-8


class SolverError(RuntimeError):
    """Eigensolver failure, or a result that fails the completeness certificate."""


@dataclass(frozen=True)
class Segment:
    """One meshed piece of an edge, oriented by the edge's own arclength.

    ``offset`` is the arclength of the segment's start within its parent
    edge, so node positions on the parent edge are ``offset + t``.
    """

    edge_id: int
    start: int
    end: int
    length: float
    offset: float


@dataclass
class Mesh:
    graph: MetricGraph
    segments: list[Segment]
    cells: list[int]
    n_solver_vertices: int
    vertex_dof: np.ndarray  # -1 marks an eliminated Dirichlet vertex
    interior_start: list[int]
    ndof: int
    #: ``V`` at the mesh nodes of each segment, evaluated once on construction
    node_potential: list[np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        self.node_potential = []
        for si, seg in enumerate(self.segments):
            edge = self.graph.edges[seg.edge_id]
            self.node_potential.append(edge.potential.evaluate(self.node_positions(si), edge.length))

    def node_dofs(self, si: int) -> np.ndarray:
        """Global DOF per mesh node of segment ``si`` (-1 where eliminated)."""
        c = self.cells[si]
        seg = self.segments[si]
        dofs = np.empty(c + 1, dtype=int)
        dofs[0] = self.vertex_dof[seg.start]
        dofs[-1] = self.vertex_dof[seg.end]
        dofs[1:-1] = np.arange(c - 1) + self.interior_start[si]
        return dofs

    def node_values(self, si: int, vectors: np.ndarray) -> np.ndarray:
        """Mesh-node values of eigenvector columns, zeros at Dirichlet nodes."""
        dofs = self.node_dofs(si)
        cols = vectors.shape[1] if vectors.ndim == 2 else 1
        vals = np.zeros((len(dofs), cols) if vectors.ndim == 2 else len(dofs))
        mask = dofs >= 0
        vals[mask] = vectors[dofs[mask]]
        return vals

    def node_positions(self, si: int) -> np.ndarray:
        """Arclength of segment nodes within the parent edge."""
        seg = self.segments[si]
        c = self.cells[si]
        return seg.offset + np.linspace(0.0, seg.length, c + 1)

    @property
    def min_potential(self) -> float:
        return min(float(v.min()) for v in self.node_potential)


def _expand_segments(graph: MetricGraph) -> tuple[list[Segment], int]:
    """Non-loop edges map to one segment; self-loops to two half-edges joined
    at a fresh midpoint vertex."""
    segments: list[Segment] = []
    next_vertex = graph.num_vertices
    for i, e in enumerate(graph.edges):
        if e.is_loop:
            mid = next_vertex
            next_vertex += 1
            half = 0.5 * e.length
            segments.append(Segment(i, e.u, mid, half, 0.0))
            segments.append(Segment(i, mid, e.v, half, half))
        else:
            segments.append(Segment(i, e.u, e.v, e.length, 0.0))
    return segments, next_vertex


def build_mesh(graph: MetricGraph, target_h: float) -> Mesh:
    """Uniform subdivision per edge: ``max(2, ceil(length / target_h))`` cells,
    overridden by an edge's ``cells`` hint (split evenly across loop halves)."""
    if target_h <= 0:
        raise ValueError("target_h must be positive")
    require_valid(graph)

    segments, n_solver_vertices = _expand_segments(graph)
    cells = []
    for seg in segments:
        hint = graph.edges[seg.edge_id].cells
        if hint is not None:
            is_loop_half = graph.edges[seg.edge_id].is_loop
            cells.append(max(1, math.ceil(hint / 2)) if is_loop_half else hint)
        else:
            cells.append(max(2, math.ceil(seg.length / target_h)))

    vertex_dof = np.full(n_solver_vertices, -1, dtype=int)
    ndof = 0
    for v in range(n_solver_vertices):
        if v < graph.num_vertices and graph.boundary.get(v) == DIRICHLET:
            continue
        vertex_dof[v] = ndof
        ndof += 1
    interior_start = []
    for c in cells:
        interior_start.append(ndof)
        ndof += c - 1

    return Mesh(graph, segments, cells, n_solver_vertices, vertex_dof, interior_start, ndof)


@dataclass
class AssembledSystem:
    """Sparse symmetric matrices of the discrete form.

    ``base_stiffness`` does not carry the coupling ``alpha``, which makes
    coupling sweeps a rescale instead of a reassembly.
    """

    mesh: Mesh
    base_stiffness: scipy.sparse.csr_matrix
    potential: scipy.sparse.csr_matrix
    mass: scipy.sparse.csr_matrix
    alpha: float

    @property
    def ndof(self) -> int:
        return self.mesh.ndof

    def hamiltonian(self, alpha: float) -> scipy.sparse.csr_matrix:
        return (alpha * self.base_stiffness + self.potential).tocsr()


def assemble(mesh: Mesh) -> AssembledSystem:
    """Element matrices: stiffness ``(1/h)[[1,-1],[-1,1]]`` (times alpha in
    the Hamiltonian), consistent mass ``(h/6)[[2,1],[1,2]]``, and potential
    from the P1 interpolant of V against the consistent mass weights, which
    reproduces ``W = c*M`` exactly for constant potentials."""
    rows, cols = [], []
    k_vals, m_vals, w_vals = [], [], []

    for si, seg in enumerate(mesh.segments):
        c = mesh.cells[si]
        h = seg.length / c
        dofs = mesh.node_dofs(si)
        vnode = mesh.node_potential[si]

        a, b = dofs[:-1], dofs[1:]
        va, vb = vnode[:-1], vnode[1:]
        ones = np.ones(c)

        # entry order: (a,a), (a,b), (b,a), (b,b)
        rows.append(np.concatenate([a, a, b, b]))
        cols.append(np.concatenate([a, b, a, b]))
        k_vals.append(np.concatenate([ones, -ones, -ones, ones]) / h)
        m_vals.append(np.concatenate([2 * ones, ones, ones, 2 * ones]) * (h / 6.0))
        w_vals.append(
            np.concatenate([3 * va + vb, va + vb, va + vb, va + 3 * vb]) * (h / 12.0)
        )

    r = np.concatenate(rows)
    c_ = np.concatenate(cols)
    keep = (r >= 0) & (c_ >= 0)
    r, c_ = r[keep], c_[keep]
    shape = (mesh.ndof, mesh.ndof)

    def build(vals):
        v = np.concatenate(vals)[keep]
        return scipy.sparse.coo_matrix((v, (r, c_)), shape=shape).tocsr()

    return AssembledSystem(
        mesh=mesh,
        base_stiffness=build(k_vals),
        potential=build(w_vals),
        mass=build(m_vals),
        alpha=mesh.graph.alpha,
    )


@dataclass
class Spectrum:
    """Ordered eigenpairs with per-edge mass and derivative-form tables.

    ``edge_mass[m, j]`` is the squared L2 norm of eigenfunction ``j`` on edge
    ``m`` and ``edge_dirichlet[m, j]`` the squared L2 norm of its derivative
    there (coupling-free).  Vectors are mass-orthonormal, so each
    ``edge_mass[:, j]`` column sums to 1.
    """

    energies: np.ndarray
    vectors: np.ndarray
    mesh: Mesh
    alpha: float
    edge_mass: np.ndarray
    edge_dirichlet: np.ndarray

    def total_dirichlet(self) -> np.ndarray:
        return self.edge_dirichlet.sum(axis=0)

    def __len__(self) -> int:
        return len(self.energies)


def _edge_tables(mesh: Mesh, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_edges = len(mesh.graph.edges)
    k = vectors.shape[1]
    mass = np.zeros((n_edges, k))
    dirich = np.zeros((n_edges, k))
    for si, seg in enumerate(mesh.segments):
        c = mesh.cells[si]
        h = seg.length / c
        vals = mesh.node_values(si, vectors)
        a, b = vals[:-1], vals[1:]
        mass[seg.edge_id] += ((2 * a * a + 2 * a * b + 2 * b * b) * (h / 6.0)).sum(axis=0)
        dirich[seg.edge_id] += (((b - a) ** 2) / h).sum(axis=0)
    return mass, dirich


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # First coefficient that is not numerically zero is made positive.
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        thresh = 1e-8 * np.abs(v).max()
        nz = np.nonzero(np.abs(v) > thresh)[0]
        if len(nz) and v[nz[0]] < 0:
            vectors[:, j] = -v
    return vectors


def _count_below(ham: scipy.sparse.spmatrix, mass: scipy.sparse.spmatrix, cutoff: float) -> int:
    """Eigenvalues of the pencil ``(ham, mass)`` below ``cutoff``, with
    multiplicity.

    ``mass`` is positive definite, so by Sylvester's law of inertia this is
    the number of negative pivots of a symmetric ``LDL^T`` factorization of
    ``ham - cutoff * mass``.  SuperLU in symmetric mode with diagonal pivots
    returns one as ``L U`` with ``U = D L^T``, provided its row and column
    orders agree.
    """
    try:
        lu = scipy.sparse.linalg.splu(
            (ham - cutoff * mass).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # exactly singular: cutoff is an eigenvalue
        raise SolverError(f"inertia count at {cutoff:.12g} failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(f"inertia count at {cutoff:.12g} needs a symmetric pivot order")
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _certify(ham: scipy.sparse.spmatrix, mass: scipy.sparse.spmatrix, energies: np.ndarray, sigma: float) -> None:
    """Raise ``SolverError`` unless ascending ``energies`` are the lowest
    ``len(energies)`` eigenvalues of the pencil, multiplicities included.

    Every eigenvalue below ``E_k - delta`` must have been found, and at least
    ``k`` must lie below ``E_k + delta``.  Then each computed eigenvalue is
    within ``2 delta`` of the true one at its index; a cluster cut at ``k``
    is cut the same way by any solver.
    """
    top = float(energies[-1])
    delta = CERT_RTOL * max(abs(top), top - sigma)
    found = int(np.count_nonzero(energies < top - delta))
    below = _count_below(ham, mass, top - delta)
    upto = _count_below(ham, mass, top + delta)
    if below != found or upto < len(energies):
        raise SolverError(
            f"incomplete spectrum: {below} eigenvalues lie below {top - delta:.12g} but the solver"
            f" found {found}, and {upto} lie below {top + delta:.12g} where {len(energies)} were computed"
        )


def solve_spectrum(
    system: AssembledSystem,
    k: int,
    alpha: float | None = None,
    dense_cap: int = DENSE_DOF_CAP,
) -> Spectrum:
    """Lowest ``k`` eigenpairs of the assembled generalized problem.

    Dense LAPACK when ``n <= dense_cap`` or ``k / n > DENSE_K_FRACTION``;
    otherwise shift-invert Lanczos from a start vector seeded by ``n``,
    certified complete by two inertia counts.  The shift
    ``min(0, min V) - alpha (pi / L)^2`` (``L`` the total length) lies below
    ``E_1``, since ``H - (min V) M`` is positive semidefinite for the P1
    interpolant of ``V``, and scales with the graph's own level spacing, so
    a shallow band of wanted eigenvalues is not crowded together.  Vectors are
    mass-orthonormal with the first nonzero coefficient positive, so repeat
    runs are reproducible.
    """
    n = system.ndof
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    a_coupling = system.alpha if alpha is None else alpha
    if a_coupling <= 0:
        raise ValueError("alpha must be positive")
    ham = system.hamiltonian(a_coupling)
    dense = n <= dense_cap or k > DENSE_K_FRACTION * n
    sigma = min(0.0, system.mesh.min_potential) - a_coupling * (math.pi / system.mesh.graph.total_length) ** 2

    try:
        if dense:
            w, vecs = scipy.linalg.eigh(
                ham.toarray(), system.mass.toarray(), subset_by_index=(0, k - 1)
            )
        else:
            w, vecs = scipy.sparse.linalg.eigsh(
                ham,
                k=k,
                M=system.mass.tocsc(),
                sigma=sigma,
                which="LM",
                # a Gaussian start vector reaches every eigenvector; ones(n)
                # is invariant under graph automorphisms and misses the
                # antisymmetric ones
                v0=np.random.default_rng(n).standard_normal(n),
                ncv=min(n - 1, max(2 * k + 1, 40)),
                tol=0,
            )
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        raise SolverError(f"eigensolver failed: {exc}") from exc

    order = np.argsort(w, kind="stable")
    w = np.asarray(w)[order]
    vecs = np.asarray(vecs)[:, order]
    if not dense:
        _certify(ham, system.mass, w, sigma)
    # enforce mass-orthonormal columns regardless of backend
    mnorm = np.sqrt(np.einsum("ij,ij->j", vecs, system.mass @ vecs))
    vecs = vecs / mnorm
    vecs = _fix_signs(vecs)

    mass, dirich = _edge_tables(system.mesh, vecs)
    return Spectrum(
        energies=w,
        vectors=vecs,
        mesh=system.mesh,
        alpha=a_coupling,
        edge_mass=mass,
        edge_dirichlet=dirich,
    )


def solve_bound_states(system: AssembledSystem, alpha: float) -> np.ndarray:
    """Every negative eigenvalue at coupling ``alpha``, ascending.

    One inertia count at 0 gives their number ``m``; one ``solve_spectrum``
    of exactly ``m`` eigenvalues then returns them, and none is solved for
    when ``m == 0``.  Moments of the negative spectrum are never truncated.
    """
    negative = _count_below(system.hamiltonian(alpha), system.mass, 0.0)
    if negative == 0:
        return np.empty(0)
    return solve_spectrum(system, negative, alpha=alpha).energies


def solve_graph(
    graph: MetricGraph,
    target_h: float,
    k: int,
    alpha: float | None = None,
    dense_cap: int = DENSE_DOF_CAP,
) -> Spectrum:
    """Mesh, assemble, and solve in one call."""
    mesh = build_mesh(graph, target_h)
    return solve_spectrum(assemble(mesh), k, alpha=alpha, dense_cap=dense_cap)


def degenerate_clusters(energies: np.ndarray, rtol: float = 1e-8) -> list[tuple[int, ...]]:
    """Group indices of eigenvalues that coincide to relative tolerance.

    Per-state quantities inside a cluster depend on the eigenbasis the solver
    happened to return; only cluster sums of the per-edge tables are well
    defined, and every check in this package consumes sums.
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


def kirchhoff_residuals(spectrum: Spectrum) -> np.ndarray:
    """Sum of outward one-sided difference quotients per free vertex.

    Shape ``(n_solver_vertices, k)``; rows of eliminated (Dirichlet) vertices
    are zero.  Tends to zero with the mesh for every true Kirchhoff vertex.
    """
    mesh = spectrum.mesh
    res = np.zeros((mesh.n_solver_vertices, len(spectrum)))
    for si, seg in enumerate(mesh.segments):
        h = seg.length / mesh.cells[si]
        vals = mesh.node_values(si, spectrum.vectors)
        if mesh.vertex_dof[seg.start] >= 0:
            res[seg.start] += (vals[1] - vals[0]) / h
        if mesh.vertex_dof[seg.end] >= 0:
            res[seg.end] += (vals[-2] - vals[-1]) / h
    return res


def eigenfunction_samples(spectrum: Spectrum, j: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-edge ``(arclength, value)`` samples of eigenfunction ``j``.

    Arclength is measured from each edge's "from" endpoint; the duplicate
    midpoint node of an expanded self-loop is dropped.
    """
    mesh = spectrum.mesh
    per_edge: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for si, seg in enumerate(mesh.segments):
        x = mesh.node_positions(si)
        y = mesh.node_values(si, spectrum.vectors[:, [j]])[:, 0]
        per_edge.setdefault(seg.edge_id, []).append((x, y))
    out = []
    for eid in range(len(mesh.graph.edges)):
        pieces = per_edge[eid]
        xs = [pieces[0][0]]
        ys = [pieces[0][1]]
        for x, y in pieces[1:]:
            xs.append(x[1:])
            ys.append(y[1:])
        out.append((np.concatenate(xs), np.concatenate(ys)))
    return out


def integrate_potential_power(mesh: Mesh, power: float, shift: float = 0.0) -> float:
    """Composite trapezoid of ``((V - shift)_-)**power`` over the graph.

    ``x_- = max(-x, 0)`` is the negative part; the same mesh nodes as the
    assembly are used.
    """
    total = 0.0
    for si, seg in enumerate(mesh.segments):
        c = mesh.cells[si]
        h = seg.length / c
        neg = np.maximum(-(mesh.node_potential[si] - shift), 0.0) ** power
        total += h * (neg.sum() - 0.5 * (neg[0] + neg[-1]))
    return float(total)
