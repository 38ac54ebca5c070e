"""P1 finite elements on metric graphs.

The quadratic form ``E(phi) = alpha * int |phi'|^2 + int V |phi|^2`` is
discretized with continuous piecewise-linear elements that share one degree of
freedom per vertex, so Kirchhoff matching arises as the natural condition of
the form and needs no vertex stencils.  Dirichlet leaf values are eliminated.

Self-loops are expanded into two half-edges of equal length joined at a
synthetic midpoint vertex; a degree-2 Kirchhoff vertex is spectrally
invisible, so this changes nothing but makes assembly uniform.  Every mesh
segment owns its node arrays: arclength, degree of freedom and potential.

Eigenpairs come from shift-invert Lanczos, or from dense LAPACK for small
systems and large shares of the spectrum.  Every Lanczos result is certified
complete, multiplicities included, by counting eigenvalues with Sylvester's
law of inertia; a result that fails the count falls back to dense LAPACK, or
raises ``SolverError`` where that would not fit the memory budget.
``solve_spectrum`` returns eigenpairs with their per-edge tables;
``solve_energies`` returns the energies alone, through the same solver path
without eigenvector extraction.  ``solve_bound_states`` is the one rule for
the negative eigenvalues: those of a certified solve with a nonnegative top,
or else one inertia count at 0 and one energies-only solve of that many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

#: Smallest Lanczos basis, in vectors, that a sparse solve asks for.
MIN_NCV = 40

#: Bytes a solve may hold: the dense ``H`` and ``M``, or the Lanczos basis.  The
#: largest default ``verify`` basis on the fixtures is 5.5 MiB (``pt_interval``).
MEMORY_BUDGET = 1 << 30


class SolverError(RuntimeError):
    """Eigensolver failure, or a result that fails the completeness certificate."""


class MemoryBudgetError(ValueError):
    """A mesh or solve over ``MEMORY_BUDGET``; ``param`` (``target_h`` or ``k``) asked for it."""

    def __init__(self, param: str, what: str, need: int):
        super().__init__(f"{what} needs {need / 2**30:.3g} GiB, above the {MEMORY_BUDGET / 2**30:g} GiB memory budget")
        self.param = param


def require_budget(param: str, what: str, need: float) -> None:
    """Refuse ``what``, which needs ``need`` bytes, before it is allocated
    when that is over ``MEMORY_BUDGET``; ``param`` asked for it.  Every mesh
    and solve, P1 or exact, is guarded here."""
    if need > MEMORY_BUDGET:
        raise MemoryBudgetError(param, what, need)


@dataclass(frozen=True, eq=False)
class Segment:
    """One meshed piece of an edge, oriented by the edge's own arclength.

    A segment owns its mesh nodes: ``x`` is their arclength within the
    parent edge, ``dofs`` their global degrees of freedom (-1 at an
    eliminated Dirichlet vertex) and ``v`` the potential there, evaluated
    once when the mesh is built.
    """

    edge_id: int
    start: int
    end: int
    length: float
    x: np.ndarray
    dofs: np.ndarray
    v: np.ndarray

    @property
    def cells(self) -> int:
        return len(self.x) - 1

    @property
    def h(self) -> float:
        return self.length / self.cells

    def values(self, vectors: np.ndarray) -> np.ndarray:
        """Rows of ``vectors`` at this segment's nodes, zero where eliminated."""
        vals = np.zeros((len(self.dofs),) + vectors.shape[1:])
        mask = self.dofs >= 0
        vals[mask] = vectors[self.dofs[mask]]
        return vals


@dataclass
class Mesh:
    """Segments that cover the graph, and the size of the discrete system.

    The ``n_solver_vertices`` solver vertices are the graph's vertices, then
    self-loop midpoints.  Their degrees of freedom come first, in that order
    and without Dirichlet leaves; interior nodes follow segment by segment.
    """

    graph: MetricGraph
    segments: list[Segment]
    n_solver_vertices: int
    ndof: int

    @property
    def cells(self) -> list[int]:
        return [seg.cells for seg in self.segments]

    @property
    def edge_cells(self) -> list[int]:
        """Cells per graph edge, both halves of a self-loop together."""
        cells = [0] * len(self.graph.edges)
        for seg in self.segments:
            cells[seg.edge_id] += seg.cells
        return cells

    @property
    def min_potential(self) -> float:
        return min(float(seg.v.min()) for seg in self.segments)


def build_mesh(graph: MetricGraph, target_h: float) -> Mesh:
    """Uniform subdivision per edge: ``max(2, ceil(length / target_h))`` cells,
    overridden by an edge's ``cells`` hint (split evenly across loop halves).

    A self-loop becomes two half-edges joined at a fresh midpoint vertex.  A
    mesh whose smallest solve exceeds ``MEMORY_BUDGET`` is refused first.
    """
    if target_h <= 0:
        raise ValueError("target_h must be positive")
    require_valid(graph)
    if not math.isfinite(graph.total_length / target_h):  # a subnormal target_h
        raise MemoryBudgetError("target_h", "the smallest solve on infinitely many cells", math.inf)

    pieces = []  # (edge id, edge, start vertex, end vertex, length, x0 = arclength of the start, cells)
    n_solver_vertices = graph.num_vertices
    for i, e in enumerate(graph.edges):
        if e.is_loop:
            mid = n_solver_vertices
            n_solver_vertices += 1
            half = 0.5 * e.length
            c = max(2, math.ceil(half / target_h)) if e.cells is None else max(1, math.ceil(e.cells / 2))
            pieces += [(i, e, e.u, mid, half, 0.0, c), (i, e, mid, e.v, half, half, c)]
        else:
            c = max(2, math.ceil(e.length / target_h)) if e.cells is None else e.cells
            pieces.append((i, e, e.u, e.v, e.length, 0.0, c))
    cells = sum(piece[-1] for piece in pieces)
    require_budget("target_h", f"the smallest solve on {cells} cells", cells * MIN_NCV * 8)

    free = [v for v in range(n_solver_vertices) if graph.boundary.get(v) != DIRICHLET]
    dof_of = np.full(n_solver_vertices, -1, dtype=int)
    dof_of[free] = np.arange(len(free))
    ndof = len(free)
    segments = []
    for i, e, start, end, length, x0, c in pieces:
        x = x0 + np.linspace(0.0, length, c + 1)
        dofs = np.concatenate(([dof_of[start]], np.arange(ndof, ndof + c - 1), [dof_of[end]]))
        ndof += c - 1
        segments.append(Segment(i, start, end, length, x, dofs, e.potential.evaluate(x, e.length)))
    return Mesh(graph, segments, n_solver_vertices, ndof)


@dataclass
class AssembledSystem:
    """Sparse symmetric matrices of the discrete form.

    ``base_stiffness`` does not carry the coupling ``alpha``, which makes
    coupling sweeps a rescale instead of a reassembly.  The system is the
    spectral model that the ``inequalities`` moment checks read, on its mesh.
    """

    mesh: Mesh
    base_stiffness: scipy.sparse.csr_matrix
    potential: scipy.sparse.csr_matrix
    mass: scipy.sparse.csr_matrix

    @property
    def ndof(self) -> int:
        return self.mesh.ndof

    @property
    def alpha(self) -> float:
        return self.mesh.graph.alpha

    @property
    def min_potential(self) -> float:
        return self.mesh.min_potential

    def hamiltonian(self, alpha: float) -> scipy.sparse.csr_matrix:
        return (alpha * self.base_stiffness + self.potential).tocsr()

    def bound_states(self, alpha: float, solved: np.ndarray | None = None) -> np.ndarray:
        return solve_bound_states(self, alpha, solved=solved)

    def negative_integral(self, power: float, shift: float = 0.0) -> float:
        return integrate_potential_power(self.mesh, power, shift=shift)


def assemble(mesh: Mesh) -> AssembledSystem:
    """Element matrices: stiffness ``(1/h)[[1,-1],[-1,1]]`` (times alpha in
    the Hamiltonian), consistent mass ``(h/6)[[2,1],[1,2]]``, and potential
    from the P1 interpolant of V against the consistent mass weights, which
    reproduces ``W = c*M`` exactly for constant potentials."""
    rows, cols = [], []
    k_vals, m_vals, w_vals = [], [], []

    for seg in mesh.segments:
        a, b = seg.dofs[:-1], seg.dofs[1:]
        va, vb = seg.v[:-1], seg.v[1:]
        ones = np.ones(seg.cells)

        # entry order: (a,a), (a,b), (b,a), (b,b)
        rows.append(np.concatenate([a, a, b, b]))
        cols.append(np.concatenate([a, b, a, b]))
        k_vals.append(np.concatenate([ones, -ones, -ones, ones]) / seg.h)
        m_vals.append(np.concatenate([2 * ones, ones, ones, 2 * ones]) * (seg.h / 6.0))
        w_vals.append(np.concatenate([3 * va + vb, va + vb, va + vb, va + 3 * vb]) * (seg.h / 12.0))

    r = np.concatenate(rows)
    c_ = np.concatenate(cols)
    keep = (r >= 0) & (c_ >= 0)
    r, c_ = r[keep], c_[keep]
    shape = (mesh.ndof, mesh.ndof)

    def build(vals):
        v = np.concatenate(vals)[keep]
        return scipy.sparse.coo_matrix((v, (r, c_)), shape=shape).tocsr()

    return AssembledSystem(mesh, build(k_vals), build(w_vals), build(m_vals))


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
    mass = np.zeros((n_edges, vectors.shape[1]))
    dirich = np.zeros_like(mass)
    for seg in mesh.segments:
        vals = seg.values(vectors)
        a, b = vals[:-1], vals[1:]
        mass[seg.edge_id] += ((2 * a * a + 2 * a * b + 2 * b * b) * (seg.h / 6.0)).sum(axis=0)
        dirich[seg.edge_id] += (((b - a) ** 2) / seg.h).sum(axis=0)
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


def _eigensolve(
    system: AssembledSystem, k: int, alpha: float, vectors: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The one eigensolver path: the lowest ``k`` energies, ascending, and
    their raw eigenvectors as columns when ``vectors`` (else ``None``).

    Dense LAPACK when ``n <= DENSE_DOF_CAP`` or ``k / n > DENSE_K_FRACTION``;
    otherwise shift-invert Lanczos from a start vector seeded by ``n``,
    certified complete by two inertia counts.  A Lanczos solve that fails
    or fails its certificate falls back to dense LAPACK when the dense
    ``H`` and ``M`` fit ``MEMORY_BUDGET``, and raises otherwise.  The shift
    ``min(0, min V) - alpha (pi / L)^2`` (``L`` the total length) lies below
    ``E_1``, since ``H - (min V) M`` is positive semidefinite for the P1
    interpolant of ``V``, and scales with the graph's own level spacing, so
    a shallow band of wanted eigenvalues is not crowded together.  A solve
    over ``MEMORY_BUDGET`` is refused first.
    """
    n = system.ndof
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    ham = system.hamiltonian(alpha)
    dense = n <= DENSE_DOF_CAP or k > DENSE_K_FRACTION * n
    sigma = min(0.0, system.mesh.min_potential) - alpha * (math.pi / system.mesh.graph.total_length) ** 2
    ncv = min(n - 1, max(2 * k + 1, MIN_NCV))
    dense_bytes = 2 * n * n * 8
    if dense:
        require_budget("k", f"a dense solve of {n} unknowns", dense_bytes)
    else:
        require_budget("k", f"a Lanczos basis of {ncv} vectors of length {n}", n * ncv * 8)

    def lowest(sparse: bool) -> tuple[np.ndarray, np.ndarray | None]:
        try:
            if sparse:
                result = scipy.sparse.linalg.eigsh(
                    ham,
                    k=k,
                    M=system.mass.tocsc(),
                    sigma=sigma,
                    which="LM",
                    # a Gaussian start vector reaches every eigenvector; ones(n)
                    # is invariant under graph automorphisms and misses the
                    # antisymmetric ones
                    v0=np.random.default_rng(n).standard_normal(n),
                    ncv=ncv,
                    tol=0,
                    return_eigenvectors=vectors,
                )
            else:
                result = scipy.linalg.eigh(
                    ham.toarray(), system.mass.toarray(), subset_by_index=(0, k - 1), eigvals_only=not vectors
                )
        except (np.linalg.LinAlgError, RuntimeError) as exc:
            raise SolverError(f"eigensolver failed: {exc}") from exc
        w, vecs = result if vectors else (result, None)
        order = np.argsort(w, kind="stable")
        w = np.asarray(w)[order]
        if sparse:
            _certify(ham, system.mass, w, sigma)
        return w, None if vecs is None else np.asarray(vecs)[:, order]

    if not dense:
        try:
            return lowest(sparse=True)
        except SolverError:  # e.g. Lanczos missed one copy of a repeated eigenvalue
            if dense_bytes > MEMORY_BUDGET:
                raise
    return lowest(sparse=False)


def solve_spectrum(system: AssembledSystem, k: int) -> Spectrum:
    """Lowest ``k`` eigenpairs of the assembled generalized problem, at the
    graph's coupling.

    Vectors are mass-orthonormal with the first nonzero coefficient
    positive, so repeat runs are reproducible.
    """
    alpha = system.mesh.graph.alpha
    w, vecs = _eigensolve(system, k, alpha, vectors=True)
    # enforce mass-orthonormal columns regardless of backend
    mnorm = np.sqrt(np.einsum("ij,ij->j", vecs, system.mass @ vecs))
    vecs = vecs / mnorm
    vecs = _fix_signs(vecs)

    mass, dirich = _edge_tables(system.mesh, vecs)
    return Spectrum(
        energies=w,
        vectors=vecs,
        mesh=system.mesh,
        alpha=alpha,
        edge_mass=mass,
        edge_dirichlet=dirich,
    )


def solve_energies(system: AssembledSystem, k: int, alpha: float | None = None) -> np.ndarray:
    """The lowest ``k`` energies alone, ascending, from the same backend,
    start vector, shift and certificate as ``solve_spectrum``.

    The eigensolver skips its eigenvector extraction, and no vector is
    normalized or tabulated.
    """
    alpha = system.mesh.graph.alpha if alpha is None else alpha
    return _eigensolve(system, k, alpha, vectors=False)[0]


def solve_bound_states(system: AssembledSystem, alpha: float, solved: np.ndarray | None = None) -> np.ndarray:
    """Every negative eigenvalue at coupling ``alpha``, ascending.

    With ``V >= 0`` at every node there is none, and nothing is factored:
    ``alpha K`` is positive semidefinite, and so is each cell's block of
    ``W``, whose determinant is ``(2 va^2 + 8 va vb + 2 vb^2) (h / 12)^2``.
    ``solved`` may hold the lowest eigenvalues at ``alpha`` from a certified
    solve; if its top is nonnegative, none below is missing and its negative
    part is returned.  Otherwise one inertia count at 0 gives their number
    ``m``, and one ``solve_energies`` of exactly ``m`` returns them (none when
    ``m == 0``).  Moments of the negative spectrum are never truncated.
    """
    if system.mesh.min_potential >= 0.0:
        return np.empty(0)
    if solved is not None and solved[-1] >= 0.0:
        return solved[solved < 0.0]
    negative = _count_below(system.hamiltonian(alpha), system.mass, 0.0)
    if negative == 0:
        return np.empty(0)
    return solve_energies(system, negative, alpha=alpha)


def solve_graph(
    graph: MetricGraph,
    target_h: float,
    k: int,
) -> Spectrum:
    """Mesh, assemble, and solve in one call, at the graph's own coupling."""
    mesh = build_mesh(graph, target_h)
    return solve_spectrum(assemble(mesh), k)


def degenerate_clusters(energies: np.ndarray) -> list[tuple[int, ...]]:
    """Group indices of eigenvalues that coincide to relative tolerance ``1e-8``.

    Per-state quantities inside a cluster depend on the eigenbasis the solver
    happened to return; only cluster sums of the per-edge tables are well
    defined, and every check in this package consumes sums.
    """
    energies = np.asarray(energies, dtype=float)
    clusters: list[tuple[int, ...]] = []
    current = [0]
    for j in range(1, len(energies)):
        scale = max(abs(energies[j]), abs(energies[j - 1]), 1e-300)
        if abs(energies[j] - energies[j - 1]) <= 1e-8 * scale:
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
    for seg in mesh.segments:
        vals = seg.values(spectrum.vectors)
        if seg.dofs[0] >= 0:
            res[seg.start] += (vals[1] - vals[0]) / seg.h
        if seg.dofs[-1] >= 0:
            res[seg.end] += (vals[-2] - vals[-1]) / seg.h
    return res


def eigenfunction_samples(spectrum: Spectrum, j: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-edge ``(arclength, value)`` samples of eigenfunction ``j``.

    Arclength is measured from each edge's "from" endpoint; the duplicate
    midpoint node of an expanded self-loop is dropped.
    """
    mesh = spectrum.mesh
    xs: list[list[np.ndarray]] = [[] for _ in mesh.graph.edges]
    ys: list[list[np.ndarray]] = [[] for _ in mesh.graph.edges]
    for seg in mesh.segments:
        first = 1 if xs[seg.edge_id] else 0
        xs[seg.edge_id].append(seg.x[first:])
        ys[seg.edge_id].append(seg.values(spectrum.vectors[:, j])[first:])
    return [(np.concatenate(x), np.concatenate(y)) for x, y in zip(xs, ys)]


def integrate_potential_power(mesh: Mesh, power: float, shift: float = 0.0) -> float:
    """Composite trapezoid of ``((V - shift)_-)**power`` over the graph.

    ``x_- = max(-x, 0)`` is the negative part; the same mesh nodes as the
    assembly are used.
    """
    total = 0.0
    for seg in mesh.segments:
        neg = np.maximum(-(seg.v - shift), 0.0) ** power
        total += seg.h * (neg.sum() - 0.5 * (neg[0] + neg[-1]))
    return float(total)
