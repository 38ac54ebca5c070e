"""P1 finite elements on metric graphs.

The quadratic form ``E(phi) = alpha * int |phi'|^2 + int V |phi|^2`` is
discretized with continuous piecewise-linear elements that share one degree of
freedom per vertex, so Kirchhoff matching arises as the natural condition of
the form and needs no vertex stencils.  Dirichlet leaf values are eliminated.

Self-loops are expanded into two half-edges of equal length joined at a
synthetic midpoint vertex; a degree-2 Kirchhoff vertex is spectrally
invisible, so this changes nothing but makes assembly uniform.  Every mesh
segment owns its node arrays: arclength, degree of freedom and potential.
Its cell rule (``edge_cells``) and size rule (``unknowns``) need no mesh.

Eigenpairs come from shift-invert Lanczos, or from dense LAPACK for small
systems and large shares of the spectrum.  Every Lanczos result is certified
complete, multiplicities included, by counting eigenvalues with Sylvester's
law of inertia; a result that fails the count falls back to dense LAPACK, or
raises ``SolverError`` where that would not fit the memory budget.  The
count (``_chain_counter``) factors no sparse matrix: each segment's interior
nodes are a tridiagonal chain, counted by LAPACK's tridiagonal routines, and
the free vertices a small separator, counted through its dense Schur
complement.  ``solve_spectrum`` returns eigenpairs with their per-edge
tables; ``solve_energies`` returns the energies alone, through the same
solver path without eigenvector extraction.  ``AssembledSystem.bound_states``
is the one rule for the negative eigenvalues: those of a certified solve with
a nonnegative top, or else the count at 0 and one bracket pass for a grid of
couplings, with no eigensolver.  ``_close_brackets`` is the one bracket driver
of this count and of the exact count of ``analytic``: it starts each bracket
from seeds already counted, closes it, and checks that every count rises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

#: ``solve_bound_states`` stops a bracket at this width relative to its
#: top, in ``t = sqrt((E - min V) / alpha)``.
BOUND_RTOL = 1e-12

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
    def min_potential(self) -> float:
        return min(float(seg.v.min()) for seg in self.segments)


def edge_cells(graph: MetricGraph, target_h: float) -> list[int]:
    """Cells per edge of the mesh at ``target_h``: ``max(2, ceil(length /
    target_h))``, or the edge's ``cells`` hint; a self-loop, both halves of
    half its length or hint (rounded up), on a valid graph
    (``require_valid``).  A mesh whose smallest solve exceeds
    ``MEMORY_BUDGET`` is refused here, before anything is built."""
    if target_h <= 0:
        raise ValueError("target_h must be positive")
    if not math.isfinite(graph.total_length / target_h):  # a subnormal target_h
        raise MemoryBudgetError("target_h", "the smallest solve on infinitely many cells", math.inf)
    cells = []
    for e in graph.edges:
        halves = 2 if e.is_loop else 1
        per_half = max(2, math.ceil(e.length / halves / target_h)) if e.cells is None else -(-e.cells // halves)
        cells.append(halves * per_half)
    require_budget("target_h", f"the smallest solve on {sum(cells)} cells", sum(cells) * MIN_NCV * 8)
    return cells


def _free_vertices(graph: MetricGraph) -> list[int]:
    return [v for v in range(graph.num_vertices) if graph.boundary.get(v) != DIRICHLET]


def unknowns(graph: MetricGraph, cells):
    """Size of P1 on ``cells`` per edge: its free vertices and every edge's
    interior nodes, a self-loop's midpoint among them.  Where each edge's
    entry is an array, one per graph of ``graph``'s shape, so is the size."""
    return len(_free_vertices(graph)) + sum(c - 1 for c in cells)


def build_mesh(graph: MetricGraph, target_h: float) -> Mesh:
    """Uniform subdivision of each edge into its ``edge_cells``; a self-loop
    becomes two half-edges, joined at a fresh midpoint vertex."""
    require_valid(graph)
    pieces = []  # (edge id, edge, start vertex, end vertex, length, x0 = arclength of the start, cells)
    n_solver_vertices = graph.num_vertices
    for i, (e, c) in enumerate(zip(graph.edges, edge_cells(graph, target_h))):
        if e.is_loop:
            mid = n_solver_vertices
            n_solver_vertices += 1
            half = 0.5 * e.length
            pieces += [(i, e, e.u, mid, half, 0.0, c // 2), (i, e, mid, e.v, half, half, c // 2)]
        else:
            pieces.append((i, e, e.u, e.v, e.length, 0.0, c))

    free = _free_vertices(graph) + list(range(graph.num_vertices, n_solver_vertices))  # and every midpoint
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

    @cached_property
    def chains(self) -> ChainSplit:
        return _split_chains(self)

    def bound_states(self, alphas, solved: np.ndarray | None = None) -> list[np.ndarray]:
        """Every negative eigenvalue at each coupling of ``alphas``, ascending,
        one array per coupling, with no eigensolver.

        With ``V >= 0`` at every node there is none, and nothing is counted:
        ``alpha K`` is positive semidefinite, and so is each cell's block of
        ``W``, whose determinant is ``(2 va^2 + 8 va vb + 2 vb^2) (h / 12)^2``.
        ``solved`` may hold the lowest eigenvalues at the one coupling of
        ``alphas`` from a certified solve; if its top is nonnegative, none
        below is missing and its negative part is returned.  Otherwise one
        chain count at 0 (``_chain_counter``) gives each coupling its number
        ``m``, and one ``_close_brackets`` pass closes all of them in ``t``,
        where ``E = min V + alpha t^2``, each point at its own coupling.  A
        coupling's one seed is that count, ``t = sqrt(-min V / alpha)``, so
        its brackets start at ``[0, seed]``, as nothing lies below ``min V``,
        and close to ``BOUND_RTOL``.  A graph without a Dirichlet vertex whose
        ``V`` is one constant at every node has ``E_1 = min V``, the constant.
        """
        alphas, floor = np.asarray(alphas, dtype=float), self.mesh.min_potential
        if floor >= 0.0:
            return [np.empty(0) for _ in alphas]
        if solved is not None and solved[-1] >= 0.0:
            return [solved[solved < 0.0]]
        count, grid = _chain_counter(self, alphas), np.arange(len(alphas))
        first = count(np.zeros(len(alphas)), grid)
        flat = DIRICHLET not in self.mesh.graph.boundary.values() and max(s.v.max() for s in self.mesh.segments) == floor
        brackets = first[0] - flat * (first[0] > 0)  # per coupling, past E_1 = min V where flat
        member = np.repeat(grid, brackets)
        want = np.arange(len(member)) - (np.cumsum(brackets) - first[0])[member] + 1

        def counted(points, owners):
            # one count per (coupling, t), in a complex key that holds both exactly
            keys, at = np.unique(owners + 1j * points, return_inverse=True)
            owners, points = keys.real.astype(int), keys.imag
            return tuple(part[at] for part in count(floor + alphas[owners] * points**2, owners))

        seeds, below = np.sqrt(-floor / alphas), np.zeros(len(alphas), bool)  # E = 0, each coupling's one seed
        root = _close_brackets(counted, want, member, seeds, grid, below, first, BOUND_RTOL)[0]
        states = np.split(floor + alphas[member] * root**2, np.cumsum(brackets)[:-1])
        return [np.concatenate([np.full(n, floor), part]) for n, part in zip(first[0] - brackets, states)]

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


def _secant(x0, f0, x1, f1):
    """The zero of the line through ``(x0, f0)`` and ``(x1, f1)``; NaN where a value is."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return x1 - f1 * (x1 - x0) / (f1 - f0)


def _crossing(values: np.ndarray, shift: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The value whose sign decides ``N >= j`` at each point of a count with
    ``N = shift + (values > 0).sum()``, ``values`` descending: ``N >= j``
    exactly when the ``(j - shift)``-th largest value is positive; NaN where
    there is none."""
    r = j - shift - 1
    inside = (r >= 0) & (r < values.shape[1])
    value = np.full(len(r), np.nan)
    value[inside] = values[inside, r[inside]]
    return value


def _require_rising(t: np.ndarray, member: np.ndarray, total: np.ndarray) -> None:
    """Raise ``SolverError`` where a member's counts fall as ``t`` rises."""
    order = np.lexsort((t, member))  # stable: by member, then t
    if np.any((np.diff(total[order]) < 0) & (np.diff(member[order]) == 0)):
        raise SolverError("the eigenvalue count falls as the energy rises: roundoff swamped the count")


def _close_brackets(count, want, member, seeds, owner, below, first, rtol: float):
    """Bracket the ``want``-th eigenvalue of each bracket's ``member`` on a
    count ``N`` that rises with ``t``, and return the root in each with the
    bracket's ends ``lo`` and ``hi``, where ``N(lo) < want <= N(hi)``.

    ``count(points, owners)`` counts at ``points``, each for the member in
    ``owners``, and returns ``(N, shift, values)`` there, ``N = shift +
    (values > 0).sum()`` (``_crossing``).  ``first`` is that count at the
    ``seeds``, which are grouped by their ``owner`` in ascending order and
    ascend within each; ``below`` flags the seed just below a pole.  Each
    bracket starts at its member's lowest seed that reaches ``want``, and
    the seed below that one, or 0 where there is none; a bracket from a seed
    just below a pole to the next seed certifies the eigenvalue on the pole
    and is done.  Every other bracket is narrowed until it is at most
    ``rtol`` of ``hi`` wide, on its crossing value: the value whose sign
    decides ``N >= want``, which rises with ``t`` and has one root in a
    bracket free of poles.  A member's counts, the first included, that fall
    as ``t`` rises raise ``SolverError``, and so do seeds that reach fewer
    than ``want`` eigenvalues.

    Every step counts each bracket at its midpoint, so no bracket fails to
    halve, and at the pair ``x (1 -+ 0.4 rtol)`` around a secant point ``x``,
    which closes the bracket once the secant has converged.  Nothing is
    counted at ``x`` itself: a converged secant sits within the roundoff of
    the count, where counts at nearby points need not rise.  The secant runs
    through the latest two secant points (the upper one of each pair), or
    through the bracket's ends where those aim outside it.  The root is that
    of the crossing value between the bracket's ends, which leaves no bias of
    half a bracket; a bracket that is done (or whose secant misses it) is
    centred on it.
    """
    total, shift, values = first
    seen = [(seeds, owner, total)]  # every count's points, their members and N
    _require_rising(seeds, owner, total)
    start, end = np.searchsorted(owner, member), np.searchsorted(owner, member, side="right")
    # each bracket's upper seed, the first of its member's to reach want: the
    # totals rise within each owner, so the key rises too
    scale = max(total.max(initial=0), want.max(initial=0)) + 1
    at = np.searchsorted(owner * scale + total, member * scale + want)
    if np.any(at == end):
        b = np.argmax(np.where(at == end, want, -1))
        top = end[b] - 1
        raise SolverError(f"the count reaches only {total[top]} of {want[b]} eigenvalues below t = {seeds[top]:.12g}")
    low = at > start
    prev = np.where(low, at - 1, at)
    lo, hi = np.where(low, seeds[prev], 0.0), seeds[at]
    n_lo, n_hi = np.where(low, total[prev], 0), total[at]
    f_lo = np.where(low, _crossing(values[prev], shift[prev], want), np.nan)
    f_hi = _crossing(values[at], shift[at], want)
    done = low & below[prev]

    finish = np.array([1.0 - 0.4 * rtol, 1.0 + 0.4 * rtol])
    last = np.stack([lo, f_lo, hi, f_hi])
    while True:
        go = np.nonzero(~done & (hi - lo > rtol * hi))[0]
        if not len(go):
            break
        j, l, u = want[go], lo[go], hi[go]
        x = _secant(*last[:, go])
        outside = ~((l < x) & (x < u))
        x[outside] = _secant(l, f_lo[go], u, f_hi[go])[outside]
        # NaN where a value is missing
        x = np.minimum(np.maximum(x, l * finish[1]), u * finish[0])
        points = np.concatenate([0.5 * (l + u)[:, None], x[:, None] * finish], axis=1)
        valid = (l[:, None] < points) & (points < u[:, None])
        of = np.repeat(go, valid.sum(axis=1))
        n, shift, values = count(points[valid], member[of])
        seen.append((points[valid], member[of], n))
        total, value = np.full(points.shape, -1), np.full(points.shape, np.nan)
        total[valid], value[valid] = n, _crossing(values, shift, want[of])
        up = total >= j[:, None]
        down = valid & ~up
        rows = np.arange(len(go))
        i_hi = np.argmin(np.where(up, points, np.inf), axis=1)
        i_lo = np.argmax(np.where(down, points, -np.inf), axis=1)
        new_hi, new_lo = up[rows, i_hi], down[rows, i_lo]
        hi[go] = np.where(new_hi, points[rows, i_hi], u)
        n_hi[go] = np.where(new_hi, total[rows, i_hi], n_hi[go])
        f_hi[go] = np.where(new_hi, value[rows, i_hi], f_hi[go])
        lo[go] = np.where(new_lo, points[rows, i_lo], l)
        n_lo[go] = np.where(new_lo, total[rows, i_lo], n_lo[go])
        f_lo[go] = np.where(new_lo, value[rows, i_lo], f_lo[go])
        side = np.where(valid[:, 2], 2, 1)
        tried = valid[rows, side]
        new = np.stack([last[2, go], last[3, go], points[rows, side], value[rows, side]])
        last[:, go[tried]] = new[:, tried]
    if np.any(n_lo >= want) or np.any(n_hi < want):
        raise SolverError("a bracket fails N(lo) < j <= N(hi)")
    _require_rising(*(np.concatenate(part) for part in zip(*seen)))
    root = _secant(lo, f_lo, hi, f_hi)
    return np.where(~done & (lo <= root) & (root <= hi), root, 0.5 * (lo + hi)), lo, hi  # False where NaN


#: A chain's term in the Schur complement, ``b^T X b`` for its couplings
#: ``b`` and its block ``X`` of ``T^-1``, enters ``S`` while ``max|b|
#: max|X|`` is at most this.  Next to a pole of the chain, where ``X`` is
#: huge and would drown the small eigenvalues of ``S`` in roundoff, the
#: chain's first node joins ``S`` instead (``_chain_counter``).
NEAR_POLE = 20.0

#: The golden section: a graph with no free vertex takes the node this far
#: along its longest chain into the separator (``ChainSplit``), off the
#: nodes where a symmetric well's odd states vanish.
GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class ChainSplit:
    """The degrees of freedom split into a small separator and tridiagonal
    chains, which the inertia count of ``_chain_counter`` reads.

    The interior nodes of each mesh segment form a chain, coupled to the rest
    only through its two end nodes.  The free solver vertices are the
    ``separator``; a graph with none takes one node of its longest chain
    (``GOLDEN``), which splits that chain in two.  Chain ``c`` holds the
    degrees of freedom ``lo[c]`` to ``hi[c] - 1``, and its ``ends[c]`` are
    the separator slots it meets, each with its side (0 at its first node, 1
    at its last).  Every chain meets the separator, as only a leaf may be
    Dirichlet.  ``parts`` holds, for each of ``K``, ``W`` and ``M`` (the
    coupling-free stiffness, the potential and the mass), its diagonal, its
    first superdiagonal, its dense separator block, and each chain's entries
    at its first and its last node, shape ``(2, chains)``.
    """

    separator: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    ends: list[tuple[np.ndarray, np.ndarray]]
    parts: tuple


def _split_chains(system: AssembledSystem) -> ChainSplit:
    mesh = system.mesh
    separator = np.arange(mesh.ndof - sum(seg.cells - 1 for seg in mesh.segments))
    paths = [seg.dofs for seg in mesh.segments]
    if not len(separator) and mesh.ndof:
        longest = max(paths, key=len)
        separator = longest[[1 + int(GOLDEN * (len(longest) - 2))]]
    slot = np.full(mesh.ndof + 1, -1)  # a Dirichlet vertex, dof -1, reads the last entry
    slot[separator] = np.arange(len(separator))
    chains = []  # first dof, last dof + 1, and the dofs next to the first and the last
    for path in paths:
        cuts = np.concatenate(([0], np.flatnonzero(slot[path[1:-1]] >= 0) + 1, [len(path) - 1]))
        chains += [(path[a + 1], path[b - 1] + 1, path[a], path[b]) for a, b in zip(cuts[:-1], cuts[1:]) if b - a > 1]
    lo, hi, before, after = np.array(chains, dtype=int).reshape(-1, 4).T
    sides = np.stack([slot[before], slot[after]], axis=1)
    ends = [(row[row >= 0], np.flatnonzero(row >= 0)) for row in sides]
    parts = []
    for mat in (system.base_stiffness, system.potential, system.mass):
        coupling = [
            np.asarray(mat[np.maximum(dof, 0), node]).ravel() * (dof >= 0) for dof, node in ((before, lo), (after, hi - 1))
        ]
        block = mat[separator][:, separator].toarray()
        parts.append((mat.diagonal(), mat.diagonal(1), block, np.array(coupling)))
    return ChainSplit(separator, lo, hi, ends, tuple(parts))


def _unit_columns(size: int, nodes: np.ndarray) -> np.ndarray:
    """The unit vectors of length ``size`` at ``nodes``, as columns."""
    rhs = np.zeros((size, len(nodes)))
    rhs[nodes, np.arange(len(nodes))] = 1.0
    return rhs


def _tridiagonal_solve(d: np.ndarray, e: np.ndarray, rhs: np.ndarray, energy: float) -> tuple[int, np.ndarray]:
    """The negative eigenvalues of the symmetric tridiagonal ``T`` with
    diagonal ``d`` and off-diagonal ``e``, and ``T^-1 rhs``.

    A ``T`` that ``dptsv`` factors as positive definite has none; any other
    takes the Sturm count of ``dstebz`` (W. Kahan, 1966) and a ``dgtsv``
    solve.  A singular ``T`` (``energy`` on a pole) raises ``SolverError``.
    """
    e = e if len(d) > 1 else np.zeros(1)  # LAPACK reads no e of one node
    *_, x, info = scipy.linalg.lapack.dptsv(d, e, rhs)
    if not info:
        return 0, x
    negative = scipy.linalg.lapack.dstebz(d, e, 1, -math.inf, 0.0, 0, 0, math.inf, "B")[0]
    *_, x, info = scipy.linalg.lapack.dgtsv(e, d, e, rhs)
    if info:
        raise SolverError(f"inertia count at {energy:.12g} failed: it lies on a pole of a chain")
    return negative, x


def _chain_counter(system: AssembledSystem, alphas):
    """``count(E, member=0) -> (N, shift, values)`` for an array of energies,
    each at the coupling ``alphas[member]`` (``member`` an array, or one index
    for all; ``alphas`` an array, or one number): ``N`` the eigenvalues of the
    pencil ``(H, M)`` below each ``E``, multiplicities included, with no
    sparse factorization, bit for bit the same in any batch.

    ``M`` is positive definite, so by Sylvester's law of inertia ``N`` is
    the number of negative eigenvalues of ``A = H - E M``.  On the split of
    ``AssembledSystem.chains``, by the inertia additivity of the Schur
    complement (E. Haynsworth, 1968), ``N = sum_c n_-(T_c) + n_-(S)`` for the
    chains' tridiagonal blocks ``T_c`` and the separator's dense Schur
    complement ``S = A_ss - sum_c A_sc T_c^-1 A_cs``.  Each chain takes one
    tridiagonal solve (``_tridiagonal_solve``), which counts ``n_-(T_c)``
    and gives the block of ``T_c^-1`` at its ends that ``S`` reads.  Next to
    a pole of a chain (``NEAR_POLE``) its first node joins ``S`` in place of
    the chain, and the rest of the chain is eliminated.  ``values`` are the
    eigenvalues of ``-S``, descending (NaN-padded where ``S`` is smaller),
    and ``shift`` is the sum of the eliminated chains' negative counts, so
    ``N`` is ``shift`` plus the number of positive values.  Between poles,
    the energies where some ``T_c`` is singular, the values rise with ``E``.
    A count on a pole raises ``SolverError``.
    """
    split = system.chains
    stiffness, potential, mass = split.parts
    hamiltonians = [tuple(alpha * k + w for k, w in zip(stiffness, potential)) for alpha in np.atleast_1d(alphas)]
    m_diag, m_off, m_sep, m_ends = mass
    chains = []  # per chain: its dofs, its ends, the node of each, and unit vectors there
    for c, (lo, hi, (slots, side)) in enumerate(zip(split.lo, split.hi, split.ends)):
        nodes, at = np.unique(side * (hi - lo - 1), return_inverse=True)  # one node for both ends of one
        block, pick = np.ix_(slots, slots), (nodes[at][:, None], at[None, :])
        chains.append((lo, hi, slots, side, block, pick, _unit_columns(hi - lo, nodes)))
    n = len(split.separator)

    def count(energies: np.ndarray, member=0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        shift = np.zeros(len(energies), dtype=int)
        matrices = []
        for p, (energy, of) in enumerate(zip(energies, np.broadcast_to(member, len(energies)))):
            h_diag, h_off, h_sep, h_ends = hamiltonians[of]
            lam, peeled, ends = energy * m_sep - h_sep, [], h_ends - energy * m_ends
            for c, (lo, hi, slots, side, block, pick, rhs) in enumerate(chains):
                d, e = h_diag[lo:hi] - energy * m_diag[lo:hi], h_off[lo : hi - 1] - energy * m_off[lo : hi - 1]
                negative, x = _tridiagonal_solve(d, e, rhs, energy)
                coupling, x = ends[side, c], x[pick]
                if abs(coupling).max() * abs(x).max() <= NEAR_POLE:
                    shift[p] += negative
                    lam[block] += coupling[:, None] * coupling * x
                    continue
                # next to a pole: the first node joins the matrix, and the rest of
                # the chain, whose poles strictly interlace the chain's, is
                # eliminated in its place; it meets the first node and the last end
                row = np.zeros(n + 1)  # the node's couplings to the separator, then its diagonal
                row[slots[side == 0]] = -coupling[side == 0]
                row[n] = -d[0]
                last = side == 1
                if hi - lo == 1:
                    row[slots[last]] -= coupling[last]
                else:
                    rest = _unit_columns(hi - lo - 1, np.array([0, hi - lo - 2] if last.any() else [0]))
                    negative, y = _tridiagonal_solve(d[1:], e[1:], rest, energy)
                    shift[p] += negative
                    row[n] += e[0] ** 2 * y[0, 0]
                    if last.any():
                        r, b = slots[last][0], coupling[last][0]
                        lam[r, r] += b * b * y[-1, 1]
                        row[r] += e[0] * b * y[0, 1]
                peeled.append(row)
            if peeled:
                rows = np.array(peeled)
                lam = np.block([[lam, rows[:, :n].T], [rows[:, :n], np.diag(rows[:, n])]])
            matrices.append(lam)
        sizes = np.array([len(lam) for lam in matrices], dtype=int)
        values = np.full((len(energies), sizes.max(initial=0)), np.nan)
        for size in np.unique(sizes):
            rows = np.flatnonzero(sizes == size)
            values[rows, :size] = np.linalg.eigvalsh(np.array([matrices[p] for p in rows]))[:, ::-1]
        return shift + (values > 0.0).sum(axis=1), shift, values

    return count


def _certify(system: AssembledSystem, alpha: float, energies: np.ndarray, sigma: float) -> None:
    """Raise ``SolverError`` unless ascending ``energies`` are the lowest
    ``len(energies)`` eigenvalues of the pencil at coupling ``alpha``,
    multiplicities included.

    Every eigenvalue below ``E_k - delta`` must have been found, and at least
    ``k`` must lie below ``E_k + delta``; one chain count (``_chain_counter``)
    at the two points tells.  Then each computed eigenvalue is within ``2
    delta`` of the true one at its index; a cluster cut at ``k`` is cut the
    same way by any solver.
    """
    top = float(energies[-1])
    delta = CERT_RTOL * max(abs(top), top - sigma)
    found = int(np.count_nonzero(energies < top - delta))
    below, upto = _chain_counter(system, alpha)(np.array([top - delta, top + delta]))[0]
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
    certified complete by the inertia count at two points (``_certify``).
    A Lanczos solve that fails or fails its certificate falls back to dense
    LAPACK when the dense ``H`` and ``M`` fit ``MEMORY_BUDGET``, and raises
    otherwise.  The shift
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
            _certify(system, alpha, w, sigma)
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
    """``AssembledSystem.bound_states`` at the one coupling ``alpha``, with its ``solved``."""
    return system.bound_states([alpha], solved=solved)[0]


def solve_graph(
    graph: MetricGraph,
    target_h: float,
    k: int,
) -> Spectrum:
    """Mesh, assemble, and solve in one call, at the graph's own coupling."""
    mesh = build_mesh(graph, target_h)
    return solve_spectrum(assemble(mesh), k)


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
