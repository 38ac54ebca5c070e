import math
import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import assume, given, settings, strategies as st

from qglab import analytic, families, fem
from qglab.cli import _mesh
from qglab.graphs import DIRICHLET, NEUMANN, ZERO, Edge, MetricGraph, SquareWell, load_graph

from conftest import degenerate_clusters, make_path

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_mesh_interval_counts():
    mesh = fem.build_mesh(families.interval(1.0), 0.1)
    assert [seg.cells for seg in mesh.segments] == [10]
    assert mesh.ndof == 9  # Dirichlet at both ends


def test_mesh_balloon_loop_split():
    mesh = fem.build_mesh(families.balloon(), 0.01)
    # loop expands to two half-edges of length pi each
    halves = [s for s in mesh.segments if s.edge_id == 0]
    assert len(halves) == 2
    assert all(s.length == pytest.approx(math.pi) for s in halves)
    per_half = math.ceil(math.pi / 0.01)
    string = math.ceil(math.pi / 0.01)
    # direct count: interior nodes + junction + synthetic midpoint (string end eliminated)
    expected = (per_half - 1) * 2 + (string - 1) + 2
    assert mesh.ndof == expected


def test_mesh_resolution_hint_wins():
    g = MetricGraph(2, (Edge(0, 1, 1.0, cells=5),), {0: DIRICHLET, 1: DIRICHLET})
    mesh = fem.build_mesh(g, 1e-6)
    assert [seg.cells for seg in mesh.segments] == [5]


def test_mesh_rejects_bad_target():
    with pytest.raises(ValueError):
        fem.build_mesh(families.interval(), 0.0)


@st.composite
def hinted_multigraphs(draw):
    """A connected multigraph with self-loops, a ``cells`` hint on some
    edges (odd ones on self-loops too), and a Dirichlet or Neumann condition
    at every leaf."""
    n = draw(st.integers(1, 5))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    assume(pairs)
    edges = tuple(Edge(u, v, draw(st.floats(0.05, 3.0)), cells=draw(st.none() | st.integers(1, 9))) for u, v in pairs)
    leaves = MetricGraph(n, edges).leaf_vertices()
    return MetricGraph(n, edges, {v: draw(st.sampled_from([DIRICHLET, NEUMANN])) for v in leaves})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hinted_multigraphs(), st.floats(0.01, 2.0))
def test_edge_cells_are_the_cells_of_the_mesh(graph, h):
    # the cell rule read with no mesh, and the unknowns of P1 on those cells
    mesh = fem.build_mesh(graph, h)
    cells = [0] * len(graph.edges)
    for seg in mesh.segments:
        cells[seg.edge_id] += seg.cells
    assert fem.edge_cells(graph, h) == cells
    assert fem.unknowns(graph, cells) == mesh.ndof


def test_single_element_stiffness():
    h = 0.37
    g = MetricGraph(2, (Edge(0, 1, h, cells=1),), {0: NEUMANN, 1: NEUMANN})
    system = fem.assemble(fem.build_mesh(g, 1.0))
    K = system.base_stiffness.toarray()
    assert np.allclose(K, np.array([[1, -1], [-1, 1]]) / h, rtol=1e-15)
    M = system.mass.toarray()
    assert np.allclose(M, np.array([[2, 1], [1, 2]]) * h / 6, rtol=1e-15)


def test_constant_potential_gives_w_equals_c_m():
    c = -2.75
    g = MetricGraph(
        2,
        (Edge(0, 1, 1.3, SquareWell(depth=c, left=0.0, right=1.3)),),
        {0: NEUMANN, 1: NEUMANN},
    )
    system = fem.assemble(fem.build_mesh(g, 0.1))
    assert np.allclose(system.potential.toarray(), c * system.mass.toarray(), rtol=1e-14)


def test_interval_dirichlet_convergence():
    exact = math.pi**2
    errs = []
    hs = [1 / 50, 1 / 100, 1 / 200]
    for h in hs:
        spec = fem.solve_graph(families.interval(1.0), h, 5)
        errs.append(abs(spec.energies[0] - exact))
    assert errs[1] < 1e-3  # h = 1/100
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2
    # n = 1..5 at h = 1/200, relative error < 4e-3
    spec = fem.solve_graph(families.interval(1.0), 1 / 200, 5)
    expected = np.arange(1, 6) ** 2 * math.pi**2
    assert np.all(np.abs(spec.energies / expected - 1.0) < 4e-3)


def test_interval_eigenvalue_count_monotone_in_alpha():
    g = families.interval(1.0, alpha=1.0)
    mesh = fem.build_mesh(g, 0.02)
    system = fem.assemble(mesh)
    e1 = fem.solve_energies(system, 5, alpha=1.0)
    e2 = fem.solve_energies(system, 5, alpha=2.5)
    assert np.allclose(e2, 2.5 * e1, rtol=1e-11)


def test_balloon_ratio_matches_oracle():
    from qglab import analytic

    spec = fem.solve_graph(families.balloon(), 0.01, 6)
    oracle = [m.energy for m in analytic.balloon_eigenvalues(math.pi, 6)]
    assert np.all(np.abs(spec.energies / np.array(oracle) - 1.0) < 2e-4)
    ratio = spec.energies[1] / spec.energies[0]
    assert ratio == pytest.approx(16.8453, abs=2e-3)


def test_balloon_odd_mode_vanishes_on_string():
    spec = fem.solve_graph(families.balloon(), 0.01, 6)
    j = int(np.argmin(np.abs(spec.energies - 1.0)))  # k = 1 loop mode
    assert spec.edge_mass[1, j] < 1e-8  # edge 1 is the string


def test_fancy_balloon_exact_values():
    spec = fem.solve_graph(families.fancy_balloon(3), 0.01, 4)
    assert spec.energies[0] == pytest.approx(1 / 36, rel=2e-4)
    assert spec.energies[1] / spec.energies[0] == pytest.approx(25.0, rel=2e-3)


def test_mass_normalization_and_rayleigh_identity():
    spec = fem.solve_graph(families.y_graph(), 0.01, 8)
    assert spec.edge_mass.shape == (3, 8)  # one row per edge, one column per state
    assert np.allclose(spec.edge_mass.sum(axis=0), 1.0, atol=1e-12)
    # V = 0, alpha = 1: the derivative form reproduces the eigenvalue exactly
    # at the discrete level
    assert np.allclose(spec.edge_dirichlet.sum(axis=0), spec.energies, rtol=1e-10)


def kirchhoff_residuals(spectrum: fem.Spectrum) -> np.ndarray:
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


def _ground_state_kirchhoff_slope(graph, row):
    res = []
    hs = [0.04, 0.02, 0.01]
    for h in hs:
        spec = fem.solve_graph(graph, h, 1)
        r = kirchhoff_residuals(spec)
        res.append(abs(r[row, 0]))  # ground state
    return np.polyfit(np.log(hs), np.log(res), 1)[0]


def test_kirchhoff_residual_decays():
    assert _ground_state_kirchhoff_slope(families.y_graph(), 0) >= 0.8  # center vertex


@pytest.mark.parametrize("row", [0, 2], ids=["junction", "loop-midpoint"])
def test_kirchhoff_residual_decays_on_balloon(row):
    # row 2 is the synthetic midpoint that splits the self-loop
    assert _ground_state_kirchhoff_slope(families.balloon(), row) >= 0.8


def test_degree_two_vertex_is_invisible():
    spec_a = fem.solve_graph(families.interval(1.0), 0.01, 4)
    spec_b = fem.solve_graph(make_path([0.4, 0.6]), 0.01, 4)
    # same node set, so the eigenvalues agree to solver precision
    assert np.allclose(spec_a.energies, spec_b.energies, rtol=1e-10)


def test_sparse_path_matches_dense(monkeypatch):
    g = families.balloon()
    mesh = fem.build_mesh(g, 0.01)
    system = fem.assemble(mesh)
    monkeypatch.setattr(fem, "DENSE_DOF_CAP", system.ndof)
    dense = fem.solve_spectrum(system, 6)
    monkeypatch.setattr(fem, "DENSE_DOF_CAP", 10)
    sparse = fem.solve_spectrum(system, 6)
    assert np.allclose(dense.energies, sparse.energies, rtol=1e-9)
    assert np.allclose(dense.edge_mass, sparse.edge_mass, atol=1e-7)


@pytest.mark.parametrize(
    "graph, h, k, repeated",
    [
        (families.y_graph(), 0.005, 6, {math.pi**2: 2, 4 * math.pi**2: 2}),
        (families.star([1.0] * 5), 0.005, 6, {math.pi**2: 4}),
        (families.fancy_balloon(4), 0.01, 7, {1.0: 3}),
    ],
    ids=["y", "star5", "fancy4"],
)
def test_sparse_path_keeps_multiplicities(monkeypatch, graph, h, k, repeated):
    # symmetric graphs: the antisymmetric copies are what a symmetric
    # Lanczos start vector never reaches
    system = fem.assemble(fem.build_mesh(graph, h))
    monkeypatch.setattr(fem, "DENSE_DOF_CAP", system.ndof)
    dense = fem.solve_spectrum(system, k)
    monkeypatch.setattr(fem, "DENSE_DOF_CAP", 10)
    sparse = fem.solve_spectrum(system, k)
    assert np.allclose(dense.energies, sparse.energies, rtol=1e-9)
    for energy, multiplicity in repeated.items():
        assert np.count_nonzero(np.isclose(sparse.energies, energy, rtol=1e-3)) == multiplicity
    # inside a degenerate cluster only the sums are basis independent
    for cluster in degenerate_clusters(dense.energies):
        cols = list(cluster)
        assert np.allclose(dense.edge_mass[:, cols].sum(axis=1), sparse.edge_mass[:, cols].sum(axis=1), atol=1e-7)


def _count_solves(monkeypatch) -> list[int]:
    # the core that every certified solve goes through
    calls: list[int] = []
    solve = fem._eigensolve

    def counted(system, k, *args, **kwargs):
        calls.append(k)
        return solve(system, k, *args, **kwargs)

    monkeypatch.setattr(fem, "_eigensolve", counted)
    return calls


def test_bound_states_are_the_negative_spectrum(monkeypatch):
    # one well per leg: a symmetric ground state and a double from the two
    # combinations that are antisymmetric across legs
    star = families.star([1.5, 1.5, 1.5])
    for leg in range(3):
        star = families.with_square_well(star, leg, depth=-12.0, width_fraction=0.5)
    system = fem.assemble(fem.build_mesh(star, 0.01))
    assert system.ndof == 448 > fem.DENSE_DOF_CAP
    calls = _count_solves(monkeypatch)
    bound = fem.solve_bound_states(system, 1.0)
    assert calls == []  # counted and bracketed, with no eigensolve
    assert bound == pytest.approx([-6.8328, -5.8101, -5.8101], abs=1e-4)
    monkeypatch.setattr(fem, "DENSE_DOF_CAP", system.ndof)
    dense = fem.solve_spectrum(system, system.ndof).energies
    assert np.allclose(bound, dense[dense < 0.0], rtol=1e-9, atol=0.0)


def test_no_bound_states_means_no_solve(monkeypatch):
    system = fem.assemble(fem.build_mesh(families.y_graph(), 0.01))
    calls = _count_solves(monkeypatch)
    bound = fem.solve_bound_states(system, 1.0)
    assert bound.shape == (0,)
    assert calls == []


def test_no_bound_states_needs_no_inertia_count(monkeypatch):
    # with V >= 0 at every node, alpha K + W is positive semidefinite: nothing is counted
    def refused(system, alpha):
        raise AssertionError("an inertia count on a system with V >= 0")

    monkeypatch.setattr(fem, "_chain_counter", refused)
    bump = families.with_square_well(families.y_graph(), 0, depth=3.0)
    for graph in (families.y_graph(), families.balloon(), bump):
        system = fem.assemble(fem.build_mesh(graph, 0.01))
        assert fem.solve_bound_states(system, 0.5).shape == (0,)


def test_bound_states_read_a_solve_that_reaches_zero(monkeypatch):
    # a certified solve topped at or above 0 holds every bound state; one
    # topped below 0 may miss some, so they are counted and bracketed anew
    star = families.star([1.5, 1.5, 1.5])
    for leg in range(3):
        star = families.with_square_well(star, leg, depth=-12.0, width_fraction=0.5)
    system = fem.assemble(fem.build_mesh(star, 0.01))
    solved = fem.solve_energies(system, 4)
    assert solved[2] < 0.0 <= solved[3]
    counts, calls = [], _count_solves(monkeypatch)
    chain_counter = fem._chain_counter

    def counter(system, alpha):
        count = chain_counter(system, alpha)

        def counted(energies, member=0):
            counts.extend(energies)
            return count(energies, member)

        return counted

    monkeypatch.setattr(fem, "_chain_counter", counter)
    bound = fem.solve_bound_states(system, 1.0, solved=solved)
    assert (counts, calls) == ([], [])
    assert np.array_equal(bound, solved[solved < 0.0])
    assert fem.solve_bound_states(system, 1.0, solved=solved[:2]) == pytest.approx(bound, rel=1e-9, abs=0)
    assert (counts[0], calls) == (0.0, [])


def _root_count(roots, spike=None):
    """A synthetic count for ``fem._close_brackets``: member ``i`` has its
    eigenvalues at ``roots[i]`` in ``t``, so ``N(t)`` is the number below
    ``t``, and the values are ``t - r``, descending, whose ``j``-th crosses 0
    at the ``j``-th root.  Inside ``spike = (lo, hi)`` it counts one more."""
    padded = np.full((len(roots), max(map(len, roots))), np.inf)
    for i, r in enumerate(roots):
        padded[i, : len(r)] = np.sort(r)

    def count(points, owners):
        values = points[:, None] - padded[owners]
        shift = np.zeros(len(points), dtype=int)
        if spike is not None:
            shift += (spike[0] < points) & (points < spike[1])
        return shift + (values > 0).sum(axis=1), shift, values

    return count


def _brackets(count, want, member, seeds, owner, below=None, first=None):
    below = np.zeros(len(seeds), bool) if below is None else np.array(below)
    seeds, owner = np.array(seeds), np.array(owner)
    first = count(seeds, owner) if first is None else first
    return fem._close_brackets(count, np.array(want), np.array(member), seeds, owner, below, first, 1e-12)


def test_close_brackets_finds_known_roots_with_their_multiplicity():
    # member 0 has a double root at 0.7; member 1's first bracket starts at 0
    roots = [[0.3, 0.7, 0.7], [0.2, 0.9]]
    count = _root_count(roots)
    want, member = [1, 2, 3, 1, 2], [0, 0, 0, 1, 1]
    root, lo, hi = _brackets(count, want, member, [0.5, 1.0, 0.25, 0.5, 1.0], [0, 0, 1, 1, 1])
    expected = np.array([0.3, 0.7, 0.7, 0.2, 0.9])
    assert root == pytest.approx(expected, rel=1e-12, abs=0)
    assert np.all((lo <= expected) & (expected < hi) & (hi - lo <= 1e-12 * hi))
    assert np.all(count(lo, np.array(member))[0] < want)
    assert np.all(count(hi, np.array(member))[0] >= want)


def _refused(points, owners):
    raise AssertionError("counted past the first count")


def test_close_brackets_takes_a_bracket_around_a_pole_as_certified():
    # a bracket from the seed flagged just below a pole to the next seed
    # certifies the root on the pole, however wide: nothing more is counted,
    # and the root is the bracket's midpoint
    seeds = [0.4, 0.6, 1.0]
    first = _root_count([[0.5]])(np.array(seeds), np.zeros(3, dtype=int))
    root, lo, hi = _brackets(_refused, [1], [0], seeds, [0, 0, 0], below=[True, False, False], first=first)
    assert (lo[0], hi[0], root[0]) == (0.4, 0.6, 0.5)


def test_close_brackets_refuses_a_count_that_falls():
    # at the seeds, before any bracket is narrowed
    first = (np.array([2, 1]), np.zeros(2, dtype=int), np.array([[0.2], [0.7]]))
    with pytest.raises(fem.SolverError, match="count falls"):
        _brackets(_refused, [1], [0], [0.5, 1.0], [0, 0], first=first)
    # one more eigenvalue counted on (0.45, 0.55), below the seed at 1 that counts one
    with pytest.raises(fem.SolverError, match="count falls"):
        _brackets(_root_count([[0.3]], spike=(0.45, 0.55)), [1], [0], [1.0], [0])


def test_close_brackets_refuses_seeds_that_reach_too_few_eigenvalues():
    with pytest.raises(fem.SolverError, match="the count reaches only 1 of 2 eigenvalues below t = 1"):
        _brackets(_root_count([[0.3]]), [1, 2], [0, 0], [1.0], [0])


def test_certificate_rejects_symmetric_start_vector(monkeypatch):
    # a start vector invariant under the Y graph's leg permutations spans no
    # antisymmetric state, so Lanczos misses the second copies of pi^2 and 4 pi^2
    eigsh = scipy.sparse.linalg.eigsh

    def symmetric_start(*args, **kwargs):
        return eigsh(*args, **{**kwargs, "v0": np.ones(len(kwargs["v0"]))})

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", symmetric_start)
    system = fem.assemble(fem.build_mesh(families.y_graph(), 0.005))
    assert system.ndof > fem.DENSE_DOF_CAP
    monkeypatch.setattr(fem, "DENSE_DOF_CAP", 10)
    with monkeypatch.context() as budget:
        # the dense H and M (5.5 MiB) do not fit, so the refusal stands
        budget.setattr(fem, "MEMORY_BUDGET", 1 << 20)
        with pytest.raises(fem.SolverError, match="7 eigenvalues lie below .* the solver found 5"):
            fem.solve_graph(families.y_graph(), 0.005, 6)
        with pytest.raises(fem.SolverError, match="7 eigenvalues lie below .* the solver found 5"):
            fem.solve_energies(system, 6)
    # where they fit, dense LAPACK recovers the missed copies
    expected = np.array([0.25, 1.0, 1.0, 2.25, 4.0, 4.0]) * math.pi**2
    assert fem.solve_graph(families.y_graph(), 0.005, 6).energies == pytest.approx(expected, rel=1e-4)
    assert fem.solve_energies(system, 6) == pytest.approx(expected, rel=1e-4)


@pytest.mark.parametrize(
    "name, h, k",
    [("hash_graph", 0.03, 12), ("wheatstone_unbalanced", 0.025, 20), ("wheatstone_balanced", 0.021875, 30)],
)
def test_failed_certificate_falls_back_to_dense(monkeypatch, name, h, k):
    # just above DENSE_DOF_CAP, single-vector Lanczos misses one copy of a
    # repeated eigenvalue on these meshes and the certificate refuses the batch
    system = fem.assemble(fem.build_mesh(load_graph(os.path.join(FIXTURES, f"{name}.json")), h))
    assert fem.DENSE_DOF_CAP < system.ndof and k <= fem.DENSE_K_FRACTION * system.ndof
    with monkeypatch.context() as budget:
        budget.setattr(fem, "MEMORY_BUDGET", 1 << 20)
        with pytest.raises(fem.SolverError, match="incomplete spectrum"):
            fem.solve_spectrum(system, k)
    spectrum = fem.solve_spectrum(system, k)
    lapack = scipy.linalg.eigh(system.hamiltonian(1.0).toarray(), system.mass.toarray(), eigvals_only=True)[:k]
    assert spectrum.energies == pytest.approx(lapack, rel=1e-9, abs=0)


@pytest.mark.parametrize("h, k, dense", [(0.005, 12, False), (0.02, 10, True)], ids=["sparse", "dense"])
def test_energies_alone_match_the_eigenpair_solve(h, k, dense):
    system = fem.assemble(fem.build_mesh(families.y_graph(), h))
    assert (system.ndof <= fem.DENSE_DOF_CAP) == dense
    energies = fem.solve_energies(system, k)
    assert energies == pytest.approx(fem.solve_spectrum(system, k).energies, rel=1e-12, abs=0)


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(0.05, 20.0),
    depth=st.floats(-30.0, -0.1),
    left=st.floats(0.0, 0.8),
)
def test_alpha_scaling_of_the_spectrum(alpha, depth, left):
    # -alpha d^2/dx^2 + V = alpha (-d^2/dx^2 + V/alpha), on the same mesh
    def y_with_well(d):
        well = SquareWell(depth=d, left=left, right=left + 0.2)
        return families.star([1.0, 1.0, 1.3], potentials=[well, well, ZERO])

    mesh = fem.build_mesh(y_with_well(depth), 0.01)
    scaled = fem.build_mesh(y_with_well(depth / alpha), 0.01)
    energies = fem.solve_energies(fem.assemble(mesh), 6, alpha=alpha)
    unit = fem.solve_energies(fem.assemble(scaled), 6, alpha=1.0)
    assert np.allclose(energies, alpha * unit, rtol=1e-9, atol=1e-9 * alpha)


def test_solves_are_deterministic(monkeypatch):
    g = families.balloon()
    mesh = fem.build_mesh(g, 0.01)
    system = fem.assemble(mesh)
    monkeypatch.setattr(fem, "DENSE_DOF_CAP", 10)
    a = fem.solve_spectrum(system, 6)
    b = fem.solve_spectrum(system, 6)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.vectors, b.vectors)


def test_solve_k_bounds():
    g = families.interval(1.0)
    system = fem.assemble(fem.build_mesh(g, 0.5))
    with pytest.raises(ValueError):
        fem.solve_spectrum(system, 0)
    with pytest.raises(ValueError):
        fem.solve_spectrum(system, system.ndof + 1)


def test_eigenfunction_samples_cover_edges():
    spec = fem.solve_graph(families.balloon(), 0.05, 2)
    samples = fem.eigenfunction_samples(spec, 0)
    assert len(samples) == 2
    x_loop, y_loop = samples[0]
    assert x_loop[0] == 0.0
    assert x_loop[-1] == pytest.approx(2 * math.pi)
    assert np.all(np.diff(x_loop) > 0)
    # ground state is positive somewhere on the loop
    assert y_loop.max() > 0


def test_degenerate_clusters_found_at_tolerance():
    spec = fem.solve_graph(families.fancy_balloon(3), 0.02, 4)
    clusters = degenerate_clusters(spec.energies)
    # the antisymmetric pair near E = 1 forms one cluster of size 2
    sizes = sorted(len(c) for c in clusters)
    assert sizes == [1, 1, 2]
    # the cluster's total mass per edge is basis independent: rungs share it
    pair = next(c for c in clusters if len(c) == 2)
    rung_mass = spec.edge_mass[1:, list(pair)].sum()
    assert rung_mass == pytest.approx(2.0, abs=1e-9)


# --- P1 against the exact V = 0 spectrum -------------------------------------


@st.composite
def graphs_with_cycles_on_one_cell_size(draw):
    """A connected multigraph with at least one cycle (a self-loop, a double
    edge or a chord) whose every edge is a whole number of cells of one size
    ``h``; self-loops get an even number, one per half."""
    n = draw(st.integers(1, 5))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=3))
    h = draw(st.floats(0.03, 0.1))
    edges = []
    for u, v in pairs:
        cells = draw(st.integers(1, 8))
        cells += cells % 2 if u == v else 0
        edges.append(Edge(u, v, cells * h, cells=cells))
    graph = MetricGraph(n, tuple(edges))
    boundary = {v: draw(st.sampled_from([DIRICHLET, NEUMANN])) for v in graph.leaf_vertices()}
    return MetricGraph(n, tuple(edges), boundary, draw(st.floats(0.5, 2.0))), h


@settings(max_examples=30, deadline=None, derandomize=True)
@given(graphs_with_cycles_on_one_cell_size())
def test_p1_is_the_exact_spectrum_through_the_dispersion_relation(case):
    # with V = 0 and one cell size h, the interior stencil and the Kirchhoff
    # rows both give E_h = (6 alpha / h^2)(1 - cos kappa h) / (2 + cos kappa h)
    # of the exact E = alpha kappa^2, so this tests the whole P1 stack
    graph, h = case
    system = fem.assemble(fem.build_mesh(graph, h))
    k = min(40, system.ndof // 4)
    assume(k > 0)
    p1 = fem.solve_energies(system, k)
    exact, _ = analytic.piecewise_constant_eigenvalues(graph, k)
    c = np.cos(h * np.sqrt(exact / graph.alpha))
    dispersed = 6.0 * graph.alpha / h**2 * (1.0 - c) / (2.0 + c)
    zero = exact == 0.0  # the constant, without a Dirichlet vertex
    assert p1[~zero] == pytest.approx(dispersed[~zero], rel=1e-8, abs=0)
    assert np.all(np.abs(p1[zero]) <= 1e-10 * graph.alpha / h**2)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_edges=st.integers(2, 8), h=st.floats(0.02, 0.1))
def test_p1_lies_above_the_exact_spectrum_on_trees(seed, n_edges, h):
    # P1 is a Rayleigh-Ritz method, so by min-max each E_h is at least its E
    tree = families.random_tree(np.random.default_rng(seed), n_edges)
    system = fem.assemble(fem.build_mesh(tree, h))
    assert len({round(seg.h, 12) for seg in system.mesh.segments}) > 1  # mixed cell sizes
    k = min(30, system.ndof // 3)
    exact, _ = analytic.piecewise_constant_eigenvalues(tree, k)
    assert np.all(fem.solve_energies(system, k) >= exact)


@pytest.mark.parametrize(
    "name",
    ["balloon_pi", "circle_two_leads", "fancy_balloon_3", "hash_graph", "interval_unit",
     "wheatstone_balanced", "wheatstone_unbalanced", "y_graph"],
)
def test_p1_at_the_verify_mesh_sits_just_above_the_exact_spectrum(name):
    # verify's default P1 mesh puts its 61 energies at most 1.1e-3 (relative)
    # above the exact ones, which the V = 0 rows now read
    graph = load_graph(os.path.join(FIXTURES, f"{name}.json"))
    p1 = fem.solve_energies(fem.assemble(_mesh(graph, 90, None, graph.alpha)), 61)
    exact, _ = analytic.piecewise_constant_eigenvalues(graph, 61)
    assert np.all(p1 >= exact)
    assert np.all(p1 <= exact * (1.0 + 1.1e-3))
