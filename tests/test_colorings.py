import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qglab import families, fem
from qglab.colorings import Coloring, ColoringError, GFunction, edge_counts, enumerate_admissible, realize_g
from qglab.graphs import DIRICHLET, Edge, MetricGraph

from conftest import averaged_yang, binomial_identity_check, brute_force_admissible, make_path, verify_yang


def validate_g(g: GFunction, graph: MetricGraph, coloring: Coloring | None = None) -> list[str]:
    """Invariant check for a piecewise-affine function; empty list means valid."""
    problems = []
    if coloring is not None:
        for eid, bit in enumerate(coloring):
            if abs(g.slopes[eid]) != bit:
                problems.append(f"edge {eid}: |slope| != coloring bit")
    degrees = graph.degrees()
    adj = graph.adjacency()
    for v in range(graph.num_vertices):
        if degrees[v] < 2:
            continue
        total = 0
        for eid, _ in adj[v]:
            e = graph.edges[eid]
            if e.is_loop:
                continue  # loop slopes cancel pairwise by symmetry of the split
            total += g.slopes[eid] if e.u == v else -g.slopes[eid]
        if total != 0:
            problems.append(f"vertex {v}: outward slopes sum to {total}")
    for eid, e in enumerate(graph.edges):
        if e.is_loop:
            continue
        expect = g.vertex_values[e.u] + g.slopes[eid] * e.length
        if abs(expect - g.vertex_values[e.v]) > 1e-9 * max(1.0, abs(expect)):
            problems.append(f"edge {eid}: values not continuous")
    return problems


def test_y_graph_colorings():
    cols = enumerate_admissible(families.y_graph())
    assert cols == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    counts = edge_counts(cols)
    assert counts.uniform and counts.counts == (2, 2, 2)


def test_single_edge_colorings():
    cols = enumerate_admissible(families.interval())
    assert cols == [(0,), (1,)]
    assert edge_counts(cols).counts == (1,)


@pytest.mark.parametrize("m", range(2, 11))
def test_star_counts(m):
    star = families.star([1.0] * m)
    cols = enumerate_admissible(star)
    assert len(cols) == 2 ** (m - 1)
    counts = edge_counts(cols)
    assert counts.uniform and counts.counts[0] == 2 ** (m - 2)
    assert sorted(cols) == sorted(brute_force_admissible(star))


def test_caterpillar_uniform():
    # spine 0-1-2-3 with a leg on each spine vertex
    edges = (
        Edge(0, 1, 1.0),
        Edge(1, 2, 1.0),
        Edge(2, 3, 1.0),
        Edge(0, 4, 1.0),
        Edge(1, 5, 1.0),
        Edge(2, 6, 1.0),
        Edge(3, 7, 1.0),
    )
    g = MetricGraph(8, edges, {v: DIRICHLET for v in (4, 5, 6, 7, 3, 0)})
    # vertices 0 and 3 have degree 2, so they carry parity constraints
    g = MetricGraph(8, edges, {v: DIRICHLET for v in (4, 5, 6, 7)})
    cols = enumerate_admissible(g)
    assert cols == sorted(brute_force_admissible(g))
    counts = edge_counts(cols)
    assert counts.uniform


def test_random_trees_match_brute_force(rng):
    for _ in range(12):
        tree = families.random_tree(rng, int(rng.integers(2, 9)))
        cols = enumerate_admissible(tree)
        assert cols == sorted(brute_force_admissible(tree))
        assert edge_counts(cols).uniform


def test_rejects_non_tree_and_oversize():
    with pytest.raises(ColoringError, match="tree"):
        enumerate_admissible(families.balloon())
    big = families.star([1.0] * 23)
    with pytest.raises(ColoringError, match="many edges"):
        enumerate_admissible(big)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9))
def test_admissible_form_a_group_of_power_two_order(seed, n_edges):
    tree = families.random_tree(np.random.default_rng(seed), n_edges)
    cols = enumerate_admissible(tree)
    assert len(cols) & (len(cols) - 1) == 0  # power of two
    index = set(cols)
    # closed under symmetric difference
    for a in cols[:8]:
        for b in cols[:8]:
            assert tuple(x ^ y for x, y in zip(a, b)) in index
    assert edge_counts(cols).uniform


def test_binomial_identity():
    assert binomial_identity_check(60)
    # n = 4: 1 + 3 = 3 + 1 = 4; n = 20: both sides are 2^18
    assert math.comb(3, 0) + math.comb(3, 2) == math.comb(3, 1) + math.comb(3, 3) == 4
    both = sum(math.comb(19, 2 * k) for k in range(10))
    assert both == 2**18
    with pytest.raises(ValueError):
        binomial_identity_check(61)


def test_realize_g_matches_reference_choice():
    g = realize_g(families.y_graph(), (0, 1, 1))
    assert g.slopes == (0, -1, 1)
    assert g.vertex_values[0] == 0.0
    assert validate_g(g, families.y_graph(), (0, 1, 1)) == []


def test_realize_g_zero():
    g = realize_g(families.y_graph(), (0, 0, 0))
    assert g.slopes == (0, 0, 0)
    assert all(v == 0.0 for v in g.vertex_values)


def test_realize_g_path_all_colored():
    p3 = make_path([1.0, 1.5, 0.5])
    g = realize_g(p3, (1, 1, 1))
    assert all(abs(s) == 1 for s in g.slopes)
    assert validate_g(g, p3, (1, 1, 1)) == []


def test_realize_g_all_colorings_random_trees(rng):
    for _ in range(8):
        tree = families.random_tree(rng, int(rng.integers(2, 9)))
        for coloring in enumerate_admissible(tree):
            g = realize_g(tree, coloring)
            assert validate_g(g, tree, coloring) == []


def test_hash_graph_diagonal_function():
    # planar grid with no degree-3 vertices: the diagonal coordinate sum has
    # unit slope on every edge and balanced outward slopes at each crossing
    graph, coords = families.hash_graph()
    slopes = []
    for e in graph.edges:
        (xu, yu), (xv, yv) = coords[e.u], coords[e.v]
        slopes.append(round(((xv + yv) - (xu + yu)) / e.length))
    values = tuple(x + y for x, y in (coords[v] for v in range(graph.num_vertices)))
    g = GFunction(tuple(slopes), values)
    assert all(abs(s) == 1 for s in g.slopes)
    assert validate_g(g, graph, tuple(abs(s) for s in g.slopes)) == []


def test_averaged_yang_reproduces_plain_form():
    yg = families.y_graph()
    spec = fem.solve_graph(yg, 0.01, 24)
    cols = enumerate_admissible(yg)
    from qglab.inequalities import make_z_grid, trusted_count

    z = make_z_grid(spec.energies[: trusted_count(24)])
    rep = averaged_yang(
        spec.energies, spec.edge_mass, spec.edge_dirichlet, spec.alpha, cols, z
    )
    assert rep.count == 2
    assert rep.max_rel_deviation < 1e-12
    assert rep.verdict == verify_yang(spec).verdict == "holds"


def test_averaged_yang_single_edge():
    g = families.interval(1.0)
    spec = fem.solve_graph(g, 0.01, 12)
    cols = enumerate_admissible(g)
    from qglab.inequalities import make_z_grid, trusted_count

    rep = averaged_yang(
        spec.energies, spec.edge_mass, spec.edge_dirichlet, spec.alpha, cols,
        make_z_grid(spec.energies[: trusted_count(12)]),
    )
    assert rep.count == 1
    assert rep.max_rel_deviation < 1e-12


def test_averaged_yang_requires_uniform_counts():
    with pytest.raises(ColoringError, match="uniform"):
        averaged_yang(
            np.array([1.0]),
            np.ones((2, 1)),
            np.ones((2, 1)),
            1.0,
            [(0, 0), (1, 0)],
            np.array([2.0]),
        )
