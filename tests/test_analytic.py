import dataclasses
import math
import os
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from qglab import analytic, families, fem, inequalities as ineq
from qglab.graphs import (
    DIRICHLET,
    NEUMANN,
    Edge,
    MetricGraph,
    PoschlTeller,
    ZERO,
    Sampled,
    SquareWell,
    load_graph,
    split_at_jumps,
)

from conftest import degenerate_clusters, member_pole_gaps

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_classical_constants():
    assert analytic.classical_lt_constant(1.5) == pytest.approx(3 / 16, rel=1e-14)
    assert analytic.classical_lt_constant(2.0) == pytest.approx(8 / (15 * math.pi), rel=1e-14)


def test_interval_dd():
    e = analytic.interval_eigenvalues(1.0, "DD", 3)
    assert np.allclose(e, [math.pi**2, 4 * math.pi**2, 9 * math.pi**2], rtol=1e-15)


def test_interval_dn():
    e = analytic.interval_eigenvalues(math.pi, "DN", 2)
    assert np.allclose(e, [0.25, 2.25], rtol=1e-15)
    # the long-string limit of the balloon has this fixed ratio of 9
    assert e[1] / e[0] == pytest.approx(9.0)


def test_interval_rejects():
    with pytest.raises(ValueError):
        analytic.interval_eigenvalues(-1.0, "DD", 2)
    with pytest.raises(ValueError):
        analytic.interval_eigenvalues(1.0, "NN", 2)


def test_balloon_k_structure_at_pi():
    theta = math.atan(1.0 / math.sqrt(2.0)) / math.pi
    modes = analytic.balloon_eigenvalues(math.pi, 8)
    even_k = [m.k for m in modes if m.family == "even"]
    assert even_k[0] == pytest.approx(theta, abs=1e-12)
    # k = +/- theta + j, j integer
    for k in even_k:
        frac = min(abs(k % 1.0 - theta), abs(1.0 - (k % 1.0) - theta))
        assert frac < 1e-10
    odd_k = [m.k for m in modes if m.family == "odd"]
    assert odd_k[:2] == [1.0, 2.0]
    assert not any(m.family == "both" for m in modes)


def test_balloon_ratio_value():
    theta = math.atan(1.0 / math.sqrt(2.0))
    expected = ((math.pi - theta) / theta) ** 2
    assert analytic.balloon_ratio(math.pi) == pytest.approx(expected, rel=1e-12)
    assert analytic.balloon_ratio(math.pi) == pytest.approx(16.8453, abs=1e-3)


def test_balloon_secular_residuals():
    for L in (0.7, math.pi, 4.4):
        for m in analytic.balloon_eigenvalues(L, 12):
            if m.family == "even":
                assert abs(analytic.balloon_secular(m.k, L)) < 1e-10
            else:
                assert abs(math.sin(m.k * math.pi)) < 1e-12


def test_balloon_modes_strictly_sorted():
    for L in (0.9, math.pi, 2.5):
        e = [m.energy for m in analytic.balloon_eigenvalues(L, 15)]
        assert np.all(np.diff(e) > 0)


def test_balloon_short_string_limit():
    # L -> 0: spectrum approaches (n/2)^2
    expected = [(n / 2) ** 2 for n in range(1, 7)]
    close = [m.energy for m in analytic.balloon_eigenvalues(1e-3, 6)]
    far = [m.energy for m in analytic.balloon_eigenvalues(1e-2, 6)]
    assert np.allclose(close, expected, atol=1e-2)
    # and the limit tightens as the string shrinks
    assert max(abs(c - e) for c, e in zip(close, expected)) < max(
        abs(f - e) for f, e in zip(far, expected)
    )


def test_balloon_cost_does_not_grow_with_the_string(monkeypatch):
    # poles were listed up to k = 5 whatever n, about 5 L / pi bisections
    bisect, calls = analytic.bisect, []

    def counting(f, lo, hi):
        calls.append(lo)
        return bisect(f, lo, hi)

    monkeypatch.setattr(analytic, "bisect", counting)
    for L in (1e11, 1e13, 1e100, analytic.BALLOON_MAX_LENGTH, 1e3, 1e5):
        calls.clear()
        modes = analytic.balloon_eigenvalues(L, 3)
        assert len(calls) <= 50
    exact, _ = analytic.piecewise_constant_eigenvalues(families.balloon(string_length=1e5), 3)
    assert [m.energy for m in modes] == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("L", [1e11, 1e13, 1e100, analytic.BALLOON_MAX_LENGTH])
def test_balloon_modes_of_a_string_longer_than_the_coincidence_rules(L):
    # pi / L lies below 1e-10, the gap under which poles merge, and below
    # 1e-12, the one under which modes merge: both rules are relative below
    # k = 1, so the string's poles and modes stay apart
    modes = analytic.balloon_eigenvalues(L, 3)
    assert [m.family for m in modes] == ["even"] * 3
    assert [m.k for m in modes] == pytest.approx([(j + 0.5) * math.pi / L for j in range(3)], rel=1e-9, abs=0)
    assert modes[0].energy >= sys.float_info.min


def test_balloon_refuses_a_string_whose_lowest_energy_underflows():
    with pytest.raises(ValueError, match="string length must be positive and at most 5.26523e"):
        analytic.balloon_eigenvalues(1e200, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 60])
def test_fancy_balloon_lists_the_lowest_values_of_every_copy(n):
    # each round j lies below the next, so n copies of j^2 and rounds up to
    # n values give the lowest n of the full multiset, bit for bit
    for rungs in range(2, 40):
        theta = math.atan(1.0 / math.sqrt(rungs)) / math.pi
        rounds = ([float(j * j)] * (rungs - 1) + [(j - theta) ** 2, (j + theta) ** 2] for j in range(1, n + 2))
        full = [theta**2] + [v for values in rounds for v in values]
        assert np.array_equal(analytic.fancy_balloon_eigenvalues(rungs, n), np.sort(full)[:n])
    e = analytic.fancy_balloon_eigenvalues(10**9, 3)  # no list of a billion copies
    theta = math.atan(1.0 / math.sqrt(1e9)) / math.pi
    assert e == pytest.approx([theta**2, (1.0 - theta) ** 2, 1.0], rel=1e-14, abs=0)


def test_fancy_balloon_exact():
    e = analytic.fancy_balloon_eigenvalues(3, 6)
    assert e[0] == pytest.approx(1 / 36, rel=1e-14)
    assert e[1] / e[0] == pytest.approx(25.0, rel=1e-13)
    # odd modes at 1 carry multiplicity N - 1 = 2
    assert np.sum(np.abs(e - 1.0) < 1e-12) == 2


def test_fancy_balloon_large_n():
    e = analytic.fancy_balloon_eigenvalues(100, 2)
    ratio = e[1] / e[0]
    # exact value ((pi - theta)/theta)^2 sits 5.6% below pi^2 N at N = 100
    assert 0.9 <= ratio / (math.pi**2 * 100) <= 1.0


def test_poschl_teller_oracle_against_bisection():
    # independent root of tanh(a pi) = 1/2
    a = analytic.bisect(lambda a: math.tanh(a * math.pi) - 0.5, 0.01, 1.0)
    pt = analytic.poschl_teller_balloon_oracle()
    assert pt.a == pytest.approx(a, abs=1e-12)
    # quoted decimal is only good to ~4e-6; the bisection root is authoritative
    assert pt.a == pytest.approx(0.1748534, abs=1e-5)
    assert pt.energy == pytest.approx(-(a**2), rel=1e-12)


def test_poschl_teller_quotients():
    pt = analytic.poschl_teller_balloon_oracle()
    assert pt.q32 == pytest.approx(3 / 11, rel=1e-10)
    assert pt.q32 > 3 / 16
    # closed form for the fifth-half moment integral
    s = 1.0 / math.cosh(pt.a * math.pi)
    closed = (
        2 ** 3.5
        * (0.75 * math.atan(math.tanh(pt.a * math.pi / 2.0)) + 0.1875 * s + 0.125 * s**3)
    ) ** -1
    assert pt.q2 == pytest.approx(closed, rel=1e-10)
    assert pt.q2 == pytest.approx(0.2009, abs=1e-4)
    assert pt.q2 > analytic.classical_lt_constant(2.0)


def test_bisect_reports_bad_bracket():
    with pytest.raises(analytic.BracketError):
        analytic.bisect(lambda x: 1.0 + x * x, 0.0, 1.0)


@pytest.mark.parametrize(
    "graph, oracle",
    [
        (families.interval(1.0), analytic.interval_eigenvalues(1.0, "DD", 6)),
        (
            families.balloon(),
            np.array([m.energy for m in analytic.balloon_eigenvalues(math.pi, 6)]),
        ),
        (families.fancy_balloon(3), analytic.fancy_balloon_eigenvalues(3, 6)),
    ],
)
def test_oracle_vs_fem_envelope(graph, oracle):
    h = 0.01
    spec = fem.solve_graph(graph, h, 6)
    # P1 dispersion: relative error about (k h)^2 / 12, allow a 3x cushion
    envelope = 0.25 * (np.sqrt(oracle) * h) ** 2 + 1e-6
    assert np.all(np.abs(spec.energies / oracle - 1.0) < envelope)


def test_pt_balloon_bound_state_vs_fem(monkeypatch):
    pt = analytic.poschl_teller_balloon_oracle()
    monkeypatch.setattr(fem, "DENSE_DOF_CAP", 100)
    spec = fem.solve_graph(families.poschl_teller_balloon(40.0), 0.02, 2)
    assert spec.energies[0] == pytest.approx(pt.energy, rel=1e-4)
    assert spec.energies[1] > 0  # a single bound state


# --- the exact V = 0 spectrum ----------------------------------------------


def _interval(bc):
    boundary = {0: DIRICHLET, 1: DIRICHLET if bc == "DD" else NEUMANN}
    return MetricGraph(2, (Edge(0, 1, 1.7),), boundary)


CYCLE_3 = [(2 * math.pi * (j // 2) / 3.0) ** 2 for j in range(1, 61)]

EXACT_CASES = [
    *((f"balloon-{L:.4g}", families.balloon(L), [m.energy for m in analytic.balloon_eigenvalues(L, 60)])
      for L in (1.0, math.pi, 4.0)),
    *((f"fancy-{n}", families.fancy_balloon(n), analytic.fancy_balloon_eigenvalues(n, 60)) for n in (2, 3, 5)),
    *((f"interval-{bc}", _interval(bc), analytic.interval_eigenvalues(1.7, bc, 60)) for bc in ("DD", "DN")),
    # no Dirichlet vertex: E = 0, then (2 pi m / 3)^2 twice, on a loop of length 3
    ("loop", MetricGraph(1, (Edge(0, 0, 3.0),)), CYCLE_3),
    # the same cycle as edges of lengths 1 and 2: at kappa = 2 pi m both edges
    # have a pole while the eigenfunctions do not vanish at the vertices
    ("cycle-1-2", MetricGraph(2, (Edge(0, 1, 1.0), Edge(1, 0, 2.0))), CYCLE_3),
]


@pytest.mark.parametrize("graph, oracle", [case[1:] for case in EXACT_CASES], ids=[case[0] for case in EXACT_CASES])
def test_zero_potential_spectrum_matches_the_oracles(graph, oracle):
    # the fancy balloon's j^2 (N - 1 times) and the loop's pairs are counted with multiplicity
    energies, _ = analytic.piecewise_constant_eigenvalues(graph, 60)
    assert energies == pytest.approx(oracle, rel=1e-12, abs=0)


@pytest.mark.parametrize("graph, oracle", [case[1:] for case in EXACT_CASES], ids=[case[0] for case in EXACT_CASES])
def test_zero_potential_brackets_are_certified_by_the_count(graph, oracle):
    energies, brackets = analytic.piecewise_constant_eigenvalues(graph, 60)
    lo, hi = brackets.T
    positive = hi > 0  # E = 0 comes back as [0, 0]
    assert np.array_equal(energies[~positive], np.zeros(np.count_nonzero(~positive)))
    count = analytic._dtn_counter([graph])
    j = np.arange(1, 61)[positive]
    assert np.all(count(np.sqrt(lo[positive] / graph.alpha))[0] < j)
    assert np.all(j <= count(np.sqrt(hi[positive] / graph.alpha))[0])
    assert np.all(hi - lo <= 1e-13 * hi)
    assert np.all((lo <= energies) & (energies <= hi))
    oracle = np.asarray(oracle)
    assert np.all((lo * (1 - 1e-14) <= oracle) & (oracle <= hi * (1 + 1e-14)))


def test_cycle_count_converges_onto_double_eigenvalues():
    # a cycle of four edges: (2 pi m / L)^2 twice; a count at a converged
    # secant point, inside the count's roundoff, once fell below a count
    # just under it
    lengths = (0.16881903257625797, 2.706272483614247, 0.93577903786728, 1.5470121654601856)
    ends = ((0, 1), (1, 2), (0, 3), (3, 2))
    graph = MetricGraph(4, tuple(Edge(u, v, l) for (u, v), l in zip(ends, lengths)), {}, 1.699436098974479)
    energies, _ = analytic.piecewise_constant_eigenvalues(graph, 82)
    m = np.arange(1, 82) // 2 + np.arange(1, 82) % 2
    closed = graph.alpha * (2.0 * math.pi * m / sum(lengths)) ** 2
    assert energies[1:] == pytest.approx(closed, rel=1e-13, abs=0)


def test_count_rises_next_to_short_edges():
    # at kappa ~ 0.22 the two short edges add about 15 to Lambda, which once
    # entered it directly: the roundoff of the crossing eigenvalue then
    # spanned the finishing pair around E_1, and two of its counts fell
    lengths = (1.4663670626785954, 2.9149577067147905, 1.0502014738687213,
               0.11554623602116107, 1.9441766450241402, 0.14878641217973587)
    ends = ((0, 1), (0, 2), (2, 3), (2, 4), (4, 2), (2, 3))
    graph = MetricGraph(5, tuple(Edge(u, v, l) for (u, v), l in zip(ends, lengths)), {1: DIRICHLET})
    energies, _ = analytic.piecewise_constant_eigenvalues(graph, 349)
    assert np.all(np.diff(energies) >= 0.0)
    assert math.sqrt(energies[0]) == pytest.approx(0.21677732972330, rel=1e-12)


def test_zero_potential_rejections():
    # a sech-squared well has no constant pieces; the P1 count takes V = 0 alone
    with pytest.raises(ValueError, match="edge 0: a poschl_teller potential is not piecewise constant"):
        analytic.piecewise_constant_eigenvalues(families.poschl_teller_balloon(20.0), 5)
    well = families.with_square_well(families.y_graph(), 0, -5.0)
    with pytest.raises(ValueError, match="the P1 count with cells needs V = 0"):
        analytic.piecewise_constant_eigenvalues(well, 5, [4, 4, 4, 4, 4])
    with pytest.raises(ValueError, match="at least 1"):
        analytic.piecewise_constant_eigenvalues(families.y_graph(), 0)



# --- the P1 spectrum from the same count ------------------------------------


@pytest.mark.parametrize("bc", ["DD", "NN"])
@pytest.mark.parametrize("cells", [2, 7, 40, 401])
def test_p1_interval_count_matches_the_closed_form(bc, cells):
    # c cells of h: E_m = (6 alpha / h^2)(1 - cos(m pi / c)) / (2 + cos(m pi / c)),
    # m = 1 .. c - 1 between Dirichlet ends, m = 0 .. c between Neumann ends,
    # whose top sits on the band edge kappa^2 h^2 = 12; 1 - cos is taken as
    # 2 sin^2, which keeps the low modes of the closed form exact too
    length, alpha = 1.3, 0.7
    kind = {"D": DIRICHLET, "N": NEUMANN}
    graph = MetricGraph(2, (Edge(0, 1, length),), {0: kind[bc[0]], 1: kind[bc[1]]}, alpha)
    m = np.arange(1, cells) if bc == "DD" else np.arange(cells + 1)
    s2 = np.sin(0.5 * m * math.pi / cells) ** 2
    closed = 6.0 * alpha * (cells / length) ** 2 * 2.0 * s2 / (3.0 - 2.0 * s2)
    energies, _ = analytic.piecewise_constant_eigenvalues(graph, len(m), [cells])
    assert energies == pytest.approx(closed, rel=1e-14, abs=0)


def test_p1_interval_of_one_cell_is_its_element():
    # one Neumann cell: the constant and the alternating mode at 12 alpha / h^2
    graph = MetricGraph(2, (Edge(0, 1, 0.5),), {0: NEUMANN, 1: NEUMANN}, 1.5)
    energies, _ = analytic.piecewise_constant_eigenvalues(graph, 2, [1])
    assert energies == pytest.approx([0.0, 12.0 * 1.5 / 0.25], rel=1e-14, abs=0)


@st.composite
def p1_multigraphs(draw):
    """A connected multigraph with its own length and whole number of cells
    on every edge (an even number on a self-loop, one half each), and a
    Dirichlet or Neumann condition at every leaf."""
    n = draw(st.integers(1, 5))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    assume(pairs)
    edges = []
    for u, v in pairs:
        cells = draw(st.integers(1, 9))
        cells += cells % 2 if u == v else 0
        edges.append(Edge(u, v, draw(st.floats(0.2, 2.0)), cells=cells))
    graph = MetricGraph(n, tuple(edges))
    boundary = {v: draw(st.sampled_from([DIRICHLET, NEUMANN])) for v in graph.leaf_vertices()}
    return MetricGraph(n, tuple(edges), boundary, draw(st.floats(0.5, 2.0)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p1_multigraphs())
def test_p1_count_is_the_whole_p1_spectrum(graph):
    # every eigenvalue of the mesh, up to those above the band edges of its
    # coarsest edges, against dense LAPACK (which takes k = ndof)
    mesh = fem.build_mesh(graph, 1.0)  # the cells of every edge are given
    system = fem.assemble(mesh)
    assume(system.ndof >= 1)
    energies, brackets = analytic.piecewise_constant_eigenvalues(graph, system.ndof, fem.edge_cells(graph, 1.0))
    dense = fem.solve_spectrum(system, system.ndof).energies
    assert energies == pytest.approx(dense, rel=1e-9, abs=1e-12 * dense[-1])
    assert np.all((brackets[:, 0] <= energies) & (energies <= brackets[:, 1]))


@st.composite
def p1_well_graphs(draw):
    """A graph of ``p1_multigraphs`` with a square well or a sech-squared well
    on some edges, or with Neumann leaves and one constant negative ``V``
    on every edge."""
    graph = draw(p1_multigraphs())
    if draw(st.booleans()):
        depth = draw(st.floats(-30.0, -0.5))
        edges = [dataclasses.replace(e, potential=SquareWell(depth, 0.0, e.length)) for e in graph.edges]
        return dataclasses.replace(graph, edges=tuple(edges), boundary={v: NEUMANN for v in graph.boundary})
    edges = []
    for e in graph.edges:
        kind = draw(st.sampled_from(["zero", "well", "sech"]))
        left, right = sorted(draw(st.floats(0.0, 1.0)) * e.length for _ in range(2))
        if kind == "well":
            e = dataclasses.replace(e, potential=SquareWell(draw(st.floats(-40.0, -1.0)), left, right))
        elif kind == "sech":
            e = dataclasses.replace(e, potential=PoschlTeller(draw(st.floats(0.5, 5.0)), left))
        edges.append(e)
    return dataclasses.replace(graph, edges=tuple(edges))


_SECH = PoschlTeller(2.0, 0.7)
_WELL = SquareWell(-20.0, 0.1, 0.5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p1_well_graphs(), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
# no free vertex: one chain node is the separator
@example(MetricGraph(2, (Edge(0, 1, 1.4, _SECH, cells=9),), {0: DIRICHLET, 1: DIRICHLET}, 0.7), [0.3])
# a self-loop of one cell per half, which gives empty chains, and a one-node chain
@example(MetricGraph(2, (Edge(0, 0, 1.2, _SECH, 2), Edge(0, 1, 0.9, _WELL, 2)), {1: NEUMANN}), [0.0])
# Neumann leaves and one constant V: E_1 = min V exactly, and E_2 = -1 lies on
# the pole of the one-node chain, where its block of T^-1 would drown S
@example(MetricGraph(2, (Edge(0, 1, 1.0, SquareWell(-7.0, 0.0, 1.0), 2),), {0: NEUMANN, 1: NEUMANN}, 0.5), [-0.5])
def test_chain_count_is_the_dense_count(graph, where):
    # at random E across the spectrum and at 1e-12 (relative) from every
    # Dirichlet eigenvalue of a segment and every pole of the count (those of
    # a chain), the chain count is the number of dense LAPACK eigenvalues
    # below; a point within the dense solve's roundoff of an eigenvalue is
    # left out
    system = fem.assemble(fem.build_mesh(graph, 1.0))  # the cells of every edge are given
    assume(system.ndof >= 1)
    ham, mass = system.hamiltonian().toarray(), system.mass.toarray()
    dense = scipy.linalg.eigh(ham, mass, eigvals_only=True)
    scale = np.abs(dense).max()
    blocks = [(seg.dofs[1], seg.dofs[-2] + 1) for seg in system.mesh.segments if seg.cells > 1]
    blocks += list(zip(system.chains.lo, system.chains.hi))
    poles = [scipy.linalg.eigh(ham[lo:hi, lo:hi], mass[lo:hi, lo:hi], eigvals_only=True) for lo, hi in blocks]
    poles = np.concatenate([np.empty(0), *poles])
    span = dense[-1] - dense[0] + 1.0
    energies = np.concatenate([dense[0] + span * (np.array(where) + 0.5), poles * (1 - 1e-12), poles * (1 + 1e-12)])
    clear = np.abs(dense[None, :] - energies[:, None]).min(axis=1) > 1e-9 * scale
    energies = energies[clear]
    count = fem._chain_counter(system, graph.alpha)
    expected = (dense[None, :] < energies[:, None]).sum(axis=1)
    assert np.array_equal(count(energies)[0], expected)
    # and the bound states are dense LAPACK's negative spectrum
    assume(np.abs(dense).min() > 1e-9 * scale)
    bound = system.bound_states([graph.alpha])[0]
    assert bound == pytest.approx(dense[dense < 0.0], rel=1e-9, abs=1e-12 * scale)
    v = np.concatenate([seg.v for seg in system.mesh.segments])
    if np.all(v == v[0]) and DIRICHLET not in graph.boundary.values() and v[0] < 0.0:
        assert bound[0] == v[0]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_p1_count_keeps_the_multiplicity_on_a_pole(n):
    # the N - 1 rung modes near E = 1 vanish at both junctions: each is the
    # first Dirichlet mode of a rung of c cells, a pole of every rung
    graph = families.fancy_balloon(n)
    mesh = fem.build_mesh(graph, 0.02)
    cells = fem.edge_cells(graph, 0.02)[1]
    energies, _ = analytic.piecewise_constant_eigenvalues(graph, n + 2, fem.edge_cells(graph, 0.02))
    c = math.cos(math.pi / cells)
    pole = 6.0 * (cells / math.pi) ** 2 * (1.0 - c) / (2.0 + c)
    assert np.count_nonzero(np.abs(energies / pole - 1.0) < 1e-13) == n - 1
    p1 = fem.solve_spectrum(fem.assemble(mesh), n + 2).energies
    assert energies == pytest.approx(p1, rel=1e-9, abs=0)


def _tallied_counts(monkeypatch) -> list[int]:
    """Wrap ``analytic._dtn_counter`` to record the points of each batched count."""
    counter, counts = analytic._dtn_counter, []

    def tallied(family, *args):
        count = counter(family, *args)

        def tally(t, member=0):
            counts.append(len(t))
            return count(t, member)

        return tally

    monkeypatch.setattr(analytic, "_dtn_counter", tallied)
    return counts


def test_count_closes_the_balloon_brackets_in_few_counts(monkeypatch):
    # the secant steps close each bracket in about 10 batched counts, where
    # halving alone took about 50
    counts = _tallied_counts(monkeypatch)
    graph = families.balloon()
    for cells in (None, fem.edge_cells(graph, 0.01)):
        counts.clear()
        analytic.piecewise_constant_eigenvalues(graph, 6, cells)
        assert len(counts) <= 20


def test_count_certifies_eigenvalues_on_poles_in_its_first_count(monkeypatch):
    # every eigenvalue of the Dirichlet interval sits on a pole of its edge:
    # the first count, just below and just above each pole, certifies them
    # all, each at the centre of its bracket, which is the pole
    counts = _tallied_counts(monkeypatch)
    graph = load_graph(os.path.join(FIXTURES, "interval_unit.json"))
    energies, brackets = analytic.piecewise_constant_eigenvalues(graph, 61)
    assert len(counts) == 1
    assert energies == pytest.approx((math.pi * np.arange(1, 62)) ** 2, rel=1e-15)
    assert np.all(brackets[:, 1] - brackets[:, 0] <= 1e-13 * brackets[:, 1])


@st.composite
def pole_rich_members(draw):
    """One member's edge lengths, offsets and cells (``None`` for the exact
    count), from a random tree with commensurate edge lengths (multiples of
    1/4), so that poles of different edges coincide: on ``V = 0`` with or
    without P1 cells, or with square wells on quarters of its edges, split
    at their jumps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = families.random_tree(rng, draw(st.integers(1, 5)))
    kind = draw(st.sampled_from(["exact", "cells", "wells"]))
    depth = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 60.0))
    edges = []
    for e in shape.edges:
        length = draw(st.integers(1, 8)) / 4
        left, right = (length * q / 4 for q in sorted(draw(st.integers(0, 4)) for _ in range(2)))
        well = kind == "wells" and left < right
        edges.append(Edge(e.u, e.v, length, SquareWell(depth, left, right) if well else e.potential))
    graph = split_at_jumps(dataclasses.replace(shape, edges=tuple(edges), alpha=draw(st.floats(0.3, 2.0))))
    lengths, _, offsets = analytic._tables([graph])
    cells = np.array([draw(st.integers(1, 8)) for _ in graph.edges]) if kind == "cells" else None
    return lengths[0], offsets[0], cells


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pole_rich_members(), st.integers(1, 40))
# a P1 edge of 3 cells has 2 poles, short of k + 1: the seeds end at sqrt(12) / h
@example((np.array([1.0]), np.array([0.0]), np.array([3])), 5)
def test_pole_gaps_seed_just_below_and_above_every_cluster(member, k):
    # the poles of each edge, in t, below the last seed, merged into clusters
    # as the count merges them; each cluster is bracketed by a flagged seed
    # just below it and the next seed just above it, and no seed lies on one
    lengths, offsets, cells = member
    rows = None if cells is None else cells[None]
    seeds, below, owner = analytic._pole_gaps(lengths[None], offsets[None], rows, np.array([k]))
    assert not owner.any()
    top = seeds[-1]
    poles = []
    for i, (length, offset) in enumerate(zip(lengths, offsets)):
        m = np.arange(1.0, math.ceil(top * length / math.pi) + 2.0)
        if cells is None:
            pole = np.sqrt((m * math.pi / length) ** 2 + offset)
        else:
            pole = analytic._pole(m, length, cells[i])
        poles.append(pole[pole < top])
    poles = np.sort(np.concatenate(poles))
    new = np.flatnonzero(np.diff(poles, prepend=-np.inf) > analytic.POLE_MERGE_RTOL * poles)
    lows, highs = poles[new], poles[np.append(new[1:], len(poles))[: len(new)] - 1]
    assert np.all(np.diff(seeds) > 0)
    at = np.searchsorted(seeds, lows) - 1  # the last seed below each cluster
    assert np.array_equal(np.flatnonzero(below), at)
    assert np.array_equal(np.searchsorted(seeds, highs, side="right"), at + 1)  # none on a cluster
    near = (0.4 * analytic.COUNT_RTOL + 4 * np.finfo(float).eps) * lows
    assert np.all(lows - seeds[at] <= near) and np.all(seeds[at + 1] - highs <= near)


@st.composite
def pole_rich_families(draw):
    """The rows of the members of one shape, as ``_pole_gaps`` takes them:
    1-5 members of 1-6 edges, each with its own lengths (multiples of 1/4,
    so that poles of different edges coincide, or any), its own ``k`` from 1
    to 40, and either no offset (the exact count), its own P1 cells (1-8 per
    edge) or offsets on some edges, each one of a few values, so that offset
    poles coincide too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["exact", "cells", "offsets"]))
    if draw(st.booleans()):
        lengths = rng.integers(1, 9, (members, m)) / 4
    else:
        lengths = rng.uniform(0.05, 3.0, (members, m))
    offsets = np.zeros((members, m))
    if kind == "offsets":
        deep = rng.random(m) < 0.5
        offsets[:, deep] = rng.choice([1.5, 6.0, 40.0], (members, int(deep.sum())))
    cells = rng.integers(1, 9, (members, m)) if kind == "cells" else None
    return lengths, offsets, cells, rng.integers(1, 41, members)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pole_rich_families())
# an edge of 3 cells has 2 poles, short of k + 1 = 6: that member's seeds end at sqrt(12) / h
@example((np.array([[1.0], [2.0]]), np.zeros((2, 1)), np.array([[3], [40]]), np.array([5, 7])))
def test_family_listing_is_each_members_own(family):
    # listed together, each member's seeds and flags are those it gets alone,
    # as arrays, bit for bit
    lengths, offsets, cells, k = family
    seeds, below, owner = analytic._pole_gaps(lengths, offsets, cells, k)
    assert np.array_equal(np.unique(owner), np.arange(len(k))) and np.all(np.diff(owner) >= 0)
    for i in range(len(k)):
        alone = member_pole_gaps(lengths[i], offsets[i], None if cells is None else cells[i], int(k[i]))
        assert np.array_equal(seeds[owner == i], alone[0]) and np.array_equal(below[owner == i], alone[1])


def test_listing_over_the_budget_is_taken_in_slices(monkeypatch):
    # the benchmark sweep's 56 balloons at k = 6: each member's pole table is
    # 7 x 2, 896 bytes with its copies.  A budget of ten of them lists the
    # family in 6 slices, with the same seeds; one member over it is refused
    graphs = [families.balloon(string_length=L) for L in np.linspace(0.5, 6.0, 56)]
    lengths, _, offsets = analytic._tables(graphs)
    cells, k = np.array([fem.edge_cells(g, 0.01) for g in graphs]), np.full(56, 6)
    whole = analytic._pole_gaps(lengths, offsets, cells, k)
    listing, slices = analytic._slice_gaps, []

    def sliced(lengths, offsets, cells, k):
        slices.append(len(k))
        return listing(lengths, offsets, cells, k)

    monkeypatch.setattr(analytic, "_slice_gaps", sliced)
    monkeypatch.setattr(fem, "MEMORY_BUDGET", 10 * 8 * analytic.POLE_TABLE_COPIES * 7 * 2)
    for part, all_at_once in zip(analytic._pole_gaps(lengths, offsets, cells, k), whole):
        assert np.array_equal(part, all_at_once)
    assert slices == [10] * 5 + [6]
    monkeypatch.setattr(fem, "MEMORY_BUDGET", 800)
    with pytest.raises(fem.MemoryBudgetError, match="a table of 7 poles on each of 2 edges"):
        analytic._pole_gaps(lengths, offsets, cells, k)


def test_family_lists_each_shape_in_one_call(monkeypatch):
    # 56 balloons are one listing, not 56; balloons and fancy balloons of
    # 2-5 rungs, shuffled, are one listing per shape
    listing, calls = analytic._pole_gaps, []

    def spied(lengths, offsets, cells, k):
        calls.append(len(k))
        return listing(lengths, offsets, cells, k)

    monkeypatch.setattr(analytic, "_pole_gaps", spied)
    balloons = [families.balloon(string_length=L) for L in np.linspace(0.5, 6.0, 56)]
    analytic.piecewise_constant_family(balloons, 6, [fem.edge_cells(g, 0.01) for g in balloons])
    assert calls == [56]
    calls.clear()
    fancy = [families.fancy_balloon(n) for n in range(2, 6)]
    graphs = [balloons[0], fancy[0], balloons[1], fancy[1], fancy[2], balloons[2], fancy[3], fancy[0]]
    analytic.piecewise_constant_family(graphs, 8)
    assert calls == [3, 2, 1, 1, 1]


def test_p1_count_rejects_more_than_the_mesh_holds():
    graph = families.balloon()
    mesh = fem.build_mesh(graph, 10.0)
    with pytest.raises(ValueError, match=f"k must be at most the {mesh.ndof} unknowns of the mesh, got 6"):
        analytic.piecewise_constant_eigenvalues(graph, 6, fem.edge_cells(graph, 10.0))
    with pytest.raises(ValueError, match="cells must be one whole number of at least 1 per edge"):
        analytic.piecewise_constant_eigenvalues(graph, 2, [4, 0])


# --- square wells: the same count with per-edge offsets ---------------------


def _shoot(energy, pieces, alpha, slope=False):
    """``phi`` (or ``phi'``) at the far end of a row of constant pieces
    ``(length, c)`` that starts with ``phi = 0``, ``phi' = 1``: the transfer
    matrices of ``-alpha phi'' + c phi = E phi``, with no pole in ``E``."""
    phi, dphi = 0.0, 1.0
    for length, c in pieces:
        square = (energy - c) / alpha
        k = math.sqrt(abs(square))
        if square > 0:
            cs, sn = math.cos(k * length), math.sin(k * length)
            phi, dphi = phi * cs + dphi * sn / k, -phi * k * sn + dphi * cs
        elif square < 0:
            ch, sh = math.cosh(k * length), math.sinh(k * length)
            phi, dphi = phi * ch + dphi * sh / k, phi * k * sh + dphi * ch
        else:
            phi += dphi * length
    return dphi if slope else phi


def _roots(f, lo, hi, points=4000):
    """Every root of ``f`` on ``[lo, hi]``, bisected from the sign changes of a grid."""
    grid = np.linspace(lo, hi, points)
    values = [f(e) for e in grid]
    return [analytic.bisect(f, a, b) for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]) if (fa > 0) != (fb > 0)]


SQUARE_WELLS = {
    # (left, right) of a well of depth -200 on a Dirichlet interval of length 1
    "centred": (0.3, 0.7),
    "touching-an-end": (0.0, 0.35),
    "off-centre": (0.12, 0.47),
}


@pytest.mark.parametrize("left, right", SQUARE_WELLS.values(), ids=SQUARE_WELLS.keys())
def test_square_well_on_an_interval_matches_its_matching_equations(left, right):
    # the finite square well: its even and odd matching equations, phi' = 0
    # and phi = 0 at the centre of a centred well, or phi = 0 at the far end
    # of the others, solved by bisection; the count in t must agree, and
    # certify every bracket, the negative ones too
    depth, alpha, k = -200.0, 0.8, 12
    graph = families.interval(1.0, SquareWell(depth, left, right), alpha)
    energies, brackets = analytic.piecewise_constant_eigenvalues(graph, k)
    top = energies[-1] + 1.0
    if left + right == 1.0:
        half = [(left, 0.0), (0.5 - left, depth)]
        oracle = [*_roots(lambda e: _shoot(e, half, alpha, slope=True), depth, top),
                  *_roots(lambda e: _shoot(e, half, alpha), depth, top)]
    else:
        pieces = [(left, 0.0), (right - left, depth), (1.0 - right, 0.0)]
        oracle = _roots(lambda e: _shoot(e, [p for p in pieces if p[0] > 0], alpha), depth, top)
    oracle = np.sort(oracle)[:k]
    assert np.count_nonzero(oracle < 0) >= 2
    assert energies == pytest.approx(oracle, rel=1e-12, abs=1e-12 * -depth)
    lo, hi = (np.sqrt((brackets[:, i] - depth) / alpha) for i in (0, 1))
    count = analytic._dtn_counter([split_at_jumps(graph)])
    j = np.arange(1, k + 1)
    assert np.all(count(lo)[0] < j) and np.all(j <= count(hi)[0])


@st.composite
def trees_with_square_wells(draw):
    """A random tree with a square well of random depth and ends on some of its edges."""
    tree = families.random_tree(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 5)))
    edges = list(tree.edges)
    for i in draw(st.sets(st.integers(0, len(edges) - 1), min_size=1)):
        # ends on a grid of twentieths, some outside the edge, so no piece is shorter than a cell
        ends = sorted(draw(st.integers(-4, 24)) * edges[i].length / 20.0 for _ in range(2))
        edges[i] = Edge(edges[i].u, edges[i].v, edges[i].length, SquareWell(draw(st.floats(-60.0, 30.0)), *ends))
    return MetricGraph(tree.num_vertices, tuple(edges), tree.boundary, draw(st.floats(0.3, 2.0)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(trees_with_square_wells())
def test_square_well_spectrum_lies_below_split_p1(graph):
    # P1 on the graph split at its jumps holds V constant on each cell, where
    # its potential matrix is exact, so it is Rayleigh-Ritz and every E_h is at
    # least its exact E
    system = fem.assemble(fem.build_mesh(split_at_jumps(graph), 0.05))
    k = min(12, system.ndof // 3)
    assume(k > 0)
    exact, brackets = analytic.piecewise_constant_eigenvalues(graph, k)
    assert np.all(fem.solve_spectrum(system, k).energies >= exact - 1e-12 * np.abs(exact).max())
    assert np.all((brackets[:, 0] <= exact) & (exact <= brackets[:, 1]))


@pytest.mark.parametrize("name", ["tree_well", "loop_leads_well"])
def test_square_well_fixtures_match_richardson_extrapolated_split_p1(name):
    # split P1 converges as h^2 with an h^4 term next; cells doubled twice on
    # every edge give two Richardson steps, which leave 5e-10 of the lowest 8
    # from h = 0.016 (finer meshes gain nothing: from h = 0.004 the roundoff
    # of loop_leads_well's 46 000 unknowns leaves 9e-9)
    graph = split_at_jumps(load_graph(os.path.join(FIXTURES, f"{name}.json")))
    base = [max(1, math.ceil(e.length / 0.016)) for e in graph.edges]
    p1 = []
    for refine in (1, 2, 4):
        edges = tuple(dataclasses.replace(e, cells=c * refine) for e, c in zip(graph.edges, base))
        mesh = fem.build_mesh(dataclasses.replace(graph, edges=edges), 1.0)
        p1.append(fem.solve_spectrum(fem.assemble(mesh), 8).energies)
    once = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(p1, p1[1:])]
    twice = (16.0 * once[1] - once[0]) / 15.0
    exact, _ = analytic.piecewise_constant_eigenvalues(graph, 8)
    assert exact == pytest.approx(twice, rel=1e-8, abs=0)


@pytest.mark.parametrize("alpha, k", [(1e-5, None), (1e-10, 5)])
def test_weak_coupling_borders_both_hyperbolic_terms(alpha, k):
    # at weak coupling tree_well's zero edges lie far below their floor, where
    # both of their terms are near -eta, with eta / t up to 4e4 at 1e-10; a
    # term entered directly there swamps Lambda.  Deep in the well of width L
    # the states meet t L + 2 atan(t / eta) = m pi, exact to roundoff, since
    # the barriers of 0.225 damp by exp(-0.225 eta).  Every bound state (k is
    # None) or the lowest k must solve, and the count must certify the lowest 5
    model = analytic.ExactModel(load_graph(os.path.join(FIXTURES, "tree_well.json")))
    graph = dataclasses.replace(model.graph, alpha=alpha)
    width, offset = model.lengths[model.values < 0][0], 14.0 / alpha
    if k is None:
        energies = model.bound_states([alpha])[0]
        assert len(energies) == 396 and energies[-1] < 0
    else:
        energies = analytic.piecewise_constant_eigenvalues(graph, k)[0]
    count = analytic._dtn_counter([graph])
    for m in range(1, 6):
        t = analytic.bisect(
            lambda t: t * width + 2.0 * math.atan(t / math.sqrt(offset - t * t)) - m * math.pi,
            (m - 1) * math.pi / width, m * math.pi / width,
        )
        assert count(np.array([t * (1.0 - 1e-12)]))[0][0] < m <= count(np.array([t * (1.0 + 1e-12)]))[0][0]
        assert energies[m - 1] == pytest.approx(-14.0 + alpha * t * t, rel=0, abs=1e-14)


def test_exact_model_reads_the_split_graph():
    # tree_well's well of depth -14 and width 1.05: its integrals in closed
    # form, and at each coupling the negative part of a solve of the lowest 6
    model = analytic.ExactModel(load_graph(os.path.join(FIXTURES, "tree_well.json")))
    assert (model.alpha, model.min_potential) == (1.0, -14.0)
    assert model.negative_integral(2.0) == pytest.approx(14.0**2 * 1.05, rel=1e-14)
    assert model.negative_integral(2.5, shift=-4.0) == pytest.approx(10.0**2.5 * 1.05, rel=1e-14)
    for alpha in (0.25, 1.0, 4.0):
        lowest = analytic.piecewise_constant_eigenvalues(dataclasses.replace(model.graph, alpha=alpha), 6)[0]
        assert lowest[-1] > 0
        assert np.array_equal(model.bound_states([alpha])[0], lowest[lowest < 0])


@pytest.mark.parametrize("name", ["tree_well", "loop_leads_well"])
def test_coupling_grid_is_each_couplings_own_solve(name):
    # a grid is one family, and each coupling keeps its own number of bound
    # states as its k, so its seeds, brackets and bound states are those of
    # its own solve, bit for bit: from weak coupling, with 40-70 bound
    # states, to a coupling that binds nothing; so is a grid of 1 or of 8
    model = analytic.ExactModel(load_graph(os.path.join(FIXTURES, f"{name}.json")))
    alphas = np.array([1e-3, 0.05, 0.5, 1.0, 2.0, 4.0, 1e3])
    grid = model.bound_states(alphas)
    assert len(grid) == len(alphas)
    assert len(grid[0]) >= 40 and len(grid[-1]) == 0
    for alpha, states in zip(alphas, grid):
        assert np.array_equal(states, model.bound_states([alpha])[0])
    for alphas in ([0.5], np.geomspace(0.5, 4.0, 8)):
        grid = model.bound_states(alphas)
        assert len(grid) == len(alphas)
        for alpha, states in zip(alphas, grid):
            assert np.array_equal(states, model.bound_states([alpha])[0])


def test_coupling_grid_on_random_square_well_trees():
    # random trees of 1-5 edges with square wells: each coupling of the grid
    # binds as many states as it does alone, bit for bit the same, each
    # within the bracket of its own solve
    rng = np.random.default_rng(28)
    for _ in range(12):
        shape = families.random_tree(rng, int(rng.integers(1, 6)))
        edges = []
        for e in shape.edges:
            left, right = np.sort(rng.uniform(0.0, e.length, 2))
            edges.append(Edge(e.u, e.v, e.length, SquareWell(-rng.uniform(0.5, 60.0), left, right)))
        model = analytic.ExactModel(dataclasses.replace(shape, edges=tuple(edges)))
        alphas = np.append(np.sort(rng.uniform(0.01, 20.0, 6)), 1e6)
        grid = model.bound_states(alphas)
        assert len(grid) == len(alphas)
        assert len(grid[-1]) == 0
        for alpha, states in zip(alphas, grid):
            alone = model.bound_states([alpha])[0]
            assert np.array_equal(states, alone)
            if len(alone):
                graph = dataclasses.replace(model.graph, alpha=alpha)
                _, brackets = analytic.piecewise_constant_eigenvalues(graph, len(alone))
                slack = 1e-13 * np.abs(brackets).max(axis=1)
                assert np.all((brackets[:, 0] - slack <= states) & (states <= brackets[:, 1] + slack))


@pytest.mark.parametrize("name", ["pt_interval", "pt_balloon"])
def test_p1_coupling_grid_is_each_couplings_own_solve(name):
    # the P1 system's grid is one bracket pass, whose points are each counted
    # at their own coupling: every coupling's bound states are bit for bit
    # those of its solve alone, from weak coupling to one that binds nothing;
    # so are those of a grid of 1 or of 8
    system = fem.assemble(fem.build_mesh(load_graph(os.path.join(FIXTURES, f"{name}.json")), 0.05))
    alphas = np.array([1e-3, 0.05, 0.5, 1.0, 2.0, 4.0, 1e3])
    grid = system.bound_states(alphas)
    assert len(grid) == len(alphas)
    assert len(grid[0]) >= 15 and len(grid[-1]) == 0
    for alpha, states in zip(alphas, grid):
        assert np.array_equal(states, system.bound_states([alpha])[0])
    for alphas in ([0.5], np.geomspace(0.5, 4.0, 8)):
        grid = system.bound_states(alphas)
        assert len(grid) == len(alphas)
        for alpha, states in zip(alphas, grid):
            assert np.array_equal(states, system.bound_states([alpha])[0])


def test_p1_coupling_grid_on_random_wells():
    # random trees with sech-squared wells, and trees with Neumann leaves of
    # one constant negative V, whose E_1 is that constant: each coupling of
    # the grid is its solve alone, bit for bit
    rng = np.random.default_rng(35)
    for trial in range(6):
        shape = families.random_tree(rng, int(rng.integers(1, 5)))
        if trial % 3:
            wells = [PoschlTeller(rng.uniform(0.5, 3.0), rng.uniform(0.0, e.length)) for e in shape.edges]
            boundary = shape.boundary
        else:
            wells = [Sampled((-rng.uniform(1.0, 20.0),) * 2)] * len(shape.edges)
            boundary = dict.fromkeys(shape.boundary, NEUMANN)
        edges = tuple(Edge(e.u, e.v, e.length, w) for e, w in zip(shape.edges, wells))
        graph = dataclasses.replace(shape, edges=edges, boundary=boundary)
        system = fem.assemble(fem.build_mesh(graph, 0.05))
        alphas = np.append(np.sort(rng.uniform(0.01, 4.0, 5)), 1e6)
        grid = system.bound_states(alphas)
        assert len(grid) == len(alphas)
        assert len(grid[0]) and len(grid[-1]) == (0 if trial % 3 else 1)
        for alpha, states in zip(alphas, grid):
            assert np.array_equal(states, system.bound_states([alpha])[0])


def test_p1_stubbe_grid_is_one_bracket_pass(monkeypatch):
    # the Stubbe grid's 8 couplings on a P1 system close in one pass of the
    # bracket driver, not in one pass per coupling; one t counted for two
    # couplings in one batch is counted at each coupling
    calls, close = [], fem._close_brackets

    def spied(count, want, member, seeds, *args):
        calls.append(np.unique(member).tolist())
        alone = [count(seeds[:1], np.array([i]))[0][0] for i in (0, 7)]
        assert count(np.repeat(seeds[:1], 2), np.array([0, 7]))[0].tolist() == alone and alone[0] < alone[1]
        return close(count, want, member, seeds, *args)

    monkeypatch.setattr(fem, "_close_brackets", spied)
    system = fem.assemble(fem.build_mesh(load_graph(os.path.join(FIXTURES, "pt_interval.json")), 0.05))
    report = ineq.stubbe_monotonicity(system, np.geomspace(0.5, 4.0, 8))
    assert calls == [list(range(8))] and np.all(report.moments > 0)


@pytest.mark.parametrize("check", ["stubbe", "one_loop"])
def test_coupling_grids_are_one_family_solve(monkeypatch, check):
    # the Stubbe grid and the one-loop grid each make one family solve on
    # the exact model, of every coupling that binds a state
    calls, solve = [], analytic.piecewise_constant_family

    def spied(graphs, k, cells=None):
        calls.append(len(graphs))
        return solve(graphs, k, cells)

    monkeypatch.setattr(analytic, "piecewise_constant_family", spied)
    graph = load_graph(os.path.join(FIXTURES, "loop_leads_well.json"))
    model, alphas = analytic.ExactModel(graph), np.linspace(0.5, 2.0, 8)
    if check == "stubbe":
        ineq.stubbe_monotonicity(model, alphas)
    else:
        ineq.one_loop_shifted_check(model, ineq.loop_structure(graph), alphas, np.linspace(-8.0, -2.0, 4))
    assert calls == [8]


def _random_loop_pair(rng):
    """Two equal semicircles with a lead at each junction: random lengths,
    square wells on random edges, the loop among them, with ends on a grid of
    twentieths (no piece shorter than a cell), and Dirichlet or Neumann leaves."""
    half, leads = rng.uniform(0.8, 2.5), rng.uniform(0.5, 2.0, 2)
    edges = [Edge(0, 1, half), Edge(0, 1, half), Edge(0, 2, leads[0]), Edge(1, 3, leads[1])]
    for i in {int(rng.integers(0, 2)), *rng.choice(4, size=int(rng.integers(0, 3)), replace=False).tolist()}:
        ends = np.sort(rng.integers(0, 21, 2)) / 20.0 * edges[i].length
        edges[i] = dataclasses.replace(edges[i], potential=SquareWell(rng.uniform(-20.0, 10.0), *ends))
    boundary = {v: str(rng.choice([DIRICHLET, NEUMANN])) for v in (2, 3)}
    return MetricGraph(4, tuple(edges), boundary, rng.uniform(0.5, 2.0))


def _loop_rows(model, loop, k):
    """The closed-form mass and Dirichlet tables of the lowest ``k`` states
    of a loop pair, summed over its leads and over its loop, and the
    energies."""
    energies, brackets = analytic.piecewise_constant_eigenvalues(model.graph, k)
    tables = analytic.edge_tables(model.graph, energies, brackets)
    groups = [np.isin(model.edge_of, edges) for edges in (loop.lead_edges, loop.cycle_edges)]
    return energies, *(np.stack([table[on].sum(axis=0) for on in groups]) for table in tables)


def test_loop_pair_tables_are_derivatives_of_the_exact_energies():
    # the closed-form tables of random loop pairs: the masses of leads and
    # loop sum to 1 and their Dirichlet rows to dE / dalpha, by a central
    # difference of the exact energies, and P1 on the split graph converges
    # onto the loop's cluster sums as h^2
    rng = np.random.default_rng(2026)
    k = 8
    for _ in range(6):
        graph = _random_loop_pair(rng)
        model, loop = analytic.ExactModel(graph), ineq.loop_structure(graph)
        energies, (m_leads, m_loop), (d_leads, d_loop) = _loop_rows(model, loop, k)
        assert m_leads + m_loop == pytest.approx(np.ones(k), rel=0, abs=1e-8)
        up, down = (dataclasses.replace(model.graph, alpha=graph.alpha * (1.0 + s)) for s in (1e-5, -1e-5))
        e_up, e_down = (analytic.piecewise_constant_eigenvalues(g, k)[0] for g in (up, down))
        assert d_leads + d_loop == pytest.approx((e_up - e_down) / (up.alpha - down.alpha), rel=1e-6, abs=0)
        clusters = [list(c) for c in degenerate_clusters(energies, rtol=1e-4)]
        on = np.isin(model.edge_of, loop.cycle_edges)
        errors = []
        for h in (0.02, 0.01):
            spectrum = fem.solve_graph(model.graph, h, k)
            p1 = spectrum.edge_mass[on].sum(axis=0), spectrum.edge_dirichlet[on].sum(axis=0)
            errors.append([max(abs(p[c].sum() - x[c].sum()) for c in clusters) for p, x in zip(p1, (m_loop, d_loop))])
        (mass, dirichlet), ratios = errors[0], np.divide(*errors)
        assert mass < 1e-3 and dirichlet < 2e-3 * np.abs(d_loop).max()
        assert np.all((3.0 < ratios) & (ratios < 6.0))


def _random_square_well_tree(rng):
    """A random tree of 1-5 edges, each with a square well of random depth
    and ends, Dirichlet leaves and a random ``alpha``."""
    shape = families.random_tree(rng, int(rng.integers(1, 6)))
    edges = []
    for e in shape.edges:
        left, right = np.sort(rng.uniform(0.0, e.length, 2))
        edges.append(Edge(e.u, e.v, e.length, SquareWell(rng.uniform(-40.0, 20.0), left, right)))
    return dataclasses.replace(shape, edges=tuple(edges), alpha=rng.uniform(0.3, 3.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 40))
def test_edge_tables_hold_the_energy_identity(seed, loop_pair, k):
    # on random square-well loop pairs and trees, each state's masses sum to
    # 1 and its energy is its Dirichlet and potential energy,
    # sum_e (alpha d_e + c_e m_e) = E, to roundoff
    rng = np.random.default_rng(seed)
    graph = split_at_jumps(_random_loop_pair(rng) if loop_pair else _random_square_well_tree(rng))
    energies, brackets = analytic.piecewise_constant_eigenvalues(graph, k)
    mass, dirichlet = analytic.edge_tables(graph, energies, brackets)
    assert np.all(mass >= -1e-15) and np.all(dirichlet >= -1e-15)
    assert mass.sum(axis=0) == pytest.approx(np.ones(k), rel=0, abs=1e-13)
    scale = np.maximum(1.0, np.abs(energies)) + np.abs(analytic._edge_values(graph)).max()
    identity = graph.alpha * dirichlet.sum(axis=0) + analytic._edge_values(graph) @ mass
    assert np.all(np.abs(identity - energies) <= 1e-13 * scale)


#: The Neumann interval of length 3 with a square well over all of it: its
#: ground state is the constant at the well's floor.
_NEUMANN_WELL = MetricGraph(2, (Edge(0, 1, 3.0, SquareWell(-4.0, 0.0, 3.0)),), {0: NEUMANN, 1: NEUMANN})


@pytest.mark.parametrize("name", [
    "balloon_pi", "circle_two_leads", "fancy_balloon_3", "hash_graph", "interval_unit", "loop_leads_well",
    "tree_well", "wheatstone_balanced", "wheatstone_unbalanced", "y_graph", "neumann_well",
])
def test_matching_kernel_has_the_count_multiplicity(name, monkeypatch):
    # at k = 61 the kernel of every cluster's matching matrix has the
    # dimension the count gives (edge_tables raises SolverError otherwise):
    # eigenvalues on poles (interval_unit, hash_graph), wheatstone_balanced's
    # triple pi^2, balloon_pi's loop modes n^2, and the Neumann well's zero
    # mode, whose Dirichlet energy is 0
    graph = _NEUMANN_WELL if name == "neumann_well" else load_graph(os.path.join(FIXTURES, f"{name}.json"))
    graph = split_at_jumps(graph)
    svd, kernels = np.linalg.svd, []

    def spied(matrix):
        values = svd(matrix)
        kernels.append((values[1] < analytic.KERNEL_TOL).sum(axis=1))
        return values

    monkeypatch.setattr(np.linalg, "svd", spied)
    energies, brackets = analytic.piecewise_constant_eigenvalues(graph, 61)
    mass, dirichlet = analytic.edge_tables(graph, energies, brackets)
    assert mass.sum(axis=0) == pytest.approx(np.ones(61), rel=0, abs=1e-13)
    clusters = degenerate_clusters(energies, rtol=1e-10)
    assert sorted(kernels[0][:-1]) == sorted(len(c) for c in clusters[:-1])
    if name == "wheatstone_balanced":
        assert 3 in kernels[0]
    if name == "neumann_well":
        assert energies[0] == -4.0 and abs(dirichlet[:, 0]).max() < 1e-15


def test_matching_kernel_of_a_cut_cluster_is_its_whole_multiplicity():
    # the states solved may cut a cluster: its kernel is compared with the
    # count's whole multiplicity, and each state read takes the mean of the
    # whole cluster, as when all of it is solved
    graph = load_graph(os.path.join(FIXTURES, "wheatstone_balanced.json"))
    energies, brackets = analytic.piecewise_constant_eigenvalues(graph, 61)
    triple = np.flatnonzero(np.abs(energies - math.pi**2) < 1e-9)
    assert len(triple) == 3
    whole = analytic.edge_tables(graph, energies, brackets)
    k = int(triple[1]) + 1
    cut = analytic.edge_tables(graph, energies[:k], brackets[:k])
    for table, full in zip(cut, whole):
        mean = full[:, triple].mean(axis=1)
        assert table[:, triple[:2]] == pytest.approx(np.stack([mean, mean], axis=1), rel=1e-12, abs=1e-14)
    assert cut[0].sum(axis=0) == pytest.approx(np.ones(k), rel=0, abs=1e-13)


def test_edge_tables_off_the_spectrum_raise():
    # an energy between two eigenvalues has no kernel
    graph = load_graph(os.path.join(FIXTURES, "tree_well.json"))
    split = split_at_jumps(graph)
    energies, brackets = analytic.piecewise_constant_eigenvalues(split, 3)
    off = 0.5 * (energies[1] + energies[2])
    with pytest.raises(fem.SolverError, match="kernel of dimension 0 where the count gives 1"):
        analytic.edge_tables(split, np.array([energies[0], off]), np.array([brackets[0], [off, off]]))


# --- families -------------------------------------------------------------------


@st.composite
def families_of_shapes(draw):
    """1-4 members of each of 1-2 random shapes, shuffled: a tree, some with
    Neumann leaves, or a cycle, and each member with its own edge lengths
    and ``alpha``.  All are on ``V = 0`` and counted exactly, or on ``V =
    0`` with their own P1 ``cells``, or carry square wells at the places of
    their shape, of one sign and each its own depth.  Returns the graphs and
    their cells (``None`` for the exact count)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["exact", "cells", "wells"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    graphs, cells = [], []
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(1, 5))
        if draw(st.booleans()):
            shape = families.random_tree(rng, size)
            if draw(st.booleans()):
                shape = dataclasses.replace(shape, boundary={v: NEUMANN for v in shape.boundary})
        else:
            shape = MetricGraph(size, tuple(Edge(i, (i + 1) % size, 1.0) for i in range(size)))
        # well ends on a grid of twentieths of each edge, the same in every member
        wells = {i: sorted(draw(st.integers(0, 20)) for _ in range(2))
                 for i in draw(st.sets(st.integers(0, size - 1), min_size=1))}
        for _ in range(draw(st.integers(1, 4))):
            depth, edges = sign * draw(st.floats(1.0, 60.0)), []
            for i, e in enumerate(shape.edges):
                length = draw(st.floats(0.2, 3.0))
                left, right = wells.get(i, (0, 0))
                if kind == "wells" and left < right:
                    e = Edge(e.u, e.v, length, SquareWell(depth, length * (left / 20), length * (right / 20)))
                edges.append(Edge(e.u, e.v, length, e.potential))
            graphs.append(MetricGraph(shape.num_vertices, tuple(edges), shape.boundary, draw(st.floats(0.3, 2.0))))
            cells.append([draw(st.integers(2, 8)) for _ in edges])
    order = draw(st.permutations(range(len(graphs))))
    return [graphs[i] for i in order], [cells[i] for i in order] if kind == "cells" else None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(families_of_shapes(), st.integers(1, 10))
def test_family_solve_agrees_with_each_member_solved_alone(family, k):
    # the members of a shape share one bracket loop; each member's energies
    # must lie in the brackets of its own solve and each member's brackets
    # must pass its own counter's certificate
    graphs, cells = family
    free = [sum(g.boundary.get(v) != DIRICHLET for v in range(g.num_vertices)) for g in graphs]
    k = min([k, *(f + sum(c) - len(c) for f, c in zip(free, cells or []))])
    assume(k > 0)
    solved = analytic.piecewise_constant_family(graphs, k, cells)
    assert len(solved) == len(graphs)
    for i, (graph, (energies, brackets)) in enumerate(zip(graphs, solved)):
        own = None if cells is None else cells[i]
        _, alone = analytic.piecewise_constant_eigenvalues(graph, k, own)
        split = split_at_jumps(graph)
        floor = analytic._tables([split])[1][0]
        assert np.all((alone[:, 0] <= energies) & (energies <= alone[:, 1]))
        count = analytic._dtn_counter([split], None if own is None else np.array([own]))
        j = np.arange(1, k + 1)
        solves = brackets[:, 1] > floor  # not the zero mode E_1 = c_min, returned as [c_min, c_min]
        # the count at an end within roundoff of its eigenvalue is decided by
        # roundoff, which the batched count and a count of one member share
        # only in size, so each end is moved out by 1e-13 in t
        t = np.sqrt((brackets[solves] - floor) / graph.alpha) * [1.0 - 1e-13, 1.0 + 1e-13]
        lo, hi = t.T
        assert np.all(count(lo)[0] < j[solves]) and np.all(j[solves] <= count(hi)[0])


#: A cycle of four unit edges, three with a thin well: two copies of it in one
#: family came out 1 ulp apart from it alone when the batched count formed
#: every point's matrix in one matrix product.
_WELL_CYCLE = MetricGraph(4, tuple(
    Edge(i, (i + 1) % 4, 1.0, SquareWell(-1.0, *ends) if ends else ZERO)
    for i, ends in enumerate([(0.0, 0.05), (0.05, 0.1), (0.05, 0.1), None])
))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(families_of_shapes(), st.integers(1, 10))
@example(([_WELL_CYCLE, _WELL_CYCLE], None), 1)
def test_family_member_is_its_own_solve_bit_for_bit(family, k):
    # each point of the batched count is its own product, so a member's
    # energies and brackets do not depend on the members beside it
    graphs, cells = family
    free = [sum(g.boundary.get(v) != DIRICHLET for v in range(g.num_vertices)) for g in graphs]
    k = min([k, *(f + sum(c) - len(c) for f, c in zip(free, cells or []))])
    assume(k > 0)
    solved = analytic.piecewise_constant_family(graphs, k, cells)
    for i, (graph, (energies, brackets)) in enumerate(zip(graphs, solved)):
        alone, own = analytic.piecewise_constant_eigenvalues(graph, k, None if cells is None else cells[i])
        assert np.array_equal(energies, alone) and np.array_equal(brackets, own)


def test_family_groups_its_members_by_shape():
    # balloons, fancy balloons of 2-5 rungs and a square well on a Y: one
    # family per shape, each result where its graph stood, and bit-equal to
    # the graph solved alone
    balloons = [families.balloon(string_length=L) for L in (0.7, 1.9, 3.3)]
    fancy = [families.fancy_balloon(n) for n in range(2, 6)]
    graphs = [balloons[0], fancy[0], balloons[1], fancy[1], fancy[2], balloons[2], fancy[3]]
    well = families.with_square_well(families.y_graph(), 0, -9.0)
    cells = [fem.edge_cells(g, 0.05) for g in graphs]
    for members, rows in ((graphs, cells), ([well, *graphs], None)):
        solved = analytic.piecewise_constant_family(members, 8, rows)
        assert len(solved) == len(members)
        for i, (graph, (energies, brackets)) in enumerate(zip(members, solved)):
            alone = analytic.piecewise_constant_eigenvalues(graph, 8, None if rows is None else rows[i])
            assert np.array_equal(energies, alone[0]) and np.array_equal(brackets, alone[1])


def test_family_over_the_budget_is_solved_in_chunks(monkeypatch):
    # 12 balloons of 3 x 3 matrices need about 25 kB each: a budget of 60 kB
    # takes them two at a time, with a counter per chunk, and the same results
    graphs = [families.balloon(string_length=L) for L in np.linspace(0.5, 6.0, 12)]
    cells = [fem.edge_cells(g, 0.05) for g in graphs]
    whole = analytic.piecewise_constant_family(graphs, 6, cells)
    counter, builds = analytic._dtn_counter, []

    def built(family, *args):
        builds.append(len(family))
        return counter(family, *args)

    monkeypatch.setattr(analytic, "_dtn_counter", built)
    monkeypatch.setattr(fem, "MEMORY_BUDGET", 60_000)
    chunked = analytic.piecewise_constant_family(graphs, 6, cells)
    assert builds == [2] * 6
    for (energies, brackets), (e, b) in zip(whole, chunked):
        assert np.all((brackets[:, 0] <= e) & (e <= brackets[:, 1]))
        assert np.all((b[:, 0] <= energies) & (energies <= b[:, 1]))
    # one member alone over the budget is refused, as a graph on its own is
    monkeypatch.setattr(fem, "MEMORY_BUDGET", 20_000)
    with pytest.raises(fem.MemoryBudgetError, match="an exact count of 26 matrices of size 3"):
        analytic.piecewise_constant_family(graphs, 6, cells)
