import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qglab import analytic, families, fem, inequalities as ineq
from qglab.graphs import DIRICHLET, Edge, MetricGraph, PoschlTeller, SquareWell, load_graph, scale_graph

from conftest import verify_yang

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def assembled(graph, h):
    return fem.assemble(fem.build_mesh(graph, h))


def lt_quotient(system, energies, gamma):
    """The moment quotient as ``verify`` computes it: every bound state is
    read through ``solve_bound_states`` from a certified solve's energies."""
    bound = fem.solve_bound_states(system, system.mesh.graph.alpha, solved=energies)
    return ineq.lt_quotient(system, bound, gamma)


def interval_energies(n=40):
    return np.arange(1, n + 1, dtype=float) ** 2 * math.pi**2


# --- quadratic sum-rule check ----------------------------------------------


def test_yang_single_term_tangency():
    # (z - E)(z - 5E) vanishes exactly at z = 5E
    e1 = math.pi**2
    z = 5 * e1
    assert (z - e1) ** 2 - 4 * (z - e1) * e1 == pytest.approx(0.0, abs=1e-9)
    # the full interval sum at that z is dominated by the second eigenvalue
    e = interval_energies()
    check = ineq.yang_check(e, e.copy(), 1.0, np.array([z]), tol_rel=1e-6)
    assert check.values[0] == pytest.approx(-15 * math.pi**4, rel=1e-12)
    assert check.verdict == "holds"


def test_yang_interval_holds_everywhere():
    e = interval_energies()
    check = ineq.yang_check(e, e.copy(), 1.0, ineq.make_z_grid(e), tol_rel=1e-6)
    assert check.verdict == "holds"


def test_yang_balloon_violated_between_5e1_and_e2():
    modes = analytic.balloon_eigenvalues(math.pi, 40)
    e = np.array([m.energy for m in modes])
    e1, e2 = e[0], e[1]
    assert e2 > 5 * e1  # ratio 16.8 makes the window nonempty
    z = np.array([0.5 * (5 * e1 + e2)])
    check = ineq.yang_check(e, e.copy(), 1.0, z, tol_rel=1e-6)
    assert check.verdict == "violated"
    assert check.values[0] == pytest.approx((z[0] - e1) * (z[0] - 5 * e1), rel=1e-12)


def test_yang_weakened_on_circle_with_leads():
    g = families.circle_with_leads()
    spec = fem.solve_graph(g, 0.01, 36)
    plain = verify_yang(spec)
    weak = verify_yang(spec, coeff_ratio=4.0)
    assert weak.verdict == "holds"
    assert weak.worst_margin <= plain.worst_margin


def test_yang_coverage_error():
    e = interval_energies(5)
    with pytest.raises(ineq.CoverageError):
        ineq.yang_check(e, e.copy(), 1.0, np.array([2 * e[-1]]))


def test_yang_tree_fem_holds(rng):
    tree = families.random_tree(rng, 8)
    spec = fem.solve_graph(tree, 0.05 * tree.total_length / 24, 24)
    assert verify_yang(spec).verdict == "holds"


# --- moment quotients --------------------------------------------------------


def test_lt_quotient_rejections():
    system = assembled(families.poschl_teller_balloon(20.0), 0.02)
    with pytest.raises(ValueError, match="gamma"):
        lt_quotient(system, fem.solve_energies(system, 4), 1.0)
    zero = assembled(families.interval(1.0), 0.02)
    with pytest.raises(ValueError, match="negative part"):
        lt_quotient(zero, fem.solve_energies(zero, 4), 1.5)


def test_lt_quotient_no_bound_state_note():
    g = families.interval(1.0, potential=SquareWell(depth=-0.5, left=0.4, right=0.6))
    system = assembled(g, 0.01)
    q = lt_quotient(system, fem.solve_energies(system, 4), 1.5)
    assert q.quotient == 0.0
    assert "no negative eigenvalues" in q.note


def test_lt_quotient_refuses_truncated_moment():
    # at alpha = 0.01 the tree's well binds far more than 4 states; the
    # moment is not truncated to the 4 solved but reads every bound state
    g = dataclasses.replace(load_graph(os.path.join(FIXTURES, "tree_well.json")), alpha=0.01)
    system = assembled(g, 0.02)
    lowest = fem.solve_energies(system, 4)
    assert lowest[-1] < 0.0
    assert lt_quotient(system, lowest, 2.0).quotient == pytest.approx(0.1646, abs=1e-3)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), depth=st.floats(5.0, 40.0), log_alpha=st.floats(math.log(0.05), 0.0))
def test_lt_quotient_moment_does_not_depend_on_the_solved_count(seed, depth, log_alpha):
    tree = families.random_tree(np.random.default_rng(seed), 4)
    g = dataclasses.replace(families.with_square_well(tree, 0, depth=-depth), alpha=math.exp(log_alpha))
    system = assembled(g, min(0.02, 0.08 * math.sqrt(g.alpha / depth)))
    m = len(fem.solve_bound_states(system, g.alpha))
    moments = [lt_quotient(system, fem.solve_energies(system, k), 2.0).moment for k in (1, 4, m + 1)]
    assert moments[1] == pytest.approx(moments[0], rel=1e-9, abs=0)
    assert moments[2] == pytest.approx(moments[0], rel=1e-9, abs=0)


def test_z_grid_on_negative_spectrum_is_a_coverage_error():
    # the grid starts at E1 / 2, above the whole batch when every E is below it
    with pytest.raises(ineq.CoverageError, match="too short"):
        ineq.make_z_grid(np.array([-14.0, -13.9, -13.7, -13.4, -13.0, -12.5]))


def test_lt_quotient_pt_balloon_short_string(monkeypatch):
    graph = families.poschl_teller_balloon(40.0)
    system = assembled(graph, 0.02)
    monkeypatch.setattr(fem, "DENSE_DOF_CAP", 100)
    q = lt_quotient(system, fem.solve_spectrum(system, 6).energies, 1.5)
    assert q.quotient == pytest.approx(3 / 11, abs=2e-3)
    assert q.exceeds_classical
    closed = sum(
        analytic.pt_negative_part_integral(e.potential.a, e.potential.center, e.length, 2.0)
        for e in graph.edges
        if isinstance(e.potential, PoschlTeller)
    )
    assert closed == pytest.approx(fem.integrate_potential_power(system.mesh, 2.0), rel=1e-4)


def test_lt_quotient_truncation_independence(monkeypatch):
    qs = []
    monkeypatch.setattr(fem, "DENSE_DOF_CAP", 100)
    for string in (40.0, 60.0):
        system = assembled(families.poschl_teller_balloon(string), 0.02)
        qs.append(lt_quotient(system, fem.solve_spectrum(system, 6).energies, 1.5).quotient)
    assert abs(qs[0] - qs[1]) < 1e-6


# --- coupling monotonicity ---------------------------------------------------


def test_stubbe_tree_with_well():
    g = load_graph(os.path.join(FIXTURES, "tree_well.json"))
    rep = ineq.stubbe_monotonicity(assembled(g, 0.02), np.geomspace(0.5, 4.0, 8))
    assert rep.nonincreasing
    assert rep.below_bound
    assert rep.classical_bound > rep.values.max() > 0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_edges=st.integers(3, 6),
    depth=st.floats(5.0, 15.0),
    log_alpha=st.floats(math.log(0.25), math.log(4.0)),
)
def test_lieb_thirring_gamma_2_holds_on_trees(seed, n_edges, depth, log_alpha):
    # sum |E|^2 <= L^cl alpha^(-1/2) int V_-^(5/2) on every tree, at every coupling
    alpha = math.exp(log_alpha)
    tree = families.random_tree(np.random.default_rng(seed), n_edges)
    longest = int(np.argmax([e.length for e in tree.edges]))
    g = dataclasses.replace(families.with_square_well(tree, longest, depth=-depth), alpha=alpha)
    system = assembled(g, min(0.02, 0.08 * math.sqrt(alpha / depth)))
    q = lt_quotient(system, fem.solve_energies(system, 1), 2.0)
    assert q.quotient <= q.classical_constant * (1.0 + ineq.TOL_FEM)


def test_stubbe_trivial_for_nonnegative_potential():
    rep = ineq.stubbe_monotonicity(
        assembled(families.y_graph(), 0.05), np.array([0.5, 1.0, 2.0])
    )
    assert np.all(rep.values == 0.0)
    assert rep.verdict == "holds"


def test_stubbe_grid_validation():
    with pytest.raises(ValueError, match="ascending"):
        ineq.stubbe_monotonicity(assembled(families.y_graph(), 0.02), np.array([1.0, 0.5, 2.0]))
    with pytest.raises(ValueError, match="at least 2 points"):
        ineq.stubbe_monotonicity(assembled(families.y_graph(), 0.02), np.array([1.0]))


# --- one-loop graph ----------------------------------------------------------


def _loop_instance(lead=6.0):
    well = SquareWell(depth=-12.0, left=0.5 * (math.pi - 2.0), right=0.5 * (math.pi + 2.0))
    return families.circle_with_leads(lead=lead, well=well)


def test_loop_structure_identifies_parts():
    loop = ineq.loop_structure(_loop_instance())
    assert loop.cycle_edges == (0, 1)
    assert loop.lead_edges == (2, 3)
    assert loop.q == pytest.approx(2.0)


def test_loop_structure_rejects_unequal_semicircles():
    g = MetricGraph(
        4,
        (Edge(0, 1, 2.0), Edge(0, 1, 1.0), Edge(0, 2, 1.0), Edge(1, 3, 1.0)),
        {2: DIRICHLET, 3: DIRICHLET},
    )
    with pytest.raises(ValueError, match="antipodal"):
        ineq.loop_structure(g)
    with pytest.raises(ValueError, match="one-loop"):
        ineq.loop_structure(families.y_graph())


def test_one_loop_shifted_check_holds():
    rep = ineq.one_loop_shifted_check(
        assembled(_loop_instance(), 0.02),
        ineq.loop_structure(_loop_instance()),
        np.geomspace(0.5, 2.0, 4),
        np.linspace(-5.0, -1.6, 4),
    )
    assert rep.skipped == 0
    assert rep.monotone
    assert rep.lt_holds
    # nontrivial: some window actually carries spectral weight
    assert rep.map_values.max() > 0


def test_one_loop_rejects_positive_windows():
    with pytest.raises(ineq.CoverageError):
        ineq.one_loop_shifted_check(
            assembled(_loop_instance(), 0.02),
            ineq.loop_structure(_loop_instance()),
            np.array([0.5, 1.0]),
            np.array([-1.0, 0.5]),
        )


def test_sum_rule_steps():
    spec = fem.solve_graph(_loop_instance(), 0.02, 24)
    loop = ineq.loop_structure(_loop_instance())
    tables = loop.rows(spec.edge_mass), loop.rows(spec.edge_dirichlet)
    for j in (2, 3, 6):
        z = 0.5 * (spec.energies[j] + spec.energies[j + 1])
        step = ineq.sum_rule_steps_check(spec.energies, spec.alpha, loop.q, *tables, float(z))
        assert step.verdict == "holds"
    # below the ground state both sides are empty
    trivial = ineq.sum_rule_steps_check(spec.energies, spec.alpha, loop.q, *tables, float(spec.energies[0]) - 1.0)
    assert trivial.in1_value == 0.0
    assert trivial.perid_lhs == trivial.perid_rhs == 0.0


# --- the spectral model ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DirichletWell:
    """``-alpha d^2/dx^2 - c`` on a Dirichlet interval of length ``l``, in
    closed form: a spectral model with no mesh."""

    c: float
    l: float
    alpha: float = 1.0

    @property
    def min_potential(self):
        return -self.c

    def bound_states(self, alphas, solved=None):
        states = []
        for alpha in alphas:
            n = np.arange(1, math.floor(self.l / math.pi * math.sqrt(self.c / alpha)) + 2)
            energies = -self.c + alpha * (n * math.pi / self.l) ** 2
            states.append(energies[energies < 0])
        return states

    def negative_integral(self, power, shift=0.0):
        return self.l * max(self.c + shift, 0.0) ** power


def test_moment_checks_read_only_the_model():
    # the checks of the negative spectrum reach no mesh, so a closed form
    # gives what P1 gives, within P1's O(h^2) error, and the same verdicts
    c, l = 14.0, 1.4
    model = DirichletWell(c, l)
    assert not hasattr(model, "mesh")
    system = assembled(families.interval(l, SquareWell(-c, 0.0, l)), 0.002)
    for gamma in (1.5, 2.0):
        exact = ineq.lt_quotient(model, model.bound_states([model.alpha])[0], gamma)
        p1 = lt_quotient(system, fem.solve_energies(system, 4), gamma)
        assert exact.integral == pytest.approx(p1.integral, rel=1e-12)
        assert exact.quotient == pytest.approx(p1.quotient, rel=1e-5)
        assert exact.exceeds_classical == p1.exceeds_classical
    alphas = np.geomspace(0.5, 4.0, 8)
    exact, p1 = ineq.stubbe_monotonicity(model, alphas), ineq.stubbe_monotonicity(system, alphas)
    np.testing.assert_allclose(exact.values, p1.values, rtol=0, atol=1e-5 * p1.values.max())
    assert exact.classical_bound == pytest.approx(p1.classical_bound, rel=1e-12)
    assert (exact.nonincreasing, exact.below_bound) == (p1.nonincreasing, p1.below_bound) == (True, True)
    loop = ineq.LoopLeads(cycle_edges=(0, 1), lead_edges=(2, 3), q=2.0)
    alphas, zs = np.geomspace(0.5, 2.0, 4), np.linspace(-8.0, -2.0, 4)
    exact, p1 = (ineq.one_loop_shifted_check(m, loop, alphas, zs) for m in (model, system))
    assert p1.map_values.max() > 0
    np.testing.assert_allclose(exact.map_values, p1.map_values, rtol=0, atol=1e-5 * p1.map_values.max())
    assert (exact.monotone, exact.lt_holds, exact.skipped) == (p1.monotone, p1.lt_holds, p1.skipped)
    assert exact.verdict == p1.verdict == "holds"


# --- Riesz means -------------------------------------------------------------


def test_riesz_interval_closed_form():
    e = interval_energies(500)
    rep = ineq.riesz_suite(e[:333], 1.0, sample_js=(1, 2, 5, 10, 20, 50, 100))
    assert rep.verdict == "holds"
    assert not rep.failures


def test_riesz_touching_point():
    e1 = math.pi**2
    e = interval_energies(50)
    lower = 16.0 / math.sqrt(e1) * (5 * e1 / 5.0) ** 2.5
    assert lower == pytest.approx(16 * e1**2, rel=1e-12)
    r1, r2, _ = ineq.riesz_means(e, np.array([5 * e1]))
    # E2 = 4 E1 also sits below 5 E1, so R2 = 16 E1^2 + E1^2
    assert r2[0] == pytest.approx(17 * e1**2, rel=1e-12)
    assert r2[0] >= lower


def test_riesz_weyl_saturation_at_large_z():
    # R2 / z^(5/2) approaches the semiclassical constant times the length
    e = interval_energies(500)
    z = (100 * math.pi) ** 2
    r2 = float(np.sum(np.maximum(z - e, 0.0) ** 2))
    limit = analytic.classical_lt_constant(2.0) * 1.0
    assert r2 / z**2.5 == pytest.approx(limit, rel=0.02)
    assert r2 / z**2.5 <= limit


def test_riesz_rejects_nonpositive_spectrum():
    with pytest.raises(ValueError, match="positive"):
        ineq.riesz_suite(np.array([-1.0, 2.0]), 1.0)


def test_riesz_fem_tree(rng):
    tree = families.random_tree(rng, 6)
    k = 90
    spec = fem.solve_graph(tree, 0.05 * tree.total_length / k, k)
    rep = ineq.riesz_suite(spec.energies[: ineq.trusted_count(k)], tree.total_length, tol_rel=1e-3)
    assert rep.verdict == "holds"


# --- mean ratios and counting ------------------------------------------------


def test_mean_ratio_interval_values():
    e = interval_energies(20)
    bounds = ineq.mean_ratio_bounds(e, [(1, 2), (5, 10)])
    # means of 1..n squares in units of pi^2
    assert bounds[0].ratio == pytest.approx(2.5, rel=1e-14)
    assert bounds[0].bound_tight == pytest.approx(125 / 108 * 4, rel=1e-14)
    assert bounds[0].bound_loose == pytest.approx(5 / 3 * 4, rel=1e-14)
    assert bounds[1].ratio == pytest.approx(3.5, rel=1e-14)
    assert bounds[1].bound_tight == pytest.approx(125 / 108 * 4, rel=1e-14)
    assert all(b.holds for b in bounds)


def test_mean_ratio_tight_bound_threshold():
    e = interval_energies(20)
    b = ineq.mean_ratio_bounds(e, [(5, 6)])[0]  # k = 6j/5 exactly
    assert b.bound_tight is not None
    assert b.holds


def test_mean_ratio_errors():
    e = interval_energies(5)
    with pytest.raises(ineq.CoverageError):
        ineq.mean_ratio_bounds(e, [(1, 10)])
    with pytest.raises(ValueError):
        ineq.mean_ratio_bounds(e, [(3, 2)])


def test_weyl_interval_exact():
    e = interval_energies(60)
    rep = ineq.weyl_check(e, 1.0)
    assert rep.ns[-1] == 60
    assert rep.final_value == pytest.approx(1.0, rel=1e-14)
    assert rep.verdict == "holds"
    with pytest.raises(ineq.CoverageError):
        ineq.weyl_check(e[:10], 1.0)


# --- scaling covariance ------------------------------------------------------


def test_scaling_covariance_of_ratios_and_quotients():
    g = families.poschl_teller_balloon(20.0)
    system, system2 = assembled(g, 0.02), assembled(scale_graph(g, 2.0), 0.04)
    spec, spec2 = fem.solve_spectrum(system, 6), fem.solve_spectrum(system2, 6)
    assert np.allclose(spec2.energies, spec.energies / 4.0, rtol=1e-9)
    q1 = lt_quotient(system, spec.energies, 2.0)
    q2 = lt_quotient(system2, spec2.energies, 2.0)
    assert q2.quotient == pytest.approx(q1.quotient, rel=1e-9)


def test_stubbe_pt_balloon_exceeds_classical_bound():
    g = families.poschl_teller_balloon(40.0)
    rep = ineq.stubbe_monotonicity(assembled(g, 0.02), np.array([0.5, 1.0, 2.0]))
    # at alpha = 1 the quotient 0.2009 / 0.16977 > 1 shows up as a value above
    # the semiclassical ceiling; loops break the tree-side guarantee
    assert rep.values[1] > rep.classical_bound
    assert not rep.below_bound
    assert rep.values[1] / rep.classical_bound == pytest.approx(0.2009 / 0.169765, rel=2e-3)


def test_mean_ratio_random_trees_sweep(rng):
    for _ in range(20):
        tree = families.random_tree(rng, int(rng.integers(3, 9)))
        k = 75
        spec = fem.solve_graph(tree, 0.05 * tree.total_length / k, k)
        trusted = spec.energies[: ineq.trusted_count(k)]  # 50 eigenvalues
        pairs = [(1, 2), (2, 5), (5, 25), (10, 50), (25, 50)]
        assert all(
            b.holds for b in ineq.mean_ratio_bounds(trusted, pairs, tol_rel=1e-3)
        )
