import math

import numpy as np
import pytest

from qglab import analytic, families, fem
from qglab.graphs import DIRICHLET, NEUMANN, Edge, MetricGraph


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
    for L in (1e3, 1e5):
        calls.clear()
        modes = analytic.balloon_eigenvalues(L, 3)
        assert len(calls) <= 50
    exact, _ = analytic.zero_potential_eigenvalues(families.balloon(string_length=1e5), 3)
    assert [m.energy for m in modes] == pytest.approx(exact, rel=1e-12)


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
    energies, _ = analytic.zero_potential_eigenvalues(graph, 60)
    assert energies == pytest.approx(oracle, rel=1e-12, abs=0)


@pytest.mark.parametrize("graph, oracle", [case[1:] for case in EXACT_CASES], ids=[case[0] for case in EXACT_CASES])
def test_zero_potential_brackets_are_certified_by_the_count(graph, oracle):
    energies, brackets = analytic.zero_potential_eigenvalues(graph, 60)
    lo, hi = brackets.T
    positive = hi > 0  # E = 0 comes back as [0, 0]
    assert np.array_equal(energies[~positive], np.zeros(np.count_nonzero(~positive)))
    count = analytic._dtn_counter(graph)[0]
    j = np.arange(1, 61)[positive]
    assert np.all(count(np.sqrt(lo[positive] / graph.alpha)) < j)
    assert np.all(j <= count(np.sqrt(hi[positive] / graph.alpha)))
    assert np.all(hi - lo <= 1e-13 * hi)
    assert np.all((lo <= energies) & (energies <= hi))
    oracle = np.asarray(oracle)
    assert np.all((lo * (1 - 1e-14) <= oracle) & (oracle <= hi * (1 + 1e-14)))


def test_zero_potential_rejections():
    with pytest.raises(ValueError, match="V = 0"):
        analytic.zero_potential_eigenvalues(families.poschl_teller_balloon(20.0), 5)
    with pytest.raises(ValueError, match="at least 1"):
        analytic.zero_potential_eigenvalues(families.y_graph(), 0)

