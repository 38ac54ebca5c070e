"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured runtimes.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from qglab import analytic, circuits, colorings, families, fem, inequalities as ineq
from qglab.graphs import load_graph

from conftest import averaged_yang, binomial_identity_check, verify_yang

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def report(num, name, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {tag}{' (' + extra + ')' if extra else ''}")
    assert ok, f"criterion {num} ({name}) failed"


def test_01_balloon_ratio():
    t0 = time.perf_counter()
    oracle = analytic.balloon_ratio(math.pi)
    ok = abs(oracle - 16.8453) <= 1e-3
    spec = fem.solve_graph(families.balloon(), 0.002, 6)
    fem_ratio = spec.energies[1] / spec.energies[0]
    ok = ok and abs(fem_ratio / oracle - 1.0) <= 0.005
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(1, "balloon-ratio", ok, f"oracle {oracle:.6f}, fem {fem_ratio:.6f}, {elapsed:.2f}s")


def test_02_balloon_sweep(tmp_path):
    t0 = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "qglab.cli", "sweep", "--sweep", "balloon-L",
         "--range", "0.5:6", "--steps", "56", "--engine", "fem", "--h", "0.01",
         "--jobs", "2", "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    assert result.returncode == 0, result.stderr
    rows = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    assert len(rows) == 56
    best = max(rows, key=lambda r: float(r["ratio"]))
    grid = [float(r["L"]) for r in rows]
    nearest = min(grid, key=lambda L: abs(L - math.pi))
    ok = float(best["L"]) == nearest and elapsed < 120.0
    report(2, "balloon-L-sweep", ok, f"argmax L={best['L']}, {elapsed:.1f}s")


def test_03_fancy_balloon():
    ok = True
    details = []
    for n in (2, 3, 5, 10):
        oracle_e1 = (math.atan(1.0 / math.sqrt(n)) / math.pi) ** 2
        spec = fem.solve_graph(families.fancy_balloon(n), 0.02, 2)
        ok = ok and abs(spec.energies[0] / oracle_e1 - 1.0) <= 0.005
        details.append(f"N={n} ok")
    e3 = analytic.fancy_balloon_eigenvalues(3, 2)
    ok = ok and abs(e3[0] - 1 / 36) < 1e-12
    ok = ok and abs(e3[1] / e3[0] - 25.0) < 1e-10
    e50 = analytic.fancy_balloon_eigenvalues(50, 2)
    frac = (e50[1] / e50[0]) / (math.pi**2 * 50)
    ok = ok and 0.85 <= frac <= 1.0
    report(3, "fancy-balloon", ok, f"N=50 ratio/(pi^2 N) = {frac:.4f}")


def test_04_counterexample_quotients(monkeypatch):
    system = fem.assemble(fem.build_mesh(families.poschl_teller_balloon(60.0), 0.015))
    monkeypatch.setattr(fem, "DENSE_DOF_CAP", 100)
    energies = fem.solve_spectrum(system, 8).energies
    bound = fem.solve_bound_states(system, 1.0, solved=energies)
    q32 = ineq.lt_quotient(system, bound, 1.5)
    q2 = ineq.lt_quotient(system, bound, 2.0)
    ok = abs(q32.quotient - 3 / 11) <= 1e-3 and q32.quotient > 3 / 16
    ok = ok and abs(q2.quotient - 0.2009) <= 1e-3 and q2.quotient > 8 / (15 * math.pi)
    report(4, "poschl-teller-balloon-quotients", ok,
           f"Q(3/2)={q32.quotient:.6f}, Q(2)={q2.quotient:.6f}")


def test_05_classical_control_interval(monkeypatch):
    system = fem.assemble(fem.build_mesh(families.poschl_teller_interval(40.0), 0.02))
    monkeypatch.setattr(fem, "DENSE_DOF_CAP", 100)
    energies = fem.solve_spectrum(system, 8).energies
    q32 = ineq.lt_quotient(system, fem.solve_bound_states(system, 1.0, solved=energies), 1.5)
    ok = q32.quotient <= 3 / 16 + 1e-3 and q32.quotient > 0
    report(5, "interval-control-quotient", ok, f"Q(3/2)={q32.quotient:.6f} <= 3/16")


def test_06_tree_yang_suite():
    rng = np.random.default_rng(60606)
    worst_dev = 0.0
    ok = True
    for _ in range(50):
        tree = families.random_tree(rng, int(rng.integers(3, 11)))
        k = 24
        h = 0.05 * tree.total_length / k
        variants = [tree]
        longest = int(np.argmax([e.length for e in tree.edges]))
        variants.append(families.with_square_well(tree, longest, depth=-8.0, width_fraction=0.5))
        for graph in variants:
            spec = fem.solve_graph(graph, h, k)
            ok = ok and verify_yang(spec).verdict == "holds"
            cols = colorings.enumerate_admissible(graph)
            avg = averaged_yang(
                spec.energies, spec.edge_mass, spec.edge_dirichlet, spec.alpha,
                cols, ineq.make_z_grid(spec.energies[: ineq.trusted_count(k)]),
            )
            worst_dev = max(worst_dev, avg.max_rel_deviation)
            ok = ok and avg.max_rel_deviation <= 1e-10
    report(6, "random-tree-yang", ok, f"50 trees x 2 potentials, averaged dev {worst_dev:.2e}")


def test_07_stubbe_monotonicity():
    rng = np.random.default_rng(70707)
    alphas = np.geomspace(0.5, 4.0, 8)
    ok = True
    worst = -np.inf
    for _ in range(10):
        tree = families.random_tree(rng, int(rng.integers(4, 8)), length_range=(0.5, 2.0))
        longest = int(np.argmax([e.length for e in tree.edges]))
        graph = families.with_square_well(tree, longest, depth=-15.0, width_fraction=0.7)
        rep = ineq.stubbe_monotonicity(fem.assemble(fem.build_mesh(graph, 0.02)), alphas)
        ok = ok and rep.worst_increase_rel <= 1e-6
        ok = ok and rep.values[0] > 0.0
        ok = ok and bool(np.all(rep.values < rep.classical_bound))
        worst = max(worst, rep.worst_increase_rel)
    report(7, "stubbe-monotonicity", ok, f"worst relative increase {worst:.2e}")


def test_08_one_loop_shifted():
    graph = load_graph(fixture("loop_leads_well.json"))
    alphas = np.geomspace(0.5, 2.0, 6)
    zs = np.linspace(-6.0, -1.6, 6)
    loop = ineq.loop_structure(graph)
    rep = ineq.one_loop_shifted_check(fem.assemble(fem.build_mesh(graph, 0.02)), loop, alphas, zs)
    ok = rep.skipped == 0 and rep.monotone and rep.lt_holds and rep.map_values.max() > 0
    spec = fem.solve_graph(graph, 0.02, 24)
    tables = loop.rows(spec.edge_mass), loop.rows(spec.edge_dirichlet)
    steps_ok = True
    for j in (0, 1, 2, 4, 7):
        z = 0.5 * (spec.energies[j] + spec.energies[j + 1])
        step = ineq.sum_rule_steps_check(spec.energies, spec.alpha, loop.q, *tables, float(z))
        steps_ok = steps_ok and step.verdict == "holds"
    ok = ok and steps_ok
    report(8, "one-loop-shifted", ok,
           f"monotone worst {rep.worst_increase_rel:.2e}, 5 sum-rule steps {'ok' if steps_ok else 'FAIL'}")


def test_09_riesz_suite():
    e = np.arange(1, 501, dtype=float) ** 2 * math.pi**2
    rep = ineq.riesz_suite(e[:333], 1.0, sample_js=(1, 2, 5, 10, 20, 50, 100))
    ok = rep.verdict == "holds"
    pairs = [(1, 2), (5, 6), (5, 10), (10, 60), (1, 100)]
    ok = ok and all(b.holds for b in ineq.mean_ratio_bounds(e, pairs))

    rng = np.random.default_rng(90909)
    for _ in range(10):
        tree = families.random_tree(rng, int(rng.integers(3, 9)))
        k = 90
        spec = fem.solve_graph(tree, 0.05 * tree.total_length / k, k)
        trusted = spec.energies[: ineq.trusted_count(k)]  # 60 eigenvalues
        tree_rep = ineq.riesz_suite(trusted, tree.total_length, tol_rel=1e-3)
        ok = ok and tree_rep.verdict == "holds"
        fem_pairs = [(1, 2), (2, 5), (5, 10), (10, 50)]
        ok = ok and all(b.holds for b in ineq.mean_ratio_bounds(trusted, fem_pairs, tol_rel=1e-3))
    report(9, "riesz-suite", ok, "closed-form interval n=500 + 10 FEM trees x 60 eigenvalues")


def test_10_weyl_law():
    values = {}
    e = np.arange(1, 61, dtype=float) ** 2 * math.pi**2
    values["interval"] = ineq.weyl_check(e, 1.0).final_value

    y = families.y_graph()
    spec = fem.solve_graph(y, 0.05 * y.total_length / 90, 90)
    values["y_graph"] = ineq.weyl_check(spec.energies[: ineq.trusted_count(90)], y.total_length).final_value

    b = families.balloon()
    spec_b = fem.solve_graph(b, 0.05 * b.total_length / 90, 90)
    values["balloon_fem"] = ineq.weyl_check(spec_b.energies[: ineq.trusted_count(90)], b.total_length).final_value
    oracle = np.array([m.energy for m in analytic.balloon_eigenvalues(math.pi, 60)])
    values["balloon_oracle"] = ineq.weyl_check(oracle, b.total_length).final_value

    ok = all(0.95 <= v <= 1.05 for v in values.values())
    report(10, "weyl-law", ok, ", ".join(f"{k}={v:.4f}" for k, v in values.items()))


def test_11_colorings():
    rng = np.random.default_rng(111111)
    ok = True
    for _ in range(200):
        tree = families.random_tree(rng, int(rng.integers(2, 13)))
        counts = colorings.edge_counts(colorings.enumerate_admissible(tree))
        ok = ok and counts.uniform
    cols = colorings.enumerate_admissible(families.y_graph())
    ok = ok and len(cols) == 4 and colorings.edge_counts(cols).counts == (2, 2, 2)
    for m in range(2, 11):
        cc = colorings.enumerate_admissible(families.star([1.0] * m))
        ec = colorings.edge_counts(cc)
        ok = ok and len(cc) == 2 ** (m - 1) and ec.uniform and ec.counts[0] == 2 ** (m - 2)
    ok = ok and binomial_identity_check(60)
    report(11, "colorings", ok, "200 trees uniform, stars exact, identity exact to n=60")


def test_12_circuit():
    ok = True
    balanced = circuits.build_circuit(families.wheatstone())
    sol = circuits.solve_nodal(balanced, {0: 1, 5: 0})
    ok = ok and sol.currents[5] == Fraction(0)
    ok = ok and circuits.support_analysis(balanced).dead_edges == (5,)
    for arm in range(4):
        arms = [1.0] * 4
        arms[arm] = 2.0
        circ = circuits.build_circuit(families.wheatstone(arms=tuple(arms)))
        ok = ok and circuits.support_analysis(circ).dead_edges == ()
    balloon_support = circuits.support_analysis(circuits.build_circuit(families.balloon()))
    ok = ok and 0 in balloon_support.dead_edges  # loop edge carries no current
    ok = ok and circuits.g_family_verdict(families.y_graph()).exists_full_support
    hash_graph, _ = families.hash_graph()
    ok = ok and circuits.g_family_verdict(hash_graph).exists_full_support
    report(12, "circuit", ok, "bridge dead/live, balloon dead loop, full support on Y and grid")


def test_13_determinism(tmp_path):
    outputs = []
    for sub in ("run_a", "run_b"):
        out = tmp_path / sub
        result = subprocess.run(
            [sys.executable, "-m", "qglab.cli", "verify",
             "--graph", fixture("y_graph.json"), "--out-dir", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((result.stdout, files))
    same_stdout = outputs[0][0] == outputs[1][0]
    same_names = outputs[0][1].keys() == outputs[1][1].keys()
    same_bytes = same_names and all(
        outputs[0][1][k] == outputs[1][1][k] for k in outputs[0][1]
    )
    ok = same_stdout and same_bytes
    report(13, "determinism", ok, f"{len(outputs[0][1])} files byte-identical")


def test_13_determinism_on_p1(tmp_path):
    # test_13's y_graph is counted exactly; pt_interval keeps the P1 solve
    outputs = []
    for sub in ("run_a", "run_b"):
        out = tmp_path / sub
        argv = ["verify", "--graph", fixture("pt_interval.json"), "--out-dir", str(out)]
        result = subprocess.run([sys.executable, "-m", "qglab.cli", *argv], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outputs.append((result.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    source = json.loads(outputs[0][1]["verify_summary.json"])["spectrum"]["source"]
    ok = source == "p1" and outputs[0] == outputs[1]
    report(13, "determinism-p1", ok, f"{len(outputs[0][1])} files byte-identical")
