import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from qglab import analytic, families, fem, graphs, inequalities as ineq
from qglab.cli import CHECKS, FALLBACK, POLICY, PRECONDITIONS, SolveContext, _loop_pair, _mesh, _solve, main
from qglab.graphs import TopologyClass, classify_topology, load_graph, save_graph
from qglab.reports import fmt_float, round_sig

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "qglab.cli", *args], capture_output=True, text=True
    )


def test_fmt_float_rules():
    assert fmt_float(0.0) == "0"
    assert fmt_float(math.pi) == "3.14159265359"
    assert fmt_float(1e-5) == "1.00000000000e-05"
    assert fmt_float(2.5e7) == "2.50000000000e+07"
    assert fmt_float(12) == "12"


def test_spectrum_balloon_prints_ratio(tmp_path, capsys):
    code = main(
        [
            "spectrum",
            "--graph", fixture("balloon_pi.json"),
            "--k", "6",
            "--h", "0.005",
            "--out-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "E_2/E_1 = 16.845" in out
    assert (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "eigenfunction_001.csv").exists()
    # no writes outside the out dir
    assert set(p.name for p in tmp_path.iterdir()) >= {"spectrum.csv"}


def test_spectrum_interval_prints_pi_squared(tmp_path, capsys):
    code = main(
        ["spectrum", "--graph", fixture("interval_unit.json"), "--k", "3",
         "--h", "0.005", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("E_1 = 9.869")


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alpha": 1, "vertices": [], "edgez": []}')
    result = run_cli(["spectrum", "--graph", str(bad), "--out-dir", str(tmp_path / "o")])
    assert result.returncode == 2
    assert "edgez" in result.stderr


def test_missing_file_exits_2(tmp_path):
    result = run_cli(["spectrum", "--graph", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
    assert result.returncode == 2


def test_invalid_graph_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"alpha": 1, "vertices": [{"id": 0, "bc": "dirichlet"}, {"id": 1, "bc": "dirichlet"}],'
        ' "edges": [{"from": 0, "to": 1, "length": -2.0}]}'
    )
    result = run_cli(["spectrum", "--graph", str(bad), "--out-dir", str(tmp_path / "o")])
    assert result.returncode == 2
    assert "nonpositive length" in result.stderr
    assert not (tmp_path / "o").exists()


def test_endpoint_out_of_range_exits_2(tmp_path):
    # validate once ran its connectivity search on this edge and raised IndexError
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"alpha": 1, "vertices": [{"id": 0, "bc": "dirichlet"}, {"id": 1}],'
        ' "edges": [{"from": 0, "to": 1, "length": 1.0}, {"from": 1, "to": 5, "length": 1.0}]}'
    )
    result = run_cli(["verify", "--graph", str(bad), "--out-dir", str(tmp_path / "o")])
    assert result.returncode == 2
    assert "edge 1: endpoint out of range (1, 5)" in result.stderr
    assert not (tmp_path / "o").exists()


Y = ["--graph", fixture("y_graph.json")]
BALLOON_SWEEP = ["sweep", "--sweep", "balloon-L", "--range", "1:2", "--steps", "2"]
FANCY_SWEEP = ["sweep", "--sweep", "fancy-N", "--engine", "fem", "--range", "2:3", "--steps", "2"]
CIRCUIT = ["circuit", *Y, "--terminals", "0,1", "--lead-resistance"]
TERMINALS = ["circuit", *Y, "--terminals"]
TERMINALS_RULE = "--terminals must be a comma-separated list of at least two distinct vertex ids"
ALPHA_SWEEP = ["sweep", "--sweep", "alpha", "--graph", fixture("tree_well.json"), "--steps", "3", "--range"]
BALLOON_RANGE = ["sweep", "--sweep", "balloon-L", "--steps", "3", "--range"]
ORACLE_SWEEP = [*BALLOON_SWEEP, "--engine", "oracle"]
BALLOON_POSITIVE = "--range must be positive for the balloon-L sweep"


@pytest.mark.parametrize("k", ["0", "-2"])
def test_nonpositive_k_exits_2(tmp_path, capsys, k):
    # 0 once fell back to the subcommand's default k and exited 0
    code = main(["verify", *Y, "--k", k, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"input error: --k must be at least 1, got {k}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        # the following raised IndexError, ZeroDivisionError or OverflowError
        # (exit 1), exited 0 with an empty table, or failed every check
        ([*BALLOON_SWEEP, "--k", "1"], "--k must be at least 2 for E2/E1 on the fem engine, got 1"),
        ([*FANCY_SWEEP, "--k", "1"], "--k must be at least 2 for E2/E1 on the fem engine, got 1"),
        (["oracle", "--family", "interval", "--n", "0"], "--n must be at least 1, got 0"),
        (["oracle", "--family", "balloon", "--n", "0"], "--n must be at least 1, got 0"),
        # an infinite balloon string never returned, a nan interval printed
        # "first eigenvalue nan" and a nan balloon string failed a conversion
        *(
            (["oracle", "--family", family, "--length", length], f"--length must be finite and positive, got {length}")
            for family, length in (("balloon", "inf"), ("interval", "nan"), ("balloon", "nan"), ("interval", "0.0"))
        ),
        (["oracle", "--family", "fancy-balloon", "--rungs", "1"], "--rungs must be at least 2, got 1"),
        ([*CIRCUIT, "0"], "--lead-resistance must be finite and positive, got 0.0"),
        ([*CIRCUIT, "inf"], "--lead-resistance must be finite and positive, got inf"),
        ([*CIRCUIT, "-1"], "--lead-resistance must be finite and positive, got -1.0"),
        # "1,x" failed an int() conversion; "," and "1" exited 0 with every edge dead
        *(
            ([*TERMINALS, t], f"{TERMINALS_RULE}, got {t}")
            for t in ("1,x", ",", "1", "1,1", "0,4")
        ),
        (["verify", *Y, "--tol", "nan"], "--tol must be finite and nonnegative, got nan"),
        (["verify", *Y, "--tol", "-0.5"], "--tol must be finite and nonnegative, got -0.5"),
        (["verify", *Y, "--h", "nan"], "--h must be finite and positive, got nan"),
        # once accepted and ignored: the exact count builds no mesh
        *(
            (["verify", "--graph", fixture(f"{name}.json"), "--h", "0.05"],
             "--h must be left out of verify when V is constant on pieces, got 0.05")
            for name in ("y_graph", "tree_well")
        ),
        (["spectrum", *Y, "--h", "0"], "--h must be finite and positive, got 0.0"),
        (["spectrum", *Y, "--h", "5e-324"], "--h too small: the smallest solve on infinitely many cells"),
        # the fem sweeps read each point's cells, with no mesh, under the same guards
        (
            ["sweep", "--sweep", "balloon-L", "--range", "1:2", "--steps", "2", "--h", "5e-324"],
            "--h too small: the smallest solve on infinitely many cells",
        ),
        (
            ["sweep", "--sweep", "fancy-N", "--engine", "fem", "--range", "2:3", "--steps", "2", "--h", "1e-9"],
            "--h too small: the smallest solve on 9424777962 cells",
        ),
        (
            ["sweep", "--sweep", "fancy-N", "--range", "2:4", "--steps", "5"],
            "--steps must be at most 3 (the whole N in --range 2:4), got 5",
        ),
        (
            ["sweep", "--sweep", "fancy-N", "--range", "1:4", "--steps", "3"],
            "--range must be lo:hi with lo at least 2 for fancy-N, got 1:4",
        ),
        # a non-finite --range failed an inertia count (exit 3) or a float
        # conversion, with a message that did not name the option
        *(
            ([*ALPHA_SWEEP, r], f"--range must be lo:hi with finite lo < hi, got {r}")
            for r in ("nan:1", "0.5:inf", "1:nan")
        ),
        # once "coupling range must be positive", which did not name the option
        ([*ALPHA_SWEEP, "0:2"], "--range must be positive for the alpha sweep, got 0:2"),
        # once "edge 1: nonpositive length 0.0" (fem) and "string length must be
        # positive" (oracle), which did not name the option
        *(
            ([*BALLOON_RANGE[:-1], f"--range={r}", "--engine", engine], f"{BALLOON_POSITIVE}, got {r}")
            for r, engine in (("0:2", "fem"), ("-1:2", "oracle"))
        ),
        *(
            ([*BALLOON_RANGE, r], f"--range must be lo:hi with finite lo < hi, got {r}")
            for r in ("nan:1", "0.5", "2:1", "1:2:3")
        ),
        ([*BALLOON_SWEEP[:-1], "1"], "--steps must be at least 2, got 1"),
        # the following exited 0 with the option ignored, even a --graph that does not exist
        *(
            ([*sweep, "--graph", "missing.json"], f"--graph must be left out of the {name} sweep, got missing.json")
            for sweep, name in ((BALLOON_SWEEP, "balloon-L"), (FANCY_SWEEP, "fancy-N"))
        ),
        *(
            ([*ORACLE_SWEEP, option, value], f"{option} must be left out on the oracle engine, got {shown}")
            for option, value, shown in (("--h", "5", "5.0"), ("--k", "1", "1"))
        ),
        (
            [*ALPHA_SWEEP, "0.5:4", "--engine", "fem"],
            "--engine must be left out of the alpha sweep, got fem",
        ),
        # once "k must be in [1, 5], got 6", which named neither the option nor the mesh
        (
            [*BALLOON_SWEEP, "--h", "10", "--k", "6"],
            "--k must be at most 5, the unknowns of the --h 10 mesh at L = 1, got 6",
        ),
        # once exit 0 with an all-zero Stubbe column judged nonincreasing
        (
            ["sweep", "--sweep", "alpha", *Y, "--range", "0.5:4", "--steps", "4"],
            f"--graph must be a graph with V < 0 somewhere (at a mesh node, on P1), got {Y[1]}",
        ),
        # tree_well is counted exactly: both options once had no effect
        *(
            ([*ALPHA_SWEEP, "0.5:4", option, value],
             f"{option} must be left out of the alpha sweep when V is constant on pieces, got {shown}")
            for option, value, shown in (("--h", "0.01", "0.01"), ("--k", "6", "6"))
        ),
    ],
    ids=[
        "balloon-k-1", "fancy-fem-k-1", "interval-n-0", "balloon-n-0",
        "balloon-length-inf", "interval-length-nan", "balloon-length-nan", "interval-length-0", "rungs-1",
        "lead-0", "lead-inf",
        "lead-neg", "terminals-not-int", "terminals-empty", "terminals-one", "terminals-repeated",
        "terminals-not-a-vertex", "tol-nan", "tol-neg", "h-nan", "verify-exact-h", "verify-square-well-h",
        "h-0", "h-subnormal",
        "balloon-h-subnormal", "fancy-h-too-small", "fancy-steps", "fancy-lo",
        "alpha-range-nan-lo", "alpha-range-inf-hi", "alpha-range-nan-hi", "alpha-range-zero",
        "balloon-fem-range-zero", "balloon-oracle-range-negative",
        "balloon-range-nan-lo", "balloon-range-one-number", "balloon-range-reversed", "balloon-range-three-numbers",
        "sweep-steps-1", "balloon-graph", "fancy-graph", "oracle-h", "oracle-k", "alpha-engine", "balloon-k-over-ndof",
        "alpha-graph-without-well", "alpha-exact-h", "alpha-exact-k",
    ],
)
def test_out_of_range_option_exits_2(tmp_path, capsys, argv, message):
    code = main([*argv, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"input error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--family", "balloon", "--k", "5"],
        ["colorings", *Y, "--tol", "1"],
        ["circuit", *Y, "--h", "0.1"],
        ["spectrum", *Y, "--format", "json"],
        ["verify", *Y, "--jobs", "2"],
    ],
    ids=["oracle-k", "colorings-tol", "circuit-h", "spectrum-format", "verify-jobs"],
)
def test_unread_option_exits_2(tmp_path, capsys, argv):
    # each subcommand takes only the options it reads
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _no_eigensolver(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the eigensolver was called")

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", unreachable)
    monkeypatch.setattr("scipy.linalg.eigh", unreachable)


def test_k_beyond_memory_budget_exits_2(tmp_path, capsys, monkeypatch):
    # pt_interval's default mesh at k = 5000 has n = 99999, where verify's
    # solve of the 3333 trusted eigenpairs plus one would ask ARPACK for a
    # Lanczos basis of 6669 vectors (4.97 GiB)
    _no_eigensolver(monkeypatch)
    code = main(["verify", "--graph", fixture("pt_interval.json"), "--k", "5000", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "input error: --k too large: a Lanczos basis of 6669 vectors" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _no_p1(monkeypatch):
    """Refuse every P1 stage: mesh, assembly, inertia count and eigensolver."""
    _no_eigensolver(monkeypatch)
    for p1 in ("build_mesh", "assemble", "solve_spectrum", "_chain_counter"):
        monkeypatch.setattr(fem, p1, lambda *args, **kwargs: pytest.fail("P1 was called"))


def _verify_with_no_p1(tmp_path, capsys, monkeypatch, name, k, solved):
    """``verify --k k`` on a fixture, with every P1 stage refused."""
    _no_p1(monkeypatch)
    code = main(["verify", "--graph", fixture(f"{name}.json"), "--k", str(k), "--out-dir", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert summary["spectrum"] == {"source": "exact", "solved": solved, "trusted": solved - 1}


def test_exact_verify_at_large_k_needs_no_mesh(tmp_path, capsys, monkeypatch):
    # y_graph reads energies alone and has V = 0: its 3334 energies are
    # counted exactly, with no mesh, assembly or eigensolver
    _verify_with_no_p1(tmp_path, capsys, monkeypatch, "y_graph", 5000, 3334)


def test_exact_verify_of_a_square_well_needs_no_mesh(tmp_path, capsys, monkeypatch):
    # tree_well's square well is cut at its ends into edges of constant V:
    # its energies and bound states at every coupling are counted exactly,
    # and each state's int |phi'|^2 is read in closed form, with no mesh,
    # assembly, inertia count or eigensolver (CI runs it at --k 5000 too)
    _verify_with_no_p1(tmp_path, capsys, monkeypatch, "tree_well", 90, 61)


@pytest.mark.parametrize("name", ["circle_two_leads", "loop_leads_well"])
def test_exact_verify_of_a_loop_pair_needs_no_mesh(tmp_path, capsys, monkeypatch, name):
    # the lead and loop tables of sum_rule_steps are read in closed form from
    # the kernels of the matching matrices at the exact energies
    _verify_with_no_p1(tmp_path, capsys, monkeypatch, name, 90, 61)


@pytest.mark.parametrize("name", ["tree_well", "circle_two_leads", "loop_leads_well"])
def test_exact_solve_is_one_family_of_one_graph(monkeypatch, name):
    # a row with a well or a loop pair reads its tables in closed form, so
    # it counts its own graph alone: one call, one member
    graph = load_graph(fixture(f"{name}.json"))
    calls, solve = [], analytic.piecewise_constant_family

    def spied(graphs, k, cells=None):
        calls.append(len(graphs))
        return solve(graphs, k, cells)

    monkeypatch.setattr(analytic, "piecewise_constant_family", spied)
    _solve(graph, _loop_pair(graph, classify_topology(graph).topology_class), 90, None)
    assert calls == [1]


@pytest.mark.parametrize("name", ["circle_two_leads", "loop_leads_well"])
def test_loop_tables_of_the_states_read_do_not_move_with_k(name):
    # the loop tables of the lowest 8 states (sum_rule_steps reads no other)
    # must not move with k: a step that grew with the top solved energy, as
    # k^2, once moved circle_two_leads' loop mass by 9e-4 at --k 1000.  Each
    # is simple, so each state's row is defined; at --k 90 and 1000 the rows
    # stay within 1e-6 of their largest entry of the closed form at k = 9
    graph = load_graph(fixture(f"{name}.json"))
    loop = _loop_pair(graph, classify_topology(graph).topology_class)
    model = analytic.ExactModel(graph)
    energies, brackets = analytic.piecewise_constant_eigenvalues(model.graph, 9)
    on = np.equal.outer(np.arange(len(graph.edges)), model.edge_of)
    fine = [loop.rows(on @ table)[1] for table in analytic.edge_tables(model.graph, energies, brackets)]
    for k in (90, 1000):
        solved, tables = _solve(graph, loop, k, None)[1:4:2]
        assert np.all(np.diff(solved[:9]) > 1e-3)
        for rows, loop_row in zip(tables, fine):
            assert rows[1, :8] == pytest.approx(loop_row[:8], rel=0, abs=1e-6 * np.abs(loop_row[:8]).max())


@pytest.mark.parametrize("name, steps", [("tree_well", "5"), ("loop_leads_well", "4")])
def test_exact_alpha_sweep_needs_no_mesh(tmp_path, capsys, monkeypatch, name, steps):
    _no_p1(monkeypatch)
    argv = ["sweep", "--sweep", "alpha", "--graph", fixture(f"{name}.json"), "--range", "0.5:4", "--steps", steps]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0, capsys.readouterr().err
    assert "nonincreasing: True" in capsys.readouterr().out


def test_exact_count_over_memory_budget_exits_2(tmp_path, capsys, monkeypatch):
    # the stacked matrices of the exact count obey the same budget, against --k
    monkeypatch.setattr(fem, "MEMORY_BUDGET", 1 << 20)
    code = main(["verify", *Y, "--k", "5000", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "input error: --k too large: an exact count of 13336 matrices of size 4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exact_count_failure_exits_3(tmp_path, capsys, monkeypatch):
    counter = analytic._dtn_counter

    def falling(family, *args):
        count = counter(family, *args)

        def fall(t, member=0):
            total, below, values = count(t, member)
            return total - 3 * (t > 5.0), below, values

        return fall

    monkeypatch.setattr(analytic, "_dtn_counter", falling)
    assert main(["verify", *Y, "--out-dir", str(tmp_path / "out")]) == 3
    assert "numeric failure: the eigenvalue count falls" in capsys.readouterr().err


def test_h_beyond_memory_budget_exits_2(tmp_path):
    # 3e9 nodes would take 24 GB; under a 2 GiB address space a missing
    # guard fails fast instead of exhausting the machine
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from qglab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["spectrum", *Y, "--h", "1e-9", "--out-dir", str(tmp_path / "out")]
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert "input error: --h too small: the smallest solve on 3000000000 cells" in result.stderr


def test_cli_import_skips_scipy_integrate_and_optimize():
    script = "import sys, qglab.cli; print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_verify_tree_green(tmp_path, capsys):
    code = main(
        ["verify", "--graph", fixture("y_graph.json"), "--out-dir", str(tmp_path)]
    )
    assert code == 0
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert summary["topology"] == "tree"
    assert all(c["pass"] for c in summary["checks"])
    names = {c["name"] for c in summary["checks"]}
    assert {"yang", "riesz", "mean_ratio", "weyl"} <= names


def test_verify_summary_records_the_spectrum_source(tmp_path, capsys):
    expected = {
        "y_graph": {"source": "exact", "solved": 61, "trusted": 60},
        "pt_interval": {"source": "p1", "ndof": 3999, "solved": 61, "trusted": 60},
    }
    for name, spectrum in expected.items():
        assert main(["verify", "--graph", fixture(f"{name}.json"), "--out-dir", str(tmp_path / name)]) == 0
        assert json.loads((tmp_path / name / "verify_summary.json").read_text())["spectrum"] == spectrum


def test_verify_corrupt_hook_exits_1(tmp_path, capsys):
    # y_graph's yang and hash_graph's weak_yang read E / alpha, not eigenvectors
    for name, check in (("y_graph", "yang"), ("hash_graph", "weak_yang")):
        out = tmp_path / name
        code = main(["verify", "--graph", fixture(f"{name}.json"), "--out-dir", str(out), "--corrupt-spectrum"])
        assert code == 1
        summary = json.loads((out / "verify_summary.json").read_text())
        assert [c["name"] for c in summary["checks"] if not c["pass"]] == [check]


def test_verify_pt_balloon_expected_violation(tmp_path, capsys):
    code = main(
        ["verify", "--graph", fixture("pt_balloon.json"), "--out-dir", str(tmp_path)]
    )
    assert code == 0
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    roles = {c["name"]: c["role"] for c in summary["checks"]}
    verdicts = {c["name"]: c["verdict"] for c in summary["checks"]}
    assert roles["lt_quotient_gamma_1.5"] == "expected_violation"
    assert verdicts["lt_quotient_gamma_1.5"] == "violated"
    assert verdicts["lt_quotient_gamma_2.0"] == "violated"


def _summary_checks(out):
    return [(c["name"], c["role"]) for c in json.loads((out / "verify_summary.json").read_text())["checks"]]


def test_verify_weak_yang_falls_back_to_yang(tmp_path, capsys):
    # the balanced Wheatstone bridge has a dead edge, so no slope family has
    # full support: the plain sum rule runs in place of the weak one, for
    # information only
    assert main(["verify", "--graph", fixture("wheatstone_balanced.json"), "--out-dir", str(tmp_path)]) == 0
    assert _summary_checks(tmp_path) == [("yang", "informational"), ("weyl", "guaranteed")]
    assert (tmp_path / "verify_yang.csv").exists()
    assert not list(tmp_path.glob("verify_weak_yang.*"))


def test_verify_skips_moment_checks_without_a_negative_part(tmp_path, capsys):
    # a barrier V >= 0 on a tree: the moment quotients and Stubbe need V_-
    path = tmp_path / "y_barrier.json"
    save_graph(families.with_square_well(families.y_graph(), 0, 5.0), path)
    assert main(["verify", "--graph", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert _summary_checks(tmp_path / "out") == [("yang", "guaranteed")]


def _neumann_y(tmp_path, leaves):
    graph = json.loads(open(fixture("y_graph.json")).read())
    for vertex in graph["vertices"]:
        if vertex["id"] in leaves:
            vertex["bc"] = "neumann"
    path = tmp_path / "y_neumann.json"
    path.write_text(json.dumps(graph))
    return path


def test_verify_runs_guaranteed_checks_for_information_on_a_neumann_leaf(tmp_path, capsys):
    # the tree arguments need Dirichlet leaves: on the Neumann interval of
    # length 3 with V = -4, E_1 = -4 exactly (its constant mode), so Q(2) =
    # 24.43 / 96 = 0.2545 > 8 / (15 pi); verify failed yang, Q(2) and Stubbe
    # there, and yang on y_graph with one Neumann leaf, and exited 1
    path = tmp_path / "neumann_interval.json"
    well = graphs.SquareWell(-4.0, 0.0, 3.0)
    save_graph(graphs.MetricGraph(2, (graphs.Edge(0, 1, 3.0, well),), {0: graphs.NEUMANN, 1: graphs.NEUMANN}), path)
    code = main(["verify", "--graph", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    policy = POLICY[(TopologyClass.TREE, False)]
    assert _summary_checks(tmp_path / "out") == [(name, "informational") for name, _ in policy]
    report = json.loads((tmp_path / "out" / "verify_lt_quotient_gamma_2.0.json").read_text())
    assert report["verdict"] == "violated"
    assert report["values"]["quotient"][0] == pytest.approx(0.2545, abs=1e-4)
    code = main(["verify", "--graph", str(_neumann_y(tmp_path, {1})), "--out-dir", str(tmp_path / "y")])
    assert code == 0, capsys.readouterr().err
    policy = POLICY[(TopologyClass.TREE, True)]
    assert _summary_checks(tmp_path / "y") == [(n, "guaranteed" if n == "weyl" else "informational") for n, _ in policy]
    assert json.loads((tmp_path / "y" / "verify_yang.json").read_text())["verdict"] == "violated"


def test_verify_skips_riesz_and_mean_ratio_without_a_positive_ground_state(tmp_path, capsys):
    # with every leaf Neumann, y_graph (V = 0) has E_1 = 0: riesz_suite refused
    # it (exit 2) and mean_ratio divided by it
    code = main(["verify", "--graph", str(_neumann_y(tmp_path, {1, 2, 3})), "--out-dir", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    assert _summary_checks(tmp_path / "out") == [("yang", "informational"), ("weyl", "guaranteed")]


def test_spectrum_prints_no_ratio_over_a_constant_mode(tmp_path, capsys):
    # with every leaf Neumann, y_graph (V = 0) has E_1 = 0: spectrum printed
    # the solve's roundoff of the constant mode and E_2/E_1 = 1.7e12
    code = main(["spectrum", "--graph", str(_neumann_y(tmp_path, {1, 2, 3})), "--k", "4",
                 "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("E_1 = ") and "E_4 = " in out
    assert "E_2/E_1" not in out
    assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) == 5


def test_alpha_sweep_refuses_a_well_that_binds_nothing_at_the_lowest_coupling(tmp_path, capsys):
    # the well is negative at every node but E_1 = alpha pi^2 - 0.1 > 0 for
    # alpha >= 0.5: the sweep printed four zero rows and exited 0
    path = tmp_path / "shallow.json"
    save_graph(families.interval(1.0, graphs.SquareWell(-0.1, 0.0, 1.0)), path)
    argv = ["sweep", "--sweep", "alpha", "--graph", str(path), "--range", "0.5:4", "--steps", "4"]
    code = main([*argv, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "input error: --range must be lo:hi with a bound state at alpha = lo, got 0.5:4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_alpha_sweep_counts_a_well_narrower_than_a_cell(tmp_path, capsys):
    # P1 nodes missed the well, and the sweep refused the graph as having no
    # negative V at a mesh node (exit 2); the exact model binds a state at
    # -99.798 at alpha = 1
    path = tmp_path / "narrow_deep.json"
    save_graph(families.interval(1.0, graphs.SquareWell(-1e5, 0.4001, 0.4003)), path)
    argv = ["sweep", "--sweep", "alpha", "--graph", str(path), "--range", "0.5:4", "--steps", "4"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 0, capsys.readouterr().err
    assert "nonincreasing: True" in capsys.readouterr().out
    assert analytic.ExactModel(load_graph(str(path))).bound_states([1.0])[0] == pytest.approx([-99.798], abs=1e-3)


def test_verify_runs_the_moment_checks_on_a_well_narrower_than_a_cell(tmp_path, capsys):
    # the well is 2e-4 wide, below any default cell, so P1 nodes missed it
    # and verify ran yang alone, as if V >= 0; the exact model integrates
    # V_-^2 = 200^2 * 2e-4 = 8 in closed form, and the well binds no state
    path = tmp_path / "narrow.json"
    save_graph(families.interval(1.0, graphs.SquareWell(-200.0, 0.4001, 0.4003)), path)
    code = main(["verify", "--graph", str(path), "--format", "json", "--out-dir", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    assert _summary_checks(tmp_path / "out") == POLICY[(TopologyClass.TREE, False)]
    report = json.loads((tmp_path / "out" / "verify_lt_quotient_gamma_1.5.json").read_text())
    assert report["values"] == {"integral": [8.0], "moment": [0.0], "quotient": [0.0]}


def test_verify_one_loop_shifted_grid_follows_a_negative_ground_state(tmp_path, capsys, monkeypatch):
    calls = _record_exact_solves(monkeypatch)
    out = tmp_path / "out"
    code = main(["verify", "--graph", fixture("loop_leads_well.json"), "--format", "json", "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    e1 = calls[0][1][0]
    assert e1 < 0
    grid = json.loads((out / "verify_one_loop_shifted.json").read_text())["grid"]
    assert grid == pytest.approx(np.linspace(0.9 * e1, 0.05 * e1, 6), rel=1e-9, abs=0)


def test_verify_reads_p1_loop_tables_where_a_loop_pair_has_a_smooth_well(tmp_path, capsys, monkeypatch):
    # a sech-squared well on one semicircle keeps the loop pair on P1, and
    # sum_rule_steps sums its eigenpairs' per-edge tables over leads and loop
    calls = _record_solves(monkeypatch)
    graph = load_graph(fixture("loop_leads_well.json"))
    well = graphs.PoschlTeller(a=math.sqrt(6.0), center=0.5 * math.pi)
    path = tmp_path / "loop_leads_sech2.json"
    save_graph(dataclasses.replace(graph, edges=(dataclasses.replace(graph.edges[0], potential=well), *graph.edges[1:])), path)
    code = main(["verify", "--graph", str(path), "--format", "json", "--out-dir", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "verify_summary.json").read_text())
    assert summary["spectrum"]["source"] == "p1"
    assert [k for _, k, _ in calls] == [61]
    steps = json.loads((tmp_path / "out" / "verify_sum_rule_steps.json").read_text())
    assert steps["verdict"] == "holds" and len(steps["grid"]) == 5


def test_colorings_cli(tmp_path, capsys):
    code = main(
        ["colorings", "--graph", fixture("y_graph.json"), "--with-g",
         "--out-dir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "admissible colorings: 4" in out
    assert (tmp_path / "edge_counts.csv").read_text().splitlines()[1:] == ["0,2", "1,2", "2,2"]
    assert (tmp_path / "gfunctions.csv").exists()


def test_colorings_rejects_balloon(tmp_path):
    result = run_cli(
        ["colorings", "--graph", fixture("balloon_pi.json"), "--out-dir", str(tmp_path)]
    )
    assert result.returncode == 2


def test_circuit_cli_wheatstone(tmp_path, capsys):
    code = main(
        ["circuit", "--graph", fixture("wheatstone_balanced.json"), "--out-dir", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "circuit.json").read_text())
    assert payload["dead_edges"] == [5]
    assert payload["exists_full_support"] is False
    currents = payload["probes"][0]["currents"]
    assert currents[0] == "1/3"
    assert currents[5] == "0"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["oracle", "--family", "balloon", "--length", "1e200", "--n", "3"], "--length must be at most 5.26523e+153"),
        (["sweep", "--sweep", "balloon-L", "--engine", "oracle", "--range", "1e199:1e200", "--steps", "2"], "at most"),
    ],
)
def test_balloon_oracle_refuses_a_string_whose_lowest_energy_underflows(tmp_path, capsys, argv, option):
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert option in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_oracle_cli_families(tmp_path, capsys):
    for family, extra in [
        ("interval", ["--length", "1.0", "--n", "4"]),
        ("balloon", ["--length", str(math.pi), "--n", "4"]),
        ("fancy-balloon", ["--rungs", "3", "--n", "4"]),
        ("poschl-teller", []),
    ]:
        out_dir = tmp_path / family
        code = main(["oracle", "--family", family, "--out-dir", str(out_dir), *extra])
        assert code == 0
        assert (out_dir / "oracle.csv").exists()
    out = capsys.readouterr().out
    assert "Q(3/2) = 0.272727272727" in out


def _sweep_alpha_cli(tmp_path, capsys, steps):
    code = main(
        ["sweep", "--sweep", "alpha", "--range", "0.5:4", "--steps", steps,
         "--graph", fixture("tree_well.json"), "--jobs", "1",
         "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert "nonincreasing: True" in capsys.readouterr().out


def test_sweep_alpha_cli(tmp_path, capsys):
    _sweep_alpha_cli(tmp_path, capsys, "5")


def test_sweep_alpha_cli_two_steps(tmp_path, capsys):
    _sweep_alpha_cli(tmp_path, capsys, "2")


def test_spectrum_output_is_deterministic(tmp_path):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        code = main(
            ["spectrum", "--graph", fixture("fancy_balloon_3.json"), "--k", "4",
             "--h", "0.02", "--out-dir", str(d)]
        )
        assert code == 0
        outs.append((d / "spectrum.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_fancy_cli(tmp_path, capsys):
    code = main(
        ["sweep", "--sweep", "fancy-N", "--range", "2:50", "--steps", "49",
         "--jobs", "1", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "N,E1,E2,ratio,ratio_over_pi2N"
    last = rows[-1].split(",")
    assert float(last[0]) == 50
    assert 0.85 <= float(last[4]) <= 1.0


@pytest.mark.parametrize("sweep, grid, first", [("balloon-L", f"{math.pi!r}:4", math.pi), ("fancy-N", "3:4", 3)])
def test_sweep_engines_agree_on_the_ratio(tmp_path, sweep, grid, first):
    # the fem and oracle rows of one sweep: E2/E1 within the 5e-3 of the balloon-ratio acceptance test
    ratios = {}
    for engine in ("fem", "oracle"):
        code = main(["sweep", "--sweep", sweep, "--engine", engine, "--range", grid, "--steps", "2",
                     "--out-dir", str(tmp_path / engine)])
        assert code == 0
        rows = [r.split(",") for r in (tmp_path / engine / "sweep.csv").read_text().splitlines()[1:]]
        assert float(rows[0][0]) == pytest.approx(first, rel=1e-12)
        ratios[engine] = [float(r[3]) for r in rows]
    assert ratios["fem"] == pytest.approx(ratios["oracle"], rel=5e-3)


@pytest.mark.parametrize(
    "sweep, grid, graphs",
    [
        ("balloon-L", "3:3.2", [families.balloon(L) for L in (3.0, 3.1, 3.2)]),
        ("fancy-N", "2:4", [families.fancy_balloon(n) for n in (2, 3, 4)]),
    ],
)
def test_sweep_fem_engine_reads_p1_without_an_eigensolve(tmp_path, monkeypatch, sweep, grid, graphs):
    # the P1 energies of the mesh come from the vertex count, and agree with
    # the eigensolver's to its own accuracy; the family is asked for the 2
    # energies reported, whatever --k is, so --k 2 and --k 6 write one file
    h = 0.01 if sweep == "balloon-L" else 0.02
    p1 = [fem.solve_graph(graph, h, 2).energies for graph in graphs]

    def refused(*args, **kwargs):
        raise AssertionError("a sweep point built a mesh or ran an eigensolver")

    for name in ("build_mesh", "assemble", "solve_spectrum"):
        monkeypatch.setattr(fem, name, refused)
    asked, family = [], analytic.piecewise_constant_family

    def spied(graphs, k, cells=None):
        asked.append(k)
        return family(graphs, k, cells)

    monkeypatch.setattr(analytic, "piecewise_constant_family", spied)
    for k in ("2", "6"):
        code = main(["sweep", "--sweep", sweep, "--engine", "fem", "--range", grid, "--steps", "3",
                     "--k", k, "--out-dir", str(tmp_path / k)])
        assert code == 0
    assert asked == [2, 2]
    assert (tmp_path / "2" / "sweep.csv").read_bytes() == (tmp_path / "6" / "sweep.csv").read_bytes()
    rows = [r.split(",") for r in (tmp_path / "6" / "sweep.csv").read_text().splitlines()[1:]]
    assert [[float(r[1]), float(r[2])] for r in rows] == pytest.approx(np.array(p1), rel=1e-9, abs=0)


BENCHMARK_SWEEP = ["sweep", "--sweep", "balloon-L", "--engine", "fem", "--range", "0.5:6", "--steps", "56",
                   "--h", "0.01", "--k", "6"]


def _counters_built(monkeypatch):
    """Wrap ``analytic._dtn_counter`` to record the members of each counter built."""
    builds, counter = [], analytic._dtn_counter

    def built(family, *args):
        builds.append(len(family))
        return counter(family, *args)

    monkeypatch.setattr(analytic, "_dtn_counter", built)
    return builds


def test_balloon_sweep_counts_every_point_in_one_family(tmp_path, monkeypatch):
    # the 56 balloons share one shape: one counter for all of them, not one
    # per point; under a budget of 0.5 MB (above the 0.39 MB that the
    # finest mesh's smallest solve needs) their 2-energy counts take two
    # chunks, with the same table
    builds = _counters_built(monkeypatch)
    assert main([*BENCHMARK_SWEEP, "--out-dir", str(tmp_path / "whole")]) == 0
    assert builds == [56]
    builds.clear()
    monkeypatch.setattr(fem, "MEMORY_BUDGET", 500_000)
    assert main([*BENCHMARK_SWEEP, "--out-dir", str(tmp_path / "chunked")]) == 0
    assert builds == [49, 7]
    assert (tmp_path / "chunked" / "sweep.csv").read_text() == (tmp_path / "whole" / "sweep.csv").read_text()


def test_balloon_sweep_k_over_a_member_budget_counts_two_energies(tmp_path, capsys, monkeypatch):
    # a --k whose count of each point would be over the budget is not
    # counted: the sweep counts the 2 energies it reports, which always fit
    # under the smallest-solve guard of edge_cells, so it runs (the family's
    # refusal of a member over the budget is tested on the family itself)
    builds = _counters_built(monkeypatch)
    monkeypatch.setattr(fem, "MEMORY_BUDGET", 200_000)
    code = main([*BALLOON_RANGE, "0.5:6", "--h", "0.05", "--k", "100", "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert builds == [3] and (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_fancy_cli_takes_steps_whole_n(tmp_path, capsys):
    # N once ran over range(lo, hi + 1, (hi - lo) // (steps - 1)): 5 rows here
    code = main(["sweep", "--sweep", "fancy-N", "--range", "2:10", "--steps", "4", "--out-dir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["2", "5", "7", "10"]


def test_verify_lt_quotient_scales_with_alpha(tmp_path, capsys):
    # sum |E|^2 <= L^cl alpha^(-1/2) int V_-^(5/2): at alpha = 1/4 the raw
    # quotient is 0.299 > L^cl = 0.170, the alpha-scaled one 0.150
    graph = json.loads(open(fixture("tree_well.json")).read())
    graph["alpha"] = 0.25
    path = tmp_path / "tree_well_quarter.json"
    path.write_text(json.dumps(graph))
    code = main(["verify", "--graph", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "verify_lt_quotient_gamma_2.0.json").read_text())
    assert report["values"]["quotient"][0] == pytest.approx(0.1496, abs=1e-3)


def _tree_sech2(tmp_path):
    """tree_well with a sech-squared well of the same depth in place of its
    square well, which keeps it on P1."""
    graph = load_graph(fixture("tree_well.json"))
    well = graphs.PoschlTeller(a=math.sqrt(7.0), center=0.75)
    edges = tuple(dataclasses.replace(e, potential=well) if i == 2 else e for i, e in enumerate(graph.edges))
    path = tmp_path / "tree_sech2.json"
    save_graph(dataclasses.replace(graph, edges=edges), path)
    return str(path)


def test_sweep_alpha_moments_independent_of_k(tmp_path, capsys):
    # at alpha = 0.01 the well holds more than 4 bound states
    columns = []
    for k in ("4", "64"):
        out = tmp_path / k
        code = main(
            ["sweep", "--sweep", "alpha", "--range", "0.01:0.1", "--steps", "4",
             "--graph", _tree_sech2(tmp_path), "--h", "0.01", "--k", k,
             "--out-dir", str(out)]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        columns.append([row.split(",")[1] for row in rows])
    assert columns[0] == columns[1]


def test_sweep_alpha_default_mesh_resolves_weak_coupling(tmp_path, capsys):
    # at h = 0.02 the alpha = 0.001 bound states are unresolved and the
    # Stubbe column rises; the default mesh scales with sqrt(alpha)
    code = main(
        ["sweep", "--sweep", "alpha", "--range", "0.001:0.01", "--steps", "4",
         "--graph", _tree_sech2(tmp_path), "--k", "4", "--out-dir", str(tmp_path / "out")]
    )
    assert code == 0
    assert "nonincreasing: True" in capsys.readouterr().out


def test_verify_negative_spectrum_too_short_is_numeric(tmp_path, capsys):
    # at alpha = 0.002 the 4 trusted of --k 6 are bound states below E1/2:
    # no z grid fits
    graph = json.loads(open(fixture("tree_well.json")).read())
    graph["alpha"] = 0.002
    path = tmp_path / "tree_well_weak.json"
    path.write_text(json.dumps(graph))
    code = main(["verify", "--graph", str(path), "--k", "6", "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "spectrum too short" in capsys.readouterr().err


def _record_solves(monkeypatch):
    """Wrap ``fem.solve_spectrum``, the one eigensolve, which every certified
    solve goes through, to record each call's system, ``k`` and energies."""
    calls = []
    solve = fem.solve_spectrum

    def recording(system, k):
        spectrum = solve(system, k)
        calls.append((system, k, spectrum.energies))
        return spectrum

    monkeypatch.setattr(fem, "solve_spectrum", recording)
    return calls


def _record_exact_solves(monkeypatch):
    """Wrap ``analytic.piecewise_constant_family`` to record the ``k`` and the
    energies of each member of each call."""
    calls = []
    solve = analytic.piecewise_constant_family

    def recording(graphs, k, cells=None):
        solved = solve(graphs, k, cells)
        calls.extend((int(own), energies) for own, (energies, _) in zip(np.broadcast_to(k, len(solved)), solved))
        return solved

    monkeypatch.setattr(analytic, "piecewise_constant_family", recording)
    return calls


@pytest.mark.parametrize("k, solved", [(None, 61), ("6", 5), ("1", 1)])
def test_verify_solves_trusted_eigenpairs_plus_one(tmp_path, monkeypatch, k, solved):
    # k is 90 by default and the lowest floor(2k/3) are trusted; y_graph's
    # are counted exactly
    calls = _record_exact_solves(monkeypatch)
    main(["verify", *Y, *(["--k", k] if k else []), "--out-dir", str(tmp_path)])
    assert calls[0][0] == solved


def test_verify_solves_p1_trusted_eigenpairs_plus_one(tmp_path, monkeypatch):
    # the mesh resolves k = 90 and the lowest 60 are trusted
    calls = _record_solves(monkeypatch)
    main(["verify", "--graph", fixture("pt_interval.json"), "--out-dir", str(tmp_path)])
    assert calls[0][1] == 61


@pytest.mark.parametrize("name", ["pt_interval", "pt_balloon"])
def test_verify_of_a_smooth_well_makes_one_eigensolve(tmp_path, monkeypatch, name):
    # the spectrum's eigenpairs are the one solve: the bound states of the
    # moment checks and of every Stubbe coupling are counted and bracketed
    calls = _record_solves(monkeypatch)
    assert main(["verify", "--graph", fixture(f"{name}.json"), "--out-dir", str(tmp_path)]) == 0
    assert [k for _, k, _ in calls] == [61]


def _exact_grad_norms(graph, k):
    """``dE / dalpha`` of the lowest ``k`` exact energies by central differences."""
    up, down = (dataclasses.replace(graph, alpha=graph.alpha * (1.0 + s)) for s in (1e-5, -1e-5))
    e_up, e_down = (analytic.piecewise_constant_eigenvalues(g, k)[0] for g in (up, down))
    return (e_up - e_down) / (up.alpha - down.alpha)


@pytest.mark.parametrize("name", ["y_graph", "tree_well", "pt_interval"])
def test_verify_reads_the_same_trusted_spectrum_as_a_full_solve(tmp_path, monkeypatch, name):
    # y_graph (V = 0) and tree_well (a square well) are counted exactly, and
    # pt_interval is solved on P1; either way the 61 solved agree with a solve
    # of all 90 on the trusted 60
    graph = load_graph(fixture(f"{name}.json"))
    exact = graph.potential_is_piecewise_constant()
    calls = _record_exact_solves(monkeypatch) if exact else _record_solves(monkeypatch)
    assert main(["verify", "--graph", fixture(f"{name}.json"), "--format", "json", "--out-dir", str(tmp_path)]) == 0
    if exact:
        k, energies = calls[0]
        full = analytic.piecewise_constant_eigenvalues(graph, 90)[0]
        grad_norms = full / graph.alpha if graph.potential_is_zero() else _exact_grad_norms(graph, 90)
    else:
        system, k, energies = calls[0]
        spectrum = fem.solve_spectrum(system, 90)
        full, grad_norms = spectrum.energies, spectrum.edge_dirichlet.sum(axis=0)
    assert (k, ineq.trusted_count(90)) == (61, 60)
    assert energies[:60] == pytest.approx(full[:60], rel=1e-9, abs=0)
    reference = ineq.yang_check(full, grad_norms, graph.alpha, ineq.make_z_grid(full[:60]))
    report = json.loads((tmp_path / "verify_yang.json").read_text())
    assert report["grid"] == pytest.approx(reference.z_grid, rel=1e-9, abs=0)
    assert report["values"]["s"] == pytest.approx(reference.values, rel=1e-9, abs=0)


@pytest.mark.parametrize(
    "name, spectrum_solves",
    [("y_graph", 0), ("hash_graph", 0), ("tree_well", 0), ("circle_two_leads", 0), ("pt_interval", 1)],
)
def test_verify_solves_eigenvectors_only_where_a_check_reads_them(tmp_path, monkeypatch, name, spectrum_solves):
    # a graph of constant pieces (y_graph, hash_graph, tree_well, the loop
    # pair circle_two_leads) is solved exactly; a sech-squared well
    # (pt_interval) solves P1 eigenpairs once, and its Stubbe couplings
    # count their bound states with no solve
    calls = []
    solve = fem.solve_spectrum

    def counted(system, k, *args, **kwargs):
        calls.append(k)
        return solve(system, k, *args, **kwargs)

    monkeypatch.setattr(fem, "solve_spectrum", counted)
    assert main(["verify", "--graph", fixture(f"{name}.json"), "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == spectrum_solves


def test_verify_solves_every_bound_state_when_the_trusted_ones_are_bound(monkeypatch):
    # at alpha = 0.002 the well holds 28 bound states; verify's P1 mesh for
    # --k 36 trusts 24, so the 25 solved are all bound and the 28 bound states
    # are counted and bracketed anew, with no second solve
    graph = dataclasses.replace(load_graph(fixture("tree_well.json")), alpha=0.002)
    system = fem.assemble(_mesh(graph, 36, None, graph.alpha))
    calls = _record_solves(monkeypatch)
    solved = fem.solve_spectrum(system, 25).energies
    assert solved[-1] < 0.0
    bound = system.bound_states([graph.alpha])[0]
    assert [k for _, k, _ in calls] == [25]
    assert len(bound) == 28
    q = ineq.lt_quotient(system, bound, 2.0)
    assert round_sig(q.moment) == 2897.43506769
    assert round_sig(q.quotient) == 0.168320869195


def test_bound_states_read_a_solve_that_reaches_zero(monkeypatch):
    # a certified solve topped at or above 0 holds every bound state; one
    # topped below 0 may miss some, so they are counted and bracketed anew
    star = families.star([1.5, 1.5, 1.5])
    for leg in range(3):
        star = families.with_square_well(star, leg, depth=-12.0, width_fraction=0.5)
    system = fem.assemble(fem.build_mesh(star, 0.01))
    solved = fem.solve_spectrum(system, 4).energies
    assert solved[2] < 0.0 <= solved[3]
    counts, calls = [], _record_solves(monkeypatch)
    chain_counter = fem._chain_counter

    def counter(system, alpha):
        count = chain_counter(system, alpha)

        def counted(energies, member=0):
            counts.extend(energies)
            return count(energies, member)

        return counted

    def context(energies):
        return SolveContext(star, None, ineq.TOL_FEM, system, energies, None, None, energies, {})

    monkeypatch.setattr(fem, "_chain_counter", counter)
    bound = context(solved).bound_states
    assert (counts, calls) == ([], [])
    assert np.array_equal(bound, solved[solved < 0.0])
    assert context(solved[:2]).bound_states == pytest.approx(bound, rel=1e-9, abs=0)
    assert (counts[0], calls) == (0.0, [])


def _tree_well_weak(tmp_path):
    graph = json.loads(open(fixture("tree_well.json")).read())
    graph["alpha"] = 0.002
    path = tmp_path / "tree_well_weak.json"
    path.write_text(json.dumps(graph))
    return path


def test_verify_solves_every_bound_state_exactly_when_the_trusted_ones_are_bound(tmp_path, capsys):
    # the exact count of the same graph finds the 28 bound states; their
    # moment lies 4.0e-4 (relative) above that of the P1 mesh above
    code = main(["verify", "--graph", str(_tree_well_weak(tmp_path)), "--k", "36", "--out-dir", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "verify_lt_quotient_gamma_2.0.json").read_text())
    assert report["values"]["moment"] == [2898.60459855]
    assert report["values"]["quotient"] == [0.168342815517]


def test_verify_reads_the_bound_states_once(tmp_path, capsys, monkeypatch):
    # the 25 solved at alpha = 0.002 are all bound, so the 28 bound states
    # are counted and solved once for both lt_quotient rows; the Stubbe grid
    # follows with 2 bound states at alpha = 0.5
    calls = _record_exact_solves(monkeypatch)
    code = main(["verify", "--graph", str(_tree_well_weak(tmp_path)), "--k", "36", "--out-dir", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    assert [k for k, _ in calls][:3] == [25, 28, 2]


def test_checks_report_under_their_keys():
    covered = set()
    for name in ("y_graph", "tree_well", "circle_two_leads"):
        graph = load_graph(fixture(f"{name}.json"))
        system = fem.assemble(fem.build_mesh(graph, 0.02))
        spectrum = fem.solve_spectrum(system, 90)
        topology = classify_topology(graph).topology_class
        policy = POLICY[(topology, graph.potential_is_zero())]
        loop = _loop_pair(graph, topology)
        tables = None if loop is None else (loop.rows(spectrum.edge_mass), loop.rows(spectrum.edge_dirichlet))
        ctx = SolveContext(
            graph, loop, ineq.TOL_FEM, system, spectrum.energies,
            spectrum.edge_dirichlet.sum(axis=0), tables, spectrum.energies[: ineq.trusted_count(90)], dict(policy),
        )
        for key, _ in policy:
            assert CHECKS[key][1](ctx).check == key
            covered.add(key)
    assert covered == set(CHECKS)


def test_readme_verify_table_matches_policy():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    roles = ("guaranteed", "expected_violation", "informational")
    table = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not cells[0].startswith("`"):
            continue
        key = (TopologyClass(cells[0].strip("`")), cells[1] == "`= 0`")
        table[key] = {
            role: [n.strip() for n in re.sub(r"\[[^\]]*\]", "", cell).split(",") if n.strip() != "--"]
            for role, cell in zip(roles, cells[2:])
        }
    expected = {
        key: {role: [n for n, r in rows if r == role] for role in roles} for key, rows in POLICY.items()
    }
    assert table == expected


def test_readme_tags_are_the_check_preconditions():
    # each bracket in the README's verify table is its check's precondition
    # tag in CHECKS, and a check with no bracket has none; the legend names
    # every tag, and a fallback runs with no precondition
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    tags = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not cells[0].startswith("`"):
            continue
        for entry in ",".join(cells[2:]).split(","):
            name, tag = re.fullmatch(r"(\S+)(?: \[([^\]]*)\])?", entry.strip()).groups()
            if name != "--":
                tags.setdefault(name, set()).add(tag)
    assert tags == {name: {tag} for name, (tag, _) in CHECKS.items()}
    legend = readme[readme.index("A bracket names") :].split("\n\n")[0]
    assert set(re.findall(r"`\[([^\]]+)\]`", legend)) == set(PRECONDITIONS) - {None}
    assert all(CHECKS[name][0] is None for name, _ in FALLBACK.values())
