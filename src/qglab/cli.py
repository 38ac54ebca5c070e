"""Command line front door.

Subcommands: ``spectrum``, ``verify``, ``sweep``, ``oracle``, ``colorings``,
``circuit``.  Exit codes: 0 success, 1 check failure, 2 input error,
3 numeric failure.  Every subcommand writes only below ``--out-dir``.

``verify`` and the ``alpha`` sweep take one spectral model (``_model``):
``analytic.ExactModel``, with no mesh, on a graph whose potential is constant
on each piece of every edge, and the P1 assembly on every other graph.
``spectrum`` and the ``fem`` sweeps always stay on P1, the ``V = 0`` sweeps
counting its energies through the vertex count of the exact model.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial

import numpy as np

from . import analytic, circuits, colorings, families, fem, inequalities as ineq
from .graphs import (
    DIRICHLET,
    NEUMANN,
    InvalidGraphError,
    MetricGraph,
    TopologyClass,
    classify_topology,
    load_graph,
    require_valid,
)
from .reports import CheckReport, fmt_float, write_csv, write_json, write_report

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


#: Options that several subcommands read; each takes only those it reads.
_SHARED = {
    "--graph": dict(required=True, help="graph description file (JSON)"),
    "--h": dict(type=float, default=None, help="mesh target cell size"),
    "--k": dict(type=int, default=None, help="number of eigenpairs"),
}


def _add_parser(sub, name: str, help: str, *shared: str) -> argparse.ArgumentParser:
    # no abbreviations: "--h" would otherwise mean "--help" where --h is not taken
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    for option in shared:
        p.add_argument(option, **_SHARED[option])
    p.add_argument("--out-dir", default="out", help="output directory (sole write location)")
    return p


@cache  # built once per process: main parses with it on every call
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qglab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    _add_parser(sub, "spectrum", "solve and export eigenvalues/eigenfunctions", "--graph", "--h", "--k")

    p = _add_parser(sub, "verify", "run the inequality suite for the graph's topology", "--graph", "--h", "--k")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
    p.add_argument("--tol", type=float, default=None, help="override check tolerance")
    p.add_argument("--corrupt-spectrum", action="store_true", help=argparse.SUPPRESS)

    p = _add_parser(sub, "sweep", "parameter sweeps with CSV output", "--h", "--k")
    p.add_argument("--graph", help="graph description file (JSON), for the alpha sweep")
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored: sweeps run serially")
    p.add_argument("--sweep", required=True, choices=("balloon-L", "fancy-N", "alpha"))
    p.add_argument("--range", dest="sweep_range", required=True, help="lo:hi")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--engine", choices=("fem", "oracle"), default=None)

    p = _add_parser(sub, "oracle", "closed-form/secular spectra of the model families")
    p.add_argument(
        "--family",
        required=True,
        choices=("interval", "balloon", "fancy-balloon", "poschl-teller"),
    )
    p.add_argument("--length", type=float, default=1.0, help="interval length / balloon string length")
    p.add_argument("--bc", choices=("DD", "DN"), default="DD")
    p.add_argument("--n", type=int, default=10, help="number of eigenvalues")
    p.add_argument("--rungs", type=int, default=3, help="parallel edge count for fancy-balloon")

    p = _add_parser(sub, "colorings", "admissible colorings of a tree", "--graph")
    p.add_argument("--with-g", action="store_true", help="also export one affine function per coloring")

    p = _add_parser(sub, "circuit", "exact nodal analysis and dead-edge detection", "--graph")
    p.add_argument("--terminals", default=None, help="comma-separated vertex ids (default: leaf ends)")
    p.add_argument("--lead-resistance", type=float, default=1.0)
    return ap


def _require(ok: bool, option: str, value, rule: str) -> None:
    """Refuse an out-of-range option value as an input error that names it."""
    if not ok:
        raise ValueError(f"{option} must be {rule}, got {value}")


#: Largest default mesh size as a fraction of the bound-state length
#: ``sqrt(alpha / max|V_-|)``.  The deepest fixture well at ``alpha = 1``
#: (``tree_well``, depth 14) allows ``h = 0.0214``, above the 0.02 ceiling,
#: so no ``alpha = 1`` fixture's default mesh depends on it.
H_PER_WELL_LENGTH = 0.08


def _mesh(graph: MetricGraph, k: int, requested: float | None, alpha_min: float) -> fem.Mesh:
    """The mesh at ``--h``, or at a default that resolves the lowest ``k``
    eigenfunctions and, at every coupling down to ``alpha_min``, the bound
    states of the deepest well."""
    if requested is not None:
        return fem.build_mesh(graph, requested)
    # keep the discretization error of the trusted eigenvalues below the
    # 1e-3 margin discipline of the sign checks
    h = min(0.02, 0.05 * graph.total_length / k)
    mesh = fem.build_mesh(graph, h)
    depth = -mesh.min_potential
    if depth > 0:
        h_well = H_PER_WELL_LENGTH * math.sqrt(alpha_min / depth)
        if h_well < h:
            mesh = fem.build_mesh(graph, h_well)
    return mesh


def _model(graph: MetricGraph, k: int, h: float | None, alpha_min: float) -> analytic.ExactModel | fem.AssembledSystem:
    """The spectral model of ``graph``: ``analytic.ExactModel``, with no mesh,
    where its potential is constant on each piece of every edge, which reads
    neither ``k`` nor ``h``; else the P1 assembly on ``_mesh``."""
    if graph.potential_is_piecewise_constant():
        return analytic.ExactModel(graph)
    return fem.assemble(_mesh(graph, k, h, alpha_min))


def _load(args) -> MetricGraph:
    graph = load_graph(args.graph)
    require_valid(graph)
    return graph


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args) -> int:
    out = args.out_dir
    graph = _load(args)
    k = args.k or 8
    system = fem.assemble(_mesh(graph, k, args.h, graph.alpha))
    spectrum = fem.solve_spectrum(system, min(k, system.ndof))
    n_edges = len(graph.edges)

    header = ["j", "energy"]
    header += [f"mass_e{m}" for m in range(n_edges)]
    header += [f"dirichlet_e{m}" for m in range(n_edges)]
    rows = []
    for j, e in enumerate(spectrum.energies):
        rows.append(
            [j + 1, e]
            + list(spectrum.edge_mass[:, j])
            + list(spectrum.edge_dirichlet[:, j])
        )
    write_csv(os.path.join(out, "spectrum.csv"), header, rows)

    for j in range(len(spectrum)):
        rows = []
        for eid, (x, y) in enumerate(fem.eigenfunction_samples(spectrum, j)):
            rows.extend([eid, xi, yi] for xi, yi in zip(x, y))
        write_csv(os.path.join(out, f"eigenfunction_{j + 1:03d}.csv"), ["edge", "arclength", "value"], rows)

    for j, e in enumerate(spectrum.energies):
        print(f"E_{j + 1} = {fmt_float(e)}")
    # with V = 0 and no Dirichlet vertex, E_1 = 0 (the constant mode) and the solve holds its roundoff
    constant_mode = graph.potential_is_zero() and DIRICHLET not in graph.boundary.values()
    if len(spectrum) >= 2 and spectrum.energies[0] != 0 and not constant_mode:
        print(f"E_2/E_1 = {fmt_float(spectrum.energies[1] / spectrum.energies[0])}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

_G, _E, _I = "guaranteed", "expected_violation", "informational"


@dataclass
class SolveContext:
    """What the checks of one ``verify`` run read: one solve.

    ``energies`` holds the lowest ``trusted_count(k)`` energies and one more;
    ``trusted`` is the trusted part.  ``grad_norms`` is each state's ``int
    |phi'|^2``, summed from its per-edge tables (closed-form on the exact
    model), or ``E / alpha`` on ``V = 0``.  ``model`` is the spectral model
    the moment checks read (``_model``).  ``loop`` is the graph's loop pair,
    found once per run, or ``None``; ``tables`` are then each state's ``int
    |phi|^2`` and ``int |phi'|^2`` over its leads and its loop (``_solve``).
    """

    graph: MetricGraph
    loop: ineq.LoopLeads | None
    tol: float
    model: analytic.ExactModel | fem.AssembledSystem
    energies: np.ndarray
    grad_norms: np.ndarray
    tables: tuple[np.ndarray, np.ndarray] | None
    trusted: np.ndarray
    roles: dict[str, str]  # role of each check in this graph's POLICY row

    @cached_property
    def bound_states(self) -> np.ndarray:
        """Every negative eigenvalue at the graph's coupling, read once for
        all moment checks."""
        return self.model.bound_states([self.model.alpha], solved=self.energies)[0]


def _loop_pair(graph: MetricGraph, topology: TopologyClass) -> ineq.LoopLeads | None:
    """The loop of two equal semicircles with one lead at each junction, or
    ``None``; only a one-loop graph can hold one, so no other graph searches."""
    if topology is not TopologyClass.ONE_LOOP_WITH_LEADS:
        return None
    try:
        return ineq.loop_structure(graph)
    except ValueError:
        return None


def _yang_report(ctx: SolveContext, ratio: float) -> CheckReport:
    z_grid = ineq.make_z_grid(ctx.trusted)
    check = ineq.yang_check(
        ctx.energies, ctx.grad_norms, ctx.graph.alpha, z_grid, tol_rel=ctx.tol, coeff_ratio=ratio
    )
    return CheckReport(
        check="yang" if ratio == 1.0 else "weak_yang",
        params={"coeff_ratio": check.coeff_ratio, "tol_rel": check.tol_rel},
        grid=[float(z) for z in check.z_grid],
        values={"s": [float(v) for v in check.values]},
        verdict=check.verdict,
        worst_margin=check.worst_margin,
    )


def _weak_yang(ctx: SolveContext) -> CheckReport | None:
    family = circuits.g_family_verdict(ctx.graph)
    if not family.exists_full_support:
        return None
    return _yang_report(ctx, float(family.a_max / family.a_min))


def _weyl(ctx: SolveContext) -> CheckReport:
    weyl = ineq.weyl_check(ctx.trusted, ctx.graph.total_length)
    return CheckReport(
        check="weyl",
        params={"total_length": ctx.graph.total_length, "tol": weyl.tol},
        grid=[float(n) for n in weyl.ns],
        values={"normalized": list(weyl.values)},
        verdict=weyl.verdict,
        worst_margin=abs(weyl.final_value - 1.0) - weyl.tol,
        notes=[f"final {fmt_float(weyl.final_value)} at n={weyl.ns[-1]}"],
    )


def _riesz(ctx: SolveContext) -> CheckReport | None:
    if ctx.trusted[0] <= 0:
        return None
    riesz = ineq.riesz_suite(ctx.trusted, ctx.graph.total_length, tol_rel=ctx.tol)
    return CheckReport(
        check="riesz",
        params={"sample_js": list(riesz.sample_js), "tol_rel": ctx.tol},
        grid=[float(z) for z in riesz.z_grid],
        values={
            "r1": [float(v) for v in riesz.r1],
            "r2": [float(v) for v in riesz.r2],
            "ind": [float(v) for v in riesz.ind],
        },
        verdict=riesz.verdict,
        worst_margin=min(riesz.worst.values()) if riesz.worst else 0.0,
        notes=[f"failed: {riesz.failures}"] if riesz.failures else [],
    )


def _mean_ratio(ctx: SolveContext) -> CheckReport | None:
    if ctx.trusted[0] <= 0:
        return None
    pairs = [(j, k) for j, k in ((1, 2), (2, 5), (5, 10), (1, 12), (10, 20), (20, 40)) if k <= len(ctx.trusted)]
    bounds = ineq.mean_ratio_bounds(ctx.trusted, pairs, tol_rel=ctx.tol)
    return CheckReport(
        check="mean_ratio",
        params={"pairs": [[b.j, b.k] for b in bounds]},
        grid=[],
        values={},
        verdict="holds" if all(b.holds for b in bounds) else "violated",
        worst_margin=min(
            min(b.bound_loose - b.ratio for b in bounds),
            min((b.bound_tight - b.ratio for b in bounds if b.bound_tight is not None), default=0.0),
        ),
        notes=[f"({b.j},{b.k}): ratio {fmt_float(b.ratio)}" for b in bounds],
    )


def _lt_quotient(ctx: SolveContext, gamma: float) -> CheckReport | None:
    if ctx.model.min_potential >= 0:
        return None
    name = f"lt_quotient_gamma_{gamma}"
    q = ineq.lt_quotient(ctx.model, ctx.bound_states, gamma, tol_rel=ctx.tol)
    verdict = "violated" if q.exceeds_classical else "holds"
    notes = [q.note] if q.note else []
    if verdict == "violated":
        notes.append("violation observed (expected)" if ctx.roles[name] == _E else "exceeds classical constant")
    return CheckReport(
        check=name,
        params={"gamma": gamma, "classical": q.classical_constant},
        grid=[],
        values={
            "quotient": [q.quotient],
            "moment": [q.moment],
            "integral": [q.integral],
        },
        verdict=verdict,
        worst_margin=q.classical_constant - q.quotient,
        notes=notes,
    )


def _stubbe(ctx: SolveContext) -> CheckReport | None:
    if ctx.model.min_potential >= 0:
        return None
    stubbe = ineq.stubbe_monotonicity(ctx.model, np.geomspace(0.5, 4.0, 8))
    return CheckReport(
        check="stubbe_monotonicity",
        params={"classical_bound": stubbe.classical_bound},
        grid=[float(a) for a in stubbe.alphas],
        values={"value": [float(v) for v in stubbe.values]},
        verdict=stubbe.verdict,
        worst_margin=-stubbe.worst_increase_rel,
    )


def _one_loop_shifted(ctx: SolveContext) -> CheckReport | None:
    if ctx.loop is None:
        return None
    e1 = float(ctx.energies[0])
    if e1 < 0:
        zs = np.linspace(0.9 * e1, 0.05 * e1, 6)
    else:
        zs = np.linspace(-1.0, -0.1, 6)
    shifted = ineq.one_loop_shifted_check(ctx.model, ctx.loop, np.geomspace(0.5, 2.0, 6), zs, tol_rel=ctx.tol)
    return CheckReport(
        check="one_loop_shifted",
        params={"q": shifted.q, "alphas": [float(a) for a in shifted.alphas]},
        grid=[float(z) for z in shifted.zs],
        values={
            f"map_alpha_{i}": [float(v) for v in shifted.map_values[:, i]]
            for i in range(len(shifted.alphas))
        },
        verdict=shifted.verdict,
        worst_margin=-shifted.worst_increase_rel,
        notes=[f"skipped {shifted.skipped} positive-shift windows"] if shifted.skipped else [],
    )


#: ``sum_rule_steps`` samples ``z`` between ``E_j`` and ``E_(j+1)`` (from 0)
#: for these ``j``, so it reads the loop tables of the lowest 8 states only.
SUM_RULE_JS = (0, 1, 2, 4, 7)


def _sum_rule_steps(ctx: SolveContext) -> CheckReport | None:
    if ctx.loop is None:
        return None
    m = len(ctx.trusted)
    energies = ctx.energies
    zsamples = [0.5 * (energies[j] + energies[j + 1]) for j in SUM_RULE_JS if j + 1 < m]
    check = partial(ineq.sum_rule_steps_check, energies, ctx.graph.alpha, ctx.loop.q, *ctx.tables, tol_rel=ctx.tol)
    steps = [check(z) for z in zsamples]
    return CheckReport(
        check="sum_rule_steps",
        params={},
        grid=[s.z for s in steps],
        values={
            "in1": [s.in1_value for s in steps],
            "perid_lhs": [s.perid_lhs for s in steps],
            "perid_rhs": [s.perid_rhs for s in steps],
        },
        verdict="holds" if all(s.verdict == "holds" for s in steps) else "violated",
        worst_margin=max((s.in1_value for s in steps), default=0.0),
    )


#: Every check ``verify`` can run, by report name.  A check returns ``None``
#: when the graph lacks its precondition: a negative part of V (moment
#: quotients, Stubbe), a loop of two equal semicircles with one lead at each
#: junction (one-loop checks), a full-support slope family (weak_yang), or
#: ``E_1 > 0`` (riesz, mean_ratio: a ``V = 0`` graph without a Dirichlet
#: vertex has ``E_1 = 0``).
CHECKS = {
    "yang": partial(_yang_report, ratio=1.0),
    "weak_yang": _weak_yang,
    "weyl": _weyl,
    "riesz": _riesz,
    "mean_ratio": _mean_ratio,
    "lt_quotient_gamma_1.5": partial(_lt_quotient, gamma=1.5),
    "lt_quotient_gamma_2.0": partial(_lt_quotient, gamma=2.0),
    "stubbe_monotonicity": _stubbe,
    "one_loop_shifted": _one_loop_shifted,
    "sum_rule_steps": _sum_rule_steps,
}

_LT = [("lt_quotient_gamma_1.5", _I), ("lt_quotient_gamma_2.0", _I), ("stubbe_monotonicity", _I)]
_ONE_LOOP = [("one_loop_shifted", _G), ("sum_rule_steps", _G)]

#: The checks ``verify`` runs, in order, with their roles, by topology and
#: whether ``V == 0``.  The README table mirrors this.
POLICY: dict[tuple[TopologyClass, bool], list[tuple[str, str]]] = {
    (TopologyClass.TREE, True): [("yang", _G), ("weyl", _G), ("riesz", _G), ("mean_ratio", _G)],
    (TopologyClass.TREE, False): [
        ("yang", _G), ("lt_quotient_gamma_1.5", _I), ("lt_quotient_gamma_2.0", _G), ("stubbe_monotonicity", _G),
    ],
    (TopologyClass.CUT_VERTEX_CYCLE, True): [("yang", _E), ("weyl", _G)],
    (TopologyClass.CUT_VERTEX_CYCLE, False): [
        ("yang", _I), ("lt_quotient_gamma_1.5", _E), ("lt_quotient_gamma_2.0", _E), ("stubbe_monotonicity", _I),
    ],
    (TopologyClass.ONE_LOOP_WITH_LEADS, True): [("weak_yang", _G), ("weyl", _G), *_ONE_LOOP],
    (TopologyClass.ONE_LOOP_WITH_LEADS, False): [("weak_yang", _G), *_LT, *_ONE_LOOP],
    (TopologyClass.GENERAL, True): [("weak_yang", _I), ("weyl", _G)],
    (TopologyClass.GENERAL, False): [("weak_yang", _I), *_LT],
}

#: A check that returns ``None`` is skipped, except the weak sum rule: without
#: a full-support slope family the plain one runs, for information only.
FALLBACK = {"weak_yang": ("yang", _I)}

#: Verdicts that pass under each role.
PASSING = {_G: ("holds",), _E: ("violated",), _I: ("holds", "violated")}


def _solve(
    graph: MetricGraph, loop: ineq.LoopLeads | None, k: int, h: float | None
) -> tuple[analytic.ExactModel | fem.AssembledSystem, np.ndarray, np.ndarray, tuple | None, dict]:
    """The spectrum one ``verify`` run reads: the spectral model
    (``_model``), the lowest ``trusted_count(k)`` energies and one more
    (yang's coverage, and lt_quotient's bound states when the top is
    nonnegative), each one's ``int |phi'|^2``, the loop pair's tables
    (``SolveContext``), and a record of the solve for the summary.

    The exact model counts its graph alone and reads each state's per-edge
    tables in closed form (``analytic.edge_tables``), except on ``V = 0``
    without a loop pair; the P1 assembly solves eigenpairs on a mesh that
    resolves ``k``.  ``int |phi'|^2`` is then ``E / alpha`` on ``V = 0`` and
    else the sum of the Dirichlet table, and the loop tables are the sums
    over the leads and over the loop.  ``h`` on the exact model is refused.
    """
    model = _model(graph, k, h, graph.alpha)
    exact = isinstance(model, analytic.ExactModel)
    if exact:  # no mesh to size
        _require(h is None, "--h", h, "left out of verify when V is constant on pieces")
    else:
        k = min(k, model.ndof)  # a mesh resolves at most its ndof eigenvalues
    trusted = ineq.trusted_count(k)
    solved = min(trusted + 1, k)
    if exact:
        energies, brackets = analytic.piecewise_constant_eigenvalues(model.graph, solved)
        per_edge = None
        if loop is not None or not graph.potential_is_zero():
            onto = np.equal.outer(np.arange(len(graph.edges)), model.edge_of)  # each piece onto its edge
            per_edge = [onto @ table for table in analytic.edge_tables(model.graph, energies, brackets)]
        solve = {"source": "exact", "solved": solved, "trusted": trusted}
    else:
        spectrum = fem.solve_spectrum(model, solved)
        energies, per_edge = spectrum.energies, (spectrum.edge_mass, spectrum.edge_dirichlet)
        solve = {"source": "p1", "ndof": model.ndof, "solved": solved, "trusted": trusted}
    grad_norms = energies / graph.alpha if graph.potential_is_zero() else per_edge[1].sum(axis=0)
    tables = None if loop is None else tuple(loop.rows(table) for table in per_edge)
    return model, energies, grad_norms, tables, solve


def cmd_verify(args) -> int:
    out = args.out_dir
    graph = _load(args)
    topo = classify_topology(graph)
    policy = POLICY[(topo.topology_class, graph.potential_is_zero())]
    if NEUMANN in graph.boundary.values():
        # the tree and slope-family arguments need Dirichlet leaves (free ends carry boundary data)
        policy = [(name, _I if role == _G and name != "weyl" else role) for name, role in policy]
    loop = _loop_pair(graph, topo.topology_class)
    model, energies, grad_norms, tables, solve = _solve(graph, loop, args.k or 90, args.h)
    if args.corrupt_spectrum:
        # no Dirichlet energy: every sum rule fails, whatever its coefficient ratio
        grad_norms = np.zeros_like(grad_norms)
        if tables is not None:
            tables = (tables[0], np.zeros_like(tables[1]))

    tol = args.tol if args.tol is not None else ineq.TOL_FEM
    trusted = energies[: solve["trusted"]]
    ctx = SolveContext(graph, loop, tol, model, energies, grad_norms, tables, trusted, dict(policy))
    ran: list[tuple[CheckReport, str]] = []
    for name, role in policy:
        report = CHECKS[name](ctx)
        if report is None and name in FALLBACK:
            name, role = FALLBACK[name]
            report = CHECKS[name](ctx)
        if report is not None:
            ran.append((report, role))

    for report, _ in ran:
        write_report(report, out, f"verify_{report.check}", args.format)
    checks = [
        {"name": r.check, "role": role, "verdict": r.verdict, "pass": r.verdict in PASSING[role]} for r, role in ran
    ]
    code = EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK
    summary = {
        "graph": args.graph,
        "topology": topo.topology_class.value,
        "betti": topo.betti,
        "spectrum": solve,
        "checks": checks,
        "exit_code": code,
    }
    write_json(os.path.join(out, "verify_summary.json"), summary)
    for c in checks:
        print(f"[{c['role']}] {c['name']}: {c['verdict']} -> {'pass' if c['pass'] else 'FAIL'}")
    return code


# ---------------------------------------------------------------------------
# sweep


def _ratio_rows(sweep: str, xs: list, engine: str, h: float, k: int) -> list[list[float]]:
    """``[x, E1, E2, E2/E1]`` for each ``x``: the balloon with string length
    ``x`` (``balloon-L``) or the fancy balloon with ``x`` rungs (``fancy-N``).

    The ``fem`` engine builds no mesh: it checks ``k`` against the unknowns
    of each point's cells at ``h`` and reads it no further, then counts the
    2 lowest P1 energies by ``analytic.piecewise_constant_family`` (``V =
    0``), with no eigensolve, in one call: it counts the points of one shape
    together, so the balloons of every string length are one family and
    each rung count is a family of its own."""
    balloon = sweep == "balloon-L"
    if engine == "fem":
        graphs, cells = [], []
        for x in xs:
            graphs.append(families.balloon(string_length=x) if balloon else families.fancy_balloon(x))
            cells.append(fem.edge_cells(graphs[-1], h))
            n, at = fem.unknowns(graphs[-1], cells[-1]), f"{'L' if balloon else 'N'} = {x:g}"
            _require(k <= n, "--k", k, f"at most {n}, the unknowns of the --h {h:g} mesh at {at}")
        energies = [e for e, _ in analytic.piecewise_constant_family(graphs, 2, cells)]
    elif balloon:
        energies = [[m.energy for m in analytic.balloon_eigenvalues(x, 2)] for x in xs]
    else:
        energies = [analytic.fancy_balloon_eigenvalues(x, 2) for x in xs]
    rows = []
    for x, e in zip(xs, energies):
        e1, e2 = float(e[0]), float(e[1])
        rows.append([x, e1, e2, e2 / e1])
    return rows


def cmd_sweep(args) -> int:
    engine = args.engine or ("fem" if args.sweep == "balloon-L" else "oracle")
    if args.sweep == "alpha":
        _require(args.engine is None, "--engine", args.engine, "left out of the alpha sweep")
    else:
        _require(args.graph is None, "--graph", args.graph, f"left out of the {args.sweep} sweep")
        if engine == "fem":
            _require(args.k is None or args.k >= 2, "--k", args.k, "at least 2 for E2/E1 on the fem engine")
        else:
            for option, value in (("--h", args.h), ("--k", args.k)):
                _require(value is None, option, value, "left out on the oracle engine")
    out = args.out_dir
    try:
        lo, hi = (float(end) for end in args.sweep_range.split(":"))
    except ValueError:  # not two numbers
        lo = hi = math.nan
    _require(-math.inf < lo < hi < math.inf, "--range", args.sweep_range, "lo:hi with finite lo < hi")
    _require(args.steps >= 2, "--steps", args.steps, "at least 2")
    grid = np.linspace(lo, hi, args.steps)

    if args.sweep == "balloon-L":
        _require(lo > 0, "--range", args.sweep_range, "positive for the balloon-L sweep")
        h = args.h if args.h is not None else 0.01
        rows = _ratio_rows(args.sweep, [float(L) for L in grid], engine, h, args.k or 6)
        write_csv(os.path.join(out, "sweep.csv"), ["L", "E1", "E2", "ratio"], rows)
        best = max(range(len(rows)), key=lambda i: rows[i][3])
        print(f"max ratio {fmt_float(rows[best][3])} at L = {fmt_float(rows[best][0])}")
    elif args.sweep == "fancy-N":
        h = args.h if args.h is not None else 0.02
        ns = [int(n) for n in np.rint(grid)]
        _require(ns[0] >= 2, "--range", args.sweep_range, "lo:hi with lo at least 2 for fancy-N")
        whole = f"at most {ns[-1] - ns[0] + 1} (the whole N in --range {args.sweep_range})"
        _require(len(set(ns)) == args.steps, "--steps", args.steps, whole)
        rows = [row + [row[3] / (math.pi**2 * row[0])] for row in _ratio_rows(args.sweep, ns, engine, h, args.k or 6)]
        write_csv(os.path.join(out, "sweep.csv"), ["N", "E1", "E2", "ratio", "ratio_over_pi2N"], rows)
        print(f"last ratio/(pi^2 N) = {fmt_float(rows[-1][4])}")
    else:
        if not args.graph:
            raise InvalidGraphError("alpha sweep needs --graph")
        _require(lo > 0, "--range", args.sweep_range, "positive for the alpha sweep")
        graph = _load(args)
        # one model serves every coupling: a P1 assembly's alpha only rescales its stiffness
        model = _model(graph, args.k or 16, args.h, lo)
        if isinstance(model, analytic.ExactModel):  # no mesh, and every bound state
            for option, value in (("--h", args.h), ("--k", args.k)):
                _require(value is None, option, value, "left out of the alpha sweep when V is constant on pieces")
        # with no bound state an all-zero column proves nothing: none at V >= 0, and
        # none at any coupling of the range when none at its lowest, which binds the most
        _require(model.min_potential < 0, "--graph", args.graph, "a graph with V < 0 somewhere (at a mesh node, on P1)")
        stubbe = ineq.stubbe_monotonicity(model, grid)
        _require(stubbe.moments[0] > 0, "--range", args.sweep_range, "lo:hi with a bound state at alpha = lo")
        rows = zip(stubbe.alphas, stubbe.moments, stubbe.values)
        write_csv(os.path.join(out, "sweep.csv"), ["alpha", "moment2", "stubbe_value"], rows)
        print(f"stubbe column nonincreasing: {stubbe.nonincreasing}")
        if not stubbe.nonincreasing:
            return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    _require(args.n >= 1, "--n", args.n, "at least 1")
    _require(0 < args.length < math.inf, "--length", args.length, "finite and positive")
    _require(args.rungs >= 2, "--rungs", args.rungs, "at least 2")
    out = args.out_dir
    if args.family == "interval":
        e = analytic.interval_eigenvalues(args.length, args.bc, args.n)
        rows = [[i + 1, v] for i, v in enumerate(e)]
        write_csv(os.path.join(out, "oracle.csv"), ["n", "energy"], rows)
        print(f"first eigenvalue {fmt_float(e[0])}")
    elif args.family == "balloon":
        modes = analytic.balloon_eigenvalues(args.length, args.n)
        rows = [[i + 1, m.k, m.energy, m.family] for i, m in enumerate(modes)]
        write_csv(os.path.join(out, "oracle.csv"), ["n", "k", "energy", "family"], rows)
        if len(modes) >= 2:
            print(f"E_2/E_1 = {fmt_float(modes[1].energy / modes[0].energy)}")
    elif args.family == "fancy-balloon":
        e = analytic.fancy_balloon_eigenvalues(args.rungs, args.n)
        rows = [[i + 1, v] for i, v in enumerate(e)]
        write_csv(os.path.join(out, "oracle.csv"), ["n", "energy"], rows)
        if len(e) >= 2:
            print(f"E_2/E_1 = {fmt_float(e[1] / e[0])}")
    else:
        pt = analytic.poschl_teller_balloon_oracle()
        write_csv(
            os.path.join(out, "oracle.csv"),
            ["a", "energy", "q_3_2", "q_2"],
            [[pt.a, pt.energy, pt.q32, pt.q2]],
        )
        print(f"a = {fmt_float(pt.a)}  E_1 = {fmt_float(pt.energy)}")
        print(f"Q(3/2) = {fmt_float(pt.q32)} vs classical {fmt_float(analytic.classical_lt_constant(1.5))}")
        print(f"Q(2)   = {fmt_float(pt.q2)} vs classical {fmt_float(analytic.classical_lt_constant(2.0))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# colorings


def cmd_colorings(args) -> int:
    out = args.out_dir
    graph = _load(args)
    cols = colorings.enumerate_admissible(graph)
    counts = colorings.edge_counts(cols)
    write_csv(
        os.path.join(out, "edge_counts.csv"),
        ["edge", "count"],
        [[i, c] for i, c in enumerate(counts.counts)],
    )
    write_csv(
        os.path.join(out, "colorings.csv"),
        ["index", "bits"],
        [[i, "".join(map(str, c))] for i, c in enumerate(cols)],
    )
    if args.with_g:
        rows = []
        for i, c in enumerate(cols):
            g = colorings.realize_g(graph, c)
            for eid, e in enumerate(graph.edges):
                rows.append([i, eid, g.slopes[eid], g.vertex_values[e.u], g.vertex_values[e.v]])
        write_csv(
            os.path.join(out, "gfunctions.csv"),
            ["coloring", "edge", "slope", "value_from", "value_to"],
            rows,
        )
    print(f"admissible colorings: {len(cols)}")
    print(f"per-edge count uniform: {counts.uniform} (count = {counts.counts[0] if counts.counts else 0})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# circuit


def cmd_circuit(args) -> int:
    _require(0 < args.lead_resistance < math.inf, "--lead-resistance", args.lead_resistance, "finite and positive")
    out = args.out_dir
    graph = _load(args)
    terminals = None
    if args.terminals is not None:
        terminals = [int(t) if t.strip().isdecimal() else -1 for t in args.terminals.split(",") if t.strip()]
        ids = len(set(terminals)) == len(terminals) >= 2 and all(0 <= t < graph.num_vertices for t in terminals)
        _require(ids, "--terminals", args.terminals, "a comma-separated list of at least two distinct vertex ids")
    circuit = circuits.build_circuit(graph, terminals, Fraction(args.lead_resistance))
    support = circuits.support_analysis(circuit)
    verdict = circuits.g_family_verdict(graph)
    payload = {
        "dead_edges": list(support.dead_edges),
        "exists_full_support": verdict.exists_full_support,
        "condition_a": verdict.condition_a,
        "a_min": str(support.a_min) if support.a_min is not None else None,
        "a_max": str(support.a_max) if support.a_max is not None else None,
        "reason": verdict.reason,
        "criterion": verdict.criterion,
        "probes": [
            {
                "terminal": int(t),
                "currents": [str(c) for c in probe.currents],
            }
            for t, probe in zip(circuit.terminals[:-1], support.probes)
        ],
    }
    write_json(os.path.join(out, "circuit.json"), payload)
    print(f"dead edges: {list(support.dead_edges)}")
    print(f"full-support family exists ({verdict.criterion}): {verdict.exists_full_support}")
    return EXIT_OK


# ---------------------------------------------------------------------------


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
    "colorings": cmd_colorings,
    "circuit": cmd_circuit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    k, h, tol = (getattr(args, name, None) for name in ("k", "h", "tol"))
    try:
        _require(k is None or k >= 1, "--k", k, "at least 1")
        _require(h is None or 0 < h < math.inf, "--h", h, "finite and positive")
        _require(tol is None or 0 <= tol < math.inf, "--tol", tol, "finite and nonnegative")
        return _COMMANDS[args.command](args)
    # CoverageError and MemoryBudgetError are ValueErrors, so their clauses
    # come first; the graph, coloring and circuit errors are ValueErrors too
    except (fem.SolverError, ineq.CoverageError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except fem.MemoryBudgetError as exc:
        # a mesh is too fine for --h, or for --k when the mesh size defaults from it
        blame = "--h too small" if exc.param == "target_h" and h is not None else "--k too large"
        print(f"input error: {blame}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
