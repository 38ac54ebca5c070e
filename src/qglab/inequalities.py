"""Spectral inequality checks: quadratic sum rules, moment quotients,
coupling monotonicity, the shifted one-loop bound, and Riesz-mean bounds.

Conventions shared by all checks:

* ``energies`` are ascending; callers pass only eigenvalues they trust.
  A mesh built to resolve the lowest ``k`` eigenvalues trusts the lowest
  ``trusted_count(k)`` (two thirds); the rest is noise and must not be used
  as ``z`` values, so a caller need not solve for it.
* Sign checks guaranteed by theory are asserted with a relative tolerance:
  1e-6 for closed-form spectra, 1e-3 for finite element spectra.  Genuine
  violations (the point of the counterexample families) exceed these by
  orders of magnitude.
* ``(x)_+`` is ``max(x, 0)``.
* Checks of the negative spectrum (moment quotients, coupling monotonicity,
  the shifted one-loop bound) read a spectral model: its coupling
  ``alpha``, ``min_potential``, ``bound_states(alphas, solved=None)`` (every
  negative eigenvalue at each coupling of a grid, one array per coupling,
  so no moment is truncated) and ``negative_integral(power, shift=0.0)``
  (``int ((V - shift)_-)^power``).
  ``fem.AssembledSystem`` is one, on its own mesh, and
  ``analytic.ExactModel`` is one with no mesh.  The moment quotients
  take the bound states from their caller, which reads them once.
* The sum-rule steps of the one-loop bound read each state's ``int |phi|^2``
  and ``int |phi'|^2`` over the leads and over the loop, from either model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import classical_lt_constant
from .graphs import MetricGraph, TopologyClass, classify_topology

TOL_ANALYTIC = 1e-6
TOL_FEM = 1e-3

#: Relative rise allowed between neighbouring values of the Stubbe map; no
#: tolerance option reaches it.
STUBBE_TOL = 1e-6

#: Share of the eigenvalues a mesh resolves that is trusted (the top third is
#: noise).
TRUST_FRACTION = 2.0 / 3.0

#: Points of the default ``z`` grid.
Z_GRID_POINTS = 60

#: The Weyl check samples every ``WEYL_STEP`` indices and judges the last
#: sample against ``WEYL_TOL``; no tolerance option reaches it.
WEYL_STEP = 25
WEYL_TOL = 0.05


class CoverageError(ValueError):
    """The provided spectrum does not cover the requested energy window."""


def trusted_count(k: int) -> int:
    """How many of the lowest ``k`` eigenvalues a mesh that resolves ``k`` trusts."""
    return max(1, int(math.floor(k * TRUST_FRACTION)))


def make_z_grid(trusted: np.ndarray) -> np.ndarray:
    """Geometric grid from half the ground state up to the top trusted eigenvalue.

    ``trusted`` is already cut to its trusted part; no share is cut here.
    Falls back to a linear grid when the lower end is not positive
    (spectra with bound states).
    """
    trusted = np.asarray(trusted, dtype=float)
    lo = trusted[0] / 2.0
    hi = trusted[-1]
    if not hi > lo:
        raise CoverageError("spectrum too short for a z grid; request more eigenvalues")
    if lo > 0:
        return np.geomspace(lo, hi, Z_GRID_POINTS)
    return np.linspace(lo, hi, Z_GRID_POINTS)


def _require_coverage(energies: np.ndarray, z_max: float) -> None:
    if energies[-1] < z_max:
        raise CoverageError(
            f"spectrum reaches only {energies[-1]:.6g} but the grid needs {z_max:.6g};"
            " request more eigenvalues"
        )


# ---------------------------------------------------------------------------
# quadratic sum-rule check


@dataclass
class YangCheck:
    z_grid: np.ndarray
    values: np.ndarray  # S(z)
    coeff_ratio: float
    tol_rel: float
    verdict: str
    worst_margin: float  # max of S(z) - tol*z^2; negative means holds with room


def yang_check(
    energies: np.ndarray,
    grad_norms: np.ndarray,
    alpha: float,
    z_grid: np.ndarray,
    tol_rel: float = TOL_FEM,
    coeff_ratio: float = 1.0,
) -> YangCheck:
    """Evaluate ``S(z) = sum (z-E)_+^2 - 4 alpha r (z-E)_+ |phi'|^2``.

    ``coeff_ratio`` is 1 for the plain quadratic inequality and
    ``a_max/a_min`` for the weakened variant on graphs where the slope
    family cannot be uniform.  Holds when ``S(z) <= tol_rel * z^2``
    everywhere on the grid.
    """
    z = np.asarray(z_grid, dtype=float)
    energies = np.asarray(energies, dtype=float)
    grad_norms = np.asarray(grad_norms, dtype=float)
    _require_coverage(energies, float(z.max()))
    pos = np.maximum(z[:, None] - energies[None, :], 0.0)
    s = (pos**2).sum(axis=1) - 4.0 * alpha * coeff_ratio * (pos @ grad_norms)
    margins = s - tol_rel * z * z
    worst = float(margins.max())
    return YangCheck(z, s, coeff_ratio, tol_rel, "holds" if worst <= 0 else "violated", worst)


# ---------------------------------------------------------------------------
# moment quotients


@dataclass
class LTQuotient:
    moment: float  # sum over negative eigenvalues of |E|^gamma
    integral: float  # int V_-^(gamma + 1/2), from the model
    quotient: float
    classical_constant: float
    exceeds_classical: bool
    note: str = ""


def lt_quotient(model, bound_states: np.ndarray, gamma: float, tol_rel: float = TOL_FEM) -> LTQuotient:
    """Moment quotient of the negative spectrum against the potential integral.

    For ``-alpha d^2/dx^2 + V`` the semiclassical bound reads
    ``sum |E|^gamma <= L^cl alpha^(-1/2) int V_-^(gamma + 1/2)``, so the
    quotient is ``sqrt(alpha) * moment / integral`` at the model's own
    ``alpha``.  The classical constant is the sharp line constant; exceeding
    it witnesses that the graph's connectivity, not the method, changes the
    inequality.  ``bound_states`` are every negative eigenvalue of ``model``
    at its own coupling, as ``model.bound_states`` returns them, so the
    moment is never truncated and one read serves every ``gamma``.
    """
    if gamma not in (1.5, 2.0):
        raise ValueError("gamma restricted to 3/2 and 2")
    if model.min_potential >= 0:
        raise ValueError("potential has no negative part")
    moment = float(np.sum(np.abs(bound_states) ** gamma))
    integral = model.negative_integral(gamma + 0.5)
    classical = classical_lt_constant(gamma)
    quotient = math.sqrt(model.alpha) * moment / integral if integral > 0 else 0.0
    return LTQuotient(
        moment=moment,
        integral=integral,
        quotient=quotient,
        classical_constant=classical,
        exceeds_classical=quotient > classical * (1.0 + tol_rel),
        note="" if len(bound_states) else "no negative eigenvalues; quotient is 0",
    )


# ---------------------------------------------------------------------------
# coupling-constant monotonicity


def _coupling_sweep(model, alpha_grid, zs: np.ndarray, q: float, floor: float):
    """The couplings of an ascending grid, the bound states at each (one
    ``model.bound_states`` call for the grid: one family solve on
    ``analytic.ExactModel``, one bracket pass on ``fem.AssembledSystem``),
    the map ``sqrt(alpha) sum (z - (3/16) q^2 alpha - E)_+^2`` (a row per
    ``z``, a column per coupling; Stubbe's is ``q = 0``, ``z = 0``) and its
    largest rise between neighbouring couplings, relative to ``max(value, floor)``."""
    alphas = np.asarray(list(alpha_grid), dtype=float)
    if len(alphas) < 2 or np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha grid must be ascending with at least 2 points")
    bound = model.bound_states(alphas)
    map_values = np.zeros((len(zs), len(alphas)))
    for ia, (a, energies) in enumerate(zip(alphas, bound)):
        shift = (3.0 / 16.0) * q * q * a
        pos = np.maximum(zs[:, None] - shift - energies[None, :], 0.0)
        map_values[:, ia] = math.sqrt(a) * (pos**2).sum(axis=1)
    rises = np.diff(map_values, axis=1) / np.maximum(map_values[:, :-1], floor)
    return alphas, bound, map_values, float(rises.max())


@dataclass
class StubbeReport:
    alphas: np.ndarray
    moments: np.ndarray  # sum (-E)_+^2 per alpha
    values: np.ndarray  # sqrt(alpha) * moment
    classical_bound: float
    worst_increase_rel: float
    nonincreasing: bool
    below_bound: bool

    @property
    def verdict(self) -> str:
        return "holds" if (self.nonincreasing and self.below_bound) else "violated"


def stubbe_monotonicity(model, alpha_grid) -> StubbeReport:
    """Track ``sqrt(alpha) * sum (-E_j(alpha))^2`` over an ascending grid.

    Each coupling reads the bound states of the spectral ``model`` (the
    module docstring) and nothing else.  Also compares every value against
    the semiclassical ceiling ``L^cl * int V_-^(5/2)``.
    """
    alphas, states, (values,), worst = _coupling_sweep(model, alpha_grid, np.zeros(1), 0.0, 1e-300)
    moments = np.array([np.sum(energies**2) for energies in states])
    bound = classical_lt_constant(2.0) * model.negative_integral(2.5)
    return StubbeReport(
        alphas=alphas,
        moments=moments,
        values=values,
        classical_bound=bound,
        worst_increase_rel=worst,
        nonincreasing=worst <= STUBBE_TOL,
        below_bound=bool(np.all(values <= bound * (1.0 + STUBBE_TOL))),
    )


# ---------------------------------------------------------------------------
# one-loop graph with two antipodal leads


@dataclass(frozen=True)
class LoopLeads:
    cycle_edges: tuple[int, int]
    lead_edges: tuple[int, ...]
    q: float  # 2*pi / semicircle length

    def rows(self, per_edge: np.ndarray) -> np.ndarray:
        """The sums of a table with one row per edge over the leads and over
        the loop, as two rows."""
        return np.stack([per_edge[list(self.lead_edges)].sum(axis=0), per_edge[list(self.cycle_edges)].sum(axis=0)])


def loop_structure(graph: MetricGraph) -> LoopLeads:
    """Identify the two equal semicircles and the two leads, or fail."""
    topo = classify_topology(graph)
    if topo.topology_class is not TopologyClass.ONE_LOOP_WITH_LEADS:
        raise ValueError(f"not a one-loop-with-leads graph ({topo.topology_class.value})")
    by_pair: dict[tuple[int, int], list[int]] = {}
    for i, e in enumerate(graph.edges):
        by_pair.setdefault((min(e.u, e.v), max(e.u, e.v)), []).append(i)
    doubles = [ids for ids in by_pair.values() if len(ids) == 2]
    if len(doubles) != 1:
        raise ValueError("loop must consist of exactly two parallel edges")
    cyc = tuple(doubles[0])
    e1, e2 = graph.edges[cyc[0]], graph.edges[cyc[1]]
    if abs(e1.length - e2.length) > 1e-9 * max(e1.length, e2.length):
        raise ValueError("leads must sit at antipodal points (equal semicircles)")
    junctions = (min(e1.u, e1.v), max(e1.u, e1.v))
    leads = tuple(i for i in range(len(graph.edges)) if i not in cyc)
    leaves = set(graph.leaf_vertices())
    for i in leads:
        e = graph.edges[i]
        if not ((e.u in junctions and e.v in leaves) or (e.v in junctions and e.u in leaves)):
            raise ValueError("every non-loop edge must be a single lead edge")
    if len(leads) != 2:
        raise ValueError("expected exactly two leads")
    return LoopLeads(cyc, leads, 2.0 * math.pi / e1.length)


@dataclass
class OneLoopShiftReport:
    alphas: np.ndarray
    zs: np.ndarray
    q: float
    map_values: np.ndarray  # shape (len(zs), len(alphas))
    worst_increase_rel: float
    monotone: bool
    lt_holds: bool
    skipped: int

    @property
    def verdict(self) -> str:
        return "holds" if (self.monotone and self.lt_holds) else "violated"


def one_loop_shifted_check(
    model,
    loop: LoopLeads,
    alpha_grid,
    z_grid,
    tol_rel: float = TOL_FEM,
) -> OneLoopShiftReport:
    """Shifted monotone map and shifted moment bound on the one-loop graph
    of the spectral ``model`` (the module docstring), whose loop pair is
    ``loop`` (``loop_structure``).

    With ``q = 2 pi / semicircle length`` and shift ``(3/16) q^2 alpha``,
    checks that ``alpha -> sqrt(alpha) sum (z - shift - E_j(alpha))_+^2`` is
    nonincreasing and that ``R_2(z, alpha)`` stays below the shifted
    semiclassical integral.  Windows with ``z + shift > 0`` are skipped:
    there the integral grows with the lead length, so only the
    negative-energy regime is meaningful on a truncated graph.
    """
    zs = np.asarray(list(z_grid), dtype=float)
    if zs.max() > 0:
        raise CoverageError("shifted one-loop windows must satisfy z <= 0")
    q = loop.q
    # only bound states enter: z - shift - E > 0 and z - E > 0 need E < z <= 0
    alphas, bound, map_values, worst = _coupling_sweep(model, alpha_grid, zs, q, 1e-12)

    lcl = classical_lt_constant(2.0)
    lt_ok = True
    skipped = 0
    for a, energies in zip(alphas, bound):
        shift = (3.0 / 16.0) * q * q * a
        for z in zs:
            c = z + shift
            if c > 0:
                skipped += 1
                continue
            lhs = float(np.sum(np.maximum(z - energies, 0.0) ** 2))
            rhs = lcl / math.sqrt(a) * model.negative_integral(2.5, shift=c)
            if lhs > rhs + tol_rel * max(lhs, rhs, 1e-12):
                lt_ok = False
    return OneLoopShiftReport(
        alphas=alphas,
        zs=zs,
        q=q,
        map_values=map_values,
        worst_increase_rel=worst,
        monotone=worst <= tol_rel,
        lt_holds=lt_ok,
        skipped=skipped,
    )


@dataclass
class SumRuleSteps:
    z: float
    in1_value: float
    perid_lhs: float
    perid_rhs: float
    in1_holds: bool
    perid_holds: bool

    @property
    def verdict(self) -> str:
        return "holds" if (self.in1_holds and self.perid_holds) else "violated"


def sum_rule_steps_check(
    energies: np.ndarray, alpha: float, q: float, mass: np.ndarray, dirichlet: np.ndarray, z: float,
    tol_rel: float = TOL_FEM,
) -> SumRuleSteps:
    """Intermediate inequalities behind the one-loop bound, at one ``z``, on
    a graph with a loop pair (``loop_structure``) of ``q = 2 pi / semicircle
    length``, from each state's ``int |phi|^2`` (``mass``) and ``int
    |phi'|^2`` (``dirichlet``) over the leads and over the loop, two rows
    (``LoopLeads.rows``).  The lead pair enters with slope weight 4, the
    semicircle pair with weight 1, then the exponential commutator step
    bounds the semicircle quadratic term.  Both are evaluated over the
    eigenvalues at or below ``z``.
    """
    _require_coverage(energies, z)
    w1 = np.maximum(z - energies, 0.0)
    w2 = w1**2
    (p12, p34), (d12, d34) = mass, dirichlet

    in1 = 4.0 * (w2 @ p12 - 4.0 * alpha * (w1 @ d12)) + (w2 @ p34) - 4.0 * alpha * (w1 @ d34)
    in1_scale = float(4.0 * (w2 @ p12) + (w2 @ p34))
    perid_lhs = float(w2 @ p34)
    perid_rhs = float(alpha * (w1 @ (q * q * p34 + 4.0 * d34)))
    return SumRuleSteps(
        z=z,
        in1_value=float(in1),
        perid_lhs=perid_lhs,
        perid_rhs=perid_rhs,
        in1_holds=float(in1) <= tol_rel * max(in1_scale, 1e-12),
        perid_holds=perid_lhs <= perid_rhs + tol_rel * max(perid_lhs, perid_rhs, 1e-12),
    )


# ---------------------------------------------------------------------------
# Riesz means of the potential-free spectrum on trees


@dataclass
class RieszReport:
    z_grid: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    ind: np.ndarray
    sample_js: tuple[int, ...]
    worst: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "holds" if not self.failures else "violated"


def riesz_means(energies: np.ndarray, z_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    z = np.asarray(z_grid, dtype=float)[:, None]
    e = np.asarray(energies, dtype=float)[None, :]
    pos = np.maximum(z - e, 0.0)
    return pos.sum(axis=1), (pos**2).sum(axis=1), (e <= z).sum(axis=1)


def riesz_suite(
    energies: np.ndarray,
    total_length: float,
    sample_js: tuple[int, ...] = (1, 2, 5, 10, 20),
    tol_rel: float = TOL_ANALYTIC,
) -> RieszReport:
    """Riesz-mean inequalities for the potential-free spectrum of a tree.

    Per grid point: the first-versus-second mean bound, monotonicity of
    ``R_2 / z^(5/2)``, the two-sided total-length bound for ``z >= 5 E_1``,
    the higher-index lower bounds for sampled ``j``, and the discriminant
    root bound ``z_0 <= 5 * mean``.  The derivative identity
    ``R_2' = 2 R_1`` is checked on windows free of eigenvalue crossings,
    where both sides are exact polynomials.  ``energies`` are trusted, and
    the grid is ``make_z_grid(energies)``, topping out at the last of them.
    """
    energies = np.sort(np.asarray(energies, dtype=float))
    if energies[0] <= 0:
        raise ValueError("potential-free spectra must be positive")
    z = make_z_grid(energies)
    r1, r2, ind = riesz_means(energies, z)
    sample_js = tuple(j for j in sample_js if j <= len(energies))
    worst: dict[str, float] = {}
    failures: list[str] = []

    def record(name: str, margin: float, scale: float) -> None:
        worst[name] = min(worst.get(name, math.inf), margin)
        if margin < -tol_rel * max(scale, 1e-300):
            if name not in failures:
                failures.append(name)

    # (a) R1 >= (5/4z) R2
    for zi, a, b in zip(z, r1, r2):
        record("first_vs_second_mean", a - 5.0 * b / (4.0 * zi), max(a, 1e-300))

    # (b) R2 / z^(5/2) nondecreasing along the grid
    ratio = r2 / z**2.5
    for i in range(len(z) - 1):
        record("normalized_r2_nondecreasing", ratio[i + 1] - ratio[i], max(ratio[i], 1e-300))

    # (c) two-sided bound for z >= 5 E1
    e1 = energies[0]
    lcl = classical_lt_constant(2.0)
    for zi, b in zip(z, r2):
        if zi < 5.0 * e1:
            continue
        lower = 16.0 / math.sqrt(e1) * (zi / 5.0) ** 2.5
        upper = lcl * total_length * zi**2.5
        record("lower_bound_total", b - lower, max(b, lower))
        record("upper_bound_total", upper - b, max(b, upper))

    # (d) sampled-index lower bounds for z >= 5 mean_j
    for j in sample_js:
        mean_j = float(energies[:j].mean())
        for zi, a, b in zip(z, r1, r2):
            if zi < 5.0 * mean_j:
                continue
            lb2 = 16.0 * j * zi**2.5 / (25.0 * math.sqrt(5.0 * mean_j))
            lb1 = 4.0 * j * zi**1.5 / (5.0 * math.sqrt(5.0 * mean_j))
            record(f"indexed_r2_lower_j{j}", b - lb2, max(b, lb2))
            record(f"indexed_r1_lower_j{j}", a - lb1, max(a, lb1))

    # (e) root of the quadratic form stays below 5 * mean
    for j in sample_js:
        mean_j = float(energies[:j].mean())
        mean_sq = float((energies[:j] ** 2).mean())
        disc = 9.0 * mean_j**2 - 5.0 * mean_sq
        record(f"discriminant_nonneg_j{j}", disc, mean_sq)
        z0 = 3.0 * mean_j + math.sqrt(max(disc, 0.0))
        record(f"root_bound_j{j}", 5.0 * mean_j - z0, 5.0 * mean_j)

    # derivative identity on crossing-free interior windows, where R2 is a
    # fixed quadratic and the secant equals the derivative at the midpoint
    for i in range(1, len(z) - 1):
        lo, hi = z[i - 1], z[i + 1]
        if np.any((energies > lo) & (energies <= hi)):
            continue
        mid = 0.5 * (lo + hi)
        r1_mid = float(np.maximum(mid - energies, 0.0).sum())
        secant = (r2[i + 1] - r2[i - 1]) / (hi - lo)
        record("r2_derivative_identity", 1e-9 * max(1.0, 2.0 * r1_mid) - abs(secant - 2.0 * r1_mid), 1.0)

    return RieszReport(z, r1, r2, ind, sample_js, worst, failures)


# ---------------------------------------------------------------------------
# mean-ratio and counting asymptotics


@dataclass
class PairBound:
    j: int
    k: int
    ratio: float
    bound_tight: float | None  # (125/108)(k/j)^2, applies for k >= 6j/5
    bound_loose: float  # (5/3)(k/j)^2, applies for k >= j
    holds: bool


def mean_ratio_bounds(energies: np.ndarray, pairs, tol_rel: float = TOL_ANALYTIC) -> list[PairBound]:
    """Universal bounds on ratios of eigenvalue means for index pairs."""
    energies = np.asarray(energies, dtype=float)
    out = []
    for j, k in pairs:
        if k > len(energies):
            raise CoverageError(f"pair ({j}, {k}) needs {k} eigenvalues, have {len(energies)}")
        if not 1 <= j <= k:
            raise ValueError("pairs must satisfy 1 <= j <= k")
        mean_j = energies[:j].mean()
        mean_k = energies[:k].mean()
        ratio = float(mean_k / mean_j)
        loose = (5.0 / 3.0) * (k / j) ** 2
        tight = (125.0 / 108.0) * (k / j) ** 2 if 5 * k >= 6 * j else None
        holds = ratio <= loose * (1 + tol_rel) and (tight is None or ratio <= tight * (1 + tol_rel))
        out.append(PairBound(j, k, ratio, tight, loose, holds))
    return out


@dataclass
class WeylReport:
    ns: tuple[int, ...]
    values: tuple[float, ...]  # sqrt(E_n) |Gamma| / (n pi)
    final_value: float
    tol: float
    verdict: str


def weyl_check(energies: np.ndarray, total_length: float) -> WeylReport:
    """Counting asymptotics: ``sqrt(E_n) / n -> pi / |Gamma|``.

    Sampled every ``WEYL_STEP`` indices plus the last trusted index; the
    verdict only judges the largest one.
    """
    energies = np.asarray(energies, dtype=float)
    n_max = len(energies)
    if n_max < WEYL_STEP:
        raise CoverageError(f"need at least {WEYL_STEP} eigenvalues")
    ns = sorted(set(list(range(WEYL_STEP, n_max + 1, WEYL_STEP)) + [n_max]))
    values = tuple(float(math.sqrt(energies[n - 1]) * total_length / (n * math.pi)) for n in ns)
    final = values[-1]
    verdict = "holds" if abs(final - 1.0) <= WEYL_TOL else "violated"
    return WeylReport(tuple(ns), values, final, WEYL_TOL, verdict)
