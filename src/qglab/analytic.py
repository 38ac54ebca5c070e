"""Closed-form and secular-equation spectra for the named model families,
and the exact spectrum of any graph with ``V = 0``.

These serve as ground truth for the finite element solver and for the
inequality checks.  All root finding is plain bisection on pole-free
reformulations with brackets enumerated in closed form; no derivatives.

``zero_potential_eigenvalues`` bisects the eigenvalue count of a ``V = 0``
graph, which the vertex Dirichlet-to-Neumann matrix gives exactly (the
Dirichlet-Neumann bracketing of L. Friedlander, Arch. Rational Mech. Anal.
1991, on a metric graph as in G. Berkolaiko and P. Kuchment, *Introduction to
Quantum Graphs*, AMS 2013).  It needs no mesh, counts multiplicities, and
certifies every eigenvalue by a bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import SolverError, require_budget
from .graphs import DIRICHLET, MetricGraph, require_valid


class BracketError(RuntimeError):
    """A root bracket did not contain a sign change."""


def classical_lt_constant(gamma: float) -> float:
    """Sharp semiclassical constant Gamma(gamma+1) / (sqrt(4 pi) Gamma(gamma+3/2)).

    gamma = 3/2 gives 3/16 and gamma = 2 gives 8/(15 pi).
    """
    return math.gamma(gamma + 1.0) / (math.sqrt(4.0 * math.pi) * math.gamma(gamma + 1.5))


def interval_eigenvalues(length: float, bc: str = "DD", n: int = 10) -> np.ndarray:
    """Laplacian eigenvalues of an interval.

    ``"DD"``: Dirichlet at both ends, ``(m pi / L)^2``.
    ``"DN"``: Dirichlet at one end, Neumann at the other,
    ``((m - 1/2) pi / L)^2``.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    m = np.arange(1, n + 1, dtype=float)
    if bc == "DD":
        k = m * math.pi / length
    elif bc == "DN":
        k = (m - 0.5) * math.pi / length
    else:
        raise ValueError(f"unknown bc {bc!r} (use 'DD' or 'DN')")
    return k**2


#: Halvings per bisection: the bracket shrinks by a factor 2**120.
BISECT_STEPS = 120


def bisect(f, lo: float, hi: float) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# balloon: loop of length 2*pi plus a string of length L


@dataclass(frozen=True)
class BalloonMode:
    k: float
    energy: float
    family: str  # "odd" (integer k, zero on string) | "even" | "both"


def balloon_secular(k: float, string_length: float) -> float:
    """Pole-free form of ``cot(k L) = 2 tan(k pi)``.

    Multiplying through by ``sin(kL) cos(k pi)`` and using product-to-sum
    identities gives ``(3/2) cos(k (L + pi)) - (1/2) cos(k (L - pi))``, which
    shares the roots and has no poles, so residuals stay tiny even when a
    root sits close to a pole of the cot/tan form.
    """
    L = string_length
    return 1.5 * math.cos(k * (L + math.pi)) - 0.5 * math.cos(k * (L - math.pi))


def _balloon_even_k(string_length: float, k_max: float) -> list[float]:
    L = string_length
    # each family of poles up to one or two past k_max: the first one past it
    # closes the last bracket that a root at or below k_max can lie in
    poles = {m * math.pi / L for m in range(int(k_max * L / math.pi) + 3)}
    poles |= {m + 0.5 for m in range(int(k_max) + 2)}
    grid = sorted(poles)
    # drop near-coincident poles: the degenerate gap holds no root
    cleaned = [grid[0]]
    for p in grid[1:]:
        if p - cleaned[-1] > 1e-10:
            cleaned.append(p)
    roots = []
    f = lambda k: balloon_secular(k, L)
    for lo, hi in zip(cleaned[:-1], cleaned[1:]):
        try:
            r = bisect(f, lo, hi)
        except BracketError:
            # sign-preserving interval; the multiplied form has no root here
            continue
        if 0 < r <= k_max:
            roots.append(r)
    return roots


def balloon_eigenvalues(string_length: float, n: int = 10) -> list[BalloonMode]:
    """Lowest ``n`` balloon eigenvalues, tagged by loop parity.

    Odd modes vanish on the string and have integer ``k``; even modes solve
    the transcendental junction condition.  Coincidences (never at
    ``string_length = pi``) are merged into a single ``"both"`` entry.
    """
    if string_length <= 0:
        raise ValueError("string length must be positive")
    # k density is (L + 2 pi)/pi per unit: about n + 2 modes lie below k_max
    k_max = (n + 2) * math.pi / (string_length + 2.0 * math.pi)
    while True:
        even = [BalloonMode(k, k * k, "even") for k in _balloon_even_k(string_length, k_max)]
        odd = [BalloonMode(float(j), float(j * j), "odd") for j in range(1, int(k_max) + 1)]
        modes = sorted(even + odd, key=lambda m: m.energy)
        merged: list[BalloonMode] = []
        for m in modes:
            if merged and abs(m.k - merged[-1].k) < 1e-12:
                prev = merged.pop()
                merged.append(BalloonMode(prev.k, prev.energy, "both"))
            else:
                merged.append(m)
        if len(merged) >= n:
            return merged[:n]
        k_max *= 1.5


def balloon_ratio(string_length: float) -> float:
    modes = balloon_eigenvalues(string_length, 2)
    return modes[1].energy / modes[0].energy


def fancy_balloon_eigenvalues(n_parallel: int, n: int = 10) -> np.ndarray:
    """Sorted eigenvalues (with multiplicity) of the many-rung balloon.

    Permutation-even modes ``(j +/- arctan(1/sqrt(N))/pi)^2`` are simple;
    odd modes ``j^2`` carry multiplicity ``N - 1``.
    """
    if n_parallel < 2:
        raise ValueError("need at least 2 parallel edges")
    theta = math.atan(1.0 / math.sqrt(n_parallel)) / math.pi
    out: list[float] = []
    j = 0
    while len(out) < n + 2 * n_parallel:
        if j > 0:
            out.extend([float(j * j)] * (n_parallel - 1))
            if j - theta > 0:
                out.append((j - theta) ** 2)
        out.append((j + theta) ** 2)
        j += 1
    return np.sort(np.asarray(out))[:n]


# ---------------------------------------------------------------------------
# sech-squared well on the loop (single bound state)

#: Junction angle of the sech-squared well that binds exactly one state on a
#: loop of length 2*pi with a single attached string: tanh(a*pi) = 1/2.
PT_BALLOON_A = math.atanh(0.5) / math.pi


def pt_negative_part_integral(a: float, center: float, length: float, power: float) -> float:
    """Closed form of ``int_0^length |V|^power`` for the sech-squared well
    ``V = -2 a^2 / cosh^2(a (x - center))``, from the sech-power reduction
    formulas (powers 2 and 5/2 only)."""
    lo, hi = a * (0.0 - center), a * (length - center)
    amp = (2.0 * a * a) ** power / a

    def f4(y: float) -> float:
        t = math.tanh(y)
        return t - t**3 / 3.0

    def f5(y: float) -> float:
        t = math.tanh(y)
        s = 1.0 / math.cosh(y)
        return 0.25 * s**3 * t + 0.375 * s * t + 0.375 * math.atan(math.sinh(y))

    if power == 2.0:
        return amp * (f4(hi) - f4(lo))
    if power == 2.5:
        return amp * (f5(hi) - f5(lo))
    raise ValueError("closed form only for powers 2 and 5/2")


@dataclass(frozen=True)
class PoschlTellerBalloonOracle:
    a: float
    energy: float
    q32: float
    q2: float


def poschl_teller_balloon_oracle() -> PoschlTellerBalloonOracle:
    """Bound state of the sech-squared well on the balloon with an infinite string.

    The junction condition pins ``tanh(a pi) = 1/2``; the single bound state
    sits at ``-a^2``.  The moment quotients
    ``Q(gamma) = |E|^gamma / int |V|^(gamma + 1/2)`` take the integral of the
    well over the loop (the string carries no potential) in closed form.
    """
    a = PT_BALLOON_A

    def quotient(gamma: float) -> float:
        return a ** (2.0 * gamma) / pt_negative_part_integral(a, math.pi, 2.0 * math.pi, gamma + 0.5)

    return PoschlTellerBalloonOracle(a=a, energy=-a * a, q32=quotient(1.5), q2=quotient(2.0))


# ---------------------------------------------------------------------------
# V = 0 graphs: the exact spectrum from the vertex Dirichlet-to-Neumann count

#: A bracket stops at this width relative to its top, in ``kappa = sqrt(E /
#: alpha)``; its energy bracket is then at most 1e-13 relative.
COUNT_RTOL = 5e-14

#: Edge Dirichlet eigenvalues ``m pi / l`` of different edges that lie closer
#: than this (relative) are one pole: commensurate lengths give coincident
#: poles that differ by rounding alone.
POLE_MERGE_RTOL = 4e-15

#: An edge term whose half-angle ``|tan|`` or ``|cot|`` exceeds this borders
#: the matrix (see ``_dtn_counter``); the others enter it directly and cost at
#: most this many units of roundoff in its eigenvalues.
BORDER_AT = 100.0


def _dtn_counter(graph: MetricGraph):
    """``N(kappa)``, the number of eigenvalues below ``alpha kappa^2`` of the
    ``V = 0`` graph, for an array of ``kappa > 0`` off the poles.

    ``N = sum_e #{m >= 1 : m pi / l_e < kappa} + n_+(Lambda(kappa))``, where
    the vertex Dirichlet-to-Neumann matrix over the non-Dirichlet vertices
    is, in half-angle form with ``phi_e = kappa l_e / 2``,
    ``Lambda = sum_e kappa tan(phi_e) p_e p_e^T - kappa cot(phi_e) q_e q_e^T``
    with ``p_e = (1_u + 1_v) / sqrt 2`` and ``q_e = (1_u - 1_v) / sqrt 2``.
    That is ``Lambda_vv = -kappa sum cot(kappa l_e)``, a self-loop adding
    ``2 kappa tan(kappa l / 2)`` instead, and ``Lambda_uv = kappa sum csc(kappa
    l_e)``.  Near a pole one term of an edge, ``c w w^T``, is huge and would
    drown the small eigenvalues of ``Lambda`` in roundoff.  It leaves the
    matrix and borders it instead: by the inertia additivity of the Schur
    complement, ``[[A, kappa w], [kappa w^T, -kappa^2 / c]]`` has one more
    positive eigenvalue than ``A + c w w^T`` exactly when ``c < 0``, and no
    term exceeds ``BORDER_AT kappa``.  A point with any bordered term
    borders every edge, the others by a lone ``-kappa``, which is never
    counted.
    """
    free = [v for v in range(graph.num_vertices) if graph.boundary.get(v) != DIRICHLET]
    slot = {v: i for i, v in enumerate(free)}
    n, m = len(free), len(graph.edges)
    plus, minus = np.zeros((m, n)), np.zeros((m, n))
    for i, e in enumerate(graph.edges):
        for v, sign in ((e.u, 1.0), (e.v, -1.0)):
            if v in slot:
                plus[i, slot[v]] += math.sqrt(0.5)
                minus[i, slot[v]] += sign * math.sqrt(0.5)
    outer = np.concatenate([np.einsum("ei,ej->eij", plus, plus), np.einsum("ei,ej->eij", minus, minus)])
    outer = outer.reshape(2 * m, n * n)
    lengths = np.array([e.length for e in graph.edges])
    edges = np.arange(m)

    def count(kappa: np.ndarray) -> np.ndarray:
        kap = kappa[:, None]
        theta = kap * lengths
        t = np.tan(0.5 * theta)
        tan_term, cot_term = kap * t, -kap / t
        big = np.abs(t) >= 1.0  # the tan term is the larger one
        border = np.abs(np.where(big, t, 1.0 / t)) > BORDER_AT
        coef = np.concatenate([np.where(border & big, 0.0, tan_term), np.where(border & ~big, 0.0, cot_term)], axis=1)
        lam = (coef @ outer).reshape(len(kappa), n, n)
        total = (theta // math.pi).sum(axis=1).astype(int)
        rows = border.any(axis=1)
        if n and not rows.all():
            total[~rows] += (np.linalg.eigvalsh(lam[~rows]) > 0).sum(axis=1)
        if rows.any():
            kap, border, big = kap[rows], border[rows], big[rows]
            vectors = np.where(big[:, :, None], plus, minus) * (kap * border)[:, :, None]
            diag = np.where(border, np.where(big, cot_term[rows], tan_term[rows]), -kap)
            full = np.zeros((len(kap), n + m, n + m))
            full[:, :n, :n] = lam[rows]
            full[:, n:, :n] = vectors
            full[:, :n, n:] = vectors.transpose(0, 2, 1)
            full[:, n + edges, n + edges] = diag
            total[rows] += (np.linalg.eigvalsh(full) > 0).sum(axis=1) - (diag > 0).sum(axis=1)
        return total

    return count, lengths, n


def zero_potential_eigenvalues(graph: MetricGraph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest ``k`` eigenvalues of a ``V = 0`` graph, exact to roundoff,
    and their brackets, shape ``(k, 2)``.

    Every bracket ``[lo, hi]`` of the ``j``-th eigenvalue satisfies
    ``N(lo) < j <= N(hi)`` for the count of ``_dtn_counter``, and is at most
    1e-13 wide relative to ``hi`` (``COUNT_RTOL``) unless poles of different
    edges lie within 1e-14 of each other.  Multiplicities come out of the
    count.  A graph without a Dirichlet vertex has ``E_1 = 0``, the constant,
    returned with the bracket ``[0, 0]``.

    All indices are bisected together in ``kappa``, one batched count per
    step.  No count is taken on an edge Dirichlet eigenvalue ``m pi / l_e``,
    where ``Lambda`` has a pole: the first counts split the gaps between
    consecutive poles, so each bracket holds at most one pole.  A bracket
    that holds one is then counted just below and just above it, which
    either certifies the eigenvalue at the pole or leaves a bracket free of
    poles, and free brackets are halved.  Counts that fall as ``kappa``
    rises raise ``SolverError``; a batch over the memory budget raises
    ``MemoryBudgetError`` against ``k`` (``fem.require_budget``).
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    require_valid(graph)
    if not graph.potential_is_zero():
        raise ValueError("the exact count needs V = 0 on every edge")
    count, lengths, n = _dtn_counter(graph)
    # N(kappa) >= sum floor(kappa l_e / pi) >= L kappa / pi - |E| reaches k at
    # `cap`; every edge's poles up to the lowest top are listed, and two of
    # that edge's lie above `cap`, so the top count does too
    cap = math.pi * (k + len(lengths)) / lengths.sum()
    last = np.ceil(cap * lengths / math.pi) + 2.0
    poles = np.unique(np.concatenate([np.arange(1.0, m + 1.0) * math.pi / l for m, l in zip(last, lengths)]))
    poles = poles[poles <= (last * math.pi / lengths).min()]
    split = np.nonzero(np.diff(poles) > POLE_MERGE_RTOL * poles[1:])[0] + 1
    lows, highs = poles[np.r_[0, split]], poles[np.r_[split - 1, len(poles) - 1]]
    # cut each gap between poles into parts about half an eigenvalue spacing
    # (pi / 2L) wide, and count at their midpoints
    starts = np.r_[0.0, highs[:-1]]
    parts = np.maximum(1, np.rint((lows - starts) * 2.0 * lengths.sum() / math.pi)).astype(int)
    gap = np.repeat(np.arange(len(lows)), parts)
    part = np.arange(len(gap)) - np.repeat(np.cumsum(parts) - parts, parts)
    seeds = starts[gap] + (lows - starts)[gap] * (part + 0.5) / parts[gap]
    batch, size = max(len(seeds), 2 * k), n + len(lengths)
    # per count: the direct and the bordered matrices, and a few dozen per-edge arrays
    need = 8 * (batch * (2 * size * size + 16 * size) + 2 * len(lengths) * n * n)
    require_budget("k", f"an exact count of {batch} matrices of size {size}", need)

    seen_k, seen_n = [seeds], [count(seeds)]
    zero_modes = 0 if DIRICHLET in graph.boundary.values() else 1
    want = np.arange(zero_modes + 1, k + 1)
    first = np.searchsorted(seen_n[0], want)
    if len(want) and first[-1] == len(seeds):
        raise SolverError(f"the count reaches only {seen_n[0][-1]} of {k} eigenvalues below kappa {seeds[-1]:.12g}")
    lo, n_lo = np.where(first > 0, seeds[first - 1], 0.0), np.where(first > 0, seen_n[0][first - 1], 0)
    hi, n_hi = seeds[first], seen_n[0][first]

    def counted(points: np.ndarray) -> np.ndarray:
        unique, index = np.unique(points, return_inverse=True)
        seen_k.append(unique)
        seen_n.append(count(unique))
        return seen_n[-1][index]

    # a bracket that holds a pole [a, b]: count just below and just above it;
    # the bracket becomes [lo, below], [below, above] (done) or [above, hi]
    pole = np.minimum(np.searchsorted(lows, lo, side="right"), len(lows) - 1)
    a, b = lows[pole], highs[pole]
    held = np.nonzero((lo < a) & (b < hi))[0]
    step = 0.4 * COUNT_RTOL * a[held]
    below = a[held] - np.minimum(step, 0.5 * (a[held] - lo[held]))
    above = b[held] + np.minimum(step, 0.5 * (hi[held] - b[held]))
    n_below, n_above = np.split(counted(np.r_[below, above]), 2)
    under, at = n_below >= want[held], n_above >= want[held]

    def pick(if_under, if_at, if_above):
        return np.where(under, if_under, np.where(at, if_at, if_above))

    lo[held], hi[held] = pick(lo[held], below, above), pick(below, above, hi[held])
    n_lo[held], n_hi[held] = pick(n_lo[held], n_below, n_above), pick(n_below, n_above, n_hi[held])
    done = np.zeros(len(want), dtype=bool)
    done[held] = at & ~under

    while True:
        go = np.nonzero(~done & (hi - lo > COUNT_RTOL * hi))[0]
        if not len(go):
            break
        mid = 0.5 * (lo[go] + hi[go])
        n_mid = counted(mid)
        up = n_mid >= want[go]
        hi[go[up]], n_hi[go[up]] = mid[up], n_mid[up]
        lo[go[~up]], n_lo[go[~up]] = mid[~up], n_mid[~up]

    order = np.argsort(np.concatenate(seen_k), kind="stable")
    if np.any(np.diff(np.concatenate(seen_n)[order]) < 0):
        raise SolverError("the eigenvalue count falls as the energy rises: roundoff swamped Lambda")
    if np.any(n_lo >= want) or np.any(n_hi < want):
        raise SolverError("a bracket fails N(lo) < j <= N(hi)")
    energies, brackets = np.zeros(k), np.zeros((k, 2))
    energies[zero_modes:] = graph.alpha * (0.5 * (lo + hi)) ** 2
    brackets[zero_modes:] = graph.alpha * np.stack([lo, hi], axis=1) ** 2
    return energies, brackets
