"""Closed-form and secular-equation spectra for the named model families,
and the exact spectrum of any graph whose potential is constant on each
piece of every edge, or the P1 one where ``V = 0``.

These serve as ground truth for the finite element solver and for the
inequality checks.  The family oracles find their roots by plain bisection
on pole-free reformulations, with brackets enumerated in closed form.

``piecewise_constant_family`` solves the eigenvalue count of such graphs,
those of one shape together, each split at the jumps of its potential
into edges of constant ``V = c_e``, which the vertex Dirichlet-to-Neumann
matrix gives exactly (the Dirichlet-Neumann bracketing of L. Friedlander,
Arch. Rational Mech. Anal. 1991, on a metric graph as in G. Berkolaiko and
P. Kuchment, *Introduction to Quantum Graphs*, AMS 2013).  Each edge enters
through its dispersion: the exact one, or, where ``V = 0``, that of P1 on
equal cells, whose Schur complement onto the edge's ends has the same form.
It needs no eigensolver, counts multiplicities, and certifies every
eigenvalue by a bracket of ``fem._close_brackets``, the driver it shares
with the P1 count: one on a pole of the count from its seeds, which lie just
below and just above every pole; any other by secant steps on the crossing
eigenvalue of that matrix.  ``edge_tables`` reads each state's per-edge
integrals in closed form at those eigenvalues.  ``ExactModel`` serves the
same count to the moment checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fem
from .fem import _close_brackets, _free_vertices, require_budget
from .graphs import DIRICHLET, MetricGraph, require_valid, split_at_jumps, split_with_sources


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
    # drop near-coincident poles (relative below 1): the degenerate gap holds no root
    cleaned = [grid[0]]
    for p in grid[1:]:
        if p - cleaned[-1] > 1e-10 * min(1.0, p):
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


#: Longest balloon string: there ``(pi / 2L)^2``, just above E_1, is 4 times the smallest normal float.
BALLOON_MAX_LENGTH = math.pi / (4 * math.sqrt(np.finfo(float).tiny))


def balloon_eigenvalues(string_length: float, n: int = 10) -> list[BalloonMode]:
    """Lowest ``n`` balloon eigenvalues, tagged by loop parity.

    Odd modes vanish on the string and have integer ``k``; even modes solve
    the transcendental junction condition.  Coincidences (never at
    ``string_length = pi``) are merged into a single ``"both"`` entry.
    """
    if not 0 < string_length <= BALLOON_MAX_LENGTH:
        raise ValueError(f"string length must be positive and at most {BALLOON_MAX_LENGTH:.6g}")
    # k density is (L + 2 pi)/pi per unit: about n + 2 modes lie below k_max
    k_max = (n + 2) * math.pi / (string_length + 2.0 * math.pi)
    while True:
        even = [BalloonMode(k, k * k, "even") for k in _balloon_even_k(string_length, k_max)]
        odd = [BalloonMode(float(j), float(j * j), "odd") for j in range(1, int(k_max) + 1)]
        modes = sorted(even + odd, key=lambda m: m.energy)
        merged: list[BalloonMode] = []
        for m in modes:
            if merged and abs(m.k - merged[-1].k) < 1e-12 * min(1.0, m.k):
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
    odd modes ``j^2`` carry multiplicity ``N - 1`` (at most ``n`` listed).
    """
    if n_parallel < 2:
        raise ValueError("need at least 2 parallel edges")
    theta = math.atan(1.0 / math.sqrt(n_parallel)) / math.pi
    out: list[float] = []
    j = 0
    while len(out) < n:  # each round j lies below the next, as theta < 1/2
        if j > 0:
            out.extend([float(j * j)] * min(n_parallel - 1, n))
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
# edgewise-constant potentials: the spectrum from the vertex
# Dirichlet-to-Neumann count

#: A bracket stops at this width relative to its top, in ``t = sqrt((E -
#: c_min) / alpha)``; its bracket of ``E - c_min`` is then at most 1e-13
#: relative.
COUNT_RTOL = 5e-14

#: Edge Dirichlet eigenvalues of different edges that lie closer than this
#: (relative) are one pole: commensurate lengths give coincident poles that
#: differ by rounding alone.
POLE_MERGE_RTOL = 4e-15

#: An edge term larger than this many ``t`` borders the matrix (see
#: ``_dtn_counter``); the others enter it directly and cost at most this many
#: units of roundoff in its eigenvalues.
BORDER_AT = 20.0

#: Floor of ``sin^2(phi / 2)`` in ``_edge_terms``: at the band edge ``x =
#: 12`` a P1 edge takes the limit ``phi -> 0`` of its terms.
TINY = np.finfo(float).tiny


def _edge_terms(kappa: np.ndarray, lengths: np.ndarray, cells: np.ndarray):
    """The terms of ``_offset_terms`` with no offset, for P1 on ``c`` equal
    cells ``h = l / c`` of each edge: the Schur complement of ``K - kappa^2
    M`` onto the edge's ends.  They have the exact form with the phase ``c
    theta``, where ``sin^2(theta / 2) = 1.5 x / (6 + x)`` at ``x = kappa^2
    h^2``, in place of ``kappa l``, and the impedance ``z = (1 / h + kappa^2 h / 6) sin theta
    = kappa sqrt(1 - x / 12)`` in place of ``kappa``; its poles are the
    Dirichlet modes ``c theta = m pi`` of the ``c - 1`` interior nodes.  On
    the upper half of the band the angles are taken from ``phi = pi -
    theta``, whose ``sin^2(phi / 2) = (6 - x / 2) / (6 + x)`` loses no
    digits at the band edge ``x = 12``; a floor on ``phi`` makes ``x = 12``
    its limit.  Above the band edge all ``c - 1`` modes lie below, ``theta =
    pi + i eta``, and the same Chebyshev ratios are hyperbolic.
    """
    h = lengths / cells
    x = (kappa * h) ** 2
    g = (6.0 + x) / (6.0 * h)
    upper, over = x > 3.0, x > 12.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # theta on the lower half of the band, phi on the upper; above it phi sits at the floor
        angle = 2.0 * np.arcsin(np.sqrt(np.maximum(np.where(upper, 6.0 - 0.5 * x, 1.5 * x), TINY) / (6.0 + x)))
        z, tau = g * np.sin(angle), np.tan(0.5 * cells * angle)
        # tan(c theta / 2) is tau, or on the upper half -tau (c even) or 1 / tau (c odd)
        t = np.where(upper, np.where(cells % 2 == 1, 1.0 / tau, -tau), tau)
        a, b = z * t, -z / t
        poles = np.where(upper, cells - np.ceil(cells * angle / math.pi), np.floor(cells * angle / math.pi))
        if over.any():
            # sinh^2(eta / 2) = (x - 12) / (2 (6 + x))
            eta = 2.0 * np.arcsinh(np.sqrt(np.maximum(x - 12.0, 0.0) / (2.0 * (6.0 + x))))
            z, t = g * np.sinh(eta), np.tanh(0.5 * cells * eta)
            t = np.where(cells % 2 == 1, 1.0 / t, t)
            a, b = np.where(over, z * t, a), np.where(over, z / t, b)
    return a, b, np.minimum(poles, cells - 1)


def _offset_terms(t: np.ndarray, lengths: np.ndarray, offsets: np.ndarray):
    """Each edge's block of ``Lambda`` at each ``t`` (a column), where
    ``kappa_e^2 = t^2 - offsets_e``: the coefficients ``(a, b)`` of ``p_e
    p_e^T`` and ``q_e q_e^T``, and the number of the edge's Dirichlet
    eigenvalues (the poles) below ``t``.

    Above an edge's floor they are ``a = kappa tan(kappa l / 2)`` and ``b =
    -kappa cot(kappa l / 2)``, with the poles at ``kappa = m pi / l``.  Below it
    ``kappa = i eta``, and they are hyperbolic, ``a = -eta tanh(eta l / 2)``
    and ``b = -eta coth(eta l / 2)``, with no pole; at ``kappa = 0`` they take
    their limits ``a = 0`` and ``b = -2 / l``.  An edge with no offset takes
    ``kappa = t``.
    """
    square = t * t - offsets
    above = square > 0.0
    kappa = np.where(offsets == 0.0, t, np.sqrt(np.abs(square)))  # eta below the floor
    theta = kappa * lengths
    ratio = np.where(above, np.tan(0.5 * theta), np.tanh(0.5 * theta))
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(kappa > 0.0, -kappa / ratio, -2.0 / lengths)
    return np.where(above, kappa, -kappa) * ratio, b, np.where(above, theta // math.pi, 0.0)


def _edge_values(graph: MetricGraph) -> np.ndarray:
    """Each edge's constant potential ``c_e``, on a graph of constant edges
    (``split_at_jumps``)."""
    pieces = [e.potential.pieces(e.length) for e in graph.edges]
    if any(len(p) != 1 for p in pieces):
        raise ValueError("the exact count needs V constant on every edge: split the graph at its jumps")
    return np.array([p[0][2] for p in pieces])


def _pole(m, lengths: np.ndarray, cells: np.ndarray | None) -> np.ndarray:
    """Each edge's ``m``-th pole in ``kappa``; ``inf`` past a P1 edge's last, the ``(c - 1)``-th."""
    if cells is None:
        return m * math.pi / lengths
    s2 = np.sin(0.5 * math.pi * np.minimum(m, cells) / cells) ** 2
    return np.where(m < cells, np.sqrt(6.0 * s2 / (1.5 - s2)) * cells / lengths, np.inf)


def _shape(graph: MetricGraph) -> tuple:
    """What the members of a family share before their potentials are read
    (``piecewise_constant_family``), on a graph of constant edges: its vertex
    count, edge ends in order, and boundary."""
    return graph.num_vertices, tuple((e.u, e.v) for e in graph.edges), tuple(sorted(graph.boundary.items()))


def _tables(family: list[MetricGraph]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each member's edge lengths, least ``V`` ``c_min`` and edge offsets
    ``(c_e - c_min) / alpha``, one row (or entry) per member."""
    lengths = np.array([[e.length for e in g.edges] for g in family])
    values = np.array([_edge_values(g) for g in family])
    floors = values.min(axis=1)
    return lengths, floors, (values - floors[:, None]) / np.array([g.alpha for g in family])[:, None]


def _dtn_counter(family: list[MetricGraph], cells: np.ndarray | None = None, tables=None):
    """``count(t, member) -> (N, shift, values)`` for an array of ``t > 0``
    off the poles and the family member of each point (an array, or one
    index for all).

    ``family`` holds graphs of constant edges and one shape (``_shape``):
    the incidence is built once, from the first, and each point reads its
    member's row of the edge lengths, offsets and ``cells`` (one row per
    member; ``None`` for the exact count), from ``tables``, the family's
    ``(lengths, offsets)``, or ``_tables``.  ``N`` is the number of
    eigenvalues below ``c_min + alpha t^2`` of the member, exact or, where
    ``V = 0``, P1 (``_edge_terms``).  Edge ``e`` takes ``kappa_e^2 = t^2 -
    (c_e - c_min) / alpha`` (``_offset_terms``); where every edge has the
    same ``V``, as where ``V = 0``, that is ``kappa_e = t = kappa``.
    ``values`` are the eigenvalues, descending, of the matrix counted at each
    point (NaN-padded), and ``N`` is ``shift`` plus the number of them that
    are positive.  ``N = P + n_+(Lambda)``, with ``P`` the edge Dirichlet
    eigenvalues below, where the vertex Dirichlet-to-Neumann matrix over the
    non-Dirichlet vertices is ``Lambda = sum_e a_e p_e p_e^T + b_e q_e
    q_e^T`` with ``p_e = (1_u + 1_v) / sqrt 2`` and ``q_e = (1_u - 1_v) /
    sqrt 2``.  Exactly, that is ``Lambda_vv = -kappa sum cot(kappa l_e)``, a
    self-loop adding ``2 kappa tan(kappa l / 2)`` instead, and ``Lambda_uv =
    kappa sum csc(kappa l_e)``.  Near a pole one term of an edge, ``c w
    w^T``, is huge and would drown the small eigenvalues of ``Lambda`` in
    roundoff.  It leaves the matrix and borders it instead: by the inertia
    additivity of the Schur complement, ``[[A, t w], [t w^T, -t^2 / c]]``
    has one more positive eigenvalue than ``A + c w w^T`` exactly when ``c <
    0``.  Since ``a b = -kappa_e^2`` above an edge's floor, at most one of
    its terms is huge there; below it ``a b = eta^2``, and both are once
    ``eta > BORDER_AT t``, so each edge with an offset has a second border
    slot for its smaller term.  No term that enters ``Lambda`` exceeds
    ``BORDER_AT t``.  A point with any bordered term borders every slot, the
    others by a lone ``-t``, which is never counted; its ``shift`` is ``P``
    less the positive border corners.
    """
    free = _free_vertices(family[0])
    slot = {v: i for i, v in enumerate(free)}
    n, m = len(free), len(family[0].edges)
    plus, minus = np.zeros((m, n)), np.zeros((m, n))
    for i, e in enumerate(family[0].edges):
        for v, sign in ((e.u, 1.0), (e.v, -1.0)):
            if v in slot:
                plus[i, slot[v]] += math.sqrt(0.5)
                minus[i, slot[v]] += sign * math.sqrt(0.5)
    outer = np.concatenate([np.einsum("ei,ej->eij", plus, plus), np.einsum("ei,ej->eij", minus, minus)])
    outer = outer.reshape(2 * m, n * n)
    lengths, offsets = _tables(family)[::2] if tables is None else tables
    deep = np.flatnonzero(offsets[0] > 0.0)  # the edges with a second border slot
    slots = np.concatenate([np.arange(m), deep])
    plus_at, minus_at, corners = plus[slots], minus[slots], n + np.arange(len(slots))
    size = n + len(slots)

    def count(t: np.ndarray, member=0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        col = t[:, None]
        if cells is None:
            a, b, poles = _offset_terms(col, lengths[member], offsets[member])
        else:
            a, b, poles = _edge_terms(col, lengths[member], cells[member])
        big = np.abs(a) >= np.abs(b)
        huge = np.where(big, a, b)
        border = np.abs(huge) > BORDER_AT * col
        cut_a, cut_b = border & big, border & ~big
        if len(deep):
            # below an edge's floor its smaller term may be huge too
            small = np.where(big[:, deep], b[:, deep], a[:, deep])
            again = np.abs(small) > BORDER_AT * col
            cut_a[:, deep] |= again & ~big[:, deep]
            cut_b[:, deep] |= again & big[:, deep]
            huge, border = np.concatenate([huge, small], axis=1), np.concatenate([border, again], axis=1)
            big = np.concatenate([big, ~big[:, deep]], axis=1)  # the slot holds a
        coef = np.concatenate([np.where(cut_a, 0.0, a), np.where(cut_b, 0.0, b)], axis=1)
        # one product per point, which rounds the same in any batch
        lam = (coef[:, None, :] @ outer)[:, 0].reshape(len(t), n, n)
        shift = poles.sum(axis=1).astype(int)
        values = np.full((len(t), size), np.nan)
        rows = border.any(axis=1)
        if n and not rows.all():
            values[~rows, :n] = np.linalg.eigvalsh(lam[~rows])[:, ::-1]
        if rows.any():
            col, border, big = col[rows], border[rows], big[rows]
            vectors = np.where(big[:, :, None], plus_at, minus_at) * (col * border)[:, :, None]
            with np.errstate(divide="ignore"):  # an unbordered smaller term may be 0
                diag = np.where(border, -(col**2) / huge[rows], -col)
            full = np.zeros((len(col), size, size))
            full[:, :n, :n] = lam[rows]
            full[:, n:, :n] = vectors
            full[:, :n, n:] = vectors.transpose(0, 2, 1)
            full[:, corners, corners] = diag
            values[rows] = np.linalg.eigvalsh(full)[:, ::-1]
            shift[rows] -= (diag > 0).sum(axis=1)
        return shift + (values > 0).sum(axis=1), shift, values

    return count


#: Arrays the size of the pole table that ``_pole_gaps`` holds at once, in
#: float64 entries per pole: the poles and their squares, the sorted table,
#: its gaps, the cluster numbers, and the masks.
POLE_TABLE_COPIES = 8


def _pole_gaps(lengths: np.ndarray, offsets: np.ndarray, cells: np.ndarray | None, k: np.ndarray):
    """The ``seeds`` in ``t`` that the members of one shape count first, one
    row of ``lengths``, ``offsets`` and ``cells`` (``None`` for the exact
    count) and one ``k`` each; their ``owner``, the member of each, in
    ascending order, with the seeds ascending within each member; and
    ``below``, which flags the seed just below each cluster of a member's
    poles up to the one that holds its ``k``-th.  A member's seeds are the
    midpoints of parts about half an eigenvalue spacing wide of every gap
    between its clusters, the points ``0.4 COUNT_RTOL`` (relative) below and
    above each cluster, or halfway to the nearest midpoint where that is
    nearer, and the last seed, which splits the gap above the cluster of the
    ``k``-th pole, where ``N(t)``, at least the number of poles below ``t``,
    reaches ``k``.

    A member's poles are listed up to the least ``(k + 1)``-th pole of any of
    its edges: that edge's first ``k + 1`` poles lie at or below it, each in
    a cluster of its own, so the cluster of the ``k``-th pole and the next
    one are both listed.  A P1 member whose every edge has fewer poles lists
    them all, below ``sqrt(12) / h_min``, which bounds its spectrum and is
    its last seed where no cluster lies above that of the ``k``-th pole.

    The members are listed together, from a table of every edge's first
    ``k + 1`` poles per member, in slices of members whose tables
    (``POLE_TABLE_COPIES``) fit ``fem.MEMORY_BUDGET``."""
    rows, m = int(k.max()) + 1, lengths.shape[1]
    need = 8 * POLE_TABLE_COPIES * rows * m
    require_budget("k", f"a table of {rows} poles on each of {m} edges", need)
    size = fem.MEMORY_BUDGET // need  # members per slice
    listed = []
    for first in range(0, len(k), size):
        part = slice(first, first + size)
        own = None if cells is None else cells[part]
        seeds, below, owner = _slice_gaps(lengths[part], offsets[part], own, k[part])
        listed.append((seeds, below, owner + first))
    return tuple(np.concatenate(arrays) for arrays in zip(*listed))


def _slice_gaps(lengths: np.ndarray, offsets: np.ndarray, cells: np.ndarray | None, k: np.ndarray):
    """``_pole_gaps`` of one slice of members, all at once."""
    who = np.arange(len(k))
    if cells is None:
        ceiling = np.full(len(k), math.inf)
    else:
        ceiling = math.sqrt(12.0) * (cells / lengths).max(axis=1) * (1.0 + 1e-9)
    # every edge's first k + 1 poles, a (member, pole, edge) table; an offset
    # d puts a pole p at sqrt(p^2 + d)
    order = np.arange(1.0, k.max() + 2.0)[:, None]
    poles = _pole(order, lengths[:, None, :], None if cells is None else cells[:, None, :])
    deep = offsets[:, None, :]
    poles = np.where(deep > 0.0, np.sqrt(poles * poles + deep), poles)
    bound = np.minimum(poles[who, k].min(axis=1), ceiling)
    keep = (poles <= bound[:, None, None]) & (order[:, 0] <= k[:, None] + 1.0)[:, :, None]
    table = np.sort(np.where(keep, poles, np.inf).reshape(len(k), -1), axis=1)
    valid = np.arange(table.shape[1]) < keep.sum(axis=(1, 2))[:, None]
    heads = valid.copy()  # of each cluster
    with np.errstate(invalid="ignore"):  # inf - inf past each member's poles
        heads[:, 1:] &= table[:, 1:] - table[:, :-1] > POLE_MERGE_RTOL * table[:, 1:]
    tails = valid.copy()  # and the last pole of each
    tails[:, :-1] &= ~valid[:, 1:] | heads[:, 1:]
    lows, highs = table[heads], table[tails]  # member by member
    clusters = heads.sum(axis=1)
    kth = np.cumsum(heads, axis=1)[who, k - 1] - 1  # the cluster of the k-th pole
    first = np.cumsum(clusters) - clusters  # each member's first cluster in lows
    top = ceiling.copy()
    more = kth + 1 < clusters
    top[more] = 0.5 * (highs[(first + kth)[more]] + lows[(first + kth + 1)[more]])
    kept = np.arange(len(lows)) - np.repeat(first, clusters) <= np.repeat(kth, clusters)
    lows, highs, owner = lows[kept], highs[kept], np.repeat(who, clusters)[kept]
    # cut each gap between clusters into parts about half an eigenvalue
    # spacing (pi / 2L) wide, and count at their midpoints
    gap_owner, last = np.repeat(who, kth + 2), np.cumsum(kth + 2) - 1
    opening, closing = np.zeros((2, len(gap_owner)), bool)
    opening[last - kth - 1], closing[last] = True, True  # each member's first and top gap
    starts, ends = np.zeros(len(gap_owner)), np.empty(len(gap_owner))
    starts[~opening], ends[~closing], ends[closing] = highs, lows, top
    parts = np.maximum(1, np.rint((ends - starts) * 2.0 * lengths.sum(axis=1)[gap_owner] / math.pi)).astype(int)
    gap = np.repeat(np.arange(len(ends)), parts)
    part = np.arange(len(gap)) - np.repeat(np.cumsum(parts) - parts, parts)
    mids = starts[gap] + (ends - starts)[gap] * (part + 0.5) / parts[gap]
    # and just below and just above each cluster: a bracket between these
    # two certifies an eigenvalue on the cluster, and no other holds a pole
    after = np.cumsum(parts)[~closing]  # the first midpoint above each cluster
    step = 0.4 * COUNT_RTOL * lows
    under = lows - np.minimum(step, 0.5 * (lows - mids[after - 1]))
    over = highs + np.minimum(step, 0.5 * (mids[after] - highs))
    points = np.concatenate([mids, under, over, top])
    owners = np.concatenate([gap_owner[gap], owner, owner, who])
    order = np.lexsort((points, owners))  # stable, as each member's own sort was
    below = (len(mids) <= order) & (order < len(mids) + len(lows))
    return points[order], below, owners[order]


def piecewise_constant_eigenvalues(
    graph: MetricGraph, k: int, cells=None
) -> tuple[np.ndarray, np.ndarray]:
    """``piecewise_constant_family`` of ``graph`` alone."""
    return piecewise_constant_family([graph], k, None if cells is None else [cells])[0]


def piecewise_constant_family(graphs, k, cells=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """The lowest ``k`` eigenvalues of each graph of a family whose potential
    is constant on each piece of every edge (``split_at_jumps``), and their
    brackets, shape ``(k, 2)``: exact to roundoff, or, with ``cells`` (one
    row per member) on ``V = 0`` graphs (one whole number per edge, both
    halves of a self-loop together), those of P1 on that many equal cells
    per edge.  ``k`` is one number for every member or one per member.

    The graphs are grouped by their shape once split at their jumps: the
    same vertices, the same edge ends in the same order, the same boundary
    (``_shape``), and the same edges above their least ``V``.  The members
    of a group may differ in edge lengths, edge constants, ``alpha``,
    ``cells`` and ``k``, and are solved together; the results come back in
    the order of ``graphs``.  Each graph is validated, split and read into
    its group's tables (``_tables``) once; the rest of a group's setup, its
    listing of seeds, its budget and its results, is array work, which
    takes the same few calls for any number of members.

    The count runs in ``t``, where ``E = c_min + alpha t^2`` and ``c_min`` is
    a member's least ``c_e``: ``t = kappa = sqrt(E / alpha)`` where ``V =
    0``.  Every bracket ``[lo, hi]`` of the ``j``-th eigenvalue satisfies
    ``N(lo) < j <= N(hi)`` in ``t`` for its member's count of
    ``_dtn_counter``, and ``hi - lo`` is at most 1e-13 of ``hi - c_min``
    (``COUNT_RTOL``) unless poles of different edges lie within 1e-14 of
    each other.  Multiplicities come out of the count.  A graph without a
    Dirichlet vertex whose ``V`` is one constant has ``E_1 = c_min``, the
    constant, returned with the bracket ``[c_min, c_min]``.

    All indices of all members of a group are solved together in ``t`` by
    ``fem._close_brackets``, one batched count per step, so a group costs
    about as many counts as its hardest member.  No count is taken on a pole
    (an edge Dirichlet eigenvalue ``c_e + alpha (m pi / l_e)^2``), where
    ``Lambda`` is singular.  The first count is at each member's seeds,
    listed for the whole group at once (``_pole_gaps``): points that split
    the gaps between its clusters of poles, and a point just below and one
    just above each cluster.  A bracket between the two around a cluster
    certifies the eigenvalue on it; every other bracket is free of poles,
    and there the crossing eigenvalue of ``Lambda`` (the one whose sign
    decides ``N >= j``) rises with ``t`` and has one root.  Next to a pole, where the point is
    bordered, the crossing eigenvalue of the bordered matrix has the same
    root.  A member's counts that fall as ``t`` rises raise
    ``SolverError``.  A member whose batch of matrices, or whose table of
    poles, is over the memory budget raises ``MemoryBudgetError`` against
    ``k`` (``fem.require_budget``), before any is counted; a group over it
    is listed in slices and solved in consecutive chunks that fit.
    """
    k = np.asarray(k)
    if k.size and k.min() < 1:
        raise ValueError(f"k must be at least 1, got {k.min()}")
    family = []
    for graph in graphs:
        require_valid(graph)
        family.append(split_at_jumps(graph))
    if not family:
        return []
    k = np.broadcast_to(k, len(family))
    if cells is not None:
        if not all(graph.potential_is_zero() for graph in family):
            raise ValueError("the P1 count with cells needs V = 0 on every edge")
        if len(cells) != len(family):
            raise ValueError(f"cells must have one row per member, got {len(cells)} for {len(family)}")
        cells = [np.asarray(row) for row in cells]
        for graph, row in zip(family, cells):
            if row.shape != (len(graph.edges),) or row.dtype.kind not in "iu":
                raise ValueError(f"cells must be one whole number of at least 1 per edge, got {row.tolist()}")
    owners, results = [], []
    for members, lengths, floors, offsets, own in _groups(family, cells, k):
        owners.append(np.repeat(members, k[members]))
        results.append(_solve_group([family[i] for i in members], k[members], lengths, floors, offsets, own))
    order = np.argsort(np.concatenate(owners), kind="stable")
    energies, *ends = np.concatenate(results, axis=1)[:, order]
    brackets, stops = np.stack(ends, axis=1), np.cumsum(k)
    return [(energies[a:b], brackets[a:b]) for a, b in zip((stops - k).tolist(), stops.tolist())]


def _groups(family: list[MetricGraph], cells, k: np.ndarray) -> list[tuple]:
    """The members of ``family`` that ``piecewise_constant_family`` solves
    together, in the order of their first: the indices of each group, its
    tables (``_tables``) and its rows of ``cells`` (``None`` for the exact
    count), with each row's cells and ``k`` checked against its unknowns."""
    shapes = {}
    for i, graph in enumerate(family):
        shapes.setdefault(_shape(graph), []).append(i)
    groups = []
    for members in shapes.values():
        members = np.array(members)
        lengths, floors, offsets = _tables([family[i] for i in members])
        kinds = {}  # the edges above the least V
        for i, above in enumerate(offsets > 0.0):
            kinds.setdefault(above.tobytes(), []).append(i)
        for rows in kinds.values():
            own = None if cells is None else np.array([cells[i] for i in members[rows]])
            groups.append((members[rows], lengths[rows], floors[rows], offsets[rows], own))
    groups.sort(key=lambda group: group[0][0])
    if cells is None:
        return groups
    for members, *_, own in groups:
        unknowns = fem.unknowns(family[members[0]], own.T)
        bad = np.flatnonzero((own < 1).any(axis=1) | (k[members] > unknowns))
        if len(bad) and (own[bad[0]] < 1).any():
            raise ValueError(f"cells must be one whole number of at least 1 per edge, got {own[bad[0]].tolist()}")
        if len(bad):
            raise ValueError(f"k must be at most the {unknowns[bad[0]]} unknowns of the mesh, got {k[members[bad[0]]]}")
    return groups


def _solve_group(group: list[MetricGraph], k: np.ndarray, lengths, floors, offsets, cells) -> np.ndarray:
    """The rows ``E``, ``lo`` and ``hi`` of one group of
    ``piecewise_constant_family``, each member's ``k`` entries in turn: its
    seeds listed together (``_pole_gaps``), its budget checked, and its
    brackets closed in chunks of consecutive members that fit."""
    seeds, below, owner = _pole_gaps(lengths, offsets, cells, k)
    # per count: the direct and the bordered matrices, and a few dozen
    # per-edge arrays; the incidence tensor once per chunk
    n, m = len(_free_vertices(group[0])), lengths.shape[1]
    size, fixed = n + m, 2 * m * n * n
    batch = np.maximum(np.bincount(owner, minlength=len(group)), 4 * k)
    need = batch * (2 * size * size + 32 * size)
    i = np.argmax(8 * (need + fixed) > fem.MEMORY_BUDGET)  # the first over, if any
    require_budget("k", f"an exact count of {batch[i]} matrices of size {size}", 8 * (need[i] + fixed))
    # each member's k entries: a zero mode at the floor, the others solved
    zero_modes = 0 if DIRICHLET in group[0].boundary.values() or offsets[0].any() else 1
    entry = np.repeat(np.arange(len(group)), k)
    rank = np.arange(len(entry)) - np.repeat(np.cumsum(k) - k, k)
    solved = rank >= zero_modes
    total, start, roots = np.cumsum(need), 0, []
    while start < len(group):
        # every bracket of every member of the chunk in one loop
        held = 8 * (fixed + total[start:] - (total[start - 1] if start else 0))
        end = start + int(np.searchsorted(held, fem.MEMORY_BUDGET, side="right"))  # each member fits alone
        tables = lengths[start:end], offsets[start:end]
        count = _dtn_counter(group[start:end], None if cells is None else cells[start:end], tables)
        mine, at = solved & (start <= entry) & (entry < end), slice(*np.searchsorted(owner, [start, end]))
        points, owners = seeds[at], owner[at] - start
        first = count(points, owners)
        roots.append(np.stack(  # root, lo, hi
            _close_brackets(count, rank[mine] + 1, entry[mine] - start, points, owners, below[at], first, COUNT_RTOL)
        ))
        start = end
    values = np.tile(floors[entry], (3, 1))
    alphas = np.array([graph.alpha for graph in group])
    values[:, solved] = floors[entry[solved]] + alphas[entry[solved]] * np.concatenate(roots, axis=1) ** 2
    return values


#: A singular value of a matching matrix (``edge_tables``) below this is null.
KERNEL_TOL = 1e-8


def edge_tables(graph: MetricGraph, energies: np.ndarray, brackets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each state's mass ``int |phi|^2`` and Dirichlet energy ``int |phi'|^2``
    on each edge (rows) of ``graph``, a graph of constant edges, for its
    lowest ``energies`` and ``brackets`` from ``piecewise_constant_family``.

    They are the kernel of the matrix that matches the edges' amplitudes
    (Berkolaiko and Kuchment, 2013), ``u = A cos kappa x + B s sin(kappa x)
    / kappa``, ``s = max(kappa, 1)``, above an edge's floor and ``A e^{-eta
    x} + B e^{-eta (l - x)}`` below it, with the vertex conditions as rows,
    Kirchhoff's scaled by ``1 / max(1, kappa or eta there)`` and none by its
    norm, as a self-loop's continuity row is roundoff at its Dirichlet
    modes.  States whose brackets meet are one
    cluster, whose kernel (``KERNEL_TOL``) must have the dimension the count
    gives, also where the states solved cut it, or ``SolverError`` is
    raised.  Its sums on edge ``e`` are ``trace(G^-1 G_e)`` for its Gram
    matrix ``G``, with ``int |u'|^2 = [u u']_0^l + kappa^2 int |u|^2``, and
    each of its states reads their mean.  README's numerical contract has
    the details.
    """
    values, lengths = _edge_values(graph), np.array([e.length for e in graph.edges])
    m, heads = len(lengths), np.flatnonzero(np.r_[True, brackets[1:, 0] > brackets[:-1, 1]])
    sizes = np.diff(np.r_[heads, len(energies)])
    whole = sizes.copy()  # each cluster's multiplicity
    if brackets[-1, 1] > values.min():
        t = math.sqrt((brackets[-1, 1] - values.min()) / graph.alpha) * (1.0 + COUNT_RTOL)
        whole[-1] = _dtn_counter([graph])(np.array([t]))[0][0] - heads[-1]
    require_budget("k", f"{len(heads)} matching matrices of size {2 * m}", 8 * 8 * len(heads) * 4 * m * m)
    rows, row = np.zeros((2 * m, 2 * m, 2)), 0  # each row's coefficients of u and u' at end 2 e + side
    for v in range(graph.num_vertices):
        ends = np.array([2 * i + side for i, e in enumerate(graph.edges) for side, x in enumerate((e.u, e.v)) if x == v])
        at = row + np.arange(len(ends))
        rows[at[:-1], ends[0], 0], rows[at[:-1], ends[1:], 0] = 1.0, -1.0  # continuity with the first end
        # and the value at a Dirichlet leaf, or Kirchhoff on the outward derivatives
        rows[at[-1], ends, int(graph.boundary.get(v) != DIRICHLET)] = 1.0 - 2.0 * (ends % 2)
        row += len(ends)
    z = (energies[heads, None] - values) / graph.alpha  # kappa^2, or -eta^2 below the floor
    w, up, zero = np.sqrt(np.abs(z)), z >= 0.0, np.zeros_like(z)
    theta, s, x = w * lengths, np.maximum(w, 1.0), np.exp(-w * lengths)
    cos, sin, sinc = np.cos(theta), np.sin(theta), np.sinc(theta / math.pi)
    # each basis function's value and derivative at each end: (value or derivative, side, basis, head, edge)
    basis = np.array([
        np.where(up, [[zero + 1.0, zero], [cos, s * lengths * sinc]], [[zero + 1.0, x], [x, zero + 1.0]]),
        np.where(up, [[zero, s], [-w * sin, s * cos]], [[-w, w * x], [-w * x, w]]),
    ])
    rows = rows.reshape(-1, m, 2, 2)  # row, edge, side, value or derivative
    scale = 1.0 / np.maximum(1.0, np.where(rows[..., 1].any(axis=2), w[:, None, :], 0.0).max(axis=2))
    matrix = np.einsum("resk,ksaqe,qr->qrea", rows, basis, scale).reshape(-1, 2 * m, 2 * m)
    singular, vectors = np.linalg.svd(matrix)[1:]
    null = (singular < KERNEL_TOL).sum(axis=1)
    for i in np.flatnonzero(null != whole)[:1]:
        E, dims = energies[heads[i]], f"{null[i]} where the count gives {whole[i]}"
        raise fem.SolverError(f"the matching matrix at E = {E:.12g} has a kernel of dimension {dims}")
    # int of each product of basis functions, with (1 - sinc y) / y^2 by its Taylor series below y = 1
    series = sum((-1.0) ** n / math.factorial(2 * n + 3) * (2.0 * theta) ** (2 * n) for n in range(9))
    with np.errstate(divide="ignore", invalid="ignore"):  # at theta = 0
        defect = np.where(theta < 0.5, series, (1.0 - sinc * cos) / (2.0 * theta) ** 2)
        decay, half = -np.expm1(-2.0 * theta) / (2.0 * w), 0.5 * s * (lengths * sinc) ** 2
    square = [[0.5 * lengths * (1.0 + sinc * cos), half], [half, 2.0 * (s * lengths) ** 2 * lengths * defect]]
    gram = np.where(up, square, [[decay, lengths * x], [lengths * x, decay]])
    r = whole.max()
    kernel = np.arange(r) >= r - whole[:, None]  # among the last r right singular vectors
    X = (vectors[:, -r:] * kernel[:, :, None]).reshape(-1, r, m, 2)
    per_edge = np.einsum("qiea,abqe,qjeb->qeij", X, gram, X)
    inverse = np.linalg.inv(per_edge.sum(axis=1) + np.eye(r) * ~kernel[:, None, :])
    u, du = np.einsum("qiea,ksaqe->ksqie", X, basis)
    mass = np.einsum("qij,qeji->qe", inverse, per_edge)
    at_ends = np.einsum("sqie,qij,sqje->sqe", du, inverse, u)
    tables = np.stack([mass, at_ends[1] - at_ends[0] + z * mass]) / whole[:, None]
    return tuple(np.repeat(tables, sizes, axis=1).transpose(0, 2, 1))


class ExactModel:
    """The spectral model that the moment checks of ``inequalities`` read,
    solved exactly on a graph whose potential is constant on each piece of
    every edge, with no mesh.

    ``graph`` is the graph split at its jumps (``split_at_jumps``), with the
    constant ``values`` and the ``lengths`` of its edges, and ``edge_of``,
    the edge of the unsplit graph that each lies on, onto which the tables
    of ``edge_tables`` on ``graph`` sum.  ``alpha``,
    ``min_potential``, ``bound_states`` and ``negative_integral`` mean what
    they mean on ``fem.AssembledSystem``; ``bound_states`` solves a whole
    grid of couplings as one family.
    """

    def __init__(self, graph: MetricGraph):
        self.graph, self.edge_of = split_with_sources(graph)
        self.values = _edge_values(self.graph)
        self.lengths = np.array([e.length for e in self.graph.edges])

    @property
    def alpha(self) -> float:
        return self.graph.alpha

    @property
    def min_potential(self) -> float:
        return float(self.values.min())

    def bound_states(self, alphas) -> list[np.ndarray]:
        """Every negative eigenvalue at each coupling of ``alphas``, ascending,
        one array per coupling.

        With every ``c_e >= 0`` there is none.  Otherwise one batched count at
        each coupling's ``t_0 = sqrt(-c_min / alpha)``, which is ``E = 0``,
        gives its number ``m`` of them, and one ``piecewise_constant_family``
        call solves the couplings that bind any, each for exactly its own
        ``m``, from the seeds it would get alone.
        """
        alphas = np.asarray(alphas, dtype=float)
        if self.min_potential >= 0.0:
            return [np.empty(0) for _ in alphas]
        graphs = [replace(self.graph, alpha=float(alpha)) for alpha in alphas]
        negative = _dtn_counter(graphs)(np.sqrt(-self.min_potential / alphas), np.arange(len(graphs)))[0]
        binding = np.flatnonzero(negative)
        solved = iter(piecewise_constant_family([graphs[i] for i in binding], negative[binding]))
        return [next(solved)[0] if m else np.empty(0) for m in negative]

    def negative_integral(self, power: float, shift: float = 0.0) -> float:
        """``int ((V - shift)_-)^power = sum_e l_e ((c_e - shift)_-)^power``."""
        return float(self.lengths @ np.maximum(shift - self.values, 0.0) ** power)
