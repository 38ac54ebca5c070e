"""Closed-form and secular-equation spectra for the named model families.

These serve as ground truth for the finite element solver and for the
inequality checks.  All root finding is plain bisection on pole-free
reformulations with brackets enumerated in closed form; no derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    poles = {0.0}
    m = 0
    while m * math.pi / L <= k_max + 1.0:
        poles.add(m * math.pi / L)
        m += 1
    m = 0
    while m + 0.5 <= k_max + 1.0:
        poles.add(m + 0.5)
        m += 1
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
    # k density is (L + 2 pi)/pi per unit; oversample then truncate
    k_max = 2.0 + n * math.pi / (string_length + 2.0 * math.pi) + 2.0
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
