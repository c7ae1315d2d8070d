"""Essential spectrum for constant-per-end fields, and 1d limit checks.

With a constant field b on every end the essential spectrum is decided
end by end.  A funnel with field beta contributes the half line
[1/4 + beta^2, oo) plus the finite Landau ladder below its bottom.  A
cusp with field b contributes [1/4 + b^2, oo) exactly when its limiting
gauge value (holonomy / 2pi) is an integer; otherwise nothing.  Surfaces
with only cusps and no integral holonomy class have purely discrete
spectrum.

The Morse-model check discretizes the half-line operator
D_s^2 + 1/4 + (beta - e^s)^2 that arises as the zero-mode limit of the
funnel problem and compares its low eigenvalues against the explicit
ladder; the finite-radius variant keeps the Dirichlet wall at
s = ln(2 rho) and tracks the lowest eigenvalue as rho grows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .landau import ess_bottom, landau_level_set
from .model import (CuspEnd, NonConstantFieldError, SurfaceEnds, finite,
                    gauge_limit)
from .sturm1d import count_below, discretize, lowest_eigenvalues

# tolerance for deciding that a limiting gauge value is an integer
INTEGER_TOL = 1e-9
# MorseOptions refuses more interior points: morse_check builds that
# grid and one about twice its size for the doubled window
_MAX_MORSE_N = 1 << 20


def _constant_value(end) -> float:
    if end.field.unbounded:
        raise NonConstantFieldError(
            "essential spectrum formulas require a constant field on every end")
    return end.field.coeffs[0]


def holonomy(end: CuspEnd) -> float:
    """Magnetic flux through the cusp, 2 pi times the limiting gauge value."""
    return 2.0 * math.pi * gauge_limit(end)


def cusp_is_integral(end: CuspEnd) -> bool:
    """Whether the limiting gauge value sits on the integer lattice."""
    a_inf = gauge_limit(end)
    return abs(a_inf - round(a_inf)) <= INTEGER_TOL


@dataclass(frozen=True)
class SpectrumSet:
    """Essential spectrum as [bottom, oo) plus finitely many points below.

    empty=True encodes purely discrete spectrum; then bottom is None and
    points is empty.
    """

    bottom: float | None
    points: tuple[float, ...]
    empty: bool

    def __post_init__(self):
        if self.empty:
            if self.bottom is not None or self.points:
                raise ValueError("empty spectrum carries no bottom or points")
            return
        if self.bottom is None:
            raise ValueError("non-empty spectrum needs a bottom")
        if any(p >= self.bottom for p in self.points):
            raise ValueError("isolated points must lie strictly below the bottom")
        if list(self.points) != sorted(set(self.points)):
            raise ValueError("points must be strictly increasing")


def essential_spectrum(ends: SurfaceEnds) -> SpectrumSet:
    """Essential spectrum of the magnetic Laplacian with constant end fields."""
    funnel_betas = [_constant_value(f) for f in ends.funnels]
    cusp_bs = [_constant_value(c) for c in ends.cusps]
    integral_bs = [b for c, b in zip(ends.cusps, cusp_bs)
                   if cusp_is_integral(c)]

    if not (funnel_betas or integral_bs):
        return SpectrumSet(bottom=None, points=(), empty=True)
    bottom = min(ess_bottom(b) for b in funnel_betas + integral_bs)
    pts = {level for beta in funnel_betas
           for level in landau_level_set(beta).levels if level < bottom - 1e-12}
    return SpectrumSet(bottom=bottom, points=tuple(sorted(pts)), empty=False)


# ---------------------------------------------------------------------------
# Morse-model eigenvalue check


def _reversed(T):
    # the same matrix with its rows in reverse order: count_below meets the
    # long s -> -oo side, where V -> 1/4 + beta^2 lies above every lambda
    # bisected, last and stops early in it instead of walking it in full
    return replace(T, diag=T.diag[::-1], off=T.off[::-1])


# morse_check counts eigenvalues up to _MARGIN below the essential bottom,
# bisects them to _EIG_TOL, and calls them converged when the doubled
# window moves none by more than _WINDOW_TOL + 10 _EIG_TOL
_MARGIN = 0.05
_EIG_TOL = 1e-7
_WINDOW_TOL = 1e-6


@dataclass(frozen=True)
class MorseOptions:
    """Log-coordinate window (s_lo, s_hi) and interior point count n
    (16 to 2^20)."""

    s_lo: float = -20.0
    s_hi: float = 4.0
    n: int = 8000

    def __post_init__(self):
        if not (math.isfinite(self.s_lo) and math.isfinite(self.s_hi)):
            raise ValueError(f"window ({self.s_lo}, {self.s_hi}) must be finite")
        if self.s_hi <= self.s_lo:
            raise ValueError("window must satisfy s_lo < s_hi")
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 16:
            raise ValueError("need at least 16 interior points")
        if self.n > _MAX_MORSE_N:
            raise ValueError(
                f"need at most {_MAX_MORSE_N} interior points, got {self.n}")


@dataclass(frozen=True)
class MorseReport:
    beta: float
    predicted: tuple[float, ...]
    computed: tuple[float, ...]
    max_abs_err: float
    converged: bool


def funnel_limit_potential(beta: float):
    """Deep-funnel limit of a constant-field mode, in log coordinates.

    The limit operator acts on the half-line weighted space; substituting
    y = e^s makes it -d^2/ds^2 + 1/4 + (beta - e^s)^2 on the whole line,
    whose eigenvalues below 1/4 + beta^2 are exactly the Landau levels.
    """
    beta = float(beta)

    def V(s):
        d = beta - np.exp(np.asarray(s, dtype=float))
        return 0.25 + d * d
    return V


def morse_check(beta: float, opts: MorseOptions | None = None) -> MorseReport:
    """Compare discretized Morse eigenvalues against the explicit ladder.

    Eigenvalues are extracted up to _MARGIN below the essential bottom
    1/4 + beta^2; a doubled window at the same mesh size decides
    convergence.  The ladder seeds the first window's bisections, and
    their eigenvalues the doubled window's; a seed never sets a value.
    """
    opts = opts or MorseOptions()
    beta = float(beta)
    predicted = landau_level_set(beta).levels
    # a too-short right edge clips the classically allowed well near
    # s = ln|beta|; widen automatically for large beta
    s_hi = max(opts.s_hi, math.log(2.5 * (abs(beta) + 1.0)))
    s_lo = opts.s_lo
    V = funnel_limit_potential(beta)
    threshold = ess_bottom(beta) - _MARGIN

    def low_eigs(lo, hi, n, near):
        T = _reversed(discretize(V, lo, hi, n))
        k = count_below(T, threshold)
        if k == 0:
            return ()
        near = (list(near) + [threshold] * k)[:k]
        return lowest_eigenvalues(T, k, tol=_EIG_TOL, near=near)

    h = (s_hi - s_lo) / (opts.n + 1)
    eigs = low_eigs(s_lo, s_hi, opts.n, predicted)
    # doubled window, same mesh: shifts both walls outward
    width = s_hi - s_lo
    n2 = int(round(2.0 * width / h)) - 1
    eigs2 = low_eigs(s_lo - 0.5 * width, s_hi + 0.5 * width, n2, eigs)
    converged = (len(eigs) == len(eigs2)
                 and all(abs(a - b) <= _WINDOW_TOL + 10.0 * _EIG_TOL
                         for a, b in zip(eigs, eigs2)))
    if len(eigs) != len(predicted):
        err = math.inf
    elif predicted:
        err = max(abs(a - b) for a, b in zip(eigs, predicted))
    else:
        err = 0.0
    return MorseReport(beta=beta, predicted=predicted, computed=tuple(eigs),
                       max_abs_err=err, converged=converged)


# ---------------------------------------------------------------------------
# Finite-radius funnel mode versus its rho -> oo Morse limit


@dataclass(frozen=True)
class LimitReport:
    beta: float
    rho: tuple[float, ...]
    lowest: tuple[float, ...]
    limit: float
    distances: tuple[float, ...]


def _rho_potential(beta: float, rho: float):
    # log form of the finite-radius well; pointwise identical to the
    # constant-field funnel mode potential under y = 2 rho e^{-t}
    def V(s):
        y = np.exp(s)
        r = y / (2.0 * rho)
        q = r * r
        main = (beta * (1.0 - q) - y) / (1.0 + q)
        return 0.25 + main * main + (r / (1.0 + q)) ** 2
    return V


def funnel_mode_limit_check(beta: float, rhos) -> LimitReport:
    """Lowest eigenvalue of the finite-radius mode well as rho grows.

    rho stands for |ell - xi| / tau of a constant-field funnel mode with
    t0 = 0.  In log coordinates the operator lives on s in (-oo, ln(2 rho)]
    with a Dirichlet wall at the right edge only; its potential tends to
    the Morse well, so the lowest eigenvalue tends to the bottom of the
    ladder when nonempty, else to the essential bottom 1/4 + beta^2.  That
    limit seeds the bisection on the n grid, its value that on 2n + 1.
    """
    beta = float(beta)
    rhos = [finite("rho", r) for r in rhos]
    if not rhos or any(r <= 0.0 for r in rhos):
        raise ValueError("rho values must be positive")
    ladder = landau_level_set(beta).levels
    limit = min(ladder) if ladder else ess_bottom(beta)
    lowest = []
    for rho in rhos:
        pot = _rho_potential(beta, rho)
        s_max = math.log(2.0 * rho)
        s_lo = min(-40.0, s_max - 30.0)
        n = max(4000, int((s_max - s_lo) / 0.004))
        T = _reversed(discretize(pot, s_lo, s_max, n))
        e0 = lowest_eigenvalues(T, 1, tol=1e-9, near=[limit])[0]
        T2 = _reversed(discretize(pot, s_lo, s_max, 2 * n + 1))
        e0b = lowest_eigenvalues(T2, 1, tol=1e-9, near=[e0])[0]
        # Richardson step for the O(h^2) scheme; 2n+1 points halve h exactly
        lowest.append(e0b + (e0b - e0) / 3.0)
    distances = tuple(abs(e - limit) for e in lowest)
    return LimitReport(beta=beta, rho=tuple(rhos), lowest=tuple(lowest),
                       limit=limit, distances=distances)
