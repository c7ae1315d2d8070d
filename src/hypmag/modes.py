"""Fourier-mode reduction of magnetic Laplacians on funnel and cusp ends.

Separating the circle variable turns the Dirichlet operator of an end
into a direct sum of 1-d Schrodinger operators indexed by the integer
mode ell.  After the usual unitary removal of the area density the mode
potentials are

    funnel:  V_ell(t) = (ell - a(t))^2 / (tau^2 cosh^2 t)
                        + (1 + cosh^{-2} t) / 4,
    cusp:    V_ell(t) = e^{2t} (ell - a(t))^2 / L^2 + 1/4,

with a = gauge_function.  Both have the form (ell - a)^2 w + q with the
same a, w and q for every mode (mode_potential builds V_ell from them),
and both contain the curvature term, so no mode eigenvalue lies below
1/4.

count_end counts an end in two steps on [t0, t_max].  Unless given, the
wall t_max is the exact last crossing of |b~| = 4 max(lambda, 1), past
which the intensity stays above that level, rounded out to t0 + 0.5 k +
0.25; a crossing past t0 + 200 is a BoundedFieldError.

The mode window.  With W = (ell - a) sqrt(w), V_ell = W^2 + q, and for
s = +-1 and theta in [0, 1] integration by parts gives the magnetic lower
bound (Avron, Herbst & Simon, Duke Math. J. 45, 1978)

    H_ell >= q + s theta W' + (1 - theta) W^2,
    W' = b~ + (ell - a) (sqrt w)'.

At each t the bound is a quadratic in ell - a(t), so the modes it leaves
below lambda there form one interval.  A mode whose bound stays >= lambda
on the whole interval, for one (theta, s), has no eigenvalue below
lambda; the window is the set of modes no such pair certifies empty,
read off a grid of the interval.

The sweep.  sturm1d.mode_counts counts every mode of the window at lambda
and at lambda - delta_h in one LDL^T lockstep down a shared Dirichlet
grid.  delta_h = 2 h^2 (lambda - 1/4)^2 / 12 is twice the leading
downward bias of the 3-point scheme near lambda (Paine, de Hoog &
Anderssen, Computing 26, 1981), so a mode whose two counts agree has no
eigenvalue that the grid moves across lambda and is decided; the others
are counted again on the doubled grid.  a, w and q are evaluated once per
grid, on its points t0 + h k; the window reads the first grid's too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (BoundedFieldError, DomainError, FunnelEnd, eval_field,
                    finite, gauge_function, last_crossing)
from .sturm1d import mode_counts


@dataclass(frozen=True)
class CountResult:
    """An end's eigenvalue count below lam, with the grid that decided it."""

    count: int
    lam: float
    n: int
    t_hi: float
    mode_range: tuple[int, int] | None = None
    converged: bool = False


# the first shared grid has _POINTS_PER_WAVELENGTH points per shortest
# local wavelength 2 pi / sqrt(lambda), and at least _N0_MIN points
_N0_MIN = 48
# 72 makes delta_h about 0.0013 lambda on the first grid: only modes with
# an eigenvalue that close above lambda are counted again (1 of 159 for
# the cusp [0, 1] at lambda 6400); the mode window is read off it too
_POINTS_PER_WAVELENGTH = 72.0


# a window of more than _MAX_MODES modes is not swept, and a mode still
# undecided on the last of _MAX_REFINEMENTS grids is reported with
# converged=False
_MAX_MODES = 200000
_MAX_REFINEMENTS = 8


def _coefficients(end, t):
    """(a, w, q) of the mode potentials (ell - a)^2 w + q at t, all finite."""
    t = np.asarray(t, dtype=float)
    # the gauge overflows with cosh^d t sinh t on funnels (past t = 355.59
    # for b~ = cosh t), and e^{2t} past t = 354.89 on cusps: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.asarray(gauge_function(end, t), dtype=float)
        if isinstance(end, FunnelEnd):
            sech2 = 1.0 / np.cosh(t) ** 2
            w, q = sech2 / (end.tau * end.tau), 0.25 * (1.0 + sech2)
        else:
            w = np.exp(2.0 * t) / (end.L * end.L)
            q = np.full_like(t, 0.25)
    for name, x in (("a", a), ("w", w), ("q", q)):
        if not np.isfinite(x).all():
            bad = float(t.flat[np.argmin(np.isfinite(x))])
            raise DomainError(f"mode coefficient {name} is not finite at t={bad!r}")
    return a, w, q


def mode_potential(end, ell: int):
    """Reduced potential t -> (ell - a(t))^2 w(t) + q(t) of the mode ell.

    For a constant-field cusp the potential is (e^t (ell - a_oo)/L - b)^2
    + 1/4 with a_oo the limiting gauge value, so the mode ell = a_oo (when
    it is an integer) is identically 1/4 + b^2: the absolutely continuous
    branch.
    """
    ell = int(ell)

    def V(t):
        a, w, q = _coefficients(end, t)
        return (ell - a) ** 2 * w + q
    return V


# the lower-bound certificates (theta, s): theta = 0 is the potential
# itself, H_ell >= V_ell; then each theta with s = +1 and s = -1
_THETAS = (0.3, 0.5, 0.7, 0.85, 0.95)
_THETA = np.array((0.0,) + _THETAS + _THETAS)[:, None]
_SIGN = np.array((1.0,) * (1 + len(_THETAS)) + (-1.0,) * len(_THETAS))[:, None]
# grid samples per evaluation of the bound
_WINDOW_ROWS = 1024


def _bound_intervals(end, t, coeffs, lam: float):
    """Open intervals (lo, hi) of ell where a bound is below lam at t.

    coeffs is (a, w, q) at t.  Rows are the certificates (_THETA, _SIGN),
    columns the samples t; a sample where the bound is >= lam for every
    ell has lo = +inf and hi = -inf.
    """
    a, w, q = coeffs
    b = np.asarray(eval_field(end, t), dtype=float)
    # (sqrt w)': -sech t tanh t / tau on funnels, e^t / L on cusps
    sw = np.sqrt(w)
    dsw = -sw * np.tanh(t) if isinstance(end, FunnelEnd) else sw
    # (1 - theta) w x^2 + s theta (sqrt w)' x + q + s theta b~ - lam < 0,
    # with x = ell - a
    qa = (1.0 - _THETA) * w
    qb = _SIGN * _THETA * dsw
    qc = q + _SIGN * _THETA * b - lam
    # near a cusp wall disc overflows to +-inf with its exact sign: no mode
    # or every mode; halving after / qa keeps inf / inf (NaN) out of lo, hi
    with np.errstate(over="ignore"):
        disc = qb * qb - 4.0 * qa * qc
        root = np.sqrt(np.where(disc > 0.0, disc, 0.0))
        lo = np.where(disc > 0.0, a + (-qb - root) / qa / 2.0, np.inf)
        hi = np.where(disc > 0.0, a + (-qb + root) / qa / 2.0, -np.inf)
    return lo, hi


def _window_chunks(end, t, coeffs, lam: float):
    """_bound_intervals on the grid points t, in chunks.

    Each interval is widened to the hull of its own and its right
    neighbour's, so that a mode uncovered only between two samples is
    still kept.  With (lo, hi) comes (certificate, first, last) of ranges
    whose union is each certificate's [ceil lo, floor hi]: one per run of
    samples whose neighbouring ranges overlap or touch.
    """
    for i in range(0, t.size - 1, _WINDOW_ROWS):
        rows = slice(i, min(i + _WINDOW_ROWS, t.size - 1) + 1)
        lo, hi = _bound_intervals(end, t[rows], [x[rows] for x in coeffs], lam)
        lo, hi = np.minimum(lo[:, :-1], lo[:, 1:]), np.maximum(hi[:, :-1], hi[:, 1:])
        first, last = np.ceil(lo), np.floor(hi)
        ok = last >= first
        new = np.ones(ok.shape, dtype=bool)
        new[:, 1:] = (~ok[:, :-1] | (first[:, 1:] > last[:, :-1] + 1.0)
                      | (last[:, 1:] < first[:, :-1] - 1.0))
        at = np.flatnonzero(new[ok])
        yield lo, hi, (np.nonzero(ok)[0][at], np.minimum.reduceat(first[ok], at),
                       np.maximum.reduceat(last[ok], at))


def _window(end, lam: float, t, coeffs) -> np.ndarray:
    """Sorted modes that no certificate shows empty on the grid points t."""
    # the hull of each certificate's uncovered modes, and those modes
    ell_lo = np.full(_THETA.shape[0], np.inf)
    ell_hi = np.full(_THETA.shape[0], -np.inf)
    ranges = []
    for lo, hi, runs in _window_chunks(end, t, coeffs, lam):
        ell_lo = np.minimum(ell_lo, np.min(lo, axis=1))
        ell_hi = np.maximum(ell_hi, np.max(hi, axis=1))
        ranges.append(runs)
    lo, hi = float(np.max(ell_lo)), float(np.min(ell_hi))
    # a certificate that covers every mode on every sample leaves its
    # hull empty (lo = +inf, hi = -inf): then no mode is uncovered
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return np.empty(0, dtype=np.int64)
    base, top = math.ceil(lo), math.floor(hi)
    if top < base:
        return np.empty(0, dtype=np.int64)
    # per certificate, a difference array over base..top + 1
    cert, first, last = (np.concatenate(x) for x in zip(*ranges))
    first = np.clip(first, base, top + 1).astype(np.int64) - base
    last = np.clip(last, base - 1, top).astype(np.int64) - base
    keep = last >= first
    marks = np.zeros((_THETA.shape[0], top - base + 2), dtype=np.int32)
    np.add.at(marks, (cert[keep], first[keep]), 1)
    np.subtract.at(marks, (cert[keep], last[keep] + 1), 1)
    np.cumsum(marks, axis=1, out=marks)
    return base + np.nonzero(np.all(marks[:, :-1] > 0, axis=0))[0]


def _grid(end, t_hi: float, n: int):
    """(h, points, (a, w, q) on them) of the grid of n interior points on
    [t0, t_hi]: its n + 2 points t0 + h k, walls included."""
    t0 = float(end.t0)
    h = (t_hi - t0) / (n + 1)
    t = t0 + h * np.arange(n + 2)
    return h, t, _coefficients(end, t)


def _first_grid(end, lam, t_max):
    """(lam, wall, n, _grid, window) of the first shared grid of an end.

    The wall is t_max (finite, past t0) or the last crossing of the module
    docstring; n gives _POINTS_PER_WAVELENGTH points per shortest local
    wavelength.  lam <= 1/4 leaves an empty window on no grid (wall t0).
    """
    lam, t0 = finite("lam", lam), float(end.t0)
    if not end.field.unbounded:
        raise BoundedFieldError(
            "constant field: the essential spectrum reaches lambda and the "
            "mode sum diverges")
    if t_max is not None:
        t_max = float(t_max)
        if not (math.isfinite(t_max) and t_max > t0):
            raise ValueError(f"t_max={t_max} must be finite and exceed t0={t0}")
    if lam <= 0.25:
        return lam, t0, 0, None, np.empty(0, dtype=np.int64)
    if t_max is None:
        # rounded out to t0 + 0.5 k + 0.25, the least k >= 1 with t0 + 0.5 k
        # past the crossing: this lattice keeps every grid, n and t_hi that
        # tests, CLI pins and bench references were made on
        reach = last_crossing(end, 4.0 * max(lam, 1.0))
        t_max = t0 + 0.5 * max(1, math.ceil((reach - t0) / 0.5)) + 0.25
    per_unit = math.sqrt(lam) * _POINTS_PER_WAVELENGTH / (2.0 * math.pi)
    n = max(_N0_MIN, int((t_max - t0) * per_unit) + 1)
    grid = _grid(end, t_max, n)
    return lam, t_max, n, grid, _window(end, lam, *grid[1:])


def mode_window(end, lam: float, t_max: float | None = None) -> np.ndarray:
    """Modes count_end sweeps: those no magnetic lower bound certifies empty.

    Every mode outside the returned sorted array has, for some theta and
    s, q + s theta W' + (1 - theta) W^2 >= lambda on every sample of
    [t0, t_max] (see the module docstring), so no eigenvalue below lam.
    """
    return _first_grid(end, lam, t_max)[-1]


def count_end(end, lam: float, t_max: float | None = None) -> CountResult:
    """Dirichlet eigenvalue count of the end below lam, summed over modes.

    The end is cut at t_hi with a Dirichlet wall there: t_max, or the
    exact last crossing of |b~| = 4 max(lam, 1), rounded out as the module
    docstring says.  n is the number of interior points of the finest
    shared grid any mode of the window was counted on, and mode_range the
    smallest interval holding every mode with an eigenvalue below lam
    (None when no mode contributes).  converged is False when a mode is
    still undecided on the last of _MAX_REFINEMENTS grids, or when the
    window held more than _MAX_MODES modes; the window is then not swept
    and the count is 0.
    """
    lam, t_max, n, grid, ells = _first_grid(end, lam, t_max)
    if ells.size > _MAX_MODES:
        return CountResult(count=0, lam=lam, n=n, t_hi=t_max, converged=False)
    counts = np.zeros(ells.size, dtype=np.int64)
    active = np.arange(ells.size)
    for sweep in range(_MAX_REFINEMENTS):
        if active.size == 0:
            break
        if sweep:
            n *= 2
            grid = _grid(end, t_max, n)
        h, _, coeffs = grid
        delta = 2.0 * h * h * (lam - 0.25) ** 2 / 12.0
        at, below = mode_counts(
            *(x[1:-1] for x in coeffs), h, np.tile(ells[active], 2),
            np.repeat((lam, lam - delta), active.size)).reshape(2, -1)
        counts[active] = at
        active = active[at != below]
    live = ells[counts > 0]
    mode_range = (int(live[0]), int(live[-1])) if live.size else None
    return CountResult(count=int(counts.sum()), lam=lam, n=n, t_hi=t_max,
                       mode_range=mode_range, converged=active.size == 0)
