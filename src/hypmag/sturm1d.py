"""Finite-difference counting for 1-d Dirichlet Schrodinger operators.

Operators -d^2/dt^2 + V(t) on a finite interval with Dirichlet ends are
discretized by the 3-point scheme on a uniform interior grid.  Counting
eigenvalues below a threshold uses Sylvester inertia: the number of
negative pivots of the LDL^T factorization of T - lambda equals the
number of eigenvalues of T strictly below lambda.  Individual
eigenvalues come from bisection on that count between the Gershgorin
bounds, so they inherit its robustness.

count_below sweeps one operator with a scalar pivot recurrence on Python
floats (about 0.1 us per row swept).  mode_counts sweeps a family of
operators (ell - a)^2 w + q on one grid in numpy lockstep (1.5 to 4 us
per row) while more than _NARROW modes are in play, then on that recurrence.

The sweeps stop once the count is final, which on a classically
forbidden tail skips most of the grid.  With couplings e_i = sqrt(c2_{i+1})
(0 past the ends) and s = _SLACK, let every row from r on be dominant,
alpha_i >= (1 + s)(e_{i-1} + e_i), and the pivot carried into r be
d >= (1 + s) e_{r-1}.  Then d_i >= (1 + s/2) e_i for every later i: from
it for i - 1, c2_i / d_{i-1} <= e_{i-1}, so d_i >= (1 + s) e_i + s e_{i-1}
(a zero is nudged).  No later pivot is negative, and the cut is exact:
the few ulps each step rounds by are far below the slack s/2.

mode_counts reads the tails off the coefficients.  With lam the largest
threshold, the modes a row leaves short of dominance with slack 2 s,
(ell - a)^2 w < lam - q + 4 s/h^2, form one interval a -+ x; outside it
the computed alpha = 2/h^2 + (ell - a)^2 w + q - lam is dominant with
slack s, as 16 eps (|lam| + |q|) added to lam - q and 4 eps (x + |a|) to x
cover the ulps of the terms, their sums and the interval, and the spare
2 s/h^2 those of 2/h^2.  A non-finite a or q, or a NaN or negative w,
leaves every mode short; w = +inf (a cusp wall) only a.  A column past
its cut may sweep on in the lockstep: its pivots stay positive.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix plus the grid it came from."""

    diag: np.ndarray
    off: np.ndarray
    t_lo: float
    t_hi: float
    h: float

    def __post_init__(self):
        diag = np.ascontiguousarray(self.diag, dtype=float).view()
        off = np.ascontiguousarray(self.off, dtype=float).view()
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diag must be a nonempty 1-d array")
        if off.shape != (diag.size - 1,):
            raise ValueError("off must have length n - 1")
        with np.errstate(over="ignore"):
            if not ((diag > -np.inf).all() and np.isfinite(off * off).all()):
                raise ValueError("diag must be finite or +inf, and off^2 finite")
        # read-only views: _tail_floors caches a summary of them
        diag.flags.writeable = off.flags.writeable = False
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off", off)

    @property
    def n(self) -> int:
        return self.diag.size

    def gershgorin(self) -> tuple[float, float]:
        """Interval certainly containing the whole spectrum."""
        n = self.n
        radius = np.zeros(n)
        if n > 1:
            radius[:-1] += np.abs(self.off)
            radius[1:] += np.abs(self.off)
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))

    @cached_property
    def _tail_floors(self) -> list[float]:
        """Entry b: every row from b _CUT_ROWS on is dominant for lam <= it.

        min diag - (1 + s) radius over those rows (radius from sqrt(off^2),
        as the sweep sees the couplings), less 2 eps |.|
        for the rounding of diag - lam; built a _COEFF_ROWS block at a time.
        """
        n, mins = self.n, []
        for lo in range(0, n, _COEFF_ROWS):
            hi = min(n, lo + _COEFF_ROWS)
            k0, k1 = max(lo - 1, 0), min(hi, n - 1)  # couplings to rows lo - 1 .. hi
            e = np.sqrt(np.pad(self.off[k0:k1] ** 2, (k0 + 1 - lo, hi - k1)))
            floor = self.diag[lo:hi] - (1.0 + _SLACK) * (e[:-1] + e[1:])
            mins.append(np.minimum.reduceat(floor, np.arange(0, hi - lo, _CUT_ROWS)))
        f = np.minimum.accumulate(np.concatenate(mins)[::-1])[::-1]
        return (f * (1.0 - 2.0 * _EPS * np.sign(f))).tolist()


def discretize(V, t_lo: float, t_hi: float, n: int) -> TridiagonalOperator:
    """3-point Dirichlet discretization of -d^2/dt^2 + V on (t_lo, t_hi).

    Uses n interior points with spacing h = (t_hi - t_lo) / (n + 1);
    diagonal 2/h^2 + V(t_i), off-diagonal -1/h^2.  V is called once on
    the array of grid points; a scalar result is broadcast.
    """
    if not (t_lo < t_hi):
        raise ValueError(f"need t_lo < t_hi, got [{t_lo}, {t_hi}]")
    if n < 1:
        raise ValueError("need at least one interior grid point")
    h = (t_hi - t_lo) / (n + 1)
    grid = t_lo + h * np.arange(1, n + 1)
    vals = np.broadcast_to(np.asarray(V(grid), dtype=float), grid.shape)
    if not np.all(np.isfinite(vals)):
        i = int(np.argmin(np.isfinite(vals)))
        raise ValueError(
            f"potential is not finite at t={float(grid[i])!r} (grid index {i})")
    inv_h2 = 1.0 / (h * h)
    diag = 2.0 * inv_h2 + vals
    off = np.full(max(n - 1, 0), -inv_h2)
    return TridiagonalOperator(diag=diag, off=off, t_lo=float(t_lo),
                               t_hi=float(t_hi), h=float(h))


def count_below(T: TridiagonalOperator, lam: float) -> int:
    """Number of eigenvalues of T strictly below lam (Sylvester inertia).

    About 0.1 us per row swept: the sweep stops in the dominant tail that
    a bisection in T._tail_floors finds (see the module docstring).
    """
    lam = float(lam)
    tail = _CUT_ROWS * bisect_left(T._tail_floors, lam)
    count, d = 0, math.inf
    for lo in range(0, T.n, _COEFF_ROWS):
        hi = min(T.n, lo + _COEFF_ROWS)
        c = T.off[lo - 1:hi - 1] if lo else np.concatenate(([0.0], T.off[:hi - 1]))
        k, d, final = _cut_sweep(T.diag[lo:hi] - lam, (c * c).tolist(), d, tail - lo)
        count += k
        if final:
            break
    return count


def _pivot_sweep(alpha, c2s, d):
    """(negative pivots, last pivot) of the LDL^T recurrence over some rows.

    alpha holds diagonal entries minus lambda, c2s the squared couplings
    to the row before, whose pivot is d (d = inf and c2 = 0 before the
    first row).  Zero pivots are nudged positive: an eigenvalue exactly
    at lambda must not enter the strict count.
    """
    count = 0
    for a, c2 in zip(alpha, c2s):
        d = a - c2 / d
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = _EPS * (abs(a) + c2 + 1.0)
    return count, d


def _cut_sweep(alpha, c2s, d, tail):
    """(negative pivots, last pivot, stopped) of _pivot_sweep over some rows.

    alpha is an array, c2s a list.  The rows from index tail on, and all
    later rows of the operator, are dominant (module docstring); there the
    pivot is tested every _CUT_ROWS rows, and the sweep stops at the first
    row r with d >= (1 + s) e_{r-1}.  An infinite alpha (a cusp wall) is
    dominant: its pivot is inf, and the next quotient 0.
    """
    count, lo = 0, 0
    for hi in range(max(tail, 0), alpha.size, _CUT_ROWS):
        k, d = _pivot_sweep(alpha[lo:hi].tolist(), c2s[lo:hi], d)
        count, lo = count + k, hi
        if d >= 0.0 and d * d >= (1.0 + _SLACK) ** 2 * c2s[hi]:
            return count, d, True
    k, d = _pivot_sweep(alpha[lo:].tolist(), c2s[lo:] if lo else c2s, d)
    return count + k, d, False


# grid rows per scalar sweep and per block of _tail_floors
_COEFF_ROWS = 1024
# relative slack of the dominance tests of _cut_sweep
_SLACK = 1e-8
# rows between pivot tests of _cut_sweep and per entry of _tail_floors
_CUT_ROWS = 64
# cells (grid rows times modes) of one lockstep block of mode_counts
_BLOCK_CELLS = 16384
# widest batch mode_counts runs mode by mode on the scalar recurrence
_NARROW = 16


def _lockstep(alpha, d, c2):
    """Pivots of alpha's rows from those d of the row before (LAPACK xLAEBZ)."""
    divide, subtract = np.divide, np.subtract
    piv = np.empty_like(alpha)
    for a_row, p_row in zip(alpha, piv):
        divide(c2, d, p_row)
        subtract(a_row, p_row, p_row)
        d = p_row
    return piv


def mode_counts(a, w, q, h: float, ells, lam) -> np.ndarray:
    """Strict counts below lam for a family of operators on one grid.

    a, w and q hold the coefficients on the n interior points of a grid of
    step h; the operator of the mode ell is -d^2/dt^2 + (ell - a)^2 w + q
    there, with Dirichlet ends and the 3-point scheme, as in discretize;
    lam is a scalar or per-mode thresholds broadcast to ells.  Each count
    equals count_below on the mode's own operator at its lam up to the
    rounding of its diagonal.  Past a, w and q it holds a few floats per
    row while it finds the tails, then one lockstep block.

    The modes run as columns sorted by ell; one suffix-hull pass over the
    rows finds their tails (module docstring) in O(n + modes log n).  The
    columns in play form one slice, swept in numpy lockstep in blocks of
    about _BLOCK_CELLS cells (redone on the scalar recurrence at a zero
    pivot), that every _CUT_ROWS rows drops the columns at its ends past
    their cuts; at _NARROW columns they finish on count_below's loop, a
    _COEFF_ROWS block at a time.
    """
    a, w, q = (np.asarray(x, dtype=float) for x in (a, w, q))
    n = a.size
    if not (a.ndim == 1 and a.shape == w.shape == q.shape and n >= 1):
        raise ValueError("a, w and q must be 1-d arrays of one nonzero length")
    h = float(h)
    if not (0.0 < h < math.inf):
        raise ValueError(f"need a finite grid step h > 0, got {h}")
    ells = np.asarray(ells, dtype=float)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), ells.shape)
    m = ells.size
    counts = np.zeros(m, dtype=np.int64)
    if m == 0:
        return counts
    order = np.argsort(ells, kind="stable")
    ells, lam = ells[order], lam[order]
    inv_h2 = 1.0 / (h * h)
    c2 = inv_h2 * inv_h2

    def alphas(rows, cols):
        # alpha = (2/h^2 + (ell - a)^2 w + q) - lam on the rows
        alpha = ells[cols] - a[rows, None]
        alpha *= alpha
        alpha *= w[rows, None]
        alpha += q[rows, None]
        np.add(2.0 * inv_h2, alpha, out=alpha)
        alpha -= lam[cols]
        return alpha

    # an overflowing (ell - a)^2 w is an infinite diagonal: a positive pivot
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # tails: a row leaves a -+ x short (NaN x: no mode; unfit: all), and
        # a mode's tail is one past the last row whose suffix hull holds it
        top = float(np.max(lam))
        spare = top + 4.0 * _SLACK * inv_h2 + 16.0 * _EPS * abs(top)
        r2 = (spare - q + 16.0 * _EPS * np.abs(q)) / w
        x = np.sqrt(r2) * (1.0 + 4.0 * _EPS) + 4.0 * _EPS * np.abs(a)
        unfit = ~(np.isfinite(a) & (w >= 0.0) & (r2 == r2))
        left = np.fmin.accumulate(np.where(unfit, -np.inf, a - x)[::-1])[::-1]
        right = np.fmax.accumulate(np.where(unfit, np.inf, a + x)[::-1])[::-1]
        tail = np.searchsorted(left, ells, "right")
        np.minimum(tail, n - np.searchsorted(right[::-1], ells), out=tail)
        tail = -(-tail // _CUT_ROWS) * _CUT_ROWS
        prev, final = np.full(m, math.inf), np.zeros(m, dtype=bool)
        # the slice j0:j1 of columns in play; none is final before row test
        j0, j1, r, test = 0, m, 0, int(tail.min())
        while r < n:
            if r == test:
                d = prev[j0:j1]
                final[j0:j1] |= ((tail[j0:j1] <= r) & (d >= 0.0)
                                 & (d * d >= (1.0 + _SLACK) ** 2 * c2))
                live = ~final[j0:j1]  # argmax: the first live one
                if not live.any():
                    break
                j1 -= int(live[::-1].argmax())
                j0 += int(live.argmax())
                test = max(r + _CUT_ROWS, int(tail[j0:j1].min()))
            narrow = j1 - j0 <= _NARROW
            # the last columns finish alone, a _COEFF_ROWS block at a time
            hi = (min(n, (r // _COEFF_ROWS + 1) * _COEFF_ROWS) if narrow
                  else min(n, r + max(1, _BLOCK_CELLS // (j1 - j0)), test))
            alpha = alphas(slice(r, hi), slice(j0, j1))
            # squared couplings to the row before; none at row 0
            c2s = [c2 * (r > 0)] + [c2] * (hi - r - 1)
            if narrow:
                for j in j0 + np.flatnonzero(~final[j0:j1]):
                    k, prev[j], final[j] = _cut_sweep(
                        alpha[:, j - j0], c2s, float(prev[j]), tail[j] - r)
                    counts[j] += k
                test = hi
            else:
                piv = _lockstep(alpha, prev[j0:j1], c2)
                if piv.all():
                    counts[j0:j1] += (piv < 0.0).sum(axis=0)
                    prev[j0:j1] = piv[-1]
                else:
                    for j in range(j0, j1):
                        k, prev[j] = _pivot_sweep(
                            alpha[:, j - j0].tolist(), c2s, float(prev[j]))
                        counts[j] += k
            r = hi
    out = np.empty_like(counts)
    out[order] = counts
    return out


def lowest_eigenvalues(T: TridiagonalOperator, k: int, tol: float = 1e-10) -> list[float]:
    """The k smallest eigenvalues by bisection on the inertia count.

    Multiple eigenvalues come out as repeated values agreeing to tol.
    Each is bisected from [glo - 1, ghi + 1] (Gershgorin bounds) until the
    bracket is narrower than tol or its midpoint rounds to an end.  As in
    LAPACK xSTEBZ, every count narrows the brackets of all indices (the
    count is monotone in IEEE arithmetic too: Demmel, Dhillon & Ren, ETNA
    3, 1995).  Counts at glo + 2^i, until k eigenvalues lie below, spare
    the descent from ghi, near 4/h^2 on a discretized grid.
    """
    if not (1 <= k <= T.n):
        raise ValueError(f"k must be in 1..{T.n}, got {k}")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    glo, ghi = T.gershgorin()
    # largest (smallest) points known to have < j (>= j) eigenvalues below
    under, over = [-math.inf] * (k + 1), [math.inf] * (k + 1)

    def count(x):
        c = count_below(T, x)
        over[1:c + 1] = [min(o, x) for o in over[1:c + 1]]
        under[c + 1:] = [max(u, x) for u in under[c + 1:]]
        return c
    step = 1.0
    while glo + step < ghi + 1.0 and count(glo + step) < k:
        step *= 2.0
    out = []
    for j in range(1, k + 1):
        lo, hi = glo - 1.0, ghi + 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if mid >= over[j] or (mid > under[j] and count(mid) >= j):
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return out
