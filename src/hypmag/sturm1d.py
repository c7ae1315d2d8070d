"""Finite-difference counting for 1-d Dirichlet Schrodinger operators.

Operators -d^2/dt^2 + V(t) on a finite interval with Dirichlet ends are
discretized by the 3-point scheme on a uniform interior grid.  Counting
eigenvalues below a threshold uses Sylvester inertia: the number of
negative pivots of the LDL^T factorization of T - lambda equals the
number of eigenvalues of T strictly below lambda.  Individual
eigenvalues come from bisection on that count between the Gershgorin
bounds, so they inherit its robustness; estimates of them only bracket
them sooner and never change them, as the count is monotone.

A zero pivot is nudged to eps (|alpha| + 1), alpha the row's diagonal
entry minus lambda, so that an eigenvalue exactly at lambda is not
counted.  The nudge reads no coupling.  Its size can set the sign of the
next pivot, alpha' - c2' / nudge, and a row entered from d = +inf (row 0,
a row past a +inf wall) has c2 / d = 0: its c2 is not in effect, so the
row is nudged as the first row of its own block is.

count_below sweeps one operator with a scalar pivot recurrence on Python
floats: 50 to 70 ns per row swept where every row has one coupling c2, as
on every discretize grid and mode family, and about 0.1 us with a coupling
per row.  mode_counts sweeps a family of operators (ell - a)^2 w + q on
one grid in numpy lockstep (1.5 to 4 us per row) while more than _NARROW
modes are in play, then on that recurrence.

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
2 s/h^2 those of 2/h^2.  x is sqrt(lam - q + ...) / sqrt(w), three
roundings, as the root of the quotient overflows where w is subnormal.
A non-finite a or q, or a NaN or negative w, leaves every mode short;
w = +inf (a cusp wall) only a.  A column past its cut may sweep on in
the lockstep: its pivots stay positive.
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
    """Symmetric tridiagonal matrix: diag finite or +inf, off^2 finite."""

    diag: np.ndarray
    off: np.ndarray

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
        # read-only views: _coupling and _tail_floors cache summaries of them
        diag.flags.writeable = off.flags.writeable = False
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off", off)

    @property
    def n(self) -> int:
        return self.diag.size

    def gershgorin(self) -> tuple[float, float]:
        """Interval holding the spectra of the blocks between +inf rows."""
        radius = np.zeros(self.n)
        radius[:-1] += np.abs(self.off)
        radius[1:] += np.abs(self.off)
        hi = np.max(self.diag + radius, where=self.diag < np.inf, initial=-np.inf)
        return float(np.min(self.diag - radius)), float(hi)

    @cached_property
    def _coupling(self) -> float | np.ndarray:
        """The squared coupling of every row to the one before: one float if
        all are equal (0.0 for n = 1), else their array, 0.0 at row 0."""
        c2 = self.off * self.off
        if not (c2 == c2[:1]).all():
            return np.concatenate(([0.0], c2))
        return float(c2[0]) if c2.size else 0.0

    @cached_property
    def _tail_floors(self) -> list[float]:
        """Entry b: every row from b _CUT_ROWS on is dominant for lam <= it.

        min diag - (1 + s) radius over those rows (radius from sqrt(off^2),
        as the sweep sees the couplings), less 2 eps |.| for the rounding
        of diag - lam.
        """
        e = np.sqrt(np.pad(self.off ** 2, 1))
        floor = self.diag - (1.0 + _SLACK) * (e[:-1] + e[1:])
        f = np.minimum.reduceat(floor, np.arange(0, self.n, _CUT_ROWS))
        f = np.minimum.accumulate(f[::-1])[::-1]
        with np.errstate(over="ignore"):  # past -max: -inf, no cut
            return (f * (1.0 - 2.0 * _EPS * np.sign(f))).tolist()


def discretize(V, t_lo: float, t_hi: float, n: int) -> TridiagonalOperator:
    """3-point Dirichlet discretization of -d^2/dt^2 + V on (t_lo, t_hi).

    Uses n interior points t_i = t_lo + i h, h = (t_hi - t_lo) / (n + 1);
    diagonal 2/h^2 + V(t_i), off-diagonal -1/h^2.  V is called once on
    the array of grid points; a scalar result is broadcast.  The operator
    keeps no grid: a caller that needs h or t_i computes them so.
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
    return TridiagonalOperator(diag=2.0 * inv_h2 + vals,
                               off=np.full(n - 1, -inv_h2))


def count_below(T: TridiagonalOperator, lam: float) -> int:
    """Number of eigenvalues of T strictly below lam (Sylvester inertia).

    50 to 70 ns per row swept where every coupling is one float (every
    discretize grid), about 0.1 us on blocks of T._coupling's array; the
    sweep stops in the dominant tail that a bisection in T._tail_floors
    finds (module docstring).  lam = inf counts the finite rows (a +inf
    row is a wall between blocks), NaN is refused.
    """
    lam = float(lam)
    if math.isnan(lam):
        raise ValueError("lam must not be NaN")
    if lam == math.inf:
        return int(np.count_nonzero(T.diag < math.inf))
    tail = _CUT_ROWS * bisect_left(T._tail_floors, lam)
    count, d = 0, math.inf
    for lo in range(0, T.n, _COEFF_ROWS):
        hi = min(T.n, lo + _COEFF_ROWS)
        with np.errstate(over="ignore"):  # alpha may reach -+inf
            alpha, c2 = T.diag[lo:hi] - lam, T._coupling
        if not isinstance(c2, float):
            c2 = c2[lo:hi].tolist()
        k, d, final = _cut_sweep(alpha.tolist(), c2, d, tail - lo)
        count += k
        if final:
            break
    return count


def _pivot_sweep(alpha, c2, d):
    """(negative pivots, last pivot) of the LDL^T recurrence over some rows.

    alpha is a list of diagonal entries minus lambda, c2 the squared
    coupling of each row to the row before: one float for every row, or a
    list of one per row.  The pivot of the row before is d (d = inf before
    the first row).  A zero pivot becomes eps (|alpha| + 1), whatever c2
    (module docstring).  An alpha of +inf is a wall, one of -inf (diag -
    lambda past the float range) a negative pivot; the next quotient is 0.
    """
    count = 0
    if isinstance(c2, float):
        for a in alpha:
            d = a - c2 / d
            if d <= 0.0:
                if d < 0.0:
                    count += 1
                else:
                    d = _EPS * (abs(a) + 1.0)
        return count, d
    for a, c2i in zip(alpha, c2):
        d = a - c2i / d
        if d <= 0.0:
            if d < 0.0:
                count += 1
            else:
                d = _EPS * (abs(a) + 1.0)
    return count, d


def _cut_sweep(alpha, c2, d, tail):
    """(negative pivots, last pivot, stopped) of _pivot_sweep over some rows.

    alpha and c2 are as for _pivot_sweep.  The rows from index tail on,
    and all later rows of the operator, are dominant (module docstring);
    there the pivot is tested every _CUT_ROWS rows, and the sweep stops at
    the first row r with d >= (1 + s) e_{r-1}.  An infinite alpha (a cusp
    wall) is dominant: its pivot is inf, and the next quotient 0.
    """
    uniform = isinstance(c2, float)
    count, lo = 0, 0
    for hi in range(max(tail, 0), len(alpha), _CUT_ROWS):
        k, d = _pivot_sweep(alpha[lo:hi], c2 if uniform else c2[lo:hi], d)
        count, lo = count + k, hi
        if d >= 0.0 and d * d >= (1.0 + _SLACK) ** 2 * (c2 if uniform else c2[hi]):
            return count, d, True
    if lo:
        alpha, c2 = alpha[lo:], c2 if uniform else c2[lo:]
    k, d = _pivot_sweep(alpha, c2, d)
    return count + k, d, False


# grid rows per scalar sweep
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
    lam is a scalar or per-mode thresholds broadcast to ells, and no ell
    or lam may be NaN.  Each count equals count_below on the mode's own
    operator at its lam up to the rounding of its diagonal.  Past a, w and
    q it holds a few floats per row while it finds the tails, then one
    lockstep block.

    The modes run as columns sorted by ell; one suffix-hull pass over the
    rows finds their tails (module docstring) in O(n + modes log n).  The
    columns in play form one slice, swept in numpy lockstep in blocks of
    about _BLOCK_CELLS cells (redone on the scalar recurrence at a zero
    pivot), that every _CUT_ROWS rows drops the columns at its ends past
    their cuts; at _NARROW columns they finish on count_below's loop, a
    _COEFF_ROWS block at a time.
    """
    a, w, q = [np.asarray(x, dtype=float) for x in (a, w, q)]
    n = a.size
    if not (a.ndim == 1 and a.shape == w.shape == q.shape and n >= 1):
        raise ValueError("a, w and q must be 1-d arrays of one nonzero length")
    h = float(h)
    if not (0.0 < h < math.inf):
        raise ValueError(f"need a finite grid step h > 0, got {h}")
    ells, lam = np.asarray(ells, dtype=float), np.asarray(lam, dtype=float)
    if lam.shape != ells.shape:
        lam = np.broadcast_to(lam, ells.shape)
    for name, x in (("ells", ells), ("lam", lam)):
        if np.isnan(x).any():
            raise ValueError(f"{name} must not be NaN")
    m = ells.size
    counts = np.zeros(m, dtype=np.int64)
    if m == 0:
        return counts
    order = ells.argsort(kind="stable")
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
        # tails: a row leaves a -+ x short (NaN x: no mode; not fit: all), and
        # a mode's tail is one past the last row whose suffix hull holds it
        top = float(lam.max())
        spare = top + 4.0 * _SLACK * inv_h2 + 16.0 * _EPS * abs(top)
        x = np.sqrt(spare - q + 16.0 * _EPS * np.abs(q)) / np.sqrt(w)
        x[w == np.inf] = 0.0
        x *= 1.0 + 4.0 * _EPS
        x += 4.0 * _EPS * np.abs(a)
        fit = np.isfinite(a) & np.isfinite(q) & (w >= 0.0)
        left = np.fmin.accumulate(np.where(fit, a - x, -np.inf)[::-1])[::-1]
        # the suffix hull's right ends, from the far wall in
        right = np.fmax.accumulate(np.where(fit, a + x, np.inf)[::-1])
        tail = left.searchsorted(ells, "right")
        np.minimum(tail, n - right.searchsorted(ells), out=tail)
        tail = (tail + (_CUT_ROWS - 1)) // _CUT_ROWS * _CUT_ROWS
        prev, final = np.full(m, math.inf), np.zeros(m, dtype=bool)
        # the slice j0:j1 of columns in play; none is final before row test
        j0, j1, r, test = 0, m, 0, int(tail.min())
        while r < n:
            if r == test:
                d = prev[j0:j1]
                final[j0:j1] |= ((tail[j0:j1] <= r) & (d >= 0.0)
                                 & (d * d >= (1.0 + _SLACK) ** 2 * c2))
                live = (~final[j0:j1]).nonzero()[0]
                if not live.size:
                    break
                j0, j1 = j0 + int(live[0]), j0 + int(live[-1]) + 1
                test = max(r + _CUT_ROWS, int(tail[j0:j1].min()))
            narrow = j1 - j0 <= _NARROW
            # the last columns finish alone, a _COEFF_ROWS block at a time
            hi = (min(n, (r // _COEFF_ROWS + 1) * _COEFF_ROWS) if narrow
                  else min(n, r + max(1, _BLOCK_CELLS // (j1 - j0)), test))
            alpha = alphas(slice(r, hi), slice(j0, j1))
            if narrow:
                for j in j0 + (~final[j0:j1]).nonzero()[0]:
                    k, prev[j], final[j] = _cut_sweep(
                        alpha[:, j - j0].tolist(), c2, float(prev[j]), tail[j] - r)
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
                            alpha[:, j - j0].tolist(), c2, float(prev[j]))
                        counts[j] += k
            r = hi
    out = np.empty_like(counts)
    out[order] = counts
    return out


def lowest_eigenvalues(T: TridiagonalOperator, k: int, tol: float = 1e-10, *,
                       near=None) -> list[float]:
    """The k smallest eigenvalues by bisection on the inertia count.

    k may not exceed the finite rows (a +inf row is a Dirichlet wall), and
    multiple eigenvalues come out as repeated values agreeing to tol.
    Index j is bracketed from counts at g -+ w, w = tol, 8 tol, ..., on a
    side still unknown, g = near[j] (one finite estimate per index; by
    default the Gershgorin floor glo), until the bracket or w spans
    [glo - 1, ghi + 1], then bisected from there until narrower than tol
    or its midpoint rounds to an end.  As in LAPACK xSTEBZ, every count
    narrows the brackets of all indices, and a midpoint whose side they
    know is not counted: the count is monotone in IEEE arithmetic too
    (Demmel, Dhillon & Ren, ETNA 3, 1995), so the values are those of
    plain bisection whatever the estimates, and no point is counted twice.
    """
    rows = int(np.count_nonzero(T.diag < math.inf))
    if not (1 <= k <= rows):
        raise ValueError(f"k must be in 1..{rows} (the finite rows), got {k}")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    glo, ghi = T.gershgorin()
    near = [glo] * k if near is None else [float(g) for g in near]
    if len(near) != k or not all(map(math.isfinite, near)):
        raise ValueError(f"near must hold k = {k} finite estimates")
    # largest (smallest) points known to have < j (>= j) eigenvalues below
    under, over = [-math.inf] * (k + 1), [math.inf] * (k + 1)

    def count(x):
        c = count_below(T, x)
        over[1:c + 1] = [min(o, x) for o in over[1:c + 1]]
        under[c + 1:] = [max(u, x) for u in under[c + 1:]]
        return c
    for j, g in enumerate(near, 1):
        # windows g -+ w, w = tol, 8 tol, ... (no narrower than g's ulp)
        w = max(tol, math.ulp(g)) / 8.0
        while w < ghi - glo + 2.0 and (under[j] < g - w or over[j] > g + w):
            w *= 8.0
            for x in (g + w, g - w):
                if under[j] < x < over[j]:
                    count(x)
    out = []
    for j in range(1, k + 1):
        lo, hi = glo - 1.0, ghi + 1.0
        while hi - lo > tol:
            mid = 0.5 * lo + 0.5 * hi
            if mid == lo or mid == hi:
                break
            if mid >= over[j] or (mid > under[j] and count(mid) >= j):
                hi = mid
            else:
                lo = mid
        out.append(0.5 * lo + 0.5 * hi)
    return out
