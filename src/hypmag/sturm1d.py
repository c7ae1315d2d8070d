"""Finite-difference counting for 1-d Dirichlet Schrodinger operators.

Operators -d^2/dt^2 + V(t) on a finite interval with Dirichlet ends are
discretized by the 3-point scheme on a uniform interior grid.  Counting
eigenvalues below a threshold uses Sylvester inertia: the number of
negative pivots of the LDL^T factorization of T - lambda equals the
number of eigenvalues of T strictly below lambda.  Individual
eigenvalues come from bisection on that count between the Gershgorin
bounds, so they inherit its robustness.

count_below sweeps one operator; mode_counts sweeps a whole family of
operators (ell - a)^2 w + q that share a grid, vectorised over ell.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        diag = np.ascontiguousarray(self.diag, dtype=float)
        off = np.ascontiguousarray(self.off, dtype=float)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diag must be a nonempty 1-d array")
        if off.shape != (diag.size - 1,):
            raise ValueError("off must have length n - 1")
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


def _veval(V, x):
    """Evaluate a potential on an array, tolerating scalar-only callables."""
    x = np.asarray(x, dtype=float)
    try:
        vals = np.asarray(V(x), dtype=float)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != x.shape:
        vals = np.array([float(V(float(xi))) for xi in x.ravel()], dtype=float)
        vals = vals.reshape(x.shape)
    return vals


def discretize(V, t_lo: float, t_hi: float, n: int) -> TridiagonalOperator:
    """3-point Dirichlet discretization of -d^2/dt^2 + V on (t_lo, t_hi).

    Uses n interior points with spacing h = (t_hi - t_lo) / (n + 1);
    diagonal 2/h^2 + V(t_i), off-diagonal -1/h^2.
    """
    if not (t_lo < t_hi):
        raise ValueError(f"need t_lo < t_hi, got [{t_lo}, {t_hi}]")
    if n < 1:
        raise ValueError("need at least one interior grid point")
    h = (t_hi - t_lo) / (n + 1)
    grid = t_lo + h * np.arange(1, n + 1)
    vals = _veval(V, grid)
    if not np.all(np.isfinite(vals)):
        i = int(np.argmin(np.isfinite(vals)))
        raise ValueError(
            f"potential is not finite at t={grid[i]!r} (grid index {i})")
    inv_h2 = 1.0 / (h * h)
    diag = 2.0 * inv_h2 + vals
    off = np.full(max(n - 1, 0), -inv_h2)
    return TridiagonalOperator(diag=diag, off=off, t_lo=float(t_lo),
                               t_hi=float(t_hi), h=float(h))


def count_below(T: TridiagonalOperator, lam: float) -> int:
    """Number of eigenvalues of T strictly below lam (Sylvester inertia)."""
    lam = float(lam)
    # memoryviews of the float64 arrays yield Python floats: the same IEEE
    # arithmetic as numpy scalars, at a fraction of the cost per point
    diag = memoryview(T.diag)
    d = diag[0] - lam
    if d == 0.0:
        # Nudge zero pivots positive: an eigenvalue sitting exactly at
        # lam must never enter the strictly-below count.
        d = _EPS * (abs(diag[0] - lam) + 1.0)
    count = 1 if d < 0.0 else 0
    for di, c in zip(diag[1:], memoryview(T.off)):
        c2 = c * c
        d = (di - lam) - c2 / d
        if d == 0.0:
            d = _EPS * (abs(di - lam) + c2 + 1.0)
        if d < 0.0:
            count += 1
    return count


# cells (grid rows times modes) of one block of mode_counts
_BLOCK_CELLS = 16384
# grid rows per evaluation of the coefficient callable in mode_counts
_COEFF_ROWS = 1024


def mode_counts(coeffs, t_lo: float, t_hi: float, n: int, ells,
                lam: float) -> np.ndarray:
    """Strict counts below lam for a family of operators on one grid.

    coeffs(t) returns arrays (a, w, q) on the grid points t; the operator
    of the mode ell is -d^2/dt^2 + (ell - a)^2 w + q on (t_lo, t_hi), with
    Dirichlet ends and the 3-point scheme on n interior points, as in
    discretize.  One LDL^T pivot recurrence runs down the grid for all
    modes at once (the lockstep of LAPACK xLAEBZ), in blocks of about
    _BLOCK_CELLS grid cells.  A block whose pivots are all nonzero is
    exact as it stands; a block with a zero pivot is redone row by row
    with the nudge of count_below, so every count equals count_below on
    the mode's own operator up to the rounding of its diagonal.
    """
    if not (t_lo < t_hi):
        raise ValueError(f"need t_lo < t_hi, got [{t_lo}, {t_hi}]")
    if n < 1:
        raise ValueError("need at least one interior grid point")
    ells = np.asarray(ells, dtype=float)
    lam = float(lam)
    m = ells.size
    counts = np.zeros(m, dtype=np.int64)
    if m == 0:
        return counts
    h = (t_hi - t_lo) / (n + 1)
    inv_h2 = 1.0 / (h * h)
    c2 = inv_h2 * inv_h2
    rows = max(1, min(_BLOCK_CELLS // m, _COEFF_ROWS))
    tmp = np.empty(m)
    prev = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for c_lo in range(0, n, _COEFF_ROWS):
            c_hi = min(n, c_lo + _COEFF_ROWS)
            a, w, q = coeffs(t_lo + h * np.arange(c_lo + 1, c_hi + 1))
            for b_lo in range(0, c_hi - c_lo, rows):
                b_hi = min(c_hi - c_lo, b_lo + rows)
                # alpha = (2/h^2 + (ell - a)^2 w + q) - lam, built in place
                alpha = ells - a[b_lo:b_hi, None]
                alpha *= alpha
                alpha *= w[b_lo:b_hi, None]
                alpha += q[b_lo:b_hi, None]
                np.add(2.0 * inv_h2, alpha, out=alpha)
                alpha -= lam
                piv = np.empty_like(alpha)
                if prev is None:
                    piv[0] = alpha[0]
                else:
                    np.divide(c2, prev, out=tmp)
                    np.subtract(alpha[0], tmp, out=piv[0])
                for i in range(1, b_hi - b_lo):
                    np.divide(c2, piv[i - 1], out=tmp)
                    np.subtract(alpha[i], tmp, out=piv[i])
                if not piv.all():
                    _nudged_rows(alpha, c2, prev, piv)
                counts += (piv < 0.0).sum(axis=0)
                prev = piv[-1].copy()
    return counts


def _nudged_rows(alpha, c2, prev, piv):
    """Redo a block's pivots row by row, nudging zero pivots positive."""
    for i in range(alpha.shape[0]):
        if prev is None:
            d = alpha[i].copy()
            nudge = _EPS * (np.abs(alpha[i]) + 1.0)
        else:
            d = alpha[i] - c2 / prev
            nudge = _EPS * (np.abs(alpha[i]) + c2 + 1.0)
        zero = d == 0.0
        d[zero] = nudge[zero]
        piv[i] = d
        prev = d


def lowest_eigenvalues(T: TridiagonalOperator, k: int, tol: float = 1e-10) -> list[float]:
    """The k smallest eigenvalues by bisection on the inertia count.

    Multiple eigenvalues come out as repeated values agreeing to tol.
    """
    if not (1 <= k <= T.n):
        raise ValueError(f"k must be in 1..{T.n}, got {k}")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    glo, ghi = T.gershgorin()
    out = []
    for j in range(1, k + 1):
        lo, hi = glo - 1.0, ghi + 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if count_below(T, mid) >= j:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return out
