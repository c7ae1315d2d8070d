"""References for the benchmark, computed apart from hypmag.

Nothing here imports hypmag.  An end is a plain dict

    {"kind": "funnel" | "cusp", "coeffs": [c0, c1, ...],
     "scale": tau (funnel) or L (cusp), "t0": ..., "xi": ...}

with the field b~ = sum c_i x^i, x = cosh t on funnels and x = e^t on
cusps.  Two kinds of reference live here:

* dense_count: the Dirichlet eigenvalue count of an end strictly below
  lambda, from LAPACK (scipy.linalg.eigvalsh_tridiagonal) on per-mode
  grids built from the closed-form mode potentials
      V_ell(t) = (ell - a(t))^2 w(t) + q(t),
  funnel: w = sech^2 t / tau^2,  q = (1 + sech^2 t) / 4,
  cusp:   w = e^{2t} / L^2,      q = 1/4,
  with a the integral of a' = -tau b~ cosh t (funnel) or a' = -L b~ e^{-t}
  (cusp) from a(t0) = xi.  Each near-threshold eigenvalue is decided by
  Richardson extrapolation over two grids; a count that cannot be decided
  raises Undecided instead of being written.
* closed forms of the phase-space side (weyl_integral, omega) for the
  fields b~ = c cosh t, c cosh^2 t and c e^t, with mu = lambda - 1/4.

Run as a script, it recomputes the reference counts of the benchmark's
count queries and writes them to reference.json beside this file (about
20 s); `git diff bench/reference.json` then shows any count that changed:

    python3 bench/oracle.py

scipy is imported only where a count is computed: the timed set-up of a
run imports this module for its closed forms, and must load nothing that
hypmag does not load itself.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

import panel

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# The window of modes reaches out to where the field intensity is this many
# times lambda: a well there has its ground level near 1/4 + |b~| >> lambda.
# The wells of the EDGE_MODES modes turning at that edge must be empty, or
# the window is widened.
INTENSITY_FACTOR = 8.0
EDGE_MODES = 8
# Dirichlet walls sit this many decay lengths 1/sqrt(lambda) beyond the
# last point where the potential is below 2 lambda.
WALL_DECAY_LENGTHS = 12.0
MAX_REFINEMENTS = 7
WINDOW_GRID = 40000     # points of the grid the mode window is read from


class Undecided(RuntimeError):
    """The grids could not decide on which side of lambda an eigenvalue lies."""


# ---------------------------------------------------------------------------
# closed-form model of an end


def _x(end, t):
    return np.cosh(t) if end["kind"] == "funnel" else np.exp(t)


def field(end, t):
    """Signed profile b~(t)."""
    x = _x(end, np.asarray(t, dtype=float))
    return sum(c * x ** i for i, c in enumerate(end["coeffs"]))


def _cosh_power_integral(n, t):
    """A primitive of cosh^n t for n = 1, 2, 3."""
    if n == 1:
        return np.sinh(t)
    if n == 2:
        return t / 2.0 + np.sinh(2.0 * t) / 4.0
    if n == 3:
        s = np.sinh(t)
        return s + s ** 3 / 3.0
    raise ValueError("funnel fields of degree above 2 have no closed form here")


def gauge(end, t):
    """a(t) with a(t0) = xi, from a' = -tau b~ cosh t or a' = -L b~ e^{-t}."""
    t = np.asarray(t, dtype=float)
    t0 = end["t0"]
    acc = np.zeros_like(t)
    for i, c in enumerate(end["coeffs"]):
        if c == 0.0:
            continue
        if end["kind"] == "funnel":
            acc = acc + c * (_cosh_power_integral(i + 1, t)
                             - _cosh_power_integral(i + 1, t0))
        elif i == 0:
            acc = acc + c * (math.exp(-t0) - np.exp(-t))
        elif i == 1:
            acc = acc + c * (t - t0)
        else:
            acc = acc + c * (np.exp((i - 1) * t) - math.exp((i - 1) * t0)) / (i - 1)
    return end["xi"] - end["scale"] * acc


def weight_and_floor(end, t):
    """(w, q) of V_ell = (ell - a)^2 w + q."""
    t = np.asarray(t, dtype=float)
    if end["kind"] == "funnel":
        sech2 = 1.0 / np.cosh(t) ** 2
        return sech2 / end["scale"] ** 2, 0.25 * (1.0 + sech2)
    return np.exp(2.0 * t) / end["scale"] ** 2, np.full_like(t, 0.25)


def mode_potential(end, ell, t):
    w, q = weight_and_floor(end, t)
    d = ell - gauge(end, t)
    return d * d * w + q


# ---------------------------------------------------------------------------
# dense count


def _window_edge(end, lam, factor):
    """Radius beyond which |b~| stays above factor * lambda."""
    target = factor * lam
    t = end["t0"]
    while t < end["t0"] + 200.0:
        if np.all(np.abs(field(end, np.linspace(t, t + 4.0, 65))) >= target):
            return t
        t += 0.25
    raise Undecided(f"field intensity stays below {target}")


def mode_window(end, lam, factor=INTENSITY_FACTOR):
    """Every ell whose potential dips below lam on a grid out to the edge.

    Returns (ell_lo, ell_hi, grid, a, w, q).
    """
    grid = np.linspace(end["t0"], _window_edge(end, lam, factor), WINDOW_GRID)
    a = gauge(end, grid)
    w, q = weight_and_floor(end, grid)
    ok = q < lam
    r = np.sqrt((lam - q[ok]) / w[ok])
    lo = int(math.floor(float(np.min(a[ok] - r))))
    hi = int(math.ceil(float(np.max(a[ok] + r))))

    def dips(ell):
        return bool(np.any((ell - a) ** 2 * w + q < lam))

    while lo <= hi and not dips(lo):
        lo += 1
    while hi >= lo and not dips(hi):
        hi -= 1
    return lo, hi, grid, a, w, q


def _walls(grid, first, last, lam):
    """Dirichlet walls around grid[first..last], WALL_DECAY_LENGTHS out."""
    margin = WALL_DECAY_LENGTHS / math.sqrt(lam)
    h = float(grid[1] - grid[0])
    return (max(float(grid[0]), float(grid[first]) - h - margin),
            float(grid[last]) + h + margin)


def _hull(ell, lam, grid, a, w, q):
    """Interval holding every grid point where V_ell < 2 lam, plus walls."""
    idx = np.nonzero((ell - a) ** 2 * w + q < 2.0 * lam)[0]
    return _walls(grid, int(idx[0]), int(idx[-1]), lam)


def _edge_wells_empty(end, lam, grid, a, w, q, factor):
    """Whether the wells of the modes turning at the grid's outer edge are empty.

    The wells of modes turning beyond the edge are left out of the count;
    they sit where the field is stronger still.  Checked: the wells of up to
    EDGE_MODES modes turning where |b~| >= factor * lam / 2.
    """
    inward = 1.0 if a[0] > a[-1] else -1.0
    strong = np.abs(field(end, grid)) >= 0.5 * factor * lam
    for j in range(EDGE_MODES):
        ell = int(round(float(a[-1]) + inward * j))
        below = (ell - a) ** 2 * w + q < 2.0 * lam
        i = int(np.argmin(np.abs(a - ell)))
        if not strong[i]:
            break
        if not below[i]:
            continue
        outside = np.nonzero(~below)[0]
        left = outside[outside < i]
        right = outside[outside > i]
        first = int(left[-1]) + 1 if left.size else 0
        last = int(right[0]) - 1 if right.size else grid.size - 1
        if mode_count(end, ell, lam, *_walls(grid, first, last, lam)):
            return False
    return True


def _eigenvalues(end, ell, lo, hi, n, top):
    """Eigenvalues below top of the 3-point Dirichlet operator on (lo, hi)."""
    from scipy.linalg import eigvalsh_tridiagonal

    h = (hi - lo) / (n + 1)
    t = lo + h * np.arange(1, n + 1)
    v = mode_potential(end, ell, t)
    vmin = float(np.min(v))
    if vmin >= top:
        return np.empty(0)
    diag = 2.0 / (h * h) + v
    off = np.full(n - 1, -1.0 / (h * h))
    return eigvalsh_tridiagonal(diag, off, select="v",
                                select_range=(vmin - 1.0, top))


def mode_count(end, ell, lam, lo, hi):
    """Strict count of one mode below lam, decided over two grids.

    The 3-point scheme lowers eigenvalues by O(h^2).  On grids h and h/2
    the extrapolation e + (e - e_coarse)/3 removes that term; the count is
    accepted when no extrapolated eigenvalue lies within the coarse-to-fine
    change of lam and the fine grid's own count agrees with it.
    """
    top = lam * 1.05 + 2.0
    n = max(64, int((hi - lo) * math.sqrt(lam) * 4.0))
    prev = _eigenvalues(end, ell, lo, hi, n, top)
    for _ in range(MAX_REFINEMENTS):
        n = 2 * n + 1  # halves h exactly
        cur = _eigenvalues(end, ell, lo, hi, n, top)
        m = min(prev.size, cur.size)
        below = int(np.sum(cur < lam))
        if below <= m and int(np.sum(prev < lam)) <= m:
            ext = cur[:m] + (cur[:m] - prev[:m]) / 3.0
            err = np.abs(cur[:m] - prev[:m])
            decided = not np.any(np.abs(ext - lam) <= err + 1e-12 * lam)
            if decided and int(np.sum(ext < lam)) == below:
                return below
        prev = cur
    raise Undecided(f"mode {ell} at lambda={lam}: grids disagree at n={n}")


def dense_count(end, lam):
    """Eigenvalues of the end strictly below lam, with its mode window."""
    factor = INTENSITY_FACTOR
    while True:
        lo, hi, grid, a, w, q = mode_window(end, lam, factor)
        if _edge_wells_empty(end, lam, grid, a, w, q, factor):
            break
        factor *= 2.0
        if factor > 64 * INTENSITY_FACTOR:
            raise Undecided(f"wells at the window edge count at lambda={lam}")
    count = sum(mode_count(end, ell, lam, *_hull(ell, lam, grid, a, w, q))
                for ell in range(lo, hi + 1))
    return count, (lo, hi)


# ---------------------------------------------------------------------------
# closed-form phase-space references, mu = lambda - 1/4


def _levels(mu, bmin):
    """Landau level divisors 2k+1 with mu/(2k+1) above bmin."""
    k = 0
    while mu / (2 * k + 1) > bmin:
        yield 2 * k + 1
        k += 1


def weyl_closed_form(end, lam):
    """(1/2pi) int N(mu, |b~|) dm for b~ = c cosh t, c cosh^2 t or c e^t."""
    mu = lam - 0.25
    kind, deg, c, s, t0 = _monomial(end)
    total = 0.0
    if kind == "funnel":
        # int tau * c cosh^deg t * cosh t over {(2k+1) c cosh^deg t < mu}
        for m in _levels(mu, c * math.cosh(t0) ** deg):
            tk = math.acosh((mu / (m * c)) ** (1.0 / deg))
            total += s * c * (float(_cosh_power_integral(deg + 1, tk))
                              - float(_cosh_power_integral(deg + 1, t0)))
    else:
        # int L * c e^t * e^{-t} over {(2k+1) c e^t < mu}
        for m in _levels(mu, c * math.exp(t0)):
            total += s * c * (math.log(mu / (m * c)) - t0)
    return total


def omega_closed_form(end, mu):
    """Area of {|b~| < mu} for the same monomial fields."""
    kind, deg, c, s, t0 = _monomial(end)
    if kind == "funnel":
        if c * math.cosh(t0) ** deg >= mu:
            return 0.0
        t_mu = math.acosh((mu / c) ** (1.0 / deg))
        return 2.0 * math.pi * s * (math.sinh(t_mu) - math.sinh(t0))
    if c * math.exp(t0) >= mu:
        return 0.0
    return 2.0 * math.pi * s * (math.exp(-t0) - c / mu)


def has_closed_form(end):
    try:
        _monomial(end)
    except ValueError:
        return False
    return True


def _monomial(end):
    nz = [(i, c) for i, c in enumerate(end["coeffs"]) if c != 0.0]
    if len(nz) != 1 or nz[0][1] <= 0.0:
        raise ValueError("closed forms need a single positive monomial")
    deg, c = nz[0]
    if not ((end["kind"] == "funnel" and deg in (1, 2))
            or (end["kind"] == "cusp" and deg == 1)):
        raise ValueError("no closed form for this field")
    return end["kind"], deg, c, end["scale"], end["t0"]


# ---------------------------------------------------------------------------
# reference file


def main():
    new = {}
    for key, end, lam in panel.count_queries():
        t = time.perf_counter()
        count, (lo, hi) = dense_count(end, lam)
        new[key] = {"end": end, "lam": lam, "count": count, "modes": [lo, hi]}
        print(f"{key}: {count} over modes {lo}..{hi} "
              f"in {time.perf_counter() - t:.1f} s", flush=True)
    REFERENCE_FILE.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
