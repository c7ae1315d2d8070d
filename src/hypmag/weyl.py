"""Phase-space side of the counting problem: Weyl integral and brackets.

The semiclassical count of the Dirichlet eigenvalues below lambda is

    (1/2pi) int_M N(lambda - 1/4, |b~|) dm
        = sum_ends int_{t0}^{oo} N(lambda - 1/4, |b~(t)|) rho(t) dt,

with rho the area density (tau cosh t on funnels, L e^{-t} on cusps).
N(mu, b) = k b is constant in k = #{j : (2j+1) b < mu} between the zeros
of b~ and the crossings |b~| = mu/(2k+1), and a' = -rho b~ for the gauge
a, so the integral is sum k |a(hi) - a(lo)| over these pieces.  Near a
zero of b~, below a cutoff beta, (mu - b)/2 <= N < (mu + b)/2 stands in
for the levels.  One vectorised loop of Newton steps, each replaced by
the midpoint where it would leave its bracket, finds every crossing in
the cells between t0, the turning points of b~ and the end of the range,
on each of which b~ is monotone.  The bracket for
admissible (delta, C) integrates its weights over the same pieces by
Gauss-Legendre.  Also here: the sublevel areas omega, all of them from
one pass per end, their doubling check, and log-log exponent fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .landau import _MAX_LEVELS
from .model import (BoundedFieldError, CuspEnd, FunnelEnd, RadialField,
                    SurfaceEnds, _radii, eval_field, finite, gauge_function,
                    last_crossing)

_MAX_PIECES = 4 * _MAX_LEVELS  # pieces held at once, four per Landau level
_ROUNDS = 8             # cutoff reductions before the kink bound gives up
_HALVINGS = 40          # Gauss-Legendre halvings before giving up
_BLOCK = 1 << 14        # pieces per Gauss-Legendre evaluation
_GAUSS = [np.polynomial.legendre.leggauss(m) for m in (16, 32)]


@dataclass(frozen=True)
class WeylOptions:
    """Quadrature tolerance and bracket parameters.

    delta must lie strictly inside (1/3, 2/5); bracket_C is the remainder
    constant supplied by the user (C = 0 collapses the bracket onto the
    plain integral); quad_tol bounds the relative error of each integral.
    """

    delta: float = 0.35
    bracket_C: float = 1.0
    quad_tol: float = 1e-6

    def __post_init__(self):
        if not (1.0 / 3.0 < self.delta < 2.0 / 5.0):
            raise ValueError(
                f"delta must lie in (1/3, 2/5) strictly, got {self.delta}")
        if not (0.0 < self.quad_tol < math.inf):
            raise ValueError(f"quad_tol must be finite and > 0, got {self.quad_tol}")
        if not (0.0 <= self.bracket_C < math.inf):
            raise ValueError(f"bracket_C must be finite and >= 0, got {self.bracket_C}")


def _end_list(ends):
    """The ends as a list; each must have an unbounded field."""
    ends = ends.ends if isinstance(ends, SurfaceEnds) else ends
    ends = [ends] if isinstance(ends, (FunnelEnd, CuspEnd)) else list(ends)
    if not all(end.field.unbounded for end in ends):
        raise BoundedFieldError("bounded field: the phase-space integral "
                                "diverges over an infinite-area region")
    return ends


def _area(end, lo, hi):
    """int rho dt over [lo, hi]."""
    if isinstance(end, FunnelEnd):
        return end.tau * (np.sinh(hi) - np.sinh(lo))
    return end.L * (np.exp(-lo) - np.exp(-hi))


def _span(end, mu: float):
    """The cells of [t0, t_end] on which b~ is monotone, so |b~| is least at
    an end of each, and b~ at those ends: t0, the turning points of b~ below
    t_end, and t_end.  Past t_end, the last crossing of |b~| = max(2 mu,
    mu + 1), |b~| stays above mu; no cells if mu <= 0 or t_end = t0."""
    t_end = last_crossing(end, max(2.0 * mu, mu + 1.0))
    if mu <= 0.0 or t_end == end.t0:
        return np.empty(0), np.empty(0)
    c = end.field.coeffs[1:end.field.degree + 1]
    turns = _radii(end, np.arange(1, len(c) + 1) * np.array(c))
    t = np.union1d([end.t0, t_end], turns[turns < t_end])
    return t, np.asarray(eval_field(end, t), dtype=float)


def _pieces(end, span, cuts):
    """Edges of the pieces of [t0, t_end] where b~ keeps its sign and |b~|
    crosses no cut, and b~ at their midpoints.  A cell of span is a
    bracket, or two around a zero of b~; a cut c strictly between a
    bracket's values of |b~| is the root of the monotone f = (sign b~) b~ - c
    there.  One loop finds all roots, starting where the chord of f in
    cosh t (funnel) or e^t (cusp) crosses zero: the root if b~ has degree 1.
    A step moves the bracket end with f's sign to the current point, then
    goes to the Newton point of f (f and its slope from one evaluation,
    profile_and_dt) if that lies strictly inside the bracket, else to the
    midpoint.  A root is final, and stays put, once its Newton step rounds
    to zero, f = 0, or no float lies strictly inside its bracket.  A
    RuntimeError reports a piece where the band or sign of b~ just inside
    its ends differs from its midpoint's."""
    t, b = span
    if t.size == 0:
        return t, b
    cuts = np.sort(np.asarray(cuts, dtype=float))
    v = np.abs(b)
    flip = np.flatnonzero(b[:-1] * b[1:] < 0.0)
    cell = np.concatenate([np.arange(t.size - 1), flip])
    sign = np.concatenate([np.sign(b[:-1] + b[1:]), np.sign(b[flip + 1])])
    m = np.concatenate([np.minimum(v[:-1], v[1:]), np.zeros(flip.size)])
    M = np.concatenate([np.maximum(v[:-1], v[1:]), v[flip + 1]])
    sign[flip], m[flip], M[flip] = np.sign(b[flip]), 0.0, v[flip]
    first = np.searchsorted(cuts, m, side="right")
    count = np.maximum(np.searchsorted(cuts, M, side="left") - first, 0)
    j = np.repeat(np.arange(count.size), count)
    c = cuts[first[j] + np.arange(j.size)
             - np.repeat(np.cumsum(count) - count, count)]
    cell = np.concatenate([cell[j], flip])
    s = np.concatenate([sign[j], np.ones(flip.size)])
    c = np.concatenate([c, np.zeros(flip.size)])
    lo, hi = t[cell], t[cell + 1]
    f_lo, f_hi = s * b[cell] - c, s * b[cell + 1] - c
    neg = f_lo < 0.0
    X, T = (np.cosh, np.arccosh) if isinstance(end, FunnelEnd) else (np.exp, np.log)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = T(X(lo) + (X(hi) - X(lo)) * (f_lo / (f_lo - f_hi)))
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        while x.size:
            # f and newton hold b~ and its slope first
            f, newton = end.field.profile_and_dt(x)
            f = s * f - c
            newton = x - f / (s * newton)
            right = (f < 0.0) == neg
            lo, hi = np.where(right, x, lo), np.where(right, hi, x)
            mid = 0.5 * (lo + hi)
            done = (newton == x) | (f == 0.0) | ~((lo < mid) & (mid < hi))
            if done.all():
                break
            x = np.where(done, x, np.where((lo < newton) & (newton < hi), newton, mid))
    edges = np.unique(np.concatenate([t[[0, -1]], x]))
    lo, hi = edges[:-1], edges[1:]
    inside = lo + np.multiply.outer([1e-3, 0.5, 0.999], hi - lo)
    b = np.asarray(eval_field(end, inside))
    band = np.searchsorted(cuts, np.abs(b))
    agree = (np.sign(b) == np.sign(b[1])) & (band == band[1])
    if not np.all(agree | (hi - lo <= 1e-9 * (1.0 + np.abs(hi)))):
        raise RuntimeError("the band or sign of b~ changes inside a piece: "
                           "a turning point of b~ was missed")
    return edges, b[1]


def _gauss(end, lo, hi, coef, bound, weight, quad_tol: float) -> float:
    """sum_j coef_j int w(|b~|) rho (|b~| if not bound_j) dt on piece j, by
    Gauss-Legendre with 32 nodes, checked against 16; a piece whose rules
    differ by more than its share of half of quad_tol is halved."""
    span, total, out = float(hi[-1] - lo[0]), None, 0.0
    for _ in range(_HALVINGS):
        rules = np.empty((2, lo.size))
        for i in range(0, lo.size, _BLOCK):
            part = slice(i, i + _BLOCK)
            mid, half = 0.5 * (lo + hi)[part], 0.5 * (hi - lo)[part]
            for r, (x, wx) in enumerate(_GAUSS):
                t = mid[:, None] + half[:, None] * x
                v = np.abs(np.asarray(eval_field(end, t)))
                rho = (end.tau * np.cosh(t) if isinstance(end, FunnelEnd)
                       else end.L * np.exp(-t))
                f = weight(v) * rho * np.where(bound[part, None], 1.0, v)
                rules[r, part] = coef[part] * half * (f @ wx)
        total = abs(float(rules[1].sum())) if total is None else total
        ok = np.abs(rules[1] - rules[0]) <= 0.25 * quad_tol * (
            np.abs(rules[1]) + total * (hi - lo) / span)
        out += float(rules[1][ok].sum())
        bad = ~ok
        if not bad.any() or 2 * np.count_nonzero(bad) > _MAX_PIECES:
            break
        mid = 0.5 * (lo[bad] + hi[bad])
        lo, hi = np.concatenate([lo[bad], mid]), np.concatenate([mid, hi[bad]])
        coef, bound = np.tile(coef[bad], 2), np.tile(bound[bad], 2)
    if bad.any():
        raise RuntimeError("Gauss-Legendre rules still disagree on "
                           f"{np.count_nonzero(bad)} pieces; quad_tol is too tight")
    return out


def _integral_over_end(end, mu: float, quad_tol: float, weight=None, kink=None):
    """int N(mu, |b~|) w(|b~|) rho dt over the end; w = 1 if weight is None.

    The cuts are the levels above beta (below all levels if they fit in
    memory), beta, and the kink of w.  Pieces above beta count k |Delta a|
    (times w: Gauss-Legendre, as also if rounding in a would not fit
    quad_tol), the others mu/2 times their area within max w |Delta a|/2.
    """
    t, b = span = _span(end, mu)
    if t.size == 0:
        return 0.0
    bmin = 0.0 if np.any(b[:-1] * b[1:] <= 0.0) else float(np.min(np.abs(b)))
    beta = 0.5 * bmin if mu * 16 < bmin * _MAX_PIECES else 0.25 * mu * quad_tol ** 0.5
    # gauge_function of this end sums the sizes of the terms of a
    sizes = replace(end, xi=-abs(end.xi), field=RadialField(
        end.field.kind, tuple(abs(c) for c in end.field.coeffs)))
    for _ in range(_ROUNDS):
        if mu > beta * _MAX_PIECES / 2:
            raise RuntimeError(f"more than {_MAX_LEVELS} Landau levels "
                               f"above {beta}; lower lambda or raise quad_tol")
        levels = mu / (2.0 * np.arange(int(mu / beta) // 2 + 1) + 1.0)
        cuts = [*levels[levels > beta], beta] + ([kink] if kink else [])
        edges, b = _pieces(end, span, cuts)
        lo, hi, v = edges[:-1], edges[1:], np.abs(b)
        # int |b~| rho dt on each piece; signed differences telescope, so
        # the rounding of a does not pile up over many narrow pieces
        da = -np.sign(b) * np.diff(gauge_function(end, edges))
        bound = v < beta
        with np.errstate(divide="ignore"):
            k = np.maximum(np.ceil((mu - v) / (2.0 * v)), 0.0)
        coef = np.where(bound, 0.5 * mu, k)
        total = float(np.sum(coef * np.where(bound, _area(end, lo, hi), da)))
        # a at each edge enters that sum about once, as the level count steps
        rounding = 4e-16 * edges.size * np.max(np.abs(gauge_function(sizes, edges)))
        if weight or rounding > 0.5 * quad_tol * abs(total):
            total = _gauss(end, lo, hi, coef, bound, weight or (lambda v: 1.0), quad_tol)
        wmax = float(max(weight(0.0), weight(beta))) if weight else 1.0
        err = 0.5 * wmax * float(np.sum(da[bound]))
        budget = 0.5 * quad_tol * abs(total)
        if err <= budget:
            return total
        beta *= min(0.5, 0.9 * math.sqrt(budget / err))
    raise RuntimeError("unresolved Landau levels near a zero of b~ exceed "
                       f"quad_tol after {_ROUNDS} cutoff reductions")


def weyl_integral(ends, lam: float, opts: WeylOptions | None = None) -> float:
    """Semiclassical eigenvalue count below lam, summed over the given ends."""
    opts = opts or WeylOptions()
    mu = finite("lam", lam) - 0.25
    return sum(_integral_over_end(end, mu, opts.quad_tol) for end in _end_list(ends))


def _omegas(ends, mus) -> list[float]:
    """omega at each of mus, from one _pieces pass per end with every mu as
    a cut: past t_end(max mu) the intensity stays above each mu."""
    mus, ends = [finite("mu", mu) for mu in mus], _end_list(ends)
    total = np.zeros(len(mus))
    for end in ends:
        edges, b = _pieces(end, _span(end, max(mus)), mus)
        area, v = _area(end, edges[:-1], edges[1:]), np.abs(b)
        total += [2.0 * math.pi * float(np.sum(area[v < mu])) for mu in mus]
    return [float(x) for x in total]


def omega(ends, mu: float) -> float:
    """Riemannian area of the sublevel region { |b~| < mu }: a closed form on
    the pieces between the crossings of the cut mu, found to rounding."""
    return _omegas(ends, [mu])[0]


@dataclass(frozen=True)
class HypWReport:
    """Discrete doubling-regularity check of omega."""

    holds: bool
    C1_witness: float
    skipped: tuple[float, ...]


def check_hypW(ends, mu_grid, tau_grid) -> HypWReport:
    """Largest ratio (omega((1+tau) mu) - omega(mu)) / (tau omega(mu)).

    mu values with omega(mu) = 0 cannot be tested and are reported as
    skipped; the hypothesis holds when every tested ratio is finite.
    """
    mu_grid, tau_grid = [float(m) for m in mu_grid], [float(t) for t in tau_grid]
    if not mu_grid or not tau_grid:
        raise ValueError("mu_grid and tau_grid must be nonempty")
    if any(not (0.0 < t < 1.0) for t in tau_grid):
        raise ValueError("tau values must lie in (0, 1)")
    n, k = len(mu_grid), len(tau_grid)
    om = _omegas(ends, mu_grid + [(1.0 + tau) * mu for mu in mu_grid for tau in tau_grid])
    witness, skipped, tested = 0.0, [], 0
    for i, mu in enumerate(mu_grid):
        if om[i] <= 0.0:
            skipped.append(mu)
            continue
        for tau, up in zip(tau_grid, om[n + i * k:n + (i + 1) * k]):
            witness = max(witness, (up - om[i]) / (tau * om[i]))
            tested += 1
    return HypWReport(holds=tested > 0 and math.isfinite(witness),
                      C1_witness=witness, skipped=tuple(skipped))


def theorem1_bracket(ends, lam: float, opts: WeylOptions | None = None) -> tuple[float, float]:
    """Two-sided semiclassical bracket for the count below lam.

    lower = (1/2pi) int (1 - C/(b+1)^p)_+ N(lam (1 - C lam^{1-3 delta}) - 1/4, b) dm
    upper = (1/2pi) int (1 + C/(b+1)^p) N(lam (1 + C lam^{1-3 delta}) - 1/4, b) dm

    with p = (2 - 5 delta)/2.  The lower weight is clamped at zero, so
    lower <= upper always; for C = 0 both are the Weyl integral.
    """
    opts = opts or WeylOptions()
    ends = _end_list(ends)
    lam = finite("lam", lam)
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    C = opts.bracket_C
    p = (2.0 - 5.0 * opts.delta) / 2.0
    shift = C * lam ** (1.0 - 3.0 * opts.delta)

    def total(mu, weight=None, kink=None):
        return sum(_integral_over_end(e, mu, opts.quad_tol, weight, kink) for e in ends)

    if C == 0.0:
        return (total(lam - 0.25),) * 2
    # the lower weight reaches 0 at b = C^(1/p) - 1
    kink = math.exp(min(math.log(C) / p, 700.0)) - 1.0 if C > 1.0 else None
    lower = total(lam * (1.0 - shift) - 0.25,
                  lambda b: np.maximum(0.0, 1.0 - C / (b + 1.0) ** p), kink)
    upper = total(lam * (1.0 + shift) - 0.25, lambda b: 1.0 + C / (b + 1.0) ** p)
    return min(lower, upper), upper


@dataclass(frozen=True)
class ExponentFit:
    alpha: float
    slope: float


def fit_exponent(samples) -> ExponentFit:
    """Least-squares fit of count ~ alpha * lambda^slope on log-log axes.

    samples is a sequence of (lambda, count) pairs with lambda strictly
    increasing and counts positive; at least three points are required.
    """
    pairs = [(float(l), float(c)) for l, c in samples]
    if len(pairs) < 3:
        raise ValueError("need at least three samples to fit an exponent")
    lams, counts = np.array(pairs).T
    if not np.isfinite(lams).all() or not np.isfinite(counts).all():
        raise ValueError("samples must be finite")
    if np.any(np.diff(lams) <= 0.0):
        raise ValueError("lambda samples must be strictly increasing")
    if np.any(counts <= 0.0) or np.any(lams <= 0.0):
        raise ValueError("samples must be positive to fit on log-log axes")
    slope, intercept = np.polyfit(np.log(lams), np.log(counts), 1)
    return ExponentFit(alpha=float(math.exp(intercept)), slope=float(slope))
