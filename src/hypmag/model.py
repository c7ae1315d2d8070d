"""Domain model: surface ends, radial magnetic fields, and gauges.

Conventions
-----------
Both end types are half-cylinders S^1 x (t0, oo) described by a radial
coordinate t:

* funnel: metric tau^2 cosh^2(t) dtheta^2 + dt^2 (infinite area),
* cusp:   metric L^2 e^{-2t} dtheta^2 + dt^2 (finite area 2 pi L e^{-t0});
  here t is the logarithm of the horocyclic height y, so cusp field
  profiles are given as polynomials in y = e^t.

A rotationally symmetric magnetic field is the two-form b~(t) dm, with dm
the Riemannian area element; the profile b~ is a signed polynomial in
cosh(t) (funnel) or y (cusp), and the magnetic intensity is |b~|.  The
vector potential is a radial one-form a(t) dtheta.  Writing dA = b~ dm
forces

    a'(t) = -tau b~(t) cosh(t)    (funnel),
    a'(t) = -L  b~(t) e^{-t}      (cusp),

and both integrate in closed form for polynomial profiles.  The
integration constant is pinned at the boundary circle: a(t0) = xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FUNNEL_KIND = "funnel-cosh-poly"
CUSP_KIND = "cusp-y-poly"


class DomainError(ValueError):
    """Radial coordinate outside the end, or an equally fatal geometry error."""


class BoundedFieldError(ValueError):
    """Operation requires an unbounded field profile."""


class NonConstantFieldError(ValueError):
    """Operation requires a constant field profile."""


def finite(name: str, x) -> float:
    """x as a float, or a ValueError naming the argument if it is not finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


@dataclass(frozen=True)
class RadialField:
    """Signed polynomial field profile in the end's canonical variable.

    coeffs[i] multiplies cosh(t)^i for funnel profiles and y^i for cusp
    profiles.  The degree is the index of the last nonzero coefficient;
    a profile is unbounded iff its degree is at least 1.
    """

    kind: str
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in (FUNNEL_KIND, CUSP_KIND):
            raise ValueError(f"unknown field kind {self.kind!r}")
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("field needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("field coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0.0:
                return i
        return 0

    @property
    def unbounded(self) -> bool:
        return self.degree >= 1

    @staticmethod
    def _horner(coeffs, x):
        """sum coeffs[i] x^i."""
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def profile(self, t):
        """b~ evaluated at radial coordinate t (scalar or ndarray)."""
        x = np.cosh(t) if self.kind == FUNNEL_KIND else np.exp(t)
        return self._horner(self.coeffs, x)

    def profile_and_dt(self, t):
        """(b~, d/dt b~) at t, from one cosh and sinh pass (funnel) or one
        e^t pass (cusp); b~ equals profile(t) to the bit."""
        t = np.asarray(t, dtype=float)
        if self.kind == FUNNEL_KIND:
            x, dx = np.cosh(t), np.sinh(t)
        else:
            x = dx = np.exp(t)
        # derivative of sum c_i x^i is sum i c_i x^(i-1), times dx/dt
        dcoeffs = tuple(i * c for i, c in enumerate(self.coeffs))[1:]
        db = self._horner(dcoeffs, x) * dx if dcoeffs else np.zeros_like(t)
        return self._horner(self.coeffs, x), db

    def profile_dt(self, t):
        """d/dt of the profile.

        For cusp profiles this equals y db~/dy at y = e^t, which is the
        quantity entering the growth hypothesis there.
        """
        return self.profile_and_dt(t)[1]


@dataclass(frozen=True)
class FunnelEnd:
    """Funnel end S^1 x (t0, oo) with metric tau^2 cosh^2(t) dtheta^2 + dt^2."""

    tau: float
    t0: float
    field: RadialField
    xi: float

    def __post_init__(self):
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"funnel tau must be positive, got {self.tau}")
        if not (self.t0 >= 0.0 and math.isfinite(self.t0)):
            raise ValueError(f"funnel t0 must be >= 0, got {self.t0}")
        if self.field.kind != FUNNEL_KIND:
            raise ValueError(
                f"funnel end needs a {FUNNEL_KIND!r} field, got {self.field.kind!r}")
        if not math.isfinite(self.xi):
            raise ValueError("xi must be finite")


@dataclass(frozen=True)
class CuspEnd:
    """Cusp end S^1 x (t0, oo) with metric L^2 e^{-2t} dtheta^2 + dt^2."""

    L: float
    t0: float
    field: RadialField
    xi: float

    def __post_init__(self):
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"cusp L must be positive, got {self.L}")
        if not math.isfinite(self.t0):
            raise ValueError("cusp t0 must be finite")
        if self.field.kind != CUSP_KIND:
            raise ValueError(
                f"cusp end needs a {CUSP_KIND!r} field, got {self.field.kind!r}")
        if not math.isfinite(self.xi):
            raise ValueError("xi must be finite")


@dataclass(frozen=True)
class SurfaceEnds:
    """The ends of a surface whose compact core is ignored."""

    funnels: tuple[FunnelEnd, ...] = ()
    cusps: tuple[CuspEnd, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "funnels", tuple(self.funnels))
        object.__setattr__(self, "cusps", tuple(self.cusps))
        if not self.funnels and not self.cusps:
            raise ValueError("surface needs at least one end")

    @property
    def ends(self) -> tuple:
        return self.funnels + self.cusps


def _check_domain(end, t):
    t = np.asarray(t, dtype=float)
    # a NaN or -inf makes the min non-finite, a +inf makes the max inf; an
    # empty t has min and max t0
    tmin = float(t.min(initial=end.t0))
    if not (math.isfinite(tmin) and t.max(initial=end.t0) < math.inf):
        raise DomainError("radial coordinate must be finite")
    if tmin < end.t0:
        raise DomainError(
            f"t={tmin} lies outside the end (needs t >= t0 = {end.t0})")


def eval_field(end, t):
    """Signed field profile b~ at radial coordinate t (t >= t0)."""
    _check_domain(end, t)
    return end.field.profile(t)


def _radii(end, *polys):
    """Radii t > t0 where x = cosh t (funnel) or e^t (cusp) is a root of one
    of polys (lowest degree first); complex roots count by real part if
    nearly real, else modulus.

    The roots are those numpy's roots function gives, less its roots 0,
    which are no radius: with the zero coefficients at both ends
    stripped, the eigenvalues of the companion matrix, those of one size
    from one np.linalg.eigvals call on their stack.
    """
    companions = {}
    for poly in polys:
        p = [float(c) for c in poly]
        nonzero = [i for i, c in enumerate(p) if c != 0.0]
        if len(nonzero) > 1:
            p = p[nonzero[0]:nonzero[-1] + 1]
            companions.setdefault(len(p) - 1, []).append(
                [-c / p[-1] for c in reversed(p[:-1])])
    x = [np.empty(0)]
    for n, rows in companions.items():
        A = np.zeros((len(rows), n, n))
        A[:, 0] = rows
        A[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        x.append(np.linalg.eigvals(A).ravel())
    x = np.concatenate(x)
    x = np.where(np.abs(x.imag) <= 1e-6 * (1.0 + np.abs(x.real)), x.real, np.abs(x))
    t = np.arccosh(x[x >= 1.0]) if isinstance(end, FunnelEnd) else np.log(x[x > 0.0])
    return t[t > end.t0]


def last_crossing(end, level: float) -> float:
    """Largest t > t0 where |b~| = level, or t0 if there is none; past it
    an unbounded |b~| stays above level.  A crossing past t0 + 200 is a
    BoundedFieldError: the intensity grows too slowly for a grid out to it."""
    c = end.field.coeffs[:end.field.degree + 1]
    t = float(np.max(_radii(end, *[(c[0] - s,) + c[1:] for s in (level, -level)]),
                     initial=end.t0))
    if t > end.t0 + 200.0:
        raise BoundedFieldError(f"intensity reaches {level} only at t = {t}")
    return t


def _cosh_antiderivatives(nmax: int, t):
    """F[n](t) with F[n]' = cosh^n, for n = 0..nmax, F[n](0-free constants).

    Uses the reduction int cosh^n = cosh^{n-1} sinh / n + (n-1)/n int cosh^{n-2}.
    """
    t = np.asarray(t, dtype=float)
    F = [t.copy(), np.sinh(t)]
    if nmax >= 2:
        c = np.cosh(t)
        s = F[1]
        for n in range(2, nmax + 1):
            F.append((c ** (n - 1) * s + (n - 1) * F[n - 2]) / n)
    return F[: nmax + 1]


def gauge_function(end, t):
    """Radial gauge coefficient a(t) with a(t0) = xi and dA = b~ dm.

    Closed form for polynomial profiles; works on scalars and arrays.
    """
    _check_domain(end, t)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    coeffs = end.field.coeffs
    if isinstance(end, FunnelEnd):
        # F at t0 (entry 0) and at every t, from one pass
        F = _cosh_antiderivatives(len(coeffs),
                                  np.concatenate(([end.t0], t_arr.ravel())))
        integral = np.zeros(t_arr.size)
        for i, c in enumerate(coeffs):
            if c != 0.0:
                integral = integral + c * (F[i + 1][1:] - F[i + 1][0])
        a = end.xi - end.tau * integral.reshape(t_arr.shape)
    else:
        integral = np.zeros_like(t_arr)
        for i, c in enumerate(coeffs):
            if c == 0.0:
                continue
            if i == 1:
                integral = integral + c * (t_arr - end.t0)
            else:
                k = i - 1
                integral = integral + c * (np.exp(k * t_arr) - math.exp(k * end.t0)) / k
        a = end.xi - end.L * integral
    return float(a[0]) if scalar else a


def gauge_limit(end: CuspEnd) -> float:
    """lim_{t -> oo} a(t) for a constant-field cusp.

    The limit exists only for bounded (degree-0) profiles; it fixes the
    holonomy class of the gauge and singles out the mode whose potential
    is constant.
    """
    if not isinstance(end, CuspEnd):
        raise TypeError("gauge_limit is defined for cusp ends")
    if end.field.unbounded:
        raise NonConstantFieldError("holonomy undefined for unbounded field")
    b = end.field.coeffs[0]
    return end.xi - end.L * b * math.exp(-end.t0)


def cusp_area(end: CuspEnd) -> float:
    """Total area of the cusp end, 2 pi L e^{-t0}."""
    if not isinstance(end, CuspEnd):
        raise TypeError("cusp_area is defined for cusp ends")
    return 2.0 * math.pi * end.L * math.exp(-end.t0)


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of the discrete field-growth checks on a grid."""

    h0: bool
    h1_or_h2: bool
    witness: float


def check_growth_hypotheses(end, grid) -> GrowthReport:
    """Check the growth hypotheses used by the counting asymptotics.

    h0 asks the intensity to be unbounded, which for polynomial profiles
    is exactly degree >= 1.  The gradient hypothesis bounds the radial
    derivative by the field itself:

        funnel:  |b~'(t)|    <= C (|b~| + 1)
        cusp:    |y b~'(y)|  <= C (|b~| + 1) e^{C t}

    evaluated on the supplied grid; the witness is the smallest C that
    works there (for the cusp the same C scales the bound and sits in
    the exponent, so the witness solves a scalar fixed-point problem).
    A grid on which b~ or b~' overflows is a DomainError.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    _check_domain(end, grid)

    h0 = end.field.unbounded
    with np.errstate(over="ignore", invalid="ignore"):
        b, db = end.field.profile_and_dt(grid)
    bad = ~(np.isfinite(b) & np.isfinite(db))
    if bad.any():
        raise DomainError(
            f"field profile or its derivative is not finite at t="
            f"{float(grid[np.argmax(bad)])!r}")
    g = np.abs(db) / (np.abs(b) + 1.0)
    if isinstance(end, FunnelEnd):
        return GrowthReport(h0=h0, h1_or_h2=True, witness=float(np.max(g)))

    # cusp: smallest C with g(t) <= C e^{C t} on the grid, in logs, as
    # e^{-C t} overflows at t < 0 (a zero g: log -inf)
    if not g.any():
        return GrowthReport(h0=h0, h1_or_h2=True, witness=0.0)
    with np.errstate(divide="ignore"):
        log_g = np.log(g)

    def excess(C: float) -> float:
        return float(np.max(log_g - C * grid)) - math.log(C)

    lo, hi = 0.0, 1.0
    found = excess(hi) <= 0.0
    while not found and hi < 1e9:
        lo, hi = hi, hi * 2.0
        found = excess(hi) <= 0.0
    if not found:
        return GrowthReport(h0=h0, h1_or_h2=False, witness=math.inf)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return GrowthReport(h0=h0, h1_or_h2=True, witness=hi)
