"""Field profiles, gauge functions, and end geometry."""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import make_cusp, make_funnel
from hypmag import (CuspEnd, DomainError, FunnelEnd, NonConstantFieldError,
                    RadialField, SurfaceEnds, check_growth_hypotheses,
                    cusp_area, eval_field, gauge_function, gauge_limit)
from hypmag.model import CUSP_KIND, FUNNEL_KIND, _radii, last_crossing


def gauge_by_quadrature(end, t: float) -> float:
    """Oracle: integrate a'(t) = -rho(t) b~(t) / (metric circumference factor).

    dA = b~ dm forces a' = -tau b~ cosh t on funnels and a' = -L b~ e^{-t}
    on cusps; quad gives the antiderivative the closed form must match.
    """
    if isinstance(end, FunnelEnd):
        def integrand(s):
            return end.tau * end.field.profile(s) * math.cosh(s)
    else:
        def integrand(s):
            return end.L * end.field.profile(s) * math.exp(-s)
    val, err = quad(integrand, end.t0, t, limit=400)
    # quad's error estimate is absolute and scales with the integral size
    assert err < 1e-9 * max(1.0, abs(val))
    return end.xi - val


class TestRadialField:
    def test_profile_values(self):
        f = RadialField(FUNNEL_KIND, (1.0, 0.0, 2.0))
        for t in (0.0, 0.7, 2.5):
            assert f.profile(t) == pytest.approx(1.0 + 2.0 * math.cosh(t) ** 2)
        g = RadialField(CUSP_KIND, (0.5, 0.0, 3.0))
        for t in (-1.0, 0.0, 2.0):
            y = math.exp(t)
            assert g.profile(t) == pytest.approx(0.5 + 3.0 * y * y)

    def test_profile_array_matches_scalar(self):
        f = RadialField(FUNNEL_KIND, (0.3, -1.2, 0.0, 0.8))
        ts = np.linspace(0.0, 3.0, 17)
        arr = f.profile(ts)
        assert arr.shape == ts.shape
        for t, v in zip(ts, arr):
            assert v == pytest.approx(f.profile(float(t)), rel=1e-14)

    def test_degree_ignores_trailing_zeros(self):
        assert RadialField(CUSP_KIND, (5.0,)).degree == 0
        assert RadialField(CUSP_KIND, (5.0, 0.0, 0.0)).degree == 0
        assert RadialField(CUSP_KIND, (0.0, 1.0)).degree == 1
        assert RadialField(FUNNEL_KIND, (1.0, 0.0, 2.0)).degree == 2

    def test_unbounded_iff_degree_positive(self):
        assert not RadialField(FUNNEL_KIND, (7.0,)).unbounded
        assert RadialField(FUNNEL_KIND, (7.0, 0.1)).unbounded

    def test_profile_dt_matches_finite_difference(self):
        for kind, coeffs in [(FUNNEL_KIND, (0.5, -1.0, 2.0)),
                             (CUSP_KIND, (1.0, 0.3, 0.0, -0.2))]:
            f = RadialField(kind, coeffs)
            ts = np.linspace(0.2, 2.5, 9)
            h = 1e-6
            fd = (f.profile(ts + h) - f.profile(ts - h)) / (2.0 * h)
            assert np.allclose(f.profile_and_dt(ts)[1], fd, rtol=1e-7, atol=1e-7)

    def test_constant_profile_has_zero_derivative(self):
        f = RadialField(CUSP_KIND, (4.0,))
        assert np.all(f.profile_and_dt(np.linspace(0, 5, 7))[1] == 0.0)

    def test_profile_and_dt_against_polyval(self):
        # b~ and db~/dt from numpy's polynomial evaluation in x = cosh t or
        # e^t, the slope by the chain rule with dx/dt = sinh t or e^t
        ts = np.linspace(0.1, 3.0, 11)
        for kind, coeffs in [(FUNNEL_KIND, (0.5, -1.0, 2.0)),
                             (CUSP_KIND, (1.0, 0.3, 0.0, -0.2)),
                             (CUSP_KIND, (4.0,))]:
            f = RadialField(kind, coeffs)
            x, dx = ((np.cosh(ts), np.sinh(ts)) if kind == FUNNEL_KIND
                     else (np.exp(ts), np.exp(ts)))
            b, db = f.profile_and_dt(ts)
            P = np.polynomial.Polynomial(coeffs)
            assert np.allclose(b, P(x), rtol=1e-13, atol=0.0)
            assert np.allclose(db, P.deriv()(x) * dx, rtol=1e-13, atol=0.0)
            assert np.array_equal(b, f.profile(ts))

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialField("fourier", (1.0,))
        with pytest.raises(ValueError):
            RadialField(FUNNEL_KIND, ())
        with pytest.raises(ValueError):
            RadialField(FUNNEL_KIND, (1.0, math.inf))
        with pytest.raises(ValueError):
            RadialField(CUSP_KIND, (math.nan,))


class TestEnds:
    def test_funnel_validation(self):
        field = RadialField(FUNNEL_KIND, (1.0,))
        with pytest.raises(ValueError):
            FunnelEnd(tau=0.0, t0=0.0, field=field, xi=0.0)
        with pytest.raises(ValueError):
            FunnelEnd(tau=1.0, t0=-0.1, field=field, xi=0.0)
        with pytest.raises(ValueError):
            FunnelEnd(tau=1.0, t0=0.0, field=RadialField(CUSP_KIND, (1.0,)),
                      xi=0.0)
        with pytest.raises(ValueError):
            FunnelEnd(tau=1.0, t0=0.0, field=field, xi=math.inf)

    def test_cusp_validation(self):
        field = RadialField(CUSP_KIND, (1.0,))
        with pytest.raises(ValueError):
            CuspEnd(L=-2.0, t0=0.0, field=field, xi=0.0)
        with pytest.raises(ValueError):
            CuspEnd(L=1.0, t0=0.0, field=RadialField(FUNNEL_KIND, (1.0,)),
                    xi=0.0)
        for t0, xi in ((math.inf, 0.0), (math.nan, 0.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                CuspEnd(L=1.0, t0=t0, field=field, xi=xi)
        # negative t0 is allowed on cusps
        CuspEnd(L=1.0, t0=-3.0, field=field, xi=0.0)

    def test_surface_needs_an_end(self):
        with pytest.raises(ValueError):
            SurfaceEnds()
        s = SurfaceEnds(funnels=(make_funnel([1.0]),),
                        cusps=(make_cusp([1.0]),))
        assert len(s.ends) == 2

    def test_eval_field_domain(self):
        end = make_funnel([0.0, 1.0], t0=0.5)
        assert eval_field(end, 1.0) == pytest.approx(math.cosh(1.0))
        with pytest.raises(DomainError):
            eval_field(end, 0.4)
        with pytest.raises(DomainError):
            eval_field(end, math.nan)

    def test_domain_error_messages(self):
        # t = t0 is inside; NaN or +-inf anywhere in t, and the smallest
        # t below t0, fail the one-compare pass and get the full messages
        end = make_funnel([0.0, 1.0], t0=0.5)
        assert eval_field(end, np.array([0.5, 1.0]))[0] == pytest.approx(math.cosh(0.5))
        for bad in (math.nan, math.inf, -math.inf):
            for t in (bad, np.array([1.0, bad, 2.0])):
                with pytest.raises(DomainError, match="^radial coordinate must be finite$"):
                    eval_field(end, t)
        with pytest.raises(DomainError, match=r"^t=0\.4 lies outside the end "
                           r"\(needs t >= t0 = 0\.5\)$"):
            eval_field(end, np.array([1.0, 0.4, 0.45]))

    @pytest.mark.parametrize("end", [make_funnel([0.5, 1.0], t0=0.5),
                                     make_cusp([0.0, 1.0, 2.0], t0=-1.0)])
    def test_empty_arrays(self, end):
        # like RadialField.profile, both work on an array with no points
        for f in (eval_field, gauge_function):
            out = f(end, np.array([]))
            assert isinstance(out, np.ndarray)
            assert out.shape == (0,) and out.dtype == np.float64


class TestGauge:
    cases = [
        make_funnel([0.0, 1.0]),
        make_funnel([1.0], tau=0.5, xi=2.0),
        make_funnel([0.5, -1.0, 0.0, 2.0], tau=0.7, t0=0.3, xi=-1.5),
        make_cusp([0.0, 1.0]),
        make_cusp([2.0], L=1.3, t0=-0.4, xi=0.7),
        make_cusp([0.3, 0.0, 0.8], L=1.2, t0=-0.2, xi=-0.6),
        make_cusp([1.0, -0.5, 0.0, 0.25], L=0.8, t0=0.1, xi=3.0),
    ]

    @pytest.mark.parametrize("end", cases)
    def test_matches_quadrature(self, end):
        for t in (end.t0 + 0.1, end.t0 + 1.0, end.t0 + 3.0):
            assert gauge_function(end, t) == pytest.approx(
                gauge_by_quadrature(end, t), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("end", cases)
    def test_boundary_value_is_xi(self, end):
        assert gauge_function(end, end.t0) == pytest.approx(end.xi, abs=1e-13)

    def test_array_matches_scalar(self):
        end = make_funnel([0.5, -1.0, 0.0, 2.0], tau=0.7, t0=0.3, xi=-1.5)
        ts = np.linspace(end.t0, end.t0 + 4.0, 23)
        arr = gauge_function(end, ts)
        for t, v in zip(ts, arr):
            assert v == pytest.approx(gauge_function(end, float(t)), rel=1e-13)

    def test_domain_enforced(self):
        end = make_cusp([0.0, 1.0], t0=1.0)
        with pytest.raises(DomainError):
            gauge_function(end, 0.0)

    def test_funnel_closed_forms(self):
        # a' = -tau cosh^{n+1} t for b~ = cosh^n t, with t0 > 0:
        # int cosh^2 = t/2 + sinh(2t)/4, int cosh^3 = sinh t + sinh^3 t / 3
        tau, t0, xi = 0.7, 0.6, 0.3
        ts = np.linspace(t0, t0 + 5.0, 40).reshape(8, -1)
        cosh1 = xi - tau * ((ts - t0) / 2.0
                            + (np.sinh(2.0 * ts) - np.sinh(2.0 * t0)) / 4.0)
        cosh2 = xi - tau * (np.sinh(ts) - math.sinh(t0)
                            + (np.sinh(ts) ** 3 - math.sinh(t0) ** 3) / 3.0)
        for coeffs, exact in (([0.0, 1.0], cosh1), ([0.0, 0.0, 1.0], cosh2)):
            end = make_funnel(coeffs, tau=tau, t0=t0, xi=xi)
            got = gauge_function(end, ts)
            assert got.shape == ts.shape
            assert np.allclose(got, exact, rtol=1e-13, atol=1e-13)
            assert gauge_function(end, float(ts[-1, -1])) == pytest.approx(
                exact[-1, -1], rel=1e-13)


def radii_by_roots(end, *polys):
    """The radii of _radii from np.roots, one polynomial at a time."""
    out = []
    for poly in polys:
        x = np.roots(np.asarray(poly, dtype=float)[::-1])
        x = np.where(np.abs(x.imag) <= 1e-6 * (1.0 + np.abs(x.real)),
                     x.real, np.abs(x))
        t = (np.arccosh(x[x >= 1.0]) if isinstance(end, FunnelEnd)
             else np.log(x[x > 0.0]))
        out.append(t[t > end.t0])
    return np.sort(np.concatenate(out))


class TestRadii:
    """_radii stacks the companion matrices into one eigvals call; the
    radii must be those of np.roots, bit for bit."""

    def random_polys(self, rng):
        for _ in range(400):
            deg = int(rng.integers(0, 7))
            polys = []
            for _ in range(int(rng.integers(1, 4))):
                c = rng.normal(0.0, 5.0, deg + 1)
                c[rng.random(deg + 1) < 0.2] = 0.0  # zero ends and holes
                polys.append(tuple(c))
            yield polys

    @pytest.mark.parametrize("make", [make_funnel, make_cusp])
    def test_matches_roots(self, make):
        rng = np.random.default_rng(15)
        end = make([0.0, 1.0], t0=0.2)
        for polys in self.random_polys(rng):
            assert np.array_equal(np.sort(_radii(end, *polys)),
                                  radii_by_roots(end, *polys))

    def test_edge_polynomials(self):
        end = make_cusp([0.0, 1.0], t0=-3.0)
        cases = [(3.0,), (0.0,), (0.0, 0.0), (0.0, 2.0), (0.0, 0.0, 1.0),
                 (-2.0, 1.0, 0.0, 0.0), (0.0, -4.0, 0.0, 1.0), (-1.0, 0.0, 1.0)]
        for poly in cases:
            assert np.array_equal(np.sort(_radii(end, poly)),
                                  radii_by_roots(end, poly))
        assert _radii(end, (3.0,)).size == 0

    @pytest.mark.parametrize("make", [make_funnel, make_cusp])
    def test_last_crossing_matches_roots(self, make):
        rng = np.random.default_rng(16)
        for _ in range(300):
            deg = int(rng.integers(1, 7))
            c = list(rng.normal(0.0, 5.0, deg + 1))
            c[-1] = abs(c[-1]) + 0.5
            if rng.random() < 0.3:
                c[0] = 0.0
            end = make(c, t0=float(rng.uniform(0.0, 1.0)))
            level = abs(c[0]) if rng.random() < 0.3 else float(rng.uniform(1.0, 400.0))
            if level == 0.0:
                level = 1.0
            # |b~| = level where b~ -+ level has a root
            polys = [(c[0] - s,) + tuple(c[1:]) for s in (level, -level)]
            expected = float(np.max(radii_by_roots(end, *polys), initial=end.t0))
            assert last_crossing(end, level) == expected


class TestGaugeLimit:
    def test_constant_cusp_value(self):
        end = make_cusp([2.0], L=1.5, t0=0.3, xi=0.25)
        expected = 0.25 - 1.5 * 2.0 * math.exp(-0.3)
        assert gauge_limit(end) == pytest.approx(expected, rel=1e-14)
        # the closed form really is the t -> oo limit of the gauge
        assert gauge_function(end, 40.0) == pytest.approx(expected, abs=1e-12)

    def test_requires_constant_field(self):
        with pytest.raises(NonConstantFieldError):
            gauge_limit(make_cusp([1.0, 0.5]))

    def test_requires_cusp(self):
        with pytest.raises(TypeError):
            gauge_limit(make_funnel([1.0]))


class TestCuspArea:
    def test_value(self):
        end = make_cusp([1.0], L=2.0, t0=0.5)
        assert cusp_area(end) == pytest.approx(4.0 * math.pi * math.exp(-0.5))

    def test_requires_cusp(self):
        with pytest.raises(TypeError):
            cusp_area(make_funnel([1.0]))


class TestGrowthHypotheses:
    def test_funnel_cosh(self):
        end = make_funnel([0.0, 1.0])
        grid = np.linspace(0.0, 12.0, 600)
        rep = check_growth_hypotheses(end, grid)
        assert rep.h0
        assert rep.h1_or_h2
        # |sinh| / (cosh + 1) < 1 everywhere
        assert 0.0 < rep.witness < 1.0

    def test_cusp_linear_witness(self):
        # g(t) = y/(y+1) with y = e^t equals 1/2 at t0 = 0 and the bound
        # C e^{C t} is tight there, so the smallest admissible C is 1/2
        end = make_cusp([0.0, 1.0])
        grid = np.linspace(0.0, 12.0, 512)
        rep = check_growth_hypotheses(end, grid)
        assert rep.h0
        assert rep.h1_or_h2
        assert rep.witness == pytest.approx(0.5, abs=1e-12)

    def test_cusp_witness_found_by_doubling(self):
        # g = 4 y^4 / (y^4 + 1) is 2 at t0 = 0, so C = 1 fails and the
        # search doubles; the witness is the smallest C on the grid
        grid = np.linspace(0.0, 12.0, 512)
        rep = check_growth_hypotheses(make_cusp([0.0, 0.0, 0.0, 0.0, 1.0]), grid)
        assert rep.h1_or_h2 and rep.witness > 1.0
        y = np.exp(grid)
        g = 4.0 * y ** 4 / (y ** 4 + 1.0)
        C = rep.witness
        assert np.all(g <= C * np.exp(C * grid))
        assert not np.all(g <= 0.999 * C * np.exp(0.999 * C * grid))

    def test_constant_field_fails_h0(self):
        end = make_cusp([3.0])
        rep = check_growth_hypotheses(end, np.linspace(0.0, 8.0, 100))
        assert not rep.h0
        assert rep.h1_or_h2
        assert rep.witness == 0.0

    def test_overflowing_field_is_refused(self):
        # past the overflow of b~ or b~' the check has no verdict: the grid
        # is refused, naming its first such point, and no warning leaks
        cases = [(make_cusp([0.0, 1.0]), 800.0, math.log(sys.float_info.max)),
                 (make_cusp([0.0, 0.0, 1.0]), 360.0,
                  math.log(sys.float_info.max) / 2.0),
                 (make_funnel([0.0, 0.0, 1.0]), 360.0, None),
                 (make_funnel([0.0, 0.0, 1.0]), 800.0, None)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for end, span, reach in cases:
                grid = np.linspace(0.0, span, 512)
                with pytest.raises(DomainError, match="not finite at t=") as info:
                    check_growth_hypotheses(end, grid)
                bad = float(str(info.value).rsplit("t=", 1)[1])
                assert bad in grid
                # the grid point before it is still finite
                prev = grid[grid < bad][-1]
                assert np.isfinite([end.field.profile(prev),
                                    end.field.profile_and_dt(prev)[1]]).all()
                if reach is not None:
                    assert prev <= reach < bad
            # b~ = y^2 on a span of 350 stays finite and holds, with C = 1
            rep = check_growth_hypotheses(make_cusp([0.0, 0.0, 1.0]),
                                          np.linspace(0.0, 350.0, 512))
        assert rep.h1_or_h2 and rep.witness == pytest.approx(1.0, abs=1e-12)

    def test_grid_validation(self):
        end = make_funnel([0.0, 1.0])
        with pytest.raises(ValueError):
            check_growth_hypotheses(end, np.array([]))
        with pytest.raises(ValueError):
            check_growth_hypotheses(end, np.array([1.0, 1.0, 2.0]))
        with pytest.raises(DomainError):
            check_growth_hypotheses(end, np.array([-1.0, 0.0, 1.0]))
