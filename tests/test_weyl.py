"""Counting integral, sublevel areas, brackets, and exponent fits."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import make_cusp, make_funnel
from hypmag import (BoundedFieldError, FunnelEnd, RadialField, SurfaceEnds,
                    WeylOptions, check_hypW, eval_field, fit_exponent,
                    landau_count, omega, theorem1_bracket, weyl_integral)
from hypmag import weyl


def cusp_linear_weyl(lam: float, L: float = 1.0, t0: float = 0.0) -> float:
    """Closed form for b~ = y: the integrand N(mu, e^t) L e^{-t} is the
    piecewise constant L #{k : (2k+1) e^t < mu}, so the integral telescopes
    to L sum_k (ln(mu / (2k+1)) - t0)_+ ."""
    mu = lam - 0.25
    if mu <= 0.0:
        return 0.0
    total = 0.0
    k = 0
    while (2 * k + 1) < mu * math.exp(-t0):
        total += math.log(mu / (2 * k + 1)) - t0
        k += 1
    return L * total


def funnel_bracket_quad(end, mu: float, weight, kink: float = 0.0) -> float:
    """int N(mu, b) w(b) tau cosh t dt for b~ = c0 + c1 cosh t > 0, by quad
    on each piece between the level crossings cosh t = (mu/(2k+1) - c0)/c1
    (and the weight's kink)."""
    c0, c1 = end.field.coeffs
    cuts = [mu / (2 * k + 1) for k in range(int(mu))] + [kink]
    edges = sorted({end.t0} | {math.acosh((nu - c0) / c1) for nu in cuts
                               if (nu - c0) / c1 > math.cosh(end.t0)})
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = c0 + c1 * math.cosh(0.5 * (lo + hi))
        k = sum(1 for j in range(int(mu)) if (2 * j + 1) * mid < mu)
        if k:
            total += quad(lambda t: k * (c0 + c1 * math.cosh(t))
                          * weight(c0 + c1 * math.cosh(t)) * end.tau * math.cosh(t),
                          lo, hi, epsabs=0.0, epsrel=1e-12)[0]
    return total


def funnel_cosh_omega(mu: float, tau: float) -> float:
    """Area of {cosh t < mu} on a funnel with t0 = 0."""
    if mu <= 1.0:
        return 0.0
    return 2.0 * math.pi * tau * math.sinh(math.acosh(mu))


class TestWeylIntegral:
    def test_cusp_linear_closed_form(self):
        # up to 25600 Landau levels cross the profile; none may be dropped
        end = make_cusp([0.0, 1.0])
        for lam in (50.0, 100.0, 400.0, 800.0, 3200.0, 12800.0, 51200.0):
            expected = cusp_linear_weyl(lam)
            assert weyl_integral(end, lam) == pytest.approx(expected, rel=1e-10)

    def test_cusp_closed_form_with_offsets(self):
        end = make_cusp([0.0, 1.0], L=1.7, t0=0.8)
        # scaling L multiplies the area form; moving t0 shifts each log
        assert weyl_integral(end, 120.0) == pytest.approx(
            cusp_linear_weyl(120.0, L=1.7, t0=0.8), rel=1e-8)

    def test_zero_below_floor(self):
        end = make_cusp([0.0, 1.0])
        assert weyl_integral(end, 0.25) == 0.0
        assert weyl_integral(end, 0.1) == 0.0

    def test_sign_changing_field_matches_trapezoid(self):
        # b~ vanishes inside each end (t = ln 2, acosh 3, ln 4); the levels
        # accumulate there, and the unresolved ones must stay in quad_tol
        for end, lam, t_hi in ((make_cusp([-2.0, 1.0]), 30.0, 12.0),
                               (make_funnel([-3.0, 1.0]), 15.0, 6.0),
                               (make_funnel([-3.0, 1.0]), 400.0, 8.0),
                               (make_cusp([-4.0, 1.0], xi=0.2), 60.0, 12.0)):
            mu = lam - 0.25
            ts = np.linspace(end.t0, t_hi, 800001)
            b = np.abs(np.asarray(eval_field(end, ts)))
            rho = (end.tau * np.cosh(ts) if isinstance(end, FunnelEnd)
                   else end.L * np.exp(-ts))
            f = np.array([landau_count(mu, bi) for bi in b]) * rho
            brute = float(np.trapezoid(f, ts))
            assert weyl_integral(end, lam) == pytest.approx(brute, rel=1e-5)

    @pytest.mark.parametrize("quad_tol", [1e-6, 1e-12])
    def test_gauss_halves_a_wide_piece(self, monkeypatch, quad_tol):
        # cosh t on [0, 60] (funnel cosh1, weight 1, bound): the 16 and
        # 32 node rules disagree there, so the piece is halved
        rules = []

        def counted(end, t):
            rules.append(t.shape)
            return eval_field(end, t)
        monkeypatch.setattr(weyl, "eval_field", counted)
        got = weyl._gauss(make_funnel([0.0, 1.0]), np.array([0.0]),
                          np.array([60.0]), np.array([1.0]), np.array([True]),
                          lambda v: 1.0, quad_tol)
        assert len(rules) > 2
        assert got == pytest.approx(math.sinh(60.0), rel=quad_tol)

    def test_turning_point_inside_one_sample_cell(self):
        # b~ = c (y - 2)^2 + 5 stays below mu only for |t - ln 2| < 7e-5,
        # a sliver at the shared end of the two cells on which b~ is
        # monotone, split at its turning point y = 2; with G the antiderivative
        # of b~ e^{-t} in y, the integral is sum_k G(2 + r_k) - G(2 - r_k)
        # over the levels nu_k > 5, r_k = sqrt((nu_k - 5)/c)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        c, lam = mpmath.mpf(10) ** 10, 50.0
        mu = mpmath.mpf(lam) - mpmath.mpf(1) / 4
        G = lambda y: c * (y - 4 * mpmath.log(y) - 4 / y) - 5 / y
        exact = 0
        k = 0
        while mu / (2 * k + 1) > 5:
            r = mpmath.sqrt((mu / (2 * k + 1) - 5) / c)
            exact += G(2 + r) - G(2 - r)
            k += 1
        end = make_cusp([4 * float(c) + 5, -4 * float(c), float(c)])
        assert weyl_integral(end, lam) == pytest.approx(float(exact), rel=1e-6)
        r = math.sqrt((lam - 5.25) / float(c))
        assert omega(end, lam - 0.25) == pytest.approx(
            2.0 * math.pi * (1.0 / (2.0 - r) - 1.0 / (2.0 + r)), rel=1e-6)

    def test_too_many_levels_raise(self):
        # at this quad_tol all 5e6 levels must be resolved, and they do not
        # fit in memory: refuse, never truncate
        with pytest.raises(RuntimeError, match="Landau levels"):
            weyl_integral(make_cusp([0.0, 1.0]), 1e7, WeylOptions(quad_tol=1e-12))

    def test_surface_sums_over_ends(self):
        cusp = make_cusp([0.0, 1.0])
        fun = make_funnel([0.0, 1.0])
        surface = SurfaceEnds(funnels=(fun,), cusps=(cusp,))
        lam = 40.0
        total = weyl_integral(surface, lam)
        assert total == pytest.approx(
            weyl_integral(fun, lam) + weyl_integral(cusp, lam), rel=1e-10)

    def test_bounded_field_rejected(self):
        with pytest.raises(BoundedFieldError):
            weyl_integral(make_cusp([2.0]), 50.0)
        with pytest.raises(BoundedFieldError):
            weyl_integral(make_funnel([1.0]), 50.0)

    def test_nonfinite_threshold_is_refused(self):
        # a named error before any sampling: no RuntimeWarning from the
        # root finder and no numpy error about infs or NaNs
        end = make_cusp([0.0, 1.0])
        for bad in (math.inf, -math.inf, math.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for f, name in ((weyl_integral, "lam"),
                                (theorem1_bracket, "lam"), (omega, "mu")):
                    with pytest.raises(ValueError, match=f"{name} must be finite"):
                        f(end, bad)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            WeylOptions(delta=1.0 / 3.0)
        with pytest.raises(ValueError):
            WeylOptions(delta=0.4)
        with pytest.raises(ValueError):
            WeylOptions(quad_tol=0.0)
        with pytest.raises(ValueError):
            WeylOptions(bracket_C=-0.5)
        # named here, not a LinAlgError inside theorem1_bracket
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="bracket_C"):
                WeylOptions(bracket_C=bad)
            with pytest.raises(ValueError, match="quad_tol"):
                WeylOptions(quad_tol=bad)


class TestOmega:
    def test_funnel_cosh_closed_form(self):
        for tau in (0.1, 0.5, 0.9):
            end = make_funnel([0.0, 1.0], tau=tau)
            for mu in (10.0, 100.0, 1000.0):
                assert omega(end, mu) == pytest.approx(
                    funnel_cosh_omega(mu, tau), rel=1e-9)
                assert type(omega(end, mu)) is float

    def test_empty_sublevel(self):
        end = make_funnel([0.0, 1.0])
        # intensity cosh t >= 1 on the whole end
        assert omega(end, 0.5) == 0.0
        assert omega(end, -1.0) == 0.0

    def test_cusp_sign_change_closed_form(self):
        # |y - 2| < 1/2 is y in (3/2, 5/2): area 2 pi (2/3 - 2/5)
        end = make_cusp([-2.0, 1.0])
        expected = 2.0 * math.pi * (1.0 / 1.5 - 1.0 / 2.5)
        assert omega(end, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_additive_over_surface(self):
        fun = make_funnel([0.0, 1.0], tau=0.3)
        cusp = make_cusp([0.0, 1.0])
        surface = SurfaceEnds(funnels=(fun,), cusps=(cusp,))
        mu = 25.0
        assert omega(surface, mu) == pytest.approx(
            omega(fun, mu) + omega(cusp, mu), rel=1e-12)

    def test_few_field_evaluations(self, monkeypatch):
        # b~ is linear in cosh t or e^t, so the chord there lands on the
        # crossing: one evaluation on the cell ends t0 and t_end, one Newton
        # round that moves nothing (b~ and its slope in one evaluation),
        # three points inside each of the two pieces
        sizes, evaluate = [], weyl.eval_field
        with_slope = RadialField.profile_and_dt

        def counted(end, t):
            sizes.append(np.size(t))
            return evaluate(end, t)

        def counted_with_slope(field, t):
            sizes.append(np.size(t))
            return with_slope(field, t)
        monkeypatch.setattr(weyl, "eval_field", counted)
        monkeypatch.setattr(RadialField, "profile_and_dt", counted_with_slope)
        for end in (make_funnel([0.0, 1.0]), make_cusp([0.0, 1.0])):
            for mu in (10.0, 1000.0):
                sizes.clear()
                omega(end, mu)
                assert sizes == [2, 1, 6]

    def test_missed_turning_point_is_an_error(self, monkeypatch):
        # b~ = (cosh t - 3)^2 falls below mu = 2 inside the one cell left
        # when its turning point cosh t = 3 is hidden from the cell split;
        # the piece check refuses the result at once, after the evaluation
        # on the cell ends and its own
        calls, evaluate = [], weyl.eval_field

        def counted(end, t):
            calls.append(end)
            return evaluate(end, t)
        monkeypatch.setattr(weyl, "eval_field", counted)
        monkeypatch.setattr(weyl, "_radii", lambda end, *polys: np.empty(0))
        with pytest.raises(RuntimeError, match="turning point of b~ was missed"):
            omega(make_funnel([9.0, -6.0, 1.0]), 2.0)
        assert len(calls) == 2

    @pytest.mark.parametrize("c, rel", [(1e8, 1e-9), (1e10, 1e-7)])
    def test_cancelling_field(self, c, rel):
        # b~ = c (y - 2)^2 + 5 in the monomial basis carries an error of
        # about 4 c eps near y = 2, where |b~| < mu for |y - 2| < r
        mu = 49.75
        r = math.sqrt((mu - 5.0) / c)
        end = make_cusp([4.0 * c + 5.0, -4.0 * c, c])
        assert omega(end, mu) == pytest.approx(
            2.0 * math.pi * 2.0 * r / (4.0 - r * r), rel=rel)

    def test_crossing_where_the_slope_vanishes(self):
        # cosh t = mu at t = 1.4e-3, next to t = 0 where d/dt cosh t = 0
        mu = 1.0 + 1e-6
        assert omega(make_funnel([0.0, 1.0]), mu) == pytest.approx(
            2.0 * math.pi * math.sqrt((mu - 1.0) * (mu + 1.0)), rel=1e-10)

    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_sign_changing_cusp(self, mu):
        # |y - 3| < mu for y in (max(1, 3 - mu), 3 + mu); the zero of b~ at
        # y = 3 is a crossing of the cut 0 inside the region
        expected = 2.0 * math.pi * (1.0 / max(1.0, 3.0 - mu) - 1.0 / (3.0 + mu))
        assert omega(make_cusp([-3.0, 1.0]), mu) == pytest.approx(expected, rel=1e-14)

    def test_far_reach_is_refused_before_the_floor(self):
        # b~ = e^-250 y reaches mu + 1 only past t0 + 200; that is refused
        # even where mu <= 0 leaves nothing to integrate
        end = make_cusp([0.0, math.exp(-250.0)])
        for f, x in ((weyl_integral, 0.1), (weyl_integral, 50.0), (omega, 0.0)):
            with pytest.raises(BoundedFieldError, match="intensity reaches"):
                f(end, x)
        assert omega(end, -1.0) == 0.0


class TestHypW:
    def test_funnel_cosh_holds(self):
        end = make_funnel([0.0, 1.0])
        rep = check_hypW([end], (10.0, 100.0, 1000.0), (0.1, 0.5, 0.9))
        assert rep.holds
        assert math.isfinite(rep.C1_witness)
        assert type(rep.C1_witness) is float
        assert rep.skipped == ()

    def test_skips_empty_sublevels(self):
        # cosh t >= 1: mu <= 1 leaves nothing to test, though the same
        # pass also computes omega at (1 + tau) mu for the skipped mus
        end = make_funnel([0.0, 1.0])
        rep = check_hypW([end], (-1.0, 0.5, 10.0), (0.5,))
        assert rep.skipped == (-1.0, 0.5)
        assert rep.holds

    def test_surface_matches_closed_forms(self):
        # omega adds over the ends: funnel_cosh_omega on the funnel plus
        # 2 pi (1 - 1/mu) on the cusp, both zero for mu <= 1
        fun = make_funnel([0.0, 1.0], tau=0.3)
        surface = SurfaceEnds(funnels=(fun,), cusps=(make_cusp([0.0, 1.0]),))
        mus, taus = (0.5, 2.0, 10.0, 100.0), (0.1, 0.5, 0.9)

        def om(mu):
            return funnel_cosh_omega(mu, 0.3) + 2.0 * math.pi * max(0.0, 1.0 - 1.0 / mu)
        expected = max((om((1.0 + tau) * mu) - om(mu)) / (tau * om(mu))
                       for mu in mus[1:] for tau in taus)
        rep = check_hypW(surface, mus, taus)
        assert rep.C1_witness == pytest.approx(expected, rel=1e-9)
        assert rep.skipped == (0.5,)

    def test_one_sublevel_pass_per_end(self, monkeypatch):
        # every omega of the grid comes from one _pieces bisection per end
        calls, pieces = [], weyl._pieces

        def counted(end, mu, cuts):
            calls.append(end)
            return pieces(end, mu, cuts)
        monkeypatch.setattr(weyl, "_pieces", counted)
        ends = (make_funnel([0.0, 1.0], tau=0.3), make_cusp([0.0, 1.0]))
        check_hypW(SurfaceEnds(funnels=ends[:1], cusps=ends[1:]),
                   (2.0, 10.0, 100.0), (0.1, 0.5))
        assert calls == list(ends)

    def test_cusp_linear_ratio(self):
        # omega(mu) = 2 pi (1 - 1/mu) for mu > 1, so the ratio has the
        # closed form 1 / ((1 + tau) (mu - 1))
        end = make_cusp([0.0, 1.0])
        rep = check_hypW([end], (5.0,), (0.25,))
        assert rep.C1_witness == pytest.approx(1.0 / (1.25 * 4.0), rel=1e-9)

    def test_validation(self):
        end = make_funnel([0.0, 1.0])
        with pytest.raises(ValueError):
            check_hypW([end], (), (0.5,))
        with pytest.raises(ValueError):
            check_hypW([end], (10.0,), ())
        with pytest.raises(ValueError):
            check_hypW([end], (10.0,), (1.0,))
        with pytest.raises(ValueError):
            check_hypW([end], (10.0,), (-0.2,))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="mu must be finite"):
                check_hypW([end], (10.0, bad), (0.5,))


class TestBracket:
    def test_ordering_for_all_C(self):
        end = make_cusp([0.0, 1.0])
        lam = 100.0
        w = weyl_integral(end, lam)
        for C in (0.0, 0.3, 1.0, 2.5, 10.0):
            lower, upper = theorem1_bracket(end, lam, WeylOptions(bracket_C=C))
            assert lower <= w + 1e-9 * abs(w)
            assert w <= upper + 1e-9 * abs(upper)
            assert lower <= upper

    def test_C_zero_collapses_to_integral(self):
        end = make_cusp([0.0, 1.0])
        lam = 100.0
        lower, upper = theorem1_bracket(end, lam, WeylOptions(bracket_C=0.0))
        w = weyl_integral(end, lam)
        assert lower == pytest.approx(w, rel=1e-12)
        assert upper == pytest.approx(w, rel=1e-12)

    def test_relative_width_shrinks(self):
        end = make_cusp([0.0, 1.0])
        opts = WeylOptions(delta=0.35, bracket_C=1.0)

        def rel_width(lam):
            lower, upper = theorem1_bracket(end, lam, opts)
            return (upper - lower) / weyl_integral(end, lam, opts)

        assert rel_width(200.0) < rel_width(50.0)

    @pytest.mark.parametrize("end,lam,C", [
        (make_funnel([0.0, 1.0]), 200.0, 1.0),
        (make_funnel([0.0, 1.0]), 200.0, 1.2),
        (make_funnel([0.5, 1.0], tau=0.7, t0=0.1, xi=0.3), 100.0, 1.0),
    ])
    def test_matches_piecewise_quad(self, end, lam, C):
        # for C = 1.2 the lower weight reaches 0 at b = C^(1/p) - 1 = 3.3
        opts = WeylOptions(bracket_C=C)
        lower, upper = theorem1_bracket(end, lam, opts)
        p = (2.0 - 5.0 * opts.delta) / 2.0
        shift = C * lam ** (1.0 - 3.0 * opts.delta)
        assert lower == pytest.approx(funnel_bracket_quad(
            end, lam * (1.0 - shift) - 0.25,
            lambda b: max(0.0, 1.0 - C / (b + 1.0) ** p), C ** (1.0 / p) - 1.0),
            rel=1e-7)
        assert upper == pytest.approx(funnel_bracket_quad(
            end, lam * (1.0 + shift) - 0.25, lambda b: 1.0 + C / (b + 1.0) ** p),
            rel=1e-7)

    def test_sign_changing_cusp_matches_trapezoid(self, monkeypatch):
        # b~ = y - 4 vanishes at t = ln 4; the unresolved levels there
        # exceed quad_tol at the first cutoff, which is reduced (a second
        # _pieces pass for one of the two bounds)
        passes, pieces = [], weyl._pieces

        def counted(end, span, cuts):
            passes.append(len(cuts))
            return pieces(end, span, cuts)
        monkeypatch.setattr(weyl, "_pieces", counted)
        end, lam, C = make_cusp([-4.0, 1.0], xi=0.2), 100.0, 1.0
        opts = WeylOptions(bracket_C=C)
        lower, upper = theorem1_bracket(end, lam, opts)
        assert len(passes) > 2
        assert lower <= weyl_integral(end, lam, opts) <= upper
        p = (2.0 - 5.0 * opts.delta) / 2.0
        shift = C * lam ** (1.0 - 3.0 * opts.delta)
        ts = np.linspace(end.t0, 6.0, 200001)
        b = np.abs(np.asarray(eval_field(end, ts))).tolist()
        rho = end.L * np.exp(-ts)
        for got, mu, weight in (
                (lower, lam * (1.0 - shift) - 0.25,
                 lambda b: max(0.0, 1.0 - C / (b + 1.0) ** p)),
                (upper, lam * (1.0 + shift) - 0.25,
                 lambda b: 1.0 + C / (b + 1.0) ** p)):
            f = np.array([weight(bi) * landau_count(mu, bi) for bi in b]) * rho
            assert got == pytest.approx(float(np.trapezoid(f, ts)), rel=1e-5)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            theorem1_bracket(make_cusp([0.0, 1.0]), 0.0)


class TestFitExponent:
    def test_recovers_exact_power_law(self):
        samples = [(lam, 3.0 * lam**2) for lam in (10.0, 20.0, 40.0, 80.0)]
        fit = fit_exponent(samples)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.alpha == pytest.approx(3.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_exponent([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(ValueError):
            fit_exponent([(1.0, 1.0), (1.0, 2.0), (3.0, 4.0)])
        with pytest.raises(ValueError):
            fit_exponent([(1.0, 1.0), (2.0, 0.0), (3.0, 4.0)])
        # a silent NaN fit, or a LinAlgError with LAPACK lines on stderr
        for bad in ([(1.0, 1.0), (2.0, math.nan), (3.0, 4.0)],
                    [(1.0, 1.0), (2.0, 2.0), (3.0, math.inf)],
                    [(1.0, 1.0), (2.0, 2.0), (math.inf, 4.0)],
                    [(1.0, 1.0), (math.nan, 2.0), (3.0, 4.0)]):
            with pytest.raises(ValueError, match="finite"):
                fit_exponent(bad)
