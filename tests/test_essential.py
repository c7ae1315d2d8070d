"""Essential spectrum, holonomy, and the two 1-d limit checks."""

import math

import numpy as np
import pytest

from conftest import make_cusp, make_funnel
from hypmag import (MorseOptions, NonConstantFieldError, SpectrumSet,
                    SurfaceEnds, cusp_is_integral, essential, essential_spectrum,
                    funnel_mode_limit_check, holonomy, morse_check)


class TestHolonomy:
    def test_integral_class(self):
        # a_oo = 2 - 1 * 2 * 1 = 0
        end = make_cusp([2.0], xi=2.0)
        assert holonomy(end) == 0.0
        assert cusp_is_integral(end)

    def test_half_integral_class(self):
        end = make_cusp([2.0], xi=2.5)
        assert holonomy(end) == pytest.approx(math.pi)
        assert not cusp_is_integral(end)

    def test_depends_only_on_limiting_value(self):
        # different (L, b, t0, xi) with the same a_oo share the holonomy
        a = make_cusp([2.0], L=1.0, t0=0.0, xi=3.0)
        b = make_cusp([0.5], L=4.0, t0=math.log(2.0), xi=2.0)
        assert holonomy(a) == pytest.approx(holonomy(b), abs=1e-12)

    def test_xi_shift_adds_full_flux_quantum(self):
        base = make_cusp([2.0], L=1.3, t0=0.2, xi=0.7)
        shifted = make_cusp([2.0], L=1.3, t0=0.2, xi=1.7)
        assert holonomy(shifted) - holonomy(base) == pytest.approx(
            2.0 * math.pi, rel=1e-12)
        assert cusp_is_integral(base) == cusp_is_integral(shifted)

    def test_requires_constant_field(self):
        with pytest.raises(NonConstantFieldError):
            holonomy(make_cusp([1.0, 1.0]))


class TestEssentialSpectrum:
    def test_two_funnels(self):
        ends = SurfaceEnds(funnels=(make_funnel([1.0]), make_funnel([3.0])))
        spec = essential_spectrum(ends)
        assert not spec.empty
        assert spec.bottom == 1.25
        assert spec.points == (1.0,)

    def test_half_flux_cusp_is_purely_discrete(self):
        ends = SurfaceEnds(cusps=(make_cusp([2.0], xi=2.5),))
        spec = essential_spectrum(ends)
        assert spec.empty
        assert spec.bottom is None
        assert spec.points == ()

    def test_small_beta_funnel(self):
        ends = SurfaceEnds(funnels=(make_funnel([0.4]),))
        spec = essential_spectrum(ends)
        assert spec.bottom == 0.25 + 0.4 * 0.4
        assert spec.points == ()

    def test_integral_cusp_contributes_halfline(self):
        ends = SurfaceEnds(funnels=(make_funnel([3.0]),),
                           cusps=(make_cusp([1.0], xi=1.0),))
        spec = essential_spectrum(ends)
        # the cusp has a_oo = 0, so its half line [1/4 + 1, oo) sets the
        # bottom and swallows the funnel ladder 3, 7, 9 entirely
        assert spec.bottom == 1.25
        assert spec.points == ()

    def test_permutation_invariance(self):
        funnels = (make_funnel([1.0]), make_funnel([3.0]), make_funnel([0.2]))
        a = essential_spectrum(SurfaceEnds(funnels=funnels))
        b = essential_spectrum(SurfaceEnds(funnels=funnels[::-1]))
        assert a == b

    def test_field_sign_invariance(self):
        a = essential_spectrum(SurfaceEnds(funnels=(make_funnel([2.5]),)))
        b = essential_spectrum(SurfaceEnds(funnels=(make_funnel([-2.5]),)))
        assert a == b

    def test_xi_shift_invariance(self):
        a = SurfaceEnds(cusps=(make_cusp([2.0], xi=0.3),))
        b = SurfaceEnds(cusps=(make_cusp([2.0], xi=1.3),))
        assert essential_spectrum(a) == essential_spectrum(b)

    def test_points_strictly_below_bottom(self):
        import random
        rng = random.Random(11)
        for _ in range(20):
            betas = [rng.uniform(-6.0, 6.0) for _ in range(rng.randint(1, 4))]
            ends = SurfaceEnds(funnels=tuple(make_funnel([b]) for b in betas))
            spec = essential_spectrum(ends)
            assert all(p < spec.bottom for p in spec.points)
            assert list(spec.points) == sorted(set(spec.points))

    def test_nonconstant_field_rejected(self):
        ends = SurfaceEnds(funnels=(make_funnel([0.0, 1.0]),))
        with pytest.raises(NonConstantFieldError):
            essential_spectrum(ends)


class TestSpectrumSetInvariants:
    def test_empty_carries_nothing(self):
        with pytest.raises(ValueError):
            SpectrumSet(bottom=1.0, points=(), empty=True)
        with pytest.raises(ValueError):
            SpectrumSet(bottom=None, points=(0.5,), empty=True)

    def test_nonempty_needs_bottom(self):
        with pytest.raises(ValueError):
            SpectrumSet(bottom=None, points=(), empty=False)

    def test_points_must_sit_below_bottom(self):
        with pytest.raises(ValueError):
            SpectrumSet(bottom=1.0, points=(1.0,), empty=False)
        with pytest.raises(ValueError):
            SpectrumSet(bottom=1.0, points=(0.8, 0.5), empty=False)


class TestMorseCheck:
    def test_beta_2_5(self):
        rep = morse_check(2.5)
        assert rep.converged
        assert rep.predicted == (2.5, 5.5)
        assert len(rep.computed) == 2
        assert rep.max_abs_err < 1e-3
        # discretization error observed for the default window and mesh
        assert rep.max_abs_err == pytest.approx(4.49e-6, rel=0.3)

    def test_beta_5_5(self):
        rep = morse_check(5.5)
        assert rep.converged
        assert len(rep.computed) == 5
        assert rep.max_abs_err < 1e-2

    def test_small_beta_has_no_levels(self):
        rep = morse_check(0.4)
        assert rep.converged
        assert rep.computed == ()
        assert rep.max_abs_err == 0.0

    def test_narrow_window_reports_nonconvergence(self):
        rep = morse_check(2.5, MorseOptions(s_lo=-3.0, s_hi=0.5))
        assert not rep.converged

    def test_options_validation(self):
        with pytest.raises(ValueError):
            MorseOptions(s_lo=1.0, s_hi=0.0)
        with pytest.raises(ValueError):
            MorseOptions(n=4)
        # named here, not a NaN grid or a numpy TypeError in discretize
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                MorseOptions(s_lo=bad)
            with pytest.raises(ValueError, match="must be finite"):
                MorseOptions(s_hi=bad)
        for bad in (2000.0, True, "2000"):
            with pytest.raises(ValueError, match="n must be an integer"):
                MorseOptions(n=bad)
        assert MorseOptions(n=np.int64(2000)).n == 2000
        # morse_check would build this grid and one of about twice the size
        assert MorseOptions(n=2 ** 20).n == 2 ** 20
        for big in (2 ** 20 + 1, 10 ** 10):
            with pytest.raises(ValueError, match="at most 1048576 interior"):
                MorseOptions(n=big)


class TestFunnelModeLimit:
    def test_beta_1_converges_to_ladder_bottom(self):
        rep = funnel_mode_limit_check(1.0, (10.0, 100.0, 1000.0))
        assert rep.limit == 1.0
        assert rep.distances[-1] < 0.02
        for d0, d1 in zip(rep.distances, rep.distances[1:]):
            assert d1 <= d0

    def test_small_beta_limit_is_essential_bottom(self):
        rep = funnel_mode_limit_check(0.4, (10.0, 50.0))
        assert rep.limit == pytest.approx(0.41)
        assert rep.distances[-1] < 0.02

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            funnel_mode_limit_check(1.0, ())
        with pytest.raises(ValueError):
            funnel_mode_limit_check(1.0, (10.0, -1.0))
        # named, not a NaN or overflow error from the grid size
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="rho must be finite"):
                funnel_mode_limit_check(1.0, (10.0, bad))


class TestReversedRows:
    @pytest.mark.parametrize("beta", [0.3, 0.9, 1.3, 2.3, 3.7, 6.0])
    def test_same_reports_as_forward_rows(self, monkeypatch, beta):
        # the checks sweep their operators with the rows reversed, so that
        # count_below stops early in the s -> -oo tail; the same matrix in
        # its forward order must give the very same reports
        reversed_rows = (morse_check(beta, MorseOptions(n=2000)),
                         funnel_mode_limit_check(beta, [6.0]))
        monkeypatch.setattr(essential, "_reversed", lambda T: T)
        assert reversed_rows == (morse_check(beta, MorseOptions(n=2000)),
                                 funnel_mode_limit_check(beta, [6.0]))
