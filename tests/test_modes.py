"""Mode potentials, the mode window and the batched sweep behind count_end."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import (dense_lowest_eigenvalue, dense_mode_count,
                      make_cusp, make_funnel, richardson_mode_count)
from hypmag import (BoundedFieldError, DomainError, count_end,
                    funnel_limit_potential, mode_potential, modes)
from hypmag.modes import mode_window


class TestModePotentials:
    def test_funnel_constant_field_formula(self):
        # beta constant: a(t) = xi - tau beta (sinh t - sinh t0) by hand
        beta, tau, xi = 2.0, 0.7, 0.3
        end = make_funnel([beta], tau=tau, xi=xi)
        for ell in (-2, 0, 3):
            V = mode_potential(end, ell)
            ts = np.linspace(0.0, 4.0, 41)
            a = xi - tau * beta * np.sinh(ts)
            sech2 = 1.0 / np.cosh(ts) ** 2
            expected = (ell - a) ** 2 * sech2 / tau**2 + 0.25 * (1.0 + sech2)
            assert np.allclose(V(ts), expected, rtol=1e-13)

    def test_cusp_linear_field_formula(self):
        # b~ = y gives a(t) = -(t - t0) for L = 1, xi = 0
        end = make_cusp([0.0, 1.0])
        for ell in (-4, 0, 2):
            V = mode_potential(end, ell)
            ts = np.linspace(0.0, 5.0, 41)
            expected = np.exp(2.0 * ts) * (ell + ts) ** 2 + 0.25
            assert np.allclose(V(ts), expected, rtol=1e-13)

    def test_cusp_constant_field_integral_mode_is_flat(self):
        # with a_oo = xi - L b e^{-t0} an integer, that mode's potential
        # is identically 1/4 + b^2: the absolutely continuous branch
        b, L = 3.0, 1.0
        end = make_cusp([b], L=L, xi=2.0 + L * b)
        V = mode_potential(end, 2)
        ts = np.linspace(0.0, 8.0, 33)
        assert np.allclose(V(ts), 0.25 + b * b, rtol=1e-12)

    def test_universal_floor(self):
        ends_modes = [
            (make_funnel([0.0, 1.0]), range(-8, 3)),
            (make_funnel([1.0, 0.0, 2.0], tau=0.5, xi=1.0), range(-5, 5)),
            (make_cusp([0.0, 1.0]), range(-6, 7)),
            (make_cusp([2.0], xi=0.7), range(-3, 4)),
        ]
        ts = np.linspace(0.0, 6.0, 400)
        for end, ells in ends_modes:
            for ell in ells:
                assert np.min(mode_potential(end, ell)(ts)) >= 0.25

    def test_funnel_limit_formula(self):
        V = funnel_limit_potential(1.5)
        ss = np.linspace(-10.0, 3.0, 50)
        assert np.allclose(V(ss), 0.25 + (1.5 - np.exp(ss)) ** 2, rtol=1e-14)


def oracle_end_count(end, lam, ell_lo, ell_hi, t_hi, n):
    """Sum of dense per-mode counts over an exhaustive mode window."""
    return sum(dense_mode_count(mode_potential(end, ell), end.t0, t_hi, n, lam)
               for ell in range(ell_lo, ell_hi + 1))


class TestCountEndAgainstDenseOracle:
    def test_cusp_small(self):
        end = make_cusp([0.0, 1.0])
        # all modes outside [-40, 40] keep V >= min((|ell| - 12)^2, ell^2)
        # + 1/4 > 30 on (0, 12], so the window is exhaustive
        oracle = oracle_end_count(end, 30.0, -40, 40, 12.0, 4000)
        res = count_end(end, 30.0)
        assert res.converged
        assert res.count == oracle == 13
        assert res.mode_range == (-3, 2)

    def test_cusp_medium(self):
        end = make_cusp([0.0, 1.0])
        oracle = oracle_end_count(end, 100.0, -60, 60, 14.0, 8000)
        res = count_end(end, 100.0)
        assert res.converged
        assert res.count == oracle == 46
        assert res.mode_range == (-6, 6)

    def test_cusp_large_multiwell(self):
        # at lam = 400 several modes bind both at their gauge crossing and
        # in a sliver against the t = t0 wall; the scan must count the
        # whole allowed hull, not just the first well it meets
        end = make_cusp([0.0, 1.0])
        oracle = oracle_end_count(end, 400.0, -30, 30, 13.0, 12000)
        res = count_end(end, 400.0)
        assert res.converged
        assert res.count == oracle == 192

    def test_funnel_small(self):
        end = make_funnel([0.0, 1.0])
        oracle = oracle_end_count(end, 5.0, -250, 5, 6.0, 3000)
        res = count_end(end, 5.0)
        assert res.converged
        assert res.count == oracle == 13
        lo, hi = res.mode_range
        assert -250 <= lo <= hi <= 5

    def test_funnel_medium(self):
        end = make_funnel([0.0, 1.0])
        oracle = oracle_end_count(end, 15.0, -700, 10, 5.5, 4000)
        res = count_end(end, 15.0)
        assert res.converged
        assert res.count == oracle == 131
        lo, hi = res.mode_range
        assert -700 <= lo <= hi <= 10

    def test_funnel_eigenvalue_just_above_lambda(self):
        # mode -547 has an eigenvalue near 40.0004 on [t0, t_hi]; its
        # discrete image lies below 40 on the grids n = 453, 906 and 1812,
        # so three equal counts there over-count by one
        end = make_funnel([0.5, 1.0], tau=0.7, t0=0.1, xi=0.3)
        res = count_end(end, 40.0)
        ells = range(-700, 21)
        oracle = [richardson_mode_count(mode_potential(end, ell), end.t0,
                                        res.t_hi, 1000, 40.0) for ell in ells]
        # the modes at both edges of the range are empty
        assert not any(oracle[:5]) and not any(oracle[-5:])
        assert res.converged
        assert res.count == sum(oracle) == 667


class TestSignChangingFunnel:
    @pytest.mark.parametrize("c, lam, expected", [(40.0, 8.0, 92), (80.0, 15.0, 365)])
    def test_wall_lies_past_the_zero(self, c, lam, expected):
        # b~ = cosh t - c vanishes at t = arccosh c, and |b~| >= 4 lam holds
        # next to t0 and again beyond the zero: the wall must lie past the
        # last crossing of |b~| = 4 lam, not where the intensity first holds
        end = make_funnel([-c, 1.0])
        res = count_end(end, lam)
        assert res.converged
        assert res.t_hi > math.acosh(c)
        wall = 7.0
        oracle = sum(richardson_mode_count(mode_potential(end, int(ell)), end.t0,
                                           wall, 1000, lam)
                     for ell in mode_window(end, lam, t_max=wall))
        assert res.count == oracle == expected


class TestCountEndRegression:
    def test_cusp_linear_sweep(self):
        end = make_cusp([0.0, 1.0])
        expected = {100.0: 46, 200.0: 93, 400.0: 192}
        for lam, count in expected.items():
            res = count_end(end, lam)
            assert res.converged
            assert res.count == count

    def test_funnel_cosh(self):
        # 1515 is the dense LAPACK count of bench/oracle.py (per-mode
        # grids, near-threshold eigenvalues decided by Richardson steps)
        end = make_funnel([0.0, 1.0])
        res = count_end(end, 50.0)
        assert res.converged
        assert res.count == 1515


class TestScanInvariants:
    def test_gauge_index_shift_funnel(self):
        a = make_funnel([0.5, 1.0], tau=0.7, t0=0.1, xi=0.3)
        b = make_funnel([0.5, 1.0], tau=0.7, t0=0.1, xi=1.3)
        ra, rb = count_end(a, 15.0), count_end(b, 15.0)
        assert ra.converged and rb.converged
        assert ra.count == rb.count == 88

    def test_gauge_index_shift_cusp(self):
        a = make_cusp([0.3, 0.0, 0.8], L=1.2, t0=-0.2, xi=-0.6)
        b = make_cusp([0.3, 0.0, 0.8], L=1.2, t0=-0.2, xi=0.4)
        for lam, expected in [(15.0, 5), (40.0, 22), (90.0, 54)]:
            ra, rb = count_end(a, lam), count_end(b, lam)
            assert ra.converged and rb.converged
            assert ra.count == rb.count == expected

    def test_monotone_in_lambda(self):
        end = make_cusp([0.0, 1.0])
        counts = [count_end(end, lam).count for lam in (30.0, 100.0, 200.0)]
        assert counts == sorted(counts)
        fun = make_funnel([0.0, 1.0])
        assert count_end(fun, 5.0).count <= count_end(fun, 15.0).count

    def test_monotone_in_t0(self):
        # shrinking the end can only lose eigenvalues
        full = count_end(make_cusp([0.0, 1.0], t0=0.0), 100.0)
        trimmed = count_end(make_cusp([0.0, 1.0], t0=0.5), 100.0)
        assert trimmed.converged
        assert trimmed.count <= full.count
        assert trimmed.count == 28


class TestScanEdgeCases:
    def test_below_curvature_floor_is_empty(self):
        end = make_cusp([0.0, 1.0])
        for lam in (0.1, 0.25):
            res = count_end(end, lam)
            assert res.count == 0
            assert res.converged
            assert res.mode_range is None
            assert mode_window(end, lam).size == 0

    def test_every_mode_certified_empty(self):
        # b~ >= 50 on the whole end, so the bound with theta = 0.95,
        # s = +1 stays above 43 > lambda for every mode on every sample
        for end in (make_cusp([50.0, 1.0]), make_funnel([50.0, 1.0])):
            assert mode_window(end, 10.0).size == 0
            res = count_end(end, 10.0)
            assert res.count == 0
            assert res.converged
            assert res.mode_range is None

    def test_constant_field_rejected(self):
        for end in (make_cusp([2.0]), make_funnel([1.5])):
            with pytest.raises(BoundedFieldError):
                count_end(end, 10.0)
            with pytest.raises(BoundedFieldError):
                mode_window(end, 10.0)

    def test_bounded_nonconstant_also_rejected(self):
        # degree 0 with extra zero coefficients is still bounded
        end = make_cusp([2.0, 0.0, 0.0])
        with pytest.raises(BoundedFieldError):
            count_end(end, 10.0)

    def test_mode_range_matches_counted_window(self):
        end = make_cusp([0.0, 1.0])
        assert count_end(end, 100.0).mode_range == (-6, 6)

    def test_t_max_must_exceed_t0(self):
        end = make_cusp([0.0, 1.0])
        with pytest.raises(ValueError, match="t_max"):
            count_end(end, 30.0, t_max=0.0)

    def test_cusp_overflow_is_an_error(self):
        # e^{2t} overflows past t = 354.89: a wall beyond it must not
        # leave an empty window and a silent, converged count of 0
        end = make_cusp([0.0, 1.0])
        assert count_end(end, 50.0, t_max=350.0).count == 21
        with pytest.raises(DomainError, match="not finite at t=354.8"):
            count_end(end, 50.0, t_max=400.0)
        with pytest.raises(DomainError, match="not finite"):
            mode_potential(end, 0)(np.array([1.0, 400.0]))

    def test_cusp_wall_near_overflow_is_quiet(self):
        # (ell - a)^2 w and the window's discriminant overflow to +-inf
        # near the wall; both are read without warnings, and a wall where
        # 2 (1 - theta) w overflows too still keeps every contributing mode
        end = make_cusp([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t_max in (350.0, 354.8):
                assert count_end(end, 50.0, t_max=t_max).count == 21

    def test_funnel_overflow_is_an_error(self):
        # cosh t sinh t in the gauge of b~ = cosh t overflows past t =
        # 355.59: that wall is refused, and without numpy warnings first
        end = make_funnel([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite at t=355.5"):
                count_end(end, 50.0, t_max=800.0)
            with pytest.raises(DomainError, match="not finite"):
                mode_potential(end, 0)(np.array([1.0, 800.0]))

    def test_funnel_wall_near_overflow_is_quiet(self):
        # at t = 355.5 w = sech^2 t is subnormal and a near -1e308; a wall
        # there, deep in the forbidden region, keeps the count
        end = make_funnel([0.0, 1.0])
        want = count_end(end, 10.0).count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t_max in (350.0, 355.5):
                assert count_end(end, 10.0, t_max=t_max).count == want

    def test_options_validation(self, monkeypatch):
        # an explicit wall is checked also where lam <= 1/4 returns early,
        # and that path never searches for a wall of its own
        end = make_cusp([0.0, 1.0])
        for lam in (30.0, 0.1):
            for bad in (float("inf"), float("-inf"), float("nan"), 0.0):
                with pytest.raises(ValueError, match="t_max"):
                    count_end(end, lam, t_max=bad)
                with pytest.raises(ValueError, match="t_max"):
                    mode_window(end, lam, t_max=bad)
        monkeypatch.setattr(modes, "last_crossing", None)
        for t_max in (None, 6.0):
            assert count_end(end, 0.1, t_max=t_max).count == 0
            assert mode_window(end, 0.1, t_max=t_max).size == 0

    def test_far_reach_is_refused(self):
        # b~ = e^-250 y reaches 4 lambda only past t0 + 200: the wall is
        # refused at the same range as the phase-space side refuses t_end
        end = make_cusp([0.0, math.exp(-250.0)])
        for f in (count_end, mode_window):
            with pytest.raises(BoundedFieldError, match="intensity reaches"):
                f(end, 30.0)

    def test_nonfinite_threshold_is_refused(self):
        # with or without a fixed wall, inf and nan are named errors
        # rather than an overflow in the grid size or a failed search
        end = make_cusp([0.0, 1.0])
        for bad in (float("inf"), float("-inf"), float("nan")):
            for t_max in (None, 6.0):
                with pytest.raises(ValueError, match="lam must be finite"):
                    count_end(end, bad, t_max=t_max)
                with pytest.raises(ValueError, match="lam must be finite"):
                    mode_window(end, bad, t_max=t_max)

    def test_one_coefficient_evaluation_per_grid(self, monkeypatch):
        # the window and the first sweep read one evaluation of (a, w, q)
        # on the n + 2 points of the first grid; each refinement one more
        sizes = []
        coefficients = modes._coefficients

        def counted(end, t):
            sizes.append(np.size(t))
            return coefficients(end, t)
        monkeypatch.setattr(modes, "_coefficients", counted)
        for end, lam in ((make_cusp([0.0, 1.0]), 400.0),
                         (make_funnel([0.0, 0.0, 1.0]), 25.0)):
            sizes.clear()
            res = count_end(end, lam)
            n0 = sizes[0] - 2
            assert len(sizes) > 1 and res.converged
            assert sizes == [(n0 << k) + 2 for k in range(len(sizes))]
            assert res.n == n0 << (len(sizes) - 1)

    def test_result_metadata(self):
        end = make_cusp([0.0, 1.0])
        res = count_end(end, 100.0)
        assert res.lam == 100.0
        assert res.n > 0
        assert res.t_hi > end.t0


# the ends of the acceptance criteria and of the benchmark
WINDOW_ENDS = [
    make_cusp([0.0, 1.0]),
    make_funnel([0.0, 1.0]),
    make_funnel([0.0, 0.0, 1.0]),
    make_funnel([0.5, 1.0], tau=0.7, t0=0.1, xi=0.3),
    make_cusp([0.3, 0.0, 0.8], L=1.2, t0=-0.2, xi=-0.6),
    make_funnel([0.0, 1.4], tau=1.3, t0=0.2, xi=0.45),
    make_funnel([0.3, 0.0, 0.8], tau=0.8, t0=0.05, xi=-0.35),
    make_funnel([0.0, 0.6, 0.5], tau=1.1, xi=0.15),
    make_cusp([0.0, 0.7, 0.2], L=0.8, t0=0.3, xi=0.25),
    make_cusp([0.5, 1.5], L=1.4, t0=-0.2, xi=-0.3),
    make_funnel([0.0, 0.0, 1.0], tau=0.8, t0=0.2),
]


class TestModeWindow:
    @pytest.mark.parametrize("lam", [20.0, 100.0])
    @pytest.mark.parametrize("end", WINDOW_ENDS)
    def test_modes_outside_are_empty(self, end, lam):
        # every mode next to the window but outside it has its lowest
        # Dirichlet eigenvalue on [t0, t_hi] at or above lambda, by dense
        # LAPACK on its own potential
        window = mode_window(end, lam)
        res = count_end(end, lam)
        lo, hi = res.mode_range
        assert window[0] <= lo <= hi <= window[-1]
        inside = set(window.tolist())
        outside = sorted({ell + d for ell in inside for d in (-1, 1)} - inside)
        assert outside
        for ell in outside:
            e0 = dense_lowest_eigenvalue(mode_potential(end, ell), end.t0,
                                         res.t_hi, 6000)
            assert e0 >= lam, (ell, e0)

    def test_wider_than_max_modes_is_not_converged(self, monkeypatch):
        end = make_funnel([0.0, 1.0])
        assert mode_window(end, 50.0).size > 1000
        assert count_end(end, 50.0).converged
        monkeypatch.setattr(modes, "_MAX_MODES", 1000)
        res = count_end(end, 50.0)
        assert not res.converged
        assert res.count == 0
        assert res.mode_range is None

    def test_unsettled_mode_is_not_converged(self, monkeypatch):
        # a mode whose counts at lambda and lambda - delta_h still differ
        # on the last grid leaves the result unconverged, and its count at
        # lambda enters the sum
        end = make_cusp([0.0, 1.0])
        res = count_end(end, 1600.0)
        assert res.converged
        assert res.count == 776
        monkeypatch.setattr(modes, "_MAX_REFINEMENTS", 1)
        res = count_end(end, 1600.0)
        assert not res.converged
        assert res.count == 777


# The count slots of the benchmark's funnel-scan and cusp-ladder workloads,
# with their dense-oracle counts (bench/oracle.py: LAPACK on per-mode grids
# with Richardson extrapolation, apart from hypmag; copied here so that the
# test reads nothing under bench/).  An integer shift of xi shifts the mode
# index only, so the count does not change.
BENCH_COUNTS = [
    (make_funnel([0.0, 1.0]), 6.0, 18),
    (make_funnel([0.0, 1.0]), 10.0, 57),
    (make_funnel([0.0, 0.0, 1.0]), 25.0, 65),
    (make_funnel([0.0, 0.0, 1.0]), 50.0, 190),
    (make_funnel([0.5, 1.0], tau=0.7, t0=0.1, xi=0.3), 12.0, 55),
    (make_funnel([0.0, 1.4], tau=1.3, t0=0.2, xi=0.45), 9.0, 38),
    (make_funnel([0.3, 0.0, 0.8], tau=0.8, t0=0.05, xi=-0.35), 30.0, 76),
    (make_funnel([0.0, 0.6, 0.5], tau=1.1, xi=0.15), 20.0, 64),
    (make_cusp([0.0, 1.0]), 400.0, 192),
    (make_cusp([0.0, 1.0]), 800.0, 390),
    (make_cusp([0.0, 1.0]), 1600.0, 776),
    (make_cusp([0.0, 1.0]), 3200.0, 1571),
    (make_cusp([0.0, 1.0]), 6400.0, 3160),
    (make_cusp([0.0, 0.7, 0.2], L=0.8, t0=0.3, xi=0.25), 400.0, 108),
    (make_cusp([0.0, 0.7, 0.2], L=0.8, t0=0.3, xi=0.25), 1600.0, 456),
    (make_cusp([0.5, 1.5], L=1.4, t0=-0.2, xi=-0.3), 800.0, 659),
]


class TestBenchCounts:
    @pytest.mark.parametrize("shift", [-20, 0, 40])
    def test_converged_and_equal_to_the_oracle(self, shift):
        for end, lam, want in BENCH_COUNTS:
            res = count_end(dataclasses.replace(end, xi=end.xi + shift), lam)
            assert res.converged, (end, lam, shift)
            assert res.count == want, (end, lam, shift)
