"""Landau counting weight and discrete level sets of constant fields."""

import math

import pytest

from hypmag import ess_bottom, landau_count, landau_level_set


class TestLandauCount:
    def test_reference_values(self):
        # levels of b = 1 sit at odd multiples 1, 3, 5, ...
        assert landau_count(5.0, 1.0) == 2.0
        assert landau_count(3.5, 1.0) == 2.0
        assert landau_count(0.5, 1.0) == 0.0
        assert landau_count(5.0, 0.75) == 2.25

    def test_strict_at_jump_points(self):
        # a level sitting exactly at mu does not count
        b = 1.0
        for k in range(4):
            mu = (2 * k + 1) * b
            assert landau_count(mu, b) == b * k
            assert landau_count(mu + 1e-9, b) == b * (k + 1)

    def test_zero_field_branch(self):
        assert landau_count(7.0, 0.0) == 3.5
        assert landau_count(0.0, 0.0) == 0.0

    def test_nonpositive_mu(self):
        assert landau_count(0.0, 2.0) == 0.0
        assert landau_count(-3.0, 2.0) == 0.0
        assert landau_count(-3.0, 0.0) == 0.0

    def test_scaling_in_b(self):
        # N(mu, b) = b * #levels below mu; check against a direct loop
        for mu, b in [(10.0, 0.3), (10.0, 1.7), (25.0, 4.0), (1.0, 10.0)]:
            k = sum(1 for j in range(1000) if (2 * j + 1) * b < mu)
            assert landau_count(mu, b) == pytest.approx(b * k, rel=1e-14)

    def test_quotient_overflow(self):
        # (mu - b) / (2b) overflows a float; the count b ceil of it is then
        # (mu - b)/2 plus less than b, which is mu/2 to rounding
        for mu, b in ((5.0, 5e-324), (5.0, 1e-320), (1e308, 1e-10)):
            assert landau_count(mu, b) == 0.5 * mu
        # 2b overflows but (mu - b) / b does not: one level, below mu
        assert landau_count(1.7e308, 1e308) == 1e308

    def test_returns_float(self):
        assert isinstance(landau_count(5.0, 1.0), float)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            landau_count(5.0, -1.0)

    def test_nonfinite_arguments_rejected(self):
        # named errors, not an OverflowError or NaN conversion in the ceil
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="mu must be finite"):
                landau_count(bad, 1.0)
            with pytest.raises(ValueError, match="b must be finite"):
                landau_count(5.0, bad)


class TestEssBottom:
    def test_values(self):
        assert ess_bottom(0.0) == 0.25
        assert ess_bottom(2.0) == 4.25
        assert ess_bottom(-2.0) == 4.25
        assert ess_bottom(0.4) == pytest.approx(0.41)


class TestLevelSet:
    def test_beta_2_5(self):
        assert landau_level_set(2.5).levels == (2.5, 5.5)

    def test_beta_5_5(self):
        assert landau_level_set(5.5).levels == (5.5, 14.5, 21.5, 26.5, 29.5)

    def test_small_beta_empty(self):
        assert landau_level_set(0.4).levels == ()
        assert landau_level_set(0.5).levels == ()

    def test_sign_invariance(self):
        assert landau_level_set(-2.5).levels == landau_level_set(2.5).levels

    def test_levels_below_essential_bottom(self):
        for beta in (0.7, 1.0, 2.5, 5.5, 9.3):
            levels = landau_level_set(beta).levels
            assert list(levels) == sorted(levels)
            assert all(lv < ess_bottom(beta) for lv in levels)
            # ladder formula, checked term by term
            for j, lv in enumerate(levels):
                assert lv == pytest.approx((2 * j + 1) * beta - j * (j + 1))

    def test_count_matches_half_integer_rule(self):
        for beta in (0.49, 0.51, 1.5, 2.49, 2.51, 7.0):
            expected = len([j for j in range(100) if j < abs(beta) - 0.5])
            assert len(landau_level_set(beta).levels) == expected

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            landau_level_set(math.inf)

    def test_level_cap(self):
        # 2^20 levels at most, the bound weyl states; past it, refused
        assert len(landau_level_set(2.0**20 + 0.5).levels) == 2**20
        for beta in (2e6, -2e6, 1e9):
            with pytest.raises(ValueError, match="beta"):
                landau_level_set(beta)
