"""Inertia counting, batched mode counts and bisection eigenvalues."""

import bisect
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import dense_count_below, dense_eigenvalues
from hypmag import (MorseOptions, TridiagonalOperator, count_below,
                    discretize, essential, lowest_eigenvalues, sturm1d)
from hypmag.essential import _reversed, funnel_limit_potential
from hypmag.landau import ess_bottom
from hypmag.sturm1d import mode_counts


def full_sweep(alpha, c2s):
    """Negative pivots of the nudged LDL^T recurrence over every row; a
    zero pivot becomes eps (|alpha| + 1), whatever the row's coupling."""
    count, d = 0, math.inf
    for a, c2 in zip(alpha, c2s):
        d = a - c2 / d
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = sturm1d._EPS * (abs(a) + 1.0)
    return count


def full_count_below(T, lam):
    return full_sweep((T.diag - lam).tolist(),
                      [0.0] + (T.off * T.off).tolist())


def tailed_operator(rng):
    """A random operator whose rows past a random point are (nearly) all
    diagonally dominant at lam, with some zero couplings, and lam."""
    n = int(rng.integers(1, 2600))
    off = rng.uniform(-3.0, 3.0, n - 1) * rng.choice([1.0, 1e-3, 1e3])
    off[rng.random(n - 1) < 0.05] = 0.0
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lam = float(rng.uniform(-5.0, 5.0))
    # margins over the dominance bound: some just below it, some at it
    margin = rng.choice([1.0, 1e-3, 1e-9, 0.0, -1e-12], n) * rng.random(n)
    diag = lam + radius * (1.0 + margin)
    well = int(rng.integers(0, n + 1))
    diag[:well] = rng.uniform(-6.0, 6.0, well) + lam
    return TridiagonalOperator(diag=diag, off=off), lam


def random_tridiagonal(rng):
    n = int(rng.integers(1, 201))
    diag = rng.uniform(-5.0, 5.0, n)
    off = rng.uniform(-3.0, 3.0, max(n - 1, 0))
    return TridiagonalOperator(diag=diag, off=off)


def walled_tridiagonal(rng):
    """A random operator with 1 to n/3 +inf rows (Dirichlet walls)."""
    n = int(rng.integers(3, 31))
    diag = rng.uniform(-5.0, 5.0, n)
    diag[rng.choice(n, int(rng.integers(1, n // 3 + 1)), replace=False)] = np.inf
    return TridiagonalOperator(diag=diag, off=rng.uniform(-3.0, 3.0, n - 1))


def block_eigenvalues(T):
    """Sorted eigenvalues of the blocks between +inf rows, from LAPACK."""
    walls = np.flatnonzero(np.isinf(T.diag))
    evals = [dense_eigenvalues(T.diag[lo:hi], T.off[lo:hi - 1])
             for lo, hi in zip(np.r_[0, walls + 1], np.r_[walls, T.n]) if hi > lo]
    return np.sort(np.concatenate(evals))


def mp_eigenvalues(diag, off, dps=700):
    """Sorted eigenvalues of a small tridiagonal matrix from mpmath; 700
    digits resolve 1e-308 next to 1e308, and no entry can overflow."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        A = mpmath.zeros(len(diag))
        for i, x in enumerate(diag):
            A[i, i] = x
        for i, x in enumerate(off):
            A[i, i + 1] = A[i + 1, i] = x
        return sorted(mpmath.eigsy(A, eigvals_only=True))


class TestDiscretize:
    def test_structure(self):
        T = discretize(lambda t: t, 0.0, 1.0, 4)
        h = 0.2
        assert T.n == 4
        grid = 0.2 * np.arange(1, 5)
        assert np.allclose(T.diag, 2.0 / h**2 + grid)
        assert np.allclose(T.off, -1.0 / h**2)

    def test_scalar_result_is_broadcast(self):
        calls = []

        def V(t):
            calls.append(np.shape(t))
            return 1.5
        T = discretize(V, 0.0, 1.0, 8)
        assert calls == [(8,)]
        h = 1.0 / 9
        assert np.array_equal(T.diag, np.full(8, 2.0 / h**2 + 1.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            discretize(lambda t: t, 1.0, 1.0, 4)
        with pytest.raises(ValueError):
            discretize(lambda t: t, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            discretize(lambda t: np.full_like(t, math.inf), 0.0, 1.0, 4)

    def test_nonfinite_message_names_the_point(self):
        def V(t):
            return np.where(t > 0.5, np.inf, 0.0 * t)
        with pytest.raises(ValueError,
                           match=r"at t=0\.5555555555555556 \(grid index 4\)"):
            discretize(V, 0.0, 1.0, 8)

    def test_operator_shape_validation(self):
        with pytest.raises(ValueError):
            TridiagonalOperator(diag=np.array([1.0, 2.0]), off=np.array([]))


class TestCountBelow:
    def test_matches_dense_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            T = random_tridiagonal(rng)
            evals = dense_eigenvalues(T.diag, T.off)
            for lam in rng.uniform(-8.0, 8.0, 4):
                assert count_below(T, lam) == int(np.sum(evals < lam))

    def test_strict_at_exact_eigenvalue(self):
        T = TridiagonalOperator(diag=np.array([1.0, 3.0]), off=np.array([0.0]))
        assert count_below(T, 1.0) == 0
        assert count_below(T, 3.0) == 1
        assert count_below(T, 3.0 + 1e-9) == 2

    def test_toeplitz_zero_pivot_chain(self):
        # diag 2, off -1: eigenvalues 2 - 2 cos(j pi / (n+1)); lam = 2 sits
        # exactly on the middle eigenvalue for odd n and the LDL^T sweep
        # hits a zero pivot chain that must resolve to the strict count.
        # The expected count is exact integer arithmetic: 2 - 2 cos(j pi /
        # (n+1)) < 2 iff 2j < n+1. Neither LAPACK (which returns the middle
        # eigenvalue as 2 - 2.2e-16 for n = 5) nor the closed form in floats
        # (cos(pi/2) = 6.1e-17) can decide a threshold that sits exactly on
        # an eigenvalue, so LAPACK is consulted only just off it.
        for n in (5, 7, 51):
            T = TridiagonalOperator(diag=np.full(n, 2.0), off=np.full(n - 1, -1.0))
            expected = sum(1 for j in range(1, n + 1) if 2 * j < n + 1)
            assert expected == (n - 1) // 2
            assert dense_count_below(T.diag, T.off, 2.0 - 1e-9) == expected
            assert dense_count_below(T.diag, T.off, 2.0 + 1e-9) == expected + 1
            assert count_below(T, 2.0) == expected

    def test_single_entry(self):
        T = TridiagonalOperator(diag=np.array([4.0]), off=np.array([]))
        assert count_below(T, 4.0) == 0
        assert count_below(T, 4.5) == 1

    def test_infinite_and_nan_thresholds(self):
        T = random_tridiagonal(np.random.default_rng(8))
        assert count_below(T, math.inf) == T.n
        assert count_below(T, -math.inf) == 0
        with pytest.raises(ValueError, match="lam"):
            count_below(T, math.nan)

    def test_infinite_rows_split_into_blocks(self):
        # a +inf row is a wall: the count is that of the finite blocks,
        # and lam = inf counts every finite row (no NaN pivot, no warning)
        rng = np.random.default_rng(22)
        for _ in range(200):
            T = walled_tridiagonal(rng)
            evals = block_eigenvalues(T)
            for lam in rng.uniform(-8.0, 8.0, 5):
                assert count_below(T, lam) == int(np.sum(evals < lam))
            assert count_below(T, math.inf) == evals.size
        T = TridiagonalOperator(diag=np.array([1.0, np.inf, 3.0]),
                                off=np.array([0.5, 0.5]))
        assert count_below(T, math.inf) == 2

    def test_row_past_a_wall_is_nudged_as_row_zero(self):
        # the block [2, 2 + 3e15, 2, 2] past the wall has 2 eigenvalues
        # below 2 (-1 and -3.3e-16 after the shift); its first pivot at
        # lam = 2 is 0, and only the nudge to _EPS that row 0 gets makes
        # the next one, 3e15 - 1 / _EPS, negative.  off[0] couples row 0
        # to the wall, so -0.5 there changes no eigenvalue but makes the
        # couplings a list
        diag = np.array([5.0, np.inf, 2.0, 2.0 + 3e15, 2.0, 2.0])
        block = mp_eigenvalues(diag[2:] - 2.0, [-1.0] * 3, dps=50)
        assert sum(1 for x in block if x < 0) == 2
        for off0, form in ((-1.0, float), (-0.5, np.ndarray)):
            off = np.r_[off0, np.full(4, -1.0)]
            T = TridiagonalOperator(diag=diag, off=off)
            assert type(T._coupling) is form
            blocks = [TridiagonalOperator(diag=diag[:1], off=off[:0]),
                      TridiagonalOperator(diag=diag[2:], off=off[2:])]
            assert count_below(T, 2.0) == 2 == sum(
                count_below(B, 2.0) for B in blocks)

    def test_sweep_entered_from_inf_counts_the_trailing_block(self):
        # c2 / inf = 0: a sweep entered from d = inf at row r > 0 is a
        # sweep of the rows from r on, in either form of the couplings,
        # also where row r has a zero pivot whose nudge sets the count
        rng = np.random.default_rng(24)
        cases = [(np.tile([2.0, 2.0 + 3e15, 2.0], 5), np.full(14, -1.0), 2.0),
                 (np.array([5.0, 7.0, 2.0, 2.0 + 3e15, 2.0, 2.0]),
                  np.full(5, -1.0), 2.0)]
        for _ in range(20):
            T = random_tridiagonal(rng)
            cases.append((T.diag, T.off, float(rng.choice(T.diag))))
        for diag, off, lam in cases:
            T = TridiagonalOperator(diag=diag, off=off)
            alpha = (T.diag - lam).tolist()
            listed = [0.0] + (T.off * T.off).tolist()
            for r in range(1, min(T.n, 40)):
                block = TridiagonalOperator(diag=diag[r:], off=off[r:])
                forms = [listed[r:]]
                if isinstance(T._coupling, float):
                    forms.append(T._coupling)
                for c2 in forms:
                    k, _ = sturm1d._pivot_sweep(alpha[r:], c2, math.inf)
                    assert k == count_below(block, lam)


class TestFloatRange:
    """Operators on which diag - lam leaves the float range: alpha reaches
    -+inf without a warning (an inf alpha is a wall, a -inf one a negative
    pivot), and bisection midpoints do not overflow."""

    BIG = float(np.finfo(float).max)
    CASES = [([-1e308, 1e308, 0.0], [1.0, 1.0]), ([1e308, 0.0], [1.0]),
             ([-BIG, BIG, 0.0], [1.0, 1.0]), ([-BIG, 0.0], [1.0])]

    def test_counts_match_mpmath(self):
        # exact, but at -+1e308 and -+BIG: there an eigenvalue lies some
        # 1e-308 from lam, where a diag - lam rounds to 0, so it is at lam
        # in floats, and the count lies between those at lam -+ 4 ulps
        mpmath = pytest.importorskip("mpmath")
        for diag, off in self.CASES:
            T = TridiagonalOperator(diag=np.array(diag), off=np.array(off))
            evals = mp_eigenvalues(diag, off)
            for lam in (-self.BIG, -1e308, -1e307, -0.5, 0.5, 1e307, 1e308,
                        self.BIG, -math.inf, math.inf):
                with mpmath.workdps(700):
                    delta = 4 * mpmath.mpf(math.ulp(lam) if math.isfinite(lam) else 0)
                    low = sum(1 for x in evals if x < lam - delta)
                    high = sum(1 for x in evals if x < lam + delta)
                assert low <= count_below(T, lam) <= high
                if abs(lam) not in (1e308, self.BIG):
                    assert low == high

    def test_eigenvalues_match_mpmath(self):
        for diag, off in self.CASES:
            T = TridiagonalOperator(diag=np.array(diag), off=np.array(off))
            got = lowest_eigenvalues(T, len(diag))
            for g, want in zip(got, mp_eigenvalues(diag, off)):
                assert abs(g - want) <= max(1e-10, 2.0 * math.ulp(g))


class TestDominantTailCut:
    """The scalar sweeps stop in the dominant tail; the counts must equal
    those of a sweep over every row, bit for bit."""

    def test_count_below_random_tails(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            T, lam = tailed_operator(rng)
            assert count_below(T, lam) == full_count_below(T, lam)

    def test_count_below_at_and_near_eigenvalues(self):
        # wells with long forbidden tails on either side, and lam on the
        # dense eigenvalues, one ulp off them and a little off them: a
        # count decided only far down the tail
        rng = np.random.default_rng(5)
        for n in (40, 700, 2100):
            for V in (lambda t: t * t, lambda t: 1e4 * (t > 0.6) + 0.0 * t,
                      funnel_limit_potential(2.3)):
                T = discretize(V, -6.0, 3.0, n)
                evals = dense_eigenvalues(T.diag, T.off)[:4]
                for ev in evals.tolist():
                    for lam in (ev, np.nextafter(ev, -np.inf),
                                np.nextafter(ev, np.inf), ev * (1 + 1e-12),
                                ev + rng.uniform(-1.0, 1.0)):
                        for op in (T, TridiagonalOperator(
                                diag=T.diag[::-1], off=T.off[::-1])):
                            assert count_below(op, lam) == full_count_below(op, lam)

    def test_count_below_exact_eigenvalues_in_the_tail(self):
        # a Toeplitz zero-pivot chain (lam = 2 on its middle eigenvalue)
        # before a dominant tail, and decoupled rows equal to lam inside it
        for n, tail in ((5, 3), (51, 200), (1025, 2000)):
            diag = np.concatenate((np.full(n, 2.0), np.full(tail, 4.5)))
            off = np.full(n + tail - 1, -1.0)
            off[n - 1] = 0.0
            diag[n + tail // 2] = 2.0
            off[n + tail // 2 - 1:n + tail // 2 + 1] = 0.0
            T = TridiagonalOperator(diag=diag, off=off)
            assert count_below(T, 2.0) == full_count_below(T, 2.0) == (n - 1) // 2

    def test_tail_floors_match_a_per_row_reference(self):
        # floor per row, minimum per _CUT_ROWS rows, suffix minimum, less
        # 2 eps |.|: equal as hex across every block boundary
        rng = np.random.default_rng(31)
        s, rows = sturm1d._SLACK, sturm1d._CUT_ROWS
        for n in (1, 63, 64, 65, 1023, 1024, 1025, 2047, 2048, 2049):
            diag = rng.uniform(-4.0, 4.0, n) + rng.choice([0.0, 10.0], n)
            off = rng.uniform(-3.0, 3.0, n - 1)
            off[rng.random(n - 1) < 0.1] = 0.0
            diag[rng.integers(0, n, 3)] = np.inf
            T = TridiagonalOperator(diag=diag, off=off)
            e = [0.0] + [math.sqrt(c * c) for c in off.tolist()] + [0.0]
            floors = [x - (1.0 + s) * (e[i] + e[i + 1])
                      for i, x in enumerate(diag.tolist())]
            want = [min(floors[b:b + rows]) for b in range(0, n, rows)]
            for b in range(len(want) - 2, -1, -1):
                want[b] = min(want[b], want[b + 1])
            want = [f * (1.0 - 2.0 * sturm1d._EPS * ((f > 0) - (f < 0)))
                    for f in want]
            assert [f.hex() for f in T._tail_floors] == [f.hex() for f in want]

    def test_nonfinite_rows_never_cut(self):
        # infinite and huge diagonal entries anywhere (an overflowing cusp
        # wall among them) are kept; NaN, -inf on the diagonal and couplings
        # that are not finite or whose square overflows are refused
        rng = np.random.default_rng(17)
        for _ in range(300):
            T, lam = tailed_operator(rng)
            diag, off = T.diag.copy(), T.off.copy()
            where = rng.integers(0, diag.size, int(rng.integers(1, 4)))
            diag[where] = rng.choice([np.inf, 1e200], where.size)
            T = TridiagonalOperator(diag=diag, off=off)
            assert count_below(T, lam) == full_count_below(T, lam)
            for name, value in (("diag", np.nan), ("diag", -np.inf),
                                ("off", np.nan), ("off", np.inf),
                                ("off", -np.inf), ("off", 1e200)):
                entries = {"diag": diag.copy(), "off": off.copy()}
                if entries[name].size:
                    entries[name][rng.integers(0, entries[name].size)] = value
                    with pytest.raises(ValueError):
                        TridiagonalOperator(**entries)
        n = 3000
        t = np.linspace(340.0, 360.0, n)
        with np.errstate(over="ignore"):
            diag = 2.0 + np.exp(2.0 * t) * np.where(t < 345.0, 0.0, 1.0)
        assert np.isinf(diag[-1])
        T = TridiagonalOperator(diag=diag, off=np.full(n - 1, -1.0))
        for lam in (0.5, 2.0, 3.9):
            assert count_below(T, lam) == full_count_below(T, lam)

    @pytest.mark.parametrize("form", ["default", "scalar", "lockstep"])
    def test_mode_counts_every_width(self, monkeypatch, form):
        # families whose modes leave the well into a rising wall (cusp-like,
        # overflowing for the wall at 356), per-mode thresholds, grids on
        # either side of _COEFF_ROWS; the wide widths run the lockstep slice
        widths = [*range(1, sturm1d._NARROW + 2), 24, 40, 59]
        if form != "default":
            monkeypatch.setattr(sturm1d, "_NARROW",
                                0 if form == "lockstep" else 10**9)
        rng = np.random.default_rng(99)
        families = [
            (0.0, 4.0, lambda t: (3.0 * np.sin(t), np.exp(1.5 * t),
                                  0.25 + np.cos(3.0 * t))),
            (-2.0, 356.0, lambda t: (0.5 + 0.0 * t, np.exp(2.0 * t),
                                     0.25 + 0.0 * t)),
            (0.0, 9.0, lambda t: (0.0 * t, 0.0 * t, 4.0 * (t > 2.0) + 0.0 * t)),
        ]
        for m in widths:
            t_lo, t_hi, coeffs = families[m % len(families)]
            n = int(rng.choice([1, 37, 400, sturm1d._COEFF_ROWS + 37, 2500]))
            ells = np.round(rng.uniform(-8.0, 8.0, m))
            lams = rng.uniform(-1.0, 60.0, m)
            lams[::3] = 2.0
            with np.errstate(over="ignore", invalid="ignore"):
                got = grid_counts(coeffs, t_lo, t_hi, n, ells, lams)
                h = (t_hi - t_lo) / (n + 1)
                inv_h2 = 1.0 / (h * h)
                a, w, q = coeffs(t_lo + h * np.arange(1, n + 1))
                c2s = [0.0] + [inv_h2 * inv_h2] * (n - 1)
                for ell, lam, k in zip(ells, lams, got):
                    x = ell - a
                    alpha = 2.0 * inv_h2 + (x * x * w + q) - lam
                    assert k == full_sweep(alpha.tolist(), c2s)


def row_pivots(alpha, c2):
    """Every pivot of _pivot_sweep over the list alpha from row 0, one row
    at a time; c2 is one float or a list per row, as for _pivot_sweep."""
    out, d = [], math.inf
    for i, a in enumerate(alpha):
        _, d = sturm1d._pivot_sweep([a], c2 if isinstance(c2, float)
                                    else c2[i:i + 1], d)
        out.append(d.hex())
    return out


def zero_first_pivot(n):
    """A grid of step 1 whose first pivot at lam = 2 is exactly 0, and
    whose second is negative only after the nudge to _EPS (c2 / _EPS beats
    3e15, where a nudge _EPS (c2 + 1) read from c2 = 1 would not):
    (V, t_lo, t_hi, n)."""
    def V(t):
        return np.where(np.round(t) == 2.0, 3e15, 0.0) + np.sin(t) ** 2 * (t > 2.5)
    return V, 0.0, n + 1.0, n


class TestUniformCoupling:
    """An operator with one coupling runs the recurrence on one float c2;
    its pivots, counts and cuts equal those of the list of couplings (0 at
    row 0), bit for bit."""

    @staticmethod
    def cases():
        # discretized wells at, one ulp off and a little off eigenvalues,
        # the Toeplitz zero-pivot chain, and an exactly zero first pivot
        rng = np.random.default_rng(3)
        for n in (40, 700, 2100):
            for V in (lambda t: t * t, lambda t: 1e4 * (t > 0.6) + 0.0 * t,
                      funnel_limit_potential(2.3)):
                T = discretize(V, -6.0, 3.0, n)
                for ev in dense_eigenvalues(T.diag, T.off)[:3].tolist():
                    for lam in (ev, np.nextafter(ev, -np.inf),
                                np.nextafter(ev, np.inf), ev + rng.uniform(-1, 1)):
                        yield T, float(lam)
        for n in (5, 7, 51, 1025):
            yield TridiagonalOperator(diag=np.full(n, 2.0), off=np.full(n - 1, -1.0)), 2.0
        for n in (1, 2, 300, 1500):
            yield discretize(*zero_first_pivot(n)), 2.0

    def test_pivots_match_the_list_form(self):
        for T, lam in self.cases():
            alpha = (T.diag - lam).tolist()
            listed = [0.0] + (T.off * T.off).tolist()
            assert row_pivots(alpha, T._coupling) == row_pivots(alpha, listed)
            cut = sturm1d._CUT_ROWS * bisect.bisect_left(T._tail_floors, lam)
            for tail in (0, cut, T.n):
                got = sturm1d._cut_sweep(alpha, T._coupling, math.inf, tail)
                ref = sturm1d._cut_sweep(alpha, listed, math.inf, tail)
                assert (got[0], got[1].hex(), got[2]) == (ref[0], ref[1].hex(), ref[2])
            assert count_below(T, lam) == full_count_below(T, lam)

    def test_zero_first_pivot_is_nudged_as_without_coupling(self):
        # row 0 has no coupling; the float c2 = 1 of every other row must
        # not enter its nudge, which is _EPS in both forms, so that the
        # next pivot 3e15 - 1 / _EPS is negative
        for n in (2, 300, 1500):
            T = discretize(*zero_first_pivot(n))
            assert T.diag[0] == 2.0 and T._coupling == 1.0
            alpha = (T.diag - 2.0).tolist()
            assert (sturm1d._pivot_sweep(alpha[:2], 1.0, math.inf)
                    == sturm1d._pivot_sweep(alpha[:2], [0.0, 1.0], math.inf))
            assert sturm1d._pivot_sweep(alpha[:2], 1.0, math.inf)[0] == 1
            assert count_below(T, 2.0) == full_count_below(T, 2.0) >= 1
            V = zero_first_pivot(n)[0]
            for m in (1, sturm1d._NARROW, 20):
                got = grid_counts(lambda t: (0.0 * t, 0.0 * t, V(t)),
                                  0.0, n + 1.0, n, np.arange(m), 2.0)
                assert got.tolist() == [full_count_below(T, 2.0)] * m

    def test_uniform_operators_take_the_float_form(self, monkeypatch):
        T = discretize(lambda t: t * t, -6.0, 3.0, 3000)
        assert type(T._coupling) is float
        h = 9.0 / 3001
        assert T._coupling == (1.0 / (h * h)) ** 2
        assert discretize(lambda t: t, 0.0, 1.0, 1)._coupling == 0.0
        assert type(random_tridiagonal(np.random.default_rng(1))._coupling) is not float
        seen, sweep = [], sturm1d._pivot_sweep

        def recorded(alpha, c2, d):
            seen.append(type(c2))
            return sweep(alpha, c2, d)
        monkeypatch.setattr(sturm1d, "_pivot_sweep", recorded)
        count_below(T, 30.0)
        mode_counts(*wavy_coeffs(np.linspace(0.1, 4.0, 400)), 0.01,
                    np.arange(3.0), 20.0)
        assert seen and set(seen) == {float}
        seen.clear()
        count_below(random_tridiagonal(np.random.default_rng(1)), 0.0)
        assert seen and set(seen) == {list}


class TestGershgorin:
    def test_contains_spectrum(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            T = random_tridiagonal(rng)
            lo, hi = T.gershgorin()
            evals = dense_eigenvalues(T.diag, T.off)
            assert lo <= evals.min() and evals.max() <= hi
        # +inf rows are left out: the bounds are those of the finite rows
        for _ in range(10):
            T = walled_tridiagonal(rng)
            lo, hi = T.gershgorin()
            evals = block_eigenvalues(T)
            assert math.isfinite(hi) and lo <= evals[0] and evals[-1] <= hi


def plain_bisection(T, k, tol):
    """Every index bisected on its own from the full Gershgorin bracket."""
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


class TestLowestEigenvalues:
    def test_matches_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            T = random_tridiagonal(rng)
            k = min(T.n, 5)
            got = lowest_eigenvalues(T, k, tol=1e-9)
            expected = np.sort(dense_eigenvalues(T.diag, T.off))[:k]
            assert np.allclose(got, expected, atol=1e-8)

    def test_repeated_eigenvalues(self):
        T = TridiagonalOperator(diag=np.array([1.0, 1.0]), off=np.array([0.0]))
        got = lowest_eigenvalues(T, 2, tol=1e-10)
        assert got[0] == pytest.approx(1.0, abs=1e-9)
        assert got[1] == pytest.approx(1.0, abs=1e-9)

    def test_dirichlet_laplacian_modes(self):
        # -u'' on (0, pi): eigenvalues k^2
        T = discretize(lambda t: 0.0 * t, 0.0, math.pi, 4000)
        got = lowest_eigenvalues(T, 3, tol=1e-9)
        assert np.allclose(got, [1.0, 4.0, 9.0], atol=5e-5)

    def test_equals_plain_bisection(self):
        # shared counts only skip midpoints whose side is known, so the
        # values are those of bisecting every index from the full bracket,
        # whatever estimates seed the brackets
        rng = np.random.default_rng(3)
        cases = [(random_tridiagonal(rng), 1e-9) for _ in range(8)]
        cases.append((TridiagonalOperator(diag=np.array([1.0, 1.0]),
                                          off=np.array([0.0])), 1e-10))
        morse = discretize(funnel_limit_potential(2.3), -20.0, 4.0, 2000)
        assert count_below(morse, ess_bottom(2.3) - 0.05) == 2
        cases.append((morse, 1e-7))
        for T, tol in cases:
            k = min(T.n, 5) if T is not morse else 2
            plain = plain_bisection(T, k, tol)
            assert lowest_eigenvalues(T, k, tol) == plain
            glo, ghi = T.gershgorin()
            exact = np.sort(dense_eigenvalues(T.diag, T.off))[:k].tolist()
            for near in (exact, [e + 1e-3 for e in exact],
                         [e - 1e3 for e in exact], [e + 1e3 for e in exact],
                         exact[::-1], [glo - 5.0] * k, [ghi + 5.0] * k,
                         [glo - 1e300, ghi + 1e300] * k):
                assert lowest_eigenvalues(T, k, tol, near=near[:k]) == plain

    def test_infinite_rows_split_into_blocks(self):
        # every eigenvalue of the finite blocks, unseeded and seeded, and a
        # k past the finite rows refused; no warning is raised
        rng = np.random.default_rng(23)
        for _ in range(200):
            T = walled_tridiagonal(rng)
            evals = block_eigenvalues(T)
            k = evals.size
            got = lowest_eigenvalues(T, k, tol=1e-9)
            assert np.allclose(got, evals, rtol=0.0, atol=1e-8)
            assert lowest_eigenvalues(T, k, tol=1e-9, near=evals) == got
            with pytest.raises(ValueError, match="finite rows"):
                lowest_eigenvalues(T, k + 1)
        T = TridiagonalOperator(diag=np.array([1.0, np.inf, 3.0]),
                                off=np.array([0.5, 0.5]))
        assert lowest_eigenvalues(T, 2) == pytest.approx([1.0, 3.0], abs=1e-9)
        with pytest.raises(ValueError, match="finite rows"):
            lowest_eigenvalues(T, 3)

    def test_self_checks_equal_plain_bisection(self, monkeypatch):
        # the self-checks seed every bisection with an estimate (the
        # ladder, the first window, the coarser grid); each eigenvalue they
        # compute is the plain bisection's on the same operator
        seen = []

        def recorded(T, k, tol, **kw):
            out = lowest_eigenvalues(T, k, tol, **kw)
            seen.append((T, k, tol, out))
            return out
        monkeypatch.setattr(essential, "lowest_eigenvalues", recorded)
        for beta in (0.4, 0.7, 2.3, 3.9, 5.2, -2.3):
            essential.morse_check(beta, MorseOptions(n=2000))
        morse_calls = len(seen)
        for beta in (0.4, 2.6):
            essential.funnel_mode_limit_check(beta, [6.0])
        assert morse_calls >= 6 and len(seen) == morse_calls + 4
        for T, k, tol, out in seen:
            assert out == plain_bisection(T, k, tol)

    def test_tiny_tol_terminates(self):
        # a tol below the float spacing at the eigenvalue: the bracket
        # stops shrinking, and the bisection must stop with it
        # the Morse case is morse_check's reversed operator at n = 2000
        code = ("from hypmag import discretize, lowest_eigenvalues\n"
                "from hypmag.essential import _reversed, "
                "funnel_limit_potential\n"
                "T = discretize(lambda x: 0 * x, 0, 1, 5)\n"
                "print(lowest_eigenvalues(T, 1, tol=1e-20))\n"
                "M = _reversed(discretize(funnel_limit_potential(2.3), "
                "-20.0, 4.0, 2000))\n"
                "print(lowest_eigenvalues(M, 2, tol=1e-20))\n"
                "print(lowest_eigenvalues(M, 2, tol=1e-20, near=[2.3, 4.9]))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        first, morse, seeded = proc.stdout.splitlines()
        # 36 (2 - 2 cos(pi / 6)), the lowest eigenvalue of the 5-point grid
        assert float(first.strip("[]")) == pytest.approx(
            72.0 - 36.0 * math.sqrt(3.0), rel=1e-14)
        assert len(morse.split(",")) == 2
        assert seeded == morse

    def test_sweeps_shared_between_indices(self, monkeypatch):
        calls = []

        def counted(T, lam):
            calls.append(lam)
            return count_below(T, lam)
        monkeypatch.setattr(sturm1d, "count_below", counted)
        monkeypatch.setattr(essential, "count_below", counted)
        essential.morse_check(2.3, MorseOptions(n=2000))
        assert len(calls) <= 50
        calls.clear()
        essential.funnel_mode_limit_check(1.3, [6])
        assert len(calls) <= 40

    def test_useless_estimates_cost_a_few_counts(self, monkeypatch):
        # an estimate far from its eigenvalue costs at most
        # ceil(log8(range / tol)) + 2 counts more than no estimate
        calls = []

        def counted(T, lam):
            calls.append(lam)
            return count_below(T, lam)
        monkeypatch.setattr(sturm1d, "count_below", counted)
        rng = np.random.default_rng(5)
        morse = _reversed(discretize(funnel_limit_potential(2.3),
                                     -20.0, 4.0, 2000))
        cases = [(random_tridiagonal(rng), 1e-9) for _ in range(6)]
        cases += [(morse, 1e-7), (morse, 1e-20)]
        for T, tol in cases:
            k = min(T.n, 5) if T is not morse else 2
            glo, ghi = T.gershgorin()
            extra = math.ceil(math.log((ghi - glo + 2.0) / tol, 8)) + 2
            calls.clear()
            plain = lowest_eigenvalues(T, k, tol)
            budget = len(calls) + k * extra
            for near in ([glo - 1.0] * k, [ghi + 1.0] * k,
                         [0.5 * (glo + ghi)] * k, [glo - 1e300] * k):
                calls.clear()
                assert lowest_eigenvalues(T, k, tol, near=near) == plain
                assert len(calls) <= budget

    def test_seeded_points_are_counted_once(self, monkeypatch):
        calls = []

        def counted(T, lam):
            calls.append(lam)
            return count_below(T, lam)
        monkeypatch.setattr(sturm1d, "count_below", counted)
        rng = np.random.default_rng(7)
        twin = TridiagonalOperator(diag=np.array([1.0, 1.0]),
                                   off=np.array([0.0]))
        for T in [random_tridiagonal(rng) for _ in range(6)] + [twin]:
            k = min(T.n, 5)
            exact = np.sort(dense_eigenvalues(T.diag, T.off))[:k]
            # estimates 7 tol apart land on each other's window points
            for near in (exact, exact + 1e-3, exact[::-1],
                         exact[0] + 7e-9 * np.arange(k), [exact[0]] * k):
                calls.clear()
                lowest_eigenvalues(T, k, 1e-9, near=near)
                assert len(calls) == len(set(calls))

    def test_self_checks_stop_in_the_forbidden_tail(self, monkeypatch):
        # morse_check and funnel_mode_limit_check bisect on grids whose
        # s -> -oo side is a long forbidden tail; sweeps stop early in it
        swept, full = [0], [0]
        scalar, below = sturm1d._pivot_sweep, sturm1d.count_below

        def counted(alpha, c2, d):
            swept[0] += len(alpha)
            return scalar(alpha, c2, d)

        def counted_below(T, lam):
            full[0] += T.n
            return below(T, lam)
        monkeypatch.setattr(sturm1d, "_pivot_sweep", counted)
        monkeypatch.setattr(sturm1d, "count_below", counted_below)
        monkeypatch.setattr(essential, "count_below", counted_below)
        for check, bound in (
                (lambda: essential.morse_check(2.3, MorseOptions(n=2000)), 0.6),
                (lambda: essential.funnel_mode_limit_check(1.3, [6]), 0.4)):
            swept[0] = full[0] = 0
            check()
            assert 0 < swept[0] <= bound * full[0]

    def test_validation(self):
        T = discretize(lambda t: 0.0 * t, 0.0, 1.0, 8)
        with pytest.raises(ValueError):
            lowest_eigenvalues(T, 0)
        with pytest.raises(ValueError):
            lowest_eigenvalues(T, 9)
        with pytest.raises(ValueError):
            lowest_eigenvalues(T, 1, tol=0.0)
        for near in ([], [1.0, 2.0], [math.nan], [math.inf], [-math.inf]):
            with pytest.raises(ValueError, match="near"):
                lowest_eigenvalues(T, 1, near=near)


def wavy_coeffs(t):
    """A mode family (ell - a)^2 w + q with a turning gauge."""
    return 3.0 * np.sin(t), 1.0 + t, 0.25 + 0.0 * t


def cusp_coeffs(t):
    """A cusp-like family: the gauge settles, w grows like e^{2t}."""
    return 0.3 + 0.5 * np.exp(-t), np.exp(2.0 * t), 0.25 + 0.0 * t


def grid_counts(coeffs, t_lo, t_hi, n, ells, lam):
    """mode_counts on coeffs(t) = (a, w, q) at the n interior points of a
    uniform grid on (t_lo, t_hi)."""
    h = (t_hi - t_lo) / (n + 1)
    return mode_counts(*coeffs(t_lo + h * np.arange(1, n + 1)), h, ells, lam)


def mode_alphas(coeffs, t_lo, t_hi, n, ells, lams):
    """Per mode, its diagonal minus its lam, rounded as mode_counts does."""
    h = (t_hi - t_lo) / (n + 1)
    inv_h2 = 1.0 / (h * h)
    with np.errstate(over="ignore", invalid="ignore"):
        a, w, q = coeffs(t_lo + h * np.arange(1, n + 1))
        return [(2.0 * inv_h2 + ((ell - a) * (ell - a) * w + q) - lam).tolist()
                for ell, lam in zip(ells, lams)], inv_h2


def dominant_tails(coeffs, t_lo, t_hi, n, ells, lam_max):
    """Per mode, one past the last row whose suffix hull of the modes short
    of dominance with slack 2 _SLACK holds it, rounded up to _CUT_ROWS
    (for w > 0; a NaN row holds every mode)."""
    h = (t_hi - t_lo) / (n + 1)
    a, w, q = coeffs(t_lo + h * np.arange(1, n + 1))
    lo, hi, hulls = math.inf, -math.inf, []
    for i in reversed(range(n)):
        r2 = (lam_max - q[i] + 4.0 * sturm1d._SLACK / (h * h)) / w[i]
        if not r2 == r2 or not a[i] == a[i]:
            lo, hi = -math.inf, math.inf
        elif r2 >= 0.0:
            lo = min(lo, a[i] - math.sqrt(r2))
            hi = max(hi, a[i] + math.sqrt(r2))
        hulls.append((i + 1, lo, hi))
    step = sturm1d._CUT_ROWS
    return [-(-next((i for i, lo, hi in hulls if lo <= ell <= hi), 0) // step)
            * step for ell in ells]


def pivot_cut(alpha, c2, tail):
    """First multiple r >= tail of _CUT_ROWS whose carried pivot dominates
    the coupling, or len(alpha)."""
    d = math.inf
    for r, x in enumerate(alpha):
        if (r >= tail and r % sturm1d._CUT_ROWS == 0 and d >= 0.0
                and d * d >= (1.0 + sturm1d._SLACK) ** 2 * c2):
            return r
        d = x - c2 / d
    return len(alpha)


def slice_rows(cuts, n, narrow):
    """Rows each column sweeps in the lockstep, and the rows of each scalar
    call in order: every _CUT_ROWS rows the slice of sorted columns drops
    the ends past their cuts, and once it holds at most narrow columns
    those not past their cuts finish alone, one _COEFF_ROWS block at a
    time."""
    m, j0, j1 = len(cuts), 0, len(cuts)
    lock = [n] * m
    for r in range(0, n, sturm1d._CUT_ROWS):
        while j0 < j1 and cuts[j0] <= r:
            lock[j0], j0 = r, j0 + 1
        while j1 > j0 and cuts[j1 - 1] <= r:
            lock[j1 - 1], j1 = r, j1 - 1
        if j1 - j0 <= narrow:
            lock[j0:j1] = [r] * (j1 - j0)
            calls = []
            for lo in range(0, n, sturm1d._COEFF_ROWS):
                hi, start = min(n, lo + sturm1d._COEFF_ROWS), max(r, lo)
                calls += [min(cuts[j], hi) - start for j in range(j0, j1)
                          if start < hi and cuts[j] > start]
            return lock, calls
    return lock, []


def record_sweeps(monkeypatch, m):
    """Rows each column sweeps in the lockstep, and rows per scalar call."""
    lock, calls = [0] * m, []
    lockstep, cut_sweep = sturm1d._lockstep, sturm1d._cut_sweep
    pivot_sweep = sturm1d._pivot_sweep

    def counted_lockstep(alpha, d, c2):
        # d is the slice of the sorted columns' pivots
        start = d.__array_interface__["data"][0]
        j0 = (start - d.base.__array_interface__["data"][0]) // d.itemsize
        for j in range(j0, j0 + d.size):
            lock[j] += alpha.shape[0]
        return lockstep(alpha, d, c2)

    def counted_cut(alpha, c2, d, tail):
        calls.append(0)
        return cut_sweep(alpha, c2, d, tail)

    def counted_pivot(alpha, c2, d):
        calls[-1] += len(alpha)
        return pivot_sweep(alpha, c2, d)
    monkeypatch.setattr(sturm1d, "_lockstep", counted_lockstep)
    monkeypatch.setattr(sturm1d, "_cut_sweep", counted_cut)
    monkeypatch.setattr(sturm1d, "_pivot_sweep", counted_pivot)
    return lock, calls


class TestModeCounts:
    def test_matches_dense_per_mode(self):
        # fractional modes and many of them: the pivot recurrence runs in
        # blocks of a few rows, so block boundaries fall inside the grid
        ells = np.linspace(-7.0, 7.0, 601)
        t_lo, t_hi, n = 0.0, 4.0, 300
        h = (t_hi - t_lo) / (n + 1)
        grid = t_lo + h * np.arange(1, n + 1)
        a, w, q = wavy_coeffs(grid)
        for lam in (3.0, 17.5, 60.0):
            got = grid_counts(wavy_coeffs, t_lo, t_hi, n, ells, lam)
            for ell, k in zip(ells, got):
                diag = 2.0 / (h * h) + (ell - a) ** 2 * w + q
                evals = dense_eigenvalues(diag, np.full(n - 1, -1.0 / (h * h)))
                # keep lambda off the eigenvalues, where LAPACK decides
                assert np.min(np.abs(evals - lam)) > 1e-8
                assert k == int(np.sum(evals < lam))

    def test_matches_count_below(self):
        ells = np.arange(-6, 7)
        grid = (0.5, 3.5, 97)
        got = grid_counts(wavy_coeffs, *grid, ells, 20.0)
        for ell, k in zip(ells, got):
            def V(t, ell=ell):
                a, w, q = wavy_coeffs(t)
                return (ell - a) ** 2 * w + q
            assert k == count_below(discretize(V, *grid), 20.0)

    def test_zero_pivot_blocks(self):
        # a = w = q = 0 and h = 1 give diag 2, off -1 for every mode, and
        # lam = 2 sits exactly on the middle eigenvalue 2 - 2 cos(j pi /
        # (n+1)) for odd n: each row of the block has the zero pivot
        # chain, which must resolve to the exact strict count (n-1)//2;
        # widths up to _NARROW take the scalar form, wider the lockstep
        def zero(t):
            return 0.0 * t, 0.0 * t, 0.0 * t
        narrow = sturm1d._NARROW
        for n, m in ((5, 3), (7, 1), (51, 2000), (2049, 20), (5, narrow),
                     (2049, 1), (2049, narrow)):
            got = grid_counts(zero, 0.0, n + 1.0, n, np.arange(m), 2.0)
            assert got.tolist() == [(n - 1) // 2] * m

    def test_zero_pivot_nudge_matches_count_below(self):
        # q dips one ulp below 0 at every third point of the same chain:
        # pivots (0, -huge, -ulp) with no nudge count that dip, the nudged
        # recurrence of count_below does not.  Both forms must agree with
        # count_below, not with plain IEEE arithmetic.
        dip = 2.0 - np.nextafter(2.0, 0.0)

        def dips(t):
            q = np.where(np.round(t) % 3 == 0, -dip, 0.0)
            return 0.0 * t, 0.0 * t, q
        for n in (5, 51, 2049):
            T = discretize(lambda t: dips(t)[2], 0.0, n + 1.0, n)
            for m in (1, sturm1d._NARROW, 20):
                got = grid_counts(dips, 0.0, n + 1.0, n, np.arange(m), 2.0)
                assert got.tolist() == [count_below(T, 2.0)] * m

    @pytest.mark.parametrize("form", ["default", "scalar", "lockstep"])
    def test_forms_match_count_below_every_width(self, monkeypatch, form):
        # random families on a grid longer than _COEFF_ROWS and not a
        # multiple of it, so pivots carry across coefficient blocks
        widths = range(1, sturm1d._NARROW + 2)
        if form != "default":
            monkeypatch.setattr(sturm1d, "_NARROW",
                                0 if form == "lockstep" else 10**9)
        rng = np.random.default_rng(11)
        n = 2 * sturm1d._COEFF_ROWS + 37
        for m in widths:
            amp, freq, slope, wobble = rng.uniform(0.5, 3.0, 4)

            def coeffs(t):
                return (amp * np.sin(freq * t), 1.0 + slope * t,
                        0.25 + wobble * np.cos(t))
            ells = rng.uniform(-6.0, 6.0, m)
            lam = float(rng.uniform(5.0, 80.0))
            got = grid_counts(coeffs, 0.0, 5.0, n, ells, lam)
            for ell, k in zip(ells, got):
                def V(t, ell=ell):
                    a, w, q = coeffs(t)
                    return (ell - a) ** 2 * w + q
                assert k == count_below(discretize(V, 0.0, 5.0, n), lam)

    @pytest.mark.parametrize("form", ["scalar", "lockstep"])
    def test_per_mode_thresholds_match_scalar_calls(self, monkeypatch, form):
        widths = (1, sturm1d._NARROW, 40)
        monkeypatch.setattr(sturm1d, "_NARROW",
                            0 if form == "lockstep" else 10**9)
        rng = np.random.default_rng(7)
        n = sturm1d._COEFF_ROWS + 37
        for m in widths:
            ells = rng.uniform(-6.0, 6.0, m)
            lams = rng.uniform(5.0, 80.0, m)
            got = grid_counts(wavy_coeffs, 0.0, 5.0, n, ells, lams)
            want = [grid_counts(wavy_coeffs, 0.0, 5.0, n, [ell], float(lam))[0]
                    for ell, lam in zip(ells, lams)]
            assert got.tolist() == want

    def test_narrow_batches_take_the_scalar_form(self, monkeypatch):
        # each mode runs alone from row 0 and stops at the first multiple of
        # _CUT_ROWS in its dominant tail whose pivot dominates the coupling
        m, n, lam = sturm1d._NARROW, 300, 20.0
        lock, calls = record_sweeps(monkeypatch, m)
        grid_counts(wavy_coeffs, 0.0, 4.0, n, np.arange(m), lam)
        alphas, inv_h2 = mode_alphas(wavy_coeffs, 0.0, 4.0, n, range(m), [lam] * m)
        tails = dominant_tails(wavy_coeffs, 0.0, 4.0, n, range(m), lam)
        cuts = [pivot_cut(x, inv_h2 * inv_h2, tail) for x, tail in zip(alphas, tails)]
        assert 0 < sum(cuts) < n * m
        assert lock == [0] * m
        assert calls == [cut for cut in cuts if cut]

    @pytest.mark.parametrize("n", [sturm1d._COEFF_ROWS + 300, 3000])
    def test_wide_batches_sweep_to_their_cuts(self, monkeypatch, n):
        # a cusp-like family counted at lam and just below it, as count_end
        # does: the lockstep slice narrows from its ends at the cuts and
        # hands its last columns to the scalar recurrence
        ells = np.repeat(np.arange(-12.0, 12.0), 2)
        lams = np.tile([400.0, 399.5], 24)
        lock, calls = record_sweeps(monkeypatch, ells.size)
        got = grid_counts(cusp_coeffs, 0.0, 4.0, n, ells, lams)
        alphas, inv_h2 = mode_alphas(cusp_coeffs, 0.0, 4.0, n, ells, lams)
        tails = dominant_tails(cusp_coeffs, 0.0, 4.0, n, ells, 400.0)
        cuts = [pivot_cut(x, inv_h2 * inv_h2, tail) for x, tail in zip(alphas, tails)]
        want_lock, want_calls = slice_rows(cuts, n, sturm1d._NARROW)
        assert lock == want_lock
        assert calls == want_calls
        # each column sweeps to its cut, or on to where the slice drops it
        # while a column on its outer side is still in play; the scalar
        # calls finish the others exactly at their cuts
        assert sum(calls) == sum(max(cut - x, 0) for x, cut in zip(lock, cuts))
        swept = [max(x, cut) for x, cut in zip(lock, cuts)]
        assert sum(calls) > 0 and 0 < sum(swept) < n * ells.size // 2
        c2s = [0.0] + [inv_h2 * inv_h2] * (n - 1)
        assert got.tolist() == [full_sweep(x, c2s) for x in alphas]

    @pytest.mark.parametrize("m", [sturm1d._NARROW, 40])
    def test_nan_rows_are_never_cut(self, monkeypatch, m):
        # a NaN coefficient makes its row short of dominance for every mode,
        # so no column stops before it, whichever form sweeps it
        n, nan_row = 2 * sturm1d._COEFF_ROWS, 1500
        h = 4.0 / (n + 1)

        def coeffs(t):
            a, w, q = cusp_coeffs(t)
            return a, w, np.where(np.abs(t - h * (nan_row + 1)) < h / 2, np.nan, q)

        monkeypatch.setattr(sturm1d, "_NARROW", 0 if m > 16 else 10**9)
        ells = np.linspace(-9.0, 9.0, m)
        lock, calls = record_sweeps(monkeypatch, m)
        got = grid_counts(coeffs, 0.0, 4.0, n, ells, 300.0)
        # no column is final before the NaN row, so each takes one scalar
        # call per _COEFF_ROWS block in the narrow form
        scalar = np.reshape(calls, (-1, m)).sum(axis=0) if calls else 0
        assert min(np.add(lock, scalar)) > nan_row
        alphas, _ = mode_alphas(coeffs, 0.0, 4.0, n, ells, [300.0] * m)
        c2s = [0.0] + [1.0 / h ** 4] * (n - 1)
        assert got.tolist() == [full_sweep(x, c2s) for x in alphas]

    @pytest.mark.parametrize("m", [sturm1d._NARROW, 40])
    def test_subnormal_w_rows_are_cut(self, monkeypatch, m):
        # far out on a funnel, as for b~ = cosh t on (350, 355.3): the gauge
        # nears -e^{2t}/8 and w = 4 e^{-2t} turns subnormal past t = 354.9,
        # where (lam - q)/w overflows though every (ell - a)^2 w does too;
        # those rows are dominant for every mode, so the columns stop early
        t_lo, t_hi, n = 350.0, 355.3, 2 * sturm1d._COEFF_ROWS

        def coeffs(t):
            return (-np.exp(2.0 * t - math.log(8.0)),
                    np.exp(math.log(4.0) - 2.0 * t), 0.25 + 0.0 * t)

        h = (t_hi - t_lo) / (n + 1)
        w = coeffs(t_lo + h * np.arange(1, n + 1))[1]
        first_subnormal = int(np.argmax(w < np.finfo(float).tiny))
        assert 0 < first_subnormal < n - 100
        monkeypatch.setattr(sturm1d, "_NARROW", 0 if m > 16 else 10**9)
        ells = np.linspace(-9.0, 9.0, m)
        lock, calls = record_sweeps(monkeypatch, m)
        got = grid_counts(coeffs, t_lo, t_hi, n, ells, 300.0)
        scalar = np.reshape(calls, (-1, m)).sum(axis=0) if calls else 0
        assert max(np.add(lock, scalar)) < first_subnormal
        alphas, inv_h2 = mode_alphas(coeffs, t_lo, t_hi, n, ells, [300.0] * m)
        c2s = [0.0] + [inv_h2 * inv_h2] * (n - 1)
        assert got.tolist() == [full_sweep(x, c2s) for x in alphas]

    def test_harmonic_oscillator(self):
        # w = 0, q = t^2: the levels 2k + 1 of the full line, which the
        # walls at -8 and 8 move far less than their distance to lambda
        def well(t):
            return 0.0 * t, 0.0 * t, t * t
        got = grid_counts(well, -8.0, 8.0, 2000, np.arange(-3, 4), 10.0)
        assert got.tolist() == [5] * 7

    def test_offset_well(self):
        # the well (t - 5)^2 on [0, 12] has the levels 1, 3, 5, 7 below 8
        def well(t):
            return 0.0 * t, 0.0 * t, (t - 5.0) ** 2
        got = grid_counts(well, 0.0, 12.0, 2000, np.arange(-3, 4), 8.0)
        assert got.tolist() == [4] * 7

    def test_empty_family(self):
        got = grid_counts(wavy_coeffs, 0.0, 1.0, 8, [], 5.0)
        assert got.shape == (0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_counts(wavy_coeffs, 1.0, 1.0, 8, [0], 5.0)
        with pytest.raises(ValueError):
            grid_counts(wavy_coeffs, 0.0, 1.0, 0, [0], 5.0)
        a, w, q = wavy_coeffs(np.linspace(0.1, 0.9, 8))
        for bad in ((a[:-1], w, q), (a, w[:-1], q), (a, w, q[1:]),
                    (a[:0], w[:0], q[:0]), (a.reshape(2, 4), w, q)):
            with pytest.raises(ValueError, match="a, w and q"):
                mode_counts(*bad, 0.1, [0], 5.0)
        for h in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="grid step"):
                mode_counts(a, w, q, h, [0], 5.0)
        for ells, lam in (([0.0, math.nan], 5.0), ([0.0, 1.0], [5.0, math.nan]),
                          ([0.0], math.nan)):
            name = "lam" if np.isnan(lam).any() else "ells"
            with pytest.raises(ValueError, match=name):
                mode_counts(a, w, q, 0.1, ells, lam)
        assert mode_counts(a, w, q, 0.1, [0.0], [-math.inf]).tolist() == [0]
