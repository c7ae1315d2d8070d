"""Acceptance suite: one test and one printed verdict line per criterion.

Each criterion is computed live at its stated tolerance and budget; the
pass/fail line lands in the terminal summary via the criterion fixture.
"""

import math
import time

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from conftest import make_cusp, make_funnel
from hypmag import (SurfaceEnds, TridiagonalOperator, WeylOptions, check_hypW,
                    count_below, count_end, essential_spectrum, fit_exponent,
                    funnel_mode_limit_check, morse_check, omega,
                    theorem1_bracket, weyl_integral)


def test_criterion_1_landau_ladder(criterion):
    details = []
    ok = True
    for beta, tol in ((2.5, 1e-3), (5.5, 1e-2)):
        start = time.monotonic()
        rep = morse_check(beta)
        elapsed = time.monotonic() - start
        predicted = rep.predicted
        ok = ok and rep.converged
        ok = ok and rep.max_abs_err < tol
        # extracting below 1/4 + beta^2 - 0.05 must find the ladder and
        # nothing else
        ok = ok and len(rep.computed) == len(predicted)
        ok = ok and elapsed < 10.0
        details.append(f"beta={beta}: err={rep.max_abs_err:.2e} "
                       f"levels={len(rep.computed)}/{len(predicted)} "
                       f"{elapsed:.1f}s")
    start = time.monotonic()
    rep = morse_check(0.4)
    elapsed = time.monotonic() - start
    ok = ok and rep.computed == () and rep.converged and elapsed < 10.0
    details.append(f"beta=0.4: {len(rep.computed)} levels")
    criterion(1, "morse ladder reproduction", ok, "; ".join(details))


def test_criterion_2_mode_limit(criterion):
    start = time.monotonic()
    rep = funnel_mode_limit_check(1.0, (10.0, 100.0, 1000.0))
    elapsed = time.monotonic() - start
    ok = rep.limit == 1.0
    ok = ok and all(d1 <= d0 for d0, d1 in zip(rep.distances,
                                               rep.distances[1:]))
    ok = ok and rep.distances[-1] < 0.02
    ok = ok and elapsed < 30.0
    criterion(2, "funnel mode limit", ok,
              f"distances={[f'{d:.2e}' for d in rep.distances]} "
              f"{elapsed:.1f}s")


def test_criterion_3_cusp_weyl_law(criterion):
    end = make_cusp([0.0, 1.0])
    area = 2.0 * math.pi
    start = time.monotonic()
    ratios = {}
    converged = True
    for lam in (200.0, 400.0, 800.0):
        res = count_end(end, lam)
        converged = converged and res.converged
        ratios[lam] = res.count * 4.0 * math.pi / (area * lam)
    elapsed = time.monotonic() - start
    ok = converged
    ok = ok and 0.85 <= ratios[400.0] <= 1.15
    ok = ok and abs(ratios[800.0] - 1.0) < abs(ratios[200.0] - 1.0)
    ok = ok and elapsed < 90.0
    criterion(3, "cusp Weyl law", ok,
              f"ratios={{200: {ratios[200.0]:.4f}, 400: {ratios[400.0]:.4f}, "
              f"800: {ratios[800.0]:.4f}}} {elapsed:.1f}s")


def test_criterion_4_funnel_growth_law(criterion):
    start = time.monotonic()
    cosh1 = make_funnel([0.0, 1.0])
    counts1 = {}
    converged = True
    for lam in (50.0, 100.0, 200.0, 400.0):
        res = count_end(cosh1, lam)
        converged = converged and res.converged
        counts1[lam] = res.count
    deviations = []
    ok = converged
    for lam in (50.0, 100.0, 200.0):
        ratio = counts1[lam] / weyl_integral(cosh1, lam)
        ok = ok and 0.8 <= ratio <= 1.2
        deviations.append(abs(ratio - 1.0))
    ok = ok and all(d1 <= d0 for d0, d1 in zip(deviations, deviations[1:]))
    fit1 = fit_exponent(sorted(counts1.items()))
    ok = ok and 1.8 <= fit1.slope <= 2.2

    cosh2 = make_funnel([0.0, 0.0, 1.0])
    counts2 = {}
    for lam in (50.0, 100.0, 200.0, 400.0):
        res = count_end(cosh2, lam)
        converged = converged and res.converged
        counts2[lam] = res.count
    fit2 = fit_exponent(sorted(counts2.items()))
    ok = ok and converged and 1.35 <= fit2.slope <= 1.65
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    criterion(4, "funnel growth law", ok,
              f"deviations={[f'{d:.4f}' for d in deviations]} "
              f"slopes=({fit1.slope:.3f}, {fit2.slope:.3f}) {elapsed:.1f}s")


def full_spectrum_count(diag, off, lam: float) -> int:
    """Oracle: every eigenvalue from LAPACK, then a strict comparison."""
    if len(diag) == 1:
        evals = np.asarray(diag, dtype=float)
    else:
        evals = eigvalsh_tridiagonal(np.asarray(diag, dtype=float),
                                     np.asarray(off, dtype=float))
    return int(np.sum(evals < lam))


def test_criterion_5_oracle_equivalence(criterion):
    rng = np.random.default_rng(20240817)
    checked = 0
    ok = True
    for i in range(100):
        n = int(rng.integers(1, 201))
        diag = rng.uniform(-10.0, 10.0, n)
        off = rng.uniform(-5.0, 5.0, max(n - 1, 0))
        T = TridiagonalOperator(diag=diag, off=off)
        thresholds = list(rng.uniform(-12.0, 12.0, 3))
        if n > 2 and i % 3 == 0:
            # straddle an eigenvalue by a margin far above LAPACK error
            # but far below typical spacing
            evals = eigvalsh_tridiagonal(diag, off)
            e = float(evals[n // 2])
            gap = 1e-6 * max(1.0, abs(e))
            thresholds += [e - gap, e + gap]
        for lam in thresholds:
            checked += 1
            ok = ok and count_below(T, lam) == full_spectrum_count(diag, off,
                                                                   lam)
    criterion(5, "inertia count vs dense oracle", ok,
              f"{checked} threshold checks over 100 matrices")


def test_criterion_6_gauge_invariance(criterion):
    ok = True
    details = []
    fun_counts = []
    for xi in (0.3, 1.3):
        end = make_funnel([0.5, 1.0], tau=0.7, t0=0.1, xi=xi)
        fun_counts.append([count_end(end, lam).count
                           for lam in (15.0, 40.0, 90.0)])
    ok = ok and fun_counts[0] == fun_counts[1]
    details.append(f"funnel {fun_counts[0]} == {fun_counts[1]}")
    cusp_counts = []
    for xi in (-0.6, 0.4):
        end = make_cusp([0.3, 0.0, 0.8], L=1.2, t0=-0.2, xi=xi)
        cusp_counts.append([count_end(end, lam).count
                            for lam in (15.0, 40.0, 90.0)])
    ok = ok and cusp_counts[0] == cusp_counts[1]
    details.append(f"cusp {cusp_counts[0]} == {cusp_counts[1]}")
    criterion(6, "gauge shift invariance", ok, "; ".join(details))


def test_criterion_7_sublevel_regularity(criterion):
    mus = (10.0, 100.0, 1000.0, 10000.0)
    taus = (0.1, 0.5, 0.9)
    ok = True
    witnesses = []
    for coeffs in ([0.0, 1.0], [0.0, 0.0, 1.0]):
        end = make_funnel(coeffs)
        rep = check_hypW([end], mus, taus)
        ok = ok and rep.holds and math.isfinite(rep.C1_witness)
        witnesses.append(rep.C1_witness)
    cosh1 = make_funnel([0.0, 1.0])
    max_rel = 0.0
    for mu in mus:
        exact = 2.0 * math.pi * math.sinh(math.acosh(mu))
        rel = abs(omega(cosh1, mu) - exact) / exact
        max_rel = max(max_rel, rel)
    ok = ok and max_rel < 1e-6
    criterion(7, "sublevel-area regularity", ok,
              f"witnesses={[f'{w:.4f}' for w in witnesses]} "
              f"omega rel err={max_rel:.2e}")


def test_criterion_8_essential_spectrum(criterion):
    ok = True
    # funnels beta = 1, 3: S(3) = {3, 7, 9} sits above the bottom
    spec = essential_spectrum(SurfaceEnds(funnels=(make_funnel([1.0]),
                                                   make_funnel([3.0]))))
    ok = ok and (spec.bottom, spec.points, spec.empty) == (1.25, (1.0,), False)
    # single cusp with holonomy pi
    spec = essential_spectrum(SurfaceEnds(cusps=(make_cusp([2.0], xi=2.5),)))
    ok = ok and spec.empty
    # funnel beta = 0.4 plus cusp b = 2 with holonomy 0
    spec = essential_spectrum(SurfaceEnds(funnels=(make_funnel([0.4]),),
                                          cusps=(make_cusp([2.0], xi=2.0),)))
    ok = ok and spec.bottom == 0.25 + 0.4 * 0.4 and spec.points == ()
    ok = ok and not spec.empty
    # several cusps, no holonomy in the integer class: purely discrete
    spec = essential_spectrum(SurfaceEnds(cusps=(
        make_cusp([2.0], xi=2.5), make_cusp([1.0], L=0.7, xi=0.3))))
    ok = ok and (spec.bottom, spec.points, spec.empty) == (None, (), True)
    criterion(8, "essential spectrum assembly", ok, "4 cases")


def test_criterion_9_bracket_sanity(criterion):
    ok = True
    configs = [make_cusp([0.0, 1.0]), make_funnel([0.0, 1.0], tau=0.5)]
    for end in configs:
        for C in (0.0, 0.5, 1.0, 2.0):
            opts = WeylOptions(delta=0.35, bracket_C=C)
            for lam in (50.0, 200.0):
                lower, upper = theorem1_bracket(end, lam, opts)
                w = weyl_integral(end, lam, opts)
                ok = ok and lower <= w * (1.0 + 1e-9)
                ok = ok and w <= upper * (1.0 + 1e-9)

    opts = WeylOptions(delta=0.35, bracket_C=1.0)
    widths = {}
    for end, name in zip(configs, ("cusp", "funnel")):
        rel = []
        for lam in (50.0, 200.0):
            lower, upper = theorem1_bracket(end, lam, opts)
            rel.append((upper - lower) / weyl_integral(end, lam, opts))
        widths[name] = rel
        ok = ok and rel[1] < rel[0]
    criterion(9, "bracket ordering and width", ok,
              f"relative widths {widths}")
