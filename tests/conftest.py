"""Shared test helpers: end factories, dense-matrix oracles, CLI runners.

The oracles here deliberately avoid the package's own counting code
paths: eigenvalues come straight from LAPACK on a fixed interval, so a
disagreement points at the library, not at the test -- provided lambda
is not exactly an eigenvalue. LAPACK may return an exact eigenvalue an
ulp to either side (for diag 2, off -1, n = 5 it gives the middle
eigenvalue 2 as 2 - 2.2e-16), so a strict count taken at that eigenvalue
can be off by its multiplicity. Keep lambda off exact eigenvalues, or
take the expected count from an exact closed form.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from hypmag import CuspEnd, FunnelEnd, RadialField
from hypmag.model import CUSP_KIND, FUNNEL_KIND


def make_funnel(coeffs, tau=1.0, t0=0.0, xi=0.0) -> FunnelEnd:
    return FunnelEnd(tau=tau, t0=t0, xi=xi,
                     field=RadialField(FUNNEL_KIND, tuple(coeffs)))


def make_cusp(coeffs, L=1.0, t0=0.0, xi=0.0) -> CuspEnd:
    return CuspEnd(L=L, t0=t0, xi=xi,
                   field=RadialField(CUSP_KIND, tuple(coeffs)))


# ---------------------------------------------------------------------------
# Dense-matrix oracles


def dense_eigenvalues(diag, off) -> np.ndarray:
    diag = np.asarray(diag, dtype=float)
    if diag.size == 1:
        return diag.copy()
    return eigvalsh_tridiagonal(diag, np.asarray(off, dtype=float))


def dense_count_below(diag, off, lam: float) -> int:
    """Full-spectrum reference count, strictly below lam.

    Not decisive when lam is exactly an eigenvalue: LAPACK may place it an
    ulp below lam and count it. Keep lam off exact eigenvalues, or use an
    exact closed form there.
    """
    return int(np.sum(dense_eigenvalues(diag, off) < lam))


def _dirichlet_matrix(V, t_lo: float, t_hi: float, n: int):
    """Potential samples, diagonal and off-diagonal of the 3-point scheme
    for -d^2/dt^2 + V on n interior points of (t_lo, t_hi)."""
    h = (t_hi - t_lo) / (n + 1)
    vals = np.asarray(V(t_lo + h * np.arange(1, n + 1)), dtype=float)
    return vals, 2.0 / (h * h) + vals, np.full(n - 1, -1.0 / (h * h))


def dense_mode_count(V, t_lo: float, t_hi: float, n: int, lam: float) -> int:
    """Dirichlet count below lam on a fixed interval, straight from LAPACK.

    No truncation search and no refinement loop; the caller must place
    t_hi deep enough in the classically forbidden region and pick n fine
    enough for the energies involved.
    """
    vals, diag, off = _dirichlet_matrix(V, t_lo, t_hi, n)
    vmin = float(np.min(vals))
    if vmin >= lam:
        # -d^2/dt^2 with Dirichlet ends is positive semidefinite
        return 0
    evals = eigvalsh_tridiagonal(diag, off, select="v",
                                 select_range=(vmin - 1.0, lam + 1.0))
    return int(np.sum(evals < lam))


def richardson_mode_count(V, t_lo: float, t_hi: float, n: int,
                          lam: float) -> int:
    """Dirichlet count below lam of the continuous operator, from LAPACK.

    The eigenvalues below lam + 1 on 2n + 1 interior points and the same
    levels on n points (h halved exactly) give one Richardson step each
    for the O(h^2) error of the 3-point scheme, then a strict count.  So
    an eigenvalue just above lam whose discrete image lies below it on
    both grids is not counted.
    """
    vals, diag, off = _dirichlet_matrix(V, t_lo, t_hi, 2 * n + 1)
    vmin = float(np.min(vals))
    if vmin >= lam:
        return 0
    fine = eigvalsh_tridiagonal(diag, off, select="v",
                                select_range=(vmin - 1.0, lam + 1.0))
    if fine.size == 0:
        return 0
    _, diag, off = _dirichlet_matrix(V, t_lo, t_hi, n)
    coarse = eigvalsh_tridiagonal(diag, off, select="i",
                                  select_range=(0, fine.size - 1))
    return int(np.sum(fine + (fine - coarse) / 3.0 < lam))


def dense_lowest_eigenvalue(V, t_lo: float, t_hi: float, n: int) -> float:
    """Lowest Dirichlet eigenvalue of -d^2/dt^2 + V on (t_lo, t_hi).

    LAPACK on n and 2n + 1 interior points (h halved exactly), then one
    Richardson step for the O(h^2) error of the 3-point scheme.
    """
    def lowest(m):
        _, diag, off = _dirichlet_matrix(V, t_lo, t_hi, m)
        return float(eigvalsh_tridiagonal(diag, off, select="i",
                                          select_range=(0, 0))[0])
    coarse, fine = lowest(n), lowest(2 * n + 1)
    return fine + (fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# Config files and CLI


def write_config(path, ends, **numerics) -> str:
    cfg = {"schema_version": 1, "ends": list(ends)}
    if numerics:
        cfg["numerics"] = numerics
    path.write_text(json.dumps(cfg))
    return str(path)


def cusp_linear_end(**overrides) -> dict:
    end = {"type": "cusp", "L": 1.0, "t0": 0.0, "xi": 0.0,
           "field": {"kind": "y-poly", "coeffs": [0.0, 1.0]}}
    end.update(overrides)
    return end


def funnel_cosh_end(**overrides) -> dict:
    end = {"type": "funnel", "tau": 1.0, "t0": 0.0, "xi": 0.0,
           "field": {"kind": "cosh-poly", "coeffs": [0.0, 1.0]}}
    end.update(overrides)
    return end


def run_cli(*args) -> tuple[int, bytes, bytes]:
    """Run the CLI in a fresh interpreter; byte-faithful stdout/stderr."""
    proc = subprocess.run([sys.executable, "-m", "hypmag.cli"]
                          + [str(a) for a in args],
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, *args) -> tuple[int, str, str]:
    """In-process CLI invocation, for the many small error-path cases."""
    from hypmag.cli import main
    rc = main([str(a) for a in args])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# Acceptance reporting

_CRITERION_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Record one pass/fail line per acceptance criterion.

    Lines are echoed into the terminal summary so a plain pytest run
    shows the verdict for every criterion.
    """
    def report(num: int, name: str, ok: bool, detail: str = ""):
        line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" -- {detail}"
        _CRITERION_LINES.append(line)
        print(line)
        assert ok, line
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
