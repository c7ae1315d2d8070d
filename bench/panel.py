"""The benchmark's query slots: which operation runs on which end and threshold.

Plain data, with no hypmag import, so the oracle can read it.  An end is
a dict (see oracle.py); a slot's fault names the known program fault the
slot shows today, or is None.
"""

from __future__ import annotations

from dataclasses import dataclass


def end_spec(kind, coeffs, scale=1.0, t0=0.0, xi=0.0):
    return {"kind": kind, "coeffs": [float(c) for c in coeffs],
            "scale": float(scale), "t0": float(t0), "xi": float(xi)}


# ---------------------------------------------------------------------------
# the ends

COSH1 = end_spec("funnel", [0, 1])
COSH2 = end_spec("funnel", [0, 0, 1])
MIXED = end_spec("funnel", [0.5, 1], 0.7, 0.1, 0.3)
COSH1_WIDE = end_spec("funnel", [0, 1.4], 1.3, 0.2, 0.45)
COSH2_SHIFTED = end_spec("funnel", [0.3, 0, 0.8], 0.8, 0.05, -0.35)
COSH12 = end_spec("funnel", [0, 0.6, 0.5], 1.1, 0.0, 0.15)
CUSP1 = end_spec("cusp", [0, 1])
CUSP2 = end_spec("cusp", [0, 0.7, 0.2], 0.8, 0.3, 0.25)
CUSP1_OFFSET = end_spec("cusp", [0.5, 1.5], 1.4, -0.2, -0.3)
COSH2_TAU = end_spec("funnel", [0, 0, 1], 0.8, 0.2)


@dataclass(frozen=True)
class Slot:
    """One query of a workload: an operation, its end and its threshold."""

    key: str
    op: str
    end: dict | None
    lam: float
    # name of a known program fault this slot shows today, or None
    fault: str | None = None


R2 = "R2 over-count: count_stable accepts three equal counts on coarse grids"
LEVEL_CAP = "weyl._LEVEL_CAP truncates the Landau levels in silence"


def _count(name, end, lam, fault=None):
    return Slot(f"{name}-l{lam:g}", "count_end", end, float(lam), fault)


def _phase(name, end, lam, ops=("weyl_integral", "bracket_c0", "bracket_c1",
                                 "omega", "check_hypW"), fault=None):
    return [Slot(f"{op}-{name}-l{lam:g}", op, end, float(lam), fault)
            for op in ops]


WORKLOADS = {
    # Mode scan: hundreds to thousands of modes per query, most of them
    # empty; count_stable and gauge_function do nearly all the work.
    "funnel-scan": [
        _count("cosh1", COSH1, 6),
        _count("cosh1", COSH1, 10),
        _count("cosh2", COSH2, 25, R2),
        _count("cosh2", COSH2, 50),
        _count("mixed", MIXED, 12),
        _count("cosh1-wide", COSH1_WIDE, 9),
        _count("cosh2-shifted", COSH2_SHIFTED, 30),
        _count("cosh12", COSH12, 20),
    ],
    # Tens of modes on long grids, plus bisection on single long grids:
    # the per-point pivot sweep dominates.
    "cusp-ladder": [
        _count("cusp1", CUSP1, 400),
        _count("cusp1", CUSP1, 800),
        _count("cusp1", CUSP1, 1600, R2),
        _count("cusp1", CUSP1, 3200, R2),
        _count("cusp1", CUSP1, 6400, R2),
        _count("cusp2", CUSP2, 400, R2),
        _count("cusp2", CUSP2, 1600),
        _count("cusp1-offset", CUSP1_OFFSET, 800),
        Slot("morse_check-b2.3", "morse_check", None, 2.3),
        Slot("funnel_mode_limit_check-b1.3", "funnel_mode_limit_check", None, 1.3),
    ],
    # No Sturm counting: scalar eval_field, landau_count and brentq.
    "weyl-sweep": (
        _phase("cosh1", COSH1, 200) + _phase("cosh2-tau", COSH2_TAU, 200)
        + _phase("cusp1", CUSP1, 200)
        + _phase("cusp1", CUSP1, 12800, ops=("weyl_integral",), fault=LEVEL_CAP)
        + _phase("mixed", MIXED, 100) + _phase("mixed", MIXED, 400)
        + _phase("cusp2", CUSP2, 200)
    ),
}


def count_queries():
    """(reference key, end, lambda) of every count slot, for the oracle."""
    return [(f"{name}/{s.key}", s.end, s.lam)
            for name, slots in WORKLOADS.items() for s in slots
            if s.op == "count_end"]
