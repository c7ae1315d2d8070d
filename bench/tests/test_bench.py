"""Tests of the benchmark's own checks and references.

    python3 -m pytest bench/tests -q

They run in seconds: hypmag's counting is replaced by fakes where a test
is about how an output is judged, not about the program.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import panel  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _slot(workload, key):
    return next(s for s in panel.WORKLOADS[workload] if s.key == key)


def _count(n):
    return SimpleNamespace(count=n, converged=True)


def _fake_calls(monkeypatch, outputs):
    """Replace hypmag calls: outputs(slot, pass) gives the result."""
    passes = {}

    def call(slot, args):
        p = passes.get(slot.key, 0)
        passes[slot.key] = p + 1
        return outputs(slot, p)

    monkeypatch.setattr(workloads, "call", call)


def _funnel_inputs():
    return workloads.build("funnel-scan", 7)


def test_count_off_by_one_is_a_failed_operation(monkeypatch):
    inputs = _funnel_inputs()
    victim = inputs.slots[1]
    ref = inputs.reference

    def outputs(slot, p):
        return _count(ref[slot.key] + (1 if slot is victim else 0))

    _fake_calls(monkeypatch, outputs)
    times, failures, passes, _ = run.run_passes(inputs, 0.0)
    assert passes == 1
    assert [f["slot"] for f in failures] == [victim.key]
    assert "!= oracle" in failures[0]["reasons"][0]
    # one below is as wrong as one above
    assert workloads.check(victim, None, _count(ref[victim.key] - 1), {},
                           reference=ref[victim.key])


def test_xi_shift_that_changes_a_count_is_a_failed_operation(monkeypatch):
    inputs = _funnel_inputs()
    victim = inputs.slots[0]
    ref = inputs.reference

    def outputs(slot, p):
        # right in the first pass, one off under every later shift
        return _count(ref[slot.key] + (1 if slot is victim and p > 0 else 0))

    _fake_calls(monkeypatch, outputs)
    times, failures, passes, _ = run.run_passes(inputs, 0.3)
    assert passes > 1
    assert {f["slot"] for f in failures} == {victim.key}
    assert len(failures) == passes - 1
    assert any("xi shift changed the count" in r for r in failures[0]["reasons"])


def test_raising_operation_is_a_failed_operation(monkeypatch):
    inputs = _funnel_inputs()

    def outputs(slot, p):
        raise RuntimeError("boom")

    _fake_calls(monkeypatch, outputs)
    _, failures, passes, _ = run.run_passes(inputs, 0.0)
    assert len(failures) == len(inputs.slots) * passes
    assert failures[0]["reasons"] == ["RuntimeError: boom"]


def _fault_slot_run(monkeypatch, wrong):
    """One pass of cusp-ladder where every slot is right except the R2 slot
    at lambda 3200, whose output is wrong(reference)."""
    inputs = workloads.build("cusp-ladder", 3)
    victim = _slot("cusp-ladder", "cusp1-l3200")
    assert victim.fault == panel.R2
    ref = inputs.reference

    def outputs(slot, p):
        if slot.op != "count_end":
            return _right_self_check(slot, inputs.args(slot, p))
        if slot is victim:
            return wrong(ref[slot.key])
        return _count(ref[slot.key])

    _fake_calls(monkeypatch, outputs)
    _, failures, _, _ = run.run_passes(inputs, 0.0)
    assert {f["slot"] for f in failures} == {victim.key}
    return run.unexpected_failures(failures)


def _right_self_check(slot, args):
    ladder = workloads.landau_ladder(args[0])
    if slot.op == "morse_check":
        return SimpleNamespace(computed=ladder, converged=True)
    return SimpleNamespace(limit=min(ladder), lowest=[min(ladder)])


def test_r2_over_count_is_an_expected_failure(monkeypatch):
    assert _fault_slot_run(monkeypatch, lambda ref: _count(ref + 1)) == []


def _raise(ref):
    raise RuntimeError("boom")


@pytest.mark.parametrize("wrong", [
    _raise,
    lambda ref: _count(ref - 1),
    lambda ref: _count(ref + 1 + workloads.R2_MARGIN),
    lambda ref: SimpleNamespace(count=ref + 1, converged=False),
], ids=["raises", "under-count", "large-over-count", "not-converged"])
def test_other_failures_on_a_fault_slot_make_the_run_incorrect(monkeypatch, wrong):
    assert _fault_slot_run(monkeypatch, wrong) == ["cusp1-l3200"]


def test_level_cap_signature():
    slot = _slot("weyl-sweep", "weyl_integral-cusp1-l12800")
    assert slot.fault == panel.LEVEL_CAP
    args = (workloads.to_hypmag(slot.end), 12800.0)
    ref = oracle.weyl_closed_form(slot.end, 12800.0)

    def judged(rel):
        out = ref * (1 + rel)
        reasons = workloads.check(slot, args, out, {})
        return reasons, workloads.shows_fault(slot, args, out, reasons)

    assert judged(-3.9e-6)[0] and judged(-3.9e-6)[1]
    for rel in (3.9e-6, -1e-3):
        reasons, expected = judged(rel)
        assert reasons and not expected


def test_weyl_value_off_by_1e5_is_a_failed_operation():
    slot = _slot("weyl-sweep", "weyl_integral-cosh1-l200")
    end = workloads.to_hypmag(slot.end)
    lam = 200.0 * (1 + 3e-10)
    ref = oracle.weyl_closed_form(slot.end, lam)
    assert workloads.check(slot, (end, lam), ref * (1 + 1e-8), {}) == []
    bad = workloads.check(slot, (end, lam), ref * (1 + 1e-5), {})
    assert bad and "closed form" in bad[0]
    assert workloads.check(slot, (end, lam), ref * (1 - 1e-5), {})


def test_bracket_checks():
    slot0 = _slot("weyl-sweep", "bracket_c0-cosh1-l200")
    slot1 = _slot("weyl-sweep", "bracket_c1-cosh1-l200")
    end = workloads.to_hypmag(slot0.end)
    ref = oracle.weyl_closed_form(slot0.end, 200.0)
    assert workloads.check(slot0, (end, 200.0), (ref, ref), {}) == []
    assert workloads.check(slot0, (end, 200.0), (ref * 0.99, ref), {})
    assert workloads.check(slot1, (end, 200.0), (0.5 * ref, 2 * ref), {}) == []
    assert workloads.check(slot1, (end, 200.0), (1.01 * ref, 2 * ref), {})


def test_monotone_check_for_ends_without_closed_form():
    lo = _slot("weyl-sweep", "weyl_integral-mixed-l100")
    hi = _slot("weyl-sweep", "weyl_integral-mixed-l400")
    end = workloads.to_hypmag(hi.end)
    assert workloads.check(hi, (end, 400.0), 900.0, {lo.key: 100.0}) == []
    assert workloads.check(hi, (end, 400.0), 90.0, {lo.key: 100.0})


def test_reference_file_covers_every_count_query():
    ref = workloads.load_reference()
    for key, end, lam in panel.count_queries():
        assert ref[key]["end"] == end and ref[key]["lam"] == lam
        assert isinstance(ref[key]["count"], int)


# ---------------------------------------------------------------------------
# the closed forms against mpmath quadrature


mpmath.mp.dps = 30


def _field(end, t):
    x = mpmath.cosh(t) if end["kind"] == "funnel" else mpmath.exp(t)
    return sum(c * x ** i for i, c in enumerate(end["coeffs"]))


def _rho(end, t):
    if end["kind"] == "funnel":
        return end["scale"] * mpmath.cosh(t)
    return end["scale"] * mpmath.exp(-t)


def _crossing(end, level, t_hi):
    """t in [t0, t_hi] with |b~(t)| = level, by bisection (b~ increases)."""
    return mpmath.findroot(lambda t: _field(end, t) - level,
                           (end["t0"], t_hi), solver="anderson")


def _mp_weyl(end, lam):
    """int N(mu, |b~|) rho dt by mpmath.quad between the level crossings."""
    mu = mpmath.mpf(lam) - mpmath.mpf(1) / 4
    t_end = mpmath.mpf(end["t0"])
    while _field(end, t_end) < mu:
        t_end += 1
    cuts = [mpmath.mpf(end["t0"])]
    k = 0
    while mu / (2 * k + 1) > _field(end, end["t0"]):
        cuts.append(_crossing(end, mu / (2 * k + 1), t_end))
        k += 1
    cuts = sorted(cuts)
    total = mpmath.mpf(0)
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = (a + b) / 2
        n = sum(1 for j in range(k) if (2 * j + 1) * _field(end, mid) < mu)
        total += mpmath.quad(lambda t: n * _field(end, t) * _rho(end, t), [a, b])
    return float(total)


def _mp_omega(end, mu):
    t_end = mpmath.mpf(end["t0"])
    while _field(end, t_end) < mu:
        t_end += 1
    t_mu = _crossing(end, mu, t_end)
    return float(2 * mpmath.pi * mpmath.quad(lambda t: _rho(end, t), [end["t0"], t_mu]))


CLOSED = [
    panel.end_spec("funnel", [0, 1]),
    panel.end_spec("funnel", [0, 1.5], 0.7, 0.3),
    panel.end_spec("funnel", [0, 0, 1]),
    panel.end_spec("funnel", [0, 0, 0.8], 0.8, 0.2),
    panel.end_spec("cusp", [0, 1]),
    panel.end_spec("cusp", [0, 2.0], 1.4, -0.3),
]


@pytest.mark.parametrize("end", CLOSED, ids=lambda e: f"{e['kind']}{e['coeffs']}")
@pytest.mark.parametrize("lam", [7.3, 40.0])
def test_weyl_closed_form_matches_mpmath(end, lam):
    assert oracle.has_closed_form(end)
    assert math.isclose(oracle.weyl_closed_form(end, lam), _mp_weyl(end, lam),
                        rel_tol=1e-12)


@pytest.mark.parametrize("end", CLOSED, ids=lambda e: f"{e['kind']}{e['coeffs']}")
def test_omega_closed_form_matches_mpmath(end):
    assert math.isclose(oracle.omega_closed_form(end, 25.0), _mp_omega(end, 25.0),
                        rel_tol=1e-12)


def test_unit_case_forms():
    mu = 99.75
    cosh1 = sum(t / 2 + math.sinh(2 * t) / 4
                for t in (math.acosh(mu / m) for m in range(1, 200, 2) if mu / m > 1))
    cosh2 = sum(math.sinh(s) + math.sinh(s) ** 3 / 3
                for s in (math.acosh(math.sqrt(mu / m)) for m in range(1, 200, 2)
                          if mu / m > 1))
    cusp = sum(math.log(mu / m) for m in range(1, 200, 2) if mu / m > 1)
    assert math.isclose(oracle.weyl_closed_form(panel.COSH1, 100.0), cosh1, rel_tol=1e-14)
    assert math.isclose(oracle.weyl_closed_form(panel.COSH2, 100.0), cosh2, rel_tol=1e-14)
    assert math.isclose(oracle.weyl_closed_form(panel.CUSP1, 100.0), cusp, rel_tol=1e-14)
    assert math.isclose(oracle.omega_closed_form(panel.COSH1, mu),
                        2 * math.pi * math.sinh(math.acosh(mu)), rel_tol=1e-14)


# ---------------------------------------------------------------------------
# the dense oracle's model


@pytest.mark.parametrize("end", [panel.MIXED, panel.COSH12, panel.CUSP2,
                                 panel.CUSP1_OFFSET],
                         ids=["mixed", "cosh12", "cusp2", "cusp1-offset"])
def test_gauge_closed_form_integrates_a_prime(end):
    """a(t) - xi equals the integral of -tau b~ cosh t, or of -L b~ e^{-t}."""
    def a_prime(t):
        if end["kind"] == "funnel":
            return -end["scale"] * _field(end, t) * mpmath.cosh(t)
        return -end["scale"] * _field(end, t) * mpmath.exp(-t)

    for t in (end["t0"] + 0.4, end["t0"] + 1.7):
        expect = end["xi"] + mpmath.quad(a_prime, [end["t0"], t])
        assert math.isclose(float(oracle.gauge(end, t)), float(expect), rel_tol=1e-12)


def test_oracle_refuses_a_count_it_cannot_decide(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_REFINEMENTS", 0)
    with pytest.raises(oracle.Undecided):
        oracle.mode_count(panel.CUSP1, 0, 50.0, 0.0, 3.0)


def test_oracle_counts_a_small_cusp():
    """Dense count of cusp [0,1] at lambda = 60 against an independent
    LAPACK solve of every mode on one wide, fine grid."""
    from scipy.linalg import eigvalsh_tridiagonal
    import numpy as np

    lam = 60.0
    count, (lo, hi) = oracle.dense_count(panel.CUSP1, lam)
    total = 0
    for ell in range(lo - 3, hi + 4):
        n = 12000
        h = 6.0 / (n + 1)
        t = h * np.arange(1, n + 1)
        v = oracle.mode_potential(panel.CUSP1, ell, t)
        ev = eigvalsh_tridiagonal(2 / h ** 2 + v, np.full(n - 1, -1 / h ** 2),
                                  select="v", select_range=(0.0, lam))
        total += int(np.sum(ev < lam))
    assert count == total


# ---------------------------------------------------------------------------
# tracing


def test_tracer_survives_a_missing_binding(monkeypatch):
    """A binding the program drops reads 0; every per-layer metric is there."""
    import json

    import hypmag.weyl
    import tracing

    monkeypatch.delattr(hypmag.weyl, "brentq")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.at(0, 0)
        hypmag.weyl.landau_count(20.0, 1.5)
    finally:
        tracer.uninstall()
    assert not hasattr(hypmag.weyl, "brentq")
    metrics = tracing.layer_metrics(tracer.arrays(), {0: (0, 1.0)})
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    from_run = {"cli.import_s", "cli.scipy_import_s", "trace.overhead_s"}
    assert set(metrics) == {m["name"] for m in spec["per_layer"]} - from_run
    assert metrics["weyl.brentq.calls"]["value"] == 0
    assert metrics["landau.landau_count.calls"]["value"] == 1
