"""The benchmark's workloads: fixed query slots, per-pass inputs and checks.

A workload is a fixed list of slots.  Every pass of a run calls each slot
once with an input the process has not seen before, derived from the
run's seed:

* count queries (count_end) get the end's xi shifted by an integer; the
  count of an end does not change under that shift, so one dense-oracle
  count (reference.json) serves every pass of every seed;
* phase-space and self-check queries get lambda (or beta) nudged by a
  relative amount below 1e-9, and are checked against closed forms
  evaluated at the nudged value, or against properties the method must
  have.

The ends themselves are fixed, not drawn from the seed: the grid bias of
count_stable over-counts a seed-dependent subset of any drawn family, so
the share of failed operations would change from seed to seed.

hypmag receives only the ends and thresholds built here.
"""

from __future__ import annotations

import json
import math
import random

import hypmag.cli  # noqa: F401  (loads every layer, as the console script does)
from hypmag import (CuspEnd, FunnelEnd, MorseOptions, RadialField,
                    essential, modes, weyl)
from hypmag.model import CUSP_KIND, FUNNEL_KIND

import oracle
from panel import LEVEL_CAP, R2, WORKLOADS

# check tolerances, fixed before measuring
WEYL_RTOL = 1e-6          # the quad_tol the Weyl integral is asked for
OMEGA_RTOL = 1e-9         # omega is root-finder accurate
MORSE_ATOL = 2e-3         # O(h^2) error of the 2000-point Morse grid
LIMIT_ATOL = 1e-3         # distance of the rho = 6 funnel mode to its limit
NUDGE = 1e-9              # largest relative nudge of lambda or beta
# the failures the known faults give, and no others (see shows_fault)
R2_MARGIN = 2             # most an R2 over-count exceeds the oracle by
LEVEL_CAP_REL = 2e-5      # largest relative shortfall of the level-cap truncation
SHIFT_RANGE = 20          # per-seed xi offset is drawn from [-20, 20]


def to_hypmag(spec, xi_shift=0):
    field_kind = FUNNEL_KIND if spec["kind"] == "funnel" else CUSP_KIND
    field = RadialField(field_kind, tuple(spec["coeffs"]))
    xi = spec["xi"] + xi_shift
    if spec["kind"] == "funnel":
        return FunnelEnd(tau=spec["scale"], t0=spec["t0"], field=field, xi=xi)
    return CuspEnd(L=spec["scale"], t0=spec["t0"], field=field, xi=xi)


# ---------------------------------------------------------------------------
# per-pass inputs


class Inputs:
    """The inputs of every pass of one run, drawn from the seed."""

    def __init__(self, workload, seed, reference):
        self.slots = WORKLOADS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.shift0 = self.rng.randint(-SHIFT_RANGE, SHIFT_RANGE)
        self.nudges = []
        self.reference = {}
        for s in self.slots:
            if s.op == "count_end":
                ref = reference[f"{workload}/{s.key}"]
                if ref["end"] != s.end or ref["lam"] != s.lam:
                    raise ValueError(f"reference.json is stale for {s.key}")
                self.reference[s.key] = ref["count"]

    def nudge(self, p):
        while len(self.nudges) <= p:
            self.nudges.append(NUDGE * (2.0 * self.rng.random() - 1.0))
        return 1.0 + self.nudges[p]

    def args(self, slot, p):
        """Positional arguments of slot's call in pass p."""
        if slot.op == "count_end":
            return (to_hypmag(slot.end, self.shift0 + p), slot.lam)
        x = slot.lam * self.nudge(p)
        if slot.op == "morse_check":
            return (x, MorseOptions(n=2000))
        if slot.op == "funnel_mode_limit_check":
            return (x, [6.0])
        end = to_hypmag(slot.end)
        if slot.op == "weyl_integral":
            return (end, x)
        if slot.op == "bracket_c0":
            return (end, x, weyl.WeylOptions(bracket_C=0.0))
        if slot.op == "bracket_c1":
            return (end, x, weyl.WeylOptions(bracket_C=1.0))
        if slot.op == "omega":
            return (end, x - 0.25)
        if slot.op == "check_hypW":
            mu = x - 0.25
            return (end, [mu / 4.0, mu / 2.0, mu], [0.1, 0.5])
        raise KeyError(slot.op)


# the hypmag function behind each op, looked up per call so that the
# bindings patched by tracing.py are the ones called
_FUNCTIONS = {
    "count_end": (modes, "count_end"),
    "morse_check": (essential, "morse_check"),
    "funnel_mode_limit_check": (essential, "funnel_mode_limit_check"),
    "weyl_integral": (weyl, "weyl_integral"),
    "bracket_c0": (weyl, "theorem1_bracket"),
    "bracket_c1": (weyl, "theorem1_bracket"),
    "omega": (weyl, "omega"),
    "check_hypW": (weyl, "check_hypW"),
}


def call(slot, args):
    """Run one slot through hypmag's public functions."""
    module, name = _FUNCTIONS[slot.op]
    return getattr(module, name)(*args)


# ---------------------------------------------------------------------------
# checks


def landau_ladder(beta):
    """Levels (2j+1)|beta| - j(j+1), j < |beta| - 1/2."""
    b = abs(beta)
    return [(2 * j + 1) * b - j * (j + 1) for j in range(max(0, math.ceil(b - 0.5)))]


def _rel(x, ref):
    return abs(x - ref) / max(abs(ref), 1e-300)


def check(slot, args, out, outputs, first_count=None, reference=None):
    """Reasons slot's output is wrong; an empty list means it is right.

    outputs maps the keys of the slots already run in this pass to their
    outputs, for the property checks that compare operations; first_count
    is the count this slot gave in the run's first pass.
    """
    op = slot.op
    bad = []
    if op == "count_end":
        if out.count != reference:
            bad.append(f"count {out.count} != oracle {reference}")
        if first_count is not None and out.count != first_count:
            bad.append(f"xi shift changed the count: {first_count} -> {out.count}")
        if not out.converged:
            bad.append("converged is false")
        return bad
    if op == "morse_check":
        ladder = landau_ladder(args[0])
        if len(out.computed) != len(ladder):
            return [f"{len(out.computed)} levels, ladder has {len(ladder)}"]
        err = max((abs(a - b) for a, b in zip(out.computed, ladder)), default=0.0)
        if not err <= MORSE_ATOL:
            bad.append(f"level error {err:.3g} > {MORSE_ATOL}")
        if not out.converged:
            bad.append("converged is false")
        return bad
    if op == "funnel_mode_limit_check":
        ladder = landau_ladder(args[0])
        bottom = min(ladder) if ladder else 0.25 + args[0] ** 2
        if _rel(out.limit, bottom) > 1e-12:
            bad.append(f"limit {out.limit} != ladder bottom {bottom}")
        if not abs(out.lowest[-1] - bottom) <= LIMIT_ATOL:
            bad.append(f"lowest {out.lowest[-1]} is {abs(out.lowest[-1] - bottom):.3g} "
                       f"from {bottom}")
        return bad

    end = slot.end
    if op == "check_hypW":
        if not out.holds or not math.isfinite(out.C1_witness) or out.skipped:
            bad.append(f"hypothesis W fails: {out}")
        return bad
    closed = oracle.has_closed_form(end)
    same_end = [s for s in WORKLOADS_BY_KEY[slot.key] if s.key in outputs]
    if op == "omega":
        mu = args[1]
        if closed:
            ref_om = oracle.omega_closed_form(end, mu)
            if _rel(out, ref_om) > OMEGA_RTOL:
                bad.append(f"omega {out!r} off the closed form {ref_om!r}")
        if not out > 0.0:
            bad.append(f"omega {out!r} is not positive")
        if end["kind"] == "cusp":
            area = 2.0 * math.pi * end["scale"] * math.exp(-end["t0"])
            if not out <= area:
                bad.append(f"omega {out!r} exceeds the cusp area {area!r}")
        for s in same_end:
            if s.op == "omega" and s.lam < slot.lam and not out > outputs[s.key]:
                bad.append(f"omega not monotone in mu at {slot.lam:g}")
        return bad
    ref = oracle.weyl_closed_form(end, args[1]) if closed else None
    if op == "weyl_integral":
        if closed and _rel(out, ref) > WEYL_RTOL:
            bad.append(f"weyl {out!r} off the closed form {ref!r} by "
                       f"{(out - ref) / ref:.3g}")
        if not out > 0.0:
            bad.append(f"weyl {out!r} is not positive")
        for s in same_end:
            if s.op == "weyl_integral" and s.lam < slot.lam and not out > outputs[s.key]:
                bad.append(f"not monotone: weyl({slot.lam:g}) = {out!r} <= "
                           f"weyl({s.lam:g}) = {outputs[s.key]!r}")
        return bad
    if op == "bracket_c0":
        lower, upper = out
        target = ref if closed else outputs.get(_sibling(slot, "weyl_integral"))
        if lower != upper:
            bad.append(f"C = 0 bracket does not collapse: {lower!r} != {upper!r}")
        if target is not None and _rel(upper, target) > WEYL_RTOL:
            bad.append(f"C = 0 bracket {upper!r} off the integral {target!r}")
        return bad
    if op == "bracket_c1":
        lower, upper = out
        target = ref if closed else outputs.get(_sibling(slot, "weyl_integral"))
        if not 0.0 <= lower <= upper:
            bad.append(f"bracket not ordered: {lower!r}, {upper!r}")
        if target is not None and not lower <= target <= upper:
            bad.append(f"integral {target!r} outside [{lower!r}, {upper!r}]")
        return bad
    raise KeyError(op)


def shows_fault(slot, args, out, reasons, reference=None):
    """Whether a failed output is exactly the failure of slot's known fault.

    R2 (count_stable's grid bias) gives a converged count above the oracle
    by at most R2_MARGIN; the level cap gives a Weyl integral short of its
    closed form by at most LEVEL_CAP_REL.  Any other failure on such a
    slot, or a second reason beside the fault's own, is unexpected.
    """
    if len(reasons) != 1:
        return False
    if slot.fault == R2:
        return out.converged and 0 < out.count - reference <= R2_MARGIN
    if slot.fault == LEVEL_CAP:
        ref = oracle.weyl_closed_form(slot.end, args[1])
        return -LEVEL_CAP_REL <= (out - ref) / ref < -WEYL_RTOL
    return False


def _sibling(slot, op):
    return slot.key.replace(slot.op, op, 1)


def _by_end():
    """For each slot, the slots of its workload on the same end."""
    out = {}
    for slots in WORKLOADS.values():
        for s in slots:
            out[s.key] = [t for t in slots if t.end is s.end and t is not s]
    return out


WORKLOADS_BY_KEY = _by_end()


def load_reference():
    return json.loads(oracle.REFERENCE_FILE.read_text())


def build(workload, seed):
    """Everything a run needs before its first pass."""
    return Inputs(workload, seed, load_reference())
