"""Spans around hypmag's layers, recorded from outside the package.

hypmag imports its functions by name, so a call is seen only through the
binding its caller uses: each binding in BINDINGS is patched where it is
used.  A span has a name, a start, an end, a parent span and the
(slot, pass) it belongs to.  Spans are kept in memory in flat arrays and
written out when the run ends; a span's self time is its duration minus
the durations of its children.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import hypmag.essential
import hypmag.modes
import hypmag.sturm1d
import hypmag.weyl

# (module, attribute, span name)
BINDINGS = [
    # the operations the benchmark calls
    (hypmag.modes, "count_end", "modes.count_end"),
    (hypmag.weyl, "weyl_integral", "weyl.weyl_integral"),
    (hypmag.weyl, "theorem1_bracket", "weyl.theorem1_bracket"),
    (hypmag.weyl, "omega", "weyl.omega"),
    (hypmag.weyl, "check_hypW", "weyl.check_hypW"),
    (hypmag.essential, "morse_check", "essential.morse_check"),
    (hypmag.essential, "funnel_mode_limit_check", "essential.funnel_mode_limit_check"),
    # the layers underneath, at each binding their callers use
    (hypmag.sturm1d, "count_below", "sturm1d.count_below"),
    (hypmag.sturm1d, "discretize", "sturm1d.discretize"),
    (hypmag.modes, "count_stable", "sturm1d.count_stable"),
    (hypmag.modes, "gauge_function", "model.gauge_function"),
    (hypmag.modes, "eval_field", "model.eval_field"),
    (hypmag.weyl, "eval_field", "model.eval_field"),
    (hypmag.weyl, "landau_count", "landau.landau_count"),
    (hypmag.weyl, "brentq", "weyl.brentq"),
    (hypmag.essential, "count_below", "sturm1d.count_below"),
    (hypmag.essential, "discretize", "sturm1d.discretize"),
    (hypmag.essential, "lowest_eigenvalues", "sturm1d.lowest_eigenvalues"),
]


def _work(name, args, result):
    """A number recorded with some spans: grid points swept, or count > 0."""
    if name == "sturm1d.count_below":
        return args[0].n
    if name == "sturm1d.count_stable":
        return int(result.count > 0)
    return 0


class Tracer:
    """Records spans while installed; the bindings are untouched otherwise."""

    def __init__(self):
        self.names = sorted({name for _, _, name in BINDINGS})
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.slot = array("i")
        self.pass_ = array("i")
        self.work = array("q")
        self._stack = []
        self._where = (-1, -1)
        # A binding the program no longer has is left out; its layer's
        # metrics then read 0, as for a layer the workload does not run.
        self._originals = [(m, attr, getattr(m, attr), name)
                           for m, attr, name in BINDINGS
                           if getattr(m, attr, None) is not None]

    def at(self, slot, pass_):
        """Attribute the next spans to (slot index, pass index)."""
        self._where = (slot, pass_)

    def install(self):
        for m, attr, fn, name in self._originals:
            setattr(m, attr, self._wrap(fn, name))

    def uninstall(self):
        for m, attr, fn, _ in self._originals:
            setattr(m, attr, fn)

    def _wrap(self, fn, name):
        nid = self._ids[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.slot.append(self._where[0])
            self.pass_.append(self._where[1])
            self.end.append(0.0)
            self.work.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            self.work[i] = _work(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """The spans as numpy arrays, with self time and the root op of each."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        # every span's root ancestor, one level of nesting per step
        root = np.where(has, parent, np.arange(name.size))
        while True:
            up = parent[root]
            if not np.any(up >= 0):
                break
            root = np.where(up >= 0, up, root)
        return {
            "names": self.names,
            "name": name, "start": start, "end": end, "parent": parent,
            "slot": np.frombuffer(self.slot, dtype=np.int32),
            "pass": np.frombuffer(self.pass_, dtype=np.int32),
            "work": np.frombuffer(self.work, dtype=np.int64),
            "self": dur - child, "root": root,
        }


def save(path, spans):
    """Write the spans of tracer.arrays() to a compressed .npz file."""
    a = dict(spans)
    np.savez_compressed(path, names=np.array(a.pop("names")), **a)


def layer_metrics(spans, passes):
    """Per-layer metrics of a traced run.

    Self times are summed over slots, each slot taken from its median
    traced pass, the pass the traced sweep time takes for it: passes maps
    slot index to (pass, factor to reference speed).
    Counts come from the first traced pass.
    """
    names = spans["names"]
    nid = {n: i for i, n in enumerate(names)}
    name, slot, pass_ = spans["name"], spans["slot"], spans["pass"]
    chosen = np.zeros(name.size, dtype=bool)
    self_ref = np.zeros(name.size)
    for s, (p, factor) in passes.items():
        sel = (slot == s) & (pass_ == p)
        chosen |= sel
        self_ref[sel] = spans["self"][sel] * factor
    first = pass_ == (pass_.min() if pass_.size else -1)

    def self_s(n):
        return float(np.sum(self_ref[chosen & (name == nid[n])]))

    def calls(n):
        return int(np.sum(first & (name == nid[n])))

    below = name == nid["sturm1d.count_below"]
    stable = name == nid["sturm1d.count_stable"]
    in_stable = np.zeros(name.size, dtype=bool)
    has = spans["parent"] >= 0
    in_stable[has] = stable[spans["parent"][has]]
    under_end = name[spans["root"]] == nid["modes.count_end"]

    points = int(np.sum(spans["work"][first & below]))
    below_self = float(np.sum(self_ref[chosen & below]))
    points_chosen = int(np.sum(spans["work"][chosen & below]))
    n_stable = calls("sturm1d.count_stable")
    solved = int(np.sum(first & stable & under_end))
    useful = int(np.sum(spans["work"][first & stable & under_end]))

    m = {
        "sturm1d.count_below.calls": (calls("sturm1d.count_below"), "count"),
        "sturm1d.count_below.points": (points, "count"),
        "sturm1d.count_below.self_s": (below_self, "s"),
        "sturm1d.count_below.ns_per_point": (
            1e9 * below_self / points_chosen if points_chosen else 0.0, "ns"),
        "sturm1d.discretize.self_s": (self_s("sturm1d.discretize"), "s"),
        "sturm1d.count_stable.calls": (n_stable, "count"),
        "sturm1d.count_stable.self_s": (self_s("sturm1d.count_stable"), "s"),
        "sturm1d.count_stable.sweeps_per_call": (
            int(np.sum(first & below & in_stable)) / n_stable if n_stable else 0.0,
            "sweeps/call"),
        "sturm1d.lowest_eigenvalues.self_s": (self_s("sturm1d.lowest_eigenvalues"), "s"),
        "modes.count_end.self_s": (self_s("modes.count_end"), "s"),
        "modes.solved": (solved, "count"),
        "modes.useful_ratio": (useful / solved if solved else 0.0, "ratio"),
        "model.gauge_function.calls": (calls("model.gauge_function"), "count"),
        "model.gauge_function.self_s": (self_s("model.gauge_function"), "s"),
        "model.eval_field.calls": (calls("model.eval_field"), "count"),
        "model.eval_field.self_s": (self_s("model.eval_field"), "s"),
        "weyl.weyl_integral.self_s": (self_s("weyl.weyl_integral"), "s"),
        "weyl.theorem1_bracket.self_s": (self_s("weyl.theorem1_bracket"), "s"),
        "weyl.omega.self_s": (self_s("weyl.omega"), "s"),
        "weyl.brentq.calls": (calls("weyl.brentq"), "count"),
        "weyl.brentq.self_s": (self_s("weyl.brentq"), "s"),
        "landau.landau_count.calls": (calls("landau.landau_count"), "count"),
        "landau.landau_count.self_s": (self_s("landau.landau_count"), "s"),
        "essential.morse_check.self_s": (self_s("essential.morse_check"), "s"),
        "essential.funnel_mode_limit_check.self_s": (
            self_s("essential.funnel_mode_limit_check"), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
