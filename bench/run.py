"""Run one workload of the hypmag benchmark and print its metrics.

    python3 bench/run.py --workload funnel-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source tree: hypmag is imported from ./src.  One
process, one thread: BLAS threads are held at 1 here and in every process
this script starts.

A run makes passes over the workload's slots until --seconds are used up;
each pass gives every slot a fresh input (see workloads.py).  Every time
is taken at reference speed: it is scaled by REF_S / r, where r is the
mean time of a fixed calibration kernel run on the same thread just
before and just after it, and REF_S is that kernel's time in the fast
phases of a shared 2-core Xeon host.  A slot's time is the median over
the passes.  Both keep the host's speed phases out of the figure; the raw
times are in the detail file.

Every output is checked; an operation that raises or gives a wrong output
counts as failed.  A run is correct when every failure is the known
fault of its slot, as workloads.shows_fault describes it.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics:

* --trace 0: setup_s, sweep_s, query_p50_s and peak_rss_mb;
* --trace 1: the per-layer metrics of tracing.py, cli.import_s,
  cli.scipy_import_s and trace.overhead_s.  Passes alternate between
  untraced and traced; the overhead is the traced minus the untraced
  sweep time.

Details (per-slot times, failures, versions, set-up samples) go to
bench/out/<workload>-seed<seed>-trace<0|1>.json, and a traced run's spans
to the matching -spans.npz file.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 9          # fresh interpreters timed for setup_s
IMPORTTIME_RUNS = 3     # fresh interpreters read with -X importtime
TRACED_PASSES = 3       # passes 1, 3 and 5 of a traced run; spans are kept in memory
REF_S = 1.1e-3          # calibration kernel time at reference speed

# A fresh interpreter: import hypmag.cli, then build the workload's inputs.
# It prints the monotonic clock when done and the time the import took.
_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
t = time.perf_counter()
import hypmag.cli
t_import = time.perf_counter() - t
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(time.monotonic(), t_import)
"""


def _cal_kernel():
    """Interpreter and small-array numpy work, like hypmag's inner loops."""
    d, c = 1.0, 0
    for _ in range(20000):
        d = 2.5 - 1.0 / d
        if d < 0.0:
            c += 1
    a = np.linspace(1.0, 2.0, 512)
    for _ in range(120):
        a = np.sqrt(a * a + 1.0)
    return c


def calibrate():
    """Median of three runs of the calibration kernel, in seconds."""
    runs = []
    for _ in range(3):
        t = time.perf_counter()
        _cal_kernel()
        runs.append(time.perf_counter() - t)
    return statistics.median(runs)


@contextlib.contextmanager
def one_cpu():
    """Run the block, and every process it starts, on one CPU.

    A fresh interpreter then runs on the core of the calibrations that
    scale it.  The passes are not pinned: on a shared 2-core host, pinned
    passes gave the widest run-to-run spreads seen (README.md, "Pinning").
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def time_setup(workload, seed, runs):
    """Fresh interpreters: (wall times from start to inputs built, import
    times, calibration before each and after the last)."""
    walls, imports, cal = [], [], []
    with one_cpu():
        for _ in range(runs):
            cal.append(calibrate())
            start = time.monotonic()
            out = subprocess.run(
                [sys.executable, "-c", _PROBE, str(SRC), str(HERE), workload, str(seed)],
                cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                check=True, timeout=120)
            done, t_import = (float(x) for x in out.stdout.split())
            walls.append(done - start)
            imports.append(t_import)
        cal.append(calibrate())
    return walls, imports, cal


def at_reference_speed(t, cal, i):
    """t scaled by REF_S over the mean of calibrations i and i + 1."""
    return t * REF_S / (0.5 * (cal[i] + cal[i + 1]))


def scipy_import_times(runs):
    """Seconds of `import hypmag.cli` spent in scipy's own modules, per run,
    at reference speed.

    Read from -X importtime: the sum of the self times of every module
    whose name starts with scipy.
    """
    out, cal = [], []
    with one_cpu():
        for _ in range(runs):
            cal.append(calibrate())
            res = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import hypmag.cli"],
                cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                check=True, timeout=120)
            us = 0
            for line in res.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip().startswith("scipy"):
                    us += int(parts[0].split(":")[1])
            out.append(us * 1e-6)
        cal.append(calibrate())
    return [at_reference_speed(t, cal, i) for i, t in enumerate(out)]


def environment():
    """Versions and CPUs, read without importing anything hypmag does not
    (peak_rss_mb is the timed process's)."""
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "probe_cpu": max(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def run_passes(inputs, seconds, tracer=None):
    """Passes over every slot until the time is used up.

    Returns per-slot lists of [pass, raw seconds, traced, seconds at
    reference speed], the failures, the number of passes and the
    calibration times.  With a tracer, the first TRACED_PASSES odd passes
    are traced.
    """
    import workloads

    slots = inputs.slots
    times = {s.key: [] for s in slots}
    failures = []
    first_count = {}
    cal = []
    t_start = time.perf_counter()
    longest = 0.0
    p = 0
    min_passes = 2 if tracer else 1
    while True:
        traced = tracer is not None and p % 2 == 1 and p < 2 * TRACED_PASSES
        if traced:
            tracer.install()
        t_pass = time.perf_counter()
        outputs = {}
        for i, slot in enumerate(slots):
            args = inputs.args(slot, p)
            cal.append(calibrate())
            if traced:
                tracer.at(i, p)
            t = time.perf_counter()
            try:
                out = workloads.call(slot, args)
            except Exception as exc:  # a raising operation counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            times[slot.key].append([p, time.perf_counter() - t, traced, len(cal) - 1])
            if error is None:
                outputs[slot.key] = out
                ref = inputs.reference.get(slot.key)
                reasons = workloads.check(
                    slot, args, out, outputs,
                    first_count=first_count.get(slot.key), reference=ref)
                expected = bool(reasons) and workloads.shows_fault(
                    slot, args, out, reasons, ref)
                if slot.op == "count_end":
                    first_count.setdefault(slot.key, out.count)
            else:
                reasons, expected = [error], False
            if reasons:
                failures.append({"pass": p, "slot": slot.key, "reasons": reasons,
                                 "expected": expected})
        if traced:
            tracer.uninstall()
        cal.append(calibrate())
        t_end = time.perf_counter()
        longest = max(longest, t_end - t_pass)
        p += 1
        if p >= min_passes and t_end - t_start + longest > seconds:
            break
    # each sample: [pass, raw seconds, traced, seconds at reference speed]
    for samples in times.values():
        for x in samples:
            x[3] = at_reference_speed(x[1], cal, x[3])
    return times, failures, p, cal


def unexpected_failures(failures):
    """Slots with a failure other than their known fault's; any makes a run
    incorrect."""
    return sorted({f["slot"] for f in failures if not f["expected"]})


def slot_times(times, traced):
    """Per-slot median over passes of the time at reference speed, and the
    pass whose time is nearest to it."""
    out = {}
    for key, samples in times.items():
        sel = [(t, p) for p, _, tr, t in samples if tr == traced]
        med = statistics.median(t for t, _ in sel)
        out[key] = (med, min(sel, key=lambda x: abs(x[0] - med))[1])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one workload of the hypmag benchmark.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hypmag" / "__init__.py").is_file():
        print(f"no hypmag sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_walls, setup_imports, setup_cal = time_setup(
        args.workload, args.seed, SETUP_RUNS if not args.trace else IMPORTTIME_RUNS)
    setup_ref = [at_reference_speed(t, setup_cal, i) for i, t in enumerate(setup_walls)]
    inputs = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    times, failures, passes, cal = run_passes(inputs, args.seconds, tracer)

    slots = inputs.slots
    failed_keys = {f["slot"] for f in failures}
    unexpected = unexpected_failures(failures)
    attempted = passes * len(slots)
    result = {"correct": not unexpected, "attempted": attempted,
              "failed": len(failures)}
    plain = slot_times(times, traced=False)
    sweep = sum(t for t, _ in plain.values())
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "passes": passes,
              "environment": environment(), "setup_raw_s": setup_walls,
              "setup_s": setup_ref, "setup_calibration_s": setup_cal,
              "import_raw_s": setup_imports, "unexpected_failures": unexpected,
              "failures": failures, "calibration_s": cal,
              "slots": [{"key": s.key, "op": s.op, "lam": s.lam, "fault": s.fault,
                         "time_s": plain[s.key][0],
                         "times": times[s.key]}
                        for s in slots]}

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_ref), "s"),
            "sweep_s": (sweep, "s"),
            "query_p50_s": (statistics.median(t for t, _ in plain.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        traced_times = slot_times(times, traced=True)
        scale = {}
        for i, s in enumerate(slots):
            p = traced_times[s.key][1]
            raw, ref = next((x[1], x[3]) for x in times[s.key] if x[0] == p)
            scale[i] = (p, ref / raw)
        spans = tracer.arrays()
        metrics = tracing.layer_metrics(spans, scale)
        metrics["cli.import_s"] = {
            "value": min(at_reference_speed(t, setup_cal, i)
                         for i, t in enumerate(setup_imports)), "unit": "s"}
        metrics["cli.scipy_import_s"] = {
            "value": min(scipy_import_times(IMPORTTIME_RUNS)), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": sum(t for t, _ in traced_times.values()) - sweep, "unit": "s"}
        OUT.mkdir(exist_ok=True)
        tracing.save(OUT / f"{args.workload}-seed{args.seed}-trace1-spans.npz", spans)
    result["metrics"] = metrics
    detail["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    for s in slots:
        flag = " FAILED" if s.key in failed_keys else ""
        print(f"{s.key:40s} {plain[s.key][0]:9.4f} s{flag}")
    for f in failures[:len(failed_keys)]:
        print(f"failed in pass {f['pass']}: {f['slot']}: {'; '.join(f['reasons'])}")
    print(f"{passes} passes, {attempted} attempted, {len(failures)} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
