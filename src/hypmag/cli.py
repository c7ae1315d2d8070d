"""Command-line front end.

Reads a JSON surface description, dispatches to library computations,
and prints deterministic single-line JSON or RFC-4180 CSV.  Exit codes:
0 success, 1 configuration or validation failure (message on stderr),
2 non-converged numerics (results are still printed, flagged).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .essential import (MorseOptions, cusp_is_integral, essential_spectrum,
                        holonomy, morse_check)
from .landau import landau_count, landau_level_set
from .model import (CUSP_KIND, FUNNEL_KIND, CuspEnd, FunnelEnd, RadialField,
                    SurfaceEnds, check_growth_hypotheses)
from .modes import count_end
from .weyl import WeylOptions, fit_exponent, theorem1_bracket, weyl_integral

SCHEMA_VERSION = 1
# hypcheck refuses a --grid of more points
_MAX_GRID = 1 << 20

# config "type" -> (end class, scale field, config field kind, model kind)
_END_TYPES = {
    "funnel": (FunnelEnd, "tau", "cosh-poly", FUNNEL_KIND),
    "cusp": (CuspEnd, "L", "y-poly", CUSP_KIND),
}


class ConfigError(ValueError):
    """Invalid config file or flag; the message names the offending field."""


# ---------------------------------------------------------------------------
# Config schema


@dataclass(frozen=True)
class SurfaceConfig:
    """A parsed config: model ends in config order, the right wall t_max
    of count_end (None: chosen per end and lambda) and the Weyl options."""

    ends: tuple[FunnelEnd | CuspEnd, ...]
    t_max: float | None
    weyl_options: WeylOptions

    @property
    def surface(self) -> SurfaceEnds:
        return SurfaceEnds(
            funnels=tuple(e for e in self.ends if isinstance(e, FunnelEnd)),
            cusps=tuple(e for e in self.ends if isinstance(e, CuspEnd)))


def _want(obj, key, types, path):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: missing required field")
    val = obj[key]
    if types is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{path}.{key}: expected a number, got {val!r}")
        val = float(val)
        if not math.isfinite(val):
            raise ConfigError(f"{path}.{key}: must be finite, got {val!r}")
        return val
    if types is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}.{key}: expected an integer, got {val!r}")
        return val
    if not isinstance(val, types):
        raise ConfigError(f"{path}.{key}: unexpected type {type(val).__name__}")
    return val


def _no_extras(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _parse_end(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: each end must be an object")
    typ = _want(obj, "type", str, path)
    if typ not in _END_TYPES:
        raise ConfigError(f"{path}.type: must be 'funnel' or 'cusp', got {typ!r}")
    cls, scale_key, kind_wanted, model_kind = _END_TYPES[typ]
    _no_extras(obj, {"type", scale_key, "t0", "xi", "field"}, path)
    scale = _want(obj, scale_key, float, path)
    t0 = _want(obj, "t0", float, path)
    xi = _want(obj, "xi", float, path)
    field = _want(obj, "field", dict, path)
    fpath = f"{path}.field"
    _no_extras(field, {"kind", "coeffs"}, fpath)
    kind = _want(field, "kind", str, fpath)
    if kind != kind_wanted:
        raise ConfigError(
            f"{fpath}.kind: {typ} ends require {kind_wanted!r}, got {kind!r}")
    coeffs = _want(field, "coeffs", list, fpath)
    if not coeffs:
        raise ConfigError(f"{fpath}.coeffs: must be nonempty")
    for i, c in enumerate(coeffs):
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise ConfigError(f"{fpath}.coeffs[{i}]: expected a number, got {c!r}")
    # the model's own invariants, mapped to the end's path
    try:
        return cls(**{scale_key: scale}, t0=t0, xi=xi,
                   field=RadialField(kind=model_kind, coeffs=tuple(coeffs)))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_numerics(obj, path) -> tuple[float | None, WeylOptions]:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: must be an object")
    _no_extras(obj, {"t_max", "quad_tol", "delta", "bracket_C"}, path)
    t_max = None
    if obj.get("t_max") is not None:
        t_max = _want(obj, "t_max", float, path)
    weyl = {}
    for key in ("quad_tol", "delta", "bracket_C"):
        if key in obj:
            weyl[key] = _want(obj, key, float, path)
            # WeylOptions checks each field on its own, so building it
            # from this key alone names the key its error is about
            try:
                WeylOptions(**{key: weyl[key]})
            except ValueError as exc:
                raise ConfigError(f"{path}.{key}: {exc}") from exc
    return t_max, WeylOptions(**weyl)


def parse_config(obj) -> SurfaceConfig:
    """Validate a decoded JSON object into a SurfaceConfig."""
    if not isinstance(obj, dict):
        raise ConfigError("config: top level must be an object")
    _no_extras(obj, {"schema_version", "ends", "numerics"}, "config")
    version = _want(obj, "schema_version", int, "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {version}")
    ends_raw = _want(obj, "ends", list, "config")
    if not ends_raw:
        raise ConfigError("config.ends: need at least one end")
    ends = tuple(_parse_end(e, f"config.ends[{i}]")
                 for i, e in enumerate(ends_raw))
    t_max, weyl_options = _parse_numerics(obj.get("numerics", {}),
                                          "config.numerics")
    return SurfaceConfig(ends=ends, t_max=t_max, weyl_options=weyl_options)


def load_config(path: str) -> SurfaceConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--config: {path} is not valid JSON: {exc}") from exc
    return parse_config(obj)


# ---------------------------------------------------------------------------
# Output formatting


def _collapse(x):
    """Floats with integral values print as integers ('2', not '2.0')."""
    if isinstance(x, float) and math.isfinite(x) and x == int(x) and abs(x) < 1e15:
        return int(x)
    return x


def _jdump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _csv_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _check_out(out_path):
    """Refuse an --out that is a directory or lies in no directory, before
    any computation; the check creates and truncates nothing, and
    _emit_csv still names an OSError of the write itself."""
    if out_path in (None, "-"):
        return
    parent = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        why = "it is a directory"
    elif not os.path.isdir(parent):
        why = f"no directory {parent}"
    else:
        return
    raise ConfigError(f"--out: cannot write {out_path}: {why}")


def _emit_csv(rows, header, out_path):
    text = "\r\n".join([",".join(header)]
                       + [",".join(_csv_cell(c) for c in row) for row in rows])
    text += "\r\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--out: cannot write {out_path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Flag helpers


def _parse_lambdas(args) -> list[float]:
    if args.lambdas is not None:
        try:
            vals = [float(s) for s in args.lambdas.split(",") if s.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"--lambdas: {exc}") from exc
        if not vals:
            raise ConfigError("--lambdas: need at least one value")
        return vals
    parts = args.lambda_geom.split(",")
    if len(parts) != 3:
        raise ConfigError("--lambda-geom: expected start,factor,count")
    try:
        start, factor, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--lambda-geom: {exc}") from exc
    if not (0.0 < start < math.inf and 0.0 < factor < math.inf and count >= 1):
        raise ConfigError("--lambda-geom: start, factor must be finite, > 0; count >= 1")
    vals = [_geom_term(start, factor, i) for i in range(count)]
    if math.inf in vals:
        raise ConfigError(f"--lambda-geom: {start} * {factor}^{count - 1} overflows")
    return vals


def _geom_term(start: float, factor: float, i: int) -> float:
    """start * factor^i: as written where factor^i is a normal float, else
    from two halves of the power, each term between start and the value."""
    try:
        power = factor ** i
    except OverflowError:
        power = math.inf
    if i <= 1 or sys.float_info.min <= power <= sys.float_info.max:
        return start * power
    half = i // 2
    return _geom_term(_geom_term(start, factor, half), factor, i - half)


def _pick_end(cfg: SurfaceConfig, index: int):
    if not (0 <= index < len(cfg.ends)):
        raise ConfigError(f"--end: index {index} out of range "
                          f"(config has {len(cfg.ends)} ends)")
    return cfg.ends[index]


def _sum_counts(cfg: SurfaceConfig, lam: float):
    total = 0
    converged = True
    for end in cfg.ends:
        res = count_end(end, lam, cfg.t_max)
        total += res.count
        converged = converged and res.converged
    return total, converged


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_nlandau(args) -> int:
    # landau_count names NaN and +-inf itself
    if -math.inf < args.b < 0.0:
        raise ConfigError("--b: intensity must be >= 0")
    print(_jdump(_collapse(landau_count(args.mu, args.b))))
    return 0


def _cmd_sset(args) -> int:
    levels = landau_level_set(args.beta).levels
    print(_jdump([_collapse(v) for v in levels]))
    return 0


def _cmd_count_end(args) -> int:
    cfg = load_config(args.config)
    end = _pick_end(cfg, args.end)
    res = count_end(end, args.lam, cfg.t_max)
    if args.json:
        payload = {
            "count": res.count,
            "lambda": _collapse(res.lam),
            "n": res.n,
            "t_hi": _collapse(res.t_hi),
            "mode_range": list(res.mode_range) if res.mode_range else None,
            "converged": res.converged,
        }
        print(_jdump(payload))
    else:
        print(res.count)
    return 0 if res.converged else 2


def _cmd_weyl(args) -> int:
    cfg = load_config(args.config)
    value = weyl_integral(cfg.surface, args.lam, cfg.weyl_options)
    print(_jdump(_collapse(value)))
    return 0


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    lams = _parse_lambdas(args)
    _check_out(args.out)
    surface = cfg.surface
    wopts = cfg.weyl_options
    rows = []
    all_converged = True
    for lam in lams:
        count, converged = _sum_counts(cfg, lam)
        wv = weyl_integral(surface, lam, wopts)
        lower, upper = theorem1_bracket(surface, lam, wopts)
        ratio = count / wv if wv > 0.0 else math.nan
        all_converged = all_converged and converged
        rows.append([_collapse(float(lam)), count, wv, lower, upper, ratio,
                     converged])
    _emit_csv(rows, ["lambda", "count", "weyl", "lower", "upper", "ratio",
                     "converged"], args.out)
    return 0 if all_converged else 2


def _cmd_fit(args) -> int:
    cfg = load_config(args.config)
    lams = _parse_lambdas(args)
    samples = []
    all_converged = True
    for lam in lams:
        count, converged = _sum_counts(cfg, lam)
        all_converged = all_converged and converged
        samples.append((lam, count))
    fit = fit_exponent(samples)
    print(_jdump({"slope": fit.slope, "alpha": fit.alpha}))
    return 0 if all_converged else 2


def _cmd_essential(args) -> int:
    cfg = load_config(args.config)
    spec = essential_spectrum(cfg.surface)
    payload = {"bottom": spec.bottom, "points": list(spec.points),
               "empty": spec.empty}
    print(_jdump(payload))
    return 0


def _cmd_morse_check(args) -> int:
    kwargs = {}
    if args.window is not None:
        parts = args.window.split(",")
        if len(parts) != 2:
            raise ConfigError("--window: expected LO,HI")
        try:
            kwargs["s_lo"], kwargs["s_hi"] = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"--window: {exc}") from exc
    if args.grid is not None:
        kwargs["n"] = args.grid
    try:
        opts = MorseOptions(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"--window/--grid: {exc}") from exc
    rep = morse_check(args.beta, opts)
    err = None if math.isinf(rep.max_abs_err) else rep.max_abs_err
    payload = {
        "beta": _collapse(rep.beta),
        "predicted": [_collapse(v) for v in rep.predicted],
        "computed": list(rep.computed),
        "max_abs_err": err,
        "converged": rep.converged,
    }
    print(_jdump(payload))
    return 0 if rep.converged else 2


def _cmd_holonomy(args) -> int:
    cfg = load_config(args.config)
    end = _pick_end(cfg, args.end)
    if not isinstance(end, CuspEnd):
        raise ConfigError(f"--end: end {args.end} is a funnel; holonomy "
                          "is defined for cusp ends")
    value = holonomy(end)
    print(_jdump({"holonomy": value, "integral": cusp_is_integral(end)}))
    return 0


def _cmd_hypcheck(args) -> int:
    if not (0.0 < args.span < math.inf):
        raise ConfigError(f"--span: must be finite and > 0, got {args.span}")
    if not 1 <= args.grid <= _MAX_GRID:
        raise ConfigError(f"--grid: need 1 to {_MAX_GRID} points, got {args.grid}")
    cfg = load_config(args.config)
    reports = []
    all_hold = True
    for i, end in enumerate(cfg.ends):
        grid = np.linspace(end.t0, end.t0 + args.span, args.grid)
        rep = check_growth_hypotheses(end, grid)
        ok = rep.h0 and rep.h1_or_h2
        all_hold = all_hold and ok
        reports.append({
            "index": i,
            "type": "funnel" if isinstance(end, FunnelEnd) else "cusp",
            "h0": rep.h0,
            "h1_or_h2": rep.h1_or_h2,
            "witness": None if math.isinf(rep.witness) else rep.witness,
        })
    print(_jdump({"ends": reports, "all_hold": all_hold}))
    return 0


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own status 2 on bad flags; route through
    # ConfigError instead so 2 stays reserved for non-converged numerics
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypmag",
                     description="Eigenvalue counting for magnetic Laplacians "
                                 "on funnel and cusp ends.")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by several subcommands, each declared once
    config, end, lam, lambdas = (argparse.ArgumentParser(add_help=False)
                                 for _ in range(4))
    config.add_argument("--config", required=True)
    end.add_argument("--end", type=int, required=True,
                     help="index into the config's ends list")
    lam.add_argument("--lambda", dest="lam", type=float, required=True)
    group = lambdas.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambdas", help="comma-separated lambda values")
    group.add_argument("--lambda-geom", help="start,factor,count")

    p = sub.add_parser("nlandau",
                       help="Landau counting weight N(mu, b)")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(func=_cmd_nlandau)

    p = sub.add_parser("sset",
                       help="discrete Landau levels of a constant field")
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=_cmd_sset)

    p = sub.add_parser("count-end", parents=[config, end, lam],
                       help="Dirichlet eigenvalue count of one end below lambda")
    p.add_argument("--json", action="store_true",
                   help="print the full result object instead of the count")
    p.set_defaults(func=_cmd_count_end)

    p = sub.add_parser("weyl", parents=[config, lam],
                       help="semiclassical counting integral at lambda")
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("compare", parents=[config, lambdas],
                       help="CSV sweep: counts vs integral vs bracket")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fit", parents=[config, lambdas],
                       help="log-log growth exponent of the count")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("essential", parents=[config],
                       help="essential spectrum for constant end fields")
    p.set_defaults(func=_cmd_essential)

    p = sub.add_parser("morse-check",
                       help="verify the Morse-limit ladder numerically")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--window", default=None, help="LO,HI in log coordinates")
    p.set_defaults(func=_cmd_morse_check)

    p = sub.add_parser("holonomy", parents=[config, end],
                       help="cusp holonomy and integer-class membership")
    p.set_defaults(func=_cmd_holonomy)

    p = sub.add_parser("hypcheck", parents=[config],
                       help="field growth hypotheses on each end")
    p.add_argument("--span", type=float, default=12.0,
                   help="grid extent beyond t0")
    p.add_argument("--grid", type=int, default=512,
                   help="number of grid points")
    p.set_defaults(func=_cmd_hypcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
