"""Command-line interface: exact output bytes, exit codes, error paths."""

import argparse
import json
import math
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import (cusp_linear_end, funnel_cosh_end, run_cli, run_main,
                      write_config)
from hypmag import cli
from hypmag.cli import (ConfigError, _parse_lambdas, build_parser, load_config,
                        parse_config)

TWO_FUNNELS = [
    {"type": "funnel", "tau": 1.0, "t0": 0.0, "xi": 0.0,
     "field": {"kind": "cosh-poly", "coeffs": [1.0]}},
    {"type": "funnel", "tau": 1.0, "t0": 0.0, "xi": 0.0,
     "field": {"kind": "cosh-poly", "coeffs": [3.0]}},
]
CONST_CUSP = [
    {"type": "cusp", "L": 1.0, "t0": 0.0, "xi": 2.0,
     "field": {"kind": "y-poly", "coeffs": [2.0]}},
]


def cusp_linear_weyl(lam: float) -> float:
    """The Weyl integral of cusp_linear_end (b~ = y, L 1, t0 0): with
    mu = lambda - 1/4, the sum of log(mu / (2j + 1)) over 2j + 1 < mu."""
    mu = lam - 0.25
    return math.fsum(math.log(mu / k) for k in range(1, math.ceil(mu), 2))


def assert_weyl_column(csv_text: str):
    """Each row's Weyl column matches cusp_linear_weyl to 1e-14."""
    for row in csv_text.splitlines()[1:]:
        lam, _, weyl = row.split(",")[:3]
        assert float(weyl) == pytest.approx(cusp_linear_weyl(float(lam)), rel=1e-14)


@pytest.fixture
def cusp_cfg(tmp_path):
    return write_config(tmp_path / "cusp.json", [cusp_linear_end()])


@pytest.fixture
def funnels_cfg(tmp_path):
    return write_config(tmp_path / "funnels.json", TWO_FUNNELS)


@pytest.fixture
def const_cfg(tmp_path):
    return write_config(tmp_path / "const.json", CONST_CUSP)


class TestSubprocessBytes:
    """Exact stdout bytes through a real pipe, one case per subcommand."""

    def test_nlandau(self):
        assert run_cli("nlandau", "--mu", "5", "--b", "1") == (0, b"2\n", b"")
        assert run_cli("nlandau", "--mu", "5", "--b", "0.75") == (
            0, b"2.25\n", b"")

    def test_sset(self):
        assert run_cli("sset", "--beta", "2.5") == (0, b"[2.5,5.5]\n", b"")
        assert run_cli("sset", "--beta", "5.5") == (
            0, b"[5.5,14.5,21.5,26.5,29.5]\n", b"")
        assert run_cli("sset", "--beta", "0.4") == (0, b"[]\n", b"")

    def test_essential(self, funnels_cfg, const_cfg):
        rc, out, err = run_cli("essential", "--config", funnels_cfg)
        assert (rc, err) == (0, b"")
        assert out == b'{"bottom":1.25,"points":[1.0],"empty":false}\n'
        rc, out, err = run_cli("essential", "--config", const_cfg)
        assert out == b'{"bottom":4.25,"points":[],"empty":false}\n'

    def test_holonomy(self, const_cfg):
        rc, out, err = run_cli("holonomy", "--config", const_cfg, "--end", "0")
        assert (rc, err) == (0, b"")
        assert out == b'{"holonomy":0.0,"integral":true}\n'

    @pytest.mark.skipif(shutil.which("hypmag") is None,
                        reason="hypmag console script not installed")
    def test_console_script_installed(self):
        exe = shutil.which("hypmag")
        assert exe is not None
        proc = subprocess.run([exe, "nlandau", "--mu", "5", "--b", "1"],
                              capture_output=True)
        assert proc.returncode == 0
        assert proc.stdout == b"2\n"

    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency: the CLI must start without it;
        # numpy.polynomial loads only at the first Gauss-Legendre rule
        code = ("import hypmag.cli, sys; print(any(m.split('.')[0] == 'scipy' "
                "or m.startswith('numpy.polynomial') for m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert (proc.returncode, proc.stdout) == (0, b"False\n")

    def test_console_script_entry_point(self):
        # the declared entry point, run the way the generated wrapper runs
        # it, so the script is checked without an install
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["hypmag"] == "hypmag.cli:main"
        wrapper = "import sys; from hypmag.cli import main; sys.exit(main())"
        proc = subprocess.run([sys.executable, "-c", wrapper,
                               "nlandau", "--mu", "5", "--b", "1"],
                              capture_output=True)
        assert proc.returncode == 0
        assert proc.stdout == b"2\n"


class TestDeterministicOutput:
    def test_weyl(self, capsys, cusp_cfg):
        rc, out, err = run_main(capsys, "weyl", "--config", cusp_cfg,
                                "--lambda", "100")
        assert (rc, err) == (0, "")
        assert out == "49.529103212705444\n"
        assert float(out) == pytest.approx(cusp_linear_weyl(100.0), rel=1e-14)

    def test_count_end(self, capsys, cusp_cfg):
        rc, out, err = run_main(capsys, "count-end", "--config", cusp_cfg,
                                "--end", "0", "--lambda", "100")
        assert (rc, out, err) == (0, "46\n", "")

    def test_count_end_json(self, capsys, cusp_cfg):
        rc, out, err = run_main(capsys, "count-end", "--config", cusp_cfg,
                                "--end", "0", "--lambda", "100", "--json")
        assert rc == 0
        assert out == ('{"count":46,"lambda":100,"n":359,"t_hi":6.25,'
                       '"mode_range":[-6,6],"converged":true}\n')

    def test_hypcheck(self, capsys, cusp_cfg):
        rc, out, err = run_main(capsys, "hypcheck", "--config", cusp_cfg)
        assert rc == 0
        assert out == ('{"ends":[{"index":0,"type":"cusp","h0":true,'
                       '"h1_or_h2":true,"witness":0.5}],"all_hold":true}\n')

    def test_morse_check(self, capsys):
        rc, out, err = run_main(capsys, "morse-check", "--beta", "2.5")
        assert rc == 0
        assert out == ('{"beta":2.5,"predicted":[2.5,5.5],'
                       '"computed":[2.499997371695857,5.499995511762967],'
                       '"max_abs_err":4.488237032695963e-06,'
                       '"converged":true}\n')
        rc, out, err = run_main(capsys, "morse-check", "--beta", "0.4")
        assert rc == 0
        assert out == ('{"beta":0.4,"predicted":[],"computed":[],'
                       '"max_abs_err":0.0,"converged":true}\n')

    def test_fit(self, capsys, cusp_cfg):
        rc, out, err = run_main(capsys, "fit", "--config", cusp_cfg,
                                "--lambdas", "100,200,400")
        assert rc == 0
        assert out == '{"slope":1.030700272332074,"alpha":0.39796214204464786}\n'

    def test_repeated_runs_identical(self, capsys, cusp_cfg):
        first = run_main(capsys, "weyl", "--config", cusp_cfg,
                         "--lambda", "77.5")
        second = run_main(capsys, "weyl", "--config", cusp_cfg,
                          "--lambda", "77.5")
        assert first == second


COMPARE_CSV = (
    "lambda,count,weyl,lower,upper,ratio,converged\r\n"
    "50,21,24.529779375321166,0.5421799386353702,83.31324407848444,"
    "0.8561022779164336,true\r\n"
    "100,46,49.529103212705444,1.425917848950351,164.80079733793022,"
    "0.9287468784252055,true\r\n"
)


class TestCompare:
    def test_csv_to_stdout(self, capsys, cusp_cfg):
        rc, out, err = run_main(capsys, "compare", "--config", cusp_cfg,
                                "--lambdas", "50,100")
        assert (rc, err) == (0, "")
        assert out == COMPARE_CSV
        assert_weyl_column(out)

    def test_lambda_geom_equivalent(self, capsys, cusp_cfg):
        rc, out, err = run_main(capsys, "compare", "--config", cusp_cfg,
                                "--lambda-geom", "50,2,2")
        assert rc == 0
        assert out == COMPARE_CSV
        assert_weyl_column(out)

    def test_out_file_bytes(self, capsys, tmp_path, cusp_cfg):
        dest = tmp_path / "sweep.csv"
        rc, out, err = run_main(capsys, "compare", "--config", cusp_cfg,
                                "--lambdas", "50,100", "--out", str(dest))
        assert (rc, out, err) == (0, "", "")
        assert dest.read_bytes() == COMPARE_CSV.encode()
        assert_weyl_column(dest.read_text())


    def test_out_unwritable(self, capsys, tmp_path, cusp_cfg):
        dest = tmp_path / "missing" / "sweep.csv"
        rc, out, err = run_main(capsys, "compare", "--config", cusp_cfg,
                                "--lambdas", "50", "--out", str(dest))
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: --out: cannot write {dest}: ")
        assert err.count("\n") == 1

    def test_out_refused_before_the_sweep(self, capsys, tmp_path, cusp_cfg,
                                          monkeypatch):
        # a missing directory or a directory path is refused before any
        # count, and nothing is created there
        def no_count(*args):
            raise AssertionError("count_end ran")
        monkeypatch.setattr(cli, "count_end", no_count)
        for dest, why in ((tmp_path / "missing" / "t.csv",
                           f"no directory {tmp_path / 'missing'}"),
                          (tmp_path, "it is a directory")):
            rc, out, err = run_main(capsys, "compare", "--config", cusp_cfg,
                                    "--lambdas", "50", "--out", str(dest))
            assert (rc, out) == (1, "")
            assert err == f"error: --out: cannot write {dest}: {why}\n"
        assert not (tmp_path / "missing").exists()

    def test_out_kept_when_the_sweep_fails(self, capsys, tmp_path, cusp_cfg,
                                           monkeypatch):
        dest = tmp_path / "sweep.csv"
        dest.write_bytes(b"old bytes\r\n")

        def failing_count(*args):
            raise ValueError("sweep failed")
        monkeypatch.setattr(cli, "count_end", failing_count)
        rc, out, err = run_main(capsys, "compare", "--config", cusp_cfg,
                                "--lambdas", "50", "--out", str(dest))
        assert (rc, out, err) == (1, "", "error: sweep failed\n")
        assert dest.read_bytes() == b"old bytes\r\n"


# the option strings of each subcommand besides -h, in help order; * marks
# a required one
FLAGS = {
    "nlandau": ["--mu*", "--b*"],
    "sset": ["--beta*"],
    "count-end": ["--config*", "--end*", "--lambda*", "--json"],
    "weyl": ["--config*", "--lambda*"],
    "compare": ["--config*", "--lambdas", "--lambda-geom", "--out"],
    "fit": ["--config*", "--lambdas", "--lambda-geom"],
    "essential": ["--config*"],
    "morse-check": ["--beta*", "--grid", "--window"],
    "holonomy": ["--config*", "--end*"],
    "hypcheck": ["--config*", "--span", "--grid"],
}


class TestFlagTable:
    @staticmethod
    def _subcommands():
        parser = build_parser()
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def test_flags_of_each_subcommand(self):
        subcommands = self._subcommands()
        assert list(subcommands) == list(FLAGS)
        for name, p in subcommands.items():
            flags = [opt + "*" * a.required for a in p._actions
                     for opt in a.option_strings if opt not in ("-h", "--help")]
            assert flags == FLAGS[name], name
            groups = [([a.option_strings for a in g._group_actions], g.required)
                      for g in p._mutually_exclusive_groups]
            pair = [([["--lambdas"], ["--lambda-geom"]], True)]
            assert groups == (pair if name in ("compare", "fit") else []), name

    @pytest.mark.parametrize("name", FLAGS)
    def test_help_exits_zero(self, capsys, name):
        with pytest.raises(SystemExit) as info:
            run_main(capsys, name, "--help")
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: hypmag {name} ")
        if name in ("count-end", "holonomy"):
            assert "index into the config's ends list" in out


class TestEmptyEnd:
    def test_count_end_every_mode_empty(self, capsys, tmp_path):
        # b~ >= 50 on the whole cusp: the mode window is empty at lambda 10
        steep = cusp_linear_end(field={"kind": "y-poly", "coeffs": [50.0, 1.0]})
        path = write_config(tmp_path / "steep.json", [steep])
        rc, out, err = run_main(capsys, "count-end", "--config", path,
                                "--end", "0", "--lambda", "10")
        assert (rc, out, err) == (0, "0\n", "")


class TestExitCodes:
    def test_nonconverged_is_two_with_output(self, capsys):
        # the window clips the well, so the doubled-window check must flag
        # the run; results are still printed
        rc, out, err = run_main(capsys, "morse-check", "--beta", "2.5",
                                "--window=-3,0.5")
        assert rc == 2
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["predicted"] == [2.5, 5.5]

    def test_config_failure_is_one(self, capsys, tmp_path):
        rc, out, err = run_main(capsys, "essential", "--config",
                                str(tmp_path / "missing.json"))
        assert rc == 1
        assert out == ""
        assert "--config" in err


class TestErrorPaths:
    def test_missing_required_flag_names_it(self, capsys):
        rc, out, err = run_main(capsys, "nlandau", "--mu", "5")
        assert rc == 1
        assert "--b" in err

    def test_negative_intensity(self, capsys):
        rc, out, err = run_main(capsys, "nlandau", "--mu", "5", "--b", "-1")
        assert rc == 1
        assert "--b" in err

    def test_constant_field_count(self, capsys, const_cfg):
        rc, out, err = run_main(capsys, "count-end", "--config", const_cfg,
                                "--end", "0", "--lambda", "10")
        assert rc == 1
        assert "constant field" in err

    def test_holonomy_on_funnel(self, capsys, funnels_cfg):
        rc, out, err = run_main(capsys, "holonomy", "--config", funnels_cfg,
                                "--end", "0")
        assert rc == 1
        assert "--end" in err and "funnel" in err

    def test_end_index_out_of_range(self, capsys, cusp_cfg):
        rc, out, err = run_main(capsys, "count-end", "--config", cusp_cfg,
                                "--end", "5", "--lambda", "10")
        assert rc == 1
        assert "--end" in err and "out of range" in err

    def test_essential_nonconstant_field(self, capsys, cusp_cfg):
        rc, out, err = run_main(capsys, "essential", "--config", cusp_cfg)
        assert rc == 1
        assert "constant" in err

    def test_field_kind_mismatch(self, capsys, tmp_path):
        path = write_config(tmp_path / "bad.json", [
            {"type": "funnel", "tau": 1.0, "t0": 0.0, "xi": 0.0,
             "field": {"kind": "y-poly", "coeffs": [1.0]}}])
        rc, out, err = run_main(capsys, "essential", "--config", path)
        assert rc == 1
        assert "config.ends[0].field.kind" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, out, err = run_main(capsys, "essential", "--config", str(path))
        assert rc == 1
        assert "not valid JSON" in err

    def test_schema_version(self, capsys, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"schema_version": 2,
                                    "ends": [cusp_linear_end()]}))
        rc, out, err = run_main(capsys, "essential", "--config", str(path))
        assert rc == 1
        assert "schema_version" in err

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "ends": [cusp_linear_end()],
                                    "color": "blue"}))
        rc, out, err = run_main(capsys, "essential", "--config", str(path))
        assert rc == 1
        assert "config.color" in err

    def test_tiny_intensity(self, capsys):
        # (mu - b) / (2b) overflows: mu/2, not an OverflowError traceback
        rc, out, err = run_main(capsys, "nlandau", "--mu", "5", "--b", "1e-320")
        assert (rc, out, err) == (0, "2.5\n", "")

    def test_numerics_validation(self, capsys, tmp_path):
        path = write_config(tmp_path / "num.json", [cusp_linear_end()],
                            delta=0.5)
        rc, out, err = run_main(capsys, "essential", "--config", path)
        assert rc == 1
        assert "config.numerics.delta" in err
        for key, bad in (("quad_tol", 0.0), ("bracket_C", -1.0)):
            path = write_config(tmp_path / f"{key}.json", [cusp_linear_end()],
                                **{key: bad})
            rc, out, err = run_main(capsys, "essential", "--config", path)
            assert rc == 1
            assert f"config.numerics.{key}:" in err
        # the first grid follows from lambda; a caller-chosen one is gone
        path = write_config(tmp_path / "num2.json", [cusp_linear_end()],
                            grid_n=4)
        rc, out, err = run_main(capsys, "essential", "--config", path)
        assert rc == 1
        assert "config.numerics.grid_n: unknown field" in err

    def test_t_max_must_be_finite(self, capsys, tmp_path):
        path = write_config(tmp_path / "inf.json", [cusp_linear_end()],
                            t_max=float("inf"))
        rc, out, err = run_main(capsys, "count-end", "--config", path,
                                "--end", "0", "--lambda", "50")
        assert (rc, out) == (1, "")
        assert "config.numerics.t_max:" in err

    def test_cusp_wall_past_overflow(self, capsys, tmp_path):
        # e^{2t} overflows on the cusp before the wall at t = 400: an
        # error, not a count of 0
        path = write_config(tmp_path / "far.json", [cusp_linear_end()],
                            t_max=400.0)
        rc, out, err = run_main(capsys, "count-end", "--config", path,
                                "--end", "0", "--lambda", "50")
        assert (rc, out) == (1, "")
        assert "not finite at t=" in err

    def test_nonfinite_thresholds(self, capsys, tmp_path):
        # a named error and exit 1, not an OverflowError traceback from
        # the grid size or the level count
        path = write_config(tmp_path / "wall.json", [cusp_linear_end()],
                            t_max=6.0)
        for bad in ("inf", "nan", "-inf"):
            for args, name in (
                    (("count-end", "--config", path, "--end", "0",
                      f"--lambda={bad}"), "lam"),
                    (("weyl", "--config", path, f"--lambda={bad}"), "lam"),
                    (("compare", "--config", path, f"--lambdas={bad}"), "lam"),
                    (("nlandau", f"--mu={bad}", "--b", "1"), "mu"),
                    (("nlandau", "--mu", "5", f"--b={bad}"), "b")):
                rc, out, err = run_main(capsys, *args)
                assert (rc, out) == (1, ""), args
                assert err.startswith(f"error: {name} must be finite"), args

    def test_model_invariants_mapped_to_path(self, capsys, tmp_path):
        path = write_config(tmp_path / "tau.json",
                            [funnel_cosh_end(tau=-1.0)])
        rc, out, err = run_main(capsys, "essential", "--config", path)
        assert rc == 1
        assert "config.ends[0]" in err and "tau" in err

    def test_window_malformed(self, capsys):
        for bad in ("1", "a,b"):
            rc, out, err = run_main(capsys, "morse-check", "--beta", "2.5",
                                    "--window", bad)
            assert rc == 1
            assert "--window" in err
        # refused by MorseOptions: no NaN grid, no numpy warning
        for bad in ("nan,4", "-inf,4"):
            rc, out, err = run_main(capsys, "morse-check", "--beta", "2.3",
                                    f"--window={bad}")
            assert rc == 1
            assert err.startswith("error: --window") and "finite" in err, bad

    def test_grid(self, capsys):
        rc, out, err = run_main(capsys, "morse-check", "--beta", "2.5",
                                "--grid", "3")
        assert (rc, out) == (1, "")
        assert err.startswith("error: --window/--grid: need at least 16")
        rc, out, err = run_main(capsys, "morse-check", "--beta", "2.5",
                                "--grid", str(2 ** 20 + 1))
        assert (rc, out) == (1, "")
        assert err == ("error: --window/--grid: need at most 1048576 "
                       "interior points, got 1048577\n")
        rc, out, err = run_main(capsys, "morse-check", "--beta", "2.5",
                                "--grid", "2000")
        assert (rc, err) == (0, "")
        assert json.loads(out)["converged"] is True

    def test_hypcheck_span_and_grid(self, capsys, cusp_cfg):
        # refused before numpy sees them: no warning, the flag named
        for flag, bad in (("--span", "inf"), ("--span", "-inf"),
                          ("--span", "nan"), ("--span", "0"), ("--span", "-1"),
                          ("--grid", "-5"), ("--grid", "0"),
                          ("--grid", str((1 << 20) + 1)), ("--grid", "100000000")):
            rc, out, err = run_main(capsys, "hypcheck", "--config", cusp_cfg,
                                    f"{flag}={bad}")
            assert (rc, out) == (1, "")
            assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1, bad
        rc, out, err = run_main(capsys, "hypcheck", "--config", cusp_cfg,
                                "--grid", "1")
        assert (rc, err) == (0, "")

    def test_hypcheck_cusp_below_zero(self, capsys, tmp_path):
        # b~ = 10 (y - 1/e) from t0 = -2 vanishes at t = -1, where
        # |y b~'| = 10/e exceeds max_C C e^{-C} = 1/e: no witness, and no
        # overflow of e^{-C t} at t < 0 reaches stderr
        cfg = write_config(tmp_path / "end.json", [cusp_linear_end(
            t0=-2.0, field={"kind": "y-poly",
                            "coeffs": [-3.6787944117144233, 10]})])
        rc, out, err = run_main(capsys, "hypcheck", "--config", cfg)
        assert (rc, err) == (0, "")
        assert out == ('{"ends":[{"index":0,"type":"cusp","h0":true,'
                       '"h1_or_h2":false,"witness":null}],"all_hold":false}\n')

    @pytest.mark.parametrize("end, span, first_bad", [
        # the first of the 512 grid points past the overflow of e^t, of
        # e^{2t} and of cosh^2 t
        (cusp_linear_end(), 800.0, 710.7632093933463),
        (cusp_linear_end(field={"kind": "y-poly", "coeffs": [0.0, 0.0, 1.0]}),
         360.0, 355.0684931506849),
        (funnel_cosh_end(field={"kind": "cosh-poly", "coeffs": [0.0, 0.0, 1.0]}),
         360.0, 355.7729941291585),
        (funnel_cosh_end(field={"kind": "cosh-poly", "coeffs": [0.0, 0.0, 1.0]}),
         800.0, 355.38160469667315),
    ])
    def test_hypcheck_past_the_field_overflow(self, capsys, tmp_path, end,
                                              span, first_bad):
        # refused with the first such t named, one line, no numpy warning;
        # a finite field on every grid point still prints valid JSON
        cfg = write_config(tmp_path / "end.json", [end])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_main(capsys, "hypcheck", "--config", cfg,
                                    "--span", str(span))
            assert (rc, out) == (1, "")
            assert err == ("error: field profile or its derivative is not "
                           f"finite at t={first_bad!r}\n")
            rc, out, err = run_main(capsys, "hypcheck", "--config", cfg,
                                    "--span", "350")
        assert (rc, err) == (0, "")
        assert out.count("\n") == 1 and json.loads(out)["all_hold"] is True

    def test_sset_beta_past_the_level_cap(self):
        # about 1e9 levels: refused at once, not built
        proc = subprocess.run([sys.executable, "-m", "hypmag.cli", "sset",
                               "--beta", "1e9"], capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"error: beta=1000000000.0 has more than")
        assert b"Traceback" not in proc.stderr

    def test_lambdas_malformed(self, capsys, cusp_cfg):
        for bad in ("abc", ","):
            rc, out, err = run_main(capsys, "compare", "--config", cusp_cfg,
                                    "--lambdas", bad)
            assert rc == 1
            assert "--lambdas" in err

    def test_lambda_geom_malformed(self, capsys, cusp_cfg):
        # the last three: a NaN start, and 10^399 past the float range, from
        # a start of 1 and of 1e-300
        for bad in ("50,2", "50,-1,3", "0,2,3", "50,2,0", "a,2,3", "nan,2,3",
                    "1,10,400", "1e-300,10,700"):
            rc, out, err = run_main(capsys, "fit", "--config", cusp_cfg,
                                    f"--lambda-geom={bad}")
            assert (rc, out) == (1, "")
            assert err.startswith("error: --lambda-geom"), bad

    @pytest.mark.parametrize("geom, start, factor, top", [
        ("1e-300,10,400", 1e-300, 10.0, 1e99),
        ("1e300,0.1,400", 1e300, 0.1, 1e-99)])
    def test_lambda_geom_past_the_power_range(self, geom, start, factor, top):
        # factor^i leaves the normal floats from i = 308 or 309 on, yet every
        # value is a float; where factor^i is one, a value is start * factor^i
        vals = _parse_lambdas(argparse.Namespace(lambdas=None, lambda_geom=geom))
        assert len(vals) == 400
        assert vals[:308] == [start * factor ** i for i in range(308)]
        for i, x in enumerate(vals):
            assert x == pytest.approx(
                10.0 ** (math.log10(start) + math.log10(factor) * i),
                rel=1e-12, abs=0.0)
        assert vals[-1] == pytest.approx(top, rel=1e-13, abs=0.0)

    def test_unknown_subcommand(self, capsys):
        rc, out, err = run_main(capsys, "frobnicate")
        assert rc == 1
        assert err.startswith("error:")


def _end(**changes):
    """cusp_linear_end with keys replaced, or dropped where the value is None."""
    end = cusp_linear_end(**changes)
    return {k: v for k, v in end.items() if v is not None}


def _field(**changes):
    return _end(field={**cusp_linear_end()["field"], **changes})


# (config, the field path and reason the error names)
REFUSED_CONFIGS = {
    "missing-field": ({"ends": [_end(t0=None)]},
                      "config.ends[0].t0: missing required field"),
    "string-number": ({"ends": [_end(L="1")]},
                      "config.ends[0].L: expected a number, got '1'"),
    "bool-number": ({"ends": [_end(xi=True)]},
                    "config.ends[0].xi: expected a number, got True"),
    "float-version": ({"schema_version": 1.0},
                      "config.schema_version: expected an integer, got 1.0"),
    "end-not-object": ({"ends": [[0.0, 1.0]]},
                       "config.ends[0]: each end must be an object"),
    "numerics-not-object": ({"numerics": [1e-6]},
                            "config.numerics: must be an object"),
    "unknown-type": ({"ends": [_end(type="horn")]},
                     "config.ends[0].type: must be 'funnel' or 'cusp'"),
    "empty-coeffs": ({"ends": [_field(coeffs=[])]},
                     "config.ends[0].field.coeffs: must be nonempty"),
    "string-coeff": ({"ends": [_field(coeffs=[0.0, "1"])]},
                     "config.ends[0].field.coeffs[1]: expected a number"),
    "no-ends": ({"ends": []}, "config.ends: need at least one end"),
    "ends-not-list": ({"ends": cusp_linear_end()},
                      "config.ends: unexpected type dict"),
}


class TestConfigRefusals:
    @pytest.mark.parametrize("name", sorted(REFUSED_CONFIGS))
    def test_config_field(self, capsys, tmp_path, name):
        changes, message = REFUSED_CONFIGS[name]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1,
                                    "ends": [cusp_linear_end()], **changes}))
        rc, out, err = run_main(capsys, "weyl", "--config", str(path),
                                "--lambda", "10")
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: {message}")


class TestConfigRoundTrip:
    def test_defaults_round_trip(self, tmp_path):
        path = write_config(tmp_path / "min.json", [cusp_linear_end()])
        cfg = load_config(path)
        assert cfg.t_max is None
        assert cfg.weyl_options.delta == 0.35

    def test_parse_rejects_non_object(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])


class TestReadmeExamples:
    def test_every_readme_command_runs(self, capsys, tmp_path, monkeypatch):
        # the CLI section's JSON blocks are cusp.json and surface.json, in
        # that order; every hypmag line of its sh block must exit 0
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```(\w+)\n(.*?)```", section, re.S)
        configs = [body for lang, body in blocks if lang == "json"]
        assert len(configs) == 2
        for name, body in zip(("cusp.json", "surface.json"), configs):
            (tmp_path / name).write_text(body)
        lines = [line for lang, body in blocks if lang == "sh"
                 for line in body.splitlines() if line.startswith("hypmag ")]
        assert len(lines) >= 10
        monkeypatch.chdir(tmp_path)
        for line in lines:
            rc, out, err = run_main(capsys, *shlex.split(line)[1:])
            assert (rc, err) == (0, ""), line
        assert (tmp_path / "table.csv").read_bytes().startswith(b"lambda,count,")
