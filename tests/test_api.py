"""The public names of the package: each resolves, and removed ones stay gone."""

import dataclasses
import subprocess
import sys

import hypmag

REMOVED = ("count_stable", "CountOptions", "ModePotential",
           "funnel_mode_potential", "cusp_mode_potential", "mode_range",
           "EndOptions")
# the fields of the Sturm operator: its matrix and nothing else
OPERATOR_FIELDS = ("diag", "off")


def test_every_exported_name_resolves():
    missing = [name for name in hypmag.__all__ if not hasattr(hypmag, name)]
    assert missing == []


def test_star_import():
    code = "from hypmag import *; import hypmag; print(len(hypmag.__all__))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{len(hypmag.__all__)}\n".encode()


def test_all_is_sorted():
    assert hypmag.__all__ == sorted(hypmag.__all__)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in hypmag.__all__
        assert not hasattr(hypmag, name), name


def test_operator_is_its_matrix():
    fields = dataclasses.fields(hypmag.TridiagonalOperator)
    assert tuple(f.name for f in fields) == OPERATOR_FIELDS
