"""Smoke test: every narrative demo exits 0, and the demos that print
library tables or reports match their committed output byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _assert_pinned(name):
    """The demo prints exactly the committed text of tests/<name>.out."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (ROOT / "tests" / f"{name}.out").read_bytes()


def test_lattices_borelweil_output_is_pinned():
    _assert_pinned("lattices_borelweil")


@pytest.mark.parametrize(
    "name",
    [
        "weight_module_tables",
        "contraction_specialize",
        "hecke_projections",
        "verify_report",
    ],
)
def test_demo_output_is_pinned(name):
    _assert_pinned(name)
