"""Every narrative demo exits 0, a demo with a committed
``tests/<name>.out`` prints exactly that text, and the demos that print
library tables or reports keep their committed output."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@functools.cache
def _run(demo):
    """Run a demo once per test session; its tests share the result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    result = _run(demo)
    assert result.returncode == 0, result.stderr.decode()
    pinned = ROOT / "tests" / f"{Path(demo).stem}.out"
    if pinned.exists():
        assert result.stdout == pinned.read_bytes()


def _assert_pinned(name):
    """The demo has a committed tests/<name>.out and prints exactly it."""
    pinned = ROOT / "tests" / f"{name}.out"
    assert pinned.exists(), f"{pinned.name} is not committed"
    result = _run(f"{name}.py")
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == pinned.read_bytes()


def test_lattices_borelweil_output_is_pinned():
    _assert_pinned("lattices_borelweil")


@pytest.mark.parametrize(
    "name",
    [
        "weight_module_tables",
        "contraction_specialize",
        "hecke_projections",
        "verify_report",
        "classify_forms",
        "dyadic_exponents",
    ],
)
def test_demo_output_is_pinned(name):
    _assert_pinned(name)


def test_pinned_outputs_have_demos():
    # a pinned output whose demo is renamed or gone would pin nothing;
    # cli_help.out is the CLI's help text, which test_cli pins
    pinned = sorted(p.stem for p in (ROOT / "tests").glob("*.out") if p.stem != "cli_help")
    assert pinned and {f"{name}.py" for name in pinned} <= set(DEMOS)
