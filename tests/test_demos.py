"""Smoke test: every narrative demo except the verify report exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(
    p.name for p in (ROOT / "demos").glob("*.py") if p.name != "verify_report.py"
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_lattices_borelweil_output_is_pinned():
    """The Borel-Weil demo prints exactly the committed expected text."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "lattices_borelweil.py")],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (ROOT / "tests" / "lattices_borelweil.out").read_bytes()
