"""Every span name the benchmark tracer installs must name a real function.

``perfbench/tracing.py`` looks each traced name up with ``vars(...)`` on
the ``hclat`` module or class that owns it, so a rename or a removal in
``src/`` makes every traced benchmark pass raise ``KeyError``.  This loads
the tracer read-only and resolves each name the same way.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


TRACING = _tracing()


@pytest.mark.parametrize("name", TRACING.traced_names())
def test_traced_name_resolves(name):
    layer, _, fn_name = name.partition(".")
    owner = importlib.import_module(f"hclat.{layer}")
    cls_name, _, attr = fn_name.rpartition(".")
    if cls_name:
        owner = vars(owner)[cls_name]
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        raw = raw.__func__
    assert callable(raw)
