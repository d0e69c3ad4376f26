"""Golden replay: recorded CLI documents must come back byte for byte.

``perfbench/golden.json`` records ``[exit code, stdout sha256]`` for every
benchmark document.  This replays every recorded document of all four
workloads through ``hclat.cli.main``: every ``bw`` document, every
``lattice`` document (the whole dyadic workload), and the ``modules``
workload in two groups, its ``classify`` documents and the rest (module
and contract tables, error documents and verify reports).  It runs from
the repository root, since the classify documents name their tables by
relative path.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from hclat.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _run_doc():
    spec = importlib.util.spec_from_file_location(
        "passrun", ROOT / "perfbench" / "passrun.py"
    )
    passrun = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(passrun)
    return passrun.run_doc


def _recorded(workload, keep):
    record = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    return {text: pair for text, pair in record[workload].items() if keep(text.split())}


GROUPS = {
    "bw_build": lambda: _recorded("bw_build", lambda doc: True),
    "bw_query": lambda: _recorded("bw_query", lambda doc: True),
    "classify": lambda: _recorded("modules", lambda doc: doc[0] == "classify"),
    "lattice": lambda: _recorded("dyadic", lambda doc: doc[0] == "lattice"),
    "modules": lambda: _recorded("modules", lambda doc: doc[0] != "classify"),
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_documents_match_golden_record(group, monkeypatch):
    monkeypatch.chdir(ROOT)
    run_doc = _run_doc()
    recorded = GROUPS[group]()
    assert recorded
    mismatches = []
    for text, expected in sorted(recorded.items()):
        code, digest, _ = run_doc(main, tuple(text.split()))
        if [code, digest] != expected:
            mismatches.append((text, expected[0], code))
    assert mismatches == []
