"""What ``import hclat.cli`` loads, and what ``lattice`` and ``bw`` add.

Start-up imports only ``scalars``, ``borelweil`` and ``dyadic``, the
layers of ``bw`` and ``lattice``; every other layer is imported by the
first handler that needs it.  No process imports ``dataclasses``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from hclat import cli, verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CHILD = r"""
import contextlib, io, json, sys

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "hclat")

from hclat import cli
out = {"startup": loaded(), "dataclasses": "dataclasses" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["lattice", "--variant", "q", "--mu", "-2", "--window", "-2:1", "--oracle"]),
        cli.main(["bw", "--lambda", "3", "--op", "certify"]),
        cli.main(["bw", "--lambda", "2", "--op", "counit", "--format", "table"]),
    ]
    out["lattice_bw"] = loaded()
    out["dataclasses_after"] = "dataclasses" in sys.modules
    codes.append(cli.main(["module", "--kind", "ind", "--lambda", "2", "--window", "0:3"]))
    out["module"] = loaded()
out["codes"] = codes
print(json.dumps(out))
"""

STARTUP = ["hclat", "hclat.borelweil", "hclat.cli", "hclat.dyadic", "hclat.scalars"]


def test_startup_loads_only_the_lattice_and_bw_layers():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, check=True
    )
    out = json.loads(done.stdout)
    assert out["codes"] == [0, 0, 0, 0]
    assert out["startup"] == STARTUP
    assert not out["dataclasses"]
    # lattice and bw documents load no further layer
    assert out["lattice_bw"] == STARTUP
    assert not out["dataclasses_after"]
    # a module table adds its two layers and nothing else
    assert out["module"] == sorted(STARTUP + ["hclat.weightmods", "hclat.zforms"])


def test_suite_choices_are_the_verify_suites():
    (suite,) = (a for a in cli._SUBPARSERS["verify"]._actions if a.dest == "suite")
    assert suite.choices == verify.SUITES + ("all",)


def test_no_source_file_imports_dataclasses():
    imports = []
    for path in sorted((SRC / "hclat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((path.name, node.module))
    assert imports and not [entry for entry in imports if entry[1].split(".")[0] == "dataclasses"]
