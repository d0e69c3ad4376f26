"""Regenerate the classify tables and the golden record of every document.

Run from the repository root against the commit whose outputs are the
reference::

    python3 perfbench/golden.py

It rewrites ``perfbench/tables/*.json`` (the inputs of the ``classify``
documents) and ``perfbench/golden.json``, which maps each workload to
``{document: [exit code, stdout sha256]}`` for every document in its
pool.  A benchmark pass may run only recorded documents.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from itertools import permutations

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from passrun import run_doc  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")


def _tables() -> list:
    """TABLE_COUNT classify inputs: short {n, m, q} forms, permuted and
    sign-flipped presentations, and two presentations that are not split
    forms (exit 1)."""
    from hclat import zforms

    shapes = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3, 4)]
    qs = (Fraction(1), Fraction(1, 2), Fraction(-3), Fraction(5, 4))
    orders = list(permutations(range(3)))
    tables = []
    for i in range(workloads.TABLE_COUNT - 2):
        n, m = shapes[i % len(shapes)]
        q = qs[i % len(qs)]
        if i % 3 == 0:
            tables.append({"n": n, "m": m, "q": str(q)})
            continue
        order = orders[i % len(orders)]
        # flip the sign of E or F (never H) in alternate slots
        signs = tuple(-1 if order[k] != 2 and (i + k) % 2 else 1 for k in range(3))
        g = zforms.make_zform(n, m, q)
        tables.append(zforms.presentation_to_json(*zforms.presentation(g, order, signs)))
    bad_weights = dict(tables[1], weights=[1, 1, 0])
    bad_bracket = json.loads(json.dumps(tables[2]))
    bad_bracket["brackets"][0][2] = ["1", "0", "0"]
    return tables + [bad_weights, bad_bracket]


def main() -> int:
    if not os.path.isfile(os.path.join("src", "hclat", "cli.py")):
        print("golden.py: run from the repository root", file=sys.stderr)
        return 2
    from hclat import cli

    os.makedirs(workloads.TABLE_DIR, exist_ok=True)
    for i, table in enumerate(_tables()):
        with open(workloads.table_path(i), "w", encoding="utf-8") as handle:
            json.dump(table, handle, indent=1)
            handle.write("\n")

    record = {}
    for workload in workloads.WORKLOADS:
        entries = {}
        for doc in workloads.pool(workload):
            code, digest, _ = run_doc(cli.main, doc)
            entries[workloads.doc_id(doc)] = [code, digest]
        record[workload] = entries
        codes = sorted({code for code, _ in entries.values()})
        print(f"{workload}: {len(entries)} documents, exit codes {codes}")
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
