"""Mutation survey: which one-token faults in named functions ``hclat verify``
lets through.

Run from anywhere, with a checkout of the repository::

    python3 tests/mutation_survey.py --root DIR --label change \
        --out MUTATION_oracle.json \
        dyadic._oracle_table dyadic._chain_maxima dyadic._primary_multiplier

Each positional argument names a function of ``src/hclat`` as
``module.function`` (``module.Class.method`` for a method).  Every site of
these rewrites in the function's body is one mutant:

- ``+`` <-> ``-`` and ``*`` <-> ``//``, in binary and augmented operators;
- ``<`` <-> ``<=``, ``>`` <-> ``>=`` and ``==`` <-> ``!=``, in comparisons;
- an int literal k -> k + 1.

A mutant is the function's source with that one token replaced, in place,
so every other line keeps its text and its number.  It is written into a
copy of the checkout's ``src`` and run in a fresh interpreter, which
prints the names of the checks that ``verify.run_suite("all")`` fails.
The unmutated copy must fail none.  Every child runs with
``PYTHONDONTWRITEBYTECODE=1`` from a copy without ``__pycache__``, so no
stale bytecode of an earlier mutant of the same size is loaded.  At most
``--jobs`` children (1 or 2) run at a time, each in its own copy, and a
child still running after ``--timeout`` seconds is killed.

For each site the record gives the function, the line, the rewrite and
the result: the first check the mutant fails, in suite order,
``survived``, ``timeout``, or ``error`` (the child raised before it
reported).  Per function it counts the results.  ``--out`` is a JSON file
of records by ``--label``; other labels already in it are kept.
Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

SWAPS = {
    ast.Add: (b"+", b"-"),
    ast.Sub: (b"-", b"+"),
    ast.Mult: (b"*", b"//"),
    ast.FloorDiv: (b"//", b"*"),
    ast.Lt: (b"<", b"<="),
    ast.LtE: (b"<=", b"<"),
    ast.Gt: (b">", b">="),
    ast.GtE: (b">=", b">"),
    ast.Eq: (b"==", b"!="),
    ast.NotEq: (b"!=", b"=="),
}

CHILD = """\
import json
from hclat import verify
report = verify.run_suite("all")
print(json.dumps([c["name"] for c in report["checks"] if c["status"] == "fail"]))
"""


def _offsets(source: bytes) -> list:
    """The byte offset of the start of each line (1-based: index 0 unused)."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _operator_span(source, starts, before, after, token):
    """(start, end) of the one operator token between the end of node
    before and the start of node after, or None when the gap holds
    anything but that token, brackets, whitespace and line breaks."""
    lo = starts[before.end_lineno] + before.end_col_offset
    hi = starts[after.lineno] + after.col_offset
    gap = source[lo:hi]
    if gap.translate(None, b" \t\r\n\\()") != token:
        return None
    at = lo + gap.index(token)
    return at, at + len(token)


def _sites(source: bytes, func) -> list:
    """Every mutation site of func: (line, rewrite, start, end, new bytes)."""
    starts = _offsets(source)
    out = []
    for node in ast.walk(func):
        pairs = []
        if isinstance(node, ast.BinOp):
            pairs = [(node.op, node.left, node.right)]
        elif isinstance(node, ast.AugAssign):
            pairs = [(node.op, node.target, node.value)]
        elif isinstance(node, ast.Compare):
            lefts = [node.left, *node.comparators]
            pairs = list(zip(node.ops, lefts, node.comparators))
        for op, before, after in pairs:
            swap = SWAPS.get(type(op))
            if swap is None:
                continue
            old, new = swap
            if isinstance(node, ast.AugAssign):
                old, new = old + b"=", new + b"="
            span = _operator_span(source, starts, before, after, old)
            if span is not None:
                rewrite = f"{old.decode()} -> {new.decode()}"
                out.append((before.end_lineno, rewrite, *span, new))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            lo = starts[node.lineno] + node.col_offset
            hi = starts[node.end_lineno] + node.end_col_offset
            if source[lo:hi] == str(node.value).encode():  # a plain decimal literal
                new = str(node.value + 1)
                out.append((node.lineno, f"{node.value} -> {new}", lo, hi, new.encode()))
    return sorted(out, key=lambda site: site[2])


def _function(tree, dotted: str):
    """The FunctionDef named by Class.method or function in the module tree."""
    body = tree.body
    *owners, name = dotted.split(".")
    for owner in owners:
        body = next(
            n.body for n in body if isinstance(n, ast.ClassDef) and n.name == owner
        )
    for node in body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no function {dotted}")


def _run(copy: str, timeout: float):
    """The checks verify fails in the copy, or "timeout", or "error"."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.path.join(copy, "src")}
    env.pop("PYTHONPYCACHEPREFIX", None)
    try:
        done = subprocess.run(
            [sys.executable, "-c", CHILD], cwd=copy, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode != 0:
        return "error"
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("functions", nargs="+", help="module.function of src/hclat")
    parser.add_argument("--root", default=".", help="checkout whose src is mutated")
    parser.add_argument("--label", required=True, help="key of the record in --out")
    parser.add_argument("--out", required=True, help="JSON file of records by label")
    parser.add_argument("--jobs", type=int, default=2, choices=(1, 2))
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per mutant")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    mutants = []  # (module path, function, source, line, rewrite, start, end, new)
    for dotted in args.functions:
        module, qualname = dotted.split(".", 1)
        path = os.path.join("src", "hclat", module + ".py")
        with open(os.path.join(root, path), "rb") as fh:
            source = fh.read()
        func = _function(ast.parse(source), qualname)
        for site in _sites(source, func):
            mutants.append((path, dotted, source, *site))

    workdir = tempfile.mkdtemp(prefix="mutation_survey_")
    copies = queue.Queue()
    try:
        for k in range(args.jobs):
            copy = os.path.join(workdir, str(k))
            shutil.copytree(os.path.join(root, "src"), os.path.join(copy, "src"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            copies.put(copy)
        clean = _run(copies.queue[0], args.timeout)
        if clean != []:
            raise SystemExit(f"the unmutated copy fails verify: {clean}")

        def survey(mutant):
            path, dotted, source, line, rewrite, start, end, new = mutant
            copy = copies.get()
            target = os.path.join(copy, path)
            try:
                with open(target, "wb") as fh:
                    fh.write(source[:start] + new + source[end:])
                failed = _run(copy, args.timeout)
            finally:
                with open(target, "wb") as fh:
                    fh.write(source)
                copies.put(copy)
            result = failed if isinstance(failed, str) else (failed[0] if failed else "survived")
            print(f"{dotted}:{line} {rewrite}: {result}", file=sys.stderr)
            return {"function": dotted, "line": line, "rewrite": rewrite, "result": result}

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            sites = list(pool.map(survey, mutants))
        seconds = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {dotted: {"sites": 0, "survived": 0} for dotted in args.functions}
    for site in sites:
        counts = summary[site["function"]]
        counts["sites"] += 1
        kind = site["result"] if site["result"] in ("survived", "timeout", "error") else "killed"
        counts[kind] = counts.get(kind, 0) + 1
    record = {
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "functions": args.functions,
        "jobs": args.jobs,
        "timeout_s": args.timeout,
        "seconds": round(seconds, 1),
        "summary": summary,
        "sites": sites,
    }
    records = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            records = json.load(fh)
    records[args.label] = record
    with open(args.out, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
