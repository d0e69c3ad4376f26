"""A/B timing of single ``hclat verify`` checks between two checkouts.

Run from anywhere, with two checkouts of the repository (for example two
``git archive`` exports, each in its own directory)::

    python3 tests/ab_verify_checks.py --parent DIR --change DIR \
        --suites modules,contraction --rounds 5 --out FILE

    python3 tests/ab_verify_checks.py --parent DIR --change DIR \
        --suites borelweil --setup "L = hclat.borelweil.maximal_lattice(128)" \
        --call "max128=hclat.borelweil.maximal_lattice(128)" \
        --call "cert128=hclat.borelweil.maximality_certificate(L, (2, 3, 5))" \
        --workloads bw_query:10,modules:3 --seconds 20 --out FILE

Each round starts one fresh interpreter per side, alternating which side
goes first from round to round.  An interpreter imports ``hclat.verify``
from its checkout's ``src`` and times every check of the named suites
``--repeats`` times, in suite order, through ``verify._outcome``; it also
reports each check's status and detail, which must agree between the
sides.  For each check the minimum over every run of every round is kept;
a check that only one side has reads null on the other.  A suite's total
is the sum of its checks' minima.  Each ``--call
NAME=EXPR`` is timed the same way, in the same interpreters, after the
``--setup`` statement has run once; both see the package as ``hclat``,
with every layer imported, and a call's outcome is a digest of its value
(of ``to_json()`` where the value has one).  With ``--workload-pairs N``
the tool also runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` N times per side for each workload W of ``--workloads``
(default modules; ``W:K`` runs K pairs of W instead), alternating which
side goes first, with seed ``--seed`` + k in pair k, and keeps each run's
result line and, per metric, each side's median and quartiles.  With
``--imports K`` it also times start-up in K rounds of fresh interpreters
per side, alternating which side goes first: the wall
time of ``python -c pass`` and of ``import hclat.cli``, and one
``perfbench/passrun.py --workload modules`` pass (seed = round), whose
first document of each subcommand pays the layers that subcommand imports
first; per subcommand it keeps the median of the per-round change minus
parent latency of that first document.  The JSON written to ``--out``
holds the environment record, the per-check minima and change/parent
ratios, the suite totals, the start-up record and the workload runs.
Every child starts with ``PYTHONDONTWRITEBYTECODE=1`` and no
``PYTHONPYCACHEPREFIX``, after every ``__pycache__`` directory of its
checkout has been removed: it compiles the checkout's modules from
source, as a fresh checkout under ``perfbench/run.py`` does, and loads
the standard library from its installed bytecode, so its start-up and
memory figures are those of ``run.py``.  Standard library only; pytest
does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

CHILD = r"""
import hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
import hclat
from hclat import verify

suites, repeats = sys.argv[2].split(","), int(sys.argv[3])
setup, calls = sys.argv[4], json.loads(sys.argv[5])
out = {}
for suite in suites:
    for check in verify.CHECKS[suite]:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            outcome = verify._outcome(check)
            times.append(time.perf_counter() - start)
        out[f"{suite}.{check.__name__.lstrip('_')}"] = {"s": times, "outcome": list(outcome)}
space = {"hclat": hclat}
exec(setup, space)
for name, expr in calls.items():
    code, times = compile(expr, name, "eval"), []
    for _ in range(repeats):
        start = time.perf_counter()
        value = eval(code, space)
        times.append(time.perf_counter() - start)
    value = value.to_json() if hasattr(value, "to_json") else value
    text = json.dumps(value, sort_keys=True, default=str).encode()
    out[f"call.{name}"] = {"s": times, "outcome": ["pass", hashlib.sha256(text).hexdigest()[:16]]}
print(json.dumps(out))
"""


def _env() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPYCACHEPREFIX": "unset; each checkout's __pycache__ removed before each child",
    }


def _run(cmd: list, root: str) -> subprocess.CompletedProcess:
    """cmd run in root after removing the checkout's bytecode caches,
    writing none: the checkout compiles from source, the standard library
    loads warm."""
    for path, dirs, _ in os.walk(root):
        dirs[:] = [d for d in dirs if d != ".git"]
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(path, "__pycache__"))
            dirs.remove("__pycache__")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, env=env)


def _child(root: str, suites: str, repeats: int, setup: str, calls: dict) -> dict:
    src = os.path.join(os.path.abspath(root), "src")
    cmd = [sys.executable, "-c", CHILD, src, suites, str(repeats), setup, json.dumps(calls)]
    done = _run(cmd, root)
    done.check_returncode()
    return json.loads(done.stdout)


def _wall(cmd: list, root: str) -> float:
    """Seconds from spawning cmd in root to its exit, which must be 0."""
    start = time.perf_counter()
    _run(cmd, root).check_returncode()
    return time.perf_counter() - start


def _first_docs(root: str, seed: int) -> dict:
    """Per subcommand, the seconds of its first document in one modules pass."""
    cmd = [sys.executable, "perfbench/passrun.py", "--workload", "modules", "--seed", str(seed)]
    done = _run(cmd, root)
    done.check_returncode()
    first = {}
    for doc_id, _, _, seconds in json.loads(done.stdout.strip().splitlines()[-1])["docs"]:
        first.setdefault(doc_id.split()[0], seconds)
    return first


def _startup(sides: dict, rounds: int) -> dict:
    """Interleaved start-up timings (see the module docstring)."""
    walls = {cmd: {side: [] for side in sides} for cmd in ("python -c pass", "import hclat.cli")}
    moved = {}
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        first = {}
        for side in order:
            src = os.path.join(os.path.abspath(sides[side]), "src")
            walls["python -c pass"][side].append(_wall([sys.executable, "-c", "pass"], sides[side]))
            walls["import hclat.cli"][side].append(_wall(
                [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import hclat.cli", src],
                sides[side],
            ))
            first[side] = _first_docs(sides[side], r)
        for command, seconds in first["change"].items():
            moved.setdefault(command, []).append(seconds - first["parent"][command])
        print(f"start-up round {r + 1}/{rounds} done", file=sys.stderr)
    out = {"rounds": rounds}
    for cmd, by_side in walls.items():
        out[cmd] = {side: _quartiles(values) for side, values in by_side.items()}
        out[cmd]["change_lower_rounds"] = sum(
            c < p for c, p in zip(by_side["change"], by_side["parent"])
        )
    out["first_doc_change_minus_parent_ms"] = {
        command: _quartiles([1e3 * d for d in deltas]) for command, deltas in sorted(moved.items())
    }
    return out


def _workload(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = _run(cmd, root)
    lines = done.stdout.strip().splitlines()
    return {"exit": done.returncode, "result": json.loads(lines[-1]) if lines else None}


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def _summary(runs: list) -> dict:
    """Per metric, each side's median and quartiles over its runs, and the
    number of pairs in which the change reads lower."""
    ok = [run for run in runs if run["result"] is not None]
    out = {
        "pairs": len({run["pair"] for run in runs}),
        "correct": all(run["result"]["correct"] for run in ok) and len(ok) == len(runs),
        "failed": sum(run["result"]["failed"] for run in ok),
    }
    by_pair = {}
    for run in ok:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    for metric in ok[0]["result"]["metrics"] if ok else ():
        values = {side: [pair[side][metric]["value"] for pair in by_pair.values() if side in pair]
                  for side in ("parent", "change")}
        wins = sum(
            pair["change"][metric]["value"] < pair["parent"][metric]["value"]
            for pair in by_pair.values() if len(pair) == 2
        )
        out[metric] = {side: _quartiles(v) for side, v in values.items() if v}
        out[metric]["change_lower_pairs"] = wins
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--suites", default="modules,contraction")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=1, help="runs per check per interpreter")
    ap.add_argument("--setup", default="", help="statement run once per interpreter")
    ap.add_argument("--call", action="append", default=[], metavar="NAME=EXPR",
                    help="an expression to time like a check (repeatable)")
    ap.add_argument("--workloads", default="modules", help="W or W:K, comma-separated")
    ap.add_argument("--workload-pairs", type=int, default=0, help="pairs per workload without :K")
    ap.add_argument("--seed", type=int, default=3, help="run.py seed of the first workload pair")
    ap.add_argument("--seconds", type=float, default=10, help="run.py --seconds per workload run")
    ap.add_argument("--imports", type=int, default=0, metavar="K", help="start-up rounds")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    calls = dict(spec.split("=", 1) for spec in args.call)
    pairs = {}
    for spec in args.workloads.split(","):
        workload, _, count = spec.partition(":")
        pairs[workload] = int(count) if count else args.workload_pairs
    best = {side: {} for side in sides}
    outcomes = {side: {} for side in sides}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            for name, rec in _child(sides[side], args.suites, args.repeats, args.setup, calls).items():
                best[side][name] = min(best[side].get(name, float("inf")), *rec["s"])
                outcomes[side][name] = rec["outcome"]
        print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)

    checks = {}
    totals = {suite: {"parent_ms": 0.0, "change_ms": 0.0} for suite in args.suites.split(",")}
    for name in {**best["parent"], **best["change"]}:
        p_ms, c_ms = (1e3 * best[side][name] if name in best[side] else None for side in sides)
        checks[name] = {
            "parent_ms": None if p_ms is None else round(p_ms, 3),
            "change_ms": None if c_ms is None else round(c_ms, 3),
            "ratio": None if None in (p_ms, c_ms) else round(c_ms / p_ms, 3),
            "outcome": outcomes["parent" if c_ms is None else "change"][name],
        }
        suite = name.split(".")[0]
        if suite == "call":
            continue
        totals[suite]["parent_ms"] += p_ms or 0.0
        totals[suite]["change_ms"] += c_ms or 0.0
    for total in totals.values():
        total["ratio"] = round(total["change_ms"] / total["parent_ms"], 3)
        total["parent_ms"] = round(total["parent_ms"], 3)
        total["change_ms"] = round(total["change_ms"], 3)

    startup = _startup(sides, args.imports) if args.imports else None

    runs, summary = [], {}
    for workload, count in pairs.items():
        for k in range(count):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                run = _workload(sides[side], workload, args.seed + k, args.seconds)
                runs.append({"workload": workload, "side": side, "pair": k, "first": order[0], **run})
                print(f"{workload} pair {k + 1}/{count}: {side} done", file=sys.stderr)
        if count:
            summary[workload] = _summary([run for run in runs if run["workload"] == workload])

    doc = {
        "environment": _env(),
        "method": (
            f"{args.rounds} rounds, one fresh interpreter per side per round, sides "
            f"alternating first; each interpreter runs every check {args.repeats} time(s) "
            "through verify._outcome; per check the minimum over all runs, per suite the "
            "sum of its checks' minima; workload pair k runs run.py with seed "
            f"{args.seed} + k and --seconds {args.seconds}"
        ),
        "suites": args.suites.split(","),
        "setup": args.setup,
        "calls": calls,
        "rounds": args.rounds,
        "repeats": args.repeats,
        "outcomes_identical": outcomes["parent"] == outcomes["change"],
        "checks": checks,
        "suite_totals": totals,
        "startup": startup,
        "workload_summary": summary,
        "workload_runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0 if doc["outcomes_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
