"""hclat benchmark: CLI documents, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bw_build --seed 1 --seconds 20 --trace 0

Workloads: bw_build, bw_query, dyadic, modules (see RATIONALE.md).  Each
pass is a fresh interpreter (``passrun.py``) running one seeded draw of
the workload's documents in-process through ``hclat.cli.main``; every
document's exit code and stdout sha256 must match ``golden.json``.

``--trace 0`` runs passes until ``--seconds`` have gone by and at least
100 documents are timed, and reports the end-to-end metrics.
``--trace 1`` runs pass 0 untraced and then traced, checks that both give
the same documents, and reports the per-layer metrics.  ``--trace both``
does both and reports every metric.  Stdout starts with the environment
record and one line per metric; its last line is one JSON object:
correct, attempted, failed, metrics.  The exit code is 0 only if every
document matched its golden record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

PASSRUN = os.path.join(HERE, "passrun.py")
GOLDEN = os.path.join(HERE, "golden.json")
MIN_DOCS = 100  # so that at least ten latencies lie beyond p90
PASS_TIMEOUT_S = 170
DEADLINE_S = 150  # start no pass expected to end after this
SETUP_SAMPLES = 9

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("doc_p50_ms", "ms"),
    ("doc_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class PassError(RuntimeError):
    """A pass interpreter failed or printed no result."""


def spawn_pass(workload: str, seed: int, index: int, *extra: str) -> dict:
    cmd = [
        sys.executable, PASSRUN, "--workload", workload, "--seed", str(seed),
        "--pass-index", str(index), *extra,
    ]
    # a fixed hash seed keeps set iteration, and so the call counts, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, env=env
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def golden_failures(docs: list, golden: dict) -> int:
    return sum(1 for doc, code, digest, _ in docs if golden.get(doc) != [code, digest])


def untraced_run(workload: str, seed: int, seconds: float) -> list:
    """Passes until MIN_DOCS documents are timed and another pass would end
    more than half a pass after ``seconds``."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn_pass(workload, seed, len(passes)))
        elapsed = time.monotonic() - start
        last = passes[-1]["elapsed_s"]
        timed = sum(len(p["docs"]) for p in passes)
        if timed >= MIN_DOCS and elapsed + last / 2 >= seconds:
            return passes
        if elapsed + last > DEADLINE_S:
            return passes


def setup_samples(workload: str, seed: int, passes: list) -> list:
    """Set-up times of the passes, topped up to SETUP_SAMPLES with
    interpreters that stop once their first document is ready."""
    extra = [
        spawn_pass(workload, seed, len(passes) + i, "--setup-only")
        for i in range(SETUP_SAMPLES - len(passes))
    ]
    return [p["setup_s"] for p in passes + extra]


def end_to_end_metrics(passes: list, setups: list) -> dict:
    latencies = [doc[3] for p in passes for doc in p["docs"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "doc_p50_ms": 1000 * statistics.median(latencies),
        "doc_p90_ms": 1000 * deciles[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer_metrics(plain: dict, traced: dict) -> dict:
    funcs = traced["functions"]
    doc_time = funcs[tracing.ROOT]["total_s"]
    out = {}
    for name in tracing.traced_names():
        out[f"{name}.calls"] = funcs[name]["calls"]
        out[f"{name}.self_s"] = funcs[name]["self_s"]
        if name in tracing.ENTRY_POINTS:
            out[f"{name}.total_s"] = funcs[name]["total_s"]
    for layer in tracing.LAYERS:
        layer_self = sum(v["self_s"] for k, v in funcs.items() if k.startswith(layer + "."))
        out[f"{layer}.self_share"] = layer_self / doc_time if doc_time else 0.0
    grew = funcs[tracing.GREW]
    out[f"{tracing.GREW}.grew_frac"] = grew["returned_true"] / grew["calls"] if grew["calls"] else 0.0
    out[f"{tracing.REFUTED}.refuted"] = funcs[tracing.REFUTED]["raised"]
    out["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    return out


def traced_failures(plain: dict, traced: dict, golden: dict) -> int:
    """Traced documents that differ from their golden record or from the
    same document in the untraced pass."""
    if len(plain["docs"]) != len(traced["docs"]):
        return len(traced["docs"])
    return sum(
        1 for a, b in zip(plain["docs"], traced["docs"])
        if a[:3] != b[:3] or golden.get(b[0]) != b[1:3]
    )


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": workload,
        "seed": seed,
        "documents_per_pass": len(workloads.draw(workload, seed, 0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "hclat", "cli.py")):
        print("run.py: no src/hclat here; run from the root of an hclat checkout",
              file=sys.stderr)
        return 2
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)[args.workload]

    metrics, units = {}, dict(END_TO_END)
    units.update((name, unit) for name, unit, _ in tracing.per_layer_metrics())
    attempted = failed = 0
    passes = []
    try:
        if args.trace in ("0", "both"):
            passes = untraced_run(args.workload, args.seed, args.seconds)
            setups = setup_samples(args.workload, args.seed, passes)
            metrics.update(end_to_end_metrics(passes, setups))
            for p in passes:
                attempted += len(p["docs"])
                failed += golden_failures(p["docs"], golden)
        if args.trace in ("1", "both"):
            if passes:
                plain = passes[0]
            else:
                plain = spawn_pass(args.workload, args.seed, 0)
                attempted += len(plain["docs"])
                failed += golden_failures(plain["docs"], golden)
            traced = spawn_pass(args.workload, args.seed, 0, "--trace", "1")
            attempted += len(traced["docs"])
            failed += traced_failures(plain, traced, golden)
            metrics.update(per_layer_metrics(plain, traced))
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    env = environment(args.workload, args.seed)
    env["passes"] = len(passes)
    print("env " + json.dumps(env))
    print(f"documents attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted:.6f}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
