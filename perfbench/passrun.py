"""One benchmark pass: a fresh interpreter runs one workload's documents.

Run from the root of a checkout (``run.py`` does this)::

    python3 perfbench/passrun.py --workload dyadic --seed 1 --pass-index 0

Each document runs in-process through ``hclat.cli.main(argv)`` with stdout
and stderr captured; its exit code, stdout sha256 and latency are kept.
The last line of stdout is one JSON object: the monotonic time at which
the first document was ready, the pass wall time, peak RSS and the
per-document records.  With ``--trace 1`` it adds the per-function span
summary and writes every span to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

SPANS_DIR = ".perfbench_out"


def run_doc(main, doc: tuple) -> tuple:
    """(exit code, stdout sha256, seconds) of one CLI document."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(doc))
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
        seconds = time.perf_counter() - start
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop once the first document is ready (a set-up time sample)",
    )
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from hclat import cli
    import workloads

    docs = workloads.draw(args.workload, args.seed, args.pass_index)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    records, starts = [], []
    pass_start = time.perf_counter()
    for doc in docs:
        starts.append(time.perf_counter())
        code, digest, seconds = run_doc(cli.main, doc)
        records.append([workloads.doc_id(doc), code, digest, seconds])
    wall = time.perf_counter() - pass_start

    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "docs": records,
    }
    if tracer is not None:
        result["functions"] = tracer.summary()
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_spans(spans, [r[0] for r in records], starts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
