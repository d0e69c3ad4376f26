"""A seeded argv fuzz of the command line: oversized or malformed input
fails fast.

About a thousand documents run in process through ``cli.main``, drawn from
every subcommand but ``verify`` and from edge values: 0, -1 and 10^30,
``1/0``, exponent notation, reversed windows and windows at the width
cap, malformed polynomials, and malformed or missing classify tables.  The
costliest documents the command line accepts, ``lattice --oracle`` windows
at the input limits, are listed explicitly.  Every document must exit 0, 1 or 2,
raise nothing and print no traceback, and take at most CEILING_S seconds;
a document over the ceiling runs once more, and fails only if both runs
are over it.
"""

import contextlib
import io
import json
import random
import time
from pathlib import Path

from hclat import cli

CEILING_S = 0.5
DOCUMENTS = 1000
TABLES = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "tables").glob("*.json"))

BIG = str(10**30)
WIDTH = cli.WINDOW_MAX_WIDTH
EDGE_INTS = ("0", "-1", BIG)
# exponent notation, which Fraction would expand to 10**k digits before any check
EXPONENTS = ("1e10000000", "1E100000000", "-3e-2", "2.5e1")
EDGE_FRACTIONS = ("0", "-1", BIG, "1/0", "1/2", "-2/3", "x") + EXPONENTS
POLYNOMIALS = (
    "0", "z", "-2z", "2z^2 - z", "z^-1", "3*z^2 + 1/2*z", BIG + "z",
    "--z", "1 2", "z^", "1/0z", "z^1/2", "y", "",
)
MALFORMED_TABLES = (
    "{",
    "[1, 2, 3]",
    '{"n": 1, "m": 1}',
    '{"n": null, "m": 1, "q": "1"}',
    '{"n": 2.5, "m": 1, "q": "1"}',
    '{"n": 0, "m": 1, "q": "1"}',
    '{"n": 1, "m": -1, "q": "1"}',
    '{"n": 1, "m": 1, "q": "1/0"}',
    '{"n": 1, "m": 1, "q": "0"}',
    '{"n": 1, "m": 1, "q": "1e10000000"}',
    '{"weights": [0, 1, -1], "brackets": [], "realization": []}',
    '{"weights": [], "brackets": [[0, 1, [null, "0", "0"]]], "realization": [[["1"]]]}',
)

# the lattice --oracle windows at the input limits: 2001 indices, up to
# 4095 steps from the support boundary, or full-depth qpp chains
LIMIT_DOCUMENTS = (
    "lattice --variant q --mu 0 --window -4095:-2095 --oracle",
    "lattice --variant qp --mu 0 --window 2095:4095 --oracle",
    "lattice --variant qpp --n 1 --m 2 --mu 123456789012345678901234567890"
    " --window 0:2000 --oracle",
    f"lattice --variant qpp --n 2 --m 4 --eps 1/2 --mu {10**42 + 2}"
    " --window -1000:1000 --oracle",
    "lattice --variant qpp --n 1 --m 2 --mu 3 --window -1000:1000 --oracle",
)


def small_int(rng, lo=1, hi=3):
    return rng.choice(EDGE_INTS) if rng.random() < 0.1 else str(rng.randint(lo, hi))


def fraction(rng, n):
    """Mostly a residue k/n of a small n, else an edge value."""
    if rng.random() < 0.15 or not n.isdigit() or not 1 <= int(n) <= 3:
        return rng.choice(EDGE_FRACTIONS)
    return f"{rng.randrange(int(n))}/{n}"


def window(rng):
    roll = rng.random()
    lo = rng.randint(-30, 30)
    if roll < 0.04:
        lo -= rng.randint(0, WIDTH - 1)
        return f"{lo}:{lo + WIDTH - 1}"  # at the cap
    if roll < 0.06:
        return f"{lo}:{lo + WIDTH}"  # one past the cap
    if roll < 0.11:
        return f"{lo + rng.randint(1, 9)}:{lo}"  # reversed
    if roll < 0.16:
        return rng.choice(("3", "a:b", "1:", ":", "1:2:3", f"{BIG}:{BIG}5", f"-{BIG}:-{BIG}"))
    return f"{lo}:{lo + rng.randint(0, 20)}"


def lattice(rng):
    n, m = small_int(rng), small_int(rng)
    mu = rng.choice(EDGE_FRACTIONS) if rng.random() < 0.15 else str(rng.randint(-40, 40))
    argv = [
        "lattice", "--variant", rng.choice(("q", "qp", "qpp", "qpp", "p")),
        "--n", n, "--m", m, "--eps", fraction(rng, n), "--mu", mu,
        "--window", window(rng),
    ]
    return argv + ["--oracle"] * (rng.random() < 0.5)


def module(rng):
    kind = rng.choice(("ind", "pro", "ps", "ps", "sideways"))
    n = small_int(rng)
    argv = ["module", "--kind", kind, "--n", n, "--m", small_int(rng), "--window", window(rng)]
    if kind in ("ind", "pro") or rng.random() < 0.1:
        argv += ["--lambda", small_int(rng, -5, 8)]
    if kind == "ps" or rng.random() < 0.1:
        argv += ["--parabolic", rng.choice(("q", "qp", "qpp"))] * (rng.random() < 0.9)
        argv += ["--eps", fraction(rng, n)] * (rng.random() < 0.9)
        argv += ["--mu", rng.choice(EDGE_FRACTIONS + (str(rng.randint(-12, 12)),) * 4)]
    return argv


def contract(rng):
    kind = rng.choice(("ind", "pro", "ps", "ps"))
    n = small_int(rng)
    argv = [
        "contract", "--kind", kind, "--n", n, "--window", window(rng),
        "--ring", rng.choice(("poly", "laurent", "laurent", "ring")),
    ]
    if kind != "ps" or rng.random() < 0.1:
        argv += ["--lambda", small_int(rng, -5, 8)]
    if kind == "ps" or rng.random() < 0.1:
        argv += ["--eps", fraction(rng, n)] * (rng.random() < 0.9)
        argv += ["--mu", rng.choice(POLYNOMIALS)] * (rng.random() < 0.9)
    return argv


def bw(rng):
    lam = rng.choice(EDGE_INTS + ("128", "129", "-3") + (str(rng.randint(0, 20)),) * 6)
    op = rng.choice(("min", "max", "dual", "hom", "certify", "counit", "id"))
    argv = ["bw", "--lambda", lam, "--op", op]
    if rng.random() < 0.4:
        argv += ["--n", rng.choice(EDGE_INTS + ("1", "2", "60"))]
    return argv


def classify(rng, tmp_path):
    roll = rng.random()
    if roll < 0.6:
        table = str(rng.choice(TABLES))
    elif roll < 0.95:
        k = rng.randrange(len(MALFORMED_TABLES))
        table = tmp_path / f"malformed{k}.json"
        table.write_text(MALFORMED_TABLES[k])
    else:
        table = tmp_path / "missing" / "table.json"
    return ["classify", "--table", str(table)]


def draw(rng, tmp_path) -> list:
    maker = rng.choices(
        (lattice, module, contract, bw, classify), weights=(30, 20, 20, 15, 15)
    )[0]
    argv = maker(rng, tmp_path) if maker is classify else maker(rng)
    roll = rng.random()
    if roll < 0.3:
        argv += ["--format", rng.choice(("csv", "table", "xml"))]
    elif roll < 0.33:
        argv += ["--out", str(tmp_path / rng.choice(("doc.out", "missing/doc.out")))]
    elif roll < 0.36:
        argv.pop(rng.randrange(1, len(argv)))  # a flag without its value, or the reverse
    return argv


def run(argv) -> tuple:
    """(exit code, stderr, seconds) of one document in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
        seconds = time.perf_counter() - start
    return code, err.getvalue(), seconds


def test_fuzzed_documents_fail_fast(tmp_path):
    rng = random.Random(20261019)
    documents = [draw(rng, tmp_path) for _ in range(DOCUMENTS)]
    documents += [text.split() for text in LIMIT_DOCUMENTS]
    codes, failures = set(), []
    for argv in documents:
        code, err, seconds = run(argv)
        if seconds > CEILING_S:
            seconds = min(seconds, run(argv)[2])
        codes.add(code)
        if code not in (0, 1, 2) or "Traceback" in err or seconds > CEILING_S:
            failures.append((" ".join(argv), code, err[-200:], round(seconds, 3)))
    assert failures == []
    assert codes == {0, 1, 2}
    # the draw reaches every subcommand and each kind of edge
    assert {argv[0] for argv in documents} == {"classify", "module", "lattice", "contract", "bw"}
    text = json.dumps(documents)
    for needle in (BIG, "1/0", "--oracle", "missing", "1/0z", "1 2", *EXPONENTS):
        assert needle in text, needle
    widths = {width(argv) for argv in documents} - {None}
    assert {WIDTH, WIDTH + 1} <= widths and min(widths) < 1  # at, past the cap; reversed


def width(argv):
    """B - A + 1 of the document's --window A:B, or None."""
    if "--window" not in argv[:-1]:
        return None
    lo, _, hi = argv[argv.index("--window") + 1].partition(":")
    try:
        return int(hi) - int(lo) + 1
    except ValueError:
        return None
