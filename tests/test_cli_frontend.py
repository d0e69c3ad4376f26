"""The command line's front end against the routes it replaced.

- Parsing.  ``cli.main`` hands a command line that starts with a
  subcommand straight to that subcommand's parser.  For every benchmark
  document, every fuzzed document and the edge cases below, that gives the
  same namespace, or the same exit code, stdout and stderr, as the
  top-level ``_PARSER.parse_args``; the rest of ``main`` reads only the
  namespace.
- JSON.  ``cli.render_json`` builds indented JSON with the C encoder; it
  must return exactly ``json.dumps(doc, indent=2) + "\\n"``, for every
  document of the four benchmark pools and for seeded random values.
- Tables.  ``cli.render_table`` (one format string per row) must match
  ``reference.render_table_rows`` (one ``ljust`` per cell), and
  ``cli.render_csv`` (one ``writerows``) the bytes of one ``writerow`` per
  row, ``reference.render_csv_rows``.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import test_cli_fuzz
from hclat import borelweil, cli
from hclat import contraction as ct
from hclat import weightmods as wm
from hclat.scalars import LAURENT_RING, POLY, Laurent
from hclat.zforms import make_zform

ROOT = Path(__file__).resolve().parent.parent

LAMBDA2 = ["bw", "--lambda", "2", "--op", "min"]
WINDOW = ["--mu", "0", "--window", "0:1"]
EDGE_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["bw", "-h"],
    ["bw", "--he"],
    ["latt"],
    ["Bw", "--lambda", "2", "--op", "min"],
    ["--format", "csv", *LAMBDA2],
    ["bw"],
    [*LAMBDA2, "--bogus", "x"],
    [*LAMBDA2, "stray"],
    [*LAMBDA2, "stray", "--bogus=1", "-z"],
    ["lattice", "--var", "q", *WINDOW],
    ["lattice", "--variant", "q", *WINDOW, "--oracle=1"],
    ["lattice", "--variant", "q", *WINDOW, "--o"],
    ["lattice", "--variant", "q", *WINDOW, "--", "x"],
    ["bw", "--lambda", "-3", "--op", "min"],
    ["verify", "--suite", "every"],
]


def _outcome(parse, argv) -> tuple:
    """(namespace or exit code, stdout, stderr) of parsing one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(cli._normalize_argv(list(argv))))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _golden_argvs() -> list:
    record = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    return [text.split() for documents in record.values() for text in documents]


def _fuzz_argvs(tmp_path) -> list:
    rng = random.Random(20261019)
    argvs = [test_cli_fuzz.draw(rng, tmp_path) for _ in range(test_cli_fuzz.DOCUMENTS)]
    return argvs + [text.split() for text in test_cli_fuzz.LIMIT_DOCUMENTS]


def test_subcommand_parser_matches_the_top_level_parser(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help at $COLUMNS
    argvs = _golden_argvs() + _fuzz_argvs(tmp_path) + EDGE_ARGVS
    mismatches = [
        argv for argv in argvs
        if _outcome(cli._parse, argv) != _outcome(cli._PARSER.parse_args, argv)
    ]
    assert mismatches == []
    results = [_outcome(cli._parse, argv)[0] for argv in EDGE_ARGVS]
    assert 0 in results and 2 in results  # help and usage errors both reached


def _main(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_main_matches_main_through_the_top_level_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    new = [_main(argv) for argv in EDGE_ARGVS]
    monkeypatch.setattr(cli, "_parse", cli._PARSER.parse_args)
    assert new == [_main(argv) for argv in EDGE_ARGVS]
    # the leftover tokens are named in the top-level usage error
    code, out, err = new[EDGE_ARGVS.index([*LAMBDA2, "--bogus", "x"])]
    assert code == 2 and out == ""
    assert err.startswith("usage: hclat [-h]")
    assert err.endswith("hclat: error: unrecognized arguments: --bogus x\n")


def test_subcommand_argv_never_reaches_the_top_level_parser(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a subcommand argv reached _PARSER.parse_args")

    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    table = tmp_path / "form.json"
    table.write_text(json.dumps({"n": 1, "m": 1, "q": "1/2"}))
    argvs = [
        ["classify", "--table", str(table)],
        ["module", "--kind", "ind", "--lambda", "1", "--window", "0:1"],
        ["lattice", "--variant", "q", "--mu", "0", "--window", "-2:0"],
        ["contract", "--kind", "ind", "--lambda", "1", "--window", "0:1"],
        LAMBDA2,
        ["verify", "--suite", "contraction"],
        ["bw", "-h"],
        [*LAMBDA2, "stray"],
        ["lattice", "--variant", "q", "--mu", "0", "--window", "1:0"],
    ]
    codes = [_main(argv)[0] for argv in argvs]
    assert codes == [0] * 6 + [0, 2, 2]


# -- rendering ------------------------------------------------------------------


@pytest.fixture(scope="module")
def pool_documents():
    """The document of every command line in the four benchmark pools: each
    command line once, in JSON, with the renderer swapped for a recorder."""
    record = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    argvs = {}
    for text in (text for documents in record.values() for text in documents):
        argv = text.split()
        if "--format" in argv:
            at = argv.index("--format")
            del argv[at:at + 2]
        argvs[" ".join(argv)] = argv
    documents = []

    def keep(doc):
        documents.append(doc)
        return ""

    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(ROOT)  # classify documents name their tables relative to it
        patch.setattr(cli, "render_json", keep)
        patch.setitem(cli._RENDERERS, "json", keep)
        for argv in argvs.values():
            _main(argv)
    return documents


def test_pool_documents_cover_every_shape(pool_documents):
    keys = {key for doc in pool_documents for key in doc}
    assert {"rows", "exponents", "E", "embedding", "checks", "error", "support"} <= keys
    assert len(pool_documents) > 400


def test_render_json_matches_json_dumps_on_pool_documents(pool_documents):
    mismatches = [
        doc for doc in pool_documents
        if cli.render_json(doc) != json.dumps(doc, indent=2) + "\n"
    ]
    assert mismatches == []


TEXTS = ("", "a", "\0", "]\0[", "[\0]", "\\", '"', "é漢字", "\N{SNOWMAN}", ",", "\n", "x\0y")


def _scalar(rng):
    return rng.choice((
        rng.choice(TEXTS), rng.randint(-5, 5), 10**30, -(10**30),
        True, False, None, 1.5,
    ))


def _value(rng, depth=0):
    roll = rng.random()
    if depth > 4 or roll < 0.3:
        return _scalar(rng)
    if roll < 0.5:
        return [_scalar(rng) for _ in range(rng.randint(0, 4))]
    if roll < 0.65:  # table-like: lists of scalar lists, some empty
        return [[_scalar(rng) for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(0, 3))]
    if roll < 0.75:
        return tuple(_value(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    if roll < 0.85:
        return [_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    keys = TEXTS + (1, -3, True, False, None, 2.5)
    return {rng.choice(keys): _value(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def test_render_json_matches_json_dumps_on_random_values():
    rng = random.Random(2026)
    values = [_value(rng) for _ in range(4000)]
    mismatches = [
        value for value in values
        if cli.render_json(value) != json.dumps(value, indent=2) + "\n"
    ]
    assert mismatches == []
    # the draw holds the separators' look-alikes inside lists and tables
    text = repr(values)
    assert "']\\x00['" in text and "[[" in text and "{}" in text
    assert any(isinstance(value, tuple) and value for value in values)


def test_render_json_refuses_what_json_refuses():
    for value in ({(1, 2): 0}, {"a": [object()]}, [{"a": {1j: 0}}]):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            cli.render_json(value)
        assert str(got.value) == str(expected.value)


def test_render_table_matches_the_row_by_row_widths(pool_documents):
    tables = [doc for doc in pool_documents if "rows" in doc]
    assert len(tables) > 50
    rng = random.Random(7)
    for _ in range(200):
        width = rng.randint(1, 5)
        tables.append({
            "kind": "random",
            "columns": [f"c{k}" * rng.randint(1, 3) for k in range(width)],
            "rows": [
                [rng.choice((rng.randint(-10**6, 10**6), "", "é漢", "1/3")) for _ in range(width)]
                for _ in range(rng.randint(0, 6))
            ],
        })
    for doc in tables:
        assert cli.render_table(doc) == reference.render_table_rows(doc)


def _table_docs() -> list:
    """ps and contract-ps tables, one of them with its multi-term Laurent
    e column moved last, so that the last column varies in width; and
    tables with no rows (a window off the support, the zero module)."""
    ps = wm.principal_series(2, 3, "qp", Fraction(1, 2), Fraction(-7, 3))
    mu = Laurent.parse("-3z^-2 + 1/2 - 4z^3")
    cps = ct.contracted_ps(Fraction(1, 2), mu, LAURENT_RING, n=2)
    last_e = wm.WeightModule(
        cps.relations, cps.support, {gen: cps.actions[gen] for gen in ("h", "f", "e")},
        cps.params, cps.vanishing_reason,
    )
    empty = [
        (wm.induced_module(make_zform(1, 1, 1), 2), -9, -1),
        (ct.contracted_ps(Fraction(0), Laurent.parse("1 + z"), POLY), -4, 4),
    ]
    docs = [
        cli._table_doc(M, {"kind": "test"}, lo, hi)
        for M, lo, hi in [(ps, -120, 40), (cps, -30, 30), (last_e, -30, 30), *empty]
    ]
    assert [len(doc["rows"]) for doc in docs] == [161, 61, 61, 0, 0]
    last = [row[-1] for row in docs[2]["rows"]]
    assert len({*map(len, last)}) > 1 and all(" + " in cell or " - " in cell for cell in last)
    return docs


def test_render_table_and_csv_match_the_per_row_routes(pool_documents):
    tables = _table_docs() + [doc for doc in pool_documents if "rows" in doc]
    for doc in tables:
        assert cli.render_table(doc) == reference.render_table_rows(doc)
        assert cli.render_csv(doc) == reference.render_csv_rows(doc)
    # a table with no rows is its header line and its column names
    assert cli.render_table(tables[3]).splitlines()[1] == "index  weight  E  F  H"
    assert cli.render_csv(tables[4]) == "index,weight,e,f,h\n"


def test_tuples_render_as_lists():
    """bw --op certify prints the library's (prime, weight) tuples as they are."""
    report = borelweil.maximality_certificate(borelweil.minimal_lattice(2), (2,))
    assert report["failures"] and all(type(pair) is tuple for pair in report["failures"])
    as_lists = {**report, "failures": [list(pair) for pair in report["failures"]]}
    for render in (cli.render_json, cli.render_csv, cli.render_table):
        assert render(report) == render(as_lists)
    assert cli.render_json(report) == json.dumps(report, indent=2) + "\n"
