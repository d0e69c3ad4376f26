"""End-to-end command line checks: documents, formats, exit codes."""

import argparse
import json
from fractions import Fraction
from pathlib import Path

import pytest

from hclat import cli, contraction, dyadic, zforms
from hclat.cli import main
from hclat.scalars import LAURENT_RING, Laurent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- documents ------------------------------------------------------------------


def test_lattice_document(capsys):
    doc = run_json(
        capsys,
        "lattice", "--variant", "q", "--n", "1", "--m", "1",
        "--eps", "0", "--mu", "-2", "--window", "-3:1", "--oracle",
    )
    pairs = {p: e for p, e in doc["exponents"]}
    assert pairs[1] == 0 and pairs[0] == 1 and pairs[-1] == 1 and pairs[-2] == 2
    assert doc["oracle_agrees"] is True
    assert doc["nonzero"] is True
    assert doc["support"] == {"kind": "le", "bound": 1}


def test_lattice_vanishing_document(capsys):
    doc = run_json(
        capsys,
        "lattice", "--variant", "qpp", "--n", "1", "--m", "2",
        "--mu", "3", "--window", "0:4",
    )
    assert doc["nonzero"] is False
    assert doc["exponents"] == []


def test_module_qpp_coefficient(capsys):
    doc = run_json(
        capsys,
        "module", "--kind", "ps", "--parabolic", "qpp", "--n", "1",
        "--m", "2", "--eps", "0", "--mu", "3", "--window", "0:0",
    )
    assert doc["rows"] == [[0, 0, "3/2", "3/2", "0"]]


def test_module_induced_rows(capsys):
    doc = run_json(
        capsys,
        "module", "--kind", "ind", "--n", "1", "--m", "1",
        "--lambda", "2", "--window", "-2:2",
    )
    # support starts at 0; F-coefficient is -p(p-1)/2 - 2p at weight 2+p
    assert doc["rows"] == [
        [0, 2, "1", "0", "2"],
        [1, 3, "1", "-2", "3"],
        [2, 4, "1", "-5", "4"],
    ]


def test_classify_from_parameters(capsys, tmp_path):
    table = tmp_path / "form.json"
    table.write_text(json.dumps({"n": 2, "m": 3, "q": "-1/2"}))
    doc = run_json(capsys, "classify", "--table", str(table))
    assert doc == {"n": 2, "m": 3, "abs_q": "1/2"}


def test_classify_from_presentation_tables(capsys, tmp_path):
    g = zforms.make_zform(3, 1, 2)
    tables = zforms.presentation(g, order=(2, 0, 1), signs=(1, -1, 1))
    table = tmp_path / "presentation.json"
    table.write_text(json.dumps(zforms.presentation_to_json(*tables)))
    doc = run_json(capsys, "classify", "--table", str(table))
    assert doc == {"n": 3, "m": 1, "abs_q": "2"}


def _malformed(edit):
    """A good presentation table of g_{2,3} with one edit applied."""
    data = zforms.presentation_to_json(*zforms.presentation(zforms.make_zform(2, 3, 1)))
    return edit(data)


@pytest.mark.parametrize(
    "table",
    [
        [1, 2, 3],
        [["n", "m", "q"]],
        _malformed(lambda d: {k: v for k, v in d.items() if k != "brackets"}),
        _malformed(lambda d: dict(d, brackets=d["brackets"][:2])),
        _malformed(lambda d: dict(d, realization=d["realization"][:2])),
        _malformed(lambda d: dict(d, brackets=[[0, 1, [None, "0", "0"]]] + d["brackets"][1:])),
        _malformed(lambda d: dict(d, brackets=[[0, 1, [[[1, "2"]], "0", "0"]]] + d["brackets"][1:])),
        {"n": None, "m": 1, "q": "1"},
        {"n": 2.5, "m": 1, "q": "1"},
        {"n": 1, "m": 1, "q": 0.5},
    ],
    ids=("list", "list-of-keys", "no-brackets", "missing-pair", "two-matrices",
         "null-entry", "laurent-entry", "null-n", "fractional-n", "float-q"),
)
def test_classify_malformed_table_is_an_error_document(capsys, tmp_path, table):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, "classify", "--table", str(path))
    assert (code, err) == (1, "")
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_contract_vanishing_reason(capsys):
    doc = run_json(
        capsys,
        "contract", "--kind", "ps", "--n", "1", "--eps", "0",
        "--mu", "1+z", "--ring", "poly", "--window", "-2:2",
    )
    assert doc["rows"] == []
    assert "constant term" in doc["vanishing_reason"]


def test_contract_laurent_rows(capsys):
    doc = run_json(
        capsys,
        "contract", "--kind", "ps", "--n", "2", "--eps", "1/2",
        "--mu", "z", "--ring", "laurent", "--window", "0:1",
    )
    assert doc["rows"] == [[0, 1, "1", "0", "1"], [1, 3, "2", "-z", "3"]]


def test_contract_induced_rows(capsys):
    doc = run_json(
        capsys,
        "contract", "--kind", "ind", "--n", "1", "--lambda", "1",
        "--window", "0:2",
    )
    assert doc["rows"][2][0] == 2
    assert doc["rows"][2][2] == "1"
    assert doc["rows"][2][3] == "-6*z"


def test_bw_documents(capsys):
    mx = run_json(capsys, "bw", "--lambda", "2", "--op", "max")
    assert mx["embedding"][1][1] == "1/2"
    assert all(isinstance(x, int) for row in mx["E"] for x in row)

    hom = run_json(capsys, "bw", "--lambda", "2", "--op", "hom")
    assert hom["rank"] == 1
    assert hom["generator"] == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]

    cert = run_json(capsys, "bw", "--lambda", "3", "--op", "certify")
    assert cert["certified"] is True and cert["primes"] == [2, 3, 5]

    witness = run_json(capsys, "bw", "--lambda", "-3", "--op", "counit", "--n", "5")
    assert witness["fraction"] == "1/5"

    dual = run_json(capsys, "bw", "--lambda", "1", "--op", "dual", "--n", "1")
    assert dual["weights"] == [3, 1, -1, -3]


def test_verify_document_and_exit(capsys):
    code, out, err = run(capsys, "verify", "--suite", "contraction")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["suite"] == "contraction" for c in doc["checks"])


def test_verify_corrupted_build_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(
        contraction, "phi_preserves_bracket", lambda: ["fabricated failure"]
    )
    code, out, err = run(capsys, "verify", "--suite", "contraction")
    assert code == 1
    assert json.loads(out)["passed"] is False


# -- formats and output ----------------------------------------------------------


def test_json_reemission_is_byte_identical(capsys):
    code, out, err = run(
        capsys,
        "lattice", "--variant", "q", "--n", "1", "--m", "1",
        "--eps", "0", "--mu", "-2", "--window", "-3:1",
    )
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_csv_format(capsys):
    code, out, err = run(
        capsys,
        "module", "--kind", "ind", "--n", "1", "--m", "1",
        "--lambda", "2", "--window", "0:2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,weight,E,F,H"
    assert len(lines) == 4


def test_table_format(capsys):
    code, out, err = run(
        capsys,
        "module", "--kind", "ind", "--n", "1", "--m", "1",
        "--lambda", "2", "--window", "0:2", "--format", "table",
    )
    assert code == 0
    assert "index" in out.splitlines()[1]


def test_out_file(capsys, tmp_path):
    target = tmp_path / "doc.json"
    code, out, err = run(
        capsys, "bw", "--lambda", "4", "--op", "min", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["rank"] == 5


# -- exit codes -------------------------------------------------------------------


def test_usage_error_missing_lambda(capsys):
    code, out, err = run(capsys, "module", "--kind", "ind", "--window", "0:2")
    assert code == 2
    assert "requires --lambda" in err


def test_usage_error_qpp_shape(capsys):
    code, out, err = run(
        capsys,
        "module", "--kind", "ps", "--parabolic", "qpp", "--n", "2",
        "--m", "3", "--eps", "0", "--mu", "1", "--window", "0:0",
    )
    assert code == 2
    assert "qpp requires m = 2n" in err


def test_usage_error_eps_residue(capsys):
    code, out, err = run(
        capsys,
        "lattice", "--variant", "q", "--n", "2", "--m", "1",
        "--eps", "1/3", "--mu", "2", "--window", "0:1",
    )
    assert code == 2
    assert "dividing n = 2" in err


@pytest.mark.parametrize("mu", ["--z", "*z", "++1", "+", "1/0z"])
def test_usage_error_malformed_polynomial(capsys, mu):
    argv = ["contract", "--kind", "ps", "--eps", "0", f"--mu={mu}", "--window", "0:1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "cannot parse polynomial" in capsys.readouterr().err


def test_usage_error_bad_window():
    with pytest.raises(SystemExit) as exc:
        main(["module", "--kind", "ind", "--lambda", "1", "--window", "3:1"])
    assert exc.value.code == 2


def test_usage_error_unknown_variant():
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--variant", "b", "--mu", "2", "--window", "0:1"])
    assert exc.value.code == 2


def test_domain_error_json_object(capsys):
    code, out, err = run(
        capsys,
        "lattice", "--variant", "q", "--n", "1", "--m", "1",
        "--eps", "0", "--mu", "1/2", "--window", "0:1",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "ValueError"
    assert "integer" in doc["error"]["message"]


def test_domain_error_plain_message(capsys):
    code, out, err = run(
        capsys,
        "classify", "--table", "/nonexistent/table.json", "--format", "table",
    )
    assert code == 1
    assert out == ""
    assert "error" in err


def test_negative_window_token(capsys):
    doc = run_json(
        capsys,
        "contract", "--kind", "ps", "--n", "1", "--eps", "0",
        "--mu", "2z", "--window", "-3:0",
    )
    assert [row[0] for row in doc["rows"]] == [-3, -2, -1, 0]


def test_normalize_argv_only_merges_values():
    merged = cli._normalize_argv(["--window", "-3:1", "--oracle", "--mu", "-2"])
    assert merged == ["--window=-3:1", "--oracle", "--mu=-2"]


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize(
    "kind_args",
    [["--kind", "ind", "--lambda", "1"], ["--kind", "pro", "--lambda", "1"],
     ["--kind", "ps", "--eps", "0", "--mu", "2z"],
     ["--kind", "ps", "--eps", "1/2", "--mu", "2z"]],
    ids=("ind", "pro", "ps", "ps-eps-half"),
)
def test_contract_rejects_nonpositive_n(capsys, kind_args, n):
    code, out, err = run(
        capsys, "contract", *kind_args, "--n", n, "--window", "0:1"
    )
    assert code == 1
    assert f"n={n}" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("n", [0, -1])
def test_contracted_ps_names_n_before_eps(n):
    with pytest.raises(ValueError, match=f"n must be a positive integer, got n={n}"):
        contraction.contracted_ps(
            Fraction(1, 2), Laurent.parse("2z"), LAURENT_RING, n=n
        )


def test_bw_dual_names_a_negative_n(capsys):
    code, out, err = run(capsys, "bw", "--lambda", "3", "--op", "dual", "--n", "-1")
    assert code == 1
    assert json.loads(out)["error"]["message"] == "n must be nonnegative, got n=-1"


def test_bw_counit_rejects_n_zero(capsys):
    code, out, err = run(capsys, "bw", "--lambda", "2", "--op", "counit", "--n", "0")
    assert code == 1
    assert json.loads(out)["error"]["message"] == "n must be a positive integer, got n=0"


def test_bw_counit_rejects_a_weight_the_ladder_lacks(capsys):
    # the ladder of lambda = -3, n = 2 has weights 1, -1
    code, out, err = run(capsys, "bw", "--lambda", "-3", "--op", "counit", "--n", "2")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "ValueError",
        "message": "phi needs weight -3, below the ladder's lowest weight -1",
    }


@pytest.mark.parametrize("lam", ["1", "-1"], ids=["document", "domain-error"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_an_error_message(capsys, tmp_path, lam, target):
    # lambda = -1 has no minimal lattice, so its error document is what fails to land
    path = tmp_path / "missing" / "doc.json" if target == "missing-directory" else tmp_path
    code, out, err = run(capsys, "bw", "--lambda", lam, "--op", "min", "--out", str(path))
    assert code == 1 and out == ""
    assert err.startswith("hclat bw: error: [Errno ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--lambda", "129", "--op", "min"),
        ("--lambda", "1", "--op", "counit", "--n", "64"),
        ("--lambda", "125", "--op", "dual", "--n", "2"),
    ],
)
def test_bw_rejects_ladders_above_the_weight_limit(capsys, argv):
    code, out, err = run(capsys, "bw", *argv)
    assert code == 2 and out == ""
    assert "129" in err and "128" in err


def test_bw_accepts_the_weight_limit(capsys):
    doc = run_json(capsys, "bw", "--lambda", "128", "--op", "min")
    assert doc["rank"] == 129


def test_value_options_take_negative_looking_values(capsys):
    doc = run_json(
        capsys,
        "module", "--kind", "ind", "--lambda", "-1", "--window", "-3:1",
    )
    assert doc["lambda"] == -1 and doc["window"] == [-3, 1]
    doc = run_json(
        capsys,
        "contract", "--kind", "ps", "--eps", "0", "--mu", "-2", "--window", "-3:1",
        "--ring", "laurent",
    )
    assert doc["mu"] == "-2"
    # no value option of any subcommand leaves a "-1" for argparse to misread
    parser = cli.build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if not action.option_strings or action.nargs == 0:
                continue
            for flag in action.option_strings:
                try:
                    parser.parse_args(cli._normalize_argv([command, flag, "-1"]))
                except SystemExit:
                    pass
                assert "expected one argument" not in capsys.readouterr().err, flag


# -- input guards ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("module", "--kind", "ind", "--lambda", "1"),
        ("lattice", "--variant", "q", "--mu", "0"),
        ("contract", "--kind", "ind", "--lambda", "1"),
    ],
    ids=("module", "lattice", "contract"),
)
def test_window_width_limit(capsys, argv):
    limit = cli.WINDOW_MAX_WIDTH
    assert limit <= dyadic.ORACLE_DEPTH
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--window", f"1:{limit + 1}"])
    assert exc.value.code == 2
    assert f"limit {limit}" in capsys.readouterr().err
    assert main([*argv, "--window", f"1:{limit}"]) == 0


@pytest.mark.parametrize(
    "variant, window, far",
    [("q", "-4100:-4095", -4100), ("q", "-4096:-4094", -4096), ("qp", "4090:4096", 4096)],
)
def test_lattice_oracle_rejects_indices_beyond_the_depth(capsys, variant, window, far):
    # the q/qp chain from p to the support boundary (0 here) must end within
    # the oracle depth; without --oracle the document is still computed
    code, out, err = run(
        capsys, "lattice", "--variant", variant, "--mu", "0", "--window", window, "--oracle"
    )
    assert code == 2 and out == ""
    assert f"index {far} " in err and str(dyadic.ORACLE_DEPTH) in err
    doc = run_json(capsys, "lattice", "--variant", variant, "--mu", "0", "--window", window)
    assert doc["nonzero"] is True


def test_lattice_oracle_reaches_the_depth_edge(capsys):
    edge = 1 - dyadic.ORACLE_DEPTH
    doc = run_json(
        capsys, "lattice", "--variant", "q", "--mu", "0",
        "--window", f"{edge}:{edge + 2}", "--oracle",
    )
    assert doc["oracle_agrees"] is True


def test_lattice_oracle_vanishing_window_off_zero(capsys):
    doc = run_json(
        capsys, "lattice", "--variant", "q", "--n", "2", "--m", "1", "--eps", "1/2",
        "--mu", "0", "--window", "40:60", "--oracle",
    )
    assert doc["nonzero"] is False and doc["oracle_agrees"] is True


@pytest.mark.parametrize("op", ["min", "max", "hom", "certify"])
def test_bw_rejects_n_where_it_does_not_apply(capsys, op):
    code, out, err = run(capsys, "bw", "--lambda", "2", "--op", op, "--n", "5")
    assert code == 2 and out == ""
    assert "--n" in err and op in err


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            "module --kind ind --lambda 1 --eps 1/2 --mu 3",
            "hclat module: error: --eps applies only to --kind ps, not --kind ind\n",
        ),
        (
            "module --kind pro --lambda 1 --parabolic q",
            "hclat module: error: --parabolic applies only to --kind ps, not --kind pro\n",
        ),
        (
            "module --kind ind --mu 3",
            "hclat module: error: --mu applies only to --kind ps, not --kind ind\n",
        ),
        (
            "module --kind ps --parabolic q --eps 0 --mu 1 --lambda 5",
            "hclat module: error: --lambda applies only to --kind ind and pro, not --kind ps\n",
        ),
        (
            "contract --kind ind --lambda 1 --eps 0",
            "hclat contract: error: --eps applies only to --kind ps, not --kind ind\n",
        ),
        (
            "contract --kind pro --lambda 1 --mu 3z --ring laurent",
            "hclat contract: error: --mu applies only to --kind ps, not --kind pro\n",
        ),
        (
            "contract --kind ps --eps 0 --mu 3z --lambda 2",
            "hclat contract: error: "
            "--lambda applies only to --kind ind and pro, not --kind ps\n",
        ),
    ],
)
def test_module_and_contract_reject_flags_the_kind_does_not_take(capsys, argv, err):
    for fmt in ("json", "table"):
        code, out, got = run(capsys, *argv.split(), "--window", "0:1", "--format", fmt)
        assert (code, out, got) == (2, "", err)


RESIDUE_ERROR = "eps must be a residue K/N with N dividing n = 2 and 0 <= eps < 1; got "


@pytest.mark.parametrize(
    "argv, err",
    [
        ("module --kind ind", "hclat module: error: --kind ind requires --lambda\n"),
        ("module --kind pro", "hclat module: error: --kind pro requires --lambda\n"),
        ("contract --kind ind", "hclat contract: error: --kind ind requires --lambda\n"),
        ("contract --kind pro", "hclat contract: error: --kind pro requires --lambda\n"),
        ("module --kind ps", "hclat module: error: --kind ps requires --parabolic\n"),
        (
            "module --kind ps --eps 0 --mu 1",
            "hclat module: error: --kind ps requires --parabolic\n",
        ),
        (
            "module --kind ps --parabolic q --mu 1",
            "hclat module: error: --kind ps requires --eps and --mu\n",
        ),
        (
            "module --kind ps --parabolic q --eps 0",
            "hclat module: error: --kind ps requires --eps and --mu\n",
        ),
        ("contract --kind ps --mu z", "hclat contract: error: --kind ps requires --eps and --mu\n"),
        ("contract --kind ps --eps 0", "hclat contract: error: --kind ps requires --eps and --mu\n"),
        (
            "module --kind ps --parabolic q --n 2 --eps 1/3 --mu 1",
            f"hclat module: error: {RESIDUE_ERROR}1/3\n",
        ),
        (
            "module --kind ps --parabolic qpp --n 2 --m 4 --eps 1 --mu 1",
            f"hclat module: error: {RESIDUE_ERROR}1\n",
        ),
        (
            "contract --kind ps --n 2 --eps 1/3 --mu z",
            f"hclat contract: error: {RESIDUE_ERROR}1/3\n",
        ),
        (
            "contract --kind ps --n 2 --eps -1/2 --mu z",
            f"hclat contract: error: {RESIDUE_ERROR}-1/2\n",
        ),
        (
            "module --kind ps --parabolic qpp --n 2 --m 3 --eps 0 --mu 1",
            "hclat module: error: label qpp requires m = 2n; got n=2, m=3\n",
        ),
    ],
)
def test_module_and_contract_kind_rule_usage_errors(capsys, argv, err):
    """Each missing flag, non-residue eps and qpp shape, word for word."""
    for fmt in ("json", "table"):
        code, out, got = run(capsys, *argv.split(), "--window", "0:1", "--format", fmt)
        assert (code, out, got) == (2, "", err)


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("lattice --variant q --mu 1e10000000", "--mu"),
        ("lattice --variant q --mu 1 --eps 1E100000000", "--eps"),
        ("module --kind ps --parabolic q --eps 0 --mu 1e10000000", "--mu"),
        ("module --kind ps --parabolic q --eps 1e10000000 --mu 1", "--eps"),
        ("contract --kind ps --eps 1e10000000 --mu z", "--eps"),
    ],
)
def test_exponent_notation_is_a_usage_error(capsys, argv, flag):
    argv = argv.split() + ["--window", "0:1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    value = argv[argv.index(flag) + 1]
    assert exc.value.code == 2
    assert err.endswith(f"error: argument {flag}: not an exact fraction: {value!r}\n")


def test_classify_table_with_exponent_notation_is_an_error_document(capsys, tmp_path):
    table = tmp_path / "form.json"
    table.write_text(json.dumps({"n": 1, "m": 1, "q": "1e10000000"}))
    code, out, err = run(capsys, "classify", "--table", str(table))
    assert code == 1 and err == ""
    assert json.loads(out) == {
        "error": {
            "type": "ValueError",
            "message": "exponent notation is not an exact rational: '1e10000000'",
        }
    }


# -- one parser per process -----------------------------------------------------


def test_main_reuses_the_import_time_parser(capsys, monkeypatch, tmp_path):
    def refuse():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    table = tmp_path / "form.json"
    table.write_text(json.dumps({"n": 1, "m": 1, "q": "1/2"}))
    documents = [
        ("classify", "--table", str(table)),
        ("module", "--kind", "ind", "--lambda", "1", "--window", "0:1"),
        ("lattice", "--variant", "q", "--mu", "0", "--window", "-2:0"),
        ("contract", "--kind", "ind", "--lambda", "1", "--window", "0:1"),
        ("bw", "--lambda", "2", "--op", "min"),
        ("verify", "--suite", "contraction"),
    ]
    for argv in documents:
        run_json(capsys, *argv)


def test_no_state_leaks_between_documents(capsys, tmp_path):
    lattice = ("lattice", "--variant", "q", "--mu", "0", "--window", "-2:0")
    doc = run_json(capsys, *lattice, "--eps", "1/2", "--n", "2")
    assert doc["eps"] == "1/2"
    assert cli._PARSER.parse_args(cli._normalize_argv(list(lattice))).eps == Fraction(0)
    assert run_json(capsys, *lattice)["eps"] == "0"

    code, out, _ = run(capsys, *lattice, "--format", "csv")
    assert code == 0 and not out.startswith("{")
    assert json.loads(run(capsys, *lattice)[1])["eps"] == "0"

    target = tmp_path / "doc.json"
    code, out, _ = run(capsys, *lattice, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(run(capsys, *lattice)[1]) == json.loads(target.read_text())

    assert run_json(capsys, "bw", "--lambda", "1", "--op", "dual", "--n", "2")["lambda"] == 1
    assert run_json(capsys, "bw", "--lambda", "1", "--op", "min")["rank"] == 2


def test_repeated_usage_error_is_identical(capsys):
    argv = ["lattice", "--variant", "q", "--mu", "0", "--window", "1:0"]
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "empty" in errors[0]


# -- help text ------------------------------------------------------------------


def _help_text(capsys) -> str:
    """`hclat --help` and each subcommand's --help, each after its command line."""
    (subparsers,) = (
        a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)
    )
    parts = []
    for argv in [["--help"]] + [[name, "--help"] for name in subparsers.choices]:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        parts.append(f"$ hclat {' '.join(argv)}\n{capsys.readouterr().out}")
    return "\n".join(parts)


def test_help_text_is_pinned(capsys, monkeypatch):
    # argparse wraps its help at $COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    pinned = Path(__file__).resolve().parent / "cli_help.out"
    assert _help_text(capsys) == pinned.read_text(encoding="utf-8")
