"""Command line front end.

Subcommands: classify, module, lattice, contract, bw, verify.  Documents
are emitted as JSON (default), CSV, or an aligned text table; every
number is an exact string, never a decimal float.  Exit status: 0 on
success, 1 on a domain error (as a machine-readable error object in JSON
mode), 2 on a usage error.

A command line that starts with a subcommand is parsed once, by that
subcommand's parser; leftover tokens get argparse's top-level
"unrecognized arguments" error.  Any other command line goes through the
top-level parser.  The JSON of a document is exactly
``json.dumps(doc, indent=2) + "\n"``, built from the C encoder's compact
output.

A process imports only the layers its documents run: ``scalars``,
``borelweil`` and ``dyadic`` (the layers of ``bw`` and ``lattice``) at
start-up, and every other layer in the first handler that needs it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii

from . import borelweil, dyadic
from .scalars import LAURENT_RING, POLY, Laurent, rat, residue

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# Highest ladder weight that `bw` accepts: the lattice kernels grow at least
# quadratically in the ladder rank.  Raise it when they get faster.
BW_MAX_WEIGHT = 128

# Widest --window (B - A + 1 indices) that module, lattice and contract
# accept.  It stays at or below dyadic.ORACLE_DEPTH; its costliest document,
# a `lattice --oracle` window 2095..4095 steps from the support boundary,
# takes about 15 ms in process.
WINDOW_MAX_WIDTH = 2001

class UsageError(Exception):
    """Invalid flag combination; reported with exit status 2."""


def _normalize_argv(argv: list) -> list:
    """Attach negative-looking values ("-3:1", "-4z") to their flags."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in _VALUE_FLAGS
            and nxt is not None
            and nxt.startswith("-")
            and not nxt.startswith("--")
            and nxt != "-h"
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _window(text: str):
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"window must look like A:B, got {text!r}")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"window bounds must be integers: {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"window {text!r} is empty (A > B)")
    if hi - lo + 1 > WINDOW_MAX_WIDTH:
        raise argparse.ArgumentTypeError(
            f"window {text!r} holds {hi - lo + 1} indices, above the limit "
            f"{WINDOW_MAX_WIDTH}"
        )
    return lo, hi


def _fraction(text: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact fraction: {text!r}")


def _laurent(text: str) -> Laurent:
    try:
        return Laurent.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _check_eps_residue(eps: Fraction, n: int) -> None:
    """An eps that is no residue for n is a usage error; n < 1, which
    residue checks first, stays a domain error."""
    try:
        residue(eps, n)
    except ValueError as exc:
        if n < 1:
            raise
        raise UsageError(exc) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hclat",
        description="Exact integral and fractional models of weight modules "
        "over split forms of sl2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format", choices=("json", "csv", "table"), default="json",
            help="output document format (default json)",
        )
        p.add_argument("--out", metavar="FILE", help="write the document to FILE")

    p_classify = sub.add_parser(
        "classify", help="recover (n, m, |q|) from a presentation table"
    )
    p_classify.add_argument(
        "--table", required=True, metavar="FILE",
        help='JSON file: {"n","m","q"} or a full presentation '
        '{"weights","brackets","realization"}',
    )
    add_common(p_classify)

    p_module = sub.add_parser(
        "module", help="windowed coefficient table of a weight module"
    )
    p_module.add_argument("--kind", required=True, choices=("ind", "pro", "ps"))
    p_module.add_argument("--parabolic", choices=("q", "qp", "qpp"))
    p_module.add_argument("--n", type=int, default=1)
    p_module.add_argument("--m", type=int, default=1)
    p_module.add_argument("--lambda", dest="lam", type=int)
    p_module.add_argument("--eps", type=_fraction)
    p_module.add_argument("--mu", type=_fraction)
    p_module.add_argument("--window", required=True, type=_window)
    add_common(p_module)

    p_lattice = sub.add_parser(
        "lattice", help="2-adic exponents of the integral principal series"
    )
    p_lattice.add_argument("--variant", required=True, choices=("q", "qp", "qpp"))
    p_lattice.add_argument("--n", type=int, default=1)
    p_lattice.add_argument("--m", type=int, default=1)
    p_lattice.add_argument("--eps", type=_fraction, default=Fraction(0))
    p_lattice.add_argument("--mu", required=True, type=_fraction)
    p_lattice.add_argument("--window", required=True, type=_window)
    p_lattice.add_argument(
        "--oracle", action="store_true",
        help="re-derive every exponent with the recurrence oracle",
    )
    add_common(p_lattice)

    p_contract = sub.add_parser(
        "contract", help="coefficient table of a contraction-family module"
    )
    p_contract.add_argument("--kind", required=True, choices=("ind", "pro", "ps"))
    p_contract.add_argument("--n", type=int, default=1)
    p_contract.add_argument("--lambda", dest="lam", type=int)
    p_contract.add_argument("--eps", type=_fraction)
    p_contract.add_argument("--mu", type=_laurent, metavar="POLY")
    p_contract.add_argument("--ring", choices=("poly", "laurent"), default="poly")
    p_contract.add_argument("--window", required=True, type=_window)
    add_common(p_contract)

    p_bw = sub.add_parser(
        "bw", help="finite-rank lattices: minimal/maximal forms and witnesses"
    )
    p_bw.add_argument("--lambda", dest="lam", required=True, type=int)
    p_bw.add_argument("--n", type=int)
    p_bw.add_argument(
        "--op", required=True,
        choices=("min", "max", "dual", "hom", "certify", "counit"),
    )
    add_common(p_bw)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    # verify.SUITES, written out so that start-up does not import verify
    p_verify.add_argument(
        "--suite", required=True,
        choices=("hecke", "modules", "lattice", "contraction", "borelweil", "all"),
    )
    add_common(p_verify)

    return parser


# Built once per process: parse_known_args makes a fresh Namespace on every
# call and every default is immutable, so documents cannot leak into each
# other.
_PARSER = build_parser()
(_SUBPARSERS,) = (
    action.choices
    for action in _PARSER._actions
    if isinstance(action, argparse._SubParsersAction)
)
# The option strings that take a value, over every subcommand.
_VALUE_FLAGS = frozenset(
    flag
    for sub in _SUBPARSERS.values()
    for action in sub._actions
    if action.nargs != 0
    for flag in action.option_strings
)


def _parse(argv: list) -> argparse.Namespace:
    """The namespace of one command line, by the subcommand's parser alone.

    The top-level parser would hand argv[1:] to that same parser; going
    straight there saves a second parse.  Leftover tokens get the top-level
    "unrecognized arguments" error that argparse prints; every other argv
    (empty, -h, an unknown command) goes through the top-level parser.
    """
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


# -- subcommand handlers -------------------------------------------------------


def _run_classify(args) -> dict:
    from . import zforms

    with open(args.table, encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict) and {"n", "m", "q"} <= data.keys():
        if type(data["n"]) is not int or type(data["m"]) is not int:
            raise ValueError(f"n and m must be integers, got n={data['n']!r}, m={data['m']!r}")
        g = zforms.make_zform(data["n"], data["m"], zforms.rational_entry(data["q"]))
        tables = zforms.presentation(g)
    else:
        tables = zforms.presentation_from_json(data)
    n, m, q_abs = zforms.classify(*tables)
    return {"n": n, "m": m, "abs_q": str(q_abs)}


def _kind_heading(args, ps_flags: dict) -> dict:
    """The header keys of a module or contract table's kind: "lambda" for
    --kind ind and pro, one per flag of ps_flags (flag -> parsed value) for
    --kind ps.  Each of these flags is required by its kinds and applies
    only to them, and eps must be a residue for n: a usage error names the
    first given flag that does not apply, else the first rule broken."""
    if args.kind == "ps":
        given, kinds = {"--lambda": args.lam}, "ind and pro"
    else:
        given, kinds = ps_flags, "ps"
    for flag, value in given.items():
        if value is not None:
            raise UsageError(f"{flag} applies only to --kind {kinds}, not --kind {args.kind}")
    if args.kind != "ps":
        if args.lam is None:
            raise UsageError(f"--kind {args.kind} requires --lambda")
        return {"lambda": args.lam}
    if "--parabolic" in ps_flags and args.parabolic is None:
        raise UsageError("--kind ps requires --parabolic")
    if args.eps is None or args.mu is None:
        raise UsageError("--kind ps requires --eps and --mu")
    _check_eps_residue(args.eps, args.n)
    return {flag[2:]: str(value) for flag, value in ps_flags.items()}


def _run_module(args) -> dict:
    from . import weightmods, zforms

    heading = _kind_heading(
        args, {"--parabolic": args.parabolic, "--eps": args.eps, "--mu": args.mu}
    )
    if args.kind == "ps":
        if args.parabolic == "qpp":
            # m = 2n is a constraint between flags, so a usage error
            try:
                zforms.parabolic_q(args.n, args.m, "qpp")
            except ValueError as exc:
                raise UsageError(exc) from None
        M = weightmods.principal_series(args.n, args.m, args.parabolic, args.eps, args.mu)
    else:
        build = weightmods.induced_module if args.kind == "ind" else weightmods.produced_module
        M = build(zforms.make_zform(args.n, args.m, 1), args.lam)
    header = {"kind": args.kind, "n": args.n, "m": args.m, **heading}
    return _table_doc(M, header, *args.window)


def _table_doc(M, header: dict, lo: int, hi: int) -> dict:
    """The windowed coefficient table of a module, after its header keys."""
    from . import weightmods

    doc = {
        **header,
        "window": [lo, hi],
        "columns": ["index", "weight", *M.generators],
        "rows": weightmods.module_rows(M, lo, hi),
    }
    if M.vanishing_reason is not None:
        doc["vanishing_reason"] = M.vanishing_reason
    return doc


def _run_lattice(args) -> dict:
    _check_eps_residue(args.eps, args.n)
    report = dyadic.integral_model(
        args.variant, args.n, args.m, args.eps, args.mu, args.window
    )
    agrees = None
    if args.oracle:
        _check_oracle_reach(report)
        agrees = dyadic.oracle_check_report(report)
    return report.to_json(oracle_agrees=agrees)


def _check_oracle_reach(report) -> None:
    """The q and qp oracle chains run from p to the support boundary and
    must end within the oracle's depth."""
    if not report.exponents or report.support.kind == "all":
        return
    bound = report.support.bound
    far = max(report.exponents, key=lambda p: abs(p - bound))
    steps = abs(far - bound)
    if steps >= dyadic.ORACLE_DEPTH:
        raise UsageError(
            f"--oracle: index {far} is {steps} steps from the support boundary "
            f"{bound}; the oracle of depth {dyadic.ORACLE_DEPTH} reaches at most "
            f"{dyadic.ORACLE_DEPTH - 1}"
        )


def _run_contract(args) -> dict:
    from . import contraction

    ring = POLY if args.ring == "poly" else LAURENT_RING
    heading = _kind_heading(args, {"--eps": args.eps, "--mu": args.mu})
    if args.kind == "ps":
        M = contraction.contracted_ps(args.eps, args.mu, ring, n=args.n)
    else:
        ind = args.kind == "ind"
        build = contraction.contracted_induced if ind else contraction.contracted_produced
        M = build(args.lam, args.n)
    header = {"kind": args.kind, "n": args.n, **heading, "ring": ring.name}
    return _table_doc(M, header, *args.window)


def _run_bw(args) -> dict:
    lam, op = args.lam, args.op
    if args.n is not None and op not in ("dual", "counit"):
        raise UsageError(f"--n applies only to --op dual and counit, not --op {op}")
    n = args.n if args.n is not None else (1 if op == "counit" else 0)
    top = lam + 2 * n if op in ("dual", "counit") else lam
    if top > BW_MAX_WEIGHT:
        raise UsageError(
            f"ladder highest weight {top} is above the limit {BW_MAX_WEIGHT} "
            "(--lambda, plus 2*--n for dual and counit)"
        )
    if op == "min":
        result = borelweil.minimal_lattice(lam).to_json()
    elif op == "max":
        result = borelweil.maximal_lattice(lam).to_json()
    elif op == "dual":
        result = borelweil.dual_lattice(borelweil.ladder_lattice(lam, n)).to_json()
    elif op == "hom":
        hom = borelweil.hom_lattice(borelweil.minimal_lattice(lam), borelweil.maximal_lattice(lam))
        result = {"from": "minimal", "to": "maximal", **hom}
    elif op == "certify":
        result = borelweil.maximality_certificate(borelweil.maximal_lattice(lam), (2, 3, 5))
    else:
        result = borelweil.counit_fraction_witness(lam, n)
        result["fraction"] = str(result["fraction"])
    return {"op": op, "lambda": lam, **result}


def _run_verify(args) -> dict:
    from . import verify

    return verify.run_suite(args.suite)


_HANDLERS = {
    "classify": _run_classify,
    "module": _run_module,
    "lattice": _run_lattice,
    "contract": _run_contract,
    "bw": _run_bw,
    "verify": _run_verify,
}


# -- rendering -----------------------------------------------------------------


# Compact JSON with a NUL between the items of a list or dict.  ensure_ascii
# writes a NUL inside a string as \u0000, so every raw NUL in its output is
# one of these separators, and _indented turns it into a line break.  It
# only ever sees scalars and containers of scalars at most two deep, which
# cannot hold a cycle.
_FLAT = json.JSONEncoder(check_circular=False, separators=("\0", ": ")).encode
# The scalar types of a document; anything else (no document holds a
# non-integral number) takes the general path of _indented.
_SCALARS = frozenset((str, int, bool, type(None)))


def _key(key) -> str:
    """A dict key as json writes it: a number, bool or None as a string."""
    return encode_basestring_ascii(key) if isinstance(key, str) else _FLAT({key: 0})[1:-4]


def _indented(value, newline: str) -> str:
    """json.dumps(value, indent=2) for a value whose own line starts with
    `newline` (a line break and the indent of its depth).

    A list or dict of scalars is one C-encoder call, and so is a list of
    nonempty lists of scalars (table rows, matrices, exponent pairs); any
    other nesting recurses.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        return _FLAT(value)
    inner = newline + "  "
    kinds = {*map(type, value.values() if isinstance(value, dict) else value)}
    if kinds <= _SCALARS:
        flat = _FLAT(value)
        return flat[0] + inner + flat[1:-1].replace("\0", "," + inner) + newline + flat[-1]
    if isinstance(value, dict):
        items = (_key(k) + ": " + _indented(v, inner) for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if (
        kinds <= {list, tuple}
        and all(value)
        and {*map(type, chain.from_iterable(value))} <= _SCALARS
    ):
        deeper = inner + "  "
        body = _FLAT(value)[2:-2].replace("]\0[", inner + "]," + inner + "[" + deeper)
        body = body.replace("\0", "," + deeper)
        return "[" + inner + "[" + deeper + body + inner + "]" + newline + "]"
    return "[" + inner + ("," + inner).join(_indented(v, inner) for v in value) + newline + "]"


def render_json(doc: dict) -> str:
    """Exactly json.dumps(doc, indent=2) + "\\n", built with the C encoder."""
    return _indented(doc, "\n") + "\n"


def _scalar_cell(value):
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return json.dumps(value)


def render_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "checks" in doc:
        writer.writerow(["suite", "name", "status", "detail"])
        for c in doc["checks"]:
            writer.writerow([c["suite"], c["name"], c["status"], c["detail"]])
        writer.writerow(["result", "", "pass" if doc["passed"] else "FAIL", ""])
    elif "rows" in doc:
        writer.writerow(doc["columns"])
        writer.writerows(doc["rows"])
    else:
        for key, value in doc.items():
            writer.writerow([key, _scalar_cell(value)])
    return buf.getvalue()


def render_table(doc: dict) -> str:
    if "checks" in doc:
        from . import verify

        return verify.format_report(doc) + "\n"
    if "rows" in doc:
        columns = [list(map(str, column)) for column in zip(doc["columns"], *doc["rows"])]
        line = "  ".join(f"{{:<{max(map(len, texts))}}}" for texts in columns).format
        lines = list(map(str.rstrip, starmap(line, zip(*columns))))
        header = [
            f"{key} = {value}"
            for key, value in doc.items()
            if key not in ("rows", "columns")
        ]
        return "\n".join(["; ".join(header)] + lines) + "\n"
    lines = [f"{key}: {_scalar_cell(value)}" for key, value in doc.items()]
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "table": render_table}


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(_normalize_argv(list(argv)))
    try:
        doc = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"hclat {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError, OSError, json.JSONDecodeError) as exc:
        if args.format != "json":
            print(f"hclat {args.command}: error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        text = render_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        code = EXIT_DOMAIN
    else:
        text = _RENDERERS[args.format](doc)
        code = EXIT_DOMAIN if args.command == "verify" and not doc["passed"] else EXIT_OK
    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"hclat {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
