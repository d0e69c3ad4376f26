"""Document pools of the four benchmark workloads and the seeded pass draw.

A document is a tuple of CLI arguments for ``hclat.cli.main``.  Each
workload is a list of strata; a stratum is a pool of documents and the
number drawn from it for one pass.  The seed only chooses which pool
documents a pass runs and in what order: the pools themselves (lambda
ceilings, window widths, oracle depth) never depend on it.

Pure stdlib and independent of ``hclat``, so building a pass list costs
the same whatever the program under test does.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("bw_build", "bw_query", "dyadic", "modules")
TABLE_DIR = "perfbench/tables"
TABLE_COUNT = 25
FORMATS = ("json", "csv", "table")


def _doc(text: str) -> tuple:
    return tuple(text.split())


def _bw_build() -> list:
    return [
        (f"bw-{op}", [_doc(f"bw --lambda {lam} --op {op}") for lam in range(17)], 17)
        for op in ("min", "max", "dual", "counit")
    ]


def _bw_query() -> list:
    return [
        (f"bw-{op}", [_doc(f"bw --lambda {lam} --op {op}") for lam in range(10)], 10)
        for op in ("hom", "certify")
    ]


# -- dyadic ----------------------------------------------------------------------


def _nonvanishing(variant: str, n: int, m: int, eps: Fraction, mu: int) -> bool:
    if variant == "q":
        return (Fraction(mu, 2 * n * m) + eps).denominator == 1
    if variant == "qp":
        return (Fraction(mu, 2 * n * m) - eps).denominator == 1
    return mu % 2 == 0


def _qpp_pivot(n: int, eps: Fraction, mu: int):
    """The index p0 from which the qpp oracle chains terminate: for p >= p0
    the chain stops after p - p0 steps, below it the walk runs to full
    depth.  None when p0 is not an integer (no chain terminates)."""
    pivot = -eps - Fraction(mu, 2 * n)
    return int(pivot) if pivot.denominator == 1 else None


def _window9(variant: str, n: int, m: int, eps: Fraction, mu: int, nonzero: bool) -> tuple:
    """A width-9 window.  For nonzero q and qp models it sits on the support
    edge; for qpp it holds three full-depth oracle walks and six chains that
    terminate within six steps, so every qpp oracle document costs the same."""
    if not nonzero:
        return -4, 4
    if variant == "q":
        top = int(-Fraction(mu, 2 * n * m) - eps)
        return top - 8, top
    if variant == "qp":
        bottom = int(Fraction(mu, 2 * n * m) - eps)
        return bottom, bottom + 8
    pivot = _qpp_pivot(n, eps, mu)
    return pivot - 3, pivot + 5


def _lattice_doc(variant, n, m, eps, mu, window, oracle) -> tuple:
    lo, hi = window
    text = f"lattice --variant {variant} --n {n} --m {m} --eps {eps} --mu {mu} --window {lo}:{hi}"
    return _doc(text + (" --oracle" if oracle else ""))


def _dyadic_params():
    for n in (1, 2):
        for m in (1, 2, 3):
            for k in range(n):
                for mu in range(-12, 13):
                    yield n, m, Fraction(k, n), mu


# documents drawn per pass from each (variant, oracle, nonzero) stratum
_DYADIC_DRAWS = {
    (False, True): 12,
    (False, False): 10,
    (True, True): 9,
    (True, False): 3,
}
_DYADIC_QPP_ORACLE_NONZERO = 4
_DYADIC_POOL_CAP = 24


def _dyadic() -> list:
    strata = []
    for variant in ("q", "qp", "qpp"):
        for oracle in (False, True):
            for nonzero in (True, False):
                pool = [
                    _lattice_doc(
                        variant, n, m, eps, mu,
                        _window9(variant, n, m, eps, mu, nonzero), oracle,
                    )
                    for n, m, eps, mu in _dyadic_params()
                    if _nonvanishing(variant, n, m, eps, mu) == nonzero
                    and not (variant == "qpp" and nonzero and _qpp_pivot(n, eps, mu) is None)
                ]
                stride = max(1, len(pool) // _DYADIC_POOL_CAP)
                pool = pool[::stride][:_DYADIC_POOL_CAP]
                draws = _DYADIC_DRAWS[oracle, nonzero]
                if variant == "qpp" and oracle and nonzero:
                    draws = _DYADIC_QPP_ORACLE_NONZERO
                name = f"{variant}-{'oracle' if oracle else 'formula'}-{'nonzero' if nonzero else 'vanishing'}"
                strata.append((name, pool, draws))
    wide = [
        _doc(f"lattice --variant q --mu {mu} --window -400:400") for mu in (-4, -2, 0, 2)
    ] + [
        _doc(f"lattice --variant qp --mu {mu} --window -400:400") for mu in (-2, 0, 2, 4)
    ]
    strata.append(("wide-formula", wide, 3))
    return strata


# -- modules ---------------------------------------------------------------------

_WIDE = "--window -300:300"


def _module_pools() -> dict:
    pools = {}
    for kind in ("ind", "pro"):
        pools[kind] = [
            f"module --kind {kind} --n {n} --m {m} --lambda {lam} {_WIDE}"
            for n, m in ((1, 1), (2, 3), (3, 2))
            for lam in (-3, 0, 4)
        ]
    shapes = {"q": ((1, 1), (2, 3)), "qp": ((1, 1), (2, 3)), "qpp": ((1, 2), (2, 4))}
    pools["ps"] = [
        f"module --kind ps --parabolic {par} --n {n} --m {m} --eps {Fraction(k, n)} --mu {mu} {_WIDE}"
        for par, nms in shapes.items()
        for n, m in nms
        for k in range(n)
        for mu in ("-2", "5/3")
    ]
    return pools


def _contract_pools() -> dict:
    pools = {}
    for kind in ("ind", "pro"):
        pools[kind] = [
            f"contract --kind {kind} --n {n} --lambda {lam} --ring {ring} {_WIDE}"
            for n in (1, 2, 3)
            for lam in (-2, 0, 3)
            for ring in ("poly", "laurent")
        ]
    pools["ps"] = [
        f"contract --kind ps --n {n} --eps {Fraction(k, n)} --mu {mu} --ring {ring} {_WIDE}"
        for n in (1, 2)
        for k in range(n)
        for mu in ("2z+z^2", "3z", "z-z^3")
        for ring in ("poly", "laurent")
    ] + [
        f"contract --kind ps --n 1 --eps 0 --mu {mu} --ring laurent {_WIDE}"
        for mu in ("2z+z^-1", "1-z^-2")
    ]
    return pools


# expected failures (exit 1 domain error, exit 2 usage error) and one model
# that is the zero module over Q[z] (exit 0 with a vanishing_reason)
_ERROR_DOCS = (
    f"contract --kind ps --eps 0 --mu 2z+z^-1 --ring poly {_WIDE}",
    f"contract --kind ps --eps 0 --mu 1-z^-2 --ring poly {_WIDE} --format csv",
    f"contract --kind ps --eps 0 --mu 1+z --ring poly {_WIDE}",
    f"module --kind ind {_WIDE}",
    f"module --kind ps --eps 0 --mu 1 {_WIDE}",
    f"module --kind ps --parabolic qpp --n 1 --m 1 --eps 0 --mu 2 {_WIDE}",
    f"module --kind ps --parabolic q --n 2 --eps 1/3 --mu 1 {_WIDE}",
    f"contract --kind ps --mu 3z {_WIDE}",
    "module --kind ind --lambda 1 --window 5:1",
    "module --kind sideways --lambda 1 --window 0:1",
)


def table_path(i: int) -> str:
    return f"{TABLE_DIR}/t{i:02d}.json"


def _modules() -> list:
    strata = []
    for command, pools in (("module", _module_pools()), ("contract", _contract_pools())):
        for kind, pool in pools.items():
            for fmt in FORMATS:
                docs = [_doc(f"{text} --format {fmt}") for text in pool]
                strata.append((f"{command}-{kind}-{fmt}", docs, 4))
    strata.append(("errors", [_doc(text) for text in _ERROR_DOCS], 5))
    strata.append((
        "classify",
        [_doc(f"classify --table {table_path(i)}") for i in range(TABLE_COUNT)],
        TABLE_COUNT,
    ))
    for suite in ("hecke", "modules", "contraction"):
        docs = [_doc(f"verify --suite {suite} --format {fmt}") for fmt in FORMATS]
        strata.append((f"verify-{suite}", docs, 1))
    return strata


_STRATA = {"bw_build": _bw_build, "bw_query": _bw_query, "dyadic": _dyadic, "modules": _modules}


def strata(workload: str) -> list:
    """[(stratum name, pool of documents, documents drawn per pass)]."""
    return _STRATA[workload]()


def pool(workload: str) -> list:
    """Every document a pass of this workload can run."""
    return [doc for _, docs, _ in strata(workload) for doc in docs]


def draw(workload: str, seed: int, pass_index: int) -> list:
    """The documents of one pass, in the order they run.

    Each stratum's pool is shuffled once per seed and the passes of a run
    take consecutive slices of it, cycling, so a run covers its pools
    evenly instead of drawing the same document twice by chance.
    """
    docs = []
    for name, pool_docs, count in strata(workload):
        order = list(pool_docs)
        random.Random(f"{workload}/{seed}/{name}").shuffle(order)
        start = pass_index * count
        docs.extend(order[(start + k) % len(order)] for k in range(count))
    random.Random(f"{workload}/{seed}/{pass_index}").shuffle(docs)
    return docs


def doc_id(doc: tuple) -> str:
    return " ".join(doc)
