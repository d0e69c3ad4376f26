"""Outside-in span tracing of the public functions of each ``hclat`` layer.

``Tracer.install`` replaces every traced function with a wrapper: the
module attribute, every ``from ... import`` binding of it in the other
``hclat`` modules, every module-level dict that holds it (dispatch
tables such as ``cli._RENDERERS``) and, for methods, every class
attribute bound to it (``__radd__ = __add__``).  Each call records a
span (name, start, end, parent, outcome flags) in flat arrays; nothing
is aggregated until the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# layer -> traced functions ("Class.method" for methods)
LAYERS = {
    "scalars": ("ord2", "Laurent.__mul__", "Laurent.__add__", "Laurent.parse"),
    "pbw": ("normal_form", "mul", "left_mul_gen"),
    "zforms": ("make_zform", "presentation", "classify", "iwasawa_decompose"),
    "hecke": ("hecke_mul", "smash_mul", "project"),
    "weightmods": (
        "induced_module", "produced_module", "principal_series",
        "check_module_axioms", "module_rows",
    ),
    "contraction": (
        "contracted_induced", "contracted_produced", "contracted_ps",
        "check_contraction_axioms", "contraction_rows", "polynomial_lattice",
        "coefficient_roots",
    ),
    "dyadic": (
        "integral_model", "exponent_M", "exponent_N", "oracle_min_exponent",
        "oracle_check_report",
    ),
    "borelweil": (
        "minimal_lattice", "maximal_lattice", "dual_lattice", "generated_lattice",
        "hom_lattice", "maximality_certificate", "counit_fraction_witness",
        "RowLattice.add", "RowLattice.contains", "RowLattice.coordinates",
        "RowLattice.basis",
    ),
    "verify": ("run_suite",),
    "cli": ("main", "render_json", "render_csv", "render_table"),
}

# functions the CLI handlers call directly; they also report total time
ENTRY_POINTS = (
    "cli.main",
    "verify.run_suite",
    "dyadic.integral_model",
    "dyadic.oracle_check_report",
    "borelweil.minimal_lattice",
    "borelweil.maximal_lattice",
    "borelweil.dual_lattice",
    "borelweil.hom_lattice",
    "borelweil.maximality_certificate",
    "borelweil.counit_fraction_witness",
    "weightmods.induced_module",
    "weightmods.produced_module",
    "weightmods.principal_series",
    "weightmods.module_rows",
    "contraction.contracted_induced",
    "contraction.contracted_produced",
    "contraction.contracted_ps",
    "contraction.contraction_rows",
    "zforms.classify",
)

ROOT = "cli.main"
GREW = "borelweil.RowLattice.add"
REFUTED = "dyadic.oracle_min_exponent"

# span flags
RETURNED_TRUE = 1
RAISED = 2
OUTERMOST = 4


def traced_names() -> list:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def per_layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in traced_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in ENTRY_POINTS:
            out.append((f"{name}.total_s", "s", "lower"))
    out += [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    out.append((f"{GREW}.grew_frac", "ratio", "higher"))
    out.append((f"{REFUTED}.refuted", "count", "lower"))
    out.append(("trace_overhead_frac", "ratio", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.names = traced_names()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_flags = array("b")
        self._stack = [-1]
        self._depth = [0] * len(self.names)

    def _wrap(self, nid: int, fn):
        names, parents = self.span_name, self.span_parent
        starts, ends, flags = self.span_start, self.span_end, self.span_flags
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            flags.append(OUTERMOST if depth[nid] == 0 else 0)
            depth[nid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if result is True:
                    flags[idx] |= RETURNED_TRUE
                return result
            except BaseException:
                flags[idx] |= RAISED
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[nid] -= 1

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an ``hclat`` module binds it."""
        replace = {}
        for nid, name in enumerate(self.names):
            layer, _, fn_name = name.partition(".")
            owner = importlib.import_module(f"hclat.{layer}")
            cls_name, _, attr = fn_name.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(nid, raw.__func__))
            else:
                wrapped = self._wrap(nid, raw)
            replace[id(raw)] = (raw, wrapped)

        def swap(value):
            hit = replace.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "hclat" or key.startswith("hclat.")
        ]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                new = swap(value)
                if new is not None:
                    setattr(mod, key, new)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        new = swap(v)
                        if new is not None:
                            value[k] = new
                elif isinstance(value, type) and value.__module__.startswith("hclat"):
                    for k, v in list(vars(value).items()):
                        new = swap(v)
                        if new is not None:
                            setattr(value, k, new)

    def summary(self) -> dict:
        """Per traced function: calls, self_s, total_s, returned_true, raised."""
        names, parents = self.span_name, self.span_parent
        starts, ends, flags = self.span_start, self.span_end, self.span_flags
        count = len(names)
        durations = [ends[i] - starts[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += durations[i]
        stats = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "returned_true": 0, "raised": 0}
            for name in self.names
        }
        for i in range(count):
            entry = stats[self.names[names[i]]]
            entry["calls"] += 1
            entry["self_s"] += durations[i] - child[i]
            f = flags[i]
            if f & OUTERMOST:
                entry["total_s"] += durations[i]
            if f & RETURNED_TRUE:
                entry["returned_true"] += 1
            if f & RAISED:
                entry["raised"] += 1
        return stats

    def write_spans(self, path: str, doc_ids: list, doc_starts: list) -> None:
        """Tab-separated spans: id, name, parent id, start, end, flags.

        Spans whose parent is -1 are document roots; ``doc_ids`` and
        ``doc_starts`` name them in order.
        """
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# documents\n")
            for doc, start in zip(doc_ids, doc_starts):
                handle.write(f"# {start:.9f}\t{doc}\n")
            handle.write("id\tname\tparent\tstart\tend\tflags\n")
            names = self.names
            for i in range(len(self.span_name)):
                handle.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t{self.span_flags[i]}\n"
                )
