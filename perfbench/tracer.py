"""In-memory span tracer for the legtorus layers.

`Tracer.install()` wraps the library functions the workloads reach (public
ones, plus `ainfty._expand_twist`, which the twist counts need) with span
recorders.  A span is
(name, start, end, parent, item): `parent` is the index of the enclosing span
(-1 at the top) and `item` the index of the benchmark item that caused it, so
all spans of one item share that identifier.  Spans stay in memory until
`dump()` writes them out at the end of the batch.

Every binding of a wrapped function is replaced, not just the one in its home
module: `ainfty` imports `lambda_copy_dga` and `pq_matrix` by name, and
`sheafcat` and `torusrep` import `pq_matrix` by name, so patching only
`freedga` would miss their calls.  Methods are patched on their class, which
every importer shares.

A call to a span name that is already open (recursion such as `pq_matrix`
calling itself, or `ext1_dim` calling `Ext1Space`) runs unrecorded inside the
open span, so `calls` counts entries, not recursion depth.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name) for every library function the workloads
# reach; "Class.method" attributes are patched on the class.  The library's
# layers are the module names.
TARGETS = [
    ("exactalg", "rref", "exactalg.rref"),
    ("exactalg", "det", "exactalg.det"),
    ("exactalg", "rank", "exactalg.rank"),
    ("exactalg", "rank_kernel", "exactalg.rank_kernel"),
    ("exactalg", "solve", "exactalg.solve"),
    ("exactalg", "inverse", "exactalg.inverse"),
    ("exactalg", "row_space", "exactalg.row_space"),
    ("exactalg", "left_inverse", "exactalg.left_inverse"),
    ("exactalg", "kron", "exactalg.kron"),
    ("freedga", "pq_matrix", "freedga.pq_matrix"),
    ("freedga", "pq_polynomial", "freedga.pq_polynomial"),
    ("freedga", "build_lambda_dga", "freedga.build_lambda_dga"),
    ("freedga", "lambda_dga", "freedga.lambda_dga"),
    ("freedga", "kcopy_dga", "freedga.kcopy_dga"),
    ("freedga", "lambda_copy_dga", "freedga.lambda_copy_dga"),
    ("ainfty", "Representation.__init__", "ainfty.representation"),
    ("ainfty", "mu_k", "ainfty.mu_k"),
    ("ainfty", "TwistedCopy.top_diff", "ainfty.twist.lookup"),
    ("ainfty", "_expand_twist", "ainfty.twist.expand"),
    ("ainfty", "mu1_matrix", "ainfty.mu1_matrix"),
    ("ainfty", "hom_cohomology", "ainfty.hom_cohomology"),
    ("ainfty", "HomCohomology.__init__", "ainfty.hom_cohomology"),
    ("torusrep", "cohomology_closed", "torusrep.cohomology_closed"),
    ("torusrep", "TorusHomClosed.__init__", "torusrep.cohomology_closed"),
    ("torusrep", "reduced_complex_matrix", "torusrep.reduced_complex_matrix"),
    ("torusrep", "mu1_closed", "torusrep.mu1_closed"),
    ("sheafcat", "SheafObject.__init__", "sheafcat.sheaf_object"),
    ("sheafcat", "functor_obj", "sheafcat.functor_obj"),
    ("sheafcat", "ext0", "sheafcat.ext"),
    ("sheafcat", "ext0_dim", "sheafcat.ext"),
    ("sheafcat", "ext1", "sheafcat.ext"),
    ("sheafcat", "ext1_dim", "sheafcat.ext"),
    ("sheafcat", "Ext1Space.__init__", "sheafcat.ext"),
    ("cech", "build_tiling", "cech.build_tiling"),
    ("cech", "CechComplex.__init__", "cech.assemble"),
    ("cech", "CechComplex.cohomology_dims", "cech.rank"),
    ("cech", "CechComplex.rank_d1", "cech.rank"),
    ("cech", "CechComplex.h2_certificate", "cech.rank"),
]

LAYERS = ("exactalg", "freedga", "ainfty", "torusrep", "sheafcat", "cech")


def _count_rref(counts, args, result):
    rows, cols = args[0].shape
    counts["exactalg.rref.cells"] += rows * cols
    counts["exactalg.rref.max_cells"] = max(counts["exactalg.rref.max_cells"], rows * cols)


def _count_copy_terms(counts, args, result):
    counts["freedga.copy_terms"] += sum(len(f.terms) for f in result.diff.values())


def _count_twist_terms(counts, args, result):
    counts["ainfty.twist.terms"] += len(result)


def _count_cech(counts, args, result):
    cx = args[0]
    counts["cech.local_solves"] += (len(cx.tile_space) + len(cx.edge_space)
                                    + len(cx.vertex_space))
    counts["cech.c1_dim"] += cx.c1_dim
    counts["cech.d1.nonzeros"] += int((cx.d1 != 0).sum())
    counts["cech.d1.cells"] += cx.d1.size


# Work counts taken from a call's arguments and result, outside its span.
MEASURES = {
    "exactalg.rref": _count_rref,
    "freedga.kcopy_dga": _count_copy_terms,
    "ainfty.twist.expand": _count_twist_terms,
    "cech.assemble": _count_cech,
}


def _lookup(modname, attr):
    owner = sys.modules[f"legtorus.{modname}"]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Records spans and counts for the calls made while it is installed."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(int)
        self.item = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: dict[str, bool] = defaultdict(bool)

    def _wrap(self, fn, name):
        spans, stack, is_open = self.spans, self._stack, self._open
        measure = MEASURES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if is_open[name]:
                return fn(*args, **kwargs)
            is_open[name] = True
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                is_open[name] = False
                spans[idx] = (name, t0, t1, parent, self.item)
            if measure is not None:
                measure(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns "module.attr" for each binding patched.

        A target the library no longer has is listed in `self.missing` and its
        counts stay 0; the benchmark's self-test requires this list empty.
        """
        mods = [m for key, m in sys.modules.items()
                if key == "legtorus" or key.startswith("legtorus.")]
        patched = []
        for modname, attr, name in TARGETS:
            try:
                owner, leaf = _lookup(modname, attr)
                fn = getattr(owner, leaf)
            except (KeyError, AttributeError):
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(fn, name)
            if isinstance(owner, type):
                setattr(owner, leaf, wrapper)
                patched.append(f"{modname}.{attr}")
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        patched.append(f"{mod.__name__.split('.')[-1]}.{key}")
        return patched

    @contextmanager
    def span(self, name: str, item: int = -1):
        """A span opened by the benchmark itself, e.g. one per item."""
        prev_item, self.item = self.item, item
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, item)
            self.item = prev_item

    # -- results ---------------------------------------------------------

    def per_name(self) -> dict:
        """calls, self_s and layer entries for every span name.

        Self time is the span's duration minus its child spans' durations;
        spans nest strictly (one thread), so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "entries": 0})
        for idx, (name, t0, t1, parent, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - child[idx]
            layer = name.split(".")[0]
            if parent < 0 or self.spans[parent][0].split(".")[0] != layer:
                rec["entries"] += 1
        return dict(out)

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json (counts and self times)."""
        names = self.per_name()

        def get(name, key):
            return names.get(name, {}).get(key, 0)

        def layer_sum(layer, key):
            return sum(rec[key] for name, rec in names.items()
                       if name.split(".")[0] == layer)

        c = self.counts
        lookups = get("ainfty.twist.lookup", "calls")
        expansions = get("ainfty.twist.expand", "calls")
        out = {
            "exactalg.rref.calls": get("exactalg.rref", "calls"),
            "exactalg.rref.self_s": get("exactalg.rref", "self_s"),
            "exactalg.rref.cells": c["exactalg.rref.cells"],
            "exactalg.rref.max_cells": c["exactalg.rref.max_cells"],
            "exactalg.det.calls": get("exactalg.det", "calls"),
            "exactalg.det.self_s": get("exactalg.det", "self_s"),
            "exactalg.kron.calls": get("exactalg.kron", "calls"),
            "exactalg.kron.self_s": get("exactalg.kron", "self_s"),
            "cech.build_tiling.self_s": get("cech.build_tiling", "self_s"),
            "cech.assemble.self_s": get("cech.assemble", "self_s"),
            "cech.rank.self_s": get("cech.rank", "self_s"),
            "cech.local_solves": c["cech.local_solves"],
            "cech.c1_dim": c["cech.c1_dim"],
            "cech.d1.density": (c["cech.d1.nonzeros"] / c["cech.d1.cells"]
                                if c["cech.d1.cells"] else 0.0),
            "freedga.kcopy_dga.calls": get("freedga.kcopy_dga", "calls"),
            "freedga.kcopy_dga.self_s": get("freedga.kcopy_dga", "self_s"),
            "freedga.copy_terms": c["freedga.copy_terms"],
            "freedga.pq_matrix.calls": get("freedga.pq_matrix", "calls"),
            "ainfty.mu_k.calls": get("ainfty.mu_k", "calls"),
            "ainfty.mu_k.self_s": get("ainfty.mu_k", "self_s"),
            "ainfty.twist.lookups": lookups,
            "ainfty.twist.expansions": expansions,
            "ainfty.twist.reuse_ratio": 1 - expansions / lookups if lookups else 0.0,
            "ainfty.twist.terms": c["ainfty.twist.terms"],
            "ainfty.hom_cohomology.calls": get("ainfty.hom_cohomology", "calls"),
            "ainfty.hom_cohomology.self_s": get("ainfty.hom_cohomology", "self_s"),
            "ainfty.representation.self_s": get("ainfty.representation", "self_s"),
            "sheafcat.ext.calls": get("sheafcat.ext", "calls"),
            "sheafcat.ext.self_s": get("sheafcat.ext", "self_s"),
            "sheafcat.functor_obj.self_s": get("sheafcat.functor_obj", "self_s"),
            "torusrep.calls": layer_sum("torusrep", "entries"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_sum(layer, "self_s")
        return out

    def dump(self, path, origin: float):
        """Write the spans as JSON, times in seconds from `origin`."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(t0 - origin, 7), round(t1 - origin, 7), parent, item]
                for n, t0, t1, parent, item in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "item"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))

