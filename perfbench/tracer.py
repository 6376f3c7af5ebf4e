"""Spans around the library's public functions, recorded from outside.

The tracer rebinds each traced function in every ``subdirect.*``
namespace that holds it (and wraps the ``Subgroup`` constructor), so the
program runs unchanged.  Each span keeps its name, start, end, parent
span and op id in flat arrays; self time is a span's duration minus the
time its direct children cover.  A name the library no longer defines is
skipped and reads as zero calls.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "groups": ("Subgroup", "subgroup_generated", "mutual_commutator",
               "commutator_subgroup", "is_normal", "quotient_group",
               "subgroup_quotient", "abelianization", "find_isomorphism",
               "is_isomorphic", "automorphisms", "all_subgroups",
               "normal_subgroups", "sylow_subgroup"),
    "products": ("direct_product", "enumerate_subdirect", "star_product",
                 "is_section", "goursat_quintuple", "subgroup_from_quintuple",
                 "contains_twisted_diagonal", "certify"),
    "extensibility": ("build_report", "kernel_commutator_data",
                      "is_p_extensible", "cyclic_sylow_sufficient",
                      "central_inextensibility", "obstruction_quotient"),
    "homoracle": ("enumerate_homs", "restriction_kernel_image_sizes",
                  "oracle_is_p_extensible"),
    "records": ("analyze_subgroup", "write_records"),
    "specs": ("load_group",),
    "presets": ("identify_small_group",),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in LAYERS.items()
                   for name in names)

# Work and waste counters, summed over a process.
COUNTERS = ("mutual_commutator_pairs", "subgroup_checked", "iso_calls",
            "iso_hits", "product_calls", "product_hits", "product_bytes",
            "star_calls", "star_distinct", "restriction_rows",
            "report_bytes")


class Tracer:
    """Spans and counters of one process; install() starts recording."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.current_op = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._star_inputs: set = set()
        self._patches: list = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name_idx: int, fn, before=None, after=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.start)
            tracer.name_id.append(name_idx)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0.0)
            state = before(args, kwargs) if before is not None else None
            tracer.stack.append(sid)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = clock()
                tracer.stack.pop()
            if after is not None:
                after(state, result, args, kwargs)
            return result

        return traced

    def _hooks(self, name: str):
        """(before, after) counter hooks for the functions that have them."""
        c = self.counters
        if name == "groups.Subgroup":
            def before(args, kwargs):
                if kwargs.get("check", True):
                    c["subgroup_checked"] += 1
            return before, None
        if name == "groups.mutual_commutator":
            def before(args, kwargs):
                c["mutual_commutator_pairs"] += args[0].order * args[1].order
            return before, None
        if name == "groups.is_isomorphic":
            def after(state, result, args, kwargs):
                c["iso_calls"] += 1
                c["iso_hits"] += bool(result)
            return None, after
        if name == "products.direct_product":
            cache = getattr(sys.modules["subdirect.products"],
                            "_product_cache", None)

            def before(args, kwargs):
                return None if cache is None else len(cache)

            def after(state, result, args, kwargs):
                c["product_calls"] += 1
                if state is not None and len(cache) == state:
                    c["product_hits"] += 1
                else:
                    table = getattr(result.group, "product", None)
                    c["product_bytes"] += getattr(table, "nbytes", 0)
            return before, after
        if name == "products.star_product":
            def before(args, kwargs):
                U, V = args[0], args[1]
                key = (id(U.parent), U.mask, id(V.parent), V.mask)
                c["star_calls"] += 1
                if key not in self._star_inputs:
                    self._star_inputs.add(key)
                    c["star_distinct"] += 1
            return before, None
        if name == "homoracle.restriction_kernel_image_sizes":
            def after(state, result, args, kwargs):
                c["restriction_rows"] += int(result[0]) * int(result[1])
            return None, after
        if name == "records.write_records":
            def after(state, result, args, kwargs):
                c["report_bytes"] += os.path.getsize(args[0])
            return None, after
        return None, None

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name in every loaded subdirect module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "subdirect"
                                         or n.startswith("subdirect."))]
        for idx, name in enumerate(SPAN_NAMES):
            module_name, attr = name.split(".")
            home = sys.modules.get(f"subdirect.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            before, after = self._hooks(name)
            if isinstance(original, type):
                init = original.__init__
                self._patches.append((original, "__init__", init))
                original.__init__ = self._wrap(idx, init, before, after)
                continue
            wrapped = self._wrap(idx, original, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the counters."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=dur[nested],
                              minlength=len(dur))
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        self_s = np.bincount(names, weights=dur - covered,
                             minlength=len(SPAN_NAMES))
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(SPAN_NAMES)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(SPAN_NAMES)},
            "counters": dict(self.counters),
        }

    def write(self, path: str) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {"names": SPAN_NAMES, "spans": len(self.start),
                  "arrays": [["name", "i"], ["parent", "q"], ["op", "i"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.op, self.start,
                        self.end):
                arr.tofile(fh)
