"""Layer spans recorded from outside the program.

``Tracer.install()`` wraps public functions and methods of the qbipoly
modules and rebinds every module-level name (and class attribute alias)
that refers to the original, so ``qbipoly.cli.rodrigues_poly``,
``qbipoly.suites.rodrigues_poly`` and ``qbipoly.rodrigues.rodrigues_poly``
all reach the same wrapper.  ``uninstall()`` puts every original back.
Fraction and mpf arithmetic is not wrapped.

Spans (name, start, end, parent, request) are kept in memory in flat
arrays and written out after the run.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

#: (span name, module, attribute path); several targets may share a span name
TARGETS = (
    ("bipoly.eval", "qbipoly.bipoly", "BiPoly.eval"),
    ("bipoly.mul", "qbipoly.bipoly", "BiPoly.__mul__"),
    ("bipoly.add", "qbipoly.bipoly", "BiPoly.__add__"),
    ("linalg.interpolate_2d", "qbipoly.linalg", "interpolate_2d"),
    ("linalg.solve_exact", "qbipoly.linalg", "solve_exact"),
    ("linalg.matmul", "qbipoly.linalg", "Mat.__matmul__"),
    ("qcalc.qnum", "qbipoly.qcalc", "qnum"),
    ("qcalc.qpochhammer", "qbipoly.qcalc", "qpochhammer"),
    ("qcalc.qpochhammer_inf", "qbipoly.qcalc", "qpochhammer_inf"),
    ("qcalc.dq", "qbipoly.qcalc", "dq1"),
    ("qcalc.dq", "qbipoly.qcalc", "dq2"),
    ("qcalc.dq", "qbipoly.qcalc", "dqm1"),
    ("qcalc.dq", "qbipoly.qcalc", "dqm2"),
    ("qcalc.dq_nm_table", "qbipoly.qcalc", "dq_nm_table"),
    ("qcalc.phi_bivariate", "qbipoly.qcalc", "phi_bivariate"),
    ("equation.apply_operator", "qbipoly.equation", "apply_operator"),
    ("equation.admissibility", "qbipoly.equation", "admissibility"),
    ("equation.derived_coeffs", "qbipoly.equation", "derived_coeffs"),
    ("pearson.build_pearson", "qbipoly.pearson", "build_pearson"),
    ("pearson.verify_pearson_identities", "qbipoly.pearson", "verify_pearson_identities"),
    ("pearson.weight_value", "qbipoly.pearson", "WeightEvaluator.value"),
    ("pearson.base_weight", "qbipoly.pearson", "base_weight"),
    ("monic.operator_blocks", "qbipoly.monic", "operator_blocks"),
    ("monic.ghat_oracle", "qbipoly.monic", "ghat_oracle"),
    ("monic.ttr_matrices", "qbipoly.monic", "ttr_matrices"),
    ("monic.generate_monic_oracle", "qbipoly.monic", "generate_monic_oracle"),
    ("monic.generate_monic_rf", "qbipoly.monic", "generate_monic_rf"),
    ("rodrigues.rodrigues_poly", "qbipoly.rodrigues", "rodrigues_poly"),
    ("bigqjacobi.MomentTable", "qbipoly.bigqjacobi", "MomentTable.__init__"),
    ("bigqjacobi.integrate", "qbipoly.bigqjacobi", "MomentTable.integrate"),
    ("bigqjacobi.monic_hypergeometric", "qbipoly.bigqjacobi", "monic_hypergeometric"),
    ("bigqjacobi.nonmonic_poly", "qbipoly.bigqjacobi", "nonmonic_poly"),
    ("bigqjacobi.limit_check", "qbipoly.bigqjacobi", "limit_check"),
    ("suites.orthogonality", "qbipoly.suites", "suite_orthogonality"),
    ("suites.consistency", "qbipoly.suites", "suite_consistency"),
    ("suites.recurrence", "qbipoly.suites", "suite_recurrence"),
    ("suites.limits", "qbipoly.suites", "suite_limits"),
    ("io.poly_to_json", "qbipoly.io", "poly_to_json"),
    ("io.write_atomic", "qbipoly.io", "write_json_atomic"),
    ("io.write_atomic", "qbipoly.io", "write_csv_atomic"),
    ("cli.main", "qbipoly.cli", "main"),
)

#: modules that own spans; scalars has none (its work is Fraction/mpf arithmetic)
LAYERS = ("bipoly", "linalg", "qcalc", "equation", "pearson", "monic",
          "rodrigues", "bigqjacobi", "suites", "io", "cli")

#: span groups whose share of the traced wall time says what a workload stresses
SHARES = {
    "share.moment_engine": ("bigqjacobi.MomentTable", "qcalc.qpochhammer_inf"),
    "share.rodrigues_core": ("bipoly.eval", "linalg.interpolate_2d", "qcalc.dq_nm_table"),
    "share.rodrigues_route": ("rodrigues.rodrigues_poly",),
    "share.float_lane": ("bigqjacobi.MomentTable", "bigqjacobi.integrate",
                         "qcalc.qpochhammer_inf"),
}


class Tracer:
    def __init__(self, t0: float | None = None, request: int = -1):
        self.names = []
        self._ids = {}
        self.calls = []
        self.total = []
        self.self_time = []
        self.active = []
        self.counters = {"bipoly.eval.terms": 0, "bipoly.mul.term_pairs": 0,
                         "linalg.interpolate_2d.nodes": 0, "linalg.solve_exact.max_n": 0,
                         "pearson.weight_value.cache_hits": 0,
                         "rodrigues.base_weight_calls": 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.request = request
        self._stack = []      # [span index, child time]
        self.t0 = time.perf_counter() if t0 is None else t0
        self._saved = []      # (owner, attribute, original)

    # -- bookkeeping -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.active.append(0)
        return nid

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        probe = self._probe(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if probe is not None:
                probe(args)
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_request.append(self.request)
            frame = [idx, 0.0]
            stack.append(frame)
            self.active[nid] += 1
            start = clock()
            self.span_start.append(start - self.t0)
            self.span_end.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.active[nid] -= 1
                dur = end - start
                self.span_end[idx] = end - self.t0
                self.calls[nid] += 1
                self.total[nid] += dur
                self.self_time[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _probe(self, name: str):
        c = self.counters
        if name == "bipoly.eval":
            def probe(args):
                c["bipoly.eval.terms"] += len(args[0].coeffs)
        elif name == "bipoly.mul":
            def probe(args):
                other = getattr(args[1], "coeffs", None) if len(args) > 1 else None
                c["bipoly.mul.term_pairs"] += len(args[0].coeffs) * (len(other) if other is not None else 1)
        elif name == "linalg.interpolate_2d":
            def probe(args):
                c["linalg.interpolate_2d.nodes"] += len(args[0]) * len(args[1])
        elif name == "linalg.solve_exact":
            def probe(args):
                c["linalg.solve_exact.max_n"] = max(c["linalg.solve_exact.max_n"], args[0].nrows)
        elif name == "pearson.weight_value":
            def probe(args):
                if len(args) >= 3 and (args[1], args[2]) in args[0]._cache:
                    c["pearson.weight_value.cache_hits"] += 1
        elif name == "pearson.base_weight":
            rodrigues_id = self.name_id("rodrigues.rodrigues_poly")

            def probe(args):
                if self.active[rodrigues_id]:
                    c["rodrigues.base_weight_calls"] += 1
        else:
            probe = None
        return probe

    # -- install / uninstall -----------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for span, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            wrapper = self.wrap(span, original)
            if owner_name:
                # class attribute and its aliases (__radd__ = __add__, __call__ = integrate)
                holders = [owner]
            else:
                holders = [m for n, m in list(sys.modules.items())
                           if m is not None and (n == "qbipoly" or n.startswith("qbipoly."))]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self):
        while self._saved:
            holder, name, original = self._saved.pop()
            setattr(holder, name, original)

    # -- moving spans between processes ---------------------------------------

    def export(self) -> dict:
        """Everything recorded, as plain data another process can absorb."""
        return {"names": self.names, "calls": self.calls, "total": self.total,
                "self_time": self.self_time, "counters": self.counters,
                "span_name": self.span_name, "span_parent": self.span_parent,
                "span_request": self.span_request, "span_start": self.span_start,
                "span_end": self.span_end}

    def absorb(self, data: dict):
        """Add the spans and counts of an exported tracer to this one."""
        ids = [self.name_id(n) for n in data["names"]]
        for i, nid in enumerate(ids):
            self.calls[nid] += data["calls"][i]
            self.total[nid] += data["total"][i]
            self.self_time[nid] += data["self_time"][i]
        for name, value in data["counters"].items():
            if name == "linalg.solve_exact.max_n":
                self.counters[name] = max(self.counters[name], value)
            else:
                self.counters[name] += value
        offset = len(self.span_name)
        self.span_name.extend(ids[n] for n in data["span_name"])
        self.span_parent.extend(p + offset if p >= 0 else -1 for p in data["span_parent"])
        self.span_request.extend(data["span_request"])
        self.span_start.extend(data["span_start"])
        self.span_end.extend(data["span_end"])

    # -- results -------------------------------------------------------------

    def stat(self, name: str):
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def covered(self, group) -> float:
        """Time inside spans of `group`, not counting a span nested in another
        span of the group."""
        ids = {self._ids[n] for n in group if n in self._ids}
        inside = bytearray(len(self.span_name))  # 1 when an ancestor is in the group
        total = 0.0
        for i, (nid, parent) in enumerate(zip(self.span_name, self.span_parent)):
            nested = parent >= 0 and (inside[parent] or self.span_name[parent] in ids)
            inside[i] = nested
            if nid in ids and not nested:
                total += self.span_end[i] - self.span_start[i]
        return total

    def write_spans(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\trequest\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_request[i]}\n")
