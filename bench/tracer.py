"""Span recording around redform's public functions, from outside ``src/``.

A ``Tracer`` wraps the boundaries listed in ``BOUNDARIES`` and rebinds each
wrapper in every ``redform`` module namespace that holds the original object
(the package imports names with ``from .linalg import nullspace`` style
imports, so patching only the defining module would miss callers).  The
wrappers are in place only between ``enable()`` and ``disable()``; untraced
runs create no tracer and execute the unmodified functions.

A span is (name, start, end, parent, job).  Spans are kept in flat arrays
while the run lasts and written as JSON lines afterwards.  Self time is the
span's duration minus the part covered by its child spans; spans nest
strictly because one job runs at a time on one thread.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

# boundary name -> (module, attribute) pairs; "Class.method" patches the class
BOUNDARIES = {
    "cli.main": [("cli", "main")],
    "cli.build_parser": [("cli", "build_parser")],
    "jsonio.parse": [
        ("jsonio", name)
        for name in (
            "load_json", "system_from_json", "matrix_from_json", "vector_from_json",
            "lie_basis_from_json", "end_basis_from_json", "invariants_from_json",
            "lines_from_json", "certificate_from_json",
        )
    ],
    "jsonio.emit": [
        ("jsonio", name)
        for name in (
            "dumps", "matrix_to_lists", "system_to_json", "matrix_to_json",
            "solution_space_to_json", "certificate_to_json", "series_to_json",
        )
    ],
    "ratfun.parse_ratfn": [("ratfun", "parse_ratfn")],
    "ratfun.ratfn_str": [("ratfun", "ratfn_str")],
    "ratfun.gcd": [("ratfun", "Poly.gcd"), ("ratfun", "Poly.lcm"), ("ratfun", "Poly.xgcd")],
    "ratfun.integer_roots": [("ratfun", "integer_roots")],
    "linalg.inv": [("linalg", "Mat.inv")],
    "linalg.det": [("linalg", "Mat.det")],
    "linalg.charpoly": [("linalg", "charpoly")],
    "constructions.constr_lie": [("constructions", "constr_lie")],
    "constructions.constr_group": [("constructions", "constr_group")],
    "systems.gauge": [("systems", "gauge")],
    "systems.pullback": [("systems", "pullback")],
    "systems.singularities": [("systems", "singularities")],
    "series.fundamental_series": [("series", "fundamental_series")],
    "series.from_ratfn": [("series", "TruncSeries.from_ratfn")],
    "solutions.rational_solutions": [("solutions", "rational_solutions")],
    "katz.eigenring": [("katz", "eigenring")],
    "katz.check_nabla_stable_span": [("katz", "check_nabla_stable_span")],
    "reduction.reduce_by_diagonalization": [("reduction", "reduce_by_diagonalization")],
    "reduction.ReductionCertificate.verify": [("reduction", "ReductionCertificate.verify")],
    "reduction.wei_norman": [("reduction", "wei_norman")],
    "reduction.is_reduced": [("reduction", "is_reduced")],
}

# boundaries whose wrapper picks the span name or records sizes itself
SPECIAL = ("linalg.rref.qq", "linalg.rref.rf", "linalg.matmul")
SPAN_NAMES = tuple(BOUNDARIES) + SPECIAL
LAYERS = (
    "cli", "jsonio", "ratfun", "linalg", "constructions", "systems",
    "series", "solutions", "katz", "reduction",
)
COUNTS = (
    "jsonio.emit.bytes", "jsonio.emit.max_bytes", "ratfun.ratfn_new.calls", "linalg.rref.qq.cells",
    "linalg.rref.qq.nnz", "linalg.rref.rf.cells", "series.terms",
    "solutions.spaces", "solutions.complete", "solutions.ansatz.count",
    "solutions.ansatz.rows", "solutions.ansatz.cols", "solutions.kernel_dim",
)


class Tracer:
    """Spans of the redform package ``rf``; wrappers are in place only
    between ``enable()`` and ``disable()``."""

    def __init__(self, rf):
        self.names = list(SPAN_NAMES)
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        # 1 when no span of the same name is open around this one
        self.outer = array("b")
        self.open_count = [0] * len(self.names)
        self.stack = []
        self.current_job = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.ansatz_sizes = []
        # (owner, attribute, original, wrapper)
        self._patches = []
        self._install(rf.__name__)

    # -- recording -------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.job.append(self.current_job)
        self.outer.append(self.open_count[nid] == 0)
        self.open_count[nid] += 1
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, nid: int):
        self.end[idx] = perf_counter()
        self.stack.pop()
        self.open_count[nid] -= 1

    def wrap(self, fn, name: str):
        nid = self.name_id[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, nid)

        return traced

    # -- installing ------------------------------------------------------

    def _install(self, package: str):
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        # module-level functions: id(original) -> (original, wrapper), rebound
        # below wherever a module namespace holds the original
        functions = {}
        for span, targets in BOUNDARIES.items():
            for mod_name, attr in targets:
                mod = by_name[mod_name]
                if "." not in attr:
                    fn = getattr(mod, attr)
                    functions[id(fn)] = (fn, self.wrap(fn, span))
                    continue
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    wrapper = staticmethod(self.wrap(raw.__func__, span))
                else:
                    wrapper = self.wrap(raw, span)
                self._patches.append((cls, meth, raw, wrapper))
        self._install_special(by_name, functions)
        for mod in modules:
            for attr, value in vars(mod).items():
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((mod, attr, value, entry[1]))

    def _install_special(self, by_name, functions):
        linalg, ratfun, series, solutions = (by_name[k] for k in ("linalg", "ratfun", "series", "solutions"))
        counts = self.counts
        Mat = linalg.Mat
        qq_id, rf_id, mm_id = (self.name_id[k] for k in SPECIAL)
        fraction_field = linalg.FractionField

        def count_after(fn, record):
            """Wrap the span wrapper of ``fn`` so ``record`` sees each call."""
            spanned = functions[id(fn)][1]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = spanned(*args, **kwargs)
                record(args, result)
                return result

            functions[id(fn)] = (fn, counted)

        def emitted(args, text):
            size = len(text.encode("utf-8"))
            counts["jsonio.emit.bytes"] += size
            counts["jsonio.emit.max_bytes"] = max(counts["jsonio.emit.max_bytes"], size)

        def series_terms(args, result):
            counts["series.terms"] += result.order * result.n * result.n

        def solved(args, space):
            counts["solutions.spaces"] += 1
            counts["solutions.complete"] += bool(space.complete)

        count_after(by_name["jsonio"].dumps, emitted)
        count_after(series.fundamental_series, series_terms)
        count_after(solutions.rational_solutions, solved)

        rref = Mat.__dict__["rref"]

        def traced_rref(m):
            cells = m.rows * m.cols
            if isinstance(m.ring, fraction_field):
                nid = qq_id
                counts["linalg.rref.qq.cells"] += cells
                counts["linalg.rref.qq.nnz"] += sum(1 for row in m.data for e in row if e != 0)
            else:
                nid = rf_id
                counts["linalg.rref.rf.cells"] += cells
            idx = self._open(nid)
            try:
                return rref(m)
            finally:
                self._close(idx, nid)

        mul = Mat.__dict__["__mul__"]

        def traced_mul(a, b):
            if not isinstance(b, Mat):
                return mul(a, b)
            idx = self._open(mm_id)
            try:
                return mul(a, b)
            finally:
                self._close(idx, mm_id)

        # RatFn.__init__ runs thousands of times per job: count it, no span
        init = ratfun.RatFn.__dict__["__init__"]

        def counted_init(self_, *args, **kwargs):
            counts["ratfun.ratfn_new.calls"] += 1
            init(self_, *args, **kwargs)

        # the only null space rational_solutions computes is the ansatz's
        nullspace = solutions.nullspace

        def ansatz_nullspace(m):
            kernel = nullspace(m)
            counts["solutions.ansatz.count"] += 1
            counts["solutions.ansatz.rows"] += m.rows
            counts["solutions.ansatz.cols"] += m.cols
            counts["solutions.kernel_dim"] += len(kernel)
            self.ansatz_sizes.append((m.rows, m.cols, sum(1 for row in m.data for e in row if e != 0)))
            return kernel

        self._patches += [
            (Mat, "rref", rref, functools.wraps(rref)(traced_rref)),
            (Mat, "__mul__", mul, functools.wraps(mul)(traced_mul)),
            (ratfun.RatFn, "__init__", init, functools.wraps(init)(counted_init)),
            (solutions, "nullspace", nullspace, functools.wraps(nullspace)(ansatz_nullspace)),
        ]

    def enable(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def aggregate(self):
        """{name: [calls, total_s, self_s]}; total counts outermost spans only."""
        n = len(self.start)
        start, end, parent, name, outer = self.start, self.end, self.parent, self.name, self.outer
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {nm: [0, 0.0, 0.0] for nm in self.names}
        names = self.names
        for i in range(n):
            row = out[names[name[i]]]
            dur = end[i] - start[i]
            row[0] += 1
            if outer[i]:
                row[1] += dur
            row[2] += dur - covered[i]
        return out

    def write_jsonl(self, path):
        """Write one JSON object per span, gzipped (a run records ~10^5-10^6)."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "name": names[self.name[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                            "job": self.job[i],
                        }
                    )
                    + "\n"
                )
