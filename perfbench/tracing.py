"""Per-layer tracing from outside the program.

`install` wraps public functions and methods of the `quiverhh` modules in
the current process.  It is meant for a forked operation process: the
wrappers live and die with it, and nothing under `src/` changes.

Every wrapped call adds to its layer's call count and busy time.  Most
also record a span (name, start, end, parent, operation id), kept in
memory.  Calls made hundreds of thousands of times per operation record
no span, because one span per call would hold more memory than the
operation itself.

Busy time is inclusive and counts the outermost call only, so a function
that re-enters itself is not counted twice.  Self times (a span's
duration minus the part its child spans cover) are computed per span
name by `self_times`.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Per-layer metric names, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    "linalg.rank.s",
    "linalg.rank.cells",
    "resolution.boundary_matrix.s",
    "resolution.boundary_matrix.cells",
    "resolution.boundary_matrix.nnz",
    "diagonal.contraction.s",
    "linalg.solver_build.s",
    "linalg.solver_solve.calls",
    "linalg.solver_solve.s",
    "algebra.mul_path.calls",
    "algebra.mul_path.s",
    "resolution.apply_boundary.calls",
    "resolution.apply_boundary.s",
    "tensorcx.differential.calls",
    "tensorcx.differential.s",
    "tensorcx.act.s",
    "diagonal.verify_square.generators",
    "diagonal.verify_square.s",
    "cochains.coboundary.calls",
    "cochains.cohomology.s",
    "cochains.class_residual.s",
    "linalg.kernel_basis.s",
    "products.star.calls",
    "products.star.s",
    "products.cup.calls",
    "products.cup.s",
    "diagonal.solved_family.calls",
    "diagonal.solved_family.s",
    "reports.ring_cup_report.s",
    "reports.canonical_json.s",
    "reports.canonical_json.bytes",
    "algebra.oracle.s",
    "algebra.sparse_echelon.adds",
    "algebra.sparse_echelon.s",
    "pipeline.init.s",
    "cli.op.s",
)

ROOT = "cli.op"


class Tracer:
    def __init__(self, op=0):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self._open = []  # indices of the spans not yet closed
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)  # extra work counts, e.g. matrix cells
        self._depth = defaultdict(int)
        self._seen = set()  # ids of boundary matrices already counted
        self.op = op  # operation id stamped on every span

    def wrap(self, name, fn, count=None, span=True):
        """Wrap fn: each call adds to the call count and busy time of `name`
        and, with span=True, records a span."""
        spans, open_, depth = self.spans, self._open, self._depth
        calls, busy = self.calls, self.busy

        def wrapper(*args, **kwargs):
            if span:
                rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.op]
                spans.append(rec)
                open_.append(len(spans) - 1)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[name] -= 1
                calls[name] += 1
                if not depth[name]:
                    busy[name] += t1 - t0
                if span:
                    open_.pop()
                    rec[1], rec[2] = t0, t1
            if count is not None:
                count(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """Each metric of LAYER_METRICS, read off by its suffix: `.s` is the
        busy time and `.calls` or `.adds` the call count of the wrapped
        name before it; any other metric is a work count."""
        out = {}
        for metric in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = self.busy[layer]
            elif kind in ("calls", "adds"):
                out[metric] = self.calls[layer]
            else:
                out[metric] = self.counts[metric]
        return out


def self_times(spans):
    """Self time per span name: duration minus the time child spans cover.

    Child spans of one parent never overlap (one thread), so the covered
    part is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


# -- work counts taken at the same boundaries ----------------------------------


def _count_rank(tracer, args, result):
    m = args[0]
    tracer.counts["linalg.rank.cells"] += m.rows * m.cols


def _count_boundary_matrix(tracer, args, mat):
    # the resolution caches its matrices: count each one when first built
    if id(mat) in tracer._seen:
        return
    tracer._seen.add(id(mat))
    tracer.counts["resolution.boundary_matrix.cells"] += mat.rows * mat.cols
    # the entries share one zero object, which list.count matches by identity
    zero = next((x for x in mat.entries if not x), None)
    tracer.counts["resolution.boundary_matrix.nnz"] += len(mat.entries) - mat.entries.count(zero)


def _count_generators(tracer, args, rows):
    tracer.counts["diagonal.verify_square.generators"] += len(rows)


def _count_bytes(tracer, args, text):
    tracer.counts["reports.canonical_json.bytes"] += len(text.encode())


def install(tracer):
    """Wrap the layer boundaries of the imported `quiverhh` package."""
    from quiverhh import algebra, cochains, diagonal, linalg, pipeline, products
    from quiverhh import reports, resolution, tensorcx

    def method(cls, attr, name, count=None, span=True):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), count, span))

    def function(module, attr, name, count=None):
        # replace the function wherever a quiverhh module has bound it
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "quiverhh":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    function(linalg, "rank", "linalg.rank", _count_rank)
    function(linalg, "kernel_basis", "linalg.kernel_basis")
    function(algebra, "oracle_quotient_dim", "algebra.oracle")
    function(reports, "ring_cup_report", "reports.ring_cup_report")
    function(reports, "canonical_json", "reports.canonical_json", _count_bytes)

    method(pipeline.Pipeline, "__init__", "pipeline.init")
    method(resolution.Resolution, "boundary_matrix", "resolution.boundary_matrix",
           _count_boundary_matrix)
    method(diagonal.OneSidedContraction, "__init__", "diagonal.contraction")
    method(linalg.LinearSolver, "__init__", "linalg.solver_build")
    method(diagonal.DiagonalMaps, "verify_square", "diagonal.verify_square", _count_generators)
    method(diagonal.DiagonalMaps, "solved_family", "diagonal.solved_family")
    method(cochains.HochschildComplex, "cohomology", "cochains.cohomology")
    method(cochains.HochschildComplex, "class_residual", "cochains.class_residual")
    method(products.Products, "star", "products.star")
    method(products.Products, "cup", "products.cup")

    method(algebra.FamilyAlgebra, "mul_path", "algebra.mul_path", span=False)
    method(algebra.SparseEchelon, "add", "algebra.sparse_echelon", span=False)
    method(resolution.Resolution, "apply_boundary", "resolution.apply_boundary", span=False)
    method(tensorcx.TensorComplex, "differential", "tensorcx.differential", span=False)
    method(tensorcx.TensorComplex, "act", "tensorcx.act", span=False)
    method(linalg.LinearSolver, "solve", "linalg.solver_solve", span=False)
    method(cochains.HochschildComplex, "coboundary", "cochains.coboundary", span=False)
