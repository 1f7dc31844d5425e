"""Span tracing of the ``onesided`` layers, installed from outside the package.

:class:`Tracer` replaces each public entry point listed in :data:`LAYERS` by a
wrapper that records a span (name, start, end, parent, job id, counts).  A
function is replaced at every attribute of every ``onesided`` module that
holds it, because that is where its callers look it up (``certify`` calls
``onesided.certify.eval_on_cube``, not ``onesided.poly.eval_on_cube``).
Per-point helpers such as ``SparsePolynomial.eval`` are deliberately left
alone.  Spans stay in memory; :func:`layer_metrics` derives the per-layer
metrics from them once the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, JOB, COUNTS = range(6)


def _cube_matrix_counts(args, kwargs, out):
    return {"points": int(out.shape[0])}


def _eval_on_cube_counts(args, kwargs, out):
    return {"points": len(out)}


def _sparse_mul_counts(args, kwargs, out):
    return {"term_pairs": len(args[0].terms) * len(args[1].terms)}


def _verify_counts(args, kwargs, out):
    return {"points": int(out.points_checked)}


def _fit_counts(args, kwargs, out):
    return {"examples": int(args[0].m)}


def _brute_opt_counts(args, kwargs, out):
    from onesided.cube import constant_concept, format_concept

    sample, bank, mode = args[0], args[1], args[2] if len(args) > 2 else kwargs["mode"]
    if mode != "fully":
        return {"mode": mode, "pairs": len(bank)}
    # brute_opt appends the constant concepts the bank lacks, then scans all pairs
    keys = {format_concept(c) for c in bank}
    k = len(bank) + sum(format_concept(constant_concept(sample.n, v)) not in keys for v in (-1, 1))
    return {"mode": mode, "pairs": k * k}


_LINPROG_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _matrix_size(A):
    """(rows, nonzeros, bytes) of a dense or scipy-sparse constraint matrix."""
    if A is None:
        return 0, 0, 0
    if hasattr(A, "nnz"):
        nbytes = sum(getattr(A, part).nbytes for part in ("data", "indices", "indptr") if hasattr(A, part))
        return int(A.shape[0]), int(A.nnz), int(nbytes)
    import numpy as np

    A = np.asarray(A)
    return int(A.shape[0]), int(np.count_nonzero(A)), int(A.nbytes)


def _linprog_counts(args, kwargs, out):
    c = args[0] if args else kwargs["c"]
    rows = nnz = nbytes = 0
    for key in ("A_ub", "A_eq"):
        r, z, b = _matrix_size(kwargs.get(key))
        rows, nnz, nbytes = rows + r, nnz + z, nbytes + b
    return {
        "rows": rows,
        "cols": len(c),
        "nnz": nnz,
        "matrix_bytes": nbytes,
        "iterations": int(getattr(out, "nit", 0) or 0),
        "status": _LINPROG_STATUS.get(int(out.status), "error"),
    }


#: (module, attribute, span name, counts extractor).  ``Class.method`` names a
#: method, patched on the class itself.
LAYERS = [
    ("cube", "cube_matrix", "cube.cube_matrix", _cube_matrix_counts),
    ("cube", "empirical_metrics", "cube.empirical_metrics", None),
    ("cube", "eval_concept_batch", "cube.eval_concept_batch", None),
    ("poly", "eval_on_cube", "poly.eval_on_cube", _eval_on_cube_counts),
    ("poly", "SparsePolynomial.__mul__", "poly.sparse_mul", _sparse_mul_counts),
    ("poly", "expand", "poly.expand", None),
    ("poly", "exact_multilinear", "poly.exact_multilinear", None),
    ("poly", "sparse_eval_batch", "poly.sparse_eval_batch", None),
    ("constructions", "step_poly", "constructions.step_poly", None),
    ("constructions", "halfspace_quarter", "constructions.halfspace_quarter", None),
    ("constructions", "halfspace_onesided", "constructions.halfspace_onesided", None),
    ("constructions", "and_twosided_tradeoff", "constructions.and_twosided_tradeoff", None),
    ("constructions", "dnf_positive_onesided", "constructions.dnf_positive_onesided", None),
    ("constructions", "cnf_negative_onesided", "constructions.cnf_negative_onesided", None),
    ("constructions", "or_compose", "constructions.or_compose", None),
    ("constructions", "and_compose", "constructions.and_compose", None),
    ("certify", "verify_onesided", "certify.verify", _verify_counts),
    ("certify", "verify_twosided", "certify.verify", _verify_counts),
    ("certify", "min_eps", "certify.min_eps", None),
    ("lp", "solve", "lp.solve", None),
    ("lp", "linprog", "lp.backend", _linprog_counts),
    ("learn", "reliable_fit", "learn.reliable_fit", _fit_counts),
    ("learn", "agnostic_l1_fit", "learn.agnostic_l1_fit", _fit_counts),
    ("learn", "derandomize", "learn.derandomize", None),
    ("harness", "generate", "harness.generate", None),
    ("harness", "brute_opt", "harness.brute_opt", _brute_opt_counts),
    ("harness", "run_experiment", "harness.run_experiment", None),
]


class Tracer:
    """Records spans around the wrapped layers while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = None
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None, end: float | None = None) -> None:
        self.spans[idx][END] = time.perf_counter() if end is None else end
        self.spans[idx][COUNTS] = counts
        self._stack.pop()

    @contextmanager
    def job(self, job_id: str):
        """The top-level span of one job; spans opened inside carry its id."""
        self._job = job_id
        idx = self.open("job")
        try:
            yield
        finally:
            self.close(idx)
            self._job = None

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, name: str, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()  # counting is benchmark work, kept out of the span
                counts = counter(args, kwargs, out) if counter is not None and out is not None else None
                tracer.close(idx, counts, end)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "onesided" or key.startswith("onesided.")]
        for modname, attr, name, counter in LAYERS:
            mod = importlib.import_module(f"onesided.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, counter))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, counter)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics


#: name -> (unit, better).  Every name is reported for every workload; a layer
#: the workload never enters reads 0.
PER_LAYER = {
    "cube.cube_matrix.s": ("s", "lower"),
    "cube.cube_matrix.points": ("count", "lower"),
    "cube.empirical_metrics.s": ("s", "lower"),
    "cube.eval_concept_batch.s": ("s", "lower"),
    "poly.eval_on_cube.s": ("s", "lower"),
    "poly.eval_on_cube.calls": ("count", "lower"),
    "poly.eval_on_cube.points": ("count", "lower"),
    "poly.sparse_mul.s": ("s", "lower"),
    "poly.sparse_mul.term_pairs": ("count", "lower"),
    "poly.expand.s": ("s", "lower"),
    "poly.exact_multilinear.s": ("s", "lower"),
    "poly.sparse_eval_batch.s": ("s", "lower"),
    "constructions.step_poly.s": ("s", "lower"),
    "constructions.schedule_attempts": ("count", "lower"),
    "constructions.self_s": ("s", "lower"),
    "certify.verify.s": ("s", "lower"),
    "certify.verify.points": ("count", "lower"),
    "certify.verify.self_s": ("s", "lower"),
    "certify.points_per_s": ("1/s", "higher"),
    "certify.min_eps.s": ("s", "lower"),
    "certify.min_eps.calls": ("count", "lower"),
    "lp.solve.s": ("s", "lower"),
    "lp.solve.calls": ("count", "lower"),
    "lp.backend.s": ("s", "lower"),
    "lp.self_s": ("s", "lower"),
    "lp.rows": ("count", "lower"),
    "lp.cols": ("count", "lower"),
    "lp.nnz": ("count", "lower"),
    "lp.matrix_bytes": ("B", "lower"),
    "lp.iterations": ("count", "lower"),
    "lp.status.optimal": ("count", "higher"),
    "lp.status.infeasible": ("count", "lower"),
    "lp.status.unbounded": ("count", "lower"),
    "lp.status.error": ("count", "lower"),
    "learn.reliable_fit.s": ("s", "lower"),
    "learn.agnostic_l1_fit.s": ("s", "lower"),
    "learn.derandomize.s": ("s", "lower"),
    "learn.fit_self_s": ("s", "lower"),
    "learn.lp_rows_per_example": ("ratio", "lower"),
    "harness.generate.s": ("s", "lower"),
    "harness.brute_opt.s": ("s", "lower"),
    "harness.brute_opt.positive.s": ("s", "lower"),
    "harness.brute_opt.fully.s": ("s", "lower"),
    "harness.brute_opt.pairs": ("count", "lower"),
    "harness.run_experiment.s": ("s", "lower"),
    "harness.persist.bytes": ("B", "lower"),
    "job.self_s": ("s", "lower"),
    "job.self_share": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_FIT_SPANS = ("learn.reliable_fit", "learn.agnostic_l1_fit")
_CONSTRUCTION_SPANS = ("constructions.halfspace_onesided", "constructions.and_twosided_tradeoff",
                       "constructions.dnf_positive_onesided", "constructions.cnf_negative_onesided")


def layer_metrics(spans: list[list], job_ids: set) -> dict[str, float]:
    """Per-layer totals over the spans of the given jobs.

    ``<span>.s`` sums the outermost spans of that name (a recursive call is
    not counted twice); ``self_s`` values subtract the time covered by
    direct child spans.
    """
    picked = [i for i, s in enumerate(spans) if s[JOB] in job_ids]
    children = defaultdict(list)
    for i in picked:
        if spans[i][PARENT] is not None:
            children[spans[i][PARENT]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children[i])

    def ancestors(i):
        p = spans[i][PARENT]
        while p is not None:
            yield p
            p = spans[p][PARENT]

    total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for i in picked:
        name = spans[i][NAME]
        calls[name] += 1
        if all(spans[a][NAME] != name for a in ancestors(i)):
            total[name] += dur(i)
        for key, value in (spans[i][COUNTS] or {}).items():
            if isinstance(value, (int, float)):
                counts[f"{name}.{key}"] += value

    m: dict[str, float] = {}
    for name in ("cube.cube_matrix", "cube.empirical_metrics", "cube.eval_concept_batch",
                 "poly.eval_on_cube", "poly.sparse_mul", "poly.expand", "poly.exact_multilinear",
                 "poly.sparse_eval_batch", "constructions.step_poly", "certify.verify",
                 "certify.min_eps", "lp.solve", "lp.backend", "learn.reliable_fit",
                 "learn.agnostic_l1_fit", "learn.derandomize", "harness.generate",
                 "harness.brute_opt", "harness.run_experiment"):
        m[f"{name}.s"] = total[name]
    m["cube.cube_matrix.points"] = counts["cube.cube_matrix.points"]
    m["poly.eval_on_cube.calls"] = calls["poly.eval_on_cube"]
    m["poly.eval_on_cube.points"] = counts["poly.eval_on_cube.points"]
    m["poly.sparse_mul.term_pairs"] = counts["poly.sparse_mul.term_pairs"]

    m["constructions.schedule_attempts"] = sum(
        1 for i in picked if spans[i][NAME] == "certify.verify"
        and any(spans[a][NAME] in _CONSTRUCTION_SPANS for a in ancestors(i)))
    m["constructions.self_s"] = sum(self_time(i) for i in picked if spans[i][NAME].startswith("constructions."))

    m["certify.verify.points"] = counts["certify.verify.points"]
    m["certify.verify.self_s"] = sum(self_time(i) for i in picked if spans[i][NAME] == "certify.verify")
    m["certify.points_per_s"] = (m["certify.verify.points"] / m["certify.verify.self_s"]
                                 if m["certify.verify.self_s"] > 0 else 0.0)
    m["certify.min_eps.calls"] = calls["certify.min_eps"]

    m["lp.solve.calls"] = calls["lp.solve"]
    m["lp.self_s"] = m["lp.solve.s"] - sum(
        dur(i) for i in picked if spans[i][NAME] == "lp.backend"
        and any(spans[a][NAME] == "lp.solve" for a in ancestors(i)))
    for key in ("rows", "cols", "nnz", "matrix_bytes", "iterations"):
        m[f"lp.{key}"] = counts[f"lp.backend.{key}"]
    for status in ("optimal", "infeasible", "unbounded", "error"):
        m[f"lp.status.{status}"] = sum(
            1 for i in picked if spans[i][NAME] == "lp.backend"
            and (spans[i][COUNTS] or {}).get("status") == status)

    fits = [i for i in picked if spans[i][NAME] in _FIT_SPANS]
    m["learn.fit_self_s"] = sum(self_time(i) for i in fits)
    fit_rows = sum((spans[i][COUNTS] or {}).get("rows", 0) for i in picked
                   if spans[i][NAME] == "lp.backend" and any(a in fits for a in ancestors(i)))
    fit_examples = sum((spans[i][COUNTS] or {}).get("examples", 0) for i in fits)
    m["learn.lp_rows_per_example"] = fit_rows / fit_examples if fit_examples else 0.0

    for mode in ("positive", "fully"):
        m[f"harness.brute_opt.{mode}.s"] = sum(
            dur(i) for i in picked if spans[i][NAME] == "harness.brute_opt"
            and (spans[i][COUNTS] or {}).get("mode") == mode)
    m["harness.brute_opt.pairs"] = counts["harness.brute_opt.pairs"]

    m["job.self_s"] = sum(self_time(i) for i in picked if spans[i][NAME] == "job")
    return m
