"""Benchmark harness: timed solver runs, optimality-gap traces, CSV and SVG
output, and the cached reference optimum the gap is measured against.

Metric evaluation (test accuracy, trace bookkeeping) happens outside the
timed region, so recorded wall-clock times reflect training work only.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import html
import math
import os
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, load_dataset
from .problems import Problem, ProblemConfig, make_problem
from .solvers import SolverConfig, run_solver

__all__ = [
    "TraceRecord",
    "ExperimentSpec",
    "ConvergenceError",
    "CSV_HEADER",
    "dataset_digest",
    "compute_f_star",
    "run_experiment",
    "write_trace_csv",
    "read_trace_csv",
    "render_convergence_svg",
]

CSV_HEADER = ("solver,rep,iter,wall_time_s,objective,optimality_gap,"
              "test_accuracy,grad_norm,rows_touched")

GAP_FLOOR = 1e-16  # log-plot clamp at the double-precision noise floor


class ConvergenceError(RuntimeError):
    """A reference-optimum run failed to reach its tolerance."""


@dataclass(frozen=True)
class TraceRecord:
    """One benchmark sample.

    ``wall_time_s`` is measured from run start on a monotonic clock;
    ``rows_touched`` is the cumulative Hessian-operator row count.
    """

    iter: int
    wall_time_s: float
    objective: float
    optimality_gap: float
    test_accuracy: float | None
    grad_norm: float
    rows_touched: int


@dataclass(frozen=True)
class ExperimentSpec:
    """A full benchmark: one problem, one or more solvers, optional test set.

    ``f_star`` is either a known optimum or ``"compute"``; repetition ``r``
    runs each solver with seed ``rng_seed + r``.
    """

    problem: ProblemConfig
    solvers: tuple[SolverConfig, ...]
    train_path: str | Path
    test_path: str | Path | None = None
    f_star: float | str = "compute"
    repetitions: int = 1

    def __post_init__(self):
        object.__setattr__(self, "solvers", tuple(self.solvers))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.solvers:
            raise ValueError("at least one solver is required")
        if isinstance(self.f_star, str) and self.f_star != "compute":
            raise ValueError('f_star must be a number or "compute"')


def dataset_digest(data: Dataset) -> str:
    """Content hash of a dataset (shape, structure, values, labels), with
    the index arrays cast to int64 so that their dtype never moves it."""
    h = hashlib.sha256()
    m = data.features
    h.update(np.array(m.shape, dtype=np.int64))
    for arr in (m.indptr.astype(np.int64), m.indices.astype(np.int64),
                m.data, data.labels):
        h.update(arr)
    return h.hexdigest()


# the reference run favors accurate inner solves so the tail iterations stay
# well above floating-point noise in the acceptance-ratio test
_FSTAR_SOLVER = SolverConfig(method="tron", max_iters=1000, grad_tol=1e-12,
                             cg_rtol=1e-3, cg_max_iters=250)


def _fstar_key(problem):
    data = getattr(problem, "data", None)
    if not isinstance(data, Dataset):
        return None
    return (dataset_digest(data), problem.kind, float(problem.lam),
            bool(problem.add_bias))


class _Shifted:
    """``problem`` seen from ``start``: the kernels at z are those of the
    given object at ``start + z``, so a solver run from z = 0 is a run from
    ``start``. ``grad_start``, the full-data gradient at ``start``, is
    returned read-only for an all-zero z instead of being evaluated again."""

    def __init__(self, problem, start, grad_start):
        self._problem, self._start = problem, start
        self._grad_start = grad_start.view()
        self._grad_start.flags.writeable = False
        self.dim, self.n_rows = problem.dim, problem.n_rows

    def objective(self, z, rows=None):
        return self._problem.objective(self._start + z, rows)

    def gradient(self, z, rows=None):
        if rows is None and not np.any(z):  # start + (+-0) is start, bit for bit
            return self._grad_start
        return self._problem.gradient(self._start + z, rows)

    def make_hess_vec(self, z, rows=None):
        return self._problem.make_hess_vec(self._start + z, rows)


def _reference_point(problem, start=None, grad_norm0=None) -> np.ndarray:
    """A point w with ||grad f(w)|| <= 1e-12 ||grad f(0)||, by the reference
    tron run: warm from ``start`` when its gradient norm is finite, nonzero
    and below the one at 0 (``grad_norm0``, evaluated here when not given),
    else cold from 0. Raises ConvergenceError."""
    config, target = _FSTAR_SOLVER, problem
    if start is not None:
        if grad_norm0 is None:
            grad_norm0 = float(np.linalg.norm(problem.gradient(np.zeros(problem.dim))))
        grad_start = problem.gradient(start)
        g_start = float(np.linalg.norm(grad_start))
        if 0.0 < g_start < grad_norm0:
            # the same absolute stopping point, relative to ||grad f(start)||
            config = replace(_FSTAR_SOLVER,
                             grad_tol=_FSTAR_SOLVER.grad_tol * grad_norm0 / g_start)
            target = _Shifted(problem, start, grad_start)
    w, termination = run_solver(target, config)
    if termination != "converged":
        raise ConvergenceError(
            f"reference optimum did not converge (termination={termination}); "
            "increase the regularization weight or the iteration cap")
    return w if target is problem else start + w


def compute_f_star(problem, cache_dir=None, start=None, grad_norm0=None) -> float:
    """Reference optimum of the problem, cached by dataset digest and config.

    Runs the trust-region Newton solver until ``||grad f(w)|| <= 1e-12
    ||grad f(0)||``, from ``start`` when that point's gradient norm is
    finite, nonzero and below the one at 0 (the best iterate of the
    benchmarked solvers, say), else from 0. ``grad_norm0``, when given, is
    taken as ``||grad f(0)||`` (a solver's iteration-0 record holds it);
    else it is evaluated. The objective is strongly convex for lam > 0, so
    the certificate does not depend on the start, which only shortens the
    run. When ``cache_dir`` is given the value is persisted as
    ``<digest>.fstar`` (17 significant digits) and reused on later calls;
    the file is replaced atomically, so a reader never sees a partial one.
    A directory that takes no new file (read-only, say) draws a
    ``RuntimeWarning`` naming the path and its error, and the value is
    returned uncached. A cached value above ``f(start)`` by more than
    1e-12 of its magnitude cannot be the optimum, and draws a
    ``RuntimeWarning`` that names the file; one that is not a finite number
    raises ``ValueError`` naming the file. Raises
    :class:`ConvergenceError` if the run does not converge.
    """
    key = _fstar_key(problem) if cache_dir is not None else None
    cache_path = None
    if key is not None:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        cache_path = Path(cache_dir) / f"{digest}.fstar"
        if cache_path.exists():
            text = cache_path.read_text().strip()
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{cache_path}: cached f* {text!r} is not a finite "
                                 "number; delete the file to recompute")
            if start is not None:
                f_start = float(problem.objective(start))
                if value - f_start > 1e-12 * abs(value):
                    warnings.warn(
                        f"{cache_path}: cached f* {value:.17g} lies above the "
                        f"objective {f_start:.17g} of a solver iterate; the "
                        "cache is stale, delete it to recompute",
                        RuntimeWarning, stacklevel=2)
            return value
    value = float(problem.objective(_reference_point(problem, start, grad_norm0)))
    if cache_path is not None:
        _write_atomic(cache_path, f"{value:.17g}\n")
    return value


def _write_atomic(path: Path, text: str) -> None:
    """Write a temp file in the target's directory, then rename it over the
    target; on any failure the temp file is removed. A temp file that
    cannot be written (a read-only directory, say) leaves the target as it
    was and draws a ``RuntimeWarning`` naming the path and the error; a
    failed rename raises."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    renaming = False
    try:
        tmp.write_text(text)
        renaming = True
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        if renaming or not isinstance(exc, OSError):
            raise
        warnings.warn(f"{path}: not cached: {exc}", RuntimeWarning, stacklevel=3)


def _unique_names(configs) -> list[str]:
    names: list[str] = []
    for cfg in configs:
        name = cfg.method
        k = 2
        while name in names:
            name = f"{cfg.method}-{k}"
            k += 1
        names.append(name)
    return names


def _run_one(problem: Problem, config: SolverConfig, test: Dataset | None):
    """One timed run: ``(records, final w)``, the records' gaps still NaN."""
    records: list[TraceRecord] = []
    start = time.perf_counter()
    excluded = 0.0
    cumulative_rows = 0

    def on_snapshot(snap):
        nonlocal excluded, cumulative_rows
        now = time.perf_counter()
        wall = now - start - excluded
        cumulative_rows += snap.rows_touched
        accuracy = (problem.predict_accuracy(test, snap.w)
                    if test is not None else None)
        records.append(TraceRecord(
            iter=snap.iter, wall_time_s=wall, objective=snap.objective,
            optimality_gap=math.nan, test_accuracy=accuracy,
            grad_norm=snap.grad_norm, rows_touched=cumulative_rows))
        excluded += time.perf_counter() - now  # keep metrics out of the clock

    w, _ = run_solver(problem, config, on_snapshot)
    return records, w


def run_experiment(spec: ExperimentSpec) -> dict[str, list[list[TraceRecord]]]:
    """Run every (solver, repetition) pair and collect timed traces.

    Returns a map from solver name to one record list per repetition. All
    runs share a single reference optimum so gaps are comparable. The
    solvers run first; a computed optimum is then certified from the final
    iterate with the lowest finite objective (see :func:`compute_f_star`),
    and every record's gap is filled in from it.
    """
    train = load_dataset(spec.train_path)
    problem = make_problem(spec.problem, train)
    test = None
    if spec.test_path is not None:
        test = load_dataset(spec.test_path, n_cols_hint=train.n_cols)
        if test.n_cols != train.n_cols:
            raise ValueError(
                f"test data has {test.n_cols} feature columns, train has {train.n_cols}")

    results: dict[str, list[list[TraceRecord]]] = {}
    best_w, best_obj, grad_norm0 = None, math.inf, None
    for name, cfg in zip(_unique_names(spec.solvers), spec.solvers):
        reps = []
        for rep in range(spec.repetitions):
            run_cfg = replace(cfg, rng_seed=cfg.rng_seed + rep)
            records, w = _run_one(problem, run_cfg, test)
            if records and records[-1].objective < best_obj:
                best_w, best_obj = w, records[-1].objective
                grad_norm0 = records[0].grad_norm  # ||grad f(0)||, as iteration 0
            reps.append(records)
        results[name] = reps

    if spec.f_star == "compute":
        f_star = compute_f_star(problem, cache_dir=Path(spec.train_path).parent,
                                start=best_w, grad_norm0=grad_norm0)
    else:
        f_star = float(spec.f_star)
    for reps in results.values():
        for records in reps:
            records[:] = [replace(r, optimality_gap=r.objective - f_star)
                          for r in records]
    return results


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

def write_trace_csv(traces: dict[str, list[list[TraceRecord]]], path) -> None:
    """Write all traces to one CSV; reals carry 17 significant digits, so a
    read-back is lossless."""
    lines = [CSV_HEADER]
    for solver, reps in traces.items():
        for rep, records in enumerate(reps):
            for t in records:
                acc = "" if t.test_accuracy is None else f"{t.test_accuracy:.17g}"
                lines.append(
                    f"{solver},{rep},{t.iter},{t.wall_time_s:.17g},"
                    f"{t.objective:.17g},{t.optimality_gap:.17g},{acc},"
                    f"{t.grad_norm:.17g},{t.rows_touched}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace_csv(path) -> dict[str, list[list[TraceRecord]]]:
    """Inverse of :func:`write_trace_csv` (bit-exact for finite values).

    Each solver's reps must run 0, 1, ... without gaps, as written."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty trace file") from None
        if header != CSV_HEADER.split(","):
            raise ValueError(f"{path}: unexpected header {header!r}")
        out: dict[str, list[list[TraceRecord]]] = {}
        for row in reader:
            if len(row) != 9:
                raise ValueError(f"{path}: expected 9 fields, got {len(row)}")
            solver, rep_s, it, wall, obj, gap, acc, gn, rows = row
            try:
                rep = int(rep_s)
                record = TraceRecord(
                    iter=int(it), wall_time_s=float(wall), objective=float(obj),
                    optimality_gap=float(gap),
                    test_accuracy=None if acc == "" else float(acc),
                    grad_norm=float(gn), rows_touched=int(rows))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            reps = out.setdefault(solver, [])
            if rep == len(reps):
                reps.append([])
            if rep < 0 or rep != len(reps) - 1:
                raise ValueError(f"{path}: solver {solver!r} jumps to rep {rep}; "
                                 "its reps must run 0, 1, ... without gaps")
            reps[rep].append(record)
    return out


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 150, 24, 56


def _nice_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def render_convergence_svg(traces: dict[str, list[list[TraceRecord]]],
                           metric: str, path) -> None:
    """Write a standalone SVG convergence plot.

    ``metric`` is ``"optimality_gap"`` (log-scale y, clamped below at 1e-16,
    ticks at decade marks) or ``"test_accuracy"`` (linear y). The x axis is
    wall-clock seconds. One polyline per (solver, repetition); points whose
    x or y is not finite (an infinite gap, say) are skipped. Output is a
    pure function of the input traces.
    """
    if metric not in ("optimality_gap", "test_accuracy"):
        raise ValueError(f"unknown metric {metric!r}")
    series = []  # (solver index, points)
    names = list(traces.keys())
    for si, name in enumerate(names):
        for records in traces[name]:
            pts = [(t.wall_time_s, getattr(t, metric)) for t in records]
            pts = [(x, y) for x, y in pts
                   if y is not None and math.isfinite(x) and math.isfinite(y)]
            if pts:
                series.append((si, pts))
    if not series:
        raise ValueError(f"no data for metric {metric!r}")
    xs = [x for _, pts in series for x, _ in pts]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        raise ValueError("degenerate x range: all wall-clock values are identical")

    log_scale = metric == "optimality_gap"
    if log_scale:
        ys = [math.log10(max(v, GAP_FLOOR)) for _, pts in series for _, v in pts]
        y_lo = math.floor(min(ys))
        y_hi = math.ceil(max(ys))
        if y_hi == y_lo:
            y_hi = y_lo + 1
        ticks = [(float(k), f"1e{k}") for k in range(int(y_lo), int(y_hi) + 1)]
        y_of = lambda v: math.log10(max(v, GAP_FLOOR))
        y_title = "optimality gap"
    else:
        vals = [v for _, pts in series for _, v in pts]
        y_lo, y_hi = min(vals), max(vals)
        if y_hi - y_lo < 1e-12:
            y_lo, y_hi = y_lo - 0.05, y_hi + 0.05
        ticks = [(t, f"{t:.4g}") for t in _nice_ticks(y_lo, y_hi)]
        y_of = lambda v: v
        y_title = "test accuracy"

    px = lambda x: _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)
    py = lambda y: _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    el = ['<?xml version="1.0" encoding="UTF-8"?>',
          f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
          f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
          f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
          f'<g font-family="sans-serif" font-size="12" fill="black">']
    # axes
    el.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
              'stroke="black" stroke-width="1"/>')
    el.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
              'stroke="black" stroke-width="1"/>')
    for xv in _nice_ticks(x_lo, x_hi):
        X = px(xv)
        el.append(f'<line x1="{X:.2f}" y1="{_H - _MB}" x2="{X:.2f}" '
                  f'y2="{_H - _MB + 5}" stroke="black" stroke-width="1"/>')
        el.append(f'<text x="{X:.2f}" y="{_H - _MB + 18}" '
                  f'text-anchor="middle">{xv:.4g}</text>')
    for yv, label in ticks:
        Y = py(yv)
        el.append(f'<line x1="{_ML - 5}" y1="{Y:.2f}" x2="{_ML}" y2="{Y:.2f}" '
                  'stroke="black" stroke-width="1"/>')
        el.append(f'<text x="{_ML - 8}" y="{Y + 4:.2f}" '
                  f'text-anchor="end">{label}</text>')
    el.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 12}" '
              'text-anchor="middle">training time (s)</text>')
    el.append(f'<text x="16" y="{(_MT + _H - _MB) / 2:.2f}" text-anchor="middle" '
              f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.2f})">{y_title}</text>')
    # curves
    for si, pts in series:
        color = _PALETTE[si % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y_of(v)):.2f}" for x, v in pts)
        el.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                  'stroke-width="1.5"/>')
    # legend (one entry per solver)
    for si, name in enumerate(names):
        color = _PALETTE[si % len(_PALETTE)]
        Y = _MT + 10 + 18 * si
        el.append(f'<line x1="{_W - _MR + 12}" y1="{Y}" x2="{_W - _MR + 36}" '
                  f'y2="{Y}" stroke="{color}" stroke-width="2"/>')
        el.append(f'<text x="{_W - _MR + 42}" y="{Y + 4}">'
                  f'{html.escape(name, quote=False)}</text>')
    el.append("</g>")
    el.append("</svg>")
    Path(path).write_text("\n".join(el) + "\n")
