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
import io
import math
import os
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, decode_utf8, load_dataset
from .problems import Problem, ProblemConfig, make_problem
from .solvers import SolverConfig, _norm, run_solver

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

    Repetition ``r`` runs each solver with seed ``rng_seed + r``. The
    reference optimum is always computed (see :func:`run_experiment`).
    """

    problem: ProblemConfig
    solvers: tuple[SolverConfig, ...]
    train_path: str | Path
    test_path: str | Path | None = None
    repetitions: int = 1

    def __post_init__(self):
        object.__setattr__(self, "solvers", tuple(self.solvers))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.solvers:
            raise ValueError("at least one solver is required")


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


class _Shifted:
    """``problem`` seen from ``start``: the kernels at z are those of the
    given object at ``start + z``, so a solver run from z = 0 is a run from
    ``start``."""

    def __init__(self, problem, start):
        self._problem, self._start = problem, start
        self.dim, self.n_rows = problem.dim, problem.n_rows

    def objective(self, z, rows=None):
        return self._problem.objective(self._start + z, rows)

    def gradient(self, z, rows=None):
        return self._problem.gradient(self._start + z, rows)

    def make_hess_vec(self, z, rows=None):
        return self._problem.make_hess_vec(self._start + z, rows)


def _unusable(text: str, f_p: float, g_p: float, mu: float) -> str | None:
    """Why the cached f* ``text`` cannot be the optimum, or None, given f(p),
    ||grad f(p)|| and f's strong-convexity modulus mu: it is no finite number,
    or lies above f(p) or below a lower bound by more than 1e-12 of its
    magnitude. The bound is max(0, f(p) - ||grad f(p)||^2 / (2 mu)) when
    mu > 0, else 0: no loss and no penalty is ever negative."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        return "is not a finite number"
    if value - f_p > 1e-12 * abs(value):
        return f"lies above the objective {f_p:.17g}"
    bound = max(0.0, f_p - g_p * g_p / (2.0 * mu)) if mu > 0.0 else 0.0
    if bound - value > 1e-12 * abs(value):
        return f"lies below the lower bound {bound:.17g}"
    return None


def compute_f_star(problem, cache_dir=None, start=None, grad_norm0=None) -> float:
    """Reference optimum of the problem, cached by dataset digest and config.

    The run starts from p: ``start`` when ``0 < ||grad f(start)|| < ||grad
    f(0)||`` (the best benchmarked iterate, say), else 0, and 0 when no start
    is given. f(p) and ||grad f(p)|| are evaluated once. The trust-region
    Newton solver runs from p until ``||grad f(w)|| <= max(1e-12 ||grad
    f(0)||, sqrt(2 mu eps f(p)))``, eps the machine epsilon and mu f's
    strong-convexity modulus (lam, 0 with a bias): then f(w) - f* <= ||grad
    f(w)||^2 / (2 mu) <= eps f(p), as f(p) >= f* >= 0. ``grad_norm0``, if
    given, is ``||grad f(0)||`` (an iteration-0 record holds it), else it is
    evaluated. Raises :class:`ConvergenceError` if the run does not converge.

    With ``cache_dir`` (and a :class:`Problem` built on a :class:`Dataset`,
    whose digest keys the file) the value is kept in ``<digest>.fstar`` at
    17 significant digits. A cached value that can be the optimum, judged at
    p (see :func:`_unusable`), is returned, even if it is not; a missing one
    is computed and written; one that cannot be draws one ``RuntimeWarning``
    naming the file and the reason, then is computed and written as if
    missing. A write that fails (see :func:`_write_atomic`) warns, and the
    value is returned uncached.
    """
    if grad_norm0 is None:
        grad_norm0 = _norm(problem.gradient(np.zeros(problem.dim)))
    p, g_p = start, (math.inf if start is None else _norm(problem.gradient(start)))
    if not 0.0 < g_p < grad_norm0:
        p, g_p = np.zeros(problem.dim), grad_norm0
    f_p = float(problem.objective(p))
    mu = 0.0 if getattr(problem, "add_bias", False) else getattr(problem, "lam", 0.0)
    cache_path = None
    if cache_dir is not None:
        key = (dataset_digest(problem.data), problem.kind, float(problem.lam),
               bool(problem.add_bias))
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        cache_path = Path(cache_dir) / f"{digest}.fstar"
        if cache_path.exists():
            # bytes that are not UTF-8 become lone surrogates, which float() rejects
            text = cache_path.read_text(encoding="utf-8", errors="surrogateescape").strip()
            why = _unusable(text, f_p, g_p, mu)
            if why is None:
                return float(text)
            warnings.warn(f"{cache_path}: cached f* {text!r} {why}; recomputing",
                          RuntimeWarning, stacklevel=2)
    goal = _FSTAR_SOLVER.grad_tol * grad_norm0
    if mu > 0.0:  # then f(w) - f* <= eps f(p) at the goal (see above)
        goal = max(goal, math.sqrt(2.0 * mu * np.finfo(float).eps * f_p))
    config = _FSTAR_SOLVER  # goal is absolute; grad_tol is relative to ||grad f(p)||
    if 0.0 < g_p and goal != _FSTAR_SOLVER.grad_tol * g_p:
        config = replace(_FSTAR_SOLVER, grad_tol=goal / g_p)
    z, termination = run_solver(_Shifted(problem, p), config)
    if termination != "converged":
        raise ConvergenceError(
            f"reference optimum did not converge (termination={termination}); "
            "increase the regularization weight or the iteration cap")
    value = float(problem.objective(p + z))
    if cache_path is not None:
        _write_atomic(cache_path, f"{value:.17g}\n")
    return value


def _write_atomic(path: Path, text: str) -> None:
    """Write a temp file in the target's directory, then rename it over the
    target; the temp file never outlives the call. An ``OSError`` in either
    step (a read-only directory, say) leaves the target as it was and draws a
    ``RuntimeWarning`` naming the path and the error; others propagate."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        warnings.warn(f"{path}: not cached: {exc}", RuntimeWarning, stacklevel=3)
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


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
    """One timed run: ``(records, final w, termination)``, the records'
    gaps still NaN."""
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

    w, termination = run_solver(problem, config, on_snapshot)
    return records, w, termination


def run_experiment(spec: ExperimentSpec) -> dict[str, list[list[TraceRecord]]]:
    """Run every (solver, repetition) pair and collect timed traces.

    Returns a map from solver name to one record list per repetition. All
    runs share a single reference optimum so gaps are comparable. The
    solvers run first; a computed optimum is then certified from the final
    iterate with the lowest finite objective (see :func:`compute_f_star`),
    and every record's gap is filled in from it. A run that does not
    converge warns, naming the solver, the repetition and the termination.
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
            records, w, termination = _run_one(problem, run_cfg, test)
            if termination != "converged":
                warnings.warn(f"{name} rep {rep} stopped: {termination}",
                              RuntimeWarning, stacklevel=2)
            if records and records[-1].objective < best_obj:
                best_w, best_obj = w, records[-1].objective
                grad_norm0 = records[0].grad_norm  # ||grad f(0)||, as iteration 0
            reps.append(records)
        results[name] = reps

    f_star = compute_f_star(problem, cache_dir=Path(spec.train_path).parent,
                            start=best_w, grad_norm0=grad_norm0)
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
    text = decode_utf8(Path(path).read_bytes(), lambda message, lineno:
                       ValueError(f"{path}: line {lineno}: {message}"))
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty trace file") from None
    if header != CSV_HEADER.split(","):
        raise ValueError(f"{path}: unexpected header {header!r}")
    out: dict[str, list[list[TraceRecord]]] = {}
    for row in reader:
        if len(row) != 9:
            raise ValueError(f"{path}: line {reader.line_num}: expected 9 fields, got {len(row)}")
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
            raise ValueError(f"{path}: line {reader.line_num}: solver {solver!r} jumps to "
                             f"rep {rep}; its reps must run 0, 1, ... without gaps")
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
    wall-clock seconds; when every point sits at one instant (a run that
    stops at iteration 0, say) the x range is widened around it. One
    polyline per (solver, repetition); points whose x or y is not finite
    (an infinite gap, say) are skipped. Output is a pure function of the
    input traces.
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
    if x_hi == x_lo:  # a single instant: centre it in a window max(1, |x|) wide
        pad = 0.5 * max(1.0, abs(x_lo))
        x_lo, x_hi = x_lo - pad, x_hi + pad

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
