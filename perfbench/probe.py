"""Run one ``s2ml`` command in this process with timers around its layers.

    python3 perfbench/probe.py --report R.json --trace 0|1 -- benchmark ...

``s2ml`` must be importable (the runner puts ``src`` on ``PYTHONPATH``).
The probe wraps public functions from outside the package and writes every
span and count to ``R.json`` when the command ends:

* always: ``load_dataset``, ``make_problem``, ``compute_f_star``,
  ``run_solver`` (and the harness callback it is given),
  ``write_trace_csv`` and ``render_convergence_svg``;
* with ``--trace 1``: also ``dataset_digest``, and ``make_problem`` returns a
  proxy that times ``objective``, ``gradient``, ``make_hess_vec``, the Hv
  operator it returns, and ``predict_accuracy``. The solvers see the problem
  only through that protocol, so the proxy observes every kernel call.

A span is ``[name, start, end, parent, run]``; ``run`` is ``"fstar"`` inside
the reference-optimum solve and the solver method otherwise.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time


class Tracer:
    """Spans and counts, kept in memory until the command ends."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = None
        self.calls = {}
        self.loads = []      # [n_rows, n_cols, nnz, label sum, value sum] per load
        self.kernels = []    # [span index, rows, nnz] per kernel call
        self.snapshots = {}  # run -> [iters, cg_iters, rejected, rows_touched]
        self.seen = {}       # run -> hashes of points already evaluated
        self.evals = {}      # run -> [evaluations, repeats]

    def call(self, name, fn, *args, **kwargs):
        self.calls[name] = self.calls.get(name, 0) + 1
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = [name, start, end, parent, self.run]

    def wrap(self, module, attr):
        original = getattr(module, attr)
        setattr(module, attr, lambda *a, **k: self.call(attr, original, *a, **k))

    def in_run(self, run, fn, *args, **kwargs):
        saved, self.run = self.run, run
        try:
            return fn(*args, **kwargs)
        finally:
            self.run = saved

    def record_snapshot(self, snap):
        stats = self.snapshots.setdefault(self.run, [0, 0, 0, 0])
        stats[0] = snap.iter
        stats[1] += snap.cg_iters_used
        stats[2] += 0 if snap.step_accepted else 1
        stats[3] += snap.rows_touched

    def note_point(self, w):
        # hashing is tracer work: its own span keeps it out of kernel and
        # solver self time
        key = self.call("trace.hash", lambda: hash(w.tobytes()))
        seen = self.seen.setdefault(self.run, set())
        counts = self.evals.setdefault(self.run, [0, 0])
        counts[0] += 1
        counts[1] += key in seen
        seen.add(key)


class TracedProblem:
    """Proxy over a Problem that times and counts every kernel call."""

    def __init__(self, problem, tracer):
        self._problem = problem
        self._tracer = tracer
        self._row_offsets = problem.data.features.row_offsets

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def _kernel(self, name, fn, w, rows):
        t = self._tracer
        t.note_point(w)
        ro = self._row_offsets
        if rows is None:
            n, nnz = self._problem.n_rows, int(ro[-1])
        else:
            n, nnz = len(rows), int((ro[rows + 1] - ro[rows]).sum())
        t.kernels.append([len(t.spans), n, nnz])
        return t.call(name, fn, w, rows), n, nnz

    def objective(self, w, rows=None):
        return self._kernel("objective", self._problem.objective, w, rows)[0]

    def gradient(self, w, rows=None):
        return self._kernel("gradient", self._problem.gradient, w, rows)[0]

    def make_hess_vec(self, w, rows=None):
        name = "hv_setup" if rows is None else "hv_setup_sub"
        hv, n, nnz = self._kernel(name, self._problem.make_hess_vec, w, rows)
        t = self._tracer

        def traced_hv(v):
            t.kernels.append([len(t.spans), n, nnz])
            return t.call("hv_apply", hv, v)

        return traced_hv

    def predict_accuracy(self, data, w):
        return self._tracer.call("predict_accuracy",
                                 self._problem.predict_accuracy, data, w)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import re

    try:
        with open("/proc/self/maps") as fh:
            libs = set(re.findall(r"(\S*openblas\S*\.so\S*)", fh.read()))
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine():
    import numpy
    import scipy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu_model": model, "blas_threads": blas_threads()}


def install(tracer, traced):
    """Replace the harness and CLI entry points with timed wrappers."""
    from s2ml import cli, harness

    load = harness.load_dataset

    def load_dataset(*args, **kwargs):
        data = tracer.call("load_dataset", load, *args, **kwargs)
        tracer.loads.append([data.n_rows, data.n_cols, data.features.nnz,
                             int(data.labels.sum()), float(data.features.values.sum())])
        return data

    make = harness.make_problem

    def make_problem(*args, **kwargs):
        problem = tracer.call("make_problem", make, *args, **kwargs)
        return TracedProblem(problem, tracer) if traced else problem

    f_star = harness.compute_f_star

    def compute_f_star(*args, **kwargs):
        return tracer.in_run("fstar", tracer.call, "compute_f_star", f_star,
                             *args, **kwargs)

    solve = harness.run_solver

    def run_solver(problem, config, callback=None):
        if callback is not None:
            inner = callback

            def callback(snap):
                if traced:
                    tracer.record_snapshot(snap)
                return tracer.call("callback", inner, snap)
        elif traced:
            callback = tracer.record_snapshot  # the reference solve passes none
        run = "fstar" if tracer.run == "fstar" else config.method
        return tracer.in_run(run, tracer.call, "run_solver", solve, problem,
                             config, callback)

    harness.load_dataset = load_dataset
    harness.make_problem = make_problem
    harness.compute_f_star = compute_f_star
    harness.run_solver = run_solver
    if traced:
        tracer.wrap(harness, "dataset_digest")
    tracer.wrap(cli, "write_trace_csv")
    tracer.wrap(cli, "render_convergence_svg")


def main(argv=None):
    ap = argparse.ArgumentParser(description="time one s2ml command by layer")
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer()
    import_start = time.perf_counter()
    from s2ml import cli
    import_end = time.perf_counter()
    install(tracer, bool(args.trace))
    code = tracer.call("cli.main", cli.main, command)

    report = {
        "import": [import_start, import_end],
        "spans": tracer.spans,
        "calls": tracer.calls,
        "kernels": tracer.kernels,
        "snapshots": tracer.snapshots,
        "evals": tracer.evals,
        "loads": tracer.loads,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        report["machine"] = machine()
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
