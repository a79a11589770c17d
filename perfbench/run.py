"""Outside-in benchmark of the ``s2ml benchmark`` pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The data for (workload, seed) is generated
once into ``perfbench/.work/data`` (generation is never timed): with
``--trace 0`` three data sets drawn from the seed, with ``--trace 1`` the
first of them. Then, for ``S`` seconds, the runner starts one fresh
``s2ml benchmark`` process at a time (all four solvers, gradient tolerance
1e-6) through ``probe.py``, cycling through the data sets, each process on
a fresh data directory so the f* cache is always cold, and checks every
output. With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json`` as medians over those processes; with ``--trace 1`` it
alternates untraced and traced processes and reports the per-layer metrics,
and dumps the spans of the last traced process with machine metadata to
``perfbench/.work/trace-<workload>-s<seed>.json``.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Operations are set-up, the
f* solve and each solver run, six per process; an operation fails when its
process crashes or when an output check on it fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from workloads import LAMBDA, SOLVERS, WORKLOADS  # noqa: E402

RUNS = ("fstar",) + SOLVERS
OPS = ("setup", "fstar") + SOLVERS
CSV_HEADER = ["solver", "rep", "iter", "wall_time_s", "objective", "optimality_gap",
              "test_accuracy", "grad_norm", "rows_touched"]
GRAD_TOL = 1e-6
GAP_RANGE = (-1e-12, 1e-6)  # final (objective - f*) / |f*|
# every wrapped entry point must be seen this often, or a refactor has moved
# work out from under a timer
EXPECTED_CALLS = {"load_dataset": 2, "make_problem": 1, "compute_f_star": 1,
                  "run_solver": 5, "write_trace_csv": 1,
                  "render_convergence_svg": 2}
TRACED_CALLS = {"dataset_digest": 1}
PROCESS_TIMEOUT_S = 120  # keeps a hung run under the 180 s limit
# An untimed run cycles through this many data sets drawn from its seed: the
# solvers' iteration counts swing by up to 20% from one draw to the next, and
# a median over three draws swings less.
VARIANTS = 3
LAYER = {
    "load_dataset": "data",
    "make_problem": "problems", "objective": "problems", "gradient": "problems",
    "hv_setup": "problems", "hv_setup_sub": "problems", "hv_apply": "problems",
    "run_solver": "solvers",
    "compute_f_star": "harness", "dataset_digest": "harness",
    "callback": "harness", "predict_accuracy": "harness",
    "write_trace_csv": "harness", "render_convergence_svg": "harness",
    "cli.main": "cli",
    "trace.hash": "trace",
}
# the kernels each run can call: lbfgs builds no Hv operator, and only stron
# builds one on a row subsample
FULL = ("objective", "gradient", "hv_setup", "hv_apply")
ALL_KERNELS = FULL + ("hv_setup_sub",)
KERNELS = {"fstar": FULL, "tron": FULL, "newton-cg": FULL, "stron": ALL_KERNELS,
           "lbfgs": ("objective", "gradient")}


class Failure(Exception):
    """The benchmark cannot run here at all."""


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

def ensure_data(name: str, seed: int, variants: int) -> list[tuple[Path, dict]]:
    """Generate (or reuse) the data variants of one workload and seed."""
    from gen import generate

    data_root = WORK / "data"
    # data cached by an older generator or spec is made again
    stamp = hashlib.sha256((HERE / "gen.py").read_bytes()
                           + repr(WORKLOADS[name].data).encode()).hexdigest()[:12]
    targets = [data_root / f"{name}-s{seed}-v{v}-{stamp}" for v in range(variants)]
    if data_root.is_dir():
        for old in data_root.glob(f"{name}-s*"):
            if old not in targets:
                shutil.rmtree(old)
    out = []
    for variant, target in enumerate(targets):
        if not (target / "meta.json").is_file():
            tmp = data_root / f".tmp-{name}-s{seed}-v{variant}-{os.getpid()}"
            shutil.rmtree(tmp, ignore_errors=True)
            generate(WORKLOADS[name].data, seed, tmp, variant)
            os.replace(tmp, target)
        out.append((target, json.loads((target / "meta.json").read_text())))
    return out


def link_or_copy(src: Path, dst: Path) -> None:
    try:
        os.link(src, dst)
    except OSError:
        shutil.copyfile(src, dst)


# ---------------------------------------------------------------------------
# One process
# ---------------------------------------------------------------------------

def run_process(name: str, data_dir: Path, meta: dict, work: Path, traced: bool):
    """Run one s2ml benchmark process; return (report, total_s, errors)."""
    shutil.rmtree(work, ignore_errors=True)
    fresh = work / "data"
    fresh.mkdir(parents=True)
    for split in ("train", "test"):
        link_or_copy(data_dir / meta[split]["path"], fresh / meta[split]["path"])
    if list(fresh.glob("*.fstar")):
        raise Failure(f"{fresh}: f* cache present before the run")
    wl = WORKLOADS[name]
    cmd = [sys.executable, str(HERE / "probe.py"), "--report", str(work / "report.json"),
           "--trace", "1" if traced else "0", "--",
           "benchmark", "--data", str(fresh / meta["train"]["path"]),
           "--test-data", str(fresh / meta["test"]["path"]),
           "--problem", wl.problem, "--lambda", repr(LAMBDA),
           "--grad-tol", repr(GRAD_TOL), "--out-dir", str(work / "out")]
    for solver in SOLVERS:
        cmd += ["--solver", solver]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, [f"timed out after {PROCESS_TIMEOUT_S} s"]
    total_s = time.perf_counter() - start
    report_path = work / "report.json"
    if proc.returncode != 0 or not report_path.is_file():
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, total_s, [f"exit code {proc.returncode}: {' | '.join(tail)}"]
    return json.loads(report_path.read_text()), total_s, []


def read_traces(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"unexpected traces.csv header {rows[:1]!r}")
    by_solver: dict[str, list[dict]] = {}
    for row in rows[1:]:
        rec = dict(zip(CSV_HEADER, row))
        if rec["rep"] == "0":
            by_solver.setdefault(rec["solver"], []).append(rec)
    return by_solver


def span_total(spans, names) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] in names)


def child_time(report) -> list[float]:
    spans = report["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def solve_times(report) -> dict[str, float]:
    """run_solver time per method minus its harness callback time."""
    spans = report["spans"]
    callback = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if name == "callback":
            callback[parent] += end - start
    out = {}
    for i, (name, start, end, _, run) in enumerate(spans):
        if name == "run_solver" and run != "fstar":
            out[run] = end - start - callback[i]
    return out


def hook_errors(report, traced) -> list[str]:
    expected = dict(EXPECTED_CALLS, **(TRACED_CALLS if traced else {}))
    calls = {k: report["calls"].get(k, 0) for k in expected}
    return [] if calls == expected else [f"hook guard: calls {calls} != {expected}"]


def check_solver(first, last, obj, f_star, solve_s, accuracy_floor) -> list[str]:
    problems = []
    if not float(last["grad_norm"]) <= GRAD_TOL * float(first["grad_norm"]):
        problems.append("gradient norm above tolerance")
    if f_star is not None:
        gap = (obj - f_star) / abs(f_star)
        if not GAP_RANGE[0] <= gap <= GAP_RANGE[1]:
            problems.append(f"relative gap {gap:.3g} outside {GAP_RANGE}")
    if not float(last["test_accuracy"]) >= accuracy_floor:
        problems.append(f"test accuracy {last['test_accuracy']} < {accuracy_floor:.4f}")
    wall = float(last["wall_time_s"])
    if not abs(solve_s - wall) <= 0.02 * wall + 0.005:
        problems.append(f"solve time {solve_s:.4f} s disagrees with traces.csv {wall:.4f} s")
    return problems


def check_process(name, meta, work, report, traced):
    """Output checks; return (failed ops, errors, trajectory fingerprint)."""
    wl = WORKLOADS[name]
    failed: set[str] = set()
    errors = hook_errors(report, traced)
    if errors:
        return set(OPS), errors, None

    train, test = meta["train"], meta["test"]
    width = train["cols_seen"]
    want = [[train["rows"], width, train["nnz"], train["label_sum"]],
            [test["rows"], max(width, test["cols_seen"]), test["nnz"], test["label_sum"]]]
    got = [load[:4] for load in report["loads"]]
    sums_ok = all(math.isclose(load[4], split["value_sum"], rel_tol=1e-9, abs_tol=1e-9)
                  for load, split in zip(report["loads"], (train, test)))
    if got != want or not sums_ok:
        failed.add("setup")
        errors.append(f"loaded (rows, cols, nnz, label sum, value sum) {report['loads']} "
                      f"differ from the generated data")

    caches = list((work / "data").glob("*.fstar"))
    f_star = None
    try:
        if len(caches) != 1:
            raise ValueError(f"expected one cold-written .fstar, found {len(caches)}")
        f_star = float(caches[0].read_text())
    except ValueError as exc:
        failed.add("fstar")
        errors.append(str(exc))

    try:
        traces = read_traces(work / "out" / "traces.csv")
    except (OSError, ValueError) as exc:
        return failed | set(SOLVERS), errors + [str(exc)], None
    solve_s = solve_times(report)
    finals = {}
    fingerprint = {}
    for solver in SOLVERS:
        recs = traces.get(solver)
        if not recs:
            failed.add(solver)
            errors.append(f"{solver}: missing from traces.csv")
            continue
        try:
            first, last = recs[0], recs[-1]
            obj = float(last["objective"])
            finals[solver] = obj
            fingerprint[solver] = (last["iter"], last["rows_touched"])
            problems = check_solver(first, last, obj, f_star, solve_s[solver],
                                    test["planted_accuracy"] - wl.accuracy_margin)
        except (KeyError, ValueError) as exc:
            problems = [f"unreadable trace ({exc!r})"]
        if problems:
            failed.add(solver)
            errors.append(f"{solver}: {'; '.join(problems)}")
    if len(finals) == len(SOLVERS) and f_star is not None:
        spread = max(finals.values()) - min(finals.values())
        if spread > GAP_RANGE[1] * abs(f_star):
            failed |= set(SOLVERS)
            errors.append(f"final objectives disagree by {spread:.3g}")
    return failed, errors, fingerprint


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(report, total_s) -> dict[str, float]:
    spans = report["spans"]
    m = {"total_s": total_s,
         "setup_s": span_total(spans, ("load_dataset", "make_problem")),
         "fstar_s": span_total(spans, ("compute_f_star",)),
         "peak_rss_mb": report["peak_rss_mb"]}
    for solver, seconds in solve_times(report).items():
        m[f"solve_s.{solver}"] = seconds
    return m


def per_layer(report, total_s, meta) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer timings and counts of one traced process."""
    spans = report["spans"]
    covered = child_time(report)
    times: dict[str, float] = {}
    counts: dict[str, float] = {}
    for run, kernels in KERNELS.items():
        for kernel in kernels:
            times[f"problems.{kernel}.s.{run}"] = 0.0
            counts[f"problems.{kernel}.calls.{run}"] = 0

    def add(d, key, value):
        d[key] = d.get(key, 0) + value

    layer_self = {}
    for i, (name, start, end, parent, run) in enumerate(spans):
        duration = end - start
        add(layer_self, LAYER[name], duration - covered[i])
        if name in ALL_KERNELS:
            add(times, f"problems.{name}.s.{run}", duration)
            add(counts, f"problems.{name}.calls.{run}", 1)
        elif name == "run_solver":
            add(times, f"solvers.self_s.{run}", duration - covered[i])
    layer_self["cli"] = total_s - sum(v for k, v in layer_self.items() if k != "cli")
    for layer in ("cli", "data", "problems", "solvers", "harness", "trace"):
        times[f"layer.{layer}.self_s"] = layer_self.get(layer, 0.0)

    hv_s = hv_nnz = 0.0
    for index, rows, nnz in report["kernels"]:
        name, start, end, _, run = spans[index]
        add(counts, f"problems.rows.{run}", rows)
        if name == "hv_apply":
            hv_s += end - start
            hv_nnz += nnz
    times["problems.hv_apply.ns_per_nnz"] = 1e9 * hv_s / hv_nnz
    for run, (evals, repeats) in report["evals"].items():
        counts[f"problems.repeat_eval_frac.{run}"] = repeats / evals
    for run, (iters, cg, rejected, rows) in report["snapshots"].items():
        counts[f"solvers.iters.{run}"] = iters
        counts[f"solvers.cg_iters.{run}"] = cg
        counts[f"solvers.rejected.{run}"] = rejected
        counts[f"solvers.rows_touched.{run}"] = rows

    def total(*names):
        return span_total(spans, names)

    load_s = total("load_dataset")
    text_mb = (meta["train"]["text_bytes"] + meta["test"]["text_bytes"]) / 1e6
    times["data.load_s"] = load_s
    times["data.parse_mb_per_s"] = text_mb / load_s
    times["data.nnz_per_s"] = (meta["train"]["nnz"] + meta["test"]["nnz"]) / load_s
    times["harness.digest_s"] = total("dataset_digest")
    times["harness.metric_eval_s"] = total("predict_accuracy")
    times["harness.csv_s"] = total("write_trace_csv")
    times["harness.svg_s"] = total("render_convergence_svg")
    import_s = report["import"][1] - report["import"][0]
    times["cli.import_s"] = import_s
    phases = total("load_dataset", "make_problem", "compute_f_star",
                   "write_trace_csv", "render_convergence_svg")
    phases += sum(s[2] - s[1] for s in spans
                  if s[0] == "run_solver" and s[4] != "fstar")
    times["cli.other_s"] = total_s - import_s - phases
    return times, counts


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "s2ml" / "cli.py").is_file():
        fail(f"no s2ml sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    declared = declared_metrics(bool(args.trace))

    # per-layer counts must repeat exactly, so a traced run keeps to one data set
    datasets = ensure_data(args.workload, args.seed, 1 if args.trace else VARIANTS)
    for variant, (_, meta) in enumerate(datasets):
        print(f"workload {args.workload} seed {args.seed} data set {variant}: train "
              f"{meta['train']['rows']} rows, {meta['train']['nnz']} nnz, "
              f"{meta['train']['text_bytes'] / 1e6:.1f} MB text")

    untraced_e2e: list[dict] = []
    traced: list[dict] = []
    traced_totals: list[float] = []
    attempted = failed_ops = 0
    fingerprint_refs: dict[int, dict] = {}  # data set -> first trajectory
    counts_ref = None
    last_traced_report = None
    durations: list[float] = []
    min_processes = 2 if args.trace else 1  # a traced run needs one of each
    start = time.perf_counter()
    k = 0
    while True:
        is_traced = bool(args.trace) and k % 2 == 1
        variant = k % len(datasets)
        data_dir, meta = datasets[variant]
        work = WORK / "runs" / f"{args.workload}-s{args.seed}-p{k}"
        report, total_s, errors = run_process(args.workload, data_dir, meta, work,
                                              is_traced)
        durations.append(total_s)
        attempted += len(OPS)
        bad = set(OPS)
        if report is not None:
            bad, errors, fingerprint = check_process(args.workload, meta, work,
                                                     report, is_traced)
            if fingerprint is not None:
                fingerprint_ref = fingerprint_refs.setdefault(variant, fingerprint)
                for solver in SOLVERS:
                    if fingerprint.get(solver) != fingerprint_ref.get(solver):
                        bad.add(solver)
                        errors.append(f"{solver}: iterations/rows_touched "
                                      f"{fingerprint.get(solver)} differ from an "
                                      f"earlier run {fingerprint_ref.get(solver)}")
        # a process whose checks fail still reports its timings, unless a
        # wrapped entry point was missed and the timers are not valid
        if report is not None and not hook_errors(report, is_traced):
            if is_traced:
                times, counts = per_layer(report, total_s, meta)
                if counts_ref is None:
                    counts_ref = counts
                elif counts != counts_ref:
                    bad |= set(RUNS)
                    errors.append("traced counts differ between identical runs")
                traced.append(times)
                traced_totals.append(total_s)
                last_traced_report = report
            else:
                untraced_e2e.append(end_to_end(report, total_s))
        for e in errors:
            fail(f"process {k}: {e}")
        failed_ops += len(bad)
        shutil.rmtree(work, ignore_errors=True)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= min_processes and elapsed + statistics.median(durations) > args.seconds:
            break
        if k >= 2 and not (traced or untraced_e2e):
            break  # no process produces valid timings; stop early
    shutil.rmtree(WORK / "runs", ignore_errors=True)

    if not untraced_e2e:
        fail("no process produced valid timings; no metrics to report")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed_ops, "metrics": {}}))
        return 1

    metrics: dict[str, float] = {}
    if args.trace:
        if not traced:
            fail("no traced process produced valid timings")
            print(json.dumps({"correct": False, "attempted": attempted,
                              "failed": failed_ops, "metrics": {}}))
            return 1
        for key in traced[0]:
            metrics[key] = statistics.median(t[key] for t in traced)
        metrics.update(counts_ref)
        untraced_total = statistics.median(m["total_s"] for m in untraced_e2e)
        metrics["trace_overhead_frac"] = (statistics.median(traced_totals)
                                          / untraced_total - 1.0)
    else:
        for key in untraced_e2e[0]:
            metrics[key] = statistics.median(m[key] for m in untraced_e2e)

    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise Failure(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    failed_frac = failed_ops / attempted
    n = len(traced) if args.trace else len(untraced_e2e)
    print(f"{n} measured processes ({k} run), failed_frac {failed_frac:.4f} "
          f"({failed_ops}/{attempted} operations)")
    if not args.trace:
        for key in declared:
            q1, q2, q3 = quartiles([m[key] for m in untraced_e2e])
            print(f"  {key:24s} median {q2:.4f} {declared[key]}  (q1 {q1:.4f}, q3 {q3:.4f})")
    else:
        dump = WORK / f"trace-{args.workload}-s{args.seed}.json"
        dump.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "machine": last_traced_report["machine"],
            "metrics": metrics, "spans": last_traced_report["spans"]}))
        layers = {k.split(".")[1]: v for k, v in metrics.items() if k.startswith("layer.")}
        print("  layer self time: " + ", ".join(
            f"{layer} {v:.3f} s" for layer, v in sorted(layers.items(), key=lambda x: -x[1])))
        print(f"  trace_overhead_frac {metrics['trace_overhead_frac']:.4f}; spans -> {dump}")
    result = {
        "correct": failed_ops == 0,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as exc:
        fail(str(exc))
        sys.exit(2)
