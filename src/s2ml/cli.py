"""Command-line front end.

Subcommands: ``train`` (fit one model and save it), ``benchmark`` (run one
or more solvers under the timing harness and emit traces.csv plus SVG
plots), ``fstar`` (print the cached reference optimum), and ``plot``
(re-render plots from a previously written traces.csv).

Exit codes: 0 on success, 1 on usage errors (bad flags or values, reported
on stderr with usage text), 2 on runtime errors (I/O, parse failures, a
truncated gzip file, running out of memory, non-convergence, a non-finite
objective or gradient norm). Diagnostics go to stderr; data goes to files
or stdout.
"""

from __future__ import annotations

import argparse
import re
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import LibsvmParseError, decode_utf8, load_dataset
from .harness import (ConvergenceError, ExperimentSpec, compute_f_star,
                      read_trace_csv, render_convergence_svg, run_experiment,
                      write_trace_csv)
from .problems import PROBLEM_KINDS, ProblemConfig, make_problem
from .solvers import METHODS, SolverConfig, run_solver

__all__ = ["main", "write_model", "read_model", "ModelFormatError"]

MODEL_MAGIC = "s2ml-model v1"

_DEFAULTS = {
    "out": "model.txt",
    "out_dir": "results",
}


class ModelFormatError(ValueError):
    """A model file does not match the documented text format."""


def write_model(path, w, config: ProblemConfig) -> None:
    """Save weights in the versioned text format (17 significant digits)."""
    if config.lam is None:
        raise ValueError("write_model needs a resolved lambda value")
    w = np.asarray(w, dtype=np.float64)
    lines = [MODEL_MAGIC,
             f"kind={config.kind} lambda={config.lam:.17g} "
             f"bias={1 if config.add_bias else 0} dim={w.size}"]
    lines.extend(f"{x:.17g}" for x in w)
    Path(path).write_text("\n".join(lines) + "\n")


def read_model(path):
    """Load a model file; any deviation from the format is rejected."""
    lines = decode_utf8(Path(path).read_bytes(), lambda message, lineno:
                        ModelFormatError(f"{path}: line {lineno}: {message}")).splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: expected header {MODEL_MAGIC!r}")
    if len(lines) < 2:
        raise ModelFormatError(f"{path}: missing model description line")
    kinds = "|".join(map(re.escape, PROBLEM_KINDS))
    m = re.fullmatch(rf"kind=({kinds}) lambda=(\S+) bias=([01]) dim=(\d+)", lines[1])
    if m is None:
        raise ModelFormatError(f"{path}: malformed description {lines[1]!r}")
    kind, lam_s, bias_s, dim_s = m.groups()
    try:  # ProblemConfig rejects a lambda that is negative or not finite
        config = ProblemConfig(kind=kind, lam=float(lam_s), add_bias=bias_s == "1")
    except ValueError:
        raise ModelFormatError(f"{path}: bad lambda {lam_s!r}") from None
    dim = int(dim_s)
    expected = 2 + dim
    if len(lines) != expected:
        raise ModelFormatError(
            f"{path}: expected {expected} lines (2 header + {dim} coefficients), "
            f"got {len(lines)}")
    w = np.empty(dim)
    for i, x in enumerate(lines[2:]):
        try:
            w[i] = float(x)
        except ValueError:
            raise ModelFormatError(f"{path}: line {i + 3}: malformed coefficient {x!r}") from None
        if not np.isfinite(w[i]):
            raise ModelFormatError(f"{path}: line {i + 3}: non-finite coefficient {x!r}")
    return w, config


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _bool_from_text(value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _add_problem_flags(p):
    p.add_argument("--data", default=None,
                   help="LIBSVM data file (plain text or gzip)")
    p.add_argument("--problem", dest="kind", choices=sorted(PROBLEM_KINDS),
                   default=None,
                   help=f"loss to minimize (default: {ProblemConfig.kind})")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="L2 penalty weight (default: 1/n)")
    p.add_argument("--bias", dest="add_bias", action="store_true", default=None,
                   help="append a constant-1 feature")


def _add_solver_flags(p, repeatable: bool):
    p.add_argument("--solver", choices=METHODS, action="append" if repeatable else "store",
                   default=None, help=f"solver to run ({'repeatable; ' * repeatable}"
                                      f"default: {SolverConfig.method})")
    p.add_argument("--grad-tol", type=float, default=None,
                   help="relative gradient-norm stopping tolerance "
                        f"(default {SolverConfig.grad_tol})")
    p.add_argument("--max-iters", type=int, default=None,
                   help=f"iteration cap (default {SolverConfig.max_iters})")
    p.add_argument("--cg-max-iters", type=int, default=None)
    p.add_argument("--cg-rtol", type=float, default=None)
    p.add_argument("--tr-radius0", type=float, default=None)
    p.add_argument("--lbfgs-memory", type=int, default=None)
    p.add_argument("--batch0-frac", type=float, default=None)
    p.add_argument("--batch-growth", type=float, default=None)
    p.add_argument("--seed", dest="rng_seed", metavar="SEED", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="s2ml", allow_abbrev=False,
                     description="Second-order training and benchmarking for "
                                 "sparse linear classification.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    t = sub.add_parser("train", allow_abbrev=False,
                       help="fit one model and write it to --out")
    _add_problem_flags(t)
    _add_solver_flags(t, repeatable=False)
    t.add_argument("--out", default=None,
                   help=f"model output path (default {_DEFAULTS['out']})")

    b = sub.add_parser("benchmark", allow_abbrev=False,
                       help="run solvers under the timing harness")
    _add_problem_flags(b)
    _add_solver_flags(b, repeatable=True)
    b.add_argument("--test-data", default=None,
                   help="held-out LIBSVM file for accuracy curves")
    b.add_argument("--reps", dest="repetitions", metavar="REPS", type=int,
                   default=None,
                   help=f"repetitions per solver (default {ExperimentSpec.repetitions})")
    b.add_argument("--out-dir", default=None,
                   help=f"directory for traces.csv and plots (default {_DEFAULTS['out_dir']})")

    f = sub.add_parser("fstar", allow_abbrev=False,
                       help="compute and print the reference optimum")
    _add_problem_flags(f)

    pl = sub.add_parser("plot", allow_abbrev=False,
                        help="render plots from a previously written traces.csv")
    pl.add_argument("--data", default=None, help="traces.csv produced by benchmark")
    pl.add_argument("--out-dir", default=None,
                    help=f"directory for the SVG output (default {_DEFAULTS['out_dir']})")
    for command in sub.choices.values():
        command.add_argument("--config", default=None, help="key = value file with flag defaults")
    parser.commands = sub.choices
    return parser


def _long_flags(command_parser) -> dict[str, argparse.Action]:
    """Long option name without its dashes -> action, for every flag that
    sets a value (``--help`` and ``--config`` do not)."""
    return {opt[2:]: action for action in command_parser._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt not in ("--help", "--config")}


def _apply_config_file(args, parser) -> dict[str, str]:
    """Fill unset flags from a ``key = value`` file; explicit flags win.

    Keys are the long flag names of the subcommand. The file reads like
    flags given in order: a repeatable flag collects every value, any
    other flag keeps the last one. Returns, for each dest it filled, the
    ``<file>:<line>: <key>`` that set it.
    """
    if getattr(args, "config", None) is None:
        return {}
    flags = {name: _long_flags(p) for name, p in parser.commands.items()}
    text = decode_utf8(Path(args.config).read_bytes(), lambda message, lineno:
                       _UsageError(f"{args.config}:{lineno}: {message}"))
    from_file, where = {}, {}  # dest -> value, dest -> "<file>:<line>: <key>"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{args.config}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not any(key in known for known in flags.values()):
            raise _UsageError(f"{args.config}:{lineno}: unknown key {key!r}")
        action = flags[args.command].get(key)
        if action is None:
            raise _UsageError(
                f"{args.config}:{lineno}: {key!r} does not apply to "
                f"'{args.command}'")
        convert = _bool_from_text if action.nargs == 0 else action.type or str
        try:
            converted = convert(value)
        except ValueError as exc:
            raise _UsageError(f"{args.config}:{lineno}: {exc}") from None
        if action.choices is not None and converted not in action.choices:
            raise _UsageError(
                f"{args.config}:{lineno}: {key} = {value!r} is not one of "
                f"{', '.join(action.choices)}")
        if isinstance(action, argparse._AppendAction):
            from_file.setdefault(action.dest, []).append(converted)
        else:
            from_file[action.dest] = converted
        where[action.dest] = f"{args.config}:{lineno}: {key}"
    filled = [dest for dest in from_file if getattr(args, dest) is None]
    for dest in filled:
        setattr(args, dest, from_file[dest])
    return {dest: where[dest] for dest in filled}


def _name_flag(message: str, command_parser, where: dict[str, str]) -> str:
    """Config dataclasses start an error with the field name; a flag whose
    dest is that name is reported by the config line that set it (``where``)
    or else by its option string."""
    field, _, rest = message.partition(" ")
    for opt, action in _long_flags(command_parser).items():
        if action.dest == field:
            return f"{where.get(field, '--' + opt)} {rest}"
    return message


def _config(cls, args, **values):
    """Build a config dataclass from the flags named like its fields, with
    ``values`` taking precedence; unset flags and ``None`` values keep the
    field defaults, and the dataclass does all range checking."""
    given = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    given.update(values)
    try:
        return cls(**{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _check_output_file(path: Path) -> None:
    """Refuse, creating nothing, an output file that is a directory or below a file."""
    if path.is_dir():
        raise IsADirectoryError(f"{path}: is a directory")
    existing = next(p for p in path.parents if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"{path}: {existing} is not a directory")


def _plot_paths(out_dir: Path, accuracy: bool) -> dict[str, Path]:
    """Metric -> SVG path: gap.svg, plus accuracy.svg when ``accuracy``.
    Every path returned has passed :func:`_check_output_file`."""
    paths = {"optimality_gap": out_dir / "gap.svg",
             **({"test_accuracy": out_dir / "accuracy.svg"} if accuracy else {})}
    for path in paths.values():
        _check_output_file(path)
    return paths


def _write_plots(traces, paths: dict[str, Path]) -> None:
    """Render each metric of :func:`_plot_paths` to its path, creating its directory."""
    for metric, path in paths.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        render_convergence_svg(traces, metric, path)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    pcfg = _config(ProblemConfig, args)
    scfg = _config(SolverConfig, args, method=args.solver)
    _check_output_file(Path(args.out))
    problem = make_problem(pcfg, load_dataset(args.data))
    w, termination = run_solver(problem, scfg)
    if termination == "non_finite":
        print(f"s2ml: error: {scfg.method} stopped on a non-finite objective or "
              "gradient norm (feature values too large?); no model written",
              file=sys.stderr)
        return 2
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_model(args.out, w, problem.config)
    print(f"s2ml: {scfg.method} finished ({termination}); "
          f"objective={problem.objective(w):.6e}; model -> {args.out}",
          file=sys.stderr)
    return 0


def _cmd_benchmark(args) -> int:
    spec = _config(
        ExperimentSpec, args,
        train_path=args.data,
        problem=_config(ProblemConfig, args),
        solvers=tuple(_config(SolverConfig, args, method=m)
                      for m in args.solver or [None]),
        test_path=args.test_data)
    csv_path = Path(args.out_dir) / "traces.csv"
    _check_output_file(csv_path)
    plots = _plot_paths(csv_path.parent, spec.test_path is not None)
    traces = run_experiment(spec)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(traces, csv_path)
    _write_plots(traces, plots)
    wrote = ", ".join(map(str, [csv_path, *plots.values()]))
    print(f"s2ml: benchmark complete; wrote {wrote}", file=sys.stderr)
    return 0


def _cmd_fstar(args) -> int:
    problem = make_problem(_config(ProblemConfig, args), load_dataset(args.data))
    print(f"{compute_f_star(problem, cache_dir=Path(args.data).parent):.17g}")
    return 0


def _cmd_plot(args) -> int:
    traces = read_trace_csv(args.data)
    plots = _plot_paths(Path(args.out_dir), any(
        t.test_accuracy is not None for reps in traces.values() for run in reps for t in run))
    _write_plots(traces, plots)
    print(f"s2ml: wrote {', '.join(map(str, plots.values()))}", file=sys.stderr)
    return 0


_DISPATCH = {
    "train": _cmd_train,
    "benchmark": _cmd_benchmark,
    "fstar": _cmd_fstar,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_, **__: f"s2ml: warning: {message}\n"
    where: dict[str, str] = {}
    try:  # resolve the flags once: config file, then --data, then the path defaults
        where = _apply_config_file(args, parser)
        if args.data is None:
            raise _UsageError("--data is required")
        vars(args).update({name: default for name, default in _DEFAULTS.items()
                           if getattr(args, name, default) is None})
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        message = _name_flag(str(exc), parser.commands[args.command], where)
        print(parser.commands[args.command].format_usage().rstrip(), file=sys.stderr)
        print(f"s2ml: error: {message}", file=sys.stderr)
        return 1
    except (OSError, LibsvmParseError, ModelFormatError, ConvergenceError,
            ValueError) as exc:
        print(f"s2ml: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the model has one coefficient per feature column, so a huge
        # feature index asks for more memory than the address space holds
        print(f"s2ml: error: out of memory: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
