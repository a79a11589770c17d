"""Scalable second-order training for sparse linear classification.

The package splits into data handling (:mod:`s2ml.data`), loss problems
(:mod:`s2ml.problems`), solvers (:mod:`s2ml.solvers`), the benchmark harness
(:mod:`s2ml.harness`), and the command-line front end (:mod:`s2ml.cli`).
"""

from .data import (Dataset, Features, LibsvmParseError, dataset_from_rows,
                   load_dataset, parse_libsvm_line, serialize_dataset)
from .harness import (ConvergenceError, ExperimentSpec, TraceRecord,
                      compute_f_star, read_trace_csv, render_convergence_svg,
                      run_experiment, write_trace_csv)
from .problems import (LogisticRegressionProblem, Problem, ProblemConfig,
                       SquaredHingeProblem, make_problem)
from .solvers import (IterationSnapshot, SolverConfig, SolverState,
                      lbfgs_direction, run_solver, steihaug_cg)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "Features", "LibsvmParseError", "dataset_from_rows",
    "load_dataset", "parse_libsvm_line", "serialize_dataset",
    "ConvergenceError", "ExperimentSpec", "TraceRecord", "compute_f_star",
    "read_trace_csv", "render_convergence_svg", "run_experiment",
    "write_trace_csv", "LogisticRegressionProblem", "Problem",
    "ProblemConfig", "SquaredHingeProblem", "make_problem",
    "IterationSnapshot", "SolverConfig", "SolverState", "lbfgs_direction",
    "run_solver", "steihaug_cg", "__version__",
]
