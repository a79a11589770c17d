"""Benchmark workloads: generated data shape, loss and output-check margins.

Each workload is a closed loop of one client running one ``s2ml benchmark``
batch job at a time (all four solvers, one repetition), on data generated
from the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import DataSpec

SOLVERS = ("tron", "stron", "newton-cg", "lbfgs")
LAMBDA = 1e-4


@dataclass(frozen=True)
class Workload:
    data: DataSpec
    problem: str
    # A solver's test accuracy must reach the planted model's accuracy minus
    # this margin. The planted model sees no sampling error; each margin is
    # the largest shortfall measured on seeds 11-13 plus 0.02-0.05.
    accuracy_margin: float
    why: str


WORKLOADS = {
    # rcv1-like text: parsing the LIBSVM file dominates the run, so a loader
    # change shows here while solver changes barely register.
    "load-heavy": Workload(
        DataSpec(n_train=40_000, n_test=8_000, n_cols=20_000, nnz_min=6,
                 nnz_max=30, values="tfidf", gzip=False),
        problem="logistic", accuracy_margin=0.22,
        why="tf-idf text rows, easy problem: the LIBSVM loader dominates the run"),
    # wide and ill-conditioned: objective, gradient and Hv kernels plus the
    # solver loops dominate, so evaluation-reuse changes show here and a
    # loader change should not.
    "solve-heavy": Workload(
        DataSpec(n_train=10_000, n_test=2_500, n_cols=50_000, nnz_min=20,
                 nnz_max=80, values="normal", gzip=False),
        problem="logistic", accuracy_margin=0.22,
        why="wide normal-valued rows, hard problem: kernels and solver loops dominate"),
    # gzip input, squared hinge: the same layers through other paths (gzip
    # decode, generalized Hessian, stron's row-subsample extraction on a
    # tall matrix), so a change tuned to plain-text logistic shows its cost.
    # The milder Zipf law leaves no column rare, which keeps CG counts, and
    # so solve times, from swinging with the seed.
    "svm-gz-tall": Workload(
        DataSpec(n_train=50_000, n_test=10_000, n_cols=1_000, nnz_min=5,
                 nnz_max=20, values="normal", gzip=True, zipf_s=0.5),
        problem="svm-l2", accuracy_margin=0.03,
        why="gzip tall data, squared hinge: gzip decode and stron's subsample path"),
}
