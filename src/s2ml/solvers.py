"""Second-order solvers behind one driver.

Four methods share a uniform interface: trust-region Newton (``tron``), its
Hessian-subsampling variant (``stron``), line-search Newton-CG
(``newton-cg``), and L-BFGS (``lbfgs``). A solver touches the problem only
through a small protocol: ``objective(w, rows=None)``, ``gradient(w,
rows=None)``, ``make_hess_vec(w, rows=None)`` returning a linear operator,
plus the ``dim`` and ``n_rows`` attributes, so any object implementing it
can be minimized.

Every run starts from w = 0 and emits one :class:`IterationSnapshot` per
iteration. ``rows_touched`` counts rows fed through the Hessian operator, a
machine-independent cost proxy (gradient and objective passes are identical
across methods and not counted).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "METHODS",
    "SolverConfig",
    "SolverState",
    "IterationSnapshot",
    "steihaug_cg",
    "LbfgsMemory",
    "lbfgs_direction",
    "tron_step",
    "stron_step",
    "newton_cg_step",
    "lbfgs_step",
    "init_state",
    "run_solver",
]

METHODS = ("tron", "stron", "newton-cg", "lbfgs")

_MAX_RADIUS = 1e10
_CURVATURE_TOL = 1e-10  # discard (s, y) pairs with s.y <= tol * |s||y|
_ARMIJO_C = 1e-4
_ARMIJO_HALVINGS = 50
_STALL_LIMIT = 20
# trust-region ratio thresholds and radius multipliers, as in LIBLINEAR's TRON
_ETA0, _ETA1, _ETA2 = 1e-4, 0.25, 0.75
_SIGMA1, _SIGMA2, _SIGMA3 = 0.25, 0.5, 4.0


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters for one solver run.

    ``grad_tol`` is relative: the run stops once ||g|| <= grad_tol * ||g0||.
    ``batch0_frac``/``batch_growth`` control the Hessian subsample schedule
    of ``stron``; the other methods ignore them.
    """

    method: str = "tron"
    max_iters: int = 500
    grad_tol: float = 1e-6
    cg_max_iters: int = 25
    cg_rtol: float = 0.1
    tr_radius0: float = 1.0
    lbfgs_memory: int = 10
    batch0_frac: float = 0.1
    batch_growth: float = 1.5
    rng_seed: int = 42

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not (self.grad_tol > 0):
            raise ValueError("grad_tol must be > 0")
        if self.cg_max_iters < 1:
            raise ValueError("cg_max_iters must be >= 1")
        if not (0.0 < self.cg_rtol < 1.0):
            raise ValueError("cg_rtol must be in (0, 1)")
        if not (self.tr_radius0 > 0):
            raise ValueError("tr_radius0 must be > 0")
        if self.lbfgs_memory < 1:
            raise ValueError("lbfgs_memory must be >= 1")
        if not (0.0 < self.batch0_frac <= 1.0):
            raise ValueError("batch0_frac must be in (0, 1]")
        if not (self.batch_growth >= 1.0):
            raise ValueError("batch_growth must be >= 1")


@dataclass
class SolverState:
    """Mutable per-run state; confined to a single run."""

    w: np.ndarray
    grad: np.ndarray
    obj: float
    grad_norm0: float
    tr_radius: float
    rng: np.random.Generator
    batch_size: int
    lbfgs_pairs: LbfgsMemory = field(
        default_factory=lambda: LbfgsMemory(SolverConfig.lbfgs_memory))
    iter: int = 0
    consecutive_rejects: int = 0


@dataclass(frozen=True, eq=False)
class IterationSnapshot:
    """State after one iteration; ``w`` is a view, not a copy.

    ``tr_radius`` is the trust-region radius after its update for tron/stron
    and ``None`` for the line-search methods. ``step_norm`` is the norm of
    the accepted step, 0.0 for a rejected step and at iteration 0.
    ``rows_touched`` counts Hessian-operator row evaluations of this
    iteration only.
    """

    iter: int
    w: np.ndarray
    objective: float
    grad_norm: float
    step_accepted: bool
    tr_radius: float | None
    step_norm: float
    cg_iters_used: int
    rows_touched: int


def _ceil_int(x: float) -> int:
    # ceil with a guard against values like 0.1 * 100 landing just above 10
    return math.ceil(x - 1e-9)


def _norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


# ---------------------------------------------------------------------------
# Trust-region subproblem
# ---------------------------------------------------------------------------

def _tridiag(alphas: list[float], betas: list[float]) -> np.ndarray:
    """Projected Hessian of the Krylov basis, from the CG coefficients."""
    k = len(alphas)
    T = np.zeros((k, k))
    T[0, 0] = 1.0 / alphas[0]
    for j in range(1, k):
        T[j, j] = 1.0 / alphas[j] + betas[j - 1] / alphas[j - 1]
        off = math.sqrt(betas[j - 1]) / abs(alphas[j - 1])
        T[j - 1, j] = T[j, j - 1] = off
    return T


def _brentq(f, a: float, b: float, xtol: float = 2e-12,
            rtol: float = 4 * np.finfo(np.float64).eps, maxiter: int = 100) -> float:
    """A root of ``f`` in the bracket [a, b] by Brent's method (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).

    This is scipy's C ``brentq`` operation for operation: the same sign-bit
    bracket tests, the same interpolate/extrapolate/bisect choice, the
    tolerance ``delta = (xtol + rtol*|x|)/2`` and the ``+-delta`` minimum
    step, so it returns the same double. Raises ValueError when f(a) and
    f(b) have the same sign and RuntimeError after ``maxiter`` iterations.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _ball_min(T: np.ndarray, gnorm: float, radius: float):
    """Minimize gnorm*e1.h + 0.5 h.T.h over ||h|| <= radius (small dense T).

    Returns ``(h, boundary_active, negative_curvature)``. Solved through an
    eigendecomposition plus a root find on the boundary multiplier by
    Brent's method (:func:`_brentq`, which matches scipy's ``brentq`` bit
    for bit), with the degenerate (no gradient mass on the lowest
    eigenspace) case handled explicitly.
    """
    lam, V = np.linalg.eigh(T)
    c = gnorm * V[0, :]
    lam_min = float(lam[0])
    scale = max(1.0, float(np.abs(lam).max()))
    neg = lam_min < -1e-12 * scale

    if lam_min > 0.0:
        h = V @ (-(c / lam))
        if _norm(h) <= radius:
            return h, False, neg

    lo = max(0.0, -lam_min)
    eps = 1e-11 * scale

    def hnorm(nu: float) -> float:
        denom = lam + nu
        out = np.zeros_like(c)
        nz = denom != 0.0
        out[nz] = c[nz] / denom[nz]
        if np.any(~nz & (c != 0.0)):
            return 1e300
        n = _norm(out)
        return n if math.isfinite(n) else 1e300

    if hnorm(lo + eps) < radius:
        # hard case: build the regular part and fill up to the boundary
        # along the lowest eigenvector
        denom = lam + lo
        mask = np.abs(denom) > eps
        hpart = np.zeros_like(c)
        hpart[mask] = -c[mask] / denom[mask]
        tau = math.sqrt(max(radius * radius - float(hpart @ hpart), 0.0))
        h = V @ hpart + tau * V[:, 0]
    else:
        hi = lo + gnorm / radius + scale + 1.0
        while hnorm(hi) > radius:
            hi = 2.0 * hi + 1.0
        # the reciprocal form is close to linear in nu, so the root find is
        # well conditioned across extreme radius scales
        nu = _brentq(lambda t: 1.0 / max(hnorm(t), 1e-300) - 1.0 / radius,
                     lo + eps, hi, maxiter=200)
        h = V @ (-(c / (lam + nu)))
    nh = _norm(h)
    if nh > 0.0:
        h *= radius / nh
    return h, True, neg


def _to_boundary(s: np.ndarray, d: np.ndarray, radius: float) -> np.ndarray:
    """Follow d from the interior point s to the sphere of the given radius."""
    a = float(d @ d)
    b = 2.0 * float(s @ d)
    cc = float(s @ s) - radius * radius
    tau = (-b + math.sqrt(max(b * b - 4.0 * a * cc, 0.0))) / (2.0 * a)
    out = s + tau * d
    n = _norm(out)
    return out * (radius / n) if n > 0 else out


def steihaug_cg(hv, g, radius: float, rtol: float = 0.1, max_iters: int = 25):
    """Approximately minimize m(s) = g.s + 0.5 s.H.s over ||s|| <= radius.

    ``hv`` supplies Hessian products; H is never formed. Conjugate-gradient
    iterations start from s = 0. While the iterates stay interior this is
    plain truncated CG, returning once the residual satisfies
    ``||H s + g|| <= rtol * ||g||`` (status ``"interior"``). When a step
    would cross the boundary, or negative curvature appears, the search
    switches to the exact ball-constrained minimizer over the Krylov
    subspace built so far, expanding the subspace until the constrained
    optimality residual passes the same tolerance; the returned point then
    sits on the boundary exactly (status ``"boundary"``, or
    ``"neg_curvature"`` when indefiniteness was encountered). Hitting the
    iteration cap returns the current point with status ``"max_iters"``.

    The model value of the result never exceeds that of the optimal
    steepest-descent (Cauchy) step.
    """
    g = np.asarray(g, dtype=np.float64)
    gnorm = _norm(g)
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    if gnorm == 0.0:
        raise ValueError("gradient must be nonzero")
    max_iters = max(1, int(max_iters))

    s = np.zeros_like(g)
    r = g.copy()
    d = -g
    rr = gnorm * gnorm
    gamma = gnorm
    sigma = 1.0
    interior = True
    alphas: list[float] = []
    betas: list[float] = []
    basis: list[np.ndarray] = []
    h = None
    h_neg = False

    for _ in range(max_iters):
        basis.append((sigma / gamma) * r)
        Hd = hv(d)
        kappa = float(d @ Hd)
        if kappa == 0.0:
            # exact breakdown: follow the flat direction to the boundary, or
            # return the best subspace solution found so far
            if interior:
                return _to_boundary(s, d, radius), "neg_curvature"
            break
        alpha = rr / kappa
        if interior and (kappa <= 0.0 or _norm(s + alpha * d) >= radius):
            interior = False
        if interior:
            s = s + alpha * d
        alphas.append(alpha)
        r = r + alpha * Hd
        gamma_next = _norm(r)
        if interior:
            if gamma_next <= rtol * gnorm:
                return s, "interior"
        else:
            h, _, h_neg = _ball_min(_tridiag(alphas, betas), gnorm, radius)
            if gamma_next * abs(float(h[-1])) <= rtol * gnorm:
                return (_combine(basis, h, radius),
                        "neg_curvature" if h_neg else "boundary")
        if gamma_next == 0.0:
            break
        beta = (gamma_next * gamma_next) / rr
        betas.append(beta)
        d = -r + beta * d
        rr = gamma_next * gamma_next
        sigma = -math.copysign(1.0, alpha) * sigma
        gamma = gamma_next

    if interior:
        return s, "max_iters"
    status = "max_iters" if len(alphas) == max_iters else (
        "neg_curvature" if h_neg else "boundary")
    return _combine(basis, h, radius), status


def _combine(basis: list[np.ndarray], h: np.ndarray, radius: float) -> np.ndarray:
    s = np.zeros_like(basis[0])
    for coef, q in zip(h, basis):
        s += float(coef) * q
    n = _norm(s)
    if n >= radius * (1.0 - 1e-9) and n > 0.0:
        s *= radius / n
    return s


# ---------------------------------------------------------------------------
# Step operations
# ---------------------------------------------------------------------------

def _finish(problem, state: SolverState, accepted: bool, step, w_new, f_new,
            g_new=None, *, cg_iters: int = 0, rows_touched: int = 0,
            tr_radius: float | None = None) -> IterationSnapshot:
    """Commit the trial point ``w_new = state.w + step`` with objective
    ``f_new`` (and gradient ``g_new``, evaluated here when not given) if the
    step was accepted, else count a rejection; then close the iteration."""
    if accepted:
        state.w = w_new
        state.obj = f_new
        state.grad = g_new if g_new is not None else problem.gradient(w_new)
        state.consecutive_rejects = 0
    else:
        state.consecutive_rejects += 1
    state.iter += 1
    return IterationSnapshot(
        iter=state.iter, w=state.w, objective=state.obj,
        grad_norm=_norm(state.grad), step_accepted=accepted,
        tr_radius=tr_radius, step_norm=_norm(step) if accepted else 0.0,
        cg_iters_used=cg_iters, rows_touched=rows_touched)


def _trust_region_step(problem, state: SolverState, config: SolverConfig,
                       rows, batch_rows: int) -> IterationSnapshot:
    g = state.grad
    hv = problem.make_hess_vec(state.w, rows)
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return hv(v)

    s, _status = steihaug_cg(counted, g, state.tr_radius,
                             rtol=config.cg_rtol, max_iters=config.cg_max_iters)
    cg_iters = calls
    pred = -(float(g @ s) + 0.5 * float(s @ counted(s)))
    snorm = _norm(s)
    f_old = state.obj
    w_new = state.w + s
    f_new = problem.objective(w_new)

    noise = 16.0 * np.finfo(np.float64).eps * (1.0 + abs(f_old))
    g_new = None
    if pred <= 0.0:
        # numerical breakdown of the model decrease; treat as a rejection
        accepted = False
        state.tr_radius = _SIGMA2 * state.tr_radius
    elif pred <= noise:
        # The model reduction sits at roundoff, so the ratio test carries no
        # information. Accept on plain descent, or on a gradient-norm
        # decrease (the gradient stays informative on the flat plateau);
        # the recorded objective stays monotone across the plateau.
        g_new = problem.gradient(w_new)
        accepted = f_new <= f_old or _norm(g_new) < _norm(g)
        if accepted:
            f_new = min(f_old, f_new)
            state.tr_radius = min(_SIGMA3 * state.tr_radius, _MAX_RADIUS)
        else:
            state.tr_radius = _SIGMA2 * min(state.tr_radius, snorm)
    else:
        rho = (f_old - f_new) / pred
        accepted = rho > _ETA0
        if not accepted:
            state.tr_radius = _SIGMA2 * min(state.tr_radius, snorm)
        elif rho < _ETA1:
            state.tr_radius = max(_SIGMA1 * state.tr_radius, _SIGMA2 * snorm)
        elif rho > _ETA2 and snorm >= state.tr_radius * (1.0 - 1e-10):
            state.tr_radius = min(_SIGMA3 * state.tr_radius, _MAX_RADIUS)

    return _finish(problem, state, accepted, s, w_new, f_new, g_new,
                   cg_iters=cg_iters, rows_touched=(cg_iters + 1) * batch_rows,
                   tr_radius=state.tr_radius)


def tron_step(problem, state: SolverState, config: SolverConfig) -> IterationSnapshot:
    """One trust-region Newton iteration on the full dataset."""
    return _trust_region_step(problem, state, config, None, problem.n_rows)


def stron_step(problem, state: SolverState, config: SolverConfig) -> IterationSnapshot:
    """Trust-region iteration with a subsampled Hessian operator.

    Only the Hessian products are restricted to a uniformly sampled row
    batch; the gradient and the acceptance test still use the full data.
    The batch grows geometrically after every iteration until it covers the
    dataset, at which point steps are identical to :func:`tron_step`.
    """
    n = problem.n_rows
    if state.batch_size >= n:
        rows, batch_rows = None, n
    else:
        rows = np.sort(state.rng.choice(n, size=state.batch_size, replace=False))
        batch_rows = state.batch_size
    snap = _trust_region_step(problem, state, config, rows, batch_rows)
    state.batch_size = min(n, _ceil_int(config.batch_growth * state.batch_size))
    return snap


def _cg_solve(hv, g: np.ndarray, rtol: float, max_iters: int):
    """Unpreconditioned CG on H x = -g; stops at a relative residual or on
    non-positive curvature (returning the progress so far). Returns ``(x,
    number of Hessian products)``."""
    x = np.zeros_like(g)
    r = g.copy()
    p = -g
    rr = float(g @ g)
    target = rtol * math.sqrt(rr)
    calls = 0
    for calls in range(1, max_iters + 1):
        Hp = hv(p)
        kappa = float(p @ Hp)
        if kappa <= 0.0:
            break
        a = rr / kappa
        x = x + a * p
        r = r + a * Hp
        rr_new = float(r @ r)
        if math.sqrt(rr_new) <= target:
            break
        p = -r + (rr_new / rr) * p
        rr = rr_new
    return x, calls


def _armijo(problem, state: SolverState, d: np.ndarray):
    """Backtracking line search (halving) from ``state.w`` along ``d`` under
    the sufficient-decrease rule. Returns ``(accepted, step, w_new, f_new)``
    in the argument order of :func:`_finish`."""
    w, f0 = state.w, state.obj
    gd = float(state.grad @ d)
    t = 1.0
    for _ in range(_ARMIJO_HALVINGS + 1):
        step = t * d
        w_new = w + step
        f_new = problem.objective(w_new)
        if f_new <= f0 + _ARMIJO_C * t * gd:
            return True, step, w_new, f_new
        t *= 0.5
    return False, None, None, None


def newton_cg_step(problem, state: SolverState, config: SolverConfig) -> IterationSnapshot:
    """Inexact Newton iteration: CG to a relative residual, then backtracking."""
    g = state.grad
    x, calls = _cg_solve(problem.make_hess_vec(state.w, None), g,
                         config.cg_rtol, config.cg_max_iters)
    d = -g if float(x @ g) >= 0.0 else x
    return _finish(problem, state, *_armijo(problem, state, d),
                   cg_iters=calls, rows_touched=calls * problem.n_rows)


class LbfgsMemory:
    """The newest ``maxlen`` curvature pairs (s, y), kept for the two-loop
    recursion.

    The pairs live in one (2*maxlen x d) buffer Z, filled as a ring with s
    and y of slot k in rows 2k and 2k+1, next to the Gram matrix Z Z^T. An
    append refreshes the Gram entries of its slot with ``Z @ s`` and
    ``Z @ y``; a direction then costs one ``Z @ g``, a recursion over the
    Gram entries whose cost does not depend on d, and one ``Z.T @ c``
    (Byrd, Nocedal & Schnabel 1994; Chen et al., VL-BFGS, 2014).

    Iteration yields read-only ``(s, y)`` views into Z, oldest first; an
    append beyond ``maxlen`` replaces the oldest pair.
    """

    def __init__(self, maxlen: int):
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.maxlen = maxlen
        self._Z = None
        self._gram = np.zeros((2 * maxlen, 2 * maxlen))
        self._next = 0  # slot the next append writes
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def _slots(self):
        """Filled slots, oldest first."""
        start = self._next - self._len
        return [(start + i) % self.maxlen for i in range(self._len)]

    def __iter__(self):
        for k in self._slots():
            s, y = self._Z[2 * k], self._Z[2 * k + 1]
            s.flags.writeable = y.flags.writeable = False
            yield s, y

    def append(self, pair) -> None:
        s, y = pair
        if self._Z is None:
            self._Z = np.zeros((2 * self.maxlen, np.size(s)))
        k = self._next
        self._Z[2 * k] = s
        self._Z[2 * k + 1] = y
        self._next = (k + 1) % self.maxlen
        self._len = min(self._len + 1, self.maxlen)
        rows = 2 * self._len
        Z = self._Z[:rows]
        for i in (2 * k, 2 * k + 1):
            # two gemv passes: a (rows x 2) gemm is about twice as slow
            self._gram[i, :rows] = self._gram[:rows, i] = Z @ Z[i]

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g for the L-BFGS inverse-Hessian approximation H.

        The two-loop recursion carries q and r as g times a scalar plus
        ``Z.T @ c``, so every inner product it takes is a Gram entry or an
        entry of ``Z @ g``. The initial matrix is gamma * I with gamma =
        s.y / y.y from the newest pair; empty memory gives exactly -g.
        """
        g = np.asarray(g, dtype=np.float64)
        if not self._len:
            return -g
        rows = 2 * self._len
        Z, G = self._Z[:rows], self._gram[:rows, :rows]
        zg = Z @ g
        c = np.zeros(rows)
        slots = self._slots()
        rho, alpha = {}, {}
        for k in reversed(slots):
            i = 2 * k
            rho[k] = 1.0 / G[i, i + 1]
            alpha[k] = rho[k] * (zg[i] + G[i] @ c)
            c[i + 1] -= alpha[k]
        i = 2 * slots[-1]
        gamma = G[i, i + 1] / G[i + 1, i + 1]
        c *= gamma
        for k in slots:
            i = 2 * k
            beta = rho[k] * (gamma * zg[i + 1] + G[i + 1] @ c)
            c[i] += alpha[k] - beta
        d = Z.T @ c
        d += gamma * g
        return -d


def lbfgs_direction(pairs, g: np.ndarray) -> np.ndarray:
    """Two-loop direction over (s, y) pairs, oldest first; empty memory
    gives exactly -g.

    ``pairs`` is an :class:`LbfgsMemory` or any sequence of pairs, which is
    copied into one first.
    """
    if not isinstance(pairs, LbfgsMemory):
        pairs = list(pairs)
        memory = LbfgsMemory(max(1, len(pairs)))
        for pair in pairs:
            memory.append(pair)
        pairs = memory
    return pairs.direction(g)


def lbfgs_step(problem, state: SolverState, config: SolverConfig) -> IterationSnapshot:
    """Quasi-Newton iteration from the bounded (s, y) memory."""
    g = state.grad
    d = lbfgs_direction(state.lbfgs_pairs, g)
    if float(d @ g) >= 0.0:
        d = -g
    accepted, step, w_new, f_new = _armijo(problem, state, d)
    snapshot = _finish(problem, state, accepted, step, w_new, f_new)
    if accepted:
        y = state.grad - g
        if float(step @ y) > _CURVATURE_TOL * _norm(step) * _norm(y):
            state.lbfgs_pairs.append((step, y))
    return snapshot


_STEPS = {
    "tron": tron_step,
    "stron": stron_step,
    "newton-cg": newton_cg_step,
    "lbfgs": lbfgs_step,
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def init_state(problem, config: SolverConfig) -> SolverState:
    try:
        w = np.zeros(problem.dim)
    except MemoryError as exc:
        raise MemoryError(f"cannot allocate a model of dimension {problem.dim}: "
                          f"{exc}") from exc
    g = problem.gradient(w)
    batch0 = min(problem.n_rows,
                 max(1, _ceil_int(config.batch0_frac * problem.n_rows)))
    return SolverState(
        w=w, grad=g, obj=problem.objective(w), grad_norm0=_norm(g),
        tr_radius=config.tr_radius0, rng=np.random.default_rng(config.rng_seed),
        batch_size=batch0, lbfgs_pairs=LbfgsMemory(config.lbfgs_memory))


def _emit(callback, snapshot: IterationSnapshot) -> bool:
    if callback is None:
        return True
    try:
        callback(snapshot)
        return True
    except Exception:
        warnings.warn("iteration callback raised; aborting the solver run",
                      RuntimeWarning, stacklevel=3)
        return False


def run_solver(problem, config: SolverConfig, callback=None):
    """Minimize ``problem`` with the configured method, from w = 0.

    ``callback``, when given, receives every IterationSnapshot (including
    one for the initial point at iter 0) before the stopping test runs; a
    raising callback aborts the run without propagating.

    Returns ``(w, termination)`` with termination one of ``"converged"``
    (relative gradient-norm test), ``"max_iters"``, ``"stalled"`` (20
    consecutive rejected steps), or ``"non_finite"`` (the objective or the
    gradient norm is not finite, e.g. the norm overflowed; checked before
    the convergence test, which such values would pass or fail spuriously).
    The tests read each snapshot's ``grad_norm``; nothing recomputes it.
    """
    step_fn = _STEPS[config.method]
    state = init_state(problem, config)
    snapshot = IterationSnapshot(
        iter=0, w=state.w, objective=state.obj, grad_norm=state.grad_norm0,
        step_accepted=True,
        tr_radius=state.tr_radius if config.method in ("tron", "stron") else None,
        step_norm=0.0, cg_iters_used=0, rows_touched=0)
    if not _emit(callback, snapshot):
        return state.w, "stalled"
    while True:
        if not (math.isfinite(snapshot.grad_norm) and math.isfinite(state.obj)):
            return state.w, "non_finite"
        if snapshot.grad_norm <= config.grad_tol * state.grad_norm0:
            return state.w, "converged"
        if state.iter >= config.max_iters:
            return state.w, "max_iters"
        if state.consecutive_rejects >= _STALL_LIMIT:
            return state.w, "stalled"
        snapshot = step_fn(problem, state, config)
        if not _emit(callback, snapshot):
            return state.w, "stalled"
