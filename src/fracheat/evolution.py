"""Time stepping for the semilinear fractional diffusion problem

    d_t^alpha u + (-Laplacian_h)^s u = F + f(u)

on a truncated uniform mesh, with backward Euler (alpha = 1), the L1
scheme for the Caputo derivative (alpha < 1), and a mild-solution
reference integrator that applies the subordinated propagators mode by
mode in the eigenbasis of the same truncated operator, through the one
Wright sum of the semigroup module (exp(-t lambda) exactly at alpha = 1).

The implicit stage of both marching schemes solves

    c u + A u - f(u) = rhs

by Newton's method with a matrix-free conjugate-gradient inner solve.
The operator A is applied through its Toeplitz kernel: one forward and
one inverse FFT against the kernel's cached spectrum, so a step costs
O(N log N) per CG iteration.  A linear stage starts CG from the
previous state and reuses that step's final product A u for its initial
residual; the CG loop mirrors scipy's operation for operation, so these
savings change no output bit.  A Newton stage starts from the
polynomial through the last (up to five) states, extrapolated one step
(the predictor of implicit ODE codes), and computes the product of that
guess afresh.

A linear stage solves to a relative residual of 1e-12.  A Newton
correction is solved only inexactly: its CG stops once the residual is
below the forcing term min(0.1, |g|) |g| of the current Newton residual
g (Dembo, Eisenstat and Steihaug 1982), but never looser than a tenth of
Newton's own tolerance.  Newton's stopping test is unchanged, so the
answer meets the same tolerance with far fewer CG iterations, and the
iterates are still bitwise those of scipy's cg given that atol.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import GridFunction, Mesh
from .kernel import kernel_weights, toeplitz_matvec
from .semigroup import _gauss_panels, _mode_sum

__all__ = [
    "Nonlinearity",
    "EvolutionProblem",
    "SchemeConfig",
    "Trajectory",
    "caputo_l1_weights",
    "solve",
    "solve_scalar_l1",
    "evaluate_mild",
]

_STEPPERS = ("backward_euler", "l1_caputo", "mild_reference")


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise semilinear term f(u) with derivative, e.g. f(u) = -u^3.

    f must vanish at 0 (so zero data gives the zero solution).
    """

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        at_zero = np.asarray(self.f(np.zeros(1)), dtype=float)
        if np.max(np.abs(at_zero)) != 0.0:
            raise ValueError("nonlinearity must satisfy f(0) = 0")


@dataclass(frozen=True)
class EvolutionProblem:
    """Data of one initial-value problem on a truncated mesh.

    forcing has signature forcing(t) and returns the array of forcing
    values at time t on the problem's own mesh (no forcing when None);
    u0 holds the initial datum sampled on the same mesh; t_horizon is
    the final time of the evolution.
    """

    s: float
    alpha: float
    mesh: Mesh
    u0: GridFunction
    t_horizon: float = 1.0
    forcing: Optional[Callable[[float], np.ndarray]] = None
    nonlinearity: Optional[Nonlinearity] = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.t_horizon < math.inf:
            raise ValueError(f"t_horizon must be positive and finite, got {self.t_horizon}")
        if self.u0.mesh != self.mesh:
            raise ValueError("initial datum lives on a different mesh")

    def forcing_values(self, t):
        if self.forcing is None:
            return np.zeros(self.mesh.n_points)
        vals = np.asarray(self.forcing(t), dtype=float)
        if vals.shape != (self.mesh.n_points,):
            raise ValueError("forcing returned the wrong shape")
        return vals


@dataclass(frozen=True)
class SchemeConfig:
    """Numerical parameters of a run.

    stepper is one of "backward_euler", "l1_caputo" (both need dt > 0)
    and "mild_reference" (no time step, so no dt).
    """

    stepper: str
    dt: Optional[float] = None

    def __post_init__(self):
        if self.stepper not in _STEPPERS:
            raise ValueError(f"unknown stepper {self.stepper!r}")
        if self.stepper == "mild_reference":
            if self.dt is not None:
                raise ValueError("mild_reference has no time step; pass no dt")
        elif self.dt is None or not self.dt > 0.0:
            raise ValueError("dt must be positive")

    def n_steps(self, t_horizon):
        return _n_steps(t_horizon, self.dt)


@dataclass
class Trajectory:
    """Output of a run: the state at t_horizon, the sup-norm error over
    every state produced (None without an exact solution), and the
    solver log, one line per step."""

    final: GridFunction
    sup_error: Optional[float]
    log: list


def _n_steps(horizon, dt):
    """Number of steps dt > 0 in the horizon; raises ValueError unless the
    horizon is positive and a whole number of at least one step, and
    horizon / dt is finite."""
    if not horizon > 0.0:
        raise ValueError(f"the horizon must be positive, got {horizon}")
    ratio = horizon / dt
    if not math.isfinite(ratio):
        raise ValueError(f"horizon / dt must be finite, got {horizon} / {dt}")
    n = round(ratio)
    if n < 1:
        raise ValueError(f"the horizon {horizon} is less than one step dt={dt}")
    if abs(n * dt - horizon) > 1e-9 * horizon:
        raise ValueError("the horizon must be an integer number of steps")
    return n


def _l1_history(b, diffs, n):
    """History sum of the L1 scheme at step n: weight b_{n-j} on the
    increment u^j - u^{j-1} (row j-1 of diffs), j = 1..n-1, summed in
    order of increasing j."""
    return b[n - 1:0:-1] @ diffs[: n - 1]


def caputo_l1_weights(alpha, n_steps, dt):
    """L1 discretization weights b_k = ((k+1)^{1-a} - k^{1-a}) dt^{-a} / Gamma(2-a).

    Positive and strictly decreasing in k; b_0 plays the role of the
    diagonal shift of the implicit stage.  Raises ValueError unless
    n_steps >= 1 and dt > 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1) for the L1 scheme, got {alpha}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    k = np.arange(n_steps, dtype=float)
    b = ((k + 1.0) ** (1.0 - alpha) - k ** (1.0 - alpha))
    return b * dt ** (-alpha) / math.gamma(2.0 - alpha)


def _cg(apply, b, x0, jx0, rtol, t, atol=0.0):
    """Conjugate gradients for apply(x) = b from x0, to |r| < max(rtol |b|, atol).

    Mirrors scipy.sparse.linalg.cg (scipy 1.17, no preconditioner)
    operation for operation, so the iterates are bitwise those of
    cg(..., rtol=rtol, atol=atol): its stopping bound is the same
    max(atol, rtol |b|), its residual norm np.linalg.norm(r) is sqrt(r.r),
    the rho it computes next, and its updates x += a p, r -= a q go here
    through one scratch array.  jx0 is apply(x0) when the caller already
    has it, else None.  Returns (x, products): products counts the
    operator applications, the initial residual's included whether it was
    computed or reused.  Raises RuntimeError, naming the step to time t,
    on a direction of non-positive curvature (the operator is not
    positive definite) and after 10 n iterations without convergence.
    """
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b.copy(), 0
    stop = max(atol, rtol * bnrm2)
    x = x0.copy()
    products = 0
    if x.any():
        r = b - (apply(x) if jx0 is None else jx0)
        products = 1
    else:
        r = b.copy()
    scratch = np.empty_like(r)
    maxiter = 10 * len(b)
    p = rho_prev = None
    for it in range(maxiter):
        rho = r.dot(r)
        if math.sqrt(rho) < stop:
            return x, products
        if it > 0:
            p *= rho / rho_prev
            p += r
        else:
            p = r.copy()
        q = apply(p)
        products += 1
        curvature = np.dot(p, q)
        if not curvature > 0.0:
            raise RuntimeError(
                f"step to t={t:.10g}: CG met p'Jp = {curvature:.3e} <= 0, so the "
                "Jacobian shift + A - diag f'(u) is not positive definite"
            )
        a = rho / curvature
        x += np.multiply(a, p, out=scratch)
        r -= np.multiply(a, q, out=scratch)
        rho_prev = rho
    raise RuntimeError(f"step to t={t:.10g}: CG did not converge in {maxiter} iterations")


# Newton stops once sup |residual| <= tol = _NEWTON_TOL max(1, sup |rhs|).
# Every CG solve runs to a relative residual of _CG_RTOL; a Newton
# correction for the residual g stops earlier, at the absolute residual
# max(_NEWTON_FLOOR tol, min(_FORCING_MAX, sup |g|) sup |g|)
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 30
_CG_RTOL = 1e-12
_FORCING_MAX = 0.1
_NEWTON_FLOOR = 0.1

# A Newton stage starts from the polynomial through this many past states.
# On the benchmark's semilinear L1 march (250 steps at N = 801), starting
# from the previous state took 754 Newton iterations and 3,573 CG products;
# extrapolating through 2, 3, 4 or 5 states took 521, 318, 294 or 268 and
# 2,894, 2,143, 1,591 or 1,228.
_PREDICTOR_STATES = 5


def _implicit_stage(kernel, shift, rhs, nonlin, x0, ax0, t):
    """Solve shift*u + A u - f(u) = rhs for the step to time t.

    x0 is the initial guess.  A linear stage also takes its product A x0
    as ax0, or None when the caller does not have it; a Newton stage
    ignores ax0.  Returns (u, newton_iters, cg_iters, residual, A u): the
    final product feeds the residual and then, in a linear problem, the
    next step, whose guess is this step's u.  A Newton stage whose guess
    already meets the tolerance returns it with 0 Newton and 0 CG
    iterations and its true residual.

    The Jacobian shift + A - diag(f'(u)) stays symmetric positive
    definite for dissipative nonlinearities (f' <= 0), so CG applies.
    A linear stage is one CG solve to _CG_RTOL.  Each Newton correction
    is an inexact solve: its CG stops at the forcing term
    min(_FORCING_MAX, |g|) |g| of the residual g it corrects, floored at
    _NEWTON_FLOOR tol.  The sup norm |g| is at most the 2-norm CG
    measures, so the forcing is at least as strict as the 2-norm rule.
    """
    n = len(rhs)
    scratch = np.empty(n)

    def linear(v):
        # shift v + A v, summed in place into the fresh product
        out = toeplitz_matvec(kernel, v)
        out += np.multiply(shift, v, out=scratch)
        return out

    def jacobian(diag):
        # (shift v + A v) + diag v
        def apply(v):
            out = linear(v)
            out += np.multiply(diag, v, out=scratch)
            return out

        return apply

    if nonlin is None:
        jx0 = None if ax0 is None else shift * x0 + ax0
        u, cg_total = _cg(linear, rhs, x0, jx0, _CG_RTOL, t)
        au = toeplitz_matvec(kernel, u)
        res = shift * u + au - rhs
        return u, 0, cg_total, float(np.max(np.abs(res))), au

    def residual(v, av):
        return shift * v + av - nonlin.f(v) - rhs

    cg_total = 0
    u = x0.copy()
    au = toeplitz_matvec(kernel, u)
    g = residual(u, au)
    res = float(np.max(np.abs(g)))
    tol = _NEWTON_TOL * max(1.0, float(np.max(np.abs(rhs))))
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if res <= tol:
            return u, it - 1, cg_total, res, au
        cg_atol = max(_NEWTON_FLOOR * tol, min(_FORCING_MAX, res) * res)
        delta, ci = _cg(jacobian(-nonlin.df(u)), -g, np.zeros(n), None, _CG_RTOL, t,
                        atol=cg_atol)
        cg_total += ci
        damping = 1.0
        # damped update: halve the step while the residual fails to drop
        while True:
            u_try = u + damping * delta
            au_try = toeplitz_matvec(kernel, u_try)
            g_try = residual(u_try, au_try)
            res_try = float(np.max(np.abs(g_try)))
            if res_try < res or damping < 1.0 / 64.0:
                break
            damping *= 0.5
        u, au, g, res = u_try, au_try, g_try, res_try
    if res <= tol:
        return u, _NEWTON_MAX_ITER, cg_total, res, au
    raise RuntimeError(
        f"step to t={t:.10g}: Newton did not converge in {_NEWTON_MAX_ITER} "
        f"iterations (residual {res:.3e})"
    )


def solve(problem, cfg, exact=None, window=None):
    """Run the problem to t_horizon and return a Trajectory.

    The marching steppers step from t = 0 by cfg.dt; mild_reference calls
    evaluate_mild once, at t_horizon.  final is the last state.  exact, if
    given, has signature exact(t, x); sup_error is the sup-norm error
    against it (over the window, default the whole mesh) over every state
    produced, t = 0 included for the marching steppers.  Log lines read
    ``step,t,newton_iters,cg_iters,residual``, and ``1,T,0,0,0.0e+00``
    for mild_reference.
    """
    if cfg.stepper == "mild_reference":
        t = float(problem.t_horizon)
        states = [(t, evaluate_mild(problem, t).values, f"1,{t:.10g},0,0,0.0e+00")]
    else:
        states = _march(problem, cfg)

    mesh = problem.mesh
    sel = mesh.window_slice(*window) if window is not None else slice(None)
    x_win = mesh.nodes[sel]
    sup_error, log = None, []
    for t, u, row in states:
        if row is not None:
            log.append(row)
        if exact is not None:
            err = float(np.max(np.abs(u[sel] - exact(t, x_win))))
            sup_error = err if sup_error is None else max(sup_error, err)
    return Trajectory(GridFunction(mesh, u), sup_error, log)


def _check_stepper_alpha(stepper, alpha):
    """Raise ValueError unless the marching stepper fits alpha."""
    if stepper == "backward_euler" and alpha != 1.0:
        raise ValueError("backward Euler requires alpha = 1")
    if stepper == "l1_caputo" and not alpha < 1.0:
        raise ValueError("the L1 scheme requires alpha < 1")


def _extrapolate(states):
    """Value one step on of the polynomial through the equally spaced
    states, newest first: binomial weights (k, -C(k, 2), ..., +-1) for k
    states, summed newest first; one state gives a copy of itself."""
    k = len(states)
    guess = k * states[0]
    for j in range(1, k):
        guess += (-1) ** j * math.comb(k, j + 1) * states[j]
    return guess


def _march(problem, cfg):
    """Backward Euler or L1 marching: yield (t, u, log row) for t = 0
    (log row None) and then for each step; each u is a fresh array.

    A linear stage starts from the previous state and its carried product
    A u; a Newton stage starts from the extrapolation of the last
    _PREDICTOR_STATES states (see _extrapolate)."""
    _check_stepper_alpha(cfg.stepper, problem.alpha)
    mesh = problem.mesh
    n_steps = cfg.n_steps(problem.t_horizon)
    kernel = kernel_weights(problem.s, mesh.h, mesh.n_points)

    nonlin = problem.nonlinearity
    u = problem.u0.values.copy()
    au = None  # A u, carried from each linear step's residual into the next
    # the last states, newest first, that a Newton stage extrapolates
    states = None if nonlin is None else deque([u], maxlen=_PREDICTOR_STATES)
    yield 0.0, u, None

    if cfg.stepper == "l1_caputo":
        b = caputo_l1_weights(problem.alpha, n_steps, cfg.dt)
        diffs = np.empty((n_steps, mesh.n_points))  # row j-1 holds u^j - u^{j-1}

    for n in range(1, n_steps + 1):
        t = n * cfg.dt
        # backward Euler: (I/dt + A) u = u_prev/dt + F(t) + f(u)
        if cfg.stepper == "backward_euler":
            shift, rhs = 1.0 / cfg.dt, u / cfg.dt + problem.forcing_values(t)
        else:
            shift, rhs = b[0], b[0] * u - _l1_history(b, diffs, n) + problem.forcing_values(t)
        x0, ax0 = (u, au) if nonlin is None else (_extrapolate(states), None)
        u_new, ni, ci, res, au = _implicit_stage(kernel, shift, rhs, nonlin, x0, ax0, t)
        if cfg.stepper == "l1_caputo":
            diffs[n - 1] = u_new - u
        if states is not None:
            states.appendleft(u_new)
        yield t, u_new, f"{n},{t:.10g},{ni},{ci},{res:.3e}"
        u = u_new


# ---------------------------------------------------------------------------
# Mild-solution reference integrator (linear problems only)
# ---------------------------------------------------------------------------

_MILD_GL_ORDER = 6
_MILD_PANELS = 8

def evaluate_mild(problem, t):
    """Mild solution at time t >= 0 as a GridFunction (linear problems only).

    It solves the problem the marching schemes solve: the truncated
    operator A[j, k] = w[|j - k|] on the mesh, zero outside it.  One
    numpy.linalg.eigh diagonalizes A; u0 and the forcing samples are
    propagated mode by mode by semigroup._mode_sum and mapped back once.
    The forcing's memory integral is a fixed composite Gauss rule
    (semigroup._gauss_panels), _MILD_PANELS equal panels of _MILD_GL_ORDER
    nodes in v = q^alpha on [0, t^alpha].
    At alpha < 1 the Wright sum resolves E_alpha(-z) only up to
    z = t^alpha max(lambda) = 100 (semigroup._WRIGHT_Z_MAX);
    past it the call raises SeriesConvergenceError.  max(lambda) grows
    like 4^s / h^{2s}, so fine meshes at s near 1 meet the limit first.

    Cost: O(N^3) time and O(N^2) memory in the N mesh points, for the
    eigendecomposition.  Measured on a 2-vCPU Xeon VM with one BLAS
    thread, example 2 at s = 0.7, t = 0.2: 1.8 s and 176 MB peak RSS at
    N = 1921, 13 s and 519 MB at N = 3839.  At N = 961 a call takes
    0.25 s unforced and 0.32 s forced at alpha = 1, and 0.22 s and 0.49 s
    at alpha = 0.5.  Raises ValueError for a t that is negative, NaN or
    infinite and for a nonlinear problem.
    """
    if problem.nonlinearity is not None:
        raise ValueError("the mild reference integrator only supports linear problems")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be non-negative and finite, got {t}")
    mesh, alpha = problem.mesh, problem.alpha
    if t == 0.0:
        return GridFunction(mesh, problem.u0.values.copy())
    n = mesh.n_points
    w = kernel_weights(problem.s, mesh.h, n).w
    # A[j, k] = w[|j - k|], the operator both marching schemes apply.  Row j
    # is the length-n window of (w[n-1], .., w[1], w[0], .., w[n-1]) that
    # starts at n-1-j, so A is a view of that vector: eigh's copy is then
    # the only N x N input array
    lags = np.concatenate((w[n - 1:0:-1], w[:n]))
    lam, modes = np.linalg.eigh(np.lib.stride_tricks.sliding_window_view(lags, n)[::-1])
    acc = _mode_sum(alpha, t, lam) * (problem.u0.values @ modes)
    if problem.forcing is not None:
        # integral_0^t P(q) F(t - q) dq, composite Gauss in v = q^alpha: the
        # substitution absorbs the q^{alpha-1} endpoint singularity of P
        # (its factor alpha q^{alpha-1} is dv/dq) exactly, and at alpha = 1
        # it is the identity with P(q) = S(q)
        v, wv = _gauss_panels(t ** alpha * np.arange(_MILD_PANELS + 1) / _MILD_PANELS,
                              _MILD_GL_ORDER)
        for vi, wi in zip(v.tolist(), wv.tolist()):
            q = vi ** (1.0 / alpha)
            f_modes = problem.forcing_values(t - q) @ modes
            acc += wi * _mode_sum(alpha, q, lam, weighted_by_tau=True) * f_modes
    return GridFunction(mesh, modes @ acc)


# ---------------------------------------------------------------------------
# Scalar L1 scheme (single-mode relaxation, used as an ODE-level check)
# ---------------------------------------------------------------------------

def solve_scalar_l1(alpha, lam, t_final, dt):
    """L1 marching for the scalar relaxation d_t^alpha y + lam y = 0 from
    y(0) = 1.

    Returns (times, values) including t = 0.  The exact solution is
    E_alpha(-lam t^alpha).  Raises ValueError unless dt > 0 and
    t_final is a positive whole number of steps.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = _n_steps(t_final, dt)
    b = caputo_l1_weights(alpha, n_steps, dt)
    ys = np.empty(n_steps + 1)
    ys[0] = 1.0
    diffs = np.empty(n_steps)
    for n in range(1, n_steps + 1):
        y = (b[0] * ys[n - 1] - _l1_history(b, diffs, n)) / (b[0] + lam)
        diffs[n - 1] = y - ys[n - 1]
        ys[n] = y
    return np.arange(n_steps + 1) * dt, ys
