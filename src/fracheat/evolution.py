"""Time stepping for the semilinear fractional diffusion problem

    d_t^alpha u + (-Laplacian_h)^s u = F + f(u)

on a truncated uniform mesh, with backward Euler (alpha = 1), the L1
scheme for the Caputo derivative (alpha < 1), and a mild-solution
reference integrator built on the subordinated propagators.

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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import GridFunction, Mesh
from .kernel import kernel_weights, toeplitz_matvec
from . import semigroup as sg

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

    forcing has signature forcing(t, x) with x an array of node
    coordinates, returning the array of forcing values; u0 holds the
    initial datum sampled on the same mesh; t_horizon is the final time
    of the evolution.
    """

    s: float
    alpha: float
    mesh: Mesh
    u0: GridFunction
    t_horizon: float = 1.0
    forcing: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    nonlinearity: Optional[Nonlinearity] = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.t_horizon > 0.0:
            raise ValueError(f"t_horizon must be positive, got {self.t_horizon}")
        if self.u0.mesh != self.mesh:
            raise ValueError("initial datum lives on a different mesh")

    def forcing_values(self, t):
        if self.forcing is None:
            return np.zeros(self.mesh.n_points)
        vals = np.asarray(self.forcing(t, self.mesh.nodes), dtype=float)
        if vals.shape != (self.mesh.n_points,):
            raise ValueError("forcing returned the wrong shape")
        return vals


@dataclass(frozen=True)
class SchemeConfig:
    """Numerical parameters of a run.

    stepper is one of "backward_euler", "l1_caputo" (both need dt > 0)
    and "mild_reference" (no time step, so no dt); snapshot_times must
    lie in [0, t_horizon].  Every stepper keys each snapshot by the
    requested time it answers: the marching steppers store the state at
    the nearest step under that time, so two requested times that round
    to one step get one key each, and mild_reference evaluates at the
    requested time itself and also stores t_horizon.
    """

    stepper: str
    dt: Optional[float] = None
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.stepper not in ("backward_euler", "l1_caputo", "mild_reference"):
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
    """Output of a run: snapshots, running error, and a solver log."""

    snapshots: dict = field(default_factory=dict)
    sup_error: Optional[float] = None
    log: list = field(default_factory=list)
    final: Optional[GridFunction] = None


def _n_steps(horizon, dt):
    """Number of steps dt > 0 in the horizon; raises ValueError unless the
    horizon is positive and a whole number of steps."""
    if not horizon > 0.0:
        raise ValueError(f"the horizon must be positive, got {horizon}")
    n = round(horizon / dt)
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
    diagonal shift of the implicit stage.  Raises ValueError unless dt > 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1) for the L1 scheme, got {alpha}")
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

    x0 is the initial guess and ax0 its product A x0, or None when the
    caller does not have it.  Returns (u, newton_iters, cg_iters,
    residual, A u): the final product feeds the residual and then, in a
    linear problem, the next step, whose guess is this step's u.  A
    Newton stage whose guess already meets the tolerance returns it with
    0 Newton and 0 CG iterations and its true residual.

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

    def jacobian(diag):
        # (shift v + A v) + diag v, summed in place into the fresh product
        def apply(v):
            out = toeplitz_matvec(kernel, v)
            out += np.multiply(shift, v, out=scratch)
            out += np.multiply(diag, v, out=scratch)
            return out

        return apply

    if nonlin is None:
        # adding the zero diagonal can flip the sign of a zero entry, so it
        # stays to keep every output bit of the original operator
        diag = np.zeros(n)
        jx0 = None if ax0 is None else shift * x0 + ax0 + diag * x0
        u, cg_total = _cg(jacobian(diag), rhs, x0, jx0, _CG_RTOL, t)
        au = toeplitz_matvec(kernel, u)
        res = shift * u + au - rhs
        return u, 0, cg_total, float(np.max(np.abs(res))), au

    def residual(v, av):
        return shift * v + av - nonlin.f(v) - rhs

    cg_total = 0
    u = x0.copy()
    au = toeplitz_matvec(kernel, u) if ax0 is None else ax0
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
    evaluate_mild at the sorted distinct snapshot times and t_horizon.
    exact, if given, has signature exact(t, x); sup_error is the sup-norm
    error against it (over the window, default the whole mesh) over every
    state produced.  Snapshot times outside [0, t_horizon] are rejected
    (keys: see SchemeConfig); final is the t_horizon snapshot if there is
    one.  Log lines read ``step,t,newton_iters,cg_iters,residual``, and
    ``step,t,0,0,0.0e+00`` for mild_reference.
    """
    for t_req in cfg.snapshot_times:
        if not 0.0 <= t_req <= problem.t_horizon:
            raise ValueError(
                f"snapshot time {t_req:g} lies outside [0, {problem.t_horizon:g}]"
            )
    if cfg.stepper == "mild_reference":
        times = sorted({float(t) for t in cfg.snapshot_times} | {float(problem.t_horizon)})
        states = ((t, evaluate_mild(problem, t).values, (t,), f"{step},{t:.10g},0,0,0.0e+00")
                  for step, t in enumerate(times, start=1))
    else:
        states = _march(problem, cfg)

    mesh = problem.mesh
    sel = mesh.window_slice(*window) if window is not None else slice(None)
    x_win = mesh.nodes[sel]
    traj = Trajectory()
    for t, u, keys, row in states:
        if row is not None:
            traj.log.append(row)
        if exact is not None:
            err = float(np.max(np.abs(u[sel] - exact(t, x_win))))
            traj.sup_error = err if traj.sup_error is None else max(traj.sup_error, err)
        for t_req in keys:
            traj.snapshots[t_req] = GridFunction(mesh, u.copy())
    final = traj.snapshots.get(problem.t_horizon)
    traj.final = GridFunction(mesh, u) if final is None else final
    return traj


def _check_stepper_alpha(stepper, alpha):
    """Raise ValueError unless the marching stepper fits alpha."""
    if stepper == "backward_euler" and alpha != 1.0:
        raise ValueError("backward Euler requires alpha = 1")
    if stepper == "l1_caputo" and not alpha < 1.0:
        raise ValueError("the L1 scheme requires alpha < 1")


def _extrapolate(states):
    """Value one step on of the polynomial through the equally spaced
    states, newest first: binomial weights (k, -C(k, 2), ..., +-1) for k
    states, summed newest first.  One state is returned itself."""
    k = len(states)
    if k == 1:
        return states[0]
    guess = k * states[0]
    for j in range(1, k):
        guess += (-1) ** j * math.comb(k, j + 1) * states[j]
    return guess


def _march(problem, cfg):
    """Backward Euler or L1 marching: yield (t, u, snapshot keys, log
    row) for t = 0 (no log row) and then for each step.

    A linear stage starts from the previous state and its carried product
    A u; a Newton stage starts from the extrapolation of the last
    _PREDICTOR_STATES states (see _extrapolate)."""
    _check_stepper_alpha(cfg.stepper, problem.alpha)
    mesh = problem.mesh
    n_steps = cfg.n_steps(problem.t_horizon)
    kernel = kernel_weights(problem.s, mesh.h, mesh.n_points)

    snap_steps = {}  # step -> the requested times it answers
    for t_req in cfg.snapshot_times:
        snap_steps.setdefault(round(t_req / cfg.dt), []).append(float(t_req))

    nonlin = problem.nonlinearity
    u = problem.u0.values.copy()
    au = None  # A u, carried from each linear step's residual into the next
    # the last states, newest first, that a Newton stage extrapolates
    states = None if nonlin is None else deque([u], maxlen=_PREDICTOR_STATES)
    yield 0.0, u, snap_steps.get(0, ()), None

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
        yield t, u_new, snap_steps.get(n, ()), f"{n},{t:.10g},{ni},{ci},{res:.3e}"
        u = u_new


# ---------------------------------------------------------------------------
# Mild-solution reference integrator (linear problems only)
# ---------------------------------------------------------------------------

_MILD_GL_ORDER = 6
_MILD_PANELS = 8


def _mild_state(problem, t):
    """Evaluate the mild solution u(t) = S(t) u0 + memory integral of P * F."""
    mesh = problem.mesh
    s, alpha = problem.s, problem.alpha
    if t == 0.0:
        return problem.u0.values.copy()
    if alpha == 1.0:
        kern = sg.frac_semigroup_kernel(s, mesh.h, t, mesh.n_points)
    else:
        kern = sg.subordinated_kernel(s, mesh.h, alpha, t, mesh.n_points)
    acc = toeplitz_matvec(kern, problem.u0.values)
    if problem.forcing is not None:
        # integral_0^t P(q) F(t - q) dq, composite Gauss in v = q^alpha: the
        # substitution absorbs the q^{alpha-1} endpoint singularity of P
        # exactly, and at alpha = 1 it is the identity with P(q) = T(q)
        x_ref, w_ref = np.polynomial.legendre.leggauss(_MILD_GL_ORDER)
        v_max = t ** alpha
        for p in range(_MILD_PANELS):
            lo, hi = v_max * p / _MILD_PANELS, v_max * (p + 1) / _MILD_PANELS
            half = 0.5 * (hi - lo)
            for xr, wr in zip(x_ref, w_ref):
                q = (lo + half * (xr + 1.0)) ** (1.0 / alpha)
                if alpha == 1.0:
                    kq = sg.frac_semigroup_kernel(s, mesh.h, q, mesh.n_points)
                else:
                    # kernel of integral tau Phi_alpha(tau) exp(-tau q^alpha A) dtau
                    kq = sg.subordinated_kernel(s, mesh.h, alpha, q, mesh.n_points,
                                                weighted_by_tau=True)
                acc += half * wr * toeplitz_matvec(kq, problem.forcing_values(t - q))
    return acc


def evaluate_mild(problem, t):
    """Mild solution at one time as a GridFunction (linear problems only)."""
    if problem.nonlinearity is not None:
        raise ValueError("the mild reference integrator only supports linear problems")
    return GridFunction(problem.mesh, _mild_state(problem, t))


# ---------------------------------------------------------------------------
# Scalar L1 scheme (single-mode relaxation, used as an ODE-level check)
# ---------------------------------------------------------------------------

def solve_scalar_l1(alpha, lam, t_final, dt, u0=1.0):
    """L1 marching for the scalar relaxation d_t^alpha y + lam y = 0.

    Returns (times, values) including t = 0.  The exact solution is
    u0 * E_alpha(-lam t^alpha).  Raises ValueError unless dt > 0 and
    t_final is a positive whole number of steps.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = _n_steps(t_final, dt)
    b = caputo_l1_weights(alpha, n_steps, dt)
    ys = np.empty(n_steps + 1)
    ys[0] = float(u0)
    diffs = np.empty(n_steps)
    for n in range(1, n_steps + 1):
        y = (b[0] * ys[n - 1] - _l1_history(b, diffs, n)) / (b[0] + lam)
        diffs[n - 1] = y - ys[n - 1]
        ys[n] = y
    return np.arange(n_steps + 1) * dt, ys
