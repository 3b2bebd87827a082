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
O(N log N) per CG iteration.  Each step returns its final product A u,
which the next step reuses for its initial residual (the CG start in a
linear problem, the first Newton residual in a semilinear one).  The CG
loop mirrors scipy's operation for operation, so these savings change
no output bit.
"""

from __future__ import annotations

import math
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
    "step_backward_euler",
    "solve",
    "solve_scalar_l1",
    "evaluate_mild",
    "sup_norm_error",
]


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise semilinear term f(u) with derivative, e.g. f(u) = -u^3.

    f must vanish at 0 (so zero data gives the zero solution) and
    lipschitz_bound is a Lipschitz constant of f on |u| <= lipschitz_bound.
    """

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float = 1.0
    label: str = "f"

    def __post_init__(self):
        at_zero = np.asarray(self.f(np.zeros(1)), dtype=float)
        if np.max(np.abs(at_zero)) != 0.0:
            raise ValueError("nonlinearity must satisfy f(0) = 0")
        if not self.lipschitz_bound > 0.0:
            raise ValueError("lipschitz_bound must be positive")


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

    stepper is one of "backward_euler", "l1_caputo", "mild_reference";
    snapshot_times are matched to the nearest step.
    """

    stepper: str
    dt: float
    newton_tol: float = 1e-11
    newton_max_iter: int = 30
    linear_solver_tol: float = 1e-12
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.stepper not in ("backward_euler", "l1_caputo", "mild_reference"):
            raise ValueError(f"unknown stepper {self.stepper!r}")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not (self.newton_tol > 0.0 and self.linear_solver_tol > 0.0):
            raise ValueError("tolerances must be positive")

    def n_steps(self, t_horizon):
        n = round(t_horizon / self.dt)
        if n < 1 or abs(n * self.dt - t_horizon) > 1e-9 * t_horizon:
            raise ValueError("the horizon must be an integer number of steps")
        return n


@dataclass
class Trajectory:
    """Output of a run: snapshots, running error, and a solver log."""

    mesh: Mesh
    dt: float
    times: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)
    sup_error: Optional[float] = None
    log: list = field(default_factory=list)
    final: Optional[GridFunction] = None

    def snapshots_to_csv(self, path_or_buf):
        """Write all snapshots as long-format CSV with header ``t,x,value``."""
        buf = path_or_buf if hasattr(path_or_buf, "write") else open(path_or_buf, "w")
        try:
            buf.write("t,x,value\n")
            for t in sorted(self.snapshots):
                u = self.snapshots[t]
                for x, v in zip(u.mesh.nodes, u.values):
                    buf.write(f"{t:.17g},{x:.17g},{v:.17g}\n")
        finally:
            if buf is not path_or_buf:
                buf.close()


def _l1_history(b, diffs, n):
    """History sum of the L1 scheme at step n: weight b_{n-j} on the
    increment u^j - u^{j-1} (row j-1 of diffs), j = 1..n-1, summed in
    order of increasing j."""
    return b[n - 1:0:-1] @ diffs[: n - 1]


def caputo_l1_weights(alpha, n_steps, dt):
    """L1 discretization weights b_k = ((k+1)^{1-a} - k^{1-a}) dt^{-a} / Gamma(2-a).

    Positive and strictly decreasing in k; b_0 plays the role of the
    diagonal shift of the implicit stage.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1) for the L1 scheme, got {alpha}")
    k = np.arange(n_steps, dtype=float)
    b = ((k + 1.0) ** (1.0 - alpha) - k ** (1.0 - alpha))
    return b * dt ** (-alpha) / math.gamma(2.0 - alpha)


def _cg(apply, b, x0, jx0, rtol, t):
    """Conjugate gradients for apply(x) = b from x0, to |r| < rtol |b|.

    Mirrors scipy.sparse.linalg.cg (scipy 1.17, no preconditioner)
    operation for operation, so the iterates are bitwise scipy's.  jx0 is
    apply(x0) when the caller already has it, else None.  Returns
    (x, products): products counts the operator applications, the initial
    residual's included whether it was computed or reused.  Raises
    RuntimeError, naming the step to time t, on a direction of
    non-positive curvature (the operator is not positive definite) and
    after 10 n iterations without convergence.
    """
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b.copy(), 0
    atol = rtol * bnrm2
    x = x0.copy()
    products = 0
    if x.any():
        r = b - (apply(x) if jx0 is None else jx0)
        products = 1
    else:
        r = b.copy()
    maxiter = 10 * len(b)
    p = rho_prev = None
    for it in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, products
        rho = np.dot(r, r)
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
        x += a * p
        r -= a * q
        rho_prev = rho
    raise RuntimeError(f"step to t={t:.10g}: CG did not converge in {maxiter} iterations")


def _implicit_stage(kernel, shift, rhs, nonlin, x0, ax0, cfg, t):
    """Solve shift*u + A u - f(u) = rhs for the step to time t.

    x0 is the initial guess and ax0 its product A x0, or None when the
    caller does not have it.  Returns (u, newton_iters, cg_iters,
    residual, A u): the final product feeds the residual and then the
    next step, whose guess is this step's u.

    The Jacobian shift + A - diag(f'(u)) stays symmetric positive
    definite for dissipative nonlinearities (f' <= 0), so CG applies.
    """
    n = len(rhs)

    def jacobian(diag):
        return lambda v: shift * v + toeplitz_matvec(kernel, v) + diag * v

    if nonlin is None:
        # adding the zero diagonal can flip the sign of a zero entry, so it
        # stays to keep every output bit of the original operator
        diag = np.zeros(n)
        jx0 = None if ax0 is None else shift * x0 + ax0 + diag * x0
        u, cg_total = _cg(jacobian(diag), rhs, x0, jx0, cfg.linear_solver_tol, t)
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
    tol = cfg.newton_tol * max(1.0, float(np.max(np.abs(rhs))))
    for it in range(1, cfg.newton_max_iter + 1):
        if res <= tol:
            return u, it - 1, cg_total, res, au
        delta, ci = _cg(jacobian(-nonlin.df(u)), -g, np.zeros(n), None,
                        cfg.linear_solver_tol, t)
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
        return u, cfg.newton_max_iter, cg_total, res, au
    raise RuntimeError(
        f"step to t={t:.10g}: Newton did not converge in {cfg.newton_max_iter} "
        f"iterations (residual {res:.3e})"
    )


def step_backward_euler(problem, cfg, kernel, u_prev, t_next, au_prev=None):
    """One backward Euler step: (I + dt A) u = u_prev + dt (F(t_next) + f(u)).

    au_prev is A u_prev if known.  Returns (u, newton_iters, cg_iters,
    residual, A u).
    """
    dt = cfg.dt
    rhs = u_prev / dt + problem.forcing_values(t_next)
    return _implicit_stage(kernel, 1.0 / dt, rhs, problem.nonlinearity, u_prev, au_prev,
                           cfg, t_next)


def _operator_kernel(problem):
    return kernel_weights(problem.s, problem.mesh.h, problem.mesh.n_points)


def solve(problem, cfg, exact=None, window=None):
    """March the problem to t_final and return a Trajectory.

    exact, if given, has signature exact(t, x) and the running sup-norm
    error against it (over the window, default the whole mesh) is
    tracked across all steps.  Snapshot times are rounded to the grid of
    steps.  Log lines have the form ``step,t,newton_iters,cg_iters,residual``.
    """
    if cfg.stepper == "mild_reference":
        return _solve_mild(problem, cfg, exact=exact, window=window)
    if cfg.stepper == "backward_euler" and problem.alpha != 1.0:
        raise ValueError("backward Euler requires alpha = 1")
    if cfg.stepper == "l1_caputo" and not problem.alpha < 1.0:
        raise ValueError("the L1 scheme requires alpha < 1")

    mesh = problem.mesh
    n_steps = cfg.n_steps(problem.t_horizon)
    kernel = _operator_kernel(problem)
    sel = mesh.window_slice(*window) if window is not None else slice(None)
    x_win = mesh.nodes[sel]

    snap_steps = {}
    for t_req in cfg.snapshot_times:
        snap_steps[min(max(round(t_req / cfg.dt), 0), n_steps)] = t_req

    traj = Trajectory(mesh=mesh, dt=cfg.dt)
    u = problem.u0.values.copy()
    au = None  # A u, carried from each step's residual into the next step
    sup_err = 0.0 if exact is not None else None
    if exact is not None:
        sup_err = float(np.max(np.abs(u[sel] - exact(0.0, x_win))))
    if 0 in snap_steps:
        traj.snapshots[0.0] = GridFunction(mesh, u.copy())

    if cfg.stepper == "l1_caputo":
        b = caputo_l1_weights(problem.alpha, n_steps, cfg.dt)
        diffs = np.empty((n_steps, mesh.n_points))  # row j-1 holds u^j - u^{j-1}

    for n in range(1, n_steps + 1):
        t = n * cfg.dt
        if cfg.stepper == "backward_euler":
            u_new, ni, ci, res, au = step_backward_euler(problem, cfg, kernel, u, t, au)
        else:
            rhs = b[0] * u - _l1_history(b, diffs, n) + problem.forcing_values(t)
            u_new, ni, ci, res, au = _implicit_stage(
                kernel, b[0], rhs, problem.nonlinearity, u, au, cfg, t
            )
            diffs[n - 1] = u_new - u
        traj.log.append(f"{n},{t:.10g},{ni},{ci},{res:.3e}")
        if exact is not None:
            sup_err = max(sup_err, float(np.max(np.abs(u_new[sel] - exact(t, x_win)))))
        if n in snap_steps:
            traj.snapshots[t] = GridFunction(mesh, u_new.copy())
        traj.times.append(t)
        u = u_new

    traj.final = GridFunction(mesh, u)
    traj.sup_error = sup_err
    return traj


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


def _solve_mild(problem, cfg, exact=None, window=None):
    """Trajectory built by evaluating the mild solution at snapshot times.

    The sup error is taken over the snapshot times only (the integrator
    has no marching grid).
    """
    if problem.nonlinearity is not None:
        raise ValueError("the mild reference integrator only supports linear problems")
    mesh = problem.mesh
    sel = mesh.window_slice(*window) if window is not None else slice(None)
    x_win = mesh.nodes[sel]
    times = sorted(set(cfg.snapshot_times) | {problem.t_horizon})
    traj = Trajectory(mesh=mesh, dt=cfg.dt)
    sup_err = None if exact is None else 0.0
    for t in times:
        vals = _mild_state(problem, float(t))
        traj.snapshots[float(t)] = GridFunction(mesh, vals)
        traj.times.append(float(t))
        traj.log.append(f"{len(traj.times)},{t:.10g},0,0,0.0e+00")
        if exact is not None:
            sup_err = max(sup_err, float(np.max(np.abs(vals[sel] - exact(t, x_win)))))
    traj.final = traj.snapshots[times[-1]]
    traj.sup_error = sup_err
    return traj


# ---------------------------------------------------------------------------
# Scalar L1 scheme (single-mode relaxation, used as an ODE-level check)
# ---------------------------------------------------------------------------

def solve_scalar_l1(alpha, lam, t_final, dt, u0=1.0):
    """L1 marching for the scalar relaxation d_t^alpha y + lam y = 0.

    Returns (times, values) including t = 0.  The exact solution is
    u0 * E_alpha(-lam t^alpha).
    """
    n_steps = round(t_final / dt)
    if abs(n_steps * dt - t_final) > 1e-9 * t_final:
        raise ValueError("t_final must be an integer number of steps")
    b = caputo_l1_weights(alpha, n_steps, dt)
    ys = np.empty(n_steps + 1)
    ys[0] = float(u0)
    diffs = np.empty(n_steps)
    for n in range(1, n_steps + 1):
        y = (b[0] * ys[n - 1] - _l1_history(b, diffs, n)) / (b[0] + lam)
        diffs[n - 1] = y - ys[n - 1]
        ys[n] = y
    return np.arange(n_steps + 1) * dt, ys


def sup_norm_error(u, exact, t, window=None):
    """Sup-norm distance between a grid function and exact(t, x) on a window."""
    sel = u.mesh.window_slice(*window) if window is not None else slice(None)
    x = u.mesh.nodes[sel]
    return float(np.max(np.abs(u.values[sel] - exact(t, x))))
