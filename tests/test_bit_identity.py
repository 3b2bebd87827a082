"""The marching schemes reproduce, bit for bit, the algorithm they replaced.

The library applies A with one cached kernel spectrum, runs its own CG
loop and carries each step's final product A u into the next step.  None
of that may change an output bit.  This module writes the plain
algorithm out once more (scipy's cg on a LinearOperator, every product
transforming the kernel afresh, no product reused) and requires equal
solver logs and bitwise-equal final states, so an optimisation that
changes bits fails here and not only in the benchmark's CSV check.
The subordination quadrature's vectorised sum is held to its plain
left-to-right loop the same way.
"""

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft
from scipy.sparse.linalg import LinearOperator, cg

from fracheat import problems
from fracheat.semigroup import frac_semigroup_kernel, subordination_quadrature
from fracheat.evolution import (
    SchemeConfig,
    _cg,
    caputo_l1_weights,
    solve,
    solve_scalar_l1,
)
from fracheat.grid import Mesh
from fracheat.kernel import kernel_weights, toeplitz_matvec


def _three_fft_matvec(kernel, v):
    full = np.concatenate((kernel.w[:0:-1], kernel.w))
    size = next_fast_len(len(full) + len(v) - 1)
    n_half = kernel.half_width
    return irfft(rfft(v, size) * rfft(full, size), size)[n_half:n_half + len(v)]


def test_cached_spectrum_bitwise_equals_three_fft():
    rng = np.random.default_rng(11)
    k = kernel_weights(0.4, 0.25, 300)
    # m = half_width, then two shorter grids on the same kernel; each size
    # is applied twice so the second product reads the cache
    for m in (300, 137, 51, 300, 137):
        v = rng.standard_normal(m)
        assert np.array_equal(toeplitz_matvec(k, v), _three_fft_matvec(k, v))
    assert len(k._spectra) == 3
    semi = frac_semigroup_kernel(0.6, 0.5, 0.3, 64)
    v = rng.standard_normal(40)
    assert np.array_equal(toeplitz_matvec(semi, v), _three_fft_matvec(semi, v))


def _reference_stage(kernel, shift, rhs, nonlin, x0, cfg):
    n = len(rhs)
    cg_total = 0

    def solve_linear(diag, b, x0):
        nonlocal cg_total
        count = [0]

        def mv(v):
            count[0] += 1
            return shift * v + _three_fft_matvec(kernel, v) + diag * v

        op = LinearOperator((n, n), matvec=mv, dtype=float)
        x, info = cg(op, b, x0=x0, rtol=cfg.linear_solver_tol, atol=0.0, maxiter=10 * n)
        assert info == 0
        cg_total += count[0]
        return x

    if nonlin is None:
        u = solve_linear(np.zeros(n), rhs, x0)
        res = shift * u + _three_fft_matvec(kernel, u) - rhs
        return u, 0, cg_total, float(np.max(np.abs(res)))

    def residual(v):
        return shift * v + _three_fft_matvec(kernel, v) - nonlin.f(v) - rhs

    u = x0.copy()
    g = residual(u)
    res = float(np.max(np.abs(g)))
    tol = cfg.newton_tol * max(1.0, float(np.max(np.abs(rhs))))
    for it in range(1, cfg.newton_max_iter + 1):
        if res <= tol:
            return u, it - 1, cg_total, res
        delta = solve_linear(-nonlin.df(u), -g, np.zeros(n))
        step = 1.0
        while True:
            u_try = u + step * delta
            g_try = residual(u_try)
            res_try = float(np.max(np.abs(g_try)))
            if res_try < res or step < 1.0 / 64.0:
                break
            step *= 0.5
        u, g, res = u_try, g_try, res_try
    assert res <= tol
    return u, cfg.newton_max_iter, cg_total, res


def _reference_solve(problem, cfg):
    """(log lines, final state) of the march, without snapshots or errors."""
    mesh = problem.mesh
    n_steps = cfg.n_steps(problem.t_horizon)
    kernel = kernel_weights(problem.s, mesh.h, mesh.n_points)
    u = problem.u0.values.copy()
    if cfg.stepper == "l1_caputo":
        b = caputo_l1_weights(problem.alpha, n_steps, cfg.dt)
        diffs = np.empty((n_steps, mesh.n_points))
    log = []
    for n in range(1, n_steps + 1):
        t = n * cfg.dt
        if cfg.stepper == "backward_euler":
            shift = 1.0 / cfg.dt
            rhs = u / cfg.dt + problem.forcing_values(t)
        else:
            shift = b[0]
            rhs = b[0] * u - b[n - 1:0:-1] @ diffs[: n - 1] + problem.forcing_values(t)
        u_new, ni, ci, res = _reference_stage(kernel, shift, rhs, problem.nonlinearity, u, cfg)
        if cfg.stepper == "l1_caputo":
            diffs[n - 1] = u_new - u
        log.append(f"{n},{t:.10g},{ni},{ci},{res:.3e}")
        u = u_new
    return log, u


@pytest.mark.parametrize(
    "problem, cfg",
    [
        (problems.to_evolution_problem(problems.example1(0.4), Mesh(0.25, -10.0, 10.0),
                                       t_horizon=0.05),
         SchemeConfig(stepper="backward_euler", dt=5e-3)),
        (problems.semilinear_variant(problems.example1(0.6), Mesh(0.25, -10.0, 10.0),
                                     alpha=0.5, t_horizon=0.05),
         SchemeConfig(stepper="l1_caputo", dt=5e-3)),
    ],
    ids=["linear-backward-euler", "semilinear-l1"],
)
def test_march_bitwise_equals_reference_algorithm(problem, cfg):
    traj = solve(problem, cfg)
    log, final = _reference_solve(problem, cfg)
    assert traj.log == log
    assert traj.final.values.tobytes() == final.tobytes()


def test_cg_matches_scipy_on_criterion_11_system():
    # scipy's cg stays the oracle: same iteration count, same solution
    rng = np.random.default_rng(47)
    s, h, n = 0.6, 0.1, 256
    kern = kernel_weights(s, h, n)
    shift = 1.0 / 1e-2

    def apply(v):
        return shift * v + toeplitz_matvec(kern, v)

    for x0 in (np.zeros(n), rng.uniform(-1.0, 1.0, n)):
        for _ in range(5):
            b = rng.uniform(-1.0, 1.0, n)
            count = [0]

            def counted(v):
                count[0] += 1
                return apply(v)

            x_ref, info = cg(LinearOperator((n, n), matvec=counted, dtype=float), b, x0=x0,
                             rtol=1e-14, atol=0.0, maxiter=10 * n)
            assert info == 0
            x, products = _cg(apply, b, x0, None, 1e-14, 0.0)
            assert products == count[0]
            assert np.max(np.abs(x - x_ref)) <= 1e-13 * np.max(np.abs(x_ref))
            # a supplied initial product replaces the computed one
            x_known, products_known = _cg(apply, b, x0, apply(x0), 1e-14, 0.0)
            assert products_known == products
            assert np.array_equal(x_known, x)


def _scalar_l1_loop(alpha, lam, t_final, dt, u0=1.0):
    # the history sum as a plain Python loop over j = 1..n-1
    n_steps = round(t_final / dt)
    b = caputo_l1_weights(alpha, n_steps, dt)
    ys = [float(u0)]
    diffs = []
    for n in range(1, n_steps + 1):
        hist = 0.0
        for j, d in enumerate(diffs, start=1):
            hist += b[n - j] * d
        y = (b[0] * ys[-1] - hist) / (b[0] + lam)
        diffs.append(y - ys[-1])
        ys.append(y)
    return np.array(ys)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_scalar_l1_bitwise_equals_loop(alpha):
    _, ys = solve_scalar_l1(alpha, 1.0, 1.0, 2e-3)
    assert np.array_equal(ys, _scalar_l1_loop(alpha, 1.0, 1.0, 2e-3))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_quadrature_sum_bitwise_equals_loop(alpha):
    # integrate sums weights * phi * g left to right; the plain loop is the reference
    q = subordination_quadrature(alpha)
    rng = np.random.default_rng(17)
    for _ in range(200):
        g = rng.standard_normal(len(q.nodes)) * rng.uniform(0.0, 1e3)
        total = 0.0
        for c in q.weights * q.phi * g:
            total += c
        assert q.integrate(g) == total
