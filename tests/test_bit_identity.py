"""The marching schemes reproduce, bit for bit, the algorithm they replaced.

The library applies A with one cached kernel spectrum, runs its own CG
loop and carries each linear step's final product A u into the next
step.  None of that may change an output bit.  This module writes the
plain algorithm out once more (scipy's cg on a LinearOperator, every
product transforming the kernel afresh, no product reused) and requires
equal solver logs and bitwise-equal final states, so an optimisation
that changes bits fails here and not only in the benchmark's CSV check.
The reference's Newton corrections pass scipy's cg the same forcing
atol as the library's inexact Newton, and start from the same
extrapolation of the last five states, so the semilinear march is held
bitwise too.  The same reference with atol = 0 (exact corrections) is
the yardstick for the accuracy and the CG work that the forcing saves,
and with Newton started from the previous state, the yardstick for what
the extrapolation saves.
The subordination quadrature's vectorised sum is held to its plain
left-to-right loop the same way, the spectral sampler's in-place blocks
to the plain exp(-outer) loop, the product's direct pocketfft calls to
scipy.fft's public rfft/irfft, and the Mittag-Leffler series' gammaln
table to one scalar gammaln call per term.
"""

import math

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft
from scipy.sparse.linalg import LinearOperator, cg
from scipy.special import gammaln

from fracheat import problems
from fracheat.semigroup import (
    _BLOCK,
    _spectral_samples,
    frac_semigroup_kernel,
    subordination_quadrature,
)
from fracheat.evolution import (
    _CG_RTOL,
    _FORCING_MAX,
    _NEWTON_FLOOR,
    _NEWTON_MAX_ITER,
    _NEWTON_TOL,
    SchemeConfig,
    _cg,
    caputo_l1_weights,
    solve,
    solve_scalar_l1,
)
from fracheat.grid import Mesh
from fracheat.kernel import kernel_weights, toeplitz_matvec
from fracheat.special import _ML_MAX_TERMS, _ml_series_float


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


def _reference_stage(kernel, shift, rhs, nonlin, x0, inexact=True):
    n = len(rhs)
    cg_total = 0

    def solve_linear(diag, b, x0, atol=0.0):
        nonlocal cg_total
        count = [0]

        def mv(v):
            count[0] += 1
            return shift * v + _three_fft_matvec(kernel, v) + diag * v

        op = LinearOperator((n, n), matvec=mv, dtype=float)
        x, info = cg(op, b, x0=x0, rtol=_CG_RTOL, atol=atol, maxiter=10 * n)
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
    tol = _NEWTON_TOL * max(1.0, float(np.max(np.abs(rhs))))
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if res <= tol:
            return u, it - 1, cg_total, res
        atol = max(_NEWTON_FLOOR * tol, min(_FORCING_MAX, res) * res) if inexact else 0.0
        delta = solve_linear(-nonlin.df(u), -g, np.zeros(n), atol)
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
    return u, _NEWTON_MAX_ITER, cg_total, res


# weights, newest state first, of the polynomial through k equally spaced
# states evaluated one step on
_EXTRAPOLATION = {
    1: (1,),
    2: (2, -1),
    3: (3, -3, 1),
    4: (4, -6, 4, -1),
    5: (5, -10, 10, -5, 1),
}


def _reference_solve(problem, cfg, inexact=True, predict=True):
    """(log lines, final state, Newton tolerance of each step) of the
    march, without snapshots or errors.

    inexact=False solves every Newton correction to _CG_RTOL.  A Newton
    stage starts from the extrapolation of the last five states, or with
    predict=False from the previous state; a linear stage always starts
    from the previous state."""
    mesh = problem.mesh
    n_steps = cfg.n_steps(problem.t_horizon)
    kernel = kernel_weights(problem.s, mesh.h, mesh.n_points)
    u = problem.u0.values.copy()
    if cfg.stepper == "l1_caputo":
        b = caputo_l1_weights(problem.alpha, n_steps, cfg.dt)
        diffs = np.empty((n_steps, mesh.n_points))
    past = [u]  # newest first
    log, tols = [], []
    for n in range(1, n_steps + 1):
        t = n * cfg.dt
        if cfg.stepper == "backward_euler":
            shift = 1.0 / cfg.dt
            rhs = u / cfg.dt + problem.forcing_values(t)
        else:
            shift = b[0]
            rhs = b[0] * u - b[n - 1:0:-1] @ diffs[: n - 1] + problem.forcing_values(t)
        x0 = u
        if predict and problem.nonlinearity is not None and len(past) > 1:
            weights = _EXTRAPOLATION[len(past)]
            x0 = weights[0] * past[0]
            for c, v in zip(weights[1:], past[1:]):
                x0 += c * v
        u_new, ni, ci, res = _reference_stage(kernel, shift, rhs, problem.nonlinearity, x0,
                                              inexact)
        if cfg.stepper == "l1_caputo":
            diffs[n - 1] = u_new - u
        past = [u_new] + past[:4]
        log.append(f"{n},{t:.10g},{ni},{ci},{res:.3e}")
        tols.append(_NEWTON_TOL * max(1.0, float(np.max(np.abs(rhs)))))
        u = u_new
    return log, u, tols


_SEMILINEAR_L1 = (
    problems.semilinear_variant(problems.example1(0.6), Mesh(0.25, -10.0, 10.0),
                                alpha=0.5, t_horizon=0.05),
    SchemeConfig(stepper="l1_caputo", dt=5e-3),
)


@pytest.mark.parametrize(
    "problem, cfg",
    [
        (problems.to_evolution_problem(problems.example1(0.4), Mesh(0.25, -10.0, 10.0),
                                       t_horizon=0.05),
         SchemeConfig(stepper="backward_euler", dt=5e-3)),
        _SEMILINEAR_L1,
    ],
    ids=["linear-backward-euler", "semilinear-l1"],
)
def test_march_bitwise_equals_reference_algorithm(problem, cfg):
    traj = solve(problem, cfg)
    log, final, _ = _reference_solve(problem, cfg)
    assert traj.log == log
    assert traj.final.values.tobytes() == final.tobytes()


_SEMILINEAR_BACKWARD_EULER = (
    problems.semilinear_variant(problems.example1(0.6), Mesh(0.25, -10.0, 10.0),
                                t_horizon=0.05),
    SchemeConfig(stepper="backward_euler", dt=5e-3),
)


@pytest.mark.parametrize(
    "problem, cfg",
    [_SEMILINEAR_L1, _SEMILINEAR_BACKWARD_EULER],
    ids=["semilinear-l1", "semilinear-backward-euler"],
)
def test_inexact_newton_keeps_accuracy_with_less_cg(problem, cfg):
    # the forcing term may cost neither accuracy nor the Newton tolerance,
    # and must save at least 40% of the CG work of exact corrections
    traj = solve(problem, cfg)
    # the inexact reference is the library bit for bit (tested above), so
    # its right-hand sides give each logged step its Newton tolerance
    log, _, tols = _reference_solve(problem, cfg)
    assert traj.log == log
    exact_log, exact_final, _ = _reference_solve(problem, cfg, inexact=False)
    gap = np.max(np.abs(traj.final.values - exact_final))
    assert gap <= 1e-10 * np.max(np.abs(exact_final))
    rows = [row.split(",") for row in traj.log]
    for (_, _, _, _, res), tol in zip(rows, tols):
        # the log rounds to 4 digits, and rounding keeps res <= tol
        assert float(res) <= float(f"{tol:.3e}")
    cg_inexact = sum(int(row[3]) for row in rows)
    cg_exact = sum(int(row.split(",")[3]) for row in exact_log)
    assert cg_inexact <= 0.6 * cg_exact


def _iterations(log):
    """(Newton iterations, CG products) of each logged step."""
    rows = [row.split(",") for row in log]
    return [int(row[2]) for row in rows], [int(row[3]) for row in rows]


def _semilinear(m, mesh, stepper, dt, t_horizon, alpha=1.0):
    return (problems.semilinear_variant(m, mesh, alpha=alpha, t_horizon=t_horizon),
            SchemeConfig(stepper=stepper, dt=dt))


@pytest.mark.parametrize(
    "problem, cfg",
    [
        _semilinear(problems.example1(0.6), Mesh(0.25, -10.0, 10.0), "l1_caputo", 5e-3, 0.2,
                    alpha=0.5),
        _SEMILINEAR_BACKWARD_EULER,
    ],
    ids=["semilinear-l1", "semilinear-backward-euler"],
)
def test_predictor_saves_newton_and_cg(problem, cfg):
    # starting Newton from the extrapolated states, not the previous state,
    # must save at least 30% of the Newton iterations and 20% of the CG work
    newton, cg_products = _iterations(solve(problem, cfg).log)
    log, _, _ = _reference_solve(problem, cfg, predict=False)
    newton_prev, cg_prev = _iterations(log)
    assert sum(newton) <= 0.7 * sum(newton_prev)
    assert sum(cg_products) <= 0.8 * sum(cg_prev)


@pytest.mark.parametrize(
    "problem, cfg",
    [
        _semilinear(problems.example1(0.6), Mesh(0.125, -50.0, 50.0), "l1_caputo", 1e-2, 0.5,
                    alpha=0.3),
        _semilinear(problems.example1(0.3), Mesh(0.25, -20.0, 20.0), "l1_caputo", 5e-2, 1.0,
                    alpha=0.8),
        _semilinear(problems.example2(0.7), Mesh(0.05, -0.95, 0.95), "l1_caputo", 1e-2, 0.5,
                    alpha=0.5),
        _semilinear(problems.example2(0.4), Mesh(0.025, -0.975, 0.975), "l1_caputo", 1e-3,
                    0.2, alpha=0.9),
        _semilinear(problems.example1(0.8), Mesh(0.25, -20.0, 20.0), "backward_euler", 1e-2,
                    1.0),
        _semilinear(problems.example1(0.6), Mesh(0.5, -20.0, 20.0), "backward_euler", 0.1,
                    2.0),
    ],
    ids=["l1-example1-s0.6-a0.3", "l1-example1-s0.3-a0.8", "l1-example2-s0.7-a0.5",
         "l1-example2-s0.4-a0.9", "be-example1-s0.8", "be-example1-s0.6-dt0.1"],
)
def test_predictor_keeps_the_answer(problem, cfg):
    # with and without the predictor the march meets one Newton tolerance,
    # so the states agree to the inexact-Newton test's bound, and no step
    # may need more Newton iterations than the worst step without it
    traj = solve(problem, cfg)
    log, final, _ = _reference_solve(problem, cfg, predict=False)
    assert np.max(np.abs(traj.final.values - final)) <= 1e-10 * np.max(np.abs(final))
    newton, _ = _iterations(traj.log)
    newton_prev, _ = _iterations(log)
    assert max(newton) <= max(newton_prev)


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


def _spectral_samples_loop(theta, s, cusp, factors, rates):
    # the sampler as first written: one negated outer product per block
    lam = (4.0 * np.sin(theta / 2.0) ** 2) ** s
    g = cusp * lam
    step = max(1, _BLOCK // len(theta))
    for i in range(0, len(rates), step):
        blk = slice(i, i + step)
        g += factors[blk] @ np.exp(-np.outer(rates[blk], lam))
    return g


def test_spectral_samples_bitwise_equal_plain_loop():
    # one rate (the semigroup kernel), then the 384 tau nodes of alpha = 1/2
    # on theta grids long enough that the nodes go in several blocks
    theta = 2.0 * math.pi * np.arange(513) / 1024
    rates = np.array([0.3 / 0.5 ** 1.2])
    factors = np.ones(1)
    got = _spectral_samples(theta, 0.6, float(rates[0]), factors, rates)
    assert got.tobytes() == _spectral_samples_loop(theta, 0.6, float(rates[0]), factors,
                                                   rates).tobytes()
    q = subordination_quadrature(0.5)
    assert len(q.nodes) == 384
    factors = q.weights * q.phi
    # a first grid of 1025 nodes (blocks of 127, the last one short) and
    # the 4096 new nodes of a doubling (blocks of 32)
    grids = (2.0 * math.pi * np.arange(1025) / 2048,
             2.0 * math.pi * np.arange(1, 8192, 2) / 8192)
    for theta, t in zip(grids, (0.1, 0.7)):
        assert _BLOCK // len(theta) < len(q.nodes)  # more than one block
        rates = q.nodes * t ** 0.5 / 0.25 ** 0.8
        cusp = float(np.sum(factors * rates))
        got = _spectral_samples(theta, 0.4, cusp, factors, rates)
        assert got.tobytes() == _spectral_samples_loop(theta, 0.4, cusp, factors,
                                                       rates).tobytes()


@pytest.mark.parametrize("m, size", [(481, 1452), (801, 2420), (1921, 5775)])
def test_product_bitwise_at_generic_radix_lengths(m, size):
    # lengths with a factor 7 or 11, which pocketfft transforms by its
    # generic radix pass rather than a specialised one
    k = kernel_weights(0.6, 0.1, m)
    assert next_fast_len(2 * k.half_width + m) == size
    v = np.random.default_rng(m).standard_normal(m)
    assert np.array_equal(toeplitz_matvec(k, v), _three_fft_matvec(k, v))


def test_product_bitwise_on_semigroup_kernel():
    semi = frac_semigroup_kernel(0.6, 0.5, 0.3, 19)
    v = np.random.default_rng(19).standard_normal(19)
    assert np.array_equal(toeplitz_matvec(semi, v), _three_fft_matvec(semi, v))


def test_product_is_not_overwritten_by_the_next():
    # the marching schemes keep A u across steps
    rng = np.random.default_rng(23)
    k = kernel_weights(0.4, 0.25, 64)
    v = rng.standard_normal(64)
    first = toeplitz_matvec(k, v)
    kept = first.copy()
    second = toeplitz_matvec(k, rng.standard_normal(64))
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, v)
    assert np.array_equal(first, kept)


def _ml_series_loop(alpha, beta, z):
    """The float Mittag-Leffler series with one scalar gammaln per term.

    Returns (value, number of terms)."""
    if z == 0.0:
        return math.exp(-gammaln(beta)), 0
    log_az = math.log(abs(z))
    sgn = 1.0 if z > 0.0 else -1.0
    n_peak = (abs(z) ** (1.0 / alpha) - beta) / alpha + 2.0
    terms = []
    total = 0.0
    prev_mag = math.inf
    for n in range(_ML_MAX_TERMS):
        log_mag = n * log_az - gammaln(alpha * n + beta)
        mag = math.exp(log_mag)
        term = (sgn ** n) * mag
        terms.append(term)
        total += term
        if n > n_peak and mag < prev_mag and mag < 1e-17 * max(abs(total), 1e-300):
            return math.fsum(terms), n + 1
        prev_mag = mag
    raise AssertionError("series did not converge")


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_ml_series_bitwise_equals_scalar_gammaln_loop(alpha):
    # the arguments -t^alpha of the scalar L1 check, t = 0..2 at dt = 1e-3,
    # and their mirror images, for both beta the solvers use
    times = np.arange(2001) * 1e-3
    for beta in (1.0, alpha):
        for t in times:
            for z in (-(t ** alpha), t ** alpha):
                z = float(z)
                assert _ml_series_float(alpha, beta, z) == _ml_series_loop(alpha, beta, z)[0]


def test_ml_series_bitwise_past_the_first_table():
    # small alpha with |z|^(1/alpha) near 3 needs more terms than the
    # 64 of the first gammaln table, so the table is rebuilt longer
    alpha = 0.1
    for beta in (1.0, alpha):
        for z in (-(2.9 ** alpha), 2.9 ** alpha, -(3.0 ** alpha)):
            want, n_terms = _ml_series_loop(alpha, beta, z)
            assert n_terms > 64
            assert _ml_series_float(alpha, beta, z) == want
