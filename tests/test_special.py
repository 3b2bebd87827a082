import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import ive, rgamma

from fracheat import special
from fracheat.semigroup import frac_semigroup_kernel, subordination_quadrature
from fracheat.special import (
    SeriesConvergenceError,
    mittag_leffler,
    wright_phi,
)


def _heat_row(n_max, x):
    # e^{-x} I_n(x), n = 0..n_max, is the lattice heat kernel: the library
    # builds it only as the s = 1 semigroup kernel at h = 1, t = x/2
    return frac_semigroup_kernel(1.0, 1.0, x / 2.0, n_max).w


class TestBessel:
    @pytest.mark.parametrize("x", [0.3, 2.0, 17.5, 240.0, 3000.0])
    def test_row_matches_scipy(self, x):
        n_max = int(x + 10 * math.sqrt(x) + 25)
        row = _heat_row(n_max, x)
        ref = ive(np.arange(n_max + 1), x)
        assert np.max(np.abs(row - ref)) < 1e-13

    def test_row_at_zero(self):
        row = _heat_row(5, 0.0)
        assert row[0] == 1.0
        assert np.all(row[1:] == 0.0)

    def test_single_order(self):
        assert _heat_row(3, 7.2)[3] == pytest.approx(float(ive(3, 7.2)), rel=1e-13)

    def test_normalization_sum(self):
        # I_0(x) + 2 sum I_n(x) = e^x, i.e. scaled row sums to 1
        row = _heat_row(200, 30.0)
        assert row[0] + 2.0 * np.sum(row[1:]) == pytest.approx(1.0, abs=1e-14)


class TestMittagLeffler:
    def test_alpha_one_is_exp(self):
        for z in np.linspace(-5.0, 5.0, 21):
            assert mittag_leffler(1.0, float(z)) == pytest.approx(math.exp(z), rel=1e-12)
        assert mittag_leffler(1.0, 709.0) == math.exp(709.0)

    def test_half_order_closed_form(self):
        # E_{1/2,1}(z) = e^{z^2} erfc(-z)
        for z in (-3.0, -1.7, -1.2, -0.4, -0.3):
            ref = math.exp(z * z) * math.erfc(-z)
            assert mittag_leffler(0.5, z) == pytest.approx(ref, rel=1e-11)

    def test_at_zero(self):
        assert mittag_leffler(0.7, 0.0) == 1.0
        assert mittag_leffler(0.7, 0.0, beta=0.7) == pytest.approx(
            1.0 / math.gamma(0.7), rel=1e-14
        )

    @pytest.mark.parametrize("alpha,z", [(0.3, -2.6), (0.5, -15.0), (0.8, -40.0)])
    def test_deep_negative_against_mp(self, alpha, z):
        with mpmath.workdps(40 + int(0.6 * abs(z) ** (1.0 / alpha))):
            a = mpmath.mpf(alpha)
            ref = float(mpmath.nsum(lambda k: mpmath.mpf(z) ** k / mpmath.gamma(a * k + 1), [0, mpmath.inf]))
        assert mittag_leffler(alpha, z) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("alpha,beta,z,message", [
        (0.5, 1.0, 0.1, "z must be <= 0"),
        (0.5, 0.5, 2.0, "z must be <= 0"),
        (1.0, 0.7, 1e-300, "z must be <= 0"),
        (0.7, 1.0, math.inf, "z must be <= 0"),
        (0.5, 1.0, math.nan, "NaN"),
        (0.8, 0.8, math.nan, "NaN"),
        (1.0, 1.0, math.nan, "NaN"),
    ])
    def test_refused_before_any_series_or_integral(self, alpha, beta, z, message, monkeypatch):
        calls = []
        for name in ("_ml_series_float", "_ml_integral"):
            monkeypatch.setattr(special, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(ValueError, match=message):
            mittag_leffler(alpha, z, beta)
        assert calls == []

    def test_monotone_relaxation(self):
        vals = [mittag_leffler(0.6, -t) for t in np.linspace(0.0, 20.0, 40)]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mittag_leffler(2.5, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.5, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.5, -1.0, beta=0.0)
        # beta >= 1 + alpha with a large negative z: neither branch applies
        with pytest.raises(ValueError):
            mittag_leffler(0.5, -10.0, beta=2.0)
        # z > 0 is refused up front, however large
        with pytest.raises(ValueError, match="z must be <= 0"):
            mittag_leffler(0.3, 100.0)
        with pytest.raises(ValueError, match="z must be <= 0"):
            mittag_leffler(0.5, 1e200)
        # at alpha = beta = 1 the value exp(z) itself overflows a double
        for z in (710.0, 1000.0):
            with pytest.raises(SeriesConvergenceError):
                mittag_leffler(1.0, z)
        # the extended-precision range limit |z|^(1/alpha) <= 2000 is gone
        assert mittag_leffler(0.3, -100.0) == pytest.approx(
            _ml_asymptotic(0.3, 1.0, 100.0), rel=1e-12
        )


_ML_ALPHAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999]
_ML_SCALES = (3.0001, 5.0, 12.0, 30.0, 80.0, 200.0)

# (beta, z, rel) beyond beta in {1, alpha}: beta = 1.3 > 1, whose integrand
# decays most slowly below the range of the rule, and z = -3.2246 next to the
# sign change of E_{0.8,0.7} near z = -3.227, where the small value keeps
# fewer digits
_ML_EXTRA_CASES = {
    0.5: [(1.3, -scale ** 0.5, 1e-12) for scale in _ML_SCALES],
    0.8: [(0.7, -3.2246, 1e-11)],
}


def _ml_series_mp(alpha, beta, z):
    """Oracle: the Mittag-Leffler series summed in extended precision, as
    the library did before its double-precision integral.  The largest
    term is ~e^{|z|^(1/alpha)}, so the working precision covers that many
    digits lost to cancellation plus a margin."""
    scale = abs(z) ** (1.0 / alpha)
    dps = 30 + int(0.45 * scale)
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        b = mpmath.mpf(beta)
        zz = mpmath.mpf(z)
        total = mpmath.mpf(0)
        power = mpmath.mpf(1)
        n_peak = (scale - beta) / alpha + 2.0
        tiny = mpmath.mpf(10) ** (-dps + 5)
        for n in range(1_000_000):
            term = power * mpmath.rgamma(a * n + b)
            total += term
            if n > n_peak and abs(term) < tiny * abs(total):
                return float(total)
            power *= zz
    raise AssertionError(f"oracle series did not converge for z={z}")


def _ml_asymptotic(alpha, beta, x, terms=20):
    """E_{alpha,beta}(-x) ~ sum_{k>=1} (-1)^{k+1} x^{-k} / Gamma(beta - alpha k)
    for large x; 20 terms are far below double rounding for x >= 100."""
    return math.fsum(
        (-1.0) ** (k + 1) * x ** (-k) * float(rgamma(beta - alpha * k))
        for k in range(1, terms + 1)
    )


class TestMittagLefflerIntegral:
    @pytest.mark.parametrize("alpha", _ML_ALPHAS)
    def test_matches_extended_precision_series(self, alpha):
        # |z|^(1/alpha) from just past the series/integral switch at 3 to 200
        cases = [(beta, -scale ** alpha, 1e-12) for beta in (1.0, alpha) for scale in _ML_SCALES]
        for beta, z, rel in cases + _ML_EXTRA_CASES.get(alpha, []):
            ref = _ml_series_mp(alpha, beta, z)
            assert mittag_leffler(alpha, z, beta) == pytest.approx(ref, rel=rel, abs=0.0), (beta, z)

    @pytest.mark.parametrize("alpha", _ML_ALPHAS)
    def test_matches_asymptotic_series(self, alpha):
        # x^2 overflows a double past x = 1.3e154; there the beta = alpha
        # value, whose leading term vanishes, underflows, so only beta = 1
        for beta, xs in ((1.0, (1e4, 1e8, 1e160, 1e300)), (alpha, (1e4, 1e8))):
            for x in xs:
                ref = _ml_asymptotic(alpha, beta, x)
                assert mittag_leffler(alpha, -x, beta) == pytest.approx(
                    ref, rel=1e-12, abs=0.0
                ), (beta, x)


def _run_fresh(script):
    """Run script in a fresh interpreter that imports this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )


def test_library_runs_without_mpmath():
    # a None entry in sys.modules makes every import of mpmath fail
    script = """
import sys
sys.modules["mpmath"] = None
import fracheat
from fracheat.semigroup import subordinated_kernel, subordination_quadrature
from fracheat.special import mittag_leffler, wright_phi
assert mittag_leffler(0.5, -1.0) > 0.0      # float series
assert mittag_leffler(0.5, -100.0) > 0.0    # integral
assert wright_phi(0.5, 1.0) > 0.0           # float series
assert wright_phi(0.5, 10.0) > 0.0          # integral
assert len(subordination_quadrature(0.5).nodes) > 0
assert subordinated_kernel(0.5, 0.5, 0.5, 0.1, 8).w[0] > 0.0
"""
    run = _run_fresh(script)
    assert run.returncode == 0, run.stderr


_FOOTPRINT_SCRIPT = """
import sys
import numpy as np
from fracheat import EvolutionProblem, GridFunction, Mesh, SchemeConfig, solve
from fracheat.evolution import evaluate_mild
from fracheat.problems import example2, to_evolution_problem
from fracheat.semigroup import subordinated_kernel, subordination_quadrature
from fracheat.special import mittag_leffler, wright_phi
mesh = Mesh(h=0.5, a=-5.0, b=5.0)
prob = EvolutionProblem(s=0.5, alpha=1.0, mesh=mesh, t_horizon=0.05,
                        u0=GridFunction(mesh, np.exp(-mesh.nodes ** 2)))
solve(prob, SchemeConfig(stepper="backward_euler", dt=0.01))
assert len(subordination_quadrature(0.5).nodes) > 0
assert wright_phi(0.5, 10.0) > 0.0          # integral branch
assert subordinated_kernel(0.5, 0.5, 0.5, 0.1, 8).w[0] > 0.0
prob = to_evolution_problem(example2(0.9), Mesh(0.25, -0.75, 0.75), alpha=0.5, t_horizon=0.05)
assert evaluate_mild(prob, 0.05).values.max() > 0.0
print(repr(mittag_leffler(0.5, -100.0)))    # integral branch
assert {module!r} not in sys.modules, {module!r} + " loaded"
"""


@pytest.mark.parametrize("module", ["mpmath", "scipy.integrate", "scipy.optimize", "scipy.linalg"])
def test_library_leaves_module_out(module):
    # mpmath is the tests' oracle only, and may be installed.  Both special
    # function integrals are numpy trapezoid rules, so neither scipy.integrate
    # nor the scipy.optimize it would pull in is needed, and the mild
    # solution's eigendecomposition is numpy's, so scipy.linalg (and its
    # import time) stays out too.  Marching a few steps, the subordination
    # path (quadrature, kernels, mild solution) and a Mittag-Leffler value
    # past the float series must load none of them.  This process has loaded
    # them all already, so a fresh interpreter checks.
    run = _run_fresh(_FOOTPRINT_SCRIPT.format(module=module))
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) == mittag_leffler(0.5, -100.0)


def _x_at_decay(alpha, decay):
    """The x at which E = (1-alpha) (alpha^alpha x)^{1/(1-alpha)} equals decay."""
    return (decay / (1.0 - alpha)) ** (1.0 - alpha) / alpha ** alpha


class TestWright:
    def test_half_alpha_closed_form(self):
        # Phi_{1/2}(x) = exp(-x^2/4)/sqrt(pi)
        for x in (0.0, 0.5, 1.0, 3.0, 10.0, 25.0):
            ref = math.exp(-x * x / 4.0) / math.sqrt(math.pi)
            assert wright_phi(0.5, x) == pytest.approx(ref, rel=1e-10, abs=1e-300)

    def test_half_alpha_closed_form_integral_branch(self):
        # from the series/integral switch at E = 1 (x = 2) up to the
        # alpha = 1/2 quadrature cutoff, where the trapezoid rule runs
        x_cut = float(subordination_quadrature(0.5).nodes[-1])
        for x in np.linspace(2.0, x_cut, 41)[1:]:
            ref = math.exp(-x * x / 4.0) / math.sqrt(math.pi)
            assert wright_phi(0.5, float(x)) == pytest.approx(ref, rel=1e-12, abs=0.0), x

    def test_integral_refuses_unsettled_grid(self, monkeypatch):
        # with the node cap at the first grid no doubling can confirm the
        # value, so the integral must raise rather than return it
        monkeypatch.setattr(special, "_TRAPEZOID_MAX_NODES", special._TRAPEZOID_FIRST_NODES)
        with pytest.raises(SeriesConvergenceError, match="did not settle"):
            special.wright_phi.__wrapped__(0.05, 20.0)

    def test_integral_raises_no_numpy_warnings(self):
        # every sample past the overflow guards must stay silent: over the
        # alpha = 0.94 quadrature nodes, and at alpha = 0.999 across the
        # integral branch, where X (K - K(0)) overflows at the far phi nodes
        sweeps = [(0.94, subordination_quadrature(0.94).nodes),
                  (0.999, np.linspace(_x_at_decay(0.999, 1.0), _x_at_decay(0.999, 800.0), 20))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha, xs in sweeps:
                for x in xs:
                    assert special.wright_phi.__wrapped__(alpha, float(x)) >= 0.0, (alpha, x)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8])
    def test_moments(self, alpha):
        from scipy.integrate import quad

        for p in (0, 1, 2):
            val, _ = quad(
                lambda t: wright_phi(alpha, t) * t ** p, 0.0, 60.0,
                limit=300, epsabs=1e-12, epsrel=1e-12,
            )
            ref = math.gamma(p + 1.0) / math.gamma(alpha * p + 1.0)
            assert val == pytest.approx(ref, rel=1e-8)

    def test_at_origin(self):
        for alpha in (0.3, 0.5, 0.9):
            assert wright_phi(alpha, 0.0) == pytest.approx(
                1.0 / math.gamma(1.0 - alpha), rel=1e-13
            )

    def test_nonnegative_and_decaying(self):
        vals = [wright_phi(0.7, x) for x in np.linspace(0.0, 12.0, 30)]
        assert all(v >= 0.0 for v in vals)
        assert vals[-1] < 1e-12 * vals[0]
        # far past the underflow, where the decay exponent itself overflows
        assert wright_phi(0.5, 1e200) == 0.0
        assert wright_phi(0.3, 1e300) == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            wright_phi(1.0, 1.0)
        with pytest.raises(ValueError):
            wright_phi(0.5, -0.1)

    def test_rejects_nan_before_any_quadrature(self, monkeypatch):
        calls = []
        monkeypatch.setattr(special, "_trapezoid", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="x >= 0"):
            wright_phi(0.5, math.nan)
        assert calls == []


def _wright_series_mp(alpha, x):
    """Oracle: the Wright series summed in extended precision, as the
    library did before its double-precision integral.  The largest term
    is ~e^E and the value ~e^-E, E = (1-alpha) (alpha^alpha x)^{1/(1-alpha)},
    so the working precision covers 2E/ln(10) digits plus a margin."""
    decay = (1.0 - alpha) * (alpha ** alpha * x) ** (1.0 / (1.0 - alpha))
    dps = 30 + int(2.2 * decay / math.log(10.0))
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        xx = mpmath.mpf(x)
        total = mpmath.mpf(0)
        coeff = mpmath.mpf(1)  # (-x)^k / k!
        tiny = mpmath.mpf(10) ** (-dps + 5)
        quiet = 0
        for k in range(100_000):
            term = coeff * mpmath.rgamma(1 - a - a * k)
            total += term
            if abs(term) < tiny * max(abs(total), mpmath.mpf(10) ** (-dps)):
                quiet += 1
                if quiet >= 4:
                    return float(total)
            else:
                quiet = 0
            coeff *= -xx / (k + 1)
    raise AssertionError(f"oracle series did not converge for x={x}")


class TestWrightAgainstSeries:
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25, 0.3, 0.5, 0.7, 0.8, 0.9, 0.94])
    def test_matches_extended_precision_series(self, alpha):
        # up to the quadrature cutoff, including both sides of the
        # series/integral switch at E = 1.  The cutoff is capped at E = 50:
        # at alpha = 0.94 the last Gauss panel reaches E ~ 2300, past the
        # double underflow, where summing the oracle series takes minutes
        x_cut = min(float(subordination_quadrature(alpha).nodes[-1]), _x_at_decay(alpha, 50.0))
        x_switch = _x_at_decay(alpha, 1.0)
        xs = list(np.linspace(0.0, x_cut, 17)[1:]) + [0.999 * x_switch, 1.001 * x_switch]
        for x in xs:
            ref = _wright_series_mp(alpha, float(x))
            assert wright_phi(alpha, float(x)) == pytest.approx(ref, rel=1e-10, abs=0.0), x
