import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

from fracheat.semigroup import subordination_quadrature
from fracheat.special import (
    SeriesConvergenceError,
    bessel_i_scaled,
    bessel_i_scaled_row,
    log_gamma,
    mittag_leffler,
    wright_phi,
)


class TestLogGamma:
    def test_matches_lgamma(self):
        for x in (0.1, 0.5, 1.0, 2.5, 10.0, 171.0, 500.0):
            assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)


class TestBessel:
    @pytest.mark.parametrize("x", [0.3, 2.0, 17.5, 240.0, 3000.0])
    def test_row_matches_scipy(self, x):
        n_max = int(x + 10 * math.sqrt(x) + 25)
        row = bessel_i_scaled_row(n_max, x)
        ref = ive(np.arange(n_max + 1), x)
        assert np.max(np.abs(row - ref)) < 1e-13

    def test_row_at_zero(self):
        row = bessel_i_scaled_row(5, 0.0)
        assert row[0] == 1.0
        assert np.all(row[1:] == 0.0)

    def test_single_order(self):
        assert bessel_i_scaled(3, 7.2) == pytest.approx(float(ive(3, 7.2)), rel=1e-13)

    def test_normalization_sum(self):
        # I_0(x) + 2 sum I_n(x) = e^x, i.e. scaled row sums to 1
        row = bessel_i_scaled_row(200, 30.0)
        assert row[0] + 2.0 * np.sum(row[1:]) == pytest.approx(1.0, abs=1e-14)

    @given(x=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_row_positive_and_decreasing(self, x):
        row = bessel_i_scaled_row(int(x) + 30, x)
        assert np.all(row >= 0.0)
        assert np.all(np.diff(row) <= 1e-16)


class TestMittagLeffler:
    def test_alpha_one_is_exp(self):
        for z in np.linspace(-5.0, 5.0, 21):
            assert mittag_leffler(1.0, float(z)) == pytest.approx(math.exp(z), rel=1e-12)

    def test_half_order_closed_form(self):
        # E_{1/2,1}(z) = e^{z^2} erfc(-z)
        for z in (-3.0, -1.2, -0.3, 0.4, 1.7):
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

    def test_monotone_relaxation(self):
        vals = [mittag_leffler(0.6, -t) for t in np.linspace(0.0, 20.0, 40)]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mittag_leffler(2.5, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.5, -1.0, beta=0.0)
        with pytest.raises(SeriesConvergenceError):
            mittag_leffler(0.3, -100.0)


class TestWright:
    def test_half_alpha_closed_form(self):
        # Phi_{1/2}(x) = exp(-x^2/4)/sqrt(pi)
        for x in (0.0, 0.5, 1.0, 3.0, 10.0, 25.0):
            ref = math.exp(-x * x / 4.0) / math.sqrt(math.pi)
            assert wright_phi(0.5, x) == pytest.approx(ref, rel=1e-10, abs=1e-300)

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

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            wright_phi(1.0, 1.0)
        with pytest.raises(ValueError):
            wright_phi(0.5, -0.1)


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
    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.5, 0.7, 0.8, 0.9])
    def test_matches_extended_precision_series(self, alpha):
        # up to the quadrature cutoff, including both sides of the
        # series/integral switch at E = 1
        x_cut = float(subordination_quadrature(alpha).nodes[-1])
        x_switch = (1.0 / (1.0 - alpha)) ** (1.0 - alpha) / alpha ** alpha
        xs = list(np.linspace(0.0, x_cut, 17)[1:]) + [0.999 * x_switch, 1.001 * x_switch]
        for x in xs:
            ref = _wright_series_mp(alpha, float(x))
            assert wright_phi(alpha, float(x)) == pytest.approx(ref, rel=1e-10, abs=0.0), x
