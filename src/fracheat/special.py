"""Special functions used by the fractional-diffusion kernels and solvers.

Provides log-gamma, exponentially scaled modified Bessel functions of
integer order (all orders at once), the two parameter Mittag-Leffler
function for real arguments, and the Wright probability density on
[0, inf) in double precision.

All routines are pure functions of their arguments and can be called
concurrently from any number of threads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, ive

import mpmath

__all__ = [
    "SeriesConvergenceError",
    "log_gamma",
    "bessel_i_scaled",
    "bessel_i_scaled_row",
    "mittag_leffler",
    "wright_phi",
]


class SeriesConvergenceError(RuntimeError):
    """A series or recurrence failed to reach the requested tolerance."""


def log_gamma(x):
    """Return ln Gamma(x) for x > 0.

    Relative error is at the 1e-15 level (well inside the 1e-13 budget
    of the kernel routines built on top of it).  Negative arguments are
    rejected; the kernel code handles them through explicit reflection.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return float(gammaln(x))


# ---------------------------------------------------------------------------
# Scaled modified Bessel functions e^{-x} I_n(x)
# ---------------------------------------------------------------------------

_BESSEL_X_MAX = 5.0e7  # a row covering the mass needs ~x entries; refuse absurd arguments


def bessel_i_scaled_row(n_max, x):
    """Return the array [e^{-x} I_0(x), ..., e^{-x} I_{n_max}(x)].

    Every entry lies in [0, 1] and no unscaled Bessel value is ever
    formed (scipy.special.ive).
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = float(x)
    if x < 0.0:
        raise ValueError(f"bessel_i_scaled requires x >= 0, got {x}")
    if x > _BESSEL_X_MAX:
        raise ValueError(f"argument {x} too large for a Bessel row")
    return ive(np.arange(n_max + 1), x)


def bessel_i_scaled(n, x):
    """Return e^{-x} I_n(x) for integer order n (symmetric in n <-> -n)."""
    n = abs(int(n))
    return float(bessel_i_scaled_row(n, x)[n])


# ---------------------------------------------------------------------------
# Mittag-Leffler function E_{alpha,beta}(z), real z
# ---------------------------------------------------------------------------

_ML_CANCEL_MAX = 3.0      # largest |z|^(1/alpha) the float series tolerates
_ML_MAX_TERMS = 200_000


@lru_cache(maxsize=65536)
def mittag_leffler(alpha, z, beta=1.0):
    """Evaluate the two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Parameters
    ----------
    alpha : float in (0, 2)
    z : float
        Real argument; strongly negative z is the main use (decay
        profiles of fractional relaxation).
    beta : float > 0, optional
        Second parameter; the solvers use beta = 1 and beta = alpha.

    Notes
    -----
    The series of an alternating argument cancels down from a largest
    term of size ~e^{|z|^{1/alpha}}, so the safe branch depends on that
    scale rather than on z alone.  While it stays small the power series
    is summed with compensated (fsum) accumulation; otherwise it is
    summed in extended precision (mpmath) with the working precision
    matched to the cancellation; arguments with |z|^{1/alpha} > 2000 are
    rejected as out of the supported range.
    """
    alpha = float(alpha)
    beta = float(beta)
    z = float(z)
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if z >= 0.0 or abs(z) ** (1.0 / alpha) <= _ML_CANCEL_MAX:
        return _ml_series_float(alpha, beta, z)
    return _ml_series_mp(alpha, beta, z)


def _ml_series_float(alpha, beta, z):
    if z == 0.0:
        return math.exp(-gammaln(beta))
    log_az = math.log(abs(z))
    sgn = 1.0 if z > 0.0 else -1.0
    # index after which terms decrease monotonically
    n_peak = (abs(z) ** (1.0 / alpha) - beta) / alpha + 2.0
    terms = []
    prev_mag = math.inf
    n = 0
    while n < _ML_MAX_TERMS:
        log_mag = n * log_az - gammaln(alpha * n + beta)
        mag = math.exp(log_mag) if log_mag < 700.0 else math.inf
        if math.isinf(mag):
            raise SeriesConvergenceError(
                f"Mittag-Leffler series overflowed at n={n} for z={z}"
            )
        terms.append((sgn ** n) * mag)
        if n > n_peak and mag < prev_mag and mag < 1e-17 * max(abs(math.fsum(terms)), 1e-300):
            return math.fsum(terms)
        prev_mag = mag
        n += 1
    raise SeriesConvergenceError(f"Mittag-Leffler series did not converge for z={z}")


def _ml_series_mp(alpha, beta, z):
    scale = abs(z) ** (1.0 / alpha)
    if scale > 2000.0:
        raise SeriesConvergenceError(
            f"|z|^(1/alpha) = {scale:.3g} exceeds the supported range"
        )
    dps = 25 + int(0.45 * scale)
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        b = mpmath.mpf(beta)
        zz = mpmath.mpf(z)
        total = mpmath.mpf(0)
        power = mpmath.mpf(1)
        n_peak = (abs(z) ** (1.0 / alpha) - beta) / alpha + 2.0
        prev_mag = mpmath.inf
        for n in range(_ML_MAX_TERMS):
            term = power / mpmath.gamma(a * n + b)
            total += term
            mag = abs(term)
            if n > n_peak and mag < prev_mag and mag < mpmath.mpf(10) ** (-dps) * max(
                abs(total), mpmath.mpf(10) ** (-dps)
            ):
                return float(total)
            prev_mag = mag
            power *= zz
    raise SeriesConvergenceError(f"Mittag-Leffler series did not converge for z={z}")


# ---------------------------------------------------------------------------
# Wright function Phi_alpha(x) on x >= 0
# ---------------------------------------------------------------------------

_WRIGHT_SERIES_DECAY = 1.0   # largest decay exponent E summed by the series
_WRIGHT_UNDERFLOW = 800.0    # exp(-E) with E beyond this is 0 in doubles
_WRIGHT_MAX_TERMS = 100_000


@lru_cache(maxsize=65536)
def wright_phi(alpha, x):
    """Evaluate the Wright subordination density Phi_alpha(x) on x >= 0.

    Phi_alpha(x) = sum_k (-x)^k / (k! Gamma(1 - alpha - alpha k)) is the
    probability density on [0, inf) with moments
    integral Phi_alpha(t) t^p dt = Gamma(p+1)/Gamma(alpha p + 1); it ties
    the time-fractional evolution to the spatial semigroup.  For
    alpha = 1/2 it reduces to exp(-x^2/4)/sqrt(pi).

    Phi_alpha decays like exp(-E), E = (1-alpha) (alpha^alpha x)^{1/(1-alpha)},
    while the largest alternating series term grows like exp(E), so the
    series loses about 2E/ln(10) digits.  For E <= 1 it is summed in
    floats with term-ratio stopping (relative error ~1e-15).  Beyond, the
    positive-integrand Kanter/Zolotarev representation, with X = x^{1/(1-alpha)},
        Phi_alpha(x) = x^{alpha/(1-alpha)} / (pi (1-alpha))
                       * integral_0^pi K(phi) exp(-X K(phi)) dphi,
        K(phi) = (sin(alpha phi) / sin phi)^{1/(1-alpha)} sin((1-alpha) phi) / sin(alpha phi),
    is integrated by adaptive Gauss-Kronrod with exp(-X K(0)) = exp(-E)
    factored out, so deep-tail values keep their relative accuracy;
    SeriesConvergenceError is raised if the error estimate exceeds 1e-11
    relative.  Values below the double underflow threshold return 0.
    """
    alpha = float(alpha)
    x = float(x)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if x < 0.0:
        raise ValueError(f"wright_phi requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0 / math.gamma(1.0 - alpha)
    decay = (1.0 - alpha) * (alpha ** alpha * x) ** (1.0 / (1.0 - alpha))
    if decay <= _WRIGHT_SERIES_DECAY:
        return _wright_series_float(alpha, x)
    if decay > _WRIGHT_UNDERFLOW:
        return 0.0
    return _wright_integral(alpha, x, decay)


def _wright_integral(alpha, x, decay):
    q = 1.0 / (1.0 - alpha)
    big_x = x ** q
    k0 = decay / big_x  # K(0) = (1-alpha) alpha^{alpha/(1-alpha)}
    ratio_max = math.exp(700.0 / q)  # beyond it K overflows and the integrand is 0

    def integrand(phi):
        sa = math.sin(alpha * phi)
        ratio = sa / math.sin(phi)
        if ratio > ratio_max:
            return 0.0
        k = ratio ** q * math.sin((1.0 - alpha) * phi) / sa
        e = big_x * (k - k0)
        return k * math.exp(-e) if e < 745.0 else 0.0

    val, err = quad(integrand, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
    if not (val > 0.0 and err <= 1e-11 * val):
        raise SeriesConvergenceError(
            f"Wright integral did not converge for alpha={alpha}, x={x}: "
            f"{val!r} +- {err!r}"
        )
    return math.exp(alpha * q * math.log(x) - decay + math.log(val / (math.pi * (1.0 - alpha))))


def _sinpi(y):
    """sin(pi * y) with exact zeros at integer y (reflection helper)."""
    n = math.floor(y)
    frac = y - n
    if frac == 0.0:
        return 0.0
    val = math.sin(math.pi * frac)
    return -val if n % 2 else val


def _wright_series_float(alpha, x):
    # terms are built in log space: 1/Gamma(y) = sin(pi y) Gamma(1-y) / pi
    # avoids overflow of the reciprocal gamma at large negative arguments
    log_x = math.log(x)
    log_pi = math.log(math.pi)
    terms = []
    quiet = 0
    for k in range(_WRIGHT_MAX_TERMS):
        y = 1.0 - alpha - alpha * k
        sp = _sinpi(y)
        if sp == 0.0:
            terms.append(0.0)
            term_mag = 0.0
        else:
            log_mag = (
                k * log_x
                - gammaln(k + 1.0)
                + math.log(abs(sp))
                + gammaln(1.0 - y)
                - log_pi
            )
            term_mag = math.exp(log_mag)
            sign = (1.0 if k % 2 == 0 else -1.0) * math.copysign(1.0, sp)
            terms.append(sign * term_mag)
        if term_mag < 1e-16 * max(abs(math.fsum(terms)), 1e-300):
            quiet += 1
            if quiet >= 4:
                return math.fsum(terms)
        else:
            quiet = 0
    raise SeriesConvergenceError(f"Wright series did not converge for x={x}")
