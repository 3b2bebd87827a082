"""Special functions used by the fractional-diffusion kernels and solvers.

Provides the two parameter Mittag-Leffler function for 0 < alpha <= 1
at real z <= 0, the arguments of fractional relaxation (every real z at
alpha = beta = 1, where it is exp(z)), and the Wright probability density
on [0, inf), both in double precision.

The Mittag-Leffler series reads its log-gamma values gammaln(alpha n + beta)
from a per-(alpha, beta) table made by one array gammaln call, cached as a
tuple of floats and rebuilt at twice the length when a series runs past
its end; the values are bitwise those of scalar gammaln calls.  Past
its float series each function integrates by one numpy trapezoid rule,
so no path through this module loads scipy.integrate.  The rule starts
on 64 intervals and doubles them, sampling only the new nodes, until two
grids agree to 1e-13 relative; the 2^16-interval grid is accepted up to
1e-11 relative, and SeriesConvergenceError is raised past that.

All routines are pure functions of their arguments and can be called
concurrently from any number of threads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

__all__ = [
    "SeriesConvergenceError",
    "mittag_leffler",
    "wright_phi",
]


class SeriesConvergenceError(RuntimeError):
    """A series or recurrence failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# Mittag-Leffler function E_{alpha,beta}(z), real z <= 0
# ---------------------------------------------------------------------------

_ML_CANCEL_MAX = 3.0      # largest (-z)^(1/alpha) the float series tolerates
_ML_MAX_TERMS = 200_000
_ML_CHI_MAX = 745.0       # exp(-chi^(1/alpha)) is 0 in doubles beyond chi^(1/alpha) = 745
_ML_DECAY_SPAN = 40.0     # the tail's u-range starts where e^{rate u} is e^-40
_TRAPEZOID_FIRST_NODES = 64     # first grid of both integrals
_TRAPEZOID_MAX_NODES = 1 << 16  # largest grid before an integral is refused
_TRAPEZOID_RTOL = 1e-13         # doubling stops once two grids agree to this, relative
_TRAPEZOID_REFUSE_RTOL = 1e-11  # a larger gap between the last two grids is refused


@lru_cache(maxsize=65536)
def mittag_leffler(alpha, z, beta=1.0):
    """Evaluate the two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Parameters
    ----------
    alpha : float in (0, 1]
    z : float <= 0
        Real argument, as in the decay profiles E_alpha(-lambda t^alpha)
        of fractional relaxation; any real z at alpha = beta = 1.
    beta : float > 0, optional
        Second parameter; the solvers use beta = 1 and beta = alpha.

    Notes
    -----
    At alpha = beta = 1 this is exp(z), refused where it overflows.
    Otherwise a z > 0 raises ValueError, as does a NaN z for every
    (alpha, beta), before any series or integral runs.  The series at
    z = -x cancels down from a largest term of size ~e^{x^{1/alpha}}, so
    the branch depends on that scale rather than on z alone.  For
    x^{1/alpha} <= 3 the power series is summed in floats with a
    compensated (fsum) total.  Beyond that, with alpha < 1 and
    beta < 1 + alpha, the real-integral representation of Gorenflo,
    Loutchko and Luchko (FCAA 5, 2002)
        E_{alpha,beta}(-x) = 1/(alpha pi) integral_0^inf chi^{(1-beta)/alpha}
            exp(-chi^{1/alpha}) (chi sin pi(1-beta) + x sin pi(1-beta+alpha))
            / (chi^2 + 2 chi x cos(alpha pi) + x^2) dchi
    is integrated by the module's trapezoid rule over u = ln chi in
    [-40/(1 + (1-beta)/alpha), alpha ln 745], past whose ends the integrand
    has fallen by e^-40 and exp(-chi^{1/alpha}) underflows, in t with
    u = min(ln x, alpha ln 745) + pi (1-alpha) sinh(t): for x in the range
    the poles at u = ln x +- i pi (1-alpha) go to t = +- i pi/2.  Other
    (alpha, beta, z), which neither branch covers, raise ValueError.
    """
    alpha = float(alpha)
    beta = float(beta)
    z = float(z)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if math.isnan(z):
        raise ValueError("z must not be NaN")
    if alpha == 1.0 and beta == 1.0:
        try:
            return math.exp(z)
        except OverflowError:
            raise SeriesConvergenceError(f"exp(z) overflows for z={z}") from None
    if z > 0.0:
        raise ValueError(f"z must be <= 0 unless alpha = beta = 1, got z={z}")
    if -z <= _ML_CANCEL_MAX ** alpha:
        return _ml_series_float(alpha, beta, z)
    if alpha == 1.0 or beta >= 1.0 + alpha:
        raise ValueError(
            f"E_(alpha,beta)(z) is not supported for alpha={alpha}, beta={beta}, z={z}"
        )
    return _ml_integral(alpha, beta, -z)


@lru_cache(maxsize=64)
def _ml_gammaln_table(alpha, beta, size):
    """gammaln(alpha n + beta) for n = 0..size-1, as a tuple of floats."""
    return tuple(gammaln(alpha * np.arange(size, dtype=float) + beta).tolist())


def _ml_series_float(alpha, beta, z):
    # z lies in [-3^alpha, 0], where no term exceeds e^2.65, so none overflows
    if z == 0.0:
        return math.exp(-gammaln(beta))
    log_az = math.log(-z)
    # index after which terms decrease monotonically
    n_peak = ((-z) ** (1.0 / alpha) - beta) / alpha + 2.0
    lgam = _ml_gammaln_table(alpha, beta, 64)
    terms = []
    total = 0.0
    prev_mag = math.inf
    for n in range(_ML_MAX_TERMS):
        if n == len(lgam):
            lgam = _ml_gammaln_table(alpha, beta, 2 * n)
        mag = math.exp(n * log_az - lgam[n])
        term = (-1.0) ** n * mag
        terms.append(term)
        total += term
        if n > n_peak and mag < prev_mag and mag < 1e-17 * max(abs(total), 1e-300):
            return math.fsum(terms)
        prev_mag = mag
    raise SeriesConvergenceError(f"Mittag-Leffler series did not converge for z={z}")


def _ml_integral(alpha, beta, x):
    # numerator and denominator are divided by x^2 so that no x overflows, and
    # both end values are 0, as the range is truncated there.  For x past
    # chi_max the sinh map is centred on u_hi, where u keeps its digits
    rate = 1.0 + (1.0 - beta) / alpha  # the integrand grows like e^{rate u}
    s1, s2 = _sinpi(1.0 - beta), _sinpi(1.0 - beta + alpha)
    shift, gap = math.cos(alpha * math.pi), math.sin(alpha * math.pi)
    u_lo, u_hi = -_ML_DECAY_SPAN / rate, alpha * math.log(_ML_CHI_MAX)
    c, d = min(math.log(x), u_hi), math.pi * (1.0 - alpha)

    def integrand(t):
        u = c + d * np.sinh(t)
        r = np.exp(u) / x
        # (chi^2 + 2 chi x cos(alpha pi) + x^2) / x^2 as a sum of two squares,
        # which keeps its relative accuracy near alpha = 1 where terms cancel
        den = (r + shift) ** 2 + gap * gap
        f = np.exp(rate * u - np.exp(u / alpha)) * (r * s1 + s2) / den
        return float(np.sum(f * d * np.cosh(t)))

    t_lo, t_hi = math.asinh((u_lo - c) / d), math.asinh((u_hi - c) / d)
    what = f"Mittag-Leffler integral for alpha={alpha}, beta={beta}, z={-x}"
    return _trapezoid(integrand, t_lo, t_hi, 0.0, what) / (alpha * math.pi * x)


def _trapezoid(integrand, lo, hi, ends, what):
    """The module's trapezoid rule on [lo, hi]: integrand sums its samples at
    an array of interior nodes, ends is half the end values' sum."""
    m = _TRAPEZOID_FIRST_NODES
    total = ends + integrand(lo + (hi - lo) * np.arange(1, m) / m)
    val, gap = (hi - lo) * total / m, math.inf
    while 2 * m <= _TRAPEZOID_MAX_NODES:
        total += integrand(lo + (hi - lo) * np.arange(1, 2 * m, 2) / (2 * m))
        m *= 2
        prev, val = val, (hi - lo) * total / m
        gap = abs(val - prev)
        if gap <= _TRAPEZOID_RTOL * abs(val):
            break
    if not gap <= _TRAPEZOID_REFUSE_RTOL * abs(val):
        raise SeriesConvergenceError(f"{what} did not settle on {m} intervals: {val!r} +- {gap!r}")
    return val


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
    is integrated with exp(-X K(0)) = exp(-E) factored out, so deep-tail
    values keep their relative accuracy.  The factored integrand
    K exp(-X (K - K(0))) is even in phi and, as K grows without bound
    at phi = pi, flat there to all orders, so its periodic extension is
    smooth and the module's trapezoid rule on [0, pi] converges
    geometrically (Trefethen and Weideman, SIAM Review 56, 2014).
    Values below the double underflow threshold return 0.
    """
    alpha = float(alpha)
    x = float(x)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not x >= 0.0:
        raise ValueError(f"wright_phi requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0 / math.gamma(1.0 - alpha)
    try:
        decay = (1.0 - alpha) * (alpha ** alpha * x) ** (1.0 / (1.0 - alpha))
    except OverflowError:  # decay is then far past _WRIGHT_UNDERFLOW
        return 0.0
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
        # phi holds interior nodes of (0, pi), where sin(phi) > 0
        sa = np.sin(alpha * phi)
        ratio = sa / np.sin(phi)
        ok = ratio <= ratio_max
        k = ratio[ok] ** q * np.sin((1.0 - alpha) * phi[ok]) / sa[ok]
        # e = X (K - K(0)) >= 745 underflows exp(-e) to 0; the test is made
        # on K - K(0), as the product itself can overflow when alpha nears 1
        d = k - k0
        live = d < 745.0 / big_x
        return float(np.sum(k[live] * np.exp(-big_x * d[live])))

    # the phi = 0 node is the limit K(0) = k0 and the phi = pi node is 0; the
    # refusal bound absorbs rounding in K, which the exponent amplifies ~q E times
    what = f"Wright integral for alpha={alpha}, x={x}"
    val = _trapezoid(integrand, 0.0, math.pi, 0.5 * k0, what)
    if not val > 0.0:
        raise SeriesConvergenceError(f"{what} is {val!r}")
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
    total = 0.0  # running sum for the stop test; fsum once at the end
    quiet = 0
    for k in range(_WRIGHT_MAX_TERMS):
        y = 1.0 - alpha - alpha * k
        sp = _sinpi(y)
        if sp == 0.0:
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
            total += terms[-1]
        if term_mag < 1e-16 * max(abs(total), 1e-300):
            quiet += 1
            if quiet >= 4:
                return math.fsum(terms)
        else:
            quiet = 0
    raise SeriesConvergenceError(f"Wright series did not converge for x={x}")
