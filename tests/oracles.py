"""Independent routes to values the library computes one way only.

The library builds the lattice weights by a gamma-ratio recurrence and
applies them by FFT.  The tests check both against the routes below:
the alternating-sign closed form of the weights and the plain O(N^2)
convolution sum.  The library's continuous fractional Laplacians are
closed forms (the manufactured examples and the Gaussian of the
consistency study); the tests check them against a singular-integral
quadrature of the continuous operator.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from fracheat.kernel import SymmetricKernel, frac_laplacian_constant


class OracleConvergenceError(RuntimeError):
    """The quadrature oracle could not meet the requested tolerance."""


def kernel_weights_direct(s, h, half_width):
    """Alternating-sign closed form of the weights w[0..half_width].

    K(n) = (-1)^n Gamma(2s+1) / (Gamma(1+s+n) Gamma(1+s-n) h^{2s}).
    Expanding both shifted gammas from Gamma(1+s) by the functional
    equation gives
        K(n) = -[Gamma(2s+1)/Gamma(1+s)^2] prod_{k=1}^n (k-1-s)/(k+s) / h^{2s}
    for n >= 1: the alternating sign cancels against the n-1 negative
    factors, so the off-center weights are always negative.  The paired
    log-ratio cumulative sum keeps the relative error near machine
    precision out to n ~ 10^6.
    """
    h2s = h ** (2.0 * s)
    w = np.empty(half_width + 1)
    w[0] = math.exp(gammaln(2.0 * s + 1.0) - 2.0 * gammaln(1.0 + s)) / h2s
    k = np.arange(1, half_width + 1, dtype=float)
    inc = np.log(np.abs(k - 1.0 - s)) - np.log(k + s)
    log_mag = gammaln(2.0 * s + 1.0) - 2.0 * gammaln(1.0 + s) + np.cumsum(inc)
    w[1:] = -np.exp(log_mag) / h2s
    return SymmetricKernel(w=w)


def toeplitz_direct(kernel, values):
    """out[j] = sum_m w[|j-m|] values[m], values extended by zero, as the
    plain O(N^2) convolution sum."""
    n_half, m = kernel.half_width, len(values)
    full = np.concatenate((kernel.w[:0:-1], kernel.w))  # w[N]..w[1], w[0], w[1]..w[N]
    return np.convolve(values, full, mode="full")[n_half:n_half + m]


_TAIL_MAX = 1.0e9


def continuous_op_oracle(U, s, x, tol=1e-8, kinks=()):
    """Evaluate the continuous fractional Laplacian of U at x by quadrature.

    Uses the symmetrized form
        C_s * integral_0^inf (2U(x) - U(x+r) - U(x-r)) / r^{1+2s} dr,
    which removes the principal value.  The inner singular part is
    handled by a Taylor closed form on (0, r_c] (the second difference
    there is pure cancellation noise in floats) and the substitution
    r = t^2 on [r_c, 1]; the far field is handled by
    an analytic power-law tail for the 2U(x) term plus dyadic-block
    quadrature of the remainder until blocks fall below the tolerance.

    Parameters
    ----------
    U : callable
        Profile, twice continuously differentiable near x, bounded, with
        integrable tails.
    kinks : iterable of float, optional
        Locations where U is not smooth (quadrature breakpoints).

    Raises
    ------
    OracleConvergenceError
        If the accumulated error estimate exceeds tol.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    c_s = frac_laplacian_constant(s)
    ux = float(U(x))
    exponent = 1.0 + 2.0 * s

    def sym_diff(r):
        return 2.0 * ux - float(U(x + r)) - float(U(x - r))

    def g(r):
        return sym_diff(r) / r ** exponent

    r_kinks = sorted({abs(float(k) - x) for k in kinks} | {abs(float(k) + x) for k in kinks})
    err_budget = tol / c_s

    # innermost piece (0, r_c]: the integrand is U''(x) r^{1-2s} + O(r^{3-2s})
    # and the curvature is read off the second difference at r_c itself
    # (evaluating it closer to 0 only measures rounding noise)
    r_c = 1e-4
    inner = sym_diff(r_c) * r_c ** (-2.0 * s) / (2.0 - 2.0 * s)
    e_inner = abs(inner) * r_c * r_c + 4e-16 * r_c ** (-2.0 * s)

    # inner leg r in [r_c, 1]: substitute r = t^2 to soften the endpoint
    inner_pts = [math.sqrt(r) for r in r_kinks if r_c < r < 1.0]
    leg, e_leg = quad(
        lambda t: g(t * t) * 2.0 * t, math.sqrt(r_c), 1.0,
        points=inner_pts or None, limit=300, epsabs=err_budget / 8.0, epsrel=1e-12,
    )
    inner += leg
    e_inner += e_leg

    # middle leg r in [1, R0]
    r0 = max(50.0, abs(x) + 10.0, *(r + 1.0 for r in r_kinks)) if r_kinks else max(50.0, abs(x) + 10.0)
    mid_pts = [r for r in r_kinks if 1.0 < r < r0]
    middle, e_middle = quad(
        g, 1.0, r0, points=mid_pts or None, limit=500,
        epsabs=err_budget / 8.0, epsrel=1e-12,
    )

    # far field: analytic tail of the 2U(x) term ...
    tail = 2.0 * ux * r0 ** (-2.0 * s) / (2.0 * s)
    e_tail = 0.0
    # ... minus dyadic blocks of integral (U(x+r)+U(x-r)) r^{-1-2s} dr
    a = r0
    quiet = 0
    while a < _TAIL_MAX:
        b = 2.0 * a
        blk, e_blk = quad(
            lambda r: (float(U(x + r)) + float(U(x - r))) / r ** exponent,
            a, b, limit=max(60, int((b - a) / 3.0)),
            epsabs=err_budget / 16.0, epsrel=1e-12,
        )
        tail -= blk
        e_tail += e_blk
        if abs(blk) < err_budget / 16.0:
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
        a = b
    else:
        raise OracleConvergenceError(
            f"far-field blocks did not fall below tolerance by r={_TAIL_MAX}"
        )

    err = (e_inner + e_middle + e_tail + abs(blk)) * c_s
    if err > tol:
        raise OracleConvergenceError(
            f"quadrature error estimate {err:.3g} exceeds tol {tol:.3g}"
        )
    return c_s * (inner + middle + tail)

