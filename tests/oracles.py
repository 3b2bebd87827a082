"""Independent routes to values the library computes one way only.

The library builds the lattice weights by a gamma-ratio recurrence and
applies them by FFT.  The tests check both against the routes below:
the alternating-sign closed form of the weights and the plain O(N^2)
convolution sum.
"""

import math

import numpy as np
from scipy.special import gammaln

from fracheat.kernel import SymmetricKernel


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
    return SymmetricKernel(s=float(s), h=float(h), w=w)


def toeplitz_direct(kernel, values):
    """out[j] = sum_m w[|j-m|] values[m], values extended by zero, as the
    plain O(N^2) convolution sum."""
    n_half, m = kernel.half_width, len(values)
    full = np.concatenate((kernel.w[:0:-1], kernel.w))  # w[N]..w[1], w[0], w[1]..w[N]
    return np.convolve(values, full, mode="full")[n_half:n_half + m]
