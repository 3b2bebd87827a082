"""Discrete fractional Laplacian on the uniform 1D lattice.

Builds the explicit convolution weights of the operator (fractional
power of the 3-point second-difference Laplacian), applies the operator
to a value array as a symmetric Toeplitz convolution by FFT circulant
embedding (toeplitz_matvec, the one way every caller applies it).  The
consistency of the operator with the continuous fractional Laplacian is
measured by the study module (run_consistency_study).  Independent routes
to the same weights and products (the alternating-sign closed form, the
O(N^2) direct sum) and a singular-integral quadrature of the continuous
operator live in the tests as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len
from scipy.fft._pocketfft.pypocketfft import c2r, r2c
from scipy.special import gammaln

__all__ = [
    "SymmetricKernel",
    "kernel_weights",
    "toeplitz_matvec",
    "frac_laplacian_constant",
]


def frac_laplacian_constant(s):
    """Normalization constant of the 1D singular-integral operator:
    C_s = s 4^s Gamma(1/2 + s) / (sqrt(pi) Gamma(1 - s)).
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return (
        s * 4.0 ** s * math.exp(gammaln(0.5 + s) - gammaln(1.0 - s)) / math.sqrt(math.pi)
    )


@dataclass(frozen=True)
class SymmetricKernel:
    """Symmetric convolution kernel w[|n|] of a lattice operator.

    w[n] holds the entry at offset n (= entry at -n) for n = 0..half_width;
    the mesh size is folded into the weights by their builder.  The
    fractional Laplacian's weights have w[0] > 0,
    w[n] < 0 for n >= 1, a vanishing whole-lattice row sum and
    |w[n]| ~ frac_laplacian_constant(s) / (h^{2s} n^{1+2s}); a semigroup
    kernel is non-negative up to quadrature noise with mass() at most 1.
    The weights are made read-only on construction,
    because toeplitz_matvec caches the spectrum of the embedded kernel
    per FFT size and an in-place edit would leave that spectrum stale.
    """

    w: np.ndarray
    _spectra: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self.w.flags.writeable = False

    @property
    def half_width(self):
        return len(self.w) - 1

    def mass(self):
        """Two-sided kernel mass w[0] + 2 sum_{n>=1} w[n]."""
        return float(self.w[0] + 2.0 * np.sum(self.w[1:]))

    def spectrum(self, size):
        """rfft of the embedded kernel w[N]..w[1], w[0], w[1]..w[N] at FFT
        length size, computed once per size.  Concurrent callers may both
        compute a missing entry; they store equal arrays."""
        spec = self._spectra.get(size)
        if spec is None:
            spec = _rfft_padded(np.concatenate((self.w[:0:-1], self.w)), size)
            spec.flags.writeable = False
            self._spectra[size] = spec
        return spec


def kernel_weights(s, h, half_width):
    """Build the discrete fractional Laplacian weights for n = 0..half_width.

    The center weight is Gamma(2s+1) / (Gamma(1+s)^2 h^{2s}).  Off-center
    weights are minus the positive jump kernel
    C_s Gamma(n-s) / (h^{2s} Gamma(n+1+s)), with C_s = frac_laplacian_constant(s)
    = 4^s Gamma(1/2+s) / (sqrt(pi) |Gamma(-s)|),
    evaluated through the stable ratio recurrence
    g_{n+1} = g_n (n - s)/(n + 1 + s) seeded by log-gamma at n = 1; this
    sidesteps the reflection of Gamma at negative arguments that the
    alternating-sign closed form would need.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    half_width = int(half_width)
    if half_width < 1:
        raise ValueError("half_width must be >= 1")

    h2s = h ** (2.0 * s)
    w = np.empty(half_width + 1)
    w[0] = math.exp(gammaln(2.0 * s + 1.0) - 2.0 * gammaln(1.0 + s)) / h2s

    pref = frac_laplacian_constant(s)
    n = np.arange(1, half_width + 1, dtype=float)
    # log of Gamma(n-s)/Gamma(n+1+s) via cumulative sum of the ratio logs
    seed = gammaln(1.0 - s) - gammaln(2.0 + s)
    steps = np.log(n[:-1] - s) - np.log(n[:-1] + 1.0 + s)
    log_ratio = seed + np.concatenate(([0.0], np.cumsum(steps)))
    w[1:] = -pref * np.exp(log_ratio) / h2s
    return SymmetricKernel(w=w)


# ---------------------------------------------------------------------------
# Operator application
# ---------------------------------------------------------------------------

def _rfft_padded(x, size):
    """rfft(x, size): x zero-padded to length size, transformed by pocketfft
    without scipy.fft's per-call dispatch."""
    padded = np.zeros(size)
    padded[: len(x)] = x
    return r2c(padded, (0,), True, 0, None, 1)


def toeplitz_matvec(kernel, values):
    """Convolve a value array with the symmetric kernel w[|n|].

    out[j] = sum_m w[|j-m|] values[m], values extended by zero.  The band
    is embedded in a circulant of length next_fast_len(2 half_width + m)
    and multiplied by the kernel's cached spectrum at that length, so a
    product costs one forward and one inverse FFT; the result is bitwise
    that of transforming the kernel on every call.  The transforms call
    scipy's pocketfft binding directly, which skips the per-call argument
    handling of scipy.fft and gives bitwise the public rfft/irfft.  The
    result is a view into an array made by this call, so a caller may
    keep it across later products.
    """
    m = len(values)
    n_half = kernel.half_width
    if n_half < m:
        raise ValueError(
            f"kernel half_width {n_half} shorter than grid ({m} points); "
            "truncation would clip inside the domain"
        )
    size = next_fast_len(2 * n_half + m)
    spec = _rfft_padded(values, size)
    spec *= kernel.spectrum(size)
    conv = c2r(spec, (0,), size, False, 2, None, 1)  # scaled by 1/size, as irfft
    return conv[n_half : n_half + m]

