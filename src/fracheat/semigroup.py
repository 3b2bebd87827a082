"""Lattice heat semigroup, its fractional power, and the Wright-subordinated
solution operators of the time-fractional problem.

The fractional semigroup kernel is computed from the spectral integral
    L_n(t) = (1/2pi) integral_{-pi}^{pi} exp(-t (4 sin^2(theta/2))^s) e^{-i n theta} dtheta,
sampled by the trapezoidal rule (spectrally accurate for this smooth
periodic integrand) with node doubling until entries settle to 1e-12.
All kernels are non-negative with total mass at most one (sub-Markov),
so every operator here is a sup-norm contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import rfft

from .grid import GridFunction
from .kernel import SymmetricKernel, toeplitz_matvec
from .special import SeriesConvergenceError, bessel_i_scaled_row, wright_phi

__all__ = [
    "SemigroupKernel",
    "SubordinationQuadrature",
    "frac_semigroup_kernel",
    "heat_semigroup_kernel",
    "heat_semigroup_apply",
    "frac_semigroup_apply",
    "subordination_quadrature",
    "subordinated_kernel",
    "subordinated_S_apply",
    "subordinated_P_apply",
    "subordinate_scalar_S",
    "subordinate_scalar_P",
]


# every lattice semigroup kernel is a symmetric kernel with its time t set
SemigroupKernel = SymmetricKernel


def frac_semigroup_kernel(s, h, t, half_width, tol=1e-12):
    """Kernel of exp(-t A) for the discrete fractional Laplacian A.

    Entries L_n(t / h^{2s}) for n = 0..half_width, via trapezoidal
    sampling of the spectral integral with node doubling; raises if the
    doubling does not settle below tol.  Results are cached: the
    subordinated operators evaluate this at the same (s, h, t) hundreds
    of times.
    """
    return _frac_semigroup_kernel(float(s), float(h), float(t), int(half_width),
                                  float(tol))


@lru_cache(maxsize=4096)
def _frac_semigroup_kernel(s, h, t, half_width, tol):
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    half_width = int(half_width)
    t_scaled = t / h ** (2.0 * s)
    if t == 0.0:
        w = np.zeros(half_width + 1)
        w[0] = 1.0
        return SymmetricKernel(s=float(s), h=float(h), t=0.0, w=w)

    # resolution must cover the requested offsets, the width of the
    # spectral peak (~ t_scaled^{-1/(2s)} in theta), and the aliasing of
    # the |theta|^{2s}-cusp coefficient tail |L_n| ~ t_scaled c_s n^{-1-2s}:
    # the trapezoid error at offset n is ~ 2 t_scaled c_s zeta(1+2s) m^{-1-2s}
    m = 4 * (half_width + 1)
    if t_scaled > 1.0:
        m = max(m, int(8.0 * t_scaled ** (1.0 / (2.0 * s))))
    if s < 1.0:
        c_s = 4.0 ** s * math.gamma(0.5 + s) * s / (math.sqrt(math.pi) * math.gamma(1.0 - s))
        zeta = 1.0 / (2.0 * s) + 0.6
        alias_m = (2.0 * t_scaled * c_s * zeta / tol) ** (1.0 / (1.0 + 2.0 * s))
        if alias_m > 2 ** 26:
            raise SeriesConvergenceError(
                f"semigroup kernel needs ~{alias_m:.1e} quadrature nodes for "
                f"tol={tol} at s={s}, t/h^2s={t_scaled:.3g}; request a looser tol"
            )
        m = max(m, int(alias_m))
    m = 1 << max(8, int(math.ceil(math.log2(m))))
    prev = None
    for _ in range(16):
        theta = 2.0 * math.pi * np.arange(m) / m
        g = np.exp(-t_scaled * (4.0 * np.sin(theta / 2.0) ** 2) ** s)
        coeff = rfft(g).real / m
        if len(coeff) < half_width + 1:
            w = np.zeros(half_width + 1)
            w[: len(coeff)] = coeff
        else:
            w = coeff[: half_width + 1].copy()
        if prev is not None and np.max(np.abs(w - prev)) <= tol:
            return SymmetricKernel(s=float(s), h=float(h), t=float(t), w=w)
        prev = w
        m *= 2
    raise SeriesConvergenceError(
        f"semigroup kernel quadrature did not settle for s={s}, h={h}, t={t}"
    )


def heat_semigroup_kernel(h, t, half_width):
    """Kernel of the plain lattice heat semigroup exp(t Laplacian):
    entries e^{-2t/h^2} I_n(2t/h^2) via the scaled Bessel recurrence,
    extended so the dropped tail is below 1e-16.
    """
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    x = 2.0 * t / h ** 2
    need = max(int(half_width), int(x + 10.0 * math.sqrt(x) + 20.0))
    row = bessel_i_scaled_row(need, x)
    keep = np.nonzero(row >= 1e-16)[0]
    width = max(int(half_width), int(keep[-1]) if keep.size else 0)
    return SymmetricKernel(s=1.0, h=float(h), t=float(t), w=row[: width + 1])


def heat_semigroup_apply(u, t):
    """Apply exp(t Laplacian) to a grid function (Bessel kernel)."""
    kern = heat_semigroup_kernel(u.mesh.h, t, u.mesh.n_points)
    return GridFunction(u.mesh, toeplitz_matvec(kern, u.values))


def frac_semigroup_apply(u, s, t, kernel=None):
    """Apply the fractional semigroup exp(-t A) to a grid function."""
    if kernel is None:
        kernel = frac_semigroup_kernel(s, u.mesh.h, t, u.mesh.n_points)
    if not math.isclose(kernel.h, u.mesh.h, rel_tol=1e-12):
        raise ValueError("kernel mesh size does not match the grid function")
    if kernel.half_width < u.mesh.n_points:
        raise ValueError("kernel too narrow for the grid")
    return GridFunction(u.mesh, toeplitz_matvec(kernel, u.values))


# ---------------------------------------------------------------------------
# Wright subordination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubordinationQuadrature:
    """Gauss-Legendre panel quadrature against the Wright density.

    nodes/weights discretize integrals of the form
    integral_0^inf Phi_alpha(tau) g(tau) dtau; phi holds the cached
    density values at the nodes.  Construction validates the p = 0 and
    p = 1 moments to 1e-8.
    """

    alpha: float
    nodes: np.ndarray
    weights: np.ndarray
    phi: np.ndarray

    def integrate(self, g_values):
        """Sum weights * Phi(nodes) * g_values, fixed left-to-right order."""
        total = 0.0
        contrib = self.weights * self.phi * g_values
        for c in contrib:
            total += c
        return total


_GL_ORDER = 16
_PANEL_WIDTH = 0.5


@lru_cache(maxsize=64)
def subordination_quadrature(alpha, cutoff=1e-14):
    """Build the tau-quadrature for a given time-fractional order.

    The range is truncated where Phi_alpha(tau) (1 + tau) drops below
    `cutoff` (the density decays super-exponentially), then covered by
    fixed-width Gauss-Legendre panels.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    tau_max = 1.0
    while wright_phi(alpha, tau_max) * (1.0 + tau_max) >= cutoff:
        tau_max += 0.5
        if tau_max > 150.0:
            raise SeriesConvergenceError("subordination range did not truncate")
    x_ref, w_ref = np.polynomial.legendre.leggauss(_GL_ORDER)
    n_panels = int(math.ceil(tau_max / _PANEL_WIDTH))
    nodes = []
    weights = []
    for p in range(n_panels):
        lo = p * _PANEL_WIDTH
        hi = min((p + 1) * _PANEL_WIDTH, tau_max)
        half = 0.5 * (hi - lo)
        nodes.extend(lo + half * (x_ref + 1.0))
        weights.extend(half * w_ref)
    nodes = np.array(nodes)
    weights = np.array(weights)
    phi = np.array([wright_phi(alpha, x) for x in nodes])
    quadr = SubordinationQuadrature(alpha=alpha, nodes=nodes, weights=weights, phi=phi)
    m0 = quadr.integrate(np.ones_like(nodes))
    m1 = quadr.integrate(nodes)
    if abs(m0 - 1.0) > 1e-8 or abs(m1 - 1.0 / math.gamma(alpha + 1.0)) > 1e-8:
        raise SeriesConvergenceError(
            f"subordination quadrature moments off: m0={m0!r}, m1={m1!r}"
        )
    return quadr


def subordinated_kernel(s, h, alpha, t, half_width, weighted_by_tau=False):
    """Combined convolution kernel of the subordinated solution operators.

    Without tau weighting this is the kernel of
    integral Phi_alpha(tau) exp(-tau t^alpha A) dtau; with it, of
    integral tau Phi_alpha(tau) exp(-tau t^alpha A) dtau (the prefactor
    alpha t^{alpha-1} of the second operator is left to the caller).
    Cached: one kernel serves any number of grid functions.
    """
    return _subordinated_kernel(float(s), float(h), float(alpha), float(t),
                                int(half_width), bool(weighted_by_tau))


@lru_cache(maxsize=256)
def _subordinated_kernel(s, h, alpha, t, half_width, weighted_by_tau, tol=1e-10):
    # tol 1e-10 (vs 1e-12 for the plain semigroup kernel): the cusp of the
    # spectral integrand forces m ~ tol^{-1/(1+2s)} samples, and the
    # subordinated operators back identities checked at the 1e-6..1e-8
    # level while their contraction bounds have O(1) slack
    quadr = subordination_quadrature(alpha)
    t_alpha = t ** alpha
    factors = quadr.weights * quadr.phi
    if weighted_by_tau:
        factors = factors * quadr.nodes
    rates = quadr.nodes * t_alpha / h ** (2.0 * s)  # per-node t_scaled

    # all tau nodes share the theta grid, so the whole integral needs a
    # single FFT per resolution: sum the spectral integrands first.  The
    # effective cusp strength governing coefficient aliasing is
    # sum_i factor_i * t_scaled_i.
    m = 4 * (half_width + 1)
    r_max = float(np.max(rates))
    if r_max > 1.0:
        m = max(m, int(8.0 * r_max ** (1.0 / (2.0 * s))))
    if s < 1.0:
        strength = float(np.sum(factors * rates))
        c_s = 4.0 ** s * math.gamma(0.5 + s) * s / (math.sqrt(math.pi) * math.gamma(1.0 - s))
        zeta = 1.0 / (2.0 * s) + 0.6
        alias_m = (4.0 * max(strength, tol) * c_s * zeta / tol) ** (1.0 / (1.0 + 2.0 * s))
        if alias_m > 2 ** 26:
            raise SeriesConvergenceError(
                f"subordinated kernel needs ~{alias_m:.1e} quadrature nodes "
                f"at s={s}, alpha={alpha}, t={t}"
            )
        m = max(m, int(alias_m))
    m = 1 << max(8, int(math.ceil(math.log2(m))))
    prev = None
    for _ in range(16):
        theta = 2.0 * math.pi * np.arange(m) / m
        lam = (4.0 * np.sin(theta / 2.0) ** 2) ** s
        g = np.zeros(m)
        for fac, rate in zip(factors, rates):
            g += fac * np.exp(-rate * lam)
        coeff = rfft(g).real / m
        if len(coeff) < half_width + 1:
            w = np.zeros(half_width + 1)
            w[: len(coeff)] = coeff
        else:
            w = coeff[: half_width + 1].copy()
        if prev is not None and np.max(np.abs(w - prev)) <= tol:
            return SymmetricKernel(s=float(s), h=float(h), t=float(t), w=w)
        prev = w
        m *= 2
    raise SeriesConvergenceError(
        f"subordinated kernel quadrature did not settle for s={s}, "
        f"alpha={alpha}, t={t}"
    )


def subordinated_S_apply(u, s, alpha, t):
    """Apply the subordinated propagator of the initial datum.

    At t = 0 this is the identity (the Wright density has unit mass);
    for t > 0 it is a sup-norm contraction.
    """
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    if t == 0.0:
        return u.copy()
    kern = subordinated_kernel(s, u.mesh.h, alpha, t, u.mesh.n_points)
    return GridFunction(u.mesh, toeplitz_matvec(kern, u.values))


def subordinated_P_apply(u, s, alpha, t):
    """Apply the subordinated forcing propagator alpha t^{alpha-1} * (tau-weighted average).

    Rejects t = 0 (the t^{alpha-1} kernel singularity); satisfies
    ||P(t) u||_sup <= t^{alpha-1} ||u||_sup.
    """
    if not t > 0.0:
        raise ValueError("the forcing propagator requires t > 0")
    kern = subordinated_kernel(s, u.mesh.h, alpha, t, u.mesh.n_points, weighted_by_tau=True)
    pref = alpha * t ** (alpha - 1.0)
    return GridFunction(u.mesh, pref * toeplitz_matvec(kern, u.values))


def subordinate_scalar_S(alpha, lam, t):
    """Scalar reduction of the subordinated propagator: the quadrature
    applied to exp(-lam tau t^alpha).  Equals E_{alpha,1}(-lam t^alpha)
    up to quadrature error (classical subordination identity).
    """
    quadr = subordination_quadrature(alpha)
    return quadr.integrate(np.exp(-lam * quadr.nodes * t ** alpha))


def subordinate_scalar_P(alpha, lam, t):
    """Scalar reduction of the forcing propagator.

    Equals t^{alpha-1} E_{alpha,alpha}(-lam t^alpha): the identity
    alpha * integral tau Phi_alpha(tau) e^{-z tau} dtau = E_{alpha,alpha}(-z)
    follows from the Wright moments term by term.
    """
    if not t > 0.0:
        raise ValueError("the forcing propagator requires t > 0")
    quadr = subordination_quadrature(alpha)
    avg = quadr.integrate(quadr.nodes * np.exp(-lam * quadr.nodes * t ** alpha))
    return alpha * t ** (alpha - 1.0) * avg
