"""Lattice heat semigroup, its fractional power, and the Wright-subordinated
solution operators of the time-fractional problem.

The fractional semigroup kernel is computed from the spectral integral
    L_n(t) = (1/2pi) integral_{-pi}^{pi} exp(-t lam(theta)) e^{-i n theta} dtheta,
    lam(theta) = (4 sin^2(theta/2))^s,
and the subordinated kernels from weighted sums of such integrands over
the Wright tau-quadrature; one builder serves both, the semigroup being
its one-node case.  The integrand is periodic but has a |theta|^{2s}
cusp at theta = 0, so the plain m-node trapezoid rule aliases
coefficients decaying like n^{-1-2s} and errs by O(m^{-1-2s}).  The
builder subtracts that cusp in closed form (its coefficients are the
h = 1 lattice weights of lam), which leaves an aliasing error of
O(m^{-1-4s}); it picks m from that error model and doubles it until two
grids agree to the tolerance (1e-12 for the semigroup kernel, 1e-10 for
the subordinated ones).  All kernels are non-negative with total mass
at most one (sub-Markov), so every operator here is a sup-norm
contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dct
from scipy.special import zeta

from .grid import GridFunction
from .kernel import SymmetricKernel, kernel_weights, toeplitz_matvec
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

    Entries L_n(t / h^{2s}) for n = 0..half_width, via cusp-corrected
    trapezoidal sampling of the spectral integral with node doubling;
    raises if the doubling does not settle below tol.  Results are cached: the
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
    if t == 0.0:
        w = np.zeros(half_width + 1)
        w[0] = 1.0
        return SymmetricKernel(s=s, h=h, t=0.0, w=w)
    return _spectral_kernel(s, h, t, half_width, np.ones(1),
                            np.array([t / h ** (2.0 * s)]), tol)


_MAX_NODES = 1 << 22   # largest trapezoid grid; half of it is sampled
_BLOCK = 1 << 17       # exponentials evaluated per block of tau nodes


def _alias_nodes(s, factors, rates, tol):
    """Nodes m that bring the cusp-corrected aliasing error below tol.

    After the |theta|^{2s} term is removed, the coefficient tail of
    sum_i f_i exp(-r_i lam) is led by the k = 2, 3 terms of the Taylor
    series in r, sum_i f_i (-r_i)^k lam^k / k!, whose |theta|^{2ks} cusps
    have coefficients ~ Gamma(2ks+1) |sin(k pi s)| / (pi n^{1+2ks}).
    Aliased onto offset n << m they sum to
    2 zeta(1+2ks) Gamma(2ks+1) |sin(k pi s)| / pi * S_k m^{-1-2ks},
    S_k = sum_i f_i r_i^k / k!; each term is held to tol / 2.
    """
    m = 1.0
    for k in (2, 3):
        p = 2.0 * k * s
        strength = float(np.sum(factors * rates ** k)) / math.factorial(k)
        coeff = (2.0 * zeta(1.0 + p) * math.gamma(1.0 + p)
                 * abs(math.sin(k * math.pi * s)) / math.pi)
        m = max(m, (2.0 * strength * coeff / tol) ** (1.0 / (1.0 + p)))
    return m


def _spectral_kernel(s, h, t, half_width, factors, rates, tol):
    """Fourier coefficients n = 0..half_width of
    g(theta) = sum_i factors_i exp(-rates_i lam(theta)), lam = (4 sin^2(theta/2))^s,
    by the cusp-corrected trapezoid rule with node doubling.

    g has a |theta|^{2s} cusp whose coefficients -S lamhat_n,
    S = sum_i factors_i rates_i, decay only like n^{-1-2s}; lamhat_n are
    the h = 1 lattice weights (closed-form gamma ratios).  The rule
    samples g + S lam, whose coefficients decay like n^{-1-4s}, and adds
    -S lamhat_n back exactly.  Even g needs the nodes on [0, pi] only
    (a type-1 DCT), and each doubling samples just the new odd nodes:
    2 pi (2k) / (2m) is bitwise 2 pi k / m.  Raises SeriesConvergenceError
    unless two successive grids agree to tol.
    """
    # resolution must cover the requested offsets, the width of the
    # spectral peak (~ rate^{-1/(2s)} in theta) and the aliasing error
    m = 4.0 * (half_width + 1)
    r_max = float(np.max(rates))
    if r_max > 1.0:
        m = max(m, 8.0 * r_max ** (1.0 / (2.0 * s)))
    cusp, lam_hat = 0.0, 0.0
    if s < 1.0:
        cusp = float(np.sum(factors * rates))
        lam_hat = kernel_weights(s, 1.0, max(half_width, 1)).w[: half_width + 1]
        m = max(m, _alias_nodes(s, factors, rates, tol))
    if 2.0 * m > _MAX_NODES:  # room for one doubling
        raise SeriesConvergenceError(
            f"spectral kernel needs ~{m:.1e} quadrature nodes for tol={tol} "
            f"at s={s}, h={h}, t={t}; request a looser tol"
        )
    m = 1 << max(8, int(math.ceil(math.log2(m))))

    def samples(theta):
        lam = (4.0 * np.sin(theta / 2.0) ** 2) ** s
        g = cusp * lam
        step = max(1, _BLOCK // len(theta))
        for i in range(0, len(rates), step):
            g += factors[i:i + step] @ np.exp(-np.outer(rates[i:i + step], lam))
        return g

    def coefficients(g, m):
        return dct(g, type=1)[: half_width + 1] / m - cusp * lam_hat

    g = samples(2.0 * math.pi * np.arange(m // 2 + 1) / m)
    prev = coefficients(g, m)
    while 2 * m <= _MAX_NODES:
        finer = np.empty(m + 1)
        finer[0::2] = g
        finer[1::2] = samples(2.0 * math.pi * np.arange(1, m, 2) / (2 * m))
        g, m = finer, 2 * m
        w = coefficients(g, m)
        if np.max(np.abs(w - prev)) <= tol:
            return SymmetricKernel(s=s, h=h, t=t, w=w)
        prev = w
    raise SeriesConvergenceError(
        f"spectral kernel quadrature did not settle for s={s}, h={h}, t={t}"
    )


def heat_semigroup_kernel(h, t, half_width):
    """Kernel of the plain lattice heat semigroup exp(t Laplacian):
    entries e^{-2t/h^2} I_n(2t/h^2) from the scaled Bessel functions,
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
        return float(np.cumsum(self.weights * self.phi * g_values)[-1])


_GL_ORDER = 16
_PANEL_WIDTH = 0.5


@lru_cache(maxsize=64)
def subordination_quadrature(alpha, cutoff=1e-14):
    """Build the tau-quadrature for a given time-fractional order.

    The range is truncated where the closed-form decay
    exp(-(1-alpha) (alpha^alpha tau)^{1/(1-alpha)}) of Phi_alpha, times
    (1 + tau), drops below `cutoff`, and is covered by whole fixed-width
    Gauss-Legendre panels.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    # (1-a) (a^a tau)^{1/(1-a)} = ln(1/cutoff) + ln(1 + tau), by fixed point
    tau_max = 1.0
    for _ in range(8):
        decay = -math.log(cutoff) + math.log1p(tau_max)
        tau_max = (decay / (1.0 - alpha)) ** (1.0 - alpha) / alpha ** alpha
    n_panels = max(2, math.ceil(tau_max / _PANEL_WIDTH))
    x_ref, w_ref = np.polynomial.legendre.leggauss(_GL_ORDER)
    half = 0.5 * _PANEL_WIDTH
    nodes = (_PANEL_WIDTH * np.arange(n_panels)[:, None] + half * (x_ref + 1.0)).ravel()
    weights = np.tile(half * w_ref, n_panels)
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
    # tol 1e-10 (vs 1e-12 for the plain semigroup kernel): the subordinated
    # operators back identities checked at the 1e-6..1e-8 level while
    # their contraction bounds have O(1) slack.  All tau nodes share the
    # theta grid, so the whole tau integral is one spectral integrand.
    quadr = subordination_quadrature(alpha)
    factors = quadr.weights * quadr.phi
    if weighted_by_tau:
        factors = factors * quadr.nodes
    rates = quadr.nodes * t ** alpha / h ** (2.0 * s)  # per-node t / h^{2s}
    return _spectral_kernel(s, h, t, half_width, factors, rates, tol)


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
