"""Lattice fractional heat semigroup and the Wright-subordinated solution
operators of the time-fractional problem.

Each solution operator is a sum over one Wright rule (_wright_rule) of
semigroup terms exp(-tau_i t^alpha A): at t > 0 below alpha = 1 the
nodes tau_i and factors f_i = w_i Phi_alpha(tau_i) of
subordination_quadrature, built once per alpha; at alpha = 1, where
Phi_1 is the unit mass at tau = 1, and at t = 0, where every term is the
identity, the single node tau = 1 weighted by the Wright moment, exactly.
Both kernel builders go through one front end (_kernel); one per-mode
sum (_mode_sum) serves evolution.evaluate_mild and the scalar reductions.
The kernels are the Fourier coefficients of one spectral integrand,
    g(theta) = sum_i f_i exp(-tau_i t^alpha h^{-2s} lam(theta)),
    lam(theta) = (4 sin^2(theta/2))^s.
It is periodic but has a |theta|^{2s} cusp at theta = 0, so the plain
m-node trapezoid rule aliases coefficients decaying like n^{-1-2s} and
errs by O(m^{-1-2s}).  The builder subtracts that cusp in closed form
(its coefficients are the h = 1 lattice weights of lam), which leaves an
aliasing error of O(m^{-1-4s}); it picks m from that error model and
doubles it until two grids agree to the tolerance (1e-12 for the
semigroup kernel, 1e-10 for the subordinated ones).  At s = 1 there is
no cusp and the semigroup kernel is the plain lattice heat kernel
e^{-x} I_n(x), x = 2t/h^2.  All kernels are non-negative; all but the
tau-weighted one have total mass at most one (sub-Markov), so their
operators are sup-norm contractions.  Kernels are built afresh on every
call and applied by the caller with kernel.toeplitz_matvec.  They are
the paper's whole-lattice objects; the library's own mild reference
solves the truncated problem in its eigenbasis and builds none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dct
from scipy.special import zeta

# toeplitz_matvec is not called here; perfbench/spans.py patches semigroup.toeplitz_matvec
from .kernel import SymmetricKernel, kernel_weights, toeplitz_matvec  # noqa: F401
from .special import SeriesConvergenceError, wright_phi

__all__ = [
    "SubordinationQuadrature",
    "frac_semigroup_kernel",
    "subordination_quadrature",
    "subordinated_kernel",
    "subordinate_scalar_S",
    "subordinate_scalar_P",
]


# node doubling of the spectral builder stops once two grids agree to this
_SEMIGROUP_TOL = 1e-12


def frac_semigroup_kernel(s, h, t, half_width):
    """Kernel of exp(-t A) for the discrete fractional Laplacian A.

    Entries L_n(t / h^{2s}) for n = 0..half_width, via cusp-corrected
    trapezoidal sampling of the spectral integral with node doubling;
    raises if the doubling does not settle below 1e-12.  s = 1 is
    accepted and gives the lattice heat kernel e^{-2t/h^2} I_n(2t/h^2).
    """
    return _kernel(s, h, 1.0, t, half_width, False, _SEMIGROUP_TOL)


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


def _spectral_samples(theta, s, cusp, factors, rates):
    """The cusp-corrected integrand cusp lam + sum_i factors_i exp(-rates_i lam)
    at the nodes theta, lam = (4 sin^2(theta/2))^s.

    The tau nodes go in blocks of about _BLOCK exponentials.  Each block
    is formed as the outer product of its rates with -lam, which equals
    -(rates x lam) bit for bit, and exponentiated in place, so the only
    full-size array per block is the one the exponentials fill.
    """
    lam = (4.0 * np.sin(theta / 2.0) ** 2) ** s
    g = cusp * lam
    neg_lam = -lam
    step = max(1, _BLOCK // len(theta))
    for i in range(0, len(rates), step):
        e = np.multiply.outer(rates[i:i + step], neg_lam)
        g += factors[i:i + step] @ np.exp(e, out=e)
    return g


def _spectral_kernel(s, h, t, half_width, factors, rates, tol):
    """Fourier coefficients n = 0..half_width of
    g(theta) = sum_i factors_i exp(-rates_i lam(theta)), lam = (4 sin^2(theta/2))^s,
    by the cusp-corrected trapezoid rule with node doubling.

    g has a |theta|^{2s} cusp whose coefficients -S lamhat_n,
    S = sum_i factors_i rates_i, decay only like n^{-1-2s}; lamhat_n are
    the h = 1 lattice weights (closed-form gamma ratios).  The rule
    samples g + S lam (_spectral_samples), whose coefficients decay like
    n^{-1-4s}, and adds -S lamhat_n back exactly.  Even g needs the nodes on [0, pi] only
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
            f"at s={s}, h={h}, t={t}"
        )
    m = 1 << max(8, int(math.ceil(math.log2(m))))

    def coefficients(g, m):
        return dct(g, type=1)[: half_width + 1] / m - cusp * lam_hat

    g = _spectral_samples(2.0 * math.pi * np.arange(m // 2 + 1) / m,
                           s, cusp, factors, rates)
    prev = coefficients(g, m)
    while 2 * m <= _MAX_NODES:
        finer = np.empty(m + 1)
        finer[0::2] = g
        finer[1::2] = _spectral_samples(2.0 * math.pi * np.arange(1, m, 2) / (2 * m),
                                         s, cusp, factors, rates)
        g, m = finer, 2 * m
        w = coefficients(g, m)
        if np.max(np.abs(w - prev)) <= tol:
            return SymmetricKernel(w=w)
        prev = w
    raise SeriesConvergenceError(
        f"spectral kernel quadrature did not settle for s={s}, h={h}, t={t}"
    )


# ---------------------------------------------------------------------------
# Wright subordination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubordinationQuadrature:
    """Gauss-Legendre panel quadrature against the Wright density.

    nodes tau_i and factors f_i = w_i Phi_alpha(tau_i), the panel weights
    times the density, discretize integral_0^inf Phi_alpha(tau) g(tau) dtau
    as sum_i f_i g(tau_i).  subordination_quadrature, which builds it,
    checks the p = 0 and p = 1 moments to 1e-8.
    """

    nodes: np.ndarray
    factors: np.ndarray


def _gauss_panels(edges, order):
    """Nodes and weights of the composite Gauss-Legendre rule of the given
    order on the panels [edges[k], edges[k+1]], panel by panel."""
    x_ref, w_ref = np.polynomial.legendre.leggauss(order)
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    return (lo + half * (x_ref + 1.0)).ravel(), (half * w_ref).ravel()


_GL_ORDER = 16
_PANEL_WIDTH = 0.5
_TAU_CUTOFF = 1e-14

# Largest z = t^alpha lam at which the Wright sum of
# subordination_quadrature is trusted for E_alpha(-z): its 0.5-wide panels
# cannot resolve exp(-tau z), which lives on tau <~ 1/z.  Its absolute error
# against mittag_leffler at alpha in {0.3, 0.5, 0.8} is at most 3.3e-10 at
# z = 100, 1.6e-8 to 6.6e-8 at z = 150 and 3.9e-5 to 1.4e-4 at z = 500.
_WRIGHT_Z_MAX = 100.0


@lru_cache(maxsize=64)
def subordination_quadrature(alpha):
    """Build the tau-quadrature for a given time-fractional order.

    The range is truncated where the closed-form decay
    exp(-(1-alpha) (alpha^alpha tau)^{1/(1-alpha)}) of Phi_alpha, times
    (1 + tau), drops below 1e-14, and is covered by whole fixed-width
    Gauss-Legendre panels.  Checked to build for alpha from 0.05 to 0.94.
    From alpha = 0.95 up, Phi_alpha is a peak at tau ~ 1 too narrow for
    the panels, and the moment check raises SeriesConvergenceError.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    # (1-a) (a^a tau)^{1/(1-a)} = ln(1/_TAU_CUTOFF) + ln(1 + tau), by fixed point
    tau_max = 1.0
    for _ in range(8):
        decay = -math.log(_TAU_CUTOFF) + math.log1p(tau_max)
        tau_max = (decay / (1.0 - alpha)) ** (1.0 - alpha) / alpha ** alpha
    n_panels = max(2, math.ceil(tau_max / _PANEL_WIDTH))
    nodes, weights = _gauss_panels(_PANEL_WIDTH * np.arange(n_panels + 1), _GL_ORDER)
    factors = weights * np.array([wright_phi(alpha, x) for x in nodes])
    m0, m1 = float(factors.sum()), float(factors @ nodes)
    if abs(m0 - 1.0) > 1e-8 or abs(m1 - 1.0 / math.gamma(alpha + 1.0)) > 1e-8:
        raise SeriesConvergenceError(
            f"subordination quadrature moments off: m0={m0!r}, m1={m1!r}"
        )
    nodes.flags.writeable = factors.flags.writeable = False  # the cache shares them
    return SubordinationQuadrature(nodes=nodes, factors=factors)


def _wright_rule(alpha, t, lam_max, weighted_by_tau):
    """Nodes tau_i and factors f_i of the Wright sum
    sum_i f_i exp(-tau_i t^alpha lam) for rates lam <= lam_max.

    At alpha = 1 (Phi_1 is the unit mass at tau = 1) and at t = 0 it is
    one node whose factor is the Wright moment, 1, or 1/Gamma(1+alpha)
    with tau weighting, exact.  Otherwise it is the nodes and factors
    w_i Phi_alpha(tau_i) of subordination_quadrature(alpha), times tau_i
    with tau weighting.  Raises ValueError for alpha outside (0, 1] or t
    outside [0, inf), and SeriesConvergenceError once z = t^alpha lam_max
    exceeds _WRIGHT_Z_MAX below alpha = 1.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be non-negative and finite, got {t}")
    if alpha == 1.0 or t == 0.0:
        return np.ones(1), np.full(1, 1.0 / math.gamma(1.0 + alpha) if weighted_by_tau else 1.0)
    quadr = subordination_quadrature(alpha)
    z = t ** alpha * lam_max
    if z > _WRIGHT_Z_MAX:
        raise SeriesConvergenceError(
            f"the Wright quadrature cannot resolve E_alpha(-z) at z = t^alpha max(lambda) "
            f"= {z:.4g}, past its limit {_WRIGHT_Z_MAX:g} (alpha = {alpha}, t = {t:.10g})"
        )
    return quadr.nodes, quadr.factors * quadr.nodes if weighted_by_tau else quadr.factors


def _kernel(s, h, alpha, t, half_width, weighted_by_tau, tol):
    """Front end of both kernel builders (see subordinated_kernel): the
    kernel of the Wright rule's sum of exp(-tau_i t^alpha A), to tol."""
    s, h, alpha, t, half_width = float(s), float(h), float(alpha), float(t), int(half_width)
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    if half_width < 0:
        raise ValueError(f"half_width must be non-negative, got {half_width}")
    h2s = h ** (2.0 * s)
    nodes, factors = _wright_rule(alpha, t, 4.0 ** s / h2s, weighted_by_tau)
    if t == 0.0:
        w = np.zeros(half_width + 1)
        w[0] = factors[0]
        return SymmetricKernel(w=w)
    return _spectral_kernel(s, h, t, half_width, factors, nodes * t ** alpha / h2s, tol)


def _mode_sum(alpha, t, lam, weighted_by_tau=False):
    """The Wright sum sum_i f_i exp(-tau_i t^alpha lam) at each rate of the
    array lam (or at one rate): exp(-t lam) at alpha = 1, and below 1
    E_alpha(-t^alpha lam), or E_{alpha,alpha}(-t^alpha lam) / alpha with
    tau weighting, up to the rule's error.  Raises ValueError unless every
    rate is >= 0 and finite (at t = 0 an infinite rate would make
    lam t^alpha = inf * 0), and _wright_rule's errors.
    """
    lam = np.asarray(lam, dtype=float)
    lo, hi = float(lam.min()), float(lam.max())
    if not (lo >= 0.0 and hi < math.inf):
        raise ValueError(f"rates lambda must be non-negative and finite, got [{lo}, {hi}]")
    nodes, factors = _wright_rule(alpha, t, hi, weighted_by_tau)
    e = np.multiply.outer(nodes * t ** alpha, -lam)
    return factors @ np.exp(e, out=e)


# 1e-10 (vs 1e-12 for the plain semigroup kernel): the subordinated
# operators back identities checked at the 1e-6..1e-8 level while their
# contraction bounds have O(1) slack
_SUBORDINATED_TOL = 1e-10


def subordinated_kernel(s, h, alpha, t, half_width, weighted_by_tau=False):
    """Combined convolution kernel of the subordinated solution operators.

    Without tau weighting this is the kernel of
    integral Phi_alpha(tau) exp(-tau t^alpha A) dtau; with it, of
    integral tau Phi_alpha(tau) exp(-tau t^alpha A) dtau (the prefactor
    alpha t^{alpha-1} of the second operator is left to the caller).
    All tau nodes share the theta grid, so the whole tau integral is one
    spectral integrand; at alpha = 1 it is the semigroup kernel.  At t = 0
    it is exactly the identity, times the first Wright moment
    1/Gamma(1+alpha) with tau weighting.  Raises ValueError unless
    s in (0, 1], h > 0, t finite and >= 0, half_width >= 0 and
    alpha in (0, 1], and SeriesConvergenceError once z = t^alpha 4^s / h^{2s}
    (t^alpha times the symbol's maximum, at theta = pi) exceeds _WRIGHT_Z_MAX.
    """
    return _kernel(s, h, alpha, t, half_width, weighted_by_tau, _SUBORDINATED_TOL)


def subordinate_scalar_S(alpha, lam, t):
    """Scalar reduction of the subordinated propagator: the quadrature
    applied to exp(-lam tau t^alpha).  Equals E_{alpha,1}(-lam t^alpha)
    up to quadrature error (classical subordination identity), and
    exp(-lam t) exactly at alpha = 1; exactly 1 at t = 0.  Raises
    ValueError unless t is finite and >= 0 and lam is finite and >= 0,
    and SeriesConvergenceError once z = lam t^alpha exceeds _WRIGHT_Z_MAX.
    """
    return float(_mode_sum(alpha, t, lam))


def subordinate_scalar_P(alpha, lam, t):
    """Scalar reduction of the forcing propagator.

    Equals t^{alpha-1} E_{alpha,alpha}(-lam t^alpha): the identity
    alpha * integral tau Phi_alpha(tau) e^{-z tau} dtau = E_{alpha,alpha}(-z)
    follows from the Wright moments term by term; exp(-lam t) exactly at
    alpha = 1.  Raises ValueError unless t > 0 and lam is finite and
    >= 0, and SeriesConvergenceError once z = lam t^alpha exceeds
    _WRIGHT_Z_MAX.
    """
    if not t > 0.0:
        raise ValueError("the forcing propagator requires t > 0")
    return alpha * t ** (alpha - 1.0) * float(_mode_sum(alpha, t, lam, weighted_by_tau=True))
