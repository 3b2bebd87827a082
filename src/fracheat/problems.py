"""Manufactured-solution test problems.

Both examples are separable, u(t, x) = tau(t) U(x) with the time factor
tau(t) = e^{-t}, and the fractional Laplacian of each profile U has a
closed form.  Since tau' = -tau, the forcing that makes u an exact
solution of  d_t u + (-Laplacian)^s u = F  is F = tau(t) G(x) with the
source G = -U + (-Laplacian)^s U, so discretization error can be
measured directly.  U and G are sampled once per mesh; each step only
scales them by tau(t).  That holds for the first-order time derivative
(alpha = 1) only: for alpha < 1 the same forcing is passed on, and
e^{-t} U does not solve the Caputo problem.  The consistency study's
profile gaussian_profile(x) = e^{-x^2} and its closed form live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import hyp1f1

from .evolution import EvolutionProblem, Nonlinearity
from .grid import GridFunction

__all__ = [
    "ManufacturedSolution",
    "example1",
    "example2",
    "getoor_constant",
    "to_evolution_problem",
    "semilinear_variant",
    "gaussian_profile",
    "gaussian_frac_laplacian",
]


@dataclass(frozen=True)
class ManufacturedSolution:
    """A separable exact solution u(t, x) = tau(t) profile(x).

    tau is the scalar time factor; profile (U) and source
    (G = -U + (-Laplacian)^s U) are vectorized callables x -> values, and
    the forcing is tau(t) G.  support is either the whole line (None) or
    a compact interval the profile vanishes outside of.
    """

    name: str
    s: float
    tau: Callable[[float], float]
    profile: Callable[[np.ndarray], np.ndarray]
    source: Callable[[np.ndarray], np.ndarray]
    support: tuple | None

    def exact(self, t, x):
        return self.tau(t) * self.profile(x)


def _decay(t):
    """The time factor tau(t) = e^{-t} of both examples (tau' = -tau)."""
    return math.exp(-t)


def _check_s(s):
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return s


def example1(s):
    """Smooth decaying example on the whole line.

    Exact solution u(t, x) = e^{-t} (1 + x^2)^{-(1/2 - s)}, whose profile
    satisfies the closed-form identity
        (-Laplacian)^s (1 + x^2)^{-(1/2-s)}
            = 4^s [Gamma(1/2 + s) / Gamma(1/2 - s)] (1 + x^2)^{-(1/2+s)},
    giving the source G = -U + 4^s Gamma(1/2+s)/Gamma(1/2-s) (1+x^2)^{-(1/2+s)}.

    s = 1/2 is rejected: the profile degenerates to the constant 1 (not
    decaying) and Gamma(1/2 - s) hits its pole.
    """
    s = _check_s(s)
    if s == 0.5:
        raise ValueError("example1 degenerates at s = 1/2 (constant profile)")
    c = 4.0 ** s * math.gamma(0.5 + s) / math.gamma(0.5 - s)

    def profile(x):
        return (1.0 + x * x) ** (s - 0.5)

    def source(x):
        return -profile(x) + c * (1.0 + x * x) ** (-(0.5 + s))

    return ManufacturedSolution("example1", s, _decay, profile, source, support=None)


def getoor_constant(s):
    """The constant value of (-Laplacian)^s (1 - x^2)^s_+ inside (-1, 1)
    in one dimension: 2^{2s} Gamma(1/2 + s) Gamma(1 + s) / Gamma(1/2).
    """
    return 4.0 ** s * math.gamma(0.5 + s) * math.gamma(1.0 + s) / math.sqrt(math.pi)


def example2(s):
    """Compactly supported nonsmooth example on (-1, 1).

    Exact solution u(t, x) = C(s) e^{-t} (1 - x^2)^s_+ with the
    normalization C(s) = 1 / [(-Laplacian)^s (1-x^2)^s_+] chosen so that
    the source is simply G = -U + 1 inside the interval (and 0 outside).
    The profile has |x|^s kinks at x = +-1 (only s-Hoelder regularity),
    which is what limits the convergence rate.
    """
    s = _check_s(s)
    c = 1.0 / getoor_constant(s)

    def profile(x):
        return c * np.maximum(1.0 - x * x, 0.0) ** s

    def source(x):
        return np.where(np.abs(x) < 1.0, -profile(x) + 1.0, 0.0)

    return ManufacturedSolution("example2", s, _decay, profile, source, support=(-1.0, 1.0))


def gaussian_profile(x):
    """The smooth rapidly decaying profile e^{-x^2} of the consistency
    study, vectorized over x."""
    return np.exp(-x * x)


def gaussian_frac_laplacian(s):
    """(-Laplacian)^s of gaussian_profile in closed form, as a vectorized
    callable x -> values:
        (-Laplacian)^s e^{-x^2} = 4^s Gamma(1/2 + s) / sqrt(pi) 1F1(1/2 + s; 1/2; -x^2).
    """
    s = _check_s(s)
    c = 4.0 ** s * math.gamma(0.5 + s) / math.sqrt(math.pi)

    def op(x):
        return c * hyp1f1(0.5 + s, 0.5, -x * x)

    return op


def to_evolution_problem(m, mesh, alpha=1.0, t_horizon=1.0):
    """Assemble the linear initial-value problem for a manufactured solution.

    A compactly supported example requires the mesh inside its support;
    the study meshes the lattice nodes strictly inside it, since the
    solution is zero on the boundary and beyond.  The forcing is built
    for alpha = 1: at alpha < 1, m.exact does not solve the returned
    problem, so errors against it are not discretization errors.
    """
    return _sampled_problem(m, mesh, alpha, t_horizon, None)


def semilinear_variant(m, mesh, alpha=1.0, t_horizon=1.0):
    """Semilinear twin of a manufactured problem with f(u) = -u^3.

    The forcing absorbs -f(exact) = exact^3, so the exact solution is
    unchanged while the solver must run Newton.
    """
    nl = Nonlinearity(f=lambda u: -(u ** 3), df=lambda u: -3.0 * u * u)
    return _sampled_problem(m, mesh, alpha, t_horizon, nl)


def _sampled_problem(m, mesh, alpha, t_horizon, nonlinearity):
    """The problem with u0 = tau(0) U and the forcing t -> tau(t) G - f(tau(t) U)
    (t -> tau(t) G without a nonlinearity f), U and G sampled once on mesh."""
    if m.support is not None:
        if mesh.a < m.support[0] - 1e-12 or mesh.b > m.support[1] + 1e-12:
            raise ValueError(
                f"{m.name} requires the mesh inside {list(m.support)}, got [{mesh.a}, {mesh.b}]"
            )
    u, g = m.profile(mesh.nodes), m.source(mesh.nodes)

    def forcing(t):
        tau = m.tau(t)
        return tau * g if nonlinearity is None else tau * g - nonlinearity.f(tau * u)

    return EvolutionProblem(s=m.s, alpha=alpha, mesh=mesh, u0=GridFunction(mesh, m.tau(0.0) * u),
                            t_horizon=t_horizon, forcing=forcing, nonlinearity=nonlinearity)
