"""Manufactured-solution test problems.

Both examples are separable, u(t, x) = e^{-t} U(x), with a profile whose
fractional Laplacian has a closed form, so the forcing that makes u an
exact solution of  d_t u + (-Laplacian)^s u = F  is known analytically
and discretization error can be measured directly.  That holds for the
first-order time derivative (alpha = 1) only: for alpha < 1 the same
forcing is passed on, and e^{-t} U does not solve the Caputo problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    """An exact solution together with its manufactured forcing.

    exact and forcing are vectorized callables (t, x) -> values; support
    is either the whole line (None) or a compact interval the profile
    vanishes outside of.
    """

    name: str
    s: float
    exact: Callable[[float, np.ndarray], np.ndarray]
    forcing: Callable[[float, np.ndarray], np.ndarray]
    support: tuple | None


def example1(s):
    """Smooth decaying example on the whole line.

    Exact solution u(t, x) = e^{-t} (1 + x^2)^{-(1/2 - s)}, whose profile
    satisfies the closed-form identity
        (-Laplacian)^s (1 + x^2)^{-(1/2-s)}
            = 4^s [Gamma(1/2 + s) / Gamma(1/2 - s)] (1 + x^2)^{-(1/2+s)},
    giving the forcing F = -u + 4^s Gamma(1/2+s)/Gamma(1/2-s) e^{-t} (1+x^2)^{-(1/2+s)}.

    s = 1/2 is rejected: the profile degenerates to the constant 1 (not
    decaying) and Gamma(1/2 - s) hits its pole.
    """
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if s == 0.5:
        raise ValueError("example1 degenerates at s = 1/2 (constant profile)")
    c = 4.0 ** s * math.gamma(0.5 + s) / math.gamma(0.5 - s)

    def exact(t, x):
        return math.exp(-t) * (1.0 + x * x) ** (s - 0.5)

    def forcing(t, x):
        return math.exp(-t) * (
            -((1.0 + x * x) ** (s - 0.5)) + c * (1.0 + x * x) ** (-(0.5 + s))
        )

    return ManufacturedSolution(
        name="example1",
        s=s,
        exact=exact,
        forcing=forcing,
        support=None,
    )


def getoor_constant(s):
    """The constant value of (-Laplacian)^s (1 - x^2)^s_+ inside (-1, 1)
    in one dimension: 2^{2s} Gamma(1/2 + s) Gamma(1 + s) / Gamma(1/2).
    """
    return 4.0 ** s * math.gamma(0.5 + s) * math.gamma(1.0 + s) / math.sqrt(math.pi)


def example2(s):
    """Compactly supported nonsmooth example on (-1, 1).

    Exact solution u(t, x) = C(s) e^{-t} (1 - x^2)^s_+ with the
    normalization C(s) = 1 / [(-Laplacian)^s (1-x^2)^s_+] chosen so that
    the forcing is simply F = -u + e^{-t} inside the interval.  The
    profile has |x|^s kinks at x = +-1 (only s-Hoelder regularity), which
    is what limits the convergence rate.
    """
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    c = 1.0 / getoor_constant(s)

    def exact(t, x):
        return c * math.exp(-t) * np.maximum(1.0 - x * x, 0.0) ** s

    def forcing(t, x):
        inside = np.abs(x) < 1.0
        return np.where(inside, -exact(t, x) + math.exp(-t), 0.0)

    return ManufacturedSolution(
        name="example2",
        s=s,
        exact=exact,
        forcing=forcing,
        support=(-1.0, 1.0),
    )


def gaussian_profile():
    """Smooth rapidly decaying profile used by the consistency study."""

    def U(x):
        return math.exp(-x * x) if np.isscalar(x) else np.exp(-x * x)

    return U


def gaussian_frac_laplacian(s):
    """(-Laplacian)^s of gaussian_profile in closed form, as a vectorized
    callable x -> values:
        (-Laplacian)^s e^{-x^2} = 4^s Gamma(1/2 + s) / sqrt(pi) 1F1(1/2 + s; 1/2; -x^2).
    """
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    c = 4.0 ** s * math.gamma(0.5 + s) / math.sqrt(math.pi)

    def op(x):
        return c * hyp1f1(0.5 + s, 0.5, -x * x)

    return op


def to_evolution_problem(m, mesh, alpha=1.0, t_horizon=1.0):
    """Assemble the initial-value problem for a manufactured solution.

    u0 is the restriction of the t = 0 profile; the forcing callable is
    passed through for per-step sampling.  Compactly supported examples
    require the mesh to match their support exactly (zero boundary).
    The forcing is built for alpha = 1: at alpha < 1, m.exact does not
    solve the returned problem, so errors against it are not
    discretization errors.
    """
    if m.support is not None:
        if mesh.a < m.support[0] - 1e-12 or mesh.b > m.support[1] + 1e-12:
            raise ValueError(
                f"{m.name} requires the mesh inside {list(m.support)}, got [{mesh.a}, {mesh.b}]"
            )
    u0 = GridFunction(mesh, m.exact(0.0, mesh.nodes))
    return EvolutionProblem(
        s=m.s,
        alpha=alpha,
        mesh=mesh,
        u0=u0,
        t_horizon=t_horizon,
        forcing=m.forcing,
    )


def semilinear_variant(m, mesh, alpha=1.0, t_horizon=1.0):
    """Semilinear twin of a manufactured problem with f(u) = -u^3.

    The cubic sink is folded into the forcing (adding exact^3) so the
    exact solution is unchanged while the solver must run Newton.
    """

    def forcing(t, x):
        return m.forcing(t, x) + m.exact(t, x) ** 3

    nl = Nonlinearity(f=lambda u: -(u ** 3), df=lambda u: -3.0 * u * u)
    return replace(to_evolution_problem(m, mesh, alpha=alpha, t_horizon=t_horizon),
                   forcing=forcing, nonlinearity=nl)
