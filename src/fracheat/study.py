"""Convergence-study harness: h-sweeps of the manufactured examples,
consistency sweeps of the discrete operator against the closed form of
the Gaussian's fractional Laplacian, rate fitting, and deterministic CSV
reports.

Both studies run their (s, h) cells, and the h-sweep its dt-floor
probes, through one sweep and return a StudyResult; each cell is a
module-level function of (s, h), _run_cell or _consistency_cell.
emit_csv writes its report to a text buffer; opening a file for it is
the caller's job (the CLI's --out).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .evolution import SchemeConfig, _check_stepper_alpha, solve
from .grid import Mesh
from .kernel import kernel_weights, toeplitz_matvec
from .problems import (
    example1,
    example2,
    gaussian_frac_laplacian,
    gaussian_profile,
    to_evolution_problem,
)

__all__ = [
    "StudyConfig",
    "ErrorRecord",
    "RateEstimate",
    "StudyResult",
    "DESK_SCALE",
    "PAPER_SCALE",
    "run_study",
    "run_consistency_study",
    "fit_rates",
    "emit_csv",
]

# default Example 1 configurations: a reduced mesh-size range keeps the
# sweep tractable while the domain margin keeps the truncation floor
# below the finest-level spatial error (the slowly decaying profile
# needs a generous margin at small s)
DESK_SCALE = {"domain": (-800.0, 800.0), "window": (-50.0, 50.0)}
PAPER_SCALE = {"domain": (-1000.0, 1000.0), "window": (-100.0, 100.0)}

_DEFAULT_H = (6.6667, 3.3333, 1.6667, 0.8333, 0.4167)

_PROBLEMS = {"example1": example1, "example2": example2}


def _check_sweep(s_values, h_values, domain, window):
    """Refuse a sweep that would measure nothing, whose report would repeat
    a cell, that has an s outside (0, 1), a mesh size h <= 0, a non-finite
    h, domain or window, or whose window reaches beyond the domain (and so
    would be measured only in part)."""
    if not s_values or not h_values:
        raise ValueError("s_values and h_values must not be empty")
    if len(set(s_values)) != len(s_values):
        raise ValueError("s_values must not repeat")
    if not all(0.0 < s < 1.0 for s in s_values):
        raise ValueError(f"s_values must lie in (0, 1), got {s_values}")
    if len(set(h_values)) != len(h_values):
        raise ValueError("h_values must not repeat")
    if not all(0.0 < h < math.inf for h in h_values):
        raise ValueError("h_values must be positive and finite")
    if not np.all(np.isfinite((*domain, *window))):
        raise ValueError(f"domain and window must be finite, got {domain} and {window}")
    if not (domain[0] <= window[0] < window[1] <= domain[1]):
        raise ValueError("window must be contained in the domain")


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one h-sweep study.

    Every setting that does not depend on the cell is checked here, so a
    refused sweep raises ValueError before any cell runs; only a problem's
    own refusal of an s in (0, 1), such as example 1's s = 1/2, is left to
    its cell.  h_values may come in any order: cells run coarsest h first.
    """

    problem: str = "example1"
    s_values: tuple = (0.4, 0.8)
    alpha: float = 1.0
    h_values: tuple = _DEFAULT_H
    dt: float = 1e-3
    domain: tuple = DESK_SCALE["domain"]
    window: tuple = DESK_SCALE["window"]
    t_horizon: float = 1.0
    stepper: str = "backward_euler"
    workers: int = 1

    def __post_init__(self):
        _check_sweep(self.s_values, self.h_values, self.domain, self.window)
        if not 0.0 < self.t_horizon < math.inf:
            raise ValueError(f"t_horizon must be positive and finite, got {self.t_horizon}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.problem not in _PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; expected one of {list(_PROBLEMS)}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        scheme = self.scheme()  # refuses an unknown stepper and dt <= 0
        if scheme.dt is not None:
            scheme.n_steps(self.t_horizon)
        _check_stepper_alpha(self.stepper, self.alpha)

    def scheme(self):
        """The SchemeConfig of every cell: mild_reference has no time step,
        so it gets no dt."""
        dt = None if self.stepper == "mild_reference" else self.dt
        return SchemeConfig(stepper=self.stepper, dt=dt)


@dataclass(frozen=True)
class ErrorRecord:
    """One cell of a study: the sup-in-time sup-norm error at (s, h)."""

    problem: str
    s: float
    alpha: float
    h: float
    dt: float
    error: float
    wall_ms: float = 0.0

    def __post_init__(self):
        if not self.error >= 0.0:
            raise ValueError(f"error must be non-negative, got {self.error}")


@dataclass(frozen=True)
class RateEstimate:
    """Fitted convergence order for one s: slope of log error vs log h."""

    s: float
    order: float
    residual: float
    n_used: int


@dataclass
class StudyResult:
    records: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    failures: list = field(default_factory=list)


_SNAP_TOL = 1e-9


def _snapped_mesh(h, a, b):
    """Mesh of the lattice nodes jh in [a, b]: the endpoints snapped
    inward to multiples of h, an end within _SNAP_TOL h of a node counting
    as that node (so -0.6 / 0.2 = -2.9999999999999996 snaps to -3)."""
    return Mesh(h=h, a=math.ceil(a / h - _SNAP_TOL) * h, b=math.floor(b / h + _SNAP_TOL) * h)


def _run_cell(cfg, s, h):
    manu = _PROBLEMS[cfg.problem](s)
    # a compactly supported solution vanishes on and beyond the support
    # boundary, so its unknowns are the lattice nodes strictly inside the
    # support; the margin is wider than _snapped_mesh's rounding tolerance,
    # so a node within rounding of the boundary counts as on it
    lo, hi = manu.support or cfg.domain
    margin = 0.0 if manu.support is None else 2.0 * _SNAP_TOL * h
    mesh = _snapped_mesh(h, lo + margin, hi - margin)
    problem = to_evolution_problem(manu, mesh, alpha=cfg.alpha, t_horizon=cfg.t_horizon)
    scheme = cfg.scheme()
    traj = solve(problem, scheme, exact=manu.exact, window=cfg.window)
    # mild_reference rows carry dt = 0
    return ErrorRecord(
        problem=cfg.problem, s=s, alpha=cfg.alpha, h=h, dt=scheme.dt or 0.0,
        error=traj.sup_error,
    )


def _sweep(cells, measure, workers=1):
    """StudyResult of measure(s, h) -> ErrorRecord over the cells, each
    record stamped with its cell's wall time.  A cell that raises becomes
    the failure (s, h, "Type: message") and the sweep goes on.  Cells run
    on a thread pool when workers > 1; records come back in canonical
    order (s ascending, h descending), failures in cell order.
    """
    def attempt(cell):
        s, h = cell
        t0 = time.perf_counter()
        try:
            rec = measure(s, h)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            return None, (s, h, f"{type(exc).__name__}: {exc}")
        return replace(rec, wall_ms=(time.perf_counter() - t0) * 1e3), None

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, cells))
    else:
        outcomes = list(map(attempt, cells))
    return StudyResult(
        records=sorted((rec for rec, _ in outcomes if rec is not None), key=lambda r: (r.s, -r.h)),
        failures=[failure for _, failure in outcomes if failure is not None],
    )


def run_study(cfg):
    """Run the h-sweep of a manufactured problem, one isolated cell per
    (s, h) on cfg.workers threads, and fit rates per s above the dt floor.
    mild_reference cells run with no time step; their records carry dt = 0.
    """
    cells = [(s, h) for s in sorted(cfg.s_values) for h in sorted(cfg.h_values, reverse=True)]
    result = _sweep(cells, partial(_run_cell, cfg), cfg.workers)
    result.rates = fit_rates(result.records, dt_floor=_dt_floor_probe(cfg, result.records))
    return result


def _dt_floor_probe(cfg, records):
    """Estimate the time-discretization error floor per s by a
    dt-halving rerun at the finest succeeding h, one probe cell per s
    through _sweep.

    For a first-order stepper the dt error is about twice the change
    under halving.  Returns a dict s -> floor estimate; an s with fewer
    than two records, or whose probe fails, gets none.  Empty for
    mild_reference: it has no time step, so its floor is exactly 0.
    """
    if cfg.stepper == "mild_reference":
        return {}
    by_s = {}
    for r in records:
        by_s.setdefault(r.s, []).append(r)
    finest = {s: min(mine, key=lambda r: r.h) for s, mine in by_s.items() if len(mine) >= 2}
    probes = _sweep([(s, r.h) for s, r in finest.items()],
                    partial(_run_cell, replace(cfg, dt=cfg.dt / 2.0)), cfg.workers)
    return {r.s: 2.0 * abs(finest[r.s].error - r.error) for r in probes.records}


def fit_rates(records, dt_floor=None):
    """Least-squares slope of log error vs log h per s.

    Records whose error sits within 10x of the dt floor are excluded
    (their spatial rate is masked by time discretization); a fit needs
    at least 3 surviving records.
    """
    rates = []
    for s in sorted({r.s for r in records}):
        mine = sorted((r for r in records if r.s == s), key=lambda r: -r.h)
        floor = (dt_floor or {}).get(s, 0.0)
        usable = [r for r in mine if r.error > 10.0 * floor and r.error > 0.0]
        if len(usable) < 3:
            continue
        lh = np.log([r.h for r in usable])
        le = np.log([r.error for r in usable])
        slope, intercept = np.polyfit(lh, le, 1)
        resid = float(np.sqrt(np.mean((le - (slope * lh + intercept)) ** 2)))
        rates.append(RateEstimate(s=s, order=float(slope), residual=resid, n_used=len(usable)))
    return rates


def _consistency_cell(domain, window, s, h):
    """ErrorRecord of the sup gap, over the nodes in the window of the mesh
    snapped into the domain, between the lattice operator applied to the
    sampled Gaussian (zero beyond the mesh) and its closed form.  A window
    holding no node raises ValueError before the profile is sampled."""
    mesh = _snapped_mesh(h, *domain)
    sl = mesh.window_slice(*window)
    xs = mesh.nodes
    disc = toeplitz_matvec(kernel_weights(float(s), mesh.h, mesh.n_points), gaussian_profile(xs))
    err = float(np.max(np.abs(disc[sl] - gaussian_frac_laplacian(s)(xs[sl]))))
    return ErrorRecord(problem="gaussian", s=float(s), alpha=0.0, h=float(h), dt=0.0, error=err)


def run_consistency_study(s_values, h_values, window=(-2.0, 2.0), domain=(-20.0, 20.0)):
    """Sweep the operator-consistency error of the Gaussian profile over (s, h)
    against its closed-form fractional Laplacian (gaussian_frac_laplacian).

    Each mesh is measured over its own nodes in the window, and h_values
    may come in any order, as in run_study.  Empty or repeated s or h
    values, an s outside (0, 1), an h <= 0, a non-finite h, domain or
    window and a window reaching beyond the domain raise ValueError before
    any cell runs.
    """
    _check_sweep(s_values, h_values, domain, window)
    cells = [(s, h) for s in sorted(s_values) for h in sorted(h_values, reverse=True)]
    result = _sweep(cells, partial(_consistency_cell, domain, window))
    result.rates = fit_rates(result.records)
    return result


def emit_csv(result, buf, include_timings=False):
    """Write study records as CSV to the text buffer buf.

    Header ``problem,s,alpha,h,dt,error,rate,wall_ms``; one row per
    record in canonical order (s ascending, h descending); reals carry
    17 significant digits.  The rate column holds the pairwise order
    between consecutive h-levels (empty on the first level of each s).
    Wall times are zeroed unless include_timings is set, keeping reruns
    byte-identical.  Raises ValueError when there are no records.
    """
    records = sorted(result.records, key=lambda r: (r.problem, r.s, -r.h))
    if not records:
        raise ValueError("no records to write")
    buf.write("problem,s,alpha,h,dt,error,rate,wall_ms\n")
    prev = None
    for r in records:
        if prev is not None and prev.problem == r.problem and prev.s == r.s:
            rate = math.log(prev.error / r.error) / math.log(prev.h / r.h) \
                if prev.error > 0.0 and r.error > 0.0 else float("nan")
            rate_txt = f"{rate:.17g}"
        else:
            rate_txt = ""
        wall = r.wall_ms if include_timings else 0.0
        buf.write(
            f"{r.problem},{r.s:.17g},{r.alpha:.17g},{r.h:.17g},{r.dt:.17g},"
            f"{r.error:.17g},{rate_txt},{wall:.17g}\n"
        )
        prev = r
