"""Convergence-study harness: h-sweeps of the manufactured examples,
consistency sweeps of the discrete operator against the closed form of
the Gaussian's fractional Laplacian, rate fitting, and deterministic CSV
reports.

Both studies run their (s, h) cells through one sweep and return a
StudyResult.  emit_csv writes its report to a text buffer; opening a
file for it is the caller's job (the CLI's --out).
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
from .kernel import consistency_error
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


def _check_sweep(s_values, h_values, domain, window):
    """Refuse a sweep that would measure nothing, whose report would repeat
    a cell, or whose window reaches beyond the domain (and so would be
    measured only in part)."""
    if not s_values or not h_values:
        raise ValueError("s_values and h_values must not be empty")
    if len(set(s_values)) != len(s_values):
        raise ValueError("s_values must not repeat")
    if len(set(h_values)) != len(h_values):
        raise ValueError("h_values must not repeat")
    if not (domain[0] <= window[0] < window[1] <= domain[1]):
        raise ValueError("window must be contained in the domain")


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one h-sweep study.

    Every setting that does not depend on the cell is checked here, so a
    refused sweep raises ValueError before any cell runs; s is checked by
    each cell's problem.
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
        if not all(x > y for x, y in zip(self.h_values, self.h_values[1:])):
            raise ValueError("h_values must be strictly decreasing")
        _check_sweep(self.s_values, self.h_values, self.domain, self.window)
        if not self.t_horizon > 0.0:
            raise ValueError("t_horizon must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        _problem_factory(self.problem)
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
        if self.error < 0.0:
            raise ValueError("error must be non-negative")


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


def _snapped_mesh(h, a, b):
    """Mesh on [a, b] with the endpoints snapped to multiples of h.

    Snapping never widens the interval, so the measurement window stays
    inside the mesh.
    """
    j_lo = -int(math.floor(-a / h))
    j_hi = int(math.floor(b / h))
    return Mesh(h=h, a=j_lo * h, b=j_hi * h)


def _problem_factory(name):
    if name == "example1":
        return example1
    if name == "example2":
        return example2
    raise ValueError(f"unknown problem {name!r} (expected example1 or example2)")


def _run_cell(cfg, s, h):
    manu = _problem_factory(cfg.problem)(s)
    if manu.support is not None:
        # the solution vanishes on and beyond the support boundary, so the
        # boundary nodes belong to the (zero) exterior, not the unknowns
        lo, hi = manu.support
        mesh = Mesh(h=h, a=lo + h, b=hi - h)
    else:
        mesh = _snapped_mesh(h, *cfg.domain)
    window = (max(cfg.window[0], mesh.a), min(cfg.window[1], mesh.b))
    problem = to_evolution_problem(manu, mesh, alpha=cfg.alpha, t_horizon=cfg.t_horizon)
    scheme = cfg.scheme()
    traj = solve(problem, scheme, exact=manu.exact, window=window)
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
    cells = [(s, h) for s in sorted(cfg.s_values) for h in cfg.h_values]
    result = _sweep(cells, partial(_run_cell, cfg), cfg.workers)
    result.rates = fit_rates(result.records, dt_floor=_dt_floor_probe(cfg, result.records))
    return result


def _dt_floor_probe(cfg, records):
    """Estimate the time-discretization error floor per s by a
    dt-halving rerun at the finest succeeding h.

    For a first-order stepper the dt error is about twice the change
    under halving.  Returns a dict s -> floor estimate, empty for
    mild_reference: it has no time step, so its floor is exactly 0.
    """
    floors = {}
    if cfg.stepper == "mild_reference":
        return floors
    for s in sorted(cfg.s_values):
        mine = [r for r in records if r.s == s]
        if len(mine) < 2:
            continue
        finest = min(mine, key=lambda r: r.h)
        try:
            half = _run_cell(replace(cfg, dt=cfg.dt / 2.0), s, finest.h)
        except Exception:  # noqa: BLE001 - probe failure just disables exclusion
            continue
        floors[s] = 2.0 * abs(finest.error - half.error)
    return floors


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


def run_consistency_study(s_values, h_values, window=(-2.0, 2.0), domain=(-20.0, 20.0)):
    """Sweep the operator-consistency error of the Gaussian profile over (s, h)
    against its closed-form fractional Laplacian (gaussian_frac_laplacian).

    Every mesh is measured at the coarsest mesh's window nodes, which
    exact h-halving keeps on every finer mesh.  Empty or repeated s or h
    values and a window reaching beyond the domain raise ValueError
    before any cell runs.
    """
    _check_sweep(s_values, h_values, domain, window)
    U = gaussian_profile()
    coarse = _snapped_mesh(max(h_values), *domain)
    sl = coarse.window_slice(*window)
    points = coarse.nodes[sl.start:sl.stop]

    def measure(s, h):
        err = consistency_error(U, float(s), _snapped_mesh(h, *domain), points=points,
                                exact_op=gaussian_frac_laplacian(s))
        return ErrorRecord(problem="gaussian", s=float(s), alpha=0.0, h=float(h), dt=0.0,
                           error=err)

    cells = [(s, h) for s in sorted(s_values) for h in sorted(h_values, reverse=True)]
    result = _sweep(cells, measure)
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
