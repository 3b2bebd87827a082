"""The benchmark workloads: inputs, timed library calls, output checks.

Each workload is a fixed parameter set taken from the paper's studies,
sized so that one cold process takes a few seconds and a run can take the
median of several.  The host this benchmark was tuned on slows a process
down by up to 2x, in phases from seconds to about a minute long.
``setup`` builds the inputs, ``run`` makes the timed library calls and
returns their raw outputs, and ``check`` compares those outputs with the
references in ``references.json`` after timing has stopped.  ``check``
returns one ``(name, ok, detail)`` outcome per counted operation.

Every library call goes through a module attribute (``study.run_study``,
``evolution.solve``, ``special.mittag_leffler``, ...) so that a traced run
can wrap it there; an untraced run leaves every attribute untouched.

The workloads are fixed parameter sets, so that their outputs can be
pinned; the seed selects nothing.  Permuting even independent operations
was tried and rejected: running alpha = 0.5 before alpha = 1 in
subordination-mild moves its wall time by about 20% and its peak memory by
about 7%.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from fracheat import evolution, problems, semigroup, special, study
from fracheat.grid import Mesh


@dataclass
class Op:
    """One timed operation: its name and its raw output or its error."""

    name: str
    output: object = None
    error: str | None = None


def _attempt(name, fn, *args):
    try:
        return Op(name, fn(*args))
    except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
        return Op(name, error=f"{type(exc).__name__}: {exc}")


def _rel_close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b)


# ---------------------------------------------------------------------------
# example1-sweep: the default `fracheat study`
# ---------------------------------------------------------------------------

class Example1Sweep:
    """The default `fracheat study` cut to the horizon T = 0.25: example 1,
    backward Euler, s in {0.4, 0.8}, the 5 default h-levels, dt = 1e-3,
    desk domain, one worker.  The counted operations are its 12 solve
    calls: 10 cells and one dt-floor probe per s.  At T = 1 one cold
    process takes about 25 s, too long to repeat within a run."""

    name = "example1-sweep"

    @staticmethod
    def setup():
        return study.StudyConfig(t_horizon=0.25, workers=1)

    @staticmethod
    def run(cfg):
        return [_attempt("study", study.run_study, cfg)]

    @staticmethod
    def _csv(result):
        buf = io.StringIO()
        study.emit_csv(result, buf)
        return buf.getvalue()

    @staticmethod
    def _errors(result):
        out = {}
        for r in sorted(result.records, key=lambda r: (r.s, -r.h)):
            out.setdefault(str(r.s), []).append(r.error)
        return out

    @classmethod
    def reference(cls, cfg, ops):
        result = ops[0].output
        text = cls._csv(result)
        return {
            "errors": cls._errors(result),
            "rates": {str(r.s): r.order for r in result.rates},
            "csv": text,
            "csv_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }

    @classmethod
    def check(cls, cfg, ops, ref):
        s_values = sorted(cfg.s_values)
        cells = [(s, h) for s in s_values for h in cfg.h_values]
        names = [f"cell s={s} h={h}" for s, h in cells] + [f"probe s={s}" for s in s_values]
        result, error = ops[0].output, ops[0].error
        if error is not None:
            return [(n, False, error) for n in names], {"csv_identical": False}
        bad = {}
        for s, h, msg in result.failures:
            bad[f"cell s={s} h={h}"] = msg
        errors = cls._errors(result)
        rates = {str(r.s): r.order for r in result.rates}
        for s in s_values:
            key, probe = str(s), f"probe s={s}"
            errs = errors.get(key, [])
            if len(errs) != len(cfg.h_values):
                bad.setdefault(probe, f"{len(errs)} errors, expected {len(cfg.h_values)}")
            for i, (h, e) in enumerate(zip(cfg.h_values, errs)):
                cell = f"cell s={s} h={h}"
                if i > 0 and not e < errs[i - 1]:
                    bad.setdefault(cell, f"error {e!r} does not decrease")
                want = ref["errors"][key][i]
                if not _rel_close(e, want, 1e-9):
                    bad.setdefault(cell, f"error {e!r} != reference {want!r}")
            # the fitted rate depends on the probe's dt floor
            if key not in rates:
                bad.setdefault(probe, "no fitted rate")
            elif not _rel_close(rates[key], ref["rates"][key], 1e-9):
                bad.setdefault(probe, f"rate {rates[key]!r} != reference {ref['rates'][key]!r}")
        text = cls._csv(result) if result.records else ""
        identical = hashlib.sha256(text.encode()).hexdigest() == ref["csv_sha256"]
        if not identical:
            # byte identity of the CSV is the ROADMAP rule: blame the rows that moved
            got, want = text.splitlines()[1:], ref["csv"].splitlines()[1:]
            for (s, h), g, w in zip(cells, got, want):
                if g != w:
                    bad.setdefault(f"cell s={s} h={h}", "CSV row differs")
            if len(got) != len(want):
                bad.setdefault(names[0], "CSV row count differs")
        outcomes = [(n, n not in bad, bad.get(n, "")) for n in names]
        return outcomes, {"csv_identical": identical}


# ---------------------------------------------------------------------------
# fractional-l1: semilinear L1 march, then the scalar L1 scheme vs E_alpha
# ---------------------------------------------------------------------------

_L1_DT = 2e-3
_SCALAR_ALPHAS = (0.3, 0.5, 0.8)
_SCALAR_T, _SCALAR_DT = 2.0, 1e-3
# Newton stops at newton_tol * max(1, sup|rhs|); sup|rhs| stays below 1e2
# on this problem, so a converged step has a residual below this bound
_L1_RESIDUAL_MAX = 1e-9


def _scalar_l1_gap(alpha):
    """Sup distance over all steps between the scalar L1 march and E_alpha."""
    times, ys = evolution.solve_scalar_l1(alpha, 1.0, _SCALAR_T, _SCALAR_DT)
    exact = np.array([special.mittag_leffler(alpha, -t ** alpha) for t in times])
    return float(np.max(np.abs(ys - exact)))


class FractionalL1:
    """L1 Caputo march of the semilinear example 1 (s = 0.6, alpha = 0.5,
    h = 0.125 on [-50, 50], T = 0.5, dt = 2e-3: 250 steps at N = 801), then
    solve_scalar_l1(alpha, 1, 2, 1e-3) against mittag_leffler at every step
    for alpha in {0.3, 0.5, 0.8}.  Four counted operations."""

    name = "fractional-l1"

    @staticmethod
    def setup():
        problem = problems.semilinear_variant(
            problems.example1(0.6), Mesh(0.125, -50.0, 50.0), alpha=0.5, t_horizon=0.5)
        scheme = evolution.SchemeConfig(stepper="l1_caputo", dt=_L1_DT)
        return problem, scheme, _SCALAR_ALPHAS

    @staticmethod
    def run(inputs):
        problem, scheme, alphas = inputs
        ops = [_attempt("l1 solve", evolution.solve, problem, scheme)]
        ops += [_attempt(f"scalar l1 alpha={a}", _scalar_l1_gap, a) for a in alphas]
        return ops

    @staticmethod
    def reference(inputs, ops):
        return {
            "final": ops[0].output.final.values.tolist(),
            "gaps": {op.name.rsplit("=", 1)[1]: op.output for op in ops[1:]},
        }

    @staticmethod
    def check(inputs, ops, ref):
        problem, scheme, _ = inputs
        outcomes = []
        solve_op = ops[0]
        ok, detail = solve_op.error is None, solve_op.error or ""
        if ok:
            traj = solve_op.output
            steps = [line.split(",") for line in traj.log]
            residuals = [float(row[4]) for row in steps]
            final, want = traj.final.values, np.array(ref["final"])
            gap = float(np.max(np.abs(final - want)))
            if len(steps) != scheme.n_steps(problem.t_horizon):
                ok, detail = False, f"{len(steps)} steps logged"
            elif not max(residuals) <= _L1_RESIDUAL_MAX:
                ok, detail = False, f"a step stopped at residual {max(residuals):.3e}"
            elif not gap <= 1e-8 * float(np.max(np.abs(want))):
                ok, detail = False, f"final state is {gap:.3e} from the reference"
        outcomes.append((solve_op.name, ok, detail))
        for op in ops[1:]:
            if op.error is not None:
                outcomes.append((op.name, False, op.error))
                continue
            want = ref["gaps"][op.name.rsplit("=", 1)[1]]
            ok = abs(op.output - want) <= 1e-6
            outcomes.append((op.name, ok, "" if ok else f"gap {op.output!r} != {want!r}"))
        return outcomes, {}


# ---------------------------------------------------------------------------
# subordination-mild: mild solution through the subordinated propagators
# ---------------------------------------------------------------------------

_MILD_T = 0.2
_MILD_ALPHAS = (0.5, 1.0)
_SCALAR_LAMBDAS = (0.5, 2.0, 8.0)


class SubordinationMild:
    """evaluate_mild at t = 0.2 of example 2 (s = 0.9, h = 0.1 on
    [-0.9, 0.9], T = 0.2) for alpha = 0.5 and then alpha = 1.  Two counted
    operations.  At s = 0.7 the subordinated kernel builds take about 15 s;
    s = 0.9 needs fewer spectral nodes and keeps a cold process near 7 s.
    The mild values are not pinned to reference digits: the reference
    itself is due to move from the whole lattice to the truncated
    operator, so the checks are structural."""

    name = "subordination-mild"

    @staticmethod
    def setup():
        manu = problems.example2(0.9)
        mesh = Mesh(0.1, -0.9, 0.9)
        return [(a, problems.to_evolution_problem(manu, mesh, alpha=a, t_horizon=_MILD_T))
                for a in _MILD_ALPHAS]

    @staticmethod
    def run(inputs):
        return [_attempt(f"mild alpha={a}", evolution.evaluate_mild, p, _MILD_T)
                for a, p in inputs]

    @staticmethod
    def reference(inputs, ops):
        return {}

    @staticmethod
    def check(inputs, ops, ref):
        outcomes = []
        for (alpha, problem), op in zip(inputs, ops):
            outcomes.append((op.name, *SubordinationMild._check_one(alpha, problem, op)))
        return outcomes, {}

    @staticmethod
    def _check_one(alpha, problem, op):
        if op.error is not None:
            return False, op.error
        mesh, s, t = problem.mesh, problem.s, _MILD_T
        # sup_t |F| is reached at t = 0 for example 2 (F = e^{-t} G(x)),
        # the grid of sample times includes it
        sup_f = max(float(np.max(np.abs(problem.forcing_values(tau))))
                    for tau in np.linspace(0.0, t, 21))
        bound = problem.u0.sup_norm() + t ** alpha / math.gamma(1.0 + alpha) * sup_f
        if not op.output.sup_norm() <= bound:
            return False, f"sup|u| = {op.output.sup_norm()!r} exceeds the contraction bound {bound!r}"
        if alpha == 1.0:
            kernel = semigroup.frac_semigroup_kernel(s, mesh.h, t, mesh.n_points)
        else:
            for lam in _SCALAR_LAMBDAS:
                z = -lam * t ** alpha
                got_s = semigroup.subordinate_scalar_S(alpha, lam, t)
                got_p = semigroup.subordinate_scalar_P(alpha, lam, t)
                want_s = special.mittag_leffler(alpha, z)
                want_p = t ** (alpha - 1.0) * special.mittag_leffler(alpha, z, alpha)
                if not (abs(got_s - want_s) <= 1e-8 and abs(got_p - want_p) <= 1e-8):
                    return False, (f"scalar identity off at lambda={lam}: S {got_s!r} vs "
                                   f"{want_s!r}, P {got_p!r} vs {want_p!r}")
            kernel = semigroup.subordinated_kernel(s, mesh.h, alpha, t, mesh.n_points)
        mass, low = kernel.mass(), float(np.min(kernel.w))
        if not (mass <= 1.0 + 1e-10 and low >= -1e-10):
            return False, f"S(t) kernel not sub-Markov: mass {mass!r}, min entry {low!r}"
        return True, ""


class Fractional:
    """The fractional-l1 part, then the subordination-mild part, in one
    process.  They share no cache.  They run as one workload so that, within
    a fixed total benchmarking time, each run has room for several
    processes."""

    name = "fractional"
    parts = (FractionalL1, SubordinationMild)

    @classmethod
    def setup(cls):
        return [part.setup() for part in cls.parts]

    @classmethod
    def run(cls, inputs):
        return [part.run(i) for part, i in zip(cls.parts, inputs)]

    @classmethod
    def reference(cls, inputs, ops):
        return {part.name: part.reference(i, o) for part, i, o in zip(cls.parts, inputs, ops)}

    @classmethod
    def check(cls, inputs, ops, ref):
        outcomes = []
        for part, i, o in zip(cls.parts, inputs, ops):
            outcomes += part.check(i, o, ref[part.name])[0]
        return outcomes, {}


WORKLOADS = {w.name: w for w in (Example1Sweep, Fractional)}
