"""Span recorder for traced benchmark runs.

``Tracer.install`` replaces the public functions at the module attributes
the library calls through with wrappers that record one span per call:
name, start, end and parent span.  Counters that belong to a layer are
computed in the same wrappers, from the arguments and return values only.
Spans stay in memory; ``Tracer.write`` writes them out once, at the end.
An untraced run never imports this module, so nothing is patched.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np
from scipy.fft import next_fast_len

import fracheat.evolution
import fracheat.semigroup
import fracheat.special
import fracheat.study

# span names whose self time and call count are reported
LAYERS = (
    "kernel.toeplitz_matvec",
    "kernel.kernel_weights",
    "evolution.solve",
    "evolution.solve_scalar_l1",
    "evolution.evaluate_mild",
    "special.mittag_leffler",
    "special.wright_phi",
    "semigroup.subordination_quadrature",
    "semigroup.subordinated_kernel",
    "semigroup.frac_semigroup_kernel",
    "problems.forcing",
    "study.run_study",
)
COUNTERS = (
    "kernel.toeplitz_matvec.fft_points",
    "evolution.steps",
    "evolution.newton_iters",
    "evolution.cg_iters",
    "special.mittag_leffler.misses",
    "special.wright_phi.misses",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._patched = []
        self._cache_base = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._distinct = defaultdict(set)
        self._quadratures = {}
        self.cell_s = []

    def _wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, name, observe=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, observe))

    def install(self):
        ev, sg, st, sp = (fracheat.evolution, fracheat.semigroup, fracheat.study,
                          fracheat.special)
        for owner in (ev, sg):
            self._patch(owner, "toeplitz_matvec", "kernel.toeplitz_matvec", self._fft_points)
        self._patch(ev, "kernel_weights", "kernel.kernel_weights")
        for owner in (ev, st):
            self._patch(owner, "solve", "evolution.solve", self._iterations)
        self._patch(ev, "solve_scalar_l1", "evolution.solve_scalar_l1")
        self._patch(ev, "evaluate_mild", "evolution.evaluate_mild")
        # the per-step forcing evaluation of every problem, however it was built
        self._patch(ev.EvolutionProblem, "forcing_values", "problems.forcing")
        self._patch(st, "run_study", "study.run_study", self._cells)
        for owner, attr in ((sp, "mittag_leffler"), (sg, "wright_phi")):
            self._cache_base[attr] = getattr(owner, attr).cache_info().misses
            self._patch(owner, attr, f"special.{attr}")
        self._patch(sg, "subordination_quadrature", "semigroup.subordination_quadrature",
                    self._nodes)
        for attr in ("subordinated_kernel", "frac_semigroup_kernel"):
            self._patch(sg, attr, f"semigroup.{attr}", self._distinct_args(attr))

    def uninstall(self):
        """Restore every attribute and take the cache-miss deltas."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
            if attr in self._cache_base:
                misses = original.cache_info().misses - self._cache_base[attr]
                self.counts[f"special.{attr}.misses"] = misses
        self._patched.clear()

    # -- counters observed at the wrapped boundaries -----------------------

    def _fft_points(self, args, kwargs, out):
        kernel, values = args[0], args[1]
        m = len(values)
        self.counts["kernel.toeplitz_matvec.fft_points"] += next_fast_len(
            2 * kernel.half_width + m)

    def _iterations(self, args, kwargs, out):
        # Trajectory.log rows read step,t,newton_iters,cg_iters,residual
        for line in out.log:
            _, _, newton, cg, _ = line.split(",")
            self.counts["evolution.steps"] += 1
            self.counts["evolution.newton_iters"] += int(newton)
            self.counts["evolution.cg_iters"] += int(cg)

    def _cells(self, args, kwargs, out):
        self.cell_s.extend(r.wall_ms / 1e3 for r in out.records)

    def _nodes(self, args, kwargs, out):
        self._quadratures[id(out)] = len(out.nodes)

    def _distinct_args(self, attr):
        def observe(args, kwargs, out):
            self._distinct[attr].add(repr((args, sorted(kwargs.items()))))
        return observe

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer calls and self time, plus the counters, by metric name."""
        duration = [end - start for _, start, end, _ in self.spans]
        self_s = list(duration)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                self_s[parent] -= duration[i]
        out = {f"{name}.{k}": 0 for name in LAYERS for k in ("calls", "self_s")}
        for (name, _, _, _), own in zip(self.spans, self_s):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
        out.update(self.counts)
        steps = out["evolution.steps"]
        out["evolution.cg_iters_per_step"] = out["evolution.cg_iters"] / steps if steps else 0.0
        out["semigroup.subordination_quadrature.nodes"] = sum(self._quadratures.values())
        for attr in ("subordinated_kernel", "frac_semigroup_kernel"):
            out[f"semigroup.{attr}.distinct"] = len(self._distinct[attr])
        cells = sorted(self.cell_s)
        out["study.cells"] = len(cells)
        out["study.cell_s_p50"] = float(np.median(cells)) if cells else 0.0
        out["study.cell_s_max"] = cells[-1] if cells else 0.0
        return out

    def write(self, path):
        """Write every span once, as a JSON list of [name, start, end, parent]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))
