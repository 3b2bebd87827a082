"""fracheat benchmark runner.

    python3 perfbench/run.py --workload example1-sweep --seed 1 --seconds 50 --trace 0

Each measurement is a fresh single-threaded Python process (child.py)
with BLAS threads pinned to 1.  Processes run one after another, and
another one starts only while it is expected to end within ``--seconds``
(there is always at least one).  Extra set-up-only processes bring the
set-up samples to SETUP_SAMPLES.  Every metric is a median over the
processes of the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain and traced processes and prints the per-layer metrics of the traced
ones (the counts are identical in every process); ``trace.overhead_s``
is the traced minus the plain wall time.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the failed-operation ratio, and the environment.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("example1-sweep", "fractional")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "kernel.toeplitz_matvec.calls": "count",
    "kernel.toeplitz_matvec.self_s": "s",
    "kernel.toeplitz_matvec.fft_points": "count",
    "kernel.kernel_weights.self_s": "s",
    "evolution.solve.self_s": "s",
    "evolution.steps": "count",
    "evolution.newton_iters": "count",
    "evolution.cg_iters": "count",
    "evolution.cg_iters_per_step": "count",
    "evolution.solve_scalar_l1.self_s": "s",
    "special.mittag_leffler.calls": "count",
    "special.mittag_leffler.misses": "count",
    "special.mittag_leffler.self_s": "s",
    "special.wright_phi.calls": "count",
    "special.wright_phi.misses": "count",
    "special.wright_phi.self_s": "s",
    "semigroup.subordination_quadrature.self_s": "s",
    "semigroup.subordination_quadrature.nodes": "count",
    "semigroup.subordinated_kernel.calls": "count",
    "semigroup.subordinated_kernel.distinct": "count",
    "semigroup.subordinated_kernel.self_s": "s",
    "semigroup.frac_semigroup_kernel.calls": "count",
    "semigroup.frac_semigroup_kernel.distinct": "count",
    "semigroup.frac_semigroup_kernel.self_s": "s",
    "problems.forcing.calls": "count",
    "problems.forcing.self_s": "s",
    "study.cells": "count",
    "study.cell_s_p50": "s",
    "study.cell_s_max": "s",
    "trace.overhead_s": "s",
}


class ChildError(RuntimeError):
    pass


def run_child(workload, mode):
    """Run one fresh process and return its JSON report."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--mode", mode]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "child_env": THREAD_ENV,
    }


def measure(workload, seconds, traced):
    """Run processes while the next one is expected to end within `seconds`."""
    modes = ("plain", "traced") if traced else ("plain",)
    reports = {mode: [] for mode in modes}
    start = time.perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            reports[mode].append(run_child(workload, mode))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    setups = [r["setup_s"] for r in reports["plain"]]
    while not traced and len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, "setup")["setup_s"])
    return reports, setups


def summarize(workload, seed, reports, setups, traced):
    measured = [r for rs in reports.values() for r in rs]
    ops = [op for r in measured for op in r["ops"]]
    failed = [op for op in ops if not op["ok"]]
    plain = reports["plain"]
    if traced:
        layers = [r["layers"] for r in reports["traced"]]
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in reports["traced"])
                                       - statistics.median(r["wall_s"] for r in plain))
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    print(f"workload {workload}, seed {seed}: {len(measured)} measured processes, "
          f"{len(setups)} set-up samples")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for mode, rs in reports.items():
        print(f"  {mode} wall_s per process: " + " ".join(f"{r['wall_s']:.4f}" for r in rs))
    print(f"  failed_ops_ratio = {len(failed)}/{len(ops)} = {len(failed) / len(ops):.6g}")
    if "csv_identical" in measured[0]:
        print(f"  csv_identical = {all(r['csv_identical'] for r in measured)}")
    print(f"  attribute untouched: plain {all(r['untouched'] for r in plain)}"
          + (f", traced {any(r['untouched'] for r in reports['traced'])}" if traced else ""))
    for op in failed:
        print(f"  FAILED {op['name']}: {op['detail']}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    # the workloads are fixed parameter sets: the seed only labels the run
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fracheat" / "__init__.py").is_file():
        sys.exit(f"no fracheat sources under {ROOT / 'src'}")
    try:
        reports, setups = measure(args.workload, args.seconds, bool(args.trace))
    except (ChildError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"benchmark process failed: {exc}")
    print("environment " + json.dumps(environment()))
    result = summarize(args.workload, args.seed, reports, setups, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
