"""One fresh benchmark process: set up a workload, run it once, check it.

Started by run.py, never imported.  The library keeps process-wide
lru_caches (wright_phi, mittag_leffler, the quadrature and the kernel
builders), so a command-line user pays them cold on every invocation;
a fresh process per run measures exactly that.

Prints one JSON object as its last line of output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before every import
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import fracheat

    if not Path(fracheat.__file__).parent.samefile(SRC / "fracheat"):
        sys.exit(f"fracheat imported from {fracheat.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup()
    report = {"setup_s": time.perf_counter() - T0}
    if args.mode == "setup":
        print(json.dumps(report))
        return

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    ops = workload.run(inputs)
    report["wall_s"] = time.perf_counter() - t0
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    report["untouched"] = fracheat.evolution.toeplitz_matvec is fracheat.kernel.toeplitz_matvec
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.metrics()
        tracer.write(ROOT / ".perfbench" / f"spans-{args.workload}.json")

    references = json.loads((HERE / "references.json").read_text())
    outcomes, extras = workload.check(inputs, ops, references[args.workload])
    report["ops"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in outcomes]
    report.update(extras)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
