"""Demo 4: manufactured-solution convergence studies.

Runs a reduced h-sweep of both manufactured examples through the study
harness and prints the error tables with pairwise observed orders.  The
same sweeps are available from the command line:

    fracheat study --problem example2 --s 0.1,0.5 \
        --h 0.1,0.05,0.025 --dt 1e-3 --domain=-1,1 --window=-0.5,0.5

Run:  python3 demos/04_convergence_study.py   (about a minute)
"""

import csv
import io

from fracheat import StudyConfig, emit_csv, run_study


def show(title, cfg):
    """Run the sweep, print its error table with the pairwise orders of
    the CSV report's rate column, and return the report."""
    print(title)
    res = run_study(cfg)
    for s, h, reason in res.failures:
        print(f"  cell (s={s}, h={h}) failed: {reason}")
    buf = io.StringIO()
    if res.records:
        emit_csv(res, buf)
    for row in csv.DictReader(io.StringIO(buf.getvalue())):
        tail = f"order {float(row['rate']):.2f}" if row["rate"] else ""
        print(f"  s={float(row['s'])}  h={float(row['h']):<8g} "
              f"error {float(row['error']):.4e}  {tail}")
    for rate in res.rates:
        print(f"  fitted order for s={rate.s}: {rate.order:.3f} "
              f"(residual {rate.residual:.1e}, {rate.n_used} levels)")
    print()
    return buf.getvalue()


def main():
    # Example 2: compactly supported profile with |x|^s boundary kinks;
    # limited regularity makes the error decay visibly and measurably
    report = show(
        "Example 2 on (-1,1), nonsmooth boundary behavior:",
        StudyConfig(problem="example2", s_values=(0.1, 0.5),
                    h_values=(0.1, 0.05, 0.025), dt=2e-3,
                    domain=(-1.0, 1.0), window=(-0.5, 0.5)),
    )

    # Example 1: smooth decaying profile on a truncated line; three of the
    # default five desk-scale levels keep the demo quick
    show(
        "Example 1 (smooth, whole line, desk-scale domain):",
        StudyConfig(problem="example1", s_values=(0.4,),
                    h_values=(6.6667, 3.3333, 1.6667), dt=2e-3),
    )

    print("CSV report of the Example 2 sweep (deterministic, rerun-identical):")
    print(report)


if __name__ == "__main__":
    main()
