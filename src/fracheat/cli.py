"""Command-line entry point.

Two subcommands:

    fracheat study --problem example1 --s 0.4,0.8 --out study.csv ...
    fracheat consistency --s 0.3,0.6 --h 0.4,0.2,0.1 ...

`study` sweeps a manufactured example over (s, h); `consistency` sweeps
the gap between the discrete operator and the closed-form fractional
Laplacian of a Gaussian.

Every flag can also come from a `key = value` config file given with
--config.  Each line becomes the flag `--key=value` (so `s = 0.4,0.8`,
`T = 0.5`, `paper-scale = true`), parsed by the subcommand's own parser
ahead of the command line: explicit flags override the file, and a key
the subcommand has no flag for is rejected.  The CSV report goes to --out
(default stdout) unless no cell succeeded; aborted cells and fitted rates
go to stderr.  Exit code is 0 on success, 1 if any study cell aborted and
2 on a usage error, which includes settings the study refuses (an empty
or repeated s or h list, an h <= 0, a non-finite h, domain or window, a
window outside the domain, dt <= 0, a non-finite dt or T, a T / dt that
is not finite or is less than one step, an alpha outside (0, 1] or one
the stepper cannot take).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .evolution import _STEPPERS
from .study import _PROBLEMS, PAPER_SCALE, StudyConfig, emit_csv, run_consistency_study, run_study


def _parse_floats(text):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_pair(text):
    vals = _parse_floats(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated reals, got {text!r}")
    return vals


def _parse_bool(text):
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _config_flags(path):
    """Turn `key = value` lines into `--key=value` flags; '#' starts a
    comment, blank lines are skipped."""
    out = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value, got {raw.rstrip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out.append(f"--{key}={val}")
    return out


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fracheat",
        description="Convergence studies for the discrete fractional heat equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("study", help="h-sweep convergence study of a manufactured example")
    st.add_argument("--config", help="key = value config file (flags override it)")
    st.add_argument("--problem", choices=tuple(_PROBLEMS))
    st.add_argument("--s", type=_parse_floats, dest="s_values", metavar="LIST")
    st.add_argument("--alpha", type=float)
    st.add_argument("--h", type=_parse_floats, dest="h_values", metavar="LIST")
    st.add_argument("--dt", type=float)
    st.add_argument("--domain", type=_parse_pair, metavar="A,B")
    st.add_argument("--window", type=_parse_pair, metavar="C,D")
    st.add_argument("--T", type=float, dest="t_horizon")
    st.add_argument("--stepper", choices=_STEPPERS)
    st.add_argument("--out", help="CSV output path (default: stdout)")
    st.add_argument("--paper-scale", nargs="?", const=True, default=False, type=_parse_bool,
                    metavar="BOOL", help="use the full-size domain and window")
    st.add_argument("--workers", type=int)
    st.add_argument("--timings", nargs="?", const=True, default=False, type=_parse_bool,
                    metavar="BOOL",
                    help="record real wall times in the CSV (breaks byte-determinism)")

    co = sub.add_parser("consistency",
                        help="operator-consistency sweep against the Gaussian's closed form")
    co.add_argument("--config", help="key = value config file (flags override it)")
    co.add_argument("--s", type=_parse_floats, dest="s_values", metavar="LIST")
    co.add_argument("--h", type=_parse_floats, dest="h_values", metavar="LIST")
    co.add_argument("--domain", type=_parse_pair, metavar="A,B")
    co.add_argument("--window", type=_parse_pair, metavar="C,D")
    co.add_argument("--out", help="CSV output path (default: stdout)")
    return parser


def _report(result, out, include_timings=False):
    for s, h, reason in result.failures:
        print(f"cell (s={s}, h={h}) aborted: {reason}", file=sys.stderr)
    for rate in result.rates:
        print(
            f"s={rate.s}: fitted order {rate.order:.4f} "
            f"(residual {rate.residual:.2e}, {rate.n_used} points)",
            file=sys.stderr,
        )
    if result.records:  # so no file is made when every cell failed
        with nullcontext(sys.stdout) if out is None else open(out, "w") as buf:
            emit_csv(result, buf, include_timings=include_timings)
    return 1 if result.failures else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # argv[0] is the subcommand; the file's flags go first so argv's win
        args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
    opts = {key: val for key, val in vars(args).items()
            if val is not None and key not in ("command", "config")}
    out, timings = opts.pop("out", None), opts.pop("timings", False)

    if args.command == "study":
        if opts.pop("paper_scale"):
            opts.setdefault("domain", PAPER_SCALE["domain"])
            opts.setdefault("window", PAPER_SCALE["window"])
        try:
            cfg = StudyConfig(**opts)
        except ValueError as exc:
            parser.error(f"study: {exc}")
        return _report(run_study(cfg), out, timings)

    if "s_values" not in opts or "h_values" not in opts:
        print("consistency requires --s and --h", file=sys.stderr)
        return 2
    try:
        result = run_consistency_study(**opts)
    except ValueError as exc:
        parser.error(f"consistency: {exc}")
    return _report(result, out)


if __name__ == "__main__":
    sys.exit(main())
