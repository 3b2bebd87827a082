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
the subcommand has no flag for is rejected.  A config file cannot name
another one.  The h list may come in any order.  The CSV report goes to
--out (default stdout) unless no cell succeeded; aborted cells and fitted
rates go to stderr.  Exit code is 0 on success, 1 if any study cell
aborted and 2 on a usage error, which writes no file.  Usage errors are
checked before any cell runs: an unreadable or malformed config file, an
--out that is a directory or whose directory does not exist, and any
setting that StudyConfig or run_consistency_study refuses, reported with
the library's ValueError message.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

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
    comment, blank lines are skipped.  A `config` key, or any abbreviation
    argparse would take for it, is refused: a file cannot name another."""
    out = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value, got {raw.rstrip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key and "config".startswith(key):
                raise ValueError(f"{path}:{ln}: a config file cannot name another one, "
                                 f"got {raw.rstrip()!r}")
            out.append(f"--{key}={val}")
    return out


def _build_parser():
    shared = argparse.ArgumentParser(add_help=False)  # the flags both sweeps take
    shared.add_argument("--config", help="key = value config file (flags override it)")
    shared.add_argument("--s", type=_parse_floats, dest="s_values", metavar="LIST")
    shared.add_argument("--h", type=_parse_floats, dest="h_values", metavar="LIST")
    shared.add_argument("--domain", type=_parse_pair, metavar="A,B")
    shared.add_argument("--window", type=_parse_pair, metavar="C,D")
    shared.add_argument("--out", help="CSV output path (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="fracheat",
        description="Convergence studies for the discrete fractional heat equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("study", parents=[shared],
                        help="h-sweep convergence study of a manufactured example")
    st.add_argument("--problem", choices=tuple(_PROBLEMS))
    st.add_argument("--alpha", type=float)
    st.add_argument("--dt", type=float)
    st.add_argument("--T", type=float, dest="t_horizon")
    st.add_argument("--stepper", choices=_STEPPERS)
    st.add_argument("--paper-scale", nargs="?", const=True, default=False, type=_parse_bool,
                    metavar="BOOL", help="use the full-size domain and window")
    st.add_argument("--workers", type=int)
    st.add_argument("--timings", nargs="?", const=True, default=False, type=_parse_bool,
                    metavar="BOOL",
                    help="record real wall times in the CSV (breaks byte-determinism)")

    sub.add_parser("consistency", parents=[shared],
                   help="operator-consistency sweep against the Gaussian's closed form")
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
        try:
            flags = _config_flags(args.config)
        except (OSError, ValueError) as exc:
            parser.error(f"--config: {exc}")
        # argv[0] is the subcommand; the file's flags go first so argv's win
        args = parser.parse_args(argv[:1] + flags + argv[1:])
    opts = {key: val for key, val in vars(args).items()
            if val is not None and key not in ("command", "config")}
    out, timings = opts.pop("out", None), opts.pop("timings", False)
    if out is not None and Path(out).is_dir():
        parser.error(f"--out: {out} is a directory")
    if out is not None and not Path(out).parent.is_dir():
        parser.error(f"--out: {Path(out).parent} is not a directory")

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
        parser.error("consistency: --s and --h are required")
    try:
        result = run_consistency_study(**opts)
    except ValueError as exc:
        parser.error(f"consistency: {exc}")
    return _report(result, out)


if __name__ == "__main__":
    sys.exit(main())
