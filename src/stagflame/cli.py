"""Command line front end: run, sweep, oracle, check."""

import argparse
import math
import os
import sys
from dataclasses import replace

from .errors import ConfigError, OracleError, StepFailure
from .harness import (
    ERROR_FIELDS,
    MODE_SCHEMES,
    case_pattern,
    initialize_case,
    load_config,
    run_case,
    run_sweep,
    sweep_report,
    sweep_text,
    write_oracle_csv,
    write_run_csvs,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STEP = 3
EXIT_ORACLE = 4


def _add_common(sub):
    sub.add_argument("config", help="path to a key = value config file")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config key")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stagflame",
        description="staggered finite-volume solver for reactive compressible flow",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p_run = subs.add_parser("run", help="run one case and report errors")
    _add_common(p_run)
    p_run.add_argument("--output-prefix", default=None,
                       help="write <prefix>_profile.csv and <prefix>_diag.csv")

    p_sweep = subs.add_parser("sweep", help="mesh-refinement study")
    _add_common(p_sweep)
    p_sweep.add_argument("--meshes", default="250,500,1000,2000",
                         help="comma-separated cell counts")
    p_sweep.add_argument("--schemes", default=None,
                         help="comma-separated face schemes (default: every "
                              "scheme the time mode runs)")
    p_sweep.add_argument("--output-prefix", default=None,
                         help="write <prefix>_sweep.csv")

    p_oracle = subs.add_parser("oracle", help="print the exact wave pattern")
    _add_common(p_oracle)
    p_oracle.add_argument("--csv", default=None,
                          help="also sample the solution to this CSV path")
    p_oracle.add_argument("--time", type=float, default=None,
                          help="sampling time for --csv (default t_end)")

    p_check = subs.add_parser("check", help="fast self-checks of the build")
    _add_common(p_check)
    return parser


def _output_path(option, value, suffix=""):
    """The path ``value + suffix`` that ``--option`` names, or None without
    it.  An empty value, and a path in a missing directory, are refused before
    the work; ``write_csv`` reports what fails only when the file is written."""
    if value is None:
        return None
    if not value:
        raise ConfigError(f"--{option} needs a path, got an empty one")
    path = value + suffix
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"cannot write {path}: no directory {folder}")
    return path


def _cmd_run(args):
    config = load_config(args.config, args.overrides)
    prefix = args.output_prefix
    _output_path("output-prefix", prefix, "_profile.csv")
    result = run_case(config)
    print(f"ran {result.n_steps} steps of {result.state.dt:.6e} s "
          f"to t = {result.t_final:.6f} s on {config.n_cells} cells")
    print(f"relative total-energy drift: {result.energy_drift_rel:.3e}")
    last = result.diagnostics[-1]
    print(f"final cfl {last['cfl']:.3f}, correction residual "
          f"{last['correction_residual']:.3e} "
          f"({last['correction_iterations']} iterations)")
    parts = ", ".join(f"{k} {result.errors[k]:.4e}" for k in ERROR_FIELDS)
    print(f"L1 errors vs exact solution: {parts}")
    if prefix:
        write_run_csvs(prefix, result)
        print(f"wrote {prefix}_profile.csv and {prefix}_diag.csv")
    return EXIT_OK


def _list_option(name, text, item):
    """The entries of the comma-separated option ``--name``, each converted
    by ``item``; a ConfigError when one does not convert or there are none."""
    try:
        values = [item(v.strip()) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        kind = "integers" if item is int else "names"
        raise ConfigError(f"--{name} needs comma-separated {kind}, got {text!r}")
    return values


def _cmd_sweep(args):
    config = load_config(args.config, args.overrides)
    meshes = _list_option("meshes", args.meshes, int)
    if args.schemes is None:
        schemes = list(MODE_SCHEMES[config.time_mode])
    else:
        schemes = _list_option("schemes", args.schemes, str)
    path = _output_path("output-prefix", args.output_prefix, "_sweep.csv")
    report = sweep_report(run_sweep(config, meshes, schemes))
    print(sweep_text(report))
    if path:
        write_sweep_csv(path, report)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_oracle(args):
    from .oracle import rh_residuals

    path = _output_path("csv", args.csv)
    if args.time is not None and path is None:
        raise ConfigError("--time needs --csv")
    if args.time is not None and not 0.0 < args.time < math.inf:
        raise ConfigError(f"--time must be positive and finite, got {args.time!r}")
    config = load_config(args.config, args.overrides)
    pattern = case_pattern(config)
    print("exact wave pattern (left to right):")
    print(f"  burnt:   p {pattern.p_burnt:.8e}  rho {pattern.rho_burnt:.8e}  "
          "u 0.00000000e+00")
    print(f"  shocked: p {pattern.p_shocked:.8e}  rho {pattern.rho_shocked:.8e}  "
          f"u {pattern.u_shocked:.8e}")
    print(f"  fresh:   p {pattern.p_fresh:.8e}  rho {pattern.rho_fresh:.8e}  "
          "u 0.00000000e+00")
    print(f"  flame speed {pattern.s_flame:.8e}, precursor speed "
          f"{pattern.s_shock:.8e}, heat release {pattern.heat_release:.8e}")
    worst = max(rh_residuals(pattern).values())
    print(f"  worst jump-relation residual: {worst:.3e}")
    if path:
        t = args.time if args.time is not None else config.t_end
        write_oracle_csv(path, pattern, config, t)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_check(args):
    config = load_config(args.config, args.overrides)
    # the oracle certifies its jump relations and the starting level passes
    # every gate, or this raises
    dt = initialize_case(config).state.dt
    print(f"exact solution certified; the starting level on {config.n_cells} "
          f"cells passes every gate")
    # at most ten steps of the case's own dt hold the gates and the energy budget
    short = replace(config, cfl=None, dt=dt,
                    t_end=min(config.t_end, config.t_start + 10 * dt))
    rows = run_case(short).diagnostics
    # the worst step is gated; argmax takes a NaN drift as the worst
    worst = rows[rows["energy_drift_rel"].argmax()]
    drift = worst["energy_drift_rel"]
    label = f"{len(rows)}-step run"
    if not drift < 1e-8:
        raise StepFailure(f"{label}: energy drift {drift:.2e} at step "
                          f"{worst['step']} exceeds 1e-8")
    print(f"{label} of dt {dt:.3e}: every gate holds, energy drift "
          f"{drift:.2e}")
    print("all checks passed")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "oracle": _cmd_oracle,
        "check": _cmd_check,
    }
    try:
        return handlers[args.verb](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StepFailure as exc:
        print(f"step failure: {exc}", file=sys.stderr)
        return EXIT_STEP
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
