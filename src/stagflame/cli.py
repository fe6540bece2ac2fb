"""Command line front end: run, sweep, oracle, check."""

import argparse
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, OracleError, StepFailure
from .harness import (
    ERROR_FIELDS,
    initialize_case,
    load_config,
    run_case,
    run_sweep,
    write_oracle_csv,
    write_run_csvs,
    write_sweep_csv,
)
from .transport import SCHEMES

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


def _cmd_run(args):
    config = load_config(args.config, args.overrides)
    result = run_case(config)
    print(f"ran {result.n_steps} steps of {result.dt:.6e} s "
          f"to t = {result.t_final:.6f} s on {config.n_cells} cells")
    print(f"relative total-energy drift: {result.energy_drift_rel:.3e}")
    if result.diagnostics:
        last = result.diagnostics[-1]
        print(f"final cfl {last['cfl']:.3f}, correction residual "
              f"{last['correction_residual']:.3e} "
              f"({last['correction_iterations']} iterations)")
    if result.errors is not None:
        parts = ", ".join(f"{k} {result.errors[k]:.4e}" for k in ERROR_FIELDS)
        print(f"L1 errors vs exact solution: {parts}")
    prefix = args.output_prefix or config.output_prefix
    if prefix:
        write_run_csvs(prefix, result)
        print(f"wrote {prefix}_profile.csv and {prefix}_diag.csv")
    return EXIT_OK


def _cmd_sweep(args):
    config = load_config(args.config, args.overrides)
    meshes = [int(v) for v in args.meshes.split(",") if v.strip()]
    if args.schemes is None:  # implicit transport has upwind faces only
        explicit = config.time_mode == "explicit-limited"
        schemes = list(SCHEMES) if explicit else ["upwind"]
    else:
        schemes = [v.strip() for v in args.schemes.split(",") if v.strip()]
    reports = run_sweep(config, meshes, schemes)
    for report in reports.values():
        print(report.to_text())
    prefix = args.output_prefix or config.output_prefix
    if prefix:
        path = f"{prefix}_sweep.csv"
        write_sweep_csv(path, reports)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_oracle(args):
    from .oracle import rh_residuals

    config = load_config(args.config, args.overrides)
    if config.init_mode != "riemann_oracle":
        raise ConfigError("the oracle verb needs init_mode = riemann_oracle")
    setup = initialize_case(config)
    pattern = setup.pattern
    print("exact wave pattern (left to right):")
    print(f"  burnt:   p {pattern.p_burnt:.8e}  rho {pattern.rho_burnt:.8e}  "
          f"u {pattern.u_burnt:.8e}")
    print(f"  shocked: p {pattern.p_shocked:.8e}  rho {pattern.rho_shocked:.8e}  "
          f"u {pattern.u_shocked:.8e}")
    print(f"  fresh:   p {pattern.p_fresh:.8e}  rho {pattern.rho_fresh:.8e}  "
          f"u {pattern.u_fresh:.8e}")
    print(f"  flame speed {pattern.s_flame:.8e}, precursor speed "
          f"{pattern.s_shock:.8e}, heat release {pattern.heat_release:.8e}")
    res = rh_residuals(pattern)
    worst = max(res.values())
    print(f"  worst jump-relation residual: {worst:.3e}")
    if args.csv:
        t = args.time if args.time is not None else config.t_end
        write_oracle_csv(args.csv, pattern, config, t)
        print(f"wrote {args.csv}")
    return EXIT_OK


def _cmd_check(args):
    from .grid import build_uniform_grid
    from .hydro import pressure_gradient
    from .oracle import rh_residuals
    from .transport import dual_density, dual_mass_flux, primal_mass_flux

    config = load_config(args.config, args.overrides)
    failures = 0
    oracle_failed = False

    def report(name, ok, detail=""):
        nonlocal failures
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures += 1

    print("self-checks:")
    rng = np.random.default_rng(20240901)
    grid = build_uniform_grid(max(config.n_cells, 16), config.x_left, config.x_right)

    # gradient/divergence duality on random fields
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(0.5, 2.0, grid.n_cells)
        u = np.zeros(grid.n_faces)
        u[1:-1] = rng.uniform(-1.0, 1.0, grid.n_faces - 2)
        g = pressure_gradient(p, grid)
        div = (u[1:] - u[:-1]) / grid.cell_volumes
        total = np.sum(grid.cell_volumes * p * div) + np.sum(grid.dual_volumes * u * g)
        scale = np.sum(np.abs(grid.cell_volumes * p * div)) + 1e-300
        worst = max(worst, abs(total) / scale)
    report("pressure gradient / velocity divergence duality", worst < 1e-12,
           f"worst {worst:.2e}")

    # dual fluxes inherit the primal balance
    worst = 0.0
    for _ in range(50):
        rho_old = rng.uniform(0.5, 2.0, grid.n_cells)
        u = np.zeros(grid.n_faces)
        u[1:-1] = rng.uniform(-1.0, 1.0, grid.n_faces - 2)
        dt = 0.1
        F = primal_mass_flux(rho_old, u)
        rho_new = rho_old - dt / grid.cell_volumes * (F[1:] - F[:-1])
        Fd = dual_mass_flux(F)
        full = np.concatenate(([0.0], Fd, [0.0]))
        res = (grid.dual_volumes / dt
               * (dual_density(grid, rho_new) - dual_density(grid, rho_old))
               + full[1:] - full[:-1])
        worst = max(worst, float(np.max(np.abs(res))))
    report("dual-cell mass balance", worst < 1e-12, f"worst {worst:.2e}")

    # oracle self-certification
    try:
        setup = initialize_case(replace(config, init_mode="riemann_oracle"))
        res = rh_residuals(setup.pattern)
        worst = max(res.values())
        report("exact-solution jump relations", worst < 1e-10, f"worst {worst:.2e}")
    except OracleError as exc:
        report("exact-solution jump relations", False, str(exc))
        oracle_failed = True

    # ten steps of the case's own dt hold the hard gates and the energy budget
    try:
        dt = initialize_case(config).dt
        short = replace(config, cfl=None, dt=dt, t_end=config.t_start + 10 * dt)
        result = run_case(short, collect_diagnostics=False)
        report("10-step run: gates and energy",
               result.energy_drift_rel < 1e-8,
               f"{result.n_steps} steps of dt {result.dt:.3e}, "
               f"drift {result.energy_drift_rel:.2e}")
    except StepFailure as exc:
        report("10-step run: gates and energy", False, str(exc))

    if failures:
        if oracle_failed:
            raise OracleError(f"{failures} self-check(s) failed")
        raise StepFailure(f"{failures} self-check(s) failed")
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
