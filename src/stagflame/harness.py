"""Case setup, time loop, error measurement and convergence studies."""

import math
import time
from dataclasses import dataclass, fields as dc_fields, replace

import numpy as np

from .chemistry import ChemStepConfig, chemistry_step
from .errors import ConfigError, StepFailure, require_finite, require_fraction
from .grid import build_uniform_grid
from .hydro import CorrectionSolveConfig, euler_step, total_energy
from .linalg import upwind_mass_solve
from .oracle import (
    asymptotic_composition,
    exact_cell_averages,
    exact_dual_averages,
    fresh_density,
    sample_solution,
    solve_deflagration_riemann,
)
from .thermo import (
    FieldState,
    MixtureSpec,
    mass_fractions_from_molar,
    pressure_from_state,
    temperature,
    z_from_fractions,
)
from .transport import LimiterParams, cfl_number, primal_mass_flux

_PROFILE_COLUMNS = (
    "x_center", "rho", "p", "u_face_interp", "T", "e_s", "h_s",
    "y_F", "y_O", "y_N", "y_P", "z", "G",
)
_DIAG_COLUMNS = (
    "step", "t", "dt", "cfl", "mass_total", "energy_total",
    "energy_drift_rel", "correction_residual", "correction_iterations",
    "used_fallback", "kinetic_residual_total", "max_sum_y_error",
    "min_G", "max_G",
)
ERROR_FIELDS = ("p", "u", "rho", "y_F", "G", "T")
_SWEEP_COLUMNS = (
    ("scheme", "n_cells", "h", "wall_time", "asymptotic_distance")
    + tuple(f"err_{f}" for f in ERROR_FIELDS)
    + tuple(f"order_{f}" for f in ERROR_FIELDS)
)
# A case needing more fixed steps than this is a configuration error (the
# benchmark's largest run takes 1340).
MAX_STEPS = 10**7

# Admissible ranges of the numeric config keys: (low, high, low included,
# high included), None for an unbounded end.  Every numeric key, listed or
# not, must also be finite.
_POSITIVE = (0.0, None, False, False)
_NON_NEGATIVE = (0.0, None, True, False)
_RANGES = {
    "n_cells": (3, None, True, False),
    "gamma": (1.0, None, False, False),
    **dict.fromkeys(("nu_F", "nu_O", "nu_P", "W_F", "W_O", "W_N", "W_P",
                     "p_fresh", "T_fresh", "cfl", "dt", "epsilon",
                     "epsilon_per_h"), _POSITIVE),
    **dict.fromkeys(("molar_F", "molar_O", "molar_N"), (0.0, 1.0, True, True)),
    **dict.fromkeys(("zeta_minus", "zeta_plus"), (0.0, 2.0, True, True)),
    **dict.fromkeys(("s_max", "grad_threshold", "flame_speed_product"),
                    _NON_NEGATIVE),
    "nonlinear_tol": (0.0, 1.0, False, False),
    "max_iterations": (1, None, True, False),
}


def _range_error(key, value):
    """Why ``value`` is not admissible for ``key``; None when it is."""
    if not math.isfinite(value):
        return f"{key} must be finite, got {value!r}"
    if key not in _RANGES:
        return None
    lo, hi, lo_in, hi_in = _RANGES[key]
    below = lo is not None and (value < lo or (value == lo and not lo_in))
    above = hi is not None and (value > hi or (value == hi and not hi_in))
    if not (below or above):
        return None
    interval = (f"{'[' if lo_in else '('}{lo}, "
                f"{'inf' if hi is None else hi}{']' if hi_in else ')'}")
    return f"{key} must lie in {interval}, got {value!r}"


@dataclass
class CaseConfig:
    """Flat run configuration; mirrors the key = value config files."""

    n_cells: int = 250
    x_left: float = 0.0
    x_right: float = 4.5
    gamma: float = 1.4
    nu_F: float = 2.0
    nu_O: float = 1.0
    nu_P: float = 2.0
    W_F: float = 2.016e-3
    W_O: float = 31.998e-3
    W_N: float = 28.014e-3
    W_P: float = 18.015e-3
    dh_F: float = 0.0
    dh_O: float = 0.0
    dh_N: float = 0.0
    dh_P: float = -13.255e6
    molar_F: float = 2.0 / 7.0
    molar_O: float = 1.0 / 7.0
    molar_N: float = 4.0 / 7.0
    p_fresh: float = 9.9e4
    T_fresh: float = 283.0
    u_flame: float = 63.0
    x0: float = 0.0
    t_start: float = 0.002
    t_end: float = 0.005
    cfl: float = None
    dt: float = None
    epsilon: float = None
    epsilon_per_h: float = None
    time_mode: str = "implicit-upwind"
    limiter: str = "upwind"
    zeta_minus: float = 1.0
    zeta_plus: float = 1.0
    neighbor_policy: str = "opposite_cells"
    s_max: float = 2.0
    grad_threshold: float = 1e-12
    nonlinear_tol: float = 1e-12
    max_iterations: int = 100
    init_mode: str = "riemann_oracle"
    flame_speed_product: float = None
    output_prefix: str = None

    def __post_init__(self):
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if value is None or isinstance(value, str):
                continue
            error = _range_error(f.name, value)
            if error:
                raise ConfigError(error)
        if not self.x_right > self.x_left:
            raise ConfigError(f"empty domain: x_right {self.x_right!r} "
                              f"must exceed x_left {self.x_left!r}")
        if not self.t_end > self.t_start:
            raise ConfigError("t_end must exceed t_start")
        if self.init_mode == "riemann_oracle" and not self.t_start > 0.0:
            raise ConfigError(f"t_start must be positive for init_mode = "
                              f"riemann_oracle (the self-similar solution "
                              f"needs t > 0), got {self.t_start!r}")
        if self.cfl is not None and self.dt is not None:
            raise ConfigError("set at most one of cfl, dt")
        if self.cfl is None and self.dt is None:
            self.cfl = 0.8
        if self.cfl is not None:
            if self.time_mode == "explicit-limited" and self.cfl > 1.0:
                raise ConfigError("cfl must lie in (0, 1] for explicit-limited mode")
        if self.time_mode == "implicit-upwind" and self.limiter != "upwind":
            raise ConfigError(f"limiter = {self.limiter} needs time_mode = "
                              f"explicit-limited: implicit mode always "
                              f"convects with upwind faces")
        if self.epsilon is None and self.epsilon_per_h is None:
            # benchmark-calibrated default; see the convergence-study metadata
            self.epsilon_per_h = 1e-2
        if self.init_mode not in ("riemann_oracle", "uniform"):
            raise ConfigError(f"unknown init_mode {self.init_mode!r}")

    @classmethod
    def from_dict(cls, data):
        known = {f.name: f for f in dc_fields(cls)}
        kwargs = {}
        for key, raw in data.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(key, raw, known[key].type)
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    def mixture(self):
        try:
            return MixtureSpec(
                nu_F=self.nu_F, nu_O=self.nu_O, nu_P=self.nu_P,
                W_F=self.W_F, W_O=self.W_O, W_N=self.W_N, W_P=self.W_P,
                dh_F=self.dh_F, dh_O=self.dh_O, dh_N=self.dh_N, dh_P=self.dh_P,
                gamma=self.gamma,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def limiter_params(self):
        try:
            return LimiterParams(
                scheme=self.limiter, zeta_minus=self.zeta_minus,
                zeta_plus=self.zeta_plus, neighbor_policy=self.neighbor_policy,
                s_max=self.s_max,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def chem_config(self, flame_speed_product):
        return ChemStepConfig(
            epsilon=self.epsilon, epsilon_per_h=self.epsilon_per_h,
            flame_speed_product=flame_speed_product, time_mode=self.time_mode,
            limiter=self.limiter_params(), grad_threshold=self.grad_threshold,
        )

    def solver_config(self):
        try:
            return CorrectionSolveConfig(
                nonlinear_tol=self.nonlinear_tol,
                max_iterations=self.max_iterations,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def resolved_dict(self):
        return {k: v for k, v in vars(self).items() if v is not None}


def _coerce(key, raw, ftype):
    if isinstance(raw, str):
        raw = raw.strip()
    if ftype is int:
        try:
            return int(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r} needs an integer, got {raw!r}") from None
    if ftype is str:
        return str(raw)
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} needs a number, got {raw!r}") from None


def parse_config_text(text):
    """Parse flat ``key = value`` text with # comments into a dict of strings."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {line!r}")
        out[key] = value
    return out


def load_config(path, overrides=()):
    """Read a config file and apply ``key=value`` override strings."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        data[key.strip()] = value.strip()
    return CaseConfig.from_dict(data)


@dataclass
class CaseSetup:
    """Initialised case: the starting state plus everything derived."""

    state: FieldState
    pattern: object
    chem_config: ChemStepConfig
    solver_config: CorrectionSolveConfig
    dt: float
    n_steps: int
    t_initial: float


def _derive_dt(config, grid, rho_est, u):
    if config.dt is not None:
        return config.dt
    F_est = primal_mass_flux(rho_est, u)
    through = np.abs(F_est[:-1]) + np.abs(F_est[1:])
    if np.max(through) <= 0.0:
        raise ConfigError("cannot derive dt from a CFL target with zero initial flux")
    with np.errstate(divide="ignore"):
        limit = np.min(rho_est * grid.cell_volumes / through)
    return config.cfl * float(limit)


def initialize_case(config):
    """Build the starting state of a case.

    Cell scalars start from exact cell averages of the oracle solution at
    ``t_start`` (or from the uniform fresh state), the velocity from exact
    dual-cell averages; the starting density is produced by one implicit
    upwind mass step so that the state enters the loop with a balanced
    (rho_prev, rho, flux, dt) quadruple, which the conservation properties
    of the scheme assume.
    """
    grid = build_uniform_grid(config.n_cells, config.x_left, config.x_right)
    mix = config.mixture()
    try:
        y_fresh = mass_fractions_from_molar(mix, config.molar_F, config.molar_O,
                                            config.molar_N)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    pattern = None
    if config.init_mode == "riemann_oracle":
        pattern = solve_deflagration_riemann(
            mix, config.p_fresh, config.T_fresh, y_fresh, config.u_flame
        )
        cells = exact_cell_averages(pattern, grid, config.t_start, config.x0)
        duals = exact_dual_averages(pattern, grid, config.t_start, config.x0)
        u0 = np.asarray(duals["u"])
        u0[0] = 0.0
        u0[-1] = 0.0
        rho_prev = cells["rho"]
        h_s0 = cells["h_s"]
        scalars = {k: cells[k] for k in ("y_F", "y_O", "y_N", "y_P", "z", "G")}
        flame_speed_product = (
            config.flame_speed_product
            if config.flame_speed_product is not None
            else pattern.flame_speed_product
        )
    else:
        n = grid.n_cells
        rho_prev = np.full(n, fresh_density(mix, config.p_fresh, config.T_fresh,
                                            y_fresh))
        e_s = config.p_fresh / ((mix.gamma - 1.0) * rho_prev)
        h_s0 = mix.gamma * e_s
        u0 = np.zeros(grid.n_faces)
        z0 = z_from_fractions(mix, y_fresh[0], y_fresh[1])
        scalars = {
            "y_F": np.full(n, y_fresh[0]), "y_O": np.full(n, y_fresh[1]),
            "y_N": np.full(n, y_fresh[2]), "y_P": np.full(n, y_fresh[3]),
            "z": np.full(n, z0), "G": np.ones(n),
        }
        flame_speed_product = config.flame_speed_product or 0.0

    dt_raw = _derive_dt(config, grid, rho_prev, u0)
    span = config.t_end - config.t_start
    steps = np.ceil(span / dt_raw - 1e-9)
    if not steps <= MAX_STEPS:
        raise ConfigError(f"the case needs {steps:.6g} steps of dt {dt_raw:.6g} "
                          f"to cover [{config.t_start!r}, {config.t_end!r}], "
                          f"more than {MAX_STEPS}")
    n_steps = max(1, int(steps))
    dt = span / n_steps

    rho0 = upwind_mass_solve(grid, rho_prev, u0, dt)
    flux0 = primal_mass_flux(rho0, u0)
    p0 = pressure_from_state(rho0, h_s0, mix.gamma)
    state = FieldState(
        grid=grid, mixture=mix, dt=dt, rho_prev=rho_prev, rho=rho0, u=u0,
        p=p0, h_s=h_s0, flux=flux0, **scalars,
    )
    check_state_gates(state)
    return CaseSetup(
        state=state, pattern=pattern,
        chem_config=config.chem_config(flame_speed_product),
        solver_config=config.solver_config(), dt=dt, n_steps=n_steps,
        t_initial=config.t_start,
    )


def check_state_gates(state):
    """Hard per-step solution gates; raises StepFailure on violation.

    Fractions go through ``require_fraction``; rho and e_s are tested the
    same way against (0, inf).  Returns the largest deviation of the
    mass-fraction sum from 1.
    """
    for name in ("y_F", "y_O", "y_N", "y_P", "G"):
        require_fraction(name, getattr(state, name))
    for name, v, what in (("rho", state.rho, "density"),
                          ("e_s", state.e_s, "sensible energy")):
        lo, hi = v.min(), v.max()
        if not (lo > 0.0 and hi < np.inf):
            require_finite(name, v)
            raise StepFailure(f"non-positive {what} {lo:.3e}")
    err = float(np.abs(state.y_F + state.y_O + state.y_N + state.y_P - 1.0).max())
    if err > 1e-10:
        raise StepFailure(f"mass fractions sum drifted from 1 by {err:.3e}")
    return err


def advance(state, chem_config, solver_config):
    """One full step: chemistry then flow; returns (new_state, info dict).

    In explicit-limited mode the step first checks the material CFL of the
    state's fluxes and density, the one its chemistry step runs at: the
    discrete maximum principle of the limited schemes needs it at most 1,
    and ``dt`` stays fixed after setup.
    """
    dt = state.dt
    if chem_config.time_mode == "explicit-limited":
        cfl = cfl_number(state.flux, state.rho, dt, state.grid)
        if not cfl <= 1.0:
            raise StepFailure(
                f"material CFL {cfl:.4f} exceeds 1 in explicit-limited mode "
                f"(dt {dt:.6e}); the limited face values need CFL <= 1"
            )
    chem = chemistry_step(state, dt, chem_config)
    flow = euler_step(state, chem.omega_theta, dt, solver_config)
    new_state = FieldState(
        grid=state.grid, mixture=state.mixture, dt=dt,
        rho_prev=state.rho, rho=flow.rho, u=flow.u, p=flow.p, h_s=flow.h_s,
        y_F=chem.y_F, y_O=chem.y_O, y_N=chem.y_N, y_P=chem.y_P,
        z=chem.z, G=chem.G, flux=flow.flux,
    )
    sum_y_error = check_state_gates(new_state)
    info = {
        "cfl": cfl_number(flow.flux, flow.rho, dt, state.grid),
        "correction_residual": flow.residual,
        "correction_iterations": flow.iterations,
        "kinetic_residual_total": float(np.sum(flow.kinetic_residual)),
        "max_sum_y_error": sum_y_error,
        "chem_face_values": chem.face_values,
        "compensation_source": flow.source,
        "omega_theta": chem.omega_theta,
    }
    return new_state, info


@dataclass
class RunResult:
    config: CaseConfig
    state: FieldState
    dt: float
    n_steps: int
    t_final: float
    diagnostics: list
    errors: dict
    energy_drift_rel: float
    wall_time: float


def run_case(config, collect_diagnostics=True):
    """Run a case from t_start to t_end with the fixed step chosen at setup."""
    setup = initialize_case(config)
    state = setup.state
    e0 = total_energy(state)
    t = setup.t_initial
    rows = []
    started = time.perf_counter()
    drift = 0.0
    for step in range(1, setup.n_steps + 1):
        state, info = advance(state, setup.chem_config, setup.solver_config)
        t = setup.t_initial + step * setup.dt
        e_now = total_energy(state)
        drift = abs(e_now - e0) / abs(e0)
        if collect_diagnostics:
            rows.append({
                "step": step, "t": t, "dt": setup.dt, "cfl": info["cfl"],
                "mass_total": float(np.sum(state.grid.cell_volumes * state.rho)),
                "energy_total": e_now, "energy_drift_rel": drift,
                "correction_residual": info["correction_residual"],
                "correction_iterations": info["correction_iterations"],
                "used_fallback": 0,  # kept column: Newton has no fallback
                "kinetic_residual_total": info["kinetic_residual_total"],
                "max_sum_y_error": info["max_sum_y_error"],
                "min_G": float(np.min(state.G)), "max_G": float(np.max(state.G)),
            })
    wall = time.perf_counter() - started
    errors = None
    if setup.pattern is not None:
        errors = l1_error(state, setup.pattern, t, config.x0)
    return RunResult(
        config=config, state=state, dt=setup.dt,
        n_steps=setup.n_steps, t_final=t, diagnostics=rows, errors=errors,
        energy_drift_rel=drift, wall_time=wall,
    )


def l1_error(state, pattern, t, x0=0.0):
    """Discrete L1 distances to the exact solution at time t.

    Cell fields integrate |difference| against the cell volumes; the
    velocity error integrates against the dual volumes, comparing with exact
    dual-cell averages.
    """
    grid = state.grid
    mix = state.mixture
    cells = exact_cell_averages(pattern, grid, t, x0)
    duals = exact_dual_averages(pattern, grid, t, x0)
    vol = grid.cell_volumes
    T_num = temperature(mix, state.e_s, state.y_F, state.y_O, state.y_N, state.y_P)
    out = {
        "p": float(np.sum(vol * np.abs(state.p - cells["p"]))),
        "rho": float(np.sum(vol * np.abs(state.rho - cells["rho"]))),
        "y_F": float(np.sum(vol * np.abs(state.y_F - cells["y_F"]))),
        "G": float(np.sum(vol * np.abs(state.G - cells["G"]))),
        "T": float(np.sum(vol * np.abs(T_num - cells["T"]))),
        "u": float(np.sum(grid.dual_volumes * np.abs(state.u - duals["u"]))),
    }
    return out


def burnt_zone_asymptotic_distance(state):
    """L1 distance over the burnt zone between the transported composition
    and the one an infinitely fast reaction would leave behind.

    Measures how far the finite-rate solution sits from its fast-chemistry
    limit; shrinking epsilon with the mesh should drive this to zero.
    """
    yF, yO, yN, yP = asymptotic_composition(
        state.mixture, state.y_F, state.y_O, state.y_N, state.y_P, state.G)
    burnt = state.G < 0.5
    diff = (np.abs(state.y_F - yF) + np.abs(state.y_O - yO)
            + np.abs(state.y_N - yN) + np.abs(state.y_P - yP))
    return float(np.sum(state.grid.cell_volumes[burnt] * diff[burnt]))


# ---------------------------------------------------------------------------
# CSV output


def _format(v):
    """Floats with 17 significant digits, so they read back bit for bit."""
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path, columns, rows, header=None):
    """Write one CSV file: ``# key = value`` lines for the ``header`` dict in
    key order, the column names, then one line per row, every value written
    by ``_format``."""
    lines = [f"# {k} = {_format(header[k])}" for k in sorted(header or {})]
    lines.append(",".join(columns))
    lines.extend(",".join(_format(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_run_csvs(prefix, result):
    """Write ``<prefix>_profile.csv``, one row per cell of the final state,
    and ``<prefix>_diag.csv``, one row per step.  Both headers embed the
    resolved config and the run's t_final, dt_used and n_steps."""
    header = {**result.config.resolved_dict(), "t_final": result.t_final,
              "dt_used": result.dt, "n_steps": result.n_steps}
    state = result.state
    grid = state.grid
    mix = state.mixture
    T = temperature(mix, state.e_s, state.y_F, state.y_O, state.y_N, state.y_P)
    u_c = 0.5 * (state.u[:-1] + state.u[1:])
    cols = {
        "x_center": grid.x_centers, "rho": state.rho, "p": state.p,
        "u_face_interp": u_c, "T": T, "e_s": state.e_s, "h_s": state.h_s,
        "y_F": state.y_F, "y_O": state.y_O, "y_N": state.y_N,
        "y_P": state.y_P, "z": state.z, "G": state.G,
    }
    write_csv(f"{prefix}_profile.csv", _PROFILE_COLUMNS,
              np.column_stack([cols[c] for c in _PROFILE_COLUMNS]), header)
    write_csv(f"{prefix}_diag.csv", _DIAG_COLUMNS,
              ([row[c] for c in _DIAG_COLUMNS] for row in result.diagnostics),
              header)


def write_oracle_csv(path, pattern, config, t):
    """Sample the exact solution at time t at ``n_cells`` evenly spaced points
    spanning the domain, ends included; one column per field."""
    x = np.linspace(config.x_left, config.x_right, config.n_cells)
    fields = sample_solution(pattern, x, t, config.x0)
    names = sorted(fields)
    write_csv(path, ["x"] + names, np.column_stack([x] + [fields[k] for k in names]))


# ---------------------------------------------------------------------------
# convergence study


@dataclass
class ConvergenceReport:
    """L1 errors and observed orders over a mesh family for one face scheme."""

    scheme: str
    meshes: list
    h: list
    errors: dict
    orders: dict
    ls_order: dict
    wall_times: list
    asymptotic_distance: list
    metadata: dict

    def to_text(self):
        out = [f"scheme = {self.scheme}"]
        for k in sorted(self.metadata):
            out.append(f"  {k} = {_format(self.metadata[k])}")
        head = "    n      h     " + "".join(f"{f:>12}" for f in ERROR_FIELDS)
        out.append(head)
        for i, n in enumerate(self.meshes):
            row = f"  {n:5d}  {self.h[i]:.5f}"
            for f in ERROR_FIELDS:
                row += f"  {self.errors[f][i]:10.4e}"
            out.append(row)
        out.append("  observed orders (consecutive pairs, then least squares):")
        for f in ERROR_FIELDS:
            pairs = ", ".join(f"{o:.3f}" for o in self.orders[f])
            out.append(f"    {f:>4}: {pairs}  | ls {self.ls_order[f]:.3f}")
        dist = ", ".join(f"{d:.4e}" for d in self.asymptotic_distance)
        out.append(f"  burnt-zone distance to fast-chemistry limit: {dist}")
        out.append("  wall times [s]: " + ", ".join(f"{w:.2f}" for w in self.wall_times))
        return "\n".join(out)


def convergence_study(config, meshes):
    """Run ``config`` on each mesh and collect L1 errors and orders.

    The time step follows the configured CFL target on every mesh and
    ``epsilon_per_h`` ties the reaction time scale to the cell size, so the
    study refines space and time together.
    """
    if config.init_mode != "riemann_oracle":
        raise ConfigError("a convergence study needs init_mode = riemann_oracle")
    if config.epsilon is not None:
        raise ConfigError("a convergence study needs epsilon_per_h, not epsilon")
    if config.dt is not None:
        raise ConfigError("a convergence study needs a cfl target, not a fixed dt")
    errors = {f: [] for f in ERROR_FIELDS}
    h_list = []
    walls = []
    eps_used = []
    dt_used = []
    steps_used = []
    distances = []
    for n in meshes:
        cfg = replace(config, n_cells=int(n))
        result = run_case(cfg, collect_diagnostics=False)
        for f in ERROR_FIELDS:
            errors[f].append(result.errors[f])
        h = (cfg.x_right - cfg.x_left) / n
        h_list.append(h)
        walls.append(result.wall_time)
        eps_used.append(config.epsilon_per_h * h)
        dt_used.append(result.dt)
        steps_used.append(result.n_steps)
        distances.append(burnt_zone_asymptotic_distance(result.state))
    orders = {}
    ls = {}
    logh = np.log(np.asarray(h_list))
    fit = len(set(meshes)) > 1  # a slope needs two mesh sizes
    for f in ERROR_FIELDS:
        e = np.asarray(errors[f])
        with np.errstate(divide="ignore", invalid="ignore"):
            orders[f] = list(np.log(e[:-1] / e[1:]) / (logh[:-1] - logh[1:]))
            ls[f] = (float(np.polyfit(logh, np.log(e), 1)[0])
                     if fit and np.all(e > 0) else float("nan"))
    meta = {
        "gamma": config.gamma, "cfl": config.cfl,
        "epsilon_per_h": config.epsilon_per_h,
        "time_mode": config.time_mode,
        "epsilon_per_mesh": ",".join(f"{e:.6g}" for e in eps_used),
        "dt_per_mesh": ",".join(f"{d:.6g}" for d in dt_used),
        "steps_per_mesh": ",".join(str(s) for s in steps_used),
    }
    return ConvergenceReport(
        scheme=config.limiter, meshes=list(meshes), h=h_list, errors=errors,
        orders=orders, ls_order=ls, wall_times=walls,
        asymptotic_distance=distances, metadata=meta,
    )


def run_sweep(config, meshes, schemes):
    """Convergence study for several face schemes; returns {scheme: report}.

    Every scheme's config is validated before the first run starts.
    """
    configs = {scheme: replace(config, limiter=scheme) for scheme in schemes}
    return {scheme: convergence_study(cfg, meshes) for scheme, cfg in configs.items()}


def write_sweep_csv(path, reports):
    """Write one row per scheme and mesh of ``{scheme: ConvergenceReport}``;
    a mesh without a following one has no observed orders."""
    rows = []
    for report in reports.values():
        for i, n in enumerate(report.meshes):
            rows.append(
                [report.scheme, n, report.h[i], report.wall_times[i],
                 report.asymptotic_distance[i]]
                + [report.errors[f][i] for f in ERROR_FIELDS]
                + [report.orders[f][i] if i < len(report.orders[f]) else ""
                   for f in ERROR_FIELDS])
    write_csv(path, _SWEEP_COLUMNS, rows)
