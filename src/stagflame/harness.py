"""Case setup, time loop, error measurement and convergence studies."""

import time
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from .chemistry import ChemStepConfig, chemistry_step
from .errors import ConfigError, StepFailure, require_finite
from .grid import build_uniform_grid
from .hydro import CorrectionSolveConfig, euler_step, total_energy
from .oracle import (
    asymptotic_composition,
    exact_cell_averages,
    exact_dual_averages,
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
_GATED_FIELDS = ("y_F", "y_O", "y_N", "y_P", "G", "rho", "e_s")


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
    under_relaxation: float = 0.8
    init_mode: str = "riemann_oracle"
    flame_speed_product: float = None
    output_prefix: str = None

    def __post_init__(self):
        if self.n_cells < 3:
            raise ConfigError("n_cells must be at least 3")
        if not self.t_end > self.t_start:
            raise ConfigError("t_end must exceed t_start")
        if self.cfl is not None and self.dt is not None:
            raise ConfigError("set at most one of cfl, dt")
        if self.cfl is None and self.dt is None:
            self.cfl = 0.8
        if self.cfl is not None:
            if self.time_mode == "explicit-limited" and not 0.0 < self.cfl <= 1.0:
                raise ConfigError("cfl must lie in (0, 1] for explicit-limited mode")
            if self.cfl <= 0.0:
                raise ConfigError("cfl must be positive")
        if self.dt is not None and self.dt <= 0.0:
            raise ConfigError("dt must be positive")
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
        except TypeError as exc:
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
                under_relaxation=self.under_relaxation,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def resolved_dict(self):
        out = {}
        for f in dc_fields(self):
            v = getattr(self, f.name)
            if v is not None:
                out[f.name] = v
        return out


def _coerce(key, raw, ftype):
    if isinstance(raw, str):
        raw = raw.strip()
    if ftype is int or key in ("n_cells", "max_iterations"):
        try:
            return int(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r} needs an integer, got {raw!r}") from None
    if ftype is str or key in ("time_mode", "limiter", "neighbor_policy",
                               "init_mode", "output_prefix"):
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

    config: CaseConfig
    state: FieldState
    pattern: object
    chem_config: ChemStepConfig
    solver_config: CorrectionSolveConfig
    dt: float
    n_steps: int
    t_initial: float


def _initial_mass_solve(grid, rho_prev, u, dt):
    """One implicit upwind mass step; returns the balanced starting density."""
    n = grid.n_cells
    hdt = grid.cell_volumes / dt
    uin = u[1:n]
    diag = hdt.copy()
    lower = np.zeros(n)
    upper = np.zeros(n)
    pos = uin >= 0.0
    diag[:-1] += np.where(pos, uin, 0.0)
    upper[:-1] += np.where(pos, 0.0, uin)
    diag[1:] -= np.where(pos, 0.0, uin)
    lower[1:] -= np.where(pos, uin, 0.0)
    from scipy.linalg import solve_banded

    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, hdt * rho_prev)


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
    y_fresh = mass_fractions_from_molar(mix, config.molar_F, config.molar_O,
                                        config.molar_N)
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
        from .oracle import fresh_density

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
    n_steps = max(1, int(np.ceil(span / dt_raw - 1e-9)))
    dt = span / n_steps

    rho0 = _initial_mass_solve(grid, rho_prev, u0, dt)
    flux0 = primal_mass_flux(rho0, u0)
    p0 = pressure_from_state(rho0, h_s0, mix.gamma)
    state = FieldState(
        grid=grid, mixture=mix, dt=dt, rho_prev=rho_prev, rho=rho0, u=u0,
        p=p0, h_s=h_s0, flux=flux0, **scalars,
    )
    check_state_gates(state)
    return CaseSetup(
        config=config, state=state, pattern=pattern,
        chem_config=config.chem_config(flame_speed_product),
        solver_config=config.solver_config(), dt=dt, n_steps=n_steps,
        t_initial=config.t_start,
    )


def check_state_gates(state):
    """Hard per-step solution gates; raises StepFailure on violation.

    Every gated field must be finite first: NaN compares False against any
    bound, so the range tests alone would let it through.
    """
    for name in _GATED_FIELDS:
        require_finite(name, getattr(state, name))
    sum_y = state.y_F + state.y_O + state.y_N + state.y_P
    err = float(np.max(np.abs(sum_y - 1.0)))
    if err > 1e-10:
        raise StepFailure(f"mass fractions sum drifted from 1 by {err:.3e}")
    for name in ("y_F", "y_O", "y_N", "y_P", "G"):
        v = getattr(state, name)
        if np.min(v) < -1e-10 or np.max(v) > 1.0 + 1e-10:
            raise StepFailure(
                f"{name} left [0, 1]: min {np.min(v):.3e}, max {np.max(v):.3e}"
            )
    if np.min(state.rho) <= 0.0:
        raise StepFailure(f"non-positive density {np.min(state.rho):.3e}")
    if np.min(state.e_s) <= 0.0:
        raise StepFailure(f"non-positive sensible energy {np.min(state.e_s):.3e}")


def advance(state, chem_config, solver_config):
    """One full step: chemistry then flow; returns (new_state, info dict)."""
    dt = state.dt
    chem = chemistry_step(state, dt, chem_config)
    flow = euler_step(state, chem.omega_theta, dt, solver_config)
    new_state = FieldState(
        grid=state.grid, mixture=state.mixture, dt=dt,
        rho_prev=state.rho, rho=flow.rho, u=flow.u, p=flow.p, h_s=flow.h_s,
        y_F=chem.y_F, y_O=chem.y_O, y_N=chem.y_N, y_P=chem.y_P,
        z=chem.z, G=chem.G, flux=flow.flux,
    )
    check_state_gates(new_state)
    info = {
        "cfl": cfl_number(flow.flux, flow.rho, dt, state.grid),
        "correction_residual": flow.residual,
        "correction_iterations": flow.iterations,
        "used_fallback": int(flow.used_fallback),
        "kinetic_residual_total": float(np.sum(flow.kinetic_residual)),
        "max_sum_y_error": float(np.max(np.abs(
            chem.y_F + chem.y_O + chem.y_N + chem.y_P - 1.0))),
        "chem_face_values": chem.fluxes.face_values,
        "compensation_source": flow.source,
        "omega_theta": chem.omega_theta,
    }
    return new_state, info


@dataclass
class RunResult:
    config: CaseConfig
    state: FieldState
    pattern: object
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
                "used_fallback": info["used_fallback"],
                "kinetic_residual_total": info["kinetic_residual_total"],
                "max_sum_y_error": info["max_sum_y_error"],
                "min_G": float(np.min(state.G)), "max_G": float(np.max(state.G)),
            })
    wall = time.perf_counter() - started
    errors = None
    if setup.pattern is not None:
        errors = l1_error(state, setup.pattern, t, config.x0)
    return RunResult(
        config=config, state=state, pattern=setup.pattern, dt=setup.dt,
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
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _header_lines(resolved, extras):
    merged = dict(resolved)
    merged.update(extras)
    return [f"# {k} = {_format(merged[k])}" for k in sorted(merged)]


def write_profile_csv(path, state, config, extras=None):
    """Write the cell profile of a state; header embeds the resolved config."""
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
    lines = _header_lines(config.resolved_dict(), extras or {})
    lines.append(",".join(_PROFILE_COLUMNS))
    data = np.column_stack([cols[c] for c in _PROFILE_COLUMNS])
    for row in data:
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_diagnostics_csv(path, rows, config, extras=None):
    """Write per-step diagnostics; header embeds the resolved config."""
    lines = _header_lines(config.resolved_dict(), extras or {})
    lines.append(",".join(_DIAG_COLUMNS))
    for row in rows:
        lines.append(",".join(_format(row[c]) for c in _DIAG_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    asymptotic_distance: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

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
        if self.asymptotic_distance:
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
        cfg = _with_fields(config, n_cells=int(n))
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
    for f in ERROR_FIELDS:
        e = np.asarray(errors[f])
        with np.errstate(divide="ignore", invalid="ignore"):
            orders[f] = list(np.log(e[:-1] / e[1:]) / (logh[:-1] - logh[1:]))
            ls[f] = float(np.polyfit(logh, np.log(e), 1)[0]) if np.all(e > 0) else float("nan")
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


def _with_fields(config, **changes):
    """Copy a config with some fields replaced, re-running validation."""
    data = {f.name: getattr(config, f.name) for f in dc_fields(config)}
    data.update(changes)
    keep = {k: v for k, v in data.items() if v is not None}
    return CaseConfig(**keep)


def run_sweep(config, meshes, schemes):
    """Convergence study for several face schemes; returns {scheme: report}."""
    out = {}
    for scheme in schemes:
        cfg = _with_fields(config, limiter=scheme)
        out[scheme] = convergence_study(cfg, meshes)
    return out


def report_csv_rows(report):
    """Flatten a ConvergenceReport into CSV rows (header first)."""
    head = ["scheme", "n_cells", "h", "wall_time", "asymptotic_distance"]
    head += [f"err_{f}" for f in ERROR_FIELDS]
    head += [f"order_{f}" for f in ERROR_FIELDS]
    rows = [",".join(head)]
    for i, n in enumerate(report.meshes):
        vals = [report.scheme, str(n), f"{report.h[i]:.17g}",
                f"{report.wall_times[i]:.17g}",
                f"{report.asymptotic_distance[i]:.17g}"]
        vals += [f"{report.errors[f][i]:.17g}" for f in ERROR_FIELDS]
        for f in ERROR_FIELDS:
            if i < len(report.orders[f]):
                vals.append(f"{report.orders[f][i]:.17g}")
            else:
                vals.append("")
        rows.append(",".join(vals))
    return rows
