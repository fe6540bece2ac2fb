"""Case setup, time loop, error measurement and convergence studies."""

import math
import numbers
import time
from dataclasses import dataclass, fields as dc_fields, replace
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .chemistry import ChemStepConfig, chemistry_step
from .errors import ConfigError, StepFailure, require_finite, require_fraction
from .grid import build_uniform_grid
from .hydro import euler_step, total_energy
from .linalg import upwind_mass_solve
from .oracle import (
    asymptotic_composition,
    exact_cell_averages,
    exact_dual_averages,
    sample_solution,
    solve_deflagration_riemann,
)
from .thermo import (
    FieldState,
    MixtureSpec,
    mass_fractions_from_molar,
    pressure_from_state,
    temperature,
)
from .transport import SCHEMES, cfl_number, primal_mass_flux

# One record of RunResult.diagnostics per step, in _diag.csv column order.
DIAG_DTYPE = np.dtype([
    ("step", np.int64), ("t", np.float64), ("dt", np.float64),
    ("cfl", np.float64), ("mass_total", np.float64),
    ("energy_total", np.float64), ("energy_drift_rel", np.float64),
    ("correction_residual", np.float64),
    ("correction_iterations", np.int64), ("used_fallback", np.int64),
    ("kinetic_residual_total", np.float64),
    ("max_sum_y_error", np.float64), ("min_G", np.float64),
    ("max_G", np.float64),
])
ERROR_FIELDS = ("p", "u", "rho", "y_F", "G", "T")
_SWEEP_COLUMNS = (
    ("scheme", "n_cells", "h", "wall_time", "asymptotic_distance")
    + tuple(f"err_{f}" for f in ERROR_FIELDS)
    + tuple(f"order_{f}" for f in ERROR_FIELDS)
)
# A case needing more fixed steps than this is a configuration error (the
# benchmark's largest run takes 1340).
MAX_STEPS = 10**7

# Admissible ranges of the numeric config keys: (low, high, closed); a
# closed range includes its finite ends.  Every float key, listed or not,
# must also be finite.  t_start is positive because the self-similar
# solution the run starts from needs t > 0.  The cap on n_cells is 500
# times the largest mesh any study runs.
_RANGES = {
    "n_cells": (3, 10**6, True),
    "x_right": (0.0, math.inf, False),
    "gamma": (1.0, math.inf, False),
    **dict.fromkeys(("nu_F", "nu_O", "W_F", "W_O", "W_N", "W_P", "p_fresh",
                     "T_fresh", "t_start", "cfl", "dt", "epsilon_per_h"),
                    (0.0, math.inf, False)),
    **dict.fromkeys(("molar_F", "molar_O"), (0.0, 1.0, True)),
    "u_flame": (0.0, math.inf, True),
}
# The face schemes each time mode runs: implicit mode has upwind faces only.
MODE_SCHEMES = {"implicit-upwind": ("upwind",), "explicit-limited": SCHEMES}
_CHOICES = {"time_mode": tuple(MODE_SCHEMES), "limiter": SCHEMES}


def _range_error(key, value):
    """Why ``value`` is not admissible for ``key``; None when it is."""
    if not isinstance(value, int) and not math.isfinite(value):
        return f"{key} must be finite, got {value!r}"
    if key not in _RANGES:
        return None
    lo, hi, closed = _RANGES[key]
    if lo < value < hi or (closed and value in (lo, hi)):
        return None
    interval = (f"{'[' if closed else '('}{lo}, {hi}"
                f"{']' if closed and hi < math.inf else ')'}")
    return f"{key} must lie in {interval}, got {value!r}"


@dataclass
class CaseConfig:
    """Flat run configuration; mirrors the key = value config files."""

    n_cells: int = 250
    x_right: float = 4.5
    gamma: float = 1.4
    nu_F: float = 2.0
    nu_O: float = 1.0
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
    p_fresh: float = 9.9e4
    T_fresh: float = 283.0
    u_flame: float = 63.0
    t_start: float = 0.002
    t_end: float = 0.005
    cfl: float = None
    dt: float = None
    epsilon_per_h: float = 1e-2
    time_mode: str = "implicit-upwind"
    limiter: str = "upwind"

    def __post_init__(self):
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if f.name in _CHOICES:
                if value not in _CHOICES[f.name]:
                    raise ConfigError(f"unknown {f.name} {value!r}, expected "
                                      f"one of {', '.join(_CHOICES[f.name])}")
            elif value is not None:
                error = _range_error(f.name, value)
                if error:
                    raise ConfigError(error)
        if not self.t_end > self.t_start:
            raise ConfigError("t_end must exceed t_start")
        if self.cfl is not None and self.dt is not None:
            raise ConfigError("set at most one of cfl, dt")
        if self.cfl is None and self.dt is None:
            self.cfl = 0.8
        if self.dt is None and self.cfl > 1.0 and self.time_mode == "explicit-limited":
            raise ConfigError("cfl must lie in (0, 1] for explicit-limited mode")
        if self.limiter not in MODE_SCHEMES[self.time_mode]:
            raise ConfigError(f"limiter = {self.limiter} needs time_mode = "
                              f"explicit-limited: implicit mode always "
                              f"convects with upwind faces")

    @classmethod
    def from_dict(cls, data):
        known = {f.name: f for f in dc_fields(cls)}
        kwargs = {}
        for key, raw in data.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(key, raw, known[key].type)
        return cls(**kwargs)

    def mixture(self):
        try:
            return MixtureSpec(**{f.name: getattr(self, f.name)
                                  for f in dc_fields(MixtureSpec)})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def chem_config(self, flame_speed_product, h):
        """The chemistry step's parameters on a mesh of cell size ``h``: the
        chemical time is ``epsilon_per_h * h``, and implicit mode takes no
        limiter."""
        explicit = self.time_mode == "explicit-limited"
        return ChemStepConfig(
            epsilon=self.epsilon_per_h * h,
            flame_speed_product=flame_speed_product,
            limiter=self.limiter if explicit else None,
        )


def _coerce(key, raw, ftype):
    if isinstance(raw, str):
        raw = raw.strip()
    if ftype is int:
        # a string must spell an integer, and a number must be one: a float
        # or a bool is refused rather than truncated
        if isinstance(raw, (str, numbers.Integral)) and not isinstance(raw, bool):
            try:
                return int(raw)
            except ValueError:
                pass
        raise ConfigError(f"config key {key!r} needs an integer, got {raw!r}")
    if ftype is str:
        return str(raw)
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config key {key!r} needs a number, got {raw!r}") from None


def parse_config_text(text):
    """Parse flat ``key = value`` text with # comments into a dict of
    strings; a key set on two lines is a ``ConfigError``."""
    out = {}
    first_line = {}
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
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key!r} is already set on "
                              f"line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value
    return out


def load_config(path, overrides=()):
    """Read a config file and apply ``key=value`` override strings; an
    override of ``cfl`` or ``dt`` replaces the other one the file sets."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    changed = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        changed[key.strip()] = value.strip()
    step = {"cfl", "dt"}
    if len(step & changed.keys()) == 1 and len(step & data.keys()) == 1:
        data = {k: v for k, v in data.items() if k not in step}
    return CaseConfig.from_dict({**data, **changed})


class CaseSetup(NamedTuple):
    """Initialised case: the starting state plus everything derived.  It
    unpacks in field order, so that a caller need keep only what it reads."""

    state: FieldState
    pattern: object
    chem_config: ChemStepConfig
    n_steps: int


def _derive_dt(config, grid, rho_est, u):
    if config.dt is not None:
        return config.dt
    # the material CFL number of a unit step
    unit = cfl_number(primal_mass_flux(rho_est, u), rho_est, 1.0, grid)
    if not unit > 0.0:
        raise ConfigError("cannot derive dt from a CFL target with zero initial "
                          "flux: no face of the starting level carries mass; "
                          "set dt instead")
    return config.cfl / unit


def balanced_level(grid, mixture, dt, rho_prev, u, h_s, y_F, y_O, y_N, y_P, z,
                   G):
    """A time level whose (rho_prev, rho, flux, dt) close the discrete mass
    balance |K|/dt (rho - rho_prev) + F_right - F_left = 0.

    The density comes from one implicit upwind mass step from ``rho_prev``
    with the face velocities ``u``, the fluxes are the upwind fluxes of that
    density and p follows from the EOS, so the two-level identities the
    scheme relies on hold from the first step.
    """
    rho = upwind_mass_solve(grid, rho_prev, u, dt)
    flux = primal_mass_flux(rho, u)
    p = pressure_from_state(rho, h_s, mixture.gamma)
    return FieldState(
        grid=grid, mixture=mixture, dt=dt, rho_prev=rho_prev, rho=rho, u=u,
        p=p, h_s=h_s, y_F=y_F, y_O=y_O, y_N=y_N, y_P=y_P, z=z, G=G, flux=flux,
    )


def case_pattern(config):
    """The exact wave pattern of a case: the oracle's solution for its
    mixture, fresh state, fresh composition and flame speed."""
    mix = config.mixture()
    try:
        y_fresh = mass_fractions_from_molar(mix, config.molar_F, config.molar_O)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return solve_deflagration_riemann(
        mix, config.p_fresh, config.T_fresh, y_fresh, config.u_flame
    )


def initialize_case(config):
    """Build the starting state of a case.

    Cell scalars start from exact cell averages of the oracle solution at
    ``t_start``, the velocity from exact dual-cell averages; the oracle's
    cell densities are the previous level of a ``balanced_level``, which the
    conservation properties of the scheme assume.  The flame
    indicator moves at the oracle's mass-burning rate, so the run's flame is
    the one its L1 errors are measured against.
    """
    grid = build_uniform_grid(config.n_cells, config.x_right)
    pattern = case_pattern(config)
    cells = exact_cell_averages(pattern, grid, config.t_start)
    duals = exact_dual_averages(pattern, grid, config.t_start)
    u0 = duals["u"]
    u0[[0, -1]] = 0.0
    rho_prev = cells["rho"]
    scalars = {k: cells[k]
               for k in ("h_s", "y_F", "y_O", "y_N", "y_P", "z", "G")}

    dt_raw = _derive_dt(config, grid, rho_prev, u0)
    span = config.t_end - config.t_start
    steps = np.ceil(span / dt_raw - 1e-9)
    if not steps <= MAX_STEPS:
        raise ConfigError(f"the case needs {steps:.6g} steps of dt {dt_raw:.6g} "
                          f"to cover [{config.t_start!r}, {config.t_end!r}], "
                          f"more than {MAX_STEPS}")
    n_steps = max(1, int(steps))
    # the wave starts at the left wall; Python floats overflow without a warning
    x_shock = float(pattern.s_shock) * config.t_end
    if x_shock >= config.x_right:
        raise ConfigError(f"the precursor shock reaches x = {x_shock:.6g} by t_end "
                          f"{config.t_end!r}, at or past x_right {config.x_right!r}")

    state = balanced_level(grid, pattern.mixture, span / n_steps, rho_prev, u0,
                           **scalars)
    check_state_gates(state)
    return CaseSetup(
        state=state, pattern=pattern, n_steps=n_steps,
        chem_config=config.chem_config(pattern.flame_speed_product, grid.h),
    )


def check_state_gates(state, fractions=True):
    """Hard per-step solution gates; raises StepFailure on violation.

    Fractions go through ``require_fraction``; rho and e_s are tested the
    same way against (0, inf).  Returns the largest deviation of the
    mass-fraction sum from 1.  ``fractions=False`` leaves out the [0, 1]
    gates of y_F, y_O, y_N, y_P and G, for a state whose fractions
    ``chemistry_step`` has just gated; the sum is tested either way.
    """
    if fractions:
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


def advance(state, chem_config):
    """One full step: chemistry then flow; returns (new_state, info dict).

    The new state takes the starting state's dual density as its
    previous-level one.  ``info`` holds the stage results, the
    ``ChemResult`` as "chemistry" and the ``FlowResult`` as "flow", and the
    new state's "max_sum_y_error".
    """
    chem = chemistry_step(state, chem_config)
    flow = euler_step(state, chem.omega_theta)
    new_state = FieldState(
        grid=state.grid, mixture=state.mixture, dt=state.dt,
        rho_prev=state.rho, rho=flow.rho, u=flow.u, p=flow.p, h_s=flow.h_s,
        y_F=chem.y_F, y_O=chem.y_O, y_N=chem.y_N, y_P=chem.y_P,
        z=chem.z, G=chem.G, flux=flow.flux, prev_rho_d=state.rho_d,
    )
    # chemistry_step has gated every fraction of the new state
    sum_y_error = check_state_gates(new_state, fractions=False)
    return new_state, {"chemistry": chem, "flow": flow,
                       "max_sum_y_error": sum_y_error}


@dataclass
class RunResult:
    config: CaseConfig
    state: FieldState
    n_steps: int
    t_final: float
    diagnostics: np.ndarray  # DIAG_DTYPE records, one per step
    errors: dict
    energy_drift_rel: float
    wall_time: float


def run_case(config):
    """Run a case from t_start to t_end with the fixed step chosen at setup.

    ``diagnostics`` holds one ``DIAG_DTYPE`` record per step, with the total
    energy audited after it; the result keeps the last record's drift.  A
    run holds one time level and one step's results at a time: the starting
    level is let go after the first step, and each step's stage results
    after its record is written.  A StepFailure is raised again with the
    step index and the time the step started from in front of its message.
    """
    state, pattern, chem_config, n_steps = initialize_case(config)
    dt = state.dt
    e0 = total_energy(state)
    rows = np.empty(n_steps, DIAG_DTYPE)
    started = time.perf_counter()
    for step in range(1, n_steps + 1):
        t = config.t_start + step * dt
        try:
            state = _recorded_step(state, chem_config, rows, step, t, e0)
        except StepFailure as exc:
            t_from = config.t_start + (step - 1) * dt
            raise StepFailure(f"step {step} (t = {t_from:.9g}): {exc}") from exc
    wall = time.perf_counter() - started
    return RunResult(
        config=config, state=state, n_steps=n_steps, t_final=t,
        diagnostics=rows, errors=l1_error(state, pattern, t),
        energy_drift_rel=float(rows[-1]["energy_drift_rel"]), wall_time=wall,
    )


def _recorded_step(state, chem_config, rows, step, t, e0):
    """``advance`` a run's level by its step ``step``, which ends at ``t``,
    and return the new level.  The step's record is written from the new
    level, its energy against the starting ``e0`` and the stage results,
    which only this call holds, so they are freed before the next step."""
    state, info = advance(state, chem_config)
    e_now = total_energy(state)
    flow = info["flow"]
    rows[step - 1] = (
        step, t, state.dt, state.cfl,
        (state.grid.cell_volumes * state.rho).sum(),
        e_now, abs(e_now - e0) / abs(e0), flow.residual, flow.iterations,
        0,  # used_fallback, a kept column: Newton has no fallback
        flow.kinetic_residual.sum(), info["max_sum_y_error"],
        state.G.min(), state.G.max(),
    )
    return state


def l1_error(state, pattern, t):
    """Discrete L1 distances to the exact solution at time t.

    Cell fields integrate |difference| against the cell volumes; the
    velocity error integrates against the dual volumes, comparing with exact
    dual-cell averages, built once the cell averages are let go.
    """
    grid = state.grid
    mix = state.mixture
    cells = exact_cell_averages(pattern, grid, t)
    vol = grid.cell_volumes
    T_num = temperature(mix, state.e_s, state.y_F, state.y_O, state.y_N, state.y_P)
    errors = {k: float(np.sum(vol * np.abs(v - cells[k]))) for k, v in (
        ("p", state.p), ("rho", state.rho), ("y_F", state.y_F),
        ("G", state.G), ("T", T_num))}
    del cells, T_num
    u_exact = exact_dual_averages(pattern, grid, t)["u"]
    errors["u"] = float(np.sum(grid.dual_volumes * np.abs(state.u - u_exact)))
    return errors


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
    by ``_format``.  A file that cannot be written is a ConfigError."""
    lines = [f"# {k} = {_format(header[k])}" for k in sorted(header or {})]
    lines.append(",".join(columns))
    lines.extend(",".join(_format(v) for v in row) for row in rows)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def write_run_csvs(prefix, result):
    """Write ``<prefix>_profile.csv``, one row per cell of the final state,
    and ``<prefix>_diag.csv``, one row per step.  Both headers embed the
    resolved config and the run's t_final, dt_used and n_steps."""
    header = {k: v for k, v in vars(result.config).items() if v is not None}
    header.update(t_final=result.t_final, dt_used=result.state.dt,
                  n_steps=result.n_steps)
    state = result.state
    grid = state.grid
    mix = state.mixture
    T = temperature(mix, state.e_s, state.y_F, state.y_O, state.y_N, state.y_P)
    u_c = 0.5 * (state.u[:-1] + state.u[1:])
    # the profile's columns, in file order
    cols = {
        "x_center": grid.x_centers, "rho": state.rho, "p": state.p,
        "u_face_interp": u_c, "T": T, "e_s": state.e_s, "h_s": state.h_s,
        "y_F": state.y_F, "y_O": state.y_O, "y_N": state.y_N,
        "y_P": state.y_P, "z": state.z, "G": state.G,
    }
    write_csv(f"{prefix}_profile.csv", cols,
              np.column_stack(list(cols.values())), header)
    write_csv(f"{prefix}_diag.csv", DIAG_DTYPE.names, result.diagnostics, header)


def write_oracle_csv(path, pattern, config, t):
    """Sample the exact solution at time t at ``n_cells`` evenly spaced points
    spanning the domain, ends included; one column per field."""
    x = np.linspace(0.0, config.x_right, config.n_cells)
    fields = sample_solution(pattern, x, t)
    names = sorted(fields)
    write_csv(path, ["x"] + names, np.column_stack([x] + [fields[k] for k in names]))


# ---------------------------------------------------------------------------
# convergence study


def run_sweep(config, meshes, schemes):
    """Run ``config`` on every mesh for every face scheme; returns the
    ``RunResult`` of each run, scheme by scheme, meshes in the given order.

    Every run's config is built, and so checked, before the first run
    starts, and a repeated mesh or scheme is refused.  The time step follows
    the configured CFL target on every mesh and ``epsilon_per_h`` ties the
    reaction time scale to the cell size, so a sweep refines space and time
    together.
    """
    if config.dt is not None:
        raise ConfigError("a convergence study needs a cfl target, not a fixed dt")
    for kind, items in (("mesh", meshes), ("scheme", schemes)):
        repeated = [x for i, x in enumerate(items) if x in items[:i]]
        if repeated:
            raise ConfigError(f"{kind} {repeated[0]!r} is repeated: a sweep "
                              f"runs each {kind} once")
    configs = [replace(config, limiter=s, n_cells=n)
               for s in schemes for n in meshes]
    return [run_case(cfg) for cfg in configs]


def observed_orders(runs, field):
    """Observed orders of ``field``'s L1 error over one scheme's runs: the
    order of each consecutive pair of meshes, and the least-squares slope of
    log error against log h, NaN without two mesh sizes or with an error
    that is not positive."""
    h = [run.state.grid.h for run in runs]
    logh = np.log(h)
    e = np.array([run.errors[field] for run in runs])
    fit = len(set(h)) > 1
    with np.errstate(divide="ignore", invalid="ignore"):
        pairs = list(np.log(e[:-1] / e[1:]) / (logh[:-1] - logh[1:]))
        slope = (float(np.polyfit(logh, np.log(e), 1)[0])
                 if fit and np.all(e > 0) else float("nan"))
    return pairs, slope


def sweep_report(runs):
    """What a sweep's text and CSV report, computed once: for each scheme,
    in the order ``run_sweep`` returns them, a tuple of the scheme, its runs,
    each error field's observed orders and each run's burnt-zone distance."""
    report = []
    for scheme, group in groupby(runs, attrgetter("config.limiter")):
        group = list(group)
        report.append((scheme, group,
                       {f: observed_orders(group, f) for f in ERROR_FIELDS},
                       [burnt_zone_asymptotic_distance(r.state) for r in group]))
    return report


def sweep_text(report):
    """The text of a ``sweep_report``: per scheme its settings, the L1
    errors of each mesh, the observed orders, the burnt-zone distances and
    the wall times."""
    out = []
    for scheme, group, orders, dist in report:
        c = group[0].config
        eps = ",".join(f"{c.epsilon_per_h * r.state.grid.h:.6g}" for r in group)
        out += [
            f"scheme = {scheme}",
            f"  cfl = {_format(c.cfl)}",
            "  dt_per_mesh = " + ",".join(f"{r.state.dt:.6g}" for r in group),
            f"  epsilon_per_h = {_format(c.epsilon_per_h)}",
            f"  epsilon_per_mesh = {eps}",
            f"  gamma = {_format(c.gamma)}",
            "  steps_per_mesh = " + ",".join(str(r.n_steps) for r in group),
            f"  time_mode = {c.time_mode}",
            "    n      h     " + "".join(f"{f:>12}" for f in ERROR_FIELDS),
        ]
        for r in group:
            out.append(f"  {r.config.n_cells:5d}  {r.state.grid.h:.5f}"
                       + "".join(f"  {r.errors[f]:10.4e}" for f in ERROR_FIELDS))
        out.append("  observed orders (consecutive pairs, then least squares):")
        for f, (pairs, slope) in orders.items():
            out.append(f"    {f:>4}: {', '.join(f'{o:.3f}' for o in pairs)}"
                       f"  | ls {slope:.3f}")
        out.append("  burnt-zone distance to fast-chemistry limit: "
                   + ", ".join(f"{d:.4e}" for d in dist))
        out.append("  wall times [s]: "
                   + ", ".join(f"{r.wall_time:.2f}" for r in group))
    return "\n".join(out)


def write_sweep_csv(path, report):
    """Write one row per run of a ``sweep_report``; the last mesh of a
    scheme has no observed orders."""
    write_csv(path, _SWEEP_COLUMNS, (
        [scheme, r.config.n_cells, r.state.grid.h, r.wall_time, dist[i]]
        + [r.errors[f] for f in ERROR_FIELDS]
        + [orders[f][0][i] if i < len(group) - 1 else "" for f in ERROR_FIELDS]
        for scheme, group, orders, dist in report for i, r in enumerate(group)))
