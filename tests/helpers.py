"""Shared builders for the test suite."""

import numpy as np

from stagflame.grid import build_uniform_grid
from stagflame.harness import CaseConfig
from stagflame.linalg import upwind_mass_solve
from stagflame.thermo import FieldState, pressure_from_state, z_from_fractions
from stagflame.transport import primal_mass_flux


def benchmark_mixture():
    return CaseConfig().mixture()


def make_state(grid, mixture, dt, rho_prev, u, h_s, y, G):
    """Build a FieldState whose (rho_prev, rho, flux, dt) are balanced.

    The density is produced by one implicit upwind mass step from
    ``rho_prev`` with the face velocities ``u``, exactly like case
    initialization does, so the two-level identities the solver relies on
    hold from the start.
    """
    rho_prev = np.asarray(rho_prev, dtype=float)
    u = np.asarray(u, dtype=float)
    rho = upwind_mass_solve(grid, rho_prev, u, dt)
    flux = primal_mass_flux(rho, u)
    y_F, y_O, y_N, y_P = (np.asarray(v, dtype=float) for v in y)
    return FieldState(
        grid=grid,
        mixture=mixture,
        dt=dt,
        rho_prev=rho_prev,
        rho=rho,
        u=u,
        p=pressure_from_state(rho, np.asarray(h_s, dtype=float), mixture.gamma),
        h_s=np.asarray(h_s, dtype=float),
        y_F=y_F,
        y_O=y_O,
        y_N=y_N,
        y_P=y_P,
        z=z_from_fractions(mixture, y_F, y_O),
        G=np.asarray(G, dtype=float),
        flux=flux,
    )


def quiescent_state(n=16, rho_left=1.2, rho_right=0.4, p0=1.0e5, dt=1.0e-4,
                    mixture=None):
    """Stationary state with a density/composition jump under uniform pressure."""
    mix = mixture or benchmark_mixture()
    grid = build_uniform_grid(n, 0.0, 1.0)
    rho = np.where(grid.x_centers < 0.5, rho_left, rho_right)
    u = np.zeros(grid.n_faces)
    h_s = mix.gamma * p0 / ((mix.gamma - 1.0) * rho)
    left = grid.x_centers < 0.5
    y_F = np.where(left, 0.0, 0.02)
    y_O = np.where(left, 0.0, 0.3)
    y_N = np.where(left, 0.6, 0.5)
    y_P = 1.0 - y_F - y_O - y_N
    state = make_state(grid, mix, dt, rho, u, h_s, (y_F, y_O, y_N, y_P),
                       np.ones(n))
    state.p = np.full(n, p0)
    return state
