"""Shared builders for the test suite."""

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from stagflame.grid import build_uniform_grid
from stagflame.harness import CaseConfig, balanced_level
from stagflame.thermo import z_from_fractions


def benchmark_mixture():
    return CaseConfig().mixture()


def make_state(grid, mixture, dt, rho_prev, u, h_s, y, G):
    """A ``balanced_level`` from array-likes, with z built from the fuel
    and oxidant fractions of ``y = (y_F, y_O, y_N, y_P)``."""
    y_F, y_O, y_N, y_P = (np.asarray(v, dtype=float) for v in y)
    return balanced_level(
        grid, mixture, dt, np.asarray(rho_prev, dtype=float),
        np.asarray(u, dtype=float), np.asarray(h_s, dtype=float),
        y_F, y_O, y_N, y_P, z_from_fractions(mixture, y_F, y_O),
        np.asarray(G, dtype=float))


def quiescent_state(n=16, rho_left=1.2, rho_right=0.4, p0=1.0e5, dt=1.0e-4,
                    mixture=None):
    """Stationary state with a density/composition jump under uniform pressure."""
    mix = mixture or benchmark_mixture()
    grid = build_uniform_grid(n, 1.0)
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
    return replace(state, p=np.full(n, p0))


def admissible_state(rho, p, u_interior, y_F, y_O, y_N, G, acoustic_cfl):
    """A state on the unit interval inside every gate, with a balanced mass
    level, stepped at the given acoustic CFL (c + |u|) dt / h."""
    rho, p, y_F, y_O, y_N, G = (np.asarray(v, dtype=float)
                                for v in (rho, p, y_F, y_O, y_N, G))
    n = rho.shape[0]
    mix = benchmark_mixture()
    grid = build_uniform_grid(n, 1.0)
    u = np.zeros(n + 1)
    u[1:-1] = u_interior
    y = (y_F, y_O, y_N, 1.0 - y_F - y_O - y_N)
    h_s = mix.gamma / (mix.gamma - 1.0) * p / rho
    speed = np.max(np.sqrt(mix.gamma * p / rho)) + np.max(np.abs(u))
    return make_state(grid, mix, acoustic_cfl * grid.h / speed, rho, u, h_s,
                      y, G)


@st.composite
def admissible_states(draw):
    """A small random state inside every gate, with a balanced mass level."""
    n = draw(st.integers(min_value=4, max_value=12))

    def cells(lo, hi, size=n):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size,
                                      max_size=size)))

    rho = cells(0.3, 2.0)
    p = cells(5.0e4, 2.0e5)
    u = cells(-60.0, 60.0, n - 1)
    y_F = cells(0.0, 0.05)
    y_O = cells(0.0, 0.3)
    y_N = cells(0.3, 0.6)
    G = cells(0.0, 1.0)
    # acoustic CFL up to 2; the benchmark runs at about 1.2
    return admissible_state(rho, p, u, y_F, y_O, y_N, G,
                            draw(st.floats(0.05, 2.0)))
