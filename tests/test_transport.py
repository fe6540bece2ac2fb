import numpy as np
import pytest
from hypothesis import given, strategies as st

from stagflame import transport
from stagflame.grid import build_uniform_grid
from stagflame.transport import (
    cfl_number,
    dual_density,
    dual_mass_flux,
    face_stencil,
    face_values,
    primal_mass_flux,
)

val = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def grid3():
    return build_uniform_grid(3, 3.0)


# ---------------------------------------------------------------------------
# per-face reference routines: one interior face j at a time, written with
# scalar branches and reading the scheme tuning from stagflame.transport
# (which the tests of other tunings monkeypatch); the vectorised kernels
# there must match them bit for bit (test_vectorized_matches_scalar)


def _interval(a, b):
    return (min(a, b), max(a, b))


def upwind_face_value(y, F, j):
    """Value convected through interior face j by plain upwinding."""
    return y[j - 1] if F[j] >= 0.0 else y[j]


def muscl_face_value(y, F, j):
    """MUSCL face value at interior face j (see ``face_values``)."""
    n = len(y)
    if F[j] >= 0.0:
        up, dn = j - 1, j
    else:
        up, dn = j, j - 1
    tentative = 0.5 * (y[j - 1] + y[j])
    lo1, hi1 = _interval(y[up], y[up] + 0.5 * transport.ZETA_PLUS * (y[dn] - y[up]))
    m = 2 * up - dn
    y_m = y[m] if 0 <= m < n else y[up]
    lo2, hi2 = _interval(y[up], y[up] + 0.5 * transport.ZETA_MINUS * (y[up] - y_m))
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    return min(max(tentative, lo), hi)


def antidiffusive_face_value(y, F, j, rho_next, dt, grid):
    """Anti-diffusive face value at interior face j (see ``face_values``)."""
    n = len(y)
    if F[j] >= 0.0:
        up, dn = j - 1, j
        opf = j - 1
    else:
        up, dn = j, j - 1
        opf = j + 1
    vol = rho_next[up] * grid.cell_volumes[up]
    nu = dt * abs(F[j]) / vol
    if nu <= 0.0:
        return y[up]
    nu_other = dt * abs(F[opf]) / vol
    zeta = min(max((1.0 - nu_other) / nu, 0.0), transport.S_MAX)
    m = 2 * up - dn
    y_m = y[m] if 0 <= m < n else y[up]
    far = y[up] + zeta * (y[up] - y_m)
    lo, hi = _interval(far, y[up])
    return min(max(y[dn], lo), hi)


# ---------------------------------------------------------------------------
# mass fluxes


def test_primal_flux_upwinds_the_density():
    rho = np.array([2.0, 4.0, 8.0])
    u = np.array([9.0, 1.0, -1.0, 9.0])  # wall values are ignored
    F = primal_mass_flux(rho, u)
    assert F[0] == 0.0 and F[-1] == 0.0
    assert F[1] == 1.0 * 2.0   # flow to the right takes the left cell
    assert F[2] == -1.0 * 8.0  # flow to the left takes the right cell


def test_primal_flux_tie_takes_left_cell():
    rho = np.array([2.0, 4.0, 8.0])
    u = np.zeros(4)
    assert np.all(primal_mass_flux(rho, u) == 0.0)
    # a zero velocity never reads the right cell, whatever its density
    assert np.all(primal_mass_flux(np.array([2.0, np.inf]), np.zeros(3)) == 0.0)
    # the upwind face value at a zero flux of either sign takes it too
    F = np.array([0.0, 0.0, -0.0, 0.0])
    stencil = face_stencil(F, "upwind", rho, 1.0, grid3())
    assert face_values(rho, stencil).tolist() == [2.0, 2.0, 4.0, 8.0]


def test_dual_flux_is_average_of_primal_pair():
    F = np.array([0.0, 2.0, -4.0, 0.0])
    assert np.allclose(dual_mass_flux(F), [1.0, -1.0, -2.0])


def test_dual_flux_inherits_primal_balance():
    rng = np.random.default_rng(3)
    grid = build_uniform_grid(40, 2.0)
    dt = 1e-2
    for _ in range(20):
        rho_old = rng.uniform(0.5, 2.0, grid.n_cells)
        u = np.zeros(grid.n_faces)
        u[1:-1] = rng.uniform(-1.0, 1.0, grid.n_faces - 2)
        F = primal_mass_flux(rho_old, u)
        rho_new = rho_old - dt / grid.cell_volumes * (F[1:] - F[:-1])
        Fd = dual_mass_flux(F)
        # every dual cell balances with the volume-weighted dual density
        rho_d_old = dual_density(grid, rho_old)
        rho_d_new = dual_density(grid, rho_new)
        for rho, rho_d in ((rho_old, rho_d_old), (rho_new, rho_d_new)):
            by_hand = np.concatenate(([rho[0]], 0.5 * (rho[:-1] + rho[1:]),
                                      [rho[-1]]))
            assert np.array_equal(rho_d, by_hand)
        edge = np.concatenate(([0.0], Fd, [0.0]))
        res = grid.dual_volumes / dt * (rho_d_new - rho_d_old) + edge[1:] - edge[:-1]
        assert np.max(np.abs(res)) < 1e-12 * max(1.0, np.max(np.abs(F)) / dt)


def test_cfl_number_example():
    # two unit fluxes through a unit cell of unit density, dt = 1/4 -> 0.5
    grid = grid3()
    F = np.array([1.0, 1.0, 1.0, 1.0])
    assert cfl_number(F, np.ones(3), 0.25, grid) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# MUSCL face values


def _muscl3(y_m, y_up, y_dn):
    y = np.array([y_m, y_up, y_dn])
    F = np.array([0.0, 1.0, 1.0, 0.0])
    return muscl_face_value(y, F, 2)


def test_muscl_smooth_ramp_gives_centered_value():
    assert _muscl3(0.0, 1.0, 2.0) == pytest.approx(1.5)


def test_muscl_local_extremum_falls_back_to_upwind():
    assert _muscl3(0.0, 1.0, 0.0) == pytest.approx(1.0)


def test_muscl_zero_zeta_is_upwind(monkeypatch):
    monkeypatch.setattr(transport, "ZETA_MINUS", 0.0)
    monkeypatch.setattr(transport, "ZETA_PLUS", 0.0)
    assert _muscl3(0.0, 1.0, 2.0) == pytest.approx(1.0)


def test_muscl_missing_far_cell_is_upwind():
    # face 1 with positive flux has no far upstream cell on a 3-cell grid
    y = np.array([0.0, 1.0, 2.0])
    F = np.array([0.0, 1.0, 1.0, 0.0])
    assert muscl_face_value(y, F, 1) == pytest.approx(0.0)


def _minmod_face(y_m, y_up, y_dn):
    a = y_up - y_m
    b = y_dn - y_up
    if a * b <= 0.0:
        return y_up
    return y_up + 0.5 * np.sign(a) * min(abs(a), abs(b))


@given(y_m=val, y_up=val, y_dn=val)
def test_muscl_unit_zetas_equal_minmod(y_m, y_up, y_dn):
    got = _muscl3(y_m, y_up, y_dn)
    assert got == pytest.approx(_minmod_face(y_m, y_up, y_dn), abs=1e-13)


def test_muscl_reversed_flow_mirrors():
    y = np.array([2.0, 1.0, 0.0])
    F = np.array([0.0, -1.0, -1.0, 0.0])
    assert muscl_face_value(y, F, 1) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# anti-diffusive face values


def _ad3(y, F, dt):
    return antidiffusive_face_value(np.asarray(y, float), np.asarray(F, float),
                                    2, np.ones(3), dt, grid3())


def test_antidiffusive_plateau_is_upwind():
    assert _ad3([1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], 0.5) == pytest.approx(1.0)


def test_antidiffusive_reaches_downwind_value():
    # nu = nu' = 1/2 allows zeta = 1, far enough to hand over the downwind 0
    assert _ad3([1.0, 0.5, 0.0], [1.0, 1.0, 1.0, 1.0], 0.5) == pytest.approx(0.0)


def test_antidiffusive_zero_cap_is_upwind(monkeypatch):
    monkeypatch.setattr(transport, "S_MAX", 0.0)
    assert _ad3([1.0, 0.5, 0.0], [1.0, 1.0, 1.0, 1.0], 0.5) == pytest.approx(0.5)


def test_antidiffusive_zero_flux_is_upwind():
    assert _ad3([1.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0], 0.5) == pytest.approx(0.5)


def test_antidiffusive_stays_between_upwind_and_downwind(monkeypatch):
    rng = np.random.default_rng(5)
    grid = build_uniform_grid(12, 12.0)
    monkeypatch.setattr(transport, "S_MAX", 50.0)
    for _ in range(200):
        y = rng.uniform(-1.0, 1.0, 12)
        u = np.zeros(13)
        u[1:-1] = rng.uniform(-1.0, 1.0, 11)
        rho = rng.uniform(0.5, 2.0, 12)
        F = primal_mass_flux(rho, u)
        vals = face_values(y, face_stencil(F, "antidiffusive", rho, 0.4, grid))
        for j in range(1, 12):
            lo = min(y[j - 1], y[j])
            hi = max(y[j - 1], y[j])
            assert lo - 1e-14 <= vals[j] <= hi + 1e-14


# ---------------------------------------------------------------------------
# vectorized versions agree with the per-face ones


# the ids name the far-cell rule: the cell opposite the downwind one,
# mirrored through the upwind cell
@pytest.mark.parametrize("scheme", ["upwind", "muscl", "antidiffusive"],
                         ids=lambda scheme: f"opposite_cells-{scheme}")
def test_vectorized_matches_scalar(monkeypatch, scheme):
    # every face, walls included, must come out bit for bit as the per-face
    # routine computes it: meshes down to 3 cells put every interior face
    # next to a wall, and about a third of the interior faces carry no flux
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.choice([3, 4, 5, 8, 11, 24]))
        grid = build_uniform_grid(n, 2.0)
        for name, value in (
                ("ZETA_MINUS", float(rng.uniform(0.0, 2.0))),
                ("ZETA_PLUS", float(rng.uniform(0.0, 2.0))),
                ("S_MAX", float(rng.choice([0.0, 1.7, 2.0,
                                            rng.uniform(0.0, 5.0)])))):
            monkeypatch.setattr(transport, name, value)
        y = rng.uniform(-2.0, 2.0, n)
        u = np.zeros(n + 1)
        u[1:-1] = rng.uniform(-1.0, 1.0, n - 1)
        u[1:-1][rng.random(n - 1) < 0.3] = 0.0
        rho = rng.uniform(0.5, 2.0, n)
        F = primal_mass_flux(rho, u)
        dt = float(rng.uniform(0.005, 0.2))
        got = face_values(y, face_stencil(F, scheme, rho, dt, grid))
        want = [y[0]]
        for j in range(1, n):
            if scheme == "upwind":
                want.append(upwind_face_value(y, F, j))
            elif scheme == "muscl":
                want.append(muscl_face_value(y, F, j))
            else:
                want.append(antidiffusive_face_value(y, F, j, rho, dt, grid))
        want.append(y[-1])
        assert got.tolist() == want


def test_upwind_face_values_boundaries():
    y = np.array([3.0, 4.0, 5.0])
    F = np.array([0.0, 1.0, -1.0, 0.0])
    stencil = face_stencil(F, "upwind", np.ones(3), 1.0, grid3())
    assert face_values(y, stencil).tolist() == [3.0, 3.0, 5.0, 5.0]


def test_stencil_geometry_at_walls_and_zero_flux():
    # walls take the adjacent cell in every row; the anti-diffusive slope is
    # 0 there and on every face without flux, so those faces are upwind
    grid = build_uniform_grid(4, 4.0)
    F = np.array([0.0, 1.0, 0.0, -1.0, 0.0])
    stencil = face_stencil(F, "antidiffusive", np.ones(4), 0.25, grid)
    assert stencil.cells.tolist() == [[0, 0, 1, 3, 3],
                                      [0, 1, 2, 2, 3],
                                      [0, 0, 0, 3, 3]]
    assert stencil.zeta[[0, 2, 4]].tolist() == [0.0, 0.0, 0.0]
    assert stencil.zeta[1] == stencil.zeta[3] == 2.0  # (1 - 0) / (1/4), capped
    # faces 1 and 3 have no far upstream cell, which closes their interval
    y = np.array([1.0, 0.5, 0.0, 0.25])
    assert face_values(y, stencil).tolist() == [1.0, 1.0, 0.5, 0.25, 0.25]


@pytest.mark.parametrize("scheme", [None, "parabolic", "Upwind", ""])
def test_face_stencil_refuses_a_scheme_it_does_not_know(scheme):
    # refused before anything is built, not later inside face_values
    F = np.array([0.0, 1.0, -1.0, 1.0, 0.0])
    with pytest.raises(ValueError) as info:
        face_stencil(F, scheme, np.ones(4), 0.25, build_uniform_grid(4, 4.0))
    assert str(info.value) == (f"unknown face scheme {scheme!r}, expected "
                               f"one of upwind, muscl, antidiffusive")


@pytest.mark.parametrize("scheme", transport.SCHEMES)
def test_face_stencil_builds_every_scheme(scheme):
    F = np.array([0.0, 1.0, -1.0, 1.0, 0.0])
    stencil = face_stencil(F, scheme, np.ones(4), 0.25,
                           build_uniform_grid(4, 4.0))
    assert stencil.scheme == scheme
    vals = face_values(np.array([1.0, 0.5, 0.0, 0.25]), stencil)
    assert vals.shape == (5,) and np.all((vals >= 0.0) & (vals <= 1.0))


def index_built_stencil(F, rho_next, dt, grid):
    """``(cells, zeta)`` built with index arithmetic on the face numbers and
    ``np.clip``, the construction the grid's two templates replace."""
    n = F.shape[0] - 1
    pos = F[1:n] >= 0.0
    cells = np.empty((3, n + 1), dtype=np.intp)
    cells[:, 0] = 0
    cells[:, n] = n - 1
    up, dn, far = cells[:, 1:n]
    np.subtract(np.arange(1, n), pos, out=up)
    np.subtract(np.arange(1, 2 * n - 2, 2), up, out=dn)
    np.subtract(up, dn, out=far)
    far += up
    far[0] = max(far[0], 0)
    far[-1] = min(far[-1], n - 1)
    abs_F = np.abs(F)
    vol = np.multiply(rho_next, grid.cell_volumes)[up]
    nu = dt * abs_F[1:n]
    nu /= vol
    nu_other = np.where(pos, abs_F[:-2], abs_F[2:])
    nu_other *= dt
    nu_other /= vol
    zeta = np.zeros(n + 1)
    with np.errstate(over="ignore"):
        np.divide(np.subtract(1.0, nu_other, out=nu_other), nu,
                  out=zeta[1:n], where=nu > 0.0)
    return cells, np.clip(zeta, 0.0, transport.S_MAX, out=zeta)


@pytest.mark.parametrize("left_wall_flow", [1.0, -1.0])
@pytest.mark.parametrize("right_wall_flow", [1.0, -1.0])
def test_stencil_matches_index_arithmetic(monkeypatch, left_wall_flow,
                                          right_wall_flow):
    # zero-flux faces inside the domain and either flow direction on the
    # faces next to each wall: the cells and zeta must come out bit for bit
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.choice([3, 4, 6, 13, 40]))
        grid = build_uniform_grid(n, 2.0)
        F = np.zeros(n + 1)
        F[1:-1] = rng.uniform(-1.0, 1.0, n - 1)
        F[1:-1][rng.random(n - 1) < 0.3] = 0.0
        F[1] = left_wall_flow * rng.uniform(0.1, 1.0)
        F[n - 1] = right_wall_flow * rng.uniform(0.1, 1.0)
        rho = rng.uniform(0.5, 2.0, n)
        dt = float(rng.uniform(0.005, 2.0))
        monkeypatch.setattr(transport, "S_MAX",
                            float(rng.choice([0.0, 1.3, 2.0, 50.0])))
        cells, zeta = index_built_stencil(F, rho, dt, grid)
        stencil = face_stencil(F, "antidiffusive", rho, dt, grid)
        assert stencil.cells.tolist() == cells.tolist()
        assert stencil.zeta.view(np.int64).tolist() == zeta.view(np.int64).tolist()
        # upwind keeps the one row its face values read
        for scheme, rows in (("upwind", 1), ("muscl", 3)):
            other = face_stencil(F, scheme, rho, dt, grid)
            assert other.cells.tolist() == cells[:rows].tolist()

