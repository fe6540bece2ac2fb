import numpy as np
import pytest
import scipy.linalg

from stagflame.grid import build_uniform_grid
from stagflame.linalg import solve_banded, upwind_band, upwind_mass_solve
from stagflame.transport import primal_mass_flux


def random_band(rng, n, dominance):
    """A random (1, 1) band; ``dominance`` scales the diagonal."""
    ab = rng.normal(size=(3, n))
    ab[1] *= dominance
    return ab


@pytest.mark.parametrize("n", [2, 3, 7, 64, 500])
@pytest.mark.parametrize("dominance", [0.05, 1.0, 10.0])
def test_solve_banded_is_bitwise_scipy(n, dominance):
    # a weak diagonal makes gtsv swap rows; the results must still agree
    # bit for bit, because both call the same LAPACK routine on the same data
    rng = np.random.default_rng(n * 101 + int(100 * dominance))
    for _ in range(20):
        ab = random_band(rng, n, dominance)
        b = rng.normal(size=n)
        want = scipy.linalg.solve_banded((1, 1), ab, b)
        assert np.array_equal(solve_banded((1, 1), ab, b), want)
        B = rng.normal(size=(n, 3))
        want = scipy.linalg.solve_banded((1, 1), ab, B)
        assert np.array_equal(solve_banded((1, 1), ab, B), want)


def test_solve_banded_overwrite_flags_keep_the_result():
    rng = np.random.default_rng(5)
    ab = random_band(rng, 40, 0.3)
    b = rng.normal(size=40)
    want = scipy.linalg.solve_banded((1, 1), ab, b)
    got = solve_banded((1, 1), ab.copy(), b.copy(), overwrite_ab=True,
                       overwrite_b=True, check_finite=False)
    assert np.array_equal(got, want)


def test_solve_banded_raises_on_singular_matrix():
    ab = np.array([[0.0, 1.0, 1.0, 1.0],
                   [0.0, 2.0, 2.0, 2.0],
                   [0.0, 1.0, 1.0, 0.0]])  # the first column is zero
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_banded((1, 1), ab, np.ones(4))


def test_solve_banded_only_takes_the_tridiagonal_band():
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        solve_banded((2, 2), np.ones((5, 6)), np.ones(6))


def test_solve_banded_checks_finite_input_unless_told_not_to():
    ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
    b = np.array([1.0, np.nan, 1.0])
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_banded((1, 1), ab, b)
    assert np.isnan(solve_banded((1, 1), ab, b, check_finite=False)).any()


def test_upwind_mass_solve_balances_mass():
    rng = np.random.default_rng(11)
    grid = build_uniform_grid(30, 0.0, 1.5)
    dt = 0.02
    for _ in range(20):
        rho_old = rng.uniform(0.3, 2.0, grid.n_cells)
        u = np.zeros(grid.n_faces)
        u[1:-1] = rng.uniform(-3.0, 3.0, grid.n_faces - 2)
        u[rng.integers(1, grid.n_faces - 1, 4)] = 0.0
        rho = upwind_mass_solve(grid, rho_old, u, dt)
        F = primal_mass_flux(rho, u)
        res = grid.cell_volumes / dt * (rho - rho_old) + F[1:] - F[:-1]
        scale = np.max(grid.cell_volumes / dt * rho_old)
        assert np.max(np.abs(res)) <= 1e-14 * scale
        assert np.min(rho) > 0.0
        assert np.sum(grid.cell_volumes * rho) == pytest.approx(
            np.sum(grid.cell_volumes * rho_old), rel=1e-14)


def test_upwind_band_is_the_upwind_operator():
    # diag0 y + div(c y_upwind), face by face, against the band's product
    rng = np.random.default_rng(12)
    n = 9
    diag0 = rng.uniform(0.5, 2.0, n)
    c = rng.uniform(-1.0, 1.0, n - 1)
    c[3] = 0.0
    y = rng.uniform(-1.0, 1.0, n)
    ab = upwind_band(diag0, c)
    assert ab[0, 0] == 0.0 and ab[2, -1] == 0.0
    A = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    flux = np.zeros(n + 1)
    flux[1:-1] = c * np.where(c >= 0.0, y[:-1], y[1:])
    assert np.allclose(A @ y, diag0 * y + flux[1:] - flux[:-1], rtol=0.0,
                       atol=1e-14)
    # an M-matrix: non-positive off-diagonals, columns summing to diag0
    assert np.all(ab[0] <= 0.0) and np.all(ab[2] <= 0.0)
    assert np.allclose(A.sum(axis=0), diag0, rtol=1e-14, atol=0.0)
