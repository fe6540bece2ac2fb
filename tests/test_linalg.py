import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from stagflame.grid import build_uniform_grid
from stagflame.linalg import (load_flapack, solve_banded, upwind_band,
                              upwind_mass_solve)
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


# Imports the two modules in the order given and prints whether both hold
# the same gtsv.
_SAME_GTSV_PROBE = (
    "import importlib, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "import stagflame.linalg, scipy.linalg.lapack\n"
    "print(stagflame.linalg.dgtsv is scipy.linalg.lapack.dgtsv)\n"
)


@pytest.mark.parametrize("order", [("stagflame.linalg", "scipy.linalg.lapack"),
                                   ("scipy.linalg.lapack", "stagflame.linalg")])
def test_dgtsv_is_scipys_whichever_loads_first(order):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _SAME_GTSV_PROBE, str(src),
                           *order], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True"]


def test_missing_lapack_extension_is_an_import_error(tmp_path):
    # the message names the directory searched and the scipy it belongs to
    want = (f"no LAPACK extension _flapack in {tmp_path / 'linalg'} "
            f"(scipy found at {tmp_path})")
    with pytest.raises(ImportError, match=re.escape(want)):
        load_flapack(str(tmp_path))


def test_solve_banded_overwrite_flags_keep_the_result():
    rng = np.random.default_rng(5)
    ab = random_band(rng, 40, 0.3)
    b = rng.normal(size=40)
    want = scipy.linalg.solve_banded((1, 1), ab, b)
    got = solve_banded((1, 1), ab.copy(), b.copy(), overwrite_ab=True,
                       overwrite_b=True)
    assert np.array_equal(got, want)


def test_solve_banded_raises_on_singular_matrix():
    ab = np.array([[0.0, 1.0, 1.0, 1.0],
                   [0.0, 2.0, 2.0, 2.0],
                   [0.0, 1.0, 1.0, 0.0]])  # the first column is zero
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_banded((1, 1), ab, np.ones(4))


def test_solve_banded_only_takes_the_tridiagonal_band():
    # (1, 1) or its diagonal (0, 0)
    for band, rows in (((2, 2), 5), ((1, 0), 2), ((0, 1), 2)):
        with pytest.raises(ValueError, match=r"\(1, 1\) and \(0, 0\)"):
            solve_banded(band, np.ones((rows, 6)), np.ones(6))


@pytest.mark.parametrize("n", [2, 3, 64, 2000])
def test_diagonal_solve_is_bitwise_gtsv(n):
    # the diagonal held as a (1, 1) band with zero off-diagonals: gtsv
    # eliminates with zero multipliers, so it must give b / d bit for bit
    rng = np.random.default_rng(n + 7)
    for _ in range(20):
        diag = rng.uniform(1e-3, 1e3, n) * rng.choice([1.0, 1e-8, 1e8], n)
        ab = np.zeros((3, n))
        ab[1] = diag
        for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
            want = scipy.linalg.lapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:],
                                             b)[3]
            got = solve_banded((0, 0), diag[np.newaxis], b)
            assert got.shape == b.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_diagonal_solve_raises_on_a_zero_entry():
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_banded((0, 0), np.array([[2.0, 0.0, 1.0]]), np.ones(3))


def test_diagonal_solve_overwrites_only_b_and_only_when_asked():
    diag = np.array([[2.0, 4.0, 8.0]])
    b = np.array([1.0, 2.0, 3.0])
    x = solve_banded((0, 0), diag, b)
    assert b.tolist() == [1.0, 2.0, 3.0] and not np.shares_memory(x, b)
    x = solve_banded((0, 0), diag, b, overwrite_ab=True, overwrite_b=True)
    assert np.shares_memory(x, b)
    assert b.tolist() == x.tolist() == [0.5, 0.5, 0.375]
    assert diag.tolist() == [[2.0, 4.0, 8.0]]


def test_solve_banded_passes_nan_through():
    # the input is not scanned: NaN in, NaN out, no exception
    ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
    b = np.array([1.0, np.nan, 1.0])
    assert np.isnan(solve_banded((1, 1), ab, b)).any()


def test_upwind_mass_solve_balances_mass():
    rng = np.random.default_rng(11)
    grid = build_uniform_grid(30, 1.5)
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
