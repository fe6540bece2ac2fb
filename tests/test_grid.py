import numpy as np
import pytest

from stagflame.grid import build_uniform_grid


def test_uniform_grid_layout():
    g = build_uniform_grid(10, 2.5)
    assert g.n_cells == 10
    assert g.n_faces == 11
    assert g.h == pytest.approx(0.25)
    assert np.allclose(np.diff(g.x_faces), 0.25)
    assert np.allclose(g.x_centers, 0.5 * (g.x_faces[:-1] + g.x_faces[1:]))
    assert g.x_faces[0] == 0.0 and g.x_faces[-1] == 2.5


def test_dual_volumes_tile_the_domain():
    # half cells at the walls, full cells inside, same total as the primal mesh
    g = build_uniform_grid(7, 4.0)
    assert np.allclose(g.cell_volumes, g.h)
    assert g.dual_volumes[0] == pytest.approx(0.5 * g.h)
    assert g.dual_volumes[-1] == pytest.approx(0.5 * g.h)
    assert np.allclose(g.dual_volumes[1:-1], g.h)
    assert np.sum(g.dual_volumes) == pytest.approx(np.sum(g.cell_volumes))
    assert np.sum(g.cell_volumes) == pytest.approx(4.0)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_minimum_cell_count(n):
    with pytest.raises(ValueError):
        build_uniform_grid(n)


def test_empty_domain_rejected():
    # the left wall is at 0, so the right one must lie past it
    for x_right in (0.0, -1.0):
        with pytest.raises(ValueError, match="x_right must be positive"):
            build_uniform_grid(5, x_right)
