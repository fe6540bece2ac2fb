"""One-dimensional staggered (MAC) grid.

Scalars (density, pressure, enthalpy, mass fractions) live at cell centers;
the velocity lives at the faces between cells and at the two boundary faces.
Each face ``sigma`` owns a dual cell ``D_sigma`` made of the half-cells
adjacent to it, so the dual volumes tile the domain exactly like the primal
volumes do.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class StaggeredGrid:
    """Uniform 1D staggered grid.

    Attributes
    ----------
    n_cells : int
        Number of primal cells (at least 3).
    x_faces : ndarray, shape (n_cells + 1,)
        Face positions, from the left wall at 0 to the right wall.
    x_centers : ndarray, shape (n_cells,)
        Cell-center positions.
    h : float
        Uniform cell size.
    cell_volumes : ndarray, shape (n_cells,)
        Primal volumes, all equal to ``h``.
    dual_volumes : ndarray, shape (n_cells + 1,)
        Dual volumes: ``h`` at interior faces, ``h / 2`` at the two boundary
        faces.  They sum to the same total as the primal volumes.
    cells_right, cells_left : ndarray of int, shape (3, n_cells + 1)
        The upwind, downwind and far-upstream cell of every face for flow
        to the right and to the left; the face-value stencil of a step picks
        one column of either per face.  A wall face holds its adjacent cell
        in all three rows, and the far upstream cell is the upwind one where
        none lies beyond it.
    """

    n_cells: int
    x_faces: np.ndarray = field(repr=False)
    x_centers: np.ndarray = field(repr=False)
    h: float
    cell_volumes: np.ndarray = field(repr=False)
    dual_volumes: np.ndarray = field(repr=False)
    cells_right: np.ndarray = field(repr=False)
    cells_left: np.ndarray = field(repr=False)

    @property
    def n_faces(self):
        return self.n_cells + 1


def build_uniform_grid(n_cells, x_right=1.0):
    """Build a uniform staggered grid with ``n_cells`` cells on (0, x_right).

    Parameters
    ----------
    n_cells : int
        Number of cells; must be at least 3 so that every cell has a
        well-defined neighbour stencil on at least one side.
    x_right : float
        Right wall, ``x_right > 0``; the left wall is at 0.

    Returns
    -------
    StaggeredGrid
    """
    if n_cells < 3:
        raise ValueError(f"need at least 3 cells, got {n_cells}")
    if not x_right > 0.0:
        raise ValueError(f"empty domain: x_right must be positive, got {x_right}")
    x_faces = np.linspace(0.0, x_right, n_cells + 1)
    h = x_right / n_cells
    x_centers = 0.5 * (x_faces[:-1] + x_faces[1:])
    cell_volumes = np.full(n_cells, h)
    dual_volumes = np.full(n_cells + 1, h)
    dual_volumes[0] = 0.5 * h
    dual_volumes[-1] = 0.5 * h
    # face j: upwind, downwind and far-upstream cell, kept inside the mesh
    faces = np.arange(n_cells + 1)
    cells_right = np.stack([faces - 1, faces, faces - 2])
    cells_left = np.stack([faces, faces - 1, faces + 1])
    for cells in (cells_right, cells_left):
        np.clip(cells, 0, n_cells - 1, out=cells)
        cells[:, 0] = 0
        cells[:, -1] = n_cells - 1
    return StaggeredGrid(
        n_cells=n_cells,
        x_faces=x_faces,
        x_centers=x_centers,
        h=h,
        cell_volumes=cell_volumes,
        dual_volumes=dual_volumes,
        cells_right=cells_right,
        cells_left=cells_left,
    )
