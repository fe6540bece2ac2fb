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
    x_left, x_right : float
        Domain end points.
    x_faces : ndarray, shape (n_cells + 1,)
        Face positions, ``x_faces[0] == x_left`` and ``x_faces[-1] == x_right``.
    x_centers : ndarray, shape (n_cells,)
        Cell-center positions.
    h : float
        Uniform cell size.
    cell_volumes : ndarray, shape (n_cells,)
        Primal volumes, all equal to ``h``.
    dual_volumes : ndarray, shape (n_cells + 1,)
        Dual volumes: ``h`` at interior faces, ``h / 2`` at the two boundary
        faces.  They sum to the same total as the primal volumes.
    """

    n_cells: int
    x_left: float
    x_right: float
    x_faces: np.ndarray = field(repr=False)
    x_centers: np.ndarray = field(repr=False)
    h: float
    cell_volumes: np.ndarray = field(repr=False)
    dual_volumes: np.ndarray = field(repr=False)

    @property
    def n_faces(self):
        return self.n_cells + 1


def build_uniform_grid(n_cells, x_left=0.0, x_right=1.0):
    """Build a uniform staggered grid with ``n_cells`` cells on (x_left, x_right).

    Parameters
    ----------
    n_cells : int
        Number of cells; must be at least 3 so that every cell has a
        well-defined neighbour stencil on at least one side.
    x_left, x_right : float
        Domain bounds, ``x_left < x_right``.

    Returns
    -------
    StaggeredGrid
    """
    if n_cells < 3:
        raise ValueError(f"need at least 3 cells, got {n_cells}")
    if not x_right > x_left:
        raise ValueError(f"empty domain: ({x_left}, {x_right})")
    x_faces = np.linspace(x_left, x_right, n_cells + 1)
    h = (x_right - x_left) / n_cells
    x_centers = 0.5 * (x_faces[:-1] + x_faces[1:])
    cell_volumes = np.full(n_cells, h)
    dual_volumes = np.full(n_cells + 1, h)
    dual_volumes[0] = 0.5 * h
    dual_volumes[-1] = 0.5 * h
    return StaggeredGrid(
        n_cells=n_cells,
        x_left=float(x_left),
        x_right=float(x_right),
        x_faces=x_faces,
        x_centers=x_centers,
        h=h,
        cell_volumes=cell_volumes,
        dual_volumes=dual_volumes,
    )
