"""Field helpers for the tests: grid functions sampled at cell centres,
the cell array shape, 2-D views of cell and face arrays, the y-face
coordinates, and a state copy with its own arrays."""

import numpy as np

from surfflow.mesh import ScalarField, VectorField
from surfflow.state import State


def from_function(grid, fn) -> ScalarField:
    """``fn(X, Y)`` sampled at the cell centres."""
    X, Y = grid.cell_centers()
    return ScalarField(grid, np.asarray(fn(X, Y), dtype=float).ravel())


def cell_shape(grid) -> tuple:
    """The (nx, ny) shape of a cell array."""
    return (grid.nx, grid.ny)


def view2d(f) -> np.ndarray:
    """A scalar field's values as an (nx, ny) array."""
    return f.data.reshape(cell_shape(f.grid))


def ux2d(v) -> np.ndarray:
    """The x-face component of a vector field as a 2-D array."""
    return v.ux.reshape(v.grid.xface_shape)


def uy2d(v) -> np.ndarray:
    """The y-face component of a vector field as a 2-D array."""
    return v.uy.reshape(v.grid.yface_shape)


def yface_coords(grid):
    """Meshgrid of the y-face centres (the periodic grid has ny rows)."""
    x = (np.arange(grid.nx) + 0.5) * grid.dx
    if grid.periodic:
        y = np.arange(grid.ny) * grid.dy
    else:
        y = np.arange(1, grid.ny) * grid.dy
    return np.meshgrid(x, y, indexing="ij")


def copy_state(s) -> State:
    """A copy of the state ``s`` whose field arrays are its own."""
    return State(VectorField(s.grid, s.v.data.copy()),
                 *(ScalarField(s.grid, f.data.copy())
                   for f in (s.p, s.phi, s.mu, s.q)), s.t, s.k)
