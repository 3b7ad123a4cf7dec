"""Field helpers for the tests: grid functions sampled at cell centres,
the cell array shape, 2-D views of cell and face arrays, the y-face
coordinates, a state copy with its own arrays, the discrete gradient and
divergence as field maps, and a field-snapshot reader."""

import struct
from pathlib import Path

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


def iterate_of(s) -> tuple:
    """The field arrays (v, q, mu, phi) of the state ``s``, the stepper's
    Newton iterate at ``s``."""
    return s.v.data, s.q.data, s.mu.data, s.phi.data


def grad(c) -> VectorField:
    """Two-point difference onto faces.  Box boundary faces are not stored;
    their homogeneous-Neumann value is identically zero."""
    return VectorField(c.grid, c.grid.ops.G @ c.data)


def div(u) -> ScalarField:
    """Conservative face difference per cell; exact negative adjoint of grad."""
    return ScalarField(u.grid, u.grid.ops.D @ u.data)


def read_field_snapshot(path):
    """(data, meta) of a field snapshot, decoded from its documented layout
    rather than from the writer's code: a 64-byte header (8-byte magic,
    uint32 nx, ny, kind and pad, float64 time, int64 step, zero padding),
    then little-endian float64 values.  meta holds the magic, nx, ny,
    kind, time, step and the header's last 24 bytes (``tail``)."""
    raw = Path(path).read_bytes()
    magic, nx, ny, kind, _, time, step = struct.unpack_from("<8s4Idq", raw)
    meta = {"magic": magic, "nx": nx, "ny": ny, "kind": kind, "time": time,
            "step": step, "tail": raw[40:64]}
    return np.frombuffer(raw[64:], dtype="<f8").astype(float), meta
