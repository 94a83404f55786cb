"""Periodic staggered meshes and first-order one-sided difference operators.

A :class:`StaggeredGrid` carries two interleaved point families on a periodic
lattice: density points ("rho" family) and fluctuation points ("g" family).
Both families have the same size ``n_points`` and share one linear index
space.  By construction the g point with linear index ``k`` sits half a cell
in ``+x`` from the rho point with index ``k``; this pairing is what turns the
one-sided differences below into compact centered staggered differences when
a differenced field is read on the complementary family.

Point families
--------------
Each family holds two blocks of one point per cell:

* rho block 0: cell centers; block 1: cell corners (interfaces in 1D)
* g   block 0: x-faces, the centers shifted ``dx/2`` in x
* g   block 1: y-faces, the corners shifted ``dx/2`` in x (centers in 1D)

and in 2D ``g_coords_y`` holds the centers and corners shifted ``dy/2`` in y.
Point ``i`` of a block sits on each axis at ``lo + (i + o) h``, wrapped into
the box where ``o >= 1``; :data:`_OFFSETS` lists each family's offsets ``o``.

Within each block, points are ordered row-major (y outer, x inner), so the
same index permutation implements a one-cell shift on every block of either
family.  Grids are immutable; ``diff``, ``increment`` and ``shift`` read
only their field and write only into a new array or the ``out`` array their
caller passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StaggeredGrid:
    """Immutable periodic staggered mesh in one or two dimensions.

    Attributes
    ----------
    dim : 1 or 2.
    bounds : per-axis ``(lo, hi)`` interval bounds.
    cells : per-axis cell counts ``(nx,)`` or ``(nx, ny)``.
    spacing : per-axis mesh widths, ``spacing[j] = length_j / cells[j]``.
    rho_coords, g_coords : ``(n_points, dim)`` coordinates of the two point
        families, linear-index order, wrapped into the periodic box.
    g_coords_y : y-offset sampling points ``rho + dy/2 e_y`` paired with the
        same linear indices (equal to ``g_coords`` in 1D).  A fluctuation row
        carries staggered content: quantities entering x-direction fluxes are
        sampled at ``g_coords``, quantities entering y-direction fluxes at
        ``g_coords_y``; both difference operators below are then centered at
        their respective sample points.
    """

    dim: int
    bounds: tuple
    cells: tuple
    spacing: tuple
    rho_coords: np.ndarray
    g_coords: np.ndarray
    g_coords_y: np.ndarray

    @property
    def n_points(self) -> int:
        """Common size of the rho and g families (2 * number of cells)."""
        return self.rho_coords.shape[0]

    @property
    def cell_volume(self) -> float:
        """Product of the per-axis spacings."""
        return float(np.prod(self.spacing))

    @property
    def block_shape(self) -> tuple:
        """Shape ``(2, nx)`` or ``(2, ny, nx)`` used to view linear fields."""
        return (2, *self.cells[::-1])


#: Per dimension and family, the per-axis offsets ``o`` of blocks 0 and 1.
_OFFSETS = {
    1: {"rho": ((0.5,), (0.0,)), "g": ((1.0,), (0.5,))},
    2: {
        "rho": ((0.5, 0.5), (1.0, 1.0)),
        "g": ((1.0, 0.5), (1.5, 1.0)),
        "g_y": ((0.5, 1.0), (1.0, 1.5)),
    },
}


def build_grid(dim: int, bounds, cells) -> StaggeredGrid:
    """Build a periodic staggered grid.

    Parameters
    ----------
    dim : 1 or 2.
    bounds : ``(lo, hi)`` or ``((lo_x, hi_x), (lo_y, hi_y))``.
    cells : cell count per axis, a scalar in 1D; each >= 2.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    if bounds.shape != (dim, 2):
        raise ValueError(f"expected {dim} (lo, hi) bound pairs, got {bounds.shape}")
    cells = tuple(int(c) for c in np.atleast_1d(cells))
    if len(cells) != dim:
        raise ValueError("one cell count per axis required")
    if any(c < 2 for c in cells):
        raise ValueError(f"need at least 2 cells per axis, got {cells}")
    if any(hi <= lo for lo, hi in bounds):
        raise ValueError("degenerate domain: bounds must satisfy lo < hi")

    spacing = tuple((hi - lo) / c for (lo, hi), c in zip(bounds, cells))

    coords = {}
    for family, blocks in _OFFSETS[dim].items():
        arr = np.empty((2, *cells[::-1], dim))      # row-major: y outer, x inner
        for block, offsets in enumerate(blocks):
            for axis, o in enumerate(offsets):
                (lo, hi), h, c = bounds[axis], spacing[axis], cells[axis]
                v = lo + (np.arange(c) + o) * h
                if o >= 1:                  # wrap into the periodic box
                    v = lo + np.mod(v - lo, hi - lo)
                arr[block, ..., axis] = v.reshape((c,) + (1,) * axis)
        coords[family] = arr.reshape(-1, dim)
        coords[family].setflags(write=False)
    return StaggeredGrid(
        dim=dim,
        bounds=tuple(map(tuple, bounds)),
        cells=cells,
        spacing=spacing,
        rho_coords=coords["rho"],
        g_coords=coords["g"],
        g_coords_y=coords.get("g_y", coords["g"]),
    )


def diff(
    grid: StaggeredGrid,
    axis: int,
    side: int,
    field: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One-sided one-cell difference ``(f(shifted) - f) / spacing[axis]``.

    ``side=+1`` differences forward (``(f_{+1 cell} - f)/dx``), ``side=-1``
    backward; any other ``side`` raises ``ValueError``.  Rows of
    matrix-valued fields are differenced independently.
    The result is read on the complementary point family: differencing a rho
    field forward in ``x`` yields values centered on the paired g points, and
    differencing a g field backward in ``x`` yields values centered on the
    paired rho points.  ``diff(grid, j, -1, .)`` is the negated transpose of
    ``diff(grid, j, +1, .)``, which gives exact summation by parts on the
    periodic lattice.  It is :func:`increment` divided in place by the
    spacing; ``out``, if given, receives the result and may be any view of
    the field's shape, e.g. a column slice of a wider block.
    """
    out = increment(grid, axis, side, field, out)
    out /= grid.spacing[axis]
    return out


def increment(grid: StaggeredGrid, axis: int, side: int, field: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Undivided increment ``f(shifted) - f``, the numerator of :func:`diff`.

    :func:`_line_increment` along the axis, which the full-rank sweep's
    upwind advection :func:`lrtrans.fullrank._advect_rows` also calls on
    its blocks along the inner axis: two slice subtractions into one output
    array, so no shifted copy of the field is made.
    """
    if axis < 0 or axis >= grid.dim:
        raise ValueError(f"axis {axis} invalid for a {grid.dim}D grid")
    if np.ndim(side) != 0 or side not in (-1, +1):
        raise ValueError(f"side must be +1 or -1, got {side!r}")
    a = np.asarray(field, dtype=float)
    if a.shape[0] != grid.n_points:
        raise ValueError(
            f"field has leading size {a.shape[0]}, expected {grid.n_points}"
        )
    if out is None:
        out = np.empty_like(a)
    elif out.shape != a.shape:
        raise ValueError(f"out has shape {out.shape}, expected {a.shape}")
    _line_increment(a, out, math.prod(grid.cells[:axis]), grid.cells[axis], side)
    return out


def _line_increment(a, out, step, length, side):
    """The periodic one-cell increment of ``a`` along lines of ``length``
    points spaced ``step`` apart down its leading axis: the view
    ``(lines, length, step)`` of that axis, as in :func:`shift`, with the
    line count given, since ``-1`` fails on a field of no columns.

    Each point is ``step`` rows before the next one on its line, so one
    flat subtraction down the column gives every increment but the
    periodic one of each line, which a second subtraction on the view then
    writes over.  Splitting the leading axis is a view for any layout,
    ``out`` slices included.
    """
    lines = (len(a) // (length * step), length, step) + a.shape[1:]
    f, d = a.reshape(lines), out.reshape(lines)
    if side > 0:
        np.subtract(a[step:], a[:-step], out=out[:-step])
        np.subtract(f[:, 0], f[:, -1], out=d[:, -1])
    else:
        np.subtract(a[step:], a[:-step], out=out[step:])
        np.subtract(f[:, 0], f[:, -1], out=d[:, 0])


def shift(
    grid: StaggeredGrid, axis: int, field: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``field`` moved one cell forward along ``axis``: ``out[k]`` is
    ``field`` at the point one cell back, periodically.

    The backward difference is the shifted forward one, bit for bit:
    ``shift(grid, j, diff(grid, j, +1, f))`` equals ``diff(grid, j, -1, f)``,
    and likewise for :func:`increment`.
    Along the leading axis, each point is ``step`` rows after the point one
    cell back (1 for x, ``nx`` for y), so one flat copy down the column
    places every point but the first cell of each line, which a second copy
    takes from the line's last cell.  ``out`` must not overlap ``field``.
    """
    a = np.asarray(field, dtype=float)
    if out is None:
        out = np.empty_like(a)
    step = math.prod(grid.cells[:axis])
    out[step:] = a[:-step]
    lines = (len(a) // (grid.cells[axis] * step), grid.cells[axis], step) + a.shape[1:]
    out.reshape(lines)[:, 0] = a.reshape(lines)[:, -1]
    return out
