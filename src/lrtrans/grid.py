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
1D with ``n`` cells on ``[lo, hi]`` (``dx = (hi - lo)/n``):

* rho block 0: cell centers ``lo + (i + 1/2) dx``
* rho block 1: cell interfaces ``lo + i dx``
* g   block 0: cell interfaces ``lo + (i + 1) dx``  (rho centers + dx/2)
* g   block 1: cell centers ``lo + (i + 1/2) dx``   (rho interfaces + dx/2)

2D with ``nx x ny`` cells:

* rho block 0: cell centers
* rho block 1: cell corners
* g   block 0: x-face midpoints (centers shifted dx/2 in x)
* g   block 1: y-face midpoints (corners shifted dx/2 in x)

Within each block, points are ordered row-major (y outer, x inner), so the
same index permutation implements a one-cell shift on every block of either
family.  Grids are immutable; all operations here are pure functions
(``diff``, ``increment`` and ``shift`` write only into an ``out`` array
their caller passes).
"""

from __future__ import annotations

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
        if self.dim == 1:
            return (2, self.cells[0])
        return (2, self.cells[1], self.cells[0])


def build_grid(dim: int, bounds, cells) -> StaggeredGrid:
    """Build a periodic staggered grid.

    Parameters
    ----------
    dim : 1 or 2.
    bounds : ``(lo, hi)`` or ``((lo_x, hi_x), (lo_y, hi_y))``.
    cells : cell count per axis, scalar or per-axis sequence; each >= 2.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    if bounds.shape != (dim, 2):
        raise ValueError(f"expected {dim} (lo, hi) bound pairs, got {bounds.shape}")
    cells = tuple(int(c) for c in np.atleast_1d(cells))
    if len(cells) == 1 and dim == 2:
        cells = cells * 2
    if len(cells) != dim:
        raise ValueError("one cell count per axis required")
    if any(c < 2 for c in cells):
        raise ValueError(f"need at least 2 cells per axis, got {cells}")
    if any(hi <= lo for lo, hi in bounds):
        raise ValueError("degenerate domain: bounds must satisfy lo < hi")

    spacing = tuple((hi - lo) / c for (lo, hi), c in zip(bounds, cells))

    if dim == 1:
        (lo, hi), (dx,), (nx,) = bounds[0], spacing, cells
        i = np.arange(nx)
        centers = lo + (i + 0.5) * dx
        interfaces = lo + i * dx
        rho = np.concatenate([centers, interfaces])
        g = np.concatenate([_wrap(centers + 0.5 * dx, lo, hi), interfaces + 0.5 * dx])
        rho_coords = rho[:, None]
        g_coords = g[:, None]
        g_coords_y = g_coords
    else:
        (lox, hix), (loy, hiy) = bounds
        dx, dy = spacing
        nx, ny = cells
        xi = np.arange(nx)
        yj = np.arange(ny)

        def mesh(xv, yv):
            X = np.broadcast_to(xv[None, :], (ny, nx)).reshape(-1)
            Y = np.broadcast_to(yv[:, None], (ny, nx)).reshape(-1)
            return X, Y

        xc, yc = lox + (xi + 0.5) * dx, loy + (yj + 0.5) * dy
        xv = _wrap(lox + (xi + 1.0) * dx, lox, hix)
        yv = _wrap(loy + (yj + 1.0) * dy, loy, hiy)
        xf = _wrap(lox + (xi + 1.5) * dx, lox, hix)
        yf = _wrap(loy + (yj + 1.5) * dy, loy, hiy)

        cx, cy = mesh(xc, yc)          # centers
        vx, vy = mesh(xv, yv)          # corners
        fx, fy = mesh(xv, yc)          # x-faces: centers + dx/2
        gx, gy = mesh(xf, yv)          # y-faces: corners + dx/2
        ax, ay = mesh(xc, yv)          # centers + dy/2
        bx, by = mesh(xv, yf)          # corners + dy/2

        rho_coords = np.column_stack(
            [np.concatenate([cx, vx]), np.concatenate([cy, vy])]
        )
        g_coords = np.column_stack(
            [np.concatenate([fx, gx]), np.concatenate([fy, gy])]
        )
        g_coords_y = np.column_stack(
            [np.concatenate([ax, bx]), np.concatenate([ay, by])]
        )

    for arr in (rho_coords, g_coords, g_coords_y):
        arr.setflags(write=False)
    return StaggeredGrid(
        dim=dim,
        bounds=tuple(map(tuple, bounds)),
        cells=cells,
        spacing=spacing,
        rho_coords=rho_coords,
        g_coords=g_coords,
        g_coords_y=g_coords_y,
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

    The stencil is :func:`_stencil`, which the row-blocked upwind advection
    :func:`lrtrans.ops.advect_rows` also calls on its blocks, once per run
    of ordinate columns that share a side: two slice subtractions into one
    output array (interior cells, then the periodic wrap-around cell), so
    no shifted copy of the field is made.  Along x, :func:`_flat_x_stencil`
    takes its place, with the same bits.
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
    if axis == 0:
        _flat_x_stencil(grid, a, out, side)
    else:
        lead = grid.block_shape
        ax = len(lead) - 1 - axis
        # splitting the leading axis of ``out`` is always a view, even for slices
        f = a.reshape(lead + a.shape[1:]).swapaxes(0, ax)
        d = out.reshape(lead + a.shape[1:]).swapaxes(0, ax)
        _stencil(f, d, side)
    return out


def _flat_x_stencil(grid, a, out, side):
    """:func:`_stencil` along x.

    x is the innermost axis of the linear index, so one flat subtraction
    down each column gives every increment but the periodic one of each
    x line, which a second subtraction then writes over; each value is
    the same subtraction as in :func:`_stencil`.  Splitting the leading
    axis is a view for any layout, ``out`` slices included.
    """
    lines = (-1, grid.cells[0]) + a.shape[1:]
    f, d = a.reshape(lines), out.reshape(lines)
    if side > 0:
        np.subtract(a[1:], a[:-1], out=out[:-1])
        np.subtract(f[:, 0], f[:, -1], out=d[:, -1])
    else:
        np.subtract(a[1:], a[:-1], out=out[1:])
        np.subtract(f[:, 0], f[:, -1], out=d[:, 0])


def _stencil(f, d, side, lo=0, hi=None, prev=None, first=None):
    """Rows ``lo:hi`` of the periodic one-cell increment along axis 0 of ``f``.

    Writes ``d[k] = f[lo + k + 1] - f[lo + k]`` forward (``side > 0``) and
    ``f[lo + k] - f[lo + k - 1]`` backward, indices modulo ``len(f)``, so
    rows outside ``lo:hi`` serve as the halo.  ``prev`` and ``first``,
    shaped like ``f[:1]``, stand in for the halo rows ``f[lo - 1]`` (when
    ``lo > 0``) and ``f[0]`` (read by the last row) where a caller has
    already overwritten them.  The caller scales the increments (``diff``
    divides by the spacing), on its own (usually contiguous) output.
    """
    n = len(f)
    hi = n if hi is None else hi
    if side > 0:
        m = min(hi, n - 1)
        np.subtract(f[lo + 1:m + 1], f[lo:m], out=d[:m - lo])
        if hi == n:
            np.subtract(f[:1] if first is None else first, f[-1:], out=d[-1:])
        return
    k = max(lo, 1)
    if prev is not None and lo > 0:
        np.subtract(f[lo:lo + 1], prev, out=d[:1])
        k += 1
    np.subtract(f[k:hi], f[k - 1:hi - 1], out=d[k - lo:])
    if lo == 0:
        np.subtract(f[:1], f[-1:], out=d[:1])


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
    step = int(np.prod(grid.cells[:axis]))
    out[step:] = a[:-step]
    lines = (-1, grid.cells[axis], step) + a.shape[1:]
    out.reshape(lines)[:, 0] = a.reshape(lines)[:, -1]
    return out


def _wrap(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return lo + np.mod(values - lo, hi - lo)
