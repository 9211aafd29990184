"""The shading field <n(u1,u2), d> and its level sets on the parameter grid.

With the unit isotropic normal n, one formula covers both axis kinds: the
Euclidean yz product n_y d_y + n_z d_z is the cosine of the isotropic
angle for an isotropic axis and the raw mixed-angle measure for a unit
non-isotropic axis.  Isophotes are extracted by marching squares, with
each crossing refined along its grid edge by Illinois regula falsi; a
field that is constant over the whole grid is reported as such instead of
being traced (the degenerate case realized by quadratic-profile isotropic
surfaces of revolution), and a field of one parameter gives coordinate
lines, found on one row or column.  A surface with a closed-form normal
(`SurfaceSpec.normal`, set by `revolve_euclidean`: n = (0, sin t, cos t)
as in Section 4 of the paper) has its field read from it, so its
isophotes are the parallels t = t0.

An extraction result, `IsophoteSet`, holds its polylines as arrays: one
C-contiguous (V, 5) float64 array of the vertices (u1, u2, x, y, z), chain
after chain, an int64 array of P + 1 offsets (polyline k is the rows
offsets[k]:offsets[k+1]) and a bool array of P closed flags.  The writers
read these; `IsophoteSet.polylines` is a view of them as `Polyline`s of
Python floats, built on first access.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import expr
from .curve import _finite_samples
from .errors import G3Error
from .galilean import GVec3, is_unit_axis
from .surface import OMEGA_MIN, SurfaceSpec, _check_omega, _coordinate_values, _normal_parts

DEFAULT_GRID = (256, 256)
# most points an isophote query's grid may have, N1*N2
MAX_GRID_POINTS = 1 << 22
DEFAULT_REFINE_TOL = 1e-9
MAX_REFINE_STEPS = 30
CLOSE_TOL = 1e-9
# field_grid starts a thread pool only for grids of at least this many
# points; below it the pool costs more than it saves
PARALLEL_MIN_POINTS = 1 << 19
# points per row block of a 2-D field grid, so that the temporaries of one
# block stay in cache (2^15 and 2^17 timed no better at 1025^2)
BLOCK_POINTS = 1 << 16


def worker_count() -> int:
    """Threads a field grid of at least PARALLEL_MIN_POINTS points runs on:
    the CPUs this process may run on, at most 8."""
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), 8)
    return min(os.cpu_count() or 1, 8)


def field(surface: SurfaceSpec, axis: GVec3, u1: float, u2: float) -> float:
    """Shading value at one parameter point (axis must be unit, either kind):
    a one-sample call into the `field_grid` kernel.  It raises
    SingularNormalError naming the point where omega is not a finite number
    above OMEGA_MIN, which covers every point where the kernel gives NaN."""
    if not is_unit_axis(axis):
        raise G3Error("axis must be normalized (see normalize_axis)")
    u1, u2 = _finite_samples((float(u1), float(u2)), "(u1, u2)")
    value, omega = _field_block(surface, axis, u1, u2, check=True)
    _check_omega(omega, lambda i: f"at (u1,u2)=({u1:.6g},{u2:.6g})")
    return float(value)


def _shading(jx, jy, jz, dy, dz):
    """The field and omega from the first partials of x, y and z and the
    axis components d_y, d_z; traced into the field tape."""
    A, B, omega = _normal_parts(jx, jy, jz)
    return (A * dy + B * dz) / omega, omega


def _normal_shading(jw, jny, jnz, dy, dz):
    """The field and w from the values of a closed-form normal (w, ny, nz)
    and the axis components d_y, d_z; traced into the normal tape."""
    return jny.value * dy + jnz.value * dz, jw.value


def _normal_field(surface: SurfaceSpec, axis: GVec3, U1, U2):
    """The field and w from surface.normal, through one compiled tape; None
    where the surface has no closed-form normal, or unless w is a finite
    number above OMEGA_MIN at every u1 of U1 and every field value is
    finite, so that every NaN and every error comes from the general
    path."""
    if surface.normal is None:
        return None
    value, w = expr.on_partials(_normal_shading, surface.normal, (U1, U2),
                                (axis.y, axis.z), check=False)
    if np.all(np.isfinite(w) & (w > OMEGA_MIN)) and np.all(np.isfinite(value)):
        return np.asarray(value, dtype=float), w
    return None


def _field_block(surface: SurfaceSpec, axis: GVec3, U1, U2, check: bool = False):
    """Shading values (NaN where omega <= OMEGA_MIN) and omega, on the
    broadcast shape of the operands the field depends on: those of the
    closed-form normal where it holds (`_normal_field`, whose w is omega
    there), else those of `_shading_block`."""
    found = _normal_field(surface, axis, U1, U2)
    return found if found is not None else _shading_block(surface, axis, U1, U2, check)


def _shading_block(surface: SurfaceSpec, axis: GVec3, U1, U2, check: bool = False):
    """The general path of `_field_block`: one compiled field tape
    (expr.on_partials) runs the surface and `_shading`, so it computes
    only the partials and the normal parts the field reads; the axis is
    read at call time."""
    out, omega = expr.on_partials(_shading, (surface.x, surface.y, surface.z), (U1, U2),
                                  (axis.y, axis.z), check=check)
    return np.asarray(np.where(omega > OMEGA_MIN, out, np.nan), dtype=float), omega


def field_grid(surface: SurfaceSpec, axis: GVec3, U1, U2) -> np.ndarray:
    """Vectorized shading field; singular or undefined points become NaN.

    The field needs only the first partials of the surface, so x, y and z
    are evaluated as first-order jets in one compiled field tape, which
    computes only the partials the field reads, each on the shape of the
    operands it depends on: a tensor grid passed as (n1, 1) and (1, n2)
    operands evaluates each u1-only or u2-only subexpression once per row
    or column, and a field that depends on u2 alone is computed as one
    (1, n2) row.  Where the surface has a closed-form normal that holds on
    the grid, the field is read from it instead (`_normal_field`).
    A 2-D grid is evaluated in row blocks of about BLOCK_POINTS points,
    over worker_count() threads when it has at least PARALLEL_MIN_POINTS
    points.  The result is a new writable array of the broadcast shape of
    U1 and U2.
    """
    if not is_unit_axis(axis):
        raise G3Error("axis must be normalized (see normalize_axis)")
    F = _field(surface, axis, np.asarray(U1, dtype=float), np.asarray(U2, dtype=float))
    return F if F.flags.writeable else F.copy()


def _field(surface: SurfaceSpec, axis: GVec3, U1: np.ndarray, U2: np.ndarray) -> np.ndarray:
    """The field of field_grid, as a read-only broadcast view where it
    depends on fewer operand dimensions than the grid has.

    A 2-D grid of more than one block is cut into blocks of at least two
    rows, after the closed-form normal, if any, is tried on all of U1 at
    once.  Otherwise block 0 runs first; a result without a row dimension
    (a field of u2 alone, or a constant) is broadcast as it is, and one
    without a column dimension (a field of u1 alone) is evaluated once
    more on all of U1 as a column.  Otherwise the other blocks are written
    into one array, over a pool of at most worker_count() threads from
    PARALLEL_MIN_POINTS points on.
    """
    shape = np.broadcast_shapes(U1.shape, U2.shape)

    def whole(F: np.ndarray) -> np.ndarray:
        return F if F.shape == shape else np.broadcast_to(F, shape)

    rows = max(2, BLOCK_POINTS // max(shape[-1], 1)) if len(shape) == 2 else 0
    if rows == 0 or rows >= shape[0]:
        return whole(_field_block(surface, axis, U1, U2)[0])
    found = _normal_field(surface, axis, U1, U2)
    if found is not None:
        return whole(found[0])

    def rows_of(k: int):
        return (U[k * rows:(k + 1) * rows] if U.ndim == 2 and U.shape[0] > 1 else U
                for U in (U1, U2))

    F0 = _shading_block(surface, axis, *rows_of(0))[0]
    if F0.ndim < 2 or F0.shape[0] == 1:
        return np.broadcast_to(F0, shape)
    if F0.shape[1] == 1 < shape[1]:
        return np.broadcast_to(_shading_block(surface, axis, U1, U2)[0], shape)
    F = np.empty(shape)
    F[:rows] = F0

    def block(k: int) -> None:
        F[k * rows:(k + 1) * rows] = _shading_block(surface, axis, *rows_of(k))[0]

    rest = range(1, -(-shape[0] // rows))
    n = min(worker_count(), len(rest)) if shape[0] * shape[1] >= PARALLEL_MIN_POINTS else 1
    if n > 1:
        with ThreadPoolExecutor(max_workers=n) as pool:
            list(pool.map(block, rest))
    else:
        for k in rest:
            block(k)
    return F


def _grid_shape(grid) -> tuple[int, int]:
    """grid as two ints; a ValueError unless it is two integers (numpy's
    too, bool not), each at least 2, with at most MAX_GRID_POINTS points."""
    try:
        n1, n2 = grid
    except (TypeError, ValueError):
        n1 = n2 = None
    if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 2
               for n in (n1, n2)):
        raise ValueError(f"grid must be two integers >= 2, got {grid!r}")
    n1, n2 = int(n1), int(n2)
    if n1 * n2 > MAX_GRID_POINTS:
        raise ValueError(f"grid {n1}x{n2} has {n1 * n2} points, above the cap "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    return n1, n2


def _number(value, name: str) -> float:
    """value as a float; a ValueError unless it is a number (bool not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class IsophoteQuery:
    """What to extract: the axis, the level, grid resolution, refinement tol.

    Use the constructors: for_angle (isotropic axis, level = cos beta),
    raw_level (any unit axis), or silhouette (level 0).  A level, beta or
    refine_tol that is not a finite number is a ValueError naming it.
    """

    axis: GVec3
    level: float
    grid: tuple[int, int] = DEFAULT_GRID
    refine_tol: float = DEFAULT_REFINE_TOL

    def __post_init__(self):
        if not is_unit_axis(self.axis):
            raise G3Error("query axis must be normalized (see normalize_axis)")
        object.__setattr__(self, "grid", _grid_shape(self.grid))
        for name in ("level", "refine_tol"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if not math.isfinite(self.level):
            raise ValueError(f"level must be finite, got {self.level!r}")
        if not (math.isfinite(self.refine_tol) and self.refine_tol > 0.0):
            raise ValueError(f"refine_tol must be finite and > 0, got {self.refine_tol!r}")
        if self.axis.is_isotropic and not -1.0 <= self.level <= 1.0:
            raise ValueError("level must lie in [-1, 1] for an isotropic axis")

    @classmethod
    def for_angle(cls, axis: GVec3, beta: float, grid=DEFAULT_GRID,
                  refine_tol=DEFAULT_REFINE_TOL) -> "IsophoteQuery":
        if not axis.is_isotropic:
            raise G3Error("an angle-level query needs an isotropic axis")
        beta = _number(beta, "beta")
        if not 0.0 <= beta <= math.pi / 2 + 1e-15:
            raise ValueError("beta must lie in [0, pi/2]")
        return cls(axis, math.cos(beta), grid, refine_tol)

    @classmethod
    def raw_level(cls, axis: GVec3, level: float, grid=DEFAULT_GRID,
                  refine_tol=DEFAULT_REFINE_TOL) -> "IsophoteQuery":
        return cls(axis, level, grid, refine_tol)

    @classmethod
    def for_silhouette(cls, axis: GVec3, grid=DEFAULT_GRID,
                       refine_tol=DEFAULT_REFINE_TOL) -> "IsophoteQuery":
        return cls(axis, 0.0, grid, refine_tol)


@dataclass
class Polyline:
    points: list[tuple[float, float, float, float, float]]  # (u1, u2, x, y, z)
    closed: bool


@dataclass
class ConstantField:
    value: float
    spread: float
    matches_level: bool


@dataclass
class ExtractStats:
    """Counters of one extraction.

    cells_crossing: cells that gave segments.  cells_skipped: cells with an
    undefined corner or a failed edge.  refined_edges: crossing edges, each
    of which gives a vertex.  failed_edges: edges with a non-finite probe.
    refine_iterations_total: field evaluations the refinement ran, one per
    probe of an open edge.  refine_iterations_max: refinement steps run,
    the most probes any one edge took (at most MAX_REFINE_STEPS).

    On the line path of a field of one parameter (see `extract`) the
    topology counters are those of the grid path, but only one edge per
    line is refined: refine_iterations_total counts the evaluations run on
    those edges, and refine_iterations_max their steps, which every edge of
    the line would take alike.
    """

    grid: tuple[int, int]
    cells_total: int
    cells_crossing: int = 0
    cells_skipped: int = 0
    refined_edges: int = 0
    failed_edges: int = 0
    refine_iterations_total: int = 0
    refine_iterations_max: int = 0


class IsophoteSet:
    """The polylines of one extraction, its level, the constant field (when
    the grid was constant) and the stats.

    `vertices` is a read-only C-contiguous (V, 5) float64 array of (u1, u2,
    x, y, z); polyline k is vertices[offsets[k]:offsets[k+1]] for the
    read-only int64 `offsets` of length P + 1, and it is closed where the
    read-only bool `closed` (length P) is.  `extract` marks a polyline
    closed when it has more than 2 vertices and its two ends lie within
    CLOSE_TOL of each other in (u1, u2); its last vertex then repeats its
    first.  `polylines` views the same data as a list of `Polyline`s of
    Python floats, built on first access.  The arrays passed in are not
    copied where their dtype and layout allow.
    """

    def __init__(self, vertices: np.ndarray, offsets: np.ndarray, closed: np.ndarray,
                 level: float, constant_field: ConstantField | None, stats: ExtractStats):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64).reshape(-1, 5)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.closed = np.asarray(closed, dtype=bool)
        for a in (self.vertices, self.offsets, self.closed):
            a.flags.writeable = False
        self.level, self.constant_field, self.stats = level, constant_field, stats
        self._polylines = None

    @property
    def polylines(self) -> list[Polyline]:
        if self._polylines is None:
            # tuples zipped from column lists: no list per vertex is made
            rows = list(zip(*self.vertices.T.tolist()))
            self._polylines = [Polyline(rows[a:b], c)
                               for a, b, c in _chains(self.offsets, self.closed)]
        return self._polylines

    def to_json_dict(self) -> dict:
        rows = self.vertices.tolist()
        return {
            "level": self.level,
            "polylines": [{"closed": c, "points": rows[a:b]}
                          for a, b, c in _chains(self.offsets, self.closed)],
            "constant_field": (None if self.constant_field is None
                               else asdict(self.constant_field)),
            "stats": {**asdict(self.stats), "grid": list(self.stats.grid)},
        }


def _chains(offsets: np.ndarray, closed: np.ndarray):
    """(start, stop, closed) of each polyline, as Python ints and bools."""
    o = offsets.tolist()
    return zip(o, o[1:], closed.tolist())


def _cell_masks(F: np.ndarray, level: float, fin: np.ndarray | None = None):
    """The above-level grid (F > level), the crossing-edge masks, the cells
    with a crossing edge, and the cells with no undefined corner.  An edge
    crosses where one end is above the level and the other is not, both
    ends finite; samples exactly at the level count as below, so a level
    set running through grid nodes is still caught.  `fin` is
    isfinite(F), when the caller has it."""
    if fin is None:
        fin = np.isfinite(F)
    up = F > level
    ch = up[:-1, :] != up[1:, :]   # edges along u1
    ch &= fin[:-1, :]
    ch &= fin[1:, :]
    cv = up[:, :-1] != up[:, 1:]   # edges along u2
    cv &= fin[:, :-1]
    cv &= fin[:, 1:]
    cell = ch[:, :-1] | ch[:, 1:]
    cell |= cv[:-1, :]
    cell |= cv[1:, :]
    valid = fin[:-1, :-1] & fin[1:, :-1]
    valid &= fin[1:, 1:]
    valid &= fin[:-1, 1:]
    return up, ch, cv, cell, valid


def crossing_cells(F: np.ndarray, level: float) -> set[tuple[int, int]]:
    """Cells with at least one sign-change edge (NaN corners excluded)."""
    *_, cell, valid = _cell_masks(F, level)
    return {(int(i), int(j)) for i, j in np.argwhere(cell & valid)}


def _refine_edges(surface, axis, level, p0, p1, f0, f1, refine_tol):
    """Vectorized Illinois regula falsi along crossing edges (Dowell and
    Jarratt, BIT 11, 1971).

    p0, p1: (m, 2) endpoint parameter coordinates; f0, f1 the field minus
    the level there, on opposite sides of it (0 counts as below).  Each
    edge keeps a bracket (a, fa), (b, fb) in t, from (0, f0) and (1, f1).
    The first probe is the linear interpolation point.  Each step
    evaluates the field only at the open edges, those whose best
    |field - level| is still above refine_tol and that have not failed: a
    non-finite probe fails its edge.  A probe replaces the endpoint on its
    side; when the same side is replaced twice in a row, the other
    endpoint's f is halved.  The next probe is the secant root
    a - fa (b - a) / (fb - fa), or the midpoint when that is not strictly
    inside (a, b).  At most MAX_REFINE_STEPS steps run.

    Returns the t of least |field - level| per edge (its point is
    p0 + t (p1 - p0)), that error (inf where no probe was finite), the
    failed mask, the number of field evaluations and the number of steps
    run.
    """
    t = f0 / (f0 - f1)  # linear interpolation start
    best_t = t.copy()
    best_err = np.full(len(t), np.inf)
    failed = np.zeros(len(t), dtype=bool)
    # the open edges and their brackets; `side` is the endpoint the last
    # step replaced: -1 for a, +1 for b, 0 before the first
    idx = np.arange(len(t))
    a, fa, b, fb = np.zeros(len(t)), f0, np.ones(len(t)), f1
    side = np.zeros(len(t), dtype=np.int8)
    evaluations = steps = 0
    while len(idx) and steps < MAX_REFINE_STEPS:
        steps += 1
        evaluations += len(idx)
        q0 = p0[idx]
        pu = q0 + t[:, None] * (p1[idx] - q0)
        fv = _field(surface, axis, pu[:, 0], pu[:, 1]) - level
        ok = np.isfinite(fv)
        failed[idx[~ok]] = True
        err = np.abs(fv)
        better = ok & (err < best_err[idx])
        best_t[idx[better]] = t[better]
        best_err[idx[better]] = err[better]
        keep = ok & (best_err[idx] > refine_tol)
        idx, t, fv, a, fa, b, fb, side = (
            v[keep] for v in (idx, t, fv, a, fa, b, fb, side))
        on_a = (fv > 0) == (fa > 0)
        fa = np.where(on_a, fv, np.where(side == 1, 0.5 * fa, fa))
        fb = np.where(on_a, np.where(side == -1, 0.5 * fb, fb), fv)
        a = np.where(on_a, t, a)
        b = np.where(on_a, b, t)
        side = np.where(on_a, -1, 1).astype(np.int8)
        t = a - fa * (b - a) / (fb - fa)
        t = np.where((t > a) & (t < b), t, 0.5 * (a + b))
    return best_t, best_err, failed, evaluations, steps


def extract(surface: SurfaceSpec, query: IsophoteQuery) -> IsophoteSet:
    """Marching-squares extraction of the level set field == level.

    Edges between grid samples carry integer ids: the edge from sample
    (i, j) to (i+1, j) is i*(n2+1) + j, and the edge from (i, j) to
    (i, j+1) is n1*(n2+1) + i*n2 + j.  Cell (i, j) has the edges bottom
    (i, j)-(i+1, j), right (i+1, j)-(i+1, j+1), top (i, j+1)-(i+1, j+1) and
    left (i, j)-(i, j+1), taken in that order.  Two-edge cells give their
    segments in row-major cell order, then the saddle cells theirs.

    Saddle cells are disambiguated by the cell-center sample.  Singular
    normals abort only the affected cells and are counted in stats.  When
    the whole grid is constant to within refine_tol, no tracing happens
    and the constant is reported instead.

    A field of u2 alone (or of u1 alone), such as that of a surface of
    revolution with its closed-form normal, is a broadcast row (column) of
    the grid; its isophotes are coordinate lines.  When every sample is
    finite, the line path finds the crossings on that one row (column),
    refines one edge per crossing and writes each line as n1 + 1 (n2 + 1)
    vertices, equal to the grid path's vertices, chains and stats except
    refine_iterations_total (see ExtractStats).  If an edge fails there,
    the grid path runs instead.
    """
    n1, n2 = query.grid
    U1, U2 = surface.grid(n1 + 1, n2 + 1)
    F = _field(surface, query.axis, U1[:, None], U2[None, :])
    stats = ExtractStats(grid=(n1, n2), cells_total=n1 * n2)
    level = query.level

    # the samples of a field broadcast along a grid axis are one row or column
    line = 0 in F.strides
    D = (F[:1] if F.strides[0] == 0 else F[:, :1]) if line else F
    fin = np.isfinite(D)
    if not fin.any():
        stats.cells_skipped = stats.cells_total
        return IsophoteSet(np.empty((0, 5)), [0], [], level, None, stats)
    all_finite = bool(fin.all())
    defined = D if all_finite else D[fin]
    fmin, fmax = float(defined.min()), float(defined.max())
    if all_finite and fmax - fmin <= query.refine_tol:
        # summed in the order of a contiguous grid, whatever F's strides
        value = float(np.ascontiguousarray(F).mean())
        cf = ConstantField(value=value, spread=fmax - fmin,
                           matches_level=abs(value - level) <= query.refine_tol)
        return IsophoteSet(np.empty((0, 5)), [0], [], level, cf, stats)
    if all_finite and line:
        lines = _coordinate_lines(surface, query, U1, U2, F, stats)
        if lines is not None:
            return lines

    up, cross_h, cross_v, cell, cell_ok = _cell_masks(F, level, np.broadcast_to(fin, F.shape))
    nh = n1 * (n2 + 1)  # the first v-edge id

    # crossing edges in id order, with the endpoints (I0, J0) and (I1, J1);
    # an edge id is the flat index into cross_h, or nh + that into cross_v
    eh, ev = np.flatnonzero(cross_h), np.flatnonzero(cross_v)
    ids = np.concatenate((eh, nh + ev))
    hi, hj = np.divmod(eh, n2 + 1)
    vi, vj = np.divmod(ev, n2)
    I0, J0 = np.concatenate((hi, vi)), np.concatenate((hj, vj))
    I1, J1 = np.concatenate((hi + 1, vi)), np.concatenate((hj, vj + 1))
    p0, p1 = np.column_stack((U1[I0], U2[J0])), np.column_stack((U1[I1], U2[J1]))
    t, err, failed, iters, max_used = _refine_edges(
        surface, query.axis, level, p0, p1, F[I0, J0] - level, F[I1, J1] - level,
        query.refine_tol)
    pu = p0 + t[:, None] * (p1 - p0)
    failed_ids = ids[failed | ~np.isfinite(err)]
    stats.refined_edges = len(ids)
    stats.refine_iterations_total = iters
    stats.refine_iterations_max = max_used
    stats.failed_edges = len(failed_ids)

    # per-cell segments; a cell with a failed edge is skipped.  All corners
    # are finite, so a cell has two crossing edges or four (a saddle).
    cell &= cell_ok
    ci, cj = np.divmod(np.flatnonzero(cell), n2)
    bottom = ci * (n2 + 1) + cj
    left = ci * n2 + cj
    edges = np.stack((bottom, nh + left + n2, bottom + 1, nh + left), axis=1)
    ch, cv = cross_h.ravel(), cross_v.ravel()
    has = np.stack((ch[bottom], cv[left + n2], ch[bottom + 1], cv[left]), axis=1)
    lost = np.isin(edges, failed_ids).any(axis=1)
    stats.cells_crossing = int(np.count_nonzero(~lost))
    stats.cells_skipped = int(np.count_nonzero(~cell_ok) + np.count_nonzero(lost))
    two = ~lost & (has.sum(axis=1) == 2)
    segments = [edges[two][has[two]].reshape(-1, 2)]
    saddle = ~lost & has.all(axis=1)
    if saddle.any():
        si, sj = ci[saddle], cj[saddle]
        centers = _field(surface, query.axis, 0.5 * (U1[si] + U1[si + 1]),
                         0.5 * (U2[sj] + U2[sj + 1]))
        # a NaN center counts as below the level
        same = ((centers > level) == up[si, sj])[:, None]
        bottom, right, top, left = edges[saddle].T
        segments.append(np.stack((
            np.where(same, np.column_stack((bottom, right)), np.column_stack((left, bottom))),
            np.where(same, np.column_stack((left, top)), np.column_stack((top, right))),
        ), axis=1).reshape(-1, 2))

    edge_ids, lengths = _link_segments(np.concatenate(segments))
    rows = np.searchsorted(ids, edge_ids)
    return _lift(surface, pu[rows, 0], pu[rows, 1], lengths, level, stats)


def _coordinate_lines(surface: SurfaceSpec, query: IsophoteQuery, U1, U2, F,
                      stats: ExtractStats) -> IsophoteSet | None:
    """The isophotes of a finite field of one parameter, which are
    coordinate lines; None, with stats untouched, where an edge fails to
    refine.

    F is a broadcast row (a field of u2 alone) or column (of u1 alone).
    The level then crosses the same edges across every row, or column, so
    the grid path's chains are lines of n1 + 1 (n2 + 1) vertices: for a row,
    one per crossing u2-edge j, in ascending j, from u1 = U1[n1] down to
    U1[0]; for a column, one per crossing u1-edge i, in ascending i, from
    u2 = U2[0] up to U2[n2].  Each crossing is refined once, on the edge of
    its first vertex, and the vertices take the t found there, as the
    grid path finds it on each edge; no saddle can occur.  The stats are
    the grid path's, except that refine_iterations_total counts the
    evaluations run on the one edge per crossing.
    """
    row = F.strides[0] == 0
    # f and V along the field's parameter, W along the lines
    f, V, W = (F[0], U2, U1[::-1]) if row else (F[:, 0], U1, U2)
    up = f > query.level
    k = np.flatnonzero(up[:-1] != up[1:])

    def points(m: np.ndarray) -> np.ndarray:
        """(u1, u2) of the edge ends V[m] on the line W[0]."""
        ends = (np.full(len(m), W[0]), V[m])
        return np.column_stack(ends if row else ends[::-1])

    t, err, failed, iters, max_used = _refine_edges(
        surface, query.axis, query.level, points(k), points(k + 1),
        f[k] - query.level, f[k + 1] - query.level, query.refine_tol)
    if (failed | ~np.isfinite(err)).any():
        return None
    n = len(W)
    along = np.repeat(V[k] + t * (V[k + 1] - V[k]), n)
    # p0 + t (p1 - p0) where both ends share W, as the grid path computes it
    across = (W + t[:, None] * (W - W)).ravel()
    stats.refined_edges = len(k) * n
    stats.cells_crossing = len(k) * (n - 1)
    stats.refine_iterations_total = iters
    stats.refine_iterations_max = max_used
    au1, au2 = (across, along) if row else (along, across)
    return _lift(surface, au1, au2, np.full(len(k), n), query.level, stats)


def _lift(surface: SurfaceSpec, au1, au2, lengths, level: float,
          stats: ExtractStats) -> IsophoteSet:
    """The IsophoteSet of chains of parameter points (au1, au2), one after
    the other, with the given lengths: ambient coordinates for every
    vertex in one pass of the values tape, and the closed flags."""
    if not len(lengths):
        return IsophoteSet(np.empty((0, 5)), [0], [], level, None, stats)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    # the zero of eval_jet2's broadcast: it gives a constant coordinate
    # the vertex count and turns -0.0 to 0.0 as eval_jet2 does
    zero = (au1 + au2) * 0.0
    vertices = np.column_stack((au1, au2, *(v + zero for v in _coordinate_values(
        surface, au1, au2, check=False))))
    gap = vertices[offsets[:-1], :2] - vertices[offsets[1:] - 1, :2]
    closed = (lengths > 2) & (np.hypot(gap[:, 0], gap[:, 1]) <= CLOSE_TOL)
    return IsophoteSet(vertices, offsets, closed, level, None, stats)


def _link_segments(segments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Join cell segments sharing an edge into ordered chains of edge ids.

    `segments` is a (K, 2) array of edge ids; segment k fills the slots
    2k and 2k+1 of its flat view.  An edge borders at most two segments,
    so one stable sort of the flat ids pairs each slot with the other slot
    of its edge, if any.  Each chain starts at the first unused segment,
    extends forward from its second edge and backward from its first; a
    closed chain repeats its first edge at the end.

    Returns the edge ids of all chains, one after the other, as one int64
    array, and the chain lengths.
    """
    flat = segments.ravel()
    order = np.argsort(flat, kind="stable")
    pair = np.flatnonzero(flat[order[1:]] == flat[order[:-1]])
    mate = np.full(len(flat), -1)
    mate[order[pair]] = order[pair + 1]
    mate[order[pair + 1]] = order[pair]
    edge, mate = flat.tolist(), mate.tolist()
    used = [False] * len(segments)

    def walk(slot: int, stop: int) -> list[int]:
        path = []
        while True:
            slot = mate[slot]
            if slot < 0 or used[slot >> 1]:
                return path
            used[slot >> 1] = True
            slot ^= 1
            path.append(edge[slot])
            if edge[slot] == stop:
                return path

    chained: list[int] = []
    lengths = []
    for start, done in enumerate(used):
        if done:
            continue
        used[start] = True
        ea, eb = edge[2 * start], edge[2 * start + 1]
        forward = walk(2 * start + 1, ea)
        backward = walk(2 * start, forward[-1] if forward else eb)
        chained += backward[::-1]
        chained += (ea, eb)
        chained += forward
        lengths.append(len(backward) + 2 + len(forward))
    return np.array(chained, dtype=np.int64), np.array(lengths, dtype=np.int64)


def silhouette(surface: SurfaceSpec, axis: GVec3, grid=DEFAULT_GRID,
               tol: float = DEFAULT_REFINE_TOL) -> IsophoteSet:
    """Level-0 isophote: the normal is orthogonal to the axis."""
    return extract(surface, IsophoteQuery.for_silhouette(axis, grid, tol))
