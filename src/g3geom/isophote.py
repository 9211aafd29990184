"""The shading field <n(u1,u2), d> and its level sets on the parameter grid.

With the unit isotropic normal n, one formula covers both axis kinds: the
Euclidean yz product n_y d_y + n_z d_z is the cosine of the isotropic
angle for an isotropic axis and the raw mixed-angle measure for a unit
non-isotropic axis.  Isophotes are extracted by marching squares, with
each crossing refined along its grid edge by Illinois regula falsi; a
field that is constant over the whole grid is reported as such instead of
being traced (the degenerate case realized by quadratic-profile isotropic
surfaces of revolution).

An extraction result, `IsophoteSet`, holds its polylines as arrays: one
C-contiguous (V, 5) float64 array of the vertices (u1, u2, x, y, z), chain
after chain, an int64 array of P + 1 offsets (polyline k is the rows
offsets[k]:offsets[k+1]) and a bool array of P closed flags.  The writers
read these; `IsophoteSet.polylines` is a view of them as `Polyline`s of
Python floats, built on first access.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import expr
from .errors import G3Error, SingularNormalError
from .galilean import GVec3, is_unit_axis
from .surface import OMEGA_MIN, SurfaceSpec, _coordinate_values, _normal_parts

DEFAULT_GRID = (256, 256)
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
    """Worker cap from G3_THREADS (0 or unset = auto) for field grids of at
    least PARALLEL_MIN_POINTS points."""
    raw = os.environ.get("G3_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = min(os.cpu_count() or 1, 8)
    return n


def field(surface: SurfaceSpec, axis: GVec3, u1: float, u2: float) -> float:
    """Shading value at one parameter point (axis must be unit, either kind):
    a one-sample call into the `field_grid` kernel that raises where it gives NaN."""
    if not is_unit_axis(axis):
        raise G3Error("axis must be normalized (see normalize_axis)")
    # a surface whose partials are all constant gives 0-d results
    value, omega = (float(np.ravel(a)[0]) for a in _field_block(
        surface, axis, np.array([float(u1)]), np.array([float(u2)]), check=True))
    if omega <= OMEGA_MIN:
        raise SingularNormalError(
            f"omega = {omega:.3g} at (u1,u2)=({u1:.6g},{u2:.6g})")
    return value


def _shading(jx, jy, jz, dy, dz):
    """The field and omega from the first partials of x, y and z and the
    axis components d_y, d_z; traced into the field tape."""
    A, B, omega = _normal_parts(jx, jy, jz)
    return (A * dy + B * dz) / omega, omega


def _field_block(surface: SurfaceSpec, axis: GVec3, U1, U2, check: bool = False):
    """Shading values (NaN where omega <= OMEGA_MIN) and omega, on the
    broadcast shape of the operands the field depends on.

    One compiled field tape (expr.on_partials) runs the surface and
    `_shading`, so it computes only the partials and the normal parts the
    field reads; the axis is read at call time."""
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
    (1, n2) row.
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
    rows.  Block 0 runs first; a result without a row dimension (a field
    of u2 alone, or a constant) is broadcast as it is.  Otherwise the other
    blocks are written into one array, over a pool of at most
    worker_count() threads from PARALLEL_MIN_POINTS points on.
    """
    shape = np.broadcast_shapes(U1.shape, U2.shape)
    rows = max(2, BLOCK_POINTS // max(shape[-1], 1)) if len(shape) == 2 else 0
    if rows == 0 or rows >= shape[0]:
        F = _field_block(surface, axis, U1, U2)[0]
        return F if F.shape == shape else np.broadcast_to(F, shape)

    def rows_of(k: int):
        return (U[k * rows:(k + 1) * rows] if U.ndim == 2 and U.shape[0] > 1 else U
                for U in (U1, U2))

    F0 = _field_block(surface, axis, *rows_of(0))[0]
    if F0.ndim < 2 or F0.shape[0] == 1:
        return np.broadcast_to(F0, shape)
    F = np.empty(shape)
    F[:rows] = F0

    def block(k: int) -> None:
        F[k * rows:(k + 1) * rows] = _field_block(surface, axis, *rows_of(k))[0]

    rest = range(1, -(-shape[0] // rows))
    n = min(worker_count(), len(rest)) if shape[0] * shape[1] >= PARALLEL_MIN_POINTS else 1
    if n > 1:
        with ThreadPoolExecutor(max_workers=n) as pool:
            list(pool.map(block, rest))
    else:
        for k in rest:
            block(k)
    return F


@dataclass(frozen=True)
class IsophoteQuery:
    """What to extract: the axis, the level, grid resolution, refinement tol.

    Use the constructors: for_angle (isotropic axis, level = cos beta),
    raw_level (any unit axis), or silhouette (level 0).
    """

    axis: GVec3
    level: float
    kind: str  # "angle" | "raw" | "silhouette"
    beta: float | None = None
    grid: tuple[int, int] = DEFAULT_GRID
    refine_tol: float = DEFAULT_REFINE_TOL

    def __post_init__(self):
        if not is_unit_axis(self.axis):
            raise G3Error("query axis must be normalized (see normalize_axis)")
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise ValueError("grid must be at least 2x2")
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
        if not 0.0 <= beta <= math.pi / 2 + 1e-15:
            raise ValueError("beta must lie in [0, pi/2]")
        return cls(axis, math.cos(beta), "angle", beta, tuple(grid), refine_tol)

    @classmethod
    def raw_level(cls, axis: GVec3, level: float, grid=DEFAULT_GRID,
                  refine_tol=DEFAULT_REFINE_TOL) -> "IsophoteQuery":
        return cls(axis, float(level), "raw", None, tuple(grid), refine_tol)

    @classmethod
    def for_silhouette(cls, axis: GVec3, grid=DEFAULT_GRID,
                       refine_tol=DEFAULT_REFINE_TOL) -> "IsophoteQuery":
        return cls(axis, 0.0, "silhouette", None, tuple(grid), refine_tol)


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
    refined once.  failed_edges: edges with a non-finite probe.
    refine_iterations_total: field evaluations the refinement ran, one per
    probe of an open edge.  refine_iterations_max: refinement steps run,
    the most probes any one edge took (at most MAX_REFINE_STEPS).
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
    Python floats, built on first access.

    `IsophoteSet(polylines, level, constant_field, stats)` copies a list of
    Polylines into the arrays.
    """

    def __init__(self, polylines: list[Polyline], level: float,
                 constant_field: ConstantField | None, stats: ExtractStats):
        self._set(*_polyline_arrays(polylines), level, constant_field, stats)

    @classmethod
    def _from_arrays(cls, vertices: np.ndarray, offsets: np.ndarray, closed: np.ndarray,
                     level: float, constant_field: ConstantField | None,
                     stats: ExtractStats) -> "IsophoteSet":
        """The set of these arrays, not copied where their dtype and layout
        allow."""
        iso = cls.__new__(cls)
        iso._set(vertices, offsets, closed, level, constant_field, stats)
        return iso

    def _set(self, vertices, offsets, closed, level, constant_field, stats) -> None:
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


def _polyline_arrays(polylines) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertices, offsets and closed flags of an IsophoteSet of these
    Polylines."""
    counts = [len(pl.points) for pl in polylines]
    vertices = np.array([p for pl in polylines for p in pl.points],
                        dtype=np.float64).reshape(-1, 5)
    offsets = np.cumsum([0, *counts], dtype=np.int64)
    return vertices, offsets, np.array([bool(pl.closed) for pl in polylines], dtype=bool)


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

    Returns the points of least |field - level| per edge, that error (inf
    where no probe was finite), the failed mask, the number of field
    evaluations and the number of steps run.
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
    pu = p0 + best_t[:, None] * (p1 - p0)
    return pu, best_err, failed, evaluations, steps


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
    """
    n1, n2 = query.grid
    U1, U2 = surface.grid(n1 + 1, n2 + 1)
    F = _field(surface, query.axis, U1[:, None], U2[None, :])
    stats = ExtractStats(grid=(n1, n2), cells_total=n1 * n2)
    level = query.level

    fin = np.isfinite(F)
    if not fin.any():
        stats.cells_skipped = stats.cells_total
        return IsophoteSet([], level, None, stats)
    all_finite = bool(fin.all())
    defined = F if all_finite else F[fin]
    fmin, fmax = float(defined.min()), float(defined.max())
    if all_finite and fmax - fmin <= query.refine_tol:
        # summed in the order of a contiguous grid, whatever F's strides
        value = float(np.ascontiguousarray(F).mean())
        cf = ConstantField(value=value, spread=fmax - fmin,
                           matches_level=abs(value - level) <= query.refine_tol)
        return IsophoteSet([], level, cf, stats)

    up, cross_h, cross_v, cell, cell_ok = _cell_masks(F, level, fin)
    nh = n1 * (n2 + 1)  # the first v-edge id

    # crossing edges in id order, with the endpoints (I0, J0) and (I1, J1);
    # an edge id is the flat index into cross_h, or nh + that into cross_v
    eh, ev = np.flatnonzero(cross_h), np.flatnonzero(cross_v)
    ids = np.concatenate((eh, nh + ev))
    hi, hj = np.divmod(eh, n2 + 1)
    vi, vj = np.divmod(ev, n2)
    I0, J0 = np.concatenate((hi, vi)), np.concatenate((hj, vj))
    I1, J1 = np.concatenate((hi + 1, vi)), np.concatenate((hj, vj + 1))
    failed_ids = ids[:0]
    if len(ids):
        pu, err, failed, iters, max_used = _refine_edges(
            surface, query.axis, level,
            np.column_stack((U1[I0], U2[J0])), np.column_stack((U1[I1], U2[J1])),
            F[I0, J0] - level, F[I1, J1] - level, query.refine_tol)
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
    if not len(edge_ids):
        return IsophoteSet([], level, None, stats)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    # ambient coordinates for every vertex, in one pass of the values tape
    rows = np.searchsorted(ids, edge_ids)
    au1, au2 = pu[rows, 0], pu[rows, 1]
    # the zero of eval_jet2's broadcast: it gives a constant coordinate
    # the vertex count and turns -0.0 to 0.0 as eval_jet2 does
    zero = (au1 + au2) * 0.0
    vertices = np.column_stack((au1, au2, *(v + zero for v in _coordinate_values(
        surface, au1, au2, check=False))))
    gap = vertices[offsets[:-1], :2] - vertices[offsets[1:] - 1, :2]
    closed = (lengths > 2) & (np.hypot(gap[:, 0], gap[:, 1]) <= CLOSE_TOL)
    return IsophoteSet._from_arrays(vertices, offsets, closed, level, None, stats)


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
