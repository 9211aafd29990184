"""The shading field <n(u1,u2), d> and its level sets on the parameter grid.

With the unit isotropic normal n, one formula covers both axis kinds: the
Euclidean yz product n_y d_y + n_z d_z is the cosine of the isotropic
angle for an isotropic axis and the raw mixed-angle measure for a unit
non-isotropic axis.  Isophotes are extracted by marching squares with
bisection refinement; a field that is constant over the whole grid is
reported as such instead of being traced (the degenerate case realized by
quadratic-profile isotropic surfaces of revolution).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import G3Error, SingularNormalError
from .galilean import GVec3, is_unit_axis
from .surface import OMEGA_MIN, SurfaceSpec, _coordinate_jets, _normal_parts

DEFAULT_GRID = (256, 256)
DEFAULT_REFINE_TOL = 1e-9
MAX_BISECT = 30
CLOSE_TOL = 1e-9


def worker_count() -> int:
    """Worker cap from G3_THREADS (0 or unset = auto)."""
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
    value, omega = _field_block(surface, axis, np.array([float(u1)]),
                                np.array([float(u2)]), check=True)
    if omega[0] <= OMEGA_MIN:
        raise SingularNormalError(
            f"omega = {float(omega[0]):.3g} at (u1,u2)=({u1:.6g},{u2:.6g})")
    return float(value[0])


def _field_block(surface: SurfaceSpec, axis: GVec3, U1, U2, check: bool = False):
    """Shading values (NaN where omega <= OMEGA_MIN) and omega."""
    jx, jy, jz = _coordinate_jets(surface, U1, U2, check=check)
    with np.errstate(all="ignore"):
        A, B, omega = _normal_parts(jx, jy, jz)
        out = (A * axis.y + B * axis.z) / omega
        out = np.where(omega > OMEGA_MIN, out, np.nan)
    return np.asarray(out, dtype=float), omega


def field_grid(surface: SurfaceSpec, axis: GVec3, U1, U2,
               workers: int | None = None) -> np.ndarray:
    """Vectorized shading field; singular or undefined points become NaN."""
    if not is_unit_axis(axis):
        raise G3Error("axis must be normalized (see normalize_axis)")
    U1 = np.asarray(U1, dtype=float)
    U2 = np.asarray(U2, dtype=float)
    U1b, U2b = np.broadcast_arrays(U1, U2)
    n = workers if workers is not None else worker_count()
    if n > 1 and U1b.ndim == 2 and U1b.shape[0] >= 2 * n:
        blocks = np.array_split(np.arange(U1b.shape[0]), n)
        with ThreadPoolExecutor(max_workers=n) as pool:
            parts = list(pool.map(
                lambda idx: _field_block(surface, axis, U1b[idx], U2b[idx])[0],
                blocks))
        return np.concatenate(parts, axis=0)
    return _field_block(surface, axis, U1b, U2b)[0]


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

    def to_json_list(self) -> list[list[float]]:
        return [list(p) for p in self.points]


@dataclass
class ConstantField:
    value: float
    spread: float
    matches_level: bool


@dataclass
class ExtractStats:
    grid: tuple[int, int]
    cells_total: int
    cells_crossing: int = 0
    cells_skipped: int = 0
    refined_edges: int = 0
    failed_edges: int = 0
    refine_iterations_total: int = 0
    refine_iterations_max: int = 0


@dataclass
class IsophoteSet:
    polylines: list[Polyline]
    level: float
    constant_field: ConstantField | None
    stats: ExtractStats

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "polylines": [{"closed": p.closed, "points": p.to_json_list()}
                          for p in self.polylines],
            "constant_field": None if self.constant_field is None else {
                "value": self.constant_field.value,
                "spread": self.constant_field.spread,
                "matches_level": self.constant_field.matches_level,
            },
            "stats": {
                "grid": list(self.stats.grid),
                "cells_total": self.stats.cells_total,
                "cells_crossing": self.stats.cells_crossing,
                "cells_skipped": self.stats.cells_skipped,
                "refined_edges": self.stats.refined_edges,
                "failed_edges": self.stats.failed_edges,
                "refine_iterations_total": self.stats.refine_iterations_total,
                "refine_iterations_max": self.stats.refine_iterations_max,
            },
        }


def _cell_masks(F: np.ndarray, level: float):
    """Sign grid (+1 above level, -1 at or below, 0 where undefined), the
    sign-change edge masks, the cells with a crossing edge, and the cells
    with no undefined corner.  Samples exactly at the level count as below,
    so a level set running through grid nodes is still caught."""
    s = np.where(np.isfinite(F), np.where(F > level, 1, -1), 0)
    ch = s[:-1, :] * s[1:, :] == -1   # edges along u1
    cv = s[:, :-1] * s[:, 1:] == -1   # edges along u2
    cell = (ch[:, :-1] | ch[:, 1:] | cv[:-1, :] | cv[1:, :])
    valid = ((s[:-1, :-1] != 0) & (s[1:, :-1] != 0)
             & (s[1:, 1:] != 0) & (s[:-1, 1:] != 0))
    return s, ch, cv, cell, valid


def crossing_cells(F: np.ndarray, level: float) -> set[tuple[int, int]]:
    """Cells with at least one sign-change edge (NaN corners excluded)."""
    *_, cell, valid = _cell_masks(F, level)
    return {(int(i), int(j)) for i, j in np.argwhere(cell & valid)}


def _refine_edges(surface, axis, level, p0, p1, f0, f1, refine_tol):
    """Vectorized bisection along crossing edges.

    p0, p1: (m, 2) endpoint parameter coordinates; f0, f1 field values of
    opposite sign.  First probe is the linear interpolation point, then
    ordinary bisection until |field - level| <= refine_tol or MAX_BISECT.
    """
    m = p0.shape[0]
    lo = np.zeros(m)
    hi = np.ones(m)
    t = f0 / (f0 - f1)  # linear interpolation start
    best_t = t.copy()
    best_err = np.full(m, np.inf)
    failed = np.zeros(m, dtype=bool)
    iterations = 0
    max_iter_used = 0
    for it in range(MAX_BISECT):
        pu = p0 + t[:, None] * (p1 - p0)
        fv = field_grid(surface, axis, pu[:, 0], pu[:, 1]) - level
        bad = ~np.isfinite(fv)
        failed |= bad
        err = np.abs(fv)
        better = err < best_err
        best_t = np.where(better & ~bad, t, best_t)
        best_err = np.where(better & ~bad, err, best_err)
        iterations += m
        max_iter_used = it + 1
        if np.all((best_err <= refine_tol) | failed):
            break
        same_side = np.sign(fv) == np.sign(f0)
        lo = np.where(same_side & ~bad, t, lo)
        hi = np.where(~same_side & ~bad, t, hi)
        t = 0.5 * (lo + hi)
    pu = p0 + best_t[:, None] * (p1 - p0)
    return pu, best_err, failed, iterations, max_iter_used


def extract(surface: SurfaceSpec, query: IsophoteQuery,
            workers: int | None = None) -> IsophoteSet:
    """Marching-squares extraction of the level set field == level.

    Saddle cells are disambiguated by the cell-center sample.  Singular
    normals abort only the affected cells and are counted in stats.  When
    the whole grid is constant to within refine_tol, no tracing happens
    and the constant is reported instead.
    """
    n1, n2 = query.grid
    U1, U2 = surface.grid(n1 + 1, n2 + 1)
    F = field_grid(surface, query.axis, U1[:, None], U2[None, :], workers=workers)
    stats = ExtractStats(grid=(n1, n2), cells_total=n1 * n2)
    level = query.level

    finite = np.isfinite(F)
    if not finite.any():
        stats.cells_skipped = stats.cells_total
        return IsophoteSet([], level, None, stats)
    fmin, fmax = float(F[finite].min()), float(F[finite].max())
    if finite.all() and fmax - fmin <= query.refine_tol:
        value = float(F.mean())
        cf = ConstantField(value=value, spread=fmax - fmin,
                           matches_level=abs(value - level) <= query.refine_tol)
        return IsophoteSet([], level, cf, stats)

    s, cross_h, cross_v, cell, cell_ok = _cell_masks(F, level)

    # gather crossing edges: ("h", i, j) spans samples (i,j)-(i+1,j)
    edge_ids: list[tuple[str, int, int]] = []
    p0s, p1s, f0s, f1s = [], [], [], []
    for kind, mask, di, dj in (("h", cross_h, 1, 0), ("v", cross_v, 0, 1)):
        for i, j in np.argwhere(mask):
            i, j = int(i), int(j)
            edge_ids.append((kind, i, j))
            p0s.append((U1[i], U2[j]))
            p1s.append((U1[i + di], U2[j + dj]))
            f0s.append(F[i, j] - level)
            f1s.append(F[i + di, j + dj] - level)

    points: dict[tuple[str, int, int], tuple[float, float]] = {}
    failed_edges: set[tuple[str, int, int]] = set()
    if edge_ids:
        pu, err, failed, iters, max_used = _refine_edges(
            surface, query.axis, level,
            np.asarray(p0s), np.asarray(p1s),
            np.asarray(f0s), np.asarray(f1s), query.refine_tol)
        stats.refined_edges = len(edge_ids)
        stats.refine_iterations_total = iters
        stats.refine_iterations_max = max_used
        for k, eid in enumerate(edge_ids):
            if failed[k] or not np.isfinite(err[k]):
                failed_edges.add(eid)
            else:
                points[eid] = (float(pu[k, 0]), float(pu[k, 1]))
        stats.failed_edges = len(failed_edges)

    # per-cell segments; saddles resolved by the center sample
    segments: list[tuple[tuple, tuple]] = []
    saddle_cells = []
    crossing = 0
    skipped = int(np.count_nonzero(~cell_ok))
    for i, j in np.argwhere(cell & cell_ok):
        i, j = int(i), int(j)
        edges = []
        if cross_h[i, j]:
            edges.append(("h", i, j))          # bottom
        if cross_v[i + 1, j]:
            edges.append(("v", i + 1, j))      # right
        if cross_h[i, j + 1]:
            edges.append(("h", i, j + 1))      # top
        if cross_v[i, j]:
            edges.append(("v", i, j))          # left
        if any(e in failed_edges for e in edges):
            skipped += 1
            continue
        crossing += 1
        if len(edges) == 2:
            segments.append((edges[0], edges[1]))
        elif len(edges) == 4:
            saddle_cells.append((i, j, edges))
        else:
            # can only happen with refinement failures already filtered
            skipped += 1
    if saddle_cells:
        cu1 = np.array([0.5 * (U1[i] + U1[i + 1]) for i, j, _ in saddle_cells])
        cu2 = np.array([0.5 * (U2[j] + U2[j + 1]) for i, j, _ in saddle_cells])
        centers = field_grid(surface, query.axis, cu1, cu2)
        for (i, j, edges), cf in zip(saddle_cells, centers):
            bottom, right, top, left = edges
            center_sign = 1 if (np.isfinite(cf) and cf > level) else -1
            if center_sign == s[i, j]:
                segments.append((bottom, right))
                segments.append((left, top))
            else:
                segments.append((left, bottom))
                segments.append((top, right))
    stats.cells_crossing = crossing
    stats.cells_skipped = skipped

    polylines = _link_segments(segments, points)
    out = []
    if polylines:
        # ambient coordinates for every vertex, in one vectorized pass
        allpts = [p for chain in polylines for p in chain]
        au1 = np.array([p[0] for p in allpts])
        au2 = np.array([p[1] for p in allpts])
        jx, jy, jz = _coordinate_jets(surface, au1, au2, check=False)
        k = 0
        for chain in polylines:
            pts = []
            for _ in chain:
                pts.append((float(au1[k]), float(au2[k]),
                            float(np.ravel(jx.value)[k]),
                            float(np.ravel(jy.value)[k]),
                            float(np.ravel(jz.value)[k])))
                k += 1
            closed = (len(pts) > 2 and
                      math.hypot(pts[0][0] - pts[-1][0],
                                 pts[0][1] - pts[-1][1]) <= CLOSE_TOL)
            out.append(Polyline(pts, closed))
    return IsophoteSet(out, level, None, stats)


def _link_segments(segments, points):
    """Join cell segments sharing an edge into ordered vertex chains."""
    by_edge: dict[tuple, list[int]] = {}
    for k, (ea, eb) in enumerate(segments):
        by_edge.setdefault(ea, []).append(k)
        by_edge.setdefault(eb, []).append(k)
    used = [False] * len(segments)
    chains = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        ea, eb = segments[start]
        chain = [ea, eb]
        # extend forward from eb, backward from ea
        for tip, append in ((eb, True), (ea, False)):
            cur_edge = tip
            cur_seg = start
            while True:
                nxt = [k for k in by_edge.get(cur_edge, []) if k != cur_seg and not used[k]]
                if not nxt:
                    break
                k = nxt[0]
                used[k] = True
                a, b = segments[k]
                other = b if a == cur_edge else a
                if append:
                    chain.append(other)
                else:
                    chain.insert(0, other)
                cur_edge = other
                cur_seg = k
                if other == (chain[0] if append else chain[-1]):
                    break
        chains.append([points[e] for e in chain if e in points])
    return [c for c in chains if len(c) >= 2]


def silhouette(surface: SurfaceSpec, axis: GVec3, grid=DEFAULT_GRID,
               tol: float = DEFAULT_REFINE_TOL,
               workers: int | None = None) -> IsophoteSet:
    """Level-0 isophote: the normal is orthogonal to the axis."""
    return extract(surface, IsophoteQuery.for_silhouette(axis, grid, tol),
                   workers=workers)
