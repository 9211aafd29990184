"""Interchange writers: triangle meshes to OBJ, sample tables to CSV,
parameter-domain level sets to SVG.

All writers are deterministic byte-for-byte: floats are written with 17
significant digits (lossless for 64-bit values), lines end with LF, and
element order is fixed by the input order.

One formatter writes every 17-digit float, the OBJ vertices and the CSV
bodies: `_float_rows`, whose bytes equal `b"%.17g" % v` for each value.
It works on whole arrays for 1e-4 <= |v| < 1e17 and for zeros; other
values (smaller, larger, inf and nan) go through `'%.17g'` one by one.
"""

from __future__ import annotations

import csv
import io
import numbers
from dataclasses import dataclass
from xml.etree import ElementTree as ET

import numpy as np

from .curve import FrenetSample
from .errors import ExprDomainError, G3Error
from .isophote import MAX_GRID_POINTS, IsophoteSet, _chains
from .surface import DarbouxSample, SurfaceSpec, _coordinate_values


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# A formatted float fills a cell of _CELL bytes, padded with NULs, which
# are dropped when the rows are joined; "-2.2250738585072014e-308" fills one.
_CELL = 24
_BLOCK = 12288                       # values formatted at once
_POW10 = 10.0 ** np.arange(21)       # 1 .. 1e20, each an exact double


def _word_table() -> np.ndarray:
    """The 4-byte words a cell is built from, as uint32s: the groups
    "0000".."9999"; the same with their trailing zeros as NUL, for a group
    that only zero groups follow; a leading digit, after three NULs; and
    the sign, "-" or NUL, before three NULs."""
    q = np.arange(10000, dtype=np.uint16)[:, None]
    words = np.zeros((_SIGN + 2, 4), np.uint8)
    words[:_STRIPPED] = q // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48
    words[_STRIPPED:_LEAD] = words[:_STRIPPED] * (q % np.array([10000, 1000, 100, 10],
                                                               np.uint16) != 0)
    words[_LEAD:_SIGN, 3] = np.arange(48, 58)
    words[_SIGN + 1, 0] = ord("-")
    return words.view(np.uint32).ravel()


_STRIPPED, _LEAD, _SIGN = 10000, 20000, 20010     # offsets in _WORDS
_WORDS = _word_table()


def _cell_masks():
    """Per exponent k = -4..16, as three uint64 words of a cell: the bytes
    of the integer digits, and the bytes the cell gets besides its digits
    once they have moved one byte down: "0" in each integer digit (one
    that only zeros follow is NUL), or the "0.", "0.0" .. "0.000" before
    the first digit for k < 0."""
    ints, marks = np.zeros((21, _CELL), np.uint8), np.zeros((21, _CELL), np.uint8)
    for k in range(-4, 17):
        if k >= 0:
            ints[k + 4, 7:8 + k] = 0xFF
            marks[k + 4, 6:7 + k] = ord("0")
        else:
            marks[k + 4, 6 + k:7] = np.frombuffer(b"0.000"[:1 - k], np.uint8)
    return ints.view(np.uint64), marks.view(np.uint64)


_INTS, _MARKS = _cell_masks()


def _split(a):
    """Veltkamp's split: a = hi + lo with each half 26 bits or fewer."""
    c = 134217729.0 * a              # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _times_pow10(a, e):
    """hi, lo with hi + lo = a * 10**e exactly (Dekker's product)."""
    p = np.take(_POW10, e)
    hi = a * p
    a1, a2 = _split(a)
    p1, p2 = _split(p)
    return hi, ((a1 * p1 - hi) + a1 * p2 + a2 * p1) + a2 * p2


def _float_cells(v: np.ndarray) -> np.ndarray:
    """The (n, _CELL) uint8 cells of `b"%.17g" % x` for each x of v.

    For 1e-4 <= |x| < 1e17, with k the decimal exponent, x * 10**(16-k)
    is hi + lo exactly, so N = hi + round(lo) (half to even, as hi >= 2**53
    is even wherever lo is a tie) is x's 17 significant digits; k is fixed
    up by one where log10 missed it.  N < 10**17, as no double below a
    power of ten is within 5e-18 of it.  %g writes N in fixed notation, as
    -4 <= k < 17, without trailing fractional zeros or a bare point.  The
    digits go to bytes 7..23 of the cell; the k + 1 integer digits then
    move one byte down, so that the point goes to byte 7 + k, where the
    lead "0." of k < 0 has it too; byte 0 holds the sign.
    """
    n = len(v)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int8)
    np.clip(k, -4, 16, out=k)
    hi, lo = _times_pow10(a, 16 - k)
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    fix = np.flatnonzero(up | down)
    if len(fix):
        k[fix] += up[fix].view(np.int8) - down[fix].view(np.int8)
        hi[fix], lo[fix] = _times_pow10(a[fix], 16 - k[fix])
    N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # the indices in _WORDS of a cell's sign, leading digit and four
    # groups of N's other 16 digits
    high = N // 10**8
    low = (N - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)
    w = np.empty((n, 6), np.int32)
    np.add(np.signbit(v), _SIGN, out=w[:, 0])
    np.floor_divide(high, 10**8, out=w[:, 1])
    high -= w[:, 1] * 10**8
    w[:, 1] += _LEAD
    np.floor_divide(high, 10**4, out=w[:, 2])
    np.subtract(high, w[:, 2] * 10**4, out=w[:, 3])
    np.floor_divide(low, 10**4, out=w[:, 4])
    np.subtract(low, w[:, 4] * 10**4, out=w[:, 5])
    w[:, 5] += _STRIPPED
    for j in (4, 3, 2):
        np.add(w[:, j], _STRIPPED, out=w[:, j], where=w[:, j + 1] == _STRIPPED)
    cells = np.take(_WORDS, w).view(np.uint64)
    row = k + 4                      # k's row of _INTS and _MARKS
    ints = cells & np.take(_INTS, row, axis=0)
    cells ^= ints
    cells |= np.take(_MARKS, row, axis=0)
    cells = cells.view(np.uint8)
    flat = cells.reshape(-1)
    flat[:-1] |= ints.view(np.uint8).reshape(-1)[1:]
    # the point at byte 7 + k, unless no digit follows it (none does for
    # k = 16, whose last integer digit moved away from byte 23)
    at = np.arange(7, n * _CELL, _CELL) + k
    flat[at] = (flat[at + (k < 16)] != 0) * np.uint8(46)
    # zeros are "0" or "-0"; other values outside the range go to '%.17g'
    slow = np.flatnonzero(~fast)
    if len(slow):
        other = np.zeros((len(slow), _CELL), np.uint8)
        other[:, 0] = cells[slow, 0]
        other[:, 1] = 48
        rest = np.flatnonzero(v[slow])
        text = b"".join(_fmt(x).encode().ljust(_CELL, b"\0") for x in v[slow[rest]].tolist())
        other[rest] = np.frombuffer(text, np.uint8).reshape(-1, _CELL)
        cells[slow] = other
    return cells


def _float_rows(values, prefix: bytes, sep: bytes) -> bytes:
    """Each row of a 2-D float array as `prefix`, its values written as
    `b"%.17g"` joined by the one byte `sep`, and a LF."""
    values = np.asarray(values, dtype=np.float64)
    m, c = values.shape
    if not values.size:
        return (prefix + b"\n") * m
    p = len(prefix)
    parts = []
    rows = max(1, _BLOCK // c)
    for s in range(0, m, rows):
        block = values[s:s + rows]
        buf = np.zeros((len(block), p + c * (_CELL + 1)), np.uint8)
        buf[:, :p] = np.frombuffer(prefix, np.uint8)
        row = buf[:, p:].reshape(len(block), c, _CELL + 1)
        row[:, :, :_CELL] = _float_cells(block.ravel()).reshape(len(block), c, _CELL)
        row[:, :-1, _CELL] = ord(sep)
        row[:, -1, _CELL] = 10
        parts.append(buf.tobytes().translate(None, b"\0"))
    return b"".join(parts)


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Vertices as an (N,3) float64 array, triangle faces as an (M,3) int64
    array of 0-based index triples, and the grid dimensions the mesh was
    tessellated from.  Sequences of triples are converted.  A vertex with
    a component that is not finite is a ValueError naming its row."""

    vertices: np.ndarray
    faces: np.ndarray
    provenance: tuple[int, int]

    def __post_init__(self):
        vertices = np.asarray(self.vertices, dtype=np.float64).reshape(len(self.vertices), 3)
        finite = np.isfinite(vertices).all(axis=1)
        if not finite.all():
            i = int(finite.argmin())
            raise ValueError(f"vertex {i} is not finite: {vertices[i].tolist()}")
        try:
            faces = np.asarray(self.faces, dtype=np.int64).reshape(len(self.faces), 3)
        except ValueError:
            bad = [f for f in self.faces if len(f) != 3]
            raise G3Error(f"degenerate face {bad[0]}" if bad
                          else "face indices must be integers") from None
        degenerate = (faces[:, [0, 1, 0]] == faces[:, [1, 2, 2]]).any(axis=1)
        bad = degenerate | ((faces < 0) | (faces >= len(vertices))).any(axis=1)
        if bad.any():
            k = int(bad.argmax())
            raise G3Error(f"degenerate face {self.faces[k]}" if degenerate[k]
                          else f"face index out of range in {self.faces[k]}")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)


def tessellate(surface: SurfaceSpec, n1: int, n2: int) -> TriMesh:
    """Regular-grid tessellation: (n1+1)x(n2+1) vertices in row-major
    order (u1 rows), two triangles per cell.  A ValueError unless n1 and n2
    are integers (numpy's too, bool not), each at least 1, with at most
    MAX_GRID_POINTS vertices."""
    if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1
               for n in (n1, n2)):
        raise ValueError(f"n1 and n2 must be integers >= 1, got {n1!r} and {n2!r}")
    n1, n2 = int(n1), int(n2)
    if (n1 + 1) * (n2 + 1) > MAX_GRID_POINTS:
        raise ValueError(f"a {n1}x{n2} mesh has {(n1 + 1) * (n2 + 1)} vertices, above the "
                         f"cap MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    U1, U2 = surface.grid(n1 + 1, n2 + 1)
    G1, G2 = U1[:, None], U2[None, :]
    shape = (n1 + 1, n2 + 1)
    try:
        xyz = _coordinate_values(surface, G1, G2)
    except ExprDomainError:
        # locate the offending grid point for the report: the first whose
        # value is not finite, else (a check on a finite value, such as
        # sqrt at 0) the first where the checked evaluation raises
        x, y, z = _coordinate_values(surface, G1, G2, check=False)
        bad = np.broadcast_to(~(np.isfinite(x) & np.isfinite(y) & np.isfinite(z)), shape)
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
        else:
            i = next(i for i in range(n1 + 1) if _raises(surface, G1[i:i + 1], G2))
            j = next(j for j in range(n2 + 1) if _raises(surface, G1[i], G2[0, j]))
        raise G3Error(
            f"surface evaluation failed at grid point ({i},{j}) = "
            f"(u1,u2)=({float(U1[i]):.6g},{float(U2[j]):.6g})") from None
    # a coordinate gets one value per vertex, and + 0.0 turns a -0.0 into 0.0
    vertices = np.empty(shape + (3,))
    for k, v in enumerate(xyz):
        np.add(v, 0.0, out=vertices[..., k])
    vertices = vertices.reshape(-1, 3)
    # cell (i, j) has corners v00 = i*(n2+1) + j, v10 = v00 + n2+1, v11, v01
    v00 = (np.arange(n1)[:, None] * (n2 + 1) + np.arange(n2)).ravel()
    v10, v01 = v00 + (n2 + 1), v00 + 1
    faces = np.stack([v00, v10, v10 + 1, v00, v10 + 1, v01], axis=1).reshape(-1, 3)
    return TriMesh(vertices, faces, (n1, n2))


def _raises(surface: SurfaceSpec, U1, U2) -> bool:
    """Whether the checked evaluation of the surface at U1, U2 raises."""
    try:
        _coordinate_values(surface, U1, U2)
    except ExprDomainError:
        return True
    return False


def write_obj(obj: TriMesh | IsophoteSet) -> bytes:
    """Wavefront OBJ bytes: `v` lines then 1-based `f` triangles for a
    mesh, or `l` polylines for extracted level sets."""
    head = b"# g3geom OBJ export\n"
    if isinstance(obj, TriMesh):
        # %.17g writes an integral float as the integer
        return (head + _float_rows(obj.vertices, b"v ", b" ")
                + _float_rows(obj.faces + 1.0, b"f ", b" "))
    v = _float_rows(obj.vertices[:, 2:], b"v ", b" ")
    lines = []
    for a, b, c in _chains(obj.offsets, obj.closed):
        idx = tuple(range(a + 1, b + 1)) + (a + 1,) * c
        lines.append("l " + " ".join(["%d"] * len(idx)) % idx + "\n")
    return head + v + "".join(lines).encode("ascii")


def write_csv(samples, columns: tuple[str, ...] | None = None) -> bytes:
    """CSV bytes with a header row; columns are inferred from the sample
    type (Frenet: s,kappa,tau; Darboux: s,kg,kn,taug,phi; IsophoteSet:
    polyline,u1,u2,x,y,z) or passed explicitly for mapping rows."""
    if isinstance(samples, IsophoteSet):
        cols = columns or ("polyline", "u1", "u2", "x", "y", "z")
        rows = np.column_stack([np.repeat(np.arange(len(samples.closed)),
                                          np.diff(samples.offsets)),
                                samples.vertices])
    else:
        samples = list(samples)
        first = samples[0] if samples else {}
        if isinstance(first, FrenetSample):
            cols = columns or ("s", "kappa", "tau")
            rows = [(x.s, x.kappa, x.tau) for x in samples]
        elif isinstance(first, DarbouxSample):
            cols = columns or ("s", "kg", "kn", "taug", "phi")
            rows = [(x.s, x.kg, x.kn, x.tau_g, x.phi) for x in samples]
        else:
            cols = tuple(columns) if columns else tuple(sorted(first))
            rows = [tuple(row[c] for c in cols) for row in samples]
        width = len(rows[0]) if rows else 0
        rows = np.array([list(map(float, row)) for row in rows]).reshape(len(rows), width)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cols)  # names may need quoting
    return out.getvalue().encode("ascii") + _float_rows(rows, b"", b",")


_SVG_SIZE = 800
_SVG_MARGIN = 60


def write_svg(isoset: IsophoteSet, domain) -> bytes:
    """Parameter-domain plot of an IsophoteSet in a fixed 800x800 viewBox.

    A constant-field result is drawn as a shaded full-domain rectangle
    with the constant value annotated; otherwise each polyline becomes an
    SVG polyline element.  The level value sits in the document title.
    """
    (a1, b1), (a2, b2) = domain
    span = _SVG_SIZE - 2 * _SVG_MARGIN

    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "viewBox": f"0 0 {_SVG_SIZE} {_SVG_SIZE}",
    })
    title = ET.SubElement(svg, "title")
    title.text = f"level = {_fmt(isoset.level)}"
    ET.SubElement(svg, "rect", {
        "x": str(_SVG_MARGIN), "y": str(_SVG_MARGIN),
        "width": str(span), "height": str(span),
        "fill": "white", "stroke": "black", "stroke-width": "1",
    })
    labels = [
        (_SVG_MARGIN, _SVG_SIZE - _SVG_MARGIN + 24, f"u1 = {a1:.6g}", "start"),
        (_SVG_SIZE - _SVG_MARGIN, _SVG_SIZE - _SVG_MARGIN + 24, f"u1 = {b1:.6g}", "end"),
        (_SVG_MARGIN - 8, _SVG_SIZE - _SVG_MARGIN, f"u2 = {a2:.6g}", "end"),
        (_SVG_MARGIN - 8, _SVG_MARGIN + 6, f"u2 = {b2:.6g}", "end"),
    ]
    for x, y, text, anchor in labels:
        el = ET.SubElement(svg, "text", {
            "x": str(x), "y": str(y), "font-size": "14", "text-anchor": anchor,
        })
        el.text = text
    if isoset.constant_field is not None:
        ET.SubElement(svg, "rect", {
            "x": str(_SVG_MARGIN), "y": str(_SVG_MARGIN),
            "width": str(span), "height": str(span),
            "fill": "#9ecae1" if isoset.constant_field.matches_level else "#eeeeee",
            "fill-opacity": "0.6",
        })
        note = ET.SubElement(svg, "text", {
            "x": str(_SVG_SIZE // 2), "y": str(_SVG_SIZE // 2),
            "font-size": "16", "text-anchor": "middle",
        })
        kind = ("entire domain is an isophote"
                if isoset.constant_field.matches_level else "constant field")
        note.text = (f"{kind}: value = {_fmt(isoset.constant_field.value)}, "
                     f"spread = {_fmt(isoset.constant_field.spread)}")
    u = isoset.vertices
    xy = np.column_stack([_SVG_MARGIN + (u[:, 0] - a1) / (b1 - a1) * span,
                          _SVG_SIZE - _SVG_MARGIN - (u[:, 1] - a2) / (b2 - a2) * span])
    for a, b, c in _chains(isoset.offsets, isoset.closed):
        pts = xy[a:b].ravel().tolist() + xy[a:min(a + c, b)].ravel().tolist()
        ET.SubElement(svg, "polyline", {
            "points": " ".join(["%.3f,%.3f"] * (len(pts) // 2)) % tuple(pts),
            "fill": "none", "stroke": "#d62728", "stroke-width": "1.5",
        })
    return ET.tostring(svg, encoding="utf-8", xml_declaration=True) + b"\n"
