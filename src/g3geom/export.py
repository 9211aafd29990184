"""Interchange writers: triangle meshes to OBJ, sample tables to CSV,
parameter-domain level sets to SVG.

All writers are deterministic byte-for-byte: floats are written with 17
significant digits (lossless for 64-bit values), lines end with LF, and
element order is fixed by the input order.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from xml.etree import ElementTree as ET

import numpy as np

from .curve import FrenetSample
from .errors import ExprDomainError, G3Error
from .isophote import IsophoteSet, _chains
from .surface import DarbouxSample, SurfaceSpec, _coordinate_values


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Vertices as an (N,3) float64 array, triangle faces as an (M,3) int64
    array of 0-based index triples, and the grid dimensions the mesh was
    tessellated from.  Sequences of triples are converted."""

    vertices: np.ndarray
    faces: np.ndarray
    provenance: tuple[int, int]

    def __post_init__(self):
        vertices = np.asarray(self.vertices, dtype=np.float64).reshape(len(self.vertices), 3)
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
    order (u1 rows), two triangles per cell."""
    if n1 < 1 or n2 < 1:
        raise ValueError("n1 and n2 must be >= 1")
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
    # the zero of eval_jet2's broadcast, so that -0.0 turns to 0.0 as there
    zero = (G1 + G2) * 0.0
    vertices = np.empty(shape + (3,))
    for k, v in enumerate(xyz):
        np.add(v, zero, out=vertices[..., k])
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
    head = "# g3geom OBJ export\n"
    if isinstance(obj, TriMesh):
        v = "v %.17g %.17g %.17g\n" * len(obj.vertices) % tuple(obj.vertices.ravel().tolist())
        f = "f %d %d %d\n" * len(obj.faces) % tuple((obj.faces + 1).ravel().tolist())
        return (head + v + f).encode("ascii")
    v = ("v %.17g %.17g %.17g\n" * len(obj.vertices)
         % tuple(obj.vertices[:, 2:].ravel().tolist()))
    lines = []
    for a, b, c in _chains(obj.offsets, obj.closed):
        idx = tuple(range(a + 1, b + 1)) + (a + 1,) * c
        lines.append("l " + " ".join(["%d"] * len(idx)) % idx + "\n")
    return (head + v + "".join(lines)).encode("ascii")


def write_csv(samples, columns: tuple[str, ...] | None = None) -> bytes:
    """CSV bytes with a header row; columns are inferred from the sample
    type (Frenet: s,kappa,tau; Darboux: s,kg,kn,taug,phi; IsophoteSet:
    polyline,u1,u2,x,y,z) or passed explicitly for mapping rows."""
    if isinstance(samples, IsophoteSet):
        cols = columns or ("polyline", "u1", "u2", "x", "y", "z")
        rows = np.column_stack([np.repeat(np.arange(len(samples.closed)),
                                          np.diff(samples.offsets)),
                                samples.vertices]).tolist()
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
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cols)  # names may need quoting
    fmt = ",".join(["%.17g"] * len(rows[0])) + "\n" if rows else ""
    out.write(fmt * len(rows) % tuple(map(float, itertools.chain.from_iterable(rows))))
    return out.getvalue().encode("ascii")


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
