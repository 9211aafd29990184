"""Extracting isophote and silhouette curves as level sets of the
shading field <n, d> over the parameter rectangle.

On the unit cylinder with the vertical axis d = (0,0,1) the field is
cos(u2), so the isophote at beta = pi/3 consists of the two rulings
u2 = pi/3 and u2 = 5 pi/3, and the silhouette of d = (0,1,0) the rulings
sin(u2) = 0.  A quadratic-profile isotropic revolution surface shows the
degenerate case: the field is constant, the whole surface is one
isophote, and the extractor reports that instead of tracing.

Run:  python3 demos/04_isophote_extraction.py
"""

import json
import math
from pathlib import Path

from g3geom import (
    GVec3,
    IsophoteQuery,
    ProfileSpec,
    SurfaceSpec,
    extract,
    revolve_isotropic,
    silhouette,
    write_obj,
    write_svg,
)

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

cylinder = SurfaceSpec.from_strings("u1", "sin(u2)", "cos(u2)",
                                    ((0.0, 2.0), (0.0, 2 * math.pi)))
z_axis = GVec3(0.0, 0.0, 1.0)

# polyline k is the rows offsets[k]:offsets[k+1] of the (u1, u2, x, y, z) vertices
iso = extract(cylinder, IsophoteQuery.for_angle(z_axis, math.pi / 3))
print(f"cylinder isophote at beta=pi/3: {len(iso.closed)} polylines, "
      f"level={iso.level}")
o = iso.offsets.tolist()
for a, b in zip(o, o[1:]):
    print(f"  {b - a} vertices along u2 = {iso.vertices[a, 1]:.9f} "
          f"(pi/3 = {math.pi/3:.9f}, 5pi/3 = {5*math.pi/3:.9f})")

(OUT / "cylinder_isophote.svg").write_bytes(write_svg(iso, cylinder.domain))
(OUT / "cylinder_isophote.obj").write_bytes(write_obj(iso))
(OUT / "cylinder_isophote.json").write_text(
    json.dumps(iso.to_json_dict(), indent=2, sort_keys=True))
print(f"wrote cylinder_isophote.{{svg,obj,json}} to {OUT}")

sil = silhouette(cylinder, GVec3(0.0, 1.0, 0.0))
print(f"\ncylinder silhouette for d=(0,1,0): {len(sil.closed)} polylines at")
for a in sil.offsets[:-1].tolist():
    print(f"  u2 = {sil.vertices[a, 1]:.9f}")

# degenerate case: the quadratic profile makes the whole surface an isophote
profile = ProfileSpec.from_string("s^2/2", (1e-3, 5.0), c=1.0)
surf = revolve_isotropic(profile)
const = extract(surf, IsophoteQuery.for_angle(z_axis, math.pi / 4))
cf = const.constant_field
print(f"\nquadratic-profile isotropic revolution, beta=pi/4:")
print(f"  constant field value = {cf.value!r} (1/sqrt(2) = {1/math.sqrt(2)!r})")
print(f"  spread = {cf.spread:.2e}, whole surface is an isophote: "
      f"{cf.matches_level}")
(OUT / "constant_field.svg").write_bytes(write_svg(const, surf.domain))

# a curved level set: closed isophote on a cubic graph surface
bowl = SurfaceSpec.from_strings("u1", "u2", "u1^2*u2 + u2^3/3",
                                ((-1.0, 1.0), (-1.0, 1.0)))
level = 1.0 / math.sqrt(1.0 + 0.64 ** 2)
ring = extract(bowl, IsophoteQuery.raw_level(z_axis, level, grid=(128, 128)))
print(f"\nclosed isophote on the cubic graph surface: "
      f"{len(ring.closed)} polyline, closed={bool(ring.closed[0])}, "
      f"{ring.offsets[1] - ring.offsets[0]} vertices")
(OUT / "closed_isophote.svg").write_bytes(write_svg(ring, bowl.domain))
