"""Surfaces of revolution by Euclidean and isotropic rotations, their
closed-form normals, and the helix/isophote propositions.

Euclidean rotation:  X = (s, g sin t, g cos t), normal (0, sin t, cos t)
independent of the profile.  Isotropic rotation sweeps isotropic circles
(parabolas):  X = (s + ct, st + ct^2/2, g(s)), normal
(0, c g', s)/sqrt((c g')^2 + s^2).  With the quadratic profile
g = s^2/(2c) + A the normal freezes at (0, 1, 1)/sqrt(2): the whole
surface is one isophote, and the profile is both a general and a slant
helix.

Run:  python3 demos/05_revolution_surfaces.py
"""

import math
from pathlib import Path

from g3geom import (
    GVec3,
    ProfileSpec,
    frame_normal_decomposition,
    revolve_euclidean,
    revolve_isotropic,
    sample_surface,
    tessellate,
    verify_prop_4_1,
    verify_prop_4_2,
    verify_prop_4_3,
    write_obj,
)

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

profile = ProfileSpec.from_string("s^2/2 + 1", (0.0, 2.0))

surf_e = revolve_euclidean(profile)
print("euclidean revolution of (s, 0, s^2/2 + 1):")
print("  X =", (surf_e.x.source, surf_e.y.source, surf_e.z.source))
for t in (0.0, 1.2, 4.0):
    n = sample_surface(surf_e, 1.0, t).n
    print(f"  n(1, {t:3.1f}) = ({n.x:.0f}, {n.y:+.6f}, {n.z:+.6f})"
          f"   expected (0, {math.sin(t):+.6f}, {math.cos(t):+.6f})")

print("\nnormal in the profile frame { N, B }:")
for t in (0.0, math.pi / 2, math.pi):
    aN, aB = frame_normal_decomposition(profile, "euclidean", 1.0, t)
    print(f"  t = {t:4.2f}: n = {aN:+.3f} N {aB:+.3f} B")

print("\nproposition 4.1 (general helix -> isophote along t = pi/2, 3pi/2):")
rep = verify_prop_4_1(profile, GVec3(0, 1, 0))
print(f"  hypothesis_met={rep.hypothesis_met} verified={rep.conclusion_verified} "
      f"spreads=({rep.details['field_spread_0']:.1e}, "
      f"{rep.details['field_spread_1']:.1e})")

print("proposition 4.2 (slant helix -> isophote along t = 0, pi):")
rep = verify_prop_4_2(profile, GVec3(0, 0, 1))
print(f"  hypothesis_met={rep.hypothesis_met} verified={rep.conclusion_verified}")

print("\nproposition 4.3 (quadratic profile, both axis branches):")
for branch, c, A in (("i", 1.0, 0.0), ("ii", 2.0, 5.0)):
    rep = verify_prop_4_3(c, A, 1.0, branch)
    print(f"  branch {branch} (c={c}, A={A}): value={rep.details['value']!r} "
          f"expected={rep.details['expected']!r} "
          f"spread={rep.details['spread']:.1e}")
    cor = rep.details["corollary_4_4"]
    print(f"    corollary 4.4: general_helix={cor['general_helix']} "
          f"slant_helix={cor['slant_helix']}")

# the c=1, A=0 surface, meshed (the shape shown in the source figure)
quad = ProfileSpec.from_string("s^2/2", (1e-3, 5.0), c=1.0)
surf_i = revolve_isotropic(quad)
mesh = tessellate(surf_i, 64, 64)
(OUT / "isotropic_revolution.obj").write_bytes(write_obj(mesh))
print(f"\nwrote {OUT / 'isotropic_revolution.obj'} "
      f"({len(mesh.vertices)} vertices, {len(mesh.faces)} triangles)")
