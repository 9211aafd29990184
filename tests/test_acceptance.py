"""Acceptance criteria, one test per criterion.

Each test prints a [PASS]/[FAIL] line (visible with pytest -s) and
asserts the criterion at its stated tolerance.  Runtime budgets are
asserted with wall-clock measurements.
"""

import json
import math
import time
from xml.etree import ElementTree as ET

import numpy as np

from g3geom import (
    CurveSpec,
    GVec3,
    IsophoteQuery,
    ProfileSpec,
    SurfaceSpec,
    TraceSpec,
    extract,
    field,
    field_grid,
    frenet_samples,
    normalize_axis,
    revolve_isotropic,
    tessellate,
    transform_curve,
    transform_surface,
    apply_motion,
    verify_prop_4_1,
    verify_prop_4_2,
    write_obj,
    write_svg,
)
from g3geom.curve import _curve_arrays
from g3geom.isophote import crossing_cells
from g3geom.surface import _darboux_arrays, induced_curve
from g3geom.verify import REGISTRY, random_corpus, random_motions, run_suite

Z = GVec3(0.0, 0.0, 1.0)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_acceptance_1_prop43_constant_field():
    """Isotropic surface of revolution with the quadratic profile is a
    single isophote: field constant 1/sqrt(2) with spread <= 1e-12 on a
    256x256 grid, and the extractor reports it, in under 2 seconds."""
    t0 = time.perf_counter()
    profile = ProfileSpec.from_string("s^2/2", (1e-3, 5.0), c=1.0)
    surf = revolve_isotropic(profile)
    U1 = np.linspace(1e-3, 5.0, 257)
    U2 = np.linspace(-2.0, 2.0, 257)
    F = field_grid(surf, Z, U1[:, None], U2[None, :])
    spread = float(F.max() - F.min())
    value = float(F.mean())
    iso = extract(surf, IsophoteQuery.for_angle(Z, math.pi / 4, grid=(256, 256)))
    elapsed = time.perf_counter() - t0
    ok = (spread <= 1e-12
          and abs(value - 1.0 / math.sqrt(2.0)) <= 1e-12
          and iso.constant_field is not None
          and iso.constant_field.matches_level
          and elapsed < 2.0)
    assert _report("acceptance-1 prop-4.3 constant field", ok,
                   f"value={value!r} spread={spread:.3e} time={elapsed:.2f}s")
    assert spread <= 1e-12
    assert abs(value - 1.0 / math.sqrt(2.0)) <= 1e-12
    assert iso.constant_field is not None and iso.constant_field.matches_level
    assert elapsed < 2.0


def test_acceptance_2_props_41_42():
    """Parallels t0 = pi/2 (binormal axis) and t0 = 0 (normal axis) of the
    revolved helix profile are isophotes with spread <= 1e-9, under 1 s."""
    t0 = time.perf_counter()
    profile = ProfileSpec.from_string("s^2/2 + 1", (0.0, 2.0))
    r1 = verify_prop_4_1(profile, GVec3(0, 1, 0), tol=1e-9)
    r2 = verify_prop_4_2(profile, GVec3(0, 0, 1), tol=1e-9)
    elapsed = time.perf_counter() - t0
    spreads = [r1.details["field_spread_0"], r1.details["field_spread_1"],
               r2.details["field_spread_0"], r2.details["field_spread_1"]]
    ok = (r1.hypothesis_met and r1.conclusion_verified
          and r2.hypothesis_met and r2.conclusion_verified
          and max(spreads) <= 1e-9 and elapsed < 1.0)
    assert _report("acceptance-2 props 4.1/4.2", ok,
                   f"max_spread={max(spreads):.3e} time={elapsed:.2f}s")
    assert ok


def test_acceptance_3_frenet_oracle():
    """kappa = sqrt(1+s^2) and tau = 1/(1+s^2) for (s, s^2/2, s^3/6), to
    1e-12 at 100 points of [0, 2]."""
    curve = CurveSpec.from_strings("s^2/2", "s^3/6", (0.0, 2.0))
    S = np.linspace(0.0, 2.0, 100)
    worst_k = worst_t = 0.0
    for f, s in zip(frenet_samples(curve, S), S):
        worst_k = max(worst_k, abs(f.kappa - math.sqrt(1.0 + s * s)))
        worst_t = max(worst_t, abs(f.tau - 1.0 / (1.0 + s * s)))
    ok = worst_k <= 1e-12 and worst_t <= 1e-12
    assert _report("acceptance-3 frenet closed forms", ok,
                   f"kappa_dev={worst_k:.3e} tau_dev={worst_t:.3e}")
    assert ok


def test_acceptance_4_darboux_identities():
    """Cylinder helix trace has (kg, kn, taug) = (0, -1, -1) to 1e-10;
    kappa^2 = kg^2 + kn^2 to 1e-9 and the Darboux torsion expression
    matches Frenet tau to 1e-6 on 20 randomized pairs."""
    cyl = SurfaceSpec.from_strings("u1", "sin(u2)", "cos(u2)",
                                   ((0.0, 2.0), (0.0, 2.0 * math.pi)))
    helix = TraceSpec.from_strings("s", "s", (0.0, 2.0))
    a = _darboux_arrays(cyl, helix, helix.samples(50))
    cyl_dev = max(float(np.abs(a["kg"]).max()),
                  float(np.abs(a["kn"] + 1).max()),
                  float(np.abs(a["taug"] + 1).max()))

    h = 1e-5
    worst_k2 = worst_tau = 0.0
    for surface, trace in random_corpus():
        S = trace.samples(30)
        S = S[(S > trace.domain[0] + 2 * h) & (S < trace.domain[1] - 2 * h)]
        a0 = _darboux_arrays(surface, trace, S)
        fr = _curve_arrays(induced_curve(surface, trace), S)
        worst_k2 = max(worst_k2, float(
            np.abs(fr["kappa"] ** 2 - (a0["kg"] ** 2 + a0["kn"] ** 2)).max()))
        ap = _darboux_arrays(surface, trace, S + h)
        am = _darboux_arrays(surface, trace, S - h)
        kgp = (ap["kg"] - am["kg"]) / (2 * h)
        knp = (ap["kn"] - am["kn"]) / (2 * h)
        tau_d = a0["taug"] + (a0["kg"] * knp - kgp * a0["kn"]) / (
            a0["kg"] ** 2 + a0["kn"] ** 2)
        mask = fr["kappa"] > 1e-6
        worst_tau = max(worst_tau, float(np.abs(fr["tau"] - tau_d)[mask].max()))

    ok = cyl_dev <= 1e-10 and worst_k2 <= 1e-9 and worst_tau <= 1e-6
    assert _report("acceptance-4 darboux identities", ok,
                   f"cylinder={cyl_dev:.3e} kappa2={worst_k2:.3e} tau={worst_tau:.3e}")
    assert ok


def test_acceptance_5_frame_odes():
    """Frenet and Darboux frame ODEs hold against central finite
    differences (step 1e-5) with residual <= 1e-5 on the corpus."""
    h = 1e-5
    worst = 0.0
    corpus = random_corpus()
    for surface, trace in corpus[:10]:
        S = trace.samples(25)
        S = S[(S > trace.domain[0] + 2 * h) & (S < trace.domain[1] - 2 * h)]
        # Darboux ODE
        a0 = _darboux_arrays(surface, trace, S)
        ap = _darboux_arrays(surface, trace, S + h)
        am = _darboux_arrays(surface, trace, S - h)

        def fd(key, hi=ap, lo=am):
            return (hi[key] - lo[key]) / (2 * h)

        worst = max(worst, float(np.hypot(
            fd("Ty") - (a0["kg"] * a0["Qy"] + a0["kn"] * a0["ny"]),
            fd("Tz") - (a0["kg"] * a0["Qz"] + a0["kn"] * a0["nz"])).max()))
        worst = max(worst, float(np.hypot(fd("Qy") - a0["taug"] * a0["ny"],
                                          fd("Qz") - a0["taug"] * a0["nz"]).max()))
        worst = max(worst, float(np.hypot(fd("ny") + a0["taug"] * a0["Qy"],
                                          fd("nz") + a0["taug"] * a0["Qz"]).max()))
        # Frenet ODE of the induced curve
        c = induced_curve(surface, trace)
        c0 = _curve_arrays(c, S)
        cp = _curve_arrays(c, S + h)
        cm = _curve_arrays(c, S - h)

        def cfd(key):
            return (cp[key] - cm[key]) / (2 * h)

        worst = max(worst, float(np.hypot(cfd("fp") - c0["kappa"] * c0["Ny"],
                                          cfd("gp") - c0["kappa"] * c0["Nz"]).max()))
        worst = max(worst, float(np.hypot(cfd("Ny") - c0["tau"] * c0["By"],
                                          cfd("Nz") - c0["tau"] * c0["Bz"]).max()))
        worst = max(worst, float(np.hypot(cfd("By") + c0["tau"] * c0["Ny"],
                                          cfd("Bz") + c0["tau"] * c0["Nz"]).max()))
    ok = worst <= 1e-5
    assert _report("acceptance-5 frame ODEs", ok, f"max_residual={worst:.3e}")
    assert ok


def test_acceptance_6_isophote_extraction():
    """Cylinder isophote at beta = pi/3 on a 256x256 grid: every vertex
    within 1e-6 of u2 = pi/3 or 5pi/3, in under a second; crossing cells
    match the brute-force edge scan exactly on 16x16 grids."""
    cyl = SurfaceSpec.from_strings("u1", "sin(u2)", "cos(u2)",
                                   ((0.0, 1.0), (0.0, 2.0 * math.pi)))
    t0 = time.perf_counter()
    iso = extract(cyl, IsophoteQuery.for_angle(Z, math.pi / 3, grid=(256, 256)))
    elapsed = time.perf_counter() - t0
    worst = 0.0
    count = 0
    for pl in iso.polylines:
        for p in pl.points:
            worst = max(worst, min(abs(p[1] - math.pi / 3),
                                   abs(p[1] - 5 * math.pi / 3)))
            count += 1

    def brute(F, level):
        out = set()
        for i in range(F.shape[0] - 1):
            for j in range(F.shape[1] - 1):
                cs = (F[i, j], F[i + 1, j], F[i + 1, j + 1], F[i, j + 1])
                if any(not np.isfinite(c) for c in cs):
                    continue
                sg = [1 if c > level else -1 for c in cs]
                if any(a * b < 0 for a, b in
                       zip(sg, sg[1:] + sg[:1])):
                    out.add((i, j))
        return out

    oracle_ok = True
    cases = [(cyl, Z, 0.5), (cyl, normalize_axis(GVec3(0, 1, 1)), 0.0)]
    cases += [(s, Z, 0.25) for s, _ in random_corpus()[:3]]
    for surf, axis, level in cases:
        U1, U2 = surf.grid(17, 17)
        F = field_grid(surf, axis, U1[:, None], U2[None, :])
        oracle_ok = oracle_ok and crossing_cells(F, level) == brute(F, level)

    ok = (len(iso.polylines) == 2 and count > 0 and worst <= 1e-6
          and oracle_ok and elapsed < 1.0)
    assert _report("acceptance-6 isophote extraction", ok,
                   f"max_u2_dev={worst:.3e} oracle={'ok' if oracle_ok else 'MISMATCH'} "
                   f"time={elapsed:.2f}s")
    assert ok


def test_acceptance_7_theorem_suite():
    """The verify suite confirms every theorem scenario as a
    hypothesis -> conclusion assertion, with axis residuals <= 1e-5."""
    wanted = ["thm_3_1_i", "thm_3_1_ii", "thm_3_2", "thm_3_3", "thm_3_4",
              "cor_3_5", "thm_3_6_i", "thm_3_6_ii", "axis_reconstruction"]
    results = {name: REGISTRY[name]() for name in wanted}
    ok = all(passed for passed, _ in results.values())
    residuals = []
    for name in wanted:
        det = results[name][1]
        if "axis_residual" in det and det["axis_residual"] is not None:
            residuals.append(det["axis_residual"])
        if name == "axis_reconstruction":
            residuals += [b["residual"] for b in det.values()]
    ok = ok and all(r <= 1e-5 for r in residuals)
    failing = [n for n in wanted if not results[n][0]]
    assert _report("acceptance-7 theorem suite", ok,
                   f"max_axis_residual={max(residuals):.3e}"
                   + (f" failing={failing}" if failing else ""))
    assert ok


def test_acceptance_8_motion_invariance():
    """kappa, tau and isophote field values are invariant under 100 random
    motions to 1e-8 (the axis co-rotated for the field test)."""
    curve = CurveSpec.from_strings("s^2/2", "s^3/6", (0.0, 2.0))
    S = np.linspace(0.0, 2.0, 30)
    base = _curve_arrays(curve, S)
    cyl = SurfaceSpec.from_strings("u1", "sin(u2)", "cos(u2)",
                                   ((0.0, 2.0), (0.0, 2.0 * math.pi)))
    axis = normalize_axis(GVec3(0.0, 0.6, 0.8))
    U1 = np.linspace(0.1, 1.9, 8)[:, None]
    U2 = np.linspace(0.2, 6.0, 8)[None, :]
    base_f = field_grid(cyl, axis, U1, U2)
    worst = 0.0
    for m in random_motions(count=100, seed=2024):
        moved = transform_curve(curve, m)
        a = _curve_arrays(moved, S + m.a)
        worst = max(worst, float(np.abs(a["kappa"] - base["kappa"]).max()),
                    float(np.abs(a["tau"] - base["tau"]).max()))
        vals = field_grid(transform_surface(cyl, m),
                          apply_motion(m, axis, as_direction=True), U1, U2)
        worst = max(worst, float(np.abs(vals - base_f).max()))
    ok = worst <= 1e-8
    assert _report("acceptance-8 motion invariance", ok,
                   f"max_deviation={worst:.3e} motions=100")
    assert ok


def test_acceptance_9_export_integrity(tmp_path):
    """The 64x64 quadratic-profile mesh writes OBJ that re-parses to the
    identical mesh; SVG is well-formed; the verify JSON report is
    byte-deterministic across two runs."""
    profile = ProfileSpec.from_string("s^2/2", (1e-3, 5.0), c=1.0)
    surf = revolve_isotropic(profile)
    mesh = tessellate(surf, 64, 64)
    data = write_obj(mesh)
    verts, faces = [], []
    for line in data.decode("ascii").splitlines():
        parts = line.split()
        if parts and parts[0] == "v":
            verts.append(tuple(float(v) for v in parts[1:4]))
        elif parts and parts[0] == "f":
            faces.append(tuple(int(v) - 1 for v in parts[1:4]))
    obj_ok = (verts == [tuple(r) for r in mesh.vertices.tolist()]
              and faces == [tuple(r) for r in mesh.faces.tolist()]
              and write_obj(mesh) == data)

    iso = extract(surf, IsophoteQuery.for_angle(Z, math.pi / 4, grid=(32, 32)))
    svg_ok = True
    try:
        ET.fromstring(write_svg(iso, surf.domain))
    except ET.ParseError:
        svg_ok = False

    r1 = json.dumps(run_suite(), sort_keys=True, indent=2)
    r2 = json.dumps(run_suite(), sort_keys=True, indent=2)
    json_ok = r1 == r2 and json.loads(r1)["passed"]

    ok = obj_ok and svg_ok and json_ok
    assert _report("acceptance-9 export integrity", ok,
                   f"obj={'ok' if obj_ok else 'BAD'} svg={'ok' if svg_ok else 'BAD'} "
                   f"verify_json={'deterministic' if json_ok else 'BAD'}")
    assert ok
