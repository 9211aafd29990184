"""Job bodies, their output checks and the traced-run probes.

A job takes one generated input, loads it with `load_scene_dict` and calls
g3geom's public functions, each inside a span of the tracer it is given.
A check runs after the job's clock has stopped.  It returns None when the
output matches the closed form that numpy computes here from the job's
`truth`, else a message.  A probe runs only in the traced run, after the
check: it repeats one layer's work on the job's own inputs (the field grid,
the jets, the parser), so that layer can be timed apart from the job.
"""

from __future__ import annotations

import math

import numpy as np

from g3geom import (
    IsophoteQuery,
    TheoremConfig,
    classify_trace,
    darboux,
    darboux_samples,
    eval_jet,
    eval_jet2,
    extract,
    field_grid,
    frenet,
    frenet_samples,
    induced_curve,
    load_scene_dict,
    normalize_axis,
    parse,
    revolve_euclidean,
    revolve_isotropic,
    tessellate,
    verify_theorems,
    write_csv,
    write_obj,
    write_svg,
)

REL = 1e-9           # relative tolerance for closed-form comparisons
COORD_TOL = 1e-12    # vertex coordinates are plain arithmetic on the parameters


def _close(got, want, tol: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def _profile_g(t: dict, s):
    return t["p0"] + t["p1"] * s ** 2 + t["p2"] * np.sin(t["w"] * s)


# ---------------------------------------------------------------------------
# isophote extraction: iso_large and iso_small
# ---------------------------------------------------------------------------

def run_iso(job: dict, tr, write: bool) -> dict:
    with tr.span("scene.load"):
        scene = load_scene_dict(job["scene"])
    axis = normalize_axis(scene.axes["d"])
    if job["kind"] in ("wavy", "cylinder"):
        surf = scene.surfaces["S"]
    else:
        entry = scene.profiles["P"]
        with tr.span("surfrev.revolve"):
            surf = (revolve_euclidean(entry.profile) if entry.mode == "euclidean"
                    else revolve_isotropic(entry.profile))
    grid = (job["grid"], job["grid"])
    if job["kind"] == "wavy":
        query = IsophoteQuery.raw_level(axis, job["level"], grid)
    else:
        query = IsophoteQuery.for_angle(axis, job["beta"], grid)
    with tr.span("isophote.extract"):
        iso = extract(surf, query)
    out = {"iso": iso, "surface": surf, "query": query}
    if write:
        with tr.span("export.write_obj"):
            out["obj"] = write_obj(iso)
        with tr.span("export.write_svg"):
            out["svg"] = write_svg(iso, surf.domain)
        tr.count("export.obj_bytes", len(out["obj"]))
    return out


def _wavy_field(t: dict, u1, u2):
    """<n, d> on z = amp sin(a u1) cos(b u2): n ~ (0, -z_u2, 1)."""
    h2 = -t["amp"] * t["b"] * np.sin(t["a"] * u1) * np.sin(t["b"] * u2)
    return (-h2 * math.sin(t["phi"]) + math.cos(t["phi"])) / np.hypot(h2, 1.0)


def _bracketed(job: dict, u1, u2) -> bool:
    """Whether the level crosses each edge within 2^-24 of an edge length
    of the vertex on it.

    Refinement stops after a fixed number of bisection steps even when
    |field - level| is still above refine_tol, which happens on the steep
    cells of the coarsest wavy grids; such a vertex is still accepted if
    it sits that close to the true crossing.
    """
    (a1, b1), (a2, b2) = job["scene"]["surfaces"]["S"]["domain"]
    n, t = job["grid"], job["truth"]
    along_u1 = np.isin(u2, np.linspace(a2, b2, n + 1))   # on a u2 grid line
    d1 = np.where(along_u1, (b1 - a1) / n * 2.0 ** -24, 0.0)
    d2 = np.where(along_u1, 0.0, (b2 - a2) / n * 2.0 ** -24)
    below = _wavy_field(t, u1 - d1, u2 - d2) - t["level"]
    above = _wavy_field(t, u1 + d1, u2 + d2) - t["level"]
    return bool(np.all(below * above <= 0.0))


def check_iso(job: dict, out: dict) -> str | None:
    iso, t = out["iso"], job["truth"]
    tol = out["query"].refine_tol
    if job["kind"] == "quadratic":
        cf = iso.constant_field
        if cf is None or iso.polylines:
            return "quadratic isotropic revolution: no constant field reported"
        if abs(cf.value - t["value"]) > COORD_TOL or cf.spread > tol:
            return f"constant field {cf.value!r}, expected {t['value']!r}"
        return None
    if iso.constant_field is not None or not iso.polylines:
        return "no polylines extracted"
    if iso.stats.failed_edges:
        return f"{iso.stats.failed_edges} edges failed to refine"
    pts = np.array([p for pl in iso.polylines for p in pl.points], dtype=float)
    u1, u2 = pts[:, 0], pts[:, 1]
    if job["kind"] == "wavy":
        err = np.abs(_wavy_field(t, u1, u2) - t["level"])
        over = err > tol + COORD_TOL
        if over.any() and not _bracketed(job, u1[over], u2[over]):
            return f"|field - level| = {err.max():.3g} > {tol:g}, no crossing nearby"
        z = t["amp"] * np.sin(t["a"] * u1) * np.cos(t["b"] * u2)
        ok = _close(pts[:, 2:], np.column_stack([u1, u2, z]), COORD_TOL)
        return None if ok else "wavy vertex off the surface"
    # cylinder or Euclidean revolution: field = cos(u2 - phi), so the
    # isophotes are the two parallels u2 = phi + beta and phi - beta (mod 2 pi)
    want = np.array([t["phi"] + t["beta"], (t["phi"] - t["beta"]) % (2 * math.pi)])
    if len(iso.polylines) != 2:
        return f"{len(iso.polylines)} polylines, expected 2 parallels"
    n1 = job["grid"]
    if len(pts) != 2 * (n1 + 1):
        return f"{len(pts)} vertices, expected {2 * (n1 + 1)}"
    du = np.abs(u2[:, None] - want[None, :]).min(axis=1)
    utol = 4.0 * tol / math.sin(t["beta"]) + COORD_TOL
    if du.max() > utol:
        return f"parallel off by {du.max():.3g} in u2"
    g = t["r"] if job["kind"] == "cylinder" else _profile_g(t, u1)
    ok = _close(pts[:, 2:], np.column_stack([u1, g * np.sin(u2), g * np.cos(u2)]),
                COORD_TOL)
    return None if ok else "parallel vertex off the surface"


def run_batch(job: dict, tr) -> list[dict]:
    return [run_iso(part, tr, write=False) for part in job["parts"]]


def check_batch(job: dict, outs: list[dict]) -> str | None:
    for part, out in zip(job["parts"], outs):
        err = check_iso(part, out)
        if err is not None:
            return f"{part['kind']}: {err}"
    return None


def _jet2_probe(tr, surf, U1, U2) -> None:
    at = (U1[:, None], U2[None, :])
    for ast in (surf.x, surf.y, surf.z):
        with tr.span("expr.eval_jet2", work=U1.size * U2.size):
            eval_jet2(ast, at)


def probe_iso(job: dict, out: dict, tr) -> None:
    iso, surf, query = out["iso"], out["surface"], out["query"]
    st = iso.stats
    tr.count("isophote.refine_evals", st.refine_iterations_total)
    tr.count("isophote.refined_edges", st.refined_edges)
    tr.count("isophote.failed_edges", st.failed_edges)
    tr.count("isophote.cells_crossing", st.cells_crossing)
    tr.count("isophote.vertices", sum(len(p.points) for p in iso.polylines))
    if iso.polylines:
        pts = np.array([p[:2] for pl in iso.polylines for p in pl.points])
        res = field_grid(surf, query.axis, pts[:, 0], pts[:, 1]) - query.level
        tr.count("isophote.vertices_over_tol",
                 int(np.count_nonzero(np.abs(res) > query.refine_tol)))
    else:
        tr.count("isophote.vertices_over_tol", 0)
    n1, n2 = query.grid
    U1, U2 = surf.grid(n1 + 1, n2 + 1)
    with tr.span("isophote.field_grid", work=U1.size * U2.size):
        field_grid(surf, query.axis, U1[:, None], U2[None, :])
    _jet2_probe(tr, surf, U1, U2)


def probe_batch(job: dict, outs: list[dict], tr) -> None:
    for part, out in zip(job["parts"], outs):
        probe_iso(part, out, tr)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def run_frames(job: dict, tr) -> dict:
    with tr.span("scene.load"):
        scene = load_scene_dict(job["scene"])
    curve, surf, trace = scene.curves["C"], scene.surfaces["S"], scene.traces["T"]
    n = job["samples"]
    S = np.linspace(curve.domain[0], curve.domain[1], n)
    R = np.linspace(trace.domain[0], trace.domain[1], n)
    with tr.span("curve.frenet_samples"):
        fr = frenet_samples(curve, S)
    scalar_fr = []
    for s in job["curve_points"]:
        with tr.span("curve.frenet"):
            scalar_fr.append(frenet(curve, s))
    with tr.span("surface.darboux_samples"):
        dx = darboux_samples(surf, trace, R)
    scalar_dx = []
    for s in job["trace_points"]:
        with tr.span("surface.darboux"):
            scalar_dx.append(darboux(surf, trace, s))
    with tr.span("surface.classify_trace"):
        classify_trace(surf, trace)
    with tr.span("surface.induced_curve"):
        ind = induced_curve(surf, trace)
    with tr.span("curve.frenet_samples"):
        ind_fr = frenet_samples(ind, R)
    with tr.span("surface.verify_theorems"):
        verify_theorems(surf, trace, TheoremConfig(axis=normalize_axis(scene.axes["d"])))
    with tr.span("export.write_csv"):
        csv = write_csv(fr)
    return {"S": S, "R": R, "frenet": fr, "scalar_frenet": scalar_fr,
            "darboux": dx, "scalar_darboux": scalar_dx, "induced": ind,
            "induced_frenet": ind_fr, "csv": csv, "curve": curve}


def _poly_kappa_tau(t: dict, s):
    f = np.polynomial.Polynomial([0.0, 0.0, t["c2"], t["c3"], t["c4"]])
    g = np.polynomial.Polynomial([0.0, t["d1"], t["d2"], t["d3"]])
    f2, f3 = f.deriv(2)(s), f.deriv(3)(s)
    g2, g3 = g.deriv(2)(s), g.deriv(3)(s)
    kappa = np.hypot(f2, g2)
    return kappa, (f2 * g3 - g2 * f3) / kappa ** 2


def _induced_kappa(t: dict, s):
    """Curvature of (s, r sin u2 + a sin s, r cos u2 + a cos s) with
    u2 = w s + p sin(q s), from its second derivatives."""
    u2 = t["w"] * s + t["p"] * np.sin(t["q"] * s)
    d1 = t["w"] + t["p"] * t["q"] * np.cos(t["q"] * s)
    d2 = -t["p"] * t["q"] ** 2 * np.sin(t["q"] * s)
    f2 = t["r"] * (np.cos(u2) * d2 - np.sin(u2) * d1 ** 2) - t["a"] * np.sin(s)
    g2 = t["r"] * (-np.sin(u2) * d2 - np.cos(u2) * d1 ** 2) - t["a"] * np.cos(s)
    return np.hypot(f2, g2)


def check_frames(job: dict, out: dict) -> str | None:
    t = job["truth"]
    S, R = out["S"], out["R"]
    kappa, tau = _poly_kappa_tau(t, S)
    if not (_close([x.kappa for x in out["frenet"]], kappa, REL)
            and _close([x.tau for x in out["frenet"]], tau, REL)):
        return "polynomial curve: frenet_samples kappa/tau off the closed form"
    P = np.array(job["curve_points"])
    kappa, tau = _poly_kappa_tau(t, P)
    if not (_close([x.kappa for x in out["scalar_frenet"]], kappa, REL)
            and _close([x.tau for x in out["scalar_frenet"]], tau, REL)):
        return "polynomial curve: scalar frenet kappa/tau off the closed form"
    want = _induced_kappa(t, R)
    darb = np.array([math.hypot(x.kg, x.kn) for x in out["darboux"]])
    fren = np.array([x.kappa for x in out["induced_frenet"]])
    if not _close(darb, fren, REL):
        return "hypot(k_g, k_n) differs from the induced curve's Frenet kappa"
    if not _close(fren, want, REL):
        return "induced curve kappa off the closed form"
    darb = [math.hypot(x.kg, x.kn) for x in out["scalar_darboux"]]
    if not _close(darb, _induced_kappa(t, np.array(job["trace_points"])), REL):
        return "scalar darboux: hypot(k_g, k_n) off the closed form"
    if out["csv"].count(b"\n") != len(S) + 1:
        return "frenet CSV row count"
    return None


def probe_frames(job: dict, out: dict, tr) -> None:
    for sec, names in (("curves", ("f", "g")), ("surfaces", ("x", "y", "z")),
                       ("traces", ("u1", "u2"))):
        for obj in job["scene"][sec].values():
            variables = ["u1", "u2"] if sec == "surfaces" else ["s"]
            for key in names:
                with tr.span("expr.parse"):
                    parse(obj[key], variables, obj["params"])
    for curve, at in ((out["curve"], out["S"]), (out["induced"], out["R"])):
        for ast in (curve.f, curve.g):
            with tr.span("expr.eval_jet", work=at.size):
                eval_jet(ast, at, order=3)


# ---------------------------------------------------------------------------
# revolve_mesh
# ---------------------------------------------------------------------------

def run_revolve(job: dict, tr) -> dict:
    with tr.span("scene.load"):
        scene = load_scene_dict(job["scene"])
    entry = scene.profiles["P"]
    with tr.span("surfrev.revolve"):
        surf = (revolve_euclidean(entry.profile) if entry.mode == "euclidean"
                else revolve_isotropic(entry.profile))
    n = job["mesh"]
    with tr.span("export.tessellate"):
        mesh = tessellate(surf, n, n)
    with tr.span("export.write_obj"):
        obj = write_obj(mesh)
    tr.count("export.obj_bytes", len(obj))
    return {"surface": surf, "obj": obj}


def check_revolve(job: dict, out: dict) -> str | None:
    t, n, obj = job["truth"], job["mesh"], out["obj"]
    nv, nf = (n + 1) ** 2, 2 * n * n
    if obj.count(b"\nv ") != nv or obj.count(b"\nf ") != nf:
        return "OBJ vertex or face count"
    v0, f0 = obj.index(b"\nv ") + 1, obj.index(b"\nf ") + 1
    verts = np.fromstring(obj[v0:f0].replace(b"v ", b"").decode(), sep=" ")
    faces = np.fromstring(obj[f0:].replace(b"f ", b"").decode(), sep=" ",
                          dtype=np.int64)
    if verts.size != 3 * nv or faces.size != 3 * nf:
        return "OBJ body does not parse"
    if job["kind"] == "euclidean":
        s = np.linspace(t["s0"], t["s1"], n + 1)[:, None]
        u = np.linspace(0.0, 2 * math.pi, n + 1)[None, :]
        g = _profile_g(t, s)
        want = (s + 0 * u, g * np.sin(u), g * np.cos(u))
    else:
        s = np.linspace(max(t["s0"], 1e-3), t["s1"], n + 1)[:, None]
        u = np.linspace(-2.0, 2.0, n + 1)[None, :]
        c = t["c"]
        want = (s + c * u, s * u + c * u ** 2 / 2, _profile_g(t, s) + 0 * u)
    want = np.stack([w.ravel() for w in want], axis=1)
    if not _close(verts.reshape(-1, 3), want, COORD_TOL):
        return "mesh vertex off the closed-form surface"
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    v00 = (i * (n + 1) + j).ravel()
    v10, v11, v01 = v00 + n + 1, v00 + n + 2, v00 + 1
    tri = np.stack([np.stack([v00, v10, v11], 1), np.stack([v00, v11, v01], 1)], 1)
    if not np.array_equal(faces.reshape(-1, 3), tri.reshape(-1, 3) + 1):
        return "mesh faces out of grid order"
    return None


def probe_revolve(job: dict, out: dict, tr) -> None:
    n = job["mesh"]
    _jet2_probe(tr, out["surface"], *out["surface"].grid(n + 1, n + 1))


# workload -> (run, check, probe)
WORKLOADS = {
    "iso_large": (lambda job, tr: run_iso(job, tr, write=True), check_iso, probe_iso),
    "iso_small": (run_batch, check_batch, probe_batch),
    "frames": (run_frames, check_frames, probe_frames),
    "revolve_mesh": (run_revolve, check_revolve, probe_revolve),
}
