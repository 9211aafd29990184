import json
import math
from xml.etree import ElementTree as ET

import pytest

from g3geom import SceneError, errors, load_scene_dict
from g3geom.cli import exit_code, main
from g3geom.verify import REGISTRY

SCENE = {
    "curves": {
        "cubic": {"f": "s^2/2", "g": "s^3/6", "domain": [0, 2]},
    },
    "surfaces": {
        "cyl": {"x": "u1", "y": "sin(u2)", "z": "cos(u2)",
                "domain": [[0, 2], [0, 6.283185307179586]]},
        "plane": {"x": "u1", "y": "u2", "z": "0",
                  "domain": [[-1, 3], [-1, 6]]},
    },
    "traces": {
        "helix": {"u1": "s", "u2": "s", "domain": [0, 2]},
        "parabola": {"u1": "s", "u2": "s^2/2", "domain": [0, 2]},
    },
    "profiles": {
        "bowl": {"g": "s^2/2", "domain": [0.001, 5], "mode": "isotropic", "c": 1.0},
    },
    "axes": {"zhat": [0, 0, 1]},
    "queries": {
        "cyl60": {"surface": "cyl", "axis": "zhat", "beta": 1.0471975511965976,
                  "grid": [64, 64]},
    },
}


@pytest.fixture()
def scene_path(tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(SCENE))
    return str(p)


# ---------------------------------------------------------------------------
# scene loading
# ---------------------------------------------------------------------------

def test_scene_loads():
    scene = load_scene_dict(SCENE)
    assert set(scene.curves) == {"cubic"}
    assert set(scene.queries) == {"cyl60"}
    assert scene.queries["cyl60"].query.level == pytest.approx(0.5)


def test_scene_rejects_unknown_keys():
    with pytest.raises(SceneError):
        load_scene_dict({"curvez": {}})
    with pytest.raises(SceneError):
        load_scene_dict({"curves": {"c": {"f": "s", "g": "s", "domain": [0, 1],
                                          "extra": 1}}})
    # entries and sections that are not objects
    for bad in ({"curves": {"c": 5}}, {"surfaces": {"s": [1, 2]}},
                {"queries": {"q": "cyl"}}, {"traces": [1]}):
        with pytest.raises(SceneError):
            load_scene_dict(bad)
    # params that are not finite numbers
    curve = {"f": "a*s^2", "g": "s^3", "domain": [0, 1]}
    for value in ("x", float("nan"), float("inf"), None, [1], True):
        with pytest.raises(SceneError, match="params.a must be a finite number"):
            load_scene_dict({"curves": {"c": {**curve, "params": {"a": value}}}})


def test_scene_rejects_non_finite_numbers():
    profile = {"g": "s^2/2", "domain": [0.001, 5], "mode": "isotropic"}
    query = {"surface": "cyl", "axis": "zhat", "beta": 0.5}
    bad_docs = [
        {"profiles": {"p": {**profile, "c": "x"}}},
        {"profiles": {"p": {**profile, "A": float("inf")}}},
        {"axes": {"a": [0, "1", 0]}},
        {"axes": {"a": [0, float("nan"), 1]}},
        {"surfaces": SCENE["surfaces"], "axes": SCENE["axes"],
         "queries": {"q": {**query, "beta": "0.5"}}},
        {"surfaces": SCENE["surfaces"], "axes": SCENE["axes"],
         "queries": {"q": {**query, "refine_tol": float("nan")}}},
        {"surfaces": SCENE["surfaces"], "axes": SCENE["axes"],
         "queries": {"q": {"surface": "cyl", "axis": "zhat", "level": [0.5]}}},
    ]
    for doc in bad_docs:
        with pytest.raises(SceneError, match="must be a finite number"):
            load_scene_dict(doc)


def test_scene_rejects_bad_references():
    with pytest.raises(SceneError):
        load_scene_dict({"queries": {"q": {"surface": "nope", "axis": [0, 0, 1],
                                           "beta": 0.5}}})
    with pytest.raises(SceneError):
        load_scene_dict({
            "surfaces": SCENE["surfaces"],
            "queries": {"q": {"surface": "cyl", "axis": "ghost", "beta": 0.5}}})
    with pytest.raises(SceneError):
        load_scene_dict({
            "surfaces": SCENE["surfaces"],
            "queries": {"q": {"surface": "cyl", "axis": [0, 0, 1]}}})  # no level
    # a query grid must be two integers >= 2
    for grid in ("ab", [64], [64, 1], [64.0, 64], 64, [64, "64"], [True, 64]):
        with pytest.raises(SceneError, match="grid must be two integers"):
            load_scene_dict({
                "surfaces": SCENE["surfaces"],
                "queries": {"q": {"surface": "cyl", "axis": [0, 0, 1],
                                  "beta": 0.5, "grid": grid}}})


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_frenet_inline_ok(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    rc = main(["frenet", "--curve", "s^2/2,s^3/6", "--domain", "0:2",
               "--samples", "5", "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kappa" in out
    assert csv_path.read_bytes().startswith(b"s,kappa,tau\n")


def test_frenet_malformed_separator(capsys):
    rc = main(["frenet", "--curve", "s^3/6;s^2/2"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_frenet_bad_expression_exit_2(capsys):
    rc = main(["frenet", "--curve", "2s,s"])
    assert rc == 2


def test_frenet_deep_expression_exit_2(capsys):
    for curve in ("(" * 3000 + "s" + ")" * 3000 + ",s^3", "+".join(["s"] * 1500) + ",s^3"):
        rc = main(["frenet", "--curve", curve, "--domain", "0:1"])
        assert rc == 2
        assert "nested deeper" in capsys.readouterr().err


def test_missing_subcommand_exit_2(capsys):
    assert main([]) == 2
    assert main(["frenet"]) == 2  # --curve is required


def test_darboux_with_scene(scene_path, capsys):
    rc = main(["darboux", "--scene", scene_path, "--surface", "cyl",
               "--trace", "helix", "--samples", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kg" in out and "-1" in out


def test_classify_json_output(scene_path, tmp_path):
    out = tmp_path / "c.json"
    rc = main(["classify", "--scene", scene_path, "--surface", "cyl",
               "--trace", "helix", "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "1"
    assert doc["result"]["geodesic"] is True
    assert doc["result"]["line_of_curvature"] is False
    assert "defaults" in doc


def test_axis_failure_exit_1(scene_path, capsys):
    rc = main(["axis", "--case", "isotropic", "--scene", scene_path,
               "--surface", "cyl", "--trace", "helix", "--angle", "0.3"])
    assert rc == 1
    assert "failed" in capsys.readouterr().err


def test_exit_code_of_each_error_kind():
    e = errors
    codes = {e.G3Error: 2, e.ExprError: 2, e.ExprSyntaxError: 2, e.UnknownIdentifierError: 2,
             e.ArityError: 2, e.ExprDomainError: 2, e.SceneError: 2,
             e.StraightSegmentError: 1, e.SingularNormalError: 1, e.InadmissibleTraceError: 1,
             e.AxisError: 1, e.NotLineOfCurvatureError: 1, e.NotAsymptoticError: 1,
             e.AxisConstraintError: 1, e.AxisUndefinedError: 1}
    # every G3Error kind is listed, so a new kind needs a code here
    kinds = {k for k in vars(errors).values()
             if isinstance(k, type) and issubclass(k, e.G3Error)}
    assert kinds == set(codes)
    for kind, code in codes.items():
        assert exit_code(kind("message")) == code, kind
    assert exit_code(ValueError("message")) == 2


def test_frenet_straight_segment_exit_1(capsys):
    assert main(["frenet", "--curve", "s,s", "--domain", "0:1"]) == 1
    assert "kappa <= 1e-10" in capsys.readouterr().err


def test_axis_success(scene_path, capsys):
    rc = main(["axis", "--case", "isotropic", "--scene", scene_path,
               "--surface", "plane", "--trace", "parabola", "--angle", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "C5-trivial" in out


def test_isophote_outputs(scene_path, tmp_path, capsys):
    svg = tmp_path / "iso.svg"
    obj = tmp_path / "iso.obj"
    js = tmp_path / "iso.json"
    rc = main(["isophote", "--scene", scene_path, "--surface", "cyl",
               "--axis", "zhat", "--beta", str(math.pi / 3), "--grid", "64x64",
               "--svg", str(svg), "--obj", str(obj), "--json", str(js)])
    assert rc == 0
    ET.fromstring(svg.read_bytes())
    assert obj.read_bytes().count(b"\nl ") == 2
    doc = json.loads(js.read_text())
    assert len(doc["result"]["polylines"]) == 2
    for pl in doc["result"]["polylines"]:
        for point in pl["points"]:
            assert len(point) == 5


def test_isophote_inline_surface(capsys):
    rc = main(["isophote", "--surface", "u1,sin(u2),cos(u2)",
               "--surface-domain", "0:1,0:6.2832", "--axis", "0,0,1",
               "--silhouette", "--grid", "32x32"])
    assert rc == 0
    assert "polylines" in capsys.readouterr().out


def test_revolve_inline_with_mesh(tmp_path, capsys):
    obj = tmp_path / "mesh.obj"
    rc = main(["revolve", "--profile", "s^2/2", "--mode", "isotropic",
               "--domain", "0.001:5", "--c", "1.0", "--mesh", "16x16",
               "--obj", str(obj)])
    assert rc == 0
    data = obj.read_bytes()
    assert data.count(b"\nv ") + data.startswith(b"v ") == 17 * 17
    assert data.count(b"\nf ") == 2 * 16 * 16
    out = capsys.readouterr().out
    assert "isotropic" in out


def test_revolve_requires_mode_for_inline(capsys):
    assert main(["revolve", "--profile", "s^2/2", "--domain", "0:1"]) == 2


def test_verify_filter_and_json_determinism(tmp_path, capsys):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    rc1 = main(["verify", "--filter", "prop43", "--json", str(out1)])
    text = capsys.readouterr().out
    rc2 = main(["verify", "--filter", "prop43", "--json", str(out2)])
    assert rc1 == 0 and rc2 == 0
    assert "PASS" in text and "prop_4_3_i" in text
    assert "0.7071067811865" in text
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("name", ["frenet_ode_b3", "b5_kappa_identity",
                                  "b5_tau_identity", "b6_frame_transform"])
def test_verify_filter_selects_printed_name(name, tmp_path, capsys):
    out = tmp_path / "v.json"
    assert main(["verify", "--filter", name, "--json", str(out)]) == 0
    assert f"[PASS] {name}" in capsys.readouterr().out
    assert [c["name"] for c in json.loads(out.read_text())["checks"]] == [name]


def test_verify_filter_by_each_printed_name_runs_one_check(capsys):
    # thm_3_1_i is also a substring of thm_3_1_ii, and so are thm_3_6_i and
    # prop_4_3_i of their _ii checks; a filter equal to a name runs it alone
    for name in REGISTRY:
        assert main(["verify", "--filter", name]) == 0, name
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith(f"[PASS] {name}"), name
        assert lines[1] == "1/1 checks passed", name


def test_verify_unmatched_filter_fails(capsys):
    assert main(["verify", "--filter", "nosuchcheck"]) == 1
    assert "no checks matched" in capsys.readouterr().err


def test_scene_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for doc in ({"curvez": {}}, {"curves": {"c": 5}},
                {"curves": {"c": {"f": "a*s^2", "g": "s^3", "domain": [0, 1],
                                  "params": {"a": "x"}}}},
                {"surfaces": SCENE["surfaces"],
                 "queries": {"q": {"surface": "cyl", "axis": [0, 0, 1],
                                   "beta": 0.5, "grid": "ab"}}}):
        bad.write_text(json.dumps(doc))
        rc = main(["frenet", "--curve", "cubic", "--scene", str(bad)])
        assert rc == 2
        assert "error" in capsys.readouterr().err


def test_frenet_rejects_infinite_domain(capsys):
    rc = main(["frenet", "--curve", "s^2/2,s^3/6", "--domain", "0:inf"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert "nan" not in captured.out


def test_param_rejects_nan(capsys):
    # --param, and every float option: argparse's float() accepts inf and nan
    for argv in [
        ["frenet", "--curve", "a*s^2,s^3", "--param", "a=nan"],
        ["isophote", "--surface", "u1,sin(u2),cos(u2)", "--surface-domain", "0:2,0:6",
         "--axis", "1,0,1", "--level", "nan"],
        ["isophote", "--surface", "u1,sin(u2),cos(u2)", "--surface-domain", "0:2,0:6",
         "--axis", "0,0,1", "--beta", "inf"],
        ["isophote", "--surface", "u1,sin(u2),cos(u2)", "--surface-domain", "0:2,0:6",
         "--axis", "0,0,1", "--beta", "1", "--refine-tol", "inf"],
        ["classify", "--surface", "u1,u2,0", "--trace", "s,2*s", "--surface-domain",
         "0:1,0:2", "--trace-domain", "0:1", "--tol", "nan"],
        ["axis", "--case", "isotropic", "--surface", "u1,u2,0", "--trace", "s,2*s",
         "--surface-domain", "0:1,0:2", "--trace-domain", "0:1", "--angle=-inf"],
        ["axis", "--case", "nonisotropic", "--surface", "u1,u2,0", "--trace", "s,2*s",
         "--surface-domain", "0:1,0:2", "--trace-domain", "0:1", "--angle", "0.5",
         "--tol", "inf"],
        ["revolve", "--profile", "s^2/2", "--mode", "isotropic", "--domain", "0.1:1",
         "--c", "nan"],
        ["revolve", "--profile", "s^2/2", "--mode", "isotropic", "--domain", "0.1:1",
         "--A", "inf"],
    ]:
        rc = main(argv)
        assert rc == 2, argv
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert "nan" not in captured.out


def test_write_failure_exit_2(tmp_path, capsys):
    # every write option, to a path whose directory does not exist
    missing = tmp_path / "no" / "such"
    cyl = ["--surface", "u1,sin(u2),cos(u2)", "--surface-domain", "0:2,0:6.2832",
           "--axis", "0,0,1", "--beta", "1", "--grid", "16x16"]
    for option, argv in [
        ("--obj", ["revolve", "--profile", "1+s^2", "--mode", "euclidean",
                   "--mesh", "2x2"]),
        ("--obj", ["isophote", *cyl]),
        ("--svg", ["isophote", *cyl]),
        ("--json", ["isophote", *cyl]),
        ("--csv", ["frenet", "--curve", "s^2/2,s^3/6", "--samples", "5"]),
        ("--json", ["frenet", "--curve", "s^2/2,s^3/6", "--samples", "5"]),
        ("--json", ["verify", "--filter", "prop43"]),
    ]:
        path = str(missing / f"out{option.replace('-', '.')}")
        rc = main([*argv, option, path])
        assert rc == 2, (argv, option)
        err = capsys.readouterr().err
        assert f"cannot write {path!r}" in err
        assert "Traceback" not in err


def test_samples_must_be_a_positive_integer(capsys):
    surface_trace = ["--surface", "u1,sin(u2),cos(u2)", "--trace", "s,s"]
    for argv in [
        ["frenet", "--curve", "s^2/2,s^3/6"],
        ["darboux", *surface_trace],
        ["classify", *surface_trace],
        ["axis", "--case", "isotropic", "--angle", "0.3", *surface_trace],
    ]:
        for samples in ("-3", "0", "2.5", "many"):
            rc = main([*argv, "--samples", samples])
            assert rc == 2, (argv, samples)
            captured = capsys.readouterr()
            assert "argument --samples: must be an integer >= 1" in captured.err
            assert captured.out == ""
    assert main(["frenet", "--curve", "s^2/2,s^3/6", "--samples", "1"]) == 0


def test_grid_parts_must_be_integers(capsys):
    for option, argv in [
        ("--grid", ["isophote", "--surface", "u1,sin(u2),cos(u2)", "--axis", "0,0,1",
                    "--silhouette"]),
        ("--mesh", ["revolve", "--profile", "1+s^2", "--mode", "euclidean"]),
    ]:
        for text in ("64xab", "2.5x4", "8x", "8x8x8", "64"):
            rc = main([*argv, option, text])
            assert rc == 2, (option, text)
            err = capsys.readouterr().err
            assert f"{option} must be two integers written N1xN2, got {text!r}" in err
