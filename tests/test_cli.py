import copy
import json
import math
import re
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g3geom import SceneError, cli, errors, load_scene_dict
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
}


NON_STRING_EXPRESSIONS = [
    {"curves": {"c": {"f": 5, "g": "s^3", "domain": [0, 1]}}},
    {"surfaces": {"s": {"x": ["u1"], "y": "u2", "z": "0", "domain": [[0, 1], [0, 1]]}}},
    {"traces": {"t": {"u1": "s", "u2": None, "domain": [0, 1]}}},
    {"profiles": {"p": {"g": {}, "domain": [0.1, 1], "mode": "isotropic"}}},
]
# domain ends that json.loads reads as infinite or NaN, a boolean, a string
BAD_DOMAIN_ENDS = [
    json.loads(f'{{"curves": {{"c": {{"f": "s", "g": "s^3", "domain": {domain}}}}}}}')
    for domain in ("[0, Infinity]", "[0, 1e400]", "[-Infinity, 0]", "[0, NaN]",
                   "[true, 2]", '["1", 2]')
]


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
    assert set(scene.surfaces) == {"cyl", "plane"}
    assert scene.profiles["bowl"].mode == "isotropic"
    assert scene.axes["zhat"].to_list() == [0.0, 0.0, 1.0]


def test_scene_rejects_unknown_keys():
    with pytest.raises(SceneError):
        load_scene_dict({"curvez": {}})
    with pytest.raises(SceneError):
        load_scene_dict({"curves": {"c": {"f": "s", "g": "s", "domain": [0, 1],
                                          "extra": 1}}})
    # entries and sections that are not objects
    for bad in ({"curves": {"c": 5}}, {"surfaces": {"s": [1, 2]}},
                {"profiles": {"p": "bowl"}}, {"traces": [1]}):
        with pytest.raises(SceneError):
            load_scene_dict(bad)
    # expressions that are not strings
    for bad in NON_STRING_EXPRESSIONS:
        with pytest.raises(SceneError, match="must be an expression string"):
            load_scene_dict(bad)
    # params that are not finite numbers
    curve = {"f": "a*s^2", "g": "s^3", "domain": [0, 1]}
    for value in ("x", float("nan"), float("inf"), None, [1], True):
        with pytest.raises(SceneError, match="params.a must be a finite number"):
            load_scene_dict({"curves": {"c": {**curve, "params": {"a": value}}}})
    # a profile has no key A: its constant is a parameter of g
    profile = {"g": "s^2/2 + A", "domain": [0.001, 5], "mode": "isotropic", "A": 1.0}
    with pytest.raises(SceneError, match=r"unknown keys \['A'\] in profiles.p"):
        load_scene_dict({"profiles": {"p": profile}})


def test_scene_rejects_non_finite_numbers():
    profile = {"g": "s^2/2", "domain": [0.001, 5], "mode": "isotropic"}
    bad_docs = [
        {"profiles": {"p": {**profile, "c": "x"}}},
        {"axes": {"a": [0, "1", 0]}},
        {"axes": {"a": [0, float("nan"), 1]}},
        *BAD_DOMAIN_ENDS,
    ]
    for doc in bad_docs:
        with pytest.raises(SceneError, match="must be a finite number"):
            load_scene_dict(doc)


def test_scene_rejects_bad_references(scene_path, capsys):
    with pytest.raises(SceneError, match="bad domain"):
        load_scene_dict({"curves": {"c": {"f": "s", "g": "s^3", "domain": [0, 1, 2]}}})
    # a name the scene does not hold is read as an inline object
    assert main(["frenet", "--curve", "ghost", "--scene", scene_path]) == 2
    assert ("inline curve must be 2 comma-separated expressions (or a scene object "
            "name), got 'ghost'") in capsys.readouterr().err


def test_scene_rejects_queries_section():
    # isophote takes its query from the command line; a scene holds none
    query = {"surface": "cyl", "axis": "zhat", "beta": 0.5}
    for doc in ({"queries": {}}, {**SCENE, "queries": {"q": query}}):
        with pytest.raises(SceneError) as exc:
            load_scene_dict(doc)
        assert str(exc.value) == "unknown keys ['queries'] in scene"


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


@pytest.mark.filterwarnings("error")
def test_frenet_overflow_exit_2(capsys):
    # g = 2 e^(800 s) overflows at s = 1: this printed a row of NaNs after an
    # overflow warning and exited 0
    rc = main(["frenet", "--curve", "s^2,2*exp(800*s)", "--domain", "0:1", "--samples", "3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: g = inf is not finite at s = 1\n"
    assert "nan" not in captured.out


def test_darboux_trace_overflow_exit_2(capsys):
    # u2 = e^(800 s) overflows at s = 1: this was reported as a singular
    # normal ("omega = nan ...") and exited 1
    rc = main(["darboux", "--surface", "u1,sin(u2),cos(u2)", "--trace", "s,exp(800*s)",
               "--trace-domain=0:1", "--samples", "3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: u2 = inf is not finite along trace at s = 1\n"
    assert "nan" not in captured.out


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
                {**SCENE, "queries": {}},
                *NON_STRING_EXPRESSIONS, *BAD_DOMAIN_ENDS):
        bad.write_text(json.dumps(doc))
        rc = main(["frenet", "--curve", "cubic", "--scene", str(bad)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


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
    ]:
        rc = main(argv)
        assert rc == 2, argv
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert "nan" not in captured.out


def test_isophote_non_finite_axis_exits_2(capsys):
    # it exited 2 too, but with "query axis must be normalized"
    for axis, component in (("0,nan,1", "nan"), ("0,inf,1", "inf"), ("nan,1,0", "nan")):
        rc = main(["isophote", "--surface", "u1,sin(u2),cos(u2)", "--surface-domain",
                   "0:2,0:6", "--axis", axis, "--beta", "1"])
        assert rc == 2, axis
        assert f"--axis component must be finite, got {component!r}" in capsys.readouterr().err


def test_isophote_refine_tol_not_above_zero_exits_2(capsys):
    for tol in ("-1", "0"):
        rc = main(["isophote", "--surface", "u1,sin(u2),cos(u2)", "--surface-domain",
                   "0:2,0:6", "--axis", "0,0,1", "--beta", "1", "--grid", "8x8",
                   "--refine-tol", tol])
        assert rc == 2, tol
        assert "refine_tol must be finite and > 0" in capsys.readouterr().err


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


@pytest.mark.parametrize("mesh", ["0x4", "4x0"])
def test_revolve_mesh_size_error_prints_nothing(mesh, capsys):
    # tessellate checks the sizes, so nothing is printed before it runs
    rc = main(["revolve", "--profile", "1+s^2", "--mode", "euclidean", "--mesh", mesh])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    n1, n2 = mesh.split("x")
    assert f"n1 and n2 must be integers >= 1, got {n1} and {n2}" in captured.err


_CYL = ["--surface", "u1,sin(u2),cos(u2)", "--surface-domain", "0:2,0:6"]


@pytest.mark.parametrize("option,argv", [
    ("--param k", ["frenet", "--curve", "k*s^2,s^3", "--param", "k=abc"]),
    ("--domain", ["frenet", "--curve", "s^2,s^3", "--domain", "a:1"]),
    ("--domain", ["frenet", "--curve", "s^2,s^3", "--domain", "1"]),
    ("--domain", ["revolve", "--profile", "1+s^2", "--mode", "euclidean",
                  "--domain", "0:b"]),
    ("--trace-domain", ["darboux", *_CYL, "--trace", "s,s", "--trace-domain", "0:x"]),
    ("--axis", ["isophote", *_CYL, "--axis", "x,0,1", "--beta", "1"]),
    ("--surface-domain", ["isophote", "--surface", "u1,sin(u2),cos(u2)",
                          "--surface-domain", "0:1", "--axis", "0,0,1", "--beta", "1"]),
    ("--surface-domain", ["isophote", "--surface", "u1,sin(u2),cos(u2)",
                          "--surface-domain", "0:1,c:2", "--axis", "0,0,1", "--beta", "1"]),
])
def test_malformed_option_text_names_its_option(option, argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {option} " in captured.err


@pytest.mark.parametrize("argv", [
    ["frenet", "--curve", "s^2,s^3", "--domain=", "--samples", "3"],
    ["darboux", "--surface", "u1,sin(u2),cos(u2)", "--surface-domain=", "--trace", "s,s",
     "--samples", "3"],
    ["darboux", *_CYL, "--trace", "s,s", "--trace-domain=", "--samples", "3"],
    ["isophote", *_CYL, "--axis", "0,0,1", "--beta", "1", "--grid="],
    ["revolve", "--profile", "1+s^2", "--mode", "euclidean", "--domain="],
    ["revolve", "--profile", "1+s^2", "--mode", "euclidean", "--mesh="],
    # an empty output path, scene or filter, in place of being ignored
    ["frenet", "--curve", "s^2,s^3", "--samples", "2", "--json="],
    ["frenet", "--curve", "s^2,s^3", "--samples", "2", "--csv="],
    ["frenet", "--curve", "s^2,s^3", "--samples", "2", "--scene="],
    ["isophote", "--surface", "u1,u2,u1*u2", "--axis", "0,0,1", "--level", "0.5",
     "--grid", "8x8", "--obj=", "--svg="],
    ["isophote", "--surface", "u1,u2,u1*u2", "--axis", "0,0,1", "--level", "0.5",
     "--grid", "8x8", "--svg="],
    ["revolve", "--profile", "1+s^2", "--mode", "euclidean", "--mesh", "4x4", "--obj="],
    ["verify", "--filter="],
], ids=lambda argv: next(a for a in argv if a.endswith("=")))
def test_empty_option_value_names_its_option(argv, capsys):
    # an empty value is a malformed value, not the option left out
    option = next(a for a in argv if a.endswith("="))[:-1]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {option} " in captured.err and "''" in captured.err


@pytest.mark.parametrize("option,argv", [
    ("--surface-domain", ["isophote", "--surface", "cyl", "--surface-domain", "0:100,0:1",
                          "--param", "k=abc", "--axis", "0,0,1", "--beta", "1", "--grid", "8x8"]),
    ("--domain", ["frenet", "--curve", "cubic", "--domain", "0:1"]),
    ("--trace-domain", ["darboux", "--surface", "u1,u2,0", "--trace", "helix",
                        "--trace-domain", "0:1"]),
    ("--param", ["classify", "--surface", "cyl", "--trace", "helix", "--param", "k=1"]),
    ("--param", ["isophote", "--surface", "cyl", "--axis", "0,0,1", "--beta", "1",
                 "--grid", "8x8", "--param", "k=2"]),
    ("--domain", ["revolve", "--profile", "bowl", "--domain", "0:1"]),
    ("--c", ["revolve", "--profile", "bowl", "--c", "2"]),
    ("--param", ["revolve", "--profile", "bowl", "--mode", "euclidean", "--param", "a=1"]),
])
def test_inline_options_given_for_scene_objects_are_refused(option, argv, scene_path, capsys):
    assert main([*argv, "--scene", scene_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {option} applies only to inline objects" in captured.err


def test_revolve_json_reports_the_c_it_used(tmp_path, capsys):
    doc = copy.deepcopy(SCENE)
    doc["profiles"]["bowl"]["c"] = 2.0
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    inline = ["--profile", "s^2/2", "--domain", "0.1:1", "--mode", "isotropic"]
    for argv, c, mode in ((["--profile", "bowl", "--scene", str(path)], 2.0, "isotropic"),
                          (["--profile", "bowl", "--scene", str(path), "--mode", "euclidean"],
                           2.0, "euclidean"),
                          (inline, 1.0, "isotropic"), ([*inline, "--c", "3"], 3.0, "isotropic")):
        assert main(["revolve", *argv, "--json", "-"]) == 0
        report = json.loads(capsys.readouterr().out.split("\n", 5)[5])
        assert (report["defaults"]["c"], report["result"]["mode"]) == (c, mode)


@pytest.mark.parametrize("case", ["isotropic", "nonisotropic"])
def test_axis_with_one_sample_is_a_usage_error(case, capsys):
    rc = main(["axis", "--case", case, "--surface", "u1,u2,0", "--trace", "s,2*s",
               "--angle", "0", "--samples", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: samples must be >= 2" in captured.err


def test_size_caps_are_usage_errors_raised_before_any_work(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a capped request reached the computation")

    for name in ("extract", "frenet_samples", "darboux_samples", "classify_trace"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(cli.export, "tessellate", never)
    iso = ["isophote", "--surface", "u1,sin(u2),cos(u2)", "--axis", "0,0,1", "--silhouette"]
    rev = ["revolve", "--profile", "1+s^2", "--mode", "euclidean"]
    cap = cli.MAX_GRID_POINTS
    for argv, option, over in ((iso, "--grid", "2049x2048"), (rev, "--mesh", "2048x2048")):
        for text in (f"{cap + 1}x1", over, "100000x100000"):
            assert main([*argv, option, text]) == 2, (option, text)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: {option} {text} asks for" in captured.err
            assert f"above the cap MAX_GRID_POINTS = {cap}" in captured.err
    assert cli._parse_grid("2048x2048", "--grid") == (2048, 2048)
    # a mesh of N1xN2 cells has (N1 + 1)(N2 + 1) vertices
    assert cli._parse_grid("2047x2047", "--mesh", mesh=True) == (2047, 2047)
    assert cli._parse_grid(f"1x{cap // 2 - 1}", "--mesh", mesh=True) == (1, cap // 2 - 1)
    with pytest.raises(errors.G3Error, match=f"--mesh 1x{cap // 2} asks for {cap + 2} vertices"):
        cli._parse_grid(f"1x{cap // 2}", "--mesh", mesh=True)
    surface_trace = ["--surface", "u1,sin(u2),cos(u2)", "--trace", "s,s"]
    for argv in (["frenet", "--curve", "s^2/2,s^3/6"], ["darboux", *surface_trace],
                 ["classify", *surface_trace]):
        for samples in (cli.MAX_SAMPLES + 1, 10 ** 12):
            assert main([*argv, "--samples", str(samples)]) == 2
            err = capsys.readouterr().err
            assert (f"error: --samples {samples} is above the cap "
                    f"MAX_SAMPLES = {cli.MAX_SAMPLES}") in err


def _exit_code_clauses(text: str) -> tuple[set, set]:
    """The error class names in the code-1 and code-2 clauses of the
    paragraph that starts with 'Exit codes'."""
    para = text[text.index("Exit codes"):].split("\n\n")[0]
    one, two = para.split("; 2 ")
    assert re.search(r"\b0 (ok|success)\b", one) and re.search(r"\b1 a numerical failure", one)
    return tuple(set(re.findall(r"\b([A-Z]\w*Error)\b", c)) for c in (one, two))


def test_exit_code_prose_matches_the_table():
    want = tuple({k.__name__ for k, v in cli.EXIT_CODES.items() if v == code} for code in (1, 2))
    assert set(cli.EXIT_CODES.values()) == {1, 2} and want[1] == {"G3Error"}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for text in (cli.__doc__, readme):
        assert _exit_code_clauses(text) == want


# ---------------------------------------------------------------------------
# fuzz: generated argv and mutated scene documents end in an exit code
# ---------------------------------------------------------------------------

_NUMBERS = ["0.5", "1", "0", "-1", "-0", "1e300", "nan", "inf", "x"]
_INTERVALS = ["0:2", "0.001:5", "-1:1", "1:0", "0:0", "0:inf", "0:nan", "a:b", "0", "0:1:2"]
_SURFACE_DOMAINS = ["0:2,0:6.3", "0:1,0:1", "-1:1,1:0", "0:1", "0:inf,0:1", "x"]
_SURFACES = ["cyl", "plane", "ghost", "u1,sin(u2),cos(u2)", "u1,u2,0", "u1,u2,k*u1^2",
             "log(u1),u2,1/u2", "u1,u1,u1", "u1,u2", "2u1,u2,0"]
_TRACES = ["helix", "parabola", "s,s", "s,2*s", "s^2,0", "0,0", "1/s,s", "s"]
# every grid is at most 8x8 points, or is refused before any work
_GRIDS = ["2x2", "8x8", "1x8", "8x1", "0x0", "-2x4", "8xq", "8", "2049x2048"]
_FUZZ_OPTIONS = {
    "frenet": {"--curve": ["cubic", "s^2/2,s^3/6", "s,s", "s^3,s^2", "a*s^2,s^3",
                           "sqrt(s)-1,s^2", "log(s),s", "2s,s", "s", ""],
               "--domain": _INTERVALS, "--samples": ["1", "2", "8", "0", "2.5", "65537"],
               "--param": ["a=1", "a=nan", "a", "s=1"], "--csv": ["out"], "--json": ["out"]},
    "darboux": {"--surface": _SURFACES, "--trace": _TRACES,
                "--surface-domain": _SURFACE_DOMAINS, "--trace-domain": _INTERVALS,
                "--samples": ["1", "4", "-3"], "--param": ["k=0.5", "u1=2"],
                "--json": ["out"]},
    "classify": {"--surface": _SURFACES, "--trace": _TRACES,
                 "--surface-domain": _SURFACE_DOMAINS, "--trace-domain": _INTERVALS,
                 "--samples": ["2", "8"], "--tol": _NUMBERS, "--json": ["out"]},
    "axis": {"--case": ["isotropic", "nonisotropic", "other"], "--surface": _SURFACES,
             "--trace": _TRACES, "--angle": _NUMBERS, "--surface-domain": _SURFACE_DOMAINS,
             "--samples": ["1", "2", "8"], "--tol": _NUMBERS, "--json": ["out"]},
    "isophote": {"--surface": _SURFACES, "--axis": ["zhat", "0,0,1", "1,0,1", "0,1,0",
                                                    "0,0,0", "1,2", "nan,0,1"],
                 "--beta": _NUMBERS, "--level": _NUMBERS, "--silhouette": None,
                 "--surface-domain": _SURFACE_DOMAINS, "--refine-tol": _NUMBERS,
                 "--param": ["k=2"], "--obj": ["out"], "--svg": ["out"], "--json": ["out"]},
    "revolve": {"--profile": ["bowl", "s^2/2", "1+s^2", "s^3", "log(s)", "s,s"],
                "--mode": ["euclidean", "isotropic", "other"], "--domain": _INTERVALS,
                "--c": _NUMBERS, "--mesh": _GRIDS, "--obj": ["out"],
                "--json": ["out"]},
    "verify": {"--filter": ["frenet_closed_form", "thm_3_2", "cor 4.4", "nosuchcheck"],
               "--json": ["out"]},
}
# options every generated command carries, so that none runs at a default size
_FUZZ_ALWAYS = {"isophote": ("--grid", _GRIDS), "verify": ("--filter", None)}


def _output_paths(tmp_path) -> list[str]:
    return [str(tmp_path / "out"), str(tmp_path / "no" / "such"), "-"]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzz_generated_argv_ends_in_an_exit_code(tmp_path, data):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(SCENE))
    command = data.draw(st.sampled_from(sorted(_FUZZ_OPTIONS)), "command")
    options = _FUZZ_OPTIONS[command]
    argv = [command]
    if command in _FUZZ_ALWAYS:
        option, values = _FUZZ_ALWAYS[command]
        argv += [option, data.draw(st.sampled_from(values or options[option]))]
    for option, values in options.items():
        if not data.draw(st.booleans()):
            continue
        if values is None:
            argv.append(option)
            continue
        value = data.draw(st.sampled_from(values))
        if value == "out":
            # "-" is stdout for --json and a file named "-" for the others
            paths = _output_paths(tmp_path)
            value = data.draw(st.sampled_from(paths if option == "--json" else paths[:2]))
        argv += [option, value]
    if command != "verify" and data.draw(st.booleans()):
        argv += ["--scene", str(scene)]
    argv += data.draw(st.lists(st.sampled_from(["--samples", "-", "--", "junk", "8x8"]),
                               max_size=1))
    assert main(argv) in (0, 1, 2), argv


def _scene_paths(node, prefix=()):
    """The key path of every entry of a scene document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _scene_paths(child, (*prefix, key))


_DELETE = object()
_SCENE_VALUES = [_DELETE, 5, -1.5, 0, 1e308, math.inf, math.nan, True, None, "", "x",
                 "u1", "s^2", "1", [], ["u1"], [0, 1], [1, 0], [[0, 1], [0, 1]], {},
                 {"a": 1}]
_SCENE_COMMANDS = [
    ["frenet", "--curve", "cubic", "--samples", "4"],
    ["darboux", "--surface", "cyl", "--trace", "helix", "--samples", "4"],
    ["classify", "--surface", "plane", "--trace", "parabola", "--samples", "4"],
    ["axis", "--case", "isotropic", "--surface", "cyl", "--trace", "helix",
     "--angle", "0.3", "--samples", "4"],
    ["isophote", "--surface", "cyl", "--axis", "zhat", "--beta", "1", "--grid", "8x8"],
    ["revolve", "--profile", "bowl", "--mesh", "4x4"],
]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(list(_scene_paths(SCENE))), st.sampled_from(_SCENE_VALUES),
       st.sampled_from(_SCENE_COMMANDS))
def test_fuzz_mutated_scene_ends_in_an_exit_code(tmp_path, path, value, argv):
    doc = copy.deepcopy(SCENE)
    if path:
        *parents, last = path
        holder = doc
        for key in parents:
            holder = holder[key]
        if value is _DELETE:
            del holder[last]
        else:
            holder[last] = value
    elif value is not _DELETE:
        doc = value
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    assert main([*argv, "--scene", str(scene)]) in (0, 1, 2), (path, value, argv)
