"""Differential geometry of curves, surfaces and isophote lines in
Galilean 3-space: the degenerate metric apparatus, Frenet and Darboux
frames with analytic (jet) derivatives, isophote-axis reconstruction,
level-set extraction of isophote and silhouette curves, surfaces of
revolution, and a numerical verification suite for the underlying theory.
"""

from .curve import (
    CurveSpec,
    FrenetSample,
    HelixReport,
    detect_general_helix,
    detect_slant_helix,
    frenet,
    frenet_samples,
    is_admissible,
    transform_curve,
)
from .errors import (
    AxisConstraintError,
    AxisError,
    AxisUndefinedError,
    ExprDomainError,
    ExprSyntaxError,
    G3Error,
    InadmissibleTraceError,
    NotAsymptoticError,
    NotLineOfCurvatureError,
    SceneError,
    SingularNormalError,
    StraightSegmentError,
    UnknownIdentifierError,
)
from .expr import ExprAST, Jet, Jet2, eval_jet, eval_jet2, parse
from .export import TriMesh, tessellate, write_csv, write_obj, write_svg
from .galilean import (
    AngleKind,
    AngleMeasure,
    GalileanMotion,
    GVec3,
    angle,
    apply_motion,
    gcross,
    gdot,
    gnorm,
    normalize_axis,
    yz_norm,
)
from .isophote import (
    IsophoteQuery,
    IsophoteSet,
    Polyline,
    extract,
    field,
    field_grid,
    silhouette,
)
from .scene import Scene, load_scene, load_scene_dict
from .surface import (
    AxisReport,
    DarbouxSample,
    SurfaceSample,
    SurfaceSpec,
    TheoremConfig,
    TheoremReport,
    TraceSpec,
    axis_isotropic,
    axis_nonisotropic,
    classify_trace,
    darboux,
    darboux_samples,
    induced_curve,
    sample_surface,
    transform_surface,
    verify_theorems,
)
from .surfrev import (
    ProfileSpec,
    frame_normal_decomposition,
    profile_curve,
    revolve_euclidean,
    revolve_isotropic,
    verify_prop_4_1,
    verify_prop_4_2,
    verify_prop_4_3,
)
from .verify import run_suite

__version__ = "0.1.0"
