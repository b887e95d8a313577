"""screwalg: screw calculus over the dual numbers.

Screws (equiprojective vector fields on Euclidean space) are represented as
dual 3-vectors relative to one canonical frame, so every construction of
line geometry and rigid-body kinematics becomes ordinary vector algebra
with dual-number coefficients. A fully independent classical formulation
lives in :mod:`screwalg.oracle` and backs the verification suite.

Only the oracle imports numpy at module level. Its names are looked up in
:mod:`screwalg.oracle` on each access from this package, so ``import
screwalg`` does not load numpy.
"""

from . import errors
from .dual import Dual, atan2, cos, exp, extend, format_dual, parse_dual, sin, sqrt
from .geometry import (
    AxisDecomposition,
    Line,
    axes_intersect,
    axis_decompose,
    comoment,
    common_normal,
    dual_angle,
    field_at,
    frame_from_point,
    line_from_point_direction,
    motor_reduce,
    motor_unreduce,
)
from .linalg import (
    DualMat3,
    DualVec3,
    basis,
    cross,
    displacement,
    dot,
    exp_so3d,
    frame_translation,
    gram_schmidt,
    hat,
    is_frame,
    mixed,
    norm,
    normalized,
    vee,
)
from .theorems import (
    EquilibriumReport,
    PetersenMorleyReport,
    TripleClassification,
    TripleTag,
    are_proportional,
    classify_triple,
    equilibrium_laws,
    independent_over_D,
    petersen_morley,
    thales_check,
)

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset((
    "ClassicalScrew",
    "LineRelation",
    "delassus_fit",
    "line_distance_angle",
    "oracle_comoment",
    "oracle_commutator",
))


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)
