"""screwalg: screw calculus over the dual numbers.

Screws (equiprojective vector fields on Euclidean space) are represented as
dual 3-vectors relative to one canonical frame, so every construction of
line geometry and rigid-body kinematics becomes ordinary vector algebra
with dual-number coefficients. A fully independent classical formulation
lives in :mod:`screwalg.oracle` and backs the verification suite.

``import screwalg`` loads the dual path only: :mod:`~screwalg.dual`,
:mod:`~screwalg.linalg` and :mod:`~screwalg.geometry`. The names of
:mod:`screwalg.theorems` and of the numpy-backed :mod:`screwalg.oracle` are
resolved on first access, which imports their module once and binds its
names into this package.
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

__version__ = "0.1.0"

# The names of the modules that only some callers run, loaded on first use:
# the theorems, which bring dataclasses, and the oracle, which brings numpy.
_LAZY = {
    **dict.fromkeys((
        "EquilibriumReport", "PetersenMorleyReport", "TripleClassification", "TripleTag",
        "are_proportional", "classify_triple", "equilibrium_laws", "independent_over_D",
        "petersen_morley", "thales_check",
    ), "theorems"),
    **dict.fromkeys((
        "ClassicalScrew", "LineRelation", "delassus_fit", "line_distance_angle",
        "oracle_comoment", "oracle_commutator",
    ), "oracle"),
}


def __getattr__(name):
    """Import the module that defines ``name`` and bind all of its lazy names
    here, so that later reads are plain attribute loads."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    defining = import_module(f".{module}", __name__)
    globals().update((n, getattr(defining, n)) for n, m in _LAZY.items() if m == module)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
