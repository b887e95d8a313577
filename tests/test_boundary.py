"""The dual path computes nothing with the classical oracle.

The oracle is only worth something as an independent check if the modules
it checks never call into it, directly or through an import of it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import screwalg
from screwalg import TripleTag

SOURCE = Path(screwalg.__file__).parent


def _imported_names(tree: ast.AST):
    """Dotted names of every import: ``from .x import y`` gives ``.x.y``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", ["dual", "linalg", "geometry", "theorems"])
def test_dual_path_does_not_import_the_oracle(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    names = list(_imported_names(tree))
    assert names, "no imports found; the parser is not looking at the module"
    offending = [n for n in names if "oracle" in n.split(".")]
    assert not offending, f"{module}.py imports {offending}"


def test_no_check_is_an_assert():
    """``python -O`` strips ``assert``, so no check in the library may be one."""
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules, "no modules found; the test is not looking at the package"
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"


# On a 3-vector or a 3x3 matrix each of these costs several times the
# arithmetic it does; the kernels use linalg's _length, a triple product and
# the _EYE and _ZERO3 constants instead. Module-level constants may still use them.
SLOW_ENTRY_POINTS = {"numpy.linalg.norm", "numpy.linalg.det", "numpy.eye", "numpy.zeros"}


def _aliases(tree: ast.AST) -> dict:
    """Local name -> dotted origin, for every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _dotted(node: ast.AST):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _slow_calls(tree: ast.AST) -> list:
    """Line numbers of calls to a slow entry point inside a function body."""
    aliases = _aliases(tree)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for call in ast.walk(fn):
            name = _dotted(call.func) if isinstance(call, ast.Call) else None
            if name is None:
                continue
            head, _, rest = name.partition(".")
            origin = aliases.get(head, head) + ("." + rest if rest else "")
            if origin in SLOW_ENTRY_POINTS:
                found.add(call.lineno)
    return sorted(found)


def test_slow_call_detector_sees_every_spelling():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import det as d\n"
        "import numpy\n"
        "from numpy import zeros\n"
        "EYE = np.eye(3)\n"
        "ZERO = np.zeros(3)\n"
        "def f(v):\n"
        "    return np.linalg.norm(v) + d(v) + numpy.eye(3) + np.linalg.lstsq(v, v)\n"
        "g = lambda m: np.linalg.det(m)\n"
        "def h():\n"
        "    return np.zeros(3) + zeros((3, 3))\n"
    )
    assert _slow_calls(ast.parse(source)) == [8, 9, 11]


@pytest.mark.parametrize("module", ["linalg", "geometry", "oracle"])
def test_kernels_call_no_slow_numpy_entry_point(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    assert _aliases(tree).get("np") == "numpy", "the parser is not looking at the module"
    lines = _slow_calls(tree)
    assert not lines, (
        f"{module}.py calls np.linalg.norm, np.linalg.det, np.eye or np.zeros at lines {lines}"
    )


def _numpy_imports(tree: ast.AST) -> list:
    """The imports of numpy or of a numpy submodule, at any depth."""
    return [name for name in _imported_names(tree) if name.split(".")[0] == "numpy"]


def test_numpy_import_detector_sees_every_depth():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "from .numpy import x\n"
        "def f():\n"
        "    import numpy\n"
        "    class K:\n"
        "        def g(self):\n"
        "            import numpy.linalg, os\n"
        "if True:\n"
        "    from numpy import array\n"
    )
    assert sorted(_numpy_imports(ast.parse(source))) == [
        "numpy", "numpy", "numpy.array", "numpy.linalg", "numpy.linalg.svd",
    ]


# The modulus, the angle, the sine and the cosine of a dual are written once, as
# dual._droot, dual._datan2 and dual._dsincos; the theorem kernels call those, so a
# square root, an atan2, a sin or a cos of their own would be a second copy of the formula.
PAIR_KERNEL_CALLS = {"math.sqrt", "math.atan2", "math.sin", "math.cos"}


def _pair_kernel_calls(tree: ast.AST) -> list:
    """Line numbers of each use of a PAIR_KERNEL_CALLS function, called or not, however imported."""
    aliases = _aliases(tree)
    found = set()
    for node in ast.walk(tree):
        name = _dotted(node) if isinstance(node, (ast.Attribute, ast.Name)) else None
        if name is None:
            continue
        head, _, rest = name.partition(".")
        if aliases.get(head, head) + ("." + rest if rest else "") in PAIR_KERNEL_CALLS:
            found.add(node.lineno)
    return sorted(found)


def test_pair_kernel_call_detector_sees_every_spelling():
    source = (
        "import math\n"
        "import math as m\n"
        "from math import sqrt as root, atan2\n"
        "ROOT2 = math.sqrt(2.0)\n"
        "def f(x, y):\n"
        "    return m.atan2(y, x) + root(x) + math.hypot(x, y)\n"
        "g = lambda x: atan2(x, 1.0)\n"
        "h = math.sqrt\n"
        "def k(dual, x):\n"
        "    return dual.sqrt(x) + sqrt(x) + dual.atan2(x, x) + dual.sin(x) + math.tan(x)\n"
        "from math import cos as c\n"
        "def s(t):\n"
        "    return c(t) * m.sin(t)\n"
    )
    assert _pair_kernel_calls(ast.parse(source)) == [4, 6, 7, 8, 13]


def test_theorems_takes_roots_and_angles_from_the_pair_kernels():
    tree = ast.parse((SOURCE / "theorems.py").read_text(encoding="utf-8"))
    assert _aliases(tree).get("math") == "math", "the parser is not looking at the module"
    lines = _pair_kernel_calls(tree)
    assert not lines, f"theorems.py calls math.sqrt, atan2, sin or cos at lines {lines}"


# -- kernels take and return floats ----------------------------------------------
#
# A Dual, DualVec3 or DualMat3 is built only for a value that a function hands out;
# what a kernel computes on the way stays a pair of floats. The builders are told
# apart by their code objects, not by name, so no alias, re-import or rename of
# one escapes the count.

def _builds(call) -> dict:
    """How many Duals (dual._dual and Dual.__init__) and arrays (_DualArray._raw)
    call() builds, counted by the code objects that sys.setprofile sees called."""
    kinds = {
        screwalg.dual._dual.__code__: "Dual",
        screwalg.dual.Dual.__init__.__code__: "Dual",
        screwalg.linalg._DualArray._raw.__func__.__code__: "array",
    }
    counts = {"Dual": 0, "array": 0}

    def count(frame, event, arg):
        kind = kinds.get(frame.f_code) if event == "call" else None
        if kind:
            counts[kind] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return counts


def test_construction_counter_sees_every_spelling():
    from screwalg.dual import Dual
    from screwalg.dual import _dual as make
    from screwalg.linalg import DualMat3, DualVec3

    x, y = Dual(1.0, 2.0), Dual(3.0, 4.0)
    v = DualVec3([1.0, 2.0, 3.0], [0.5, 0.0, -0.5])

    assert _builds(lambda: Dual(1.0, 2.0)) == {"Dual": 1, "array": 0}
    assert _builds(lambda: make(1.0, 2.0)) == {"Dual": 1, "array": 0}
    assert _builds(lambda: getattr(screwalg.dual, "_dual")(1.0, 2.0)) == {"Dual": 1, "array": 0}
    # The operators build through _dual; a number mixed in is coerced by Dual.__init__.
    assert _builds(lambda: x * y + y.inv() - 1) == {"Dual": 5, "array": 0}
    assert _builds(lambda: DualMat3.identity()) == {"Dual": 0, "array": 1}
    assert _builds(lambda: getattr(DualVec3, "_raw")(v._re, v._du)) == {"Dual": 0, "array": 1}
    assert _builds(lambda: v * x + v) == {"Dual": 0, "array": 2}
    # The checked constructor is not a library result, and a float kernel builds nothing.
    assert _builds(lambda: DualVec3([1.0, 2.0, 3.0])) == {"Dual": 0, "array": 0}
    assert _builds(lambda: screwalg.linalg._ddot(v._re, v._du, v._re, v._du)) == {
        "Dual": 0, "array": 0}


def test_the_motion_and_unit_screw_kernels_build_only_what_they_hand_out():
    from screwalg import DualVec3, axis_decompose, common_normal, exp_so3d, norm, normalized

    series, closed = DualVec3([0.1, -0.2, 0.3], [1.0, 0.5, -2.0]), DualVec3([0.4, 1.1, -0.7], [2.0, 0.0, -1.0])
    assert screwalg.linalg._dot3(series._re, series._re) < 0.25 <= screwalg.linalg._dot3(
        closed._re, closed._re)
    screw = DualVec3([1.0, 2.0, -0.5], [0.3, -1.0, 2.0])
    other = DualVec3([-0.5, 1.0, 1.5], [1.0, 0.2, 0.0])
    assert _builds(lambda: exp_so3d(series)) == {"Dual": 0, "array": 1}
    assert _builds(lambda: exp_so3d(closed)) == {"Dual": 0, "array": 1}
    assert _builds(lambda: norm(screw)) == {"Dual": 1, "array": 0}
    assert _builds(lambda: normalized(screw)) == {"Dual": 0, "array": 1}
    # The axis line's screw is the one array axis_decompose builds.
    assert _builds(lambda: axis_decompose(screw)) == {"Dual": 0, "array": 1}
    # cross(x, y) and the normal line's screw.
    assert _builds(lambda: common_normal(screw, other)) == {"Dual": 0, "array": 2}


def test_theorems_imports_no_numpy():
    """The theorem layer decides dependence and solves its pencils with the
    float kernels of linalg, so it needs numpy nowhere, not even inside a function."""
    source = (SOURCE / "theorems.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    assert _aliases(tree).get("math") == "math", "the parser is not looking at the module"
    assert not _numpy_imports(tree), f"theorems.py imports {_numpy_imports(tree)}"
    assert "numpy" not in source


# -- tol judges only the caller's input ---------------------------------------
#
# A floor such as max(tol, 1e-7) loosens the caller's tolerance behind their
# back, and magnitude, the length of all six components, mixes resultant and
# moment, so a threshold scaled by it moves with the origin.

def _is_number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _called(node: ast.AST, name: str) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == name) or (
        isinstance(func, ast.Attribute) and func.attr == name
    )


def _tolerance_floors(tree: ast.AST) -> list:
    """Lines of a max() over a tolerance name and a number."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if _called(node, "max")
        and any(isinstance(a, ast.Name) and "tol" in a.id.lower() for a in node.args)
        and any(_is_number(a) for a in node.args)
    })


def _magnitude_thresholds(tree: ast.AST) -> list:
    """Lines of a magnitude(...) call inside a comparison."""
    return sorted({
        call.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for call in ast.walk(node)
        if _called(call, "magnitude")
    })


def test_tolerance_detectors_see_every_spelling():
    source = (
        "def f(tol, x, check_tol):\n"
        "    a = max(tol, 1e-7)\n"
        "    b = max(1e-7, tol)\n"
        "    c = max(check_tol, -1, x)\n"
        "    d = max(tol, x) + max(1.0, x) + magnitude(x)\n"
        "    if magnitude(x) <= tol:\n"
        "        return abs(x) > tol * linalg.magnitude(x)\n"
        "    return tol * max(1.0, x) < 2 * magnitude(x) + 1\n"
    )
    tree = ast.parse(source)
    assert _tolerance_floors(tree) == [2, 3, 4]
    assert _magnitude_thresholds(tree) == [6, 7, 8]


def test_no_floor_under_a_tolerance():
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules, "no modules found; the test is not looking at the package"
    found = [
        f"{path.name}:{line}"
        for path in modules
        for line in _tolerance_floors(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"max(tol, <number>) in the library: {found}"


@pytest.mark.parametrize("module", ["geometry", "theorems"])
def test_no_threshold_is_scaled_by_magnitude(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    lines = _magnitude_thresholds(tree)
    assert not lines, f"{module}.py compares a magnitude(...) at lines {lines}"


# -- one verdict rule for the theorem reports -----------------------------------
#
# The theorem reports judge each residual relative to a product of input moduli
# of its own degree, in theorems._relative. A max(1.0, ...) under a size floors
# it at an absolute unit, and magnitude(...) mixed resultant and moment, so
# neither may come back into the code that decides a theorem's verdict.

VERDICT_CODE = {
    "theorems": {
        "_relative", "EquilibriumReport.max_scaled_residual", "EquilibriumReport.ok",
        "PetersenMorleyReport.max_residual", "PetersenMorleyReport.ok", "thales_check",
        "_thales_figure",
    },
    "cli": {"_cmd_verify"},
}


def _verdict_floors(tree: ast.AST, functions) -> list:
    """(function, line) of each max() over a number and each magnitude() call in
    ``functions``, the qualified names of the verdict code; nested code included."""
    found = set()
    for name, fn in _functions(tree):
        if name in functions:
            found.update(
                (name, node.lineno)
                for node in ast.walk(fn)
                if (_called(node, "max") and any(_is_number(a) for a in node.args))
                or _called(node, "magnitude")
            )
    return sorted(found, key=lambda item: item[1])


def test_verdict_floor_detector_sees_every_spelling():
    source = (
        "class R:\n"
        "    def ok(self, tol):\n"
        "        return self.r / max(1.0, self.s) <= tol\n"
        "    def other(self):\n"
        "        return max(1.0, self.s)\n"
        "def check(x, tol):\n"
        "    a = max(x, 1) + builtins.max(2 * x, -1e-3) + max(x, tol)\n"
        "    b = linalg.magnitude(x)\n"
        "    def inner():\n"
        "        return magnitude(x) <= tol * max(abs(x), 0)\n"
        "    return a + b + max(x, tol)\n"
        "def helper(x):\n"
        "    return max(1.0, magnitude(x))\n"
    )
    found = _verdict_floors(ast.parse(source), {"R.ok", "check"})
    assert found == [("R.ok", 3), ("check", 7), ("check", 8), ("check", 10)]


@pytest.mark.parametrize("module", sorted(VERDICT_CODE))
def test_verdict_code_has_no_absolute_floor(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    names = {name for name, _ in _functions(tree)}
    assert VERDICT_CODE[module] <= names, "a verdict function is gone; update VERDICT_CODE"
    found = _verdict_floors(tree, VERDICT_CODE[module])
    assert not found, f"{module}.py floors a verdict at {found}"


# -- one scale rule ------------------------------------------------------------
#
# linalg._in_range is the one place the library handles a screw's size: it
# brings screws into range by a power of two. An frexp, an ldexp or a number
# beyond 1e100 either way anywhere else is a second rescue or a size test of
# its own. The one ldexp is linalg._scaled, with which _in_range applies its
# power and norm and axis_decompose, which hand back a length, undo it.

SCALE_RULE = "linalg._in_range"
SCALE_BACKS = {"linalg._scaled"}
SIZE_CALLS = {"math.ldexp": "ldexp", "math.frexp": "frexp"}


def _size_handling(tree: ast.AST) -> list:
    """(function, line, what) of each math.ldexp and math.frexp call, however
    imported, and of each number at least 1e100 or at most 1e-100 in size;
    ``function`` is the outermost function the node is in, or None."""
    aliases = _aliases(tree)
    owner = {}
    for name, fn in _functions(tree):
        for node in ast.walk(fn):
            owner.setdefault(node, name)
    found = set()
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.Call) and _dotted(node.func) is not None:
            head, _, rest = _dotted(node.func).partition(".")
            what = SIZE_CALLS.get(aliases.get(head, head) + ("." + rest if rest else ""))
        elif _is_number(node) and isinstance(node, ast.Constant):
            size = abs(node.value)
            what = "number" if size >= 1e100 or 0 < size <= 1e-100 else None
        if what:
            found.add((owner.get(node), node.lineno, what))
    return sorted(found, key=lambda item: item[1:])


def test_size_detector_sees_every_spelling():
    source = (
        "import math\n"
        "import math as m\n"
        "from math import ldexp as scale\n"
        "BIG = 1e150\n"
        "def f(x):\n"
        "    return math.ldexp(x, 3) + m.frexp(x)[0] + scale(x, -1) + math.exp(x)\n"
        "class K:\n"
        "    def g(self, x):\n"
        "        return x < -1e-150 or x > 10 ** 400 or x > 1e99 or x > 1e-99\n"
        "def _in_range(x):\n"
        "    def scaled(c):\n"
        "        return math.ldexp(c, 1)\n"
        "    return scaled(x) > 1e-100\n"
    )
    assert _size_handling(ast.parse(source)) == [
        (None, 4, "number"), ("f", 6, "frexp"), ("f", 6, "ldexp"), ("K.g", 9, "number"),
        ("_in_range", 12, "ldexp"), ("_in_range", 13, "number"),
    ]


def test_one_place_handles_a_screws_size():
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules, "no modules found; the test is not looking at the package"
    found, owners = [], set()
    for path in modules:
        for owner, line, what in _size_handling(ast.parse(path.read_text(encoding="utf-8"))):
            name = f"{path.stem}.{owner}"
            owners.add(name)
            if name != SCALE_RULE and not (what == "ldexp" and name in SCALE_BACKS):
                found.append(f"{path.name}:{line} {what}")
    assert {SCALE_RULE, *SCALE_BACKS} <= owners, "a scaling function is gone; shrink the list"
    assert not found, f"a screw's size is handled outside {SCALE_RULE}: {found}"


# -- one screw is six floats ---------------------------------------------------
#
# linalg, geometry and theorems compute on tuples of Python floats with the
# component kernels of linalg. A numpy array on a single screw pays numpy's
# per-call dispatch for three floats, and a round trip through tolist() for
# every result, so arrays appear only where values enter (the checked
# constructor) and where they leave (the re/du properties and the public
# functions that return arrays). theorems imports no numpy at all
# (test_theorems_imports_no_numpy).

ARRAY_CALLS = {"numpy.array", "numpy.cross"}
ARRAY_METHODS = {"tolist", "dot"}
ARRAY_BOUNDARY = {
    "linalg": {"_DualArray._checked", "_DualArray._array", "frame_translation", "displacement"},
    "geometry": {"Line.point", "field_at", "motor_reduce"},
    "theorems": set(),
}


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function, method and lambda, outermost first."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _functions(node, f"{name}.")
        else:
            yield from _functions(node, prefix)


def _array_calls(tree: ast.AST, allowed=frozenset()) -> list:
    """(function, line) of each array call inside a function that ``allowed`` does not name."""
    aliases = _aliases(tree)
    found = set()
    for name, fn in _functions(tree):
        if name in allowed:
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            if isinstance(call.func, ast.Attribute) and call.func.attr in ARRAY_METHODS:
                found.add((name, call.lineno))
                continue
            dotted = _dotted(call.func)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            if aliases.get(head, head) + ("." + rest if rest else "") in ARRAY_CALLS:
                found.add((name, call.lineno))
    return sorted(found, key=lambda item: item[1])


def test_array_call_detector_sees_every_spelling():
    source = (
        "import numpy as np\n"
        "from numpy import cross as c\n"
        "import numpy\n"
        "ZERO = np.array([0.0, 0.0, 0.0])\n"
        "def f(v):\n"
        "    return v.tolist() + v.dot(v) + np.array(v) + c(v, v) + numpy.cross(v, v)\n"
        "class K:\n"
        "    def g(self, v):\n"
        "        return (lambda w: np.array(w))(v)\n"
        "    def boundary(self, v):\n"
        "        return np.array(v).tolist()\n"
        "def h(v):\n"
        "    return np.asarray(v) + np.stack([v]) + np.linalg.svd(v)\n"
    )
    assert _array_calls(ast.parse(source), {"K.boundary"}) == [("f", 6), ("K.g", 9)]
    assert _array_calls(ast.parse(source)) == [("f", 6), ("K.g", 9), ("K.boundary", 11)]


@pytest.mark.parametrize("module", sorted(ARRAY_BOUNDARY))
def test_single_screw_path_builds_no_array(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    names = {name for name, _ in _functions(tree)}
    assert ARRAY_BOUNDARY[module] <= names, "an allowed function is gone; shrink the list"
    found = _array_calls(tree, ARRAY_BOUNDARY[module])
    assert not found, f"{module}.py builds or unpacks an array at {found}"


# -- one immutable value class ---------------------------------------------------
#
# How a library value refuses assignment, compares, hashes and copies is written
# once, in dual._Value; no module imports dataclasses as a second way to say it.
# A class equal only to itself assigns object.__eq__ and object.__hash__.

VALUE_DUNDERS = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__", "__reduce_ex__"}


def _value_machinery(tree: ast.AST, module: str) -> list:
    """(what, line) of each use of dataclasses, and of each definition of a VALUE_DUNDERS
    method in a class other than dual._Value."""
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        if any(name.split(".")[0] == "dataclasses" for name in names):
            found.append(("dataclasses", node.lineno))
        if isinstance(node, ast.ClassDef) and (module, node.name) != ("dual", "_Value"):
            found += [(f"{node.name}.{item.name}", item.lineno) for item in node.body
                      if isinstance(item, ast.FunctionDef) and item.name in VALUE_DUNDERS]
    return found


def test_value_machinery_detector_sees_every_spelling():
    source = (
        "import dataclasses\n"
        "import dataclasses as dc\n"
        "from dataclasses import dataclass\n"
        "probe = sys.modules['dataclasses']\n"
        "class A:\n"
        "    __eq__ = object.__eq__\n"
        "    def __setattr__(self, name, value): pass\n"
        "    class B:\n"
        "        def __reduce__(self): pass\n"
        "class _Value:\n"
        "    def __delattr__(self, name): pass\n"
    )
    found = [("A.__setattr__", 7), ("B.__reduce__", 9),
             ("dataclasses", 1), ("dataclasses", 2), ("dataclasses", 3), ("dataclasses", 4)]
    assert sorted(_value_machinery(ast.parse(source), "dual")) == found
    assert ("_Value.__delattr__", 11) in _value_machinery(ast.parse(source), "linalg")


def test_only_the_value_class_says_how_a_value_is_held():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules, "no modules found; the test is not looking at the package"
    found = {
        path.stem: _value_machinery(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        for path in modules
    }
    assert not any(found.values()), found
    dual_tree = ast.parse((SOURCE / "dual.py").read_text(encoding="utf-8"))
    assert _value_machinery(dual_tree, "linalg"), "dual._Value is not where the test looks"


# -- numpy is imported where arrays cross the boundary -------------------------
#
# A screw is six Python floats, so importing the package and running a
# subcommand on the dual path loads no numpy; only the oracle, the checked
# constructor's fallback for input that is not a plain list of numbers, and
# the functions that hand out arrays import it. Likewise only `verify` runs
# the theorems, and no module of the package imports dataclasses.

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))

DUAL_PATH_CASES = [
    f"{name}:{fmt}"
    for name in (
        "compose-chain", "screw-axis-generic", "common-normal-lines", "common-normal-motors",
        "line-angle-skew", "verify-cosines", "verify-petersen-morley-generic", "verify-thales",
    )
    for fmt in ("text", "json")
]

# Each entry: [step, exit code, the watched modules loaded after it].
_RUN_IN_ORDER = """
import contextlib, io, json, sys
WATCHED = ("dataclasses", "numpy", "screwalg.oracle", "screwalg.theorems")
def loaded():
    return [m for m in WATCHED if m in sys.modules]
import screwalg
seen = [["import screwalg", 0, loaded()]]
import screwalg.cli
seen.append(["import screwalg.cli", 0, loaded()])
for name, argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = screwalg.cli.main(argv)
    seen.append([name, code, loaded()])
print(json.dumps(seen))
"""


def _fresh_interpreter(script: str, stdin: str = "") -> list:
    """The JSON that ``script`` prints, run by a new interpreter on this checkout's package."""
    src = str(SOURCE.resolve().parent)
    env = {k: v for k, v in os.environ.items() if k != "SCREWALG_TOL"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin, capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def test_dual_path_subcommands_do_not_load_numpy():
    cases = [*DUAL_PATH_CASES, "fit-screw:json"]
    seen = _run_golden_in_order(cases)
    for name, code, loaded in seen[:-1]:
        assert "numpy" not in loaded, f"{name} loaded numpy"
    # The oracle's fit works on arrays, so numpy is loaded once it has run.
    assert "numpy" in seen[-1][2]


def test_geometry_subcommands_load_neither_theorems_oracle_dataclasses_nor_numpy():
    cases = [
        f"{name}:{fmt}"
        for name in ("compose-chain", "screw-axis-generic", "common-normal-lines",
                     "common-normal-motors", "line-angle-skew", "line-angle-perpendicular")
        for fmt in ("text", "json")
    ]
    seen = _run_golden_in_order([*cases, "verify-cosines:json"])
    assert [loaded for _, _, loaded in seen[:-1]] == [[]] * (len(seen) - 1), seen
    # verify runs the theorems, and nothing else of the watched modules.
    assert seen[-1][2] == ["screwalg.theorems"]


def _run_golden_in_order(cases: list) -> list:
    """_RUN_IN_ORDER on the golden argv of ``cases``, each checked for its golden exit code."""
    seen = _fresh_interpreter(
        _RUN_IN_ORDER, json.dumps([[name, GOLDEN[name]["argv"]] for name in cases])
    )
    assert [step for step, _, _ in seen] == ["import screwalg", "import screwalg.cli", *cases]
    for name, code, _ in seen[2:]:
        assert code == GOLDEN[name]["exit"], f"{name} exited {code}"
    return seen


# One triple of each class, and independence of two and of three screws.
_THEOREMS_IN_ORDER = """
import json, math, sys
from screwalg import Dual, DualVec3, classify_triple, independent_over_D
from screwalg import line_from_point_direction as line
X, Y, Z = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]
x_axis, y_offset = line([0, 0, 0], X).screw, line([0, 0, 1], Y).screw
triples = {
    "IndependentBasis": [DualVec3(X), DualVec3(Y), DualVec3(Z)],
    "CommonOrthogonalLine": [x_axis, y_offset, Dual(1, 2) * x_axis + Dual(2, -1) * y_offset],
    "ParallelCoplanar": [line([0, k, 0], X).screw for k in (0, 1, 2)],
    "ParallelNonCoplanar": [line(p, X).screw for p in ([0, 0, 0], [0, 1, 0], [0, 0, 1])],
    "ConcurrentCoplanar": [line([1, 1, 0], e).screw for e in (X, Y, [math.sqrt(0.5)] * 2 + [0])],
}
seen = [["import", None, "numpy" in sys.modules]]
for tag, zs in triples.items():
    seen.append([tag, classify_triple(*zs).tag.value, "numpy" in sys.modules])
for name, zs in (("pair", triples["IndependentBasis"][:2]),
                 ("parallel-pair", triples["ParallelCoplanar"][:2]),
                 ("triple", triples["IndependentBasis"]),
                 ("coplanar-triple", triples["ConcurrentCoplanar"])):
    seen.append([name, independent_over_D(zs), "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_classification_and_independence_do_not_load_numpy():
    seen = _fresh_interpreter(_THEOREMS_IN_ORDER)
    assert seen[0] == ["import", None, False], "import screwalg loaded numpy"
    assert [(name, result) for name, result, _ in seen[1:]] == [
        *((tag.value, tag.value) for tag in TripleTag),
        ("pair", True), ("parallel-pair", False), ("triple", True), ("coplanar-triple", False),
    ]
    assert not [name for name, _, loaded in seen if loaded], "numpy was loaded"


ORACLE_NAMES = (
    "ClassicalScrew", "LineRelation", "delassus_fit", "line_distance_angle",
    "oracle_comoment", "oracle_commutator",
)
THEOREM_NAMES = (
    "EquilibriumReport", "PetersenMorleyReport", "TripleClassification", "TripleTag",
    "are_proportional", "classify_triple", "equilibrium_laws", "independent_over_D",
    "petersen_morley", "thales_check",
)


def _resolve_once(module, names, monkeypatch):
    """Each name reads as ``module``'s own object, and after its first read it
    is bound in the package: neither the package's __getattr__ nor a later
    patch of ``module`` is seen."""
    assert set(names) <= set(dir(screwalg))
    for name in names:
        assert getattr(screwalg, name) is getattr(module, name)
    bound = {name: vars(screwalg)[name] for name in names}
    monkeypatch.delattr(screwalg, "__getattr__")
    for name in names:
        monkeypatch.setattr(module, name, "patched")
    assert {name: getattr(screwalg, name) for name in names} == bound


def test_oracle_names_resolve_from_the_package(monkeypatch):
    from screwalg import (  # noqa: F401
        ClassicalScrew,
        LineRelation,
        delassus_fit,
        line_distance_angle,
        oracle_comoment,
        oracle_commutator,
    )
    from screwalg import oracle

    with pytest.raises(AttributeError, match="no_such_name"):
        screwalg.no_such_name  # noqa: B018
    _resolve_once(oracle, ORACLE_NAMES, monkeypatch)


def test_theorem_names_resolve_once_from_the_package(monkeypatch):
    from screwalg import theorems

    _resolve_once(theorems, THEOREM_NAMES, monkeypatch)
