"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Counts, tolerances and runtime budgets are fixed here; nothing is
calibrated at run time.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from helpers import (
    rand_dualvec,
    rand_equilibrium_pair,
    rand_frame,
    rand_generic_triple,
    rand_proper_screw,
    rand_rotation_frame,
    rand_skew_lines,
    rand_sphere_triple,
    rand_vec,
    screw_size,
)
from screwalg import (
    ClassicalScrew,
    Dual,
    DualVec3,
    axis_decompose,
    comoment,
    cross,
    delassus_fit,
    displacement,
    dot,
    dual_angle,
    equilibrium_laws,
    field_at,
    frame_from_point,
    frame_translation,
    gram_schmidt,
    line_distance_angle,
    mixed,
    norm,
    oracle_comoment,
    oracle_commutator,
    petersen_morley,
    sin,
    thales_check,
)
from screwalg.cli import main as cli_main
from screwalg.errors import NotEquiprojective

EPS = np.finfo(float).eps


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"[acceptance] criterion {num} ({name}): PASS ({elapsed:.2f}s)")

        return wrapper

    return deco


@criterion(1, "dual arithmetic")
def test_criterion_1_dual_arithmetic():
    rng = np.random.default_rng(101)
    cases = 10_000
    fd_funcs = [
        (math.sin, math.cos, -3.0, 3.0),
        (math.exp, math.exp, -2.0, 2.0),
        (math.cos, lambda t: -math.sin(t), -3.0, 3.0),
    ]
    start = time.perf_counter()
    for k in range(cases):
        x = Dual(rng.uniform(0.1, 5.0) * (1 if k % 2 else -1), rng.uniform(-5, 5))
        y = Dual(rng.uniform(-5, 5), rng.uniform(-5, 5))
        z = Dual(rng.uniform(-5, 5), rng.uniform(-5, 5))
        scale = (
            (1 + max(abs(x.re), abs(x.du)))
            * (1 + max(abs(y.re), abs(y.du)))
            * (1 + max(abs(z.re), abs(z.du)))
        )
        bound = 4 * EPS * scale

        assoc = (x * y) * z - x * (y * z)
        assert max(abs(assoc.re), abs(assoc.du)) <= bound
        assert x * y == y * x
        distrib = x * (y + z) - (x * y + x * z)
        assert max(abs(distrib.re), abs(distrib.du)) <= bound

        assert x.conj().conj() == x
        prod_conj = (x * y).conj() - x.conj() * y.conj()
        assert max(abs(prod_conj.re), abs(prod_conj.du)) <= bound

        unit = x * x.inv()
        assert abs(unit.re - 1.0) <= 1e-14
        assert abs(unit.du) <= 1e-14 * max(1.0, abs(x.du / x.re))

        from screwalg import extend, sqrt

        f, fprime, lo, hi = fd_funcs[k % len(fd_funcs)]
        w = Dual(rng.uniform(lo, hi), rng.uniform(-5, 5))
        h = 1e-6
        numeric = w.du * (f(w.re + h) - f(w.re - h)) / (2 * h)
        assert abs(extend(f, fprime, w).du - numeric) <= 1e-6 * max(
            1.0, abs(extend(f, fprime, w).du)
        )

        p = Dual(rng.uniform(0.05, 10.0), rng.uniform(-10, 10))
        root = sqrt(p * p)
        assert abs(root.re - p.re) <= 1e-12 * max(1.0, p.re)
        assert abs(root.du - p.du) <= 1e-12 * max(1.0, abs(p.du))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"dual arithmetic suite took {elapsed:.2f}s (budget 5s)"


@criterion(2, "module identities and signature")
def test_criterion_2_module_identities():
    rng = np.random.default_rng(102)
    cases = 10_000
    start = time.perf_counter()
    for _ in range(cases):
        x, y, z, u = (rand_dualvec(rng) for _ in range(4))
        scale3 = screw_size(x, y, z)

        jac = cross(x, cross(y, z)) + cross(z, cross(x, y)) + cross(y, cross(z, x))
        assert screw_size(jac) <= 1e-12 * max(1.0, scale3)

        lag = dot(cross(x, y), cross(z, u)) - (
            dot(x, z) * dot(y, u) - dot(x, u) * dot(y, z)
        )
        assert max(abs(lag.re), abs(lag.du)) <= 1e-12 * max(1.0, scale3 * screw_size(u))

        m = mixed(x, y, z)
        cyc = m - mixed(y, z, x)
        swap = m + mixed(y, x, z)
        assert max(abs(cyc.re), abs(cyc.du)) <= 1e-12 * max(1.0, scale3)
        assert max(abs(swap.re), abs(swap.du)) <= 1e-12 * max(1.0, scale3)

        k = Dual(rng.uniform(-2, 2), rng.uniform(-2, 2))
        bil = dot(k * x, y) - k * dot(x, y)
        assert max(abs(bil.re), abs(bil.du)) <= 1e-12 * max(
            1.0, 4 * screw_size(x, y)
        )

    # Signature of the screw pairing on {m_i, eps m_i} for 10^4 random frames:
    # the 6x6 real Gram matrix must split 3 positive / 3 negative.
    eps_unit = Dual(0, 1)
    for i in range(10_000):
        frame = rand_frame(rng)
        rows = frame.rows()
        re_stack = np.vstack([r.re for r in rows] + [np.zeros((3, 3))])
        du_stack = np.vstack([r.du for r in rows] + [r.re for r in rows])
        gram = re_stack @ du_stack.T + du_stack @ re_stack.T
        if i < 100:
            six = list(rows) + [eps_unit * r for r in rows]
            direct = np.array([[dot(a, b).du for b in six] for a in six])
            assert np.abs(gram - direct).max() <= 1e-12
        eig = np.linalg.eigvalsh(gram)
        assert (eig > 1e-9).sum() == 3 and (eig < -1e-9).sum() == 3

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"module identity suite took {elapsed:.2f}s (budget 10s)"


@criterion(3, "motor/field isomorphism")
def test_criterion_3_isomorphism():
    rng = np.random.default_rng(103)
    eps_unit = Dual(0, 1)
    for _ in range(1_000):
        z1, z2 = rand_dualvec(rng), rand_dualvec(rng)
        c1, c2 = ClassicalScrew.from_motor(z1), ClassicalScrew.from_motor(z2)
        scale = max(1.0, screw_size(z1, z2))

        total = (c1 + c2).to_motor()
        want = z1 + z2
        assert np.abs(total.re - want.re).max() <= 1e-12 * scale
        assert np.abs(total.du - want.du).max() <= 1e-12 * scale

        shifted = c1.resultant_field().to_motor()
        want_eps = eps_unit * z1
        assert np.abs(shifted.re - want_eps.re).max() == 0.0
        assert np.abs(shifted.du - want_eps.du).max() == 0.0

        k = Dual(rng.uniform(-2, 2), rng.uniform(-2, 2))
        scaled = c1.scale(k).to_motor()
        want_k = k * z1
        assert np.abs(scaled.re - want_k.re).max() <= 1e-12 * scale
        assert np.abs(scaled.du - want_k.du).max() <= 1e-12 * scale

        assert abs(oracle_comoment(c1, c2) - comoment(z1, z2)) <= 1e-12 * scale
        brk = oracle_commutator(c1, c2).to_motor()
        want_brk = cross(z1, z2)
        assert np.abs(brk.re - want_brk.re).max() <= 1e-12 * scale
        assert np.abs(brk.du - want_brk.du).max() <= 1e-12 * scale


@criterion(4, "line geometry vs oracle")
def test_criterion_4_line_geometry():
    rng = np.random.default_rng(104)
    for _ in range(1_000):
        l1, l2 = rand_skew_lines(rng)
        rel = line_distance_angle(l1.point, l1.direction, l2.point, l2.direction)
        n = np.cross(l1.direction, l2.direction)
        n /= np.linalg.norm(n)
        a, b = rel.closest_points
        signed = (b - a) @ n

        theta = dual_angle(l1.screw, l2.screw)
        assert abs(theta.re - rel.angle) <= 1e-9
        assert abs(theta.du - signed) <= 1e-9 * max(1.0, rel.distance)
        assert abs(abs(theta.du) - rel.distance) <= 1e-9 * max(1.0, rel.distance)

        assert abs(comoment(l1.screw, l2.screw) + signed * math.sin(rel.angle)) <= 1e-9

        x = Dual(rng.uniform(0.5, 2.0), rng.uniform(-1, 1)) * l1.screw
        y = Dual(rng.uniform(0.5, 2.0), rng.uniform(-1, 1)) * l2.screw
        lhs = norm(cross(x, y))
        rhs = norm(x) * norm(y) * sin(dual_angle(x, y))
        s = screw_size(x, y)
        assert abs(lhs.re - rhs.re) <= 1e-9 * max(1.0, s)
        assert abs(lhs.du - rhs.du) <= 1e-9 * max(1.0, s)

        from screwalg import common_normal

        u = common_normal(x, y)
        for w in (x, y):
            inc = dot(u.screw, w)
            assert abs(inc.re) <= 1e-9 * max(1.0, screw_size(w))
            assert abs(inc.du) <= 1e-9 * max(1.0, screw_size(w) ** 2)


@criterion(5, "Euclidean construction")
def test_criterion_5_euclidean_construction():
    rng = np.random.default_rng(105)
    for _ in range(1_000):
        # Well-conditioned random module basis: mix orthonormal frame rows.
        rows = rand_frame(rng).rows()
        mix_re = np.eye(3) + 0.3 * rng.uniform(-1, 1, size=(3, 3))
        mix_du = 0.5 * rng.uniform(-1, 1, size=(3, 3))
        b = []
        for i in range(3):
            v = DualVec3([0.0, 0.0, 0.0])
            for j in range(3):
                v = v + Dual(mix_re[i, j], mix_du[i, j]) * rows[j]
            b.append(v)
        ms = gram_schmidt(*b)
        for i in range(3):
            for j in range(3):
                got = dot(ms[i], ms[j])
                assert abs(got.re - (1.0 if i == j else 0.0)) <= 1e-12
                assert abs(got.du) <= 1e-12

        # Affine axioms on point frames.
        pa, pb, pc = (rand_vec(rng) for _ in range(3))
        fa, fb, fc = (frame_from_point(p) for p in (pa, pb, pc))
        lhs = displacement(fa, fb) + displacement(fb, fc)
        assert np.abs(lhs - displacement(fa, fc)).max() <= 1e-12 * 10
        step = rand_vec(rng)
        assert np.abs(displacement(fa, frame_from_point(pa + step)) - step).max() <= 1e-12 * 10

        # Half-sum displacement agrees with the frame-translation extraction
        # of the relative frame, for a shared rotated projection.
        rot = rand_rotation_frame(rng)
        u = rot @ frame_from_point(pa)
        v = rot @ frame_from_point(pb)
        d1 = displacement(u, v)
        d2 = frame_translation(u.T @ v)
        assert np.abs(d1 - d2).max() <= 1e-12 * 10
        assert np.abs(d1 - (pb - pa)).max() <= 1e-12 * 10

        # Frame/point round trips.
        assert np.abs(frame_translation(frame_from_point(pc)) - pc).max() <= 1e-12 * 10


@criterion(6, "axis and pitch decomposition")
def test_criterion_6_axis_pitch():
    rng = np.random.default_rng(106)
    for _ in range(1_000):
        z = rand_proper_screw(rng)
        dec = axis_decompose(z)
        value = field_at(z, dec.axis.point)
        assert np.linalg.norm(np.cross(value, z.re)) <= 1e-9 * max(1.0, screw_size(z) ** 2)
        back = dec.reconstruct()
        assert np.abs(back.re - z.re).max() <= 1e-10 * max(1.0, screw_size(z))
        assert np.abs(back.du - z.du).max() <= 1e-10 * max(1.0, screw_size(z))


@criterion(7, "theorem suite")
def test_criterion_7_theorems():
    rng = np.random.default_rng(107)
    start = time.perf_counter()

    for _ in range(10_000):
        x, y = rand_equilibrium_pair(rng)
        report = equilibrium_laws(x, y)
        bound = 1e-9 * max(1.0, screw_size(x, y, -(x + y), moments=False))
        for r in report.cosine_residuals + report.sine_ratio_residuals:
            assert abs(r.re) <= bound and abs(r.du) <= bound
        assert abs(report.angle_sum_residual.re) <= bound
        assert abs(report.angle_sum_residual.du) <= bound

    for _ in range(1_000):
        x, y, z = rand_generic_triple(rng)
        report = petersen_morley(x, y, z)
        jacobi = screw_size(report.a + report.b + report.c)
        assert jacobi <= 1e-12 * max(1.0, screw_size(x, y, z))
        assert report.max_residual() <= 1e-9

    for _ in range(1_000):
        radius = Dual(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        x, y, z = rand_sphere_triple(rng, radius)
        residual = thales_check(x, y, z, radius)
        bound = 1e-12 * max(1.0, radius.re**2, radius.du**2)
        assert abs(residual.re) <= bound and abs(residual.du) <= bound

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"theorem suite took {elapsed:.2f}s (budget 60s)"


@criterion(8, "screw fitting")
def test_criterion_8_delassus():
    rng = np.random.default_rng(108)
    recovered = 0
    while recovered < 200:
        truth = ClassicalScrew(rand_vec(rng), rand_vec(rng))
        points = [rand_vec(rng, 3.0) for _ in range(5)]
        spread = np.linalg.svd(points - np.mean(points, axis=0), compute_uv=False)
        if spread[1] < 0.3:
            continue
        recovered += 1
        fitted = delassus_fit([(p, truth.field(p)) for p in points], tol=1e-10)
        assert np.abs(fitted.resultant - truth.resultant).max() <= 1e-10 * 10
        assert np.abs(fitted.value_at_origin - truth.value_at_origin).max() <= 1e-10 * 10

    tetra = [np.zeros(3), np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]]
    xhat = np.eye(3)[0]
    with pytest.raises(NotEquiprojective):
        delassus_fit([(p, (p @ xhat) * xhat) for p in tetra])


@criterion(9, "CLI golden runs and exit codes")
def test_criterion_9_cli(capsys):
    x_axis = {"point": [0, 0, 0], "direction": [1, 0, 0]}
    y_off = {"point": [0, 0, 1], "direction": [0, 1, 0]}
    z_off = {"point": [1, 0, 0], "direction": [0, 0, 1]}

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    code, out, _ = run("line-angle", "--json", json.dumps(x_axis), "--json", json.dumps(y_off))
    assert code == 0
    assert "Theta = 1.5707963267948966 + 1ε" in out

    code, out, _ = run(
        "screw-axis", "--json", json.dumps({"re": [2, 0, 0], "du": [3, 2, 0]})
    )
    assert code == 0
    assert "axis point = (0, 0, 1)" in out
    assert "pitch = 1.5" in out

    doc = {"x": x_axis, "y": y_off, "z": z_off}
    code, out, _ = run("verify", "petersen-morley", "--json", json.dumps(doc))
    assert code == 0
    assert json.loads(out)["passed"] is True

    # Exit-code contract: 1 residual, 2 parse, 3 precondition.
    code, _, _ = run(
        "verify", "cosines", "--tol", "1e-30",
        "--json", json.dumps({"x": x_axis, "y": y_off}),
    )
    assert code == 1

    code, _, _ = run("line-angle", "--json", "{bad", "--json", "{}")
    assert code == 2

    code, _, _ = run(
        "screw-axis", "--json", json.dumps({"re": [0, 0, 0], "du": [1, 2, 3]})
    )
    assert code == 3
