"""End-to-end acceptance suite: ten desk-scale checks of the full toolkit.

Each test prints a single pass/fail line with its headline numbers; the
heavy reconstruction criteria (5 and 7) run at production resolution and
dominate the suite's runtime.
"""

import time

import numpy as np
import pytest

from stresstomo.fields import (
    Grid3,
    ScalarField,
    SymField2,
    divergence,
    identity_sym,
    inc_potential,
    inner_derivative,
    null_space_witness,
    random_admissible_potential,
    random_bump_sym,
    solenoidal_project,
    tangential_projector,
    _wavevectors,
)
from stresstomo.forward import (
    Sinogram,
    add_noise,
    born_reduce,
    kdata_transform,
    longitudinal_transform,
    mixed_transform,
    pwave_data,
    rytov_family,
    truncated_reduce,
    unitarity_drift,
)
from stresstomo.geometry import (
    ConformalMetric,
    PlaneFamily,
    build_line_families,
    build_sphere_family,
    diameter,
    trace_geodesic,
)
from stresstomo.inversion import (
    NonUniqueError,
    detangle_trace,
    pwave_pipeline,
    recover_trace,
    swave_pipeline,
    verify_poincare,
)
from stresstomo.material import (
    MaterialParams,
    c_from_R,
    check_pwave_conditions,
    check_variable_conditions,
    contraction_identity_residual,
    swave_weights,
)

from reference import (
    family_ray,
    random_bump_covector,
    random_smooth_covector,
    rytov_propagate,
    spectral_upsample,
)


def report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}")


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_criterion_01_longitudinal_kernel():
    # chord integrals of potential-part fields dv vanish to quadrature accuracy
    t0 = time.time()
    grid = Grid3.cube(48)
    rng = np.random.default_rng(1)
    slices = np.linspace(-0.85, 0.85, 9)
    worst = 0.0
    for _ in range(20):
        v = random_smooth_covector(grid, rng)
        u = spectral_upsample(inner_derivative(v), 2)
        h = min(u.grid.spacing)
        fam = PlaneFamily(0, 13, 9, slices, (0.0, 0.0, 0.0), 1.0, h / 8)
        data = np.abs(longitudinal_transform(u, fam).values)
        bound = 1e-5 * np.max(np.abs(u.values)) * 2.0
        worst = max(worst, float(np.max(data) / bound))
    el = time.time() - t0
    ok = worst <= 1.0 and el <= 120.0
    report(1, "longitudinal kernel", ok, f"worst |I(dv)|/bound = {worst:.3f}, {el:.0f}s")
    assert worst <= 1.0
    assert el <= 120.0


def test_criterion_02_solenoidal_calculus():
    t0 = time.time()
    grid = Grid3.cube(48)
    rng = np.random.default_rng(2)
    u = random_bump_sym(grid, rng)
    su = solenoidal_project(u)
    idem = SymField2(grid, solenoidal_project(su).values - su.values).norm() / u.norm()
    v = random_bump_covector(grid, rng, radius=0.6)
    dv = inner_derivative(v)
    sd = solenoidal_project(dv).norm() / dv.norm()
    ds = divergence(su).norm() / u.norm()
    eps = tangential_projector(*_wavevectors(grid))
    tr = np.einsum("...jj->...", eps)
    nz = np.abs(tr) > 0.0
    trace_exact = bool(np.all(tr[nz] == 2.0))
    el = time.time() - t0
    ok = idem <= 1e-10 and sd <= 1e-8 and ds <= 1e-8 and trace_exact and el <= 30.0
    report(
        2,
        "solenoidal calculus",
        ok,
        f"idempotence {idem:.2e}, S.d {sd:.2e}, div.S {ds:.2e}, "
        f"tr eps exact {trace_exact}, {el:.0f}s",
    )
    assert idem <= 1e-10
    assert sd <= 1e-8
    assert ds <= 1e-8
    assert trace_exact
    assert el <= 30.0


def test_criterion_03_contraction_identity():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        R = rng.normal(size=(3, 3))
        R = 0.5 * (R + R.T)
        nu = tuple(rng.normal(size=4))
        vp = rng.uniform(0.5, 2.0)
        t = rng.normal(size=3)
        t *= vp / np.linalg.norm(t)
        res = contraction_identity_residual(R, nu, t, v_p=vp)
        scale = np.max(np.abs(c_from_R(R, nu))) * vp**4 + 1.0
        worst = max(worst, res / scale)
    el = time.time() - t0
    ok = worst <= 1e-12 and el <= 1.0
    report(3, "contraction identity", ok, f"worst relative residual {worst:.2e}, {el:.2f}s")
    assert worst <= 1e-12
    assert el <= 1.0


def test_criterion_04_trace_detangling():
    grid = Grid3.cube(24)
    rng = np.random.default_rng(4)
    # exact Fourier-domain round trip
    f = solenoidal_project(random_bump_sym(grid, rng))
    a = 0.8
    trf = f.values[..., :3].sum(-1)
    g = identity_sym(grid).values
    m = SymField2(
        grid,
        f.values + a * solenoidal_project(SymField2(grid, trf[..., None] * g)).values,
    )
    rt = rel(detangle_trace(m, a).values, f.values)
    # NonUniqueError exactly when |1 + 2a| < floor
    raised_inside = raised_outside = False
    try:
        detangle_trace(m, -0.5 + 4e-9)  # |1+2a| = 8e-9 < 1e-8
    except NonUniqueError:
        raised_inside = True
    try:
        detangle_trace(m, -0.5 + 2e-8)  # |1+2a| = 4e-8 > 1e-8
    except NonUniqueError:
        raised_outside = True
    # null-space witness: at a = -1/2 the phase data are blind to S(alpha g)
    p = MaterialParams(nu=(-1.0, 0.0, 0.0, 0.0))
    h = min(grid.spacing)
    slices = np.linspace(-0.9, 0.9, 9)
    fams = [PlaneFamily(k, 6, 9, slices, (0, 0, 0), 1.0, h / 16) for k in range(3)]
    wmax = 0.0
    for _ in range(10):
        w = spectral_upsample(null_space_witness(grid, rng, width=20.0), 2)
        wmax = max(
            wmax, max(float(np.max(np.abs(pwave_data(w, p, fam).values))) for fam in fams)
        )
    ok = rt <= 1e-12 and raised_inside and not raised_outside and wmax <= 1e-6
    report(
        4,
        "trace detangling",
        ok,
        f"round trip {rt:.2e}, floor gate {'exact' if raised_inside and not raised_outside else 'WRONG'}, "
        f"witness data {wmax:.2e}",
    )
    assert rt <= 1e-12
    assert raised_inside and not raised_outside
    assert wmax <= 1e-6


def test_criterion_05_pwave_end_to_end():
    t0 = time.time()
    grid = Grid3.cube(48)
    rng = np.random.default_rng(5)
    R = inc_potential(random_admissible_potential(grid, rng, r0=0.7))
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    fams = build_line_families(grid, 96, 64)
    t_fwd = time.time()
    data = [pwave_data(R, params, fam) for fam in fams]
    t_fwd = time.time() - t_fwd
    rec, rep = pwave_pipeline(data, params, grid)
    err_clean = rel(rec.values, R.values)
    nrng = np.random.default_rng(55)
    noisy = [add_noise(s, 0.01, nrng) for s in data]
    rec_n, _ = pwave_pipeline(noisy, params, grid)
    err_noisy = rel(rec_n.values, R.values)
    el = time.time() - t0
    ok = err_clean <= 0.05 and err_noisy <= 0.15 and el <= 600.0
    report(
        5,
        "P-wave end-to-end",
        ok,
        f"clean {err_clean:.4f} (<=0.05), 1% noise {err_noisy:.4f} (<=0.15), "
        f"forward {t_fwd:.2f}s, clean invert_I {rep.timing['invert_I']:.1f}s "
        f"({100 * rep.stages['regrid']['filled_share']:.1f}% support-filled), {el:.0f}s",
    )
    assert err_clean <= 0.05
    assert err_noisy <= 0.15
    assert el <= 600.0


def test_criterion_06_rytov_born():
    grid = Grid3.cube(24)
    rng = np.random.default_rng(6)
    R = random_bump_sym(grid, rng, radius=0.7)
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    fam = build_sphere_family(grid, 12, offsets=24)
    # unitarity at the default scale
    drift = unitarity_drift(rytov_family(R, params, fam).values)
    # Born remainder slope across three decades of stress scale
    lin = mixed_transform(R, params, fam).values
    eye = np.eye(2)
    errs = []
    scales = [1e-2, 1e-3, 1e-4]
    for s in scales:
        U = rytov_family(R, params, fam, scale=s).values
        errs.append(np.max(np.abs(U - eye + 1j * s * lin)))
    slopes = np.diff(np.log10(errs)) / np.diff(np.log10(scales))
    slope_ok = bool(np.all(np.abs(slopes - 2.0) <= 0.1))
    # basis-rotation invariance: the quadratic-form data evaluated on the
    # same physical polarization must not depend on the frame choice
    inv = 0.0
    psis = np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False)
    for m, o1, o2 in [(0, 10, 12), (5, 8, 14), (9, 12, 12), (11, 6, 10)]:
        ray = family_ray(fam, m, o1, o2)
        phi = rng.uniform(0.0, np.pi)
        c, s = np.cos(phi), np.sin(phi)
        ray_rot = family_ray(fam, m, o1, o2)
        e1, e2 = ray.frames[0]
        ray_rot.frames = np.broadcast_to(
            np.stack([c * e1 + s * e2, -s * e1 + c * e2]), ray.frames.shape
        ).copy()
        scale = 1e-3
        qs = []
        for r, shift in ((ray, 0.0), (ray_rot, phi)):
            U = rytov_propagate(R, params, r, scale=scale)
            B = -np.imag(U)
            B = 0.5 * (B + B.T)
            B -= 0.5 * np.trace(B) * np.eye(2)  # eta-independent part removed
            eta = np.stack([np.cos(psis - shift), np.sin(psis - shift)], axis=-1)
            qs.append(np.einsum("na,ab,nb->n", eta, B, eta))
        inv = max(inv, float(np.max(np.abs(qs[0] - qs[1])) / np.max(np.abs(qs[0]))))
    ok = drift <= 1e-8 and slope_ok and inv <= 1e-10
    report(
        6,
        "Rytov/Born",
        ok,
        f"unitarity {drift:.2e}, slopes {np.round(slopes, 3)}, frame invariance {inv:.2e}",
    )
    assert drift <= 1e-8
    assert slope_ok
    assert inv <= 1e-10


def test_criterion_07_swave_end_to_end():
    t0 = time.time()
    grid = Grid3.cube(32)
    rng = np.random.default_rng(11)
    R = inc_potential(random_admissible_potential(grid, rng, r0=0.6))
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    scale = 1e-3
    sphere = build_sphere_family(grid, 60)
    planes = build_line_families(grid, 96, 96)
    t_fwd = time.time()
    sinos = [rytov_family(R, params, sphere, scale=scale)]
    sinos += [rytov_family(R, params, fam, scale=scale) for fam in planes]
    t_fwd = time.time() - t_fwd
    rec, rep = swave_pipeline(sinos, params, grid, scale, tol=1e-3, maxiter=300)
    err_full = rel(rec.values, R.values)
    trR = R.values[..., :3].sum(-1)
    dev = R.values - (trR[..., None] / 3.0) * identity_sym(grid).values
    tr_rec = rec.values[..., :3].sum(-1)
    dev_rec = rec.values - (tr_rec[..., None] / 3.0) * identity_sym(grid).values
    err_dev = rel(dev_rec, dev)
    # scalar-trace stage in isolation: exact trace-free part fed in
    sw = swave_weights(params)
    norm = 1.0 / (scale * sw.scale)
    lplanes = [
        s.copy_with("lmatrix", born_reduce(s).values * norm) for s in sinos[1:]
    ]
    Ft = SymField2(grid, dev)
    phi = recover_trace(lplanes, Ft, sw.a, eta_tol=0.2)
    mask = grid.domain_mask()
    err_tr = float(
        np.linalg.norm((phi.values - trR) * mask) / np.linalg.norm(trR * mask)
    )
    el = time.time() - t0
    ok = err_full <= 0.15 and err_dev <= 0.10 and err_tr <= 0.05 and el <= 1200.0
    report(
        7,
        "S-wave end-to-end",
        ok,
        f"full {err_full:.4f} (<=0.15), trace-free {err_dev:.4f} (<=0.10), "
        f"trace {err_tr:.4f} (<=0.05), forward {t_fwd:.2f}s, "
        f"CG {rep.stages['cg']['iterations']} iterations "
        f"in {rep.timing['invert_K']:.1f}s, {el:.0f}s",
    )
    assert err_full <= 0.15
    assert err_dev <= 0.10
    assert err_tr <= 0.05
    assert el <= 1200.0


def test_criterion_08_energy_ratio():
    grid = Grid3.cube(24)
    rng = np.random.default_rng(8)
    ratios = [verify_poincare(random_bump_covector(grid, rng, radius=0.8)) for _ in range(50)]
    worst = float(max(ratios))
    ok = worst <= 1.0
    report(8, "energy-ratio bound", ok, f"max ratio {worst:.4f} over 50 fields (D=2)")
    assert worst <= 1.0


def test_criterion_09_condition_checkers():
    # hand-built table: nu -> expected flags of every checker, with the two
    # boundary cases a = -1/6 (smallness bound exactly 1) and a = -1/2
    D = 2.0
    table = [
        # nu, pwave (weight_sum, leading, trace), variable (small, ellip, symbol)
        ((0.0, 0.0, 0.0, 0.0), (True, True, True), (True, False, True)),
        ((0.1, 0.4, -0.2, 0.5), (True, True, True), (True, True, True)),
        ((-1.0 / 3.0, 0.0, 0.0, 0.0), (True, True, True), (False, False, True)),  # a=-1/6
        ((-1.0, 0.0, 0.0, 0.0), (True, True, False), (False, False, False)),  # a=-1/2
        ((0.0, -1.0, 0.0, 0.0), (True, True, False), (False, False, False)),  # a=-1/2
        ((0.0, 0.0, -0.5, -0.5), (False, False, False), None),  # 1+nu3+nu4 = 0
        ((0.2, 0.0, 0.5, -1.5), (True, False, True), None),
        ((-2.0 / 3.0, 0.0, 0.0, 0.0), (False, True, True), "indeterminate"),  # a=-1/3
        ((0.2, 0.2, 0.1, 0.1), (True, True, True), (True, True, True)),
        ((1.0, 1.0, 1.0, 1.0), (True, True, True), (True, True, True)),
        ((-0.5, 0.0, 0.0, 0.0), (True, True, True), (False, False, True)),  # a=-1/4
        ((0.1, 0.4, -0.2, 0.0), (True, True, True), (True, True, True)),  # nu4 = 0
    ]
    failures = []
    for nu, pw_want, var_want in table:
        p = MaterialParams(nu=nu)
        c = check_pwave_conditions(p)
        got = (c.passed["weight_sum"], c.passed["leading_weight"], c.passed["trace_uniqueness"])
        if got != pw_want:
            failures.append(f"{nu}: pwave {got} != {pw_want}")
        if var_want is None:
            try:
                check_variable_conditions(p, D)
                failures.append(f"{nu}: variable checker should reject degenerate weights")
            except ValueError:
                pass
            continue
        v = check_variable_conditions(p, D)
        if var_want == "indeterminate":
            if v.passed != {"indeterminate": False}:
                failures.append(f"{nu}: expected indeterminate, got {v.passed}")
            continue
        gv = (v.passed["smallness"], v.passed["ellipticity_strict"], v.passed["symbol_positivity"])
        if gv != var_want:
            failures.append(f"{nu}: variable {gv} != {var_want}")
    # the nu4 = 0 row must additionally be rejected by the shear weights
    try:
        swave_weights(MaterialParams(nu=(0.1, 0.4, -0.2, 0.0)))
        failures.append("nu4 = 0 not rejected by the shear weights")
    except ValueError:
        pass
    # a = -1/6 boundary sits exactly at the smallness bound
    bnd = check_variable_conditions(MaterialParams(nu=(-1.0 / 3.0, 0.0, 0.0, 0.0)), D)
    if bnd.values["smallness_bound"] != 1.0:
        failures.append(f"a=-1/6 smallness bound {bnd.values['smallness_bound']} != 1.0")
    ok = not failures
    report(9, "condition checkers", ok, f"12 parameter sets, {len(failures)} mismatches")
    assert not failures, failures


def test_criterion_10_geodesic_tracer():
    grid = Grid3.cube(16)
    rng = np.random.default_rng(10)
    worst_dev = 0.0
    for v in (1.0, 2.0):
        metric = ConformalMetric(ScalarField(grid, np.full(grid.dims, v)))
        for _ in range(5):
            x0 = rng.normal(size=3)
            x0 /= np.linalg.norm(x0)
            d = rng.normal(size=3)
            d -= (d @ x0) * x0  # aim inward-ish along the sphere tangent + center
            d = (d - x0) / np.linalg.norm(d - x0)
            ray = trace_geodesic(metric, x0, d)
            rl = ray.points - x0
            t = rl @ (rl[-1] / np.linalg.norm(rl[-1]))
            dev = np.linalg.norm(rl - t[:, None] * (rl[-1] / np.linalg.norm(rl[-1])), axis=1)
            worst_dev = max(worst_dev, float(np.max(dev)))
    diam_err = 0.0
    for v in (1.0, 2.0):
        metric = ConformalMetric(ScalarField(grid, np.full(grid.dims, v)))
        diam_err = max(diam_err, abs(diameter(metric, samples=16) - 2.0 / v))
    ok = worst_dev <= 1e-8 and diam_err <= 1e-6
    report(
        10,
        "geodesic tracer",
        ok,
        f"chord deviation {worst_dev:.2e}, diameter error {diam_err:.2e}",
    )
    assert worst_dev <= 1e-8
    assert diam_err <= 1e-6
