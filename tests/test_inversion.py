import json

import numpy as np
import pytest

from stresstomo.cli import load_config
from stresstomo.fields import (
    SYM_MULT,
    SYM_PAIRS,
    SYM_SLOT,
    CovectorField,
    Domain,
    Grid3,
    SymField2,
    divergence,
    divergence_norm,
    identity_sym,
    inc_potential,
    inner_derivative,
    matrix_to_sym,
    random_admissible_potential,
    random_bump_sym,
    random_smooth_sym,
    solenoidal_project,
    tangential_projector,
)
import stresstomo.inversion as inversion
from stresstomo.forward import (
    FamilyOperator,
    Sinogram,
    kdata_transform,
    longitudinal_transform,
    mixed_transform,
    pwave_data,
    rytov_family,
)
from stresstomo.geometry import PlaneFamily, build_line_families, build_sphere_family
from stresstomo.inversion import (
    CG_MAXITER,
    CG_TOL,
    NonUniqueError,
    ReconReport,
    _cubic_weights,
    _polar_rows,
    _sample_polar,
    detangle_trace,
    invert_I_solenoidal,
    invert_K_tracefree,
    pwave_pipeline,
    recover_trace,
    swave_pipeline,
    verify_poincare,
)
from stresstomo.material import MaterialParams, swave_weights

from reference import box_domain, full_wavevectors, random_bump_covector, random_smooth_covector


@pytest.fixture
def grid():
    return Grid3.cube(16)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# ---------------------------------------------------------------------------
# trace detangling


def make_entangled(f, a):
    """m whose Fourier modes are f_hat + a (tr f_hat) eps for solenoidal f."""
    grid = f.grid
    trf = f.values[..., :3].sum(-1)
    g = identity_sym(grid).values
    return SymField2(
        grid,
        f.values + a * solenoidal_project(SymField2(grid, trf[..., None] * g)).values,
    )


def test_detangle_round_trip(grid, rng):
    f = solenoidal_project(random_smooth_sym(grid, rng))
    for a in (0.8, -0.2, 3.0):
        m = make_entangled(f, a)
        rec = detangle_trace(m, a)
        assert rel(rec.values, f.values) < 1e-12


def test_detangle_zero_coupling_is_identity(grid, rng):
    m = solenoidal_project(random_smooth_sym(grid, rng))
    rec = detangle_trace(m, 0.0)
    assert np.max(np.abs(rec.values - m.values)) < 1e-12 * m.max_abs()


def test_detangle_trace_scaling(grid, rng):
    # tr f_hat = tr m_hat / (1 + 2a) holds pointwise in real space too
    f = solenoidal_project(random_smooth_sym(grid, rng))
    a = 0.8
    m = make_entangled(f, a)
    rec = detangle_trace(m, a)
    trm = m.values[..., :3].sum(-1)
    assert rel(rec.values[..., :3].sum(-1), trm / (1.0 + 2.0 * a)) < 1e-12


def test_detangle_nonunique_weight(grid, rng):
    m = solenoidal_project(random_smooth_sym(grid, rng))
    with pytest.raises(NonUniqueError):
        detangle_trace(m, -0.5)
    with pytest.raises(NonUniqueError):
        detangle_trace(m, -0.5 + 1e-12)
    # just outside the floor is allowed
    detangle_trace(m, -0.5 + 1e-6)


# half-spectrum code against the full-spectrum implementations it replaces,
# on even and odd lengths of the last (halved) axis
EQ_DIMS = [(16, 16, 16), (17, 17, 17), (16, 18, 20), (15, 18, 21)]


def ball_grid(dims):
    """Grid on [-1.2, 1.2]^3 with dims nodes per axis and the unit ball."""
    h = tuple(2.4 / n for n in dims)
    origin = tuple(-1.2 + 0.5 * s for s in h)
    return Grid3(tuple(dims), h, origin, Domain("ball", (0.0, 0.0, 0.0), 1.0))


def _reference_partials(values, grid):
    """d_i of each component on the full spectrum: (...,C) -> (...,C,3)."""
    spec = np.fft.fftn(values, axes=(0, 1, 2))
    ks = full_wavevectors(grid)
    return np.stack([np.fft.ifftn(1j * k[..., None] * spec, axes=(0, 1, 2)).real for k in ks], axis=-1)


def _reference_detangle_trace(m, a):
    spec = np.fft.fftn(m.values, axes=(0, 1, 2))
    eps6 = matrix_to_sym(tangential_projector(*full_wavevectors(m.grid)))
    trf = (spec[..., 0] + spec[..., 1] + spec[..., 2]) / (1.0 + 2.0 * a)
    return np.fft.ifftn(spec - a * trf[..., None] * eps6, axes=(0, 1, 2)).real


def _reference_verify_poincare(v):
    """The energy ratio from real-space derivatives, each from the full spectrum."""
    grid = v.grid
    dv = _reference_partials(v.values, grid)  # (...,k,j) = d_j v_k
    sym = np.stack([0.5 * (dv[..., k, j] + dv[..., j, k]) for j, k in SYM_PAIRS], axis=-1)
    div = dv[..., 0, 0] + dv[..., 1, 1] + dv[..., 2, 2]
    vol = grid.cell_volume()
    nv = float(np.sum(v.values**2)) * vol
    ndv = float(np.sum(SYM_MULT * sym**2)) * vol
    ndel = float(np.sum(div**2)) * vol
    return nv / ((2.0 * grid.domain.radius) ** 2 / 10.0 * (2.0 * ndv + ndel))


def _reference_divergence_norm(u):
    du = _reference_partials(u.values, u.grid)  # (...,s,i) = d_i u_s
    cols = [sum(du[..., SYM_SLOT[(j, k)], k] for k in range(3)) for j in range(3)]
    div = np.stack(cols, axis=-1)
    return CovectorField(u.grid, div).norm()


@pytest.mark.parametrize("dims", EQ_DIMS)
def test_detangle_trace_matches_full_spectrum_reference(dims):
    grid = ball_grid(dims)
    rng = np.random.default_rng(12)
    entangled = make_entangled(solenoidal_project(random_smooth_sym(grid, rng)), 0.8)
    for m in (entangled, random_smooth_sym(grid, rng)):
        want = _reference_detangle_trace(m, 0.8)
        assert np.max(np.abs(detangle_trace(m, 0.8).values - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dims", EQ_DIMS)
def test_verify_poincare_matches_full_spectrum_reference(dims):
    grid = ball_grid(dims)
    rng = np.random.default_rng(13)
    for _ in range(3):
        v = random_bump_covector(grid, rng, radius=0.8)
        want = _reference_verify_poincare(v)
        assert abs(verify_poincare(v) - want) <= 1e-12 * want


@pytest.mark.parametrize("dims", EQ_DIMS)
def test_poincare_rim_is_the_ball_shell(dims):
    # the rim test accepts a field on the outermost node inside the shell
    # r <= radius (1 - margin) and rejects one on the innermost node beyond it
    grid = ball_grid(dims)
    r = np.linalg.norm(grid.coords(), axis=-1)
    edge = 1.0 - 0.03
    inside = np.where(r <= edge, r, -1.0).argmax()
    beyond = np.where(r > edge, r, 9.0).argmin()
    for idx, rejected in ((inside, False), (beyond, True)):
        vals = np.zeros(dims + (3,))
        vals.reshape(-1, 3)[idx] = 1.0
        if rejected:
            with pytest.raises(ValueError, match="boundary"):
                verify_poincare(CovectorField(grid, vals))
        else:
            assert verify_poincare(CovectorField(grid, vals)) > 0.0


@pytest.mark.parametrize("dims", EQ_DIMS)
def test_divergence_norm_matches_full_spectrum_reference(dims):
    u = random_bump_sym(ball_grid(dims), np.random.default_rng(14), radius=0.6)
    want = _reference_divergence_norm(u)
    assert abs(divergence_norm(u) - want) <= 1e-12 * want


def test_pwave_divergence_residual_matches_full_spectrum_reference(grid, rng):
    # the output is solenoidal, so the residual is at the rounding level:
    # compare it in absolute terms (it is already relative to |R| / diam)
    R = inc_potential(random_bump_sym(grid, rng, radius=0.55))
    fams = build_line_families(grid, 24, 24)
    params = MaterialParams()
    out, report = pwave_pipeline([pwave_data(R, params, f) for f in fams], params, grid)
    want = _reference_divergence_norm(out) * 2.0 * grid.domain.radius / out.norm()
    assert abs(report.errors["divergence_residual"] - want) <= 1e-13


# ---------------------------------------------------------------------------
# longitudinal inversion


def test_invert_I_zero_data(grid):
    fams = build_line_families(grid, 24, 24)
    zero = SymField2(grid, np.zeros(grid.dims + (6,)))
    sinos = [longitudinal_transform(zero, f) for f in fams]
    m, info = invert_I_solenoidal(sinos, grid)
    assert np.max(np.abs(m.values)) < 1e-12
    assert info["direct_residual"] == 0.0


def test_invert_I_output_is_solenoidal(grid, rng):
    R = inc_potential(random_bump_sym(grid, rng, radius=0.55))
    fams = build_line_families(grid, 24, 24)
    sinos = [longitudinal_transform(R, f) for f in fams]
    m, _ = invert_I_solenoidal(sinos, grid)
    diam = 2.0 * grid.domain.radius
    assert divergence(m).norm() * diam < 1e-6 * m.norm()


def test_invert_I_insensitive_to_potential_part(grid, rng):
    # data from R + dv reconstruct the same field as data from R alone
    R = inc_potential(random_bump_sym(grid, rng, radius=0.55))
    dv = inner_derivative(random_smooth_covector(grid, rng, width=20.0))
    dv = SymField2(grid, dv.values * (R.max_abs() / dv.max_abs()))
    fams = build_line_families(grid, 24, 24)
    m1, _ = invert_I_solenoidal([longitudinal_transform(R, f) for f in fams], grid)
    R2 = SymField2(grid, R.values + dv.values)
    m2, _ = invert_I_solenoidal([longitudinal_transform(R2, f) for f in fams], grid)
    assert rel(m2.values, m1.values) < 0.01


def test_invert_I_round_trip_24():
    grid = Grid3.cube(24)
    rng = np.random.default_rng(7)
    R = inc_potential(random_admissible_potential(grid, rng, r0=0.5))
    fams = build_line_families(grid, 48, 32)
    sinos = [longitudinal_transform(R, f) for f in fams]
    m, _ = invert_I_solenoidal(sinos, grid)
    assert rel(m.values, R.values) < 0.10


def _reference_sample_polar(spec, offsets, theta_count, angle_idx, angle_frac, radius, zeta_idx):
    """_sample_polar as first written: one phase array per cubic tap, with
    the radius negated on wrapped taps."""
    do = offsets[1] - offsets[0]
    out = np.zeros(radius.shape, dtype=complex)
    for da, wa in zip((-1, 0, 1, 2), _cubic_weights(angle_frac)):
        a = angle_idx + da
        r = np.where((a >= theta_count) | (a < 0), -radius, radius)
        rows = spec[np.mod(a, theta_count), :, zeta_idx]
        phases = np.exp(-1j * r[:, None] * offsets[None, :])
        out += wa * np.sum(rows * phases, axis=-1) * do
    return out


def test_sample_polar_matches_reference(rng):
    # queries share in-plane positions and positions share base angles; the
    # first and last two angles wrap at pi on some taps.  A group's matmul
    # sums in another order than the reference, so agreement is to rounding
    ntheta, noff, nz, npos, q = 12, 20, 8, 60, 500
    spec = rng.normal(size=(ntheta, noff, nz)) + 1j * rng.normal(size=(ntheta, noff, nz))
    offsets = np.linspace(-1.0, 1.0, noff)
    angle_idx = rng.integers(0, ntheta, npos)
    angle_frac = rng.uniform(0.0, 1.0, npos)
    radius = rng.uniform(-40.0, 40.0, npos)
    pos = rng.integers(0, npos, q)
    zeta_idx = rng.integers(0, nz, q)
    assert np.all(np.isin([0, ntheta - 2, ntheta - 1], angle_idx))
    assert len(np.unique(pos)) < q and len(np.unique(angle_idx)) < npos
    rows = _polar_rows(offsets, ntheta, angle_idx, angle_frac, radius)
    got = _sample_polar(spec, angle_idx, rows, pos, zeta_idx)
    want = _reference_sample_polar(spec, offsets, ntheta, angle_idx[pos], angle_frac[pos],
                                   radius[pos], zeta_idx)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("refine", [0, 1, 2])
def test_invert_I_builds_geometry_once(grid, rng, monkeypatch, refine):
    # the direct pass and every defect-correction pass share one geometry
    calls = {"geometry": 0, "pass": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(inversion, "_regrid_geometry", counted("geometry", inversion._regrid_geometry))
    monkeypatch.setattr(inversion, "_regrid_pass", counted("pass", inversion._regrid_pass))
    R = inc_potential(random_bump_sym(grid, rng, radius=0.55))
    sinos = [longitudinal_transform(R, f) for f in build_line_families(grid, 24, 24)]
    _, info = invert_I_solenoidal(sinos, grid, refine=refine)
    assert calls == {"geometry": 1, "pass": refine + 1}
    assert (info["direct_residual"] is None) == (refine == 0)


_BAD_INPUTS = {
    "sphere": "sinogram 0 is over a SphereFamily",
    "propagator": "sinogram 1 has kind 'propagator'",
    "lmatrix": "sinogram 2 has kind 'lmatrix'",
    "repeated-axis": "sinograms 0 and 1 are both over the family orthogonal to axis 1",
    "missing-axis": "none is orthogonal to axis 3",
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_pwave_pipeline_rejects_non_plane_or_non_scalar_input(grid, rng, monkeypatch, case):
    # checked before any work, with the offending record or axis named
    monkeypatch.setattr(inversion, "_regrid_geometry", lambda *args: pytest.fail("geometry built"))
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    fams = build_line_families(grid, 6, 16)
    R = random_bump_sym(grid, rng, radius=0.6)
    sinos = [longitudinal_transform(R, f) for f in fams]
    if case == "sphere":
        sinos[0] = longitudinal_transform(R, build_sphere_family(grid, 6))
    elif case == "propagator":
        sinos[1] = rytov_family(R, params, fams[1], scale=1e-3)
    elif case == "lmatrix":
        sinos[2] = Sinogram(fams[2], "lmatrix", mixed_transform(R, params, fams[2]).values)
    elif case == "repeated-axis":
        sinos[1] = sinos[0]
    else:
        sinos = sinos[:2]
    with pytest.raises(ValueError, match=_BAD_INPUTS[case]):
        pwave_pipeline(sinos, params, grid)


def test_invert_I_condition_limit(grid, rng):
    # an absurdly tight condition limit marks every node weak and errors out
    R = inc_potential(random_bump_sym(grid, rng, radius=0.55))
    fams = build_line_families(grid, 24, 24)
    sinos = [longitudinal_transform(R, f) for f in fams]
    with pytest.raises(RuntimeError, match="angular sampling"):
        invert_I_solenoidal(sinos, grid, cond_limit=1.0 + 1e-9)


def test_pwave_pipeline_zero_data(grid):
    fams = build_line_families(grid, 24, 24)
    zero = SymField2(grid, np.zeros(grid.dims + (6,)))
    sinos = [longitudinal_transform(zero, f) for f in fams]
    params = MaterialParams()
    R, report = pwave_pipeline(sinos, params, grid)
    assert np.max(np.abs(R.values)) < 1e-12
    assert "total" in report.timing
    regrid = report.stages["regrid"]
    assert regrid["direct_residual"] == 0.0
    assert regrid["outside_energy"] == 0.0
    assert 0 < regrid["active_nodes"] < grid.dims[0] * grid.dims[1] * grid.dims[2]
    assert 0.0 < regrid["filled_share"] < 0.5
    assert 0.0 < regrid["geometry_s"] <= report.timing["invert_I"]


def test_pwave_pipeline_regrid_record(grid, rng):
    # the record comes from values the inversion holds: active nodes, the
    # support-filled share, the direct pass's data residual, build time
    R = inc_potential(random_bump_sym(grid, rng, radius=0.55))
    fams = build_line_families(grid, 24, 24)
    params = MaterialParams()
    sinos = [pwave_data(R, params, f) for f in fams]
    _, report = pwave_pipeline(sinos, params, grid)
    regrid = report.stages["regrid"]
    assert set(regrid) == {"active_nodes", "filled_share", "direct_residual", "geometry_s",
                           "outside_energy"}
    assert 0.0 < regrid["direct_residual"] < 0.5
    assert 0.0 < regrid["filled_share"] < 0.5
    assert 0.0 < regrid["geometry_s"] <= report.timing["invert_I"]
    _, zero_refine = pwave_pipeline(sinos, params, grid, refine=0)
    assert zero_refine.stages["regrid"]["direct_residual"] is None
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    assert ReconReport.from_dict(json.loads(text)).stages["regrid"] == regrid


def test_regrid_record_outside_energy(grid, rng):
    # the share of m's energy off the ball, one masked norm: in [0, 1], and
    # the whole of it for m supported off the ball only
    R = inc_potential(random_bump_sym(grid, rng, radius=0.55))
    sinos = [longitudinal_transform(R, f) for f in build_line_families(grid, 24, 24)]
    m, info = invert_I_solenoidal(sinos, grid)
    off = ~grid.domain_mask()
    energy = np.sum(SYM_MULT * m.values**2, axis=-1)
    assert 0.0 < info["outside_energy"] < 1.0
    assert info["outside_energy"] == pytest.approx(energy[off].sum() / energy.sum(), rel=1e-12)


# ---------------------------------------------------------------------------
# trace-free truncated-transverse inversion


def test_invert_K_zero_data(grid):
    fam = build_sphere_family(grid, 12)
    zero = SymField2(grid, np.zeros(grid.dims + (6,)))
    kd = kdata_transform(zero, fam)
    F, info = invert_K_tracefree(kd, grid)
    assert np.max(np.abs(F.values)) == 0.0
    assert info["iterations"] == 0 and info["residuals"] == [] and info["normal_s"] == 0.0
    assert info["precond_s"] == 0.0


def test_invert_K_output_trace_free(grid, rng):
    # the unknowns are the ball's nodes: the record counts them and the
    # operator's entries on them, and F is exactly zero off them
    fam = build_sphere_family(grid, 12)
    F0 = random_smooth_sym(grid, rng)
    kd = kdata_transform(F0, fam)
    F, info = invert_K_tracefree(kd, grid, tol=1e-2, maxiter=50)
    tr = F.values[..., :3].sum(-1)
    assert np.max(np.abs(tr)) < 1e-12 * max(F.max_abs(), 1e-300)
    assert len(info["residuals"]) == info["iterations"] > 0
    assert info["residual"] == info["residuals"][-1] <= 1e-2
    mask = grid.domain_mask()
    assert info["support_nodes"] == mask.sum() < mask.size
    assert info["operator_entries"] == FamilyOperator(fam, grid).entries
    assert 0 < info["operator_entries"] < FamilyOperator(fam, box_domain(grid)).entries
    assert not np.any(F.values[~mask]) and np.any(F.values[mask])


def test_kdata_blind_to_pure_trace(grid, rng):
    # isotropic fields produce no truncated-transverse data at all
    fam = build_sphere_family(grid, 12)
    phi = random_bump_sym(grid, rng, radius=0.7).values[..., 0]
    iso = SymField2(grid, phi[..., None] * identity_sym(grid).values)
    kd = kdata_transform(iso, fam)
    scale = np.max(np.abs(kdata_transform(random_smooth_sym(grid, rng), fam).values))
    assert np.max(np.abs(kd.values)) < 1e-10 * scale


def test_invert_K_runs_one_normal_pass_per_iteration(grid, rng, monkeypatch):
    # the right-hand side is the one backprojection; every iteration is one
    # fused K*K pass, and the x0 = 0 start costs none; the preconditioner
    # runs on the start's residual and after every iteration but the last
    calls = {"normal": 0, "kdata_adjoint": 0, "precondition": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(FamilyOperator, "normal", counted("normal", FamilyOperator.normal))
    monkeypatch.setattr(inversion, "kdata_adjoint", counted("kdata_adjoint", inversion.kdata_adjoint))
    build = inversion._ramp_preconditioner
    monkeypatch.setattr(inversion, "_ramp_preconditioner",
                        lambda *args: counted("precondition", build(*args)))
    fam = build_sphere_family(grid, 12)
    kd = kdata_transform(random_smooth_sym(grid, rng), fam)
    _, info = invert_K_tracefree(kd, grid, tol=1e-2, maxiter=50)
    n = info["iterations"]
    assert calls == {"normal": n, "kdata_adjoint": 1, "precondition": n}
    assert n > 0 and 0.0 < info["normal_s"] and 0.0 < info["precond_s"]


def test_invert_K_nonconvergence_raises(grid, rng):
    fam = build_sphere_family(grid, 12)
    kd = kdata_transform(random_smooth_sym(grid, rng), fam)
    with pytest.raises(RuntimeError, match="did not converge"):
        invert_K_tracefree(kd, grid, tol=1e-14, maxiter=2)


def test_invert_K_is_steady_under_rounding(grid):
    # swave's specimen: the truth and five copies perturbed by 1e-16 of its
    # largest value take the same CG path to solutions equal to far below
    # the solve's tolerance
    R = inc_potential(random_admissible_potential(grid, np.random.default_rng(11), r0=0.25)).values
    noise = np.random.default_rng(7)
    truths = [R] + [R + 1e-16 * np.max(np.abs(R)) * noise.standard_normal(R.shape)
                    for _ in range(5)]
    fam = build_sphere_family(grid, 30)
    runs = [invert_K_tracefree(kdata_transform(SymField2(grid, v), fam), grid) for v in truths]
    iterations = {info["iterations"] for _, info in runs}
    assert len(iterations) == 1 and iterations.pop() <= 70
    for F, _ in runs[1:]:
        assert rel(F.values, runs[0][0].values) < 1e-9


@pytest.mark.parametrize("n", [16, 15])
@pytest.mark.parametrize("nodes", ["ball", "all"])
def test_ramp_preconditioner_is_symmetric_positive(rng, n, nodes):
    # on the ball's nodes and on the whole grid, for even and odd lengths
    # (an even length's Nyquist bin has no conjugate partner)
    grid = Grid3.cube(n)
    support = grid.domain_mask() if nodes == "ball" else np.ones(grid.dims, bool)
    M = inversion._ramp_preconditioner(grid, support)
    for _ in range(3):
        x, z = rng.standard_normal((2, int(support.sum()), 5))
        Mx, Mz = M(x), M(z)
        assert Mx.shape == x.shape
        assert abs(np.sum(Mx * z) - np.sum(x * Mz)) <= 1e-12 * abs(np.sum(Mx * z))
        assert np.sum(Mx * x) > 0.0 and np.sum(Mz * z) > 0.0


# ---------------------------------------------------------------------------
# trace recovery


def _normalized_ldata(R, params, fams):
    sw = swave_weights(params)
    return [
        Sinogram(f, "lmatrix", mixed_transform(R, params, f).values / sw.scale)
        for f in fams
    ]


def test_recover_trace_nonunique_weight(grid):
    Ft = SymField2(grid, np.zeros(grid.dims + (6,)))
    with pytest.raises(NonUniqueError):
        recover_trace([], Ft, -2.0 / 3.0)


def test_recover_trace_needs_axis3_family(grid, rng):
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    fams = build_line_families(grid, 12, 16)
    R = random_bump_sym(grid, rng, radius=0.6)
    ldata = _normalized_ldata(R, params, fams[:2])
    Ft = SymField2(grid, np.zeros(grid.dims + (6,)))
    with pytest.raises(ValueError, match="axis 3"):
        recover_trace(ldata, Ft, swave_weights(params).a)


def test_recover_trace_needs_a_whole_grid_plane_stack(grid, rng):
    # slice j is read into grid plane j: slices shifted by half a step, or
    # on every second plane, are refused by the family's name
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    on = build_line_families(grid, 12, 16)[2]
    R = random_bump_sym(grid, rng, radius=0.6)
    tr = R.values[..., :3].sum(-1)
    Ft = SymField2(grid, R.values - (tr[..., None] / 3.0) * identity_sym(grid).values)
    for slices in (on.slices + 0.5 * grid.spacing[2], on.slices[::2]):
        fam = PlaneFamily(2, 12, 16, slices, on.center, on.radius, on.step)
        with pytest.raises(ValueError, match="family plane2"):
            recover_trace(_normalized_ldata(R, params, [fam]), Ft, swave_weights(params).a)


def test_recover_trace_on_trace_free_field(grid, rng):
    # consistent trace-free data with the exact deviatoric part: zero trace
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    fams = build_line_families(grid, 24, 24)
    R = random_bump_sym(grid, rng, radius=0.6)
    tr = R.values[..., :3].sum(-1)
    Ft = SymField2(grid, R.values - (tr[..., None] / 3.0) * identity_sym(grid).values)
    ldata = _normalized_ldata(Ft, params, fams)
    phi = recover_trace(ldata, Ft, swave_weights(params).a)
    assert np.max(np.abs(phi.values)) < 1e-10 * Ft.max_abs()


def test_recover_trace_round_trip_24():
    grid = Grid3.cube(24)
    rng = np.random.default_rng(7)
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    R = inc_potential(random_admissible_potential(grid, rng, r0=0.5))
    tr = R.values[..., :3].sum(-1)
    Ft = SymField2(grid, R.values - (tr[..., None] / 3.0) * identity_sym(grid).values)
    fams = build_line_families(grid, 96, 64)
    ldata = _normalized_ldata(R, params, fams[2:])
    phi = recover_trace(ldata, Ft, swave_weights(params).a)
    mask = grid.domain_mask()
    assert np.linalg.norm((phi.values - tr) * mask) < 0.08 * np.linalg.norm(tr * mask)


def test_recover_trace_inconsistent_split_warns(grid, rng):
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    fams = build_line_families(grid, 12, 16)
    R = random_bump_sym(grid, rng, radius=0.6)
    ldata = _normalized_ldata(R, params, [fams[2]])
    tr = R.values[..., :3].sum(-1)
    Ft = SymField2(grid, R.values - (tr[..., None] / 3.0) * identity_sym(grid).values)
    vals = ldata[0].values.copy()
    bump = 0.1 * np.max(np.abs(vals))
    vals[..., 0, 0] += bump
    vals[..., 1, 1] -= bump
    bad = ldata[0].copy_with("lmatrix", vals)
    with pytest.warns(UserWarning, match="polarization split"):
        recover_trace([bad], Ft, swave_weights(params).a)


def test_swave_pipeline_quick_start_defaults_converge(grid):
    # the README's shear quick start passes no CG tolerances; on the swave
    # benchmark geometry its defaults must stop CG, and they are the CLI's
    R = inc_potential(random_admissible_potential(grid, np.random.default_rng(11), r0=0.25))
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    fams = [build_sphere_family(grid, 30)] + build_line_families(grid, 24, 16)
    sinos = [rytov_family(R, params, f, scale=1e-3) for f in fams]
    rec, report = swave_pipeline(sinos, params, grid, 1e-3)
    cg = report.stages["cg"]
    assert 0 < cg["iterations"] <= CG_MAXITER and cg["residual"] <= CG_TOL
    assert 0.0 < cg["normal_s"] <= report.timing["invert_K"]
    assert np.linalg.norm(rec.values - R.values) / np.linalg.norm(R.values) <= 0.31
    tol = load_config()["tolerances"]
    assert (tol["cg_tol"], tol["cg_maxiter"]) == (CG_TOL, CG_MAXITER)


def test_swave_pipeline_family_mix(grid, rng):
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    fams = build_line_families(grid, 6, 16)
    R = random_bump_sym(grid, rng, radius=0.6)
    sinos = [rytov_family(R, params, f, scale=1e-3) for f in fams]
    with pytest.raises(ValueError, match="family"):
        swave_pipeline(sinos, params, grid, 1e-3)


def test_swave_pipeline_nonunique_trace_raises_before_the_solve(grid, rng, monkeypatch):
    # a = nu2 / nu4 = -2/3: the trace cannot be recovered, so the CG must not run
    params = MaterialParams(nu=(0.1, -0.2, 0.0, 0.3))
    fams = [build_sphere_family(grid, 8)] + build_line_families(grid, 6, 16)
    R = random_bump_sym(grid, rng, radius=0.6)
    sinos = [rytov_family(R, params, f, scale=1e-3) for f in fams]
    calls = []

    def solve(kdata, grid, **kwargs):
        calls.append(kdata)
        return SymField2(grid, np.zeros(grid.dims + (6,))), {}

    monkeypatch.setattr(inversion, "invert_K_tracefree", solve)
    with pytest.raises(NonUniqueError, match="a \\+ 2/3"):
        swave_pipeline(sinos, params, grid, 1e-3)
    assert calls == []


# ---------------------------------------------------------------------------
# energy-ratio check


def test_poincare_ratio_bounded(grid, rng):
    for _ in range(10):
        v = random_bump_covector(grid, rng, radius=0.8)
        ratio = verify_poincare(v)
        assert 0.0 < ratio <= 1.0


def test_poincare_zero_field(grid):
    from stresstomo.fields import CovectorField

    v = CovectorField(grid, np.zeros(grid.dims + (3,)))
    assert verify_poincare(v) == 0.0


def test_poincare_rejects_complex_field(grid, rng):
    v = random_bump_covector(grid, rng, radius=0.8)
    with pytest.raises(ValueError, match="real field"):
        verify_poincare(CovectorField(grid, v.values * (1.0 + 1.0j)))


def test_poincare_rejects_boundary_support(grid):
    from stresstomo.fields import CovectorField

    v = CovectorField(grid, np.ones(grid.dims + (3,)))
    with pytest.raises(ValueError, match="boundary"):
        verify_poincare(v)


# ---------------------------------------------------------------------------
# reports


def test_report_json_round_trip():
    rep = ReconReport(
        stages={"m_norm": 1.5},
        errors={"divergence_residual": 1e-9},
        conditions={"weak_fraction": 0.0},
        timing={"total": 2.5},
        config={"pipeline": "pwave", "a": 0.25},
    )
    back = ReconReport.from_dict(json.loads(json.dumps(rep.to_dict(), indent=2, sort_keys=True)))
    assert back.to_dict() == rep.to_dict()
