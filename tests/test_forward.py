import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresstomo import forward
from stresstomo.fields import (
    SYM_MULT,
    Grid3,
    ScalarField,
    SymField2,
    identity_sym,
    inner_derivative,
    null_space_witness,
    random_bump_sym,
    random_smooth_field,
    random_smooth_sym,
)
from stresstomo.forward import (
    FamilyOperator,
    Sinogram,
    _flow,
    _gather,
    _trapezoid,
    _generator_dyads,
    _kpair_dyads,
    _pwave_dyads,
    _shear_dyads,
    _sym2,
    _tangent_dyads,
    add_noise,
    born_reduce,
    kdata_adjoint,
    kdata_transform,
    longitudinal_transform,
    mixed_transform,
    pwave_data,
    rytov_family,
    truncated_reduce,
    unitarity_drift,
)
from stresstomo.geometry import (
    PlaneFamily,
    Ray,
    SphereFamily,
    _orthobasis,
    build_line_families,
    build_sphere_family,
    chord_nodes,
    trilinear,
)
from stresstomo.inversion import _DEV_BASIS, _coef_to_sym, _sym_to_coef, _trace_dyads
from stresstomo.material import ConditionError, MaterialParams, swave_weights

from reference import (
    box_domain,
    chord_crossings,
    crossing_samples,
    family_ray,
    line_ray,
    longitudinal_adjoint,
    longitudinal_rays,
    plane_corners,
    random_bump_scalar,
    random_smooth_covector,
    ray_integral_scalar,
    rytov_propagate,
    spectral_upsample,
    sym_inner,
    sym_qform,
    transverse_transform,
)


@pytest.fixture
def grid():
    return Grid3.cube(24)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _view_nodes(family, m):
    """Node points, direction, trapezoid weights and step of every chord of
    view m of a plane family, empty chords included."""
    starts, d, lengths = family.chords(m)
    pts, w, dt = chord_nodes(starts, d, lengths, family.n_nodes)
    return pts, d, w, dt


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# scalar and longitudinal transforms


def test_ray_integral_constant_field(grid):
    f = ScalarField(grid, np.ones(grid.dims))
    ray = line_ray((-1.0, 0, 0), (1.0, 0, 0), 2.0, step=0.02)
    assert ray_integral_scalar(f, ray) == pytest.approx(2.0, abs=2 * 0.02**2)
    z = ScalarField(grid, np.zeros(grid.dims))
    assert ray_integral_scalar(z, ray) == 0.0


def test_ray_integral_refinement_oracle(grid, rng):
    # once the step is well below the cell size, halving it again must not
    # move the integral: both quadratures see the same interpolant
    f = ScalarField(grid, random_smooth_field(grid, rng, 1, width=10.0)[..., 0])
    d = unit([1.0, 0.05, 0.1])
    ray = line_ray((-1.0, 0.21, -0.13), d, 1.9, step=0.0025)
    fine = line_ray((-1.0, 0.21, -0.13), d, 1.9, step=0.00125)
    assert ray_integral_scalar(f, ray) == pytest.approx(
        ray_integral_scalar(f, fine), abs=1e-6 * max(abs(ray_integral_scalar(f, fine)), 1.0)
    )


def test_longitudinal_identity_diametral(grid):
    g = identity_sym(grid)
    ray = line_ray((-1.0, 0, 0), (1.0, 0, 0), 2.0, step=0.01)
    sino = longitudinal_rays(g, [ray])
    assert sino.values[0] == pytest.approx(2.0, abs=1e-3)


def test_longitudinal_kernel_potential_fields(grid, rng):
    v = random_smooth_covector(grid, rng)
    u = spectral_upsample(inner_derivative(v), 2)
    fams = build_line_families(grid, angles=6, offsets=24, step=min(grid.spacing) / 8)
    # this coarse grid settles near 1.3e-5 * scale; the strict 1e-5 bound is
    # enforced at production resolution in the acceptance suite
    bound = 5e-5 * np.max(np.abs(u.values)) * 2.0
    for fam in fams:
        assert np.max(np.abs(longitudinal_transform(u, fam).values)) <= bound


def test_longitudinal_family_matches_per_ray(grid, rng):
    u = random_bump_sym(grid, rng)
    fam = build_line_families(grid, angles=4, offsets=24)[2]
    sino = longitudinal_transform(u, fam)
    for a, o, si in [(0, 10, 12), (3, 15, 9), (2, 12, 12)]:
        ray = family_ray(fam, a, o, si)
        per_ray = longitudinal_rays(u, [ray]).values[0]
        assert sino.values[a, o, si] == pytest.approx(per_ray, abs=5e-4)


# ---------------------------------------------------------------------------
# compressional phase data


def params_with(nu, rho=1.0, vp=1.0, vs=None):
    mu = rho * (vs**2 if vs else (vp**2 / 3.0))
    lam = rho * vp**2 - 2 * mu
    return MaterialParams(lam=lam, mu=mu, rho=rho, nu=tuple(nu))


def test_pwave_zero_stress(grid):
    R = SymField2(grid, np.zeros(grid.dims + (6,)))
    fam = build_line_families(grid, angles=4, offsets=24)[0]
    assert np.all(pwave_data(R, params_with((0.1, 0.2, 0.3, 0.4)), fam).values == 0.0)


def test_pwave_collapses_to_longitudinal(grid, rng):
    R = random_bump_sym(grid, rng)
    fam = build_line_families(grid, angles=5, offsets=24)[1]
    p = params_with((0.3, -0.3, 0.0, 0.0))
    got = pwave_data(R, p, fam).values
    want = longitudinal_transform(R, fam).values
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


def test_pwave_two_route_assembly(grid, rng):
    from stresstomo.material import pwave_weights

    R = random_bump_sym(grid, rng)
    p = params_with((0.1, -0.05, 0.2, 0.3))
    w = pwave_weights(p)
    fams = build_line_families(grid, angles=5, offsets=24)
    trR = R.values[..., 0] + R.values[..., 1] + R.values[..., 2]
    m = w.scale * R.values.copy()
    m[..., :3] += (w.scale * w.a * trR)[..., None]
    u = SymField2(grid, m)
    for fam in fams:
        direct = pwave_data(R, p, fam)
        assembled = longitudinal_transform(u, fam)
        assert np.max(np.abs(direct.values - assembled.values)) <= 1e-10


def test_pwave_condition_failure(grid):
    R = SymField2(grid, np.zeros(grid.dims + (6,)))
    fam = build_line_families(grid, angles=4, offsets=24)[0]
    with pytest.raises(ConditionError):
        pwave_data(R, params_with((-2.0 / 3.0, 0.0, 0.0, 0.0)), fam)


def test_pwave_null_space_witness(grid, rng):
    # a = -1/2 (nu1+nu2+nu3+nu4 = -1): S(alpha g) is invisible to the data.
    # alpha is taken as a Laplacian so the potential part of S(alpha g) stays
    # compactly supported instead of carrying an inverse-square tail.
    p = params_with((-1.0, 0.0, 0.0, 0.0))
    R = spectral_upsample(null_space_witness(grid, rng, width=14.0), 2)
    h = min(grid.spacing)
    slices = np.linspace(-0.9, 0.9, 9)
    fams = [PlaneFamily(k, 6, 9, slices, (0, 0, 0), 1.0, h / 16) for k in range(3)]
    for fam in fams:
        assert np.max(np.abs(pwave_data(R, p, fam).values)) <= 5e-6


# ---------------------------------------------------------------------------
# transverse transform


def test_transverse_identity_field(grid):
    g = identity_sym(grid)
    ray = line_ray((-1.0, 0, 0), (1.0, 0, 0), 2.0, step=0.01)
    assert transverse_transform(g, ray, [0.0, 1.0, 0.0]) == pytest.approx(2.0, abs=1e-3)
    with pytest.raises(ValueError):
        transverse_transform(g, ray, [1.0, 0.0, 0.0])


def test_mixed_three_term_reassembly(grid, rng):
    # L_11 = s (J(R)(eta1) + I(R) + a * integral of tr R), each term from
    # the per-ray crossing reference
    R = random_bump_sym(grid, rng)
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)
    sw = swave_weights(p)
    fam = build_sphere_family(grid, directions=6, offsets=24)
    lm = mixed_transform(R, p, fam)
    trR = ScalarField(grid, R.values[..., 0] + R.values[..., 1] + R.values[..., 2])
    for m in (0, 3):
        e1, e2 = fam.views()[1][m]
        starts, d, lengths = fam.chords(m)
        want = np.zeros(lengths.shape)
        for idx in zip(*np.nonzero(lengths > 0.0)):
            _, vals, w, _ = crossing_samples(grid, R.values, starts[idx], d, lengths[idx])
            _, tr, _, _ = crossing_samples(grid, trR.values, starts[idx], d, lengths[idx])
            J11 = np.sum(sym_qform(vals, e1, e1) * w)
            I = np.sum(sym_qform(vals, d, d) * w)
            T = np.sum(tr * w)
            want[idx] = sw.scale * (J11 + I + sw.a * T)
        assert np.max(np.abs(lm.values[m][..., 0, 0] - want)) <= 1e-9


# ---------------------------------------------------------------------------
# Rytov propagator


def test_rytov_zero_stress_identity(grid):
    R = SymField2(grid, np.zeros(grid.dims + (6,)))
    p = params_with((0.0, 0.4, 0.0, 0.5), vs=1.0)
    ray = line_ray((-1.0, 0, 0), (1.0, 0, 0), 2.0, step=0.05)
    U = rytov_propagate(R, p, ray)
    assert np.allclose(U, np.eye(2), atol=1e-14)


def _constant_propagator(const, p, d, frame, length):
    """exp(-i L G) for the constant generator of a constant stress."""
    sw = swave_weights(p)
    e1, e2 = frame
    G = np.empty((2, 2))
    diag = sym_qform(const, d, d) + sw.a * (const[0] + const[1] + const[2])
    G[0, 0] = sw.scale * (sym_qform(const, e1, e1) + diag)
    G[1, 1] = sw.scale * (sym_qform(const, e2, e2) + diag)
    G[0, 1] = G[1, 0] = sw.scale * sym_qform(const, e1, e2)
    lam, V = np.linalg.eigh(G)
    return V @ np.diag(np.exp(-1j * length * lam)) @ V.conj().T


_CONST = np.array([0.31, -0.12, 0.05, 0.21, -0.07, 0.14])


def test_rytov_constant_generator_matrix_exponential(grid):
    # constant R over the box -> G constant -> U = exp(-i L G)
    vals = np.zeros(grid.dims + (6,))
    vals[:] = _CONST
    R = SymField2(grid, vals)
    p = params_with((0.0, 0.4, 0.0, 0.5), vs=1.0)
    ray = line_ray((-1.0, 0, 0), (1.0, 0, 0), 2.0, step=0.02)
    U = rytov_propagate(R, p, ray)
    want = _constant_propagator(_CONST, p, ray.tangents[0], ray.frames[0], 2.0)
    assert np.max(np.abs(U - want)) <= 1e-9


def test_rytov_constant_generator_short_last_step(grid):
    # a traced ray ends on the boundary with a short last interval; each
    # Magnus step is exact for constant G, whatever its length
    R = SymField2(grid, np.broadcast_to(_CONST, grid.dims + (6,)).copy())
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)
    length = 1.97
    tau = np.append(np.arange(0.0, length, 0.05), length)
    assert 0.0 < tau[-1] - tau[-2] < 0.025
    d = unit([1.0, 0.3, -0.2])
    frame = np.stack(_orthobasis(d))
    ray = Ray(
        -0.9 * d + tau[:, None] * d,
        np.broadcast_to(d, (len(tau), 3)).copy(),
        tau,
        np.broadcast_to(frame, (len(tau), 2, 3)).copy(),
    )
    U = rytov_propagate(R, p, ray, scale=2.0)
    want = _constant_propagator(2.0 * _CONST, p, d, frame, length)
    assert np.max(np.abs(U - want)) <= 1e-12


def test_rytov_family_unitarity(grid, rng):
    R = random_smooth_sym(grid, rng)
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)
    fam = build_sphere_family(grid, directions=8, offsets=24)
    sino = rytov_family(R, p, fam)
    assert sino.kind == "propagator"
    assert unitarity_drift(sino.values) <= 1e-8


def test_born_remainder_quadratic_slope(grid, rng):
    R = random_smooth_sym(grid, rng)
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)
    fam = build_sphere_family(grid, directions=6, offsets=16)
    lin = mixed_transform(R, p, fam)
    errs = []
    scales = [1e-2, 1e-3, 1e-4]
    eye = np.eye(2)
    for s in scales:
        U = rytov_family(R, p, fam, scale=s).values
        # full first-order remainder: U = E - i s L + O(s^2)
        errs.append(np.max(np.abs(U - eye + 1j * s * lin.values)))
    slopes = np.diff(np.log10(errs)) / np.diff(np.log10(scales))
    assert np.all(np.abs(slopes - 2.0) <= 0.1)
    # the real-part reduction cancels the second-order term as well, so the
    # extracted linear data converge at least one order faster
    born_errs = [
        np.max(np.abs(born_reduce(rytov_family(R, p, fam, scale=s)).values - s * lin.values))
        for s in scales
    ]
    born_slopes = np.diff(np.log10(born_errs)) / np.diff(np.log10(scales))
    assert np.all(born_slopes >= 2.5)


def test_born_direct_vs_frame_quadrature(grid, rng):
    # linear (Born) data equals the direct mixed quadrature at tiny scale
    R = random_smooth_sym(grid, rng)
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)
    fam = build_sphere_family(grid, directions=6, offsets=16)
    s = 1e-5
    born = born_reduce(rytov_family(R, p, fam, scale=s))
    lin = mixed_transform(R, p, fam, scale=s)
    assert np.max(np.abs(born.values - lin.values)) <= 1e-9


def test_rytov_family_unitary_at_large_scale(grid, rng):
    # the closed-form step is unitary to roundoff however strong the stress
    R = random_smooth_sym(grid, rng)
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)
    fam = build_sphere_family(grid, directions=6, offsets=16)
    sino = rytov_family(R, p, fam, scale=30.0)
    assert sino.drift == unitarity_drift(sino.values)
    assert sino.drift <= 1e-12
    assert np.max(np.abs(sino.values - np.eye(2))) > 1.0  # far from the Born regime
    with pytest.raises(RuntimeError, match="unitarity drift"):
        rytov_family(R, p, fam, scale=30.0, tol=-1.0)


def test_rytov_fourth_order_convergence(grid, rng):
    # a stress linear in x is reproduced exactly by trilinear sampling, so G
    # is linear along an x-ray and only the stepper's error remains; the
    # commutator term is what lifts the order from 2 to 4
    A, B = rng.normal(size=(2, 6))
    R = SymField2(grid, A + grid.coords()[..., :1] * B)
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)

    def propagate(steps):
        return rytov_propagate(R, p, line_ray((-1.0, 0, 0), (1.0, 0, 0), 2.0, 2.0 / steps), 3.0)

    ref = propagate(4096)
    errs = [np.max(np.abs(propagate(n) - ref)) for n in (8, 16, 32, 64)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 3.8), orders


def test_rytov_propagate_is_the_family_stepper(grid, rng):
    # one chord of a family, as a Ray, gives the family's record for it: a
    # plane chord at its equispaced nodes, a sphere chord at its crossings
    # with the samples and steps of the per-ray crossing reference
    R = random_smooth_sym(grid, rng)
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)
    fams = [build_sphere_family(grid, directions=6, offsets=16),
            build_line_families(grid, angles=8, offsets=24)[1]]
    for fam in fams:
        U = rytov_family(R, p, fam, scale=3.0).values
        m = 3
        starts, d, lengths = fam.chords(m)
        away = np.max(np.abs(U[m] - np.eye(2)), axis=(-2, -1))
        for flat in np.argsort(away, axis=None)[-3:]:  # the three strongest chords
            idx = np.unravel_index(flat, away.shape)
            if fam.kind == "sphere":
                pts, samples, _, steps = crossing_samples(grid, R.values, starts[idx], d,
                                                          lengths[idx])
                tau = np.r_[0.0, np.cumsum(steps)]
            else:
                pts, _, _, dt = _view_nodes(fam, m)
                pts, samples = pts[idx], None
                tau = dt[idx] * np.arange(len(pts))
            n = len(pts)
            ray = Ray(pts, np.broadcast_to(d, (n, 3)).copy(), tau,
                      np.broadcast_to(fam.views()[1][m], (n, 2, 3)).copy())
            assert np.max(np.abs(U[m][idx] - np.eye(2))) > 0.1
            got = rytov_propagate(R, p, ray, scale=3.0, samples=samples)
            assert np.max(np.abs(got - U[m][idx])) <= 1e-13


def _sequential_flow(G, h):
    """Reference stepper: every Magnus step as a complex 2x2 matrix with its
    phase, multiplied in order."""
    G1, G2 = G[..., :-1, :, :], G[..., 1:, :, :]
    M = 0.5 * h[..., None, None] * (G1 + G2)
    comm = (G1[..., 0, 1] * (G2[..., 0, 0] - G2[..., 1, 1])
            - G2[..., 0, 1] * (G1[..., 0, 0] - G1[..., 1, 1]))  # [G2, G1]_01
    hx, hy, hz = M[..., 0, 1], h**2 / 12.0 * comm, 0.5 * (M[..., 0, 0] - M[..., 1, 1])
    t = np.sqrt(hx**2 + hy**2 + hz**2)
    cos, sinc = np.cos(t), np.sinc(t / np.pi)
    step = np.stack(
        [
            np.stack([cos - 1j * sinc * hz, -sinc * (hy + 1j * hx)], axis=-1),
            np.stack([sinc * (hy - 1j * hx), cos + 1j * sinc * hz], axis=-1),
        ],
        axis=-2,
    ) * np.exp(-0.5j * (M[..., 0, 0] + M[..., 1, 1]))[..., None, None]
    U = np.broadcast_to(np.eye(2), G.shape[:-3] + (2, 2)).astype(complex)
    for i in range(step.shape[-3]):
        U = step[..., i, :, :] @ U
    return U


@pytest.mark.parametrize("batch", [(), (3,), (2, 5)])
@pytest.mark.parametrize("steps", [1, 2, 7, 16])
def test_flow_matches_sequential_product(batch, steps):
    # the pairwise quaternion product with the phase factored out is the
    # ordered product of the steps, for odd and even counts and any batch
    rng = np.random.default_rng(steps)
    g = rng.normal(size=batch + (steps + 1, 3))
    h = rng.uniform(0.02, 0.3, size=batch + (steps,))
    U = _flow(g, h)
    assert U.shape == batch + (2, 2)
    assert np.max(np.abs(U - _sequential_flow(_sym2(g), h))) <= 1e-13
    assert unitarity_drift(U) <= 1e-14
    if steps > 1:  # noncommuting steps: the order matters
        assert np.max(np.abs(U - _sequential_flow(_sym2(g[..., ::-1, :]), h[..., ::-1]))) > 1e-3


def test_flow_matches_sequential_product_at_large_scale(grid, rng):
    # chords of a plane view at stress scale 30, with their equispaced steps
    R = random_smooth_sym(grid, rng)
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)
    fam = build_line_families(grid, angles=8, offsets=24)[0]
    pts, d, w, dt = _view_nodes(fam, 5)
    D = SYM_MULT * _shear_dyads(p, 30.0)(d, fam.views()[1][5])
    g = np.einsum("...c,kc->...k", trilinear(grid, R.values, pts), D)
    h = np.broadcast_to(dt[..., None], dt.shape + (pts.shape[-2] - 1,))
    U, want = _flow(g, h), _sequential_flow(_sym2(g), h)
    assert np.max(np.abs(want - np.eye(2))) > 1.0
    assert np.max(np.abs(U - want)) <= 1e-13


def test_empty_chord_records_are_exact(grid, rng):
    # chords that miss the ball are not sampled: their records are exactly
    # zero, or exactly the identity propagator
    R = random_smooth_sym(grid, rng)  # nonzero outside the ball as well
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)
    fams = [build_line_families(grid, angles=6, offsets=24)[2],
            build_sphere_family(grid, directions=4, offsets=20)]
    for fam in fams:
        empty = np.stack([fam.chords(m)[2] == 0.0 for m in range(fam.n_views)])
        assert 0 < np.count_nonzero(empty) < empty.size
        for vals in (pwave_data(R, p, fam).values, mixed_transform(R, p, fam).values,
                     kdata_transform(R, fam).values):
            assert np.all(vals[empty] == 0.0)
            assert np.any(vals[~empty] != 0.0)
        U = rytov_family(R, p, fam, scale=3.0).values
        assert np.all(U[empty] == np.eye(2))


def test_batched_dyad_tables_match_per_view_tables(grid):
    # every table is evaluated once on the stacked views; each view's rows
    # are bit for bit the table of that view alone
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)
    tables = [_tangent_dyads, _kpair_dyads, _pwave_dyads(p), _shear_dyads(p, 3.0),
              functools.partial(_generator_dyads, a=0.3), functools.partial(_trace_dyads, a=0.3)]
    for fam in (build_line_families(grid, angles=6, offsets=24)[1],
                build_sphere_family(grid, directions=7, offsets=8)):
        dirs, frames = fam.views()
        for dyads in tables:
            batched = dyads(dirs, frames)
            assert batched.shape[0] == fam.n_views
            for m in range(fam.n_views):
                alone = np.asarray(dyads(dirs[m], frames[m]))
                assert batched[m].tobytes() == alone.tobytes()


# ---------------------------------------------------------------------------
# truncated reduction (K-data)


def test_truncated_kills_pure_trace(grid, rng):
    phi = random_bump_scalar(grid, rng)
    vals = np.zeros(grid.dims + (6,))
    vals[..., :3] = phi.values[..., None]
    p = params_with((0.0, 0.4, 0.0, 0.5), vs=1.0)
    fam = build_sphere_family(grid, directions=6, offsets=16)
    lm = mixed_transform(SymField2(grid, vals), p, fam)
    k = truncated_reduce(lm)
    assert np.max(np.abs(k.values)) <= 1e-12 * np.max(np.abs(lm.values))


def test_truncated_spin2_rotation(rng):
    L = rng.normal(size=(5, 2, 2))
    L = 0.5 * (L + np.swapaxes(L, -1, -2))
    k = truncated_reduce(Sinogram(None, "lmatrix", L)).values
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    Q = np.array([[c, -s], [s, c]])
    Lr = np.einsum("ja,njk,kb->nab", Q, L, Q)
    kr = truncated_reduce(Sinogram(None, "lmatrix", Lr)).values
    c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
    want_d = c2 * k[:, 0] + s2 * k[:, 1]
    want_o = -s2 * k[:, 0] + c2 * k[:, 1]
    assert np.max(np.abs(kr[:, 0] - want_d)) <= 1e-10
    assert np.max(np.abs(kr[:, 1] - want_o)) <= 1e-10
    mag = np.hypot(k[:, 0], k[:, 1])
    magr = np.hypot(kr[:, 0], kr[:, 1])
    assert np.max(np.abs(mag - magr)) <= 1e-10


def test_kdata_transform_matches_reduced_mixed(grid, rng):
    R = random_bump_sym(grid, rng)
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)
    sw = swave_weights(p)
    fam = build_sphere_family(grid, directions=6, offsets=16)
    via_mixed = truncated_reduce(mixed_transform(R, p, fam)).values
    direct = sw.scale * kdata_transform(R, fam).values
    assert np.max(np.abs(via_mixed - direct)) <= 1e-12 * np.max(np.abs(direct))


# ---------------------------------------------------------------------------
# adjoints


def test_longitudinal_adjoint_inner_product(grid, rng):
    fam = build_line_families(grid, angles=4, offsets=24)[0]
    F = SymField2(grid, rng.normal(size=grid.dims + (6,)))
    sino = longitudinal_transform(F, fam)
    s = rng.normal(size=sino.values.shape)
    lhs = float(np.sum(sino.values * s))
    rhs = sym_inner(F, longitudinal_adjoint(fam, s, grid))
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_kdata_adjoint_inner_product(grid, rng):
    fam = build_sphere_family(grid, directions=5, offsets=16)
    F = SymField2(grid, rng.normal(size=grid.dims + (6,)))
    kd = kdata_transform(F, fam)
    s = rng.normal(size=kd.values.shape)
    lhs = float(np.sum(kd.values * s))
    rhs = sym_inner(F, kdata_adjoint(FamilyOperator(fam, box_domain(grid)), s))
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_add_noise_scale(grid, rng):
    sino = Sinogram(None, "scalar", np.ones((50, 50)))
    noisy = add_noise(sino, 0.01, rng)
    dev = noisy.values - sino.values
    assert 0.005 <= np.std(dev) <= 0.015


# ---------------------------------------------------------------------------
# the contract-then-gather / scatter pair on random family geometries

_PAIR_GRID = Grid3.cube(8)
_PAIR_BOX = box_domain(_PAIR_GRID)  # operators on it keep every node


@st.composite
def random_families(draw, reach=0.95):
    offsets = draw(st.integers(1, 5))
    if draw(st.booleans()):
        step = draw(st.floats(0.04, 0.5))
        angles = draw(st.integers(1, 5))
        slices = np.linspace(-reach, reach, draw(st.integers(1, 4)))
        return PlaneFamily(draw(st.integers(0, 2)), angles, offsets, slices, (0, 0, 0), 1.0, step)
    return build_sphere_family(_PAIR_GRID, draw(st.integers(1, 6)), offsets)


def _all_components_then_contract(values, family, dyads):
    """Reference: interpolate all six components, contract per node; at a
    plane family's equispaced nodes, trilinearly, and at a sphere chord's
    crossings, per ray (crossing_samples)."""
    out = []
    for m in range(family.n_views):
        d, frame = family.views()[0][m], family.views()[1][m]
        D = SYM_MULT * dyads(d, frame)
        if family.kind == "plane":
            pts, _, w, _ = _view_nodes(family, m)
            out.append(np.einsum("...nc,kc,...n->...k", trilinear(_PAIR_GRID, values, pts), D, w))
            continue
        starts, _, lengths = family.chords(m)
        rec = np.zeros(lengths.shape + D.shape[:1])
        for idx in np.ndindex(lengths.shape):
            _, samples, w, _ = crossing_samples(_PAIR_GRID, values, starts[idx], d, lengths[idx])
            rec[idx] = np.einsum("nc,kc,n->k", samples, D, w)
        out.append(rec)
    return np.stack(out)


def _pair_dyads(which, a):
    return {
        "I": _tangent_dyads,
        "K": _kpair_dyads,
        "generator": functools.partial(_generator_dyads, a=a),
        "trace": functools.partial(_trace_dyads, a=a),
    }[which]


@settings(max_examples=40, deadline=None)
@given(
    family=random_families(),
    a=st.floats(-2.0, 2.0),
    which=st.sampled_from(["I", "K", "generator", "trace"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gather_scatter_pair_property(family, a, which, seed):
    dyads = _pair_dyads(which, a)
    rng = np.random.default_rng(seed)
    F = SymField2(_PAIR_GRID, rng.normal(size=_PAIR_GRID.dims + (6,)))
    got = _gather(F.values, _PAIR_GRID, family, dyads)
    want = _all_components_then_contract(F.values, family, dyads)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    y = rng.normal(size=got.shape)
    lhs = float(np.sum(got * y))
    rhs = sym_inner(F, FamilyOperator(family, _PAIR_BOX).adjoint(y, dyads))
    assert abs(lhs - rhs) <= 1e-10 * max(np.linalg.norm(got) * np.linalg.norm(y), 1e-300)


@settings(max_examples=40, deadline=None)
@given(
    family=random_families(reach=1.4),
    a=st.floats(-2.0, 2.0),
    which=st.sampled_from(["I", "K", "generator", "trace"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_family_operator_property(family, a, which, seed):
    # plane slices reach past the unit radius, so some chords miss the ball
    dyads = _pair_dyads(which, a)
    rng = np.random.default_rng(seed)
    F = SymField2(_PAIR_GRID, rng.normal(size=_PAIR_GRID.dims + (6,)))
    op = FamilyOperator(family, _PAIR_BOX)
    got = _gather(F.values, _PAIR_GRID, family, dyads)
    y = rng.normal(size=got.shape)
    back = op.adjoint(y, dyads)
    lhs = float(np.sum(got * y))
    assert abs(lhs - sym_inner(F, back)) <= 1e-10 * max(
        np.linalg.norm(got) * np.linalg.norm(y), 1e-300
    )
    # chords that miss the ball gather zero, and their data reach no node
    for m in range(family.n_views):
        empty = family.chords(m)[2] == 0.0
        assert not np.any(got[m][empty])
        y[m][empty] = 0.0
    assert op.adjoint(y, dyads).values.tobytes() == back.values.tobytes()
    again = FamilyOperator(family, _PAIR_BOX)
    assert again.entries == op.entries
    assert again.adjoint(y, dyads).values.tobytes() == back.values.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    family=random_families(reach=1.4),
    a=st.floats(-2.0, 2.0),
    which=st.sampled_from(["I", "K", "generator", "trace"]),
    support=st.sampled_from([None, "ball"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_family_operator_normal_pass_property(family, a, which, support, seed):
    # the fused pass is the adjoint of the gather on deviatoric coefficients,
    # also where chords miss the ball or leave the box; on the ball's nodes
    # it is the whole grid's pass on the zero extension, restricted to them;
    # symmetric and repeatable
    dyads = _pair_dyads(which, a)
    rng = np.random.default_rng(seed)
    whole = FamilyOperator(family, _PAIR_BOX)
    rows = (SYM_MULT * dyads(*family.views())) @ _DEV_BASIS.T
    if support is None:
        op = whole
        x, y = rng.normal(size=(2,) + _PAIR_GRID.dims + (5,))
        want = _sym_to_coef(op.adjoint(_gather(_coef_to_sym(x), _PAIR_GRID, family, dyads),
                                        dyads).values)
    else:
        mask = _PAIR_GRID.domain_mask()
        op = FamilyOperator(family, _PAIR_GRID)
        x, y = rng.normal(size=(2, op.size, 5))
        ext = np.zeros(_PAIR_GRID.dims + (5,))
        ext[mask] = x
        want = whole.normal(ext, rows)[mask]
        data = rng.normal(size=family.shape + rows.shape[-2:-1])
        back, full = op.adjoint(data, dyads).values, whole.adjoint(data, dyads).values
        assert np.max(np.abs(back - full * mask[..., None])) <= 1e-12 * np.max(
            np.abs(full), initial=1e-300)
    got = op.normal(x, rows)
    assert got.shape == want.shape == x.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want), initial=1e-300)
    ny = op.normal(y, rows)
    lhs, rhs = float(np.sum(y * got)), float(np.sum(x * ny))
    assert abs(lhs - rhs) <= 1e-12 * max(np.linalg.norm(x) * np.linalg.norm(ny), 1e-300)
    assert op.normal(x, rows).tobytes() == got.tobytes()


def test_family_operator_stores_twelve_bytes_per_entry(grid):
    # int32 nodes and float64 weights per entry, and per live chord its
    # index, entry count and first entry
    fams = [build_sphere_family(grid, 6, 16)] + build_line_families(grid, 6, 24)
    for fam, on in itertools.product(fams, [box_domain(grid), grid]):
        op = FamilyOperator(fam, on)
        chords = sum(len(v.rays) for v in op.views)
        total = sum(getattr(v, f.name).nbytes for v in op.views for f in dataclasses.fields(v))
        assert 0 < op.entries and total <= 12 * op.entries + 24 * chords


def test_sphere_operator_entries_are_crossing_corners():
    # at the swave size: within every chord the entries name distinct grid
    # nodes, at most 4 on each plane of the dominant axis, and only on the
    # planes the chord crosses (per-ray crossing reference)
    grid = Grid3.cube(16)
    fam = build_sphere_family(grid, 30)
    op = FamilyOperator(fam, box_domain(grid))
    crossings = 0
    for m, v in enumerate(op.views):
        starts, d, lengths = fam.chords(m)
        k = int(np.argmax(np.abs(d)))
        for ray, start, count in zip(v.rays, v.starts, v.counts):
            i = np.unravel_index(ray, lengths.shape)
            _, ts, _ = chord_crossings(grid, starts[i], d, lengths[i])
            planes = {int(np.rint((starts[i][k] + t * d[k] - grid.origin[k]) / grid.spacing[k]))
                      for t in ts}
            nodes = v.nodes[start : start + count]
            assert len(np.unique(nodes)) == count <= 4 * len(ts)
            on, per_plane = np.unique(np.unravel_index(nodes, grid.dims)[k], return_counts=True)
            assert set(on.tolist()) <= planes and np.all(per_plane <= 4)
            crossings += len(ts)
    assert op.entries > 3 * crossings


@pytest.mark.parametrize("crossed", [0, 1])
def test_sphere_chords_with_fewer_than_two_crossings_are_exact(grid, rng, crossed):
    # a ball of radius 0.4 h midway between two grid planes of every axis,
    # or around a grid node: every live chord crosses no plane, or at most
    # one, so its K record is exactly 0 and its propagator exactly the
    # identity, and the operator has no entry
    R = random_smooth_sym(grid, rng)
    p = params_with((0.1, 0.4, -0.2, 0.5), vs=1.0)
    h = grid.spacing[0]
    center = np.full(3, grid.axes()[0][12] - (0.0 if crossed else 0.5 * h))
    fam = SphereFamily(6, 8, center, 0.4 * h)
    for m in range(fam.n_views):
        starts, d, lengths = fam.chords(m)
        counts = {len(chord_crossings(grid, starts[i], d, lengths[i])[1])
                  for i in zip(*np.nonzero(lengths > 0.0))}
        assert counts <= {0, crossed} and crossed in counts
    assert np.all(kdata_transform(R, fam).values == 0.0)
    assert np.all(rytov_family(R, p, fam, scale=3.0).values == np.eye(2))
    assert FamilyOperator(fam, box_domain(grid)).entries == 0


# ---------------------------------------------------------------------------
# plane families: bilinear stencils within the grid planes


def _transforms(grid, R, family):
    p = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    lt = longitudinal_transform(R, family).values
    return {
        "pwave_data": pwave_data(R, p, family).values,
        "mixed_transform": mixed_transform(R, p, family, scale=2.0).values,
        "rytov_family": rytov_family(R, p, family, scale=2.0).values,
        "longitudinal_adjoint": longitudinal_adjoint(family, lt, grid).values,
    }


def test_plane_families_sample_bilinearly_within_trilinear_roundoff(grid, rng, monkeypatch):
    R = random_smooth_sym(grid, rng)
    fams = build_line_families(grid, angles=12, offsets=24)
    assert [f.grid_plane(grid) for f in fams] == [0, 1, 2]
    got = [_transforms(grid, R, f) for f in fams]
    monkeypatch.setattr(PlaneFamily, "grid_plane", lambda self, grid: None)
    for fam, four in zip(fams, got):
        eight = _transforms(grid, R, fam)
        for name, want in eight.items():
            err = np.max(np.abs(four[name] - want)) / np.max(np.abs(want))
            assert err <= 1e-13, (fam.axis, name, err)


def test_plane_family_gather_samples_through_trilinear(grid, rng, monkeypatch):
    # profilers time sampling by rebinding forward.trilinear: a grid-plane
    # family's gather calls it once per view, on in-plane points
    calls = []
    sample = forward.trilinear

    def counted(grid, values, points, *args, **kwargs):
        calls.append((np.shape(points)[-1], kwargs.get("plane")))
        return sample(grid, values, points, *args, **kwargs)

    fam = build_line_families(grid, angles=6, offsets=24)[1]
    assert fam.grid_plane(grid) == 1
    R = random_smooth_sym(grid, rng)
    p = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    want = pwave_data(R, p, fam).values
    monkeypatch.setattr(forward, "trilinear", counted)
    assert pwave_data(R, p, fam).values.tobytes() == want.tobytes()
    assert calls == [(2, 1)] * fam.n_views


def test_family_samples_a_grid_from_one_table(monkeypatch):
    # a family places its chords on a grid once: every later gather and
    # operator build reads the kept table, with the bytes of a fresh family;
    # another grid gets its own table.  The table keeps no per-corner
    # arrays: an int32 base index and two fractions per node, 20 bytes
    grid = Grid3.cube(16)
    R = random_smooth_sym(grid, np.random.default_rng(5))
    p = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    calls = []
    for cls in (PlaneFamily, SphereFamily):
        chords = cls.chords
        monkeypatch.setattr(cls, "chords", lambda self, m, f=chords: calls.append(m) or f(self, m))

    def fresh():
        return [build_sphere_family(grid, directions=6)] + build_line_families(grid, 5, 16)

    for fam, new in zip(fresh(), fresh()):
        want = rytov_family(R, p, new).values
        calls.clear()
        first = rytov_family(R, p, fam).values
        assert len(calls) == fam.n_views
        again = rytov_family(R, p, fam).values
        kdata_transform(R, fam)
        FamilyOperator(fam, grid)
        assert len(calls) == fam.n_views
        assert first.tobytes() == again.tobytes() == want.tobytes()
        FamilyOperator(fam, box_domain(grid))
        assert len(calls) == 2 * fam.n_views
        table = fam.sampling(grid)
        nodes = sum(np.prod(v.stencil.shape[:-1]) for v in table)
        per_node = sum(v.stencil.index.nbytes + sum(f.nbytes for f in v.stencil.frac)
                       for v in table) / nodes
        assert all(v.stencil.index.dtype == np.int32 and v.stencil.outside is None
                   for v in table)
        assert per_node == 20


def test_grid_plane_view_without_live_chords(grid, rng):
    # a ball of radius h/2 between the two middle grid planes: no chord
    # meets it, so none is sampled and every record is exact
    R = random_smooth_sym(grid, rng)
    on = build_line_families(grid, angles=4, offsets=24)[1]
    fam = PlaneFamily(1, 4, 2, on.slices, on.center, 0.5 * grid.spacing[1], on.step)
    assert fam.grid_plane(grid) == 1
    p = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    assert np.all(pwave_data(R, p, fam).values == 0.0)
    assert np.all(rytov_family(R, p, fam).values == np.eye(2))


def test_off_grid_plane_family_keeps_trilinear_stencil(grid, rng):
    # slices a third of a cell off the grid planes: no plane holds the chords
    R = random_smooth_sym(grid, rng)
    on = build_line_families(grid, angles=6, offsets=24)[2]
    slices = on.slices[::3] + grid.spacing[2] / 3.0
    fam = PlaneFamily(2, 6, 24, slices, on.center, on.radius, on.step)
    assert fam.grid_plane(grid) is None
    p = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    dyads = _pwave_dyads(p)
    want = []
    for m in range(fam.n_views):
        pts, d, w, _ = _view_nodes(fam, m)
        D = SYM_MULT * dyads(d, fam.views()[1][m])
        contracted = (R.values.reshape(-1, 6) @ D.T).reshape(grid.dims + (1,))
        want.append(np.sum(trilinear(grid, contracted, pts) * w[..., None], axis=-2))
    assert np.array_equal(pwave_data(R, p, fam).values, np.stack(want)[..., 0])


# ---------------------------------------------------------------------------
# the gather and the operator build against their first implementation


def _reference_stencil(grid, u, plane):
    """The mode-"zero" corner stencil as first written, at grid coordinates
    u (..., 3): clip, mask and floor all three axes of every node."""
    top = np.asarray(grid.dims) - 1
    outside = np.any((u < 0.0) | (u > top), axis=-1)
    u = np.clip(u, 0.0, top)
    i0 = np.minimum(u.astype(int), top - 1)
    if plane is not None:
        i0[..., plane] = np.rint(u[..., plane])
    _, ny, nz = grid.dims
    base = (i0[..., 0] * ny + i0[..., 1]) * nz + i0[..., 2]
    axes = [a for a in range(3) if a != plane]
    strides = [(ny * nz, nz, 1)[a] for a in axes]
    f = u - i0
    g = [np.stack([1.0 - f[..., a], f[..., a]]) for a in axes]
    g[0][:, outside] = 0.0
    for corner in itertools.product((0, 1), repeat=len(axes)):
        w = g[0][corner[0]]
        for ga, c in zip(g[1:], corner[1:]):
            w = w * ga[c]
        yield base + sum(c * s for c, s in zip(corner, strides)), w


def _reference_nodes(grid, family, m, live):
    """Grid coordinates (chords, n, 3) of a plane family's view m's live
    chords, from the point array built row-major, and their trapezoid
    weights and steps."""
    starts, d, lengths = family.chords(m)
    starts, lengths = starts.reshape(-1, 3)[live], lengths.ravel()[live]
    n = family.n_nodes
    pts = starts[..., None, :] + (lengths[..., None] * np.linspace(0.0, 1.0, n))[..., None] * d
    dt = lengths / (n - 1)
    w = np.repeat(dt[..., None], n, axis=-1)
    w[..., 0] *= 0.5
    w[..., -1] *= 0.5
    return (pts - np.asarray(grid.origin)) / np.asarray(grid.spacing), w, dt


def _empty_record(per_view, k):
    return per_view(np.zeros((1, k)), np.zeros(1), np.zeros(0))


def _reference_gather(values, grid, family, dyads, per_view=_trapezoid):
    flat = values.reshape(-1, 6)
    tables = SYM_MULT * dyads(*family.views())
    k = tables.shape[-2]
    empty = _empty_record(per_view, k)
    out = np.empty(family.shape + empty.shape, empty.dtype)
    plane = family.grid_plane(grid)
    for m, D in enumerate(tables):
        live = np.flatnonzero(family.chords(m)[2].ravel() > 0.0)
        u, w, dt = _reference_nodes(grid, family, m, live)
        contracted = (flat @ D.T).reshape(-1, k)
        samples = np.zeros(u.shape[:-1] + (k,))
        for idx, cw in _reference_stencil(grid, u, plane):
            samples += cw[..., None] * np.take(contracted, idx, axis=0)
        out[m] = empty
        out[m].reshape((-1,) + empty.shape)[live] = per_view(samples, w, dt[..., None])
    return out


def _live_chords(family, m):
    """Index tuples of view m's live chords, in flat order."""
    return list(zip(*np.nonzero(family.chords(m)[2] > 0.0)))


def _reference_crossing_gather(values, grid, family, dyads, per_view=_trapezoid):
    """A sphere family's gather from the per-ray crossing reference, every
    chord padded by the family's rule to its view's largest crossing count."""
    flat = values.reshape(-1, 6)
    tables = SYM_MULT * dyads(*family.views())
    k = tables.shape[-2]
    empty = _empty_record(per_view, k)
    out = np.empty(family.shape + empty.shape, empty.dtype)
    for m, D in enumerate(tables):
        starts, d, lengths = family.chords(m)
        contracted = (flat @ D.T).reshape(grid.dims + (k,))
        live = _live_chords(family, m)
        pad = max([len(chord_crossings(grid, starts[i], d, lengths[i])[1]) for i in live] + [1])
        out[m] = empty
        if live:
            recs = [crossing_samples(grid, contracted, starts[i], d, lengths[i], pad) for i in live]
            _, samples, w, steps = (np.stack(a) for a in zip(*recs))
            out[m][lengths > 0.0] = per_view(samples, w, steps)
    return out


def _reference_view_stencils(family, grid):
    """A plane family's unmerged entries per view: every node's corners of
    nonzero weight, ordered by chord, node, corner."""
    size = int(np.prod(grid.dims))
    plane = family.grid_plane(grid)
    for m in range(family.n_views):
        live = np.flatnonzero(family.chords(m)[2].ravel() > 0.0)
        u, w, _ = _reference_nodes(grid, family, m, live)
        corners = list(_reference_stencil(grid, u, plane))
        keys = np.stack([idx for idx, _ in corners], axis=-1) + live[:, None, None] * size
        wts = np.stack([cw * w for _, cw in corners], axis=-1)
        keep = wts != 0.0
        keys, wts = keys[keep], wts[keep]
        rays, counts = np.unique(keys // size, return_counts=True)
        yield rays, counts, (keys % size).astype(np.int32), wts


def _reference_crossing_stencils(family, grid):
    """A sphere family's entries per view from the per-ray crossing
    reference: per live chord, the corners of nonzero weight of each
    crossing (plane_corners), in chord order."""
    for m in range(family.n_views):
        starts, d, lengths = family.chords(m)
        rays, counts, nodes, weights = [], [], [], []
        for i in _live_chords(family, m):
            k, _, _ = chord_crossings(grid, starts[i], d, lengths[i])
            pts, _, w, _ = crossing_samples(grid, np.zeros(grid.dims), starts[i], d, lengths[i])
            entries = [(np.ravel_multi_index(node, grid.dims), cw * wn)
                       for p, wn in zip(pts, w) for node, cw in plane_corners(grid, p, k)]
            entries = [e for e in entries if e[1] != 0.0]
            if entries:
                rays.append(np.ravel_multi_index(i, lengths.shape))
                counts.append(len(entries))
                nodes += [e[0] for e in entries]
                weights += [e[1] for e in entries]
        yield (np.asarray(rays, dtype=np.intp), np.asarray(counts, dtype=np.intp),
               np.asarray(nodes, dtype=np.int32), np.asarray(weights, dtype=float))


def test_gather_and_operator_match_reference_bytes():
    # whole grid-plane stacks, an off-grid plane family, a family on every
    # third grid plane plus one slice below the box, a sphere family, and
    # families reaching past the grid box, whose outside nodes read the zero
    # extension; plane families against their first implementation, sphere
    # families against the per-ray crossing reference
    grid = Grid3.cube(16)
    R = random_smooth_sym(grid, np.random.default_rng(3))
    on = build_line_families(grid, angles=5, offsets=16)
    off = PlaneFamily(2, 5, 16, on[2].slices[::3] + grid.spacing[2] / 3.0,
                      on[2].center, on[2].radius, on[2].step)
    some = PlaneFamily(0, 5, 16, np.r_[on[0].slices[0] - grid.spacing[0], on[0].slices[1::3]],
                       on[0].center, 1.3, on[0].step)
    sphere = build_sphere_family(grid, directions=5)
    wide_plane = PlaneFamily(1, 5, 9, on[1].slices, on[1].center, 1.6, on[1].step)
    wide_sphere = SphereFamily(5, 9, sphere.center, 1.6)
    fams = on + [off, some, sphere, wide_plane, wide_sphere]
    assert [f.grid_plane(grid) for f in fams] == [0, 1, 2, None, None, None, 1, None]
    lo, hi = grid.box()
    for wide in fams[-2:]:
        starts, d, lengths = wide.chords(0)
        far = starts + lengths[..., None] * d
        assert np.any((far < lo) | (far > hi))
    # live chords in the slice below the box read the zero extension
    assert np.any(some.chords(0)[2][:, 0] > 0.0)
    assert np.all(_gather(R.values, grid, some, _kpair_dyads)[:, :, 0] == 0.0)
    p = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    inside = grid.domain_mask()

    def rytov(g, w, steps):
        return _flow(g, steps)

    for fam in fams:
        sphere_family = fam.kind == "sphere"
        gather = _reference_crossing_gather if sphere_family else _reference_gather
        stencils = _reference_crossing_stencils if sphere_family else _reference_view_stencils
        for dyads, per_view in [(_pwave_dyads(p), _trapezoid), (_kpair_dyads, _trapezoid),
                                (_shear_dyads(p, 2.0), rytov)]:
            got = _gather(R.values, grid, fam, dyads, per_view)
            want = gather(R.values, grid, fam, dyads, per_view)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        op = FamilyOperator(fam, box_domain(grid))
        for v, want in zip(op.views, stencils(fam, grid), strict=True):
            for got, ref in zip((v.rays, v.counts, v.nodes, v.weights), want):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        # on the ball's nodes: the whole grid's entries there, weights to the
        # byte, nodes numbered over the ball
        ball = FamilyOperator(fam, grid)
        for v, w in zip(ball.views, op.views, strict=True):
            keep = inside.ravel()[w.nodes]
            assert v.weights.tobytes() == w.weights[keep].tobytes()
            assert v.nodes.dtype == np.int32
            assert np.array_equal(v.nodes, np.cumsum(inside)[w.nodes[keep]] - 1)
            assert np.array_equal(v.rays, np.unique(np.repeat(w.rays, w.counts)[keep]))
