import numpy as np
import pytest

from stresstomo import cli, fields
from stresstomo.cli import EXIT_OK, cmd_verify, load_config
from stresstomo.fields import (
    SYM_PAIRS,
    SYM_SLOT,
    CovectorField,
    Domain,
    Grid3,
    ScalarField,
    SymField2,
    _gradient_nd,
    _half_spectrum,
    _nyquist_mask,
    bump_profile,
    divergence,
    divergence_norm,
    identity_sym,
    inc_potential,
    inner_derivative,
    matrix_to_sym,
    random_bump_sym,
    solenoidal_project,
    spectral_gradient,
    sym_to_matrix,
    tangential_projector,
    trig_upsample,
)
from stresstomo.inversion import verify_poincare
from stresstomo.io import read_report

from reference import (
    full_nyquist_mask,
    full_wavevectors,
    random_bump_covector,
    random_bump_scalar,
    spectral_upsample,
    sym_inner,
    trace,
)


@pytest.fixture(scope="module")
def grid():
    return Grid3.cube(32, halfwidth=1.2, ball_radius=1.0)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


def analytic_covector(x):
    """Analytic covector field decaying to ~1e-13 at the box edge (halfwidth 1.2)."""
    g = np.exp(-20.0 * np.sum(x * x, axis=-1))
    return np.stack(
        [
            g * np.sin(1.3 * x[..., 0] + 0.2),
            g * x[..., 1] * x[..., 2],
            g * np.cos(x[..., 0] - 0.7 * x[..., 2]),
        ],
        axis=-1,
    )


def smooth_covector(grid):
    return CovectorField(grid, analytic_covector(grid.coords()))


def cstep_partial(fun, x0, j, k, h=1e-30):
    """Complex-step derivative d_j fun_k at a point: exact to machine precision."""
    xc = x0.astype(complex).copy()
    xc[j] += 1j * h
    return np.imag(fun(xc[None, :])[0, k]) / h


_C8_SECOND = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560])
_C8_FIRST = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])


def centered_inner_derivative(v):
    """Reference for inner_derivative from np.gradient's centered differences."""
    parts = [np.gradient(v.values, h, axis=i) for i, h in enumerate(v.grid.spacing)]
    return matrix_to_sym(np.stack(parts, axis=-1))  # (...,k,j) = d_j v_k, symmetrized


def fd2_point(fun, x0, j, k, comp, h=0.012):
    """8th-order finite-difference second derivative d_j d_k fun_comp at a point."""
    ej, ek = np.eye(3)[j], np.eye(3)[k]
    if j == k:
        pts = np.array([x0 + (i - 4) * h * ej for i in range(9)])
        return np.dot(_C8_SECOND, fun(pts)[:, comp]) / h**2
    vals = np.zeros(9)
    for a in range(9):
        pts = np.array([x0 + (a - 4) * h * ej + (b - 4) * h * ek for b in range(9)])
        vals[a] = np.dot(_C8_FIRST, fun(pts)[:, comp]) / h
    return np.dot(_C8_FIRST, vals) / h


# ---------------------------------------------------------------------------
# grid / storage


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid3((4, 32, 32), (0.1, 0.1, 0.1), (0, 0, 0))
    with pytest.raises(ValueError):
        Grid3.cube(16, halfwidth=0.9, ball_radius=1.0)  # ball pokes out of the box


def test_sym_matrix_round_trip(rng):
    v = rng.normal(size=(4, 4, 4, 6))
    assert np.allclose(matrix_to_sym(sym_to_matrix(v)), v)


@pytest.mark.parametrize("n", [7, 8])
def test_trig_upsample_keeps_samples_and_trig_polynomials(n):
    # a trigonometric polynomial the n samples resolve, with the cos part of
    # the Nyquist mode for even n, is reproduced on the fine grid
    def f(x):
        top = (n - 1) // 2
        return 1.0 + np.cos(top * x) + 0.5 * np.sin(top * x) + 0.3 * np.cos(n / 2 * x) * (n % 2 == 0)

    factor = 3
    x = 2.0 * np.pi * np.arange(n) / n
    xf = 2.0 * np.pi * np.arange(factor * n) / (factor * n)
    vals = np.stack([f(x), -2.0 * f(x)], axis=-1)
    fine = trig_upsample(vals, factor, axis=0)
    assert fine.shape == (factor * n, 2)
    assert np.max(np.abs(fine[::factor] - vals)) <= 1e-13
    assert np.max(np.abs(fine[:, 0] - f(xf))) <= 1e-13
    rng = np.random.default_rng(n)
    v = rng.standard_normal((3, n))
    assert np.max(np.abs(trig_upsample(v, 4, axis=-1)[:, ::4] - v)) <= 1e-13


@pytest.mark.parametrize("n", [9, 10])
def test_spectral_upsample_keeps_coarse_nodes(n, rng):
    grid = Grid3.cube(n)
    u = SymField2(grid, rng.standard_normal(grid.dims + (6,)))
    fine = spectral_upsample(u, 2)
    assert fine.grid.dims == (2 * n,) * 3
    assert np.allclose(fine.grid.spacing, np.asarray(grid.spacing) / 2)
    assert np.max(np.abs(fine.values[::2, ::2, ::2] - u.values)) <= 1e-12


def test_spectral_upsample_nyquist_mode_is_separable():
    # v = (-1)^(i+j) is cos(pi x / h) cos(pi y / h), which vanishes halfway
    # between the coarse nodes along x or y
    grid = Grid3.cube(8)
    i = np.arange(8)
    v = ScalarField(grid, np.broadcast_to(((-1.0) ** (i[:, None] + i[None, :]))[..., None], grid.dims))
    fine = spectral_upsample(v, 2).values
    c = np.cos(np.pi * np.arange(16) / 2)
    assert np.max(np.abs(fine - c[:, None, None] * c[None, :, None])) <= 1e-12
    assert abs(fine[1, 1, 0]) <= 1e-12


# ---------------------------------------------------------------------------
# inner derivative


def test_inner_derivative_zero(grid):
    v = CovectorField(grid, np.zeros(grid.dims + (3,)))
    assert np.all(inner_derivative(v).values == 0.0)


def test_inner_derivative_linear_field(grid, rng):
    a = rng.normal(size=(3, 3))
    x = grid.coords()
    v = CovectorField(grid, np.einsum("kj,...j->...k", a, x))
    dv = centered_inner_derivative(v)
    sym = matrix_to_sym(0.5 * (a + a.T))
    interior = dv[1:-1, 1:-1, 1:-1]
    assert np.max(np.abs(interior - sym)) <= 1e-10


def test_inner_derivative_matches_pointwise_oracle():
    grid = Grid3.cube(40, halfwidth=1.2, ball_radius=1.0)
    v = smooth_covector(grid)
    dv = inner_derivative(v).values
    scale = np.max(np.abs(dv))
    x = grid.coords()
    for idx in [(22, 19, 21), (20, 20, 20), (17, 23, 18)]:
        x0 = x[idx]
        for s, (j, k) in enumerate(SYM_PAIRS := [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)]):
            want = 0.5 * (
                cstep_partial(analytic_covector, x0, j, k)
                + cstep_partial(analytic_covector, x0, k, j)
            )
            assert abs(dv[idx][s] - want) <= 1e-10 * scale


def test_inner_derivative_spectral_close_to_centered(grid):
    v = smooth_covector(grid)
    a = inner_derivative(v).values
    b = centered_inner_derivative(v)
    scale = np.max(np.abs(a))
    assert np.median(np.abs(a - b)) <= 2e-2 * scale


# ---------------------------------------------------------------------------
# divergence and trace


def test_divergence_constant_tensor(grid):
    u = identity_sym(grid, 2.5)
    u.values[..., 5] = 1.0
    dv = divergence(u).values
    assert np.max(np.abs(dv[1:-1, 1:-1, 1:-1])) <= 1e-12


def test_divergence_of_dv_matches_second_difference_oracle():
    grid = Grid3.cube(40, halfwidth=1.2, ball_radius=1.0)
    v = smooth_covector(grid)
    got = divergence(inner_derivative(v)).values
    scale = np.max(np.abs(got))
    x = grid.coords()
    # oracle: (delta dv)_j = (Lap v_j + d_j div v) / 2 via 8th-order stencils
    for idx in [(22, 19, 21), (19, 21, 20)]:
        x0 = x[idx]
        for j in range(3):
            lap = sum(fd2_point(analytic_covector, x0, a, a, j) for a in range(3))
            ddiv = sum(fd2_point(analytic_covector, x0, j, a, a) for a in range(3))
            assert abs(got[idx][j] - 0.5 * (lap + ddiv)) <= 1e-8 * scale


def test_trace_identity(grid):
    u = identity_sym(grid)
    assert np.allclose(trace(u).values, 3.0)


def test_trace_matches_direct_sum(grid, rng):
    u = random_bump_sym(grid, rng)
    tr = trace(u).values
    nodes = rng.integers(0, 32, size=(100, 3))
    for i, j, k in nodes:
        assert tr[i, j, k] == pytest.approx(u.values[i, j, k, :3].sum(), abs=1e-14)


# ---------------------------------------------------------------------------
# solenoidal projection


def test_projector_idempotent(grid, rng):
    u = random_bump_sym(grid, rng)
    su = solenoidal_project(u)
    ssu = solenoidal_project(su)
    assert SymField2(grid, ssu.values - su.values).norm() <= 1e-10 * u.norm()


def test_projector_kills_potential_fields(grid, rng):
    v = random_bump_covector(grid, rng, radius=0.6)
    dv = inner_derivative(v)
    assert solenoidal_project(dv).norm() <= 1e-8 * dv.norm()


def test_projector_orthogonality(grid, rng):
    u = random_bump_sym(grid, rng)
    v = random_bump_covector(grid, rng, radius=0.6)
    dv = inner_derivative(v)
    su = solenoidal_project(u)
    assert abs(sym_inner(su, dv)) <= 1e-8 * u.norm() * dv.norm()


def test_projected_field_is_divergence_free(grid, rng):
    u = random_bump_sym(grid, rng)
    su = solenoidal_project(u)
    assert divergence(su).norm() <= 1e-8 * u.norm() / min(grid.spacing)


def test_projection_of_scalar_times_identity(grid, rng):
    phi = random_bump_scalar(grid, rng)
    u = SymField2(grid, np.zeros(grid.dims + (6,)))
    u.values[..., :3] = phi.values[..., None]
    # hand algebra: P g P = P = eps, so S(phi g)^hat = phi_hat eps
    su_hat = np.fft.fftn(solenoidal_project(u).values, axes=(0, 1, 2))
    phi_hat = np.fft.fftn(phi.values, axes=(0, 1, 2))
    eps = matrix_to_sym(tangential_projector(*full_wavevectors(grid)))
    want = phi_hat[..., None] * eps
    band = ~full_nyquist_mask(grid)  # Nyquist planes are outside the projector's band
    scale = np.max(np.abs(phi_hat))
    assert np.max(np.abs(su_hat[band] - want[band])) <= 1e-9 * scale


def test_tangential_trace_is_two():
    y = np.mgrid[-3:4, -3:4, -3:4].astype(float)
    eps = tangential_projector(y[0], y[1], y[2])
    tr = np.trace(eps, axis1=-2, axis2=-1)
    nonzero = (y[0] != 0) | (y[1] != 0) | (y[2] != 0)
    assert np.all(tr[nonzero] == 2.0)


# ---------------------------------------------------------------------------
# incompatibility generator


def test_inc_zero(grid):
    a = SymField2(grid, np.zeros(grid.dims + (6,)))
    assert np.all(inc_potential(a).values == 0.0)


def test_inc_rejects_wide_support(grid):
    a = identity_sym(grid)
    with pytest.raises(ValueError):
        inc_potential(a)


def test_inc_divergence_free_and_supported(rng):
    grid = Grid3.cube(48, halfwidth=1.2, ball_radius=1.0)
    from stresstomo.fields import random_admissible_potential, support_margin

    a = random_admissible_potential(grid, rng)
    r = inc_potential(a)
    assert divergence(r).norm() <= 1e-8 * r.norm() / min(grid.spacing)
    edge = support_margin(r.values, grid, margin=2 * grid.spacing[0])
    assert edge <= 1e-6 * r.max_abs()


def test_inc_axis_aligned_potential_matches_symbolic_oracle():
    # A = phi(x) e3 x e3 with phi = exp(-w r^2):
    # R_jk = eps_j p q eps_k r 3 d_p d_r A_q3 ... only the (1,2) block survives:
    # R_11 = d2 d2 phi, R_22 = d1 d1 phi, R_12 = -d1 d2 phi, R_j3 = 0.
    grid = Grid3.cube(64, halfwidth=1.2, ball_radius=1.0)
    x = grid.coords()
    w = 40.0
    phi = np.exp(-w * np.sum(x * x, axis=-1))
    a = SymField2(grid, np.zeros(grid.dims + (6,)))
    a.values[..., 2] = phi
    r = inc_potential(a)
    d11 = (4 * w**2 * x[..., 0] ** 2 - 2 * w) * phi
    d22 = (4 * w**2 * x[..., 1] ** 2 - 2 * w) * phi
    d12 = 4 * w**2 * x[..., 0] * x[..., 1] * phi
    scale = np.max(np.abs(r.values))
    for idx in [(32, 32, 32), (35, 30, 33), (29, 34, 31)]:
        m = sym_to_matrix(r.values[idx])
        assert m[0, 0] == pytest.approx(d22[idx], abs=1e-6 * scale)
        assert m[1, 1] == pytest.approx(d11[idx], abs=1e-6 * scale)
        assert m[0, 1] == pytest.approx(-d12[idx], abs=1e-6 * scale)
        assert abs(m[2, 2]) <= 1e-6 * scale
        assert abs(m[0, 2]) <= 1e-6 * scale


def test_inc_moment_identity(grid, rng):
    # compactly supported divergence-free symmetric fields integrate to zero
    a = random_bump_sym(grid, rng, radius=0.6)
    r = inc_potential(a)
    total = np.sum(r.values, axis=(0, 1, 2)) * grid.cell_volume()
    assert np.max(np.abs(total)) <= 1e-8 * r.max_abs()


# ---------------------------------------------------------------------------
# half-spectrum operators against the full-spectrum implementations they replace

# even and odd lengths on the last (halved) axis, cubic and not
EQ_DIMS = [(16, 16, 16), (17, 17, 17), (16, 18, 20), (15, 18, 21)]


def ball_grid(dims):
    """Grid on [-1.2, 1.2]^3 with dims nodes per axis and the unit ball."""
    h = tuple(2.4 / n for n in dims)
    origin = tuple(-1.2 + 0.5 * s for s in h)
    return Grid3(tuple(dims), h, origin, Domain("ball", (0.0, 0.0, 0.0), 1.0))


def _reference_gradient_nd(values, grid):
    spec = np.fft.fftn(values, axes=(0, 1, 2))
    cols = []
    for k in full_wavevectors(grid):
        k = k.reshape(k.shape + (1,) * (values.ndim - 3))
        col = np.fft.ifftn(1j * k * spec, axes=(0, 1, 2))
        cols.append(col.real if np.isrealobj(values) else col)
    return np.stack(cols, axis=-1)


def _reference_inner_derivative(v):
    dv = _reference_gradient_nd(v.values, v.grid)
    return np.stack([0.5 * (dv[..., k, j] + dv[..., j, k]) for j, k in SYM_PAIRS], axis=-1)


def _reference_divergence(u):
    du = _reference_gradient_nd(u.values, u.grid)  # (...,s,i) = d_i u_s
    cols = [sum(du[..., SYM_SLOT[(j, k)], k] for k in range(3)) for j in range(3)]
    return np.stack(cols, axis=-1)


def _reference_solenoidal_project(u):
    """P uhat P with the 3x3 matrices, on the full spectrum."""
    grid = u.grid
    eps = tangential_projector(*full_wavevectors(grid))
    spec = matrix_to_sym(eps @ sym_to_matrix(np.fft.fftn(u.values, axes=(0, 1, 2))) @ eps)
    spec[full_nyquist_mask(grid)] = 0.0  # y = 0 is already zero: eps vanishes there
    return np.fft.ifftn(spec, axes=(0, 1, 2)).real


_LEVI = np.zeros((3, 3, 3))
for _p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _LEVI[_p] = 1.0
for _p in [(0, 2, 1), (2, 1, 0), (1, 0, 2)]:
    _LEVI[_p] = -1.0


def _reference_inc_potential(a):
    """R_hat_jk = - eps_jpq eps_krs y_p y_r A_hat_qs on the full spectrum."""
    spec = sym_to_matrix(np.fft.fftn(a.values, axes=(0, 1, 2)))
    y = np.stack(full_wavevectors(a.grid), axis=-1)
    rhat = -np.einsum("jpq,krs,...p,...r,...qs->...jk", _LEVI, _LEVI, y, y, spec, optimize=True)
    return np.fft.ifftn(matrix_to_sym(rhat), axes=(0, 1, 2)).real


def assert_close(got, want, tol=1e-13):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("dims", EQ_DIMS)
def test_half_spectrum_wavevectors_and_parseval(dims):
    grid = ball_grid(dims)
    f = np.random.default_rng(1).standard_normal(dims + (2,))
    spec, ys, weights = _half_spectrum(f, grid)
    m3 = dims[2] // 2 + 1
    assert spec.shape == dims[:2] + (m3, 2)
    full = np.fft.fftn(f, axes=(0, 1, 2))[:, :, :m3]
    assert np.max(np.abs(spec - full)) <= 1e-12 * np.max(np.abs(full))
    for y, full in zip(np.broadcast_arrays(*ys), full_wavevectors(grid)):
        assert np.array_equal(y, full[:, :, :m3])
    assert np.array_equal(_nyquist_mask(grid), full_nyquist_mask(grid)[:, :, :m3])
    power = np.sum(np.abs(spec) ** 2, axis=-1)
    assert abs(np.sum(weights * power) / np.prod(dims) - np.sum(f**2)) <= 1e-12 * np.sum(f**2)


@pytest.mark.parametrize("dims", EQ_DIMS)
def test_gradient_matches_full_spectrum_reference(dims):
    grid = ball_grid(dims)
    rng = np.random.default_rng(2)
    u = random_bump_sym(grid, rng, radius=0.6)
    assert_close(_gradient_nd(u.values, grid), _reference_gradient_nd(u.values, grid))
    phi = random_bump_scalar(grid, rng)
    assert_close(spectral_gradient(phi).values, _reference_gradient_nd(phi.values, grid))


@pytest.mark.parametrize("dims", EQ_DIMS)
def test_inner_derivative_matches_full_spectrum_reference(dims):
    grid = ball_grid(dims)
    v = random_bump_covector(grid, np.random.default_rng(3), radius=0.8)
    assert_close(inner_derivative(v).values, _reference_inner_derivative(v))


@pytest.mark.parametrize("dims", EQ_DIMS)
def test_divergence_matches_full_spectrum_reference(dims):
    grid = ball_grid(dims)
    u = random_bump_sym(grid, np.random.default_rng(4), radius=0.6)
    want = _reference_divergence(u)
    assert_close(divergence(u).values, want)
    ref_norm = CovectorField(grid, want).norm()
    assert abs(divergence_norm(u) - ref_norm) <= 1e-12 * ref_norm


@pytest.mark.parametrize("dims", EQ_DIMS)
def test_solenoidal_project_matches_full_spectrum_reference(dims):
    grid = ball_grid(dims)
    u = random_bump_sym(grid, np.random.default_rng(5), radius=0.6)
    assert_close(solenoidal_project(u).values, _reference_solenoidal_project(u))


@pytest.mark.parametrize("dims", EQ_DIMS)
def test_inc_potential_matches_full_spectrum_reference(dims):
    grid = ball_grid(dims)
    a = random_bump_sym(grid, np.random.default_rng(6), radius=0.55)
    assert_close(inc_potential(a).values, _reference_inc_potential(a))


def test_spectral_operators_reject_complex_fields():
    grid = ball_grid((16, 18, 20))
    rng = np.random.default_rng(8)
    phi = random_bump_scalar(grid, rng)
    v = random_bump_covector(grid, rng, radius=0.8)
    u = random_bump_sym(grid, rng, radius=0.55)
    for op, f in [(spectral_gradient, phi), (inner_derivative, v), (divergence, u),
                  (divergence_norm, u), (solenoidal_project, u), (inc_potential, u),
                  (verify_poincare, v)]:
        with pytest.raises(ValueError, match="real field"):
            op(type(f)(grid, f.values * (1.0 + 2.0j)))


# ---------------------------------------------------------------------------
# random test fields


def _power_bump_modulation(x, rng, degree=2):
    """Reference for fields._bump_modulation with the monomials taken as x ** exponents."""
    mod = np.zeros(x.shape[:-1])
    for _ in range(degree + 1):
        c = rng.normal(size=3)
        w = rng.normal()
        mod += w * np.prod(x ** rng.integers(0, degree + 1, size=3), axis=-1) + np.sin(
            x @ c * 2.0
        ) * rng.normal(scale=0.5)
    return mod


def _power_bump_scalar(grid, rng, radius=None, degree=2):
    """Reference: the bump modulation with the monomials taken as x ** exponents."""
    radius = radius or 0.75 * grid.domain.radius
    r2 = np.sum((grid.coords() - np.asarray(grid.domain.center)) ** 2, axis=-1)
    mod = _power_bump_modulation(grid.coords() / radius, rng, degree)
    return ScalarField(grid, bump_profile(r2, radius) * mod)


@pytest.mark.parametrize("degree", [0, 2, 4])
def test_random_bump_scalar_matches_power_formula(degree):
    grid = Grid3.cube(20)
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(5):
        got = random_bump_scalar(grid, a, radius=0.8, degree=degree).values
        want = _power_bump_scalar(grid, b, radius=0.8, degree=degree).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert a.bit_generator.state == b.bit_generator.state  # the same draws


@pytest.mark.parametrize("dims", [(20, 20, 20), (15, 18, 21)])
def test_random_bump_covector_is_three_scalar_draws(dims):
    grid = ball_grid(dims)
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    got = random_bump_covector(grid, a, radius=0.8).values
    want = np.stack([random_bump_scalar(grid, b, radius=0.8).values for _ in range(3)], axis=-1)
    assert np.array_equal(got, want)
    assert a.bit_generator.state == b.bit_generator.state


def test_verify_matches_power_formula_fields(tmp_path, monkeypatch):
    cfg = load_config(None)
    assert cmd_verify(cfg, str(tmp_path / "a")) == EXIT_OK
    got = read_report(str(tmp_path / "a" / "verify.json")).stages["poincare_max_ratio"]
    # the covector generator draws its modulations through _bump_modulation
    monkeypatch.setattr(fields, "_bump_modulation", _power_bump_modulation)
    assert cmd_verify(cfg, str(tmp_path / "b")) == EXIT_OK
    want = read_report(str(tmp_path / "b" / "verify.json")).stages["poincare_max_ratio"]
    assert abs(got - want) <= 1e-12


def _reference_random_bumps(grid, rng, ncomp, radius=None, degree=2):
    """Reference for fields._random_bumps: every modulation on every node of
    the grid, multiplied by the profile."""
    radius = radius or 0.75 * grid.domain.radius
    x = grid.coords()
    r2 = np.sum((x - np.asarray(grid.domain.center)) ** 2, axis=-1)
    chi = bump_profile(r2, radius)
    x = x / radius
    return np.stack([chi * fields._bump_modulation(x, rng, degree) for _ in range(ncomp)], axis=-1)


def _support_size(grid, radius):
    r2 = np.sum((grid.coords() - np.asarray(grid.domain.center)) ** 2, axis=-1)
    return int(np.count_nonzero(bump_profile(r2, radius)))


@pytest.mark.parametrize("dims", [(16, 16, 16), (17, 17, 17), (15, 18, 21)])
@pytest.mark.parametrize("radius", [0.05, 0.8, 3.0, None])
def test_random_bumps_equal_full_grid_reference(dims, radius):
    grid = ball_grid(dims)
    size = _support_size(grid, radius or 0.75)
    if radius == 0.05:
        assert size <= 1  # no node, or the center node alone
    elif radius == 3.0:
        assert size == np.prod(dims)  # the ball holds the whole box
    else:
        assert 0 < size < np.prod(dims)
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    for gen, ncomp in ((random_bump_scalar, 1), (random_bump_covector, 3), (random_bump_sym, 6)):
        for degree in (0, 2):
            got = gen(grid, a, radius=radius, degree=degree).values
            want = _reference_random_bumps(grid, b, ncomp, radius, degree)
            assert np.array_equal(got.reshape(want.shape), want)
            assert a.bit_generator.state == b.bit_generator.state


def test_bump_modulation_sees_only_the_support(monkeypatch, tmp_path):
    seen = []

    def recording(x, rng, degree=2):
        seen.append(x.shape)
        return _power_bump_modulation(x, rng, degree)

    monkeypatch.setattr(fields, "_bump_modulation", recording)
    grid = ball_grid((15, 18, 21))
    random_bump_covector(grid, np.random.default_rng(0), radius=0.8)
    assert seen == [(_support_size(grid, 0.8), 3)] * 3
    seen.clear()
    cfg = load_config(None)
    assert cmd_verify(cfg, str(tmp_path)) == EXIT_OK
    size = _support_size(Grid3.cube(cfg["grid"]["n"]), 0.8)
    assert size < cfg["grid"]["n"] ** 3 / 4
    assert seen == [(size, 3)] * 30


@pytest.mark.parametrize("n", [16, 24])
def test_verify_poincare_ratios_equal_ten_covector_draws(n, monkeypatch, tmp_path):
    got = []

    def recording(v):
        got.append(verify_poincare(v))
        return got[-1]

    monkeypatch.setattr(cli, "verify_poincare", recording)
    cfg = load_config(None)
    cfg["grid"]["n"] = n
    assert cmd_verify(cfg, str(tmp_path)) == EXIT_OK
    grid, rng = Grid3.cube(n), np.random.default_rng(cfg["seed"])
    want = [verify_poincare(random_bump_covector(grid, rng, radius=0.8)) for _ in range(10)]
    assert got == want
    assert read_report(str(tmp_path / "verify.json")).stages["poincare_max_ratio"] == max(want)
