import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresstomo.fields import Grid3, ScalarField
from stresstomo.material import (
    MaterialParams,
    c_from_R,
    check_pwave_conditions,
    check_variable_conditions,
    contraction_identity_residual,
    f_from_c,
    f_from_R,
    pwave_weights,
    swave_weights,
)


def random_sym(rng):
    m = rng.normal(size=(3, 3))
    return 0.5 * (m + m.T)


# ---------------------------------------------------------------------------
# rank-4 construction


def test_c_zero_stress():
    assert np.all(c_from_R(np.zeros((3, 3)), (1.0, 2.0, 3.0, 4.0)) == 0.0)


def test_c_identity_stress():
    n1, n2, n3, n4 = 0.3, -0.7, 1.1, 0.4
    c = c_from_R(np.eye(3), (n1, n2, n3, n4))
    d = np.eye(3)
    want = (3 * n1 + 2 * n3) * np.einsum("jk,lm->jklm", d, d) + (1.5 * n2 + n4) * (
        np.einsum("jl,km->jklm", d, d) + np.einsum("jm,kl->jklm", d, d)
    )
    assert np.allclose(c, want, atol=1e-14)


def test_c_rank_one_stress_hand_values():
    # R = e1 x e1, nu = (1,2,3,4): term-by-term hand evaluation
    R = np.outer([1.0, 0, 0], [1.0, 0, 0])
    c = c_from_R(R, (1.0, 2.0, 3.0, 4.0))
    assert c[0, 0, 0, 0] == pytest.approx(17.0)
    assert c[1, 1, 2, 2] == pytest.approx(1.0)
    assert c[0, 1, 0, 1] == pytest.approx(3.0)


def test_c_symmetries():
    rng = np.random.default_rng(3)
    for _ in range(100):
        R = random_sym(rng)
        nu = tuple(rng.normal(size=4))
        c = c_from_R(R, nu)
        assert np.array_equal(c, np.einsum("kjlm->jklm", c))
        assert np.array_equal(c, np.einsum("jkml->jklm", c))
        assert np.array_equal(c, np.einsum("lmjk->jklm", c))


def test_f_zero_stress():
    assert np.all(f_from_R(np.zeros((3, 3)), (1.0, 2.0, 3.0, 4.0)) == 0.0)


def test_f_two_route_agreement():
    rng = np.random.default_rng(5)
    for _ in range(50):
        R = random_sym(rng)
        nu = tuple(rng.normal(size=4))
        rho = rng.uniform(0.5, 2.0)
        vs = rng.uniform(0.5, 2.0)
        a = f_from_R(R, nu, rho, vs)
        b = f_from_c(R, nu, rho, vs)
        scale = np.max(np.abs(a)) or 1.0
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


def test_f_symmetries():
    rng = np.random.default_rng(8)
    for _ in range(30):
        w = f_from_R(random_sym(rng), tuple(rng.normal(size=4)))
        assert np.allclose(w, np.einsum("kjlm->jklm", w), atol=1e-14)
        assert np.allclose(w, np.einsum("jkml->jklm", w), atol=1e-14)
        assert np.allclose(w, np.einsum("lmjk->jklm", w), atol=1e-14)


def test_f_frame_contraction_matches_rytov_integrand():
    # unit tangent and orthogonal unit polarization, v_s = 1:
    # W_tt_ee = (nu4 R_ee + nu4 R_tt + nu2 trR) / (4 rho)
    rng = np.random.default_rng(11)
    for _ in range(20):
        R = random_sym(rng)
        nu = tuple(rng.normal(size=4))
        rho = rng.uniform(0.5, 2.0)
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        e = rng.normal(size=3)
        e -= (e @ t) * t
        e /= np.linalg.norm(e)
        w = f_from_R(R, nu, rho, 1.0)
        got = np.einsum("jklm,j,k,l,m->", w, t, t, e, e)
        want = (nu[3] * (e @ R @ e) + nu[3] * (t @ R @ t) + nu[1] * np.trace(R)) / (4 * rho)
        assert got == pytest.approx(want, abs=1e-12 * (abs(want) + 1.0))


# ---------------------------------------------------------------------------
# contraction identity


def test_contraction_identity_hand_case():
    assert contraction_identity_residual(np.eye(3), (0.3, 0.4, -0.2, 0.9), [1.0, 0, 0]) <= 1e-12
    assert contraction_identity_residual(np.zeros((3, 3)), (1, 2, 3, 4), [0, 1.0, 0]) == 0.0


def test_contraction_identity_random_sweep():
    rng = np.random.default_rng(17)
    for _ in range(100):
        R = random_sym(rng)
        nu = tuple(rng.normal(size=4))
        vp = rng.uniform(0.5, 2.0)
        t = rng.normal(size=3)
        t *= vp / np.linalg.norm(t)
        res = contraction_identity_residual(R, nu, t, v_p=vp)
        scale = np.max(np.abs(c_from_R(R, nu))) * vp**4 + 1.0
        assert res <= 1e-12 * scale


def test_contraction_identity_rejects_bad_norm():
    with pytest.raises(ValueError):
        contraction_identity_residual(np.eye(3), (0, 0, 0, 0), [2.0, 0, 0], v_p=1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=4, max_size=4), st.integers(0, 2**32 - 1))
def test_contraction_identity_property(nu, seed):
    rng = np.random.default_rng(seed)
    R = random_sym(rng)
    t = rng.normal(size=3)
    t /= np.linalg.norm(t)
    res = contraction_identity_residual(R, tuple(nu), t)
    scale = np.max(np.abs(c_from_R(R, tuple(nu)))) + 1.0
    assert res <= 1e-12 * scale


# ---------------------------------------------------------------------------
# weights and conditions


def test_pwave_weights_constants():
    p = MaterialParams(lam=2.0, mu=1.0, rho=1.0, nu=(0.1, -0.05, 0.2, 0.3))
    w = pwave_weights(p)
    vp4 = ((2.0 + 2.0) / 1.0) ** 2
    assert w.scale == pytest.approx(1.5 / vp4)
    assert w.a == pytest.approx(0.05 / 3.0)
    assert w.b == pytest.approx(vp4 / 1.5)
    assert w.alpha is None


def test_swave_weights_requires_nu4():
    with pytest.raises(ValueError):
        swave_weights(MaterialParams(nu=(0.1, 0.2, 0.3, 0.0)))
    w = swave_weights(MaterialParams(lam=1.0, mu=1.0, rho=1.0, nu=(0, 0.4, 0, 0.5)))
    assert w.scale == pytest.approx(0.5 / 4.0)
    assert w.a == pytest.approx(0.8)


def test_pwave_conditions_default_params():
    rep = check_pwave_conditions(MaterialParams(nu=(0, 0, 0, 0)))
    assert rep.values["weight_sum"] == pytest.approx(2.0)
    assert rep.values["leading_weight"] == pytest.approx(1.0)
    assert rep.values["trace_uniqueness"] == pytest.approx(1.0)
    assert rep.all_pass


def test_pwave_conditions_trace_degenerate():
    rep = check_pwave_conditions(MaterialParams(nu=(-1.0, 0, 0, 0)))
    assert not rep.passed["trace_uniqueness"]
    w = pwave_weights(MaterialParams(nu=(-1.0, 0, 0, 0)))
    assert w.a == pytest.approx(-0.5)


def test_pwave_conditions_weight_sum_degenerate():
    # nu1 + nu2 = -2 (1 + nu3 + nu4) / 3
    rep = check_pwave_conditions(MaterialParams(nu=(-2.0 / 3.0, 0, 0, 0)))
    assert not rep.passed["weight_sum"]
    assert rep.passed["leading_weight"]


def make_constant_a(a):
    # nu1 = 2 a (1 + nu3 + nu4), nu3 = nu4 = 0
    return MaterialParams(nu=(2.0 * a, 0.0, 0.0, 0.0))


def test_variable_conditions_constants_zero_a():
    rep = check_variable_conditions(make_constant_a(0.0), diameter=2.0)
    assert rep.values["a0"] == 0.0
    assert rep.values["smallness_bound"] == 0.0
    assert rep.passed["smallness"]
    # |1+a| < |1+3a| is non-strict at a = 0; symbol positivity still holds
    assert not rep.passed["ellipticity_strict"]
    assert rep.passed["symbol_positivity"]


def test_variable_conditions_boundary_a():
    rep = check_variable_conditions(make_constant_a(-1.0 / 6.0), diameter=2.0)
    assert rep.values["a0"] == pytest.approx(1.0 / 3.0)
    assert rep.values["smallness_bound"] == pytest.approx(1.0)
    assert not rep.passed["smallness"]


def test_variable_conditions_passing_a():
    rep = check_variable_conditions(make_constant_a(1.0), diameter=2.0)
    assert rep.values["a0"] == pytest.approx(0.25)
    assert rep.values["smallness_bound"] == pytest.approx(0.75)
    assert rep.passed["smallness"]
    assert rep.passed["ellipticity_strict"]  # |2| < |4|


def test_variable_conditions_indeterminate():
    rep = check_variable_conditions(make_constant_a(-1.0 / 3.0), diameter=2.0)
    assert not rep.all_pass
    assert "indeterminate" in rep.values


def _variable_density(grid):
    """rho = 1 + g/2 for a Gaussian g of width 0.2, below 1e-7 at the box
    edge, so ln rho is smooth on the periodic grid; and the analytic grad
    ln rho = grad(rho) / rho, with grad g = -g x / 0.2^2."""
    x = grid.coords()
    g = np.exp(-np.sum(x**2, axis=-1) / (2.0 * 0.2**2))
    rho = 1.0 + 0.5 * g
    return ScalarField(grid, rho), (-0.5 * g / 0.2**2)[..., None] * x / rho[..., None]


def test_pwave_weights_variable_density():
    # constant lam, mu and nu: b = (lam + 2 mu)^2 / (rho (1 + nu3 + nu4)) and
    # c = v_p^2 = (lam + 2 mu) / rho, so alpha = grad ln b + grad ln c / 2 =
    # -(3/2) grad ln rho and beta = -grad ln c / 2 = (1/2) grad ln rho
    grid = Grid3.cube(32)
    rho, glog = _variable_density(grid)
    params = MaterialParams(lam=1.5, mu=0.8, rho=rho, nu=(0.1, 0.4, -0.2, 0.5))
    assert not params.constants_mode
    w = pwave_weights(params, grid)
    scale = np.max(np.abs(glog))
    assert np.max(np.abs(w.alpha - (-1.5) * glog)) <= 1e-5 * scale
    assert np.max(np.abs(w.beta - 0.5 * glog)) <= 1e-5 * scale
    assert w.a == pytest.approx(0.5 / (2.0 * 1.3))
    assert np.allclose(w.b, 3.1**2 / (rho.values * 1.3), rtol=1e-14, atol=0)
    with pytest.raises(ValueError, match="need the grid"):
        pwave_weights(params)


def test_variable_conditions_variable_density():
    # a0, alpha0 and beta0 from the analytic gradients: alpha0 =
    # sup|alpha|^(1/2), beta0 = sup|(a alpha - beta)/(1 + 3a)|^(1/2)
    grid = Grid3.cube(32)
    rho, glog = _variable_density(grid)
    params = MaterialParams(lam=1.5, mu=0.8, rho=rho, nu=(0.1, 0.4, -0.2, 0.5))
    rep = check_variable_conditions(params, 2.0, grid)
    a = 0.5 / (2.0 * 1.3)
    top = np.max(np.linalg.norm(glog, axis=-1))
    alpha0 = (1.5 * top) ** 0.5
    beta0 = (abs(-1.5 * a - 0.5) * top / (1.0 + 3.0 * a)) ** 0.5
    assert rep.values["a0"] == pytest.approx(a / (1.0 + 3.0 * a), rel=1e-14)
    assert rep.values["alpha0"] == pytest.approx(alpha0, rel=1e-5)
    assert rep.values["beta0"] == pytest.approx(beta0, rel=1e-5)
    bound = 3.0 * a / (1.0 + 3.0 * a) + 0.5 * alpha0 + 1.5 * beta0 + (alpha0**3 + beta0**3)
    assert rep.values["smallness_bound"] == pytest.approx(bound, rel=1e-5)
    assert rep.passed["smallness"] == (bound < 1.0)
    with pytest.raises(ValueError, match="need the grid"):
        check_variable_conditions(params, 2.0)


def test_params_validation():
    with pytest.raises(ValueError):
        MaterialParams(rho=-1.0)
    with pytest.raises(ValueError):
        MaterialParams(nu=(1.0, 2.0))
