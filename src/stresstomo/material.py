"""Material-parameter handling for the residual-stress model.

Pointwise rank-4 tensors built from the stress tensor and the model
parameters nu1..nu4, the derived P- and S-wave weight fields, and the
solvability-condition checks used before any inversion is attempted.

Rank-4 tensors are returned as full (3,3,3,3) arrays; constants-mode
weights are plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, spectral_gradient

_DELTA = np.eye(3)
_FLOOR = 1e-6  # default least value of a solvability quantity


class ConditionError(RuntimeError):
    """A solvability condition on the material parameters is violated."""


@dataclass
class MaterialParams:
    """Isotropic background plus the four residual-stress coupling parameters.

    Every entry is either a float (constants-mode) or a ScalarField on a
    shared grid.
    """

    lam: object = 1.0
    mu: object = 1.0
    rho: object = 1.0
    nu: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.nu) != 4:
            raise ValueError("need exactly four coupling parameters")
        if self.constants_mode:
            if self.rho <= 0 or self.mu <= 0 or self.lam + 2 * self.mu <= 0:
                raise ValueError("need rho > 0, mu > 0, lam + 2 mu > 0")
        else:
            rho, mu, lam = (self._vals(p) for p in (self.rho, self.mu, self.lam))
            if np.any(rho <= 0) or np.any(mu <= 0) or np.any(lam + 2 * mu <= 0):
                raise ValueError("need rho > 0, mu > 0, lam + 2 mu > 0 pointwise")

    @staticmethod
    def _vals(p):
        return p.values if isinstance(p, ScalarField) else np.asarray(p, dtype=float)

    @property
    def constants_mode(self):
        return all(
            not isinstance(p, ScalarField) for p in (self.lam, self.mu, self.rho, *self.nu)
        )

    @property
    def v_p(self):
        return np.sqrt((self._vals(self.lam) + 2 * self._vals(self.mu)) / self._vals(self.rho))

    @property
    def v_s(self):
        return np.sqrt(self._vals(self.mu) / self._vals(self.rho))

    def nu_values(self):
        return [self._vals(n) for n in self.nu]


@dataclass
class PWaveWeights:
    """Weights of the compressional-wave phase integral and its inversion."""

    scale: object  # (1 + nu3 + nu4) / (rho v_p^4)
    a: object  # (nu1 + nu2) / (2 (1 + nu3 + nu4))
    b: object  # rho v_p^4 / (1 + nu3 + nu4)
    alpha: object = None  # covector field, zero in constants-mode
    beta: object = None


@dataclass
class SWaveWeights:
    """Weights of the shear-wave (Rytov/Born) pipeline.

    scale is the real part of the generator prefactor; the -i factor is
    applied inside the propagator.
    """

    scale: object  # nu4 / (4 rho v_s^4)
    a: object  # nu2 / nu4


def pwave_weights(params: MaterialParams, grid=None) -> PWaveWeights:
    n1, n2, n3, n4 = params.nu_values()
    denom = 1.0 + n3 + n4
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("1 + nu3 + nu4 vanishes: P-wave weights undefined")
    rv4 = params._vals(params.rho) * params.v_p**4
    scale = denom / rv4
    a = (n1 + n2) / (2.0 * denom)
    b = rv4 / denom
    if params.constants_mode:
        return PWaveWeights(float(scale), float(a), float(b))
    if grid is None:
        raise ValueError("variable coefficients need the grid for alpha, beta")
    # alpha = grad(ln b) + grad(ln c)/2, beta = -grad(ln c)/2 with c = v_p^2
    logb = ScalarField(grid, np.log(np.abs(np.broadcast_to(b, grid.dims))))
    logc = ScalarField(grid, np.log(np.broadcast_to(params.v_p**2, grid.dims)))
    gb = spectral_gradient(logb).values
    gc = spectral_gradient(logc).values
    return PWaveWeights(scale, a, b, alpha=gb + 0.5 * gc, beta=-0.5 * gc)


def swave_weights(params: MaterialParams) -> SWaveWeights:
    n1, n2, n3, n4 = params.nu_values()
    if np.any(np.abs(n4) < 1e-12):
        raise ValueError("nu4 vanishes: S-wave weights undefined")
    scale = n4 / (4.0 * params._vals(params.rho) * params.v_s**4)
    return SWaveWeights(scale, n2 / n4)


# ---------------------------------------------------------------------------
# pointwise rank-4 tensors


def c_from_R(R, nu):
    """Fourth-rank coupling tensor c_jklm built linearly from a 3x3 stress value.

    Cartesian form: nu1 trR d_jk d_lm + nu2/2 trR (d_jl d_km + d_jm d_kl)
    + nu3 (R_jk d_lm + R_lm d_jk) + nu4/2 (R_jl d_km + R_jm d_kl
    + R_kl d_jm + R_km d_jl).
    """
    R = np.asarray(R, dtype=float)
    n1, n2, n3, n4 = nu
    trR = np.trace(R)
    d = _DELTA
    c = n1 * trR * np.einsum("jk,lm->jklm", d, d)
    c += 0.5 * n2 * trR * (np.einsum("jl,km->jklm", d, d) + np.einsum("jm,kl->jklm", d, d))
    c += n3 * (np.einsum("jk,lm->jklm", R, d) + np.einsum("jk,lm->jklm", d, R))
    c += 0.5 * n4 * (
        np.einsum("jl,km->jklm", R, d)
        + np.einsum("jm,kl->jklm", R, d)
        + np.einsum("kl,jm->jklm", R, d)
        + np.einsum("km,jl->jklm", R, d)
    )
    return c


def f_from_R(R, nu, rho=1.0, v_s=1.0):
    """Real representative W of the shear-coupling tensor (full tensor = -i W).

    Built directly in terms of the conformal metric h = v_s^-2 g:
    W = (1/(4 rho v_s^4)) [ nu1 trR (h_jl h_km + h_jm h_kl)
      + nu2/2 trR (2 h_jk h_lm + h_jl h_km + h_jm h_kl)
      + nu3 (R_jl h_km + R_jm h_kl + R_kl h_jm + R_km h_jl)
      + nu4/2 (2 R_jk h_lm + R_jl h_km + R_jm h_kl + R_kl h_jm
               + R_km h_jl + 2 R_lm h_jk) ],
    with trR the h-trace v_s^2 tr_E R.  (The four-term nu3 bracket is what
    the pair symmetry in (j,k) requires.)
    """
    R = np.asarray(R, dtype=float)
    n1, n2, n3, n4 = nu
    h = _DELTA / v_s**2
    trR = v_s**2 * np.trace(R)
    hh_jl_km = np.einsum("jl,km->jklm", h, h)
    hh_jm_kl = np.einsum("jm,kl->jklm", h, h)
    hh_jk_lm = np.einsum("jk,lm->jklm", h, h)
    w = n1 * trR * (hh_jl_km + hh_jm_kl)
    w += 0.5 * n2 * trR * (2 * hh_jk_lm + hh_jl_km + hh_jm_kl)
    w += n3 * (
        np.einsum("jl,km->jklm", R, h)
        + np.einsum("jm,kl->jklm", R, h)
        + np.einsum("kl,jm->jklm", R, h)
        + np.einsum("km,jl->jklm", R, h)
    )
    w += 0.5 * n4 * (
        2 * np.einsum("jk,lm->jklm", R, h)
        + np.einsum("jl,km->jklm", R, h)
        + np.einsum("jm,kl->jklm", R, h)
        + np.einsum("kl,jm->jklm", R, h)
        + np.einsum("km,jl->jklm", R, h)
        + 2 * np.einsum("lm,jk->jklm", R, h)
    )
    return w / (4.0 * rho * v_s**4)


def f_from_c(R, nu, rho=1.0, v_s=1.0):
    """Independent route: W_jklm = (1/(4 rho v_s^6)) (c_jlkm + c_jmkl)."""
    c = c_from_R(R, nu)
    return (np.einsum("jlkm->jklm", c) + np.einsum("jmkl->jklm", c)) / (4.0 * rho * v_s**6)


def contraction_identity_residual(R, nu, direction, v_p=1.0):
    """Residual of the quartic contraction identity along an h-unit direction.

    c_jklm t^j t^k t^l t^m must equal v_p^2 (2 (nu3+nu4) R_tt + (nu1+nu2) trR)
    for |t|_h = 1 (Euclidean norm v_p) and trR the h-trace.
    """
    t = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(t) / v_p - 1.0) > 1e-8:
        raise ValueError("direction must be h-unit (Euclidean norm v_p)")
    n1, n2, n3, n4 = nu
    c = c_from_R(np.asarray(R, dtype=float), nu)
    lhs = np.einsum("jklm,j,k,l,m->", c, t, t, t, t)
    R_tt = np.einsum("jk,j,k->", np.asarray(R, dtype=float), t, t)
    trR = v_p**2 * np.trace(np.asarray(R, dtype=float))
    rhs = v_p**2 * (2.0 * (n3 + n4) * R_tt + (n1 + n2) * trR)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# solvability-condition checks (report-only)


@dataclass
class ConditionReport:
    """Pointwise minima of the solvability quantities, with pass/fail flags."""

    values: dict
    passed: dict
    floor: float

    @property
    def all_pass(self):
        return all(self.passed.values())


def check_pwave_conditions(params: MaterialParams, floor=_FLOOR) -> ConditionReport:
    """Nondegeneracy checks for the compressional-wave inverse problem.

    Reports minima of |3(nu1+nu2) + 2(1+nu3+nu4)|, |1+nu3+nu4| and
    |1 + nu1+nu2+nu3+nu4| (the uniqueness condition |1+2a|).
    """
    n1, n2, n3, n4 = params.nu_values()
    vals = {
        "weight_sum": np.min(np.abs(3.0 * (n1 + n2) + 2.0 * (1.0 + n3 + n4))),
        "leading_weight": np.min(np.abs(1.0 + n3 + n4)),
        "trace_uniqueness": np.min(np.abs(1.0 + n1 + n2 + n3 + n4)),
    }
    vals = {k: float(v) for k, v in vals.items()}
    passed = {k: v > floor for k, v in vals.items()}
    return ConditionReport(vals, passed, floor)


def check_swave_conditions(params: MaterialParams, floor=_FLOOR) -> ConditionReport:
    """Nondegeneracy checks for the shear-wave inverse problem.

    Reports minima of |nu4| (the shear weight, zero when the S-wave
    weights are undefined) and |nu2/nu4 + 2/3| (|a + 2/3|, the trace
    recovery condition), the second as 0 where nu4 vanishes.
    """
    n1, n2, n3, n4 = params.nu_values()
    with np.errstate(divide="ignore", invalid="ignore"):
        trace = np.where(n4 != 0.0, np.abs(n2 / n4 + 2.0 / 3.0), 0.0)
    vals = {"shear_weight": float(np.min(np.abs(n4))), "trace_recovery": float(np.min(trace))}
    passed = {k: v > floor for k, v in vals.items()}
    return ConditionReport(vals, passed, floor)


def check_variable_conditions(params: MaterialParams, diameter, grid=None):
    """Ellipticity and uniqueness bounds for the variable-coefficient problem.

    Evaluates a0 = sup|a/(1+3a)|, alpha0 = sup|alpha|^(1/2),
    beta0 = sup|(a alpha - beta)/(1+3a)|^(1/2), the ellipticity inequality
    |1+a| < |1+3a| (plus the symbol-positivity test kappa > -1), and the
    smallness bound 3 a0 + alpha0/2 + 3 beta0/2 + (alpha0^3+beta0^3) D^2/4 < 1.
    Where |1+3a| falls below _FLOOR the report is "indeterminate".  Variable
    coefficients need the grid (pwave_weights).
    """
    w = pwave_weights(params, grid)
    a = np.asarray(w.a, dtype=float)
    one3a = 1.0 + 3.0 * a
    vals, passed = {}, {}
    if np.any(np.abs(one3a) < _FLOOR):
        return ConditionReport({"indeterminate": 0.0}, {"indeterminate": False}, _FLOOR)
    a0 = float(np.max(np.abs(a / one3a)))
    if w.alpha is None:
        alpha0 = beta0 = 0.0
    else:
        alpha0 = float(np.max(np.linalg.norm(w.alpha, axis=-1))) ** 0.5
        ab = (a[..., None] * w.alpha - w.beta) / one3a[..., None]
        beta0 = float(np.max(np.linalg.norm(ab, axis=-1))) ** 0.5
    bound = 3.0 * a0 + 0.5 * alpha0 + 1.5 * beta0 + 0.25 * (alpha0**3 + beta0**3) * diameter**2
    kappa = (1.0 + a) / one3a
    vals["a0"] = a0
    vals["alpha0"] = alpha0
    vals["beta0"] = beta0
    vals["smallness_bound"] = float(bound)
    vals["ellipticity_margin"] = float(np.min(np.abs(one3a) - np.abs(1.0 + a)))
    vals["kappa_min"] = float(np.min(kappa))
    passed["smallness"] = bound < 1.0
    passed["ellipticity_strict"] = vals["ellipticity_margin"] > 0.0
    passed["symbol_positivity"] = vals["kappa_min"] > -1.0
    return ConditionReport(vals, passed, _FLOOR)
