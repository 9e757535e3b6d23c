"""Reconstruction: longitudinal and truncated-transverse inversion.

The compressional route inverts the longitudinal ray transform over three
coordinate-plane line families by Fourier regridding (central-slice), then
splits the trace contamination in the Fourier domain.  The shear route
solves a regularized normal equation for the trace-free part on the ball's
nodes and recovers the trace by scalar filtered backprojection of the
eta-averaged diagonal data.
"""

import functools
import time
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .fields import (
    Grid3,
    CovectorField,
    ScalarField,
    SymField2,
    SYM_MULT,
    _half_spectrum,
    _parseval_norm2,
    _spectrum,
    divergence_norm,
    identity_sym,
    matrix_to_sym,
    solenoidal_project,
    tangential_projector,
    trig_upsample,
)
from .forward import (
    FamilyOperator,
    Sinogram,
    _gather,
    _generator_dyads,
    _kpair_dyads,
    born_reduce,
    kdata_adjoint,
    longitudinal_transform,
    truncated_reduce,
    unitarity_drift,
)
from .geometry import PlaneFamily, SphereFamily, coverage_directions
from .material import pwave_weights, swave_weights


class NonUniqueError(RuntimeError):
    """The requested inversion has a nontrivial null space at these weights."""


_NULL_FLOOR = 1e-8  # |1 + 2a| or |a + 2/3| below this: the data have a null space


@dataclass
class ReconReport:
    """Serializable record of a reconstruction run.  Its fields are the
    report's sections, each a dict: to_dict, from_dict and io.read_report
    take the section names from them."""

    stages: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    conditions: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**{f.name: d.get(f.name, {}) for f in fields(cls)})


# ---------------------------------------------------------------------------
# longitudinal inversion: Fourier regrid + per-node solve


_ANGLE_UPSAMPLE = 8
_GAIN_FLOOR = 1e-6  # Tikhonov floor of the per-node gains, times max(tr(M^T M), 1)


def _slice_freqs(family):
    """Angular frequencies of the slice axis of a plane family (fft order)."""
    z = family.slices
    return 2.0 * np.pi * np.fft.fftfreq(len(z), d=z[1] - z[0])


def _family_slice_spectrum(values, family):
    """Slice-axis Fourier transform of one plane family's data per angle.

    values: the family's real (views, offsets, slices) records.  The angle
    axis is first refined _ANGLE_UPSAMPLE times by trigonometric
    interpolation: the data are periodic over a full turn once the offset
    axis is reversed at pi.  Returns spec: spec[a, j, l] is the transform of
    the data over the slice coordinate only, at the l-th frequency of
    _slice_freqs, so spec[a, :, l] remains a function of the offset; the
    offset transform is evaluated per in-plane frequency in _sample_polar.
    """
    full = np.concatenate([values, values[:, ::-1, :]], axis=0)
    vals = trig_upsample(full, _ANGLE_UPSAMPLE)[: _ANGLE_UPSAMPLE * family.n_views]
    # the data are real: transform half the slice axis, mirror the rest
    z = family.slices
    half = np.fft.rfft(vals, axis=2)
    spec = np.empty(vals.shape, dtype=complex)
    spec[..., : half.shape[2]] = half
    spec[..., half.shape[2] :] = np.conj(half[..., len(z) - half.shape[2] : 0 : -1])
    spec *= np.exp(-1j * _slice_freqs(family) * z[0]) * (z[1] - z[0])
    return spec


def _cubic_weights(f):
    """Four-point Lagrange weights at fractional position f in [0, 1]."""
    return (
        -f * (f - 1.0) * (f - 2.0) / 6.0,
        (f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0,
        -(f + 1.0) * f * (f - 2.0) / 2.0,
        (f + 1.0) * f * (f - 1.0) / 6.0,
    )


def _polar_rows(offsets, theta_count, angle_idx, angle_frac, radius):
    """Offset-quadrature rows of in-plane frequency positions.

    Per position the angle is interpolated by four cubic taps, angle_idx - 1
    to angle_idx + 2, wrapping at pi with radius negation (a half turn
    reverses the offset axis), and the offset axis is transformed by direct
    quadrature at the exact signed radius.  Returns rows (positions, 4 *
    offsets): weight * exp(-i r o) * do per tap, conjugated on wrapped taps
    (the phases of the negated radius).
    """
    do = offsets[1] - offsets[0]
    phases = np.exp(-1j * radius[:, None] * offsets[None, :])
    taps = angle_idx[:, None] + np.arange(-1, 3)
    wrap = (taps >= theta_count) | (taps < 0)
    rows = np.where(wrap[..., None], np.conj(phases)[:, None, :], phases[:, None, :])
    rows *= np.stack(_cubic_weights(angle_frac), axis=-1)[..., None] * do
    return rows.reshape(len(radius), -1)


def _sample_polar(spec, angle_idx, rows, pos, zeta_idx):
    """Offset transform of spec[angle, offset, zeta] at the queries
    (position pos, slice frequency zeta_idx).

    angle_idx and rows (from _polar_rows) are per in-plane position.  The
    positions sharing a base angle a share their four taps a - 1 to a + 2,
    which are one contiguous (4 * offsets, slices) window of a copy of spec
    wrap-padded by one angle before and two after: every slice frequency of
    such a group is one matmul of its rows with that window, so spec is
    never gathered per position.
    """
    ntheta, noff, nz = spec.shape
    flat = np.take(spec, np.arange(-1, ntheta + 2), axis=0, mode="wrap").reshape(-1, nz)
    order = np.argsort(angle_idx, kind="stable")
    vals = np.empty((len(rows), nz), dtype=complex)
    for group in np.split(order, np.flatnonzero(np.diff(angle_idx[order])) + 1):
        a = angle_idx[group[0]]
        vals[group] = rows[group] @ flat[a * noff : (a + 4) * noff]
    return vals[pos, zeta_idx]


def _support_fill_weights(xcoords, radius):
    """Weights recovering the zero-frequency sample of a line spectrum.

    The line's inverse transform vanishes where |x| > radius, so the missing
    sample is the least-squares value minimizing the out-of-support energy;
    that estimate is a fixed weighted sum of the other samples.
    """
    xcoords = np.asarray(xcoords)
    n = len(xcoords)
    outside = np.flatnonzero(np.abs(xcoords) > radius)
    if len(outside) == 0:
        raise RuntimeError(
            "grid does not extend beyond the support; cannot fill "
            "rank-deficient Fourier nodes"
        )
    Fo = np.exp(2j * np.pi * np.outer(outside, np.arange(n)) / n) / n
    col = Fo[:, 0]
    w = -(np.conj(col) @ Fo) / np.real(np.conj(col) @ col)
    w[0] = 0.0
    return w


def _plane_basis(y, ynorm):
    """Vectorized orthonormal basis (b1, b2) of the plane orthogonal to y."""
    n = y / ynorm[..., None]
    # seed with the axis least aligned with n
    seed = np.eye(3)[np.argmin(np.abs(n), axis=-1)]
    b1 = seed - (np.sum(seed * n, axis=-1))[..., None] * n
    b1 /= np.linalg.norm(b1, axis=-1)[..., None]
    b2 = np.cross(n, b1)
    return b1, b2


def _plane_sinograms(sinograms):
    """The records keyed by family axis, after checking that they are
    scalar records over the three coordinate-plane families, one each.

    Raises ValueError naming the offending record (by position) or axis.
    """
    sinos, where = {}, {}
    for i, s in enumerate(sinograms):
        if not isinstance(s.family, PlaneFamily):
            raise ValueError(
                f"longitudinal inversion expects plane families: sinogram {i} "
                f"is over a {type(s.family).__name__}"
            )
        if s.kind != "scalar":
            raise ValueError(
                f"longitudinal inversion expects scalar records: sinogram {i} "
                f"has kind {s.kind!r}"
            )
        k = s.family.axis
        if k in sinos:
            raise ValueError(
                f"sinograms {where[k]} and {i} are both over the family "
                f"orthogonal to axis {k + 1}"
            )
        sinos[k], where[k] = s, i
    missing = [k + 1 for k in range(3) if k not in sinos]
    if missing:
        raise ValueError(
            "need one sinogram per coordinate-plane family; none is orthogonal "
            f"to axis {', '.join(map(str, missing))}"
        )
    return sinos


@dataclass
class _Regrid:
    """Per-node geometry of the Fourier regrid, independent of the data.

    - families: the plane family per axis;
    - nodes: flat grid indices of the active Fourier nodes;
    - gain (nodes, 3, 3): maps the three family samples of a node to its
      2-form coefficients (regularized least squares, with the origin phase
      and the kernel division folded in);
    - dyads (nodes, 3, 6): b1 b1, b2 b2 and 2 sym(b1 b2) in symmetric storage;
    - polar: per family axis (sel, angle_idx, rows, pos, zeta_idx): the
      active nodes it samples, then per in-plane position the base angle and
      the _polar_rows, then per sampled node its position and slice index;
    - levels: the support-fill levels, each (sel, zeros, lines, dual, u).
    """

    families: dict
    nodes: np.ndarray
    gain: np.ndarray
    dyads: np.ndarray
    polar: dict
    levels: list


def _regrid_geometry(families, grid: Grid3, cond_limit):
    """Build the _Regrid of the three plane families (dict axis -> family).

    Per family the 2D transform of parallel-beam data samples mhat(y) xi xi
    for the in-plane direction xi orthogonal to y; the three families give
    three quadratic samples per Fourier node, enough to determine the
    symmetric 2-form of mhat on the plane orthogonal to y.  Structurally
    rank-deficient nodes (on coordinate planes and axes) are filled using
    the compact support of the field.
    """
    ks = np.meshgrid(*grid.freqs(), indexing="ij")
    y = np.stack(ks, axis=-1)
    ynorm = np.linalg.norm(y, axis=-1)
    # beyond the grid Nyquist sphere the sampled spectrum is pure alias and
    # the kernel deconvolution only amplifies noise; leave those nodes zero
    band = np.pi / np.max(np.asarray(grid.spacing))
    active = (ynorm > 0.0) & (ynorm <= band)
    yv = y[active]
    yn = ynorm[active]
    b1, b2 = _plane_basis(yv, yn)

    nact = len(yv)
    # the data integrate the trilinear interpolant of the field, whose
    # transform carries the separable kernel prod_i sinc^2(y_i h_i / 2);
    # divide it out to recover the sample-grid spectrum.  The origin phase
    # undoes the node-(0,0,0) offset of the sample grid.
    wtri = np.prod(
        np.sinc(yv * np.asarray(grid.spacing) / (2.0 * np.pi)) ** 2, axis=-1
    )
    origin_phase = np.exp(1j * np.sum(yv * np.asarray(grid.origin), axis=-1))
    scale = origin_phase / (grid.cell_volume() * wtri)
    rows_M = np.zeros((nact, 3, 3))

    # fft-ordered index of each active node along every grid axis
    idx = np.argwhere(active)

    # in-plane direction of each family's measuring rays: xi ~ unit(e_k x y)
    xis, oks = coverage_directions(yv)
    polar = {}
    for k, fam in families.items():
        i1, i2 = (k + 1) % 3, (k + 2) % 3
        yp1, yp2 = yv[:, i1], yv[:, i2]
        rad = np.hypot(yp1, yp2)
        sel = np.flatnonzero(oks[:, k])
        # consistency of the slice frequency with the node frequency
        zeta = _slice_freqs(fam)
        if np.max(np.abs(zeta[idx[sel, k]] - yv[sel, k])) > 1e-9 * max(np.max(np.abs(zeta)), 1.0):
            raise ValueError("slice axis of the family does not match the grid axis")
        xi = xis[sel, k]
        c = np.sum(xi * b1[sel], axis=-1)
        s = np.sum(xi * b2[sel], axis=-1)
        rows_M[sel, k, 0] = c * c
        rows_M[sel, k, 1] = s * s
        rows_M[sel, k, 2] = 2.0 * c * s
        # angle, radius and phases depend only on the in-plane frequency:
        # build them once per position (y_i1, y_i2) of the queries
        _, first, pos = np.unique(
            idx[sel, i1] * grid.dims[i2] + idx[sel, i2], return_index=True, return_inverse=True
        )
        p = sel[first]
        # angle of the offset axis w matching y_p, folded to [0, pi)
        phi = np.arctan2(yp2[p], yp1[p]) - 0.5 * np.pi
        fold = np.floor(phi / np.pi).astype(int)
        theta = phi - fold * np.pi
        r = np.where(fold % 2 == 0, rad[p], -rad[p])
        ntheta = _ANGLE_UPSAMPLE * fam.n_views
        t = theta / (np.pi / ntheta)
        a0 = np.minimum(t.astype(int), ntheta - 1)
        polar[k] = (sel, a0, _polar_rows(fam.offsets, ntheta, a0, t - a0, r), pos, idx[sel, k])

    # per-node regularized least squares on the 2-form coefficients:
    # A = (MtM + eps)^-1 Mt (scale Q), one gain matrix per node
    MtM = np.einsum("nri,nrj->nij", rows_M, rows_M)
    tr = np.trace(MtM, axis1=-2, axis2=-1)
    eps = _GAIN_FLOOR * np.maximum(tr, 1.0)
    gain = np.linalg.solve(MtM + eps[:, None, None] * np.eye(3), np.swapaxes(rows_M, 1, 2))
    gain = gain * scale[:, None, None]
    dyads = matrix_to_sym(
        np.stack([b1[:, :, None] * b1[:, None, :], b2[:, :, None] * b2[:, None, :],
                  2.0 * b1[:, :, None] * b2[:, None, :]], axis=1)
    )

    # nodes on a coordinate plane are structurally rank-deficient: there two
    # of the three measuring directions coincide, so the cross term of the
    # 2-form is not measured.  Detect via the node spectrum and recover the
    # weak component from the compact support of the field.
    ev = np.linalg.eigvalsh(MtM)
    weak = ev[:, 0] <= ev[:, 2] / cond_limit
    zerocomp = np.abs(yv) < 1e-12
    nzero = np.sum(zerocomp, axis=-1)
    stray = float(np.mean(weak & (nzero == 0)))
    if stray > 0.01:
        raise RuntimeError(
            f"insufficient angular sampling: {100 * stray:.1f}% of generic "
            "nodes are rank-deficient"
        )
    nodes = np.flatnonzero(active)
    levels = []
    if np.any(weak & (nzero >= 1)):
        axes_x = [np.asarray(ax) for ax in grid.axes()]
        wfill = [
            _support_fill_weights(axes_x[a], grid.domain.radius) for a in range(3)
        ]
        strides = np.cumprod([1] + list(grid.dims[:0:-1]))[::-1]  # flat, C order
        # plane nodes (one zero frequency coordinate) first: their fill lines
        # traverse only full-rank nodes; then axis nodes (two), averaging the
        # lines through both filled planes.  A line through a node with
        # y_a = 0 runs along axis a: its flat indices step by that axis's
        # stride from the node.
        for zeros in (1, 2):
            sel = np.flatnonzero(weak & (nzero == zeros))
            if len(sel) == 0:
                continue
            lines = []
            for a in range(3):
                sub = np.flatnonzero(zerocomp[sel, a])
                if len(sub):
                    line = nodes[sel[sub], None] + strides[a] * np.arange(grid.dims[a])
                    lines.append((sub, line, wfill[a]))
            # b_i^T N b_j of a symmetric-storage N is N . (dyad_ij * SYM_MULT)
            dual = dyads[sel] * SYM_MULT * np.array([1.0, 1.0, 0.5])[:, None]
            u = np.linalg.eigh(MtM[sel])[1][:, :, 0]
            levels.append((sel, zeros, lines, dual, u))
    return _Regrid(families, nodes, gain, dyads, polar, levels)


def _regrid_pass(geo: _Regrid, values, grid: Grid3):
    """One Fourier-regrid inversion of the records `values` (dict axis ->
    (views, offsets, slices) array) over the families geo was built for:
    the solenoidal projection of the real part of the assembled spectrum."""
    Q = np.zeros((len(geo.nodes), 3), dtype=complex)
    for k, (sel, angle_idx, rows, pos, zeta_idx) in geo.polar.items():
        spec = _family_slice_spectrum(values[k], geo.families[k])
        Q[sel, k] = _sample_polar(spec, angle_idx, rows, pos, zeta_idx)
    A = np.einsum("nik,nk->ni", geo.gain, Q)
    spec6 = np.zeros(grid.dims + (6,), dtype=complex)
    flat = spec6.reshape(-1, 6)
    flat[geo.nodes] = np.einsum("nc,ncs->ns", A, geo.dyads)
    # every estimate of a level reads spec6 as assembled before that level
    for sel, zeros, lines, dual, u in geo.levels:
        est6 = np.zeros((len(sel), 6), dtype=complex)
        for sub, line, w in lines:
            # estimates over the y_a = 0 plane via the support constraint
            est6[sub] += np.einsum("j,ljs->ls", w, flat[line])
        # replace only the unmeasured combination u at the selected nodes
        # with the estimate projected onto the local 2-form coordinates
        nbA = np.einsum("ns,ncs->nc", est6 / zeros, dual)
        A[sel] += np.einsum("nc,nc->n", nbA - A[sel], u)[:, None] * u
        flat[geo.nodes[sel]] = np.einsum("nc,ncs->ns", A[sel], geo.dyads[sel])
    return solenoidal_project(SymField2(grid, np.fft.ifftn(spec6, axes=(0, 1, 2)).real))


def invert_I_solenoidal(sinograms, grid: Grid3, cond_limit=1e8, refine=1):
    """Recover the solenoidal field m from its longitudinal transform.

    sinograms: scalar records over the three coordinate-plane line
    families, one each (else ValueError naming the record).  A direct
    Fourier-regrid estimate (O'Sullivan's central-slice regrid) is followed
    by `refine` defect-correction sweeps: the estimate is pushed through the
    exact forward operator and the data residual is inverted again, which
    removes the offset-sampling alias bias of the direct pass.  The regrid
    geometry (active nodes, plane bases, polar taps and rows, the per-node
    gains and the support-fill levels) is built once and applied to the
    data and to every residual.  m is not masked to the ball: the plane
    families' chords run across the ball's equator disk in every slice
    (PlaneFamily._half_lengths), so the residual gathers also read m off
    the ball.  Returns (m, info): info holds the active node count
    (active_nodes), the share of them filled from the support
    (filled_share), the direct pass's relative data residual |d - I m1| /
    |d| (direct_residual; 0 for zero data, None when refine is 0, where it
    is not computed), the share of m's energy |m|^2 on the nodes outside
    the ball (outside_energy; 0 for m = 0) and the geometry build time
    (geometry_s).
    """
    sinos = _plane_sinograms(sinograms)
    t0 = time.perf_counter()
    geo = _regrid_geometry({k: s.family for k, s in sinos.items()}, grid, cond_limit)
    info = {
        "active_nodes": int(len(geo.nodes)),
        "filled_share": sum(len(level[0]) for level in geo.levels) / len(geo.nodes),
        "direct_residual": None,
        "geometry_s": time.perf_counter() - t0,
    }
    m = _regrid_pass(geo, {k: s.values for k, s in sinos.items()}, grid)
    for sweep in range(refine):
        resid = {
            k: s.values - longitudinal_transform(m, s.family).values for k, s in sinos.items()
        }
        if sweep == 0:
            dn = np.sqrt(sum(np.sum(s.values**2) for s in sinos.values()))
            rn = np.sqrt(sum(np.sum(r**2) for r in resid.values()))
            info["direct_residual"] = float(rn / dn) if dn > 0.0 else 0.0
        corr = _regrid_pass(geo, resid, grid)
        m = SymField2(grid, m.values + corr.values)
    total = m.norm()
    off_ball = SymField2(grid, m.values * ~grid.domain_mask()[..., None]).norm()
    info["outside_energy"] = (off_ball / total) ** 2 if total > 0.0 else 0.0
    return m, info


def detangle_trace(m: SymField2, a) -> SymField2:
    """Split f from m = S(f + a (tr f) g) for solenoidal f.

    In the Fourier domain m_hat = f_hat + a (tr f_hat) eps with tr eps = 2,
    so tr f_hat = tr m_hat / (1 + 2a).  eps is real and even in y, so a real
    m is split on its half spectrum.
    """
    if abs(1.0 + 2.0 * a) < _NULL_FLOOR:
        raise NonUniqueError(
            "1 + 2a vanishes: the data are blind to the S(alpha g) family"
        )
    spec, ys, inverse = _spectrum(m.values, m.grid)
    eps6 = matrix_to_sym(tangential_projector(*ys))
    trm = spec[..., 0] + spec[..., 1] + spec[..., 2]
    trf = trm / (1.0 + 2.0 * a)
    f = spec - a * trf[..., None] * eps6
    return SymField2(m.grid, inverse(f))


def pwave_pipeline(data, params, grid: Grid3, refine=1):
    """Compressional reconstruction: invert I, detangle the trace, rescale.

    data: scalar records over the three coordinate-plane families, one
    each; anything else raises ValueError naming the record before any
    work.  report.stages["regrid"] is invert_I_solenoidal's info.
    """
    t0 = time.perf_counter()
    w = pwave_weights(params)
    report = ReconReport(
        config={"pipeline": "pwave", "a": w.a, "scale": w.scale, "refine": refine}
    )
    m, report.stages["regrid"] = invert_I_solenoidal(data, grid, refine=refine)
    report.timing["invert_I"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    f = detangle_trace(m, w.a)
    R = SymField2(grid, f.values * w.b)
    report.timing["detangle"] = time.perf_counter() - t1
    rn = R.norm()
    dn = divergence_norm(R)
    diam = 2.0 * grid.domain.radius
    report.stages["m_norm"] = m.norm()
    report.stages["R_norm"] = rn
    report.errors["divergence_residual"] = dn * diam / max(rn, 1e-300)
    report.timing["total"] = time.perf_counter() - t0
    return R, report


# ---------------------------------------------------------------------------
# trace-free K inversion


_DEV_BASIS = np.array(
    [
        [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0), 0.0, 0.0, 0.0, 0.0],
        [1.0 / np.sqrt(6.0), 1.0 / np.sqrt(6.0), -2.0 / np.sqrt(6.0), 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0 / np.sqrt(2.0), 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0 / np.sqrt(2.0), 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0 / np.sqrt(2.0)],
    ]
)  # orthonormal under the multiplicity-weighted inner product


def _coef_to_sym(x):
    return np.einsum("...c,cs->...s", x, _DEV_BASIS)


def _sym_to_coef(v6):
    return np.einsum("...s,cs->...c", v6 * SYM_MULT, _DEV_BASIS)


# default CG stopping rule of the trace-free solve (relative normal-equation
# residual, iteration cap), shared with the CLI's `tolerances`
CG_TOL = 1e-3
CG_MAXITER = 300


def invert_K_tracefree(kdata: Sinogram, grid: Grid3, maxiter=CG_MAXITER, tol=CG_TOL):
    """Solve min |K F - kdata|^2 + lam |F|^2 over trace-free symmetric F
    supported in the ball grid.domain.

    Conjugate gradient on the normal equations; trace-freeness is enforced
    by working in a 5-component deviatoric basis per node, and the
    unknowns are the coefficients of the ball's nodes only (the stress
    vanishes outside the body): F is exactly zero off them.  K and K* run
    on one FamilyOperator, whose support (op.support) is the grid's domain,
    built here and dropped on return: the right-hand side b is one
    kdata_adjoint, and every iteration one normal pass
    (FamilyOperator.normal) with the K dyads in the deviatoric basis, on
    (support nodes, 5) vectors.  lam is 1e-6 |b| / |kdata|.  Returns (F,
    info): info holds the iteration count, lam, the final relative
    residual, the relative residual after every iteration, the support's
    node count (support_nodes), the operator's entry count on the support
    and its build time, and normal_s, the time spent in the normal passes.
    """
    if kdata.kind != "kpair":
        raise ValueError("invert_K_tracefree expects kpair records")
    op = FamilyOperator(kdata.family, grid)
    support = op.support
    info = {"support_nodes": op.size, "operator_entries": op.entries,
            "operator_build_s": op.build_s}
    b = _sym_to_coef(kdata_adjoint(op, kdata.values).values[support])
    if not np.any(b):
        F = SymField2(grid, np.zeros(grid.dims + (6,)))
        return F, dict(info, iterations=0, lam=0.0, residual=0.0, residuals=[], normal_s=0.0)
    rows = (SYM_MULT * _kpair_dyads(*op.family.views())) @ _DEV_BASIS.T
    data_norm = float(np.linalg.norm(kdata.values))
    lam = 1e-6 * float(np.linalg.norm(b)) / max(data_norm, 1e-300)
    # x0 = 0, so r = b exactly
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.sum(r * r))
    b0 = float(np.sum(b * b))
    history = []
    iters = 0
    normal_s = 0.0
    for iters in range(1, maxiter + 1):
        t0 = time.perf_counter()
        Ap = op.normal(p, rows)
        normal_s += time.perf_counter() - t0
        Ap += lam * p
        alpha = rs / float(np.sum(p * Ap))
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(np.sum(r * r))
        history.append(float(np.sqrt(rs_new / b0)))
        if rs_new <= tol**2 * b0:
            rs = rs_new
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    else:
        raise RuntimeError(
            f"normal-equation CG did not converge in {maxiter} iterations "
            f"(residual {np.sqrt(rs / b0):.3e})"
        )
    coef = np.zeros(grid.dims + (5,))
    coef[support] = x
    F = SymField2(grid, _coef_to_sym(coef))
    return F, dict(info, iterations=iters, lam=lam, residual=history[-1], residuals=history,
                   normal_s=normal_s)


# ---------------------------------------------------------------------------
# scalar trace recovery (filtered backprojection)


def _ramlak_filter(p, offsets):
    """Ramp-filtered projections along the last axis.

    With p-hat the continuous transform of the projections, returns
    (1/(4 pi^2)) integral |nu| p-hat e^{i nu o} dnu sampled back on the
    offset grid; the offset-origin phases of the forward and inverse
    transforms cancel, leaving ifft(fft(p) |nu|) / (2 pi), here over the
    half spectrum of the real projections.
    """
    n = p.shape[-1]
    npad = 2 * n
    do = offsets[1] - offsets[0]
    nu = 2.0 * np.pi * np.fft.rfftfreq(npad, d=do)
    spec = np.fft.rfft(p, n=npad, axis=-1) * nu
    return np.fft.irfft(spec, n=npad, axis=-1)[..., :n] / (2.0 * np.pi)


def _trace_dyads(d, frame, a):
    """Polarization mean and split of the diagonal generator entries:
    (G11 + G22)/2 and G11 - G22 per unit shear weight."""
    g11, g22, _ = np.moveaxis(_generator_dyads(d, frame, a), -2, 0)
    return np.stack([0.5 * (g11 + g22), g11 - g22], axis=-2)


def _require_trace_recoverable(a):
    """NonUniqueError when a + 2/3 vanishes: the diagonal shear data then
    carry no trace."""
    if abs(a + 2.0 / 3.0) < _NULL_FLOOR:
        raise NonUniqueError("a + 2/3 vanishes: the trace cannot be recovered")


def recover_trace(ldata, Ftilde: SymField2, a, eta_tol=1e-6):
    """Trace of F from eta-averaged diagonal shear data and the known
    trace-free part.

    Per ray the two diagonal entries each equal (their F-tilde prediction)
    plus (a + 2/3) times the ray integral of tr F; the average over the two
    polarizations is used, and their disagreement is reported as a data
    consistency warning.  Only the family orthogonal to the third axis is
    read, for both the trace and the warning: its scalar transform is
    inverted slice by slice with Ram-Lak filtered backprojection, slice j
    into grid plane j.  That family must therefore be a whole stack of the
    grid's axis-3 planes (PlaneFamily.grid_plane), else ValueError naming
    it.  Any other family in ldata is ignored.
    """
    _require_trace_recoverable(a)
    grid = Ftilde.grid
    sinos = {s.family.axis: s for s in ldata}
    if 2 not in sinos:
        raise ValueError("trace recovery needs the family orthogonal to axis 3")

    def scalar_rhs(sino):
        L = sino.values
        diag = 0.5 * (L[..., 0, 0] + L[..., 1, 1])
        split = L[..., 0, 0] - L[..., 1, 1]
        pred = _gather(Ftilde.values, grid, sino.family, functools.partial(_trace_dyads, a=a))
        pred_diag, pred_split = pred[..., 0], pred[..., 1]
        mism = np.max(np.abs(split - pred_split))
        scale = max(np.max(np.abs(diag)), 1e-300)
        if mism > eta_tol * scale:
            warnings.warn(
                f"polarization split disagrees with the trace-free part "
                f"({mism / scale:.2e} relative): inconsistent data",
                stacklevel=2,
            )
        return (diag - pred_diag) / (a + 2.0 / 3.0)

    fam = sinos[2].family
    if fam.grid_plane(grid) != 2:
        raise ValueError(f"trace recovery reads slice j into grid plane j: family "
                         f"{fam.kind}{fam.axis} must be the grid's whole stack of axis-3 planes")
    p = scalar_rhs(sinos[2])  # (angles, offsets, slices)
    q = _ramlak_filter(np.moveaxis(p, 1, 2), fam.offsets)  # (angles, slices, offsets)

    # trig-upsample the filtered projections so the linear interpolation in
    # the backprojection stays below the data discretization error
    up = 4
    q = trig_upsample(q, up, axis=-1)
    do = (fam.offsets[1] - fam.offsets[0]) / up
    offs = fam.offsets[0] + do * np.arange(q.shape[-1])
    q = np.moveaxis(q, 1, 2)  # back to (angles, offsets, slices)

    ax = grid.axes()
    x1, x2 = np.meshgrid(ax[0], ax[1], indexing="ij")
    out = np.zeros(grid.dims)
    dtheta = np.pi / len(fam.thetas)
    for ai, th in enumerate(fam.thetas):
        # offset coordinate of every in-plane node for this angle
        t = -np.sin(th) * x1 + np.cos(th) * x2
        j = np.searchsorted(offs, t) - 1
        ok = (j >= 0) & (j < len(offs) - 1)
        j = np.clip(j, 0, len(offs) - 2)
        wt = (t - offs[j]) / do
        vals = (1.0 - wt)[..., None] * q[ai, j, :] + wt[..., None] * q[ai, j + 1, :]
        out += np.where(ok[..., None], vals, 0.0) * dtheta
    out *= grid.domain_mask()
    return ScalarField(grid, out)


def swave_pipeline(sinograms, params, grid: Grid3, scale, maxiter=CG_MAXITER, tol=CG_TOL):
    """Shear reconstruction from propagator sinograms.

    sinograms: propagator records over one dense-sphere family (feeds the
    trace-free inversion, solved on the ball's nodes) and three
    coordinate-plane families, of which only the one orthogonal to the
    third axis feeds the scalar trace recovery and its split warning; the
    other two are required but not used.  scale is the stress amplitude
    used when the propagators were collected; the result approximates the
    true R up to the quadratic Born remainder.  maxiter and tol go to
    invert_K_tracefree; the defaults are the CLI's.  When a + 2/3 vanishes
    the trace cannot be recovered, and NonUniqueError is raised before any
    work.
    """
    t0 = time.perf_counter()
    sw = swave_weights(params)
    _require_trace_recoverable(sw.a)
    report = ReconReport(
        config={"pipeline": "swave", "a": sw.a, "scale": scale, "weight": sw.scale}
    )
    sphere = [s for s in sinograms if isinstance(s.family, SphereFamily)]
    planes = [s for s in sinograms if isinstance(s.family, PlaneFamily)]
    if len(sphere) != 1 or len(planes) != 3:
        raise ValueError("expected one sphere-family and three plane-family sinograms")
    drift = max(unitarity_drift(s.values) for s in sinograms)
    report.conditions["unitarity_drift"] = drift

    norm = 1.0 / (scale * sw.scale)

    def lmatrix(s):
        return s.copy_with("lmatrix", born_reduce(s).values * norm)

    kdata = truncated_reduce(lmatrix(sphere[0]))
    t1 = time.perf_counter()
    Ft, report.stages["cg"] = invert_K_tracefree(kdata, grid, maxiter=maxiter, tol=tol)
    report.timing["invert_K"] = time.perf_counter() - t1

    # the plane families feed only the trace recovery: reduce them after
    # the solve, so they are not resident beside the operator
    lplanes = [lmatrix(s) for s in planes]

    t2 = time.perf_counter()
    # the split consistency check compares against the *estimated* trace-free
    # part, so its tolerance must sit above the reconstruction error level
    tr_rec = recover_trace(lplanes, Ft, sw.a, eta_tol=0.2)
    report.timing["recover_trace"] = time.perf_counter() - t2

    R = SymField2(grid, Ft.values + (tr_rec.values[..., None] / 3.0) * identity_sym(grid).values)
    report.stages["tracefree_norm"] = Ft.norm()
    report.stages["trace_norm"] = tr_rec.norm()
    report.stages["R_norm"] = R.norm()
    report.timing["total"] = time.perf_counter() - t0
    return R, report


# ---------------------------------------------------------------------------
# Poincare-type verification


def verify_poincare(v: CovectorField):
    """Ratio |v|^2 / ((D^2/10)(2 |dv|^2 + |delta v|^2)); at most 1.

    v must be real and vanish near the domain boundary, within 3% of the
    ball's radius up to 1e-6 of its maximum (else ValueError); D is the
    Euclidean diameter of the ball domain.  Both derivative norms come by
    Parseval from one half spectrum V of v: 2 |dv|^2 + |delta v|^2 sums
    |y|^2 |V|^2 + 2 |y.V|^2 over the frequencies, with no inverse
    transform.
    """
    grid = v.grid
    vmax = float(np.max(np.abs(v.values)))
    if vmax == 0.0:
        return 0.0
    c = np.asarray(grid.domain.center)
    x1, x2, x3 = np.meshgrid(*grid.axes(), indexing="ij", sparse=True)
    r = np.sqrt((x1 - c[0]) ** 2 + (x2 - c[1]) ** 2 + (x3 - c[2]) ** 2)
    rim = r > grid.domain.radius * (1.0 - 0.03)
    if np.max(np.abs(v.values[rim])) > 1e-6 * vmax:
        raise ValueError("field does not vanish on the boundary margin")
    D = 2.0 * grid.domain.radius
    spec, ys, weights = _half_spectrum(v.values, grid)
    ysq = ys[0] ** 2 + ys[1] ** 2 + ys[2] ** 2
    ydotv = ys[0] * spec[..., 0] + ys[1] * spec[..., 1] + ys[2] * spec[..., 2]
    power = ysq * np.sum(np.abs(spec) ** 2, axis=-1) + 2.0 * np.abs(ydotv) ** 2
    nv = float(np.sum(v.values**2)) * grid.cell_volume()
    return nv / ((D**2 / 10.0) * _parseval_norm2(power, weights, grid))
