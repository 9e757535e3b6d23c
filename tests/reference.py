"""Per-ray and single-purpose references for the package's family transforms.

The package computes every ray transform per family (forward._gather,
forward.FamilyOperator).  The functions here compute the same quantities
one ray at a time, or in their plain textbook form, so that tests can
compare the two independently.  Nothing in the package imports them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from stresstomo.fields import SYM_MULT, CovectorField, Domain, Grid3, ScalarField, SymField2
from stresstomo.fields import _random_bumps, random_smooth_field, trig_upsample
from stresstomo.forward import (
    FamilyOperator,
    Sinogram,
    _checked_drift,
    _flow,
    _shear_dyads,
    _tangent_dyads,
)
from stresstomo.geometry import Ray, _orthobasis, _transport, chord_nodes, trilinear

# ---------------------------------------------------------------------------
# fields


def box_domain(grid):
    """The grid with a box domain: a FamilyOperator on it keeps every node."""
    return dataclasses.replace(grid, domain=Domain())


def sym_inner(u: SymField2, w: SymField2):
    """L2 inner product of two symmetric fields."""
    prod = np.sum(SYM_MULT * u.values * np.conj(w.values), axis=-1)
    return float(np.real(np.sum(prod))) * u.grid.cell_volume()


def trace(u: SymField2) -> ScalarField:
    """Euclidean trace tr u = u_11 + u_22 + u_33."""
    return ScalarField(u.grid, u.values[..., 0] + u.values[..., 1] + u.values[..., 2])


def full_wavevectors(grid):
    """Wavevectors (y1, y2, y3) of the full spectrum (fftn) with the Nyquist
    planes zeroed, as dense grid-shaped arrays."""
    ks = grid.freqs()
    for k, n in zip(ks, grid.dims):
        if n % 2 == 0:
            k[n // 2] = 0.0
    return np.meshgrid(*ks, indexing="ij")


def full_nyquist_mask(grid):
    """Boolean mask of the full-spectrum nodes on any Nyquist plane: those
    whose fftfreq is -1/2 along some axis (an even axis's bin n // 2)."""
    fs = np.meshgrid(*[np.fft.fftfreq(n) for n in grid.dims], indexing="ij")
    return np.any([f == -0.5 for f in fs], axis=0)


def spectral_upsample(field, factor):
    """Resample a field onto a factor-times finer grid by trig interpolation
    along each axis.

    Exact for the band-limited representation the grid already carries, so
    downstream trilinear sampling sees a denser, smoother field.  Returns a
    field of the same type on the refined grid.
    """
    if factor == 1:
        return field
    grid = field.grid
    fine = Grid3(
        tuple(n * factor for n in grid.dims),
        tuple(h / factor for h in grid.spacing),
        grid.origin,
        grid.domain,
    )
    vals = field.values
    for axis in range(3):
        vals = trig_upsample(vals, factor, axis)
    return type(field)(fine, vals)


def random_bump_scalar(grid, rng, radius=None, degree=2) -> ScalarField:
    return ScalarField(grid, _random_bumps(grid, rng, 1, radius, degree)[..., 0])


def random_bump_covector(grid, rng, radius=None, degree=2) -> CovectorField:
    return CovectorField(grid, _random_bumps(grid, rng, 3, radius, degree))


def random_smooth_covector(grid, rng, width=14.0, degree=1) -> CovectorField:
    return CovectorField(grid, random_smooth_field(grid, rng, 3, width, degree))


# ---------------------------------------------------------------------------
# single rays


def line_ray(start, direction, length, step, with_frame=True):
    """Straight Euclidean unit-speed ray from start, uniform quadrature nodes."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    n = max(int(np.ceil(length / step)) + 1, 2)
    tau = np.linspace(0.0, length, n)
    pts = np.asarray(start, dtype=float) + tau[:, None] * d
    tangents = np.broadcast_to(d, (n, 3)).copy()
    frames = None
    if with_frame:
        e1, e2 = _orthobasis(d)
        frames = np.broadcast_to(np.stack([e1, e2]), (n, 2, 3)).copy()
    return Ray(pts, tangents, tau, frames)


def ball_chord(center, radius, point, direction):
    """Entry point and length of the chord of the ball cut by a line.

    The line is point + t * direction (unit direction); returns (entry, L)
    with L = 0 when the line misses the ball.
    """
    p = np.asarray(point, dtype=float) - np.asarray(center, dtype=float)
    d = np.asarray(direction, dtype=float)
    tm = -p @ d
    h2 = radius**2 - (p @ p - tm**2)
    if h2 <= 0.0:
        return np.asarray(point, dtype=float), 0.0
    hl = np.sqrt(h2)
    entry = np.asarray(point, dtype=float) + (tm - hl) * d
    return entry, 2.0 * hl


def family_ray(family, m, i, j, step=None):
    """The chord (i, j) of view m of a family as a Ray carrying the view
    frame; cut from the ball by ball_chord, independently of chords().
    Its nodes are step apart: by default a plane family's own step, or a
    64th of a sphere family's diameter (the family itself samples at grid
    plane crossings, crossing_samples).

    A plane family's chord whose line meets the ball is instead its
    offset's chord of the ball's equator disk (the line through center +
    s1 e1), moved by s2 e2 into its slice."""
    if step is None:
        step = family.step if family.kind == "plane" else family.radius / 32
    e1, e2 = family._frames[m]
    s1, s2 = family.offsets[i], family._off2[j]
    entry, length = ball_chord(family.center, family.radius,
                               family.center + s1 * e1 + s2 * e2, family._dirs[m])
    if family.kind == "plane" and length > 0.0:
        entry, length = ball_chord(family.center, family.radius, family.center + s1 * e1,
                                   family._dirs[m])
        entry = entry + s2 * e2
    r = line_ray(entry, family._dirs[m], length, step, with_frame=False)
    r.frames = np.broadcast_to(family._frames[m], (len(r.tau), 2, 3)).copy()
    return r


def chord_crossings(grid, start, d, length):
    """The grid-plane crossings of one chord start + [0, length] d, found
    plane by plane: k, the dominant axis of d, and the chord parameters t of
    the chord's crossings with the grid planes of axis k in chord order.
    Also the parameter of the first plane along the chord, crossed or not."""
    k = int(np.argmax(np.abs(d)))
    ts = sorted((x - start[k]) / d[k] for x in grid.axes()[k])
    return k, [t for t in ts if 0.0 <= t <= length], ts[0]


def plane_corners(grid, point, k):
    """The bilinear stencil of a point on a grid plane of axis k, by hand:
    (node, weight) for the four corners of its cell in that plane, in the
    order (0, 0), (0, 1), (1, 0), (1, 1) of the two in-plane axes (lower
    axis first), each weighted by the product of its two hat functions.  A
    point off the grid box has none; its plane is rounded first, so that a
    point on a boundary plane is inside whatever its coordinate's roundoff."""
    u = [(point[a] - grid.origin[a]) / grid.spacing[a] for a in range(3)]
    u[k] = np.rint(u[k])
    if not all(0.0 <= u[a] <= grid.dims[a] - 1 for a in range(3)):
        return []
    a, b = (x for x in range(3) if x != k)
    ia, ib = (min(int(u[x]), grid.dims[x] - 2) for x in (a, b))
    fa, fb = u[a] - ia, u[b] - ib
    corners = []
    for ca in (0, 1):
        for cb in (0, 1):
            node = [int(u[k])] * 3
            node[a], node[b] = ia + ca, ib + cb
            corners.append((tuple(node), (fa if ca else 1.0 - fa) * (fb if cb else 1.0 - fb)))
    return corners


def plane_bilinear(grid, values, point, k):
    """values (dims + comps) at a point on a grid plane of axis k: the sum
    over its plane_corners of corner value times weight; zero off the box."""
    out = np.zeros(values.shape[3:])
    for node, w in plane_corners(grid, point, k):
        out = out + values[node] * w
    return out


def crossing_samples(grid, values, start, d, length, pad=None):
    """The per-ray crossing reference of one chord: its crossings
    (chord_crossings) as points (c, 3), the values read bilinearly by hand
    at them (plane_bilinear), trapezoid weights (c,) on the crossings, half
    at the first and last and all zero below two crossings, and the steps
    (c - 1,) h_k / |d_k| between them.  With pad, the chord is padded to pad
    nodes by the family's rule: copies of the last crossing, or the first
    plane's point when there is none, with zero weight and zero step."""
    k, ts, first = chord_crossings(grid, start, d, length)
    c = len(ts)
    if pad is not None:
        ts = ts + [ts[-1] if ts else first] * (pad - c)
    pts = np.asarray([start + t * d for t in ts]).reshape(-1, 3)
    samples = np.asarray([plane_bilinear(grid, values, p, k) for p in pts])
    samples = samples.reshape((len(pts),) + values.shape[3:])
    delta = grid.spacing[k] / abs(d[k])
    steps = np.where(np.arange(len(pts) - 1) < c - 1, delta, 0.0)
    w = np.zeros(len(pts))
    if c > 1:
        w[:c] = delta
        w[0] = w[c - 1] = 0.5 * delta
    return pts, samples, w, steps


def family_rays(family):
    for idx in np.ndindex(family.shape):
        yield idx, family_ray(family, *idx)


def reverse_ray(ray: Ray) -> Ray:
    """The same segment traversed backwards."""
    return Ray(
        ray.points[::-1].copy(),
        -ray.tangents[::-1].copy(),
        (ray.tau[-1] - ray.tau)[::-1].copy(),
        None if ray.frames is None else ray.frames[::-1].copy(),
        ray.metric,
    )


def parallel_transport(ray: Ray, vector):
    """Transport a tangent-orthogonal vector from the ray start to its end.

    Preserves h-inner products; the identity for straight rays in a
    constant metric.
    """
    v = np.asarray(vector, dtype=float)
    t0 = ray.tangents[0]
    if abs(v @ t0) > 1e-8 * np.linalg.norm(v) * np.linalg.norm(t0):
        raise ValueError("vector must be orthogonal to the initial tangent")
    if ray.metric is None:
        return v.copy()
    return _transport(ray.metric, ray, v)[-1]


def speed_variation(metric):
    """Relative spread of a ConformalMetric's speed v: a constant-closeness
    diagnostic, not a bound."""
    return (metric.v_max - metric.v_min) / (0.5 * (metric.v_max + metric.v_min))


# ---------------------------------------------------------------------------
# per-ray transforms


def sym_qform(vals6, a, b):
    """u_jk a^j b^k from symmetric storage (11,22,33,23,13,12)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (
        vals6[..., 0] * a[..., 0] * b[..., 0]
        + vals6[..., 1] * a[..., 1] * b[..., 1]
        + vals6[..., 2] * a[..., 2] * b[..., 2]
        + vals6[..., 3] * (a[..., 1] * b[..., 2] + a[..., 2] * b[..., 1])
        + vals6[..., 4] * (a[..., 0] * b[..., 2] + a[..., 2] * b[..., 0])
        + vals6[..., 5] * (a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0])
    )


def ray_integral_scalar(field: ScalarField, ray: Ray):
    """Trapezoid quadrature of an interpolated scalar along one ray."""
    if len(ray.tau) == 0:
        raise ValueError("empty ray")
    if len(ray.tau) < 2:
        return 0.0
    vals = trilinear(field.grid, field.values, ray.points)
    return float(np.trapezoid(vals, ray.tau))


def longitudinal_rays(u: SymField2, rays):
    """I(u) over an iterable of Ray objects: per ray the integral of u_jk
    tangent^j tangent^k."""
    out = []
    for ray in rays:
        v = trilinear(u.grid, u.values, ray.points)
        out.append(np.trapezoid(sym_qform(v, ray.tangents, ray.tangents), ray.tau))
    return Sinogram(None, "scalar", np.asarray(out))


def transverse_transform(F: SymField2, ray: Ray, eta):
    """J(F)(ray, eta): the integral of F_jk eta^j eta^k for eta in the
    tangent-orthogonal plane."""
    eta = np.asarray(eta, dtype=float)
    if np.max(np.abs(ray.tangents @ eta)) > 1e-8 * np.linalg.norm(eta):
        raise ValueError("eta must be orthogonal to the ray tangent")
    vals = trilinear(F.grid, F.values, ray.points)
    return float(np.trapezoid(sym_qform(vals, eta, eta), ray.tau))


def rytov_propagate(R: SymField2, params, ray: Ray, scale=1.0, tol=1e-8, samples=None):
    """Propagator U of the polarization ODE dU/dtau = -i G U along one ray.

    G is sampled at the ray's nodes in its per-node frames and stepped by
    _flow over the ray's own intervals (a short last one included), so a
    Ray built from a family chord gives rytov_family's record for that
    chord.  The samples (n, 6) of R at the nodes are trilinear unless given
    (a sphere chord's, read within the crossed planes: crossing_samples).
    scale multiplies the stress (Born-regime studies); a unitarity drift of
    U above tol raises RuntimeError.
    """
    if ray.frames is None:
        raise ValueError("ray frame not populated")
    if samples is None:
        samples = trilinear(R.grid, R.values, ray.points)
    d = ray.tangents / np.linalg.norm(ray.tangents, axis=-1, keepdims=True)
    D = SYM_MULT * _shear_dyads(params, scale)(d, ray.frames)
    U = _flow(np.einsum("nc,nkc->nk", samples, D), np.diff(ray.tau))
    _checked_drift(U, tol)
    return U


def honest_rytov_family(R: SymField2, params, family, step, factor, scale=1.0) -> Sinogram:
    """Propagator records of every chord of a family from data the package's
    models did not make: R's band-limited interpolant (spectral_upsample by
    factor), contracted with each view's generator dyads, read trilinearly
    at equispaced chord nodes step / factor apart (chord_nodes) and stepped
    by _flow, one view at a time.  An empty chord's record is the identity."""
    fine = spectral_upsample(R, factor)
    flat = fine.values.reshape(-1, 6)
    n = int(np.ceil(2.0 * family.radius * factor / step)) + 1
    tables = SYM_MULT * _shear_dyads(params, scale)(*family.views())
    U = np.empty(family.shape + (2, 2), complex)
    U[:] = np.eye(2)
    for m, D in enumerate(tables):
        starts, d, lengths = family.chords(m)
        live = lengths > 0.0
        pts, _, dt = chord_nodes(starts[live], d, lengths[live], n)
        g = trilinear(fine.grid, (flat @ D.T).reshape(fine.grid.dims + (len(D),)), pts)
        U[m][live] = _flow(g, dt[..., None])
    return Sinogram(family, "propagator", U, drift=_checked_drift(U, 1e-8))


def longitudinal_adjoint(family, values, grid) -> SymField2:
    """I*: backprojection of scalar ray data onto tangent dyads, over an
    operator built here for the family on every node of the grid.

    Adjoint of longitudinal_transform with respect to the plain sum over
    rays and the L2 field inner product (cell-volume weighted).
    """
    return FamilyOperator(family, box_domain(grid)).adjoint(values[..., None], _tangent_dyads)
