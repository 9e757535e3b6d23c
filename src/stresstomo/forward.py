"""Forward data synthesis for the constant-coefficient pipelines.

The longitudinal and truncated-transverse ray transforms of symmetric
2-tensor fields over ray families; the compressional phase data; the
shear-wave polarization propagator (a unitary 2x2 ODE flow in the ray
frame) with its Born reduction to mixed-ray-transform data; and the
adjoint K* used by iterative inversion.

Every family-level transform is one operation with its own dyad table,
evaluated once per call on the family's stacked views: per view, the field
is contracted on the grid with k <= 3 dyads fixed by the view's direction
and frame, and only those k scalars are interpolated at the chord nodes and
summed with the family's trapezoid weights (_gather).  Only chords that
cross the ball are sampled; an empty chord (L = 0) gets the record of zero
samples, exactly 0 for the integrals and exactly the identity for the
propagators.  The adjoints run over the same chords' merged interpolation
weights, held by a FamilyOperator.  Built once for one family, it lets a
solver apply K* and K*K, the latter in one pass per view
(FamilyOperator.normal), without rebuilding the geometry.  An operator
keeps only the entries on the nodes of its grid's domain (the ball, or
every node of a box domain), numbered over those nodes, so a solver's
unknowns are the domain's nodes alone.  Every transform takes a
family (the adjoint, an operator); references that follow single rays live
with the tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fields import SYM_MULT, SYM_PAIRS, SymField2
from .geometry import _stencil, chord_nodes, trilinear
from .material import ConditionError, check_pwave_conditions, pwave_weights, swave_weights

_EYE2 = np.eye(2)
_G6 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])  # the metric in symmetric storage


@dataclass
class Sinogram:
    """Per-ray data records for one ray family.

    kind "scalar": values[view, ...offsets] reals; kind "propagator":
    trailing (2, 2) complex matrices; kind "lmatrix": trailing (2, 2) real
    quadratic forms; kind "kpair": trailing (d, o) trace-free pairs.
    """

    family: object
    kind: str
    values: np.ndarray
    drift: float | None = None  # unitarity drift of propagator records

    def copy_with(self, kind, values):
        return Sinogram(self.family, kind, values)


def sym_outer(a, b):
    """Symmetric storage components of sym(a x b): the slot of each SYM_PAIRS
    pair (j, k) holds (a_j b_k + a_k b_j) / 2, exactly a_j b_j when j = k."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.stack([0.5 * (a[..., j] * b[..., k] + a[..., k] * b[..., j]) for j, k in SYM_PAIRS],
                    axis=-1)


# ---------------------------------------------------------------------------
# dyad tables: (direction, frame) -> (..., k, 6) rows in symmetric storage


def _tangent_dyads(d, frame):
    """I: the tangent dyad d d."""
    return sym_outer(d, d)[..., None, :]


def _kpair_dyads(d, frame):
    """K: the trace-free pair (e1 e1 - e2 e2)/2 and sym(e1 e2)."""
    e1, e2 = frame[..., 0, :], frame[..., 1, :]
    return np.stack([0.5 * (sym_outer(e1, e1) - sym_outer(e2, e2)), sym_outer(e1, e2)], axis=-2)


def _generator_dyads(d, frame, a):
    """Entries (11, 22, 12) of the polarization generator per unit shear
    weight: G_ab = R(e_a, e_b) + delta_ab (R_dd + a tr R)."""
    e1, e2 = frame[..., 0, :], frame[..., 1, :]
    diag = sym_outer(d, d) + a * _G6
    return np.stack([sym_outer(e1, e1) + diag, sym_outer(e2, e2) + diag, sym_outer(e1, e2)], axis=-2)


def _shear_dyads(params, scale):
    """The generator table with the shear weight, for the stress times scale."""
    sw = swave_weights(params)
    return lambda d, frame: scale * sw.scale * _generator_dyads(d, frame, sw.a)


def _pwave_dyads(params):
    """The compressional table: the tangent dyad plus a times the metric,
    with the compressional weight."""
    w = pwave_weights(params)
    return lambda d, frame: w.scale * (sym_outer(d, d) + w.a * _G6)[..., None, :]


def _sym2(g):
    """Entries (..., 3) in the order (11, 22, 12) -> symmetric (..., 2, 2)."""
    return np.stack([g[..., [0, 2]], g[..., [2, 1]]], axis=-2)


# ---------------------------------------------------------------------------
# the gather/scatter pair


def _trapezoid(samples, w, dt):
    return np.sum(samples * w[..., None], axis=-2)


def _gather(values, grid, family, dyads, per_view=_trapezoid):
    """Contract-then-gather over the views of a family.

    The dyad table dyads(directions, frames) (views, k, 6) is evaluated once.
    Per view the grid field (dims + (6,)) is first contracted with the
    view's k dyads, so trilinear samples only k scalars, and only on the
    chords that cross the ball.  A whole stack of the grid's planes
    (grid_plane: slice j lies in plane j) is sampled bilinearly within them,
    with one in-plane stencil per offset: every live chord of an offset has
    the same in-plane nodes (PlaneFamily._half_lengths), so trilinear reads
    the samples of every plane at them in one pass, and the chord at
    (offset, slice j) takes plane j's.  Every other family, a plane family
    on only some planes or off them included, takes the trilinear samples
    at its chord nodes.  per_view(samples (..., n, k), weights (..., n),
    step (...)) maps them to the view's records, by default the k
    trapezoid integrals per ray.  Every empty chord gets per_view's record
    for zero samples, weights and step.
    """
    flat = values.reshape(-1, 6)
    tables = SYM_MULT * dyads(*family.views())
    n, k = family.n_nodes, tables.shape[-2]
    empty = per_view(np.zeros((n, k)), np.zeros(n), np.zeros(()))
    out = np.empty(family.shape + empty.shape, empty.dtype)
    plane = family.grid_plane(grid)
    for m, D in enumerate(tables):
        starts, d, lengths = family.chords(m)
        live = lengths > 0.0
        contracted = (flat @ D.T).reshape(grid.dims + (k,))
        out[m] = empty
        if plane is None:
            pts, w, dt = chord_nodes(starts[live], d, lengths[live], n)
            samples = trilinear(grid, contracted, pts)
        else:
            off, sl = np.nonzero(live)
            new = np.diff(off, prepend=-1) != 0
            first, row = np.flatnonzero(new), np.cumsum(new) - 1
            pts, w, dt = chord_nodes(starts[off[first], sl[first]], d,
                                     lengths[off[first], sl[first]], n)
            inplane = np.delete(pts, plane, axis=-1)
            # (offsets, n, planes, k) -> the live chords' (n, k) blocks
            samples = trilinear(grid, contracted, inplane, plane=plane).swapaxes(1, 2)[row, sl]
            w, dt = w[row], dt[row]
        out[m][live] = per_view(samples, w, dt)
    return out


_STEP_ENTRIES = 16384  # chords x nodes x corners per build step: below 1 MB of temporaries


@dataclass
class _ViewStencil:
    """Merged interpolation weights of one view's chords.

    rays: flat indices (into the view's offsets) of the chords that carry
    entries, in order; counts: entries per such chord, and starts: the
    index of each such chord's first entry; nodes (int32) and weights: the
    flat grid node and the trapezoid-weighted trilinear weight of every
    entry, merged per (chord, node) and ordered by chord, then node.
    """

    rays: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray


def _view_stencils(family, grid):
    """Yield the merged stencil of every view of a family, chunk by chunk.

    The entries on nodes outside the grid's domain (grid.domain_mask()) are
    dropped before merging, so the merged weights of the kept nodes are
    those of the whole grid, and nodes are numbered over the domain's nodes
    in flat order.
    """
    size = int(np.prod(grid.dims))
    inside = grid.domain_mask().ravel()
    number = (np.cumsum(inside) - 1).astype(np.int32)
    plane = family.grid_plane(grid)
    corners = 8 if plane is None else 4
    chunk = max(1, _STEP_ENTRIES // (family.n_nodes * corners))
    for m in range(family.n_views):
        starts, d, lengths = family.chords(m)
        flat_starts, flat_lengths = starts.reshape(-1, 3), lengths.ravel()
        live = np.flatnonzero(flat_lengths > 0.0)
        parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int32), np.zeros(0))]
        for c in range(0, len(live), chunk):
            sel = live[c : c + chunk]
            pts, w, _ = chord_nodes(flat_starts[sel], d, flat_lengths[sel], family.n_nodes)
            keys = np.empty((len(sel), corners, family.n_nodes), np.int64)
            wts = np.empty(keys.shape)
            for j, (idx, cw) in enumerate(_stencil(grid, pts, plane=plane)):
                keys[:, j] = idx
                np.multiply(cw, w, out=wts[:, j])
            keep = (wts != 0.0) & inside[keys]
            if not np.any(keep):
                continue
            keys += sel[:, None, None] * size
            keys, wts = keys[keep], wts[keep]
            order = np.argsort(keys, kind="stable")
            keys, wts = keys[order], wts[order]
            first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
            rays, counts = np.unique(keys[first] // size, return_counts=True)
            nodes = number[keys[first] % size]
            parts.append((rays, counts, nodes, np.add.reduceat(wts, first)))
        rays, counts, nodes, weights = (np.concatenate(p) for p in zip(*parts))
        yield _ViewStencil(rays, counts, np.cumsum(counts) - counts, nodes, weights)


class FamilyOperator:
    """One family's chord stencils on one grid, built once for repeated
    transforms (the CG solve of invert_K_tracefree).

    adjoint(data, dyads) is the exact transpose of the merged stencils'
    trapezoid integrals, which are _gather's up to the summation order, and
    normal(x, rows) the integrals and their transpose in one pass.  An entry
    is an int32 node and a float64 weight, 12 bytes.  Forward transforms use
    _gather: building costs more than one gather, so an adjoint pays for
    an operator only when the caller applies it repeatedly, and kdata_adjoint
    takes the caller's operator rather than building one per call.

    The support is the grid's domain, grid.domain_mask(): the ball on the
    grids the pipelines build, every node on a box-domain grid.  The
    operator acts on fields that vanish off it: only the entries on its
    nodes are kept, and size is its node count.  normal maps (size, c)
    coefficients of the support's nodes in flat order, and adjoint returns
    a whole-grid field, zero off the support.
    """

    def __init__(self, family, grid):
        t0 = time.perf_counter()
        self.family, self.grid, self.support = family, grid, grid.domain_mask()
        self.size = int(np.count_nonzero(self.support))
        self.views = list(_view_stencils(family, grid))
        self.build_s = time.perf_counter() - t0

    @property
    def entries(self):
        return sum(len(v.nodes) for v in self.views)

    def adjoint(self, data, dyads):
        """Per view each of the k data streams is repeated over its chord's
        entries, weighted and summed onto the grid nodes (one bincount per
        stream), then expanded with the view's dyads.  Dividing by the cell
        volume makes this the adjoint for the plain sum over rays and the
        cell-volume weighted L2 field inner product."""
        out = np.zeros((self.size, 6))
        for rec, v, D in zip(data, self.views, dyads(*self.family.views())):
            rec = rec.reshape(-1, rec.shape[-1])[v.rays]
            out += self._spread(rec.T, v).T @ D
        full = np.zeros(self.grid.dims + (6,))
        full[self.support] = out / self.grid.cell_volume()
        return SymField2(self.grid, full)

    def normal(self, x, rows):
        """A* A on coefficients x of the support's nodes, (size, c) or, on a
        box-domain grid, dims + (c,), in one pass per view, for the
        transform A whose view rows (views, k, c) map a node's coefficients
        to the view's k dyad contractions (the dyads times SYM_MULT, in the
        coefficient basis): the k scalars are taken at the view's entries
        in one (k, entries) block, weighted and summed per chord, spread
        back over the same entries (_spread) and expanded with the rows
        transposed."""
        c = x.shape[-1]
        flat = np.ascontiguousarray(x.reshape(-1, c).T)
        out = np.zeros((c, self.size))
        for v, A in zip(self.views, rows):
            if len(v.rays):
                s = np.take(A @ flat, v.nodes, axis=1)
                s *= v.weights
                s = np.add.reduceat(s, v.starts, axis=1)  # frees the (k, entries) block
                out += A.T @ self._spread(s, v)
        out /= self.grid.cell_volume()
        return out.T.reshape(x.shape)

    def _spread(self, sums, v):
        """Chord values (k, chords) of view stencil v, repeated over each
        chord's entries, weighted and summed onto the nodes: (k, size)."""
        back = np.repeat(sums, v.counts, axis=-1)
        back *= v.weights
        return np.stack([np.bincount(v.nodes, b, self.size) for b in back])


# ---------------------------------------------------------------------------
# longitudinal transform and compressional data


def longitudinal_transform(u: SymField2, family) -> Sinogram:
    """I(u): per chord of the family the integral of u_jk tangent^j tangent^k."""
    return Sinogram(family, "scalar", _gather(u.values, u.grid, family, _tangent_dyads)[..., 0])


def pwave_data(R: SymField2, params, family):
    """Compressional phase data D per ray of one family.

    D = integral of scale * (R_tt + a * tr R) with the constant-coefficient
    weights; equals I(f + a (tr f) g) for f = scale * R.
    """
    rep = check_pwave_conditions(params)
    for key in ("weight_sum", "leading_weight"):
        if not rep.passed[key]:
            raise ConditionError(f"material condition {key} fails: {rep.values[key]:.3g}")
    if not params.constants_mode:
        raise NotImplementedError("geodesic compressional data needs constant coefficients here")
    vals = _gather(R.values, R.grid, family, _pwave_dyads(params))
    return Sinogram(family, "scalar", vals[..., 0])


# ---------------------------------------------------------------------------
# shear-wave propagator


def _qmul(a, b):
    """Products a b of unit quaternions stacked as (4, ...) real arrays;
    (q0, q) stands for the SU(2) matrix q0 - i q . sigma."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + b0 * a1 + a2 * b3 - a3 * b2,
            a0 * b2 + b0 * a2 + a3 * b1 - a1 * b3,
            a0 * b3 + b0 * a3 + a1 * b2 - a2 * b1,
        ]
    )


def _flow(g, h):
    """Propagator of U' = -i G(tau) U over the nodes of g (..., n, 3), the
    entries (11, 22, 12) of the real symmetric G, with steps h broadcastable
    to (..., n - 1).

    Each step is the commutator-corrected Magnus step exp(Omega), Omega =
    -i h (G_i + G_{i+1})/2 - (h^2/12) [G_{i+1}, G_i] (Blanes, Casas, Oteo &
    Ros, Phys. Rep. 470, 2009): exact for constant G, fourth order for G
    linear between nodes, and its first-order term is the trapezoid rule of
    mixed_transform.  The commutator of real symmetric matrices is the
    sigma_y part, so Omega = -i H with H = h0 + hx sx + hy sy + hz sz
    Hermitian, and exp(-i H) = e^{-i h0} (cos t - i sinc t (hx sx + hy sy
    + hz sz)), t = |(hx, hy, hz)|, is unitary to roundoff.

    The phases e^{-i h0} commute with every step: their exponents are summed
    along the chord and applied once at the end.  The rest of each step is
    the unit quaternion (cos t, sinc t (hx, hy, hz)); the ordered product of
    these is taken pairwise, later step on the left, in ceil(log2(n - 1))
    vectorized rounds of real arithmetic, an odd count padded with the
    identity quaternion.
    """
    diff = g[..., 0] - g[..., 1]
    off = g[..., 2]
    comm = off[..., :-1] * diff[..., 1:] - off[..., 1:] * diff[..., :-1]  # [G2, G1]_01
    hx = 0.5 * h * (off[..., :-1] + off[..., 1:])
    hy = h**2 / 12.0 * comm
    hz = 0.25 * h * (diff[..., :-1] + diff[..., 1:])
    tr = g[..., 0] + g[..., 1]
    phase = np.sum(0.25 * h * (tr[..., :-1] + tr[..., 1:]), axis=-1)
    t = np.sqrt(hx**2 + hy**2 + hz**2)
    sinc = np.sinc(t / np.pi)
    q = np.stack([np.cos(t), sinc * hx, sinc * hy, sinc * hz])
    one = np.zeros(q.shape[:-1] + (1,))
    one[0] = 1.0
    if not q.shape[-1]:
        q = one
    while q.shape[-1] > 1:
        if q.shape[-1] % 2:
            q = np.concatenate([q, one], axis=-1)
        q = _qmul(q[..., 1::2], q[..., ::2])
    q0, qx, qy, qz = q[..., 0]
    U = np.stack(
        [
            np.stack([q0 - 1j * qz, -qy - 1j * qx], axis=-1),
            np.stack([qy - 1j * qx, q0 + 1j * qz], axis=-1),
        ],
        axis=-2,
    )
    return U * np.exp(-1j * phase)[..., None, None]


def unitarity_drift(U):
    return float(np.max(np.abs(np.einsum("...ba,...bc->...ac", np.conj(U), U) - _EYE2)))


def _checked_drift(U, tol):
    """The unitarity drift of U; a RuntimeError above tol or not a number."""
    drift = unitarity_drift(U)
    if not drift <= tol:
        raise RuntimeError(f"unitarity drift {drift:.3g} exceeds {tol:.3g}")
    return drift


def rytov_family(R: SymField2, params, family, scale=1.0, tol=1e-8) -> Sinogram:
    """Propagators for every chord of a family: _flow over each chord's
    equispaced nodes, vectorized per view; an empty chord's record is
    exactly the identity.  The unitarity drift of the records is kept as
    `drift`; above tol, or not a number, it raises RuntimeError."""

    def per_view(g, w, dt):
        return _flow(g, dt[..., None])

    U = _gather(R.values, R.grid, family, _shear_dyads(params, scale), per_view)
    return Sinogram(family, "propagator", U, drift=_checked_drift(U, tol))


def born_reduce(sino: Sinogram) -> Sinogram:
    """Born-linearized quadratic-form data from propagators.

    Re[i(U - E)] symmetrized equals the mixed-transform matrix up to a
    remainder quadratic in the stress scale.
    """
    if sino.kind != "propagator":
        raise ValueError("born_reduce expects propagator records")
    B = -np.imag(sino.values)  # Re(i (U - E))
    L = 0.5 * (B + np.swapaxes(B, -1, -2))
    return sino.copy_with("lmatrix", L)


def mixed_transform(R: SymField2, params, family, scale=1.0) -> Sinogram:
    """Direct quadrature of the mixed ray transform: per ray the 2x2 form
    with entries integral of G_ab (the Born limit of the propagator data)."""
    lm = _gather(R.values, R.grid, family, _shear_dyads(params, scale))
    return Sinogram(family, "lmatrix", _sym2(lm))


def truncated_reduce(lm: Sinogram) -> Sinogram:
    """Trace-free (d, o) pairs of the L-matrix data.

    D(gamma, eta) = L(gamma, eta) - |eta|^2/2 (L(gamma, e1) + L(gamma, e2))
    as a quadratic form is L minus half its trace times the identity; the
    pair (d, o) = ((L11 - L22)/2, (L12 + L21)/2) represents it in the
    frame basis and rotates as a spin-2 object under frame rotations.
    """
    if lm.kind != "lmatrix":
        raise ValueError("truncated_reduce expects lmatrix records")
    L = lm.values
    d = 0.5 * (L[..., 0, 0] - L[..., 1, 1])
    o = 0.5 * (L[..., 0, 1] + L[..., 1, 0])
    return lm.copy_with("kpair", np.stack([d, o], axis=-1))


# ---------------------------------------------------------------------------
# direct K transform and its adjoint


def kdata_transform(F: SymField2, family) -> Sinogram:
    """K(F): the truncated transverse transform straight from a field.

    Per ray, d = integral of F : (e1 e1 - e2 e2)/2 and o = integral of
    F : sym(e1 x e2).
    """
    return Sinogram(family, "kpair", _gather(F.values, F.grid, family, _kpair_dyads))


def kdata_adjoint(op: FamilyOperator, values) -> SymField2:
    """K*: backprojection of (d, o) pairs onto the frame's trace-free dyads,
    over the operator's stencils."""
    return op.adjoint(values, _kpair_dyads)


def add_noise(sino: Sinogram, level, rng) -> Sinogram:
    """Additive Gaussian noise scaled to the rms of the stored values."""
    v = sino.values
    sigma = level * float(np.sqrt(np.mean(np.abs(v) ** 2)))
    return sino.copy_with(sino.kind, v + sigma * rng.standard_normal(v.shape))
