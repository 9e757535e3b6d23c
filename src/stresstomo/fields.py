"""Uniform-grid tensor fields and spectral tensor calculus.

Symmetric rank-2 fields are stored with 6 components per node in the
order (11, 22, 33, 23, 13, 12).  All differential operators are spectral,
on one periodic Fourier space: the half spectrum (rfftn) of real fields;
they reject complex fields.
Fields that represent objects extended by zero outside the domain are
expected to vanish on nodes outside it; generators below guarantee that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# component order of symmetric storage: pairs (j,k) for each slot
SYM_PAIRS = [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
# slot index for a full (j,k) pair
SYM_SLOT = {(j, k): s for s, (j, k) in enumerate(SYM_PAIRS)}
SYM_SLOT.update({(k, j): s for s, (j, k) in enumerate(SYM_PAIRS)})
# multiplicity of each slot in a full double contraction
SYM_MULT = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])


@dataclass(frozen=True)
class Domain:
    """Region descriptor: the whole grid box or a ball strictly inside it."""

    kind: str = "box"  # "box" | "ball"
    center: tuple = (0.0, 0.0, 0.0)
    radius: float = 0.0

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "box":
            return np.ones(x.shape[:-1], dtype=bool)
        r2 = np.sum((x - np.asarray(self.center)) ** 2, axis=-1)
        return r2 <= self.radius**2


@dataclass(frozen=True)
class Grid3:
    dims: tuple  # nodes per axis
    spacing: tuple  # grid step per axis
    origin: tuple  # coordinate of node (0,0,0)
    domain: Domain = field(default_factory=Domain)

    def __post_init__(self):
        if any(n < 8 for n in self.dims):
            raise ValueError("need at least 8 nodes per axis")
        if any(h <= 0 for h in self.spacing):
            raise ValueError("spacing must be positive")
        if self.domain.kind == "ball":
            lo, hi = self.box()
            c = np.asarray(self.domain.center)
            if np.any(c - self.domain.radius < lo) or np.any(c + self.domain.radius > hi):
                raise ValueError("ball domain must lie inside the grid box")

    @classmethod
    def cube(cls, n, halfwidth=1.2, ball_radius=1.0):
        """Cubic grid on [-halfwidth, halfwidth]^3 with a ball domain at the origin."""
        h = 2.0 * halfwidth / n
        origin = (0.5 * h - halfwidth,) * 3  # cell-centered nodes
        dom = Domain("ball", (0.0, 0.0, 0.0), ball_radius) if ball_radius else Domain("box")
        return cls((n, n, n), (h, h, h), origin, dom)

    def axes(self):
        return [self.origin[i] + self.spacing[i] * np.arange(self.dims[i]) for i in range(3)]

    def coords(self):
        """(n1,n2,n3,3) array of node coordinates."""
        ax = self.axes()
        return np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)

    def box(self):
        lo = np.asarray(self.origin)
        hi = lo + (np.asarray(self.dims) - 1) * np.asarray(self.spacing)
        return lo, hi

    def domain_mask(self):
        return self.domain.contains(self.coords())

    def cell_volume(self):
        return float(np.prod(self.spacing))

    def freqs(self):
        """Angular frequency arrays per axis."""
        return [2.0 * np.pi * np.fft.fftfreq(n, d=h) for n, h in zip(self.dims, self.spacing)]


@dataclass
class ScalarField:
    grid: Grid3
    values: np.ndarray  # (n1,n2,n3)

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume()))


@dataclass
class CovectorField:
    grid: Grid3
    values: np.ndarray  # (n1,n2,n3,3)

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume()))


@dataclass
class SymField2:
    grid: Grid3
    values: np.ndarray  # (n1,n2,n3,6), order (11,22,33,23,13,12)

    def norm(self):
        """L2 norm accounting for off-diagonal multiplicity."""
        w = np.sum(SYM_MULT * np.abs(self.values) ** 2, axis=-1)
        return float(np.sqrt(np.sum(w) * self.grid.cell_volume()))

    def max_abs(self):
        return float(np.max(np.abs(self.values)))


def sym_to_matrix(values):
    """(...,6) -> (...,3,3)."""
    m = np.empty(values.shape[:-1] + (3, 3), dtype=values.dtype)
    for s, (j, k) in enumerate(SYM_PAIRS):
        m[..., j, k] = values[..., s]
        m[..., k, j] = values[..., s]
    return m


def matrix_to_sym(m):
    """(...,3,3) -> (...,6); symmetrizes the input."""
    out = np.empty(m.shape[:-2] + (6,), dtype=m.dtype)
    for s, (j, k) in enumerate(SYM_PAIRS):
        out[..., s] = 0.5 * (m[..., j, k] + m[..., k, j])
    return out


def identity_sym(grid, scale=1.0):
    vals = np.zeros(grid.dims + (6,))
    vals[..., :3] = scale
    return SymField2(grid, vals)


def trig_upsample(values, factor, axis=0):
    """Trigonometric interpolation of real samples, periodic along one axis,
    onto a factor-times finer grid whose every factor-th sample is a coarse
    one.

    The half spectrum (rfft) is zero-padded and inverted with irfft.  For
    an even length the Nyquist coefficient is halved, so it is split evenly
    between the two ends of the padded band and the interpolant is real and
    separable; an odd length has none to split.  factor must be at least 2.
    """
    n = np.shape(values)[axis]
    spec = np.fft.rfft(values, axis=axis)
    if n % 2 == 0:
        np.moveaxis(spec, axis, 0)[n // 2] *= 0.5
    return np.fft.irfft(spec, n=factor * n, axis=axis) * factor


# ---------------------------------------------------------------------------
# spectral machinery
#
# All spectral operators (d, delta, S, inc) share one periodic Fourier space.
# That makes the projector algebra exact: S is idempotent, S annihilates dv,
# and delta(S u) vanishes, all to roundoff.  Zero-padding would break these
# identities at the crop boundary; since every field handled here is
# compactly supported strictly inside the grid box, wraparound only enters
# at the aliasing level and padding is unnecessary.


_AXES = (0, 1, 2)


def _wavevectors(grid):
    """Wavevector components (y1, y2, y3) of the half spectrum (rfftn) with
    the Nyquist planes zeroed, as open (n1,1,1), (1,n2,1), (1,1,n3//2+1)
    arrays that broadcast to it: the last axis keeps its n3 // 2 + 1
    non-negative bins.

    For even axis lengths the Nyquist frequency has no negative partner, so
    odd-order spectral operators built from it break Hermitian symmetry.
    Zeroing it keeps every operator below exact on real fields; the dropped
    content is at the aliasing level for resolved fields.
    """
    ks = grid.freqs()
    for k, n in zip(ks, grid.dims):
        if n % 2 == 0:
            k[n // 2] = 0.0
    ks[2] = ks[2][: grid.dims[2] // 2 + 1]
    return np.meshgrid(*ks, indexing="ij", sparse=True)


def _nyquist_mask(grid):
    """Boolean mask of the half-spectrum nodes lying on any Nyquist plane."""
    masks = [(n % 2 == 0) & (np.arange(n) == n // 2) for n in grid.dims]
    masks[2] = masks[2][: grid.dims[2] // 2 + 1]
    m1, m2, m3 = np.meshgrid(*masks, indexing="ij", sparse=True)
    return m1 | m2 | m3


def _half_spectrum(values, grid):
    """Half spectrum of a real field, its wavevectors and its Parseval weights.

    Returns (spec, ys, weights): spec = rfftn over the grid axes, ys as from
    _wavevectors(grid), and weights (n3 // 2 + 1,) counting each
    last-axis bin for itself and its dropped conjugate partner: 1 for the
    zero bin and an even length's Nyquist bin, 2 for every other.  Then
    sum |f|^2 over the nodes = sum(weights * |spec|^2) / (n1 n2 n3).  A
    complex field raises ValueError.
    """
    if np.iscomplexobj(values):
        raise ValueError("spectral operators expect a real field")
    n3 = grid.dims[2]
    weights = np.full(n3 // 2 + 1, 2.0)
    weights[0] = 1.0
    if n3 % 2 == 0:
        weights[-1] = 1.0
    return np.fft.rfftn(values, axes=_AXES), _wavevectors(grid), weights


def _parseval_norm2(power, weights, grid):
    """Squared L2 norm of a real field from its half-spectrum power.

    power: (n1, n2, n3 // 2 + 1) sum of |spec|^2 over the field's
    components; weights as from _half_spectrum.
    """
    return float(np.sum(power * weights)) * grid.cell_volume() / np.prod(grid.dims)


def _spectrum(values, grid):
    """(spec, ys, inverse) of a real field over the grid axes: its half
    spectrum and an inverse (irfftn) that returns a real field.  Every
    operator below maps a Hermitian spectrum to a Hermitian one.
    """
    spec, ys, _ = _half_spectrum(values, grid)
    return spec, ys, lambda s: np.fft.irfftn(s, s=grid.dims, axes=_AXES)


def spectral_gradient(f: ScalarField) -> CovectorField:
    return CovectorField(f.grid, _gradient_nd(f.values, f.grid))


def _gradient_nd(values, grid):
    """Per-component partials: (...,C) -> (...,C,3), from one half
    spectrum."""
    spec, ys, inverse = _spectrum(values, grid)
    trail = (1,) * (values.ndim - 3)
    return inverse(np.stack([1j * y.reshape(y.shape + trail) * spec for y in ys], axis=-1))


def inner_derivative(v: CovectorField) -> SymField2:
    """Symmetrized derivative (dv)_jk = (d_j v_k + d_k v_j) / 2.

    Its spectrum i (y_j v_k + y_k v_j) / 2 is formed per symmetric slot, so
    only the 6 returned components are transformed back.
    """
    spec, ys, inverse = _spectrum(v.values, v.grid)
    out = [0.5j * (ys[j] * spec[..., k] + ys[k] * spec[..., j]) for j, k in SYM_PAIRS]
    return SymField2(v.grid, inverse(np.stack(out, axis=-1)))


def _divergence_spectrum(spec, ys):
    """Spectrum i y_k u_jk of delta u from the (..., 6) spectrum of u."""
    cols = [sum(ys[k] * spec[..., SYM_SLOT[(j, k)]] for k in range(3)) for j in range(3)]
    return 1j * np.stack(cols, axis=-1)


def divergence(u: SymField2) -> CovectorField:
    """Divergence (delta u)_j = d_k u_jk; only its 3 components are
    transformed back."""
    spec, ys, inverse = _spectrum(u.values, u.grid)
    return CovectorField(u.grid, inverse(_divergence_spectrum(spec, ys)))


def divergence_norm(u: SymField2) -> float:
    """|delta u| of a real field by Parseval, from one half spectrum and
    no inverse transform."""
    spec, ys, weights = _half_spectrum(u.values, u.grid)
    power = np.sum(np.abs(_divergence_spectrum(spec, ys)) ** 2, axis=-1)
    return float(np.sqrt(_parseval_norm2(power, weights, u.grid)))


def tangential_projector(y1, y2, y3):
    """eps_jk(y) = delta_jk - y_j y_k / |y|^2 on a frequency grid; zero row at y=0."""
    y = np.stack(np.broadcast_arrays(y1, y2, y3), axis=-1)
    n2 = np.sum(y * y, axis=-1)
    safe = np.where(n2 == 0.0, 1.0, n2)
    eps = -y[..., :, None] * y[..., None, :] / safe[..., None, None]
    for j in range(3):
        eps[..., j, j] += 1.0
    # enforce tr eps = 2 exactly (floating-point sum of y_j^2/|y|^2 drifts off 1)
    eps[..., 2, 2] = 2.0 - (eps[..., 0, 0] + eps[..., 1, 1])
    eps[n2 == 0.0] = 0.0
    return eps


def solenoidal_project(u: SymField2) -> SymField2:
    """Solenoidal part S(u): Fourier-domain projection P uhat P, P = I - n n^T
    with n = y/|y|, on the half spectrum.

    With v = uhat n, P uhat P = uhat - n v^T - v n^T + (n.v) n n^T,
    evaluated in symmetric storage.  The y = 0 node is set to zero:
    compactly supported solenoidal fields have vanishing componentwise
    integral, so no information is lost.  The Nyquist planes are set to
    zero too.
    """
    spec, ys, inverse = _spectrum(u.values, u.grid)
    y = np.stack(np.broadcast_arrays(*ys), axis=-1)
    ynorm = np.linalg.norm(y, axis=-1)
    n = y / np.where(ynorm == 0.0, 1.0, ynorm)[..., None]
    v = np.stack(
        [sum(spec[..., SYM_SLOT[(j, k)]] * n[..., k] for k in range(3)) for j in range(3)],
        axis=-1,
    )
    nv = np.sum(n * v, axis=-1)
    j, k = np.array(SYM_PAIRS).T
    spec -= n[..., j] * v[..., k] + v[..., j] * n[..., k] - nv[..., None] * (n[..., j] * n[..., k])
    spec[(ynorm == 0.0) | _nyquist_mask(u.grid)] = 0.0
    return SymField2(u.grid, inverse(spec))


def support_margin(values, grid, margin):
    """Largest absolute value on nodes within `margin` of the ball boundary (or outside)."""
    if grid.domain.kind != "ball":
        return 0.0
    r = np.linalg.norm(grid.coords() - np.asarray(grid.domain.center), axis=-1)
    shell = r >= grid.domain.radius - margin
    comp = np.abs(values).reshape(values.shape[:3] + (-1,)).max(axis=-1)
    return float(comp[shell].max()) if shell.any() else 0.0


def _cross_matrix(ys):
    """(..., 3, 3) matrices [y]x with [y]x a = y x a."""
    y1, y2, y3 = np.broadcast_arrays(*ys)
    zero = np.zeros_like(y1)
    return np.stack(
        [np.stack(row, axis=-1) for row in ((zero, -y3, y2), (y3, zero, -y1), (-y2, y1, zero))],
        axis=-2,
    )


def inc_potential(a: SymField2) -> SymField2:
    """Incompatibility R_jk = eps_jpq eps_krs d_p d_r A_qs of a symmetric potential.

    On the half spectrum this is R_hat = -[y]x A_hat [y]x^T, one batched
    3x3 product per frequency node ([y]x the cross-product matrix).  The
    output is symmetric and spectrally divergence-free; if A vanishes
    near the boundary so does R, which makes R traction-free.  On a ball
    domain A must vanish, to 1e-8 of its maximum, within two grid steps
    of the boundary (else ValueError).
    """
    grid = a.grid
    if grid.domain.kind == "ball":
        edge = support_margin(a.values, grid, 2.0 * max(grid.spacing))
        if edge > 1e-8 * (a.max_abs() or 1.0):
            raise ValueError("potential must vanish within the boundary margin")
    spec, ys, inverse = _spectrum(a.values, grid)
    cross = _cross_matrix(ys)
    rhat = -(cross @ sym_to_matrix(spec) @ np.swapaxes(cross, -1, -2))
    return SymField2(grid, inverse(matrix_to_sym(rhat)))


# ---------------------------------------------------------------------------
# smooth compactly supported test-field generators


def bump_profile(r2, radius):
    """C-infinity cutoff exp(1 - 1/(1 - r^2/radius^2)), zero outside."""
    q = np.clip(r2 / radius**2, 0.0, 1.0)
    out = np.zeros_like(q)
    inside = q < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - q[inside]))
    return out


def _bump_modulation(x, rng, degree=2):
    """Sum of degree + 1 random terms w * monomial + amplitude * sin(2 c . x)
    at the points x (..., 3).

    Each term draws c, w, the monomial's three exponents and the amplitude,
    in that order; the monomial is built by repeated multiplication.
    """
    mod = np.zeros(x.shape[:-1])
    for _ in range(degree + 1):
        c = rng.normal(size=3)
        w = rng.normal()
        mono = np.ones(x.shape[:-1])
        for xa, p in zip(np.moveaxis(x, -1, 0), rng.integers(0, degree + 1, size=3)):
            for _ in range(p):
                mono *= xa
        mod += w * mono + np.sin(x @ c * 2.0) * rng.normal(scale=0.5)
    return mod


def _bump_support(grid, radius):
    """(mask, chi, x): the nodes where bump_profile is positive, the
    profile there (m,) and their coordinates scaled by 1 / radius (m, 3)."""
    x = grid.coords()
    r2 = np.sum((x - np.asarray(grid.domain.center)) ** 2, axis=-1)
    chi = bump_profile(r2, radius)
    mask = chi > 0.0
    return mask, chi[mask], x[mask] / radius


def _bumps_on(support, rng, ncomp, degree=2):
    """ncomp bump-modulated components on the grid, stacked on a last axis,
    from a _bump_support; zero off the support.

    The modulations are drawn one component after another and evaluated
    only on the support's nodes.  The draws do not depend on the support's
    size, so the generator state after the call is that of a full-grid
    evaluation.
    """
    mask, chi, x = support
    vals = np.zeros(mask.shape + (ncomp,))
    vals[mask] = np.stack([chi * _bump_modulation(x, rng, degree) for _ in range(ncomp)], axis=-1)
    return vals


def _random_bumps(grid, rng, ncomp, radius=None, degree=2):
    """ncomp bump-modulated components, stacked on a last axis.

    The coordinates, r^2 and the bump profile are computed once, and the
    modulations only where the profile is positive (_bumps_on).  The result
    is that of ncomp one-component calls, stacked, bit for bit, and equals
    the product of profile and modulation on every node of the grid; off the
    support it holds +0.0 where that product may give -0.0.
    """
    return _bumps_on(_bump_support(grid, radius or 0.75 * grid.domain.radius), rng, ncomp, degree)


def random_bump_sym(grid, rng, radius=None, degree=2) -> SymField2:
    return SymField2(grid, _random_bumps(grid, rng, 6, radius, degree))


def gaussian_envelope(grid, r0=None):
    """Gaussian envelope balancing spectral resolution against support leakage.

    Width w = k_max / (2 r0) makes the truncation error at the grid Nyquist
    equal to the residual value at radius r0; both shrink as the grid refines.
    """
    r0 = r0 or 0.9 * grid.domain.radius
    kmax = np.pi / max(grid.spacing)
    w = kmax / (2.0 * r0)
    r2 = np.sum((grid.coords() - np.asarray(grid.domain.center)) ** 2, axis=-1)
    return np.exp(-w * r2)


def random_smooth_field(grid, rng, ncomp, width=14.0, degree=1):
    """Gaussian-envelope components with low-order polynomial modulation.

    width fixes the envelope decay exp(-width (r/R)^2), so values at the
    domain boundary are ~e^{-width} of the peak: numerically supported yet
    smooth enough for low-order quadrature to resolve.
    """
    R = grid.domain.radius or 1.0
    x = (grid.coords() - np.asarray(grid.domain.center)) / R
    env = np.exp(-width * np.sum(x**2, axis=-1))
    comps = []
    for _ in range(ncomp):
        mod = rng.normal()
        for _ in range(degree):
            mod = mod + x @ rng.normal(size=3)
        comps.append(env * mod)
    return np.stack(comps, axis=-1)


def random_smooth_sym(grid, rng) -> SymField2:
    return SymField2(grid, random_smooth_field(grid, rng, 6))


def null_space_witness(grid, rng, width=20.0) -> SymField2:
    """Solenoidal field S(alpha g) with a compactly supported potential part.

    For generic alpha the potential of S(alpha g) only decays like an
    inverse square, so chord integrals truncated at the domain boundary
    pick up its tail.  Taking alpha as the Laplacian of a compactly
    supported scalar removes the monopole moment: the potential is then a
    gradient of that scalar and vanishes outside its support, which is
    what makes the invisibility of S(alpha g) testable at quadrature
    accuracy.  alpha is normalized to unit sup norm.
    """
    x = grid.coords()
    r2 = np.sum((x - np.asarray(grid.domain.center)) ** 2, axis=-1)
    r2 = r2 / grid.domain.radius**2
    c = rng.normal(size=3)
    beta = np.exp(-width * r2) * (1.0 + x @ c) * bump_profile(r2, 0.95)
    spec, (y1, y2, y3), inverse = _spectrum(beta, grid)
    alpha = inverse(-(y1**2 + y2**2 + y3**2) * spec)
    alpha /= np.max(np.abs(alpha))
    vals = np.zeros(grid.dims + (6,))
    vals[..., :3] = alpha[..., None]
    return solenoidal_project(SymField2(grid, vals))


def random_admissible_potential(grid, rng, r0=None) -> SymField2:
    """Smooth symmetric potential suitable for the incompatibility generator:
    per component a random constant plus two random linear and sine terms,
    under the Gaussian envelope of radius r0."""
    env = gaussian_envelope(grid, r0)
    x = grid.coords() / (r0 or 0.9 * grid.domain.radius)
    comps = []
    for _ in range(6):
        mod = rng.normal()
        for _ in range(2):
            c = rng.normal(size=3)
            mod = mod + rng.normal() * (x @ c) + rng.normal(scale=0.5) * np.sin(x @ c)
        comps.append(env * mod)
    return SymField2(grid, np.stack(comps, axis=-1))
