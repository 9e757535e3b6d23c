"""Ray geometry: straight-line families and geodesics.

Straight-line families organize parallel-beam chords of the ball domain for
the constant-coefficient pipelines, as tables of views whose chords are
generated together (chords, chord_nodes).  Geodesic tracing serves the
conformally Euclidean metric h = v^-2 g used when the wave speed varies: a
traced ray is parameterized by h-arclength and carries a
parallel-transported orthonormal frame of the tangent-orthogonal plane.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid3, ScalarField


class TrappedRayError(RuntimeError):
    """A traced geodesic exhausted its step budget without leaving the domain."""


# ---------------------------------------------------------------------------
# interpolation


@dataclass
class Stencil:
    """The interpolation corners of a set of points, located once.

    shape is the points' shape, (..., 3) or in-plane (..., 2), so that
    np.shape reads a stencil as it reads its points.  index holds the flat
    node index of each point's lowest corner, frac each interpolated axis's
    fractions and strides its flat stride; outside is mode "zero"'s mask of
    the points outside the grid box, or None when there are none (or in
    mode "clamp").  Iterating yields (flat node index, weight) per corner:
    the weights are formed from the fractions on every pass, so a kept
    stencil holds no per-corner arrays (in a sampling table, an int32 index
    and two fractions: 20 bytes per point).
    """

    shape: tuple
    index: np.ndarray
    frac: tuple
    strides: tuple
    outside: np.ndarray | None

    def __iter__(self):
        weights = [(1.0 - f, f) for f in self.frac]
        if self.outside is not None:
            # every corner weight carries the first axis's factor
            weights[0] = tuple(np.where(self.outside, 0.0, g) for g in weights[0])
        for corner in itertools.product((0, 1), repeat=len(weights)):
            w = weights[0][corner[0]]
            for g, c in zip(weights[1:], corner[1:]):
                w = w * g[c]
            yield np.add(self.index, sum(c * s for c, s in zip(corner, self.strides)),
                         dtype=np.intp), w


def _stencil(grid: Grid3, points, mode="zero", plane=None):
    """The Stencil of the trilinear corners of points.

    Its index addresses the node array flattened over the grid axes.  mode
    "zero" gives points outside the grid box zero weights (the field is
    extended by zero), mode "clamp" clamps them to the nearest node.
    Interpolation and its transpose (scatter onto the nodes) share this
    stencil.

    plane is None, or an axis on whose grid planes every point lies (the
    nodes of _ChordFamily.nodes that name it).  The stencil then takes each
    point's nearest plane, rounded before the box test, and yields only the
    four bilinear corners within it; the other four would carry the weight
    of the coordinate's roundoff.  Points (..., 2) with a plane are in-plane
    points: their two coordinates are the other axes', in order, and the
    index addresses the nodes flattened over those two axes.

    The stencil is built axis by axis: the out-of-box mask and the clip are
    computed only for an axis whose min/max leaves [0, top] (chord nodes in
    the ball, which Grid3 keeps inside the box, usually do not).  Points
    stored axis-major (chord_nodes) are read one contiguous axis at a time.
    """
    if mode not in ("zero", "clamp"):
        raise ValueError(f"unknown interpolation mode {mode!r}")
    p = np.asarray(points, dtype=float)
    axes = [a for a in range(3) if p.shape[-1] == 3 or a != plane]
    outside, index, frac = False, 0, []
    for j, a in enumerate(axes):
        n, h, o = grid.dims[a], grid.spacing[a], grid.origin[a]
        u, top = (p[..., j] - o) / h, n - 1
        if a == plane:
            u = np.rint(u)
        lo, hi = (u.min(), u.max()) if u.size else (0.0, 0.0)
        if lo < 0.0 or hi > top:
            outside = outside | (u < 0.0) | (u > top)
            u = np.clip(u, 0.0, top)
        if a == plane:
            i = u.astype(int)
        else:
            i = u.astype(int) if hi < top else np.minimum(u.astype(int), top - 1)
            frac.append(u - i)
        index = index * n + i
    sizes = [grid.dims[a] for a in axes]
    strides = tuple(int(np.prod(sizes[j + 1 :])) for j, a in enumerate(axes) if a != plane)
    masked = mode == "zero" and np.any(outside)
    return Stencil(p.shape, index, tuple(frac), strides, outside if masked else None)


def trilinear(grid: Grid3, values, points, mode="zero", plane=None):
    """Trilinear interpolation of a node-sampled array at arbitrary points.

    values has shape dims or dims + (m,); points has shape (..., 3), or is
    their Stencil (located once, as in a family's sampling table, which
    then carries the mode).  mode "zero" treats the field as extended by
    zero outside the grid box, mode "clamp" clamps to the nearest node (for
    strictly positive metric coefficients that must not vanish outside);
    the mask or the clamp is applied only when a point leaves the box.
    With plane, points on grid planes of that axis are interpolated
    bilinearly within them (_stencil).  In-plane points (..., 2) with a
    plane, the coordinates of the other two axes in order, give the
    bilinear samples at them of every grid plane of that axis, shape
    points.shape[:-1] + (planes,) + (m,): the values are read as rows of
    (in-plane node, planes x components), one row per corner and point (a
    whole grid-plane stack's gather, forward._gather).
    """
    stencil = points if isinstance(points, Stencil) else _stencil(grid, points, mode, plane)
    values = np.asarray(values)
    comp_shape = values.shape[3:]
    if stencil.shape[-1] == 3:
        flat = values.reshape((-1,) + comp_shape)
        shape = stencil.shape[:-1] + comp_shape
    else:
        rows = np.moveaxis(values, plane, 2)
        flat = rows.reshape(rows.shape[0] * rows.shape[1], -1)
        shape = stencil.shape[:-1] + rows.shape[2:]
    out = np.zeros(stencil.shape[:-1] + flat.shape[1:], dtype=values.dtype)
    corner = np.empty_like(out)
    for idx, w in stencil:
        # the indices are in range: "clip" only spares take a buffered copy
        np.take(flat, idx, axis=0, out=corner, mode="clip")
        corner *= w.reshape(w.shape + (1,) * (flat.ndim - 1))
        out += corner
    return out.reshape(shape)


def _orthobasis(d):
    """Two unit vectors completing a unit direction to an orthonormal triple."""
    d = np.asarray(d, dtype=float)
    axis = np.zeros(3)
    axis[np.argmin(np.abs(d))] = 1.0
    e1 = np.cross(d, axis)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(d, e1)


# ---------------------------------------------------------------------------
# rays


@dataclass
class Ray:
    """A directed segment with quadrature nodes.

    points: (n, 3) node positions; tangents: (n, 3) velocities dx/dtau in
    the active metric (Euclidean norm = speed, so |tangent|_h = 1); tau:
    (n,) arclength parameters; frames: (n, 2, 3) parallel-transported
    tangent-orthogonal basis, h-orthonormal.
    """

    points: np.ndarray
    tangents: np.ndarray
    tau: np.ndarray
    frames: np.ndarray = None
    metric: object = None

    @property
    def length(self):
        return float(self.tau[-1] - self.tau[0]) if len(self.tau) > 1 else 0.0


# ---------------------------------------------------------------------------
# straight-line families


@dataclass
class _ViewSampling:
    """Where one view of a family samples a grid: independent of the field.

    - live: flat indices (into the view's offsets) of the chords that cross
      the ball, in order;
    - stencil: the mode-"zero" Stencil of the sampled nodes, (rows, n, 3)
      with row c the live chord c's nodes, or, on a whole stack of the
      grid's planes (PlaneFamily.grid_plane), in-plane nodes (rows, n, 2)
      with row o the nodes that offset o's live chords share;
    - plane: the axis whose grid planes stencil reads bilinearly, or None;
    - step: the node spacing, one per row (rows,) or one for the view;
    - counts: nodes sampled per row (a sphere chord's crossings, the rest
      padding), or None (all n).

    The integers are int32: the table holds about 20 bytes per node.
    """

    live: np.ndarray
    stencil: Stencil
    plane: int | None
    step: object
    counts: np.ndarray | None = None

    def __post_init__(self):
        self.live = self.live.astype(np.int32)
        self.stencil.index = self.stencil.index.astype(np.int32)
        if self.counts is not None:
            self.counts = self.counts.astype(np.int32)

    def quadrature(self):
        """Trapezoid weights (rows, n) and steps, broadcastable to (rows,
        n - 1), of the rows' nodes."""
        n = self.stencil.shape[-2]
        if self.counts is None:
            return _trapezoid_weights(self.step, n), self.step[:, None]
        # a sphere chord's padding has zero weight and zero step
        steps = np.where(np.arange(n - 1) < self.counts[:, None] - 1, self.step, 0.0)
        w = np.zeros(steps.shape[:-1] + (n,))
        w[:, :-1] += steps
        w[:, 1:] += steps
        w *= 0.5
        return w, steps

    def stack_chords(self, shape):
        """On a whole stack, the offset and slice indices of the live chords
        of a view of shape (offsets, slices); else None."""
        return np.unravel_index(self.live, shape) if self.stencil.shape[-1] == 2 else None


def _plane_nodes(index, plane, slices, dims):
    """Flat grid node indices of in-plane node indices (over the two axes
    other than plane, in order) in the grid planes slices of that axis."""
    other = [a for a in range(3) if a != plane]
    ijk = dict(zip(other, np.divmod(index, dims[other[1]])))
    ijk[plane] = slices
    return (ijk[0] * dims[1] + ijk[1]) * dims[2] + ijk[2]


class _ChordFamily:
    """View geometry shared by the straight-line families.

    A family is a table of views: view m has the unit direction _dirs[m],
    an orthonormal frame _frames[m] = (e1, e2) of the plane orthogonal to
    it, and one chord of the ball through center + s1 e1 + s2 e2 for every
    s1 in offsets and s2 in _off2; records are stored over shape = (views,
    offsets, off2).  nodes(grid, starts, d, lengths) places the quadrature
    nodes on a view's chords: a sphere family's grid-plane crossings, a
    plane family's equispaced nodes at its step.  sampling(grid) keeps
    where every view samples a grid (_ViewSampling), built on first use:
    it depends on the family and the grid alone, and a family's fields are
    not changed after it is built.
    """

    @property
    def n_views(self):
        return len(self._dirs)

    @property
    def shape(self):
        return (len(self._dirs), len(self.offsets), len(self._off2))

    def grid_plane(self, grid):
        """The axis of a whole stack of the grid's planes (PlaneFamily)."""
        return None

    def views(self):
        """The view table: directions (views, 3) and frames (views, 2, 3)."""
        return self._dirs, self._frames

    def chords(self, m):
        """Start points (off1, off2, 3), the direction and the chord lengths
        (off1, off2) of view m: the chords along the direction centered on
        center + s1 e1 + s2 e2, with the family's _half_lengths (0: an
        empty chord)."""
        d = self._dirs[m]
        e1, e2 = self._frames[m]
        s1 = self.offsets[:, None]
        s2 = self._off2[None, :]
        hl = self._half_lengths(s1, s2)
        starts = self.center + s1[..., None] * e1 + s2[..., None] * e2 - hl[..., None] * d
        return starts, d, 2.0 * hl

    def _half_lengths(self, s1, s2):
        """Half-lengths (off1, off2) of the chords at offsets s1 (off1, 1)
        and s2 (1, off2): each line's own chord of the ball, 0 where it
        misses."""
        return np.sqrt(np.maximum(self.radius**2 - s1**2 - s2**2, 0.0))

    def sampling(self, grid):
        """The _ViewSampling of every view on grid (a hashable Grid3), built
        on the first call for that grid and kept by the family."""
        tables = self.__dict__.setdefault("_sampling", {})
        if grid not in tables:
            tables[grid] = [self._view_sampling(grid, m) for m in range(self.n_views)]
        return tables[grid]

    def _view_sampling(self, grid, m):
        """The nodes of view m's live chords, one row per chord."""
        starts, d, lengths = self.chords(m)
        live = lengths > 0.0
        pts, counts, step, plane = self.nodes(grid, starts[live], d, lengths[live])
        return _ViewSampling(np.flatnonzero(live), _stencil(grid, pts, plane=plane), plane,
                             step, counts)


def _trapezoid_weights(dt, n):
    """Trapezoid weights (..., n) of n nodes dt (...) apart."""
    w = np.repeat(dt[..., None], n, axis=-1)
    w[..., 0] *= 0.5
    w[..., -1] *= 0.5
    return w


def chord_nodes(starts, d, lengths, n):
    """Node points (..., n, 3), trapezoid weights (..., n) and step (...) of
    n equispaced nodes on the chords starts + [0, lengths] d.

    The points are stored axis-major (a view of a (3, ..., n) array), so
    that _stencil reads each axis contiguously."""
    t = np.linspace(0.0, 1.0, n)
    s = lengths[..., None] * t
    pts = np.empty((3,) + s.shape)
    for a in range(3):
        np.add(starts[..., None, a], s * d[a], out=pts[a])
    pts = np.moveaxis(pts, 0, -1)
    dt = lengths / (n - 1)
    return pts, _trapezoid_weights(dt, n), dt


@dataclass
class PlaneFamily(_ChordFamily):
    """Parallel-beam chords confined to planes x_axis = const.

    The fields are the builder's parameters; the arrays derive from them.
    Every ray tangent is orthogonal to e_axis.  Per slice, a 2D parallel
    geometry: angle_count angles thetas[a] = a*pi/A over the in-plane basis
    (u1, u2), offset_count cell-centered offsets along the rotated axis w =
    (-sin, cos).  View a has the frame (w, e_axis) and the offset axes
    (offsets, slices relative to the center).  A chord at offset s1 spans
    the ball's equator disk in every slice where its line meets the ball
    (_half_lengths), so one in-plane geometry serves every slice.
    """

    axis: int
    angle_count: int
    offset_count: int
    slices: np.ndarray
    center: np.ndarray
    radius: float
    step: float
    kind: str = field(default="plane", init=False)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.thetas = np.arange(self.angle_count) * np.pi / self.angle_count
        u1, u2, ek = np.roll(np.eye(3), -self.axis - 1, axis=0)
        c, s = np.cos(self.thetas)[:, None], np.sin(self.thetas)[:, None]
        self._dirs = c * u1 + s * u2
        w = -s * u1 + c * u2
        self._frames = np.stack([w, np.broadcast_to(ek, w.shape)], axis=1)
        self.offsets = _cell_centered_offsets(self.radius, self.offset_count)
        self._off2 = self.slices - self.center[self.axis]

    def _half_lengths(self, s1, s2):
        """The plane-family rule: a chord whose own line meets the ball
        (s1^2 + s2^2 < R^2) runs across the ball's equator disk at its
        in-plane offset, half-length sqrt(R^2 - s1^2) in every slice; every
        other chord is empty.  So every live chord of an offset has the same
        in-plane start and length, and its slices share in-plane nodes.
        Beyond its own slice's disk a chord reads the field off the ball,
        where data of fields supported in the ball see zeros."""
        live = s1**2 + s2**2 < self.radius**2
        return np.where(live, np.sqrt(np.maximum(self.radius**2 - s1**2, 0.0)), 0.0)

    @property
    def n_nodes(self):
        return int(np.ceil(2.0 * self.radius / self.step)) + 1

    def nodes(self, grid, starts, d, lengths):
        """Equispaced chord_nodes, no counts (every chord has n_nodes),
        their steps (...) and grid_plane."""
        pts, _, dt = chord_nodes(starts, d, lengths, self.n_nodes)
        return pts, None, dt, self.grid_plane(grid)

    def grid_plane(self, grid):
        """The family's axis when it is a whole stack of the grid's planes
        of that axis (slices equal to grid.axes()[axis], in order), so that
        slice j lies in plane j; else None."""
        return self.axis if np.array_equal(self.slices, grid.axes()[self.axis]) else None

    def _view_sampling(self, grid, m):
        """On a whole stack, the live chords of an offset share one row of
        in-plane nodes (_half_lengths), read bilinearly in every plane: the
        nodes of the offset's first live chord (of an empty chord where it
        has none)."""
        plane = self.grid_plane(grid)
        if plane is None:
            return super()._view_sampling(grid, m)
        starts, d, lengths = self.chords(m)
        live = lengths > 0.0
        first = (np.arange(len(live)), np.argmax(live, axis=1))
        pts, _, dt, _ = self.nodes(grid, starts[first], d, lengths[first])
        stencil = _stencil(grid, np.delete(pts, plane, axis=-1), plane=plane)
        return _ViewSampling(np.flatnonzero(live), stencil, plane, dt)


@dataclass
class SphereFamily(_ChordFamily):
    """Chords along a dense set of sphere directions, 2D offset grid each.

    Used by the truncated transverse transform.  The fields are the
    builder's parameters: direction_count Fibonacci-sphere directions, each
    with a fixed orthonormal frame (e1, e2) of its orthogonal plane, and
    offset_count cell-centered offsets along e1 and along e2; no step.
    """

    direction_count: int
    offset_count: int
    center: np.ndarray
    radius: float
    kind: str = field(default="sphere", init=False)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.directions = self._dirs = fibonacci_sphere(self.direction_count)
        self._frames = np.asarray([np.stack(_orthobasis(d)) for d in self.directions])
        self.offsets = self._off2 = _cell_centered_offsets(self.radius, self.offset_count)

    def nodes(self, grid, starts, d, lengths):
        """Points (..., n, 3), crossing counts (...), the step and axis k
        of the chords' crossings with the grid planes of k = argmax |d_k|, in
        chord order (Joseph's rule: P. M. Joseph, IEEE TMI 1(3), 1982), each
        read bilinearly in its plane.  The step is h_k / |d_k|; the
        trapezoid weights, half at the first and last crossing, are _flow's
        first-order term (_ViewSampling.quadrature).  Chords are padded to n
        nodes at their last crossing (or, with none, their first plane) with
        zero weight and step."""
        k = int(np.argmax(np.abs(d)))
        planes = grid.axes()[k][:: 1 if d[k] > 0.0 else -1]
        t = (planes - starts[..., k, None]) / d[k]
        on = (t >= 0.0) & (t <= lengths[..., None])
        count = np.count_nonzero(on, axis=-1)
        n = max(int(np.max(count, initial=0)), 1)
        i = np.minimum(np.arange(n), np.maximum(count, 1)[..., None] - 1)
        t = np.take_along_axis(t, np.argmax(on, axis=-1)[..., None] + i, axis=-1)
        return starts[..., None, :] + t[..., None] * d, count, grid.spacing[k] / abs(d[k]), k


def _cell_centered_offsets(radius, count):
    ds = 2.0 * radius / count
    return -radius + (np.arange(count) + 0.5) * ds


def _require_ball(grid):
    if grid.domain.kind != "ball" or grid.domain.radius <= 0:
        raise ValueError("ray families need a ball domain inside the grid")
    return np.asarray(grid.domain.center, dtype=float), float(grid.domain.radius)


def default_step(grid):
    return 0.5 * min(grid.spacing)


def build_line_families(grid: Grid3, angles: int, offsets: int, step=None):
    """Three coordinate-plane families covering the grid's ball domain.

    Family k holds, per grid plane x_k = const, a 2D parallel-beam geometry
    of `angles` view angles (uniform over [0, pi)) and `offsets`
    cell-centered offsets spanning the ball diameter.
    """
    if angles < 3:
        raise ValueError("need at least 3 view angles")
    if offsets < max(grid.dims):
        raise ValueError("need at least as many offsets as grid nodes per axis")
    center, radius = _require_ball(grid)
    step = step or default_step(grid)
    return [
        PlaneFamily(k, angles, offsets, grid.axes()[k], center, radius, step)
        for k in range(3)
    ]


def fibonacci_sphere(count):
    """Deterministic, roughly uniform unit directions."""
    i = np.arange(count)
    z = (2.0 * i + 1.0) / count - 1.0
    r = np.sqrt(np.maximum(1.0 - z**2, 0.0))
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def build_sphere_family(grid: Grid3, directions: int, offsets=None):
    """Dense-sphere chord family with a 2D offset grid per direction."""
    center, radius = _require_ball(grid)
    return SphereFamily(directions, offsets or max(grid.dims), center, radius)


# ---------------------------------------------------------------------------
# conformal metric and geodesics


@dataclass
class ConformalMetric:
    """The metric h = v^-2 g of a positive wave-speed field v.

    Geodesics of h are the rays of the eikonal equation with index n = 1/v;
    derivatives of ln v use centered differences (ray-traced speed fields
    are not periodic-friendly).
    """

    speed: ScalarField
    fn: object = None  # optional complex-safe callable v(points) for analytic speeds

    def __post_init__(self):
        v = self.speed.values
        if np.any(v <= 0.0):
            raise ValueError("wave speed must be positive everywhere")
        logv = np.log(v)
        self._grad_logv = np.stack(
            np.gradient(logv, *self.speed.grid.spacing), axis=-1
        )
        self.v_min = float(v.min())
        self.v_max = float(v.max())

    @classmethod
    def from_function(cls, grid, fn):
        """Analytic speed: fn maps (..., 3) points to values, complex-safe
        so gradients come from complex-step differentiation."""
        return cls(ScalarField(grid, fn(grid.coords())), fn)

    @property
    def grid(self):
        return self.speed.grid

    def speed_at(self, points):
        if self.fn is not None:
            return self.fn(np.asarray(points, dtype=float))
        return trilinear(self.grid, self.speed.values, points, mode="clamp")

    def grad_log_speed_at(self, points):
        if self.fn is not None:
            pts = np.asarray(points, dtype=float)
            h = 1e-30
            g = np.stack(
                [
                    np.imag(self.fn(pts + 1j * h * e)) / h
                    for e in np.eye(3)
                ],
                axis=-1,
            )
            return g / self.fn(pts)[..., None]
        return trilinear(self.grid, self._grad_logv, points, mode="clamp")


def _geodesic_rhs(metric, x, p):
    # h = e^{2 phi} g with phi = -ln v:  x'' = -2 (grad phi . x') x' + |x'|^2 grad phi
    g = -metric.grad_log_speed_at(x)
    return p, -2.0 * (g @ p) * p + (p @ p) * g


def _rk4_step(metric, x, p, dt):
    k1x, k1p = _geodesic_rhs(metric, x, p)
    k2x, k2p = _geodesic_rhs(metric, x + 0.5 * dt * k1x, p + 0.5 * dt * k1p)
    k3x, k3p = _geodesic_rhs(metric, x + 0.5 * dt * k2x, p + 0.5 * dt * k2p)
    k4x, k4p = _geodesic_rhs(metric, x + dt * k3x, p + dt * k3p)
    xn = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
    pn = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
    pn *= metric.speed_at(xn) / np.linalg.norm(pn)
    return xn, pn


_GEODESIC_BUDGET = 64.0  # traced h-length, in box diagonals, before a ray counts as trapped


def trace_geodesic(metric: ConformalMetric, x0, direction, step=None):
    """Trace a unit-h-speed geodesic of h = v^-2 g until it exits the domain.

    x0 sits on (or inside) the boundary sphere; direction is a Euclidean
    unit vector.  Fixed-step RK4 in h-arclength with tangent renormalized
    to |dx/dtau| = v after every step; the final partial step is bisected
    onto the boundary.  Raises TrappedRayError past _GEODESIC_BUDGET times
    the box diagonal of h-length.
    """
    grid = metric.grid
    center, radius = _require_ball(grid)
    dt = step or default_step(grid) / metric.v_max
    lo, hi = grid.box()
    diag = np.linalg.norm(hi - lo)
    max_steps = int(np.ceil(_GEODESIC_BUDGET * diag / (dt * metric.v_min)))
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    x = np.asarray(x0, dtype=float)
    p = metric.speed_at(x) * d
    pts, tans, taus = [x], [p], [0.0]

    def r(x):
        return np.linalg.norm(x - center) - radius

    for n in range(max_steps):
        xn, pn = _rk4_step(metric, x, p, dt)
        if r(xn) > 0.0 and n > 0:
            lo, hi = 0.0, dt
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                xm, pm = _rk4_step(metric, x, p, mid)
                if r(xm) > 0.0:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < 1e-14 * dt:
                    break
            xn, pn = _rk4_step(metric, x, p, hi)
            pts.append(xn)
            tans.append(pn)
            taus.append(taus[-1] + hi)
            break
        pts.append(xn)
        tans.append(pn)
        taus.append(taus[-1] + dt)
        x, p = xn, pn
    else:
        raise TrappedRayError("step budget exhausted; ray possibly trapped")

    ray = Ray(np.asarray(pts), np.asarray(tans), np.asarray(taus), metric=metric)
    e1, e2 = _orthobasis(d)
    v0 = metric.speed_at(ray.points[0])
    f1 = _transport(metric, ray, v0 * e1)
    f2 = _transport(metric, ray, v0 * e2)
    ray.frames = np.stack([f1, f2], axis=1)
    return ray


def _transport_rhs(metric, x, p, X):
    g = -metric.grad_log_speed_at(x)
    return -(g @ p) * X - (g @ X) * p + (p @ X) * g


def _transport(metric, ray: Ray, X0):
    """Parallel transport of X0 along the ray; returns values at all nodes.

    RK4 per interval with cubic-Hermite interpolation of positions and
    tangents between the stored nodes.
    """
    pts, tans, tau = ray.points, ray.tangents, ray.tau
    out = np.empty_like(pts)
    out[0] = X0
    X = np.asarray(X0, dtype=float)
    for i in range(len(tau) - 1):
        h = tau[i + 1] - tau[i]
        if h == 0.0:
            out[i + 1] = X
            continue
        x0, x1, p0, p1 = pts[i], pts[i + 1], tans[i], tans[i + 1]
        xm = 0.5 * (x0 + x1) + 0.125 * h * (p0 - p1)
        pm = 1.5 * (x1 - x0) / h - 0.25 * (p0 + p1)
        k1 = _transport_rhs(metric, x0, p0, X)
        k2 = _transport_rhs(metric, xm, pm, X + 0.5 * h * k1)
        k3 = _transport_rhs(metric, xm, pm, X + 0.5 * h * k2)
        k4 = _transport_rhs(metric, x1, p1, X + h * k3)
        X = X + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = X
    return out


def coverage_directions(y):
    """In-plane directions xi_k = (e_k x y)/|e_k x y| seen by the line families.

    y is (..., 3).  Returns (xi, ok): xi is (..., 3, 3) with one unit
    direction per family on its second-to-last axis, and ok (..., 3) flags
    which families are nondegenerate at each Fourier node (family k
    degenerates when y is parallel to e_k); xi is zero where ok is False.
    """
    y = np.asarray(y, dtype=float)
    c = np.cross(np.eye(3), y[..., None, :])
    n = np.linalg.norm(c, axis=-1)
    ok = n > 1e-12 * np.linalg.norm(y, axis=-1)[..., None]
    return np.where(ok[..., None], c / np.where(ok, n, 1.0)[..., None], 0.0), ok


def diameter(metric: ConformalMetric, samples=128):
    """Lower bound on the h-diameter from center-aimed boundary geodesics.

    Shoots one geodesic inward from each of `samples` boundary points and
    returns the longest h-length found.
    """
    center, radius = _require_ball(metric.grid)
    best = 0.0
    for q in fibonacci_sphere(samples):
        x0 = center + radius * q
        ray = trace_geodesic(metric, x0, -q)
        best = max(best, ray.length)
    return best
