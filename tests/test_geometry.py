import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresstomo.fields import Grid3, ScalarField
from stresstomo.geometry import (
    ConformalMetric,
    PlaneFamily,
    SphereFamily,
    _stencil,
    build_line_families,
    build_sphere_family,
    chord_nodes,
    coverage_directions,
    diameter,
    fibonacci_sphere,
    trace_geodesic,
    trilinear,
)

from reference import (
    ball_chord,
    family_ray,
    family_rays,
    line_ray,
    parallel_transport,
    reverse_ray,
    speed_variation,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# interpolation


def test_trilinear_linear_field_exact():
    grid = Grid3.cube(16)
    x = grid.coords()
    vals = 1.0 + 2.0 * x[..., 0] - 0.5 * x[..., 1] + 0.25 * x[..., 2]
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, size=(40, 3))
    got = trilinear(grid, vals, pts)
    want = 1.0 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1] + 0.25 * pts[:, 2]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_trilinear_zero_outside_box():
    grid = Grid3.cube(12)
    vals = np.ones(grid.dims)
    out = trilinear(grid, vals, [[5.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert out[0] == 0.0 and out[1] == pytest.approx(1.0)
    assert trilinear(grid, vals, [5.0, 0.0, 0.0], mode="clamp") == pytest.approx(1.0)


def test_trilinear_vector_components():
    grid = Grid3.cube(12)
    vals = np.stack([np.ones(grid.dims), 2 * np.ones(grid.dims)], axis=-1)
    out = trilinear(grid, vals, [0.1, -0.2, 0.3])
    assert out == pytest.approx([1.0, 2.0])


# ---------------------------------------------------------------------------
# straight rays and families


def test_ball_chord_diametral_and_miss():
    entry, length = ball_chord((0, 0, 0), 1.0, (0.0, 0.0, 0.0), (1.0, 0, 0))
    assert length == pytest.approx(2.0)
    assert entry == pytest.approx([-1.0, 0.0, 0.0])
    _, miss = ball_chord((0, 0, 0), 1.0, (0.0, 2.0, 0.0), (1.0, 0, 0))
    assert miss == 0.0


def test_line_ray_nodes_and_frame():
    ray = line_ray((-1.0, 0, 0), (1.0, 0, 0), 2.0, step=0.03)
    assert len(ray.tau) == int(np.ceil(2.0 / 0.03)) + 1
    assert ray.length == pytest.approx(2.0)
    assert np.allclose(np.linalg.norm(ray.tangents, axis=1), 1.0)
    f = ray.frames[0]
    assert abs(f[0] @ f[1]) <= 1e-14
    assert np.allclose([f[0] @ ray.tangents[0], f[1] @ ray.tangents[0]], 0.0)


def test_build_line_families_validation():
    grid = Grid3.cube(12)
    with pytest.raises(ValueError):
        build_line_families(grid, angles=2, offsets=12)
    with pytest.raises(ValueError):
        build_line_families(grid, angles=4, offsets=4)


def test_family_tangents_orthogonal_to_axis():
    grid = Grid3.cube(12)
    fams = build_line_families(grid, angles=4, offsets=12)
    assert len(fams) == 3
    for k, fam in enumerate(fams):
        for a in range(4):
            assert fam.views()[0][a][k] == 0.0
            assert fam.views()[1][a][0][k] == 0.0


def test_family_ray_count_and_boundary_endpoints():
    grid = Grid3.cube(12)
    fams = build_line_families(grid, angles=4, offsets=12)
    for fam in fams:
        assert math.prod(fam.shape) <= 4 * 12 * 12
        for (a, o, si), ray in family_rays(fam):
            if ray.length == 0.0:
                continue
            # a live chord ends on the equator circle of its offset, moved
            # into its slice: at the unit distance from the family's axis
            for end in (ray.points[0], ray.points[-1]):
                assert abs(np.linalg.norm(np.delete(end, fam.axis)) - 1.0) <= fam.step


def test_family_chord_batch_matches_single_rays():
    grid = Grid3.cube(12)
    plane = build_line_families(grid, angles=5, offsets=12)[1]
    sphere = build_sphere_family(grid, directions=20, offsets=12)
    for fam in (plane, sphere):
        starts, d, lengths = fam.chords(3)
        for o in (0, 4, 7):
            for si in (0, 3, 7):
                ray = family_ray(fam, 3, o, si)
                assert ray.length == pytest.approx(lengths[o, si], abs=1e-12)
                assert np.array_equal(ray.frames[0], fam.views()[1][3])
                if lengths[o, si] > 0:
                    assert np.allclose(ray.points[0], starts[o, si], atol=1e-12)
                    assert np.allclose(ray.tangents[0], d, atol=1e-15)


def _plane_families(grid):
    # the coordinate-plane families, and one on a ball reaching past the grid's
    fams = build_line_families(grid, angles=5, offsets=12)
    wide = PlaneFamily(2, 5, 11, fams[2].slices, fams[2].center, 1.3, fams[2].step)
    return fams + [wide]


def test_plane_family_live_chords_are_those_meeting_the_ball():
    grid = Grid3.cube(12)
    for fam in _plane_families(grid):
        s1 = fam.offsets[:, None]
        s2 = (fam.slices - fam.center[fam.axis])[None, :]
        meets = s1**2 + s2**2 < fam.radius**2
        assert 0 < np.count_nonzero(meets) < meets.size
        for m in range(fam.n_views):
            assert np.array_equal(fam.chords(m)[2] > 0.0, meets)


def test_plane_family_live_chords_share_their_offsets_in_plane_chord():
    # every live chord of an offset has its in-plane start and length: the
    # chord of the ball's equator disk at that offset
    grid = Grid3.cube(12)
    for fam in _plane_families(grid):
        inplane = [a for a in range(3) if a != fam.axis]
        for m in range(fam.n_views):
            starts, d, lengths = fam.chords(m)
            for i, s1 in enumerate(fam.offsets):
                live = lengths[i] > 0.0
                if not np.any(live):
                    continue
                assert np.all(lengths[i][live] == 2.0 * np.sqrt(fam.radius**2 - s1**2))
                first = starts[i][live][0]
                assert np.all(starts[i][live][:, inplane] == first[inplane])


def test_sphere_family_geometry():
    grid = Grid3.cube(12)
    fam = build_sphere_family(grid, directions=20, offsets=12)
    dirs = fam.directions
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    # all pairwise distinct
    dots = dirs @ dirs.T - np.eye(20)
    assert np.max(dots) < 1.0 - 1e-6
    ray = family_ray(fam, 7, 3, 4)
    if ray.length > 0:
        e1, e2 = fam.views()[1][7]
        assert abs(e1 @ dirs[7]) <= 1e-12 and abs(e2 @ dirs[7]) <= 1e-12
        assert np.allclose(ray.frames[0], fam.views()[1][7])


def test_fibonacci_sphere_spread():
    d = fibonacci_sphere(60)
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0)
    assert len(np.unique(np.round(d, 9), axis=0)) == 60


# ---------------------------------------------------------------------------
# geodesics


def constant_metric(v, n=16):
    grid = Grid3.cube(n)
    return ConformalMetric(ScalarField(grid, np.full(grid.dims, float(v))))


def test_constant_speed_geodesic_is_straight_chord():
    metric = constant_metric(2.0)
    x0 = unit([1.0, 0.3, -0.2])
    d = unit([-1.0, 0.1, 0.05])
    ray = trace_geodesic(metric, x0, d)
    # deviation from the straight line through x0 with direction d
    rel = ray.points - x0
    dev = rel - (rel @ d)[:, None] * d
    assert np.max(np.linalg.norm(dev, axis=1)) <= 1e-8
    # exit point on the sphere
    assert abs(np.linalg.norm(ray.points[-1]) - 1.0) <= 1e-10


def test_constant_speed_diametral_h_length():
    metric = constant_metric(2.0)
    ray = trace_geodesic(metric, [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    assert ray.length == pytest.approx(1.0, abs=1e-6)  # Euclidean length / v


def radial_speed(pts):
    return 1.0 + 0.1 * np.sum(np.asarray(pts) ** 2, axis=-1)


def variable_metric(n=24):
    return ConformalMetric.from_function(Grid3.cube(n), radial_speed)


def test_unit_h_speed_along_variable_geodesic():
    metric = variable_metric()
    ray = trace_geodesic(metric, unit([0.2, 1.0, 0.3]), unit([-0.3, -1.0, 0.1]))
    v = metric.speed_at(ray.points)
    h_speed = np.linalg.norm(ray.tangents, axis=1) / v
    assert np.max(np.abs(h_speed - 1.0)) <= 1e-8


def test_variable_geodesic_step_halving_oracle():
    metric = variable_metric()
    x0 = unit([0.9, 0.2, -0.35])
    d = unit([-1.0, -0.15, 0.3])
    step = 0.02
    coarse = trace_geodesic(metric, x0, d, step=step)
    fine = trace_geodesic(metric, x0, d, step=0.5 * step)
    n = min(len(coarse.tau) - 1, (len(fine.tau) - 1) // 2)
    dev = coarse.points[:n] - fine.points[: 2 * n : 2]
    assert np.max(np.linalg.norm(dev, axis=1)) <= 1e-6


def test_variable_geodesic_bends():
    metric = variable_metric()
    x0 = np.array([np.sqrt(1 - 0.25), 0.5, 0.0])
    d = np.array([-1.0, 0.0, 0.0])
    ray = trace_geodesic(metric, x0, d)
    assert np.max(np.abs(ray.points[:, 1] - 0.5)) > 1e-4


# ---------------------------------------------------------------------------
# parallel transport and frames


def test_transport_identity_for_straight_rays():
    ray = line_ray((-1.0, 0, 0), (1.0, 0, 0), 2.0, step=0.05)
    out = parallel_transport(ray, [0.0, 1.0, 2.0])
    assert np.allclose(out, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        parallel_transport(ray, [1.0, 0.0, 0.0])


def test_transport_preserves_h_products():
    metric = variable_metric()
    ray = trace_geodesic(metric, unit([0.7, -0.5, 0.4]), unit([-0.8, 0.5, -0.2]))
    v = metric.speed_at(ray.points)
    for f in (ray.frames[:, 0], ray.frames[:, 1]):
        h_norm = np.linalg.norm(f, axis=1) / v
        h_dot = np.einsum("nj,nj->n", f, ray.tangents) / v**2
        assert np.max(np.abs(h_norm - 1.0)) <= 1e-8
        assert np.max(np.abs(h_dot)) <= 1e-8
    cross = np.einsum("nj,nj->n", ray.frames[:, 0], ray.frames[:, 1]) / v**2
    assert np.max(np.abs(cross)) <= 1e-8


def test_transport_reverse_path_round_trip():
    metric = variable_metric()
    ray = trace_geodesic(metric, unit([0.1, 0.8, 0.55]), unit([0.2, -0.9, -0.4]))
    X0 = ray.frames[0, 0] + 0.37 * ray.frames[0, 1]
    fwd = parallel_transport(ray, X0)
    back = parallel_transport(reverse_ray(ray), fwd)
    assert np.linalg.norm(back - X0) <= 1e-6 * np.linalg.norm(X0)


# ---------------------------------------------------------------------------
# diameter and coverage


def test_diameter_constant_speed():
    for v in (1.0, 2.0):
        metric = constant_metric(v)
        assert diameter(metric, samples=16) == pytest.approx(2.0 / v, abs=1e-6)


def test_diameter_variable_refinement():
    metric = variable_metric(16)
    d1 = diameter(metric, samples=16)
    d2 = diameter(metric, samples=64)
    assert abs(d2 - d1) <= 0.01 * d2


def test_coverage_directions_off_axis():
    rng = np.random.default_rng(2)
    for _ in range(20):
        y = rng.normal(size=3)
        xi, ok = coverage_directions(y)
        assert ok.all()
        assert np.allclose(np.einsum("kj,j->k", xi, y), 0.0, atol=1e-12)
        # pairwise distinct and the quadratic-form sampling matrix well posed
        b1, b2 = np.linalg.svd(np.outer(y, y) / (y @ y))[0].T[1:]
        rows = []
        for x in xi:
            c1, c2 = x @ b1, x @ b2
            rows.append([c1 * c1, c2 * c2, 2 * c1 * c2])
        assert np.linalg.cond(np.asarray(rows)) < 1e8


def test_coverage_directions_axis_degenerate():
    _, ok = coverage_directions([0.0, 0.0, 3.0])
    assert list(ok) == [True, True, False]


def test_metric_validation_and_diagnostics():
    grid = Grid3.cube(12)
    with pytest.raises(ValueError):
        ConformalMetric(ScalarField(grid, np.zeros(grid.dims)))
    m = variable_metric(12)
    assert 0.0 < speed_variation(m) < 1.0


def test_bilinear_stencil_on_grid_planes():
    # points on grid planes of one axis: four corners, the trilinear value
    grid = Grid3.cube(16)
    x = grid.coords()
    vals = np.sin(x[..., 0]) * np.cos(2.0 * x[..., 1]) + x[..., 2] ** 2
    rng = np.random.default_rng(1)
    for axis in range(3):
        pts = rng.uniform(-1.0, 1.0, size=(50, 3))
        pts[:, axis] = grid.axes()[axis][rng.integers(0, 16, size=50)]
        corners = list(_stencil(grid, pts, plane=axis))
        assert len(corners) == 4
        assert np.allclose(sum(w for _, w in corners), 1.0, rtol=0, atol=1e-15)
        got = trilinear(grid, vals, pts, plane=axis)
        assert np.max(np.abs(got - trilinear(grid, vals, pts))) <= 1e-14


def test_in_plane_points_sample_every_plane():
    # in-plane points give each grid plane's bilinear samples, the bytes of
    # the same points placed on that plane; past the box they read zero
    grid = Grid3.cube(12)
    rng = np.random.default_rng(2)
    vals = rng.normal(size=grid.dims + (3,))
    for axis in range(3):
        uv = rng.uniform(-1.4, 1.4, size=(7, 5, 2))
        got = trilinear(grid, vals, uv, plane=axis)
        assert got.shape == (7, 5, 12, 3)
        for j, x in enumerate(grid.axes()[axis]):
            pts = np.insert(uv, axis, x, axis=-1)
            want = trilinear(grid, vals, pts, plane=axis)
            assert got[:, :, j].tobytes() == want.tobytes()
        lo, hi = np.delete(grid.box()[0], axis), np.delete(grid.box()[1], axis)
        out = np.any((uv < lo) | (uv > hi), axis=-1)
        assert np.any(out) and np.all(got[out] == 0.0)


def test_plane_family_grid_plane_needs_every_slice_on_the_grid():
    grid = Grid3.cube(16)
    fams = build_line_families(grid, 6, 16)
    assert [f.grid_plane(grid) for f in fams] == [0, 1, 2]
    assert fams[0].grid_plane(Grid3.cube(15)) is None  # odd planes fall between
    assert build_sphere_family(grid, 5).grid_plane(grid) is None
    # slice j must be grid plane j: one slice moved by one ulp, the planes
    # reversed or only some of them make the family no whole stack
    fam = fams[1]
    moved = fam.slices.copy()
    moved[5] = np.nextafter(moved[5], np.inf)
    for slices in (moved, fam.slices[::-1], fam.slices[::2]):
        other = PlaneFamily(1, 6, 16, slices, fam.center, fam.radius, fam.step)
        assert other.grid_plane(grid) is None
    same = PlaneFamily(1, 6, 16, fam.slices.copy(), fam.center, fam.radius, fam.step)
    assert same.grid_plane(grid) == 1


def _reference_stencil(grid, points, mode="zero", plane=None):
    """The corner stencil as first written, clipping, masking and flooring
    all three axes of every point, the plane axis rounded to its plane
    before the box test; _stencil must give its bytes."""
    u = (np.asarray(points, dtype=float) - np.asarray(grid.origin)) / np.asarray(grid.spacing)
    if plane is not None:
        u[..., plane] = np.rint(u[..., plane])
    top = np.asarray(grid.dims) - 1
    outside = np.any((u < 0.0) | (u > top), axis=-1)
    u = np.clip(u, 0.0, top)
    i0 = np.minimum(u.astype(int), top - 1)
    if plane is not None:
        i0[..., plane] = u[..., plane]
    _, ny, nz = grid.dims
    base = (i0[..., 0] * ny + i0[..., 1]) * nz + i0[..., 2]
    axes = [a for a in range(3) if a != plane]
    strides = [(ny * nz, nz, 1)[a] for a in axes]
    f = u - i0
    g = [np.stack([1.0 - f[..., a], f[..., a]]) for a in axes]
    if mode == "zero":
        g[0][:, outside] = 0.0
    for corner in itertools.product((0, 1), repeat=len(axes)):
        w = g[0][corner[0]]
        for ga, c in zip(g[1:], corner[1:]):
            w = w * ga[c]
        yield base + sum(c * s for c, s in zip(corner, strides)), w


def _reference_trilinear(grid, values, points, mode, plane):
    comp_shape = values.shape[3:]
    flat = values.reshape((-1,) + comp_shape)
    out = np.zeros(np.shape(points)[:-1] + comp_shape)
    for idx, w in _reference_stencil(grid, points, mode, plane):
        out += w.reshape(w.shape + (1,) * len(comp_shape)) * np.take(flat, idx, axis=0)
    return out


def _assert_stencil_bytes(grid, points, mode, plane):
    got = list(_stencil(grid, points, mode, plane))
    want = list(_reference_stencil(grid, points, mode, plane))
    assert len(got) == len(want)
    for (gi, gw), (wi, ww) in zip(got, want):
        gi, gw = np.asarray(gi), np.asarray(gw)
        assert gi.dtype == wi.dtype and gi.tobytes() == wi.tobytes()
        assert gw.dtype == ww.dtype and gw.tobytes() == ww.tobytes()
    rng = np.random.default_rng(len(np.shape(points)))
    for comps in ((), (2,)):
        values = rng.normal(size=grid.dims + comps)
        got = np.asarray(trilinear(grid, values, points, mode, plane))
        want = _reference_trilinear(grid, values, points, mode, plane)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# dyadic origin and spacing: the box faces are exact grid coordinates 0 and top
_STENCIL_GRIDS = [Grid3((8, 9, 10), (0.25, 0.5, 0.125), (-1.0, -2.0, -0.5)), Grid3.cube(12)]
_WHERE = ["inside", "low face", "high face", "ulp below", "ulp above", "far below", "far above"]


def _coordinate(o, h, top, where, u):
    """A coordinate along one axis: o + u h inside, on a face of the box
    (grid coordinate 0 or top), the first float beyond a face, or far out."""
    if where == "inside":
        return o + u * h
    if where.startswith("far"):
        return o + (-2.0 if where == "far below" else top + 3.0) * h
    below = where in ("low face", "ulp below")
    x = o + (0.0 if below else top) * h
    if where.startswith("ulp"):
        while 0.0 <= (x - o) / h <= top:
            x = np.nextafter(x, -np.inf if below else np.inf)
    return x


@settings(max_examples=150, deadline=None)
@given(
    g=st.integers(0, 1),
    mode=st.sampled_from(["zero", "clamp"]),
    plane=st.sampled_from([None, 0, 1, 2]),
    inside_only=st.booleans(),
    where=st.lists(st.tuples(*[st.sampled_from(_WHERE)] * 3), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_stencil_matches_reference_bytes(g, mode, plane, inside_only, where, seed):
    # points strictly inside, outside, on the faces of the box and one ulp
    # beyond; on the plane axis, inside points lie on grid planes
    grid = _STENCIL_GRIDS[g]
    rng = np.random.default_rng(seed)
    pts = np.empty((len(where), 3))
    for p, axes in enumerate(where):
        for a, w in enumerate(axes):
            o, h, top = grid.origin[a], grid.spacing[a], grid.dims[a] - 1
            u = rng.integers(1, top) if a == plane else rng.uniform(1e-6, 1.0 - 1e-6) * top
            pts[p, a] = _coordinate(o, h, top, "inside" if inside_only else w, u)
    _assert_stencil_bytes(grid, pts, mode, plane)
    _assert_stencil_bytes(grid, pts[0], mode, plane)
    _assert_stencil_bytes(grid, pts[:0], mode, plane)


def test_point_on_the_last_grid_plane_reads_its_bilinear_value():
    # the last grid plane of axis 0 of Grid3.cube(8) lies at grid coordinate
    # 7 + 9e-16: rounded to its plane before the box test it is inside, so
    # mode "zero" reads the bilinear value there, not the zero extension
    grid = Grid3.cube(8)
    x = grid.axes()[0][-1]
    assert (x - grid.origin[0]) / grid.spacing[0] > grid.dims[0] - 1
    c = grid.coords()
    vals = 1.0 + c[..., 0] + 2.0 * c[..., 1] - 3.0 * c[..., 2]
    pt = np.array([x, 0.1, -0.2])
    want = 1.0 + x + 2.0 * 0.1 + 3.0 * 0.2
    assert trilinear(grid, vals, pt, plane=0) == pytest.approx(want, abs=1e-12)


def test_stencil_faces_are_exact_on_the_dyadic_grid():
    grid = _STENCIL_GRIDS[0]
    for a in range(3):
        o, h, top = grid.origin[a], grid.spacing[a], grid.dims[a] - 1
        u = [(_coordinate(o, h, top, w, 0.5) - o) / h for w in _WHERE[1:5]]
        assert u[:2] == [0.0, top] and u[2] < 0.0 and u[3] > top


def test_stencil_matches_reference_bytes_on_chord_nodes():
    # the nodes of families reaching past the box: an off-grid plane family's
    # axis-major chord nodes and a sphere family's grid-plane crossings; and
    # of plane families lying in grid planes
    grid = Grid3.cube(12)
    wide = PlaneFamily(0, 7, 9, np.linspace(-1.7, 1.7, 5), np.zeros(3), 1.9, 0.08)
    sphere = SphereFamily(7, 9, np.zeros(3), 1.9)
    lo, hi = grid.box()
    for fam in [wide, sphere] + build_line_families(grid, 5, 12):
        beyond = False
        for m in range(fam.n_views):
            starts, d, lengths = fam.chords(m)
            pts, _, _, plane = fam.nodes(grid, starts, d, lengths)
            if fam.kind == "plane":
                t = np.linspace(0.0, 1.0, fam.n_nodes)
                row_major = starts[..., None, :] + (lengths[..., None] * t)[..., None] * d
                assert pts.shape == row_major.shape
                assert np.ascontiguousarray(pts).tobytes() == row_major.tobytes()
            for mode in ("zero", "clamp"):
                _assert_stencil_bytes(grid, pts, mode, plane)
            beyond |= bool(np.any((pts < lo) | (pts > hi)))
        assert beyond == (fam.radius > 1.5)