import numpy as np
import pytest

from stresstomo.fields import (
    CovectorField,
    Grid3,
    ScalarField,
    SymField2,
    random_bump_covector,
    random_bump_scalar,
    random_bump_sym,
)
from stresstomo.forward import (
    kdata_transform,
    longitudinal_transform,
    mixed_transform,
    rytov_family,
    scalar_transform,
)
from stresstomo.geometry import build_line_families, build_sphere_family
from stresstomo.inversion import ReconReport
from stresstomo.io import (
    family_from_manifest,
    family_manifest,
    read_field,
    read_params,
    read_report,
    read_sinogram,
    write_field,
    write_params,
    write_report,
    write_sinogram,
)
from stresstomo.material import MaterialParams


@pytest.fixture
def grid():
    return Grid3.cube(16)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_field_round_trip_all_ranks(grid, rng, tmp_path):
    fields = [
        random_bump_scalar(grid, rng, radius=0.7),
        random_bump_covector(grid, rng, radius=0.7),
        random_bump_sym(grid, rng, radius=0.7),
    ]
    for i, fld in enumerate(fields):
        p = tmp_path / f"f{i}.stf"
        write_field(p, fld)
        back = read_field(p)
        assert type(back) is type(fld)
        assert back.grid == fld.grid
        assert np.array_equal(back.values, fld.values)


def test_field_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.stf"
    p.write_bytes(b"NOPE" + bytes(100))
    with pytest.raises(ValueError, match="magic"):
        read_field(p)


def test_plane_family_manifest_regenerates_exactly(grid):
    for fam in build_line_families(grid, 12, 16):
        back = family_from_manifest(family_manifest(fam))
        assert back.axis == fam.axis
        assert np.array_equal(back.thetas, fam.thetas)
        assert np.array_equal(back.offsets, fam.offsets)
        assert np.array_equal(back.slices, fam.slices)
        assert back.step == fam.step


def test_sphere_family_manifest_regenerates_exactly(grid):
    fam = build_sphere_family(grid, 17)
    back = family_from_manifest(family_manifest(fam))
    assert np.array_equal(back.directions, fam.directions)
    assert np.array_equal(back.offsets, fam.offsets)
    assert back.step == fam.step


def test_sinogram_round_trip_each_kind(grid, rng, tmp_path):
    R = random_bump_sym(grid, rng, radius=0.6)
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    plane = build_line_families(grid, 6, 16)[0]
    sphere = build_sphere_family(grid, 9)
    sinos = [
        scalar_transform(ScalarField(grid, R.values[..., 0]), plane),
        longitudinal_transform(R, plane),
        rytov_family(R, params, plane, scale=1e-3),
        mixed_transform(R, params, plane),
        kdata_transform(R, sphere),
    ]
    for i, s in enumerate(sinos):
        p = tmp_path / f"s{i}.csv"
        write_sinogram(p, s)
        back = read_sinogram(p)
        assert back.kind == s.kind
        assert np.array_equal(back.values, s.values)


def _small_sinogram(grid, rng, tmp_path):
    R = random_bump_sym(grid, rng, radius=0.6)
    p = tmp_path / "s.csv"
    write_sinogram(p, longitudinal_transform(R, build_line_families(grid, 6, 16)[0]))
    return p, p.read_text().splitlines()


@pytest.mark.parametrize(
    "edit, match",
    [
        # a duplicated row replaces another: one record would stay unset
        (lambda rows: rows[:2] + [rows[1]] + rows[3:], "duplicated"),
        (lambda rows: rows[:1] + [rows[1].replace("plane0,0,0,", "plane0,-1,0,", 1)] + rows[2:],
         "out of range"),
        (lambda rows: rows[:1] + [rows[1].replace("plane0,0,0,", "plane0,16,0,", 1)] + rows[2:],
         "out of range"),
        (lambda rows: rows[:1] + [rows[1] + ",1.0"] + rows[2:], "malformed"),
        (lambda rows: rows[:1] + [rows[1].replace("plane0,0,", "plane0,x,", 1)] + rows[2:],
         "invalid literal"),
        (lambda rows: rows[:-1], "expected"),
    ],
)
def test_sinogram_rejects_malformed_records(grid, rng, tmp_path, edit, match):
    p, rows = _small_sinogram(grid, rng, tmp_path)
    p.write_text("\n".join(edit(rows)) + "\n")
    with pytest.raises(ValueError, match=match) as err:
        read_sinogram(p)
    assert str(p) in str(err.value)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_sinogram_rejects_non_finite_values(grid, rng, tmp_path, bad):
    p, rows = _small_sinogram(grid, rng, tmp_path)
    rows[5] = rows[5].rsplit(",", 1)[0] + "," + bad
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(FloatingPointError, match="non-finite") as err:
        read_sinogram(p)
    assert str(p) in str(err.value)


def test_sinogram_write_is_deterministic(grid, rng, tmp_path):
    R = random_bump_sym(grid, rng, radius=0.6)
    plane = build_line_families(grid, 6, 16)[1]
    s = longitudinal_transform(R, plane)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sinogram(p1, s)
    write_sinogram(p2, s)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.csv.manifest.json").read_bytes() == (
        tmp_path / "b.csv.manifest.json"
    ).read_bytes()


def test_params_round_trip(tmp_path):
    p = tmp_path / "params.json"
    params = MaterialParams(2.0, 1.5, 1.2, (0.1, 0.2, 0.3, 0.4))
    write_params(p, params)
    back = read_params(p)
    assert back == params


def test_report_round_trip(tmp_path):
    p = tmp_path / "report.json"
    rep = ReconReport(stages={"R_norm": 1.0}, config={"pipeline": "pwave"})
    write_report(p, rep)
    assert read_report(p).to_dict() == rep.to_dict()
