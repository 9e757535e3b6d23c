import csv
import dataclasses
import json
import os
import struct

import numpy as np
import pytest

import stresstomo.io as sio
from stresstomo import cli
from stresstomo.fields import (
    CovectorField,
    Grid3,
    SymField2,
    random_bump_sym,
)
from stresstomo.forward import (
    Sinogram,
    kdata_transform,
    longitudinal_transform,
    mixed_transform,
    rytov_family,
)
from stresstomo.geometry import (
    PlaneFamily,
    SphereFamily,
    build_line_families,
    build_sphere_family,
)
from stresstomo.inversion import ReconReport
from stresstomo.io import (
    _HEADER,
    _KINDS,
    _flatten_records,
    _unflatten_records,
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

from reference import random_bump_covector, random_bump_scalar


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
    assert [type(f) for f in fields] == [cls for cls, _ in sio._RANKS]  # every rank code
    for i, fld in enumerate(fields):
        p = tmp_path / f"f{i}.stf"
        write_field(p, fld)
        back = read_field(p)
        assert type(back) is type(fld)
        assert back.grid == fld.grid
        assert np.array_equal(back.values, fld.values)


def test_field_rejects_header_beyond_file(grid, rng, tmp_path):
    p = tmp_path / "f.stf"
    write_field(p, random_bump_sym(grid, rng, radius=0.7))
    data = bytearray(p.read_bytes())
    data[5:17] = struct.pack("<3I", 4000000000, 4000000000, 24)  # the dims, after magic and rank
    p.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="truncated field data"):
        read_field(p)


def test_field_rejects_non_finite_value(grid, rng, tmp_path):
    p = tmp_path / "f.stf"
    fld = random_bump_sym(grid, rng, radius=0.7)
    fld.values[3, 4, 5, 1] = np.nan
    write_field(p, fld)
    with pytest.raises(FloatingPointError, match="non-finite field value") as err:
        read_field(p)
    assert str(p) in str(err.value)


def test_field_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.stf"
    p.write_bytes(b"NOPE" + bytes(100))
    with pytest.raises(ValueError, match="magic"):
        read_field(p)


def test_plane_family_manifest_regenerates_exactly():
    for n in (16, 17, 24):
        for fam in build_line_families(Grid3.cube(n), 12, n):
            man = family_manifest(fam)
            back = family_from_manifest(man)
            assert back.axis == fam.axis
            assert np.array_equal(back.thetas, fam.thetas)
            assert np.array_equal(back.offsets, fam.offsets)
            assert np.array_equal(back.slices, fam.slices)
            assert back.step == fam.step
            assert family_manifest(back) == man


def test_sphere_family_manifest_regenerates_exactly():
    for n in (16, 17, 24):
        fam = build_sphere_family(Grid3.cube(n), 17)
        man = family_manifest(fam)
        back = family_from_manifest(json.loads(json.dumps(man)))
        assert np.array_equal(back.directions, fam.directions)
        assert np.array_equal(back.offsets, fam.offsets)
        assert back.step == fam.step
        assert family_manifest(back) == man


def test_manifest_field_checks_cover_exactly_the_family_init_fields():
    # a family field added without a manifest check fails here
    init = {f.name for cls in (PlaneFamily, SphereFamily) for f in dataclasses.fields(cls)
            if f.init}
    assert set(sio._FIELD_CHECKS) == init


def test_sinogram_round_trip_each_kind(grid, rng, tmp_path):
    R = random_bump_sym(grid, rng, radius=0.6)
    params = MaterialParams(nu=(0.1, 0.4, -0.2, 0.5))
    plane = build_line_families(grid, 6, 16)[0]
    sphere = build_sphere_family(grid, 9)
    sinos = [
        longitudinal_transform(R, plane),
        rytov_family(R, params, plane, scale=1e-3),
        mixed_transform(R, params, plane),
        kdata_transform(R, sphere),
    ]
    assert {s.kind for s in sinos} == set(_KINDS)
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


_NAN, _INF = float("nan"), float("inf")
_HUGE = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "kind, key, value",
    [
        # the five edits of the CLI's manifest test (axis 1 is another valid
        # family there; out of range here), then the rest of each field's range
        ("plane", "step", 0),
        ("plane", "step", "x"),
        ("plane", "axis", 3),
        ("plane", "radius", -1),
        ("plane", "center", [0.0, 0.0]),
        ("plane", "axis", True),
        ("plane", "axis", 1.0),
        ("plane", "step", _INF),
        ("plane", "radius", _NAN),
        ("plane", "radius", None),
        ("plane", "center", [0.0, _NAN, 0.0]),
        ("plane", "center", "abc"),
        ("plane", "offset_count", 0),
        ("plane", "angle_count", 2.5),
        ("plane", "slices", [0.0, _INF]),
        ("plane", "slices", []),
        ("sphere", "direction_count", -1),
        ("sphere", "directions", [[_NAN, 0.0, 1.0]]),
        ("sphere", "directions", [0.0, 0.0, 1.0]),
        ("plane", "center", ["0", "0", "0"]),
        ("plane", "center", [0.0, False, 0.0]),
        ("plane", "slices", [True]),
        ("plane", "slices", ["0.1"]),
        ("sphere", "directions", [[0.0, 0.0, 1.0], [0.0, "1", 0.0]]),
        ("sphere", "directions", [[0.0, 0.0, 1.0], [0.0, 1.0]]),
        ("sphere", "directions", [[0.0, 0.0, 0.0]]),
        ("sphere", "directions", [[0.0, 0.0, 2.0]]),
        ("sphere", "step", -0.1),
        # derived arrays are not fields: the reader refuses them by name
        ("plane", "thetas", [0.1, 0.7, 1.9]),
        ("plane", "offsets", [-0.9, 0.0, 0.9]),
        ("sphere", "offsets", [-0.9, 0.0, 0.9]),
        # JSON integers beyond the float range
        pytest.param("plane", "radius", _HUGE, id="plane-radius-huge"),
        pytest.param("plane", "step", _HUGE, id="plane-step-huge"),
        pytest.param("sphere", "center", [0.0, -_HUGE, 0.0], id="sphere-center-huge"),
        pytest.param("plane", "slices", [0.0, _HUGE], id="plane-slices-huge"),
    ],
)
def test_read_sinogram_rejects_edited_family_manifest(grid, rng, tmp_path, kind, key, value):
    R = random_bump_sym(grid, rng, radius=0.6)
    fam = build_line_families(grid, 6, 16)[0] if kind == "plane" else build_sphere_family(grid, 5)
    p = tmp_path / "s.csv"
    write_sinogram(p, longitudinal_transform(R, fam))
    side = tmp_path / "s.csv.manifest.json"
    man = json.loads(side.read_text())
    man["family"][key] = value
    side.write_text(json.dumps(man))
    with pytest.raises(ValueError, match=key) as err:
        read_sinogram(p)
    assert str(p) in str(err.value)


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda man: dict(man, kind="tensor"), "kind"),
        (lambda man: dict(man, kind=["scalar"]), "kind"),
        (lambda man: {k: v for k, v in man.items() if k != "kind"}, "kind"),
        (lambda man: {k: v for k, v in man.items() if k != "family_id"}, "family_id"),
        (lambda man: dict(man, family_id=0), "family_id"),
        (lambda man: {k: v for k, v in man.items() if k != "family"}, "family"),
        (lambda man: [man], "object"),
    ],
)
def test_read_sinogram_rejects_malformed_manifest(grid, rng, tmp_path, edit, field):
    p, _ = _small_sinogram(grid, rng, tmp_path)
    side = tmp_path / "s.csv.manifest.json"
    side.write_text(json.dumps(edit(json.loads(side.read_text()))))
    with pytest.raises(ValueError, match=field) as err:
        read_sinogram(p)
    assert str(p) in str(err.value)


def test_family_manifest_axis_edit_is_another_valid_family(grid):
    # plane0's manifest edited to axis 1 reads as a plane family on axis 1:
    # only a comparison with the expected family (the CLI's) rejects it
    man = family_manifest(build_line_families(grid, 6, 16)[0])
    fam = family_from_manifest(dict(man, axis=1))
    assert fam.axis == 1 and family_manifest(fam) == dict(man, axis=1)


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


@pytest.mark.parametrize("reader", [read_params, read_report], ids=["params", "report"])
@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{\n  "lam": ,\n}', ":2:10: Expecting value"),
        (b"[1.0]", ": expected a JSON object, got list"),
        (b"\xff{}", ": 'utf-8' codec can't decode"),
    ],
    ids=["syntax", "not-object", "not-utf8"],
)
def test_json_readers_name_the_file(tmp_path, reader, raw, message):
    p = tmp_path / "in.json"
    p.write_bytes(raw)
    with pytest.raises(ValueError) as err:
        reader(p)
    assert str(err.value).startswith(f"{p}{message}")


# ---------------------------------------------------------------------------
# CSV parity with the csv-module writer and the row-by-row reader


def _reference_write(path, sino):
    """The sinogram CSV as the csv module's writer gives it, row by row."""
    fam = sino.family
    family_id = fam.kind + str(getattr(fam, "axis", ""))
    flat = _flatten_records(sino.kind, sino.values)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_HEADER + _KINDS[sino.kind].columns)
        for v, o, s in np.ndindex(flat.shape[:3]):
            w.writerow([family_id, s, v, o, sino.kind] + [repr(float(x)) for x in flat[v, o, s]])


def _reference_read(path):
    """Row-by-row reading with csv, int() and float(): the values, or the
    exception it raises.  It does not look at the family column."""
    with open(str(path) + ".manifest.json") as fh:
        man = json.load(fh)
    kind = man["kind"]
    ncol = len(_KINDS[kind].columns)
    # no count may exceed the rows the file's size allows: a row holds at least
    # the family_id, the kind, the commas, a line end and a digit per number
    rows = os.path.getsize(path) // (len(man["family_id"]) + len(kind) + 2 * ncol + 8)
    bound = f"the {rows} rows the CSV can hold"
    for key in ("angle_count", "offset_count", "direction_count"):
        if man["family"].get(key, 0) > rows:
            v = man["family"][key]
            raise ValueError(f"{path}: family manifest: {key} {v} exceeds {bound}")
    fam = family_from_manifest(man["family"])
    shape = fam.shape
    count = int(np.prod(shape))
    if count > rows:
        raise ValueError(f"{path}: family manifest: ray count {count} exceeds {bound}")
    keys = np.empty((count, 3), dtype=np.intp)
    cols = np.empty((count, ncol))
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        if next(rd, None) != _HEADER + _KINDS[kind].columns:
            raise ValueError(f"{path}: bad sinogram header")
        n = 0
        for n, r in enumerate(rd, start=1):
            if n > count or len(r) != 5 + ncol or r[4] != kind:
                raise ValueError(f"{path}:{n + 1}: unexpected or malformed {kind} record")
            try:
                keys[n - 1] = int(r[2]), int(r[3]), int(r[1])
                cols[n - 1] = [float(v) for v in r[5:]]
            except (OverflowError, ValueError) as e:
                raise ValueError(f"{path}:{n + 1}: {e}") from None
    if n != count:
        raise ValueError(f"{path}: expected {count} rows, got {n}")
    if np.any(keys < 0) or np.any(keys >= shape):
        raise ValueError(f"{path}: ray index out of range")
    flat_keys = np.ravel_multi_index(keys.T, shape)
    if len(np.unique(flat_keys)) != count:
        raise ValueError(f"{path}: duplicated ray index")
    if not np.all(np.isfinite(cols)):
        raise FloatingPointError(f"{path}: non-finite sinogram value")
    flat = np.empty((count, ncol))
    flat[flat_keys] = cols
    return _unflatten_records(kind, flat.reshape(shape + (ncol,)))


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-05, 1.5e16, 2.5e-7, 1 / 3, 123456.789]


def _special_sinograms(grid, rng):
    """One sinogram per kind whose values mix the special floats with random ones."""
    # 1536 and 1024 rows: the reader parses blocks of 1024
    plane, whole = build_line_families(grid, 6, 16)[2], build_line_families(grid, 4, 16)[1]
    sphere = build_sphere_family(grid, 3)

    def vals(shape):
        out = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
        pick = rng.random(shape) < 0.5
        out[pick] = rng.choice(_SPECIAL, size=int(pick.sum()))
        return out

    return [
        Sinogram(plane, "scalar", vals(plane.shape)),
        Sinogram(sphere, "propagator", vals(sphere.shape + (2, 2)) + 1j * vals(sphere.shape + (2, 2))),
        Sinogram(whole, "lmatrix", vals(whole.shape + (2, 2))),
        Sinogram(sphere, "kpair", vals(sphere.shape + (2,))),
    ]


def test_write_sinogram_matches_csv_writer_bytes(grid, rng, tmp_path):
    for i, s in enumerate(_special_sinograms(grid, rng)):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        write_sinogram(got, s)
        _reference_write(want, s)
        text = got.read_bytes()
        assert text == want.read_bytes(), s.kind
        fields = set(text.replace(b"\r\n", b",").split(b","))
        assert {b"-0.0", b"5e-324", b"1e+300", b"1e-05", b"1.5e+16"} <= fields
        assert np.array_equal(read_sinogram(got).values, s.values)


def test_read_sinogram_parses_written_files_in_bulk(grid, rng, tmp_path, monkeypatch):
    def no_row_loop(*args):
        raise AssertionError("row loop used on a well-formed file")

    monkeypatch.setattr(sio, "_parse_rows", no_row_loop)
    for i, s in enumerate(_special_sinograms(grid, rng)):
        p = tmp_path / f"s{i}.csv"
        write_sinogram(p, s)
        assert np.array_equal(read_sinogram(p).values, s.values)
        p.write_bytes(p.read_bytes().replace(b"\r\n", b"\n"))
        assert np.array_equal(read_sinogram(p).values, s.values)


def _field(row, c, f):
    parts = row.split(",")
    parts[c] = f(parts[c])
    return ",".join(parts)


# each edit maps the CRLF-split lines (header first, then "" after the last
# row) to new file bytes; rows are edited away from the family column
_EDITS = {
    "blank line inside": lambda ls: "\r\n".join(ls[:4] + [""] + ls[4:]),
    "blank line for a row": lambda ls: "\r\n".join(ls[:4] + [""] + ls[5:]),
    "trailing blank line": lambda ls: "\r\n".join(ls) + "\r\n",
    "LF line endings": lambda ls: "\n".join(ls),
    "no final line end": lambda ls: "\r\n".join(ls[:-1]),
    "CR line endings": lambda ls: "\r".join(ls),
    "quoted family": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 0, '"{}"'.format)] + ls[4:]),
    "quoted number": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 5, '"{}"'.format)] + ls[4:]),
    "quoted comma": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 5, '"{},"'.format)] + ls[4:]),
    "renamed header column": lambda ls: "\r\n".join([ls[0].replace("angle", "theta")] + ls[1:]),
    "quoted header": lambda ls: "\r\n".join([_field(ls[0], 1, '"{}"'.format)] + ls[1:]),
    "hash in number": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 5, "{}#".format)] + ls[4:]),
    "hash in kind": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 4, "#{}".format)] + ls[4:]),
    "spaces around number": lambda ls: "\r\n".join(
        ls[:3] + [_field(_field(ls[3], 5, " {} ".format), 2, " {}".format)] + ls[4:]),
    "space in kind": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 4, "{} ".format)] + ls[4:]),
    "tab after number": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 5, "{}\t".format)] + ls[4:]),
    "underscore in number": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 5, lambda _: "1_0")] + ls[4:]),
    "underscore in index": lambda ls: "\r\n".join(
        ls[:1] + [_field(r, 1, lambda v: "1_0" if v == "10" else v) for r in ls[1:-1]] + [""]),
    "float index": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 3, "{}.0".format)] + ls[4:]),
    "huge index": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 3, lambda _: "9" * 30)] + ls[4:]),
    "upper-case exponent": lambda ls: "\r\n".join(
        ls[:3] + [_field(ls[3], 5, lambda v: v.upper() if "e" in v else v + "E0")] + ls[4:]),
    "non-ascii digit": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 5, lambda _: "١.5")] + ls[4:]),
    "nul byte": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 5, "{}\0".format)] + ls[4:]),
    "extra column": lambda ls: "\r\n".join(ls[:3] + [ls[3] + ",1.0"] + ls[4:]),
    "missing column": lambda ls: "\r\n".join(ls[:3] + [ls[3].rsplit(",", 1)[0]] + ls[4:]),
    "wrong kind": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 4, lambda _: "kpair")] + ls[4:]),
    "longer kind": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 4, "{}x".format)] + ls[4:]),
    "one row too many": lambda ls: "\r\n".join(ls[:-1] + [ls[-2], ""]),
    "one row too few": lambda ls: "\r\n".join(ls[:-2] + [""]),
    "header only": lambda ls: ls[0] + "\r\n",
    "empty file": lambda ls: "",
    "nan value": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 5, lambda _: "NaN")] + ls[4:]),
    "negative index": lambda ls: "\r\n".join(ls[:3] + [_field(ls[3], 1, lambda _: "-1")] + ls[4:]),
}


@pytest.mark.parametrize("name", sorted(_EDITS))
@pytest.mark.parametrize("which", [0, 1, 2])
def test_read_sinogram_agrees_with_row_reader(grid, rng, tmp_path, name, which):
    s = _special_sinograms(grid, rng)[which]
    p = tmp_path / "s.csv"
    write_sinogram(p, s)
    lines = p.read_bytes().decode("ascii").split("\r\n")
    p.write_bytes(_EDITS[name](lines).encode("utf-8"))
    try:
        want = _reference_read(p)
    except Exception as e:  # noqa: BLE001 - every outcome is compared
        with pytest.raises(type(e)) as err:
            read_sinogram(p)
        assert type(err.value) is type(e)
        assert str(err.value) == str(e)
    else:
        assert np.array_equal(read_sinogram(p).values, want)


def test_read_sinogram_rejects_another_familys_rows(grid, rng, tmp_path):
    # plane0's CSV copied over plane1's, plane1's manifest kept: same shape
    R = random_bump_sym(grid, rng, radius=0.6)
    fams = build_line_families(grid, 6, 16)
    paths = [tmp_path / f"plane{k}.csv" for k in range(2)]
    for p, fam in zip(paths, fams):
        write_sinogram(p, longitudinal_transform(R, fam))
    paths[1].write_bytes(paths[0].read_bytes())
    with pytest.raises(ValueError, match="family 'plane0' where the manifest has 'plane1'") as err:
        read_sinogram(paths[1])
    assert f"{paths[1]}:2:" in str(err.value)


@pytest.mark.parametrize(
    "kind, key, value",
    [
        # beyond any address space: an allocation of this size fails at once
        ("plane", "angle_count", 10**17),
        ("plane", "offset_count", 10**17),
        ("sphere", "direction_count", 10**17),
        ("sphere", "offset_count", 10**17),
        # 200 angles fit the CSV's rows, 200 x 16 x 16 rays do not
        ("plane", "angle_count", 200),
    ],
)
def test_read_sinogram_rejects_counts_beyond_csv(grid, rng, tmp_path, kind, key, value):
    R = random_bump_sym(grid, rng, radius=0.6)
    fam = build_line_families(grid, 6, 16)[0] if kind == "plane" else build_sphere_family(grid, 5)
    p = tmp_path / "s.csv"
    write_sinogram(p, longitudinal_transform(R, fam))
    side = tmp_path / "s.csv.manifest.json"
    man = json.loads(side.read_text())
    man["family"][key] = value
    side.write_text(json.dumps(man))
    with pytest.raises(ValueError, match=key if value > 200 else "ray count") as err:
        read_sinogram(p)
    assert f"{p}: family manifest:" in str(err.value)


@pytest.mark.parametrize("n", [16, 17, 24])
def test_read_plane_families_stay_whole_grid_plane_stacks(n, tmp_path):
    # invert gathers its residuals over the families read back from the
    # sinograms: they must stay whole stacks of the grid's planes, or the
    # gather leaves the in-plane path
    cfg = cli.load_config()
    cfg["grid"]["n"] = cfg["families"]["offsets"] = n
    cfg["families"]["angles"] = 3
    grid = cli._grid_from(cfg)
    for pipeline in ("pwave", "swave"):
        cfg["pipeline"] = pipeline
        fams = [f for f in cli._families(cfg, grid)[1] if f.kind == "plane"]
        fams += build_line_families(grid, 3, n)
        for k, fam in enumerate(fams):
            assert fam.grid_plane(grid) == fam.axis
            path = str(tmp_path / f"{pipeline}{k}.csv")
            write_sinogram(path, Sinogram(fam, "scalar", np.zeros(fam.shape)))
            back = read_sinogram(path).family
            assert back.grid_plane(grid) == back.axis == fam.axis
