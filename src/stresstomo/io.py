"""File formats: binary fields, ray-family manifests, sinogram CSV, reports.

Field files are a small self-describing binary format ("STF1"); ray
families are stored as JSON manifests of their fields, the parameters their
arrays derive from, so geometry regenerates bit-identically; sinograms are
CSV with one row per ray plus a JSON sidecar manifest; reports and material
parameters are plain JSON.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import itertools
import json
import math
import os
import struct
import sys
import warnings

import numpy as np

from .fields import CovectorField, Domain, Grid3, ScalarField, SymField2
from .forward import Sinogram
from .geometry import PlaneFamily, SphereFamily
from .inversion import ReconReport
from .material import MaterialParams

_MAGIC = b"STF1"
# the field class and per-node component shape of each rank code, and the
# domain kind of each domain code: a code is its index
_RANKS = ((ScalarField, ()), (CovectorField, (3,)), (SymField2, (6,)))
_DOMAINS = ("box", "ball")


# ---------------------------------------------------------------------------
# JSON files


def _json_object(path):
    """The JSON object in the file at path.  Invalid JSON (with its line and
    column) or a value that is not an object raises ValueError naming the
    file; an unreadable file raises OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
        except ValueError as e:  # not UTF-8, or an integer of too many digits
            raise ValueError(f"{path}: {e}") from None
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(d).__name__}")
    return d


def _write_json(path, obj):
    """obj as JSON with two-space indents, sorted keys and a final newline:
    the layout of every JSON file the package writes."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# binary field files


def write_field(path, fld):
    """Binary field file: magic, rank code, dims, spacing, origin, domain,
    then little-endian float64 components in C order."""
    code = next((c for c, (cls, _) in enumerate(_RANKS) if type(fld) is cls), None)
    if code is None:
        raise ValueError(f"cannot serialize field of type {type(fld).__name__}")
    grid = fld.grid
    vals = np.ascontiguousarray(fld.values, dtype="<f8")
    expect = grid.dims + _RANKS[code][1]
    if vals.shape != expect:
        raise ValueError(f"field values have shape {vals.shape}, expected {expect}")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", code))
        fh.write(struct.pack("<3I", *grid.dims))
        fh.write(struct.pack("<3d", *grid.spacing))
        fh.write(struct.pack("<3d", *grid.origin))
        fh.write(struct.pack("<B", _DOMAINS.index(grid.domain.kind)))
        if grid.domain.kind == "ball":
            fh.write(struct.pack("<4d", *grid.domain.center, grid.domain.radius))
        fh.write(vals.tobytes())


def _unpack(fh, fmt, path):
    size = struct.calcsize(fmt)
    buf = fh.read(size)
    if len(buf) != size:
        raise ValueError(f"{path}: truncated field header")
    return struct.unpack(fmt, buf)


def read_field(path):
    """A field written by write_field.

    A bad magic, an unknown rank or domain code, or a header that promises
    more data than the file holds raises ValueError, and a non-finite
    value FloatingPointError, both naming the file.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a field file (bad magic)")
        (code,) = _unpack(fh, "<B", path)
        if code >= len(_RANKS):
            raise ValueError(f"{path}: unknown rank code {code}")
        cls, comps = _RANKS[code]
        dims = _unpack(fh, "<3I", path)
        spacing = _unpack(fh, "<3d", path)
        origin = _unpack(fh, "<3d", path)
        (dcode,) = _unpack(fh, "<B", path)
        if dcode >= len(_DOMAINS):
            raise ValueError(f"{path}: unknown domain code {dcode}")
        if _DOMAINS[dcode] == "ball":
            params = _unpack(fh, "<4d", path)
            domain = Domain("ball", tuple(params[:3]), params[3])
        else:
            domain = Domain("box")
        count = math.prod(dims + comps)
        # a header may promise more data than any file holds: check before reading
        if 8 * count > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError(f"{path}: truncated field data")
        data = np.fromfile(fh, dtype="<f8", count=count)
    grid = Grid3(dims, spacing, origin, domain)
    if not np.all(np.isfinite(data)):
        raise FloatingPointError(f"{path}: non-finite field value")
    return cls(grid, data.reshape(dims + comps).astype(float))


# ---------------------------------------------------------------------------
# ray-family manifests


def family_manifest(family):
    """The family's fields, JSON-ready; family_from_manifest inverts it."""
    return {f.name: np.asarray(getattr(family, f.name)).tolist()
            for f in dataclasses.fields(family)}


def _count(man, key):
    v = man.get(key)
    if type(v) is not int or v < 1:
        raise ValueError(f"family manifest: {key} must be a positive integer, got {v!r}")
    return v


def _numbers(v, depth):
    """Whether v is a JSON number (depth 0) or lists nesting such numbers
    depth deep.  A JSON number is a float, or an int (not a bool) within
    the float range, so that float(v) cannot overflow."""
    if depth == 0:
        return isinstance(v, float) or type(v) is int and abs(v) <= sys.float_info.max
    return isinstance(v, (list, tuple)) and all(_numbers(e, depth - 1) for e in v)


def _length(man, key):
    v = man.get(key)
    if not _numbers(v, 0) or not 0.0 < v < np.inf:
        raise ValueError(f"family manifest: {key} must be a positive finite number, got {v!r}")
    return float(v)


def _floats(man, key, shape):
    """A finite float array of man[key], nested lists of numbers; shape
    may hold -1 for any positive length."""
    v = man.get(key)
    v = np.asarray(v, dtype=float) if _numbers(v, len(shape)) else None
    if (v is None or v.ndim != len(shape) or not v.size or not np.all(np.isfinite(v))
            or any(n not in (-1, m) for n, m in zip(shape, v.shape))):
        raise ValueError(f"family manifest: {key} must be finite floats of shape {shape}")
    return v


def _axis(man, key):
    v = man.get(key)
    if type(v) is not int or v not in (0, 1, 2):
        raise ValueError(f"family manifest: {key} must be 0, 1 or 2, got {v!r}")
    return v


# the check of each init field of the family classes
_FIELD_CHECKS = {
    "axis": _axis,
    "angle_count": _count,
    "offset_count": _count,
    "direction_count": _count,
    "slices": lambda man, key: _floats(man, key, (-1,)),
    "center": lambda man, key: _floats(man, key, (3,)),
    "radius": _length,
    "step": _length,
}


def family_from_manifest(man):
    """The family of the class that kind names, built from the manifest's
    fields; a key that is no field of that class, or a field missing, of the
    wrong type or out of range, raises ValueError naming it."""
    if not isinstance(man, dict):
        raise ValueError(f"family manifest must be an object, got {man!r}")
    cls = next((c for c in (PlaneFamily, SphereFamily) if c.kind == man.get("kind")), None)
    if cls is None:
        raise ValueError(f"unknown family kind {man.get('kind')!r}")
    fields = dataclasses.fields(cls)
    for key in sorted(man.keys() - {f.name for f in fields}):
        raise ValueError(f"family manifest: {key!r} is not a field of a {cls.kind} family")
    return cls(**{f.name: _FIELD_CHECKS[f.name](man, f.name) for f in fields if f.init})


# ---------------------------------------------------------------------------
# sinogram CSV + sidecar manifest

_HEADER = ["family", "slice", "angle", "offset", "kind"]
# per sinogram kind: the value columns, and the trailing shape and dtype of
# the per-ray record; a complex record's columns are its float view, real
# and imaginary parts interleaved
_Kind = collections.namedtuple("_Kind", "columns shape dtype")
_KINDS = {
    "scalar": _Kind(["value"], (), float),
    "propagator": _Kind(["u11_re", "u11_im", "u12_re", "u12_im",
                         "u21_re", "u21_im", "u22_re", "u22_im"], (2, 2), complex),
    "lmatrix": _Kind(["l11", "l12", "l21", "l22"], (2, 2), float),
    "kpair": _Kind(["d", "o"], (2,), float),
}


def _flatten_records(kind, values):
    """(..., record) -> (..., columns) real view of the per-ray records."""
    if kind not in _KINDS:
        raise ValueError(f"unknown sinogram kind {kind!r}")
    columns, shape, dtype = _KINDS[kind]
    v = np.ascontiguousarray(values, dtype=dtype).view(float)
    return v.reshape(v.shape[: v.ndim - len(shape)] + (len(columns),))


def _unflatten_records(kind, cols):
    _, shape, dtype = _KINDS[kind]
    return np.ascontiguousarray(cols).view(dtype).reshape(cols.shape[:-1] + shape)


def write_sinogram(path, sino: Sinogram):
    """CSV with one row per ray plus a JSON sidecar manifest.

    Rows run over (view, offset, slice) and are keyed (slice, angle,
    offset): plane families put the angle in the angle column; sphere
    families put the direction there and the two transverse offsets in
    the offset and slice columns.  The bytes are those of the csv module's
    default writer: CRLF rows, numbers unquoted, every value its float
    repr.  Each view's rows are one %-template, with the family, slice,
    offset and kind filled in once: the view index is substituted, then
    every value as %r (its repr).
    """
    fam = sino.family
    family_id = fam.kind + str(getattr(fam, "axis", ""))
    kind = sino.kind
    flat = _flatten_records(kind, sino.values)
    views, offsets, slices, ncol = flat.shape
    values = ",".join(["%%r"] * ncol)
    rows = "".join([f"{family_id},{s},%(view)d,{o},{kind},{values}\r\n"
                    for o in range(offsets) for s in range(slices)])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_HEADER + _KINDS[kind].columns) + "\r\n")
        for v in range(views):
            fh.write(rows % {"view": v} % tuple(flat[v].ravel().tolist()))
    _write_json(str(path) + ".manifest.json",
                {"family_id": family_id, "kind": kind, "family": family_manifest(fam)})


def _parse_rows(path, family_id, kind, count):
    """Row by row: ray keys (count, 3) in (angle, offset, slice) order and
    values (count, columns) of a sinogram CSV, or ValueError at the first
    bad record, naming the file and the line.  Bytes that are not UTF-8,
    or a record the csv module cannot split (an unmatched quote that runs
    past its field limit), raise ValueError naming the file too, and for
    the latter the line on which the record starts."""
    columns = _KINDS[kind].columns
    ncol = len(columns)
    keys = np.empty((count, 3), dtype=np.intp)
    cols = np.empty((count, ncol))
    with open(path, encoding="utf-8", newline="") as fh:
        rd = csv.reader(fh)
        n, line = 0, 1  # records read, and the line the next one starts on
        try:
            if next(rd, None) != _HEADER + columns:
                raise ValueError(f"{path}: bad sinogram header")
            line = rd.line_num + 1
            for n, r in enumerate(rd, start=1):
                if n > count or len(r) != 5 + ncol or r[4] != kind:
                    raise ValueError(f"{path}:{n + 1}: unexpected or malformed {kind} record")
                if r[0] != family_id:
                    raise ValueError(
                        f"{path}:{n + 1}: family {r[0]!r} where the manifest has {family_id!r}"
                    )
                try:
                    keys[n - 1] = int(r[2]), int(r[3]), int(r[1])
                    cols[n - 1] = [float(v) for v in r[5:]]
                except (OverflowError, ValueError) as e:
                    raise ValueError(f"{path}:{n + 1}: {e}") from None
                line = rd.line_num + 1
        except csv.Error as e:
            raise ValueError(f"{path}:{line}: {e}") from None
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None
    if n != count:
        raise ValueError(f"{path}: expected {count} rows, got {n}")
    return keys, cols


_BULK_ROWS = 1024  # rows per np.loadtxt call: each call's arrays stay below 100 kB


def _parse_bulk(path, family_id, kind, count):
    """_parse_rows' result for a well-formed file from np.loadtxt calls on
    blocks of rows, or None when the file may not be well formed and the
    row loop must decide.

    The file must be ASCII, start with the header and hold exactly count
    rows: loadtxt would skip a blank row that the row loop rejects.
    loadtxt raises ValueError on a quoted or otherwise unparsable number
    and on a wrong column count.  Quotes, '#' or spaces in the family or
    kind column fail the comparison with the manifest instead; those
    columns are read one character wider than expected, so that a longer
    string cannot be truncated into a match.
    """
    columns = _KINDS[kind].columns
    dtype = [("family", f"U{len(family_id) + 1}"), ("slice", np.intp), ("angle", np.intp),
             ("offset", np.intp), ("kind", f"U{len(kind) + 1}")] + [(c, float) for c in columns]
    keys = np.empty((count, 3), dtype=np.intp)
    cols = np.empty((count, len(columns)))
    header = ",".join(_HEADER + columns)
    with open(path, encoding="ascii", newline="\n") as fh:
        if fh.readline() not in (header + "\n", header + "\r\n"):
            return None
        for start in range(0, count, _BULK_ROWS):
            lines = list(itertools.islice(fh, _BULK_ROWS))
            if len(lines) != min(_BULK_ROWS, count - start):
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy < 2 parses "3.0" as 3 with a warning
                rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            if (len(rows) != len(lines) or np.any(rows["family"] != family_id)
                    or np.any(rows["kind"] != kind)):
                return None
            block = slice(start, start + len(rows))
            keys[block] = np.stack([rows["angle"], rows["offset"], rows["slice"]], axis=-1)
            cols[block] = np.stack([rows[c] for c in columns], axis=-1)
        if fh.read(1):
            return None
    return keys, cols


def _max_rows(path, family_id, kind):
    """The most records a sinogram CSV of path's size can hold: a record
    has at least its family_id, three one-digit indices, its kind, a digit
    per value column, the commas between and a one-byte line end."""
    ncol = len(_KINDS[kind].columns)
    return os.path.getsize(path) // (len(family_id) + len(kind) + 2 * ncol + 8)


def _check_rows(rows, what, v):
    if type(v) is int and v > rows:
        raise ValueError(f"family manifest: {what} {v} exceeds the {rows} rows the CSV can hold")


def read_sinogram(path):
    """Read a sinogram CSV and its manifest.

    The manifest must be a JSON object (_json_object) with a string
    family_id, a known kind and a family, which family_from_manifest
    checks; its counts, and the family's ray count, must fit the rows the
    CSV's size allows, which is checked before anything of their size is
    allocated.  Every ray index of the family must appear exactly once, and
    every row must name the manifest's family and kind; a malformed
    manifest or record raises ValueError and non-finite values
    FloatingPointError, both naming the file.  A well-formed file is parsed
    in bulk; any other goes through the row loop, which finds the first bad
    line.
    """
    try:
        man = _json_object(str(path) + ".manifest.json")
        family_id, kind = man.get("family_id"), man.get("kind")
        if type(family_id) is not str:
            raise ValueError(f"manifest: family_id must be a string, got {family_id!r}")
        if type(kind) is not str or kind not in _KINDS:
            raise ValueError(f"manifest: kind must be one of {sorted(_KINDS)}, got {kind!r}")
        rows = _max_rows(path, family_id, kind)
        fman = man.get("family")
        for key in ("angle_count", "offset_count", "direction_count"):
            _check_rows(rows, key, fman.get(key) if isinstance(fman, dict) else None)
        fam = family_from_manifest(fman)
        count = math.prod(fam.shape)
        _check_rows(rows, "ray count", count)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    ncol = len(_KINDS[kind].columns)
    shape = fam.shape
    args = (path, family_id, kind, count)
    try:
        parsed = _parse_bulk(*args)
    except (ValueError, Warning):  # not ASCII, or not what loadtxt reads
        parsed = None
    # rows are keyed (slice, angle, offset); records are stored (angle, offset, slice)
    keys, cols = parsed or _parse_rows(*args)
    if np.any(keys < 0) or np.any(keys >= shape):
        raise ValueError(f"{path}: ray index out of range")
    flat_keys = np.ravel_multi_index(keys.T, shape)
    # count keys, all in range: a duplicate leaves some index unseen
    seen = np.zeros(count, dtype=bool)
    seen[flat_keys] = True
    if not seen.all():
        raise ValueError(f"{path}: duplicated ray index")
    if not np.all(np.isfinite(cols)):
        raise FloatingPointError(f"{path}: non-finite sinogram value")
    flat = np.empty((count, ncol))
    flat[flat_keys] = cols
    return Sinogram(fam, kind, _unflatten_records(kind, flat.reshape(shape + (ncol,))))


# ---------------------------------------------------------------------------
# parameters and reports


def write_params(path, params: MaterialParams):
    if not params.constants_mode:
        raise ValueError("only constants-mode parameters serialize to JSON")
    _write_json(path, dataclasses.asdict(params))


def read_params(path) -> MaterialParams:
    """Parameters written by write_params.  The file must hold a JSON
    object (_json_object) whose lam, mu and rho are numbers and whose nu is
    four numbers (_numbers); else ValueError naming the file and the key."""
    d = _json_object(path)
    for key, depth in (("lam", 0), ("mu", 0), ("rho", 0), ("nu", 1)):
        v = d.get(key)
        if not _numbers(v, depth) or depth and len(v) != 4:
            what = "four numbers" if depth else "a number"
            raise ValueError(f"{path}: params key {key!r} must be {what}, got {v!r}")
    return MaterialParams(d["lam"], d["mu"], d["rho"], tuple(d["nu"]))


def write_report(path, report: ReconReport):
    _write_json(path, report.to_dict())


# the config fields that `stresstomo report` and `export` read, with their types
_CONFIG_TYPES = {
    "config_hash": lambda v: v is None or isinstance(v, str),
    "pipeline": lambda v: isinstance(v, str),
    "noise": lambda v: _numbers(v, 0),
}


def read_report(path) -> ReconReport:
    """A report written by write_report.

    The file must hold a JSON object (_json_object).  Each section that
    ReconReport's fields name must be an object, errors must map names to
    numbers, and the config's config_hash (a string or null), pipeline (a
    string) and noise (a number) must have their types; else ValueError
    naming the file and the section.
    """
    d = _json_object(path)
    for f in dataclasses.fields(ReconReport):
        if not isinstance(d.get(f.name, {}), dict):
            raise ValueError(f"{path}: report section {f.name!r} must be an object")
    report = ReconReport.from_dict(d)
    if not all(_numbers(v, 0) for v in report.errors.values()):
        raise ValueError(f"{path}: report section 'errors' must map names to numbers")
    for key, ok in _CONFIG_TYPES.items():
        if key in report.config and not ok(report.config[key]):
            raise ValueError(f"{path}: report section 'config' has a malformed {key}: "
                             f"{report.config[key]!r}")
    return report
