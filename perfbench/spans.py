"""In-memory spans around calls into stresstomo's public functions.

Tracing is installed from the benchmark's side: `install` rebinds module and
class attributes of the loaded ``stresstomo`` modules to timing wrappers, and
`uninstall` puts the originals back.  Every name a module imported directly
(``forward.trilinear``, ``cli.pwave_pipeline``, ...) is rebound too, because
the wrappers replace each attribute that holds the original function object.

A span is ``[name, start, end, parent, run, counts]``: ``parent`` is the index
of the enclosing span (or None), ``run`` labels one traced unit of work, and
``counts`` holds per-call work counters.  Times come from
``time.perf_counter``, which on Linux is the system-wide monotonic clock, so
spans recorded in child processes share the parent's timeline.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

SPECTRAL = ("solenoidal_project", "inc_potential", "divergence", "inner_derivative",
            "spectral_gradient")
MATERIAL = ("pwave_weights", "swave_weights", "check_pwave_conditions",
            "check_variable_conditions", "c_from_R", "f_from_R", "f_from_c",
            "contraction_identity_residual")
FORWARD = ("pwave_data", "rytov_family", "longitudinal_transform", "kdata_transform",
           "kdata_adjoint")
INVERSION = ("pwave_pipeline", "swave_pipeline", "invert_I_solenoidal", "detangle_trace",
             "invert_K_tracefree", "recover_trace", "verify_poincare")
IO_FIELD = ("write_field", "read_field")
IO_OTHER = ("write_params", "read_params", "write_report", "read_report")
CLI_COMMANDS = ("generate", "forward", "invert", "verify", "report")


class Tracer:
    """Span recorder; spans stay in memory until `dump`."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []
        self._patches = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), 0.0, parent, self.run, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if count is not None:
                rec[5] = count(out, *args, **kwargs)
            return out

        return traced

    def add(self, spans, parent):
        """Append spans recorded elsewhere, re-rooted under span `parent`."""
        base = len(self.spans)
        for name, t0, t1, par, _, counts in spans:
            self.spans.append(
                [name, t0, t1, parent if par is None else base + par, self.run, counts]
            )

    def install(self):
        """Wrap the benchmark's layer functions in every loaded stresstomo module."""
        from stresstomo import cli, fields, forward, geometry, inversion, io, material

        targets = [("geometry.trilinear", geometry, "trilinear", _count_gather)]
        targets += [("geometry.build", geometry, f, None)
                    for f in ("build_line_families", "build_sphere_family")]
        targets += [(f"fields.{f}", fields, f, None) for f in SPECTRAL]
        targets += [(f"material.{f}", material, f, None) for f in MATERIAL]
        targets += [(f"forward.{f}", forward, f, None) for f in FORWARD]
        targets += [(f"inversion.{f}", inversion, f, None) for f in INVERSION]
        targets += [("io.write_sinogram", io, "write_sinogram", _count_sino_write),
                    ("io.read_sinogram", io, "read_sinogram", _count_sino_read)]
        targets += [(f"io.{f}", io, f, _count_file) for f in IO_FIELD + IO_OTHER]
        targets += [(f"cli.cmd_{c}", cli, f"cmd_{c}", None) for c in CLI_COMMANDS]
        modules = [m for k, m in sys.modules.items() if k.startswith("stresstomo")]
        for name, owner, attr, count in targets:
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for cls in (geometry.PlaneFamily, geometry.SphereFamily):
            self._patches.append((cls, "chords", cls.chords))
            cls.chords = self.wrap("geometry.chords", cls.chords)

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _count_gather(out, grid, values, points, *args, **kwargs):
    npts = int(np.prod(np.shape(points)[:-1]))
    ncomp = int(np.prod(np.shape(values)[3:]))
    return {"points": npts, "values": npts * 8 * ncomp}


def _records(sino):
    return int(np.prod(sino.values.shape[:3]))


def _size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _count_sino_write(out, path, sino, *args, **kwargs):
    return {"rows": _records(sino),
            "bytes_written": _size(path) + _size(str(path) + ".manifest.json")}


def _count_sino_read(out, path, *args, **kwargs):
    return {"rows": _records(out),
            "bytes_read": _size(path) + _size(str(path) + ".manifest.json")}


def _count_file(out, path, *args, **kwargs):
    return {"bytes_written" if out is None else "bytes_read": _size(path)}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced unit


class Layers:
    """Busy time, self time and counts of named spans of one traced unit.

    Spans are stored parent before child, so ancestor names build up in one
    forward pass.
    """

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        self.ancestors = []
        for i, s in enumerate(spans):
            p = s[3]
            if p is None:
                self.ancestors.append(frozenset())
            else:
                self.children[p].append(i)
                self.ancestors.append(self.ancestors[p] | {spans[p][0]})

    def _outer(self, names):
        """Spans named in `names` with no ancestor named in `names`."""
        return [i for i, s in enumerate(self.spans)
                if s[0] in names and self.ancestors[i].isdisjoint(names)]

    def busy(self, *names):
        return sum(self.spans[i][2] - self.spans[i][1] for i in self._outer(names))

    def calls(self, *names):
        return len(self._outer(names))

    def self_time(self, *names):
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0] in names:
                kids = sum(self.spans[c][2] - self.spans[c][1] for c in self.children[i])
                total += s[2] - s[1] - kids
        return total

    def count(self, key, *names, within=None):
        """Sum of counter `key` over spans named in `names`, optionally only
        those with an ancestor named `within`."""
        return sum(s[5].get(key, 0) for i, s in enumerate(self.spans)
                   if s[0] in names and s[5]
                   and (within is None or within in self.ancestors[i]))

    def program_cover(self):
        """Seconds of the round trip covered by the outermost spans of program
        functions; harness phases and processes are not program spans."""
        def harness(name):
            return name.startswith(("harness.", "proc."))

        return sum(s[2] - s[1] for i, s in enumerate(self.spans)
                   if not harness(s[0]) and "harness.setup" not in self.ancestors[i]
                   and all(harness(a) for a in self.ancestors[i]))


def layer_metrics(spans, facts, roundtrip_s):
    """Per-layer metrics (name -> value) of one traced unit."""
    L = Layers(spans)
    f = lambda name: f"forward.{name}"
    i = lambda name: f"inversion.{name}"
    cg_s = L.busy(i("invert_K_tracefree"))
    iters = facts.get("cg_iterations", 0)
    procs = {c: L.busy(f"proc.{c}") for c in CLI_COMMANDS}
    mains = L.busy("cli.main")
    io_names = ("io.write_sinogram", "io.read_sinogram") + tuple(
        f"io.{n}" for n in IO_FIELD + IO_OTHER)
    return {
        "geometry.trilinear.s": L.busy("geometry.trilinear"),
        "geometry.trilinear.calls": L.calls("geometry.trilinear"),
        "geometry.trilinear.values": L.count("values", "geometry.trilinear"),
        "geometry.chords.s": L.busy("geometry.chords"),
        "geometry.chords.calls": L.calls("geometry.chords"),
        "geometry.build.s": L.busy("geometry.build"),
        "fields.spectral.self_s": L.self_time(*(f"fields.{n}" for n in SPECTRAL)),
        "fields.spectral.calls": sum(L.calls(f"fields.{n}") for n in SPECTRAL),
        "fields.solenoidal_project.s": L.busy("fields.solenoidal_project"),
        "fields.inc_potential.s": L.busy("fields.inc_potential"),
        "material.s": L.busy(*(f"material.{n}" for n in MATERIAL)),
        "forward.pwave_data.s": L.busy(f("pwave_data")),
        "forward.rytov_family.s": L.busy(f("rytov_family")),
        "forward.rytov_family.nodes": L.count(
            "points", "geometry.trilinear", within=f("rytov_family")),
        "forward.unitarity_drift": facts.get("drift", 0.0),
        "forward.longitudinal_transform.s": L.busy(f("longitudinal_transform")),
        "forward.longitudinal_transform.calls": L.calls(f("longitudinal_transform")),
        "forward.kdata_transform.s": L.busy(f("kdata_transform")),
        "forward.kdata_transform.calls": L.calls(f("kdata_transform")),
        "forward.kdata_adjoint.s": L.busy(f("kdata_adjoint")),
        "forward.kdata_adjoint.calls": L.calls(f("kdata_adjoint")),
        "inversion.invert_I_solenoidal.s": L.busy(i("invert_I_solenoidal")),
        "inversion.invert_I_solenoidal.self_s": L.self_time(i("invert_I_solenoidal")),
        "inversion.detangle_trace.s": L.busy(i("detangle_trace")),
        "inversion.invert_K_tracefree.s": cg_s,
        "inversion.cg.iterations": iters,
        "inversion.cg.s_per_iter": cg_s / iters if iters else 0.0,
        "inversion.cg.residual": facts.get("cg_residual", 0.0),
        "inversion.recover_trace.s": L.busy(i("recover_trace")),
        "inversion.verify_poincare.s": L.busy(i("verify_poincare")),
        "io.write_sinogram.s": L.busy("io.write_sinogram"),
        "io.write_sinogram.rows": L.count("rows", "io.write_sinogram"),
        "io.read_sinogram.s": L.busy("io.read_sinogram"),
        "io.read_sinogram.rows": L.count("rows", "io.read_sinogram"),
        "io.field.s": L.busy(*(f"io.{n}" for n in IO_FIELD)),
        "io.bytes_written": L.count("bytes_written", *io_names),
        "io.bytes_read": L.count("bytes_read", *io_names),
        **{f"cli.{c}.s": procs[c] for c in CLI_COMMANDS},
        "cli.startup_s": sum(procs.values()) - mains if mains else 0.0,
        "cli.self_s": L.self_time("cli.main", *(f"cli.cmd_{c}" for c in CLI_COMMANDS)),
        "trace.coverage": L.program_cover() / roundtrip_s,
        "quality.rel_error": facts["rel_error"],
        "quality.rel_error_tracefree": facts["rel_error_tracefree"],
    }
