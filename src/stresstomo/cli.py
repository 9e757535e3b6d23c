"""Command-line driver: experiment config, pipelines, verification, export.

Subcommands: generate | forward | invert | verify | report | export.
Exit codes: 0 success, 1 invalid command line, config or missing artifact,
2 solvability condition failure, 3 numerical failure.  Subcommands raise;
main alone prints a failure and picks its code.  Identical config + seed
produce bit-identical sinogram CSVs and reports (timestamps excluded from
hashing).
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .fields import (
    CovectorField,
    Grid3,
    SymField2,
    _bump_support,
    _bumps_on,
    divergence_norm,
    inc_potential,
    random_admissible_potential,
    random_smooth_sym,
    solenoidal_project,
)
from .forward import add_noise, pwave_data, rytov_family
from .geometry import build_line_families, build_sphere_family
from .inversion import (
    CG_MAXITER,
    CG_TOL,
    NonUniqueError,
    ReconReport,
    pwave_pipeline,
    swave_pipeline,
    verify_poincare,
)
from .io import (
    _json_object,
    _numbers,
    _write_json,
    family_manifest,
    read_field,
    read_report,
    read_sinogram,
    write_field,
    write_params,
    write_report,
    write_sinogram,
)
from .material import (
    ConditionError,
    MaterialParams,
    check_pwave_conditions,
    check_swave_conditions,
    contraction_identity_residual,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONDITION = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Invalid experiment configuration."""


_DEFAULTS = {
    "grid": {"n": 24, "halfwidth": 1.2, "ball_radius": 1.0},
    "material": {"lam": 1.0, "mu": 1.0, "rho": 1.0, "nu": [0.1, 0.4, -0.2, 0.5]},
    "families": {"angles": 48, "offsets": None, "sphere_directions": 60},
    "pipeline": "pwave",
    "seed": 0,
    "scale": 1e-3,
    "noise": 0.0,
    "truth_r0": None,
    "tolerances": {"cg_tol": CG_TOL, "cg_maxiter": CG_MAXITER, "floor": 1e-6},
}


def _merge(base, override, path=""):
    out = copy.deepcopy(base)
    for k, v in override.items():
        if k not in base:
            raise ConfigError(f"unknown config key {path + k!r}")
        if isinstance(base[k], dict):
            if not isinstance(v, dict):
                raise ConfigError(f"config key {path + k!r} must be a table")
            out[k] = _merge(base[k], v, path + k + ".")
        else:
            out[k] = v
    return out


# numeric config keys: integers with their least value, positive and plain reals
_INTEGERS = {"grid.n": 8, "families.angles": 3, "families.offsets": 1,
             "families.sphere_directions": 1, "seed": 0, "tolerances.cg_maxiter": 1}
_POSITIVE = ("grid.halfwidth", "grid.ball_radius", "scale", "truth_r0",
             "tolerances.cg_tol", "tolerances.floor")
_REAL = ("material.lam", "material.mu", "material.rho", "noise")


def _check_number(key, v, integer=False):
    if not _numbers(v, 0) or not math.isfinite(v):
        raise ConfigError(f"{key} must be a finite number, got {v!r}")
    if integer and type(v) is not int:
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    if v < _INTEGERS.get(key, -math.inf) or key in _POSITIVE and v <= 0:
        raise ConfigError(f"{key} is out of range: {v!r}")


def load_config(path=None, seed=None):
    user = {} if path is None else _read_artifact(_json_object, path, "config")
    cfg = _merge(_DEFAULTS, user)
    if seed is not None:
        cfg["seed"] = int(seed)
    if cfg["pipeline"] not in ("pwave", "swave"):
        raise ConfigError(f"unknown pipeline {cfg['pipeline']!r}")
    nu = cfg["material"]["nu"]
    if not isinstance(nu, list) or len(nu) != 4:
        raise ConfigError("material.nu must have four entries")
    for i, v in enumerate(nu):
        _check_number(f"material.nu[{i}]", v)
    for key in (*_INTEGERS, *_POSITIVE, *_REAL):
        section, _, name = key.rpartition(".")
        v = (cfg[section] if section else cfg)[name]
        if v is not None or key not in ("families.offsets", "truth_r0"):
            _check_number(key, v, key in _INTEGERS)
    if cfg["noise"] < 0:
        raise ConfigError("noise must be nonnegative")
    n = cfg["grid"]["n"]
    if cfg["families"]["offsets"] is None:
        cfg["families"]["offsets"] = n
    if cfg["families"]["offsets"] < n:
        raise ConfigError("families.offsets must be at least grid.n")
    if cfg["truth_r0"] is None:
        cfg["truth_r0"] = 0.7 if n >= 40 else 0.5 if n >= 20 else 0.25
    try:
        _grid_from(cfg)
        _params_from(cfg)
    except ValueError as e:
        raise ConfigError(str(e))
    return cfg


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _grid_from(cfg):
    g = cfg["grid"]
    return Grid3.cube(g["n"], halfwidth=g["halfwidth"], ball_radius=g["ball_radius"])


def _params_from(cfg):
    m = cfg["material"]
    return MaterialParams(m["lam"], m["mu"], m["rho"], tuple(m["nu"]))


def _read_artifact(reader, path, what):
    """reader(path) of an input artifact; a missing, unreadable or malformed
    one is a config error that says what it is."""
    if not os.path.exists(path):
        raise ConfigError(f"missing {what}: {path}")
    try:
        return reader(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"unreadable {what}: {e}")


def _read_truth(path, grid):
    """The truth field; a config error unless it is a symmetric 2-tensor
    field on the config's grid."""
    R = _read_artifact(read_field, path, "truth field")
    if not isinstance(R, SymField2):
        raise ConfigError(f"{path} does not hold a symmetric 2-tensor field")
    if R.grid != grid:
        raise ConfigError(f"{path} is on another grid than the config's: dims {R.grid.dims}, "
                          f"spacing {R.grid.spacing} against {grid.dims}, {grid.spacing}")
    return R


def _conditions(cfg, params):
    """The solvability checks of the config pipeline's inverse problem,
    against tolerances.floor."""
    floor = cfg["tolerances"]["floor"]
    if cfg["pipeline"] == "pwave":
        return check_pwave_conditions(params, floor=floor)
    return check_swave_conditions(params, floor=floor)


def _families(cfg, grid):
    """The sinogram file names and the ray families of the config's pipeline."""
    fam = cfg["families"]
    planes = build_line_families(grid, fam["angles"], fam["offsets"])
    if cfg["pipeline"] == "pwave":
        return [f"pwave_plane{k}.csv" for k in range(3)], planes
    sphere = build_sphere_family(grid, fam["sphere_directions"])
    return ["swave_sphere.csv"] + [f"swave_plane{k}.csv" for k in range(3)], [sphere] + planes


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(cfg, out):
    os.makedirs(out, exist_ok=True)
    grid = _grid_from(cfg)
    rng = np.random.default_rng(cfg["seed"])
    R = inc_potential(random_admissible_potential(grid, rng, r0=cfg["truth_r0"]))
    write_field(os.path.join(out, "truth.stf"), R)
    write_params(os.path.join(out, "params.json"), _params_from(cfg))
    _write_json(os.path.join(out, "config.json"), dict(cfg, config_hash=config_hash(cfg)))
    print(f"generate: wrote truth.stf ({R.norm():.6g} L2) to {out}")
    return EXIT_OK


def cmd_forward(cfg, out):
    grid = _grid_from(cfg)
    params = _params_from(cfg)
    R = _read_truth(os.path.join(out, "truth.stf"), grid)
    names, families = _families(cfg, grid)
    if cfg["pipeline"] == "pwave":
        sinos = [pwave_data(R, params, f) for f in families]
    else:
        sinos = [rytov_family(R, params, f, scale=cfg["scale"]) for f in families]
    if cfg["noise"] > 0:
        nrng = np.random.default_rng(cfg["seed"] + 1)
        sinos = [add_noise(s, cfg["noise"], nrng) for s in sinos]
    for name, s in zip(names, sinos):
        if not np.all(np.isfinite(s.values)):
            raise FloatingPointError(f"{name}: non-finite sinogram value")
    for name, s in zip(names, sinos):
        write_sinogram(os.path.join(out, name), s)
    _write_json(os.path.join(out, "sinograms.json"),
                {"config_hash": config_hash(cfg), "files": names, "pipeline": cfg["pipeline"]})
    print(f"forward: wrote {len(names)} sinograms to {out}")
    return EXIT_OK


def cmd_invert(cfg, out):
    grid = _grid_from(cfg)
    params = _params_from(cfg)
    man = _read_artifact(_json_object, os.path.join(out, "sinograms.json"), "sinogram manifest")
    if man.get("config_hash") != config_hash(cfg):
        raise ConfigError("sinograms were produced under a different config")
    names, families = _families(cfg, grid)
    sinos = [_read_artifact(read_sinogram, os.path.join(out, n), "sinograms") for n in names]
    for name, sino, expected in zip(names, sinos, families):
        if family_manifest(sino.family) != family_manifest(expected):
            raise ConfigError(f"{name}: the manifest's ray family is not the config's")
    truth_path = os.path.join(out, "truth.stf")
    truth = _read_truth(truth_path, grid) if os.path.exists(truth_path) else None
    tol = cfg["tolerances"]
    cond = _conditions(cfg, params)
    if not cond.all_pass:
        bad = [k for k, ok in cond.passed.items() if not ok]
        raise ConditionError(f"{', '.join(bad)} below floor {cond.floor}")
    if cfg["pipeline"] == "pwave":
        R, report = pwave_pipeline(sinos, params, grid)
    else:
        R, report = swave_pipeline(
            sinos,
            params,
            grid,
            cfg["scale"],
            maxiter=int(tol["cg_maxiter"]),
            tol=tol["cg_tol"],
        )
    report.config["config_hash"] = config_hash(cfg)
    report.config["seed"] = cfg["seed"]
    report.config["noise"] = cfg["noise"]
    if truth is not None:
        report.errors["relative_l2"] = float(
            np.linalg.norm(R.values - truth.values) / np.linalg.norm(truth.values)
        )
    if not np.all(np.isfinite(R.values)):
        raise FloatingPointError("reconstruction is not finite")
    write_field(os.path.join(out, "reconstruction.stf"), R)
    write_report(os.path.join(out, "report.json"), report)
    err = report.errors.get("relative_l2")
    msg = f" rel_error={err:.4f}" if err is not None else ""
    print(f"invert: wrote reconstruction.stf and report.json{msg}")
    return EXIT_OK


def cmd_verify(cfg, out):
    """Invariant suite: solvability conditions, energy-ratio bound,
    contraction identity, and the potential-part kernel of the phase data.

    The conditions are those of the config's pipeline: the P-wave weights
    (weight_sum, leading_weight, trace_uniqueness) or the S-wave ones
    (shear_weight, trace_recovery), against tolerances.floor.

    The energy-ratio check draws its ten bump covectors from one evaluation
    of the coordinates, profile and support, evaluates their modulations on
    the support's nodes only and puts them on the grid one at a time; they
    equal those of ten _random_bumps(grid, rng, 3, radius=0.8) calls.

    verify.json's timing holds the wall time in seconds of each check
    (conditions, poincare, contraction, projection) and of the whole suite
    (total).  verify.json is written and the values printed before a failed
    condition raises ConditionError or an invariant out of tolerance
    RuntimeError.
    """
    t0 = time.perf_counter()
    grid = _grid_from(cfg)
    params = _params_from(cfg)
    rng = np.random.default_rng(cfg["seed"])
    report = ReconReport(config={"pipeline": "verify", "config_hash": config_hash(cfg)})

    cond = _conditions(cfg, params)
    report.conditions.update(cond.values)
    failed_conditions = [k for k, ok in cond.passed.items() if not ok]
    t1 = time.perf_counter()
    report.timing["conditions"] = t1 - t0

    support = _bump_support(grid, 0.8)
    ratios = [
        verify_poincare(CovectorField(grid, _bumps_on(support, rng, 3))) for _ in range(10)
    ]
    del support  # not held through the projection check, where the suite peaks
    report.stages["poincare_max_ratio"] = float(max(ratios))
    t2 = time.perf_counter()
    report.timing["poincare"] = t2 - t1

    res = 0.0
    for _ in range(20):
        Rv = rng.normal(size=(3, 3))
        Rv = 0.5 * (Rv + Rv.T)
        t = rng.normal(size=3)
        t *= float(params.v_p) / np.linalg.norm(t)
        res = max(
            res,
            abs(contraction_identity_residual(Rv, params.nu_values(), t, v_p=float(params.v_p))),
        )
    report.errors["contraction_residual"] = res
    t3 = time.perf_counter()
    report.timing["contraction"] = t3 - t2

    u = random_smooth_sym(grid, rng)
    s = solenoidal_project(u)
    report.errors["divergence_of_projection"] = divergence_norm(s) / max(s.norm(), 1e-300)
    t4 = time.perf_counter()
    report.timing["projection"] = t4 - t3
    report.timing["total"] = t4 - t0

    if out:
        os.makedirs(out, exist_ok=True)
        write_report(os.path.join(out, "verify.json"), report)
    for k, v in {**report.conditions, **report.stages, **report.errors}.items():
        print(f"verify: {k} = {v:.6g}")
    if failed_conditions:
        raise ConditionError(", ".join(failed_conditions))
    if not (report.stages["poincare_max_ratio"] <= 1.0 and res < 1e-10
            and report.errors["divergence_of_projection"] < 1e-8):
        raise RuntimeError("an invariant check is out of tolerance")
    print("verify: all checks pass")
    return EXIT_OK


def cmd_report(cfg, out, inputs):
    if not inputs:
        raise ConfigError("report needs at least one report.json input")
    reports = [_read_artifact(read_report, p, "report") for p in inputs]
    hashes = {r.config.get("config_hash") for r in reports}
    if len(hashes) > 1:
        raise ConfigError(
            f"refusing to merge reports with mismatched config hashes: {sorted(hashes, key=str)}")
    os.makedirs(out, exist_ok=True)
    keys = sorted({k for r in reports for k in r.errors})
    path = os.path.join(out, "metrics.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["source", "pipeline"] + keys)
        for src, r in zip(inputs, reports):
            w.writerow(
                [src, r.config.get("pipeline", "")]
                + [repr(r.errors[k]) if k in r.errors else "" for k in keys]
            )
    merged = ReconReport(config={"config_hash": hashes.pop(), "merged_from": list(inputs)})
    for r in reports:
        for k, v in r.errors.items():
            merged.errors.setdefault(k, v)
    write_report(os.path.join(out, "merged.json"), merged)
    print(f"report: wrote {path} and merged.json from {len(reports)} reports")
    return EXIT_OK


def cmd_export(cfg, out, what, inputs):
    os.makedirs(out, exist_ok=True)
    if what == "noise":
        if not inputs:
            raise ConfigError("export noise needs report.json inputs")
        rows = []
        for p in inputs:
            r = _read_artifact(read_report, p, "report")
            rows.append((r.config.get("noise", 0.0), r.errors.get("relative_l2", "")))
        # by noise only, stable: a missing error is an empty cell, not comparable
        rows.sort(key=lambda row: row[0])
        path = os.path.join(out, "error_vs_noise.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["noise", "relative_l2"])
            w.writerows(rows)
    elif what == "born":
        grid = _grid_from(cfg)
        params = _params_from(cfg)
        rng = np.random.default_rng(cfg["seed"])
        from .fields import random_bump_sym
        from .forward import mixed_transform

        R = random_bump_sym(grid, rng, radius=0.6)
        fam = build_line_families(grid, 6, grid.dims[0])[0]
        scales = [1e-2, 1e-3, 1e-4]
        path = os.path.join(out, "born_slope.csv")
        rows = []
        prev = None
        eye = np.eye(2)
        for s in scales:
            lin = mixed_transform(R, params, fam, scale=s).values
            prop = rytov_family(R, params, fam, scale=s).values
            # the propagator is U = E - i s L + O(s^2): the complex remainder
            # shrinks quadratically with the stress scale
            rem = np.linalg.norm(prop - eye + 1j * lin)
            slope = "" if prev is None else np.log(prev / rem) / np.log(10.0)
            rows.append((s, rem, slope))
            prev = rem
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["scale", "born_remainder", "slope"])
            w.writerows(rows)
    elif what == "conditions":
        base = _params_from(cfg)
        path = os.path.join(out, "condition_landscape.csv")
        grid_vals = np.linspace(-1.0, 1.0, 21)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["nu12", "nu34", "weight_sum", "leading_weight", "trace_uniqueness"])
            for n12 in grid_vals:
                for n34 in grid_vals:
                    p = MaterialParams(base.lam, base.mu, base.rho, (n12, 0.0, n34, 0.0))
                    c = check_pwave_conditions(p)
                    w.writerow(
                        [n12, n34]
                        + [c.values[k] for k in ("weight_sum", "leading_weight", "trace_uniqueness")]
                    )
    else:
        raise ConfigError(f"unknown export table {what!r}")
    print(f"export: wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_CONFIG, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def main(argv=None):
    ap = _ArgumentParser(prog="stresstomo", description=__doc__)
    ap.add_argument("command", choices=["generate", "forward", "invert", "verify", "report", "export"])
    ap.add_argument("inputs", nargs="*", help="input artifacts (report/export)")
    ap.add_argument("--config", help="JSON experiment config")
    ap.add_argument("--seed", type=int, help="override the config seed")
    ap.add_argument("--out", default="out", help="artifact directory")
    ap.add_argument("--table", default="noise", choices=["noise", "born", "conditions"],
                    help="which table `export` emits")
    ap.add_argument("--dry-run", action="store_true", help="print the resolved config and exit")
    args = ap.parse_intermixed_args(argv)

    try:
        cfg = load_config(args.config, seed=args.seed)
        if args.dry_run:
            print(json.dumps(dict(cfg, config_hash=config_hash(cfg)), indent=2, sort_keys=True))
            return EXIT_OK
        if args.command == "generate":
            return cmd_generate(cfg, args.out)
        if args.command == "forward":
            return cmd_forward(cfg, args.out)
        if args.command == "invert":
            return cmd_invert(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
        if args.command == "report":
            return cmd_report(cfg, args.out, args.inputs)
        if args.command == "export":
            return cmd_export(cfg, args.out, args.table, args.inputs)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConditionError, NonUniqueError, ValueError) as e:
        print(f"condition failure: {e}", file=sys.stderr)
        return EXIT_CONDITION
    except (RuntimeError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
