import dataclasses
import functools
import json
import operator
import os
import shutil
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresstomo import cli
from stresstomo.cli import (
    EXIT_CONDITION,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    config_hash,
    load_config,
    main,
)
from stresstomo.inversion import ReconReport
from stresstomo.io import read_field, read_report, write_field, write_report


_HUGE = 10**400  # a JSON integer beyond the float range


def write_cfg(tmp_path, **over):
    cfg = {
        "grid": {"n": 16},
        "families": {"angles": 24, "offsets": 24},
        "pipeline": "pwave",
        "seed": 3,
    }
    cfg.update(over)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"grdi": {"n": 16}}')
    assert main(["generate", "--config", str(p), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_load_config_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["generate", "--config", str(p), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_config_hash_ignores_nothing_and_is_stable(tmp_path):
    cfg1 = load_config(write_cfg(tmp_path))
    cfg2 = load_config(write_cfg(tmp_path))
    assert config_hash(cfg1) == config_hash(cfg2)
    cfg3 = load_config(write_cfg(tmp_path, seed=4))
    assert config_hash(cfg1) != config_hash(cfg3)


def test_dry_run_prints_resolved_config(tmp_path, capsys):
    assert main(["generate", "--config", write_cfg(tmp_path), "--dry-run"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["grid"]["n"] == 16
    assert "config_hash" in out


def test_generate_forward_invert_round_trip(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["forward", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_OK
    rec = read_field(os.path.join(out, "reconstruction.stf"))
    assert np.all(np.isfinite(rec.values))
    rep = read_report(os.path.join(out, "report.json"))
    assert rep.config["pipeline"] == "pwave"
    assert "relative_l2" in rep.errors
    assert rep.config["config_hash"] == config_hash(load_config(cfg))


def test_forward_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
        assert main(["forward", "--config", cfg, "--out", out]) == EXIT_OK
        outs.append(out)
    for k in range(3):
        fa = os.path.join(outs[0], f"pwave_plane{k}.csv")
        fb = os.path.join(outs[1], f"pwave_plane{k}.csv")
        assert open(fa, "rb").read() == open(fb, "rb").read()


def test_invert_refuses_mismatched_config(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["forward", "--config", cfg, "--out", out]) == EXIT_OK
    other = write_cfg(tmp_path, seed=99)
    assert main(["invert", "--config", other, "--out", out]) == EXIT_CONFIG


def test_invert_degenerate_weights_exit_condition(tmp_path):
    cfg = write_cfg(
        tmp_path, material={"lam": 1.0, "mu": 1.0, "rho": 1.0, "nu": [-1.0, 0.0, 0.0, 0.0]}
    )
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["forward", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_CONDITION


def test_verify_default_params_passes(tmp_path):
    cfg = write_cfg(tmp_path, material={"lam": 1.0, "mu": 1.0, "rho": 1.0, "nu": [0.0, 0.0, 0.0, 0.0]})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_OK


def _swave_cfg(tmp_path, nu):
    return write_cfg(tmp_path, pipeline="swave", material={"nu": nu},
                     families={"angles": 12, "offsets": 16, "sphere_directions": 20})


def test_verify_swave_records_swave_conditions(tmp_path):
    # 1 + nu3 + nu4 = 0 fails a P-wave condition, which the shear route never uses
    cfg = _swave_cfg(tmp_path, [0.1, 0.4, -1.5, 0.5])
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    conditions = read_report(str(out / "verify.json")).conditions
    assert conditions == {"shear_weight": 0.5, "trace_recovery": pytest.approx(0.8 + 2.0 / 3.0)}


@pytest.mark.parametrize(
    "nu, failed",
    [([0.1, -0.2, 0.0, 0.3], "trace_recovery"), ([0.1, 0.4, 0.0, 0.0], "shear_weight")],
    ids=["a-plus-two-thirds", "nu4-zero"],
)
def test_verify_swave_condition_failure(tmp_path, capsys, nu, failed):
    cfg = _swave_cfg(tmp_path, nu)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_CONDITION
    _failure_on_stderr(capsys, f"condition failure: {failed}")


def test_invert_swave_condition_failure_precedes_the_solve(tmp_path, capsys, monkeypatch):
    cfg = _swave_cfg(tmp_path, [0.1, -0.2, 0.0, 0.3])
    out = str(tmp_path / "run")
    for command in ("generate", "forward"):
        assert main([command, "--config", cfg, "--out", out]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(cli, "swave_pipeline", lambda *args, **kwargs: pytest.fail("solved"))
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_CONDITION
    _failure_on_stderr(capsys, "condition failure: trace_recovery below floor")
    assert not os.path.exists(os.path.join(out, "report.json"))


@pytest.mark.parametrize("command", ["forward", "invert"])
def test_non_finite_truth_field_exits_numerical(tmp_path, capsys, command):
    cfg, out = write_cfg(tmp_path), str(tmp_path / "run")
    for step in ("generate", "forward")[: 1 if command == "forward" else 2]:
        assert main([step, "--config", cfg, "--out", out]) == EXIT_OK
    path = os.path.join(out, "truth.stf")
    R = read_field(path)
    R.values[8, 8, 8, 0] = np.nan
    write_field(path, R)
    written = sorted(os.listdir(out))
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", out]) == EXIT_NUMERICAL
    _failure_on_stderr(capsys, f"numerical failure: {path}: non-finite field value")
    assert sorted(os.listdir(out)) == written


def test_report_merges_and_refuses_mismatch(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["forward", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_OK
    rep = os.path.join(out, "report.json")
    merged = str(tmp_path / "merged")
    assert main(["report", rep, rep, "--config", cfg, "--out", merged]) == EXIT_OK
    assert os.path.exists(os.path.join(merged, "metrics.csv"))
    # a report with a different hash is refused
    other = read_report(rep)
    other.config["config_hash"] = "deadbeef"
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write(json.dumps(other.to_dict(), indent=2, sort_keys=True))
    assert main(["report", rep, bad, "--config", cfg, "--out", merged]) == EXIT_CONFIG


def test_report_needs_inputs(tmp_path):
    assert main(["report", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_export_conditions_table(tmp_path):
    assert (
        main(["export", "--table", "conditions", "--out", str(tmp_path / "exp")]) == EXIT_OK
    )
    path = tmp_path / "exp" / "condition_landscape.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "nu12,nu34,weight_sum,leading_weight,trace_uniqueness"
    assert len(lines) == 1 + 21 * 21


def test_export_born_table(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["export", "--table", "born", "--config", cfg, "--out", str(tmp_path / "exp")]) == EXIT_OK
    lines = (tmp_path / "exp" / "born_slope.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    # remainder shrinks quadratically: slope per decade of scale near 2
    slopes = [float(r.split(",")[2]) for r in lines[2:]]
    for s in slopes:
        assert 1.7 < s < 2.3


def test_export_noise_table_reports_configured_noise(tmp_path):
    reports = []
    for noise in (0.01, 0.0):
        cfg = write_cfg(tmp_path, noise=noise)
        out = str(tmp_path / f"run{noise}")
        for command in ("generate", "forward", "invert"):
            assert main([command, "--config", cfg, "--out", out]) == EXIT_OK
        reports.append(os.path.join(out, "report.json"))
    assert main(["export", *reports, "--table", "noise", "--out", str(tmp_path / "exp")]) == EXIT_OK
    lines = (tmp_path / "exp" / "error_vs_noise.csv").read_text().strip().splitlines()
    assert lines[0] == "noise,relative_l2"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == [0.0, 0.01]


def test_export_noise_table_keeps_reports_without_an_error(tmp_path, capsys):
    # two reports at one noise level, one without errors.relative_l2 (an
    # invert run without a truth): both rows, input order, an empty cell
    reps = [tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"]
    reps[0].write_text(json.dumps({"config": {"noise": 0.0}, "errors": {"relative_l2": 0.1}}))
    reps[1].write_text(json.dumps({"config": {"noise": 0.0}, "errors": {}}))
    reps[2].write_text(json.dumps({"config": {"noise": 0.01}, "errors": {"relative_l2": 0.2}}))
    out = tmp_path / "exp"
    argv = ["export", str(reps[2]), str(reps[0]), str(reps[1]), "--table", "noise", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    lines = (out / "error_vs_noise.csv").read_text().strip().splitlines()
    assert lines == ["noise,relative_l2", "0.0,0.1", "0.0,", "0.01,0.2"]


@pytest.mark.parametrize(
    "over",
    [
        {"families": {"angles": 2, "offsets": 24}},
        {"grid": {"n": "16"}},
        {"grid": {"n": 16.0}},
        {"families": {"angles": 24, "offsets": 8}},
        {"material": {"lam": 1.0, "mu": -1.0, "rho": 1.0, "nu": [0.1, 0.4, -0.2, 0.5]}},
        {"material": {"lam": 1.0, "mu": 1.0, "rho": 1.0, "nu": [0.1, "x", -0.2, 0.5]}},
        {"grid": {"n": 16, "ball_radius": 2.0}},
        {"tolerances": {"cg_maxiter": True}},
        {"seed": -1},
        {"scale": 0.0},
        # numbers beyond the float range
        {"grid": {"n": 16, "halfwidth": _HUGE}},
        {"truth_r0": _HUGE},
        {"material": {"nu": [0.1, 0.4, -0.2, _HUGE]}},
        {"noise": _HUGE},
    ],
)
def test_load_config_rejects_bad_types_and_ranges(tmp_path, over):
    cfg = write_cfg(tmp_path, **over)
    with pytest.raises(cli.ConfigError):
        load_config(cfg)
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_CONFIG


def test_threads_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit):
        main(["verify", "--threads", "2", "--out", str(tmp_path)])


@pytest.mark.parametrize(
    "argv", [["verify", "--no-such-flag"], ["frobnicate"], ["generate", "--seed", "x"]]
)
def test_usage_error_exits_config(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    assert "usage:" in capsys.readouterr().err


def test_export_accepts_inputs_after_options(tmp_path):
    rep = str(tmp_path / "a.json")
    write_report(rep, ReconReport(errors={"relative_l2": 0.25}, config={"noise": 0.02}))
    out = tmp_path / "exp"
    assert main(["export", "--table", "noise", "--out", str(out), rep]) == EXIT_OK
    lines = (out / "error_vs_noise.csv").read_text().strip().splitlines()
    assert lines == ["noise,relative_l2", "0.02,0.25"]


def _forwarded(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
    assert main(["forward", "--config", cfg, "--out", out]) == EXIT_OK
    path = os.path.join(out, "pwave_plane1.csv")
    with open(path) as fh:
        return cfg, out, path, fh.read().splitlines()


def test_invert_malformed_sinogram_exits_config(tmp_path, capsys):
    cfg, out, path, rows = _forwarded(tmp_path)
    with open(path, "w") as fh:
        fh.write("\n".join(rows[:2] + [rows[1]] + rows[3:]) + "\n")
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "pwave_plane1.csv" in capsys.readouterr().err


def test_invert_non_finite_sinogram_exits_numerical(tmp_path, capsys):
    cfg, out, path, rows = _forwarded(tmp_path)
    rows[7] = rows[7].rsplit(",", 1)[0] + ",nan"
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_NUMERICAL
    assert "pwave_plane1.csv" in capsys.readouterr().err


def test_invert_rejects_another_familys_sinogram(tmp_path, capsys):
    # plane0's CSV copied over plane1's, plane1's manifest kept
    cfg, out, path, _ = _forwarded(tmp_path)
    shutil.copy(os.path.join(out, "pwave_plane0.csv"), path)
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "pwave_plane1.csv:2: family 'plane0'" in err


@pytest.mark.parametrize(
    "key, value",
    [("step", 0), ("step", "x"), ("axis", 1), ("radius", -1), ("center", [0.0, 0.0]),
     ("radius", _HUGE)],
    ids=["step-zero", "step-string", "axis", "radius", "center", "radius-huge"],
)
def test_invert_rejects_edited_family_manifest(tmp_path, key, value):
    # the sidecar of one sinogram describes another family than the config's
    cfg, out, _, _ = _forwarded(tmp_path)
    path = os.path.join(out, "pwave_plane0.csv.manifest.json")
    with open(path) as fh:
        man = json.load(fh)
    man["family"][key] = value
    with open(path, "w") as fh:
        json.dump(man, fh)
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_CONFIG


@pytest.mark.parametrize("key, value", [("kind", "tensor"), ("family_id", None)])
def test_invert_rejects_edited_sinogram_manifest(tmp_path, capsys, key, value):
    cfg, out, _, _ = _forwarded(tmp_path)
    path = os.path.join(out, "pwave_plane0.csv.manifest.json")
    with open(path) as fh:
        man = json.load(fh)
    man[key] = value
    with open(path, "w") as fh:
        json.dump(man, fh)
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert f"pwave_plane0.csv: manifest: {key}" in capsys.readouterr().err


def test_verify_pipeline_value_is_rejected(tmp_path):
    cfg = write_cfg(tmp_path, pipeline="verify")
    out = tmp_path / "run"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_invert_broken_sinogram_manifest_exits_config(tmp_path, capsys):
    # sinograms.json, then one family's manifest: the error names the file,
    # the line and the column
    cfg, out, _, _ = _forwarded(tmp_path)
    for name in ("sinograms.json", "pwave_plane1.csv.manifest.json"):
        path = os.path.join(out, name)
        with open(path) as fh:
            good = fh.read()
        with open(path, "w") as fh:
            fh.write("{\n  not json")
        capsys.readouterr()
        assert main(["invert", "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert f"{path}:2:3: " in capsys.readouterr().err
        with open(path, "w") as fh:
            fh.write(good)


@pytest.mark.parametrize(
    "command, damage",
    [
        ("invert", lambda b: b[: len(b) // 2]),  # truncated field data
        ("forward", lambda b: b"NOPE" + b[4:]),  # bad magic
        ("forward", lambda b: b[:10]),  # header cut short
    ],
    ids=["truncated", "bad-magic", "short-header"],
)
def test_corrupt_truth_field_exits_config(tmp_path, capsys, command, damage):
    cfg, out, _, _ = _forwarded(tmp_path)
    path = os.path.join(out, "truth.stf")
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(damage(data))
    assert main([command, "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "truth.stf" in capsys.readouterr().err


def test_truth_field_header_beyond_file_exits_config(tmp_path, capsys):
    # dims of 4e9 x 4e9 x 24 nodes in a file of a few hundred kB
    cfg, out, _, _ = _forwarded(tmp_path)
    with open(os.path.join(out, "truth.stf"), "r+b") as fh:
        fh.seek(5)  # past the magic and the rank code
        fh.write(struct.pack("<3I", 4000000000, 4000000000, 24))
    assert main(["forward", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "unreadable truth field: " in (err := capsys.readouterr().err)
    assert "truncated field data" in err


def test_invert_rejects_manifest_counts_beyond_csv(tmp_path, capsys):
    # 10**17 angles: beyond any address space, so an allocation of that size fails at once
    cfg, out, _, _ = _forwarded(tmp_path)
    path = os.path.join(out, "pwave_plane0.csv.manifest.json")
    with open(path) as fh:
        man = json.load(fh)
    man["family"]["angle_count"] = 10**17
    with open(path, "w") as fh:
        json.dump(man, fh)
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "pwave_plane0.csv: family manifest: angle_count" in capsys.readouterr().err


def _truth_on_larger_grid(tmp_path):
    """A truth.stf generated under the same config but with grid.n 24."""
    (tmp_path / "large").mkdir()
    cfg = write_cfg(tmp_path / "large", grid={"n": 24})
    out = str(tmp_path / "large" / "run")
    assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
    return os.path.join(out, "truth.stf")


def test_forward_refuses_truth_on_another_grid(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path), str(tmp_path / "run")
    os.makedirs(out)
    shutil.copy(_truth_on_larger_grid(tmp_path), os.path.join(out, "truth.stf"))
    assert main(["forward", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "truth.stf is on another grid" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "sinograms.json"))


def test_invert_refuses_truth_on_another_grid(tmp_path, capsys):
    cfg, out, _, _ = _forwarded(tmp_path)
    shutil.copy(_truth_on_larger_grid(tmp_path), os.path.join(out, "truth.stf"))
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "truth.stf is on another grid" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_report_corrupt_input_exits_config(tmp_path, capsys):
    bad = tmp_path / "report.json"
    bad.write_text('{"errors": {"relative_l2": 0.1')
    assert main(["report", str(bad), "--out", str(tmp_path / "merged")]) == EXIT_CONFIG
    assert "report.json" in capsys.readouterr().err


def test_verify_records_its_timing(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out]) == EXIT_OK
    timing = read_report(os.path.join(out, "verify.json")).timing
    assert set(timing) == {"conditions", "poincare", "contraction", "projection", "total"}
    assert all(isinstance(t, float) and t >= 0.0 for t in timing.values())
    assert sum(t for k, t in timing.items() if k != "total") == pytest.approx(timing["total"])
    printed = capsys.readouterr().out  # the printed lines are unchanged
    assert "verify: total" not in printed and printed.endswith("verify: all checks pass\n")


_MALFORMED_REPORTS = {
    "errors-bool": {"errors": True},
    "errors-pairs": {"errors": [[1, 2]]},
    "errors-list": {"errors": [5]},
    "errors-string-value": {"errors": {"relative_l2": "0.1"}},
    "stages-number": {"stages": 3},
    "config-number": {"config": 0.5},
    "config-hash-list": {"config": {"config_hash": [1]}},
    "config-pipeline-list": {"config": {"pipeline": ["pwave"]}},
}
# every report section that is not an object, so that a section added to
# ReconReport is tested too
for _section in dataclasses.fields(ReconReport):
    _MALFORMED_REPORTS.setdefault(f"{_section.name}-number", {_section.name: 3})


@pytest.mark.parametrize("report", list(_MALFORMED_REPORTS.values()), ids=list(_MALFORMED_REPORTS))
def test_report_malformed_report_exits_config(tmp_path, capsys, report):
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(report))
    assert main(["report", str(bad), "--out", str(tmp_path / "merged")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: unreadable report: " in err and "report.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("config", [0.5, {"noise": "high"}, {"noise": None}],
                         ids=["config-number", "noise-string", "noise-null"])
def test_export_noise_malformed_report_exits_config(tmp_path, capsys, config):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"config": {"noise": 0.0}, "errors": {"relative_l2": 0.1}}))
    bad.write_text(json.dumps({"config": config, "errors": {"relative_l2": 0.2}}))
    argv = ["export", str(good), str(bad), "--table", "noise", "--out", str(tmp_path / "exp")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: unreadable report: " in err and "bad.json" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# failure messages go to stderr, like main's own


def _failure_on_stderr(capsys, message):
    out, err = capsys.readouterr()
    assert message in err and message not in out


def test_report_refusal_is_on_stderr(tmp_path, capsys):
    paths = []
    for h in ("a", "b"):
        paths.append(str(tmp_path / f"{h}.json"))
        write_report(paths[-1], ReconReport(config={"config_hash": h}))
    assert main(["report", *paths, "--out", str(tmp_path / "m")]) == EXIT_CONFIG
    _failure_on_stderr(capsys, "refusing to merge reports")


def test_report_refusal_lists_a_missing_hash(tmp_path, capsys):
    # a report without a config_hash against one with: None and a string
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    write_report(paths[0], ReconReport(config={"config_hash": "a"}))
    write_report(paths[1], ReconReport())
    assert main(["report", *paths, "--out", str(tmp_path / "m")]) == EXIT_CONFIG
    _failure_on_stderr(capsys, "config error: refusing to merge reports with mismatched "
                               "config hashes: [None, 'a']")


def test_verify_condition_failure_is_on_stderr(tmp_path, capsys):
    cfg = write_cfg(tmp_path, material={"nu": [0.0, 0.0, -1.0, 0.0]})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_CONDITION
    _failure_on_stderr(capsys, "condition failure: weight_sum")


def test_verify_numerical_failure_is_on_stderr(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path)
    monkeypatch.setattr(cli, "contraction_identity_residual", lambda *args, **kwargs: 1.0)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_NUMERICAL
    _failure_on_stderr(capsys, "numerical failure: an invariant check")


def test_invert_condition_failure_is_on_stderr(tmp_path, capsys):
    cfg = write_cfg(tmp_path, material={"nu": [-1.0, 0.0, 0.0, 0.0]})
    out = str(tmp_path / "run")
    for command in ("generate", "forward"):
        assert main([command, "--config", cfg, "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_CONDITION
    _failure_on_stderr(capsys, "condition failure: trace_uniqueness")


def test_invert_numerical_failure_is_on_stderr(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "run")
    for command in ("generate", "forward"):
        assert main([command, "--config", cfg, "--out", out]) == EXIT_OK
    capsys.readouterr()
    pipeline = cli.pwave_pipeline

    def not_finite(*args, **kwargs):
        R, report = pipeline(*args, **kwargs)
        R.values[0, 0, 0, 0] = np.nan
        return R, report

    monkeypatch.setattr(cli, "pwave_pipeline", not_finite)
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_NUMERICAL
    _failure_on_stderr(capsys, "numerical failure: reconstruction is not finite")


@pytest.mark.parametrize("byte", [b'"', b"\xff"], ids=["quote", "not-utf8"])
def test_invert_unsplittable_sinogram_csv_exits_config(tmp_path, capsys, byte):
    # 40 angles: each CSV holds about 326 kB, past the csv module's
    # 131072-byte field limit; the byte replaces the first one of line 4
    cfg, out = write_cfg(tmp_path, families={"angles": 40, "offsets": 16}), str(tmp_path / "run")
    for command in ("generate", "forward"):
        assert main([command, "--config", cfg, "--out", out]) == EXIT_OK
    path = os.path.join(out, "pwave_plane1.csv")
    with open(path, "rb") as fh:
        raw = fh.read()
    start = sum(len(line) + 2 for line in raw.split(b"\r\n")[:3])
    with open(path, "wb") as fh:
        fh.write(raw[:start] + byte + raw[start + 1 :])
    capsys.readouterr()
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_CONFIG
    _failure_on_stderr(capsys, f"config error: unreadable sinograms: {path}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow that is refused
@pytest.mark.parametrize(
    "pipeline, message",
    [("swave", "unitarity drift nan"), ("pwave", "pwave_plane0.csv: non-finite sinogram value")],
    ids=["swave", "pwave-noise"],
)
def test_forward_refuses_non_finite_sinograms(tmp_path, capsys, pipeline, message):
    # one truth value of 1e300: the S-wave propagators overflow, and the
    # P-wave noise's rms squares it past the float range
    if pipeline == "swave":
        cfg = _swave_cfg(tmp_path, [0.1, 0.4, -0.2, 0.5])
    else:
        cfg = write_cfg(tmp_path, noise=0.01)
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg, "--out", out]) == EXIT_OK
    path = os.path.join(out, "truth.stf")
    R = read_field(path)
    R.values[8, 8, 8, 0] = 1e300
    write_field(path, R)
    written = sorted(os.listdir(out))
    capsys.readouterr()
    assert main(["forward", "--config", cfg, "--out", out]) == EXIT_NUMERICAL
    _failure_on_stderr(capsys, f"numerical failure: {message}")
    assert sorted(os.listdir(out)) == written


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("peak, error", [(1e300, True), (0.0, False)], ids=["huge", "zero"])
def test_invert_relative_error_is_json(tmp_path, peak, error):
    # one truth value of 1e300 after forward overflowed both norms of the
    # error to a NaN in report.json; an all-zero truth has no relative error
    cfg, out, _, _ = _forwarded(tmp_path)
    path = os.path.join(out, "truth.stf")
    R = read_field(path)
    if peak:
        R.values[8, 8, 8, 0] = peak
    else:
        R.values[...] = 0.0
    write_field(path, R)
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "report.json")) as fh:
        errors = json.loads(fh.read(), parse_constant=_refuse_constant)["errors"]
    assert ("relative_l2" in errors) == error
    if error:
        assert np.isfinite(errors["relative_l2"]) and errors["relative_l2"] > 0.0


def test_invert_relative_error_is_the_unscaled_quotient():
    # the power-of-two scaling leaves ordinary errors bit for bit
    truth, values = 3.7 * np.random.default_rng(5).standard_normal((2, 8, 8, 8, 6))
    assert cli._relative_l2(values, truth) == float(
        np.linalg.norm(values - truth) / np.linalg.norm(truth))


def test_invert_sinogram_manifest_without_config_hash_exits_config(tmp_path, capsys):
    cfg, out, _, _ = _forwarded(tmp_path)
    with open(os.path.join(out, "sinograms.json"), "w") as fh:
        fh.write("{}")
    capsys.readouterr()
    assert main(["invert", "--config", cfg, "--out", out]) == EXIT_CONFIG
    _failure_on_stderr(capsys, "config error: sinograms were produced under a different config")


# ---------------------------------------------------------------------------
# artifact fuzz: a damaged artifact ends in an exit code, never in a traceback

_FUZZ_RUNS = {
    "pwave": {"grid": {"n": 16}, "families": {"angles": 12, "offsets": 16}},
    "swave": {"grid": {"n": 16}, "families": {"angles": 6, "offsets": 16, "sphere_directions": 10},
              "pipeline": "swave", "tolerances": {"cg_maxiter": 150}},
}
# files that no command reads back; the config itself is never damaged,
# since a grid size can ask for any amount of memory
_FUZZ_KEPT = ("config.json", "params.json", "reconstruction.stf")
_JSON_VALUES = [None, True, -1, 0, 2.5, 1e308, 10**9, _HUGE, -_HUGE, float("nan"), "x",
                [], {}, [1.0, 2.0]]


@pytest.fixture(scope="module")
def fuzz_runs(tmp_path_factory):
    """(config path, run directory) of a P-wave and an S-wave run at n=16,
    each through invert."""
    runs = {}
    for pipeline, over in _FUZZ_RUNS.items():
        root = tmp_path_factory.mktemp(pipeline)
        cfg = root / "cfg.json"
        cfg.write_text(json.dumps(dict(over, seed=3)))
        out = str(root / "run")
        for command in ("generate", "forward", "invert"):
            assert main([command, "--config", str(cfg), "--out", out]) == EXIT_OK
        runs[pipeline] = str(cfg), out
    return runs


def _json_paths(v, path=()):
    """The path of every value in the parsed JSON v, v's own () first."""
    yield path
    items = v.items() if isinstance(v, dict) else enumerate(v) if isinstance(v, list) else ()
    for k, e in items:
        yield from _json_paths(e, path + (k,))


def _damage(data, raw, is_json):
    """raw with one drawn damage: a truncation, up to four byte edits, a
    duplicated or deleted line, or (JSON files) one value replaced."""
    hows = ["truncate", "bytes", "duplicate", "delete"] + ["value"] * is_json
    how = data.draw(st.sampled_from(hows))
    if how == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if how == "bytes":
        out = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 4))):
            out[data.draw(st.integers(0, len(out) - 1))] = data.draw(st.integers(0, 255))
        return bytes(out)
    if how == "value":
        doc = json.loads(raw)
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        value = data.draw(st.sampled_from(_JSON_VALUES))
        if not path:
            return json.dumps(value).encode()
        functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
        return json.dumps(doc).encode()
    lines = raw.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i : i + 1] = [lines[i]] * (2 if how == "duplicate" else 0)
    return b"".join(lines)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_artifact_exits_with_a_code(fuzz_runs, data):
    # one artifact of a run is damaged, and a command that reads it runs in
    # a copy of the run: it may succeed or exit 1, 2 or 3, but not raise
    cfg, run = fuzz_runs[data.draw(st.sampled_from(sorted(fuzz_runs)))]
    name = data.draw(st.sampled_from(sorted(set(os.listdir(run)) - set(_FUZZ_KEPT))))
    commands = {"truth.stf": ["forward", "invert"], "report.json": ["report", "export"]}
    command = data.draw(st.sampled_from(commands.get(name, ["invert"])))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        shutil.copytree(run, out)
        path = os.path.join(out, name)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(_damage(data, raw, name.endswith(".json")))
        inputs = {"report": [path], "export": [path, "--table", "noise"]}.get(command, [])
        code = main([command, *inputs, "--config", cfg, "--out", out])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CONDITION, EXIT_NUMERICAL)
