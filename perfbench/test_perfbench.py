"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Each test runs perfbench/run.py as a separate process from the repository
root, as the benchmark command is run, and reads the last two stdout lines
(environment stamp, result).  The cli workload always uses the CLI's default
config, so its runs take about ten seconds each.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def bench(workload, seed, trace, cwd=ROOT, size="tiny", extra=()):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", size, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["pwave", "swave", "cli"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(workload, trace):
    stamp, result = parse(bench(workload, 1, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, stamp
    want = PER_LAYER if trace else END_TO_END
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for key in ("nproc", "python", "numpy", "blas_threads", "git_sha", "seed", "sizes",
                "sinogram_digest"):
        assert key in stamp
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_and_digest_repeat():
    first = [parse(bench("pwave", 3, 1)) for _ in range(2)]
    counts = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")]
    (s0, r0), (s1, r1) = first
    assert s0["sinogram_digest"] == s1["sinogram_digest"]
    assert {n: r0["metrics"][n]["value"] for n in counts} == {
        n: r1["metrics"][n]["value"] for n in counts}
    assert r0["metrics"]["geometry.trilinear.calls"]["value"] > 0
    other, _ = parse(bench("pwave", 4, 0))
    assert other["sinogram_digest"] != s0["sinogram_digest"]


def test_swave_cg_and_drift_recorded():
    stamp, result = parse(bench("swave", 1, 1))
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["inversion.cg.iterations"] == stamp["cg_iterations"] > 0
    assert 0 < m["forward.unitarity_drift"] <= 1e-8
    assert m["forward.rytov_family.nodes"] > 0 and m["forward.kdata_adjoint.calls"] > 0


def test_cli_seed_2_records_the_generate_defect():
    # `stresstomo generate --seed 2` exits 2 under the default config; the
    # run must record generate and every later command as failed, not crash.
    stamp, result = parse(bench("cli", 2, 0, size="bench", extra=("--specimen", "2")))
    assert stamp["specimen"] == 2
    assert result["correct"] is False
    assert result["attempted"] == 5 and result["failed"] == 5
    assert stamp["errors"][0].startswith("generate: RuntimeError: exit 2")
    assert all(e.endswith("an earlier operation failed") for e in stamp["errors"][1:])
    assert "forward_s" not in result["metrics"]


def test_cli_seed_picks_a_specimen_without_the_defect():
    sys.path.insert(0, HERE)
    from run import CLI_SPECIMENS, GENERATE_DEFECT_SEEDS

    assert 2 in GENERATE_DEFECT_SEEDS and not set(CLI_SPECIMENS) & set(GENERATE_DEFECT_SEEDS)
    stamp, result = parse(bench("cli", len(CLI_SPECIMENS) + 1, 0, size="bench"))
    assert stamp["specimen"] == CLI_SPECIMENS[1]
    assert result["correct"] and result["failed"] == 0, stamp["errors"]


def test_fails_without_the_program():
    bare = os.path.join(HERE, ".work", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(HERE):
            if name.endswith((".py", ".md", ".json")):
                shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
        proc = bench("pwave", 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
