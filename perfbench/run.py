"""stresstomo benchmark: P-wave, S-wave and CLI round trips.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pwave --seed 1 --seconds 30 --trace 0

Workloads (sizes in SIZES, reasons in perfbench/README.md):

- pwave: library P-wave round trip, pwave_data x3 -> pwave_pipeline(refine=1)
  -> invariant suite, cycling over several truths made from the seed;
- swave: library S-wave round trip, rytov_family x4 ->
  swave_pipeline(tol=1e-3, maxiter=300) -> invariant suite;
- cli: the ``stresstomo`` CLI with its default config, one process per
  subcommand: generate (set-up), then forward -> invert -> verify -> report,
  on the specimen (CLI seed) that the seed picks from CLI_SPECIMENS.

With ``--trace 0`` the run sets up several times, then repeats round trips
for ``--seconds`` (at least a fixed minimum) and reports the median of each
end-to-end metric.  With ``--trace 1`` it alternates untraced and traced
units (one set-up plus one round trip each) and reports per-layer metrics
from the traced ones, plus the tracing overhead.

Every output is checked (finite, error gates, unitarity drift, exit codes,
sinogram digest repeated within the run and across runs of the same source
and seed).  An operation is one program call or one subcommand; it fails on
an exception, a nonzero exit, a non-finite output or a failed check.  The
last line of stdout is the result JSON; the line before it is an
environment stamp.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
NU = (0.1, 0.4, -0.2, 0.5)

# Workload sizes.  "bench" is what the benchmark measures; "tiny" is for the
# self-test.  The cli workload always uses the CLI's default config.
SIZES = {
    "bench": {
        "pwave": {"n": 28, "angles": 24, "offsets": 28, "truths": 5},
        "swave": {"n": 16, "directions": 30, "angles": 24, "offsets": 16, "specimen": 11},
        "cli": {"config": "default"},
    },
    "tiny": {
        "pwave": {"n": 16, "angles": 6, "offsets": 16, "truths": 1},
        "swave": {"n": 16, "directions": 8, "angles": 6, "offsets": 16, "specimen": 11},
        "cli": {"config": "default"},
    },
}

# Correctness gates: the largest rel_error / rel_error_tracefree a round trip
# may return, about 1.5x the worst value seen at the seed commit (see
# perfbench/baseline.json).
GATES = {
    "bench": {"pwave": (0.09, 0.11), "swave": (0.31, 0.19), "cli": (0.12, 0.14)},
    "tiny": {"pwave": (0.9, 1.2), "swave": (1.5, 1.5), "cli": (0.12, 0.13)},
}
# Specimens of the cli workload: the CLI seeds 0-39 without those on which
# `stresstomo generate` exits 2 under the default config, a known defect (see
# perfbench/README.md).  The run's seed picks one; --specimen passes any CLI
# seed unchanged, and the self-test runs seed 2 that way to record the defect.
GENERATE_DEFECT_SEEDS = (2, 18, 25, 37)
CLI_SPECIMENS = tuple(s for s in range(40) if s not in GENERATE_DEFECT_SEEDS)
MAX_DRIFT = 1e-8  # acceptance criterion 6's unitarity bound
SETUPS = {"pwave": 15, "swave": 15, "cli": 5}  # set-ups per timed run
MIN_TRIPS = {"pwave": 5, "swave": 1, "cli": 2}  # round trips per timed run, at least
# Forward and verify samples per timed run, at least.  Where this is nonzero
# the run also fills the time left after its round trips with extra forward +
# verify passes.
MIN_SAMPLES = {"pwave": 0, "swave": 5, "cli": 0}

UNITS = {
    "setup_s": "s", "forward_s": "s", "invert_s": "s", "verify_s": "s",
    "roundtrip_s": "s", "peak_rss_mb": "MB",
}


class OpFailed(Exception):
    """An operation failed; the round trip it belongs to cannot go on."""


class Ledger:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.ops = []  # [name, ok]
        self.errors = []
        self._planned = []

    def begin(self, planned):
        """Start a sequence of operations; on failure the rest count as failed."""
        self._planned = list(planned)

    def run(self, name, fn, *args, **kwargs):
        rec = [name, True]
        self.ops.append(rec)
        if name in self._planned:
            self._planned.remove(name)
        try:
            return rec, fn(*args, **kwargs)
        except Exception as e:  # any program error is a failed operation
            self.fail(rec, f"{type(e).__name__}: {e}")
            raise OpFailed(name) from e

    def fail(self, rec, why):
        rec[1] = False
        self.errors.append(f"{rec[0]}: {why}")

    def abort(self):
        for name in self._planned:
            self.ops.append([name, False])
            self.errors.append(f"{name}: not run, an earlier operation failed")
        self._planned = []

    def check(self, rec, ok, why):
        if not ok:
            self.fail(rec, why)

    @property
    def failed(self):
        return sum(1 for _, ok in self.ops if not ok)


class Phases:
    """Wall time of the harness phases of one unit; a span per phase when traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = {}

    @contextlib.contextmanager
    def __call__(self, name):
        rec = self.tracer.open(f"harness.{name}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - t0
            if rec is not None:
                self.tracer.close(rec)


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def deviatoric(v):
    out = np.array(v, dtype=float)
    out[..., :3] -= v[..., :3].sum(-1)[..., None] / 3.0
    return out


def truth_r0(n):
    """Truth radius of ``stresstomo.cli.load_config`` for grid size n."""
    return 0.7 if n >= 40 else 0.5 if n >= 20 else 0.25


def digest_arrays(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# library workloads


class Library:
    """P-wave or S-wave round trip through the public API, in process."""

    def __init__(self, st, kind, size, seed):
        self.st, self.kind, self.size, self.seed = st, kind, size, seed
        self.params = st.material.MaterialParams(nu=NU)
        self.gates = GATES[size][kind]
        self.truths = SIZES[size][kind].get("truths", 1)
        self.plan = (
            ["pwave_data"] * 3 + ["pwave_pipeline", "verify"]
            if kind == "pwave"
            else ["rytov_family"] * 4 + ["swave_pipeline", "verify"]
        )

    def setup(self, ledger, k):
        """Grid, truth field and ray families; truth k % truths."""
        st, z = self.st, SIZES[self.size][self.kind]
        n = z["n"]
        if "specimen" in z:
            # one specimen; the seed draws its stress amplitude in [1/2, 2]
            rng = np.random.default_rng(z["specimen"])
            amp = 2.0 ** np.random.default_rng(self.seed).uniform(-1.0, 1.0)
        else:
            rng, amp = np.random.default_rng([self.seed, k % self.truths]), 1.0

        def build():
            grid = st.fields.Grid3.cube(n)
            pot = st.fields.random_admissible_potential(grid, rng, r0=truth_r0(n))
            R = st.fields.inc_potential(pot)
            if amp != 1.0:
                R = st.fields.SymField2(grid, amp * R.values)
            fams = st.geometry.build_line_families(grid, z["angles"], z["offsets"])
            if self.kind == "swave":
                fams = [st.geometry.build_sphere_family(grid, z["directions"])] + fams
            return {"grid": grid, "R": R, "fams": fams, "truth": k % self.truths}

        ledger.begin(["setup"] + self.plan)
        _, state = ledger.run("setup", build)
        return state

    def forward(self, ledger, state):
        st, R = self.st, state["R"]
        if self.kind == "pwave":
            fn, kw = st.forward.pwave_data, {}
        else:
            fn, kw = st.forward.rytov_family, {"scale": 1e-3}
        runs = [ledger.run(fn.__name__, fn, R, self.params, f, **kw) for f in state["fams"]]
        return [op for op, _ in runs], [s for _, s in runs]

    def verify(self, ledger, state):
        cfg = self.st.cli.load_config(seed=self.seed)
        cfg["grid"]["n"] = state["grid"].dims[0]
        with contextlib.redirect_stdout(io.StringIO()):
            return ledger.run("verify", self.st.cli.cmd_verify, cfg, None)

    def roundtrip(self, ledger, state, phase):
        inversion, grid = self.st.inversion, state["grid"]
        ledger.begin(self.plan)
        with phase("forward"):
            ops, sinos = self.forward(ledger, state)
        with phase("invert"):
            if self.kind == "pwave":
                inv, (rec_field, report) = ledger.run(
                    "pwave_pipeline", inversion.pwave_pipeline, sinos, self.params, grid,
                    refine=1)
            else:
                inv, (rec_field, report) = ledger.run(
                    "swave_pipeline", inversion.swave_pipeline, sinos, self.params, grid,
                    1e-3, tol=1e-3, maxiter=300)
        with phase("verify"):
            ver, code = self.verify(ledger, state)
        return {"forward_ops": ops, "invert_op": inv, "verify_op": ver, "verify_code": code,
                "sinos": sinos, "rec": rec_field, "report": report}

    def extra_sample(self, ledger, state, phase):
        """Forward and verify once more, outside a round trip, for more
        samples of those phases; returns the last forward op and the digest."""
        ledger.begin(self.plan[:-2] + ["verify"])
        with phase("forward"):
            ops, sinos = self.forward(ledger, state)
        with phase("verify"):
            ver, code = self.verify(ledger, state)
        ledger.check(ver, code == 0, f"invariant suite returned {code}")
        return ops[-1], digest_arrays(s.values for s in sinos)

    def check(self, ledger, state, out):
        """Correctness checks of one round trip; returns its facts."""
        R, rec = state["R"].values, out["rec"].values
        inv = out["invert_op"]
        finite = bool(np.all(np.isfinite(rec)))
        ledger.check(inv, finite, "reconstruction is not finite")
        facts = {
            "truth": state["truth"],
            "rel_error": rel(rec, R) if finite else float("inf"),
            "rel_error_tracefree": rel(deviatoric(rec), deviatoric(R)) if finite else float("inf"),
            "digest": digest_arrays(s.values for s in out["sinos"]),
        }
        ledger.check(inv, facts["rel_error"] <= self.gates[0],
                     f"rel_error {facts['rel_error']:.4g} above gate {self.gates[0]}")
        ledger.check(inv, facts["rel_error_tracefree"] <= self.gates[1],
                     f"rel_error_tracefree {facts['rel_error_tracefree']:.4g} "
                     f"above gate {self.gates[1]}")
        ledger.check(out["verify_op"], out["verify_code"] == 0,
                     f"invariant suite returned {out['verify_code']}")
        for op, s in zip(out["forward_ops"], out["sinos"]):
            ledger.check(op, bool(np.all(np.isfinite(s.values))), "sinogram is not finite")
        if self.kind == "swave":
            facts["drift"] = max(s.drift for s in out["sinos"])
            ledger.check(out["forward_ops"][-1], facts["drift"] <= MAX_DRIFT,
                         f"unitarity drift {facts['drift']:.3g} above {MAX_DRIFT}")
            cg = out["report"].stages.get("cg", {})
            facts["cg_iterations"] = int(cg.get("iterations", 0))
            facts["cg_residual"] = float(cg.get("residual", 0.0))
        return facts

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# CLI workload


class Cli:
    """Artifact round trip through the ``stresstomo`` CLI, one process per command."""

    plan_setup = ["generate", "forward", "invert", "verify", "report"]
    plan = plan_setup[1:]

    def __init__(self, st, size, seed, specimen=None):
        self.st, self.size, self.seed = st, size, seed
        self.specimen = CLI_SPECIMENS[seed % len(CLI_SPECIMENS)] if specimen is None else specimen
        self.gates = GATES[size]["cli"]
        self.out = os.path.join(WORK, f"cli-{seed}-{os.getpid()}")
        self.truths = 1
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def _command(self, ledger, name, phase, tracer, extra=()):
        args = [name, *extra, "--seed", str(self.specimen), "--out", self.out]
        if tracer is None:
            argv = [sys.executable, "-m", "stresstomo.cli", *args]
        else:
            spans_path = os.path.join(self.out, f"spans-{name}.json")
            argv = [sys.executable, os.path.join(HERE, "launcher.py"), spans_path, *args]

        def launch():
            with phase(name):
                idx = len(tracer.spans) if tracer else None
                rec = tracer.open(f"proc.{name}") if tracer else None
                try:
                    proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                          text=True, timeout=150)
                finally:
                    if rec is not None:
                        tracer.close(rec)
            if tracer is not None and os.path.exists(spans_path):
                with open(spans_path) as fh:
                    tracer.add(json.load(fh), idx)
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
                raise RuntimeError(f"exit {proc.returncode}: {' '.join(tail)}")
            return proc

        return ledger.run(name, launch)

    def setup(self, ledger, k, phase=None, tracer=None):
        os.makedirs(self.out, exist_ok=True)
        ledger.begin(self.plan_setup)
        self._command(ledger, "generate", phase or Phases(), tracer)
        return {"truth": 0}

    def roundtrip(self, ledger, state, phase, tracer=None):
        ledger.begin(self.plan)
        ops = {name: self._command(ledger, name, phase, tracer)[0]
               for name in ("forward", "invert", "verify")}
        ops["report"], _ = self._command(
            ledger, "report", phase, tracer,
            extra=(os.path.join(self.out, "report.json"), os.path.join(self.out, "verify.json")))
        return {"ops": ops}

    def check(self, ledger, state, out):
        read_field = self.st.io.read_field
        ops = out["ops"]
        R = read_field(os.path.join(self.out, "truth.stf")).values
        rec = read_field(os.path.join(self.out, "reconstruction.stf")).values
        with open(os.path.join(self.out, "report.json")) as fh:
            reported = json.load(fh)["errors"].get("relative_l2")
        with open(os.path.join(self.out, "sinograms.json")) as fh:
            names = json.load(fh)["files"]
        h = hashlib.sha256()
        for name in names:
            with open(os.path.join(self.out, name), "rb") as fh:
                h.update(fh.read())
        facts = {
            "truth": 0,
            "rel_error": rel(rec, R),
            "rel_error_tracefree": rel(deviatoric(rec), deviatoric(R)),
            "digest": h.hexdigest()[:16],
        }
        ledger.check(ops["invert"], bool(np.all(np.isfinite(rec))), "reconstruction is not finite")
        ledger.check(ops["invert"], reported is not None
                     and abs(reported - facts["rel_error"]) <= 1e-9 * facts["rel_error"],
                     f"report.json relative_l2 {reported} disagrees with {facts['rel_error']}")
        ledger.check(ops["invert"], facts["rel_error"] <= self.gates[0],
                     f"rel_error {facts['rel_error']:.4g} above gate {self.gates[0]}")
        ledger.check(ops["invert"], facts["rel_error_tracefree"] <= self.gates[1],
                     f"rel_error_tracefree {facts['rel_error_tracefree']:.4g} "
                     f"above gate {self.gates[1]}")
        merged = os.path.join(self.out, "merged.json")
        ledger.check(ops["report"], os.path.exists(merged), "report wrote no merged.json")
        return facts

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


# ---------------------------------------------------------------------------
# entry point


def load_program():
    """Import stresstomo from this checkout's src/, and only from there."""
    sys.path.insert(0, SRC)
    try:
        import stresstomo
        from stresstomo import cli, fields, forward, geometry, inversion, io, material  # noqa: F401
    except ImportError as e:
        sys.exit(f"perfbench: cannot import stresstomo from {SRC}: {e}")
    if not os.path.abspath(stresstomo.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: stresstomo was imported from {stresstomo.__file__}, not {SRC}")
    return stresstomo


def source_digest():
    """Digest of the program's and the harness's source: runs with equal
    digests and seeds must produce identical sinograms."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "stresstomo", "*.py"))) + [__file__]:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_threads():
    """OpenBLAS thread count of this process, or None if it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stamp(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "sizes": SIZES[args.size][args.workload],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


class DigestStore:
    """Sinogram digests of earlier runs, keyed by source, workload, size, seed."""

    def __init__(self, key):
        self.path = os.path.join(WORK, "digests.json")
        self.key = key
        try:
            with open(self.path) as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}
        self.seen = {}

    def check(self, ledger, op, truth, digest):
        key = f"{self.key}/{truth}"
        want = self.seen.setdefault(key, self.known.get(key, digest))
        ledger.check(op, digest == want, f"sinogram digest {digest} differs from {want}")

    def save(self):
        self.known.update(self.seen)
        with open(self.path, "w") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)


def digest_op(out):
    """The operation a sinogram digest mismatch is charged to: the forward."""
    return out["ops"]["forward"] if "ops" in out else out["forward_ops"][-1]


def run_timed(wl, ledger, store, seconds, kind):
    """Set up SETUPS times and repeat round trips; medians of the phases.

    The set-ups that make the round trips' states come first.  The others
    are spread over the run, one before each round trip or extra sample, so
    that set-up time is sampled across the run like the other phases.
    """
    setups, states, trips, facts, extras = [], [], [], [], []

    def setup():
        k = len(setups)
        t0 = time.perf_counter()
        state = wl.setup(ledger, k)
        setups.append(time.perf_counter() - t0)
        if k < wl.truths:
            states.append(state)

    try:
        while len(states) < wl.truths:
            setup()
        t_start = time.perf_counter()
        while True:
            if len(setups) < SETUPS[kind]:
                setup()
            phase = Phases()
            state = states[len(trips) % len(states)]
            out = wl.roundtrip(ledger, state, phase)
            f = wl.check(ledger, state, out)
            store.check(ledger, digest_op(out), f["truth"], f["digest"])
            trips.append(phase.times)
            facts.append(f)
            elapsed = time.perf_counter() - t_start
            typical = statistics.median(sum(t.values()) for t in trips)
            if len(trips) >= MIN_TRIPS[kind] and elapsed + typical > seconds:
                break
        while MIN_SAMPLES[kind] and (
                len(trips) + len(extras) < MIN_SAMPLES[kind]
                or extras and elapsed + statistics.median(
                    sum(t.values()) for t in extras) <= seconds):
            if len(setups) < SETUPS[kind]:
                setup()
            phase = Phases()
            op, digest = wl.extra_sample(ledger, states[0], phase)
            store.check(ledger, op, states[0]["truth"], digest)
            extras.append(phase.times)
            elapsed = time.perf_counter() - t_start
        while len(setups) < SETUPS[kind]:
            setup()
    except OpFailed:
        ledger.abort()
    metrics = {}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    if trips:
        metrics["invert_s"] = statistics.median(t["invert"] for t in trips)
        for name in ("forward", "verify"):
            metrics[f"{name}_s"] = statistics.median(t[name] for t in trips + extras)
        metrics["roundtrip_s"] = statistics.median(sum(t.values()) for t in trips)
    metrics["peak_rss_mb"] = wl.peak_rss_mb()
    samples = {"setup": setups}
    for name in ("forward", "invert", "verify"):
        samples[name] = [t[name] for t in trips + extras if name in t]
    samples["roundtrip"] = [sum(t.values()) for t in trips]
    return metrics, facts, samples


def run_traced(wl, ledger, store, seconds, kind):
    """Alternate untraced and traced units; per-layer metrics of the traced ones."""
    from spans import Tracer, layer_metrics

    plain, traced, per_layer, facts, all_spans = [], [], [], [], []
    t_start = time.perf_counter()
    k = 0
    try:
        while True:
            tracer = Tracer() if k % 2 else None
            phase = Phases(tracer)
            if tracer:
                tracer.run = f"unit{k}"
                tracer.install()
            try:
                extra = {"tracer": tracer} if kind == "cli" else {}
                with phase("setup"):
                    state = (wl.setup(ledger, k // 2, phase=phase, **extra) if kind == "cli"
                             else wl.setup(ledger, k // 2))
                out = wl.roundtrip(ledger, state, phase, **extra)
            finally:
                if tracer:
                    tracer.uninstall()
            f = wl.check(ledger, state, out)
            store.check(ledger, digest_op(out), f["truth"], f["digest"])
            facts.append(f)
            trip = sum(v for name, v in phase.times.items()
                       if name not in ("setup", "generate"))
            (traced if tracer else plain).append(trip)
            if tracer:
                per_layer.append(layer_metrics(tracer.spans, f, trip))
                all_spans.extend(tracer.spans)
            k += 1
            elapsed = time.perf_counter() - t_start
            if traced and elapsed + 2 * statistics.median(plain + traced) > seconds:
                break
    except OpFailed:
        ledger.abort()
    metrics = {}
    if per_layer:
        for name in per_layer[0]:
            metrics[name] = statistics.median(m[name] for m in per_layer)
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    with open(os.path.join(WORK, f"spans-{kind}-{wl.seed}.json"), "w") as fh:
        json.dump(all_spans, fh)
    return metrics, facts, {"roundtrip": plain, "roundtrip_traced": traced}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["pwave", "swave", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="bench")
    ap.add_argument("--specimen", type=int,
                    help="cli only: the CLI seed, instead of the one --seed picks")
    args = ap.parse_args(argv)

    st = load_program()
    os.makedirs(WORK, exist_ok=True)
    kind = args.workload
    if kind == "cli":
        wl = Cli(st, args.size, args.seed, args.specimen)
    else:
        wl = Library(st, kind, args.size, args.seed)
    ledger = Ledger()
    info = stamp(args)
    if kind == "cli":
        info["specimen"] = wl.specimen
    store = DigestStore(f"{info['source_sha256']}/{kind}/{args.size}/{args.seed}/"
                        f"{info.get('specimen')}")
    try:
        runner = run_traced if args.trace else run_timed
        metrics, facts, samples = runner(wl, ledger, store, args.seconds, kind)
    finally:
        if kind == "cli":
            wl.close()
    store.save()

    def by_truth(key):
        first = {}
        for f in facts:
            first.setdefault(f["truth"], f[key])
        return statistics.median(first.values()) if first else None

    info.update(
        round_trips=len(facts),
        samples={k: [round(t, 6) for t in v] for k, v in samples.items()},
        rel_error=by_truth("rel_error"),
        rel_error_tracefree=by_truth("rel_error_tracefree"),
        sinogram_digest=hashlib.sha256(
            "".join(sorted({f["digest"] for f in facts})).encode()).hexdigest()[:16],
        errors=ledger.errors[:20],
    )
    for key in ("drift", "cg_iterations"):
        if facts and key in facts[0]:
            info[key] = max(f[key] for f in facts)
    print(json.dumps({"stamp": info}))
    units_of = UNITS if not args.trace else {}
    result = {
        "correct": ledger.failed == 0,
        "attempted": max(len(ledger.ops), 1),
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units_of.get(name) or layer_unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def layer_unit(name):
    if name.endswith(("_s", ".s", ".s_per_iter")):
        return "s"
    if name.startswith(("trace.", "quality.")) or name in (
            "forward.unitarity_drift", "inversion.cg.residual"):
        return "ratio"
    if name.startswith("io.bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
