#!/usr/bin/env python3
"""Benchmark of the besovpde command-line interface.

    python3 perfbench/run.py --workload solve-1d --seed 1 --seconds 30 --trace 0

Run from the repository root.  One process runs one workload as a single
closed-loop client: ops go back to back through ``besovpde.cli.main`` in
process, each with a config generated from ``--seed`` and the op index.

Set-up is importing the package plus ``calibrate`` for the workload's grid
and exponents, repeated ``SETUP_REPEATS`` times (median reported).  Then
ops run until their summed wall time reaches ``--seconds``.  After each
op, outside its timed interval, the outputs are checked (see
``workloads.py``), digested with sha256 and deleted.

``--trace 0`` prints the end-to-end metrics.  Their timings are scaled to
a reference host speed measured in the same run (see ``HostProbe``); the
unscaled values go to the results file.  ``--trace 1`` runs each op
twice, untraced and then traced (see ``tracer.py``), and prints the
per-layer metrics: per op for the op layers, per calibrate for
``calibration.*`` and ``heat.*``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (environment, per-op
seconds, iterations and output digests) goes to
``perfbench/out/results/``; ``report.py`` compares and summarizes those.
"""

import os

# BLAS and OpenMP read these when numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
PROBE_REF_S = 0.05       # HostProbe seconds at the reference host speed
# transforms per probe, by grid dimension: one probe took about PROBE_REF_S
# when the baseline in results/ was measured
PROBE_CALLS = {1: 1100, 2: 90}
MAX_UNATTRIBUTED = 0.05  # traced runs fail above this share of samples
WORKLOAD_NAMES = ("solve-1d", "solve-2d", "phi-1d")


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cli():
    """Import besovpde from this checkout's src/ and time it."""
    if not (SRC / "besovpde" / "__init__.py").is_file():
        raise BenchError(f"no besovpde package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import besovpde.cli as cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (SRC / "besovpde").resolve():
        raise BenchError(f"imported besovpde from {cli.__file__}, not {SRC}")
    return cli, import_s


def call_cli(cli, argv):
    """One CLI invocation; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """sha256 over (relative path, content digest) of every file under root."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(f"{p.relative_to(root).as_posix()}\0{file_digest(p)}\n".encode())
    return h.hexdigest()


def environment():
    import numpy
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "note": "shared host: other tenants load it, so wall "
                "times drift between runs",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), "unknown")
    except OSError:
        env["cpu"] = "unknown"
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    return env


class HostProbe:
    """A fixed kernel, timed before every calibrate and op, that measures host speed.

    On a shared host the speed of the same code drifts by up to 2x over
    minutes, longer than a run, so raw run medians spread further between
    runs than any useful bound.  The probe does not touch the package; it
    repeats the workload's hottest step on arrays of the same shape: a
    stack of dyadic blocks on the 2x refined grid is transformed and its
    largest magnitude taken.  The median probe time of a phase (set-up or
    ops) rescales that phase's timings to the speed at which one probe
    call takes ``PROBE_REF_S``.
    """

    def __init__(self, d: int, n: int):
        import numpy
        self.np = numpy
        blocks = 2 + int(numpy.log2(n))
        self.block = (numpy.random.default_rng(0)
                      .standard_normal((blocks,) + (2 * n,) * d) + 0j)
        # preallocated, so the time does not depend on the allocator's state
        self.out = numpy.empty_like(self.block)
        self.mag = numpy.empty(self.block.shape)
        self.axes = tuple(range(1, d + 1))
        self.repeats = PROBE_CALLS.get(d, 1)
        self.times = {"setup": [], "ops": [], "warm-up": []}
        self("warm-up")

    def __call__(self, phase: str):
        np = self.np
        t0 = time.perf_counter()
        for _ in range(self.repeats):
            np.fft.ifftn(self.block, axes=self.axes, out=self.out)
            float(np.abs(self.out, out=self.mag).max())
        self.times[phase].append(time.perf_counter() - t0)

    def scale(self, phase: str) -> float:
        return PROBE_REF_S / statistics.median(self.times[phase])


class Runner:
    """One workload run: set-up, then ops until the time budget is spent."""

    def __init__(self, cli, workload, seed, seconds, tracer):
        import workloads  # imports besovpde, so not before import_cli
        self.wl = workloads
        self.cli = cli
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.probe = HostProbe(workload.config["grid.d"],
                               workload.config["grid.n"])
        self.ops = []
        self.traced = []       # (span lo, span hi, counters, distinct drifts)
        self.setup_span = None

    def setup(self):
        conf = dict(self.w.config, seed=self.wl.setup_seed(self.seed))
        Path("setup.conf").write_text(self.wl.config_text(conf))
        argv = ["calibrate", "--config", "setup.conf", "--out", "setup",
                "--calibration", "calibration.json"]
        times, digests = [], set()
        traced = self.tracer is not None
        for _ in range(1 if traced else SETUP_REPEATS):
            lo = len(self.tracer) if traced else 0
            ctx = self.tracer.installed() if traced else contextlib.nullcontext()
            self.probe("setup")
            with ctx:
                t0 = time.perf_counter()
                code, err = call_cli(self.cli, argv)
                times.append(time.perf_counter() - t0)
            if code != 0:
                raise BenchError(f"calibrate exited {code}: {err.strip()}")
            digests.add(file_digest(Path("calibration.json")))
            if traced:
                self.setup_span = (lo, len(self.tracer))
        if len(digests) != 1:
            raise BenchError("repeated calibrate runs wrote different files")
        return times, digests.pop()

    def run_op(self, index, traced):
        op_dir = f"op{index:04d}" + ("t" if traced else "")
        conf = self.wl.op_config(self.w, self.seed, index, op_dir)
        conf_path = f"{op_dir}.conf"
        Path(conf_path).write_text(self.wl.config_text(conf))
        argvs = self.wl.op_argvs(self.w, conf_path, op_dir, "calibration.json")
        record = {"index": index, "seed": conf["seed"], "traced": traced,
                  "failures": []}
        if traced:
            self.tracer.reset_op()
            lo = len(self.tracer)
        else:
            self.probe("ops")
        ctx = self.tracer.installed() if traced else contextlib.nullcontext()
        with ctx:
            t0 = time.perf_counter()
            for argv in argvs:
                try:
                    code, err = call_cli(self.cli, argv)
                except Exception:  # an escaped exception fails this op only
                    code, err = "exception", traceback.format_exc()
                if code != 0:
                    record["failures"].append(f"{argv[0]} exited {code}: "
                                              f"{err.strip()[-500:]}")
                    break
            record["op_s"] = time.perf_counter() - t0
        if traced:
            self.traced.append((lo, len(self.tracer),
                                dict(self.tracer.counters),
                                self.tracer.distinct_drifts))
        if not record["failures"]:
            record["failures"] = self.check(conf_path, Path(op_dir))
        record["iterations"] = self.iterations(Path(op_dir))
        record["digest"] = tree_digest(Path(op_dir))
        shutil.rmtree(op_dir, ignore_errors=True)
        Path(conf_path).unlink()
        self.ops.append(record)
        return record

    def check(self, conf_path, op_dir):
        try:
            conf = self.cli.parse_config(conf_path)
            failures = []
            for cmd in self.w.commands:
                failures += self.wl.CHECKS[cmd](conf, op_dir)
            return failures
        except Exception:  # a check that cannot run fails the op
            return ["output check raised: " + traceback.format_exc()[-500:]]

    def iterations(self, op_dir):
        out = {}
        for cmd in self.w.commands:
            path = op_dir / cmd / "manifest.json"
            if path.is_file():
                its = json.loads(path.read_text()).get("iterations")
                if its is not None:
                    out[cmd] = its
        return out

    def run(self):
        busy, index = 0.0, 0
        while busy < self.seconds:
            busy += self.run_op(index, traced=False)["op_s"]
            if self.tracer is not None:
                busy += self.run_op(index, traced=True)["op_s"]
            index += 1
        return busy


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, import_s, setup_times, busy):
    """End-to-end metrics, with the timings scaled to the reference host speed.

    The unscaled timings are returned as well, for the results file.
    """
    ok = sum(1 for r in runner.ops if not r["failures"])
    raw = {
        "setup_s": import_s + statistics.median(setup_times),
        "op_s_p50": statistics.median(r["op_s"] for r in runner.ops),
        "ops_per_min": 60.0 * ok / busy,
    }
    setup_scale, ops_scale = runner.probe.scale("setup"), runner.probe.scale("ops")
    return {
        "setup_s": metric(raw["setup_s"] * setup_scale, "s"),
        "op_s_p50": metric(raw["op_s_p50"] * ops_scale, "s"),
        "ops_per_min": metric(raw["ops_per_min"] / ops_scale, "1/min"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": metric(ok / len(runner.ops), "ratio"),
    }, raw


def per_layer(runner):
    """Per-layer metrics of a traced run, and whether self times add up.

    Op metrics are means over the traced ops; ``calibration.*`` and
    ``heat.*`` come from the traced calibrate of the set-up.
    """
    from tracer import (BYTES_PER_POINT, IO_READ_SPANS, IO_WRITE_SPANS,
                        NORM_SPANS, outermost_incl, summarize)
    tr = runner.tracer
    totals, units = Counter(), {}

    def add(name, value, unit="s"):
        totals[name] += value
        units[name] = unit

    useful = slots = self_sum = root_sum = 0
    for lo, hi, counters, distinct in runner.traced:
        s = summarize(tr, lo, hi)
        calls, self_s, layer = s["calls"], s["self"], s["layer_self"]

        def incl(names):
            return outermost_incl(tr, names, lo, hi)

        bony = calls["paraproduct.bony_product"]
        points = counters["fft.points"]
        useful += counters["solver.useful_ratios"]
        slots += counters["solver.ratio_slots"]
        self_sum += sum(layer.values())
        root_sum += s["root_s"]
        add("cli.self_s", layer["cli"])
        add("experiments.gen_drift_s", incl(["experiments.gen_drift"]))
        add("solver.picard_iterations", counters["solver.picard_iterations"],
            "count")
        add("solver.apply_T_calls", calls["solver.apply_T"], "count")
        add("solver.sweep_s", self_s["solver.apply_T"])
        add("solver.loop_s", self_s["solver.solve_mild"])
        add("solver.weak_residual_s", incl(["solver.weak_residual"]))
        add("solver.param_select_s",
            incl(["solver.select_rho", "solver.lambda_threshold"]))
        add("solver.invert_phi_calls", calls["solver.invert_phi"], "count")
        add("paraproduct.pairing_s", incl(["paraproduct.drift_term"]))
        add("paraproduct.self_s", layer["paraproduct"])
        add("paraproduct.drift_term_calls", calls["paraproduct.drift_term"],
            "count")
        add("paraproduct.bony_product_calls", bony, "count")
        add("paraproduct.drift_reuse", bony / distinct if distinct else 0.0,
            "calls/object")
        add("lp.norm_s", incl(NORM_SPANS))
        add("lp.self_s", layer["lp"])
        add("lp.besov_norm_calls", calls["lp.besov_norm"], "count")
        add("grid.self_s", layer["grid"])
        add("grid.sup_norm_calls", calls["grid.sup_norm"], "count")
        add("io.write_s", incl(IO_WRITE_SPANS))
        add("io.read_s", incl(IO_READ_SPANS))
        add("io.bytes", counters["io.bytes"], "B")
        add("fft.calls", sum(c for k, c in calls.items()
                             if k.startswith("fft.")), "count")
        add("fft.points", points, "count")
        add("fft.self_s", layer["fft"])
        add("fft.bytes_computed", BYTES_PER_POINT * points, "B")

    n_ops = len(runner.traced)
    out = {name: metric(total / n_ops, units[name])
           for name, total in totals.items()}
    out["solver.useful_iter_frac"] = metric(useful / slots if slots else 0.0,
                                            "ratio")

    lo, hi = runner.setup_span
    s = summarize(tr, lo, hi)
    out["calibration.calibrate_s"] = metric(
        outermost_incl(tr, ["calibration.calibrate"], lo, hi), "s")
    out["calibration.self_s"] = metric(s["layer_self"]["calibration"], "s")
    out["heat.self_s"] = metric(s["layer_self"]["heat"], "s")
    out["heat.calls"] = metric(
        sum(c for k, c in s["calls"].items() if k.startswith("heat.")), "count")

    untraced = statistics.median(r["op_s"] for r in runner.ops if not r["traced"])
    traced = statistics.median(r["op_s"] for r in runner.ops if r["traced"])
    out["trace.overhead"] = metric(traced / untraced, "ratio")
    out["trace.unattributed_frac"] = metric(tr.unattributed_frac, "ratio")
    return out, abs(self_sum - root_sum) <= 1e-6 * root_sum


def main(argv=None):
    args = parse_args(argv)
    try:
        cli, import_s = import_cli()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work"))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        runner = Runner(cli, WORKLOADS[args.workload], args.seed, args.seconds,
                        tracer)
        setup_times, cal_digest = runner.setup()
        busy = runner.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in runner.ops if r["failures"])
    correct = failed == 0
    raw = None
    if tracer is not None:
        # self times must partition the traced time, and few samples may
        # fall outside the layer charged for them
        metrics, partition_ok = per_layer(runner)
        attributed = (metrics["trace.unattributed_frac"]["value"]
                      <= MAX_UNATTRIBUTED)
        correct = correct and partition_ok and attributed
    else:
        metrics, raw = end_to_end(runner, import_s, setup_times, busy)

    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "import_s": import_s, "setup_calibrate_s": setup_times,
        "calibration_digest": cal_digest, "busy_s": busy,
        "probe_s": runner.probe.times,
        "correct": correct, "metrics": metrics, "unscaled": raw,
        "ops": runner.ops,
    }
    if tracer is not None:
        record["samples"] = dict(tracer.samples)
        record["misattributed"] = dict(tracer.misattributed.most_common(20))
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / "spans" / f"{tag}.jsonl")
    with open(OUT / "results" / f"{tag}-{stamp}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(json.dumps({"correct": correct, "attempted": len(runner.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
