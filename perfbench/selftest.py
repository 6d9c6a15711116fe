"""Tests of the benchmark itself: tracer attribution and output checks.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the package's test suite (the file name matches no test
pattern), since the tracer patches module bindings while it runs.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import besovpde.cli as cli  # noqa: E402
from besovpde import grid, lp, paraproduct, solver  # noqa: E402

import run  # noqa: E402
from tracer import Tracer, outermost_incl, summarize  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload(
    name="tiny",
    config={"grid.d": 1, "grid.n": 16, "time.T": 0.5, "time.M": 8,
            "exponents.beta": 0.3, "exponents.eps": 0.1,
            "lambda.policy": "explicit", "lambda.value": 0.0,
            "rho.policy": "explicit", "rho.value": 1.0,
            "drift.kind": "dyadic-random", "drift.amplitude": 1.0,
            "drift.regularity": 0.3, "drift.time_dependence": "static",
            "terminal.kind": "affine-sine"},
    commands=("solve",))


def _field(n=32, seed=0):
    g = grid.TorusGrid(d=1, n=n)
    rng = np.random.default_rng(seed)
    return grid.to_fourier(rng.standard_normal(g.shape), g)


def _names(tr):
    return [tr.names[tr.span_name[i]] for i in range(len(tr))]


def test_nested_call_tree_attribution():
    f = _field()
    part = lp.dyadic_partition(f.grid)
    tr = Tracer()
    with tr.installed():
        t0 = time.perf_counter()
        lp.dc_norm(f, 0.35, part)
        wall = time.perf_counter() - t0
    names = _names(tr)
    parent = {i: tr.span_parent[i] for i in range(len(tr))}
    assert names[0] == "lp.dc_norm" and parent[0] == -1
    roots = [i for i in parent if parent[i] == -1]
    assert roots == [0]
    # dc_norm -> besov_norm -> block_sup_norms -> sup_norm -> ... -> fft
    bes = names.index("lp.besov_norm")
    assert names[parent[bes]] == "lp.dc_norm"
    sups = [i for i, n in enumerate(names) if n == "grid.sup_norm"]
    assert sups and all(names[parent[i]] == "lp.block_sup_norms" for i in sups)
    ffts = [i for i, n in enumerate(names) if n.startswith("fft.")]
    assert ffts and all(names[parent[i]].startswith("grid.") for i in ffts)

    s = summarize(tr)
    assert sum(s["layer_self"].values()) == pytest.approx(s["root_s"], rel=1e-9)
    assert s["root_s"] <= wall
    assert s["root_s"] >= 0.5 * wall
    assert outermost_incl(tr, ["lp.dc_norm", "lp.besov_norm"]) == \
        pytest.approx(s["root_s"])


def test_every_binding_is_patched_and_restored():
    originals = (solver.drift_term, solver.besov_norm, cli.solve_mild,
                 cli._COMMANDS["solve"], np.fft.rfftn, np.fft.ifftn,
                 grid.SpectralField.sup_norm)
    tr = Tracer()
    with tr.installed():
        patched = (solver.drift_term, solver.besov_norm, cli.solve_mild,
                   cli._COMMANDS["solve"], np.fft.rfftn, np.fft.ifftn,
                   grid.SpectralField.sup_norm)
        assert all(p is not o for p, o in zip(patched, originals))
        assert solver.drift_term is paraproduct.drift_term
        assert cli._COMMANDS["solve"] is cli.cmd_solve
        np.fft.irfftn(np.fft.rfftn(np.ones((4, 4))))
    assert (solver.drift_term, solver.besov_norm, cli.solve_mild,
            cli._COMMANDS["solve"], np.fft.rfftn, np.fft.ifftn,
            grid.SpectralField.sup_norm) == originals
    assert _names(tr) == ["fft.rfftn", "fft.irfftn"]
    assert tr.counters["fft.points"] == 32


def _tiny_solve(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return run.Runner(cli, TINY, seed=5, seconds=0.0, tracer=None)


def test_missed_wrapper_shows_as_unattributed(tmp_path, monkeypatch):
    runner = _tiny_solve(tmp_path, monkeypatch)
    runner.w = Workload("tiny", dict(TINY.config, **{"grid.n": 64}),
                        ("solve",))
    transforms = {name: getattr(np.fft, name) for name in ("fftn", "ifftn")}
    tr = Tracer(sample_interval=0.002)
    with tr.installed():
        for name, fn in transforms.items():   # as if these were not wrapped
            setattr(np.fft, name, fn)
        runner.run_op(0, traced=False)
    assert tr.unattributed_frac > 0.2, dict(tr.misattributed)

    tr = Tracer(sample_interval=0.002)
    with tr.installed():
        runner.run_op(1, traced=False)
    assert tr.unattributed_frac < 0.05, dict(tr.misattributed)
    assert {name: getattr(np.fft, name) for name in transforms} == transforms


def test_checks_pass_and_outputs_repeat(tmp_path, monkeypatch):
    runner = _tiny_solve(tmp_path, monkeypatch)
    first = runner.run_op(0, traced=False)
    again = runner.run_op(0, traced=False)
    assert first["failures"] == []
    assert first["digest"] == again["digest"]
    assert first["iterations"] == again["iterations"]
    assert runner.run_op(1, traced=False)["digest"] != first["digest"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on bad data
@pytest.mark.parametrize("damage", ["flip", "truncate"])
def test_corrupted_slice_fails_the_op(tmp_path, monkeypatch, damage):
    runner = _tiny_solve(tmp_path, monkeypatch)
    check = runner.check

    def corrupt_then_check(conf_path, op_dir):
        path = op_dir / "solve" / "slice_00003.field"
        raw = bytearray(path.read_bytes())
        if damage == "flip":
            raw[-1] ^= 0x40   # exponent bits of the last sample
        else:
            raw = raw[:-8]
        path.write_bytes(bytes(raw))
        return check(conf_path, op_dir)

    runner.check = corrupt_then_check
    record = runner.run_op(0, traced=False)
    assert record["failures"]


def test_metrics_match_benchmark_json(tmp_path, monkeypatch):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    runner = run.Runner(cli, TINY, seed=3, seconds=0.0, tracer=None)
    times, _ = runner.setup()
    runner.run_op(0, traced=False)
    e2e, raw = run.end_to_end(runner, 0.1, times, runner.ops[0]["op_s"])
    assert e2e["op_s_p50"]["value"] == pytest.approx(
        raw["op_s_p50"] * run.PROBE_REF_S / np.median(runner.probe.times["ops"]))
    assert {k: v["unit"] for k, v in e2e.items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}

    runner = run.Runner(cli, TINY, seed=3, seconds=0.0, tracer=Tracer())
    runner.setup()
    runner.run_op(0, traced=False)
    runner.run_op(0, traced=True)
    layers, partition_ok = run.per_layer(runner)
    assert partition_ok
    assert {k: v["unit"] for k, v in layers.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
