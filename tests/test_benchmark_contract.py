"""The benchmark's use of the program, run once: set-up, op 0 and checks.

``perfbench/workloads.py`` is loaded from its file as it stands.  The
set-up calibrates as ``perfbench/run.py`` does, and op 0 of ``solve-1d``
and of ``phi-1d`` runs through ``op_config``, ``op_argvs`` and
``cli.main``; the workload's output checks must then find no failure.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from besovpde import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    # dataclasses look their module up in sys.modules while it executes
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["solve-1d", "phi-1d"])
def test_op_zero_passes_the_benchmark_checks(workloads, tmp_path, name):
    w = workloads.WORKLOADS[name]
    setup = tmp_path / "setup.conf"
    setup.write_text(workloads.config_text(
        dict(w.config, seed=workloads.setup_seed(SEED))))
    calibration = str(tmp_path / "calibration.json")
    assert cli.main(["calibrate", "--config", str(setup), "--out",
                     str(tmp_path / "setup"), "--calibration",
                     calibration]) == 0
    op_dir = str(tmp_path / "op0000")
    conf_path = str(tmp_path / "op0000.conf")
    conf = workloads.op_config(w, SEED, 0, op_dir)
    Path(conf_path).write_text(workloads.config_text(conf))
    for argv in workloads.op_argvs(w, conf_path, op_dir, calibration):
        assert cli.main(argv) == 0, argv[0]
    parsed = cli.parse_config(conf_path)
    failures = []
    for cmd in w.commands:
        failures += workloads.CHECKS[cmd](parsed, Path(op_dir))
    assert failures == []
