import json

import pytest

from besovpde import SolverConfig, TorusGrid
from besovpde.calibration import (calibrate, contraction_constant,
                                  lambda_constant, save_calibration)
from oracles import per_field_calibration

GRIDS = [(1, 128), (2, 32), (3, 8)]


@pytest.mark.parametrize("d, n", GRIDS)
def test_calibration_matches_the_per_field_oracle(d, n):
    # the stacked kernels against one norm call per field and time and the
    # Bony sum per pair, on the seeds the constants are drawn from: equal,
    # except the product constant, which the plain dealiased product moves
    # by rounding only (tolerance 1e-15 relative)
    grid = TorusGrid(d=d, n=n)
    for seed in (0, 1, 2):
        calib = calibrate(grid, beta=0.3, eps=0.1, seed=seed, pairs=4,
                          n_fields=8)
        ref = per_field_calibration(grid, 0.3, 0.1, seed, pairs=4,
                                    n_fields=8)
        assert set(calib) == set(ref) | {"metadata"}
        for key in ("schauder", "bernstein_ineq", "convolution",
                    "dc_stability"):
            assert calib[key] == ref[key], (seed, key)
        assert calib["bony"].keys() == ref["bony"].keys()
        for key, value in ref["bony"].items():
            assert abs(calib["bony"][key] - value) <= 1e-15 * value


def test_calibration_holds_the_six_constants_runs_read(tmp_path):
    grid = TorusGrid(d=1, n=64)
    calib = calibrate(grid, beta=0.3, eps=0.1, seed=4, pairs=4, n_fields=8)
    assert {k: sorted(v) for k, v in calib.items() if isinstance(v, dict)
            and k != "metadata"} == {"schauder": ["-0.2,0.75"],
                                     "bony": ["0.3,0.2", "0.35,0.3"],
                                     "bernstein_ineq": ["0.3"]}
    # calibrating twice gives the same file
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        save_calibration(path, calibrate(grid, beta=0.3, eps=0.1, seed=4,
                                         pairs=4, n_fields=8))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # and every constant the selection rules read is in it
    cfg = SolverConfig(beta=0.3, eps=0.1)
    loaded = json.loads(paths[0].read_text())
    assert contraction_constant(loaded, cfg) > 0
    assert lambda_constant(loaded, cfg) > 0
