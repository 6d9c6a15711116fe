import json
import re

import numpy as np
import pytest

from besovpde import TorusGrid, apply_heat, load_field, save_field, to_fourier
from besovpde import cli, solver
from besovpde.cli import main, parse_config
from test_solver import nan_in_slice

BASE = """
grid.d = 1
grid.n = 64
time.T = 0.5
time.M = 32
exponents.beta = 0.3
exponents.eps = 0.1
drift.kind = "dyadic-random"
drift.amplitude = 1.0
rho.policy = "auto"
calibrate.pairs = 4
calibrate.fields = 8
seed = 7
"""


def write(tmp_path, text, name="conf.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_unknown_key_rejected(tmp_path):
    conf = write(tmp_path, "grid.nn = 12\n")
    assert main(["solve", "--config", str(conf), "--out",
                 str(tmp_path / "o")]) == 2


def test_invalid_grid_rejected(tmp_path):
    conf = write(tmp_path, "grid.n = 5\n")
    assert main(["solve", "--config", str(conf), "--out",
                 str(tmp_path / "o")]) == 2


def test_bad_value_type_rejected(tmp_path):
    conf = write(tmp_path, 'grid.n = "many"\n')
    assert main(["solve", "--config", str(conf), "--out",
                 str(tmp_path / "o")]) == 2


def test_missing_calibration_is_explicit(tmp_path, capsys):
    conf = write(tmp_path, BASE)
    rc = main(["solve", "--config", str(conf), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "calibration" in capsys.readouterr().err


def test_calibrate_deterministic_and_seed_sensitivity(tmp_path):
    conf = write(tmp_path, BASE)
    paths = []
    for tag, seed in (("a", 7), ("b", 7), ("c", 8), ("d", 9)):
        cal = tmp_path / f"cal_{tag}.json"
        rc = main(["calibrate", "--config", str(conf), "--seed", str(seed),
                   "--out", str(tmp_path / f"out_{tag}"),
                   "--calibration", str(cal)])
        assert rc == 0
        paths.append(cal)
    # identical seed: bit-identical files
    assert paths[0].read_bytes() == paths[1].read_bytes()
    a = json.loads(paths[0].read_text())
    # distinct seeds: every constant within 20 percent
    c = json.loads(paths[2].read_text())
    d = json.loads(paths[3].read_text())
    for section in ("schauder", "bony", "bernstein_ineq"):
        for key in a[section]:
            vals = [cal[section][key] for cal in (a, c, d)]
            assert (max(vals) - min(vals)) / np.mean(vals) <= 0.20
    vals = [cal["convolution"] for cal in (a, c, d)]
    assert (max(vals) - min(vals)) / np.mean(vals) <= 0.20


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    conf = write(tmp, BASE)
    cal = tmp / "cal.json"
    assert main(["calibrate", "--config", str(conf), "--out",
                 str(tmp / "calout"), "--calibration", str(cal)]) == 0
    return tmp, conf, cal


def test_solve_heat_equation_config(calibrated):
    tmp, conf, cal = calibrated
    heat_conf = write(tmp, BASE + 'drift.amplitude = 0.0\n'
                      'terminal.kind = "sine"\n', "heat.txt")
    out = tmp / "heat_out"
    assert main(["solve", "--config", str(heat_conf), "--out", str(out),
                 "--calibration", str(cal)]) == 0
    meta = json.loads((out / "solution.json").read_text())
    grid = TorusGrid(d=1, n=64)
    x = grid.axis_points()
    v_T = to_fourier(np.sin(2 * np.pi * x / grid.L), grid)
    t_grid = meta["t_grid"]
    T = t_grid[-1]
    for m in (0, len(t_grid) // 2, len(t_grid) - 1):
        f = load_field(out / f"slice_{m:05d}.field")
        ref = apply_heat(T - t_grid[m], v_T)
        assert (f - ref).sup_norm() < 1e-11


def test_solve_manifest_contents(calibrated):
    tmp, conf, cal = calibrated
    out = tmp / "solve_out"
    assert main(["solve", "--config", str(conf), "--out", str(out),
                 "--calibration", str(cal)]) == 0
    meta = json.loads((out / "solution.json").read_text())
    for key in ("rho", "iterations", "march", "march_steps", "ratios",
                "final_increment_sup", "error_bound", "weak_residual",
                "affine_slopes", "config"):
        assert key in meta
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    # a static drift on 64 points marches on the factored node operator,
    # one step a node
    assert manifest["march"] == meta["march"] == "dense"
    # the certificate of the written solution: ||T(v) - v|| and the bound
    assert manifest["march_steps"] == meta["march_steps"] == 32
    assert manifest["final_increment_sup"] <= meta["config"]["tol_fix"]
    assert manifest["error_bound"] == meta["error_bound"] < float("inf")
    assert any(name.endswith("solution.json") for name in manifest["outputs"])


def test_schauder_study_csv_rows(calibrated):
    tmp, conf, cal = calibrated
    study_conf = write(tmp, BASE + "study.t_count = 12\nstudy.fields = 8\n",
                       "schauder.txt")
    out = tmp / "schauder_out"
    assert main(["study-schauder", "--config", str(study_conf),
                 "--out", str(out)]) == 0
    rows = (out / "schauder.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 12  # header plus one row per time sample


def test_besov_norm_command(calibrated):
    tmp, conf, cal = calibrated
    grid = TorusGrid(d=1, n=64)
    x = grid.axis_points()
    field_path = tmp / "input.field"
    save_field(field_path, to_fourier(np.sin(x), grid))
    norm_conf = write(tmp, BASE + f'field.path = "{field_path}"\n'
                      "norm.gamma = 0.5\n", "norm.txt")
    out = tmp / "norm_out"
    assert main(["besov-norm", "--config", str(norm_conf),
                 "--out", str(out)]) == 0
    report = json.loads((out / "besov_norm.json").read_text())
    assert report["kind"] == "besov"
    assert report["value"] > 0
    assert report["value"] == max(e["entry"] for e in report["ledger"])


def test_convergence_failure_exit_code(calibrated, capsys):
    tmp, conf, cal = calibrated
    hard = write(tmp, BASE + "picard.max_iter = 2\ndrift.amplitude = 1.0\n"
                 'terminal.kind = "affine-sine"\n', "hard.txt")
    out = tmp / "hard_out"
    rc = main(["solve", "--config", str(hard), "--out", str(out),
               "--calibration", str(cal)])
    assert rc == 3
    assert "convergence" in capsys.readouterr().err


def test_build_phi_and_invert(calibrated):
    tmp, conf, cal = calibrated
    phi_conf = write(tmp, BASE + 'lambda.policy = "auto-threshold"\n'
                     "invert.t = 0.25\ninvert.y = [0.5]\n", "phi.txt")
    out = tmp / "phi_out"
    assert main(["build-phi", "--config", str(phi_conf), "--out", str(out),
                 "--calibration", str(cal)]) == 0
    meta = json.loads((out / "manifest.json").read_text())
    assert meta["gradient_certificate"]
    assert meta["grad_sup"] <= 0.5 + 1e-3
    out2 = tmp / "inv_out"
    assert main(["invert-phi", "--config", str(phi_conf), "--out", str(out2),
                 "--calibration", str(cal)]) == 0
    inv = json.loads((out2 / "inverse.json").read_text())
    assert abs(inv["x"][0] - 0.5) <= 2.0 * abs(inv["grad_sup"]) + 1e-9


def test_parse_config_defaults_without_file():
    conf = parse_config(None)
    assert conf["grid.n"] == 128
    assert conf["rho.policy"] == "auto"


def test_solve_u_command(calibrated):
    tmp, conf, cal = calibrated
    u_conf = write(tmp, BASE + "lambda.value = 2.0\naxis = 0\n", "u.txt")
    out = tmp / "u_out"
    assert main(["solve-u", "--config", str(u_conf), "--out", str(out),
                 "--calibration", str(cal)]) == 0
    meta = json.loads((out / "solution.json").read_text())
    assert meta["lambda"] == 2.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["march"] == meta["march"] in ("none", "dense")


def test_study_bony_command(calibrated):
    tmp, conf, cal = calibrated
    out = tmp / "bony_out"
    assert main(["study-bony", "--config", str(conf), "--out", str(out)]) == 0
    rows = (out / "bony.csv").read_text().strip().splitlines()
    assert rows[0] == "seed,constant"
    assert len(rows) == 6
    meta = json.loads((out / "manifest.json").read_text())
    assert meta["spread"] <= 0.5


def test_package_stands_alone_and_its_exports_resolve():
    # no module of the package imports the test tree (the oracles are
    # references, never a path a command runs), and every name a
    # submodule's __all__ or the package's re-exports promise exists, so a
    # stale __all__ entry cannot break `import *`
    import ast
    import importlib
    import pkgutil
    from pathlib import Path

    import besovpde
    src = Path(besovpde.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("tests", "oracles"), \
                    f"{path.name} imports {name}"
    for info in pkgutil.iter_modules(besovpde.__path__):
        exec(f"from besovpde.{info.name} import *", {})
    for node in ast.parse((src / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"besovpde.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, (node.module, alias.name)
                assert getattr(besovpde, alias.name) is getattr(module,
                                                                alias.name)


def test_study_continuity_commands(calibrated):
    tmp, conf, cal = calibrated
    small = write(tmp, BASE + "study.eps_pow_lo = 3\nstudy.eps_pow_hi = 5\n"
                  "time.M = 16\npicard.tol = 1e-9\n", "ladder.txt")
    out_v = tmp / "cv_out"
    assert main(["study-continuity-v", "--config", str(small),
                 "--out", str(out_v), "--calibration", str(cal)]) == 0
    meta = json.loads((out_v / "manifest.json").read_text())
    assert "verdicts" in meta
    assert (out_v / "continuity_v.csv").exists()
    out_p = tmp / "cp_out"
    assert main(["study-continuity-phi", "--config", str(small),
                 "--out", str(out_p), "--calibration", str(cal)]) == 0
    meta = json.loads((out_p / "manifest.json").read_text())
    assert meta["psi_lipschitz"] <= 2.0
    assert meta["lipschitz_certificate"]


def test_continuity_study_rho_with_a_nan_drift_slice_exits_2(
        calibrated, capsys, monkeypatch):
    # NaN in slice 2 of 5: the builtin max() dropped it from the drift norm
    # that selects rho; the path norm names it and the command stops
    tmp, conf, cal = calibrated
    gen_drift = cli.gen_drift

    def study_not_reached(*args, **kwargs):
        raise AssertionError("the study ran with a NaN drift norm")

    monkeypatch.setattr(cli, "gen_drift",
                        lambda *args: nan_in_slice(gen_drift(*args)))
    monkeypatch.setattr(cli, "continuity_study_v", study_not_reached)
    nan_conf = write(tmp, BASE + "time.M = 4\n", "nan_drift.txt")
    rc = main(["study-continuity-v", "--config", str(nan_conf),
               "--out", str(tmp / "nan_out"), "--calibration", str(cal)])
    assert rc == 2
    assert re.search("drift norm .* not finite", capsys.readouterr().err)


def _edited_calibration(tmp_path, cal, edit):
    path = tmp_path / "edited_cal.json"
    path.write_text(json.dumps(edit(json.loads(cal.read_text()))))
    return path


def _set(section, key, value):
    def edit(calib):
        if key is None:
            calib[section] = value
        else:
            calib[section][key] = value
        return calib
    return edit


@pytest.mark.parametrize("edit, cause", [
    (_set("bony", "0.35,0.3", float("nan")),
     "calibration bony[0.35,0.3] is not finite (nan)"),
    (_set("convolution", None, float("nan")),
     "calibration convolution is not finite (nan)"),
    (_set("schauder", "-0.2,0.75", "large"),
     "calibration schauder[-0.2,0.75] must be a number, got 'large'"),
    (lambda calib: {k: v for k, v in calib.items() if k != "convolution"},
     "calibration has no 'convolution'"),
    (lambda calib: list(calib), "must hold a JSON object, got list"),
    (_set("metadata", "n", 128),
     "calibration metadata n = 128 does not match the config grid's 64"),
    (_set("metadata", "d", 2),
     "calibration metadata d = 2 does not match the config grid's 1"),
    (_set("metadata", "L", 1.0), "calibration metadata L = 1.0 does not "
     "match the config grid's 6.28"),
], ids=["nan-bony", "nan-convolution", "str-schauder", "no-convolution",
        "list", "other-n", "other-d", "other-L"])
def test_bad_calibration_exits_2_naming_the_cause(calibrated, tmp_path,
                                                  capsys, edit, cause):
    tmp, conf, cal = calibrated
    path = _edited_calibration(tmp_path, cal, edit)
    rc = main(["solve", "--config", str(conf), "--out", str(tmp_path / "o"),
               "--calibration", str(path)])
    assert rc == 2
    assert cause in capsys.readouterr().err


def test_unreadable_calibration_exits_4(calibrated, tmp_path):
    tmp, conf, cal = calibrated
    rc = main(["solve", "--config", str(conf), "--out", str(tmp_path / "o"),
               "--calibration", str(tmp_path)])   # a directory
    assert rc == 4


def test_march_node_failure_exits_3(calibrated, capsys, monkeypatch):
    # five Picard iterations reach the four certificate ratios, and five
    # local steps are too few for the first node the iterative march
    # solves (the gate at 0 sends this static drift there)
    monkeypatch.setattr(solver, "DENSE_MARCH_MAX_UNKNOWNS", 0)
    tmp, conf, cal = calibrated
    short = write(tmp, BASE + "picard.max_iter = 5\n", "short.txt")
    rc = main(["solve", "--config", str(short), "--out",
               str(tmp / "short_out"), "--calibration", str(cal)])
    assert rc == 3
    assert "node 31 (t = 0.484375) did not settle in 5 local steps" in \
        capsys.readouterr().err


def test_singular_dense_march_exits_3(calibrated, capsys, monkeypatch):
    # a node operator that cannot be factored stops the dense march with a
    # named cause, not a LinAlgError traceback
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(solver.np.linalg, "solve", singular)
    tmp, conf, cal = calibrated
    rc = main(["solve", "--config", str(conf), "--out",
               str(tmp / "singular_out"), "--calibration", str(cal)])
    assert rc == 3
    assert ("the node operator I - W_left D is singular (Singular matrix); "
            "the dense march stops at node 31 (t = 0.484375)"
            in capsys.readouterr().err)


def test_divergent_drift_exits_3_naming_the_certificate(tmp_path, capsys):
    # a 1e4 sin(x) drift: the Picard prefix measures ratios near 1e3 and
    # refuses nothing; the dense march's answer then misses its certificate
    conf = write(tmp_path, BASE + "time.M = 16\n"
                 'drift.kind = "smooth-deterministic"\n'
                 "drift.amplitude = 1e4\n"
                 'rho.policy = "explicit"\nrho.value = 1.0\n')
    rc = main(["solve", "--config", str(conf), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "the marched solution misses its certificate" in err
    assert "above tol_fix 1.000e-10 after the dense march" in err


def test_solve_without_a_contracting_prefix_exits_0(tmp_path):
    # the benchmark's solve-1d shape with lam = 20 in the integrand and
    # rho = 1: global Picard does not contract (its largest ratio is above
    # 1, so error_bound is inf), and the march still reaches the fixed
    # point and passes its certificate
    conf = write(tmp_path, BASE + "grid.n = 128\ntime.M = 64\n"
                 'terminal.kind = "affine-sine"\nlambda.value = 20.0\n'
                 'rho.policy = "explicit"\nrho.value = 1.0\n')
    out = tmp_path / "o"
    assert main(["solve", "--config", str(conf), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    meta = json.loads((out / "solution.json").read_text())
    assert manifest["march"] == "dense"
    assert manifest["error_bound"] == float("inf")
    assert max(meta["ratios"]) >= 1.0
    assert manifest["final_increment_sup"] <= meta["config"]["tol_fix"]
    assert meta["weak_residual"] <= 10.0 * meta["weak_tolerance"]


def test_continuity_phi_study_in_two_dimensions_exits_2(tmp_path, capsys):
    # the phi ladder is one-dimensional: a d = 2 config is a config error,
    # named before any drift is built or calibration read
    conf = write(tmp_path, BASE + "grid.d = 2\ngrid.n = 16\n"
                 'lambda.policy = "auto-threshold"\n')
    rc = main(["study-continuity-phi", "--config", str(conf), "--out",
               str(tmp_path / "o"), "--calibration",
               str(tmp_path / "missing.json")])
    assert rc == 2
    assert ("study-continuity-phi runs the phi ladder in one dimension "
            "only; got grid.d = 2") in capsys.readouterr().err


def test_io_failure_exit_code(tmp_path):
    conf = write(tmp_path, BASE + 'field.path = "/nonexistent/field.bin"\n')
    rc = main(["besov-norm", "--config", str(conf),
               "--out", str(tmp_path / "o")])
    assert rc == 4


def _corrupt_field(tmp_path, edit):
    """A saved 1D field file with its sample payload passed through edit."""
    grid = TorusGrid(d=1, n=64)
    path = tmp_path / "input.field"
    save_field(path, to_fourier(np.sin(grid.axis_points()), grid))
    header, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(header + b"\n" + edit(payload))
    return path


@pytest.mark.parametrize("edit, cause", [
    (lambda raw: raw[:-8], "truncated payload, 504 bytes for 64"),
    (lambda raw: raw + b"\0" * 3, "3 trailing bytes after 64"),
    (lambda raw: raw[:80] + np.float64(np.nan).tobytes() + raw[88:],
     "non-finite sample nan at flat index 10"),
], ids=["short", "trailing", "nan"])
def test_corrupt_field_file_exits_2_naming_the_cause(tmp_path, capsys, edit,
                                                     cause):
    path = _corrupt_field(tmp_path, edit)
    conf = write(tmp_path, BASE + f'field.path = "{path}"\n')
    rc = main(["besov-norm", "--config", str(conf),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert cause in capsys.readouterr().err


def _field_with_header(tmp_path, edit):
    """A saved 1D field file with its JSON header passed through edit."""
    path = _corrupt_field(tmp_path, lambda raw: raw)
    header, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n"
                     + payload)
    return path


def _without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


@pytest.mark.parametrize("edit, cause", [
    (_without("d"), "header has no 'd'"),
    (_without("n"), "header has no 'n'"),
    (_without("L"), "header has no 'L'"),
    (_without("components"), "header has no 'components'"),
    (lambda h: {**h, "d": "1"}, "header 'd' must be an integer, got '1'"),
    (lambda h: {**h, "n": 64.0}, "header 'n' must be an integer, got 64.0"),
    (lambda h: {**h, "L": None}, "header 'L' must be a number, got None"),
    (lambda h: {**h, "components": True},
     "header 'components' must be an integer, got True"),
    (lambda h: list(h.items()), "header is not a JSON object"),
], ids=["no-d", "no-n", "no-L", "no-components", "str-d", "float-n",
        "null-L", "bool-components", "list"])
def test_bad_field_header_exits_2_naming_the_cause(tmp_path, capsys, edit,
                                                   cause):
    path = _field_with_header(tmp_path, edit)
    conf = write(tmp_path, BASE + f'field.path = "{path}"\n')
    rc = main(["besov-norm", "--config", str(conf),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert cause in capsys.readouterr().err


def test_solve_with_mollified_drift(calibrated):
    tmp, conf, cal = calibrated
    mol_conf = write(tmp, BASE + 'drift.kind = "mollified"\n'
                     "drift.mollify = 0.05\n", "mol.txt")
    out = tmp / "mol_out"
    assert main(["solve", "--config", str(mol_conf), "--out", str(out),
                 "--calibration", str(cal)]) == 0


def test_solve_deterministic_given_config_seed_calibration(calibrated):
    tmp, conf, cal = calibrated
    outs = []
    for tag in ("da", "db"):
        out = tmp / f"det_{tag}"
        assert main(["solve", "--config", str(conf), "--out", str(out),
                     "--calibration", str(cal)]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "solution.json").read_bytes() == (b / "solution.json").read_bytes()
    for name in ("slice_00000.field", "slice_00016.field"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
