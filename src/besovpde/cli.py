"""Command-line entry point: configuration, calibration management, reports.

Configs are flat ``section.key = value`` files (TOML-style dotted keys,
JSON-style values, ``#`` comments).  Unknown keys are rejected: a silently
ignored exponent would let a run violate the hypotheses its guarantees
rest on.  Every command is deterministic given (config, seed,
calibration) and writes its outputs under --out with a manifest.json
index.

Exit codes: 0 success, 2 validation failure, 3 convergence failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import calibration as cal_mod
from .experiments import (
    ConvergenceStudy,
    DriftSpec,
    bernstein_path,
    continuity_study_phi,
    continuity_study_v,
    gen_drift,
)
from .grid import (
    AffinePeriodicField,
    GridError,
    SpectralField,
    TimeField,
    TorusGrid,
    load_field,
    save_fields,
    to_fourier,
)
from .heat import schauder_fit
from .lp import besov_norm, dyadic_partition, dyadic_random_field
from .solver import (
    NewtonError,
    PDEData,
    PicardError,
    SolverConfig,
    SolverError,
    build_phi,
    identity_component,
    invert_phi,
    lambda_threshold,
    solve_mild,
    solve_u,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing

_SCHEMA = {
    "grid.d": int,
    "grid.n": int,
    "grid.L": float,
    "time.T": float,
    "time.M": int,
    "exponents.beta": float,
    "exponents.eps": float,
    "exponents.alpha": float,
    "lambda.policy": str,     # explicit | auto-threshold
    "lambda.value": float,
    "rho.policy": str,        # explicit | auto
    "rho.value": float,
    "picard.tol": float,
    "picard.max_iter": int,
    "drift.kind": str,
    "drift.amplitude": float,
    "drift.regularity": float,
    "drift.time_dependence": str,
    "drift.mollify": float,
    "terminal.kind": str,     # zero | sine | affine-sine | identity
    "terminal.amplitude": float,
    "terminal.slope": float,
    "source.kind": str,       # zero | sine | drift-component
    "source.amplitude": float,
    "source.component": int,
    "seed": int,
    "axis": int,
    "study.eps_pow_lo": int,
    "study.eps_pow_hi": int,
    "study.gamma": float,
    "study.theta": float,
    "study.fields": int,
    "study.t_lo": float,
    "study.t_hi": float,
    "study.t_count": int,
    "study.degrees": list,
    "study.seeds": int,
    "probes.count": int,
    "newton.tol": float,
    "invert.t": float,
    "invert.y": list,
    "calibrate.pairs": int,
    "calibrate.fields": int,
    "norm.gamma": float,
    "field.path": str,
}

_DEFAULTS = {
    "grid.d": 1, "grid.n": 128, "grid.L": 2.0 * np.pi,
    "time.T": 1.0, "time.M": 128,
    "exponents.beta": 0.3, "exponents.eps": 0.1,
    "lambda.policy": "explicit", "lambda.value": 0.0,
    "rho.policy": "auto", "rho.value": 1.0,
    "picard.tol": 1e-10, "picard.max_iter": 60,
    "drift.kind": "dyadic-random", "drift.amplitude": 1.0,
    "drift.regularity": 0.3, "drift.time_dependence": "static",
    "drift.mollify": 0.0,
    "terminal.kind": "sine", "terminal.amplitude": 1.0,
    "terminal.slope": 0.5,
    "source.kind": "zero", "source.amplitude": 1.0, "source.component": 0,
    "seed": 0, "axis": 0,
    "study.eps_pow_lo": 2, "study.eps_pow_hi": 8,
    "study.gamma": -0.3, "study.theta": 0.25, "study.fields": 32,
    "study.t_lo": 1e-3, "study.t_hi": 0.2, "study.t_count": 16,
    "study.degrees": [4, 16, 64], "study.seeds": 5,
    "probes.count": 16, "newton.tol": 1e-12,
    "invert.t": 0.5, "invert.y": [0.5],
    "calibrate.pairs": 16, "calibrate.fields": 16,
    "norm.gamma": 0.5,
}


def parse_config(path) -> dict:
    """Read a dotted-key config file and validate it against the schema."""
    values = dict(_DEFAULTS)
    if path is None:
        return values
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            parsed = json.loads(val)
        except json.JSONDecodeError:
            parsed = val  # bare word: treat as string
        want = _SCHEMA[key]
        if want is float and isinstance(parsed, (int, float)):
            parsed = float(parsed)
        if not isinstance(parsed, want) or isinstance(parsed, bool):
            raise ConfigError(
                f"{path}:{lineno}: {key} expects {want.__name__}, "
                f"got {parsed!r}")
        values[key] = parsed
    return values


def _grid(conf) -> TorusGrid:
    try:
        return TorusGrid(d=conf["grid.d"], n=conf["grid.n"], L=conf["grid.L"])
    except GridError as exc:
        raise ConfigError(str(exc)) from exc


def _solver_config(conf, lam=None, rho=None) -> SolverConfig:
    kwargs = dict(
        beta=conf["exponents.beta"], eps=conf["exponents.eps"],
        T=conf["time.T"], M=conf["time.M"],
        tol_fix=conf["picard.tol"], max_iter=conf["picard.max_iter"],
        lam=conf["lambda.value"] if lam is None else lam,
        rho=conf["rho.value"] if conf["rho.policy"] == "explicit" else "auto",
    )
    if "exponents.alpha" in conf and conf.get("exponents.alpha") is not None:
        kwargs["alpha"] = conf["exponents.alpha"]
    if rho is not None:
        kwargs["rho"] = rho
    try:
        return SolverConfig(**kwargs)
    except SolverError as exc:
        raise ConfigError(str(exc)) from exc


def _drift_spec(conf, seed) -> DriftSpec:
    kind = conf["drift.kind"]
    base_kwargs = dict(amplitude=conf["drift.amplitude"],
                       regularity=conf["drift.regularity"],
                       seed=seed,
                       time_dependence=conf["drift.time_dependence"])
    if kind == "mollified":
        base = DriftSpec(kind="dyadic-random", **base_kwargs)
        return DriftSpec(kind="mollified", base=base,
                         mollify=conf["drift.mollify"], **base_kwargs)
    if kind in ("smooth-deterministic", "dyadic-random"):
        return DriftSpec(kind=kind, **base_kwargs)
    raise ConfigError(f"unknown drift.kind {kind!r}")


def _sine(grid, amp=1.0) -> SpectralField:
    """amp sin(2 pi x_0 / L), one period along the first axis."""
    x = np.meshgrid(*[grid.axis_points()] * grid.d, indexing="ij")[0]
    return to_fourier(amp * np.sin(2.0 * np.pi * x / grid.L), grid)


def _terminal(conf, grid):
    kind = conf["terminal.kind"]
    amp = conf["terminal.amplitude"]
    if kind == "zero":
        return SpectralField.zero(grid)
    if kind == "sine":
        return _sine(grid, amp)
    if kind == "affine-sine":
        slope = np.zeros(grid.d)
        slope[0] = conf["terminal.slope"]
        return AffinePeriodicField(slope, _sine(grid, amp))
    if kind == "identity":
        return identity_component(grid, 0)
    raise ConfigError(f"unknown terminal.kind {kind!r}")


def _source(conf, grid, mesh, b: TimeField) -> TimeField:
    kind = conf["source.kind"]
    amp = conf["source.amplitude"]
    if kind == "zero":
        coeffs = np.zeros((len(mesh),) + grid.shape, dtype=complex)
    elif kind == "sine":
        coeffs = np.repeat(_sine(grid, amp).coeffs[None], len(mesh), axis=0)
    elif kind == "drift-component":
        coeffs = b.coeffs[:, conf["source.component"]] * amp
    else:
        raise ConfigError(f"unknown source.kind {kind!r}")
    return TimeField.from_stacks(mesh, grid, coeffs)


def _load_calibration_or_die(args, needed: bool, grid: TorusGrid):
    if args.calibration and Path(args.calibration).exists():
        return cal_mod.load_calibration(args.calibration, grid)
    if needed:
        raise ConfigError(
            "this run needs a calibration file (rho or lambda policy is "
            "'auto'); run the calibrate command first and pass --calibration")
    return None


def _write_manifest(out: Path, command, conf, seed, outputs, extra=None):
    payload = {
        "command": command,
        "seed": seed,
        "config": {k: conf[k] for k in sorted(conf)},
        "outputs": sorted(str(o) for o in outputs),
    }
    if extra:
        payload.update(extra)
    path = out / "manifest.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# commands


def cmd_calibrate(conf, args, out: Path):
    grid = _grid(conf)
    calib = cal_mod.calibrate(
        grid, beta=conf["exponents.beta"], eps=conf["exponents.eps"],
        alpha=conf.get("exponents.alpha"), seed=conf["seed"],
        pairs=conf["calibrate.pairs"], n_fields=conf["calibrate.fields"])
    target = Path(args.calibration) if args.calibration else out / "calibration.json"
    cal_mod.save_calibration(target, calib)
    return [target], {"calibration": str(target)}


def _problem(conf, args):
    grid = _grid(conf)
    part = dyadic_partition(grid)
    mesh = TimeField.uniform_mesh(conf["time.T"], conf["time.M"])
    spec = _drift_spec(conf, conf["seed"])
    b = gen_drift(spec, grid, mesh, part)
    lam = conf["lambda.value"]
    calib = _load_calibration_or_die(
        args, needed=(conf["rho.policy"] == "auto"
                      or conf["lambda.policy"] == "auto-threshold"),
        grid=grid)
    base_cfg = _solver_config(conf, lam=lam)
    if conf["lambda.policy"] == "auto-threshold":
        lam = lambda_threshold(b, base_cfg,
                               cal_mod.lambda_constant(calib, base_cfg), part)
    cfg = _solver_config(conf, lam=lam)
    return grid, part, mesh, b, cfg, calib


def cmd_solve(conf, args, out: Path):
    grid, part, mesh, b, cfg, calib = _problem(conf, args)
    data = PDEData(b=b, g=_source(conf, grid, mesh, b),
                   v_T=_terminal(conf, grid))
    result = solve_mild(data, cfg, part=part, calibration=calib)
    files = result.save(out, cfg)
    return files, {**_certificate(result),
                   "weak_residual": result.weak_residual}


def _certificate(result) -> dict:
    """A solve's iteration counts and its fixed-point certificate."""
    return {"iterations": result.iterations, "rho": result.rho,
            "march": result.march, "march_steps": result.march_steps,
            "final_increment_sup": result.final_increment_sup,
            "error_bound": result.error_bound}


def cmd_solve_u(conf, args, out: Path):
    grid, part, mesh, b, cfg, calib = _problem(conf, args)
    if cfg.lam <= 0:
        raise ConfigError("solve-u needs lambda.value > 0 or auto-threshold")
    result = solve_u(b, conf["axis"], cfg, part=part, calibration=calib)
    files = result.save(out, cfg)
    return files, _certificate(result)


def cmd_build_phi(conf, args, out: Path):
    grid, part, mesh, b, cfg, calib = _problem(conf, args)
    if cfg.lam <= 0:
        raise ConfigError("build-phi needs lambda.value > 0 or auto-threshold")
    res = build_phi(b, cfg, part=part, calibration=calib)
    files = [out / f"phi_{m:05d}.field" for m in range(len(res.phi))]
    save_fields(files, grid, res.phi.coeffs)
    return files, {
        "lambda": res.lam,
        "grad_sup": res.grad_sup,
        "phi_equation_residual": res.phi_equation_residual,
        "gradient_certificate": bool(res.grad_sup <= 0.5 + 1e-3),
        "iterations": [r.iterations for r in res.u_results],
    }


def cmd_invert_phi(conf, args, out: Path):
    grid, part, mesh, b, cfg, calib = _problem(conf, args)
    if cfg.lam <= 0:
        raise ConfigError("invert-phi needs lambda.value > 0 or auto-threshold")
    res = build_phi(b, cfg, part=part, calibration=calib)
    t = conf["invert.t"]
    y = np.asarray(conf["invert.y"], dtype=float)
    if y.shape != (grid.d,):
        raise ConfigError(f"invert.y must have {grid.d} components")
    x = invert_phi(res.phi, t, y, tol=conf["newton.tol"])
    payload = {"t": t, "y": y.tolist(), "x": x.tolist(),
               "grad_sup": res.grad_sup}
    path = out / "inverse.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return [path], payload


def cmd_study_schauder(conf, args, out: Path):
    grid = _grid(conf)
    part = dyadic_partition(grid)
    gamma, theta = conf["study.gamma"], conf["study.theta"]
    seeds = np.random.SeedSequence(conf["seed"]).spawn(conf["study.fields"])
    fields = [dyadic_random_field(grid, gamma, s, part=part) for s in seeds]
    t_samples = np.geomspace(conf["study.t_lo"], conf["study.t_hi"],
                             conf["study.t_count"])
    report = schauder_fit(gamma, theta, fields, t_samples, part)
    csv_path = out / "schauder.csv"
    report.to_csv(csv_path)
    json_path = out / "schauder.json"
    json_path.write_text(report.to_json() + "\n")
    return [csv_path, json_path], {"fitted_exponent": report.fitted_exponent,
                                   "constant": report.constant}


def cmd_study_bony(conf, args, out: Path):
    grid = _grid(conf)
    part = dyadic_partition(grid)
    alpha, beta = 0.6, 0.3
    rows = []
    for s in range(conf["study.seeds"]):
        c = cal_mod.calibrate_bony(
            grid, alpha, beta, np.random.SeedSequence((conf["seed"], s)),
            pairs=conf["calibrate.pairs"], part=part)
        rows.append((s, c))
    csv_path = out / "bony.csv"
    with open(csv_path, "w") as fh:
        fh.write("seed,constant\n")
        for s, c in rows:
            fh.write(f"{s},{c:.16g}\n")
    consts = [c for _, c in rows]
    spread = (max(consts) - min(consts)) / float(np.mean(consts))
    return [csv_path], {"constants": consts, "spread": spread}


def _study_common(conf, args):
    grid, part, mesh, b, cfg, calib = _problem(conf, args)
    eps_list = [2.0 ** (-k) for k in range(conf["study.eps_pow_lo"],
                                           conf["study.eps_pow_hi"] + 1)]
    return grid, part, mesh, b, cfg, calib, eps_list


def _emit_study(out: Path, name: str, study: ConvergenceStudy):
    csv_path = out / f"{name}.csv"
    study.to_csv(csv_path)
    json_path = out / f"{name}.json"
    json_path.write_text(study.to_json() + "\n")
    return [csv_path, json_path]


def cmd_study_continuity_v(conf, args, out: Path):
    grid, part, mesh, b, cfg, calib, eps_list = _study_common(conf, args)
    if cfg.rho == "auto":
        from .calibration import contraction_constant
        from .solver import path_besov_norm, select_rho
        b_norm = path_besov_norm(b, -cfg.beta, part, "drift")
        cfg = _solver_config(conf, lam=cfg.lam,
                             rho=select_rho(cfg, b_norm,
                                            contraction_constant(calib, cfg)))
    data_g = _source(conf, grid, mesh, b)
    study = continuity_study_v(b, data_g, _terminal(conf, grid), cfg,
                               eps_list, part=part)
    files = _emit_study(out, "continuity_v", study)
    return files, {"verdicts": study.verdicts}


def cmd_study_continuity_phi(conf, args, out: Path):
    if conf["grid.d"] != 1:
        raise ConfigError(f"study-continuity-phi runs the phi ladder in one "
                          f"dimension only; got grid.d = {conf['grid.d']}")
    grid, part, mesh, b, cfg, calib, eps_list = _study_common(conf, args)
    calib = _load_calibration_or_die(args, needed=True, grid=grid)
    c_lam = cal_mod.lambda_constant(calib, cfg)
    if cfg.rho == "auto":
        cfg = _solver_config(conf, lam=cfg.lam, rho=1.0)
    study = continuity_study_phi(b, cfg, eps_list, c_cal=c_lam, part=part,
                                 probe_count=conf["probes.count"],
                                 newton_tol=conf["newton.tol"])
    files = _emit_study(out, "continuity_phi", study)
    return files, {"verdicts": study.verdicts,
                   "psi_lipschitz": study.notes["psi_lipschitz"],
                   "lipschitz_certificate": bool(
                       study.notes["psi_lipschitz"] <= 2.0),
                   "lambda": study.notes["lambda"]}


def cmd_study_bernstein(conf, args, out: Path):
    grid = _grid(conf)
    base = _sine(grid)
    base = base * (1.0 / base.sup_norm())
    ts = np.linspace(0.0, 1.0, 65)
    rows = []
    for n_deg in conf["study.degrees"]:
        interp = bernstein_path(lambda t: (t * t) * base, int(n_deg), ts)
        err = max((f - (t * t) * base).sup_norm() for f, t in zip(interp, ts))
        rows.append((int(n_deg), err, 1.0 / (4.0 * int(n_deg))))
    csv_path = out / "bernstein.csv"
    with open(csv_path, "w") as fh:
        fh.write("degree,sup_error,expected\n")
        for n_deg, err, exp in rows:
            fh.write(f"{n_deg},{err:.16g},{exp:.16g}\n")
    return [csv_path], {"rows": rows}


def cmd_besov_norm(conf, args, out: Path):
    if "field.path" not in conf or not conf.get("field.path"):
        raise ConfigError("besov-norm needs field.path in the config")
    try:
        f = load_field(conf["field.path"])
    except FileNotFoundError as exc:
        raise OSError(str(exc)) from exc
    report = besov_norm(f, conf["norm.gamma"]).report()
    path = out / "besov_norm.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return [path], {"value": report["value"]}


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "solve": cmd_solve,
    "solve-u": cmd_solve_u,
    "build-phi": cmd_build_phi,
    "invert-phi": cmd_invert_phi,
    "study-schauder": cmd_study_schauder,
    "study-bony": cmd_study_bony,
    "study-continuity-v": cmd_study_continuity_v,
    "study-continuity-phi": cmd_study_continuity_phi,
    "study-bernstein-path": cmd_study_bernstein,
    "besov-norm": cmd_besov_norm,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="besovpde",
        description="Pseudospectral solver for parabolic equations with "
                    "negative-Besov drift on the torus.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", type=str, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default="out")
    parser.add_argument("--calibration", type=str, default=None)
    args = parser.parse_args(argv)

    try:
        conf = parse_config(args.config)
        if args.seed is not None:
            conf["seed"] = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        outputs, extra = _COMMANDS[args.command](conf, args, out)
        manifest = _write_manifest(out, args.command, conf, conf["seed"],
                                   outputs, extra)
        print(manifest)
        return EXIT_OK
    except (ConfigError, GridError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PicardError as exc:
        print(f"convergence failure: {exc}; ratios={exc.ratios}",
              file=sys.stderr)
        return EXIT_CONVERGENCE
    except NewtonError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
