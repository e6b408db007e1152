"""Command-line surface: design / simulate / b0max / sweep / reduce.

Configuration is a YAML key-tree mirroring the sections below; every flag
overrides its config entry.  Outputs are deterministic tables (see
:mod:`spinflip.tables`): identical configs, including seeds, produce
byte-identical files.

Exit codes: 0 ok, 2 bad config, 3 non-cancellable singularity (B0 above the
limit), 4 integrator failure, 5 degenerate reduction reference.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import numbers
import os
import re
import sys

import numpy as np

from . import __version__
from ._kernels import poly3
from .constants import MaterialParams
from .core import initial_state, spin_to_bloch
from .errors import (ConfigError, DegenerateReferenceError, IntegratorError,
                     SingularityError)
from .fields import compute_b0_max, detect_singularities, sample_fields
from .invariant import MIN_GATED_STEPS
from .lowdin import (FourLevelModel, build_full_hamiltonian, coupling_norm,
                     lowdin_reduce, lowest_eigenvalues, orbital_adiabaticity,
                     partition, validity_check, xi_factors)
from .opensys import (check_ensemble, check_noise, check_rate, dephasing_sweep,
                      ensemble_sweep, noise_sweep, perturbative_bound, propagate_bloch)
from .tables import OutputTable, config_hash
from .trajectory import TrajectoryDesign

DEFAULT_CONFIG = {
    "material": {
        "hbar_alpha_meV_cm": 2e-6,
        "beta_over_alpha": 0.5,
        "g_factor": -0.44,
        "xi_x": 0.0,
        "xi_y": 0.0,
    },
    "control": {"tf_ns": 1.0, "b0_T": 0.15, "samples": 1001},
    "decoherence": {"gamma_per_ns": 0.0},
    "noise": {"lambda0": 0.0, "channel": "as-printed", "seed": 1234, "n_traj": 1000},
    "integrator": {"steps": 10000},
    "output": {"path": "-", "format": "csv"},
}

EXIT_CONFIG = 2
EXIT_SINGULARITY = 3
EXIT_INTEGRATOR = 4
EXIT_DEGENERATE = 5
EXIT_CODES = {ConfigError: EXIT_CONFIG, SingularityError: EXIT_SINGULARITY,
              IntegratorError: EXIT_INTEGRATOR, DegenerateReferenceError: EXIT_DEGENERATE}


def _leaf(key: str, value, default=0.0):
    """value, uncoerced, if it has the kind of default: a str, an integer, or
    a finite real number; never a bool.  Else a ConfigError naming key."""
    if isinstance(default, str):
        kind, ok = "a string", isinstance(value, str)
    elif isinstance(default, int):
        kind, ok = "an integer", isinstance(value, numbers.Integral)
    else:
        # abs(x) <= max float: false for NaN, inf and a float-overflowing int
        kind, ok = "a finite number", (isinstance(value, numbers.Real)
                                       and abs(value) <= sys.float_info.max)
    if not ok or isinstance(value, bool):
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return value


def _merge_checked(base: dict, override: dict, defaults: dict = DEFAULT_CONFIG,
                   path: str = "") -> None:
    """Merge override into base, each leaf checked by _leaf against its default."""
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must be a mapping")
            _merge_checked(base[key], value, default, path + key + ".")
        else:
            base[key] = _leaf(path + key, value, default)


def _read_mapping(kind: str, path: str) -> dict:
    """The YAML mapping in the file at path; an empty (or other false)
    document is an empty mapping.  An unreadable file, bad YAML or any other
    document is a ConfigError.  A plain 3.8e4 or 1e-3 is a float, as in
    YAML 1.2; PyYAML's YAML 1.1 rules read it as a string."""
    import yaml  # only --config reads YAML; importing it costs every other run

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {kind} {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{kind} file must hold a mapping at top level")
    return doc


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Defaults, then config file, then CLI overrides; unknown keys rejected."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        _merge_checked(config, _read_mapping("config", path))
    if overrides:
        _merge_checked(config, overrides)
    _validate(config)
    noise = config["noise"]
    _build("material", material_from, config)
    _build("decoherence", check_rate, "gamma", config["decoherence"]["gamma_per_ns"])
    _build("noise", check_noise, noise["lambda0"], noise["channel"])
    _build("noise", check_ensemble, noise["seed"], noise["n_traj"])
    return config


def _build(section: str, make, *args):
    """make(*args), with its ValueError as a ConfigError naming the section."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _validate(config: dict) -> None:
    """The checks that neither a parameter object nor an opensys check makes."""
    ctl = config["control"]
    if ctl["tf_ns"] <= 0.0:
        raise ConfigError(f"tf_ns must be positive, got {ctl['tf_ns']}")
    if ctl["samples"] < 2:
        raise ConfigError(f"samples must be >= 2, got {ctl['samples']}")
    if config["integrator"]["steps"] < MIN_GATED_STEPS:
        raise ConfigError(f"integrator steps must be >= {MIN_GATED_STEPS}")
    if config["output"]["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {config['output']['format']!r}")


def material_from(config: dict) -> MaterialParams:
    mat = config["material"]
    ha = mat["hbar_alpha_meV_cm"]
    return MaterialParams(hbar_alpha=ha,
                          hbar_beta=ha * mat["beta_over_alpha"],
                          g=mat["g_factor"],
                          xi_x=mat["xi_x"], xi_y=mat["xi_y"])


def design_from(config: dict) -> TrajectoryDesign:
    return _build("control", TrajectoryDesign.design, config["control"]["tf_ns"],
                  config["control"]["b0_T"], material_from(config))


def _emit(config: dict, args, columns: dict, meta: dict | None = None) -> int:
    """Write the table of columns, {name: values}, with the config echo and
    then meta in its header, to --out or output.path; exit code 0."""
    table = OutputTable.of(columns, {
        "toolkit": f"spinflip {__version__}",
        "config": json.dumps(config, sort_keys=True, separators=(",", ":")),
        "config_sha1": config_hash(config), **(meta or {})})
    path = args.out or config["output"]["path"]
    text = table.render(config["output"]["format"])
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
    return 0


def _check_jobs(args) -> None:
    """Validate --jobs, else SPINFLIP_JOBS.  Both sweep axes run batched, so
    the worker count no longer changes anything; it must still be >= 1."""
    jobs, name = args.jobs, "--jobs"
    if jobs is None:
        env = os.environ.get("SPINFLIP_JOBS")
        if not env:
            return
        name = "SPINFLIP_JOBS"
        try:
            jobs = int(env)
        except ValueError as exc:
            raise ConfigError(f"SPINFLIP_JOBS must be an integer, got {env!r}") from exc
    if jobs < 1:
        raise ConfigError(f"{name} must be >= 1, got {jobs}")


def cmd_design(config: dict, args) -> int:
    design = design_from(config)
    report = detect_singularities(design)
    if not report.realizable:
        try:
            hint = f"{compute_b0_max(design.tf, design.mat, b0_hi=4 * design.b0):.3f} T"
        except ValueError:
            hint = "unknown"
        sys.stderr.write(
            f"error: B0={design.b0} T exceeds the single-singularity limit at "
            f"tf={design.tf} ns; B0_max ~ {hint}\n")
        return EXIT_SINGULARITY
    t, b1, b2, ex, ey = sample_fields(design, config["control"]["samples"], report)
    theta, phi = (poly3(c.coeffs, t) for c in (design.theta, design.phi))
    names = ("t_ns", "theta_rad", "phi_rad", "B1_T", "B2_T", "Ex_V_per_cm", "Ey_V_per_cm")
    return _emit(config, args, {name: col.tolist() for name, col in
                                zip(names, (t, theta, phi, b1, b2, ex, ey))})


def cmd_simulate(config: dict, args) -> int:
    design = design_from(config)
    gamma = config["decoherence"]["gamma_per_ns"]
    lambda0 = config["noise"]["lambda0"]
    channel = config["noise"]["channel"]
    steps = config["integrator"]["steps"]
    psi0 = _build("simulate", initial_state, args.epsilon or 0.0, args.phi0)
    traj = propagate_bloch(design, gamma=gamma, lambda0=lambda0, channel=channel,
                           steps=steps, r0=tuple(spin_to_bloch(psi0)))
    meta = {"summary_F": traj.final_fidelity, "summary_gamma": gamma,
            "summary_lambda0": lambda0,
            "summary_bound_1_minus_2_gamma_tf": perturbative_bound(gamma, design.tf)}
    idx = np.unique(np.round(np.linspace(0, steps, config["control"]["samples"]))
                    .astype(int))
    u, v, w = traj.r[idx].T
    return _emit(config, args, {
        "t_ns": traj.times[idx].tolist(), "u": u.tolist(), "v": v.tolist(),
        "w": w.tolist(), "P_up": ((1.0 + w) / 2.0).tolist(),
        "P_down": ((1.0 - w) / 2.0).tolist()},
        {key: format(value, ".17g") for key, value in meta.items()})


def cmd_b0max(config: dict, args) -> int:
    if not (0.0 < args.tf_min < args.tf_max < math.inf):
        raise ConfigError(
            f"need finite 0 < tf_min < tf_max, got {args.tf_min}, {args.tf_max}")
    if args.points < 2:
        raise ConfigError(f"points must be >= 2, got {args.points}")
    mat = material_from(config)
    # B0_max = K / tf (the design depends on tf and B0 through B0 tf alone):
    # one bisection at tf_min, within tol/2 there and tol/2 tf_min / tf beyond
    try:
        k = compute_b0_max(args.tf_min, mat) * args.tf_min
    except ValueError as exc:
        raise ConfigError(f"B0_max at tf={args.tf_min} ns: {exc}") from exc
    tf = np.linspace(args.tf_min, args.tf_max, args.points)
    return _emit(config, args, {"tf_ns": tf.tolist(), "b0max_T": (k / tf).tolist()})


def _parse_grid(spec: str) -> list[float]:
    """Sweep axis values; gamma and lambda0^2 must be finite and >= 0."""
    spec = spec.strip()
    if not spec:
        return []
    try:
        if ":" in spec:
            lo, hi, n = spec.split(":")
            grid = [float(v) for v in np.linspace(float(lo), float(hi), int(n))]
        else:
            grid = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep grid {spec!r}: {exc}") from exc
    for value in grid:
        if not (np.isfinite(value) and value >= 0.0):
            raise ConfigError(f"sweep grid values must be finite and >= 0, got {value!r}")
    return grid


def cmd_sweep(config: dict, args) -> int:
    _check_jobs(args)
    if args.mc and args.axis != "lambda0_sq":
        raise ConfigError(f"--mc applies to --axis lambda0_sq only, got --axis {args.axis}")
    design = design_from(config)
    steps = config["integrator"]["steps"]
    grid = _parse_grid(args.grid)
    f = se = []
    if grid and args.axis == "gamma":
        f = dephasing_sweep(design, grid, steps).tolist()
    elif grid:
        lambda0s = [float(np.sqrt(value)) for value in grid]
        if args.mc:
            f, se = zip(*ensemble_sweep(design, lambda0s, config["noise"]["seed"],
                                        config["noise"]["n_traj"], steps))
        else:
            f = noise_sweep(design, lambda0s, config["noise"]["channel"], steps).tolist()
    columns = {"axis_value": grid, "F": f}
    if args.mc:
        columns["standard_error"] = se
    return _emit(config, args, columns)


def _load_model(path: str, config: dict) -> FourLevelModel:
    doc = _read_mapping("model", path)
    required = {"e1_meV", "e2_meV", "delta_z_meV", "pbar_x", "pbar_y",
                "mass_meV_ns2_cm2", "drive_b1_T", "drive_b2_T"}
    unknown = set(doc) - required
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing model keys: {sorted(missing)}")

    def real(key: str) -> float:
        return float(_leaf(key, doc[key]))

    def as_complex(key: str) -> complex:
        v = doc[key]  # a finite number, or a [re, im] pair of finite numbers
        if not isinstance(v, list):
            return complex(real(key))
        if len(v) != 2:
            raise ConfigError(f"{key} must be a number or [re, im], got {v!r}")
        return complex(*(float(_leaf(f"{key}[{i}]", x)) for i, x in enumerate(v)))

    try:
        return FourLevelModel(
            e1=real("e1_meV"), e2=real("e2_meV"), delta_z=real("delta_z_meV"),
            pbar_x=as_complex("pbar_x"), pbar_y=as_complex("pbar_y"),
            m=real("mass_meV_ns2_cm2"),
            drive_b1=real("drive_b1_T"), drive_b2=real("drive_b2_T"),
            mat=material_from(config))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_reduce(config: dict, args) -> int:
    model = _load_model(args.model, config)
    h4 = build_full_hamiltonian(model)
    blocks = partition(h4)
    eff = _build("model", lowdin_reduce, blocks, model.e1)
    xi_x, xi_y = xi_factors(model)
    ratio = validity_check(model)
    tf = config["control"]["tf_ns"]
    adiab = orbital_adiabaticity(tf, model.gap)
    eig_eff = _build("model", lowest_eigenvalues, eff, 2)
    eig_full = _build("model", lowest_eigenvalues, h4, 2)
    c_norm = _build("model", coupling_norm, blocks)

    meta = {f"effective_{i}{j}": f"{eff[i, j].real:.17g}+{eff[i, j].imag:.17g}j"
            for i in range(2) for j in range(2)}
    meta.update(xi_x=f"{xi_x:.17g}", xi_y=f"{xi_y:.17g}", validity_ratio=f"{ratio:.17g}",
                validity_ok=str(ratio <= 0.1), hbar_over_tf_gap=f"{adiab:.17g}",
                orbital_adiabatic="yes" if adiab < 0.1 else "no",
                coupling_norm_meV=f"{c_norm:.17g}")
    return _emit(config, args, {
        "index": [0, 1], "eig_effective_meV": eig_eff, "eig_exact_meV": eig_full,
        "abs_error_meV": [abs(a - b) for a, b in zip(eig_eff, eig_full)]}, meta)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="spinflip",
        description="Design and validate electric-field spin-flip pulses "
                    "for spin-orbit coupled quantum dots.")
    parser.add_argument("--version", action="version",
                        version=f"spinflip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML configuration file")
        p.add_argument("--out", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=["csv", "json"], help="table format")
        p.add_argument("--tf", type=float, help="flip time t_f in ns")
        p.add_argument("--b0", type=float, help="static field B0 in T")

    p = sub.add_parser("design", help="emit the designed field and angle table")
    common(p)
    p.add_argument("--samples", type=int, help="number of table rows")

    p = sub.add_parser("simulate", help="propagate the flip and report fidelity")
    common(p)
    p.add_argument("--samples", type=int, help="number of table rows")
    p.add_argument("--gamma", type=float, help="dephasing rate in 1/ns")
    p.add_argument("--lambda0", type=float, help="source-noise strength")
    p.add_argument("--epsilon", type=float, help="initialization error")
    p.add_argument("--phi0", type=float, default=np.pi / 2, help="initialization phase (rad)")
    p.add_argument("--steps", type=int, help="RK4 step count")

    p = sub.add_parser("b0max", help="tabulate the B0 upper limit vs t_f")
    common(p)
    p.add_argument("--tf-min", type=float, required=True)
    p.add_argument("--tf-max", type=float, required=True)
    p.add_argument("--points", type=int, default=10)

    p = sub.add_parser("sweep", help="fidelity curves over gamma or lambda0^2")
    common(p)
    p.add_argument("--axis", choices=["gamma", "lambda0_sq"], required=True)
    p.add_argument("--grid", required=True,
                   help="comma list 'a,b,c' or linspace 'lo:hi:n'")
    p.add_argument("--mc", action="store_true",
                   help="Monte Carlo ensemble instead of the deterministic master "
                        "equation; always the x-only noise operator, whatever "
                        "noise.channel says")
    p.add_argument("--n-traj", type=int, help="ensemble size for --mc")
    p.add_argument("--steps", type=int, help="integrator steps per point")
    p.add_argument("--seed", type=int, help="noise seed")
    p.add_argument("--jobs", type=int,
                   help="accepted for compatibility and checked to be >= 1; both "
                        "axes run as one batched evaluation, so it changes nothing")

    p = sub.add_parser("reduce", help="fold a four-level model to an effective 2x2")
    common(p)
    p.add_argument("--model", required=True, help="YAML four-level model file")
    return parser


def _overrides_from(args) -> dict:
    over: dict = {}

    def put(section, key, value):
        if value is not None:
            over.setdefault(section, {})[key] = value

    put("control", "tf_ns", getattr(args, "tf", None))
    put("control", "b0_T", getattr(args, "b0", None))
    put("control", "samples", getattr(args, "samples", None))
    put("decoherence", "gamma_per_ns", getattr(args, "gamma", None))
    put("noise", "lambda0", getattr(args, "lambda0", None))
    put("noise", "seed", getattr(args, "seed", None))
    put("noise", "n_traj", getattr(args, "n_traj", None))
    put("integrator", "steps", getattr(args, "steps", None))
    put("output", "format", getattr(args, "format", None))
    return over


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"design": cmd_design, "simulate": cmd_simulate,
                "b0max": cmd_b0max, "sweep": cmd_sweep, "reduce": cmd_reduce}
    try:
        config = load_config(args.config, _overrides_from(args))
        return handlers[args.command](config, args)
    except tuple(EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
