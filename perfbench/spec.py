"""The two benchmark workloads, what each command must print, and how its
output is checked against the reference values in ``reference.json``.

Every workload is a fixed list of commands run through the public entry
points: ``spinflip.cli.main(argv)`` in-process with its tables captured,
and, for ``design_validate`` only, the closed-system library calls.  Each
workload also has a ``tiny`` size that exercises the same wiring in well
under a second; the harness self-test and the warm-up pass use it.

Tolerances are the program's own stated accuracy:
  F                 1e-8 absolute (the step-halving gate, GATE_TOL)
  Ex, Ey            1e-4 relative (the stencil's halving tolerance)
  b0max, B0_max hint 1e-3 T (the bisection tolerance)
  reduce eigenvalues 1e-9 meV
  LR phase          1e-6 rad (the quadrature's halving tolerance)
  Monte Carlo F     5 standard errors from the stored x-only
                    master-equation fidelity, so any seed passes but a
                    broken ensemble does not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL = os.path.join(HERE, "data", "model.yaml")
XONLY = os.path.join(HERE, "data", "xonly.yaml")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("sweeps", "design_validate")
MC_SE_MULTIPLE = 5.0
HINT = re.compile(r"B0_max ~ ([0-9.eE+-]+) T")


@dataclass(frozen=True)
class Command:
    key: str
    kind: str                  # how the output is read; see extract()
    argv: tuple = ()           # CLI arguments; empty for the library call
    rc: int = 0                # expected exit code
    steps: int = 10000         # library call: RK4 steps
    nodes: int = 1001          # library call: LR-phase quadrature nodes

    @property
    def uses_pool(self) -> bool:
        """A sweep: its points run on the CLI's worker pool, one per CPU."""
        return self.kind in ("sweep", "mc")


def commands(workload: str, size: str, seed: int) -> list[Command]:
    """The commands of one pass; `size` is "full" or "tiny"."""
    tiny = size == "tiny"
    if workload == "sweeps":
        # The paper's dephasing curve, then its stochastic-trajectory check.
        # They share one workload: apart, the Monte Carlo sweep's passes
        # spread too widely from run to run on a shared host to hold a 25%
        # bound, and the two together leave room in the time budget for
        # longer runs.
        return _sweeps(tiny, seed)
    if workload == "design_validate":
        # The design loop, then one-point validations that keep the whole
        # trajectory.  They share one workload: apart, the design loop's
        # sub-second passes spread too widely from run to run on a shared
        # host to hold a 25% bound.
        return _design_loop(tiny) + _one_point_runs(tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _sweeps(tiny: bool, seed: int) -> list[Command]:
    """Both sweeps with the CLI's default worker count; only the Monte Carlo
    sweep's inputs depend on the seed."""
    grid, steps = ("0:1:3", "1000") if tiny else ("0:1:20", "10000")
    mc_grid, n_traj, mc_steps = (("0.02", "50", "1000") if tiny
                                 else ("0.01,0.02,0.05", "1000", "10000"))
    return [
        Command("gamma_sweep", "sweep",
                ("sweep", "--axis", "gamma", "--grid", grid, "--tf", "1.0",
                 "--b0", "0.15", "--steps", steps)),
        Command("noise_mc", "mc",
                ("sweep", "--axis", "lambda0_sq", "--grid", mc_grid, "--mc",
                 "--seed", str(seed % 2**32), "--n-traj", n_traj,
                 "--steps", mc_steps, "--tf", "1.0", "--b0", "0.15")),
    ]


def _design_loop(tiny: bool) -> list[Command]:
    """Field synthesis, singularity scans, bisection and tables; no propagation."""
    samples = ("--samples", "21" if tiny else "1001")
    return [
        Command("design_reference", "design",
                ("design", "--tf", "1.0", "--b0", "0.15") + samples),
        Command("design_near_limit", "design",
                ("design", "--tf", "1.0", "--b0", "1.05") + samples),
        Command("design_short", "design",
                ("design", "--tf", "0.1", "--b0", "0.15") + samples),
        Command("design_over_limit", "hint",
                ("design", "--tf", "1.0", "--b0", "1.2") + samples, rc=3),
        Command("b0max_curve", "b0max",
                ("b0max", "--tf-min", "0.2", "--tf-max", "2.0",
                 "--points", "2" if tiny else "10")),
        Command("reduce_four_level", "reduce", ("reduce", "--model", MODEL)),
    ]


def _one_point_runs(tiny: bool) -> list[Command]:
    """Each propagator once, keeping the trajectory."""
    size_flags = ("--steps", "1000", "--samples", "11") if tiny else (
        "--steps", "10000", "--samples", "1001")
    return [
        Command("simulate_gamma", "simulate",
                ("simulate", "--gamma", "0.1") + size_flags),
        Command("simulate_as_printed", "simulate",
                ("simulate", "--lambda0", "0.1414") + size_flags),
        Command("simulate_x_only", "simulate",
                ("simulate", "--lambda0", "0.1414", "--config", XONLY) + size_flags),
        Command("simulate_epsilon", "simulate",
                ("simulate", "--epsilon", "0.01", "--phi0", "0") + size_flags),
        Command("closed_system", "library",
                steps=1000 if tiny else 10000, nodes=251 if tiny else 1001),
    ]


# -- running one command ------------------------------------------------------
@dataclass
class Outcome:
    seconds: float
    cpu_seconds: float
    rc: int | None
    stdout: str
    stderr: str
    library: dict | None = None
    error: str | None = None

    def digest(self) -> str:
        payload = f"{self.rc}\0{self.stdout}\0{self.stderr}\0{self.library!r}"
        return hashlib.sha256(payload.encode()).hexdigest()


def _closed_system(steps: int, nodes: int) -> dict:
    import numpy as np
    import spinflip as sf

    design = sf.TrajectoryDesign.design(1.0, 0.15, sf.gaas())
    prop = sf.propagate_schrodinger(design, np.array([1.0, 0.0], dtype=complex), steps)
    phase = sf.lr_phase(sf.InvariantSpec(bc=1.0, design=design), +1, design.tf, nodes)
    return {"F": float(sf.fidelity(prop)), "lr_phase": float(phase),
            "states_sha256": hashlib.sha256(np.ascontiguousarray(prop.states)
                                            .tobytes()).hexdigest()}


def run(cmd: Command, cli) -> Outcome:
    """Run one command; the timed region covers the call and nothing else."""
    out, err = io.StringIO(), io.StringIO()
    rc, library, error = None, None, None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if cmd.kind == "library":
                library = _closed_system(cmd.steps, cmd.nodes)
            else:
                rc = cli.main(list(cmd.argv))
    except Exception as exc:  # a crash is a failed command, not a dead benchmark
        error = f"{type(exc).__name__}: {exc}"
    seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
    return Outcome(seconds, cpu, rc, out.getvalue(), err.getvalue(), library, error)


# -- reading and checking outputs --------------------------------------------
def parse_table(text: str) -> tuple[dict, dict]:
    """CSV table with '# key: value' header lines -> (meta, columns)."""
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition(": ")
            meta[k] = v
        elif line:
            lines.append(line.split(","))
    if not lines:
        raise ValueError("no table in output")
    header, rows = lines[0], lines[1:]
    cols = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
    return meta, cols


def extract(cmd: Command, o: Outcome) -> dict:
    """The checked values of one command's output."""
    if cmd.kind == "library":
        return {"F": o.library["F"], "lr_phase": o.library["lr_phase"]}
    if cmd.kind == "hint":
        m = HINT.search(o.stderr)
        if m is None:
            raise ValueError(f"no B0_max hint in {o.stderr!r}")
        return {"b0max_hint": float(m.group(1))}
    meta, cols = parse_table(o.stdout)
    if cmd.kind == "design":
        return {"Ex": cols["Ex_V_per_cm"], "Ey": cols["Ey_V_per_cm"]}
    if cmd.kind == "b0max":
        return {"tf": cols["tf_ns"], "b0max": cols["b0max_T"]}
    if cmd.kind == "reduce":
        return {"eig_effective": cols["eig_effective_meV"],
                "eig_exact": cols["eig_exact_meV"]}
    if cmd.kind == "simulate":
        return {"F": float(meta["summary_F"]), "rows": len(cols["t_ns"])}
    if cmd.kind == "sweep":
        return {"axis": cols["axis_value"], "F": cols["F"]}
    if cmd.kind == "mc":
        return {"axis": cols["axis_value"], "F": cols["F"], "se": cols["standard_error"]}
    raise ValueError(f"unknown command kind {cmd.kind!r}")


ABS_TOL = {"F": 1e-8, "b0max": 1e-3 + 1e-12, "b0max_hint": 1e-3 + 1e-12, "tf": 1e-12,
           "eig_effective": 1e-9, "eig_exact": 1e-9, "lr_phase": 1e-6, "axis": 1e-12,
           "rows": 0}
REL_TOL = {"Ex": 1e-4, "Ey": 1e-4}


def _as_list(v):
    return v if isinstance(v, list) else [v]


def check(cmd: Command, o: Outcome, ref: dict) -> list[str]:
    """Problems with one command's outcome; empty when it is correct."""
    if o.error is not None:
        return [f"{cmd.key}: raised {o.error}"]
    if cmd.kind != "library" and o.rc != cmd.rc:
        return [f"{cmd.key}: exit code {o.rc}, expected {cmd.rc}: {o.stderr.strip()[:200]}"]
    try:
        got = extract(cmd, o)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{cmd.key}: unreadable output ({type(exc).__name__}: {exc})"]
    problems = []
    if cmd.kind == "mc":
        ref_f = ref["master_F"]
        if got["axis"] != ref["axis"] or len(got["F"]) != len(ref_f):
            return [f"{cmd.key}: grid {got['axis']} differs from {ref['axis']}"]
        for x, f, se, m in zip(got["axis"], got["F"], got["se"], ref_f):
            if not (se > 0.0 and abs(f - m) <= MC_SE_MULTIPLE * se):
                problems.append(f"{cmd.key}: F={f!r} at {x} is not within "
                                f"{MC_SE_MULTIPLE} SE ({se!r}) of the master equation {m!r}")
        return problems
    for name, value in got.items():
        want = ref[name]
        a, b = _as_list(value), _as_list(want)
        if len(a) != len(b):
            problems.append(f"{cmd.key}.{name}: {len(a)} values, expected {len(b)}")
            continue
        if name in REL_TOL:
            floor = 1e-6 * max((abs(v) for v in b), default=0.0)
            bad = [i for i, (x, y) in enumerate(zip(a, b))
                   if not abs(x - y) <= REL_TOL[name] * max(abs(y), floor)]
        else:
            bad = [i for i, (x, y) in enumerate(zip(a, b)) if not abs(x - y) <= ABS_TOL[name]]
        if bad:
            i = bad[0]
            problems.append(f"{cmd.key}.{name}[{i}]: {a[i]!r} vs reference {b[i]!r} "
                            f"({len(bad)} of {len(a)} out of tolerance)")
    return problems
