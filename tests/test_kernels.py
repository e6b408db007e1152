"""The vectorized kernels against independent references.

The field kernel must equal the per-point reference ``oracles.b1_b2_at`` bit
for bit, NaN poisoning included, and the denominator grid and its scalar
form must equal a per-point loop over the same expression.  Each RK4
propagator, and the density matrix run on its Bloch vector, must stay
within 1e-12 of a step-by-step RK4 loop written here
over the reference right-hand sides in ``tests/oracles.py`` and
:func:`spinflip.build_heff`, at step counts below one scan block and across
a block boundary that is not a block multiple; the scan's prefix products
must equal sequential products within 1e-14 relative, the final-only path
must equal the scan's last state within 1e-14, and no RK4 bit may move when
numpy loads another OpenBLAS core, nor may a bit of the design's cubics,
of a design table or of the ``reduce`` table.  The Euler-Maruyama kernel,
its increment bytes handed over in the program's blocks, must stay within
1e-12 of a step-by-step loop over :func:`spinflip.build_heff` and
``oracles.xonly_hprime`` on the +-sqrt(dt) increments decoded from the
same bytes.  Each row of its lock-step noise-strength grid must equal a
one-strength run bit for bit, and so must two blockings of the same bytes
and each trajectory against a run of that trajectory alone.  Every entry of
its byte tables must equal the sequential product of its steps' matrices
within 1e-14 relative.
"""

import ast
import dataclasses
import functools
import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from spinflip import (FieldTriple, IntegratorError, SingularityError, TrajectoryDesign,
                      build_heff, detect_singularities, effective_fields, fields_xyz_at,
                      gaas, propagate_bloch, propagate_constant, propagate_density,
                      propagate_schrodinger)
from spinflip import _kernels as K
from spinflip import cli, lowdin
from spinflip.cli import main
from spinflip.constants import HBAR, MU_B, MaterialParams
from spinflip.invariant import GATE_TOL
from spinflip.opensys import (_em_fidelities, _increment_blocks, dephasing_sweep,
                              ensemble_sweep, noise_sweep)

from oracles import (b1_b2_at, bloch_of, bloch_rhs, fields_xyz, lindblad_step_rhs,
                     noise_bloch_rhs, noise_master_rhs, xonly_hprime)

STEP_COUNTS = (300, 2500)
GAMMA, LAM2 = 0.02, 0.03
TOL = 1e-12


@pytest.fixture(scope="module")
def fields(design):
    """fields_xyz_at, cached: the stage times repeat across the references."""
    cache = {}

    def at(t):
        if t not in cache:
            cache[t] = fields_xyz_at(design, t)
        return cache[t]
    return at


def rk4_reference(rhs, y0, tf, steps, normalize=False):
    """Step-by-step RK4 of y' = rhs(t, y); optionally renormalized per step,
    returning the largest pre-renormalization |norm - 1| as the drift."""
    dt = tf / steps
    y = np.array(y0)
    traj = [y]
    drift = 0.0
    for k in range(steps):
        t = k * dt
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if normalize:
            nrm = np.linalg.norm(y)
            drift = max(drift, abs(nrm - 1.0))
            y = y / nrm
        traj.append(y)
    return np.array(traj), drift


def test_oracles_stay_independent():
    # the references must not be rewritten in terms of the kernels they check
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"numpy", "spinflip.constants", "spinflip.core"}, imported


def test_field_kernels_match(design):
    # endpoints, points inside and on the clamp edges, the guarded root tf/2
    # and a point inside its window, a dense interior grid, and two
    # 2001-point windows at tf/2: one of +- 3e-6 tf across the edges of the
    # guard window, one of +- 1e-7 tf where every point takes the guard branch
    ts = np.concatenate([np.linspace(0.0, 1.0, 4001),
                         [1e-7, 1.0 - 1e-7, 1e-6, 1.0 - 1e-6, 0.5, 0.5 + 1e-9]])
    guarded = 0.5 + np.linspace(-1e-7, 1e-7, 2001)
    windows = np.concatenate([ts, 0.5 + np.linspace(-3e-6, 3e-6, 2001), guarded])
    tc, pc, al, be = design.theta.coeffs, design.phi.coeffs, design.mat.alpha, design.mat.beta
    assert (np.abs(K.denominator_grid(design, guarded)) < K.DEN_GUARD * al).all()
    # the near-limit design, and the over-limit one with windows at its
    # non-cancellable roots, where the NaN positions must match
    over = TrajectoryDesign.design(1.0, 2.0, design.mat)
    roots = detect_singularities(over).times
    xi_both = ((0.0, 0.0), (0.03, -0.02))
    cases = [(design, windows, xi_both),
             (TrajectoryDesign.design(1.0, 1.05, design.mat), windows, xi_both[1:]),
             (over,
              np.concatenate([windows] + [r + np.linspace(-3e-6, 3e-6, 201) for r in roots]),
              xi_both[1:])]
    for case, grid, xis in cases:
        for xi in xis:
            # the cubics do not depend on xi: the same design in a material with it
            d = dataclasses.replace(case, mat=dataclasses.replace(case.mat, xi_x=xi[0],
                                                                  xi_y=xi[1]))
            m = d.mat
            # the reference on Python floats: the same arithmetic, less overhead
            loop = np.array([b1_b2_at(t, d.theta.coeffs, d.phi.coeffs, d.tf, d.b0,
                                      m.alpha, m.beta, m.eta, *xi)
                             for t in grid.tolist()]).T
            assert np.array_equal(K.b1_b2(d, grid), loop, equal_nan=True)
    assert np.isnan(loop).any()
    # the Hamiltonian triple on the grid, against the public map of the
    # one-point drive fields (xi = 0: its factors are exactly 1)
    loop = np.array([fields_xyz(*effective_fields(design, t), design.b0, design.mat)
                     for t in ts])
    assert np.array_equal(np.column_stack(K._xyz(design, ts)), loop)
    # the denominator point by point with math functions, off t = 0 where
    # theta = 0
    inner = ts[ts > 0.0]
    loop = [al * math.cos(K.poly3(tc, t)) / math.sin(K.poly3(tc, t))
            - be * math.sin(K.poly3(pc, t)) for t in inner]
    assert np.array_equal(K.denominator_grid(design, inner), loop)
    assert [K._denominator(float(t), tc, pc, al, be) for t in inner] == loop


def test_field_grids_emit_no_warnings(design):
    with np.errstate(all="raise"):
        K._xyz(design, np.linspace(0.0, 1.0, 1001))


def test_rk4_bloch_matches(design, mat, fields):
    r0 = np.array([0.36, -0.48, 0.8])
    lam = np.sqrt(LAM2)

    def noisy(channel):
        # the x-only noise_bloch_rhs goes through the density double commutator
        def rhs(t, r):
            f = fields(t)
            return (bloch_rhs(r, f, GAMMA, mat)
                    + noise_bloch_rhs(r, f, design.b0, lam, mat, channel)
                    - bloch_rhs(r, f, 0.0, mat))
        return rhs
    for steps in STEP_COUNTS:
        for channel, rhs in ((None, lambda t, r: bloch_rhs(r, fields(t), GAMMA, mat)),
                             ("as-printed", noisy("as-printed")),
                             ("x-only", noisy("x-only"))):
            ref, _ = rk4_reference(rhs, r0, design.tf, steps)
            got, _ = K.rk4_bloch(design, GAMMA, LAM2, channel, r0, steps)
            assert got.shape == (steps + 1, 3)
            assert np.abs(got - ref).max() < TOL, (steps, channel)


def test_rk4_density_matches(design, mat, fields):
    # propagate_density runs rho on its Bloch vector; the references here
    # step rho itself.  None is the default rho0, spin up.
    rho0s = (None, np.array([[0.7, 0.2 - 0.3j], [0.2 + 0.3j, 0.3]]))
    lam = np.sqrt(LAM2)
    lambda0 = np.sqrt(LAM2 / design.tf)
    zero = np.zeros((2, 2))

    def lindblad(t, rho):
        return lindblad_step_rhs(rho, build_heff(fields(t), mat), GAMMA)

    def printed(t, rho):
        # the printed Bloch decay of (u, v, w), lifted to a traceless matrix
        f, r = fields(t), bloch_of(rho)
        du, dv, dw = (noise_bloch_rhs(r, f, design.b0, lam, mat)
                      - bloch_rhs(r, f, 0.0, mat))
        return lindblad(t, rho) + 0.5 * np.array([[dw, du + 1j * dv],
                                                  [du - 1j * dv, -dw]])

    def xonly(t, rho):
        hp = xonly_hprime(fields(t), design.b0, mat)
        return lindblad(t, rho) + noise_master_rhs(rho, zero, hp, lam)

    for steps in STEP_COUNTS:
        for channel, lam0, rhs in (("as-printed", 0.0, lindblad),
                                   ("as-printed", lambda0, printed),
                                   ("x-only", lambda0, xonly)):
            for i, rho0 in enumerate(rho0s):
                start = np.array([1.0, 0.0, 0.0, 0.0]) if rho0 is None else rho0.reshape(4)
                ref, _ = rk4_reference(lambda t, y: rhs(t, y.reshape(2, 2)).reshape(4),
                                       start.astype(complex), design.tf, steps)
                got = propagate_density(design, gamma=GAMMA, lambda0=lam0,
                                        channel=channel, steps=steps, rho0=rho0).rho
                assert got.shape == (steps + 1, 2, 2)
                assert np.abs(got.reshape(-1, 4) - ref).max() < TOL, (steps, channel, i)


@pytest.mark.parametrize("rho0", [
    [[0.9 + 0.1j, 0.3 - 0.2j], [-0.1 + 0.4j, 0.4 - 0.3j]],
    [[0.5, 0.3], [0.1, 0.5]],
    [[0.8, 0.0], [0.0, 0.5]],
    [[1.5, 0.0], [0.0, -0.5]],
    [[np.nan, 0.0], [0.0, 1.0]],
], ids=["trace-1.3-0.2j", "non-hermitian", "trace-1.3", "outside-ball", "nan"])
def test_density_rejects_non_physical_rho0(design, monkeypatch, rho0):
    # each used to be propagated, or to fail only as a non-finite result;
    # a density matrix is Hermitian with unit trace and |r| <= 1
    def kernel(*args):
        raise AssertionError("a kernel ran before the check")
    monkeypatch.setattr(K, "rk4_bloch", kernel)
    with pytest.raises(ValueError):
        propagate_density(design, steps=1000, rho0=np.array(rho0))


def test_rk4_spin_matches(design, mat, fields):
    psi0 = np.array([0.6, 0.8j])
    for steps in STEP_COUNTS:
        ref, ref_drift = rk4_reference(
            lambda t, psi: -1j / HBAR * build_heff(fields(t), mat) @ psi,
            psi0, design.tf, steps, normalize=True)
        got, drift = K.rk4_spin(design, psi0, steps)
        assert np.abs(got - ref).max() < TOL, steps
        assert drift == pytest.approx(ref_drift, abs=TOL)


# steps per scan block: one Bloch run, one spin run, and a batch of 20 strengths
BLOCK_BLOCH, BLOCK_SPIN, BLOCK_BATCH20 = (
    K._block_steps(np.empty(shape, dtype)) for shape, dtype in
    ((3, float), (2, complex), ((3, 20), float)))

# one step, odd counts, a scan block +- 1 for the Bloch and the spin runs,
# the edges of an earlier block rule (1820 Bloch, 1024 spin steps) and
# several blocks
FINAL_STEPS = sorted({1, 3, 7, 1023, 1024, 1025, 1819, 1820, 1821, 5001}
                     | {b + e for b in (BLOCK_BLOCH, BLOCK_SPIN) for e in (-1, 0, 1)})


@pytest.mark.parametrize("d, dtype", [(3, float), (2, complex)], ids=["real3", "complex2"])
@pytest.mark.parametrize("batch", [(), (20,)], ids=["one", "batch20"])
def test_prefix_products_equal_sequential_products(d, dtype, batch):
    # random rotations (orthogonal 3x3, unitary 2x2), as RK4 transfer
    # matrices nearly are; short stacks, odd and even, and a scan block +- 1
    rng = np.random.default_rng(3)
    block = K._block_steps(np.empty((d,) + batch, dtype))
    for n in (1, 2, 3, 4, 5, 8, 9, block - 1, block, block + 1):
        shape = batch + (n, d, d)
        a = rng.normal(size=shape)
        if dtype is complex:
            a = a + 1j * rng.normal(size=shape)
        q = np.linalg.qr(a)[0]
        ref = q.copy()
        for j in range(1, n):
            ref[..., j, :, :] = q[..., j, :, :] @ ref[..., j - 1, :, :]
        stack = np.moveaxis(q, (-2, -1, -3), (0, 1, 2))  # (d, d, n, *batch)
        got = np.moveaxis(K._prefix_products(stack.copy()), (0, 1, 2), (-2, -1, -3))
        err = np.linalg.norm(got - ref, axis=(-2, -1))
        assert (err <= 1e-14 * np.linalg.norm(ref, axis=(-2, -1))).all(), n


def test_rk4_final_equals_scan_last_state(design):
    psi0 = np.array([0.6, 0.8j])
    r0 = np.array([0.3, -0.2, 0.9])
    for steps in FINAL_STEPS:
        scan, _ = K.rk4_spin(design, psi0, steps)
        final, drift = K.rk4_spin(design, psi0, steps, final=True)
        assert final.shape == (2,) and math.isnan(drift)
        assert np.abs(final - scan[-1]).max() < 1e-14, steps
        for channel in (None, "as-printed", "x-only"):
            # no run of the Bloch kernel normalizes, so none measures a drift
            scan, scan_drift = K.rk4_bloch(design, GAMMA, LAM2, channel, r0, steps)
            final, drift = K.rk4_bloch(design, GAMMA, LAM2, channel, r0, steps, final=True)
            assert final.shape == (3,) and math.isnan(scan_drift) and math.isnan(drift)
            assert np.abs(final - scan[-1]).max() < 1e-14, (steps, channel)


@pytest.mark.parametrize("steps", sorted({1, 7, 44, 45, 46, 90, 91, 92, 1821}
                                          | {BLOCK_BATCH20 + e for e in (-1, 0, 1)}))
def test_rk4_bloch_batch_rows_equal_scalar_runs(design, steps):
    # a scan block of 20 strengths +- 1, and the edges of earlier block
    # rules (91 and 45 steps); each row is its own scalar run
    r0 = np.array([0.3, -0.2, 0.9])
    lam2 = np.linspace(0.0, 2.0 * LAM2, 20)
    for channel in (None, "as-printed", "x-only"):
        scan, _ = K.rk4_bloch(design, GAMMA, lam2, channel, r0, steps)
        final, _ = K.rk4_bloch(design, GAMMA, lam2, channel, r0, steps, final=True)
        assert scan.shape == (steps + 1, 20, 3) and final.shape == (20, 3)
        for g in (0, 7, 19):
            one, _ = K.rk4_bloch(design, GAMMA, float(lam2[g]), channel, r0, steps)
            assert np.abs(scan[:, g] - one).max() < 1e-14, (steps, channel, g)
            assert np.abs(final[g] - one[-1]).max() < 1e-14, (steps, channel, g)


def test_schrodinger_gate_uses_final_run(design):
    # the gate's fine run keeps only its final state; the delta it reports
    # is the one against the full scan's last state
    psi0 = np.array([1.0, 0.0], dtype=complex)
    prop = propagate_schrodinger(design, psi0, 10000)
    fine, _ = K.rk4_spin(design, psi0, 20000)
    assert prop.gate_delta <= GATE_TOL
    assert abs(prop.gate_delta - np.abs(prop.states[-1] - fine[-1]).max()) < 1e-14


def test_rk4_spin_const_matches(mat):
    f = FieldTriple(0.01, -0.02, 0.15)
    h = build_heff(f, mat)
    psi0 = np.array([0.6, 0.8j])
    for steps in STEP_COUNTS:
        ref, _ = rk4_reference(lambda t, psi: -1j / HBAR * h @ psi, psi0, 1.0, steps,
                               normalize=True)
        got = propagate_constant(f, mat, psi0, 1.0, steps).states
        assert np.abs(got - ref).max() < TOL, steps


def test_propagate_constant_reports_its_drift(mat):
    # the drift is the kernel's own, and no gate runs
    f = FieldTriple(0.01, -0.02, 0.15)
    h = build_heff(f, mat)
    psi0 = np.array([0.6, 0.8j])
    for steps in STEP_COUNTS:
        _, ref_drift = rk4_reference(lambda t, psi: -1j / HBAR * h @ psi, psi0, 1.0, steps,
                                     normalize=True)
        prop = propagate_constant(f, mat, psi0, 1.0, steps)
        assert prop.max_norm_drift > 0.0
        assert prop.max_norm_drift == pytest.approx(ref_drift, abs=TOL)
        assert math.isnan(prop.gate_delta)


def kernel_digest(tf, b0):
    """sha256 over the scan and final-only runs of rk4_bloch (20 x-only noise
    strengths) and rk4_spin, 2000 steps each, on the GaAs design at (tf, b0)."""
    design = TrajectoryDesign.design(tf, b0, gaas())
    lam2 = np.linspace(0.0, 2.0 * LAM2, 20)
    r0, psi0 = np.array([0.3, -0.2, 0.9]), np.array([0.6, 0.8j])
    h = hashlib.sha256()
    for final in (False, True):
        h.update(K.rk4_bloch(design, GAMMA, lam2, "x-only", r0, 2000,
                             final=final)[0].tobytes())
        h.update(K.rk4_spin(design, psi0, 2000, final=final)[0].tobytes())
    return h.hexdigest()


def under_prescott(code, *argv):
    """stdout of ``python -c code *argv`` with numpy on the Prescott OpenBLAS
    core, and this package and the tests importable."""
    paths = [str(Path(K.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(filter(None, paths + [os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code, *argv],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()


def test_rk4_bits_independent_of_openblas_core(design):
    # the kernels call no BLAS, so forcing another OpenBLAS core cannot move a
    # bit; the child designs again from (tf, b0), travelling as float.hex: the
    # design is closed form and calls no LAPACK either
    values = (design.tf, design.b0)
    code = ("import sys; from test_kernels import kernel_digest; "
            "print(kernel_digest(*map(float.fromhex, sys.argv[1:])))")
    assert under_prescott(code, *map(float.hex, values)) == kernel_digest(*values)


def design_digest():
    """float.hex of the 8 cubic coefficients at tf = 1 and B0 = 0.15, 1.05 and
    2.0 T, then the sha256 of the ``design --b0 1.05`` table."""
    words = [float.hex(float(c)) for b0 in (0.15, 1.05, 2.0)
             for d in [TrajectoryDesign.design(1.0, b0, gaas())]
             for c in (*d.theta.coeffs, *d.phi.coeffs)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["design", "--b0", "1.05"]) == 0
    return " ".join(words + [hashlib.sha256(out.getvalue().encode()).hexdigest()])


def test_design_bits_independent_of_openblas_core():
    # the cubics are closed forms, and the design table calls no LAPACK
    code = "from test_kernels import design_digest; print(design_digest())"
    assert under_prescott(code) == design_digest()


def reduce_digest():
    """sha256 of the ``reduce --model perfbench/data/model.yaml`` table."""
    model = Path(__file__).parents[1] / "perfbench" / "data" / "model.yaml"
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["reduce", "--model", str(model)]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_reduce_bits_independent_of_openblas_core():
    # the fold and its eigenvalues are scalar arithmetic, with no LAPACK or BLAS
    code = "from test_kernels import reduce_digest; print(reduce_digest())"
    assert under_prescott(code) == reduce_digest()


def test_kernels_call_no_blas():
    # one RK4 path, on einsum products: no matrix-product operator or call
    tree = ast.parse(Path(K.__file__).read_text())
    for node in ast.walk(tree):
        assert not isinstance(node, ast.MatMult), ast.dump(node)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            assert name not in ("matmul", "dot", "tensordot"), (node.lineno, name)


@pytest.mark.parametrize("module", [lowdin, cli], ids=["lowdin", "cli"])
def test_reduce_path_calls_no_lapack_or_blas(module):
    # no printing path calls LAPACK or BLAS: the fold and its eigenvalues are
    # scalar arithmetic.  core.commutator and invariance_residual keep their
    # `@` and norm: they are library functions that print no table
    tree = ast.parse(Path(module.__file__).read_text())
    for node in ast.walk(tree):
        assert not isinstance(node, ast.MatMult), (node.lineno, ast.dump(node))
        if isinstance(node, ast.Attribute):
            assert node.attr != "linalg", (node.lineno, ast.dump(node))
        if isinstance(node, ast.ImportFrom):
            assert "linalg" not in (node.module or ""), (node.lineno, node.module)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            assert name not in ("matmul", "dot", "tensordot"), (node.lineno, name)


def test_gated_bloch_memory_does_not_grow_with_steps(design):
    def peak(steps):
        tracemalloc.start()
        try:
            dephasing_sweep(design, [0.1], steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    dephasing_sweep(design, [0.1], 1000)
    grown = peak(40000) - peak(10000)
    # keeping the fine run's trajectory would add 1.4 MiB, a transfer matrix
    # per fine step 4.1 MiB
    assert grown < 1 << 20, grown


def em_reference(design, mat, fields, lam, psi0, dw):
    """Step-by-step Euler-Maruyama of one trajectory per row of dw:
    dpsi = (-i/hbar H - lam^2/(2 hbar^2) H'^2) psi dt - i lam/hbar H' psi dW,
    renormalized after each step.  Returns the (n_traj, steps+1, 2) states."""
    steps = dw.shape[1]
    dt = design.tf / steps
    ops = []
    for k in range(steps):
        f = fields(k * dt)
        hp = xonly_hprime(f, design.b0, mat)
        ops.append((-1j / HBAR * build_heff(f, mat) - lam**2 / (2.0 * HBAR**2) * hp @ hp,
                    -1j * lam / HBAR * hp))
    out = np.empty((dw.shape[0], steps + 1, 2), dtype=complex)
    for i, row in enumerate(dw):
        psi = out[i, 0] = psi0
        for k, (drift, noise) in enumerate(ops):
            psi = psi + drift @ psi * dt + noise @ psi * row[k]
            psi = out[i, k + 1] = psi / np.linalg.norm(psi)
    return out


def byte_rows(seed, n_traj, steps):
    """The program's increment bytes, as one step-major (ceil(steps / 8), n_traj) array."""
    return np.concatenate(list(_increment_blocks(seed, n_traj, steps)))


def increments(rows, steps, dt):
    """The +-sqrt(dt) increments of byte rows, one row per trajectory:
    most significant bit first, bit 1 giving +sqrt(dt)."""
    bits = np.unpackbits(rows.T, axis=1, count=steps)
    return np.where(bits == 1, np.sqrt(dt), -np.sqrt(dt))


def test_em_final_matches(design, mat, fields):
    # a noise-strength grid as one lock-step ensemble on shared increments,
    # in the program's blocks: a partial last byte (1, 7, 9, 300, 8500
    # steps), a narrower last block (300) and the 8192-step chunk edge (8500)
    psi0 = np.array([0.6, 0.8j])
    lams = (0.0, 0.2, 0.45)
    for steps in (1, 7, 9, 300, 8500):
        dw = increments(byte_rows(1, 4, steps), steps, design.tf / steps)
        fid = K.em_final(design, lams, psi0, _increment_blocks(1, 4, steps), steps)
        assert fid.shape == (3, 4)
        for row, lam in zip(fid, lams):
            ref = em_reference(design, mat, fields, lam, psi0, dw)
            assert np.abs(row - np.abs(ref[:, -1, 1])).max() < TOL, (steps, lam)


def test_byte_tables_equal_sequential_products():
    # every entry of every byte row's table, the 256 of a whole byte (9 rows:
    # a batch of len(idx) = 8 rows and one more) and the 2^p of a last byte of
    # p = 1..7 steps, is M_{k-1} ... M_0 of its steps' matrices, MSB first
    rng = np.random.default_rng(5)
    lam = np.array([0.0, 0.7, 2.0])
    # g mu_B / 2 = hbar: the generators' scale pref / hbar is 1
    unit = MaterialParams(hbar_alpha=2e-6, hbar_beta=1e-6, g=2.0 * HBAR / MU_B)
    mats = functools.partial(K._em_matrices, b0=0.15, mat=unit, lam=lam, dt=0.05)
    idx = np.empty((K.BLOCK_BYTES // (256 * 4 * 16), 256), dtype=np.intp)
    tabs = np.empty((2, len(idx), 2, 2, lam.size, 16, 16), dtype=complex)
    for part in range(8):
        steps = 72 + part
        fields = tuple(rng.normal(size=steps) for _ in range(3))
        rows = np.tile(np.arange(256, dtype=np.uint8), (-(-steps // 8), 1))
        got = [(t.copy(), i.copy()) for t, i in K._byte_tables(mats, fields, rows, tabs, idx)]
        assert len(got) == len(rows)
        # (steps, bit, G, 2, 2): each step's matrices alone
        step = mats(*(f[:, None] for f in fields)).transpose(0, 3, 4, 1, 2)
        for j, (table, index) in enumerate(got):
            k = min(8, steps - 8 * j)
            assert table.shape == (2, 2, lam.size, 2 ** k)
            assert np.array_equal(index, np.arange(256) >> (8 - k))
            bits = np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1) & 1
            ref = step[8 * j, bits[:, 0]]
            for s in range(1, k):
                ref = step[8 * j + s, bits[:, s]] @ ref
            ref = ref.transpose(2, 3, 1, 0)
            err = np.abs(table - ref).max(axis=(0, 1))
            assert (err <= 1e-14 * np.abs(ref).max(axis=(0, 1))).all(), (part, j)


def test_em_final_rows_equal_one_strength_runs(design):
    # the lock-step grid and one run per lam, on the same uneven blocks
    psi0 = np.array([0.6, 0.8j])
    lams, steps = (0.0, 0.2, 0.45), 300
    rows = byte_rows(2, 8, steps)
    fid = K.em_final(design, lams, psi0, np.split(rows, (12, 31)), steps)
    for row, lam in zip(fid, lams):
        ref = K.em_final(design, [lam], psi0, np.split(rows, (12, 31)), steps)
        assert np.array_equal(row, ref[0]), lam


def test_em_final_independent_of_blocking(design):
    # the states are renormalized on the global step index, so blocks of 32
    # byte rows and uneven blocks that end on whole bytes give the same bits
    psi0 = np.array([0.6, 0.8j])
    lams, steps = (0.0, 0.2, 0.45), 3000
    rows = byte_rows(3, 8, steps)
    even = K.em_final(design, lams, psi0, np.split(rows, range(32, 375, 32)), steps)
    uneven = K.em_final(design, lams, psi0, np.split(rows, (12, 125, 374)), steps)
    assert np.array_equal(even, uneven)


def test_em_final_trajectory_independent_of_ensemble(design):
    # the arithmetic is elementwise, so a trajectory's result does not
    # depend on its column or on the other trajectories: trajectory 0 of a
    # 64-trajectory ensemble is the one-trajectory run on the same seed, and
    # columns at other positions equal their own runs
    many = _em_fidelities(design, [0.3], 99, 64, 2000)[0]
    one = _em_fidelities(design, [0.3], 99, 1, 2000)[0]
    assert many[0] == one[0]
    psi0, lams, rows = np.array([0.6, 0.8j]), (0.0, 0.2, 0.45), byte_rows(4, 64, 2000)
    fid = K.em_final(design, lams, psi0, [rows], 2000)
    for i in (5, 37, 63):
        alone = K.em_final(design, lams, psi0, [rows[:, i:i + 1]], 2000)
        assert np.array_equal(fid[:, i:i + 1], alone), i


def test_seeded_ensemble_values_pinned(design):
    # values of the byte-table Euler-Maruyama step: elementwise arithmetic,
    # no BLAS call
    res = ensemble_sweep(design, [float(np.sqrt(0.02))], seed=1234, n_traj=32, steps=2000)
    assert res == [(0.9887890036543089, 0.002162214042663886)]
    assert all(type(x) is float for x in res[0])


def test_nan_poisoning_on_noncancellable(design):
    # far outside the admissible B0 range: extra denominator zeros whose
    # numerators stay finite must yield NaN inside the guard window
    from spinflip import TrajectoryDesign, detect_singularities
    bad = TrajectoryDesign.design(1.0, 2.0, design.mat)
    rep = detect_singularities(bad)
    t_bad = [t for t, ok in zip(rep.times, rep.cancellable) if not ok][0]
    b1, b2 = K.b1_b2(bad, np.array([t_bad]))
    assert np.isnan(b1) and np.isnan(b2)


def test_propagate_bloch_rejects_noncancellable_design(design):
    # The design check raises before any propagation, also at the default
    # 10000 steps, where no stage time of this B0 = 2 design lands in a guard
    # window and the divergent fields stay finite.
    bad = TrajectoryDesign.design(1.0, 2.0, design.mat)
    with pytest.raises(SingularityError):
        propagate_bloch(bad)
    # Below that check the kernel still poisons: the step count whose
    # half-step grid j dt/2 passes closest to a non-cancellable root puts a
    # stage time inside its window, and the NaN fields there reach the scan.
    rep = detect_singularities(bad)
    t_bad = [t for t, ok in zip(rep.times, rep.cancellable) if not ok][0]
    steps = min(range(1000, 20001),
                key=lambda n: abs(np.round(2 * t_bad * n) / (2 * n) - t_bad))
    t_stage = np.round(2 * t_bad * steps) / (2 * steps)
    assert np.isnan(K.b1_b2(bad, np.array([t_stage]))[0])
    r, _ = K.rk4_bloch(bad, 0.0, 0.0, None, np.array([0.0, 0.0, 1.0]), steps)
    assert np.isnan(r[-1]).all()


def test_ensemble_nan_check_on_noncancellable_design(design, monkeypatch):
    # With the design check bypassed, a step time k tf / steps inside the
    # guard window of a non-cancellable root gives NaN fields; they must
    # survive the steps between renormalizations and reach the NaN check.
    bad = TrajectoryDesign.design(1.0, 2.0, design.mat)
    rep = detect_singularities(bad)
    t_bad = [t for t, ok in zip(rep.times, rep.cancellable) if not ok][0]
    steps = min(range(1000, 20001), key=lambda n: abs(np.round(t_bad * n) / n - t_bad))
    assert np.isnan(K.b1_b2(bad, np.array([np.round(t_bad * steps) / steps]))[0])
    monkeypatch.setattr("spinflip.opensys.require_cancellable", lambda d: None)
    with pytest.raises(IntegratorError, match="non-finite"):
        ensemble_sweep(bad, [0.1], seed=0, n_traj=4, steps=steps)


@pytest.mark.parametrize("call", [
    lambda d: propagate_density(d, lambda0=0.1, channel="x-only"),
    lambda d: propagate_schrodinger(d, np.array([1.0, 0.0])),
    lambda d: dephasing_sweep(d, [0.0, 0.5]),
    lambda d: ensemble_sweep(d, [0.1, 0.2], seed=0, n_traj=8, steps=2000),
    lambda d: noise_sweep(d, [0.1, 0.2], "x-only", 2000),
], ids=["propagate_density", "propagate_schrodinger",
        "dephasing_sweep", "ensemble_sweep", "noise_sweep"])
def test_propagators_check_design_first(design, call, monkeypatch):
    # at B0 = 2 T the other library propagators, too, raise before any
    # kernel runs
    def refuse(*args, **kwargs):
        raise AssertionError("propagated an over-limit design")
    for name in ("rk4_bloch", "rk4_spin", "em_final"):
        monkeypatch.setattr(K, name, refuse)
    with pytest.raises(SingularityError, match="non-cancellable"):
        call(TrajectoryDesign.design(1.0, 2.0, design.mat))
