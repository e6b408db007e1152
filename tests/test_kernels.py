"""The vectorized kernels against independent references.

The field kernel must equal the per-point reference ``oracles.b1_b2_at`` bit
for bit, NaN poisoning included, and the denominator grid and its scalar
form must equal a per-point loop over the same expression.  Each RK4
propagator, and the density matrix run on its Bloch vector, must stay
within 1e-12 of a step-by-step RK4 loop written here
over the reference right-hand sides in ``tests/oracles.py`` and
:func:`spinflip.build_heff`, at step counts below one scan block and across
a block boundary that is not a block multiple; the final-only path must
equal the scan's last state within 1e-14.  The Euler-Maruyama kernel,
its increments handed over in blocks, must stay within 1e-12 of a
step-by-step loop over :func:`spinflip.build_heff` and
``oracles.xonly_hprime``, each row of its lock-step noise-strength grid
must equal a one-strength run bit for bit, and so must two blockings of the
same increments.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from spinflip import (FieldTriple, IntegratorError, NoiseParams, SingularityError,
                      TrajectoryDesign, build_heff, detect_singularities,
                      effective_fields, ensemble_average, fields_xyz,
                      fields_xyz_at, propagate_bloch,
                      propagate_constant, propagate_density, propagate_schrodinger)
from spinflip import _kernels as K
from spinflip.constants import HBAR, MU_B
from spinflip.invariant import GATE_TOL
from spinflip.opensys import dephasing_sweep, ensemble_sweep, noise_sweep

from oracles import (b1_b2_at, bloch_of, bloch_rhs, lindblad_step_rhs, noise_bloch_rhs,
                     noise_master_rhs, xonly_hprime)

STEP_COUNTS = (300, 2500)
GAMMA, LAM2 = 0.02, 0.03
TOL = 1e-12


@pytest.fixture(scope="module")
def args(design):
    return design.kernel_args()


@pytest.fixture(scope="module")
def pref(mat):
    return 0.5 * mat.g * MU_B


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


def test_field_kernels_match(args, design):
    # endpoints, points inside and on the clamp edges, the guarded root tf/2
    # and a point inside its window, a dense interior grid, and two
    # 2001-point windows at tf/2: one of +- 3e-6 tf across the edges of the
    # guard window, one of +- 1e-7 tf where every point takes the guard branch
    ts = np.concatenate([np.linspace(0.0, 1.0, 4001),
                         [1e-7, 1.0 - 1e-7, 1e-6, 1.0 - 1e-6, 0.5, 0.5 + 1e-9]])
    guarded = 0.5 + np.linspace(-1e-7, 1e-7, 2001)
    windows = np.concatenate([ts, 0.5 + np.linspace(-3e-6, 3e-6, 2001), guarded])
    tc, pc, _, _, al, be, _ = args
    assert (np.abs(K.denominator_grid(guarded, tc, pc, al, be)) < K.DEN_GUARD * al).all()
    # the near-limit design, and the over-limit one with windows at its
    # non-cancellable roots, where the NaN positions must match
    over = TrajectoryDesign.design(1.0, 2.0, design.mat)
    roots = detect_singularities(over).times
    xi_both = ((0.0, 0.0), (0.03, -0.02))
    cases = [(args, windows, xi_both),
             (TrajectoryDesign.design(1.0, 1.05, design.mat).kernel_args(), windows, xi_both[1:]),
             (over.kernel_args(),
              np.concatenate([windows] + [r + np.linspace(-3e-6, 3e-6, 201) for r in roots]),
              xi_both[1:])]
    for (ctc, cpc, *rest), grid, xis in cases:
        for xi in xis:
            # the reference on Python floats: the same arithmetic, less overhead
            loop = np.array([b1_b2_at(t, ctc.tolist(), cpc.tolist(), *rest, *xi)
                             for t in grid.tolist()]).T
            assert np.array_equal(K.b1_b2(grid, ctc, cpc, *rest, *xi), loop, equal_nan=True)
    assert np.isnan(loop).any()
    # the Hamiltonian triple on the grid, against the public map of the
    # one-point drive fields (xi = 0: its factors are exactly 1)
    loop = np.array([fields_xyz(*effective_fields(design, t), design.b0, design.mat)
                     for t in ts])
    assert np.array_equal(np.column_stack(K._xyz(ts, *args)), loop)
    # the denominator point by point with math functions, off t = 0 where
    # theta = 0
    inner = ts[ts > 0.0]
    loop = [al * math.cos(K.poly3(tc, t)) / math.sin(K.poly3(tc, t))
            - be * math.sin(K.poly3(pc, t)) for t in inner]
    assert np.array_equal(K.denominator_grid(inner, tc, pc, al, be), loop)
    assert [K._denominator(float(t), tc, pc, al, be) for t in inner] == loop


def test_field_grids_emit_no_warnings(args):
    with np.errstate(all="raise"):
        K._xyz(np.linspace(0.0, 1.0, 1001), *args)


def test_rk4_bloch_matches(args, design, mat, fields):
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
            got = K.rk4_bloch(*args, GAMMA, LAM2, channel, r0, steps)
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


def test_rk4_spin_matches(args, design, mat, pref, fields):
    psi0 = np.array([0.6, 0.8j])
    for steps in STEP_COUNTS:
        ref, ref_drift = rk4_reference(
            lambda t, psi: -1j / HBAR * build_heff(fields(t), mat) @ psi,
            psi0, design.tf, steps, normalize=True)
        got, drift = K.rk4_spin(*args, pref, HBAR, psi0, steps)
        assert np.abs(got - ref).max() < TOL, steps
        assert drift == pytest.approx(ref_drift, abs=TOL)


# one step, odd counts, a scan block +- 1 (1820 Bloch, 1024 spin steps) and
# several blocks
FINAL_STEPS = (1, 3, 7, 1023, 1024, 1025, 1819, 1820, 1821, 5001)


def test_rk4_final_equals_scan_last_state(args, pref):
    assert K.BLOCK_BYTES // 8 // 9 == 1820 and K.BLOCK_BYTES // 8 // 16 == 1024
    psi0 = np.array([0.6, 0.8j])
    r0 = np.array([0.3, -0.2, 0.9])
    for steps in FINAL_STEPS:
        scan, _ = K.rk4_spin(*args, pref, HBAR, psi0, steps)
        final, drift = K.rk4_spin(*args, pref, HBAR, psi0, steps, final=True)
        assert final.shape == (2,) and math.isnan(drift)
        assert np.abs(final - scan[-1]).max() < 1e-14, steps
        for channel in (None, "as-printed", "x-only"):
            scan = K.rk4_bloch(*args, GAMMA, LAM2, channel, r0, steps)
            final = K.rk4_bloch(*args, GAMMA, LAM2, channel, r0, steps, final=True)
            assert final.shape == (3,)
            assert np.abs(final - scan[-1]).max() < 1e-14, (steps, channel)


@pytest.mark.parametrize("steps", [1, 7, 90, 91, 92, 1821])
def test_rk4_bloch_batch_rows_equal_scalar_runs(args, steps):
    # 20 strengths make a block of 91 steps; each row is its own scalar run
    assert K.BLOCK_BYTES // (8 * 20 * 9) == 91
    r0 = np.array([0.3, -0.2, 0.9])
    lam2 = np.linspace(0.0, 2.0 * LAM2, 20)
    for channel in (None, "as-printed", "x-only"):
        scan = K.rk4_bloch(*args, GAMMA, lam2, channel, r0, steps)
        final = K.rk4_bloch(*args, GAMMA, lam2, channel, r0, steps, final=True)
        assert scan.shape == (steps + 1, 20, 3) and final.shape == (20, 3)
        for g in (0, 7, 19):
            one = K.rk4_bloch(*args, GAMMA, float(lam2[g]), channel, r0, steps)
            assert np.abs(scan[:, g] - one).max() < 1e-14, (steps, channel, g)
            assert np.abs(final[g] - one[-1]).max() < 1e-14, (steps, channel, g)


def test_schrodinger_gate_uses_final_run(design, args, pref):
    # the gate's fine run keeps only its final state; the delta it reports
    # is the one against the full scan's last state
    psi0 = np.array([1.0, 0.0], dtype=complex)
    prop = propagate_schrodinger(design, psi0, 10000)
    fine, _ = K.rk4_spin(*args, pref, HBAR, psi0, 20000)
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


def test_em_final_matches(args, design, mat, pref, fields):
    # a noise-strength grid as one lock-step ensemble on shared increments
    psi0 = np.array([0.6, 0.8j])
    lams, steps = (0.0, 0.2, 0.45), 300
    dw = np.random.default_rng(1).normal(0.0, np.sqrt(design.tf / steps), (8, steps))
    fid = K.em_final(*args, pref, HBAR, lams, psi0, np.split(dw.T, (128, 256), axis=0),
                     steps)
    assert fid.shape == (3, 8)
    for row, lam in zip(fid, lams):
        ref = em_reference(design, mat, fields, lam, psi0, dw)
        assert np.abs(row - np.abs(ref[:, -1, 1])).max() < TOL, lam


def test_em_final_rows_equal_one_strength_runs(args, design, pref):
    # the lock-step grid and one run per lam, on the same uneven blocks
    psi0 = np.array([0.6, 0.8j])
    lams, steps = (0.0, 0.2, 0.45), 300
    dw = np.random.default_rng(2).normal(0.0, np.sqrt(design.tf / steps), (8, steps))
    fid = K.em_final(*args, pref, HBAR, lams, psi0, np.split(dw.T, (100, 250), axis=0),
                     steps)
    for row, lam in zip(fid, lams):
        ref = K.em_final(*args, pref, HBAR, [lam], psi0,
                         np.split(dw.T, (100, 250), axis=0), steps)
        assert np.array_equal(row, ref[0]), lam


def test_em_final_independent_of_blocking(args, design, pref):
    # the states are renormalized on the global step index, so blocks of 256
    # and uneven blocks give the same bits
    psi0 = np.array([0.6, 0.8j])
    lams, steps = (0.0, 0.2, 0.45), 3000
    dw = np.random.default_rng(3).normal(0.0, np.sqrt(design.tf / steps), (8, steps))
    even = K.em_final(*args, pref, HBAR, lams, psi0,
                      np.split(dw.T, range(256, steps, 256), axis=0), steps)
    uneven = K.em_final(*args, pref, HBAR, lams, psi0,
                        np.split(dw.T, (100, 1000, 2999), axis=0), steps)
    assert np.array_equal(even, uneven)


def test_seeded_ensemble_values_pinned(design):
    # values of the real [D | S] Euler-Maruyama step; they hold for the BLAS
    # kernel that does its batched matmul, as the RK4 scan's results do
    res = ensemble_average(design, NoiseParams(lambda0=float(np.sqrt(0.02)),
                                               channel="x-only", seed=1234, n_traj=32),
                           steps=2000)
    assert res.fidelity_mean == 0.9887136790268388
    assert res.fidelity_se == 0.002192028467659601


def test_nan_poisoning_on_noncancellable(design):
    # far outside the admissible B0 range: extra denominator zeros whose
    # numerators stay finite must yield NaN inside the guard window
    from spinflip import TrajectoryDesign, detect_singularities
    bad = TrajectoryDesign.design(1.0, 2.0, design.mat)
    rep = detect_singularities(bad)
    t_bad = [t for t, ok in zip(rep.times, rep.cancellable) if not ok][0]
    m = bad.mat
    b1, b2 = K.b1_b2(np.array([t_bad]), bad.theta.coeff_array(), bad.phi.coeff_array(),
                     bad.tf, bad.b0, m.alpha, m.beta, m.eta, 0.0, 0.0)
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
    assert np.isnan(K.b1_b2(np.array([t_stage]), *bad.kernel_args(), 0.0, 0.0)[0])
    r = K.rk4_bloch(*bad.kernel_args(), 0.0, 0.0, None, np.array([0.0, 0.0, 1.0]), steps)
    assert np.isnan(r[-1]).all()


def test_ensemble_nan_check_on_noncancellable_design(design, monkeypatch):
    # With the design check bypassed, a step time k tf / steps inside the
    # guard window of a non-cancellable root gives NaN fields; they must
    # survive the steps between renormalizations and reach the NaN check.
    bad = TrajectoryDesign.design(1.0, 2.0, design.mat)
    rep = detect_singularities(bad)
    t_bad = [t for t, ok in zip(rep.times, rep.cancellable) if not ok][0]
    steps = min(range(1000, 20001), key=lambda n: abs(np.round(t_bad * n) / n - t_bad))
    assert np.isnan(K.b1_b2(np.array([np.round(t_bad * steps) / steps]), *bad.kernel_args(),
                            0.0, 0.0)[0])
    monkeypatch.setattr("spinflip.opensys.require_cancellable", lambda d: None)
    with pytest.raises(IntegratorError, match="non-finite"):
        ensemble_average(bad, NoiseParams(0.1, "x-only", seed=0, n_traj=4), steps)


@pytest.mark.parametrize("call", [
    lambda d: propagate_density(d, lambda0=0.1, channel="x-only"),
    lambda d: ensemble_average(d, NoiseParams(lambda0=0.1, channel="x-only", n_traj=8),
                               steps=2000),
    lambda d: propagate_schrodinger(d, np.array([1.0, 0.0])),
    lambda d: dephasing_sweep(d, [0.0, 0.5]),
    lambda d: ensemble_sweep(d, [0.1, 0.2], seed=0, n_traj=8, steps=2000),
    lambda d: noise_sweep(d, [0.1, 0.2], "x-only", 2000),
], ids=["propagate_density", "ensemble_average", "propagate_schrodinger",
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
