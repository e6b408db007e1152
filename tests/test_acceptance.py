"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria with a runtime limit time themselves with time.perf_counter and
assert the limit on every run.

Criterion 7b compares the t_f = 1 ns and t_f = 0.1 ns source-noise curves
at equal lambda0^2 against an independent first-order oracle,
d(1-F)/d(lambda0^2) at 0 = (t_f eta^2 / 8) int_0^t_f r0^T D r0 dt on the
noiseless design path (``noise_slope_first_order``).  Under the documented
model (lam = lambda0 sqrt(t_f), Z' = Z - B0, printed decay
diag(Y^2+Z'^2, X^2+Z'^2, X^2+Y^2)) the oracle slopes are 1.673102 (1 ns)
vs 1.709966 (0.1 ns) as printed and 0.767210 vs 1.537897 for x-only, so the
1 ns curve lies above the 0.1 ns curve in both channels.  The abstract
alone does not say whether the paper's figure used this same model; the
test pins the ordering the documented model gives.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from spinflip import (InvariantSpec, TrajectoryDesign,
                      build_heff, chi_eigenstates, commutator, compute_b0_max,
                      detect_singularities, effective_fields, ensemble_sweep,
                      fidelity, fields_xyz_at, invariance_residual,
                      invariant_matrix, lr_phase, perturbed_initial_evolution,
                      propagate_bloch, propagate_density, propagate_master,
                      propagate_schrodinger, zeeman_splitting)
from spinflip.cli import main as cli_main
from spinflip.constants import K_B, MU_B
from spinflip.fields import CANCEL_REL_TOL, cancellation_scale
from spinflip.opensys import CHANNELS
from spinflip.trajectory import eval_angles

UP = np.array([1.0, 0.0], dtype=complex)


def report(num, text, elapsed=None):
    stamp = f" [{elapsed:.3f} s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num}: PASS - {text}{stamp}")


def noise_slope_first_order(design, channel):
    """First-order oracle for a source-noise curve: d(1-F)/d(lambda0^2) at 0.

    To first order in lam^2 = lambda0^2 t_f the decay -(lam^2 eta^2 / 2) D
    acts on the noiseless path r0(t) = (sin th cos ph, sin th sin ph, cos th),
    and the rotation carries its effect onto r0(t_f) = (0, 0, -1); with
    F = sqrt((1 - w) / 2) this gives

        d(1-F)/d(lambda0^2) = (t_f eta^2 / 8) int_0^t_f r0^T D r0 dt,

    r0^T D r0 = r0^T diag(Y^2+Z'^2, X^2+Z'^2, X^2+Y^2) r0 as printed, and
    |a x r0|^2 with a = (0, Y, Z') for x-only, Z' = Z - B0.  Built from
    eval_angles and fields_xyz_at alone (test_03 checks both), so it shares
    neither the RK4 kernels nor the decay kernels with the program.
    Composite Simpson on 401 nodes, converged to 7 digits.
    """
    nodes = 401
    ts = np.linspace(0.0, design.tf, nodes)
    integrand = np.empty(nodes)
    for i, t in enumerate(ts):
        th, ph, _, _ = eval_angles(design, float(t))
        r0 = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                       np.cos(th)])
        x, y, z = fields_xyz_at(design, float(t))
        zp = z - design.b0
        if channel == "as-printed":
            integrand[i] = np.dot([y * y + zp * zp, x * x + zp * zp,
                                   x * x + y * y], r0 * r0)
        else:
            integrand[i] = np.sum(np.cross([0.0, y, zp], r0) ** 2)
    weights = np.ones(nodes)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    integral = (ts[1] - ts[0]) / 3.0 * np.dot(weights, integrand)
    return design.tf * design.mat.eta ** 2 / 8.0 * integral


def noise_fidelity(design, lambda0_sq, channel):
    """Program fidelity on a source-noise channel: the Bloch form for the
    printed decay, the density form for the x-only dissipator."""
    lam0 = float(np.sqrt(lambda0_sq))
    if channel == "as-printed":
        return propagate_bloch(design, lambda0=lam0, steps=10000).final_fidelity
    return propagate_density(design, lambda0=lam0, channel=channel,
                             steps=10000).final_fidelity


def test_01_zeeman_cross_check():
    t0 = time.perf_counter()
    dz = zeeman_splitting(-0.44, 0.075)
    elapsed = time.perf_counter() - t0
    mk = abs(dz) / K_B * 1e3
    assert mk == pytest.approx(22.2, abs=0.05)
    assert abs(mk - 23.0) / 23.0 < 0.05
    assert elapsed < 1e-3
    report(1, f"|Delta_z|/k_B = {mk:.1f} mK, within 5% of the quoted 23 mK",
           elapsed)


def test_02_unitary_flip_fidelity(design):
    t0 = time.perf_counter()
    prop = propagate_schrodinger(design, UP, 10000)
    f = fidelity(prop)
    p_up = np.abs(prop.states[:, 0]) ** 2
    worst = max(abs(p_up[i] - np.cos(design.theta(float(prop.times[i])) / 2) ** 2)
                for i in range(0, 10001, 10))
    elapsed = time.perf_counter() - t0
    assert f >= 1.0 - 1e-6
    assert worst < 1e-5
    assert elapsed < 1.0
    report(2, f"F = {f:.9f} >= 1-1e-6; max |P_up - cos^2(theta/2)| = {worst:.2e}",
           elapsed)


def test_03_self_consistency_oracle(design):
    t0 = time.perf_counter()
    m = design.mat
    worst = 0.0
    for t in np.linspace(0.0, design.tf, 1001)[1:-1]:
        if abs(t - design.tf / 2) < 1e-5 * design.tf:
            continue
        th, ph, _, _ = eval_angles(design, t)
        x, y, z = fields_xyz_at(design, t)
        thd = m.eta * (x * np.sin(ph) - y * np.cos(ph))
        cot = np.cos(th) / np.sin(th)
        phd = m.eta * (x * np.cos(ph) * cot + y * np.sin(ph) * cot - z)
        worst = max(worst,
                    abs(thd - design.theta.deriv(t)) / max(abs(design.theta.deriv(t)), 1e-9),
                    abs(phd - design.phi.deriv(t)) / max(abs(design.phi.deriv(t)), 1e-9))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 1.0
    report(3, f"auxiliary equations reproduced, max rel err = {worst:.2e}", elapsed)


def test_04_singularity_handling(mat):
    for b0 in (0.15, 1.05):
        design = TrajectoryDesign.design(1.0, b0, mat)
        rep = detect_singularities(design)
        assert len(rep.times) == 1
        assert rep.times[0] == pytest.approx(0.5, abs=1e-9)
        assert rep.numerator_residuals[0] < CANCEL_REL_TOL * cancellation_scale(
            design, rep.times[0])
        # limits from each side, Richardson-extrapolated offset -> 0 (the
        # raw +-1e-6 samples carry a 2*delta*|B'/B| slope term that exceeds
        # 1e-4 for the locally steep near-limit design)
        off = 1e-6
        left = [2 * a - b for a, b in zip(effective_fields(design, 0.5 - off / 2),
                                          effective_fields(design, 0.5 - off))]
        right = [2 * a - b for a, b in zip(effective_fields(design, 0.5 + off / 2),
                                           effective_fields(design, 0.5 + off))]
        for l, r in zip(left, right):
            assert abs(l - r) / abs(l) < 1e-4
    # the low-field design also passes the plain two-sided probe
    base = TrajectoryDesign.design(1.0, 0.15, mat)
    for l, r in zip(effective_fields(base, 0.5 - 1e-6),
                    effective_fields(base, 0.5 + 1e-6)):
        assert abs(l - r) / abs(l) < 1e-4
    report(4, "single cancellable root at tf/2 for B0 = 0.15 and 1.05 T; "
              "two-sided limits agree to 1e-4")


def test_05_b0max_curve(mat):
    t0 = time.perf_counter()
    b0max_1ns = compute_b0_max(1.0, mat, b0_hi=5.0)
    curve = [compute_b0_max(float(tf), mat, b0_hi=40.0)
             for tf in np.linspace(0.2, 2.0, 10)]
    elapsed = time.perf_counter() - t0
    assert b0max_1ns > 1.05
    assert all(a > b for a, b in zip(curve, curve[1:]))
    assert elapsed < 30.0
    report(5, f"B0_max(1 ns) = {b0max_1ns:.4f} T > 1.05 T; "
              f"curve decreases {curve[0]:.2f} -> {curve[-1]:.2f} T over [0.2, 2] ns",
           elapsed)


def test_06_dephasing_fidelity(mat, design, design_short):
    t0 = time.perf_counter()
    # two-sided proximity to 1 - 2 gamma tf, sampled inside the stated
    # domain gamma tf <= 0.05; beyond gamma tf ~ 0.01 the amplitude
    # fidelity F = sqrt((1+e^{-4 gamma tf})/2) sits more than 1e-2 above
    # the linear bound, so the sample is taken at 5e-3
    for d in (design_short, design):
        gamma = 0.005 / d.tf
        f = propagate_master(d, gamma, 10000)
        assert abs(f - (1.0 - 2.0 * gamma * d.tf)) <= 1e-2
    # one-sided paper bound across the domain
    for d in (design_short, design):
        for gtf in (0.01, 0.02, 0.05):
            f = propagate_master(d, gtf / d.tf, 10000)
            assert f >= 1.0 - 2.0 * gtf - 1e-3
    # monotone non-increasing, short design above long, on a 20-point grid
    gammas = np.linspace(0.05, 1.0, 20)
    f_long = [propagate_master(design, float(g), 4000) for g in gammas]
    f_short = [propagate_master(design_short, float(g), 4000) for g in gammas]
    elapsed = time.perf_counter() - t0
    assert all(np.diff(f_long) <= 0) and all(np.diff(f_short) <= 0)
    assert all(s > l for s, l in zip(f_short, f_long))
    assert elapsed < 10.0
    report(6, "F tracks 1-2*gamma*tf at gamma*tf = 5e-3, bound holds to "
              "gamma*tf = 0.05, curves ordered F(0.1 ns) > F(1 ns)", elapsed)


def test_07a_noise_fidelity_decreasing(design, design_short):
    grid = [0.0, 0.01, 0.02, 0.05]
    for d in (design, design_short):
        fs = [propagate_bloch(d, lambda0=float(np.sqrt(l2)), steps=10000).final_fidelity
              for l2 in grid]
        assert all(np.diff(fs) < 0)
    report("7a", "as-printed F decreases in lambda0^2 for both designs")


def test_07b_noise_curve_ordering(design, design_short):
    """The t_f = 1 ns and 0.1 ns noise curves, ordered as the oracle says.

    In each channel the program's slope at lambda0^2 = 1e-6 must match
    ``noise_slope_first_order`` to 1e-4 relative (measured agreement: below
    3e-6), the two oracle slopes must be resolved at that tolerance, and on
    the grid the curve with the smaller slope must lie above the other:
    sign(F_long - F_short) == sign(s_short - s_long).  The documented model
    gives the 1 ns curve above the 0.1 ns curve in both channels
    (F_long = 0.983697 vs F_short = 0.983340 at lambda0^2 = 0.01 as printed).
    The abstract does not settle whether the paper's own figure used this
    model; a different model would change the program and this oracle
    together, not loosen the comparison.
    """
    grid = [0.01, 0.02, 0.05]
    probe, rel_tol = 1e-6, 1e-4
    summary = []
    for channel in CHANNELS:
        s_long = noise_slope_first_order(design, channel)
        s_short = noise_slope_first_order(design_short, channel)
        for d, s in ((design, s_long), (design_short, s_short)):
            got = (1.0 - noise_fidelity(d, probe, channel)) / probe
            assert got == pytest.approx(s, rel=rel_tol), (
                f"{channel}, t_f = {d.tf}: program slope {got:.7f} vs "
                f"first-order oracle {s:.7f}")
        # a gap above twice the tolerance keeps the program's slopes in the
        # oracle's order
        assert abs(s_short - s_long) > 2 * rel_tol * max(s_long, s_short)
        f_long = [noise_fidelity(design, l2, channel) for l2 in grid]
        f_short = [noise_fidelity(design_short, l2, channel) for l2 in grid]
        want = np.sign(s_short - s_long)
        assert all(np.sign(l - s) == want for l, s in zip(f_long, f_short)), (
            f"{channel}: oracle slopes {s_long:.6f} (1 ns) vs {s_short:.6f} "
            f"(0.1 ns) but F_long={f_long}, F_short={f_short}")
        above, below = ("1 ns", "0.1 ns") if want > 0 else ("0.1 ns", "1 ns")
        summary.append(f"{channel}: t_f = {above} curve above {below}, "
                       f"slopes {s_long:.6f} (1 ns) vs {s_short:.6f} (0.1 ns)")
    report("7b", "; ".join(summary))


def test_07c_monte_carlo_vs_master(design):
    t0 = time.perf_counter()
    lam0 = float(np.sqrt(0.02))
    (f, se), = ensemble_sweep(design, [lam0], seed=1234, n_traj=1000, steps=10000)
    master = propagate_density(design, lambda0=lam0, channel="x-only",
                               steps=10000).final_fidelity
    elapsed = time.perf_counter() - t0
    assert abs(f - master) < 3 * se
    assert elapsed < 120.0
    report("7c", f"MC (n=1000) F = {f:.5f} +- {se:.5f} "
                 f"vs master {master:.5f}: within 3 SE", elapsed)


def check_density_set(traj):
    tr = traj.rho[:, 0, 0] + traj.rho[:, 1, 1]
    assert np.abs(tr - 1.0).max() < 1e-9
    eigmin = min(np.linalg.eigvalsh(traj.rho[i]).min()
                 for i in range(0, traj.rho.shape[0], 50))
    assert eigmin > -1e-9
    purity = np.einsum("nij,nji->n", traj.rho, traj.rho).real
    assert np.diff(purity).max() < 1e-9


def test_08_open_system_sanity(design):
    lam0 = float(np.sqrt(0.02))
    dn_gamma = propagate_density(design, gamma=0.05, steps=10000)
    dn_printed = propagate_density(design, lambda0=lam0, channel="as-printed",
                                   steps=10000)
    dn_xonly = propagate_density(design, lambda0=lam0, channel="x-only",
                                 steps=10000)
    for traj in (dn_gamma, dn_printed, dn_xonly):
        check_density_set(traj)
    bl_gamma = propagate_bloch(design, gamma=0.05, steps=10000)
    bl_printed = propagate_bloch(design, lambda0=lam0, steps=10000)
    assert np.abs(dn_gamma.bloch() - bl_gamma.r).max() < 1e-8
    assert np.abs(dn_printed.bloch() - bl_printed.r).max() < 1e-8
    report(8, "trace, positivity, purity monotonicity and 1e-8 cross-form "
              "agreement hold on the propagation set")


def test_09_invariant_suite(design):
    spec = InvariantSpec(bc=1.0, design=design)
    gap = abs(design.mat.g) * MU_B * spec.bc
    for t in np.linspace(0.0, 1.0, 101):
        ev = np.linalg.eigvalsh(invariant_matrix(spec, float(t)))
        assert abs((ev[1] - ev[0]) - gap) < 1e-12 * gap
        th, ph, thd, phd = eval_angles(design, float(t))
        x, y, z = fields_xyz_at(design, float(t))
        scale = (np.linalg.norm(invariant_matrix(spec, float(t)))
                 * max(abs(thd), abs(phd),
                       abs(design.mat.eta) * (abs(x) + abs(y) + abs(z))))
        assert invariance_residual(spec, float(t)) < 1e-8 * scale
    for t in (0.0, 1.0):
        h = build_heff(fields_xyz_at(design, t), design.mat)
        i_mat = invariant_matrix(spec, t)
        assert (np.linalg.norm(commutator(h, i_mat))
                < 1e-10 * np.linalg.norm(h) * np.linalg.norm(i_mat))
    th0, ph0, _, _ = eval_angles(design, 0.0)
    chi0, _ = chi_eigenstates(th0, ph0)
    prop = propagate_schrodinger(design, chi0, 10000)
    mags = []
    for idx in range(0, 10001, 100):
        th, ph, _, _ = eval_angles(design, float(prop.times[idx]))
        chi_t, _ = chi_eigenstates(th, ph)
        mags.append(abs(np.vdot(chi_t, prop.states[idx])))
    assert max(mags) - min(mags) < 1e-6
    phases = [lr_phase(InvariantSpec(bc=bc, design=design), +1, 0.75)
              for bc in (0.5, 1.0, 2.0)]
    assert phases[0] == phases[1] == phases[2]
    report(9, "invariant eigenvalues constant to 1e-12, endpoint commutators "
              "< 1e-10, residual < 1e-8, |<chi+|psi>| constant to 1e-6, "
              "B_c-independent")


def test_10_initialization_robustness(design):
    evo0 = perturbed_initial_evolution(design, 0.0, np.pi / 2, 10000)
    worst = max(abs(evo0.cos_theta[i] - np.cos(design.theta(float(evo0.times[i]))))
                for i in range(0, 10001, 20))
    assert worst < 1e-5
    eps = 0.01
    evo_a = perturbed_initial_evolution(design, eps, np.pi / 2, 10000)
    evo_b = perturbed_initial_evolution(design, eps, np.pi / 4, 10000)
    spread = abs(evo_a.cos_theta[-1] - evo_b.cos_theta[-1])
    assert spread < 1e-2
    for evo in (evo_a, evo_b):
        assert eps <= abs(evo.cos_theta[-1] + 1.0) <= 3 * eps
    report(10, f"eps=0 tracks the design to {worst:.1e}; final cos(theta) "
               f"phase spread {spread:.1e} < 1e-2 with O(eps) flip degradation")


def test_11_lowdin_suite(mat):
    from spinflip import (build_full_hamiltonian, lowdin_reduce, partition,
                          xi_factors)
    from spinflip.lowdin import FourLevelModel

    def model(px, py=0j, b1=0.0):
        return FourLevelModel(e1=0.0, e2=1.0, delta_z=0.05, pbar_x=px,
                              pbar_y=py, m=3.8e4, drive_b1=b1, drive_b2=0.0,
                              mat=mat)

    # exactness at C = 0
    p0 = partition(build_full_hamiltonian(model(0j, b1=0.04)))
    assert np.array_equal(lowdin_reduce(p0, 0.0), p0.q)
    # quadratic error scaling against full diagonalization
    scales = np.array([1e-3, 1e-2, 1e-1])
    errs = []
    for s in scales:
        px = 1j * 0.8 * s / np.sqrt(mat.alpha**2 + mat.beta**2)
        py = 1j * 0.4 * s / np.sqrt(mat.alpha**2 + mat.beta**2)
        h4 = build_full_hamiltonian(model(px, py))
        got = np.linalg.eigvalsh(lowdin_reduce(partition(h4), 0.0))
        errs.append(np.abs(got - np.linalg.eigvalsh(h4)[:2]).max())
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)
    # xi versus level-repulsion extraction
    px = 1j * np.sqrt(0.01 * 3.8e4)
    xi_expected = xi_factors(model(px))[0]

    def ssq(b1):
        ev = np.linalg.eigvalsh(build_full_hamiltonian(model(px, b1=b1)))
        return ((ev[1] - ev[0]) / (abs(mat.g) * MU_B)) ** 2

    b = 0.004
    quad = (2 * (ssq(b) - ssq(0.0)) - 4 * (ssq(b / 2) - ssq(0.0))) / b**2
    k = np.sqrt(quad / (1 + (mat.alpha / mat.beta) ** 2))
    assert abs(k - 1.0) == pytest.approx(xi_expected, rel=0.05)
    report(11, f"C=0 exact; eigenvalue-error slope {slope:.2f}; "
               f"|k-1| = {abs(k - 1):.4f} vs xi = {xi_expected:.4f} (5%)")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def test_12_cli_reproducibility(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--axis", "lambda0_sq", "--grid", "0.01,0.02", "--mc",
            "--n-traj", "64", "--steps", "2000", "--seed", "42"]
    assert invoke(args + ["--out", str(a)])[0] == 0
    assert invoke(args + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    gargs = ["sweep", "--axis", "gamma", "--grid", "0.1:0.9:5", "--steps", "2000"]
    assert invoke(gargs + ["--jobs", "1", "--out", str(s1)])[0] == 0
    assert invoke(gargs + ["--jobs", "2", "--out", str(s2)])[0] == 0
    assert s1.read_bytes() == s2.read_bytes()
    report(12, "seeded outputs byte-identical; parallel sweep == serial sweep")
