import numpy as np
import pytest

from spinflip import (DensityTrajectory, FieldTriple, IntegratorError, TrajectoryDesign,
                      bloch_to_density, build_heff, ensemble_sweep, fidelity, fidelity_from_w,
                      perturbative_bound, propagate_bloch, propagate_density,
                      propagate_master, propagate_schrodinger)
from spinflip.core import IDENTITY2
from spinflip.fields import fields_xyz_at
from spinflip import opensys
from spinflip.opensys import (INCREMENT_BLOCK, _child_states, _em_fidelities,
                              _increment_blocks, check_ensemble, check_noise, check_rate,
                              dephasing_sweep, noise_sweep)

from oracles import (bloch_of, bloch_rhs, lindblad_step_rhs, noise_bloch_rhs,
                     noise_master_rhs, xonly_hprime)

UP = np.array([1.0, 0.0], dtype=complex)


def dephasing_fidelity_exact(gamma, tf):
    """The -4 gamma decay is isotropic, so it factors out of the rotation:
    w(tf) = -e^{-4 gamma tf} exactly (given a perfect unitary flip)."""
    return np.sqrt((1.0 + np.exp(-4.0 * gamma * tf)) / 2.0)


def check_density_trajectory(traj):
    tr = traj.rho[:, 0, 0] + traj.rho[:, 1, 1]
    assert np.abs(tr - 1.0).max() < 1e-9
    eigmin = min(np.linalg.eigvalsh(traj.rho[i]).min()
                 for i in range(0, traj.rho.shape[0], 100))
    assert eigmin > -1e-9
    purity = np.einsum("nij,nji->n", traj.rho, traj.rho).real
    assert np.diff(purity).max() < 1e-9


class TestLindbladRHS:
    def test_maximally_mixed_fixed_point(self, design, mat):
        h = build_heff(fields_xyz_at(design, 0.3), mat)
        rhs = lindblad_step_rhs(IDENTITY2 / 2, h, 0.7)
        assert np.abs(rhs).max() < 1e-15

    def test_trace_free(self, mat, design):
        rng = np.random.default_rng(8)
        h = build_heff(fields_xyz_at(design, 0.6), mat)
        for _ in range(20):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            rhs = lindblad_step_rhs(np.outer(psi, psi.conj()), h, 0.3)
            assert abs(rhs[0, 0] + rhs[1, 1]) < 1e-15

    def test_purity_conserved_when_gamma_zero(self, mat, design):
        h = build_heff(fields_xyz_at(design, 0.4), mat)
        psi = np.array([0.6, 0.8j])
        rho = np.outer(psi, psi.conj())
        rhs = lindblad_step_rhs(rho, h, 0.0)
        dpurity = 2.0 * np.trace(rho @ rhs).real
        assert abs(dpurity) < 1e-15

    def test_zero_hamiltonian_gives_uniform_bloch_decay(self):
        rng = np.random.default_rng(9)
        gamma = 0.23
        for _ in range(20):
            r = rng.uniform(-0.5, 0.5, 3)
            rhs = lindblad_step_rhs(bloch_to_density(r), np.zeros((2, 2), dtype=complex),
                                    gamma)
            assert np.allclose(bloch_of(rhs), -4.0 * gamma * r, atol=1e-14)


class TestBlochRHS:
    def test_pure_precession(self, mat):
        rdot = bloch_rhs(np.array([0.3, -0.2, 0.5]), FieldTriple(0, 0, 0.15),
                         0.0, mat)
        eta_b0 = mat.eta * 0.15
        assert np.allclose(rdot, [eta_b0 * -0.2, -eta_b0 * 0.3, 0.0])

    def test_zero_field_closed_form(self, mat):
        gamma, dt, n = 0.4, 1e-3, 1000
        r = np.array([0.6, -0.1, 0.3])
        f = FieldTriple(0.0, 0.0, 0.0)
        for _ in range(n):
            k1 = bloch_rhs(r, f, gamma, mat)
            k2 = bloch_rhs(r + dt / 2 * k1, f, gamma, mat)
            k3 = bloch_rhs(r + dt / 2 * k2, f, gamma, mat)
            k4 = bloch_rhs(r + dt * k3, f, gamma, mat)
            r = r + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        expected = np.array([0.6, -0.1, 0.3]) * np.exp(-4 * gamma * dt * n)
        assert np.allclose(r, expected, rtol=1e-10)

    def test_matches_density_form(self, mat, design):
        rng = np.random.default_rng(10)
        gamma = 0.17
        for t in (0.2, 0.55, 0.8):
            fields = fields_xyz_at(design, t)
            h = build_heff(fields, mat)
            r = rng.uniform(-0.4, 0.4, 3)
            rhs = lindblad_step_rhs(bloch_to_density(r), h, gamma)
            assert np.allclose(bloch_of(rhs), bloch_rhs(r, fields, gamma, mat),
                               atol=1e-12)


class TestPropagateMaster:
    def test_unitary_limit(self, design):
        assert propagate_master(design, 0.0, 10000) >= 1.0 - 1e-6

    def test_against_exact_factorization(self, design):
        for gamma in (0.01, 0.1, 0.5):
            f = propagate_master(design, gamma, 10000)
            assert f == pytest.approx(dephasing_fidelity_exact(gamma, 1.0),
                                      abs=1e-6)

    def test_spec_values_at_gamma_0p01(self, design):
        f = propagate_master(design, 0.01, 10000)
        assert f >= 0.98
        assert f >= perturbative_bound(0.01, 1.0) - 1e-3

    def test_monotone_and_ordered_in_tf(self, design, design_short):
        gammas = [0.1, 0.4, 0.7, 1.0]
        f_long = [propagate_master(design, g, 4000) for g in gammas]
        f_short = [propagate_master(design_short, g, 4000) for g in gammas]
        assert all(np.diff(f_long) < 0) and all(np.diff(f_short) < 0)
        assert all(s > l for s, l in zip(f_short, f_long))

    def test_cross_form_agreement(self, design):
        gamma = 0.05
        bl = propagate_bloch(design, gamma=gamma, steps=10000)
        dn = propagate_density(design, gamma=gamma, steps=10000)
        assert np.abs(dn.bloch() - bl.r).max() < 1e-8
        check_density_trajectory(dn)

    def test_bloch_norm_above_one_refused(self, mat):
        # t_f = 1 ns, B0 = 0.5 T, 1000 steps: RK4 truncation lets |r| reach
        # 1 + 2.4e-12, and rho a -1.2e-12 eigenvalue; 2000 steps keep it
        # within 1 + 7.6e-14
        design = TrajectoryDesign.design(1.0, 0.5, mat)
        with pytest.raises(IntegratorError, match=r"\|r\|.*more than 1000 steps"):
            propagate_density(design, steps=1000)
        check_density_trajectory(propagate_density(design, steps=2000))


class TestNoiseSweep:
    """The deterministic lambda0^2 axis: one gated batch of the Bloch kernel."""

    @pytest.mark.parametrize("channel", ["as-printed", "x-only"])
    def test_matches_propagate_bloch(self, design, channel):
        # each point equals its own one-point run, lambda0^2 = 0 included
        lambda0s = np.sqrt(np.linspace(0.0, 0.2, 20))
        got = noise_sweep(design, lambda0s, channel, 2000)
        want = [propagate_bloch(design, lambda0=l0, channel=channel, steps=2000).final_fidelity
                for l0 in lambda0s]
        assert got.shape == (20,)
        assert np.abs(got - want).max() < 1e-12

    def test_empty_grid_runs_no_kernel(self, design, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel ran")
        monkeypatch.setattr("spinflip._kernels.rk4_bloch", refuse)
        assert noise_sweep(design, [], "x-only", 1000).shape == (0,)
        assert dephasing_sweep(design, []).shape == (0,)


class TestNoiseMasterRHS:
    def test_lambda_zero_is_unitary(self, mat, design):
        fields = fields_xyz_at(design, 0.4)
        h = build_heff(fields, mat)
        hp = xonly_hprime(fields, design.b0, mat)
        psi = np.array([0.8, 0.6j])
        rho = np.outer(psi, psi.conj())
        assert np.allclose(noise_master_rhs(rho, h, hp, 0.0),
                           lindblad_step_rhs(rho, h, 0.0))

    def test_identity_noise_operator_inert(self, mat, design):
        fields = fields_xyz_at(design, 0.4)
        h = build_heff(fields, mat)
        psi = np.array([0.8, 0.6j])
        rho = np.outer(psi, psi.conj())
        with_noise = noise_master_rhs(rho, h, IDENTITY2 * 0.37, 2.0)
        assert np.allclose(with_noise, lindblad_step_rhs(rho, h, 0.0))

    def test_trace_preserving(self, mat, design):
        fields = fields_xyz_at(design, 0.7)
        h = build_heff(fields, mat)
        hp = xonly_hprime(fields, design.b0, mat)
        rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        rhs = noise_master_rhs(rho, h, hp, 1.3)
        assert abs(rhs[0, 0] + rhs[1, 1]) < 1e-15


def xonly_bloch_expected(r, fields, b0, lam, mat):
    """Pauli-expansion oracle for the exact x-only dissipator:
    rdot = (lam^2 eta^2 / 2) [h (h.r) - r |h|^2] with h = (0, -Y, Z') in the
    Pauli frame, mapped back to the (u, v, w) convention."""
    x, y, z = fields
    zp = z - b0
    k = 0.5 * lam**2 * mat.eta**2
    u, v, w = r
    prec = bloch_rhs(r, fields, 0.0, mat)
    return prec + k * np.array([
        -(y * y + zp * zp) * u,
        -zp * zp * v + y * zp * w,
        y * zp * v - y * y * w,
    ])


class TestNoiseBlochRHS:
    def test_lambda_zero_matches_unitary(self, mat, design):
        fields = fields_xyz_at(design, 0.3)
        r = np.array([0.2, 0.1, 0.9])
        for channel in ("as-printed", "x-only"):
            assert np.allclose(
                noise_bloch_rhs(r, fields, design.b0, 0.0, mat, channel),
                bloch_rhs(r, fields, 0.0, mat), atol=1e-12)

    def test_no_drive_pure_precession(self, mat):
        fields = FieldTriple(0.0, 0.0, 0.15)  # Z' = 0
        r = np.array([0.5, -0.3, 0.2])
        got = noise_bloch_rhs(r, fields, 0.15, 1.7, mat, "as-printed")
        assert np.allclose(got, bloch_rhs(r, fields, 0.0, mat), atol=1e-12)

    def test_xonly_matches_pauli_expansion(self, mat, design):
        rng = np.random.default_rng(31)
        for t in (0.2, 0.5, 0.77):
            fields = fields_xyz_at(design, t)
            r = rng.uniform(-0.5, 0.5, 3)
            got = noise_bloch_rhs(r, fields, design.b0, 0.9, mat, "x-only")
            want = xonly_bloch_expected(r, fields, design.b0, 0.9, mat)
            assert np.abs(got - want).max() < 1e-10

    def test_u_decay_shared_between_channels(self, mat, design):
        # the printed matrix and the exact x-only dissipator agree on the
        # u diagonal -(lam^2 eta^2/2)(Y^2 + Z'^2)
        fields = fields_xyz_at(design, 0.4)
        r = np.array([1.0, 0.0, 0.0])
        printed = noise_bloch_rhs(r, fields, design.b0, 0.8, mat, "as-printed")
        exact = noise_bloch_rhs(r, fields, design.b0, 0.8, mat, "x-only")
        assert printed[0] == pytest.approx(exact[0], abs=1e-10)

    def test_unknown_channel_rejected(self, mat, design):
        with pytest.raises(ValueError):
            noise_bloch_rhs(np.zeros(3), fields_xyz_at(design, 0.5),
                            design.b0, 0.1, mat, "both")

    def test_cross_form_agreement_as_printed(self, design):
        lam0 = np.sqrt(0.02)
        bl = propagate_bloch(design, lambda0=lam0, steps=10000)
        dn = propagate_density(design, lambda0=lam0, channel="as-printed",
                               steps=10000)
        assert np.abs(dn.bloch() - bl.r).max() < 1e-8

    def test_fidelity_decreasing_in_lambda0_sq(self, design):
        grid = [0.0, 0.01, 0.02, 0.05]
        fs = [propagate_bloch(design, lambda0=np.sqrt(l2), steps=8000).final_fidelity
              for l2 in grid]
        assert all(np.diff(fs) < 0)

    def test_xonly_density_valid(self, design):
        dn = propagate_density(design, lambda0=np.sqrt(0.05), channel="x-only",
                               steps=10000)
        check_density_trajectory(dn)


class TestSSE:
    # one seeded trajectory is the ensemble of n_traj = 1
    def test_lambda_zero_matches_schrodinger(self, design):
        f = _em_fidelities(design, [0.0], 5, 1, 10000)[0, 0]
        rk = propagate_schrodinger(design, UP, 10000)
        assert abs(f - fidelity(rk)) < 5e-3
        assert f > 1.0 - 1e-6

    def test_deterministic_for_fixed_seed(self, design):
        a = _em_fidelities(design, [0.3], 99, 16, 10000)
        b = _em_fidelities(design, [0.3], 99, 16, 10000)
        assert np.array_equal(a, b)

    def test_seed_changes_trajectory(self, design):
        a = _em_fidelities(design, [0.3], 1, 16, 10000)
        b = _em_fidelities(design, [0.3], 2, 16, 10000)
        assert not np.array_equal(a, b)

    def test_one_trajectory_pinned(self, design):
        # value of the byte-table Euler-Maruyama step
        assert _em_fidelities(design, [0.3], 99, 1, 10000)[0, 0] == 0.988740296108361

    def test_wiener_increment_statistics(self):
        dt = 1e-4
        rows = np.concatenate(list(_increment_blocks(seed=123, n_traj=100, steps=10000)))
        flat = np.where(np.unpackbits(rows) == 1, np.sqrt(dt), -np.sqrt(dt))
        n = flat.size
        se_mean = np.sqrt(dt / n)
        assert abs(flat.mean()) < 3 * se_mean
        se_var = dt * np.sqrt(2.0 / n)
        assert abs(flat.var() - dt) < 3 * se_var

    def test_increment_blocks_equal_one_bytes_draw(self):
        # oracle: each spawned generator's one rng.bytes draw; 8500 steps
        # cross the 8192-step chunk edge, are not a multiple of 8 and leave
        # a narrower last block
        seed, n_traj, steps = 42, 5, 8500
        rngs = [np.random.default_rng(c)
                for c in np.random.SeedSequence(seed).spawn(n_traj)]
        ref = np.array([np.frombuffer(rng.bytes(-(-steps // 8)), np.uint8) for rng in rngs]).T
        blocks = list(_increment_blocks(seed, n_traj, steps))
        assert [b.shape for b in blocks] == [(INCREMENT_BLOCK // 8, n_traj)] * 33 + [(7, n_traj)]
        # step-major byte rows, C-contiguous: the kernel reads one row per 8 steps
        assert all(b.dtype == np.uint8 and b.flags.c_contiguous for b in blocks)
        assert np.array_equal(np.concatenate(blocks), ref)

    @pytest.mark.parametrize("n_traj", [1, 3])
    @pytest.mark.parametrize("steps", [1, 7, 8, 63, 64, 65, 8191, 8192, 8193, 16449])
    def test_increment_blocks_bytes_oracle_edges(self, steps, n_traj):
        # the same oracle at a single byte, ends inside a 64-bit word, both
        # sides of the 8192-step chunk edge and a partial second chunk
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(7).spawn(n_traj)]
        ref = np.array([np.frombuffer(rng.bytes(-(-steps // 8)), np.uint8) for rng in rngs]).T
        assert np.array_equal(np.concatenate(list(_increment_blocks(7, n_traj, steps))), ref)

    @pytest.mark.parametrize("n_traj", [1, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5,
                                      2**96, 2**128 + 1, 2**300 + 12345])
    def test_child_states_equal_spawned_seed_sequences(self, seed, n_traj):
        # oracle: numpy's own SeedSequence children, one at a time; seeds of
        # one to five and ten 32-bit words, within the pool of four and beyond
        ref = [c.generate_state(4, np.uint64) for c in np.random.SeedSequence(seed).spawn(n_traj)]
        got = _child_states(seed, n_traj)
        assert got.dtype == np.uint64 and got.shape == (n_traj, 4)
        assert np.array_equal(got, ref)

    def test_n_traj_beyond_one_word_spawn_keys_rejected(self):
        # the states assume child indices below 2**32; rejected before any
        # state is computed or any buffer allocated
        with pytest.raises(ValueError, match=r"at most 2\*\*32"):
            next(_increment_blocks(0, 2**32 + 1, 8))
        with pytest.raises(ValueError, match=r"at most 2\*\*32"):
            check_ensemble(0, 2**32 + 1)

    def test_per_trajectory_generators(self):
        # seed ^ i seeding made 1232, 1234 and 1235 share one set of 256
        # trajectories in a different order; spawned streams share none.
        # 64 one-bit steps make a chance match of two trajectories unlikely.
        sets = []
        for seed in (1232, 1234, 1235):
            dw, = _increment_blocks(seed=seed, n_traj=256, steps=64)
            again, = _increment_blocks(seed=seed, n_traj=256, steps=64)
            assert np.array_equal(dw, again)
            sets.append({col.tobytes() for col in dw.T})
        assert all(len(s) == 256 for s in sets)
        assert not (sets[0] & sets[1] or sets[1] & sets[2] or sets[0] & sets[2])


class TestEnsemble:
    def test_zero_noise_zero_variance(self, design):
        (_, se), = ensemble_sweep(design, [0.0], seed=3, n_traj=16, steps=10000)
        assert se == 0.0

    def test_matches_deterministic_master(self, design):
        lam0 = np.sqrt(0.02)
        (f, se), = ensemble_sweep(design, [lam0], seed=7, n_traj=400, steps=10000)
        master = propagate_density(design, lambda0=lam0, channel="x-only",
                                   steps=10000).final_fidelity
        assert abs(f - master) < 3 * se

    @pytest.mark.parametrize("lam0_sq", [0.02, 0.2])
    def test_population_matches_master_rho11(self, design, lam0_sq):
        # rho = E|psi><psi|, so the mean population estimates rho_11 without
        # bias; at 0.2 the mean fidelity of these same trajectories sits
        # 3.22 of its SE below sqrt(rho_11) (Jensen), the population 0.44 SE
        # above
        lam0 = float(np.sqrt(lam0_sq))
        p = _em_fidelities(design, [lam0], 5, 2000, 2000)[0] ** 2
        rho11 = propagate_density(design, lambda0=lam0, channel="x-only",
                                  steps=10000).rho[-1, 1, 1].real
        assert abs(p.mean() - rho11) < 3 * p.std(ddof=1) / np.sqrt(p.size)

    def test_standard_error_scaling(self, design):
        lam0 = np.sqrt(0.02)
        ses = [ensemble_sweep(design, [lam0], seed=11, n_traj=n, steps=10000)[0][1]
               for n in (100, 400, 1600)]
        # 1/sqrt(n): each quadrupling halves the SE, within sampling slack
        assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.35)
        assert ses[1] / ses[2] == pytest.approx(2.0, rel=0.35)


    def test_empty_grid_draws_nothing(self, design, monkeypatch):
        # as noise_sweep and dephasing_sweep: an empty grid runs no kernel
        def refuse(*args, **kwargs):
            raise AssertionError("increments drawn")
        monkeypatch.setattr(opensys, "_increment_blocks", refuse)
        assert ensemble_sweep(design, [], seed=3, n_traj=16, steps=1000) == []

    @pytest.mark.parametrize("seed, n_traj, steps, name",
                             [(3, 0, 1000, "n_traj"), (-1, 16, 1000, "seed"), (3, 16, 0, "steps")])
    def test_empty_grid_still_validated(self, design, seed, n_traj, steps, name):
        with pytest.raises(ValueError, match=name):
            ensemble_sweep(design, [], seed, n_traj, steps)


class TestPerturbativeBound:
    def test_values(self):
        assert perturbative_bound(0.0, 5.0) == 1.0
        assert perturbative_bound(0.01, 1.0) == pytest.approx(0.98)
        assert perturbative_bound(0.01, 0.1) == pytest.approx(0.998)

    def test_clamped(self):
        assert perturbative_bound(10.0, 1.0) == 0.0


class TestParams:
    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            check_rate("gamma", -0.1)
        assert check_rate("gamma", 0.0) == 0.0

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            check_noise(-1.0, "as-printed")
        with pytest.raises(ValueError):
            check_noise(0.1, "plaid")
        with pytest.raises(ValueError):
            check_ensemble(0, 0)

    @pytest.mark.parametrize("seed", [-3, 1.5, "x", True])
    def test_seed_must_be_non_negative_integer(self, seed):
        # a bad seed used to pass here and fail deep inside numpy's SeedSequence
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            check_ensemble(seed, 1)

    @pytest.mark.parametrize("n_traj", [4.5, "x", True])
    def test_n_traj_must_be_integer(self, n_traj):
        # a float n_traj used to pass here and fail inside SeedSequence.spawn
        with pytest.raises(ValueError, match="n_traj must be an integer"):
            check_ensemble(0, n_traj)

    def test_numpy_integer_seed_accepted(self):
        check_ensemble(np.int64(7), 1)

    @pytest.mark.parametrize("call", [
        lambda d: propagate_bloch(d, gamma=-0.5),
        lambda d: propagate_master(d, -0.5),
        lambda d: propagate_density(d, gamma=-0.5),
        lambda d: propagate_bloch(d, lambda0=-0.1),
        lambda d: propagate_density(d, lambda0=-0.1, channel="x-only"),
        lambda d: dephasing_sweep(d, [0.1, -0.5]),
        lambda d: ensemble_sweep(d, [0.1, -0.1], seed=0, n_traj=8, steps=1000),
        lambda d: noise_sweep(d, [0.1, -0.1], "x-only", 1000),
    ], ids=["bloch-gamma", "master-gamma", "density-gamma", "bloch-lambda0",
            "density-lambda0", "dephasing_sweep", "ensemble_sweep", "noise_sweep"])
    def test_propagators_reject_negative_rates(self, design, monkeypatch, call):
        # unchecked, a negative gamma gives F = 2.048 and a negative lambda0
        # a silently noiseless run; the check comes before any kernel
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel ran before the check")
        for name in ("rk4_bloch", "em_final"):
            monkeypatch.setattr(f"spinflip._kernels.{name}", refuse)
        with pytest.raises(ValueError, match="must be >= 0"):
            call(design)

    @pytest.mark.parametrize("call", [
        lambda d: propagate_bloch(d, steps=0),
        lambda d: propagate_density(d, steps=0),
        lambda d: ensemble_sweep(d, [0.1], seed=0, n_traj=4, steps=0),
    ], ids=["propagate_bloch", "propagate_density", "ensemble_sweep"])
    def test_propagators_reject_zero_steps(self, design, call):
        # unchecked, a step count of 0 divided t_f by zero
        with pytest.raises(ValueError, match="steps must be >= 1"):
            call(design)

    @pytest.mark.parametrize("call", [
        lambda d: check_rate("gamma", np.inf),
        lambda d: check_noise(np.inf, "as-printed"),
        lambda d: propagate_bloch(d, lambda0=np.nan, steps=1000),
        lambda d: propagate_master(d, np.nan, steps=1000),
        lambda d: ensemble_sweep(d, [0.1, np.nan], seed=0, n_traj=4, steps=1000),
        lambda d: noise_sweep(d, [0.1, np.nan], "as-printed", 1000),
    ], ids=["lindblad-inf", "noise-inf", "bloch-lambda0-nan", "master-gamma-nan",
            "ensemble_sweep-nan", "noise_sweep-nan"])
    def test_non_finite_rates_rejected(self, design, monkeypatch, call):
        # unchecked, lambda0 = NaN gave the noiseless F and gamma = NaN a NaN F
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel ran before the check")
        for name in ("rk4_bloch", "em_final"):
            monkeypatch.setattr(f"spinflip._kernels.{name}", refuse)
        with pytest.raises(ValueError, match="must be finite, got"):
            call(design)

    @pytest.mark.parametrize("r0", [(np.nan, 0.0, 1.0), (0.0, 0.0, -3.0)],
                             ids=["nan", "outside-ball"])
    def test_propagate_bloch_rejects_bad_r0(self, design, r0):
        # a NaN r0 used to fail as IntegratorError, |r0| = 3 to give F = 0.0
        with pytest.raises(ValueError, match="r0 must be finite with"):
            propagate_bloch(design, steps=1000, r0=r0)

    @pytest.mark.parametrize("call, message", [
        (lambda d: propagate_bloch(d, steps=1000, r0=0.1 * np.eye(3)),
         r"r0 must have shape \(3,\), got \(3, 3\)"),
        (lambda d: propagate_density(d, steps=1000,
                                     rho0=np.array([np.diag([1.0, 0.0]), np.diag([0.5, 0.5])])),
         r"rho0 must have shape \(2, 2\), got \(2, 2, 2\)"),
    ], ids=["bloch-3x3", "density-stack"])
    def test_initial_state_shape_checked_before_the_scan(self, design, monkeypatch,
                                                         call, message):
        # both passed the norm check and failed after the singularity scan,
        # with numpy's broadcast error inside the RK4 kernel
        def scan(d):
            raise AssertionError("scanned the design before checking the shape")
        monkeypatch.setattr("spinflip.opensys.require_cancellable", scan)
        with pytest.raises(ValueError, match=message):
            call(design)

    def test_fidelity_from_w(self):
        assert fidelity_from_w(-1.0) == 1.0
        assert fidelity_from_w(1.0) == 0.0
        assert fidelity_from_w(0.0) == pytest.approx(1 / np.sqrt(2))
        # rounding can carry a full flip just past the pole
        assert fidelity_from_w(-1.0 - 4e-16) == 1.0

    @pytest.mark.parametrize("w", [1.0 + 1e-9, -1.0 - 1e-9, np.nan,
                                   np.array([0.0, -1.0 - 1e-9])],
                             ids=["above-1", "below-minus-1", "nan", "array"])
    def test_fidelity_from_w_range_checked(self, w):
        # more than 1e-12 outside [0, 1] is no rounding: the run went wrong
        with pytest.raises(IntegratorError, match="outside"):
            fidelity_from_w(w)

    def test_density_final_fidelity_range_checked(self):
        rho = np.array([[[1.0 + 1e-9, 0.0], [0.0, -1e-9]]], dtype=complex)
        with pytest.raises(IntegratorError, match="outside"):
            DensityTrajectory(times=np.zeros(1), rho=rho).final_fidelity
