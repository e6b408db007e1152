import numpy as np
import pytest

from spinflip import (FieldTriple, InvariantSpec, IntegratorError, Propagation,
                      SingularityError, build_heff,
                      chi_eigenstates, commutator, fidelity,
                      invariance_residual, invariant_matrix, lr_phase,
                      perturbed_initial_evolution, propagate_constant,
                      propagate_schrodinger, fields_xyz_at)
from spinflip import _kernels as K
from spinflip.constants import HBAR, MU_B
from spinflip.invariant import gate
from spinflip.trajectory import TrajectoryDesign, eval_angles

UP = np.array([1.0, 0.0], dtype=complex)


def lr_reference(design, t, nodes=1001):
    """alpha_plus(t) by a per-point composite Simpson sum over eval_angles and
    fields_xyz_at: the oracle for the vectorized quadrature."""
    ts = np.linspace(0.0, t, nodes)
    vals = []
    for x in ts:
        th, ph, _, phd = eval_angles(design, float(x))
        fx, fy, fz = fields_xyz_at(design, float(x))
        vals.append(-phd * np.cos(th / 2.0) ** 2
                    - 0.5 * design.mat.eta * (fz * np.cos(th) + np.sin(th)
                                              * (fx * np.cos(ph) + fy * np.sin(ph))))
    return (ts[1] - ts[0]) / 3.0 * (vals[0] + vals[-1] + 4.0 * sum(vals[1:-1:2])
                                    + 2.0 * sum(vals[2:-1:2]))


@pytest.fixture(scope="module")
def spec(design):
    return InvariantSpec(bc=1.0, design=design)


@pytest.fixture(scope="module")
def flip(design):
    return propagate_schrodinger(design, UP, 10000)


class TestInvariantMatrix:
    def test_initial_time_diagonal(self, spec):
        pref = 0.5 * spec.design.mat.g * MU_B * spec.bc
        assert np.allclose(invariant_matrix(spec, 0.0), np.diag([pref, -pref]))

    def test_final_time_flipped(self, spec):
        pref = 0.5 * spec.design.mat.g * MU_B * spec.bc
        got = invariant_matrix(spec, spec.design.tf)
        assert np.allclose(got, np.diag([-pref, pref]), atol=1e-15)

    def test_gap_constant_and_b0_independent(self, spec):
        gap = abs(spec.design.mat.g) * MU_B * spec.bc
        for t in np.linspace(0.0, 1.0, 37):
            ev = np.linalg.eigvalsh(invariant_matrix(spec, t))
            assert abs((ev[1] - ev[0]) - gap) < 1e-12 * gap

    def test_chi_are_eigenvectors(self, spec):
        lam = 0.5 * spec.design.mat.g * MU_B * spec.bc
        for t in (0.2, 0.5, 0.9):
            th, ph, _, _ = eval_angles(spec.design, t)
            chi_p, chi_m = chi_eigenstates(th, ph)
            i_mat = invariant_matrix(spec, t)
            assert np.allclose(i_mat @ chi_p, lam * chi_p, atol=1e-14)
            assert np.allclose(i_mat @ chi_m, -lam * chi_m, atol=1e-14)


class TestChiEigenstates:
    def test_theta_zero_is_up(self):
        chi_p, chi_m = chi_eigenstates(0.0, 0.3)
        assert abs(abs(chi_p[0]) - 1.0) < 1e-15 and abs(chi_p[1]) == 0.0
        assert abs(chi_m[0]) == 0.0 and abs(abs(chi_m[1]) - 1.0) < 1e-15

    def test_theta_pi_is_down(self):
        chi_p, chi_m = chi_eigenstates(np.pi, 0.7)
        assert abs(chi_p[1]) == pytest.approx(1.0, abs=1e-15)
        assert abs(chi_m[0]) == pytest.approx(1.0, abs=1e-15)

    def test_orthonormal_random_angles(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            th = rng.uniform(0.0, np.pi)
            ph = rng.uniform(-np.pi, np.pi)
            chi_p, chi_m = chi_eigenstates(th, ph)
            assert np.vdot(chi_p, chi_p).real == pytest.approx(1.0, abs=1e-14)
            assert np.vdot(chi_m, chi_m).real == pytest.approx(1.0, abs=1e-14)
            assert abs(np.vdot(chi_p, chi_m)) < 1e-14


def residual_scale(spec, t):
    th, ph, thd, phd = eval_angles(spec.design, t)
    x, y, z = fields_xyz_at(spec.design, t)
    i_norm = float(np.linalg.norm(invariant_matrix(spec, t)))
    eta = abs(spec.design.mat.eta)
    return i_norm * max(abs(thd), abs(phd), eta * (abs(x) + abs(y) + abs(z)))


class TestInvarianceResidual:
    def test_vanishes_along_design(self, spec):
        for t in np.linspace(0.0, 1.0, 101):
            res = invariance_residual(spec, float(t))
            assert res < 1e-8 * residual_scale(spec, float(t))

    def test_nonzero_without_drive(self, spec):
        # static field only: the invariant is not transported
        res = invariance_residual(spec, 0.3,
                                  fields=FieldTriple(0.0, 0.0, spec.design.b0))
        assert res > 1e-3 * residual_scale(spec, 0.3)

    def test_endpoint_commutators_vanish(self, spec):
        for t in (0.0, spec.design.tf):
            h = build_heff(fields_xyz_at(spec.design, t), spec.design.mat)
            i_mat = invariant_matrix(spec, t)
            scale = np.linalg.norm(h) * np.linalg.norm(i_mat)
            assert np.linalg.norm(commutator(h, i_mat)) < 1e-10 * scale


class TestLRPhase:
    def test_zero_at_origin(self, spec):
        assert lr_phase(spec, +1, 0.0) == 0.0
        assert lr_phase(spec, -1, 0.0) == 0.0

    def test_branches_opposite(self, spec):
        a_p = lr_phase(spec, +1, 0.8)
        a_m = lr_phase(spec, -1, 0.8)
        assert a_p == -a_m

    def test_bc_independent_bitwise(self, design):
        phases = [lr_phase(InvariantSpec(bc=bc, design=design), +1, 0.6)
                  for bc in (0.5, 1.0, 2.0)]
        assert phases[0] == phases[1] == phases[2]

    def test_node_refinement_converged(self, spec):
        a1 = lr_phase(spec, +1, 1.0, nodes=1001)
        a2 = lr_phase(spec, +1, 1.0, nodes=2001)
        assert abs(a1 - a2) < 1e-6

    @pytest.mark.parametrize("t", [0.6, 0.8, 1.0])
    def test_matches_per_point_simpson(self, spec, design, t):
        assert abs(lr_phase(spec, +1, t) - lr_reference(design, t)) < 1e-12

    @pytest.mark.parametrize("t", [-0.2, 1.5])
    def test_rejects_time_outside_pulse(self, spec, t):
        with pytest.raises(ValueError, match="outside"):
            lr_phase(spec, +1, t)

    def test_non_finite_fields_raise(self, mat, monkeypatch):
        # a wide guard window NaN-poisons the nodes next to the first
        # non-cancellable root of an over-limit design
        monkeypatch.setattr(K, "DEN_GUARD", 1e-2)
        bad = InvariantSpec(bc=1.0, design=TrajectoryDesign.design(1.0, 2.0, mat))
        with pytest.raises(SingularityError) as exc:
            lr_phase(bad, +1, 1.0)
        assert exc.value.t == pytest.approx(0.429, abs=1e-3)

    def test_matches_propagated_global_phase(self, spec, design):
        # psi(0) = chi_plus(0); the overlap <chi_plus(t)|psi(t)> must equal
        # e^{i alpha_plus(t)} with unit modulus
        th0, ph0, _, _ = eval_angles(design, 0.0)
        chi0, _ = chi_eigenstates(th0, ph0)
        prop = propagate_schrodinger(design, chi0, 10000)
        for t_idx in (2500, 5000, 7500, 10000):
            t = prop.times[t_idx]
            th, ph, _, _ = eval_angles(design, float(t))
            chi_t, _ = chi_eigenstates(th, ph)
            overlap = np.vdot(chi_t, prop.states[t_idx])
            alpha = lr_phase(spec, +1, float(t))
            assert abs(overlap - np.exp(1j * alpha)) < 1e-5


class TestPropagation:
    def test_flip_fidelity(self, flip):
        assert fidelity(flip) >= 1.0 - 1e-6

    def test_unitarity_norm_drift(self, flip):
        norms = np.linalg.norm(flip.states, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9
        assert flip.max_norm_drift < 1e-9

    def test_population_follows_design(self, design, flip):
        p_up = np.abs(flip.states[:, 0]) ** 2
        for idx in range(0, 10001, 100):
            th = design.theta(float(flip.times[idx]))
            assert abs(p_up[idx] - np.cos(th / 2) ** 2) < 1e-5

    def test_invariant_transport_constant(self, design):
        th0, ph0, _, _ = eval_angles(design, 0.0)
        chi0, _ = chi_eigenstates(th0, ph0)
        prop = propagate_schrodinger(design, chi0, 10000)
        mags = []
        for idx in range(0, 10001, 250):
            th, ph, _, _ = eval_angles(design, float(prop.times[idx]))
            chi_t, _ = chi_eigenstates(th, ph)
            mags.append(abs(np.vdot(chi_t, prop.states[idx])))
        assert max(mags) - min(mags) < 1e-6

    def test_free_precession(self, mat):
        prop = propagate_constant(FieldTriple(0.0, 0.0, 0.15), mat, UP, 1.0, 10000)
        p_up = np.abs(prop.states[:, 0]) ** 2
        assert np.abs(p_up - 1.0).max() < 1e-12
        phase = -0.5 * mat.g * MU_B * 0.15 / HBAR  # d(arg c_up)/dt
        expected = np.exp(1j * phase * prop.times)
        assert np.abs(prop.states[:, 0] - expected).max() < 1e-8

    def test_convergence_gate_trips_when_coarse(self, mat):
        rough = TrajectoryDesign.design(1.0, 1.05, mat)
        with pytest.raises(IntegratorError):
            propagate_schrodinger(rough, UP, 1000)

    def test_step_minimum_enforced(self, design):
        with pytest.raises(ValueError):
            propagate_schrodinger(design, UP, 500)

    def test_non_finite_state_rejected(self, design):
        # a NaN norm used to pass the norm check and fail later as a
        # convergence failure (IntegratorError)
        with pytest.raises(ValueError, match="psi0 norm nan"):
            propagate_schrodinger(design, np.array([np.nan, 0.0]), 1000)

    def test_unnormalized_state_rejected(self, design):
        with pytest.raises(ValueError):
            propagate_schrodinger(design, np.array([1.0, 1.0]), 10000)

    @pytest.mark.parametrize("steps", [0, -5])
    def test_constant_step_minimum_enforced(self, mat, steps):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            propagate_constant(FieldTriple(0.0, 0.0, 0.15), mat, UP, 1.0, steps)

    def test_constant_unnormalized_state_rejected(self, mat):
        with pytest.raises(ValueError, match="psi0 norm"):
            propagate_constant(FieldTriple(0.0, 0.0, 0.15), mat,
                               np.array([1.0, 1.0]), 1.0, 100)

    def test_results_independent_of_bc(self, design):
        # B_c never enters synthesis or propagation
        p1 = propagate_schrodinger(design, UP, 2000)
        p2 = propagate_schrodinger(design, UP, 2000)
        assert np.array_equal(p1.states, p2.states)


class TestFidelity:
    def _prop_ending_in(self, psi_f):
        states = np.array([[1.0 + 0j, 0.0], psi_f])
        return Propagation(times=np.array([0.0, 1.0]), states=states,
                           steps=1, order=4, max_norm_drift=0.0, gate_delta=0.0)

    def test_extreme_values(self):
        assert fidelity(self._prop_ending_in([0.0, 1.0])) == 1.0
        assert fidelity(self._prop_ending_in([1.0, 0.0])) == 0.0

    def test_equal_superposition(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        assert fidelity(self._prop_ending_in(psi)) == pytest.approx(1 / np.sqrt(2))


class TestPerturbedEvolution:
    def test_unperturbed_tracks_design(self, design):
        evo = perturbed_initial_evolution(design, 0.0, np.pi / 2, 10000)
        for idx in range(0, 10001, 200):
            th = design.theta(float(evo.times[idx]))
            assert abs(evo.cos_theta[idx] - np.cos(th)) < 1e-5

    def test_final_angle_insensitive_to_phi0(self, design):
        a = perturbed_initial_evolution(design, 0.01, np.pi / 2, 10000)
        b = perturbed_initial_evolution(design, 0.01, np.pi / 4, 10000)
        assert abs(a.cos_theta[-1] - b.cos_theta[-1]) < 1e-2
        # intermediate sin(phi) *is* sensitive to the initial phase
        mid = slice(2000, 8000)
        assert np.abs(a.sin_phi[mid] - b.sin_phi[mid]).max() > 0.05

    def test_flip_degraded_by_epsilon(self, design):
        eps = 0.01
        evo = perturbed_initial_evolution(design, eps, np.pi / 2, 10000)
        assert eps <= abs(evo.cos_theta[-1] + 1.0) <= 3 * eps

    def test_pole_sentinel(self, design):
        evo = perturbed_initial_evolution(design, 0.0, np.pi / 2, 10000)
        assert not evo.phi_defined[0]          # starts at the north pole
        assert not evo.phi_defined[-1]         # ends at the south pole
        assert np.isfinite(evo.sin_phi).all()  # sentinel, never NaN
        assert evo.phi_defined[5000]

    def test_epsilon_range_enforced(self, design):
        with pytest.raises(ValueError):
            perturbed_initial_evolution(design, 1.0, 0.0, 10000)
        with pytest.raises(ValueError):
            perturbed_initial_evolution(design, -0.1, 0.0, 10000)

    def test_non_finite_phase_rejected(self, design):
        # a NaN phase used to propagate and fail as IntegratorError
        with pytest.raises(ValueError, match="phi0 must be finite"):
            perturbed_initial_evolution(design, 0.0, np.nan, 1000)


class TestGate:
    def test_returns_delta_within_tolerance(self):
        coarse = np.array([0.0, 1.0])
        assert gate(coarse, coarse + [0.0, 5e-9]) == pytest.approx(5e-9)

    @pytest.mark.parametrize("fine", [[0.0, 1.0 + 2e-8], [0.0, np.nan]],
                             ids=["moved", "nan"])
    def test_fails_past_tolerance_or_non_finite(self, fine):
        with pytest.raises(IntegratorError, match="step-halving gate failed"):
            gate(np.array([0.0, 1.0]), np.array(fine))
