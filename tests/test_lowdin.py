import numpy as np
import pytest

from spinflip import (DegenerateReferenceError, FourLevelModel,
                      build_full_hamiltonian, closed_form_elements,
                      lowdin_reduce, orbital_adiabaticity, partition,
                      validity_check, xi_factors, zeeman_splitting)
from spinflip.constants import MU_B
from spinflip.lowdin import lowest_eigenvalues

MASS = 3.8e4      # ~0.067 m_e in meV ns^2/cm^2
GAP = 1.0         # meV


def make_model(mat, pbar_x=0j, pbar_y=0j, b1=0.0, b2=0.0,
               delta_z=zeeman_splitting(-0.44, 0.075), e1=0.0):
    return FourLevelModel(e1=e1, e2=e1 + GAP, delta_z=delta_z,
                          pbar_x=pbar_x, pbar_y=pbar_y, m=MASS,
                          drive_b1=b1, drive_b2=b2, mat=mat)


class TestBuildHamiltonian:
    def test_bare_spectrum(self, mat):
        dz = 0.02
        h = build_full_hamiltonian(make_model(mat, delta_z=dz))
        assert np.allclose(h, np.diag([dz / 2, -dz / 2, GAP + dz / 2, GAP - dz / 2]))

    def test_hermitian_random_models(self, mat):
        rng = np.random.default_rng(17)
        for _ in range(100):
            px, py = rng.normal(0, 30, 2) + 1j * rng.normal(0, 30, 2)
            b1, b2 = rng.normal(0, 0.2, 2)
            h = build_full_hamiltonian(make_model(mat, px, py, b1, b2))
            assert np.abs(h - h.conj().T).max() < 1e-14

    def test_no_momentum_coupling_block_diagonal(self, mat):
        h = build_full_hamiltonian(make_model(mat, b1=0.1, b2=0.05))
        assert np.abs(h[:2, 2:]).max() == 0.0

    def test_drive_block_matches_effective_convention(self, mat):
        # with xi = 0 the upper-left block must be E1 I + (g mu_B/2) *
        # [[Z, X+iY], [X-iY, -Z]] with X = B2, Y = (alpha/beta) B1, Z = B0+B1
        b0, b1, b2 = 0.075, 0.03, 0.02
        model = make_model(mat, b1=b1, b2=b2, delta_z=zeeman_splitting(-0.44, b0))
        q = partition(build_full_hamiltonian(model)).q
        pref = 0.5 * mat.g * MU_B
        z = b0 + b1
        x, y = b2, (mat.alpha / mat.beta) * b1
        assert q[0, 0] == pytest.approx(pref * z, rel=1e-12)
        assert q[1, 1] == pytest.approx(-pref * z, rel=1e-12)
        assert q[0, 1] == pytest.approx(pref * (x + 1j * y), rel=1e-12)


class TestPartition:
    def test_reassembly_identity(self, mat):
        h = build_full_hamiltonian(make_model(mat, 20j, 10j, 0.05, 0.02))
        p = partition(h)
        assert np.array_equal(p.reassemble(), h)

    def test_b_block_carries_upper_doublet(self, mat):
        dz = 0.02
        p = partition(build_full_hamiltonian(make_model(mat, delta_z=dz)))
        assert np.allclose(p.b, np.diag([GAP + dz / 2, GAP - dz / 2]))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            partition(np.eye(3))


class TestLowdinReduce:
    def test_uncoupled_returns_q(self, mat):
        p = partition(build_full_hamiltonian(make_model(mat, b1=0.07)))
        assert np.array_equal(lowdin_reduce(p, 0.0), p.q)

    def test_hermitian_output(self, mat):
        p = partition(build_full_hamiltonian(make_model(mat, 25j, -10j, 0.02, 0.01)))
        eff = lowdin_reduce(p, 0.0)
        assert np.abs(eff - eff.conj().T).max() < 1e-14

    def test_degenerate_reference_rejected(self, mat):
        p = partition(build_full_hamiltonian(make_model(mat, 20j)))
        e_bad = float(np.linalg.eigvalsh(p.b)[0])
        with pytest.raises(DegenerateReferenceError):
            lowdin_reduce(p, e_bad)

    def test_overflowing_fold_rejected(self, mat):
        # finite blocks whose fold overflows: |pbar_x|^2 alone is 1e320
        p = partition(build_full_hamiltonian(make_model(mat, pbar_x=1.0e160j)))
        with pytest.raises(ValueError, match="fold .* not finite"):
            lowdin_reduce(p, 0.0)

    def test_weak_coupling_eigenvalues(self, mat):
        # ||C||/gap = 1e-2: single-shot reduction at e_ref = E1 should track
        # the two lowest exact eigenvalues to better than 1e-3 ||C||
        scale = 0.01 * GAP
        px = 1j * scale / np.sqrt(mat.alpha**2 + mat.beta**2)
        model = make_model(mat, pbar_x=px, delta_z=0.05 * GAP)
        h4 = build_full_hamiltonian(model)
        p = partition(h4)
        c_norm = np.linalg.norm(p.c, 2)
        assert c_norm == pytest.approx(scale, rel=1e-12)
        got = np.linalg.eigvalsh(lowdin_reduce(p, model.e1))
        want = np.linalg.eigvalsh(h4)[:2]
        assert np.abs(got - want).max() < 1e-3 * c_norm

    def test_error_scales_quadratically(self, mat):
        # log-log slope of the eigenvalue error vs coupling strength
        scales = np.array([1e-3, 1e-2, 1e-1]) * GAP
        errs = []
        for s in scales:
            px = 1j * 0.8 * s / np.sqrt(mat.alpha**2 + mat.beta**2)
            py = 1j * 0.4 * s / np.sqrt(mat.alpha**2 + mat.beta**2)
            model = make_model(mat, pbar_x=px, pbar_y=py, delta_z=0.05 * GAP)
            h4 = build_full_hamiltonian(model)
            p = partition(h4)
            got = np.linalg.eigvalsh(lowdin_reduce(p, model.e1))
            want = np.linalg.eigvalsh(h4)[:2]
            errs.append(np.abs(got - want).max())
        slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_self_consistent_iteration_hits_exact(self, mat):
        px = 1j * 0.01 * GAP / np.sqrt(mat.alpha**2 + mat.beta**2)
        model = make_model(mat, pbar_x=px, delta_z=0.05 * GAP)
        h4 = build_full_hamiltonian(model)
        p = partition(h4)
        exact = np.linalg.eigvalsh(h4)
        for branch in (0, 1):
            # e_ref onto the chosen output eigenvalue: the fixed point solves
            # the exact partitioned secular equation
            e_sc = model.e1
            for _ in range(5):
                e_sc = float(np.linalg.eigvalsh(lowdin_reduce(p, e_sc))[branch])
            assert abs(e_sc - exact[branch]) < 1e-10


class TestLowestEigenvalues:
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_lapack(self, n):
        # LAPACK is the oracle here only: the program calls none.  Scales
        # 1e-4 to 10; every fourth draw has a lowest pair 1e-9 apart, relative
        rng = np.random.default_rng(320 + n)
        for i in range(200):
            m = 10.0 ** rng.uniform(-4, 1) * (rng.normal(size=(n, n))
                                               + 1j * rng.normal(size=(n, n)))
            h = m + m.conj().T
            if i % 4 == 0:
                w, v = np.linalg.eigh(h)
                w[1] = w[0] + 1e-9 * abs(w[0])
                h = v * w @ v.conj().T
                h = 0.5 * (h + h.conj().T)
            want = np.linalg.eigvalsh(h)
            got = lowest_eigenvalues(h, n)
            assert np.abs(np.array(got) - want).max() <= 1e-14 * np.abs(want).max(), i

    def test_block_diagonal_gives_block_bits(self):
        # with no coupling the 4x4's eigenvalues are its blocks' bit for bit,
        # whether the lower block lies above the upper one or interlaces it
        rng = np.random.default_rng(321)
        for i in range(200):
            scale = 10.0 ** rng.uniform(-4, 1)
            m = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            h = m + m.conj().T
            h[:2, 2:] = h[2:, :2] = 0.0
            h[2:, 2:] += scale * rng.uniform(-2.0, 12.0) * np.eye(2)
            upper = lowest_eigenvalues(h[:2, :2], 2)
            assert lowest_eigenvalues(h, 4) == sorted(upper + lowest_eigenvalues(h[2:, 2:], 2)), i
            if lowest_eigenvalues(h[2:, 2:], 1)[0] > upper[1]:
                assert lowest_eigenvalues(h, 2) == upper, i

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            lowest_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1)
        # a NaN anywhere, not only in T's first diagonal entry
        for n in (2, 4):
            for i in range(n):
                for j in range(i + 1):
                    h = np.diag(np.arange(1.0, n + 1.0)).astype(complex)
                    h[i, j] = h[j, i] = np.nan
                    with pytest.raises(ValueError, match="finite"):
                        lowest_eigenvalues(h, 1)

    @pytest.mark.parametrize("diag", [[0.0, 1.0], [0.0, 0.0, 1.0, 1.0]], ids=["2x2", "4x4"])
    def test_exact_zero_eigenvalue(self, diag):
        # the longest search: bisection runs down to the subnormal spacing of 0
        assert lowest_eigenvalues(np.diag(diag), len(diag)) == diag


class TestXiFactors:
    def test_zero_without_coupling(self, mat):
        assert xi_factors(make_model(mat)) == (0.0, 0.0)

    def test_quadratic_in_pbar(self, mat):
        x1, _ = xi_factors(make_model(mat, pbar_x=10j))
        x2, _ = xi_factors(make_model(mat, pbar_x=20j))
        assert x2 == pytest.approx(4 * x1, rel=1e-12)

    @pytest.mark.parametrize("name", ["pbar_x", "pbar_y"])
    def test_overflow_names_pbar(self, mat, name):
        # |pbar|^2 overflows a double: an error naming the pbar, not inf
        with pytest.raises(ValueError, match=f"{name}.* not finite"):
            xi_factors(make_model(mat, **{name: 1.0e160j}))

    def test_direct_value(self, mat):
        # |pbar_x|^2 / (m gap) = 0.05  ->  xi_x = 0.1
        px = 1j * np.sqrt(0.05 * MASS * GAP)
        assert xi_factors(make_model(mat, pbar_x=px))[0] == pytest.approx(0.1)

    def test_matches_level_repulsion_extraction(self, mat):
        # independent oracle: the drive response of the exact 4-level
        # splitting.  S^2/(g mu_B)^2 is quadratic in the drive b with pure
        # quadratic coefficient (1 + (alpha/beta)^2) k^2, where |k - 1| is
        # the orbital renormalization; static second-order SO fields cancel
        # in the two-point fit.  The magnitude of k - 1 is convention-free
        # (the four-level matrix realizes it with the opposite sign to the
        # (1 + xi) form quoted for the reduced Hamiltonian).
        px = 1j * np.sqrt(0.01 * MASS * GAP)  # xi_x = 0.02
        xi_expected = xi_factors(make_model(mat, pbar_x=px))[0]

        def splitting_sq(b1):
            h4 = build_full_hamiltonian(make_model(mat, pbar_x=px, b1=b1))
            ev = np.linalg.eigvalsh(h4)
            return ((ev[1] - ev[0]) / (abs(mat.g) * MU_B)) ** 2

        b = 0.004
        s0 = splitting_sq(0.0)
        d_full = splitting_sq(b) - s0
        d_half = splitting_sq(b / 2) - s0
        quad = (2.0 * d_full - 4.0 * d_half) / b**2
        k = np.sqrt(quad / (1.0 + (mat.alpha / mat.beta) ** 2))
        assert abs(k - 1.0) == pytest.approx(xi_expected, rel=0.05)

    def test_xi_y_extraction(self, mat):
        py = 1j * np.sqrt(0.01 * MASS * GAP)  # xi_y = 0.02
        xi_expected = xi_factors(make_model(mat, pbar_y=py))[1]

        def splitting_sq(b2):
            h4 = build_full_hamiltonian(make_model(mat, pbar_y=py, b2=b2))
            ev = np.linalg.eigvalsh(h4)
            return ((ev[1] - ev[0]) / (abs(mat.g) * MU_B)) ** 2

        b = 0.004
        s0 = splitting_sq(0.0)
        d_full = splitting_sq(b) - s0
        d_half = splitting_sq(b / 2) - s0
        quad = (2.0 * d_full - 4.0 * d_half) / b**2
        assert abs(np.sqrt(quad) - 1.0) == pytest.approx(xi_expected, rel=0.05)


class TestValidity:
    def test_zero_drive(self, mat):
        assert validity_check(make_model(mat, pbar_x=30j)) == 0.0

    def test_linear_in_drive(self, mat):
        r1 = validity_check(make_model(mat, pbar_x=30j, b1=0.01))
        r2 = validity_check(make_model(mat, pbar_x=30j, b1=0.02))
        assert r2 == pytest.approx(2 * r1, rel=1e-12)

    def test_orbital_adiabaticity_number(self):
        assert orbital_adiabaticity(1.0, 0.1) == pytest.approx(6.6e-3, rel=0.01)
        assert orbital_adiabaticity(1.0, 0.1) < 0.1


class TestClosedForm:
    def test_hermitian_and_offdiagonal_matches_block(self, mat):
        model = make_model(mat, pbar_x=20j, pbar_y=10j, b1=0.03, b2=0.02)
        cf = closed_form_elements(model)
        assert cf[0, 1] == pytest.approx(cf[1, 0].conjugate())
        # the first-order off-diagonal coincides with the drive block entry
        q = partition(build_full_hamiltonian(model)).q
        drive_offdiag = q[0, 1]
        first_order = -mat.alpha * (1j * (-mat.g * MU_B * model.drive_b1
                                          / (2 * mat.beta))
                                    + (-mat.g * MU_B * model.drive_b2
                                       / (2 * mat.alpha)))
        assert drive_offdiag == pytest.approx(first_order, rel=1e-12)
        assert np.isfinite(cf).all()
