import numpy as np
import pytest

from spinflip import (FieldTriple, build_heff, bloch_to_density, commutator,
                      density_to_bloch, gaas, spin_to_bloch, zeeman_splitting)
from spinflip.constants import HBAR, K_B, MU_B, MaterialParams
from spinflip.core import IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z, bisect

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)


class TestBuildHeff:
    def test_static_field_is_diagonal(self, mat):
        h = build_heff(FieldTriple(0.0, 0.0, 0.075), mat)
        pref = 0.5 * mat.g * MU_B * 0.075
        assert np.allclose(h, np.diag([pref, -pref]))

    def test_zeeman_gap_matches_23mK_caption(self, mat):
        # |g| mu_B B0 at B0 = 0.075 T was quoted as 23 mK after rounding
        h = build_heff(FieldTriple(0.0, 0.0, 0.075), mat)
        gap_mk = abs(h[0, 0] - h[1, 1]).real / K_B * 1e3
        assert gap_mk == pytest.approx(22.2, abs=0.05)
        assert abs(gap_mk - 23.0) / 23.0 < 0.05

    def test_x_drive_gives_real_symmetric_offdiagonal(self, mat):
        h = build_heff(FieldTriple(1.0, 0.0, 0.0), mat)
        assert h[0, 1] == pytest.approx(0.5 * mat.g * MU_B)
        assert h[1, 0] == pytest.approx(0.5 * mat.g * MU_B)
        assert h[0, 1].imag == 0.0

    def test_hermitian_traceless_random_fields(self, mat):
        rng = np.random.default_rng(42)
        for _ in range(100):
            f = FieldTriple(*rng.normal(0.0, 2.0, 3))
            h = build_heff(f, mat)
            assert np.abs(h - h.conj().T).max() == 0.0
            assert h[0, 0] + h[1, 1] == 0.0

    def test_eigenvalue_magnitude(self, mat):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = FieldTriple(*rng.normal(0.0, 1.0, 3))
            ev = np.linalg.eigvalsh(build_heff(f, mat))
            expected = 0.5 * abs(mat.g) * MU_B * np.sqrt(f.X**2 + f.Y**2 + f.Z**2)
            assert abs(ev[1] - expected) <= 1e-12 * max(expected, 1e-30)

    def test_nonfinite_rejected(self, mat):
        with pytest.raises(ValueError):
            build_heff(FieldTriple(np.nan, 0.0, 0.0), mat)
        with pytest.raises(ValueError):
            build_heff(FieldTriple(0.0, np.inf, 0.0), mat)


class TestZeeman:
    def test_gaas_at_0p075T(self):
        dz = zeeman_splitting(-0.44, 0.075)
        assert dz == pytest.approx(-1.9102e-3, rel=1e-4)
        assert abs(dz) / K_B * 1e3 == pytest.approx(22.2, abs=0.05)

    def test_zero_field(self):
        assert zeeman_splitting(-0.44, 0.0) == 0.0
        assert zeeman_splitting(2.0, 0.0) == 0.0

    def test_doubling_field(self):
        assert zeeman_splitting(-0.44, 0.15) == pytest.approx(
            2 * zeeman_splitting(-0.44, 0.075))
        assert zeeman_splitting(-0.44, 0.15) == pytest.approx(-3.8203e-3, rel=1e-4)


class TestBlochConversions:
    def test_poles_and_equator(self):
        assert np.allclose(spin_to_bloch(UP), [0, 0, 1])
        assert np.allclose(spin_to_bloch(DOWN), [0, 0, -1])
        plus = (UP + DOWN) / np.sqrt(2)
        assert np.allclose(spin_to_bloch(plus), [1, 0, 0])

    def test_maximally_mixed_center(self):
        assert np.allclose(density_to_bloch(IDENTITY2 / 2), [0, 0, 0])

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            back = bloch_to_density(density_to_bloch(rho))
            assert np.abs(back - rho).max() < 1e-12

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError):
            density_to_bloch(np.eye(2, dtype=complex))

    def test_non_hermitian_rejected(self):
        # the real parts of such a matrix used to be read as a Bloch vector
        with pytest.raises(ValueError, match="adjoint"):
            density_to_bloch(np.array([[0.5, 0.3], [0.1, 0.5]]))
        with pytest.raises(ValueError, match="adjoint"):
            density_to_bloch(np.array([[0.5, 0.3j], [0.3j, 0.5]]))

    def test_stack_to_density_matches_one_by_one(self):
        r = np.random.default_rng(6).normal(size=(4, 5, 3))
        assert bloch_to_density(r).shape == (4, 5, 2, 2)
        assert np.array_equal(bloch_to_density(r)[2, 3], bloch_to_density(r[2, 3]))

    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(4)
        psi = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        rho = psi[:, :, None] * psi[:, None, :].conj()
        assert np.array_equal(density_to_bloch(rho),
                              np.array([density_to_bloch(r) for r in rho]))
        rho[3] *= 2.0
        with pytest.raises(ValueError, match="trace"):
            density_to_bloch(rho)


class TestCommutator:
    def test_pauli_algebra(self):
        assert np.abs(commutator(SIGMA_X, SIGMA_X)).max() == 0.0
        assert np.allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)
        assert np.allclose(commutator(SIGMA_Y, SIGMA_Z), 2j * SIGMA_X)

    def test_identity_commutes(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.abs(commutator(IDENTITY2, m)).max() == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(commutator(a, b), -commutator(b, a))


class TestMaterialParams:
    def test_eta_for_gaas(self, mat):
        assert mat.eta == pytest.approx(-0.44 * MU_B / HBAR)
        assert mat.eta == pytest.approx(-38.69, rel=1e-3)

    def test_velocities(self, mat):
        assert mat.alpha == pytest.approx(2e-6 / HBAR)
        assert mat.beta == pytest.approx(mat.alpha / 2)

    def test_zero_couplings_rejected(self):
        with pytest.raises(ValueError):
            MaterialParams(hbar_alpha=0.0, hbar_beta=1e-6, g=-0.44)
        with pytest.raises(ValueError):
            MaterialParams(hbar_alpha=1e-6, hbar_beta=0.0, g=-0.44)

    def test_zero_g_rejected(self):
        # the fields divide by eta = g mu_B / hbar; g = 0 used to surface as
        # a non-cancellable singularity
        with pytest.raises(ValueError, match="g must be nonzero"):
            MaterialParams(hbar_alpha=2e-6, hbar_beta=1e-6, g=0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MaterialParams(hbar_alpha=np.nan, hbar_beta=1e-6, g=-0.44)

    @pytest.mark.parametrize("xi", [{"xi_x": -1.0}, {"xi_y": -2.5}], ids=["xi_x", "xi_y"])
    def test_xi_at_or_below_minus_one_rejected(self, xi):
        # the drive fields divide by 1 + xi
        with pytest.raises(ValueError, match="must be > -1"):
            MaterialParams(hbar_alpha=2e-6, hbar_beta=1e-6, g=-0.44, **xi)
        assert MaterialParams(2e-6, 1e-6, -0.44, -0.5, -0.5).xi_x == -0.5


class TestBisect:
    @pytest.mark.parametrize("root", [0.0, 1e-300, 0.3, -2.5, 1e10])
    def test_ends_at_adjacent_doubles(self, root):
        lo, hi = bisect(lambda x: x < root, -1e12, 1e12)
        assert np.nextafter(lo, np.inf) == hi
        assert lo < root <= hi

    def test_stops_within_tol(self):
        calls = []
        lo, hi = bisect(lambda x: calls.append(x) or x < 0.7, 0.0, 1.0, tol=1e-3)
        assert hi - lo <= 1e-3 < 2.0 * (hi - lo)
        assert lo < 0.7 <= hi and len(calls) == 10

    def test_bracket_within_tol_unchanged(self):
        def below(x):
            raise AssertionError(f"probed {x}")
        assert bisect(below, 0.25, 0.2505, tol=1e-3) == (0.25, 0.2505)
        assert bisect(below, 1.0, np.nextafter(1.0, 2.0)) == (1.0, np.nextafter(1.0, 2.0))
