import numpy as np
import pytest

from spinflip import TrajectoryDesign, eval_angles, gaas, solve_phi, solve_theta
from spinflip.constants import MaterialParams

from oracles import angle_cubics

TFS = [0.1, 0.5, 1.0, 5.0]
# TestConditioning's second material
OTHER = MaterialParams(hbar_alpha=1e-6, hbar_beta=3e-6, g=2.0)


class TestSolveTheta:
    def test_unit_tf_coefficients(self):
        # closed form: theta(s) = 3 pi s^2 - 2 pi s^3
        th = solve_theta(1.0)
        assert np.allclose(np.asarray(th.coeffs), [0.0, 0.0, 3 * np.pi, -2 * np.pi],
                           atol=1e-12)

    def test_midpoint_value_any_tf(self):
        for tf in TFS:
            assert solve_theta(tf)(tf / 2) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_midpoint_slope(self):
        assert solve_theta(1.0).deriv(0.5) == pytest.approx(3 * np.pi / 2, abs=1e-12)

    def test_monotone(self):
        th = solve_theta(0.3)
        vals = [th(t) for t in np.linspace(0.0, 0.3, 400)]
        assert np.all(np.diff(vals) >= -1e-14)

    def test_point_symmetry(self):
        th = solve_theta(2.0)
        for t in np.linspace(0.0, 2.0, 101):
            assert th(t) + th(2.0 - t) == pytest.approx(np.pi, abs=1e-10)

    def test_bad_tf(self):
        with pytest.raises(ValueError):
            solve_theta(0.0)
        with pytest.raises(ValueError):
            solve_theta(-1.0)


class TestSolvePhi:
    def test_reference_case(self, mat):
        # tf=1, B0=0.15: slope = 0.5 * 3pi/2 - eta*0.15, coefficients from the
        # hand-solved system c1 = -2pi - 2D, c2 = 2pi + 6D, c3 = -4D
        ph = solve_phi(1.0, 0.15, mat)
        d = 0.5 * 1.5 * np.pi - mat.eta * 0.15
        assert d == pytest.approx(8.160, abs=5e-4)
        assert np.allclose(np.asarray(ph.coeffs),
                           [np.pi / 2, -2 * np.pi - 2 * d, 2 * np.pi + 6 * d, -4 * d],
                           rtol=1e-12)
        assert np.allclose(np.asarray(ph.coeffs), [np.pi / 2, -22.60, 55.24, -32.64],
                           atol=5e-3)
        assert abs(ph(1.0) - np.pi / 2) < 1e-10

    def test_symmetric_when_slope_vanishes(self, mat):
        # eta B0 = (beta/alpha) thetad(tf/2) makes phi symmetric about tf/2
        tf = 1.0
        b0 = 0.5 * (3 * np.pi / (2 * tf)) / mat.eta
        ph = solve_phi(tf, b0, mat)
        assert ph.deriv(tf / 2) == pytest.approx(0.0, abs=1e-10)
        for t in np.linspace(0.0, tf, 51):
            assert ph(t) == pytest.approx(ph(tf - t), abs=1e-10)

    def test_boundary_residuals_across_tf(self, mat):
        for tf in TFS:
            design = TrajectoryDesign.design(tf, 0.15, mat)
            assert np.abs(design.boundary_residuals()).max() < 1e-9


class TestEvalAngles:
    def test_endpoints(self, design):
        th0, ph0, thd0, _ = eval_angles(design, 0.0)
        assert (th0, ph0, thd0) == pytest.approx((0.0, np.pi / 2, 0.0), abs=1e-12)
        thf, phf, thdf, _ = eval_angles(design, design.tf)
        assert (thf, phf, thdf) == pytest.approx((np.pi, np.pi / 2, 0.0), abs=1e-10)

    def test_midpoint(self, design):
        th, ph, thd, phd = eval_angles(design, design.tf / 2)
        m = design.mat
        assert th == pytest.approx(np.pi / 2, abs=1e-12)
        assert ph == pytest.approx(0.0, abs=1e-12)
        assert thd == pytest.approx(3 * np.pi / (2 * design.tf), abs=1e-10)
        assert phd == pytest.approx(
            (m.beta / m.alpha) * 3 * np.pi / (2 * design.tf) - m.eta * design.b0,
            abs=1e-9)

    def test_domain_enforced(self, design):
        with pytest.raises(ValueError):
            eval_angles(design, -0.01)
        with pytest.raises(ValueError):
            eval_angles(design, design.tf + 0.01)

    def test_populations_sum_to_one(self, design):
        for t in np.linspace(0.0, design.tf, 97):
            th = design.theta(t)
            p_up, p_dn = np.cos(th / 2) ** 2, np.sin(th / 2) ** 2
            assert p_up + p_dn == pytest.approx(1.0, abs=1e-15)


class TestConditioning:
    def test_small_tf_still_exact(self):
        # the closed forms in s = t/tf stay exact at tiny tf
        mat = gaas()
        design = TrajectoryDesign.design(1e-3, 0.15, mat)
        assert np.abs(design.boundary_residuals()).max() < 1e-9

    def test_other_material(self):
        design = TrajectoryDesign.design(0.7, 0.4, OTHER)
        assert np.abs(design.boundary_residuals()).max() < 1e-9

    @pytest.mark.parametrize("tf", [1e-103, 1e-105, 1e-110, 1e-320])
    def test_coefficients_beyond_float_range_rejected(self, tf):
        # pi / tf^3 overflows, or tf^3 underflows to 0; a warning would fail
        # the test, so the division runs silently and the check raises
        with pytest.raises(ValueError, match="too small"):
            solve_theta(tf)
        with pytest.raises(ValueError, match="too small"):
            solve_phi(tf, 0.0, gaas())

    @pytest.mark.parametrize("tf", [1e103, 1e200, np.float64(1e200), 1e308],
                             ids=["1e103", "1e200", "1e200-numpy", "1e308"])
    def test_cube_overflow_rejected(self, tf):
        # tf^3 overflows: as a Python float power it raises OverflowError, as
        # a numpy one it is inf and would leave zero coefficients
        with pytest.raises(ValueError, match="too large"):
            solve_theta(tf)
        with pytest.raises(ValueError, match="too large"):
            solve_phi(tf, 0.0, gaas())

    def test_tiny_finite_coefficients_accepted(self):
        # 1e-100 ns: pi / tf^3 is about 3e300, still finite
        design = TrajectoryDesign.design(1e-100, 0.15, gaas())
        assert np.isfinite(np.asarray(design.theta.coeffs)).all()
        assert np.isfinite(np.asarray(design.phi.coeffs)).all()


@pytest.mark.parametrize("material", [gaas(), OTHER], ids=["gaas", "other"])
@pytest.mark.parametrize("b0_tf", [0.0, 0.15, 1.05, 2.0])
@pytest.mark.parametrize("tf", [1e-3, 0.1, 1.0, 5.0])
def test_closed_forms_match_boundary_solves(tf, b0_tf, material):
    # each cubic within 1e-14 of its largest coefficient of the LAPACK solve
    # of its four boundary conditions
    design = TrajectoryDesign.design(tf, b0_tf / tf, material)
    for got, want in zip((design.theta, design.phi), angle_cubics(tf, b0_tf / tf, material)):
        assert np.abs(np.asarray(got.coeffs) - want).max() <= 1e-14 * np.abs(want).max()
