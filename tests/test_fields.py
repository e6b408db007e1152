import dataclasses
import json

import numpy as np
import pytest

from spinflip import (IntegratorError, SingularityError, TrajectoryDesign,
                      compute_b0_max, detect_singularities, effective_fields,
                      electric_fields, fields_xyz_at, sample_fields,
                      verify_cancellation)
from spinflip.constants import MEV_PER_E_CM_TO_V_PER_CM, MU_B, MaterialParams, gaas
from spinflip.fields import (CANCEL_REL_TOL, E_EDGE_FRAC, E_STEP_FRAC,
                             cancellation_scale)
from spinflip.trajectory import CubicPolynomial, eval_angles

from oracles import b1_b2_at, fields_xyz


def electric_reference(design, samples):
    """(Ex, Ey) on the sample grid by per-point central differences (step
    h/2) over the per-point oracles.b1_b2_at: the oracle for the vectorized
    stencil."""
    tc, pc, tf, b0, m = design.theta.coeffs, design.phi.coeffs, design.tf, design.b0, design.mat
    al, be, eta, xi = m.alpha, m.beta, m.eta, (m.xi_x, m.xi_y)
    edge, h = E_EDGE_FRAC * tf, 0.5 * E_STEP_FRAC * tf
    pref_x = design.mat.g * MU_B / (2.0 * be) * MEV_PER_E_CM_TO_V_PER_CM
    pref_y = design.mat.g * MU_B / (2.0 * al) * MEV_PER_E_CM_TO_V_PER_CM
    out = []
    for t in np.linspace(0.0, tf, samples):
        t = min(max(float(t), edge), tf - edge)
        p = b1_b2_at(t + h, tc, pc, tf, b0, al, be, eta, *xi)
        m = b1_b2_at(t - h, tc, pc, tf, b0, al, be, eta, *xi)
        out.append((pref_x * ((p[0] - m[0]) / (2.0 * h)),
                    pref_y * ((p[1] - m[1]) / (2.0 * h))))
    return np.array(out)


def auxiliary_rhs(design, t):
    """Forward evaluation of the invariant auxiliary equations: the
    independent oracle for the inverted field formulas."""
    th, ph, _, _ = eval_angles(design, t)
    x, y, z = fields_xyz_at(design, t)
    eta = design.mat.eta
    thd = eta * (x * np.sin(ph) - y * np.cos(ph))
    cot = np.cos(th) / np.sin(th)
    phd = eta * (x * np.cos(ph) * cot + y * np.sin(ph) * cot - z)
    return thd, phd


class TestSelfConsistency:
    def test_fields_reproduce_angle_derivatives(self, design):
        # 1001 uniform nodes, guard windows excluded
        ts = np.linspace(0.0, design.tf, 1001)[1:-1]
        worst = 0.0
        for t in ts:
            if abs(t - design.tf / 2) < 1e-5 * design.tf:
                continue
            thd, phd = auxiliary_rhs(design, t)
            thd_ref = design.theta.deriv(t)
            phd_ref = design.phi.deriv(t)
            worst = max(worst,
                        abs(thd - thd_ref) / max(abs(thd_ref), 1e-9),
                        abs(phd - phd_ref) / max(abs(phd_ref), 1e-9))
        assert worst < 1e-6

    def test_high_field_design_consistent_too(self, mat):
        design = TrajectoryDesign.design(1.0, 1.05, mat)
        for t in np.linspace(0.07, 0.93, 197):
            if abs(t - 0.5) < 1e-4:
                continue
            thd, phd = auxiliary_rhs(design, t)
            assert thd == pytest.approx(design.theta.deriv(t), rel=1e-6, abs=1e-9)
            assert phd == pytest.approx(design.phi.deriv(t), rel=1e-6, abs=1e-9)


class TestSingularityHandling:
    def test_denominator_vanishes_at_midpoint(self, design):
        th, ph, _, _ = eval_angles(design, design.tf / 2)
        m = design.mat
        den = m.alpha * np.cos(th) / np.sin(th) - m.beta * np.sin(ph)
        assert abs(den) < 1e-12 * m.alpha

    def test_two_sided_limits_agree(self, design):
        off = 1e-6 * design.tf
        left = effective_fields(design, design.tf / 2 - off)
        right = effective_fields(design, design.tf / 2 + off)
        for l, r in zip(left, right):
            assert abs(l - r) / abs(l) < 1e-4

    def test_guarded_value_between_limits(self, design):
        off = 1e-6 * design.tf
        mid = effective_fields(design, design.tf / 2)
        left = effective_fields(design, design.tf / 2 - off)
        right = effective_fields(design, design.tf / 2 + off)
        for m, l, r in zip(mid, left, right):
            assert min(l, r) - 1e-8 <= m <= max(l, r) + 1e-8

    def test_endpoints_are_zero_limits(self, design):
        assert effective_fields(design, 0.0) == (0.0, 0.0)
        assert effective_fields(design, design.tf) == (0.0, 0.0)
        b1, b2 = effective_fields(design, 5e-4 * design.tf)
        assert abs(b1) < 1e-4 and abs(b2) < 1e-3

    def test_non_cancellable_point_raises(self, mat):
        bad = TrajectoryDesign.design(1.0, 2.0, mat)
        report = detect_singularities(bad)
        ts = [t for t, ok in zip(report.times, report.cancellable) if not ok][0]
        with pytest.raises(SingularityError) as err:
            effective_fields(bad, ts)
        assert err.value.residual > 0.0


class TestFieldsXYZ:
    def test_no_drive(self, mat):
        assert fields_xyz(0.0, 0.0, 0.15, mat) == (0.0, 0.0, 0.15)

    def test_stated_map(self):
        mat = MaterialParams(hbar_alpha=2e-6, hbar_beta=1e-6, g=-0.44)
        x, y, z = fields_xyz(0.1, 0.0, 0.2, mat)
        assert (x, y, z) == pytest.approx((0.0, 0.2, 0.3))

    def test_xi_scaling(self):
        mat = MaterialParams(hbar_alpha=2e-6, hbar_beta=1e-6, g=-0.44, xi_x=0.1)
        x, y, z = fields_xyz(0.1, 0.0, 0.2, mat)
        assert y == pytest.approx(2.0 * 1.1 * 0.1)
        assert z - 0.2 == pytest.approx(1.1 * 0.1)

    def test_linearity_superposition(self, mat):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a1, a2, b1, b2, s = rng.normal(size=5)
            lhs = np.array(fields_xyz(a1 + s * b1, a2 + s * b2, 0.0, mat))
            rhs = (np.array(fields_xyz(a1, a2, 0.0, mat))
                   + s * np.array(fields_xyz(b1, b2, 0.0, mat)))
            assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())

    def test_xyz_independent_of_xi(self, design):
        mat_xi = MaterialParams(hbar_alpha=2e-6, hbar_beta=1e-6, g=-0.44,
                                xi_x=0.2, xi_y=0.1)
        design_xi = TrajectoryDesign.design(1.0, 0.15, mat_xi)
        for t in (0.2, 0.5, 0.8):
            assert np.allclose(fields_xyz_at(design, t),
                               fields_xyz_at(design_xi, t), rtol=1e-12)

    def test_xyz_bitwise_independent_of_xi(self, design):
        # applying the xi factors and taking them back out used to move the
        # last bits at most of these points
        design_xi = TrajectoryDesign.design(1.0, 0.15, gaas(0.3, 0.7))
        for t in np.linspace(0.01, 0.99, 200).tolist():
            assert fields_xyz_at(design, t) == fields_xyz_at(design_xi, t), t


class TestElectricFields:
    def test_smooth_for_low_field(self, design):
        es = np.array([electric_fields(design, t)
                       for t in np.linspace(0.0, 1.0, 501)])
        assert np.isfinite(es).all()
        assert np.abs(es).max() < 0.1  # V/cm; smooth regime, no poles

    def test_sharp_peaks_near_limit(self, mat, design):
        near = TrajectoryDesign.design(1.0, 1.05, mat)
        ts = np.linspace(0.0, 1.0, 501)
        e_near = np.array([electric_fields(near, t) for t in ts])
        e_low = np.array([electric_fields(design, t) for t in ts])
        assert np.abs(e_near[:, 0]).max() > 5 * np.abs(e_low[:, 0]).max()
        assert np.abs(e_near[:, 1]).max() > 5 * np.abs(e_low[:, 1]).max()

    def test_derivative_integrates_back_to_b1(self, design):
        # fundamental theorem of calculus on a subinterval clear of the
        # endpoints: trapezoid of dB1/dt recovers B1(t1) - B1(t0)
        from spinflip.constants import MU_B, MEV_PER_E_CM_TO_V_PER_CM
        t0, t1 = 0.1, 0.4
        ts = np.linspace(t0, t1, 20001)
        pref = design.mat.g * MU_B / (2 * design.mat.beta) * MEV_PER_E_CM_TO_V_PER_CM
        db1 = np.array([electric_fields(design, t)[0] for t in ts]) / pref
        integral = np.trapezoid(db1, ts)
        expected = (effective_fields(design, t1)[0]
                    - effective_fields(design, t0)[0])
        assert integral == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("t", [-0.1, 1.5])
    def test_rejects_time_outside_pulse(self, design, t):
        # the same error as effective_fields, not the field at the clamp edge
        with pytest.raises(ValueError) as got:
            electric_fields(design, t)
        with pytest.raises(ValueError) as want:
            effective_fields(design, t)
        assert str(got.value) == str(want.value)

    def test_xi_rescales_required_drive(self, mat):
        # E fields renormalize by 1/(1+xi); XYZ stays fixed
        mat_xi = MaterialParams(hbar_alpha=2e-6, hbar_beta=1e-6, g=-0.44,
                                xi_x=0.25, xi_y=0.0)
        base = TrajectoryDesign.design(1.0, 0.15, mat)
        scaled = TrajectoryDesign.design(1.0, 0.15, mat_xi)
        ex0, _ = electric_fields(base, 0.3)
        ex1, _ = electric_fields(scaled, 0.3)
        assert ex1 == pytest.approx(ex0 / 1.25, rel=1e-9)


class TestDetectSingularities:
    def test_single_root_low_field(self, design):
        rep = detect_singularities(design)
        assert rep.times == (0.5,)
        assert rep.cancellable == (True,)

    def test_single_root_near_limit(self, mat):
        rep = detect_singularities(TrajectoryDesign.design(1.0, 1.05, mat))
        assert len(rep.times) == 1
        assert rep.times[0] == pytest.approx(0.5, abs=1e-9)
        assert rep.all_cancellable

    def test_extra_roots_above_limit(self, mat):
        rep = detect_singularities(TrajectoryDesign.design(1.0, 2.0, mat))
        assert len(rep.times) > 1
        assert not all(rep.cancellable)

    @pytest.mark.parametrize("b0, times, cancellable, residuals", [
        (0.15, (0.5,), (True,), (2.6020852139652106e-18,)),
        (1.05, (0.5,), (True,), (6.678685382510707e-17,)),
        (2.0,
         (0.4289396575626252, 0.454416707323465, 0.5, 0.5451963837792266,
          0.5703557963927979),
         (False, False, True, False, False),
         (0.011067021544692595, 0.005195034555315741, 6.678685382510707e-17,
          0.008437431548651411, 0.007056729793157461)),
    ])
    def test_report_pinned(self, mat, b0, times, cancellable, residuals):
        # recorded on the closed-form design cubics, which no LAPACK core
        # can move; the vectorized scan and the scalar bisection probe must
        # reproduce it exactly
        rep = detect_singularities(TrajectoryDesign.design(1.0, b0, mat))
        assert rep.times == times
        assert rep.cancellable == cancellable
        assert rep.numerator_residuals == residuals

    def test_report_is_plain_json(self, mat):
        # Python bools and floats, so the report serializes as it stands
        rep = detect_singularities(TrajectoryDesign.design(1.0, 2.0, mat))
        assert [type(c) for c in rep.cancellable] == [bool] * len(rep.times)
        doc = dataclasses.asdict(rep)
        assert json.loads(json.dumps(doc)) == {k: list(v) for k, v in doc.items()}

    def test_midpoint_always_reported(self, mat):
        for b0 in (0.0, 0.3, 1.5):
            rep = detect_singularities(TrajectoryDesign.design(1.0, b0, mat))
            assert any(abs(t - 0.5) < 1e-9 for t in rep.times)

    def test_grid_minimum(self, design):
        with pytest.raises(ValueError):
            detect_singularities(design, grid=50)


class TestVerifyCancellation:
    def test_compliant_design_below_tolerance(self, design):
        ts = design.tf / 2
        assert (verify_cancellation(design, ts)
                < CANCEL_REL_TOL * cancellation_scale(design, ts))

    def test_perturbed_slope_breaks_cancellation(self, design):
        # adding a*(t - tf/2) to phi keeps tf/2 a denominator root but
        # shifts phid(tf/2) by a, leaving numerator ~ alpha*a behind
        residuals = []
        for a in (1.0, 2.0):
            c = np.array(design.phi.coeffs)
            c[0] -= a * design.tf / 2
            c[1] += a
            bad = TrajectoryDesign(theta=design.theta,
                                   phi=CubicPolynomial(tuple(c), design.tf),
                                   tf=design.tf, b0=design.b0, mat=design.mat)
            residuals.append(verify_cancellation(bad, design.tf / 2))
            scale = cancellation_scale(bad, design.tf / 2)
            assert not residuals[-1] < CANCEL_REL_TOL * scale
        assert residuals[0] == pytest.approx(design.mat.alpha * 1.0, rel=1e-9)
        assert residuals[1] == pytest.approx(2 * residuals[0], rel=1e-9)

    def test_large_alpha_limit(self):
        # beta/alpha -> 0 reduces the condition to phid + eta B0 = 0
        mat = MaterialParams(hbar_alpha=2e-3, hbar_beta=1e-6, g=-0.44)
        design = TrajectoryDesign.design(1.0, 0.15, mat)
        assert (verify_cancellation(design, 0.5)
                < CANCEL_REL_TOL * cancellation_scale(design, 0.5))


class TestB0Max:
    def test_above_paper_operating_point(self, mat):
        b0max = compute_b0_max(1.0, mat, b0_hi=5.0)
        assert b0max > 1.05
        assert b0max == pytest.approx(1.159, abs=5e-3)

    def test_decreases_with_tf(self, mat):
        assert compute_b0_max(0.5, mat, 10.0) > compute_b0_max(1.0, mat, 10.0)

    def test_grid_refinement_stable(self, mat):
        coarse = compute_b0_max(1.0, mat, 5.0, grid=1001)
        fine = compute_b0_max(1.0, mat, 5.0, grid=4001)
        assert abs(coarse - fine) < 2e-3

    def test_bracket_failure(self, mat):
        with pytest.raises(ValueError):
            compute_b0_max(1.0, mat, b0_hi=0.5)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_bad_tol_rejected(self, mat, tol):
        # with nan or inf the bisection would stop at once; with 0 or below
        # it would never stop, as a bracket of two adjacent floats cannot shrink
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            compute_b0_max(1.0, mat, b0_hi=5.0, tol=tol)

    def test_tol_below_float_resolution_returns(self, mat):
        assert compute_b0_max(1.0, mat, b0_hi=5.0, tol=1e-300) == pytest.approx(1.159, abs=5e-3)

    def test_realizable_predicate(self, mat):
        assert detect_singularities(TrajectoryDesign.design(1.0, 0.15, mat)).realizable
        assert not detect_singularities(TrajectoryDesign.design(1.0, 5.0, mat)).realizable


class TestSampling:
    def test_sample_fields_table(self, design):
        t, b1, b2, ex, ey = sample_fields(design, 101)
        assert len(t) == 101
        assert t[0] == 0.0 and t[-1] == design.tf
        assert np.isfinite([b1, b2, ex, ey]).all()

    def test_sample_fields_rejects_bad_design(self, mat):
        bad = TrajectoryDesign.design(1.0, 2.0, mat)
        with pytest.raises(SingularityError):
            sample_fields(bad, 101)

    @pytest.mark.parametrize("tf, b0", [(1.0, 0.15), (1.0, 1.05), (0.1, 0.15)])
    def test_sample_fields_match_per_point_stencil(self, mat, tf, b0):
        design = TrajectoryDesign.design(tf, b0, mat)
        t, _, _, ex, ey = sample_fields(design, 1001)
        got = np.column_stack([ex, ey])
        assert np.array_equal(got, electric_reference(design, 1001))
        assert ex[:3].tolist() == [electric_fields(design, ti)[0] for ti in t[:3].tolist()]

    def test_unconverged_stencil_reports_first_sample(self, mat, monkeypatch):
        # a step of 1e-5 tf misses the halving tolerance near the edges of
        # a design close to the B0 limit
        monkeypatch.setattr("spinflip.fields.E_STEP_FRAC", 1e-5)
        near = TrajectoryDesign.design(1.0, 1.05, mat)
        with pytest.raises(IntegratorError) as exc:
            sample_fields(near, 1001)
        assert str(exc.value) == (
            "electric-field derivative did not converge at t=5e-06 ns "
            "(4.348229e-04 vs 3.865175e-04 T/ns)")
