"""Property tests of the propagators over random admissible inputs.

Designs with t_f in [0.2, 2] ns and B0 in [0, 0.5] T lie below the B0 limit
(B0_max >= 0.579 T on that range).  For any dephasing rate, source-noise
strength, channel and pure initial state, the propagated density matrix must
keep unit trace and stay positive, its Bloch vector must stay in the unit
ball, and the fidelity must lie in [0, 1].  For any unit initial spinor, the
Schrodinger states (run as a real 4-vector) must keep unit norm, the
fidelity must lie in [0, 1], and the final state must agree with the Bloch
propagator started from the same point, unless the step-halving gate
refuses the run.  A draw whose density run the propagator refuses for
leaving the unit ball (too few steps near the B0 limit) is skipped, as a
gate refusal is.

The design depends on t_f and B0 only through B0 t_f, so the B0 limit is
K / t_f for one material constant K: compute_b0_max(t_f) t_f must equal K
within the bisection tolerance at any t_f.  For the same reason a pulse c
times longer is the same flip on a time axis stretched by c, with fields
and rates divided by c; lam^2 = lambda0^2 t_f grows by c as the squared
fields fall by c^2, so at fixed lambda0^2 the fidelity must not move:
F(t_f, B0, gamma, lambda0^2) = F(c t_f, B0 / c, gamma / c, lambda0^2).
The Euler-Maruyama step scales the same way, as dt and lam sqrt(dt) grow by
c and the fields fall by c, so on the same seed the Monte Carlo sweep's F
and standard error must not move either.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinflip import (IntegratorError, TrajectoryDesign, bloch_to_density,
                      compute_b0_max, fidelity, gaas, propagate_bloch, propagate_density,
                      propagate_schrodinger, spin_to_bloch)
from spinflip.opensys import ensemble_sweep, noise_sweep

TOL = 1e-12


@st.composite
def unit_vectors(draw):
    w = draw(st.floats(-1.0, 1.0))
    phi = draw(st.floats(0.0, 2.0 * np.pi))
    s = np.sqrt(1.0 - w * w)
    return np.array([s * np.cos(phi), s * np.sin(phi), w])


@st.composite
def unit_spinors(draw):
    a = np.array([complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
                  for _ in range(2)])
    nrm = np.linalg.norm(a)
    return a / nrm if nrm > 1e-3 else np.array([1.0, 0.0], dtype=complex)


@settings(max_examples=25, deadline=None)
@given(tf=st.floats(0.2, 2.0), b0=st.floats(0.0, 0.5), gamma=st.floats(0.0, 1.0),
       lambda0=st.floats(0.0, 0.3), channel=st.sampled_from(["as-printed", "x-only"]),
       r0=unit_vectors(), steps=st.integers(1000, 2000))
def test_density_stays_physical(tf, b0, gamma, lambda0, channel, r0, steps):
    design = TrajectoryDesign.design(tf, b0, gaas())
    try:
        traj = propagate_density(design, gamma=gamma, lambda0=lambda0, channel=channel,
                                 steps=steps, rho0=bloch_to_density(r0))
    except IntegratorError as exc:
        # t_f = 1 ns, B0 = 0.5 T at 1000 steps reaches |r| = 1 + 2.4e-12
        if "|r|" not in str(exc):
            raise
        assume(False)
    rho = traj.rho
    assert np.abs(rho[:, 0, 0] + rho[:, 1, 1] - 1.0).max() < TOL
    assert np.abs(rho - rho.conj().transpose(0, 2, 1)).max() < TOL
    assert np.linalg.eigvalsh(rho).min() >= -TOL
    assert np.linalg.norm(traj.bloch(), axis=1).max() <= 1.0 + TOL
    assert 0.0 <= traj.final_fidelity <= 1.0


@settings(max_examples=25, deadline=None)
@given(tf=st.floats(0.2, 2.0), b0=st.floats(0.0, 0.5), psi0=unit_spinors(),
       steps=st.integers(1000, 2000))
def test_spinor_stays_physical(tf, b0, psi0, steps):
    design = TrajectoryDesign.design(tf, b0, gaas())
    try:
        prop = propagate_schrodinger(design, psi0, steps)
    except IntegratorError:
        # too few steps for a long, high-field pulse (t_f = 2 ns, B0 = 0.5 T,
        # 1000 steps): the step-halving gate refuses it, as it must
        assume(False)
    assert np.abs(np.linalg.norm(prop.states, axis=1) - 1.0).max() < TOL
    assert 0.0 <= fidelity(prop) <= 1.0
    # the Schrodinger run passed its step-halving gate and the Bloch run has
    # none, so the Bloch reference takes twice the steps: at 1000 steps its
    # own RK4 error reaches 1.2e-7 near t_f = 2 ns, B0 = 0.5 T
    bloch = propagate_bloch(design, steps=2 * steps, r0=tuple(spin_to_bloch(psi0)))
    assert np.abs(spin_to_bloch(prop.states[-1]) - bloch.r[-1]).max() < 1e-7


@settings(max_examples=25, deadline=None)
@given(c=st.floats(0.2, 5.0), tf=st.floats(0.2, 2.0), b0=st.floats(0.0, 0.5),
       gamma=st.floats(0.0, 1.0), lambda0_sq=st.floats(0.0, 0.09),
       channel=st.sampled_from(["as-printed", "x-only"]), steps=st.integers(1000, 2000))
def test_fidelity_invariant_under_time_rescaling(c, tf, b0, gamma, lambda0_sq, channel,
                                                 steps):
    designs = [TrajectoryDesign.design(tf, b0, gaas()),
               TrajectoryDesign.design(c * tf, b0 / c, gaas())]
    lambda0 = float(np.sqrt(lambda0_sq))
    bloch = [propagate_bloch(d, gamma=g, lambda0=lambda0, channel=channel,
                             steps=steps).final_fidelity
             for d, g in zip(designs, (gamma, gamma / c))]
    assert abs(bloch[0] - bloch[1]) < TOL
    try:
        swept = [noise_sweep(d, [lambda0], channel, steps)[0] for d in designs]
    except IntegratorError:
        # too few steps near the B0 limit: the step-halving gate refuses it
        assume(False)
    assert abs(swept[0] - swept[1]) < TOL


@settings(max_examples=20, deadline=None)
@given(c=st.floats(0.2, 5.0), tf=st.floats(0.2, 2.0), b0=st.floats(0.0, 0.5),
       lambda0_sq=st.floats(0.0, 0.09), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1000, 2000))
def test_monte_carlo_invariant_under_time_rescaling(c, tf, b0, lambda0_sq, seed, steps):
    lambda0 = float(np.sqrt(lambda0_sq))
    (f, se), (f_c, se_c) = (
        ensemble_sweep(TrajectoryDesign.design(t, b, gaas()), [lambda0], seed, 16, steps)[0]
        for t, b in ((tf, b0), (c * tf, b0 / c)))
    assert abs(f - f_c) < TOL
    assert abs(se - se_c) < TOL


@pytest.fixture(scope="module")
def b0max_tf():
    """K = B0_max t_f in T ns, bisected far below the default 1e-3 T tolerance."""
    return compute_b0_max(1.0, gaas(), tol=1e-9)


@settings(max_examples=25, deadline=None)
@given(tf=st.floats(0.05, 5.0))
def test_b0_max_scales_as_one_over_tf(b0max_tf, tf):
    tol = 1e-3
    assert abs(compute_b0_max(tf, gaas(), tol=tol) - b0max_tf / tf) <= 0.5 * tol + 1e-8
