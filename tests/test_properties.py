"""Property tests of the mixed-state propagator over random admissible inputs.

Designs with t_f in [0.2, 2] ns and B0 in [0, 0.5] T lie below the B0 limit
(B0_max >= 0.579 T on that range).  For any dephasing rate, source-noise
strength, channel and pure initial state, the propagated density matrix must
keep unit trace and stay positive, its Bloch vector must stay in the unit
ball, and the fidelity must lie in [0, 1].
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinflip import TrajectoryDesign, bloch_to_density, gaas, propagate_density

TOL = 1e-12


@st.composite
def unit_vectors(draw):
    w = draw(st.floats(-1.0, 1.0))
    phi = draw(st.floats(0.0, 2.0 * np.pi))
    s = np.sqrt(1.0 - w * w)
    return np.array([s * np.cos(phi), s * np.sin(phi), w])


@settings(max_examples=25, deadline=None)
@given(tf=st.floats(0.2, 2.0), b0=st.floats(0.0, 0.5), gamma=st.floats(0.0, 1.0),
       lambda0=st.floats(0.0, 0.3), channel=st.sampled_from(["as-printed", "x-only"]),
       r0=unit_vectors(), steps=st.integers(1000, 2000))
def test_density_stays_physical(tf, b0, gamma, lambda0, channel, r0, steps):
    design = TrajectoryDesign.design(tf, b0, gaas())
    traj = propagate_density(design, gamma=gamma, lambda0=lambda0, channel=channel,
                             steps=steps, rho0=bloch_to_density(r0))
    rho = traj.rho
    assert np.abs(rho[:, 0, 0] + rho[:, 1, 1] - 1.0).max() < TOL
    assert np.abs(rho - rho.conj().transpose(0, 2, 1)).max() < TOL
    assert np.linalg.eigvalsh(rho).min() >= -TOL
    assert np.linalg.norm(traj.bloch(), axis=1).max() <= 1.0 + TOL
    assert 0.0 <= traj.final_fidelity <= 1.0
