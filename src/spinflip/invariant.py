"""Dynamical invariant, Lewis-Riesenfeld phases, and closed-system propagation.

The invariant shares eigenstates with the effective Hamiltonian at t = 0 and
t_f (the commutators vanish there by the boundary conditions), so a state
prepared in chi_plus follows it through the flip.  Propagation is fixed-step
RK4 with fields evaluated from closed-form synthesis at every stage time; a
mandatory step-halving gate guards convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .constants import HBAR, MU_B, MaterialParams
from .core import FieldTriple, build_heff, commutator, initial_state, spin_to_bloch
from .errors import IntegratorError, SingularityError
from .fields import fields_xyz_at, require_cancellable, verify_cancellation
from .trajectory import TrajectoryDesign, eval_angles

GATE_TOL = 1e-8
MIN_GATED_STEPS = 1000
# how far a population, a modulus or a Bloch-vector norm may leave [0, 1] by
# rounding alone
ROUNDING_TOL = 1e-12
POLE_TOL = 1e-9


def check_steps(steps: int, minimum: int) -> None:
    """ValueError unless steps >= minimum."""
    if steps < minimum:
        raise ValueError(f"steps must be >= {minimum}, got {steps}")


def gate(coarse_final: np.ndarray, fine_final: np.ndarray) -> float:
    """Step-doubling gate (Hairer, Norsett & Wanner, Solving ODEs I, II.4): max
    |coarse - fine| of the final states at steps and 2 steps, returned if it is
    <= GATE_TOL, else IntegratorError (a NaN fails too)."""
    delta = float(np.max(np.abs(coarse_final - fine_final)))
    if not delta <= GATE_TOL:
        raise IntegratorError(
            f"step-halving gate failed: final state moved by {delta:.3e} > {GATE_TOL}")
    return delta


@dataclass(frozen=True)
class InvariantSpec:
    """Design plus the arbitrary constant field B_c fixing the invariant scale."""

    bc: float
    design: TrajectoryDesign


@dataclass(frozen=True)
class Propagation:
    """Time grid, states, and integrator metadata."""

    times: np.ndarray
    states: np.ndarray          # (n+1, *batch, d) per node, or the final (*batch, d) alone
    steps: int
    max_norm_drift: float
    gate_delta: float


def invariant_matrix(spec: InvariantSpec, t: float) -> np.ndarray:
    """(g mu_B B_c / 2) [[cos th, sin th e^{i phi}], [sin th e^{-i phi}, -cos th]]."""
    th, ph, _, _ = eval_angles(spec.design, t)
    pref = 0.5 * spec.design.mat.g * MU_B * spec.bc
    off = pref * np.sin(th) * np.exp(1j * ph)
    return np.array([[pref * np.cos(th), off],
                     [off.conjugate(), -pref * np.cos(th)]], dtype=complex)


def chi_eigenstates(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal invariant eigenstates chi_plus, chi_minus."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    chi_p = np.array([c * np.exp(1j * phi), s], dtype=complex)
    chi_m = np.array([s, -c * np.exp(-1j * phi)], dtype=complex)
    return chi_p, chi_m


def invariance_residual(spec: InvariantSpec, t: float,
                        fields: FieldTriple | None = None) -> float:
    """Frobenius norm of dI/dt = dI/dt|_explicit - [H, I]/(i hbar) in meV/ns.

    The explicit part is analytic in (thetad, phid); the fields default to
    the synthesized ones, which make the residual vanish.  Passing other
    fields shows how specific the invariance is to the design.
    """
    th, ph, thd, phd = eval_angles(spec.design, t)
    pref = 0.5 * spec.design.mat.g * MU_B * spec.bc
    eip = np.exp(1j * ph)
    doff = pref * (np.cos(th) * thd + 1j * np.sin(th) * phd) * eip
    didt = np.array([[-pref * np.sin(th) * thd, doff],
                     [doff.conjugate(), pref * np.sin(th) * thd]], dtype=complex)
    if fields is None:
        fields = fields_xyz_at(spec.design, t)
    h = build_heff(fields, spec.design.mat)
    i_mat = invariant_matrix(spec, t)
    resid = didt - commutator(h, i_mat) / (1j * HBAR)
    return float(np.linalg.norm(resid))


def _simpson(values: np.ndarray, h: float) -> float:
    n = len(values)
    assert n % 2 == 1
    return float(h / 3.0 * (values[0] + values[-1]
                            + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()))


def lr_phase(spec: InvariantSpec, branch: int, t: float, nodes: int = 1001) -> float:
    """Lewis-Riesenfeld phase alpha_n(t) by composite Simpson quadrature.

    branch is +1 or -1.  nodes rounds up to the next 4k + 1, so that Simpson's
    rule on every other node, the halved estimate, has an odd count too; the
    two estimates must differ by less than 1e-6 rad, else IntegratorError.
    """
    if branch not in (+1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    design = spec.design
    if not 0.0 <= t <= design.tf:
        raise ValueError(f"t={t} outside [0, {design.tf}]")
    if t == 0.0:
        return 0.0
    if nodes < 3:
        raise ValueError("nodes must be >= 3")
    nodes += (1 - nodes) % 4
    tc, pc, eta = design.theta.coeffs, design.phi.coeffs, design.mat.eta
    ts = np.linspace(0.0, t, nodes)
    x, y, z = K._xyz(design, ts)
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y) & np.isfinite(z)))
    if bad.size:
        t_bad = float(ts[bad[0]])
        raise SingularityError(t_bad, verify_cancellation(design, t_bad))
    th, ph, phd = K.poly3(tc, ts), K.poly3(pc, ts), K.dpoly3(pc, ts)
    # d(alpha_plus)/dt on the nodes; the minus branch is its negative
    rate = (-phd * np.cos(th / 2.0) ** 2
            - 0.5 * eta * (z * np.cos(th) + np.sin(th) * (x * np.cos(ph) + y * np.sin(ph))))
    full = _simpson(rate, ts[1] - ts[0])
    half = _simpson(rate[::2], ts[2] - ts[0])
    if abs(full - half) > 1e-6:
        raise IntegratorError(
            f"LR-phase quadrature not converged: {full!r} vs {half!r} rad")
    return branch * full


def _unit_state(psi0: np.ndarray) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=complex)
    nrm = np.sqrt((psi0.real ** 2 + psi0.imag ** 2).sum())
    if not abs(nrm - 1.0) <= 1e-9:  # a NaN norm fails too
        raise ValueError(f"psi0 norm {nrm} differs from 1 beyond 1e-9")
    return psi0


def run_gated(design: TrajectoryDesign, kernel, args: tuple, steps: int,
              scan: bool = False) -> Propagation:
    """Run kernel(design, *args, n, final=...), which returns
    (states, drift), at n = steps (the whole trajectory with scan, else the
    final state) and final-only at 2 steps, and gate the pair: the one gated
    path.  steps >= MIN_GATED_STEPS and the singularity scan come first."""
    check_steps(steps, MIN_GATED_STEPS)
    require_cancellable(design)
    states, drift = kernel(design, *args, steps, final=not scan)
    fine, _ = kernel(design, *args, 2 * steps, final=True)
    delta = gate(states[-1] if scan else states, fine)
    return Propagation(times=np.linspace(0.0, design.tf, steps + 1), states=states,
                       steps=steps, max_norm_drift=float(drift), gate_delta=delta)


def propagate_schrodinger(design: TrajectoryDesign, psi0: np.ndarray,
                          steps: int = 10000) -> Propagation:
    """RK4 integration of i hbar dpsi/dt = H_eff(t) psi under the design.

    Renormalizes each step (drift recorded); doubling the step count must
    move the final state by less than 1e-8, else IntegratorError.  A design
    above the B0 limit raises SingularityError before propagating.
    """
    return run_gated(design, K.rk4_spin, (_unit_state(psi0),), steps, scan=True)


def propagate_constant(fields: FieldTriple, mat: MaterialParams, psi0: np.ndarray,
                       tf: float, steps: int = 10000) -> Propagation:
    """RK4 under a time-independent field triple (e.g. no drive: (0, 0, B0)).

    steps must be >= 1, the fields finite, tf finite and positive and psi0
    of unit norm within 1e-9, else ValueError.  Renormalizes each step (drift
    recorded); no step-halving gate runs, so gate_delta is NaN.
    """
    check_steps(steps, 1)
    if not np.isfinite(np.asarray(fields, dtype=float)).all():
        raise ValueError(f"field components must be finite, got {tuple(fields)!r}")
    if not 0.0 < tf < np.inf:  # NaN fails too
        raise ValueError(f"tf must be finite and positive, got {tf}")
    psi0 = _unit_state(psi0)
    a = K._spin_generator(*fields, mat)[:, :, None]
    traj, drift = K._rk4_linear(lambda t: np.broadcast_to(a, (2, 2, len(t))), psi0, tf,
                                steps, normalize=True)
    times = np.linspace(0.0, tf, steps + 1)
    return Propagation(times=times, states=traj, steps=steps,
                       max_norm_drift=drift, gate_delta=np.nan)


def fidelity(prop: Propagation) -> float:
    """|<down | psi(t_f)>| — modulus of the final spin-down amplitude.

    The states are unit vectors only to rounding, so a full flip can read
    1 + 2e-16; the modulus is capped at 1.  A modulus that is not finite or
    exceeds 1 + ROUNDING_TOL is no rounding: IntegratorError.
    """
    f = float(np.abs(prop.states[-1, 1]))
    if not f <= 1.0 + ROUNDING_TOL:  # NaN fails too
        raise IntegratorError(f"final spin-down modulus {f} is not in [0, 1]")
    return min(1.0, f)


@dataclass(frozen=True)
class PerturbedEvolution:
    """Effective Bloch angles along a propagation with an imperfect start.

    sin_phi entries where phi is undefined (poles, |w| > 1 - 1e-9) are 0.0
    with phi_defined False; no NaNs are emitted.
    """

    times: np.ndarray
    cos_theta: np.ndarray
    sin_phi: np.ndarray
    phi_defined: np.ndarray


def perturbed_initial_evolution(design: TrajectoryDesign, eps: float,
                                phi0: float, steps: int = 10000) -> PerturbedEvolution:
    """Propagate core.initial_state(eps, phi0) under the unmodified fields.

    The angles are read off the Bloch vector in the chi_plus parametrization:
    cos(theta) = w, sin(phi) = v / sqrt(u^2 + v^2).
    """
    prop = propagate_schrodinger(design, initial_state(eps, phi0), steps)
    u, v, w = spin_to_bloch(prop.states).T
    defined = np.abs(w) <= 1.0 - POLE_TOL
    trans = np.sqrt(u * u + v * v)
    sin_phi = np.where(defined, v / np.where(trans == 0.0, 1.0, trans), 0.0)
    return PerturbedEvolution(times=prop.times, cos_theta=w, sin_phi=sin_phi,
                              phi_defined=defined)
