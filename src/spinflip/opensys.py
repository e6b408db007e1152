"""Open-system dynamics: Lindblad dephasing, source-noise master equations,
Bloch-vector forms, and stochastic trajectory ensembles.

Two source-noise channels are provided and none is silently "corrected":

* ``as-printed`` keeps diagonal noise decay only,
  -(lam^2 eta^2 / 2) (Y^2+Z'^2, X^2+Z'^2, X^2+Y^2) on (u, v, w), where
  Z' = Z - B0.
* ``x-only`` builds the noise operator H' from the B1-driven part of the
  Hamiltonian (Y and Z' components; the noisy electric field is taken along
  x) and applies the exact double commutator.  On the Bloch vector that is
  -(lam^2 eta^2 / 2) (|a|^2 I - a a^T) with a = (0, Y, Z'), the full matrix
  whose diagonal with a = (X, Y, Z') is the printed decay.  It is the
  channel whose ensemble limit the stochastic trajectories reproduce.

Both channels and the dephasing map the identity to zero and every matrix
to a traceless one, so a density matrix is propagated on its Bloch vector
at constant trace.

Noise strength: lam = lambda0 sqrt(t_f); lambda0^2 is the sweep axis.

Each sweep axis is one batched evaluation.  ``dephasing_sweep`` gives the
whole gamma curve from one gated unitary Bloch run, because the isotropic
dephasing factors out of the rotation.  ``ensemble_sweep`` runs every
lambda0 of a Monte Carlo grid as one lock-step ensemble on one stream of
Wiener increments, drawn in blocks of steps, so memory does not grow with
the step count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .constants import HBAR, MU_B
from .core import density_to_bloch
from .errors import IntegratorError
from .fields import require_cancellable
from .invariant import MIN_GATED_STEPS, check_steps, gate
from .trajectory import TrajectoryDesign

CHANNELS = ("as-printed", "x-only")
# Steps of Wiener increments per block of a Monte Carlo run: 2 KiB per
# trajectory, few enough generator calls that drawing stays a small share.
INCREMENT_BLOCK = 256
_PSI_UP = np.array([1.0, 0.0], dtype=complex)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be {'>= 0' if value < 0.0 else 'finite'}, got {value}")


@dataclass(frozen=True)
class LindbladParams:
    """Isotropic dephasing rate (1/ns)."""

    gamma: float

    def __post_init__(self):
        _check_rate("gamma", self.gamma)


@dataclass(frozen=True)
class NoiseParams:
    """Source-noise strength, channel selection, and ensemble bookkeeping."""

    lambda0: float
    channel: str = "as-printed"
    seed: int = 0
    n_traj: int = 1

    def __post_init__(self):
        _check_rate("lambda0", self.lambda0)
        if self.channel not in CHANNELS:
            raise ValueError(f"channel must be one of {CHANNELS}, got {self.channel!r}")
        if not _is_integer(self.n_traj) or self.n_traj < 1:
            raise ValueError(f"n_traj must be an integer >= 1, got {self.n_traj!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class BlochTrajectory:
    times: np.ndarray
    r: np.ndarray  # (n+1, 3)

    @property
    def final_fidelity(self) -> float:
        return float(fidelity_from_w(self.r[-1, 2]))


def fidelity_from_w(w):
    """F = sqrt((1 - w)/2), elementwise: modulus of the down-state overlap."""
    return np.sqrt(np.maximum(0.0, (1.0 - w) / 2.0))


def _run_bloch(design: TrajectoryDesign, gamma: float, lambda0: float,
               channel: str, r0: np.ndarray, steps: int) -> np.ndarray:
    check_steps(steps, 1)
    LindbladParams(gamma)
    NoiseParams(lambda0, channel)
    require_cancellable(design)
    traj = K.rk4_bloch(*design.kernel_args(), gamma, lambda0**2 * design.tf,
                       channel if lambda0 > 0.0 else None, r0, steps)
    if np.isnan(traj).any():
        raise IntegratorError("Bloch propagation produced non-finite components")
    return traj


def propagate_bloch(design: TrajectoryDesign, gamma: float = 0.0,
                    lambda0: float = 0.0, channel: str = "as-printed",
                    steps: int = 10000,
                    r0: tuple[float, float, float] = (0.0, 0.0, 1.0)) -> BlochTrajectory:
    """RK4 on the Bloch equation with dephasing and the selected noise channel.

    r0 must be finite with |r0| <= 1, else ValueError.  Like every
    propagator here, it raises SingularityError before propagating a design
    above the B0 limit.
    """
    r0 = np.asarray(r0, dtype=float)
    if not np.linalg.norm(r0) <= 1.0 + 1e-12:  # a non-finite r0 fails too
        raise ValueError(f"r0 must be finite with |r0| <= 1, got {r0.tolist()}")
    traj = _run_bloch(design, gamma, lambda0, channel, r0, steps)
    return BlochTrajectory(times=np.linspace(0.0, design.tf, steps + 1), r=traj)


def dephasing_sweep(design: TrajectoryDesign, gammas, steps: int = 10000) -> np.ndarray:
    """Fidelity of the dephasing master equation from (0, 0, 1) at every
    rate in gammas, from one singularity scan and one gated unitary run.

    The -4 gamma decay is isotropic and commutes with the rotation, so
    w(tf; gamma) = e^{-4 gamma tf} w(tf; 0).  The step-halving gate (steps
    against 2 steps, GATE_TOL on the final Bloch vector) runs at gamma = 0;
    its delta at gamma is e^{-4 gamma tf} times that one, so the single
    gate is at least as strict at every rate.
    """
    check_steps(steps, MIN_GATED_STEPS)
    gammas = np.array([LindbladParams(float(g)).gamma for g in gammas])
    require_cancellable(design)
    r0 = np.array([0.0, 0.0, 1.0])
    coarse, fine = (K.rk4_bloch(*design.kernel_args(), 0.0, 0.0, None, r0, n)[-1]
                    for n in (steps, 2 * steps))
    gate(coarse, fine)
    return fidelity_from_w(np.exp(-4.0 * gammas * design.tf) * coarse[2])


def propagate_master(design: TrajectoryDesign, gamma: float, steps: int = 10000) -> float:
    """Fidelity of the dephasing master equation from (0, 0, 1).

    Same step-halving convergence gate as the closed-system propagator; see
    dephasing_sweep.
    """
    return float(dephasing_sweep(design, [gamma], steps)[0])


@dataclass(frozen=True)
class DensityTrajectory:
    times: np.ndarray
    rho: np.ndarray  # (n+1, 2, 2)

    def bloch(self) -> np.ndarray:
        """(n+1, 3) Bloch vectors; the trace must be 1, as density_to_bloch says."""
        return density_to_bloch(self.rho)

    @property
    def final_fidelity(self) -> float:
        return float(np.sqrt(max(0.0, self.rho[-1, 1, 1].real)))


def propagate_density(design: TrajectoryDesign, gamma: float = 0.0,
                      lambda0: float = 0.0, channel: str = "as-printed",
                      steps: int = 10000,
                      rho0: np.ndarray | None = None) -> DensityTrajectory:
    """RK4 on the density matrix with the selected dissipators.

    rho0 maps linearly, over the complex numbers, to its constant trace and
    its Bloch components, whose real and imaginary parts run side by side
    on the Bloch equation; any complex rho0 is propagated.
    """
    if rho0 is None:
        rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    tr = rho0[0, 0] + rho0[1, 1]
    r0 = np.array([rho0[0, 1] + rho0[1, 0], -1j * (rho0[0, 1] - rho0[1, 0]),
                   rho0[0, 0] - rho0[1, 1]])
    traj = _run_bloch(design, gamma, lambda0, channel,
                      np.column_stack([r0.real, r0.imag]), steps)
    u, v, w = (traj[..., 0] + 1j * traj[..., 1]).T
    rho = 0.5 * np.array([[tr + w, u + 1j * v], [u - 1j * v, tr - w]])
    return DensityTrajectory(times=np.linspace(0.0, design.tf, steps + 1),
                             rho=rho.transpose(2, 0, 1))


def _increment_blocks(seed: int, n_traj: int, steps: int, dt: float,
                      width: int = INCREMENT_BLOCK):
    """Wiener increments dW ~ Normal(0, dt) as (n_traj, width) blocks over
    the steps, the last one narrower; one private generator per trajectory,
    spawned from np.random.SeedSequence(seed), so that the streams of
    different trajectories and different seeds are independent.  A
    generator's draws in blocks equal one draw of all its steps bit for bit.
    Each row is filled with standard normals in place and the block scaled
    once: rng.normal(0.0, scale, n) is 0.0 + scale z, the same numbers.
    """
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_traj)]
    scale = np.sqrt(dt)
    for start in range(0, steps, width):
        block = np.empty((n_traj, min(width, steps - start)))
        for row, rng in zip(block, rngs):
            rng.standard_normal(out=row)
        block *= scale
        yield block


@dataclass(frozen=True)
class EnsembleResult:
    fidelities: np.ndarray      # per-trajectory |psi_down(tf)|
    fidelity_mean: float
    fidelity_se: float
    # mean of |psi_down(tf)|^2 and its standard error: the unravelling gives
    # rho = E|psi><psi|, so this estimates rho_11 of the master equation,
    # which the mean fidelity (by Jensen, at most sqrt(rho_11)) does not
    population_mean: float
    population_se: float


def _em_fidelities(design: TrajectoryDesign, lambda0s, seed: int, n_traj: int,
                   steps: int) -> np.ndarray:
    """Per-trajectory final fidelities, one row per lambda0, from one
    lock-step ensemble on one stream of increments."""
    check_steps(steps, 1)
    lams = [NoiseParams(float(l0), "x-only", seed, n_traj).lambda0 * np.sqrt(design.tf)
            for l0 in lambda0s]
    require_cancellable(design)
    dw = _increment_blocks(seed, n_traj, steps, design.tf / steps)
    fid = K.em_final(*design.kernel_args(), 0.5 * design.mat.g * MU_B, HBAR, lams,
                     _PSI_UP, dw, steps)
    if np.isnan(fid).any():
        raise IntegratorError("ensemble propagation produced non-finite components")
    return fid


def ensemble_average(design: TrajectoryDesign, noise: NoiseParams,
                     steps: int = 10000) -> EnsembleResult:
    """Monte Carlo ensemble of stochastic Schrodinger trajectories under the
    x-only noise operator, read at t_f.

    The mean population |psi_down|^2 converges (weakly, order dt) to rho_11
    of the x-only master equation; the mean fidelity is the trajectory
    average of |psi_down|, at most sqrt(rho_11).  The spreads yield their
    standard errors.  One seeded trajectory is the ensemble of n_traj = 1.
    """
    fid = _em_fidelities(design, [noise.lambda0], noise.seed, noise.n_traj, steps)[0]
    return EnsembleResult(fid, *_mean_se(fid), *_mean_se(fid * fid))


def ensemble_sweep(design: TrajectoryDesign, lambda0s, seed: int, n_traj: int,
                   steps: int = 10000) -> list[tuple[float, float]]:
    """Monte Carlo fidelity and its standard error at every lambda0 in
    lambda0s: one lock-step ensemble of len(lambda0s) x n_traj trajectories
    on one stream of increments, read at t_f only.

    F = sqrt(P) and se_P / (2 F) (delta method) from the population_mean P
    and population_se of ensemble_average(design, NoiseParams(lambda0s[g],
    "x-only", seed, n_traj), steps), bit for bit: P estimates rho_11 without
    bias.  Memory does not grow with steps: the increments arrive in blocks
    of INCREMENT_BLOCK steps.
    """
    stats = [_mean_se(row * row)
             for row in _em_fidelities(design, lambda0s, seed, n_traj, steps)]
    # P = 0 only when every trajectory ends at 0, with no spread
    return [(float(np.sqrt(p)), se / (2.0 * np.sqrt(p)) if p > 0.0 else 0.0)
            for p, se in stats]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean of per-trajectory values and its standard error."""
    n = values.shape[0]
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def perturbative_bound(gamma: float, tf: float) -> float:
    """First-order dephasing bound 1 - 2 gamma t_f, clamped to [0, 1]."""
    return min(1.0, max(0.0, 1.0 - 2.0 * gamma * tf))
