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

Each sweep axis is one batched evaluation; the deterministic ones are gated
(final-only Bloch runs at steps and 2 steps agree within GATE_TOL, else
IntegratorError).  ``noise_sweep`` runs a lambda0 grid as one batch of the
Bloch kernel; ``dephasing_sweep`` needs one unitary run for a gamma grid,
as the isotropic dephasing factors out of the rotation.  ``ensemble_sweep``
runs a Monte Carlo lambda0 grid as one lock-step ensemble on one stream of
two-point increments (+-sqrt(dt), one random bit each), drawn in blocks of
steps, so memory does not grow with the step count.  Its outputs are weak
estimates, a mean population and its standard error: a single trajectory
is not a sample path of the stochastic Schrodinger equation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .constants import HBAR, MU_B
from .core import bloch_to_density, density_to_bloch
from .errors import IntegratorError
from .fields import require_cancellable
from .invariant import MIN_GATED_STEPS, check_steps, gate
from .trajectory import TrajectoryDesign

CHANNELS = ("as-printed", "x-only")
# Steps of increments per block of a Monte Carlo run (one (256, n_traj)
# float block), and per generator call: a call draws the sign bits of 8192
# steps, 1 KiB per trajectory, so memory does not grow with the step count.
INCREMENT_BLOCK = 256
INCREMENT_CHUNK = 8192
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
    """F = sqrt((1 - w)/2) capped to [0, 1], elementwise: the down-state overlap."""
    return np.sqrt(np.clip((1.0 - w) / 2.0, 0.0, 1.0))


def _shaped(name: str, value, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """value as an array, unless its shape is not shape (ValueError)."""
    value = np.asarray(value, dtype=dtype)
    if value.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
    return value


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, unless a NaN shows that the propagation diverged."""
    if np.isnan(values).any():
        raise IntegratorError(f"{what} propagation produced non-finite components")
    return values


def propagate_bloch(design: TrajectoryDesign, gamma: float = 0.0,
                    lambda0: float = 0.0, channel: str = "as-printed",
                    steps: int = 10000,
                    r0: tuple[float, float, float] = (0.0, 0.0, 1.0)) -> BlochTrajectory:
    """RK4 on the Bloch equation with dephasing and the selected noise channel.

    r0 must be finite, of shape (3,), with |r0| <= 1, else ValueError.
    Like every propagator here, it raises SingularityError before
    propagating a design above the B0 limit.
    """
    r0 = _shaped("r0", r0, (3,))
    if not np.linalg.norm(r0) <= 1.0 + 1e-12:  # a non-finite r0 fails too
        raise ValueError(f"r0 must be finite with |r0| <= 1, got {r0.tolist()}")
    check_steps(steps, 1)
    LindbladParams(gamma)
    NoiseParams(lambda0, channel)
    require_cancellable(design)
    traj = K.rk4_bloch(*design.kernel_args(), gamma, lambda0**2 * design.tf,
                       channel if lambda0 > 0.0 else None, r0, steps)
    return BlochTrajectory(times=np.linspace(0.0, design.tf, steps + 1),
                           r=_finite(traj, "Bloch"))


def _gated_finals(design: TrajectoryDesign, lam2, channel, steps: int) -> np.ndarray:
    """Final Bloch vectors from (0, 0, 1) at gamma = 0 under the noise term
    lam2 = lambda0^2 t_f (scalar, or (G,) run as one batch), after one scan,
    gated: final-only runs at steps and 2 steps, GATE_TOL on every vector."""
    check_steps(steps, MIN_GATED_STEPS)
    require_cancellable(design)
    args = (*design.kernel_args(), 0.0, lam2, channel, (0.0, 0.0, 1.0))
    coarse = K.rk4_bloch(*args, steps, final=True)
    gate(coarse, K.rk4_bloch(*args, 2 * steps, final=True))
    return coarse


def dephasing_sweep(design: TrajectoryDesign, gammas, steps: int = 10000) -> np.ndarray:
    """Fidelity of the dephasing master equation from (0, 0, 1) at every
    rate in gammas, from one gated unitary run.

    The -4 gamma decay is isotropic and commutes with the rotation, so
    w(tf; gamma) = e^{-4 gamma tf} w(tf; 0).  The gate runs at gamma = 0;
    its delta at gamma is e^{-4 gamma tf} times that one, so the single
    gate is at least as strict at every rate.
    """
    gammas = np.array([LindbladParams(float(g)).gamma for g in gammas])
    w = _gated_finals(design, 0.0, None, steps)[2]
    return fidelity_from_w(np.exp(-4.0 * gammas * design.tf) * w)


def noise_sweep(design: TrajectoryDesign, lambda0s, channel: str, steps: int) -> np.ndarray:
    """Fidelity of the source-noise master equation from (0, 0, 1), with no
    dephasing, at every lambda0: one gated batch over lambda0^2 t_f, or none."""
    lam0 = np.array([NoiseParams(float(l0), channel).lambda0 for l0 in lambda0s])
    if not lam0.size:
        return lam0
    return fidelity_from_w(_gated_finals(design, lam0 ** 2 * design.tf, channel, steps)[:, 2])


def propagate_master(design: TrajectoryDesign, gamma: float, steps: int = 10000) -> float:
    """Fidelity of the dephasing master equation from (0, 0, 1): one rate
    of dephasing_sweep, gate included."""
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
    """RK4 on the density matrix with the selected dissipators: propagate_bloch
    on the Bloch vector of rho0 (default spin up).

    rho0 must be one 2x2 density matrix, Hermitian with unit trace and
    positive (|r0| <= 1), else ValueError before any propagation.
    """
    r0 = (0.0, 0.0, 1.0) if rho0 is None else density_to_bloch(
        _shaped("rho0", rho0, (2, 2), complex))
    traj = propagate_bloch(design, gamma, lambda0, channel, steps, r0)
    return DensityTrajectory(times=traj.times, rho=bloch_to_density(traj.r))


def _increment_blocks(seed: int, n_traj: int, steps: int, dt: float,
                      width: int = INCREMENT_BLOCK):
    """Two-point weak increments dW = +-sqrt(dt), each sign one random bit,
    as step-major (c, n_traj) blocks of `width` steps (a multiple of 8), cut
    also at every INCREMENT_CHUNK steps.

    They match the first three moments of Normal(0, dt), which is all the
    weak order 1 of the Euler-Maruyama step needs: the simplified weak Euler
    scheme (Kloeden & Platen, Numerical Solution of SDEs, 1992, sec. 14.1).
    Trajectory i has a private generator, spawned from
    np.random.SeedSequence(seed), so that the streams of different
    trajectories and different seeds are independent.  Its increments are
    the bits of one rng.bytes(ceil(steps / 8)) draw, most significant bit
    first, bit 1 giving +sqrt(dt): every chunk but the last draws 1 KiB, a
    whole number of the generator's 32-bit words, so the chunked draws equal
    that one draw.
    """
    if width <= 0 or width % 8:
        raise ValueError(f"width must be a positive multiple of 8, got {width}")
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_traj)]
    scale = np.sqrt(dt)
    for chunk in range(0, steps, INCREMENT_CHUNK):
        n = min(INCREMENT_CHUNK, steps - chunk)
        raw = np.empty((n_traj, -(-n // 8)), dtype=np.uint8)
        for row, rng in zip(raw, rngs):
            row[:] = np.frombuffer(rng.bytes(row.size), dtype=np.uint8)
        for start in range(0, n, width):
            c = min(width, n - start)
            # the transposed bytes unpack along axis 0 into step-major,
            # C-contiguous bits, and 2 scale b - scale is exactly +-scale;
            # a lookup table would first cast the bits to a (c, n_traj)
            # integer index array
            block = np.unpackbits(raw[:, start // 8:(start + c + 7) // 8].T, axis=0,
                                  count=c) * (2.0 * scale)
            block -= scale
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
    return _finite(K.em_final(*design.kernel_args(), 0.5 * design.mat.g * MU_B, HBAR,
                              lams, _PSI_UP, dw, steps), "ensemble")


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
