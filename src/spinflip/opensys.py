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

Arguments go through ``check_rate``, ``check_noise`` and ``check_ensemble``,
as the CLI's config does.  Each sweep axis is one batched evaluation; the
deterministic ones are gated by ``invariant.run_gated`` (final-only Bloch
runs at steps and 2 steps agree within GATE_TOL, else IntegratorError).
``noise_sweep`` runs a lambda0 grid as one batch of the Bloch kernel;
``dephasing_sweep`` needs one unitary run for a gamma grid, as the
isotropic dephasing factors out of the rotation.  ``ensemble_sweep``,
the one Monte Carlo estimator, runs a lambda0 grid as one lock-step ensemble
on one stream of two-point increments (+-sqrt(dt), one random bit each),
which stay bytes, 8 steps each, drawn in blocks, so memory does not grow with
the step count, and select 8-step matrix products from per-byte tables.  Its
outputs are weak estimates, F = sqrt(P) of the mean population P and its
standard error: a single trajectory is not a sample path of the stochastic
Schrodinger equation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .core import bloch_to_density, density_to_bloch
from .errors import IntegratorError
from .fields import require_cancellable
from .invariant import ROUNDING_TOL, check_steps, run_gated
from .trajectory import TrajectoryDesign

CHANNELS = ("as-printed", "x-only")
# Steps of increments per block of a Monte Carlo run, a (32, n_traj) block of
# byte rows, and per generator call, 1 KiB of sign bits per trajectory: 128
# whole PCG64 words, so the chunked draws equal one rng.bytes draw (see
# _increment_blocks).  Memory does not grow with the step count.
INCREMENT_BLOCK = 256
INCREMENT_CHUNK = 8192
# numpy's SeedSequence: pool size and the constants of its hash mix
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PSI_UP = np.array([1.0, 0.0], dtype=complex)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_rate(name: str, value: float) -> float:
    """value, unless it is negative or not finite (ValueError; NaN too)."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be {'>= 0' if value < 0.0 else 'finite'}, got {value}")
    return value


def check_noise(lambda0: float, channel: str) -> float:
    """lambda0, unless check_rate rejects it or channel is not in CHANNELS."""
    check_rate("lambda0", lambda0)
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}, got {channel!r}")
    return lambda0


def check_ensemble(seed: int, n_traj: int) -> None:
    """ValueError unless n_traj is an integer in [1, 2**32] and seed a
    non-negative integer, checked in that order."""
    if not _is_integer(n_traj) or n_traj < 1:
        raise ValueError(f"n_traj must be an integer >= 1, got {n_traj!r}")
    if n_traj > 1 << 32:  # trajectory i's spawn key must be one 32-bit word
        raise ValueError(f"n_traj must be at most 2**32, got {n_traj}")
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class BlochTrajectory:
    times: np.ndarray
    r: np.ndarray  # (n+1, 3)

    @property
    def final_fidelity(self) -> float:
        return float(fidelity_from_w(self.r[-1, 2]))


def fidelity_from_w(w):
    """F = sqrt((1 - w)/2), elementwise: the down-state overlap, with the
    population (1 - w)/2 checked by _population."""
    return np.sqrt(_population((1.0 - w) / 2.0))


def _population(p):
    """p capped to [0, 1], elementwise; IntegratorError if any p is NaN or
    more than ROUNDING_TOL outside, which no rounding explains."""
    p = np.asarray(p)
    bad = np.flatnonzero(~((p >= -ROUNDING_TOL) & (p <= 1.0 + ROUNDING_TOL)))
    if bad.size:
        raise IntegratorError(
            f"population {float(p.flat[bad[0]])!r} is outside [0, 1] beyond rounding")
    return np.clip(p, 0.0, 1.0)


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
    if not np.sqrt((r0 * r0).sum()) <= 1.0 + ROUNDING_TOL:  # a non-finite r0 fails too
        raise ValueError(f"r0 must be finite with |r0| <= 1, got {r0.tolist()}")
    check_steps(steps, 1)
    check_rate("gamma", gamma)
    check_noise(lambda0, channel)
    require_cancellable(design)
    traj, _ = K.rk4_bloch(design, gamma, lambda0**2 * design.tf,
                          channel if lambda0 > 0.0 else None, r0, steps)
    return BlochTrajectory(times=np.linspace(0.0, design.tf, steps + 1),
                           r=_finite(traj, "Bloch"))


def dephasing_sweep(design: TrajectoryDesign, gammas, steps: int = 10000) -> np.ndarray:
    """Fidelity of the dephasing master equation from (0, 0, 1) at every
    rate in gammas, from one gated unitary run, or none for no rates.

    The -4 gamma decay is isotropic and commutes with the rotation, so
    w(tf; gamma) = e^{-4 gamma tf} w(tf; 0).  The gate runs at gamma = 0;
    its delta at gamma is e^{-4 gamma tf} times that one, so the single
    gate is at least as strict at every rate.
    """
    gammas = np.array([check_rate("gamma", float(g)) for g in gammas])
    if not gammas.size:
        return gammas
    w = run_gated(design, K.rk4_bloch, (0.0, 0.0, None, (0.0, 0.0, 1.0)), steps).states[2]
    return fidelity_from_w(np.exp(-4.0 * gammas * design.tf) * w)


def noise_sweep(design: TrajectoryDesign, lambda0s, channel: str, steps: int) -> np.ndarray:
    """Fidelity of the source-noise master equation from (0, 0, 1), with no
    dephasing, at every lambda0: one gated batch over lambda0^2 t_f, or none."""
    lam0 = np.array([check_noise(float(l0), channel) for l0 in lambda0s])
    if not lam0.size:
        return lam0
    args = (0.0, lam0 ** 2 * design.tf, channel, (0.0, 0.0, 1.0))
    return fidelity_from_w(run_gated(design, K.rk4_bloch, args, steps).states[:, 2])


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
        return float(np.sqrt(_population(self.rho[-1, 1, 1].real)))


def propagate_density(design: TrajectoryDesign, gamma: float = 0.0,
                      lambda0: float = 0.0, channel: str = "as-printed",
                      steps: int = 10000,
                      rho0: np.ndarray | None = None) -> DensityTrajectory:
    """RK4 on the density matrix with the selected dissipators: propagate_bloch
    on the Bloch vector of rho0 (default spin up).

    rho0 must be one 2x2 density matrix, Hermitian with unit trace and
    positive (|r0| <= 1), else ValueError before any propagation.  Every
    returned rho is positive within rounding: a state with |r| more than
    ROUNDING_TOL above 1 is an IntegratorError.  That excess is RK4
    truncation error, which more steps remove: t_f = 1 ns, B0 = 0.5 T
    reaches |r| = 1 + 2.4e-12 at 1000 steps and 1 + 7.6e-14 at 2000.
    """
    r0 = (0.0, 0.0, 1.0) if rho0 is None else density_to_bloch(
        _shaped("rho0", rho0, (2, 2), complex))
    traj = propagate_bloch(design, gamma, lambda0, channel, steps, r0)
    norm = float(np.linalg.norm(traj.r, axis=-1).max())
    if norm > 1.0 + ROUNDING_TOL:
        raise IntegratorError(f"Bloch vector norm |r| = {norm!r} exceeds 1 + {ROUNDING_TOL}, "
                              f"so rho is not positive: the run needs more than {steps} steps")
    return DensityTrajectory(times=traj.times, rho=bloch_to_density(traj.r))


def _hasher(const: int, mult: int):
    """numpy SeedSequence's hashmix on uint32 arrays, with its running hash
    constant: xor with the constant, step the constant by mult (mod 2**32),
    multiply by it, xorshift by 16."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    value = x * _MIX_MULT_L - y * _MIX_MULT_R
    return value ^ value >> 16


def _child_states(seed: int, n_traj: int) -> np.ndarray:
    """SeedSequence(seed).spawn(n_traj)[i].generate_state(4, np.uint64) for
    every child i, as one (n_traj, 4) uint64 array, from one vectorized
    uint32 pass of numpy's documented SeedSequence hash mix (pool of 4 words).

    Child i's entropy is the seed's 32-bit words, least significant first,
    padded with zeros to the pool size, then its spawn key (i,).  The hash
    constants do not depend on the data, so every child runs the same
    sequence of operations, elementwise on a column of the (words, n_traj)
    array.  The key is one word only for i < 2**32, so n_traj must be at
    most 2**32.
    """
    words, rest = [], int(seed)
    while rest or not words:  # a seed of 0 is one word
        words.append(rest & _MASK32)
        rest >>= 32
    entropy = np.empty((max(len(words), _POOL) + 1, n_traj), dtype=np.uint32)
    entropy[:-1] = np.array(words + [0] * (_POOL - len(words)), dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(n_traj, dtype=np.uint32)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)  # generate_state: 8 words from the pool, cycled
    state = np.stack([hashmix(pool[i % _POOL]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _increment_blocks(seed: int, n_traj: int, steps: int):
    """Two-point weak increments dW = +-sqrt(dt), each sign one random bit,
    as step-major (c, n_traj) uint8 blocks of byte rows: row j holds steps
    8j to 8j + 7 of every trajectory, most significant bit first, bit 1
    giving +sqrt(dt).  A block holds INCREMENT_BLOCK steps, or the rest of
    an INCREMENT_CHUNK.  seed and n_traj go through check_ensemble first:
    n_traj must be at most 2**32 (ValueError).

    They match the first three moments of Normal(0, dt), which is all the
    weak order 1 of the Euler-Maruyama step needs: the simplified weak Euler
    scheme (Kloeden & Platen, Numerical Solution of SDEs, 1992, sec. 14.1).
    Trajectory i has a private generator, spawned from
    np.random.SeedSequence(seed), so that the streams of different
    trajectories and different seeds are independent.  No SeedSequence is
    built: the children's seeding states, generate_state(4, np.uint64) of
    each spawned child, come from one vectorized pass over all trajectories
    (_child_states), and each reaches PCG64 through a minimal ISeedSequence
    that returns it, so every stream is the one PCG64(child) gives.

    The generator is the PCG64 bit generator that default_rng(child) wraps,
    read with random_raw, and its bytes are those of one
    default_rng(child).bytes(ceil(steps / 8)) draw: Generator.bytes takes
    full-range uint32 draws, written little-endian, and PCG64 serves those
    as the low then the high half of each 64-bit output, so the
    little-endian bytes of the 64-bit words are the same stream.  Every
    chunk but the last is 128 whole words, so no buffered half-word crosses
    a chunk edge; the last may end inside a word, and nothing is drawn
    after it.
    """
    check_ensemble(seed, n_traj)  # before any state or buffer
    from numpy.random.bit_generator import ISeedSequence

    class State(ISeedSequence):
        """A child's seeding state; PCG64 asks for generate_state(4, np.uint64)."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    gens = [np.random.PCG64(State(words)) for words in _child_states(seed, n_traj)]
    words = np.empty((n_traj, INCREMENT_CHUNK // 64), dtype="<u8")
    width = INCREMENT_BLOCK // 8
    for chunk in range(0, steps, INCREMENT_CHUNK):
        nbytes = -(-min(INCREMENT_CHUNK, steps - chunk) // 8)
        nwords = -(-nbytes // 8)
        for row, gen in zip(words, gens):
            row[:nwords] = gen.random_raw(nwords)
        # a copy, always: for one trajectory the transpose is already
        # contiguous, and words is refilled for the next chunk
        rows = words.view(np.uint8)[:, :nbytes].T.copy()
        yield from (rows[start:start + width] for start in range(0, len(rows), width))


def _em_fidelities(design: TrajectoryDesign, lambda0s, seed: int, n_traj: int,
                   steps: int) -> np.ndarray:
    """Per-trajectory final fidelities |psi_down(t_f)|, one row per lambda0,
    from one lock-step ensemble on one stream of increments; no rows, and no
    increments drawn, for no lambda0.  steps, seed and n_traj are checked
    first, whatever the grid."""
    check_steps(steps, 1)
    check_ensemble(seed, n_traj)
    lams = [check_noise(float(l0), "x-only") * np.sqrt(design.tf) for l0 in lambda0s]
    if not lams:
        return np.empty((0, n_traj))
    require_cancellable(design)
    return _finite(K.em_final(design, lams, _PSI_UP, _increment_blocks(seed, n_traj, steps),
                              steps), "ensemble")


def ensemble_sweep(design: TrajectoryDesign, lambda0s, seed: int, n_traj: int,
                   steps: int = 10000) -> list[tuple[float, float]]:
    """Monte Carlo fidelity and its standard error at every lambda0 in
    lambda0s: one lock-step ensemble of len(lambda0s) x n_traj stochastic
    Schrodinger trajectories under the x-only noise operator, on one stream
    of increments, read at t_f only.

    The unravelling gives rho = E|psi><psi|, so the mean population P of
    |psi_down(t_f)|^2 converges (weakly, order dt) to rho_11 of the x-only
    master equation; the mean of |psi_down| would not (by Jensen it is at
    most sqrt(rho_11)).  Each point is F = sqrt(P) and se_P / (2 F) (delta
    method), se_P the sample standard deviation over sqrt(n_traj); one
    trajectory has SE 0.  Memory does not grow with steps: the increments
    arrive as byte rows, in blocks of INCREMENT_BLOCK steps.
    """
    fid = _em_fidelities(design, lambda0s, seed, n_traj, steps)
    p = fid * fid
    mean = p.mean(axis=1)
    se = p.std(ddof=1, axis=1) / np.sqrt(n_traj) if n_traj > 1 else np.zeros_like(mean)
    # P = 0 only when every trajectory ends at 0, with no spread
    return [(math.sqrt(m), s / (2.0 * math.sqrt(m)) if m > 0.0 else 0.0)
            for m, s in zip(mean.tolist(), se.tolist())]


def perturbative_bound(gamma: float, tf: float) -> float:
    """First-order dephasing bound 1 - 2 gamma t_f, clamped to [0, 1]."""
    return min(1.0, max(0.0, 1.0 - 2.0 * gamma * tf))
