"""Four-level model and block reduction to an effective 2x2 Hamiltonian.

The two lowest spin-split orbital doublets couple through the inter-orbital
momentum elements pbar_i = <psi_1|p_i|psi_2>; folding the upper doublet with
the partition Q + C (E - B)^{-1} C^dagger renormalizes the drive response by
the xi factors.  Drives are parametrized by (B1, B2) in Tesla through
(e/c) A_x = -g mu_B B1 / (2 beta) and the alpha analogue, which removes all
Gaussian-unit bookkeeping.

The printed lower-triangle entries of the coupling block correspond to
purely imaginary pbar (momentum between real orbitals); the builder fills
the lower triangle by conjugation so the matrix stays Hermitian for any
complex pbar.  The numerical reduction is the authoritative path; the
closed-form first-order elements are exposed only for report-level
comparison (their Zeeman normalization differs from the 2x2 convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR, MU_B, MaterialParams
from .errors import DegenerateReferenceError


@dataclass(frozen=True)
class FourLevelModel:
    """Orbital energies, Zeeman splitting, couplings and drive amplitudes.

    Units: energies meV, pbar meV ns/cm, mass meV ns^2/cm^2, drives T.
    """

    e1: float
    e2: float
    delta_z: float
    pbar_x: complex
    pbar_y: complex
    m: float
    drive_b1: float
    drive_b2: float
    mat: MaterialParams

    def __post_init__(self):
        if not self.e2 > self.e1:
            raise ValueError(f"need e2 > e1, got e1={self.e1}, e2={self.e2}")
        if not self.m > 0.0:
            raise ValueError(f"effective mass must be positive, got {self.m}")

    @property
    def gap(self) -> float:
        return self.e2 - self.e1


@dataclass(frozen=True)
class BlockPartition:
    """2x2 blocks of a 4x4 Hamiltonian: [[Q, C], [C^dagger, B]]."""

    q: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def reassemble(self) -> np.ndarray:
        top = np.hstack([self.q, self.c])
        bottom = np.hstack([self.c.conj().T, self.b])
        return np.vstack([top, bottom])


def _drive_momenta(model: FourLevelModel) -> tuple[float, float]:
    """(e/c) A_x and (e/c) A_y in momentum units (meV ns/cm)."""
    g_mu = model.mat.g * MU_B
    ax = -g_mu * model.drive_b1 / (2.0 * model.mat.beta)
    ay = -g_mu * model.drive_b2 / (2.0 * model.mat.alpha)
    return ax, ay


def build_full_hamiltonian(model: FourLevelModel) -> np.ndarray:
    """Hermitian 4x4 in the basis (psi1 up, psi1 down, psi2 up, psi2 down)."""
    al, be = model.mat.alpha, model.mat.beta
    ax, ay = _drive_momenta(model)
    atil_x, atil_y = ax / model.m, ay / model.m
    px, py = complex(model.pbar_x), complex(model.pbar_y)

    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = model.e1 + model.delta_z / 2.0 - be * ax
    h[1, 1] = model.e1 - model.delta_z / 2.0 + be * ax
    h[2, 2] = model.e2 + model.delta_z / 2.0 - be * ax
    h[3, 3] = model.e2 - model.delta_z / 2.0 + be * ax
    drive_off = -al * (1j * ax + ay)
    h[0, 1] = drive_off
    h[2, 3] = drive_off
    h[0, 2] = (be - atil_x) * px - atil_y * py
    h[0, 3] = al * (1j * px + py)
    h[1, 2] = al * (-1j * px + py)
    h[1, 3] = -(be + atil_x) * px - atil_y * py
    for i in range(4):
        for j in range(i):
            h[i, j] = h[j, i].conjugate()
    return h


def partition(h4: np.ndarray) -> BlockPartition:
    """Lossless 2x2 block extraction of a Hermitian 4x4."""
    h4 = np.asarray(h4, dtype=complex)
    if h4.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h4.shape}")
    return BlockPartition(q=h4[:2, :2].copy(), b=h4[2:, 2:].copy(),
                          c=h4[:2, 2:].copy())


def lowdin_reduce(p: BlockPartition, e_ref: float) -> np.ndarray:
    """Effective 2x2: Q + C (e_ref I - B)^{-1} C^dagger.

    Raises DegenerateReferenceError when e_ref sits (nearly) on an
    eigenvalue of B (condition number above 1e12).
    """
    shifted = e_ref * np.eye(2) - p.b
    if np.linalg.cond(shifted) >= 1e12:
        raise DegenerateReferenceError(
            f"e_ref={e_ref} is degenerate with the folded block "
            f"(eigenvalues {np.linalg.eigvalsh(p.b)})")
    return p.q + p.c @ np.linalg.inv(shifted) @ p.c.conj().T


def xi_factors(model: FourLevelModel) -> tuple[float, float]:
    """Orbital-correction factors xi_i = 2 |pbar_i|^2 / [m (E2 - E1)]."""
    denom = model.m * model.gap
    return (2.0 * abs(model.pbar_x) ** 2 / denom,
            2.0 * abs(model.pbar_y) ** 2 / denom)


def validity_check(model: FourLevelModel) -> float:
    """Drive-coupling magnitude over the orbital gap.

    The reduction assumes the drive cannot excite the upper orbitals:
    max(|A_x pbar_x|, |A_y pbar_y|) e / (m c) << E2 - E1.  Values above 0.1
    should be treated as out of the model's validity range.
    """
    ax, ay = _drive_momenta(model)
    coupling = max(abs(ax * model.pbar_x), abs(ay * model.pbar_y)) / model.m
    return float(coupling / model.gap)


def orbital_adiabaticity(tf: float, gap: float) -> float:
    """hbar / (t_f gap): << 1 means the flip cannot excite orbital motion."""
    return HBAR / (tf * gap)


def closed_form_elements(model: FourLevelModel) -> np.ndarray:
    """First-order printed elements, for report-level comparison only."""
    al, be = model.mat.alpha, model.mat.beta
    ax, ay = _drive_momenta(model)
    px, py = complex(model.pbar_x), complex(model.pbar_y)
    mix = ax * px + ay * py
    h0_11 = model.delta_z - be * ax
    h0_12 = -al * (1j * ax + ay)
    h_11 = -2.0 * be * (px * mix) / (model.m * model.gap)
    h_12 = -2.0 * al * (mix * (1j * px + py)) / (model.m * model.gap)
    return np.array([
        [model.e1 + h0_11 + h_11, h0_12 + h_12],
        [(h0_12 + h_12).conjugate(), model.e1 - h0_11 - h_11],
    ], dtype=complex)
