"""Two-level algebra: Pauli matrices, effective Hamiltonian, state conversions.

All 2x2 operators are plain complex128 numpy arrays.  The Bloch-vector
convention matches the density-matrix components used throughout the
open-system equations:

    u = rho_{1,-1} + rho_{-1,1}
    v = -i (rho_{1,-1} - rho_{-1,1})
    w = rho_{1,1} - rho_{-1,-1}

with basis order (|1>, |-1>).  Note v is the *negative* of the textbook
Pauli-y expectation; the sign is fixed by the effective Hamiltonian below,
whose upper off-diagonal entry is X + iY.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import MU_B, MaterialParams

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)


class FieldTriple(NamedTuple):
    """Effective magnetic-field components (T) entering the 2x2 Hamiltonian."""

    X: float
    Y: float
    Z: float


def build_heff(fields: FieldTriple, mat: MaterialParams) -> np.ndarray:
    """Effective Hamiltonian (g mu_B / 2) [[Z, X+iY], [X-iY, -Z]] in meV.

    Hermitian and traceless by construction; eigenvalues are
    +/- (g mu_B / 2) sqrt(X^2 + Y^2 + Z^2).
    """
    x, y, z = float(fields[0]), float(fields[1]), float(fields[2])
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"field components must be finite, got {fields!r}")
    pref = 0.5 * mat.g * MU_B
    return np.array([[pref * z, pref * (x + 1j * y)],
                     [pref * (x - 1j * y), -pref * z]], dtype=complex)


def zeeman_splitting(g: float, b0: float) -> float:
    """Zeeman splitting g mu_B B0 in meV (signed)."""
    return g * MU_B * b0


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b - b a."""
    return a @ b - b @ a


def spin_to_density(psi: np.ndarray) -> np.ndarray:
    """Pure-state density matrix |psi><psi|, or a stack of them."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * psi[..., None, :].conj()


def spin_to_bloch(psi: np.ndarray) -> np.ndarray:
    """Bloch vector (u, v, w) of a normalized state, or of each in a stack."""
    return density_to_bloch(spin_to_density(psi))


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (u, v, w) of a unit-trace 2x2 density matrix, or of each
    in a (..., 2, 2) stack."""
    rho = np.asarray(rho, dtype=complex)
    tr = np.asarray(rho[..., 0, 0] + rho[..., 1, 1])
    bad = np.abs(tr - 1.0) > 1e-9
    if bad.any():
        raise ValueError(f"density matrix trace {tr[bad].flat[0]} differs from 1 beyond 1e-9")
    u = (rho[..., 0, 1] + rho[..., 1, 0]).real
    v = (-1j * (rho[..., 0, 1] - rho[..., 1, 0])).real
    w = (rho[..., 0, 0] - rho[..., 1, 1]).real
    return np.stack([u, v, w], axis=-1)


def initial_state(eps: float, phi0: float) -> np.ndarray:
    """(sqrt(1 - eps) e^{i phi0}, sqrt(eps)): spin up with an initialization
    error eps in [0, 1) and phase phi0, which must be finite, else ValueError."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {eps}")
    if not math.isfinite(phi0):
        raise ValueError(f"phi0 must be finite, got {phi0}")
    return np.array([np.sqrt(1.0 - eps) * np.exp(1j * phi0), np.sqrt(eps)],
                    dtype=complex)


def bloch_to_density(r: np.ndarray) -> np.ndarray:
    """Inverse of :func:`density_to_bloch` (exact round trip)."""
    u, v, w = float(r[0]), float(r[1]), float(r[2])
    return np.array([[(1 + w) / 2, (u + 1j * v) / 2],
                     [(u - 1j * v) / 2, (1 - w) / 2]], dtype=complex)
