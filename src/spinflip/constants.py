"""Physical constants and material parameters.

Internal unit system: energies in meV, times in ns, magnetic fields in T,
lengths in cm, elementary charge e = 1.  Electric fields computed as
meV/(e cm) convert to V/cm through ``MEV_PER_E_CM_TO_V_PER_CM``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MU_B = 5.788381806e-2   # Bohr magneton, meV/T
HBAR = 6.582119569e-4   # reduced Planck constant, meV ns
K_B = 8.617333262e-2    # Boltzmann constant, meV/K

MEV_PER_E_CM_TO_V_PER_CM = 1e-3


@dataclass(frozen=True)
class MaterialParams:
    """Spin-orbit strengths and g-factor defining the host material.

    Parameters
    ----------
    hbar_alpha, hbar_beta : float
        Rashba and Dresselhaus couplings in meV cm.  Both must be nonzero:
        the electric-field map divides by the corresponding velocities.
    g : float
        Signed Lande factor (-0.44 for GaAs), nonzero: the fields divide by
        eta = g mu_B / hbar.
    xi_x, xi_y : float
        Dimensionless orbital-correction factors renormalizing the drive
        fields (0 when higher orbitals are neglected).
    """

    hbar_alpha: float
    hbar_beta: float
    g: float
    xi_x: float = 0.0
    xi_y: float = 0.0

    def __post_init__(self):
        for name in ("hbar_alpha", "hbar_beta", "g", "xi_x", "xi_y"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.hbar_alpha == 0.0:
            raise ValueError("hbar_alpha must be nonzero")
        if self.hbar_beta == 0.0:
            raise ValueError("hbar_beta must be nonzero")
        if self.g == 0.0:
            raise ValueError("g must be nonzero")

    @property
    def alpha(self) -> float:
        """Rashba velocity, cm/ns."""
        return self.hbar_alpha / HBAR

    @property
    def beta(self) -> float:
        """Dresselhaus velocity, cm/ns."""
        return self.hbar_beta / HBAR

    @property
    def eta(self) -> float:
        """g mu_B / hbar in 1/(T ns); carries the sign of g."""
        return self.g * MU_B / HBAR


def gaas(xi_x: float = 0.0, xi_y: float = 0.0) -> MaterialParams:
    """GaAs defaults: hbar*alpha = 2e-6 meV cm, beta = alpha/2, g = -0.44."""
    return MaterialParams(hbar_alpha=2e-6, hbar_beta=1e-6, g=-0.44,
                          xi_x=xi_x, xi_y=xi_y)
