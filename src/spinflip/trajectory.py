"""Cubic boundary-value problems for the Bloch-sphere angles theta(t), phi(t).

The spin-flip trajectory is fixed before any field is computed: theta runs
from 0 to pi with zero endpoint slopes, phi starts and ends at pi/2, passes
through 0 at t_f/2 and carries the midpoint slope that cancels the
field-synthesis singularity there:

    phid(t_f/2) = (beta/alpha) thetad(t_f/2) - eta B0.

Both angles are cubics with closed-form coefficients in normalized time
s = t/t_f, rescaled to physical ns powers afterwards.  No linear system is
solved, so the design does not depend on the LAPACK build or core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import dpoly3, poly3
from .constants import MaterialParams


@dataclass(frozen=True)
class CubicPolynomial:
    """c0 + c1 t + c2 t^2 + c3 t^3 on the domain [0, tf] (t in ns)."""

    coeffs: tuple[float, float, float, float]
    tf: float

    def _check(self, t: float) -> float:
        t = float(t)
        if not 0.0 <= t <= self.tf:
            raise ValueError(f"t={t} outside domain [0, {self.tf}]")
        return t

    def __call__(self, t: float) -> float:
        return poly3(self.coeffs, self._check(t))

    def deriv(self, t: float) -> float:
        return dpoly3(self.coeffs, self._check(t))


def _rescale(c_norm: np.ndarray, tf: float) -> tuple[float, float, float, float]:
    """Coefficients of p(s), s = t/tf, in ns powers, as Python floats (the scalar
    bisection probes run a third faster on them); ValueError when tf^3
    overflows, or when a coefficient is not finite (tf so small that tf^3
    underflows or c / tf^3 overflows)."""
    with np.errstate(all="ignore"):
        if not np.isfinite(np.float64(tf) ** 3):
            raise ValueError(f"tf={tf} ns is too large: tf^3 overflows")
        c = tuple(float(c_norm[j] / tf**j) for j in range(4))
    if not np.isfinite(c).all():
        raise ValueError(f"tf={tf} ns is too small: the cubic's coefficients in ns "
                         f"powers are not finite")
    return c


def solve_theta(tf: float) -> CubicPolynomial:
    """Unique cubic with theta(0)=0, theta(tf)=pi, thetad(0)=thetad(tf)=0.

    The solution is monotone on [0, tf] and passes through pi/2 at tf/2.
    """
    if not tf > 0.0:
        raise ValueError(f"tf must be positive, got {tf}")
    # theta(s) = pi (3 s^2 - 2 s^3)
    return CubicPolynomial(_rescale(np.array([0.0, 0.0, 3 * np.pi, -2 * np.pi]), tf), tf)


def solve_phi(tf: float, b0: float, mat: MaterialParams) -> CubicPolynomial:
    """Unique cubic with phi(0)=phi(tf)=pi/2, phi(tf/2)=0 and the midpoint
    slope required by numerator cancellation at tf/2."""
    if not tf > 0.0:
        raise ValueError(f"tf must be positive, got {tf}")
    slope = (mat.beta / mat.alpha) * solve_theta(tf).deriv(tf / 2.0) - mat.eta * b0
    # with S the midpoint slope in s: phi(s) = pi/2 - (2S + 2pi) s
    # + (6S + 2pi) s^2 - 4S s^3
    s = slope * tf
    c = np.array([np.pi / 2, -2 * s - 2 * np.pi, 6 * s + 2 * np.pi, -4 * s])
    return CubicPolynomial(_rescale(c, tf), tf)


@dataclass(frozen=True)
class TrajectoryDesign:
    """The inverse-engineered control plan: both angle cubics plus tf, B0."""

    theta: CubicPolynomial
    phi: CubicPolynomial
    tf: float
    b0: float
    mat: MaterialParams

    @classmethod
    def design(cls, tf: float, b0: float, mat: MaterialParams) -> "TrajectoryDesign":
        return cls(theta=solve_theta(tf), phi=solve_phi(tf, b0, mat),
                   tf=tf, b0=b0, mat=mat)

    def boundary_residuals(self) -> np.ndarray:
        """The eight boundary-condition residuals, in imposition order."""
        th, ph, tf = self.theta, self.phi, self.tf
        slope = (self.mat.beta / self.mat.alpha) * th.deriv(tf / 2) - self.mat.eta * self.b0
        return np.array([
            th(0.0) - 0.0,
            th(tf) - np.pi,
            th.deriv(0.0),
            th.deriv(tf),
            ph(0.0) - np.pi / 2,
            ph(tf) - np.pi / 2,
            ph(tf / 2),
            ph.deriv(tf / 2) - slope,
        ])


def eval_angles(design: TrajectoryDesign, t: float) -> tuple[float, float, float, float]:
    """(theta, phi, thetad, phid) at t, exact from the cubic coefficients."""
    return (design.theta(t), design.phi(t),
            design.theta.deriv(t), design.phi.deriv(t))
