"""Reference design cubics, drive fields, the drive-to-Hamiltonian field
map, open-system right-hand sides and the CSV number format, for the tests.

The design cubics are solved here from their eight boundary conditions as
two 4x4 linear systems; the program writes them in closed form.  The field
kernel in :mod:`spinflip._kernels` works on arrays of times, and
the propagators in :mod:`spinflip.opensys` run on transfer matrices built
there; these references state the same formulas directly, one instant at a
time, on floats, the density matrix or the Bloch vector.  They stay
independent of the kernels: this module imports only numpy,
:mod:`spinflip.constants` and :mod:`spinflip.core`, which
``test_oracles_stay_independent`` checks.
"""

import numpy as np

from spinflip.constants import HBAR, MU_B, MaterialParams
from spinflip.core import FieldTriple, bloch_to_density, build_heff


def angle_cubics(tf, b0, mat: MaterialParams):
    """(theta, phi) coefficients c0..c3 in physical ns powers, each solved
    by np.linalg.solve from its boundary conditions in s = t/tf.

    theta: value 0 and pi at s = 0, 1, slope 0 at both.  phi: value pi/2 at
    s = 0, 1, value 0 at s = 1/2, and at s = 1/2 the slope tf times
    (beta/alpha) thetad(tf/2) - eta B0.
    """
    th = np.linalg.solve(np.array([
        [1.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 1.0, 2.0, 3.0],
    ]), np.array([0.0, np.pi, 0.0, 0.0]))
    thd_mid = (th[1] + th[2] + 0.75 * th[3]) / tf
    slope = (mat.beta / mat.alpha) * thd_mid - mat.eta * b0
    ph = np.linalg.solve(np.array([
        [1.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 0.5, 0.25, 0.125],
        [0.0, 1.0, 1.0, 0.75],
    ]), np.array([np.pi / 2, np.pi / 2, 0.0, slope * tf]))
    powers = tf ** np.arange(4)
    return th / powers, ph / powers


def b1_b2_at(t, tc, pc, tf, b0, alpha, beta, eta, xi_x, xi_y):
    """Effective drive fields (B1, B2) in T at one instant t.

    Zero limits within 1e-6 tf of the endpoints; where
    |alpha cot(theta) - beta sin(phi)| < 1e-6 alpha, the L'Hopital quotient
    of central differences with step 1e-6 tf, or (NaN, NaN) when a
    numerator exceeds 1e-6 (|beta thetad| + |beta (phid + eta B0)|).
    """
    def parts(t):
        th = ((tc[3] * t + tc[2]) * t + tc[1]) * t + tc[0]
        ph = ((pc[3] * t + pc[2]) * t + pc[1]) * t + pc[0]
        thd = (3.0 * tc[3] * t + 2.0 * tc[2]) * t + tc[1]
        phd = (3.0 * pc[3] * t + 2.0 * pc[2]) * t + pc[1]
        cot = np.cos(th) / np.sin(th)
        n1 = -beta * thd * cot * np.cos(ph) + beta * (phd + eta * b0) * np.sin(ph)
        n2 = (alpha * thd * cot * np.sin(ph) + alpha * (phd + eta * b0) * np.cos(ph)
              - beta * thd)
        return n1, n2, alpha * cot - beta * np.sin(ph), thd, phd

    if t < 1e-6 * tf or t > tf - 1e-6 * tf:
        return 0.0, 0.0
    n1, n2, d0, thd, phd = parts(t)
    fx, fy = 1.0 + xi_x, 1.0 + xi_y
    if abs(d0) < 1e-6 * alpha:
        scale = abs(beta * thd) + abs(beta * (phd + eta * b0))
        if abs(n1) > 1e-6 * scale or abs(n2) > 1e-6 * scale:
            return np.nan, np.nan
        n1p, n2p, d0p, _, _ = parts(t + 1e-6 * tf)
        n1m, n2m, d0m, _, _ = parts(t - 1e-6 * tf)
        dd = d0p - d0m
        if dd == 0.0:
            return np.nan, np.nan
        return (n1p - n1m) / (eta * fx * dd), (n2p - n2m) / (eta * fy * dd)
    return n1 / (eta * fx * d0), n2 / (eta * fy * d0)


def fields_xyz(b1: float, b2: float, b0: float, mat: MaterialParams) -> FieldTriple:
    """Map drive fields to the Hamiltonian triple:
    X = B2 (1+xi_y), Y = (alpha/beta)(1+xi_x) B1, Z = B0 + (1+xi_x) B1."""
    fx = 1.0 + mat.xi_x
    fy = 1.0 + mat.xi_y
    return FieldTriple(X=b2 * fy, Y=(mat.alpha / mat.beta) * fx * b1,
                       Z=b0 + fx * b1)


def bloch_of(mat: np.ndarray) -> np.ndarray:
    """Paper components of an arbitrary (not necessarily unit-trace) 2x2."""
    return np.array([(mat[0, 1] + mat[1, 0]).real,
                     (-1j * (mat[0, 1] - mat[1, 0])).real,
                     (mat[0, 0] - mat[1, 1]).real])


def lindblad_step_rhs(rho: np.ndarray, h: np.ndarray, gamma: float) -> np.ndarray:
    """rhodot = -(i/hbar)[H, rho] - (gamma/2) sum_i [sigma_i, [sigma_i, rho]].

    The double-commutator sum collapses to 8 rho - 4 tr(rho) I, so the
    dissipator is -4 gamma (rho - tr(rho) I / 2); trace-preserving.
    """
    rho = np.asarray(rho, dtype=complex)
    comm = h @ rho - rho @ h
    tr = rho[0, 0] + rho[1, 1]
    dissip = -4.0 * gamma * (rho - 0.5 * tr * np.eye(2))
    return -1j / HBAR * comm + dissip


def bloch_rhs(r: np.ndarray, fields: FieldTriple, gamma: float,
              mat: MaterialParams) -> np.ndarray:
    """The 3x3 dephasing Bloch equation: -4 gamma diagonal plus precession."""
    eta = mat.eta
    x, y, z = fields
    u, v, w = r
    return np.array([
        -4.0 * gamma * u + eta * z * v - eta * y * w,
        -eta * z * u - 4.0 * gamma * v + eta * x * w,
        eta * y * u - eta * x * v - 4.0 * gamma * w,
    ])


def xonly_hprime(fields: FieldTriple, b0: float, mat: MaterialParams) -> np.ndarray:
    """Noise operator: the B1-driven part of H_eff (Y and Z' = Z - B0 terms)."""
    zp = fields[2] - b0
    y = fields[1]
    pref = 0.5 * mat.g * MU_B
    return np.array([[pref * zp, 1j * pref * y],
                     [-1j * pref * y, -pref * zp]], dtype=complex)


def noise_master_rhs(rho: np.ndarray, h: np.ndarray, hprime: np.ndarray,
                     lam: float) -> np.ndarray:
    """rhodot = -(i/hbar)[H, rho] - (lam^2 / 2 hbar^2) [H', [H', rho]]."""
    rho = np.asarray(rho, dtype=complex)
    comm = h @ rho - rho @ h
    inner = hprime @ rho - rho @ hprime
    outer = hprime @ inner - inner @ hprime
    return -1j / HBAR * comm - lam**2 / (2.0 * HBAR**2) * outer


def noise_bloch_rhs(r: np.ndarray, fields: FieldTriple, b0: float, lam: float,
                    mat: MaterialParams, channel: str = "as-printed") -> np.ndarray:
    """Bloch-vector source-noise equation.

    as-printed: the diagonal-decay matrix, no dissipative cross couplings.
    x-only: derived numerically from the double commutator of xonly_hprime,
    which keeps the off-diagonal dissipative couplings the printed matrix
    drops.
    """
    if channel == "as-printed":
        eta = mat.eta
        x, y, z = fields
        zp = z - b0
        u, v, w = r
        ke = 0.5 * lam**2 * eta**2
        return np.array([
            -ke * (y * y + zp * zp) * u + eta * z * v - eta * y * w,
            -eta * z * u - ke * (x * x + zp * zp) * v + eta * x * w,
            eta * y * u - eta * x * v - ke * (x * x + y * y) * w,
        ])
    if channel == "x-only":
        h = build_heff(fields, mat)
        hp = xonly_hprime(fields, b0, mat)
        return bloch_of(noise_master_rhs(bloch_to_density(r), h, hp, lam))
    raise ValueError(f"channel must be 'as-printed' or 'x-only', got {channel!r}")


def csv_field(value) -> str:
    """One CSV field as the tables print it: str of a bool, 17 significant
    digits of a float (numpy's float64 too), str of anything else."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)
