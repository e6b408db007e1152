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

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, MU_B, MaterialParams
from .core import bisect
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


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _tridiagonal(h) -> tuple[list[float], list[float]]:
    """Diagonal of a tridiagonal T = Q^dagger h Q of the Hermitian h, and the
    squared moduli of its subdiagonal after a leading 0.

    Q is a product of Householder reflections, each zeroing one column below
    the subdiagonal (Golub & Van Loan, *Matrix Computations*, 4th ed., 2013,
    section 8.3.1).  A column already zero there is not reflected, so a
    block-diagonal h keeps its blocks' entries bit for bit.
    """
    a = np.asarray(h, dtype=complex).tolist()
    n = len(a)
    e2 = [0.0]
    for k in range(n - 1):
        x = [a[i][k] for i in range(k + 1, n)]
        tail = sum(_abs2(v) for v in x[1:])
        e2.append(_abs2(x[0]) + tail)
        if not tail:
            continue
        # H = I - tau v v^dagger maps x onto its first axis; the trailing block
        # becomes H A H = A - v w^dagger - w v^dagger (ibid., section 8.3.1)
        v = [x[0] + (x[0] / abs(x[0]) if x[0] else 1.0) * math.sqrt(e2[-1])] + x[1:]
        tau = 2.0 / sum(map(_abs2, v))
        rows = range(k + 1, n)
        p = [tau * sum(a[i][j] * vj for j, vj in zip(rows, v)) for i in rows]
        half = 0.5 * tau * sum(vi.conjugate() * pi for vi, pi in zip(v, p)).real
        w = [pi - half * vi for vi, pi in zip(v, p)]
        for i, vi, wi in zip(rows, v, w):
            for j, vj, wj in zip(rows, v, w):
                a[i][j] -= vi * wj.conjugate() + wi * vj.conjugate()
    return [a[i][i].real for i in range(n)], e2


def lowest_eigenvalues(h, k: int) -> list[float]:
    """The k lowest eigenvalues of the Hermitian h, ascending, in scalar
    arithmetic: the digits do not depend on the BLAS or LAPACK build.

    Eigenvalue j is the smallest double x at which the LDL^T factorization
    of T - x I, T the tridiagonal form of h, has more than j negative
    pivots: by Sylvester's law of inertia (Golub & Van Loan, section 8.4)
    that many eigenvalues lie at or below x.  A zero pivot counts as
    negative and becomes -tiny, as in LAPACK's dstebz; the count is then
    monotone in x (Demmel, Dhillon & Ren, *ETNA* 3 (1995) 116).  Plain
    bisection on the count, from the Gershgorin bound B, ends at adjacent
    doubles after about 52 + log2(B / |x|) halvings: 55 to 63 on the README
    model, about 1075 for an exact zero.  ValueError unless T's diagonal,
    its squared subdiagonal and B are finite: a NaN or an overflow in h or
    in its reduction would leave the pivots uncounted.
    """
    d, e2 = _tridiagonal(h)
    # Gershgorin, doubled: no eigenvalue lies within bound / 2 of +-bound
    bound = 2.0 * (max(map(abs, d)) + 2.0 * math.sqrt(max(e2))) + sys.float_info.min
    if not all(map(math.isfinite, [*d, *e2, bound])):
        raise ValueError("need a Hermitian matrix whose tridiagonal form is finite, "
                         f"got {np.asarray(h).tolist()}")

    def count(x: float) -> int:  # negative pivots of the LDL^T of T - x I
        n, q = 0, 1.0
        for dj, ej in zip(d, e2):
            q = dj - x - ej / q
            if q <= 0.0:
                n, q = n + 1, q or -sys.float_info.min
        return n

    out, lo = [], -bound
    for j in range(k):
        lo, hi = bisect(lambda x: count(x) <= j, lo, bound)
        out.append(hi)
    return out


def _mul(a: list, b: list) -> list:
    """Product of two 2x2 nested lists."""
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)] for i in (0, 1)]


def lowdin_reduce(p: BlockPartition, e_ref: float) -> np.ndarray:
    """Effective 2x2: Q + C (e_ref I - B)^{-1} C^dagger, the inverse by its adjugate.

    Raises DegenerateReferenceError when e_ref sits (nearly) on an
    eigenvalue of B: |lambda|max / |lambda|min of e_ref I - B is 1e12 or
    more, or one of its eigenvalues is 0.
    """
    s = (e_ref * np.eye(2) - p.b).tolist()
    small, large = sorted(map(abs, lowest_eigenvalues(s, 2)))
    if not large < 1e12 * small:
        raise DegenerateReferenceError(
            f"e_ref={e_ref} is degenerate with the folded block "
            f"(eigenvalues {lowest_eigenvalues(p.b, 2)})")
    det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
    inv = [[s[1][1] / det, -s[0][1] / det], [-s[1][0] / det, s[0][0] / det]]
    return p.q + np.array(_mul(_mul(p.c.tolist(), inv), p.c.conj().T.tolist()))


def coupling_norm(p: BlockPartition) -> float:
    """||C||_2, the square root of the largest eigenvalue of C^dagger C."""
    return math.sqrt(lowest_eigenvalues(_mul(p.c.conj().T.tolist(), p.c.tolist()), 2)[1])


def xi_factors(model: FourLevelModel) -> tuple[float, float]:
    """Orbital-correction factors xi_i = 2 |pbar_i|^2 / [m (E2 - E1)]."""
    denom = model.m * model.gap
    return (2.0 * _abs2(model.pbar_x) / denom,
            2.0 * _abs2(model.pbar_y) / denom)


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
