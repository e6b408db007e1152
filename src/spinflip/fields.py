"""Field synthesis: drive fields from the angle design, singularity handling,
electric fields, and the B0 upper-limit curve.

The drive fields are

    B1 = [-beta thetad cot(theta) cos(phi) + beta (phid + eta B0) sin(phi)]
         / [eta (1 + xi_x) (alpha cot(theta) - beta sin(phi))]

and the analogous B2; both share the denominator factor
alpha cot(theta) - beta sin(phi), whose zeros are the singular times.  The
design boundary conditions force the numerators to vanish at t_f/2 together
with the denominator, so the fields stay finite there (simple zero over
simple zero; evaluated by L'Hopital inside a guard window).  Above a
B0 limit that shrinks with t_f, additional denominator zeros appear whose
numerators do not cancel; those designs are rejected, not repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .constants import MU_B, MEV_PER_E_CM_TO_V_PER_CM, MaterialParams
from .core import FieldTriple, bisect
from .errors import IntegratorError, SingularityError
from .trajectory import TrajectoryDesign

# Central-difference step for dB/dt in units of tf.  1e-5 fails its own
# halving assertion near the interval edges for designs close to the B0
# limit; 2e-6 keeps the h^2 error ~25x inside the tolerance everywhere while
# staying ~1e9 above double-precision roundoff on the quotient.
E_STEP_FRAC = 2e-6
E_EDGE_FRAC = 5e-6        # electric-field endpoint clamp (stencil must fit)
ROOT_ABS_TOL = 1e-10      # |denominator| target for bisection, units of alpha
CANCEL_REL_TOL = 1e-8     # numerator residual tolerance relative to its scale


@dataclass(frozen=True)
class SingularityReport:
    """Roots of the denominator condition on (0, tf) and their cancellability."""

    times: tuple[float, ...]
    cancellable: tuple[bool, ...]
    numerator_residuals: tuple[float, ...]

    @property
    def all_cancellable(self) -> bool:
        return all(self.cancellable)

    @property
    def realizable(self) -> bool:
        """True when the only root is the cancellable one at tf/2."""
        return len(self.times) == 1 and self.all_cancellable


def _at(design: TrajectoryDesign, t: float, kernel) -> tuple[float, ...]:
    """kernel(design, ts)'s arrays at the one time t in [0, tf], as floats;
    SingularityError on NaN."""
    if not 0.0 <= t <= design.tf:
        raise ValueError(f"t={t} outside [0, {design.tf}]")
    values = kernel(design, np.array([t], dtype=float))
    if np.isnan(values).any():
        raise SingularityError(t, verify_cancellation(design, t))
    return tuple(float(v[0]) for v in values)


def effective_fields(design: TrajectoryDesign, t: float) -> tuple[float, float]:
    """(B1, B2) in T at time t; endpoint values are the (zero) inside limits.

    Raises SingularityError when t falls in the guard window of a
    denominator zero whose numerators do not cancel.
    """
    return _at(design, t, K.b1_b2)


def fields_xyz_at(design: TrajectoryDesign, t: float) -> FieldTriple:
    """Hamiltonian field triple along the design, with the checks of
    effective_fields.

    The xi factors cancel between the drive fields and the map, so (X, Y, Z)
    is independent of them: it is evaluated without them, exactly.
    """
    return FieldTriple(*_at(design, t, K._xyz))


def _electric_stencil(design: TrajectoryDesign, ts: np.ndarray):
    """(Ex, Ey) arrays in V/cm at the times ts, as electric_fields describes.

    Both central differences, at t +- h and t +- h/2, come from one field
    evaluation on all stencil points; the first failing sample raises.
    """
    tf, mat = design.tf, design.mat
    edge = E_EDGE_FRAC * tf
    ts = np.clip(ts, edge, tf - edge)
    pref_x = mat.g * MU_B / (2.0 * mat.beta) * MEV_PER_E_CM_TO_V_PER_CM
    pref_y = mat.g * MU_B / (2.0 * mat.alpha) * MEV_PER_E_CM_TO_V_PER_CM
    h = E_STEP_FRAC * tf
    offsets = (h, -h, 0.5 * h, -0.5 * h)
    b = np.stack(K.b1_b2(design, np.concatenate([ts + s for s in offsets]))).reshape(2, 4, -1)
    # coarse (step h) and fine (step h/2) estimates of dB1/dt and dB2/dt
    coarse = (b[:, 0] - b[:, 1]) / (2.0 * h)
    fine = (b[:, 2] - b[:, 3]) / (2.0 * (0.5 * h))
    nan = np.isnan(coarse).any(axis=0) | np.isnan(fine).any(axis=0)
    bad = np.abs(coarse - fine) > 1e-4 * np.maximum(np.abs(fine), 1e-8)
    failing = np.flatnonzero(nan | bad.any(axis=0))
    if failing.size:
        i = failing[0]
        t = float(ts[i])
        if nan[i]:
            raise SingularityError(t, verify_cancellation(design, t))
        k = 0 if bad[0, i] else 1
        raise IntegratorError(
            f"electric-field derivative did not converge at t={t:.9g} ns "
            f"({coarse[k, i]:.6e} vs {fine[k, i]:.6e} T/ns)")
    return pref_x * fine[0], pref_y * fine[1]


def electric_fields(design: TrajectoryDesign, t: float) -> tuple[float, float]:
    """(Ex, Ey) in V/cm at time t in [0, tf].

    E_x = (g mu_B / 2 e beta) dB1/dt and the alpha analogue for E_y,
    differentiated by central differences with step E_STEP_FRAC * tf; t is
    clamped to E_EDGE_FRAC * tf from the endpoints so the stencil fits.  NaN
    differences raise SingularityError; the step-halved estimate must agree
    to 1e-4 relative, else IntegratorError.
    """
    return _at(design, t, _electric_stencil)


def sample_fields(design: TrajectoryDesign, samples: int,
                  report: SingularityReport | None = None) -> tuple[np.ndarray, ...]:
    """Uniform field table on [0, tf] as the arrays (t, B1, B2, Ex, Ey);
    endpoints filled with inside limits.

    Raises SingularityError when the design carries any non-cancellable
    denominator zero (the fields diverge there even if no sample lands on it),
    read from report, the design's own scan, when the caller has one.
    """
    require_cancellable(design, report)
    ts = np.linspace(0.0, design.tf, samples)
    b1, b2 = K.b1_b2(design, ts)
    return (ts, b1, b2, *_electric_stencil(design, ts))


def verify_cancellation(design: TrajectoryDesign, ts: float) -> float:
    """Max |numerator| of B1, B2 at a denominator root, in T rad/ns units.

    The root is cancellable when the residual is below
    CANCEL_REL_TOL * cancellation_scale(design, ts).
    """
    n1, n2, _, _ = K.field_parts(design, ts)
    return float(max(abs(n1), abs(n2)))


def cancellation_scale(design: TrajectoryDesign, ts: float) -> float:
    return float(K.field_parts(design, ts)[3])


def detect_singularities(design: TrajectoryDesign, grid: int = 1001) -> SingularityReport:
    """Locate all roots of alpha cot(theta) = beta sin(phi) on (0, tf).

    Sign changes on a `grid`-point scan are refined by bisection to
    |denominator| < 1e-10 alpha; tf/2 is always a root by construction and is
    always reported.  Each root carries its numerator residual.
    """
    if grid < 100:
        raise ValueError(f"grid must be >= 100, got {grid}")
    tf, al, be = design.tf, design.mat.alpha, design.mat.beta
    tc, pc = design.theta.coeffs, design.phi.coeffs
    eps = K.EDGE_FRAC * tf
    ts = np.linspace(eps, tf - eps, grid)
    fv = K.denominator_grid(design, ts)

    roots = [tf / 2.0] + [float(ts[i]) for i in np.flatnonzero(fv[:-1] == 0.0)]
    tol = ROOT_ABS_TOL * al
    for i in np.flatnonzero(fv[:-1] * fv[1:] < 0.0):
        a, b = float(ts[i]), float(ts[i + 1])
        fa = fv[i]
        for _ in range(100):
            m = 0.5 * (a + b)
            fm = K._denominator(m, tc, pc, al, be)
            if abs(fm) < tol or m == a or m == b:
                a = b = m
                break
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-6 * tf:
            merged.append(r)
    # one float per call: a one-point array costs eight times the overhead
    parts = [K.field_parts(design, r) for r in merged]
    residuals = tuple(float(max(abs(n1), abs(n2))) for n1, n2, _, _ in parts)
    cancellable = tuple(res < CANCEL_REL_TOL * p[3] for res, p in zip(residuals, parts))
    return SingularityReport(times=tuple(merged), cancellable=cancellable,
                             numerator_residuals=residuals)


def require_cancellable(design: TrajectoryDesign,
                        report: SingularityReport | None = None) -> None:
    """Raise SingularityError at the first denominator root whose numerators
    do not cancel: the fields diverge there, whether or not a sample or an
    integrator stage lands on it.  A given report, the design's own scan,
    saves scanning again."""
    rep = detect_singularities(design) if report is None else report
    for ts_bad, ok, res in zip(rep.times, rep.cancellable, rep.numerator_residuals):
        if not ok:
            raise SingularityError(ts_bad, res)


def compute_b0_max(tf: float, mat: MaterialParams, b0_hi: float | None = None,
                   grid: int = 1001, tol: float = 1e-3) -> float:
    """Largest B0 for which the design keeps a single (removable) singularity.

    Bisection on B0 of the single-root predicate.  A given `b0_hi` must
    already show extra roots, else ValueError asks for a larger bracket.
    Without one the bracket starts at 10 T and doubles, at most 16 times,
    while the predicate still holds there: B0_max * tf stays near
    1.16 T ns, so short pulses need more than 10 T.
    """
    if not tf > 0.0:
        raise ValueError(f"tf must be positive, got {tf}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")

    def single(b0: float) -> bool:
        return detect_singularities(TrajectoryDesign.design(tf, b0, mat), grid).realizable

    hi, doublings = (10.0, 16) if b0_hi is None else (b0_hi, 0)
    lo = min(1e-3, 0.1 * hi)
    if not single(lo):
        raise ValueError(f"no single-singularity design even at B0={lo} T")
    while single(hi):
        if not doublings:
            raise ValueError(
                f"single singularity still holds at B0={hi} T; raise b0_hi to bracket the limit")
        hi, doublings = 2.0 * hi, doublings - 1
    lo, hi = bisect(single, lo, hi, tol)
    return 0.5 * (lo + hi)
