"""Exception types shared across the toolkit."""

from __future__ import annotations


class SingularityError(RuntimeError):
    """A field-synthesis denominator vanishes without numerator cancellation.

    Carries the offending time ``t`` (ns) and the numerator residual (T rad/ns)
    so callers can report how far the design is from a removable singularity.
    """

    def __init__(self, t: float, residual: float):
        self.t = t
        self.residual = residual
        super().__init__(f"non-cancellable singularity at t={t:.9g} ns "
                         f"(numerator residual {residual:.3e} T rad/ns)")


class IntegratorError(RuntimeError):
    """A propagation or quadrature failed its convergence gate."""


class DegenerateReferenceError(RuntimeError):
    """Block reduction requested at an energy (nearly) degenerate with the folded block."""


class ConfigError(ValueError):
    """Invalid run configuration (bad value, unknown key, unreadable file)."""
