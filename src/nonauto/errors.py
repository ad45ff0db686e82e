"""Failure types raised across the package.

Numerical failures (singular solves, unsettled limits, exhausted refinement)
are distinct from contract violations (bad inputs, mixed norms) so the command
line layer can map them to distinct exit statuses.
"""
from __future__ import annotations


class NonautoError(Exception):
    """Base class for every failure this package raises on purpose."""


class DimensionMismatch(NonautoError):
    """Operands act on spaces of different dimension."""


class NormKindMismatch(NonautoError):
    """Operands carry different induced norms; combine them explicitly first."""


class OutOfInterval(NonautoError):
    """A time argument lies outside the family's interval of definition."""


class PreconditionViolated(NonautoError):
    """A documented entry condition of an operation does not hold."""


class SingularResolvent(NonautoError):
    """mu I - A is singular or too ill conditioned to solve reliably."""


class EigenFailure(NonautoError):
    """The eigenvalue iteration did not converge."""


class Overflow(NonautoError):
    """A matrix exponential, or an exponential bound, overflows double precision."""

    def __init__(self, message: str, required_squarings: int = 0):
        super().__init__(message)
        self.required_squarings = required_squarings


class TailNotSettled(NonautoError):
    """The large-lambda tail of a limit has not stabilised on the given grid."""

    def __init__(self, message: str, value: float = float("nan"), spread: float = float("nan")):
        super().__init__(message)
        self.value = value
        self.spread = spread


class ToleranceNotReached(NonautoError):
    """Refinement exhausted its level budget above the requested tolerance."""

    def __init__(self, message: str, best_delta: float, levels=None):
        super().__init__(message)
        self.best_delta = best_delta
        self.levels = tuple(levels) if levels is not None else ()


class NotInvertible(NonautoError):
    """The period map cannot be inverted, so no dichotomy splitting exists."""


class DomainTooSmall(NonautoError):
    """The spatial domain does not contain the requested multiplier support."""
