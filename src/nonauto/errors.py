"""Failure types raised across the package.

Every failure raised on purpose is a NonautoError. Numerical failures
(singular solves, unsettled limits, exhausted refinement, overflow) derive
from NumericalFailure; the rest are contract violations (bad inputs, mixed
norms). The command line maps NumericalFailure to exit status 3 and every
other NonautoError to 1, so a new error type picks its status by its base.
"""
from __future__ import annotations


class NonautoError(Exception):
    """Base class for every failure this package raises on purpose."""


class NumericalFailure(NonautoError):
    """Base class for failures of a computation rather than of its inputs' contract."""


class DimensionMismatch(NonautoError):
    """Operands act on spaces of different dimension."""


class NormKindMismatch(NonautoError):
    """Operands carry different induced norms; combine them explicitly first."""


class OutOfInterval(NonautoError):
    """A time argument lies outside the family's interval of definition."""


class PreconditionViolated(NonautoError):
    """A documented entry condition of an operation does not hold."""


class SingularResolvent(NumericalFailure):
    """mu I - A is singular or too ill conditioned to solve reliably."""


class EigenFailure(NumericalFailure):
    """The eigenvalue iteration did not converge."""


class Overflow(NumericalFailure):
    """A matrix exponential, or an exponential bound, overflows double precision."""


class TailNotSettled(NumericalFailure):
    """The large-lambda tail of a limit has not stabilised on the given grid."""

    def __init__(self, message: str, value: float = float("nan"), spread: float = float("nan")):
        super().__init__(message)
        self.value = value
        self.spread = spread


class ToleranceNotReached(NumericalFailure):
    """Refinement exhausted its level budget above the requested tolerance."""

    def __init__(self, message: str, best_delta: float, levels):
        super().__init__(message)
        self.best_delta = best_delta
        self.levels = tuple(levels)


class NotInvertible(NumericalFailure):
    """The period map cannot be inverted, so no dichotomy splitting exists."""


class DomainTooSmall(NonautoError):
    """The spatial domain does not contain the requested multiplier support."""
