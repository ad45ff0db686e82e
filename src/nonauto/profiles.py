"""Scalar profiles phi(t) of factored families B(t) = phi(t) B0.

A profile is any callable t -> float. A Profile also has an array form,
values(ts), and computes its scalar form through it, so a family gives the
same bits whether it is evaluated at one t or at many. profile_values is the
one way the package evaluates a profile: the array form where there is one,
else one scalar call per t.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Profile:
    """A scalar profile with an array form; subclasses implement values(ts)."""

    def values(self, ts: np.ndarray) -> np.ndarray:
        """phi(t) for each t of a 1-D float array, as a new array."""
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return float(self.values(np.array([float(t)]))[0])


@dataclass(frozen=True)
class Sinusoid(Profile):
    """amplitude sin(frequency t + phase), with the operations of the scalar formula in its order."""

    frequency: float = 1.0
    phase: float = 0.0
    amplitude: float = 1.0

    def values(self, ts: np.ndarray) -> np.ndarray:
        # Non-finite parameters give non-finite values, as the scalar formula does, with no warning;
        # the cell exponentials refuse them.
        with np.errstate(all="ignore"):
            return self.amplitude * np.sin(self.frequency * ts + self.phase)


@dataclass(frozen=True)
class Constant(Profile):
    """The profile phi(t) = value."""

    value: float

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.full(len(ts), float(self.value))


def profile_values(profile, ts) -> np.ndarray:
    """profile(t) for each t of ts as a float array: the array form of a Profile, else one scalar call per t."""
    ts = np.asarray(ts, dtype=float)
    if isinstance(profile, Profile):
        return profile.values(ts)
    return np.array([float(profile(float(t))) for t in ts])
