"""Dense square operators with a declared induced norm.

An Operator is an immutable float64 matrix plus the induced norm (1, 2 or inf)
in which every downstream estimate about it is made. Mixing norms is an error,
not a coercion: a bound certified in one norm says nothing in another.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, EigenFailure, NormKindMismatch, SingularResolvent

# Resolvent solves are rejected above this 1-norm condition estimate.
COND_LIMIT = 1e12
# Residual allowance for (mu I - A) R = I, scaled by the condition estimate.
RESOLVENT_RESIDUAL = 1e-10


class NormKind(enum.Enum):
    """Which induced matrix norm an operator is measured in."""

    ONE = "1"
    TWO = "2"
    INF = "inf"

    @classmethod
    def parse(cls, label: str) -> "NormKind":
        for kind in cls:
            if kind.value == str(label):
                return kind
        raise ValueError(f"unknown norm kind {label!r}; expected one of 1, 2, inf")


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable square matrix tagged with its induced norm."""

    entries: np.ndarray
    norm_kind: NormKind = NormKind.TWO

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"operator entries must be square, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def _check(self, other: "Operator"):
        if not isinstance(other, Operator):
            raise TypeError(f"expected Operator, got {type(other).__name__}")
        if other.dim != self.dim:
            raise DimensionMismatch(f"dimensions differ: {self.dim} vs {other.dim}")
        if other.norm_kind is not self.norm_kind:
            raise NormKindMismatch(f"norm kinds differ: {self.norm_kind.value} vs {other.norm_kind.value}")

    def __add__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.entries + other.entries, self.norm_kind)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.entries - other.entries, self.norm_kind)

    def __neg__(self) -> "Operator":
        return Operator(-self.entries, self.norm_kind)

    def __mul__(self, scalar: float) -> "Operator":
        return Operator(float(scalar) * self.entries, self.norm_kind)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.entries @ other.entries, self.norm_kind)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with their real-part and modulus envelopes."""

    eigenvalues: tuple
    abscissa: float
    radius: float


def identity(dim: int, norm_kind: NormKind = NormKind.TWO) -> Operator:
    return Operator(np.eye(dim), norm_kind)


def two_norm_stack(ms: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (k, d, d) stack (LAPACK gesdd).

    An item with a non-finite entry has norm inf; gesdd refuses such input,
    so only the finite items go to the SVD.
    """
    ms = np.asarray(ms, dtype=float)
    out = np.full(ms.shape[0], float("inf"))
    finite = np.isfinite(ms).all(axis=(1, 2))
    if finite.any():
        out[finite] = np.linalg.svd(ms[finite], compute_uv=False)[:, 0]
    return out


def norm_stack(ms: np.ndarray, norm_kind: NormKind) -> np.ndarray:
    """Induced norm of each matrix in a (k, d, d) stack: column sums, SVD or row sums."""
    ms = np.asarray(ms, dtype=float)
    if norm_kind is NormKind.ONE:
        return np.abs(ms).sum(axis=1).max(axis=1)
    if norm_kind is NormKind.INF:
        return np.abs(ms).sum(axis=2).max(axis=1)
    return two_norm_stack(ms)


def norm_of(entries: np.ndarray, norm_kind: NormKind) -> float:
    """Induced norm of one raw matrix: the one-item form of norm_stack."""
    return float(norm_stack(np.asarray(entries, dtype=float)[None], norm_kind)[0])


def op_norm(op: Operator) -> float:
    """Induced norm of the operator in its declared norm kind."""
    return norm_of(op.entries, op.norm_kind)


def _condition_1norm(m: np.ndarray, lu, piv) -> float:
    """1-norm condition estimate kappa_1(m) from an existing LU factorisation."""
    anorm = norm_of(m, NormKind.ONE)
    if anorm == 0.0:
        return float("inf")
    rcond, info = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond <= 0.0:
        return float("inf")
    return float(1.0 / rcond)


def resolvent(a: Operator, mu: float) -> Operator:
    """R(mu, A) = (mu I - A)^{-1} by LU with partial pivoting.

    Refuses to answer when the 1-norm condition estimate of mu I - A exceeds
    COND_LIMIT, or when the residual ||(mu I - A) R - I||_1 comes out above
    RESOLVENT_RESIDUAL times the condition estimate.
    """
    m = float(mu) * np.eye(a.dim) - a.entries
    try:
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    except Exception as exc:  # LinAlgError from LAPACK
        raise SingularResolvent(f"mu I - A could not be factorised at mu={mu!r}: {exc}") from exc
    if np.any(np.diag(lu) == 0.0):
        raise SingularResolvent(f"mu I - A is exactly singular at mu={mu!r}")
    kappa = _condition_1norm(m, lu, piv)
    if not np.isfinite(kappa) or kappa > COND_LIMIT:
        raise SingularResolvent(f"condition estimate {kappa:.3e} exceeds {COND_LIMIT:.0e} at mu={mu!r}")
    r = scipy.linalg.lu_solve((lu, piv), np.eye(a.dim), check_finite=False)
    residual = norm_of(m @ r - np.eye(a.dim), NormKind.ONE)
    if residual > RESOLVENT_RESIDUAL * kappa:
        raise SingularResolvent(f"resolvent residual {residual:.3e} above {RESOLVENT_RESIDUAL:.0e} * kappa at mu={mu!r}")
    return Operator(r, a.norm_kind)


def spectrum(a: Operator) -> Spectrum:
    """Eigenvalues of A with spectral abscissa and radius."""
    try:
        eigs = np.linalg.eigvals(a.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue iteration failed: {exc}") from exc
    return Spectrum(
        eigenvalues=tuple(complex(z) for z in eigs),
        abscissa=float(eigs.real.max()),
        radius=float(np.abs(eigs).max()),
    )


def read_matrix(path, norm_kind: NormKind = NormKind.TWO) -> Operator:
    """Read the plain-text matrix format: a `dim k` line, then k rows of k entries."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "dim":
            raise ValueError(f"{path}: first line must be 'dim k', got {' '.join(header)!r}")
        k = int(header[1])
        rows = []
        for i in range(k):
            row = fh.readline().split()
            if len(row) != k:
                raise ValueError(f"{path}: row {i} has {len(row)} entries, expected {k}")
            rows.append([float(x) for x in row])
    return Operator(np.array(rows), norm_kind)


def write_matrix(path, op: Operator) -> None:
    """Write the plain-text matrix format read by read_matrix."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim {op.dim}\n")
        for row in op.entries:
            fh.write(" ".join(format(x, ".17g") for x in row) + "\n")
