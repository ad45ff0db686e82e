"""Dense square operators with a declared induced norm.

An Operator is an immutable float64 matrix plus the induced norm (1, 2 or inf)
in which every downstream estimate about it is made. Mixing norms is an error,
not a coercion: a bound certified in one norm says nothing in another.
"""
from __future__ import annotations

import contextlib
import enum
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EigenFailure, NormKindMismatch, SingularResolvent

# Resolvent solves are rejected above this 1-norm condition number.
COND_LIMIT = 1e12
# Residual allowance for (mu I - A) R = I, scaled by the condition number.
RESOLVENT_RESIDUAL = 1e-10
# Relative margin below COND_LIMIT that BandResolvent's kappa_1 certificate keeps: far
# wider than the rounding gap between its two cancellation-free 1-norms of R.
_COND_MARGIN = 1e-6
# Bytes of one (block, d, d) temporary in the stacked kernels (resolvent_stack,
# semigroup.expm_stack, the RK4 steps of evofam.oracle_solve), and of one chunk of
# mus in the stacked band calls (_mus_per_call): each block's temporaries stay in
# cache instead of streaming whole-stack arrays.
BLOCK_BYTES = 256 * 1024
# Bytes of the products one reduction block forms (the C R(mu, A) blocks of
# _product_norms, evofam._chain_desc's chunks): a bound on the temporaries
# of a product over a whole grid or a whole level.
PRODUCT_BYTES = 8 * 1024 * 1024
# Band LU (BandResolvent) replaces dense resolvents from d >= _BAND_MIN_DIM with
# _BAND_DIM_PER_DIAGONAL rows per band diagonal (resolvents). Band over dense time of
# an A-norm grid build and one diagonal-C value, Metzler A with every mu certified by
# BandResolvent (best of 5, three runs): 0.8-1.2 at d = 32, 0.5-0.9 at 40-48, 0.2-0.4
# at 64 (1-3 diagonals), 0.02-0.12 at 128-256 (tridiagonal) and 0.3-0.5 at 12-17 rows
# per diagonal (5 and 11 diagonals). A grid where every mu forms R (one run): 0.7-1.5
# at d = 32-48, 0.4-1.1 at 64 and 0.4-0.5 at 128-256. One certified R by an identity
# solve (resolvent, tridiagonal A, best of 20): 1.06 at d = 64, 0.46 at 128 and
# 0.34-0.41 at 256-512.
_BAND_MIN_DIM = 64
_BAND_DIM_PER_DIAGONAL = 16


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
    norm_kind: NormKind

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


def identity(dim: int, norm_kind: NormKind) -> Operator:
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


def log_norm(entries: np.ndarray, norm_kind: NormKind) -> float:
    """Logarithmic norm mu(A) of one raw matrix: ||e^{tA}|| <= e^{mu t} for t >= 0 (Soderlind, BIT 46, 2006).

    1-norm: max_j a_jj + sum_{i != j} |a_ij|; inf-norm: the same over rows; 2-norm: top eigenvalue of (A + A^T) / 2.
    NaN where A has a non-finite entry, which no certificate covers.
    """
    m = np.asarray(entries, dtype=float)
    if not np.isfinite(m).all():
        return float("nan")
    if norm_kind is NormKind.TWO:
        return float(np.linalg.eigvalsh((m + m.T) / 2.0).max())
    m = m.T if norm_kind is NormKind.INF else m
    return float((np.diagonal(m) + np.abs(m - np.diag(np.diagonal(m))).sum(axis=0)).max())


def _inverse_items(m: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a stack, one at a time: all NaN where one is exactly singular."""
    out = np.full(m.shape, np.nan)
    for i, item in enumerate(m):
        with contextlib.suppress(np.linalg.LinAlgError):
            out[i] = np.linalg.inv(item)
    return out


def _judge(kappa, residual, mus, skip: bool) -> np.ndarray:
    """Kept mask under the refusal rules (NaN kappa refuses); the first refused item raises unless skip is set."""
    ok = (kappa <= COND_LIMIT) & (residual <= RESOLVENT_RESIDUAL * kappa)
    if not (skip or ok.all()):
        j = int(np.argmin(ok))
        reason = (
            "mu I - A is exactly singular or not finite" if np.isnan(kappa[j])
            else f"condition number {kappa[j]:.3e} exceeds {COND_LIMIT:.0e}" if kappa[j] > COND_LIMIT
            else f"resolvent residual {residual[j]:.3e} above {RESOLVENT_RESIDUAL:.0e} * kappa"
        )
        raise SingularResolvent(f"{reason} at mu={float(mus[j])!r}")
    return ok


def resolvent_stack(ms: np.ndarray, mus, skip: bool = False) -> tuple:
    """(mu_j I - M_j)^{-1} for one (d, d) M against k mus, or a (k, d, d) stack against one mu.

    One batched LU inverse per block of BLOCK_BYTES. An item is refused when
    mu I - M is exactly singular, when its exact 1-norm condition number
    kappa = ||mu I - M||_1 ||R||_1 exceeds COND_LIMIT, or when the residual
    ||(mu I - M) R - I||_1 exceeds RESOLVENT_RESIDUAL * kappa. Returns
    (r, kept): the kept resolvents in item order and a boolean mask over the
    items. The first refused item raises SingularResolvent unless skip is set.
    An item with a non-finite mu or M is refused before any arithmetic: it is
    inverted as the identity and given a NaN kappa.
    """
    ms, mus = np.asarray(ms, dtype=float), np.atleast_1d(np.asarray(mus, dtype=float))
    k, d = (ms.shape[0] if ms.ndim == 3 else mus.shape[0]), ms.shape[-1]
    items = np.broadcast_to(np.isfinite(mus) & np.isfinite(ms).all(axis=(-2, -1)), (k,))
    ms, mus = np.broadcast_to(ms, (k, d, d)), np.broadcast_to(mus, (k,))
    out, kept = np.empty((k, d, d)), np.ones(k, dtype=bool)
    step = max(1, BLOCK_BYTES // (8 * d * d))
    for lo in range(0, k, step):
        finite = items[lo : lo + step]
        m = np.where(finite, mus[lo : lo + step], 0.0)[:, None, None] * np.eye(d) - ms[lo : lo + step]
        m[~finite] = np.eye(d)
        try:
            r = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            r = _inverse_items(m)
        kappa = np.where(finite, norm_stack(m, NormKind.ONE) * norm_stack(r, NormKind.ONE), np.nan)
        residual = norm_stack(m @ r - np.eye(d), NormKind.ONE)
        kept[lo : lo + len(m)] = _judge(kappa, residual, mus[lo : lo + step], skip)
        out[lo : lo + len(m)] = r
    return (out if kept.all() else out[kept]), kept


def bandwidths(m: np.ndarray) -> tuple:
    """(kl, ku): the lower and upper bandwidth of a square matrix, read from each row's first and last nonzero entry."""
    nz = m != 0
    rows = nz.any(axis=1)
    i = np.flatnonzero(rows)
    if i.size == 0:
        return 0, 0
    first = nz.argmax(axis=1)[rows]
    last = m.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)[rows]
    return max(int((i - first).max()), 0), max(int((last - i).max()), 0)


def _flapack_file():
    """The path of scipy's LAPACK extension, scipy/linalg/_flapack<suffix>, found without importing scipy; None where it is not there."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


_LAPACK = None


def _band_lapack() -> tuple:
    """(dgbtrf, dgbtrs, dgtsv, dgbsv): scipy's band LAPACK routines, loaded once on first use.

    They come from scipy's _flapack extension loaded on its own, which costs a
    few ms and MB where the scipy.linalg package costs about 0.2 s and 28 MB;
    a later import of scipy.linalg takes the same module and so the same
    functions. Where the extension lives elsewhere (_flapack_file is None),
    scipy.linalg.lapack hands them out.
    """
    global _LAPACK
    if _LAPACK is None:
        name = "scipy.linalg._flapack"
        module = sys.modules.get(name)
        path = _flapack_file() if module is None else None
        if path is not None:
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
        elif module is None:
            from scipy.linalg import lapack as module
        _LAPACK = module.dgbtrf, module.dgbtrs, module.dgtsv, module.dgbsv
    return _LAPACK


def shifted_band(diagonals: dict, mus, d: int) -> tuple:
    """((kl, ku), ab): solve_banded's storage of mu I - G, bit for bit, for G's diagonals {offset: values}.

    Given k mus, ab holds the block-diagonal matrix of the k blocks mu_j I - G,
    d columns each: the entries that couple two blocks are zero.
    """
    kl, ku = max(0, -min(diagonals)), max(0, max(diagonals))
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    block = np.zeros((kl + ku + 1, d))
    for k, v in diagonals.items():
        block[ku - k, max(0, k) : d + min(0, k)] = -v
    ab = np.tile(block, len(mus))
    ab[ku] += np.repeat(mus, d)
    return (kl, ku), ab


def _mus_per_call(kl: int, ku: int, floats: int) -> int:
    """How many mus one stacked band call takes: BLOCK_BYTES of `floats` doubles per mu where A is at most tridiagonal, else one.

    With kl, ku <= 1 each row of the factorization and of either solve takes at
    most two products, and a block boundary only adds zero ones, which leave
    every rounding as it is in any BLAS: each block's factors and solutions are
    its one-block call's. A wider band can round otherwise (OpenBLAS's
    transposed solve differs in the last bit from kl = 2), so it takes one mu
    per call.
    """
    return max(1, BLOCK_BYTES // (8 * floats)) if max(kl, ku) <= 1 else 1


def _blocks(lu: np.ndarray, piv: np.ndarray, sel: np.ndarray, d: int) -> tuple:
    """(lu, piv) of the blocks sel (increasing) of stacked band factors: a view where they are consecutive."""
    if sel[-1] - sel[0] == len(sel) - 1:
        cols = slice(sel[0] * d, (sel[-1] + 1) * d)
    else:
        cols = (sel[:, None] * d + np.arange(d)).ravel()
    return lu[:, cols], piv[cols]


def _factor_blocks(ab: np.ndarray, kl: int, ku: int, d: int) -> tuple:
    """gbtrf of block-diagonal band storage (shifted_band) in one call: (lu, piv), each block's pivots counted from its first row.

    The entries that couple two blocks are zero, so partial pivoting never picks
    a row of the next block and every update across a block boundary adds an
    exact zero: each block's factors are the one-block call's (see
    _mus_per_call; a zero may change sign). A 0 * inf there, from a block whose
    pivot's reciprocal overflows or which holds a non-finite entry, writes NaN
    into the next block instead, so a block with a non-finite entry is factored
    again alone.
    """
    dgbtrf = _band_lapack()[0]
    n = ab.shape[1] // d
    lu, piv, _ = dgbtrf(np.concatenate([np.zeros((kl, ab.shape[1])), ab]), kl, ku)
    piv -= np.repeat(np.arange(n, dtype=piv.dtype) * d, d)
    for i in np.flatnonzero(~np.isfinite(lu.reshape(lu.shape[0], n, d)).all(axis=(0, 2))):
        block = slice(i * d, (i + 1) * d)
        lu[:, block], piv[block], _ = dgbtrf(np.concatenate([np.zeros((kl, d)), ab[:, block]]), kl, ku)
    return lu, piv


def _stacked_solve(lu: np.ndarray, piv: np.ndarray, kl: int, ku: int, rhs: np.ndarray, trans: int) -> np.ndarray:
    """(n, d, w) solutions of the n blocks of stacked band factors (_factor_blocks) against one (d, w) rhs: one gbtrs call.

    The one gbtrs site. One block takes rhs as it is. Each block's solution is
    the one-block call's, as its factors are, unless a neighbour's solution is
    not finite (0 * inf): a block whose solution is not finite is solved again alone.
    """
    dgbtrs = _band_lapack()[1]
    d = rhs.shape[0]
    n = lu.shape[1] // d
    if n == 1:
        return dgbtrs(lu, kl, ku, rhs, piv, trans=trans)[0].reshape(1, d, -1)
    offsets = np.repeat(np.arange(n, dtype=piv.dtype) * d, d)
    x = dgbtrs(lu, kl, ku, np.tile(rhs, (n, 1)), piv + offsets, trans=trans)[0].reshape(n, d, -1)
    for i in np.flatnonzero(~np.isfinite(x).all(axis=(1, 2))):
        block = slice(i * d, (i + 1) * d)
        x[i] = dgbtrs(lu[:, block], kl, ku, rhs, piv[block], trans=trans)[0]
    return x


def _shifted_solves(diagonals: dict, mus, d: int, rhs: np.ndarray):
    """Solutions x_j of (mu_j I - G) x_j = rhs for G's diagonals {offset: values}, yielded as one (chunk, d) array per chunk.

    One LAPACK call per chunk of _mus_per_call mus in shifted_band's
    block-diagonal storage: gtsv where G is tridiagonal, else gbsv, as
    scipy.linalg.solve_banded calls them (the sweep's inputs are finite and
    d >= 2, so its finiteness check and 1 x 1 branch have nothing to do). As in
    _stacked_solve, a block whose solution is not finite is solved again alone.
    """
    _, _, dgtsv, dgbsv = _band_lapack()
    kl, ku = max(0, -min(diagonals)), max(0, max(diagonals))

    def solve(ab, b):
        if kl == ku == 1:
            x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3:]
        else:
            x, info = dgbsv(kl, ku, np.concatenate([np.zeros((kl, ab.shape[1])), ab]), b, overwrite_ab=True)[2:]
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return x

    step = _mus_per_call(kl, ku, (kl + ku + 1) * d)
    for lo in range(0, len(mus), step):
        chunk = mus[lo : lo + step]
        x = solve(shifted_band(diagonals, chunk, d)[1], np.tile(rhs, len(chunk))).reshape(len(chunk), d)
        for i in np.flatnonzero(~np.isfinite(x).all(axis=1)):
            x[i] = solve(shifted_band(diagonals, chunk[i], d)[1], rhs)
        yield x


def _band_matmul(ab: np.ndarray, kl: int, ku: int, r: np.ndarray) -> np.ndarray:
    """M @ r for M in solve_banded storage: one scaled row shift per diagonal, in r's memory order."""
    d = ab.shape[1]
    rt, out = r.T, np.zeros(r.shape[::-1], order="C" if r.flags.f_contiguous else "F")
    for k in range(-kl, ku + 1):
        lo, hi = max(0, -k), d - max(0, k)
        out[:, lo:hi] += ab[ku - k, lo + k : hi + k] * rt[:, lo + k : hi + k]
    return out.T


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u the unit roundoff: inf once n u >= 1."""
    nu = n * np.finfo(float).eps / 2.0
    return nu / (1.0 - nu) if nu < 1.0 else float("inf")


def _certified(lu: np.ndarray, piv: np.ndarray, kl: int, ku: int, m_norm: np.ndarray) -> np.ndarray:
    """Which blocks of _factor_blocks' factors of M_j = mu_j I - A alone show that M_j's R would be kept (BandResolvent).

    Each test runs on the blocks that passed the ones before it.
    """
    kv, n = kl + ku, len(m_norm)
    d = lu.shape[1] // n
    blocks = lu.reshape(lu.shape[0], n, d)
    ok = ((piv.reshape(n, d) == np.arange(d)).all(axis=1) & (blocks[kv] > 0.0).all(axis=1)
          & (blocks[:kv] <= 0.0).all(axis=(0, 2)) & (blocks[kv + 1 :] <= 0.0).all(axis=(0, 2)))
    if ok.any():
        sel = np.flatnonzero(ok)
        col_sums = _stacked_solve(*_blocks(lu, piv, sel, d), kl, ku, np.ones((d, 1)), trans=1)[:, :, 0]
        ok[sel] = m_norm[sel] * col_sums.max(axis=1) <= COND_LIMIT * (1.0 - _COND_MARGIN)
    if ok.any():
        # Column sums of |L| |U|: |L|'s own column sums (unit diagonal included) weight |U|'s columns.
        sel = np.flatnonzero(ok)
        factors = blocks[:, sel]
        l_sums, lu_sums = 1.0 + np.abs(factors[kv + 1 :]).sum(axis=0), np.zeros((len(sel), d))
        for k in range(kv + 1):
            lu_sums[:, k:] += l_sums[:, : d - k] * np.abs(factors[kv - k, :, k:])
        ok[sel] = 2.0 * _gamma(3 * (kv + 1)) * (lu_sums.max(axis=1) + m_norm[sel]) <= RESOLVENT_RESIDUAL * m_norm[sel]
    return ok


class BandResolvent:
    """R(mu_j, A) for one banded A against k mus, kept as LAPACK band LU factors (gbtrf).

    A mu is kept under resolvent_stack's three rules; only the kept mus' factors
    remain, with whether their R >= 0 (nonneg). Most mus are judged from the factors
    of M = mu I - A without forming R (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 9.4 and section 14.3; Berman & Plemmons, Nonnegative
    Matrices in the Mathematical Sciences, on M-matrices). This certificate applies
    where gbtrf succeeds, interchanges no row and leaves the M-matrix sign pattern:
    U diagonal > 0, U off-diagonals <= 0, L multipliers <= 0. With u the unit
    roundoff, gamma_n = n u / (1 - n u) and w = kl + ku + 1:

    - Sign. Substitution with such factors on e_j only adds nonnegative terms, so
      every entry gbtrs would form is >= 0: nonneg holds.
    - Condition number. ||R||_1 is max v for v = M^{-T} 1, one transposed solve with
      the same factors. It is cancellation-free like R's column sums, so the two agree
      to about 6 d gamma_{w+1} + gamma_d, below 1e-6 while gamma_{8 d (w+1)} < 1e-6
      (else no mu is certified). The mu is kept only if
      ||M||_1 max v <= COND_LIMIT (1 - 1e-6).
    - Residual. Column by column (M + dM_j) r_j = e_j with |dM_j| <= gamma_{3w} |L||U|,
      and R >= 0 bounds the rounding of the banded residual product by
      gamma_w ||M||_1 ||R||_1. ||R||_1 cancels against kappa's, so the rule
      residual <= RESOLVENT_RESIDUAL kappa holds once
      2 gamma_{3w} (|| |L||U| ||_1 + ||M||_1) <= RESOLVENT_RESIDUAL ||M||_1.
      The factor 2 covers the rounding of the column sums, of kappa and of this
      test; || |L||U| ||_1 is read from the band factors in O(d w).

    Every other finite mu (an interchange, another sign pattern, a kappa bound in or
    above the margin, a failed residual bound, an exactly singular factor) forms R
    from an identity right-hand side and is judged as before: _judge on the exact
    kappa_1 and the residual of a banded product, with resolvent_stack's messages. A
    non-finite mu, and every mu where A has a non-finite entry, is refused before any
    arithmetic.

    The mus are factored a chunk at a time (_mus_per_call: BLOCK_BYTES of band
    storage where A is at most tridiagonal, else one mu): one gbtrf call per chunk
    on the block-diagonal matrix of its mu_j I - A, and one stacked gbtrs call per
    chunk for the condition numbers and for norms' diagonal fast path. Each block's
    factors and solutions are its one-block call's (_factor_blocks, _stacked_solve).
    The kept factors stay stacked, block i in columns i d to (i + 1) d.
    """

    def __init__(self, a: np.ndarray, mus, skip: bool):
        d = self._d = a.shape[0]
        self.kl, self.ku = kl, ku = bandwidths(a)
        diagonals = {k: np.diagonal(a, k) for k in range(-kl, ku + 1)}
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        finite = np.isfinite(mus) & np.isfinite(a).all()
        solved = np.flatnonzero(finite)
        # A certified mu passes _judge with kappa = residual = 0; a non-finite mu or A is refused with kappa = NaN.
        kappa, residual, nonneg = np.where(finite, 0.0, np.nan), np.zeros(len(mus)), np.ones(len(mus), dtype=bool)
        rows = 2 * kl + ku + 1
        self._lu, self._piv = np.empty((rows, len(solved) * d), order="F"), np.empty(len(solved) * d, dtype=np.int32)
        certifiable = _gamma(8 * d * (kl + ku + 2)) < _COND_MARGIN
        step = _mus_per_call(kl, ku, rows * d)
        for lo in range(0, len(solved), step):
            chunk = solved[lo : lo + step]
            ab = shifted_band(diagonals, mus[chunk], d)[1]
            cols = slice(lo * d, (lo + len(chunk)) * d)
            lu, piv = _factor_blocks(ab, kl, ku, d)
            self._lu[:, cols], self._piv[cols] = lu, piv
            m_norm = np.abs(ab).sum(axis=0).reshape(-1, d).max(axis=1)
            certified = _certified(lu, piv, kl, ku, m_norm) if certifiable else np.zeros(len(chunk), dtype=bool)
            for j in np.flatnonzero(~certified):
                i, block, eye = chunk[j], slice(j * d, (j + 1) * d), np.eye(d, order="F")
                singular = (lu[kl + ku, block] == 0.0).any()
                r = np.full((d, d), np.nan) if singular else _stacked_solve(lu[:, block], piv[block], kl, ku, eye, 0)[0]
                kappa[i] = m_norm[j] * norm_of(r, NormKind.ONE)
                residual[i] = norm_of(_band_matmul(ab[:, block], kl, ku, r) - eye, NormKind.ONE)
                nonneg[i] = (r >= 0.0).all()
        self.kept = _judge(kappa, residual, mus, skip)
        self.nonneg = nonneg[self.kept]
        if not self.kept.all():
            cols = np.repeat(self.kept[solved], d)
            self._lu, self._piv = np.asfortranarray(self._lu[:, cols]), self._piv[cols]

    def resolvent(self, i: int) -> np.ndarray:
        """R(mu, A) at the i-th kept mu: one solve of its factors on the identity."""
        block = slice(i * self._d, (i + 1) * self._d)
        return _stacked_solve(self._lu[:, block], self._piv[block], self.kl, self.ku, np.eye(self._d, order="F"), 0)[0]

    def norms(self, mats: np.ndarray, norm_kind: NormKind) -> np.ndarray:
        """(k, kept) norms ||C_j R(mu_i, A)|| of a (k, d, d) stack over the kept mus.

        A diagonal C where R >= 0 takes band solves: ||C R||_1 = max (mu I - A)^{-T} |c| and
        ||C R||_inf = max |c| o (mu I - A)^{-1} 1, one stacked gbtrs call per chunk of mus
        (_mus_per_call of its band storage or its solutions, the larger). Else R is solved
        again and _product_norms multiplies, as dense mode does.
        """
        k, d = mats.shape[0], mats.shape[-1]
        diag = np.diagonal(mats, axis1=1, axis2=2)
        fast = np.count_nonzero(mats, axis=(1, 2)) == np.count_nonzero(diag, axis=1)
        fast &= norm_kind is not NormKind.TWO
        c, general = np.abs(diag[fast]).T, mats[~fast] if fast.any() else mats
        out = np.empty((k, len(self.nonneg)))
        trans = norm_kind is NormKind.ONE
        positive = np.flatnonzero(self.nonneg) if fast.any() else np.zeros(0, dtype=int)
        step = _mus_per_call(self.kl, self.ku, d * max(self._lu.shape[0], c.shape[1]))
        for lo in range(0, len(positive), step):
            sel = positive[lo : lo + step]
            lu, piv = _blocks(self._lu, self._piv, sel, d)
            x = _stacked_solve(lu, piv, self.kl, self.ku, c if trans else np.ones((d, 1)), int(trans))
            out[np.ix_(fast, sel)] = (x if trans else c * x).max(axis=1).T
        for i, nonneg in enumerate(self.nonneg):
            rest = ~(fast & nonneg)
            if rest.any():
                out[rest, i] = _product_norms(general if nonneg else mats, self.resolvent(i)[None], norm_kind)[:, 0]
        return out


class DenseResolvents:
    """R(mu_j, A) for one A against k mus as resolvent_stack's dense inverses, with BandResolvent's three members."""

    def __init__(self, a: np.ndarray, mus, skip: bool):
        self._stack, self.kept = resolvent_stack(a, mus, skip)

    def resolvent(self, i: int) -> np.ndarray:
        return self._stack[i]

    def norms(self, mats: np.ndarray, norm_kind: NormKind) -> np.ndarray:
        return _product_norms(mats, self._stack, norm_kind)


def _product_norms(mats: np.ndarray, rs: np.ndarray, norm_kind: NormKind) -> np.ndarray:
    """(k, n) norms ||C_j R_i|| of a (k, d, d) stack against an (n, d, d) stack, PRODUCT_BYTES of products at a time."""
    n, d = rs.shape[0], rs.shape[-1]
    cols = max(1, min(n, PRODUCT_BYTES // (8 * d * d)))
    rows = max(1, PRODUCT_BYTES // (8 * d * d * cols))
    out = np.empty((mats.shape[0], n))
    for lo in range(0, mats.shape[0], rows):
        for mlo in range(0, n, cols):
            products = mats[lo : lo + rows, None] @ rs[None, mlo : mlo + cols]
            norms = norm_stack(products.reshape(-1, d, d), norm_kind)
            out[lo : lo + rows, mlo : mlo + cols] = norms.reshape(products.shape[:2])
    return out


def resolvents(a: np.ndarray, mus, skip: bool = False):
    """The one band-or-dense decision: R(mu_j, A) as a BandResolvent where band LU pays, else a DenseResolvents."""
    d = a.shape[0]
    band = d >= _BAND_MIN_DIM and d >= _BAND_DIM_PER_DIAGONAL * (sum(bandwidths(a)) + 1)
    return (BandResolvent if band else DenseResolvents)(a, mus, skip)


def resolvent(a: Operator, mu: float) -> Operator:
    """R(mu, A) = (mu I - A)^{-1}, the one-mu form of resolvents: a refused mu raises SingularResolvent."""
    return Operator(resolvents(a.entries, mu).resolvent(0), a.norm_kind)


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


def read_matrix(path, norm_kind: NormKind) -> Operator:
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
    """Write the plain-text matrix format read by read_matrix: format(x, ".17g") once per distinct bit pattern."""
    bits, inverse = np.unique(op.entries.view(np.uint64), return_inverse=True)
    text = np.array([format(x, ".17g") for x in bits.view(np.float64)], dtype=object)
    rows = text[inverse.reshape(op.entries.shape)].tolist()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim {op.dim}\n" + "".join([" ".join(row) + "\n" for row in rows]))
