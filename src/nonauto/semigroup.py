"""Matrix semigroups T_A(t) = e^{tA}: exponentials and growth certificates.

A growth certificate (M, omega0) asserts ||e^{tA}|| <= M e^{omega0 t} for all t >= 0: the Lumer-Phillips
certificate (1, mu(A)), mu the logarithmic norm, or a fit from the spectral abscissa. Every exponential goes
through the blocked truncated-Taylor kernel expm_stack; expm is its one-item form, and expm_multiples samples a
fixed-step time grid by powers of one exponential, on which every envelope ||e^{tA}|| e^{-w t} is ||e^{t(A - w I)}||.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Overflow, PreconditionViolated
from .linop import BLOCK_BYTES, NormKind, Operator, log_norm, norm_of, norm_stack, spectrum

# Safety inflation applied to checked bounds.
BOUND_SLACK = 1e-6
# 1-norm of tA above which e^{tA} can overflow doubles (e^709 is the largest).
EXP_ARG_LIMIT = 700.0
# Fit grid of fit_growth_bound: FIT_POINTS equispaced nodes on [0, FIT_HORIZON], omega0 >= abscissa + FIT_MARGIN.
FIT_HORIZON = 5.0
FIT_MARGIN = 1e-2
FIT_POINTS = 513


@dataclass(frozen=True)
class GrowthBound:
    """Certificate ||e^{tA}|| <= m e^{omega0 t} for all t >= 0."""

    m: float
    omega0: float

    def __post_init__(self):
        if not (1.0 <= self.m < math.inf and math.isfinite(self.omega0)):
            raise PreconditionViolated(
                f"growth bound wants finite m >= 1 and omega0, got m={self.m}, omega0={self.omega0}"
            )

    def envelope(self, t: float) -> float:
        return self.m * math.exp(self.omega0 * t)


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of sampling an inequality lhs(t) <= rhs(t) over a grid."""

    passed: bool
    max_ratio: float
    worst_t: float


def worst_ratio(ratios: np.ndarray, ts: np.ndarray) -> BoundCheck:
    """BoundCheck of sampled ratios lhs/rhs at times ts; worst_t stays 0 unless a ratio is positive."""
    if not np.any(ratios > 0.0):
        return BoundCheck(passed=True, max_ratio=0.0, worst_t=0.0)
    i = int(np.argmax(ratios))
    return BoundCheck(passed=bool(ratios[i] <= 1.0), max_ratio=float(ratios[i]), worst_t=float(ts[i]))


def expm(a: Operator) -> Operator:
    """e^A: the one-item form of expm_stack."""
    try:
        return Operator(expm_stack(a.entries[None])[0], a.norm_kind)
    except Overflow:
        if not np.isfinite(a.entries).all():
            raise Overflow("e^A: the input A has a non-finite entry") from None
        anorm = norm_of(a.entries, NormKind.ONE)
        squarings = max(0, math.ceil(math.log2(max(anorm, 1.0) / EXP_ARG_LIMIT)))
        raise Overflow(f"e^A overflows doubles (1-norm {anorm:.3e})", required_squarings=squarings) from None


# Truncated Taylor degrees as (m, s, theta_m). T_m(x) = sum_{k <= m} x^k / k!
# has relative backward error at most 2^-53 for 1-norms up to theta_m, the
# largest theta with sum_k |c_k| theta^(k-1) <= 2^-53 where
# log(e^-x T_m(x)) = sum_k c_k x^k (Higham 2005's method; Al-Mohy & Higham
# 2011). Paterson-Stockmeyer in x^s costs s - 1 + m/s - 1 products and no solve.
_TAYLOR = (
    (4, 2, 3.397168839976962e-4),
    (6, 3, 9.065656407595102e-3),
    (9, 3, 8.957760203223343e-2),
    (12, 4, 0.299615891381158),
    (16, 4, 0.7802874256626574),
)


def expm_stack(mats: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Batched e^{M_j} for a (k, d, d) stack of raw matrices: the package's one exponential kernel.

    The stack is cut into blocks of at most BLOCK_BYTES per (block, d, d)
    array, at least one matrix each. A block whose largest 1-norm is within
    theta_m for m in {4, 6, 9, 12, 16} takes the lowest such Taylor degree m;
    otherwise it takes degree 16 after scaling each matrix by 2^-s, then s
    squarings. Matrix products alone evaluate every degree; there is no
    solve. scipy's expm walks a stack matrix by matrix, whose per-call
    overhead dominates dyadic refinement at small dimensions. Blocks run in
    stack order, and the first failing block raises.

    With out, a float64 array of the stack's shape, each block's result is
    written there and out is returned. out may be mats itself: a block is
    computed in full before it is written back, so a caller that owns the
    stack holds one stack, not two. After an Overflow, out is undefined.
    """
    mats = np.asarray(mats, dtype=float)
    if out is not None and out.shape != mats.shape:
        raise PreconditionViolated(f"expm_stack out has shape {out.shape}, the stack {mats.shape}")
    if mats.shape[0] == 0:
        return mats.copy() if out is None else out
    d = mats.shape[-1]
    step = max(1, BLOCK_BYTES // (8 * d * d))
    if out is None:
        if mats.shape[0] <= step:
            return _expm_block(mats)
        out = np.empty(mats.shape)
    for i in range(0, mats.shape[0], step):
        out[i : i + step] = _expm_block(mats[i : i + step])
    return out


def _expm_block(mats: np.ndarray) -> np.ndarray:
    """e^{M_j} for one block, at the lowest Taylor degree its largest 1-norm allows."""
    if not np.isfinite(mats).all():
        raise Overflow("a cell exponential's input has a non-finite entry")
    norms = norm_stack(mats, NormKind.ONE)
    top = norms.max()
    for m, s, theta in _TAYLOR:
        if top <= theta:
            out = _taylor(mats, m, s)
            break
    else:
        # Degree 16 of each matrix scaled by 2^-k into theta_16, squared k times:
        # the whole block while every matrix needs it, then only those that do.
        k = _squarings(norms)
        out = _taylor(mats / np.exp2(k)[:, None, None], m, s)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(int(k.min())):
                out = out @ out
            for j in range(int(k.min()) + 1, int(k.max()) + 1):
                sel = k >= j
                out[sel] = out[sel] @ out[sel]
    if not np.isfinite(out).all():
        raise Overflow("a cell exponential overflows doubles")
    return out


def _squarings(norms: np.ndarray) -> np.ndarray:
    """Squarings expm_stack takes for matrices of these 1-norms: the least s >= 0 with norm 2^-s <= theta_16."""
    theta = _TAYLOR[-1][2]
    return np.ceil(np.log2(np.maximum(norms, theta) / theta)).astype(int)


def _add_identity(m: np.ndarray, c: float) -> np.ndarray:
    """m + c I in place on a C-contiguous (k, d, d) stack."""
    m.reshape(m.shape[0], -1)[:, :: m.shape[-1] + 1] += c
    return m


def _taylor(x: np.ndarray, m: int, s: int) -> np.ndarray:
    """T_m(x) by Paterson-Stockmeyer: Horner in x^s over chunks of s terms, for s dividing m, m >= 2s.

    T_m = B_0 + x^s (B_1 + ... + x^s B_{m/s-1}), B_i = sum_{j < s} x^j / (is + j)!,
    where the top chunk B_{m/s-1} also takes the x^s / m! term, so it costs
    no product.
    """
    c = [1.0 / math.factorial(k) for k in range(m + 1)]
    powers = [None, x]
    while len(powers) <= s:
        powers.append(powers[-1] @ x)
    p = c[m] * powers[s]
    for k in range(m - s, -1, -s):
        if k < m - s:
            p = powers[s] @ p
        for j in range(s - 1, 0, -1):
            p += c[k + j] * powers[j]
        _add_identity(p, c[k])
    return p


def expm_multiples(a: np.ndarray, step: float, counts) -> np.ndarray:
    """The (k, d, d) stack of e^{n_j step A} for nonnegative integer counts n_j: powers of one exponential.

    E = e^{step A} takes one expm_stack call; e^{n step A} = E^n by the
    semigroup law. For each bit b of max n, E^{2^b} is squared once, and the
    counts with bit b set take E^{2^b} @ out as one batched product (their
    lowest set bit takes a copy). Count 0 is the identity. A count's matrix
    does not depend on the other counts. Non-finite input or output raises
    Overflow.
    """
    n = np.asarray(counts)
    if n.ndim != 1 or n.dtype.kind not in "iu" or (n < 0).any():
        raise PreconditionViolated(f"expm_multiples wants a 1-d array of nonnegative integer counts, got {counts!r}")
    a = np.asarray(a, dtype=float)
    out = np.empty((len(n),) + a.shape)
    out[n == 0] = np.eye(a.shape[-1])
    if len(n) == 0:
        return out
    power = expm_stack((step * a)[None])[0]  # E^{2^b}, b = 0 first
    started = np.zeros(len(n), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(int(n.max()).bit_length()):
            if b:
                power = power @ power
            hit = ((n >> b) & 1) == 1
            out[hit & ~started] = power
            more = hit & started
            if more.any():
                out[more] = power @ out[more]
            started |= hit
    if not np.isfinite(out).all():
        raise Overflow(f"e^{{n step A}} overflows doubles for some count up to {int(n.max())}")
    return out


def envelope_ratios(a: Operator, step: float, counts, omega0: float) -> np.ndarray:
    """||e^{tA}|| e^{-omega0 t} at t = n step for each count n: the norms of e^{t(A - omega0 I)} from expm_multiples."""
    return norm_stack(expm_multiples(a.entries - omega0 * np.eye(a.dim), step, counts), a.norm_kind)


def fit_growth_bound(a: Operator) -> GrowthBound:
    """Of two growth certificates (M, omega0) for A, the one with the smaller sup of M e^{omega0 t} on [0, FIT_HORIZON].

    Both hold for all t: Lumer-Phillips (1, mu(A)), mu the logarithmic norm in A's norm kind, and the spectral fit.
    Where mu <= 0 the former's sup is 1, no more than the fit's M, and where the fit overflows, it is the one left.
    """
    mu = log_norm(a.entries, a.norm_kind)
    if -math.inf < mu <= 0.0:
        return GrowthBound(m=1.0, omega0=mu)
    try:
        fit = _spectral_fit(a)  # a non-finite A raises EigenFailure here
    except Overflow:
        return GrowthBound(m=1.0, omega0=mu)
    # M e^{omega0 t} peaks at t = 0 or FIT_HORIZON; the sups are compared in logs, which cannot overflow.
    if math.log(fit.m) + max(fit.omega0, 0.0) * FIT_HORIZON < mu * FIT_HORIZON:
        return fit
    return GrowthBound(m=1.0, omega0=mu)


def _spectral_fit(a: Operator) -> GrowthBound:
    """Growth certificate for all t >= 0 from the spectral abscissa alpha; an M that overflows doubles raises Overflow.

    With T = FIT_HORIZON and h = T / (FIT_POINTS - 1), the nodes t_k = k h sample r_k = ||e^{t_k (A - alpha I)}||.
    omega0 = alpha + lam, lam = max(FIT_MARGIN, log r(T) / T), makes ||e^{T(A - omega0 I)}|| <= 1. For t in
    [t_k, t_k + h], e^{t(A - omega0 I)} = e^{(t - t_k)(A - omega0 I)} e^{t_k (A - omega0 I)}, and the first factor's
    norm is at most e^{(mu(A) - omega0)^+ h}, mu the logarithmic norm; so ||e^{tA}|| e^{-omega0 t} <= M on [0, T]
    for M = max(1, max_k r_k e^{-lam t_k}) e^{(mu(A) - omega0)^+ h}. Every t is k T + s with s in [0, T], and
    e^{tA} = (e^{TA})^k e^{sA}, so the bound M holds for all t.
    """
    alpha = spectrum(a).abscissa
    h = FIT_HORIZON / (FIT_POINTS - 1)
    counts = np.arange(FIT_POINTS)
    ratios = envelope_ratios(a, h, counts, alpha)
    lam = max(FIT_MARGIN, math.log(ratios[-1]) / FIT_HORIZON)
    omega0 = alpha + lam
    with np.errstate(over="ignore"):
        m = max(1.0, (ratios * np.exp(-lam * h * counts)).max())
        m *= np.exp(max(log_norm(a.entries, a.norm_kind) - omega0, 0.0) * h)
    if not m < math.inf:
        raise Overflow(f"the spectral fit's M overflows doubles at omega0 = {omega0:.6g}")
    return GrowthBound(m=float(m), omega0=omega0)


def semigroup_diff_bound_check(g: Operator, h: Operator, m: float, omega: float, delta: float) -> BoundCheck:
    """Check ||e^{tG} - e^{tH}|| <= t M^2 e^{4 omega t} delta (1 + slack) at 21 points of [0, 2].

    delta is the Yosida distance of G and H, which for matrices equals
    ||G - H||. Both semigroups must obey the common certificate (M, omega),
    read as ||e^{t(G - omega I)}|| <= M, on the sampled grid; the ratio is
    ||e^{t(G - omega I)} - e^{t(H - omega I)}|| e^{-3 omega t} / (t M^2 delta),
    so no factor overflows. omega must be >= 0: for omega < 0 the stated
    e^{4 omega t} factor shrinks faster than the true difference decays, so a
    negative-omega certificate has to be relaxed to omega = 0 by the caller.
    """
    g._check(h)
    if omega < 0.0:
        raise PreconditionViolated("semigroup_diff_bound_check wants omega >= 0; relax the certificate to omega = 0")
    if m < 1.0:
        raise PreconditionViolated(f"certificate constant m must be >= 1, got {m}")
    counts = np.arange(21)
    ts = 0.1 * counts
    eg, eh = (expm_multiples(x.entries - omega * np.eye(g.dim), 0.1, counts) for x in (g, h))
    broken = np.maximum(norm_stack(eg, g.norm_kind), norm_stack(eh, g.norm_kind)) > m * (1.0 + 1e-9)
    if broken.any():
        raise PreconditionViolated(f"certificate (M={m}, omega={omega}) fails at t={ts[np.argmax(broken)]}")
    ts = ts[1:]
    lhs = norm_stack(eg[1:] - eh[1:], g.norm_kind) * np.exp(-3.0 * omega * ts)
    rhs = ts * m * m * delta * (1.0 + BOUND_SLACK)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0.0, lhs / rhs, np.where(lhs == 0.0, 0.0, float("inf")))
    return worst_ratio(ratios, ts)
