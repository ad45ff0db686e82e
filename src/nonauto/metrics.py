"""Perturbation size measured against a reference generator A.

The central quantity is the resolvent-weighted norm
    ||C||_A = (1/M) sup_{mu > omega0} (mu - omega0) ||C R(mu, A)||,
with (M, omega0) a growth certificate for A. The supremum is sampled on a
geometric mu-grid and completed by its exact large-mu tail op_norm(C)/M.
The Yosida distance d_Y(A, B) = limsup lambda^2 ||R(lambda,A) - R(lambda,B)||
is evaluated in the cancellation-free factored form
    lambda^2 R(lambda, A) (A - B) R(lambda, B).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NormKindMismatch, PreconditionViolated, SingularResolvent, TailNotSettled
from .linop import Operator, norm_stack, op_norm, resolvent_stack, resolvents, spectrum
from .profiles import profile_values
from .semigroup import BOUND_SLACK, BoundCheck, GrowthBound, envelope_ratios, worst_ratio

LAMBDA_CEILING = 1e8
LAMBDA_POINTS_PER_DECADE = 4
# Fraction of mu-grid points that may fail to solve before a_norm gives up.
SKIP_BUDGET = 0.10
TAIL_REL = 1e-3
TAIL_ABS = 1e-9


@dataclass(frozen=True)
class MuGrid:
    """Geometric grid of offsets mu - omega0 used to sample the supremum."""

    min_offset: float = 1e-3
    max_offset: float = 1e8
    points_per_decade: int = 20

    def offsets(self) -> np.ndarray:
        if not (0.0 < self.min_offset < self.max_offset < math.inf):
            raise PreconditionViolated(
                f"MuGrid wants 0 < min_offset < max_offset < inf, got {self.min_offset!r}, {self.max_offset!r}"
            )
        if not self.points_per_decade >= 1:
            raise PreconditionViolated(f"MuGrid wants points_per_decade >= 1, got {self.points_per_decade!r}")
        decades = math.log10(self.max_offset / self.min_offset)
        count = max(2, round(decades * self.points_per_decade) + 1)
        return np.geomspace(self.min_offset, self.max_offset, count)


@dataclass(frozen=True)
class ANormResult:
    """Value of ||C||_A with the mu realising it (inf means the tail did) and the sweep's (mu, scaled norm) samples."""

    value: float
    argmax_mu: float
    m: float
    omega0: float
    skipped: int
    total: int
    samples: tuple


class ANormEvaluator:
    """Shared mu-grid resolvents of a fixed A, reused across many C.

    The grid is one linop.resolvents object: dense inverses, or band LU
    factors for a narrow-banded A (band mode), and the norms of C R(mu, A)
    over it. Grid points whose resolvent is refused are skipped and counted;
    more than SKIP_BUDGET of them is an error.
    """

    def __init__(self, a: Operator, gb: GrowthBound, grid: MuGrid | None = None):
        self.a = a
        self.gb = gb
        self.grid = grid or MuGrid()
        mus = gb.omega0 + self.grid.offsets()
        # The weights mu - omega0 weight the mu actually solved; an offset lost
        # to rounding at omega0 would give a zero weight or a repeated mu.
        if not (mus[0] > gb.omega0 and np.all(np.diff(mus) > 0.0)):
            raise PreconditionViolated(
                f"mu-grid offsets from {self.grid.min_offset:g} are lost to rounding at omega0 = {gb.omega0:g}"
            )
        self.resolvents = resolvents(a.entries, mus, skip=True)
        self.total, self.skipped = len(mus), int(np.count_nonzero(~self.resolvents.kept))
        if self.skipped > SKIP_BUDGET * self.total:
            raise SingularResolvent(
                f"{self.skipped} of {self.total} mu-grid points unsolvable; grid does not cover (omega0, inf)"
            )
        self._mus = mus[self.resolvents.kept]
        self._weights = self._mus - gb.omega0

    def sweep(self, c: Operator) -> list:
        """Per-mu samples (mu, (mu - omega0) ||C R(mu, A)|| / M)."""
        self.a._check(c)
        norms = self.resolvents.norms(c.entries[None], self.a.norm_kind)[0]
        scaled = self._weights * norms / self.gb.m
        return [(float(mu), float(v)) for mu, v in zip(self._mus, scaled)]

    def value(self, c: Operator) -> ANormResult:
        # The exact tail op_norm(C)/M comes first, so it wins a tie (argmax_mu = inf).
        tail = (float("inf"), op_norm(c) / self.gb.m)
        samples = tuple(self.sweep(c))
        best_mu, best = max([tail, *samples], key=lambda sample: sample[1])
        return ANormResult(best, best_mu, self.gb.m, self.gb.omega0, self.skipped, self.total, samples)

    def value_stack(self, mats: np.ndarray) -> np.ndarray:
        """Norm values for a whole (k, d, d) stack at once; no argmax bookkeeping."""
        mats = np.asarray(mats, dtype=float)
        if mats.ndim != 3 or mats.shape[-2:] != (self.a.dim, self.a.dim):
            raise DimensionMismatch(f"expected a (k, {self.a.dim}, {self.a.dim}) stack, got {mats.shape}")
        scaled = (self._weights[None, :] * self.resolvents.norms(mats, self.a.norm_kind)).max(axis=1)
        return np.maximum(scaled, norm_stack(mats, self.a.norm_kind)) / self.gb.m


def a_norm(c: Operator, a: Operator, gb: GrowthBound) -> ANormResult:
    """||C||_A over the sampled mu-grid plus the exact tail op_norm(C)/M."""
    return ANormEvaluator(a, gb).value(c)


@dataclass(frozen=True)
class YosidaDistance:
    """Tail value of lambda^2 ||R(lambda,A) - R(lambda,B)|| with its spread."""

    value: float
    uncertainty: float
    samples: tuple


def default_lambda_grid(a: Operator, b: Operator) -> np.ndarray:
    """Geometric lambda grid from max(10, 4 x the larger spectral abscissa) up to LAMBDA_CEILING.

    A start above the ceiling leaves no lambda past the spectra below it, so
    the tail cannot be reached: TailNotSettled, before any resolvent is solved.
    """
    abscissa = max(spectrum(a).abscissa, spectrum(b).abscissa)
    lo = max(10.0, 4.0 * max(abscissa, 0.25))
    if lo > LAMBDA_CEILING:
        raise TailNotSettled(
            f"lambda grid would start at 4 x spectral abscissa {abscissa:.3e} = {lo:.3e}, "
            f"above LAMBDA_CEILING = {LAMBDA_CEILING:.0e}"
        )
    decades = math.log10(LAMBDA_CEILING / lo)
    return np.geomspace(lo, LAMBDA_CEILING, max(4, round(decades * LAMBDA_POINTS_PER_DECADE) + 1))


def yosida_distance(a: Operator, b: Operator) -> YosidaDistance:
    """d_Y(A, B) from the factored tail lambda^2 R(lambda,A)(A - B) R(lambda,B) on default_lambda_grid.

    Reads the value at the largest lambda and reports the spread of the last
    three samples as uncertainty; an unsettled tail is an error since the
    limsup has then not been reached on this grid.
    """
    a._check(b)
    lams = default_lambda_grid(a, b)
    ra, rb = (resolvent_stack(m.entries, lams)[0] for m in (a, b))
    norms = norm_stack(ra @ (a.entries - b.entries) @ rb, a.norm_kind)
    samples = [(float(lam), float(lam) ** 2 * float(v)) for lam, v in zip(lams, norms)]
    tail = [v for _, v in samples[-3:]]
    value = samples[-1][1]
    spread = max(tail) - min(tail)
    if spread > TAIL_REL * value + TAIL_ABS:
        raise TailNotSettled(
            f"last-3 spread {spread:.3e} above {TAIL_REL:.0e} * value + {TAIL_ABS:.0e}",
            value=value,
            spread=spread,
        )
    return YosidaDistance(value=value, uncertainty=spread, samples=tuple(samples))


def check_generation_bound(a: Operator, c: Operator, gb: GrowthBound) -> BoundCheck:
    """Check ||e^{t(A+C)}|| <= M e^{(omega0 + M^2 ||C||_A) t} (1 + slack) at 41 points of [0, 2]."""
    a._check(c)
    c_norm = a_norm(c, a, gb).value
    rate = gb.omega0 + gb.m * gb.m * c_norm
    ts = np.linspace(0.0, 2.0, 41)
    return worst_ratio(envelope_ratios(a + c, ts, rate) / (gb.m * (1.0 + BOUND_SLACK)), ts)


def _check_family(a: Operator, family) -> None:
    """A family fits a generator when both have one dimension and one norm kind."""
    if family.dim != a.dim:
        raise DimensionMismatch(f"generator dim {a.dim} vs family dim {family.dim}")
    if family.norm_kind is not a.norm_kind:
        raise NormKindMismatch(f"generator uses {a.norm_kind.value}, family uses {family.norm_kind.value}")


def fd_step(interval) -> float:
    """Central-difference step for t-derivatives on the given interval."""
    return max(1e-5, 1e-8 * (interval[1] - interval[0]))


@dataclass(frozen=True)
class AssumptionReport:
    """Continuity and derivative-boundedness diagnostics for t -> B(t)."""

    a1_modulus: tuple
    a1_pass: bool
    a2_derivative_sup: tuple
    a2_pass: bool
    h_fd: float


def check_assumptions(family, a: Operator, gb: GrowthBound) -> AssumptionReport:
    """Diagnose continuity of t -> B(t) in ||.||_A and boundedness of its derivative.

    a1: the modulus Omega(h) = sup_{|t-s| <= h} ||B(t) - B(s)||_A is tabulated
    at 8 values of h halving from (t1 - t0)/4; it should trend to zero
    (last below a quarter of the first), with identically-zero moduli passing
    outright. a2: sup_t ||d/dt B(t) R(mu, A)|| over 33 t-samples is tabulated
    over a mu ladder and should stay bounded (last at most twice the median);
    a family phi(t) B0 takes max_t |phi(t+h) - phi(t-h)|/(2h) ||B0 R(mu, A)||.
    """
    _check_family(a, family)
    t0, t1 = family.interval
    evaluator = ANormEvaluator(a, gb)
    hs = [(t1 - t0) * 2.0 ** (-k) for k in range(2, 10)]
    a1 = [(h, family.modulus(h, evaluator)) for h in hs]
    floor = 1e-12 * (1.0 + a1[0][1])
    a1_pass = a1[-1][1] <= max(a1[0][1] / 4.0, floor)

    h_fd = fd_step(family.interval)
    mus = gb.omega0 + np.geomspace(10.0, 1e6, 11)
    ts = np.linspace(t0 + h_fd, t1 - h_fd, 33)
    factored, grid = family.factor(), resolvents(a.entries, mus)
    if factored is not None:
        # B'(t) R(mu) = phi'(t) B0 R(mu): one norm per mu, not one product per (mu, t).
        profile, b0 = factored
        plus, minus = (profile_values(profile, ts + s) for s in (h_fd, -h_fd))
        slope = float(np.abs(plus - minus).max(initial=0.0)) / (2.0 * h_fd)
        norms = slope * grid.norms(b0.entries[None], a.norm_kind)[0]
    else:
        dbdt = (family.values_stack(ts + h_fd) - family.values_stack(ts - h_fd)) / (2.0 * h_fd)
        norms = grid.norms(dbdt, a.norm_kind).max(axis=0)
    a2 = [(float(mu), float(v)) for mu, v in zip(mus, norms)]
    med = float(np.median([v for _, v in a2]))
    a2_pass = a2[-1][1] <= 2.0 * med + 1e-300
    return AssumptionReport(
        a1_modulus=tuple(a1),
        a1_pass=bool(a1_pass),
        a2_derivative_sup=tuple(a2),
        a2_pass=bool(a2_pass),
        h_fd=h_fd,
    )


@dataclass(frozen=True)
class Lemma32Result:
    """Decay of sup_t ||d/dt R(mu, A + B(t))|| along a mu ladder."""

    samples: tuple
    identity_residual: float
    slope: float


def lemma32_decay(a: Operator, family, gb: GrowthBound) -> Lemma32Result:
    """Tabulate sup_t ||d/dt R(mu, A + B(t))|| (49 t-samples) over mu = omega0 + geomspace(10, 1e4, 13).

    The sup decays like mu^{-2}. Every sampled resolvent of the perturbed
    generator is cross-checked against the factorisation
    R(mu, A + B(t)) = R(mu, A) [I - B(t) R(mu, A)]^{-1}, and the worst
    relative residual is reported.
    """
    _check_family(a, family)
    t0, t1 = family.interval
    mus = gb.omega0 + np.geomspace(10.0, 1e4, 13)
    h_fd = fd_step(family.interval)
    ts = np.linspace(t0 + h_fd, t1 - h_fd, 49)
    kind, d = a.norm_kind, a.dim
    b_plus, b_minus, b_mid = family.values_stack(ts + h_fd), family.values_stack(ts - h_fd), family.values_stack(ts)
    # A + B(t + h), A + B(t - h) and A + B(t), interleaved per t.
    perturbed = (a.entries + np.stack([b_plus, b_minus, b_mid], axis=1)).reshape(-1, d, d)
    samples = []
    worst_residual = 0.0
    for mu, ra in zip(mus, resolvent_stack(a.entries, mus)[0]):
        r = resolvent_stack(perturbed, mu)[0].reshape(len(ts), 3, d, d)
        rp, rm, r0 = r[:, 0], r[:, 1], r[:, 2]
        sup = float(norm_stack((rp - rm) / (2.0 * h_fd), kind).max(initial=0.0))
        factored = ra @ np.linalg.inv(np.eye(d) - b_mid @ ra)
        residuals = norm_stack(r0 - factored, kind) / np.maximum(norm_stack(r0, kind), 1e-300)
        worst_residual = max(worst_residual, float(residuals.max(initial=0.0)))
        samples.append((float(mu), sup))
    values = np.array([v for _, v in samples])
    if np.all(values > 0.0):
        slope = float(np.polyfit(np.log(np.array([m for m, _ in samples])), np.log(values), 1)[0])
    else:
        slope = float("nan")
    return Lemma32Result(samples=tuple(samples), identity_residual=worst_residual, slope=slope)
