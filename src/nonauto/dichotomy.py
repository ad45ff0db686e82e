"""Exponential dichotomy detection and its persistence under perturbation.

Hyperbolicity of the dynamics is read off the time-1 operator: the flow has
an exponential dichotomy exactly when that operator has no spectrum on the
unit circle. For a nonautonomous family the time-1 operators U(t, t-1) are
sampled over t; the roughness experiment scales a unit-size perturbation
shape by eps and watches whether hyperbolicity and the spectral gap survive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertible, OutOfInterval, Overflow, PreconditionViolated, SingularResolvent, ToleranceNotReached
from .evofam import EvolutionFamilyApprox, PerturbationFamily, refine_to_tolerance
from .linop import Operator, norm_of, norm_stack, resolvent_stack
from .metrics import ANormEvaluator
from .semigroup import GrowthBound, expm

CIRCLE_TOL = 1e-9
EIG_COND_LIMIT = 1e8
K_MAX = 20


@dataclass(frozen=True)
class DichotomyReport:
    """Spectral splitting of a time-1 operator into stable and unstable parts.

    reliable is False when the eigenvector basis is too ill-conditioned for
    the projector to be trusted; the report is still returned.
    """

    hyperbolic: bool
    spectral_gap: float
    stable_rank: int
    projector: Operator
    alpha: float
    m_dich: float
    eigenvalues: tuple
    reliable: bool
    eig_cond: float


def _inverse(m: np.ndarray) -> np.ndarray:
    """m^{-1} as the resolvent R(0, -m), under resolvent_stack's singularity, condition and residual guards."""
    try:
        return resolvent_stack(-m, 0.0)[0][0]
    except SingularResolvent as exc:
        raise NotInvertible(f"time-1 operator T refused as R(0, -T): {exc}") from exc


def check_hyperbolic(t1: Operator) -> DichotomyReport:
    """Dichotomy report for a time-1 propagator.

    The stable projector sums the spectral projectors of eigenvalues inside
    the unit circle and is symmetrized against its complement. The constant
    m_dich is fitted as the smallest M with ||T^k P|| <= M e^{-alpha k} and
    ||T^{-k}(I - P)|| <= M e^{-alpha k} for k up to K_MAX.
    """
    t1_inv = _inverse(t1.entries)
    eigvals, vecs = np.linalg.eig(t1.entries)
    moduli = np.abs(eigvals)
    hyperbolic = bool(np.min(np.abs(moduli - 1.0)) > CIRCLE_TOL)
    gap = float(np.min(np.abs(np.log(moduli))))
    stable = moduli < 1.0
    eig_cond = float(np.linalg.cond(vecs, 2))
    reliable = bool(np.isfinite(eig_cond) and eig_cond <= EIG_COND_LIMIT)
    try:
        vinv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        vinv = np.linalg.pinv(vecs)
        reliable = False
    p_raw = (vecs * stable[None, :]) @ vinv
    q_raw = (vecs * (~stable)[None, :]) @ vinv
    p = np.real(p_raw + (np.eye(t1.dim) - q_raw)) / 2.0
    alpha = gap
    # T^k P and T^{-k} (I - P) for k = 0..K_MAX, normed by one norm_stack call.
    powers = np.empty((K_MAX + 1, 2, t1.dim, t1.dim))
    powers[0] = p, np.eye(t1.dim) - p
    for k in range(K_MAX):
        np.matmul(t1.entries, powers[k, 0], out=powers[k + 1, 0])
        np.matmul(t1_inv, powers[k, 1], out=powers[k + 1, 1])
    norms = norm_stack(powers.reshape(-1, t1.dim, t1.dim), t1.norm_kind).reshape(K_MAX + 1, 2)
    m_dich = 0.0
    for k, (p_norm, u_norm) in enumerate(norms.tolist()):
        decay = math.exp(-alpha * k)
        m_dich = max(m_dich, p_norm / decay, u_norm / decay)
    return DichotomyReport(
        hyperbolic=hyperbolic,
        spectral_gap=gap,
        stable_rank=int(np.count_nonzero(stable)),
        projector=Operator(p, t1.norm_kind),
        alpha=alpha,
        m_dich=float(m_dich),
        eigenvalues=tuple(complex(z) for z in eigvals),
        reliable=reliable,
        eig_cond=eig_cond,
    )


def autonomous_dichotomy(a: Operator) -> DichotomyReport:
    """Dichotomy report of the constant-coefficient flow, via its time-1 map."""
    return check_hyperbolic(expm(a))


@dataclass(frozen=True)
class ProximityReport:
    """How far the perturbed time-1 maps sit from the unperturbed one.

    bound is e^{4 omega1} omega1 with omega1 = sup_t ||B(t)||_A; it is the
    target estimate and can be violated when the unperturbed flow has strict
    exponential growth. bound_growth_adjusted = omega1 M^2 e^{omega0 + M^2 omega1}
    folds the growth certificate of A back in and is the one that holds
    unconditionally at this scale.
    """

    sup_diff: float
    bound: float
    bound_growth_adjusted: float
    omega1: float
    samples: tuple


def _time1_maps(u: EvolutionFamilyApprox, e_a: Operator, t_samples):
    """(t, U(t, t-1), ||U(t, t-1) - e^A||) for each sample t."""
    for t in t_samples:
        t1_op = u.evaluate(float(t), float(t) - 1.0)
        yield float(t), t1_op, float(norm_of(t1_op.entries - e_a.entries, e_a.norm_kind))


def _exp(x: float, eps: float) -> float:
    """e^x for a proximity bound at perturbation size eps; Overflow, naming eps, where doubles end."""
    try:
        return math.exp(x)
    except OverflowError:
        raise Overflow(f"the proximity bound at eps={eps!r} overflows doubles (e^{x:.6g})") from None


def _proximity_bound(omega1: float) -> float:
    """The literal time-1 proximity estimate e^{4 omega1} omega1."""
    return _exp(4.0 * omega1, omega1) * omega1


def _growth_adjusted_bound(omega1: float, gb: GrowthBound) -> float:
    """omega1 M^2 e^{omega0 + M^2 omega1}: the proximity estimate with A's growth certificate folded in."""
    return omega1 * gb.m ** 2 * _exp(gb.omega0 + gb.m ** 2 * omega1, omega1)


def perturbation_proximity(u: EvolutionFamilyApprox, a: Operator, gb: GrowthBound) -> ProximityReport:
    """sup_t ||U(t, t-1) - e^A|| against e^{4 omega1} omega1, t on 9 equispaced points of [a + 1, b]."""
    p = u.partition
    if p.b - p.a < 1.0:
        raise OutOfInterval("interval shorter than 1; no time-1 map fits")
    omega1 = u.family.sup_anorm(ANormEvaluator(a, gb))
    samples = tuple((t, d) for t, _, d in _time1_maps(u, expm(a), np.linspace(p.a + 1.0, p.b, 9)))
    return ProximityReport(
        sup_diff=max(0.0, *(d for _, d in samples)),
        bound=_proximity_bound(omega1),
        bound_growth_adjusted=_growth_adjusted_bound(omega1, gb),
        omega1=float(omega1),
        samples=samples,
    )


@dataclass(frozen=True)
class SweepRow:
    """One (eps, t) sample of the roughness sweep."""

    t: float
    report: DichotomyReport
    sup_diff: float


@dataclass(frozen=True)
class EpsSweepResult:
    """All time samples for one perturbation size eps."""

    eps: float
    rows: tuple
    persisted: bool
    bound: float
    gap_floor: float
    refine_error: str | None
    achieved_delta: float


def roughness_sweep(
    a: Operator,
    shape: PerturbationFamily,
    eps_list,
    gb: GrowthBound,
    t_samples=None,
    n_max: int = 14,
) -> list:
    """Scale a unit-size perturbation shape by each eps and test persistence.

    The shape is renormalized so sup_t ||shape(t)||_A = 1, hence omega1 = eps
    exactly. For each eps the polygon family is refined to
    tol = min(1e-4, eps/100) (floored at 1e-4 for the eps = 0 row) and the
    time-1 maps are tested for hyperbolicity. persisted means every sample is
    hyperbolic with spectral gap at least alpha/2 - e^{4 eps} eps. Refinement
    failures are recorded on the row and the sweep continues. Every eps must
    be finite and nonnegative, and t_samples (5 equispaced points of
    [t0 + 1, t1] by default) must not be empty: persistence on no sample
    would be vacuous.
    """
    eps_list = [float(eps) for eps in eps_list]
    if not all(0.0 <= eps < math.inf for eps in eps_list):
        raise PreconditionViolated(f"eps must be finite and nonnegative, got {eps_list}")
    t0, t1 = shape.interval
    if t_samples is None:
        if t1 - t0 < 1.0:
            raise OutOfInterval("interval shorter than 1; no time-1 map fits")
        t_samples = np.linspace(t0 + 1.0, t1, 5)
    if len(t_samples) == 0:
        raise PreconditionViolated("roughness_sweep wants at least one time sample")
    e_a = expm(a)
    base = check_hyperbolic(e_a)
    if not base.hyperbolic:
        raise PreconditionViolated("unperturbed generator has spectrum on the unit circle")
    evaluator = ANormEvaluator(a, gb)
    scale = shape.sup_anorm(evaluator)
    if scale <= 0.0:
        raise PreconditionViolated("perturbation shape is identically zero")
    unit = shape.scale(1.0 / scale)
    out = []
    for eps in eps_list:
        tol = min(1e-4, eps / 100.0) if eps > 0.0 else 1e-4
        bound = _proximity_bound(eps)
        rows, error = (), None
        try:
            refined = refine_to_tolerance(a, unit.scale(eps), gb, tol, n_max=n_max, anorm=evaluator)
        except ToleranceNotReached as exc:
            error, achieved = str(exc), float(exc.levels[-1][1] if exc.levels else exc.best_delta)
        else:
            maps = _time1_maps(refined.approx, e_a, t_samples)
            rows = tuple(SweepRow(t, check_hyperbolic(op), d) for t, op, d in maps)
            achieved = refined.achieved_delta
        floor = base.alpha / 2.0 - bound
        out.append(
            EpsSweepResult(
                eps=eps,
                rows=rows,
                persisted=error is None and all(r.report.hyperbolic and r.report.spectral_gap >= floor for r in rows),
                bound=bound,
                gap_floor=floor,
                refine_error=error,
                achieved_delta=achieved,
            )
        )
    return out
