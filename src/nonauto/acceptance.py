"""Quantitative acceptance checks for every bound the package promises.

Each criterion is a standalone function taking the master seed and returning
a CriterionResult; run_criteria executes the thirteen computational ones and
verify_all_rows adds the determinism row by running the batch twice and
comparing the two result lists field by field. Criterion 10 checks the
stated proximity estimate literally; it is expected to fail for base flows
with strict exponential growth and its detail line records the
growth-adjusted bound that does hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dichotomy import _growth_adjusted_bound, roughness_sweep
from .evofam import (
    ConstantFamily,
    PiecewiseLinearFamily,
    ScaledProfileFamily,
    euler_polygon,
    oracle_solve,
    product_difference_bound,
    refine_to_tolerance,
    verify_generator_derivative,
)
from .examples import (
    NO_GROWTH_FACTOR,
    Domain,
    GridSpec,
    _green,
    _stencil,
    build_spiky_b,
    decade_maxima,
    heat_green_column_sums,
    no_growth,
    scaled_resolvent_sweep,
)
from .linop import (
    BLOCK_BYTES,
    NormKind,
    Operator,
    _factor_blocks,
    _stacked_solve,
    log_norm,
    norm_of,
    norm_stack,
    op_norm,
    shifted_band,
)
from .metrics import ANormEvaluator, a_norm, check_generation_bound, lemma32_decay, yosida_distance
from .profiles import Sinusoid
from .semigroup import GrowthBound, fit_growth_bound, semigroup_diff_bound_check

CONTRACTION_GB = GrowthBound(m=1.0, omega0=0.0)


@dataclass(frozen=True)
class CriterionResult:
    """One acceptance-criterion verdict with a short numeric detail line."""

    index: int
    name: str
    passed: bool
    detail: str


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _dissipative(rng: np.random.Generator, dim: int) -> Operator:
    """Random matrix shifted so its 2-norm log-norm is <= -0.1.

    The flow then satisfies ||e^{tA}|| <= e^{-0.1 t} <= 1, so (M, omega0) =
    (1, 0) is an exact growth certificate.
    """
    raw = rng.normal(size=(dim, dim))
    shift = max(log_norm(raw, NormKind.TWO), 0.0) + 0.1
    return Operator(raw - shift * np.eye(dim), NormKind.TWO)


def _random_op(rng: np.random.Generator, dim: int, scale: float) -> Operator:
    return Operator(rng.normal(size=(dim, dim)) * scale, NormKind.TWO)


def criterion_01(seed: int) -> CriterionResult:
    """Constant perturbation: every dyadic level reproduces e^{A+B0} exactly."""
    import scipy.linalg

    rng = _rng(seed, 1)
    by_dim = {}
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        a = _dissipative(rng, dim)
        by_dim.setdefault(dim, []).append((a, _random_op(rng, dim, 0.5)))
    worst = 0.0
    for draws in by_dim.values():
        # scipy's expm, not the library's, so the check has an independent reference; one stacked call per dimension.
        targets = scipy.linalg.expm(np.stack([(a + b0).entries for a, b0 in draws]))
        for (a, b0), target in zip(draws, targets):
            family = ConstantFamily((0.0, 1.0), b0)
            for n in (0, 2, 4, 6):
                u = euler_polygon(a, family, n).evaluate(1.0, 0.0).entries
                worst = max(worst, norm_of(u - target, NormKind.TWO))
    return CriterionResult(1, "constant-collapse", worst <= 1e-10, f"max deviation {worst:.3e} vs 1e-10")


def _diagonal_setup():
    a = Operator(np.diag([-1.0, -2.0]), NormKind.TWO)
    b0 = Operator(np.diag([0.5, 0.3]), NormKind.TWO)
    family = ScaledProfileFamily((0.0, 1.0), Sinusoid(), b0)
    exact = np.diag(
        [
            math.exp(-1.0 + 0.5 * (1.0 - math.cos(1.0))),
            math.exp(-2.0 + 0.3 * (1.0 - math.cos(1.0))),
        ]
    )
    return a, family, exact


def criterion_02(seed: int) -> CriterionResult:
    """Commuting diagonal family: error halves per level against exp of the integral."""
    a, family, exact = _diagonal_setup()
    errs = []
    for n in range(6, 13):
        u = euler_polygon(a, family, n).evaluate(1.0, 0.0).entries
        errs.append(norm_of(u - exact, NormKind.TWO))
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
    ok = all(0.4 <= r <= 0.6 for r in ratios) and errs[-1] <= 1e-3
    return CriterionResult(
        2,
        "diagonal-convergence",
        bool(ok),
        f"ratios [{min(ratios):.4f} {max(ratios):.4f}] final {errs[-1]:.3e} vs 1e-3",
    )


def criterion_03(seed: int) -> CriterionResult:
    """Cauchy increment of the scheme against (t-s) e^{4 omega1} Omega_n."""
    rng = _rng(seed, 3)
    worst = 0.0
    for _ in range(10):
        a = _dissipative(rng, 3)
        evaluator = ANormEvaluator(a, CONTRACTION_GB)
        nodes = np.linspace(0.0, 1.0, 9)
        mats = [_random_op(rng, 3, 0.4) for _ in nodes]
        family = PiecewiseLinearFamily(nodes, mats)
        omega1 = family.sup_anorm(evaluator)
        us = {n: euler_polygon(a, family, n).evaluate(1.0, 0.0).entries for n in (4, 6, 7, 8, 9, 11)}
        for n in (4, 6, 8):
            diff = norm_of(us[n] - us[n + 3], NormKind.TWO)
            bound = math.exp(4.0 * omega1) * family.modulus(2.0**-n, evaluator) * (1.0 + 1e-3)
            worst = max(worst, diff / bound)
    return CriterionResult(3, "cauchy-increment", worst <= 1.0, f"worst increment/bound {worst:.4f}")


def criterion_04(seed: int) -> CriterionResult:
    """Semigroup difference against t M^2 e^{4 omega t} d_Y on stable pairs."""
    rng = _rng(seed, 4)
    worst = 0.0
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        g = _dissipative(rng, dim)
        e = rng.normal(size=(dim, dim))
        e = Operator(0.01 * e / norm_of(e, NormKind.TWO), NormKind.TWO)
        h = g + e
        omega = max(0.0, log_norm(g.entries, NormKind.TWO), log_norm(h.entries, NormKind.TWO))
        dy = yosida_distance(g, h).value
        check = semigroup_diff_bound_check(g, h, m=1.0, omega=omega, delta=dy)
        worst = max(worst, check.max_ratio)
    return CriterionResult(4, "pair-difference-bound", worst <= 1.0, f"worst diff/bound {worst:.4f}")


def criterion_05(seed: int) -> CriterionResult:
    """Telescoping product bound N delta K^{N-1} on random factor lists."""
    rng = _rng(seed, 5)
    worst = 0.0
    for _ in range(50):
        count = int(rng.integers(2, 21))
        dim = int(rng.integers(2, 5))
        kcap = 0.8 + 0.7 * rng.random()
        delta = 10.0 ** rng.uniform(-4.0, -2.0)
        ms, ps = np.empty((2, count, dim, dim)), np.empty((2, count))
        for i in range(count):  # m, its scale, p, its scale: the draw order of the factor lists
            ms[0, i], ps[0, i] = rng.normal(size=(dim, dim)), rng.random()
            ms[1, i], ps[1, i] = rng.normal(size=(dim, dim)), rng.random()
        norms = norm_stack(ms.reshape(-1, dim, dim), NormKind.TWO).reshape(2, count)
        ms *= (ps * np.array([[kcap], [delta * 0.9]]) / np.maximum(norms, 1e-300))[..., None, None]
        ms[1] += ms[0]
        lhs, rhs = product_difference_bound(
            [Operator(m, NormKind.TWO) for m in ms[0]], [Operator(m, NormKind.TWO) for m in ms[1]]
        )
        worst = max(worst, lhs / (rhs * (1.0 + 1e-9)))
    return CriterionResult(5, "product-difference", worst <= 1.0, f"worst diff/bound {worst:.6f}")


def criterion_06(seed: int) -> CriterionResult:
    """Perturbed growth bound M e^{(omega0 + M^2 ||C||_A) t} on contraction bases."""
    rng = _rng(seed, 6)
    worst = 0.0
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        a = _dissipative(rng, dim)
        c = _random_op(rng, dim, 0.5)
        check = check_generation_bound(a, c, CONTRACTION_GB)
        worst = max(worst, check.max_ratio)
    return CriterionResult(6, "growth-bound", worst <= 1.0, f"worst norm/envelope {worst:.4f}")


def criterion_07(seed: int) -> CriterionResult:
    """d_Y equals the direct norm for matrices and is dominated by ||.||_A."""
    rng = _rng(seed, 7)
    worst_dev = 0.0
    worst_dom = 0.0
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        a = _dissipative(rng, dim)
        b = _random_op(rng, dim, 0.5)
        c = _random_op(rng, dim, 0.5)
        direct = op_norm(b - c)
        dy = yosida_distance(b, c).value
        worst_dev = max(worst_dev, abs(dy - direct) / direct)
        dominated = a_norm(b - c, a, CONTRACTION_GB).value
        worst_dom = max(worst_dom, dy / (dominated * (1.0 + 1e-4)))
    ok = worst_dev <= 1e-4 and worst_dom <= 1.0
    return CriterionResult(
        7,
        "metric-relations",
        bool(ok),
        f"worst |d_Y - norm|/norm {worst_dev:.2e} vs 1e-4; worst d_Y/anorm {worst_dom:.6f}",
    )


def criterion_08(seed: int) -> CriterionResult:
    """Decay exponent of sup_t ||d/dt R(mu, A + B(t))|| close to -2."""
    a = Operator(np.diag([-2.0, -3.0]), NormKind.TWO)
    family = ScaledProfileFamily((0.0, 2.0 * math.pi), Sinusoid(), Operator(np.diag([0.5, 0.3]), NormKind.TWO))
    result = lemma32_decay(a, family, CONTRACTION_GB)
    ok = -2.3 <= result.slope <= -1.7 and result.identity_residual <= 1e-8
    return CriterionResult(
        8,
        "resolvent-derivative-decay",
        bool(ok),
        f"slope {result.slope:.4f} in [-2.3 -1.7]; factorization residual {result.identity_residual:.2e}",
    )


def criterion_09(seed: int) -> CriterionResult:
    """Difference quotients of U(s+h, s) recover A + B(s)."""
    a, family, _ = _diagonal_setup()
    u = euler_polygon(a, family, 12)
    residuals = verify_generator_derivative(u, 0.3)
    values = [rt for _, rt, _ in residuals]
    floor = 1e-2 * op_norm(a + family(0.3))
    ok = values[0] > values[1] > values[2] and values[-1] <= floor
    return CriterionResult(
        9,
        "generator-derivative",
        bool(ok),
        f"residuals {values[0]:.2e} {values[1]:.2e} {values[2]:.2e}; floor {floor:.2e}",
    )


def criterion_10(seed: int) -> CriterionResult:
    """Literal proximity bound e^{4 eps} eps for the time-1 maps.

    Not attainable for a base flow with strict exponential growth; reported
    honestly, with the growth-adjusted bound recorded alongside.
    """
    rng = _rng(seed, 10)
    a = Operator(np.diag([-1.0, 1.0]), NormKind.TWO)
    gb = fit_growth_bound(a)
    worst_literal = 0.0
    worst_adjusted = 0.0
    persists = True
    failure = ""
    for _ in range(10):
        e = rng.normal(size=(2, 2))
        e_op = Operator(e / norm_of(e, NormKind.TWO), NormKind.TWO)
        shape = ScaledProfileFamily((0.0, 4.0), Sinusoid(), e_op)
        for result in roughness_sweep(a, shape, [1e-3, 1e-2], gb=gb):
            eps = result.eps
            if result.refine_error is not None:
                # No time-1 maps to test: persistence is unverified.
                persists = False
                failure = failure or f"; refinement failed at eps {eps:g}: {result.refine_error}"
                continue
            sup = max(row.sup_diff for row in result.rows)
            literal = result.bound * (1.0 + 1e-3)
            adjusted = _growth_adjusted_bound(eps, gb)
            worst_literal = max(worst_literal, sup / literal)
            worst_adjusted = max(worst_adjusted, sup / adjusted)
            persists = persists and all(row.report.hyperbolic for row in result.rows)
    ok = worst_literal <= 1.0 and persists
    return CriterionResult(
        10,
        "dichotomy-roughness",
        bool(ok),
        f"worst sup/literal-bound {worst_literal:.3f}; sup/growth-adjusted {worst_adjusted:.3f}; "
        f"hyperbolicity persisted {persists}{failure}",
    )


def criterion_11(seed: int) -> CriterionResult:
    """Green-kernel resolvent: 1-norm below 1/mu and second-order consistency.

    The halving ratio compares the interior columns of R(4, G) and of the Green
    kernel a block of BLOCK_BYTES at a time, with no n x n array: R's columns
    are band solves of the unit vectors on the factors of 4 I - G that
    resolvent(G, 4) takes, bit for bit its columns.
    """
    worst_mass = 0.0
    for mu in (1.0, 4.0, 16.0):
        g = GridSpec(40.0 / math.sqrt(mu), 2048, Domain.LINE)
        worst_mass = max(worst_mass, float(heat_green_column_sums(g, mu).max()) * mu)
    mu = 4.0
    errs = []
    for points in (512, 1024):
        g = GridSpec(20.0, points, Domain.LINE)
        x = g.centers()
        (kl, ku), ab = shifted_band(_stencil("heat", g), mu, points)
        lu, piv = _factor_blocks(ab, kl, ku, points)
        interior = np.flatnonzero(np.abs(x) <= g.length / 4.0)
        step = BLOCK_BYTES // (8 * points)
        err = 0.0
        for lo in range(0, len(interior), step):
            block = interior[lo : lo + step]
            units = np.zeros((points, len(block)), order="F")
            units[block, np.arange(len(block))] = 1.0
            discrete = _stacked_solve(lu, piv, kl, ku, units, 0)[0]
            kernel = _green(g, mu, x[:, None], x[None, block])
            # Column-major, so each column sum is numpy's pairwise sum of one contiguous column at any block width.
            diff = np.abs(np.subtract(kernel, discrete, order="F"))
            err = max(err, float(diff.sum(axis=0).max()))
        errs.append(err)
    ratio = errs[0] / errs[1]
    ok = worst_mass <= 1.0 + 1e-3 and 3.0 <= ratio <= 5.0
    return CriterionResult(
        11,
        "heat-green-kernel",
        bool(ok),
        f"worst mu*norm {worst_mass:.6f} vs 1.001; halving ratio {ratio:.3f} in [3 5]",
    )


def criterion_12(seed: int) -> CriterionResult:
    """Scaled spiky sweep mu ||B R(mu, G)||_1 stays bounded across decades."""
    g = GridSpec(8.0, 4096, Domain.HALF_LINE)
    sweep = scaled_resolvent_sweep("translation", g, build_spiky_b(g, 3).values, np.geomspace(1.0, 1e4, 81))
    ok, last, middle = no_growth(decade_maxima(sweep))
    return CriterionResult(
        12,
        "spiky-sweep-bounded",
        ok,
        f"last-decade max {last:.4f} vs {NO_GROWTH_FACTOR:g} x middle {middle:.4f}",
    )


def criterion_13(seed: int) -> CriterionResult:
    """Refined polygon agrees with an independent integrator."""
    rng = _rng(seed, 13)
    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        a = _dissipative(rng, dim)
        b0 = _random_op(rng, dim, 0.2)
        freq = float(rng.uniform(1.0, 2.5))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        family = ScaledProfileFamily((0.0, 1.0), Sinusoid(freq, phase), b0)
        refined = refine_to_tolerance(a, family, CONTRACTION_GB, tol=1e-5, n_max=16)
        reference = oracle_solve(a, family, 1.0, 0.0)
        diff = refined.full_span.entries - reference.entries
        worst = max(worst, norm_of(diff, NormKind.TWO))
    return CriterionResult(13, "integrator-agreement", worst <= 5e-5, f"worst disagreement {worst:.3e} vs 5e-5")


CRITERIA = (
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
)


def run_criteria(seed: int) -> list:
    """All computational criteria in order; determinism is layered on top."""
    return [fn(seed) for fn in CRITERIA]


def verify_all_rows(seed: int) -> list:
    """Criteria 1-13 plus the determinism row from a full second pass."""
    first = run_criteria(seed)
    second = run_criteria(seed)
    identical = first == second  # frozen dataclasses: equal fields render equal rows
    detail = "two passes rendered byte-identical" if identical else "passes differ"
    first.append(CriterionResult(14, "determinism", identical, detail))
    return first
