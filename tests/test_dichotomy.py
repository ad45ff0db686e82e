"""Hyperbolicity reports, perturbation proximity, and roughness sweeps."""
import math

import numpy as np
import pytest

from nonauto import (
    ConstantFamily,
    GrowthBound,
    NormKind,
    NotInvertible,
    Operator,
    PreconditionViolated,
    ScaledProfileFamily,
    autonomous_dichotomy,
    check_hyperbolic,
    euler_polygon,
    expm,
    fit_growth_bound,
    op_norm,
    perturbation_proximity,
    roughness_sweep,
)
from nonauto import dichotomy
from nonauto.errors import OutOfInterval
from nonauto.linop import norm_of


def op2(entries):
    return Operator(np.asarray(entries, dtype=float), NormKind.TWO)


class TestCheckHyperbolic:
    def test_saddle(self):
        report = check_hyperbolic(op2(np.diag([math.exp(-1.0), math.e])))
        assert report.hyperbolic
        assert report.stable_rank == 1
        assert np.allclose(report.projector.entries, np.diag([1.0, 0.0]), atol=1e-12)
        assert report.alpha == pytest.approx(1.0, rel=1e-12)
        assert report.m_dich == pytest.approx(1.0, rel=1e-9)
        assert report.reliable

    def test_rotation_not_hyperbolic(self):
        report = check_hyperbolic(expm(op2([[0.0, -1.0], [1.0, 0.0]])))
        assert not report.hyperbolic

    def test_unit_eigenvalue_not_hyperbolic(self):
        assert not check_hyperbolic(op2(np.diag([1.0, 0.5]))).hyperbolic

    def test_jordan_block_exponential_not_hyperbolic(self):
        assert not check_hyperbolic(op2([[1.0, 1.0], [0.0, 1.0]])).hyperbolic

    def test_singular_map_refused(self):
        with pytest.raises(NotInvertible):
            check_hyperbolic(op2(np.diag([1.0, 0.0])))

    def test_ill_conditioned_map_refused(self):
        # kappa_1 = 1e14 is above COND_LIMIT although the map is invertible
        with pytest.raises(NotInvertible, match="condition number 1.000e"):
            check_hyperbolic(op2(np.diag([1.0, 1e-14])))

    def test_projector_invariants_on_random_maps(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 10:
            m = rng.standard_normal((4, 4))
            t1 = op2(expm(op2(m - 0.1 * np.eye(4))).entries)
            report = check_hyperbolic(t1)
            if not (report.hyperbolic and report.reliable):
                continue
            checked += 1
            p = report.projector.entries
            assert np.abs(p @ p - p).max() <= 1e-9 * max(1.0, np.abs(p).max())
            commute = t1.entries @ p - p @ t1.entries
            assert np.abs(commute).max() <= 1e-8 * max(1.0, np.abs(t1.entries @ p).max())
            # the fitted pair certifies decay on both ranges up to k_max
            tk = np.eye(4)
            tk_inv = np.linalg.inv(t1.entries)
            back = np.eye(4)
            for k in range(1, 11):
                tk = t1.entries @ tk
                back = tk_inv @ back
                assert op_norm(op2(tk @ p)) <= report.m_dich * math.exp(-report.alpha * k) * (1.0 + 1e-9)
                assert op_norm(op2(back @ (np.eye(4) - p))) <= report.m_dich * math.exp(-report.alpha * k) * (1.0 + 1e-9)

    @pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
    def test_m_dich_matches_pointwise_loop(self, kind):
        # The stacked powers normed by one norm_stack call against one norm_of per power: equal to the bit.
        rng = np.random.default_rng(12)
        for d in (2, 3, 5, 8):
            t1 = Operator(expm(Operator(rng.standard_normal((d, d)), kind)).entries, kind)
            report = check_hyperbolic(t1)
            p, t1_inv = report.projector.entries, dichotomy._inverse(t1.entries)
            want, p_pow, u_pow = 0.0, p.copy(), np.eye(d) - p
            for k in range(dichotomy.K_MAX + 1):
                decay = math.exp(-report.alpha * k)
                want = max(want, norm_of(p_pow, kind) / decay, norm_of(u_pow, kind) / decay)
                p_pow, u_pow = t1.entries @ p_pow, t1_inv @ u_pow
            assert report.m_dich == want


class TestAutonomousDichotomy:
    def test_saddle_generator(self):
        report = autonomous_dichotomy(op2(np.diag([-1.0, 1.0])))
        assert report.hyperbolic
        assert report.stable_rank == 1
        assert report.spectral_gap == pytest.approx(1.0, rel=1e-12)

    def test_stable_generator_full_rank(self):
        report = autonomous_dichotomy(op2(np.diag([-1.0, -2.0])))
        assert report.hyperbolic
        assert report.stable_rank == 2

    def test_nilpotent_generator_not_hyperbolic(self):
        assert not autonomous_dichotomy(op2([[0.0, 1.0], [0.0, 0.0]])).hyperbolic


class TestPerturbationProximity:
    def test_zero_perturbation(self):
        a = op2(np.diag([-1.0, 1.0]))
        fam = ConstantFamily((0.0, 3.0), op2(np.zeros((2, 2))))
        approx = euler_polygon(a, fam, 6)
        report = perturbation_proximity(approx, a, fit_growth_bound(a))
        assert report.sup_diff <= 1e-12
        assert report.bound == 0.0

    def test_contraction_bound_holds(self):
        # for a contraction semigroup certified by (1, 0), the time-1 map
        # difference is bounded by e^{4 omega1} omega1
        a = op2(np.diag([-1.0, -2.0]))
        gb = GrowthBound(1.0, 0.0)
        fam = ScaledProfileFamily((0.0, 3.0), np.sin, op2(0.05 * np.eye(2)))
        approx = euler_polygon(a, fam, 10)
        report = perturbation_proximity(approx, a, gb=gb)
        assert report.sup_diff <= report.bound * (1.0 + 1e-3)

    def test_growth_adjusted_bound_holds_on_saddle(self):
        a = op2(np.diag([-1.0, 1.0]))
        gb = GrowthBound(1.0, 1.0)
        fam = ScaledProfileFamily((0.0, 3.0), np.sin, op2(0.05 * np.array([[0.0, 1.0], [1.0, 0.0]])))
        approx = euler_polygon(a, fam, 10)
        report = perturbation_proximity(approx, a, gb=gb)
        assert report.sup_diff <= report.bound_growth_adjusted * (1.0 + 1e-3)

    def test_short_interval_refused(self):
        a = op2(np.diag([-1.0, 1.0]))
        fam = ConstantFamily((0.0, 0.5), op2(np.zeros((2, 2))))
        approx = euler_polygon(a, fam, 4)
        with pytest.raises(OutOfInterval):
            perturbation_proximity(approx, a, GrowthBound(1.0, 1.0))


class TestRoughnessSweep:
    def test_zero_eps_reports_base_gap(self):
        a = op2(np.diag([-1.0, 1.0]))
        shape = ScaledProfileFamily((0.0, 3.0), np.sin, op2([[0.0, 1.0], [1.0, 0.0]]))
        results = roughness_sweep(a, shape, [0.0], gb=GrowthBound(1.0, 1.0))
        row = results[0]
        assert row.eps == 0.0
        assert row.persisted
        for sample in row.rows:
            assert sample.report.hyperbolic
            assert sample.report.spectral_gap == pytest.approx(1.0, abs=1e-6)
            assert sample.sup_diff <= 1e-9

    def test_small_eps_persists_with_stable_rank(self):
        a = op2(np.diag([-1.0, 1.0]))
        shape = ScaledProfileFamily((0.0, 3.0), np.sin, op2([[0.0, 1.0], [1.0, 0.0]]))
        results = roughness_sweep(a, shape, [0.0, 0.01], gb=GrowthBound(1.0, 1.0))
        assert all(r.persisted for r in results)
        ranks = {sample.report.stable_rank for r in results for sample in r.rows}
        assert ranks == {1}
        assert results[1].bound == pytest.approx(math.exp(0.04) * 0.01, rel=1e-12)

    def test_non_hyperbolic_base_refused(self):
        a = op2([[0.0, -1.0], [1.0, 0.0]])
        shape = ConstantFamily((0.0, 2.0), op2(np.eye(2)))
        with pytest.raises(PreconditionViolated):
            roughness_sweep(a, shape, [0.01], GrowthBound(1.0, 0.0))

    def test_zero_shape_refused(self):
        a = op2(np.diag([-1.0, 1.0]))
        shape = ConstantFamily((0.0, 2.0), op2(np.zeros((2, 2))))
        with pytest.raises(PreconditionViolated):
            roughness_sweep(a, shape, [0.01], GrowthBound(1.0, 1.0))

    def test_empty_time_grid_refused(self):
        # With no time-1 map to test, every row would read persisted.
        a = op2(np.diag([-1.0, 1.0]))
        shape = ScaledProfileFamily((0.0, 3.0), np.sin, op2([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(PreconditionViolated):
            roughness_sweep(a, shape, [0.0, 0.01], gb=GrowthBound(1.0, 1.0), t_samples=[])

    def test_failed_refinement_reports_last_increment(self):
        # The smallest increment of any level is the accidental level-1 zero
        # here; a failed row must carry the last one, as its error names.
        a = op2(np.diag([-1.0, 1.0]))
        shape = ScaledProfileFamily((0.0, 2.0 * math.pi), np.sin, op2(np.diag([0.5, 0.5])))
        (row,) = roughness_sweep(a, shape, [0.05], fit_growth_bound(a), n_max=3)
        assert row.rows == () and not row.persisted
        assert row.achieved_delta > 0.0
        assert f"last increment {row.achieved_delta:.3e} at level 3" in row.refine_error

    @pytest.mark.parametrize("eps", [-0.01, math.nan, math.inf])
    def test_negative_or_non_finite_eps_refused(self, eps):
        # A negative eps would test a gap floor above alpha / 2.
        a = op2(np.diag([-1.0, 1.0]))
        shape = ScaledProfileFamily((0.0, 3.0), np.sin, op2([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(PreconditionViolated):
            roughness_sweep(a, shape, [0.0, eps], gb=GrowthBound(1.0, 1.0))
