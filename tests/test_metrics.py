"""Resolvent-weighted perturbation norm, Yosida distance, assumption checks."""
import math

import numpy as np
import pytest

from nonauto import (
    DimensionMismatch,
    GrowthBound,
    MuGrid,
    NormKind,
    NormKindMismatch,
    Operator,
    PreconditionViolated,
    SingularResolvent,
    Sinusoid,
    TailNotSettled,
    a_norm,
    check_assumptions,
    check_generation_bound,
    lemma32_decay,
    norm_of,
    op_norm,
    resolvent,
    spectrum,
    yosida_distance,
)
from nonauto import linop, metrics
from nonauto.evofam import CallableFamily, ConstantFamily, PiecewiseLinearFamily, ScaledProfileFamily
from nonauto.linop import BandResolvent, DenseResolvents, bandwidths, norm_stack
from nonauto.metrics import ANormEvaluator

from oracles import YDIST_DIAG_LIMIT
from test_linop import record_band_calls


def op2(entries):
    return Operator(np.asarray(entries, dtype=float), NormKind.TWO)


class TestMuGrid:
    def test_default_point_count(self):
        # 11 decades above omega0 plus both endpoints at 20 points per decade
        offsets = MuGrid().offsets()
        assert len(offsets) == 221
        assert offsets[0] == pytest.approx(1e-3)
        assert offsets[-1] == pytest.approx(1e8)

    def test_geometric_spacing(self):
        offsets = MuGrid().offsets()
        ratios = offsets[1:] / offsets[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-10)

    @pytest.mark.parametrize("grid", [MuGrid(1e-3, math.inf), MuGrid(points_per_decade=0), MuGrid(points_per_decade=-5)])
    def test_bad_grid_refused(self, grid):
        # An infinite offset has no point count; fewer than one point per
        # decade used to sample a silent 2-point grid.
        with pytest.raises(PreconditionViolated):
            grid.offsets()


class TestANorm:
    def test_zero_perturbation(self):
        res = a_norm(op2(np.zeros((2, 2))), op2(np.diag([-1.0, -2.0])), GrowthBound(1.0, -1.0))
        assert res.value == 0.0

    def test_zero_generator_matches_plain_norm(self):
        # A = 0: mu ||C R(mu, 0)|| = ||C|| for every mu, so value is ||C|| / M
        res = a_norm(op2(np.diag([3.0, 1.0])), op2(np.zeros((2, 2))), GrowthBound(1.0, 0.0))
        assert res.value == pytest.approx(3.0, rel=1e-12)

    def test_tail_attained_reports_infinite_argmax(self):
        # C maps onto the decaying mode only: mu ||C R(mu, A)|| = mu / (mu + 1)
        # increases strictly to ||C|| = 1, so no finite grid point wins
        a = op2(np.diag([0.0, -1.0]))
        c = op2([[0.0, 1.0], [0.0, 0.0]])
        res = a_norm(c, a, GrowthBound(1.0, 0.0))
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.argmax_mu == np.inf

    def test_diagonal_sup_norm_case(self):
        a = Operator(np.diag([-1.0, -2.0]), NormKind.INF)
        c = Operator(np.eye(2), NormKind.INF)
        res = a_norm(c, a, GrowthBound(1.0, -1.0))
        assert res.value == pytest.approx(1.0, rel=1e-6)

    def test_scaling_homogeneity(self):
        a = op2(np.diag([-1.0, -2.0]))
        gb = GrowthBound(1.0, -1.0)
        c = op2([[0.3, 0.1], [0.0, 0.4]])
        base = a_norm(c, a, gb).value
        assert a_norm(op2(2.5 * c.entries), a, gb).value == pytest.approx(2.5 * base, rel=1e-10)

    def test_skip_budget_exceeded(self):
        # place eigenvalues of A exactly on the first thirty grid points so
        # the resolvent sweep loses more than a tenth of its samples
        from nonauto import SingularResolvent

        gb = GrowthBound(1.0, 0.0)
        mus = gb.omega0 + MuGrid().offsets()[:30]
        a = op2(np.diag(mus))
        with pytest.raises(SingularResolvent):
            a_norm(op2(np.eye(30)), a, gb)

    @pytest.mark.parametrize(
        "omega0, grid",
        [
            # Every offset up to about 1e4 rounds away at 1e20: mu = omega0.
            (1e20, MuGrid()),
            # The first mu clears omega0, but neighbouring offsets round to one mu.
            (1e6, MuGrid(2e-10, 1e-9, 20)),
        ],
    )
    def test_grid_lost_to_rounding_refused(self, omega0, grid):
        with pytest.raises(PreconditionViolated):
            ANormEvaluator(op2(np.diag([-1.0, -2.0])), GrowthBound(1.0, omega0), grid)

    def test_sweep_rows_scaled(self):
        a = op2(np.diag([-1.0, -2.0]))
        ev = ANormEvaluator(a, GrowthBound(1.0, -1.0))
        rows = ev.sweep(op2(np.eye(2)))
        assert len(rows) == 221
        mus = np.array([mu for mu, _ in rows])
        assert np.all(np.diff(mus) > 0)
        vals = np.array([v for _, v in rows])
        assert np.all(vals >= 0) and vals.max() <= 1.0 + 1e-9


class TestEvaluatorBlocks:
    # A 2-norm evaluator on a 3 x 3 generator; caps of 5 products (the grid
    # in column blocks), 3 whole grids per block, and the default.
    @pytest.mark.parametrize("products", [5, 3 * 221, None])
    def test_blocked_products_match_whole_grid(self, monkeypatch, products):
        if products is not None:
            monkeypatch.setattr(linop, "PRODUCT_BYTES", 8 * 9 * products)
        a = op2([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.3], [0.2, 0.0, -0.5]])
        gb = GrowthBound(2.0, -0.4)
        ev = ANormEvaluator(a, gb)
        mats = np.random.default_rng(4).standard_normal((7, 3, 3))
        mus = np.array([mu for mu, _ in ev.sweep(op2(mats[0]))])
        grid = np.stack([resolvent(a, mu).entries for mu in mus])
        whole = np.stack([(mus - gb.omega0) * norm_stack(c @ grid, NormKind.TWO) for c in mats])
        assert [v for _, v in ev.sweep(op2(mats[0]))] == (whole[0] / gb.m).tolist()
        tails = norm_stack(mats, NormKind.TWO)
        assert np.array_equal(ev.value_stack(mats), np.maximum(whole.max(axis=1), tails) / gb.m)

    def test_sweep_allocates_one_block_not_the_grid(self, monkeypatch):
        import tracemalloc

        monkeypatch.setattr(linop, "PRODUCT_BYTES", 1 << 20)
        a = op2(np.diag(-np.linspace(1.0, 2.0, 64)))
        ev = ANormEvaluator(a, GrowthBound(1.0, -1.0))
        c = op2(np.random.default_rng(2).standard_normal((64, 64)))
        tracemalloc.start()
        try:
            ev.sweep(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The whole (221, 64, 64) product is 7.2 MB; a block and its
        # norm_stack copy are 2 MB.
        assert peak < 3 << 20


def banded(rng, d: int, kl: int, ku: int, metzler: bool) -> np.ndarray:
    """Bandwidth (kl, ku): 2 x 2 Jordan-like blocks on the first sub- or superdiagonal, weak coupling elsewhere.

    The blocks make (mu - omega0) ||C R(mu, A)|| rise above ||C|| near
    omega0, so the sampled sup, not the tail, sets ||C||_A.
    """
    a = np.diag(np.repeat(-rng.uniform(1.0, 2.0, d // 2), 2))
    for k in range(-kl, ku + 1):
        if k:
            sign = 1.0 if metzler else rng.choice([-1.0, 1.0], d - abs(k))
            a += np.diag(0.05 * sign * rng.uniform(0.1, 1.0, d - abs(k)), k)
    if kl or ku:
        jordan = np.zeros(d - 1)
        jordan[::2] = rng.uniform(2.0, 4.0, d // 2)
        a += np.diag(jordan, -1 if kl else 1)
    return a


class Unfactored(ScaledProfileFamily):
    """A ScaledProfileFamily's phi(t) B0 with factor() hidden: check_assumptions takes its generic a2 column."""

    def __init__(self, fam: ScaledProfileFamily):
        super().__init__(fam.interval, fam.profile, fam.b0)

    def factor(self):
        return None


def both_modes(monkeypatch, a: Operator, gb: GrowthBound) -> tuple:
    """(band-mode, dense-mode) evaluators of one A, whatever its size and band."""
    with monkeypatch.context() as m:
        m.setattr(linop, "_BAND_MIN_DIM", 0)
        m.setattr(linop, "_BAND_DIM_PER_DIAGONAL", 0)
        band = ANormEvaluator(a, gb)
    with monkeypatch.context() as m:
        m.setattr(linop, "_BAND_MIN_DIM", 1 << 30)
        dense = ANormEvaluator(a, gb)
    assert isinstance(band.resolvents, BandResolvent) and isinstance(dense.resolvents, DenseResolvents)
    return band, dense


class TestBandMode:
    @pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
    def test_empty_stack_has_no_values(self, monkeypatch, kind):
        a = Operator(banded(np.random.default_rng(5), 64, 1, 1, True), kind)
        for ev in both_modes(monkeypatch, a, GrowthBound(2.0, spectrum(a).abscissa + 0.05)):
            assert ev.value_stack(np.zeros((0, 64, 64))).shape == (0,)

    # Dense products and SVDs bound the cost: the 2-norm stops at d = 96,
    # and d = 256 takes the 1-norm of the model problems only.
    @pytest.mark.parametrize(
        "d, kl, ku, metzler, kind",
        [(d, kl, ku, metzler, kind) for d, kl, ku, metzler in
         [(64, 0, 0, True), (64, 1, 2, False), (96, 3, 3, True), (128, 1, 1, False), (256, 1, 0, True)]
         for kind in NormKind if kind is NormKind.ONE or d <= (96 if kind is NormKind.TWO else 128)],
        ids=lambda v: getattr(v, "value", None),
    )
    def test_band_and_dense_modes_agree(self, monkeypatch, d, kl, ku, metzler, kind):
        rng = np.random.default_rng([d, kl, ku])
        a = Operator(banded(rng, d, kl, ku, metzler), kind)
        assert bandwidths(a.entries) == (kl, ku)
        # A diagonal A rises above the tail only for omega0 below its abscissa.
        s = spectrum(a).abscissa
        gb = GrowthBound(2.0, s + 0.05 if kl or ku else s - 0.3)
        band, dense = both_modes(monkeypatch, a, gb)
        # The one-solve shortcut runs at some mu exactly when A is Metzler here.
        assert band.resolvents.nonneg.any() == metzler
        # A nonnegative diagonal, a signed diagonal and a general C.
        c = rng.uniform(0.5, 1.0, d)
        mats = np.stack([np.diag(c), np.diag(c * rng.choice([-1.0, 1.0], d)), np.diag(c) + rng.standard_normal((d, d)) / d])
        want = dense.value_stack(mats)
        assert np.all(want > norm_stack(mats, kind) / gb.m)
        np.testing.assert_allclose(band.value_stack(mats), want, rtol=1e-12, atol=0.0)
        signed, general = Operator(mats[1], kind), Operator(mats[2], kind)
        assert band.value(signed).value == pytest.approx(dense.value(signed).value, rel=1e-12)
        got, ref = np.array(band.sweep(general)), np.array(dense.sweep(general))
        assert np.array_equal(got[:, 0], ref[:, 0])
        np.testing.assert_allclose(got[:, 1], ref[:, 1], rtol=1e-12, atol=0.0)
        assert band.skipped == dense.skipped == 0

    @pytest.mark.parametrize("exact, near", [(5, 3), (20, 10)])
    def test_refused_points_match(self, monkeypatch, exact, near):
        # A row holding only mu_k on the diagonal makes mu_k I - A exactly
        # singular; one a few ulps off mu_k puts kappa_1 far above COND_LIMIT.
        rng = np.random.default_rng(exact)
        a = banded(rng, 64, 2, 0, True)
        gb = GrowthBound(2.0, float(np.diag(a).max()) + 0.05)
        mus = gb.omega0 + MuGrid().offsets()
        rows = rng.choice(64, exact + near, replace=False)
        picked = rng.choice(221, exact + near, replace=False)
        a[rows] = 0.0
        a[rows, rows] = mus[picked] * np.where(np.arange(exact + near) < exact, 1.0, 1.0 + 4e-16)
        a = Operator(a, NormKind.ONE)
        if exact + near > metrics.SKIP_BUDGET * 221:
            for setting in ((0, 0), (1 << 30, 0)):
                with monkeypatch.context() as m:
                    m.setattr(linop, "_BAND_MIN_DIM", setting[0])
                    m.setattr(linop, "_BAND_DIM_PER_DIAGONAL", setting[1])
                    with pytest.raises(SingularResolvent, match=f"{exact + near} of 221"):
                        ANormEvaluator(a, gb)
            return
        band, dense = both_modes(monkeypatch, a, gb)
        assert band.skipped == dense.skipped == exact + near
        assert np.array_equal(band._mus, dense._mus)
        c = Operator(np.diag(rng.uniform(0.5, 1.0, 64)), NormKind.ONE)
        assert band.value(c).value == pytest.approx(dense.value(c).value, rel=1e-12)

    def test_model_problems_take_band_mode(self):
        from nonauto.examples import Domain, GridSpec, build_heat_generator, build_translation_generator

        gb = GrowthBound(1.0, 0.0)
        for points in (64, 256):
            for a in (build_heat_generator(GridSpec(8.0, points, Domain.LINE)),
                      build_translation_generator(GridSpec(8.0, points, Domain.HALF_LINE))):
                assert isinstance(ANormEvaluator(a, gb).resolvents, BandResolvent)
        small = build_heat_generator(GridSpec(8.0, 32, Domain.LINE))
        assert isinstance(ANormEvaluator(small, gb).resolvents, DenseResolvents)

    def test_model_problems_form_no_resolvent(self, monkeypatch):
        # The factors certify every grid point: no gbtrs call solves a d-column identity. The
        # condition numbers take one stacked transposed solve on ones per chunk of BLOCK_BYTES
        # of band storage, and the chunks cover the 221 mus, 128 rows each.
        from nonauto.examples import Domain, GridSpec, build_heat_generator, build_translation_generator

        calls = record_band_calls(monkeypatch)
        for a in (build_heat_generator(GridSpec(8.0, 128, Domain.LINE)),
                  build_translation_generator(GridSpec(8.0, 128, Domain.HALF_LINE))):
            calls.clear()
            ev = ANormEvaluator(a, GrowthBound(1.0, 0.0))
            assert isinstance(ev.resolvents, BandResolvent) and ev.skipped == 0 and ev.resolvents.nonneg.all()
            kl, ku = bandwidths(a.entries)
            step = linop.BLOCK_BYTES // (8 * (2 * kl + ku + 1) * 128)
            solves = [shape for name, shape in calls if name == "gbtrs"]
            assert solves == [(min(step, 221 - lo) * 128, 1) for lo in range(0, 221, step)]


class TestFactoredA2:
    @pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("b0_kind", ["diagonal", "general"])
    @pytest.mark.parametrize("scale", [None, -2.0])
    def test_factored_column_matches_generic(self, monkeypatch, kind, b0_kind, scale):
        # phi(t) B0 as a ScaledProfileFamily (factored, band mode) against
        # the same values through the generic stacked column.
        # B0 and the scale are signed powers of two, so phi(t) B0 is exact and
        # the generic quotient carries no rounding that 1/(2h) amplifies.
        rng = np.random.default_rng([len(b0_kind), 0 if scale is None else 1])
        a = Operator(banded(rng, 6, 1, 1, True), kind)
        b0 = rng.choice([-1.0, 1.0], (6, 6)) * np.exp2(rng.integers(-3, 4, (6, 6)))
        if b0_kind == "diagonal":
            b0 = np.diag(np.abs(np.diag(b0)))
        w, phase = rng.uniform(1.0, 4.0, 2)
        fam = ScaledProfileFamily((0.0, 3.0), lambda t: math.sin(w * t + phase) + 0.3 * t, Operator(b0, kind))
        # A CallableFamily's a1 modulus samples pairs, an SVD per pair and mu
        # in the 2-norm; there the reference is fam with its factor hidden.
        generic = CallableFamily((0.0, 3.0), fam, 6, kind) if kind is not NormKind.TWO else Unfactored(fam)
        if scale is not None:
            fam, generic = fam.scale(scale), generic.scale(scale)
        gb = GrowthBound(2.0, spectrum(a).abscissa + 0.05)
        with monkeypatch.context() as m:
            m.setattr(linop, "_BAND_MIN_DIM", 0)
            m.setattr(linop, "_BAND_DIM_PER_DIAGONAL", 0)
            got = check_assumptions(fam, a, gb)
        monkeypatch.setattr(linop, "_BAND_MIN_DIM", 1 << 30)
        want = check_assumptions(generic, a, gb)
        assert [mu for mu, _ in got.a2_derivative_sup] == [mu for mu, _ in want.a2_derivative_sup]
        np.testing.assert_allclose(
            [v for _, v in got.a2_derivative_sup], [v for _, v in want.a2_derivative_sup], rtol=1e-12, atol=0.0
        )
        assert got.a2_pass == want.a2_pass

    @pytest.mark.parametrize("which", ["translation", "heat"])
    def test_model_problem_column_matches_generic(self, which):
        from nonauto.examples import Domain, GridSpec, build_generator, build_spiky_b
        from nonauto.metrics import fd_step

        g = GridSpec(8.0, 64, Domain.HALF_LINE if which == "translation" else Domain.LINE)
        a = build_generator(which, g)
        fam = ScaledProfileFamily((0.0, 2.0 * math.pi), math.sin, build_spiky_b(g, 3, mirror=which == "heat").operator())
        gb = GrowthBound(1.0, 0.0)
        # The evaluator takes band mode at 64 cells; the generic column is check_assumptions' own.
        assert isinstance(ANormEvaluator(a, gb).resolvents, BandResolvent)
        got = check_assumptions(fam, a, gb).a2_derivative_sup
        h = fd_step(fam.interval)
        ts = np.linspace(h, 2.0 * math.pi - h, 33)
        dbdt = (fam.values_stack(ts + h) - fam.values_stack(ts - h)) / (2.0 * h)
        want = [norm_stack(dbdt @ resolvent(a, mu).entries, NormKind.ONE).max() for mu, _ in got]
        np.testing.assert_allclose([v for _, v in got], want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
    def test_dense_column_is_slope_times_b0_norm(self, kind):
        # At d = 6 (dense mode) the factored column takes one product per mu: the
        # profile's steepest difference quotient times ||B0 R(mu, A)||, to the bit.
        rng = np.random.default_rng(9)
        a = Operator(banded(rng, 6, 1, 1, True), kind)
        b0 = Operator(rng.standard_normal((6, 6)), kind)
        fam = ScaledProfileFamily((0.0, 3.0), Sinusoid(2.0, 0.5), b0)
        gb = GrowthBound(2.0, spectrum(a).abscissa + 0.05)
        assert isinstance(ANormEvaluator(a, gb).resolvents, DenseResolvents)
        report = check_assumptions(fam, a, gb)
        h = report.h_fd
        ts = np.linspace(h, 3.0 - h, 33)
        slope = float(np.abs(fam.profile.values(ts + h) - fam.profile.values(ts - h)).max()) / (2.0 * h)
        for mu, v in report.a2_derivative_sup:
            assert v == slope * norm_of(b0.entries @ resolvent(a, mu).entries, kind)

    def test_constant_family_has_a_zero_column(self, monkeypatch):
        monkeypatch.setattr(linop, "_BAND_MIN_DIM", 0)
        monkeypatch.setattr(linop, "_BAND_DIM_PER_DIAGONAL", 0)
        a = op2(np.diag([-1.0, -2.0]))
        report = check_assumptions(ConstantFamily((0.0, 1.0), op2([[0.5, 1.0], [0.0, 0.2]])), a, GrowthBound(1.0, -1.0))
        assert all(v == 0.0 for _, v in report.a2_derivative_sup) and report.a2_pass


class TestYosidaDistance:
    def test_identical_generators(self):
        a = op2(np.diag([-1.0, -2.0]))
        res = yosida_distance(a, a)
        assert res.value <= 1e-12

    def test_matches_operator_distance(self):
        res = yosida_distance(op2(np.diag([1.0, 0.0])), op2(np.zeros((2, 2))))
        assert res.value == pytest.approx(1.0, abs=1e-4)

    def test_diagonal_pair_limit(self):
        res = yosida_distance(op2(np.diag([2.0, 0.0])), op2(np.diag([-1.0, 0.0])))
        assert res.value == pytest.approx(YDIST_DIAG_LIMIT, abs=1e-4)
        assert res.uncertainty <= 1e-4 * res.value

    def test_unsettled_tail_reported(self):
        # Spectra at +-3e6 start the default grid at 1.2e7, so even its
        # largest lambdas sit close enough to leave the last samples moving.
        with pytest.raises(TailNotSettled) as exc:
            yosida_distance(op2(np.diag([3e6, 0.0])), op2(np.diag([-3e6, 0.0])))
        assert exc.value.spread > 1e-3 * exc.value.value

    def test_abscissa_past_the_ceiling_refused_before_any_solve(self, monkeypatch):
        # 4 x 1e9 starts the grid above LAMBDA_CEILING: no lambda reaches past the spectra.
        def no_solve(*args, **kwargs):
            raise AssertionError("resolvent solved")

        monkeypatch.setattr(metrics, "resolvent_stack", no_solve)
        with pytest.raises(TailNotSettled, match=r"abscissa 1\.000e\+09 .*LAMBDA_CEILING = 1e\+08"):
            yosida_distance(op2(np.diag([1e9, 0.0])), op2(np.diag([-1e9, 0.0])))

    def test_bounded_by_a_norm_times_m(self):
        # d_Y(A, A + C) equals ||C||; the weighted norm times M scales it by
        # the resolvent factor, which is >= 1 for a contraction generator
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = rng.standard_normal((3, 3))
            a = op2(m - (np.max(np.linalg.eigvalsh((m + m.T) / 2.0)) + 0.5) * np.eye(3))
            c = op2(0.1 * rng.standard_normal((3, 3)))
            b = op2(a.entries + c.entries)
            d = yosida_distance(a, b).value
            assert d == pytest.approx(op_norm(c), rel=1e-6)


class TestGenerationBound:
    def test_zero_perturbation(self):
        a = op2(np.diag([-1.0, -2.0]))
        check = check_generation_bound(a, op2(np.zeros((2, 2))), GrowthBound(1.0, -1.0))
        assert check.passed

    def test_diagonal_shift(self):
        a = op2(np.diag([-2.0, -3.0]))
        check = check_generation_bound(a, op2(0.5 * np.eye(2)), GrowthBound(1.0, -2.0))
        assert check.passed
        assert check.max_ratio <= 1.0 + 1e-9


class TestAssumptions:
    def test_sinusoid_passes(self):
        a = op2(np.diag([-1.0, -2.0]))
        gb = GrowthBound(1.0, -1.0)
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, op2(0.5 * np.eye(2)))
        report = check_assumptions(fam, a, gb)
        assert report.a1_pass and report.a2_pass
        assert report.a1_modulus[-1][1] < report.a1_modulus[0][1]

    def test_constant_passes_with_zero_modulus(self):
        a = op2(np.diag([-1.0, -2.0]))
        fam = ConstantFamily((0.0, 1.0), op2(0.3 * np.eye(2)))
        report = check_assumptions(fam, a, GrowthBound(1.0, -1.0))
        assert report.a1_pass and report.a2_pass
        assert all(v == 0.0 for _, v in report.a1_modulus)

    def test_jump_fails_continuity(self):
        a = op2(np.diag([-1.0, -2.0]))
        fam = CallableFamily(
            (0.0, 1.0),
            lambda t: np.eye(2) if t >= 0.5 else np.zeros((2, 2)),
            dim=2,
            norm_kind=NormKind.TWO,
        )
        report = check_assumptions(fam, a, GrowthBound(1.0, -1.0))
        assert not report.a1_pass

    def test_a2_column_matches_pointwise_loop(self):
        # The stacked a2 column of a family with no factor against one difference
        # quotient and one norm per (mu, t), the same arithmetic in a loop: equal to the bit.
        a = op2([[-1.0, 0.4], [0.0, -2.0]])
        b0 = np.array([[0.5, 1.0], [-0.3, 0.2]])
        fam = CallableFamily((0.0, 1.0), lambda t: math.sin(t) * b0, dim=2, norm_kind=NormKind.TWO)
        report = check_assumptions(fam, a, GrowthBound(1.0, -1.0))
        h = report.h_fd
        for mu, sup in report.a2_derivative_sup:
            r = resolvent(a, mu).entries
            want = max(
                norm_of((fam(t + h).entries - fam(t - h).entries) / (2.0 * h) @ r, NormKind.TWO)
                for t in np.linspace(h, 1.0 - h, 33)
            )
            assert sup == want


class TestFamilyFitsGenerator:
    """check_assumptions and lemma32_decay refuse a family of another dimension or norm kind."""

    @pytest.mark.parametrize(
        "family, error",
        [
            (PiecewiseLinearFamily([0.0, 1.0], [Operator(np.eye(2), NormKind.ONE)] * 2), NormKindMismatch),
            (ConstantFamily((0.0, 1.0), op2(np.eye(3))), DimensionMismatch),
        ],
    )
    @pytest.mark.parametrize(
        "check",
        [check_assumptions, lambda fam, a, gb: lemma32_decay(a, fam, gb)],
        ids=["check_assumptions", "lemma32_decay"],
    )
    def test_mismatch_refused(self, family, error, check):
        with pytest.raises(error):
            check(family, op2(np.diag([-1.0, -2.0])), GrowthBound(1.0, -1.0))


class TestLemma32Decay:
    def test_zero_family_all_zero(self):
        a = op2(np.diag([-1.0, -2.0]))
        fam = ConstantFamily((0.0, 1.0), op2(np.zeros((2, 2))))
        res = lemma32_decay(a, fam, GrowthBound(1.0, -1.0))
        assert all(v <= 1e-14 for _, v in res.samples)

    def test_inverse_square_slope(self):
        a = op2(np.diag([-2.0, -3.0]))
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, op2(np.diag([1.0, 0.5])))
        res = lemma32_decay(a, fam, GrowthBound(1.0, -2.0))
        assert -2.3 <= res.slope <= -1.7
        assert res.identity_residual <= 1e-8

    def test_inadmissible_mu_propagates(self):
        from nonauto import SingularResolvent

        # The ladder omega0 + geomspace(10, 1e4, 13) starts at -11 + 10 = -1,
        # an eigenvalue of A.
        a = op2(np.diag([-1.0, -2.0]))
        fam = ConstantFamily((0.0, 1.0), op2(np.zeros((2, 2))))
        with pytest.raises(SingularResolvent):
            lemma32_decay(a, fam, GrowthBound(1.0, -11.0))
