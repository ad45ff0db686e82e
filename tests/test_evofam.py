"""Dyadic partitions, perturbation families, and the frozen-coefficient scheme."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nonauto import (
    CallableFamily,
    ConstantFamily,
    DimensionMismatch,
    DyadicPartition,
    EvolutionFamilyApprox,
    GrowthBound,
    NormKind,
    NormKindMismatch,
    Operator,
    OutOfInterval,
    Overflow,
    PiecewiseLinearFamily,
    PreconditionViolated,
    ScaledProfileFamily,
    Sinusoid,
    TabulatedFamily,
    ToleranceNotReached,
    a_norm,
    euler_polygon,
    expm,
    family_from_spec,
    op_norm,
    oracle_solve,
    product_difference_bound,
    refine_to_tolerance,
    verify_generator_derivative,
)
from nonauto import evofam
from nonauto.examples import Domain, GridSpec, build_heat_generator, build_spiky_b
from nonauto.metrics import ANormEvaluator, MuGrid
from nonauto.linop import norm_stack
from nonauto.semigroup import expm_stack

from oracles import DIAG_U11, DIAG_U22, SCALAR_POLY, StackPolygon, flat_chain_desc, rk4_step_loop, sin_modulus


def op2(entries):
    return Operator(np.asarray(entries, dtype=float), NormKind.TWO)


def dense_problem(d=32):
    """A dissipative d x d generator and a sin(t) B0 family on [0, 1]."""
    rng = np.random.default_rng(0)
    a = op2(-np.eye(d) + 0.1 * rng.standard_normal((d, d)))
    return a, ScaledProfileFamily((0.0, 1.0), math.sin, op2(0.2 * rng.standard_normal((d, d))))


def traced_peak(fn):
    """(result, peak bytes tracemalloc saw allocated while fn ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDyadicPartition:
    def test_cells_and_delta(self):
        p = DyadicPartition(0.0, 2.0, 3)
        assert p.cells == 8
        assert p.delta == pytest.approx(0.25)
        assert np.allclose(p.nodes(), np.linspace(0.0, 2.0, 9))

    def test_cell_of(self):
        p = DyadicPartition(0.0, 1.0, 2)
        assert p.cell_of(0.0) == 0
        assert p.cell_of(0.26) == 1
        assert p.cell_of(1.0) == 3

    def test_cell_of_outside(self):
        p = DyadicPartition(0.0, 1.0, 2)
        with pytest.raises(OutOfInterval):
            p.cell_of(1.5)


def _tabulated_unit(tmp_path):
    path = tmp_path / "unit.csv"
    path.write_text("0.0, 1.0, 0.0, 0.0, 1.0\n1.0, 0.0, 1.0, 1.0, 0.0\n")
    return TabulatedFamily(str(path), NormKind.TWO)


# One family of every kind on [0, 1], built from a scratch directory.
_UNIT_FAMILIES = {
    "constant": lambda tmp: ConstantFamily((0.0, 1.0), op2(np.eye(2))),
    "sinusoid": lambda tmp: ScaledProfileFamily((0.0, 1.0), math.sin, op2(np.eye(2))),
    "scaled": lambda tmp: ScaledProfileFamily((0.0, 1.0), math.sin, op2(np.eye(2))).scale(0.5),
    "piecewise": lambda tmp: PiecewiseLinearFamily([0.0, 1.0], [np.zeros((2, 2)), np.eye(2)]),
    "tabulated": _tabulated_unit,
    "callable": lambda tmp: CallableFamily((0.0, 1.0), lambda t: t * np.eye(2), dim=2, norm_kind=NormKind.TWO),
}


class TestFamilies:
    def test_call_outside_interval(self):
        fam = ConstantFamily((0.0, 1.0), op2(np.eye(2)))
        with pytest.raises(OutOfInterval):
            fam(2.0)

    def test_constant_modulus_zero(self):
        fam = ConstantFamily((0.0, 1.0), op2(np.eye(2)))
        ev = ANormEvaluator(op2(np.diag([-1.0, -2.0])), GrowthBound(1.0, -1.0))
        assert fam.modulus(0.25, ev) == 0.0

    def test_profile_modulus_factorises(self):
        # Omega(h) = sup |sin t - sin s| ||B0||_A = 2 sin(h/2) ||B0||_A; the
        # interval length makes h an exact multiple of the profile spacing
        a = op2(np.zeros((2, 2)))
        gb = GrowthBound(1.0, 0.0)
        b0 = op2(np.eye(2))
        fam = ScaledProfileFamily((0.0, 8.0), np.sin, b0)
        ev = ANormEvaluator(a, gb)
        b0_norm = a_norm(b0, a, gb).value
        for h in (0.5, 0.125):
            assert fam.modulus(h, ev) == pytest.approx(sin_modulus(h) * b0_norm, rel=1e-4)

    def test_profile_modulus_halves_past_the_sampling_step(self):
        # On [0, 1] the 2049 profile samples are 2^-11 apart. Below two steps
        # the profile is resampled at step h, where sup |sin t - sin s| over
        # |t - s| <= h is sin(h); a fixed one-step window would read sin(2^-11)
        # at every level past 11.
        a = op2(np.diag([-1.0, -2.0]))
        gb = GrowthBound(1.0, -1.0)
        b0 = op2(np.diag([0.5, 0.3]))
        fam = ScaledProfileFamily((0.0, 1.0), math.sin, b0)
        ev = ANormEvaluator(a, gb)
        b0_norm = a_norm(b0, a, gb).value
        moduli = [fam.modulus(2.0**-n, ev) for n in range(11, 17)]
        for n, omega in zip(range(11, 17), moduli):
            assert omega == pytest.approx(math.sin(2.0**-n) * b0_norm, rel=1e-12)
        for coarse, fine in zip(moduli, moduli[1:]):
            assert fine / coarse == pytest.approx(0.5, rel=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(x=arrays(float, st.integers(1, 80), elements=st.floats(-1e6, 1e6)))
    def test_window_extrema_equal_sliding_windows(self, x):
        # Every width, powers of two or not: the doubling extrema are exact.
        for width in range(1, len(x) + 1):
            windows = np.lib.stride_tricks.sliding_window_view(x, width)
            hi, lo = evofam._window_extrema(x, width)
            assert np.array_equal(hi, windows.max(axis=1)) and np.array_equal(lo, windows.min(axis=1)), width

    @settings(max_examples=100, deadline=None)
    @given(
        ts=arrays(float, st.integers(1, 40), elements=st.floats(-50.0, 50.0)),
        frequency=st.floats(-5.0, 5.0),
        phase=st.floats(-7.0, 7.0),
        amplitude=st.floats(-3.0, 3.0),
    )
    def test_sinusoid_scalar_form_equals_array_form(self, ts, frequency, phase, amplitude):
        # One t at a time or all at once, numpy's sin loop gives the same bits.
        profile = Sinusoid(frequency, phase, amplitude)
        assert np.array_equal([profile(t) for t in ts], profile.values(ts))

    def test_plain_callable_profile_is_called_once_per_node(self):
        calls = []
        fam = ScaledProfileFamily((0.0, 1.0), lambda t: calls.append(t) or math.sin(t), op2(np.diag([0.5, 0.3])))
        assert len(calls) == evofam.PROFILE_SAMPLES
        ts = np.linspace(0.0, 1.0, 7)
        calls.clear()
        fam.values_stack(ts)
        assert calls == ts.tolist()
        # An interpolated level evaluates its profile once per cell's left node.
        u = euler_polygon(op2(np.diag([-1.0, -2.0])), fam, 10)
        calls.clear()
        u.evaluate(1.0, 0.0)
        assert calls == DyadicPartition(0.0, 1.0, 10).nodes()[:-1].tolist()

    @pytest.mark.parametrize("key, value", [("amplitude", math.inf), ("frequency", math.inf), ("phase", math.nan)])
    def test_non_finite_sinusoid_gives_non_finite_values_without_warning(self, key, value):
        # Warnings are errors in this suite; the cell exponentials refuse the values.
        fam = family_from_spec({"kind": "sinusoid", "interval": [0.0, 1.0], "entries": [[0.5, 0.0], [0.0, 0.5]], key: value}, NormKind.TWO)
        assert not np.isfinite(fam.values_stack([0.0])).any()
        with pytest.raises(Overflow, match="non-finite entry"):
            euler_polygon(op2(-np.eye(2)), fam, 0).evaluate(1.0, 0.0)

    def test_infinite_profile_times_zero_entry_is_nan_without_warning(self):
        # inf x 0 is NaN: the product of an infinite profile value and B0's zero entries warns
        # nothing, and the cell exponentials refuse the values.
        spec = {"kind": "sinusoid", "interval": [0.0, 3.0], "entries": [[0.5, 0.0], [0.0, 0.5]], "amplitude": math.inf}
        fam = family_from_spec(spec, NormKind.TWO)
        vals = fam.values_stack([0.5])
        assert np.isposinf(np.diagonal(vals[0])).all() and np.isnan(vals[0, [0, 1], [1, 0]]).all()
        with pytest.raises(Overflow, match="non-finite entry"):
            euler_polygon(op2(-np.eye(2)), fam, 1).evaluate(3.0, 0.0)

    def test_scale_wraps_value_and_modulus(self):
        fam = ScaledProfileFamily((0.0, 3.0), np.sin, op2(np.eye(2))).scale(-2.0)
        assert np.allclose(fam(1.0).entries, -2.0 * math.sin(1.0) * np.eye(2))
        ev = ANormEvaluator(op2(np.diag([-1.0, -2.0])), GrowthBound(1.0, -1.0))
        base = ScaledProfileFamily((0.0, 3.0), np.sin, op2(np.eye(2)))
        assert fam.modulus(0.25, ev) == pytest.approx(2.0 * base.modulus(0.25, ev), rel=1e-12)

    def test_piecewise_linear_interpolates(self):
        fam = PiecewiseLinearFamily([0.0, 1.0, 3.0], [np.zeros((2, 2)), np.eye(2), 3.0 * np.eye(2)])
        assert np.allclose(fam(0.5).entries, 0.5 * np.eye(2))
        assert np.allclose(fam(2.0).entries, 2.0 * np.eye(2))
        assert np.allclose(fam(3.0).entries, 3.0 * np.eye(2))
        # Non-collinear nodes make the piece choice visible: interior points,
        # every node, and b, which belongs to the last piece.
        kinked = PiecewiseLinearFamily([0.0, 1.0, 3.0], [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 2.0], [0.0, 0.0]],
                                                         [[0.0, 0.0], [4.0, 0.0]]])
        got = kinked.values_stack([0.0, 0.25, 1.0, 2.0, 3.0])
        want = [
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.75, 0.5], [0.0, 0.0]],
            [[0.0, 2.0], [0.0, 0.0]],
            [[0.0, 1.0], [2.0, 0.0]],
            [[0.0, 0.0], [4.0, 0.0]],
        ]
        np.testing.assert_array_equal(got, want)

    def test_piecewise_linear_exact_modulus(self):
        # steepest piece has slope 2 I per unit time; for h <= 1 the modulus
        # is h * 2 ||I||_A exactly
        a = op2(np.zeros((2, 2)))
        ev = ANormEvaluator(a, GrowthBound(1.0, 0.0))
        fam = PiecewiseLinearFamily([0.0, 1.0, 2.0], [np.zeros((2, 2)), 2.0 * np.eye(2), np.eye(2)])
        assert fam.modulus(0.25, ev) == pytest.approx(0.5, rel=1e-9)

    def test_modulus_cache_follows_the_evaluator(self):
        # Evaluators with different certificates are built and dropped in
        # turn, and CPython hands a new one the id() of a dead one. Every
        # call must see its own evaluator's norm, as a fresh family does.
        a = op2(np.diag([-1.0, -2.0]))
        b0 = op2([[0.3, 1.0], [0.0, 0.5]])
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, b0)
        grid = MuGrid(1e-2, 1e2, 2)
        stale = []
        for i in range(50):
            ev = ANormEvaluator(a, GrowthBound(1.0 + i, 0.0), grid)
            got = fam.modulus(0.1, ev)
            if got != ScaledProfileFamily((0.0, 1.0), np.sin, b0).modulus(0.1, ev):
                stale.append(i)
            del ev
        assert stale == []

    def test_piecewise_linear_guards(self):
        with pytest.raises(DimensionMismatch):
            PiecewiseLinearFamily([0.0, 1.0], [np.eye(2)])
        with pytest.raises(PreconditionViolated):
            PiecewiseLinearFamily([0.0], [np.eye(2)])
        with pytest.raises(PreconditionViolated):
            PiecewiseLinearFamily([0.0, 0.0], [np.eye(2), np.eye(2)])

    def test_tabulated_roundtrip(self, tmp_path):
        path = tmp_path / "family.csv"
        path.write_text(
            "# t, entries row-major\n"
            "0.0, 0.0, 1.0, 0.0, 0.0\n"
            "1.0, 2.0, 1.0, 0.0, 2.0\n"
        )
        fam = TabulatedFamily(str(path), NormKind.TWO)
        assert fam.interval == (0.0, 1.0)
        assert np.allclose(fam(0.5).entries, [[1.0, 1.0], [0.0, 1.0]])

    def test_tabulated_guards(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# nothing\n")
        with pytest.raises(PreconditionViolated):
            TabulatedFamily(str(empty), NormKind.TWO)
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("0.0, 1.0, 2.0\n1.0, 1.0, 2.0\n")
        with pytest.raises(DimensionMismatch):
            TabulatedFamily(str(ragged), NormKind.TWO)

    def test_family_from_spec_kinds(self):
        const = family_from_spec({"kind": "constant", "interval": [0.0, 1.0], "entries": [[1.0, 0.0], [0.0, 1.0]]}, NormKind.TWO)
        assert isinstance(const, ConstantFamily)
        sin = family_from_spec(
            {"kind": "sinusoid", "interval": [0.0, 2.0], "entries": [[1.0]], "amplitude": 0.5, "frequency": 2.0}, NormKind.TWO
        )
        assert sin(1.0).entries[0, 0] == pytest.approx(0.5 * math.sin(2.0))
        pw = family_from_spec({"kind": "piecewise", "nodes": [0.0, 1.0], "mats": [[[0.0]], [[1.0]]]}, NormKind.TWO)
        assert pw(0.25).entries[0, 0] == pytest.approx(0.25)

    def test_family_from_spec_tabulated(self, tmp_path):
        path = tmp_path / "fam.csv"
        path.write_text("0.0, 1.0\n2.0, 3.0\n")
        fam = family_from_spec({"kind": "tabulated", "path": str(path)}, NormKind.TWO)
        assert fam.interval == (0.0, 2.0)

    @pytest.mark.parametrize("t", [5.0, -0.5, float("nan")])
    @pytest.mark.parametrize("kind", sorted(_UNIT_FAMILIES))
    def test_evaluation_outside_interval_raises(self, kind, t, tmp_path):
        fam = _UNIT_FAMILIES[kind](tmp_path)
        with pytest.raises(OutOfInterval):
            fam(t)
        with pytest.raises(OutOfInterval):
            fam.values_stack([0.5, t])
        # The oracle wants t >= s, so a point below the interval is the start.
        t_end, s = (1.0, t) if t < 0.0 else (t, 0.0)
        with pytest.raises(OutOfInterval):
            oracle_solve(op2(np.diag([-1.0, -2.0])), fam, t_end, s)

    def test_callable_of_wrong_dimension_raises(self):
        fam = CallableFamily((0.0, 1.0), lambda t: np.eye(3), dim=2, norm_kind=NormKind.TWO)
        with pytest.raises(DimensionMismatch):
            fam(0.5)
        with pytest.raises(DimensionMismatch):
            euler_polygon(op2(np.diag([-1.0, -2.0])), fam, 2)
        with pytest.raises(DimensionMismatch):
            oracle_solve(op2(np.diag([-1.0, -2.0])), fam, 1.0, 0.0)

    def test_callable_of_other_norm_kind_raises(self):
        # A 2-norm operator in a 1-norm family would be read in the wrong norm.
        fam = CallableFamily((0.0, 1.0), lambda t: Operator(np.eye(2), NormKind.TWO), dim=2, norm_kind=NormKind.ONE)
        with pytest.raises(NormKindMismatch):
            fam(0.5)
        with pytest.raises(NormKindMismatch):
            euler_polygon(Operator(np.diag([-1.0, -2.0]), NormKind.ONE), fam, 2)

    def test_family_from_spec_unknown_kind(self):
        with pytest.raises(PreconditionViolated):
            family_from_spec({"kind": "perlin", "interval": [0.0, 1.0]}, NormKind.TWO)


class TestModulusContract:
    """PerturbationFamily.modulus clamps h, answers 0.0 for h <= 0 and caches, for every kind."""

    @staticmethod
    def _evaluator():
        return ANormEvaluator(op2(np.diag([-1.0, -2.0])), GrowthBound(1.0, -1.0))

    @pytest.mark.parametrize("kind", sorted(_UNIT_FAMILIES))
    def test_h_past_the_interval_is_the_interval_length(self, kind, tmp_path):
        ev = self._evaluator()
        fresh = _UNIT_FAMILIES[kind](tmp_path)
        assert _UNIT_FAMILIES[kind](tmp_path).modulus(5.0, ev) == fresh.modulus(1.0, ev)

    @pytest.mark.parametrize("kind", sorted(_UNIT_FAMILIES))
    @pytest.mark.parametrize("h", [0.0, -0.5])
    def test_non_positive_h_is_zero(self, kind, h, tmp_path):
        assert _UNIT_FAMILIES[kind](tmp_path).modulus(h, self._evaluator()) == 0.0

    @pytest.mark.parametrize("kind", sorted(_UNIT_FAMILIES))
    def test_repeat_call_evaluates_nothing(self, kind, tmp_path, monkeypatch):
        fam = _UNIT_FAMILIES[kind](tmp_path)
        ev = self._evaluator()
        calls = []
        original = evofam.PerturbationFamily.values_stack

        def counted(self, ts):
            calls.append(len(ts))
            return original(self, ts)

        monkeypatch.setattr(evofam.PerturbationFamily, "values_stack", counted)
        hs = (0.3, 1.0, 5.0)
        first = [fam.modulus(h, ev) for h in hs]
        made = len(calls)
        assert [fam.modulus(h, ev) for h in hs] == first
        assert len(calls) == made

    def test_constant_family_is_b0_bit_for_bit(self):
        b0 = op2([[0.1, -0.0], [1e-300, -7.25]])
        fam = ConstantFamily((0.0, 2.0), b0)
        got = fam.values_stack(np.linspace(0.0, 2.0, 7))
        assert got.tobytes() == np.stack([b0.entries] * 7).tobytes()
        ev = self._evaluator()
        assert [fam.modulus(h, ev) for h in (1e-6, 0.3, 2.0, 9.0)] == [0.0] * 4
        assert fam.sup_anorm(ev) == ev.value(b0).value


class TestEvolutionFamily:
    def test_identity_at_equal_times(self):
        approx = euler_polygon(op2(np.diag([-1.0, -2.0])), ConstantFamily((0.0, 1.0), op2(np.eye(2))), 4)
        assert np.array_equal(approx.evaluate(0.3, 0.3).entries, np.eye(2))

    def test_guards(self):
        a = op2(np.diag([-1.0, -2.0]))
        approx = euler_polygon(a, ConstantFamily((0.0, 1.0), op2(np.eye(2))), 3)
        with pytest.raises(OutOfInterval):
            approx.evaluate(1.5, 0.0)
        with pytest.raises(PreconditionViolated):
            approx.evaluate(0.2, 0.8)
        with pytest.raises(NormKindMismatch):
            EvolutionFamilyApprox(
                Operator(np.eye(2), NormKind.ONE),
                ConstantFamily((0.0, 1.0), op2(np.eye(2))),
                DyadicPartition(0.0, 1.0, 2),
            )
        with pytest.raises(DimensionMismatch):
            EvolutionFamilyApprox(op2(np.eye(3)), ConstantFamily((0.0, 1.0), op2(np.eye(2))), DyadicPartition(0.0, 1.0, 2))
        with pytest.raises(OutOfInterval):
            EvolutionFamilyApprox(a, ConstantFamily((0.0, 1.0), op2(np.eye(2))), DyadicPartition(0.0, 2.0, 2))

    def test_constant_family_collapses_to_semigroup(self):
        a = op2(np.diag([-1.0, -2.0]))
        b0 = op2([[0.0, 0.5], [0.0, 0.0]])
        fam = ConstantFamily((0.0, 1.0), b0)
        gen = op2(a.entries + b0.entries)
        for n in (0, 3, 6):
            approx = euler_polygon(a, fam, n)
            for t, s in ((1.0, 0.0), (0.7, 0.2), (0.5, 0.5)):
                diff = op_norm(approx.evaluate(t, s) - expm((t - s) * gen))
                assert diff <= 1e-10

    def test_cocycle_on_dyadic_triples(self):
        a = op2([[-1.0, 1.0], [0.0, -2.0]])
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, op2([[0.0, 1.0], [1.0, 0.0]]))
        approx = euler_polygon(a, fam, 5)
        for (t, r, s) in ((1.0, 0.5, 0.0), (0.75, 0.5, 0.25), (1.0, 0.9375, 0.125)):
            lhs = approx.evaluate(t, s).entries
            rhs = approx.evaluate(t, r).entries @ approx.evaluate(r, s).entries
            assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(lhs).max())

    def test_evaluate_path_matches_pointwise(self):
        a = op2([[-1.0, 0.3], [0.0, -0.5]])
        fam = ScaledProfileFamily((0.0, 1.0), np.cos, op2(np.eye(2)))
        approx = euler_polygon(a, fam, 6)
        ts = [0.2, 0.35, 0.5, 0.8125, 1.0]
        path = approx.evaluate_path(ts, 0.2)
        assert path.shape == (len(ts), 2, 2)
        for t, u in zip(ts, path):
            assert np.allclose(u, approx.evaluate(t, 0.2).entries, atol=1e-13)

    def test_equal_times_outside_interval_raise(self):
        a = op2(np.diag([-1.0, -2.0]))
        fam = ConstantFamily((0.0, 1.0), op2(np.eye(2)))
        approx = euler_polygon(a, fam, 3)
        for t in (5.0, -0.5):
            with pytest.raises(OutOfInterval):
                approx.evaluate(t, t)
            with pytest.raises(OutOfInterval):
                approx.evaluate_path([t], t)
            with pytest.raises(OutOfInterval):
                oracle_solve(a, fam, t, t)
        with pytest.raises(OutOfInterval):
            approx.evaluate_path([0.5, 1.5], 0.0)

    def test_evaluate_path_needs_ascending(self):
        a = op2(np.diag([-1.0, -2.0]))
        approx = euler_polygon(a, ConstantFamily((0.0, 1.0), op2(np.eye(2))), 3)
        with pytest.raises(PreconditionViolated):
            approx.evaluate_path([0.5, 0.25], 0.0)

    def test_scalar_polygon_value(self):
        # dim 1, A = -1, B(t) = sin t: the exact solution at (1, 0) is
        # exp(-cos 1); the level-10 polygon lands within 3e-4
        a = Operator(np.array([[-1.0]]), NormKind.TWO)
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, Operator(np.array([[1.0]]), NormKind.TWO))
        approx = euler_polygon(a, fam, 10)
        assert approx.evaluate(1.0, 0.0).entries[0, 0] == pytest.approx(SCALAR_POLY, abs=3e-4)

    def test_growth_envelope(self):
        a = op2(np.diag([-1.0, -2.0]))
        gb = GrowthBound(1.0, -1.0)
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, op2(0.5 * np.eye(2)))
        ev = ANormEvaluator(a, gb)
        omega1 = fam.sup_anorm(ev)
        approx = euler_polygon(a, fam, 6)
        rng = np.random.default_rng(2)
        for _ in range(20):
            s, t = sorted(rng.uniform(0.0, 1.0, 2))
            bound = gb.m * math.exp((gb.omega0 + gb.m**2 * omega1) * (t - s))
            assert op_norm(approx.evaluate(t, s)) <= bound * (1.0 + 1e-6)


def level_stack_bytes(d: int, n: int) -> int:
    """Bytes of the whole (2^n, d, d) cell-exponential stack that no level holds."""
    return 2**n * d * d * 8


class Unfactored(ScaledProfileFamily):
    """A profile family that hides its factor: the same values, modulus and norms, and direct cells."""

    def factor(self):
        return None


def unfactored(fam: ScaledProfileFamily) -> Unfactored:
    return Unfactored(fam.interval, fam.profile, fam.b0)


def source_cells(a: Operator, fam: ScaledProfileFamily, level: int) -> np.ndarray:
    """The whole level's cells in one call to a fresh polygon's cell source.

    A factored test problem is interpolated wherever its level is large enough to pay.
    """
    u = euler_polygon(a, fam, level)
    cells = u._cells(0, u.partition.cells)
    pays = u.partition.cells >= max(evofam._INTERP_MIN_CELLS, evofam._INTERP_MIN_CELLS_X_DIM / a.dim)
    assert bool(u._interpolant) == (fam.factor() is not None and pays)
    return cells


class TestOneLevelStack:
    def test_cells_equal_out_of_place_exponentials(self):
        # Direct cells are the out-of-place exponentials; interpolated cells (at
        # a level large enough to interpolate) are the cell source's, however
        # the spans reach them.
        a, fam = dense_problem(5)
        for family, level in ((unfactored(fam), 6), (fam, 9)):
            u = euler_polygon(a, family, level)
            p = u.partition
            cells = np.stack([u.evaluate(p.node(j + 1), p.node(j)).entries for j in range(p.cells)])
            if family is fam:
                ref = source_cells(a, family, level)
                assert u._interpolant
            else:
                ref = expm_stack(p.delta * (a.entries + family.values_stack(p.nodes()[:-1])))
            assert np.array_equal(cells, ref)

    def test_level_fold_holds_no_stack(self):
        a, fam = dense_problem()
        probes = np.linspace(0.0, 1.0, 17)[1:]
        _, peak = traced_peak(lambda: euler_polygon(a, fam, 12).evaluate_path(probes, 0.0))
        assert peak < 0.1 * level_stack_bytes(32, 12)

    def test_piecewise_family_fills_one_stack(self):
        d = 32
        rng = np.random.default_rng(4)
        a = op2(-np.eye(d) + 0.1 * rng.standard_normal((d, d)))
        fam = PiecewiseLinearFamily([0.0, 0.4, 1.0], 0.2 * rng.standard_normal((3, d, d)))
        ts = np.linspace(0.0, 1.0, 4096)
        vals, peak = traced_peak(lambda: fam.values_stack(ts))
        assert peak < 1.25 * vals.nbytes
        # Bitwise the whole-stack interpolation.
        j = np.clip(np.searchsorted(fam.nodes, ts, side="right") - 1, 0, 1)
        w = ((ts - fam.nodes[j]) / (fam.nodes[j + 1] - fam.nodes[j]))[:, None, None]
        ref = (1.0 - w) * fam._stack[j]
        ref += w * fam._stack[j + 1]
        assert np.array_equal(vals, ref)
        _, peak = traced_peak(lambda: euler_polygon(a, fam, 12).evaluate(1.0, 0.0))
        assert peak < 0.1 * level_stack_bytes(d, 12)

    def test_full_span_evaluate_is_bounded(self):
        a, fam = dense_problem()
        u = euler_polygon(a, fam, 12)
        _, peak = traced_peak(lambda: u.evaluate(1.0, 0.0))
        assert peak < 0.1 * level_stack_bytes(32, 12)

    def test_refinement_to_level_12_holds_no_stack(self):
        # The A-norm evaluator and the family's memo of ||B0||_A are built
        # first: their memory is the same at every level.
        a, fam = dense_problem()
        gb = GrowthBound(1.0, 0.0)
        ev = ANormEvaluator(a, gb)
        fam.sup_anorm(ev)
        res, peak = traced_peak(lambda: refine_to_tolerance(a, fam, gb, 2.5e-4, n_max=14, anorm=ev))
        assert res.approx.level == 12
        assert peak < 0.1 * level_stack_bytes(32, 12)


class TestFold:
    """The fold against the stored-stack reference, bit for bit.

    Each case runs twice: on the profile family with its factor hidden, whose
    cells are direct, against the unchanged reference; and on the factored
    family against a reference holding the level's cells from the polygon's
    cell source, so the fold's product order is checked bitwise on both.
    """

    @staticmethod
    def problem(d):
        rng = np.random.default_rng(d)
        a = op2(-np.eye(d) + 0.1 * rng.standard_normal((d, d)))
        return a, ScaledProfileFamily((0.0, 1.0), math.sin, op2(0.2 * rng.standard_normal((d, d)))), rng

    @staticmethod
    def pairs(a, fam, level):
        """(polygon, reference) on the unfactored and on the factored family."""
        u = euler_polygon(a, unfactored(fam), level)
        yield u, StackPolygon(a, u.family, u.partition)
        u = euler_polygon(a, fam, level)
        yield u, StackPolygon(a, fam, u.partition, cells=source_cells(a, fam, level))

    @pytest.mark.parametrize("d", [2, 24, 32])
    @pytest.mark.parametrize("n", [0, 3, 9, 12])
    def test_evaluate_equals_stack_reference(self, d, n):
        a, fam, rng = self.problem(d)
        p = DyadicPartition(0.0, 1.0, n)
        spans = [(1.0, 0.0)]
        for _ in range(4):
            s, t = sorted(rng.uniform(0.0, 1.0, 2))
            i, j = sorted(rng.integers(0, p.cells + 1, 2))
            k = int(rng.integers(0, p.cells))
            spans += [(t, s), (p.node(j), p.node(i)), (p.node(k) + 0.7 * p.delta, p.node(k) + 0.2 * p.delta)]
        for u, ref in self.pairs(a, fam, n):
            for t, s in spans:
                assert np.array_equal(u.evaluate(t, s).entries, ref.evaluate(t, s)), (t, s)

    @pytest.mark.parametrize("d", [2, 24, 32])
    def test_evaluate_path_equals_stack_reference(self, d):
        a, fam, rng = self.problem(d)
        paths = ((np.linspace(0.0, 1.0, 17)[1:], 0.0), (np.sort(rng.uniform(0.3, 1.0, 7)), 0.3))
        for u, ref in self.pairs(a, fam, 11):
            for ts, s in paths:
                got = u.evaluate_path(ts, s)
                assert all(np.array_equal(x, y) for x, y in zip(got, ref.evaluate_path(ts, s)))

    @pytest.mark.parametrize("d", [2, 24, 32])
    def test_refine_probe_values_equal_stack_reference(self, d):
        a, fam, _ = self.problem(d)
        ts = np.linspace(0.0, 1.0, 17)[1:]
        for family in (unfactored(fam), fam):
            res = refine_to_tolerance(a, family, GrowthBound(1.0, 0.0), 2e-3, n_max=14)
            cells = source_cells(a, fam, res.approx.level) if family is fam else None
            ref = StackPolygon(a, family, res.approx.partition, cells=cells).evaluate_path(ts, 0.0)
            assert res.probe_values.shape == (16, d, d)
            assert not res.probe_values.flags.writeable
            assert all(np.array_equal(x, y) for x, y in zip(res.probe_values, ref))
            assert np.array_equal(res.full_span.entries, res.probe_values[-1])

    @pytest.mark.parametrize("n", range(4))
    def test_coarse_path_exponentiates_one_partial_cell_per_cell(self, n, monkeypatch):
        # The 16 probes on [0, 1] are equally spaced and every other one is a node,
        # so each coarse cell's partial cells repeat one (cell, length) pair, no
        # span takes a full cell, and the pass's partial cells are one call.
        a, fam, _ = self.problem(2)
        probes = np.linspace(0.0, 1.0, 17)[1:]
        for u, ref in self.pairs(a, fam, n):
            mats = []
            with monkeypatch.context() as patch:
                patch.setattr(evofam, "expm_stack", lambda m, out=None: mats.append(len(m)) or expm_stack(m, out=out))
                got = u.evaluate_path(probes, 0.0)
            assert mats == [2**n]
            assert all(np.array_equal(x, y) for x, y in zip(got, ref.evaluate_path(probes, 0.0)))

    def test_node_probes_in_one_chunk_are_one_product_call(self, monkeypatch):
        # At d = 2 a level-12 fold is one chunk and the 16 probes are nodes 256 cells
        # apart: one batched _chain_desc call, not one per span.
        a, fam, _ = self.problem(2)
        probes = np.linspace(0.0, 1.0, 17)[1:]
        calls, chain_desc = [], evofam._chain_desc

        def counted(runs):
            calls.append(getattr(runs, "shape", None))  # None for an iterator of runs
            return chain_desc(runs)

        monkeypatch.setattr(evofam, "_chain_desc", counted)
        for u, ref in self.pairs(a, fam, 12):
            calls.clear()
            got = u.evaluate_path(probes, 0.0)
            assert calls == [(16, 256, 2, 2)]
            assert all(np.array_equal(x, y) for x, y in zip(got, ref.evaluate_path(probes, 0.0)))

    def test_ends_within_rounding_of_a_node_snap_to_it(self):
        # An end within 1e-12 delta of a node, on either side, is that node: the same bits.
        a, fam, _ = self.problem(2)
        u = euler_polygon(a, unfactored(fam), 6)
        p, off = u.partition, 0.5e-12 * u.partition.delta
        nodes = [p.node(j) for j in (5, 17, 40, 64)]
        exact = u.evaluate_path(nodes[1:], nodes[0])
        for sign in (-1.0, 1.0):
            near = [min(max(t + sign * off, p.a), p.b) for t in nodes]
            assert near != nodes
            got = u.evaluate_path(near[1:], near[0])
            assert all(np.array_equal(x, y) for x, y in zip(got, exact))

    def test_nearby_spans_reuse_the_last_chunk(self, monkeypatch):
        # Time-1 maps after a refinement take no cell from the source again.
        a, fam, _ = self.problem(2)
        cells, calls = EvolutionFamilyApprox._cells, []

        def counted(u, lo, hi):
            calls.append((lo, hi))
            return cells(u, lo, hi)

        for u, ref in list(self.pairs(a, fam, 10)):
            u.evaluate_path(np.linspace(0.0, 1.0, 17)[1:], 0.0)
            with monkeypatch.context() as patch:
                patch.setattr(evofam, "expm_stack", lambda m, out=None: calls.append(len(m)) or expm_stack(m, out=out))
                patch.setattr(EvolutionFamilyApprox, "_cells", counted)
                for t in (0.5, 0.75, 1.0):
                    assert np.array_equal(u.evaluate(t, t - 0.5).entries, ref.evaluate(t, t - 0.5))
            assert calls == []

    def test_chunking_does_not_move_bits(self, monkeypatch):
        # Fold chunks of 1 and of 16 blocks give the same cells and products.
        a, fam, _ = self.problem(24)
        probes = np.linspace(0.0, 1.0, 17)[1:]
        paths = []
        for blocks in (1, 16):
            monkeypatch.setattr(evofam, "_CHUNK_BLOCKS", blocks)
            paths.append(euler_polygon(a, fam, 12).evaluate_path(probes, 0.0))
        assert all(np.array_equal(x, y) for x, y in zip(*paths))


def heat_family(points: int, phase: float):
    """The heat model problem on `points` cells of [-4, 4] and sin(t + phase) times its 3-spike diagonal."""
    g = GridSpec(8.0, points, Domain.LINE)
    spikes = build_spiky_b(g, 3, mirror=True).operator()
    return build_heat_generator(g), ScaledProfileFamily((0.0, 2.0 * math.pi), lambda t: math.sin(t + phase), spikes)


def random_problem(rng, d: int, scale: float):
    """A dissipative random A and a sin(2t + 0.4) B0 family on [0, 1], both of 2-norm about scale."""
    m = rng.standard_normal((d, d))
    a = scale * (m - (np.linalg.eigvalsh((m + m.T) / 2.0).max() + 0.1) * np.eye(d)) / math.sqrt(d)
    b0 = scale * 0.3 * rng.standard_normal((d, d)) / math.sqrt(d)
    return op2(a), ScaledProfileFamily((0.0, 1.0), lambda t: math.sin(2.0 * t + 0.4), op2(b0))


def cell_errors(a, fam, level: int, samples: int, rng):
    """Worst relative 1-norm errors against scipy.linalg.expm of interpolated and of direct cells.

    Over `samples` cells of the level drawn by rng; the direct cells are one
    expm_stack call on the same frozen generators.
    """
    u = euler_polygon(a, fam, level)
    p = u.partition
    js = np.sort(rng.choice(p.cells, samples, replace=False))
    got = np.stack([u._cells(j, j + 1)[0] for j in js])
    assert u._interpolant, (a.dim, level)
    gens = fam.values_stack(p.a + p.delta * js)
    gens += a.entries
    gens *= p.delta
    want = np.stack([scipy.linalg.expm(g) for g in gens])
    rel = lambda x: (norm_stack(x - want, NormKind.ONE) / norm_stack(want, NormKind.ONE)).max()
    return rel(got), rel(expm_stack(gens))


@pytest.fixture
def every_level_interpolates(monkeypatch):
    """Interpolated cells at any level, whether or not the interpolant pays there."""
    monkeypatch.setattr(evofam, "_INTERP_MIN_CELLS", 0)
    monkeypatch.setattr(evofam, "_INTERP_MIN_CELLS_X_DIM", 0)


class TestInterpolatedCells:
    """A factored level's cells from one Chebyshev interpolant in the profile value."""

    @staticmethod
    def assert_as_accurate(a, fam, levels, samples):
        # Twice the direct kernel's own error, with a floor of 2 u for cells the kernel happens to get exact.
        rng = np.random.default_rng(a.dim)
        for level in levels:
            interpolated, direct = cell_errors(a, fam, level, samples, rng)
            assert interpolated <= max(2.0 * direct, 2.0**-52), (a.dim, level, interpolated, direct)

    @pytest.mark.parametrize("points", [16, 24, 32])
    def test_heat_cells_as_accurate_as_direct(self, points):
        for phase in (1.3, 3.9):
            self.assert_as_accurate(*heat_family(points, phase), range(10, 14), 24)

    def test_heat_pipeline_cells_as_accurate_as_direct(self):
        self.assert_as_accurate(*heat_family(128, 0.0), range(8, 14), 8)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32, 64])
    def test_random_cells_as_accurate_as_direct(self, d, every_level_interpolates):
        rng = np.random.default_rng(100 + d)
        for scale in (0.5, 3.0, 30.0):
            self.assert_as_accurate(*random_problem(rng, d, scale), (6, 9, 12), 24)

    def test_failed_check_gives_direct_cells(self, monkeypatch):
        a, fam = dense_problem(24)
        monkeypatch.setattr(evofam, "_CHECK_ULPS", 0.0)
        u = euler_polygon(a, fam, 10)
        cells = u._cells(0, u.partition.cells)
        assert u._interpolant is False
        assert np.array_equal(cells, source_cells(a, unfactored(fam), 10))
        direct = euler_polygon(a, unfactored(fam), 10).evaluate(1.0, 0.0).entries
        assert np.array_equal(euler_polygon(a, fam, 10).evaluate(1.0, 0.0).entries, direct)

    @pytest.mark.parametrize("d", [24, 128])
    def test_cells_ignore_chunk_shape(self, d, monkeypatch):
        a, fam = dense_problem(d)
        whole = source_cells(a, fam, 9)
        u = euler_polygon(a, fam, 9)
        cuts = (0, 1, 2, 5, 13, 64, 100, 101, 512)
        assert np.array_equal(np.concatenate([u._cells(i, j) for i, j in zip(cuts, cuts[1:])]), whole)
        probes = np.linspace(0.0, 1.0, 17)[1:]
        paths = []
        for blocks in (1, 16):
            monkeypatch.setattr(evofam, "_CHUNK_BLOCKS", blocks)
            paths.append(euler_polygon(a, fam, 9).evaluate_path(probes, 0.0))
        assert all(np.array_equal(x, y) for x, y in zip(*paths))

    def test_factored_level_takes_k_max_plus_3_exponentials(self, monkeypatch):
        # Counted work, not time: a silent fall back to 4096 direct cells fails here.
        a, fam = heat_family(32, 1.3)
        mats = []
        monkeypatch.setattr(evofam, "expm_stack", lambda m, out=None: mats.append(len(m)) or expm_stack(m, out=out))
        euler_polygon(a, fam, 12).evaluate_path(np.linspace(0.0, 2.0 * math.pi, 17)[1:], 0.0)
        assert 0 < sum(mats) <= evofam._INTERP_K_MAX + 3

    def test_constant_profile_takes_one_exponential(self, monkeypatch):
        a = op2(np.diag([-1.0, -2.0]))
        b0 = op2([[0.0, 0.5], [0.0, 0.0]])
        mats = []
        monkeypatch.setattr(evofam, "expm_stack", lambda m, out=None: mats.append(len(m)) or expm_stack(m, out=out))
        u = euler_polygon(a, ConstantFamily((0.0, 1.0), b0), 10)
        cells = u._cells(0, 1024)
        assert mats == [1] and np.array_equal(cells, np.broadcast_to(cells[0], cells.shape))
        assert op_norm(u.evaluate(1.0, 0.0) - expm(op2(a.entries + b0.entries))) <= 1e-12


class TestChainDesc:
    @staticmethod
    def rotations(rng, k, d):
        # Orthogonal factors keep long products finite.
        return np.linalg.qr(rng.standard_normal((k, d, d)))[0]

    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("chunk", [2, 4, 8])
    def test_chunked_equals_flat(self, monkeypatch, d, chunk):
        rng = np.random.default_rng(d * 100 + chunk)
        # A budget short of the next power of two still reduces in chunks of `chunk`.
        monkeypatch.setattr(evofam, "PRODUCT_BYTES", (2 * chunk - 1) * 8 * d * d)
        for length in range(1, 3 * chunk + 2):
            stack = self.rotations(rng, length, d)
            assert np.array_equal(evofam._chain_desc(stack), flat_chain_desc(stack))
            # A (S, k, d, d) batch gives each segment's product bit for bit, whole or as runs.
            batch = self.rotations(rng, 3 * length, d).reshape(3, length, d, d)
            each = np.stack([evofam._chain_desc(segment) for segment in batch])
            assert np.array_equal(evofam._chain_desc(batch), each)
            cuts = np.sort(rng.integers(0, length + 1, 2))
            runs = [run for run in np.split(batch, cuts, axis=1) if run.shape[1]]
            assert np.array_equal(evofam._chain_desc(iter(runs)), each)

    def test_budget_below_one_matrix_reduces_in_pairs(self, monkeypatch):
        monkeypatch.setattr(evofam, "PRODUCT_BYTES", 8)
        stack = self.rotations(np.random.default_rng(3), 11, 4)
        assert np.array_equal(evofam._chain_desc(stack), flat_chain_desc(stack))

    def test_default_budget_equals_flat(self):
        # 1024 matrices of 32 x 32 fill PRODUCT_BYTES: one chunk, then several.
        rng = np.random.default_rng(4)
        for length in (1023, 1024, 1025, 3073):
            stack = self.rotations(rng, length, 32)
            assert np.array_equal(evofam._chain_desc(stack), flat_chain_desc(stack))

    @pytest.mark.parametrize("chunk", [2, 8])
    def test_runs_cut_anywhere_equal_flat(self, monkeypatch, chunk):
        # Runs of any lengths, starting at any count, reduce like one stack.
        rng = np.random.default_rng(chunk)
        monkeypatch.setattr(evofam, "PRODUCT_BYTES", chunk * 8 * 9)
        for length in (1, 2, 5, 17, 40):
            stack = self.rotations(rng, length, 3)
            for _ in range(5):
                cuts = np.sort(rng.integers(0, length + 1, int(rng.integers(0, 6))))
                runs = [run for run in np.split(stack, cuts) if len(run)]
                assert np.array_equal(evofam._chain_desc(iter(runs)), flat_chain_desc(stack))


class TestOracle:
    def test_unperturbed_matches_semigroup(self):
        a = op2([[-1.0, 1.0], [0.0, -2.0]])
        fam = ConstantFamily((0.0, 2.0), op2(np.zeros((2, 2))))
        u = oracle_solve(a, fam, 2.0, 0.0, rk_steps=2**10)
        assert op_norm(u - expm(2.0 * a)) <= 1e-8

    def test_diagonal_closed_form(self):
        # A = diag(-1, -2), B(t) = sin t diag(0.5, 0.3): scalar solutions
        # exp(a + c (1 - cos 1)) per mode
        a = op2(np.diag([-1.0, -2.0]))
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, op2(np.diag([0.5, 0.3])))
        u = oracle_solve(a, fam, 1.0, 0.0, rk_steps=2**12)
        assert u.entries[0, 0] == pytest.approx(DIAG_U11, abs=1e-10)
        assert u.entries[1, 1] == pytest.approx(DIAG_U22, abs=1e-10)

    def test_descending_times_refused(self):
        a = op2(np.diag([-1.0]))
        fam = ConstantFamily((0.0, 1.0), op2(np.zeros((1, 1))))
        with pytest.raises(PreconditionViolated):
            oracle_solve(a, fam, 0.2, 0.8)

    @pytest.mark.parametrize("steps", [0, -3, 2.5, np.nan])
    def test_step_count_below_one_or_fractional_refused(self, steps):
        a = op2(np.diag([-1.0]))
        fam = ConstantFamily((0.0, 1.0), op2(np.zeros((1, 1))))
        with pytest.raises(PreconditionViolated, match="integer rk_steps >= 1"):
            oracle_solve(a, fam, 1.0, 0.0, rk_steps=steps)

    def test_unstable_steps_raise_overflow(self):
        # h = 1/64 puts h * -1e4 far outside RK4's stability region: M grows past doubles.
        a = op2(np.diag([-1e4, -1.0]))
        fam = ConstantFamily((0.0, 1.0), op2(np.zeros((2, 2))))
        with np.errstate(all="raise"), pytest.raises(Overflow, match="rk_steps=64"):
            oracle_solve(a, fam, 1.0, 0.0, rk_steps=64)
        assert oracle_solve(a, fam, 1.0, 0.0, rk_steps=8192).entries[1, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    @staticmethod
    def assert_close_to_step_loop(a, fam, t, s, steps):
        got = oracle_solve(a, fam, t, s, rk_steps=steps).entries
        ref = rk4_step_loop(a, fam, t, s, steps)
        assert np.linalg.norm(got - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)

    def test_streamed_matches_step_loop(self):
        rng = np.random.default_rng(13)
        for d in (2, 3, 4):
            a = op2(rng.standard_normal((d, d)) - 2.0 * np.eye(d))
            profile = ScaledProfileFamily((0.0, 1.0), lambda t: math.sin(3.0 * t + 0.4), op2(rng.standard_normal((d, d))))
            piecewise = PiecewiseLinearFamily([0.0, 0.3, 1.0], [rng.standard_normal((d, d)) for _ in range(3)])
            for fam in (profile, piecewise):
                self.assert_close_to_step_loop(a, fam, 1.0, 0.0, 4096)
                self.assert_close_to_step_loop(a, fam, 0.9, 0.25, 257)
                # A small count runs exactly that many steps.
                self.assert_close_to_step_loop(a, fam, 0.7, 0.1, 5)
            assert np.array_equal(oracle_solve(a, profile, 0.5, 0.5).entries, np.eye(d))
        # At d = 3 a block holds 3640 steps: three blocks, the last one partial.
        a3 = op2(rng.standard_normal((3, 3)) - 2.0 * np.eye(3))
        fam3 = ScaledProfileFamily((0.0, 1.0), math.cos, op2(rng.standard_normal((3, 3))))
        self.assert_close_to_step_loop(a3, fam3, 1.0, 0.0, 10000)

    def test_streamed_matches_step_loop_on_heat(self):
        g = GridSpec(8.0, 32, Domain.LINE)
        a = build_heat_generator(g)
        fam = ScaledProfileFamily((0.0, 2.0 * math.pi), math.sin, build_spiky_b(g, 3, mirror=True).operator())
        self.assert_close_to_step_loop(a, fam, 2.0 * math.pi, 0.0, 4096)

    def test_streams_its_steps(self):
        a, fam = dense_problem()
        _, peak = traced_peak(lambda: oracle_solve(a, fam, 1.0, 0.0, rk_steps=4096))
        assert peak < 32 * 2**20


class TestProductDifference:
    def test_identical_factors(self):
        ms = [op2(np.eye(2) + 0.1 * np.diag([1.0, -1.0]))] * 3
        lhs, rhs = product_difference_bound(ms, ms)
        assert lhs == 0.0

    def test_single_factor_pair(self):
        lhs, rhs = product_difference_bound([op2(2.0 * np.eye(2))], [op2(np.eye(2))])
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)

    def test_random_contractions_obey_bound(self):
        rng = np.random.default_rng(9)
        for n in (2, 5, 9):
            a_fac, b_fac = [], []
            for _ in range(n):
                m = rng.standard_normal((3, 3))
                m = 0.9 * m / max(1.0, op_norm(op2(m)))
                a_fac.append(op2(m))
                b_fac.append(op2(m + 0.01 * rng.standard_normal((3, 3))))
            lhs, rhs = product_difference_bound(a_fac, b_fac)
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_mismatched_lengths_refused(self):
        with pytest.raises(DimensionMismatch):
            product_difference_bound([op2(np.eye(2))], [op2(np.eye(2))] * 2)

    def test_empty_refused(self):
        with pytest.raises(PreconditionViolated):
            product_difference_bound([], [])


class TestGeneratorDerivative:
    def test_residual_ladders_decrease(self):
        a = op2(np.diag([-1.0, -2.0]))
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, op2(0.3 * np.eye(2)))
        approx = euler_polygon(a, fam, 10)
        rows = verify_generator_derivative(approx, 0.25)
        forward = [f for _, f, _ in rows]
        adjoint = [g for _, _, g in rows]
        assert forward == sorted(forward, reverse=True)
        assert adjoint == sorted(adjoint, reverse=True)


class TestRefine:
    def test_constant_family_stops_at_level_zero(self):
        a = op2(np.diag([-1.0, -2.0]))
        fam = ConstantFamily((0.0, 1.0), op2(0.5 * np.eye(2)))
        res = refine_to_tolerance(a, fam, GrowthBound(1.0, -1.0), tol=1e-6, n_max=14)
        assert res.approx.partition.cells == 1
        assert res.achieved_delta == 0.0
        assert len(res.levels) == 1

    def test_sinusoid_meets_tolerance(self):
        a = op2(np.diag([-1.0, -2.0]))
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, op2(np.diag([0.5, 0.5])))
        res = refine_to_tolerance(a, fam, GrowthBound(1.0, -1.0), tol=1e-4, n_max=14)
        n_final = res.levels[-1][0]
        assert n_final <= 16
        assert res.achieved_delta <= 1e-4
        # halving the mesh roughly halves the increment
        deltas = [row[1] for row in res.levels if row[1] > 0]
        ratios = [b / a for a, b in zip(deltas, deltas[1:])]
        assert all(0.4 <= r <= 0.6 for r in ratios[1:])
        # every recorded increment sits under its per-level certificate
        for _, delta, _, bound in res.levels:
            assert delta <= bound * (1.0 + 1e-9)

    def test_levels_pass_stacks_not_operators(self, monkeypatch):
        # The fold and the stop rule work on (16, d, d) stacks; only full_span becomes an Operator.
        built, post_init = [], Operator.__post_init__
        a = op2(np.diag([-1.0, -2.0]))
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, op2(np.diag([0.5, 0.5])))
        monkeypatch.setattr(Operator, "__post_init__", lambda op: built.append(op) or post_init(op))
        res = refine_to_tolerance(a, fam, GrowthBound(1.0, -1.0), tol=1e-4, n_max=14)
        assert res.levels[-1][0] >= 8
        assert len(built) <= 2

    def test_budget_exhaustion_reports_progress(self):
        a = op2(np.diag([-1.0, -2.0]))
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, op2(np.diag([0.5, 0.5])))
        with pytest.raises(ToleranceNotReached) as exc:
            refine_to_tolerance(a, fam, GrowthBound(1.0, -1.0), tol=1e-14, n_max=3)
        assert exc.value.best_delta > 1e-14
        assert len(exc.value.levels) >= 2

    @pytest.mark.parametrize(
        "tol, n_max", [(0.0, 14), (-1.0, 14), (math.nan, 14), (1e-4, evofam.MAX_LEVEL + 1), (1e-4, -1), (1e-4, -3)]
    )
    def test_impossible_request_refused_before_level_zero(self, tol, n_max, monkeypatch):
        # No level can meet tol <= 0 (or NaN), and no partition goes past
        # MAX_LEVEL or below level 0: all are refused before any polygon is built.
        def refuse(*args):
            raise AssertionError("built a polygon")

        monkeypatch.setattr(evofam, "euler_polygon", refuse)
        a = op2(np.diag([-1.0, -2.0]))
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, op2(np.diag([0.5, 0.5])))
        with pytest.raises(PreconditionViolated):
            refine_to_tolerance(a, fam, GrowthBound(1.0, -1.0), tol, n_max=n_max)

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_budget_below_two_increments_is_a_numerical_failure(self, n_max):
        # A budget of 0 or 1 is valid (level 0 is exact for a family constant in
        # ||.||_A), but on any other family it shows at most one increment.
        a = op2(np.diag([-1.0, -2.0]))
        fam = ScaledProfileFamily((0.0, 1.0), np.sin, op2(np.diag([0.5, 0.5])))
        with pytest.raises(ToleranceNotReached) as exc:
            refine_to_tolerance(a, fam, GrowthBound(1.0, -1.0), tol=1e-4, n_max=n_max)
        assert [lv[0] for lv in exc.value.levels] == list(range(1, n_max + 1))

    def test_budget_exhaustion_message_reports_last_increment(self):
        # Both left nodes of level 1 sit at zeros of sin, so the level-1
        # increment is a rounding-level accident (1.7e-18); the message must
        # give the increment of the last level, not the smallest one.
        a = op2(np.diag([-1.0, -2.0]))
        fam = ScaledProfileFamily((0.0, 2.0 * math.pi), np.sin, op2(np.diag([0.5, 0.5])))
        with pytest.raises(ToleranceNotReached) as exc:
            refine_to_tolerance(a, fam, GrowthBound(1.0, 0.0), tol=1e-14, n_max=3)
        n_last, last = exc.value.levels[-1][:2]
        assert n_last == 3
        assert last == pytest.approx(6.65e-2, rel=1e-3)
        message = str(exc.value)
        assert f"last increment {last:.3e} at level 3" in message
        assert f"{exc.value.best_delta:.3e}" not in message
