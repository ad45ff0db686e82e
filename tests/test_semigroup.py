"""Exponentials, growth certificates, pair difference bound."""
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from nonauto import (
    GrowthBound,
    NormKind,
    Operator,
    Overflow,
    PreconditionViolated,
    expm,
    fit_growth_bound,
    op_norm,
    semigroup_diff_bound_check,
)
from nonauto import semigroup
from nonauto.examples import Domain, GridSpec, build_heat_generator, build_translation_generator
from nonauto.linop import BLOCK_BYTES, log_norm, norm_stack
from nonauto.metrics import ANormEvaluator
from nonauto.semigroup import BoundCheck, expm_multiples, expm_stack


def op2(entries):
    return Operator(np.asarray(entries, dtype=float), NormKind.TWO)


class TestExpm:
    def test_t_zero_is_identity(self):
        a = op2([[3.0, 1.0], [0.5, -2.0]])
        assert np.array_equal(expm(0.0 * a).entries, np.eye(2))

    def test_diagonal(self):
        e = expm(op2(np.diag([1.0, -1.0])))
        assert np.allclose(e.entries, np.diag([math.e, 1.0 / math.e]), rtol=1e-14)

    def test_nilpotent_series_terminates(self):
        e = expm(2.0 * op2([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(e.entries, [[1.0, 2.0], [0.0, 1.0]], atol=1e-14)

    def test_semigroup_law(self):
        a = op2([[0.0, 1.0], [-1.0, -0.5]])
        lhs = expm((0.7 + 0.4) * a).entries
        rhs = expm(0.7 * a).entries @ expm(0.4 * a).entries
        assert np.allclose(lhs, rhs, atol=1e-13)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_reports_required_squarings(self):
        with pytest.raises(Overflow) as exc:
            expm(op2(np.diag([800.0, 800.0])))
        assert exc.value.required_squarings >= 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_raises_typed_overflow(self, bad):
        with pytest.raises(Overflow, match="non-finite entry"):
            expm(op2([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(Overflow, match="input has a non-finite entry"):
            expm_stack(np.array([[[bad, 0.0], [0.0, 1.0]]]))

    def test_one_item_form_of_stack(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 5, 12):
            for scale in (1e-3, 0.3, 2.0, 40.0):
                a = op2(rng.standard_normal((d, d)) * scale)
                for t in (0.0, 0.25, 1.0, 3.0):
                    assert np.array_equal(expm(t * a).entries, expm_stack(t * a.entries[None])[0])

    def test_stack_matches_scipy(self):
        rng = np.random.default_rng(11)

        def with_one_norms(norms, d):
            m = rng.standard_normal((len(norms), d, d))
            return m * (np.asarray(norms) / np.abs(m).sum(axis=1).max(axis=1))[:, None, None]

        stacks = [rng.standard_normal((25, 4, 4)) * 10.0 ** rng.uniform(-6, 1, (25, 1, 1))]
        # 1-norms just either side of the Taylor thresholds theta_4, 6, 9, 12,
        # 16, plus a tiny and a heavily scaled one: one matrix per call selects
        # the degree from that norm alone, one stack of all of them mixes them.
        thetas = [theta for _, _, theta in semigroup._TAYLOR]
        norms = [1e-8, 50.0] + [theta * f for theta in thetas for f in (1.0 - 1e-6, 1.0 + 1e-6)]
        for d in (2, 4, 16, 32):
            mixed = with_one_norms(norms, d)
            stacks += [mixed] + [m[None] for m in mixed]
        # Spectral radius equal to the 1-norm: the largest truncation error.
        stacks += [sign * n * np.eye(3)[None] for n in norms for sign in (1.0, -1.0)]
        # Longer than one block, norms ascending so successive blocks take
        # every degree.
        stacks.append(with_one_norms(np.sort(10.0 ** rng.uniform(-9, 1.7, 3000)), 16))
        for stack in stacks:
            got = expm_stack(stack)
            for g, m in zip(got, stack):
                ref = scipy.linalg.expm(m)
                assert np.allclose(g, ref, rtol=1e-11, atol=1e-13 * max(1.0, np.abs(ref).max()))

    def test_stack_in_place(self):
        # Three blocks of 16 x 16, norms ascending through every Taylor degree.
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3000, 16, 16))
        m *= (np.sort(10.0 ** rng.uniform(-9, 1.7, 3000)) / np.abs(m).sum(axis=1).max(axis=1))[:, None, None]
        ref = expm_stack(m.copy())
        out = np.empty_like(m)
        assert expm_stack(m, out=out) is out
        assert np.array_equal(out, ref)
        assert expm_stack(m, out=m) is m
        assert np.array_equal(m, ref)
        with pytest.raises(PreconditionViolated):
            expm_stack(m, out=m[:-1])

    def test_stack_overflow_raises(self):
        with pytest.raises(Overflow):
            expm_stack(np.array([[[800.0, 0.0], [0.0, 800.0]]]))
        # Only the last matrix of a many-block stack overflows.
        stack = np.zeros((3000, 16, 16))
        stack[-1] = 800.0 * np.eye(16)
        with pytest.raises(Overflow):
            expm_stack(stack)

    @pytest.mark.parametrize("m, s, theta", semigroup._TAYLOR)
    def test_taylor_threshold_is_the_backward_error_bound(self, m, s, theta):
        # log(e^-x T_m(x)) = sum_k c_k x^k from exact coefficients: theta_m is
        # the largest theta with sum_k |c_k| theta^(k-1) <= 2^-53.
        n = m + 80
        f = [sum(Fraction((-1) ** (k - i), math.factorial(k - i) * math.factorial(i)) for i in range(min(k, m) + 1))
             for k in range(n + 1)]
        q = []  # (log f)' = f' / f, f_0 = 1
        for k in range(n):
            q.append((k + 1) * f[k + 1] - sum(f[i] * q[k - i] for i in range(1, k + 1)))
        c = [abs(float(q[k - 1] / k)) for k in range(1, n + 1)]
        assert c[:m] == [0.0] * m

        def excess(th):
            return sum(ck * th ** k for k, ck in enumerate(c)) - 2.0**-53

        lo, hi = 0.0, 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) <= 0.0 else (lo, mid)
        assert theta == pytest.approx(lo, rel=1e-12)
        assert m % s == 0 and m >= 2 * s

    def test_no_solve_or_inverse(self, monkeypatch):
        # Products alone: a solve per block is what the Taylor kernel saves.
        def refuse(*args, **kwargs):
            raise AssertionError("an exponential called a LAPACK solve")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        assert np.isfinite(expm_stack(every_degree_stack(16))).all()
        a = op2(np.random.default_rng(4).standard_normal((6, 6)))
        assert 20.0 * np.abs(a.entries).sum(axis=0).max() > 10.0  # scaled and squared at least four times
        assert np.isfinite(expm(20.0 * a).entries).all()


# One block's 1-norm per Taylor degree: 4, 6, 9, 12, then 16 with 0, 1 and 4
# squarings.
DEGREE_NORMS = (1e-8, 5e-3, 5e-2, 0.2, 0.6, 1.0, 10.0)


def every_degree_stack(d: int) -> np.ndarray:
    """Blocks of d x d matrices whose 1-norms walk DEGREE_NORMS, one norm per block, twice over."""
    step = max(1, BLOCK_BYTES // (8 * d * d))
    norms = np.repeat(np.tile(DEGREE_NORMS, 2), step)
    m = np.random.default_rng(d).standard_normal((len(norms), d, d))
    return m * (norms / np.abs(m).sum(axis=1).max(axis=1))[:, None, None]


class TestSquaring:
    @staticmethod
    def masked(mats: np.ndarray) -> np.ndarray:
        """Degree 16 scaled by 2^-k, squared through the mask k >= j at every step."""
        m, s, theta = semigroup._TAYLOR[-1]
        k = np.ceil(np.log2(np.maximum(norm_stack(mats, NormKind.ONE), theta) / theta)).astype(int)
        out = semigroup._taylor(mats / np.exp2(k)[:, None, None], m, s)
        for j in range(1, int(k.max()) + 1):
            sel = k >= j
            out[sel] = out[sel] @ out[sel]
        return out

    @pytest.mark.parametrize("d", [2, 4, 16, 32])
    def test_whole_block_squarings_match_the_masked_loop(self, d):
        # The last three blocks of every_degree_stack take 0, 1 and 4
        # squarings; the mixed block takes one whole squaring, then masks.
        stack = every_degree_stack(d)
        step = max(1, BLOCK_BYTES // (8 * d * d))
        blocks = [stack[i * step : (i + 1) * step] for i in (4, 5, 6)]
        blocks.append(np.concatenate([blocks[1][:2], blocks[2][:2], blocks[1][2:4]]))
        blocks.append(np.concatenate([blocks[0][:2], blocks[2][:2]]))
        for block in blocks:
            assert np.array_equal(semigroup._expm_block(block), self.masked(block))


class TestBlocks:
    def test_overflow_in_last_block_is_typed(self):
        # Only the last of 14 blocks overflows; the error is typed, also when
        # the stack is written in place.
        stack = every_degree_stack(16)
        stack[-1] = 800.0 * np.eye(16)
        with pytest.raises(Overflow):
            expm_stack(stack)
        with pytest.raises(Overflow):
            expm_stack(stack, out=stack)


def model_generator(which: str, cells: int) -> np.ndarray:
    if which == "heat":
        return build_heat_generator(GridSpec(8.0, cells, Domain.LINE)).entries
    return build_translation_generator(GridSpec(8.0, cells, Domain.HALF_LINE)).entries


def one_norm(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=0).max())


class TestExpmMultiples:
    @pytest.mark.parametrize("which", ["heat", "translation"])
    @pytest.mark.parametrize("cells", [64, 128, 192, 256])
    def test_model_generators_match_scipy(self, which, cells):
        # The examples' contraction check: t = 0.1, 1 and 5 as powers of e^{0.1A}.
        a = model_generator(which, cells)
        got = expm_multiples(a, 0.1, (1, 10, 50))
        for t, g in zip((0.1, 1.0, 5.0), got):
            assert one_norm(g - scipy.linalg.expm(t * a)) <= 1e-11

    def test_random_matrices_match_scipy(self):
        # 1-norms of step A from 1e-9 to 1e2, spectral abscissa shifted to 0.
        rng = np.random.default_rng(41)
        for norm in (1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e2):
            for d in (2, 3, 5, 8, 16):
                a = rng.standard_normal((d, d))
                a -= np.linalg.eigvals(a).real.max() * np.eye(d)
                step = norm / one_norm(a)
                counts = (0, 1, 2, 5, 10)
                for n, g in zip(counts, expm_multiples(a, step, counts)):
                    ref = scipy.linalg.expm(n * step * a)
                    assert one_norm(g - ref) <= 1e-11 * max(1.0, one_norm(ref)), (norm, d, n)

    def test_count_zero_is_identity(self):
        got = expm_multiples(np.array([[3.0, 1.0], [0.5, -2.0]]), 0.3, [0, 2, 0])
        assert np.array_equal(got[0], np.eye(2)) and np.array_equal(got[2], np.eye(2))
        assert expm_multiples(np.eye(3), 1.0, np.arange(0)).shape == (0, 3, 3)

    def test_alone_equals_batch(self):
        a = model_generator("heat", 64)
        counts = np.array([50, 1, 10, 0, 3, 7, 50, 21])
        batch = expm_multiples(a, 0.1, counts)
        for n, got in zip(counts, batch):
            assert np.array_equal(expm_multiples(a, 0.1, [n])[0], got)

    @pytest.mark.parametrize("which", ["heat", "translation"])
    def test_contractions_stay_contractions(self, which):
        got = expm_multiples(model_generator(which, 256), 0.1, (1, 2, 3, 10, 31, 50))
        assert norm_stack(got, NormKind.ONE).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("a, step", [(np.array([[np.nan]]), 1.0), (np.eye(2), np.nan), (np.diag([10.0, -1.0]), 1.0)])
    def test_non_finite_raises_overflow(self, a, step):
        # The last case has a finite e^{10}, but e^{1000} overflows.
        with pytest.raises(Overflow):
            expm_multiples(a, step, [1, 100])

    @pytest.mark.parametrize("counts", [[-1], [1.5], [1.0, 2.0], [[1, 2]], [True]])
    def test_counts_must_be_nonnegative_integers(self, counts):
        with pytest.raises(PreconditionViolated):
            expm_multiples(np.eye(2), 0.1, counts)


def fit_rounding(a: np.ndarray, gb: GrowthBound, ts: np.ndarray) -> np.ndarray:
    """First-order relative rounding allowance of the certificate gb against scipy's e^{t(A - omega0 I)} at times ts.

    One sampled norm of the fit takes at most 6 products for expm_stack's
    Taylor polynomial, its squarings at the step's 1-norm, and a squaring and a
    combine per bit of FIT_POINTS - 1 in expm_multiples; the reference takes at
    most 6 products for its Pade approximant and no more squarings than
    expm_stack would at t. Each product of d x d matrices moves a norm by at
    most d u relative, u the unit roundoff. The certificate at t leans on the
    sample at FIT_HORIZON once per whole period in t and on one sample below it.
    """
    u, d = np.finfo(float).eps / 2.0, len(a)
    h = semigroup.FIT_HORIZON / (semigroup.FIT_POINTS - 1)
    squarings = semigroup._squarings(one_norm(a - gb.omega0 * np.eye(d)) * np.append(ts, h))
    products = 12 + squarings[:-1] + squarings[-1] + 2 * (semigroup.FIT_POINTS - 1).bit_length()
    return (ts // semigroup.FIT_HORIZON + 2.0) * products * d * u


class TestFitGrowthBound:
    def test_normal_diagonal_margin_zero(self, monkeypatch):
        monkeypatch.setattr(semigroup, "FIT_MARGIN", 0.0)
        gb = fit_growth_bound(op2(np.diag([-1.0, -2.0])))
        assert gb.omega0 == pytest.approx(-1.0, abs=1e-12)
        assert 1.0 <= gb.m <= 1.0 + 1e-5

    def test_zero_generator(self, monkeypatch):
        monkeypatch.setattr(semigroup, "FIT_MARGIN", 0.0)
        gb = fit_growth_bound(op2(np.zeros((2, 2))))
        assert gb.omega0 == pytest.approx(0.0, abs=1e-12)
        assert 1.0 <= gb.m <= 1.0 + 1e-5

    def test_transient_growth_needs_m_above_two(self, monkeypatch):
        monkeypatch.setattr(semigroup, "FIT_MARGIN", 0.1)
        gb = fit_growth_bound(op2([[-1.0, 10.0], [0.0, -1.0]]))
        assert gb.m > 2.0

    def test_envelope_holds_on_fresh_grid(self):
        # The fit grid ends at FIT_HORIZON = 5; the certificate holds past it.
        a = op2([[-1.0, 4.0], [0.0, -2.0]])
        gb = fit_growth_bound(a)
        for t in np.linspace(0.0, 20.0, 83):
            assert op_norm(expm(float(t) * a)) <= gb.envelope(float(t)) * (1.0 + 1e-9)

    @pytest.mark.parametrize("kind", [NormKind.ONE, NormKind.TWO])
    def test_certificate_holds_for_all_t(self, kind):
        # Against scipy's e^{t(A - omega0 I)} out to t = 1000, 200 fit horizons.
        # An M read off [0, 5] alone fails here by x7.4 ([[0, 1], [0, 0]]), x197
        # (the Jordan block), x7.7 ([[-1, 10], [0, -1]]) and more for the 6 x 6
        # upper triangles (strictly upper 5 N(0, 1), diagonal in [-1, -0.1]).
        rng = np.random.default_rng(19)
        cases = [[[0.0, 1.0], [0.0, 0.0]], np.diag([-0.1] * 3) + np.eye(3, k=1), [[-1.0, 10.0], [0.0, -1.0]],
                 [[-1.0, 4.0], [0.0, -2.0]]]
        cases += [np.triu(5.0 * rng.standard_normal((6, 6)), 1) + np.diag(rng.uniform(-1.0, -0.1, 6)) for _ in range(3)]
        # Here e^{-omega0 t} on its own overflows doubles (omega0 near -200).
        cases.append([[-200.0, 1e4], [0.0, -200.0]])
        ts = np.concatenate([np.linspace(0.0, 10.0, 401), np.geomspace(10.0, 1000.0, 100)])
        for entries in cases:
            a = np.asarray(entries, dtype=float)
            gb = fit_growth_bound(Operator(a, kind))
            got = norm_stack(scipy.linalg.expm(ts[:, None, None] * (a - gb.omega0 * np.eye(len(a)))), kind)
            assert (got <= gb.m * (1.0 + fit_rounding(a, gb, ts))).all(), (entries, gb, ts[np.argmax(got)])

    @pytest.mark.parametrize("kind", [NormKind.ONE, NormKind.TWO])
    @pytest.mark.parametrize("entries", [[[-200.0, 1e6], [0.0, -200.0]], [[-1.0, 1e200], [0.0, -1.0]]])
    def test_overflowing_fit_takes_lumer_phillips(self, entries, kind):
        # The fit's between-node factor e^{(mu - omega0) h} overflows doubles here.
        a = Operator(np.array(entries), kind)
        assert fit_growth_bound(a) == GrowthBound(1.0, log_norm(a.entries, kind))

    @pytest.mark.parametrize("kind", [NormKind.ONE, NormKind.INF])
    def test_translation_generator_takes_lumer_phillips(self, kind):
        # The spectral fit of this Jordan-like generator gave M = 2.2e17, and the
        # A-norm grid at that certificate refused 75 of its 221 mu points. Its
        # 1- and inf-norm logarithmic norms are 0, so (1, 0) holds for all t.
        a = build_translation_generator(GridSpec(8.0, 64, Domain.HALF_LINE))
        gb = fit_growth_bound(Operator(a.entries, kind))
        assert (gb.m, gb.omega0) == (1.0, 0.0)
        assert ANormEvaluator(Operator(a.entries, kind), gb).skipped == 0

    def test_smaller_sup_wins(self):
        # diag(-1, 1): mu_2 = 1 beats the fit's omega0 = 1.01 over [0, 5].
        gb = fit_growth_bound(op2(np.diag([-1.0, 1.0])))
        assert (gb.m, gb.omega0) == (1.0, 1.0)
        # Non-normal: mu_2 = 4 and 0.56, far above the spectral abscissae -1 and -1.
        for entries in ([[-1.0, 10.0], [0.0, -1.0]], [[-1.0, 4.0], [0.0, -2.0]]):
            a = op2(entries)
            assert fit_growth_bound(a) == semigroup._spectral_fit(a)

    def test_m_below_one_refused(self):
        with pytest.raises(PreconditionViolated):
            GrowthBound(m=0.5, omega0=0.0)

    @pytest.mark.parametrize("m, omega0", [(math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_certificate_refused(self, m, omega0):
        # m = inf would make every ||C||_A read 0, and omega0 = nan a mu-grid
        # that no resolvent solves.
        with pytest.raises(PreconditionViolated):
            GrowthBound(m=m, omega0=omega0)


class TestDiffBoundCheck:
    def test_equal_pair(self):
        g = op2(np.diag([-1.0, -2.0]))
        check = semigroup_diff_bound_check(g, g, m=1.0, omega=0.0, delta=0.0)
        assert check.passed and check.max_ratio == 0.0

    def test_scalar_pair_at_omega_zero(self):
        # both are contractions, so (M, omega) = (1, 0) certifies them and
        # the bound t e^{0} delta = 0.5 t dominates e^{-t} - e^{-1.5t}
        check = semigroup_diff_bound_check(op2([[-1.0]]), op2([[-1.5]]), m=1.0, omega=0.0, delta=0.5)
        assert check.passed

    def test_negative_omega_refused(self):
        # With omega < 0 the e^{4 omega t} factor decays faster than the true
        # difference of the semigroups, so the stated bound is false as
        # written (scalar pair -1, -1.5 violates it at t = 2) and the
        # certificate must be relaxed to omega = 0 by the caller.
        with pytest.raises(PreconditionViolated):
            semigroup_diff_bound_check(op2([[-1.0]]), op2([[-1.5]]), m=1.0, omega=-1.0, delta=0.5)

    def test_wrong_certificate_refused(self):
        g = op2(np.diag([2.0, 1.0]))
        with pytest.raises(PreconditionViolated):
            semigroup_diff_bound_check(g, g, m=1.0, omega=0.0, delta=0.0)

    def test_random_stable_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            g = m - (np.max(np.linalg.eigvalsh((m + m.T) / 2.0)) + 0.2) * np.eye(3)
            h = g + 0.01 * rng.standard_normal((3, 3))
            omega = float(max(0.0, np.max(np.linalg.eigvalsh((g + g.T) / 2.0)), np.max(np.linalg.eigvalsh((h + h.T) / 2.0))))
            delta = op_norm(op2(h - g))
            check = semigroup_diff_bound_check(op2(g), op2(h), m=1.0, omega=omega, delta=delta)
            assert check.passed, f"ratio {check.max_ratio} at t={check.worst_t}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega", [100.0, 400.0])
    def test_large_omega_is_in_range(self, omega):
        # e^{4 omega t} overflows doubles at t = 2 from omega = 88.7 on; the check
        # reads the certificate as ||e^{t(G - omega I)}|| <= M, so nothing does.
        g, h = op2(np.diag([-1.0, -2.0])), op2(np.diag([-1.01, -2.0]))
        check = semigroup_diff_bound_check(g, h, 1.0, omega, 0.01)
        assert isinstance(check, BoundCheck) and check.passed
