"""Operators, induced norms, resolvents, spectra, and the matrix file format."""
import re
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nonauto.acceptance
from nonauto import linop
from nonauto import (
    CallableFamily,
    Constant,
    DimensionMismatch,
    NormKind,
    NormKindMismatch,
    Operator,
    SingularResolvent,
    TabulatedFamily,
    family_from_spec,
    identity,
    op_norm,
    read_matrix,
    resolvent,
    spectrum,
    write_matrix,
)
from nonauto.examples import Domain, GridSpec, build_heat_generator, build_translation_generator
from nonauto.linop import (
    COND_LIMIT,
    BandResolvent,
    bandwidths,
    log_norm,
    norm_of,
    norm_stack,
    resolvent_stack,
    shifted_band,
)
from nonauto.metrics import ANormEvaluator, MuGrid
from nonauto.semigroup import GrowthBound

from oracles import FormedBandResolvent, lu_resolvent


def op2(entries):
    return Operator(np.asarray(entries, dtype=float), NormKind.TWO)


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            Operator(np.zeros((2, 3)), NormKind.TWO)

    def test_entries_are_immutable(self):
        a = op2([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0

    def test_mixed_norm_arithmetic_refused(self):
        a = Operator(np.eye(2), NormKind.ONE)
        b = Operator(np.eye(2), NormKind.TWO)
        with pytest.raises(NormKindMismatch):
            a + b

    def test_mixed_dim_arithmetic_refused(self):
        with pytest.raises(DimensionMismatch):
            op2(np.eye(2)) + op2(np.eye(3))

    def test_identity_matches_kind(self):
        e = identity(3, NormKind.INF)
        assert e.norm_kind is NormKind.INF
        assert np.array_equal(e.entries, np.eye(3))

    def test_norm_kind_parse(self):
        assert NormKind.parse("inf") is NormKind.INF
        with pytest.raises(ValueError):
            NormKind.parse("fro")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Operator(np.eye(2)),
        lambda: identity(2),
        lambda: read_matrix("a.txt"),
        lambda: family_from_spec({"kind": "constant", "interval": [0.0, 1.0], "entries": [[1.0]]}),
        lambda: TabulatedFamily("family.csv"),
        lambda: CallableFamily((0.0, 1.0), lambda t: np.eye(2), dim=2),
        lambda: Constant(),
    ],
    ids=["Operator", "identity", "read_matrix", "family_from_spec", "TabulatedFamily", "CallableFamily", "Constant"],
)
def test_norm_kind_and_value_have_no_default(build):
    # A bound certified in one norm says nothing in another, so no constructor picks one.
    with pytest.raises(TypeError, match="missing 1 required positional argument"):
        build()


class TestNorms:
    def test_zero_matrix(self):
        assert op_norm(Operator(np.zeros((3, 3)), NormKind.TWO)) == 0.0

    def test_diagonal_two_norm(self):
        assert op_norm(op2(np.diag([3.0, -1.0]))) == pytest.approx(3.0, rel=1e-12)

    def test_column_sum_one_norm(self):
        a = Operator([[1.0, 1.0], [0.0, 1.0]], NormKind.ONE)
        assert op_norm(a) == 2.0

    def test_row_sum_inf_norm(self):
        a = Operator([[1.0, 1.0], [0.0, 1.0]], NormKind.INF)
        assert op_norm(a) == 2.0

    def test_two_norm_matches_svd_at_extreme_scales(self):
        rng = np.random.default_rng(3)
        for scale in (1e-200, 1e-8, 1.0, 1e8, 1e200):
            m = rng.standard_normal((4, 4)) * scale
            ref = np.linalg.svd(m, compute_uv=False)[0]
            assert norm_of(m, NormKind.TWO) == pytest.approx(ref, rel=1e-10)

    def test_two_norm_rank_one_off_axis_start(self):
        # The all-ones start is orthogonal to nothing here, but the dominant
        # direction sits on a single coordinate; the certificate must hold.
        m = np.zeros((3, 3))
        m[2, 2] = 7.0
        assert norm_of(m, NormKind.TWO) == pytest.approx(7.0, rel=1e-12)

    def test_non_finite_norm_is_inf(self):
        m = np.array([[np.inf, 0.0], [0.0, 1.0]])
        assert norm_of(m, NormKind.TWO) == np.inf

    @pytest.mark.parametrize(
        "kind, order", [(NormKind.ONE, 1), (NormKind.TWO, 2), (NormKind.INF, np.inf)], ids=["1", "2", "inf"]
    )
    def test_norm_stack_matches_numpy(self, kind, order):
        # Scales 1e-12 to 1e12; item 3 holds an inf entry and item 7 is zero.
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((31, 3, 3)) * 10.0 ** rng.uniform(-12, 12, (31, 1, 1))
        stack[3, 1, 2] = np.inf
        stack[7] = 0.0
        got = norm_stack(stack, kind)
        assert got.shape == (31,)
        assert got[3] == np.inf
        assert got[7] == 0.0
        finite = [i for i in range(31) if i != 3]
        want = [np.linalg.norm(stack[i], order) for i in finite]
        assert got[finite] == pytest.approx(want, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        m=arrays(np.float64, (3, 3), elements=st.floats(-10, 10)),
        p=arrays(np.float64, (3, 3), elements=st.floats(-10, 10)),
        kind=st.sampled_from([NormKind.ONE, NormKind.TWO, NormKind.INF]),
    )
    def test_submultiplicative_and_triangle(self, m, p, kind):
        a, b = Operator(m, kind), Operator(p, kind)
        tol = 1e-9 * (1.0 + op_norm(a) * op_norm(b))
        assert op_norm(Operator(m @ p, kind)) <= op_norm(a) * op_norm(b) + tol
        assert op_norm(a + b) <= op_norm(a) + op_norm(b) + tol


KINDS = [NormKind.ONE, NormKind.TWO, NormKind.INF]


class TestLogNorm:
    @pytest.mark.parametrize("kind", KINDS, ids=["1", "2", "inf"])
    def test_is_the_one_sided_derivative_of_the_norm(self, kind):
        # mu(A) = lim_{h -> 0+} (||I + hA|| - 1) / h: exact for the 1- and inf-norms
        # once 1 + h a_jj > 0, O(h ||A||^2) off for the 2-norm; the quotient's
        # own rounding is about d u / h.
        rng = np.random.default_rng(41)
        h = 1e-7
        for _ in range(40):
            d = int(rng.integers(2, 9))
            a = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-1, 1)
            quotient = (norm_of(np.eye(d) + h * a, kind) - 1.0) / h
            assert log_norm(a, kind) == pytest.approx(quotient, abs=h * norm_of(a, kind) ** 2 + 1e-14 / h)

    @pytest.mark.parametrize("kind", KINDS, ids=["1", "2", "inf"])
    def test_bounds_the_semigroup(self, kind):
        import scipy.linalg

        rng = np.random.default_rng(43)
        for _ in range(40):
            d = int(rng.integers(2, 9))
            a = rng.standard_normal((d, d))
            mu = log_norm(a, kind)
            for t in (0.1, 1.0, 5.0):
                assert norm_of(scipy.linalg.expm(t * a), kind) <= np.exp(mu * t) * (1.0 + 1e-12)

    def test_metzler_takes_its_largest_column_sum(self):
        # Integer entries: every sum is exact, so the two agree to the bit.
        rng = np.random.default_rng(47)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            a = rng.integers(0, 5, (d, d)).astype(float)
            np.fill_diagonal(a, rng.integers(-20, 1, d))
            assert log_norm(a, NormKind.ONE) == a.sum(axis=0).max()
            assert log_norm(a, NormKind.INF) == a.sum(axis=1).max()
        for gen in (build_translation_generator(GridSpec(8.0, 64, Domain.HALF_LINE)),
                    build_heat_generator(GridSpec(8.0, 64, Domain.LINE))):
            assert log_norm(gen.entries, NormKind.ONE) == gen.entries.sum(axis=0).max() == 0.0

    def test_two_norm_is_the_symmetric_part_top_eigenvalue(self):
        a = np.array([[-1.0, 10.0], [0.0, -1.0]])
        assert log_norm(a, NormKind.TWO) == pytest.approx(4.0, rel=1e-15)

    @pytest.mark.parametrize("kind", KINDS, ids=["1", "2", "inf"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_reads_nan(self, kind, bad):
        # No certificate covers such an A: eigvalsh read [[nan, 0], [0, 1]] as -0.0,
        # and the 1- and inf-norm forms took inf - inf.
        for i, j in ((0, 0), (0, 1)):
            a = np.array([[-1.0, 0.5], [0.0, 1.0]])
            a[i, j] = bad
            assert np.isnan(log_norm(a, kind))


class TestResolvent:
    def test_zero_generator(self):
        r = resolvent(op2(np.zeros((2, 2))), 2.0)
        assert np.allclose(r.entries, 0.5 * np.eye(2), atol=1e-14)

    def test_diagonal(self):
        r = resolvent(op2(np.diag([-1.0, -2.0])), 1.0)
        assert np.allclose(r.entries, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_nilpotent(self):
        r = resolvent(op2([[0.0, 1.0], [0.0, 0.0]]), 1.0)
        assert np.allclose(r.entries, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_exactly_singular(self):
        with pytest.raises(SingularResolvent):
            resolvent(op2(np.diag([2.0, 0.0])), 2.0)

    def test_near_singular_condition_refused(self):
        with pytest.raises(SingularResolvent):
            resolvent(op2(np.diag([2.0 + 1e-15, 0.0])), 2.0)

    def test_resolvent_identity(self):
        # R(mu) - R(nu) = (nu - mu) R(mu) R(nu)
        a = op2([[0.0, 1.0], [-2.0, -3.0]])
        mu, nu = 1.5, 4.0
        rmu, rnu = resolvent(a, mu).entries, resolvent(a, nu).entries
        assert np.allclose(rmu - rnu, (nu - mu) * rmu @ rnu, atol=1e-12)


class TestResolventStack:
    @pytest.mark.parametrize("which", ["heat", "translation"])
    def test_matches_lu_reference_on_default_grid(self, which):
        # The batched inverse against one LU solve per mu: the same
        # resolvents to the bit, and the same points refused, except where
        # the exact kappa crosses COND_LIMIT and the (smaller) estimate did not.
        if which == "heat":
            a = build_heat_generator(GridSpec(8.0, 64, Domain.LINE)).entries
        else:
            a = build_translation_generator(GridSpec(8.0, 64, Domain.HALF_LINE)).entries
        mus = MuGrid().offsets()
        r, kept = resolvent_stack(a, mus, skip=True)
        want = [lu_resolvent(a, mu) for mu in mus]
        for i in np.flatnonzero(kept != [ref is not None for ref, _ in want]):
            assert not kept[i]
            ref = want[i][0]
            exact = norm_of(mus[i] * np.eye(64) - a, NormKind.ONE) * norm_of(ref, NormKind.ONE)
            assert want[i][1] <= COND_LIMIT < exact
        assert np.array_equal(r, np.stack([ref for ref, _ in want])[kept])

    def test_stack_against_one_mu_matches_one_item_calls(self):
        rng = np.random.default_rng(5)
        ms = rng.standard_normal((7, 4, 4))
        r, kept = resolvent_stack(ms, 6.0)
        assert kept.all()
        for m, got in zip(ms, r):
            assert np.array_equal(got, resolvent(op2(m), 6.0).entries)

    def test_one_singular_item_leaves_its_block(self):
        # mu = 2 is an eigenvalue of A: only that item is refused, and the
        # others equal the one-item calls to the bit.
        a = op2(np.diag([2.0, -1.0, 0.5]))
        mus = np.array([1.0, 1.5, 2.0, 3.0, 10.0])
        r, kept = resolvent_stack(a.entries, mus, skip=True)
        assert kept.tolist() == [True, True, False, True, True]
        for mu, got in zip(mus[kept], r):
            assert np.array_equal(got, resolvent(a, mu).entries)
        with pytest.raises(SingularResolvent, match="exactly singular or not finite at mu=2.0"):
            resolvent_stack(a.entries, mus)

    def test_empty_grid(self):
        r, kept = resolvent_stack(np.eye(3), np.zeros(0))
        assert r.shape == (0, 3, 3) and kept.shape == (0,)


class TestNonFiniteMu:
    # Refused with SingularResolvent before any arithmetic: the suite turns a
    # RuntimeWarning from inf * 0 into an error.
    @pytest.mark.parametrize("mu", [np.inf, -np.inf, np.nan])
    def test_band_mode_refuses(self, mu):
        op = build_heat_generator(GridSpec(8.0, 64, Domain.LINE))
        assert isinstance(linop.resolvents(op.entries, [1.0]), BandResolvent)
        with pytest.raises(SingularResolvent, match=re.escape(f"exactly singular or not finite at mu={mu!r}")):
            resolvent(op, mu)
        band = BandResolvent(op.entries, [1.0, mu, 2.0], skip=True)
        assert band.kept.tolist() == [True, False, True]
        assert np.array_equal(band.resolvent(1), resolvent(op, 2.0).entries)

    @pytest.mark.parametrize("mu", [np.inf, -np.inf, np.nan])
    def test_dense_mode_refuses(self, mu):
        a = np.array([[-1.0, 0.5], [0.0, -2.0]])
        r, kept = resolvent_stack(a, [1.0, mu], skip=True)
        assert kept.tolist() == [True, False] and np.array_equal(r, resolvent_stack(a, 1.0)[0])
        with pytest.raises(SingularResolvent, match=re.escape(f"exactly singular or not finite at mu={mu!r}")):
            resolvent_stack(a, [1.0, mu])
        assert resolvent_stack(np.stack([a, 2.0 * a]), mu, skip=True)[1].tolist() == [False, False]


class TestNonFiniteGenerator:
    # A non-finite entry of A is refused before any arithmetic, as a non-finite mu is: an
    # infinite one raised a RuntimeWarning from inf * 0, and the suite makes that an error.
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_band_mode_refuses_every_mu(self, bad):
        a = build_heat_generator(GridSpec(8.0, 64, Domain.LINE)).entries.copy()
        a[5, 6] = bad
        band = linop.resolvents(a, [1.0, 2.0], skip=True)
        assert isinstance(band, BandResolvent)
        assert band.kept.tolist() == [False, False] and len(band.nonneg) == 0
        with pytest.raises(SingularResolvent, match=re.escape("exactly singular or not finite at mu=1.0")):
            resolvent(Operator(a, NormKind.ONE), 1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_dense_mode_refuses_the_item(self, bad):
        a = np.array([[-1.0, 0.5], [0.0, bad]])
        r, kept = resolvent_stack(a, [1.0, 2.0], skip=True)
        assert kept.tolist() == [False, False] and r.shape == (0, 2, 2)
        with pytest.raises(SingularResolvent, match=re.escape("exactly singular or not finite at mu=1.0")):
            resolvent_stack(a, [1.0, 2.0])
        # In a stack against one mu only that item is refused.
        good = np.array([[-1.0, 0.5], [0.0, -2.0]])
        r, kept = resolvent_stack(np.stack([good, a, 2.0 * good]), 1.0, skip=True)
        assert kept.tolist() == [True, False, True]
        assert np.array_equal(r, np.stack([resolvent_stack(m, 1.0)[0][0] for m in (good, 2.0 * good)]))
        with pytest.raises(SingularResolvent, match="221 of 221 mu-grid points unsolvable"):
            ANormEvaluator(Operator(a, NormKind.TWO), GrowthBound(1.0, 0.0))


def record_band_calls(patch) -> list:
    """Patch linop._band_lapack to log ("gbtrf", columns), ("gbtrs", rhs shape), ("gtsv", rhs shape) or ("gbsv", rhs shape) per call."""
    calls, (dgbtrf, dgbtrs, dgtsv, dgbsv) = [], linop._band_lapack()

    def factored(ab, kl, ku):
        calls.append(("gbtrf", ab.shape[1]))
        return dgbtrf(ab, kl, ku)

    def solved(lu, kl, ku, rhs, piv, trans=0):
        calls.append(("gbtrs", rhs.shape))
        return dgbtrs(lu, kl, ku, rhs, piv, trans=trans)

    def tridiagonal(dl, d, du, rhs):
        calls.append(("gtsv", rhs.shape))
        return dgtsv(dl, d, du, rhs)

    def banded(kl, ku, ab, rhs, overwrite_ab=0):
        calls.append(("gbsv", rhs.shape))
        return dgbsv(kl, ku, ab, rhs, overwrite_ab=overwrite_ab)

    patch.setattr(linop, "_band_lapack", lambda: (factored, solved, tridiagonal, banded))
    return calls


def record_gbtrs_callers(patch) -> list:
    """Patch linop._band_lapack to log the code object of the function that makes each gbtrs call."""
    callers, (dgbtrf, dgbtrs, *sweep) = [], linop._band_lapack()

    def solved(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return dgbtrs(*args, **kwargs)

    patch.setattr(linop, "_band_lapack", lambda: (dgbtrf, solved, *sweep))
    return callers


def random_sign_tridiagonal(d: int) -> np.ndarray:
    """A tridiagonal A with random-sign off-diagonals: mu I - A leaves the M-matrix sign pattern, so no mu certifies."""
    rng = np.random.default_rng(3)
    a = np.diag(-rng.uniform(1.0, 3.0, d))
    for k in (-1, 1):
        a += np.diag(rng.uniform(0.0, 1.0, d - 1) * rng.choice([-1.0, 1.0], d - 1), k)
    return a


def assert_same_factors(band: BandResolvent, ref: FormedBandResolvent) -> None:
    """Each kept mu's block of band's stacked factors equals the reference's one-mu gbtrf call (pivots from its first row)."""
    assert band._lu.shape[1] == band._piv.size == len(ref._factors) * band._d
    for i, (ref_lu, ref_piv) in enumerate(ref._factors):
        block = slice(i * band._d, (i + 1) * band._d)
        assert np.array_equal(band._lu[:, block], ref_lu) and np.array_equal(band._piv[block], ref_piv)


def assert_band_resolvent_matches_dense(a: np.ndarray, mus) -> None:
    """linop.resolvent in band mode against resolvent_stack at each mu.

    The same mus are kept, a refused mu raises SingularResolvent for the same
    reason, limit and mu (a kappa_1 above COND_LIMIT may print other digits),
    and a kept R agrees to 2 d ulps times kappa_1 relative to ||R||_1.
    """
    d, op = a.shape[0], Operator(a, NormKind.ONE)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linop, "_BAND_MIN_DIM", 0)
        mp.setattr(linop, "_BAND_DIM_PER_DIAGONAL", 0)
        assert isinstance(linop.resolvents(a, mus, skip=True), BandResolvent)
        for mu in mus:
            try:
                want = resolvent_stack(a, mu)[0][0]
            except SingularResolvent as refused:
                # The same reason at the same mu. A kappa_1 above COND_LIMIT is read off an R
                # that inaccurate, so dense and band LU may print different digits of it
                # (4.044e+16 against 5.740e+16 at seed=1702, kl=3, ku=0, d=45, metzler).
                with pytest.raises(SingularResolvent) as got:
                    resolvent(op, mu)
                reason = lambda exc: re.sub(r"condition number \S+", "condition number K", str(exc))  # noqa: E731
                assert reason(got.value) == reason(refused)
                continue
            got = resolvent(op, mu).entries
            r_norm = norm_of(want, NormKind.ONE)
            kappa = norm_of(mu * np.eye(d) - a, NormKind.ONE) * r_norm
            assert norm_of(got - want, NormKind.ONE) <= 2.0 * d * np.finfo(float).eps * kappa * r_norm


class TestBandResolvent:
    def test_shifted_band_holds_the_dense_entries(self):
        rng = np.random.default_rng(8)
        diagonals = {-2: rng.standard_normal(7), 0: rng.standard_normal(9), 1: rng.standard_normal(8)}
        g = sum(np.diag(v, k) for k, v in diagonals.items())
        (kl, ku), ab = shifted_band(diagonals, 1.7, 9)
        assert (kl, ku) == bandwidths(g) == (2, 1)
        dense = np.zeros((9, 9))
        for i, j in np.ndindex(9, 9):
            if -kl <= j - i <= ku:
                dense[i, j] = ab[ku + i - j, j]
        assert np.array_equal(dense, 1.7 * np.eye(9) - g)

    def test_shifted_band_stacks_one_block_per_mu(self):
        # k mus give the block-diagonal matrix of the k shifts: the entries coupling two blocks are zero.
        rng = np.random.default_rng(9)
        diagonals = {-1: rng.standard_normal(6), 0: rng.standard_normal(7), 2: rng.standard_normal(5)}
        g = sum(np.diag(v, k) for k, v in diagonals.items())
        mus = [1.7, -0.5, 3.0]
        (kl, ku), ab = shifted_band(diagonals, mus, 7)
        assert (kl, ku) == (1, 2) and ab.shape == (4, 21)
        dense = np.zeros((21, 21))
        for i, j in np.ndindex(21, 21):
            if -kl <= j - i <= ku:
                dense[i, j] = ab[ku + i - j, j]
        want = np.zeros((21, 21))
        for b, mu in enumerate(mus):
            want[7 * b : 7 * b + 7, 7 * b : 7 * b + 7] = mu * np.eye(7) - g
        assert np.array_equal(dense, want)
        for b, mu in enumerate(mus):
            assert np.array_equal(ab[:, 7 * b : 7 * b + 7], shifted_band(diagonals, mu, 7)[1])

    def test_stacked_factors_repeat_a_block_whose_pivot_overflows(self):
        # mu = 5e-324 leaves the last pivot of its block subnormal: its reciprocal overflows,
        # and 0 * inf would write NaN into the coupling entry below. That block is factored
        # again alone, so every block's factors are its one-block gbtrf call's.
        d = 8
        diagonals = {-1: np.full(d - 1, 0.5), 0: np.append(-np.linspace(1.0, 2.0, d - 1), 0.0)}
        mus = np.array([1.0, 5e-324, 2.0, 3.0])
        ab = shifted_band(diagonals, mus, d)[1]
        lu, piv = linop._factor_blocks(ab, 1, 0, d)
        assert np.isfinite(lu).all()
        dgbtrf = linop._band_lapack()[0]
        for b, mu in enumerate(mus):
            ref_lu, ref_piv, _ = dgbtrf(np.concatenate([np.zeros((1, d)), shifted_band(diagonals, mu, d)[1]]), 1, 0)
            assert np.array_equal(lu[:, b * d : (b + 1) * d], ref_lu) and np.array_equal(piv[b * d : (b + 1) * d], ref_piv)

    def test_bandwidths_match_the_nonzero_definition(self):
        # The row scan against the definition: the largest i - j and j - i over nonzero entries (NaN counts).
        def defined(m):
            i, j = np.nonzero(m)
            return int((i - j).max(initial=0)), int((j - i).max(initial=0))

        rng = np.random.default_rng(11)
        cases = [np.zeros((5, 5)), np.zeros((1, 1)), np.diag([0.0, np.nan, 0.0]), np.full((3, 3), np.nan)]
        for _ in range(200):
            d = int(rng.integers(1, 12))
            m = rng.standard_normal((d, d)) * (rng.random((d, d)) < rng.random())
            m[rng.random(d) < 0.3] = 0.0
            m[rng.random((d, d)) < 0.05] = np.nan
            cases.append(m)
        for m in cases:
            assert bandwidths(m) == defined(m)

    def test_refuses_what_resolvent_stack_refuses(self):
        # mu = 2 is an eigenvalue, and 3 + 1e-15 puts kappa_1 above COND_LIMIT.
        a = np.diag([2.0, -1.0, 3.0 + 1e-15]) + np.diag([0.5, 0.0], -1)
        mus = np.array([1.0, 1.5, 2.0, 3.0, 10.0])
        band = BandResolvent(a, mus, skip=True)
        assert band.kept.tolist() == resolvent_stack(a, mus, skip=True)[1].tolist() == [True, True, False, False, True]
        with pytest.raises(SingularResolvent, match="exactly singular or not finite at mu=2.0"):
            BandResolvent(a, mus, skip=False)
        with pytest.raises(SingularResolvent, match="condition number .* at mu=3.0"):
            BandResolvent(a, mus[3:], skip=False)
        assert_band_resolvent_matches_dense(a, mus)

    @staticmethod
    def certified_build(a, mus):
        """BandResolvent(a, mus, skip=True) and what linop._certified decided at each mu it was asked about."""
        certified, decide = [], linop._certified

        def record(*args):
            ok = decide(*args)
            certified.extend(ok.tolist())
            return ok

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linop, "_certified", record)
            return BandResolvent(a, mus, skip=True), certified

    @pytest.mark.parametrize(
        "kappa, certified_want, kept_want",
        [(0.5 * COND_LIMIT, True, True), (COND_LIMIT * (1.0 - 1e-7), False, True), (COND_LIMIT * (1.0 + 1e-7), False, False)],
    )
    def test_condition_margin_forms_r(self, kappa, certified_want, kept_want):
        # mu I - A = diag(1, 1 / kappa): kappa_1 is kappa up to rounding. Within
        # 1e-6 of COND_LIMIT the certificate leaves the decision to the formed R.
        a, mus = np.diag([-1.0, -1.0 / kappa]), np.zeros(1)
        band, certified = self.certified_build(a, mus)
        assert certified == [certified_want]
        assert band.kept.tolist() == FormedBandResolvent(a, mus, skip=True).kept.tolist() == [kept_want]

    def test_uncertified_resolvent_solves_the_identity_twice(self, monkeypatch):
        # Random-sign off-diagonals leave the M-matrix sign pattern, so mu = 5 is
        # judged from a formed R; resolvent keeps only the factors and solves again,
        # to the same bits.
        d = 128
        a = random_sign_tridiagonal(d)
        assert isinstance(linop.resolvents(a, [5.0]), BandResolvent)
        dgbtrf, dgbtrs, *sweep = linop._band_lapack()
        solved = []

        def counted(lu, kl, ku, rhs, piv, trans=0):
            solved.append(dgbtrs(lu, kl, ku, rhs, piv, trans=trans))
            return solved[-1]

        with monkeypatch.context() as patch:
            patch.setattr(linop, "_band_lapack", lambda: (dgbtrf, counted, *sweep))
            r = resolvent(op2(a), 5.0).entries
        assert [x.shape[1] for x, _ in solved] == [d, d]
        assert np.array_equal(solved[0][0], r)
        assert np.array_equal(r, BandResolvent(a, [5.0, 6.0], skip=False).resolvent(0))

    @pytest.mark.parametrize("path", ["uncertified-build", "resolvent", "criterion-11"])
    def test_every_gbtrs_call_is_a_stacked_solve(self, path, monkeypatch):
        # One band-solve kernel: a formed R, a kept mu's R and criterion 11's
        # unit-vector columns all go through _stacked_solve.
        a = random_sign_tridiagonal(128)
        band = BandResolvent(a, [5.0], skip=False)
        with monkeypatch.context() as patch:
            callers = record_gbtrs_callers(patch)
            if path == "uncertified-build":
                BandResolvent(a, [5.0], skip=False)
            elif path == "resolvent":
                band.resolvent(0)
            else:
                nonauto.acceptance.criterion_11(7)
        assert callers and all(code is linop._stacked_solve.__code__ for code in callers)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kl=st.integers(0, 3),
        ku=st.integers(0, 3),
        d=st.integers(8, 96),
        metzler=st.booleans(),
    )
    def test_certified_guards_match_formed_resolvents(self, seed, kl, ku, d, metzler):
        rng = np.random.default_rng(seed)
        a = np.diag(-rng.uniform(1.0, 3.0, d))
        for k in range(-kl, ku + 1):
            if k:
                scale = rng.uniform(0.0, 1.0, d - abs(k))
                a += np.diag(scale if metzler else scale * rng.choice([-1.0, 1.0], d - abs(k)), k)
        s = float(np.linalg.eigvals(a).real.max())
        mus = np.concatenate([s + np.geomspace(1e-3, 1e3, 12), s - np.geomspace(1e-2, 1e2, 6)])
        # A row holding only mu_k on the diagonal makes mu_k I - A exactly singular,
        # one a few ulps off mu_k puts kappa_1 far above COND_LIMIT. Both lie below
        # the two largest mus.
        rows, picked = rng.choice(d, 2, replace=False), rng.choice(10, 2, replace=False)
        a[rows] = 0.0
        a[rows, rows] = mus[picked] * np.array([1.0, 1.0 + 4e-16])
        band, certified = self.certified_build(a, mus)
        ref = FormedBandResolvent(a, mus, skip=True)
        assert not band.kept[picked].any()
        assert np.array_equal(band.kept, ref.kept)
        assert np.array_equal(band.nonneg, ref.nonneg)
        assert_same_factors(band, ref)
        # An M-matrix shift far right of the spectrum is decided without forming R.
        if metzler:
            assert any(certified)
        c = rng.uniform(0.5, 1.0, d)
        mats = np.stack([np.diag(c), np.diag(c * rng.choice([-1.0, 1.0], d)), rng.standard_normal((d, d))])
        for kind in NormKind:
            assert np.array_equal(band.norms(mats, kind), ref.norms(mats, kind))
        with pytest.raises(SingularResolvent) as want:
            FormedBandResolvent(a, mus)
        with pytest.raises(SingularResolvent, match=re.escape(str(want.value))):
            BandResolvent(a, mus, skip=False)
        assert_band_resolvent_matches_dense(a, mus)


    def test_stacked_build_matches_one_mu_calls_around_refused_blocks(self, monkeypatch):
        # One chunk holds an exactly singular mu, inf and NaN among 40 certified mus. Neither
        # refused kind shares a stacked solve: the build's one gbtrf call factors the 41 finite
        # mus, and its one gbtrs call, on ones, the 40 certified ones, none solved again alone.
        rng = np.random.default_rng(21)
        d = 64
        a = np.diag(-rng.uniform(1.0, 3.0, d)) + np.diag(rng.uniform(0.0, 0.4, d - 1), -1) + np.diag(rng.uniform(0.0, 0.4, d - 1), 1)
        a[40] = 0.0
        a[40, 40] = 0.1
        refused = [10, 18, 27]
        mus = np.geomspace(1.0, 1e4, 43)
        mus[refused] = [np.inf, 0.1, np.nan]
        assert 43 <= linop.BLOCK_BYTES // (8 * 4 * d)
        with monkeypatch.context() as patch:
            calls = record_band_calls(patch)
            band = BandResolvent(a, mus, skip=True)
        assert calls == [("gbtrf", 41 * d), ("gbtrs", (40 * d, 1))]
        ref = FormedBandResolvent(a, mus, skip=True)
        assert band.kept.tolist() == ref.kept.tolist() == [i not in refused for i in range(43)]
        assert np.array_equal(band.nonneg, ref.nonneg) and band.nonneg.all()
        assert_same_factors(band, ref)
        c = rng.uniform(0.5, 1.0, d)
        mats = np.stack([np.diag(c), np.diag(c * rng.choice([-1.0, 1.0], d)), rng.standard_normal((d, d))])
        for kind in NormKind:
            assert np.array_equal(band.norms(mats, kind), ref.norms(mats, kind))
        # ||diag(1.7e308) R(mu)||_1 overflows near the eigenvalue 0.1, and the stacked solve's
        # 0 * inf would write NaN into the neighbouring blocks: those are solved again alone.
        huge = np.stack([np.diag(np.full(d, 1.7e308)), np.diag(c)])
        got = band.norms(huge, NormKind.ONE)
        assert not np.isfinite(got[0, 0]) and np.isfinite(got[0, -1])
        assert np.array_equal(got, ref.norms(huge, NormKind.ONE), equal_nan=True)
        with pytest.raises(SingularResolvent, match=re.escape("exactly singular or not finite at mu=inf")):
            BandResolvent(a, mus, skip=False)


    def test_wider_band_takes_one_mu_per_call(self, monkeypatch):
        # From kl = 2 a stacked transposed solve may round otherwise than the one-block
        # call, so a pentadiagonal M-matrix shift takes one gbtrf and one gbtrs call per mu.
        rng = np.random.default_rng(6)
        d = 80
        a = np.diag(-rng.uniform(1.0, 3.0, d))
        for k in (-2, -1, 1, 2):
            a += np.diag(rng.uniform(0.0, 0.5, d - abs(k)), k)
        mus = np.geomspace(1.0, 1e3, 7)
        with monkeypatch.context() as patch:
            calls = record_band_calls(patch)
            band = BandResolvent(a, mus, skip=False)
        assert calls == [("gbtrf", d), ("gbtrs", (d, 1))] * 7
        ref = FormedBandResolvent(a, mus)
        assert_same_factors(band, ref)
        c = rng.uniform(0.5, 1.0, d)
        for kind in (NormKind.ONE, NormKind.INF):
            assert np.array_equal(band.norms(np.diag(c)[None], kind), ref.norms(np.diag(c)[None], kind))


class TestBandLapack:
    """linop's band LAPACK results against scipy.linalg's, bit for bit, whichever way _band_lapack found the routines."""

    WIDTHS = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]

    @pytest.fixture(params=["extension", "fallback"], autouse=True)
    def source(self, request, monkeypatch):
        # A fresh lookup: the extension loaded from its file, or, where the file is not
        # found, scipy.linalg.lapack's routines.
        monkeypatch.setattr(linop, "_LAPACK", None)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        if request.param == "fallback":
            monkeypatch.setattr(linop, "_flapack_file", lambda: None)
        else:
            assert linop._flapack_file() is not None
        return request.param

    @staticmethod
    def diagonals(kl: int, ku: int, d: int) -> dict:
        """Random diagonals {offset: values} of a band G: mu I - G takes row interchanges."""
        rng = np.random.default_rng(10 * kl + ku)
        return {k: rng.standard_normal(d - abs(k)) for k in range(-kl, ku + 1)}

    def test_routines_are_scipys(self):
        names = ("dgbtrf", "dgbtrs", "dgtsv", "dgbsv")
        assert linop._band_lapack() == tuple(getattr(scipy.linalg.lapack, n) for n in names)

    @pytest.mark.parametrize("kl, ku", WIDTHS)
    @pytest.mark.parametrize("mus", [[1.5], np.linspace(0.5, 4.0, 9)], ids=["one-mu", "chunk"])
    def test_shifted_solves_match_solve_banded(self, kl, ku, mus):
        d = 24
        diagonals, rhs = self.diagonals(kl, ku, d), np.linspace(-1.0, 2.0, d)
        mus = np.asarray(mus)
        got = np.concatenate(list(linop._shifted_solves(diagonals, mus, d, rhs)))
        want = [scipy.linalg.solve_banded(*shifted_band(diagonals, mu, d), rhs) for mu in mus]
        assert np.isfinite(got).all() and np.array_equal(got, want)
        if len(mus) > 1 and max(kl, ku) <= 1:
            stacked = scipy.linalg.solve_banded(*shifted_band(diagonals, mus, d), np.tile(rhs, len(mus)))
            assert np.array_equal(got.ravel(), stacked)

    @pytest.mark.parametrize("kl, ku", WIDTHS)
    @pytest.mark.parametrize("mus", [[1.5], np.linspace(0.5, 4.0, 9)], ids=["one-mu", "chunk"])
    @pytest.mark.parametrize("trans", [0, 1])
    def test_factors_and_solves_match_gbtrf_and_gbtrs(self, kl, ku, mus, trans):
        d = 24
        n = len(mus)
        ab = shifted_band(self.diagonals(kl, ku, d), mus, d)[1]
        rhs = np.column_stack([np.linspace(-1.0, 2.0, d), np.ones(d)])
        lu, piv = linop._factor_blocks(ab, kl, ku, d)
        ref_lu, ref_piv, info = scipy.linalg.lapack.dgbtrf(np.concatenate([np.zeros((kl, n * d)), ab]), kl, ku)
        assert info == 0 and np.array_equal(lu, ref_lu)
        assert np.array_equal(piv + np.repeat(np.arange(n) * d, d), ref_piv)
        got = linop._stacked_solve(lu, piv, kl, ku, rhs, trans)
        want, info = scipy.linalg.lapack.dgbtrs(ref_lu, kl, ku, np.tile(rhs, (n, 1)), ref_piv, trans=trans)
        assert info == 0 and np.isfinite(got).all() and np.array_equal(got, want.reshape(n, d, 2))


class TestSpectrum:
    def test_diagonal(self):
        s = spectrum(op2(np.diag([-1.0, 1.0])))
        assert s.abscissa == pytest.approx(1.0)
        assert sorted(z.real for z in s.eigenvalues) == pytest.approx([-1.0, 1.0])

    def test_rotation(self):
        s = spectrum(op2([[0.0, -1.0], [1.0, 0.0]]))
        assert s.abscissa == pytest.approx(0.0, abs=1e-12)
        assert sorted(z.imag for z in s.eigenvalues) == pytest.approx([-1.0, 1.0])

    def test_triangular(self):
        s = spectrum(op2([[-2.0, 1.0], [0.0, -3.0]]))
        assert s.abscissa == pytest.approx(-2.0)
        assert s.radius == pytest.approx(3.0)

    def test_companion(self):
        s = spectrum(op2([[0.0, 1.0], [-2.0, -3.0]]))
        assert sorted(z.real for z in s.eigenvalues) == pytest.approx([-2.0, -1.0])


class TestMatrixFile:
    def test_roundtrip(self, tmp_path):
        a = Operator([[1.25, -3.5e-7], [2.0 ** -40, 4.0]], NormKind.ONE)
        path = tmp_path / "mat.txt"
        write_matrix(path, a)
        back = read_matrix(path, NormKind.ONE)
        assert np.array_equal(back.entries, a.entries)
        assert back.norm_kind is NormKind.ONE

    def test_distinct_values_write_the_per_entry_bytes(self, tmp_path):
        # Formatting each distinct bit pattern once writes what one format()
        # per entry wrote, for signed zeros, infinities, NaNs and subnormals.
        m = np.random.default_rng(3).standard_normal((40, 40))
        m[::7] = np.round(m[::7], 1)
        m[0, :6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
        m[1, :3] = [-np.nan, 2.0 ** -1074 * 3, -0.0]
        path = tmp_path / "mat.txt"
        write_matrix(path, Operator(m, NormKind.TWO))
        want = f"dim {len(m)}\n" + "".join(" ".join(format(x, ".17g") for x in row) + "\n" for row in m)
        assert path.read_bytes() == want.encode("ascii")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("matrix 2\n1 0\n0 1\n")
        with pytest.raises(ValueError):
            read_matrix(path, NormKind.TWO)

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("dim 2\n1 0\n1\n")
        with pytest.raises(ValueError):
            read_matrix(path, NormKind.TWO)
