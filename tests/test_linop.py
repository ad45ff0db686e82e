"""Operators, induced norms, resolvents, spectra, and the matrix file format."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nonauto import linop
from nonauto import (
    DimensionMismatch,
    NormKind,
    NormKindMismatch,
    Operator,
    SingularResolvent,
    identity,
    op_norm,
    read_matrix,
    resolvent,
    spectrum,
    write_matrix,
)
from nonauto.examples import Domain, GridSpec, build_heat_generator, build_translation_generator
from nonauto.linop import COND_LIMIT, BandResolvent, bandwidths, norm_of, norm_stack, resolvent_stack, shifted_band
from nonauto.metrics import MuGrid

from oracles import FormedBandResolvent, lu_resolvent


def op2(entries):
    return Operator(np.asarray(entries, dtype=float), NormKind.TWO)


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            Operator(np.zeros((2, 3)))

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


class TestNorms:
    def test_zero_matrix(self):
        assert op_norm(Operator(np.zeros((3, 3)))) == 0.0

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

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
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

    def test_refuses_what_resolvent_stack_refuses(self):
        # mu = 2 is an eigenvalue, and 3 + 1e-15 puts kappa_1 above COND_LIMIT.
        a = np.diag([2.0, -1.0, 3.0 + 1e-15]) + np.diag([0.5, 0.0], -1)
        mus = np.array([1.0, 1.5, 2.0, 3.0, 10.0])
        band = BandResolvent(a, mus, skip=True)
        assert band.kept.tolist() == resolvent_stack(a, mus, skip=True)[1].tolist() == [True, True, False, False, True]
        with pytest.raises(SingularResolvent, match="exactly singular or not finite at mu=2.0"):
            BandResolvent(a, mus)
        with pytest.raises(SingularResolvent, match="condition number .* at mu=3.0"):
            BandResolvent(a, mus[3:])
        assert_band_resolvent_matches_dense(a, mus)

    @staticmethod
    def certified_build(a, mus):
        """BandResolvent(a, mus, skip=True) and what linop._certified decided at each mu it was asked about."""
        certified, decide = [], linop._certified
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linop, "_certified", lambda *args: certified.append(decide(*args)) or certified[-1])
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
        rng = np.random.default_rng(3)
        d = 128
        a = np.diag(-rng.uniform(1.0, 3.0, d))
        for k in (-1, 1):
            a += np.diag(rng.uniform(0.0, 1.0, d - 1) * rng.choice([-1.0, 1.0], d - 1), k)
        assert isinstance(linop.resolvents(a, [5.0]), BandResolvent)
        dgbtrf, dgbtrs = linop._band_lu()
        solved = []

        def counted(lu, kl, ku, rhs, piv, trans=0):
            solved.append(dgbtrs(lu, kl, ku, rhs, piv, trans=trans))
            return solved[-1]

        with monkeypatch.context() as patch:
            patch.setattr(linop, "_band_lu", lambda: (dgbtrf, counted))
            r = resolvent(op2(a), 5.0).entries
        assert [x.shape[1] for x, _ in solved] == [d, d]
        assert np.array_equal(solved[0][0], r)
        assert np.array_equal(r, BandResolvent(a, [5.0, 6.0]).resolvent(0))

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
        assert len(band._factors) == len(ref._factors)
        for (lu, piv), (ref_lu, ref_piv) in zip(band._factors, ref._factors):
            assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)
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
            BandResolvent(a, mus)
        assert_band_resolvent_matches_dense(a, mus)


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
            read_matrix(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("dim 2\n1 0\n1\n")
        with pytest.raises(ValueError):
            read_matrix(path)
