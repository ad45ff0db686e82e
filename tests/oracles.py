"""Frozen reference values for the test suite, derived independently.

Every constant here was computed from a closed form stated next to it, not
from the library under test, and is frozen so a regression in the library
cannot silently move the expectation. lu_resolvent, rk4_step_loop,
flat_chain_desc, FormedBandResolvent and StackPolygon are the reference
implementations: the per-mu LU rule that linop.resolvent_stack replaced, the
per-step RK4 loop that evofam.oracle_solve streams in blocks, the
one-pass pairwise product that evofam._chain_desc bounds in chunks, the
form-every-R loop whose guards linop.BandResolvent certifies from its factors,
and the stored-stack polygon that the folding EvolutionFamilyApprox replaced.
"""
import math

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgbtrf, dgbtrs

from nonauto.linop import BandResolvent, NormKind, _band_matmul, _judge, bandwidths, norm_of, shifted_band
from nonauto.semigroup import expm_stack

# Diagonal nonautonomous system A = diag(-1, -2), B(t) = sin(t) diag(0.5, 0.3)
# on [0, 1]: the equation decouples into scalars u' = (a + c sin t) u, whose
# solution at t = 1 is exp(a + c (1 - cos 1)).
DIAG_U11 = 0.46294308781645194  # exp(-1 + 0.5 (1 - cos 1))
DIAG_U22 = 0.15534750686729865  # exp(-2 + 0.3 (1 - cos 1))

# Scalar polygon example a = -1, b(t) = sin t on [0, 1]:
# exp(int_0^1 (-1 + sin tau) dtau) = exp(-cos 1).
SCALAR_POLY = 0.58257211078330851

# lam^2 (1/(lam - 2) - 1/(lam + 1)) = 3 lam^2 / ((lam - 2)(lam + 1)) -> 3,
# the scalar Yosida-distance limit for diag(2, 0) vs diag(-1, 0).
YDIST_DIAG_LIMIT = 3.0

# Discrete 1-mass of the truncated spike sum with n_max = 3: each spike n
# contributes n^2 * n^-4 = n^-2, so the exact mass is 1 + 1/4 + 1/9.
SPIKE_MASS_3 = 1.3611111111111112

# sup_{|t-s| <= h} |sin t - sin s| = 2 sin(h/2) for h <= pi (attained by a
# symmetric pair around a peak).
def sin_modulus(h: float) -> float:
    return 2.0 * math.sin(h / 2.0)


def lu_resolvent(a, mu):
    """Reference R(mu, A) as one LU solve with a dgecon condition estimate.

    Returns (r, kappa_estimate); r is None where this rule refuses mu: an
    exactly zero pivot, an estimate above 1e12 (COND_LIMIT), or a residual
    ||(mu I - A) R - I||_1 above 1e-10 (RESOLVENT_RESIDUAL) times the estimate.
    """
    d = a.shape[0]
    m = float(mu) * np.eye(d) - a
    lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    if np.any(np.diag(lu) == 0.0):
        return None, float("inf")
    anorm = np.abs(m).sum(axis=0).max()
    rcond, info = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    kappa = float(1.0 / rcond) if info == 0 and np.isfinite(rcond) and rcond > 0.0 else float("inf")
    if kappa > 1e12:
        return None, kappa
    r = scipy.linalg.lu_solve((lu, piv), np.eye(d), check_finite=False)
    if np.abs(m @ r - np.eye(d)).sum(axis=0).max() > 1e-10 * kappa:
        return None, kappa
    return r, kappa


class FormedBandResolvent(BandResolvent):
    """Reference BandResolvent: every mu forms R from an identity right-hand side (gbtrs).

    Each R is judged by resolvent_stack's rules (exact kappa_1, the residual of
    a banded product) and its sign read off its entries; the kept mus' factors
    and signs are stored as BandResolvent stores them, so norms() is shared.
    """

    def __init__(self, a, mus, skip=False):
        d = a.shape[0]
        self.kl, self.ku = kl, ku = bandwidths(a)
        diagonals = {k: np.diagonal(a, k) for k in range(-kl, ku + 1)}
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        self.kept, self._factors, nonneg = np.ones(len(mus), dtype=bool), [], []
        eye = np.eye(d, order="F")
        for i, mu in enumerate(mus):
            ab = shifted_band(diagonals, mu, d)[1]
            lu, piv, info = dgbtrf(np.concatenate([np.zeros((kl, d)), ab]), kl, ku)
            r = np.full((d, d), np.nan) if info > 0 else dgbtrs(lu, kl, ku, eye, piv)[0]
            kappa = np.abs(ab).sum(axis=0).max() * norm_of(r, NormKind.ONE)
            residual = norm_of(_band_matmul(ab, kl, ku, r) - eye, NormKind.ONE)
            self.kept[i] = _judge(np.array([kappa]), np.array([residual]), mus[i : i + 1], skip)[0]
            if self.kept[i]:
                self._factors.append((lu, piv))
                nonneg.append((r >= 0.0).all())
        self.nonneg = np.array(nonneg, dtype=bool)


def rk4_step_loop(a, family, t, s, steps):
    """Reference M(t) of M' = (A + B(tau)) M, M(s) = I: classical RK4, one step at a time.

    Each step applies k1..k4 to the current M, with the generator taken at
    the step's left, middle and right times on linspace(s, t, 2 steps + 1).
    """
    h = (t - s) / steps
    gens = a.entries[None, :, :] + family.values_stack(np.linspace(s, t, 2 * steps + 1))
    m = np.eye(a.dim)
    for i in range(steps):
        g0, gm, g1 = gens[2 * i], gens[2 * i + 1], gens[2 * i + 2]
        k1 = g0 @ m
        k2 = gm @ (m + h / 2.0 * k1)
        k3 = gm @ (m + h / 2.0 * k2)
        k4 = g1 @ (m + h * k3)
        m = m + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


def flat_chain_desc(block):
    """Reference block[-1] @ ... @ block[0]: pairwise reduction of the whole stack at each level."""
    while len(block) > 1:
        m = len(block) // 2
        merged = block[1 : 2 * m : 2] @ block[0 : 2 * m : 2]
        block = np.concatenate([merged, block[2 * m :]]) if len(block) % 2 else merged
    return block[0]


class StackPolygon:
    """Reference Euler polygon: the whole level's cell exponentials held in one stack.

    One expm_stack call over every frozen generator delta (A + B(node_j)).
    Each end of a span is (j, tau), tau = t - node_j snapped to 0 within
    1e-12 delta of node j or of node j + 1 (which then becomes j). The span
    (js, taus) -> (jt, taut) is (P(jt, taut) @ T) @ P(js, delta - taus),
    T = flat_chain_desc(cells[js + (taus > 0) : jt]), or P(js, taut - taus)
    inside one cell; an end at a node adds no factor. A path's distinct
    partial cells P(j, tau) = e^{tau (A + B(node_j))}, in cell order of first
    use, are one expm_stack call. This is the stored-stack path that the folding
    EvolutionFamilyApprox replaced. Given cells, the whole level's cell stack
    from a polygon's cell source, it checks the fold's products alone.
    """

    def __init__(self, a, family, partition, cells=None):
        self.a, self.family, self.p = a, family, partition
        if cells is None:
            gens = family.values_stack(partition.nodes()[:-1])
            gens += a.entries
            gens *= partition.delta
            cells = expm_stack(gens, out=gens)
        self.cells = cells

    def _end(self, t):
        p = self.p
        j = p.cell_of(t)
        tau = t - p.node(j)
        if tau <= 1e-12 * p.delta:
            return j, 0.0
        if p.delta - tau <= 1e-12 * p.delta:
            return j + 1, 0.0
        return j, tau

    def evaluate(self, t, s):
        return self.evaluate_path([t], s)[-1]

    def evaluate_path(self, ts, s):
        delta, ends = self.p.delta, [self._end(t) for t in [s, *ts]]
        # Each span's factors in cell order: ("P", j, tau) a partial cell, ("T", lo, hi) the tree of cells lo..hi-1.
        spans = []
        for (js, taus), (jt, taut) in zip(ends, ends[1:]):
            if js == jt:
                factors = [("P", js, taut - taus)] if taut > taus else []
            else:
                lo = js + (taus > 0)
                factors = [("P", js, delta - taus)] if taus > 0 else []
                factors += [("T", lo, jt)] if jt > lo else []
                factors += [("P", jt, taut)] if taut > 0 else []
            spans.append(factors)
        keys = list(dict.fromkeys(f[1:] for factors in spans for f in factors if f[0] == "P"))
        if keys:
            gens = self.family.values_stack([self.p.node(j) for j, _ in keys])
            gens += self.a.entries
            gens *= np.array([tau for _, tau in keys])[:, None, None]
            parts = dict(zip(keys, expm_stack(gens)))
        out, cur = [], np.eye(self.a.dim)
        for factors in spans:
            if factors:
                # (end @ tree) @ start: the last factor first, each earlier one multiplied on the right.
                mats = [parts[f[1:]] if f[0] == "P" else flat_chain_desc(self.cells[f[1] : f[2]]) for f in factors]
                span = mats.pop()
                while mats:
                    span = span @ mats.pop()
                cur = span @ cur
            out.append(cur)
        return out
