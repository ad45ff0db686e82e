"""Frozen reference values for the test suite, derived independently.

Every constant here was computed from a closed form stated next to it, not
from the library under test, and is frozen so a regression in the library
cannot silently move the expectation. lu_resolvent, two_grid_fit,
rk4_step_loop and flat_chain_desc are the reference implementations: the
per-mu LU rule that linop.resolvent_stack replaced, the coarse-plus-fine
growth fit that semigroup.fit_growth_bound reduced to its fine grid, the
per-step RK4 loop that evofam.oracle_solve streams in blocks, the
one-pass pairwise product that evofam._chain_desc bounds in chunks, and the
form-every-R loop whose guards linop.BandResolvent certifies from its factors.
"""
import math

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgbtrf, dgbtrs

from nonauto.linop import BandResolvent, NormKind, _band_matmul, _judge, bandwidths, norm_of, norm_stack, shifted_band, spectrum
from nonauto.semigroup import expm_stack

# Diagonal nonautonomous system A = diag(-1, -2), B(t) = sin(t) diag(0.5, 0.3)
# on [0, 1]: the equation decouples into scalars u' = (a + c sin t) u, whose
# solution at t = 1 is exp(a + c (1 - cos 1)).
DIAG_U11 = 0.46294308781645194  # exp(-1 + 0.5 (1 - cos 1))
DIAG_U22 = 0.15534750686729865  # exp(-2 + 0.3 (1 - cos 1))

# Scalar polygon example a = -1, b(t) = sin t on [0, 1]:
# exp(int_0^1 (-1 + sin tau) dtau) = exp(-cos 1).
SCALAR_POLY = 0.58257211078330851

# Yosida approximant of a scalar a at parameter lam: lam^2/(lam - a) - lam
# = lam a / (lam - a); for a = -1, lam = 9 this is -0.9 exactly.
YOSIDA_SCALAR = -0.9

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


def two_grid_fit(a, margin=1e-2, horizon=5.0, grid_points=257):
    """Reference growth constant M: the max of ||e^{tA}|| e^{-omega0 t} over two grids.

    The grids are linspace(0, horizon, grid_points) and the 2x finer
    linspace(0, horizon, 2 grid_points - 1); omega0 is the spectral abscissa
    plus margin, and M is clamped to >= 1 and inflated by 1 + 1e-6.
    """
    omega0 = spectrum(a).abscissa + margin
    best = 1.0
    for n in (grid_points, 2 * grid_points - 1):
        ts = np.linspace(0.0, horizon, n)
        norms = norm_stack(expm_stack(ts[:, None, None] * a.entries[None, :, :]), a.norm_kind)
        best = max(best, float((norms * np.array([math.exp(-omega0 * t) for t in ts])).max()))
    return best * (1.0 + 1e-6)


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

    One expm_stack call over every frozen generator delta (A + B(node_j)),
    and each span partial(jt) @ flat_chain_desc(cells[js+1:jt]) @ partial(js)
    over slices of that stack, a partial cell within one part in 1e12 of a
    cell boundary snapped to it. This is the stored-stack path that the
    folding EvolutionFamilyApprox replaced. Given cells, the whole level's
    cell stack from a polygon's cell source, it checks the fold's products
    alone.
    """

    def __init__(self, a, family, partition, cells=None):
        self.a, self.family, self.p = a, family, partition
        if cells is None:
            gens = family.values_stack(partition.nodes()[:-1])
            gens += a.entries
            gens *= partition.delta
            cells = expm_stack(gens, out=gens)
        self.cells = cells

    def _partial(self, j, tau):
        delta = self.p.delta
        if tau <= 1e-12 * delta:
            return np.eye(self.a.dim)
        if abs(tau - delta) <= 1e-12 * delta:
            return self.cells[j]
        return expm_stack(tau * (self.a.entries + self.family.values_stack([self.p.node(j)])))[0]

    def evaluate(self, t, s):
        p = self.p
        if t == s:
            return np.eye(self.a.dim)
        js, jt = p.cell_of(s), p.cell_of(t)
        if js == jt:
            return self._partial(js, t - s)
        out = self._partial(jt, t - p.node(jt))
        if jt > js + 1:
            out = out @ flat_chain_desc(self.cells[js + 1 : jt])
        return out @ self._partial(js, p.node(js + 1) - s)

    def evaluate_path(self, ts, s):
        out, cur, last = [], np.eye(self.a.dim), s
        for t in ts:
            if t > last:
                cur = self.evaluate(t, last) @ cur
                last = t
            out.append(cur)
        return out
