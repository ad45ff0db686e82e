"""Euler-polygon evolution families for u' = (A + B(t)) u.

The interval is split into 2^n dyadic cells; on each cell the generator is
frozen at the left node, so the approximate propagator is a product of matrix
exponentials. Successive levels form a Cauchy sequence with explicit rate
    ||U_n(t, s) - U_m(t, s)|| <= (t - s) e^{4 omega1} Omega_n,
where omega1 = sup_t ||B(t)||_A and Omega_n is the modulus of continuity of
t -> B(t) in ||.||_A at mesh width 2^{-n}(b - a).
"""
from __future__ import annotations

import csv
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NormKindMismatch,
    OutOfInterval,
    Overflow,
    PreconditionViolated,
    ToleranceNotReached,
)
from .linop import BLOCK_BYTES, PRODUCT_BYTES, NormKind, Operator, norm_of, norm_stack, op_norm
from .metrics import ANormEvaluator, _check_family
from .profiles import Constant, Sinusoid, profile_values
from . import semigroup
from .semigroup import GrowthBound, expm_stack

MAX_LEVEL = 24
MODULUS_PAIR_CAP = 4096
SUP_SAMPLES = 65  # t-grid of the sampled sup_t ||B(t)||_A
PROFILE_SAMPLES = 2049
# Interpolated cells of a factored family (_interpolated_cells). A level of fewer
# than max(_INTERP_MIN_CELLS, _INTERP_MIN_CELLS_X_DIM / d) cells exponentiates its
# cells directly: a fold on 2 cores was faster interpolated from about 512 cells
# at d = 2-4, where the interpolant's fixed Python cost dominates, 128 at d = 16
# and 64-128 at d = 32-128, where its K + 1 nodes of dimension 2d do.
_INTERP_MIN_CELLS = 64
_INTERP_MIN_CELLS_X_DIM = 2048
_INTERP_K_MAX = 12
# Accepted check discrepancy, in units of u sqrt(d) 2^s. The direct kernel's own
# relative 1-norm rounding grows like sqrt(d) u per product and doubles with each
# of the check cell's s squarings; interpolant against expm_stack at the extreme
# cells measured at most 0.44 u sqrt(d) 2^s on the heat problems (d = 16-128,
# levels 6-13) and 1.04 on random (A, B0) at d = 2-64, so 4 leaves a margin of
# about 4 while refusing any truncation error above a few times that rounding.
_CHECK_ULPS = 4.0
_UNIT_ROUNDOFF = 2.0**-53
# expm_stack blocks per fold chunk (_spans), so a fold holds about this many
# BLOCK_BYTES stacks of cells at a time.
_CHUNK_BLOCKS = 4


@dataclass(frozen=True)
class DyadicPartition:
    """Uniform partition of [a, b] into 2^n cells."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (self.b > self.a):
            raise PreconditionViolated("partition wants b > a")
        if not (0 <= self.n <= MAX_LEVEL):
            raise PreconditionViolated(f"partition level must lie in [0, {MAX_LEVEL}]")

    @property
    def cells(self) -> int:
        return 2 ** self.n

    @property
    def delta(self) -> float:
        return (self.b - self.a) / self.cells

    def nodes(self) -> np.ndarray:
        return self.a + self.delta * np.arange(self.cells + 1)

    def node(self, j: int) -> float:
        return self.a + self.delta * j

    def cell_of(self, t: float) -> int:
        """Index j with t in [node(j), node(j+1)); b maps to the last cell."""
        if not (self.a <= t <= self.b):
            raise OutOfInterval(f"t={t} outside [{self.a}, {self.b}]")
        return min(int((t - self.a) / self.delta), self.cells - 1)


class PerturbationFamily:
    """Time-dependent perturbation t -> B(t) on a fixed interval.

    values_stack(ts) is the one way a family is evaluated, and B(t) is its
    one-item form. Subclasses implement _values(ts) for a checked 1-D array
    of times. modulus() estimates sup_{|t-s| <= h} ||B(t) - B(s)||_A; it is
    exact for subclasses whose _modulus bounds it structurally.
    """

    def __init__(self, interval, dim: int, norm_kind: NormKind):
        t0, t1 = float(interval[0]), float(interval[1])
        if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
            raise PreconditionViolated(f"family interval wants finite t0 < t1, got [{t0!r}, {t1!r}]")
        self.interval = (t0, t1)
        self.dim = int(dim)
        self.norm_kind = norm_kind
        # Per-evaluator memo of moduli and norms. Weak keys: a dead evaluator's
        # entries die with it and cannot answer for a new one at the same id().
        self._anorm_cache = weakref.WeakKeyDictionary()

    def __call__(self, t: float) -> Operator:
        return Operator(self.values_stack([t])[0], self.norm_kind)

    def values_stack(self, ts) -> np.ndarray:
        """Entries of B(t) for each t, a new (len(ts), dim, dim) array the caller may modify.

        Any t outside the interval, NaN included, raises OutOfInterval; a
        kind whose values are not dim x dim raises DimensionMismatch.
        """
        ts = np.asarray(ts, dtype=float)
        t0, t1 = self.interval
        if len(ts) and not (t0 <= ts.min() and ts.max() <= t1):
            raise OutOfInterval(f"t={ts[~((ts >= t0) & (ts <= t1))][0]} outside [{t0}, {t1}]")
        out = self._values(ts)
        if out.shape != (len(ts), self.dim, self.dim):
            raise DimensionMismatch(f"family of dim {self.dim} gave values of shape {out.shape[1:]}")
        return out

    def _values(self, ts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _cached(self, anorm: ANormEvaluator, key, compute):
        memo = self._anorm_cache.setdefault(anorm, {})
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def modulus(self, h: float, anorm: ANormEvaluator) -> float:
        """sup_{|t - s| <= h} ||B(t) - B(s)||_A, with h clamped to the interval length.

        h <= 0 gives 0.0. Subclasses supply _modulus(h, anorm) for
        0 < h <= t1 - t0; results are cached per (anorm, h) since refinement
        asks for a whole ladder of h on one evaluator.
        """
        t0, t1 = self.interval
        h = min(float(h), t1 - t0)
        if h <= 0.0:
            return 0.0
        return self._cached(anorm, h, lambda: self._modulus(h, anorm))

    def _modulus(self, h: float, anorm: ANormEvaluator) -> float:
        """Sampled fallback: the sup over pairs drawn from a fixed seed."""
        t0, t1 = self.interval
        rng = np.random.default_rng(0)
        count = min(MODULUS_PAIR_CAP, max(16, math.ceil(4.0 * (t1 - t0) / h)))
        # Adjacent mesh nodes at spacing h catch oscillations aligned to the mesh.
        nodes = np.arange(t0, t1, h)[: MODULUS_PAIR_CAP // 2]
        starts = rng.uniform(t0, t1, size=count)
        offsets = rng.uniform(-h, h, size=count)
        ts = np.concatenate([nodes, starts])
        ss = np.concatenate([np.minimum(nodes + h, t1), np.clip(starts + offsets, t0, t1)])
        diffs = self.values_stack(ts) - self.values_stack(ss)
        return float(anorm.value_stack(diffs).max())

    def sup_anorm(self, anorm: ANormEvaluator) -> float:
        """sup_t ||B(t)||_A over a uniform t-grid (exact where overridden)."""
        t0, t1 = self.interval
        return float(anorm.value_stack(self.values_stack(np.linspace(t0, t1, SUP_SAMPLES))).max())

    def scale(self, c: float) -> "PerturbationFamily":
        return _Scaled(self, float(c))

    def factor(self):
        """(profile, B0) with B(t) = profile(t) B0 for a scalar callable profile, or None."""
        return None


class _Scaled(PerturbationFamily):
    """c * B(t) for a fixed scalar c."""

    def __init__(self, base: PerturbationFamily, c: float):
        super().__init__(base.interval, base.dim, base.norm_kind)
        self.base = base
        self.c = c

    def _values(self, ts: np.ndarray) -> np.ndarray:
        return self.c * self.base.values_stack(ts)

    def _modulus(self, h, anorm) -> float:
        return abs(self.c) * self.base.modulus(h, anorm)

    def sup_anorm(self, anorm) -> float:
        return abs(self.c) * self.base.sup_anorm(anorm)

    def factor(self):
        factored = self.base.factor()
        return None if factored is None else (factored[0], self.c * factored[1])


class ScaledProfileFamily(PerturbationFamily):
    """B(t) = phi(t) B0 for a scalar profile phi.

    phi is evaluated by profiles.profile_values: a Profile such as Sinusoid
    through its array form, any other callable once per t. The modulus
    factorises exactly: Omega(h) = Omega_phi(h) ||B0||_A, with Omega_phi the
    largest max - min of PROFILE_SAMPLES equispaced profile samples over a
    window of width h (_window_extrema); for h below their step, the
    steepest sampled cell and its neighbours are resampled at step h or finer.
    """

    def __init__(self, interval, profile, b0: Operator):
        super().__init__(interval, b0.dim, b0.norm_kind)
        self.profile = profile
        self.b0 = b0
        self._profile_vals = self._samples(*self.interval, PROFILE_SAMPLES)

    def _samples(self, start: float, stop: float, count: int) -> np.ndarray:
        return profile_values(self.profile, np.linspace(start, stop, count))

    def _values(self, ts: np.ndarray) -> np.ndarray:
        return profile_values(self.profile, ts)[:, None, None] * self.b0.entries[None, :, :]

    def _b0_anorm(self, anorm) -> float:
        return self._cached(anorm, "b0", lambda: anorm.value(self.b0).value)

    def _modulus(self, h, anorm) -> float:
        t0, t1 = self.interval
        step = (t1 - t0) / (PROFILE_SAMPLES - 1)
        if h < step:
            # One-step windows would hold Omega_phi(h) at one step's rise as h shrinks. Where the
            # samples resolve the profile, the sup sits at its steepest sampled cell, so only that
            # cell and its neighbours are resampled at step h or finer, not the whole interval.
            k = math.ceil(step / h)
            j = int(np.abs(np.diff(self._profile_vals)).argmax())
            lo, hi = max(j - 1, 0), min(j + 2, PROFILE_SAMPLES - 1)
            fine = self._samples(t0 + lo * step, t0 + hi * step, (hi - lo) * k + 1)
            return float(np.abs(np.diff(fine)).max()) * self._b0_anorm(anorm)
        # Max-min of the profile over every window of width h.
        hi, lo = _window_extrema(self._profile_vals, int(round(h / step)) + 1)
        return float((hi - lo).max()) * self._b0_anorm(anorm)

    def sup_anorm(self, anorm) -> float:
        return float(np.abs(self._profile_vals).max()) * self._b0_anorm(anorm)

    def factor(self):
        return self.profile, self.b0


def _window_extrema(x: np.ndarray, width: int) -> tuple:
    """(max, min) of x over each window of width consecutive items, 1 <= width <= len(x).

    By doubling (Bender and Farach-Colton, "The LCA problem revisited", 2000):
    after the steps to k, the largest power of two <= width, item i holds the
    extremum of x[i : i + k], and a window of width is the overlapping pair of
    spans at i and i + width - k. O(len(x) log width), and exact.
    """
    hi = lo = x
    k = 1
    while 2 * k <= width:
        hi, lo = np.maximum(hi[:-k], hi[k:]), np.minimum(lo[:-k], lo[k:])
        k *= 2
    n, r = len(x) - width + 1, width - k
    return np.maximum(hi[:n], hi[r:]), np.minimum(lo[:n], lo[r:])


class ConstantFamily(ScaledProfileFamily):
    """B(t) = B0 as the phi = 1 profile family; modulus identically zero, products collapse exactly."""

    def __init__(self, interval, b0: Operator):
        super().__init__(interval, Constant(1.0), b0)


class PiecewiseLinearFamily(PerturbationFamily):
    """Linear interpolation of matrices given at increasing nodes.

    For h at most the shortest piece the modulus is exactly h times the
    largest per-piece slope in ||.||_A.
    """

    def __init__(self, nodes, mats, norm_kind: NormKind = NormKind.TWO):
        nodes = np.asarray(nodes, dtype=float)
        if len(nodes) != len(mats):
            raise DimensionMismatch("nodes and matrices must pair up")
        if len(nodes) < 2 or not np.all(np.diff(nodes) > 0):
            raise PreconditionViolated("nodes must be strictly increasing, at least two")
        mats = [m if isinstance(m, Operator) else Operator(np.asarray(m, dtype=float), norm_kind) for m in mats]
        super().__init__((nodes[0], nodes[-1]), mats[0].dim, mats[0].norm_kind)
        for m in mats[1:]:
            mats[0]._check(m)
        self.nodes = nodes
        self._stack = np.stack([m.entries for m in mats])

    def _values(self, ts: np.ndarray) -> np.ndarray:
        # Piece j holds [node_j, node_{j+1}); b maps to the last piece.
        j = np.clip(np.searchsorted(self.nodes, ts, side="right") - 1, 0, len(self.nodes) - 2)
        w = ((ts - self.nodes[j]) / (self.nodes[j + 1] - self.nodes[j]))[:, None, None]
        # Filled a BLOCK_BYTES slice at a time, so the gathered node matrices
        # never form whole-stack temporaries.
        out = np.empty((len(ts), self.dim, self.dim))
        step = max(1, BLOCK_BYTES // (8 * self.dim * self.dim))
        for i in range(0, len(ts), step):
            s = slice(i, i + step)
            np.multiply(1.0 - w[s], self._stack[j[s]], out=out[s])
            out[s] += w[s] * self._stack[j[s] + 1]
        return out

    def _slopes(self, anorm: ANormEvaluator) -> np.ndarray:
        return self._cached(
            anorm, "slopes", lambda: anorm.value_stack(np.diff(self._stack, axis=0)) / np.diff(self.nodes)
        )

    def _modulus(self, h, anorm) -> float:
        if h <= float(np.diff(self.nodes).min()):
            return float(h * self._slopes(anorm).max())
        return super()._modulus(h, anorm)

    def sup_anorm(self, anorm) -> float:
        # Convexity of the norm along each piece puts the sup at a node.
        return float(anorm.value_stack(self._stack).max())


class CallableFamily(PerturbationFamily):
    """B(t) from an arbitrary callable; modulus falls back to sampling."""

    def __init__(self, interval, fn, dim: int, norm_kind: NormKind = NormKind.TWO):
        super().__init__(interval, dim, norm_kind)
        self.fn = fn

    def _values(self, ts: np.ndarray) -> np.ndarray:
        outs = [self.fn(float(t)) for t in ts]
        for out in outs:
            if isinstance(out, Operator) and out.norm_kind is not self.norm_kind:
                raise NormKindMismatch(f"family uses {self.norm_kind.value}, fn returned {out.norm_kind.value}")
        return np.array([out.entries if isinstance(out, Operator) else out for out in outs], dtype=float)


class TabulatedFamily(PiecewiseLinearFamily):
    """Piecewise-linear family read from a CSV of t plus row-major entries."""

    def __init__(self, path, norm_kind: NormKind = NormKind.TWO):
        nodes, rows = [], []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                vals = [float(x) for x in row]
                nodes.append(vals[0])
                rows.append(vals[1:])
        if not rows:
            raise PreconditionViolated(f"no data rows in {path}")
        dim = math.isqrt(len(rows[0]))
        if dim * dim != len(rows[0]):
            raise DimensionMismatch(f"{len(rows[0])} entries per row is not a square matrix")
        mats = [Operator(np.array(r).reshape(dim, dim), norm_kind) for r in rows]
        super().__init__(nodes, mats)


class EvolutionFamilyApprox:
    """Propagators of the frozen-coefficient scheme at one dyadic level.

    A handle on (a, family, partition) with no level stack: _spans, the one
    product loop, forms U(t, s) a chunk of cells at a time from a partial cell
    on each end and the full cells between, factors ordered by decreasing
    node index. It keeps its last chunk, so nearby spans reuse the cells.
    Every full cell comes from _cells, the level's one cell source.
    """

    def __init__(self, a: Operator, family: PerturbationFamily, partition: DyadicPartition):
        _check_family(a, family)
        t0, t1 = family.interval
        if not (t0 <= partition.a and partition.b <= t1):
            raise OutOfInterval("partition must lie inside the family interval")
        family.values_stack([partition.a])  # checks the shape of the family's values
        self.a, self.family, self.partition = a, family, partition
        self._chunk = (0, ())
        self._interpolant = None  # made with the first chunk; False where cells are direct

    @property
    def level(self) -> int:
        return self.partition.n

    def _cells(self, lo: int, hi: int) -> np.ndarray:
        """Exponentials of full cells lo..hi-1 as a new (hi - lo, d, d) array: the fold's cell source.

        A factored family's level takes its cells from one interpolant
        (_interpolated_cells) where that pays and passes its check; otherwise
        the frozen generators delta (A + B(node_j)) are exponentiated in
        place. lo is a multiple of the expm_stack block length, so a direct
        cell has the bits of a whole-level call; an interpolated cell has the
        same bits from any chunk.
        """
        if self._interpolant is None:
            self._interpolant = _interpolated_cells(self.a, self.family, self.partition) or False
        if self._interpolant:
            return self._interpolant(lo, hi)
        p = self.partition
        gens = self.family.values_stack(p.a + p.delta * np.arange(lo, hi))
        gens += self.a.entries
        gens *= p.delta
        return expm_stack(gens, out=gens)

    def _spans(self, ts, s: float):
        """Yield U(t_k, t_{k-1}) for ascending ts with t_{-1} = s, None for an empty span.

        One pass over the cells from s to the last t, taking them from _cells a
        chunk at a time: _CHUNK_BLOCKS expm_stack blocks, a tail under
        half a chunk joining the last. Chunks start at multiples of the block
        length, so each cell has the bits of a whole-level call. A partial cell
        within 1e-12 delta of a cell boundary is snapped to it, so nodes up to
        rounding reuse it; any other partial cell is exponentiated directly,
        once for a run of equal (cell, length) pairs such as equally spaced
        probes inside one coarse cell.
        """
        p, d, delta = self.partition, self.a.dim, self.partition.delta
        ts, last = [float(t) for t in ts], float(s)
        for t in ts:
            if not (p.a <= last <= p.b and p.a <= t <= p.b):
                raise OutOfInterval(f"(t, s)=({t}, {last}) outside [{p.a}, {p.b}]")
            if t < last:
                raise PreconditionViolated(f"propagator wants ascending t >= s, got t={t} after {last}")
            last = t
        step = max(1, BLOCK_BYTES // (8 * d * d))
        stop = min(-(-(p.cell_of(ts[-1]) + 1) // step) * step, p.cells) if ts else 0
        size = _CHUNK_BLOCKS * step
        first, exps = self._chunk
        last_partial = (None, None, None)  # (j, tau, cell): equal probe spacings repeat a partial cell

        def cells(lo: int, hi: int):
            """Exponentials of cells lo..hi-1, as views of the chunks that hold them."""
            nonlocal first, exps
            while lo < hi:
                if not first <= lo < first + len(exps):
                    self._chunk = first, exps = lo - lo % step, ()  # the old chunk dies before the next is built
                    end = first + size if stop - first >= 3 * size // 2 else stop
                    self._chunk = first, exps = first, self._cells(first, end)
                yield exps[lo - first : hi - first]
                lo = min(hi, first + len(exps))

        def partial(j: int, tau: float) -> np.ndarray:
            nonlocal last_partial
            if tau <= 1e-12 * delta:
                return np.eye(d)
            if abs(tau - delta) <= 1e-12 * delta:
                return next(cells(j, j + 1))[0].copy()
            if last_partial[:2] != (j, tau):
                value = expm_stack(tau * (self.a.entries + self.family.values_stack([p.node(j)])))[0]
                last_partial = j, tau, value
            return last_partial[2]

        last = float(s)
        for t in ts:
            js, jt = p.cell_of(last), p.cell_of(t)
            if t == last:
                yield None
            elif js == jt:
                yield partial(js, t - last)
            else:
                # Formed in cell order, multiplied as (end @ chain) @ start.
                start = partial(js, p.node(js + 1) - last)
                chain = _chain_desc(cells(js + 1, jt)) if jt > js + 1 else None
                out = partial(jt, t - p.node(jt))
                yield (out if chain is None else out @ chain) @ start
            last = t

    def evaluate(self, t: float, s: float) -> Operator:
        span = next(self._spans([t], s))
        return Operator(np.eye(self.a.dim) if span is None else span, self.a.norm_kind)

    def evaluate_path(self, ts, s: float) -> list:
        """U(t, s) for ascending t samples from one pass over the cells, the spans accumulated."""
        out, cur = [], np.eye(self.a.dim)
        for span in self._spans(ts, s):
            cur = cur if span is None else span @ cur
            out.append(Operator(cur, self.a.norm_kind))
        return out


def _interpolated_cells(a: Operator, family: PerturbationFamily, p: DyadicPartition):
    """The cell source (lo, hi) -> cells of a level of B(t) = phi(t) B0, or None for direct cells.

    Every cell is E(phi_j), E(phi) = e^{delta (A + phi B0)}, an entire function
    of one scalar (Trefethen, ATAP ch. 8; Higham, Functions of Matrices ch. 10).
    The profile is evaluated once per node by profile_values, as values_stack
    evaluates it, for the level's range [c - r, c + r] of phi_j. One
    expm_stack call takes F = E - I at c and at the K Chebyshev points c + r x_k,
    x_k = cos((k + 1/2) pi / K), and the difference F(phi) - F(c), whose
    coefficients are O(z) with z = delta r ||B0||_1, is interpolated. A
    chunk's cells are I + F(c) + T(x_j) coef: one (cells x K) (K x d^2)
    product, T_m the Chebyshev polynomials at x_j = (phi_j - c) / r, with the
    identity added last. K is the least with the scalar truncation bound
    2 (z/2)^K / K! e^z <= u/4, and the interpolant must match the two
    extreme cells, from a second expm_stack call, to _CHECK_ULPS u sqrt(d) 2^s.
    r = 0, a constant profile, makes every cell E(c).

    None where the family has no factor, the level is too small to pay,
    K would pass _INTERP_K_MAX, a node overflows or the check fails.
    """
    factored = family.factor()
    if factored is None or p.cells < max(_INTERP_MIN_CELLS, _INTERP_MIN_CELLS_X_DIM / a.dim):
        return None
    profile, b0, d = factored[0], factored[1].entries, a.dim
    phis = profile_values(profile, p.a + p.delta * np.arange(p.cells))
    lo, hi = float(phis.min()), float(phis.max())
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    z = p.delta * r * norm_of(b0, NormKind.ONE)
    if not z < 1.0:  # past K_MAX's reach, or not finite
        return None
    bound = lambda k: 2.0 * (z / 2.0) ** k / math.factorial(k) * math.exp(z)
    k = next((k for k in range(2, _INTERP_K_MAX + 1) if bound(k) <= _UNIT_ROUNDOFF / 4.0), None)
    if k is None:
        return None

    def generators(phi) -> np.ndarray:
        gens = np.asarray(phi)[:, None, None] * b0
        gens += a.entries
        gens *= p.delta
        return gens

    try:
        if r == 0.0:
            e = expm_stack(generators([c]))[0]
            return lambda i, j: np.broadcast_to(e, (j - i, d, d)).copy()
        xs = np.cos((np.arange(k) + 0.5) * math.pi / k)
        # e^[[X, X], [0, 0]] = [[e^X, e^X - I], [0, I]]: no identity is added into the top right
        # block, so the node differences keep the digits that rounding 1 + F to e^X would lose.
        nodes = np.zeros((k + 1, 2 * d, 2 * d))
        nodes[:, :d, :d] = nodes[:, :d, d:] = generators(np.concatenate([[c], c + r * xs]))
        nodes = expm_stack(nodes, out=nodes)
        checks = generators([lo, hi])
        theta = semigroup._TAYLOR[-1][2]
        squarings = np.exp2(np.ceil(np.log2(np.maximum(norm_stack(checks, NormKind.ONE), theta) / theta)))
        want = expm_stack(checks, out=checks)
    except Overflow:
        return None
    fc, f = nodes[0, :d, d:].copy(), nodes[:, :d, d:]
    # Discrete orthogonality of T_0..T_{K-1} on the K points inverts the interpolation.
    weights = (2.0 / k) * _chebyshev_rows(xs, k).T
    weights[0] *= 0.5
    coef = weights @ (f[1:] - f[0]).reshape(k, d * d)

    def at(x: np.ndarray) -> np.ndarray:
        rows = _chebyshev_rows(x, k)
        # numpy takes gemv for a single row, which sums in another order than gemm does.
        out = ((np.repeat(rows, 2, axis=0) if len(x) == 1 else rows) @ coef)[: len(x)].reshape(-1, d, d)
        out += fc
        # The identity comes last, so the O(1) entries are rounded once, as in expm_stack.
        out.reshape(len(x), -1)[:, :: d + 1] += 1.0
        return out

    err = norm_stack(at(np.array([(lo - c) / r, (hi - c) / r])) - want, NormKind.ONE) / norm_stack(want, NormKind.ONE)
    if not np.all(err <= _CHECK_ULPS * _UNIT_ROUNDOFF * math.sqrt(d) * squarings):
        return None
    return lambda i, j: at((phis[i:j] - c) / r)


def _chebyshev_rows(x: np.ndarray, k: int) -> np.ndarray:
    """(len(x), k) array of T_0(x) .. T_{k-1}(x) by the three-term recurrence, k >= 2."""
    out = np.empty((len(x), k))
    out[:, 0], out[:, 1] = 1.0, x
    for m in range(2, k):
        out[:, m] = 2.0 * x * out[:, m - 1] - out[:, m - 2]
    return out


def _chain_desc(runs) -> np.ndarray:
    """Descending-index product x_{k-1} @ ... @ x_0 of the matrices of consecutive runs.

    A (k, d, d) stack is one run. Bit for bit the flat tree pairing neighbours
    level by level, an odd last item carrying over: its complete subtrees,
    aligned power-of-two pieces, are formed a prefix of at most PRODUCT_BYTES
    at a time and merged like a binary counter; its carries join the
    leftover pieces smallest first.
    """
    parts, count = [], 0  # (size, product), sizes decreasing: a binary counter
    for run in (runs,) if isinstance(runs, np.ndarray) else runs:
        cap = 1 << (max(2, PRODUCT_BYTES // run[0].nbytes).bit_length() - 1)
        while len(run):
            # A prefix's pieces stay aligned while its largest fits the count's lowest bit.
            n = min(len(run), cap, 2 * (count & -count) - 1 if count else cap)
            for size, prod in _pairwise_pieces(run[:n]):
                while parts and parts[-1][0] == size:
                    prod, size = prod @ parts.pop()[1], 2 * size
                parts.append((size, prod))
            run, count = run[n:], count + n
        del run  # no view keeps a finished chunk alive while the next is built
    out = parts.pop()[1]
    while parts:
        out = out @ parts.pop()[1]
    return out


def _pairwise_pieces(block: np.ndarray) -> list:
    """(size, product) of block's power-of-two pieces, largest first, neighbours paired level by level."""
    pieces, size = [], 1
    while len(block):
        m, odd = divmod(len(block), 2)
        if odd:
            pieces.append((size, block[-1].copy()))
        block = np.matmul(block[1 : 2 * m : 2], block[0 : 2 * m : 2])
        size *= 2
    return pieces[::-1]


def euler_polygon(a: Operator, family: PerturbationFamily, n: int) -> EvolutionFamilyApprox:
    """Frozen-coefficient approximation at dyadic level n on the family interval."""
    t0, t1 = family.interval
    return EvolutionFamilyApprox(a, family, DyadicPartition(t0, t1, n))


def oracle_solve(a: Operator, family: PerturbationFamily, t: float, s: float, rk_steps: int = 256) -> Operator:
    """Classical fourth-order Runge-Kutta for M'(tau) = (A + B(tau)) M(tau), M(s) = I.

    Independent of the polygon scheme; used as a reference solution. The
    equation is linear, so step i is M <- S_i M with
    S_i = I + h/6 (k1 + 2 k2 + 2 k3 + k4), k1 = G0, k2 = Gm (I + h/2 k1),
    k3 = Gm (I + h/2 k2), k4 = G1 (I + h k3) at the step's left, middle and
    right stage times. The S_i are built a block of steps at a time, each
    block's (steps, d, d) arrays within BLOCK_BYTES, and folded into M with
    _chain_desc. A step outside RK4's stability region grows M until it is
    not finite; that raises Overflow naming rk_steps.
    """
    t0, t1 = family.interval
    if not (t0 <= s <= t1 and t0 <= t <= t1):
        raise OutOfInterval(f"(t, s)=({t}, {s}) outside [{t0}, {t1}]")
    if t < s:
        raise PreconditionViolated(f"oracle wants t >= s, got t={t} < s={s}")
    steps = max(64, int(rk_steps))
    m = eye = np.eye(a.dim)
    if t == s:
        return Operator(m, a.norm_kind)
    h = (t - s) / steps
    # Stage times land on a half-step grid.
    taus = np.linspace(s, t, 2 * steps + 1)
    per_block = max(1, BLOCK_BYTES // (8 * a.dim * a.dim))
    for i in range(0, steps, per_block):
        gens = family.values_stack(taus[2 * i : 2 * min(i + per_block, steps) + 1])
        gens += a.entries
        g0, gm, g1 = gens[:-1:2], gens[1::2], gens[2::2]
        with np.errstate(over="ignore", invalid="ignore"):
            k2 = gm @ (eye + h / 2.0 * g0)
            k3 = gm @ (eye + h / 2.0 * k2)
            k4 = g1 @ (eye + h * k3)
            m = _chain_desc(eye + h / 6.0 * (g0 + 2.0 * k2 + 2.0 * k3 + k4)) @ m
        if not np.isfinite(m).all():
            raise Overflow(
                f"RK4 with rk_steps={steps} overflows doubles on [{s!r}, {t!r}]: "
                f"step {h:.3e} leaves its stability region; take more rk_steps"
            )
    return Operator(m, a.norm_kind)


def product_difference_bound(a_factors, b_factors):
    """Difference of two N-term products against its telescoping bound.

    Products are composed in decreasing index order. Returns (lhs, rhs) with
    lhs = ||prod a - prod b|| and rhs = N delta K^{N-1}, where K is the
    largest factor norm over both lists clamped to at least 1 and delta the
    largest pairwise factor difference. Callers assert lhs <= rhs.
    """
    n = len(a_factors)
    if n != len(b_factors):
        raise DimensionMismatch("factor lists must have equal length")
    if n < 1:
        raise PreconditionViolated("product bound wants at least one factor")
    ref = a_factors[0]
    for f in list(a_factors) + list(b_factors):
        ref._check(f)
    k = max(1.0, max(op_norm(f) for f in list(a_factors) + list(b_factors)))
    delta = max(op_norm(fa - fb) for fa, fb in zip(a_factors, b_factors))
    prod_a = _chain_desc(np.stack([f.entries for f in a_factors]))
    prod_b = _chain_desc(np.stack([f.entries for f in b_factors]))
    lhs = norm_of(prod_a - prod_b, ref.norm_kind)
    return float(lhs), float(n * delta * k ** (n - 1))


@dataclass(frozen=True)
class RefineResult:
    """Outcome of dyadic refinement down to a target Cauchy increment.

    probe_values are the final level's U(t_k, t0) at the 16 probe times
    t_k = t0 + k (t1 - t0) / 16, and full_span is the last, U(t1, t0).
    """

    approx: EvolutionFamilyApprox
    levels: tuple
    achieved_delta: float
    omega1: float
    probe_values: tuple
    full_span: Operator


def refine_to_tolerance(
    a: Operator, family: PerturbationFamily, gb: GrowthBound, tol: float, n_max: int = 14,
    anorm: ANormEvaluator | None = None,
) -> RefineResult:
    """Refine the dyadic level until successive approximations differ by <= tol.

    The increment between levels n and n+1 is measured as the max difference
    of U(t, t0) over 16 equispaced probe times t in (t0, t1], from one
    evaluate_path fold per level. Stops once two consecutive increments sit
    below tol, guarding against accidental zeros on coarse dyadic grids.
    Each level also records the a-priori bound (b - a) e^{4 omega1} Omega_n,
    inf where e^{4 omega1} exceeds doubles. tol <= 0 or NaN, which no level
    meets, and n_max > MAX_LEVEL, which no partition reaches, are refused
    before level 0.
    """
    if not tol > 0.0:
        raise PreconditionViolated(f"refine_to_tolerance wants tol > 0, got {tol!r}")
    if n_max > MAX_LEVEL:
        raise PreconditionViolated(f"refine_to_tolerance wants n_max <= MAX_LEVEL = {MAX_LEVEL}, got {n_max}")
    t0, t1 = family.interval
    evaluator = anorm or ANormEvaluator(a, gb)
    omega1 = float(family.sup_anorm(evaluator))
    try:
        growth = (t1 - t0) * math.exp(4.0 * omega1)
    except OverflowError:  # beyond doubles; the stop rule never reads the bound
        growth = math.inf
    ts = np.linspace(t0, t1, 17)[1:]
    cur = euler_polygon(a, family, 0)
    cur_vals = tuple(cur.evaluate_path(ts, t0))
    # A family constant in ||.||_A is propagated exactly at level 0.
    if family.modulus(t1 - t0, evaluator) == 0.0:
        return RefineResult(cur, ((0, 0.0, 0.0, 0.0),), 0.0, omega1, cur_vals, cur_vals[-1])
    levels = []
    below = 0
    for n in range(1, n_max + 1):
        prev_vals = cur_vals
        cur = euler_polygon(a, family, n)
        cur_vals = tuple(cur.evaluate_path(ts, t0))
        diffs = np.stack([u.entries for u in cur_vals]) - np.stack([u.entries for u in prev_vals])
        delta = norm_stack(diffs, a.norm_kind).max()
        omega_n = family.modulus((t1 - t0) * 2.0 ** (-n), evaluator)
        bound = growth * omega_n
        levels.append((n, float(delta), float(omega_n), float(bound)))
        below = below + 1 if delta <= tol else 0
        if below >= 2:
            return RefineResult(cur, tuple(levels), float(delta), omega1, cur_vals, cur_vals[-1])
    last = f"last increment {levels[-1][1]:.3e} at level {levels[-1][0]}" if levels else "no level refined"
    raise ToleranceNotReached(
        f"tol {tol:.3e} not met at two levels in a row by level {n_max}; {last}",
        best_delta=min(lv[1] for lv in levels) if levels else float("inf"),
        levels=tuple(levels),
    )


def verify_generator_derivative(u: EvolutionFamilyApprox, s: float) -> list:
    """Residuals of both one-sided derivative identities at time s.

    Returns (h, forward_residual, adjoint_residual) triples for h = 1e-2,
    1e-3 and 1e-4, with forward = ||(U(s+h, s) - I)/h - (A + B(s))|| and
    adjoint = ||(U(b, s) - U(b, s+h))/h - U(b, s)(A + B(s))||, the second
    tested against the full-span propagator. Both shrink linearly in h
    (frozen-cell expansion error plus the modulus of B).
    """
    gen = u.a.entries + u.family(s).entries
    eye = np.eye(u.a.dim)
    b_end = u.partition.b
    u_bs = u.evaluate(b_end, s).entries
    out = []
    for h in (1e-2, 1e-3, 1e-4):
        forward = (u.evaluate(s + h, s).entries - eye) / h
        adjoint = (u_bs - u.evaluate(b_end, s + h).entries) / h
        out.append((
            float(h),
            float(norm_of(forward - gen, u.a.norm_kind)),
            float(norm_of(adjoint - u_bs @ gen, u.a.norm_kind)),
        ))
    return out


def family_from_spec(config: dict, norm_kind: NormKind = NormKind.TWO) -> PerturbationFamily:
    """Build a family from a plain-dict description (CLI config files).

    kinds: constant {interval, entries}, sinusoid {interval, entries,
    amplitude?, frequency?, phase?}, piecewise {nodes, mats},
    tabulated {path}.
    """
    kind = config.get("kind")
    if kind == "constant":
        b0 = Operator(np.asarray(config["entries"], dtype=float), norm_kind)
        return ConstantFamily(tuple(config["interval"]), b0)
    if kind == "sinusoid":
        b0 = Operator(np.asarray(config["entries"], dtype=float), norm_kind)
        amp = float(config.get("amplitude", 1.0))
        freq = float(config.get("frequency", 1.0))
        phase = float(config.get("phase", 0.0))
        return ScaledProfileFamily(tuple(config["interval"]), Sinusoid(freq, phase, amp), b0)
    if kind == "piecewise":
        mats = [Operator(np.asarray(m, dtype=float), norm_kind) for m in config["mats"]]
        return PiecewiseLinearFamily(config["nodes"], mats)
    if kind == "tabulated":
        return TabulatedFamily(config["path"], norm_kind)
    raise PreconditionViolated(f"unknown family kind {kind!r}")
