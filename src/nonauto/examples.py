"""Finite-difference model problems: upwind transport and a heat generator.

Both live on cell-centered grids and carry the induced 1-norm, where they are
contractions: their 1-norm logarithmic norm, for these Metzler matrices the
largest column sum, is at most 0. The heat resolvent also has a closed
Green's-kernel form whose discrete 1-norm is at most 1/mu. A spiky multiplier
b(x) = sum_n n^2 1_[n, n+n^{-4}](x), truncated at n_max, provides a
perturbation that is pointwise large while its grid 1-mass stays near
sum n^{-2}: spikes narrower than a cell are reported as unresolved rather
than silently dropped.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainTooSmall, PreconditionViolated
from .evofam import ScaledProfileFamily, oracle_solve, refine_to_tolerance
from .linop import NormKind, Operator, _shifted_solves, log_norm, norm_of
from .metrics import AssumptionReport, check_assumptions
from .profiles import Sinusoid
from .semigroup import GrowthBound, envelope_ratios

CONTRACTION_SLACK = 1e-10
NO_GROWTH_FACTOR = 1.5
# The contraction check samples ||e^{tA}|| at t = n CONTRACTION_STEP: 0.1, 1 and 5.
CONTRACTION_STEP = 0.1
CONTRACTION_COUNTS = (1, 10, 50)
REDUCED_POINTS = 256
# The heat pipeline refines on a grid of at most PIPELINE_POINTS cells to
# PIPELINE_TOL within PIPELINE_MAX_LEVEL levels: at 128 cells and tolerance
# 1e-3 the increments first fall below the tolerance at levels 12 and 13
# (6.9e-4 and 3.5e-4; 1.4e-3 at level 11).
PIPELINE_POINTS = 128
PIPELINE_TOL = 1e-3
PIPELINE_MAX_LEVEL = 13


class Domain(enum.Enum):
    """Spatial domain of a grid: [0, L] or [-L/2, L/2]."""

    HALF_LINE = "half-line"
    LINE = "line"

    @classmethod
    def parse(cls, text: str) -> "Domain":
        for member in cls:
            if member.value == text:
                return member
        raise PreconditionViolated(f"unknown domain {text!r}; use 'half-line' or 'line'")


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered uniform grid with N cells of width h = L/N."""

    length: float
    points: int
    domain: Domain

    def __post_init__(self):
        if not (0.0 < self.length < math.inf):
            raise PreconditionViolated(f"grid length must be positive and finite, got {self.length!r}")
        if self.points < 2:
            raise PreconditionViolated("grid needs at least 2 cells")

    @property
    def h(self) -> float:
        return self.length / self.points

    @property
    def left(self) -> float:
        return 0.0 if self.domain is Domain.HALF_LINE else -self.length / 2.0

    def centers(self) -> np.ndarray:
        return self.left + (np.arange(self.points) + 0.5) * self.h

    def coarsened(self, max_points: int) -> "GridSpec":
        """Same domain with the cell count capped (for dense-only diagnostics)."""
        if self.points <= max_points:
            return self
        return GridSpec(self.length, max_points, self.domain)


def _stencil(which: str, g: GridSpec) -> dict:
    """Diagonals {offset: value} of the named model generator on grid g: the one source of its entries.

    A cell width whose entries are not finite doubles is refused.
    """
    if which not in ("translation", "heat"):
        raise PreconditionViolated(f"unknown example {which!r}")
    h = g.h
    try:
        if which == "translation":
            stencil = {-1: 1.0 / h, 0: -1.0 / h}
        else:
            stencil = {-1: 1.0 / h**2, 0: -2.0 / h**2, 1: 1.0 / h**2}
        finite = all(map(math.isfinite, stencil.values()))
    except (ZeroDivisionError, OverflowError):
        finite = False
    if not finite:
        raise PreconditionViolated(f"the {which} stencil's entries on cells of width {h!r} are not finite doubles")
    return stencil


def _stencil_matrix(stencil: dict, n: int) -> np.ndarray:
    """The dense n x n matrix with the given diagonals {offset: value} and zeros elsewhere."""
    m = np.zeros((n, n))
    for k, v in stencil.items():
        np.fill_diagonal(m[:, k:] if k >= 0 else m[-k:], v)
    return m


def build_translation_generator(g: GridSpec) -> Operator:
    """Upwind discretization of -d/dx on [0, L] with absorbing inflow.

    (Gf)_i = -(f_i - f_{i-1})/h with f_{-1} = 0; lower bidiagonal. Mass
    leaves through the right boundary only, so e^{tG} is substochastic and
    the induced 1-norm of the flow never exceeds 1.
    """
    if g.domain is not Domain.HALF_LINE:
        raise PreconditionViolated("translation generator lives on the half-line")
    return Operator(_stencil_matrix(_stencil("translation", g), g.points), NormKind.ONE)


def build_heat_generator(g: GridSpec) -> Operator:
    """Second-difference Laplacian on [-L/2, L/2] with Dirichlet closure."""
    if g.domain is not Domain.LINE:
        raise PreconditionViolated("heat generator lives on the symmetric line")
    return Operator(_stencil_matrix(_stencil("heat", g), g.points), NormKind.ONE)


def _green(g: GridSpec, mu: float, x: np.ndarray, y) -> np.ndarray:
    """h e^{-sqrt(mu) |x - y|} / (2 sqrt(mu)): the heat resolvent's Green kernel between points x and y."""
    if not 0.0 < mu < math.inf:
        raise PreconditionViolated(f"Green kernel needs a finite mu > 0, got {mu!r}")
    root = math.sqrt(mu)
    return g.h * np.exp(-root * np.abs(x - y)) / (2.0 * root)


def heat_resolvent_green(g: GridSpec, mu: float) -> Operator:
    """Midpoint quadrature of the whole-line heat resolvent kernel.

    K_ij = h e^{-sqrt(mu) |x_i - x_j|} / (2 sqrt(mu)); columns integrate the
    kernel, so the induced 1-norm is at most 1/mu up to quadrature and
    domain-truncation error.
    """
    x = g.centers()
    return Operator(_green(g, mu, x[:, None], x[None, :]), NormKind.ONE)


def heat_green_column_sums(g: GridSpec, mu: float) -> np.ndarray:
    """Column sums of heat_resolvent_green(g, mu) from its first column, in O(points).

    On the uniform grid K_ij = f(|i - j|) with f = K[:, 0], so column j sums to
    c[j] + c[n-1-j] - f(0) for c = cumsum(f). K >= 0, so the largest sum is its
    induced 1-norm.
    """
    x = g.centers()
    f = _green(g, mu, x, x[0])
    c = np.cumsum(f)
    return c + c[::-1] - f[0]


@dataclass(frozen=True)
class SpikyMultiplier:
    """Grid samples of the truncated spike sum with resolution bookkeeping.

    unresolved lists spike indices whose width n^{-4} is below the cell width;
    those spikes may be missed entirely by cell centers. mass is the discrete
    1-mass h sum b(x_i).
    """

    n_max: int
    values: np.ndarray
    unresolved: tuple
    mass: float

    def operator(self) -> Operator:
        """The multiplier as a dense diagonal Operator in the induced 1-norm."""
        return Operator(np.diag(self.values), NormKind.ONE)


def _spike_sum(x: np.ndarray, n_max: int) -> np.ndarray:
    out = np.zeros_like(x)
    for n in range(1, n_max + 1):
        width = float(n) ** -4
        out += n**2 * ((x >= n) & (x <= n + width))
    return out


def build_spiky_b(g: GridSpec, n_max: int, mirror: bool = False) -> SpikyMultiplier:
    """Diagonal multiplier from the truncated spike sum, optionally mirrored.

    Only the grid samples are kept; SpikyMultiplier.operator() materializes
    the dense diagonal where a dense diagnostic needs it. mirror adds b(-x)
    and needs the symmetric line domain.
    """
    if n_max < 1:
        raise PreconditionViolated("n_max must be at least 1")
    if mirror and g.domain is not Domain.LINE:
        raise PreconditionViolated("mirrored multiplier needs the line domain")
    reach = n_max + 1.0
    right = g.left + g.length
    if right < reach:
        raise DomainTooSmall(f"domain ends at {right}, spikes reach {reach}")
    x = g.centers()
    values = _spike_sum(x, n_max)
    if mirror:
        values = values + _spike_sum(-x, n_max)
    unresolved = tuple(n for n in range(1, n_max + 1) if g.h >= float(n) ** -4)
    return SpikyMultiplier(n_max=n_max, values=values, unresolved=unresolved, mass=float(g.h * values.sum()))


def scaled_resolvent_sweep(which: str, g: GridSpec, b_values: np.ndarray, mus) -> list:
    """mu ||B R(mu, G)||_1 for diagonal B >= 0, via banded solves.

    G is Metzler with mu_1(G) <= 0, so for mu > 0 mu I - G is a nonsingular
    M-matrix (strictly column diagonally dominant), R(mu, G) >= 0 and the
    induced 1-norm of B R is the largest entry of (mu I - G)^{-T} b: one
    block-diagonal band solve per chunk of mus (linop._shifted_solves).
    This never forms a dense matrix and scales to fine grids.
    """
    b = np.asarray(b_values, dtype=float)
    if b.shape != (g.points,) or not np.all((b >= 0.0) & (b < math.inf)):
        raise PreconditionViolated("sweep wants a finite nonnegative diagonal of grid length")
    transpose = {-k: v for k, v in _stencil(which, g).items()}
    mus = [float(mu) for mu in mus]
    for mu in mus:
        if not 0.0 < mu < math.inf:
            raise PreconditionViolated(f"sweep needs finite mu > 0, got mu={mu}")
    maxima = [m for x in _shifted_solves(transpose, np.array(mus), g.points, b) for m in x.max(axis=1)]
    return [(mu, float(mu * m)) for mu, m in zip(mus, maxima)]


def decade_maxima(samples) -> list:
    """Max of the scaled sweep per decade [10^k, 10^{k+1}) of mu."""
    buckets: dict = {}
    for mu, v in samples:
        k = math.floor(math.log10(mu) + 1e-12)
        buckets[k] = max(buckets.get(k, 0.0), v)
    return [(10.0**k, buckets[k]) for k in sorted(buckets)]


def no_growth(decades) -> tuple:
    """(passed, last, middle): the last decade maximum against NO_GROWTH_FACTOR x the middle one's."""
    middle = decades[len(decades) // 2][1]
    last = decades[-1][1]
    return bool(last <= NO_GROWTH_FACTOR * middle), last, middle


@dataclass(frozen=True)
class ExampleReport:
    """Outcome of the bound checks for one model problem."""

    which: str
    grid: GridSpec
    multiplier: SpikyMultiplier
    contraction_pass: bool
    contraction_norms: tuple
    sweep: tuple
    fitted_k: float
    decades: tuple
    no_growth_pass: bool
    assumptions: AssumptionReport
    pipeline_levels: tuple | None
    pipeline_agreement: float | None


def build_generator(which: str, g: GridSpec) -> Operator:
    """The named model generator ("translation" or "heat") on grid g; any other name raises PreconditionViolated."""
    builders = {"translation": build_translation_generator, "heat": build_heat_generator}
    if which not in builders:
        raise PreconditionViolated(f"unknown example {which!r}")
    return builders[which](g)


def verify_example_bounds(which: str, g: GridSpec, n_max: int, pipeline: bool) -> ExampleReport:
    """Check the model-problem bounds: contraction, bounded scaled sweep, assumptions.

    The sweep mu ||B R(mu, G)||_1 runs over [1, 10^K] at 20 points per
    decade and full grid resolution via banded solves; its fitted constant is
    the sweep maximum and the no-growth verdict is no_growth of its decade
    maxima. Dense diagnostics (contraction norms, continuity and derivative
    assumptions for sin(t) B, and for the heat problem the
    polygon-vs-integrator pipeline) run on a grid capped at REDUCED_POINTS
    or PIPELINE_POINTS cells.
    """
    gr = g.coarsened(REDUCED_POINTS)
    a_r = build_generator(which, gr)  # refuses an unknown name before any work
    mirror = which == "heat"
    multiplier = build_spiky_b(g, n_max, mirror=mirror)
    # The sweep stops growing once the resolvent kernel, of width mu^(-1/order),
    # is narrower than the narrowest spike n_max^-4: from mu_s = n_max^(4 order)
    # on. K is the smallest K >= 4 whose middle decade, the one no_growth reads,
    # starts at or past mu_s.
    order = 1 if which == "translation" else 2
    k = 4
    while 10 ** ((k + 1) // 2) < n_max ** (4 * order):
        k += 1
    mus = np.geomspace(1.0, 10.0**k, 20 * k + 1)
    sweep = scaled_resolvent_sweep(which, g, multiplier.values, mus)
    fitted_k = max(v for _, v in sweep)
    decades = decade_maxima(sweep)
    bounded = no_growth(decades)[0]

    # Dense diagnostics at reduced resolution; both generators carry the
    # Lumer-Phillips certificate (M, omega0) = (1, 0): mu_1(G) <= 0.
    dissipative = log_norm(a_r.entries, NormKind.ONE) <= 1e-9 / gr.h
    ratios = envelope_ratios(a_r, CONTRACTION_STEP, CONTRACTION_COUNTS, 0.0)
    norms = tuple((n * CONTRACTION_STEP, float(v)) for n, v in zip(CONTRACTION_COUNTS, ratios))
    contraction = bool(dissipative and all(v <= 1.0 + CONTRACTION_SLACK for _, v in norms))
    gb = GrowthBound(m=1.0, omega0=0.0)
    family_r = ScaledProfileFamily((0.0, 2.0 * math.pi), Sinusoid(), build_spiky_b(gr, n_max, mirror=mirror).operator())
    assumptions = check_assumptions(family_r, a_r, gb)

    pipeline_levels = None
    pipeline_agreement = None
    if pipeline and which == "heat":
        gp = g.coarsened(PIPELINE_POINTS)
        a_p = build_generator(which, gp)
        family = ScaledProfileFamily((0.0, 2.0 * math.pi), Sinusoid(), build_spiky_b(gp, n_max, mirror=True).operator())
        refined = refine_to_tolerance(a_p, family, gb, tol=PIPELINE_TOL, n_max=PIPELINE_MAX_LEVEL)
        reference = oracle_solve(a_p, family, 2.0 * math.pi, 0.0)
        diff = refined.full_span.entries - reference.entries
        pipeline_levels = refined.levels
        pipeline_agreement = float(norm_of(diff, a_p.norm_kind))

    return ExampleReport(
        which=which,
        grid=g,
        multiplier=multiplier,
        contraction_pass=contraction,
        contraction_norms=norms,
        sweep=tuple(sweep),
        fitted_k=float(fitted_k),
        decades=tuple(decades),
        no_growth_pass=bounded,
        assumptions=assumptions,
        pipeline_levels=pipeline_levels,
        pipeline_agreement=pipeline_agreement,
    )
