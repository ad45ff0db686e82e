"""Model problems: transport and heat generators, spiky multiplier, sweeps."""
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from nonauto import (
    DomainTooSmall,
    GrowthBound,
    NormKind,
    Operator,
    PreconditionViolated,
    a_norm,
    build_heat_generator,
    build_spiky_b,
    build_translation_generator,
    decade_maxima,
    expm,
    heat_green_column_sums,
    heat_resolvent_green,
    op_norm,
    resolvent,
    scaled_resolvent_sweep,
    verify_example_bounds,
)
from nonauto import examples, linop
from nonauto.examples import Domain, GridSpec, _stencil, build_generator
from nonauto.linop import log_norm, shifted_band

from oracles import SPIKE_MASS_3
from test_acceptance import _child_env
from test_linop import record_band_calls


class TestGridSpec:
    def test_domain_parse(self):
        assert Domain.parse("half-line") is Domain.HALF_LINE
        assert Domain.parse("line") is Domain.LINE
        with pytest.raises(PreconditionViolated):
            Domain.parse("circle")

    def test_geometry(self):
        g = GridSpec(8.0, 4, Domain.HALF_LINE)
        assert g.h == 2.0
        assert np.allclose(g.centers(), [1.0, 3.0, 5.0, 7.0])
        sym = GridSpec(8.0, 4, Domain.LINE)
        assert np.allclose(sym.centers(), [-3.0, -1.0, 1.0, 3.0])

    def test_guards(self):
        with pytest.raises(PreconditionViolated):
            GridSpec(0.0, 4, Domain.LINE)
        with pytest.raises(PreconditionViolated):
            GridSpec(1.0, 1, Domain.LINE)

    def test_coarsened(self):
        g = GridSpec(8.0, 1024, Domain.LINE)
        assert g.coarsened(256).points == 256
        assert g.coarsened(2048) is g


class TestGenerators:
    def test_translation_stencil(self):
        g = GridSpec(8.0, 2, Domain.HALF_LINE)
        op = build_translation_generator(g)
        assert op.norm_kind is NormKind.ONE
        assert np.allclose(op.entries, [[-0.25, 0.0], [0.25, -0.25]])

    def test_translation_needs_half_line(self):
        with pytest.raises(PreconditionViolated):
            build_translation_generator(GridSpec(8.0, 4, Domain.LINE))

    def test_heat_stencil(self):
        g = GridSpec(3.0, 3, Domain.LINE)
        op = build_heat_generator(g)
        assert np.allclose(op.entries, [[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])

    def test_heat_needs_line(self):
        with pytest.raises(PreconditionViolated):
            build_heat_generator(GridSpec(8.0, 4, Domain.HALF_LINE))

    @pytest.mark.parametrize("points", [2, 3, 17, 64, 255, 2048])
    def test_builders_write_the_difference_formulas(self, points):
        # Each builder's matrix is its dense difference formula, bit for bit, signs of zeros included.
        h = 8.0 / points
        translation = (-np.eye(points) + np.eye(points, k=-1)) / h
        heat = (np.eye(points, k=-1) - 2.0 * np.eye(points) + np.eye(points, k=1)) / h**2
        got = build_translation_generator(GridSpec(8.0, points, Domain.HALF_LINE)).entries
        assert got.tobytes() == translation.tobytes()
        assert build_heat_generator(GridSpec(8.0, points, Domain.LINE)).entries.tobytes() == heat.tobytes()

    @pytest.mark.parametrize("build, domain, length", [
        (build_heat_generator, Domain.LINE, 1e-300),
        (build_heat_generator, Domain.LINE, 1e300),
        (build_translation_generator, Domain.HALF_LINE, 1e-310),
    ])
    def test_stencil_beyond_doubles_refused(self, build, domain, length):
        # h**2 underflows to 0 at L = 1e-300 and overflows at 1e300; 1 / h overflows at 1e-310.
        with pytest.raises(PreconditionViolated, match="not finite doubles"):
            build(GridSpec(length, 64, domain))

    def test_unknown_generator_refused(self):
        # An unknown name used to build the heat generator.
        with pytest.raises(PreconditionViolated, match="unknown example 'advection'"):
            build_generator("advection", GridSpec(8.0, 64, Domain.LINE))

    @pytest.mark.parametrize("which", ["translation", "heat"])
    def test_flows_are_contractions(self, which):
        if which == "translation":
            op = build_translation_generator(GridSpec(8.0, 64, Domain.HALF_LINE))
        else:
            op = build_heat_generator(GridSpec(8.0, 64, Domain.LINE))
        for t in (0.1, 1.0, 5.0):
            assert op_norm(expm(t * op)) <= 1.0 + 1e-10


class TestHeatGreenKernel:
    def test_column_mass_bounded(self):
        mu = 4.0
        g = GridSpec(40.0 / math.sqrt(mu), 512, Domain.LINE)
        k = heat_resolvent_green(g, mu)
        assert op_norm(k) <= (1.0 / mu) * (1.0 + 1e-3)

    def test_interior_column_integrates_kernel(self):
        # away from the boundary the column sum approximates
        # int e^{-sqrt(mu)|x|}/(2 sqrt(mu)) dx = 1/mu
        mu = 1.0
        g = GridSpec(60.0, 1200, Domain.LINE)
        k = heat_resolvent_green(g, mu)
        mid = g.points // 2
        # midpoint rule across the kernel cusp at x = 0 leaves an O(h^2) excess
        assert mu * k.entries[:, mid].sum() == pytest.approx(1.0, rel=5e-4)

    def test_matches_discrete_resolvent_in_the_bulk(self):
        # the Green quadrature and the discrete (mu I - A)^{-1} agree on
        # interior columns once the grid resolves the kernel
        mu = 1.0
        g = GridSpec(40.0, 800, Domain.LINE)
        green = heat_resolvent_green(g, mu)
        disc = resolvent(build_heat_generator(g), mu)
        mid = g.points // 2
        diff = np.abs(green.entries[:, mid] - disc.entries[:, mid]).sum()
        assert diff <= 1e-3 / mu

    def test_mu_guard(self):
        # A non-finite mu is refused before it builds a NaN kernel.
        for fn in (heat_resolvent_green, heat_green_column_sums):
            for mu in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(PreconditionViolated):
                    fn(GridSpec(8.0, 16, Domain.LINE), mu)

    @pytest.mark.parametrize("domain", list(Domain))
    @pytest.mark.parametrize("points", [2, 3, 7, 512, 2047, 2048])
    def test_column_sums_match_the_dense_kernel(self, points, domain):
        # The row-based sums and the dense kernel's sum in different orders, so
        # they agree to rounding (6.6e-15 was the largest gap seen), not bit for bit.
        for mu in (0.25, 1.0, 4.0, 16.0):
            g = GridSpec(40.0 / math.sqrt(mu), points, domain)
            kernel = heat_resolvent_green(g, mu)
            sums = heat_green_column_sums(g, mu)
            np.testing.assert_allclose(sums, kernel.entries.sum(axis=0), rtol=1e-13, atol=0.0)
            assert sums.max() == pytest.approx(op_norm(kernel), rel=1e-13)


class TestSpikyMultiplier:
    def test_single_spike_support(self):
        g = GridSpec(8.0, 8192, Domain.HALF_LINE)
        mult = build_spiky_b(g, 1)
        x = g.centers()
        inside = (x >= 1.0) & (x <= 2.0)
        assert set(np.unique(mult.values[inside])) == {1.0}
        assert np.all(mult.values[~inside] == 0.0)
        # The dense diagonal on a grid small enough to build (8192 cells is 512 MiB).
        small = build_spiky_b(GridSpec(8.0, 64, Domain.HALF_LINE), 1)
        assert np.allclose(np.diag(small.operator().entries), small.values)

    def test_peak_value_when_resolved(self):
        # spike 3 has width 3^-4 = 1/81; h < 1/81 resolves it and the peak 9
        g = GridSpec(8.0, 2**16, Domain.HALF_LINE)
        mult = build_spiky_b(g, 3)
        assert mult.values.max() == 9.0
        assert mult.unresolved == ()

    def test_unresolved_spikes_reported(self):
        g = GridSpec(8.0, 64, Domain.HALF_LINE)  # h = 1/8 > 2^-4 > 3^-4
        mult = build_spiky_b(g, 3)
        assert mult.unresolved == (2, 3)

    def test_mass_converges_to_partial_zeta(self):
        g = GridSpec(8.0, 2**18, Domain.HALF_LINE)
        mult = build_spiky_b(g, 3)
        # midpoint rule error per spike n is at most 2 h n^2
        assert mult.mass == pytest.approx(SPIKE_MASS_3, abs=2.0 * g.h * 9.0 * 3.0)

    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmall):
            build_spiky_b(GridSpec(3.0, 64, Domain.HALF_LINE), 3)

    def test_mirror_needs_line(self):
        with pytest.raises(PreconditionViolated):
            build_spiky_b(GridSpec(8.0, 64, Domain.HALF_LINE), 1, mirror=True)

    def test_mirror_symmetric(self):
        g = GridSpec(10.0, 500, Domain.LINE)
        mult = build_spiky_b(g, 2, mirror=True)
        assert np.allclose(mult.values, mult.values[::-1])

    def test_nmax_guard(self):
        with pytest.raises(PreconditionViolated):
            build_spiky_b(GridSpec(8.0, 64, Domain.HALF_LINE), 0)


class TestScaledResolventSweep:
    @pytest.mark.parametrize("which", ["translation", "heat"])
    def test_matches_dense_resolvent(self, which):
        if which == "translation":
            g = GridSpec(8.0, 64, Domain.HALF_LINE)
            gen = build_translation_generator(g)
        else:
            g = GridSpec(8.0, 64, Domain.LINE)
            gen = build_heat_generator(g)
        # The sweep's premise: G is Metzler with mu_1(G) <= 0, so mu I - G is a
        # nonsingular M-matrix and R >= 0 for every mu > 0. The reference |B R|
        # below does not assume it.
        off = gen.entries - np.diag(np.diag(gen.entries))
        assert (off >= 0.0).all() and log_norm(gen.entries, NormKind.ONE) <= 0.0
        rng = np.random.default_rng(4)
        b = rng.uniform(0.0, 2.0, g.points)
        mus = [0.5, 1.0, 3.0, 40.0, 1e4, 1e7]
        rows = scaled_resolvent_sweep(which, g, b, mus)
        for (mu, got) in rows:
            dense = np.diag(b) @ resolvent(gen, mu).entries
            ref = mu * np.abs(dense).sum(axis=0).max()
            assert got == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("points", [128, 256, 2048, 4096])
    @pytest.mark.parametrize("which", ["translation", "heat"])
    def test_stacked_solves_equal_one_mu_calls(self, which, points):
        # One gtsv or gbsv call per chunk of BLOCK_BYTES of band storage gives every mu's
        # solution to the bit, on 141 mus (the heat sweep's grid at n_max = 3), which no
        # chunk length divides.
        g = GridSpec(8.0, points, Domain.HALF_LINE if which == "translation" else Domain.LINE)
        b = build_spiky_b(g, 3, mirror=which == "heat").values
        transpose = {-k: v for k, v in _stencil(which, g).items()}
        mus = np.geomspace(1.0, 1e7, 141)
        step = linop.BLOCK_BYTES // (8 * len(transpose) * points)
        assert step < 141 and 141 % step
        want = np.array([scipy.linalg.solve_banded(*shifted_band(transpose, mu, points), b) for mu in mus])
        assert np.array_equal(np.concatenate(list(linop._shifted_solves(transpose, mus, points, b))), want)
        assert scaled_resolvent_sweep(which, g, b, mus) == [(float(mu), float(mu * x.max())) for mu, x in zip(mus, want)]

    @pytest.mark.parametrize("which", ["translation", "heat"])
    def test_overflowing_block_is_solved_alone(self, which):
        # With b = 3e306 on every cell the solutions at mu = 1e-4 and 1e-5 overflow; the stacked
        # solve's 0 * inf would write NaN into the neighbouring blocks, which are solved again alone.
        g = GridSpec(8.0, 64, Domain.HALF_LINE if which == "translation" else Domain.LINE)
        transpose = {-k: v for k, v in _stencil(which, g).items()}
        b, mus = np.full(64, 3e306), np.array([2.0, 1e-4, 3.0, 1e-5, 4.0, 5.0])
        got = np.concatenate(list(linop._shifted_solves(transpose, mus, 64, b)))
        want = np.array([scipy.linalg.solve_banded(*shifted_band(transpose, mu, 64), b) for mu in mus])
        assert np.array_equal(np.isfinite(got).all(axis=1), [True, False, True, False, True, True])
        assert np.array_equal(got, want, equal_nan=True)

    def test_guards(self):
        g = GridSpec(8.0, 16, Domain.HALF_LINE)
        with pytest.raises(PreconditionViolated):
            scaled_resolvent_sweep("translation", g, np.ones(8), [1.0])
        with pytest.raises(PreconditionViolated):
            scaled_resolvent_sweep("translation", g, -np.ones(16), [1.0])
        for mu in (0.0, math.nan, math.inf):
            with pytest.raises(PreconditionViolated):
                scaled_resolvent_sweep("translation", g, np.ones(16), [mu])
        for bad in (math.nan, math.inf):
            b = np.ones(16)
            b[3] = bad
            with pytest.raises(PreconditionViolated):
                scaled_resolvent_sweep("translation", g, b, [1.0])
        with pytest.raises(PreconditionViolated):
            scaled_resolvent_sweep("advection", g, np.ones(16), [1.0])


class TestDecadeMaxima:
    def test_bucketing(self):
        rows = [(2.0, 1.0), (5.0, 3.0), (20.0, 2.0), (500.0, 7.0)]
        assert decade_maxima(rows) == [(1.0, 3.0), (10.0, 2.0), (100.0, 7.0)]


class TestANormHomogeneity:
    def test_profile_scales_anorm(self):
        g = GridSpec(8.0, 48, Domain.HALF_LINE)
        gen = build_translation_generator(g)
        b = build_spiky_b(g, 1).operator()
        gb = GrowthBound(1.0, 0.0)
        base = a_norm(b, gen, gb).value
        scaled = a_norm(Operator(math.sin(1.0) * b.entries, NormKind.ONE), gen, gb).value
        assert scaled == pytest.approx(abs(math.sin(1.0)) * base, rel=1e-10)


class TestVerifyExampleBounds:
    def test_translation_report(self):
        g = GridSpec(8.0, 256, Domain.HALF_LINE)
        report = verify_example_bounds("translation", g, n_max=2, pipeline=False)
        assert report.contraction_pass
        assert report.no_growth_pass
        assert report.assumptions.a1_pass and report.assumptions.a2_pass
        assert report.fitted_k > 0.0
        assert len(report.decades) >= 3

    def test_heat_report_with_pipeline(self, monkeypatch):
        monkeypatch.setattr(examples, "PIPELINE_POINTS", 24)
        monkeypatch.setattr(examples, "PIPELINE_TOL", 2e-3)
        g = GridSpec(8.0, 256, Domain.LINE)
        report = verify_example_bounds("heat", g, n_max=2, pipeline=True)
        assert report.contraction_pass
        assert report.no_growth_pass
        assert report.pipeline_agreement is not None
        assert report.pipeline_agreement <= 5e-3
        assert report.pipeline_levels
        deltas = [row[1] for row in report.pipeline_levels]
        assert deltas[-1] <= 2e-3

    @pytest.mark.parametrize(
        "which, domain, decades, middle_floor",
        [("translation", Domain.HALF_LINE, 4, 8.8), ("heat", Domain.LINE, 7, 7.5)],
    )
    def test_sweep_window_reaches_saturation(self, which, domain, decades, middle_floor):
        # Default grid and n_max = 3: the window ends at 10^K with K the
        # smallest K >= 4 whose middle decade starts at or past n_max^(4 order),
        # 81 for translation (K = 4) and 6561 for heat (K = 7).
        report = verify_example_bounds(which, GridSpec(8.0, 2048, domain), n_max=3, pipeline=False)
        mus = [mu for mu, _ in report.sweep]
        assert len(mus) == 20 * decades + 1
        assert mus[0] == 1.0 and mus[-1] == pytest.approx(10.0**decades, rel=1e-12)
        assert len(report.decades) == decades + 1
        middle = report.decades[len(report.decades) // 2]
        assert middle[0] == 10.0 ** ((decades + 1) // 2)
        assert middle[1] >= middle_floor
        assert report.no_growth_pass

    def test_unknown_example_refused(self):
        with pytest.raises(PreconditionViolated):
            verify_example_bounds("advection", GridSpec(8.0, 64, Domain.HALF_LINE), n_max=3, pipeline=True)


# Prints the peak RSS growth in kB of a 256-cell heat report over the RSS
# just after import.
MEMORY_CHILD = """
import resource
from nonauto.examples import Domain, GridSpec, verify_example_bounds
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
verify_example_bounds("heat", GridSpec(8.0, 256, Domain.LINE), n_max=3, pipeline=False)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)
"""


# The three jobs that the examples-dense benchmark workload draws at seed 3.
@pytest.mark.parametrize("which, points, n_max", [("translation", 128, 2), ("translation", 192, 3), ("heat", 256, 2)])
def test_report_makes_few_band_lapack_calls(monkeypatch, which, points, n_max):
    # One gbtrf, gbtrs, gtsv or gbsv call per chunk of mus: 13 to 27 calls per report,
    # where one call per mu made 777 to 797.
    calls = record_band_calls(monkeypatch)
    g = GridSpec(8.0, points, Domain.HALF_LINE if which == "translation" else Domain.LINE)
    verify_example_bounds(which, g, n_max=n_max, pipeline=False)
    assert 0 < len(calls) <= 40


def test_dense_diagnostics_hold_no_resolvent_stack():
    # A (221, 256, 256) resolvent stack alone is 116 MB; band factors and
    # the factored a2 column keep the whole report within 40 MB.
    proc = subprocess.run([sys.executable, "-c", MEMORY_CHILD], env=_child_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 40 * 1024
