import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenetdir import numerics

from frenetdir.curves import CurveSamples, evaluate_catalog
from frenetdir.direction import (
    DEGENERACY_FLOOR,
    MANNHEIM_KAPPA_FRACTION,
    DirectionCoefficients,
    binormal_direction_curve,
    compare_predicted,
    direction_field,
    donor_from_direction,
    integrate_direction_curve,
    mannheim_check,
    osculating_coefficients,
    osculating_direction_curve,
    predicted_bar_data,
    principal_direction_curve,
)
from frenetdir.errors import DomainError
from frenetdir.frenet import (
    KAPPA_FLOOR,
    UNIT_SPEED_TOL,
    FrenetData,
    frenet_apparatus,
    unit_speed_deviation,
)
from frenetdir.numerics import (
    BOUNDARY_MARGIN,
    VectorSamples,
    _rows,
    cumulative_integral,
    uniform_grid,
)

from oracles import WARPED_HELICES, warped_helix


def donor(name, grid=None, phase=np.pi / 4):
    f = frenet_apparatus(evaluate_catalog(name, grid=grid))
    dc = osculating_coefficients(f, phase)
    return f, dc


def constructed(name, grid=None, phase=np.pi / 4):
    f, dc = donor(name, grid=grid, phase=phase)
    g = frenet_apparatus(integrate_direction_curve(direction_field(f, dc)))
    return f, dc, g


def unit_circle(n=2001):
    g = uniform_grid(0.0, 2 * np.pi, n)
    s = g.values
    pts = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=1)
    return frenet_apparatus(CurveSamples(grid=g, points=pts))


def straight_line(n=101):
    g = uniform_grid(0.0, 1.0, n)
    s = g.values
    pts = np.stack([s, np.zeros_like(s), np.zeros_like(s)], axis=1)
    return frenet_apparatus(CurveSamples(grid=g, points=pts))


def forced_coefficients(grid, u, v, theta=None):
    n = grid.n
    uu = np.full(n, float(u))
    vv = np.full(n, float(v))
    th = np.full(n, 0.0 if theta is None else float(theta))
    flags = (np.abs(uu) < DEGENERACY_FLOOR) | (np.abs(vv) < DEGENERACY_FLOOR)
    return DirectionCoefficients(
        grid=grid, theta=th, u=uu, v=vv,
        phase_c=float(th[0]), degeneracy_flags=flags,
    )


class TestOsculatingCoefficients:
    def test_phase_sets_initial_angle(self):
        f, dc = donor("circular_helix", phase=np.pi / 4)
        assert dc.theta[0] == np.pi / 4
        assert np.isclose(dc.u[0], np.sqrt(2) / 2)
        assert np.isclose(dc.v[0], np.sqrt(2) / 2)

    def test_angle_linear_for_constant_curvature(self):
        f, dc = donor("circular_helix", phase=0.37)
        s = f.grid.values
        assert np.max(np.abs(dc.theta - (s / 2 + 0.37))) < 1e-6

    def test_angle_linear_helix_12_5(self):
        f, dc = donor("helix_12_5", phase=0.11)
        s = f.grid.values
        assert np.max(np.abs(dc.theta - (12.0 * s / 169.0 + 0.11))) < 1e-6

    def test_coefficients_are_unit_norm(self):
        for name in ("circular_helix", "helix_12_5", "root_curve"):
            f, dc = donor(name)
            norm = dc.u**2 + dc.v**2
            assert np.max(np.abs(norm - 1.0)) < 1e-9

    def test_degenerate_samples_flagged(self):
        # phase pi/4 puts cos(theta) zeros exactly on four grid samples
        f, dc = donor("circular_helix", phase=np.pi / 4)
        assert np.flatnonzero(dc.degeneracy_flags).tolist() == [250, 750, 1250, 1750]

    def test_invalid_donor_rejected_with_interval(self):
        f = straight_line()
        with pytest.raises(DomainError, match=r"curvature below floor.* on \[0, 1\]"):
            osculating_coefficients(f, 0.0)

    def test_one_set_per_frame_and_phase(self):
        f, dc = donor("circular_helix", phase=0.3)
        assert osculating_coefficients(f, 0.3) is dc
        assert osculating_coefficients(f, np.float64(0.3)) is dc
        assert osculating_coefficients(f, 0.4).phase_c == 0.4
        # only the last phase is kept, so a phase sweep holds one set;
        # the earlier phase comes back computed again, to the same bits
        again = osculating_coefficients(f, 0.3)
        assert again is not dc
        for name in ("theta", "u", "v", "degeneracy_flags"):
            assert np.array_equal(getattr(again, name), getattr(dc, name))

    def test_arrays_are_read_only(self):
        f, dc = donor("circular_helix", phase=0.3)
        for a in (dc.theta, dc.u, dc.v, dc.degeneracy_flags):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_signed_zero_phases_kept_apart(self):
        f = frenet_apparatus(evaluate_catalog("circular_helix"))
        plus, minus = osculating_coefficients(f, 0.0), osculating_coefficients(f, -0.0)
        assert plus is not minus
        assert np.signbit(minus.theta[0]) and np.signbit(minus.u[0])
        assert not np.signbit(plus.theta[0]) and not np.signbit(plus.u[0])


class TestDirectionField:
    def test_helix_field_components(self):
        c = 0.37
        f, dc = donor("circular_helix", phase=c)
        X = direction_field(f, dc)
        s = f.grid.values
        r2 = np.sqrt(2.0)
        expect = np.stack(
            [
                -np.sin(s / 2 + c) * np.sin(s / r2) / r2 - np.cos(s / 2 + c) * np.cos(s / r2),
                np.sin(s / 2 + c) * np.cos(s / r2) / r2 - np.cos(s / 2 + c) * np.sin(s / r2),
                np.sin(s / 2 + c) / r2,
            ],
            axis=1,
        )
        assert np.max(np.abs(X.data - expect)) < 1e-9

    def test_field_is_unit_length(self):
        for name in ("circular_helix", "helix_12_5", "root_curve"):
            f, dc = donor(name)
            norms = np.linalg.norm(direction_field(f, dc).data, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_forced_tangent_coefficients_give_tangent_field(self):
        f, _ = donor("circular_helix")
        dc = forced_coefficients(f.grid, u=1.0, v=0.0)
        X = direction_field(f, dc)
        assert np.allclose(X.data, f.T, atol=1e-12)

    def test_forced_normal_coefficients_give_normal_field(self):
        f, _ = donor("circular_helix")
        dc = forced_coefficients(f.grid, u=0.0, v=1.0)
        X = direction_field(f, dc)
        assert np.allclose(X.data, f.N, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        f, dc = donor("circular_helix")
        f2 = frenet_apparatus(
            evaluate_catalog("circular_helix", grid=uniform_grid(0.0, 4 * np.pi, 1001))
        )
        with pytest.raises(ValueError, match="grids differ"):
            direction_field(f2, dc)


class TestIntegrateDirectionCurve:
    def test_constant_field_gives_straight_line(self):
        g = uniform_grid(0.0, 3.0, 301)
        X = VectorSamples(g, np.tile([1.0, 0.0, 0.0], (g.n, 1)))
        gamma = integrate_direction_curve(X)
        expect = np.stack([g.values, np.zeros(g.n), np.zeros(g.n)], axis=1)
        assert np.allclose(gamma.points, expect, atol=1e-12)
        assert unit_speed_deviation(frenet_apparatus(gamma)) <= UNIT_SPEED_TOL

    def test_matches_refined_quadrature(self):
        # the same construction on a 10x finer grid is an independent oracle
        # for the accumulated integral
        f, dc = donor("circular_helix")
        gamma = integrate_direction_curve(direction_field(f, dc))
        fine_grid = uniform_grid(0.0, 4 * np.pi, 20001)
        ff, dcf = donor("circular_helix", grid=fine_grid)
        gamma_fine = integrate_direction_curve(direction_field(ff, dcf))
        assert np.max(np.abs(gamma.points - gamma_fine.points[::10])) < 1e-6

    def test_result_has_unit_numerical_speed(self):
        for name in ("circular_helix", "helix_12_5"):
            f, dc = donor(name)
            gamma = integrate_direction_curve(direction_field(f, dc))
            assert unit_speed_deviation(frenet_apparatus(gamma)) < 1e-6

    def test_non_unit_field_rejected(self):
        g = uniform_grid(0.0, 1.0, 101)
        X = VectorSamples(g, np.tile([1.0, 1.0, 0.0], (g.n, 1)))
        with pytest.raises(ValueError, match="not unit length"):
            integrate_direction_curve(X)

    def test_nan_field_row_rejected_as_non_unit(self):
        g = uniform_grid(0.0, 1.0, 101)
        X = np.tile([1.0, 0.0, 0.0], (g.n, 1))
        X[50] = np.nan
        with pytest.raises(ValueError, match="not unit length"):
            integrate_direction_curve(VectorSamples(g, X))

    def test_is_the_cumulative_integral_of_the_field(self):
        f, dc = donor("helix_12_5", phase=0.3)
        X = direction_field(f, dc)
        gamma = integrate_direction_curve(X)
        assert np.array_equal(gamma.points, cumulative_integral(X).data)


class TestPrincipalAndBinormal:
    def test_principal_of_circle_is_translated_circle(self):
        f = unit_circle()
        gamma = principal_direction_curve(f)
        s = f.grid.values
        expect = np.stack([-np.sin(s), np.cos(s) - 1.0, np.zeros_like(s)], axis=1)
        assert np.max(np.abs(gamma.points - expect)) < 1e-9
        center = np.array([0.0, -1.0, 0.0])
        radii = np.linalg.norm(gamma.points - center, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-9

    def test_binormal_of_planar_donor_is_straight(self):
        f = unit_circle()
        gamma = binormal_direction_curve(f)
        s = f.grid.values
        expect = np.stack([np.zeros_like(s), np.zeros_like(s), s], axis=1)
        assert np.max(np.abs(gamma.points - expect)) < 1e-9

    def test_speed_one_on_helix_donors(self):
        for name in ("circular_helix", "helix_12_5"):
            f = frenet_apparatus(evaluate_catalog(name))
            assert unit_speed_deviation(frenet_apparatus(principal_direction_curve(f))) < 1e-6
            assert unit_speed_deviation(frenet_apparatus(binormal_direction_curve(f))) < 1e-6

    @pytest.mark.parametrize(
        "build, field", [(principal_direction_curve, "N"), (binormal_direction_curve, "B")]
    )
    def test_is_the_cumulative_integral_over_arc_length(self, build, field):
        # a warped parameter, so that the speed weight is not 1
        pts = warped_helix(*WARPED_HELICES[3])[0]
        f = frenet_apparatus(CurveSamples(uniform_grid(0.0, len(pts) - 1.0, len(pts)), pts))
        X = getattr(f, field) * f.speed[:, None]
        expect = cumulative_integral(VectorSamples(f.grid, X)).data
        assert np.array_equal(build(f).points, expect)

    def test_straight_donor_rejected(self):
        f = straight_line()
        with pytest.raises(DomainError, match="curvature below floor"):
            principal_direction_curve(f)
        with pytest.raises(DomainError, match="curvature below floor"):
            binormal_direction_curve(f)


class TestPredictedBarData:
    def test_helix_prediction_formulas(self):
        c = 0.37
        f, dc = donor("circular_helix", phase=c)
        pb = predicted_bar_data(f, dc)
        s = f.grid.values
        inner = f.grid.interior()
        assert np.max(np.abs(pb.kappa_bar_signed - 0.5 * np.cos(s / 2 + c))[inner]) < 1e-6
        assert np.max(np.abs(pb.tau_bar_signed - 0.5 * np.sin(s / 2 + c))[inner]) < 1e-6

    def test_zero_angle_collapses_to_donor_torsion(self):
        f, _ = donor("circular_helix")
        dc = forced_coefficients(f.grid, u=0.0, v=1.0, theta=0.0)
        pb = predicted_bar_data(f, dc)
        assert np.allclose(pb.kappa_bar_signed, f.tau, atol=1e-15)
        assert np.allclose(pb.tau_bar_signed, 0.0, atol=1e-15)

    def test_squared_sum_identity(self):
        # kappa_bar^2 + tau_bar^2 collapses to the donor torsion squared;
        # against the analytic constant the bound is set by the donor
        # torsion's own grid error, not by the identity
        f, dc = donor("helix_12_5", phase=0.3)
        pb = predicted_bar_data(f, dc)
        sq = pb.kappa_bar_signed**2 + pb.tau_bar_signed**2
        assert np.max(np.abs(sq - f.tau**2)) < 1e-18
        inner = f.grid.interior()
        assert np.max(np.abs(sq - (5.0 / 169.0) ** 2)[inner]) < 1e-10
        assert np.max(np.abs(sq - (5.0 / 169.0) ** 2)) < 1e-9


class TestCompareAgainstPrediction:
    def test_helix_direction_curve_agrees(self):
        f, dc, g = constructed("circular_helix")
        pb = predicted_bar_data(f, dc)
        report = compare_predicted(g, pb, dc, atol=2e-4)
        assert report.passed
        assert report.dev_kappa < 2e-4
        assert report.dev_tau < 2e-4
        assert report.samples_used > 1900

    def test_helix_12_5_direction_curve_agrees(self):
        f, dc, g = constructed("helix_12_5")
        pb = predicted_bar_data(f, dc)
        assert compare_predicted(g, pb, dc, atol=2e-4).passed
        assert compare_predicted(g, pb, dc, atol=2e-4, cos_floor=0.05).passed

    @staticmethod
    def gathered(g, pb, dc, cos_floor):
        mask = g.valid_interior(2 * BOUNDARY_MARGIN) & ~dc.degeneracy_flags
        mask &= np.abs(dc.v) > cos_floor
        dev_k = float(np.max(np.abs(g.kappa[mask] - np.abs(pb.kappa_bar_signed[mask]))))
        dev_t = float(np.max(np.abs(g.tau[mask] - pb.tau_bar_signed[mask])))
        return mask, dev_k, dev_t

    def test_equals_gathered_rows_on_a_multi_run_mask(self):
        # theta sweeps 20 rad: |v| drops below the floor six times, so the
        # mask has seven runs over all three row blocks
        f, dc, g = constructed("circular_helix", grid=uniform_grid(0.0, 40.0, 20001))
        pb = predicted_bar_data(f, dc)
        mask, dev_k, dev_t = self.gathered(g, pb, dc, 0.05)
        runs = np.flatnonzero(np.diff(mask.astype(int)) == 1)
        assert len(runs) >= 6 and runs[-1] > numerics._BLOCK_ROWS
        report = compare_predicted(g, pb, dc, cos_floor=0.05)
        assert (report.dev_kappa, report.dev_tau) == (dev_k, dev_t)
        assert report.samples_used == int(mask.sum())

    @pytest.mark.parametrize("block_rows", [1, 5, 64])
    def test_equals_gathered_rows_for_any_block_size(self, monkeypatch, block_rows):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", block_rows)
        f, dc, g = constructed("circular_helix", grid=uniform_grid(0.0, 40.0, 201))
        pb = predicted_bar_data(f, dc)
        mask, dev_k, dev_t = self.gathered(g, pb, dc, 0.05)
        assert not isinstance(_rows(mask), slice)
        report = compare_predicted(g, pb, dc, cos_floor=0.05)
        assert (report.dev_kappa, report.dev_tau) == (dev_k, dev_t)

    def test_rows_within_two_margins_of_the_ends_are_not_judged(self):
        # g's stencils near either end read the donor's one-sided rows as
        # well as their own: on this spherical helix the torsion gap reaches
        # 2.2e-3 at row n - 4, one margin in, and stays below 1e-5 from two
        # margins in
        grid = uniform_grid(-0.4890187498204478, 0.4769329505820509, 1933)
        phase = 6.043232887111382
        f = frenet_apparatus(evaluate_catalog("spherical_helix", grid=grid))
        dc = osculating_coefficients(f, phase)
        g = frenet_apparatus(osculating_direction_curve(f, phase))
        pb = predicted_bar_data(f, dc)
        report = compare_predicted(g, pb, dc, cos_floor=0.05)
        assert report.passed
        assert report.dev_tau < 1e-5
        edge = grid.n - 1 - BOUNDARY_MARGIN
        assert g.frenet_valid[edge] and abs(dc.v[edge]) > 0.05
        assert abs(g.tau[edge] - pb.tau_bar_signed[edge]) > 2e-4

    def test_rows_outside_the_mask_raise_no_warning(self):
        # inf - inf on a boundary row and on a row below the cos floor
        f, dc, g = constructed("circular_helix", grid=uniform_grid(0.0, 40.0, 201))
        pb = predicted_bar_data(f, dc)
        low = int(np.argmin(np.abs(dc.v)))
        kappa, kappa_bar = g.kappa.copy(), pb.kappa_bar_signed.copy()
        kappa[[1, low]] = kappa_bar[[1, low]] = np.inf
        broken_g = FrenetData(g.grid, g.T, g.N, g.B, kappa, g.tau, g.frenet_valid, g.speed)
        broken_pb = dataclasses.replace(pb, kappa_bar_signed=kappa_bar)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare_predicted(broken_g, broken_pb, dc, cos_floor=0.05)
        assert report == compare_predicted(g, pb, dc, cos_floor=0.05)

    def test_numerical_tangent_matches_predicted(self):
        f, dc, g = constructed("circular_helix")
        predicted = dc.u[:, None] * f.T + dc.v[:, None] * f.N
        mask = g.valid_interior()
        assert np.max(np.abs(g.T[mask] - predicted[mask])) < 1e-6


class TestDonorRecovery:
    def test_analytic_samples_recover_half(self):
        # curvature/torsion pair of the form C cos, C sin with linearly
        # growing angle recovers kappa = angle rate, tau = C
        grid = uniform_grid(0.0, np.pi - 0.2, 401)
        s = grid.values
        n = grid.n
        fake = FrenetData(
            grid=grid,
            T=np.tile([1.0, 0.0, 0.0], (n, 1)),
            N=np.tile([0.0, 1.0, 0.0], (n, 1)),
            B=np.tile([0.0, 0.0, 1.0], (n, 1)),
            kappa=0.5 * np.cos(s / 2),
            tau=0.5 * np.sin(s / 2),
            frenet_valid=np.ones(n, dtype=bool),
            speed=np.ones(n),
        )
        rec = donor_from_direction(fake)
        inner = grid.interior()
        assert np.max(np.abs(rec.kappa[inner] - 0.5)) < 1e-3
        assert np.max(np.abs(rec.tau[inner] - 0.5)) < 1e-3

    def test_constant_curvature_zero_torsion_input(self):
        grid = uniform_grid(0.0, 2.0, 101)
        n = grid.n
        fake = FrenetData(
            grid=grid,
            T=np.tile([1.0, 0.0, 0.0], (n, 1)),
            N=np.tile([0.0, 1.0, 0.0], (n, 1)),
            B=np.tile([0.0, 0.0, 1.0], (n, 1)),
            kappa=np.full(n, 0.3),
            tau=np.zeros(n),
            frenet_valid=np.ones(n, dtype=bool),
            speed=np.ones(n),
        )
        rec = donor_from_direction(fake)
        assert np.allclose(rec.kappa, 0.0, atol=1e-12)
        assert np.allclose(rec.tau, 0.3, atol=1e-12)

    def test_round_trip_helix(self):
        # sub-interval keeps cos(theta) > 0.05; n chosen at the error floor
        # (finer grids are roundoff-dominated through the third derivative)
        grid = uniform_grid(0.0, 1.47, 201)
        _, _, g = constructed("circular_helix", grid=grid)
        rec = donor_from_direction(g)
        inner = grid.interior(6)
        assert np.max(np.abs(rec.kappa[inner] - 0.5) / 0.5) < 1e-3
        assert np.max(np.abs(rec.tau[inner] - 0.5) / 0.5) < 1e-3

    def test_round_trip_warped_parameter(self):
        # the window of test_round_trip_helix on a parameter that is not arc
        # length: the recovered curvature is a turning rate per arc length
        pts = warped_helix(1.0, 1.0, 1, 0.3, 1.47 / (2 * np.pi * np.sqrt(2.0)), 201)[0]
        f = frenet_apparatus(CurveSamples(uniform_grid(0.0, 1.0, 201), pts))
        g = frenet_apparatus(osculating_direction_curve(f, np.pi / 4))
        rec = donor_from_direction(g)
        inner = g.valid_interior(6)
        assert np.max(np.abs(rec.kappa[inner] - 0.5) / 0.5) < 1e-3
        assert np.max(np.abs(rec.tau[inner] - 0.5) / 0.5) < 1e-3

    @pytest.mark.parametrize("mirror, shift", [(1.0, 0.0), (-1.0, 0.0), (1.0, np.pi), (-1.0, np.pi)],
                             ids=["plain", "mirrored", "shifted", "mirrored-shifted"])
    def test_every_sign_case_recovers_kappa_and_abs_tau(self, mirror, shift):
        # the window of test_round_trip_helix; z -> -z flips the donor's
        # torsion, and a phase shifted by pi makes cos(theta) < 0 on the
        # whole window.  g's torsion carries only sgn(tau) sgn(cos theta),
        # and every case recovers kappa = 0.5 and |tau| = 0.5
        grid = uniform_grid(0.0, 1.47, 201)
        pts = evaluate_catalog("circular_helix", grid=grid).points * [1.0, 1.0, mirror]
        f = frenet_apparatus(CurveSamples(grid, pts))
        g = frenet_apparatus(osculating_direction_curve(f, np.pi / 4 + shift))
        rec = donor_from_direction(g)
        inner = grid.interior(6)
        assert np.all(np.sign(g.tau[inner]) == mirror * np.cos(shift))
        assert np.all(rec.kappa >= 0.0)
        assert np.max(np.abs(rec.kappa[inner] - 0.5) / 0.5) < 1e-3
        assert np.max(np.abs(rec.tau[inner] - 0.5) / 0.5) < 1e-3

    def test_round_trip_helix_12_5(self):
        grid = uniform_grid(0.0, 10.35, 201)
        _, _, g = constructed("helix_12_5", grid=grid)
        rec = donor_from_direction(g)
        inner = grid.interior(6)
        kap, tau = 12.0 / 169.0, 5.0 / 169.0
        assert np.max(np.abs(rec.kappa[inner] - kap) / kap) < 1e-3
        assert np.max(np.abs(rec.tau[inner] - tau) / tau) < 1e-3

    def test_degenerate_curvature_rejected_with_interval(self):
        # on the full period the constructed curve's curvature crosses zero
        _, _, g = constructed("circular_helix")
        with pytest.raises(DomainError, match=r"curvature below floor on \["):
            donor_from_direction(g)

    def test_sign_change_of_cos_theta_rejected_with_interval(self):
        # theta = s/2 + pi/4 reaches pi/2 at s = pi/2, between rows 157
        # and 158: g's curvature stays above the floor on both, but its
        # normal reverses, and the turning rate there is not the donor's
        grid = uniform_grid(0.0, 4.0, 401)
        _, _, g = constructed("circular_helix", grid=grid)
        assert np.all(g.kappa >= KAPPA_FLOOR)
        with pytest.raises(DomainError, match=r"normal reverses on \[1\.57, 1\.58\]$"):
            donor_from_direction(g)

    def test_hand_built_frame_below_floor_rejected(self):
        # frenet_apparatus never marks such a row valid; a hand-built
        # FrenetData can, and the floor check must still catch it
        grid = uniform_grid(0.0, 2.0, 101)
        n = grid.n
        kappa = np.full(n, 0.3)
        kappa[40] = 0.5 * KAPPA_FLOOR
        fake = FrenetData(
            grid=grid,
            T=np.tile([1.0, 0.0, 0.0], (n, 1)),
            N=np.tile([0.0, 1.0, 0.0], (n, 1)),
            B=np.tile([0.0, 0.0, 1.0], (n, 1)),
            kappa=kappa,
            tau=np.zeros(n),
            frenet_valid=np.ones(n, dtype=bool),
            speed=np.ones(n),
        )
        with pytest.raises(DomainError, match=r"curvature below floor on \[0\.8, 0\.8\]"):
            donor_from_direction(fake)


class TestMannheim:
    def test_helix_pair_aligned(self):
        f, dc, g = constructed("circular_helix")
        report = mannheim_check(g, f)
        assert report.passed and not report.vacuous
        assert report.min_alignment >= 1.0 - 1e-4

    def test_helix_12_5_pair_aligned(self):
        f, dc, g = constructed("helix_12_5")
        report = mannheim_check(g, f)
        assert report.passed
        assert report.min_alignment >= 1.0 - 1e-4

    def test_self_pair_fails(self):
        f, _ = donor("circular_helix")
        report = mannheim_check(f, f)
        assert not report.passed
        assert report.min_alignment < 1e-9

    def test_roundoff_level_curvature_rows_skipped(self):
        # at row 77817 |v| = 2.4e-6, so the constructed curve's curvature
        # (1.7e-7) sits at the roundoff level of its second differences and
        # its normal is noise (1 - alignment was 1.4e-4 there)
        params = {"a": 1.8305506691010058, "b": 0.3684369591328579, "scale": 1.5090962211505463}
        s0, n, h = 5.938171907188474, 200001, 2 * np.pi / 1000
        grid = uniform_grid(s0, s0 + (n - 1) * h, n)
        f = frenet_apparatus(evaluate_catalog("circular_helix", params, grid))
        g = frenet_apparatus(
            integrate_direction_curve(direction_field(f, osculating_coefficients(f, 4.256404254737284)))
        )
        report = mannheim_check(g, f)
        assert report.passed and not report.vacuous
        assert report.min_alignment >= 1.0 - 1e-9

    @pytest.mark.parametrize("v", [1e-5, 1e-6, 1e-7])
    def test_far_from_origin_near_zero_v(self, v):
        # samples at |p| ~ 2e4 raise the second-difference roundoff to
        # ~1e-7, above the constructed curvature tau |v| at row 1000
        f = frenet_apparatus(evaluate_catalog("circular_helix"))
        phase = np.pi / 2 + v - f.kappa[1000] * f.grid.values[1000]
        dc = osculating_coefficients(f, phase)
        gamma = integrate_direction_curve(direction_field(f, dc))
        g = frenet_apparatus(CurveSamples(gamma.grid, gamma.points + 1e4))
        assert abs(dc.v[1000]) < 2 * v
        report = mannheim_check(g, f)
        assert report.passed and not report.vacuous

    @pytest.mark.parametrize("hole", [None, 1000], ids=["donor-valid", "donor-hole"])
    def test_equals_boolean_indexed_min(self, hole):
        f, _, g = constructed("circular_helix")
        if hole is not None:
            valid, N, B = f.frenet_valid.copy(), f.N.copy(), f.B.copy()
            valid[hole] = False
            N[hole] = B[hole] = np.nan
            f = FrenetData(f.grid, f.T, N, B, f.kappa, f.tau, valid, f.speed)
        mask = g.valid_interior() & f.frenet_valid & (g.kappa >= MANNHEIM_KAPPA_FRACTION * f.kappa)
        expected = float(np.min(np.abs(np.einsum("ij,ij->i", g.N[mask], f.B[mask]))))
        assert mannheim_check(g, f).min_alignment == expected

    def test_grid_mismatch_rejected(self):
        f, _, g = constructed("circular_helix")
        f2 = frenet_apparatus(
            evaluate_catalog("circular_helix", grid=uniform_grid(0.0, 4 * np.pi, 1001))
        )
        with pytest.raises(ValueError, match="grids differ"):
            mannheim_check(g, f2)


@settings(max_examples=25, deadline=None)
@given(phase=st.floats(-np.pi, np.pi))
def test_coefficients_unit_norm_any_phase(phase):
    f = frenet_apparatus(
        evaluate_catalog("circular_helix", grid=uniform_grid(0.0, 4 * np.pi, 201))
    )
    dc = osculating_coefficients(f, phase)
    assert dc.theta[0] == phase
    assert np.max(np.abs(dc.u**2 + dc.v**2 - 1.0)) < 1e-9


@settings(max_examples=10, deadline=None)
@given(phase=st.floats(-1.0, 1.0))
def test_construction_is_unit_speed_any_phase(phase):
    f = frenet_apparatus(
        evaluate_catalog("helix_12_5", grid=uniform_grid(0.0, 169.0, 401))
    )
    gamma = osculating_direction_curve(f, phase)
    assert unit_speed_deviation(frenet_apparatus(gamma)) < 1e-6
