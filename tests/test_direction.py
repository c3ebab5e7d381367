import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from frenetdir.numerics import VectorSamples, uniform_grid

from oracles import warped_helix


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

    def test_start_point_offsets_curve(self):
        g = uniform_grid(0.0, 1.0, 101)
        X = VectorSamples(g, np.tile([0.0, 0.0, 1.0], (g.n, 1)))
        gamma = integrate_direction_curve(X, start=(2.0, -1.0, 0.5))
        assert np.allclose(gamma.points[0], [2.0, -1.0, 0.5])
        assert np.allclose(gamma.points[-1], [2.0, -1.0, 1.5], atol=1e-12)

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

    def test_frame_vectors_are_unit(self):
        f, dc = donor("circular_helix")
        pb = predicted_bar_data(f, dc)
        for arr in (pb.Tbar, pb.Nbar, pb.Bbar):
            assert np.max(np.abs(np.linalg.norm(arr, axis=1) - 1.0)) < 1e-9

    def test_frame_built_on_read_equals_eager_expressions(self):
        f, dc = donor("helix_12_5", phase=0.3)
        pb = predicted_bar_data(f, dc)
        u, v = dc.u[:, None], dc.v[:, None]
        assert np.array_equal(pb.Tbar, u * f.T + v * f.N)
        assert np.array_equal(pb.Nbar, f.B)
        assert np.array_equal(pb.Bbar, v * f.T - u * f.N)
        assert pb.Tbar is pb.Tbar


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

    def test_numerical_tangent_matches_predicted(self):
        f, dc, g = constructed("circular_helix")
        pb = predicted_bar_data(f, dc)
        mask = g.valid_interior()
        assert np.max(np.abs(g.T[mask] - pb.Tbar[mask])) < 1e-6


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
        assert np.max(np.abs(rec.kappa.data[inner] - 0.5)) < 1e-3
        assert np.max(np.abs(rec.tau.data[inner] - 0.5)) < 1e-3

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
        assert np.allclose(rec.kappa.data, 0.0, atol=1e-12)
        assert np.allclose(rec.tau.data, 0.3, atol=1e-12)

    def test_round_trip_helix(self):
        # sub-interval keeps cos(theta) > 0.05; n chosen at the error floor
        # (finer grids are roundoff-dominated through the third derivative)
        grid = uniform_grid(0.0, 1.47, 201)
        _, _, g = constructed("circular_helix", grid=grid)
        rec = donor_from_direction(g)
        inner = grid.interior(6)
        assert np.max(np.abs(rec.kappa.data[inner] - 0.5) / 0.5) < 1e-3
        assert np.max(np.abs(rec.tau.data[inner] - 0.5) / 0.5) < 1e-3

    def test_round_trip_warped_parameter(self):
        # the window of test_round_trip_helix on a parameter that is not arc
        # length: the recovered curvature is a turning rate per arc length
        pts = warped_helix(1.0, 1.0, 1, 0.3, 1.47 / (2 * np.pi * np.sqrt(2.0)), 201)[0]
        f = frenet_apparatus(CurveSamples(uniform_grid(0.0, 1.0, 201), pts))
        g = frenet_apparatus(osculating_direction_curve(f, np.pi / 4))
        rec = donor_from_direction(g)
        inner = g.valid_interior(6)
        assert np.max(np.abs(rec.kappa.data[inner] - 0.5) / 0.5) < 1e-3
        assert np.max(np.abs(rec.tau.data[inner] - 0.5) / 0.5) < 1e-3

    def test_round_trip_helix_12_5(self):
        grid = uniform_grid(0.0, 10.35, 201)
        _, _, g = constructed("helix_12_5", grid=grid)
        rec = donor_from_direction(g)
        inner = grid.interior(6)
        kap, tau = 12.0 / 169.0, 5.0 / 169.0
        assert np.max(np.abs(rec.kappa.data[inner] - kap) / kap) < 1e-3
        assert np.max(np.abs(rec.tau.data[inner] - tau) / tau) < 1e-3

    def test_degenerate_curvature_rejected_with_interval(self):
        # on the full period the constructed curve's curvature crosses zero
        _, _, g = constructed("circular_helix")
        with pytest.raises(DomainError, match=r"curvature below floor on \["):
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
        g = frenet_apparatus(integrate_direction_curve(direction_field(f, dc), start=(1e4, 1e4, 1e4)))
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
