import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenetdir import direction, numerics
from frenetdir.classify import _resolved_ratio, rectifying_test
from frenetdir.curves import CurveSamples, evaluate_catalog
from frenetdir.direction import (
    direction_field,
    integrate_direction_curve,
    osculating_coefficients,
)
from frenetdir.errors import DomainError
from frenetdir.frenet import UNIT_SPEED_TOL, FrenetData, frenet_apparatus, unit_speed_deviation
from frenetdir.numerics import (
    BOUNDARY_MARGIN,
    VectorSamples,
    _cumulative,
    _rows,
    cross,
    derivative,
    norm,
    uniform_grid,
)
from frenetdir.od import (
    ODParameters,
    modified_darboux,
    od_osculating_curve,
    verify_od_properties,
)


def donor(name, lo=None, hi=None, n=2001):
    grid = None if lo is None else uniform_grid(lo, hi, n)
    return frenet_apparatus(evaluate_catalog(name, grid=grid))


def straight_segment(n=101):
    g = uniform_grid(0.0, 1.0, n)
    s = g.values
    pts = np.stack([s, np.zeros_like(s), np.zeros_like(s)], axis=1)
    return CurveSamples(grid=g, points=pts)


def spherical_image_points(a, s, r=0.8):
    # Closed-form curve with position confined to its rectifying plane:
    # distance |gamma| = sqrt(a^2 + s^2) stretched over a unit-sphere
    # circle of radius r, at arc length s.  tau/kappa comes out as s/a, so
    # checking against parameters (a, b) with arc length measured from a
    # first sample at s = b reproduces the predicted line (s_rel + b)/a.
    t = np.arctan(s / a)
    y = np.column_stack(
        [r * np.cos(t / r), r * np.sin(t / r), np.full_like(t, np.sqrt(1 - r * r))]
    )
    return np.sqrt(a * a + s * s)[:, None] * y


def spherical_image_curve(a, b, length, n, r=0.8):
    # sampled in exact arc length starting at s = b
    s = np.linspace(b, b + length, n)
    return CurveSamples(grid=uniform_grid(b, b + length, n), points=spherical_image_points(a, s, r))


def matched_profile_donor(a, b, hi, n, tau_scale=4.0, sub=4):
    # Donor integrated from the Frenet system with the one curvature
    # profile the construction needs, kappa = a / (a^2 + (s+b)^2); torsion
    # is a free multiple of it.  Fixed-step RK4 keeps the samples smooth
    # enough for the downstream stencils.
    s_nodes = np.linspace(0.0, hi, n)
    h = (s_nodes[1] - s_nodes[0]) / sub

    def rhs(s, y):
        T, N, B = y[3:6], y[6:9], y[9:12]
        k = a / (a * a + (s + b) ** 2)
        t = tau_scale * k
        return np.concatenate([T, k * N, -k * T + t * B, -t * N])

    y = np.concatenate([np.zeros(3), np.eye(3).ravel()])
    out = np.empty((n, 12))
    out[0] = y
    s = 0.0
    for i in range(1, n):
        for _ in range(sub):
            k1 = rhs(s, y)
            k2 = rhs(s + h / 2, y + h / 2 * k1)
            k3 = rhs(s + h / 2, y + h / 2 * k2)
            k4 = rhs(s + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            s += h
        out[i] = y
    return CurveSamples(
        grid=uniform_grid(0.0, hi, n), points=out[:, :3]
    )


def helix_12_5_reference(grid, a, b, phase):
    # The construction written out over the 12/5 helix frame; the angle
    # integrates the constant curvature 12/169 from the window start.
    s = grid.values
    th = 12.0 * (s - s[0]) / 169.0 + phase
    rho = (s - s[0]) + b
    m = rho * np.sin(th) + a * np.cos(th)
    n = rho * np.cos(th) - a * np.sin(th)
    return np.column_stack(
        [
            -(12 / 13) * m * np.sin(s / 13) - n * np.cos(s / 13),
            (12 / 13) * m * np.cos(s / 13) - n * np.sin(s / 13),
            (5 / 13) * m,
        ]
    )


def fresh(c):
    """The same samples on a curve with no stored frame."""
    return CurveSamples(c.grid, c.points)


def checked_curves():
    """(curve, parameters) pairs that verify_od_properties is tested on."""
    p = ODParameters(1.0, 1.0, 0.3)
    # three mask runs, over three row blocks
    yield od_osculating_curve(donor("helix_12_5", 0.0, 1000.0, 20001), p), p
    yield spherical_image_curve(1.0, 1.0, 4.0, 2001), ODParameters(1.0, 1.0)
    yield spherical_image_curve(2.0, 0.7, 5.0, 1001), ODParameters(2.0, 0.7)
    u = np.linspace(0.0, 1.0, 2001)
    s = 1.0 + 4.0 * (u + 0.3 * np.sin(2 * np.pi * u) / (2 * np.pi))
    warped = CurveSamples(uniform_grid(0.0, 1.0, 2001), spherical_image_points(1.0, s))
    yield warped, ODParameters(1.0, 1.0)
    p = ODParameters(1.0, 1.0, np.arctan2(1.0, 1.0))
    yield od_osculating_curve(frenet_apparatus(matched_profile_donor(1.0, 1.0, 4.0, 1001)), p), p


class TestODParameters:
    def test_zero_a_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            ODParameters(0.0, 1.0)

    def test_zero_b_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            ODParameters(1.0, 0.0)

    def test_phase_defaults_to_zero(self):
        assert ODParameters(2.0, 3.0).phase_c == 0.0


class TestConstruction:
    @pytest.mark.parametrize("phase", [0.0, 0.3, 1.7])
    def test_helix_12_5_closed_form(self, phase):
        # Coarse grid on purpose: the normal direction carries roundoff
        # amplified by 1/h^2, and the coefficients grow with arc length.
        f = donor("helix_12_5", 0.0, 12.0, 201)
        gam = od_osculating_curve(f, ODParameters(1.0, 1.0, phase))
        ref = helix_12_5_reference(f.grid, 1.0, 1.0, phase)
        assert np.max(np.abs(gam.points - ref)) < 1e-9

    def test_helix_12_5_closed_form_dense(self):
        f = donor("helix_12_5", 0.0, 12.0, 2001)
        gam = od_osculating_curve(f, ODParameters(1.0, 1.0, 0.3))
        ref = helix_12_5_reference(f.grid, 1.0, 1.0, 0.3)
        assert np.max(np.abs(gam.points - ref)) < 1e-7

    def test_root_curve_closed_form(self):
        # Window trimmed away from the curvature singularities; the angle
        # has the arcsin antiderivative, anchored at the window start.
        f = donor("root_curve", 0.05, 0.95, 2001)
        gam = od_osculating_curve(f, ODParameters(1.0, 1.0, 0.3))
        s = f.grid.values
        th = 0.3 + (np.sqrt(2) / 4) * (np.arcsin(2 * s - 1) - np.arcsin(2 * s[0] - 1))
        rho = (s - s[0]) + 1.0
        m = rho * np.sin(th) + np.cos(th)
        n = rho * np.cos(th) - np.sin(th)
        T = (np.sqrt(2) / 2) * np.column_stack(
            [np.sqrt(s), -np.sqrt(1 - s), np.ones_like(s)]
        )
        N = np.column_stack([np.sqrt(1 - s), np.sqrt(s), np.zeros_like(s)])
        ref = m[:, None] * T + n[:, None] * N
        assert np.max(np.abs(gam.points - ref)) < 5e-8

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (-2.5, 0.3)])
    def test_start_point_at_zero_phase(self, a, b):
        f = donor("circular_helix")
        gam = od_osculating_curve(f, ODParameters(a, b, 0.0))
        start = a * f.T[0] + b * f.N[0]
        assert np.max(np.abs(gam.points[0] - start)) < 1e-14

    def test_grid_shared_with_donor(self):
        f = donor("circular_helix")
        gam = od_osculating_curve(f, ODParameters(1.0, 1.0))
        assert gam.grid == f.grid

    def test_reuses_the_callers_coefficients(self, monkeypatch):
        f = donor("circular_helix")
        p = ODParameters(1.0, 1.0, 0.7)
        dc = osculating_coefficients(f, p.phase_c)
        expected = od_osculating_curve(f, p).points

        def fail(*args, **kwargs):
            raise AssertionError("coefficients recomputed")

        monkeypatch.setattr(direction, "_cumulative", fail)
        assert osculating_coefficients(f, 0.7) is dc
        assert np.array_equal(od_osculating_curve(f, p).points, expected)

    def test_unit_speed_flag_false_for_generic_donor(self):
        f = donor("helix_12_5", 0.0, 169.0, 2001)
        gam = od_osculating_curve(f, ODParameters(1.0, 1.0))
        assert unit_speed_deviation(frenet_apparatus(gam)) > UNIT_SPEED_TOL

    def test_unit_speed_flag_true_for_matched_profile(self):
        f = frenet_apparatus(matched_profile_donor(1.0, 1.0, 4.0, 1001))
        p = ODParameters(1.0, 1.0, np.arctan2(1.0, 1.0))
        gam = od_osculating_curve(f, p)
        assert unit_speed_deviation(frenet_apparatus(gam)) <= UNIT_SPEED_TOL
        # with the angle locked to arctan(rho/a) the position reduces to
        # a radial stretch of the donor tangent direction
        srel = f.s - f.s[0]
        rad = np.sqrt((srel + 1.0) ** 2 + 1.0)
        assert np.max(np.abs(np.linalg.norm(gam.points, axis=1) - rad)) < 1e-13

    def test_line_donor_raises(self):
        with pytest.raises(DomainError, match="curvature below floor"):
            od_osculating_curve(
                frenet_apparatus(straight_segment()), ODParameters(1.0, 1.0)
            )


class TestModifiedDarboux:
    def test_helix_12_5_axis(self):
        # checked on the rows the library vouches for: the one-sided
        # third-derivative rows at each end carry torsion roundoff of order
        # sum|w| * ulp(|p|) / h^3, which reaches ~8e-8 in tau/kappa at the
        # last row of this grid (see numerics.BOUNDARY_MARGIN)
        f = donor("helix_12_5")
        ref = (5.0 / 12.0) * f.T + f.B
        rows = f.valid_interior()
        assert np.max(np.abs(modified_darboux(f)[rows] - ref[rows])) < 1e-7

    def test_unit_helix_axis_norm(self):
        f = donor("circular_helix")
        norms = np.linalg.norm(modified_darboux(f), axis=1)
        itr = f.grid.interior(6)
        assert np.max(np.abs(norms[itr] - np.sqrt(2.0))) < 1e-7

    def test_plane_curve_axis_is_binormal(self):
        g = uniform_grid(0.0, 2 * np.pi, 2001)
        s = g.values
        circle = CurveSamples(
            grid=g,
            points=np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=1),
        )
        f = frenet_apparatus(circle)
        itr = f.grid.interior(6)
        assert np.max(np.abs(modified_darboux(f)[itr] - f.B[itr])) < 1e-12

    def test_nan_where_frame_undefined(self):
        f = donor("circular_helix")
        dc = osculating_coefficients(f, np.pi / 4)
        g = frenet_apparatus(integrate_direction_curve(direction_field(f, dc)))
        assert np.any(~g.frenet_valid)
        axis = modified_darboux(g)
        assert np.all(np.isnan(axis[~g.frenet_valid]))
        assert np.all(np.isfinite(axis[g.frenet_valid]))

    def test_line_raises(self):
        with pytest.raises(DomainError, match="below floor everywhere"):
            modified_darboux(frenet_apparatus(straight_segment()))

    def test_equals_masked_row_formula(self):
        # whole-array arithmetic then NaN rows: bit-identical to computing
        # only the rows that have a frame
        f = donor("circular_helix")
        dc = osculating_coefficients(f, np.pi / 4)
        g = frenet_apparatus(integrate_direction_curve(direction_field(f, dc)))
        # rows marked invalid by hand keep finite values that must not leak
        g = replace(g, frenet_valid=g.frenet_valid & (np.arange(g.grid.n) % 7 != 0))
        m = g.frenet_valid
        expected = np.full((g.grid.n, 3), np.nan)
        expected[m] = (g.tau[m] / g.kappa[m])[:, None] * g.T[m] + g.B[m]
        assert np.array_equal(modified_darboux(g), expected, equal_nan=True)


class TestVerify:
    def test_one_usable_sample_is_domain_error(self):
        # 13 samples leave one row clear of the doubled boundary margin, too
        # few for the ratio line, without a stored frame and with one
        c = evaluate_catalog("circular_helix", grid=uniform_grid(0.0, 1.2, 13))
        for _ in range(2):
            with pytest.raises(DomainError, match="line fit needs 2 usable samples, got 1"):
                verify_od_properties(c, ODParameters(1.0, 1.0))
            frenet_apparatus(c)

    def test_rectifying_reference_curve_passes(self):
        c = spherical_image_curve(1.0, 1.0, 4.0, 2001)
        rep = verify_od_properties(c, ODParameters(1.0, 1.0))
        assert rep.passed
        assert rep.speed_deviation < 1e-10
        assert rep.rectifying.normal_component < 1e-6
        assert rep.slope_error < 1e-3
        assert rep.intercept_error < 1e-3
        assert rep.cross_ratio < 1e-3

    def test_rectifying_reference_on_warped_parameter(self):
        # the curve of test_rectifying_reference_curve_passes sampled at
        # s = 1 + 4 (u + 0.3 sin(2 pi u) / (2 pi)): both line fits run
        # against the curve's own arc length, not against u
        u = np.linspace(0.0, 1.0, 2001)
        s = 1.0 + 4.0 * (u + 0.3 * np.sin(2 * np.pi * u) / (2 * np.pi))
        c = CurveSamples(uniform_grid(0.0, 1.0, 2001), spherical_image_points(1.0, s))
        rep = verify_od_properties(c, ODParameters(1.0, 1.0))
        assert rep.passed
        assert rep.slope_error < 1e-3
        assert rep.intercept_error < 1e-3

    def test_rectifying_reference_second_parameters(self):
        c = spherical_image_curve(2.0, 0.7, 5.0, 1001)
        rep = verify_od_properties(c, ODParameters(2.0, 0.7))
        assert rep.passed
        assert rep.slope_error < 1e-4
        assert rep.intercept_error < 1e-4
        assert rep.cross_ratio < 1e-4
        assert rep.rectifying.normal_component < 1e-7

    def test_construction_on_matched_profile_passes(self):
        f = frenet_apparatus(matched_profile_donor(1.0, 1.0, 4.0, 1001))
        p = ODParameters(1.0, 1.0, np.arctan2(1.0, 1.0))
        rep = verify_od_properties(od_osculating_curve(f, p), p)
        assert rep.passed
        assert rep.rectifying.normal_component < 1e-5
        assert rep.slope_error < 1e-4
        assert rep.intercept_error < 1e-4
        assert rep.cross_ratio < 2e-3

    def test_construction_on_helix_12_5_fails(self):
        # Constant donor curvature cannot satisfy the matched profile, so
        # the construction leaves the rectifying plane immediately.
        f = donor("helix_12_5", 0.0, 169.0, 2001)
        p = ODParameters(1.0, 1.0)
        gam = od_osculating_curve(f, p)
        assert unit_speed_deviation(frenet_apparatus(gam)) > UNIT_SPEED_TOL
        rep = verify_od_properties(gam, p)
        assert not rep.passed
        assert rep.rectifying.normal_component > 0.5
        assert rep.cross_ratio > 0.9

    def test_construction_on_root_curve_fails(self):
        # Donor curvature exceeds 1/2 everywhere; the matched profile
        # never does, with the opposite monotonicity.
        f = donor("root_curve", 0.05, 0.95, 2001)
        p = ODParameters(1.0, 1.0)
        rep = verify_od_properties(od_osculating_curve(f, p), p)
        assert not rep.passed
        assert rep.rectifying.normal_component > 0.3

    def test_no_phase_rescues_helix_12_5(self):
        f = donor("helix_12_5", 0.0, 9.4, 1001)
        for phase in np.linspace(0.0, 2 * np.pi, 9)[:-1]:
            p = ODParameters(1.0, 1.0, phase)
            rep = verify_od_properties(od_osculating_curve(f, p), p)
            assert not rep.passed
            assert rep.rectifying.normal_component > 2e-2

    def test_plain_helix_fails_rectifying(self):
        rep = verify_od_properties(
            evaluate_catalog("circular_helix"), ODParameters(1.0, 1.0)
        )
        assert not rep.passed
        assert not rep.rectifying.is_rectifying
        assert rep.rectifying.normal_component > 5e-2

    def test_cross_ratio_equals_whole_array_expression(self):
        # n = 20001: the cross ratio reduces over three row blocks
        gamma = spherical_image_curve(1.0, 1.0, 4.0, 20001)
        p = ODParameters(1.0, 1.0)
        g = frenet_apparatus(gamma)
        mask = g.valid_interior(2 * BOUNDARY_MARGIN) & _resolved_ratio(g.kappa, g.tau)
        assert isinstance(_rows(mask), slice)
        pts, ax = gamma.points[mask], modified_darboux(g)[mask]
        expected = np.max(norm(cross(pts, ax)) / np.maximum(norm(pts) * norm(ax), 1e-12))
        assert verify_od_properties(gamma, p).cross_ratio == float(expected)

    @staticmethod
    def gathered_cross_ratio(gamma):
        g = frenet_apparatus(gamma)
        mask = g.valid_interior(2 * BOUNDARY_MARGIN) & _resolved_ratio(g.kappa, g.tau)
        pts, ax = gamma.points[mask], modified_darboux(g)[mask]
        return mask, float(np.max(norm(cross(pts, ax)) / np.maximum(norm(pts) * norm(ax), 1e-12)))

    def test_cross_ratio_equals_gathered_rows_on_a_multi_run_mask(self):
        # the companion's ratio nears its pole twice near the start, so
        # the mask has three runs, the last over all three row blocks
        p = ODParameters(1.0, 1.0, 0.3)
        gamma = od_osculating_curve(donor("helix_12_5", 0.0, 1000.0, 20001), p)
        mask, expected = self.gathered_cross_ratio(gamma)
        runs = np.flatnonzero(np.diff(mask.astype(int)) == 1)
        assert len(runs) >= 2 and mask[numerics._BLOCK_ROWS:].any()
        assert verify_od_properties(gamma, p).cross_ratio == expected

    @pytest.mark.parametrize("block_rows", [1, 5, 64])
    def test_cross_ratio_equals_gathered_rows_for_any_block_size(self, monkeypatch, block_rows):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", block_rows)
        p = ODParameters(1.0, 1.0, 0.3)
        gamma = od_osculating_curve(donor("helix_12_5", 0.0, 169.0, 201), p)
        mask, expected = self.gathered_cross_ratio(gamma)
        assert not isinstance(_rows(mask), slice)
        assert verify_od_properties(gamma, p).cross_ratio == expected

    def test_a_stored_frame_is_not_read(self):
        # read, this stored frame would change every statistic: its T and
        # B are infinite and its speed doubled
        p = ODParameters(1.0, 1.0, 0.3)
        gamma = od_osculating_curve(donor("helix_12_5", 0.0, 169.0, 201), p)
        g = frenet_apparatus(gamma)
        T = np.full_like(g.T, np.inf)
        broken = fresh(gamma)
        broken.__dict__["_frenet"] = FrenetData(g.grid, T, g.N, -T, g.kappa, g.tau,
                                                g.frenet_valid, 2.0 * g.speed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_od_properties(broken, p)
        assert report == verify_od_properties(fresh(gamma), p)

    @pytest.mark.parametrize("gamma, p", list(checked_curves()),
                             ids=["companion", "sphere", "sphere-2-0.7", "warped", "matched"])
    def test_fresh_curve_reports_what_its_stored_frame_gives(self, gamma, p):
        # what a frame stored by frenet_apparatus gives: the check on the
        # curve that stores it, and the reference statistics on it
        copy = fresh(gamma)
        report = verify_od_properties(copy, p)
        assert "_frenet" not in copy.__dict__
        g = frenet_apparatus(gamma)
        assert report == verify_od_properties(gamma, p)
        assert report.rectifying == rectifying_test(gamma)
        assert report.speed_deviation == unit_speed_deviation(g)

    @pytest.mark.parametrize("block_rows", [1, 5, 64])
    def test_fresh_curve_reports_the_same_for_any_block_size(self, monkeypatch, block_rows):
        p = ODParameters(1.0, 1.0, 0.3)
        gamma = od_osculating_curve(donor("helix_12_5", 0.0, 169.0, 201), p)
        frenet_apparatus(gamma)
        expected = verify_od_properties(gamma, p)
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", block_rows)
        assert verify_od_properties(fresh(gamma), p) == expected

    def test_stalled_sample_of_a_fresh_curve_is_named(self):
        # the stall is in the second row block, as in frenet_apparatus
        g = uniform_grid(0.0, 2.0, 20001)
        pts = np.stack([np.cos(g.values), np.sin(g.values), g.values], axis=1)
        pts[8998:9003] = pts[8998]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"degenerate curve: .* at sample 9000 \(parameter 0.9\)"):
                verify_od_properties(CurveSamples(g, pts), ODParameters(1.0, 1.0))

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError, match="tol"):
            verify_od_properties(
                evaluate_catalog("circular_helix"), ODParameters(1.0, 1.0), tol=0.0
            )

    def test_line_input_raises(self):
        with pytest.raises(DomainError, match="no usable samples"):
            verify_od_properties(straight_segment(), ODParameters(1.0, 1.0))


_IDENTITY_DONOR = donor("circular_helix", 0.0, 20.0, 501)


class TestDerivativeIdentity:
    # The position derivative always splits as
    #   sin(theta) T + cos(theta) N + n tau B
    # regardless of the donor, which is why unit speed holds exactly when
    # the N-coefficient n vanishes.

    @settings(max_examples=10, deadline=None)
    @given(
        a=st.floats(0.1, 10.0),
        b=st.floats(0.1, 10.0),
        sa=st.sampled_from([-1.0, 1.0]),
        sb=st.sampled_from([-1.0, 1.0]),
        phase=st.floats(0.0, 2 * np.pi),
    )
    def test_tangent_split(self, a, b, sa, sb, phase):
        f = _IDENTITY_DONOR
        p = ODParameters(sa * a, sb * b, phase)
        gam = od_osculating_curve(f, p)
        th = p.phase_c + _cumulative(f.kappa, f.grid.h, 0.0)
        rho = (f.grid.values - f.grid.values[0]) + p.b
        n = rho * np.cos(th) - p.a * np.sin(th)
        pred = (
            np.sin(th)[:, None] * f.T
            + np.cos(th)[:, None] * f.N
            + (n * f.tau)[:, None] * f.B
        )
        d1 = derivative(VectorSamples(f.grid, gam.points), 1)
        itr = f.grid.interior(6)
        dev = np.max(np.linalg.norm(d1.data[itr] - pred[itr], axis=1))
        assert dev < 1e-5 * (1.0 + abs(p.a) + abs(p.b))

        start = p.a * np.cos(p.phase_c) * f.T[0] + (
            p.b * np.cos(p.phase_c) - p.a * np.sin(p.phase_c)
        ) * f.N[0] + p.b * np.sin(p.phase_c) * f.T[0]
        assert np.max(np.abs(gam.points[0] - start)) < 1e-12
