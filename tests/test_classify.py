import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frenetdir
from frenetdir.classify import (
    _fit_line,
    classify,
    constancy,
    general_helix_test,
    line_test,
    plane_test,
    rectifying_test,
    slant_helix_invariant,
    slant_helix_test,
)
from frenetdir.curves import CurveSamples, catalog_entry, evaluate_catalog
from frenetdir.direction import osculating_direction_curve
from frenetdir.errors import DomainError
from frenetdir.frenet import frenet_apparatus
from frenetdir.od import ODParameters, od_osculating_curve, verify_od_properties
from frenetdir.numerics import (
    BOUNDARY_MARGIN,
    ScalarSamples,
    cumulative_integral,
    uniform_grid,
)

from oracles import warped_helix


def donor(name, lo=None, hi=None, n=2001):
    grid = None if lo is None else uniform_grid(lo, hi, n)
    return frenet_apparatus(evaluate_catalog(name, grid=grid))


def dir_curve(f, phase):
    return frenet_apparatus(osculating_direction_curve(f, phase))


def spherical_pair(n):
    # Domain trimmed away from the curvature blow-up at |s| = 1/c, phase
    # centered so the direction angle stays strictly inside (pi/2, pi) and
    # neither coefficient vanishes.
    f = donor("spherical_helix", -0.49, 0.49, n)
    span = cumulative_integral(ScalarSamples(f.grid, f.kappa)).data[-1]
    phase = np.pi / 2 + (np.pi / 2 - span) / 2
    return f, dir_curve(f, phase)


def unit_circle(n=2001):
    g = uniform_grid(0.0, 2 * np.pi, n)
    s = g.values
    pts = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=1)
    return CurveSamples(grid=g, points=pts)


def straight_segment(n=101):
    g = uniform_grid(0.0, 1.0, n)
    s = g.values
    pts = np.stack([s, np.zeros_like(s), np.zeros_like(s)], axis=1)
    return CurveSamples(grid=g, points=pts)


def invariant_mask(g, margin=3 * BOUNDARY_MARGIN, cos_floor=0.05):
    sigma = slant_helix_invariant(g)
    mask = np.zeros(g.grid.n, dtype=bool)
    mask[g.grid.interior(margin)] = True
    mask &= np.isfinite(sigma)
    with np.errstate(invalid="ignore"):
        frac = g.kappa / np.sqrt(g.kappa**2 + g.tau**2)
    mask &= np.nan_to_num(frac) >= cos_floor
    return sigma, mask


class TestGeneralHelixTest:
    def test_slope_five_twelfths_helix(self):
        rep = general_helix_test(donor("helix_12_5"))
        assert rep.is_constant
        assert not rep.degenerate_zero
        assert abs(rep.mean - 5.0 / 12.0) < 1e-4

    def test_unit_pitch_helix(self):
        rep = general_helix_test(donor("circular_helix"))
        assert rep.is_constant
        assert abs(rep.mean - 1.0) < 1e-4

    def test_root_curve_ratio_is_one(self):
        # Trimmed domain: the catalog endpoints sit 1e-3 from curvature
        # singularities and the default grid cannot resolve them.
        rep = general_helix_test(donor("root_curve", 0.05, 0.95))
        assert rep.is_constant
        assert abs(rep.mean - 1.0) < 1e-3

    def test_spherical_ratio_magnitude_two(self):
        f, _ = spherical_pair(2001)
        rep = general_helix_test(f)
        assert rep.is_constant
        assert abs(abs(rep.mean) - 2.0) < 1e-3
        assert rep.mean < 0

    def test_plane_curve_is_degenerate_constant(self):
        rep = general_helix_test(frenet_apparatus(unit_circle()))
        assert rep.is_constant
        assert rep.degenerate_zero

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="rel_tol"):
            general_helix_test(donor("circular_helix"), rel_tol=0.0)

    def test_line_has_no_usable_samples(self):
        with pytest.raises(DomainError, match="no usable samples"):
            general_helix_test(frenet_apparatus(straight_segment()))


class TestSlantHelixInvariant:
    def test_direction_curve_of_unit_helix(self):
        g = dir_curve(donor("circular_helix"), np.pi / 4)
        sigma, mask = invariant_mask(g)
        assert np.max(np.abs(np.abs(sigma[mask]) - 1.0)) < 1e-3

    def test_direction_curve_of_slope_helix(self):
        g = dir_curve(donor("helix_12_5"), 0.11)
        sigma, mask = invariant_mask(g)
        # Samples just above the exclusion cutoff carry noise amplified by
        # the inverse square of the small curvature; the pointwise claim
        # holds cleanly one step further from the pole.
        sigma_in, strict = invariant_mask(g, cos_floor=0.1)
        assert np.max(np.abs(np.abs(sigma_in[strict]) - 2.4)) < 1e-3
        assert abs(np.mean(np.abs(sigma[mask])) - 2.4) < 1e-3

    def test_zero_on_general_helices(self):
        for name in ("circular_helix", "helix_12_5"):
            f = donor(name)
            sigma, mask = invariant_mask(f)
            vals = np.abs(sigma[mask])
            assert np.max(vals) < 1e-5
            assert np.median(vals) < 1e-6

    def test_nan_where_frame_undefined(self):
        g = dir_curve(donor("circular_helix"), np.pi / 4)
        sigma = slant_helix_invariant(g)
        assert np.any(~g.frenet_valid)
        assert np.all(np.isnan(sigma[~g.frenet_valid]))

    def test_line_raises(self):
        with pytest.raises(DomainError, match="no usable samples"):
            slant_helix_invariant(frenet_apparatus(straight_segment()))


class TestSlantHelixTest:
    def test_direction_curve_of_unit_helix_passes(self):
        rep = slant_helix_test(dir_curve(donor("circular_helix"), np.pi / 4))
        assert rep.is_constant
        assert not rep.degenerate_zero
        assert abs(rep.mean - 1.0) < 1e-2
        assert rep.rel_variation < 1e-3

    def test_direction_curve_of_warped_unit_helix_passes(self):
        # the same donor arc [0, 4 pi] on a parameter that is not arc length
        pts = warped_helix(1.0, 1.0, 1, 0.3, np.sqrt(2.0), 2001)[0]
        f = frenet_apparatus(CurveSamples(uniform_grid(0.0, 1.0, 2001), pts))
        rep = slant_helix_test(dir_curve(f, np.pi / 4))
        assert rep.is_constant
        assert abs(rep.mean - 1.0) < 1e-2
        assert rep.rel_variation < 1e-3

    def test_donor_helix_is_degenerate_constant(self):
        rep = slant_helix_test(donor("circular_helix"))
        assert rep.is_constant
        assert rep.degenerate_zero

    def test_direction_curve_of_slope_helix_passes(self):
        rep = slant_helix_test(dir_curve(donor("helix_12_5"), 0.11))
        assert rep.is_constant
        assert abs(rep.mean - 2.4) < 1e-2

    def test_direction_curve_of_spherical_donor(self):
        # The constant equals the donor's curvature-to-torsion ratio, the
        # same identity every other donor/direction pair satisfies; for
        # torsion/curvature = -2 that ratio has magnitude one half.
        _, g = spherical_pair(801)
        rep = slant_helix_test(g)
        assert rep.is_constant
        assert abs(rep.mean - 0.5) < 1e-2

    def test_rows_whose_stencil_reads_a_pole_are_excluded(self):
        # n = 201: rows 48 and 52 clear the ratio floor themselves, but
        # their five-point stencils read row 50, below it (its curvature
        # is 1.1e-7), and give |sigma| = 2.1e11
        lo, hi = catalog_entry("circular_helix").domain
        g = dir_curve(donor("circular_helix", lo, hi, 201), 0.0)
        sigma = slant_helix_invariant(g)
        assert np.abs(sigma[[48, 52]]).min() > 1e11
        rep = slant_helix_test(g)
        assert rep.max < 1.001
        assert abs(rep.mean - 1.0) < 1e-2

    def test_pole_rows_break_constancy_without_exclusion(self):
        g = dir_curve(donor("helix_12_5"), 0.11)
        sigma, mask = invariant_mask(g, cos_floor=0.0)
        rep = constancy(np.abs(sigma[mask]), 1e-3)
        assert not rep.is_constant
        assert rep.rel_variation > 1.0

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="rel_tol"):
            slant_helix_test(donor("circular_helix"), rel_tol=-1.0)

    @settings(max_examples=8, deadline=None)
    @given(phase=st.floats(min_value=0.05, max_value=1.5))
    def test_mean_independent_of_phase(self, phase):
        rep = slant_helix_test(dir_curve(_UNIT_HELIX, phase))
        assert rep.is_constant
        assert abs(rep.mean - 1.0) < 1e-2


_UNIT_HELIX = frenet_apparatus(evaluate_catalog("circular_helix"))


class TestPlaneAndLine:
    def test_circle_is_plane_not_line(self):
        f = frenet_apparatus(unit_circle())
        assert plane_test(f)
        assert not line_test(f)

    def test_segment_is_line(self):
        assert line_test(frenet_apparatus(straight_segment()))

    def test_helix_is_neither(self):
        f = donor("circular_helix")
        assert not plane_test(f)
        assert not line_test(f)

    def test_root_curve_is_not_plane(self):
        assert not plane_test(donor("root_curve", 0.05, 0.95))


class TestRectifyingTest:
    def test_plain_helix_fails(self):
        c = evaluate_catalog("circular_helix")
        rep = rectifying_test(c)
        assert not rep.is_rectifying
        # The normal component of the position is order one for a helix
        # through the origin, nowhere near the rectifying plane.
        assert 0.05 < rep.normal_component < 0.5
        assert abs(rep.fit.slope) < 1e-6
        assert abs(rep.fit.intercept - 1.0) < 1e-6
        assert rep.fit.max_residual < 1e-6

    def test_rejects_bad_tolerance(self):
        c = evaluate_catalog("circular_helix")
        with pytest.raises(ValueError, match="tol"):
            rectifying_test(c, tol=0.0)

    def test_line_raises(self):
        c = straight_segment()
        with pytest.raises(DomainError, match="no usable samples"):
            rectifying_test(c)


class TestClassify:
    def test_slope_helix_report(self):
        rep = classify(evaluate_catalog("helix_12_5"))
        assert not rep.is_line
        assert not rep.is_plane
        assert rep.is_general_helix
        assert rep.is_slant_helix
        assert rep.sigma_it.degenerate_zero
        assert not rep.is_rectifying
        assert abs(rep.helix_ratio.mean - 5.0 / 12.0) < 1e-4

    def test_line_suppresses_everything(self):
        rep = classify(straight_segment())
        assert rep.is_line
        assert not rep.is_plane
        assert not rep.is_general_helix
        assert not rep.is_slant_helix
        assert not rep.is_rectifying
        assert rep.helix_ratio is None
        assert rep.sigma_it is None
        assert rep.rectifying is None

    def test_direction_curve_swaps_the_verdicts(self):
        dc = osculating_direction_curve(donor("circular_helix"), np.pi / 4)
        rep = classify(dc)
        assert not rep.is_general_helix
        assert rep.is_slant_helix
        assert not rep.sigma_it.degenerate_zero

    def test_circle_is_plane_and_degenerate_helix(self):
        rep = classify(unit_circle())
        assert rep.is_plane
        assert rep.is_general_helix
        assert rep.helix_ratio.degenerate_zero

    def test_non_unit_input_on_native_parameter(self):
        t = np.linspace(0.0, 4 * np.pi, 2001)
        pts = np.stack([np.cos(t), np.sin(t), t], axis=1)
        c = CurveSamples(uniform_grid(0.0, 4 * np.pi, 2001), pts)
        rep = classify(c)
        assert rep.is_general_helix
        assert abs(rep.helix_ratio.mean - 1.0) < 1e-3

    def test_nan_point_rejected_before_classify(self):
        # a NaN sample used to reach classify, which then called the helix
        # a slant helix and not a general helix without raising
        c = evaluate_catalog("circular_helix")
        pts = c.points.copy()
        pts[500, 1] = np.nan
        with pytest.raises(DomainError, match=r"non-finite point at sample 500 \(s=3\.14159\)"):
            classify(CurveSamples(c.grid, pts))


# the verify table's windows: root_curve and spherical_helix are trimmed
# away from their curvature singularities
VERIFY_WINDOWS = (
    ("circular_helix", None, None),
    ("helix_12_5", None, None),
    ("root_curve", 0.05, 0.95),
    ("spherical_helix", -0.49, 0.49),
)


class TestFitLine:
    @pytest.mark.parametrize("name, lo, hi", VERIFY_WINDOWS)
    def test_matches_polyfit_on_report_rows(self, name, lo, hi, monkeypatch):
        # record the (s, ratio) rows that rectifying_test and
        # verify_od_properties fit, on the curve and on its companion
        rows = []

        def recording(s, ratio, who):
            rows.append((s, ratio, who))
            return _fit_line(s, ratio, who)

        # the package exports a classify function under the module's name
        for module in ("frenetdir.classify", "frenetdir.od"):
            monkeypatch.setattr(importlib.import_module(module), "_fit_line", recording)
        c = evaluate_catalog(name, grid=None if lo is None else uniform_grid(lo, hi, 2001))
        f = frenet_apparatus(c)
        p = ODParameters(1.0, 1.0)
        rectifying_test(c)
        verify_od_properties(c, p)
        verify_od_properties(od_osculating_curve(f, p), p)
        assert [who for *_, who in rows] == [
            "rectifying_test", "rectifying_test", "verify_od_properties",
            "rectifying_test", "verify_od_properties",
        ]
        for s, ratio, who in rows:
            fit = _fit_line(s, ratio, who)
            slope, intercept = np.polyfit(s, ratio, 1)
            assert abs(fit.slope - slope) < 1e-12, who
            assert abs(fit.intercept - intercept) < 1e-12, who

    @pytest.mark.parametrize("value", [0.0, 0.1, 169.0])
    def test_equal_s_values_raise_without_warnings(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="probe: a line fit needs distinct"):
                _fit_line(np.full(7, value), np.arange(7.0), "probe")

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # a sum threaded over two BLAS workers rounds differently from one;
        # the thread count is read when numpy loads, so each runs in a child
        code = (
            "import numpy as np\n"
            "from frenetdir.classify import _fit_line\n"
            "s = np.linspace(0.0, 1000.0, 200001)\n"
            "r = 0.3 * s + np.random.default_rng(3).normal(size=s.size)\n"
            "fit = _fit_line(s, r, 'probe')\n"
            "print(fit.slope.hex(), fit.intercept.hex(), fit.max_residual.hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(frenetdir.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=env, check=False)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_two_samples_are_enough(self):
        fit = _fit_line(np.array([1.0, 3.0]), np.array([2.0, 6.0]), "probe")
        assert (fit.slope, fit.intercept, fit.max_residual) == (2.0, 0.0, 0.0)


def theorem_pairs():
    f1 = donor("circular_helix")
    f2 = donor("helix_12_5")
    f3 = donor("root_curve", 0.05, 0.95, 401)
    f4, g4 = spherical_pair(801)
    return [
        (f1, dir_curve(f1, np.pi / 4)),
        (f2, dir_curve(f2, 0.11)),
        (f3, dir_curve(f3, 0.2)),
        (f4, g4),
    ]


class TestCatalogTheorems:
    pairs = theorem_pairs()

    def test_helix_donors_give_slant_direction_curves(self):
        for f, g in self.pairs:
            ratio = general_helix_test(f)
            assert ratio.is_constant
            slant = slant_helix_test(g)
            assert slant.is_constant
            assert not slant.degenerate_zero
            expected = 1.0 / abs(ratio.mean)
            assert abs(slant.mean - expected) < 1e-2

    def test_direction_curves_are_never_general_helices(self):
        for _, g in self.pairs:
            assert not general_helix_test(g).is_constant

    def test_twisted_donors_give_twisted_direction_curves(self):
        for f, g in self.pairs:
            assert np.max(np.abs(f.tau[f.valid_interior()])) > 1e-3
            assert not plane_test(g)
            assert not line_test(g)

    def test_verdicts_survive_rigid_motion(self):
        c = evaluate_catalog("helix_12_5")
        base = classify(c)
        rng = np.random.default_rng(7)
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1.0
        moved = CurveSamples(c.grid, c.points @ q.T + np.array([3.0, -2.0, 0.5]))
        rep = classify(moved)
        assert (rep.is_line, rep.is_plane, rep.is_general_helix,
                rep.is_slant_helix, rep.is_rectifying) == (
            base.is_line, base.is_plane, base.is_general_helix,
            base.is_slant_helix, base.is_rectifying)
        assert abs(rep.helix_ratio.mean - base.helix_ratio.mean) < 1e-6
        assert abs(rep.sigma_it.mean - base.sigma_it.mean) < 1e-6
