"""Randomized cross-cutting invariants.

The fixed-input suites pin measured values; these sweep the inputs the
theory says should not matter (rigid motions, window placement, direction
phase, helix parameters, test-function coefficients) and assert the
invariant alone.  Example counts are kept modest so the whole module stays
within a second or two.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frenetdir.classify import classify, general_helix_test
from frenetdir.curves import (
    CurveSamples,
    evaluate_catalog,
    load_csv,
    save_csv,
)
from frenetdir.direction import (
    direction_field,
    integrate_direction_curve,
    mannheim_check,
    osculating_coefficients,
)
from frenetdir.frenet import frenet_apparatus, frenet_derivative_check, verify_frame
from frenetdir.numerics import _cumulative, _derivative, uniform_grid

_WINDOWS = {
    "circular_helix": (0.0, 4 * np.pi),
    "helix_12_5": (0.0, 169.0),
}

_helix_names = st.sampled_from(sorted(_WINDOWS))
_unit_interval = st.floats(0.0, 1.0)


def frame_on_window(name, t0, t1, n=501, min_span=0.1):
    lo, hi = _WINDOWS[name]
    a = lo + min(t0, t1) * (hi - lo)
    b = lo + max(t0, t1) * (hi - lo)
    assume(b - a > min_span * (hi - lo))
    c = evaluate_catalog(name, grid=uniform_grid(a, b, n))
    return c, frenet_apparatus(c)


def rotation(axis, angle):
    u = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(u)
    assume(norm > 0.3)
    u = u / norm
    k = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


class TestRigidMotion:
    @settings(max_examples=10, deadline=None)
    @given(
        name=_helix_names,
        axis=st.tuples(*[st.floats(-1, 1)] * 3),
        angle=st.floats(-np.pi, np.pi),
        shift=st.tuples(*[st.floats(-5, 5)] * 3),
    )
    def test_curvatures_and_frame_covariant(self, name, axis, angle, shift):
        # 1e-6 is the stated invariance bound; shifting the coordinates
        # moves the roundoff floor of the one-sided boundary stencils, so
        # machine-level agreement cannot be demanded
        q = rotation(axis, angle)
        c, f0 = frame_on_window(name, 0.0, 1.0, n=401)
        moved = CurveSamples(c.grid, c.points @ q.T + np.asarray(shift))
        f1 = frenet_apparatus(moved)
        m = f0.frenet_valid & f1.frenet_valid
        assert np.max(np.abs(f1.kappa[m] - f0.kappa[m])) < 1e-6
        assert np.max(np.abs(f1.tau[m] - f0.tau[m])) < 1e-6
        for v0, v1 in ((f0.T, f1.T), (f0.N, f1.N), (f0.B, f1.B)):
            assert np.max(np.abs(v1[m] - v0[m] @ q.T)) < 1e-6

    @settings(max_examples=6, deadline=None)
    @given(
        name=_helix_names,
        axis=st.tuples(*[st.floats(-1, 1)] * 3),
        angle=st.floats(-np.pi, np.pi),
        shift=st.tuples(*[st.floats(-5, 5)] * 3),
    )
    def test_classification_invariant(self, name, axis, angle, shift):
        q = rotation(axis, angle)
        c = evaluate_catalog(name)
        moved = CurveSamples(c.grid, c.points @ q.T + np.asarray(shift))
        base, rep = classify(c), classify(moved)
        assert (base.is_line, base.is_plane, base.is_general_helix,
                base.is_slant_helix, base.is_rectifying) == (
            rep.is_line, rep.is_plane, rep.is_general_helix,
            rep.is_slant_helix, rep.is_rectifying)
        assert abs(base.helix_ratio.mean - rep.helix_ratio.mean) < 1e-6
        assert abs(base.sigma_it.mean - rep.sigma_it.mean) < 1e-6


class TestFrameProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        name=_helix_names,
        t0=_unit_interval,
        t1=_unit_interval,
        n=st.sampled_from((301, 501, 801)),
    )
    def test_frame_checks_pass_on_any_window(self, name, t0, t1, n):
        _, f = frame_on_window(name, t0, t1, n=n)
        assert verify_frame(f, tol=1e-6).passed
        assert frenet_derivative_check(f).passed

    @settings(max_examples=10, deadline=None)
    @given(name=_helix_names, phase=st.floats(-np.pi, np.pi))
    def test_direction_field_unit_norm(self, name, phase):
        _, f = frame_on_window(name, 0.0, 1.0, n=501)
        x = direction_field(f, osculating_coefficients(f, phase)).data
        assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-9

    def test_full_catalog_resolvable_windows(self):
        for name, lo, hi in (
            ("circular_helix", None, None),
            ("helix_12_5", None, None),
            ("root_curve", 0.05, 0.95),
            ("spherical_helix", -0.49, 0.49),
        ):
            grid = None if lo is None else uniform_grid(lo, hi, 2001)
            f = frenet_apparatus(evaluate_catalog(name, grid=grid))
            assert verify_frame(f, tol=1e-6).passed, name
            assert frenet_derivative_check(f).passed, name


def _wave(b, c, w1, w2, shift=0.0):
    # sin/cos pair with each derivative order available in closed form
    def f_k(s, k):
        return b * w1**k * np.sin(w1 * s + k * np.pi / 2) + c * w2**k * np.cos(
            w2 * s + k * np.pi / 2
        )

    return f_k


class TestConvergence:
    @settings(max_examples=15, deadline=None)
    @given(
        b=st.floats(0.5, 2.0),
        c=st.floats(0.5, 2.0),
        w1=st.floats(1.5, 4.0),
        w2=st.floats(1.5, 4.0),
        order=st.sampled_from((1, 2, 3)),
    )
    def test_derivative_fourth_order(self, b, c, w1, w2, order):
        f_k = _wave(b, c, w1, w2)

        def err(n):
            g = uniform_grid(0.0, 1.5, n)
            d = _derivative(f_k(g.values, 0), order, g.h)
            return np.max(np.abs(d - f_k(g.values, order)))

        assert err(41) / err(81) >= 12.0

    @settings(max_examples=15, deadline=None)
    @given(
        b=st.floats(0.5, 2.0),
        c=st.floats(0.5, 2.0),
        w1=st.floats(1.5, 4.0),
        w2=st.floats(1.5, 4.0),
    )
    def test_integral_fourth_order(self, b, c, w1, w2):
        f_k = _wave(b, c, w1, w2)

        def err(n):
            g = uniform_grid(0.0, 2.0, n)
            out = _cumulative(f_k(g.values, 0), g.h, 0.0)
            exact = f_k(g.values, -1) - f_k(0.0, -1)
            return np.max(np.abs(out - exact))

        assert err(201) / err(401) >= 12.0


class TestDirectionAnyPhase:
    @settings(max_examples=10, deadline=None)
    @given(name=_helix_names, phase=st.floats(-0.9, 0.4))
    def test_normal_binormal_alignment(self, name, phase):
        # short windows plus the bounded phase keep the accumulated angle
        # clear of cosine zeros, where the companion's curvature vanishes
        # and its numerical normal loses meaning
        lo, hi = {"circular_helix": (0.0, 2.0), "helix_12_5": (0.0, 12.0)}[name]
        f = frenet_apparatus(
            evaluate_catalog(name, grid=uniform_grid(lo, hi, 501))
        )
        dc = osculating_coefficients(f, phase)
        g = frenet_apparatus(integrate_direction_curve(direction_field(f, dc)))
        rep = mannheim_check(g, f)
        assert rep.min_alignment >= 1 - 1e-4
        assert not rep.vacuous

    @settings(max_examples=10, deadline=None)
    @given(phase=st.floats(-np.pi, np.pi))
    def test_tangent_is_the_direction_field(self, phase):
        _, f = frame_on_window("circular_helix", 0.0, 1.0, n=501)
        dc = osculating_coefficients(f, phase)
        x = direction_field(f, dc)
        g = frenet_apparatus(integrate_direction_curve(x))
        m = g.valid_interior()
        assert np.max(np.abs(g.T[m] - x.data[m])) < 1e-6


class TestHelixParameters:
    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(0.2, 3.0), b=st.floats(-3.0, 3.0))
    def test_curvatures_match_closed_form(self, a, b):
        assume(abs(b) > 0.05)
        w2 = a * a + b * b
        # window scales with the turn radius so per-revolution resolution
        # stays fixed; tight helices are otherwise under-resolved at n=301
        c = evaluate_catalog(
            "circular_helix", parameters={"a": a, "b": b},
            grid=uniform_grid(0.0, 6.0 * np.sqrt(w2), 301),
        )
        f = frenet_apparatus(c)
        i = f.grid.interior()
        assert np.max(np.abs(f.kappa[i] - a / w2)) < 1e-6
        assert np.max(np.abs(f.tau[i] - b / w2)) < 1e-6
        assert general_helix_test(f).is_constant


class TestCsvRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(name=_helix_names, t0=_unit_interval, t1=_unit_interval)
    def test_save_load_lossless(self, name, t0, t1, tmp_path_factory):
        c, _ = frame_on_window(name, t0, t1, n=51)
        path = tmp_path_factory.mktemp("csv") / "curve.csv"
        save_csv(c, path)
        back = load_csv(path)
        assert np.array_equal(back.grid.values, c.grid.values)
        assert np.array_equal(back.points, c.points)
