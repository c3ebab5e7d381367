import collections
import dataclasses
import warnings

import numpy as np
import pytest

from frenetdir import frenet, numerics
from frenetdir.classify import classify, rectifying_test
from frenetdir.curves import CurveSamples, catalog_names, evaluate_catalog
from frenetdir.errors import DomainError
from frenetdir.frenet import (
    KAPPA_FLOOR,
    FrenetData,
    ResidualCheck,
    frenet_apparatus,
    frenet_derivative_check,
    verify_frame,
)
from frenetdir.numerics import Grid, VectorSamples, cross, derivative, norm, uniform_grid

from oracles import FRAME_ORACLES, WARPED_HELICES, warped_helix


def catalog_frenet(name, n=2001):
    c = evaluate_catalog(name)
    if n != 2001:
        c = evaluate_catalog(name, grid=uniform_grid(c.grid.s_min, c.grid.s_max, n))
    return c, frenet_apparatus(c)


class TestCurvatures:
    def test_helix_12_5(self):
        c, f = catalog_frenet("helix_12_5")
        inner = c.grid.interior()
        assert np.max(np.abs(f.kappa[inner] - 12.0 / 169.0)) < 1e-6
        assert np.max(np.abs(f.tau[inner] - 5.0 / 169.0)) < 1e-6

    def test_unit_circular_helix(self):
        c, f = catalog_frenet("circular_helix")
        inner = c.grid.interior()
        assert np.max(np.abs(f.kappa[inner] - 0.5)) < 1e-6
        assert np.max(np.abs(f.tau[inner] - 0.5)) < 1e-6

    def test_straight_line_flagged_invalid(self):
        g = uniform_grid(0.0, 5.0, 51)
        pts = np.stack([g.values, np.zeros(51), np.zeros(51)], axis=1)
        f = frenet_apparatus(CurveSamples(g, pts))
        assert not f.frenet_valid.any()
        assert np.allclose(f.kappa, 0.0, atol=1e-12)
        assert np.isnan(f.N).all()
        assert np.isnan(f.B).all()
        assert np.isnan(f.tau).all()

    def test_non_unit_speed_native_accuracy(self):
        # the unit helix (cos p, sin p, p) on p = 3t + t^2: curvature and
        # torsion are 1/2 on any parameter, the speed is sqrt(2) dp/dt and
        # the arc length sqrt(2) p
        g = uniform_grid(0.0, 2.0, 2001)
        t = g.values
        p = 3 * t + t**2
        f = frenet_apparatus(CurveSamples(g, np.stack([np.cos(p), np.sin(p), p], axis=1)))
        inner = f.valid_interior()
        assert np.max(np.abs(f.kappa[inner] - 0.5)) < 1e-6
        assert np.max(np.abs(f.tau[inner] - 0.5)) < 1e-6
        assert np.max(np.abs(f.speed[inner] - np.sqrt(2.0) * (3 + 2 * t[inner]))) < 1e-6
        assert np.max(np.abs(f.s - np.sqrt(2.0) * p)) < 1e-6

    @pytest.mark.filterwarnings("error")
    def test_stalled_sample_rejected(self):
        # five repeated samples: the central stencil of the middle one sees
        # no motion at all.  At n = 20001 the stall is in the second row
        # block, and the first block's divisions must not warn.
        for n, i, s in ((101, 50, "1"), (20001, 9000, "0.9")):
            g = uniform_grid(0.0, 2.0, n)
            pts = np.stack([np.cos(g.values), np.sin(g.values), g.values], axis=1)
            pts[i - 2:i + 3] = pts[i - 2]
            with pytest.raises(DomainError, match=rf"degenerate curve: .* at sample {i} \(parameter {s}\)"):
                frenet_apparatus(CurveSamples(g, pts))

    def test_planar_curve_torsion_vanishes(self):
        g = uniform_grid(0.0, 2 * np.pi, 1001)
        pts = np.stack([np.cos(g.values), np.sin(g.values), np.zeros(1001)], axis=1)
        f = frenet_apparatus(CurveSamples(g, pts))
        mask = f.valid_interior()
        assert np.max(np.abs(f.tau[mask])) < 1e-8


class TestNativeParameter:
    """Warped helices on their own parameter, the sample index as an x,y,z
    CSV gives it: curvature, torsion and arc length against closed form."""

    @pytest.mark.parametrize("case", WARPED_HELICES, ids=lambda c: f"n{c[-1]}-k{c[2]}")
    def test_warped_helix_closed_form(self, case):
        pts, s, kappa, tau = warped_helix(*case)
        n = len(s)
        f = frenet_apparatus(CurveSamples(Grid(0.0, n - 1.0, n), pts))
        inner = f.valid_interior()
        # the coarse case is truncation-limited: O(h^4) at a quarter of the
        # samples per turn
        tol = 1e-6 if n > 1000 else 1e-5
        assert np.max(np.abs(f.kappa[inner] - kappa)) < tol
        assert np.max(np.abs(f.tau[inner] - tau)) < tol
        assert np.max(np.abs(f.s - s) / s[-1]) < tol


class TestAgainstClosedForms:
    @pytest.mark.parametrize("name", ["circular_helix", "helix_12_5", "root_curve", "spherical_helix"])
    def test_frame_matches_oracle(self, name):
        c, f = catalog_frenet(name)
        want = FRAME_ORACLES[name](c.grid.values)
        inner = c.grid.interior()
        assert np.max(np.abs(f.T[inner] - want["T"][inner])) < 1e-4
        assert np.max(np.abs(f.N[inner] - want["N"][inner])) < 1e-4
        assert np.max(np.abs(f.B[inner] - want["B"][inner])) < 1e-4

    @pytest.mark.parametrize("name", ["circular_helix", "helix_12_5"])
    def test_curvatures_match_oracle_benign(self, name):
        # constant-curvature entries: agreement at full interior margin, at
        # the default odd count and at the even count beside it
        errors = {}
        for n in (2001, 2000):
            c, f = catalog_frenet(name, n)
            want = FRAME_ORACLES[name](c.grid.values)
            inner = c.grid.interior()
            errors[n] = np.array([
                np.max(np.abs(f.kappa[inner] - want["kappa"][inner]) / want["kappa"][inner]),
                np.max(np.abs(f.tau[inner] - want["tau"][inner]) / np.abs(want["tau"][inner])),
            ])
            assert np.all(errors[n] < 1e-6), n
        assert np.all(errors[2000] < 2 * errors[2001])

    @pytest.mark.parametrize("name", ["root_curve", "spherical_helix"])
    def test_curvatures_match_oracle_steep(self, name):
        # curvature grows without bound toward these entries' domain edges,
        # so truncation error concentrates there and decays fast inward:
        # modest accuracy a few samples in, tight accuracy deeper in
        c, f = catalog_frenet(name)
        want = FRAME_ORACLES[name](c.grid.values)
        # the torsion floor is third-derivative roundoff at h ~ 5e-4
        for margin, tol_k, tol_t in ((10, 1e-5, 5e-4), (50, 2e-6, 1e-5)):
            sl = c.grid.interior(margin)
            relk = np.abs(f.kappa[sl] - want["kappa"][sl]) / np.abs(want["kappa"][sl])
            relt = np.abs(f.tau[sl] - want["tau"][sl]) / np.abs(want["tau"][sl])
            assert np.max(relk) < tol_k, margin
            assert np.max(relt) < tol_t, margin

    def test_kappa_equals_norm_of_second_derivative(self):
        for name in ("circular_helix", "helix_12_5"):
            c, f = catalog_frenet(name)
            d2 = derivative(VectorSamples(c.grid, c.points), 2).data
            inner = c.grid.interior()
            assert np.max(np.abs(f.kappa[inner] - np.linalg.norm(d2, axis=1)[inner])) < 1e-6


def _frenet_apparatus_numpy(c):
    """The apparatus as computed with np.cross and np.linalg.norm, kept as
    the reference the row-wise kernels must reproduce bit for bit."""
    pts = VectorSamples(c.grid, c.points)
    d1, d2, d3 = (derivative(pts, k).data for k in (1, 2, 3))
    d1xd2 = np.cross(d1, d2)
    speed = np.linalg.norm(d1, axis=1)
    cross_norm = np.linalg.norm(d1xd2, axis=1)
    kappa = cross_norm / speed**3
    valid = kappa >= KAPPA_FLOOR
    T = d1 / speed[:, None]
    denom = np.where(valid, cross_norm, 1.0)
    B = d1xd2 / denom[:, None]
    N = np.cross(B, T)
    tau = np.einsum("ij,ij->i", d1xd2, d3) / denom**2
    B[~valid] = np.nan
    N[~valid] = np.nan
    tau[~valid] = np.nan
    return T, N, B, kappa, tau, valid, speed


def _assert_matches_numpy(c, f):
    T, N, B, kappa, tau, valid, speed = _frenet_apparatus_numpy(c)
    pairs = ((f.T, T), (f.N, N), (f.B, B), (f.kappa, kappa), (f.tau, tau), (f.speed, speed))
    for got, expected in pairs:
        assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(f.frenet_valid, valid)


class TestNumpyReference:
    # n = 20001 is three row blocks, the last one partial
    @pytest.mark.parametrize("name", catalog_names())
    @pytest.mark.parametrize("n", [201, 2001, 20001])
    def test_bit_identical(self, name, n):
        _assert_matches_numpy(*catalog_frenet(name, n))

    @pytest.mark.parametrize("block_rows", [1, 2, 5, 64])
    @pytest.mark.parametrize("n", [41, 201])
    def test_bit_identical_for_any_block_size(self, monkeypatch, block_rows, n):
        # block edges inside the one-sided bands at both ends
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", block_rows)
        for name in catalog_names():
            _assert_matches_numpy(*catalog_frenet(name, n))


class TestLayout:
    @pytest.mark.parametrize("name", ["helix_12_5", "root_curve"])
    def test_points_of_any_layout_give_the_same_frame(self, name):
        # F-ordered and strided points give the frame of the C-ordered
        # ones, edge rows included
        c, f = catalog_frenet(name)
        wide = np.zeros((c.grid.n, 6))
        wide[:, ::2] = c.points
        for pts in (np.asfortranarray(c.points), wide[:, ::2]):
            g = frenet_apparatus(CurveSamples(c.grid, pts))
            for key in ("T", "N", "B", "kappa", "tau", "speed", "frenet_valid", "s"):
                assert np.array_equal(getattr(g, key), getattr(f, key), equal_nan=True), key

    def test_frame_is_stored_component_major(self):
        _, f = catalog_frenet("circular_helix", n=201)
        for a in (f.T, f.N, f.B):
            assert a.shape == (201, 3)
            assert a.T.flags.c_contiguous
            assert not a.flags.writeable and not a.T.flags.writeable


class TestVerifyFrame:
    def test_catalog_frames_pass(self):
        for name in ("circular_helix", "helix_12_5", "root_curve", "spherical_helix"):
            _, f = catalog_frenet(name)
            r = verify_frame(f, tol=1e-6)
            assert r.passed, (name, r)
            assert not r.vacuous

    def test_negated_normal_breaks_handedness(self):
        _, f = catalog_frenet("circular_helix", n=201)
        flipped = FrenetData(f.grid, f.T, -f.N, f.B, f.kappa, f.tau, f.frenet_valid, f.speed)
        r = verify_frame(flipped, tol=1e-6)
        assert not r.passed
        assert r.handedness == pytest.approx(2.0, abs=1e-4)
        assert r.worst == r.handedness

    def test_worst_is_the_largest_deviation(self):
        _, f = catalog_frenet("circular_helix")
        r = verify_frame(f, tol=1e-6)
        fields = (r.norm_T, r.norm_N, r.norm_B, r.dot_TN, r.dot_TB, r.dot_NB, r.handedness)
        assert r.worst == max(fields)
        assert not verify_frame(f, tol=r.worst).passed

    @pytest.mark.parametrize(
        "hole, n",
        [(None, 201), (100, 201), (None, 20001), (100, 20001)],
        ids=["one-run", "two-runs", "one-run-20001", "two-runs-20001"],
    )
    def test_equals_boolean_indexed_statistics(self, hole, n):
        # an interior row without a frame splits valid_interior() in two;
        # at n = 20001 one run is three row blocks
        _, f = catalog_frenet("helix_12_5", n=n)
        if hole is not None:
            valid, N, B = f.frenet_valid.copy(), f.N.copy(), f.B.copy()
            valid[hole] = False
            N[hole] = B[hole] = np.nan
            f = FrenetData(f.grid, f.T, N, B, f.kappa, f.tau, valid, f.speed)
        mask = f.valid_interior()
        T, N, B = f.T[mask], f.N[mask], f.B[mask]
        expected = {
            "norm_T": norm(T) - 1.0,
            "norm_N": norm(N) - 1.0,
            "norm_B": norm(B) - 1.0,
            "dot_TN": np.einsum("ij,ij->i", T, N),
            "dot_TB": np.einsum("ij,ij->i", T, B),
            "dot_NB": np.einsum("ij,ij->i", N, B),
            "handedness": np.einsum("ij,ij->i", cross(T, N), B) - 1.0,
        }
        r = verify_frame(f, tol=1e-6)
        for key, x in expected.items():
            assert getattr(r, key) == float(np.max(np.abs(x))), key

    def test_rows_outside_the_mask_raise_no_warning(self):
        # inf - inf in the dot products of a row without a frame, inside
        # the span of the valid rows
        _, f = catalog_frenet("helix_12_5", n=201)
        valid, T, N = f.frenet_valid.copy(), f.T.copy(), f.N.copy()
        valid[100] = False
        T[100], N[100] = np.inf, (1.0, 0.0, -1.0)
        broken = FrenetData(f.grid, T, N, f.B, f.kappa, f.tau, valid, f.speed)
        expected = verify_frame(FrenetData(f.grid, f.T, f.N, f.B, f.kappa, f.tau, valid, f.speed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_frame(broken) == expected

    def test_all_invalid_is_vacuous_pass(self):
        g = uniform_grid(0.0, 5.0, 51)
        pts = np.stack([g.values, np.zeros(51), np.zeros(51)], axis=1)
        f = frenet_apparatus(CurveSamples(g, pts))
        r = verify_frame(f, tol=1e-6)
        assert r.passed
        assert r.vacuous


class TestRatio:
    def test_masked_division_bit_for_bit(self):
        _, f = catalog_frenet("circular_helix", n=201)
        # rows marked invalid by hand keep finite torsion that must not leak
        valid = f.frenet_valid & (np.arange(f.grid.n) % 7 != 0)
        f = FrenetData(f.grid, f.T, f.N, f.B, f.kappa, f.tau, valid, f.speed)
        expected = np.full(f.grid.n, np.nan)
        expected[valid] = f.tau[valid] / f.kappa[valid]
        assert np.array_equal(f.ratio, expected, equal_nan=True)
        assert np.all(np.isnan(f.ratio[~valid])) and np.all(np.isfinite(f.tau[~valid]))
        assert not f.ratio.flags.writeable


class TestOneFramePerCurve:
    def test_second_call_returns_the_stored_frame(self):
        c = evaluate_catalog("circular_helix", grid=uniform_grid(0.0, 4 * np.pi, 201))
        assert frenet_apparatus(c) is frenet_apparatus(c)

    def test_every_array_is_read_only(self):
        _, f = catalog_frenet("helix_12_5", n=201)
        arrays = {fld.name: getattr(f, fld.name) for fld in dataclasses.fields(f)}
        arrays = {k: v for k, v in arrays.items() if isinstance(v, np.ndarray)}
        arrays.update(s=f.s, ratio=f.ratio)
        assert sorted(arrays) == ["B", "N", "T", "frenet_valid", "kappa", "ratio", "s", "speed", "tau"]
        for name, a in arrays.items():
            assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            f.kappa[0] = 0.0

    def test_writes_to_the_source_array_leave_the_frame_alone(self):
        g = uniform_grid(0.0, 4 * np.pi, 201)
        pts = evaluate_catalog("circular_helix", grid=g).points.copy()
        c = CurveSamples(g, pts)
        before = frenet_apparatus(c).kappa.copy()
        pts[:] = 2.0 * pts
        f = frenet_apparatus(c)
        assert np.array_equal(f.kappa, before)
        assert np.array_equal(f.kappa, frenet_apparatus(CurveSamples(g, 0.5 * pts)).kappa)

    @staticmethod
    def counted_kernel_calls(monkeypatch):
        # frenet_apparatus differentiates through the row-range kernel, once
        # per order and block; the curves below are one block
        calls = collections.Counter()
        kernel = frenet._derivative

        def counted(y, order, *args):
            calls[order] += 1
            return kernel(y, order, *args)

        monkeypatch.setattr(frenet, "_derivative", counted)
        return calls

    def test_classify_reuses_the_callers_frame(self, monkeypatch):
        calls = self.counted_kernel_calls(monkeypatch)
        c = evaluate_catalog("circular_helix")
        frenet_apparatus(c)
        classify(c)
        assert calls == {1: 1, 2: 1, 3: 1}

    def test_rectifying_test_reuses_the_callers_frame(self, monkeypatch):
        calls = self.counted_kernel_calls(monkeypatch)
        c = evaluate_catalog("helix_12_5")
        f = frenet_apparatus(c)
        rectifying_test(c)
        assert calls == {1: 1, 2: 1, 3: 1}
        assert frenet_apparatus(c) is f


class TestDerivativeIdentities:
    @pytest.mark.parametrize("name", ["circular_helix", "helix_12_5"])
    def test_catalog_residuals_small(self, name):
        _, f = catalog_frenet(name)
        r = frenet_derivative_check(f)
        assert r.passed, r

    def test_constant_frame_zero_residuals(self):
        g = uniform_grid(0.0, 1.0, 51)
        e = np.eye(3)
        ones = np.ones(51)
        f = FrenetData(
            grid=g,
            T=np.tile(e[0], (51, 1)),
            N=np.tile(e[1], (51, 1)),
            B=np.tile(e[2], (51, 1)),
            kappa=0.0 * ones,
            tau=0.0 * ones,
            frenet_valid=np.ones(51, dtype=bool),
            speed=ones,
        )
        r = frenet_derivative_check(f)
        assert r.passed
        assert max(r.res_T, r.res_N, r.res_B) < 1e-13

    @pytest.mark.parametrize("case", WARPED_HELICES[:3], ids=lambda c: f"n{c[-1]}-k{c[2]}")
    def test_warped_helix_residuals_small(self, case):
        # the identities hold in d/ds, not in d/dt of the warped parameter
        pts = warped_helix(*case)[0]
        n = len(pts)
        r = frenet_derivative_check(frenet_apparatus(CurveSamples(Grid(0.0, n - 1.0, n), pts)))
        assert r.passed, r

    def test_residuals_shrink_with_resolution(self):
        def worst(n):
            _, f = catalog_frenet("circular_helix", n=n)
            r = frenet_derivative_check(f)
            return max(r.res_T, r.res_N, r.res_B)

        assert worst(251) / worst(501) >= 12.0


def _derivative_check_numpy(f, tol=1e-4):
    """frenet_derivative_check as one whole-array pass: d/ds of the whole
    frame, full-length residuals, then the max over the rows of the
    doubled-margin interior whose three residuals are finite."""
    def d_ds(a):
        return derivative(VectorSamples(f.grid, a), 1).data / f.speed[:, None]

    with np.errstate(invalid="ignore"):
        dT, dN, dB = d_ds(f.T), d_ds(f.N), d_ds(f.B)
        k, t = f.kappa[:, None], f.tau[:, None]
        rT = norm(dT - k * f.N)
        rN = norm(dN + k * f.T - t * f.B)
        rB = norm(dB + t * f.N)
    mask = f.valid_interior(2 * numerics.BOUNDARY_MARGIN)
    mask &= np.isfinite(rT) & np.isfinite(rN) & np.isfinite(rB)
    if not np.any(mask):
        return ResidualCheck(0.0, 0.0, 0.0, passed=True, vacuous=True)
    res = [float(np.max(r[mask])) for r in (rT, rN, rB)]
    return ResidualCheck(*res, passed=bool(max(res) < tol), vacuous=False)


def _bits(r):
    return [x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(r)]


class TestDerivativeCheckBlocks:
    # 64-row blocks put block edges inside the doubled boundary margin
    # and across the runs of non-finite rows

    @pytest.mark.parametrize("name", catalog_names())
    def test_equals_the_whole_array_pass(self, monkeypatch, name):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", 64)
        _, f = catalog_frenet(name, 2001)
        got = frenet_derivative_check(f)
        assert not got.vacuous
        assert _bits(got) == _bits(_derivative_check_numpy(f))

    @staticmethod
    def _with_nan_rows(rows):
        _, f = catalog_frenet("circular_helix", 401)
        N, B, tau = f.N.copy(), f.B.copy(), f.tau.copy()
        for a in (N, B, tau):
            a[rows] = np.nan
        # frenet_valid stays set, so only the finiteness test drops rows
        return dataclasses.replace(f, N=N, B=B, tau=tau)

    def test_non_finite_rows_are_not_judged(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", 64)
        f = self._with_nan_rows(np.r_[60:70, 127, 128, 300])
        got = frenet_derivative_check(f)
        assert not got.vacuous and np.isfinite([got.res_T, got.res_N, got.res_B]).all()
        assert _bits(got) == _bits(_derivative_check_numpy(f))

    def test_no_finite_judged_row_is_vacuous(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", 64)
        f = self._with_nan_rows(slice(None))
        got = frenet_derivative_check(f)
        assert got.vacuous and got.passed
        assert _bits(got) == _bits(_derivative_check_numpy(f))


def test_kappa_floor_value():
    assert KAPPA_FLOOR == 1e-9
