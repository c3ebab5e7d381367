import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenetdir import numerics
from frenetdir.classify import ZERO_LEVEL, ConstancyReport, constancy
from frenetdir.numerics import (
    BOUNDARY_MARGIN,
    MIN_SAMPLES,
    ScalarSamples,
    VectorSamples,
    _cumulative,
    cross,
    cumulative_integral,
    derivative,
    norm,
    rowdot,
    uniform_grid,
)


class TestGrid:
    def test_values_hit_endpoints_exactly(self):
        # any count of at least MIN_SAMPLES, of either parity
        for n in (11, 10):
            g = uniform_grid(0.3, 2.7, n)
            assert g.values[0] == 0.3
            assert g.values[-1] == 2.7
            assert g.values.shape == (n,)

    def test_spacing(self):
        g = uniform_grid(0.0, 1.0, 101)
        assert g.h == pytest.approx(0.01)
        assert np.allclose(np.diff(g.values), g.h)

    def test_rejects_too_few_samples(self):
        for n in (7, 8):
            with pytest.raises(ValueError, match=str(MIN_SAMPLES)):
                uniform_grid(0.0, 1.0, n)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            uniform_grid(1.0, 1.0, 11)
        with pytest.raises(ValueError):
            uniform_grid(2.0, 1.0, 11)

    def test_interior_slice_drops_margin(self):
        g = uniform_grid(0.0, 1.0, 21)
        inner = g.values[g.interior()]
        assert inner.shape == (21 - 2 * BOUNDARY_MARGIN,)
        assert inner[0] == g.values[BOUNDARY_MARGIN]


class TestSamples:
    def test_scalar_shape_checked(self):
        g = uniform_grid(0.0, 1.0, 9)
        with pytest.raises(ValueError):
            ScalarSamples(g, np.zeros(8))

    def test_vector_shape_checked(self):
        g = uniform_grid(0.0, 1.0, 9)
        with pytest.raises(ValueError):
            VectorSamples(g, np.zeros((9, 2)))
        VectorSamples(g, np.zeros((9, 3)))


class TestDerivative:
    def setup_method(self):
        self.g = uniform_grid(0.0, 2.0, 41)

    def test_polynomial_first_derivative_exact(self):
        # degree 4 is inside the exactness range of every window used
        s = self.g.values
        f = ScalarSamples(self.g, s**4 - 3 * s**2 + s)
        d = derivative(f, 1)
        assert np.allclose(d.data, 4 * s**3 - 6 * s + 1, atol=1e-10)

    def test_polynomial_second_derivative_exact(self):
        s = self.g.values
        f = ScalarSamples(self.g, s**4 + 2 * s**3)
        d = derivative(f, 2)
        assert np.allclose(d.data, 12 * s**2 + 12 * s, atol=1e-9)

    def test_polynomial_third_derivative_exact(self):
        s = self.g.values
        f = ScalarSamples(self.g, s**5 - s**4)
        d = derivative(f, 3)
        assert np.allclose(d.data, 60 * s**2 - 24 * s, atol=1e-8)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_trig_accuracy_everywhere(self, order):
        g = uniform_grid(0.0, 2 * np.pi, 201)
        s = g.values
        d = derivative(ScalarSamples(g, np.sin(s)), order)
        exact = np.sin(s + order * np.pi / 2)
        assert np.max(np.abs(d.data - exact)) < 5e-6

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_fourth_order_convergence(self, order):
        # halving h must shrink the worst-case error by >= 12 (2^4 = 16
        # ideal); grids stay coarse enough that truncation, not roundoff,
        # dominates even for the third derivative
        exact = {
            1: lambda s: 3 * np.cos(3 * s),
            2: lambda s: -9 * np.sin(3 * s),
            3: lambda s: -27 * np.cos(3 * s),
        }[order]

        def err(n):
            g = uniform_grid(0.0, 1.5, n)
            d = derivative(ScalarSamples(g, np.sin(3 * g.values)), order)
            return np.max(np.abs(d.data - exact(g.values)))

        assert err(41) / err(81) >= 12.0

    @pytest.mark.parametrize("b, c, w1, w2", [(1.0, 1.0, 2.0, 2.5), (0.5, 2.0, 2.4, 2.4), (1.5, 1.0, 2.5, 2.875)])
    def test_third_derivative_edge_rows_converge_on_two_waves(self, b, c, w1, w2):
        # two-frequency waves on which the 7-point one-sided order-3 row
        # was still pre-asymptotic at n = 41 (41 -> 81 ratios 10.0, 3.6
        # and 10.4); every row, edges included, must shrink by >= 12
        def err(n):
            g = uniform_grid(0.0, 1.5, n)
            s = g.values
            d = derivative(ScalarSamples(g, b * np.sin(w1 * s) + c * np.cos(w2 * s)), 3)
            exact = -b * w1**3 * np.cos(w1 * s) + c * w2**3 * np.sin(w2 * s)
            return np.max(np.abs(d.data - exact))

        assert err(41) / err(81) >= 12.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_edge_rows_ignore_an_offset_of_the_data(self, order):
        # one-sided rows weight the differences against their own sample,
        # so an offset cancels exactly (these samples and differences are
        # exact in binary) instead of leaving the weights' rounding times
        # the offset over h^order: 31.7 for the order-3 rows of this line
        # when the offset was weighted in
        g = uniform_grid(0.0, 1.0, 2049)
        half = numerics._HALF[order]
        edges = [
            derivative(ScalarSamples(g, 3.0 * g.values + offset), order).data[[*range(half), *range(-half, 0)]]
            for offset in (0.0, 1e6)
        ]
        assert np.array_equal(edges[0], edges[1])

    def test_vector_matches_columnwise_scalar(self):
        s = self.g.values
        data = np.stack([np.sin(s), np.cos(s), s**3], axis=1)
        dv = derivative(VectorSamples(self.g, data), 2)
        for k in range(3):
            ds = derivative(ScalarSamples(self.g, data[:, k]), 2)
            assert np.array_equal(dv.data[:, k], ds.data)

    def test_bad_order_rejected(self):
        f = ScalarSamples(self.g, self.g.values)
        with pytest.raises(ValueError, match="order"):
            derivative(f, 4)
        with pytest.raises(ValueError, match="order"):
            derivative(f, 0)


def _derivative_1d_solving(y, order, h):
    """Reference kernel that solves every stencil on each call."""
    n = y.size
    half = numerics._HALF[order]
    center = numerics._stencil(np.arange(-half, half + 1), order)
    out = np.empty(n)
    out[half:n - half] = np.correlate(y, center, mode="valid")
    win, degree = numerics._EDGE_WINDOW[order], numerics._EDGE_DEGREE[order]
    for i in range(half):
        out[i] = numerics._stencil(np.arange(win) - i, order, degree) @ (y[:win] - y[i])
        j = n - 1 - i
        out[j] = numerics._stencil(np.arange(win) - (win - 1 - i), order, degree) @ (y[n - win:] - y[j])
    return out / h**order


class TestWeightTable:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_rows_equal_fresh_solves(self, order):
        half, win = numerics._HALF[order], numerics._EDGE_WINDOW[order]
        degree = numerics._EDGE_DEGREE[order]
        center, head, tail = numerics._weights(order)
        assert np.array_equal(center, numerics._stencil(np.arange(-half, half + 1), order))
        assert len(head) == len(tail) == half
        for i in range(half):
            assert np.array_equal(head[i], numerics._stencil(np.arange(win) - i, order, degree))
            assert np.array_equal(tail[i], numerics._stencil(np.arange(win) - (win - 1 - i), order, degree))

    def test_rows_are_read_only(self):
        center, head, tail = numerics._weights(3)
        for w in (center, *head, *tail):
            with pytest.raises(ValueError):
                w[0] = 0.0

    def test_no_solves_after_warm_up(self, monkeypatch):
        g = uniform_grid(0.0, 1.0, 41)
        scalar = ScalarSamples(g, np.sin(g.values))
        vector = VectorSamples(g, np.stack([np.sin(g.values), g.values**2, np.cos(g.values)], axis=1))
        for order in (1, 2, 3):
            derivative(scalar, order)
        calls = []
        solve = np.linalg.solve

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        for order in (1, 2, 3):
            derivative(scalar, order)
            derivative(vector, order)
        assert calls == []

    @pytest.mark.parametrize("n", [MIN_SAMPLES, 41, 201, 2001, 200001])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_bit_identical_to_solving_kernel(self, n, order):
        g = uniform_grid(-1.0, 3.0, n)
        s = g.values
        rng = np.random.default_rng(n)
        data = np.stack([40 * np.sin(3 * s), s**5 - 2 * s, rng.normal(size=n) * 1e3], axis=1)
        dv = derivative(VectorSamples(g, data), order).data
        for k in range(3):
            expected = _derivative_1d_solving(data[:, k], order, g.h)
            assert np.array_equal(derivative(ScalarSamples(g, data[:, k]), order).data, expected)
            assert np.array_equal(dv[:, k], expected)


class TestRowRanges:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_every_range_equals_the_whole_array_rows(self, order):
        # ranges that start, end or lie inside the one-sided bands included
        g = uniform_grid(-1.0, 3.0, 41)
        s = g.values
        rng = np.random.default_rng(41)
        data = np.stack([40 * np.sin(3 * s), s**5 - 2 * s, rng.normal(size=41) * 1e3], axis=1)
        for y in (data, data[:, 2], data[:, 0].copy()):
            whole = numerics._derivative(y, order, g.h)
            for lo in range(41):
                for hi in range(lo + 1, 42):
                    assert np.array_equal(numerics._derivative(y, order, g.h, lo, hi), whole[lo:hi])

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_output_of_any_layout_gets_the_same_rows(self, order):
        # a component-major (3, rows) scratch read as (rows, 3), as
        # frenet_apparatus passes it
        g = uniform_grid(-1.0, 3.0, 41)
        data = np.stack([np.sin(3 * g.values), g.values**5, np.cos(g.values)], axis=1)
        whole = numerics._derivative(data, order, g.h)
        scratch = np.empty((3, 50))
        for lo, hi in [(0, 41), (0, 5), (3, 20), (36, 41)]:
            out = scratch[:, :hi - lo].T
            assert numerics._derivative(data, order, g.h, lo, hi, out) is out
            assert np.array_equal(out, whole[lo:hi])

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_input_of_any_layout_gets_the_same_rows(self, order):
        g = uniform_grid(-1.0, 3.0, 41)
        data = np.stack([np.sin(3 * g.values), g.values**5, np.cos(g.values)], axis=1)
        wide = np.zeros((41, 6))
        wide[:, ::2] = data
        whole = numerics._derivative(data, order, g.h)
        for y in (np.asfortranarray(data), wide[:, ::2]):
            assert np.array_equal(numerics._derivative(y, order, g.h), whole)

    def test_blocks_cover_a_slice(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", 4)
        assert numerics._blocks(slice(3, 13)) == [slice(3, 7), slice(7, 11), slice(11, 13)]
        assert numerics._blocks(slice(3, 7)) == [slice(3, 7)]


class TestMaskedMaxima:
    @pytest.mark.parametrize("block_rows", [1, 5, 64, 8192])
    def test_equals_the_max_over_gathered_rows(self, monkeypatch, block_rows):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(2, 201))
        mask = np.zeros(201, dtype=bool)
        mask[[3, 4, 5, 90, 150, 151, 190]] = True
        got = numerics._masked_maxima(mask, lambda rows: (x[rows], np.abs(y[rows])))
        assert got == [float(np.max(x[mask])), float(np.max(np.abs(y[mask])))]

    def test_nan_on_a_true_row_propagates(self):
        x = np.arange(30.0)
        x[12] = np.nan
        mask = np.arange(30) > 5
        assert np.isnan(numerics._masked_maxima(mask, lambda rows: [x[rows]])[0])

    def test_rows_outside_the_mask_never_count_nor_warn(self):
        x = np.array([np.inf, 1.0, 2.0, -np.inf, 3.0, np.nan, 0.5])
        mask = np.array([False, True, True, False, True, False, True])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # inf * 0 on the rows outside the mask
            got = numerics._masked_maxima(mask, lambda rows: [x[rows] * 0.0 + x[rows]])
        assert got == [3.0]


class TestRows:
    @pytest.mark.parametrize(
        "true_rows, expected",
        [
            (range(12), slice(0, 12)),
            (range(3, 9), slice(3, 9)),
            ([5], slice(5, 6)),
            ([1, 2, 7, 8], None),
            ([], None),
        ],
        ids=["all-true", "one-run", "one-row", "two-runs", "all-false"],
    )
    def test_slice_for_one_run_else_the_mask(self, true_rows, expected):
        mask = np.zeros(12, dtype=bool)
        mask[list(true_rows)] = True
        rows = numerics._rows(mask)
        if expected is None:
            assert rows is mask
        else:
            assert rows == expected
        data = np.arange(36.0).reshape(12, 3)
        assert np.array_equal(data[rows], data[mask])


def _row_vectors(n, seed):
    """(n, 3) pairs of every memory layout the kernels meet, with NaN and
    inf rows: C-ordered, a masked copy, strided column views of a wider
    array, and an F-ordered copy."""
    rng = np.random.default_rng(seed)
    wide = rng.normal(size=(2, n, 6)) * np.array([1e-3, 1.0, 1e3, 7.0, 1e6, 0.5])
    wide[:, n // 2, 1] = np.nan
    wide[:, n // 3, 4] = np.inf
    a, b = wide[0, :, :3].copy(), wide[1, :, 3:].copy()
    mask = rng.random(n) < 0.7
    return {
        "C": (a, b),
        "masked": (a[mask], b[mask]),
        "strided": (wide[0, :, ::2], wide[1, :, 1::2]),
        "F": (np.asfortranarray(a), np.asfortranarray(b)),
    }


class TestRowKernels:
    @pytest.mark.parametrize("n", [MIN_SAMPLES, 201, 200001])
    @pytest.mark.parametrize("layout", ["C", "masked", "strided", "F"])
    def test_bit_identical_to_numpy(self, n, layout):
        a, b = _row_vectors(n, n)[layout]
        with np.errstate(invalid="ignore"):
            expected_cross = np.cross(a, b)
            got_cross = cross(a, b)
        assert got_cross.flags.c_contiguous
        assert np.array_equal(got_cross, expected_cross, equal_nan=True)
        assert np.array_equal(norm(a), np.linalg.norm(a, axis=1), equal_nan=True)
        assert np.array_equal(norm(b), np.linalg.norm(b, axis=1), equal_nan=True)

    @pytest.mark.parametrize("n", [MIN_SAMPLES, 201, 200001])
    @pytest.mark.parametrize("layout", ["C", "masked", "strided", "F"])
    def test_rowdot_bit_identical_to_einsum_on_c_rows(self, n, layout):
        # einsum itself rounds differently on F-ordered rows; rowdot
        # keeps the C-row bits in every layout
        a, b = _row_vectors(n, n)[layout]
        with np.errstate(invalid="ignore"):
            expected = np.einsum("ij,ij->i", np.ascontiguousarray(a), np.ascontiguousarray(b))
            got = rowdot(a, b)
        assert np.array_equal(got, expected, equal_nan=True)


def _cumulative_1d_gather(y, h, initial):
    """Reference kernel: one column, interior panels gathered through an
    index array, offset added to a fresh cumulative sum."""
    n = y.size
    panels = np.empty(n - 1)
    j = np.arange(1, n - 2)
    panels[j] = h * (-y[j - 1] + 13.0 * y[j] + 13.0 * y[j + 1] - y[j + 2]) / 24.0
    panels[0] = h * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]) / 24.0
    panels[n - 2] = h * (y[n - 4] - 5.0 * y[n - 3] + 19.0 * y[n - 2] + 9.0 * y[n - 1]) / 24.0
    out = np.empty(n)
    out[0] = initial
    out[1:] = initial + np.cumsum(panels)
    return out


class TestCumulativeIntegral:
    @pytest.mark.parametrize("n", [MIN_SAMPLES, 41, 200001])
    def test_columns_bit_identical_to_gathering_kernel(self, n):
        g = uniform_grid(-1.0, 3.0, n)
        s = g.values
        data = np.stack([40 * np.sin(3 * s), s**5 - 2 * s, np.exp(s)], axis=1)
        data[n // 2, 2] = np.nan
        initial = np.array([1.5, -2.0, 1e3])
        vec = _cumulative(data, g.h, initial)
        for k in range(3):
            expected = _cumulative_1d_gather(data[:, k], g.h, initial[k])
            scalar = _cumulative(data[:, k], g.h, initial[k])
            assert np.array_equal(scalar, expected, equal_nan=True)
            assert np.array_equal(vec[:, k], expected, equal_nan=True)
        assert np.all(np.isfinite(vec[:, :2])) and np.isnan(vec[-1, 2])

    def test_starts_at_initial(self):
        g = uniform_grid(0.0, 1.0, 11)
        out = _cumulative(g.values**2, g.h, 3.5)
        assert out[0] == 3.5

    def test_cubic_exact_everywhere(self):
        # each panel integrates an interpolating cubic, so cubic integrands
        # are reproduced at every sample
        g = uniform_grid(0.0, 2.0, 21)
        s = g.values
        out = cumulative_integral(ScalarSamples(g, s**3 - 3 * s**2 + s - 1))
        exact = s**4 / 4 - s**3 + s**2 / 2 - s
        assert np.allclose(out.data, exact, atol=1e-13)

    def test_local_error_is_sign_coherent(self):
        # the per-panel error must not alternate sign along the grid; an
        # alternating residue turns into an O(h^2) artifact when the
        # integrated data is differentiated twice downstream
        g = uniform_grid(0.0, 1.0, 41)
        s = g.values
        out = cumulative_integral(ScalarSamples(g, np.exp(s)))
        panel_err = np.diff(out.data - (np.exp(s) - 1.0))[1:-1]
        assert np.all(panel_err > 0) or np.all(panel_err < 0)

    def test_fourth_order_convergence(self):
        def err(n):
            g = uniform_grid(0.0, 2.0, n)
            out = cumulative_integral(ScalarSamples(g, np.cos(g.values)))
            return np.max(np.abs(out.data - np.sin(g.values)))

        assert err(201) / err(401) >= 12.0

    @pytest.mark.parametrize("layout", ["scalar", "rows", "components"])
    @pytest.mark.parametrize("n", [MIN_SAMPLES, 41, 20001])
    def test_output_may_be_the_input(self, n, layout):
        # every panel is complete before the output is written, so
        # integrating in place gives the bits of a fresh output
        g = uniform_grid(-1.0, 3.0, n)
        s = g.values
        data = np.stack([40 * np.sin(3 * s), s**5 - 2 * s, np.exp(s)], axis=1)
        initial = np.array([1.5, -2.0, 1e3])
        if layout == "scalar":
            data, initial = data[:, 0].copy(), 1.5
        elif layout == "components":
            data = np.asfortranarray(data)
        expected = _cumulative(data, g.h, initial)
        out = _cumulative(data, g.h, initial, out=data)
        assert out is data
        assert np.array_equal(out, expected)

    def test_vector_initial_broadcast(self):
        g = uniform_grid(0.0, 1.0, 11)
        out = _cumulative(np.ones((11, 3)), g.h, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out[-1], [2.0, 3.0, 4.0], atol=1e-12)


def _constancy_two_medians(values, rel_tol):
    """Reference: the zero level from the median of |values|, the
    relative variation from the median of values, always both."""
    lo, hi = float(values.min()), float(values.max())
    if np.median(np.abs(values)) < ZERO_LEVEL:
        return ConstancyReport(float(values.mean()), lo, hi, (hi - lo) / ZERO_LEVEL,
                               is_constant=True, degenerate_zero=True)
    rel = (hi - lo) / max(abs(float(np.median(values))), 1e-12)
    return ConstancyReport(float(values.mean()), lo, hi, rel, is_constant=bool(rel < rel_tol),
                           degenerate_zero=False)


def _bits(report):
    return [x.hex() if isinstance(x, float) else x for x in vars(report).values()]


class TestConstancy:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 2001, 2002])
    @pytest.mark.parametrize("scale", [1.0, 1e-7])
    def test_one_signed_values_match_the_reference(self, sign, n, scale):
        # -0.0 leaves the values one-signed either way
        rng = np.random.default_rng(n)
        values = sign * scale * rng.uniform(0.5, 1.5, n)
        values[n // 2] = -0.0
        assert _bits(constancy(values, 1e-3)) == _bits(_constancy_two_medians(values, 1e-3))

    @pytest.mark.parametrize("n", [2, 7, 8, 2001])
    @pytest.mark.parametrize("scale", [1.0, 1e-7])
    def test_mixed_signs_match_the_reference(self, n, scale):
        rng = np.random.default_rng(n)
        values = scale * rng.uniform(-0.5, 1.5, n)
        values[0], values[-1] = -scale, scale
        assert _bits(constancy(values, 1e-3)) == _bits(_constancy_two_medians(values, 1e-3))

    def test_constant_array(self):
        r = constancy(np.full(50, 2.4), rel_tol=1e-3)
        assert isinstance(r, ConstancyReport)
        assert r.is_constant
        assert r.mean == pytest.approx(2.4)
        assert r.rel_variation == 0.0
        assert not r.degenerate_zero

    def test_varying_array(self):
        r = constancy(np.linspace(1.0, 2.0, 50), rel_tol=1e-3)
        assert not r.is_constant
        assert r.rel_variation == pytest.approx(1.0 / 1.5, rel=1e-6)

    def test_near_zero_median_guard(self):
        # tiny absolute wobble around zero must not divide by zero: below
        # ZERO_LEVEL it is the identically-zero case, and a zero median of
        # values far from zero meets the 1e-12 floor
        r = constancy(np.array([-1e-15, 0.0, 1e-15]), rel_tol=1e-3)
        assert np.isfinite(r.rel_variation)
        assert r.is_constant and r.degenerate_zero
        r = constancy(np.array([-1.0, 0.0, 1.0]), rel_tol=1e-3)
        assert r.rel_variation == 2e12
        assert not r.is_constant and not r.degenerate_zero


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-2, 2),
    b=st.floats(-2, 2),
    c=st.floats(-2, 2),
)
def test_derivative_linear_in_data(a, b, c):
    g = uniform_grid(0.0, 1.0, 21)
    s = g.values
    f = ScalarSamples(g, a * s**2 + b * s + c)
    d = derivative(f, 1)
    assert np.allclose(d.data, 2 * a * s + b, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(initial=st.floats(-5, 5))
def test_integral_then_derivative_round_trip(initial):
    g = uniform_grid(0.0, 2.0, 81)
    y = np.sin(3 * g.values)
    integ = ScalarSamples(g, _cumulative(y, g.h, initial))
    back = derivative(integ, 1)
    err = np.abs(back.data - y)
    # boundary panels and one-sided derivative rows both lose accuracy at
    # the ends, so the full-grid bound is looser than the interior one
    assert np.max(err[g.interior()]) < 1e-5
    assert np.max(err) < 5e-4
