import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenetdir import numerics
from frenetdir.numerics import (
    BOUNDARY_MARGIN,
    MIN_SAMPLES,
    ConstancyReport,
    ScalarSamples,
    VectorSamples,
    constancy,
    cross,
    cumulative_integral,
    derivative,
    norm,
    uniform_grid,
)


class TestGrid:
    def test_values_hit_endpoints_exactly(self):
        g = uniform_grid(0.3, 2.7, 11)
        assert g.values[0] == 0.3
        assert g.values[-1] == 2.7
        assert g.values.shape == (11,)

    def test_spacing(self):
        g = uniform_grid(0.0, 1.0, 101)
        assert g.h == pytest.approx(0.01)
        assert np.allclose(np.diff(g.values), g.h)

    def test_rejects_even_n(self):
        with pytest.raises(ValueError, match="odd"):
            uniform_grid(0.0, 1.0, 10)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError, match=str(MIN_SAMPLES)):
            uniform_grid(0.0, 1.0, 7)

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
    win = numerics._EDGE_WINDOW[order]
    for i in range(half):
        out[i] = numerics._stencil(np.arange(win) - i, order) @ y[:win]
        j = n - 1 - i
        out[j] = numerics._stencil(np.arange(win) - (win - 1 - i), order) @ y[n - win:]
    return out / h**order


class TestWeightTable:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_rows_equal_fresh_solves(self, order):
        half, win = numerics._HALF[order], numerics._EDGE_WINDOW[order]
        center, head, tail = numerics._weights(order)
        assert np.array_equal(center, numerics._stencil(np.arange(-half, half + 1), order))
        assert len(head) == len(tail) == half
        for i in range(half):
            assert np.array_equal(head[i], numerics._stencil(np.arange(win) - i, order))
            assert np.array_equal(tail[i], numerics._stencil(np.arange(win) - (win - 1 - i), order))

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

    def test_blocks_cover_a_slice_and_keep_a_mask(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", 4)
        assert numerics._blocks(slice(3, 13)) == [slice(3, 7), slice(7, 11), slice(11, 13)]
        assert numerics._blocks(slice(3, 7)) == [slice(3, 7)]
        mask = np.array([True, False, True])
        blocks = numerics._blocks(mask)
        assert len(blocks) == 1 and blocks[0] is mask


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
        vec = cumulative_integral(VectorSamples(g, data), initial=initial).data
        for k in range(3):
            expected = _cumulative_1d_gather(data[:, k], g.h, initial[k])
            scalar = cumulative_integral(ScalarSamples(g, data[:, k]), initial=initial[k]).data
            assert np.array_equal(scalar, expected, equal_nan=True)
            assert np.array_equal(vec[:, k], expected, equal_nan=True)
        assert np.all(np.isfinite(vec[:, :2])) and np.isnan(vec[-1, 2])

    def test_starts_at_initial(self):
        g = uniform_grid(0.0, 1.0, 11)
        out = cumulative_integral(ScalarSamples(g, g.values**2), initial=3.5)
        assert out.data[0] == 3.5

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

    def test_vector_initial_broadcast(self):
        g = uniform_grid(0.0, 1.0, 11)
        f = VectorSamples(g, np.ones((11, 3)))
        out = cumulative_integral(f, initial=np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out.data[-1], [2.0, 3.0, 4.0], atol=1e-12)


class TestConstancy:
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
        # tiny absolute wobble around zero must not divide by zero
        r = constancy(np.array([-1e-15, 0.0, 1e-15]), rel_tol=1e-3)
        assert np.isfinite(r.rel_variation)


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
    integ = cumulative_integral(ScalarSamples(g, y), initial=initial)
    back = derivative(integ, 1)
    err = np.abs(back.data - y)
    # boundary panels and one-sided derivative rows both lose accuracy at
    # the ends, so the full-grid bound is looser than the interior one
    assert np.max(err[g.interior()]) < 1e-5
    assert np.max(err) < 5e-4
