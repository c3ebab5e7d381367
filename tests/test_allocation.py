"""Traced allocation peaks of the statistics and kernels on a large curve,
in units of one (n, 3) float64 array at n = 20001 (at n = 200001, the
large benchmark size, for the tests on the large companion).

Masked statistics select a one-run mask's rows through a view, the
stencil and quadrature kernels write into one output array, the Frenet
frame, the osculating-plane companion and every worst-row statistic
(numerics._masked_maxima, the frame-system residuals included) run in
row blocks (numerics._BLOCK_ROWS; n = 20001 is three blocks, each about
0.4 units), whatever the number of runs of the mask, and the predicted
frame of predicted_bar_data is built only when read.  So each peak counts
the whole-array temporaries a call still makes.  The counts are
deterministic for a given numpy; a change that brings back a full-array
copy raises a peak by about one unit and fails its bound.  The bounds sit
between the measured peaks and those of the code they replaced
(verify_frame 6.7, then 3.7 before blocking; predicted_bar_data 4.8;
frenet_apparatus 5.3 above the arrays it keeps; compare_predicted on a
multi-run mask 1.0; od_osculating_curve 4.2).  Peaks measured with
numpy 2.4, before and after the statistics went through _masked_maxima:
frenet_derivative_check 5.67 -> 2.78, plane_test 0.38 -> 0.18,
unit_speed_deviation 0.67 -> 0.28, mannheim_check 0.71 -> 0.42 (2.4
before it reduced with where=), verify_od_properties on a curve with a
stored frame 1.70 -> 1.61 (5.4 before that), while it still read such a
frame; it now always computes its own and peaks at 5.33 of these units
at n = 20001, about 3.1 of them its fixed 8192-row block scratch, so it
is bounded at n = 200001 only.  classify on a frame whose arc
length and ratio are already cached went 1.05 -> 0.72, but on a fresh
frame, as tested here, it peaks at 1.71 either way (3.4 before the
masked statistics took views), so its bound stays.  general_helix_test
went 0.72 -> 0.38 when the zero-level median of classify.constancy began
to partition its own copy of |values| in place (overwrite_input) instead
of a second copy.  verify_od_properties on a curve without a stored frame
went 6.08 -> 2.77 units at n = 200001 (units of that size) when it began
to read the frame block by block and store none, and 2.77 -> 1.46 when
its block scratch went before the arc length, which now overwrites the
speed, and its ratio-line fit began to drop the full arrays first;
slant_helix_invariant went 1.67 -> 1.00 (slant_helix_test 1.67 ->
1.38) when it was built in place, and cumulative_integral on (n, 3)
data 3.0 -> 2.0 when its panels were written term by term.  At
n = 200001, od_osculating_curve went 2.14 -> 1.14 when a curve the
library builds began to keep its points instead of a copy, and
direction_field 2.00 -> 1.08 when it was written block by block;
donor_from_direction went 1.38 -> 1.04 when it was built in place, and
1.04 -> 1.09 when it began to differentiate the Darboux angle and to
build its row mask before its results; it is traced on a one-sign
window, [0, 1.47], and reads the same peak on a window where the
normal reverses.
"""

import tracemalloc

import numpy as np
import pytest

from frenetdir.classify import (
    classify,
    general_helix_test,
    plane_test,
    slant_helix_invariant,
    slant_helix_test,
)
from frenetdir.curves import CurveSamples, evaluate_catalog
from frenetdir.direction import (
    compare_predicted,
    direction_field,
    donor_from_direction,
    integrate_direction_curve,
    mannheim_check,
    osculating_coefficients,
    osculating_direction_curve,
    predicted_bar_data,
)
from frenetdir.frenet import (
    frenet_apparatus,
    frenet_derivative_check,
    unit_speed_deviation,
    verify_frame,
)
from frenetdir.numerics import VectorSamples, cumulative_integral, uniform_grid
from frenetdir.od import ODParameters, od_osculating_curve, verify_od_properties

N = 20001
UNIT = N * 3 * 8
LARGE_UNIT = 200001 * 3 * 8
PHASE = np.pi / 4


def traced_peak(call, unit=UNIT):
    """Peak traced memory above the level at the call, in UNITs (or in
    the given unit)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / unit
    finally:
        if started:
            tracemalloc.stop()


def helix():
    return evaluate_catalog("circular_helix", grid=uniform_grid(0.0, 40.0, N))


@pytest.fixture(scope="module")
def frames():
    f = frenet_apparatus(helix())
    g = frenet_apparatus(osculating_direction_curve(f, PHASE))
    # stencil weights, cached fields and numpy's lazy imports are one-off
    # allocations: make them before tracing
    verify_frame(f)
    mannheim_check(g, f)
    predicted_bar_data(f, osculating_coefficients(f, PHASE))
    classify(evaluate_catalog("circular_helix"))
    return f, g


@pytest.fixture(scope="module")
def companion():
    # the osculating-plane companion of helix_12_5, built once before
    # tracing; verify_od_properties is bounded on its large copy below,
    # where its fixed block scratch is a small part of a unit
    p = ODParameters(1.0, 1.0, 0.3)
    donor = frenet_apparatus(evaluate_catalog("helix_12_5", grid=uniform_grid(0.0, 1000.0, N)))
    od_osculating_curve(donor, p)
    return donor, p


def test_verify_frame_copies_no_frame(frames):
    f, _ = frames
    assert traced_peak(lambda: verify_frame(f)) < 2.5


def test_frenet_apparatus_keeps_no_full_length_temporary(frames):
    c = helix()
    peak = traced_peak(lambda: frenet_apparatus(c))
    f = frenet_apparatus(c)
    kept = sum(a.nbytes for a in (f.T, f.N, f.B, f.kappa, f.tau, f.frenet_valid, f.speed))
    assert peak - kept / UNIT < 4.0


def test_predicted_bar_data_builds_no_frame(frames):
    f, _ = frames
    dc = osculating_coefficients(f, PHASE)
    assert traced_peak(lambda: predicted_bar_data(f, dc)) < 1.0


def test_frenet_derivative_check_differentiates_block_by_block(frames):
    f, _ = frames
    assert traced_peak(lambda: frenet_derivative_check(f)) < 4.0


def test_plane_test_gathers_no_rows(frames):
    f, _ = frames
    assert traced_peak(lambda: plane_test(f)) < 0.3


def test_unit_speed_deviation_makes_no_full_length_temporary(frames):
    f, _ = frames
    assert traced_peak(lambda: unit_speed_deviation(f)) < 0.5


def test_mannheim_check_gathers_no_rows(frames):
    f, g = frames
    assert traced_peak(lambda: mannheim_check(g, f)) < 0.6


def test_general_helix_test_takes_one_median_copy_at_a_time(frames):
    f, _ = frames
    general_helix_test(f)  # caches f.ratio
    assert traced_peak(lambda: general_helix_test(f)) < 0.55


def test_classify_on_a_built_frame(frames):
    c = helix()
    frenet_apparatus(c)
    assert traced_peak(lambda: classify(c)) < 2.5


def test_integrate_direction_curve_stays_near_its_output(frames):
    f, _ = frames
    X = direction_field(f, osculating_coefficients(f, PHASE))
    integrate_direction_curve(X)
    assert traced_peak(lambda: integrate_direction_curve(X)) <= 4.5


def test_compare_predicted_gathers_no_rows_of_a_multi_run_mask(frames):
    # |v| drops below the cos floor six times along this helix
    f, g = frames
    dc = osculating_coefficients(f, PHASE)
    pb = predicted_bar_data(f, dc)
    compare_predicted(g, pb, dc, cos_floor=0.05)
    assert traced_peak(lambda: compare_predicted(g, pb, dc, cos_floor=0.05)) < 0.75


@pytest.fixture(scope="module")
def large_companion():
    # n = 200001, the large benchmark size: the companion of the fixture
    # above on a grid ten times finer
    n = 200001
    p = ODParameters(1.0, 1.0, 0.3)
    grid = uniform_grid(0.0, 1000.0 * (n - 1) / (N - 1), n)
    donor = frenet_apparatus(evaluate_catalog("helix_12_5", grid=grid))
    gamma = od_osculating_curve(donor, p)
    verify_od_properties(CurveSamples(grid, gamma.points), p)
    return donor, gamma, p


def test_verify_od_properties_stores_no_frame_on_a_fresh_curve(large_companion):
    # the frame it stored peaked at 6.08 units, the speed, a separate arc
    # length and the gathered fit rows beside it at 2.77; now the arc
    # length overwrites the speed and the fit holds four (n,) arrays
    _, gamma, p = large_companion
    fresh = CurveSamples(gamma.grid, gamma.points)
    assert traced_peak(lambda: verify_od_properties(fresh, p), unit=LARGE_UNIT) < 1.8
    assert "_frenet" not in fresh.__dict__


def test_od_osculating_curve_keeps_the_array_it_builds(large_companion):
    # 2.14 when CurveSamples copied the positions; at n = 20001 the block
    # temporaries hide the copy
    donor, _, p = large_companion
    assert traced_peak(lambda: od_osculating_curve(donor, p), unit=LARGE_UNIT) < 1.5


def test_direction_field_writes_one_output_array(large_companion):
    # 2.0 when u T and v N were whole-array products
    donor, _, p = large_companion
    dc = osculating_coefficients(donor, p.phase_c)
    assert traced_peak(lambda: direction_field(donor, dc), unit=LARGE_UNIT) < 1.5


def test_donor_from_direction_builds_its_results_in_place():
    # 1.38 when each factor was a whole-array temporary.  The window keeps
    # cos(theta) of one sign: on helix()'s [0, 40] the direction curve's
    # normal reverses, and the rows around each reversal come back NaN
    f = frenet_apparatus(evaluate_catalog("circular_helix", grid=uniform_grid(0.0, 1.47, N)))
    g = frenet_apparatus(osculating_direction_curve(f, PHASE))
    donor_from_direction(g)  # caches g.angle
    assert traced_peak(lambda: donor_from_direction(g)) < 1.2


def test_slant_helix_invariant_builds_its_result_in_place(frames):
    # 1.67 when each factor was a whole-array temporary
    _, g = frames
    slant_helix_test(g)  # caches g.angle
    assert traced_peak(lambda: slant_helix_invariant(g)) < 1.3
    assert traced_peak(lambda: slant_helix_test(g)) < 1.5


def test_cumulative_integral_writes_its_panels_term_by_term(frames):
    # 3.0 when the interior panels were one whole-array expression
    f, _ = frames
    T = VectorSamples(f.grid, f.T)
    cumulative_integral(T)
    assert traced_peak(lambda: cumulative_integral(T)) < 2.5


def test_od_osculating_curve_writes_one_position_array(companion):
    donor, p = companion
    assert traced_peak(lambda: od_osculating_curve(donor, p)) < 4.0
