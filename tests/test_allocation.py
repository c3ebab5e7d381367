"""Traced allocation peaks of the statistics and kernels on a large curve,
in units of one (n, 3) float64 array at n = 20001.

Masked statistics select a one-run mask's rows through a view, the
stencil and quadrature kernels write into one output array, the Frenet
frame and the frame statistics run in row blocks (numerics._BLOCK_ROWS;
n = 20001 is three blocks, each about 0.4 units), and the predicted frame
of predicted_bar_data is built only when read.  So each peak counts the
whole-array temporaries a call still makes.  The counts are deterministic
for a given numpy; a change that brings back a full-array copy raises a
peak by about one unit and fails its bound.  The bounds sit between the
measured peaks and those of the code they replaced (verify_frame 6.7, then
3.7 before blocking; mannheim_check 2.4; classify 3.4; predicted_bar_data
4.8; frenet_apparatus 5.3 above the arrays it keeps).
"""

import tracemalloc

import numpy as np
import pytest

from frenetdir.classify import classify
from frenetdir.curves import evaluate_catalog
from frenetdir.direction import (
    direction_field,
    integrate_direction_curve,
    mannheim_check,
    osculating_coefficients,
    osculating_direction_curve,
    predicted_bar_data,
)
from frenetdir.frenet import frenet_apparatus, verify_frame
from frenetdir.numerics import uniform_grid

N = 20001
UNIT = N * 3 * 8
PHASE = np.pi / 4


def traced_peak(call):
    """Peak traced memory above the level at the call, in UNITs."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / UNIT
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


def test_mannheim_check_gathers_no_rows(frames):
    f, g = frames
    assert traced_peak(lambda: mannheim_check(g, f)) < 1.5


def test_classify_on_a_built_frame(frames):
    c = helix()
    frenet_apparatus(c)
    assert traced_peak(lambda: classify(c)) < 2.5


def test_integrate_direction_curve_stays_near_its_output(frames):
    f, _ = frames
    X = direction_field(f, osculating_coefficients(f, PHASE))
    integrate_direction_curve(X)
    assert traced_peak(lambda: integrate_direction_curve(X)) <= 4.5
