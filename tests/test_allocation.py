"""Traced allocation peaks of the statistics and kernels on a large curve,
in units of one (n, 3) float64 array at n = 20001.

Masked statistics select a one-run mask's rows through a view, and the
stencil and quadrature kernels write into one output array, so each peak
counts the whole-array temporaries a call still makes.  The counts are
deterministic for a given numpy; a change that brings back a full-array
copy raises a peak by about one unit and fails its bound.  The bounds sit
between the measured peaks and those of the copying code they replaced
(verify_frame 6.7, mannheim_check 2.4, classify 3.4).
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
    classify(evaluate_catalog("circular_helix"))
    return f, g


def test_verify_frame_copies_no_frame(frames):
    f, _ = frames
    assert traced_peak(lambda: verify_frame(f)) < 5.0


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
