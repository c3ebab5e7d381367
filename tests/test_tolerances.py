"""Every public tolerance must be a finite positive number, and every
cos_floor a fraction in [0, 1); anything else is a ValueError naming the
parameter, never a silent verdict."""

import numpy as np
import pytest

from frenetdir import (
    ODParameters,
    classify,
    compare_predicted,
    evaluate_catalog,
    frenet_apparatus,
    general_helix_test,
    mannheim_check,
    od_osculating_curve,
    osculating_coefficients,
    osculating_direction_curve,
    predicted_bar_data,
    rectifying_test,
    run_checks,
    slant_helix_test,
    uniform_grid,
    verify_frame,
    verify_od_properties,
)

BAD = [np.nan, np.inf, 0.0, -1.0]

# entry point -> name of its tolerance parameter
ENTRY_POINTS = {
    "verify_frame": "tol",
    "general_helix_test": "rel_tol",
    "slant_helix_test": "rel_tol",
    "rectifying_test": "tol",
    "classify.rel_tol": "rel_tol",
    "classify.rect_tol": "rect_tol",
    "mannheim_check": "tol",
    "compare_predicted": "atol",
    "verify_od_properties": "tol",
    "run_checks": "tol",
}


@pytest.fixture(scope="module")
def calls():
    c = evaluate_catalog("circular_helix", grid=uniform_grid(0.0, 4.0, 201))
    f = frenet_apparatus(c)
    dc = osculating_coefficients(f, np.pi / 4)
    g = frenet_apparatus(osculating_direction_curve(f, np.pi / 4))
    pb = predicted_bar_data(f, dc)
    p = ODParameters(1.0, 1.0)
    gamma = od_osculating_curve(f, p)
    return {
        "verify_frame": lambda t: verify_frame(f, tol=t),
        "general_helix_test": lambda t: general_helix_test(f, rel_tol=t),
        "slant_helix_test": lambda t: slant_helix_test(g, rel_tol=t),
        "rectifying_test": lambda t: rectifying_test(c, tol=t),
        "classify.rel_tol": lambda t: classify(c, rel_tol=t),
        "classify.rect_tol": lambda t: classify(c, rect_tol=t),
        "mannheim_check": lambda t: mannheim_check(g, f, tol=t),
        "compare_predicted": lambda t: compare_predicted(g, pb, dc, atol=t),
        "verify_od_properties": lambda t: verify_od_properties(gamma, p, tol=t),
        "run_checks": lambda t: run_checks(only="constants", tol=t),
        "compare_predicted.cos_floor": lambda x: compare_predicted(g, pb, dc, cos_floor=x),
    }


@pytest.mark.parametrize("bad", BAD, ids=str)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_tolerance_rejected_naming_it(calls, entry, bad):
    with pytest.raises(ValueError, match=f"^{ENTRY_POINTS[entry]} must be finite and positive"):
        calls[entry](bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.0, 2.0], ids=str)
@pytest.mark.parametrize("entry", ["compare_predicted"])
def test_bad_cos_floor_rejected_naming_it(calls, entry, bad):
    # cos_floor is a fraction of the curvature/torsion norm, valid on [0, 1)
    with pytest.raises(ValueError, match="^cos_floor must lie in"):
        calls[entry + ".cos_floor"](bad)


@pytest.mark.parametrize("a, b, phase_c", [(np.nan, 1.0, 0.0), (1.0, np.inf, 0.0), (1.0, 1.0, np.nan)])
def test_od_parameters_must_be_finite(a, b, phase_c):
    with pytest.raises(ValueError, match="must be finite"):
        ODParameters(a, b, phase_c)
