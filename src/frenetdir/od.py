"""Companion curves built in the donor's osculating plane.

The construction places a curve at

    gamma(s) = [(s + b) sin(theta) + a cos(theta)] T(s)
             + [(s + b) cos(theta) - a sin(theta)] N(s)

with theta the accumulated donor curvature plus a phase, and the
verification side checks the three properties such a curve is meant to
have: position confined to its own rectifying plane, torsion/curvature
growing linearly as (s + b)/a, and position parallel to the modified
Darboux vector.

The two sides agree only for donors whose curvature over the window is
kappa(s) = a / (a^2 + (s+b)^2) with the phase matching arctan(b/a):
differentiating the position gives

    gamma' = sin(theta) T + cos(theta) N + n tau B,

so the curve is unit-speed (and the verification properties hold) exactly
where the N-coefficient n vanishes, which pins theta to arctan((s+b)/a)
and hence kappa to that profile.  For any other donor the construction
still evaluates fine, and the verification report measures its speed and
says how far the properties fail.  Tests cover both regimes.
"""

from dataclasses import dataclass

import numpy as np

from .classify import (
    LineFit,
    RectifyingReport,
    _fit_line,
    _no_samples,
    _resolved_ratio,
    rectifying_test,
)
from .curves import CurveSamples
from .direction import _require_valid, osculating_coefficients
from .errors import DomainError
from .frenet import FrenetData, frenet_apparatus, unit_speed_deviation
from .numerics import (
    BOUNDARY_MARGIN,
    VectorSamples,
    _blocks,
    _masked_maxima,
    _require_tol,
    _rows,
    cross,
    norm,
)


@dataclass(frozen=True)
class ODParameters:
    """Integration constants of the osculating-plane construction.

    a scales the binormal component of the position, b offsets arc length;
    both enter the predicted ratio line (s + b)/a.  phase_c seeds the
    accumulated-curvature angle at the first sample.
    """

    a: float
    b: float
    phase_c: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite((self.a, self.b, self.phase_c))):
            raise ValueError("ODParameters: a, b and phase_c must be finite")
        if self.a == 0.0 or self.b == 0.0:
            raise ValueError("ODParameters: a and b must be nonzero")


def od_osculating_curve(f: FrenetData, p: ODParameters) -> CurveSamples:
    """Evaluate the osculating-plane companion of a donor curve.

    Direct formula, no integration of a direction field: the position is
    m(s) T(s) + n(s) N(s) with m, n the rotated pair of (s - s_0 + b, a)
    through theta, s the donor's arc length.  See the module docstring for
    when the result is unit-speed.  The position is computed in row
    blocks (numerics._BLOCK_ROWS) straight into one (n, 3) array.
    """
    _require_valid(f, "od_osculating_curve")
    dc = osculating_coefficients(f, p.phase_c)
    s, s0 = f.s, f.s[0]
    pts = np.empty((f.grid.n, 3))
    for r in _blocks(slice(0, f.grid.n)):
        rho = (s[r] - s0) + p.b
        m = rho * dc.u[r] + p.a * dc.v[r]
        n = rho * dc.v[r] - p.a * dc.u[r]
        # component-major: one contiguous pass per component
        np.add(m * f.T[r].T, n * f.N[r].T, out=pts[r].T)
    return CurveSamples(grid=f.grid, points=pts)


def _darboux(f: FrenetData, rows: slice) -> np.ndarray:
    """(torsion/curvature) T + B on the given rows, NaN where the ratio
    is."""
    return f.ratio[rows, None] * f.T[rows] + f.B[rows]


def modified_darboux(f: FrenetData) -> VectorSamples:
    """Rotation-axis field (torsion/curvature) T + B, NaN where the frame
    is undefined.

    Its accuracy is that of tau / kappa, so it holds on f.valid_interior();
    the boundary rows inherit the roundoff of the one-sided
    third-derivative stencil, divided by kappa^2.
    """
    if not np.any(f.frenet_valid):
        raise DomainError("modified_darboux: curvature below floor everywhere")
    # NaN on every row without a frame, whatever a hand-built FrenetData
    # holds there: FrenetData.ratio is NaN there, and so is NaN * T + B
    return VectorSamples(f.grid, _darboux(f, slice(None)))


@dataclass(frozen=True)
class ODReport:
    """Measured distance from the three companion-curve properties.

    speed_deviation is unit_speed_deviation of the input's FrenetData:
    max |speed - 1| over interior rows, against the grid parameter.
    ratio_fit is the least-squares line of torsion/curvature against arc
    length from the first sample; slope_error and intercept_error compare
    it with the predicted (s + b)/a.  cross_ratio is the worst normalized
    cross product between the position and the modified Darboux vector (0
    for parallel, 1 for perpendicular).
    """

    speed_deviation: float
    rectifying: RectifyingReport
    ratio_fit: LineFit
    slope_error: float
    intercept_error: float
    cross_ratio: float
    passed: bool


def verify_od_properties(
    gamma: CurveSamples, p: ODParameters, tol: float = 2e-2
) -> ODReport:
    """Check a curve against the rectifying / linear-ratio / Darboux
    properties predicted for osculating-plane companions.

    Generic: any sampled curve on any regular parameter can be checked;
    the ratio line is fitted against the curve's own arc length.
    """
    _require_tol("tol", tol)
    g = frenet_apparatus(gamma)
    rect = rectifying_test(gamma, g, tol)

    mask = g.valid_interior(2 * BOUNDARY_MARGIN) & _resolved_ratio(g)
    if not np.any(mask):
        raise _no_samples("verify_od_properties")

    rows = _rows(mask)
    srel = g.s[rows] - g.s[0]
    fit = _fit_line(srel, g.ratio[rows], "verify_od_properties")
    slope_error = abs(fit.slope - 1.0 / p.a)
    intercept_error = abs(fit.intercept - p.b / p.a)

    # the axis is the modified Darboux vector, built block by block; the
    # masked rows all have a frame
    def sines(r):
        pts, ax = gamma.points[r], _darboux(g, r)
        return [norm(cross(pts, ax)) / np.maximum(norm(pts) * norm(ax), 1e-12)]

    (cross_ratio,) = _masked_maxima(mask, sines)

    passed = bool(
        rect.is_rectifying
        and slope_error < tol
        and intercept_error < tol
        and cross_ratio < tol
    )
    return ODReport(
        speed_deviation=unit_speed_deviation(g),
        rectifying=rect,
        ratio_fit=fit,
        slope_error=slope_error,
        intercept_error=intercept_error,
        cross_ratio=cross_ratio,
        passed=passed,
    )
