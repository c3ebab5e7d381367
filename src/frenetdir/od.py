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
    _rectifying_verdict,
    _resolved_ratio,
)
from .curves import CurveSamples, _built_curve
from .direction import _require_valid, osculating_coefficients
from .errors import DomainError
from .frenet import FrenetData, _frenet, _ratio
from .numerics import (
    BOUNDARY_MARGIN,
    _blocks,
    _cumulative,
    _masked_maxima,
    _require_tol,
    _rows,
    cross,
    norm,
    rowdot,
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
    return _built_curve(f.grid, pts)


def _darboux(ratio: np.ndarray, T: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(torsion/curvature) T + B row by row, NaN where the ratio is."""
    return ratio[:, None] * T + B


def modified_darboux(f: FrenetData) -> np.ndarray:
    """Rotation-axis field (torsion/curvature) T + B, an (n, 3) array, NaN
    where the frame is undefined.

    Its accuracy is that of tau / kappa, so it holds on f.valid_interior();
    the boundary rows inherit the roundoff of the one-sided
    third-derivative stencil, divided by kappa^2.
    """
    if not np.any(f.frenet_valid):
        raise DomainError("modified_darboux: curvature below floor everywhere")
    # NaN on every row without a frame, whatever a hand-built FrenetData
    # holds there: FrenetData.ratio is NaN there, and so is NaN * T + B
    return _darboux(f.ratio, f.T, f.B)


@dataclass(frozen=True)
class ODReport:
    """Measured distance from the three companion-curve properties.

    speed_deviation is unit_speed_deviation of the input's frame: max
    |speed - 1| over interior rows, against the grid parameter.
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

    The check stores no frame on gamma, and reads none that
    frenet_apparatus stored there: it computes the frame block by block
    with frenet_apparatus's kernel (frenet._frenet) into block scratch,
    and reduces every worst-row statistic in that one pass.  Besides the
    statistics it keeps only per-sample scalars: speed,
    torsion/curvature and the rows each statistic judges.  After the
    pass the scratch goes, the arc length overwrites the speed, and each
    line fit holds only what it reads: the ratio line its rows of
    s - s[0] and torsion/curvature and its own centred pair, four (n,)
    arrays at most.  The report is bit-identical to rectifying_test(gamma)
    and unit_speed_deviation(frenet_apparatus(gamma)).
    """
    _require_tol("tol", tol)
    grid = gamma.grid
    # the rows each statistic judges: inner those of unit_speed_deviation,
    # usable those of rectifying_test (valid_interior()), fitted those of
    # the ratio line and the cross ratio; the pass adds the frame
    # conditions of the last two block by block
    inner = np.zeros(grid.n, dtype=bool)
    inner[grid.interior()] = True
    usable = inner.copy()
    fitted = np.zeros(grid.n, dtype=bool)
    fitted[grid.interior(2 * BOUNDARY_MARGIN)] = True
    # one block's derivatives, frame, curvature and torsion, overwritten
    # by the next block; the speed and ratio are kept whole
    size = _blocks(slice(0, grid.n))[0].stop
    scratch = np.empty((4, 3, size))
    frame = np.empty((3, 3, size))
    curvatures = np.empty((2, size))
    speed, ratio = np.empty(grid.n), np.empty(grid.n)

    def stats(rows):
        k = rows.stop - rows.start
        T, N, B = (a[:, :k].T for a in frame)
        kappa, tau = curvatures[:, :k]
        valid = _frenet(gamma, rows, scratch, T, N, B, kappa, tau, speed[rows])
        ratio[rows] = _ratio(kappa, tau, valid)
        on_frame = usable[rows]
        on_frame &= valid
        on_line = fitted[rows]
        on_line &= on_frame
        on_line &= _resolved_ratio(kappa, tau)
        # the axis is the modified Darboux vector
        pts, ax = gamma.points[rows], _darboux(ratio[rows], T, B)
        reach = norm(pts)
        sines = norm(cross(pts, ax)) / np.maximum(reach * norm(ax), 1e-12)
        # a row outside a statistic's rows is -inf, which no max reads
        return [np.where(on_frame, np.abs(rowdot(pts, N)), -np.inf),
                np.where(on_frame, reach, -np.inf),
                np.where(on_line, sines, -np.inf),
                np.where(inner[rows], np.abs(speed[rows] - 1.0), -np.inf)]

    normal, scale, cross_ratio, speed_deviation = _masked_maxima(slice(0, grid.n), stats)
    del scratch, frame, curvatures
    # the arc length overwrites the speed it integrates
    s = _cumulative(speed, grid.h, grid.s_min, out=speed)
    del speed

    if not np.any(usable):
        raise _no_samples("rectifying_test")
    rows = _rows(usable)
    rect = _rectifying_verdict(normal, scale, s[rows], ratio[rows], tol)
    del usable, inner

    if not np.any(fitted):
        raise _no_samples("verify_od_properties")
    # the full s and ratio go before the fit, which makes two more
    # arrays of the line's length
    rows = _rows(fitted)
    x, y = s[rows] - s[0], ratio[rows]
    del s, ratio
    fit = _fit_line(x, y, "verify_od_properties")
    slope_error = abs(fit.slope - 1.0 / p.a)
    intercept_error = abs(fit.intercept - p.b / p.a)

    passed = bool(
        rect.is_rectifying
        and slope_error < tol
        and intercept_error < tol
        and cross_ratio < tol
    )
    return ODReport(
        speed_deviation=speed_deviation,
        rectifying=rect,
        ratio_fit=fit,
        slope_error=slope_error,
        intercept_error=intercept_error,
        cross_ratio=cross_ratio,
        passed=passed,
    )
