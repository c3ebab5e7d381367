"""Curve classification predicates: straight line, plane curve, general
helix, slant helix, and rectifying curve, plus an aggregate report.

Every statistic excludes boundary-contaminated rows and samples whose
Frenet data is undefined; the slant-helix invariant additionally goes NaN
wherever its derivative stencil touches an undefined row, and those samples
drop out of the verdict rather than poisoning it.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import CurveSamples
from .errors import DomainError
from .frenet import FrenetData, frenet_apparatus
from .numerics import (
    BOUNDARY_MARGIN,
    _HALF,
    _masked_maxima,
    _require_tol,
    _rows,
    norm,
    rowdot,
)

# curvature (line_test) or torsion (plane_test) below this magnitude on
# every usable sample makes the curve straight or planar
FLAT_TOL = 1e-6

# statistics of torsion/curvature and its derivative skip rows where the
# curvature is below this fraction of the curvature/torsion norm: the ratio
# nears its pole there.  On an osculating-direction curve that fraction is
# |v| = |cos theta|, so the same floor serves compare_predicted's cos_floor.
RATIO_FLOOR = 0.05

# a constancy verdict whose level is below this magnitude is the
# identically-zero case: true as stated but carrying no axis information
ZERO_LEVEL = 1e-6


def _no_samples(who: str) -> DomainError:
    return DomainError(f"{who}: no usable samples (curvature below floor or all boundary)")


@dataclass(frozen=True)
class ConstancyReport:
    """Summary statistics answering "is this sampled function constant".

    rel_variation is (max - min) / max(|median|, 1e-12), and is_constant
    holds exactly when it is below the tolerance the caller supplied.
    degenerate_zero marks the identically-zero case, where the relative
    measure is meaningless: rel_variation is then (max - min) / ZERO_LEVEL
    and is_constant holds.
    """

    mean: float
    min: float
    max: float
    rel_variation: float
    is_constant: bool
    degenerate_zero: bool


def constancy(values: np.ndarray, rel_tol: float) -> ConstancyReport:
    """The constancy verdict over a plain array (callers pre-select the
    samples).  A median magnitude below ZERO_LEVEL is the identically-zero
    case (degenerate_zero); the median, not the max, because values on a
    roundoff floor have extreme outliers that scale with the resolution."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("constancy statistics need at least one sample")
    mean = float(values.mean())
    lo = float(values.min())
    hi = float(values.max())
    # the median partitions its own copy of |values| in place
    if np.median(np.abs(values), overwrite_input=True) < ZERO_LEVEL:
        return ConstancyReport(mean, lo, hi, (hi - lo) / ZERO_LEVEL,
                               is_constant=True, degenerate_zero=True)
    rel = (hi - lo) / max(abs(float(np.median(values))), 1e-12)
    return ConstancyReport(mean, lo, hi, rel, is_constant=bool(rel < rel_tol),
                           degenerate_zero=False)


def _resolved_ratio(kappa: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Rows where curvature is at least RATIO_FLOOR times the
    curvature/torsion norm; below that the torsion/curvature ratio nears
    its pole and its derivative stencils produce finite garbage.  Row by
    row, so a block of rows gives the same bits as the whole array."""
    with np.errstate(invalid="ignore"):
        frac = kappa / np.sqrt(kappa**2 + tau**2)
    return np.nan_to_num(frac) >= RATIO_FLOOR


def general_helix_test(f: FrenetData, rel_tol: float = 1e-3) -> ConstancyReport:
    """Constancy verdict on torsion/curvature over usable samples.

    A ratio that is identically zero (plane curves) is constant with
    degenerate_zero set; relative variation is meaningless on a roundoff
    floor (see constancy).
    """
    _require_tol("rel_tol", rel_tol)
    mask = f.valid_interior()
    if not np.any(mask):
        raise _no_samples("general_helix_test")
    return constancy(f.ratio[_rows(mask)], rel_tol)


def slant_helix_invariant(f: FrenetData) -> np.ndarray:
    """Pointwise turning measure of the principal normal direction, an (n,)
    array: curvature^2 / (curvature^2 + torsion^2)^(3/2) times the
    arc-length derivative of torsion/curvature.  NaN where the frame is
    undefined or the derivative stencil touches such a sample.  Built in
    place in two (n,) arrays beside the derivative, by the operations of
    (kappa**2 / (kappa**2 + tau**2)**1.5) * d in their order."""
    if not np.any(f.frenet_valid):
        raise _no_samples("slant_helix_invariant")
    d = f._d_ds(f.ratio)
    sq = np.square(f.kappa)
    sigma = np.square(f.tau)
    sq += sigma
    with np.errstate(invalid="ignore"):
        np.power(sq, 1.5, out=sq)
        np.square(f.kappa, out=sigma)
        sigma /= sq
        sigma *= d
    return sigma


def slant_helix_test(f: FrenetData, rel_tol: float = 1e-3) -> ConstancyReport:
    """Constancy verdict on the magnitude of the slant-helix invariant.

    Magnitudes, not raw values: under the nonnegative-curvature convention
    the principal normal flips orientation across curvature zeros, which
    flips the raw invariant's sign piecewise while the underlying axis
    angle stays constant.  The tripled boundary margin keeps one-sided
    rows of the whole derivative chain out of the statistics, and samples
    where curvature falls below RATIO_FLOOR times the curvature/torsion
    norm are excluded, with every sample whose derivative stencil reads
    one: the torsion/curvature ratio has a pole there and stencils that
    straddle it produce finite garbage.

    An identically-zero invariant (every general helix) is reported
    constant with degenerate_zero set: the constancy claim is true but the
    zero level means no slant axis exists (see constancy for the zero
    test).
    """
    _require_tol("rel_tol", rel_tol)
    sigma = slant_helix_invariant(f)
    # sigma is NaN wherever the frame is undefined, so frenet_valid adds
    # nothing to the finiteness test
    mask = f.valid_interior(3 * BOUNDARY_MARGIN) & np.isfinite(sigma)
    # rows where the ratio nears its pole drop out, and so does every row
    # whose first-derivative stencil, _HALF[1] rows to either side, reads one
    resolved = _resolved_ratio(f.kappa, f.tau)
    mask &= resolved
    for k in range(1, _HALF[1] + 1):
        mask[k:] &= resolved[:-k]
        mask[:-k] &= resolved[k:]
    if not np.any(mask):
        raise _no_samples("slant_helix_test")
    return constancy(np.abs(sigma[mask]), rel_tol)


def line_test(f: FrenetData) -> bool:
    """True when the curvature stays below FLAT_TOL: the samples trace a
    straight segment and no frame-based predicate applies."""
    inner = f.grid.interior()
    return bool(np.max(f.kappa[inner]) < FLAT_TOL)


def plane_test(f: FrenetData) -> bool:
    """True when the torsion stays below FLAT_TOL on usable samples."""
    mask = f.valid_interior()
    if not np.any(mask):
        return False
    (worst,) = _masked_maxima(mask, lambda rows: [np.abs(f.tau[rows])])
    return worst < FLAT_TOL


@dataclass(frozen=True)
class LineFit:
    """Ordinary least squares of a sampled ratio against arc length."""

    slope: float
    intercept: float
    max_residual: float


def _fit_line(s: np.ndarray, ratio: np.ndarray, who: str) -> LineFit:
    """Least-squares line of ratio against s, with its worst residual.

    Closed form on centered data: slope = sum((s - s_bar)(r - r_bar)) /
    sum((s - s_bar)^2) and intercept = r_bar - slope * s_bar.  It agrees
    with np.polyfit(s, ratio, 1) to roundoff and replaced it because it
    is a few passes over the samples, where polyfit builds a Vandermonde
    matrix and solves it by SVD, at about ten times the cost of those
    passes on large curves.  Fewer than two samples, or samples that all
    share one s, raise DomainError.

    The two sums are einsum reductions, not np.dot: np.dot is a BLAS call
    whose bits follow the BLAS thread count (OPENBLAS_NUM_THREADS), and
    einsum's own loop gives the same bits under any setting.
    """
    if s.size < 2:
        raise DomainError(f"{who}: a line fit needs 2 usable samples, got {s.size}")
    s_bar = s.mean()
    r_bar = ratio.mean()
    ds = s - s_bar
    sxx = np.einsum("i,i->", ds, ds)
    # ptp catches equal samples whose mean rounds off their common value
    if not (sxx > 0 and np.ptp(s) > 0):
        raise DomainError(f"{who}: a line fit needs distinct arc-length values")
    slope = float(np.einsum("i,i->", ds, ratio - r_bar) / sxx)
    intercept = float(r_bar - slope * s_bar)
    (residual,) = _masked_maxima(
        slice(0, s.size), lambda rows: [np.abs(ratio[rows] - (slope * s[rows] + intercept))])
    return LineFit(slope=slope, intercept=intercept, max_residual=residual)


@dataclass(frozen=True)
class RectifyingReport:
    """Position-in-rectifying-plane statistic plus the linearity of
    torsion/curvature, the two halves of the rectifying characterization."""

    normal_component: float
    fit: LineFit
    is_rectifying: bool


def rectifying_test(c: CurveSamples, tol: float = 2e-2) -> RectifyingReport:
    """Check whether the position vector stays in the rectifying plane and
    torsion/curvature grows linearly in arc length, on the curve's stored
    frame (frenet_apparatus).

    normal_component is max |<position, N>| / max |position| over usable
    samples; the fit residual is compared against tol scaled by the fitted
    line's own span, so steep and flat ratios are judged alike.
    """
    _require_tol("tol", tol)
    f = frenet_apparatus(c)
    mask = f.valid_interior()
    if not np.any(mask):
        raise _no_samples("rectifying_test")
    normal, scale = _masked_maxima(mask, lambda rows: (
        np.abs(rowdot(c.points[rows], f.N[rows])),
        norm(c.points[rows]),
    ))
    rows = _rows(mask)
    return _rectifying_verdict(normal, scale, f.s[rows], f.ratio[rows], tol)


def _rectifying_verdict(normal: float, scale: float, s: np.ndarray, ratio: np.ndarray,
                        tol: float) -> RectifyingReport:
    """The verdict of rectifying_test from the worst |<position, N>| and
    |position| over the usable samples and their arc length and
    torsion/curvature."""
    normal_component = normal / max(scale, 1e-12)
    fit = _fit_line(s, ratio, "rectifying_test")
    span = float(s[-1] - s[0])
    ok = normal_component < tol and fit.max_residual < tol * (1.0 + abs(fit.slope) * span)
    return RectifyingReport(normal_component=normal_component, fit=fit, is_rectifying=bool(ok))


@dataclass(frozen=True)
class ClassificationReport:
    """Aggregate verdicts.  For a straight line the frame never exists, so
    every frame-based field is suppressed (None / False)."""

    is_line: bool
    is_plane: bool
    is_general_helix: bool
    is_slant_helix: bool
    is_rectifying: bool
    helix_ratio: Optional[ConstancyReport]
    sigma_it: Optional[ConstancyReport]
    rectifying: Optional[RectifyingReport]


# stands in for a measured report when a field is known to be identically
# zero by implication; the noise statistics of such a field carry no
# information, so they are reported as the exact zeros they represent
_IDENTICALLY_ZERO = ConstancyReport(
    mean=0.0, min=0.0, max=0.0, rel_variation=0.0,
    is_constant=True, degenerate_zero=True,
)


def classify(
    c: CurveSamples,
    rel_tol: float = 1e-3,
    rect_tol: float = 2e-2,
) -> ClassificationReport:
    """Run every predicate on a sampled curve, on its own parameter.

    Degenerate-zero fields are decided here by implication from the more
    robust upstream verdict, not by each test's own noise-floor median: a
    plane curve's torsion/curvature and a constant-ratio curve's slant
    invariant are identically zero, and measuring them yields floor noise
    whose absolute level moves with the coordinate magnitudes, so a rigid
    motion could flip a median-based verdict.  Call the individual tests
    for the raw measured statistics.
    """
    _require_tol("rel_tol", rel_tol)
    _require_tol("rect_tol", rect_tol)
    f = frenet_apparatus(c)
    if line_test(f):
        return ClassificationReport(
            is_line=True,
            is_plane=False,
            is_general_helix=False,
            is_slant_helix=False,
            is_rectifying=False,
            helix_ratio=None,
            sigma_it=None,
            rectifying=None,
        )
    is_plane = plane_test(f)
    helix_ratio = (
        _IDENTICALLY_ZERO if is_plane else general_helix_test(f, rel_tol)
    )
    sigma = (
        _IDENTICALLY_ZERO
        if helix_ratio.is_constant
        else slant_helix_test(f, rel_tol)
    )
    rect = rectifying_test(c, rect_tol)
    return ClassificationReport(
        is_line=False,
        is_plane=is_plane,
        is_general_helix=helix_ratio.is_constant,
        is_slant_helix=sigma.is_constant,
        is_rectifying=rect.is_rectifying,
        helix_ratio=helix_ratio,
        sigma_it=sigma,
        rectifying=rect,
    )
