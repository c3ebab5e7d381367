"""Direction curves built from a donor frame: integral curves of unit
fields lying in the osculating plane (or along the normal / binormal), the
closed-form predictions for their Frenet data, and the inverse map that
recovers the donor's curvatures from a constructed curve.

The osculating-plane coefficient pair is u = sin(theta), v = cos(theta)
with theta the curvature accumulated over arc length plus a free phase;
every construction here keeps that phase explicit because all downstream
identities are phase-covariant.  Constructed curves share the donor's grid
and parameter, and the donor's arc length is theirs.
"""

from dataclasses import dataclass

import numpy as np

from .classify import _turning_rows
from .curves import CurveSamples, _built_curve
from .errors import DomainError
from .frenet import KAPPA_FLOOR, FrenetData, _darboux_norm
from .numerics import (
    BOUNDARY_MARGIN,
    Grid,
    VectorSamples,
    _blocks,
    _cumulative,
    _masked_maxima,
    _require_fraction,
    _require_same_grid,
    _require_tol,
    norm,
    rowdot,
)

# |sin theta| or |cos theta| below this marks a sample as degenerate for
# classification purposes (the construction itself stays smooth there)
DEGENERACY_FLOOR = 1e-6

# mannheim_check skips rows where the constructed curve's curvature is below
# this fraction of the donor's: there |v| is tiny, the curvature is at the
# roundoff level of its second differences, and its normal is noise
MANNHEIM_KAPPA_FRACTION = 1e-3


def _runs_to_intervals(grid: Grid, bad: np.ndarray) -> str:
    s = grid.values
    edges = np.flatnonzero(np.diff(np.concatenate([[False], bad, [False]]).astype(int)))
    spans = [f"[{s[a]:g}, {s[b - 1]:g}]" for a, b in zip(edges[::2], edges[1::2])]
    return ", ".join(spans)


def _require_valid(f: FrenetData, who: str) -> None:
    if not f.frenet_valid.all():
        bad = ~f.frenet_valid
        raise DomainError(
            f"{who}: donor frame undefined (curvature below floor) on {_runs_to_intervals(f.grid, bad)}"
        )


@dataclass(frozen=True)
class DirectionCoefficients:
    """Coefficients of a unit field in the donor's osculating plane.

    theta accumulates the donor curvature over arc length from the grid
    start, so theta[0] == phase_c.  degeneracy_flags marks samples where
    either coefficient is too close to zero for the classification premises.
    osculating_coefficients hands one instance to every caller asking for
    the same frame and phase, so the arrays are read-only.
    """

    grid: Grid
    theta: np.ndarray
    u: np.ndarray
    v: np.ndarray
    phase_c: float
    degeneracy_flags: np.ndarray


def osculating_coefficients(f: FrenetData, phase_c: float) -> DirectionCoefficients:
    """theta, u = sin(theta) and v = cos(theta) along the donor.

    The result is kept on the FrenetData instance and returned as is by
    the next call with the same float(phase_c), as frenet_apparatus keeps
    one frame per curve.  One set is kept, that of the last phase asked
    for, so a sweep over phases holds no more than one."""
    _require_valid(f, "osculating_coefficients")
    phase_c = float(phase_c)
    if not np.isfinite(phase_c):
        raise ValueError(f"phase_c must be finite, got {phase_c}")
    dc = f.__dict__.get("_coefficients")
    # bits, not ==: -0.0 gives theta[0] and u[0] the other sign than 0.0
    if dc is not None and dc.phase_c.hex() == phase_c.hex():
        return dc
    theta = _cumulative(f.kappa * f.speed, f.grid.h, phase_c)
    u = np.sin(theta)
    v = np.cos(theta)
    flags = (np.abs(u) < DEGENERACY_FLOOR) | (np.abs(v) < DEGENERACY_FLOOR)
    for a in (theta, u, v, flags):
        a.flags.writeable = False
    f.__dict__["_coefficients"] = dc = DirectionCoefficients(f.grid, theta, u, v, phase_c, flags)
    return dc


def direction_field(f: FrenetData, dc: DirectionCoefficients) -> VectorSamples:
    """The unit field u T + v N sampled along the donor, written in row
    blocks (numerics._BLOCK_ROWS) into one component-major (n, 3) array,
    laid out like the frame."""
    _require_same_grid(f.grid, dc.grid)
    _require_valid(f, "direction_field")
    X = np.empty((3, f.grid.n)).T
    for r in _blocks(slice(0, f.grid.n)):
        np.add(dc.u[r] * f.T[r].T, dc.v[r] * f.N[r].T, out=X[r].T)
    return VectorSamples(f.grid, X)


def _require_unit(X: np.ndarray) -> None:
    (worst,) = _masked_maxima(slice(0, len(X)), lambda rows: [np.abs(norm(X[rows]) - 1.0)])
    if not worst <= 1e-6:
        raise ValueError(f"field is not unit length (max deviation {worst:.3g})")


def integrate_direction_curve(X: VectorSamples) -> CurveSamples:
    """Integral curve of a unit field over its grid parameter from the
    origin; the grid parameter is then its arc length.  The constructions
    below use the donor's arc length instead."""
    _require_unit(X.data)
    return _built_curve(X.grid, _cumulative(X.data, X.grid.h, 0.0))


def _arclength_curve(f: FrenetData, X: np.ndarray) -> CurveSamples:
    """Integral of the unit field X over the donor's arc length from the
    origin, sampled on the donor's grid."""
    _require_unit(X)
    return _built_curve(f.grid, _cumulative(X * f.speed[:, None], f.grid.h, 0.0))


def osculating_direction_curve(f: FrenetData, phase_c: float) -> CurveSamples:
    """Coefficients, field, then the integral curve over the donor's arc
    length from the origin, sampled on the donor's grid."""
    dc = osculating_coefficients(f, phase_c)
    return _arclength_curve(f, direction_field(f, dc).data)


def principal_direction_curve(f: FrenetData) -> CurveSamples:
    _require_valid(f, "principal_direction_curve")
    return _arclength_curve(f, f.N)


def binormal_direction_curve(f: FrenetData) -> CurveSamples:
    _require_valid(f, "binormal_direction_curve")
    return _arclength_curve(f, f.B)


@dataclass(frozen=True)
class PredictedBar:
    """Closed-form Frenet data of the osculating-direction curve, written in
    the donor's frame.  Curvature and torsion are kept signed; numerical
    comparisons take the magnitude where needed."""

    grid: Grid
    kappa_bar_signed: np.ndarray
    tau_bar_signed: np.ndarray


def predicted_bar_data(f: FrenetData, dc: DirectionCoefficients) -> PredictedBar:
    _require_same_grid(f.grid, dc.grid)
    _require_valid(f, "predicted_bar_data")
    return PredictedBar(
        grid=f.grid,
        kappa_bar_signed=f.tau * dc.v,
        tau_bar_signed=f.tau * dc.u,
    )


@dataclass(frozen=True)
class AgreementReport:
    """Worst-case gap between a constructed curve's numerical curvature and
    torsion and the closed-form prediction."""

    dev_kappa: float
    dev_tau: float
    samples_used: int
    passed: bool


def compare_predicted(
    g: FrenetData,
    pb: PredictedBar,
    dc: DirectionCoefficients,
    atol: float = 2e-4,
    cos_floor: float = 0.0,
) -> AgreementReport:
    """Compare numerical Frenet data of a constructed curve against the
    prediction.

    Numerical curvature is nonnegative, so it is checked against the
    magnitude of the signed prediction; the torsion prediction needs no
    sign adjustment (both signed quantities flip together through a
    curvature zero).  Rows within two boundary margins of either end are
    not judged: g is integrated from the donor's frame, so its stencils
    there read the donor's one-sided rows as well as its own.  Samples
    where |v| is at or below cos_floor, in [0, 1), are excluded: there
    the curvature denominator amplifies grid error.
    """
    _require_same_grid(g.grid, pb.grid)
    _require_same_grid(g.grid, dc.grid)
    _require_tol("atol", atol)
    _require_fraction("cos_floor", cos_floor)
    mask = g.valid_interior(2 * BOUNDARY_MARGIN) & ~dc.degeneracy_flags & (np.abs(dc.v) > cos_floor)
    if not np.any(mask):
        return AgreementReport(np.nan, np.nan, 0, passed=False)
    dev_k, dev_t = _masked_maxima(mask, lambda rows: (
        np.abs(g.kappa[rows] - np.abs(pb.kappa_bar_signed[rows])),
        np.abs(g.tau[rows] - pb.tau_bar_signed[rows]),
    ))
    return AgreementReport(
        dev_kappa=dev_k,
        dev_tau=dev_t,
        samples_used=int(mask.sum()),
        passed=bool(max(dev_k, dev_t) < atol),
    )


@dataclass(frozen=True)
class RecoveredCurvatures:
    """The donor's curvature and torsion per sample, (n,) arrays."""

    kappa: np.ndarray
    tau: np.ndarray


def donor_from_direction(g: FrenetData) -> RecoveredCurvatures:
    """Recover the donor's curvature and torsion from a direction curve's
    own Frenet data: the donor torsion is the curvature/torsion norm
    |omega|, and the donor curvature is the arc-length turning rate of the
    Darboux angle atan2(tau, kappa), which is kappa^2 / |omega|^2 times
    that of their ratio.

    g fixes only the product sgn(tau) sgn(cos theta): mirroring the
    donor, or shifting the phase by pi, mirrors g, and doing both moves
    g rigidly.  So the torsion comes back as |tau|, and the curvature as
    the turning rate's magnitude, nonnegative as everywhere in the
    library.  Where cos theta or the donor's torsion changes sign, g's
    curvature touches zero and its normal reverses, so the angle has a
    kink or a jump there, and g's frame is barely resolved beside it: both
    results are NaN on the rows that classify._turning_rows excludes, and
    only when no row is left does it raise DomainError."""
    # frenet_apparatus never marks a row valid below the floor, but a
    # hand-built FrenetData can
    bad = ~g.frenet_valid | (g.kappa < KAPPA_FLOOR)
    if bad.any():
        raise DomainError(
            f"donor_from_direction: curvature below floor on {_runs_to_intervals(g.grid, bad)}"
        )
    # the row mask first, so that its float temporaries do not stack on
    # the results
    skip = ~_turning_rows(g)
    if skip.all():
        raise DomainError("donor_from_direction: no row clears the ratio floor")
    kappa = g._d_ds(g.angle)
    np.abs(kappa, out=kappa)
    tau = _darboux_norm(g)
    kappa[skip] = tau[skip] = np.nan
    return RecoveredCurvatures(kappa=kappa, tau=tau)


@dataclass(frozen=True)
class MannheimReport:
    """Alignment of the constructed curve's normal with the donor binormal
    at shared parameter values, over rows where both frames are resolved
    (see MANNHEIM_KAPPA_FRACTION)."""

    min_alignment: float
    passed: bool
    vacuous: bool


def mannheim_check(g: FrenetData, f: FrenetData, tol: float = 1e-4) -> MannheimReport:
    _require_same_grid(g.grid, f.grid)
    _require_tol("tol", tol)
    mask = g.valid_interior() & f.frenet_valid & (g.kappa >= MANNHEIM_KAPPA_FRACTION * f.kappa)
    if not np.any(mask):
        return MannheimReport(np.nan, passed=True, vacuous=True)
    # the min as minus the max of the negated alignment: negation is exact
    (worst,) = _masked_maxima(mask, lambda rows: [-np.abs(rowdot(g.N[rows], f.B[rows]))])
    mn = -worst
    return MannheimReport(min_alignment=mn, passed=bool(mn >= 1.0 - tol), vacuous=False)
