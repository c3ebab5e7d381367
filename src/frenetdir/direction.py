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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curves import CurveSamples
from .errors import DomainError
from .frenet import KAPPA_FLOOR, FrenetData
from .numerics import (
    Grid,
    ScalarSamples,
    VectorSamples,
    _require_fraction,
    _require_same_grid,
    _require_tol,
    _rows,
    cumulative_integral,
    norm,
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
    """

    grid: Grid
    theta: np.ndarray
    u: np.ndarray
    v: np.ndarray
    phase_c: float
    degeneracy_flags: np.ndarray


def osculating_coefficients(f: FrenetData, phase_c: float) -> DirectionCoefficients:
    _require_valid(f, "osculating_coefficients")
    theta = cumulative_integral(ScalarSamples(f.grid, f.kappa * f.speed), initial=phase_c).data
    u = np.sin(theta)
    v = np.cos(theta)
    flags = (np.abs(u) < DEGENERACY_FLOOR) | (np.abs(v) < DEGENERACY_FLOOR)
    return DirectionCoefficients(
        grid=f.grid,
        theta=theta,
        u=u,
        v=v,
        phase_c=float(phase_c),
        degeneracy_flags=flags,
    )


def direction_field(f: FrenetData, dc: DirectionCoefficients) -> VectorSamples:
    """The unit field u T + v N sampled along the donor."""
    _require_same_grid(f.grid, dc.grid)
    _require_valid(f, "direction_field")
    X = dc.u[:, None] * f.T + dc.v[:, None] * f.N
    return VectorSamples(f.grid, X)


def _integral_curve(X: VectorSamples, speed, start=(0.0, 0.0, 0.0)) -> CurveSamples:
    """Integral of the unit field X times speed over the grid parameter."""
    worst = float(np.max(np.abs(norm(X.data) - 1.0)))
    if not worst <= 1e-6:
        raise ValueError(f"field is not unit length (max deviation {worst:.3g})")
    dx = VectorSamples(X.grid, X.data * speed[:, None])
    return CurveSamples(X.grid, cumulative_integral(dx, initial=np.asarray(start, dtype=float)).data)


def integrate_direction_curve(X: VectorSamples, start=(0.0, 0.0, 0.0)) -> CurveSamples:
    """Integral curve of a unit field over its grid parameter, which is then
    its arc length; the constructions below use the donor's arc length."""
    return _integral_curve(X, np.ones(X.grid.n), start)


def osculating_direction_curve(f: FrenetData, phase_c: float) -> CurveSamples:
    """Coefficients, field, then the integral curve over the donor's arc
    length from the origin, sampled on the donor's grid."""
    dc = osculating_coefficients(f, phase_c)
    return _integral_curve(direction_field(f, dc), f.speed)


def principal_direction_curve(f: FrenetData) -> CurveSamples:
    _require_valid(f, "principal_direction_curve")
    return _integral_curve(VectorSamples(f.grid, f.N), f.speed)


def binormal_direction_curve(f: FrenetData) -> CurveSamples:
    _require_valid(f, "binormal_direction_curve")
    return _integral_curve(VectorSamples(f.grid, f.B), f.speed)


@dataclass(frozen=True)
class PredictedBar:
    """Closed-form Frenet data of the osculating-direction curve, written in
    the donor's frame.  Curvature and torsion are kept signed; numerical
    comparisons take the magnitude where needed.

    The predicted frame Tbar, Nbar, Bbar is built from the donor frame and
    coefficients on first read and kept; compare_predicted reads only the
    curvatures, so most callers never pay for three (n, 3) arrays."""

    grid: Grid
    kappa_bar_signed: np.ndarray
    tau_bar_signed: np.ndarray
    donor: FrenetData = field(repr=False)
    coefficients: DirectionCoefficients = field(repr=False)

    @cached_property
    def Tbar(self) -> np.ndarray:
        u, v = self.coefficients.u[:, None], self.coefficients.v[:, None]
        return u * self.donor.T + v * self.donor.N

    @cached_property
    def Nbar(self) -> np.ndarray:
        return self.donor.B.copy()

    @cached_property
    def Bbar(self) -> np.ndarray:
        u, v = self.coefficients.u[:, None], self.coefficients.v[:, None]
        return v * self.donor.T - u * self.donor.N


def predicted_bar_data(f: FrenetData, dc: DirectionCoefficients) -> PredictedBar:
    _require_same_grid(f.grid, dc.grid)
    _require_valid(f, "predicted_bar_data")
    return PredictedBar(
        grid=f.grid,
        kappa_bar_signed=f.tau * dc.v,
        tau_bar_signed=f.tau * dc.u,
        donor=f,
        coefficients=dc,
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
    curvature zero).  Samples where |v| is at or below cos_floor, in
    [0, 1), are excluded: there the curvature denominator amplifies grid
    error.
    """
    _require_same_grid(g.grid, pb.grid)
    _require_same_grid(g.grid, dc.grid)
    _require_tol("atol", atol)
    _require_fraction("cos_floor", cos_floor)
    mask = g.valid_interior() & ~dc.degeneracy_flags & (np.abs(dc.v) > cos_floor)
    if not np.any(mask):
        return AgreementReport(np.nan, np.nan, 0, passed=False)
    rows = _rows(mask)
    dev_k = float(np.max(np.abs(g.kappa[rows] - np.abs(pb.kappa_bar_signed[rows]))))
    dev_t = float(np.max(np.abs(g.tau[rows] - pb.tau_bar_signed[rows])))
    return AgreementReport(
        dev_kappa=dev_k,
        dev_tau=dev_t,
        samples_used=int(mask.sum()),
        passed=bool(max(dev_k, dev_t) < atol),
    )


@dataclass(frozen=True)
class RecoveredCurvatures:
    kappa: ScalarSamples
    tau: ScalarSamples


def donor_from_direction(g: FrenetData) -> RecoveredCurvatures:
    """Recover the donor's curvature and torsion from a direction curve's
    own Frenet data: the donor torsion is the curvature/torsion norm, and
    the donor curvature is the arc-length turning rate of their ratio."""
    # frenet_apparatus never marks a row valid below the floor, but a
    # hand-built FrenetData can
    bad = ~g.frenet_valid | (g.kappa < KAPPA_FLOOR)
    if bad.any():
        raise DomainError(
            f"donor_from_direction: curvature below floor on {_runs_to_intervals(g.grid, bad)}"
        )
    sq = g.kappa**2 + g.tau**2
    ratio = g._d_ds(g.ratio)
    kappa = (g.kappa**2 / sq) * ratio
    return RecoveredCurvatures(
        kappa=ScalarSamples(g.grid, kappa),
        tau=ScalarSamples(g.grid, np.sqrt(sq)),
    )


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
    # the mask is many short runs wherever g.kappa dips, so reduce over
    # every row instead of gathering the masked ones
    align = np.abs(np.einsum("ij,ij->i", g.N, f.B))
    mn = float(np.min(align, where=mask, initial=np.inf))
    return MannheimReport(min_alignment=mn, passed=bool(mn >= 1.0 - tol), vacuous=False)
