"""Frenet apparatus of a sampled regular curve, with frame and
derivative-identity verification reports.

Everything is computed on the grid's own parameter t: the curvature and
torsion formulas hold for any regular parametrization, and the speed |r'|
gives arc length and d/ds = (1/|r'|) d/dt to the consumers that need them.

Curvature is kept nonnegative throughout; orientation information lives in
the torsion sign and the frame itself.  Samples where the curvature falls
below KAPPA_FLOOR carry no usable normal or binormal and are flagged out
instead of raising, so straight stretches inside otherwise curved data
degrade gracefully.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import SPEED_FLOOR, CurveSamples
from .errors import DomainError
from .numerics import (
    BOUNDARY_MARGIN,
    Grid,
    ScalarSamples,
    VectorSamples,
    _blocks,
    _derivative,
    _require_tol,
    _rows,
    cross,
    cumulative_integral,
    derivative,
    norm,
)

KAPPA_FLOOR = 1e-9

# band of max |speed - 1| over interior samples accepted as unit speed
UNIT_SPEED_TOL = 1e-4


@dataclass(frozen=True)
class FrenetData:
    """Tangent, normal, binormal, curvature, torsion and speed per sample.

    speed is |dr/dt| on the grid parameter t, and s the arc length from
    s = grid.s_min at the first sample.

    frenet_valid is false where the curvature is below KAPPA_FLOOR; N, B,
    and tau hold NaN there.  Accuracy statements hold on valid_interior():
    the first and last BOUNDARY_MARGIN rows come from one-sided stencils of
    the same truncation order but carry roundoff of order
    sum|w| * ulp(|p|) / h^k, which for tau (k = 3) is far above the
    interior error on fine grids of curves far from the origin.

    frenet_apparatus builds one FrenetData per curve instance and hands the
    same object to every later caller, so its arrays (the cached s and
    ratio included) are read-only.
    """

    grid: Grid
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    frenet_valid: np.ndarray
    speed: np.ndarray

    @cached_property
    def s(self) -> np.ndarray:
        """Arc length at each sample: the cumulative integral of speed.
        Computed once and shared, so it is read-only."""
        out = cumulative_integral(ScalarSamples(self.grid, self.speed), self.grid.s_min).data
        out.flags.writeable = False
        return out

    @cached_property
    def ratio(self) -> np.ndarray:
        """Torsion over curvature per sample, NaN where frenet_valid is
        false.  Computed once and shared, so it is read-only."""
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(self.frenet_valid, self.tau / self.kappa, np.nan)
        out.flags.writeable = False
        return out

    def _d_ds(self, values: np.ndarray) -> np.ndarray:
        """Arc-length derivative (1/speed) d/dt of per-sample scalars (n,)
        or vectors (n, 3)."""
        if values.ndim == 1:
            return derivative(ScalarSamples(self.grid, values), 1).data / self.speed
        return derivative(VectorSamples(self.grid, values), 1).data / self.speed[:, None]

    def valid_interior(self, margin: int = BOUNDARY_MARGIN) -> np.ndarray:
        """Boolean mask: frenet_valid and clear of the boundary margin."""
        mask = np.zeros(self.grid.n, dtype=bool)
        mask[self.grid.interior(margin)] = True
        return mask & self.frenet_valid


def frenet_apparatus(c: CurveSamples) -> FrenetData:
    """Compute {T, N, B, kappa, tau} and the speed on the grid parameter.

    T is the numerical first derivative; the binormal direction comes from
    the first-two-derivatives cross product, which keeps kappa nonnegative,
    and torsion from the third derivative projected on it.  Every row is
    filled, but accuracy holds on FrenetData.valid_interior() only.  A
    speed at or below SPEED_FLOOR (a stalled sample) raises DomainError.

    The frame is computed in row blocks of numerics._BLOCK_ROWS (8192)
    samples: each block's three derivatives, cross products and norms stay
    in L2 cache, and each output array is written once, block by block,
    with no full-length float temporary.  A block's rows come out
    bit-identical to a whole-array pass, so no result depends on the block
    size, and a curve of at most 8192 samples is a single block.  The
    stalled-sample check runs on each block before any division in it.

    One frame per curve: the result is stored on the curve instance and
    returned as is by every later call on it.  Its arrays are read-only,
    as is CurveSamples.points, so the stored frame cannot go stale.
    """
    if "_frenet" in c.__dict__:
        return c.__dict__["_frenet"]
    n, h = c.grid.n, c.grid.h
    for rows in _blocks(slice(0, n)):
        d1, d2, d3 = (_derivative(c.points, k, h, rows.start, rows.stop) for k in (1, 2, 3))
        if rows.start == 0:
            # allocated after the first derivatives, so that the freed
            # block temporaries leave reusable holes below the outputs: on
            # top of them they would leave a free heap top that malloc
            # hands back to the system, and every frame would fault its
            # pages in again
            T, N, B = (np.empty((n, 3)) for _ in range(3))
            kappa, tau, speed = (np.empty(n) for _ in range(3))
        # every output row is written once, straight into its array
        sp = norm(d1, out=speed[rows])
        if not np.all(sp > SPEED_FLOOR):
            i = rows.start + int(np.argmin(sp > SPEED_FLOOR))
            raise DomainError(f"degenerate curve: speed {speed[i]:.3g} at sample {i} "
                              f"(parameter {c.grid.values[i]:g}) is not above {SPEED_FLOOR:g}")
        d1xd2 = cross(d1, d2)
        cross_norm = norm(d1xd2)
        kappa_rows = np.divide(cross_norm, sp**3, out=kappa[rows])
        # T is normalized so the triad is orthonormal by construction: B is
        # unit and perpendicular to d1 already, and N = B x T inherits both.
        T_rows = np.divide(d1, sp[:, None], out=T[rows])
        # safe denominator; invalid rows are overwritten with NaN below
        denom = np.where(kappa_rows >= KAPPA_FLOOR, cross_norm, 1.0)
        B_rows = np.divide(d1xd2, denom[:, None], out=B[rows])
        cross(B_rows, T_rows, out=N[rows])
        np.divide(np.einsum("ij,ij->i", d1xd2, d3), denom**2, out=tau[rows])
    valid = kappa >= KAPPA_FLOOR
    B[~valid] = np.nan
    N[~valid] = np.nan
    tau[~valid] = np.nan
    for a in (T, N, B, kappa, tau, valid, speed):
        a.flags.writeable = False

    # a frozen dataclass still lets its instance __dict__ take the memo
    c.__dict__["_frenet"] = f = FrenetData(c.grid, T, N, B, kappa, tau, valid, speed)
    return f


def unit_speed_deviation(f: FrenetData) -> float:
    """max |speed - 1| over interior samples (boundary stencils excluded),
    the speed measured against the grid parameter."""
    return float(np.max(np.abs(f.speed[f.grid.interior()] - 1.0)))


@dataclass(frozen=True)
class FrameCheck:
    """Worst-case orthonormality and handedness violations.

    Each deviation field is a max of |deviation| over valid interior
    samples and worst is the largest of them; vacuous marks the
    no-valid-samples case, which passes by convention.
    """

    norm_T: float
    norm_N: float
    norm_B: float
    dot_TN: float
    dot_TB: float
    dot_NB: float
    handedness: float
    worst: float
    passed: bool
    vacuous: bool


def verify_frame(f: FrenetData, tol: float = 1e-6) -> FrameCheck:
    """Unit lengths, mutual orthogonality and right-handedness of (T, N, B)
    on f.valid_interior(); passed when the worst deviation is below tol."""
    _require_tol("tol", tol)
    mask = f.valid_interior()
    if not np.any(mask):
        return FrameCheck(*[0.0] * 8, passed=True, vacuous=True)
    keys = ("norm_T", "norm_N", "norm_B", "dot_TN", "dot_TB", "dot_NB", "handedness")
    # per-block maxima, then the max over blocks: exact, and NaN still wins
    maxima = []
    for rows in _blocks(_rows(mask)):
        T, N, B = f.T[rows], f.N[rows], f.B[rows]
        maxima.append([np.max(np.abs(x)) for x in (
            norm(T) - 1.0,
            norm(N) - 1.0,
            norm(B) - 1.0,
            np.einsum("ij,ij->i", T, N),
            np.einsum("ij,ij->i", T, B),
            np.einsum("ij,ij->i", N, B),
            np.einsum("ij,ij->i", cross(T, N), B) - 1.0,
        )])
    devs = dict(zip(keys, map(float, np.max(maxima, axis=0))))
    worst = max(devs.values())
    return FrameCheck(**devs, worst=worst, passed=bool(worst < tol), vacuous=False)


@dataclass(frozen=True)
class ResidualCheck:
    """Worst-case residuals of the frame derivative identities
    T' = kappa N, N' = -kappa T + tau B, B' = -tau N, with ' = d/ds."""

    res_T: float
    res_N: float
    res_B: float
    passed: bool
    vacuous: bool


def frenet_derivative_check(f: FrenetData, tol: float = 1e-4) -> ResidualCheck:
    # The frame fields are themselves finite-difference output, so this
    # second differentiation pass doubles the boundary-contaminated band:
    # stencils that straddle the one-sided rows of the first pass lose an
    # order.  Statistics therefore skip twice the usual margin.
    _require_tol("tol", tol)
    dT = f._d_ds(f.T)
    with np.errstate(invalid="ignore"):
        dN = f._d_ds(f.N)
        dB = f._d_ds(f.B)
        k = f.kappa[:, None]
        t = f.tau[:, None]
        rT = norm(dT - k * f.N)
        rN = norm(dN + k * f.T - t * f.B)
        rB = norm(dB + t * f.N)
    mask = f.valid_interior(2 * BOUNDARY_MARGIN)
    mask &= np.isfinite(rT) & np.isfinite(rN) & np.isfinite(rB)
    if not np.any(mask):
        return ResidualCheck(0.0, 0.0, 0.0, passed=True, vacuous=True)
    res_T = float(np.max(rT[mask]))
    res_N = float(np.max(rN[mask]))
    res_B = float(np.max(rB[mask]))
    return ResidualCheck(
        res_T=res_T,
        res_N=res_N,
        res_B=res_B,
        passed=bool(max(res_T, res_N, res_B) < tol),
        vacuous=False,
    )
