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
    _blocks,
    _cumulative,
    _derivative,
    _masked_maxima,
    _require_tol,
    cross,
    norm,
    rowdot,
)

KAPPA_FLOOR = 1e-9

# band of max |speed - 1| over interior samples accepted as unit speed
UNIT_SPEED_TOL = 1e-4

# worst residual of the frame derivative identities accepted by
# frenet_derivative_check (and the verify table's frame-system row)
FRAME_SYSTEM_TOL = 1e-4


@dataclass(frozen=True)
class FrenetData:
    """Tangent, normal, binormal, curvature, torsion and speed per sample.

    speed is |dr/dt| on the grid parameter t, and s the arc length from
    s = grid.s_min at the first sample.

    frenet_valid is false where the curvature is below KAPPA_FLOOR; N, B,
    and tau hold NaN there.  Accuracy statements hold on valid_interior():
    the first and last BOUNDARY_MARGIN rows come from one-sided stencils of
    a higher truncation order but carry roundoff of order
    sum|w| * ulp(|p|) / h^k, which for tau (k = 3) is far above the
    interior error on fine grids of curves far from the origin.

    T, N and B are read-only (n, 3) views of component-major (3, n)
    storage: each component is one contiguous row of n values, and
    f.T.T is that C-contiguous (3, n) array.

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
        out = _cumulative(self.speed, self.grid.h, self.grid.s_min)
        out.flags.writeable = False
        return out

    @cached_property
    def ratio(self) -> np.ndarray:
        """Torsion over curvature per sample, NaN where frenet_valid is
        false.  Computed once and shared, so it is read-only."""
        out = _ratio(self.kappa, self.tau, self.frenet_valid)
        out.flags.writeable = False
        return out

    def _d_ds(self, values: np.ndarray) -> np.ndarray:
        """Arc-length derivative (1/speed) d/dt of per-sample scalars (n,)."""
        out = _derivative(values, 1, self.grid.h)
        out /= self.speed
        return out

    def valid_interior(self, margin: int = BOUNDARY_MARGIN) -> np.ndarray:
        """Boolean mask: frenet_valid and clear of the boundary margin."""
        mask = np.zeros(self.grid.n, dtype=bool)
        mask[self.grid.interior(margin)] = True
        return mask & self.frenet_valid


def _ratio(kappa: np.ndarray, tau: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """tau / kappa, NaN where valid is false."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(valid, tau / kappa, np.nan)


def frenet_apparatus(c: CurveSamples) -> FrenetData:
    """Compute {T, N, B, kappa, tau} and the speed on the grid parameter.

    T is the numerical first derivative; the binormal direction comes from
    the first-two-derivatives cross product, which keeps kappa nonnegative,
    and torsion from the third derivative projected on it.  Every row is
    filled, but accuracy holds on FrenetData.valid_interior() only.  A
    speed at or below SPEED_FLOOR (a stalled sample) raises DomainError.

    The frame is computed in row blocks of numerics._BLOCK_ROWS (8192)
    samples by the kernel _frenet, component-major: each block's three
    derivatives and d1 x d2 go into (3, rows) scratch arrays, which stay
    in L2 cache, and each output array is written once, block by block,
    with no full-length float temporary.  A block's rows come out
    bit-identical to a whole-array pass, so no result depends on the
    block size, and a curve of at most 8192 samples is a single block.
    The stalled-sample check runs on each block before any division in
    it.

    One frame per curve: the result is stored on the curve instance and
    returned as is by every later call on it.  Its arrays are read-only,
    as is CurveSamples.points, so the stored frame cannot go stale.
    """
    f = c.__dict__.get("_frenet")
    if f is not None:
        return f
    n = c.grid.n
    blocks = _blocks(slice(0, n))
    # (3, rows) scratch for d1, d2, d3 and d1 x d2 of one block, allocated
    # below the outputs, so that its release leaves a reusable hole: on
    # top of them it would leave a free heap top that malloc hands back to
    # the system, and every frame would fault its pages in again
    scratch = np.empty((4, 3, blocks[0].stop))
    T, N, B = (np.empty((3, n)).T for _ in range(3))
    kappa, tau, speed = (np.empty(n) for _ in range(3))
    valid = np.empty(n, dtype=bool)
    for rows in blocks:
        # every output row is written once, straight into its array
        valid[rows] = _frenet(c, rows, scratch, T[rows], N[rows], B[rows],
                              kappa[rows], tau[rows], speed[rows])
    for a in (T, N, B, kappa, tau, valid, speed):
        a.flags.writeable = False

    # a frozen dataclass still lets its instance __dict__ take the memo
    c.__dict__["_frenet"] = f = FrenetData(c.grid, T, N, B, kappa, tau, valid, speed)
    return f


def _frenet(c: CurveSamples, rows: slice, scratch: np.ndarray, T: np.ndarray, N: np.ndarray,
            B: np.ndarray, kappa: np.ndarray, tau: np.ndarray, speed: np.ndarray) -> np.ndarray:
    """The frame of c on one row block: the kernel of frenet_apparatus,
    and of od.verify_od_properties, which stores no frame.

    The block's three derivatives and d1 x d2 go into scratch, a
    (4, 3, >= rows) array; T, N and B are written into (rows, 3) arrays
    and kappa, tau and speed into (rows,) arrays, of any layout.  N, B and
    tau are NaN where kappa is below KAPPA_FLOOR.  Returns the block's
    frenet_valid.  A stalled sample raises DomainError before any
    division."""
    d1, d2, d3, d1xd2 = (a[:, :rows.stop - rows.start].T for a in scratch)
    for k, d in zip((1, 2, 3), (d1, d2, d3)):
        _derivative(c.points, k, c.grid.h, rows.start, rows.stop, d)
    sp = norm(d1, out=speed)
    if not np.all(sp > SPEED_FLOOR):
        i = int(np.argmin(sp > SPEED_FLOOR))
        raise DomainError(f"degenerate curve: speed {sp[i]:.3g} at sample {rows.start + i} "
                          f"(parameter {c.grid.values[rows.start + i]:g}) "
                          f"is not above {SPEED_FLOOR:g}")
    cross(d1, d2, out=d1xd2)
    cross_norm = norm(d1xd2)
    np.divide(cross_norm, sp**3, out=kappa)
    # T is normalized so the triad is orthonormal by construction: B is
    # unit and perpendicular to d1 already, and N = B x T inherits both.
    np.divide(d1.T, sp, out=T.T)
    valid = kappa >= KAPPA_FLOOR
    # safe denominator; invalid rows are overwritten with NaN below
    denom = np.where(valid, cross_norm, 1.0)
    np.divide(d1xd2.T, denom, out=B.T)
    cross(B, T, out=N)
    np.divide(rowdot(d1xd2, d3), denom**2, out=tau)
    if not valid.all():
        B[~valid] = np.nan
        N[~valid] = np.nan
        tau[~valid] = np.nan
    return valid


def unit_speed_deviation(f: FrenetData) -> float:
    """max |speed - 1| over interior samples (boundary stencils excluded),
    the speed measured against the grid parameter."""
    (worst,) = _masked_maxima(f.grid.interior(), lambda rows: [np.abs(f.speed[rows] - 1.0)])
    return worst


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

    def deviations(rows):
        T, N, B = f.T[rows], f.N[rows], f.B[rows]
        return [np.abs(x) for x in (
            norm(T) - 1.0,
            norm(N) - 1.0,
            norm(B) - 1.0,
            rowdot(T, N),
            rowdot(T, B),
            rowdot(N, B),
            rowdot(cross(T, N), B) - 1.0,
        )]

    devs = dict(zip(keys, _masked_maxima(mask, deviations)))
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


def frenet_derivative_check(f: FrenetData) -> ResidualCheck:
    # The frame fields are themselves finite-difference output, so this
    # second differentiation pass doubles the boundary-contaminated band:
    # stencils that straddle the one-sided rows of the first pass lose an
    # order.  Statistics therefore skip twice the usual margin.  Passed
    # when the worst residual is below FRAME_SYSTEM_TOL.

    def residuals(rows):
        # d/ds of the frame on these rows only (_derivative's row range)
        speed = f.speed[rows, None]
        dT, dN, dB = (_derivative(a, 1, f.grid.h, rows.start, rows.stop) / speed
                      for a in (f.T, f.N, f.B))
        T, N, B = f.T[rows], f.N[rows], f.B[rows]
        k, t = f.kappa[rows, None], f.tau[rows, None]
        res = [norm(dT - k * N), norm(dN + k * T - t * B), norm(dB + t * N)]
        # a row whose residuals are not all finite is not judged
        skip = ~np.isfinite(res).all(axis=0)
        for r in res:
            r[skip] = -np.inf
        return res

    mask = f.valid_interior(2 * BOUNDARY_MARGIN)
    res_T, res_N, res_B = _masked_maxima(mask, residuals) if mask.any() else [-np.inf] * 3
    # a judged row has finite residuals, so -inf means none was judged
    if res_T == -np.inf:
        return ResidualCheck(0.0, 0.0, 0.0, passed=True, vacuous=True)
    return ResidualCheck(
        res_T=res_T,
        res_N=res_N,
        res_B=res_B,
        passed=bool(max(res_T, res_N, res_B) < FRAME_SYSTEM_TOL),
        vacuous=False,
    )
