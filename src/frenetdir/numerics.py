"""Uniform grids, high-order finite differences, cumulative quadrature,
constancy detection, and the row-wise cross product and norm of (n, 3)
sample arrays.

Everything downstream differentiates or integrates sampled data through this
module, so the accuracy budget of the whole package is set here: interior
stencils and the cumulative integral are O(h^4), one-sided boundary rows use
widened windows to keep the same truncation order (but carry far more
roundoff), and statistics helpers let callers drop the first and last few
samples where boundary effects concentrate.

Stencil weights depend only on the offsets and the derivative order, so each
order's weights are solved once, on first use, and reused by every later
derivative call.

Integration and differentiation are used in composition (curves are built by
integrating a field, then differentiated up to third order), so the
quadrature's local error must vary smoothly from panel to panel; see
_cumulative.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property
from math import factorial

import numpy as np

# Stencils need this much room; Simpson pairing wants an odd count.
MIN_SAMPLES = 9

# First/last samples considered boundary-contaminated by verification
# statistics (one-sided stencils live there).
BOUNDARY_MARGIN = 3


@dataclass(frozen=True)
class Grid:
    """Uniform sample grid on [s_min, s_max] with an odd number of points."""

    s_min: float
    s_max: float
    n: int

    def __post_init__(self):
        if self.n < MIN_SAMPLES:
            raise ValueError(f"grid needs at least {MIN_SAMPLES} samples, got {self.n}")
        if self.n % 2 == 0:
            raise ValueError(f"grid sample count must be odd, got {self.n}")
        if not self.s_min < self.s_max:
            raise ValueError(f"empty grid interval [{self.s_min}, {self.s_max}]")

    @property
    def h(self) -> float:
        return (self.s_max - self.s_min) / (self.n - 1)

    @cached_property
    def values(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.n)

    def interior(self, margin: int = BOUNDARY_MARGIN) -> slice:
        """Slice selecting samples clear of the boundary margin."""
        return slice(margin, self.n - margin)


def _require_tol(name: str, value: float) -> None:
    """Reject a tolerance that is not a finite positive number, naming it."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value:g}")


def _require_fraction(name: str, value: float) -> None:
    """Reject a value outside [0, 1), NaN included, naming it."""
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {value:g}")


def _require_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError(f"grids differ: {a} vs {b}")


def uniform_grid(s_min: float, s_max: float, n: int) -> Grid:
    """Build a uniform grid; n must be odd and at least MIN_SAMPLES."""
    return Grid(float(s_min), float(s_max), int(n))


@dataclass(frozen=True)
class ScalarSamples:
    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.shape != (self.grid.n,):
            raise ValueError(f"scalar data shape {data.shape} does not match grid n={self.grid.n}")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class VectorSamples:
    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.shape != (self.grid.n, 3):
            raise ValueError(f"vector data shape {data.shape} does not match grid n={self.grid.n}")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class ConstancyReport:
    """Summary statistics answering "is this sampled function constant".

    rel_variation is (max - min) / max(|median|, 1e-12); is_constant holds
    exactly when rel_variation is below the tolerance the caller supplied.
    degenerate_zero is set by callers for the all-but-zero case, where the
    relative measure is meaningless.
    """

    mean: float
    min: float
    max: float
    rel_variation: float
    is_constant: bool
    degenerate_zero: bool = field(default=False)


def _rows(mask: np.ndarray):
    """Index for the True rows of a boolean mask: slice(lo, hi) when they
    form one contiguous run, so that indexing with it is a view and copies
    nothing, and the mask itself otherwise.  Either selects the same rows
    in the same order."""
    lo = int(np.argmax(mask))
    hi = mask.size - int(np.argmax(mask[::-1]))
    if mask[lo] and mask[lo:hi].all():
        return slice(lo, hi)
    return mask


def constancy(values: np.ndarray, rel_tol: float) -> ConstancyReport:
    """ConstancyReport over a plain array (callers pre-select samples)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("constancy statistics need at least one sample")
    lo = float(values.min())
    hi = float(values.max())
    rel = (hi - lo) / max(abs(float(np.median(values))), 1e-12)
    return ConstancyReport(
        mean=float(values.mean()),
        min=lo,
        max=hi,
        rel_variation=rel,
        is_constant=bool(rel < rel_tol),
    )


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two (n, 3) arrays, bit-identical to
    np.cross(a, b) (same products, same subtraction per component) but
    written column by column into one preallocated C-ordered output."""
    out = np.empty(a.shape, dtype=np.result_type(a, b))
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    np.subtract(a1 * b2, a2 * b1, out=out[:, 0])
    np.subtract(a2 * b0, a0 * b2, out=out[:, 1])
    np.subtract(a0 * b1, a1 * b0, out=out[:, 2])
    return out


def norm(a: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norm of an (n, 3) array, bit-identical to
    np.linalg.norm(a, axis=1): the squares are summed in the same order."""
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    return np.sqrt(a0 * a0 + a1 * a1 + a2 * a2)


def _stencil(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights on integer offsets for the given derivative
    order, exact for polynomials up to degree len(offsets)-1."""
    m = len(offsets)
    A = np.vander(np.asarray(offsets, dtype=float), m, increasing=True).T
    rhs = np.zeros(m)
    rhs[order] = factorial(order)
    return np.linalg.solve(A, rhs)


# Interior half-widths: 5-point stencils for orders 1-2, 7-point for order 3.
_HALF = {1: 2, 2: 2, 3: 3}
# One-sided window sizes keeping every boundary row at truncation order
# O(h^4) or better.  Order 1 takes a sixth point: the 5-point edge row is
# O(h^4) in theory but its error constant leaves it pre-asymptotic on
# coarse grids (a 41 -> 81 error ratio near 10 rather than 16).
_EDGE_WINDOW = {1: 6, 2: 6, 3: 7}


@cache
def _weights(order: int):
    """(center, head, tail) weights for one order: the central stencil, then
    the one-sided rows for the first and for the last _HALF[order] samples
    (tail[i] serves sample n-1-i).  Solved on first use; read-only."""
    half = _HALF[order]
    win = _EDGE_WINDOW[order]
    center = _stencil(np.arange(-half, half + 1), order)
    head = [_stencil(np.arange(win) - i, order) for i in range(half)]
    tail = [_stencil(np.arange(win) - (win - 1 - i), order) for i in range(half)]
    for w in (center, *head, *tail):
        w.flags.writeable = False
    return center, tuple(head), tuple(tail)


def _derivative(y: np.ndarray, order: int, h: float) -> np.ndarray:
    """Stencil derivative of (n,) or (n, 3) data, one column at a time into
    one output array.  Each column is read through its own (possibly
    strided) view of y: see derivative on why the layout matters."""
    n = y.shape[0]
    center, head, tail = _weights(order)
    half = len(head)
    win = _EDGE_WINDOW[order]
    out = np.empty(y.shape)
    # reshape to (n, columns) is a view of both arrays for either shape
    for col, dst in zip(y.reshape(n, -1).T, out.reshape(n, -1).T):
        dst[half:n - half] = np.correlate(col, center, mode="valid")
        for i in range(half):
            dst[i] = head[i] @ col[:win]
            dst[n - 1 - i] = tail[i] @ col[n - win:]
    out /= h**order
    return out


def derivative(f, order: int):
    """Differentiate sampled data on its uniform grid.

    Parameters
    ----------
    f : ScalarSamples or VectorSamples
    order : int
        1, 2, or 3.

    Returns
    -------
    Samples of the same kind holding the order-th derivative.  The stencil
    weights of each order are solved once and reused across calls.  Interior
    points are O(h^4); the first and last two rows (three for order 3, all
    within BOUNDARY_MARGIN) use one-sided windows of the same truncation
    order.  Their roundoff is of order sum|w| * ulp(max|f|) / h^order, with
    sum|w| = 208 on the outermost order-3 row against 5.5 for the central
    stencil, so on fine grids of data far from the origin those rows are
    roundoff-dominated.  Accuracy statements hold on the interior rows
    (FrenetData.valid_interior).

    The bits of the boundary rows depend on the memory layout of the column
    they read (a dot product over a strided view and over a contiguous copy
    of the same numbers can differ in the last bit); the interior rows do
    not.  Vector data is therefore read through strided column views of
    f.data, never a transposed or contiguous copy, so each column of a
    vector derivative is bit-identical to the scalar derivative of that
    column view.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2, or 3, got {order}")
    if not isinstance(f, (ScalarSamples, VectorSamples)):
        raise TypeError("derivative expects ScalarSamples or VectorSamples")
    return type(f)(f.grid, _derivative(f.data, order, f.grid.h))


def _cumulative(y: np.ndarray, h: float, initial) -> np.ndarray:
    """Cumulative integral of (n,) or (n, 3) data; initial is a float or
    one value per column."""
    n = y.shape[0]
    # Integral over each single interval from the cubic through the four
    # nearest nodes.  One stencil family for every interior interval keeps
    # the local error sign-coherent along the grid; a scheme that alternates
    # stencils by parity leaves a sawtooth residue that second-derivative
    # stencils amplify by 1/h^2 downstream.
    panels = np.empty((n - 1, *y.shape[1:]))
    panels[1:n - 2] = h * (-y[:n - 3] + 13.0 * y[1:n - 2] + 13.0 * y[2:n - 1] - y[3:]) / 24.0
    panels[0] = h * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]) / 24.0
    panels[n - 2] = h * (y[n - 4] - 5.0 * y[n - 3] + 19.0 * y[n - 2] + 9.0 * y[n - 1]) / 24.0
    out = np.empty(y.shape)
    out[0] = initial
    # a running sum down each column, then the offset: the same additions
    # as initial + np.cumsum(column), without a temporary per column
    np.cumsum(panels, axis=0, out=out[1:])
    out[1:] += initial
    return out


def cumulative_integral(f, initial=0.0):
    """Cumulative integral along the grid, anchored at the first sample.

    result[0] equals `initial`; cubic integrands are reproduced exactly at
    every sample and the scheme is globally O(h^4) for smooth data.
    """
    if isinstance(f, ScalarSamples):
        initial = float(initial)
    elif isinstance(f, VectorSamples):
        initial = np.broadcast_to(np.asarray(initial, dtype=float), (3,))
    else:
        raise TypeError("cumulative_integral expects ScalarSamples or VectorSamples")
    return type(f)(f.grid, _cumulative(f.data, f.grid.h, initial))
