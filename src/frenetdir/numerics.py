"""Uniform grids, high-order finite differences, cumulative quadrature,
and the row-wise cross product and norm of (n, 3) sample arrays.

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

Long per-sample passes (the Frenet frame, the frame and
derivative-identity statistics, the osculating-plane companion, and the
check of a companion, which reads its frame once and stores none) run in
row blocks of _BLOCK_ROWS = 8192 rows: _derivative returns any row range
of a derivative, and _blocks splits a row range.  A block's (rows, 3) float64
temporaries take 192 KiB each, so the few that are live at once stay in a
core's L2 cache between the passes that write and read them, and a long
curve makes no full-length temporary that is written once, read once and
freed (each of those costs fresh pages).  On a 2 MiB-L2 Xeon, one frame at
n = 200001 takes about the same time with 8192 or 16384 rows, a little
longer with 4096; 2048 rows or fewer pay for the per-block Python work,
and 65536 rows fall out of L2.  Curves of at most 8192 samples are one
block.  Every row is computed by the same operations in the same order
whatever block holds it, so no result depends on the block size.

Frame blocks are component-major: each holds its x, y and z components
as three contiguous rows of a (3, rows) array and is read through the
(rows, 3) view of it, so a ufunc over a block runs one long contiguous
inner loop per component rather than loops of length 3 over strided
columns.  An elementwise operation gives the same bits in any memory
layout; the one operation whose bits would follow the layout is pinned.
The row-wise dot product is rowdot, which adds the products in one fixed
order, (a0 b0 + a2 b2) + a1 b1: the order np.einsum takes for the
subscripts "ij,ij->i" on C-ordered rows (on other layouts einsum rounds
about a quarter of the rows differently).  The one-sided derivative rows
of each side are one batched dot (np.vecdot) over a new C-ordered array
of differences, contiguous along the window, so they too give the same
bits in every layout, and the same bits as one dot per row (see
derivative).

Every worst-row statistic (_masked_maxima) reduces block by block over
a slice or a mask's span, with where=, then takes the max over the
blocks: exact, NaN still propagates, and no rows are gathered.  A min is
minus the max of the negated statistic, which is exact too.
"""

from dataclasses import dataclass
from functools import cache, cached_property
from math import factorial

import numpy as np

# First/last samples considered boundary-contaminated by verification
# statistics (one-sided stencils live there).
BOUNDARY_MARGIN = 3

# Rows per block of the blocked per-sample passes (see the module
# docstring): the (rows, 3) float64 temporaries of a block stay in L2.
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class Grid:
    """Uniform sample grid on [s_min, s_max] with at least MIN_SAMPLES points."""

    s_min: float
    s_max: float
    n: int

    def __post_init__(self):
        if self.n < MIN_SAMPLES:
            raise ValueError(f"grid needs at least {MIN_SAMPLES} samples, got {self.n}")
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
    """Build a uniform grid; n must be at least MIN_SAMPLES."""
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


def _span(mask: np.ndarray) -> slice:
    """slice(lo, hi) from the first True row of a boolean mask to just
    past its last one (slice(0, n) when there is none)."""
    lo = int(np.argmax(mask))
    return slice(lo, mask.size - int(np.argmax(mask[::-1])))


def _rows(mask: np.ndarray):
    """Index for the True rows of a boolean mask: slice(lo, hi) when they
    form one contiguous run, so that indexing with it is a view and copies
    nothing, and the mask itself otherwise.  Either selects the same rows
    in the same order."""
    span = _span(mask)
    if mask[span.start] and mask[span].all():
        return span
    return mask


def _blocks(rows: slice) -> list:
    """Consecutive slices of at most _BLOCK_ROWS rows covering a slice."""
    return [slice(lo, min(lo + _BLOCK_ROWS, rows.stop))
            for lo in range(rows.start, rows.stop, _BLOCK_ROWS)]


def _masked_maxima(mask, stats) -> list:
    """Max of each row statistic over the True rows of a mask (which must
    hold one), or over every row of a slice: stats(rows) returns the
    statistics of the rows of one slice as (rows,) arrays.  Each block of
    the mask's span is reduced with where=, then the blocks' maxima are
    reduced: exact, and NaN on a True row still propagates.  Rows outside
    the mask are computed but never read, so their inf or NaN raise no
    warning."""
    span = mask if isinstance(mask, slice) else _span(mask)
    maxima = []
    with np.errstate(invalid="ignore", over="ignore"):
        for rows in _blocks(span):
            where = True if mask is span else mask[rows]
            maxima.append([np.maximum.reduce(x, where=where, initial=-np.inf) for x in stats(rows)])
    # a curve of at most _BLOCK_ROWS samples is one block: nothing to reduce
    return [float(x) for x in (maxima[0] if len(maxima) == 1 else np.max(maxima, axis=0))]


def cross(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise cross product of two (n, 3) arrays, bit-identical to
    np.cross(a, b) (same products, same subtraction per component) but
    written column by column into one output: out if given, else a new
    C-ordered array."""
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(a, b))
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    np.subtract(a1 * b2, a2 * b1, out=out[:, 0])
    np.subtract(a2 * b0, a0 * b2, out=out[:, 1])
    np.subtract(a0 * b1, a1 * b0, out=out[:, 2])
    return out


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of two (n, 3) arrays, summed in the fixed
    order (a0 b0 + a2 b2) + a1 b1: the bits that np.einsum gives for the
    subscripts "ij,ij->i" on C-ordered rows, in every memory layout."""
    out = a[:, 0] * b[:, 0]
    out += a[:, 2] * b[:, 2]
    out += a[:, 1] * b[:, 1]
    return out


def norm(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise Euclidean norm of an (n, 3) array, bit-identical to
    np.linalg.norm(a, axis=1): the squares are summed in the same order.
    Written into out if given."""
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    return np.sqrt(a0 * a0 + a1 * a1 + a2 * a2, out=out)


def _stencil(offsets: np.ndarray, order: int, degree: int | None = None) -> np.ndarray:
    """Finite-difference weights on integer offsets for the given derivative
    order, exact for polynomials up to degree (default len(offsets)-1, where
    the weights are unique).  A lower degree leaves spare offsets, and the
    weights are then the exact ones of least 2-norm: the extra samples
    lower the roundoff the row amplifies instead of its truncation order."""
    m = len(offsets)
    degree = m - 1 if degree is None else degree
    A = np.vander(np.asarray(offsets, dtype=float), degree + 1, increasing=True).T
    rhs = np.zeros(degree + 1)
    rhs[order] = factorial(order)
    if degree == m - 1:
        return np.linalg.solve(A, rhs)
    # least-norm solution of A w = rhs through A.T = QR: w = Q R^-T rhs
    q, r = np.linalg.qr(A.T)
    return q @ np.linalg.solve(r.T, rhs)


# Interior half-widths: 5-point stencils for orders 1-2, 7-point for order 3.
_HALF = {1: 2, 2: 2, 3: 3}
# One-sided windows: the samples each boundary row reads, and the degree
# up to which its weights are exact.  The O(h^4) rows of the smallest
# windows (5, 6 and 7 samples) have error constants that leave them
# pre-asymptotic on coarse grids: two-frequency waves on [0, 1.5] give
# 41 -> 81 error ratios of 10.9 for order 1, 11.2 for order 2 and down
# to 3.6 for order 3, rather than 16.  Each order therefore takes one
# more degree, O(h^5).  Order 3 would need 8 samples, whose weight sum
# (455 on the outermost row, against 208 for 7) doubles the roundoff on
# fine grids; it reads 9 samples instead, with the least-norm weights
# exact to degree 7 (sum 217, a smaller 2-norm than the 7-sample row).
# The worst 41 -> 81 ratio on those waves is then 15 for order 1, 15.9
# for order 2 and 21.9 for order 3.
_EDGE_WINDOW = {1: 6, 2: 7, 3: 9}
_EDGE_DEGREE = {1: 5, 2: 6, 3: 7}

# a grid must hold the widest one-sided window
MIN_SAMPLES = max(_EDGE_WINDOW.values())


@cache
def _weights(order: int):
    """(center, head, tail) weights for one order: the central stencil, then
    (half, win) arrays of the one-sided rows for the first and for the last
    half = _HALF[order] samples (tail[i] serves sample n-1-i).  Solved on
    first use; read-only."""
    half = _HALF[order]
    win, degree = _EDGE_WINDOW[order], _EDGE_DEGREE[order]
    center = _stencil(np.arange(-half, half + 1), order)
    head = np.array([_stencil(np.arange(win) - i, order, degree) for i in range(half)])
    tail = np.array([_stencil(np.arange(win) - (win - 1 - i), order, degree) for i in range(half)])
    for w in (center, head, tail):
        w.flags.writeable = False
    return center, head, tail


def _one_sided(w: np.ndarray, window: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (k, win) weights w dotted with window - row for each of k rows:
    one np.vecdot over a new C-ordered (k, columns, win) array of
    differences (a strided dot vector would add in another order)."""
    return np.vecdot(w[:, None], np.subtract(window.T, rows[:, :, None], order="C"))


def _derivative(y: np.ndarray, order: int, h: float, lo: int = 0, hi: int | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Rows lo..hi-1 of the stencil derivative of (n,) or (n, 3) data into
    one output array: out if given (of any layout), else a new C-ordered
    one.  The central rows correlate each column through its own (possibly
    strided) view of y; the one-sided rows of each side are one batched
    dot (_one_sided).  Every row is bit-identical to the same row of the
    whole-array call: a central row correlates the same window of the
    column whatever slice it is read from, and a one-sided row weights the
    same differences."""
    n = y.shape[0]
    hi = n if hi is None else hi
    center, head, tail = _weights(order)
    half = len(head)
    win = _EDGE_WINDOW[order]
    if out is None:
        out = np.empty((hi - lo, *y.shape[1:]))
    # reshape to (rows, columns) is a view of both arrays for either shape
    y2, out2 = y.reshape(n, -1), out.reshape(hi - lo, -1)
    # central rows a..b-1 of this range
    a, b = max(lo, half), min(hi, n - half)
    if a < b:
        for col, dst in zip(y2.T, out2.T):
            dst[a - lo:b - lo] = np.correlate(col[a - half:b + half], center, mode="valid")
    if lo < half:
        rows = slice(lo, min(hi, half))
        out2[:rows.stop - lo] = _one_sided(head[rows], y2[:win], y2[rows])
    if hi > n - half:
        rows = slice(max(lo, n - half), hi)
        # tail[n-1-j] serves row j, so the rows' weights run backwards
        w = tail[n - hi:n - rows.start][::-1]
        out2[rows.start - lo:] = _one_sided(w, y2[n - win:], y2[rows])
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
    within BOUNDARY_MARGIN) use one-sided windows of truncation order
    O(h^5) (see _EDGE_WINDOW).  A one-sided row weights the differences of
    its window against its own sample: the weights sum to zero, but once
    rounded they do not exactly, and weighting the samples themselves
    would add that residue times |f|, over h^order.  The rounding the
    samples carry still gives those rows roundoff of order
    sum|w| * ulp(max|f|) / h^order, with sum|w| = 217 on the outermost
    order-3 row against 5.5 for the central stencil, so on fine grids of
    data far from the origin they are roundoff-dominated.  Accuracy
    statements hold on the interior rows (FrenetData.valid_interior).

    Every row gives the same bits whatever the memory layout of f.data:
    the central rows correlate a column view, and the one-sided rows of
    each side are one batched dot (np.vecdot) with a new array of
    differences, contiguous along the window: the same float64 dot as one
    w @ (window - sample) per row, so the same bits.  Each column of a
    vector derivative is bit-identical to the scalar derivative of that
    column.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2, or 3, got {order}")
    if not isinstance(f, (ScalarSamples, VectorSamples)):
        raise TypeError("derivative expects ScalarSamples or VectorSamples")
    return type(f)(f.grid, _derivative(f.data, order, f.grid.h))


def _cumulative(y: np.ndarray, h: float, initial, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative integral of (n,) or (n, 3) data; initial is a float or
    one value per column.  Written into out if given, which may be y
    itself: every panel is complete before out is written."""
    n = y.shape[0]
    # Integral over each single interval from the cubic through the four
    # nearest nodes.  One stencil family for every interior interval keeps
    # the local error sign-coherent along the grid; a scheme that alternates
    # stencils by parity leaves a sawtooth residue that second-derivative
    # stencils amplify by 1/h^2 downstream.
    # in y's memory layout, so that each in-place term below reads y and
    # writes the panels in the same order
    panels = np.empty_like(y, shape=(n - 1, *y.shape[1:]))
    # h (-y0 + 13 y1 + 13 y2 - y3) / 24, term by term into the panels; 13 y1
    # - y0 is -y0 + 13 y1 exactly, and the one temporary, 13 y2, is made
    # block by block
    inner = panels[1:n - 2]
    np.multiply(y[1:n - 2], 13.0, out=inner)
    inner -= y[:n - 3]
    for rows in _blocks(slice(0, n - 3)):
        inner[rows] += 13.0 * y[2 + rows.start:2 + rows.stop]
    inner -= y[3:]
    inner *= h
    inner /= 24.0
    panels[0] = h * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]) / 24.0
    panels[n - 2] = h * (y[n - 4] - 5.0 * y[n - 3] + 19.0 * y[n - 2] + 9.0 * y[n - 1]) / 24.0
    if out is None:
        out = np.empty(y.shape)
    out[0] = initial
    # a running sum down each column, then the offset: the same additions
    # as initial + np.cumsum(column), without a temporary per column
    np.cumsum(panels, axis=0, out=out[1:])
    out[1:] += initial
    return out


def cumulative_integral(f):
    """Cumulative integral along the grid, anchored at 0 at the first sample.

    Cubic integrands are reproduced exactly at every sample and the scheme
    is globally O(h^4) for smooth data.
    """
    if not isinstance(f, (ScalarSamples, VectorSamples)):
        raise TypeError("cumulative_integral expects ScalarSamples or VectorSamples")
    return type(f)(f.grid, _cumulative(f.data, f.grid.h, 0.0))
