"""Sampled space curves: the built-in catalog, CSV I/O, and an arc-length
resampling utility.

Catalog curves are evaluated from closed-form expressions already in an
arc-length parametrization, so downstream differentiation sees exact
unit-speed data.  The spherical entry's natural parameter is not arc length;
its evaluator substitutes the exact inverse of the arc-length function first.
"""

import codecs
import csv as _csv
import io
from dataclasses import dataclass
from itertools import chain
from math import cos, isfinite, pi, sqrt

import numpy as np

from .errors import DomainError
from .numerics import Grid, MIN_SAMPLES, _cumulative, _derivative, norm, uniform_grid

# at or below this numerical speed a curve counts as degenerate
SPEED_FLOOR = 1e-9

# samples of a catalog curve's default grid
DEFAULT_N = 2001


@dataclass(frozen=True)
class CurveSamples:
    """A space curve sampled on a uniform grid in any regular parameter.

    Whether that parameter is arc length is a measurement on the curve's
    FrenetData (frenet.unit_speed_deviation), not part of the samples.
    Non-finite points raise DomainError naming the first such sample.

    points is the curve's own read-only, C-ordered copy of the samples,
    so later writes to the caller's array cannot change the curve, nor the
    Frenet apparatus that frenet_apparatus computes once per curve and
    keeps.  The copy is C-ordered whatever the layout of the caller's
    array, so every pass over the points reads contiguous rows.  A curve
    the library builds (evaluate_catalog, the direction curves, the
    osculating-plane companion, arclength_reparametrize) keeps the array
    it was built in instead of a copy (_built_curve): the same checks,
    and the same read-only, C-ordered points.
    """

    grid: Grid
    points: np.ndarray

    def __post_init__(self):
        self._keep(np.array(self.points, dtype=float, order="C"))

    def _keep(self, pts: np.ndarray) -> None:
        """Check pts against the grid, make it read-only and keep it."""
        if pts.shape != (self.grid.n, 3):
            raise ValueError(f"points shape {pts.shape} does not match grid n={self.grid.n}")
        if not np.isfinite(pts).all():
            i = int(np.argmin(np.isfinite(pts).all(axis=1)))
            raise DomainError(f"non-finite point at sample {i} (s={self.grid.values[i]:g})")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


def _built_curve(grid: Grid, points: np.ndarray) -> CurveSamples:
    """A CurveSamples that keeps points, an array the library has just
    built and holds no other reference to, rather than a copy of it.  It
    is copied only if it is not C-ordered float64."""
    c = object.__new__(CurveSamples)
    object.__setattr__(c, "grid", grid)
    c._keep(np.asarray(points, dtype=float, order="C"))
    return c


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: dict
    domain: tuple
    about: str


def _helix_domain(params):
    return (0.0, 4 * pi)


def _helix_validate(params):
    if params["a"] <= 0 or params["scale"] <= 0:
        raise ValueError("circular_helix needs a > 0 and scale > 0")


def _helix_points(params, s):
    R = params["a"] * params["scale"]
    P = params["b"] * params["scale"]
    m = sqrt(R * R + P * P)
    return np.stack([R * np.cos(s / m), R * np.sin(s / m), P * s / m], axis=1)


def _helix12_points(params, s):
    return _helix_points({"a": 12.0, "b": 5.0, "scale": 1.0}, s)


def _root_points(params, s):
    k = sqrt(2.0) / 3.0
    return np.stack([k * s**1.5, k * (1.0 - s) ** 1.5, (sqrt(2.0) / 2.0) * s], axis=1)


_ROOT_EPS = 1e-3
_SPH_EPS = 1e-2


def _sph_validate(params):
    if params["c"] <= 0:
        raise ValueError("spherical_helix needs c > 0")


def _sph_bound(params):
    # arc length runs over sin(sigma)/c as the native parameter sweeps
    # (-pi/2 + eps, pi/2 - eps)
    return cos(_SPH_EPS) / params["c"]


def _sph_points(params, s):
    c = params["c"]
    w = sqrt(1.0 + c * c) / c
    t = np.arcsin(c * s)
    ws = w * t
    return np.stack(
        [
            np.cos(t) * np.cos(ws) + np.sin(t) * np.sin(ws) / w,
            -np.cos(t) * np.sin(ws) + np.sin(t) * np.cos(ws) / w,
            np.sin(t) / (c * w),
        ],
        axis=1,
    )


_CATALOG = {
    "circular_helix": {
        "about": "circular helix with curvature = torsion = 1/2",
        "defaults": {"a": 1.0, "b": 1.0, "scale": 1.0},
        "validate": _helix_validate,
        "domain": _helix_domain,
        "bounds": lambda params: (-np.inf, np.inf),
        "points": _helix_points,
    },
    "helix_12_5": {
        "about": "circular helix with curvature 12/169 and torsion 5/169",
        "defaults": {},
        "validate": lambda params: None,
        "domain": lambda params: (0.0, 169.0),
        "bounds": lambda params: (-np.inf, np.inf),
        "points": _helix12_points,
    },
    "root_curve": {
        "about": "unit-speed curve on (0,1) with curvature = torsion = sqrt(2)/(4 sqrt(s(1-s)))",
        "defaults": {},
        "validate": lambda params: None,
        "domain": lambda params: (_ROOT_EPS, 1.0 - _ROOT_EPS),
        "bounds": lambda params: (_ROOT_EPS, 1.0 - _ROOT_EPS),
        "points": _root_points,
    },
    "spherical_helix": {
        "about": "spherical general helix with torsion = -2 curvature",
        "defaults": {"c": 2.0},
        "validate": _sph_validate,
        "domain": lambda params: (-_sph_bound(params), _sph_bound(params)),
        "bounds": lambda params: (-_sph_bound(params), _sph_bound(params)),
        "points": _sph_points,
    },
}


def catalog_names():
    return sorted(_CATALOG)


def catalog_entry(name: str, parameters=None) -> CatalogEntry:
    """Resolve a catalog name and parameter overrides to a concrete entry."""
    if name not in _CATALOG:
        raise ValueError(f"unknown catalog curve {name!r}; available: {', '.join(catalog_names())}")
    spec_ = _CATALOG[name]
    params = dict(spec_["defaults"])
    for key, value in (parameters or {}).items():
        if key not in params:
            raise ValueError(f"{name} does not take parameter {key!r}")
        params[key] = float(value)
        if not isfinite(params[key]):
            raise ValueError(f"{name} parameter {key!r} must be finite, got {value!r}")
    spec_["validate"](params)
    return CatalogEntry(name, params, spec_["domain"](params), spec_["about"])


def default_grid(entry: CatalogEntry) -> Grid:
    """The entry's own domain at DEFAULT_N samples."""
    return uniform_grid(entry.domain[0], entry.domain[1], DEFAULT_N)


def evaluate_catalog(name: str, parameters=None, grid: Grid = None) -> CurveSamples:
    """Sample a catalog curve on `grid` (default: default_grid, the entry's
    own domain at DEFAULT_N points).  The grid parameter is arc length for
    every entry."""
    entry = catalog_entry(name, parameters)
    if grid is None:
        grid = default_grid(entry)
    lo, hi = _CATALOG[name]["bounds"](entry.parameters)
    if grid.s_min < lo:
        raise DomainError(f"grid s_min={grid.s_min:g} below {name} domain bound {lo:g}")
    if grid.s_max > hi:
        raise DomainError(f"grid s_max={grid.s_max:g} above {name} domain bound {hi:g}")
    return _built_curve(grid, _CATALOG[name]["points"](entry.parameters, grid.values))


def load_csv(path) -> CurveSamples:
    """Read a curve from CSV (`s,x,y,z` or `x,y,z` header).

    A strictly increasing, uniform s column becomes the grid parameter,
    arc length or not; a non-uniform s column, or none, gives the sample
    index 0..n-1 as the parameter.  Fields may be quoted and are read as
    float() reads them (`1_000` and surrounding spaces included); blank
    lines and a leading UTF-8 byte order mark are skipped.  Any count of
    at least MIN_SAMPLES rows makes a grid.  A malformed file raises
    DomainError naming its first faulty line, blank lines counted.
    """
    with open(path, "rb") as fh:
        # not utf-8-sig, which counts an undecodable byte from after the mark
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    # a fault the reader stops at is raised after the lines before it
    # are checked, so that the first fault in the file is the one named
    fault = None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks at \n, \r and \r\n, as the reader does
        lines = raw[: exc.start].splitlines(keepends=True)
        if lines and not lines[-1].endswith((b"\n", b"\r")):
            lines.pop()
        text = b"".join(lines).decode("utf-8")
        fault = DomainError(f"{path}: line {len(lines) + 1}: not UTF-8 text")
    records = []
    try:
        records.extend(_csv.reader(io.StringIO(text, newline="")))
    except _csv.Error as exc:
        fault = DomainError(f"{path}: line {len(records) + 1}: {exc}")
    if not records:
        raise fault or DomainError(f"{path}: empty file")
    header = [col.strip() for col in records[0]]
    if header == ["s", "x", "y", "z"]:
        has_s = True
    elif header == ["x", "y", "z"]:
        has_s = False
    else:
        raise DomainError(f"{path}: line 1: header must be s,x,y,z or x,y,z, got {','.join(header)}")
    width = 4 if has_s else 3
    records = records[1:]
    rows = list(filter(None, records))
    data = None
    if set(map(len, rows)) <= {width}:
        try:
            fields = map(float, chain.from_iterable(rows))
            data = np.fromiter(fields, float, len(rows) * width).reshape(-1, width)
        except ValueError:
            pass
    if data is None or fault:
        _raise_first_fault(path, records, width)
        raise fault
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        lineno = _line_number(records, int(np.argmin(finite)))
        raise DomainError(f"{path}: line {lineno}: non-finite field")
    n = len(rows)
    if n < MIN_SAMPLES:
        raise DomainError(f"{path}: fewer than {MIN_SAMPLES} samples (got {n})")
    if has_s:
        s = data[:, 0]
        if np.any(np.diff(s) <= 0):
            raise DomainError(f"{path}: s column is not strictly increasing")
        span = s[-1] - s[0]
        uniform = np.allclose(np.diff(s), span / (n - 1), rtol=0, atol=1e-9 * max(span, 1.0))
        if uniform:
            return CurveSamples(grid=Grid(float(s[0]), float(s[-1]), n), points=data[:, 1:])
        return CurveSamples(grid=Grid(0.0, float(n - 1), n), points=data[:, 1:])
    return CurveSamples(grid=Grid(0.0, float(n - 1), n), points=data)


def _line_number(records, i):
    """File line of the i-th non-blank record after the header (line 1)."""
    return [k for k, row in enumerate(records, start=2) if row][i]


def _raise_first_fault(path, records, width):
    """Walk the records in file order and raise DomainError at the first
    one of the wrong width or with a field float() rejects.  The bulk
    conversion in load_csv applies the same float() to the same fields,
    so when it failed this walk raises."""
    for lineno, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != width:
            raise DomainError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
        try:
            [float(v) for v in row]
        except ValueError:
            raise DomainError(f"{path}: line {lineno}: non-numeric field") from None


def _write_rows(path, header, table: np.ndarray) -> None:
    """Write a CSV with one header line and one row per line of `table`,
    every number at 17 significant digits (lossless for doubles; a 0/1
    flag prints as 0 or 1)."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % tuple(values) for values in table.tolist())


def save_csv(c: CurveSamples, path) -> None:
    """Write `s,x,y,z` rows; s is the grid parameter, arc length only for
    a unit-speed curve."""
    _write_rows(path, ("s", "x", "y", "z"), np.column_stack([c.grid.values, c.points]))


def arclength_reparametrize(c: CurveSamples, n_out: int) -> CurveSamples:
    """Resample a regular curve by arc length onto a uniform grid over [0, L].

    The arc-length function is accumulated from the numerical speed and
    inverted with a monotone cubic interpolant; points are then evaluated
    through a C^2 spline, whose piecewise-constant third derivative makes
    torsion low-order accurate.  Nothing in the library calls it.  scipy,
    which the package does not require, is imported here, on first use,
    and nowhere else.
    """
    from scipy.interpolate import CubicSpline, PchipInterpolator

    h = c.grid.h
    speed = norm(_derivative(c.points, 1, h))
    if np.min(speed) <= SPEED_FLOOR:
        i = int(np.argmin(speed))
        raise DomainError(
            f"degenerate curve: speed {speed[i]:.3g} at parameter {c.grid.values[i]:g} "
            f"is below the {SPEED_FLOOR:g} floor"
        )
    arc = _cumulative(speed, h, 0.0)
    if np.any(np.diff(arc) <= 0):
        raise DomainError("degenerate curve: arc length is not strictly increasing")
    total = float(arc[-1])
    out_grid = uniform_grid(0.0, total, n_out)
    t_of_s = PchipInterpolator(arc, c.grid.values)
    t_out = t_of_s(out_grid.values)
    # guard the spline against interpolation overshoot at the ends
    t_out = np.clip(t_out, c.grid.s_min, c.grid.s_max)
    spline = CubicSpline(c.grid.values, c.points, axis=0)
    return _built_curve(out_grid, spline(t_out))
