"""Catalog-wide verification table behind the command line front end.

Every row measures one property of the catalog curves or their companion
constructions and compares the deviation against a fixed tolerance.  Row
ids are stable filter tokens.  Most rows pass when the deviation stays
below tolerance; rows that assert a quantity stays above a threshold
(non-constancy of a ratio, convergence factors, a check that is supposed
to fail) invert the comparison, and each row's passed field already
accounts for the direction.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classify import (
    classify,
    general_helix_test,
    slant_helix_test,
)
from .curves import (
    DEFAULT_N,
    CurveSamples,
    catalog_entry,
    catalog_names,
    default_grid,
    evaluate_catalog,
)
from .direction import (
    direction_field,
    donor_from_direction,
    mannheim_check,
    osculating_coefficients,
    osculating_direction_curve,
)
from .frenet import FRAME_SYSTEM_TOL, frenet_apparatus, frenet_derivative_check, verify_frame
from .numerics import (
    BOUNDARY_MARGIN,
    _cumulative,
    _derivative,
    _masked_maxima,
    _require_tol,
    norm,
    uniform_grid,
)
from .od import ODParameters, od_osculating_curve, verify_od_properties

__all__ = ["CheckRow", "run_checks"]


@dataclass(frozen=True)
class CheckRow:
    check: str
    curve: str
    deviation: float
    tolerance: float
    # True when the row wants deviation >= tolerance instead of below
    exceeds: bool
    passed: bool


def _row(check, curve, deviation, tolerance, exceeds=False, passed=None):
    dev = float(deviation)
    if passed is None:
        passed = dev >= tolerance if exceeds else dev < tolerance
    return CheckRow(
        check=check,
        curve=curve,
        deviation=dev,
        tolerance=float(tolerance),
        exceeds=exceeds,
        passed=bool(passed),
    )


def _curve(ctx, name, lo=None, hi=None, n=DEFAULT_N):
    # keyed on the resolved grid, so a window spelling out the default
    # domain shares the default curve
    grid = default_grid(catalog_entry(name)) if lo is None else uniform_grid(lo, hi, n)
    key = (name, grid)
    if key not in ctx:
        ctx[key] = evaluate_catalog(name, grid=grid)
    return ctx[key]


def _pair(ctx, name, phase, lo=None, hi=None, n=DEFAULT_N):
    f = frenet_apparatus(_curve(ctx, name, lo, hi, n))
    key = ("pair", name, f.grid, phase)
    if key not in ctx:
        ctx[key] = (f, frenet_apparatus(osculating_direction_curve(f, phase)))
    return ctx[key]


def _spherical_pair(ctx):
    f = frenet_apparatus(_curve(ctx, "spherical_helix", -0.49, 0.49, 801))
    span = osculating_coefficients(f, 0.0).theta[-1]
    return _pair(ctx, "spherical_helix", np.pi / 2 + (np.pi / 2 - span) / 2, -0.49, 0.49, 801)


def _constant_rows(ctx):
    rows = []
    for name, k0, t0 in (
        ("helix_12_5", 12.0 / 169.0, 5.0 / 169.0),
        ("circular_helix", 0.5, 0.5),
    ):
        f = frenet_apparatus(_curve(ctx, name))
        m = f.valid_interior()
        dev = max(_masked_maxima(m, lambda r: (np.abs(f.kappa[r] - k0), np.abs(f.tau[r] - t0))))
        rows.append(_row("constants", name, dev, 1e-6))
    return rows


def _mannheim_rows(ctx):
    rows = []
    for name in ("circular_helix", "helix_12_5"):
        f, g = _pair(ctx, name, np.pi / 4)
        rep = mannheim_check(g, f)
        rows.append(_row("thm3.2", name, 1.0 - rep.min_alignment, 1e-4))
    return rows


def _bar_agreement_rows(ctx):
    _, g = _pair(ctx, "circular_helix", np.pi / 4)
    s = g.grid.values
    angle = s / 2 + np.pi / 4
    pred_kappa = np.abs(0.5 * np.cos(angle))
    pred_tau = 0.5 * np.sin(angle)
    m = g.valid_interior(2 * BOUNDARY_MARGIN) & (np.abs(np.cos(angle)) >= 0.05)
    dev = max(_masked_maxima(m, lambda r: (
        np.abs(g.kappa[r] - pred_kappa[r]), np.abs(g.tau[r] - pred_tau[r]))))
    return [_row("thm3.3", "circular_helix", dev, 2e-4)]


def _round_trip_rows(ctx):
    # sub-intervals keep the direction angle's cosine above 0.05; coarse
    # grids keep the third-derivative chain truncation-limited
    rows = []
    for name, hi, k0, t0 in (
        ("circular_helix", 1.47, 0.5, 0.5),
        ("helix_12_5", 10.35, 12.0 / 169.0, 5.0 / 169.0),
    ):
        _, g = _pair(ctx, name, np.pi / 4, 0.0, hi, 201)
        rec = donor_from_direction(g)
        inner = g.valid_interior(2 * BOUNDARY_MARGIN)
        dev = max(_masked_maxima(inner, lambda r: (
            np.abs(rec.kappa[r] - k0) / k0, np.abs(rec.tau[r] - t0) / t0)))
        rows.append(_row("thm3.4", name, dev, 1e-3))
    return rows


def _sigma_rows(ctx):
    rows = []
    for name, phase, expect, tol in (
        ("circular_helix", np.pi / 4, 1.0, 1e-2),
        ("helix_12_5", 0.11, 2.4, 1e-2),
    ):
        _, g = _pair(ctx, name, phase)
        rep = slant_helix_test(g)
        dev = max(abs(rep.mean - expect), rep.rel_variation)
        rows.append(_row("thm4.1", name, dev, tol))
    _, g = _spherical_pair(ctx)
    rep = slant_helix_test(g)
    dev = max(abs(abs(rep.mean) - 2.0), rep.rel_variation)
    rows.append(_row("thm4.1", "spherical_helix", dev, 2e-2))
    return rows


def _non_helix_rows(ctx):
    rows = []
    for name, phase, lo, hi, n in (
        ("circular_helix", np.pi / 4, None, None, DEFAULT_N),
        ("root_curve", 0.2, 0.05, 0.95, 401),
        ("helix_12_5", 0.11, None, None, DEFAULT_N),
    ):
        _, g = _pair(ctx, name, phase, lo, hi, n)
        rep = general_helix_test(g)
        rows.append(
            _row(
                "thm4.2",
                name,
                rep.rel_variation,
                1e-3,
                exceeds=True,
                passed=not rep.is_constant,
            )
        )
    return rows


def _rectifying_rows(ctx):
    rows = []
    p = ODParameters(1.0, 1.0)
    for name, lo, hi in (
        ("root_curve", 0.05, 0.95),
        ("helix_12_5", 0.0, 169.0),
    ):
        f = frenet_apparatus(_curve(ctx, name, lo, hi))
        rep = verify_od_properties(od_osculating_curve(f, p), p)
        dev = max(
            rep.rectifying.normal_component,
            rep.slope_error,
            rep.intercept_error,
            rep.cross_ratio,
        )
        rows.append(_row("thm4.4", name, dev, 2e-2, passed=rep.passed))
    plain = verify_od_properties(_curve(ctx, "circular_helix"), p)
    rows.append(
        _row(
            "thm4.4",
            "circular_helix",
            plain.rectifying.normal_component,
            2e-2,
            exceeds=True,
            passed=not plain.rectifying.is_rectifying,
        )
    )
    return rows


# root_curve and spherical_helix have curvature singularities within 1e-3
# of their default domain ends, so derivative-based suites run on the same
# trimmed windows the classification examples use
_RESOLVABLE = (
    ("circular_helix", None, None),
    ("helix_12_5", None, None),
    ("root_curve", 0.05, 0.95),
    ("spherical_helix", -0.49, 0.49),
)


def _flags(rep):
    """The verdicts of a classify report, compared across a rigid motion."""
    return rep.is_line, rep.is_plane, rep.is_general_helix, rep.is_slant_helix, rep.is_rectifying


def _property_rows(ctx):
    rows = []

    dev = max(verify_frame(frenet_apparatus(_curve(ctx, name))).worst for name in catalog_names())
    rows.append(_row("props", "orthonormality", dev, 1e-6))

    dev = 0.0
    for name, lo, hi in _RESOLVABLE:
        r = frenet_derivative_check(frenet_apparatus(_curve(ctx, name, lo, hi)))
        dev = max(dev, r.res_T, r.res_N, r.res_B)
    rows.append(_row("props", "frame-system", dev, FRAME_SYSTEM_TOL))

    dev = 0.0
    for name, lo, hi in _RESOLVABLE:
        f = frenet_apparatus(_curve(ctx, name, lo, hi))
        dc = osculating_coefficients(f, np.pi / 4)
        x = direction_field(f, dc).data
        dev = max(dev, np.max(np.abs(norm(x) - 1.0)))
    rows.append(_row("props", "unit-fields", dev, 1e-9))

    def deriv_err(n, order, exact):
        g = uniform_grid(0.0, 1.5, n)
        d = _derivative(np.sin(3 * g.values), order, g.h)
        return np.max(np.abs(d - exact(g.values)))

    factors = []
    for order, exact in (
        (1, lambda s: 3 * np.cos(3 * s)),
        (2, lambda s: -9 * np.sin(3 * s)),
        (3, lambda s: -27 * np.cos(3 * s)),
    ):
        factors.append(deriv_err(41, order, exact) / deriv_err(81, order, exact))

    def integral_err(n):
        g = uniform_grid(0.0, 2.0, n)
        out = _cumulative(np.cos(g.values), g.h, 0.0)
        return np.max(np.abs(out - np.sin(g.values)))

    factors.append(integral_err(201) / integral_err(401))
    rows.append(_row("props", "convergence", min(factors), 12.0, exceeds=True))

    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    shift = np.array([3.0, -2.0, 0.5])
    dev = 0.0
    flags_equal = True
    for name in ("circular_helix", "helix_12_5"):
        c = _curve(ctx, name)
        moved = CurveSamples(c.grid, c.points @ q.T + shift)
        base, rep = classify(c), classify(moved)
        flags_equal &= _flags(base) == _flags(rep)
        dev = max(
            dev,
            abs(base.helix_ratio.mean - rep.helix_ratio.mean),
            abs(base.sigma_it.mean - rep.sigma_it.mean),
        )
    rows.append(
        _row("props", "rigid-motion", dev, 1e-6, passed=flags_equal and dev < 1e-6)
    )
    return rows


# check id -> row builder, in table order
_BUILDERS = {
    "constants": _constant_rows,
    "thm3.2": _mannheim_rows,
    "thm3.3": _bar_agreement_rows,
    "thm3.4": _round_trip_rows,
    "thm4.1": _sigma_rows,
    "thm4.2": _non_helix_rows,
    "thm4.4": _rectifying_rows,
    "props": _property_rows,
}


def run_checks(
    only: Optional[str] = None,
    curve: Optional[str] = None,
    tol: Optional[float] = None,
) -> list:
    """Evaluate the verification table, optionally filtered to one check id
    or one curve, optionally with every row's tolerance overridden."""
    if only is not None and only not in _BUILDERS:
        raise ValueError(
            f"unknown check {only!r}; available: {', '.join(_BUILDERS)}"
        )
    if tol is not None:
        _require_tol("tol", tol)
    ctx = {}
    rows = []
    for name, build in _BUILDERS.items():
        if only in (None, name):
            rows.extend(build(ctx))
    if curve is not None:
        known = {r.curve for r in rows}
        if curve not in known:
            raise ValueError(
                f"no rows for curve {curve!r}; available: {', '.join(sorted(known))}"
            )
        rows = [r for r in rows if r.curve == curve]
    if tol is not None:
        rows = [_row(r.check, r.curve, r.deviation, tol, r.exceeds) for r in rows]
    return rows
