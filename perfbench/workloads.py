"""Seeded inputs, the timed operation and the correctness checks of each
benchmark workload.

An input pool is generated from the seed and replayed cyclically, one
operation at a time (closed loop, one client).  The library only ever sees
the generated inputs: catalog names, parameters, windows and phases for the
pipelines, CSV files and argument lists for the command line.

Every operation returns what its checks need; `check` turns that into the
ratio of deviation to tolerance per check, the names of the checks that
missed, and the library verdicts that failed but are recorded rather than
gated.  The `verify` table is judged as the documented pass set instead.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import frenetdir
from frenetdir.curves import default_grid
from frenetdir.numerics import BOUNDARY_MARGIN

WORKLOADS = ("small_pipeline", "large_pipeline", "csv_cli")

FAMILIES = ("circular_helix", "helix_12_5", "spherical_helix", "root_curve")

# windows clear of the curvature singularities of root_curve and
# spherical_helix (the same windows the verify table uses)
RESOLVABLE = {"spherical_helix": (-0.49, 0.49), "root_curve": (0.05, 0.95)}

# closed-form curvature/torsion error, relative above magnitude 1, accepted
# per family at the catalog's default spacing.  The helices get the verify
# table's `constants` tolerance; the windowed families come within 0.05 of
# a singularity, where the O(h^4) error constant grows.
CLOSED_FORM_TOL = {
    "circular_helix": 1e-6,
    "helix_12_5": 1e-6,
    "spherical_helix": 1e-4,
    "root_curve": 1e-4,
}

# Roundoff floor of the closed-form torsion check.  Each coordinate carries
# about two ulps of its magnitude (evaluation and storage); the interior
# 7-point third-derivative stencil has absolute weight sum 5.5 / h^3; over
# three coordinates, and divided by curvature, that bounds the torsion error
# at TORSION_ROUNDOFF * max|p| / (h^3 kappa).  On long helix windows, whose
# coordinates grow to about 1000, this floor is above the tolerances below
# (the roundoff limit of the ROADMAP, which the checks do not set out to test).
TORSION_ROUNDOFF = 2.0 * math.sqrt(3.0) * 5.5 * float(np.finfo(float).eps)

# the library's default tolerances, and the command line's cos_floor
FRAME_TOL = 1e-6
MANNHEIM_TOL = 1e-4
AGREE_TOL = 2e-4
AGREE_COS_FLOOR = 0.05
HELIX_REL_TOL = 1e-3

CLI_ROTATION = ("classify", "frenet", "direct", "verify")
FRENET_COLUMNS = 13
CURVE_COLUMNS = 4
# rows of `frenetdir verify` documented to fail (18/21 pass, exit 3)
VERIFY_FAILING = {("thm4.1", "spherical_helix"), ("thm4.4", "root_curve"), ("thm4.4", "helix_12_5")}
VERIFY_ROWS = 21


@dataclass(frozen=True)
class CurveSpec:
    """One pipeline input: a catalog curve on a window, plus the phase and
    companion constants the constructions use."""

    name: str
    params: dict
    s_min: float
    n: int
    h: float
    phase: float
    od_a: float
    od_b: float

    @property
    def s_max(self):
        return self.s_min + (self.n - 1) * self.h


@dataclass(frozen=True)
class CsvSpec:
    """One turn of the command rotation on one CSV file of `rows` samples;
    `points` are the samples as written, kept for the numerics probes."""

    path: str
    workdir: str
    rows: int
    points: np.ndarray

    def output(self, command):
        return os.path.join(self.workdir, f"out_{command}.csv")

    def argv(self, command):
        if command == "verify":
            return ["verify"]
        if command == "classify":
            return ["classify", "--input", self.path]
        return [command, "--input", self.path, "--output", self.output(command)]


def _odd(x):
    """The largest odd integer not above x."""
    n = int(x)
    return n if n % 2 else n - 1


def _curve_spec(rng, name, n_lo, n_hi, q):
    """A curve of family `name` whose n sits at quantile q of [n_lo, n_hi]
    for the family, on a random window at the default spacing."""
    params = {}
    if name == "circular_helix":
        params = {
            "a": rng.uniform(0.25, 2.0),
            "b": rng.uniform(0.25, 2.0),
            "scale": rng.uniform(0.5, 2.0),
        }
    entry = frenetdir.catalog_entry(name, params)
    h = default_grid(entry).h
    if name in RESOLVABLE:
        w_lo, w_hi = RESOLVABLE[name]
        n_hi = min(n_hi, _odd((w_hi - w_lo) / h + 1))
    n = n_lo + 2 * int(q * (n_hi - n_lo) / 2)
    if name in RESOLVABLE:
        s_min = w_lo + rng.uniform(0.0, (w_hi - w_lo) - (n - 1) * h)
    else:
        s_min = rng.uniform(*entry.domain)
    return CurveSpec(
        name=name,
        params=params,
        s_min=float(s_min),
        n=int(n),
        h=float(h),
        phase=float(rng.uniform(0.0, 2.0 * math.pi)),
        od_a=float(rng.uniform(0.5, 2.0)),
        od_b=float(rng.uniform(0.5, 2.0)),
    )


def small_pipeline_inputs(seed, tiny=False):
    # stratified n per family, so each seed sees the same size mix and the
    # run's medians compare across seeds
    rng = np.random.default_rng(seed)
    per_family = 1 if tiny else 16
    n_lo, n_hi = (201, 401) if tiny else (201, 4001)
    specs = []
    for k in range(per_family):
        for name in FAMILIES:
            q = (k + rng.uniform()) / per_family
            specs.append(_curve_spec(rng, name, n_lo, n_hi, q))
    order = rng.permutation(len(specs))
    return [specs[i] for i in order]


def large_pipeline_inputs(seed, tiny=False):
    # only the helices fit 200001 samples at the default spacing
    rng = np.random.default_rng(seed)
    n = 2001 if tiny else 200001
    names = ("circular_helix", "helix_12_5") * 2
    return [_curve_spec(rng, name, n, n, 0.0) for name in names]


def _warped_helix(rng, n):
    """Points of a circular helix sampled at a monotone parameter that is
    not arc length."""
    a, b, scale = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    R, P = a * scale, b * scale
    m = math.hypot(R, P)
    length = rng.uniform(2.0, 6.0) * math.pi * m
    u = np.linspace(0.0, 1.0, n)
    k = int(rng.integers(1, 4))
    alpha = rng.uniform(0.2, 0.6)
    s = length * (u + alpha * np.sin(2 * math.pi * k * u) / (2 * math.pi * k))
    return np.stack([R * np.cos(s / m), R * np.sin(s / m), P * s / m], axis=1)


def csv_cli_inputs(seed, workdir, tiny=False):
    """Seeded x,y,z CSV files, one per rotation turn, written into workdir."""
    rng = np.random.default_rng(seed)
    specs = []
    for k in range(1 if tiny else 4):
        rows = _odd(rng.integers(1901, 2102))
        points = _warped_helix(rng, rows)
        path = os.path.join(workdir, f"curve_{k}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,z\n")
            fh.writelines("%.17g,%.17g,%.17g\n" % tuple(p) for p in points)
        specs.append(CsvSpec(path, workdir, rows, points))
    return specs


def make_inputs(workload, seed, workdir, tiny=False):
    if workload == "small_pipeline":
        return small_pipeline_inputs(seed, tiny)
    if workload == "large_pipeline":
        return large_pipeline_inputs(seed, tiny)
    if workload == "csv_cli":
        return csv_cli_inputs(seed, workdir, tiny)
    raise ValueError(f"unknown workload {workload!r}; available: {', '.join(WORKLOADS)}")


# ---- operations ---------------------------------------------------------


def pipeline_op(spec, lib=frenetdir, tracer=None):
    """The whole library pipeline on one catalog curve.  `lib` supplies the
    library functions, so a traced run can pass wrapped ones."""
    grid = lib.uniform_grid(spec.s_min, spec.s_max, spec.n)
    c = lib.evaluate_catalog(spec.name, spec.params or None, grid)
    f = lib.frenet_apparatus(c)
    frame = lib.verify_frame(f, FRAME_TOL)
    dc = lib.osculating_coefficients(f, spec.phase)
    gamma = lib.integrate_direction_curve(lib.direction_field(f, dc))
    g = lib.frenet_apparatus(gamma)
    mann = lib.mannheim_check(g, f, MANNHEIM_TOL)
    pb = lib.predicted_bar_data(f, dc)
    agree = lib.compare_predicted(g, pb, dc, atol=AGREE_TOL, cos_floor=AGREE_COS_FLOOR)
    bar = (pb.kappa_bar_signed, pb.tau_bar_signed)
    rep = lib.classify(c, rel_tol=HELIX_REL_TOL)
    p = lib.ODParameters(spec.od_a, spec.od_b, spec.phase)
    od = lib.verify_od_properties(lib.od_osculating_curve(f, p), p)
    return {"points": c.points, "grid": grid, "f": f, "frame": frame, "dc": dc, "g": g, "bar": bar,
            "mann": mann, "agree": agree, "classify": rep, "od": od}


def cli_op(spec, lib=frenetdir, tracer=None):
    """The command rotation as in-process `frenetdir` calls, stdout and
    stderr captured.  The command line module is imported here, so a cold
    start pays for it in its first operation as a command line user does."""
    from frenetdir import cli

    calls = {}
    for command in CLI_ROTATION:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            code = cli.main(spec.argv(command))
        if tracer and err.getvalue().startswith("error:"):
            tracer.errors["cli"] += 1
        calls[command] = (code, out.getvalue(), err.getvalue())
    return calls


def probe_points(spec, result):
    """(grid, points) of an operation's input curve, for the numerics
    probes of a traced run."""
    if isinstance(spec, CsvSpec):
        return frenetdir.uniform_grid(0.0, spec.rows - 1.0, spec.rows), spec.points
    return result["grid"], result["points"]


def operation(workload):
    return cli_op if workload == "csv_cli" else pipeline_op


# ---- checks -------------------------------------------------------------


def closed_form(spec, s):
    """Exact curvature and torsion of a catalog curve at arc length s."""
    if spec.name in ("circular_helix", "helix_12_5"):
        p = spec.params if spec.name == "circular_helix" else {"a": 12.0, "b": 5.0, "scale": 1.0}
        R, P = p["a"] * p["scale"], p["b"] * p["scale"]
        m2 = R * R + P * P
        return np.full_like(s, R / m2), np.full_like(s, P / m2)
    if spec.name == "root_curve":
        kappa = (math.sqrt(2.0) / 4.0) / np.sqrt(s * (1.0 - s))
        return kappa, kappa
    kappa = 1.0 / np.sqrt(1.0 - (2.0 * s) ** 2)
    return kappa, -2.0 * kappa


def _gap_ratio(kappa, tau, kappa_ref, tau_ref, tol, extent, h):
    """Worst curvature/torsion error over its tolerance: `tol` absolute
    below magnitude 1 and relative above, and for torsion never below the
    roundoff floor of third differences of coordinates up to `extent`."""
    floor = TORSION_ROUNDOFF * extent / (h ** 3 * np.abs(kappa_ref))
    return max(
        float(np.max(np.abs(kappa - kappa_ref) / (tol * np.maximum(np.abs(kappa_ref), 1.0)))),
        float(np.max(np.abs(tau - tau_ref) / np.maximum(tol * np.maximum(np.abs(tau_ref), 1.0), floor))),
    )


def _agreement(spec, r):
    """Gap between the direction curve's curvature and torsion and their
    prediction, over AGREE_TOL, on the rows the `verify` table's thm3.3 row
    compares: two boundary margins in (the points are differentiated,
    integrated and differentiated again), a Frenet frame, and |v| above the
    cos floor."""
    g, dc, (kappa_bar, tau_bar) = r["g"], r["dc"], r["bar"]
    mask = np.zeros(g.grid.n, dtype=bool)
    mask[g.grid.interior(2 * BOUNDARY_MARGIN)] = True
    mask &= g.frenet_valid & ~dc.degeneracy_flags & (np.abs(dc.v) > AGREE_COS_FLOOR)
    if not np.any(mask):
        return math.inf
    # the direction curve starts at the origin with unit speed, so no
    # coordinate exceeds the window's length
    return _gap_ratio(g.kappa[mask], g.tau[mask], np.abs(kappa_bar[mask]), tau_bar[mask],
                      AGREE_TOL, spec.s_max - spec.s_min, spec.h)


def _check_pipeline(spec, r):
    f = r["f"]
    mask = f.valid_interior()
    kappa, tau = closed_form(spec, f.grid.values[mask])
    extent = float(np.max(np.abs(r["points"])))
    frame = r["frame"]
    frame_dev = max(frame.norm_T, frame.norm_N, frame.norm_B, frame.dot_TN,
                    frame.dot_TB, frame.dot_NB, frame.handedness)
    agree = r["agree"]
    rep = r["classify"]
    ratios = [
        ("closed_form", _gap_ratio(f.kappa[mask], f.tau[mask], kappa, tau,
                                   CLOSED_FORM_TOL[spec.name], extent, spec.h)),
        ("verify_frame", frame_dev / FRAME_TOL),
        ("mannheim_check", (1.0 - r["mann"].min_alignment) / MANNHEIM_TOL),
        ("agreement", _agreement(spec, r)),
        ("classify.helix_ratio", rep.helix_ratio.rel_variation / HELIX_REL_TOL),
    ]
    verdicts = {
        "closed_form": ratios[0][1] < 1.0,
        "verify_frame": frame.passed and not frame.vacuous,
        "mannheim_check": r["mann"].passed and not r["mann"].vacuous,
        "agreement": ratios[3][1] < 1.0,
        # every catalog entry is a general helix, hence slant by implication
        "classify.flags": (rep.is_line, rep.is_plane, rep.is_general_helix,
                           rep.is_slant_helix) == (False, False, True, True),
        "od.report_finite": all(math.isfinite(x) for x in (
            r["od"].slope_error, r["od"].intercept_error, r["od"].cross_ratio)),
    }
    misses = [name for name, ok in verdicts.items() if not ok]
    # the library's own verdict, over all of valid_interior() with an
    # absolute tolerance: recorded, not gated (see PREDICTIONS.md)
    advisories = [] if agree.passed and agree.samples_used > 0 else ["compare_predicted"]
    return ratios, misses, advisories


def _file_shape(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    widths = {line.count(",") + 1 for line in lines}
    return len(lines) - 1, (widths.pop() if len(widths) == 1 else -1)


def parse_verify_table(stdout):
    """(check, curve, deviation, tolerance, exceeds, passed) per table row."""
    rows = []
    for line in stdout.splitlines()[2:]:
        parts = line.split()
        if len(parts) != 6 or parts[5] not in ("pass", "FAIL"):
            continue
        check, curve, dev, op_tol, status = parts[0], parts[1], parts[2], parts[3:5], parts[5]
        exceeds = op_tol[0] == ">="
        rows.append((check, curve, float(dev), float(op_tol[1]), exceeds, status == "pass"))
    return rows


def dev_ratio(dev, tol, exceeds=False):
    """Deviation over tolerance, oriented so that 1 and above is a miss:
    for a row that wants the deviation to reach the tolerance, the
    inverse."""
    if exceeds:
        return tol / dev if dev > 0 else math.inf
    return dev / tol


def _check_cli(spec, calls):
    devs, misses = [], []  # devs: (name, deviation, tolerance, exceeds)
    for command, (code, stdout, stderr) in calls.items():
        want = 3 if command == "verify" else 0
        if code != want or stderr:
            misses.append(f"{command}.exit_code")
            continue
        if command == "verify":
            rows = parse_verify_table(stdout)
            failing = {(c, k) for c, k, _, _, _, ok in rows if not ok}
            if len(rows) != VERIFY_ROWS or failing != VERIFY_FAILING:
                misses.append("verify.pass_set")
            devs += [(f"verify.{c}.{k}", dev, tol, exceeds)
                     for c, k, dev, tol, exceeds, _ in rows if (c, k) not in VERIFY_FAILING]
        elif command == "classify":
            rep = json.loads(stdout)
            flags = tuple(rep[k] for k in ("is_line", "is_plane", "is_general_helix", "is_slant_helix"))
            if flags != (False, False, True, True):
                misses.append("classify.flags")
            devs.append(("classify.helix_ratio", rep["helix_ratio"]["rel_variation"], HELIX_REL_TOL, False))
        else:
            cols = FRENET_COLUMNS if command == "frenet" else CURVE_COLUMNS
            if _file_shape(spec.output(command)) != (spec.rows, cols):
                misses.append(f"{command}.output_shape")
        if command == "frenet":
            line = next(x for x in stdout.splitlines() if x.startswith("frame orthonormality"))
            devs.append(("frenet.orthonormality", float(line.split()[4]), FRAME_TOL, False))
    return [(name, dev_ratio(dev, tol, exceeds)) for name, dev, tol, exceeds in devs], misses, []


def check(workload, spec, result):
    """([(check, deviation/tolerance)], [missed check], [library verdict
    that failed but is not gated]) for one operation."""
    if workload == "csv_cli":
        return _check_cli(spec, result)
    return _check_pipeline(spec, result)
