"""Command line front end.

Subcommands: catalog, frenet, direct, classify, od, verify.  Curve input
is either a catalog name (--curve) or a CSV file (--input), which brings
its own samples, so the grid and catalog-parameter options are rejected
with it.  Grids, phases, construction constants and tolerances come from
flags, from a config file (--config, or the file named by FD_CONFIG), or
from the defaults, in that order of increasing precedence (flags win).

Config files are line oriented `key = value` text; keys match the long
flag names with either - or _ and # starts a comment line.  The config
file applies to the frenet, direct, classify and od commands; catalog
and verify take only their own flags.  Each option of those four
commands is declared once, in _OPTIONS, with the commands that read it
(only those take the flag; a config file may set any key).  Float values
must be finite and tolerances positive, whichever source they come from.

Exit codes are stable: 0 success, 1 usage or configuration error, 2
domain precondition violated by the data, 3 numerical failure (including
a verify run whose displayed rows do not all pass).

Output files are deterministic: CSV numbers are written at 17
significant digits and JSON objects with sorted keys, so identical
configuration yields byte-identical files.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import cache
from typing import NamedTuple, Optional

import numpy as np

from . import verify as verify_suite
from .classify import RATIO_FLOOR, classify, slant_helix_test
from .curves import (
    DEFAULT_N,
    CurveSamples,
    _write_rows,
    catalog_entry,
    catalog_names,
    evaluate_catalog,
    load_csv,
    save_csv,
)
from .direction import (
    binormal_direction_curve,
    compare_predicted,
    mannheim_check,
    osculating_coefficients,
    osculating_direction_curve,
    predicted_bar_data,
    principal_direction_curve,
)
from .errors import DomainError, NumericalError
from .frenet import UNIT_SPEED_TOL, frenet_apparatus, unit_speed_deviation, verify_frame
from .numerics import MIN_SAMPLES, uniform_grid
from .od import ODParameters, od_osculating_curve, verify_od_properties

# the subcommands that read a curve, with their help lines
_CURVE_COMMANDS = {
    "frenet": "frame, curvature and torsion of a curve",
    "direct": "construct a direction curve and check it",
    "classify": "line/plane/helix/slant/rectifying verdicts as json",
    "od": "osculating-plane companion curve and its checks",
}


class _Option(NamedTuple):
    type: type
    default: object
    help: str
    commands: tuple = tuple(_CURVE_COMMANDS)
    choices: Optional[tuple] = None


# every option of the curve commands, in argparse order; the flag is
# --<key> with _ spelled -, and config files accept the key either way
_OPTIONS = {
    "curve": _Option(str, None, "catalog curve name"),
    "input": _Option(str, None, "CSV file with s,x,y,z or x,y,z rows"),
    "params": _Option(str, "", "catalog parameter overrides k=v,..."),
    "s_min": _Option(float, None, "grid start (default: catalog domain)"),
    "s_max": _Option(float, None, "grid end (default: catalog domain)"),
    "n": _Option(int, None, f"sample count, at least {MIN_SAMPLES} (default {DEFAULT_N})"),
    "output": _Option(str, None, "write sampled data here"),
    "format": _Option(str, "csv", "output file format", ("frenet", "direct", "od"), ("csv", "json")),
    "tol_rel": _Option(float, 1e-3, "constancy tolerance", ("direct", "classify")),
    "tol_frame": _Option(float, 1e-6, "frame tolerance", ("frenet",)),
    "tol_od": _Option(float, 2e-2, "companion-check tolerance", ("classify", "od")),
    "family": _Option(
        str, "osculating", "direction family", ("direct",),
        ("osculating", "principal", "binormal"),
    ),
    "phase_c": _Option(float, 0.0, "phase constant", ("direct", "od")),
    "a": _Option(float, 1.0, "binormal-component constant, nonzero", ("od",)),
    "b": _Option(float, 1.0, "arc-length offset, nonzero", ("od",)),
}


def _flag(key):
    return "--" + key.replace("_", "-")


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _read_config(path):
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
        try:
            out[key] = _OPTIONS[key].type(value.strip())
        except ValueError:
            raise ValueError(f"config key {key}: cannot parse {value.strip()!r}") from None
    return out


def _parse_params(text):
    params = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"--params entries are k=v, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise ValueError(f"--params {key.strip()}: cannot parse {value!r}") from None
    return params


def _resolve_config(args):
    """Defaults, then FD_CONFIG, then --config, then flags; validated."""
    cfg = {key: opt.default for key, opt in _OPTIONS.items()}
    env_path = os.environ.get("FD_CONFIG")
    if env_path:
        cfg.update(_read_config(env_path))
    if getattr(args, "config", None):
        cfg.update(_read_config(args.config))
    for key in _OPTIONS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    cfg["params"] = _parse_params(cfg["params"])
    for key, opt in _OPTIONS.items():
        value = cfg[key]
        # a key the command takes no flag for can only come from a config file
        name = _flag(key) if hasattr(args, key) else f"config key {key}"
        if opt.choices and value not in opt.choices:
            raise ValueError(f"{name} must be one of {', '.join(opt.choices)}, got {value!r}")
        if opt.type is float and value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if key.startswith("tol_") and not value > 0:
            raise ValueError(f"{name} must be positive")
    return argparse.Namespace(**cfg)


def _source_curve(cfg):
    if (cfg.curve is None) == (cfg.input is None):
        raise ValueError("exactly one of --curve or --input is required")
    if cfg.curve is not None:
        entry = catalog_entry(cfg.curve, cfg.params or None)
        lo = entry.domain[0] if cfg.s_min is None else cfg.s_min
        hi = entry.domain[1] if cfg.s_max is None else cfg.s_max
        grid = uniform_grid(lo, hi, DEFAULT_N if cfg.n is None else cfg.n)
        return evaluate_catalog(cfg.curve, cfg.params or None, grid)
    # a CSV file brings its own samples, so no grid or parameter applies
    if cfg.params:
        raise ValueError("--params only applies to catalog curves")
    for key in ("s_min", "s_max", "n"):
        if getattr(cfg, key) is not None:
            raise ValueError(f"{_flag(key)} only applies to catalog curves")
    try:
        return load_csv(cfg.input)
    except OSError as exc:
        raise ValueError(f"cannot read input file {cfg.input}: {exc.strerror or exc}") from None


def _dump_json(payload, path=None):
    text = json.dumps(payload, sort_keys=True, indent=2, default=lambda o: o.tolist())
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _write_curve(c, speed_deviation, cfg):
    if cfg.output is None:
        return
    if cfg.format == "csv":
        save_csv(c, cfg.output)
    else:
        _dump_json(
            {
                "s": c.grid.values,
                "x": c.points[:, 0],
                "y": c.points[:, 1],
                "z": c.points[:, 2],
                "unit_speed": speed_deviation <= UNIT_SPEED_TOL,
            },
            cfg.output,
        )


def _write_frenet(f, cfg):
    if cfg.output is None:
        return
    if cfg.format == "json":
        _dump_json(
            {
                "s": f.grid.values,
                "T": f.T,
                "N": f.N,
                "B": f.B,
                "kappa": f.kappa,
                "tau": f.tau,
                "valid": f.frenet_valid.astype(int),
            },
            cfg.output,
        )
        return
    _write_rows(
        cfg.output,
        ("s", "Tx", "Ty", "Tz", "Nx", "Ny", "Nz", "Bx", "By", "Bz", "kappa", "tau", "valid"),
        np.column_stack([f.grid.values, f.T, f.N, f.B, f.kappa, f.tau, f.frenet_valid]),
    )


def cmd_catalog(args):
    entries = [dataclasses.asdict(catalog_entry(name)) for name in catalog_names()]
    if args.json:
        _dump_json(entries)
        return 0
    for e in entries:
        params = ", ".join(f"{k}={v:g}" for k, v in sorted(e["parameters"].items()))
        print(f"{e['name']:16s} domain [{e['domain'][0]:g}, {e['domain'][1]:g}]"
              f"  params: {params or '-'}")
        print(f"{'':16s} {e['about']}")
    return 0


def cmd_frenet(args):
    cfg = _resolve_config(args)
    f = frenet_apparatus(_source_curve(cfg))
    mask = f.valid_interior()
    if not np.any(mask):
        raise DomainError("frenet: curvature below floor at every interior sample")
    kappa, tau = f.kappa[mask], f.tau[mask]
    frame = verify_frame(f, cfg.tol_frame)
    print(f"samples: {f.grid.n} on [{f.grid.values[0]:g}, {f.grid.values[-1]:g}]"
          f" ({int(mask.sum())} interior with frame)")
    print(f"kappa: mean={kappa.mean():.7g} min={kappa.min():.7g} max={kappa.max():.7g}")
    print(f"tau:   mean={tau.mean():.7g} min={tau.min():.7g} max={tau.max():.7g}")
    verdict = "ok" if frame.passed else "FAIL"
    print(f"frame orthonormality: max deviation {frame.worst:.3e} (tol {cfg.tol_frame:g}) {verdict}")
    _write_frenet(f, cfg)
    if not frame.passed:
        raise NumericalError(f"frame orthonormality {frame.worst:.3e} exceeds {cfg.tol_frame:g}")
    return 0


def cmd_direct(args):
    cfg = _resolve_config(args)
    f = frenet_apparatus(_source_curve(cfg))
    if cfg.family == "principal":
        gamma = principal_direction_curve(f)
    elif cfg.family == "binormal":
        gamma = binormal_direction_curve(f)
    else:
        gamma = osculating_direction_curve(f, cfg.phase_c)
    print(f"family: {cfg.family}  phase: {cfg.phase_c:g}")
    g = frenet_apparatus(gamma)
    speed_deviation = unit_speed_deviation(g)
    print(f"speed deviation: {speed_deviation:.3e}")
    if cfg.family == "osculating":
        dc = osculating_coefficients(f, cfg.phase_c)
        mann = mannheim_check(g, f)
        agree = compare_predicted(g, predicted_bar_data(f, dc), dc, cos_floor=RATIO_FLOOR)
        if mann.vacuous:
            print("normal/binormal alignment: no rows checked")
        else:
            print(f"normal/binormal alignment: min {mann.min_alignment:.6f}"
                  f" ({'pass' if mann.passed else 'FAIL'})")
        print(f"predicted curvature/torsion agreement: dev_kappa={agree.dev_kappa:.3e}"
              f" dev_tau={agree.dev_tau:.3e} ({'pass' if agree.passed else 'FAIL'})")
        slant = slant_helix_test(g, rel_tol=cfg.tol_rel)
        print(f"sigma: mean={slant.mean:.6g} rel_variation={slant.rel_variation:.3e}"
              f" constant={'yes' if slant.is_constant else 'no'}")
    _write_curve(gamma, speed_deviation, cfg)
    return 0


def cmd_classify(args):
    cfg = _resolve_config(args)
    c = _source_curve(cfg)
    rep = classify(c, rel_tol=cfg.tol_rel, rect_tol=cfg.tol_od)
    _dump_json(dataclasses.asdict(rep), cfg.output)
    return 0


def cmd_od(args):
    cfg = _resolve_config(args)
    c = _source_curve(cfg)
    lo = c.grid.values[0]
    if lo != 0.0:
        # the construction measures arc length from the first sample; shift
        # the grid so the written s column starts at 0 there too
        c = CurveSamples(uniform_grid(0.0, c.grid.values[-1] - lo, c.grid.n), c.points)
    f = frenet_apparatus(c)
    p = ODParameters(cfg.a, cfg.b, cfg.phase_c)
    gamma = od_osculating_curve(f, p)
    rep = verify_od_properties(gamma, p, tol=cfg.tol_od)
    print(f"parameters: a={cfg.a:g} b={cfg.b:g} phase={cfg.phase_c:g}")
    print(f"unit speed: {'yes' if rep.speed_deviation <= UNIT_SPEED_TOL else 'no'}"
          f" (max deviation {rep.speed_deviation:.3e})")
    print(f"rectifying: normal component {rep.rectifying.normal_component:.3e}"
          f" ({'pass' if rep.rectifying.is_rectifying else 'FAIL'})")
    print(f"ratio line: slope {rep.ratio_fit.slope:.6g}"
          f" intercept {rep.ratio_fit.intercept:.6g}"
          f" max residual {rep.ratio_fit.max_residual:.3e}")
    print(f"parameter agreement: slope error {rep.slope_error:.3e}"
          f" intercept error {rep.intercept_error:.3e}")
    print(f"axis alignment: max cross ratio {rep.cross_ratio:.3e}")
    print(f"all checks passed: {'yes' if rep.passed else 'no'} (tol {cfg.tol_od:g})")
    _write_curve(gamma, rep.speed_deviation, cfg)
    return 0


def cmd_verify(args):
    rows = verify_suite.run_checks(only=args.only, curve=args.curve, tol=args.tol)
    header = f"{'check':10s} {'curve':16s} {'deviation':>12s} {'tolerance':>10s}  result"
    print(header)
    print("-" * len(header))
    for r in rows:
        op = ">=" if r.exceeds else "< "
        status = "pass" if r.passed else "FAIL"
        print(f"{r.check:10s} {r.curve:16s} {r.deviation:12.4e} {op}{r.tolerance:8g}  {status}")
    passed = sum(r.passed for r in rows)
    print(f"{passed}/{len(rows)} checks passed")
    return 0 if passed == len(rows) else 3


@cache
def _build_parser():
    # built once per process: parse_args leaves the parser as it was, and
    # the config file and FD_CONFIG are still read on every call
    parser = _Parser(prog="frenetdir", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("catalog", help="list built-in curves")
    p.add_argument("--json", action="store_true", help="machine-readable listing")

    for command, about in _CURVE_COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for key, opt in _OPTIONS.items():
            if command in opt.commands:
                shown = "" if opt.default in (None, "") else f" (default {opt.default})"
                p.add_argument(
                    _flag(key), dest=key, type=opt.type, choices=opt.choices,
                    help=opt.help + shown,
                )
        p.add_argument("--config", help="config file (key = value lines)")

    p = sub.add_parser("verify", help="run the whole verification table")
    p.add_argument("--only", help="restrict to one check id")
    p.add_argument("--curve", help="restrict to one curve")
    p.add_argument("--tol", type=float, help="override every row tolerance")

    return parser


_COMMANDS = {
    "catalog": cmd_catalog,
    "frenet": cmd_frenet,
    "direct": cmd_direct,
    "classify": cmd_classify,
    "od": cmd_od,
    "verify": cmd_verify,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
