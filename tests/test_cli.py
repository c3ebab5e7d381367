import argparse
import codecs
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frenetdir
from frenetdir import verify as verify_module
from frenetdir.cli import _OPTIONS, _build_parser, _resolve_config, main
from frenetdir.curves import evaluate_catalog
from frenetdir.verify import run_checks

from oracles import WARPED_HELICES, warped_helix


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("FD_CONFIG", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_line_csv(path, n=201):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("s,x,y,z\n")
        for i in range(n):
            fh.write("%.17g,%.17g,0,0\n" % (i * 0.01, i * 0.01))


def write_xyz_csv(path, points):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,z\n")
        fh.writelines("%.17g,%.17g,%.17g\n" % tuple(p) for p in points)


CURVE_COMMANDS = ("frenet", "direct", "classify", "od")


class TestCatalog:
    def test_lists_all_entries(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        for name in ("circular_helix", "helix_12_5", "root_curve", "spherical_helix"):
            assert name in out

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        assert code == 0
        entries = json.loads(out)
        assert [e["name"] for e in entries] == sorted(e["name"] for e in entries)
        for e in entries:
            assert set(e) == {"name", "parameters", "domain", "about"}
            assert e["domain"][0] < e["domain"][1]

    def test_unknown_subcommand_usage_error(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 1
        assert "usage" in err


def test_runs_as_module():
    env = dict(os.environ, PYTHONPATH=str(Path(frenetdir.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "frenetdir", "catalog", "--json"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "circular_helix" in [e["name"] for e in json.loads(proc.stdout)]


class TestParserReuse:
    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_no_state_carries_between_calls(self, tmp_path, capsys):
        path = tmp_path / "warped.csv"
        write_xyz_csv(path, warped_helix(*WARPED_HELICES[0])[0])
        out = tmp_path / "out.csv"
        argv = ["direct", "--input", str(path), "--output", str(out)]
        first = run(capsys, *argv)
        first_file = out.read_bytes()
        principal = run(capsys, *argv, "--family", "principal", "--phase-c", "0.3")
        assert principal[0] == 0 and principal[1].startswith("family: principal  phase: 0.3\n")
        assert out.read_bytes() != first_file
        assert run(capsys, *argv) == first
        assert first[1].startswith("family: osculating  phase: 0\n")
        assert out.read_bytes() == first_file


class TestConfigResolution:
    def test_precedence_chain(self, tmp_path, monkeypatch, capsys):
        base = tmp_path / "base.txt"
        base.write_text("# comment line\ncurve = circular_helix\nn = 401\ns-max = 6.0\n")
        override = tmp_path / "override.txt"
        override.write_text("n = 201\n")
        monkeypatch.setenv("FD_CONFIG", str(base))

        code, out, _ = run(capsys, "frenet")
        assert code == 0 and "samples: 401 on [0, 6]" in out
        code, out, _ = run(capsys, "frenet", "--config", str(override))
        assert code == 0 and "samples: 201 on [0, 6]" in out
        code, out, _ = run(capsys, "frenet", "--config", str(override), "--n", "801")
        assert code == 0 and "samples: 801 on [0, 6]" in out

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("mystery = 3\n")
        code, _, err = run(capsys, "frenet", "--curve", "circular_helix", "--config", str(bad))
        assert code == 1
        assert "unknown config key" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "frenet", "--curve", "circular_helix", "--config", "/nonexistent.cfg")
        assert code == 1
        assert "cannot read config" in err

    def test_unparseable_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("n = many\n")
        code, _, err = run(capsys, "frenet", "--curve", "circular_helix", "--config", str(bad))
        assert code == 1
        assert "cannot parse" in err


# one value per option-table key, each different from its default
_SAMPLE = {
    "curve": "helix_12_5",
    "input": "curve.csv",
    "params": "a=2",
    "s_min": "0.5",
    "s_max": "3.5",
    "n": "401",
    "output": "out.csv",
    "format": "json",
    "tol_rel": "0.002",
    "tol_frame": "2e-06",
    "tol_od": "0.03",
    "family": "binormal",
    "phase_c": "0.25",
    "a": "1.5",
    "b": "2.5",
}


def _subparser(command):
    sub = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices[command]


class TestOptionTable:
    def test_every_option_has_a_sample(self):
        assert set(_SAMPLE) == set(_OPTIONS)

    @pytest.mark.parametrize("key", list(_OPTIONS))
    def test_flag_and_config_key_resolve_equally(self, key, tmp_path):
        command = _OPTIONS[key].commands[0]
        parse = _subparser(command).parse_args
        flag = "--" + key.replace("_", "-")
        from_flag = _resolve_config(parse([flag, _SAMPLE[key]]))
        assert from_flag != _resolve_config(parse([]))
        for spelling in (key, key.replace("_", "-")):
            path = tmp_path / "opts.cfg"
            path.write_text(f"{spelling} = {_SAMPLE[key]}\n")
            assert _resolve_config(parse(["--config", str(path)])) == from_flag

    @pytest.mark.parametrize("command", ["frenet", "direct", "classify", "od"])
    def test_parser_exposes_exactly_the_table_flags(self, command):
        flags = {
            s for a in _subparser(command)._actions for s in a.option_strings
        } - {"-h", "--help"}
        expect = {
            "--" + key.replace("_", "-")
            for key, opt in _OPTIONS.items()
            if command in opt.commands
        }
        assert flags == expect | {"--config"}

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("frenet", "--tol-rel", "0.1"),
            ("od", "--tol-rel", "0.1"),
            ("direct", "--tol-frame", "1e-3"),
            ("classify", "--tol-frame", "1e-3"),
            ("od", "--tol-frame", "1e-3"),
            ("frenet", "--tol-od", "0.1"),
            ("direct", "--tol-od", "0.1"),
            ("classify", "--format", "json"),
        ],
    )
    def test_flag_the_command_does_not_read_rejected(self, capsys, command, flag, value):
        code, out, err = run(capsys, command, "--curve", "circular_helix", flag, value)
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {flag} {value}" in err

    def test_config_key_the_command_does_not_read_validated(self, tmp_path, capsys):
        path = tmp_path / "shared.cfg"
        path.write_text("curve = circular_helix\ntol_frame = 1e-3\n")
        assert run(capsys, "classify", "--config", str(path)) == run(
            capsys, "classify", "--curve", "circular_helix"
        )
        path.write_text("curve = circular_helix\ntol_frame = nan\n")
        code, _, err = run(capsys, "classify", "--config", str(path))
        assert code == 1
        assert "error: config key tol_frame must be finite, got nan" in err
        path.write_text("curve = circular_helix\nformat = xml\n")
        code, _, err = run(capsys, "classify", "--config", str(path))
        assert code == 1
        assert "error: config key format must be one of csv, json, got 'xml'" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("format = xml", "--format must be one of csv, json, got 'xml'"),
            ("family = x", "--family must be one of osculating, principal, binormal, got 'x'"),
        ],
    )
    def test_config_choice_rejected(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"curve = circular_helix\n{line}\n")
        code, _, err = run(capsys, "direct", "--config", str(path))
        assert code == 1
        assert message in err


class TestNonFiniteOptions:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("frenet", "--tol-frame", "nan"), "--tol-frame must be finite, got nan"),
            (("direct", "--phase-c", "nan"), "--phase-c must be finite, got nan"),
            (("od", "--a", "nan"), "--a must be finite, got nan"),
            (("frenet", "--s-max", "inf"), "--s-max must be finite, got inf"),
            (("frenet", "--params", "a=nan"), "circular_helix parameter 'a' must be finite"),
        ],
    )
    def test_flag_rejected_naming_it(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--curve", "circular_helix")
        assert code == 1
        assert message in err
        assert out == ""

    def test_grid_ends_whose_distance_overflows_rejected_without_warnings(self):
        # two finite ends, 2e308 apart: the step was inf, and three numpy
        # RuntimeWarnings came before a misleading non-finite point error
        env = dict(os.environ, PYTHONPATH=str(Path(frenetdir.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "frenetdir", "frenet", "--curve", "circular_helix",
             "--s-min=-1e308", "--s-max=1e308", "--n", "9"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 1
        assert proc.stderr == ("error: grid ends must be finite and a finite distance apart, "
                               "got [-1e+308, 1e+308]\n")
        assert proc.stdout == ""

    def test_config_value_rejected_naming_the_flag(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text("curve = circular_helix\ntol_od = nan\n")
        code, _, err = run(capsys, "od", "--config", str(path))
        assert code == 1
        assert "--tol-od must be finite" in err

    def test_verify_tol_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--only", "constants", "--tol", "nan")
        assert code == 1
        assert "tol must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_run_checks_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            run_checks(only="constants", tol=tol)


class TestFrenet:
    def test_constant_curvature_summary(self, capsys):
        code, out, _ = run(capsys, "frenet", "--curve", "helix_12_5")
        assert code == 0
        assert "kappa: mean=0.0710059" in out
        assert "tau:   mean=0.0295858" in out
        assert "ok" in out

    def test_frame_line_reports_verify_frame(self, capsys):
        code, out, _ = run(capsys, "frenet", "--curve", "circular_helix")
        worst = frenetdir.verify_frame(frenetdir.frenet_apparatus(frenetdir.evaluate_catalog("circular_helix"))).worst
        assert code == 0
        line = next(x for x in out.splitlines() if x.startswith("frame orthonormality"))
        assert line == f"frame orthonormality: max deviation {worst:.3e} (tol 1e-06) ok"
        assert float(line.split()[4]) == float(f"{worst:.3e}")

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "frenet")
        assert code == 1 and "exactly one of" in err
        code, _, err = run(
            capsys, "frenet", "--curve", "circular_helix", "--input", "x.csv"
        )
        assert code == 1 and "exactly one of" in err

    def test_unknown_curve(self, capsys):
        code, _, err = run(capsys, "frenet", "--curve", "trefoil")
        assert code == 1
        assert "unknown catalog curve" in err

    def test_short_csv_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("s,x,y,z\n0,0,0,0\n0.1,0.1,0,0\n0.2,0.2,0,0\n0.3,0.3,0,0\n")
        code, _, err = run(capsys, "frenet", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["frenet", "classify"])
    def test_non_finite_csv_is_domain_error(self, tmp_path, capsys, command):
        path = tmp_path / "line.csv"
        write_line_csv(path)
        lines = path.read_text().splitlines()
        lines[101] = "1,nan,0,0"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, command, "--input", str(path))
        assert code == 2
        assert "line 102: non-finite field" in err

    def test_csv_output_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("frenet", "--curve", "circular_helix", "--n", "201")
        assert run(capsys, *args, "--output", str(a))[0] == 0
        assert run(capsys, *args, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "s,Tx,Ty,Tz,Nx,Ny,Nz,Bx,By,Bz,kappa,tau,valid"

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        code, _, _ = run(
            capsys, "frenet", "--curve", "circular_helix", "--n", "201",
            "--output", str(path), "--format", "json",
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"s", "T", "N", "B", "kappa", "tau", "valid"}
        assert len(payload["kappa"]) == 201


class TestDirect:
    def test_checks_pass_for_unit_helix(self, capsys):
        code, out, _ = run(
            capsys, "direct", "--curve", "circular_helix",
            "--phase-c", str(np.pi / 4),
        )
        assert code == 0
        assert "alignment: min 1.000000 (pass)" in out
        assert "agreement" in out and "FAIL" not in out
        assert "sigma: mean=1 " in out

    def test_sigma_reported_for_slope_helix(self, capsys):
        code, out, _ = run(
            capsys, "direct", "--curve", "helix_12_5", "--phase-c", "0.11"
        )
        assert code == 0
        assert "sigma: mean=2.4 " in out
        assert "constant=yes" in out

    def test_principal_family_on_line_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        write_line_csv(path)
        code, _, err = run(
            capsys, "direct", "--input", str(path), "--family", "principal"
        )
        assert code == 2
        assert "curvature below floor" in err

    def test_vacuous_alignment_says_no_rows_checked(self, tmp_path, capsys):
        # the principal direction curve of a circular helix is a plane
        # circle, whose osculating direction curve at phase 0 is straight:
        # no row has a normal to hold against the donor binormal
        path = tmp_path / "x.csv"
        code, _, _ = run(
            capsys, "direct", "--curve", "helix_12_5", "--family", "principal",
            "--output", str(path),
        )
        assert code == 0
        code, out, err = run(capsys, "direct", "--input", str(path))
        assert "normal/binormal alignment: no rows checked\n" in out
        assert "nan" not in out
        assert code == 2
        assert "slant_helix_test: no usable samples" in err

    def test_binormal_family_writes_curve(self, tmp_path, capsys):
        path = tmp_path / "b.csv"
        code, out, _ = run(
            capsys, "direct", "--curve", "circular_helix", "--family", "binormal",
            "--output", str(path),
        )
        assert code == 0
        assert path.read_text().splitlines()[0] == "s,x,y,z"
        assert "speed deviation" in out

    def test_json_output_reports_unit_speed(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        code, _, _ = run(
            capsys, "direct", "--curve", "circular_helix", "--format", "json",
            "--output", str(path),
        )
        assert code == 0
        assert json.loads(path.read_text())["unit_speed"] is True


class TestClassify:
    def test_general_helix_verdict(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--curve", "root_curve",
            "--s-min", "0.05", "--s-max", "0.95",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["is_general_helix"] is True
        assert abs(payload["helix_ratio"]["mean"] - 1.0) < 1e-3

    def test_line_csv(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        write_line_csv(path)
        code, out, _ = run(capsys, "classify", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["is_line"] is True
        assert payload["helix_ratio"] is None

    def test_explicit_csv_format_rejected(self, capsys):
        code, _, err = run(
            capsys, "classify", "--curve", "circular_helix", "--format", "csv"
        )
        assert code == 1
        assert "unrecognized arguments" in err

    def test_companion_curve_not_rectifying(self, tmp_path, capsys):
        # the constant-curvature donor violates the matched-profile
        # condition, so its companion leaves the rectifying plane; the
        # verdict states what is measured
        od_path = tmp_path / "od.csv"
        code, _, _ = run(
            capsys, "od", "--curve", "helix_12_5", "--s-max", "12",
            "--output", str(od_path),
        )
        assert code == 0
        code, out, _ = run(capsys, "classify", "--input", str(od_path))
        assert code == 0
        assert json.loads(out)["is_rectifying"] is False

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        code, out, _ = run(
            capsys, "classify", "--curve", "circular_helix", "--output", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["is_general_helix"] is True


class TestOd:
    def test_zero_a_usage_error(self, capsys):
        code, _, err = run(capsys, "od", "--curve", "circular_helix", "--a", "0")
        assert code == 1
        assert "nonzero" in err

    def test_report_states_measured_failure(self, capsys):
        code, out, _ = run(capsys, "od", "--curve", "helix_12_5")
        assert code == 0
        assert "unit speed: no" in out
        assert "all checks passed: no" in out

    def test_grid_shifted_to_zero(self, tmp_path, capsys):
        path = tmp_path / "od.csv"
        code, _, _ = run(
            capsys, "od", "--curve", "circular_helix", "--s-min", "2.0",
            "--s-max", "8.0", "--output", str(path),
        )
        assert code == 0
        first = path.read_text().splitlines()[1]
        assert first.split(",")[0] == "0"

    def test_output_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("od", "--curve", "helix_12_5", "--s-max", "12")
        assert run(capsys, *args, "--output", str(a))[0] == 0
        assert run(capsys, *args, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_output_reports_measured_speed(self, tmp_path, capsys):
        # the generic donor gives a companion far from unit speed; the file
        # flag agrees with the printed deviation
        path = tmp_path / "od.json"
        code, out, _ = run(
            capsys, "od", "--curve", "circular_helix", "--format", "json",
            "--output", str(path),
        )
        assert code == 0
        assert "unit speed: no (max deviation 5.852e+00)" in out
        assert json.loads(path.read_text())["unit_speed"] is False


class TestVerify:
    def test_single_row_filter(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--only", "thm3.4", "--curve", "helix_12_5"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("thm")]
        assert len(lines) == 1
        assert "pass" in lines[0]
        assert "1/1 checks passed" in out

    def test_default_run_reports_known_failures(self, capsys):
        # two construction defects leave three red rows; everything else
        # in the table passes and the exit code reflects the failures
        code, out, _ = run(capsys, "verify")
        assert code == 3
        failing = {
            tuple(line.split()[:2])
            for line in out.splitlines()
            if line.endswith("FAIL")
        }
        assert failing == {
            ("thm4.1", "spherical_helix"),
            ("thm4.4", "root_curve"),
            ("thm4.4", "helix_12_5"),
        }
        assert "18/21 checks passed" in out

    def test_tightened_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "constants", "--tol", "1e-9")
        assert code == 3
        assert "0/2 checks passed" in out

    def test_each_curve_built_once_per_grid(self, monkeypatch):
        built = []

        def counted(name, parameters=None, grid=None):
            built.append((name, grid))
            return evaluate_catalog(name, parameters, grid)

        monkeypatch.setattr(verify_module, "evaluate_catalog", counted)
        run_checks()
        assert all(grid is not None for _, grid in built)
        assert len(built) == len(set(built))

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "thm9.9")
        assert code == 1
        assert "unknown check" in err

    def test_unknown_curve_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--curve", "trefoil")
        assert code == 1
        assert "no rows for curve" in err


class TestCsvInput:
    """x,y,z files go through the same path as catalog curves: the Frenet
    data is computed on the sample index, with no resampling."""

    @pytest.mark.parametrize("command", CURVE_COMMANDS)
    def test_missing_input_file(self, tmp_path, capsys, command):
        path = tmp_path / "absent.csv"
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: cannot read input file {path}: No such file or directory\n"

    @pytest.mark.parametrize("command", CURVE_COMMANDS)
    def test_undecodable_bytes_are_domain_error(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.csv"
        write_line_csv(path, n=11)
        lines = path.read_bytes().split(b"\n")
        lines[5] = lines[5].replace(b",0,0", b",0,caf\xe9")
        path.write_bytes(b"\n".join(lines))
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: line 6: not UTF-8 text\n"

    @pytest.mark.parametrize("command", CURVE_COMMANDS)
    def test_byte_order_mark_reads_as_without(self, tmp_path, capsys, command):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_xyz_csv(plain, warped_helix(*WARPED_HELICES[0])[0])
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        expect = run(capsys, command, "--input", str(plain))
        assert expect[0] == 0
        assert run(capsys, command, "--input", str(marked)) == expect

    @pytest.mark.parametrize("command", CURVE_COMMANDS)
    def test_repeated_samples_are_degenerate(self, tmp_path, capsys, command):
        pts = warped_helix(*WARPED_HELICES[3])[0]
        pts[200:205] = pts[200]
        path = tmp_path / "stalled.csv"
        write_xyz_csv(path, pts)
        code, _, err = run(capsys, command, "--input", str(path))
        assert code == 2
        assert err.startswith("error: degenerate curve: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value", [("--params", "a=2"), ("--s-min", "5"), ("--s-max", "1"), ("--n", "401")]
    )
    def test_catalog_flag_rejected(self, tmp_path, capsys, flag, value):
        # the file brings its own samples: a grid or parameter flag would
        # be silently ignored
        path = tmp_path / "line.csv"
        write_line_csv(path)
        code, out, err = run(capsys, "frenet", "--input", str(path), flag, value)
        assert code == 1
        assert out == ""
        assert err == f"error: {flag} only applies to catalog curves\n"

    def test_config_file_n_rejected(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        write_line_csv(path)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("n = 401\n")
        code, out, err = run(capsys, "frenet", "--input", str(path), "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err == "error: --n only applies to catalog curves\n"

    def test_warped_helix_direct_agreement_passes(self, tmp_path, capsys):
        path = tmp_path / "warped.csv"
        write_xyz_csv(path, warped_helix(*WARPED_HELICES[0])[0])
        code, out, _ = run(capsys, "direct", "--input", str(path))
        assert code == 0
        line = next(x for x in out.splitlines() if x.startswith("predicted curvature/torsion"))
        assert line.endswith("(pass)")

    def test_curve_commands_do_not_import_scipy(self, tmp_path):
        path = tmp_path / "warped.csv"
        write_xyz_csv(path, warped_helix(*WARPED_HELICES[3])[0])
        out = tmp_path / "out.csv"
        code = (
            "import contextlib, io, sys\n"
            "from frenetdir.cli import main\n"
            "codes = []\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    for cmd in {CURVE_COMMANDS!r}:\n"
            f"        codes.append(main([cmd, '--input', {str(path)!r}]\n"
            f"                          + ([] if cmd == 'classify' else ['--output', {str(out)!r}])))\n"
            "    codes.append(main(['verify']))\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(frenetdir.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0, 3] []"
