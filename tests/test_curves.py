import codecs
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frenetdir
from frenetdir import curves, direction, od
from frenetdir.curves import (
    CurveSamples,
    arclength_reparametrize,
    catalog_entry,
    catalog_names,
    default_grid,
    evaluate_catalog,
    load_csv,
    save_csv,
)
from frenetdir.direction import (
    direction_field,
    integrate_direction_curve,
    osculating_coefficients,
    osculating_direction_curve,
    principal_direction_curve,
)
from frenetdir.errors import DomainError
from frenetdir.frenet import UNIT_SPEED_TOL, frenet_apparatus, unit_speed_deviation
from frenetdir.numerics import VectorSamples, uniform_grid
from frenetdir.od import ODParameters, od_osculating_curve


class TestCatalogEntries:
    def test_names(self):
        assert catalog_names() == ["circular_helix", "helix_12_5", "root_curve", "spherical_helix"]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown catalog curve"):
            catalog_entry("trefoil")

    def test_defaults_merged(self):
        e = catalog_entry("circular_helix")
        assert e.parameters == {"a": 1.0, "b": 1.0, "scale": 1.0}
        e2 = catalog_entry("circular_helix", {"a": 12.0, "b": 5.0})
        assert e2.parameters["a"] == 12.0
        assert e2.parameters["scale"] == 1.0

    def test_unexpected_parameter(self):
        with pytest.raises(ValueError, match="radius"):
            catalog_entry("circular_helix", {"radius": 2.0})
        with pytest.raises(ValueError, match="does not take"):
            catalog_entry("root_curve", {"a": 1.0})

    def test_invalid_parameter_values(self):
        with pytest.raises(ValueError):
            catalog_entry("circular_helix", {"a": -1.0})
        with pytest.raises(ValueError):
            catalog_entry("spherical_helix", {"c": 0.0})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_named(self, value):
        with pytest.raises(ValueError, match="parameter 'a' must be finite"):
            catalog_entry("circular_helix", {"a": value})

    def test_spherical_domain_scales_with_c(self):
        e = catalog_entry("spherical_helix", {"c": 2.0})
        assert e.domain[1] == pytest.approx(np.cos(1e-2) / 2.0)
        assert e.domain[0] == -e.domain[1]

    def test_root_domain_clamped(self):
        e = catalog_entry("root_curve")
        assert e.domain == (1e-3, 1.0 - 1e-3)


class TestEvaluateCatalog:
    def test_circular_helix_start_point(self):
        c = evaluate_catalog("circular_helix", grid=uniform_grid(0.0, 4 * np.pi, 101))
        assert np.allclose(c.points[0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_circular_helix_closed_form(self):
        g = uniform_grid(0.0, 4 * np.pi, 101)
        c = evaluate_catalog("circular_helix", grid=g)
        r = np.sqrt(2.0)
        expect = np.stack(
            [np.cos(g.values / r), np.sin(g.values / r), g.values / r], axis=1
        )
        assert np.allclose(c.points, expect, atol=1e-14)

    def test_helix_12_5_start_point(self):
        c = evaluate_catalog("helix_12_5", grid=uniform_grid(0.0, 169.0, 101))
        assert np.allclose(c.points[0], [12.0, 0.0, 0.0], atol=1e-15)

    def test_root_curve_midpoint(self):
        g = uniform_grid(0.25, 0.75, 9)
        c = evaluate_catalog("root_curve", grid=g)
        v = (np.sqrt(2.0) / 3.0) * 0.5**1.5
        assert np.allclose(c.points[4], [v, v, np.sqrt(2.0) / 4.0], atol=1e-15)

    def test_default_grid_spans_domain(self):
        c = evaluate_catalog("helix_12_5")
        assert c.grid.n == 2001
        assert c.grid.s_min == 0.0
        assert c.grid.s_max == 169.0

    def test_domain_violation_names_bound(self):
        with pytest.raises(DomainError, match="0.999"):
            evaluate_catalog("root_curve", grid=uniform_grid(0.5, 1.0, 9))
        with pytest.raises(DomainError, match="s_min"):
            evaluate_catalog("root_curve", grid=uniform_grid(0.0, 0.5, 9))
        with pytest.raises(DomainError):
            evaluate_catalog("spherical_helix", grid=uniform_grid(-0.6, 0.0, 9))

    @pytest.mark.parametrize("name", ["circular_helix", "helix_12_5", "root_curve", "spherical_helix"])
    def test_unit_speed_on_default_domain(self, name):
        c = evaluate_catalog(name, grid=default_grid(catalog_entry(name)))
        assert unit_speed_deviation(frenet_apparatus(c)) < 1e-4

    def test_spherical_lies_on_a_sphere(self):
        # the trace sits on a sphere centered at the origin
        c = evaluate_catalog("spherical_helix")
        r = np.linalg.norm(c.points, axis=1)
        assert np.max(np.abs(r - r[0])) < 1e-12


class TestPointsCopy:
    def test_points_are_a_read_only_copy(self):
        g = uniform_grid(0.0, 1.0, 9)
        pts = np.stack([g.values, g.values**2, g.values**3], axis=1)
        c = CurveSamples(g, pts)
        assert c.points is not pts
        assert not c.points.flags.writeable
        assert pts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            c.points[0, 0] = 1.0

    def test_later_writes_to_the_source_do_not_reach_the_curve(self):
        g = uniform_grid(0.0, 1.0, 9)
        pts = np.stack([g.values, g.values**2, g.values**3], axis=1)
        c = CurveSamples(g, pts)
        kept = pts.copy()
        pts[4] = np.nan
        assert np.array_equal(c.points, kept)


def _non_finite_builds():
    """Builder calls whose points hold a non-finite value, with the module
    whose _built_curve they call."""
    f = frenet_apparatus(evaluate_catalog("circular_helix"))
    wide = uniform_grid(0.0, 1.6e308, 9)
    return {
        "evaluate_catalog": (curves, lambda: evaluate_catalog(
            "circular_helix", {"a": 1e300, "scale": 1e300}, uniform_grid(0.0, 1.0, 9))),
        # a finite step whose quadrature panels overflow
        "integrate_direction_curve": (direction, lambda: integrate_direction_curve(
            VectorSamples(wide, np.tile([1.0, 0.0, 0.0], (9, 1))))),
        "od_osculating_curve": (od, lambda: od_osculating_curve(
            f, ODParameters(1.7e308, 1.7e308, 0.3))),
    }


class TestBuiltCurves:
    """A curve the library builds keeps the array it was built in, with
    the checks and the read-only points of the copying constructor."""

    def test_built_points_are_read_only_and_c_ordered(self):
        c = evaluate_catalog("circular_helix")
        f = frenet_apparatus(c)
        built = [c, osculating_direction_curve(f, 0.3), principal_direction_curve(f),
                 integrate_direction_curve(direction_field(f, osculating_coefficients(f, 0.3))),
                 od_osculating_curve(f, ODParameters(1.0, 1.0, 0.3)),
                 arclength_reparametrize(c, 101)]
        for b in built:
            assert not b.points.flags.writeable
            assert b.points.flags.c_contiguous and b.points.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                b.points[0, 0] = 1.0

    def test_catalog_curve_keeps_the_evaluated_array(self, monkeypatch):
        g = uniform_grid(0.0, 1.0, 9)
        pts = np.stack([g.values, g.values**2, g.values**3], axis=1)
        monkeypatch.setitem(curves._CATALOG["helix_12_5"], "points", lambda params, s: pts)
        assert evaluate_catalog("helix_12_5", grid=g).points is pts

    def test_direction_curve_keeps_the_integral(self, monkeypatch):
        f = frenet_apparatus(evaluate_catalog("circular_helix"))
        made, cumulative = [], direction._cumulative

        def integral(*args):
            made.append(cumulative(*args))
            return made[-1]

        monkeypatch.setattr(direction, "_cumulative", integral)
        assert principal_direction_curve(f).points is made[-1]
        assert integrate_direction_curve(VectorSamples(f.grid, f.T)).points is made[-1]

    @pytest.mark.parametrize("builder", ["evaluate_catalog", "integrate_direction_curve",
                                         "od_osculating_curve"])
    def test_non_finite_point_raises_as_the_copying_constructor(self, builder, monkeypatch):
        module, build = _non_finite_builds()[builder]
        with np.errstate(all="ignore"):
            with pytest.raises(DomainError, match="non-finite point at sample") as kept:
                build()
            monkeypatch.setattr(module, "_built_curve", CurveSamples)
            with pytest.raises(DomainError) as copied:
                build()
        assert str(kept.value) == str(copied.value)


class TestCsvRoundTrip:
    def test_round_trip_bit_identical(self, tmp_path):
        # an even row count loads onto a grid of that many samples
        for grid in (uniform_grid(0.0, 4 * np.pi, 201), uniform_grid(0.0, 1.0, 10)):
            c = evaluate_catalog("circular_helix", grid=grid)
            p = tmp_path / f"helix_{grid.n}.csv"
            save_csv(c, p)
            back = load_csv(p)
            assert back.grid == c.grid
            assert np.array_equal(back.points, c.points)
            assert unit_speed_deviation(frenet_apparatus(back)) <= UNIT_SPEED_TOL

    def test_file_line_count(self, tmp_path):
        c = evaluate_catalog("circular_helix", grid=uniform_grid(0.0, 1.0, 9))
        p = tmp_path / "tiny.csv"
        save_csv(c, p)
        lines = p.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "s,x,y,z"
        assert len([ln for ln in lines if ln]) == 10

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("s,x,y,z\n" + "".join(f"{i},1,2,3\n" for i in range(4)), encoding="utf-8")
        with pytest.raises(DomainError, match="fewer than 9"):
            load_csv(p)

    def test_malformed_row_reports_line(self, tmp_path):
        rows = [f"{i},1,2,3" for i in range(9)]
        rows[4] = "4,1,oops,3"
        p = tmp_path / "bad.csv"
        p.write_text("s,x,y,z\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(DomainError, match="line 6"):
            load_csv(p)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_field_reports_first_line(self, tmp_path, field):
        rows = [f"{i},1,2,3" for i in range(9)]
        rows[2] = f"2,1,{field},3"
        rows[6] = f"{field},1,2,3"
        p = tmp_path / "nonfinite.csv"
        p.write_text("s,x,y,z\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(DomainError, match="line 4: non-finite"):
            load_csv(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_samples_name_first_non_finite_point(self, value):
        g = uniform_grid(0.0, 8.0, 9)
        pts = np.zeros((9, 3))
        pts[5, 2] = value
        pts[7, 0] = value
        with pytest.raises(DomainError, match=r"sample 5 \(s=5\)"):
            CurveSamples(g, pts)

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_bytes_name_the_line(self, tmp_path, eol):
        p = tmp_path / "latin1.csv"
        rows = "".join(f"{i},0,0{eol}" for i in range(9)).encode()
        p.write_bytes(f"x,y,z{eol}".encode() + rows + f"1,caf\xe9,2{eol}".encode("latin-1") + rows)
        with pytest.raises(DomainError, match="line 11: not UTF-8 text"):
            load_csv(p)

    @pytest.mark.parametrize("header", ["x,y,z", "s,x,y,z"])
    def test_byte_order_mark_is_skipped(self, tmp_path, header):
        c = evaluate_catalog("circular_helix", grid=uniform_grid(0.5, 2.5, 9))
        rows = c.points if header == "x,y,z" else np.column_stack([c.grid.values, c.points])
        text = header + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        a, b = load_csv(plain), load_csv(marked)
        assert b.grid == a.grid
        assert np.array_equal(b.points, a.points)

    def test_byte_order_mark_leaves_the_undecodable_line(self, tmp_path):
        # the bad byte opens its line: counted from after the mark, its
        # position would fall inside line 10
        p = tmp_path / "marked_latin1.csv"
        rows = "".join(f"{i},0,0\n" for i in range(9)).encode()
        p.write_bytes(codecs.BOM_UTF8 + b"x,y,z\n" + rows + b"\xe9,1,2\n" + rows)
        with pytest.raises(DomainError, match="line 11: not UTF-8 text"):
            load_csv(p)

    @pytest.mark.parametrize(
        "faults, message",
        [
            ({5: "4,oops,3", 9: "1,2"}, "line 5: non-numeric field"),
            ({5: "1,2", 9: "4,oops,3"}, "line 5: expected 3 fields, got 2"),
            # finiteness is checked once every field has converted
            ({4: "nan,1,2", 8: "4,oops,3"}, "line 8: non-numeric field"),
            # an undecodable line is a fault in its place, too
            ({4: "1,2", 7: "caf\xe9,1,2"}, "line 4: expected 3 fields, got 2"),
            ({4: "caf\xe9,1,2", 7: "1,2"}, "line 4: not UTF-8 text"),
        ],
    )
    def test_first_fault_in_file_order(self, tmp_path, faults, message):
        # line 3 is blank and still counts
        lines = ["x,y,z", "0,0,0", ""] + [f"{i},0,0" for i in range(1, 12)]
        for lineno, text in faults.items():
            lines[lineno - 1] = text
        p = tmp_path / "faults.csv"
        p.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        with pytest.raises(DomainError, match=message):
            load_csv(p)

    @pytest.mark.parametrize(
        "body",
        [
            "".join(f"{i}_000,1_0,0\n" for i in range(9)),
            "".join(f" {i} ,\t{i * i}\t, -{i}e-3 \n" for i in range(9)),
            "".join(f'"{i}","{i}.5",0\n' for i in range(9)),
            "".join(f"{i},{i},-0\n\n" for i in range(9)),
            "\n".join(f"{i},٣,{i}" for i in range(11)) + "\r\n",
        ],
        ids=["underscores", "padded", "quoted", "blank-lines", "unicode-digit"],
    )
    def test_fields_read_as_float_reads_them(self, tmp_path, body):
        p = tmp_path / "spellings.csv"
        p.write_text("x,y,z\n" + body, encoding="utf-8")
        rows = [row for row in csv.reader(io.StringIO(body, newline="")) if row]
        expected = np.array([[float(v) for v in row] for row in rows])
        c = load_csv(p)
        assert np.array_equal(c.points, expected)
        assert np.signbit(c.points).tolist() == np.signbit(expected).tolist()
        assert c.grid == uniform_grid(0.0, len(rows) - 1.0, len(rows))

    def test_quoted_s_column_sets_the_grid(self, tmp_path):
        p = tmp_path / "quoted.csv"
        body = "".join(f'"{0.25 * i}", {i} ,0,"1_0"\n\n' for i in range(9))
        p.write_text("s,x,y,z\n" + body, encoding="utf-8")
        c = load_csv(p)
        assert c.grid == uniform_grid(0.0, 2.0, 9)
        assert np.array_equal(c.points[:, 0], np.arange(9.0))
        assert np.all(c.points[:, 2] == 10.0)

    def test_xyz_only_is_not_unit_speed(self, tmp_path):
        p = tmp_path / "xyz.csv"
        p.write_text("x,y,z\n" + "".join(f"{i},0,0\n" for i in range(9)), encoding="utf-8")
        c = load_csv(p)
        # without an s column the parameter is the row index, whatever the
        # spacing of the points
        assert c.grid.s_min == 0.0 and c.grid.s_max == 8.0

    def test_non_monotone_s_rejected(self, tmp_path):
        s = [0, 1, 2, 3, 2.5, 5, 6, 7, 8]
        p = tmp_path / "mono.csv"
        p.write_text("s,x,y,z\n" + "".join(f"{v},1,2,3\n" for v in s), encoding="utf-8")
        with pytest.raises(DomainError, match="increasing"):
            load_csv(p)

    def test_nonuniform_s_falls_back_to_index_grid(self, tmp_path):
        s = [0, 1, 2, 3, 4.5, 6, 7, 8, 9]
        p = tmp_path / "nonuni.csv"
        p.write_text("s,x,y,z\n" + "".join(f"{v},{v},0,0\n" for v in s), encoding="utf-8")
        c = load_csv(p)
        assert unit_speed_deviation(frenet_apparatus(c)) > UNIT_SPEED_TOL
        assert c.grid.s_max == 8.0


class TestArclengthReparametrize:
    def test_unit_speed_curve_is_fixed_point(self):
        c = evaluate_catalog("circular_helix", grid=uniform_grid(0.0, 4 * np.pi, 401))
        r = arclength_reparametrize(c, 401)
        assert unit_speed_deviation(frenet_apparatus(r)) <= UNIT_SPEED_TOL
        assert np.max(np.abs(r.points - c.points)) < 1e-6

    def test_straight_segment(self):
        g = uniform_grid(0.0, 1.0, 51)
        pts = np.stack([2 * g.values, np.zeros(51), np.zeros(51)], axis=1)
        for n_out in (51, 100):
            r = arclength_reparametrize(CurveSamples(g, pts), n_out)
            assert r.grid.n == n_out
            assert r.grid.s_min == 0.0
            assert r.grid.s_max == pytest.approx(2.0, abs=1e-12)
            assert np.allclose(r.points[:, 0], r.grid.values, atol=1e-10)

    def test_circle_length(self):
        g = uniform_grid(0.0, 2 * np.pi, 2001)
        pts = np.stack([np.cos(g.values), np.sin(g.values), np.zeros(2001)], axis=1)
        r = arclength_reparametrize(CurveSamples(g, pts), 1001)
        assert r.grid.s_max == pytest.approx(2 * np.pi, abs=1e-8)

    def test_non_unit_parametrization_recovered(self):
        # quadratically stretched helix parameter; output must be unit speed
        g = uniform_grid(0.0, 1.0, 801)
        t = g.values**2 * 4 * np.pi + 0.3 * g.values
        r2 = np.sqrt(2.0)
        pts = np.stack([np.cos(t / r2), np.sin(t / r2), t / r2], axis=1)
        r = arclength_reparametrize(CurveSamples(g, pts), 801)
        assert unit_speed_deviation(frenet_apparatus(r)) < 1e-4

    def test_idempotent(self):
        g = uniform_grid(0.0, 1.0, 401)
        t = g.values**2 * 4 * np.pi + 0.3 * g.values
        r2 = np.sqrt(2.0)
        pts = np.stack([np.cos(t / r2), np.sin(t / r2), t / r2], axis=1)
        once = arclength_reparametrize(CurveSamples(g, pts), 401)
        twice = arclength_reparametrize(once, 401)
        assert np.max(np.abs(twice.points - once.points)) < 1e-6

    def test_degenerate_speed_rejected(self):
        g = uniform_grid(-1.0, 1.0, 101)
        pts = np.stack([g.values**3, np.zeros(101), np.zeros(101)], axis=1)
        with pytest.raises(DomainError, match="floor"):
            arclength_reparametrize(CurveSamples(g, pts), 101)


def test_numerical_speed_of_catalog_curves_near_one():
    for name in catalog_names():
        c = evaluate_catalog(name)
        sp = frenet_apparatus(c).speed[c.grid.interior()]
        assert np.max(np.abs(sp - 1.0)) < 1e-4, name


def test_import_does_not_load_scipy():
    # scipy is imported on first arclength_reparametrize call, not on import
    env = dict(os.environ, PYTHONPATH=str(Path(frenetdir.__file__).parents[1]))
    code = "import sys, frenetdir; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
