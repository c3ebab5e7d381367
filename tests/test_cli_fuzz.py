"""The four curve commands on generated CSV files.

Each file starts as a sampled helix, line or noise cloud, with or without an
s column, at an odd or even row count, and then takes one defect: a stalled
run of repeated points, a non-numeric or non-finite field, or a duplicate,
decreasing or non-uniform s column.  Whatever the file, a command must end
in a stable exit code with either nothing or one `error:` line on stderr:
no traceback and no numpy warning.
"""

import contextlib
import io
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frenetdir.cli import main

COMMANDS = ("frenet", "direct", "classify", "od")

# clean files are listed three times so that every command also runs to
# the end often
DEFECTS = (
    "none",
    "none",
    "none",
    "stall",
    "all_equal",
    "non_numeric",
    "non_finite",
    "duplicate_s",
    "decreasing_s",
    "non_uniform_s",
)


@st.composite
def csv_files(draw):
    # odd and even counts alike; a few below the nine-sample minimum
    n = draw(st.integers(min_value=6, max_value=61))
    t = np.linspace(0.0, draw(st.floats(0.5, 12.0)), n)
    shape = draw(st.sampled_from(("helix", "line", "noise")))
    if shape == "helix":
        a, b = draw(st.floats(0.1, 3.0)), draw(st.floats(-2.0, 2.0))
        pts = np.stack([a * np.cos(t), a * np.sin(t), b * t], axis=1)
    elif shape == "line":
        pts = np.outer(t, [1.0, -2.0, 0.5])
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pts = rng.uniform(-5.0, 5.0, size=(n, 3))
    s = t.copy()

    defect = draw(st.sampled_from(DEFECTS))
    i = draw(st.integers(0, n - 2))
    if defect == "stall":
        pts[i:i + draw(st.integers(2, 6))] = pts[i]
    elif defect == "all_equal":
        pts[:] = pts[0]
    elif defect == "duplicate_s":
        s[i + 1] = s[i]
    elif defect == "decreasing_s":
        s = s[::-1].copy() if draw(st.booleans()) else np.where(np.arange(n) == i, s[i + 1] + 1.0, s)
    elif defect == "non_uniform_s":
        s = np.cumsum(draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n)))

    has_s = defect in ("duplicate_s", "decreasing_s", "non_uniform_s") or draw(st.booleans())
    rows = [["%.17g" % v for v in row] for row in (np.column_stack([s, pts]) if has_s else pts)]
    if defect == "non_numeric":
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(("", "abc", "1e", "1,5")))
    elif defect == "non_finite":
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(("nan", "inf", "-inf", "Infinity")))
    header = "s,x,y,z" if has_s else "x,y,z"
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=60, deadline=None)
@given(text=csv_files())
def test_curve_commands_fail_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in COMMANDS:
            argv = [command, "--input", path]
            if command != "classify":
                argv += ["--output", os.path.join(tmp, f"{command}.out")]
            code, err, caught = run_quietly(argv)
            assert code in (0, 1, 2, 3), (command, code)
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (command, err)
            assert caught == [], (command, caught)
