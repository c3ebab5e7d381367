"""The benchmark's trace table names library functions; each must resolve.

perfbench/spans.py wraps every SPAN_OF name it finds on the frenetdir
package, so a renamed or deleted function breaks traced benchmark runs.
The module is loaded from its file, read-only (no bytecode is written next
to it), without running anything of the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import frenetdir

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(spans)
    finally:
        sys.dont_write_bytecode = saved
    assert spans.SPAN_OF
    missing = sorted(
        name for name in spans.SPAN_OF
        if name not in frenetdir.__all__ or not callable(getattr(frenetdir, name, None))
    )
    assert missing == []
