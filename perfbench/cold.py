"""Child process of the benchmark: time a fresh interpreter's import of
frenetdir and its first operation.

    python3 perfbench/cold.py ROOT WORKLOAD SEED TINY WORKDIR

Prints one JSON object: `import_done` on the time.monotonic() clock, which
the parent shares, and `first_op_s`, the duration of the workload's first
operation.  Generating that operation's input is not timed.
"""

import os
import sys
import time


def main():
    root, workload, seed, tiny, workdir = sys.argv[1:6]
    sys.path.insert(0, os.path.join(root, "src"))
    import frenetdir  # noqa: F401  (the import being timed)

    import_done = time.monotonic()
    import json

    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads

    spec = workloads.make_inputs(workload, int(seed), workdir, tiny == "1")[0]
    op = workloads.operation(workload)
    t0 = time.monotonic()
    op(spec)
    first_op_s = time.monotonic() - t0
    print(json.dumps({"import_done": import_done, "first_op_s": first_op_s}))


if __name__ == "__main__":
    main()
