"""Record the correctness reference of every op the benchmark can draw.

Run from the root of a checkout, at the commit whose outputs are the
reference::

    python3 perfbench/record_reference.py

It runs each catalogue op of every workload once, requires exit code 0,
and writes the checked outputs to ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"  # as in a benchmark run, before numpy is imported
    sys.path.insert(0, str(run.SRC))
    import ops

    workdir = run.ROOT / ".perfbench_work" / "reference"
    runner = ops.Runner(workdir)
    records = {}
    try:
        for workload in ops.WORKLOADS:
            for op in ops.catalogue(workload):
                res = runner.run(op)
                if res.exit_code != 0:
                    print(f"{op.key}: exit code {res.exit_code}", file=sys.stderr)
                    return 1
                records[op.key] = {"exit_code": res.exit_code, "outputs": res.outputs}
                print(f"{res.seconds:7.3f}s {workload} {op.kind}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    commit = subprocess.run(
        ["git", "-C", str(run.ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    body = {"recorded_at": commit, "atol": ops.ATOL, "rtol": ops.RTOL, "ops": records}
    ops.REFERENCE_PATH.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {ops.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
