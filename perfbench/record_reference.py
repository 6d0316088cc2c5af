"""Record ``reference.json``: output summaries of the first ops of every workload.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs ops 0..REFERENCE_OPS-1 of each workload with the default seed, checks
their invariants and stores their summaries.  The benchmark compares runs
with the default seed against this file (integers exactly, floats to the
tolerance in ``workloads.py``), which pins the random streams and the
numerical outputs from outside the package.  Re-record only for a change
that is declared to alter outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from workloads import DEFAULT_SEED, WORKLOADS

REFERENCE_OPS = 12

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    reference = {}
    for wl in WORKLOADS.values():
        records = []
        for i in range(REFERENCE_OPS):
            spec = wl.spec(DEFAULT_SEED, i)
            workdir = tempfile.mkdtemp(dir=HERE)
            try:
                out = wl.run(spec, workdir)
                bad = wl.check(spec, out, workdir, None)
                if bad:
                    raise SystemExit(f"{wl.name} op {i}: {bad}")
                records.append(wl.summary(spec, out, workdir))
            finally:
                shutil.rmtree(workdir)
        reference[wl.name] = json.loads(json.dumps(records))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
