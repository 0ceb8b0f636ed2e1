"""Regenerate ``expected.json``: the frozen results of the first
``FROZEN_PASSES`` passes of every sweep workload at ``workloads.DEFAULT_SEED``.

    PYTHONPATH=src python3 perfbench/freeze.py

Each pass is frozen as a hash of its verdicts and first-counterexample trial
indices and the worst margin of every cell.  Regenerate the file only for a
change that is meant to alter sweep results, and say so where the change is
described.
"""
import json
import sys

import workloads as wl
from worker import SweepRunner, _import_majent

#: Passes frozen per workload, about twice the passes an 8 s run makes on
#: a 2-core KVM guest; a run at the default seed checks the passes beyond
#: this by the seed-independent invariants only.
FROZEN_PASSES = 200


def main() -> int:
    _import_majent()
    expected = {}
    for workload in wl.SWEEPS:
        runner = SweepRunner(workload, wl.DEFAULT_SEED)
        frozen = []
        for index in range(FROZEN_PASSES):
            seed = wl.derive_seed(workload, wl.DEFAULT_SEED, index)
            cells = runner.search.sweep(runner.config(seed)).to_json_dict()["cells"]
            problems = wl.check_cells(runner.spec, cells, seed, runner.spec.trials_per_cell)
            if problems:
                print(f"{workload} pass {index}: {problems}", file=sys.stderr)
                return 1
            frozen.append(wl.freeze_cells(cells))
        expected[workload] = frozen
    with wl.EXPECTED_PATH.open("w", encoding="utf-8") as fh:
        json.dump(expected, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
