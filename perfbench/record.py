"""Record the expected outputs the benchmark checks every pass against.

    python3 perfbench/record.py [--scale full|smoke]

Runs each workload once per generator seed in ``GEN_SEEDS``, uninterrupted
(the checkpointed workload too, so its segmented runs are later compared
with an uninterrupted one), and writes ``expected/<workload>.<scale>.<seed>.json``.
An existing file is never overwritten: expectations pin the behaviour of the
code they were taken from, and a run that disagrees with them is a defect to
explain, not a file to regenerate.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BENCH, run_worker
from workloads import GEN_SEEDS, STAGES, WORKLOADS, spec as workload_spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)

    status = 0
    for workload in sorted(WORKLOADS):
        for gen_seed in GEN_SEEDS:
            path = BENCH / "expected" / f"{workload}.{args.scale}.{gen_seed}.json"
            if path.exists():
                print(f"keep {path.name}: already recorded")
                continue
            result = run_worker(workload_spec(workload, args.scale, gen_seed),
                                record=True)
            if result["problems"] or len(result["stages"]) != len(STAGES):
                print(f"cannot record {path.name}: {result['problems']}",
                      file=sys.stderr)
                status = 1
                continue
            path.write_text(json.dumps(result["digests"], sort_keys=True) + "\n")
            print(f"wrote {path.name} ({result['wall_s']:.1f} s)")
    return status


if __name__ == "__main__":
    sys.exit(main())
