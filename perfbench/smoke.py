"""Smoke run: every workload at about 60 bloggers, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run passes its output checks and emits exactly the metrics
BENCHMARK.json names, so the harness does not rot between full runs.  It
takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH, ROOT
from workloads import WORKLOADS


def main() -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in sorted(WORKLOADS):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            completed = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace),
                 "--scale", "smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = completed.stdout.strip().splitlines()
            summary = json.loads(lines[-1]) if lines else {}
            want = {metric["name"] for metric in definition[kind]}
            have = set(summary.get("metrics", {}))
            problems = []
            if completed.returncode != 0:
                problems.append(f"exit code {completed.returncode}")
            if not summary.get("correct"):
                problems.append("output checks failed")
            if have != want:
                problems.append(f"missing {sorted(want - have)}, "
                                f"unexpected {sorted(have - want)}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
            if problems:
                failures += 1
                print(completed.stdout[-2000:] + completed.stderr[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
