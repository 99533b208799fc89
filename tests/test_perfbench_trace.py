"""The benchmark's tracer still finds the crawl's lookup sites.

``perfbench/tracer.py`` wraps ``crawler.filter_english`` (reading the fetched
post list as argument 0), ``crawler.score_blogger`` and ``Post.normalized_text``,
and flags the Markov mass ``select_next`` receives when it is read through
``p[...]``, ``p.get`` or ``in``.  It also times ``FixtureStore.load``, the
``crawler.validate_fixture`` global the store calls, ``cli.write_json``, the
``crawler.build_transition_matrix`` global the session calls and the
``export_graph`` of ``cli``.  A traced smoke run shows whether those sites
still see the pipeline's work: three store loads (bootstrap, train, crawl),
each validated, JSON written, transition matrices built and graphs exported.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_longposts_smoke_run():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "longposts-500", "--scale", "smoke",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    metrics = summary["metrics"]
    assert metrics["corpus.normalize_per_post"]["value"] == 1.0
    assert metrics["crawler.distribution_used_ratio"]["value"] > 0
    assert metrics["crawler.store_loads"]["value"] == 3
    assert metrics["crawler.validate_s"]["value"] > 0
    assert metrics["cli.json_write_s"]["value"] > 0
    assert metrics["crawler.transition_cells"]["value"] > 0
    assert metrics["socialgraph.export_bytes"]["value"] > 0
