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
Installing the tracer in-process shows whether every name it wraps still
exists, and that uninstalling puts each one back.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import spiderveil
import spiderveil.cli  # noqa: F401  (the tracer wraps names in the cli module)

ROOT = Path(__file__).resolve().parents[1]

# The lookup sites Tracer.install wraps, each a distinct (owner, name) pair.
TRACED_SITES = 34


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_site():
    tracer = load_tracer().Tracer()
    try:
        tracer.install(spiderveil)
        sites = list(tracer._installed)
        assert len({(id(owner), attr) for owner, attr, _ in sites}) == \
            TRACED_SITES
        for owner, attr, original in sites:
            assert inspect.getattr_static(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in sites:
        assert inspect.getattr_static(owner, attr) is original, attr


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
