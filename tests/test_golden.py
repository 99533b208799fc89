"""Replay of golden crawl traces pinned in ``tests/golden/``.

Each trace runs the whole library pipeline on a small generated network
(generate, bootstrap, train, threshold, crawl) and records the visit order,
the ``repr`` of every score and verdict, the threshold, and the SHA-256 of
``CrawlResult.canonical_bytes()`` and of the final checkpoint as ``crawl``
writes it.  The files were recorded from the code before the table-driven
scorer, so they pin every score to the last bit.  Every one of those crawls
exhausts its frontier, so ``size_limited.json`` also pins the checkpoint of
the same crawls stopped at 10 and at 20 graph nodes, where ``frontier`` and
``pending`` are not empty (except for six crawls at 20 nodes); it was
recorded before the crawl state became one frontier map.  ``measure.json``
pins the measurements of every crawl's graph (the ``repr`` of each field and
the SHA-256 of the partition and of the per-node betweenness and closeness);
it was recorded before the metrics ran over integer node ids.  A trace that
stops matching is a defect to explain; the recorder never overwrites a file.

Record missing traces with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from spiderveil.cli import json_text
from spiderveil.corpus import bootstrap_exemplars, filter_english
from spiderveil.crawler import (CrawlConfig, CrawlSession, FixtureStore,
                                SelectionPolicy)
from spiderveil.langmodel import compute_threshold, score_blogger, train
from spiderveil.simnet import GeneratorParams, generate
from spiderveil.socialgraph import (betweenness, closeness_in,
                                    detect_communities, measure)

GOLDEN_DIR = Path(__file__).parent / "golden"
SEEDS = range(2, 12)
POLICIES = tuple(SelectionPolicy)
BLOGGERS = 60
SEED_BLOGGERS = 10
SIZE_LIMITS = (10, 20)
LIMITED_PATH = GOLDEN_DIR / "size_limited.json"
MEASURE_PATH = GOLDEN_DIR / "measure.json"


def trace_params(seed: int) -> dict:
    """Model settings vary with the seed so every trie depth is pinned."""
    return {"seed": seed, "bloggers": BLOGGERS, "order": 2 + seed % 3,
            "alpha": (1.0, 0.5)[seed % 2]}


def network(seed: int, bloggers: int = BLOGGERS, source=FixtureStore):
    """Store, model and threshold of one pinned network; ``source`` makes
    the data source from the store document."""
    params = trace_params(seed)
    store_data, truth = generate(GeneratorParams(total_bloggers=bloggers,
                                                 rng_seed=seed))
    store = source(store_data)
    corpus, _ = bootstrap_exemplars(store, ["stargazing"], 80)
    model = train(corpus.documents, order=params["order"], alpha=params["alpha"])
    seed_names = sorted(n for n, label in truth.items() if label)[:SEED_BLOGGERS]
    threshold = compute_threshold(
        score_blogger(model, filter_english(store.blogger_posts(n, limit=100)))
        for n in seed_names)
    return store, model, threshold


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def crawl_session(store, model, threshold, seed: int, policy: SelectionPolicy,
                  **limits) -> CrawlSession:
    config = CrawlConfig(seed=store.seed_blogger, threshold=threshold.value,
                         ngram_order=model.order, selection_policy=policy,
                         rng_seed=seed, **limits)
    return CrawlSession(store, model, config)


def checkpoint_bytes(session: CrawlSession) -> bytes:
    """The checkpoint as ``crawl`` writes it to crawl.json, through the
    command line's own JSON writer."""
    return (json_text(session.checkpoint()) + "\n").encode("utf-8")


def crawl_trace(store, model, threshold, seed: int,
                policy: SelectionPolicy) -> dict:
    session = crawl_session(store, model, threshold, seed, policy)
    result = session.run()
    return {
        "params": {**trace_params(seed), "policy": policy.value},
        "threshold": repr(threshold.value),
        "visits": [[r.blog_name, repr(r.score), r.verdict.value]
                   for r in result.visit_log],
        "discarded": sorted(result.discarded),
        "canonical_sha256": sha256(result.canonical_bytes()),
        "checkpoint_sha256": sha256(checkpoint_bytes(session)),
    }


def limited_checkpoints(seed: int) -> dict[str, str]:
    """Checkpoint SHA-256 of the crawls stopped at each of SIZE_LIMITS nodes."""
    store, model, threshold = network(seed)
    pins = {}
    for policy in POLICIES:
        for limit in SIZE_LIMITS:
            session = crawl_session(store, model, threshold, seed, policy,
                                    graph_size_limit=limit)
            session.run()
            name = f"{golden_path(seed, policy).stem}-limit{limit}"
            pins[name] = sha256(checkpoint_bytes(session))
    return pins


def json_sha256(value) -> str:
    return sha256(json.dumps(value).encode("utf-8"))


def graph_measurements(seed: int) -> dict[str, dict]:
    """Measurements of each policy's crawl graph, every float as its repr."""
    store, model, threshold = network(seed)
    pins = {}
    for policy in POLICIES:
        graph = crawl_session(store, model, threshold, seed, policy).run().graph
        fields = measure(graph).to_json_dict()
        pins[golden_path(seed, policy).stem] = {
            **{name: repr(value) for name, value in fields.items()},
            "partition_sha256": json_sha256(detect_communities(graph).assignment),
            "betweenness_sha256": json_sha256(
                [repr(value) for value in betweenness(graph).values()]),
            "closeness_sha256": json_sha256(
                [repr(value) for value in closeness_in(graph).values()]),
        }
    return pins


def golden_path(seed: int, policy: SelectionPolicy) -> Path:
    return GOLDEN_DIR / f"{policy.value}-{seed:02d}.json"


@pytest.mark.parametrize("seed", SEEDS)
def test_golden_trace_replays(seed):
    store, model, threshold = network(seed)
    for policy in POLICIES:
        expected = json.loads(golden_path(seed, policy).read_text(encoding="utf-8"))
        assert crawl_trace(store, model, threshold, seed, policy) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_size_limited_checkpoint_replays(seed):
    expected = json.loads(LIMITED_PATH.read_text(encoding="utf-8"))
    pins = limited_checkpoints(seed)
    assert pins == {name: expected[name] for name in pins}


@pytest.mark.parametrize("seed", SEEDS)
def test_graph_measurements_replay(seed):
    expected = json.loads(MEASURE_PATH.read_text(encoding="utf-8"))
    pins = graph_measurements(seed)
    assert pins == {name: expected[name] for name in pins}


def record() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    written = 0
    for seed in SEEDS:
        store, model, threshold = network(seed)
        for policy in POLICIES:
            path = golden_path(seed, policy)
            if path.exists():
                continue
            trace = crawl_trace(store, model, threshold, seed, policy)
            path.write_text(json.dumps(trace, indent=1) + "\n", encoding="utf-8")
            written += 1
    for path, pin in ((LIMITED_PATH, limited_checkpoints),
                      (MEASURE_PATH, graph_measurements)):
        if path.exists():
            continue
        pins = {}
        for seed in SEEDS:
            pins.update(pin(seed))
        path.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
        written += 1
    print(f"wrote {written} files to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(record())
