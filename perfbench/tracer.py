"""In-memory span recorder that wraps spiderveil's public functions.

Each wrapper replaces one name where the program looks it up (a module
global such as ``spiderveil.crawler.score_blogger`` or a class attribute such
as ``CrawlSession.step``), so no source file is edited.  A span is
``[name, start, end, parent]``, with ``parent`` the index of the enclosing span
or -1.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "crawler", "langmodel", "corpus", "socialgraph", "simnet")

# socialgraph function -> metric name used for its span.
GRAPH_METRICS = {
    "detect_communities": "detect_communities",
    "betweenness": "betweenness",
    "closeness_in": "closeness_in",
    "diameter": "diameter",
    "scc_count": "scc",
    "avg_clustering": "clustering",
    "modularity": "modularity",
}


class ReadFlagDict(dict):
    """A dict that remembers whether anyone looked a key up."""

    read = False

    def __contains__(self, key):
        self.read = True
        return dict.__contains__(self, key)

    def __getitem__(self, key):
        self.read = True
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.read = True
        return dict.get(self, key, default)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name, observe=None, prepare=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``name`` is a span name or a function of the call arguments giving
        one; ``prepare(args, kwargs)`` may swap arguments before the call and
        ``observe(args, kwargs, result)`` records counts after it.
        """
        static = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(static, classmethod)
        function = static.__func__ if is_classmethod else static

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            index = self.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = function
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._installed.append((owner, attr, static))

    def count_calls(self, owner, attr: str, observe) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts, no span."""
        function = inspect.getattr_static(owner, attr)

        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            observe(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, function))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- installation -----------------------------------------------------

    def install(self, spiderveil) -> None:
        """Wrap every traced lookup site of the spiderveil package."""
        cli, crawler = spiderveil.cli, spiderveil.crawler
        corpus, langmodel = spiderveil.corpus, spiderveil.langmodel
        socialgraph = spiderveil.socialgraph
        counts, samples = self.counts, self.samples

        def loaded(args, kwargs, result):
            counts["crawler.store_loads"] += 1

        def cells(args, kwargs, result):
            counts["crawler.transition_cells"] += len(result.ordering) ** 2

        def flops(args, kwargs, result):
            matrix, k = args[1], args[2]
            counts["crawler.distributions"] += 1
            counts["crawler.propagate_flops"] += 2 * k * len(matrix.ordering) ** 2

        def flag_mass(args, kwargs):
            return (args[0], ReadFlagDict(args[1])) + args[2:], kwargs

        def selection(args, kwargs, result):
            samples["crawler.frontier_len"].append(len(args[0]))
            counts["crawler.distributions_used"] += args[1].read

        def entries(args, kwargs, result):
            counts["crawler.frontier_entries"] += len(result)

        def checkpoints(args, kwargs, result):
            counts["crawler.checkpoints"] += 1

        def scored(args, kwargs, result):
            counts["langmodel.score_calls"] += 1

        def chars(args, kwargs, result):
            counts["langmodel.chars_scored"] += len(args[1])

        def trained(args, kwargs, result):
            counts["langmodel.trained_chars"] += result.trained_chars

        def documents(args, kwargs, result):
            counts["corpus.documents"] += len(result[0].documents)

        def kept(args, kwargs, result):
            counts["corpus.posts_in"] += len(args[0])
            counts["corpus.posts_kept"] += len(result)

        def normalized(args, kwargs, result):
            counts["corpus.normalize_calls"] += 1

        def communities(args, kwargs, result):
            counts["socialgraph.communities"] += result.community_count()

        def measured(args, kwargs, result):
            counts["socialgraph.nodes"] += result.node_count
            counts["socialgraph.edges"] += result.edge_count

        def exported(args, kwargs, result):
            counts["socialgraph.export_bytes"] += len(result)

        def export_name(args, kwargs):
            return f"socialgraph.export.{args[1]}"

        self.wrap(crawler.FixtureStore, "load", "crawler.store_load",
                  observe=loaded)
        self.wrap(crawler, "validate_fixture", "crawler.validate")
        self.wrap(crawler.CrawlSession, "step", "crawler.step")
        self.wrap(crawler, "build_transition_matrix", "crawler.transition",
                  observe=cells)
        self.wrap(crawler, "propagate", "crawler.propagate", observe=flops)
        self.wrap(crawler, "select_next", "crawler.select",
                  prepare=flag_mass, observe=selection)
        self.wrap(crawler, "fetch_posts", "crawler.fetch")
        self.wrap(crawler, "extract_frontiers", "crawler.extract_frontiers",
                  observe=entries)
        self.wrap(crawler.CrawlSession, "checkpoint", "crawler.checkpoint",
                  observe=checkpoints)
        self.wrap(crawler.CrawlSession, "resume", "crawler.resume")

        for module in (crawler, cli):
            self.wrap(module, "score_blogger", "langmodel.score", observe=scored)
            self.wrap(module, "filter_english", "corpus.filter_english",
                      observe=kept)
        self.count_calls(langmodel, "score_text", chars)
        self.wrap(cli, "train", "langmodel.train", observe=trained)
        for module in (cli, langmodel):
            self.wrap(module, "load_model", "langmodel.model_load")

        self.wrap(cli, "bootstrap_exemplars", "corpus.bootstrap",
                  observe=documents)
        self.count_calls(corpus.Post, "normalized_text", normalized)

        self.wrap(cli, "measure", "socialgraph.measure", observe=measured)
        for function, metric in GRAPH_METRICS.items():
            self.wrap(socialgraph, function, f"socialgraph.{metric}",
                      observe=communities if metric == "detect_communities" else None)
        for module in (cli, socialgraph):
            self.wrap(module, "export_graph", export_name, observe=exported)
        self.wrap(cli, "import_json_edge_list", "socialgraph.import")

        self.wrap(cli, "generate", "simnet.generate")
        self.wrap(cli, "evaluate", "simnet.evaluate")
        self.wrap(cli, "write_json", "cli.json_write")

    # -- summaries ----------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer: span time not covered by that span's children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, *_), seconds in zip(self.spans, own):
            out[name.split(".", 1)[0]] += seconds
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans
                if span_name == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": self.spans}) + "\n")


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass.

    ``extra`` carries what the pass measured outside the spans: stage
    seconds, file sizes, crawl-stage counter deltas and crawl outcome counts.
    """
    totals, counts = tracer.totals(), tracer.counts
    steps = tracer.durations("crawler.step")
    frontier = tracer.samples["crawler.frontier_len"] or [0]
    score_s = totals["langmodel.score"]
    built = counts["crawler.distributions"]
    posts_in = counts["corpus.posts_in"]
    metrics = {
        "crawler.store_load_s": totals["crawler.store_load"],
        "crawler.validate_s": totals["crawler.validate"],
        "crawler.store_loads": counts["crawler.store_loads"],
        "crawler.steps": len(steps),
        "crawler.step_ms.p50": 1000.0 * statistics.median(steps),
        "crawler.step_ms.p99": 1000.0 * statistics.quantiles(steps, n=100)[98],
        "crawler.transition_s": totals["crawler.transition"],
        "crawler.transition_cells": counts["crawler.transition_cells"],
        "crawler.propagate_s": totals["crawler.propagate"],
        "crawler.propagate_flops": counts["crawler.propagate_flops"],
        "crawler.distribution_used_ratio":
            counts["crawler.distributions_used"] / built if built else 0.0,
        "crawler.select_s": totals["crawler.select"],
        "crawler.frontier_len.mean": statistics.fmean(frontier),
        "crawler.frontier_len.max": max(frontier),
        "crawler.fetch_s": totals["crawler.fetch"],
        "crawler.extract_frontiers_s": totals["crawler.extract_frontiers"],
        "crawler.frontier_entries": counts["crawler.frontier_entries"],
        "crawler.checkpoint_s": totals["crawler.checkpoint"],
        "crawler.checkpoint_bytes": extra["checkpoint_bytes"],
        "crawler.resume_s": totals["crawler.resume"],
        "crawler.checkpoints": counts["crawler.checkpoints"],
        "crawler.admit_ratio": extra["admitted"] / extra["processed"],
        "langmodel.score_s": score_s,
        "langmodel.score_calls": counts["langmodel.score_calls"],
        "langmodel.chars_scored": counts["langmodel.chars_scored"],
        "langmodel.mchars_per_s": counts["langmodel.chars_scored"] / 1e6 / score_s,
        "langmodel.train_s": totals["langmodel.train"],
        "langmodel.trained_chars": counts["langmodel.trained_chars"],
        "langmodel.model_load_s": totals["langmodel.model_load"],
        "corpus.bootstrap_s": totals["corpus.bootstrap"],
        "corpus.documents": counts["corpus.documents"],
        "corpus.filter_english_s": totals["corpus.filter_english"],
        "corpus.posts_kept_ratio": counts["corpus.posts_kept"] / posts_in,
        "corpus.normalize_per_post":
            extra["crawl_normalize_calls"] / extra["crawl_posts_fetched"],
        "socialgraph.measure_s": totals["socialgraph.measure"],
        "socialgraph.nodes": counts["socialgraph.nodes"],
        "socialgraph.edges": counts["socialgraph.edges"],
        "socialgraph.communities": counts["socialgraph.communities"],
        "socialgraph.export_bytes": counts["socialgraph.export_bytes"],
        "socialgraph.import_s": totals["socialgraph.import"],
        "simnet.generate_s": totals["simnet.generate"],
        "simnet.store_bytes": extra["store_bytes"],
        "simnet.evaluate_s": totals["simnet.evaluate"],
        "cli.json_write_s": totals["cli.json_write"],
        "cli.bytes_written": extra["bytes_written"],
        "trace.spans": len(tracer.spans),
    }
    for metric in GRAPH_METRICS.values():
        metrics[f"socialgraph.{metric}_s"] = totals[f"socialgraph.{metric}"]
    for fmt in ("json", "graphml", "dot"):
        metrics[f"socialgraph.export_s.{fmt}"] = totals[f"socialgraph.export.{fmt}"]
    for stage, seconds in extra["stage_s"].items():
        metrics[f"cli.{stage}_s"] = seconds
    for layer, seconds in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics
