"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Each criterion carries its stated tolerance and a wall-clock budget that is
asserted, not just hoped for.  Run with -v to see one status line per
criterion; the printed summaries appear with -s or on failure.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from math import fsum

import numpy as np

from spiderveil.cli import main
from spiderveil.corpus import NoteKind, bootstrap_exemplars, filter_english
from spiderveil.crawler import (CrawlConfig, CrawlSession, FixtureStore,
                                SelectionPolicy, build_transition_matrix,
                                crawl, predicted_verdicts, propagate)
from spiderveil.langmodel import compute_threshold, score_blogger, train
from spiderveil.simnet import GeneratorParams, evaluate, generate
from spiderveil.socialgraph import (CommunityGraph, avg_clustering,
                                    betweenness, closeness_in, diameter,
                                    export_graph, import_json_edge_list,
                                    scc_count)

from oracles import (avg_clustering_oracle, betweenness_oracle,
                     closeness_in_oracle, diameter_oracle, propagate_oracle,
                     random_digraph, scc_count_oracle)


def announce(number, detail):
    print(f"ACCEPTANCE {number} PASS: {detail}")


class budget:
    """Context manager asserting the criterion's wall-clock allowance."""

    def __init__(self, number, seconds):
        self.number = number
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    @property
    def elapsed(self):
        return time.monotonic() - self.start

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print(f"ACCEPTANCE {self.number} FAIL ({exc_type.__name__})")
            return False
        assert self.elapsed < self.seconds, (
            f"criterion {self.number} took {self.elapsed:.1f}s, "
            f"budget {self.seconds}s")
        return False


def graph_from(nodes, edges, kind=NoteKind.LIKE):
    graph = CommunityGraph()
    for node in nodes:
        graph.add_node(node)
    for src, dst in edges:
        graph.add_link(src, dst, kind)
    return graph


def trained_setup(rng_seed, total_bloggers=500, corpus_target=400,
                  seed_blogger_count=30):
    """Generate a fixture, bootstrap, train, and derive the threshold."""
    params = GeneratorParams(total_bloggers=total_bloggers, rng_seed=rng_seed)
    store_data, truth = generate(params)
    store = FixtureStore(store_data)
    corpus, _ = bootstrap_exemplars(store, ["stargazing"], corpus_target)
    model = train(corpus.documents, order=3)
    seeds = [name for name, label in truth.items() if label][:seed_blogger_count]
    scores = [score_blogger(model,
                            filter_english(store.blogger_posts(name, limit=100)))
              for name in seeds]
    threshold = compute_threshold(scores)
    return store_data, truth, store, model, threshold


REFERENCE_EVAL_OUTPUT = """\
confusion matrix
                    actual relevant  actual unknown
predicted relevant  290              92
predicted unknown   45               173

accuracy results
           precision  recall     f-score    accuracy
exact      0.7592     0.8657     0.8089     0.7717
truncated  0.75       0.86       0.80       0.77
"""


def test_criterion_1_reference_matrix_arithmetic():
    """eval --matrix 290,45,92,173 reproduces the reference table exactly."""
    with budget(1, 1.0) as clock:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["eval", "--matrix", "290,45,92,173"])
        assert code == 0
        assert buffer.getvalue() == REFERENCE_EVAL_OUTPUT
    announce(1, "0.7592/0.8657/0.8089/0.7717 and 0.75/0.86/0.80/0.77, "
                f"verbatim in {clock.elapsed:.2f}s")


def test_criterion_2_transition_matrix_suite():
    """Rows sum to 1 (1e-9); propagation equals matrix powers for k <= 5."""
    with budget(2, 10.0) as clock:
        rng = random.Random(20)
        graphs = 0
        while graphs < 220:
            nodes, edges = random_digraph(rng, max_nodes=8)
            matrix = build_transition_matrix(graph_from(nodes, edges))
            sums = matrix.entries.sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-9)
            p0 = np.zeros(len(nodes))
            p0[rng.randrange(len(nodes))] = 1.0
            for k in range(6):
                mine = propagate(p0, matrix, k)
                oracle = propagate_oracle(p0, matrix.entries, k)
                assert np.all(np.abs(mine - oracle) <= 1e-9)
            graphs += 1
    announce(2, f"{graphs} digraphs, rows stochastic and k<=5 propagation "
                f"exact to 1e-9 in {clock.elapsed:.1f}s")


def test_criterion_3_sna_oracle_equivalence():
    """SCC/diameter exact; clustering/closeness/betweenness within 1e-9."""
    with budget(3, 60.0) as clock:
        rng = random.Random(30)
        for _ in range(220):
            nodes, edges = random_digraph(rng, max_nodes=8)
            graph = graph_from(nodes, edges)
            assert scc_count(graph) == scc_count_oracle(nodes, edges)
            assert diameter(graph) == diameter_oracle(nodes, edges)
            assert abs(avg_clustering(graph)
                       - avg_clustering_oracle(nodes, edges)) <= 1e-9
            closeness = closeness_in(graph)
            expected = closeness_in_oracle(nodes, edges)
            for node in nodes:
                assert abs(closeness[node] - expected[node]) <= 1e-9
        for _ in range(220):
            nodes, edges = random_digraph(rng, max_nodes=10)
            central = betweenness(graph_from(nodes, edges))
            expected = betweenness_oracle(nodes, edges)
            for node in nodes:
                assert abs(central[node] - expected[node]) <= 1e-9
    announce(3, "220 digraphs x 4 metrics plus 220 betweenness instances "
                f"against brute force in {clock.elapsed:.1f}s")


def test_criterion_4_self_avoidance_and_determinism():
    """50 random fixtures: no revisits, seed-reachable, byte-identical."""
    with budget(4, 60.0) as clock:
        for i in range(50):
            params = GeneratorParams(total_bloggers=30, rng_seed=1000 + i,
                                     notes_per_post=(2, 5))
            store_data, truth = generate(params)
            store = FixtureStore(store_data)
            corpus, _ = bootstrap_exemplars(store, ["stargazing"], 30)
            model = train(corpus.documents, order=3)
            seeds = [n for n, label in truth.items() if label][:5]
            scores = [score_blogger(
                model, filter_english(store.blogger_posts(n, limit=100)))
                for n in seeds]
            policy = (SelectionPolicy.MAX_MARKOV if i % 2 == 0
                      else SelectionPolicy.UNIFORM_RANDOM)
            config = CrawlConfig(seed=store_data["seed"],
                                 threshold=compute_threshold(scores).value,
                                 selection_policy=policy, rng_seed=i)
            result = crawl(store, model, config)

            visited = [r.blog_name for r in result.visit_log]
            assert len(visited) == len(set(visited)), "blogger revisited"

            graph = result.graph
            if graph.node_count():
                assert graph.has_node(config.seed)
                seen = {config.seed}
                queue = [config.seed]
                while queue:
                    node = queue.pop()
                    for succ in graph.successors(node):
                        if succ not in seen:
                            seen.add(succ)
                            queue.append(succ)
                assert seen == set(graph.nodes()), "unreachable node"

            rerun = crawl(store, model, config)
            assert rerun.canonical_bytes() == result.canonical_bytes()
    announce(4, "50 fixtures (both policies): unique visits, seed-reachable "
                f"graphs, byte-identical reruns in {clock.elapsed:.1f}s")


def test_criterion_5_planted_community_f_score():
    """500-blogger planted community: F >= 0.80 pinned, >= 0.75 over 10 seeds."""
    with budget(5, 300.0) as clock:
        def f_for(rng_seed):
            store_data, truth, store, model, threshold = trained_setup(rng_seed)
            config = CrawlConfig(seed=store_data["seed"],
                                 threshold=threshold.value)
            result = crawl(store, model, config)
            _, report = evaluate(
                predicted_verdicts(result.visit_log, result.discarded), truth)
            return report.f_score

        pinned = f_for(7)
        assert pinned >= 0.80, f"pinned-seed F {pinned:.4f} below 0.80"
        sweep = {rng_seed: f_for(rng_seed) for rng_seed in range(10)}
        for rng_seed, f_score in sweep.items():
            assert f_score >= 0.75, (
                f"seed {rng_seed} F {f_score:.4f} below 0.75")
    announce(5, f"pinned F={pinned:.4f} (>=0.80); 10-seed sweep "
                f"min F={min(sweep.values()):.4f} (>=0.75) "
                f"in {clock.elapsed:.1f}s")


def test_criterion_6_threshold_procedure(tmp_path):
    """CLI train: threshold == mean of printed scores; >=80% inside band."""
    with budget(6, 30.0) as clock:
        out = str(tmp_path)
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(["--out-dir", out, "--seed", "7",
                         "gen"]) == 0
        store = tmp_path / "store.json"
        truth = json.loads((tmp_path / "truth.json").read_text())
        seeds = [n for n, label in sorted(truth.items())
                 if label == "relevant"][:30]
        seeds_file = tmp_path / "seeds.json"
        seeds_file.write_text(json.dumps(seeds))
        with redirect_stdout(buffer):
            assert main(["--out-dir", out, "bootstrap", "--store", str(store),
                         "--tag", "stargazing", "--target", "400"]) == 0
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(["--out-dir", out, "train",
                         "--corpus", str(tmp_path / "corpus.ndjson"),
                         "--seed-bloggers", str(seeds_file),
                         "--store", str(store)]) == 0
        stdout = buffer.getvalue()

        score_lines = [line for line in stdout.splitlines()
                       if line.startswith("  ") and line.strip()]
        scores = [float(line.split()[0]) for line in score_lines]
        assert len(scores) == 30

        threshold_line = next(line for line in stdout.splitlines()
                              if line.startswith("threshold: "))
        printed = float(threshold_line.split()[1])
        assert abs(printed - fsum(scores) / len(scores)) <= 1e-12

        band_line = next(line for line in stdout.splitlines()
                         if line.startswith("band: "))
        low = float(band_line.split("min=")[1].split()[0])
        high = float(band_line.split("max=")[1].split()[0])
        inside = sum(1 for s in scores if low <= s <= high)
        assert inside / len(scores) >= 0.80

        saved = json.loads((tmp_path / "model.threshold.json").read_text())
        assert saved["seed_count"] == 30
        assert abs(saved["threshold"] - printed) <= 1e-12
    announce(6, f"threshold {printed:.6f} == mean of 30 printed scores "
                f"(1e-12); {100 * inside // len(scores)}% inside band "
                f"in {clock.elapsed:.1f}s")


def test_criterion_7_round_trips():
    """Edge-list export/import identity and checkpoint resume, 20 instances."""
    with budget(7, 30.0) as clock:
        rng = random.Random(70)
        for _ in range(20):
            nodes, edges = random_digraph(rng)
            graph = CommunityGraph()
            for node in nodes:
                graph.add_node(node)
            for src, dst in edges:
                for kind in rng.sample(list(NoteKind), rng.randint(1, 2)):
                    graph.add_link(src, dst, kind)
            assert import_json_edge_list(export_graph(graph, "json")) == graph

        for i in range(20):
            params = GeneratorParams(total_bloggers=24, rng_seed=2000 + i,
                                     notes_per_post=(2, 4))
            store_data, truth = generate(params)
            store = FixtureStore(store_data)
            corpus, _ = bootstrap_exemplars(store, ["stargazing"], 24)
            model = train(corpus.documents, order=3)
            seeds = [n for n, label in truth.items() if label][:4]
            scores = [score_blogger(
                model, filter_english(store.blogger_posts(n, limit=100)))
                for n in seeds]
            policy = (SelectionPolicy.MAX_MARKOV if i % 2 == 0
                      else SelectionPolicy.UNIFORM_RANDOM)
            config = CrawlConfig(seed=store_data["seed"],
                                 threshold=compute_threshold(scores).value,
                                 selection_policy=policy, rng_seed=i)

            whole = CrawlSession(store, model, config)
            expected = whole.run()

            partial = CrawlSession(store, model, config)
            partial.run(max_steps=1 + i % 4)
            frozen = json.loads(json.dumps(partial.checkpoint()))
            resumed = CrawlSession.resume(store, model, frozen)
            result = resumed.run()
            assert result.canonical_bytes() == expected.canonical_bytes()
    announce(7, "20 edge-list identities and 20 checkpoint resumes, "
                f"byte-for-byte, in {clock.elapsed:.1f}s")
