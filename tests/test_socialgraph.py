import builtins
import json
import math
import random
import tracemalloc
import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiderveil import cli, socialgraph
from spiderveil.corpus import NoteKind
from spiderveil.errors import GraphFormatError, SelfLoopError
from spiderveil.langmodel import Verdict
from spiderveil.socialgraph import (LABEL_KINDS, CommunityGraph,
                                    GraphMeasurements,
                                    avg_clustering, betweenness,
                                    closeness_in, detect_communities,
                                    diameter, export_graph,
                                    import_json_edge_list, measure,
                                    modularity, scc_count, _successor_arrays,
                                    _to_dot)

from oracles import (ReferenceGraph, avg_clustering_oracle,
                     betweenness_oracle, closeness_in_oracle, diameter_oracle,
                     modularity_oracle, random_digraph, reference_betweenness,
                     reference_closeness_in, reference_detect_communities,
                     reference_avg_clustering, reference_diameter,
                     reference_dot, reference_graphml, reference_modularity,
                     reference_shortest_paths, scc_count_oracle)


def build_graph(nodes, edges, label=NoteKind.LIKE):
    graph = CommunityGraph()
    for node in nodes:
        graph.add_node(node)
    for src, dst in edges:
        graph.add_link(src, dst, label)
    return graph


def left_to_right(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def cycle3():
    return build_graph("abc", [("a", "b"), ("b", "c"), ("c", "a")])


def sources_and_sinks():
    """a and c feed b, which feeds the sink d; z is isolated."""
    return build_graph("abcdz", [("a", "b"), ("c", "b"), ("b", "d")])


def two_triangles():
    """Two directed triangles joined by a single bridge edge."""
    edges = [("a", "b"), ("b", "c"), ("c", "a"),
             ("x", "y"), ("y", "z"), ("z", "x"),
             ("a", "x")]
    return build_graph("abcxyz", edges)


class TestCommunityGraph:
    def test_add_link_creates_nodes(self):
        graph = CommunityGraph()
        graph.add_link("a", "b", NoteKind.LIKE)
        assert graph.has_node("a") and graph.has_node("b")
        assert graph.labels("a", "b") == frozenset({NoteKind.LIKE})

    def test_parallel_links_merge_labels(self):
        graph = CommunityGraph()
        graph.add_link("a", "b", NoteKind.LIKE)
        graph.add_link("a", "b", NoteKind.REBLOG)
        graph.add_link("a", "b", NoteKind.LIKE)
        assert graph.edge_count() == 1
        assert graph.labels("a", "b") == frozenset({NoteKind.LIKE,
                                                    NoteKind.REBLOG})

    def test_self_loop_rejected(self):
        graph = CommunityGraph()
        with pytest.raises(SelfLoopError):
            graph.add_link("a", "a", NoteKind.LIKE)

    def test_label_must_be_note_kind(self):
        graph = CommunityGraph()
        with pytest.raises(ValueError):
            graph.add_link("a", "b", "like")

    def test_node_name_must_be_non_empty(self):
        graph = CommunityGraph()
        with pytest.raises(ValueError, match="non-empty"):
            graph.add_node("")
        assert graph.node_count() == 0

    @pytest.mark.parametrize("mask", [0, len(LABEL_KINDS), -1])
    def test_label_mask_must_be_in_range(self, mask):
        graph = CommunityGraph()
        with pytest.raises(ValueError, match="out of range"):
            graph.add_labels("a", "b", mask)
        assert graph.node_count() == 0

    def test_node_attributes(self):
        graph = CommunityGraph()
        graph.add_node("a", verdict=Verdict.RELEVANT, score=-2.25)
        assert graph.verdict("a") is Verdict.RELEVANT
        assert graph.score("a") == -2.25
        # later bare add_node must not erase them
        graph.add_node("a")
        assert graph.verdict("a") is Verdict.RELEVANT

    def test_out_degree_and_successors(self):
        graph = build_graph("abc", [("a", "b"), ("a", "c")])
        assert graph.out_degree("a") == 2
        assert graph.successors("a") == ["b", "c"]
        assert graph.out_degree("c") == 0


class TestProject:
    def test_keeps_only_matching_edges_and_their_endpoints(self):
        graph = CommunityGraph()
        graph.add_link("a", "b", NoteKind.LIKE)
        graph.add_link("b", "c", NoteKind.REBLOG)
        graph.add_node("lonely")
        liked = graph.project(NoteKind.LIKE)
        assert sorted(liked.nodes()) == ["a", "b"]
        assert liked.edge_count() == 1
        assert not liked.has_node("lonely")

    def test_dual_labeled_edge_appears_in_both(self):
        graph = CommunityGraph()
        graph.add_link("a", "b", NoteKind.LIKE)
        graph.add_link("a", "b", NoteKind.REBLOG)
        for kind in NoteKind:
            sub = graph.project(kind)
            assert sub.successors("a") == ["b"]
            assert sub.labels("a", "b") == frozenset({kind})

    def test_projections_cover_every_edge(self, rng):
        for _ in range(20):
            nodes, edges = random_digraph(rng)
            graph = CommunityGraph()
            for node in nodes:
                graph.add_node(node)
            for src, dst in edges:
                kinds = rng.sample(list(NoteKind), rng.randint(1, 2))
                for kind in kinds:
                    graph.add_link(src, dst, kind)
            seen = set()
            for kind in NoteKind:
                for src, dst, _ in graph.project(kind).edges():
                    seen.add((src, dst))
            assert seen == {(src, dst) for src, dst, _ in graph.edges()}


class TestComponents:
    def test_cycle_is_one_component(self):
        assert scc_count(cycle3()) == 1

    def test_path_is_all_singletons(self):
        graph = build_graph("abc", [("a", "b"), ("b", "c")])
        assert scc_count(graph) == 3

    def test_isolated_nodes_count(self):
        graph = build_graph("abc", [])
        assert scc_count(graph) == 3

    def test_components_partition_the_nodes(self):
        assert scc_count(two_triangles()) == 2

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(40):
            nodes, edges = random_digraph(rng)
            assert scc_count(build_graph(nodes, edges)) == \
                scc_count_oracle(nodes, edges)

    def test_deep_chain_does_not_recurse(self):
        nodes = [f"n{i}" for i in range(3000)]
        edges = [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]
        assert scc_count(build_graph(nodes, edges)) == 3000


class TestDiameter:
    def test_cycle(self):
        assert diameter(cycle3()) == 2

    def test_path(self):
        assert diameter(build_graph("abc", [("a", "b"), ("b", "c")])) == 2

    def test_no_edges(self):
        for nodes in ("a", "ab", "abcde"):
            assert diameter(build_graph(nodes, [])) == 0

    def test_sinks_and_isolated_nodes(self):
        assert diameter(sources_and_sinks()) == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError,
                           match="diameter of an empty graph is undefined"):
            diameter(CommunityGraph())

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(40):
            nodes, edges = random_digraph(rng)
            assert diameter(build_graph(nodes, edges)) == \
                diameter_oracle(nodes, edges)


class TestClustering:
    def test_triangle_is_fully_clustered(self):
        assert avg_clustering(cycle3()) == 1.0

    def test_star_has_none(self):
        graph = build_graph("abcd", [("a", "b"), ("a", "c"), ("a", "d")])
        assert avg_clustering(graph) == 0.0

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(40):
            nodes, edges = random_digraph(rng)
            mine = avg_clustering(build_graph(nodes, edges))
            assert mine == pytest.approx(avg_clustering_oracle(nodes, edges),
                                         abs=1e-9)

    def test_memory_stays_small(self):
        """2000 nodes and about 20000 edges stay under 3 MB traced (about
        1.9 MB measured): the bit rows take 0.5 MB, where a dense N x N bool
        matrix would take 3.8 MB and a float one 30 MB."""
        rnd = random.Random(7)
        names = [f"b{i:04d}" for i in range(2000)]
        edges = {(src, dst) for src, dst in
                 ((rnd.choice(names), rnd.choice(names)) for _ in range(20100))
                 if src != dst}
        graph = build_graph(names, sorted(edges))
        assert 19900 <= graph.edge_count() <= 20100
        tracemalloc.start()
        try:
            avg_clustering(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20


class TestBetweenness:
    def test_path_center(self):
        graph = build_graph("abc", [("a", "b"), ("b", "c")])
        assert betweenness(graph) == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_split_between_equal_paths(self):
        # two shortest a->d paths; each interior node carries half
        edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        graph = build_graph("abcd", edges)
        result = betweenness(graph)
        assert result["b"] == pytest.approx(0.5)
        assert result["c"] == pytest.approx(0.5)

    def test_empty_graph(self):
        assert betweenness(CommunityGraph()) == {}

    def test_isolated_nodes(self):
        assert betweenness(build_graph("abc", [])) == \
            {"a": 0.0, "b": 0.0, "c": 0.0}

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(25):
            nodes, edges = random_digraph(rng)
            mine = betweenness(build_graph(nodes, edges))
            expected = betweenness_oracle(nodes, edges)
            for node in nodes:
                assert mine[node] == pytest.approx(expected[node], abs=1e-9)


class TestCloseness:
    def test_sink_of_a_path(self):
        graph = build_graph("abc", [("a", "b"), ("b", "c")])
        result = closeness_in(graph)
        assert result["a"] == 0.0
        assert result["b"] == 1.0          # one node at distance 1
        assert result["c"] == pytest.approx(2 / 3)

    def test_empty_graph(self):
        assert closeness_in(CommunityGraph()) == {}

    def test_nothing_reaches_sources_or_isolated_nodes(self):
        assert closeness_in(sources_and_sinks()) == {
            "a": 0.0, "b": 1.0, "c": 0.0, "d": 3 / 5, "z": 0.0}
        assert closeness_in(build_graph("ab", [])) == {"a": 0.0, "b": 0.0}

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(40):
            nodes, edges = random_digraph(rng)
            mine = closeness_in(build_graph(nodes, edges))
            expected = closeness_in_oracle(nodes, edges)
            for node in nodes:
                assert mine[node] == pytest.approx(expected[node], abs=1e-9)


class TestModularity:
    def test_disjoint_triangles_score_half(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"),
                 ("x", "y"), ("y", "z"), ("z", "x")]
        graph = build_graph("abcxyz", edges)
        partition = {"a": 0, "b": 0, "c": 0, "x": 1, "y": 1, "z": 1}
        assert modularity(graph, partition) == pytest.approx(0.5, abs=1e-12)
        found = detect_communities(graph)
        assert modularity(graph, found.assignment) == \
            pytest.approx(0.5, abs=1e-12)

    def test_two_triangles_split(self):
        graph = two_triangles()
        partition = {"a": 0, "b": 0, "c": 0, "x": 1, "y": 1, "z": 1}
        # 7 undirected edges, 6 intra; degree sums 7 per side
        expected = 6 / 7 - 2 * (7 / 14) ** 2
        assert modularity(graph, partition) == pytest.approx(expected)

    def test_single_community_triangle_is_zero(self):
        assert modularity(cycle3(), {"a": 0, "b": 0, "c": 0}) == \
            pytest.approx(0.0, abs=1e-12)

    def test_splitting_a_triangle_never_helps(self):
        whole = modularity(cycle3(), {"a": 0, "b": 0, "c": 0})
        split = modularity(cycle3(), {"a": 0, "b": 0, "c": 1})
        assert split < whole

    def test_missing_node_rejected(self):
        with pytest.raises(ValueError):
            modularity(cycle3(), {"a": 0, "b": 0})

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError):
            modularity(build_graph("ab", []), {"a": 0, "b": 1})

    def test_matches_oracle_on_random_graphs(self, rng):
        checked = 0
        while checked < 25:
            nodes, edges = random_digraph(rng)
            if not edges:
                continue
            assignment = {node: rng.randint(0, 2) for node in nodes}
            mine = modularity(build_graph(nodes, edges), assignment)
            expected = modularity_oracle(nodes, edges, assignment)
            assert mine == pytest.approx(expected, abs=1e-12)
            checked += 1


class TestDetectCommunities:
    def test_two_triangles_found(self):
        graph = two_triangles()
        partition = detect_communities(graph)
        a = partition.assignment
        assert a["a"] == a["b"] == a["c"]
        assert a["x"] == a["y"] == a["z"]
        assert a["a"] != a["x"]

    def test_never_below_singletons(self, rng):
        for _ in range(20):
            nodes, edges = random_digraph(rng, edge_prob=0.4)
            if not edges:
                continue
            graph = build_graph(nodes, edges)
            partition = detect_communities(graph)
            singletons = {node: i for i, node in enumerate(nodes)}
            assert modularity(graph, partition.assignment) >= \
                modularity(graph, singletons) - 1e-12

    def test_deterministic(self, rng):
        for _ in range(10):
            nodes, edges = random_digraph(rng)
            first = detect_communities(build_graph(nodes, edges))
            second = detect_communities(build_graph(nodes, edges))
            assert first == second

    def test_edgeless_graph_gets_singletons(self):
        partition = detect_communities(build_graph("abc", []))
        assert partition.community_count() == 3

    def test_partition_covers_all_nodes(self):
        graph = two_triangles()
        assert set(detect_communities(graph).assignment) == set(graph.nodes())


def _random_edges(count, rnd):
    density = rnd.choice([0.02, 0.05, 0.1, 0.3, 0.6])
    return [(i, j) for i in range(count) for j in range(count)
            if i != j and rnd.random() < density]


def _cycle_edges(count, rnd):
    return [(i, (i + 1) % count) for i in range(count)]


def _bipartite_edges(count, rnd):
    left = rnd.randint(1, count - 1)
    return [(i, j) for i in range(left) for j in range(left, count)]


def _clique_edges(count, rnd):
    size = rnd.randint(2, 6)
    whole = count - count % size  # nodes past the last full clique stay alone
    return [(i, j) for i in range(whole) for j in range(whole)
            if i != j and i // size == j // size]


def _star_edges(count, rnd):
    return [(0, i) for i in range(1, count)]


SHAPES = {"random": _random_edges, "cycle": _cycle_edges,
          "bipartite": _bipartite_edges, "cliques": _clique_edges,
          "star": _star_edges}


@st.composite
def shaped_digraphs(draw):
    """Random digraphs up to 60 nodes and tie-heavy shapes (cycles, complete
    bipartite graphs, disjoint equal cliques, stars), with edges optionally
    reversed or doubled, nodes named and inserted in a shuffled order."""
    shape = draw(st.sampled_from(sorted(SHAPES)))
    count = draw(st.integers(2, 60 if shape == "random" else 24))
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    edges = SHAPES[shape](count, rnd)
    direction = draw(st.sampled_from(["forward", "reversed", "both"]))
    if direction == "reversed":
        edges = [(j, i) for i, j in edges]
    elif direction == "both":
        edges = edges + [(j, i) for i, j in edges]
    names = [f"v{i:02d}" for i in range(count)]
    rnd.shuffle(names)
    nodes = list(names)
    rnd.shuffle(nodes)
    rnd.shuffle(edges)
    return nodes, [(names[i], names[j]) for i, j in edges]


@st.composite
def mixed_digraphs(draw):
    """Up to 40 nodes, so a node's neighbour bits span bytes, with no edge,
    one edge, or edges at a random density and some reversed too, so that
    pairs are reciprocal.  Some nodes are listed without edges, and some
    appear only as edge ends."""
    count = draw(st.integers(0, 40))
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    names = [f"v{i:02d}" for i in range(count)]
    size = draw(st.sampled_from(["none", "one", "many"])) if count > 1 else "none"
    if size == "none":
        edges = []
    elif size == "one":
        edges = [tuple(rnd.sample(names, 2))]
    else:
        density = rnd.choice([0.05, 0.15, 0.4, 0.8])
        edges = [(src, dst) for src in names for dst in names
                 if src != dst and rnd.random() < density]
        edges += [(dst, src) for src, dst in edges if rnd.random() < 0.3]
    rnd.shuffle(edges)
    listed = [name for name in names if rnd.random() < 0.6]
    rnd.shuffle(listed)
    return listed, edges


# Community labels of several hashable types, negative ints among them.
COMMUNITY_LABELS = st.one_of(st.text(max_size=2), st.integers(-3, 3),
                             st.tuples(st.integers(-2, 1), st.text(max_size=1)))


class TestMatchesReference:
    """The int-indexed metrics equal the name-keyed loops they replaced."""

    @given(shaped_digraphs())
    @settings(max_examples=150, deadline=None)
    def test_partition_equals_reference(self, shaped):
        graph = build_graph(*shaped)
        found = detect_communities(graph).assignment
        expected = reference_detect_communities(graph).assignment
        assert list(found.items()) == list(expected.items())

    @given(shaped_digraphs())
    @settings(max_examples=150, deadline=None)
    def test_betweenness_equals_reference(self, shaped):
        graph = build_graph(*shaped)
        assert list(betweenness(graph).items()) == \
            list(reference_betweenness(graph).items())

    @given(shaped_digraphs())
    @settings(max_examples=150, deadline=None)
    def test_closeness_in_equals_reference(self, shaped):
        graph = build_graph(*shaped)
        assert list(closeness_in(graph).items()) == \
            list(reference_closeness_in(graph).items())

    @given(shaped_digraphs())
    @settings(max_examples=150, deadline=None)
    def test_diameter_equals_reference(self, shaped):
        graph = build_graph(*shaped)
        assert diameter(graph) == reference_diameter(graph)

    @given(st.one_of(shaped_digraphs(), mixed_digraphs()),
           st.sampled_from([None, 1, 2, 7]))
    @settings(max_examples=200, deadline=None)
    def test_avg_clustering_equals_reference(self, graph_case, batch):
        """Equal whatever the number of edges per batch of bit-row ANDs."""
        graph = build_graph(*graph_case)
        with pytest.MonkeyPatch.context() as patch:
            if batch is not None:
                width = (graph.node_count() + 7) // 8
                patch.setattr(socialgraph, "_BATCH_ENTRIES", batch * width)
            found = avg_clustering(graph)
        assert found == reference_avg_clustering(graph)

    @given(st.one_of(shaped_digraphs(), mixed_digraphs()),
           st.lists(COMMUNITY_LABELS, min_size=1, max_size=5),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_modularity_equals_reference(self, graph_case, labels, rnd):
        graph = build_graph(*graph_case)
        assignment = {node: rnd.choice(labels) for node in graph.nodes()}
        assignment["not-a-node"] = rnd.choice(labels)
        if graph.edge_count():
            assert modularity(graph, assignment) == \
                reference_modularity(graph, assignment)
        else:
            with pytest.raises(ValueError, match="without edges"):
                modularity(graph, assignment)

    @pytest.mark.parametrize("graph_case", [
        ([], []), (["a"], []), ("abc", []), ("ab", [("a", "b")]),
        ("abcdefghijk", [("a", "b"), ("b", "a"), ("b", "c"), ("c", "a"),
                         ("k", "j"), ("j", "x"), ("x", "k"), ("k", "x")])],
        ids=["empty", "single", "isolated", "one-edge", "reciprocal"])
    def test_small_cases_equal_reference(self, graph_case):
        graph = build_graph(*graph_case)
        assert avg_clustering(graph) == reference_avg_clustering(graph)
        if graph.edge_count():
            labels = {node: ("t", i % 2) for i, node in
                      enumerate(graph.nodes())}
            assert modularity(graph, labels) == \
                reference_modularity(graph, labels)


def fans_past_2_53():
    """A source s whose path counts pass 2**53, with a side path that meets
    them: 40 fans of three nodes between hubs give the last hub 3**40 paths
    from s, and a plain path of the same length joins it at x.  float64 sums
    of these counts round, and so would the betweenness built on them."""
    graph = CommunityGraph()
    hub = "s"
    for layer in range(40):
        for k in range(3):
            graph.add_link(hub, f"f{layer}_{k}", NoteKind.LIKE)
            graph.add_link(f"f{layer}_{k}", f"h{layer}", NoteKind.LIKE)
        hub = f"h{layer}"
    side = "s"
    for i in range(80):
        graph.add_link(side, f"p{i}", NoteKind.LIKE)
        side = f"p{i}"
    graph.add_link(hub, "x", NoteKind.LIKE)
    graph.add_link(side, "x", NoteKind.LIKE)
    return graph


class TestBatchedShortestPaths:
    """The batched numpy pass equals the one-source loop it replaced, bit for
    bit, whatever the number of sources per batch."""

    @staticmethod
    def assert_equals_reference(graph, batch=None):
        with pytest.MonkeyPatch.context() as patch:
            if batch is not None:
                budget = max(graph.edge_count(), graph.node_count(), 1)
                patch.setattr(socialgraph, "_BATCH_ENTRIES", batch * budget)
            central, closeness, longest = socialgraph._shortest_paths(graph)
        expected = reference_shortest_paths(graph)
        assert list(central.items()) == list(expected[0].items())
        assert list(closeness.items()) == list(expected[1].items())
        assert longest == expected[2]

    @given(shaped_digraphs(), st.sampled_from([None, 1, 2, 7]))
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, shaped, batch):
        self.assert_equals_reference(build_graph(*shaped), batch)

    @pytest.mark.parametrize("batch", [None, 1, 2, 7])
    def test_path_counts_past_2_53(self, batch):
        self.assert_equals_reference(fans_past_2_53(), batch)

    def test_float_counts_would_round_past_2_53(self):
        """The graph above tests the Python-int recount: float64 counts
        would give it a different betweenness."""
        graph = fans_past_2_53()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(socialgraph, "_EXACT_PATHS", float("inf"))
            central = socialgraph._shortest_paths(graph)[0]
        assert central != reference_shortest_paths(graph)[0]

    @pytest.mark.parametrize("batch", [None, 1, 2, 7])
    @pytest.mark.parametrize("graph", [
        CommunityGraph(), build_graph("abcde", []),
        build_graph("abcxyz", [("a", "x"), ("b", "x"), ("a", "y"),
                               ("c", "z"), ("b", "z")])],
        ids=["empty", "isolated", "sinks"])
    def test_degenerate_graphs(self, graph, batch):
        self.assert_equals_reference(graph, batch)

    def test_memory_stays_small(self):
        """500 nodes and about 4000 edges stay under 8 MB traced; all
        sources at once would take over 50 MB."""
        rnd = random.Random(7)
        names = [f"b{i:03d}" for i in range(500)]
        edges = {(src, dst) for src, dst in
                 ((rnd.choice(names), rnd.choice(names)) for _ in range(4100))
                 if src != dst}
        graph = build_graph(names, sorted(edges))
        assert 3900 <= graph.edge_count() <= 4100
        tracemalloc.start()
        try:
            socialgraph._shortest_paths(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestMeasure:
    def test_three_cycle_summary(self):
        result = measure(cycle3())
        assert result.node_count == 3
        assert result.edge_count == 3
        assert result.diameter == 2
        assert result.scc_count == 1
        assert result.avg_clustering == pytest.approx(1.0)
        assert result.modularity == pytest.approx(0.0, abs=1e-12)
        assert result.mean_in_betweenness == pytest.approx(1.0)
        assert result.mean_in_closeness == pytest.approx(2 / 3)

    def test_single_node(self):
        graph = CommunityGraph()
        graph.add_node("only")
        result = measure(graph)
        assert result.node_count == 1
        assert result.edge_count == 0
        assert result.diameter == 0
        assert result.scc_count == 1
        assert result.modularity == 0.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            measure(CommunityGraph())

    @pytest.mark.parametrize("graph", [
        cycle3(), two_triangles(), build_graph("abc", []),
        sources_and_sinks()],
        ids=["cycle", "triangles", "isolated", "sinks"])
    def test_path_fields_equal_public_functions(self, graph):
        result = measure(graph)
        count = graph.node_count()
        assert result.diameter == diameter(graph)
        assert result.mean_in_betweenness == \
            left_to_right(betweenness(graph).values()) / count
        assert result.mean_in_closeness == \
            left_to_right(closeness_in(graph).values()) / count

    @given(shaped_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_path_fields_equal_public_functions_on_shapes(self, shaped):
        self.test_path_fields_equal_public_functions(build_graph(*shaped))

    def test_means_add_left_to_right(self):
        """The means do not follow the builtin ``sum``, which compensates
        float sums from Python 3.12: with it swapped for a compensated sum,
        ``measure`` still adds the values one at a time, in node order."""
        rnd = random.Random(8)
        names = [f"b{i:02d}" for i in range(30)]
        graph = build_graph(names, [tuple(rnd.sample(names, 2))
                                    for _ in range(60)])
        central, closeness, _ = reference_shortest_paths(graph)
        count = graph.node_count()

        def compensated_sum(values, start=0):
            values = list(values)
            if all(isinstance(value, int) for value in values):
                return builtins.sum(values, start)
            return math.fsum(values) + start

        for values in (central.values(), closeness.values()):
            assert compensated_sum(values) / count != \
                left_to_right(values) / count
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(socialgraph, "sum", compensated_sum, raising=False)
            result = measure(graph)
        assert result.mean_in_betweenness == \
            left_to_right(central.values()) / count
        assert result.mean_in_closeness == \
            left_to_right(closeness.values()) / count

    def test_serialization_round_trip(self, tmp_path, capsys, monkeypatch):
        summary = GraphMeasurements(node_count=27, edge_count=60, diameter=1,
                                    scc_count=21, avg_clustering=0.24,
                                    modularity=0.0, mean_in_betweenness=0.0,
                                    mean_in_closeness=0.35)
        doc = summary.to_json_dict()
        assert doc["node_count"] == 27
        assert doc["edge_count"] == 60
        assert doc["diameter"] == 1
        assert doc["scc_count"] == 21
        path = tmp_path / "graph.json"
        path.write_bytes(export_graph(build_graph("ab", [("a", "b")]), "json"))
        monkeypatch.setattr(cli, "measure", lambda graph: summary)
        assert cli.main(["analyze", str(path)]) == 0
        table = capsys.readouterr().out
        assert "nodes" in table and "27" in table
        assert "strongly connected components  21" in table


class TestExports:
    def test_dot_edge_line(self):
        graph = CommunityGraph()
        graph.add_link("a", "b", NoteKind.LIKE)
        graph.add_link("a", "b", NoteKind.REBLOG)
        text = export_graph(graph, "dot").decode("utf-8")
        assert text.startswith("digraph")
        assert '  a -> b [label="like|reblog"];' in text

    def test_dot_quotes_awkward_names(self):
        graph = CommunityGraph()
        graph.add_link("blog-one", "blog two", NoteKind.LIKE)
        text = export_graph(graph, "dot").decode("utf-8")
        assert '"blog-one"' in text and '"blog two"' in text

    def test_dot_quotes_names_with_a_trailing_newline(self):
        graph = build_graph(["a", "a\n", "12\n", "12"], [])
        assert export_graph(graph, "dot").decode("utf-8") == (
            'digraph community {\n  a;\n  "a\n";\n  "12\n";\n  12;\n}\n')

    @pytest.mark.parametrize("keyword", ["Node", "EDGE", "graph", "diGraph",
                                         "subGRAPH", "sTrict"])
    def test_dot_quotes_keywords_in_any_case(self, keyword):
        graph = build_graph([keyword, "nodes"], [(keyword, "nodes")])
        assert export_graph(graph, "dot").decode("utf-8") == (
            f'digraph community {{\n  "{keyword}";\n  nodes;\n'
            f'  "{keyword}" -> nodes [label="like"];\n}}\n')

    def test_graphml_parses_and_keeps_structure(self):
        graph = cycle3()
        graph.add_node("a", verdict=Verdict.RELEVANT, score=-2.5)
        payload = export_graph(graph, "graphml")
        root = ElementTree.fromstring(payload)
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        node_ids = {n.get("id") for n in root.findall(".//g:node", ns)}
        edge_pairs = {(e.get("source"), e.get("target"))
                      for e in root.findall(".//g:edge", ns)}
        assert node_ids == {"a", "b", "c"}
        assert edge_pairs == {("a", "b"), ("b", "c"), ("c", "a")}

    def test_json_round_trip_identity(self, rng):
        for _ in range(20):
            nodes, edges = random_digraph(rng)
            graph = CommunityGraph()
            for node in nodes:
                graph.add_node(node)
            for src, dst in edges:
                graph.add_link(src, dst,
                               rng.choice([NoteKind.LIKE, NoteKind.REBLOG]))
            again = import_json_edge_list(export_graph(graph, "json"))
            assert again == graph

    def test_json_carries_attributes(self):
        graph = CommunityGraph()
        graph.add_node("a", verdict=Verdict.RELEVANT, score=-1.5)
        graph.add_link("a", "b", NoteKind.REBLOG)
        doc = json.loads(export_graph(graph, "json"))
        node = next(n for n in doc["nodes"] if n["id"] == "a")
        assert node["verdict"] == "relevant"
        assert node["score"] == -1.5
        again = CommunityGraph.from_json_dict(doc)
        assert again.verdict("a") is Verdict.RELEVANT
        assert again.score("a") == -1.5

    def test_empty_graph_exports(self):
        graph = CommunityGraph()
        assert import_json_edge_list(export_graph(graph, "json")) == graph
        assert export_graph(graph, "dot").decode("utf-8").startswith("digraph")
        ElementTree.fromstring(export_graph(graph, "graphml"))

    def test_unknown_format_rejected(self):
        with pytest.raises(GraphFormatError):
            export_graph(CommunityGraph(), "gexf")

    def test_malformed_documents_rejected(self):
        def read(doc):
            return import_json_edge_list(json.dumps(doc).encode("utf-8"))

        with pytest.raises(GraphFormatError):
            import_json_edge_list(b"{not json")
        with pytest.raises(GraphFormatError, match="not UTF-8"):
            import_json_edge_list(b'{"nodes": ["\xff"], "edges": []}')
        with pytest.raises(GraphFormatError):
            read({"nodes": []})
        with pytest.raises(GraphFormatError):
            read({"nodes": [], "edges": [
                {"src": "a", "dst": "a", "labels": ["like"]}]})
        with pytest.raises(GraphFormatError):
            read({"nodes": [], "edges": [
                {"src": "a", "dst": "b", "labels": ["buy"]}]})
        for edge in ({"src": "a", "dst": "b", "labels": []},
                     {"src": "c", "dst": "c", "labels": []}):
            with pytest.raises(GraphFormatError, match="empty array"):
                read({"nodes": [{"id": "a"}], "edges": [edge]})
        with pytest.raises(GraphFormatError, match="score .* is not a finite number"):
            read({"nodes": [{"id": "a", "score": 10**400}], "edges": []})
        # json reads NaN, Infinity and a float literal past the range as
        # floats that are not finite.
        for text in ("NaN", "Infinity", "-Infinity", "1e400"):
            with pytest.raises(GraphFormatError, match=(
                    f"^bad graph document: node score {float(text)!r} "
                    "is not a finite number$")):
                import_json_edge_list(
                    f'{{"nodes": [{{"id": "a", "score": {text}}}], "edges": []}}'
                    .encode())
        with pytest.raises(GraphFormatError, match="'a' is listed twice"):
            read({"nodes": [
                {"id": "a", "verdict": "relevant", "score": -0.5},
                {"id": "a", "verdict": None, "score": -0.9}], "edges": []})

    @pytest.mark.parametrize("verdict", ("bogus", "RELEVANT", 1, True, ["relevant"]))
    def test_unknown_verdict_names_the_value(self, verdict):
        # The message is the one ``Verdict(value)`` raises.
        with pytest.raises(GraphFormatError) as caught:
            CommunityGraph.from_json_dict(
                {"nodes": [{"id": "a", "verdict": verdict}], "edges": []})
        assert str(caught.value) == (f"bad graph document: {verdict!r} "
                                     "is not a valid Verdict")

    def test_known_verdicts_read_as_members(self):
        graph = CommunityGraph.from_json_dict({"nodes": [
            {"id": "a", "verdict": "relevant"}, {"id": "b", "verdict": "unknown"},
            {"id": "c"}], "edges": []})
        assert [graph.verdict(name) for name in "abc"] == [
            Verdict.RELEVANT, Verdict.UNKNOWN, None]


NAMES = st.sampled_from("abcdefg")
VERDICTS = st.sampled_from([None, *Verdict])
SCORES = st.one_of(st.none(), st.integers(-3, 0),
                   st.floats(-5.0, 0.0, allow_nan=False))
# Scores a graph document may hold but no reader accepts.
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def graph_operations(draw):
    """add_node and add_link calls over a small name pool, so links run
    parallel and nodes often arrive only as link ends."""
    calls = draw(st.lists(st.one_of(
        st.tuples(st.just("add_node"), NAMES, VERDICTS, SCORES),
        st.tuples(st.just("add_link"), NAMES, NAMES,
                  st.sampled_from(list(NoteKind)))), max_size=40))
    return [call for call in calls if call[0] == "add_node" or call[1] != call[2]]


def apply_calls(graph, calls):
    for method, *args in calls:
        getattr(graph, method)(*args)
    return graph


@st.composite
def graph_documents(draw, non_finite=False):
    """Graph documents with unique listed node ids, edges between listed
    and unlisted names, repeated edges and unsorted or repeated labels.
    With ``non_finite``, one in four with nodes gives one node a score that
    is not finite."""
    listed = draw(st.lists(NAMES, unique=True, max_size=5))
    nodes = [{"id": name,
              "verdict": draw(st.sampled_from([None, "relevant", "unknown"])),
              "score": draw(SCORES)} for name in listed]
    if non_finite and nodes and draw(st.integers(0, 3)) == 0:
        nodes[draw(st.integers(0, len(nodes) - 1))]["score"] = draw(NON_FINITE)
    ends = st.sampled_from("abcdefghij")
    edges = draw(st.lists(st.fixed_dictionaries({
        "src": ends, "dst": ends,
        "labels": st.lists(st.sampled_from(["like", "reblog"]), min_size=1,
                           max_size=3)}), max_size=25))
    return {"nodes": nodes, "edges": [e for e in edges if e["src"] != e["dst"]]}


def graph_view(graph) -> tuple:
    """Nodes with their attributes and edges with their labels, in order."""
    return ([(name, graph.verdict(name), graph.score(name))
             for name in graph.nodes()], list(graph.edges()))


class TestSerializationMatchesReference:
    """The label-mask graph reads and writes documents exactly as the
    set-labelled graph it replaced."""

    @given(graph_operations())
    @settings(max_examples=200, deadline=None)
    def test_to_json_dict_equals_reference(self, calls):
        graph = apply_calls(CommunityGraph(), calls)
        reference = apply_calls(ReferenceGraph(), calls)
        assert graph_view(graph) == graph_view(reference)
        assert graph.to_json_dict() == reference.to_json_dict()
        again = CommunityGraph.from_json_dict(reference.to_json_dict())
        assert again == graph and graph_view(again) == graph_view(graph)

    @given(graph_documents(non_finite=True))
    @settings(max_examples=200, deadline=None)
    def test_from_json_dict_equals_reference(self, doc):
        if not all(math.isfinite(node["score"] or 0) for node in doc["nodes"]):
            for read in (CommunityGraph.from_json_dict, ReferenceGraph.from_json_dict):
                with pytest.raises(GraphFormatError, match="is not a finite number"):
                    read(doc)
            return
        graph = CommunityGraph.from_json_dict(doc)
        reference = ReferenceGraph.from_json_dict(doc)
        assert graph_view(graph) == graph_view(reference)
        assert graph.to_json_dict() == reference.to_json_dict()


class _Name(str):
    pass


class _Edge(dict):
    pass


# Values an edge end or an edge's labels may be set to: names listed or not,
# other JSON kinds, and label arrays the package would or would not write.
END_EDITS = st.one_of(NAMES, st.sampled_from(["", "zz", 5, 2.5, True, None,
                                              ["a"], {"a": 1}]))
LABEL_EDITS = st.sampled_from([
    ["like"], ["reblog"], ["like", "reblog"], ["reblog", "like"],
    ["like", "like"], ["like", "reblog", "like"], [], ["favorite"], [1],
    [["like"]], [None], "like", {"like": 1}, None, 5])
SCORE_EDITS = st.one_of(NON_FINITE, st.sampled_from([None, -1, -0.5, 10 ** 400,
                                                     True, "0"]))


@st.composite
def mutated_graph_documents(draw):
    """A graph document as ``to_json_dict`` writes it, with a few edits: an
    edge end or label array set to another value, a field dropped, an end
    made a str subclass, an edge replaced, repeated or made a dict subclass,
    a self-loop, a listed node removed or its score set to another value."""
    doc = apply_calls(CommunityGraph(), draw(graph_operations())).to_json_dict()
    nodes, edges = doc["nodes"], doc["edges"]
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["end", "labels", "drop", "subclass",
                                     "replace", "repeat", "self-loop",
                                     "unlist", "dict subclass", "score"]))
        if edit == "unlist" and nodes:
            del nodes[draw(st.integers(0, len(nodes) - 1))]
        if edit == "score" and nodes:
            nodes[draw(st.integers(0, len(nodes) - 1))]["score"] = draw(SCORE_EDITS)
        if not edges:
            continue
        i = draw(st.integers(0, len(edges) - 1))
        if not isinstance(edges[i], dict):
            continue
        if edit == "end":
            edges[i][draw(st.sampled_from(["src", "dst"]))] = draw(END_EDITS)
        elif edit == "labels":
            edges[i]["labels"] = draw(LABEL_EDITS)
        elif edit == "drop":
            edges[i].pop(draw(st.sampled_from(["src", "dst", "labels"])), None)
        elif edit == "subclass" and isinstance(edges[i].get("src"), str):
            edges[i]["src"] = _Name(edges[i]["src"])
        elif edit == "replace":
            edges[i] = draw(st.sampled_from([None, [], "e", 5, ["a", "b"]]))
        elif edit == "repeat":
            edges.insert(draw(st.integers(0, len(edges))),
                         dict(edges[i], labels=draw(LABEL_EDITS)))
        elif edit == "self-loop":
            edges[i]["dst"] = edges[i].get("src")
        elif edit == "dict subclass":
            edges[i] = _Edge(edges[i])
    return doc


def _two_node_document(*edits) -> dict:
    """Nodes a and b and an edge a -> b labelled like for each of ``edits``,
    with those fields replaced."""
    return {"nodes": [{"id": "a", "verdict": None, "score": None},
                      {"id": "b", "verdict": None, "score": None}],
            "edges": [{"src": "a", "dst": "b", "labels": ["like"], **edit}
                      for edit in edits]}


class TestEdgeReader:
    """The per-edge loop reads a document as the package writes it, and
    edited ones, into ``ReferenceGraph``'s graph wherever the reference
    reads the document too; it rejects what the reference rejects, and
    apart from that only empty label arrays."""

    @given(mutated_graph_documents())
    @example(_two_node_document({"labels": {"like": 1}}))
    @example(_two_node_document({"labels": ["reblog", "like"]}))
    @example(_two_node_document({"labels": ["favorite"]}))
    @example(_two_node_document({"dst": "a"}))
    @example(_two_node_document({"dst": "c"}))
    @example(_two_node_document({"src": 5}))
    @example(_two_node_document({}, {"labels": ["reblog"]}))
    @example({"nodes": [{"id": "a", "verdict": None, "score": math.nan}], "edges": []})
    @settings(max_examples=800, deadline=None)
    def test_equals_the_reference(self, doc):
        try:
            reference = ReferenceGraph.from_json_dict(doc)
        except GraphFormatError:
            with pytest.raises(GraphFormatError):
                CommunityGraph.from_json_dict(doc)
            return
        try:
            graph = CommunityGraph.from_json_dict(doc)
        except GraphFormatError as exc:
            assert str(exc) == "bad graph document: labels are an empty array"
            return
        assert graph_view(graph) == graph_view(reference)
        assert_store_matches(graph, reference)

    @pytest.mark.parametrize("edits,message", [
        pytest.param(({"labels": {"like": 1}},),
                     "labels {'like': 1} are not an array", id="object labels"),
        pytest.param(({"labels": ["favorite"]},),
                     "'favorite' is not a valid NoteKind", id="unknown kind"),
        pytest.param(({"labels": ["like", ["like"]]},),
                     "['like'] is not a valid NoteKind", id="unhashable kind"),
        pytest.param(({"labels": []},), "labels are an empty array",
                     id="empty labels"),
        pytest.param(({"dst": "a"},), "self-loop on 'a' rejected", id="self-loop"),
        pytest.param(({"dst": "a", "labels": []},), "labels are an empty array",
                     id="self-loop with empty labels"),
        pytest.param(({"src": 5},), "node id 5 is not a non-empty string",
                     id="number end"),
        pytest.param(({}, {"labels": None}), "labels None are not an array",
                     id="null labels on the second edge"),
    ])
    def test_names_the_first_fault(self, edits, message):
        with pytest.raises(GraphFormatError) as caught:
            CommunityGraph.from_json_dict(_two_node_document(*edits))
        assert str(caught.value) == f"bad graph document: {message}"


@st.composite
def core_operations(draw):
    """add_node, add_link and add_labels calls over the small name pool."""
    calls = draw(st.lists(st.one_of(
        st.tuples(st.just("add_node"), NAMES, VERDICTS, SCORES),
        st.tuples(st.just("add_link"), NAMES, NAMES,
                  st.sampled_from(list(NoteKind))),
        st.tuples(st.just("add_labels"), NAMES, NAMES,
                  st.integers(1, len(LABEL_KINDS) - 1))), max_size=40))
    return [call for call in calls if call[0] == "add_node" or call[1] != call[2]]


def assert_store_matches(graph, reference):
    """``graph`` lists the nodes and edges of ``reference``, the set-labelled
    graph, in its order, and its arrays hold those edges by node id, each
    source's in insertion order."""
    nodes = reference.nodes()
    ids = {name: i for i, name in enumerate(nodes)}
    edges = list(reference.edges())
    assert graph.nodes() == nodes
    assert list(graph.edges()) == edges
    successors = [[dst for src, dst, _ in edges if src == name] for name in nodes]
    assert [graph.successors(name) for name in nodes] == successors
    degrees = list(map(len, successors))
    assert [graph.out_degree(name) for name in nodes] == degrees
    assert graph.successors("unknown") == [] and graph.out_degree("unknown") == 0
    assert graph._out_degrees().tolist() == degrees
    assert graph.edge_count() == len(edges)
    sources, targets = graph._edge_arrays()
    pairs = sorted(zip(sources.tolist(), targets.tolist()),
                   key=lambda pair: pair[0])
    assert pairs == [(ids[src], ids[dst]) for src, dst, _ in edges]
    indptr, indices = _successor_arrays(graph)
    assert np.diff(indptr).tolist() == degrees
    assert indices.tolist() == [ids[dst] for _, dst, _ in edges]


class TestIntegerCore:
    @given(core_operations(), graph_documents(), core_operations(),
           st.sampled_from(list(NoteKind)))
    @settings(max_examples=200, deadline=None)
    def test_store_matches_reference(self, before, doc, after, label):
        built = (apply_calls(CommunityGraph(), before),
                 apply_calls(ReferenceGraph(), before))
        loaded = (CommunityGraph.from_json_dict(doc),
                  ReferenceGraph.from_json_dict(doc))
        again = (CommunityGraph.from_json_dict(built[0].to_json_dict()),
                 ReferenceGraph.from_json_dict(built[1].to_json_dict()))
        for graph, reference in (built, loaded, again):
            assert_store_matches(graph, reference)
            projected = graph.project(label)
            expected = reference.project(label)
            assert_store_matches(projected, expected)
            assert_store_matches(apply_calls(projected, after),
                                 apply_calls(expected, after))
            assert_store_matches(apply_calls(graph, after),
                                 apply_calls(reference, after))


# Name characters the GraphML writer escapes or encodes apart: the XML
# specials, tab, newline and CR, the other C0 controls, non-BMP characters
# and lone surrogates, among any other characters.
GRAPHML_CHARACTERS = st.one_of(
    st.sampled_from(list("&<>\"'\t\n\r") + [chr(c) for c in range(0x20)]),
    st.characters(min_codepoint=0x10000),
    st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"]),
    st.characters())


@st.composite
def graphml_graphs(draw):
    """Graphs over awkward names, nodes with and without a verdict or a
    score, some only edge ends, and edges with every label mask."""
    names = draw(st.lists(st.text(GRAPHML_CHARACTERS, min_size=1, max_size=5),
                          unique=True, min_size=1, max_size=6))
    pick = st.sampled_from(names)
    graph = CommunityGraph()
    for name in draw(st.lists(pick, max_size=6)):
        graph.add_node(name, draw(VERDICTS), draw(SCORES))
    masks = st.sampled_from(range(1, len(LABEL_KINDS)))
    for src, dst, mask in draw(st.lists(st.tuples(pick, pick, masks),
                                        max_size=12)):
        if src != dst:
            graph.add_labels(src, dst, mask)
    return graph


class TestGraphmlMatchesReference:
    """The string GraphML writer returns the bytes ElementTree wrote."""

    @given(graphml_graphs())
    @settings(max_examples=300, deadline=None)
    def test_export_equals_reference(self, graph):
        assert export_graph(graph, "graphml") == reference_graphml(graph)

    def test_empty_graph_equals_reference(self):
        graph = CommunityGraph()
        assert export_graph(graph, "graphml") == reference_graphml(graph)


class TestDotMatchesReference:
    """The DOT writer, reading label masks, returns the text built through
    the accessors and label sets."""

    @given(graphml_graphs())
    @settings(max_examples=300, deadline=None)
    def test_export_equals_reference(self, graph):
        expected = reference_dot(graph)
        assert _to_dot(graph) == expected
        try:
            payload = expected.encode("utf-8")
        except UnicodeEncodeError:
            # A lone surrogate in a name has no UTF-8 form; it is written as
            # its backslash escape.
            payload = expected.encode("utf-8", "backslashreplace")
        assert export_graph(graph, "dot") == payload

    def test_empty_graph_equals_reference(self):
        graph = CommunityGraph()
        assert export_graph(graph, "dot") == reference_dot(graph).encode("utf-8")
