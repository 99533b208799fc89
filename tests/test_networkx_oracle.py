"""networkx as a second, independent oracle on larger random digraphs.

The brute-force oracles in ``oracles.py`` only scale to a few dozen nodes;
these checks compare the metrics with networkx's implementations on seeded
random digraphs of 150-300 nodes.  networkx is a test-only dependency.
"""

import random

import pytest

from spiderveil.corpus import NoteKind
from spiderveil.socialgraph import (CommunityGraph, betweenness, closeness_in,
                                    detect_communities, diameter, modularity,
                                    scc_count)

nx = pytest.importorskip("networkx")

# (node count, edge probability, reciprocity, generator seed): sparse enough
# to leave several strongly connected components and unreachable pairs.
GRAPHS = [(150, 0.02, 0.3, 1), (220, 0.012, 0.5, 2), (300, 0.008, 0.2, 3)]


def random_pair(count, density, reciprocity, seed):
    """The same random digraph as a CommunityGraph and an nx.DiGraph."""
    rnd = random.Random(seed)
    names = [f"b{i}" for i in range(count)]
    rnd.shuffle(names)
    graph, reference = CommunityGraph(), nx.DiGraph()
    for name in names:
        graph.add_node(name)
        reference.add_node(name)
    for src in names:
        for dst in names:
            if src != dst and rnd.random() < density:
                pairs = [(src, dst)]
                if rnd.random() < reciprocity:
                    pairs.append((dst, src))
                for a, b in pairs:
                    graph.add_link(a, b, NoteKind.LIKE)
                    reference.add_edge(a, b)
    return graph, reference


@pytest.fixture(scope="module", params=GRAPHS, ids=lambda g: f"{g[0]}-nodes")
def pair(request):
    return random_pair(*request.param)


def test_betweenness(pair):
    graph, reference = pair
    expected = nx.betweenness_centrality(reference, normalized=False)
    for node, value in betweenness(graph).items():
        assert value == pytest.approx(expected[node], abs=1e-9)


def test_closeness_in(pair):
    graph, reference = pair
    expected = nx.closeness_centrality(reference, wf_improved=False)
    for node, value in closeness_in(graph).items():
        assert value == pytest.approx(expected[node], abs=1e-9)


def test_scc_count(pair):
    graph, reference = pair
    assert scc_count(graph) == nx.number_strongly_connected_components(reference)


def test_reachable_pair_diameter(pair):
    graph, reference = pair
    expected = max(max(lengths.values())
                   for _, lengths in nx.all_pairs_shortest_path_length(reference))
    assert diameter(graph) == expected


def test_modularity_of_detected_partition(pair):
    graph, reference = pair
    partition = detect_communities(graph)
    groups: dict[int, set[str]] = {}
    for node, community in partition.assignment.items():
        groups.setdefault(community, set()).add(node)
    expected = nx.community.modularity(reference.to_undirected(),
                                       list(groups.values()))
    assert modularity(graph, partition.assignment) == pytest.approx(expected, abs=1e-9)
