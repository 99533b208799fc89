"""Directed blogger graph with labeled edges and its measurement suite.

Nodes are blogger names; an edge src -> dst means dst engaged with src's
content (liked or reblogged it), so influence flows along edge direction.
Edges carry the note kinds that produced them, as a bitmask.

Measurement conventions:
  * diameter ranges over ordered reachable pairs only,
  * clustering and modularity work on the undirected simplification,
  * betweenness is directed and unnormalized,
  * in-closeness of v = (# nodes reaching v) / (sum of distances into v).
"""

from __future__ import annotations

import heapq
import json
import re
from array import array
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .corpus import NoteKind
from .errors import NUMBER, GraphFormatError, SelfLoopError, parse_json
from .langmodel import Verdict


def _node_name(value) -> str:
    """``value`` if it is a non-empty string, else GraphFormatError."""
    if not isinstance(value, str) or not value:
        raise GraphFormatError(
            f"bad graph document: node id {value!r} is not a non-empty string")
    return value


# An edge's labels are a bitmask, one bit per note kind.  The tables map a
# kind's value to its bit, and a mask to its kinds and to its sorted values
# (the serialized form, which documents hold as a list of their own).
LABEL_BIT = {kind.value: 1 << i for i, kind in enumerate(NoteKind)}
LABEL_KINDS = tuple(frozenset(kind for kind in NoteKind
                              if mask & LABEL_BIT[kind.value])
                    for mask in range(1 << len(NoteKind)))
LABEL_VALUES = tuple(tuple(sorted(kind.value for kind in kinds))
                     for kinds in LABEL_KINDS)
# The mask of each label array as documents write it, keyed by its tuple.
_WRITTEN_MASK = {values: mask for mask, values in enumerate(LABEL_VALUES) if mask}


def label_mask(values) -> int:
    """The mask of a JSON label array: a non-empty list of kind values.

    An array as documents write it is one lookup; any other goes through
    the checks, so every error message stays."""
    if type(values) is list:
        try:
            return _WRITTEN_MASK[tuple(values)]
        except (KeyError, TypeError):  # not as written, or an unhashable item
            pass
    if not isinstance(values, list):
        raise TypeError(f"labels {values!r} are not an array")
    if not values:
        raise ValueError("labels are an empty array")
    mask = 0
    for value in values:
        try:
            mask |= LABEL_BIT[value]
        except (KeyError, TypeError):
            raise ValueError(f"{value!r} is not a valid NoteKind") from None
    return mask


def kinds_mask(kinds) -> int:
    """The mask of an iterable of NoteKind members."""
    mask = 0
    for kind in kinds:
        mask |= LABEL_BIT[kind.value]
    return mask


class CommunityGraph:
    """Directed graph; at most one edge per ordered pair, with a label mask.

    Beside the name-keyed maps the graph keeps an integer core: each node's
    id, its position in ``nodes()``; the (source id, target id) of every
    edge, each source's edges in insertion order; and each node's
    out-degree.  The numeric code reads these instead of converting the
    maps again.
    """

    def __init__(self):
        self._nodes: dict[str, dict] = {}
        self._succ: dict[str, dict[str, int]] = {}
        self._ids: dict[str, int] = {}
        self._sources = array("q")
        self._targets = array("q")
        self._degree = array("q")

    # -- construction -----------------------------------------------------

    def add_node(self, name: str, verdict: Verdict | None = None,
                 score: float | None = None) -> None:
        if not name:
            raise ValueError("node name must be non-empty")
        attrs = self._nodes.get(name)
        if attrs is None:
            attrs = self._nodes[name] = {"verdict": None, "score": None}
            self._succ[name] = {}
            self._ids[name] = len(self._degree)
            self._degree.append(0)
        if verdict is not None:
            attrs["verdict"] = verdict
        if score is not None:
            attrs["score"] = score

    def add_link(self, src: str, dst: str, label: NoteKind) -> None:
        """Add (or relabel) the edge src -> dst.  Self-loops are rejected."""
        if not isinstance(label, NoteKind):
            raise ValueError(f"edge label must be a NoteKind, got {label!r}")
        self.add_labels(src, dst, LABEL_BIT[label.value])

    def add_labels(self, src: str, dst: str, mask: int) -> None:
        """Add the edge src -> dst, or OR ``mask`` into its labels."""
        if src == dst:
            raise SelfLoopError(f"self-loop on {src!r} rejected")
        if not 0 < mask < len(LABEL_KINDS):
            raise ValueError(f"edge label mask {mask!r} is out of range")
        self.add_node(src)
        self.add_node(dst)
        targets = self._succ[src]
        if dst in targets:
            targets[dst] |= mask
            return
        targets[dst] = mask
        source = self._ids[src]
        self._sources.append(source)
        self._targets.append(self._ids[dst])
        self._degree[source] += 1

    # -- accessors --------------------------------------------------------

    def nodes(self) -> list[str]:
        return list(self._nodes)

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return len(self._sources)

    def edges(self):
        """Yield (src, dst, frozenset of labels) in insertion order."""
        for src, targets in self._succ.items():
            for dst, mask in targets.items():
                yield src, dst, LABEL_KINDS[mask]

    def labels(self, src: str, dst: str) -> frozenset[NoteKind]:
        return LABEL_KINDS[self._succ[src][dst]]

    def successors(self, name: str) -> list[str]:
        return list(self._succ.get(name, {}))

    def out_degree(self, name: str) -> int:
        return len(self._succ.get(name, {}))

    def verdict(self, name: str) -> Verdict | None:
        return self._nodes[name]["verdict"]

    def score(self, name: str) -> float | None:
        return self._nodes[name]["score"]

    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the core's edge source ids and edge target ids."""
        return (np.array(self._sources, dtype=np.intp),
                np.array(self._targets, dtype=np.intp))

    def _out_degrees(self) -> np.ndarray:
        """A copy of the core's out-degrees, by node id."""
        return np.array(self._degree, dtype=np.intp)

    def project(self, label: NoteKind) -> "CommunityGraph":
        """Subgraph of edges carrying ``label``; only their endpoints remain."""
        bit = LABEL_BIT[label.value]
        sub = CommunityGraph()
        for src, targets in self._succ.items():
            for dst, mask in targets.items():
                if mask & bit:
                    sub.add_node(src, **self._nodes[src])
                    sub.add_node(dst, **self._nodes[dst])
                    sub.add_labels(src, dst, bit)
        return sub

    def __eq__(self, other) -> bool:
        if not isinstance(other, CommunityGraph):
            return NotImplemented
        return self._nodes == other._nodes and self._succ == other._succ

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = []
        for name, attrs in self._nodes.items():
            verdict = attrs["verdict"]
            nodes.append({
                "id": name,
                "verdict": verdict.value if verdict is not None else None,
                "score": attrs["score"],
            })
        edges = [{"src": src, "dst": dst, "labels": list(LABEL_VALUES[mask])}
                 for src, targets in self._succ.items()
                 for dst, mask in targets.items()]
        return {"nodes": nodes, "edges": edges}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CommunityGraph":
        """Read a graph document in one pass over each array.

        Listed nodes come first, then edge ends not listed, in edge order
        with ``src`` before ``dst``.  A repeated edge ORs its labels.
        """
        if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
            raise GraphFormatError("graph document needs 'nodes' and 'edges'")
        if not (isinstance(data["nodes"], list) and isinstance(data["edges"], list)):
            raise GraphFormatError("graph document 'nodes' and 'edges' are not arrays")
        graph = cls()
        nodes, succ = graph._nodes, graph._succ
        try:
            for node in data["nodes"]:
                if not isinstance(node, dict):
                    raise TypeError(f"node {node!r} is not an object")
                verdict, score = node.get("verdict"), node.get("score")
                if not (score is None or NUMBER.test(score)):
                    raise TypeError(f"node score {score!r} is not a number")
                name = _node_name(node["id"])
                if name in nodes:
                    raise ValueError(f"node id {name!r} is listed twice")
                nodes[name] = {
                    "verdict": Verdict(verdict) if verdict is not None else None,
                    "score": score}
                succ[name] = {}
            for edge in data["edges"]:
                src, dst = _node_name(edge["src"]), _node_name(edge["dst"])
                mask = label_mask(edge["labels"])
                if src == dst:
                    raise SelfLoopError(f"self-loop on {src!r} rejected")
                for name in (src, dst):
                    if name not in nodes:
                        nodes[name] = {"verdict": None, "score": None}
                        succ[name] = {}
                targets = succ[src]
                targets[dst] = targets.get(dst, 0) | mask
        except (KeyError, TypeError, ValueError, SelfLoopError) as exc:
            raise GraphFormatError(f"bad graph document: {exc}") from exc
        # The core in one pass, each source's edges together.
        ids = graph._ids = dict(zip(nodes, range(len(nodes))))
        degree = np.fromiter(map(len, succ.values()), dtype=np.int64,
                             count=len(nodes))
        graph._degree.frombytes(degree.tobytes())
        graph._sources.frombytes(
            np.repeat(np.arange(len(nodes), dtype=np.int64), degree).tobytes())
        graph._targets.frombytes(np.fromiter(
            map(ids.__getitem__, chain.from_iterable(succ.values())),
            dtype=np.int64, count=int(degree.sum())).tobytes())
        return graph


# -- measurements ----------------------------------------------------------


def scc_count(graph: CommunityGraph) -> int:
    """Tarjan with an explicit stack; recursion would cap the graph size."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components = 0
    counter = 0

    for root in graph.nodes():
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph._succ[root]))]
        while work:
            node, successors = work[-1]
            descended = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph._succ[succ])))
                    descended = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    if member == node:
                        break
                components += 1
    return components


def _successor_arrays(graph: CommunityGraph) -> tuple[np.ndarray, np.ndarray]:
    """The graph in CSR form over node ids, the positions in ``graph.nodes()``.

    Node i's successors are ``indices[indptr[i]:indptr[i + 1]]``, in edge
    insertion order: a stable sort of the core's edges by source keeps each
    source's edges in the order they were added.
    """
    sources, targets = graph._edge_arrays()
    degree = graph._out_degrees()
    indptr = np.zeros(len(degree) + 1, dtype=np.intp)
    np.cumsum(degree, out=indptr[1:])
    # Ids below 2**16 sort by radix.
    order = np.argsort(sources.astype(np.min_scalar_type(len(degree))),
                       kind="stable")
    return indptr, targets[order]


# Entries one batch of sources may hold: a batch of B sources keys its nodes
# and edges as ``row * N + node``, so it keeps B·N entries per node array and
# a copy of the graph's B·E edges, and each source's BFS crosses an edge at
# most once.  2**16 gives a 500-node, 4000-edge graph batches of 16 sources
# and a traced peak under 3 MB; below 2**16 nodes and edges it also keeps
# every key, and so every discovery rank, in 16 bits.  ``avg_clustering``
# ANDs the bit rows of at most this many bytes at a time.
_BATCH_ENTRIES = 1 << 16

# float64 holds every integer below 2**53; a batch whose largest path count
# reaches it counts its paths again as Python ints.
_EXACT_PATHS = 2.0 ** 53


def _batch_paths(indptr: np.ndarray, indices: np.ndarray, roots: np.ndarray,
                 size: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Brandes' dependencies and the distances from each of ``roots``.

    ``indptr``/``indices`` hold one copy of the graph per batch row, over the
    keys ``row * N + node``; ``roots`` are the sources' keys, one per row, and
    ``size`` is the number of keys the rows span.  Returns (delta, dist,
    depth) over those keys: each source's own dependency is 0.0, unreached
    keys are at distance -1 and ``depth`` is the deepest level any source
    reached.

    The pass runs one BFS level of every source at a time.  The frontier's
    out-edges are gathered in frontier order, so a node's first discoverer
    is its first edge position, and the new frontier comes out in the order
    the one-source loop appends it.  The backward sweep adds each level's
    dependencies in decreasing discovery order of the edge heads, the loop's
    order, so every float sum rounds as the loop's does.
    """
    dist = np.full(size, -1, dtype=np.intp)
    sigma = np.zeros(size)
    dist[roots] = 0
    sigma[roots] = 1.0
    unset = np.iinfo(np.intp).max
    discoverer = np.full(size, unset)
    rank_type = np.min_scalar_type(size)  # 16-bit ranks sort by radix
    levels = []  # per level: (tails, heads) of its DAG edges, in sweep order
    frontier = roots
    depth = 0
    while True:
        starts = indptr[frontier]
        degree = indptr[frontier + 1] - starts
        ends = np.cumsum(degree)
        heads = indices[np.arange(ends[-1])
                        + np.repeat(starts - ends + degree, degree)]
        # np.compress is several times faster than a scattered boolean index.
        fresh = dist[heads] < 0
        heads = np.compress(fresh, heads)
        if not heads.size:
            break
        tails = np.compress(fresh, np.repeat(frontier, degree))
        position = np.arange(heads.size)
        np.minimum.at(discoverer, heads, position)
        first = discoverer[heads]
        discoverer[heads] = unset
        found = first == position
        frontier = np.compress(found, heads)
        rank = (np.cumsum(found) - 1)[first]
        depth += 1
        dist[frontier] = depth
        sigma[frontier] = np.bincount(rank, weights=sigma[tails],
                                      minlength=frontier.size)
        # Edges sharing a head feed different tails, so their order is free.
        order = np.argsort(rank.astype(rank_type), kind="stable")[::-1]
        levels.append((tails[order], heads[order]))

    paths = sigma
    if sigma.max() >= _EXACT_PATHS:  # int / int rounds as the loop's does
        paths = np.zeros(size, dtype=object)
        paths[roots] = 1
        for tails, heads in levels:
            np.add.at(paths, heads, paths[tails])

    delta = np.zeros(size)
    for tails, heads in reversed(levels):
        ratio = np.asarray(paths[tails] / paths[heads], dtype=float)
        np.add.at(delta, tails, ratio * (1.0 + delta[heads]))
    delta[roots] = 0.0
    return delta, dist, depth


def _shortest_paths(graph: CommunityGraph
                    ) -> tuple[dict[str, float], dict[str, float], int]:
    """Betweenness, in-closeness and diameter from one BFS per source.

    Brandes' accumulation, O(N·E) over node ids, run for a batch of sources
    at a time (``_batch_paths``).  Sources, BFS visits and dependency sums
    follow node and edge insertion order, which fixes the order of every
    float sum: the batches' dependencies are added to the betweenness one
    source at a time, in source order.  For each node v the sources reaching
    it and the sum of their distances to it are integers, so in-closeness is
    exact.  The deepest level of all is the diameter.
    """
    nodes = graph.nodes()
    count = len(nodes)
    indptr, indices = _successor_arrays(graph)
    edges = len(indices)
    batch = max(1, min(count, _BATCH_ENTRIES // max(edges, count, 1)))
    rows = np.arange(batch)[:, None]
    batch_indptr = np.append(indptr[:-1] + edges * rows, edges * batch)
    batch_indices = (indices + count * rows).ravel()
    centrality = np.zeros(count)
    reaching = np.zeros(count, dtype=np.int64)
    distance = np.zeros(count, dtype=np.int64)
    longest = 0
    for first in range(0, count, batch):
        sources = np.arange(first, min(first + batch, count))
        delta, dist, depth = _batch_paths(
            batch_indptr, batch_indices,
            np.arange(sources.size) * count + sources, sources.size * count)
        for row in delta.reshape(sources.size, count):
            centrality += row
        dist = dist.reshape(sources.size, count)
        reaching += (dist > 0).sum(axis=0)
        distance += dist.clip(min=0).sum(axis=0)
        longest = max(longest, depth)
    closeness = [n / total if n else 0.0
                 for n, total in zip(reaching.tolist(), distance.tolist())]
    return (dict(zip(nodes, centrality.tolist())), dict(zip(nodes, closeness)),
            longest)


def diameter(graph: CommunityGraph) -> int:
    """Longest shortest directed path over reachable ordered pairs."""
    if graph.node_count() == 0:
        raise ValueError("diameter of an empty graph is undefined")
    return _shortest_paths(graph)[2]


def _undirected_pairs(graph: CommunityGraph) -> tuple[np.ndarray, np.ndarray]:
    """The undirected simplification's edges as node id pairs (lo, hi).

    Each pair appears once, with lo < hi, and the pairs are sorted.  They are
    deduplicated as sorted ``lo * N + hi`` keys, not by ``np.unique``: with
    numpy 2.4 on a 2-core Xeon its first call in a process takes 10-17 ms,
    more than clustering and modularity together on a 100-node graph.
    """
    indptr, indices = _successor_arrays(graph)
    count = len(indptr) - 1
    sources = np.repeat(np.arange(count), np.diff(indptr))
    keys = np.minimum(sources, indices) * count + np.maximum(sources, indices)
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.divmod(keys[first], max(count, 1))


def _sum_in_order(values) -> float:
    """``values`` added one at a time, left to right.

    The builtin ``sum`` of floats is compensated from Python 3.12, and numpy
    sums in pairs, so either could change the last bit of a result.
    """
    total = 0.0
    for value in values:
        total += value
    return total


# The number of set bits of each byte value.
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)],
                     dtype=np.uint8)


def avg_clustering(graph: CommunityGraph) -> float:
    """Mean local clustering coefficient on the undirected simplification.

    Nodes with fewer than two neighbors contribute 0.

    A node's links are the triangles through it, and the common neighbours of
    an edge's ends are the triangles through that edge (Latapy, 2008).  Each
    node's neighbours are one row of bits, ``n * ceil(n / 8)`` bytes in all,
    and an edge's common neighbours are the set bits of its ends' rows ANDed,
    counted a batch of edges at a time.  Coefficients are added in node
    order, so the mean is the pairwise loop's to the last bit.
    """
    count = graph.node_count()
    if not count:
        return 0.0
    lo, hi = _undirected_pairs(graph)
    width = (count + 7) // 8
    rows = np.zeros(count * width, dtype=np.uint8)
    for a, b in ((lo, hi), (hi, lo)):
        np.bitwise_or.at(rows, a * width + (b >> 3),
                         np.left_shift(1, b & 7).astype(np.uint8))
    rows = rows.reshape(count, width)
    common = np.empty(lo.size, dtype=np.intp)
    batch = max(1, _BATCH_ENTRIES // width)
    for first in range(0, lo.size, batch):
        part = slice(first, first + batch)
        common[part] = _POPCOUNT[rows[lo[part]] & rows[hi[part]]].sum(
            axis=1, dtype=np.intp)
    ends = np.concatenate((lo, hi))
    degree = np.bincount(ends, minlength=count)
    # Each triangle through a node is counted once by each of its two edges.
    links = np.bincount(ends, weights=np.concatenate((common, common)),
                        minlength=count) / 2
    pairs = degree * (degree - 1)
    clustered = pairs > 0
    coefficients = np.zeros(count)
    coefficients[clustered] = 2.0 * links[clustered] / pairs[clustered]
    return _sum_in_order(coefficients.tolist()) / count


def betweenness(graph: CommunityGraph) -> dict[str, float]:
    """Unnormalized directed shortest-path betweenness (Brandes accumulation)."""
    return _shortest_paths(graph)[0]


def closeness_in(graph: CommunityGraph) -> dict[str, float]:
    """In-closeness: nodes reaching v divided by their summed distances."""
    return _shortest_paths(graph)[1]


@dataclass(frozen=True)
class Partition:
    """Community assignment: node name -> community index."""
    assignment: dict[str, int]

    def community_count(self) -> int:
        return len(set(self.assignment.values()))


def modularity(graph: CommunityGraph, assignment: dict) -> float:
    """Newman modularity of the node -> community ``assignment`` on the
    undirected simplification.

    Community labels may be any hashable values; they are numbered in the
    order their first node appears, and their terms are added in that order.
    """
    numbers: dict = {}
    community = []
    for node in graph.nodes():
        if node not in assignment:
            raise ValueError(f"partition misses node {node!r}")
        community.append(numbers.setdefault(assignment[node], len(numbers)))
    lo, hi = _undirected_pairs(graph)
    m = lo.size
    if m == 0:
        raise ValueError("modularity is undefined for a graph without edges")
    community = np.array(community, dtype=np.intp)
    a, b = community[lo], community[hi]
    degree_sum = np.bincount(np.concatenate((a, b)), minlength=len(numbers))
    intra = np.bincount(np.compress(a == b, a), minlength=len(numbers))
    quality = 0.0
    for inner, degrees in zip(intra.tolist(), degree_sum.tolist()):
        quality += inner / m - (degrees / (2.0 * m)) ** 2
    return quality


def detect_communities(graph: CommunityGraph) -> Partition:
    """Greedy agglomeration: merge the community pair with the best
    modularity gain until no merge improves it.  Deterministic given node
    insertion order; the result never has lower modularity than singletons.

    The heap form of Clauset, Newman & Moore (2004): communities start as
    node ids, and a lazy max-heap of ``(-gain, a, b)`` with ``a < b`` yields
    the best gain, ties going to the smallest pair.  Merging b into a (a < b
    survives) leaves other pairs' gains as they were and lowers the gain of
    each pair of a's whose edge count did not change, so only the pairs that
    took over b's edges are pushed.  A popped entry of two live communities
    whose gain is out of date goes back with its current gain; every live
    pair thus keeps an entry at or above its gain, and the first entry
    popped whose gain is current is the best pair.
    """
    nodes = graph.nodes()
    # links[a][b]: undirected edges between communities a and b.
    links: list[dict[int, int]] = [{} for _ in nodes]
    lo, hi = _undirected_pairs(graph)
    for a, b in zip(lo.tolist(), hi.tolist()):
        links[a][b] = links[b][a] = 1
    degree = [len(neighbours) for neighbours in links]
    m = sum(degree) // 2
    if m == 0:
        return Partition(assignment={node: i for i, node in enumerate(nodes)})

    two_m = 2.0 * m

    def gain(a: int, b: int) -> float:
        return links[a][b] / m - 2.0 * (degree[a] / two_m) * (degree[b] / two_m)

    members: list[list[int] | None] = [[i] for i in range(len(nodes))]
    heap = [(-gain(a, b), a, b)
            for a, neighbours in enumerate(links) for b in neighbours if a < b]
    heapq.heapify(heap)
    while heap:
        negative, a, b = heapq.heappop(heap)
        if members[a] is None or members[b] is None:
            continue
        current = gain(a, b)
        if -negative != current:
            heapq.heappush(heap, (-current, a, b))
            continue
        if current <= 1e-12:
            break
        # Merge b into a; every pair of b's becomes a pair of a's.
        survivor = links[a]
        del survivor[b]
        del links[b][a]
        degree[a] += degree[b]
        for x, count in links[b].items():
            neighbours = links[x]
            del neighbours[b]
            neighbours[a] = survivor[x] = survivor.get(x, 0) + count
            pair = (a, x) if a < x else (x, a)
            heapq.heappush(heap, (-gain(*pair), *pair))
        links[b] = {}
        members[a].extend(members[b])
        members[b] = None

    community_of = [0] * len(nodes)
    for community, group in enumerate(members):
        for node_id in group or ():
            community_of[node_id] = community
    relabel: dict[int, int] = {}
    return Partition(assignment={
        node: relabel.setdefault(community, len(relabel))
        for node, community in zip(nodes, community_of)})


@dataclass(frozen=True)
class GraphMeasurements:
    """Summary statistics of one community graph."""
    node_count: int
    edge_count: int
    diameter: int
    scc_count: int
    avg_clustering: float
    modularity: float
    mean_in_betweenness: float
    mean_in_closeness: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def measure(graph: CommunityGraph) -> GraphMeasurements:
    """All measurements at once.  A graph without edges gets modularity 0."""
    if graph.node_count() == 0:
        raise ValueError("cannot measure an empty graph")
    if graph.edge_count():
        quality = modularity(graph, detect_communities(graph).assignment)
    else:
        quality = 0.0
    central, closeness, longest = _shortest_paths(graph)
    count = graph.node_count()
    return GraphMeasurements(
        node_count=count,
        edge_count=graph.edge_count(),
        diameter=longest,
        scc_count=scc_count(graph),
        avg_clustering=avg_clustering(graph),
        modularity=quality,
        mean_in_betweenness=_sum_in_order(central.values()) / count,
        mean_in_closeness=_sum_in_order(closeness.values()) / count,
    )


# -- exports ----------------------------------------------------------------

_PLAIN_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|-?(\.\d+|\d+(\.\d*)?)")


def _dot_id(name: str) -> str:
    if _PLAIN_ID_RE.fullmatch(name):
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _to_dot(graph: CommunityGraph) -> str:
    ids = {name: _dot_id(name) for name in graph._nodes}
    lines = ["digraph community {"]
    for name, attrs in graph._nodes.items():
        verdict, score = attrs["verdict"], attrs["score"]
        data = [] if verdict is None else [f'verdict="{verdict.value}"']
        if score is not None:
            data.append(f'score="{score!r}"')
        suffix = f" [{', '.join(data)}]" if data else ""
        lines.append(f"  {ids[name]}{suffix};")
    for src, targets in graph._succ.items():
        for dst, mask in targets.items():
            lines.append(f'  {ids[src]} -> {ids[dst]} '
                         f'[label="{"|".join(LABEL_VALUES[mask])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# What ElementTree wrote for the GraphML root, its keys and the start of its
# graph element: one line after the declaration, empty elements as " />".
_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='UTF-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
    '<key id="d_verdict" for="node" attr.name="verdict" attr.type="string" />'
    '<key id="d_score" for="node" attr.name="score" attr.type="double" />'
    '<key id="d_labels" for="edge" attr.name="labels" attr.type="string" />'
    '<graph id="community" edgedefault="directed"')
# ElementTree's attribute escapes, in its order: "&" goes first, so no entity
# is escaped twice.
_ATTRIBUTE_ESCAPES = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"),
                      ('"', "&quot;"), ("\r", "&#13;"), ("\n", "&#10;"),
                      ("\t", "&#09;"))


def _xml_attribute(text: str) -> str:
    for char, entity in _ATTRIBUTE_ESCAPES:
        if char in text:
            text = text.replace(char, entity)
    return text


def _to_graphml(graph: CommunityGraph) -> bytes:
    """The bytes ``ElementTree.tostring(..., encoding="UTF-8",
    xml_declaration=True)`` gives for the graph's GraphML tree.

    Names are escaped as ElementTree escapes attributes; verdicts, scores and
    labels hold no character its text escapes touch.  A character UTF-8
    cannot encode, a lone surrogate, becomes a character reference.
    """
    ids = {name: _xml_attribute(name) for name in graph._nodes}
    parts = []
    for name, attrs in graph._nodes.items():
        verdict, score = attrs["verdict"], attrs["score"]
        data = "" if verdict is None else (
            f'<data key="d_verdict">{verdict.value}</data>')
        if score is not None:
            data += f'<data key="d_score">{score!r}</data>'
        parts.append(f'<node id="{ids[name]}">{data}</node>' if data
                     else f'<node id="{ids[name]}" />')
    for src, targets in graph._succ.items():
        for dst, mask in targets.items():
            parts.append(f'<edge source="{ids[src]}" target="{ids[dst]}">'
                         f'<data key="d_labels">{"|".join(LABEL_VALUES[mask])}'
                         '</data></edge>')
    body = f'>{"".join(parts)}</graph>' if parts else " />"
    return (_GRAPHML_HEAD + body + "</graphml>").encode("utf-8",
                                                         "xmlcharrefreplace")


def export_graph(graph: CommunityGraph, fmt: str) -> bytes:
    """Serialize to one of: json (edge list), graphml, dot."""
    if fmt == "json":
        payload = json.dumps(graph.to_json_dict(), sort_keys=True,
                             separators=(",", ":"), ensure_ascii=True)
        return payload.encode("utf-8")
    if fmt == "graphml":
        return _to_graphml(graph)
    if fmt == "dot":
        # A lone surrogate, which UTF-8 cannot encode, is written as its
        # Python escape; _dot_id doubles real backslashes, so ids stay distinct.
        return _to_dot(graph).encode("utf-8", "backslashreplace")
    raise GraphFormatError(f"unsupported export format {fmt!r}")


def import_json_edge_list(data: bytes) -> CommunityGraph:
    """Inverse of the json export, from the file's bytes."""
    return CommunityGraph.from_json_dict(parse_json(data, "JSON edge list"))
