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
import math
import re
from array import array
from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np

from .corpus import NoteKind
from .errors import NUMBER, GraphFormatError, SelfLoopError, parse_json
from .langmodel import Verdict, verdict_of


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


def label_mask(values) -> int:
    """The mask of a JSON label array: a non-empty list of kind values."""
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


class CommunityGraph:
    """Directed graph; at most one edge per ordered pair, with a label mask.

    Each node and edge is kept once, by integer id.  A node's id is its
    position in ``nodes()``, and its verdict and score are the entries of two
    lists at that id.  Each edge's label mask is the value of its key,
    ``source id << 32 | target id``, in one map, which keeps the edges in
    insertion order; an int key, unlike a tuple, gives the garbage collector
    nothing to track.  For the numeric code the graph also keeps the edges'
    source ids and target ids, in that order, and the out-degrees as arrays.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._verdicts: list[Verdict | None] = []
        self._scores: list[float | None] = []
        self._masks: dict[int, int] = {}
        self._sources = array("q")
        self._targets = array("q")
        self._degree = array("q")

    # -- construction -----------------------------------------------------

    def add_node(self, name: str, verdict: Verdict | None = None,
                 score: float | None = None) -> int:
        """Add ``name`` if it is new, set the attributes given; its id."""
        if not name:
            raise ValueError("node name must be non-empty")
        node = self._ids.get(name)
        if node is None:
            node = self._ids[name] = len(self._verdicts)
            self._verdicts.append(None)
            self._scores.append(None)
            self._degree.append(0)
        if verdict is not None:
            self._verdicts[node] = verdict
        if score is not None:
            self._scores[node] = score
        return node

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
        source, target = self.add_node(src), self.add_node(dst)
        key = source << 32 | target
        if key not in self._masks:
            self._sources.append(source)
            self._targets.append(target)
            self._degree[source] += 1
        self._masks[key] = self._masks.get(key, 0) | mask

    # -- accessors --------------------------------------------------------

    def nodes(self) -> list[str]:
        return list(self._ids)

    def has_node(self, name: str) -> bool:
        return name in self._ids

    def node_count(self) -> int:
        return len(self._ids)

    def edge_count(self) -> int:
        return len(self._masks)

    def edges(self):
        """Yield (src, dst, frozenset of labels): sources in node order, each
        source's edges in insertion order."""
        for src, dst, mask in self._named_edges():
            yield src, dst, LABEL_KINDS[mask]

    def labels(self, src: str, dst: str) -> frozenset[NoteKind]:
        return LABEL_KINDS[self._masks[self._ids[src] << 32 | self._ids[dst]]]

    def successors(self, name: str) -> list[str]:
        """The targets of ``name``'s edges, in insertion order."""
        node, names = self._ids.get(name), self.nodes()
        return [names[target] for source, target in zip(self._sources, self._targets)
                if source == node]

    def out_degree(self, name: str) -> int:
        node = self._ids.get(name)
        return 0 if node is None else self._degree[node]

    def verdict(self, name: str) -> Verdict | None:
        return self._verdicts[self._ids[name]]

    def score(self, name: str) -> float | None:
        return self._scores[self._ids[name]]

    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the edges' source ids and target ids, in insertion order."""
        return (np.array(self._sources, dtype=np.intp),
                np.array(self._targets, dtype=np.intp))

    def _out_degrees(self) -> np.ndarray:
        """A copy of the out-degrees, by node id."""
        return np.array(self._degree, dtype=np.intp)

    def _edge_order(self) -> np.ndarray:
        """Edge positions by source id, each source's in insertion order."""
        # A stable sort; ids below 2**16 sort by radix.
        sources = np.array(self._sources, dtype=np.min_scalar_type(len(self._ids)))
        return np.argsort(sources, kind="stable")

    def _named_edges(self):
        """(src, dst, mask) of each edge, in ``_edge_order()``."""
        order = self._edge_order()
        names = np.fromiter(self._ids, dtype=object, count=len(self._ids))
        # Every mask fits a byte.
        masks = np.frombuffer(bytes(self._masks.values()), dtype=np.uint8)
        sources, targets = self._edge_arrays()
        return zip(names[sources[order]].tolist(),
                   names[targets[order]].tolist(), masks[order].tolist())

    def project(self, label: NoteKind) -> "CommunityGraph":
        """Subgraph of edges carrying ``label``; only their endpoints remain."""
        bit = LABEL_BIT[label.value]
        sub = CommunityGraph()
        for src, dst, mask in self._named_edges():
            if mask & bit:
                sub.add_node(src, self.verdict(src), self.score(src))
                sub.add_node(dst, self.verdict(dst), self.score(dst))
                sub.add_labels(src, dst, bit)
        return sub

    def __eq__(self, other) -> bool:
        """Equal nodes, attributes, edges and labels, in any order."""
        if not isinstance(other, CommunityGraph):
            return NotImplemented
        return (dict(zip(self._ids, zip(self._verdicts, self._scores)))
                == dict(zip(other._ids, zip(other._verdicts, other._scores)))
                and set(self._named_edges()) == set(other._named_edges()))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = [{"id": name,
                  "verdict": verdict.value if verdict is not None else None,
                  "score": score}
                 for name, verdict, score in zip(self._ids, self._verdicts,
                                                 self._scores)]
        edges = [{"src": src, "dst": dst, "labels": list(LABEL_VALUES[mask])}
                 for src, dst, mask in self._named_edges()]
        return {"nodes": nodes, "edges": edges}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CommunityGraph":
        """Read a graph document: the nodes in one pass, then the edges in
        one pass that names the first fault.

        Listed nodes come first, then edge ends not listed, in edge order
        with ``src`` before ``dst``.  A repeated edge ORs its labels.
        """
        if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
            raise GraphFormatError("graph document needs 'nodes' and 'edges'")
        if not (isinstance(data["nodes"], list) and isinstance(data["edges"], list)):
            raise GraphFormatError("graph document 'nodes' and 'edges' are not arrays")
        graph = cls()
        ids, masks, verdicts, scores = (graph._ids, graph._masks,
                                        graph._verdicts, graph._scores)
        try:
            for node in data["nodes"]:
                if not isinstance(node, dict):
                    raise TypeError(f"node {node!r} is not an object")
                verdict, score = node.get("verdict"), node.get("score")
                if not (score is None or (NUMBER.test(score) and math.isfinite(score))):
                    raise TypeError(f"node score {score!r} is not a finite number")
                name = _node_name(node["id"])
                if name in ids:
                    raise ValueError(f"node id {name!r} is listed twice")
                verdicts.append(verdict_of(verdict) if verdict is not None else None)
                scores.append(score)
                ids[name] = len(ids)
            for edge in data["edges"]:
                src, dst = _node_name(edge["src"]), _node_name(edge["dst"])
                mask = label_mask(edge["labels"])
                if src == dst:
                    raise SelfLoopError(f"self-loop on {src!r} rejected")
                # setdefault reads len(ids) before it adds the name.
                key = (ids.setdefault(src, len(ids)) << 32
                       | ids.setdefault(dst, len(ids)))
                masks[key] = masks.get(key, 0) | mask
        except (KeyError, TypeError, ValueError, SelfLoopError) as exc:
            raise GraphFormatError(f"bad graph document: {exc}") from exc
        verdicts.extend(repeat(None, len(ids) - len(verdicts)))
        scores.extend(repeat(None, len(ids) - len(scores)))
        keys = np.fromiter(masks, dtype=np.int64, count=len(masks))
        graph._sources.frombytes((keys >> 32).tobytes())
        graph._targets.frombytes((keys & 0xFFFFFFFF).tobytes())
        graph._degree.frombytes(np.bincount(
            keys >> 32, minlength=len(ids)).astype(np.int64).tobytes())
        return graph


# -- measurements ----------------------------------------------------------


def scc_count(graph: CommunityGraph) -> int:
    """Tarjan over node ids with an explicit stack; recursion would cap the
    graph size.  A node leaving the stack with its component takes an index
    above every lowlink, so an edge into it lowers none."""
    indptr, indices = (part.tolist() for part in _successor_arrays(graph))
    successors = [indices[start:end] for start, end in zip(indptr, indptr[1:])]
    count = len(successors)
    index = [-1] * count
    lowlink = [0] * count
    stack: list[int] = []
    components = counter = 0

    for root in range(count):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, pending = work[-1]
            for succ in pending:
                if index[succ] < 0:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    work.append((succ, iter(successors[succ])))
                    break
                lowlink[node] = min(lowlink[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    member = None
                    while member != node:
                        member = stack.pop()
                        index[member] = count
                    components += 1
    return components


def _successor_arrays(graph: CommunityGraph) -> tuple[np.ndarray, np.ndarray]:
    """The graph in CSR form over node ids, the positions in ``graph.nodes()``.

    Node i's successors are ``indices[indptr[i]:indptr[i + 1]]``, in edge
    insertion order (``CommunityGraph._edge_order``).
    """
    indptr = np.zeros(graph.node_count() + 1, dtype=np.intp)
    np.cumsum(graph._out_degrees(), out=indptr[1:])
    return indptr, graph._edge_arrays()[1][graph._edge_order()]


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
    sources, targets = graph._edge_arrays()
    count = graph.node_count()
    keys = np.minimum(sources, targets) * count + np.maximum(sources, targets)
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
# DOT's keywords, in any case, are ids only when quoted.
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_id(name: str) -> str:
    if _PLAIN_ID_RE.fullmatch(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _to_dot(graph: CommunityGraph) -> str:
    ids = {name: _dot_id(name) for name in graph._ids}
    lines = ["digraph community {"]
    for name, verdict, score in zip(graph._ids, graph._verdicts, graph._scores):
        data = [] if verdict is None else [f'verdict="{verdict.value}"']
        if score is not None:
            data.append(f'score="{score!r}"')
        suffix = f" [{', '.join(data)}]" if data else ""
        lines.append(f"  {ids[name]}{suffix};")
    for src, dst, mask in graph._named_edges():
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
    ids = {name: _xml_attribute(name) for name in graph._ids}
    parts = []
    for name, verdict, score in zip(graph._ids, graph._verdicts, graph._scores):
        data = "" if verdict is None else (
            f'<data key="d_verdict">{verdict.value}</data>')
        if score is not None:
            data += f'<data key="d_score">{score!r}</data>'
        parts.append(f'<node id="{ids[name]}">{data}</node>' if data
                     else f'<node id="{ids[name]}" />')
    for src, dst, mask in graph._named_edges():
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
