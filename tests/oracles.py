"""Brute-force reference implementations used only by tests.

Each oracle takes the graph as (nodes, edges) primitives and answers by a
deliberately different route than the library: matrix closures, exhaustive
path enumeration, and direct formula evaluation.  The scorer's oracle is the
per-character loop that defines a score; the betweenness and community
oracles are the name-keyed loops that the int-indexed library code replaced,
and the clustering and modularity oracles are the neighbour-set loops that
the undirected pair arrays replaced;
the diameter and in-closeness oracles are the per-node BFS loops that the
single shortest-path pass replaced, and the shortest-path oracle is that
pass as a loop over one source at a time, as the batched numpy form
replaced; the normalizer's oracle is the three-substitution form it
replaced; the language detector's oracle tokenizes every text by one regex
findall; the fixture store's oracle parses
every post at load, as the lazy store replaced, and the store check's oracle
walks the records one at a time with its own post check, as the column
checks replaced; the generator's oracle draws through ``randint``,
``randrange`` and ``shuffle``,
and the trainer's oracle counts one character at a time.  The graph and
crawl-state oracles keep each edge's and
each discoverer's labels as a set of kinds, as the bitmask form replaced.
The selection oracle sums each blogger's discoverer shares in a loop over
the frontier map, as the ``bincount`` over frontier pairs replaced.
The transition-matrix oracle assigns one matrix cell per edge, the
GraphML oracle builds and writes an ElementTree, and the DOT oracle reads
each edge's labels as a set of kinds, as the array scatter, the string
writer and the mask-reading writer replaced.
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from itertools import islice
from xml.etree import ElementTree

import numpy as np

from spiderveil.cli import json_text
from spiderveil.corpus import (ENGLISH_FUNCTION_WORDS, LanguageVerdict,
                               NoteKind, Post, normalize_tag)
from spiderveil.crawler import (CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                                CrawlSession, SelectionPolicy, TransitionMatrix,
                                extract_frontiers, post_from_record,
                                validate_fixture, visit_log_to_json)
from spiderveil.errors import GraphFormatError, NotFoundError, SelfLoopError
from spiderveil.langmodel import SENTINEL, UNKNOWN, Verdict
from spiderveil.simnet import GLUE_RATE, _split_vocab, relevant_count
from spiderveil.socialgraph import LABEL_KINDS, Partition, _dot_id, _node_name

INF = float("inf")


def distance_matrix(nodes, edges):
    """All-pairs shortest directed distances by Floyd-Warshall."""
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for src, dst in edges:
        dist[index[src]][index[dst]] = 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return index, dist

def scc_count_oracle(nodes, edges) -> int:
    """Mutual-reachability closure via boolean matrix powers."""
    n = len(nodes)
    if n == 0:
        return 0
    index = {v: i for i, v in enumerate(nodes)}
    reach = np.eye(n, dtype=bool)
    for src, dst in edges:
        reach[index[src], index[dst]] = True
    while True:
        closed = reach | (reach @ reach)
        if (closed == reach).all():
            break
        reach = closed
    mutual = reach & reach.T
    classes = {frozenset(np.flatnonzero(mutual[i]).tolist()) for i in range(n)}
    return len(classes)


def diameter_oracle(nodes, edges) -> int:
    _, dist = distance_matrix(nodes, edges)
    best = 0
    n = len(nodes)
    for i in range(n):
        for j in range(n):
            if i != j and dist[i][j] != INF:
                best = max(best, int(dist[i][j]))
    return best


def _undirected_matrix(nodes, edges):
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    a = np.zeros((n, n), dtype=float)
    for src, dst in edges:
        if src != dst:
            a[index[src], index[dst]] = 1.0
            a[index[dst], index[src]] = 1.0
    return a


def avg_clustering_oracle(nodes, edges) -> float:
    """Triangle counts from the cube of the undirected adjacency matrix."""
    n = len(nodes)
    if n == 0:
        return 0.0
    a = _undirected_matrix(nodes, edges)
    cubed = a @ a @ a
    degrees = a.sum(axis=1)
    total = 0.0
    for i in range(n):
        k = degrees[i]
        if k >= 2:
            total += cubed[i, i] / (k * (k - 1))
    return total / n


def betweenness_oracle(nodes, edges) -> dict:
    """Per-node shortest-path dependency by exhaustive path enumeration.

    For every ordered pair (s, t) all directed simple paths of the shortest
    length are enumerated by depth-limited DFS; each interior node collects
    its share of the pair's path count.
    """
    index, dist = distance_matrix(nodes, edges)
    succ = {v: [] for v in nodes}
    for src, dst in edges:
        succ[src].append(dst)
    score = {v: 0.0 for v in nodes}
    for s in nodes:
        for t in nodes:
            if s == t or dist[index[s]][index[t]] == INF:
                continue
            budget = int(dist[index[s]][index[t]])
            paths: list[tuple] = []

            def walk(node, remaining, trail):
                if node == t and remaining == 0:
                    paths.append(tuple(trail))
                    return
                if remaining == 0:
                    return
                for nxt in succ[node]:
                    if nxt not in trail:
                        trail.append(nxt)
                        walk(nxt, remaining - 1, trail)
                        trail.pop()

            walk(s, budget, [s])
            if not paths:
                continue
            for path in paths:
                for interior in path[1:-1]:
                    score[interior] += 1.0 / len(paths)
    return score


def closeness_in_oracle(nodes, edges) -> dict:
    index, dist = distance_matrix(nodes, edges)
    out = {}
    for v in nodes:
        j = index[v]
        reaching = [dist[index[u]][j] for u in nodes
                    if u != v and dist[index[u]][j] != INF]
        out[v] = len(reaching) / sum(reaching) if reaching else 0.0
    return out


def modularity_oracle(nodes, edges, assignment) -> float:
    """Direct double sum over all ordered node pairs."""
    a = _undirected_matrix(nodes, edges)
    degrees = a.sum(axis=1)
    two_m = a.sum()
    if two_m == 0:
        raise ValueError("modularity undefined without edges")
    total = 0.0
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if assignment[u] == assignment[v]:
                total += a[i, j] - degrees[i] * degrees[j] / two_m
    return total / two_m


def propagate_oracle(p0, matrix, k: int):
    """p0 . M^k through numpy's explicit matrix power."""
    return np.asarray(p0, dtype=float) @ np.linalg.matrix_power(matrix, k)


def reference_transition_matrix(graph) -> TransitionMatrix:
    """One matrix cell per edge, as the scatter over successor-id arrays
    replaced; ``build_transition_matrix`` must give an equal matrix.

    A node without out-edges keeps its mass (self-loop entry), which keeps
    every row summing to one.
    """
    nodes = graph.nodes()
    if not nodes:
        raise ValueError("cannot build a transition matrix for an empty graph")
    index = {name: i for i, name in enumerate(nodes)}
    matrix = np.zeros((len(nodes), len(nodes)), dtype=float)
    for i, name in enumerate(nodes):
        successors = graph.successors(name)
        if successors:
            share = 1.0 / len(successors)
            for succ in successors:
                matrix[i, index[succ]] = share
        else:
            matrix[i, i] = 1.0
    return TransitionMatrix(ordering=nodes, entries=matrix)


def reference_select_next(frontier, p, policy: SelectionPolicy,
                          rng: random.Random, graph) -> str:
    """The per-pair loop that the ``bincount`` over frontier pairs replaced;
    ``frontier`` is the map target -> {parent: labels}.

    MaxMarkovProbability gives each blogger one walk step of mass from their
    discoverers, the sum over parents of parent mass / parent out-degree,
    and takes the largest; ties go to the earliest-inserted blogger.
    UniformRandom draws one float from ``rng``.
    """
    if not frontier:
        raise ValueError("frontier is empty")
    if policy is SelectionPolicy.UNIFORM_RANDOM:
        return next(islice(frontier, int(rng.random() * len(frontier)), None))

    # Each parent's share is divided once, not once per target it found.
    shares = {node: p[node] / max(graph.out_degree(node), 1) for node in p}
    best = None
    best_mass = -1.0
    for target, parents in frontier.items():
        mass = 0.0
        for parent in parents:
            mass += shares.get(parent, 0.0)
        if mass > best_mass:
            best_mass = mass
            best = target
    return best


def random_digraph(rng, max_nodes=8, edge_prob=0.3):
    """(nodes, edge set) with no self-loops; node count >= 1."""
    n = rng.randint(1, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    edges = set()
    for src in nodes:
        for dst in nodes:
            if src != dst and rng.random() < edge_prob:
                edges.add((src, dst))
    return nodes, sorted(edges)


def reference_score_text(model, text: str) -> float:
    """Mean log10 probability per character, one probability() call each.

    Sums left to right with plain float addition; the library's table scorer
    must return exactly this value.
    """
    mapped = "".join(c if c in model.vocabulary else UNKNOWN for c in text)
    padded = SENTINEL * (model.order - 1) + mapped
    total = 0.0
    for i in range(model.order - 1, len(padded)):
        context = padded[i - model.order + 1:i]
        total += math.log10(model.probability(context, padded[i]))
    return total / len(text)


def reference_normalize_text(raw: str) -> str:
    """Markup, control bytes and whitespace runs replaced by three regex
    substitutions, then trimmed and lowercased.

    ``normalize_text`` must return exactly this string.
    """
    text = re.sub(r"<[^>]*>", " ", raw)
    text = re.sub(r"[\x00-\x08\x0e-\x1f\x7f]", "", text)
    text = re.sub(r"\s+", " ", text)
    return text.strip().lower()


def reference_word_tokens(text: str) -> list[str]:
    """Every ``\\w+`` run of the lowercased text, by one regex findall."""
    return re.findall(r"\w+", text.lower())


def reference_detect_language(text: str, min_length: int = 20,
                              ratio: float = 0.12) -> LanguageVerdict:
    """The share of English function words among reference_word_tokens.

    ``detect_language`` must return this verdict with its constants
    ``LANGUAGE_MIN_LENGTH`` and ``ENGLISH_RATIO`` set to these arguments.
    """
    if len(text) < min_length:
        return LanguageVerdict.UNDETERMINED
    tokens = reference_word_tokens(text)
    if not tokens:
        return LanguageVerdict.UNDETERMINED
    hits = sum(1 for token in tokens if token in ENGLISH_FUNCTION_WORDS)
    if hits / len(tokens) >= ratio:
        return LanguageVerdict.ENGLISH
    return LanguageVerdict.NON_ENGLISH


def reference_betweenness(graph) -> dict[str, float]:
    """Unnormalized directed betweenness by Brandes accumulation over name-keyed
    dicts; the library's int-indexed version must return exactly these values.
    """
    nodes = graph.nodes()
    adjacency = {v: graph.successors(v) for v in nodes}
    centrality = {v: 0.0 for v in nodes}
    for source in nodes:
        order: list[str] = []
        preds: dict[str, list[str]] = {v: [] for v in nodes}
        sigma = {v: 0 for v in nodes}
        sigma[source] = 1
        dist = {v: -1 for v in nodes}
        dist[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            order.append(node)
            for nxt in adjacency[node]:
                if dist[nxt] < 0:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
                if dist[nxt] == dist[node] + 1:
                    sigma[nxt] += sigma[node]
                    preds[nxt].append(node)
        delta = {v: 0.0 for v in nodes}
        while order:
            node = order.pop()
            for pred in preds[node]:
                delta[pred] += sigma[pred] / sigma[node] * (1.0 + delta[node])
            if node != source:
                centrality[node] += delta[node]
    return centrality


def _successor_ids(graph) -> list[list[int]]:
    """Successor lists over node ids, the positions in ``graph.nodes()``."""
    nodes = graph.nodes()
    index = dict(zip(nodes, range(len(nodes))))
    successors = [[] for _ in nodes]
    for src, dst, _ in graph.edges():
        successors[index[src]].append(index[dst])
    return successors


def reference_shortest_paths(graph
                             ) -> tuple[dict[str, float], dict[str, float], int]:
    """Betweenness, in-closeness and diameter from one BFS per source, one
    source at a time over Python lists with exact integer path counts; the
    library's batched numpy pass must return exactly these values.

    Brandes' accumulation, O(N·E) over node ids.  Sources, BFS visits and
    dependency sums follow node and edge insertion order, which fixes the
    order of every float sum.  The backward sweep also counts, for each node
    v, the sources reaching it and the sum of their distances to it; both are
    integers, so in-closeness is exact.  The last node a BFS visits is its
    deepest, and the deepest of all is the diameter.
    """
    nodes = graph.nodes()
    adjacency = _successor_ids(graph)
    count = len(nodes)
    centrality = [0.0] * count
    reaching = [0] * count
    distance = [0] * count
    longest = 0
    for source in range(count):
        preds: list[list[int] | None] = [None] * count
        sigma = [0] * count
        sigma[source] = 1
        dist = [-1] * count
        dist[source] = 0
        order = [source]
        for node in order:  # BFS: ``order`` is also the queue
            depth = dist[node] + 1
            paths = sigma[node]
            for nxt in adjacency[node]:
                if dist[nxt] < 0:
                    dist[nxt] = depth
                    sigma[nxt] = paths
                    preds[nxt] = [node]
                    order.append(nxt)
                elif dist[nxt] == depth:
                    sigma[nxt] += paths
                    preds[nxt].append(node)
        longest = max(longest, dist[order[-1]])
        delta = [0.0] * count
        for i in range(len(order) - 1, 0, -1):
            node = order[i]
            paths = sigma[node]
            share = 1.0 + delta[node]
            for pred in preds[node]:
                delta[pred] += sigma[pred] / paths * share
            centrality[node] += delta[node]
            reaching[node] += 1
            distance[node] += dist[node]
    closeness = [n / total if n else 0.0 for n, total in zip(reaching, distance)]
    return dict(zip(nodes, centrality)), dict(zip(nodes, closeness)), longest


def _depth_counts(start: int, adjacency: list[list[int]]) -> list[int]:
    """Number of nodes at each BFS depth from ``start`` (depth 0 holds it)."""
    seen = [False] * len(adjacency)
    seen[start] = True
    layer = [start]
    counts = []
    while layer:
        counts.append(len(layer))
        following = []
        for node in layer:
            for nxt in adjacency[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    following.append(nxt)
        layer = following
    return counts


def reference_diameter(graph) -> int:
    """Longest shortest directed path over reachable ordered pairs, by one
    layered BFS per node; the library's single Brandes pass must agree."""
    if graph.node_count() == 0:
        raise ValueError("diameter of an empty graph is undefined")
    adjacency = _successor_ids(graph)
    return max(len(_depth_counts(start, adjacency)) - 1
               for start in range(len(adjacency)))


def reference_closeness_in(graph) -> dict[str, float]:
    """In-closeness by one layered BFS per node over the reversed graph; the
    library's single forward pass must return exactly these values."""
    nodes = graph.nodes()
    predecessors: list[list[int]] = [[] for _ in nodes]
    for src, targets in enumerate(_successor_ids(graph)):
        for dst in targets:
            predecessors[dst].append(src)
    closeness = {}
    for node_id, node in enumerate(nodes):
        counts = _depth_counts(node_id, predecessors)
        reaching = sum(counts) - 1
        if reaching == 0:
            closeness[node] = 0.0
        else:
            distance = sum(depth * n for depth, n in enumerate(counts))
            closeness[node] = reaching / distance
    return closeness


def _undirected_adjacency(graph) -> dict[str, set[str]]:
    """Neighbor sets of the undirected simplification (no self-loops)."""
    adjacency = {v: set() for v in graph.nodes()}
    for src, dst, _ in graph.edges():
        adjacency[src].add(dst)
        adjacency[dst].add(src)
    return adjacency


def _undirected_edges(graph) -> set[tuple[str, str]]:
    edges = set()
    for src, dst, _ in graph.edges():
        edges.add((src, dst) if src <= dst else (dst, src))
    return edges


def reference_avg_clustering(graph) -> float:
    """Mean local clustering coefficient by testing every neighbour pair of
    every node; the library's bit-row triangle count must return exactly
    this value.  Nodes with fewer than two neighbors contribute 0.
    """
    nodes = graph.nodes()
    if not nodes:
        return 0.0
    adjacency = _undirected_adjacency(graph)
    total = 0.0
    for node in nodes:
        neighbors = list(adjacency[node])
        degree = len(neighbors)
        if degree < 2:
            continue
        links = 0
        for i in range(degree):
            for j in range(i + 1, degree):
                if neighbors[j] in adjacency[neighbors[i]]:
                    links += 1
        total += 2.0 * links / (degree * (degree - 1))
    return total / len(nodes)


def reference_modularity(graph, assignment) -> float:
    """Newman modularity over name-keyed dicts of the undirected edges; the
    library's array form must return exactly this value."""
    for node in graph.nodes():
        if node not in assignment:
            raise ValueError(f"partition misses node {node!r}")
    edges = _undirected_edges(graph)
    m = len(edges)
    if m == 0:
        raise ValueError("modularity is undefined for a graph without edges")
    adjacency = _undirected_adjacency(graph)
    intra: dict[int, int] = {}
    degree_sum: dict[int, int] = {}
    for node in graph.nodes():
        community = assignment[node]
        degree_sum[community] = degree_sum.get(community, 0) + len(adjacency[node])
    for u, v in edges:
        if assignment[u] == assignment[v]:
            community = assignment[u]
            intra[community] = intra.get(community, 0) + 1
    quality = 0.0
    for community, degrees in degree_sum.items():
        quality += intra.get(community, 0) / m - (degrees / (2.0 * m)) ** 2
    return quality


def reference_detect_communities(graph) -> Partition:
    """Greedy agglomeration that rescans every community pair in sorted order
    on each merge; the library's heap-ordered merge must return exactly this
    partition.
    """
    nodes = graph.nodes()
    community_of = {node: i for i, node in enumerate(nodes)}
    adjacency = _undirected_adjacency(graph)
    edges = _undirected_edges(graph)
    m = len(edges)
    if m == 0:
        return Partition(assignment=community_of)

    degree = {i: len(adjacency[node]) for i, node in enumerate(nodes)}
    between: dict[tuple[int, int], int] = {}
    for u, v in edges:
        a, b = community_of[u], community_of[v]
        if a != b:
            key = (a, b) if a < b else (b, a)
            between[key] = between.get(key, 0) + 1

    two_m = 2.0 * m
    while between:
        best_gain = 1e-12
        best_pair = None
        for pair in sorted(between):
            a, b = pair
            gain = between[pair] / m - 2.0 * (degree[a] / two_m) * (degree[b] / two_m)
            if gain > best_gain:
                best_gain = gain
                best_pair = pair
        if best_pair is None:
            break
        a, b = best_pair
        degree[a] += degree.pop(b)
        for node, community in community_of.items():
            if community == b:
                community_of[node] = a
        merged: dict[tuple[int, int], int] = {}
        for (x, y), count in between.items():
            x = a if x == b else x
            y = a if y == b else y
            if x == y:
                continue
            key = (x, y) if x < y else (y, x)
            merged[key] = merged.get(key, 0) + count
        between = merged

    relabel: dict[int, int] = {}
    for node in nodes:
        community = community_of[node]
        if community not in relabel:
            relabel[community] = len(relabel)
        community_of[node] = relabel[community]
    return Partition(assignment=community_of)


def reference_check_post_record(post, where: str) -> None:
    """Raise GraphFormatError unless ``post`` is a well-formed post record,
    checking its rules one after another.

    ``crawler.post_fault([post])`` must be None exactly when this passes,
    and otherwise the end of this message after ``where``.
    """
    def bad(message: str) -> GraphFormatError:
        return GraphFormatError(f"{where}{message}")

    def nonempty_str(value) -> bool:
        return isinstance(value, str) and value != ""

    if not isinstance(post, dict):
        raise bad(" is not an object")
    for key in ("id", "blog_name", "type"):
        if not nonempty_str(post.get(key)):
            raise bad(f" has no non-empty string {key!r}")
    for key in ("body", "caption", "slug"):
        if key in post and not isinstance(post[key], str):
            raise bad(f".{key} is not a string")
    if "tags" in post:
        tags = post["tags"]
        if not (isinstance(tags, list) and all(isinstance(tag, str) for tag in tags)):
            raise bad(".tags is not an array of strings")
    if "notes" in post:
        notes = post["notes"]
        if not isinstance(notes, list):
            raise bad(".notes is not an array")
        for note in notes:
            # A tuple: membership compares with ==, so an unhashable kind
            # is rejected instead of raising TypeError.
            if not (isinstance(note, dict) and nonempty_str(note.get("blog_name"))
                    and note.get("kind") in ("like", "reblog")):
                raise bad(" has a note without a non-empty string "
                          "'blog_name' and a 'kind' of like or reblog")


def reference_validate_fixture(data) -> None:
    """Raise GraphFormatError unless ``data`` is a well-formed fixture store,
    checking one record at a time.

    ``validate_fixture`` must accept exactly what this accepts and raise the
    same message, the one naming the first fault in record order.
    """
    def bad(message: str) -> GraphFormatError:
        return GraphFormatError(f"bad fixture store: {message}")

    if not isinstance(data, dict):
        raise bad("top level is not an object")
    for key in ("blogs", "posts"):
        if key not in data:
            raise bad(f"{key!r} is missing")
        if not isinstance(data[key], list):
            raise bad(f"{key!r} is not an array")
    if "seed" in data and not (isinstance(data["seed"], str) and data["seed"] != ""):
        raise bad("'seed' is not a non-empty string")
    for i, blog in enumerate(data["blogs"]):
        name = blog.get("name") if isinstance(blog, dict) else None
        if not (isinstance(name, str) and name != ""):
            raise bad(f"blogs[{i}] has no non-empty string 'name'")
    seen: set[str] = set()
    for i, post in enumerate(data["posts"]):
        reference_check_post_record(post, f"bad fixture store: posts[{i}]")
        if post["id"] in seen:
            raise bad(f"duplicate post id {post['id']!r}")
        seen.add(post["id"])


def reference_store_index(data: dict) -> tuple[dict, dict, set]:
    """(posts by blogger, posts by tag, known bloggers) of a checked store,
    as post indexes in record order, built one record at a time.

    ``FixtureStore`` must build equal ``_by_blogger``, ``_by_tag`` and
    ``_blogs``.
    """
    by_blogger: dict[str, list[int]] = {}
    by_tag: dict[str, list[int]] = {}
    blogs = {blog["name"] for blog in data["blogs"]}
    for index, record in enumerate(data["posts"]):
        blogs.add(record["blog_name"])
        if record["type"] != "text":
            continue
        by_blogger.setdefault(record["blog_name"], []).append(index)
        for tag in set(map(normalize_tag, record.get("tags", ()))):
            if tag:
                by_tag.setdefault(tag, []).append(index)
    return by_blogger, by_tag, blogs


class EagerFixtureStore:
    """Fixture store that parses every text post when it is made.

    It answers only the two requests of the data-source contract, so a
    caller that needs anything more fails on it.  ``FixtureStore`` must
    answer every request with equal posts.  Post arrays are ordered
    most-recent-first, so "the newest N" is a prefix slice.
    """

    def __init__(self, data: dict):
        validate_fixture(data)
        self._by_blogger: dict[str, list[Post]] = {}
        self._by_tag: dict[str, list[Post]] = {}
        self._blogs = {blog["name"] for blog in data["blogs"]}
        self.seed_blogger: str | None = data.get("seed")
        for record in data["posts"]:
            self._blogs.add(record["blog_name"])
            if record["type"] != "text":
                continue
            post = post_from_record(record, {})
            self._by_blogger.setdefault(post.blog_name, []).append(post)
            for tag in dict.fromkeys(post.tags):
                self._by_tag.setdefault(tag, []).append(post)

    def tagged_posts(self, tag: str, limit: int | None = None) -> list[Post]:
        return self._by_tag.get(normalize_tag(tag), [])[:limit]

    def blogger_posts(self, blog_name: str, limit: int | None = None) -> list[Post]:
        if blog_name not in self._blogs:
            raise NotFoundError(f"unknown blogger {blog_name!r}")
        return self._by_blogger.get(blog_name, [])[:limit]


def reference_train_counts(documents, order: int) -> tuple[dict, int]:
    """(counts, trained_chars) by one dict update per character, left to right.

    ``train`` must build equal counts with contexts and rows in this
    insertion order.
    """
    counts: dict[str, dict[str, int]] = {}
    trained_chars = 0
    for doc in documents:
        if not doc:
            continue
        padded = SENTINEL * (order - 1) + doc
        for i in range(order - 1, len(padded)):
            context = padded[i - order + 1:i]
            row = counts.setdefault(context, {})
            char = padded[i]
            row[char] = row.get(char, 0) + 1
            trained_chars += 1
    return counts, trained_chars


def _reference_compose_post(rng: random.Random, content: list[str], glue: list[str],
                            words_range: tuple[int, int]) -> str:
    count = rng.randint(*words_range)
    glue_count = round(GLUE_RATE * count) if glue else 0
    tokens = [content[rng.randrange(len(content))]
              for _ in range(count - glue_count)]
    tokens += [glue[rng.randrange(len(glue))] for _ in range(glue_count)]
    rng.shuffle(tokens)
    return " ".join(tokens)


def reference_generate(params) -> tuple[dict, dict[str, bool]]:
    """The generator drawing every word through ``Random.randrange`` and
    ``Random.shuffle``, and rescanning the community for each blogger's pool.

    ``generate`` must return an equal store and truth map for every params.
    """
    n_relevant = relevant_count(params)
    if n_relevant < 1 or n_relevant >= params.total_bloggers:
        raise ValueError("params leave one community empty")
    rng = random.Random(params.rng_seed)
    width = max(3, len(str(params.total_bloggers - 1)))
    names = [f"blogger-{i:0{width}d}" for i in range(params.total_bloggers)]
    truth = {name: i < n_relevant for i, name in enumerate(names)}
    relevant_names = names[:n_relevant]
    decoy_names = names[n_relevant:]
    seed_name = relevant_names[0]

    on_content, on_glue = _split_vocab(params.on_topic_vocab)
    off_content, off_glue = _split_vocab(params.off_topic_vocab)
    note_low, note_high = params.notes_per_post

    posts = []
    post_serial = 0
    for index, name in enumerate(names):
        is_relevant = truth[name]
        same_pool = [n for n in (relevant_names if is_relevant else decoy_names)
                     if n != name]
        other_pool = decoy_names if is_relevant else relevant_names
        for _ in range(params.posts_per_blogger):
            mixed = (is_relevant and name != seed_name
                     and rng.random() < params.mixing_prob)
            if is_relevant and not mixed:
                content, glue, tag_pool = on_content, on_glue, params.on_topic_tags
            elif is_relevant:
                content, glue, tag_pool = off_content, off_glue, ()
            else:
                content, glue, tag_pool = off_content, off_glue, params.off_topic_tags
            body = _reference_compose_post(rng, content, glue, params.words_per_post)

            tags: list[str] = []
            if tag_pool:
                tags.append(tag_pool[rng.randrange(len(tag_pool))])
                if len(tag_pool) > 1 and rng.random() < 0.5:
                    remaining = [t for t in tag_pool if t != tags[0]]
                    tags.append(remaining[rng.randrange(len(remaining))])

            note_count = note_high if name == seed_name else rng.randint(note_low, note_high)
            notes = []
            seen_notes = set()
            for _ in range(note_count):
                pool = same_pool if rng.random() < params.intra_community_note_bias else other_pool
                if not pool:
                    pool = other_pool or same_pool
                if not pool:
                    continue
                noter = pool[rng.randrange(len(pool))]
                kind = "like" if rng.random() < 0.5 else "reblog"
                if (noter, kind) in seen_notes:
                    continue
                seen_notes.add((noter, kind))
                notes.append({"blog_name": noter, "kind": kind})

            posts.append({
                "id": f"post-{post_serial:05d}",
                "blog_name": name,
                "type": "text",
                "body": body,
                "tags": tags,
                "notes": notes,
            })
            post_serial += 1

    store = {
        "blogs": [{"name": name} for name in names],
        "posts": posts,
        "seed": seed_name,
    }
    return store, truth


def reference_graphml(graph) -> bytes:
    """The GraphML tree built and written by ElementTree, as the string
    writer replaced; ``export_graph(graph, "graphml")`` must return exactly
    these bytes."""
    ns = "http://graphml.graphdrawing.org/xmlns"
    ElementTree.register_namespace("", ns)
    root = ElementTree.Element(f"{{{ns}}}graphml")
    for key_id, target, name, kind in (
            ("d_verdict", "node", "verdict", "string"),
            ("d_score", "node", "score", "double"),
            ("d_labels", "edge", "labels", "string")):
        key = ElementTree.SubElement(root, f"{{{ns}}}key")
        key.set("id", key_id)
        key.set("for", target)
        key.set("attr.name", name)
        key.set("attr.type", kind)
    container = ElementTree.SubElement(root, f"{{{ns}}}graph")
    container.set("id", "community")
    container.set("edgedefault", "directed")
    for name in graph.nodes():
        node = ElementTree.SubElement(container, f"{{{ns}}}node")
        node.set("id", name)
        verdict = graph.verdict(name)
        if verdict is not None:
            data = ElementTree.SubElement(node, f"{{{ns}}}data")
            data.set("key", "d_verdict")
            data.text = verdict.value
        score = graph.score(name)
        if score is not None:
            data = ElementTree.SubElement(node, f"{{{ns}}}data")
            data.set("key", "d_score")
            data.text = repr(score)
    for src, dst, labels in graph.edges():
        edge = ElementTree.SubElement(container, f"{{{ns}}}edge")
        edge.set("source", src)
        edge.set("target", dst)
        data = ElementTree.SubElement(edge, f"{{{ns}}}data")
        data.set("key", "d_labels")
        data.text = "|".join(sorted(label.value for label in labels))
    return ElementTree.tostring(root, encoding="UTF-8", xml_declaration=True)


def reference_dot(graph) -> str:
    """The DOT text built through the accessors and label sets, as the
    mask-reading writer replaced; ``export_graph(graph, "dot")`` must return
    its UTF-8 bytes, a lone surrogate as its backslash escape."""
    lines = ["digraph community {"]
    for name in graph.nodes():
        attrs = []
        verdict = graph.verdict(name)
        if verdict is not None:
            attrs.append(f'verdict="{verdict.value}"')
        score = graph.score(name)
        if score is not None:
            attrs.append(f'score="{score!r}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_id(name)}{suffix};")
    for src, dst, labels in graph.edges():
        joined = "|".join(sorted(label.value for label in labels))
        lines.append(f'  {_dot_id(src)} -> {_dot_id(dst)} [label="{joined}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


class ReferenceGraph:
    """The set-labelled graph that ``CommunityGraph`` replaced, cut to what
    serialization and the store's checks need.

    Each edge keeps a set of ``NoteKind``; ``from_json_dict`` adds one link
    per label.  ``CommunityGraph`` must give equal documents, and read every
    document this accepts (with non-empty labels and unique node ids) into
    the same nodes and edges in the same order.
    """

    def __init__(self):
        self._nodes: dict[str, dict] = {}
        self._succ: dict[str, dict[str, set[NoteKind]]] = {}

    def add_node(self, name: str, verdict: Verdict | None = None,
                 score: float | None = None) -> None:
        if not name:
            raise ValueError("node name must be non-empty")
        attrs = self._nodes.setdefault(name, {"verdict": None, "score": None})
        if verdict is not None:
            attrs["verdict"] = verdict
        if score is not None:
            attrs["score"] = score
        self._succ.setdefault(name, {})

    def add_link(self, src: str, dst: str, label: NoteKind) -> None:
        if src == dst:
            raise SelfLoopError(f"self-loop on {src!r} rejected")
        if not isinstance(label, NoteKind):
            raise ValueError(f"edge label must be a NoteKind, got {label!r}")
        self.add_node(src)
        self.add_node(dst)
        self._succ[src].setdefault(dst, set()).add(label)

    def add_labels(self, src: str, dst: str, mask: int) -> None:
        """One link per kind whose bit ``mask`` sets: bit i is the i-th
        ``NoteKind``."""
        for bit, kind in enumerate(NoteKind):
            if mask >> bit & 1:
                self.add_link(src, dst, kind)

    def project(self, label: NoteKind) -> "ReferenceGraph":
        sub = ReferenceGraph()
        for src, dst, labels in self.edges():
            if label in labels:
                sub.add_node(src, **self._nodes[src])
                sub.add_node(dst, **self._nodes[dst])
                sub.add_link(src, dst, label)
        return sub

    def nodes(self) -> list[str]:
        return list(self._nodes)

    def edges(self):
        for src, targets in self._succ.items():
            for dst, labels in targets.items():
                yield src, dst, frozenset(labels)

    def verdict(self, name: str) -> Verdict | None:
        return self._nodes[name]["verdict"]

    def score(self, name: str) -> float | None:
        return self._nodes[name]["score"]

    def to_json_dict(self) -> dict:
        nodes = []
        for name, attrs in self._nodes.items():
            verdict = attrs["verdict"]
            nodes.append({
                "id": name,
                "verdict": verdict.value if verdict is not None else None,
                "score": attrs["score"],
            })
        edges = []
        for src, dst, labels in self.edges():
            edges.append({
                "src": src,
                "dst": dst,
                "labels": sorted(label.value for label in labels),
            })
        return {"nodes": nodes, "edges": edges}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ReferenceGraph":
        if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
            raise GraphFormatError("graph document needs 'nodes' and 'edges'")
        if not (isinstance(data["nodes"], list) and isinstance(data["edges"], list)):
            raise GraphFormatError("graph document 'nodes' and 'edges' are not arrays")
        graph = cls()
        try:
            for node in data["nodes"]:
                if not isinstance(node, dict):
                    raise TypeError(f"node {node!r} is not an object")
                verdict, score = node.get("verdict"), node.get("score")
                # math.isfinite raises OverflowError for an int no float holds.
                if not (score is None or isinstance(score, (int, float))
                        and not isinstance(score, bool) and math.isfinite(score)):
                    raise TypeError(f"node score {score!r} is not a finite number")
                graph.add_node(_node_name(node["id"]),
                               Verdict(verdict) if verdict is not None else None,
                               score)
            for edge in data["edges"]:
                src, dst = _node_name(edge["src"]), _node_name(edge["dst"])
                if not isinstance(edge["labels"], list):
                    raise TypeError(f"edge labels {edge['labels']!r} are not an array")
                for label in edge["labels"]:
                    graph.add_link(src, dst, NoteKind(label))
        except (KeyError, TypeError, ValueError, OverflowError, SelfLoopError) as exc:
            raise GraphFormatError(f"bad graph document: {exc}") from exc
        return graph


def live_pairs(frontier):
    """Each live blogger, in slot order, with its discoverer ids in pair
    order: the frontier's pairs with the slot numbers taken out."""
    slots, parent_ids, tombstones, names = frontier.pairs()
    live = {names[slot]: [] for slot in np.flatnonzero(tombstones == 0.0)}
    for slot, parent_id in zip(slots.tolist(), parent_ids.tolist()):
        if tombstones[slot] == 0.0:
            live[names[slot]].append(parent_id)
    return list(live.items())


def session_state(session: CrawlSession) -> dict:
    """The live state of a crawl session that a resume must restore: the
    checkpoint as ``crawl`` writes it, the frontier's live pairs in the
    order selection sums them, and the RNG state.  The blogger picked next
    is set apart from the other live pairs, since a resume lists it last;
    it is visited before the next selection reads the pairs."""
    document = session.checkpoint()
    current, pairs = document["current"], live_pairs(session._frontier)
    return {"checkpoint": json_text(document),
            "pairs": [pair for pair in pairs if pair[0] != current],
            "current pairs": dict(pairs).get(current),
            "rng": session._rng.getstate()}


class ReferenceCrawlSession(CrawlSession):
    """A crawl session whose frontier keeps each discoverer's labels as a set
    of kinds and links one label at a time, with the checkpoint expressions
    that read them; ``CrawlSession`` must write equal checkpoints.  Its
    bloggers enter the frontier that ``CrawlSession`` builds over the
    session's graph through ``Frontier.add``, each discoverer a graph node
    by then, as the session's do, so selection reads the same pairs."""

    def _admit(self, name: str, score: float, posts, parents) -> None:
        self._graph.add_node(name, Verdict.RELEVANT, score)
        for parent, labels in parents.items():
            self._link(parent, name, labels)
        for target, mask in extract_frontiers(name, posts, self._config).items():
            labels = LABEL_KINDS[mask]
            if target in self._processed:
                if self._graph.has_node(target):
                    self._link(name, target, labels)
                continue
            self._frontier.add(target, name, set(labels))

    def _link(self, src: str, dst: str, labels) -> None:
        for label in sorted(labels, key=lambda kind: kind.value):
            self._graph.add_link(src, dst, label)

    # The selections made, counted as they happen; ``CrawlSession`` derives
    # the count from its processed bloggers and stop reason.
    _selections = 0

    def step(self) -> bool:
        running = super().step()
        self._selections += running
        return running

    def checkpoint(self) -> dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": self._config.to_json_dict(),
            "current": self._current,
            "stop_reason": self._stop.value if self._stop is not None else None,
            "selections": self._selections,
            "visit_log": visit_log_to_json(self._visit_log),
            "discarded": list(self._discarded),
            "processed": list(self._processed),
            "frontier": [{"blog_name": target,
                          "relation": sorted({k.value for labels in parents.values()
                                              for k in labels}),
                          "parent": next(iter(parents))}
                         for target, parents in self._frontier.parents.items()
                         if target != self._current],
            "pending": {target: {parent: sorted(k.value for k in labels)
                                 for parent, labels in parents.items()}
                        for target, parents in self._frontier.parents.items()},
            "graph": self._graph.to_json_dict(),
        }
