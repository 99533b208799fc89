"""Topical crawl engine.

A self-avoiding walk over bloggers: fetch a blogger's recent text posts,
score them with the one-class model, and if the blogger clears the threshold
add them to the community graph and queue the people who liked or reblogged
those posts.  The next blogger to visit is picked either uniformly at random
or by the propagated mass of a Markov chain over the graph built so far.
"""

from __future__ import annotations

import json
import logging
import math
import random
import time
from array import array
from collections import defaultdict
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import chain, count, islice, repeat
from operator import itemgetter
from typing import TYPE_CHECKING
from urllib.parse import quote, urlencode

import numpy as np

from .corpus import NoteKind, NoteRecord, Post, filter_english, normalize_tag
from .errors import (COUNT, INTEGER, NUMBER, STRING, STRINGS, GraphFormatError,
                     JsonKind, NotFoundError, RetrievalError, ScoringError,
                     apply_kinds, read_fields, read_json)
from .langmodel import NGramModel, Verdict, classify, score_blogger, verdict_of
from .socialgraph import CommunityGraph, LABEL_BIT, LABEL_VALUES, label_mask

if TYPE_CHECKING:
    from http.client import HTTPMessage

logger = logging.getLogger("spiderveil.crawler")

CHECKPOINT_FORMAT = "spiderveil.checkpoint"
CHECKPOINT_VERSION = 1

# The selection chain is propagated one step per completed visit, capped so
# that selection stays cheap on large graphs; the chain has long converged
# by then.
PROPAGATION_CAP = 64

# The (blog_name, kind value) pair a note record is interned under.
_NOTE_KEY = itemgetter("blog_name", "kind")
# The value an absent tags or notes array is read as.
_NO_ITEMS: list = []


def _instances(kind: type, values) -> bool:
    """True when every value is an instance of ``kind``, tested once per
    type present."""
    return all(issubclass(value_type, kind) for value_type in set(map(type, values)))


def _names(values) -> bool:
    """True when every value is a non-empty string."""
    return _instances(str, values) and "" not in values


def _field(records: list, key: str, default) -> map:
    """``record.get(key, default)`` of every record, without a Python frame."""
    return map(dict.get, records, repeat(key), repeat(default))


def post_fault(posts: list) -> str | None:
    """The end of the message of the first rule of a post that ``posts``
    breaks, such as ``" has no non-empty string 'id'"``; None when every
    record is a well-formed post.

    A post is an object with non-empty string ``id``, ``blog_name`` and
    ``type``; ``body``, ``caption`` and ``slug`` are strings, ``tags`` an
    array of strings and ``notes`` an array of objects with a non-empty
    string ``blog_name`` and a ``kind`` of like or reblog, each when present.
    Other keys are ignored, and subclasses of dict, list and str pass.  Each
    rule is checked over every record before the next, in that order, so the
    message for a one-record list names that record's first fault.
    """
    if not _instances(dict, posts):
        return " is not an object"
    for key in ("id", "blog_name", "type"):
        if not _names(list(_field(posts, key, None))):
            return f" has no non-empty string {key!r}"
    for key in ("body", "caption", "slug"):
        if not _instances(str, _field(posts, key, "")):
            return f".{key} is not a string"
    tags = list(_field(posts, "tags", _NO_ITEMS))
    if not (_instances(list, tags) and _instances(str, chain.from_iterable(tags))):
        return ".tags is not an array of strings"
    notes = list(_field(posts, "notes", _NO_ITEMS))
    if not _instances(list, notes):
        return ".notes is not an array"
    # Each pass chains the note arrays again: a list of every note would
    # raise the load's peak memory.  ``dict.__getitem__`` raises TypeError
    # for a note that is no dict and KeyError for a missing field, and
    # ``set`` TypeError for an unhashable kind or name.
    try:
        kinds = set(map(dict.__getitem__, chain.from_iterable(notes), repeat("kind")))
        if kinds <= LABEL_BIT.keys() and _names(set(map(
                dict.__getitem__, chain.from_iterable(notes), repeat("blog_name")))):
            return None
    except (KeyError, TypeError):
        pass
    return (" has a note without a non-empty string 'blog_name' and a 'kind'"
            " of like or reblog")


def _blogs_named(blogs: list) -> bool:
    """True when every blog is an object with a non-empty string ``name``."""
    return _instances(dict, blogs) and _names(list(_field(blogs, "name", None)))


def validate_fixture(data) -> None:
    """Raise GraphFormatError unless ``data`` is a well-formed fixture store.

    The top level is an object holding ``blogs`` and ``posts`` arrays and an
    optional non-empty string ``seed``.  Every blog is an object with a
    non-empty string ``name``.  Every post passes post_fault, and post ids
    are unique.  Other keys are ignored.  The records are checked a field at
    a time; only when a rule fails are they checked again one record at a
    time, blogs first, so that the message names the first fault in record
    order.
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
    if "seed" in data and not _names([data["seed"]]):
        raise bad("'seed' is not a non-empty string")
    blogs, posts = data["blogs"], data["posts"]
    if (_blogs_named(blogs) and post_fault(posts) is None
            and len(set(_field(posts, "id", None))) == len(posts)):
        return
    for i, blog in enumerate(blogs):
        if not _blogs_named([blog]):
            raise bad(f"blogs[{i}] has no non-empty string 'name'")
    seen: set[str] = set()
    for i, post in enumerate(posts):
        fault = post_fault([post])
        if fault is not None:
            raise bad(f"posts[{i}]{fault}")
        if post["id"] in seen:
            raise bad(f"duplicate post id {post['id']!r}")
        seen.add(post["id"])
    raise AssertionError("the record walk passed a store the field checks failed")


def post_from_record(record: dict, note_records: dict) -> Post:
    """Parse one store record that passes post_fault into a Post.

    ``note_records`` maps (blog_name, kind value) pairs to the NoteRecord
    made for them and takes in each one made here, so that a store passing
    one table for all its posts holds one record per noter and kind.
    """
    notes = tuple(note_records.get(key) or note_records.setdefault(
                      key, NoteRecord(key[0], NoteKind(key[1])))
                  for key in map(_NOTE_KEY, record.get("notes", [])))
    tags = tuple(t for t in (normalize_tag(raw) for raw in record.get("tags", ())) if t)
    return Post(id=record["id"], blog_name=record["blog_name"],
                body=record.get("body", ""), caption=record.get("caption", ""),
                tags=tags, notes=notes)


# -- data sources -------------------------------------------------------------
#
# A data source answers two requests: ``blogger_posts(name, limit=None)``
# (NotFoundError for an unknown blogger) and ``tagged_posts(tag, limit=None)``.
# Each returns at most ``limit`` text posts, newest first, with their notes
# embedded; posts of any other type are never returned.  Each request parses
# the posts it returns afresh, and a store's posts share its NoteRecords.


class FixtureStore:
    """Data source backed by one JSON document.

    The store owns the document it is given.  Every record is checked when
    the store is made, and the text posts are then indexed by blogger and by
    tag, from the blog names and each post's author, type and tags read
    straight from the records.  A request parses from their records (notes
    included) exactly the posts it returns; the posts of every request share
    one NoteRecord per noter and kind.
    Post arrays are ordered most-recent-first, so "the newest N" is a prefix
    slice.  Responses are deterministic for identical requests.
    """

    def __init__(self, data: dict):
        validate_fixture(data)
        records = self._records = data["posts"]
        self._note_records: dict[tuple[str, str], NoteRecord] = {}
        bloggers = list(map(itemgetter("blog_name"), records))
        # A blogger with posts of other types only is known and has no posts.
        self._blogs = set(map(itemgetter("name"), data["blogs"]))
        self._blogs.update(bloggers)
        self.seed_blogger: str | None = data.get("seed")
        by_blogger, by_raw_tag = defaultdict(list), defaultdict(list)
        kinds = map(itemgetter("type"), records)
        for index, kind, blogger, tags in zip(count(), kinds, bloggers,
                                              _field(records, "tags", _NO_ITEMS)):
            if kind == "text":
                by_blogger[blogger].append(index)
                for raw in tags:
                    by_raw_tag[raw].append(index)
        self._by_blogger: dict[str, list[int]] = dict(by_blogger)
        by_tag = defaultdict(list)
        for raw, indexes in by_raw_tag.items():
            tag = normalize_tag(raw)
            if tag:
                by_tag[tag].append(indexes)
        # A post is listed once under each of its distinct tags.
        self._by_tag: dict[str, list[int]] = {
            tag: sorted(set(chain.from_iterable(lists)))
            for tag, lists in by_tag.items()}

    @classmethod
    def load(cls, path) -> "FixtureStore":
        """The store in the JSON file at ``path``, kept out of every later
        garbage collection.

        A crawl reads one store for its whole length, and each full
        collection would walk every container the store holds.  So the load
        runs one collection, then reads, checks and indexes the store with
        the collector paused (a decoded document is a tree, so a pass during
        the load could find no garbage), and ``gc.freeze()`` moves the store
        and everything else alive into the collector's permanent generation.
        The collector is left enabled or disabled as it was before the call.
        The trade-off: an object alive at the load that later becomes part of
        cyclic garbage stays until ``gc.unfreeze()``; a command, which loads
        one store per process, never sees it.
        """
        import gc
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            store = cls(read_json(path, "store file"))
            gc.freeze()
        finally:
            if enabled:
                gc.enable()
        return store

    def _parsed(self, indexes: list[int]) -> list[Post]:
        return [post_from_record(self._records[i], self._note_records)
                for i in indexes]

    def tagged_posts(self, tag: str, limit: int | None = None) -> list[Post]:
        return self._parsed(self._by_tag.get(normalize_tag(tag), [])[:limit])

    def blogger_posts(self, blog_name: str, limit: int | None = None) -> list[Post]:
        if blog_name not in self._blogs:
            raise NotFoundError(f"unknown blogger {blog_name!r}")
        return self._parsed(self._by_blogger.get(blog_name, [])[:limit])


# The longest ``Retry-After`` wait honoured; a server asking for more fails
# the request at once instead of stalling the crawl.
MAX_RETRY_AFTER_S = 60
# Each request's socket timeout, its attempts, and the wait before attempt
# n + 1, which is ``BACKOFF_S * n`` unless a ``Retry-After`` asks for more.
TIMEOUT_S = 5.0
ATTEMPTS = 3
BACKOFF_S = 0.1


def http_get(url: str) -> tuple[int, HTTPMessage, bytes]:
    """GET ``url`` over a new connection; return the status, an HTTP error
    status included, the headers and the body.  A failure raises OSError (a
    scheme other than http and https too), http.client.HTTPException or
    ValueError (a malformed URL).

    The HTTP stack (with ``ssl`` and ``email``) is imported here, on the
    first request, so that commands which never fetch do not load it."""
    from urllib.error import HTTPError
    from urllib.request import (HTTPDefaultErrorHandler, HTTPErrorProcessor,
                                HTTPHandler, HTTPRedirectHandler, HTTPSHandler,
                                OpenerDirector, UnknownHandler)
    # Only http and https are opened, for a base URL and a redirect alike;
    # any other scheme fails as an unknown URL type.
    opener = OpenerDirector()
    for handler in (HTTPHandler, HTTPSHandler, HTTPRedirectHandler,
                    HTTPDefaultErrorHandler, HTTPErrorProcessor, UnknownHandler):
        opener.add_handler(handler())
    try:
        with opener.open(url, timeout=TIMEOUT_S) as response:
            return response.status, response.headers, response.read()
    except HTTPError as exc:
        with exc:
            return exc.code, exc.headers, exc.read()


def _http_exception() -> type:
    """``http.client.HTTPException``, imported when first needed.

    ``HttpJsonStore._get`` calls this in its except clause, which Python
    evaluates only once the fetch has raised, so catching the class needs no
    module-level import of ``http.client``."""
    from http.client import HTTPException
    return HTTPException


def _retry_after_seconds(headers) -> float:
    """A ``Retry-After`` header's delay in seconds; 0 when it is absent, an
    HTTP-date or malformed, and inf when it has more digits than any delay
    under ``MAX_RETRY_AFTER_S`` (``int()`` refuses very long digit strings)."""
    value = headers.get("Retry-After", "").strip()
    if not (value.isascii() and value.isdigit()):
        return 0
    return int(value) if len(value) <= 6 else math.inf


# Path segments that a server or proxy resolving the URL removes, even when
# escaped, since ``%2E`` is the same URL as ``.`` (RFC 3986, 6.2.2.2); no
# request is sent for a tag or blogger named so.
_DOT_SEGMENTS = (".", "..")


def _sendable(segment: str) -> bool:
    """False for a dot segment and for a name UTF-8 cannot encode (a lone
    surrogate), which no URL can carry."""
    try:
        segment.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return segment not in _DOT_SEGMENTS


class HttpJsonStore:
    """Read-only JSON client speaking the fixture schema over HTTP.

    Endpoints: /tagged/{tag} and /blog/{name}/posts, each asked for
    ``type=text`` and, when given, ``limit``.  The tag or name is escaped
    as one path segment, ``/`` included; a tag ``.`` or ``..``, or one
    UTF-8 cannot encode, has no posts, and a blogger so named is unknown.
    ``get`` fetches a URL as ``http_get`` does.  Transient failures (network
    errors, unusable URLs, 429, 5xx, unreadable JSON) are retried up to
    ``ATTEMPTS`` attempts in all, after ``BACKOFF_S * attempt`` seconds, or
    after a 429's or 503's ``Retry-After`` seconds when that is longer; a
    ``Retry-After`` over ``MAX_RETRY_AFTER_S``, 404 (the blogger does not
    exist) and any other 4xx fail at once.
    """

    def __init__(self, base_url: str, get=http_get):
        self.base_url = base_url.rstrip("/")
        self._fetch = get
        self._note_records: dict[tuple[str, str], NoteRecord] = {}

    def _get(self, path: str, params: dict) -> dict:
        query = urlencode({k: v for k, v in params.items() if v is not None})
        url = f"{self.base_url}{path}?{query}"
        failure: Exception | None = None
        for attempt in range(1, ATTEMPTS + 1):
            wait = BACKOFF_S * attempt
            try:
                status, headers, body = self._fetch(url)
            except (OSError, ValueError, _http_exception()) as exc:
                failure = exc
            else:
                if status == 404:
                    raise NotFoundError(f"{path} not found")
                if 400 <= status < 500 and status != 429:
                    raise RetrievalError(f"GET {path} failed: HTTP {status}",
                                         retries=attempt)
                if status == 200:
                    try:
                        return json.loads(body)
                    except ValueError as exc:
                        failure = exc
                else:
                    failure = RuntimeError(f"HTTP {status}")
                    if status in (429, 503):
                        delay = _retry_after_seconds(headers)
                        if delay > MAX_RETRY_AFTER_S:
                            raise RetrievalError(
                                f"GET {path} failed: HTTP {status} with Retry-After"
                                f" over {MAX_RETRY_AFTER_S} s", retries=attempt)
                        wait = max(wait, delay)
            if attempt < ATTEMPTS and wait > 0:
                time.sleep(wait)
        raise RetrievalError(
            f"GET {path} failed after {ATTEMPTS} attempts: {failure}",
            retries=ATTEMPTS)

    def _text_posts(self, path: str, limit: int | None) -> list[Post]:
        # The type goes on the wire because a server applies ``limit`` after
        # its type filter; records of another type are still dropped here.
        payload = self._get(path, {"limit": limit, "type": "text"})
        if not isinstance(payload, dict):
            raise GraphFormatError("bad posts payload: not an object")
        records = payload.get("posts", [])
        if not isinstance(records, list):
            raise GraphFormatError("bad posts payload: 'posts' is not an array")
        if post_fault(records) is not None:
            for i, record in enumerate(records):
                fault = post_fault([record])
                if fault is not None:
                    raise GraphFormatError(f"bad posts payload: posts[{i}]{fault}")
        texts = [record for record in records if record["type"] == "text"]
        return [post_from_record(record, self._note_records)
                for record in texts[:limit]]

    def tagged_posts(self, tag: str, limit: int | None = None) -> list[Post]:
        tag = normalize_tag(tag)
        if not _sendable(tag):
            return []
        return self._text_posts(f"/tagged/{quote(tag, safe='')}", limit)

    def blogger_posts(self, blog_name: str, limit: int | None = None) -> list[Post]:
        if not _sendable(blog_name):
            raise NotFoundError(f"no blogger named {blog_name!r}")
        return self._text_posts(f"/blog/{quote(blog_name, safe='')}/posts", limit)


# -- crawl configuration ------------------------------------------------------


class SelectionPolicy(Enum):
    MAX_MARKOV = "max_markov"
    UNIFORM_RANDOM = "uniform_random"


class StopReason(Enum):
    SIZE_LIMIT = "size_limit"
    FRONTIER_EXHAUSTED = "frontier_exhausted"


@dataclass(frozen=True)
class CrawlConfig:
    """Knobs of one crawl run."""
    seed: str
    threshold: float
    graph_size_limit: int = 1000
    frontier_width: int = 25
    posts_per_blogger: int = 100
    ngram_order: int = 3
    selection_policy: SelectionPolicy = SelectionPolicy.MAX_MARKOV
    rng_seed: int = 0

    def __post_init__(self):
        # Each value takes its JSON kind, so that every config made here
        # survives the JSON round trip of a checkpoint.
        apply_kinds(self, CONFIG_KINDS)
        if not self.seed:
            raise ValueError("seed blogger must be non-empty")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        for field_name in ("graph_size_limit", "frontier_width",
                           "posts_per_blogger", "ngram_order"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")

    def to_json_dict(self) -> dict:
        return {**asdict(self), "selection_policy": self.selection_policy.value}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CrawlConfig":
        """A config from a decoded JSON object; absent keys keep the defaults.

        ``seed`` and ``threshold`` are required.  The kinds are checked here
        first, so that a value of the wrong JSON type raises GraphFormatError
        naming its key; the constructor applies them again and raises
        ValueError for a value outside its range.  Other keys are ignored.
        """
        # An absent seed or threshold is read as null, which fails its check.
        return cls(**read_fields({"seed": None, "threshold": None, **data},
                                 CONFIG_KINDS, "bad crawl config"))


# The JSON kind of each crawl setting, in the order they are checked.  Each
# kind also accepts the value it converts to, so ``cli`` can check a config
# file's setting with it and the constructor can check the converted value
# with it; that is why a policy member passes.
CONFIG_KINDS = {
    "seed": STRING, "threshold": NUMBER,
    **dict.fromkeys(("graph_size_limit", "frontier_width", "posts_per_blogger",
                     "ngram_order", "rng_seed"), INTEGER),
    "selection_policy": JsonKind(
        lambda value: isinstance(value, (str, SelectionPolicy)), STRING.phrase,
        SelectionPolicy),
}


@dataclass(frozen=True)
class VisitRecord:
    blog_name: str
    score: float
    verdict: Verdict


def visit_log_to_json(visit_log) -> list[list]:
    """The visit log as JSON rows ``[blog_name, score, verdict]``."""
    return [[r.blog_name, r.score, r.verdict.value] for r in visit_log]


def visit_log_from_json(document: dict) -> tuple[list[VisitRecord], list[str]]:
    """Parse the ``visit_log`` rows and ``discarded`` names of a document.

    Raises GraphFormatError unless both are arrays, every row is
    ``[name, score, verdict]`` with a string name, a finite number score and
    a known verdict, and every discarded name is a string.
    """
    rows, discarded = document["visit_log"], document["discarded"]
    if not isinstance(rows, list):
        raise GraphFormatError("visit_log is not an array")
    if not STRINGS.test(discarded):
        raise GraphFormatError("discarded is not an array of names")
    visit_log = []
    for row in rows:
        if not (isinstance(row, list) and len(row) == 3
                and isinstance(row[0], str) and NUMBER.test(row[1])
                and math.isfinite(row[1])):
            raise GraphFormatError(f"bad visit_log row {row!r}")
        try:
            visit_log.append(VisitRecord(row[0], float(row[1]), verdict_of(row[2])))
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"bad visit_log row {row!r}: {exc}") from exc
    return visit_log, discarded


@dataclass(frozen=True)
class CrawlResult:
    graph: CommunityGraph
    visit_log: list[VisitRecord]
    discarded: frozenset[str]
    stop_reason: StopReason

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "visit_log": visit_log_to_json(self.visit_log),
            "discarded": sorted(self.discarded),
            "stop_reason": self.stop_reason.value,
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"), ensure_ascii=True).encode("utf-8")


def predicted_verdicts(visit_log, discarded) -> dict[str, Verdict]:
    """Per-blogger verdicts for evaluation; discards count as Unknown."""
    predicted = {r.blog_name: r.verdict for r in visit_log}
    for name in discarded:
        predicted[name] = Verdict.UNKNOWN
    return predicted


# -- transition matrix --------------------------------------------------------


@dataclass
class TransitionMatrix:
    """Row-stochastic walk matrix aligned with ``ordering``."""
    ordering: list[str]
    entries: np.ndarray


def build_transition_matrix(graph: CommunityGraph) -> TransitionMatrix:
    """Each node spreads its mass uniformly over its out-edges.

    A node without out-edges keeps its mass (self-loop entry), which keeps
    every row summing to one.
    """
    count = graph.node_count()
    if not count:
        raise ValueError("cannot build a transition matrix for an empty graph")
    sources, targets = graph._edge_arrays()
    degree = graph._out_degrees()
    matrix = np.zeros((count, count), dtype=float)
    matrix[sources, targets] = 1.0 / degree[sources]
    sinks = np.flatnonzero(degree == 0)
    matrix[sinks, sinks] = 1.0
    return TransitionMatrix(ordering=graph.nodes(), entries=matrix)


def propagate(p0, matrix: TransitionMatrix, k: int) -> np.ndarray:
    """Push the distribution ``k`` steps through the chain: p_(i+1) = p_i M."""
    p = np.asarray(p0, dtype=float)
    if p.shape != (len(matrix.ordering),):
        raise ValueError("distribution and matrix dimensions do not match")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("initial distribution must sum to 1")
    if k < 0:
        raise ValueError("step count must be >= 0")
    for _ in range(k):
        p = p @ matrix.entries
    return p


# -- crawl steps --------------------------------------------------------------


def fetch_posts(source, blogger: str,
                config: CrawlConfig) -> list[tuple[Post, str]]:
    """The blogger's newest text posts, capped and language-filtered.

    Each kept post comes paired with its normalized text.
    """
    return filter_english(
        source.blogger_posts(blogger, limit=config.posts_per_blogger))


def extract_frontiers(blogger: str, posts, config: CrawlConfig) -> dict[str, int]:
    """Collect the bloggers noting ``posts``, each with the label mask
    (``LABEL_BIT``) of their note kinds.

    Per post, up to ``frontier_width`` most-recent noters of each kind are
    taken; a noter appearing in both slices gets both labels and triggers one
    extra pull: the next most-recent noter not already collected.  Kinds
    merge across posts.  The blogger's own notes are ignored.
    """
    width = config.frontier_width
    found: dict[str, int] = {}
    for post in posts:
        notes = [n for n in post.notes if n.blog_name != blogger]
        likes = [n for n in notes if n.kind is NoteKind.LIKE][:width]
        reblogs = [n for n in notes if n.kind is NoteKind.REBLOG][:width]
        for note in likes + reblogs:
            name = note.blog_name
            found[name] = found.get(name, 0) | LABEL_BIT[note.kind.value]
        rebloggers = {n.blog_name for n in reblogs}
        duals = [name for name in dict.fromkeys(n.blog_name for n in likes)
                 if name in rebloggers]
        for _ in duals:
            extra = next((n for n in notes if n.blog_name not in found), None)
            if extra is None:
                break
            found[extra.blog_name] = LABEL_BIT[extra.kind.value]
    return found


class Frontier:
    """Every discovered, unvisited blogger, in discovery order, mapped to
    each graph node that discovered them and that discoverer's labels.

    ``add`` is the one way in after the map is made, and ``visit`` the one
    way out.  Beside the map the frontier keeps integer arrays for selection
    by mass: a slot per blogger in discovery order, and the (slot,
    discoverer's node id in ``graph``) pairs in the order they were added.
    A visited blogger's slot stays behind as a tombstone.

    A crawl adds each blogger's discoverers in node id order, since a node
    gets its id when it is admitted, before it discovers anyone.  A frontier
    built from a map, whose order a checkpoint need not keep, sorts its
    pairs by slot and then by discoverer id, so it sums each blogger's
    shares in the order the crawl did.
    """

    def __init__(self, graph: CommunityGraph,
                 parents: dict[str, dict] | None = None):
        self.parents: dict[str, dict] = {} if parents is None else parents
        self._ids = graph._ids  # the graph's name -> node id map; only grows
        self._names = list(self.parents)  # slot -> blogger
        self._slot_of = dict(zip(self._names, count()))  # live blogger -> slot
        # slot -> 0.0, or -inf once visited
        self._tombstones = array("d", [0.0]) * len(self._names)
        # pair -> slot, and pair -> discoverer's node id, sorted as the keys
        # ``slot << 32 | discoverer id``
        sizes = np.fromiter(map(len, self.parents.values()), np.int64,
                            len(self._names))
        keys = np.fromiter(map(self._ids.__getitem__,
                               chain.from_iterable(self.parents.values())),
                           np.int64, sizes.sum())
        keys |= np.arange(len(sizes), dtype=np.int64).repeat(sizes) << 32
        keys.sort()
        self._slots = array("q", (keys >> 32).tobytes())
        self._parent_ids = array("q", (keys & 0xFFFFFFFF).tobytes())

    def __len__(self) -> int:
        return len(self.parents)

    def __iter__(self):
        return iter(self.parents)

    def add(self, target: str, parent: str, labels) -> None:
        """Record ``parent``, a graph node, as a discoverer of ``target``."""
        parents = self.parents.get(target)
        if parents is None:
            parents = self.parents[target] = {}
            self._slot_of[target] = len(self._names)
            self._names.append(target)
            self._tombstones.append(0.0)
        if parent not in parents:
            self._slots.append(self._slot_of[target])
            self._parent_ids.append(self._ids[parent])
        parents[parent] = labels

    def visit(self, target: str) -> dict:
        """Remove ``target``; its discoverers, or {} if it was never found."""
        slot = self._slot_of.pop(target, None)
        if slot is not None:
            self._tombstones[slot] = -math.inf
        return self.parents.pop(target, {})

    def pairs(self):
        """(pair slots, pair discoverer ids, per-slot tombstones, slot names).

        A tombstone is -inf and a live slot's is 0.0.
        """
        return (np.array(self._slots, dtype=np.intp),
                np.array(self._parent_ids, dtype=np.intp),
                np.array(self._tombstones), self._names)


def select_next(frontier: Frontier, p, policy: SelectionPolicy,
                rng: random.Random, graph: CommunityGraph) -> str:
    """Pick the next blogger to visit from ``frontier``.

    MaxMarkovProbability gives each blogger one walk step of mass from their
    discoverers, the sum over parents of parent mass / parent out-degree,
    and takes the largest; ties go to the earliest-inserted blogger.  A
    parent missing from ``p`` adds nothing.  The sums are one ``bincount``
    over the frontier's pairs, which adds each blogger's parents in pair
    order (see ``Frontier``) starting from 0.0, as a loop would.
    UniformRandom draws one float from ``rng``.
    """
    if not frontier:
        raise ValueError("frontier is empty")
    if policy is SelectionPolicy.UNIFORM_RANDOM:
        return next(islice(frontier, int(rng.random() * len(frontier)), None))

    slots, parents, tombstones, names = frontier.pairs()
    nodes = graph.nodes()
    mass = np.fromiter(map(p.get, nodes, repeat(0.0)), dtype=float,
                       count=len(nodes))
    shares = mass / np.maximum(graph._out_degrees(), 1)
    totals = np.bincount(slots, weights=shares[parents],
                         minlength=len(tombstones))
    return names[int(np.argmax(totals + tombstones))]


# -- the crawl ----------------------------------------------------------------


def _relation(parents: dict[str, int]) -> list[str]:
    """The sorted values of every label that ``parents`` carry."""
    mask = 0
    for bits in parents.values():
        mask |= bits
    return list(LABEL_VALUES[mask])


class CrawlSession:
    """A stepwise crawl whose full state can round-trip through JSON."""

    def __init__(self, source, model: NGramModel, config: CrawlConfig):
        self._source = source
        self._model = model
        self._config = config
        self._rng = random.Random(config.rng_seed)
        self._graph = CommunityGraph()
        self._visit_log: list[VisitRecord] = []
        self._discarded: dict[str, None] = {}
        self._processed: dict[str, None] = {}
        # Every discovered, unvisited blogger (the one picked next included,
        # until visited) -> each graph node that discovered them -> label mask.
        self._frontier = Frontier(self._graph)
        self._current: str | None = config.seed
        self._stop: StopReason | None = None
        # The last Markov mass and the (node count, edge count, step count)
        # it was computed for.  Never checkpointed.
        self._mass_key: tuple[int, int, int] | None = None
        self._mass: dict[str, float] = {}

    @property
    def config(self) -> CrawlConfig:
        return self._config

    @property
    def finished(self) -> bool:
        return self._stop is not None

    def step(self) -> bool:
        """Visit one blogger; returns False once the crawl has stopped."""
        if self._stop is not None:
            return False
        self._visit(self._current)
        if self._graph.node_count() >= self._config.graph_size_limit:
            self._stop = StopReason.SIZE_LIMIT
            self._current = None
        elif not self._frontier:
            self._stop = StopReason.FRONTIER_EXHAUSTED
            self._current = None
        else:
            policy = self._config.selection_policy
            # Uniform selection never reads the mass, so it is not computed.
            mass = {} if policy is SelectionPolicy.UNIFORM_RANDOM else self._distribution()
            self._current = select_next(self._frontier, mass, policy,
                                        self._rng, self._graph)
        return self._stop is None

    def run(self, max_steps: int | None = None) -> CrawlResult | None:
        """Step until finished (or ``max_steps``); result only when finished."""
        steps = 0
        while self._stop is None and (max_steps is None or steps < max_steps):
            self.step()
            steps += 1
        return self.result() if self._stop is not None else None

    def result(self) -> CrawlResult:
        if self._stop is None:
            raise ValueError("crawl has not finished")
        return CrawlResult(graph=self._graph, visit_log=list(self._visit_log),
                           discarded=frozenset(self._discarded),
                           stop_reason=self._stop)

    # -- internals --------------------------------------------------------

    def _visit(self, name: str) -> None:
        # A visit that raises leaves the session as the step found it.
        skip = None
        try:
            kept = fetch_posts(self._source, name, self._config)
            score = score_blogger(self._model, kept)
        except (NotFoundError, RetrievalError) as exc:
            if name == self._config.seed:
                raise
            skip = (f"retrieval failed ({exc})" if isinstance(exc, RetrievalError)
                    else "unknown blogger")
        except ScoringError:
            skip = "no scoreable text"
        self._processed[name] = None
        parents = self._frontier.visit(name)
        if skip is not None:
            logger.warning("skipping %s: %s", name, skip)
            self._discarded[name] = None
            return

        verdict = classify(score, self._config.threshold)
        self._visit_log.append(VisitRecord(name, score, verdict))
        if verdict is Verdict.RELEVANT:
            self._admit(name, score, [post for post, _ in kept], parents)
        else:
            self._discarded[name] = None

    def _admit(self, name: str, score: float, posts, parents) -> None:
        graph = self._graph
        graph.add_node(name, Verdict.RELEVANT, score)
        for parent, mask in parents.items():
            graph.add_labels(parent, name, mask)
        for target, mask in extract_frontiers(name, posts, self._config).items():
            if target in self._processed:
                # Reappearing blogger: link if they made it into the graph,
                # drop silently if they were discarded.
                if graph.has_node(target):
                    graph.add_labels(name, target, mask)
                continue
            self._frontier.add(target, name, mask)

    def _distribution(self) -> dict[str, float]:
        """The seed's mass after min(visits, PROPAGATION_CAP) walk steps.

        The graph only grows, so equal node and edge counts mean the same
        nodes and successor lists in the same order; with the same step
        count the last mass is reused as it is.
        """
        steps = min(len(self._visit_log), PROPAGATION_CAP)
        key = (self._graph.node_count(), self._graph.edge_count(), steps)
        if key != self._mass_key:
            self._mass = self._propagated_mass(steps)
            self._mass_key = key
        return self._mass

    def _propagated_mass(self, steps: int) -> dict[str, float]:
        # Bloggers are pending only once the seed was admitted; resume
        # rejects a checkpoint that says otherwise.
        matrix = build_transition_matrix(self._graph)
        p0 = np.zeros(len(matrix.ordering))
        p0[matrix.ordering.index(self._config.seed)] = 1.0
        mass = propagate(p0, matrix, steps)
        return dict(zip(matrix.ordering, mass.tolist()))

    # -- persistence --------------------------------------------------------

    def checkpoint(self) -> dict:
        """Complete crawl state as a JSON-serializable document."""
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": self._config.to_json_dict(),
            "current": self._current,
            "stop_reason": self._stop.value if self._stop is not None else None,
            # Each step processes its blogger, then selects unless it stops
            # the crawl; a step that raises does neither.
            "selections": len(self._processed) - self.finished,
            "visit_log": visit_log_to_json(self._visit_log),
            "discarded": list(self._discarded),
            "processed": list(self._processed),
            # Format 1 lists the unvisited bloggers apart from ``current``,
            # each with all its labels and its first discoverer.
            "frontier": [{"blog_name": target,
                          "relation": _relation(parents),
                          "parent": next(iter(parents))}
                         for target, parents in self._frontier.parents.items()
                         if target != self._current],
            "pending": {target: {parent: list(LABEL_VALUES[mask])
                                 for parent, mask in parents.items()}
                        for target, parents in self._frontier.parents.items()},
            "graph": self._graph.to_json_dict(),
        }

    @classmethod
    def resume(cls, source, model: NGramModel, checkpoint: dict) -> "CrawlSession":
        """Rebuild a session; finishing it matches an uninterrupted run."""
        if (not isinstance(checkpoint, dict)
                or checkpoint.get("format") != CHECKPOINT_FORMAT):
            raise GraphFormatError("not a crawl checkpoint document")
        if checkpoint.get("version") != CHECKPOINT_VERSION:
            raise GraphFormatError(
                f"unsupported checkpoint version {checkpoint.get('version')!r}")
        try:
            config = CrawlConfig.from_json_dict(checkpoint["config"])
            session = cls(source, model, config)
            session._visit_log, discarded = visit_log_from_json(checkpoint)
            session._discarded = dict.fromkeys(discarded)
            processed, selections = checkpoint["processed"], checkpoint["selections"]
            if not STRINGS.test(processed):
                raise GraphFormatError("processed is not an array of names")
            if not COUNT.test(selections):
                raise GraphFormatError(
                    f"selections {selections!r} is not a non-negative integer")
            current, stop = checkpoint["current"], checkpoint.get("stop_reason")
            if not (current is None or isinstance(current, str)):
                raise GraphFormatError("current is neither a name nor null")
            # A step that stops the crawl clears current; any other selects.
            if (current is None) != (stop is not None):
                raise GraphFormatError(f"current {current!r} with stop_reason "
                                       f"{stop!r}: current is null exactly "
                                       "when the crawl has stopped")
            session._processed = dict.fromkeys(processed)
            if selections != len(session._processed) - (stop is not None):
                raise GraphFormatError(f"selections {selections} is not the "
                                       "count processed and stop_reason imply")
            pending = {target: {parent: label_mask(labels)
                                for parent, labels in parents.items()}
                       for target, parents in checkpoint["pending"].items()}
            # The frontier list gives the selection order and each blogger's
            # first discoverer; sorted keys may have reordered ``pending``.
            frontier = {}
            for item in checkpoint["frontier"]:
                target, first = item["blog_name"], item["parent"]
                parents = pending.pop(target, None)
                if parents is None or first not in parents:
                    raise GraphFormatError(f"frontier blogger {target!r} "
                                           f"lacks pending parent {first!r}")
                if item["relation"] != _relation(parents):
                    raise GraphFormatError(f"frontier blogger {target!r}: relation "
                                           "differs from its pending labels")
                frontier[target] = {first: parents[first]} | parents
            if set(pending) - {current}:
                raise GraphFormatError(
                    "pending bloggers missing from the frontier")
            frontier.update(pending)
            session._graph = CommunityGraph.from_json_dict(checkpoint["graph"])
            nodes = session._graph._ids.keys()
            for target, parents in frontier.items():
                if not parents.keys() <= nodes:
                    raise GraphFormatError(f"pending blogger {target!r} has a "
                                           "discoverer outside the graph")
            session._frontier = Frontier(session._graph, frontier)
            # Until the seed is admitted, only the seed itself can be next.
            waiting = frontier or current not in (None, config.seed)
            if waiting and not session._graph.has_node(config.seed):
                raise GraphFormatError("bloggers are pending but the graph "
                                       f"lacks the seed {config.seed!r}")
            # Each blogger is visited once.
            for target in frontier:
                if target in session._processed:
                    raise GraphFormatError(
                        f"pending blogger {target!r} was already processed")
            if not (current is None or current in frontier
                    or (current == config.seed and not session._processed)):
                raise GraphFormatError(
                    f"current {current!r} is neither pending nor the seed "
                    "of an unstarted crawl")
            session._current = current
            session._stop = StopReason(stop) if stop is not None else None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise GraphFormatError(f"bad checkpoint document: {exc!r}") from exc
        # Replay consumed randomness: uniform selection draws one float each.
        if config.selection_policy is SelectionPolicy.UNIFORM_RANDOM:
            for _ in range(len(session._processed) - session.finished):
                session._rng.random()
        return session


def crawl(source, model: NGramModel, config: CrawlConfig) -> CrawlResult:
    """Run a full crawl from the configured seed blogger."""
    return CrawlSession(source, model, config).run()
