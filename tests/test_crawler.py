import copy
import gc
import http.server
import json
import os
import random
import re
import subprocess
import sys
import threading
import weakref
from collections import deque
from itertools import count
from pathlib import Path
from types import MappingProxyType
from unittest import mock
from urllib.parse import parse_qsl, unquote, urlsplit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spiderveil
from spiderveil import crawler as crawler_module
from spiderveil.corpus import NoteKind, NoteRecord, Post, bootstrap_exemplars
from spiderveil.crawler import (MAX_RETRY_AFTER_S, PROPAGATION_CAP,
                                CrawlConfig, CrawlResult,
                                CrawlSession, FixtureStore, Frontier,
                                HttpJsonStore, SelectionPolicy, StopReason,
                                build_transition_matrix, crawl,
                                extract_frontiers, fetch_posts,
                                post_from_record, predicted_verdicts,
                                propagate, select_next, validate_fixture,
                                visit_log_from_json)
from spiderveil.errors import (GraphFormatError, NotFoundError,
                               RetrievalError)
from spiderveil.langmodel import Verdict
from spiderveil.socialgraph import LABEL_BIT, LABEL_KINDS, CommunityGraph

from conftest import (EDGE_STORES, HAND_BODIES, MALFORMED_POSTS,
                      MALFORMED_STORES, FakeGet, make_post)
from oracles import (EagerFixtureStore, ReferenceCrawlSession, live_pairs,
                     propagate_oracle, random_digraph, reference_select_next,
                     reference_check_post_record, reference_store_index,
                     reference_transition_matrix, reference_validate_fixture,
                     session_state)
from test_golden import (SEEDS, checkpoint_bytes, crawl_session, crawl_trace,
                         golden_path, network)
from test_perfbench_trace import load_tracer


def note(name, kind):
    return NoteRecord(name, NoteKind(kind))


def reachable_from(graph, start):
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for succ in graph.successors(node):
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return seen


class TestFixtureValidation:
    def test_hand_store_passes(self, hand_store_data):
        validate_fixture(hand_store_data)

    def test_missing_posts_key(self):
        with pytest.raises(GraphFormatError):
            validate_fixture({"blogs": []})

    def test_bad_note_kind(self):
        data = {"blogs": [], "posts": [make_post(
            "p1", "a", "text", notes=[("b", "favorite")])]}
        with pytest.raises(GraphFormatError):
            validate_fixture(data)

    def test_duplicate_post_ids(self):
        data = {"blogs": [], "posts": [make_post("p1", "a", "x"),
                                       make_post("p1", "b", "y")]}
        with pytest.raises(GraphFormatError):
            validate_fixture(data)
        with pytest.raises(GraphFormatError):
            FixtureStore(data)

    @pytest.mark.parametrize("name", MALFORMED_STORES)
    def test_malformed_store_rejected(self, name, tmp_path):
        document = MALFORMED_STORES[name]
        with pytest.raises(GraphFormatError, match="^bad fixture store: "):
            validate_fixture(document)
        path = tmp_path / "store.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(GraphFormatError):
            FixtureStore.load(path)

    def test_load_walks_posts_only_to_the_first_fault(self, hand_store_data,
                                                      monkeypatch):
        checked = []
        check = crawler_module.post_fault
        monkeypatch.setattr(crawler_module, "post_fault",
                            lambda posts: checked.append(posts) or check(posts))
        FixtureStore(hand_store_data)
        assert checked == [hand_store_data["posts"]]
        data = copy.deepcopy(hand_store_data)
        data["posts"][2]["notes"][1]["kind"] = "favorite"
        data["posts"][4]["id"] = 5
        checked.clear()
        with pytest.raises(GraphFormatError,
                           match=r"^bad fixture store: posts\[2\] has a note "):
            FixtureStore(data)
        assert checked == [data["posts"], *([post] for post in data["posts"][:3])]

    def test_faults_and_duplicates_are_named_in_record_order(self):
        size = 384

        def store(*edits):
            posts = [make_post(f"p{i}", "a", "body") for i in range(size)]
            for index, key, value in edits:
                posts[index][key] = value
            return {"blogs": [], "posts": posts}

        late = 2 * size // 3 + 1
        for edits, message in [
                # a duplicate far before the first fault
                (((size // 3 + 5, "id", "p3"), (late, "type", "")),
                 "duplicate post id 'p3'"),
                # a duplicate just before, and just after, the first fault
                (((late, "id", "p3"), (late + 1, "body", 5)),
                 "duplicate post id 'p3'"),
                (((late, "body", 5), (late + 1, "id", "p3")),
                 rf"posts\[{late}\]\.body is not a string")]:
            with pytest.raises(GraphFormatError, match=message):
                validate_fixture(store(*edits))

    @pytest.mark.parametrize("name", EDGE_STORES)
    def test_edge_store_accepted(self, name):
        FixtureStore(EDGE_STORES[name])

    def test_load_does_not_import_jsonschema(self, hand_store_data, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(json.dumps(hand_store_data), encoding="utf-8")
        probe = ("import sys; from spiderveil.crawler import FixtureStore; "
                 "FixtureStore.load(sys.argv[1]); print('jsonschema' in sys.modules)")
        src = str(Path(spiderveil.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", probe, str(path)],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_post_from_record(self):
        post = post_from_record(
            {"id": "p9", "blog_name": "a", "type": "photo",
             "caption": "hi", "tags": ["#Foo ", ""],
             "notes": [{"blog_name": "b", "kind": "like"}]}, {})
        assert post.caption == "hi"
        assert post.tags == ("foo",)
        assert post.notes == (note("b", "like"),)


# The JSON Schema that validate_fixture's explicit checks replaced, kept as
# the oracle they must agree with.
FIXTURE_SCHEMA = {
    "type": "object",
    "required": ["blogs", "posts"],
    "properties": {
        "blogs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name"],
                "properties": {"name": {"type": "string", "minLength": 1}},
            },
        },
        "posts": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "blog_name", "type"],
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "blog_name": {"type": "string", "minLength": 1},
                    "type": {"type": "string", "minLength": 1},
                    "body": {"type": "string"},
                    "caption": {"type": "string"},
                    "slug": {"type": "string"},
                    "tags": {"type": "array", "items": {"type": "string"}},
                    "notes": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["blog_name", "kind"],
                            "properties": {
                                "blog_name": {"type": "string", "minLength": 1},
                                "kind": {"enum": ["like", "reblog"]},
                            },
                        },
                    },
                },
            },
        },
        "seed": {"type": "string", "minLength": 1},
    },
}


@pytest.fixture(scope="module")
def schema_accepts():
    """The old verdict: the schema, then unique post ids."""
    jsonschema = pytest.importorskip("jsonschema")

    def accepts(document) -> bool:
        try:
            jsonschema.validate(document, FIXTURE_SCHEMA)
        except jsonschema.ValidationError:
            return False
        ids = [post["id"] for post in document["posts"]]
        return len(ids) == len(set(ids))

    return accepts


def checks_accept(document) -> bool:
    try:
        validate_fixture(document)
    except GraphFormatError:
        return False
    return True


def _mostly(strategy, anything):
    return st.one_of(strategy, strategy, strategy, anything)


def fixture_documents():
    """Documents shaped like a store, with any field possibly of any type."""
    anything = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-1, 1),
                  st.sampled_from(["", "a", "like", "reblog"])),
        lambda inner: st.lists(inner, max_size=2)
        | st.dictionaries(st.sampled_from(["name", "blog_name", "kind"]),
                          inner, max_size=2),
        max_leaves=4)
    name = _mostly(st.sampled_from(["a", "b", ""]), anything)
    text = _mostly(st.sampled_from(["x", ""]), anything)
    note = _mostly(st.fixed_dictionaries({}, optional={
        "blog_name": name,
        "kind": _mostly(st.sampled_from(["like", "reblog", "favorite"]), anything),
    }), anything)
    post = _mostly(st.fixed_dictionaries({}, optional={
        "id": _mostly(st.sampled_from(["p1", "p2", ""]), anything),
        "blog_name": name, "type": text, "body": text, "caption": text,
        "slug": text, "tags": _mostly(st.lists(text, max_size=2), anything),
        "notes": _mostly(st.lists(note, max_size=2), anything),
    }), anything)
    blog = _mostly(st.fixed_dictionaries({}, optional={"name": name}), anything)
    return _mostly(st.fixed_dictionaries({}, optional={
        "blogs": _mostly(st.lists(blog, max_size=2), anything),
        "posts": _mostly(st.lists(post, max_size=3), anything),
        "seed": name,
    }), anything)


class TestFixtureChecksMatchSchema:
    def test_tables_and_stores(self, schema_accepts, hand_store_data,
                               small_bundle):
        documents = {**MALFORMED_STORES, **EDGE_STORES,
                     "hand store": hand_store_data,
                     "generated store": small_bundle.store_data}
        verdicts = {name: checks_accept(doc) for name, doc in documents.items()}
        assert verdicts == {name: schema_accepts(doc)
                            for name, doc in documents.items()}
        assert sum(verdicts.values()) == len(EDGE_STORES) + 2

    @given(document=fixture_documents())
    @settings(max_examples=400, deadline=None)
    def test_random_documents(self, schema_accepts, document):
        assert checks_accept(document) == schema_accepts(document)


class _Record(dict):
    pass


class _Name(str):
    pass


class _Items(list):
    pass


# Values a mutation may put in place of a field: every JSON kind, empty and
# not, and records that pass as a blog, a post's fields or a note.
RETYPED = (None, 0, 1.5, True, "x", "", [], {}, ["x"], [{"blog_name": "a"}],
           {"name": "a", "blog_name": "a", "kind": "like"})
TAGS = ("t", "#T ", "u", "", "#", " U ")


def _slots(store: dict) -> list[tuple]:
    """Every (container, key) of a store-shaped document, down to notes."""
    slots = [(store, key) for key in store]
    for key in ("blogs", "posts"):
        records = store.get(key)
        if not isinstance(records, list):
            continue
        slots += [(records, i) for i in range(len(records))]
        for record in records:
            if not isinstance(record, dict):
                continue
            slots += [(record, field) for field in record]
            for field in ("tags", "notes"):
                items = record.get(field)
                if isinstance(items, list):
                    slots += [(items, i) for i in range(len(items))]
                    slots += [(note, name) for note in items
                              if isinstance(note, dict) for name in note]
    return slots


def _mutate(draw, store: dict) -> None:
    """Drop, retype, empty, duplicate or subclass one field of ``store``."""
    slots = _slots(store)
    if not slots:   # every top-level key was dropped
        return
    container, key = draw(st.sampled_from(slots))
    value = container[key]
    operation = draw(st.sampled_from(
        ("drop", "retype", "empty", "duplicate", "subclass")))
    if operation == "drop":
        del container[key]
    elif operation == "retype":
        container[key] = copy.deepcopy(draw(st.sampled_from(RETYPED)))
    elif operation == "empty":
        container[key] = next((kind() for kind in (str, list, dict)
                               if isinstance(value, kind)), None)
    elif operation == "duplicate" and isinstance(container, list):
        container.insert(key, copy.deepcopy(value))
    elif operation == "duplicate":
        others = [other[key] for other, field in slots
                  if field == key and other is not container]
        if others:
            container[key] = copy.deepcopy(draw(st.sampled_from(others)))
    else:
        for kind, subclass in ((dict, _Record), (str, _Name), (list, _Items)):
            if isinstance(value, kind):
                container[key] = subclass(value)
                break


@st.composite
def mutated_stores(draw):
    """A well-formed store with up to three faults made by ``_mutate``."""
    names = st.sampled_from(("a", "b", "c"))
    posts = []
    for i in range(draw(st.integers(0, 5))):
        post = {"id": f"p{i}", "blog_name": draw(names),
                "type": draw(st.sampled_from(("text", "photo")))}
        for key in ("body", "caption", "slug"):
            if draw(st.booleans()):
                post[key] = draw(st.sampled_from(("", "x")))
        if draw(st.booleans()):
            post["tags"] = draw(st.lists(st.sampled_from(TAGS), max_size=3))
        if draw(st.booleans()):
            post["notes"] = [{"blog_name": name, "kind": kind} for name, kind in draw(
                st.lists(st.tuples(names, st.sampled_from(("like", "reblog"))),
                         max_size=3))]
        posts.append(post)
    store = {"blogs": [{"name": name} for name in draw(st.lists(names, max_size=3))],
             "posts": posts}
    if draw(st.booleans()):
        store["seed"] = "a"
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, store)
    return store


def _fault(check, document) -> str | None:
    try:
        check(document)
    except GraphFormatError as exc:
        return str(exc)
    return None


class TestStoreChecksMatchReference:
    """The column checks against the per-record walk they replaced."""

    def _assert_same(self, document):
        fault = _fault(reference_validate_fixture, document)
        assert _fault(validate_fixture, document) == fault
        if fault is None:
            store = FixtureStore(document)
            assert ((store._by_blogger, store._by_tag, store._blogs)
                    == reference_store_index(document))

    def test_tables_and_stores(self, hand_store_data, small_bundle):
        for document in [*MALFORMED_STORES.values(), *EDGE_STORES.values(),
                         hand_store_data, small_bundle.store_data]:
            self._assert_same(document)

    def test_a_mapping_other_than_dict_is_not_a_record(self, hand_store_data):
        for path in (("blogs", 1), ("posts", 2), ("posts", 2, "notes", 1)):
            document = copy.deepcopy(hand_store_data)
            *parents, last = path
            container = document
            for key in parents:
                container = container[key]
            container[last] = MappingProxyType(container[last])
            self._assert_same(document)
            assert _fault(validate_fixture, document) is not None

    @given(store=mutated_stores())
    @settings(max_examples=600, deadline=None)
    def test_mutated_stores(self, store):
        self._assert_same(store)

    @given(document=fixture_documents())
    @settings(max_examples=300, deadline=None)
    def test_random_documents(self, document):
        self._assert_same(document)


class TestFixtureStore:
    def test_type_filter(self):
        data = {"blogs": [{"name": "a"}],
                "posts": [make_post("p1", "a", "one"),
                          make_post("p2", "a", "two", type="photo"),
                          make_post("p3", "a", "three")]}
        store = FixtureStore(data)
        assert [p.id for p in store.blogger_posts("a")] == ["p1", "p3"]
        assert [p.id for p in store.blogger_posts("a", limit=2)] == ["p1", "p3"]

    def test_limit_is_a_prefix_of_newest(self):
        data = {"blogs": [{"name": "a"}],
                "posts": [make_post(f"p{i}", "a", f"body {i}")
                          for i in range(150)]}
        store = FixtureStore(data)
        posts = store.blogger_posts("a", limit=100)
        assert len(posts) == 100
        assert [p.id for p in posts] == [f"p{i}" for i in range(100)]

    def test_unknown_blogger(self, hand_store):
        with pytest.raises(NotFoundError):
            hand_store.blogger_posts("nobody")

    def test_blog_without_posts_is_known(self):
        store = FixtureStore({"blogs": [{"name": "quiet"}], "posts": []})
        assert store.blogger_posts("quiet") == []

    def test_blogger_with_photo_posts_only_is_known(self):
        store = FixtureStore({"blogs": [],
                              "posts": [make_post("p1", "a", "x", type="photo")]})
        assert store.blogger_posts("a") == []

    def test_notes_come_embedded(self, hand_store):
        [post] = hand_store.blogger_posts("carol")
        assert post.notes == (note("dave", "like"), note("dave", "reblog"),
                              note("xena", "like"))

    def test_tagged_posts(self):
        data = {"blogs": [{"name": "a"}],
                "posts": [make_post("p1", "a", "x", tags=("stars",)),
                          make_post("p2", "a", "y", tags=("stars", "moon"))]}
        store = FixtureStore(data)
        assert [p.id for p in store.tagged_posts("#Stars")] == ["p1", "p2"]
        assert [p.id for p in store.tagged_posts("stars", limit=1)] == ["p1"]
        assert store.tagged_posts("absent") == []

    def test_a_post_is_listed_once_per_distinct_tag(self):
        data = {"blogs": [{"name": "a"}],
                "posts": [make_post("p1", "a", "x", tags=("Stars", "#stars", "")),
                          make_post("p2", "a", "y", tags=("stars",))]}
        store = FixtureStore(data)
        assert [p.id for p in store.tagged_posts("stars")] == ["p1", "p2"]
        assert [p.id for p in store.tagged_posts("stars", limit=2)] == ["p1", "p2"]

    def test_seed_and_blog_names(self, hand_store):
        assert hand_store.seed_blogger == "alpha"
        for name in ("alpha", "bravo", "carol", "dave", "xena", "yuri"):
            assert [p.blog_name for p in hand_store.blogger_posts(name)] == [name]

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(GraphFormatError):
            FixtureStore.load(path)


@pytest.fixture()
def collector_state():
    """Restores the collector's switch after a test that flips it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestStoreLoadCollector:
    """``FixtureStore.load`` collects once, loads with the collector paused,
    freezes what survives and leaves the collector's switch as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("store", ["good", "malformed"])
    def test_switch_is_restored(self, enabled, store, hand_store_data, tmp_path,
                                collector_state):
        path = tmp_path / "store.json"
        document = (hand_store_data if store == "good"
                    else MALFORMED_STORES["post id empty"])
        path.write_text(json.dumps(document), encoding="utf-8")
        (gc.enable if enabled else gc.disable)()
        if store == "good":
            FixtureStore.load(path)
        else:
            with pytest.raises(GraphFormatError):
                FixtureStore.load(path)
        assert gc.isenabled() is enabled

    def test_cycle_dropped_before_the_load_is_collected(self, hand_store_data,
                                                        tmp_path, collector_state):
        path = tmp_path / "store.json"
        path.write_text(json.dumps(hand_store_data), encoding="utf-8")
        gc.disable()
        cycle = _Record()
        cycle["self"] = cycle
        finalizer = weakref.finalize(cycle, lambda: None)
        del cycle
        assert finalizer.alive
        FixtureStore.load(path)
        assert not finalizer.alive

    def test_the_store_is_frozen(self, small_bundle, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(json.dumps(small_bundle.store_data), encoding="utf-8")
        # Frozen objects that die leave the count, so it starts from none.
        gc.unfreeze()
        store = FixtureStore.load(path)
        assert gc.get_freeze_count() >= len(store._records)


# Tags that normalize to one tag, to nothing, or repeat on one post.
ODD_TAG_STORE = {
    "blogs": [{"name": "a"}, {"name": "b"}],
    "posts": [make_post("p1", "a", "one", tags=["Stars", "#stars", " ", ""],
                        notes=[("b", "like"), ("b", "reblog"), ("c", "like")]),
              make_post("p2", "b", "two", tags=["moon", "#Stars"], type="photo"),
              make_post("p3", "a", "three", tags=["MOON"],
                        notes=[("a", "reblog")])],
}


# One blogger's posts, all under one tag, with noters and kinds repeated
# across posts.
ONE_FEED_STORE = {
    "blogs": [{"name": "a"}],
    "posts": [make_post("p1", "a", "one", tags=["t"],
                        notes=[("c", "like"), ("c", "reblog")]),
              make_post("p2", "a", "two", tags=["t"],
                        notes=[("d", "like"), ("c", "like")]),
              make_post("p3", "a", "three", tags=["T"],
                        notes=[("c", "reblog"), ("d", "like")])],
}

# One noter and kind on posts by two bloggers, and under one tag.
SHARED_NOTER_STORE = {
    "blogs": [{"name": "a"}, {"name": "b"}],
    "posts": [make_post("p1", "a", "one", tags=["t"],
                        notes=[("c", "like"), ("c", "reblog")]),
              make_post("p2", "b", "two", tags=["t"],
                        notes=[("d", "like"), ("c", "like")]),
              make_post("p3", "a", "three", notes=[("c", "reblog")])],
}


@pytest.fixture()
def built(monkeypatch):
    """Ids of the records ``post_from_record`` parses, in call order."""
    ids = []
    parse = crawler_module.post_from_record
    monkeypatch.setattr(crawler_module, "post_from_record",
                        lambda record, note_records:
                        ids.append(record["id"]) or parse(record, note_records))
    return ids


class TestRequestContract:
    """Both data sources parse, for each request, exactly the posts it
    returns; the posts of every request share the store's NoteRecords."""

    REQUESTS = [("blogger_posts", "a", None), ("tagged_posts", "t", None),
                ("blogger_posts", "a", 2), ("tagged_posts", "#T", 1),
                ("blogger_posts", "a", None), ("tagged_posts", "t", 2)]

    @pytest.mark.parametrize("source", ["FixtureStore", "HttpJsonStore"])
    def test_each_request_parses_what_it_returns(self, source, built):
        store = (FixtureStore(ONE_FEED_STORE) if source == "FixtureStore"
                 else HttpJsonStore("http://store.test", get=FakeGet(
                     {"posts": ONE_FEED_STORE["posts"]})))
        eager = EagerFixtureStore(ONE_FEED_STORE)
        answers = []
        for method, key, limit in self.REQUESTS:
            del built[:]
            answer = getattr(store, method)(key, limit)
            assert answer == getattr(eager, method)(key, limit)
            assert built == [post.id for post in answer]
            answers.append(answer)
        posts = [post for answer in answers for post in answer]
        assert len(set(map(id, posts))) == len(posts) == 14
        notes = [note for post in posts for note in post.notes]
        shared = {(note.blog_name, note.kind): note for note in notes}
        assert len(shared) == 3
        assert all(note is shared[note.blog_name, note.kind] for note in notes)


class TestLazyPosts:
    """The store checks every record at load but parses a post only when a
    request returns it."""

    def test_load_parses_no_post(self, built, small_bundle, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(json.dumps(small_bundle.store_data), encoding="utf-8")
        store = FixtureStore.load(path)
        assert store.seed_blogger == small_bundle.store_data["seed"]
        assert built == []

    def test_type_and_limit_parse_only_what_is_returned(self, built):
        store = FixtureStore(ODD_TAG_STORE)
        assert [p.id for p in store.blogger_posts("a", limit=1)] == ["p1"]
        assert built == ["p1"]
        assert [p.id for p in store.tagged_posts("stars")] == ["p1"]
        assert built == ["p1", "p1"]
        assert [p.id for p in store.tagged_posts("moon")] == ["p3"]
        assert built == ["p1", "p1", "p3"]

    def test_photo_posts_are_never_returned_or_parsed(self, built):
        store = FixtureStore(ODD_TAG_STORE)
        returned = [p.id for tag in ("moon", "stars", "#Stars", "MOON")
                    for p in store.tagged_posts(tag)]
        returned += [p.id for name in ("a", "b") for p in store.blogger_posts(name)]
        assert store.blogger_posts("b") == []
        assert "p2" not in returned
        assert "p2" not in built

    def test_posts_share_note_records(self, built):
        store = FixtureStore(SHARED_NOTER_STORE)
        p1, p3 = store.blogger_posts("a")
        [p2] = store.tagged_posts("t", limit=2)[1:]
        assert built == ["p1", "p3", "p1", "p2"]
        assert p1.notes[0] is p2.notes[1]
        assert p1.notes[1] is p3.notes[0]
        assert p1.notes[0] is not p1.notes[1]
        assert [(n.blog_name, n.kind) for n in p1.notes + p2.notes] == [
            ("c", NoteKind.LIKE), ("c", NoteKind.REBLOG),
            ("d", NoteKind.LIKE), ("c", NoteKind.LIKE)]
        eager = EagerFixtureStore(SHARED_NOTER_STORE)
        assert [p1, p3] == eager.blogger_posts("a")
        assert [p2] == eager.blogger_posts("b")

    @pytest.mark.parametrize("which", ["hand", "generated", "odd tags"])
    def test_answers_like_the_eager_store(self, which, hand_store_data,
                                          small_bundle):
        data = {"hand": hand_store_data, "generated": small_bundle.store_data,
                "odd tags": ODD_TAG_STORE}[which]
        lazy, eager = FixtureStore(data), EagerFixtureStore(data)
        assert lazy.seed_blogger == eager.seed_blogger
        raw_tags = {tag for r in data["posts"] for tag in r.get("tags", ())}
        for tag in sorted(raw_tags) + ["#STARGAZING", "absent", ""]:
            for limit in (None, 0, 1, 3):
                assert lazy.tagged_posts(tag, limit) \
                    == eager.tagged_posts(tag, limit)
        names = {b["name"] for b in data["blogs"]} | {r["blog_name"]
                                                     for r in data["posts"]}
        for name in sorted(names):
            for limit in (None, 1, 5):
                assert lazy.blogger_posts(name, limit) \
                    == eager.blogger_posts(name, limit)
        for store in (lazy, eager):
            with pytest.raises(NotFoundError):
                store.blogger_posts("absent")


def serve_fixture(store_data, flaky=None, failure=(500, {})):
    """Tiny HTTP twin of FixtureStore; ``flaky`` maps path -> the number of
    ``failure`` answers, a (status, headers) pair, it gets first.

    Like a real server it applies ``limit`` after its ``type`` filter.  The
    server's ``requests`` lists the (path, query parameters) of every GET.
    """
    records_by_blog = {}
    for record in store_data["posts"]:
        records_by_blog.setdefault(record["blog_name"], []).append(record)
    blogs = {blog["name"] for blog in store_data["blogs"]}
    failures = dict(flaky or {})
    requests = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _send(self, code, payload=None, headers=()):
            body = json.dumps(payload if payload is not None else {}).encode()
            self.send_response(code)
            for header in headers:
                self.send_header(*header)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            parsed = urlsplit(self.path)
            path = unquote(parsed.path)
            params = dict(parse_qsl(parsed.query))
            requests.append((path, params))
            if failures.get(path, 0) > 0:
                failures[path] -= 1
                status, headers = failure
                self._send(status, {"error": "transient"}, headers.items())
                return
            parts = path.strip("/").split("/")
            if len(parts) == 3 and parts[0] == "blog" and parts[2] == "posts":
                name = parts[1]
                if name not in blogs and name not in records_by_blog:
                    self._send(404)
                    return
                records = records_by_blog.get(name, [])
            elif len(parts) == 2 and parts[0] == "tagged":
                records = [r for r in store_data["posts"]
                           if parts[1] in r.get("tags", [])]
            else:
                self._send(404)
                return
            if "type" in params:
                records = [r for r in records if r["type"] == params["type"]]
            if "limit" in params:
                records = records[:int(params["limit"])]
            self._send(200, {"posts": records})

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.requests = requests
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, failures


@pytest.fixture()
def hand_http(hand_store_data):
    server, failures = serve_fixture(hand_store_data)
    yield f"http://127.0.0.1:{server.server_address[1]}", failures
    server.shutdown()
    server.server_close()


@pytest.fixture()
def no_backoff(monkeypatch):
    monkeypatch.setattr(crawler_module, "BACKOFF_S", 0.0)


class TestHttpJsonStore:
    def test_blogger_posts(self, hand_http):
        base, _ = hand_http
        store = HttpJsonStore(base)
        posts = store.blogger_posts("alpha")
        assert [p.id for p in posts] == ["p1"]
        assert posts[0].notes == (note("bravo", "like"),)

    def test_unknown_blogger_is_not_found(self, hand_http):
        base, _ = hand_http
        store = HttpJsonStore(base)
        with pytest.raises(NotFoundError):
            store.blogger_posts("nobody")

    def test_notes_and_limit(self, hand_http):
        base, _ = hand_http
        store = HttpJsonStore(base)
        [post] = store.blogger_posts("carol", limit=1)
        assert post.notes == (note("dave", "like"), note("dave", "reblog"),
                              note("xena", "like"))

    def test_transient_failures_are_retried(self, hand_store_data, no_backoff):
        server, failures = serve_fixture(hand_store_data,
                                         flaky={"/blog/alpha/posts": 2})
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            store = HttpJsonStore(base)
            posts = store.blogger_posts("alpha")
            assert [p.id for p in posts] == ["p1"]
            assert failures["/blog/alpha/posts"] == 0
        finally:
            server.shutdown()
            server.server_close()

    def test_persistent_failure_reports_attempts(self, hand_store_data,
                                                 no_backoff):
        server, _ = serve_fixture(hand_store_data,
                                  flaky={"/blog/alpha/posts": 99})
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            store = HttpJsonStore(base)
            with pytest.raises(RetrievalError) as err:
                store.blogger_posts("alpha")
            assert err.value.retries == 3
        finally:
            server.shutdown()
            server.server_close()

    def test_a_body_that_is_not_json_is_retried(self, no_backoff):
        urls = []

        def get(url):
            urls.append(url)
            return 200, {}, b"<html>busy</html>"

        with pytest.raises(RetrievalError,
                           match="GET /blog/a/posts failed after 3 attempts") as err:
            HttpJsonStore("http://store.test", get=get).blogger_posts("a")
        assert err.value.retries == 3
        assert len(urls) == 3

    def test_retry_after_is_read_from_the_response(self, hand_store_data,
                                                   monkeypatch):
        server, _ = serve_fixture(hand_store_data, flaky={"/blog/alpha/posts": 1},
                                  failure=(503, {"Retry-After": "2"}))
        waits = []
        monkeypatch.setattr(crawler_module.time, "sleep", waits.append)
        try:
            store = HttpJsonStore(f"http://127.0.0.1:{server.server_address[1]}")
            assert [p.id for p in store.blogger_posts("alpha")] == ["p1"]
        finally:
            server.shutdown()
            server.server_close()
        assert waits == [2]

    @pytest.mark.parametrize("base", ["not-a-url", "http://127.0.0.1:1",
                                      "ftp://x", "file:///"])
    def test_unusable_base_url_fails_after_every_attempt(self, base,
                                                         no_backoff):
        with pytest.raises(RetrievalError,
                           match="GET /blog/a/posts failed after 3 attempts") as err:
            HttpJsonStore(base).blogger_posts("a")
        assert err.value.retries == 3

    def test_a_file_url_is_not_read(self, tmp_path, no_backoff):
        # The file that the URL of blogger a's posts names holds a payload.
        posts = tmp_path / "blog" / "a" / "posts?type=text"
        posts.parent.mkdir(parents=True)
        posts.write_text('{"posts": []}')
        with pytest.raises(RetrievalError, match="after 3 attempts"):
            HttpJsonStore(tmp_path.as_uri()).blogger_posts("a")

    @pytest.mark.parametrize("scheme", ["http", "file", "ftp", "data"])
    def test_redirects_are_followed_over_http_only(self, hand_http, scheme,
                                                   no_backoff):
        base, _ = hand_http
        target = {"http": f"{base}/blog/alpha/posts",
                  "file": "file:///dev/null",
                  "ftp": "ftp://127.0.0.1:1/posts",
                  "data": "data:application/json,%7B%22posts%22%3A%5B%5D%7D"}[scheme]
        redirects = []

        class Redirect(http.server.BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                redirects.append(self.path)
                self.send_response(302)
                self.send_header("Location", target)
                self.send_header("Content-Length", "0")
                self.end_headers()

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Redirect)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            store = HttpJsonStore(f"http://127.0.0.1:{server.server_address[1]}")
            if scheme == "http":
                assert [p.id for p in store.blogger_posts("x")] == ["p1"]
            else:
                with pytest.raises(RetrievalError, match="after 3 attempts"):
                    store.blogger_posts("x")
        finally:
            server.shutdown()
            server.server_close()
        assert len(redirects) == (1 if scheme == "http" else 3)

    @pytest.mark.parametrize("status, calls", [
        (400, 1), (403, 1), (410, 1), (429, 3), (500, 3), (503, 3)])
    def test_only_transient_statuses_are_retried(self, monkeypatch, status, calls):
        urls = []

        def get(url):
            urls.append(url)
            return status, {}, b"{}"

        sleeps = []
        monkeypatch.setattr(crawler_module.time, "sleep", sleeps.append)
        monkeypatch.setattr(crawler_module, "BACKOFF_S", 0.5)
        store = HttpJsonStore("http://store.test", get=get)
        with pytest.raises(RetrievalError, match=f"HTTP {status}") as err:
            store.blogger_posts("a")
        assert len(urls) == calls
        assert err.value.retries == calls
        assert len(sleeps) == calls - 1

    @pytest.mark.parametrize("status, retry_after, sleeps", [
        (429, "2", [2, 2]),
        (503, " 1 ", [1, 1]),
        (503, "0", [0.5, 1.0]),
        (500, "2", [0.5, 1.0]),
        (429, None, [0.5, 1.0]),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", [0.5, 1.0]),
        (503, "-3", [0.5, 1.0]),
        (503, "1.5", [0.5, 1.0]),
        (429, "\u0662", [0.5, 1.0]),
        (429, "60", [60, 60]),
    ])
    def test_retry_after_lengthens_the_wait(self, monkeypatch, status,
                                            retry_after, sleeps):
        headers = {} if retry_after is None else {"Retry-After": retry_after}

        waits = []
        monkeypatch.setattr(crawler_module.time, "sleep", waits.append)
        monkeypatch.setattr(crawler_module, "BACKOFF_S", 0.5)
        store = HttpJsonStore("http://store.test",
                              get=lambda url: (status, headers, b"{}"))
        with pytest.raises(RetrievalError, match=f"HTTP {status}"):
            store.blogger_posts("a")
        assert waits == sleeps  # no wait after the last attempt

    @pytest.mark.parametrize("status", [429, 503])
    @pytest.mark.parametrize("retry_after", [
        "61", "86400", "1000000", "10000000000",
        pytest.param("9" * 5000, id="5000-digits")])
    def test_retry_after_over_the_limit_fails_at_once(self, monkeypatch, status,
                                                      retry_after):
        urls = []

        def get(url):
            urls.append(url)
            return status, {"Retry-After": retry_after}, b"{}"

        waits = []
        monkeypatch.setattr(crawler_module.time, "sleep", waits.append)
        monkeypatch.setattr(crawler_module, "BACKOFF_S", 0.5)
        store = HttpJsonStore("http://store.test", get=get)
        with pytest.raises(RetrievalError, match=f"HTTP {status} with Retry-After"
                                                 f" over {MAX_RETRY_AFTER_S} s") as err:
            store.blogger_posts("a")
        assert len(urls) == 1 and err.value.retries == 1
        assert waits == []

    def test_retry_after_applies_without_backoff(self, monkeypatch):
        responses = iter([(429, {"Retry-After": "3"}, b"{}"),
                          (200, {}, b'{"posts": []}')])
        waits = []
        monkeypatch.setattr(crawler_module.time, "sleep", waits.append)
        monkeypatch.setattr(crawler_module, "BACKOFF_S", 0)
        store = HttpJsonStore("http://store.test",
                              get=lambda url: next(responses))
        assert store.blogger_posts("a") == []
        assert waits == [3]

    @pytest.mark.parametrize("name", sorted(MALFORMED_POSTS))
    def test_malformed_post_record(self, name):
        store = HttpJsonStore("http://store.test",
                              get=FakeGet({"posts": [MALFORMED_POSTS[name]]}))
        with pytest.raises(GraphFormatError, match=r"bad posts payload: posts\[0\]"):
            store.blogger_posts("a")
        with pytest.raises(GraphFormatError):
            store.tagged_posts("t")

    @pytest.mark.parametrize("name", sorted(MALFORMED_POSTS))
    def test_first_malformed_post_is_named(self, name):
        # The later record breaks the first rule of a post, so a check of
        # the whole payload rule by rule finds it before the earlier one.
        later = ("post not an object" if name != "post not an object"
                 else "post id missing")
        records = [make_post("p1", "a", "one"), make_post("p2", "b", "two"),
                   MALFORMED_POSTS[name], MALFORMED_POSTS[later]]
        with pytest.raises(GraphFormatError) as expected:
            reference_check_post_record(records[2], "bad posts payload: posts[2]")
        store = HttpJsonStore("http://store.test", get=FakeGet({"posts": records}))
        with pytest.raises(GraphFormatError) as err:
            store.blogger_posts("a")
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("payload", [
        {"posts": [{"id": 7, "blog_name": ["x"], "tags": "ab"}]},
        {"posts": [{"id": "p1", "blog_name": "a", "type": "text", "body": 5}]},
        {"posts": "p1"},
        [],
    ])
    def test_malformed_posts_payload(self, payload):
        store = HttpJsonStore("http://store.test", get=FakeGet(payload))
        with pytest.raises(GraphFormatError, match="bad posts payload"):
            store.blogger_posts("a")

    def test_names_and_tags_are_one_escaped_segment(self):
        get = FakeGet({"posts": []})
        store = HttpJsonStore("http://h/api", get=get)
        assert store.blogger_posts("a/b") == []
        assert store.blogger_posts("../../x") == []
        assert store.tagged_posts("#Sci/Fi") == []
        assert store.tagged_posts("../x?y") == []
        assert get.urls == ["http://h/api/blog/a%2Fb/posts",
                            "http://h/api/blog/..%2F..%2Fx/posts",
                            "http://h/api/tagged/sci%2Ffi",
                            "http://h/api/tagged/..%2Fx%3Fy"]
        # A resolver removes dot segments, escaped ones too; none is left to
        # leave the API path.
        for url in get.urls:
            segments = map(unquote, urlsplit(url).path.split("/"))
            assert not set(segments) & {".", ".."}

    @pytest.mark.parametrize("name", [".", "..", "bad\ud800"])
    def test_dot_names_send_no_request(self, name):
        get = FakeGet({"posts": [make_post("p1", "a", "text")]})
        store = HttpJsonStore("http://h/api", get=get)
        with pytest.raises(NotFoundError):
            store.blogger_posts(name)
        assert store.tagged_posts(name) == []
        assert store.tagged_posts(f" #{name}") == []
        assert get.urls == []

    def test_crawl_discards_a_noter_no_url_can_name(self, hand_model,
                                                    hand_config):
        # Every GET answers with the seed's post, noted by a name UTF-8
        # cannot encode; that noter is discarded as unknown.
        get = FakeGet({"posts": [make_post(
            "p1", "alpha", HAND_BODIES["alpha"], notes=[("bad\ud800", "like")])]})
        result = crawl(HttpJsonStore("http://h/api", get=get),
                       hand_model, hand_config)
        assert result.graph.nodes() == ["alpha"]
        assert result.discarded == {"bad\ud800"}
        assert get.urls == ["http://h/api/blog/alpha/posts"]

    def test_bootstrap_skips_a_tag_no_url_can_name(self):
        get = FakeGet({"posts": [make_post(
            "p1", "alpha", HAND_BODIES["alpha"], tags=["stars", "bad\ud800"])]})
        corpus, lexicon = bootstrap_exemplars(
            HttpJsonStore("http://h/api", get=get), ["stars"], 5)
        assert corpus.document_ids == ["p1"]
        assert lexicon == {"stars": 0, "bad\ud800": 1}
        assert get.urls == ["http://h/api/tagged/stars"]

    def test_well_formed_payload_parses(self):
        record = make_post("p1", "a", "some text", notes=[("b", "like")], tags=["T"])
        store = HttpJsonStore("http://store.test",
                              get=FakeGet({"posts": [record]}))
        [post] = store.blogger_posts("a")
        assert post == post_from_record(record, {})

    def test_requests_ask_for_text_posts_and_the_limit(self, hand_store_data,
                                                       hand_model, hand_config):
        data = copy.deepcopy(hand_store_data)
        data["posts"].insert(0, make_post("p0", "alpha", "a photo",
                                          tags=["stars"], type="photo"))
        data["posts"][1]["tags"] = ["stars"]
        server, _ = serve_fixture(data)
        try:
            store = HttpJsonStore(f"http://127.0.0.1:{server.server_address[1]}")
            # The server drops the photo before its limit, so one post is p1.
            assert [p.id for p in store.blogger_posts("alpha", limit=1)] == ["p1"]
            assert [p.id for p in store.tagged_posts("#Stars")] == ["p1"]
            assert server.requests == [
                ("/blog/alpha/posts", {"type": "text", "limit": "1"}),
                ("/tagged/stars", {"type": "text"})]
            del server.requests[:]
            crawl(store, hand_model, hand_config)
            bootstrap_exemplars(store, ["stars"], 7)
        finally:
            server.shutdown()
            server.server_close()
        blogs = [(path, params) for path, params in server.requests
                 if path.startswith("/blog/")]
        assert len(blogs) == len(HAND_BODIES)
        assert all(params == {"type": "text", "limit": "100"}
                   for _, params in blogs)
        assert server.requests[len(blogs):] == [
            ("/tagged/stars", {"type": "text", "limit": "7"})]

    def test_other_post_types_are_dropped_unparsed(self, monkeypatch):
        records = [make_post("p1", "a", "a photo", tags=["t"], type="photo"),
                   make_post("p2", "a", "text two", tags=["t"]),
                   make_post("p3", "a", "text three", tags=["t"])]
        parsed = []
        parse = crawler_module.post_from_record
        monkeypatch.setattr(crawler_module, "post_from_record",
                            lambda record, note_records:
                            parsed.append(record["id"]) or parse(record, note_records))
        store = HttpJsonStore("http://store.test",
                              get=FakeGet({"posts": records}))
        assert [p.id for p in store.blogger_posts("a")] == ["p2", "p3"]
        assert parsed == ["p2", "p3"]
        # A limit parses only the posts it returns.
        assert [p.id for p in store.tagged_posts("t", limit=1)] == ["p2"]
        assert parsed == ["p2", "p3", "p2"]

    def test_requests_share_note_records(self):
        store = HttpJsonStore(
            "http://store.test",
            get=FakeGet({"posts": SHARED_NOTER_STORE["posts"]}))
        first = store.blogger_posts("a")
        second = store.tagged_posts("t")
        assert first == second
        assert first[0] is not second[0]
        assert first[0].notes[0] is first[1].notes[1] is second[0].notes[0]
        assert first[0].notes[1] is second[2].notes[0]

    def test_crawl_over_http_matches_fixture_store(self, hand_http,
                                                   hand_store, hand_model,
                                                   hand_config):
        base, _ = hand_http
        http_result = crawl(HttpJsonStore(base), hand_model,
                            hand_config)
        local_result = crawl(hand_store, hand_model, hand_config)
        assert http_result.canonical_bytes() == local_result.canonical_bytes()


class TestDataSourceContract:
    """The pipeline needs only ``blogger_posts`` and ``tagged_posts`` without
    a ``type`` keyword: bootstrap, seed scoring and the crawl replay the golden
    traces on a source that offers nothing else."""

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_golden_traces_on_two_request_source(self, seed):
        store, model, threshold = network(seed, source=EagerFixtureStore)
        for policy in SelectionPolicy:
            expected = json.loads(golden_path(seed, policy).read_text(encoding="utf-8"))
            assert crawl_trace(store, model, threshold, seed, policy) == expected


class TestFetchPosts:
    def test_only_text_posts(self, hand_config):
        data = {"blogs": [{"name": "a"}],
                "posts": [make_post("p1", "a", "one two three"),
                          make_post("p2", "a", "hidden", type="photo"),
                          make_post("p3", "a", "four five six")]}
        store = FixtureStore(data)
        kept = fetch_posts(store, "a", hand_config)
        assert [p.id for p, _ in kept] == ["p1", "p3"]

    def test_respects_posts_per_blogger(self, hand_threshold):
        config = CrawlConfig(seed="a", threshold=hand_threshold,
                             posts_per_blogger=2)
        data = {"blogs": [{"name": "a"}],
                "posts": [make_post(f"p{i}", "a", f"body {i}")
                          for i in range(5)]}
        kept = fetch_posts(FixtureStore(data), "a", config)
        assert [p.id for p, _ in kept] == ["p0", "p1"]

    def test_drops_non_english_posts(self, hand_config):
        data = {"blogs": [{"name": "a"}],
                "posts": [make_post("p1", "a",
                                    "the stars are bright and the moon is out"),
                          make_post("p2", "a",
                                    "der mond scheint hell über dem stillen wald")]}
        kept = fetch_posts(FixtureStore(data), "a", hand_config)
        assert [(p.id, text) for p, text in kept] == [
            ("p1", "the stars are bright and the moon is out")]


class TestExtractFrontiers:
    """Each noter comes with the label mask of their kinds, read here as the
    kinds through ``LABEL_KINDS``."""

    def frontiers(self, notes, width=25, blogger="host"):
        config = CrawlConfig(seed="seed", threshold=-3.0,
                             frontier_width=width)
        post = Post(id="p1", blog_name=blogger, body="b",
                    notes=tuple(note(n, k) for n, k in notes))
        return extract_frontiers(blogger, [post], config)

    def entries(self, notes, **options):
        return [(name, LABEL_KINDS[mask])
                for name, mask in self.frontiers(notes, **options).items()]

    def test_merges_kinds_per_noter(self):
        notes = [("x", "like"), ("y", "reblog"), ("x", "reblog")]
        assert self.entries(notes) == [
            ("x", {NoteKind.LIKE, NoteKind.REBLOG}), ("y", {NoteKind.REBLOG})]
        assert self.frontiers(notes) == {
            "x": LABEL_BIT["like"] | LABEL_BIT["reblog"], "y": LABEL_BIT["reblog"]}

    def test_no_notes(self):
        assert self.entries([]) == []

    def test_width_caps_each_kind(self):
        noters = [(f"fan{i:02d}", "like") for i in range(30)]
        result = self.entries(noters, width=25)
        assert len(result) == 25
        assert result[0][0] == "fan00"
        assert result[-1][0] == "fan24"

    def test_dual_noter_pulls_one_extra(self):
        result = self.entries([("x", "like"), ("x", "reblog"),
                               ("y", "like"), ("z", "reblog")], width=1)
        assert result == [
            ("x", {NoteKind.LIKE, NoteKind.REBLOG}), ("y", {NoteKind.LIKE})]

    def test_dual_with_nothing_left_to_pull(self):
        result = self.entries([("x", "like"), ("x", "reblog")], width=1)
        assert result == [("x", {NoteKind.LIKE, NoteKind.REBLOG})]

    def test_own_notes_ignored(self):
        result = self.entries([("host", "like"), ("x", "reblog")])
        assert [name for name, _ in result] == ["x"]

    def test_entries_merge_across_posts(self):
        config = CrawlConfig(seed="seed", threshold=-3.0)
        posts = [Post(id="p1", blog_name="host", body="b",
                      notes=(note("x", "like"),)),
                 Post(id="p2", blog_name="host", body="b",
                      notes=(note("x", "reblog"), note("y", "like")))]
        result = extract_frontiers("host", posts, config)
        assert [(name, LABEL_KINDS[mask]) for name, mask in result.items()] == [
            ("x", {NoteKind.LIKE, NoteKind.REBLOG}), ("y", {NoteKind.LIKE})]


class TestTransitionMatrix:
    def test_out_edges_share_mass(self):
        graph = CommunityGraph()
        graph.add_link("a", "b", NoteKind.LIKE)
        graph.add_link("a", "c", NoteKind.LIKE)
        matrix = build_transition_matrix(graph)
        assert matrix.ordering == ["a", "b", "c"]
        a = matrix.ordering.index("a")
        np.testing.assert_allclose(matrix.entries[a],
                                   [0.0, 0.5, 0.5], atol=0)

    def test_dangling_node_keeps_mass(self):
        graph = CommunityGraph()
        graph.add_link("a", "b", NoteKind.LIKE)
        matrix = build_transition_matrix(graph)
        b = matrix.ordering.index("b")
        assert matrix.entries[b, b] == 1.0

    def test_rows_sum_to_one(self, rng):
        for _ in range(25):
            nodes, edges = random_digraph(rng)
            graph = CommunityGraph()
            for node_name in nodes:
                graph.add_node(node_name)
            for src, dst in edges:
                graph.add_link(src, dst, NoteKind.LIKE)
            matrix = build_transition_matrix(graph)
            np.testing.assert_allclose(matrix.entries.sum(axis=1),
                                       np.ones(len(nodes)), atol=1e-9)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            build_transition_matrix(CommunityGraph())

    def test_equals_per_edge_loop(self, rng):
        seen = set()
        for _ in range(60):
            nodes, edges = random_digraph(
                rng, max_nodes=12, edge_prob=rng.choice([0.1, 0.3, 0.6]))
            graph = CommunityGraph()
            # The other nodes arrive as edge ends, or not at all.
            listed = rng.sample(nodes, rng.randint(0, len(nodes)))
            for node_name in listed:
                graph.add_node(node_name)
            rng.shuffle(edges)
            for src, dst in edges:
                graph.add_labels(src, dst, rng.randint(1, 3))
            if graph.node_count() == 0:
                continue
            for node_name in graph.nodes():
                if node_name not in listed:
                    seen.add("edge end")
                if not graph.successors(node_name):
                    seen.add("sink")
                    if not any(node_name == dst for _, dst in edges):
                        seen.add("isolated")
            matrix = build_transition_matrix(graph)
            reference = reference_transition_matrix(graph)
            assert matrix.ordering == reference.ordering
            assert np.array_equal(matrix.entries, reference.entries)
        assert seen == {"edge end", "sink", "isolated"}


class TestPropagate:
    def _two_cycle(self):
        graph = CommunityGraph()
        graph.add_link("a", "b", NoteKind.LIKE)
        graph.add_link("b", "a", NoteKind.LIKE)
        return build_transition_matrix(graph)

    def test_zero_steps_is_identity(self):
        matrix = self._two_cycle()
        p = propagate([1.0, 0.0], matrix, 0)
        np.testing.assert_allclose(p, [1.0, 0.0], atol=0)

    def test_two_cycle_alternates(self):
        matrix = self._two_cycle()
        np.testing.assert_allclose(propagate([1.0, 0.0], matrix, 1),
                                   [0.0, 1.0], atol=0)
        np.testing.assert_allclose(propagate([1.0, 0.0], matrix, 2),
                                   [1.0, 0.0], atol=0)

    def test_input_validation(self):
        matrix = self._two_cycle()
        with pytest.raises(ValueError):
            propagate([1.0, 0.0, 0.0], matrix, 1)
        with pytest.raises(ValueError):
            propagate([0.9, 0.0], matrix, 1)
        with pytest.raises(ValueError):
            propagate([1.0, 0.0], matrix, -1)

    def test_matches_matrix_power(self, rng):
        for _ in range(20):
            nodes, edges = random_digraph(rng)
            graph = CommunityGraph()
            for node_name in nodes:
                graph.add_node(node_name)
            for src, dst in edges:
                graph.add_link(src, dst, NoteKind.LIKE)
            matrix = build_transition_matrix(graph)
            p0 = np.zeros(len(nodes))
            p0[rng.randrange(len(nodes))] = 1.0
            k = rng.randint(0, 5)
            np.testing.assert_allclose(
                propagate(p0, matrix, k),
                propagate_oracle(p0, matrix.entries, k), atol=1e-12)

    def test_mass_is_conserved(self, rng):
        matrix = self._two_cycle()
        p = propagate([0.25, 0.75], matrix, 7)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestSelectNext:
    """``select_next`` over the session's map: target -> {parent: labels}."""

    def frontier(self, graph, *pairs):
        frontier = Frontier(graph)
        for target, parent in pairs:
            frontier.add(target, parent, {NoteKind.LIKE})
        return frontier

    def graph(self, *nodes):
        graph = CommunityGraph()
        for name in nodes:
            graph.add_node(name)
        return graph

    def test_empty_frontier_rejected(self):
        graph = self.graph()
        with pytest.raises(ValueError):
            select_next(Frontier(graph), {}, SelectionPolicy.MAX_MARKOV,
                        random.Random(0), graph)

    def test_single_entry_both_policies(self):
        graph = self.graph("seed")
        frontier = self.frontier(graph, ("only", "seed"))
        for policy in SelectionPolicy:
            picked = select_next(frontier, {"seed": 1.0}, policy,
                                 random.Random(3), graph)
            assert picked == "only"

    def test_uniform_uses_exactly_one_draw(self):
        graph = self.graph("seed")
        frontier = self.frontier(graph, *((f"blog{i}", "seed") for i in range(3)))
        rng = random.Random(0)
        picked = select_next(frontier, {}, SelectionPolicy.UNIFORM_RANDOM, rng,
                             graph)
        twin = random.Random(0)
        expected_index = int(twin.random() * 3)
        assert picked == list(frontier)[expected_index]
        assert rng.random() == twin.random()  # both consumed just one float

    def test_markov_prefers_mass(self):
        graph = self.graph("pw", "ps")
        frontier = self.frontier(graph, ("weak", "pw"), ("strong", "ps"))
        p = {"pw": 0.2, "ps": 0.7}
        picked = select_next(frontier, p, SelectionPolicy.MAX_MARKOV,
                             random.Random(0), graph)
        assert picked == "strong"

    def test_markov_tie_goes_to_earliest(self):
        graph = self.graph("pa", "pb")
        frontier = self.frontier(graph, ("first", "pa"), ("second", "pb"))
        p = {"pa": 0.5, "pb": 0.5}
        picked = select_next(frontier, p, SelectionPolicy.MAX_MARKOV,
                             random.Random(0), graph)
        assert picked == "first"

    def test_unvisited_entry_inherits_from_parents(self):
        # f was discovered by both b and c; g only by b.  One walk step
        # from each discoverer gives f more provisional mass than g.
        graph = CommunityGraph()
        graph.add_link("b", "a", NoteKind.LIKE)
        graph.add_link("c", "a", NoteKind.LIKE)
        p = {"a": 0.2, "b": 0.5, "c": 0.3}
        frontier = Frontier(graph, {
            "g": {"b": {NoteKind.LIKE}},
            "f": {"b": {NoteKind.LIKE}, "c": {NoteKind.REBLOG}}})
        picked = select_next(frontier, p, SelectionPolicy.MAX_MARKOV,
                             random.Random(0), graph)
        assert picked == "f"

    def test_inherited_mass_divides_by_out_degree(self):
        graph = CommunityGraph()
        graph.add_link("b", "a", NoteKind.LIKE)
        graph.add_link("b", "c", NoteKind.LIKE)   # out-degree 2
        graph.add_link("d", "a", NoteKind.LIKE)   # out-degree 1
        p = {"a": 0.0, "b": 0.4, "c": 0.0, "d": 0.3}
        frontier = self.frontier(graph, ("from-b", "b"), ("from-d", "d"))
        picked = select_next(frontier, p, SelectionPolicy.MAX_MARKOV,
                             random.Random(0), graph)
        # 0.4 / 2 = 0.2 versus 0.3 / 1 = 0.3
        assert picked == "from-d"


# Masses that tie often and whose sums round differently by order.
MASSES = st.sampled_from([0.0, 0.1, 0.125, 0.2, 0.3, 1 / 3, 0.5, 1.0])


class TestFrontierWaysIn:
    """A frontier grown by ``add`` and ``visit`` and one built from its map,
    as ``CrawlSession.resume`` builds it, hold the same live pairs when each
    blogger's discoverers were added in node id order, as a crawl adds them."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_built_from_the_map_matches_the_grown(self, data):
        names = [f"n{i}" for i in range(data.draw(st.integers(1, 5)))]
        graph = CommunityGraph()
        for name in names:
            graph.add_node(name)
        nodes = st.sampled_from(names)
        for _ in range(data.draw(st.integers(0, 8))):
            src, dst = data.draw(nodes), data.draw(nodes)
            if src != dst:
                graph.add_labels(src, dst, 1)
        grown = Frontier(graph)
        for operation in data.draw(st.lists(st.sampled_from(
                ["add", "add", "add", "visit"]), max_size=40)):
            target = data.draw(st.sampled_from("abcdefg"))
            if operation == "add":
                found = grown.parents.get(target, ())
                low = max(map(names.index, found), default=0)
                grown.add(target, data.draw(st.sampled_from(names[low:])), 1)
            else:
                grown.visit(target)
        built = Frontier(graph, grown.parents)
        assert live_pairs(built) == live_pairs(grown)
        if grown:
            p = data.draw(st.dictionaries(nodes, MASSES))
            for policy in SelectionPolicy:
                seed = data.draw(st.integers(0, 2**32))
                assert (select_next(built, p, policy, random.Random(seed), graph)
                        == select_next(grown, p, policy, random.Random(seed), graph))


class TestSelectNextMatchesReference:
    """The ``bincount`` over frontier pairs picks what the per-pair loop
    over the frontier map picks, whether the frontier was grown by ``add``
    or built from a map."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_pick_as_the_loop(self, data):
        names = [f"n{i}" for i in range(data.draw(st.integers(1, 5)))]
        graph = CommunityGraph()
        for name in names:
            graph.add_node(name)
        nodes, targets = st.sampled_from(names), st.sampled_from("abcdefg")
        frontier = Frontier(graph)
        operations = data.draw(st.lists(st.sampled_from(
            ["add", "add", "add", "visit", "link", "resume", "select"]),
            max_size=40)) + ["select"]
        for operation in operations:
            if operation == "add":
                frontier.add(data.draw(targets), data.draw(nodes), 1)
            elif operation == "visit":
                frontier.visit(data.draw(targets))
            elif operation == "link":
                src, dst = data.draw(nodes), data.draw(nodes)
                if src != dst:
                    graph.add_labels(src, dst, 1)
            elif operation == "resume":
                # A resumed frontier may list a blogger's parents in another
                # order than they were found; it sums them in node id order,
                # and so does the loop over the map put in that order.
                frontier = Frontier(graph, {
                    target: dict(data.draw(st.permutations(list(parents.items()))))
                    for target, parents in frontier.parents.items()})
                for parents in frontier.parents.values():
                    by_id = sorted(parents.items(),
                                   key=lambda item: names.index(item[0]))
                    parents.clear()
                    parents.update(by_id)
            elif frontier:
                # Some parents have no mass in ``p`` at all.
                p = data.draw(st.dictionaries(nodes, MASSES))
                for policy in SelectionPolicy:
                    seed = data.draw(st.integers(0, 2**32))
                    assert select_next(frontier, p, policy, random.Random(seed),
                                       graph) == reference_select_next(
                        frontier.parents, p, policy, random.Random(seed), graph)


class TestTracedLookupSites:
    """What ``perfbench/tracer.py`` relies on, in-process: a max-Markov crawl
    looks up ``build_transition_matrix``, ``propagate`` and ``select_next`` as
    module globals and calls them positionally; ``select_next`` gets a
    frontier whose ``len`` is the number of pending bloggers and a name ->
    mass dict that it reads through ``[]``, ``get`` or ``in``."""

    def test_traced_crawl_sees_every_selection(self, monkeypatch):
        store, model, threshold = network(3)
        policy = SelectionPolicy.MAX_MARKOV
        expected = crawl_session(store, model, threshold, 3, policy).run()
        session = crawl_session(store, model, threshold, 3, policy)
        select, pending = crawler_module.select_next, []

        def checking_select(*args, **kwargs):
            assert not kwargs and len(args) == 5
            _, p, _, _, graph = args
            assert isinstance(p, dict) and list(p) == graph.nodes()
            pending.append(len(session.checkpoint()["pending"]))
            return select(*args)

        monkeypatch.setattr(crawler_module, "select_next", checking_select)
        tracer = load_tracer().Tracer()
        tracer.install(spiderveil)
        try:
            result = session.run()
        finally:
            tracer.uninstall()
        assert result.canonical_bytes() == expected.canonical_bytes()
        assert pending and tracer.samples["crawler.frontier_len"] == pending
        assert tracer.counts["crawler.distributions_used"] == len(pending)
        assert tracer.counts["crawler.transition_cells"] > 0
        assert tracer.counts["crawler.propagate_flops"] > 0


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrawlConfig(seed="", threshold=-2.0)
        with pytest.raises(ValueError):
            CrawlConfig(seed="a", threshold=float("nan"))
        with pytest.raises(ValueError):
            CrawlConfig(seed="a", threshold=-2.0, graph_size_limit=0)
        with pytest.raises(ValueError):
            CrawlConfig(seed="a", threshold=-2.0, frontier_width=0)
        with pytest.raises(ValueError):
            CrawlConfig(seed="a", threshold=-2.0, ngram_order=0)

    def test_policy_must_be_a_member(self):
        # A policy value becomes its member, as it does from JSON; a value of
        # any other type is refused.
        config = CrawlConfig(seed="a", threshold=-3.0,
                             selection_policy="uniform_random")
        assert config.selection_policy is SelectionPolicy.UNIFORM_RANDOM
        with pytest.raises(ValueError, match="^selection_policy must be a string$"):
            CrawlConfig(seed="a", threshold=-3.0, selection_policy=5)

    @pytest.mark.parametrize("field,changes", [
        ("seed", {"seed": 5}), ("graph_size_limit", {"graph_size_limit": 2.5}),
        ("rng_seed", {"rng_seed": "x"}), ("threshold", {"threshold": True})])
    def test_constructor_checks_json_kinds(self, field, changes):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            CrawlConfig(**{"seed": "a", "threshold": -3.0, **changes})

    def test_constructor_keeps_converted_values(self):
        config = CrawlConfig(seed="a", threshold=-3, graph_size_limit=2.0)
        assert type(config.graph_size_limit) is int
        assert type(config.threshold) is float
        written = json.dumps(config.to_json_dict())
        assert '"graph_size_limit": 2,' in written and '"threshold": -3.0' in written

    def test_integer_threshold_beyond_float_precision_survives_json(self):
        config = CrawlConfig(seed="a", threshold=2**60 + 1)
        assert config.threshold == float(2**60)
        assert CrawlConfig.from_json_dict(config.to_json_dict()) == config
        with pytest.raises(ValueError, match="^threshold must be a number$"):
            CrawlConfig(seed="a", threshold=10**400)

    # A valid config with at most one setting of any JSON kind.
    @given(st.fixed_dictionaries({}, optional={
        "seed": st.text(min_size=1, max_size=3),
        "threshold": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                               st.integers(-2**70, 2**70)),
        **dict.fromkeys(("graph_size_limit", "frontier_width",
                         "posts_per_blogger", "ngram_order"),
                        st.one_of(st.integers(1, 2**70),
                                  st.integers(1, 50).map(float))),
        "rng_seed": st.one_of(st.integers(-2**70, 2**70),
                              st.integers(-50, 50).map(float)),
        "selection_policy": st.sampled_from(SelectionPolicy)}),
        st.one_of(st.none(), st.tuples(
            st.sampled_from(list(crawler_module.CONFIG_KINDS)),
            st.one_of(st.text(max_size=2), st.integers(-3, 2**70), st.just(10**400),
                      st.floats(), st.booleans(), st.none(),
                      st.sampled_from(SelectionPolicy)))))
    @settings(max_examples=400, deadline=None)
    def test_every_accepted_config_survives_json(self, fields, change):
        fields = {"seed": "a", "threshold": -3.0, **fields}
        if change is not None:
            fields[change[0]] = change[1]
        try:
            config = CrawlConfig(**fields)
        except ValueError:
            return
        assert CrawlConfig.from_json_dict(config.to_json_dict()) == config

    def test_json_round_trip(self):
        config = CrawlConfig(seed="a", threshold=-2.5, graph_size_limit=7,
                             frontier_width=3, posts_per_blogger=9,
                             ngram_order=4,
                             selection_policy=SelectionPolicy.UNIFORM_RANDOM,
                             rng_seed=42)
        assert CrawlConfig.from_json_dict(config.to_json_dict()) == config

    def test_defaults_fill_in(self):
        config = CrawlConfig.from_json_dict({"seed": "a", "threshold": -2.0})
        assert config.graph_size_limit == 1000
        assert config.frontier_width == 25
        assert config.posts_per_blogger == 100
        assert config.selection_policy is SelectionPolicy.MAX_MARKOV

    @pytest.mark.parametrize("key,value", [
        ("seed", 5), ("seed", None), ("threshold", "-2"), ("threshold", [1]),
        ("threshold", True), ("threshold", None), ("graph_size_limit", 2.9),
        ("graph_size_limit", True), ("frontier_width", "3"),
        ("posts_per_blogger", None), ("ngram_order", [3]), ("rng_seed", False),
        ("selection_policy", 1)])
    def test_wrong_json_type_names_the_key(self, key, value):
        with pytest.raises(GraphFormatError, match=f"^bad crawl config: '{key}'"):
            CrawlConfig.from_json_dict({"seed": "a", "threshold": -2.0, key: value})

    def test_required_keys(self):
        with pytest.raises(GraphFormatError, match="'seed'"):
            CrawlConfig.from_json_dict({"threshold": -2.0})
        with pytest.raises(GraphFormatError, match="'threshold'"):
            CrawlConfig.from_json_dict({"seed": "a"})

    def test_integral_floats_are_integers(self):
        config = CrawlConfig.from_json_dict(
            {"seed": "a", "threshold": -2, "graph_size_limit": 7.0, "rng_seed": -1})
        assert type(config.graph_size_limit) is int and config.graph_size_limit == 7
        assert type(config.threshold) is float and config.rng_seed == -1

    def test_resume_checks_config_types(self, hand_store, hand_model, hand_config):
        session = CrawlSession(hand_store, hand_model, hand_config)
        session.step()
        checkpoint = session.checkpoint()
        checkpoint["config"]["frontier_width"] = 2.5
        with pytest.raises(GraphFormatError, match="'frontier_width'"):
            CrawlSession.resume(hand_store, hand_model, checkpoint)


class TestCrawlResultSerialization:
    def test_round_trip(self, hand_store, hand_model, hand_config):
        result = crawl(hand_store, hand_model, hand_config)
        doc = json.loads(result.canonical_bytes())
        visit_log, discarded = visit_log_from_json(doc)
        again = CrawlResult(graph=CommunityGraph.from_json_dict(doc["graph"]),
                            visit_log=visit_log, discarded=frozenset(discarded),
                            stop_reason=StopReason(doc["stop_reason"]))
        assert again.graph == result.graph
        assert again.visit_log == result.visit_log
        assert again.discarded == result.discarded
        assert again.canonical_bytes() == result.canonical_bytes()

    @pytest.mark.parametrize("verdict", ("bogus", 1, None, ["unknown"]))
    def test_unknown_verdict_names_the_row(self, verdict):
        row = ["a", -1.0, verdict]
        with pytest.raises(GraphFormatError) as caught:
            visit_log_from_json({"visit_log": [row], "discarded": []})
        assert str(caught.value) == (f"bad visit_log row {row!r}: "
                                     f"{verdict!r} is not a valid Verdict")

    def test_predicted_verdicts_cover_discards(self, hand_store, hand_model,
                                               hand_config):
        result = crawl(hand_store, hand_model, hand_config)
        predicted = predicted_verdicts(result.visit_log, result.discarded)
        assert predicted["alpha"] is Verdict.RELEVANT
        assert predicted["xena"] is Verdict.UNKNOWN
        assert set(predicted) == {r.blog_name for r in result.visit_log} | \
            set(result.discarded)

    def test_predicted_verdicts_from_a_checkpoint(self, hand_store, hand_model,
                                                  hand_config):
        session = CrawlSession(hand_store, hand_model, hand_config)
        result = session.run()
        rows = visit_log_from_json(json.loads(json.dumps(session.checkpoint())))
        assert predicted_verdicts(*rows) == predicted_verdicts(
            result.visit_log, result.discarded)


class TestHandCrawl:
    """Six-blogger walk traced by hand; see conftest for the fixture."""

    def test_full_trace(self, hand_store, hand_model, hand_config):
        result = crawl(hand_store, hand_model, hand_config)
        assert [r.blog_name for r in result.visit_log] == [
            "alpha", "bravo", "carol", "dave", "yuri", "xena"]
        assert [r.verdict for r in result.visit_log] == [
            Verdict.RELEVANT, Verdict.RELEVANT, Verdict.RELEVANT,
            Verdict.RELEVANT, Verdict.UNKNOWN, Verdict.UNKNOWN]
        assert sorted(result.graph.nodes()) == ["alpha", "bravo", "carol",
                                                "dave"]
        assert result.graph.labels("alpha", "bravo") == \
            frozenset({NoteKind.LIKE})
        assert result.graph.labels("bravo", "carol") == \
            frozenset({NoteKind.REBLOG})
        assert result.graph.labels("carol", "dave") == \
            frozenset({NoteKind.LIKE, NoteKind.REBLOG})
        assert result.graph.edge_count() == 3
        assert result.discarded == frozenset({"xena", "yuri"})
        assert result.stop_reason is StopReason.FRONTIER_EXHAUSTED

    def test_nodes_carry_verdict_and_score(self, hand_store, hand_model,
                                           hand_config):
        result = crawl(hand_store, hand_model, hand_config)
        by_name = {r.blog_name: r for r in result.visit_log}
        for name in result.graph.nodes():
            assert result.graph.verdict(name) is Verdict.RELEVANT
            assert result.graph.score(name) == by_name[name].score

    def test_size_limit_stops_after_seed(self, hand_store, hand_model,
                                         hand_threshold):
        config = CrawlConfig(seed="alpha", threshold=hand_threshold,
                             graph_size_limit=1)
        result = crawl(hand_store, hand_model, config)
        assert result.stop_reason is StopReason.SIZE_LIMIT
        assert result.graph.nodes() == ["alpha"]
        assert [r.blog_name for r in result.visit_log] == ["alpha"]

    def test_step_after_the_stop_does_nothing(self, hand_store, hand_model,
                                              hand_config):
        session = CrawlSession(hand_store, hand_model, hand_config)
        session.run()
        assert session.finished
        stopped = session.checkpoint()
        assert session.step() is False
        assert session.checkpoint() == stopped

    def test_size_limit_midway(self, hand_store, hand_model, hand_threshold):
        config = CrawlConfig(seed="alpha", threshold=hand_threshold,
                             graph_size_limit=3)
        result = crawl(hand_store, hand_model, config)
        assert result.stop_reason is StopReason.SIZE_LIMIT
        assert result.graph.node_count() == 3

    def test_unknown_seed_propagates(self, hand_store, hand_model,
                                     hand_threshold):
        config = CrawlConfig(seed="nobody", threshold=hand_threshold)
        with pytest.raises(NotFoundError):
            crawl(hand_store, hand_model, config)

    def test_unknown_frontier_blogger_is_skipped(self, hand_store_data,
                                                 hand_model, hand_threshold):
        data = copy.deepcopy(hand_store_data)
        data["posts"][0]["notes"].append({"blog_name": "ghost",
                                          "kind": "like"})
        config = CrawlConfig(seed="alpha", threshold=hand_threshold)
        result = crawl(FixtureStore(data), hand_model, config)
        assert "ghost" in result.discarded
        assert "ghost" not in [r.blog_name for r in result.visit_log]
        assert not result.graph.has_node("ghost")
        assert result.stop_reason is StopReason.FRONTIER_EXHAUSTED

    def test_unscoreable_blogger_is_skipped(self, hand_store_data,
                                            hand_model, hand_threshold):
        data = copy.deepcopy(hand_store_data)
        data["blogs"].append({"name": "mute"})
        data["posts"][0]["notes"].append({"blog_name": "mute",
                                          "kind": "reblog"})
        config = CrawlConfig(seed="alpha", threshold=hand_threshold)
        result = crawl(FixtureStore(data), hand_model, config)
        assert "mute" in result.discarded
        assert not result.graph.has_node("mute")

    def test_retrieval_failure_is_skipped(self, hand_store, hand_model,
                                          hand_threshold):
        class Hostile:
            def __init__(self, inner, broken):
                self.inner = inner
                self.broken = broken

            def blogger_posts(self, name, limit=None):
                if name == self.broken:
                    raise RetrievalError("boom", retries=3)
                return self.inner.blogger_posts(name, limit=limit)

        config = CrawlConfig(seed="alpha", threshold=hand_threshold)
        result = crawl(Hostile(hand_store, "carol"), hand_model, config)
        assert "carol" in result.discarded
        assert not result.graph.has_node("carol")
        # the walk cannot continue past carol, so dave is never reached
        assert not result.graph.has_node("dave")

    def test_seed_retrieval_failure_propagates(self, hand_store, hand_model,
                                               hand_threshold):
        class Hostile:
            def __init__(self, inner, broken):
                self.inner = inner
                self.broken = broken

            def blogger_posts(self, name, limit=None):
                if name == self.broken:
                    raise RetrievalError("boom", retries=3)
                return self.inner.blogger_posts(name, limit=limit)

        config = CrawlConfig(seed="alpha", threshold=hand_threshold)
        with pytest.raises(RetrievalError, match="boom"):
            crawl(Hostile(hand_store, "alpha"), hand_model, config)

    def test_unknown_seed_verdict_yields_empty_graph(self, hand_store,
                                                     hand_model):
        config = CrawlConfig(seed="alpha", threshold=0.0)
        result = crawl(hand_store, hand_model, config)
        assert result.graph.node_count() == 0
        assert result.discarded == frozenset({"alpha"})
        assert result.stop_reason is StopReason.FRONTIER_EXHAUSTED

    def test_rerun_is_byte_identical(self, hand_store, hand_model,
                                     hand_config):
        first = crawl(hand_store, hand_model, hand_config)
        second = crawl(hand_store, hand_model, hand_config)
        assert first.canonical_bytes() == second.canonical_bytes()


class TestGeneratedCrawls:
    def _config(self, bundle, **overrides):
        base = dict(seed=bundle.seed_names[0],
                    threshold=bundle.threshold.value)
        base.update(overrides)
        return CrawlConfig(**base)

    def test_no_blogger_visited_twice(self, small_bundle):
        result = crawl(small_bundle.store, small_bundle.model,
                       self._config(small_bundle))
        names = [r.blog_name for r in result.visit_log]
        assert len(names) == len(set(names))
        assert not (set(names) - set(small_bundle.truth))

    def test_every_node_reachable_from_seed(self, small_bundle):
        config = self._config(small_bundle)
        result = crawl(small_bundle.store, small_bundle.model, config)
        assert result.graph.has_node(config.seed)
        assert reachable_from(result.graph, config.seed) == \
            set(result.graph.nodes())

    def test_uniform_policy_reaches_same_nodes_differently(self, small_bundle):
        markov = crawl(small_bundle.store, small_bundle.model,
                       self._config(small_bundle))
        uniform = crawl(small_bundle.store, small_bundle.model,
                        self._config(small_bundle,
                                     selection_policy=SelectionPolicy.UNIFORM_RANDOM,
                                     rng_seed=11))
        assert uniform.graph.node_count() > 0
        # both exhaust the same component, whatever the visiting order
        assert set(uniform.graph.nodes()) == set(markov.graph.nodes())

    def test_raising_threshold_never_adds_nodes(self, small_bundle):
        lo = crawl(small_bundle.store, small_bundle.model,
                   self._config(small_bundle))
        for bump in (0.02, 0.05, 0.12):
            hi = crawl(small_bundle.store, small_bundle.model,
                       self._config(small_bundle,
                                    threshold=small_bundle.threshold.value + bump))
            assert set(hi.graph.nodes()) <= set(lo.graph.nodes())

    def test_max_markov_builds_the_transition_matrix(self, small_bundle,
                                                     monkeypatch):
        built = []
        original = crawler_module.build_transition_matrix

        def counting(graph):
            built.append(graph.node_count())
            return original(graph)

        monkeypatch.setattr(crawler_module, "build_transition_matrix", counting)
        crawl(small_bundle.store, small_bundle.model, self._config(small_bundle))
        assert built

    def test_uniform_selection_skips_the_markov_mass(self, small_bundle,
                                                     monkeypatch):
        def refuse(graph):
            raise AssertionError("uniform selection computed the Markov mass")

        monkeypatch.setattr(crawler_module, "build_transition_matrix", refuse)
        result = crawl(small_bundle.store, small_bundle.model,
                       self._config(small_bundle,
                                    selection_policy=SelectionPolicy.UNIFORM_RANDOM,
                                    rng_seed=11))
        assert result.graph.node_count() > 1

    def test_propagation_cap_bounds_step_count(self):
        assert PROPAGATION_CAP == 64


def fresh_mass(graph, seed: str, visits: int) -> dict[str, float]:
    """The Markov mass computed from scratch with the reference pair."""
    matrix = build_transition_matrix(graph)
    p0 = np.zeros(len(matrix.ordering))
    if seed in matrix.ordering:
        p0[matrix.ordering.index(seed)] = 1.0
    else:
        p0[:] = 1.0 / len(matrix.ordering)
    mass = propagate(p0, matrix, min(visits, PROPAGATION_CAP))
    return dict(zip(matrix.ordering, mass.tolist()))


class TestMarkovMassReuse:
    """The session reuses its last mass while the graph and step count hold;
    every mass select_next receives must equal a fresh propagation."""

    def _check(self, monkeypatch, store, model, threshold, seed, cut):
        sessions, counts = [], {"selections": 0, "builds": 0}
        select, build = crawler_module.select_next, build_transition_matrix

        def checking_select(frontier, p, policy, rng, graph):
            session = sessions[-1]
            assert p == fresh_mass(graph, session.config.seed,
                                   len(session._visit_log))
            counts["selections"] += 1
            return select(frontier, p, policy, rng, graph)

        def counting_build(graph):
            counts["builds"] += 1
            return build(graph)

        monkeypatch.setattr(crawler_module, "select_next", checking_select)
        monkeypatch.setattr(crawler_module, "build_transition_matrix",
                            counting_build)
        policy = SelectionPolicy.MAX_MARKOV
        whole = crawl_session(store, model, threshold, seed, policy)
        sessions.append(whole)
        expected = whole.run()

        partial = crawl_session(store, model, threshold, seed, policy)
        sessions.append(partial)
        partial.run(max_steps=cut)
        frozen = json.loads(json.dumps(partial.checkpoint(), sort_keys=True))
        resumed = CrawlSession.resume(store, model, frozen)
        sessions.append(resumed)
        assert resumed.run().canonical_bytes() == expected.canonical_bytes()
        assert checkpoint_bytes(resumed) == checkpoint_bytes(whole)
        return counts

    @pytest.mark.parametrize("seed", SEEDS)
    def test_golden_crawls(self, monkeypatch, seed):
        store, model, threshold = network(seed)
        counts = self._check(monkeypatch, store, model, threshold, seed, cut=5)
        assert counts["selections"] > 0

    def test_crawl_past_the_propagation_cap(self, monkeypatch):
        # 200 bloggers: the crawl makes more than PROPAGATION_CAP visits.
        store, model, threshold = network(3, bloggers=200)
        counts = self._check(monkeypatch, store, model, threshold, seed=3, cut=80)
        # Past the cap a visit that admits nobody leaves the mass as it was.
        assert counts["builds"] < counts["selections"]

    def test_mass_is_not_checkpointed(self, small_bundle):
        config = CrawlConfig(seed=small_bundle.seed_names[0],
                             threshold=small_bundle.threshold.value)
        session = CrawlSession(small_bundle.store, small_bundle.model, config)
        session.run(max_steps=5)
        resumed = CrawlSession.resume(small_bundle.store, small_bundle.model,
                                      session.checkpoint())
        assert resumed._mass_key is None and resumed._mass == {}


class TestCheckpointResume:
    def _session(self, bundle, **overrides):
        config_kwargs = dict(seed=bundle.seed_names[0],
                             threshold=bundle.threshold.value)
        config_kwargs.update(overrides)
        return CrawlSession(bundle.store, bundle.model,
                            CrawlConfig(**config_kwargs))

    @pytest.mark.parametrize("policy", list(SelectionPolicy))
    @pytest.mark.parametrize("cut", [1, 3, 7])
    def test_resume_matches_uninterrupted_run(self, small_bundle, policy,
                                              cut):
        whole = self._session(small_bundle, selection_policy=policy,
                              rng_seed=11)
        expected = whole.run()

        partial = self._session(small_bundle, selection_policy=policy,
                                rng_seed=11)
        partial.run(max_steps=cut)
        frozen = json.loads(json.dumps(partial.checkpoint()))
        resumed = CrawlSession.resume(small_bundle.store, small_bundle.model,
                                      frozen)
        result = resumed.run()
        assert result.canonical_bytes() == expected.canonical_bytes()

    @pytest.mark.parametrize("seed", [2, 3, 9])
    @pytest.mark.parametrize("policy", list(SelectionPolicy))
    @pytest.mark.parametrize("limit", [20, 1000])
    def test_resume_through_sorted_json(self, seed, policy, limit):
        # crawl writes checkpoints with sorted keys, which reorders each
        # pending target's parents; resuming every 3 steps from such a
        # document must still give the uninterrupted run's bytes.
        store, model, threshold = network(seed)
        whole = crawl_session(store, model, threshold, seed, policy,
                              graph_size_limit=limit)
        expected = whole.run()

        session = crawl_session(store, model, threshold, seed, policy,
                                graph_size_limit=limit)
        while session.run(max_steps=3) is None:
            frozen = json.loads(json.dumps(session.checkpoint(), sort_keys=True))
            session = CrawlSession.resume(store, model, frozen)
        assert session.result().canonical_bytes() == expected.canonical_bytes()
        assert checkpoint_bytes(session) == checkpoint_bytes(whole)

    def test_resumed_frontier_sums_discoverers_in_the_runs_order(self):
        # A node gets its id when it is admitted, so a crawl adds each
        # blogger's discoverers in id order; sorted keys list them by name.
        store, model, threshold = network(3)
        session = crawl_session(store, model, threshold, 3,
                                SelectionPolicy.MAX_MARKOV)
        while session.run(max_steps=1) is None:
            frozen = json.loads(json.dumps(session.checkpoint(), sort_keys=True))
            resumed = CrawlSession.resume(store, model, frozen)
            assert (dict(live_pairs(resumed._frontier))
                    == dict(live_pairs(session._frontier)))

    @given(bloggers=st.integers(20, 120), seed=st.integers(0, 999),
           policy=st.sampled_from(list(SelectionPolicy)),
           limit=st.integers(1, 120),
           cuts=st.lists(st.booleans(), min_size=121, max_size=121))
    @settings(max_examples=16, deadline=None, derandomize=True)
    def test_resumed_anywhere_equals_the_run(self, bloggers, seed, policy,
                                             limit, cuts):
        # Resumed through the written JSON after any set of steps (after
        # step i when cuts[i]), a session holds the run's live state after
        # every step, and selection receives the same mass.
        store, model, threshold = network(seed, bloggers)
        whole, resumed = (crawl_session(store, model, threshold, seed, policy,
                                        graph_size_limit=limit)
                          for _ in range(2))
        received = []
        select = crawler_module.select_next

        def recording(frontier, p, *args):
            received.append(p)
            return select(frontier, p, *args)

        with mock.patch.object(crawler_module, "select_next", recording):
            for step in count():
                if cuts[step]:
                    resumed = CrawlSession.resume(
                        store, model, json.loads(checkpoint_bytes(resumed)))
                assert session_state(resumed) == session_state(whole)
                if whole.finished:
                    break
                start = len(received)
                running = whole.step()
                middle = len(received)
                assert resumed.step() == running
                assert received[middle:] == received[start:middle]

    def test_resume_keeps_the_named_first_discoverer(self):
        # A checkpoint may name any pending discoverer as the first one,
        # even one that is not the lowest node id.
        store, model, threshold = network(3)
        session = crawl_session(store, model, threshold, 3,
                                SelectionPolicy.MAX_MARKOV)
        session.run(max_steps=10)
        frozen = json.loads(json.dumps(session.checkpoint(), sort_keys=True))
        item = next(item for item in frozen["frontier"]
                    if len(frozen["pending"][item["blog_name"]]) > 1)
        item["parent"] = list(session._frontier.parents[item["blog_name"]])[-1]
        resumed = CrawlSession.resume(store, model, frozen)
        assert resumed.checkpoint()["frontier"] == frozen["frontier"]

    def test_checkpoint_of_finished_run(self, hand_store, hand_model,
                                        hand_config):
        session = CrawlSession(hand_store, hand_model, hand_config)
        expected = session.run()
        frozen = session.checkpoint()
        assert frozen["stop_reason"] == "frontier_exhausted"
        resumed = CrawlSession.resume(hand_store, hand_model, frozen)
        assert resumed.finished
        assert resumed.result().canonical_bytes() == \
            expected.canonical_bytes()

    def test_checkpoint_document_shape(self, hand_store, hand_model,
                                       hand_config):
        session = CrawlSession(hand_store, hand_model, hand_config)
        session.run(max_steps=2)
        frozen = session.checkpoint()
        assert frozen["format"] == "spiderveil.checkpoint"
        assert frozen["version"] == 1
        assert frozen["config"]["seed"] == "alpha"
        assert isinstance(frozen["visit_log"], list)
        json.dumps(frozen)  # must be JSON-serializable as-is

    def test_resume_rejects_foreign_documents(self, hand_store, hand_model):
        with pytest.raises(GraphFormatError):
            CrawlSession.resume(hand_store, hand_model, {"format": "nope"})
        with pytest.raises(GraphFormatError):
            CrawlSession.resume(hand_store, hand_model,
                                {"format": "spiderveil.checkpoint",
                                 "version": 99})

    def _frozen_midway(self, bundle) -> dict:
        session = self._session(bundle)
        session.run(max_steps=3)
        frozen = session.checkpoint()
        assert frozen["frontier"] and frozen["current"] in frozen["pending"]
        return frozen

    def test_resume_rejects_frontier_without_pending(self, small_bundle):
        frozen = self._frozen_midway(small_bundle)
        del frozen["pending"][frozen["frontier"][0]["blog_name"]]
        with pytest.raises(GraphFormatError):
            CrawlSession.resume(small_bundle.store, small_bundle.model, frozen)

    def test_resume_rejects_parent_outside_pending(self, small_bundle):
        frozen = self._frozen_midway(small_bundle)
        frozen["frontier"][0]["parent"] = "nobody"
        with pytest.raises(GraphFormatError):
            CrawlSession.resume(small_bundle.store, small_bundle.model, frozen)

    def test_resume_rejects_pending_outside_frontier(self, small_bundle):
        frozen = self._frozen_midway(small_bundle)
        frozen["pending"]["stranger"] = {frozen["config"]["seed"]: ["like"]}
        with pytest.raises(GraphFormatError):
            CrawlSession.resume(small_bundle.store, small_bundle.model, frozen)

    def test_resume_rejects_discoverer_outside_the_graph(self, small_bundle):
        frozen = self._frozen_midway(small_bundle)
        target = frozen["frontier"][0]["blog_name"]
        pending = frozen["pending"][target]
        pending["nobody"] = next(iter(pending.values()))  # same relation
        with pytest.raises(GraphFormatError, match=re.escape(
                f"pending blogger {target!r} has a discoverer outside the graph")):
            CrawlSession.resume(small_bundle.store, small_bundle.model, frozen)

    def test_resume_rejects_relation_other_than_pending_labels(self,
                                                               small_bundle):
        frozen = self._frozen_midway(small_bundle)
        nonsense = copy.deepcopy(frozen)
        for item in nonsense["frontier"]:
            item["relation"] = ["nonsense"]
        with pytest.raises(GraphFormatError, match="relation"):
            CrawlSession.resume(small_bundle.store, small_bundle.model, nonsense)
        # The right labels unsorted, and a real label too many or too few.
        relation = frozen["frontier"][0]["relation"]
        for wrong in (relation[::-1] if len(relation) > 1 else relation * 2,
                      ["like", "reblog"] if len(relation) == 1 else ["like"]):
            edited = copy.deepcopy(frozen)
            edited["frontier"][0]["relation"] = wrong
            with pytest.raises(GraphFormatError, match="relation"):
                CrawlSession.resume(small_bundle.store, small_bundle.model,
                                    edited)

    def test_resume_rejects_frontier_item_without_relation(self, small_bundle):
        frozen = self._frozen_midway(small_bundle)
        for item in frozen["frontier"]:
            del item["relation"]
        with pytest.raises(GraphFormatError, match="relation"):
            CrawlSession.resume(small_bundle.store, small_bundle.model, frozen)

    def test_resume_rejects_pending_bloggers_without_the_seed(self,
                                                              small_bundle):
        # A crawl admits its seed before anyone else is pending, so only a
        # hand-made checkpoint has pending bloggers and a graph without it.
        session = self._session(small_bundle)
        session.run(max_steps=5)
        frozen = session.checkpoint()
        assert frozen["pending"]
        frozen["config"]["seed"] = "nobody"
        with pytest.raises(GraphFormatError, match="lacks the seed 'nobody'"):
            CrawlSession.resume(small_bundle.store, small_bundle.model, frozen)
        # Before the first step only the seed is next and the graph is empty.
        start = self._session(small_bundle).checkpoint()
        CrawlSession.resume(small_bundle.store, small_bundle.model, start)
        start["current"] = small_bundle.seed_names[1]
        with pytest.raises(GraphFormatError, match="lacks the seed"):
            CrawlSession.resume(small_bundle.store, small_bundle.model, start)

    MALFORMED_CHECKPOINTS = {
        "format-and-version-only": lambda doc: {
            "format": doc["format"], "version": doc["version"]},
        "pending-not-an-object": lambda doc: {**doc, "pending": [1]},
        "frontier-item-without-name": lambda doc: {**doc, "frontier": [
            {"relation": ["like"], "parent": doc["config"]["seed"]}]},
        "processed-not-an-array": lambda doc: {**doc, "processed": 5},
        "processed-name-not-a-string": lambda doc: {
            **doc, "processed": doc["processed"] + [5]},
        "discarded-name-not-a-string": lambda doc: {
            **doc, "discarded": doc["discarded"] + [5]},
        "selections-negative": lambda doc: {**doc, "selections": -3},
        "selections-not-an-integer": lambda doc: {**doc, "selections": 2.5},
        "selections-a-string": lambda doc: {**doc, "selections": "2"},
        # Each step selects at most once, so the count stays with processed.
        "selections-past-processed": lambda doc: {
            **doc, "selections": doc["selections"] + 40},
        "selections-huge": lambda doc: {**doc, "selections": 10 ** 12},
        # A running crawl has selected once per processed blogger, and a
        # uniform one replays a draw per selection.
        "selections-one-short": lambda doc: {
            **doc, "selections": doc["selections"] - 1,
            "config": {**doc["config"], "selection_policy": "uniform_random"}},
        # No blogger is visited twice.
        "pending-already-processed": lambda doc: {
            **doc, "pending": {**doc["pending"], doc["processed"][1]: {
                doc["config"]["seed"]: ["like"]}},
            "frontier": doc["frontier"] + [{
                "blog_name": doc["processed"][1], "relation": ["like"],
                "parent": doc["config"]["seed"]}]},
        "current-already-processed": lambda doc: {
            **doc, "current": doc["processed"][1], "pending": {
                doc["processed"][1] if target == doc["current"] else target:
                parents for target, parents in doc["pending"].items()}},
        # Once the seed is visited, only a pending blogger can be next.
        "current-never-discovered": lambda doc: {
            **doc, "current": "stranger", "pending": {
                target: parents for target, parents in doc["pending"].items()
                if target != doc["current"]}},
        "current-not-a-name": lambda doc: {**doc, "current": 5},
        # A step clears current exactly when it stops the crawl.
        "current-null-while-running": lambda doc: {
            **doc, "current": None, "pending": {
                target: parents for target, parents in doc["pending"].items()
                if target != doc["current"]}},
        "stopped-with-a-current": lambda doc: {**doc, "stop_reason": "size_limit"},
        "pending-labels-empty": lambda doc: {**doc, "pending": {
            target: dict.fromkeys(parents, [])
            for target, parents in doc["pending"].items()}},
        # Every discoverer was admitted, so it is a graph node.
        "pending-parent-outside-graph": lambda doc: {**doc, "pending": {
            target: {**parents, "stranger": next(iter(parents.values()))}
            for target, parents in doc["pending"].items()}},
    }

    @pytest.mark.parametrize("edit", MALFORMED_CHECKPOINTS)
    def test_resume_rejects_malformed_fields(self, small_bundle, edit):
        edited = self.MALFORMED_CHECKPOINTS[edit]
        frozen = edited(self._frozen_midway(small_bundle))
        with pytest.raises(GraphFormatError):
            CrawlSession.resume(small_bundle.store, small_bundle.model, frozen)

    @pytest.mark.parametrize("policy", list(SelectionPolicy))
    def test_run_after_a_raised_visit_equals_the_uninterrupted_run(
            self, small_bundle, policy):
        # A visit that raises changes nothing, so the next run visits the
        # same blogger with all its discoverers, as does a resume.
        whole = self._session(small_bundle, selection_policy=policy)
        expected = whole.run()
        broken = next(name for name in expected.graph.nodes()
                      if name != whole.config.seed)

        class RaisingOnce:
            raised = False

            def blogger_posts(self, name, limit=None):
                if name == broken and not self.raised:
                    self.raised = True
                    raise GraphFormatError("bad posts payload: not an object")
                return small_bundle.store.blogger_posts(name, limit=limit)

        session = CrawlSession(RaisingOnce(), small_bundle.model, whole.config)
        while True:
            before = session.checkpoint()
            try:
                session.step()
            except GraphFormatError:
                break
        after = session.checkpoint()
        assert session.run().canonical_bytes() == expected.canonical_bytes()
        assert after == before
        resumed = CrawlSession.resume(small_bundle.store, small_bundle.model,
                                      json.loads(json.dumps(after)))
        assert resumed.run().canonical_bytes() == expected.canonical_bytes()

    def test_raised_seed_visit_leaves_an_unstarted_crawl(self, hand_store,
                                                         hand_model,
                                                         hand_config):
        class FailingSeed:
            def blogger_posts(self, name, limit=None):
                if name == hand_config.seed:
                    raise RetrievalError("boom", retries=3)
                return hand_store.blogger_posts(name, limit=limit)

        session = CrawlSession(FailingSeed(), hand_model, hand_config)
        with pytest.raises(RetrievalError):
            session.step()
        frozen = session.checkpoint()
        assert frozen == CrawlSession(hand_store, hand_model,
                                      hand_config).checkpoint()
        assert frozen["processed"] == [] and frozen["selections"] == 0
        resumed = CrawlSession.resume(hand_store, hand_model, frozen)
        assert resumed.run().canonical_bytes() == crawl(
            hand_store, hand_model, hand_config).canonical_bytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_checkpoints_equal_reference(self, seed):
        # After every step of each golden crawl, the label-mask frontier
        # and graph checkpoint as the set-labelled session's do.
        store, model, threshold = network(seed)
        for policy in SelectionPolicy:
            session = crawl_session(store, model, threshold, seed, policy)
            reference = ReferenceCrawlSession(store, model, session.config)
            running = True
            while running:
                assert session.checkpoint() == reference.checkpoint()
                running = session.step()
                assert reference.step() == running

    def test_result_before_finish_rejected(self, hand_store, hand_model,
                                           hand_config):
        session = CrawlSession(hand_store, hand_model, hand_config)
        session.run(max_steps=1)
        with pytest.raises(ValueError):
            session.result()
