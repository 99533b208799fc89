import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from spiderveil.corpus import bootstrap_exemplars, filter_english
from spiderveil.crawler import CrawlConfig, FixtureStore
from spiderveil.langmodel import compute_threshold, score_blogger, train
from spiderveil.simnet import GeneratorParams, generate

# Six bloggers: four write astronomy text, two write cooking text.  Notes
# chain alpha -> bravo -> carol -> {dave (both kinds), xena} and dave -> yuri,
# so a crawl from alpha admits exactly the four astronomy bloggers.
HAND_TRAIN_DOCS = [
    "the nebula and the quasar drift with starlight over the horizon",
    "a telescope from the observatory tracks the comet through the aurora",
    "the galaxy spins and the pulsar beats under the lunar corona",
    "stellar orbit of the meteor and the eclipse over the zenith",
    "the constellation rises with the moonrise and the solar spectrum",
    "redshift of the supernova and the celestial cluster through the cosmos",
]

HAND_BODIES = {
    "alpha": "the nebula and the quasar drift with starlight over the horizon",
    "bravo": "the galaxy spins and the pulsar beats under the lunar corona",
    "carol": "stellar orbit of the meteor and the eclipse over the zenith",
    "dave": "the constellation rises with the moonrise and the solar spectrum",
    "xena": "whisk the dough and knead the sourdough with butter and flour",
    "yuri": "simmer the broth and braise the garlic with thyme and rosemary",
}


def make_post(pid, blog, body, notes=(), tags=(), type="text"):
    return {"id": pid, "blog_name": blog, "type": type, "body": body,
            "tags": list(tags),
            "notes": [{"blog_name": n, "kind": k} for n, k in notes]}


_MISSING = object()


def _changed(base: dict, changes: dict) -> dict:
    out = dict(base)
    for key, value in changes.items():
        if value is _MISSING:
            del out[key]
        else:
            out[key] = value
    return out


def store_with(post=None, **top):
    """A valid one-post store, with post fields and top-level keys replaced
    (or dropped, for ``_MISSING``)."""
    good_post = make_post("p1", "a", "body", notes=[("b", "like")], tags=["t"])
    store = {"blogs": [{"name": "a"}], "posts": [_changed(good_post, post or {})],
             "seed": "a"}
    return _changed(store, top)


# One document per rule a fixture store must follow; each breaks only that rule.
MALFORMED_STORES = {
    "top level is a list": [],
    "top level is a string": "store",
    "blogs missing": store_with(blogs=_MISSING),
    "posts missing": store_with(posts=_MISSING),
    "blogs not an array": store_with(blogs={"name": "a"}),
    "posts not an array": store_with(posts="p1"),
    "seed empty": store_with(seed=""),
    "seed not a string": store_with(seed=7),
    "blog not an object": store_with(blogs=["a"]),
    "blog name missing": store_with(blogs=[{}]),
    "blog name empty": store_with(blogs=[{"name": ""}]),
    "blog name not a string": store_with(blogs=[{"name": ["a"]}]),
    "post not an object": store_with(posts=[["p1"]]),
    "post id missing": store_with(post={"id": _MISSING}),
    "post id empty": store_with(post={"id": ""}),
    "post id not a string": store_with(post={"id": 1}),
    "post blog_name missing": store_with(post={"blog_name": _MISSING}),
    "post blog_name empty": store_with(post={"blog_name": ""}),
    "post type missing": store_with(post={"type": _MISSING}),
    "post type not a string": store_with(post={"type": None}),
    "body not a string": store_with(post={"body": 3}),
    "caption not a string": store_with(post={"caption": ["x"]}),
    "slug not a string": store_with(post={"slug": None}),
    "tags not an array": store_with(post={"tags": "stars"}),
    "tag not a string": store_with(post={"tags": ["stars", 5]}),
    "notes not an array": store_with(post={"notes": {"blog_name": "b", "kind": "like"}}),
    "note not an object": store_with(post={"notes": ["b"]}),
    "note blog_name missing": store_with(post={"notes": [{"kind": "like"}]}),
    "note blog_name empty": store_with(post={"notes": [{"blog_name": "", "kind": "like"}]}),
    "note kind missing": store_with(post={"notes": [{"blog_name": "b"}]}),
    "note kind unknown": store_with(post={"notes": [{"blog_name": "b", "kind": "favorite"}]}),
    "note kind unhashable": store_with(post={"notes": [{"blog_name": "b", "kind": ["like"]}]}),
    "duplicate post ids": store_with(posts=[make_post("p1", "a", "x"),
                                            make_post("p1", "b", "y")]),
}

# The malformed stores that break a rule of their only post, as bare records.
MALFORMED_POSTS = {
    name: doc["posts"][0] for name, doc in MALFORMED_STORES.items()
    if isinstance(doc, dict) and isinstance(doc.get("posts"), list)
    and len(doc["posts"]) == 1 and dict(doc, posts=None) == dict(store_with(), posts=None)
}


def tear_writes(monkeypatch) -> None:
    """Make every ``Path.write_bytes`` and ``Path.write_text`` write half its
    payload and then fail, as a full disk or a crash mid-write would."""
    def torn(write):
        def half(self, data, *args, **kwargs):
            write(self, data[:len(data) // 2], *args, **kwargs)
            raise OSError("disk full")
        return half

    monkeypatch.setattr(Path, "write_bytes", torn(Path.write_bytes))
    monkeypatch.setattr(Path, "write_text", torn(Path.write_text))


class FakeGet:
    """Stands in for ``crawler.http_get``: every GET answers 200 with
    ``payload``.

    ``urls`` lists the URLs asked for, without their query, in order.
    """

    def __init__(self, payload):
        self.payload = payload
        self.urls = []

    def __call__(self, url):
        self.urls.append(url.partition("?")[0])
        return 200, {}, json.dumps(self.payload).encode()


# Documents at the edge of the rules that must still be accepted.
EDGE_STORES = {
    "empty arrays": {"blogs": [], "posts": []},
    "no seed": store_with(seed=_MISSING),
    "post without optional fields": store_with(
        post={"body": _MISSING, "tags": _MISSING, "notes": _MISSING}),
    "empty optional strings and arrays": store_with(
        post={"body": "", "caption": "", "slug": "", "tags": [], "notes": []}),
    "unknown keys everywhere": store_with(
        blogs=[{"name": "a", "title": 1}], extra=None,
        post={"reblog_key": 5, "notes": [{"blog_name": "b", "kind": "reblog",
                                          "ts": 0}]}),
    "posts by bloggers not in blogs": store_with(post={"blog_name": "z"}),
}


@pytest.fixture(scope="session")
def hand_store_data():
    return {
        "blogs": [{"name": n} for n in
                  ("alpha", "bravo", "carol", "dave", "xena", "yuri")],
        "posts": [
            make_post("p1", "alpha", HAND_BODIES["alpha"],
                      notes=[("bravo", "like")]),
            make_post("p2", "bravo", HAND_BODIES["bravo"],
                      notes=[("carol", "reblog")]),
            make_post("p3", "carol", HAND_BODIES["carol"],
                      notes=[("dave", "like"), ("dave", "reblog"),
                             ("xena", "like")]),
            make_post("p4", "dave", HAND_BODIES["dave"],
                      notes=[("yuri", "reblog")]),
            make_post("p5", "xena", HAND_BODIES["xena"]),
            make_post("p6", "yuri", HAND_BODIES["yuri"]),
        ],
        "seed": "alpha",
    }


@pytest.fixture(scope="session")
def hand_store(hand_store_data):
    return FixtureStore(hand_store_data)


@pytest.fixture(scope="session")
def hand_model():
    return train(HAND_TRAIN_DOCS, order=3, alpha=1.0)


@pytest.fixture(scope="session")
def hand_threshold(hand_store, hand_model):
    """Midpoint between the astronomy and cooking score clusters."""
    def blogger_score(name):
        kept = filter_english(hand_store.blogger_posts(name, limit=100))
        return score_blogger(hand_model, kept)

    on = [blogger_score(n) for n in ("alpha", "bravo", "carol", "dave")]
    off = [blogger_score(n) for n in ("xena", "yuri")]
    assert min(on) > max(off)
    return (min(on) + max(off)) / 2.0


@pytest.fixture()
def hand_config(hand_threshold):
    return CrawlConfig(seed="alpha", threshold=hand_threshold)


@pytest.fixture(scope="session")
def small_bundle():
    """A 60-blogger generated network with a trained model and threshold."""
    params = GeneratorParams(total_bloggers=60, rng_seed=5)
    store_data, truth = generate(params)
    store = FixtureStore(store_data)
    corpus, lexicon = bootstrap_exemplars(store, ["stargazing"], 80)
    model = train(corpus.documents, order=3)
    seed_names = [n for n, label in truth.items() if label][:10]
    scores = []
    for name in seed_names:
        kept = filter_english(store.blogger_posts(name, limit=100))
        scores.append(score_blogger(model, kept))
    threshold = compute_threshold(scores)
    return SimpleNamespace(params=params, store_data=store_data, truth=truth,
                           store=store, model=model, threshold=threshold,
                           seed_names=seed_names)


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)
