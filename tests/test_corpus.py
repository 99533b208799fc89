import re
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiderveil import corpus as corpus_module
from spiderveil.corpus import (BOOTSTRAP_ROUNDS, ENGLISH_FUNCTION_WORDS,
                               ExemplarCorpus, LanguageVerdict, NoteKind,
                               NoteRecord, Post, _word_tokens,
                               bootstrap_exemplars, detect_language,
                               filter_english, normalize_tag, normalize_text)
from spiderveil.crawler import FixtureStore
from spiderveil.errors import RetrievalError
from spiderveil.simnet import GeneratorParams, generate

from conftest import make_post, tear_writes
from oracles import (reference_detect_language, reference_normalize_text,
                     reference_word_tokens)

ALL_CHARACTERS = "".join(map(chr, range(sys.maxunicode + 1)))
UNICODE_WHITESPACE = [c for c in ALL_CHARACTERS if c.isspace()]
# Control bytes, markup brackets and characters whose lowercase form differs
# in length or script from the original.
AWKWARD = ([chr(c) for c in range(0x20)] + ["\x7f", "<", ">", "A", "Z", "\u0130",
           "\u03a3", "\u01c5", "\u1e9e", "\u2126", "\u212a", "\u0345", "\xdf"])


# Pieces of detector input: function words in mixed case, ASCII words and
# digits, and characters that keep a text off the split path: "_", tabs and
# newlines, punctuation, non-ASCII letters (the Kelvin sign lowercases to
# ASCII "k", dotted capital I to "i" plus a combining dot) and Unicode digits.
DETECTOR_PIECES = st.one_of(
    st.sampled_from(sorted(ENGLISH_FUNCTION_WORDS) + ["The", "AND", "Of"]),
    st.text(string.ascii_letters + string.digits, min_size=1, max_size=6),
    st.sampled_from([" ", " ", "  ", "_", "\t", "\n", ".", ",", "!", "'", "-",
                     "\u00e9", "\u0130", "\u00df", "\u212a", "\u0663",
                     "\u00b2", "\uff13", "\u216b"]))
# Normalizer input: any text; printable words joined by single spaces,
# which take the branch that only lowercases; and printable words among runs
# of spaces and every other character str.split() splits on, leading and
# trailing ones included.
PRINTABLE_WORDS = st.text(
    st.one_of(st.characters(exclude_categories=(
        "Cc", "Cf", "Cs", "Co", "Cn", "Zs", "Zl", "Zp")), st.sampled_from("<>")),
    min_size=1, max_size=8)
SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "   "] + UNICODE_WHITESPACE)
NORMALIZE_INPUTS = st.one_of(
    st.text(alphabet=st.one_of(st.sampled_from(UNICODE_WHITESPACE),
                               st.sampled_from(AWKWARD), st.characters()),
            max_size=200),
    st.lists(PRINTABLE_WORDS, max_size=12).map(" ".join),
    st.lists(st.one_of(PRINTABLE_WORDS, SEPARATORS), max_size=24).map("".join))
DETECTOR_TEXTS = st.one_of(st.lists(DETECTOR_PIECES, max_size=30).map("".join),
                           st.text(" ", max_size=30))


def _post(pid="p1", blog="someone", body="", caption="", tags=(), notes=()):
    return Post(id=pid, blog_name=blog, body=body, caption=caption,
                tags=tuple(tags), notes=tuple(notes))


class TestNormalizeText:
    def test_strips_markup_and_case(self):
        assert normalize_text("<b>Hello  World</b>") == "hello world"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_whitespace_and_case(self):
        assert normalize_text("  Tag:  NEBULA \n") == "tag: nebula"

    def test_control_chars_removed(self):
        assert normalize_text("a\x00b\x07c") == "abc"

    @given(st.text(max_size=200))
    def test_idempotent(self, raw):
        once = normalize_text(raw)
        assert normalize_text(once) == once

    def test_split_and_regex_agree_on_whitespace(self):
        # str.split() and \s in a str pattern must name the same characters.
        assert re.findall(r"\s", ALL_CHARACTERS) == UNICODE_WHITESPACE
        assert {"\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"} <= set(
            UNICODE_WHITESPACE)

    @given(NORMALIZE_INPUTS)
    @settings(max_examples=500)
    def test_matches_the_three_regex_form(self, raw):
        assert normalize_text(raw) == reference_normalize_text(raw)

    @pytest.mark.parametrize("raw, expected", [
        # Printable, single-spaced and trimmed: lowercased as it is.
        ("Ab \u0130 c>D", "ab i\u0307 c>d"),
        ("a<b>c", "a c"),
        # Anything else is split and re-joined.
        (" a", "a"), ("a ", "a"), ("a  b", "a b"), ("a\u3000b", "a b"),
        ("a\x85b", "a b"), ("a\x1cb", "ab"), ("a<b> c", "a c"),
    ])
    def test_both_branches(self, raw, expected):
        assert normalize_text(raw) == reference_normalize_text(raw) == expected


class TestNormalizeTag:
    def test_hash_and_case(self):
        assert normalize_tag("#StarGazing ") == "stargazing"
        assert normalize_tag(" ## \t# Nebula \n") == "nebula"
        assert normalize_tag("# # ") == ""

    def test_plain(self):
        assert normalize_tag("nebula") == "nebula"

    @given(st.text(st.one_of(st.sampled_from(["#", " ", "\t", "\x85", "\u3000"]),
                             st.sampled_from(AWKWARD), st.characters())))
    def test_is_a_fixed_point(self, raw):
        tag = normalize_tag(raw)
        assert normalize_tag(tag) == tag
        assert not tag.startswith("#")
        assert tag == tag.strip()

    def test_store_queries_and_lexicon_agree(self):
        # Each post is indexed under the form a query for "#x" or "x" asks
        # for, and the bootstrap files the co-tag under that form too.
        store = FixtureStore({"blogs": [{"name": "a"}], "seed": "a", "posts": [
            make_post("p1", "a", ENGLISH_BODY + " one", tags=["seed", "# #x"]),
            make_post("p2", "a", ENGLISH_BODY + " two", tags=["# #X"])]})
        assert [post.id for post in store.tagged_posts("#x")] == ["p1", "p2"]
        assert [post.id for post in store.tagged_posts("x")] == ["p1", "p2"]
        corpus, lexicon = bootstrap_exemplars(store, ["seed"], 10)
        assert lexicon == {"seed": 0, "x": 1}
        assert corpus.document_ids == ["p1", "p2"]


class TestDetectLanguage:
    def test_english_sentence(self):
        verdict = detect_language("the quick brown fox jumps over the lazy dog")
        assert verdict is LanguageVerdict.ENGLISH

    def test_german_sentence(self):
        verdict = detect_language(
            "der schnelle braune fuchs springt über den faulen hund")
        assert verdict is LanguageVerdict.NON_ENGLISH

    def test_short_text_undetermined(self):
        assert detect_language("ok") is LanguageVerdict.UNDETERMINED

    def test_custom_detector_threshold(self, monkeypatch):
        assert detect_language("wszystko gra") is LanguageVerdict.UNDETERMINED
        monkeypatch.setattr(corpus_module, "LANGUAGE_MIN_LENGTH", 1)
        assert detect_language("wszystko gra") is LanguageVerdict.NON_ENGLISH
        monkeypatch.setattr(corpus_module, "ENGLISH_RATIO", 0.0)
        assert detect_language("wszystko gra") is LanguageVerdict.ENGLISH

    @pytest.mark.parametrize("text, tokens", [
        ("The sky AND the stars", ["the", "sky", "and", "the", "stars"]),
        ("  a  b ", ["a", "b"]),
        ("snake_case\tword", ["snake_case", "word"]),
        ("caf\u00e9 \u0130x", ["caf\u00e9", "i", "x"]),
        ("   ", []),
    ])
    def test_word_tokens(self, text, tokens):
        assert _word_tokens(text) == tokens

    @given(text=DETECTOR_TEXTS)
    @settings(max_examples=500)
    def test_matches_the_findall_detector(self, text):
        assert _word_tokens(text) == reference_word_tokens(text)
        assert detect_language(text) is reference_detect_language(text)
        for ratio in (0, 0.12, 0.5, 1):
            for min_length in (0, 20):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(corpus_module, "ENGLISH_RATIO", ratio)
                    patch.setattr(corpus_module, "LANGUAGE_MIN_LENGTH", min_length)
                    assert detect_language(text) is reference_detect_language(
                        text, min_length, ratio)


class TestFilterEnglish:
    def test_drops_non_english(self):
        english = _post("p1", body="the quick brown fox jumps over the lazy dog")
        german = _post("p2", body="der schnelle braune fuchs springt über den faulen hund")
        assert filter_english([english, german]) == [
            (english, "the quick brown fox jumps over the lazy dog")]

    def test_empty(self):
        assert filter_english([]) == []

    def test_short_post_retained(self):
        stub = _post("p1", body="hi")
        assert filter_english([stub]) == [(stub, "hi")]

    def test_idempotent(self):
        posts = [_post("p1", body="the quick brown fox jumps over the lazy dog"),
                 _post("p2", body="ein kurzer deutscher satz ohne englische woerter")]
        once = filter_english(posts)
        assert filter_english([post for post, _ in once]) == once


class TestPost:
    def test_requires_id_and_blog(self):
        with pytest.raises(ValueError):
            _post(pid="")
        with pytest.raises(ValueError):
            _post(blog="")

    def test_normalized_text_joins_body_and_caption(self):
        post = _post(body="<p>Star</p>", caption="  Gazing ")
        assert post.normalized_text() == "star gazing"

    @pytest.mark.parametrize("body, caption, expected", [
        ("Star Gazing", "", "star gazing"),
        ("Star Gazing ", "", "star gazing"),
        ("a <b", "", "a <b"),
        # Markup spanning the join is one tag.
        ("a <b", "c> d", "a d"),
        ("", "", ""),
        ("", "Gazing", "gazing"),
    ])
    def test_normalized_text_cases(self, body, caption, expected):
        post = _post(body=body, caption=caption)
        assert post.normalized_text() == expected
        assert expected == reference_normalize_text(body + " " + caption)

    @given(NORMALIZE_INPUTS, st.one_of(st.just(""), NORMALIZE_INPUTS))
    @settings(max_examples=300)
    def test_normalized_text_matches_the_joined_reference(self, body, caption):
        post = _post(body=body, caption=caption)
        assert post.normalized_text() == reference_normalize_text(
            body + " " + caption)

    def test_note_records(self):
        note = NoteRecord("friend", NoteKind.LIKE)
        assert note.kind is NoteKind.LIKE
        assert NoteKind("reblog") is NoteKind.REBLOG


class TestExemplarCorpus:
    def test_save_load_round_trip(self, tmp_path):
        corpus = ExemplarCorpus(documents=["one text", "two text"],
                                document_ids=["p1", "p2"])
        path = tmp_path / "corpus.ndjson"
        corpus.save(path)
        loaded = ExemplarCorpus.load(path)
        assert loaded.documents == corpus.documents
        assert loaded.document_ids == corpus.document_ids

    @pytest.mark.parametrize("breaker", ["\u2028", "\u0085", "\u2029"])
    def test_lines_end_only_at_newline(self, tmp_path, breaker):
        # JSON allows these raw in a string; str.splitlines() breaks on them.
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(f'{{"id": "p1", "text": "a{breaker}b"}}\n'
                         f'{{"id": "p2", "text": "c"}}\n'.encode("utf-8"))
        loaded = ExemplarCorpus.load(path)
        assert loaded.documents == [f"a{breaker}b", "c"]
        assert loaded.document_ids == ["p1", "p2"]
        # save escapes them, so a written corpus has no such raw character.
        loaded.save(path)
        assert breaker.encode("utf-8") not in path.read_bytes()
        assert ExemplarCorpus.load(path).documents == loaded.documents

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.ndjson"
        ExemplarCorpus(documents=["old text"], document_ids=["p0"]).save(path)
        before = path.read_bytes()
        tear_writes(monkeypatch)
        with pytest.raises(OSError):
            ExemplarCorpus(documents=["one text", "two text"],
                           document_ids=["p1", "p2"]).save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class _ListStore:
    """Minimal tagged_posts-only store for bootstrap tests."""

    def __init__(self, posts_by_tag):
        self.posts_by_tag = posts_by_tag

    def tagged_posts(self, tag, limit=None):
        posts = self.posts_by_tag.get(tag, [])
        return posts[:limit] if limit is not None else posts


ENGLISH_BODY = "the quick brown fox jumps over the lazy dog"


class TestBootstrap:
    def test_store_exhausted_before_target(self):
        posts = [_post(f"p{i}", body=f"{ENGLISH_BODY} {i}", tags=("terrorism",))
                 for i in range(3)]
        store = _ListStore({"terrorism": posts})
        corpus, lexicon = bootstrap_exemplars(store, ["terrorism"], 400)
        assert len(corpus.documents) == 3
        assert lexicon == {"terrorism": 0}

    def test_target_zero_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_exemplars(_ListStore({}), ["x"], 0)

    def test_empty_seed_lexicon_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_exemplars(_ListStore({}), [], 10)

    def test_lexicon_normalizes_tags_and_keeps_first_round(self):
        # Seeds and co-occurring tags are normalized and empty ones dropped;
        # a tag keeps the first round that saw it.
        store = _ListStore({
            "a": [_post("p1", body=ENGLISH_BODY + " one", tags=("#B ", "A", ""))],
            "b": [_post("p2", body=ENGLISH_BODY + " two", tags=("c", "#b", "zed"))],
            "c": [_post("p3", body=ENGLISH_BODY + " three", tags=("b", "d"))],
        })
        _, lexicon = bootstrap_exemplars(store, ["#A", "", " # ", "a", "Zed"], 10)
        assert list(lexicon.items()) == [("a", 0), ("zed", 0), ("b", 1),
                                         ("c", 2), ("d", 3)]
        with pytest.raises(ValueError, match="seed lexicon is empty"):
            bootstrap_exemplars(store, ["", " # "], 10)

    def test_two_round_tag_expansion(self):
        post1 = _post("p1", body=ENGLISH_BODY + " one", tags=("taga", "tagb"))
        post2 = _post("p2", body=ENGLISH_BODY + " two", tags=("tagb",))
        store = _ListStore({"taga": [post1], "tagb": [post2]})
        corpus, lexicon = bootstrap_exemplars(store, ["taga"], 2)
        assert corpus.document_ids == ["p1", "p2"]
        assert lexicon == {"taga": 0, "tagb": 1}

    def test_deduplicates_by_post_id(self):
        post = _post("p1", body=ENGLISH_BODY, tags=("a", "b"))
        store = _ListStore({"a": [post], "b": [post]})
        corpus, _ = bootstrap_exemplars(store, ["a", "b"], 10)
        assert corpus.document_ids == ["p1"]

    def test_skips_non_english_documents(self):
        german = _post("p1", tags=("a",),
                       body="der schnelle braune fuchs springt über den faulen hund")
        english = _post("p2", body=ENGLISH_BODY, tags=("a",))
        store = _ListStore({"a": [german, english]})
        corpus, _ = bootstrap_exemplars(store, ["a"], 10)
        assert corpus.document_ids == ["p2"]

    def test_skips_posts_without_text(self):
        # Empty text is not non-English, so only this check keeps it out.
        blank = _post("p1", body="<b> </b>", tags=("a", "b"))
        english = _post("p2", body=ENGLISH_BODY, tags=("a",))
        store = _ListStore({"a": [blank, english]})
        corpus, lexicon = bootstrap_exemplars(store, ["a"], 10)
        assert corpus.document_ids == ["p2"]
        assert lexicon == {"a": 0}

    def test_stops_at_target(self):
        posts = [_post(f"p{i}", body=f"{ENGLISH_BODY} {i}", tags=("a",))
                 for i in range(10)]
        store = _ListStore({"a": posts})
        corpus, _ = bootstrap_exemplars(store, ["a"], 4)
        assert len(corpus.documents) == 4

    def test_no_post_is_normalized_twice(self, monkeypatch):
        # README's walkthrough store repeats posts across tag pages; a post
        # collected from one page is not normalized again on the next.
        store = FixtureStore(generate(GeneratorParams(total_bloggers=120,
                                                      rng_seed=11))[0])
        normalized = []
        method = Post.normalized_text

        def counted(post):
            normalized.append(post.id)
            return method(post)

        monkeypatch.setattr(Post, "normalized_text", counted)
        corpus, _ = bootstrap_exemplars(store, ["stargazing"], 120)
        assert len(corpus.documents) == 120
        assert len(normalized) == len(set(normalized))
        assert set(corpus.document_ids) <= set(normalized)

    def test_retrieval_error_carries_tag(self):
        class FailingStore:
            def tagged_posts(self, tag, limit=None):
                raise RetrievalError("backend down", retries=3)

        with pytest.raises(RetrievalError):
            bootstrap_exemplars(FailingStore(), ["culprit"], 10)

    def test_max_rounds_bounds_expansion(self):
        # Each tag's post introduces the next tag; only BOOTSTRAP_ROUNDS fire.
        assert BOOTSTRAP_ROUNDS == 4
        chain = {}
        for i in range(6):
            chain[f"t{i}"] = [_post(f"p{i}", body=f"{ENGLISH_BODY} {i}",
                                    tags=(f"t{i}", f"t{i + 1}"))]
        store = _ListStore(chain)
        corpus, lexicon = bootstrap_exemplars(store, ["t0"], 100)
        assert corpus.document_ids == ["p0", "p1", "p2", "p3"]
        assert lexicon == {f"t{i}": i for i in range(5)}


@settings(max_examples=30)
@given(st.lists(st.sampled_from(["taga", "tagb", "tagc"]), min_size=1,
                max_size=3, unique=True),
       st.integers(min_value=1, max_value=6))
def test_bootstrap_never_duplicates_ids(seed_tags, target):
    posts = {
        "taga": [_post("p1", body=ENGLISH_BODY + " a", tags=("taga", "tagb"))],
        "tagb": [_post("p2", body=ENGLISH_BODY + " b", tags=("tagb", "tagc")),
                 _post("p1", body=ENGLISH_BODY + " a", tags=("taga",))],
        "tagc": [_post("p3", body=ENGLISH_BODY + " c", tags=("tagc",))],
    }
    corpus, _ = bootstrap_exemplars(_ListStore(posts), seed_tags, target)
    assert len(corpus.document_ids) == len(set(corpus.document_ids))
    assert len(corpus.documents) <= target
