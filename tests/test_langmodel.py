import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiderveil.corpus import Post
from spiderveil.errors import ScoringError
from spiderveil.langmodel import (SENTINEL, UNKNOWN, NGramModel, Threshold,
                                  Verdict, classify, compute_threshold,
                                  load_model, save_model, score_blogger,
                                  score_text, train)

from conftest import HAND_BODIES, HAND_TRAIN_DOCS, tear_writes
from oracles import reference_score_text, reference_train_counts

# Training characters, the control characters the model itself uses, a
# non-BMP character and lone surrogates; texts add characters never trained.
TRAIN_CHARS = ["a", "b", " ", "\u00e9", SENTINEL, UNKNOWN, "\U0001F600",
               "\ud800", "\udc00"]
TEXT_CHARS = TRAIN_CHARS + ["z", "\n", "\u4e2d", "\U0010FFFF", "\udfff"]
WINDOW_CHARS = TEXT_CHARS + [chr(0x1F600 + i) for i in range(1, 12)]


@pytest.fixture
def abab_model():
    return train(["abab"], order=2, alpha=1.0)


class TestTrain:
    def test_bigram_counts_by_hand(self, abab_model):
        assert abab_model.counts == {SENTINEL: {"a": 1},
                                     "a": {"b": 2},
                                     "b": {"a": 1}}
        assert abab_model.vocabulary == frozenset({SENTINEL, "a", "b"})
        assert abab_model.trained_chars == 4

    def test_each_char_is_one_window_target(self):
        model = train(["hello", "world"], order=3)
        total = sum(n for row in model.counts.values() for n in row.values())
        assert total == model.trained_chars == 10

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            train(["ab"], order=0)
        with pytest.raises(ValueError):
            train(["ab"], alpha=0.0)
        with pytest.raises(ValueError):
            train(["ab"], alpha=-1.0)
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="alpha"):
                train(["ab"], alpha=alpha)
            with pytest.raises(ValueError, match="alpha"):
                NGramModel(order=1, alpha=alpha, counts={"": {"a": 1}},
                           vocabulary=frozenset({SENTINEL, "a"}),
                           trained_chars=1)

    @pytest.mark.parametrize("name, value", [
        ("order", 2.5), ("order", "3"), ("order", True),
        ("alpha", "1"), ("alpha", None), ("alpha", 10**400)],
        ids=["order-2.5", "order-str", "order-bool", "alpha-str", "alpha-null",
             "alpha-10**400"])
    def test_rejects_settings_of_the_wrong_kind(self, name, value):
        settings = {"order": 2, "alpha": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an? "):
            train(["ab"], **settings)
        with pytest.raises(ValueError, match=f"^{name} must be an? "):
            NGramModel(**settings, counts={SENTINEL: {"a": 1}},
                       vocabulary=frozenset({SENTINEL, "a"}), trained_chars=1)

    def test_integral_settings_are_converted(self, abab_model):
        model = train(["abab"], order=2.0, alpha=1)
        assert model == abab_model
        assert type(model.order) is int and type(model.alpha) is float

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            train([])
        with pytest.raises(ValueError):
            train(["", ""])

    def test_skips_empty_documents(self):
        assert train(["", "ab"], order=2) == train(["ab"], order=2)

    # Each corpus draws on a few of WINDOW_CHARS, so that windows which
    # differ only in their first character are common.  WINDOW_CHARS hold
    # SENTINEL and UNKNOWN, plus non-BMP characters that fill the high bits
    # of the 21 train packs per character; windows of order 4 and up
    # overflow an int64 and take the re-rank step.
    @given(docs=st.lists(st.sampled_from(WINDOW_CHARS), min_size=1, max_size=4,
                         unique=True).flatmap(
               lambda alphabet: st.lists(
                   st.one_of(st.just(""),
                             st.text(st.sampled_from(alphabet), max_size=40)),
                   min_size=1, max_size=6)),
           order=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_per_character_loop(self, docs, order):
        counts, trained_chars = reference_train_counts(docs, order)
        if not trained_chars:
            with pytest.raises(ValueError):
                train(docs, order=order)
            return
        model = train(docs, order=order)
        assert model.trained_chars == trained_chars
        assert model.counts == counts
        # contexts and rows in the order a loaded model has them
        loaded = NGramModel.from_json_dict(model.to_json_dict())
        assert list(model.counts) == list(loaded.counts)
        assert [list(row) for row in model.counts.values()] == \
            [list(row) for row in loaded.counts.values()]

    def test_document_order_does_not_matter(self):
        docs = list(HAND_TRAIN_DOCS)
        assert train(docs, order=3) == train(list(reversed(docs)), order=3)


class TestProbability:
    def test_hand_values(self, abab_model):
        assert abab_model.probability(SENTINEL, "a") == pytest.approx(2 / 5, abs=0)
        assert abab_model.probability("a", "b") == pytest.approx(3 / 6, abs=0)
        # unseen char under a seen context
        assert abab_model.probability("a", "a") == pytest.approx(1 / 6, abs=0)
        # wholly unseen context: bare smoothing mass
        assert abab_model.probability(UNKNOWN, "a") == pytest.approx(1 / 4, abs=0)

    def test_distribution_sums_to_one(self):
        model = train(HAND_TRAIN_DOCS, order=3)
        outcomes = sorted(model.vocabulary) + [UNKNOWN]
        for context in list(model.counts)[:50]:
            mass = math.fsum(model.probability(context, c) for c in outcomes)
            assert mass == pytest.approx(1.0, abs=1e-12)


class TestScoreText:
    def test_hand_value(self, abab_model):
        score = score_text(abab_model, "ab")
        expected = (math.log10(2 / 5) + math.log10(3 / 6)) / 2
        assert score == expected

    def test_out_of_vocabulary_text(self, abab_model):
        # both chars map to the unknown bucket; second context is unseen
        score = score_text(abab_model, "zz")
        expected = (math.log10(1 / 5) + math.log10(1 / 4)) / 2
        assert score == expected

    def test_empty_text_rejected(self, abab_model):
        with pytest.raises(ScoringError):
            score_text(abab_model, "")

    def test_training_text_beats_gibberish(self, hand_model):
        on_topic = score_text(hand_model, HAND_TRAIN_DOCS[0])
        gibberish = score_text(hand_model, "0123456789")
        assert on_topic > gibberish

    @given(docs=st.lists(st.text(st.sampled_from(TRAIN_CHARS), max_size=30),
                         min_size=1, max_size=4).filter(any),
           texts=st.lists(st.text(st.sampled_from(TEXT_CHARS), min_size=1,
                                  max_size=40), min_size=1, max_size=4),
           order=st.integers(1, 5), alpha=st.sampled_from([0.5, 1.0, 2.5]))
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_loop_exactly(self, docs, texts, order, alpha):
        model = train(docs, order=order, alpha=alpha)
        # The sentinel, and code points just above and far above the largest
        # one in the vocabulary, past the end of the code lookup array.
        above = chr(ord(max(model.vocabulary)) + 1)
        edges = [SENTINEL, above, "a" + above + SENTINEL + "\U0010FFFF"]
        for text in texts + [text[:1] for text in texts] + edges:
            assert score_text(model, text) == reference_score_text(model, text)

    @given(contexts=st.dictionaries(
               st.text(st.sampled_from(TEXT_CHARS), max_size=4),
               st.dictionaries(st.text(st.sampled_from(TEXT_CHARS), min_size=1,
                                       max_size=2),
                               st.integers(0, 5), max_size=4),
               max_size=8),
           vocabulary=st.lists(st.text(st.sampled_from(TEXT_CHARS), min_size=1,
                                       max_size=2), max_size=8),
           text=st.text(st.sampled_from(TEXT_CHARS), min_size=1, max_size=30),
           order=st.integers(1, 4), alpha=st.sampled_from([0.5, 1.0, 2.5]))
    @settings(max_examples=150, deadline=None)
    def test_hand_edited_model_equals_reference(self, contexts, vocabulary,
                                                text, order, alpha):
        # Rows of the wrong length, context or target characters outside the
        # vocabulary and multi-character vocabulary entries are unreachable.
        model = NGramModel.from_json_dict({
            "format": "spiderveil.ngram", "version": 1, "order": order,
            "alpha": alpha, "vocabulary": vocabulary, "trained_chars": 0,
            "contexts": contexts})
        assert score_text(model, text) == reference_score_text(model, text)

    def test_unreachable_rows_are_skipped(self):
        doc = train(["abcab"], order=3).to_json_dict()
        doc["contexts"]["zz"] = {"a": 4}
        doc["contexts"]["abc"] = {"a": 1}
        doc["contexts"]["ab"]["q"] = 7
        doc["vocabulary"].remove(SENTINEL)
        doc["vocabulary"].append("xy")
        model = NGramModel.from_json_dict(doc)
        for text in ["abcab", "zzzz", "q", "abqab", SENTINEL + "ab", "xy", "d",
                     "abd", "c\U0010FFFF" + SENTINEL]:
            assert score_text(model, text) == reference_score_text(model, text)

    def test_table_grows_with_contexts_not_vocabulary_power(self):
        model = train(HAND_TRAIN_DOCS, order=5)
        symbols = len(model.vocabulary) + 1
        assert model._table.leaf.size <= (len(model.counts) + 1) * symbols

    def test_code_lookup_ends_past_the_largest_code_point(self):
        ascii_model = train(HAND_TRAIN_DOCS + ["~"], order=3)
        assert ascii_model._table.lookup.size == ord("~") + 2 < 256
        assert train(["a\U0001F600"])._table.lookup.size == 0x1F600 + 2

    @given(st.text(alphabet="abcdefgh ", min_size=1, max_size=80))
    @settings(max_examples=60)
    def test_score_always_negative(self, text):
        model = train(["abab abba", "the quick brown fox"], order=3)
        assert score_text(model, text) < 0


class TestScoreBlogger:
    def _kept(self, *bodies):
        """(post, normalized text) pairs, as filter_english returns them."""
        posts = [Post(id=f"p{i}", blog_name="someone", body=body)
                 for i, body in enumerate(bodies)]
        return [(post, post.normalized_text()) for post in posts]

    def test_single_post_equals_score_text(self, hand_model):
        kept = self._kept(HAND_BODIES["alpha"])
        blogger = score_blogger(hand_model, kept)
        direct = score_text(hand_model, kept[0][0].normalized_text())
        assert blogger == direct

    def test_posts_join_with_newline(self, hand_model):
        kept = self._kept("stars shine", "dark sky")
        joined = score_text(hand_model, "stars shine\ndark sky")
        assert score_blogger(hand_model, kept) == joined

    def test_two_copies_differ_from_one(self, hand_model):
        one = score_blogger(hand_model, self._kept("stars shine"))
        two = score_blogger(hand_model, self._kept("stars shine", "stars shine"))
        assert one != two  # the newline window changes the mean

    def test_unscoreable_blogger(self, hand_model):
        with pytest.raises(ScoringError):
            score_blogger(hand_model, [])
        with pytest.raises(ScoringError):
            score_blogger(hand_model, self._kept("<br>"))

    def test_empty_posts_skipped(self, hand_model):
        kept = self._kept("", "stars shine")
        direct = score_text(hand_model, "stars shine")
        assert score_blogger(hand_model, kept) == direct


class TestThreshold:
    def test_mean_of_two(self):
        th = compute_threshold([-2.0, -3.0])
        assert th.value == -2.5
        assert th.seed_count == 2

    def test_singleton(self):
        assert compute_threshold([-1.75]).value == -1.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_threshold([])

    def test_mean_uses_compensated_sum(self):
        values = [-2.123456789 + i * 1e-7 for i in range(30)]
        th = compute_threshold(values)
        assert th.value == math.fsum(values) / 30
        assert th.seed_count == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            Threshold(value=-2.0, seed_count=0)
        with pytest.raises(ValueError):
            Threshold(value=float("nan"), seed_count=1)


class TestClassify:
    def test_above_threshold_is_relevant(self):
        th = Threshold(value=-2.58, seed_count=30)
        assert classify(-2.0, th.value) is Verdict.RELEVANT

    def test_below_threshold_is_unknown(self):
        th = Threshold(value=-2.58, seed_count=30)
        assert classify(-3.1, th.value) is Verdict.UNKNOWN

    def test_exact_tie_is_unknown(self):
        th = Threshold(value=-2.5, seed_count=1)
        assert classify(-2.5, th.value) is Verdict.UNKNOWN

    @given(st.integers(-64, 64), st.integers(-64, 64), st.integers(-64, 64))
    def test_shift_invariance(self, s_eighths, t_eighths, d_eighths):
        # eighths are exact in binary, so shifting cannot flip the comparison
        s, t, d = s_eighths / 8, t_eighths / 8, d_eighths / 8
        base = classify(s, t)
        assert classify(s + d, t + d) is base


class TestSerialization:
    def test_round_trip_preserves_model_and_scores(self, tmp_path, hand_model):
        path = tmp_path / "model.json"
        save_model(hand_model, path)
        loaded = load_model(path)
        assert loaded == hand_model
        for doc in HAND_TRAIN_DOCS:
            assert score_text(loaded, doc) == score_text(hand_model, doc)

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch,
                                            hand_model, abab_model):
        path = tmp_path / "model.json"
        save_model(abab_model, path)
        before = path.read_bytes()
        tear_writes(monkeypatch)
        with pytest.raises(OSError):
            save_model(hand_model, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_document_shape(self, abab_model):
        doc = abab_model.to_json_dict()
        assert doc["format"] == "spiderveil.ngram"
        assert doc["version"] == 1
        assert doc["order"] == 2
        assert doc["alpha"] == 1.0
        assert doc["contexts"]["a"] == {"b": 2}
        # must survive strict ASCII JSON despite control-char keys
        again = NGramModel.from_json_dict(json.loads(json.dumps(doc)))
        assert again == abab_model

    def test_rejects_wrong_format(self, abab_model):
        doc = abab_model.to_json_dict()
        doc["format"] = "something-else"
        with pytest.raises(ValueError):
            NGramModel.from_json_dict(doc)

    def test_rejects_wrong_version(self, abab_model):
        doc = abab_model.to_json_dict()
        doc["version"] = 99
        with pytest.raises(ValueError):
            NGramModel.from_json_dict(doc)

    @pytest.mark.parametrize("key", ["order", "alpha", "vocabulary",
                                     "trained_chars", "contexts"])
    def test_rejects_missing_field(self, abab_model, key):
        doc = abab_model.to_json_dict()
        del doc[key]
        with pytest.raises(ValueError, match=repr(key)):
            NGramModel.from_json_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("order", 0), ("order", 2.0), ("order", "2"), ("order", True),
        ("alpha", 0), ("alpha", -1.0), ("alpha", "1"), ("alpha", float("nan")),
        ("alpha", float("inf")),
        ("vocabulary", "ab"), ("vocabulary", ["a", 1]),
        ("trained_chars", -1), ("trained_chars", 4.5),
        ("contexts", []), ("contexts", {"a": [2]}), ("contexts", {"a": {"b": 1.5}}),
        ("contexts", {"a": {"b": "2"}}), ("contexts", {"a": {"b": -2}}),
    ])
    def test_rejects_malformed_field(self, abab_model, key, value):
        doc = abab_model.to_json_dict()
        doc[key] = value
        with pytest.raises(ValueError):
            NGramModel.from_json_dict(doc)

    @pytest.mark.parametrize("doc", [[1], "model", None, 3])
    def test_rejects_non_objects(self, doc):
        with pytest.raises(ValueError, match="not a JSON object"):
            NGramModel.from_json_dict(doc)


class TestDiscrimination:
    """One-class separation on the hand fixture vocabularies."""

    def test_on_topic_scores_separate_from_off_topic(self, hand_model):
        on = [score_text(hand_model, HAND_BODIES[b])
              for b in ("alpha", "bravo", "carol", "dave")]
        off = [score_text(hand_model, HAND_BODIES[b])
               for b in ("xena", "yuri")]
        assert min(on) > max(off)

    def test_mean_threshold_admits_most_seeds(self, hand_model):
        scores = [score_text(hand_model, doc) for doc in HAND_TRAIN_DOCS]
        th = compute_threshold(scores)
        above = sum(1 for s in scores
                    if classify(s, th.value) is Verdict.RELEVANT)
        assert above >= len(scores) // 2
