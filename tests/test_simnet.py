import json
import random
import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiderveil import cli
from spiderveil.corpus import (ENGLISH_FUNCTION_WORDS, LanguageVerdict,
                               detect_language, normalize_text)
from spiderveil.crawler import (CrawlConfig, crawl, predicted_verdicts,
                                validate_fixture)
from spiderveil.langmodel import Verdict
from spiderveil.simnet import (DEFAULT_OFF_TOPIC_VOCAB,
                               DEFAULT_ON_TOPIC_VOCAB, PARAM_KINDS,
                               ConfusionMatrix, GeneratorParams, _below,
                               _draw_items, _shuffle, evaluate, generate, relevant_count,
                               report_from_matrix, truncate2,
                               truth_from_json_dict, truth_to_json_dict)

from oracles import reference_generate


def small_params(**overrides):
    kwargs = dict(total_bloggers=40, rng_seed=1)
    kwargs.update(overrides)
    return GeneratorParams(**kwargs)


def tokens_of(body):
    return set(body.split())


class TestParams:
    def test_defaults_are_valid(self):
        params = GeneratorParams()
        assert params.total_bloggers == 500
        assert params.relevant_fraction == 0.5
        assert params.mixing_prob == 0.1
        assert params.intra_community_note_bias == 0.9

    def test_default_vocabularies_are_disjoint_with_english_glue(self):
        on, off = set(DEFAULT_ON_TOPIC_VOCAB), set(DEFAULT_OFF_TOPIC_VOCAB)
        assert not on & off
        assert on & ENGLISH_FUNCTION_WORDS       # both sides carry glue
        assert off & ENGLISH_FUNCTION_WORDS

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorParams(total_bloggers=1)
        with pytest.raises(ValueError):
            GeneratorParams(relevant_fraction=0.0)
        with pytest.raises(ValueError):
            GeneratorParams(relevant_fraction=1.0)
        with pytest.raises(ValueError):
            GeneratorParams(mixing_prob=1.5)
        with pytest.raises(ValueError):
            GeneratorParams(intra_community_note_bias=-0.1)
        with pytest.raises(ValueError):
            GeneratorParams(notes_per_post=(0, 5))
        with pytest.raises(ValueError):
            GeneratorParams(notes_per_post=(5, 2))
        with pytest.raises(ValueError):
            GeneratorParams(posts_per_blogger=0)
        with pytest.raises(ValueError):
            GeneratorParams(on_topic_tags=())
        with pytest.raises(ValueError, match="off_topic_tags"):
            GeneratorParams(off_topic_tags=("a", "b", "a"))
        with pytest.raises(ValueError, match="^total_bloggers must fit in a float$"):
            GeneratorParams(total_bloggers=10**400)

    @pytest.mark.parametrize("field,changes", [
        ("total_bloggers", {"total_bloggers": 2.5}),
        ("mixing_prob", {"mixing_prob": True}),
        ("posts_per_blogger", {"posts_per_blogger": "3"}),
        ("on_topic_tags", {"on_topic_tags": "ab"})])
    def test_constructor_checks_json_kinds(self, field, changes):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            GeneratorParams(**changes)

    def test_constructor_keeps_converted_values(self):
        params = GeneratorParams(total_bloggers=40.0, notes_per_post=[2, 3],
                                 on_topic_tags=["a", "b"])
        assert type(params.total_bloggers) is int
        assert params.notes_per_post == (2, 3)
        assert params.on_topic_tags == ("a", "b")
        assert hash(params) == hash(GeneratorParams(
            total_bloggers=40, notes_per_post=(2, 3), on_topic_tags=("a", "b")))

    # Params with any of their fields set, as a list where JSON has one,
    # and at most one field set to a value of any JSON kind.
    @given(st.fixed_dictionaries({}, optional={
        "total_bloggers": st.one_of(st.integers(2, 60),
                                    st.integers(2, 60).map(float)),
        "relevant_fraction": st.floats(0, 1, exclude_min=True, exclude_max=True),
        **dict.fromkeys(("mixing_prob", "intra_community_note_bias"),
                        st.one_of(st.floats(0, 1), st.integers(0, 1))),
        "rng_seed": st.one_of(st.integers(-2**70, 2**70),
                              st.integers(-50, 50).map(float)),
        "posts_per_blogger": st.integers(1, 2**70),
        **dict.fromkeys(("notes_per_post", "words_per_post"), st.tuples(
            st.integers(1, 5), st.integers(5, 9).map(float)).flatmap(
                lambda pair: st.sampled_from([pair, list(pair)]))),
        **{name: st.lists(st.text(alphabet, min_size=1, max_size=3), min_size=1,
                          max_size=4, unique=True).flatmap(
                              lambda names: st.sampled_from([names, tuple(names)]))
           for name, alphabet in (("on_topic_vocab", "ab"), ("off_topic_vocab", "xy"),
                                  ("on_topic_tags", "ab"), ("off_topic_tags", "xy"))}}),
        st.one_of(st.none(), st.tuples(
            st.sampled_from(list(PARAM_KINDS)),
            st.one_of(st.text(max_size=2), st.integers(), st.floats(),
                      st.booleans(), st.none(), st.just(10**400),
                      st.lists(st.integers(-3, 9) | st.text(max_size=2),
                               max_size=3)))))
    @settings(max_examples=400, deadline=None)
    def test_every_accepted_params_survives_json(self, fields, change):
        if change is not None:
            fields[change[0]] = change[1]
        try:
            params = GeneratorParams(**fields)
        except ValueError:
            return
        assert GeneratorParams.from_json_dict(
            json.loads(json.dumps(asdict(params)))) == params

    def test_overlapping_vocabularies_rejected(self):
        with pytest.raises(ValueError):
            GeneratorParams(on_topic_vocab=("star", "moon"),
                            off_topic_vocab=("moon", "bread"))

    def test_from_json_dict(self):
        params = GeneratorParams.from_json_dict(
            {"total_bloggers": 40, "relevant_fraction": 0.25,
             "notes_per_post": [2, 5], "rng_seed": 9})
        assert params.total_bloggers == 40
        assert params.relevant_fraction == 0.25
        assert params.notes_per_post == (2, 5)
        assert params.on_topic_vocab == DEFAULT_ON_TOPIC_VOCAB


class TestRelevantCount:
    def test_exact_halves_and_floors(self):
        assert relevant_count(small_params(total_bloggers=10,
                                           relevant_fraction=0.4)) == 4
        assert relevant_count(small_params(total_bloggers=10,
                                           relevant_fraction=0.3)) == 3
        assert relevant_count(small_params(total_bloggers=11,
                                           relevant_fraction=0.5)) == 5
        assert relevant_count(small_params(total_bloggers=500,
                                           relevant_fraction=0.5)) == 250


class TestGenerate:
    def test_deterministic(self):
        params = small_params()
        assert generate(params) == generate(params)

    def test_seed_changes_output(self):
        store_a, _ = generate(small_params(rng_seed=1))
        store_b, _ = generate(small_params(rng_seed=2))
        assert store_a != store_b

    def test_store_matches_fixture_schema(self):
        store, _ = generate(small_params())
        validate_fixture(store)

    def test_truth_labels_first_block_relevant(self):
        store, truth = generate(small_params(total_bloggers=10,
                                             relevant_fraction=0.3))
        names = sorted(truth)
        assert [truth[n] for n in names] == [True] * 3 + [False] * 7
        assert names == [f"blogger-{i:03d}" for i in range(10)]

    def test_name_width_grows_with_population(self):
        store, truth = generate(small_params(total_bloggers=1200,
                                             posts_per_blogger=1,
                                             notes_per_post=(1, 2)))
        assert "blogger-0000" in truth
        assert len(truth) == 1200

    def test_post_inventory(self):
        params = small_params(posts_per_blogger=3)
        store, truth = generate(params)
        assert len(store["posts"]) == 40 * 3
        per_blogger = {}
        for post in store["posts"]:
            per_blogger[post["blog_name"]] = \
                per_blogger.get(post["blog_name"], 0) + 1
            assert post["type"] == "text"
            assert post["body"]
            assert post["notes"], "every post must carry at least one note"
        assert set(per_blogger) == set(truth)
        assert set(per_blogger.values()) == {3}

    def test_posts_are_pure_on_or_off_topic(self):
        store, truth = generate(small_params(mixing_prob=0.5))
        on, off = set(DEFAULT_ON_TOPIC_VOCAB), set(DEFAULT_OFF_TOPIC_VOCAB)
        for post in store["posts"]:
            words = tokens_of(post["body"])
            assert words <= on or words <= off

    def test_mixing_zero_keeps_relevant_posts_clean(self):
        store, truth = generate(small_params(mixing_prob=0.0))
        on, off = set(DEFAULT_ON_TOPIC_VOCAB), set(DEFAULT_OFF_TOPIC_VOCAB)
        for post in store["posts"]:
            words = tokens_of(post["body"])
            if truth[post["blog_name"]]:
                assert words <= on
            else:
                assert words <= off

    def test_population_token_mass_stays_mostly_on_topic(self):
        params = small_params(total_bloggers=200, mixing_prob=0.1)
        store, truth = generate(params)
        on = set(DEFAULT_ON_TOPIC_VOCAB)
        on_tokens = total_tokens = 0
        for post in store["posts"]:
            if not truth[post["blog_name"]]:
                continue
            words = post["body"].split()
            total_tokens += len(words)
            on_tokens += sum(1 for w in words if w in on)
        assert on_tokens / total_tokens >= 1.0 - params.mixing_prob - 0.06

    def test_seed_blogger_is_relevant_clean_and_heavily_noted(self):
        params = small_params()
        store, truth = generate(params)
        seed = store["seed"]
        assert truth[seed]
        on = set(DEFAULT_ON_TOPIC_VOCAB)
        note_high = params.notes_per_post[1]
        seed_posts = [p for p in store["posts"] if p["blog_name"] == seed]
        assert len(seed_posts) == params.posts_per_blogger
        for post in seed_posts:
            assert tokens_of(post["body"]) <= on
            assert post["tags"], "clean posts advertise their topic"
            # top-of-range draws, deduplicated
            assert 1 <= len(post["notes"]) <= note_high

    def test_tag_assignment_follows_topic(self):
        params = small_params(mixing_prob=0.5)
        store, truth = generate(params)
        on_vocab = set(DEFAULT_ON_TOPIC_VOCAB)
        on_tags = set(params.on_topic_tags)
        off_tags = set(params.off_topic_tags)
        saw_mixed = False
        for post in store["posts"]:
            clean = tokens_of(post["body"]) <= on_vocab
            if truth[post["blog_name"]]:
                if clean:
                    assert set(post["tags"]) <= on_tags
                    assert 1 <= len(post["tags"]) <= 2
                else:
                    saw_mixed = True
                    assert post["tags"] == []
            else:
                assert set(post["tags"]) <= off_tags
                assert 1 <= len(post["tags"]) <= 2
        assert saw_mixed, "mixing_prob=0.5 must produce mixed posts"

    def test_every_post_reads_as_english(self):
        store, _ = generate(small_params())
        for post in store["posts"]:
            verdict = detect_language(normalize_text(post["body"]))
            assert verdict is LanguageVerdict.ENGLISH

    def test_notes_never_point_at_the_author(self):
        store, _ = generate(small_params())
        for post in store["posts"]:
            for note in post["notes"]:
                assert note["blog_name"] != post["blog_name"]

    def test_note_bias_keeps_most_notes_inside_community(self):
        params = small_params(total_bloggers=200,
                              intra_community_note_bias=0.9)
        store, truth = generate(params)
        intra = total = 0
        for post in store["posts"]:
            author_label = truth[post["blog_name"]]
            for note in post["notes"]:
                total += 1
                if truth[note["blog_name"]] == author_label:
                    intra += 1
        assert intra / total >= params.intra_community_note_bias - 0.05

    def test_degenerate_split_rejected(self):
        with pytest.raises(ValueError):
            generate(GeneratorParams(total_bloggers=3,
                                     relevant_fraction=0.1))


# Pool sizes at and beside powers of two: a draw below 2**j - 1 almost never
# redraws, one below 2**j or 2**j + 1 redraws about half the time.
POOL_SIZES = (1, 2, 3, 4, 7, 8, 9, 63, 64, 65)
GLUE_WORDS = sorted(ENGLISH_FUNCTION_WORDS)


@st.composite
def generator_params(draw):
    total = draw(st.integers(2, 60))
    n_relevant = draw(st.integers(1, total - 1))
    # floor(total * fraction) lands on n_relevant
    fraction = (n_relevant + 0.5) / total

    def vocab(prefix, glue_words):
        content = [f"{prefix}{i}" for i in range(draw(st.sampled_from((0,) + POOL_SIZES)))]
        glue = glue_words[:draw(st.sampled_from((0,) + POOL_SIZES[:7]))]
        return tuple(content + glue) or (f"{prefix}0",)

    def word_range():
        return draw(st.one_of(st.integers(1, 30).map(lambda n: (n, n)),
                              st.integers(1, 30).map(lambda n: (1, n)),
                              st.tuples(st.integers(1, 15), st.integers(0, 15))
                              .map(lambda t: (t[0], t[0] + t[1]))))

    def probability():
        return draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))

    def tags(prefix):
        return tuple(f"{prefix}{i}" for i in range(draw(st.integers(1, 3))))

    return GeneratorParams(
        total_bloggers=total, relevant_fraction=fraction,
        on_topic_vocab=vocab("on", GLUE_WORDS[:49]),
        off_topic_vocab=vocab("off", GLUE_WORDS[49:]),
        mixing_prob=probability(), intra_community_note_bias=probability(),
        notes_per_post=draw(st.tuples(st.integers(1, 4), st.integers(0, 4))
                            .map(lambda t: (t[0], t[0] + t[1]))),
        rng_seed=draw(st.integers(0, 2 ** 64)),
        posts_per_blogger=draw(st.integers(1, 3)),
        words_per_post=word_range(),
        on_topic_tags=tags("ontag"), off_topic_tags=tags("offtag"))


class TestDrawsMatchRandom:
    """The generator's inlined draws against the interpreter's own Random."""

    BOUNDS = list(range(1, 301)) + [2 ** k + d for k in range(1, 21) for d in (-1, 1)]

    @given(params=generator_params())
    @settings(max_examples=150, deadline=None)
    def test_generate_equals_reference(self, params):
        assert generate(params) == reference_generate(params)

    def test_workload_shapes_equal_reference(self):
        for seed in (3, 11):
            for params in (GeneratorParams(total_bloggers=300, rng_seed=seed),
                           GeneratorParams(total_bloggers=60, rng_seed=seed,
                                           posts_per_blogger=10,
                                           words_per_post=(150, 250))):
                assert generate(params) == reference_generate(params)

    @pytest.mark.parametrize("fraction", (0.2, 0.8), ids=("one relevant", "one decoy"))
    def test_one_blogger_community_and_one_notes_value_equal_reference(self, fraction):
        # A community of one blogger leaves its own pool empty, and a range
        # of one value still draws, as randint does.
        for seed in range(8):
            params = GeneratorParams(total_bloggers=5, relevant_fraction=fraction,
                                     notes_per_post=(3, 3), words_per_post=(6, 6),
                                     posts_per_blogger=2, rng_seed=seed)
            assert (list(map(cli.json_text, generate(params)))
                    == list(map(cli.json_text, reference_generate(params))))

    # Widths 1 and 2, the powers of two and one above each, up to 2**20 + 1.
    WIDTHS = sorted({1, 2} | {2 ** k + d for k in range(1, 21) for d in (0, 1)})

    def test_below_equals_randrange_and_randint(self):
        for n in self.WIDTHS:
            ours, theirs = random.Random(n), random.Random(n)
            drawn = [_below(ours.getrandbits, n) for _ in range(40)]
            assert drawn == [theirs.randrange(n) for _ in range(40)], n
            assert ours.getstate() == theirs.getstate(), n
            low = n % 5 - 2
            drawn = [low + _below(ours.getrandbits, n) for _ in range(40)]
            assert drawn == [theirs.randint(low, low + n - 1) for _ in range(40)], n
            assert ours.getstate() == theirs.getstate(), n

    def test_empty_width_raises_as_randrange_does(self):
        # getrandbits(0) is always 0, so an empty width must raise, not loop.
        with pytest.raises(ValueError) as theirs:
            random.Random(0).randrange(0)
        rng = random.Random(0)
        calls = iter(range(100))

        def getrandbits(k):     # fails instead of drawing without end
            next(calls)
            return rng.getrandbits(k)

        with pytest.raises(ValueError, match=f"^{re.escape(str(theirs.value))}$"):
            _below(getrandbits, 0)
        assert rng.getstate() == random.Random(0).getstate()

    def test_draw_equals_randrange(self):
        for n in self.BOUNDS:
            ours, theirs = random.Random(n), random.Random(n)
            drawn = _draw_items(ours.getrandbits, range(n), 40)
            assert drawn == [theirs.randrange(n) for _ in range(40)], n
            assert ours.getstate() == theirs.getstate(), n

    def test_shuffle_equals_random_shuffle(self):
        # Shuffling a list of length L draws below every bound 2..L, so the
        # last length covers every bound up to 2**20 + 1 in one pass.
        lengths = ([0] + [n for n in self.BOUNDS if n <= 2 ** 12 + 1]
                   + [2 ** 20 + 1])
        for n in lengths:
            ours, theirs = random.Random(n), random.Random(n)
            mine, reference = list(range(n)), list(range(n))
            _shuffle(ours.getrandbits, mine)
            theirs.shuffle(reference)
            assert mine == reference, n
            assert ours.getstate() == theirs.getstate(), n


class TestTruthSerialization:
    def test_round_trip(self):
        truth = {"a": True, "b": False}
        doc = truth_to_json_dict(truth)
        assert doc == {"a": "relevant", "b": "unknown"}
        assert truth_from_json_dict(doc) == truth

    def test_accepts_raw_booleans(self):
        assert truth_from_json_dict({"a": True}) == {"a": True}

    def test_rejects_junk_labels(self):
        with pytest.raises(ValueError):
            truth_from_json_dict({"a": "maybe"})


class TestConfusionMatrix:
    def test_rejects_negative_cells(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fn=0, fp=0, tn=0)

    def test_total_and_json(self):
        matrix = ConfusionMatrix(tp=290, fn=45, fp=92, tn=173)
        assert matrix.total() == 600
        assert matrix.to_json_dict() == {"tp": 290, "fn": 45,
                                         "fp": 92, "tn": 173}

    def test_table_layout(self, capsys):
        assert cli.main(["eval", "--matrix", "290,45,92,173"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:4]
        assert "actual relevant" in lines[0]
        assert "actual unknown" in lines[0]
        assert lines[1].startswith("predicted relevant")
        assert "290" in lines[1] and "92" in lines[1]
        assert lines[2].startswith("predicted unknown")
        assert "45" in lines[2] and "173" in lines[2]


class TestTruncate2:
    @pytest.mark.parametrize("value,expected", [
        (0.8089, "0.80"),
        (0.8657, "0.86"),
        (0.7592, "0.75"),
        (0.7717, "0.77"),
        (1.0, "1.00"),
        (0.999, "0.99"),
        (0.0, "0.00"),
        (0.8, "0.80"),
    ])
    def test_cases(self, value, expected):
        assert truncate2(value) == expected


class TestReportFromMatrix:
    def test_reference_quartet(self):
        matrix = ConfusionMatrix(tp=290, fn=45, fp=92, tn=173)
        report = report_from_matrix(matrix)
        assert report.precision == pytest.approx(290 / 382, abs=0)
        doc = report.to_json_dict()
        assert doc["precision"] == 0.7592
        assert doc["recall"] == 0.8657
        assert doc["f_score"] == 0.8089
        assert doc["accuracy"] == 0.7717
        assert doc["truncated"] == {"precision": "0.75", "recall": "0.86",
                                    "f_score": "0.80", "accuracy": "0.77"}

    def test_reference_quartet_table(self, capsys):
        assert cli.main(["eval", "--matrix", "290,45,92,173"]) == 0
        table = "\n".join(capsys.readouterr().out.splitlines()[6:9])
        assert "0.7592" in table and "0.8657" in table
        assert "0.8089" in table and "0.7717" in table
        assert "0.80" in table.splitlines()[2]

    def test_perfect_classifier(self):
        report = report_from_matrix(ConfusionMatrix(tp=5, fn=0, fp=0, tn=7))
        assert (report.precision, report.recall, report.f_score,
                report.accuracy) == (1.0, 1.0, 1.0, 1.0)

    def test_no_true_positives(self):
        report = report_from_matrix(ConfusionMatrix(tp=0, fn=3, fp=2, tn=5))
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f_score == 0.0
        assert report.accuracy == 0.5

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            report_from_matrix(ConfusionMatrix(tp=0, fn=0, fp=0, tn=0))

    @given(st.integers(0, 400), st.integers(0, 400),
           st.integers(0, 400), st.integers(0, 400))
    @settings(max_examples=80)
    def test_f_is_harmonic_mean(self, tp, fn, fp, tn):
        if tp + fn + fp + tn == 0:
            return
        report = report_from_matrix(ConfusionMatrix(tp=tp, fn=fn,
                                                    fp=fp, tn=tn))
        p, r = report.precision, report.recall
        if p + r > 0:
            assert report.f_score == pytest.approx(2 * p * r / (p + r),
                                                   abs=1e-12)
        else:
            assert report.f_score == 0.0

    def test_rounding_happens_only_at_serialization(self):
        # f comes from the raw counts; recomputing it from the rounded
        # precision/recall would give 0.8090 instead
        report = report_from_matrix(ConfusionMatrix(tp=290, fn=45,
                                                    fp=92, tn=173))
        doc = report.to_json_dict()
        rounded_f = round(2 * doc["precision"] * doc["recall"]
                          / (doc["precision"] + doc["recall"]), 4)
        assert rounded_f == 0.8090
        assert doc["f_score"] == 0.8089


class TestEvaluate:
    def test_counts_by_verdict(self):
        predicted = {"a": Verdict.RELEVANT, "b": Verdict.RELEVANT,
                     "c": Verdict.UNKNOWN, "d": Verdict.UNKNOWN}
        truth = {"a": True, "b": False, "c": True, "d": False}
        matrix, report = evaluate(predicted, truth)
        assert (matrix.tp, matrix.fn, matrix.fp, matrix.tn) == (1, 1, 1, 1)
        assert report.accuracy == 0.5

    def test_population_is_predicted_keys_only(self):
        predicted = {"a": Verdict.RELEVANT}
        truth = {"a": True, "never-visited": True}
        matrix, _ = evaluate(predicted, truth)
        assert matrix.total() == 1

    def test_insertion_order_is_irrelevant(self):
        truth = {"a": True, "b": False, "c": True}
        forward = {"a": Verdict.RELEVANT, "b": Verdict.UNKNOWN,
                   "c": Verdict.UNKNOWN}
        backward = dict(reversed(list(forward.items())))
        assert evaluate(forward, truth)[0] == evaluate(backward, truth)[0]

    def test_missing_truth_rejected(self):
        with pytest.raises(ValueError):
            evaluate({"a": Verdict.RELEVANT}, {})

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            evaluate({}, {})

    def test_truth_as_predictions_scores_perfectly(self):
        _, truth = generate(small_params())
        predicted = {name: Verdict.RELEVANT if label else Verdict.UNKNOWN
                     for name, label in truth.items()}
        _, report = evaluate(predicted, truth)
        assert report.f_score == 1.0
        assert report.accuracy == 1.0

    def test_crawl_of_generated_network_evaluates_well(self, small_bundle):
        config = CrawlConfig(seed=small_bundle.seed_names[0],
                             threshold=small_bundle.threshold.value)
        result = crawl(small_bundle.store, small_bundle.model, config)
        matrix, report = evaluate(
            predicted_verdicts(result.visit_log, result.discarded),
            small_bundle.truth)
        assert matrix.fp == 0, "one-class cut should not admit decoys"
        assert report.precision == 1.0
        assert report.f_score >= 0.6
