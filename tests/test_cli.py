import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from math import fsum
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiderveil import cli, crawler
from spiderveil.cli import main
from spiderveil.crawler import HttpJsonStore
from spiderveil.errors import (EmptyInputError, GraphFormatError, NotFoundError,
                               RetrievalError, ScoringError, SelfLoopError)
from spiderveil.simnet import GeneratorParams, generate
from spiderveil.socialgraph import import_json_edge_list

from conftest import MALFORMED_POSTS, MALFORMED_STORES, FakeGet
from oracles import EagerFixtureStore


def run(argv):
    """Invoke the CLI in-process, capturing stdout."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full gen -> bootstrap -> train -> crawl run, shared read-only."""
    root = tmp_path_factory.mktemp("pipeline")
    out = str(root)
    code, gen_stdout = run(["--out-dir", out, "--seed", "5",
                            "gen", "--bloggers", "60"])
    assert code == 0

    store = root / "store.json"
    truth = root / "truth.json"
    truth_data = json.loads(truth.read_text())
    seeds = [n for n, label in sorted(truth_data.items())
             if label == "relevant"][:10]
    seeds_file = root / "seeds.json"
    seeds_file.write_text(json.dumps(seeds))

    code, boot_stdout = run(["--out-dir", out, "bootstrap",
                             "--store", str(store),
                             "--tag", "stargazing", "--target", "80"])
    assert code == 0

    code, train_stdout = run(["--out-dir", out, "train",
                              "--corpus", str(root / "corpus.ndjson"),
                              "--seed-bloggers", str(seeds_file),
                              "--store", str(store)])
    assert code == 0

    code, crawl_stdout = run(["--out-dir", out, "crawl",
                              "--store", str(store),
                              "--model", str(root / "model.json"),
                              "--threshold-file",
                              str(root / "model.threshold.json")])
    assert code == 0

    return SimpleNamespace(root=root, store=store, truth=truth,
                           seeds=seeds, seeds_file=seeds_file,
                           gen_stdout=gen_stdout, boot_stdout=boot_stdout,
                           train_stdout=train_stdout,
                           crawl_stdout=crawl_stdout)


class TestGen:
    def test_writes_store_truth_and_manifest(self, pipeline):
        assert pipeline.store.exists()
        assert pipeline.truth.exists()
        # each invocation rewrites the manifest; the crawl ran last
        manifest = json.loads((pipeline.root / "manifest.json").read_text())
        assert manifest["command"] == "crawl"
        assert manifest["output_paths"]
        assert "bloggers: 60 (relevant 30)" in pipeline.gen_stdout
        assert "seed blogger: blogger-000" in pipeline.gen_stdout

    def test_truth_labels_are_strings(self, pipeline):
        truth = json.loads(pipeline.truth.read_text())
        assert set(truth.values()) <= {"relevant", "unknown"}
        assert sum(1 for v in truth.values() if v == "relevant") == 30

    def test_deterministic_across_runs(self, tmp_path):
        code_a, _ = run(["--out-dir", str(tmp_path / "a"), "--seed", "9",
                         "gen", "--bloggers", "30"])
        code_b, _ = run(["--out-dir", str(tmp_path / "b"), "--seed", "9",
                         "gen", "--bloggers", "30"])
        assert code_a == code_b == 0
        assert (tmp_path / "a" / "store.json").read_bytes() == \
            (tmp_path / "b" / "store.json").read_bytes()

    def test_params_file_plus_flag_override(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"total_bloggers": 10,
                                      "relevant_fraction": 0.3,
                                      "notes_per_post": [1, 3]}))
        code, stdout = run(["--out-dir", str(tmp_path), "gen",
                            "--params", str(params), "--bloggers", "20"])
        assert code == 0
        assert "bloggers: 20 (relevant 6)" in stdout

    def test_invalid_fraction_is_a_domain_error(self, tmp_path):
        code, _ = run(["--out-dir", str(tmp_path), "gen",
                       "--fraction", "1.5"])
        assert code == 4

    # (params document, exit code, key the error names); a wrong JSON type
    # exits 2, a value of the right type outside its range exits 4.
    @pytest.mark.parametrize("params,code,key", [
        ({"words_per_post": 5}, 2, "words_per_post"),
        ({"words_per_post": [1]}, 2, "words_per_post"),
        ({"words_per_post": [1, 2, 3]}, 2, "words_per_post"),
        ({"notes_per_post": [1, 2.5]}, 2, "notes_per_post"),
        ({"notes_per_post": [True, 2]}, 2, "notes_per_post"),
        ({"notes_per_post": ["1", 2]}, 2, "notes_per_post"),
        ({"on_topic_vocab": 5}, 2, "on_topic_vocab"),
        ({"on_topic_vocab": "abc"}, 2, "on_topic_vocab"),
        ({"on_topic_vocab": ["x", 1]}, 2, "on_topic_vocab"),
        ({"off_topic_vocab": None}, 2, "off_topic_vocab"),
        ({"on_topic_tags": [["a"]]}, 2, "on_topic_tags"),
        ({"off_topic_tags": "ab"}, 2, "off_topic_tags"),
        ({"relevant_fraction": None}, 2, "relevant_fraction"),
        ({"mixing_prob": True}, 2, "mixing_prob"),
        ({"intra_community_note_bias": "0.5"}, 2, "intra_community_note_bias"),
        ({"total_bloggers": "x"}, 2, "total_bloggers"),
        ({"total_bloggers": 2.7}, 2, "total_bloggers"),
        ({"total_bloggers": None}, 2, "total_bloggers"),
        ({"rng_seed": [1]}, 2, "rng_seed"),
        ({"posts_per_blogger": True}, 2, "posts_per_blogger"),
        ({"words_per_post": [0, 5]}, 4, "words_per_post"),
        ({"notes_per_post": [5, 2]}, 4, "notes_per_post"),
        ({"total_bloggers": 1}, 4, "total_bloggers"),
        ({"posts_per_blogger": 0}, 4, "posts_per_blogger"),
        ({"relevant_fraction": 1.5}, 4, "relevant_fraction"),
        ({"on_topic_tags": []}, 4, "tag pools"),
        ({"total_bloggers": 3, "relevant_fraction": 0.1}, 4, "community empty"),
        ({"total_bloggers": 10, "relevant_fraction": 0.9999999999}, 4,
         "community empty"),
        ({"off_topic_vocab": []}, 4, "vocabularies must be non-empty"),
        ({"total_bloggers": 20, "on_topic_tags": ["a", "a"]}, 4, "on_topic_tags"),
    ])
    def test_bad_params_exit_with_an_error_line(self, tmp_path, capsys,
                                                params, code, key):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        out_dir = tmp_path / "out"
        assert run(["--out-dir", str(out_dir), "gen", "--params", str(path)])[0] == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not (out_dir / "manifest.json").exists()

    def test_integral_float_params_are_integers(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"total_bloggers": 20.0,
                                    "notes_per_post": [1.0, 3]}))
        code, stdout = run(["--out-dir", str(tmp_path), "gen",
                            "--params", str(path)])
        assert code == 0
        assert "bloggers: 20 (relevant 10)" in stdout


class TestBootstrap:
    def test_outputs_and_round_lines(self, pipeline):
        corpus_lines = (pipeline.root / "corpus.ndjson").read_text() \
            .strip().splitlines()
        assert len(corpus_lines) == 80
        for line in corpus_lines:
            record = json.loads(line)
            assert record["id"] and record["text"]
        lexicon = json.loads(
            (pipeline.root / "corpus.lexicon.json").read_text())
        assert lexicon["stargazing"] == 0
        assert pipeline.boot_stdout.startswith("round 0: 1 tags (stargazing)")
        assert "collected 80 documents (target 80)" in pipeline.boot_stdout

    def test_a_store_load_freezes_no_garbage_of_the_command(self, pipeline,
                                                            tmp_path):
        """The command's parser, which holds reference cycles, is dropped
        before the store loads, so nothing frozen by the load becomes cyclic
        garbage once the command returns."""
        gc.unfreeze()
        gc.collect()
        code, _ = run(["--out-dir", str(tmp_path), "bootstrap",
                       "--store", str(pipeline.store), "--tag", "stargazing",
                       "--target", "20"])
        assert code == 0 and gc.get_freeze_count() > 0
        gc.collect()
        gc.unfreeze()
        assert gc.collect() == 0

    def test_no_store_anywhere(self, tmp_path):
        code, _ = run(["--out-dir", str(tmp_path), "bootstrap",
                       "--tag", "stargazing"])
        assert code == 3

    def test_missing_store_file(self, tmp_path):
        code, _ = run(["--out-dir", str(tmp_path), "bootstrap",
                       "--store", str(tmp_path / "nope.json"),
                       "--tag", "stargazing"])
        assert code == 2

    @pytest.mark.parametrize("tags", [["#"], [" ", "# "]])
    def test_tags_that_normalize_to_nothing(self, pipeline, tmp_path, capsys,
                                            tags):
        flags = [arg for tag in tags for arg in ("--tag", tag)]
        code, _ = run(["--out-dir", str(tmp_path), "bootstrap",
                       "--store", str(pipeline.store), *flags])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: no non-empty seed tags")
        assert not (tmp_path / "manifest.json").exists()

    def test_unknown_tag_collects_nothing(self, pipeline, tmp_path):
        code, _ = run(["--out-dir", str(tmp_path), "bootstrap",
                       "--store", str(pipeline.store),
                       "--tag", "no-such-tag"])
        assert code == 3

    # Each config document names the key the error line must name; --tag,
    # --store and --target flags would override the config, so none is given.
    @pytest.mark.parametrize("entries,key", [
        ({"tags": "stargazing"}, "tags"),
        ({"tags": ["stargazing", 5]}, "tags"),
        ({"tags": False}, "tags"),
        ({"store": 5}, "store"),
        ({"store": ["store.json"]}, "store"),
        ({"url": 5}, "url"),
        ({"target": [1]}, "target"),
        ({"target": "7"}, "target"),
        ({"target": 2.9}, "target"),
        ({"target": True}, "target"),
    ])
    def test_bad_config_values(self, pipeline, tmp_path, capsys, entries, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"store": str(pipeline.store),
                                      "tags": ["stargazing"], "target": 5,
                                      **entries}))
        out_dir = tmp_path / "out"
        assert run(["--config", str(config), "--out-dir", str(out_dir),
                    "bootstrap"])[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad config: ") and repr(key) in err
        assert not (out_dir / "manifest.json").exists()

    def test_config_values(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"store": str(pipeline.store),
                                      "tags": ["stargazing"], "target": 400.0}))
        code, stdout = run(["--config", str(config), "--out-dir", str(tmp_path),
                            "bootstrap"])
        assert code == 0
        assert stdout.startswith("round 0: 1 tags (stargazing)")
        assert "(target 400)" in stdout

    def test_null_target_means_default(self, pipeline, tmp_path):
        # As in crawl and train, a null setting is unset: the target is 100.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"store": str(pipeline.store),
                                      "tags": ["stargazing"], "target": None}))
        code, stdout = run(["--config", str(config), "--out-dir",
                            str(tmp_path / "null"), "bootstrap"])
        assert code == 0
        assert "(target 100)" in stdout
        assert run(["--out-dir", str(tmp_path / "flag"), "bootstrap",
                    "--store", str(pipeline.store), "--tag", "stargazing",
                    "--target", "100"])[0] == 0
        assert (tmp_path / "null" / "corpus.ndjson").read_bytes() == \
            (tmp_path / "flag" / "corpus.ndjson").read_bytes()

    def test_store_from_environment(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("SPIDERVEIL_STORE", str(pipeline.store))
        code, _ = run(["--out-dir", str(tmp_path), "bootstrap",
                       "--tag", "stargazing", "--target", "5"])
        assert code == 0
        lines = (tmp_path / "corpus.ndjson").read_text().strip().splitlines()
        assert len(lines) == 5

    def test_bad_target_writes_no_manifest(self, pipeline, tmp_path, capsys):
        code, _ = run(["--out-dir", str(tmp_path), "bootstrap",
                       "--store", str(pipeline.store), "--tag", "stargazing",
                       "--target", "0"])
        assert code == 4
        assert capsys.readouterr().err == "error: target_size must be positive\n"
        assert not (tmp_path / "manifest.json").exists()


class TestTrain:
    def test_model_file(self, pipeline):
        model = json.loads((pipeline.root / "model.json").read_text())
        assert model["format"] == "spiderveil.ngram"
        assert model["order"] == 3
        assert "trained order-3 model on 80 documents" in \
            pipeline.train_stdout

    def test_threshold_is_mean_of_printed_scores(self, pipeline):
        scores = [float(m.group(1)) for m in
                  re.finditer(r"^  (-?\d+\.\d+(?:e-?\d+)?)  \S+$",
                              pipeline.train_stdout, re.MULTILINE)]
        assert len(scores) == 10
        match = re.search(r"^threshold: (-?\d+\.\d+(?:e-?\d+)?) "
                          r"\(mean of (\d+) scores\)$",
                          pipeline.train_stdout, re.MULTILINE)
        assert match, pipeline.train_stdout
        assert int(match.group(2)) == 10
        assert float(match.group(1)) == pytest.approx(fsum(scores) / 10,
                                                      abs=1e-15)

    def test_threshold_file_contents(self, pipeline):
        doc = json.loads(
            (pipeline.root / "model.threshold.json").read_text())
        assert doc["seed_count"] == 10
        assert set(doc["scores"]) == set(pipeline.seeds)
        assert doc["threshold"] == pytest.approx(
            fsum(doc["scores"].values()) / 10, abs=1e-15)

    def test_scores_print_in_ascending_order(self, pipeline):
        scores = [float(m.group(1)) for m in
                  re.finditer(r"^  (-?\d+\.\d+(?:e-?\d+)?)  \S+$",
                              pipeline.train_stdout, re.MULTILINE)]
        assert scores == sorted(scores)

    def test_band_line(self, pipeline):
        assert re.search(r"^band: min=-?\d.* max=-?\d.* within=100\.0%$",
                         pipeline.train_stdout, re.MULTILINE)

    def test_empty_corpus(self, tmp_path):
        empty = tmp_path / "corpus.ndjson"
        empty.write_text("")
        code, _ = run(["--out-dir", str(tmp_path), "train",
                       "--corpus", str(empty)])
        assert code == 3

    def test_missing_corpus_flag(self, tmp_path):
        code, _ = run(["--out-dir", str(tmp_path), "train"])
        assert code == 3

    @pytest.mark.parametrize("document", [[]])
    def test_empty_seed_bloggers(self, pipeline, tmp_path, capsys, document):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps(document))
        out_dir = tmp_path / "out"
        code, _ = run(["--out-dir", str(out_dir), "train",
                       "--corpus", str(pipeline.root / "corpus.ndjson"),
                       "--seed-bloggers", str(seeds), "--store", str(pipeline.store)])
        assert code == 3
        assert "names no bloggers" in capsys.readouterr().err
        assert not (out_dir / "manifest.json").exists()
        assert not (out_dir / "model.json").exists()

    def test_seed_bloggers_in_an_object_exit_2(self, pipeline, tmp_path, capsys):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps({"bloggers": pipeline.seeds}))
        out_dir = tmp_path / "out"
        code, out = run(["--out-dir", str(out_dir), "train",
                         "--corpus", str(pipeline.root / "corpus.ndjson"),
                         "--seed-bloggers", str(seeds), "--store", str(pipeline.store)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: seed blogger file must hold a JSON list of names\n")
        assert out == ""
        assert not (out_dir / "manifest.json").exists()

    def test_seed_blogger_named_twice_exit_2(self, pipeline, tmp_path, capsys):
        # A repeated seed would count twice in the threshold's mean but once
        # in its scores, so the file could not reproduce its threshold.
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps(["blogger-000", "blogger-000", "blogger-001"]))
        out_dir = tmp_path / "out"
        code, out = run(["--out-dir", str(out_dir), "train",
                         "--corpus", str(pipeline.root / "corpus.ndjson"),
                         "--seed-bloggers", str(seeds), "--store", str(pipeline.store)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: seed blogger file names 'blogger-000' twice\n")
        assert out == ""
        assert list(out_dir.iterdir()) == []

    def test_unknown_seed_blogger_writes_nothing(self, pipeline, tmp_path,
                                                 capsys):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps([pipeline.seeds[0], "nobody"]))
        out_dir = tmp_path / "out"
        code, out = run(["--out-dir", str(out_dir), "train",
                         "--corpus", str(pipeline.root / "corpus.ndjson"),
                         "--seed-bloggers", str(seeds), "--store", str(pipeline.store)])
        assert code == 4
        assert capsys.readouterr().err == "error: unknown blogger 'nobody'\n"
        assert out == ""
        assert not (out_dir / "manifest.json").exists()
        assert not (out_dir / "model.json").exists()

    def test_missing_corpus_file(self, tmp_path):
        code, _ = run(["--out-dir", str(tmp_path), "train",
                       "--corpus", str(tmp_path / "absent.ndjson")])
        assert code == 2

    @pytest.mark.parametrize("line, problem", [
        ('[1]', "not an object"),
        ('"text"', "not an object"),
        ('{"id": "b"}', "no string 'text'"),
        ('{"id": "b", "text": 5}', "no string 'text'"),
        ('{"text": "x"}', "no string 'id'"),
        ('{"id": 1, "text": "x"}', "no string 'id'"),
        ('{broken', "Expecting property name enclosed in double quotes: "
                    "line 1 column 2 (char 1)"),
    ], ids=["list", "string", "text missing", "text not a string",
            "id missing", "id not a string", "not JSON"])
    def test_malformed_corpus_line(self, tmp_path, capsys, line, problem):
        corpus = tmp_path / "corpus.ndjson"
        corpus.write_text('{"id": "a", "text": "the stars"}\n\n' + line + "\n")
        code, _ = run(["--out-dir", str(tmp_path), "train",
                       "--corpus", str(corpus)])
        assert code == 2
        assert capsys.readouterr().err == f"error: bad corpus line 3: {problem}\n"

    def test_config_values(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": str(pipeline.root / "corpus.ndjson"),
                                      "order": 2.0, "alpha": 1}))
        code, stdout = run(["--config", str(config), "--out-dir", str(tmp_path),
                            "train", "--alpha", "0.5"])
        assert code == 0
        assert "trained order-2 model" in stdout
        model = json.loads((tmp_path / "model.json").read_text())
        assert (model["order"], model["alpha"]) == (2, 0.5)

    def test_posts_from_config_or_flag(self, pipeline, tmp_path):
        # posts_per_blogger is the key crawl reads for its own --posts.
        written = []
        for name, config, flags in (
                ("config", {"posts_per_blogger": 1}, []),
                ("flag", {"posts_per_blogger": 7}, ["--posts", "1"]),
                ("default", {"posts_per_blogger": None}, [])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"store": str(pipeline.store), **config}))
            out = tmp_path / name
            assert run(["--config", str(path), "--out-dir", str(out), "train",
                        "--corpus", str(pipeline.root / "corpus.ndjson"),
                        "--seed-bloggers", str(pipeline.seeds_file)] + flags)[0] == 0
            written.append((out / "model.threshold.json").read_bytes())
        assert written[0] == written[1]
        assert written[2] == (pipeline.root / "model.threshold.json").read_bytes()
        assert written[0] != written[2]

    # (config entries, exit code, key the error names); a wrong JSON type
    # exits 2, a value of the right type outside its range exits 4.
    @pytest.mark.parametrize("entries,code,key", [
        ({"order": "3"}, 2, "order"),
        ({"order": 2.5}, 2, "order"),
        ({"order": True}, 2, "order"),
        ({"order": [3]}, 2, "order"),
        ({"alpha": "1.0"}, 2, "alpha"),
        ({"alpha": False}, 2, "alpha"),
        ({"alpha": {"value": 1}}, 2, "alpha"),
        ({"posts_per_blogger": "100"}, 2, "posts_per_blogger"),
        ({"posts_per_blogger": 1.5}, 2, "posts_per_blogger"),
        ({"posts_per_blogger": True}, 2, "posts_per_blogger"),
        ({"order": 0}, 4, "order"),
        ({"alpha": 0}, 4, "alpha"),
        ({"alpha": -1.5}, 4, "alpha"),
        ({"posts_per_blogger": 0}, 4, "posts per blogger"),
        # json.dumps writes these as NaN, Infinity and -Infinity.
        ({"alpha": math.nan}, 4, "alpha"),
        ({"alpha": math.inf}, 4, "alpha"),
        ({"alpha": -math.inf}, 4, "alpha"),
        # A list holds train flags given instead of config entries.
        (["--alpha", "nan"], 4, "alpha"),
        (["--alpha", "inf"], 4, "alpha"),
        (["--alpha=-inf"], 4, "alpha"),
    ])
    def test_bad_config_values(self, pipeline, tmp_path, capsys, entries, code,
                               key):
        flags = entries if isinstance(entries, list) else []
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": str(pipeline.root / "corpus.ndjson"),
                                      **(entries if isinstance(entries, dict) else {})}))
        out_dir = tmp_path / "out"
        assert run(["--config", str(config), "--out-dir", str(out_dir),
                    "train", *flags])[0] == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not (out_dir / "model.json").exists()
        if code == 2:
            assert err.startswith("error: bad config: ")
            assert not (out_dir / "manifest.json").exists()

    @pytest.mark.parametrize("flags,problem", [
        (["--order", "0"], "order must be >= 1"),
        (["--alpha", "0"], "alpha must be positive and finite"),
        (["--posts", "0"], "posts per blogger must be >= 1"),
    ])
    def test_bad_numbers_write_no_manifest(self, pipeline, tmp_path, capsys,
                                           flags, problem):
        code, _ = run(["--out-dir", str(tmp_path), "train",
                       "--corpus", str(pipeline.root / "corpus.ndjson"), *flags])
        assert code == 4
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not (tmp_path / "manifest.json").exists()
        assert not (tmp_path / "model.json").exists()


class TestCrawl:
    def test_artifacts(self, pipeline):
        checkpoint = json.loads((pipeline.root / "crawl.json").read_text())
        assert checkpoint["format"] == "spiderveil.checkpoint"
        assert checkpoint["stop_reason"] is not None
        assert checkpoint["config"]["seed"] == "blogger-000"
        graph = import_json_edge_list(
            (pipeline.root / "graph.json").read_bytes())
        assert graph.node_count() > 0
        assert (pipeline.root / "graph.dot").read_text() \
            .startswith("digraph")
        ElementTree.parse(pipeline.root / "graph.graphml")

    def test_stdout_summary(self, pipeline):
        assert "stop reason: frontier_exhausted" in pipeline.crawl_stdout
        assert re.search(r"graph: \d+ nodes, \d+ edges",
                         pipeline.crawl_stdout)
        assert re.search(r"processed: \d+ bloggers", pipeline.crawl_stdout)

    def test_unknown_seed_blogger(self, pipeline, tmp_path):
        code, _ = run(["--out-dir", str(tmp_path), "crawl",
                       "--store", str(pipeline.store),
                       "--model", str(pipeline.root / "model.json"),
                       "--threshold", "-2.0",
                       "--seed-blogger", "nobody"])
        assert code == 4
        assert not (tmp_path / "manifest.json").exists()

    def test_missing_model(self, pipeline, tmp_path):
        code, _ = run(["--out-dir", str(tmp_path), "crawl",
                       "--store", str(pipeline.store),
                       "--threshold", "-2.0"])
        assert code == 3
        code, _ = run(["--out-dir", str(tmp_path), "crawl",
                       "--store", str(pipeline.store),
                       "--model", str(tmp_path / "absent.json"),
                       "--threshold", "-2.0"])
        assert code == 2

    def test_no_seed_blogger_anywhere(self, pipeline, tmp_path, capsys):
        store = json.loads(pipeline.store.read_text())
        del store["seed"]
        path = tmp_path / "store.json"
        path.write_text(json.dumps(store))
        out_dir = tmp_path / "out"
        code, _ = run(["--out-dir", str(out_dir), "crawl", "--store", str(path),
                       "--model", str(pipeline.root / "model.json"),
                       "--threshold", "-2.0"])
        assert code == 3
        assert capsys.readouterr().err == \
            "error: no seed blogger given (use --seed-blogger)\n"
        assert not (out_dir / "manifest.json").exists()

    def test_missing_threshold(self, pipeline, tmp_path):
        code, _ = run(["--out-dir", str(tmp_path), "crawl",
                       "--store", str(pipeline.store),
                       "--model", str(pipeline.root / "model.json")])
        assert code == 3

    @pytest.mark.parametrize("name", ["top level is a list", "posts missing",
                                      "note kind unknown", "duplicate post ids"])
    def test_malformed_store(self, pipeline, tmp_path, capsys, name):
        store = tmp_path / "store.json"
        store.write_text(json.dumps(MALFORMED_STORES[name]))
        code, _ = run(["--out-dir", str(tmp_path), "crawl",
                       "--store", str(store),
                       "--model", str(pipeline.root / "model.json"),
                       "--threshold", "-2.0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad fixture store: ")

    @pytest.mark.parametrize("document", [
        [1],
        {"format": "spiderveil.ngram", "version": 1},
        "non-integer count",
        "wrong format",
    ], ids=["list", "format and version only", "non-integer count", "wrong format"])
    def test_malformed_model(self, pipeline, tmp_path, capsys, document):
        good = json.loads((pipeline.root / "model.json").read_text())
        if document == "non-integer count":
            document = good
            row = next(iter(document["contexts"].values()))
            row[next(iter(row))] = "many"
        elif document == "wrong format":
            document = dict(good, format="something-else")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(document))
        code, _ = run(["--out-dir", str(tmp_path), "crawl",
                       "--store", str(pipeline.store),
                       "--model", str(model), "--threshold", "-2.0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad model file: ")

    def test_malformed_http_post(self, pipeline, tmp_path, capsys, monkeypatch):
        payload = {"posts": [MALFORMED_POSTS["tags not an array"]]}
        monkeypatch.setattr(cli, "HttpJsonStore", lambda url: HttpJsonStore(
            url, get=FakeGet(payload)))
        code, _ = run(["--out-dir", str(tmp_path), "crawl",
                       "--url", "http://store.test",
                       "--model", str(pipeline.root / "model.json"),
                       "--threshold", "-2.0", "--seed-blogger", "a"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad posts payload: ")

    def test_seed_fetch_failure(self, pipeline, tmp_path, capsys, monkeypatch):
        # Every GET answers HTTP 500, so the seed's posts cannot be fetched.
        monkeypatch.setattr(crawler, "BACKOFF_S", 0.0)
        monkeypatch.setattr(cli, "HttpJsonStore", lambda url: HttpJsonStore(
            url, get=lambda url: (500, {}, b"")))
        code, _ = run(["--out-dir", str(tmp_path), "crawl",
                       "--url", "http://store.test",
                       "--model", str(pipeline.root / "model.json"),
                       "--threshold", "-2.0", "--seed-blogger", "a"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: GET /blog/a/posts failed after 3 attempts")
        assert not (tmp_path / "manifest.json").exists()
        assert not (tmp_path / "crawl.json").exists()

    def test_threshold_file_not_an_object(self, pipeline, tmp_path, capsys):
        threshold_file = tmp_path / "threshold.json"
        threshold_file.write_text("[1]")
        code, _ = run(["--out-dir", str(tmp_path), "crawl",
                       "--store", str(pipeline.store),
                       "--model", str(pipeline.root / "model.json"),
                       "--threshold-file", str(threshold_file)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: threshold file")

    # A threshold that is not a number names the file; a null or absent one
    # is no threshold.
    @pytest.mark.parametrize("document,code,err", [
        *(({"threshold": value}, 2,
           "error: bad threshold file: 'threshold' is not a number\n")
          for value in ("x", True, [1], 10**400)),
        *((document, 3, "error: no threshold given "
                        "(use --threshold or --threshold-file)\n")
          for document in ({"threshold": None}, {}))])
    def test_threshold_file_values(self, pipeline, tmp_path, capsys, document,
                                   code, err):
        threshold_file = tmp_path / "threshold.json"
        threshold_file.write_text(json.dumps(document))
        assert run(["--out-dir", str(tmp_path / "out"), "crawl",
                    "--store", str(pipeline.store),
                    "--model", str(pipeline.root / "model.json"),
                    "--threshold-file", str(threshold_file)])[0] == code
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_explicit_threshold_flag(self, pipeline, tmp_path):
        code, stdout = run(["--out-dir", str(tmp_path), "crawl",
                            "--store", str(pipeline.store),
                            "--model", str(pipeline.root / "model.json"),
                            "--threshold", "-0.6",
                            "--graph-size", "5"])
        assert code == 0
        assert "stop reason:" in stdout

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        args = ["crawl", "--store", str(pipeline.store),
                "--model", str(pipeline.root / "model.json"),
                "--threshold-file", str(pipeline.root / "model.threshold.json"),
                "--policy", "uniform_random"]
        code_a, _ = run(["--out-dir", str(tmp_path / "a"), "--seed", "3"] + args)
        code_b, _ = run(["--out-dir", str(tmp_path / "b"), "--seed", "3"] + args)
        assert code_a == code_b == 0
        for name in ("graph.json", "graph.dot", "graph.graphml"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


# Graph documents whose node ids or edge ends are not non-empty strings.
NON_STRING_ID_GRAPHS = {
    "integer node and edge source": {
        "nodes": [{"id": 5}, {"id": "b"}],
        "edges": [{"src": 5, "dst": "b", "labels": ["like"]}]},
    "integer edge target": {
        "nodes": [{"id": "a"}, {"id": "b"}],
        "edges": [{"src": "a", "dst": 7, "labels": ["like"]}]},
    "empty node id": {"nodes": [{"id": ""}], "edges": []},
    "list edge source without labels": {
        "nodes": [{"id": "a"}],
        "edges": [{"src": ["a"], "dst": "a", "labels": []}]},
}


# Graph documents with a part of the wrong JSON type or value.
WRONG_TYPED_GRAPHS = {
    "nodes a string": {"nodes": "ab", "edges": []},
    "nodes an object": {"nodes": {"a": {"id": "a"}}, "edges": []},
    "node a number": {"nodes": [5], "edges": []},
    "edges an object": {"nodes": [], "edges": {"src": "a"}},
    "labels a string": {
        "nodes": [{"id": "a"}, {"id": "b"}],
        "edges": [{"src": "a", "dst": "b", "labels": "like"}]},
    "score a string": {"nodes": [{"id": "a", "score": "-1.5"}], "edges": []},
    "score a boolean": {"nodes": [{"id": "a", "score": True}], "edges": []},
    "edge without labels": {
        "nodes": [{"id": "a"}],
        "edges": [{"src": "a", "dst": "b", "labels": []}]},
    "self-loop without labels": {
        "nodes": [{"id": "c"}],
        "edges": [{"src": "c", "dst": "c", "labels": []}]},
    "node id listed twice": {
        "nodes": [{"id": "a", "verdict": "relevant", "score": -0.5},
                  {"id": "a", "verdict": None, "score": -0.9}],
        "edges": []},
}


class TestAnalyze:
    @pytest.fixture()
    def cycle_file(self, tmp_path):
        doc = {"nodes": [{"id": n, "verdict": None, "score": None}
                         for n in "abc"],
               "edges": [{"src": "a", "dst": "b", "labels": ["like"]},
                         {"src": "b", "dst": "c", "labels": ["like"]},
                         {"src": "c", "dst": "a", "labels": ["like"]}]}
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        return path

    def test_three_cycle_table(self, cycle_file, tmp_path):
        code, stdout = run(["--out-dir", str(tmp_path), "analyze",
                            str(cycle_file)])
        assert code == 0
        lines = {line.split("  ")[0].strip(): line.rsplit("  ", 1)[-1].strip()
                 for line in stdout.splitlines() if "  " in line}
        assert lines["nodes"] == "3"
        assert lines["edges"] == "3"
        assert lines["diameter"] == "2"
        assert lines["strongly connected components"] == "1"

    def test_label_projection(self, cycle_file, tmp_path):
        code, stdout = run(["--out-dir", str(tmp_path), "analyze",
                            str(cycle_file), "--label", "like"])
        assert code == 0
        code, _ = run(["--out-dir", str(tmp_path), "analyze",
                       str(cycle_file), "--label", "reblog"])
        assert code == 3  # projection is empty

    def test_crawled_graph_analyzes(self, pipeline, tmp_path):
        code, stdout = run(["--out-dir", str(tmp_path), "analyze",
                            str(pipeline.root / "graph.json"),
                            "--out", str(tmp_path / "measurements.json")])
        assert code == 0
        doc = json.loads((tmp_path / "measurements.json").read_text())
        assert doc["node_count"] > 0
        assert "modularity" in doc

    def test_malformed_graph_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _ = run(["--out-dir", str(tmp_path), "analyze", str(bad)])
        assert code == 2

    def test_missing_graph_file(self, tmp_path):
        code, _ = run(["--out-dir", str(tmp_path), "analyze",
                       str(tmp_path / "absent.json")])
        assert code == 2

    @pytest.mark.parametrize("name", sorted(NON_STRING_ID_GRAPHS))
    def test_non_string_node_ids(self, tmp_path, capsys, name):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(NON_STRING_ID_GRAPHS[name]))
        code, _ = run(["--out-dir", str(tmp_path / "out"), "analyze", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestExport:
    def test_dot_and_graphml(self, pipeline, tmp_path):
        source = str(pipeline.root / "graph.json")
        code, _ = run(["--out-dir", str(tmp_path), "export", source,
                       "--format", "dot"])
        assert code == 0
        assert (tmp_path / "graph.dot").read_text().startswith("digraph")

        code, _ = run(["--out-dir", str(tmp_path), "export", source,
                       "--format", "graphml",
                       "--out", str(tmp_path / "custom.graphml")])
        assert code == 0
        ElementTree.parse(tmp_path / "custom.graphml")

    def test_json_round_trip(self, pipeline, tmp_path):
        source = pipeline.root / "graph.json"
        code, _ = run(["--out-dir", str(tmp_path), "export", str(source),
                       "--format", "json"])
        assert code == 0
        original = import_json_edge_list(source.read_bytes())
        exported = import_json_edge_list(
            (tmp_path / "graph.json").read_bytes())
        assert exported == original

    @pytest.mark.parametrize("fmt", ["json", "graphml", "dot"])
    @pytest.mark.parametrize("name", sorted(NON_STRING_ID_GRAPHS))
    def test_non_string_node_ids(self, tmp_path, capsys, fmt, name):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(NON_STRING_ID_GRAPHS[name]))
        out = tmp_path / "out"
        code, _ = run(["--out-dir", str(out), "export", str(path),
                       "--format", fmt])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / f"graph.{fmt}").exists()

    def test_dot_escapes_a_name_utf8_cannot_encode(self, tmp_path):
        # A lone surrogate (a JSON "\ud800" escape) is written as its
        # backslash escape; the same text spelled with a real backslash keeps
        # a distinct id.
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"nodes": [{"id": "a\ud800"}, {"id": "a\\ud800"}], "edges": []}))
        code, _ = run(["--out-dir", str(tmp_path), "export", str(path),
                       "--format", "dot"])
        assert code == 0
        lines = (tmp_path / "graph.dot").read_bytes().splitlines()
        assert lines[1:3] == [b'  "a\\ud800";', b'  "a\\\\ud800";']

    def test_unknown_format_rejected_by_parser(self, pipeline, tmp_path):
        with pytest.raises(SystemExit):
            run(["--out-dir", str(tmp_path), "export",
                 str(pipeline.root / "graph.json"), "--format", "gexf"])


@pytest.mark.parametrize("command", [["analyze"], ["export", "--format", "json"],
                                     ["export", "--format", "dot"]],
                         ids=["analyze", "export json", "export dot"])
@pytest.mark.parametrize("name", sorted(WRONG_TYPED_GRAPHS))
def test_wrong_typed_graph(tmp_path, capsys, command, name):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(WRONG_TYPED_GRAPHS[name]))
    code, _ = run(["--out-dir", str(tmp_path / "out"), command[0], str(path),
                   *command[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "graph document" in err


GOLDEN_EVAL = """\
confusion matrix
                    actual relevant  actual unknown
predicted relevant  290              92
predicted unknown   45               173

accuracy results
           precision  recall     f-score    accuracy
exact      0.7592     0.8657     0.8089     0.7717
truncated  0.75       0.86       0.80       0.77
"""


class TestEval:
    def test_reference_matrix_verbatim(self):
        code, stdout = run(["eval", "--matrix", "290,45,92,173"])
        assert code == 0
        assert stdout == GOLDEN_EVAL

    def test_bad_matrix_strings(self):
        for bad in ("1,2,3", "a,b,c,d", "-1,2,3,4"):
            # --matrix=... keeps argparse from eating a leading dash
            code, _ = run(["eval", f"--matrix={bad}"])
            assert code == 4, bad

    def test_no_inputs(self):
        code, _ = run(["eval"])
        assert code == 3

    def test_console_script_entry(self, tmp_path):
        # ``entry`` is what the installed ``spiderveil`` script runs.
        src = Path(cli.__file__).resolve().parent.parent

        def spiderveil(*argv):
            return subprocess.run(
                [sys.executable, "-c", "from spiderveil.cli import entry; entry()",
                 *argv], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                capture_output=True, text=True)

        done = spiderveil("eval", "--matrix", "290,45,92,173")
        assert (done.returncode, done.stdout, done.stderr) == (0, GOLDEN_EVAL, "")
        done = spiderveil("eval")
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == \
            "error: eval needs --matrix or both --result and --truth\n"

    def test_crawl_result_against_truth(self, pipeline, tmp_path):
        code, stdout = run(["--out-dir", str(tmp_path), "eval",
                            "--result", str(pipeline.root / "crawl.json"),
                            "--truth", str(pipeline.truth),
                            "--out", str(tmp_path / "report.json")])
        assert code == 0
        assert "confusion matrix" in stdout
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["report"]["precision"] == 1.0
        assert report["confusion_matrix"]["fp"] == 0

    def test_truth_gap_is_an_input_error(self, pipeline, tmp_path):
        partial = tmp_path / "partial-truth.json"
        truth = json.loads(pipeline.truth.read_text())
        truth.pop("blogger-000")
        partial.write_text(json.dumps(truth))
        code, _ = run(["--out-dir", str(tmp_path), "eval",
                       "--result", str(pipeline.root / "crawl.json"),
                       "--truth", str(partial)])
        assert code == 3

    @pytest.mark.parametrize("truth", [[["blogger-000", "relevant"]],
                                       {"blogger-000": "maybe"},
                                       {"blogger-000": 1}],
                             ids=["list", "junk label", "number label"])
    def test_malformed_truth(self, pipeline, tmp_path, capsys, truth):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth))
        code, _ = run(["--out-dir", str(tmp_path), "eval",
                       "--result", str(pipeline.root / "crawl.json"),
                       "--truth", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad truth file: ")

    @pytest.mark.parametrize("fields", [
        {"visit_log": [[1]]},
        {"visit_log": [["blogger-000", -2.0, "maybe"]]},
        {"visit_log": [["blogger-000", "-2.0", "relevant"]]},
        {"visit_log": [["blogger-000", True, "relevant"]]},
        {"visit_log": 5},
        {"discarded": 7},
    ], ids=["short row", "unknown verdict", "string score", "boolean score",
            "log not a list", "discarded not a list"])
    def test_malformed_visit_log(self, pipeline, tmp_path, capsys, fields):
        document = json.loads((pipeline.root / "crawl.json").read_text())
        result = tmp_path / "crawl.json"
        result.write_text(json.dumps({**document, **fields}))
        code, _ = run(["--out-dir", str(tmp_path), "eval",
                       "--result", str(result), "--truth", str(pipeline.truth)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestConfigFile:
    def test_config_supplies_paths(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"store": str(pipeline.store),
                                      "model": str(pipeline.root / "model.json"),
                                      "threshold": -0.6,
                                      "graph_size_limit": 4}))
        code, stdout = run(["--config", str(config),
                            "--out-dir", str(tmp_path), "crawl"])
        assert code == 0
        checkpoint = json.loads((tmp_path / "crawl.json").read_text())
        assert checkpoint["config"]["graph_size_limit"] == 4

    def test_flags_override_config(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"store": "/nonexistent/store.json"}))
        code, _ = run(["--config", str(config), "--out-dir", str(tmp_path),
                       "bootstrap", "--store", str(pipeline.store),
                       "--tag", "stargazing", "--target", "5"])
        assert code == 0

    def test_integral_float_settings_are_integers(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"store": str(pipeline.store),
                                      "model": str(pipeline.root / "model.json"),
                                      "threshold": -1, "graph_size_limit": 4.0,
                                      "rng_seed": 3.0}))
        code, _ = run(["--config", str(config), "--out-dir", str(tmp_path), "crawl"])
        assert code == 0
        written = json.loads((tmp_path / "crawl.json").read_text())["config"]
        assert (written["graph_size_limit"], written["rng_seed"]) == (4, 3)
        assert written["threshold"] == -1.0

    # (config entries, exit code, text the error names); a wrong JSON type
    # exits 2, a value of the right type outside its range exits 4.
    @pytest.mark.parametrize("entries,code,key", [
        ({"graph_size_limit": [1]}, 2, "graph_size_limit"),
        ({"graph_size_limit": 2.9}, 2, "graph_size_limit"),
        ({"graph_size_limit": True}, 2, "graph_size_limit"),
        ({"graph_size_limit": "x"}, 2, "graph_size_limit"),
        ({"frontier_width": "3"}, 2, "frontier_width"),
        ({"posts_per_blogger": 1.5}, 2, "posts_per_blogger"),
        ({"rng_seed": False}, 2, "rng_seed"),
        ({"threshold": [1]}, 2, "threshold"),
        ({"threshold": "-0.6"}, 2, "threshold"),
        ({"threshold": True}, 2, "threshold"),
        ({"seed_blogger": 5}, 2, "seed_blogger"),
        ({"selection_policy": 1}, 2, "selection_policy"),
        ({"graph_size_limit": 0}, 4, "graph_size_limit"),
        ({"selection_policy": "greedy"}, 4, "greedy"),
        ({"model": 5}, 2, "model"),
        ({"store": {"path": "store.json"}}, 2, "store"),
        ({"url": ["http://store.test"]}, 2, "url"),
    ])
    def test_bad_crawl_settings(self, pipeline, tmp_path, capsys, entries,
                                code, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"store": str(pipeline.store),
                                      "model": str(pipeline.root / "model.json"),
                                      "threshold": -0.6, **entries}))
        out_dir = tmp_path / "out"
        assert run(["--config", str(config), "--out-dir", str(out_dir),
                    "crawl"])[0] == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not (out_dir / "manifest.json").exists()

    # Every config key crawl reads: a wrong JSON type is reported under one
    # prefix, whichever reader the value goes to.
    @pytest.mark.parametrize("key", [
        "store", "url", "model", "threshold", "seed_blogger", "graph_size_limit",
        "frontier_width", "posts_per_blogger", "selection_policy", "rng_seed"])
    def test_wrong_type_names_bad_config(self, pipeline, tmp_path, capsys, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"store": str(pipeline.store),
                                      "model": str(pipeline.root / "model.json"),
                                      "threshold": -0.6, key: [1]}))
        out_dir = tmp_path / "out"
        assert run(["--config", str(config), "--out-dir", str(out_dir),
                    "crawl"])[0] == 2
        assert capsys.readouterr().err.startswith(f"error: bad config: {key!r} ")

    def test_malformed_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code, _ = run(["--config", str(config), "--out-dir", str(tmp_path),
                       "eval", "--matrix", "1,1,1,1"])
        assert code == 2


# A JSON integer that float() cannot hold.
HUGE = 10**400


class TestNumbersFloatCannotHold:
    """Each reader of a JSON number refuses one that float() cannot hold with
    an error line naming its key, instead of an OverflowError traceback."""

    def fails(self, argv, capsys, code=2) -> str:
        assert run(argv)[0] == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def test_gen_params(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"mixing_prob": HUGE}))
        argv = ["--out-dir", str(tmp_path / "out"), "gen", "--params", str(params)]
        assert self.fails(argv, capsys) == (
            "error: bad generator params: 'mixing_prob' is not a number\n")
        params.write_text(json.dumps({"total_bloggers": HUGE}))
        assert self.fails(argv, capsys, code=4) == (
            "error: total_bloggers must fit in a float\n")

    def test_train_config(self, pipeline, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": str(pipeline.root / "corpus.ndjson"),
                                      "alpha": HUGE}))
        assert self.fails(["--config", str(config), "--out-dir", str(tmp_path),
                           "train"], capsys) == (
            "error: bad config: 'alpha' is not a number\n")

    def test_crawl_config(self, pipeline, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"store": str(pipeline.store),
                                      "model": str(pipeline.root / "model.json"),
                                      "threshold": HUGE}))
        assert self.fails(["--config", str(config), "--out-dir", str(tmp_path),
                           "crawl"], capsys) == (
            "error: bad config: 'threshold' is not a number\n")

    def test_model_file(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            **json.loads((pipeline.root / "model.json").read_text()), "alpha": HUGE}))
        assert self.fails(["--out-dir", str(tmp_path), "crawl",
                           "--store", str(pipeline.store), "--model", str(model),
                           "--threshold", "-2.0"], capsys) == (
            "error: bad model file: 'alpha' is not a finite number\n")

    def test_visit_log_score(self, pipeline, tmp_path, capsys):
        document = json.loads((pipeline.root / "crawl.json").read_text())
        row = ["blogger-000", HUGE, "relevant"]
        document["visit_log"][0] = row
        result = tmp_path / "crawl.json"
        result.write_text(json.dumps(document))
        assert self.fails(["--out-dir", str(tmp_path), "eval", "--result",
                           str(result), "--truth", str(pipeline.truth)],
                          capsys) == f"error: bad visit_log row {row!r}\n"
        with pytest.raises(GraphFormatError, match="^bad visit_log row "):
            crawler.CrawlSession.resume(None, None, document)


# Score texts that json reads as floats that are not finite.
NON_FINITE_SCORES = ["NaN", "Infinity", "-Infinity", "1e400"]


class TestNonFiniteScores:
    """A score read from a file is finite: the package never writes another,
    and writing one back out would give JSON that is not RFC 8259 JSON
    (NaN, Infinity) or a DOT score of "inf"."""

    @pytest.mark.parametrize("fmt", ["json", "graphml", "dot"])
    @pytest.mark.parametrize("text", NON_FINITE_SCORES)
    def test_export_refuses_the_graph(self, tmp_path, capsys, fmt, text):
        path = tmp_path / "graph.json"
        path.write_text(f'{{"nodes": [{{"id": "a", "score": {text}}}], "edges": []}}')
        out = tmp_path / "out"
        code, _ = run(["--out-dir", str(out), "export", str(path), "--format", fmt])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: bad graph document: node score {float(text)!r}"
            " is not a finite number\n")
        assert not (out / f"graph.{fmt}").exists()

    @pytest.mark.parametrize("text", NON_FINITE_SCORES)
    def test_eval_refuses_the_visit_log(self, pipeline, tmp_path, capsys, text):
        document = json.loads((pipeline.root / "crawl.json").read_text())
        document["visit_log"][0][1] = "SCORE"
        result = tmp_path / "crawl.json"
        result.write_text(json.dumps(document).replace('"SCORE"', text))
        document = json.loads(result.read_text())
        row = document["visit_log"][0]
        code, _ = run(["--out-dir", str(tmp_path), "eval", "--result",
                       str(result), "--truth", str(pipeline.truth)])
        assert code == 2
        assert capsys.readouterr().err == f"error: bad visit_log row {row!r}\n"
        with pytest.raises(GraphFormatError, match="^bad visit_log row "):
            crawler.CrawlSession.resume(None, None, document)


class TestDataSourceContract:
    def test_two_request_source_writes_the_same_files(self, pipeline, tmp_path,
                                                      monkeypatch):
        """bootstrap, train's seed scoring and crawl need only blogger_posts
        and tagged_posts, with no type keyword."""
        eager = EagerFixtureStore(json.loads(pipeline.store.read_text()))
        monkeypatch.setattr(cli, "open_store", lambda args, config: eager)
        out = str(tmp_path)
        steps = [
            ["bootstrap", "--tag", "stargazing", "--target", "80"],
            ["train", "--corpus", str(tmp_path / "corpus.ndjson"),
             "--seed-bloggers", str(pipeline.seeds_file)],
            ["crawl", "--model", str(tmp_path / "model.json"),
             "--threshold-file", str(tmp_path / "model.threshold.json"),
             "--seed-blogger", "blogger-000"],
        ]
        stdouts = []
        for argv in steps:
            code, stdout = run(["--out-dir", out] + argv)
            assert code == 0
            stdouts.append(stdout.replace(out, str(pipeline.root)))
        assert stdouts == [pipeline.boot_stdout, pipeline.train_stdout,
                           pipeline.crawl_stdout]
        for name in ("corpus.ndjson", "corpus.lexicon.json", "model.json",
                     "model.threshold.json", "crawl.json", "graph.json",
                     "graph.dot", "graph.graphml"):
            assert (tmp_path / name).read_bytes() == \
                (pipeline.root / name).read_bytes(), name


class TestManifest:
    def test_written_before_outputs_and_lists_them(self, tmp_path):
        code, _ = run(["--out-dir", str(tmp_path), "--seed", "2",
                       "gen", "--bloggers", "12"])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        names = {str(tmp_path / "store.json"), str(tmp_path / "truth.json")}
        assert set(manifest["output_paths"]) == names
        assert manifest["started_at"].endswith("+00:00")

    def test_records_the_argv_main_parsed(self, tmp_path, monkeypatch):
        argv = ["--out-dir", str(tmp_path), "gen", "--bloggers", "10"]
        manifest = tmp_path / "manifest.json"
        monkeypatch.setattr(cli.sys, "argv", ["host", "--unrelated"])
        assert main(argv) == 0
        assert json.loads(manifest.read_text())["argv"] == argv
        # Without an argv, main parses and records the process's arguments.
        monkeypatch.setattr(cli.sys, "argv", ["spiderveil", *argv])
        assert main() == 0
        assert json.loads(manifest.read_text())["argv"] == argv


# Each exception a command may let through, and the code main exits with.
EXIT_CASES = {
    "EmptyInputError": (EmptyInputError("nothing to do"), 3),
    "NotFoundError": (NotFoundError("no blogger named 'x'"), 4),
    "GraphFormatError": (GraphFormatError("bad fixture store: x"), 2),
    "RetrievalError": (RetrievalError("GET /x failed", retries=3), 2),
    "ScoringError": (ScoringError("blogger has no scoreable text"), 3),
    "SelfLoopError": (SelfLoopError("self-loop on 'a'"), 4),
    "OSError": (OSError("disk full"), 2),
    "UnicodeDecodeError": (
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), 4),
    "ValueError": (ValueError("bad value"), 4),
}


@pytest.mark.parametrize("name", EXIT_CASES)
def test_exit_code_of_each_exception(monkeypatch, capsys, name):
    error, code = EXIT_CASES[name]

    def fail(args, config):
        raise error

    monkeypatch.setattr(cli, "cmd_eval", fail)
    assert main(["eval"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


# Every file-taking flag, given a file that starts with the bytes \xff\xfe
# (``bad``); the other inputs come from the shared pipeline run.
NOT_UTF8_ARGV = {
    "--config": lambda bad, p: ["--config", bad, "eval", "--matrix", "1,1,1,1"],
    "gen --params": lambda bad, p: ["gen", "--params", bad],
    "bootstrap --store": lambda bad, p: ["bootstrap", "--store", bad,
                                         "--tag", "stargazing"],
    "train --corpus": lambda bad, p: ["train", "--corpus", bad],
    "train --seed-bloggers": lambda bad, p: [
        "train", "--corpus", str(p.root / "corpus.ndjson"),
        "--seed-bloggers", bad, "--store", str(p.store)],
    "train --store": lambda bad, p: [
        "train", "--corpus", str(p.root / "corpus.ndjson"),
        "--seed-bloggers", str(p.seeds_file), "--store", bad],
    "crawl --store": lambda bad, p: ["crawl", "--store", bad,
                                     "--model", str(p.root / "model.json")],
    "crawl --model": lambda bad, p: ["crawl", "--store", str(p.store),
                                     "--model", bad],
    "crawl --threshold-file": lambda bad, p: [
        "crawl", "--store", str(p.store), "--model", str(p.root / "model.json"),
        "--threshold-file", bad],
    "analyze": lambda bad, p: ["analyze", bad],
    "export": lambda bad, p: ["export", bad, "--format", "dot"],
    "eval --result": lambda bad, p: ["eval", "--result", bad,
                                     "--truth", str(p.truth)],
    "eval --truth": lambda bad, p: ["eval", "--result", str(p.root / "crawl.json"),
                                    "--truth", bad],
}


# What else each file-taking flag is given: a path to nothing, a directory,
# and text that is not JSON.
UNREADABLE_INPUTS = {
    "missing": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "not JSON": lambda path: path.write_text("{not json\n"),
}


@pytest.mark.parametrize("flag", NOT_UTF8_ARGV)
def test_non_utf8_input_is_an_input_error(pipeline, tmp_path, capsys, flag):
    bad = tmp_path / "input.json"
    bad.write_bytes(b"\xff\xfe{}")
    argv = NOT_UTF8_ARGV[flag](str(bad), pipeline)
    code, _ = run(["--out-dir", str(tmp_path / "out")] + argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "can't decode byte 0xff" in err
    # Every unreadable input exits 2 with one error line, before the manifest.
    for case, make in UNREADABLE_INPUTS.items():
        path = tmp_path / case / "input.json"
        path.parent.mkdir()
        make(path)
        out = tmp_path / case / "out"
        code, _ = run(["--out-dir", str(out)]
                      + NOT_UTF8_ARGV[flag](str(path), pipeline))
        err = capsys.readouterr().err
        assert code == 2, case
        assert len(err.splitlines()) == 1 and err.startswith("error: "), case
        assert not (out / "manifest.json").exists(), case


# Every file-taking flag: the argv around the file, a valid document to give
# wrong-typed values to, and for each key it reads the JSON types that key
# may hold.  A value of any other type must be rejected; ``None`` stands for
# null.  --config runs under each command that reads it; --corpus files hold
# one document per line.
STR, NUM, LIST, DICT, NULL = (str,), (int, float), (list,), (dict,), (type(None),)
MALFORMED_INPUTS = {
    "--config bootstrap": (
        lambda bad, p: ["--config", bad, "bootstrap"],
        lambda p: {"store": str(p.store), "tags": ["stargazing"], "target": 5},
        {"store": STR + NULL, "url": STR + NULL, "tags": LIST + NULL,
         "target": NUM + NULL}),
    "--config train": (
        lambda bad, p: ["--config", bad, "train"],
        lambda p: {"corpus": str(p.root / "corpus.ndjson")},
        {"corpus": STR + NULL, "order": NUM + NULL, "alpha": NUM + NULL,
         "posts_per_blogger": NUM + NULL}),
    "--config crawl": (
        lambda bad, p: ["--config", bad, "crawl"],
        lambda p: {"store": str(p.store), "model": str(p.root / "model.json"),
                   "threshold": -0.6, "graph_size_limit": 4},
        {"store": STR + NULL, "url": STR + NULL, "model": STR + NULL,
         "threshold": NUM + NULL, "seed_blogger": STR + NULL,
         "graph_size_limit": NUM + NULL, "frontier_width": NUM + NULL,
         "posts_per_blogger": NUM + NULL, "rng_seed": NUM + NULL,
         "selection_policy": STR + NULL}),
    "--params": (
        lambda bad, p: ["gen", "--params", bad],
        lambda p: {"total_bloggers": 10},
        {"total_bloggers": NUM, "relevant_fraction": NUM, "mixing_prob": NUM,
         "intra_community_note_bias": NUM, "rng_seed": NUM,
         "posts_per_blogger": NUM, "notes_per_post": LIST,
         "words_per_post": LIST, "on_topic_vocab": LIST,
         "off_topic_vocab": LIST, "on_topic_tags": LIST, "off_topic_tags": LIST}),
    "--seed-bloggers": (
        lambda bad, p: ["train", "--corpus", str(p.root / "corpus.ndjson"),
                        "--seed-bloggers", bad, "--store", str(p.store)],
        lambda p: {"bloggers": p.seeds},
        {"bloggers": LIST}),
    "--threshold-file": (
        lambda bad, p: ["crawl", "--store", str(p.store),
                        "--model", str(p.root / "model.json"),
                        "--threshold-file", bad],
        lambda p: {"threshold": -0.6},
        {"threshold": NUM + NULL}),
    "--model": (
        lambda bad, p: ["crawl", "--store", str(p.store), "--model", bad,
                        "--threshold", "-0.6"],
        lambda p: json.loads((p.root / "model.json").read_text()),
        {"format": STR, "version": NUM, "order": NUM, "alpha": NUM,
         "vocabulary": LIST, "trained_chars": NUM, "contexts": DICT}),
    "--result": (
        lambda bad, p: ["eval", "--result", bad, "--truth", str(p.truth)],
        lambda p: json.loads((p.root / "crawl.json").read_text()),
        {"visit_log": LIST, "discarded": LIST}),
    "--truth": (
        lambda bad, p: ["eval", "--result", str(p.root / "crawl.json"),
                        "--truth", bad],
        lambda p: json.loads(p.truth.read_text()),
        {"blogger-000": STR + (bool,), "blogger-001": STR + (bool,)}),
    "--corpus": (
        lambda bad, p: ["train", "--corpus", bad],
        lambda p: {"id": "a", "text": "the stars"},
        {"id": STR, "text": STR}),
    "--store": (
        lambda bad, p: ["crawl", "--store", bad,
                        "--model", str(p.root / "model.json"), "--threshold", "-0.6"],
        lambda p: json.loads(p.store.read_text()),
        {"blogs": LIST, "posts": LIST, "seed": STR}),
    "analyze": (
        lambda bad, p: ["analyze", bad],
        lambda p: json.loads((p.root / "graph.json").read_text()),
        {"nodes": LIST, "edges": LIST}),
    "export": (
        lambda bad, p: ["export", bad, "--format", "graphml"],
        lambda p: json.loads((p.root / "graph.json").read_text()),
        {"nodes": LIST, "edges": LIST}),
}

any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6)


def _is_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def malformed_documents(types: dict):
    """File contents: text that is not JSON, a list that is not all strings,
    a string, a number, or entries to lay over a valid document, one or two
    keys of ``types`` each with a value of a type it never holds."""
    wrong_entry = st.sampled_from(sorted(types)).flatmap(
        lambda key: any_json.filter(lambda value: not isinstance(value, types[key]))
        .map(lambda value: (key, value)))
    return st.one_of(
        st.text(max_size=30).filter(lambda text: not _is_json(text)),
        st.lists(any_json, min_size=1, max_size=4)
        .filter(lambda items: not all(isinstance(x, str) for x in items))
        .map(json.dumps),
        st.text(max_size=10).map(json.dumps),
        (st.integers() | st.floats()).map(json.dumps),
        st.lists(wrong_entry, min_size=1, max_size=2).map(dict))


@pytest.fixture(scope="module")
def malformed_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@pytest.mark.parametrize("flag", MALFORMED_INPUTS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_malformed_input_is_an_error_line(pipeline, malformed_dir, flag, data):
    argv, base, types = MALFORMED_INPUTS[flag]
    document = data.draw(malformed_documents(types))
    if isinstance(document, dict):
        document = json.dumps({**base(pipeline), **document})
    path = malformed_dir / "input.json"
    path.write_text(document, encoding="utf-8")
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run(["--out-dir", str(malformed_dir / "out")]
                      + argv(str(path), pipeline))
    assert code in (2, 3, 4)
    assert err.getvalue().startswith("error: ")


def json_native(value) -> bool:
    """Whether ``value`` is exact dicts with string keys, lists, strings,
    ints, finite floats, bools and None, all the way down."""
    kind = type(value)
    if kind is dict:
        return all(type(key) is str and json_native(item) for key, item in value.items())
    if kind is list:
        return all(map(json_native, value))
    if kind is float:
        return math.isfinite(value)
    return kind in (str, int, bool, type(None))


def reference_json(obj) -> str:
    """``json.dumps``'s text of a JSON-native document; any other document
    raises ValueError."""
    if not json_native(obj):
        raise ValueError("not a JSON-native document")
    return json.dumps(obj, sort_keys=True, indent=1)


def outcome(encode, obj):
    """The text ``encode`` returns, or the class of what it raises."""
    try:
        return encode(obj)
    except Exception as exc:
        return type(exc)


# Any code point, lone surrogates included.
any_text = st.text(st.characters(exclude_categories=()), max_size=12)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    any_text)
# Keys other than strings, and tuples, are not JSON-native.
other_keys = st.one_of(st.integers(), st.floats(), st.booleans(), st.none())
json_documents = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(any_text, children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(other_keys, children, max_size=3),
        st.dictionaries(st.one_of(any_text, other_keys), children, max_size=3)),
    max_leaves=30)


class Text(str):
    """A str subclass, which json.dumps writes as a string and json_text
    refuses."""


class Alias:
    """A key that equals "a" and hashes like it, which json_text refuses."""

    def __eq__(self, other):
        return other == "a"

    def __hash__(self):
        return hash("a")


# Record arrays, as checkpoints and stores hold them: lists of dicts that
# share, or almost share, one key set, and lists of lists of one length.
# Each column draws its values from one of these, so that the column paths
# (all strings, all floats, repeated short lists) are taken as often as not.
record_keys = st.one_of(st.sampled_from(["%s", "%", '"', "caf\u00e9", "\U0001f30c",
                                         "labels", "a", "b"]), any_text)
column_values = st.sampled_from([
    any_text,
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.5, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.sampled_from([0, 1, True, False, 1.0, 0.0, -0.0, None]),
    st.sampled_from([[0.0], [-0.0], [1], [True], [1.0], [math.nan], ["like"],
                     ["like", "reblog"], [], {}]),
    st.lists(st.sampled_from(["like", "reblog", "\u00e9"]), max_size=6),
    st.lists(st.fixed_dictionaries({"kind": st.sampled_from(["like", "reblog"]),
                                     "blog_name": any_text}), max_size=3),
    st.one_of(any_text.map(Text), st.tuples(any_text)),
    json_documents,
])


@st.composite
def record_arrays(draw):
    keys = draw(st.lists(record_keys, min_size=1, max_size=5, unique=True))
    columns = [draw(column_values) for _ in keys]
    size = draw(st.integers(min_value=2, max_value=12))
    if draw(st.booleans()):
        rows = [[draw(column) for column in columns] for _ in range(size)]
        if draw(st.integers(0, 4)) == 0:
            rows[draw(st.integers(0, size - 1))].append(0)
        return rows
    rows = [{key: draw(column) for key, column in zip(keys, columns)}
            for _ in range(size)]
    # Almost one key set: a row without a key, with another, or with a
    # key that is not JSON-native.
    change = draw(st.integers(0, 7))
    row = rows[draw(st.integers(0, size - 1))]
    if change == 0:
        del row[keys[0]]
    elif change == 1:
        row[draw(record_keys.filter(lambda key: key not in keys))] = 0
    elif change == 2:
        row[draw(other_keys)] = 0
    elif change == 3:
        row[Text(keys[0])] = row.pop(keys[0])
    return rows


class TestJsonText:
    @given(document=json_documents)
    @settings(max_examples=600, deadline=None)
    def test_equals_json_dumps(self, document):
        assert outcome(cli.json_text, document) == outcome(reference_json, document)

    @given(rows=record_arrays(), chunk=st.sampled_from([cli._CHUNK_ROWS, 1, 3]))
    @settings(max_examples=600, deadline=None)
    def test_record_arrays_equal_json_dumps(self, rows, chunk):
        for document in (rows, {"rows": rows, "deeper": [rows]}):
            with patch.object(cli, "_CHUNK_ROWS", chunk):
                text = outcome(cli.json_text, document)
            assert text == outcome(reference_json, document)

    @pytest.mark.parametrize("document", [
        {}, [], [[]], {"a": {}}, {"a": [{}, []]}, "", 0, -0.0, math.nan,
        math.inf, -math.inf, 10 ** 30, 10 ** 40, -10 ** 40, True, None,
        "\U0001f30c \ud800 caf\u00e9 \"\\\n"])
    def test_edge_documents(self, document):
        assert outcome(cli.json_text, document) == outcome(reference_json, document)

    @pytest.mark.parametrize("document, named", [
        ({"a": [1, {"b": object()}]}, "object <object object at "),
        ({"a": {1, 2}}, "set {1, 2} "),
        ([b"bytes"], "bytes b'bytes' "),
        ({"a": 1, 2: "b"}, "int key 2 "),
        ([{"a": 1}, {Alias(): 2}], "Alias key <"),
        ([["a"], ("b",)], "tuple ('b',) "),
        ({"a": Text("b")}, "Text 'b' "),
        ([{Text("a"): 1}], "Text key 'a' "),
        ([1.5, math.inf], "float inf "),
        ({"a": [-math.inf]}, "float -inf "),
        ({"a": 0.5, "b": math.nan}, "float nan "),
    ], ids=["object", "set", "bytes", "int key", "key equal to a string", "tuple",
            "str subclass", "str subclass key", "infinity in a float column",
            "-infinity", "NaN"])
    def test_other_values_raise_value_error(self, document, named):
        with pytest.raises(ValueError, match=f"^cannot write {re.escape(named)}"):
            cli.json_text(document)

    def test_circular_reference(self):
        document = {"a": []}
        document["a"].append(document)
        assert outcome(cli.json_text, document) is RecursionError

    def test_writing_a_store_peaks_under_two_and_a_half_texts(self):
        """The writer's transient memory on a longposts-size store (500
        bloggers, 10 posts of 150-250 words each, about 10 MB of text)."""
        store, _ = generate(GeneratorParams(total_bloggers=500, posts_per_blogger=10,
                                            words_per_post=(150, 250)))
        tracemalloc.start()
        try:
            text = cli.json_text(store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 8_000_000
        assert peak <= 2.5 * len(text)

    def test_generated_store_and_checkpoint(self, pipeline, tmp_path):
        for name in ("store.json", "crawl.json", "truth.json", "graph.json",
                     "manifest.json"):
            document = json.loads((pipeline.root / name).read_text())
            path = tmp_path / name
            cli.write_json(path, document)
            assert path.read_text() == reference_json(document) + "\n"
