"""Command-line pipeline.

Subcommands cover the whole flow: ``gen`` a synthetic network, ``bootstrap``
an exemplar corpus from seed tags, ``train`` the n-gram model (optionally
deriving the threshold from seed bloggers), ``crawl`` a store, ``analyze``
and ``export`` graphs, and ``eval`` predictions against ground truth.

Each command prints what it did and returns nothing, and ``main`` exits 0;
a command that fails raises, and ``EXIT_CODES`` gives the exit code of each
exception (2 I/O or malformed file, 3 missing or empty input, 4 domain
error).  Outputs land in --out-dir; a manifest.json recording the
invocation is written before any artifact.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .corpus import (NoteKind, bootstrap_exemplars, ExemplarCorpus, filter_english,
                     normalize_tag)
from .crawler import (CONFIG_KINDS, CrawlConfig, CrawlSession, FixtureStore,
                      HttpJsonStore, SelectionPolicy, predicted_verdicts,
                      visit_log_from_json)
from .errors import (INTEGER, NUMBER, STRING, STRINGS, EmptyInputError,
                     GraphFormatError, JsonKind, NotFoundError, RetrievalError,
                     SpiderveilError, atomic_write_bytes, read_fields, read_json)
from .langmodel import (compute_threshold, load_model, save_model,
                        score_blogger, train)
from .simnet import (ConfusionMatrix, GeneratorParams, evaluate, generate,
                     report_from_matrix, truncate2, truth_from_json_dict,
                     truth_to_json_dict)
from .socialgraph import export_graph, import_json_edge_list, measure

# The exit code of each exception a command lets through.  The first class
# that matches wins, so a subclass comes before its base: NotFoundError is a
# SpiderveilError.  A JSON input that does not decode raises GraphFormatError
# where it is read; ScoringError is an EmptyInputError.
EXIT_CODES = {
    NotFoundError: 4,
    GraphFormatError: 2,
    RetrievalError: 2,
    EmptyInputError: 3,
    SpiderveilError: 4,
    OSError: 2,
    ValueError: 4,
}


# -- small file helpers --------------------------------------------------------


# A homogeneous array is written this many rows at a time, so that only one
# chunk's column texts are alive beside the finished chunks.
_CHUNK_ROWS = 256
# A column's lists of strings up to this long are each written once per
# indent and json_text call.
_SHORT_LIST = 4

# Every writer below lays a container out as pieces, each item's first piece
# starting with the comma that separates it from the item before; the
# container's opening bracket replaces the first item's comma, and one join
# makes its text.


def _json_value(value, newline: str, memo: dict) -> str:
    """``value`` as JSON text; ``newline`` is ``"\\n"`` plus the indent of the
    line ``value`` starts on, one space per level.  ``memo`` holds the text
    of each short list of strings written so far (see ``_column``)."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        return _dict_texts([value], newline, memo)[0]
    if kind is list:
        return _array_text(value, newline, memo) if value else "[]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    raise ValueError(f"cannot write {kind.__name__} {value!r:.60} as JSON")


def _column(values: list, newline: str, memo: dict):
    """The text of each of ``values``, all starting on lines ``newline``
    begins.  Strings and finite floats are one C-level map.  Dicts, and
    arrays of records, are written as one column of all their items.  Each
    distinct short list of strings is written once and kept in
    ``memo[newline]``."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    if kinds == {float} and math.isfinite(sum(values)):
        return map(float.__repr__, values)
    if kinds == {dict}:
        return _dict_texts(values, newline, memo)
    if kinds == {list}:
        items = list(chain.from_iterable(values))
        if (max(map(len, values)) <= _SHORT_LIST
                and set(map(type, items)) <= {str}):
            # Equal tuples of exact strings always write the same text.
            known = memo.setdefault(newline, {})
            keys = list(map(tuple, values))
            for key in set(keys).difference(known):
                known[key] = _json_value(list(key), newline, memo)
            return map(known.__getitem__, keys)
        layout = items and _layout(items, newline + " ")
        if layout:
            return _containers(_row_pieces(items, layout, newline + " ", memo),
                               map(len, values), len(layout[0]), newline, "[]")
    return [_json_value(value, newline, memo) for value in values]


def _containers(pieces: list, counts, width: int, newline: str,
                brackets: str) -> list:
    """The text of each container from the flat ``pieces`` of all their
    items, ``width`` pieces per item and ``counts`` items per container."""
    texts = []
    at = 0
    for count in counts:
        if not count:
            texts.append(brackets)
            continue
        part = pieces[at:at + count * width]
        part[0] = brackets[0] + part[0][1:]
        part.append(newline + brackets[1])
        texts.append("".join(part))
        at += count * width
    return texts


def _dict_texts(values: list, newline: str, memo: dict) -> list:
    """The text of each of the dicts ``values``, their values one column."""
    if not set(map(type, chain.from_iterable(values))) <= {str}:
        key = next(key for key in chain.from_iterable(values) if type(key) is not str)
        raise ValueError(f"cannot write {type(key).__name__} key {key!r:.60} as JSON")
    inner = newline + " "
    keys = [sorted(value) for value in values]
    names = list(chain.from_iterable(keys))
    pieces = [None] * (2 * len(names))
    pieces[::2] = [f",{inner}{name}: " for name in map(encode_basestring_ascii, names)]
    pieces[1::2] = _column([value[key] for value, row in zip(values, keys)
                            for key in row], inner, memo)
    return _containers(pieces, map(len, keys), 2, newline, "{}")


def _layout(rows: list, inner: str):
    """The row template and the cells of ``rows`` when they are all dicts
    that share one set of string keys, or all lists of one length; else
    None.  A row's pieces are the template with each cell's text in place
    of its ``None``."""
    row = inner + " "
    first = rows[0]
    kinds = set(map(type, rows))
    if (kinds == {dict} and first
            and all(map(first.keys().__eq__, map(dict.keys, rows)))
            and set(map(type, chain.from_iterable(rows))) == {str}):
        keys = sorted(first)
        heads = [f",{row}{key}: " for key in map(encode_basestring_ascii, keys)]
        heads[0] = f",{inner}{{" + heads[0][1:]
        cells, close = [itemgetter(key) for key in keys], inner + "}"
    elif kinds == {list} and first and len(set(map(len, rows))) == 1:
        heads = ["," + row] * len(first)
        heads[0] = f",{inner}[{row}"
        cells, close = [itemgetter(at) for at in range(len(first))], inner + "]"
    else:
        return None
    template = [None] * (2 * len(heads)) + [close]
    template[:-1:2] = heads
    return template, cells


def _row_pieces(rows: list, layout: tuple, inner: str, memo: dict) -> list:
    """The pieces of ``rows`` laid out by ``layout``, one column per cell."""
    template, cells = layout
    pieces = template * len(rows)
    for at, cell in enumerate(cells):
        pieces[2 * at + 1::len(template)] = _column(list(map(cell, rows)),
                                                    inner + " ", memo)
    return pieces


def _array_text(value: list, newline: str, memo: dict) -> str:
    """A list of records is written a chunk of rows at a time, a column per
    key or position; any other list is one column of its items."""
    inner = newline + " "
    layout = _layout(value, inner)
    if layout is None:
        pieces = ["," + inner, None] * len(value)
        pieces[1::2] = _column(value, inner, memo)
        return _containers(pieces, [len(value)], 2, newline, "[]")[0]
    chunks = []
    for start in range(0, len(value), _CHUNK_ROWS):
        pieces = _row_pieces(value[start:start + _CHUNK_ROWS], layout, inner, memo)
        if start == 0:
            pieces[0] = "[" + pieces[0][1:]
        if start + _CHUNK_ROWS >= len(value):
            pieces.append(newline + "]")
        chunks.append("".join(pieces))
    return "".join(chunks)


def json_text(obj) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=1)``, built faster.

    CPython encodes in pure Python whenever ``indent`` is set.  This writer
    joins strings over plain dicts with string keys, lists, strings, ints,
    finite floats, bools and None, and raises ValueError naming any other
    value or key (a tuple, a subclass, NaN or an infinity, another type).
    It writes a homogeneous array column by column and each distinct short
    list of strings in a column once; every container is one join, so the
    text is built without a further copy.
    """
    return _json_value(obj, "\n", {})


def write_json(path: Path, obj) -> None:
    atomic_write_bytes(path, (json_text(obj) + "\n").encode("utf-8"))


def ensure_out_dir(args) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def write_manifest(args, out_dir: Path, output_paths: list[Path]) -> None:
    """Record the invocation before producing any artifact."""
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "config_path": args.config,
        "started_at": datetime.now(timezone.utc).isoformat(),
        "rng_seed": args.seed,
        "output_paths": [str(p) for p in output_paths],
    }
    write_json(out_dir / "manifest.json", manifest)


def load_config(args) -> dict:
    if not args.config:
        return {}
    data = read_json(args.config, "config file")
    if not isinstance(data, dict):
        raise GraphFormatError("config file must hold a JSON object")
    return data


def setting(args, config: dict, name: str, kind: JsonKind,
            key: str | None = None, default=None):
    """Flag value if given, else a non-null config value, else default.

    A config value not of ``kind`` exits 2 naming its key.
    """
    value = getattr(args, name, None)
    if value is None:
        key = key or name
        value = config.get(key)
        if value is not None:
            value = read_fields(config, {key: kind}, "bad config")[key]
    return default if value is None else value


def open_store(args, config: dict):
    url = setting(args, config, "url", STRING)
    if url:
        return HttpJsonStore(url)
    path = setting(args, config, "store", STRING) or os.environ.get("SPIDERVEIL_STORE")
    if not path:
        raise EmptyInputError(
            "no store given (use --store, config, or SPIDERVEIL_STORE)")
    return FixtureStore.load(path)


# -- subcommands ---------------------------------------------------------------


def format_columns(rows, min_width: int = 0) -> str:
    """Rows of strings as left-justified columns two spaces apart, each as
    wide as its longest cell or ``min_width``; rows end at their last cell."""
    widths = [max(min_width, *map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(map(str.ljust, row, widths)).rstrip() for row in rows)


def cmd_gen(args, config: dict) -> None:
    out_dir = ensure_out_dir(args)
    base = read_json(args.params, "params file") if args.params else {}
    if not isinstance(base, dict):
        raise GraphFormatError("params file must hold a JSON object")
    overrides = {
        "total_bloggers": args.bloggers,
        "relevant_fraction": args.fraction,
        "mixing_prob": args.mixing,
        "intra_community_note_bias": args.bias,
        "rng_seed": args.seed,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    params = GeneratorParams.from_json_dict(base)

    store_path = out_dir / "store.json"
    truth_path = out_dir / "truth.json"
    write_manifest(args, out_dir, [store_path, truth_path])
    store, truth = generate(params)
    write_json(store_path, store)
    write_json(truth_path, truth_to_json_dict(truth))
    relevant = sum(1 for label in truth.values() if label)
    print(f"bloggers: {params.total_bloggers} (relevant {relevant})")
    print(f"posts: {len(store['posts'])}")
    print(f"seed blogger: {store['seed']}")
    print(f"wrote {store_path} and {truth_path}")


def cmd_bootstrap(args, config: dict) -> None:
    out_dir = ensure_out_dir(args)
    store = open_store(args, config)
    tags = setting(args, config, "tag", STRINGS, "tags")
    if not any(map(normalize_tag, tags or ())):
        raise EmptyInputError("no non-empty seed tags given (use --tag)")
    target = setting(args, config, "target", INTEGER, default=100)

    corpus_path = Path(args.out) if args.out else out_dir / "corpus.ndjson"
    lexicon_path = corpus_path.with_name(corpus_path.stem + ".lexicon.json")

    corpus, lexicon = bootstrap_exemplars(store, tags, target)
    if not corpus.documents:
        raise EmptyInputError(f"no documents collected for tags: {', '.join(tags)}")
    write_manifest(args, out_dir, [corpus_path, lexicon_path])
    # Each round adds tags of the next generation only, so the lexicon holds
    # its generations in order.
    rounds: dict[int, list[str]] = {}
    for tag, generation in lexicon.items():
        rounds.setdefault(generation, []).append(tag)
    for generation, round_tags in rounds.items():
        print(f"round {generation}: {len(round_tags)} tags "
              f"({', '.join(round_tags)})")
    print(f"collected {len(corpus.documents)} documents (target {target})")
    corpus.save(corpus_path)
    write_json(lexicon_path, lexicon)
    print(f"wrote {corpus_path} and {lexicon_path}")


def _load_seed_bloggers(path) -> list[str]:
    data = read_json(path, "seed blogger file")
    if not STRINGS.test(data):
        raise GraphFormatError("seed blogger file must hold a JSON list of names")
    if not data:
        raise EmptyInputError(f"seed blogger file {path} names no bloggers")
    seen = set()
    for name in data:
        if name in seen:
            raise GraphFormatError(f"seed blogger file names {name!r} twice")
        seen.add(name)
    return data


def cmd_train(args, config: dict) -> None:
    out_dir = ensure_out_dir(args)
    corpus_path = setting(args, config, "corpus", STRING)
    if not corpus_path:
        raise EmptyInputError("no corpus given (use --corpus)")
    corpus = ExemplarCorpus.load(corpus_path)
    if not corpus.documents:
        raise EmptyInputError(f"corpus {corpus_path} holds no documents")
    # Unset, order and alpha keep train's defaults and posts the crawl's.
    order = setting(args, config, "order", INTEGER)
    posts = setting(args, config, "posts", CONFIG_KINDS["posts_per_blogger"],
                    "posts_per_blogger", default=CrawlConfig.posts_per_blogger)
    alpha = setting(args, config, "alpha", NUMBER)
    options = {key: value for key, value in (("order", order), ("alpha", alpha))
               if value is not None}
    if posts < 1:
        raise ValueError("posts per blogger must be >= 1")

    model_path = Path(args.out) if args.out else out_dir / "model.json"
    outputs = [model_path]
    threshold_path = model_path.with_name(model_path.stem + ".threshold.json")
    seed_names = _load_seed_bloggers(args.seed_bloggers) if args.seed_bloggers else None
    if seed_names:
        outputs.append(threshold_path)

    model = train(corpus.documents, **options)
    if seed_names:
        # Seeds are scored before any file is written, so a seed that cannot
        # be scored leaves no model behind.
        store = open_store(args, config)
        scored = sorted(
            (score_blogger(model, filter_english(
                store.blogger_posts(name, limit=posts))), name)
            for name in seed_names)
    write_manifest(args, out_dir, outputs)
    save_model(model, model_path)
    print(f"trained order-{model.order} model on {len(corpus.documents)} "
          f"documents ({model.trained_chars} characters)")
    print(f"wrote {model_path}")

    if seed_names:
        print("seed blogger scores (ascending):")
        for value, name in scored:
            print(f"  {value:.17g}  {name}")
        low, high = scored[0][0], scored[-1][0]
        inside = sum(1 for value, _ in scored if low <= value <= high)
        print(f"band: min={low:.17g} max={high:.17g} "
              f"within={100.0 * inside / len(scored):.1f}%")
        threshold = compute_threshold([value for value, _ in scored])
        print(f"threshold: {threshold.value:.17g} "
              f"(mean of {threshold.seed_count} scores)")
        write_json(threshold_path, {
            "threshold": threshold.value,
            "seed_count": threshold.seed_count,
            "scores": {name: value for value, name in scored},
        })
        print(f"wrote {threshold_path}")


def cmd_crawl(args, config: dict) -> None:
    out_dir = ensure_out_dir(args)
    store = open_store(args, config)
    model_path = setting(args, config, "model", STRING)
    if not model_path:
        raise EmptyInputError("no model given (use --model)")
    try:
        model = load_model(model_path)
    except ValueError as exc:
        raise GraphFormatError(f"bad model file: {exc}") from exc

    threshold = setting(args, config, "threshold", CONFIG_KINDS["threshold"])
    if threshold is None and args.threshold_file:
        data = read_json(args.threshold_file, "threshold file")
        if not isinstance(data, dict):
            raise GraphFormatError("threshold file must hold a JSON object")
        if data.get("threshold") is not None:
            threshold = read_fields(data, {"threshold": CONFIG_KINDS["threshold"]},
                                    "bad threshold file")["threshold"]
    if threshold is None:
        raise EmptyInputError(
            "no threshold given (use --threshold or --threshold-file)")

    seed_blogger = setting(args, config, "seed_blogger", STRING)
    if seed_blogger is None and isinstance(store, FixtureStore):
        seed_blogger = store.seed_blogger
    if seed_blogger in (None, ""):
        raise EmptyInputError("no seed blogger given (use --seed-blogger)")

    values = {"seed": seed_blogger, "threshold": threshold,
              "ngram_order": model.order}
    for name, key in (("graph_size", "graph_size_limit"), ("width", "frontier_width"),
                      ("posts", "posts_per_blogger"), ("policy", "selection_policy"),
                      ("seed", "rng_seed")):
        value = setting(args, config, name, CONFIG_KINDS[key], key)
        if value is not None:
            values[key] = value
    crawl_config = CrawlConfig.from_json_dict(values)

    crawl_path = out_dir / "crawl.json"
    graph_paths = {fmt: out_dir / f"graph.{ext}"
                   for fmt, ext in (("json", "json"), ("graphml", "graphml"),
                                    ("dot", "dot"))}
    session = CrawlSession(store, model, crawl_config)
    result = session.run()
    write_manifest(args, out_dir, [crawl_path, *graph_paths.values()])
    write_json(crawl_path, session.checkpoint())
    for fmt, path in graph_paths.items():
        atomic_write_bytes(path, export_graph(result.graph, fmt))

    processed = {record.blog_name for record in result.visit_log} | set(result.discarded)
    print(f"stop reason: {result.stop_reason.value}")
    print(f"processed: {len(processed)} bloggers")
    print(f"graph: {result.graph.node_count()} nodes, "
          f"{result.graph.edge_count()} edges")
    print(f"discarded: {len(result.discarded)}")
    print(f"wrote {crawl_path} and graph files")


def cmd_analyze(args, config: dict) -> None:
    graph = import_json_edge_list(Path(args.graph).read_bytes())
    if args.label:
        graph = graph.project(NoteKind(args.label))
    try:
        measurements = measure(graph)
    except ValueError as exc:
        raise EmptyInputError(str(exc)) from exc
    print(format_columns([
        ("nodes", str(measurements.node_count)),
        ("edges", str(measurements.edge_count)),
        ("diameter", str(measurements.diameter)),
        ("strongly connected components", str(measurements.scc_count)),
        ("average clustering", f"{measurements.avg_clustering:.4f}"),
        ("modularity", f"{measurements.modularity:.4f}"),
        ("mean in-betweenness", f"{measurements.mean_in_betweenness:.4f}"),
        ("mean in-closeness", f"{measurements.mean_in_closeness:.4f}"),
    ]))
    if args.out:
        out_dir = ensure_out_dir(args)
        out_path = Path(args.out)
        write_manifest(args, out_dir, [out_path])
        write_json(out_path, measurements.to_json_dict())
        print(f"wrote {out_path}")


def cmd_export(args, config: dict) -> None:
    graph = import_json_edge_list(Path(args.graph).read_bytes())
    out_dir = ensure_out_dir(args)
    out_path = Path(args.out) if args.out else out_dir / f"graph.{args.format}"
    write_manifest(args, out_dir, [out_path])
    atomic_write_bytes(out_path, export_graph(graph, args.format))
    print(f"wrote {out_path}")


def cmd_eval(args, config: dict) -> None:
    if args.matrix:
        parts = args.matrix.split(",")
        if len(parts) != 4:
            raise ValueError("--matrix expects tp,fn,fp,tn")
        try:
            tp, fn, fp, tn = (int(p) for p in parts)
            matrix = ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)
            report = report_from_matrix(matrix)
        except ValueError as exc:
            raise ValueError(f"bad confusion matrix: {exc}") from exc
    else:
        if not args.result or not args.truth:
            raise EmptyInputError("eval needs --matrix or both --result and --truth")
        result = read_json(args.result, "result file")
        if not (isinstance(result, dict) and "visit_log" in result
                and "discarded" in result):
            raise GraphFormatError("result file lacks visit_log/discarded fields")
        predicted = predicted_verdicts(*visit_log_from_json(result))
        try:
            truth = truth_from_json_dict(read_json(args.truth, "truth file"))
        except ValueError as exc:
            raise GraphFormatError(f"bad truth file: {exc}") from exc
        try:
            matrix, report = evaluate(predicted, truth)
        except ValueError as exc:
            raise EmptyInputError(str(exc)) from exc

    print("confusion matrix")
    print(format_columns([
        ("", "actual relevant", "actual unknown"),
        ("predicted relevant", str(matrix.tp), str(matrix.fp)),
        ("predicted unknown", str(matrix.fn), str(matrix.tn)),
    ]))
    print()
    print("accuracy results")
    metrics = (report.precision, report.recall, report.f_score, report.accuracy)
    print(format_columns([
        ("", "precision", "recall", "f-score", "accuracy"),
        ("exact", *(f"{value:.4f}" for value in metrics)),
        ("truncated", *map(truncate2, metrics)),
    ], min_width=9))
    if args.out:
        out_dir = ensure_out_dir(args)
        out_path = Path(args.out)
        write_manifest(args, out_dir, [out_path])
        write_json(out_path, {"confusion_matrix": matrix.to_json_dict(),
                              "report": report.to_json_dict()})
        print(f"wrote {out_path}")


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiderveil",
        description="Topical crawler over microblog like/reblog networks.")
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed for reproducible runs")
    parser.add_argument("--out-dir", default=".",
                        help="directory for output artifacts")
    parser.add_argument("--verbose", action="store_true",
                        help="debug logging on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic network fixture")
    p.add_argument("--params", help="JSON file of generator parameters")
    p.add_argument("--bloggers", type=int, help="total blogger count")
    p.add_argument("--fraction", type=float, help="relevant fraction")
    p.add_argument("--mixing", type=float, help="off-topic mixing probability")
    p.add_argument("--bias", type=float, help="intra-community note bias")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bootstrap", help="collect an exemplar corpus by tags")
    p.add_argument("--store", help="fixture store path")
    p.add_argument("--url", help="HTTP store base URL")
    p.add_argument("--tag", action="append", help="seed tag (repeatable)")
    p.add_argument("--target", type=int, help="document count to stop at")
    p.add_argument("--out", help="corpus output path (NDJSON)")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("train", help="train the n-gram relevance model")
    p.add_argument("--corpus", help="exemplar corpus (NDJSON)")
    p.add_argument("--order", type=int, help="n-gram order")
    p.add_argument("--alpha", type=float, help="additive smoothing")
    p.add_argument("--seed-bloggers", help="JSON list of seed blogger names")
    p.add_argument("--store", help="fixture store path (for seed scoring)")
    p.add_argument("--url", help="HTTP store base URL (for seed scoring)")
    p.add_argument("--posts", type=int,
                   help="posts per blogger when scoring seeds")
    p.add_argument("--out", help="model output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("crawl", help="run the focused crawl")
    p.add_argument("--store", help="fixture store path")
    p.add_argument("--url", help="HTTP store base URL")
    p.add_argument("--model", help="trained model path")
    p.add_argument("--threshold", type=float, help="relevance threshold")
    p.add_argument("--threshold-file", help="JSON file holding {threshold: x}")
    p.add_argument("--seed-blogger", help="blogger to start from")
    p.add_argument("--graph-size", type=int, dest="graph_size",
                   help="stop once the graph reaches this many nodes")
    p.add_argument("--width", type=int, help="noters taken per relation per post")
    p.add_argument("--posts", type=int, help="posts fetched per blogger")
    p.add_argument("--policy",
                   choices=[policy.value for policy in SelectionPolicy],
                   help="frontier selection policy")
    p.set_defaults(func=cmd_crawl)

    p = sub.add_parser("analyze", help="measure a graph file")
    p.add_argument("graph", help="JSON edge-list file")
    p.add_argument("--label", choices=[k.value for k in NoteKind],
                   help="measure only this relation's projection")
    p.add_argument("--out", help="write measurements JSON here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export", help="convert a graph file")
    p.add_argument("graph", help="JSON edge-list file")
    p.add_argument("--format", required=True,
                   choices=["json", "graphml", "dot"], help="output format")
    p.add_argument("--out", help="output path")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--matrix", help="direct confusion counts: tp,fn,fp,tn")
    p.add_argument("--result", help="crawl result or checkpoint JSON")
    p.add_argument("--truth", help="ground-truth label map JSON")
    p.add_argument("--out", help="write report JSON here")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The parser holds reference cycles; it is garbage before the command
    # runs, so that a store load collects it instead of freezing it.
    args = build_parser().parse_args(argv)
    args.argv = argv
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        args.func(args, load_config(args))
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items()
                    if isinstance(exc, kind))
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
