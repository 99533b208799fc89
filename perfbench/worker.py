"""One pass of a benchmark workload, in a fresh process.

Runs the stages of the user's path in-process through
``spiderveil.cli.main`` (the checkpointed crawl of a workload with
``checkpoint_every`` goes through the public ``CrawlSession`` API instead),
times each stage, checks its outputs against the recorded expectation, and
writes a JSON result.  Each stage runs and is timed once, as a user's
invocation would be, while ``HostSpeed`` samples the host's speed.  With
``--trace`` it wraps the package's public functions first, does not sample,
and adds per-layer metrics.

    python3 perfbench/worker.py --spec '<json>' --out-dir DIR --result FILE \
        [--trace SPANS.json] [--record]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import spiderveil  # noqa: E402
from spiderveil import cli, crawler, langmodel, simnet, socialgraph  # noqa: E402
from spiderveil.errors import SpiderveilError  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import STAGES  # noqa: E402

SAMPLE_EVERY_S = 0.1
NEAR_S = 0.5
# The reference work's input: a fixed 2500-character text and a dict of the
# 3-character slices at its even offsets, under 0.2 MB, so that it adds
# nothing measurable to ``peak_rss_mb``.
REFERENCE_TEXT = "".join(random.Random(5).choice("abcdefghij klmnop")
                         for _ in range(2500))
REFERENCE_SLICES = {REFERENCE_TEXT[i:i + 3]: i
                    for i in range(0, len(REFERENCE_TEXT) - 3, 2)}


class Pass:
    """Files and stage arguments of one pass in ``out``."""

    def __init__(self, spec: dict, out: Path):
        self.spec = spec
        self.out = out
        self.store = out / "store.json"
        self.truth = out / "truth.json"
        self.segment_bytes = 0

    def argv(self, stage: str) -> list[str]:
        out, spec = self.out, self.spec
        base = ["--out-dir", str(out)]
        if stage == "gen":
            return base + ["--seed", str(spec["gen_seed"]), "gen",
                           "--params", str(out / "params.json")]
        if stage == "bootstrap":
            return base + ["bootstrap", "--store", str(self.store),
                           "--tag", spec["bootstrap"]["tag"],
                           "--target", str(spec["bootstrap"]["target"])]
        if stage == "train":
            return base + ["train", "--corpus", str(out / "corpus.ndjson"),
                           "--seed-bloggers", str(out / "seeds.json"),
                           "--store", str(self.store)]
        if stage == "crawl":
            return base + ["crawl", "--store", str(self.store),
                           "--model", str(out / "model.json"),
                           "--threshold-file", str(out / "model.threshold.json"),
                           "--policy", spec["crawl"]["policy"],
                           "--graph-size", str(spec["crawl"]["graph_size"])]
        if stage == "analyze":
            return base + ["analyze", str(out / "graph.json"),
                           "--out", str(out / "measure.json")]
        return base + ["eval", "--result", str(out / "crawl.json"),
                       "--truth", str(self.truth), "--out", str(out / "eval.json")]

    def prepare(self, stage: str) -> None:
        """Inputs the benchmark itself supplies; written outside the timing."""
        if stage == "gen":
            generator = {k: v for k, v in self.spec["generator"].items()
                         if k != "rng_seed"}
            (self.out / "params.json").write_text(json.dumps(generator))
        elif stage == "train":
            truth = json.loads(self.truth.read_text())
            seeds = [name for name, label in sorted(truth.items())
                     if label == "relevant"][:self.spec["train"]["seed_bloggers"]]
            (self.out / "seeds.json").write_text(json.dumps(seeds))


def crawl_in_segments(run: Pass) -> int:
    """The crawl stage as checkpointed segments of the public session API.

    Mirrors ``spiderveil crawl``: same store, model, threshold and config
    defaults, same crawl.json and graph files.
    """
    out, every = run.out, run.spec["crawl"]["checkpoint_every"]
    store = crawler.FixtureStore.load(run.store)
    model = langmodel.load_model(out / "model.json")
    threshold = json.loads((out / "model.threshold.json").read_text())["threshold"]
    config = crawler.CrawlConfig(
        seed=store.seed_blogger, threshold=float(threshold),
        graph_size_limit=run.spec["crawl"]["graph_size"], ngram_order=model.order,
        selection_policy=crawler.SelectionPolicy(run.spec["crawl"]["policy"]))
    session = crawler.CrawlSession(store, model, config)
    segment = out / "segment.json"
    while (result := session.run(every)) is None:
        cli.write_json(segment, session.checkpoint())
        run.segment_bytes += segment.stat().st_size
        session = crawler.CrawlSession.resume(store, model,
                                              json.loads(segment.read_text()))
    cli.write_json(out / "crawl.json", session.checkpoint())
    for fmt, ext in (("json", "json"), ("graphml", "graphml"), ("dot", "dot")):
        cli.atomic_write_bytes(out / f"graph.{ext}",
                               socialgraph.export_graph(result.graph, fmt))
    return 0


def checkpoint_round_trip(out: Path) -> list[str]:
    """crawl.json must resume to a session whose checkpoint is the same."""
    document = json.loads((out / "crawl.json").read_bytes())
    session = crawler.CrawlSession.resume(None, None, document)
    if session.checkpoint() != document:
        return ["crawl: crawl.json does not survive a resume round trip"]
    return []


def invoke(run: Pass, stage: str, segmented: bool) -> tuple[float, float, str | None]:
    """Run one stage; returns (start, end, error or None)."""
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            if stage == "crawl" and segmented:
                code = crawl_in_segments(run)
            else:
                code = cli.main(run.argv(stage))
    except Exception:
        return start, time.perf_counter(), traceback.format_exc(limit=3)
    end = time.perf_counter()
    if code != 0:
        return start, end, f"exit code {code}: {buffer.getvalue()[-500:]}"
    return start, end, None


class HostSpeed:
    """Samples the host's speed all through a pass.

    On a shared host the speed of the whole machine drifts by a fifth or more
    within seconds and over minutes, every stage with it.  Every
    ``SAMPLE_EVERY_S`` a timer signal times a fixed piece of reference work on
    the main thread, between two bytecodes of whatever runs; a stage's time is
    then scaled by the reference times taken during it.  The reference work
    slices a fixed text into 3-character strings and looks each up in a dict:
    of the pieces of work tried (an arithmetic loop; building, probing and
    sorting a dict of strings; strided reads of a 4 MB buffer), its time
    tracked the stage times of both listed workloads most closely.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each sample

    @staticmethod
    def reference_work() -> int:
        total = 0
        get = REFERENCE_SLICES.get
        for i in range(len(REFERENCE_TEXT) - 3):
            total += get(REFERENCE_TEXT[i:i + 3], 0)
        return total

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.reference_work()
        self.samples.append((start, time.perf_counter()))

    def start(self) -> None:
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def stage(self, start: float, end: float) -> tuple[float, float]:
        """(seconds of sampling inside [start, end], mean reference time near it).

        A stage shorter than a few samples uses those within ``NEAR_S`` of
        its ends as well, and one with none that near the closest sample.
        """
        busy = sum(b - a for a, b in self.samples if start <= a and b <= end)
        near = [b - a for a, b in self.samples
                if start - NEAR_S <= a and b <= end + NEAR_S]
        if not near:
            a, b = min(self.samples, key=lambda sample: abs(sample[0] - start))
            near = [b - a]
        return busy, statistics.fmean(near)


def blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded will use, if it can be asked."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def run_pass(spec: dict, out: Path, tracer: Tracer | None, speed: HostSpeed | None,
             expected: dict | None, segmented: bool) -> dict:
    run = Pass(spec, out)
    result = {"stages": {}, "digests": {}, "problems": []}
    crawl_counts = {}
    intervals = {}
    for stage in STAGES:
        run.prepare(stage)
        if tracer is not None:
            before = (tracer.counts["corpus.normalize_calls"],
                      tracer.counts["corpus.posts_in"])
            index = tracer.begin(f"cli.{stage}")
        start, end, error = invoke(run, stage, segmented)
        if tracer is not None:
            tracer.end(index)
            if stage == "crawl":
                crawl_counts = {
                    "crawl_normalize_calls":
                        tracer.counts["corpus.normalize_calls"] - before[0],
                    "crawl_posts_fetched": tracer.counts["corpus.posts_in"] - before[1]}
        problems = [f"{stage}: {error}"] if error else []
        if not problems:
            try:
                digest = checks.DIGESTS[stage](out)
                if stage == "crawl":
                    problems += checkpoint_round_trip(out)
                if expected is not None:
                    problems += checks.compare(stage, expected[stage], digest,
                                               exact_checkpoint=segmented)
            except (OSError, ValueError, KeyError, TypeError,
                    SpiderveilError) as exc:
                problems.append(f"{stage}: unreadable output ({exc!r})")
            else:
                result["digests"][stage] = digest
        result["stages"][stage] = {"seconds": end - start, "ok": not problems}
        intervals[stage] = (start, end)
        result["problems"] += problems
        if error:
            break
    if speed is not None:
        # After the last stage, so that samples taken just after a short stage
        # count for it too.
        for stage, (start, end) in intervals.items():
            busy, reference = speed.stage(start, end)
            result["stages"][stage].update(seconds=end - start - busy,
                                           reference_s=reference)

    if "crawl" in result["digests"] and "eval" in result["digests"]:
        crawl = result["digests"]["crawl"]
        result["processed"] = crawl["processed"]
        result["f_score"] = checks.f_score(result["digests"]["eval"]["confusion_matrix"])
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, {
                "stage_s": {s: v["seconds"] for s, v in result["stages"].items()},
                "checkpoint_bytes": run.segment_bytes
                                    + (out / "crawl.json").stat().st_size,
                "admitted": crawl["nodes"], "processed": crawl["processed"],
                "store_bytes": run.store.stat().st_size,
                "bytes_written": sum(p.stat().st_size for p in out.iterdir()
                                     if p.name not in ("params.json", "seeds.json")),
                **crawl_counts})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["parameters"] = {"generator": dataclasses.asdict(
        simnet.GeneratorParams.from_json_dict(spec["generator"]))}
    if "train" in result["digests"]:
        model = json.loads((out / "model.json").read_text())
        result["parameters"]["train"] = {
            "order": model["order"], "alpha": model["alpha"],
            "seed_bloggers": spec["train"]["seed_bloggers"]}
    if "crawl" in result["digests"]:
        result["parameters"]["crawl"] = json.loads(
            (out / "crawl.json").read_text())["config"]
    result["blas_threads"] = blas_threads()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload spec as JSON")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", help="trace the pass; write spans here")
    parser.add_argument("--record", action="store_true",
                        help="run uninterrupted and skip the expectation check")
    args = parser.parse_args(argv)

    spec = json.loads(args.spec)
    out = Path(args.out_dir)
    segmented = "checkpoint_every" in spec["crawl"] and not args.record
    expected = None
    if not args.record:
        path = BENCH / "expected" / f"{spec['workload']}.{spec['scale']}.{spec['gen_seed']}.json"
        expected = json.loads(path.read_text())
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(spiderveil)
    # A traced pass reports unscaled span times; sampling would add to them.
    speed = None if tracer is not None else HostSpeed()
    if speed is not None:
        speed.start()
    try:
        result = run_pass(spec, out, tracer, speed, expected, segmented)
    finally:
        if speed is not None:
            speed.stop()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(Path(args.trace))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
