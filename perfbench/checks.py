"""Output digests of one pipeline pass and their comparison with expectations.

A digest is what a stage produced, reduced to what must repeat: file hashes
for the generator, corpus and model; the visit order, verdicts, discarded
set, stop reason and graph structure of the crawl (exact), its scores (within
1e-12); the measurements (integers exact, floats within 1e-9); the confusion
matrix and report of ``eval`` (exact).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

SCORE_TOLERANCE = 1e-12
MEASURE_TOLERANCE = 1e-9


def sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def sha256_json(obj) -> str:
    return sha256_bytes(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def gen_digest(out: Path) -> dict:
    return {"store_sha256": sha256_bytes((out / "store.json").read_bytes()),
            "truth_sha256": sha256_bytes((out / "truth.json").read_bytes())}


def bootstrap_digest(out: Path) -> dict:
    return {"corpus_sha256": sha256_bytes((out / "corpus.ndjson").read_bytes())}


def train_digest(out: Path) -> dict:
    threshold = json.loads((out / "model.threshold.json").read_text())
    return {"model_sha256": sha256_bytes((out / "model.json").read_bytes()),
            "threshold": threshold["threshold"]}


def graph_structure(graph: dict) -> dict:
    """Nodes with verdicts and labelled edges, in insertion order; no scores."""
    return {"nodes": [[node["id"], node["verdict"]] for node in graph["nodes"]],
            "edges": [[e["src"], e["dst"], e["labels"]] for e in graph["edges"]]}


def crawl_digest(out: Path) -> dict:
    raw = (out / "crawl.json").read_bytes()
    doc = json.loads(raw)
    structure = graph_structure(doc["graph"])
    exported = json.loads((out / "graph.json").read_bytes())
    return {
        "visit_log": doc["visit_log"],
        "discarded_sha256": sha256_json(sorted(doc["discarded"])),
        "stop_reason": doc["stop_reason"],
        "graph_sha256": sha256_json(structure),
        "exported_graph_sha256": sha256_json(graph_structure(exported)),
        "state_sha256": sha256_json({key: doc[key] for key in (
            "processed", "frontier", "pending", "selections", "current")}),
        "checkpoint_sha256": sha256_bytes(raw),
        "nodes": len(structure["nodes"]),
        "edges": len(structure["edges"]),
        "processed": len(doc["processed"]),
        "graphml_elements": _count(out / "graph.graphml", (b"<node ", b"<edge ")),
        "dot_lines": _count(out / "graph.dot", (b";\n",)),
    }


def _count(path: Path, needles) -> list[int]:
    payload = path.read_bytes()
    return [payload.count(needle) for needle in needles]


def analyze_digest(out: Path) -> dict:
    return {"measurements": json.loads((out / "measure.json").read_text())}


def eval_digest(out: Path) -> dict:
    data = json.loads((out / "eval.json").read_text())
    return {"confusion_matrix": data["confusion_matrix"], "report": data["report"]}


DIGESTS = {"gen": gen_digest, "bootstrap": bootstrap_digest,
           "train": train_digest, "crawl": crawl_digest,
           "analyze": analyze_digest, "eval": eval_digest}


def f_score(confusion: dict) -> float:
    tp, fp, fn = confusion["tp"], confusion["fp"], confusion["fn"]
    return 2 * tp / (2 * tp + fp + fn)


# -- comparison ----------------------------------------------------------------


def _close(a, b, tolerance: float) -> bool:
    return (isinstance(a, float) and isinstance(b, float)
            and math.isfinite(a) and abs(a - b) <= tolerance)


def compare(stage: str, expected: dict, actual: dict,
            exact_checkpoint: bool) -> list[str]:
    """Mismatches of one stage's digest against its expectation."""
    problems = []
    for key, want in expected.items():
        have = actual.get(key)
        if key == "checkpoint_sha256" and not exact_checkpoint:
            continue
        if key == "threshold":
            ok = _close(have, want, SCORE_TOLERANCE)
        elif key == "visit_log":
            ok = _visits_match(have, want)
        elif key == "measurements":
            ok = _measurements_match(have, want)
        else:
            ok = have == want
        if not ok:
            problems.append(f"{stage}: {key} differs from the expected result")
    return problems


def _visits_match(have, want) -> bool:
    if not isinstance(have, list) or len(have) != len(want):
        return False
    return all(h[0] == w[0] and h[2] == w[2] and _close(h[1], w[1], SCORE_TOLERANCE)
               for h, w in zip(have, want))


def _measurements_match(have, want) -> bool:
    if not isinstance(have, dict) or have.keys() != want.keys():
        return False
    for key, value in want.items():
        if isinstance(value, float):
            if not _close(have[key], value, MEASURE_TOLERANCE):
                return False
        elif have[key] != value:
            return False
    return True
