"""One-class character n-gram relevance model.

A single model is trained on on-topic exemplar documents.  A text is scored
by the mean log10 probability per character under additive smoothing; a
blogger whose posts score strictly above a threshold (the mean score of a
set of trusted seed bloggers) is judged relevant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (COUNT, INTEGER, NUMBER, STRINGS, ScoringError,
                     atomic_write_bytes, read_json)

SENTINEL = "\x02"   # start-of-document padding character
UNKNOWN = "\x01"    # bucket every character unseen in training maps to

MODEL_FORMAT = "spiderveil.ngram"
MODEL_VERSION = 1


class Verdict(Enum):
    RELEVANT = "relevant"
    UNKNOWN = "unknown"


_VERDICT_OF = {verdict.value: verdict for verdict in Verdict}


def verdict_of(value) -> Verdict:
    """``Verdict(value)`` by one dict lookup instead of the Enum call's; a
    value that names no verdict raises the Enum call's ValueError."""
    try:
        return _VERDICT_OF[value]
    except (KeyError, TypeError):
        return Verdict(value)


@dataclass(frozen=True)
class Threshold:
    """Classification cut: mean of the seed bloggers' scores."""
    value: float
    seed_count: int

    def __post_init__(self):
        if self.seed_count < 1:
            raise ValueError("threshold needs at least one seed score")
        if not math.isfinite(self.value):
            raise ValueError("threshold value must be finite")


def _order_and_alpha(order, alpha) -> tuple[int, float]:
    """``order`` as an int and ``alpha`` as a float.  ValueError names the
    first that is not of its JSON kind, then an order below 1 or an alpha
    that is not positive and finite."""
    for name, value, kind in (("order", order, INTEGER), ("alpha", alpha, NUMBER)):
        if not kind.test(value):
            raise ValueError(f"{name} must be {kind.phrase}")
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    return INTEGER.convert(order), NUMBER.convert(alpha)


class NGramModel:
    """Character n-gram counts with additive smoothing.

    ``counts`` maps a context string of length order-1 to per-character
    counts.  The vocabulary is every character observed in training plus the
    start sentinel; one extra smoothing slot is reserved for the unknown
    bucket, so each conditional is

        (count + alpha) / (context_total + alpha * (|vocabulary| + 1))
    """

    def __init__(self, order: int, alpha: float,
                 counts: dict[str, dict[str, int]],
                 vocabulary: frozenset[str], trained_chars: int):
        self.order, self.alpha = _order_and_alpha(order, alpha)
        self.counts = counts
        self.vocabulary = vocabulary
        self.trained_chars = trained_chars
        self._totals = {ctx: sum(row.values()) for ctx, row in counts.items()}
        self._table = _LogTable(self)

    def probability(self, context: str, char: str) -> float:
        """Smoothed P(char | context); both already mapped to the vocabulary."""
        row = self.counts.get(context)
        total = self._totals.get(context, 0)
        count = row.get(char, 0) if row else 0
        denom = total + self.alpha * (len(self.vocabulary) + 1)
        return (count + self.alpha) / denom

    def __eq__(self, other) -> bool:
        if not isinstance(other, NGramModel):
            return NotImplemented
        return (self.order == other.order and self.alpha == other.alpha
                and self.counts == other.counts
                and self.vocabulary == other.vocabulary
                and self.trained_chars == other.trained_chars)

    def to_json_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "order": self.order,
            "alpha": self.alpha,
            "vocabulary": sorted(self.vocabulary),
            "trained_chars": self.trained_chars,
            "contexts": {ctx: dict(sorted(row.items()))
                         for ctx, row in sorted(self.counts.items())},
        }

    @classmethod
    def from_json_dict(cls, data) -> "NGramModel":
        """Rebuild a model; ValueError names the first malformed part."""
        if not isinstance(data, dict):
            raise ValueError("model document is not a JSON object")
        if data.get("format") != MODEL_FORMAT:
            raise ValueError(f"not a {MODEL_FORMAT} document")
        if data.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {data.get('version')!r}")
        missing = [key for key in ("order", "alpha", "vocabulary",
                                   "trained_chars", "contexts") if key not in data]
        if missing:
            raise ValueError(f"model document lacks {', '.join(map(repr, missing))}")
        order, alpha = data["order"], data["alpha"]
        vocabulary, contexts = data["vocabulary"], data["contexts"]
        if not COUNT.test(order):
            raise ValueError("'order' is not an integer")
        if not (NUMBER.test(alpha) and math.isfinite(alpha)):
            raise ValueError("'alpha' is not a finite number")
        if not STRINGS.test(vocabulary):
            raise ValueError("'vocabulary' is not an array of strings")
        if not COUNT.test(data["trained_chars"]):
            raise ValueError("'trained_chars' is not a non-negative integer")
        if not (isinstance(contexts, dict)
                and all(isinstance(row, dict) and all(map(COUNT.test, row.values()))
                        for row in contexts.values())):
            raise ValueError("'contexts' does not map each context to an object "
                             "of non-negative integer counts")
        return cls(order=order, alpha=float(alpha),
                   counts={ctx: dict(row) for ctx, row in contexts.items()},
                   vocabulary=frozenset(vocabulary),
                   trained_chars=data["trained_chars"])


class _LogTable:
    """log10 of every smoothed conditional a text can look up.

    Every single character of the vocabulary, plus UNKNOWN and the SENTINEL
    padding, gets an integer code in code-point order; one array indexed by
    code point maps a text's characters to codes.  A trie of dense child
    arrays, one per context position, maps the codes of a context to its row
    of ``leaf``; node 0 stands for every unseen prefix and maps to itself.
    Each cell holds exactly ``math.log10(model.probability(context, char))``,
    so a sum over the table equals the per-character definition bit for bit.
    Contexts and characters no text can reach (only a hand-edited model has
    them) get no cell.  Memory is O(contexts x symbols).
    """

    def __init__(self, model: NGramModel):
        chars = sorted(ch for ch in model.vocabulary if len(ch) == 1)
        symbols = sorted(set(chars) | {UNKNOWN, SENTINEL})
        code = {ch: i for i, ch in enumerate(symbols)}
        self.width = width = len(symbols)
        # The code of every code point up to the vocabulary's largest, then
        # one UNKNOWN slot that take(mode="clip") sends every larger point to.
        self.lookup = np.full(ord(chars[-1]) + 2 if chars else 1, code[UNKNOWN],
                              np.intp)
        self.lookup[[ord(ch) for ch in chars]] = [code[ch] for ch in chars]
        self.padding = np.full(model.order - 1, code[SENTINEL], np.intp)

        contexts = sorted(ctx for ctx in model.counts
                          if len(ctx) == model.order - 1
                          and all(ch in code for ch in ctx))
        self.levels = []
        nodes = {"": 1}
        for depth in range(1, model.order):
            child = np.zeros((len(nodes) + 1, width), np.int32)
            deeper: dict[str, int] = {}
            for ctx in contexts:
                prefix = ctx[:depth]
                if prefix not in deeper:
                    deeper[prefix] = len(deeper) + 1
                    child[nodes[prefix[:-1]], code[prefix[-1]]] = deeper[prefix]
            self.levels.append(child.ravel())
            nodes = deeper

        smoothing = model.alpha * (len(model.vocabulary) + 1)
        leaf = np.empty((len(nodes) + 1, width))
        leaf[0] = math.log10(model.alpha / smoothing)
        for ctx, node in nodes.items():
            denom = model._totals.get(ctx, 0) + smoothing
            leaf[node] = math.log10(model.alpha / denom)
            for ch, count in model.counts.get(ctx, {}).items():
                if ch in code:
                    leaf[node, code[ch]] = math.log10((count + model.alpha) / denom)
        self.leaf = leaf.ravel()

    def mean_log10(self, text: str) -> float:
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        codes = self.lookup.take(points, mode="clip")
        padded = np.concatenate((self.padding, codes))
        n = len(points)
        node = 1
        for depth, child in enumerate(self.levels):
            node = child[node * self.width + padded[depth:depth + n]]
        values = self.leaf[node * self.width + codes]
        # A running sum, left to right like the per-character loop; np.sum
        # (pairwise) or math.fsum would change the last bits.
        return float(np.cumsum(values)[-1]) / n


def train(documents, order: int = 3, alpha: float = 1.0) -> NGramModel:
    """Count every order-length window of every document string.

    Documents are padded with order-1 start sentinels, so each character is
    the target of exactly one window.
    """
    order, alpha = _order_and_alpha(order, alpha)
    documents = [doc for doc in documents if doc]
    if not documents:
        raise ValueError("corpus has no non-empty documents")
    counts, trained_chars = _count_windows(documents, order)
    return NGramModel(order=order, alpha=alpha, counts=counts,
                      vocabulary=frozenset({SENTINEL}.union(*counts.values())),
                      trained_chars=trained_chars)


_CHAR_BITS = 21   # every code point is below 2**21
_KEY_BITS = 63    # the bits of a non-negative int64


def _count_windows(documents: list[str], order: int):
    """(counts, trained_chars) of the non-empty ``documents``.

    The documents are joined, each after its own order-1 sentinels, and
    each window that ends on a document character is packed into an int64
    key, _CHAR_BITS per character.  Before a character that would overflow
    the key, the partial keys are replaced by their ranks, which keeps
    distinct windows distinct.  One sort then counts the keys, and one
    window per distinct key is sliced back into a string, so contexts and
    rows enter ``counts`` in code-point order, as ``load_model`` gives them.
    """
    padding = SENTINEL * (order - 1)
    text = padding.join(["", *documents])
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    lengths = np.fromiter(map(len, documents), np.int64, len(documents))
    # Document d's characters sit after d+1 paddings.
    ends = np.arange(int(lengths.sum())) + (order - 1) * np.repeat(
        np.arange(1, len(documents) + 1), lengths)
    key = np.zeros(len(ends), np.int64)
    used = 0
    for back in range(order - 1, -1, -1):
        if used + _CHAR_BITS > _KEY_BITS:
            distinct, key = np.unique(key, return_inverse=True)
            used = (len(distinct) - 1).bit_length()
        key = (key << _CHAR_BITS) | points[ends - back]
        used += _CHAR_BITS
    # Any window of a run of equal keys stands for the key, so an unstable
    # argsort does; np.unique(..., return_index=True) would sort stably.
    by_key = np.argsort(key)
    key = key[by_key]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    tallies = np.diff(starts, append=len(key))
    counts: dict[str, dict[str, int]] = {}
    for end, count in zip(ends[by_key[starts]].tolist(), tallies.tolist()):
        counts.setdefault(text[end - order + 1:end], {})[text[end]] = count
    return counts, len(ends)


def score_text(model: NGramModel, text: str) -> float:
    """Mean log10 probability per character of ``text`` under ``model``;
    always negative for real text.

    The text is expected to be normalized already; characters outside the
    model vocabulary fall into the unknown bucket.  Each character costs a few
    lookups in the model's log10 table; the result is bit-identical to summing
    ``math.log10(model.probability(context, char))`` left to right.
    """
    if not text:
        raise ScoringError("cannot score empty text")
    return model._table.mean_log10(text)


def score_blogger(model: NGramModel, kept) -> float:
    """Score a blogger's whole output as one text.

    ``kept`` holds (post, normalized text) pairs as ``filter_english``
    returns them.  Equals score_text of the non-empty texts joined by
    newlines; character weighting therefore favors longer posts.
    """
    texts = [text for _, text in kept if text]
    if not texts:
        raise ScoringError("blogger has no scoreable text")
    return score_text(model, "\n".join(texts))


def compute_threshold(scores) -> Threshold:
    """Arithmetic mean of seed blogger scores, an iterable of floats."""
    scores = list(scores)
    if not scores:
        raise ValueError("no seed scores given")
    return Threshold(value=math.fsum(scores) / len(scores),
                     seed_count=len(scores))


def classify(score: float, threshold: float) -> Verdict:
    """Relevant only when strictly above the threshold."""
    return Verdict.RELEVANT if score > threshold else Verdict.UNKNOWN


def save_model(model: NGramModel, path) -> None:
    atomic_write_bytes(path, json.dumps(model.to_json_dict(), sort_keys=True,
                                        ensure_ascii=True).encode("utf-8"))


def load_model(path) -> NGramModel:
    return NGramModel.from_json_dict(read_json(path, "model file"))
