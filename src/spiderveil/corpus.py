"""Post ingestion: normalization, language filtering, exemplar bootstrapping.

The exemplar corpus is grown from a handful of seed tags: every round fetches
the posts carrying the newest tags, keeps their English text, and widens the
tag lexicon with tags that co-occur on those posts.  The resulting documents
feed the one-class character model in :mod:`spiderveil.langmodel`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import GraphFormatError, atomic_write_bytes

_MARKUP_RE = re.compile(r"<[^>]*>")
# \t \n \r \f \v count as whitespace and collapse below; the rest is junk.
_CONTROL_RE = re.compile(r"[\x00-\x08\x0e-\x1f\x7f]")
_TOKEN_RE = re.compile(r"\w+", re.UNICODE)

# Function words only.  Content words would drag topical text toward an
# "English" verdict regardless of its actual language.
ENGLISH_FUNCTION_WORDS = frozenset("""
    a about after again all also an and any are as at be because been being
    but by can could did do does down for from had has have he her here him
    his how i if in into is it its just like me more most my no not now of
    off on only or other our out over own same she so some such than that the
    their them then there these they this those through to too under until up
    us very was we were what when where which who why will with would you
    your
""".split())
LANGUAGE_MIN_LENGTH = 20
ENGLISH_RATIO = 0.12
# Tag-expansion rounds of bootstrap_exemplars.
BOOTSTRAP_ROUNDS = 4


def normalize_text(raw: str) -> str:
    """Lowercase, strip markup tags and control bytes, collapse whitespace.

    Idempotent: normalizing twice gives the same string.  ``str.split()``
    splits on exactly the characters ``\\s`` matches in a ``str`` pattern, so
    joining its pieces by single spaces collapses and trims whitespace.
    """
    text = _MARKUP_RE.sub(" ", raw) if "<" in raw else raw
    if not text.isprintable():
        # Every character _CONTROL_RE matches is unprintable (category Cc).
        text = _CONTROL_RE.sub("", text)
    elif not ("  " in text or text.startswith(" ") or text.endswith(" ")):
        # The space is the only printable character str.split() splits on,
        # so the text is already collapsed and trimmed.
        return text.lower()
    return " ".join(text.split()).lower()


def normalize_tag(tag: str) -> str:
    """Canonical tag form: lowercase and trimmed, with '#' and whitespace
    stripped from the front until neither is left.

    Idempotent, so a store indexes a tag under the form its queries ask for.
    """
    tag = tag.lower().strip()
    while tag.startswith("#"):
        tag = tag.lstrip("#").lstrip()
    return tag


def _word_tokens(text: str) -> list[str]:
    """The ``\\w+`` runs of ``text``, lowercased.

    On ASCII letters and digits separated by spaces the runs are exactly the
    space-separated pieces; anything else (tabs, ``_``, punctuation,
    non-ASCII) goes through the regex.
    """
    text = text.lower()
    if text.isascii() and text.encode().replace(b" ", b"").isalnum():
        return text.split()
    return _TOKEN_RE.findall(text)


class LanguageVerdict(Enum):
    ENGLISH = "english"
    NON_ENGLISH = "non_english"
    UNDETERMINED = "undetermined"


def detect_language(text: str) -> LanguageVerdict:
    """English if at least ``ENGLISH_RATIO`` of the word tokens are English
    function words; texts under ``LANGUAGE_MIN_LENGTH`` characters, or with no
    word tokens, are Undetermined rather than guessed at."""
    if len(text) < LANGUAGE_MIN_LENGTH:
        return LanguageVerdict.UNDETERMINED
    tokens = _word_tokens(text)
    if not tokens:
        return LanguageVerdict.UNDETERMINED
    hits = sum(map(ENGLISH_FUNCTION_WORDS.__contains__, tokens))
    if hits / len(tokens) >= ENGLISH_RATIO:
        return LanguageVerdict.ENGLISH
    return LanguageVerdict.NON_ENGLISH


class NoteKind(Enum):
    LIKE = "like"
    REBLOG = "reblog"


@dataclass(frozen=True)
class NoteRecord:
    """One like/reblog on a post, newest notes first in a post's list."""
    blog_name: str
    kind: NoteKind


@dataclass(frozen=True)
class Post:
    """A single microblog post with its engagement notes."""
    id: str
    blog_name: str
    body: str
    caption: str = ""
    tags: tuple[str, ...] = ()
    notes: tuple[NoteRecord, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise ValueError("post id must be non-empty")
        if not self.blog_name:
            raise ValueError("post blog_name must be non-empty")

    def normalized_text(self) -> str:
        """Body and caption joined by a space, then normalized."""
        # A space after the body alone would only be trimmed again.
        if not self.caption:
            return normalize_text(self.body)
        return normalize_text(self.body + " " + self.caption)


def filter_english(posts) -> list[tuple[Post, str]]:
    """Keep posts whose combined text reads as English; order preserved.

    Each kept post comes paired with its normalized text, computed once here
    so that scoring need not normalize again.  Undetermined posts (too short
    to judge) are retained.
    """
    kept = []
    for post in posts:
        text = post.normalized_text()
        if detect_language(text) is not LanguageVerdict.NON_ENGLISH:
            kept.append((post, text))
    return kept


@dataclass
class ExemplarCorpus:
    """Normalized on-topic documents used to train the relevance model."""
    documents: list[str] = field(default_factory=list)
    document_ids: list[str] = field(default_factory=list)

    def save(self, path) -> None:
        """Write one {id, text} JSON object per line."""
        lines = []
        for doc_id, text in zip(self.document_ids, self.documents):
            lines.append(json.dumps({"id": doc_id, "text": text}, sort_keys=True))
        atomic_write_bytes(
            path, ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8"))

    @classmethod
    def load(cls, path) -> "ExemplarCorpus":
        """Read the lines ``save`` writes; blank lines are skipped.

        Raises GraphFormatError for a file that is not UTF-8 and for a line
        that is not a JSON object with string ``id`` and ``text``.
        """
        try:
            content = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"corpus file is not UTF-8: {exc}") from exc
        documents, ids = [], []
        # Only "\n" ends a line: JSON allows a raw U+2028 or U+0085 in a string.
        for number, line in enumerate(content.split("\n"), 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GraphFormatError(f"bad corpus line {number}: {exc}") from exc
            if not isinstance(record, dict):
                raise GraphFormatError(f"bad corpus line {number}: not an object")
            for key in ("id", "text"):
                if not isinstance(record.get(key), str):
                    raise GraphFormatError(
                        f"bad corpus line {number}: no string {key!r}")
            ids.append(record["id"])
            documents.append(record["text"])
        return cls(documents=documents, document_ids=ids)


def bootstrap_exemplars(store, seed_tags, target_size: int
                        ) -> tuple[ExemplarCorpus, dict[str, int]]:
    """Grow an exemplar corpus from seed tags by tag co-occurrence.

    Round g fetches posts for every generation-g tag, keeps the non-empty
    texts ``filter_english`` keeps (deduplicated by post id), and files unseen
    co-occurring tags under generation g+1.  Stops at ``target_size``
    documents, after ``BOOTSTRAP_ROUNDS`` rounds, or when a round adds
    nothing.  The lexicon maps each normalized, non-empty tag to the first
    generation that saw it.
    """
    if target_size <= 0:
        raise ValueError("target_size must be positive")
    lexicon = dict.fromkeys(filter(None, map(normalize_tag, seed_tags)), 0)
    if not lexicon:
        raise ValueError("seed lexicon is empty")

    # post id -> normalized text, in the order collected
    collected: dict[str, str] = {}

    # A round that adds no document adds no tag, so the next one stops.
    for generation in range(BOOTSTRAP_ROUNDS):
        current = [tag for tag, added in lexicon.items() if added == generation]
        if not current or len(collected) >= target_size:
            break
        for tag in current:
            if len(collected) >= target_size:
                break
            # A post collected from an earlier page is not normalized again.
            page = [post for post in store.tagged_posts(tag, limit=target_size)
                    if post.id not in collected]
            for post, text in filter_english(page):
                if not text or post.id in collected:
                    continue
                collected[post.id] = text
                for co_tag in filter(None, map(normalize_tag, post.tags)):
                    lexicon.setdefault(co_tag, generation + 1)
                if len(collected) >= target_size:
                    break

    return ExemplarCorpus(documents=list(collected.values()),
                          document_ids=list(collected)), lexicon
