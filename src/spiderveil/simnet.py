"""Synthetic microblog network with planted relevant communities.

The generator emits a fixture store (same JSON shape the crawler consumes)
plus a ground-truth label map, so the whole pipeline can be scored against a
known answer.  Evaluation reduces predicted-vs-actual verdicts to a confusion
matrix and the usual precision / recall / F-score / accuracy quartet.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import asdict, dataclass

from .corpus import ENGLISH_FUNCTION_WORDS
from .errors import INTEGER, INTEGER_PAIR, NUMBER, STRINGS, apply_kinds, read_fields
from .langmodel import Verdict

# Fraction of tokens in every generated post drawn from the vocabulary's
# function words; keeps the text past the English heuristic regardless of
# topic.
GLUE_RATE = 0.25

_ON_TOPIC_CONTENT = (
    "nebula quasar pulsar galaxy orbit comet meteor asteroid telescope "
    "supernova eclipse equinox solstice cosmos stellar lunar solar planet "
    "moonrise starlight horizon zenith parallax spectrum redshift magnitude "
    "luminous celestial aurora constellation observatory astronomer gravity "
    "photon corona perihelion aphelion crater transit occultation binary "
    "cluster dwarf filament singularity exoplanet satellite probe lander "
    "rover launch rocket thruster capsule mission flyby vacuum radiant "
    "orbital sidereal azimuth altitude declination meridian refractor "
    "reflector eyepiece tripod almanac skychart darksky lightyear parsec"
)

_ON_TOPIC_GLUE = (
    "the and of with from were which their there about into after under "
    "over because through these those where when until down"
)

_OFF_TOPIC_CONTENT = (
    "quiche braise zucchini saute simmer whisk knead dough sourdough yeast "
    "crumb glaze caramel butter flour sugar vanilla cinnamon nutmeg ginger "
    "garlic onion shallot leek fennel basil thyme rosemary oregano paprika "
    "cumin saffron turmeric broth stock roux gravy marinade brine pickle "
    "ferment compote custard pudding ganache praline nougat brioche baguette "
    "croissant focaccia ciabatta pretzel bagel muffin scone biscuit waffle "
    "pancake crepe omelette frittata risotto gnocchi polenta couscous quinoa "
    "lentil chickpea skillet griddle ladle spatula colander"
)

_OFF_TOPIC_GLUE = (
    "a is to for on at this but was has had have been are its that they "
    "them then than some such other"
)

DEFAULT_ON_TOPIC_VOCAB = tuple((_ON_TOPIC_CONTENT + " " + _ON_TOPIC_GLUE).split())
DEFAULT_OFF_TOPIC_VOCAB = tuple((_OFF_TOPIC_CONTENT + " " + _OFF_TOPIC_GLUE).split())

DEFAULT_ON_TOPIC_TAGS = ("stargazing", "nightsky", "skywatch")
DEFAULT_OFF_TOPIC_TAGS = ("sourdoughclub", "ovenbakes")


# The JSON kind of each generator parameter, in the order they are checked.
PARAM_KINDS = {
    **dict.fromkeys(("total_bloggers", "rng_seed", "posts_per_blogger"), INTEGER),
    **dict.fromkeys(("relevant_fraction", "mixing_prob",
                     "intra_community_note_bias"), NUMBER),
    **dict.fromkeys(("on_topic_vocab", "off_topic_vocab", "on_topic_tags",
                     "off_topic_tags"), STRINGS),
    **dict.fromkeys(("notes_per_post", "words_per_post"), INTEGER_PAIR),
}


@dataclass(frozen=True)
class GeneratorParams:
    """Shape of one synthetic network."""
    total_bloggers: int = 500
    relevant_fraction: float = 0.5
    on_topic_vocab: tuple[str, ...] = DEFAULT_ON_TOPIC_VOCAB
    off_topic_vocab: tuple[str, ...] = DEFAULT_OFF_TOPIC_VOCAB
    mixing_prob: float = 0.1
    notes_per_post: tuple[int, int] = (4, 9)
    intra_community_note_bias: float = 0.9
    rng_seed: int = 0
    posts_per_blogger: int = 3
    words_per_post: tuple[int, int] = (45, 70)
    on_topic_tags: tuple[str, ...] = DEFAULT_ON_TOPIC_TAGS
    off_topic_tags: tuple[str, ...] = DEFAULT_OFF_TOPIC_TAGS

    def __post_init__(self):
        apply_kinds(self, PARAM_KINDS)
        if self.total_bloggers < 2:
            raise ValueError("total_bloggers must be >= 2")
        if self.total_bloggers > sys.float_info.max:
            # relevant_count multiplies it by a float.
            raise ValueError("total_bloggers must fit in a float")
        if not 0.0 < self.relevant_fraction < 1.0:
            raise ValueError("relevant_fraction must lie strictly in (0, 1)")
        if not self.on_topic_vocab or not self.off_topic_vocab:
            raise ValueError("vocabularies must be non-empty")
        if set(self.on_topic_vocab) & set(self.off_topic_vocab):
            raise ValueError("vocabularies must be disjoint")
        if not 0.0 <= self.mixing_prob <= 1.0:
            raise ValueError("mixing_prob must lie in [0, 1]")
        if not 0.0 <= self.intra_community_note_bias <= 1.0:
            raise ValueError("intra_community_note_bias must lie in [0, 1]")
        for name in ("notes_per_post", "words_per_post"):
            low, high = getattr(self, name)
            if low < 1 or high < low:
                raise ValueError(f"{name} range must satisfy 1 <= low <= high")
        if self.posts_per_blogger < 1:
            raise ValueError("posts_per_blogger must be >= 1")
        if not self.on_topic_tags or not self.off_topic_tags:
            raise ValueError("tag pools must be non-empty")
        for name in ("on_topic_tags", "off_topic_tags"):
            pool = getattr(self, name)
            if len(set(pool)) < len(pool):
                raise ValueError(f"{name} must not repeat a tag")
        if not 1 <= relevant_count(self) < self.total_bloggers:
            raise ValueError("params leave one community empty")

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeneratorParams":
        """Parameters from a decoded JSON object; absent keys keep defaults.

        The kinds are checked here first, so that a value of the wrong JSON
        type raises GraphFormatError naming its key; the constructor applies
        them again and raises ValueError for a value outside its range.
        Other keys are ignored.
        """
        return cls(**read_fields(data, PARAM_KINDS, "bad generator params"))


def relevant_count(params: GeneratorParams) -> int:
    """floor(total * fraction), nudged so 0.3 * 10 counts as 3."""
    return math.floor(params.total_bloggers * params.relevant_fraction + 1e-9)


def _split_vocab(vocab) -> tuple[list[str], list[str]]:
    """(content words, function-word glue) partition of a vocabulary."""
    glue = [w for w in vocab if w in ENGLISH_FUNCTION_WORDS]
    content = [w for w in vocab if w not in ENGLISH_FUNCTION_WORDS]
    if not content:
        content = list(vocab)
        glue = []
    return content, glue


# The helpers below make the draws of ``Random.randrange(n)``,
# ``Random.randint`` and ``Random.shuffle`` without their per-call Python
# frames.  On CPython 3.10-3.13 all three reduce to
# ``Random._randbelow_with_getrandbits``: draw ``n.bit_length()`` bits and
# draw again while the value is >= n, so a width of 1 still draws.  The tests
# compare them against the interpreter's own ``randrange``, ``randint`` and
# ``shuffle``, values and final state, so an interpreter that draws
# differently fails there instead of writing a different store.


def _below(getrandbits, n: int) -> int:
    """``rng.randrange(n)``, with its ValueError for ``n < 1``, where
    ``getrandbits(0)`` would return 0 without end."""
    if n < 1:
        raise ValueError("empty range for randrange()")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw_items(getrandbits, pool, count: int) -> list:
    """``[pool[rng.randrange(len(pool))] for _ in range(count)]``; the pool
    must be non-empty unless ``count`` is 0."""
    n = len(pool)
    k = n.bit_length()
    out = []
    append = out.append
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(pool[r])
    return out


def _shuffle(getrandbits, items: list) -> None:
    """``rng.shuffle(items)``: Fisher-Yates from the last slot down."""
    for i in range(len(items) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def _compose_post(getrandbits, content: list[str], glue: list[str],
                  words_range: tuple[int, int]) -> str:
    low, high = words_range
    count = low + _below(getrandbits, high - low + 1)
    glue_count = round(GLUE_RATE * count) if glue else 0
    tokens = _draw_items(getrandbits, content, count - glue_count)
    tokens += _draw_items(getrandbits, glue, glue_count)
    _shuffle(getrandbits, tokens)
    return " ".join(tokens)


def generate(params: GeneratorParams) -> tuple[dict, dict[str, bool]]:
    """Build (fixture store, truth map) for one planted community.

    The first ``relevant_count`` bloggers in name order carry the relevant
    label.  A relevant blogger's post is drawn wholly from the off-topic
    vocabulary with probability ``mixing_prob`` (so the population's token
    mass stays >= 1 - mixing_prob on-topic, and mixing 0 means purely
    on-topic posts); decoys always write off-topic.  Noters are sampled from
    the writer's own community with probability ``intra_community_note_bias``.

    The designated seed blogger is relevant, writes clean posts, and every
    one of their posts receives the top of the notes range, so nobody out-
    notes them.  On-topic tags go only on clean on-topic posts; mixed posts
    carry no tags.
    """
    n_relevant = relevant_count(params)
    rng = random.Random(params.rng_seed)
    width = max(3, len(str(params.total_bloggers - 1)))
    names = [f"blogger-{i:0{width}d}" for i in range(params.total_bloggers)]
    truth = {name: i < n_relevant for i, name in enumerate(names)}
    relevant_names = names[:n_relevant]
    decoy_names = names[n_relevant:]
    seed_name = relevant_names[0]

    on_content, on_glue = _split_vocab(params.on_topic_vocab)
    off_content, off_glue = _split_vocab(params.off_topic_vocab)
    note_low, note_high = params.notes_per_post

    getrandbits, random_ = rng.getrandbits, rng.random
    bias = params.intra_community_note_bias
    posts = []
    for index, name in enumerate(names):
        is_relevant = truth[name]
        # Names are unique, so the blogger sits at one known slot of its
        # community: relevant bloggers first, decoys after them.  A noter
        # from the writer's own community is drawn among the other slots.
        if is_relevant:
            community, slot, other_pool = relevant_names, index, decoy_names
        else:
            community, slot, other_pool = decoy_names, index - n_relevant, relevant_names
        same_count = len(community) - 1
        other_count = len(other_pool)
        for _ in range(params.posts_per_blogger):
            mixed = (is_relevant and name != seed_name
                     and random_() < params.mixing_prob)
            if is_relevant and not mixed:
                content, glue, tag_pool = on_content, on_glue, params.on_topic_tags
            elif is_relevant:
                content, glue, tag_pool = off_content, off_glue, ()
            else:
                content, glue, tag_pool = off_content, off_glue, params.off_topic_tags
            body = _compose_post(getrandbits, content, glue, params.words_per_post)

            tags: list[str] = []
            if tag_pool:
                tags.append(tag_pool[_below(getrandbits, len(tag_pool))])
                if len(tag_pool) > 1 and random_() < 0.5:
                    remaining = [t for t in tag_pool if t != tags[0]]
                    tags.append(remaining[_below(getrandbits, len(remaining))])

            note_count = (note_high if name == seed_name
                          else note_low + _below(getrandbits, note_high - note_low + 1))
            # (noter, kind) -> note; a repeated pair is dropped.
            notes: dict[tuple[str, str], dict] = {}
            for _ in range(note_count):
                # A one-blogger community has no other slot; GeneratorParams
                # rejects an empty one, so the other pool never is.
                if random_() < bias and same_count:
                    r = _below(getrandbits, same_count)
                    noter = community[r + (r >= slot)]
                else:
                    noter = other_pool[_below(getrandbits, other_count)]
                kind = "like" if random_() < 0.5 else "reblog"
                if (noter, kind) not in notes:
                    notes[noter, kind] = {"blog_name": noter, "kind": kind}

            posts.append({
                "id": f"post-{len(posts):05d}",
                "blog_name": name,
                "type": "text",
                "body": body,
                "tags": tags,
                "notes": list(notes.values()),
            })

    store = {
        "blogs": [{"name": name} for name in names],
        "posts": posts,
        "seed": seed_name,
    }
    return store, truth


def truth_to_json_dict(truth: dict[str, bool]) -> dict[str, str]:
    return {name: ("relevant" if label else "unknown")
            for name, label in truth.items()}


def truth_from_json_dict(data: dict) -> dict[str, bool]:
    if not isinstance(data, dict):
        raise ValueError("truth is not an object")
    out = {}
    for name, label in data.items():
        if isinstance(label, bool):
            out[name] = label
        elif label in ("relevant", "unknown"):
            out[name] = label == "relevant"
        else:
            raise ValueError(f"bad truth label {label!r} for {name!r}")
    return out


# -- evaluation ----------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMatrix:
    """Predicted Relevant/Unknown against actual relevant/unknown."""
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        for field_name in ("tp", "fn", "fp", "tn"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")

    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    def to_json_dict(self) -> dict:
        return asdict(self)


def truncate2(value: float) -> str:
    """Two-decimal truncation (not rounding): 0.8089 -> '0.80'."""
    return f"{math.floor(value * 100 + 1e-9) / 100:.2f}"


@dataclass(frozen=True)
class EvalReport:
    """Headline metrics; full precision inside, 4 decimals when emitted."""
    precision: float
    recall: float
    f_score: float
    accuracy: float

    def to_json_dict(self) -> dict:
        metrics = asdict(self)
        return {
            **{name: round(value, 4) for name, value in metrics.items()},
            "truncated": {name: truncate2(value) for name, value in metrics.items()},
            "note": "truncated values drop digits past two decimals",
        }


def report_from_matrix(matrix: ConfusionMatrix) -> EvalReport:
    if matrix.total() == 0:
        raise ValueError("cannot evaluate an empty population")
    tp, fn, fp, tn = matrix.tp, matrix.fn, matrix.fp, matrix.tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f_score = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    accuracy = (tp + tn) / matrix.total()
    return EvalReport(precision, recall, f_score, accuracy)


def evaluate(predicted, truth) -> tuple[ConfusionMatrix, EvalReport]:
    """Score verdicts against ground truth over the predicted population.

    ``predicted`` maps blogger to Verdict (discarded bloggers belong here as
    Unknown); ``truth`` maps blogger to a boolean relevance label and must
    cover every predicted blogger.
    """
    missing = sorted(set(predicted) - set(truth))
    if missing:
        raise ValueError(f"no ground truth for: {', '.join(missing[:5])}")
    if not predicted:
        raise ValueError("cannot evaluate an empty population")
    tp = fn = fp = tn = 0
    for name, verdict in predicted.items():
        relevant = verdict is Verdict.RELEVANT
        if truth[name]:
            tp, fn = (tp + 1, fn) if relevant else (tp, fn + 1)
        else:
            fp, tn = (fp + 1, tn) if relevant else (fp, tn + 1)
    matrix = ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)
    return matrix, report_from_matrix(matrix)
