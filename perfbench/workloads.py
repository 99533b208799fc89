"""Workload definitions of the spiderveil benchmark.

Every workload runs the user's path ``gen -> bootstrap -> train -> crawl ->
analyze -> eval``.  They differ in the generated network and the crawl
settings, chosen so that each stresses a different layer:

* ``markov-2k``: the max-Markov crawl under load.  Every step builds the
  dense N x N transition matrix and runs up to 64 mat-vecs, so the Markov
  layer takes about half the crawl, and the 500-node graph makes ``analyze``
  heavy.
* ``uniform-2k-ckpt``: the same network crawled by uniform selection, in
  segments of ``checkpoint_every`` steps that each write ``checkpoint()`` to a
  file and ``resume`` from it.  Selection never reads the Markov mass here, yet
  the crawl still computes it, so a policy-aware change shows only here.
* ``longposts-500``: few bloggers with many long posts.  Scoring and the
  fixture store dominate; the graph stays small, so this bypasses the Markov
  and metric layers.

The graph limit of the two 2000-blogger workloads (500 nodes) lies below the
size both recorded networks reach (723 and 744 nodes), so every crawl stops at
``size_limit`` with the same node count.

The ``smoke`` scale shrinks every workload to about 60 bloggers; it exists to
check that the harness still runs and emits every metric.
"""

from __future__ import annotations

# Generator seeds with recorded expected outputs: 3 is the default network and
# 11 the held-out one.  Every run measures both, so that a run's figures do
# not swing with the network (between these two, the longposts graph has 102
# or 174 nodes and its analyze time differs threefold); the benchmark seed
# orders them.
GEN_SEEDS = (3, 11)

BOOTSTRAP_TAG = "stargazing"
BOOTSTRAP_TARGET = 400

WORKLOADS = {
    "markov-2k": {
        "full": {
            "generator": {"total_bloggers": 2000},
            "crawl": {"policy": "max_markov", "graph_size": 500},
            "seed_bloggers": 30,
        },
        "smoke": {
            "generator": {"total_bloggers": 60},
            "crawl": {"policy": "max_markov", "graph_size": 1000},
            "seed_bloggers": 10,
        },
    },
    "uniform-2k-ckpt": {
        "full": {
            "generator": {"total_bloggers": 2000},
            "crawl": {"policy": "uniform_random", "graph_size": 500,
                      "checkpoint_every": 100},
            "seed_bloggers": 30,
        },
        "smoke": {
            "generator": {"total_bloggers": 60},
            "crawl": {"policy": "uniform_random", "graph_size": 1000,
                      "checkpoint_every": 10},
            "seed_bloggers": 10,
        },
    },
    "longposts-500": {
        "full": {
            "generator": {"total_bloggers": 500, "posts_per_blogger": 10,
                          "words_per_post": [150, 250]},
            "crawl": {"policy": "max_markov", "graph_size": 1000},
            "seed_bloggers": 30,
        },
        "smoke": {
            "generator": {"total_bloggers": 60, "posts_per_blogger": 10,
                          "words_per_post": [150, 250]},
            "crawl": {"policy": "max_markov", "graph_size": 1000},
            "seed_bloggers": 10,
        },
    },
}

STAGES = ("gen", "bootstrap", "train", "crawl", "analyze", "eval")


def gen_seeds_for(seed: int) -> tuple[int, ...]:
    """The recorded generator seeds, rotated by the benchmark seed."""
    shift = seed % len(GEN_SEEDS)
    return GEN_SEEDS[shift:] + GEN_SEEDS[:shift]


def spec(workload: str, scale: str, gen_seed: int) -> dict:
    """Full parameters of one workload run, as recorded in the environment."""
    chosen = WORKLOADS[workload][scale]
    return {
        "workload": workload,
        "scale": scale,
        "gen_seed": gen_seed,
        "generator": dict(chosen["generator"], rng_seed=gen_seed),
        "bootstrap": {"tag": BOOTSTRAP_TAG, "target": BOOTSTRAP_TARGET},
        "train": {"seed_bloggers": chosen["seed_bloggers"]},
        "crawl": dict(chosen["crawl"]),
    }
