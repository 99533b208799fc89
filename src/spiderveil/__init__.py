"""Topical crawler for microblog like/reblog networks.

The pipeline: bootstrap an exemplar corpus by tag expansion, train a
character n-gram relevance model, crawl outward from a seed blogger keeping
only bloggers the model accepts, then measure and export the resulting
community graph.  A synthetic-network generator with planted ground truth
closes the loop for end-to-end evaluation.
"""

from .corpus import (ExemplarCorpus, LanguageVerdict, NoteKind, NoteRecord,
                     Post, bootstrap_exemplars, detect_language,
                     filter_english, normalize_tag, normalize_text)
from .crawler import (CrawlConfig, CrawlResult, CrawlSession, FixtureStore,
                      Frontier, HttpJsonStore, SelectionPolicy, StopReason,
                      TransitionMatrix, build_transition_matrix, crawl,
                      extract_frontiers, fetch_posts, propagate, select_next)
from .errors import (EmptyInputError, GraphFormatError, NotFoundError,
                     RetrievalError, ScoringError, SelfLoopError,
                     SpiderveilError)
from .langmodel import (NGramModel, Threshold, Verdict, classify,
                        compute_threshold, load_model, save_model,
                        score_blogger, score_text, train)
from .simnet import (ConfusionMatrix, EvalReport, GeneratorParams, evaluate,
                     generate, report_from_matrix)
from .socialgraph import (CommunityGraph, GraphMeasurements, Partition,
                          avg_clustering, betweenness, closeness_in,
                          detect_communities, diameter, export_graph,
                          import_json_edge_list, measure, modularity)

__version__ = "0.1.0"
