"""The demonstration retriever.

Indexes a synthesized :class:`Dataset` and ranks example SCoPs for a
target program under one of three methods (the Table 6 ablation):

* ``loop-aware`` — full LAScore (BM25 base + weighted loop features),
* ``bm25``       — text similarity only,
* ``weighted``   — loop features only (LAScore w/o BM25).

The pipeline takes the top-N (N = 10, §5) and samples three entries as
demonstrations.

Complexity: the corpus side of both scores is precomputed once, in
``__init__``, as NumPy columns — BM25 posting columns (per term, doc ids
and contributions; :class:`~repro.retrieval.bm25.BM25Index`) and
LAScore feature columns (per statement position and feature kind, an
``(N, V)`` count matrix; :class:`~repro.retrieval.lascore
.LAScoreColumns`).  ``rank`` then costs the query's own feature
extraction plus a few array operations per (statement, kind) pair and
per query term, and one stable sort; breakdowns are built only for the
returned ``top_n``.  Every score and breakdown is bit-identical to the
scalar :func:`~repro.retrieval.lascore.lascore` /
:meth:`~repro.retrieval.bm25.BM25Index.score` specification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..codegen import scop_body_to_c
from ..ir.program import Program
from ..synthesis.dataset import Dataset, DatasetEntry
from .bm25 import BM25Index
from .features import program_features
from .lascore import LAScoreColumns, ScoreBreakdown

METHODS = ("loop-aware", "bm25", "weighted")

DEFAULT_TOP_N = 10
DEFAULT_DEMOS = 3


@dataclass(frozen=True)
class RetrievedDemo:
    """One ranked demonstration."""

    entry: DatasetEntry
    score: float
    breakdown: Optional[ScoreBreakdown]


class Retriever:
    """Dataset index + ranking."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self.index = BM25Index()
        for entry in dataset:
            self.index.add(entry.example_text)
        # built here, not on first use: forked workers inherit them
        self.index.prepare()
        self._columns = LAScoreColumns(
            program_features(entry.example) for entry in dataset)
        names = [entry.name for entry in dataset]
        by_name = {name: pos for pos, name in enumerate(sorted(set(names)))}
        self._name_order = np.array([by_name[name] for name in names],
                                    dtype=np.int64)

    def rank(self, target: Program, method: str = "loop-aware",
             top_n: int = DEFAULT_TOP_N) -> List[RetrievedDemo]:
        """Rank dataset entries for the target program."""
        if method not in METHODS:
            raise ValueError(f"unknown retrieval method {method!r}; "
                             f"expected one of {METHODS}")
        query = scop_body_to_c(target)
        if method == "bm25":
            return [RetrievedDemo(entry=self.dataset[doc.doc_id],
                                  score=doc.score, breakdown=None)
                    for doc in self.index.search(query, top_n)]
        target_features = program_features(target)
        base = self.index.scores(query) if method == "loop-aware" \
            else np.zeros(len(self.dataset))
        feature, mismatch, total = self._columns.score(target_features, base)
        # by (-score, name); the stable sort keeps doc order for ties
        order = np.lexsort((self._name_order, -total))[:top_n]
        ranked: List[RetrievedDemo] = []
        for doc_id in order.tolist():
            breakdown = ScoreBreakdown(
                base=float(base[doc_id]),
                feature_score=float(feature[doc_id]),
                mismatch=float(mismatch[doc_id]),
                n_target_statements=len(target_features))
            ranked.append(RetrievedDemo(entry=self.dataset[doc_id],
                                        score=breakdown.total,
                                        breakdown=breakdown))
        return ranked

    def demonstrations(self, target: Program, rng: random.Random,
                       method: str = "loop-aware",
                       top_n: int = DEFAULT_TOP_N,
                       count: int = DEFAULT_DEMOS) -> List[RetrievedDemo]:
        """Top-N then random sample of ``count`` (§5: N=10, three demos)."""
        ranked = self.rank(target, method, top_n)
        if len(ranked) <= count:
            return ranked
        return rng.sample(ranked, count)
