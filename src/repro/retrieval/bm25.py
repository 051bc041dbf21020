"""Okapi BM25 over an in-memory inverted index.

Replaces the Elasticsearch 7.13.2 deployment of §5 — BM25 is a pure
function of the corpus (k1 = 1.2, b = 0.75, Lucene-style idf), so an
in-process index is behaviourally identical for our corpus sizes.

Queries are scored over *posting columns*: per term, the ids of the
documents containing it and each one's precomputed contribution
``idf · tf · (k1 + 1) / denom``.  A query adds its terms' columns into
one float64 vector in sorted-term order — per document, the same
additions in the same order as the scalar :meth:`BM25Index.score`, so
the sums are bit-identical to it.  :meth:`BM25Index.add` invalidates
the columns; the next query rebuilds them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .tokenize import tokenize


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: int
    score: float


class BM25Index:
    """Inverted index with Okapi BM25 scoring."""

    def __init__(self, k1: float = 1.2, b: float = 0.75) -> None:
        self.k1 = k1
        self.b = b
        self._docs: List[Counter] = []
        self._lengths: List[int] = []
        self._postings: Dict[str, List[Tuple[int, int]]] = {}
        self._total_len = 0
        self._avg_len = 0.0
        #: term -> (doc ids, contributions); None until the next query
        self._columns: Optional[Dict[str, Tuple[np.ndarray,
                                                np.ndarray]]] = None

    def __len__(self) -> int:
        return len(self._docs)

    def add(self, text: str) -> int:
        """Index a document; returns its id."""
        tokens = tokenize(text)
        counts = Counter(tokens)
        doc_id = len(self._docs)
        self._docs.append(counts)
        self._lengths.append(len(tokens))
        for term, tf in counts.items():
            self._postings.setdefault(term, []).append((doc_id, tf))
        self._total_len += len(tokens)
        self._avg_len = self._total_len / len(self._lengths)
        self._columns = None
        return doc_id

    def idf(self, term: str) -> float:
        n = len(self._postings.get(term, ()))
        if n == 0:
            return 0.0
        N = len(self._docs)
        return math.log(1.0 + (N - n + 0.5) / (n + 0.5))

    def score(self, query_text: str, doc_id: int) -> float:
        """BM25 score of one document for a query.

        Re-tokenizes the query on every call; when scoring many
        documents for one query use :meth:`scores` instead.
        """
        counts = self._docs[doc_id]
        length = self._lengths[doc_id]
        score = 0.0
        for term in sorted(set(tokenize(query_text))):
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            idf = self.idf(term)
            denom = tf + self.k1 * (1 - self.b
                                    + self.b * length / self._avg_len)
            score += idf * tf * (self.k1 + 1) / denom
        return score

    def prepare(self) -> None:
        """Build the posting columns now rather than on the next query."""
        if self._columns is not None:
            return
        terms = list(self._postings)
        sizes = [len(self._postings[term]) for term in terms]
        flat = [posting for term in terms for posting in self._postings[term]]
        ids = np.array([doc_id for doc_id, _ in flat], dtype=np.intp)
        tf = np.array([tf for _, tf in flat], dtype=np.float64)
        idf = np.repeat(np.array([self.idf(term) for term in terms],
                                 dtype=np.float64), sizes)
        length = np.array(self._lengths, dtype=np.float64)[ids]
        # the scalar expression of score(), elementwise, same operand order
        denom = tf + self.k1 * (1 - self.b + self.b * length / self._avg_len)
        contrib = idf * tf * (self.k1 + 1) / denom
        ends = np.cumsum(sizes, dtype=np.intp)
        self._columns = {
            term: (ids[end - size:end], contrib[end - size:end])
            for term, size, end in zip(terms, sizes, ends)}

    def _query_columns(self, query_text: str
                       ) -> List[Tuple[np.ndarray, np.ndarray]]:
        self.prepare()
        columns = self._columns
        return [columns[term] for term in sorted(set(tokenize(query_text)))
                if term in columns]

    def _accumulate(self, columns: List[Tuple[np.ndarray, np.ndarray]]
                    ) -> np.ndarray:
        out = np.zeros(len(self._docs), dtype=np.float64)
        for ids, contrib in columns:
            out[ids] += contrib
        return out

    def scores(self, query_text: str) -> np.ndarray:
        """BM25 score of every document for one query, indexed by doc id.

        Tokenizes the query once and adds each query term's posting
        column — O(|query terms| + total matching postings) — where
        calling :meth:`score` per document re-tokenizes and re-scores
        the full query for each of the N documents.  Documents sharing
        no term with the query read 0.0.  Terms are added in sorted
        order, so each document's floating-point sum equals
        :meth:`score` exactly and is independent of hash seeding.
        """
        return self._accumulate(self._query_columns(query_text))

    def search(self, query_text: str, top_n: int = 10) -> List[ScoredDoc]:
        """Rank all documents containing at least one query term."""
        columns = self._query_columns(query_text)
        if not columns:
            return []
        scores = self._accumulate(columns)
        matched = np.unique(np.concatenate([ids for ids, _ in columns]))
        # matched is in doc-id order; a stable sort keeps it for ties
        ranked = matched[np.argsort(-scores[matched], kind="stable")]
        return [ScoredDoc(int(doc_id), float(scores[doc_id]))
                for doc_id in ranked[:top_n]]
