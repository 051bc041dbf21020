"""LAScore — the loop-aware retrieval score (Eqs 1–5, §4.2).

``LAScore = SB + (SF − SM) / NS_T`` where

* ``SB`` is the BM25 base score (syntactic robustness),
* ``SM`` (Eq 1) penalises a statement-count mismatch,
* ``SF`` (Eq 4) sums per-statement, per-feature reward ``R`` (Eq 2,
  matched features) minus penalty ``P`` (Eq 3, *extra* features in the
  example — demonstrations of transformations the target cannot use),
  normalised by the target's feature count.

Sign convention: Eq 3 writes ``P = (Count(F_T∩F_E) − NF_E) × WP``, which
is ≤ 0; combined with Eq 4's ``R − P`` the net effect the text describes
("penalty applied when the example SCoP has more features") corresponds to
subtracting ``max(0, NF_E − Count∩) × WP``, which is what we compute.

:func:`lascore` is the scalar specification.  :class:`LAScoreColumns`
evaluates it for one target against every entry of a fixed corpus at
once, from count matrices built when the corpus is indexed; it performs
the same IEEE operations in the same order per entry, so its scores
equal the scalar ones exactly (``==``), not approximately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .features import (FEATURE_KINDS, StatementFeatures, intersection_count)

#: reward weight per feature kind (W_R in Eq 2)
DEFAULT_REWARD_WEIGHTS: Mapping[str, float] = {
    "schedule": 2.0, "write_index": 3.0, "read_index": 2.0}
#: penalty weight per feature kind (W_P in Eqs 1 and 3)
DEFAULT_PENALTY_WEIGHTS: Mapping[str, float] = {
    "schedule": 1.0, "write_index": 1.5, "read_index": 1.0}


@dataclass(frozen=True)
class ScoreBreakdown:
    """LAScore with its components, for inspection and tests."""

    base: float          # SB
    feature_score: float  # SF
    mismatch: float       # SM
    n_target_statements: int

    @property
    def weighted(self) -> float:
        return (self.feature_score - self.mismatch) / max(
            1, self.n_target_statements)

    @property
    def total(self) -> float:
        return self.base + self.weighted


def statement_mismatch(target: Sequence[StatementFeatures],
                       example: Sequence[StatementFeatures],
                       penalty_weights: Mapping[str, float]
                       ) -> float:
    """Eq 1: SM = |NS_T − NS_E| × Σ_j WP_j."""
    total_wp = sum(penalty_weights.get(kind, 1.0)
                   for kind in FEATURE_KINDS)
    return abs(len(target) - len(example)) * total_wp


def feature_score(target: Sequence[StatementFeatures],
                  example: Sequence[StatementFeatures],
                  reward_weights: Mapping[str, float],
                  penalty_weights: Mapping[str, float]) -> float:
    """Eqs 2–4: Σ_{i,j} (R_ij − P_ij) / NF_T_ij."""
    total = 0.0
    for t_feat, e_feat in zip(target, example):
        for kind in FEATURE_KINDS:
            t_counter = t_feat.counter(kind)
            e_counter = e_feat.counter(kind)
            nft = sum(t_counter.values())
            nfe = sum(e_counter.values())
            if nft == 0 and nfe == 0:
                continue
            matched = intersection_count(t_counter, e_counter)
            reward = matched * reward_weights.get(kind, 1.0)
            penalty = max(0, nfe - matched) * penalty_weights.get(kind, 1.0)
            total += (reward - penalty) / max(1, nft)
    return total


def lascore(target: Sequence[StatementFeatures],
            example: Sequence[StatementFeatures],
            base_score: float,
            reward_weights: Mapping[str, float] = DEFAULT_REWARD_WEIGHTS,
            penalty_weights: Mapping[str, float] = DEFAULT_PENALTY_WEIGHTS,
            ) -> ScoreBreakdown:
    """Eq 5: LAScore = SB + (SF − SM) / NS_T."""
    sm = statement_mismatch(target, example, penalty_weights)
    sf = feature_score(target, example, reward_weights, penalty_weights)
    return ScoreBreakdown(base=base_score, feature_score=sf, mismatch=sm,
                          n_target_statements=len(target))


class LAScoreColumns:
    """LAScore (default weights) of one target against a whole corpus.

    For each statement position ``i`` and feature kind ``j`` the corpus
    side of Eqs 2–4 is precomputed: the vocabulary of the items the
    entries' statement ``i`` has, an ``(N, V_ij)`` count matrix (in the
    narrowest unsigned dtype that holds its counts; rows of entries
    without a statement ``i`` are zero) and the row totals ``NF_E``.
    A query maps the target's items onto each vocabulary (items outside
    it match nothing), takes ``matched = minimum(M, q).sum(1)`` and adds
    each ``(R − P) / max(1, NF_T)`` term into a float64 vector in
    :func:`feature_score`'s ``i``-then-``j`` order.  The entries the
    scalar loop skips — those without a statement ``i`` (its ``zip``
    truncation) and those where ``NF_T = NF_E = 0`` — have ``matched =
    NF_E = 0`` here and so get a term of exactly ``+0.0``.  Adding
    ``+0.0`` changes no bit of a sum that is not ``−0.0``, and this sum
    never is: it starts at ``+0.0`` and no term is ``−0.0`` (``R ≥ +0.0``).
    ``SM`` and the total follow elementwise.
    """

    def __init__(self, corpus: Iterable[Sequence[StatementFeatures]]
                 ) -> None:
        statements: List[int] = []
        #: per position i, per kind: (vocab, rows, cols, counts) cells
        cells: List[List[Tuple[Dict[object, int], List[int], List[int],
                               List[int]]]] = []
        for row, features in enumerate(corpus):
            statements.append(len(features))
            for i, stmt in enumerate(features):
                if i == len(cells):
                    cells.append([({}, [], [], []) for _ in FEATURE_KINDS])
                for kind, (vocab, rows, cols, counts) in zip(FEATURE_KINDS,
                                                              cells[i]):
                    for item, count in stmt.items(kind):
                        rows.append(row)
                        cols.append(vocab.setdefault(item, len(vocab)))
                        counts.append(count)
        self._statements = np.array(statements, dtype=np.int64)
        #: per position i, per kind: (vocab, M, NF_E)
        self._positions: List[List[Tuple[Dict[object, int], np.ndarray,
                                         np.ndarray]]] = []
        for per_kind in cells:
            kinds = []
            for vocab, rows, cols, counts in per_kind:
                matrix = np.zeros(
                    (len(statements), len(vocab)),
                    dtype=np.min_scalar_type(max(counts, default=0)))
                matrix[rows, cols] = counts
                kinds.append((vocab, matrix,
                              matrix.sum(axis=1, dtype=np.int64)))
            self._positions.append(kinds)

    def score(self, target: Sequence[StatementFeatures], base: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(SF, SM, total)`` per entry, given SB per entry as ``base``.

        ``total[e] == lascore(target, corpus[e], base[e]).total``.
        """
        feature = np.zeros(len(self._statements), dtype=np.float64)
        for kinds, t_feat in zip(self._positions, target):
            for kind, (vocab, matrix, nfe) in zip(FEATURE_KINDS, kinds):
                nft = 0
                cols: List[int] = []
                counts: List[int] = []
                for item, count in t_feat.items(kind):
                    nft += count
                    col = vocab.get(item)
                    if col is not None:
                        cols.append(col)
                        counts.append(count)
                matched = np.minimum(matrix[:, cols],
                                     np.array(counts, dtype=np.int64)
                                     ).sum(axis=1, dtype=np.int64)
                reward = matched * DEFAULT_REWARD_WEIGHTS[kind]
                penalty = np.maximum(0, nfe - matched) * \
                    DEFAULT_PENALTY_WEIGHTS[kind]
                feature += (reward - penalty) / max(1, nft)
        total_wp = sum(DEFAULT_PENALTY_WEIGHTS[kind]
                       for kind in FEATURE_KINDS)
        mismatch = np.abs(len(target) - self._statements) * total_wp
        total = base + (feature - mismatch) / max(1, len(target))
        return feature, mismatch, total
