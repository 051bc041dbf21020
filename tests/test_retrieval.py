"""BM25, loop features and LAScore tests."""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import scop_body_to_c
from repro.ir import parse_scop
from repro.retrieval import (FEATURE_KINDS, BM25Index, Retriever,
                             StatementFeatures, intersection_count, lascore,
                             program_features, statement_features, tokenize)
from repro.retrieval.lascore import LAScoreColumns
from repro.suites import SUITES
from repro.synthesis import build_dataset
from repro.synthesis.dataset import Dataset


class TestTokenizer:
    def test_identifiers_and_numbers(self):
        assert "c" in tokenize("C[i][j] = 42;")
        assert "42" in tokenize("C[i][j] = 42;")

    def test_stopwords_dropped(self):
        assert "for" not in tokenize("for (i = 0; i < N; i++)")

    def test_compound_operators(self):
        assert "+=" in tokenize("a[i] += b[i];")

    def test_lowercased(self):
        assert tokenize("ALPHA") == ["alpha"]


class TestBM25:
    def _index(self):
        idx = BM25Index()
        idx.add("a[i] = b[i] + c[i];")
        idx.add("C[i][j] += A[i][k] * B[k][j];")
        idx.add("x[i] = x[i-1] * 0.5;")
        return idx

    def test_exact_match_ranks_first(self):
        idx = self._index()
        top = idx.search("C[i][j] += A[i][k] * B[k][j];", top_n=3)
        assert top[0].doc_id == 1

    def test_score_zero_for_disjoint(self):
        idx = self._index()
        assert idx.score("zzz www", 0) == 0.0

    def test_idf_decreases_with_frequency(self):
        idx = self._index()
        assert idx.idf("i") < idx.idf("k")

    def test_search_respects_top_n(self):
        idx = self._index()
        assert len(idx.search("a b c x", top_n=2)) <= 2

    def test_deterministic_tie_break(self):
        idx = BM25Index()
        idx.add("p q r")
        idx.add("p q r")
        top = idx.search("p", top_n=2)
        assert [d.doc_id for d in top] == [0, 1]


class TestFeatures:
    def test_rename_invariance(self):
        a = parse_scop("scop a(N) { array A[N] output; array B[N]; "
                       "for (i = 0; i < N; i++) A[i] = B[i+1]; }")
        b = parse_scop("scop b(N) { array Z[N] output; array Q[N]; "
                       "for (t = 0; t < N; t++) Z[t] = Q[t+1]; }")
        fa = statement_features(a.statements[0])
        fb = statement_features(b.statements[0])
        assert fa.features == fb.features

    def test_index_offset_changes_features(self):
        a = parse_scop("scop a(N) { array A[N] output; "
                       "for (i = 1; i < N; i++) A[i] = A[i] + 1.0; }")
        b = parse_scop("scop b(N) { array A[N] output; "
                       "for (i = 1; i < N; i++) A[i] = A[i-1] + 1.0; }")
        fa = statement_features(a.statements[0])
        fb = statement_features(b.statements[0])
        assert fa.counter("read_index") != fb.counter("read_index")

    def test_intersection_count_multiset(self):
        from collections import Counter
        a = Counter({"x": 2, "y": 1})
        b = Counter({"x": 1, "z": 4})
        assert intersection_count(a, b) == 1

    def test_program_features_per_statement(self, gemm):
        feats = program_features(gemm)
        assert [f.statement for f in feats] == ["S1", "S2"]


class TestLAScore:
    def test_identical_scores_highest(self, gemm, syrk):
        fg = program_features(gemm)
        fs = program_features(syrk)
        self_score = lascore(fg, fg, 0.0).total
        cross = lascore(fg, fs, 0.0).total
        assert self_score > cross

    def test_statement_mismatch_penalised(self, gemm, stream):
        fg = program_features(gemm)
        fv = program_features(stream)
        score = lascore(fg, fv, 0.0)
        assert score.mismatch > 0

    def test_extra_features_penalised(self):
        target = parse_scop("scop t(N) { array A[N] output; "
                            "for (i = 0; i < N; i++) A[i] = A[i] + 1.0; }")
        lean = parse_scop("scop l(N) { array Z[N] output; "
                          "for (i = 0; i < N; i++) Z[i] = Z[i] + 2.0; }")
        fat = parse_scop("scop f(N) { array Z[N] output; array Q[N]; "
                         "for (i = 0; i < N; i++) "
                         "Z[i] = Z[i] + Q[i+1] * Q[i-1]; }")
        ft = program_features(target)
        assert lascore(ft, program_features(lean), 0.0).total > \
            lascore(ft, program_features(fat), 0.0).total

    def test_base_score_added(self, gemm):
        fg = program_features(gemm)
        assert lascore(fg, fg, 5.0).total == \
            lascore(fg, fg, 0.0).total + 5.0


class TestRetriever:
    @pytest.fixture(scope="class")
    def retriever(self):
        return Retriever(build_dataset(size=60, seed=13))

    def test_rank_returns_top_n(self, retriever, gemm):
        assert len(retriever.rank(gemm, top_n=5)) == 5

    def test_methods_differ(self, retriever, gemm):
        loop = [d.entry.name for d in retriever.rank(gemm, "loop-aware")]
        bm25 = [d.entry.name for d in retriever.rank(gemm, "bm25")]
        weighted = [d.entry.name
                    for d in retriever.rank(gemm, "weighted")]
        assert loop != bm25 or loop != weighted

    def test_unknown_method_rejected(self, retriever, gemm):
        with pytest.raises(ValueError):
            retriever.rank(gemm, "dense-embedding")

    def test_demonstrations_sampled_from_top(self, retriever, gemm):
        rng = random.Random(0)
        demos = retriever.demonstrations(gemm, rng)
        top10 = {d.entry.name for d in retriever.rank(gemm, top_n=10)}
        assert len(demos) == 3
        assert all(d.entry.name in top10 for d in demos)

    def test_scores_sorted_descending(self, retriever, gemm):
        scores = [d.score for d in retriever.rank(gemm, "loop-aware")]
        assert scores == sorted(scores, reverse=True)


# ----------------------------------------------------------------------
# the columnar index against the scalar specification
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_retriever():
    return Retriever(build_dataset(size=60, seed=13))


def spec_rank(retriever, target, method, top_n):
    """Ranking built from the scalar spec: ``lascore`` per entry over
    ``program_features``, BM25 base from ``BM25Index.score`` per doc."""
    target_features = program_features(target)
    query = scop_body_to_c(target)
    scored = []
    for doc_id, entry in enumerate(retriever.dataset):
        base = retriever.index.score(query, doc_id) \
            if method == "loop-aware" else 0.0
        breakdown = lascore(target_features,
                            program_features(entry.example), base)
        scored.append((entry.name, breakdown.total, breakdown))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:top_n]


def spec_search(index, query, top_n):
    """The dict-based search: docs sharing a query term, scored by
    ``BM25Index.score``, ordered by (-score, doc id)."""
    terms = set(tokenize(query))
    matched = {doc_id: index.score(query, doc_id)
               for doc_id in range(len(index))
               if terms & set(index._docs[doc_id])}
    ranked = sorted(matched.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_n]


def ranking(retriever, target, method, top_n):
    return [(d.entry.name, d.score, d.breakdown)
            for d in retriever.rank(target, method, top_n)]


def with_examples(dataset, named_sources):
    """A dataset of hand-written examples (other fields borrowed)."""
    template = dataset[0]
    entries = []
    for name, source in named_sources:
        program = parse_scop(source)
        entries.append(replace(template, name=name, example=program,
                               example_text=scop_body_to_c(program)))
    return Dataset(entries=tuple(entries), generator="looprag", seed=0)


ONE_STMT = ("scop {name}(N) {{ array A[N] output; array B[N]; "
            "for (i = 1; i < N; i++) A[i] = {rhs}; }}")


class TestColumnarParity:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("method", ["loop-aware", "weighted"])
    def test_rank_equals_scalar_lascore(self, small_retriever, suite,
                                        method):
        n = len(small_retriever.dataset)
        for bench in SUITES[suite]():
            assert ranking(small_retriever, bench.program, method, n) == \
                spec_rank(small_retriever, bench.program, method, n), \
                bench.name

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_bm25_scores_equal_scalar_score(self, small_retriever, suite):
        index = small_retriever.index
        for bench in SUITES[suite]():
            query = scop_body_to_c(bench.program)
            scores = index.scores(query)
            assert len(scores) == len(index)
            matched = dict(spec_search(index, query, len(index)))
            for doc_id in range(len(index)):
                expected = matched.get(doc_id, 0.0)
                assert scores[doc_id] == expected, (bench.name, doc_id)
                assert index.score(query, doc_id) == expected

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_bm25_rank_equals_dict_search(self, small_retriever, suite):
        n = len(small_retriever.dataset)
        for bench in SUITES[suite]():
            query = scop_body_to_c(bench.program)
            got = [(d.entry.name, d.score, d.breakdown)
                   for d in small_retriever.rank(bench.program, "bm25", n)]
            want = [(small_retriever.dataset[doc_id].name, score, None)
                    for doc_id, score in
                    spec_search(small_retriever.index, query, n)]
            assert got == want, bench.name


class TestColumnarEdges:
    def test_empty_dataset_ranks_to_nothing(self, gemm):
        retriever = Retriever(Dataset(entries=(), generator="looprag",
                                      seed=0))
        for method in ("loop-aware", "bm25", "weighted"):
            assert retriever.rank(gemm, method) == []
        assert len(retriever.index.scores("C[i][j] += 1;")) == 0

    def test_target_longer_than_every_entry(self, small_retriever, gemm,
                                            jacobi2d):
        dataset = with_examples(small_retriever.dataset, [
            ("one", ONE_STMT.format(name="one", rhs="B[i-1]")),
            ("two", ONE_STMT.format(name="two", rhs="A[i-1] * 2.0"))])
        retriever = Retriever(dataset)
        for target in (gemm, jacobi2d):
            assert len(target.statements) > 1
            for method in ("loop-aware", "weighted"):
                got = ranking(retriever, target, method, 2)
                assert got == spec_rank(retriever, target, method, 2)
                assert all(b.mismatch > 0 for _, _, b in got)

    def test_kind_empty_on_both_sides(self, small_retriever):
        """No reads in target or example: the scalar loop skips the
        read_index term; the columns add an exact +0.0 from an empty
        vocabulary."""
        target = parse_scop(ONE_STMT.format(name="t", rhs="1.0"))
        dataset = with_examples(small_retriever.dataset, [
            ("noreads", ONE_STMT.format(name="noreads", rhs="2.0")),
            ("reads", ONE_STMT.format(name="reads", rhs="B[i]"))])
        assert statement_features(target.statements[0]) \
            .items("read_index") == ()
        retriever = Retriever(dataset)
        for method in ("loop-aware", "weighted"):
            assert ranking(retriever, target, method, 2) == \
                spec_rank(retriever, target, method, 2)

    def test_ties_ordered_by_name_then_doc_order(self, small_retriever,
                                                 gemm):
        source = ONE_STMT.format(name="k", rhs="B[i-1]")
        dataset = with_examples(small_retriever.dataset, [
            ("b", source), ("a", source), ("b", source), ("a", source)])
        retriever = Retriever(dataset)
        for method in ("loop-aware", "bm25", "weighted"):
            ranked = retriever.rank(gemm, method, 4)
            assert len({d.score for d in ranked}) == 1
            expected = [1, 3, 0, 2] if method != "bm25" else [0, 1, 2, 3]
            assert [id(d.entry) for d in ranked] == \
                [id(dataset[i]) for i in expected]

    def test_add_after_query_matches_fresh_index(self):
        docs = ["a[i] = b[i] + c[i];", "C[i][j] += A[i][k] * B[k][j];",
                "x[i] = x[i-1] * 0.5;", "a[i] = a[i] * c[i] + x[i];"]
        queries = ["a[i] = b[i] * x[i];", "C[i][j] += A[i][k];", "zzz"]
        grown = BM25Index()
        for doc in docs[:2]:
            grown.add(doc)
        for query in queries:
            grown.scores(query)
            grown.search(query)
        for doc in docs[2:]:
            grown.add(doc)
        fresh = BM25Index()
        for doc in docs:
            fresh.add(doc)
        for query in queries:
            assert grown.scores(query).tolist() == \
                fresh.scores(query).tolist()
            assert grown.search(query, 4) == fresh.search(query, 4)
            for doc_id in range(len(docs)):
                assert grown.scores(query)[doc_id] == \
                    grown.score(query, doc_id)


def packed_features(items_by_kind):
    return StatementFeatures(statement="S", features=tuple(
        (kind, tuple(sorted(items_by_kind[kind].items())))
        for kind in FEATURE_KINDS))


feature_items = st.dictionaries(st.sampled_from("abcdef"),
                                st.integers(1, 3), max_size=5)
statements = st.fixed_dictionaries(
    {kind: feature_items for kind in FEATURE_KINDS}).map(packed_features)
programs = st.lists(statements, max_size=4)
words = st.text(alphabet="abcxyz", min_size=1, max_size=3)
texts = st.lists(words, min_size=1, max_size=12).map(" ".join)


class TestColumnarProperties:
    """Random corpora: the columns equal the scalar spec with ``==``
    (the fixed corpora above can miss a reordered float sum)."""

    @given(st.lists(st.tuples(programs, st.floats(0.0, 10.0)),
                    max_size=6), programs)
    @settings(max_examples=200, deadline=None)
    def test_lascore_columns_equal_lascore(self, corpus, target):
        columns = LAScoreColumns(example for example, _ in corpus)
        base = np.array([sb for _, sb in corpus], dtype=np.float64)
        feature, mismatch, total = columns.score(target, base)
        for e, (example, sb) in enumerate(corpus):
            spec = lascore(target, example, sb)
            assert (feature[e], mismatch[e], total[e]) == \
                (spec.feature_score, spec.mismatch, spec.total)

    @given(st.lists(texts, min_size=1, max_size=8), texts)
    @settings(max_examples=200, deadline=None)
    def test_bm25_columns_equal_scalar_score(self, docs, query):
        index = BM25Index()
        for doc in docs:
            index.add(doc)
        assert index.scores(query).tolist() == \
            [index.score(query, doc_id) for doc_id in range(len(docs))]
        assert [(d.doc_id, d.score)
                for d in index.search(query, len(docs))] == \
            spec_search(index, query, len(docs))
