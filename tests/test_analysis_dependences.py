"""Dependence analysis tests."""

import pytest

from repro.ir import parse_scop
from repro.analysis import (KIND_RAW, KIND_WAR, KIND_WAW, dependences,
                            is_legal_schedule, is_parallel_dim,
                            parallel_violations, schedule_violations)
from repro.transforms import interchange, tile


def kinds_of(deps):
    return {(d.kind, d.source, d.target, d.array) for d in deps}


class TestKinds:
    def test_gemm_dependences(self, gemm):
        ks = kinds_of(dependences(gemm))
        assert (KIND_RAW, "S1", "S2", "C") in ks
        assert (KIND_WAW, "S1", "S2", "C") in ks
        assert (KIND_RAW, "S2", "S2", "C") in ks

    def test_syrk_has_all_three_kinds(self, syrk):
        # §2.1: *= and += induce WAW, WAR and RAW on C
        kinds = {d.kind for d in dependences(syrk)}
        assert kinds == {KIND_RAW, KIND_WAW, KIND_WAR}

    def test_stream_has_no_dependences(self, stream):
        assert dependences(stream) == []

    def test_recurrence_distance_one(self, recur):
        deps = dependences(recur)
        raw = [d for d in deps if d.kind == KIND_RAW]
        assert raw and raw[0].constant_distance == (1,)
        assert raw[0].loop_carried

    def test_jacobi_cross_statement(self, jacobi2d):
        ks = kinds_of(dependences(jacobi2d))
        assert (KIND_RAW, "S1", "S2", "B") in ks
        assert (KIND_RAW, "S2", "S1", "A") in ks


class TestDistances:
    def test_reduction_distance(self, gemm):
        deps = dependences(gemm)
        self_raw = [d for d in deps
                    if d.kind == KIND_RAW and d.source == d.target == "S2"]
        assert self_raw[0].constant_distance == (0, 1, 0)

    def test_loop_independent(self, gemm):
        deps = dependences(gemm)
        cross = [d for d in deps
                 if d.kind == KIND_RAW and d.source == "S1"
                 and d.target == "S2"]
        assert cross[0].constant_distance == (0, 0)
        assert not cross[0].loop_carried


class TestLegality:
    def test_original_is_legal(self, gemm, syrk, jacobi2d):
        for p in (gemm, syrk, jacobi2d):
            assert is_legal_schedule(p, dependences(p))

    def test_legal_interchange(self, gemm):
        deps = dependences(gemm)
        t = interchange(gemm, 3, 5, stmts=["S2"])
        assert is_legal_schedule(t, deps)

    def test_illegal_interchange_detected(self, gemm):
        deps = dependences(gemm)
        t = interchange(gemm, 1, 3, stmts=["S2"])  # pull k above i for S2 only
        violations = schedule_violations(t, deps)
        assert violations

    def test_recurrence_reversal_illegal(self, recur):
        from repro.ir import LoopDim, var
        deps = dependences(recur)
        stmt = recur.statements[0]
        sched = stmt.schedule.with_dim(1, LoopDim(var("i") * -1))
        reversed_p = recur.with_statement("S1", stmt.with_schedule(sched))
        assert not is_legal_schedule(reversed_p, deps)

    def test_tile_gemm_band_illegal_without_fusion(self, gemm):
        # blocking i with the mismatched inner dims reorders S1 vs S2
        deps = dependences(gemm)
        t = tile(gemm, [1, 3], 4)
        assert not is_legal_schedule(t, deps)


class TestParallelism:
    def test_gemm_outer_parallel(self, gemm):
        assert is_parallel_dim(gemm, dependences(gemm), 1)

    def test_gemm_reduction_loop_not_parallel(self, gemm):
        assert not is_parallel_dim(gemm, dependences(gemm), 3)

    def test_stream_parallel(self, stream):
        assert is_parallel_dim(stream, dependences(stream), 1)

    def test_recurrence_not_parallel(self, recur):
        assert not is_parallel_dim(recur, dependences(recur), 1)

    def test_violations_name_the_dependence(self, recur):
        deps = dependences(recur)
        violations = parallel_violations(recur, deps, 1)
        assert violations and violations[0].array == "X"


class TestMemoization:
    def test_cached_identity(self, gemm):
        assert dependences(gemm) is dependences(gemm)

    def test_different_programs_not_shared(self, gemm, syrk):
        assert dependences(gemm) is not dependences(syrk)

    def test_explicit_params_cached_separately(self, gemm):
        default = dependences(gemm)
        explicit = dependences(gemm, {"NI": 10, "NJ": 10, "NK": 10})
        assert default is dependences(gemm)
        assert explicit is dependences(gemm, {"NI": 10, "NJ": 10,
                                              "NK": 10})
        assert default is not explicit


class TestStructuralMemoKey:
    """``dependences()`` is keyed on exactly what the analysis reads."""

    @pytest.fixture(params=["vectorized", "reference"])
    def counted(self, request, monkeypatch):
        """Analyses run under each engine, against an empty memo."""
        import sys

        from repro.analysis.dependences import analysis_override

        # the package re-exports a `dependences` *function*, shadowing
        # the submodule attribute — go through sys.modules
        dep_mod = sys.modules["repro.analysis.dependences"]
        monkeypatch.setattr(dep_mod, "_DEP_CACHE", dep_mod._LRUCache(64))
        compute = dep_mod.compute_dependences
        calls = []

        def counting(program, params=None):
            calls.append(program.name)
            return compute(program, params)

        monkeypatch.setattr(dep_mod, "compute_dependences", counting)
        with analysis_override(request.param):
            yield calls

    def test_pragma_and_metadata_variants_share_one_analysis(
            self, counted, gemm):
        from dataclasses import replace

        variants = [
            gemm.with_parallel(frozenset({1})),
            gemm.with_vector(frozenset({5})),
            gemm.with_provenance("pluto", "tile"),
            gemm.with_tags("pure-annotated"),
            replace(gemm, scalars=(("alpha", 2.0), ("beta", 0.5))),
            replace(gemm, outputs=()),
            gemm.renamed("gemm_twin"),
        ]
        base = dependences(gemm)
        for variant in variants:
            assert variant != gemm
            assert dependences(variant) is base
        assert counted == ["gemm"]

    def test_statement_changes_get_their_own_analysis(self, counted,
                                                      gemm):
        from dataclasses import replace

        from repro.ir import var

        s1, s2 = gemm.statements
        variants = [
            interchange(gemm, 3, 5, stmts=["S2"]),
            gemm.with_statement("S2", s2.with_guards((var("k") - 1,))),
            gemm.with_statement("S2", s2.with_body(s1.body)),
            gemm.with_statements([s1, replace(s2, name="T2")]),
        ]
        results = [dependences(gemm)]
        for variant in variants:
            results.append(dependences(variant))
        assert len(counted) == 1 + len(variants)
        assert len({id(r) for r in results}) == len(results)


class TestTwoSizeConcretization:
    """Witnesses are collected at two sizes and keep their own binding."""

    def test_witnesses_carry_both_bindings(self, gemm):
        deps = dependences(gemm)
        sizes = set()
        for dep in deps:
            for src, _tgt in dep.witnesses:
                env = dict(src[1])
                sizes.add(env.get("NI"))
        assert sizes == {10, 13}

    def test_long_distance_dependence_needs_larger_size(self):
        # the RAW distance is 11: the consumer's domain is empty at the
        # default size 10, so a single-size concretization misses the
        # class entirely and would bless an illegal statement reordering
        p = parse_scop("""
        scop longdist(N) {
          array A[N] output;
          array B[N] output;
          for (i = 0; i < N; i++)
            A[i] = 1.0;
          for (i = 11; i < N; i++)
            B[i] = A[i - 11];
        }
        """)
        only_small = dependences(p, {"N": 10})
        assert only_small == []
        merged = dependences(p)
        carried = [d for d in merged if d.loop_carried]
        assert carried and carried[0].constant_distance == (11,)

        from repro.ir import ConstDim
        s1 = p.statements[0]
        moved = p.with_statement(
            s1.name,
            s1.with_schedule(s1.schedule.with_dim(0, ConstDim(2))))
        assert schedule_violations(moved, merged)
        assert not schedule_violations(moved, only_small)
