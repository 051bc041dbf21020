"""SCoP programs.

A :class:`Program` is the unit everything else operates on: the synthesizer
emits them, compilers transform them, the interpreter executes them, the
cost model prices them and the pipeline optimizes them.  It corresponds to
the region between ``#pragma scop`` / ``#pragma endscop`` in the paper plus
the PolyBench-style surroundings (array declarations, init spec, outputs).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .affine import Affine, AffineLike, aff
from .schedule import Schedule, align_schedules
from .statement import Statement

#: Built-in deterministic array initialisation patterns (runtime.data).
INIT_KINDS = ("poly", "zeros", "ones", "ramp", "alt", "identity")


@dataclass(frozen=True)
class ArrayDecl:
    """Array declaration: name, per-dimension sizes (affine in params)."""

    name: str
    dims: Tuple[Affine, ...]
    init: str = "poly"

    def __post_init__(self) -> None:
        if self.init not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.init!r}")

    @property
    def rank(self) -> int:
        return len(self.dims)

    def shape(self, params: Mapping[str, int]) -> Tuple[int, ...]:
        return tuple(d.evaluate(params) for d in self.dims)

    def __str__(self) -> str:
        return self.name + "".join(f"[{d}]" for d in self.dims)


@dataclass(frozen=True)
class Program:
    """A complete SCoP program.

    ``parallel_dims`` / ``vector_dims`` are schedule dimension indices (on
    the aligned schedule width) marked ``#pragma omp parallel for`` and
    vectorized, respectively.  They carry no semantics — the interpreter
    ignores them — but the machine model prices them, and legality checking
    validates them the same way it validates schedule rewrites.
    """

    name: str
    params: Tuple[str, ...]
    arrays: Tuple[ArrayDecl, ...]
    statements: Tuple[Statement, ...]
    scalars: Tuple[Tuple[str, float], ...] = ()
    outputs: Tuple[str, ...] = ()
    parallel_dims: FrozenSet[int] = frozenset()
    vector_dims: FrozenSet[int] = frozenset()
    provenance: Tuple[str, ...] = ()
    #: free-form markers such as "dummy-call" (TSVC kernels call an opaque
    #: ``dummy()`` per outer iteration) or "pure-annotated" (the
    #: ``__attribute__((pure))`` fix of Appendix C); compilers key SCoP
    #: detection behaviour off these.
    tags: FrozenSet[str] = frozenset()

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(name)

    def array_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.arrays)

    def statement(self, name: str) -> Statement:
        for s in self.statements:
            if s.name == name:
                return s
        raise KeyError(name)

    def scalar_values(self) -> Dict[str, float]:
        return dict(self.scalars)

    @property
    def max_depth(self) -> int:
        return max((s.domain.depth for s in self.statements), default=0)

    def aligned_schedules(self) -> List[Schedule]:
        return align_schedules([s.schedule for s in self.statements])

    @property
    def schedule_width(self) -> int:
        return max((len(s.schedule.dims) for s in self.statements), default=0)

    # ------------------------------------------------------------------
    # Rebuilding
    # ------------------------------------------------------------------
    def with_statements(self, statements: Sequence[Statement]) -> "Program":
        return replace(self, statements=tuple(statements))

    def with_statement(self, name: str, new: Statement) -> "Program":
        return self.with_statements(
            tuple(new if s.name == name else s for s in self.statements))

    def with_parallel(self, dims: FrozenSet[int]) -> "Program":
        return replace(self, parallel_dims=frozenset(dims))

    def with_vector(self, dims: FrozenSet[int]) -> "Program":
        return replace(self, vector_dims=frozenset(dims))

    def with_provenance(self, *notes: str) -> "Program":
        return replace(self, provenance=self.provenance + tuple(notes))

    def with_tags(self, *tags: str) -> "Program":
        return replace(self, tags=self.tags | frozenset(tags))

    def renamed(self, name: str) -> "Program":
        return replace(self, name=name)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash — the cache key for testing/cost results.

        Memoized on the instance (the class is frozen, so the content can
        never change): every cache keyed on a fingerprint — equivalence
        verdicts, the compiled-kernel cache, branch-coverage
        registration — pays the hash once per program object instead of
        once per lookup.
        """
        return self._identity()[0]

    def analysis_key(self) -> str:
        """Hash of exactly what dependence analysis reads.

        The parameters plus each statement's text (name, domain,
        schedule, guards, body).  Pragma marks, tags, scalars, outputs,
        array declarations, provenance and the program name stay out,
        so programs that differ only there share one memoized analysis.
        """
        return self._identity()[1]

    def _identity(self) -> Tuple[str, str]:
        """``(fingerprint, analysis key)``, rendered from one statement
        text and memoized together on the instance."""
        cached = self.__dict__.get("_identity_keys")
        if cached is not None:
            return cached
        params = ",".join(self.params)
        statements = ";".join(str(s) for s in self.statements)
        text = "|".join([
            params,
            ";".join(str(a) + ":" + a.init for a in self.arrays),
            statements,
            ",".join(f"{k}={v}" for k, v in self.scalars),
            ",".join(self.outputs),
            ",".join(map(str, sorted(self.parallel_dims))),
            ",".join(map(str, sorted(self.vector_dims))),
            ",".join(sorted(self.tags)),
        ])
        cached = (hashlib.sha256(text.encode()).hexdigest()[:16],
                  hashlib.sha256(f"{params}|{statements}".encode())
                  .hexdigest()[:16])
        object.__setattr__(self, "_identity_keys", cached)
        return cached

    def __str__(self) -> str:
        lines = [f"program {self.name}({', '.join(self.params)})"]
        for a in self.arrays:
            lines.append(f"  array {a}")
        for s in self.statements:
            lines.append(f"  {s}")
        return "\n".join(lines)


def make_program(name: str,
                 params: Sequence[str],
                 arrays: Sequence[ArrayDecl],
                 statements: Sequence[Statement],
                 scalars: Optional[Mapping[str, float]] = None,
                 outputs: Optional[Sequence[str]] = None) -> Program:
    """Construct a program, defaulting outputs to every written array."""
    if outputs is None:
        outputs = sorted({s.write().array for s in statements})
    return Program(
        name=name,
        params=tuple(params),
        arrays=tuple(arrays),
        statements=tuple(statements),
        scalars=tuple(sorted((scalars or {}).items())),
        outputs=tuple(outputs),
    )
