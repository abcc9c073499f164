"""The stratified chase (Section 4.2).

The chase applies the target tgds *in statement order*, each to
saturation, so that the operands of aggregations and table functions
are completely known before they fire — the paper's stratified
variation of the classical procedure.  All tgds are full, so every
generated tuple is made of constants and the procedure terminates.

Functionality egds are checked *incrementally*: inserting a tuple
whose dimension tuple is already present with a different measure is a
chase failure.  Section 4.2 proves this cannot happen for mappings
generated from valid EXL programs; the check is kept as a defensive
invariant (and is exercised by tests with hand-built broken mappings).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Collection, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ChaseError, ChaseSourceError
from ..mappings.dependencies import Atom, Tgd, TgdKind
from ..mappings.mapping import SchemaMapping
from ..mappings.terms import AggTerm, Const, FuncApp, Term, Var, evaluate
from ..model.time import TimePoint
from ..obs import NULL_TRACER, MetricsRegistry
from ..stats.aggregates import get_aggregate
from . import columnar
from .instance import RelationalInstance

__all__ = ["ChaseStats", "ChaseResult", "StratifiedChase", "DEFAULT_VECTORIZED"]

#: Default for ``StratifiedChase(vectorized=None)``.  Read at
#: construction time, so the test harness can flip it process-wide
#: (``pytest --no-vectorize``) without threading a flag everywhere.
DEFAULT_VECTORIZED = True


@dataclass
class ChaseStats:
    """Counters describing one chase run.

    ``waves``/``max_wave_width`` describe the stratum DAG schedule of
    the parallel scheduler (a sequential run is one tgd per wave).
    """

    rule_applications: int = 0
    tuples_generated: int = 0
    per_tgd: Dict[str, int] = field(default_factory=dict)
    waves: int = 0
    max_wave_width: int = 0
    # target tgds that ran on a columnar kernel vs. the ones that fell
    # back to the tuple-at-a-time path (table functions, outer
    # vectorials, …).  Both stay 0 with ``vectorized=False``.
    vectorized_tgds: int = 0
    fallback_tgds: int = 0
    # why each fallback happened (FallbackUnsupported reason -> count)
    fallback_reasons: Dict[str, int] = field(default_factory=dict)
    # sharded execution (chase.shard): worker-process count, tuples
    # generated per shard, wall time spent merging/re-reducing shard
    # outputs, and why individual tgds ran in the parent instead of a
    # shard.  All stay zero/empty outside ShardedStratifiedChase runs.
    shards: int = 0
    shard_tuples: List[int] = field(default_factory=list)
    shard_merge_s: float = 0.0
    shard_fallback_reasons: Dict[str, int] = field(default_factory=dict)


@dataclass
class ChaseResult:
    """Solution instance plus run statistics."""

    instance: RelationalInstance
    stats: ChaseStats
    #: the metrics registry the run recorded into (the chase's own
    #: per-engine registry unless the caller supplied a shared one)
    metrics: Optional[MetricsRegistry] = None
    #: the functional (egd) index built during the run: relation ->
    #: {dims: measure}.  May be *incomplete* for single-writer
    #: relations inserted on the vectorized fast path (which proves key
    #: distinctness without populating it); the delta chase snapshot
    #: completes missing relations lazily from the instance.
    functional: Dict[str, Dict[Tuple, Any]] = field(default_factory=dict)


class StratifiedChase:
    """Chases a source instance through a generated schema mapping.

    ``use_indexes=False`` disables the hash-join indexes built while
    matching multi-atom lhs conjunctions, falling back to nested-loop
    matching — kept as an ablation knob (see bench_chase_ablation).
    """

    def __init__(
        self,
        mapping: SchemaMapping,
        use_indexes: bool = True,
        vectorized: Optional[bool] = None,
        kernel_hook=None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.mapping = mapping
        self.registry = mapping.registry
        self.use_indexes = use_indexes
        #: columnar kernels on/off; ``None`` defers to the module default
        self.vectorized = (
            DEFAULT_VECTORIZED if vectorized is None else bool(vectorized)
        )
        #: optional ``hook(used: bool, reason: Optional[str])`` called per
        #: target-tgd kernel decision (ChaseBackend aggregates counters
        #: across runs here)
        self.kernel_hook = kernel_hook
        #: span sink; the shared no-op tracer unless the caller traces
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: named counter/histogram sink (one per chase unless shared)
        self.metrics = MetricsRegistry() if metrics is None else metrics
        # compiled kernel plans, keyed by tgd identity
        self._kernel_plans: Dict[int, Tuple[Tgd, Any]] = {}
        # relations written by exactly one tgd: the functional index is
        # only ever *read* by a later tgd writing the same relation, so
        # a single-writer batch whose keys are proven distinct can skip
        # populating it (mappings generated from programs define every
        # cube once; hand-built multi-writer mappings keep the index)
        writers: Dict[str, int] = {}
        for tgd in list(mapping.st_tgds) + list(mapping.target_tgds):
            writers[tgd.target_relation] = writers.get(tgd.target_relation, 0) + 1
        self._single_writer = {r for r, count in writers.items() if count == 1}

    def run(self, source: RelationalInstance) -> ChaseResult:
        """Compute the data exchange solution for ``source``."""
        self._check_source(source)
        stats = ChaseStats()
        target = RelationalInstance()
        # functional index: relation -> {dims: measure}, for egd checking
        functional: Dict[str, Dict[Tuple, Any]] = {}

        with self.tracer.span("chase", category="chase") as chase_span:
            with self.tracer.span("wave:copy", category="wave",
                                  width=len(self.mapping.st_tgds)):
                for tgd in self.mapping.st_tgds:
                    reads = source.size(tgd.lhs[0].relation)
                    with self._tgd_span(tgd):
                        produced = self._apply_copy(
                            tgd, source, target, functional
                        )
                    self._record(stats, tgd, produced, reads=reads)
            # statement order: each target tgd is its own wave, so the
            # wave metrics stay comparable with the parallel scheduler
            for index, tgd in enumerate(self.mapping.target_tgds):
                started = time.perf_counter()
                with self.tracer.span(f"wave:{index + 1}", category="wave",
                                      width=1):
                    reads = self._operand_rows(tgd, target)
                    with self._tgd_span(tgd):
                        produced = self._apply(tgd, target, functional, stats)
                self._record(stats, tgd, produced, reads=reads)
                self._note_wave(1, time.perf_counter() - started)
            chase_span.note(
                tuples_generated=stats.tuples_generated,
                waves=len(self.mapping.target_tgds),
            )
        stats.waves = len(self.mapping.target_tgds)
        stats.max_wave_width = 1 if self.mapping.target_tgds else 0
        return ChaseResult(target, stats, metrics=self.metrics, functional=functional)

    def _check_source(self, source: RelationalInstance) -> None:
        """Every copy tgd's operand must exist in the source instance.

        A relation that was never registered (not even empty) means the
        caller forgot an input cube: silently chasing an empty relation
        would just produce an inexplicably empty solution.
        """
        for tgd in self.mapping.st_tgds:
            relation = tgd.lhs[0].relation
            if relation not in source:
                raise ChaseSourceError(
                    f"tgd {tgd.label or tgd.target_relation!r} references "
                    f"relation {relation!r}, which is absent from the source "
                    f"instance (known relations: {sorted(source.relations())})"
                )

    # -- observability hooks -------------------------------------------------
    def _tgd_span(self, tgd: Tgd, parent=None):
        """The span of one rule application (a no-op unless tracing)."""
        return self.tracer.span(
            f"tgd:{tgd.label or tgd.target_relation}",
            category="tgd",
            parent=parent,
            kind=tgd.kind.value,
        )

    @staticmethod
    def _operand_rows(tgd: Tgd, instance: RelationalInstance) -> int:
        """Tuples the tgd's lhs reads (relation sizes at apply time)."""
        return sum(instance.size(atom.relation) for atom in tgd.lhs)

    def _note_wave(self, width: int, duration_s: float) -> None:
        self.metrics.inc("chase.waves")
        self.metrics.observe("chase.wave.width", width)
        self.metrics.observe("chase.wave.duration_s", duration_s)

    # -- rule application --------------------------------------------------
    def _record(
        self, stats: ChaseStats, tgd: Tgd, produced: int, reads: int = 0
    ) -> None:
        stats.rule_applications += 1
        stats.tuples_generated += produced
        stats.per_tgd[tgd.label or tgd.target_relation] = produced
        self.metrics.inc("chase.rule_applications")
        self.metrics.inc("chase.tuples.inserted", produced)
        self.metrics.inc("chase.tuples.read", reads)

    def _note_kernel(
        self,
        stats: Optional[ChaseStats],
        used: bool,
        reason: Optional[str] = None,
    ) -> None:
        """Record one kernel decision; the parallel scheduler serializes it."""
        if stats is not None:
            if used:
                stats.vectorized_tgds += 1
            else:
                stats.fallback_tgds += 1
                if reason:
                    stats.fallback_reasons[reason] = (
                        stats.fallback_reasons.get(reason, 0) + 1
                    )
        if used:
            self.metrics.inc("chase.kernel.vectorized")
        else:
            self.metrics.inc("chase.kernel.fallback")
            if reason:
                self.metrics.inc(f"chase.kernel.fallback.reason:{reason}")
        if self.kernel_hook is not None:
            self.kernel_hook(used, reason)

    def _apply(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        stats: Optional[ChaseStats] = None,
    ) -> int:
        if self.vectorized:
            if tgd.kind is TgdKind.COPY:
                produced = self._copy_columnar(tgd, target, target, functional)
                if produced is not None:
                    self._note_kernel(stats, used=True)
                    return produced
            try:
                produced = columnar.apply_vectorized(
                    tgd,
                    target,
                    target,
                    functional,
                    self.registry,
                    self._insert_batch,
                    self._kernel_plans,
                    tracer=self.tracer,
                    metrics=self.metrics,
                )
            except columnar.FallbackUnsupported as unsupported:
                self._note_kernel(stats, used=False, reason=str(unsupported))
            else:
                self._note_kernel(stats, used=True)
                return produced
        return self._apply_scalar(tgd, target, functional)

    def _apply_scalar(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        if tgd.kind is TgdKind.COPY:
            return self._apply_copy(tgd, target, target, functional)
        if tgd.kind is TgdKind.TUPLE_LEVEL:
            return self._apply_tuple_level(tgd, target, functional)
        if tgd.kind is TgdKind.OUTER_TUPLE_LEVEL:
            return self._apply_outer_tuple_level(tgd, target, functional)
        if tgd.kind is TgdKind.AGGREGATION:
            return self._apply_aggregation(tgd, target, functional)
        return self._apply_table_function(tgd, target, functional)

    def _apply_copy(
        self,
        tgd: Tgd,
        source: RelationalInstance,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        relation = tgd.lhs[0].relation
        if self.vectorized:
            adopted = self._copy_columnar(tgd, source, target, functional)
            if adopted is not None:
                return adopted
            # materialized as a list on purpose: the batch must flow
            # element-wise into the target store so the insertion
            # sequence matches what per-fact inserts build
            return self._insert_batch(
                target,
                functional,
                tgd.target_relation,
                list(source.facts(relation)),
            )
        produced = 0
        for fact in source.facts(relation):
            produced += self._insert(target, functional, tgd.target_relation, fact)
        self.metrics.inc("chase.egd.checks", source.size(relation))
        return produced

    def _copy_columnar(
        self,
        tgd: Tgd,
        source: RelationalInstance,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> Optional[int]:
        """Copy-tgd adoption: share the operand's column buffers.

        When the operand relation is columnar with provably distinct
        dimension tuples and the (single-writer, still empty) target
        relation will never consult the functional index, the copy is
        O(1): the store is adopted copy-on-write — no per-fact insert,
        no re-encode.  Returns None when the preconditions fail and the
        caller must run the element-wise path.
        """
        relation = tgd.target_relation
        if relation not in self._single_writer or functional.get(relation):
            return None
        store = source.export_store(tgd.lhs[0].relation)
        if store is None or not store.dims_distinct:
            return None
        with target.lock(relation):
            adopted = target.adopt(relation, store)
        if adopted is None:
            return None
        self.metrics.inc("chase.egd.checks", adopted)
        return adopted

    def _apply_tuple_level(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        produced = 0
        checks = 0
        for env in self._matches(tgd.lhs, target):
            fact = tuple(
                evaluate(term, env, self.registry) for term in tgd.rhs.terms
            )
            produced += self._insert(target, functional, tgd.rhs.relation, fact)
            checks += 1
        self.metrics.inc("chase.egd.checks", checks)
        return produced

    def _apply_outer_tuple_level(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        """Vectorial rule with a default for missing tuples: the result
        is defined on the union of the two operands' dimension tuples,
        padding the absent side with the tgd's default value."""
        left_atom, right_atom = tgd.lhs
        left = {f[:-1]: f[-1] for f in target.facts(left_atom.relation)}
        right = {f[:-1]: f[-1] for f in target.facts(right_atom.relation)}
        default = tgd.outer_default
        produced = 0
        left_measure = left_atom.terms[-1]
        right_measure = right_atom.terms[-1]
        dim_terms = left_atom.terms[:-1]
        keys = left.keys() | right.keys()
        self.metrics.inc("chase.egd.checks", len(keys))
        for dims in keys:
            env = {
                term.name: value
                for term, value in zip(dim_terms, dims)
                if isinstance(term, Var)
            }
            env[left_measure.name] = left.get(dims, default)
            env[right_measure.name] = right.get(dims, default)
            fact = tuple(
                evaluate(term, env, self.registry) for term in tgd.rhs.terms
            )
            produced += self._insert(target, functional, tgd.rhs.relation, fact)
        return produced

    def _apply_aggregation(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        atom = tgd.lhs[0]
        group_terms = tgd.rhs.terms[: tgd.group_arity]
        agg_term = tgd.rhs.terms[-1]
        if not isinstance(agg_term, AggTerm):
            raise ChaseError("aggregation tgd without an aggregate term")
        aggregate = get_aggregate(agg_term.func)
        groups: Dict[Tuple, List[float]] = {}
        for env in self._matches([atom], target):
            key = tuple(evaluate(t, env, self.registry) for t in group_terms)
            value = evaluate(agg_term.operand, env, self.registry)
            groups.setdefault(key, []).append(value)
        produced = 0
        self.metrics.inc("chase.egd.checks", len(groups))
        for key, bag in groups.items():
            # fold-sensitive aggregates reduce the bag in canonical
            # order internally (stats.aggregates.canonical_bag), so the
            # result is independent of operand enumeration order
            fact = key + (aggregate(bag),)
            produced += self._insert(target, functional, tgd.rhs.relation, fact)
        return produced

    def _apply_table_function(
        self,
        tgd: Tgd,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
    ) -> int:
        spec = self.registry.get(tgd.table_function)
        operand = tgd.lhs[0].relation
        rows = sorted(target.facts(operand), key=_time_key)
        series = [(fact[0], fact[-1]) for fact in rows]
        result = spec.impl(series, tgd.params_dict())
        produced = 0
        checks = 0
        for point, value in result:
            produced += self._insert(
                target, functional, tgd.rhs.relation, (point, float(value))
            )
            checks += 1
        self.metrics.inc("chase.egd.checks", checks)
        return produced

    # -- matching ----------------------------------------------------------
    def _matches(
        self, atoms: Sequence[Atom], instance: RelationalInstance
    ) -> Iterator[Dict[str, Any]]:
        """Enumerate variable assignments satisfying the conjunction.

        Atoms are matched left to right.  For every atom after the
        first, a hash index is built on the positions whose value is
        determined by the bindings so far (bound variables, constants,
        or computable function terms), so equi-joins run in linear
        time instead of as nested loops.
        """
        yield from self._match_rest(list(atoms), 0, {}, instance, {})

    def _match_rest(
        self,
        atoms: List[Atom],
        index: int,
        env: Dict[str, Any],
        instance: RelationalInstance,
        index_cache: Dict,
    ) -> Iterator[Dict[str, Any]]:
        if index == len(atoms):
            yield env
            return
        atom = atoms[index]
        bound = set(env)
        key_positions = [
            i for i, term in enumerate(atom.terms) if _determined(term, bound)
        ]
        if key_positions and index > 0 and self.use_indexes:
            cache_key = (index, atom.relation, tuple(key_positions))
            if cache_key not in index_cache:
                built: Dict[Tuple, List[Tuple]] = {}
                for fact in instance.facts(atom.relation):
                    built.setdefault(
                        tuple(fact[i] for i in key_positions), []
                    ).append(fact)
                index_cache[cache_key] = built
            key = tuple(
                evaluate(atom.terms[i], env, self.registry) for i in key_positions
            )
            candidates = index_cache[cache_key].get(key, ())
        else:
            candidates = instance.facts(atom.relation)
        for fact in candidates:
            extended = self._unify(atom, fact, env)
            if extended is not None:
                yield from self._match_rest(
                    atoms, index + 1, extended, instance, index_cache
                )

    def _unify(
        self, atom: Atom, fact: Tuple, env: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        if len(atom.terms) != len(fact):
            raise ChaseError(
                f"arity mismatch matching {atom} against fact of length {len(fact)}"
            )
        extended = dict(env)
        for term, value in zip(atom.terms, fact):
            if isinstance(term, Var):
                if term.name in extended:
                    if extended[term.name] != value:
                        return None
                else:
                    extended[term.name] = value
            elif isinstance(term, Const):
                if term.value != value:
                    return None
            elif isinstance(term, FuncApp):
                solved = self._solve(term, value, extended)
                if solved is None:
                    return None
                extended = solved
            else:
                raise ChaseError(f"cannot match term {term} in a lhs atom")
        return extended

    def _solve(
        self, term: FuncApp, value: Any, env: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Match a function term in a lhs atom against a value.

        If all variables are bound the term is evaluated and compared;
        otherwise the invertible shift shape ``v ± const`` is solved for
        its variable (this is how the simplified tgd (5)'s ``q - 1``
        atom is matched).
        """
        free = [v for v in _term_variables(term) if v not in env]
        if not free:
            return env if evaluate(term, env, self.registry) == value else None
        if (
            term.name in ("+", "-")
            and len(term.args) == 2
            and isinstance(term.args[0], Var)
            and isinstance(term.args[1], Const)
            and term.args[0].name not in env
        ):
            shift = term.args[1].value
            inverse = FuncApp("-" if term.name == "+" else "+", (Const(value), Const(shift)))
            solved_value = evaluate(inverse, {}, self.registry)
            extended = dict(env)
            extended[term.args[0].name] = solved_value
            return extended
        raise ChaseError(
            f"cannot match lhs term {term}: variables {free} are unbound and "
            f"the term is not invertible"
        )

    # -- insertion with incremental egd check --------------------------------
    def _insert(
        self,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        relation: str,
        fact: Tuple,
    ) -> int:
        dims, measure = fact[:-1], fact[-1]
        seen = functional.setdefault(relation, {})
        if dims in seen:
            if seen[dims] != measure:
                raise ChaseError(
                    f"egd violation (chase failure): {relation}{dims!r} would "
                    f"hold both {seen[dims]!r} and {measure!r}"
                )
            return 0
        seen[dims] = measure
        return 1 if target.add(relation, fact) else 0

    def _insert_batch(
        self,
        target: RelationalInstance,
        functional: Dict[str, Dict[Tuple, Any]],
        relation: str,
        facts: Optional[Collection[Tuple]],
        dims: Optional[List[Tuple]] = None,
        measures: Optional[List[Any]] = None,
        assume_unique: bool = False,
        columns: Optional[List[Any]] = None,
        n: int = 0,
    ) -> int:
        """Insert a batch of facts with a batched egd check.

        ``facts`` must be in the order the scalar path would insert
        them — the relation's insertion sequence (hence fact-set
        iteration order) must not depend on which path ran.  When the
        relation is still empty the functionality check reduces to
        duplicate-key detection over the batch itself; the kernels
        pass ``assume_unique=True`` when they already proved key
        distinctness columnarly.  Any remaining case replays through
        the per-fact egd-checking insert, raising the identical
        :class:`ChaseError`.

        Kernels may pass encoded output ``columns`` (with row count
        ``n``) instead of ``facts``: on the single-writer empty-target
        fast path the columns are appended straight into the target's
        columnar buffers — no fact tuples are ever built; otherwise
        they are decoded and flow through the generic path.
        """
        if columns is not None:
            if n == 0:
                return 0
            if (
                assume_unique
                and relation in self._single_writer
                and not functional.get(relation)
                and not target.size(relation)
            ):
                appended = target.append_columns(relation, columns, n)
                if appended is not None:
                    self.metrics.inc("chase.egd.checks", appended)
                    return appended
            facts = columnar.decode_facts(columns, n)
        if not facts:
            return 0
        self.metrics.inc("chase.egd.checks", len(facts))
        seen = functional.setdefault(relation, {})
        if not seen and not target.size(relation):
            single = relation in self._single_writer
            if assume_unique and single:
                # keys proven distinct and nothing will ever consult
                # the functional index again: the egd cannot fire
                return target.add_batch(relation, facts)
            if dims is None:
                dims = [fact[:-1] for fact in facts]
                measures = [fact[-1] for fact in facts]
            if assume_unique:
                seen.update(zip(dims, measures))
                return target.add_batch(relation, facts)
            merged = dict(zip(dims, measures))
            if len(merged) == len(facts):
                if not single:
                    seen.update(merged)
                return target.add_batch(relation, facts)
        produced = 0
        for fact in facts:
            produced += self._insert(target, functional, relation, fact)
        return produced


def _determined(term: Term, bound: set) -> bool:
    if isinstance(term, Const):
        return True
    if isinstance(term, Var):
        return term.name in bound
    if isinstance(term, FuncApp):
        return all(v in bound for v in _term_variables(term))
    return False


def _term_variables(term: Term) -> List[str]:
    if isinstance(term, Var):
        return [term.name]
    if isinstance(term, Const):
        return []
    if isinstance(term, FuncApp):
        out: List[str] = []
        for arg in term.args:
            out.extend(_term_variables(arg))
        return out
    raise ChaseError(f"unexpected term {term!r} in a lhs atom")


def _time_key(fact: Tuple):
    first = fact[0]
    if isinstance(first, TimePoint):
        return (first.freq.value, first.ordinal)
    return (str(first),)
