"""The static-analysis rule catalogue.

Every rule inspects one aspect of a logical plan (plus, optionally, the
target cluster and placement strategy) and yields
:class:`~repro.analysis.diagnostics.Diagnostic` records with a stable code.
Codes are grouped into six families, mirroring what a real engine's
pre-deployment validator checks before submitting a topology:

========  ==========================================================
family    codes
========  ==========================================================
dag       ``PLAN001``-``PLAN010`` — DAG structure and connectivity
schema    ``SCH101``-``SCH106``  — schema propagation and typing
keying    ``KEY201``-``KEY204``  — keyed-state partitioning contracts
window    ``WIN301``-``WIN305``  — window sanity
resource  ``RES401``-``RES403``  — cluster/slot feasibility
cost      ``COST501``-``COST506`` — cost, selectivity and state sanity
determinism  ``DET601``-``DET609`` — reproducibility hazards
batch     ``BAT701``-``BAT703`` — columnar micro-batch friendliness
ft        ``FT701``-``FT703``  — checkpoint/recovery readiness
shard     ``SHD701``-``SHD704`` — sharded-execution friendliness
========  ==========================================================

The determinism family is different in kind: DET601-DET606 are *code*
rules applied by the AST sanitizer (:mod:`repro.analysis.sanitizer`) to
operator source rather than to plan structure, and DET607-DET609 are
emitted at run time by the race detector
(:mod:`repro.analysis.racecheck`). They share the catalogue so
``repro sanitize --list-rules`` and diagnostics speak one vocabulary.

The batch family is advisory and mode-specific: its findings only
matter when a plan is destined for the columnar micro-batch executor
(:mod:`repro.sps.batch`), so it lives in :data:`BATCH_RULES` rather
than :data:`ALL_RULES` and runs only on request
(``repro lint-plan --batch`` or ``analyze_plan(..., batch=True)``).
A scalar-mode plan full of UDOs is perfectly healthy; the same plan
under ``batch_size=N`` would spend most of its time on the per-tuple
fallback, which BAT701 warns about.

The ft family is likewise opt-in (:data:`FT_RULES`): its findings only
matter when aligned-barrier checkpointing is enabled, so it runs when
the context carries a ``checkpoint_interval`` (``repro lint-plan
--checkpoint-ms`` or ``analyze_plan(..., checkpoint_ms=...)``). It
checks the recovery contract a checkpointed deployment relies on:
sources must be rewindable to a logged offset (FT701), stateful
operators must expose snapshotable state (FT702), and the interval must
exceed the barrier's estimated round-trip through the DAG — a tighter
cadence than barriers can complete means every checkpoint is skipped
while its predecessor is still aligning (FT703).

The shard family (:data:`SHD_RULES`) is opt-in the same way: sharded
execution (DESIGN.md §14) never changes results, so its rules are pure
speedup advice — broadcast edges that replicate traffic across every
shard boundary (SHD701), non-keyed stateful exchanges with no shard
locality (SHD702), parallelism degrees that leave shards idle (SHD703)
— plus SHD704, which predicts the engine's hard rejection of more
shards than placement nodes. It runs when the context carries a shard
count (``repro lint-plan --shards K`` or
``analyze_plan(..., shards=K)``).

Rules never raise on malformed plans: they *report*. The analyzer runs
every rule and aggregates, so a plan with five problems produces five
diagnostics rather than failing at the first, unlike
:meth:`LogicalPlan.validate`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field as dataclass_field

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.common.errors import ReproError
from repro.sps.logical import LogicalOperator, LogicalPlan, OperatorKind
from repro.sps.partitioning import (
    BroadcastPartitioner,
    ForwardPartitioner,
    HashPartitioner,
)
from repro.sps.types import DataType, Schema

__all__ = [
    "RuleSpec",
    "RULE_CATALOG",
    "AnalysisContext",
    "run_all_rules",
    "ALL_RULES",
    "BATCH_RULES",
    "FT_RULES",
    "SHD_RULES",
]


@dataclass(frozen=True)
class RuleSpec:
    """Catalogue entry of one rule code."""

    code: str
    family: str
    severity: Severity
    title: str
    rationale: str


def _spec(code, family, severity, title, rationale) -> RuleSpec:
    return RuleSpec(code, family, severity, title, rationale)


#: code -> catalogue entry; rendered by ``repro lint-plan --list-rules``
#: and documented in README.md ("Static plan analysis").
RULE_CATALOG: dict[str, RuleSpec] = {
    spec.code: spec
    for spec in (
        _spec(
            "PLAN000", "dag", Severity.ERROR,
            "duplicate operator id",
            "operator ids name state, metrics and placements; duplicates "
            "are rejected at construction (LogicalPlan.add_operator)",
        ),
        _spec(
            "PLAN001", "dag", Severity.ERROR,
            "plan has no source operator",
            "a PQP with no source emits nothing; the run would be vacuous",
        ),
        _spec(
            "PLAN002", "dag", Severity.ERROR,
            "plan has no sink operator",
            "the sink is the measuring point; without one no latency or "
            "throughput sample is ever taken",
        ),
        _spec(
            "PLAN003", "dag", Severity.ERROR,
            "plan contains a cycle",
            "stream dataflows are DAGs; a cycle deadlocks or loops tuples "
            "forever",
        ),
        _spec(
            "PLAN004", "dag", Severity.ERROR,
            "source operator has incoming edges",
            "sources generate tuples; feeding them input is meaningless",
        ),
        _spec(
            "PLAN005", "dag", Severity.ERROR,
            "operator is unreachable from any source",
            "its subtasks would idle forever and skew utilisation metrics",
        ),
        _spec(
            "PLAN006", "dag", Severity.ERROR,
            "operator cannot reach any sink",
            "a sink-less branch computes results that are never measured "
            "(and never terminates the run cleanly)",
        ),
        _spec(
            "PLAN007", "dag", Severity.ERROR,
            "malformed input ports",
            "joins need exactly ports 0 and 1; single-input operators "
            "accept port 0 only",
        ),
        _spec(
            "PLAN008", "dag", Severity.WARNING,
            "duplicate edge",
            "the same exchange twice delivers every tuple twice, silently "
            "inflating downstream rates",
        ),
        _spec(
            "PLAN009", "dag", Severity.ERROR,
            "forward edge with unequal parallelism",
            "forward channels pair producer i with consumer i; the "
            "parallelism degrees must match (Flink's constraint)",
        ),
        _spec(
            "PLAN010", "dag", Severity.ERROR,
            "sink operator has outgoing edges",
            "sinks terminate the dataflow; they cannot produce",
        ),
        _spec(
            "SCH101", "schema", Severity.WARNING,
            "source lacks an output schema",
            "without the source schema no downstream field reference can "
            "be checked",
        ),
        _spec(
            "SCH102", "schema", Severity.ERROR,
            "field index out of bounds",
            "a key/value/predicate field index past the upstream tuple "
            "width fails at the first tuple",
        ),
        _spec(
            "SCH103", "schema", Severity.ERROR,
            "join key types do not match",
            "an equi-join on differently-typed keys matches nothing (or "
            "worse, matches by accident)",
        ),
        _spec(
            "SCH104", "schema", Severity.ERROR,
            "aggregate over a non-numeric field",
            "min/max/avg/sum need numeric values; a string field raises "
            "mid-run",
        ),
        _spec(
            "SCH105", "schema", Severity.ERROR,
            "predicate incompatible with field type",
            "string functions need string fields and string literals; "
            "order comparisons need numeric fields",
        ),
        _spec(
            "SCH106", "schema", Severity.INFO,
            "operator output schema undeclared",
            "schema tracking stops here; downstream field references go "
            "unchecked",
        ),
        _spec(
            "KEY201", "keying", Severity.ERROR,
            "keyed operator without hash partitioning",
            "with parallelism > 1, tuples of one key must reach one "
            "instance; rebalance/forward splits keyed state arbitrarily",
        ),
        _spec(
            "KEY202", "keying", Severity.ERROR,
            "hash key differs from the operator's key field",
            "partitioning by a different field than the state key sends "
            "same-key tuples to different instances",
        ),
        _spec(
            "KEY203", "keying", Severity.WARNING,
            "hash partitioning with no statically known key",
            "neither the exchange nor the consumer declares a key field; "
            "unkeyed tuples would fail at run time",
        ),
        _spec(
            "KEY204", "keying", Severity.WARNING,
            "broadcast into a stateful operator",
            "every instance receives every tuple, duplicating state and "
            "multiplying emitted results",
        ),
        _spec(
            "WIN301", "window", Severity.ERROR,
            "window required but missing",
            "window aggregates and joins are defined over a window; "
            "without one the operator cannot fire",
        ),
        _spec(
            "WIN302", "window", Severity.ERROR,
            "window slide exceeds its length",
            "slide > size drops tuples that fall between windows",
        ),
        _spec(
            "WIN303", "window", Severity.ERROR,
            "non-positive window extent",
            "a zero or negative window length/slide never fires",
        ),
        _spec(
            "WIN304", "window", Severity.ERROR,
            "count-based window on a join",
            "windowed joins align both inputs in time; count windows are "
            "undefined across two streams (Table 3 joins are time-based)",
        ),
        _spec(
            "WIN305", "window", Severity.INFO,
            "window on an operator that ignores it",
            "only window aggregates and joins consume a window assigner",
        ),
        _spec(
            "RES401", "resource", Severity.ERROR,
            "operator parallelism exceeds cluster slots",
            "subtasks of one operator cannot share a slot; the plan is "
            "undeployable on this cluster",
        ),
        _spec(
            "RES402", "resource", Severity.WARNING,
            "total subtasks exceed cluster slots",
            "slot sharing stretches service times by the co-location "
            "factor; measurements mix operator cost with contention",
        ),
        _spec(
            "RES403", "resource", Severity.WARNING,
            "slot contention under the chosen placement",
            "the placement strategy stacks several subtasks on one core; "
            "their service times stretch by the load factor",
        ),
        _spec(
            "COST501", "cost", Severity.ERROR,
            "non-finite selectivity or cost",
            "NaN/inf propagates through the analytic model and corrupts "
            "the ML training corpus",
        ),
        _spec(
            "COST502", "cost", Severity.ERROR,
            "filter selectivity above 1",
            "a filter can only drop tuples; selectivity > 1 is "
            "contradictory",
        ),
        _spec(
            "COST503", "cost", Severity.WARNING,
            "selectivity above 1 without flatMap semantics",
            "only fan-out operators (flatMap, joins, UDOs) may emit more "
            "tuples than they consume",
        ),
        _spec(
            "COST504", "cost", Severity.WARNING,
            "zero-cost operator",
            "a free operator makes utilisation and enumeration degenerate",
        ),
        _spec(
            "COST505", "cost", Severity.INFO,
            "zero selectivity",
            "nothing flows downstream of this operator; the branch is "
            "effectively dead",
        ),
        _spec(
            "COST506", "cost", Severity.WARNING,
            "extreme sliding-window overlap",
            "window state is sliced, so per-tuple cost stays O(1), but "
            "each firing still combines ~2x(length/slide) slice partials "
            "and the fire heap holds one pending entry per key per "
            "overlapping window; overlaps this extreme dominate firing "
            "cost and state size",
        ),
        _spec(
            "DET601", "determinism", Severity.ERROR,
            "unseeded global RNG use",
            "module-level random/numpy.random draws bypass the per-run "
            "RngFactory derivation; two processes (or two repeats) see "
            "different streams and results stop being bit-identical",
        ),
        _spec(
            "DET602", "determinism", Severity.ERROR,
            "wall-clock read in operator logic",
            "operators live in simulated time; time.time/datetime.now "
            "leaks host wall-clock into results, which then differ on "
            "every run and every machine",
        ),
        _spec(
            "DET603", "determinism", Severity.WARNING,
            "set iteration order reaches data",
            "set iteration order depends on PYTHONHASHSEED; converting "
            "or iterating a set into tuples, word tables or RNG draws "
            "makes runs differ across processes (the apps/sentiment.py "
            "bug PR 5 fixed)",
        ),
        _spec(
            "DET604", "determinism", Severity.WARNING,
            "mutable global state in operator path",
            "module/class-level mutable state written from process() is "
            "shared across subtask instances in-process but silently "
            "forked per worker under ParallelRunner — the same plan "
            "computes different things serial vs parallel",
        ),
        _spec(
            "DET605", "determinism", Severity.WARNING,
            "id()/hash-order-dependent key",
            "id() values and builtin str hash() differ across processes; "
            "keys or ordering derived from them are not reproducible "
            "(use fields, ranks or partitioning._stable_hash)",
        ),
        _spec(
            "DET606", "determinism", Severity.WARNING,
            "fork-unsafe resource captured",
            "open files, locks and sockets created at import time are "
            "duplicated by fork; ParallelRunner children then share "
            "file offsets or deadlock on parent-held locks",
        ),
        _spec(
            "DET607", "determinism", Severity.ERROR,
            "keyed state aliased across subtasks",
            "the run delivered one key to two subtasks of a keyed "
            "operator; its state is split and window results depend on "
            "the race between instances",
        ),
        _spec(
            "DET608", "determinism", Severity.ERROR,
            "RNG stream shared across subtasks",
            "two subtasks draw from one generator object (or from "
            "identically seeded clones); draw interleaving then depends "
            "on event order and serial != parallel",
        ),
        _spec(
            "DET609", "determinism", Severity.ERROR,
            "RNG draw ledger diverged",
            "the per-stream RNG state fingerprints of a serial and a "
            "parallel run differ: some component drew a different "
            "number (or order) of values — the runs are not comparable",
        ),
        _spec(
            "BAT701", "batch", Severity.WARNING,
            "majority of operators force the scalar fallback",
            "more than half of the plan's operators have no vectorized "
            "kernel (UDOs, joins, count windows, maps without a "
            "vector_fn); under batch_size=N the columnar executor "
            "degenerates to the per-tuple path and batching buys "
            "latency without throughput",
        ),
        _spec(
            "BAT702", "batch", Severity.INFO,
            "operator has no vectorized kernel",
            "this operator runs on the per-tuple scalar fallback in "
            "batch mode; results are still correct, only the columnar "
            "fast path is lost across it",
        ),
        _spec(
            "BAT703", "batch", Severity.INFO,
            "source emits rows, not columns",
            "the source has only a row generator, so batch mode calls "
            "it once per tuple and columnarises the rows afterwards — "
            "the per-tuple generation cost stays; columnarity is "
            "decided at the source",
        ),
        _spec(
            "FT701", "ft", Severity.WARNING,
            "source is not replayable under checkpointing",
            "the source declares replayable=False, so a real "
            "deployment could not rewind it to a checkpointed offset; "
            "tuples emitted after the last checkpoint would be lost on "
            "recovery and exactly-once delivery cannot hold",
        ),
        _spec(
            "FT702", "ft", Severity.INFO,
            "operator state is invisible to checkpoints",
            "this UDO implements neither snapshot_state nor "
            "export_keyed_state; if it accumulates state, a checkpoint "
            "records nothing for it and recovery restarts it empty",
        ),
        _spec(
            "FT703", "ft", Severity.WARNING,
            "checkpoint interval shorter than barrier round-trip",
            "barriers flow through the DAG with the data, so a "
            "checkpoint takes at least the pipeline's end-to-end "
            "latency to align; an interval below that estimate means "
            "most triggers are skipped while the previous checkpoint "
            "is still in flight",
        ),
        _spec(
            "SHD701", "shard", Severity.WARNING,
            "broadcast edge multiplies cross-shard traffic",
            "a broadcast exchange replicates every tuple to all "
            "consumer instances, so K-1 of every K copies cross shard "
            "boundaries and ride the serialized inter-shard channels; "
            "the sharded speedup drowns in codec work",
        ),
        _spec(
            "SHD702", "shard", Severity.WARNING,
            "non-keyed stateful operator crossing shards",
            "a stateful operator fed by a non-hash exchange spreads "
            "its instances over shards while tuples reach them "
            "round-robin; nearly every input then crosses a shard "
            "boundary and the operator's state gains nothing from "
            "locality",
        ),
        _spec(
            "SHD703", "shard", Severity.INFO,
            "operator parallelism below the shard count",
            "an operator with fewer instances than shards leaves some "
            "shards without any of its work; epochs synchronise on the "
            "busiest shard, so the idle ones just wait",
        ),
        _spec(
            "SHD704", "shard", Severity.ERROR,
            "more shards than placement nodes",
            "shards partition the simulated cluster by placement node, "
            "so the engine rejects shard counts above the node count "
            "outright",
        ),
    )
}


@dataclass
class AnalysisContext:
    """Everything the rules need, computed once by the analyzer."""

    plan: LogicalPlan
    cluster: object | None = None
    placement: object | None = None
    #: op_id -> statically derived output schema (None = unknown)
    schemas: dict[str, Schema | None] = dataclass_field(default_factory=dict)
    #: partial topological order (all ops when acyclic)
    order: list[str] = dataclass_field(default_factory=list)
    has_cycle: bool = False
    #: aligned-barrier checkpoint interval in seconds; non-None enables
    #: the FT7xx readiness family
    checkpoint_interval: float | None = None
    #: intended shard count; non-None enables the SHD7xx shardability
    #: family
    shards: int | None = None

    # ------------------------------------------------------------- helpers

    def diag(
        self,
        code: str,
        message: str,
        op_id: str | None = None,
        edge: str | None = None,
        hint: str = "",
        severity: Severity | None = None,
    ) -> Diagnostic:
        """Build a diagnostic, defaulting severity from the catalogue."""
        spec = RULE_CATALOG[code]
        return Diagnostic(
            code=code,
            severity=severity or spec.severity,
            message=message,
            op_id=op_id,
            edge=edge,
            hint=hint,
        )

    def input_schema(self, op_id: str, port: int = 0) -> Schema | None:
        """Derived schema arriving at an operator's input port."""
        for edge in self.plan.in_edges(op_id):
            if edge.port == port:
                return self.schemas.get(edge.src)
        return None


def _edge_label(edge) -> str:
    return f"{edge.src}->{edge.dst}"


def _declared_key_field(op: LogicalOperator, port: int = 0) -> int | None:
    """The key field an operator's keyed state is grouped by, if declared."""
    if op.kind is OperatorKind.WINDOW_JOIN:
        key_fields = op.metadata.get("key_fields", (None, None))
        try:
            return key_fields[port]
        except (IndexError, TypeError):
            return None
    return op.metadata.get("key_field")


def _is_keyed_stateful(op: LogicalOperator) -> bool:
    """Whether the operator holds *keyed* state (needs co-partitioning)."""
    if op.kind is OperatorKind.WINDOW_JOIN:
        return True
    if op.kind is OperatorKind.WINDOW_AGG:
        return _declared_key_field(op) is not None
    if op.kind is OperatorKind.UDO:
        return _declared_key_field(op) is not None
    return False


# =============================================================== dag rules


def check_dag_structure(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """PLAN001/002/003: global plan shape."""
    plan = ctx.plan
    if not plan.sources():
        yield ctx.diag(
            "PLAN001",
            "plan has no source operator",
            hint="add a source via builders.source()",
        )
    if not plan.sinks():
        yield ctx.diag(
            "PLAN002",
            "plan has no sink operator",
            hint="add a measuring sink via builders.sink()",
        )
    if ctx.has_cycle:
        cyclic = sorted(set(plan.operators) - set(ctx.order))
        yield ctx.diag(
            "PLAN003",
            f"plan contains a cycle through {cyclic}",
            hint="stream dataflows must be acyclic",
        )


def check_connectivity(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """PLAN004/005/006/010: per-operator reachability and degree."""
    plan = ctx.plan
    forward: dict[str, list[str]] = {op: [] for op in plan.operators}
    backward: dict[str, list[str]] = {op: [] for op in plan.operators}
    for edge in plan.edges:
        forward[edge.src].append(edge.dst)
        backward[edge.dst].append(edge.src)

    def _reach(seeds: list[str], adjacency: dict[str, list[str]]) -> set:
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            for nxt in adjacency[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    from_sources = _reach(
        [op.op_id for op in plan.sources()], forward
    )
    to_sinks = _reach([op.op_id for op in plan.sinks()], backward)
    for op in plan.operators.values():
        ins = plan.in_edges(op.op_id)
        outs = plan.out_edges(op.op_id)
        if op.kind is OperatorKind.SOURCE and ins:
            yield ctx.diag(
                "PLAN004",
                f"source {op.op_id!r} has {len(ins)} incoming edge(s)",
                op_id=op.op_id,
            )
        if op.kind is OperatorKind.SINK and outs:
            yield ctx.diag(
                "PLAN010",
                f"sink {op.op_id!r} has {len(outs)} outgoing edge(s)",
                op_id=op.op_id,
            )
        if op.kind is not OperatorKind.SOURCE and (
            op.op_id not in from_sources
        ):
            detail = (
                "has no inputs" if not ins
                else "is fed only by unreachable operators"
            )
            yield ctx.diag(
                "PLAN005",
                f"operator {op.op_id!r} {detail}; no tuple can ever "
                "reach it",
                op_id=op.op_id,
                hint="connect it downstream of a source or remove it",
            )
        if op.kind is not OperatorKind.SINK and op.op_id not in to_sinks:
            detail = (
                "has no outputs" if not outs
                else "feeds only sink-less branches"
            )
            yield ctx.diag(
                "PLAN006",
                f"operator {op.op_id!r} {detail}; its results are never "
                "measured",
                op_id=op.op_id,
                hint="route the branch into a sink or remove it",
            )


def check_ports(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """PLAN007/008: input port discipline and duplicate edges."""
    plan = ctx.plan
    seen_edges: set[tuple[str, str, int]] = set()
    for edge in plan.edges:
        key = (edge.src, edge.dst, edge.port)
        if key in seen_edges:
            yield ctx.diag(
                "PLAN008",
                f"duplicate edge {edge.src!r}->{edge.dst!r} "
                f"(port {edge.port})",
                edge=_edge_label(edge),
            )
        seen_edges.add(key)
    for op in plan.operators.values():
        ins = plan.in_edges(op.op_id)
        if not ins:
            continue
        ports = sorted(e.port for e in ins)
        if op.kind is OperatorKind.WINDOW_JOIN:
            if ports != [0, 1]:
                yield ctx.diag(
                    "PLAN007",
                    f"join {op.op_id!r} needs exactly one input on port 0 "
                    f"and one on port 1, got ports {ports}",
                    op_id=op.op_id,
                    hint="connect(left, join, port=0) and "
                    "connect(right, join, port=1)",
                )
        elif any(port != 0 for port in ports):
            yield ctx.diag(
                "PLAN007",
                f"single-input operator {op.op_id!r} must receive all "
                f"inputs on port 0, got ports {ports}",
                op_id=op.op_id,
            )


def check_forward_parallelism(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """PLAN009: forward exchanges need matching parallelism degrees."""
    plan = ctx.plan
    ops = plan.operators
    for edge in plan.edges:
        if not isinstance(edge.partitioner, ForwardPartitioner):
            continue
        src_p = ops[edge.src].parallelism
        dst_p = ops[edge.dst].parallelism
        if src_p != dst_p:
            yield ctx.diag(
                "PLAN009",
                f"forward edge {edge.src!r}->{edge.dst!r} connects "
                f"parallelism {src_p} to {dst_p}",
                edge=_edge_label(edge),
                hint="use rebalance, or equalise the degrees",
            )


# ============================================================ schema rules


def check_schemas(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """SCH101-SCH106: schema propagation and field typing."""
    plan = ctx.plan
    for op_id in ctx.order:
        op = plan.operators[op_id]
        if op.kind is OperatorKind.SOURCE:
            if op.output_schema is None:
                yield ctx.diag(
                    "SCH101",
                    f"source {op_id!r} declares no output schema",
                    op_id=op_id,
                    hint="pass schema= to builders.source()",
                )
            continue
        if op.kind is OperatorKind.WINDOW_JOIN:
            yield from _check_join_schema(ctx, op)
            continue
        upstream = ctx.input_schema(op_id)
        if op.kind is OperatorKind.WINDOW_AGG:
            yield from _check_agg_schema(ctx, op, upstream)
        elif op.kind is OperatorKind.FILTER:
            yield from _check_filter_schema(ctx, op, upstream)
        if (
            op.kind in (
                OperatorKind.MAP, OperatorKind.FLATMAP, OperatorKind.UDO
            )
            and op.output_schema is None
        ):
            yield ctx.diag(
                "SCH106",
                f"{op.kind.value} {op_id!r} declares no output schema; "
                "downstream field checks stop here",
                op_id=op_id,
                hint="pass output_schema= to the builder",
            )


def _check_bounds(
    ctx: AnalysisContext,
    op: LogicalOperator,
    schema: Schema,
    index: int | None,
    what: str,
) -> Iterator[Diagnostic]:
    if index is not None and index >= schema.width:
        yield ctx.diag(
            "SCH102",
            f"{op.op_id!r}: {what} {index} is out of bounds for the "
            f"upstream schema (width {schema.width})",
            op_id=op.op_id,
        )


def _check_agg_schema(
    ctx: AnalysisContext, op: LogicalOperator, upstream: Schema | None
) -> Iterator[Diagnostic]:
    if upstream is None:
        return
    value_field = op.metadata.get("value_field")
    key_field = _declared_key_field(op)
    yield from _check_bounds(ctx, op, upstream, key_field, "key field")
    if value_field is None:
        return
    yield from _check_bounds(ctx, op, upstream, value_field, "value field")
    if value_field < upstream.width:
        dtype = upstream.fields[value_field].dtype
        if not dtype.is_numeric:
            yield ctx.diag(
                "SCH104",
                f"{op.op_id!r}: aggregate value field {value_field} is "
                f"{dtype.value}, not numeric",
                op_id=op.op_id,
                hint="aggregate a numeric field or re-map the tuple",
            )


def _check_join_schema(
    ctx: AnalysisContext, op: LogicalOperator
) -> Iterator[Diagnostic]:
    left = ctx.input_schema(op.op_id, port=0)
    right = ctx.input_schema(op.op_id, port=1)
    left_key = _declared_key_field(op, port=0)
    right_key = _declared_key_field(op, port=1)
    if left is not None:
        yield from _check_bounds(ctx, op, left, left_key, "left key field")
    if right is not None:
        yield from _check_bounds(
            ctx, op, right, right_key, "right key field"
        )
    if (
        left is not None
        and right is not None
        and left_key is not None
        and right_key is not None
        and left_key < left.width
        and right_key < right.width
    ):
        left_type = left.fields[left_key].dtype
        right_type = right.fields[right_key].dtype
        if left_type is not right_type:
            yield ctx.diag(
                "SCH103",
                f"join {op.op_id!r} keys a {left_type.value} left field "
                f"against a {right_type.value} right field",
                op_id=op.op_id,
                hint="equi-join keys must share one type",
            )


def _check_filter_schema(
    ctx: AnalysisContext, op: LogicalOperator, upstream: Schema | None
) -> Iterator[Diagnostic]:
    if upstream is None:
        return
    index = op.metadata.get("predicate_field")
    if index is None:
        return
    yield from _check_bounds(ctx, op, upstream, index, "predicate field")
    if index >= upstream.width:
        return
    dtype = upstream.fields[index].dtype
    function = op.metadata.get("predicate_function")
    literal = op.metadata.get("predicate_literal")
    if function is None:
        return
    from repro.sps.predicates import FilterFunction

    try:
        fn = FilterFunction(function)
    except ValueError:
        return
    if not fn.applies_to(dtype):
        yield ctx.diag(
            "SCH105",
            f"filter {op.op_id!r}: {function!r} does not apply to the "
            f"{dtype.value} field {index}",
            op_id=op.op_id,
        )
    elif literal is not None:
        literal_is_str = isinstance(literal, str)
        if dtype is DataType.STRING and not literal_is_str:
            yield ctx.diag(
                "SCH105",
                f"filter {op.op_id!r}: comparing string field {index} "
                f"against non-string literal {literal!r}",
                op_id=op.op_id,
            )
        elif dtype is not DataType.STRING and literal_is_str:
            yield ctx.diag(
                "SCH105",
                f"filter {op.op_id!r}: comparing {dtype.value} field "
                f"{index} against string literal {literal!r}",
                op_id=op.op_id,
            )


# ============================================================ keying rules


def check_keyed_exchanges(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """KEY201-KEY204: keyed state needs consistent hash partitioning."""
    plan = ctx.plan
    for edge in plan.edges:
        consumer = plan.operators[edge.dst]
        partitioner = edge.partitioner
        if isinstance(partitioner, BroadcastPartitioner):
            if consumer.kind.is_stateful and consumer.parallelism > 1:
                yield ctx.diag(
                    "KEY204",
                    f"broadcast into stateful {consumer.op_id!r} "
                    f"(parallelism {consumer.parallelism}) duplicates "
                    "state per instance",
                    edge=_edge_label(edge),
                )
            continue
        if not _is_keyed_stateful(consumer):
            continue
        declared = _declared_key_field(consumer, edge.port)
        if not isinstance(partitioner, HashPartitioner):
            if consumer.parallelism > 1:
                yield ctx.diag(
                    "KEY201",
                    f"keyed {consumer.kind.value} {consumer.op_id!r} "
                    f"(parallelism {consumer.parallelism}) receives "
                    f"{partitioner.name}-partitioned input",
                    edge=_edge_label(edge),
                    hint="use hash partitioning on the key field",
                )
            continue
        hash_key = partitioner.key_field
        if (
            hash_key is not None
            and declared is not None
            and hash_key != declared
            and consumer.parallelism > 1
        ):
            yield ctx.diag(
                "KEY202",
                f"{consumer.op_id!r} keys its state by field {declared} "
                f"but the exchange hashes field {hash_key}",
                edge=_edge_label(edge),
                hint="hash by the operator's key field",
            )
        if hash_key is None and declared is None:
            yield ctx.diag(
                "KEY203",
                f"hash exchange into {consumer.op_id!r} has no key field "
                "and the operator declares none; keys must be assigned "
                "upstream at run time",
                edge=_edge_label(edge),
            )


# ============================================================ window rules


def _window_extents(window) -> tuple[float | None, float | None]:
    """(length, slide) of an assigner, reading both time and count attrs."""
    length = getattr(window, "duration", None)
    if length is None:
        length = getattr(window, "length", None)
    slide = getattr(window, "slide", None)
    return (
        float(length) if length is not None else None,
        float(slide) if slide is not None else None,
    )


def check_windows(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """WIN301-WIN305: window presence and extent sanity."""
    needs_window = (OperatorKind.WINDOW_AGG, OperatorKind.WINDOW_JOIN)
    for op in ctx.plan.operators.values():
        if op.kind in needs_window:
            if op.window is None:
                yield ctx.diag(
                    "WIN301",
                    f"{op.kind.value} {op.op_id!r} has no window assigner",
                    op_id=op.op_id,
                    hint="pass a WindowAssigner to the builder",
                )
                continue
            length, slide = _window_extents(op.window)
            if length is not None and (
                not math.isfinite(length) or length <= 0
            ):
                yield ctx.diag(
                    "WIN303",
                    f"{op.op_id!r}: window length {length} must be a "
                    "positive finite number",
                    op_id=op.op_id,
                )
            if slide is not None and (
                not math.isfinite(slide) or slide <= 0
            ):
                yield ctx.diag(
                    "WIN303",
                    f"{op.op_id!r}: window slide {slide} must be a "
                    "positive finite number",
                    op_id=op.op_id,
                )
            if (
                length is not None
                and slide is not None
                and slide > length > 0
            ):
                yield ctx.diag(
                    "WIN302",
                    f"{op.op_id!r}: window slide {slide:g} exceeds its "
                    f"length {length:g}",
                    op_id=op.op_id,
                    hint="slide must be <= window length",
                )
            if (
                op.kind is OperatorKind.WINDOW_JOIN
                and not op.window.is_time_based
            ):
                yield ctx.diag(
                    "WIN304",
                    f"join {op.op_id!r} uses a count-based window",
                    op_id=op.op_id,
                    hint="joins require time-based windows",
                )
        elif op.window is not None:
            yield ctx.diag(
                "WIN305",
                f"{op.kind.value} {op.op_id!r} carries a window assigner "
                "it never uses",
                op_id=op.op_id,
            )


# ========================================================== resource rules


def check_resources(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """RES401-RES403: slot feasibility on the target cluster."""
    cluster = ctx.cluster
    if cluster is None:
        return
    total_slots = cluster.total_slots
    plan = ctx.plan
    for op in plan.operators.values():
        if op.parallelism > total_slots:
            yield ctx.diag(
                "RES401",
                f"{op.op_id!r} wants parallelism {op.parallelism} but "
                f"the cluster has only {total_slots} task slots",
                op_id=op.op_id,
                hint="cap the degree at the cluster's core count",
            )
    total_subtasks = plan.total_subtasks()
    if total_subtasks > total_slots:
        yield ctx.diag(
            "RES402",
            f"plan needs {total_subtasks} subtasks on {total_slots} "
            "slots; subtasks will share cores",
            hint="reduce parallelism degrees or grow the cluster",
        )
    yield from _check_placement_contention(ctx, cluster)


def _check_placement_contention(
    ctx: AnalysisContext, cluster
) -> Iterator[Diagnostic]:
    strategy = ctx.placement
    if strategy is None:
        return
    from repro.sps.physical import PhysicalPlan

    try:
        physical = PhysicalPlan.from_logical(ctx.plan)
        placement = strategy.place(physical, cluster)
    except ReproError:
        return  # structural errors are reported by the dag/keying rules
    contended: dict[int, int] = {}
    for slot, load in placement.slot_load.items():
        if load > 1:
            contended[slot.node_id] = max(
                contended.get(slot.node_id, 0), load
            )
    if contended:
        nodes = ", ".join(
            f"node {node} (x{load})" for node, load in sorted(
                contended.items()
            )
        )
        yield ctx.diag(
            "RES403",
            f"{strategy.name} placement stacks subtasks on shared "
            f"cores: {nodes}",
            hint="oversubscribed cores stretch service times",
        )


# ============================================================== cost rules


#: length/slide ratio above which COST506 flags a window (every tuple
#: belongs to this many windows; the paper's sweeps stay in [1.4, 3.3]).
_EXTREME_OVERLAP = 64.0


def check_costs(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """COST501-COST506: selectivity, cost-profile and state sanity."""
    fanout_kinds = (
        OperatorKind.FLATMAP,
        OperatorKind.WINDOW_JOIN,
        OperatorKind.WINDOW_AGG,
        OperatorKind.UDO,
    )
    for op in ctx.plan.operators.values():
        values = {"selectivity": op.selectivity}
        if op.cost is not None:
            values["cost.base_cpu_s"] = op.cost.base_cpu_s
            values["cost.coord_kappa"] = op.cost.coord_kappa
        for name, value in values.items():
            if not math.isfinite(value):
                yield ctx.diag(
                    "COST501",
                    f"{op.op_id!r}: {name} is {value}",
                    op_id=op.op_id,
                )
        if not math.isfinite(op.selectivity):
            continue
        if op.selectivity > 1.0:
            if op.kind is OperatorKind.FILTER:
                yield ctx.diag(
                    "COST502",
                    f"filter {op.op_id!r} has selectivity "
                    f"{op.selectivity:g} > 1",
                    op_id=op.op_id,
                    hint="filters can only drop tuples",
                )
            elif op.kind not in fanout_kinds:
                yield ctx.diag(
                    "COST503",
                    f"{op.kind.value} {op.op_id!r} has selectivity "
                    f"{op.selectivity:g} > 1 but no fan-out semantics",
                    op_id=op.op_id,
                )
        if op.selectivity == 0.0:
            yield ctx.diag(
                "COST505",
                f"{op.op_id!r} has selectivity 0; downstream operators "
                "receive nothing",
                op_id=op.op_id,
            )
        if op.cost is not None and op.cost.base_cpu_s <= 0:
            yield ctx.diag(
                "COST504",
                f"{op.op_id!r} has non-positive base cost "
                f"{op.cost.base_cpu_s}",
                op_id=op.op_id,
            )
        if op.window is not None:
            length, slide = _window_extents(op.window)
            if (
                length is not None
                and slide is not None
                and slide > 0
                and length / slide >= _EXTREME_OVERLAP
            ):
                yield ctx.diag(
                    "COST506",
                    f"{op.op_id!r}: window length {length:g} over slide "
                    f"{slide:g} puts every tuple in "
                    f"{length / slide:.0f} windows",
                    op_id=op.op_id,
                    hint="widen the slide or shrink the window; firing "
                    "cost and pending-window state grow with the "
                    "overlap",
                )


# ============================================================= batch rules


#: fallback-operator density above which BAT701 warns: past this point
#: the columnar executor spends the majority of the plan on the
#: per-tuple path and micro-batching mostly adds latency.
_FALLBACK_DENSITY = 0.5


def _batch_fallback_reason(op: LogicalOperator) -> str | None:
    """Why ``op`` would run on the scalar fallback in batch mode.

    The executor's own class dispatch
    (:func:`repro.sps.batch.static_kernel`) is asked about one probe
    instance of the operator's logic (factories are cheap, stateless
    constructors). ``None`` means a columnar kernel exists.
    """
    if op.kind in (OperatorKind.SOURCE, OperatorKind.SINK):
        return None  # sources are BAT703's concern; sinks batch natively
    from repro.sps.batch import static_kernel

    try:
        return static_kernel(op.logic_factory())[1]
    except Exception:  # noqa: BLE001 — probing must never break linting
        return "operator logic could not be instantiated for probing"


def check_batch_friendliness(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """BAT701-BAT703: how much of the plan the columnar executor covers.

    Advisory and mode-specific — only in :data:`BATCH_RULES`.
    """
    ops = list(ctx.plan.operators.values())
    fallbacks: list[tuple[LogicalOperator, str]] = []
    for op in ops:
        reason = _batch_fallback_reason(op)
        if reason is not None:
            fallbacks.append((op, reason))
    row_sources = []
    for op in ops:
        if op.kind is not OperatorKind.SOURCE:
            continue
        try:
            logic = op.logic_factory()
        except Exception:  # noqa: BLE001
            continue
        if not getattr(logic, "has_vector_generator", False):
            row_sources.append(op)
    if ops:
        density = (len(fallbacks) + len(row_sources)) / len(ops)
        if density > _FALLBACK_DENSITY:
            yield ctx.diag(
                "BAT701",
                f"{len(fallbacks) + len(row_sources)} of {len(ops)} "
                f"operators ({density:.0%}) would run on the scalar "
                "fallback in batch mode",
                hint="keep this plan on the scalar event loop, or give "
                "its maps/flat-maps vector_fns and its sources "
                "vector generators",
            )
    for op, reason in fallbacks:
        yield ctx.diag(
            "BAT702",
            f"{op.kind.value} {op.op_id!r}: {reason}",
            op_id=op.op_id,
        )
    for op in row_sources:
        yield ctx.diag(
            "BAT703",
            f"source {op.op_id!r} has no vector generator; batch mode "
            "calls its row generator once per tuple",
            op_id=op.op_id,
            hint="define the source by a vector_generator, "
            "(rng, n) -> (columns, sizes), in place of the row "
            "generator; every executor reads it",
        )


#: Advisory batch-friendliness rules, run only on request (the findings
#: are meaningless for scalar-mode plans, and builtin apps are expected
#: to stay diagnostic-clean under the default rule set).
BATCH_RULES = (check_batch_friendliness,)


# ================================================================ ft rules

#: Nominal one-hop network latency used by the FT703 round-trip
#: estimate when no cluster is given (the homogeneous clusters' same-
#: rack latency is of this order).
_FT_NOMINAL_HOP_LATENCY_S = 1e-3


def _longest_path_service(ctx: AnalysisContext) -> tuple[int, float]:
    """(hops, summed per-hop cost) of the longest source->sink path.

    Per-hop cost is one nominal network latency plus the downstream
    operator's ``base_cpu_s`` — the minimum time a barrier spends per
    stage when every queue is empty. Real alignment behind a backlog
    takes longer, so FT703 is a *lower-bound* check: failing it means
    the cadence cannot work even on an idle pipeline.
    """
    hops: dict[str, int] = {}
    cost: dict[str, float] = {}
    for op_id in ctx.order:
        op = ctx.plan.operators[op_id]
        step = _FT_NOMINAL_HOP_LATENCY_S
        if op.cost is not None:
            step += op.cost.base_cpu_s
        best_h, best_c = 0, 0.0
        for edge in ctx.plan.in_edges(op_id):
            if edge.src in hops and hops[edge.src] + 1 > best_h:
                best_h = hops[edge.src] + 1
                best_c = cost[edge.src] + step
        hops[op_id] = best_h
        cost[op_id] = best_c
    if not hops:
        return 0, 0.0
    deepest = max(hops, key=lambda op_id: (hops[op_id], cost[op_id]))
    return hops[deepest], cost[deepest]


def check_ft_readiness(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """FT701-FT703: can this plan honour its checkpointing contract?

    Opt-in via ``ctx.checkpoint_interval`` — only in :data:`FT_RULES`.
    """
    interval = ctx.checkpoint_interval
    if interval is None:
        return
    from repro.sps.operators.base import OperatorLogic

    for op in ctx.plan.operators.values():
        if op.kind is OperatorKind.SOURCE:
            if not op.metadata.get("replayable", True):
                yield ctx.diag(
                    "FT701",
                    f"source {op.op_id!r} declares replayable=False; "
                    "recovery cannot rewind it to a checkpointed "
                    "offset",
                    op_id=op.op_id,
                    hint="feed the source from a durable log, or "
                    "accept data loss and run with "
                    "delivery=at_least_once",
                )
        elif op.kind is OperatorKind.UDO:
            try:
                logic = op.logic_factory()
            except Exception:  # noqa: BLE001
                continue
            cls = type(logic)
            if (
                cls.snapshot_state is OperatorLogic.snapshot_state
                and cls.export_keyed_state
                is OperatorLogic.export_keyed_state
            ):
                yield ctx.diag(
                    "FT702",
                    f"UDO {op.op_id!r} overrides neither "
                    "snapshot_state nor export_keyed_state; "
                    "checkpoints record nothing for it",
                    op_id=op.op_id,
                    hint="implement snapshot_state/restore_state (or "
                    "the keyed-state migration pair) on its logic",
                )
    hops, rtt = _longest_path_service(ctx)
    if hops and interval < rtt:
        yield ctx.diag(
            "FT703",
            f"checkpoint interval {interval * 1e3:g} ms is below the "
            f"estimated barrier round-trip {rtt * 1e3:.2f} ms over "
            f"the plan's {hops}-hop critical path",
            hint="raise --checkpoint-ms above the pipeline's "
            "end-to-end latency",
        )


#: Checkpoint/recovery readiness rules, run only when the analysis
#: context carries a checkpoint interval.
FT_RULES = (check_ft_readiness,)


# ============================================================= shard rules


def check_shardability(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    """SHD701-SHD704: will this plan profit from sharded execution?

    Opt-in via ``ctx.shards`` (``repro lint-plan --shards K``) — only in
    :data:`SHD_RULES`. Sharding never changes results (they are
    K-invariant, DESIGN.md §14), so every finding here is
    about *speedup*, except SHD704 which predicts an outright
    :class:`~repro.common.errors.ConfigurationError` from the engine.
    """
    shards = ctx.shards
    if shards is None or shards < 2:
        return
    plan = ctx.plan
    if ctx.cluster is not None:
        nodes = len(ctx.cluster.nodes)
        if shards > nodes:
            yield ctx.diag(
                "SHD704",
                f"{shards} shards requested but the cluster has only "
                f"{nodes} placement node(s) to partition",
                hint="use --shards <= the cluster's node count",
            )
    for edge in plan.edges:
        consumer = plan.operators[edge.dst]
        partitioner = edge.partitioner
        if isinstance(partitioner, BroadcastPartitioner):
            if consumer.parallelism > 1:
                yield ctx.diag(
                    "SHD701",
                    f"broadcast into {consumer.op_id!r} (parallelism "
                    f"{consumer.parallelism}) replicates every tuple "
                    f"across all {shards} shards",
                    edge=_edge_label(edge),
                    hint="key the exchange, or keep broadcast-heavy "
                    "plans on the single-kernel engine",
                )
            continue
        if (
            consumer.kind.is_stateful
            and consumer.parallelism > 1
            and not isinstance(partitioner, HashPartitioner)
        ):
            yield ctx.diag(
                "SHD702",
                f"stateful {consumer.kind.value} {consumer.op_id!r} "
                f"receives {partitioner.name}-partitioned input; its "
                "instances span shards with no key locality",
                edge=_edge_label(edge),
                hint="hash-partition the exchange on the state key",
            )
    for op in plan.operators.values():
        if 1 < op.parallelism < shards:
            yield ctx.diag(
                "SHD703",
                f"{op.kind.value} {op.op_id!r} has parallelism "
                f"{op.parallelism} < {shards} shards; some shards "
                "carry none of its instances",
                op_id=op.op_id,
            )


#: Shardability rules, run only when the analysis context carries a
#: shard count.
SHD_RULES = (check_shardability,)


#: All rules, in reporting order.
ALL_RULES = (
    check_dag_structure,
    check_connectivity,
    check_ports,
    check_forward_parallelism,
    check_schemas,
    check_keyed_exchanges,
    check_windows,
    check_resources,
    check_costs,
)


def run_all_rules(
    ctx: AnalysisContext, include_batch: bool = False
) -> Iterable[Diagnostic]:
    """Run every rule over a prepared context.

    ``include_batch`` appends the advisory :data:`BATCH_RULES` family —
    opt-in because its findings only matter for plans destined for the
    columnar micro-batch executor.
    """
    rules = ALL_RULES + BATCH_RULES if include_batch else ALL_RULES
    if ctx.checkpoint_interval is not None:
        rules = rules + FT_RULES
    if ctx.shards is not None:
        rules = rules + SHD_RULES
    for rule in rules:
        yield from rule(ctx)
