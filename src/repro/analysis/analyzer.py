"""Whole-plan static analysis (the pre-flight pass).

:class:`PlanAnalyzer` prepares an :class:`~repro.analysis.rules.AnalysisContext`
— a cycle-tolerant topological order plus statically propagated output
schemas — and runs the full rule catalogue over it, returning an
:class:`~repro.analysis.diagnostics.AnalysisReport`.

Unlike :meth:`LogicalPlan.validate`, which raises at the first problem,
the analyzer *collects* every finding, never raises on malformed input,
and also covers cluster feasibility and schema/typing concerns that
``validate`` does not look at. The engine's pre-flight gate, the workload
generator and ``repro lint-plan`` all call :func:`analyze_plan`.
"""

from __future__ import annotations

from repro.analysis.diagnostics import (
    AnalysisReport,
    PreflightError,
)
from repro.analysis.rules import AnalysisContext, run_all_rules
from repro.sps.logical import LogicalPlan, OperatorKind
from repro.sps.types import DataType, Field, Schema

__all__ = ["PlanAnalyzer", "analyze_plan", "preflight"]


def _topological_order(plan: LogicalPlan) -> tuple[list[str], bool]:
    """Kahn's algorithm; returns (partial order, has_cycle).

    On a cyclic plan the order covers only the acyclic prefix, so schema
    propagation still works for everything upstream of the cycle and the
    cycle itself is reported by PLAN003 rather than crashing the pass.
    """
    in_degree = {op_id: 0 for op_id in plan.operators}
    for edge in plan.edges:
        in_degree[edge.dst] += 1
    ready = sorted(
        op_id for op_id, degree in in_degree.items() if degree == 0
    )
    order: list[str] = []
    while ready:
        op_id = ready.pop(0)
        order.append(op_id)
        for edge in plan.out_edges(op_id):
            in_degree[edge.dst] -= 1
            if in_degree[edge.dst] == 0:
                ready.append(edge.dst)
    return order, len(order) < len(plan.operators)


def _propagate_schemas(
    plan: LogicalPlan, order: list[str]
) -> dict[str, Schema | None]:
    """Derive each operator's output schema in topological order.

    ``None`` means *unknown*: the operator (or something upstream of it)
    declares no schema, so downstream field references go unchecked
    rather than producing false errors.
    """
    schemas: dict[str, Schema | None] = {}

    def _input(op_id: str, port: int = 0) -> Schema | None:
        for edge in plan.in_edges(op_id):
            if edge.port == port:
                return schemas.get(edge.src)
        return None

    for op_id in order:
        op = plan.operators[op_id]
        if op.output_schema is not None:
            # a declared schema always wins over inference
            schemas[op_id] = op.output_schema
        elif op.kind in (OperatorKind.FILTER, OperatorKind.SINK):
            schemas[op_id] = _input(op_id)
        elif op.kind is OperatorKind.WINDOW_AGG:
            schemas[op_id] = _aggregate_schema(op, _input(op_id))
        elif op.kind is OperatorKind.WINDOW_JOIN:
            schemas[op_id] = _join_schema(
                _input(op_id, 0), _input(op_id, 1)
            )
        else:
            # SOURCE/MAP/FLATMAP/UDO without a declaration: unknown
            schemas[op_id] = None
    return schemas


def _aggregate_schema(op, upstream: Schema | None) -> Schema | None:
    """Window aggregates emit ``(key, aggregate)`` pairs."""
    key_field = op.metadata.get("key_field")
    if upstream is None or key_field is None:
        return None
    if key_field >= upstream.width:
        return None  # SCH102 reports the bad index
    key = upstream.fields[key_field]
    return Schema(
        fields=(
            Field(name=key.name, dtype=key.dtype),
            Field(name="aggregate", dtype=DataType.DOUBLE),
        )
    )


def _join_schema(
    left: Schema | None, right: Schema | None
) -> Schema | None:
    """Windowed joins concatenate the left and right tuple values."""
    if left is None or right is None:
        return None
    fields = tuple(
        Field(name=f"l_{f.name}", dtype=f.dtype) for f in left.fields
    ) + tuple(
        Field(name=f"r_{f.name}", dtype=f.dtype) for f in right.fields
    )
    return Schema(fields=fields)


class PlanAnalyzer:
    """Runs the full rule catalogue over one logical plan.

    ``cluster`` enables the resource-feasibility family (RES4xx);
    ``placement`` additionally enables the per-node contention check
    (RES403). Both are optional — without them the analyzer covers the
    plan-local families only. ``batch`` additionally runs the advisory
    BAT7xx batch-friendliness family, for plans destined for the
    columnar micro-batch executor; ``checkpoint_interval`` (seconds)
    likewise enables the FT7xx checkpoint-readiness family, for plans
    destined to run with aligned-barrier fault tolerance; ``shards``
    enables the SHD7xx shardability family, for plans destined for the
    multi-process sharded kernel (DESIGN.md §14).
    """

    def __init__(
        self,
        cluster=None,
        placement=None,
        batch=False,
        checkpoint_interval=None,
        shards=None,
    ) -> None:
        self.cluster = cluster
        self.placement = placement
        self.batch = batch
        self.checkpoint_interval = checkpoint_interval
        self.shards = shards

    def analyze(self, plan: LogicalPlan) -> AnalysisReport:
        """Collect every diagnostic for ``plan`` (never raises)."""
        order, has_cycle = _topological_order(plan)
        ctx = AnalysisContext(
            plan=plan,
            cluster=self.cluster,
            placement=self.placement,
            schemas=_propagate_schemas(plan, order),
            order=order,
            has_cycle=has_cycle,
            checkpoint_interval=self.checkpoint_interval,
            shards=self.shards,
        )
        report = AnalysisReport(plan_name=plan.name)
        report.extend(run_all_rules(ctx, include_batch=self.batch))
        return report


def analyze_plan(
    plan: LogicalPlan,
    cluster=None,
    placement=None,
    batch=False,
    checkpoint_interval=None,
    shards=None,
) -> AnalysisReport:
    """One-shot convenience wrapper around :class:`PlanAnalyzer`."""
    return PlanAnalyzer(
        cluster=cluster,
        placement=placement,
        batch=batch,
        checkpoint_interval=checkpoint_interval,
        shards=shards,
    ).analyze(plan)


def preflight(
    plan: LogicalPlan, cluster=None, placement=None
) -> AnalysisReport:
    """Analyze and raise :class:`PreflightError` if any ERROR is found.

    Returns the (warning/info-only) report otherwise, so callers can log
    non-fatal findings.
    """
    report = analyze_plan(plan, cluster=cluster, placement=placement)
    if report.has_errors:
        raise PreflightError(report)
    return report
