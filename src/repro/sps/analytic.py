"""Fast analytic latency estimator.

A closed-form companion to the discrete-event engine: per-operator M/G/1
queueing sojourn times, shuffle/serde overhead, expected cross-node network
delay and window residence times, combined along the critical source-to-sink
path of the DAG. It evaluates a (plan, cluster) pair in microseconds instead
of seconds, which is what makes generating the paper's large ML training
corpora (thousands of labelled queries, Exp 3) tractable.

The estimator and the engine share the exact same cost profiles; the
``bench_ablation_engine`` benchmark checks they agree on ordering and rough
magnitude, which is the property the ML experiments rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.common.errors import PlanError
from repro.sps.costs import COORD_LOG_COST_S, SERDE_COST_S
from repro.sps.logical import LogicalOperator, LogicalPlan, OperatorKind
from repro.sps.partitioning import ForwardPartitioner

__all__ = ["AnalyticEstimate", "AnalyticEstimator"]


@dataclass(frozen=True)
class AnalyticEstimate:
    """Result of one analytic evaluation."""

    latency_s: float
    throughput: float
    bottleneck_op: str
    bottleneck_utilization: float
    operator_utilization: dict[str, float]

    @property
    def latency_ms(self) -> float:
        """Estimated end-to-end latency in milliseconds."""
        return self.latency_s * 1e3


class AnalyticEstimator:
    """Estimates end-to-end latency of a PQP on a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        run_duration_s: float = 10.0,
        service_cv: float = 0.3,
    ) -> None:
        self.cluster = cluster
        self.run_duration_s = run_duration_s
        self.service_cv = service_cv
        speeds = [node.speed_factor for node in cluster.nodes]
        self._avg_speed = float(np.mean(speeds))
        nics = [node.hardware.nic_gbps for node in cluster.nodes]
        self._avg_bandwidth = float(np.mean(nics)) * 1e9 / 8.0
        self._num_nodes = len(cluster.nodes)

    # ------------------------------------------------------------ internals

    def _input_rates(self, plan: LogicalPlan) -> dict[str, float]:
        """Steady-state tuple arrival rate into each operator."""
        rates: dict[str, float] = {}
        output: dict[str, float] = {}
        for op in plan.operators_in_order():
            if op.kind is OperatorKind.SOURCE:
                rate_in = float(op.metadata.get("event_rate", 1000.0))
            else:
                rate_in = sum(
                    output[edge.src] for edge in plan.in_edges(op.op_id)
                )
            rates[op.op_id] = rate_in
            output[op.op_id] = rate_in * op.selectivity
        return rates

    def _contention(self, plan: LogicalPlan) -> float:
        total_subtasks = plan.total_subtasks()
        return max(1.0, total_subtasks / self.cluster.total_slots)

    def _service_time(
        self, op: LogicalOperator, plan: LogicalPlan, contention: float
    ) -> float:
        base = (
            op.cost.base_cpu_s
            * op.cost.coordination_factor(op.parallelism)
            * contention
            / self._avg_speed
        )
        shuffle = 0.0
        for edge in plan.out_edges(op.op_id):
            if isinstance(edge.partitioner, ForwardPartitioner):
                continue
            consumers = plan.operator(edge.dst).parallelism
            per_output = SERDE_COST_S + COORD_LOG_COST_S * math.log2(
                max(consumers, 2)
            )
            if edge.partitioner.is_broadcast:
                per_output *= consumers
            shuffle += per_output
        return base + op.selectivity * shuffle

    def _sojourn(
        self, rate_in: float, parallelism: int, service: float
    ) -> tuple[float, float]:
        """(expected sojourn time, utilization) of one instance."""
        lam = rate_in / max(parallelism, 1)
        rho = lam * service
        if rho < 0.98:
            cv2 = self.service_cv * self.service_cv
            wait = (rho * service * (1.0 + cv2) / 2.0) / (1.0 - rho)
            return wait + service, rho
        # Saturated: the backlog grows throughout the run; a tuple arriving
        # midway waits for roughly half the accumulated excess work, and
        # in 0.98 <= rho < 1 there is none to wait for.
        excess = max(rho - 1.0, 0.0) / rho
        wait = 0.5 * self.run_duration_s * excess
        return wait + service, rho

    def _network_delay(self, plan: LogicalPlan, op: LogicalOperator) -> float:
        """Expected per-tuple network delay entering this operator."""
        delay = 0.0
        spec = self.cluster.network.spec
        for edge in plan.in_edges(op.op_id):
            if isinstance(edge.partitioner, ForwardPartitioner):
                continue
            consumers = max(op.parallelism, 1)
            spread = min(consumers, self._num_nodes)
            p_cross = 1.0 - 1.0 / max(spread, 1)
            src_schema = plan.operator(edge.src).output_schema
            size = src_schema.tuple_size_bytes() if src_schema else 64.0
            delay = max(
                delay,
                p_cross * (spec.base_latency_s + size / self._avg_bandwidth),
            )
        return delay

    def _window_residence(self, op: LogicalOperator, rate_in: float) -> float:
        if op.window is None:
            return 0.0
        if op.window.is_time_based:
            duration = op.window.feature_length
            if op.kind is OperatorKind.WINDOW_JOIN:
                # Matched build tuples are on average half a window old.
                return 0.5 * duration
            # Aggregates report latency from the earliest contributor,
            # which waited the full window.
            return duration
        # Count windows fill per key: residence = length / per-key rate.
        keys = max(int(op.metadata.get("key_cardinality", 1)), 1)
        per_key_rate = rate_in / keys
        if per_key_rate <= 0:
            return 0.0
        return min(
            op.window.feature_length / per_key_rate, self.run_duration_s
        )

    # -------------------------------------------------------------- public

    def estimate(self, plan: LogicalPlan) -> AnalyticEstimate:
        """Evaluate the plan; raises :class:`PlanError` if it is invalid."""
        plan.validate()
        rates = self._input_rates(plan)
        contention = self._contention(plan)
        latency_to: dict[str, float] = {}
        utilization: dict[str, float] = {}
        bottleneck_op = ""
        bottleneck_rho = -1.0
        for op in plan.operators_in_order():
            rate_in = rates[op.op_id]
            service = self._service_time(op, plan, contention)
            sojourn, rho = self._sojourn(rate_in, op.parallelism, service)
            utilization[op.op_id] = rho
            if rho > bottleneck_rho:
                bottleneck_rho = rho
                bottleneck_op = op.op_id
            upstream = plan.in_edges(op.op_id)
            base = (
                max(latency_to[e.src] for e in upstream) if upstream else 0.0
            )
            latency_to[op.op_id] = (
                base
                + sojourn
                + self._network_delay(plan, op)
                + self._window_residence(op, rate_in)
            )
        sinks = plan.sinks()
        if not sinks:
            raise PlanError("plan has no sink")
        latency = max(latency_to[s.op_id] for s in sinks)
        throughput = sum(rates[s.op_id] for s in sinks)
        return AnalyticEstimate(
            latency_s=latency,
            throughput=throughput,
            bottleneck_op=bottleneck_op,
            bottleneck_utilization=bottleneck_rho,
            operator_utilization=utilization,
        )

    def noisy_latency(
        self, plan: LogicalPlan, rng: np.random.Generator, cv: float = 0.08
    ) -> float:
        """A latency label with measurement noise, for ML corpus generation."""
        estimate = self.estimate(plan)
        sigma = math.sqrt(math.log(1.0 + cv * cv))
        return estimate.latency_s * float(
            rng.lognormal(-0.5 * sigma * sigma, sigma)
        )
