"""Physical plan: expansion of a logical PQP into parallel subtasks.

Each logical operator with parallelism *p* becomes *p* subtasks. Each logical
edge becomes, per producer subtask, a *channel group*: a bound partitioner
instance plus the list of consumer subtasks. Forward exchanges bind the
producer's index; all other partitioners are cloned so per-producer state
(round-robin counters) is independent, as in Flink's channel selectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import PlanError
from repro.sps.logical import LogicalEdge, LogicalPlan
from repro.sps.partitioning import ForwardPartitioner, Partitioner

__all__ = ["Subtask", "ChannelGroup", "PhysicalPlan"]


@dataclass(frozen=True)
class Subtask:
    """One parallel instance of a logical operator."""

    gid: int
    op_id: str
    index: int
    parallelism: int


@dataclass
class ChannelGroup:
    """Outgoing channels of one producer subtask along one logical edge."""

    edge: LogicalEdge
    producer_gid: int
    partitioner: Partitioner
    consumer_gids: list[int]
    port: int
    is_shuffle: bool

    @property
    def num_channels(self) -> int:
        """Fan-out of this producer along this edge."""
        return len(self.consumer_gids)


@dataclass
class PhysicalPlan:
    """The expanded plan the engine executes."""

    logical: LogicalPlan
    subtasks: list[Subtask] = field(default_factory=list)
    #: producer gid -> list of channel groups (one per out-edge)
    out_channels: dict[int, list[ChannelGroup]] = field(default_factory=dict)
    #: op_id -> gids of its subtasks, in index order
    op_subtasks: dict[str, list[int]] = field(default_factory=dict)
    #: chain head op_id -> fused member op_ids (only when chaining)
    chains: dict[str, list[str]] = field(default_factory=dict)
    #: fused tail op_id -> its chain head
    _chain_of: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_logical(
        cls, plan: LogicalPlan, chaining: bool = False
    ) -> "PhysicalPlan":
        """Validate and expand a logical plan.

        With ``chaining=True``, forward-connected stateless operators are
        fused Flink-style (see :mod:`repro.sps.chaining`): fused tails get
        no subtasks of their own, and the head executes the whole chain.
        """
        plan.validate()
        physical = cls(logical=plan)
        if chaining:
            from repro.sps.chaining import compute_chains

            physical.chains = compute_chains(plan)
            physical._chain_of = {
                member: head
                for head, members in physical.chains.items()
                for member in members[1:]
            }
        for op in plan.operators_in_order():
            if op.op_id in physical._chain_of:
                continue  # fused into its chain head
            gids = []
            for index in range(op.parallelism):
                subtask = Subtask(
                    gid=len(physical.subtasks),
                    op_id=op.op_id,
                    index=index,
                    parallelism=op.parallelism,
                )
                physical.subtasks.append(subtask)
                physical.out_channels[subtask.gid] = []
                gids.append(subtask.gid)
            physical.op_subtasks[op.op_id] = gids
        for edge in plan.edges:
            if edge.dst in physical._chain_of:
                continue  # interior chain edge: a function call now
            physical._expand_edge(edge)
        return physical

    def _producer_op(self, op_id: str) -> str:
        """The op actually hosting ``op_id``'s outputs (its chain head)."""
        return self._chain_of.get(op_id, op_id)

    def _expand_edge(self, edge: LogicalEdge) -> None:
        producers = self.op_subtasks[self._producer_op(edge.src)]
        consumers = self.op_subtasks[edge.dst]
        is_shuffle = not isinstance(edge.partitioner, ForwardPartitioner)
        for producer_index, producer_gid in enumerate(producers):
            if isinstance(edge.partitioner, ForwardPartitioner):
                partitioner: Partitioner = edge.partitioner.for_producer(
                    producer_index
                )
            else:
                partitioner = edge.partitioner.clone()
            self.out_channels[producer_gid].append(
                ChannelGroup(
                    edge=edge,
                    producer_gid=producer_gid,
                    partitioner=partitioner,
                    consumer_gids=list(consumers),
                    port=edge.port,
                    is_shuffle=is_shuffle,
                )
            )

    @property
    def num_subtasks(self) -> int:
        """Total number of parallel operator instances."""
        return len(self.subtasks)

    def subtask(self, gid: int) -> Subtask:
        """Look up a subtask by global id."""
        try:
            return self.subtasks[gid]
        except IndexError:
            raise PlanError(f"unknown subtask gid {gid}") from None

    def num_channels(self) -> int:
        """Total physical channels in the plan."""
        return sum(
            group.num_channels
            for groups in self.out_channels.values()
            for group in groups
        )

    # ------------------------------------------------------------ chaining

    def effective_cost(self, op_id: str):
        """Cost profile a subtask of ``op_id`` pays (fused when chained)."""
        members = self.chains.get(op_id)
        if not members:
            return self.logical.operator(op_id).cost
        from repro.sps.chaining import fused_cost

        return fused_cost(
            [self.logical.operator(member) for member in members]
        )

    def effective_factory(self, op_id: str):
        """Logic factory for ``op_id``'s subtasks (fused when chained)."""
        members = self.chains.get(op_id)
        if not members:
            return self.logical.operator(op_id).logic_factory
        from repro.sps.chaining import fused_factory

        return fused_factory(
            [self.logical.operator(member) for member in members]
        )
