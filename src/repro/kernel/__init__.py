"""Domain-agnostic discrete-event simulation kernel.

The kernel owns exactly four things: the event heap, the simulated
clock, the monotone tie-break sequence and the work counter. It knows
nothing about streams, operators or tuples — the stream runtime
(:mod:`repro.sps.engine`) registers one handler per event kind and
drives the loop, and the sharded executor
(:mod:`repro.sps.shard_exec`) runs one kernel per shard under the
conservative-time controller in :mod:`repro.kernel.sharded`.
"""

from repro.kernel.core import (
    TB_SEQ_BITS,
    BudgetExceededError,
    Kernel,
    pack_tiebreak,
)
from repro.kernel.partition import partition_nodes, shard_of_gids
from repro.kernel.sharded import ShardController

__all__ = [
    "TB_SEQ_BITS",
    "BudgetExceededError",
    "Kernel",
    "ShardController",
    "pack_tiebreak",
    "partition_nodes",
    "shard_of_gids",
]
