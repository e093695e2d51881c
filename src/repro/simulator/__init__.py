"""Discrete-event machine simulator.

The paper's overhead and scalability numbers (Figures 4-6) come from runs on
Marenostrum III (16 cores/node, up to 64 nodes).  This package provides the
substitute: a discrete-event simulator that replays a task graph against a
machine model with

* per-node cores and *spare cores* for replicas (the paper executes replicas on
  spare cores),
* a shared per-node memory bandwidth (so memory-bound benchmarks such as
  Stream stop scaling, as they do in the paper),
* a replication cost model (input checkpointing, output comparison, recovery
  re-executions),
* an inter-node network for the distributed benchmarks.

Three executions of the same model exist, all bit-identical:
:func:`~repro.simulator.execution.simulate_graph` is the scalar reference
loop (the oracle, over a ``TaskGraph``), and the fast path
(:func:`~repro.simulator.fastpath.simulate_compiled`, over precomputed
compiled-graph arrays) runs one of two *backends* selected via
``$REPRO_SIM_BACKEND`` (see :mod:`repro.simulator.backend`): a
self-compiled C kernel, or a single pure-Python event loop that replays in
bounded memory at any graph size.  :func:`~repro.simulator.fastpath.simulate`
dispatches between the reference and the fast path, and
:func:`~repro.simulator.fastpath.simulate_compiled_batch` replays a whole
batch of fault seeds over shared replay arrays in one kernel invocation.
"""

from repro.simulator.machine import MachineSpec, shared_memory_node, marenostrum_cluster
from repro.simulator.costs import ReplicationCostModel
from repro.simulator.engine import EventQueue
from repro.simulator.execution import (
    SimulatedTaskRecord,
    SimulationConfig,
    SimulationResult,
    simulate_graph,
)
from repro.simulator.fastpath import (
    SimGraphCache,
    simulate,
    simulate_compiled,
    simulate_compiled_batch,
    simulate_graph_fast,
)

__all__ = [
    "EventQueue",
    "MachineSpec",
    "ReplicationCostModel",
    "SimGraphCache",
    "SimulatedTaskRecord",
    "SimulationConfig",
    "SimulationResult",
    "marenostrum_cluster",
    "shared_memory_node",
    "simulate",
    "simulate_compiled",
    "simulate_compiled_batch",
    "simulate_graph",
    "simulate_graph_fast",
]
