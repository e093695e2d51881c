"""Vectorized fast path of the machine simulator, over compiled graphs.

:func:`repro.simulator.execution.simulate_graph` is the reference
implementation: a readable event loop that re-derives every per-task quantity
(costs, memory traffic, node placement) from the descriptors on each call.
The experiment drivers, however, replay the *same* graph many times — once per
fault rate and machine size — so this module splits the work:

* :class:`~repro.runtime.compiled.CompiledGraph` (produced once per graph by
  :func:`~repro.runtime.compiled.compile_graph`, usually loaded memory-mapped
  from the on-disk compiled-graph store) holds everything that depends only on
  the graph: durations, byte counts, CSR successor/predecessor indices and
  per-edge communication payloads;
* :class:`SimGraphCache` wraps a compiled graph and memoises the
  machine/cost-model-dependent *replay terms* — the per-task core-occupancy,
  completion, overhead and recovery terms, folded into flat arrays with one
  NumPy pass per (cost model, bandwidth) combination;
* :func:`simulate_compiled` and :func:`simulate_compiled_batch` replay those
  terms on one of two backends (see :mod:`repro.simulator.backend`): the C
  kernel, or :func:`_simulate_python`, the one pure-Python event loop.

The python loop is the general multi-node loop (at ``n_nodes == 1`` it pushes
the same heap tuples, consumes the same draws and accumulates the same sums a
single-node loop would).  It holds no O(n) Python objects: per-task state
(pending counts, earliest starts, node map, replication flags) lives in flat
typed arrays, and the replay terms and CSR successor rows are read through
:class:`_ReplayChunks`, a small LRU of task chunks computed on demand off the
(memory-mapped) compiled arrays — so it replays graphs far larger than RAM
would allow as Python objects, with or without per-task records.

Every arithmetic expression mirrors the reference loop operation for
operation (the replay terms are built with the same association order the
scalar code uses), events are pushed in the same order with the same FIFO
tie-breaking, and fault Bernoullis come from a chunk-buffered NumPy stream that
consumes the *same* uniform sequence as the reference path's per-call draws —
so the fast path is bit-identical to the reference, which the equivalence test
suite asserts.  Use ``fast=False`` (or the benchmark harness's
``--reference`` flag) to fall back to the reference implementation.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import replace
from heapq import heappop, heappush
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import active_tracer, trace_span
from repro.runtime.compiled import CompiledGraph, compile_graph
from repro.runtime.graph import TaskGraph
from repro.simulator import backend as _backends
from repro.simulator.costs import ReplicationCostModel
from repro.simulator.execution import (
    SimulatedTaskRecord,
    SimulationConfig,
    SimulationResult,
    simulate_graph,
)
from repro.simulator.machine import MachineSpec

#: Event kinds of the flat loop (values never compared — the heap tuples are
#: ordered by (time, sequence number) alone, as in the reference EventQueue).
_READY, _FREE, _SPARE_FREE, _COMPLETE = 0, 1, 2, 3

#: Uniform draws are buffered in chunks of this size.  ``Generator.random(n)``
#: consumes the identical double sequence as ``n`` successive
#: ``Generator.random()`` calls, so buffering keeps the fault draws
#: bit-identical to the reference path while amortising the per-call overhead.
#: (Both paths intentionally keep this sequential per-``config.seed`` stream
#: rather than the functional injector's keyed per-execution streams — see
#: ``SimulationConfig.seed``; the replay order is deterministic here, and the
#: golden artifacts pin the resulting draw sequence.)
_DRAW_CHUNK = 4096

#: Tasks per chunk of the python loop's replay-term accessor.  A resident
#: chunk holds its terms and successor rows as Python floats and ints, about
#: 0.6 KB per task on a layered graph with two edges per task, so the
#: :attr:`_ReplayChunks.CAPACITY` resident chunks stay near 10 MB at any
#: graph size (the 64 MiB simulation-delta cap of the 10^6-task memory
#: benchmark is what bounds them).
CHUNK_TASKS = 4096


def _replay_terms(
    durations: np.ndarray,
    mem_bytes: np.ndarray,
    input_bytes: np.ndarray,
    output_bytes: np.ndarray,
    machine: MachineSpec,
    costs: ReplicationCostModel,
    contention: bool,
) -> Tuple[np.ndarray, ...]:
    """The ten per-task replay-term arrays of one (costs, bandwidth) key.

    Every expression reproduces the reference loop's scalar arithmetic with
    the same association order, element-wise — which is what keeps the replay
    bit-identical while moving ~15 float operations per task out of the event
    loop.  All operations are element-wise, so calling this on aligned array
    *slices* yields exactly the corresponding slice of the full-graph result —
    the invariant the python loop's chunked accessor relies on.

    The tuple order is the kernel argument order: dur (effective duration,
    roofline-bounded if contended), mem (memory traffic charged to the node),
    core_busy0 (unreplicated, fault-free core occupancy), rep_core_busy and
    completion_spare (replicated, spare available), core_busy_nospare and
    completion_nospare (replicated, no spare), overhead_rep (replicated
    fault-free overhead), restore_dur (crash+crash recovery: restore and
    re-execute), restore_dur_vote (sdc-mismatch recovery: restore, re-execute
    and vote).
    """
    checkpoint = costs.checkpoint_latency_s + input_bytes / costs.checkpoint_bandwidth_Bps
    restore = costs.restore_latency_s + input_bytes / costs.checkpoint_bandwidth_Bps
    compare = costs.compare_latency_s + output_bytes / costs.compare_bandwidth_Bps
    vote = costs.compare_latency_s + output_bytes / costs.vote_bandwidth_Bps
    if contention:
        dur = np.maximum(durations, mem_bytes / machine.memory_bandwidth_Bps)
    else:
        dur = durations
    decision_s = costs.decision_s
    creation_s = costs.replica_creation_s
    core_busy0 = decision_s + dur
    rep_core_busy = core_busy0 + creation_s
    replica_path = (checkpoint + dur) + compare
    replica_tail = creation_s + replica_path
    core_busy_nospare = rep_core_busy + replica_path
    return tuple(
        np.ascontiguousarray(a, dtype=np.float64)
        for a in (
            dur,
            mem_bytes,
            core_busy0,
            rep_core_busy,
            np.maximum(rep_core_busy, replica_tail),
            core_busy_nospare,
            np.maximum(core_busy_nospare, replica_tail),
            (decision_s + creation_s) + (checkpoint + compare),
            restore + dur,
            (restore + dur) + vote,
        )
    )


class SimGraphCache:
    """Replay-ready view of one graph: compiled arrays plus machine memos.

    Construct from a :class:`TaskGraph` (compiled on the fly) or, in worker
    processes, from a :class:`CompiledGraph` loaded memory-mapped off the
    compiled-graph store — no ``TaskGraph`` (and no Python object graph) is
    needed to simulate.
    """

    def __init__(
        self,
        graph: Optional[TaskGraph] = None,
        compiled: Optional[CompiledGraph] = None,
    ) -> None:
        if compiled is None:
            if graph is None:
                raise ValueError("SimGraphCache needs a TaskGraph or a CompiledGraph")
            compiled = compile_graph(graph)
        self.graph = graph
        self.compiled = compiled
        self.n = compiled.n
        self.durations = np.asarray(compiled.durations)
        self.mem_bytes = np.asarray(compiled.mem_bytes)
        self.input_bytes = np.asarray(compiled.input_bytes)
        self.output_bytes = np.asarray(compiled.output_bytes)
        self._node_maps_np: Dict[int, np.ndarray] = {}
        self._replay_np: Dict[
            Tuple[ReplicationCostModel, bool, float], Tuple[np.ndarray, ...]
        ] = {}
        self._static_np: Optional[Tuple[np.ndarray, ...]] = None
        self._flags_np: Dict[Tuple[bool, Optional[frozenset]], np.ndarray] = {}

    @classmethod
    def from_compiled(cls, compiled: CompiledGraph) -> "SimGraphCache":
        """A cache over a compiled graph alone (e.g. mmap-loaded by a worker)."""
        return cls(compiled=compiled)

    def node_map_np(self, n_nodes: int) -> np.ndarray:
        """Node of every task on an ``n_nodes`` machine (reference placement rule)."""
        cached = self._node_maps_np.get(n_nodes)
        if cached is None:
            if n_nodes == 1:
                cached = np.zeros(self.n, dtype=np.int64)
            else:
                attr = np.asarray(self.compiled.node_attr, dtype=np.int64)
                idx = np.arange(self.n, dtype=np.int64)
                # Same placement rule the reference applies per task:
                # (attr % n_nodes) if attr >= 0 else (i % n_nodes).
                cached = np.where(attr >= 0, attr % n_nodes, idx % n_nodes)
            cached = np.ascontiguousarray(cached, dtype=np.int64)
            self._node_maps_np[n_nodes] = cached
        return cached

    def replay_arrays_np(
        self, machine: MachineSpec, costs: ReplicationCostModel, contention: bool
    ) -> Tuple[np.ndarray, ...]:
        """The full-graph :func:`_replay_terms` of one (costs, contention, bandwidth) key."""
        key = (costs, bool(contention), machine.memory_bandwidth_Bps)
        cached = self._replay_np.get(key)
        if cached is None:
            cached = _replay_terms(
                self.durations,
                self.mem_bytes,
                self.input_bytes,
                self.output_bytes,
                machine,
                costs,
                contention,
            )
            self._replay_np[key] = cached
        return cached

    def static_np(self) -> Tuple[np.ndarray, ...]:
        """Graph-structure arrays the kernel indexes: CSR successors + degrees.

        Order matches the kernel argument order: succ_indptr, succ_indices,
        edge_bytes, in_degree.
        """
        cached = self._static_np
        if cached is None:
            c = self.compiled
            cached = (
                np.ascontiguousarray(c.succ_indptr, dtype=np.int64),
                np.ascontiguousarray(c.succ_indices, dtype=np.int64),
                np.ascontiguousarray(c.edge_bytes, dtype=np.float64),
                np.ascontiguousarray(c.in_degrees(), dtype=np.int64),
            )
            self._static_np = cached
        return cached

    def replicated_flags_np(self, config: SimulationConfig) -> np.ndarray:
        """Per-task replication flags as a uint8 array, in dense index order.

        ``np.isin`` over int64 task ids decides membership exactly like the
        reference's per-task ``tid in replicated_ids``.
        """
        key = (bool(config.replicate_all), config.replicated_ids)
        cached = self._flags_np.get(key)
        if cached is None:
            if config.replicate_all:
                cached = np.ones(self.n, dtype=np.uint8)
            elif config.replicated_ids is not None:
                ids = np.fromiter(config.replicated_ids, dtype=np.int64, count=len(config.replicated_ids))
                cached = np.ascontiguousarray(
                    np.isin(self.compiled.task_ids, ids).astype(np.uint8)
                )
            else:
                cached = np.zeros(self.n, dtype=np.uint8)
            self._flags_np[key] = cached
        return cached


def simulate_compiled(
    cache: SimGraphCache,
    machine: MachineSpec,
    config: Optional[SimulationConfig] = None,
    backend: Optional[str] = None,
) -> SimulationResult:
    """Replay a compiled graph on ``machine``; bit-identical to the reference.

    This is the entry point worker processes use: ``cache`` may wrap a
    memory-mapped :class:`~repro.runtime.compiled.CompiledGraph` with no
    ``TaskGraph`` behind it.  ``backend`` overrides the loop backend
    (``$REPRO_SIM_BACKEND``/auto otherwise — see
    :mod:`repro.simulator.backend`); every backend is bit-identical.
    """
    config = config if config is not None else SimulationConfig()
    chosen = _backends.resolve_backend(backend)
    with trace_span(
        active_tracer(), "sim.dispatch", backend=chosen.name, tasks=cache.n, lanes=1
    ):
        if chosen.name != "python" and cache.n > 0:
            return _replay_kernel_batch(cache, machine, config, [config.seed], chosen, configs=[config])[0]
        return _simulate_python(cache, machine, config)


def simulate_compiled_batch(
    cache: SimGraphCache,
    machine: MachineSpec,
    config: Optional[SimulationConfig] = None,
    seeds: Sequence[int] = (0,),
    backend: Optional[str] = None,
) -> List[SimulationResult]:
    """Replay one compiled graph for a whole batch of fault seeds.

    Seed ``seeds[j]`` becomes lane ``j`` over the shared replay arrays: the
    graph structure, per-task cost terms and replication flags are prepared
    once, each lane pre-draws its own uniform block from
    ``default_rng(SeedSequence(seed))`` — the same chunked generator sequence
    the scalar path consumes — and the selected backend replays all lanes in
    one kernel invocation.  Lane ``j`` is bit-identical to
    ``simulate_compiled(cache, machine, replace(config, seed=seeds[j]))``, so
    results do not depend on batch composition or seed order.
    """
    config = config if config is not None else SimulationConfig()
    seeds = list(seeds)
    if not seeds:
        return []
    chosen = _backends.resolve_backend(backend)
    with trace_span(
        active_tracer(),
        "sim.dispatch",
        backend=chosen.name,
        tasks=cache.n,
        lanes=len(seeds),
    ):
        if chosen.name == "python" or cache.n == 0:
            return [
                _simulate_python(cache, machine, replace(config, seed=int(s))) for s in seeds
            ]
        return _replay_kernel_batch(cache, machine, config, seeds, chosen)


def _max_draws(n_replicated: int, n_plain: int, config: SimulationConfig) -> int:
    """Upper bound on uniform draws one lane can consume, chunk-rounded.

    Replicated tasks draw two crash Bernoullis and at most two SDC ones,
    plain tasks one of each; draws only happen for probabilities strictly
    inside (0, 1).  Rounding up to whole chunks mirrors the scalar buffers —
    only the consumed prefix affects results, so overdrawing is harmless.
    """
    per = 0
    if 0.0 < config.crash_probability < 1.0:
        per += 2 * n_replicated + n_plain
    if 0.0 < config.sdc_probability < 1.0:
        per += 2 * n_replicated + n_plain
    if per == 0:
        return 0
    return -(-per // _DRAW_CHUNK) * _DRAW_CHUNK


def _replay_kernel_batch(
    cache: SimGraphCache,
    machine: MachineSpec,
    config: SimulationConfig,
    seeds: Sequence[int],
    backend: "_backends.KernelBackend",
    configs: Optional[List[SimulationConfig]] = None,
) -> List[SimulationResult]:
    """Run a seed batch through a compiled kernel backend and assemble results."""
    n = cache.n
    n_nodes = machine.n_nodes
    n_lanes = len(seeds)
    collect = bool(config.collect_records)
    contention = bool(config.model_memory_contention)

    replay = cache.replay_arrays_np(machine, config.costs, contention)
    static = cache.static_np()
    node_of = cache.node_map_np(n_nodes)
    flags = cache.replicated_flags_np(config)
    arrays = replay + static + (node_of, flags)

    n_replicated = int(flags.sum())
    draws = _max_draws(n_replicated, n - n_replicated, config)
    if draws:
        uniforms = np.empty((n_lanes, draws), dtype=np.float64)
        for j, seed in enumerate(seeds):
            np.random.default_rng(np.random.SeedSequence(int(seed))).random(out=uniforms[j])
    else:
        uniforms = np.zeros((1, 1), dtype=np.float64)

    out_scalars = np.zeros((n_lanes, 5), dtype=np.float64)
    out_counts = np.zeros((n_lanes, 5), dtype=np.int64)
    if collect:
        rec_shape = (n_lanes, n)
    else:
        rec_shape = (1, 1)
    start_at = np.zeros(rec_shape, dtype=np.float64)
    finish_at = np.zeros(rec_shape, dtype=np.float64)
    overhead_at = np.zeros(rec_shape, dtype=np.float64)
    recovery_at = np.zeros(rec_shape, dtype=np.float64)

    meta = (
        n,
        n_nodes,
        machine.cores_per_node,
        machine.spare_cores_per_node,
        machine.network_latency_s,
        machine.network_bandwidth_Bps,
        int(contention),
        int(collect),
        config.crash_probability,
        config.sdc_probability,
        config.costs.decision_s,
    )
    rc = backend.run_batch(
        n_lanes,
        meta,
        arrays,
        uniforms,
        draws,
        out_scalars,
        out_counts,
        (start_at, finish_at, overhead_at, recovery_at),
    )
    if rc != 0:
        raise RuntimeError(
            f"simulator backend {backend.name!r} failed: {_backends.kernel_error(rc)}"
        )

    node_list = node_of.tolist() if collect else []
    flag_list = flags.tolist() if collect else []
    dur_list = replay[0].tolist() if collect else []
    results: List[SimulationResult] = []
    for j, seed in enumerate(seeds):
        if configs is not None:
            lane_config = configs[j]
        else:
            lane_config = replace(config, seed=int(seed))
        if collect:
            record_arrays: Optional[Tuple[Sequence[float], ...]] = (
                start_at[j].tolist(),
                finish_at[j].tolist(),
                overhead_at[j].tolist(),
                recovery_at[j].tolist(),
                dur_list,
            )
        else:
            record_arrays = None
        scalars = out_scalars[j]
        counts = out_counts[j]
        results.append(
            _finish(
                cache,
                machine,
                lane_config,
                node_list,
                flag_list,
                int(counts[3]),
                float(scalars[0]),
                float(scalars[4]),
                (
                    float(scalars[1]),
                    float(scalars[2]),
                    float(scalars[3]),
                    int(counts[0]),
                    int(counts[1]),
                    int(counts[2]),
                ),
                record_arrays,
            )
        )
    return results


def _finish(
    cache: SimGraphCache,
    machine: MachineSpec,
    config: SimulationConfig,
    node_of: Sequence[int],
    is_replicated: Sequence[int],
    n_started: int,
    makespan: float,
    max_node_mem: float,
    totals: Tuple[float, float, float, int, int, int],
    record_arrays: Optional[Tuple[Sequence[float], ...]],
) -> SimulationResult:
    """Assemble the :class:`SimulationResult` shared by both backends.

    ``record_arrays`` is ``(start, finish, overhead, recovery, base duration)``
    per dense task index, or ``None`` when records are not collected.
    """
    n = cache.n
    if n_started != n:
        raise RuntimeError(
            f"simulation finished with {n - n_started} unexecuted tasks; "
            "the graph probably contains a cycle"
        )
    total_work, total_overhead, total_recovery, crashes, sdcs, replicated_count = totals
    records: Dict[int, SimulatedTaskRecord] = {}
    if record_arrays is not None:
        for tid, node, rep, start, finish, overhead, recovery, base in zip(
            cache.compiled.task_ids.tolist(), node_of, is_replicated, *record_arrays
        ):
            records[tid] = SimulatedTaskRecord(
                task_id=tid,
                node=node,
                start_s=start,
                finish_s=finish,
                replicated=bool(rep),
                base_duration_s=base,
                overhead_s=overhead,
                recovery_s=recovery,
            )
    if config.model_memory_contention and machine.n_nodes > 0:
        bandwidth_bound = max_node_mem / machine.memory_bandwidth_Bps
        makespan = max(makespan, bandwidth_bound)
    return SimulationResult(
        makespan_s=makespan,
        machine=machine,
        config=config,
        records=records,
        total_work_s=total_work,
        total_overhead_s=total_overhead,
        total_recovery_s=total_recovery,
        crashes_injected=crashes,
        sdcs_injected=sdcs,
        replicated_tasks=replicated_count,
    )


#: One chunk of :class:`_ReplayChunks`: ``(lo, hi, rows, ptr, succ, ebytes)``.
_Chunk = Tuple[int, int, List[List[float]], List[int], List[int], List[float]]


class _ReplayChunks:
    """Bounded-memory accessor of the replay terms and CSR successor rows.

    :meth:`get` returns the chunk ``(lo, hi, rows, ptr, succ, ebytes)`` holding
    task ``i`` (``lo <= i < hi``): ``rows[i - lo]`` lists the task's ten
    replay terms in :func:`_replay_terms` order, and its successor edges are
    ``e in range(ptr[i - lo], ptr[i - lo + 1])``, with target ``succ[e]`` and
    payload ``ebytes[e]``.  Chunks are computed on demand off the compiled
    graph's (memory-mapped) arrays and held in a small LRU.  Every term
    expression is element-wise, so a chunk holds exactly the floats of the
    corresponding slice of the full-graph arrays the C kernel reads.
    """

    #: Resident chunk budget.  The loop reads only the chunk of a task it
    #: starts or completes, and the tasks in flight span a narrow band of
    #: dense indices, so a handful of chunks absorbs the straddle.
    CAPACITY = 4

    def __init__(
        self,
        compiled: CompiledGraph,
        machine: MachineSpec,
        config: SimulationConfig,
        chunk: int,
    ) -> None:
        if chunk < 1:
            raise ValueError(f"chunk must be a positive task count, got {chunk}")
        self._compiled = compiled
        self._machine = machine
        self._costs = config.costs
        self._contention = bool(config.model_memory_contention)
        self._chunk = int(chunk)
        self._lru: "OrderedDict[int, _Chunk]" = OrderedDict()

    def get(self, i: int) -> _Chunk:
        """The chunk holding task ``i``."""
        base = i // self._chunk
        entry = self._lru.get(base)
        if entry is not None:
            self._lru.move_to_end(base)
            return entry
        c = self._compiled
        lo = base * self._chunk
        hi = min(lo + self._chunk, c.n)
        terms = _replay_terms(
            np.asarray(c.durations[lo:hi]),
            np.asarray(c.mem_bytes[lo:hi]),
            np.asarray(c.input_bytes[lo:hi]),
            np.asarray(c.output_bytes[lo:hi]),
            self._machine,
            self._costs,
            self._contention,
        )
        ptr = np.asarray(c.succ_indptr[lo : hi + 1], dtype=np.int64)
        e_lo, e_hi = int(ptr[0]), int(ptr[-1])
        entry = (
            lo,
            hi,
            np.column_stack(terms).tolist(),
            (ptr - e_lo).tolist(),
            np.asarray(c.succ_indices[e_lo:e_hi]).tolist(),
            np.asarray(c.edge_bytes[e_lo:e_hi], dtype=np.float64).tolist(),
        )
        if len(self._lru) >= self.CAPACITY:
            self._lru.popitem(last=False)
        self._lru[base] = entry
        return entry


def _typed(code: str, values: np.ndarray) -> array:
    """A flat :class:`array.array` copy of ``values`` (items read as Python scalars)."""
    out = array(code)
    out.frombytes(memoryview(np.ascontiguousarray(values, dtype=np.dtype(code))).cast("B"))
    return out


def _uniform_stream(seed: int) -> Iterator[float]:
    """The fault-draw uniforms of ``seed``, generated ``_DRAW_CHUNK`` at a time."""
    rand = np.random.default_rng(np.random.SeedSequence(seed)).random
    return chain.from_iterable(iter(lambda: rand(_DRAW_CHUNK).tolist(), None))


def _simulate_python(
    cache: SimGraphCache,
    machine: MachineSpec,
    config: SimulationConfig,
    chunk: int = CHUNK_TASKS,
) -> SimulationResult:
    """The pure-Python replay: one general event loop in bounded memory.

    The loop mirrors the reference event loop (and ``_simkernel.c``) event for
    event.  Besides its output, it allocates a few numeric words per task in
    flat typed arrays plus :attr:`_ReplayChunks.CAPACITY` chunks of ``chunk``
    tasks; per-task records, when ``config.collect_records`` asks for them,
    add five more float arrays and the record objects themselves.
    """
    n = cache.n
    n_nodes = machine.n_nodes
    chunks = _ReplayChunks(cache.compiled, machine, config, chunk)
    in_degree = cache.compiled.in_degrees()
    pending = _typed("i", in_degree)
    earliest = array("d", bytes(8 * n))
    node_of = _typed("i", cache.node_map_np(n_nodes))
    flags = _typed("B", cache.replicated_flags_np(config))
    decision_s = config.costs.decision_s
    contention = config.model_memory_contention
    net_latency = machine.network_latency_s
    net_bandwidth = machine.network_bandwidth_Bps

    p_crash = config.crash_probability
    p_sdc = config.sdc_probability
    crash_mid = 0.0 < p_crash < 1.0
    crash_hi = p_crash >= 1.0
    sdc_mid = 0.0 < p_sdc < 1.0
    sdc_hi = p_sdc >= 1.0
    draw = _uniform_stream(config.seed).__next__

    free_cores = [machine.cores_per_node] * n_nodes
    free_spares = [machine.spare_cores_per_node] * n_nodes
    node_ready: List[List[int]] = [[] for _ in range(n_nodes)]
    node_mem = [0.0] * n_nodes

    collect = config.collect_records
    record_arrays: Optional[Tuple[array, ...]] = None
    if collect:
        record_arrays = tuple(array("d", bytes(8 * n)) for _ in range(5))
        start_at, finish_at, overhead_at, recovery_at, base_at = record_arrays

    crashes = 0
    sdcs = 0
    total_overhead = 0.0
    total_recovery = 0.0
    total_work = 0.0
    replicated_count = 0
    n_started = 0
    makespan = 0.0

    # Initial ready events in index order: ascending (0.0, seq) is a heap.
    heap: List[Tuple[float, int, int, int]] = [
        (0.0, seq, _READY, i) for seq, i in enumerate(np.flatnonzero(in_degree == 0).tolist())
    ]
    seq = len(heap)
    del in_degree

    # The chunks last read by the start and the completion branch.
    s_lo = s_hi = c_lo = c_hi = 0
    rows: List[List[float]] = []
    ptr: List[int] = []
    succ: List[int] = []
    ebytes: List[float] = []

    while heap:
        now, _, kind, i = heappop(heap)
        nid = node_of[i]
        if kind == _READY:
            heappush(node_ready[nid], i)
        elif kind == _FREE:
            free_cores[nid] += 1
        elif kind == _SPARE_FREE:
            free_spares[nid] += 1
            continue
        else:  # _COMPLETE
            if not c_lo <= i < c_hi:
                c_lo, c_hi, _, ptr, succ, ebytes = chunks.get(i)
            k = i - c_lo
            for e in range(ptr[k], ptr[k + 1]):
                s = succ[e]
                delay = 0.0
                if node_of[s] != nid:
                    delay = net_latency + ebytes[e] / net_bandwidth
                arrival = now + delay
                if arrival > earliest[s]:
                    earliest[s] = arrival
                pending[s] -= 1
                if pending[s] == 0:
                    at = now if now > earliest[s] else earliest[s]
                    heappush(heap, (at, seq, _READY, s))
                    seq += 1

        # try_start(nid): drain the node's ready heap while cores are free.
        ready = node_ready[nid]
        while free_cores[nid] > 0 and ready:
            i = heappop(ready)
            free_cores[nid] -= 1
            if not s_lo <= i < s_hi:
                s_lo, s_hi, rows, _, _, _ = chunks.get(i)
            (
                dur,
                mem,
                core_busy0,
                rep_core_busy,
                completion_spare,
                core_busy_nospare,
                completion_nospare,
                overhead_rep,
                restore_dur,
                restore_dur_vote,
            ) = rows[i - s_lo]
            if flags[i]:
                replicated_count += 1
                if free_spares[nid] > 0:
                    free_spares[nid] -= 1
                    use_spare = True
                    core_busy = rep_core_busy
                    completion = completion_spare
                else:
                    use_spare = False
                    core_busy = core_busy_nospare
                    completion = completion_nospare
                # Draw order: both crash draws, then an SDC draw for each
                # replica that did not crash.
                if crash_mid:
                    crash0 = draw() < p_crash
                    crash1 = draw() < p_crash
                else:
                    crash0 = crash1 = crash_hi
                if sdc_mid:
                    sdc0 = not crash0 and draw() < p_sdc
                    sdc1 = not crash1 and draw() < p_sdc
                else:
                    sdc0 = not crash0 and sdc_hi
                    sdc1 = not crash1 and sdc_hi
                crashes += crash0 + crash1
                sdcs += sdc0 + sdc1
                if crash0 and crash1:
                    recovery = restore_dur
                    completion += recovery
                    total_recovery += recovery
                elif (sdc0 != sdc1) and not (crash0 or crash1):
                    recovery = restore_dur_vote
                    completion += recovery
                    total_recovery += recovery
                else:
                    recovery = 0.0
                overhead = overhead_rep
            else:
                use_spare = False
                crash0 = draw() < p_crash if crash_mid else crash_hi
                if sdc_mid:
                    sdc0 = not crash0 and draw() < p_sdc
                else:
                    sdc0 = not crash0 and sdc_hi
                crashes += crash0
                sdcs += sdc0
                if crash0:
                    recovery = dur
                    core_busy = core_busy0 + recovery
                    total_recovery += recovery
                else:
                    recovery = 0.0
                    core_busy = core_busy0
                completion = core_busy
                overhead = decision_s

            total_overhead += overhead
            total_work += dur
            if contention:
                node_mem[nid] += mem
            finish = now + completion
            if finish > makespan:
                makespan = finish
            if collect:
                start_at[i] = now
                finish_at[i] = finish
                overhead_at[i] = overhead
                recovery_at[i] = recovery
                base_at[i] = dur
            n_started += 1
            # Spare release precedes core release at equal timestamps, as in
            # the reference loop, so a task started by the freed core sees the
            # spare available.
            if use_spare:
                heappush(heap, (now + core_busy, seq, _SPARE_FREE, i))
                seq += 1
            heappush(heap, (now + core_busy, seq, _FREE, i))
            seq += 1
            heappush(heap, (finish, seq, _COMPLETE, i))
            seq += 1

    return _finish(
        cache,
        machine,
        config,
        node_of,
        flags,
        n_started,
        makespan,
        max(node_mem),
        (total_work, total_overhead, total_recovery, crashes, sdcs, replicated_count),
        record_arrays,
    )


def simulate_graph_fast(
    graph: TaskGraph,
    machine: MachineSpec,
    config: Optional[SimulationConfig] = None,
    cache: Optional[SimGraphCache] = None,
) -> SimulationResult:
    """Drop-in replacement for :func:`simulate_graph`, bit-identical results.

    Pass a :class:`SimGraphCache` to amortise the per-graph precomputation
    across fault rates and machine sizes (the experiment engine does).
    """
    if cache is None:
        cache = SimGraphCache(graph)
    return simulate_compiled(cache, machine, config)


def simulate(
    graph: TaskGraph,
    machine: MachineSpec,
    config: Optional[SimulationConfig] = None,
    fast: bool = True,
    cache: Optional[SimGraphCache] = None,
) -> SimulationResult:
    """Dispatch to the fast path (default) or the scalar reference loop."""
    if fast:
        return simulate_graph_fast(graph, machine, config, cache=cache)
    return simulate_graph(graph, machine, config)
