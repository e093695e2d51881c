"""Tests for repro.simulator (event queue, machine, costs, graph execution)."""

import os

import pytest

from repro.runtime.graph import TaskGraph
from repro.runtime.task import DataHandle, TaskDescriptor, arg_in, arg_inout, arg_out
from repro.simulator import backend
from repro.simulator.costs import ReplicationCostModel
from repro.simulator.engine import EventQueue
from repro.simulator.execution import SimulationConfig, simulate_graph
from repro.simulator.machine import MachineSpec, marenostrum_cluster, shared_memory_node
from tests.conftest import (
    make_chain_graph,
    make_fork_join_graph,
    make_independent_graph,
    make_task,
)


class TestEventQueue:
    def test_events_in_time_order(self):
        q = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        order = [q.pop()[1] for _ in range(3)]
        assert order == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        assert q.pop()[1] == "first"
        assert q.pop()[1] == "second"

    def test_clock_advances(self):
        q = EventQueue()
        q.push(5.0, "x")
        q.pop()
        assert q.now == 5.0

    def test_push_after(self):
        q = EventQueue()
        q.push(2.0, "x")
        q.pop()
        q.push_after(3.0, "y")
        assert q.pop()[0] == pytest.approx(5.0)

    def test_cannot_schedule_in_the_past(self):
        q = EventQueue()
        q.push(2.0, "x")
        q.pop()
        with pytest.raises(ValueError):
            q.push(1.0, "y")
        with pytest.raises(ValueError):
            q.push_after(-1.0, "y")

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_run_handler(self):
        q = EventQueue()
        seen = []
        q.push(1.0, "a")
        q.push(2.0, "b")
        n = q.run(lambda t, p: seen.append((t, p)))
        assert n == 2 and seen == [(1.0, "a"), (2.0, "b")]

    def test_run_event_budget(self):
        q = EventQueue()
        for i in range(10):
            q.push(float(i), i)
        with pytest.raises(RuntimeError):
            q.run(lambda t, p: None, max_events=3)

    def test_peek_and_len(self):
        q = EventQueue()
        assert q.peek_time() is None and not q
        q.push(1.5, "x")
        assert q.peek_time() == 1.5 and len(q) == 1


class TestMachineSpec:
    def test_totals(self):
        m = MachineSpec(n_nodes=4, cores_per_node=16, spare_cores_per_node=8)
        assert m.total_cores == 64 and m.total_spare_cores == 32

    def test_with_cores_defaults_spares(self):
        m = shared_memory_node(16).with_cores(4)
        assert m.cores_per_node == 4 and m.spare_cores_per_node == 4

    def test_with_nodes(self):
        assert marenostrum_cluster(64).with_nodes(16).n_nodes == 16

    def test_marenostrum_defaults(self):
        m = marenostrum_cluster()
        assert m.n_nodes == 64 and m.cores_per_node == 16 and m.total_cores == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec(n_nodes=0)
        with pytest.raises(ValueError):
            MachineSpec(memory_bandwidth_Bps=0)


class TestCostModel:
    def test_checkpoint_scales_with_input_bytes(self):
        costs = ReplicationCostModel()
        small = costs.checkpoint_time(make_task(0, size_bytes=1e6))
        big = costs.checkpoint_time(make_task(1, size_bytes=1e8))
        assert big > small

    def test_compare_uses_output_bytes(self):
        costs = ReplicationCostModel()
        h_in = DataHandle("i", size_bytes=1e8)
        h_out = DataHandle("o", size_bytes=1e3)
        task = TaskDescriptor(
            task_id=0, task_type="t", args=[arg_in(h_in.whole()), arg_out(h_out.whole())]
        )
        assert costs.compare_time(task) < costs.checkpoint_time(task)

    def test_protected_overhead_exceeds_unprotected(self):
        costs = ReplicationCostModel()
        task = make_task(0, size_bytes=1e7)
        assert costs.protected_overhead_estimate(task) > costs.unprotected_overhead_estimate(task)

    def test_decision_cost_is_negligible(self):
        costs = ReplicationCostModel()
        assert costs.decision_s < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationCostModel(checkpoint_bandwidth_Bps=0)


class TestSimulateGraphBasics:
    def test_independent_tasks_scale_with_cores(self):
        graph = make_independent_graph(64, duration_s=1.0, size_bytes=1024)
        m1 = simulate_graph(graph, shared_memory_node(1))
        m16 = simulate_graph(graph, shared_memory_node(16))
        assert m1.makespan_s == pytest.approx(64.0, rel=0.01)
        assert m16.makespan_s == pytest.approx(4.0, rel=0.01)
        assert m16.speedup_vs(m1) == pytest.approx(16.0, rel=0.02)

    def test_chain_does_not_scale(self):
        graph = make_chain_graph(20, duration_s=1.0, size_bytes=1024)
        m1 = simulate_graph(graph, shared_memory_node(1))
        m16 = simulate_graph(graph, shared_memory_node(16))
        assert m16.makespan_s == pytest.approx(m1.makespan_s, rel=0.01)

    def test_makespan_at_least_critical_path(self):
        graph = make_fork_join_graph(8, duration_s=1.0)
        result = simulate_graph(graph, shared_memory_node(16))
        assert result.makespan_s >= graph.critical_path_seconds()

    def test_makespan_at_least_work_over_cores(self):
        graph = make_independent_graph(100, duration_s=1.0, size_bytes=1024)
        result = simulate_graph(graph, shared_memory_node(8))
        assert result.makespan_s >= graph.total_work_seconds() / 8 - 1e-9

    def test_all_tasks_recorded(self):
        graph = make_fork_join_graph(5)
        result = simulate_graph(graph, shared_memory_node(4))
        assert result.n_tasks == len(graph)
        assert set(result.records) == set(graph.task_ids())

    def test_records_consistent(self):
        graph = make_chain_graph(5, duration_s=2.0)
        result = simulate_graph(graph, shared_memory_node(2))
        for record in result.records.values():
            assert record.finish_s > record.start_s
            assert record.node == 0

    def test_empty_graph(self):
        result = simulate_graph(TaskGraph(), shared_memory_node(2))
        assert result.makespan_s == 0.0 and result.n_tasks == 0

    def test_cycle_detection(self):
        graph = make_chain_graph(3)
        graph.add_edge(2, 0)
        with pytest.raises(RuntimeError):
            simulate_graph(graph, shared_memory_node(2))

    def test_memory_bound_workload_does_not_scale(self):
        # Tasks stream far more bytes than compute: the node bandwidth cap binds.
        graph = TaskGraph()
        for i in range(64):
            graph.add_task(make_task(i, size_bytes=1e9, duration_s=1e-4))
        m1 = simulate_graph(graph, shared_memory_node(1))
        m16 = simulate_graph(graph, shared_memory_node(16))
        assert m16.makespan_s == pytest.approx(m1.makespan_s, rel=0.05)

    def test_memory_model_can_be_disabled(self):
        graph = TaskGraph()
        for i in range(64):
            graph.add_task(make_task(i, size_bytes=1e9, duration_s=1e-4))
        cfg = SimulationConfig(model_memory_contention=False)
        m16 = simulate_graph(graph, shared_memory_node(16), cfg)
        assert m16.makespan_s == pytest.approx(64 * 1e-4 / 16, rel=0.2)


class TestSimulateReplication:
    def test_replicate_all_has_low_overhead_with_spare_cores(self):
        graph = make_independent_graph(200, duration_s=0.05, size_bytes=1e6)
        machine = shared_memory_node(8)
        base = simulate_graph(graph, machine, SimulationConfig())
        repl = simulate_graph(graph, machine, SimulationConfig(replicate_all=True))
        assert repl.replicated_tasks == 200
        assert 0.0 <= repl.overhead_vs(base) < 0.10

    def test_no_spare_cores_doubles_work(self):
        graph = make_independent_graph(64, duration_s=0.1, size_bytes=1e4)
        machine = MachineSpec(n_nodes=1, cores_per_node=4, spare_cores_per_node=0)
        base = simulate_graph(graph, machine, SimulationConfig())
        repl = simulate_graph(graph, machine, SimulationConfig(replicate_all=True))
        assert repl.overhead_vs(base) > 0.8

    def test_selective_set_respected(self):
        graph = make_independent_graph(10, duration_s=0.1)
        cfg = SimulationConfig(replicated_ids={0, 1, 2})
        result = simulate_graph(graph, shared_memory_node(4), cfg)
        assert result.replicated_tasks == 3
        assert result.records[0].replicated and not result.records[5].replicated

    def test_crashes_extend_unprotected_tasks(self):
        graph = make_independent_graph(50, duration_s=0.1, size_bytes=1e4)
        machine = shared_memory_node(4)
        clean = simulate_graph(graph, machine, SimulationConfig(seed=1))
        faulty = simulate_graph(graph, machine, SimulationConfig(crash_probability=0.5, seed=1))
        assert faulty.crashes_injected > 0
        assert faulty.makespan_s > clean.makespan_s

    def test_faults_with_full_replication_add_recovery_time(self):
        graph = make_independent_graph(50, duration_s=0.1, size_bytes=1e4)
        machine = shared_memory_node(4)
        clean = simulate_graph(graph, machine, SimulationConfig(replicate_all=True, seed=2))
        faulty = simulate_graph(
            graph, machine, SimulationConfig(replicate_all=True, sdc_probability=0.5, seed=2)
        )
        assert faulty.sdcs_injected > 0
        assert faulty.total_recovery_s > 0
        assert faulty.makespan_s >= clean.makespan_s

    def test_same_seed_reproducible(self):
        graph = make_independent_graph(30, duration_s=0.1)
        cfg = SimulationConfig(replicate_all=True, crash_probability=0.3, seed=7)
        a = simulate_graph(graph, shared_memory_node(4), cfg)
        b = simulate_graph(graph, shared_memory_node(4), cfg)
        assert a.makespan_s == b.makespan_s
        assert a.crashes_injected == b.crashes_injected

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(crash_probability=1.5)


class TestDistributedSimulation:
    def _two_node_graph(self, cross_node):
        graph = TaskGraph()
        producer = make_task(0, size_bytes=1e6, duration_s=0.01, node=0)
        consumer = make_task(1, size_bytes=1e6, duration_s=0.01, node=0 if not cross_node else 1)
        graph.add_task(producer)
        graph.add_task(consumer, deps=[0])
        return graph

    def test_cross_node_edge_pays_communication(self):
        machine = marenostrum_cluster(2)
        local = simulate_graph(self._two_node_graph(False), machine)
        remote = simulate_graph(self._two_node_graph(True), machine)
        assert remote.makespan_s > local.makespan_s

    def test_tasks_placed_on_their_node(self):
        graph = TaskGraph()
        for i in range(8):
            graph.add_task(make_task(i, node=i % 4))
        result = simulate_graph(graph, marenostrum_cluster(4))
        for tid, record in result.records.items():
            assert record.node == tid % 4

    def test_unplaced_tasks_round_robin(self):
        graph = make_independent_graph(8)
        result = simulate_graph(graph, marenostrum_cluster(4))
        assert {r.node for r in result.records.values()} == {0, 1, 2, 3}

    def test_more_nodes_speed_up_independent_work(self):
        graph = make_independent_graph(256, duration_s=0.1, size_bytes=1e4)
        small = simulate_graph(graph, marenostrum_cluster(1))
        large = simulate_graph(graph, marenostrum_cluster(4))
        assert large.speedup_vs(small) > 3.0


class TestKernelBuild:
    """The cached C kernel is keyed by its source *and* its compile command."""

    def test_path_depends_on_compiler_and_flags(self, tmp_path, monkeypatch):
        monkeypatch.setenv(backend.KERNEL_CACHE_ENV, str(tmp_path))
        default = backend.kernel_lib_path("cc")
        assert os.path.dirname(default) == str(tmp_path)
        assert backend.kernel_lib_path("cc", backend.KERNEL_CFLAGS) == default
        contracting = tuple(f for f in backend.KERNEL_CFLAGS if f != "-ffp-contract=off")
        assert backend.kernel_lib_path("cc", contracting) != default
        assert backend.kernel_lib_path("cc", (*backend.KERNEL_CFLAGS, "-O3")) != default
        assert backend.kernel_lib_path("clang") != default

    def test_build_lands_at_the_command_keyed_path(self, tmp_path, monkeypatch):
        if backend._find_cc() is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv(backend.KERNEL_CACHE_ENV, str(tmp_path))
        built = backend.build_kernel_lib()
        assert built == backend.kernel_lib_path()
        assert os.path.exists(built)
        assert backend.build_kernel_lib() == built  # reused, not rebuilt
