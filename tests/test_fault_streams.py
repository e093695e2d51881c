"""Property suite for the keyed per-execution fault streams.

The contract under test (see ``repro.util.rng.fault_stream`` and
``repro.faults.injector.FaultInjector``): a fault draw is a pure function of
``(root_seed, task_id, execution_index)`` — independent of call order, of
other draws, and of which injector instance performs it — while distinct keys
behave like independent streams whose marginal crash/SDC rates match the
configured probabilities.
"""

import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.errors import ErrorClass
from repro.faults.injector import FaultInjector, InjectionConfig
from repro.util.rng import FAULT_LANE_CORRUPTION, fault_key, fault_stream
from tests.conftest import make_task

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
TASK_IDS = st.integers(min_value=0, max_value=10_000)
EXEC_INDICES = st.integers(min_value=0, max_value=8)


def event_key(event):
    """Order-insensitive identity of an injected event."""
    return (event.task_id, event.execution_index, event.error_class.value)


class TestKeyedStreamPurity:
    @given(seed=SEEDS, task_id=TASK_IDS, execution=EXEC_INDICES)
    def test_same_key_same_uniforms(self, seed, task_id, execution):
        a = fault_stream(seed, task_id, execution)
        b = fault_stream(seed, task_id, execution)
        assert [a.random() for _ in range(8)] == [b.random() for _ in range(8)]

    @given(seed=SEEDS, task_id=TASK_IDS, execution=EXEC_INDICES)
    def test_lanes_are_distinct_streams(self, seed, task_id, execution):
        draw = fault_stream(seed, task_id, execution)
        corruption = fault_stream(
            seed, task_id, execution, lane=FAULT_LANE_CORRUPTION
        )
        assert [draw.random() for _ in range(4)] != [
            corruption.random() for _ in range(4)
        ]

    @given(
        seed=SEEDS,
        keys=st.lists(
            st.tuples(TASK_IDS, EXEC_INDICES), min_size=2, max_size=8, unique=True
        ),
    )
    def test_distinct_keys_distinct_streams(self, seed, keys):
        firsts = [fault_stream(seed, t, e).random() for t, e in keys]
        assert len(set(firsts)) == len(firsts)

    def test_negative_task_id_folds_into_valid_key(self):
        # Sentinel ids (tests use -1) must key cleanly, not crash SeedSequence.
        assert fault_key(-1, 0) == ((1 << 64) - 1, 0, 0)
        s = fault_stream(3, -1, 0)
        assert 0.0 <= s.random() < 1.0


class TestInjectorDrawPurity:
    @given(seed=SEEDS, task_id=TASK_IDS, execution=EXEC_INDICES)
    def test_draw_twice_same_key_same_events(self, seed, task_id, execution):
        inj = FaultInjector(
            config=InjectionConfig(
                fixed_crash_probability=0.5, fixed_sdc_probability=0.5
            ),
            root_seed=seed,
        )
        task = make_task(task_id)
        first = [event_key(e) for e in inj.draw(task, execution_index=execution)]
        second = [event_key(e) for e in inj.draw(task, execution_index=execution)]
        assert first == second

    @given(
        seed=SEEDS,
        keys=st.lists(
            st.tuples(TASK_IDS, EXEC_INDICES), min_size=1, max_size=12, unique=True
        ),
        shuffle_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_draws_independent_of_call_order(self, seed, keys, shuffle_seed):
        config = InjectionConfig(
            fixed_crash_probability=0.4, fixed_sdc_probability=0.4
        )
        forward = FaultInjector(config=config, root_seed=seed)
        shuffled = FaultInjector(config=config, root_seed=seed)
        by_key_forward = {
            (t, e): [event_key(ev) for ev in forward.draw(make_task(t), execution_index=e)]
            for t, e in keys
        }
        order = list(keys)
        np.random.default_rng(shuffle_seed).shuffle(order)
        by_key_shuffled = {
            (t, e): [event_key(ev) for ev in shuffled.draw(make_task(t), execution_index=e)]
            for t, e in order
        }
        assert by_key_forward == by_key_shuffled
        assert sorted(forward.injected_multiset()) == sorted(shuffled.injected_multiset())

    @given(seed=SEEDS)
    def test_rng_seed_and_root_seed_spellings_agree(self, seed):
        from repro.util.rng import RngStream

        a = FaultInjector(
            config=InjectionConfig(fixed_crash_probability=0.5), root_seed=seed
        )
        b = FaultInjector(
            config=InjectionConfig(fixed_crash_probability=0.5), rng=RngStream(seed)
        )
        for task_id in range(20):
            task = make_task(task_id)
            assert [event_key(e) for e in a.draw(task)] == [
                event_key(e) for e in b.draw(task)
            ]


class TestMarginalRates:
    @pytest.mark.parametrize("crash_p,sdc_p", [(0.2, 0.0), (0.0, 0.35), (0.15, 0.15)])
    def test_rates_match_config_within_tolerance(self, crash_p, sdc_p):
        inj = FaultInjector(
            config=InjectionConfig(
                fixed_crash_probability=crash_p, fixed_sdc_probability=sdc_p
            ),
            root_seed=1234,
        )
        n = 4000
        crashes = sdcs = 0
        for task_id in range(n):
            events = inj.draw(make_task(task_id))
            crashes += sum(1 for e in events if e.error_class is ErrorClass.DUE)
            sdcs += sum(1 for e in events if e.error_class is ErrorClass.SDC)
        # ~4.4 sigma bands: deterministic given the seed, generous to any seed.
        for observed, p in ((crashes, crash_p), (sdcs, sdc_p)):
            tolerance = 4.4 * np.sqrt(max(p * (1 - p), 1e-12) / n) + 1e-9
            assert abs(observed / n - p) <= tolerance

    def test_extreme_probabilities_are_exact(self):
        always = FaultInjector(
            config=InjectionConfig(
                fixed_crash_probability=1.0, fixed_sdc_probability=1.0
            ),
            root_seed=0,
        )
        never = FaultInjector(
            config=InjectionConfig(
                fixed_crash_probability=0.0, fixed_sdc_probability=0.0
            ),
            root_seed=0,
        )
        for task_id in range(50):
            assert len(always.draw(make_task(task_id))) == 2
            assert never.draw(make_task(task_id)) == []


class TestConcurrentBookkeeping:
    def test_injected_list_safe_under_concurrent_draws(self):
        """Regression: the events list used to be appended without a lock."""
        inj = FaultInjector(
            config=InjectionConfig(
                fixed_crash_probability=1.0, fixed_sdc_probability=1.0
            ),
            root_seed=0,
        )
        n_threads, draws_per_thread = 8, 200
        barrier = threading.Barrier(n_threads)

        def worker(base):
            barrier.wait()
            for i in range(draws_per_thread):
                inj.draw(make_task(base * draws_per_thread + i))

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(inj.injected_events()) == 2 * n_threads * draws_per_thread
        counts = inj.injected_counts()
        assert counts["due"] == counts["sdc"] == n_threads * draws_per_thread
        inj.reset()
        assert inj.injected_events() == []


class TestRootSeedEnvironment:
    """The root seed comes only from the constructor; the environment is not read."""

    def test_env_var_ignored_default_is_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "98765")
        assert FaultInjector().root_seed == 0

    def test_explicit_seed_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "98765")
        assert FaultInjector(root_seed=5).root_seed == 5
