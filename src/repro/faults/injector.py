"""Fault injection.

The injector decides, for each *execution* of a task (original, replica,
re-execution), whether it suffers a crash (DUE), a silent data corruption
(SDC), both, or neither.  Three sources of fault decisions are supported:

* **FIT-derived probabilities** — the exponential model over the task's
  estimated rates and duration (realistic, tiny probabilities; used with an
  acceleration factor in tests),
* **fixed per-task probabilities** — the paper's Section V-A2 experiments use
  "per task fixed fault rates" for the recovery/scalability study,
* **forced plans** — deterministic fault schedules for unit tests of the
  recovery protocol.

Draws are *keyed*, not streamed: every execution owns a counter-based RNG
stream addressed by ``(root_seed, task_id, execution_index)`` (see
:func:`repro.util.rng.fault_stream`), so the injected-fault multiset of a run
is a pure function of the root seed and the task graph — independent of how
many worker threads consume the draws and of the order they reach them.  The
same keying hands the replication engine a per-execution *corruption* stream
(a separate lane of the key) so the corrupted bit pattern of an escaped SDC is
equally scheduling-independent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.errors import ErrorClass, FaultEvent
from repro.faults.model import FailureModel
from repro.runtime.task import TaskDescriptor
from repro.util.rng import FAULT_LANE_CORRUPTION, RngStream, fault_stream
from repro.util.validation import check_non_negative, check_probability

@dataclass
class InjectionConfig:
    """How fault probabilities are derived.

    Exactly one of the two probability sources applies to each error class:
    when ``fixed_crash_probability``/``fixed_sdc_probability`` is not ``None``
    it overrides the FIT-derived probability for that class.

    ``acceleration`` multiplies FIT-derived probabilities (not the fixed ones)
    so functional tests can observe faults without running for billions of
    hours; it has no effect on the bookkeeping the heuristic performs.
    """

    fixed_crash_probability: Optional[float] = None
    fixed_sdc_probability: Optional[float] = None
    acceleration: float = 1.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.fixed_crash_probability is not None:
            check_probability(self.fixed_crash_probability, "fixed_crash_probability")
        if self.fixed_sdc_probability is not None:
            check_probability(self.fixed_sdc_probability, "fixed_sdc_probability")
        check_non_negative(self.acceleration, "acceleration")


@dataclass
class FaultPlan:
    """A deterministic fault schedule for tests.

    ``faults`` maps ``(task_id, execution_index)`` to the error class injected
    into that execution.  Executions not listed are fault-free.
    """

    faults: Dict[Tuple[int, int], ErrorClass] = field(default_factory=dict)

    def add(self, task_id: int, execution_index: int, error_class: ErrorClass) -> "FaultPlan":
        """Schedule an error for a specific execution of a task."""
        self.faults[(task_id, execution_index)] = error_class
        return self

    def lookup(self, task_id: int, execution_index: int) -> Optional[ErrorClass]:
        """The scheduled error class for an execution, if any."""
        return self.faults.get((task_id, execution_index))


class FaultInjector:
    """Draws fault events for task executions from keyed per-execution streams.

    ``root_seed`` (default ``0``) selects the whole family of per-execution
    streams.  For backwards compatibility a sequential ``rng`` stream may be
    passed instead; only its seed material is used
    (:meth:`~repro.util.rng.RngStream.derived_seed`, the plain integer seed
    for directly-constructed streams) — the stream itself is never consumed,
    so two injectors built from equal seeds agree draw for draw regardless of
    what else either one has already drawn, and injectors built from distinct
    forked child streams stay independent.
    """

    def __init__(
        self,
        model: Optional[FailureModel] = None,
        config: Optional[InjectionConfig] = None,
        rng: Optional[RngStream] = None,
        plan: Optional[FaultPlan] = None,
        root_seed: Optional[int] = None,
    ) -> None:
        self.model = model if model is not None else FailureModel()
        self.config = config if config is not None else InjectionConfig()
        if root_seed is None:
            root_seed = rng.derived_seed() if rng is not None else 0
        self.root_seed = int(root_seed)
        self.plan = plan
        self.injected: List[FaultEvent] = []
        #: Guards :attr:`injected` — worker threads draw concurrently.
        self._lock = threading.Lock()

    # -- probability computation ---------------------------------------------

    def crash_probability(self, task: TaskDescriptor) -> float:
        """Per-execution crash probability for ``task`` under the config."""
        if not self.config.enabled:
            return 0.0
        if self.config.fixed_crash_probability is not None:
            return self.config.fixed_crash_probability
        p = self.model.crash_probability(task) * self.config.acceleration
        return min(1.0, p)

    def sdc_probability(self, task: TaskDescriptor) -> float:
        """Per-execution SDC probability for ``task`` under the config."""
        if not self.config.enabled:
            return 0.0
        if self.config.fixed_sdc_probability is not None:
            return self.config.fixed_sdc_probability
        p = self.model.sdc_probability(task) * self.config.acceleration
        return min(1.0, p)

    # -- keyed streams ---------------------------------------------------------

    def execution_stream(self, task_id: int, execution_index: int) -> RngStream:
        """The keyed fault-draw stream of one execution (pure function of key)."""
        return fault_stream(self.root_seed, task_id, execution_index)

    def corruption_stream(self, task_id: int, execution_index: int) -> RngStream:
        """The keyed corruption-content stream of one execution.

        A separate lane of the same key space as :meth:`execution_stream`, so
        *where* an SDC's bits land is as scheduling-independent as *whether*
        the SDC is injected.
        """
        return fault_stream(
            self.root_seed, task_id, execution_index, lane=FAULT_LANE_CORRUPTION
        )

    # -- drawing --------------------------------------------------------------

    def draw(self, task: TaskDescriptor, execution_index: int = 0, timestamp: float = 0.0) -> List[FaultEvent]:
        """Decide the faults hitting one execution of ``task``.

        Returns a list with zero, one or two events (a crash and an SDC are not
        mutually exclusive, although a crash usually pre-empts the SDC's
        effect — that policy belongs to the replication engine, not here).
        The result is a pure function of ``(root_seed, task_id,
        execution_index)``: calling :meth:`draw` twice with the same key
        returns equal events, whatever happened in between.
        """
        events: List[FaultEvent] = []
        if not self.config.enabled:
            return events

        if self.plan is not None:
            scheduled = self.plan.lookup(task.task_id, execution_index)
            if scheduled is not None:
                events.append(
                    FaultEvent(
                        error_class=scheduled,
                        task_id=task.task_id,
                        execution_index=execution_index,
                        timestamp=timestamp,
                        details={"source": "plan"},
                    )
                )
            with self._lock:
                self.injected.extend(events)
            return events

        stream = self.execution_stream(task.task_id, execution_index)
        if stream.bernoulli(self.crash_probability(task)):
            events.append(
                FaultEvent(
                    error_class=ErrorClass.DUE,
                    task_id=task.task_id,
                    execution_index=execution_index,
                    timestamp=timestamp,
                    details={"source": "probability"},
                )
            )
        if stream.bernoulli(self.sdc_probability(task)):
            events.append(
                FaultEvent(
                    error_class=ErrorClass.SDC,
                    task_id=task.task_id,
                    execution_index=execution_index,
                    timestamp=timestamp,
                    details={"source": "probability"},
                )
            )
        with self._lock:
            self.injected.extend(events)
        return events

    # -- bookkeeping -----------------------------------------------------------

    def injected_events(self) -> List[FaultEvent]:
        """A consistent snapshot of all injected events."""
        with self._lock:
            return list(self.injected)

    def injected_multiset(self) -> List[Tuple[int, int, str]]:
        """The injected faults as a sorted ``(task_id, execution, class)`` multiset.

        This is the quantity the worker-count determinism tests compare: it is
        invariant under the arrival order of concurrent draws.
        """
        with self._lock:
            keys = [
                (e.task_id, e.execution_index, e.error_class.value)
                for e in self.injected
            ]
        return sorted(keys)

    def injected_counts(self) -> Dict[str, int]:
        """Histogram of injected error classes."""
        hist: Dict[str, int] = {}
        with self._lock:
            events = list(self.injected)
        for e in events:
            hist[e.error_class.value] = hist.get(e.error_class.value, 0) + 1
        return hist

    def reset(self) -> None:
        """Forget all injected events."""
        with self._lock:
            self.injected.clear()
