"""Broadcast variables with zero-downtime rebroadcasting.

Spark's broadcast variables are immutable: updating a model requires
re-initialising the job, losing state and incurring downtime (paper,
Section V-A).  LogLens modifies the internals so an existing broadcast id
can be *rebroadcast*:

* every worker holds a :class:`BlockManager` — a local cache of broadcast
  values, filled by pull requests to the driver on a miss;
* the driver-side :class:`BroadcastManager` keeps the authoritative value
  per broadcast id and a **thread-safe update queue**;
* :meth:`BroadcastManager.rebroadcast` enqueues a new value; the streaming
  scheduler drains the queue *between micro-batches* (a serialised lock
  step), storing the new value under the **same id** and invalidating all
  worker caches — the next ``get_value`` on any worker pulls the fresh
  copy.

No job restart, no state loss; the only blocking operation is the
in-memory swap, whose cost is independent of stream volume.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..errors import BroadcastError

__all__ = ["BlockManager", "BroadcastVariable", "BroadcastManager"]


class BlockManager:
    """Per-worker local cache of broadcast values ("disk block cache")."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self._cache: Dict[int, Any] = {}

    def get(self, bv_id: int) -> Tuple[bool, Any]:
        """Look up ``bv_id``; returns ``(hit, value)``."""
        if bv_id in self._cache:
            return True, self._cache[bv_id]
        return False, None

    def put(self, bv_id: int, value: Any) -> None:
        self._cache[bv_id] = value

    def invalidate(self, bv_id: int) -> None:
        """Drop a cached value so the next read pulls from the driver."""
        self._cache.pop(bv_id, None)


class BroadcastVariable:
    """A handle to one broadcast id; workers read it via ``get_value``.

    The handle itself is tiny and shipped to every worker (in Spark, a
    virtual data block referencing the real block); the value lives in the
    driver and in worker block caches.
    """

    def __init__(self, bv_id: int, manager: "BroadcastManager") -> None:
        self.bv_id = bv_id
        self._manager = manager

    def get_value(self, block_manager: Optional[BlockManager] = None) -> Any:
        """Worker-side read: local cache first, else pull from driver.

        Called without a block manager (driver side), reads the
        authoritative value directly.
        """
        if block_manager is None:
            return self._manager.driver_value(self.bv_id)
        hit, value = block_manager.get(self.bv_id)
        if hit:
            return value
        if self._manager is None:
            # Unpickled on a process-backend worker: there is no driver
            # to pull from — the backend pre-populates every block cache
            # at startup and ships deltas per batch, so a miss means the
            # id was never broadcast through this variable's context.
            raise BroadcastError(self.bv_id)
        value = self._manager.pull(self.bv_id)
        block_manager.put(self.bv_id, value)
        return value

    # Picklable handle: only the id crosses process boundaries; the
    # manager (locks, worker registry) stays on the driver.
    def __getstate__(self) -> Dict[str, Any]:
        return {"bv_id": self.bv_id}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.bv_id = state["bv_id"]
        self._manager = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "BroadcastVariable(id=%d)" % self.bv_id


class BroadcastManager:
    """Driver-side broadcast registry with a queued rebroadcast mechanism."""

    def __init__(self) -> None:
        self._values: Dict[int, Any] = {}
        self._versions: Dict[int, int] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._pending: "deque[Tuple[int, Any]]" = deque()
        self._workers: List[BlockManager] = []
        #: Optional :class:`~repro.faults.FaultPlan`; when set, worker
        #: pulls run through its ``broadcast.pull`` site so chaos tests
        #: can make fetches flaky (the engine's retry policy heals the
        #: resulting operator failures).
        self.fault_plan: Optional[Any] = None

    # ------------------------------------------------------------------
    def register_worker(self, block_manager: BlockManager) -> None:
        with self._lock:
            self._workers.append(block_manager)

    def broadcast(self, value: Any) -> BroadcastVariable:
        """Create a new broadcast variable (job initialisation time)."""
        with self._lock:
            bv_id = self._next_id
            self._next_id += 1
            self._values[bv_id] = value
            self._versions[bv_id] = 1
        return BroadcastVariable(bv_id, self)

    # ------------------------------------------------------------------
    def rebroadcast(self, bv: BroadcastVariable, new_value: Any) -> None:
        """Enqueue an update for ``bv``; applied between micro-batches.

        Thread-safe: model-manager threads may enqueue while the scheduler
        is mid-batch; the queue is drained under the scheduler's serialised
        lock step (:meth:`apply_pending_updates`).
        """
        with self._lock:
            self._pending.append((bv.bv_id, new_value))

    def apply_pending_updates(self) -> int:
        """Drain the update queue; returns how many updates were applied.

        For each update: swap the driver value under the **same broadcast
        id** (Spark would normally increment it) and invalidate the id on
        every worker block cache.
        """
        applied = 0
        with self._lock:
            while self._pending:
                bv_id, value = self._pending.popleft()
                if bv_id not in self._values:
                    raise BroadcastError(bv_id)
                self._values[bv_id] = value
                self._versions[bv_id] += 1
                for worker in self._workers:
                    worker.invalidate(bv_id)
                applied += 1
        return applied

    @property
    def pending_updates(self) -> int:
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------
    def pull(self, bv_id: int) -> Any:
        """Serve a worker pull request for the current value."""
        plan = self.fault_plan
        if plan is not None:
            return plan.invoke(
                "broadcast.pull", self._pull, bv_id, subject=bv_id
            )
        return self._pull(bv_id)

    def _pull(self, bv_id: int) -> Any:
        with self._lock:
            if bv_id not in self._values:
                raise BroadcastError(bv_id)
            return self._values[bv_id]

    def driver_value(self, bv_id: int) -> Any:
        with self._lock:
            return self._values[bv_id]

    def version(self, bv_id: int) -> int:
        """Monotonic version of a broadcast id (1 = initial)."""
        with self._lock:
            return self._versions[bv_id]

    def sync_snapshot(self) -> Dict[int, Tuple[int, Any]]:
        """``{bv_id: (version, value)}`` for delta sync to workers.

        The process backend compares versions against what each worker
        fleet last received and ships only the changed values — a model
        rebroadcast crosses the pipe once, not once per batch.
        """
        with self._lock:
            return {
                bv_id: (self._versions[bv_id], value)
                for bv_id, value in self._values.items()
            }
