"""Unit tests for broadcast variables and the rebroadcast mechanism."""

import threading

from repro.streaming.broadcast import (
    BlockManager,
    BroadcastManager,
    BroadcastVariable,
)


class TestBlockManager:
    def test_miss_then_hit(self):
        bm = BlockManager(0)
        assert bm.get(1) == (False, None)
        bm.put(1, "v")
        hit, value = bm.get(1)
        assert hit and value == "v"

    def test_invalidate(self):
        bm = BlockManager(0)
        bm.put(1, "v")
        bm.invalidate(1)
        hit, _ = bm.get(1)
        assert not hit

    def test_invalidate_absent_is_noop(self):
        bm = BlockManager(0)
        bm.put(1, "v")
        bm.invalidate(9)
        assert bm.get(9) == (False, None)
        assert bm.get(1) == (True, "v")


class TestBroadcast:
    def test_driver_read(self):
        manager = BroadcastManager()
        bv = manager.broadcast({"m": 1})
        assert bv.get_value() == {"m": 1}

    def test_worker_pull_and_cache(self):
        manager = BroadcastManager()
        worker = BlockManager(0)
        manager.register_worker(worker)
        pulls = []
        serve = manager._pull
        manager._pull = lambda bv_id: pulls.append(bv_id) or serve(bv_id)
        bv = manager.broadcast("model-v1")
        assert bv.get_value(worker) == "model-v1"
        assert pulls == [bv.bv_id]
        # Second read served from the local cache.
        assert bv.get_value(worker) == "model-v1"
        assert pulls == [bv.bv_id]

    def test_ids_are_distinct(self):
        manager = BroadcastManager()
        a = manager.broadcast(1)
        b = manager.broadcast(2)
        assert a.bv_id != b.bv_id


class TestRebroadcast:
    def _setup(self):
        manager = BroadcastManager()
        workers = [BlockManager(i) for i in range(3)]
        for w in workers:
            manager.register_worker(w)
        bv = manager.broadcast("v1")
        for w in workers:
            assert bv.get_value(w) == "v1"
        return manager, workers, bv

    def test_update_is_queued_not_immediate(self):
        manager, workers, bv = self._setup()
        manager.rebroadcast(bv, "v2")
        assert manager.pending_updates == 1
        # Until the scheduler drains the queue, workers see the old value.
        assert bv.get_value(workers[0]) == "v1"

    def test_apply_invalidates_all_workers(self):
        manager, workers, bv = self._setup()
        manager.rebroadcast(bv, "v2")
        applied = manager.apply_pending_updates()
        assert applied == 1
        for w in workers:
            assert bv.get_value(w) == "v2"

    def test_same_id_retained(self):
        """LogLens keeps the broadcast id stable across updates."""
        manager, workers, bv = self._setup()
        old_id = bv.bv_id
        manager.rebroadcast(bv, "v2")
        manager.apply_pending_updates()
        assert bv.bv_id == old_id
        assert manager.version(old_id) == 2

    def test_multiple_queued_updates_apply_in_order(self):
        manager, workers, bv = self._setup()
        manager.rebroadcast(bv, "v2")
        manager.rebroadcast(bv, "v3")
        assert manager.apply_pending_updates() == 2
        assert bv.get_value(workers[0]) == "v3"
        assert manager.version(bv.bv_id) == 3

    def test_unknown_id_raises_on_apply(self):
        manager = BroadcastManager()
        ghost = BroadcastVariable(99, manager)
        manager.rebroadcast(ghost, "x")
        try:
            manager.apply_pending_updates()
            assert False, "expected KeyError"
        except KeyError:
            pass

    def test_thread_safe_enqueue(self):
        """Model-manager threads may enqueue concurrently (Section V-A)."""
        manager, workers, bv = self._setup()

        def enqueue(n):
            for i in range(100):
                manager.rebroadcast(bv, "t%d-%d" % (n, i))

        threads = [
            threading.Thread(target=enqueue, args=(n,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert manager.pending_updates == 400
        assert manager.apply_pending_updates() == 400
        assert manager.version(bv.bv_id) == 401
