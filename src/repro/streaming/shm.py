"""Shared-memory frame arenas for the process backend's batch transport.

``multiprocessing.Pipe`` pickles every payload and copies it twice
(writer -> kernel -> reader).  For the record buckets and emission
batches that cross the driver/worker boundary every micro-batch, that
serialisation tax is the dominant IPC cost.  A :class:`ShmArena`
removes both copies from the hot path: the writer encodes a batch once
into a ``multiprocessing.shared_memory`` segment and ships only a tiny
``(offset, length)`` descriptor over the pipe; the reader decodes
straight out of the mapped page via ``memoryview`` slices.

Layout and protocol
-------------------

An arena is one shared-memory segment used as a **ring of
length-prefixed frames**.  Each frame is::

    [u32 magic][u32 payload length][payload bytes]

written at the current cursor (wrapping to offset 0 when the tail is
too short), 8-byte aligned.  The backend's request/response protocol
guarantees at most one in-flight frame per direction, so the ring never
overwrites a frame that has not been consumed.

Sizing is adaptive: a frame larger than the arena's capacity makes
:meth:`ShmArena.write` return ``None`` and the caller either *grows*
(creates a replacement segment, announced to the peer over the pipe) or
falls back to shipping the encoded payload inline over the pipe when it
exceeds the growth cap.  See ``docs/PARALLELISM.md``.

Ownership and cleanup
---------------------

Segments are **always created by the driver** and unlinked by the
driver — on clean shutdown *and* on the terminate-fallback path — so a
worker killed mid-batch can never strand a segment it privately
created.  Workers only ever :meth:`attach` (untracked, so a worker
process exiting does not let its ``resource_tracker`` unlink a segment
the driver still uses) and :meth:`close` their mapping.
"""

from __future__ import annotations

import struct
from multiprocessing import shared_memory
from typing import Optional, Tuple

from ..errors import ExecutionError

__all__ = [
    "DEFAULT_ARENA_BYTES",
    "MAX_ARENA_BYTES",
    "FRAME_OVERHEAD",
    "ShmArena",
    "grown_capacity",
]

#: Initial capacity of each per-worker arena (bytes).
DEFAULT_ARENA_BYTES = 1 << 20
#: Growth cap: batches encoding past this travel over the pipe instead.
MAX_ARENA_BYTES = 1 << 26

_HEADER = struct.Struct("<II")
_MAGIC = 0x4C4C4653  # "LLFS": LogLens frame start
#: Per-frame bookkeeping bytes (header + worst-case alignment pad).
FRAME_OVERHEAD = _HEADER.size + 8


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker custody.

    The driver's tracker already guards the segment; a worker
    registering it again would poison the (process-shared) tracker
    cache: ``unregister`` after the fact removes the *driver's* entry,
    and no workaround at all makes a worker exit unlink segments the
    driver still uses.  Python 3.13 has ``track=False``; older versions
    suppress registration for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class ShmArena:
    """One shared-memory segment used as a ring of length-prefixed frames.

    Exactly one process *owns* the arena (created it and will unlink
    it); any number may attach read/write.  The arena itself is not
    locked: callers must serialise access externally, which the process
    backend's strict request/response protocol already does.
    """

    __slots__ = ("_shm", "_owner", "_cursor", "capacity")

    def __init__(
        self, segment: shared_memory.SharedMemory, owner: bool
    ) -> None:
        self._shm = segment
        self._owner = owner
        self._cursor = 0
        self.capacity = segment.size

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def create(cls, capacity: int = DEFAULT_ARENA_BYTES) -> "ShmArena":
        """Create (and own) a fresh arena of at least ``capacity`` bytes."""
        if capacity < FRAME_OVERHEAD + 1:
            raise ValueError(
                "arena capacity %d cannot hold a single frame" % capacity
            )
        return cls(
            shared_memory.SharedMemory(create=True, size=capacity),
            owner=True,
        )

    @classmethod
    def attach(cls, name: str) -> "ShmArena":
        """Attach to a driver-owned arena by segment name (worker side)."""
        return cls(_attach_untracked(name), owner=False)

    @property
    def name(self) -> str:
        """The segment name a peer attaches by."""
        return self._shm.name

    @property
    def owner(self) -> bool:
        return self._owner

    def close(self) -> None:
        """Drop this process's mapping; owners also unlink the segment.

        Idempotent, and safe when the segment is already gone (the
        owner may unlink an arena a crashed peer half-used).
        """
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        try:
            shm.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass
        if self._owner:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            except OSError:  # pragma: no cover - defensive
                pass

    @property
    def closed(self) -> bool:
        return self._shm is None

    # -- frames --------------------------------------------------------
    def write(self, payload: bytes) -> Optional[Tuple[int, int]]:
        """Write one frame; return ``(offset, length)`` or ``None``.

        ``None`` means the payload does not fit in this arena at all —
        the caller grows the arena or falls back to the pipe.  The ring
        wraps to offset 0 when the tail is shorter than the frame.
        """
        if self._shm is None:
            raise ExecutionError("shared-memory arena is closed")
        length = len(payload)
        need = _HEADER.size + length
        if need > self.capacity:
            return None
        offset = self._cursor
        if offset + need > self.capacity:
            offset = 0
        buf = self._shm.buf
        _HEADER.pack_into(buf, offset, _MAGIC, length)
        start = offset + _HEADER.size
        buf[start:start + length] = payload
        # Keep frames 8-byte aligned so pack_into never splits cache
        # lines on the header read.
        self._cursor = offset + ((need + 7) & ~7)
        return offset, length

    def read(self, offset: int, length: int) -> memoryview:
        """A zero-copy view of one frame's payload.

        Validates the length prefix written by the peer; a mismatch
        means descriptor and arena fell out of sync (a protocol bug,
        never silently tolerated).  The returned view aliases the
        mapped segment: release it before the arena may be closed.
        """
        if self._shm is None:
            raise ExecutionError("shared-memory arena is closed")
        if offset < 0 or offset + _HEADER.size + length > self.capacity:
            raise ExecutionError(
                "shm frame (offset=%d, length=%d) exceeds arena "
                "capacity %d" % (offset, length, self.capacity)
            )
        magic, stored = _HEADER.unpack_from(self._shm.buf, offset)
        if magic != _MAGIC or stored != length:
            raise ExecutionError(
                "corrupt shm frame at offset %d: header (%#x, %d) does "
                "not match descriptor length %d"
                % (offset, magic, stored, length)
            )
        start = offset + _HEADER.size
        return memoryview(self._shm.buf)[start:start + length]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._shm is None else self._shm.name
        return "ShmArena(%s, capacity=%d, owner=%r)" % (
            state, self.capacity, self._owner,
        )


def grown_capacity(needed: int, ceiling: int = MAX_ARENA_BYTES) -> int:
    """Next power-of-two capacity holding ``needed`` payload bytes.

    Doubling amortises growth: a stream whose batches trend larger
    replaces its arena O(log) times, not once per batch.
    """
    target = needed + FRAME_OVERHEAD
    capacity = DEFAULT_ARENA_BYTES
    while capacity < target:
        capacity <<= 1
    return min(capacity, ceiling)
