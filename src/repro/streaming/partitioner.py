"""Partitioning: key-hash routing plus heartbeat duplication.

Data partitioning groups together logs with an inherent causal dependency
(same event id) so one partition owns each event's state (paper, Section
V-B).  Heartbeat messages must reach *every* partition — each partition
sweeps its own expired states — so a record tagged ``is_heartbeat`` is
duplicated to all partitions.
"""

from __future__ import annotations

from typing import Iterable, List
from zlib import crc32

from .records import StreamRecord

__all__ = ["partition_records"]


def partition_records(
    records: Iterable[StreamRecord], num_partitions: int
) -> List[List[StreamRecord]]:
    """Split a micro-batch into ``num_partitions`` record lists.

    A keyed record goes to ``crc32(key) % num_partitions`` (Python's
    ``hash`` is salted per run, so it would not survive a restart); a
    keyless one to partition 0 — in the LogLens pipeline every stateful
    record carries its event key, and stateless work is
    partition-agnostic anyway; a heartbeat to every partition.  Batch
    order is kept within each partition.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    buckets: List[List[StreamRecord]] = [[] for _ in range(num_partitions)]
    for record in records:
        key = record.key
        if record.is_heartbeat:
            for bucket in buckets:
                bucket.append(record)
        elif key is None:
            buckets[0].append(record)
        else:
            buckets[crc32(key.encode("utf-8")) % num_partitions].append(record)
    return buckets
