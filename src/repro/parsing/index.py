"""The candidate-pattern-group hash index.

The naive parser compares every log against every pattern: O(m·n) for m
patterns and n logs.  LogLens reduces the amortised per-log cost to O(1)
with a hash index keyed by *log-signature* (paper, Section III-B):

1. **Finding** — compute the log's signature and probe the index.
2. **Building** — on a miss, collect every pattern whose signature can
   parse the log's (Algorithm 1), most-specific-first (ascending datatype
   generality, then token length), and memoise the group — even when it
   is empty, so repeated unparseable shapes stay O(1).
3. **Scanning** — try the group's patterns in order until one parses the
   log.

Because distinct log *shapes* are few (thousands) while logs are many
(millions), almost every probe is a hit.

Building a group scans no patterns either.  At the first build the index
numbers its patterns once, in scan order — ``generality_key()``, then
wildcard-free before wildcard, then list order — and precomputes
Python-int bitmasks over those numbers: one per wildcard-free pattern
length, and one per (position, log datatype) holding the patterns whose
signature datatype at that position equals or covers the log's.  A
wildcard-free pattern of k tokens can only parse a log of k tokens whose
datatypes it covers position by position, so those candidates are the
length mask ANDed with one mask per token, stopping at zero.  Wildcard
patterns match any shape; each adds its bit when Algorithm 1's dynamic
program matches.  Decoding the set bits in ascending order yields the
group already sorted.

Several threads may share one index through a shared parser, so group
building/memoisation is guarded by a lock.  The fast path — probing an
already-memoised group — stays lock-free: dict reads are atomic under the
GIL and published groups are never mutated afterwards.  Lookups count
into the caller's :class:`~repro.parsing.tokenizer.ParseTally`, which is
published once per call (or per batch, or per service step) with one
locked ``inc(n)`` per counter.
"""

from __future__ import annotations

import copy
import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..obs import MetricsRegistry, get_registry
from .datatypes import DatatypeRegistry, DEFAULT_REGISTRY
from .grok import GrokPattern
from .matcher import is_matched_tokens
from .tokenizer import ParseTally, TokenizedLog

__all__ = ["PatternIndex"]


class PatternIndex:
    """Signature-keyed index over a fixed set of GROK patterns.

    The index is cheap to construct (the ranks and masks are computed at
    the first group build and groups are built on demand), so model
    updates simply build a fresh index — this is what gets rebroadcast to
    streaming workers.

    The first group build snapshots the datatype registry: it copies it,
    and the masks and every later Algorithm 1 run read only that copy.
    The index is therefore a function of its patterns and of the registry
    as it stood at the first build; a later registry edit reaches parsing
    through the next published model, whose index is new.  A log datatype
    the snapshot does not know matches only a pattern datatype of the
    same name.

    Thread-safety: concurrent lookups are safe.  Memoised-group probes
    never take the lock; group building is serialised by ``_lock`` so two
    workers racing on the same unseen signature build it once, and the
    snapshot is taken exactly once.  Counts are exact at quiescence:
    :meth:`lookup` counts into its own tally and publishes it before
    returning, and a parser hands its own tally to :meth:`_lookup`.
    """

    def __init__(
        self,
        patterns: Sequence[GrokPattern],
        registry: Optional[DatatypeRegistry] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.patterns: List[GrokPattern] = list(patterns)
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self._metrics = metrics if metrics is not None else get_registry()
        self._groups: Dict[str, List[GrokPattern]] = {}
        # Registry handles, resolved once: the ``index.*`` families are
        # the only place these counts live.
        counter = self._metrics.counter
        self._counters = ParseTally.counters(self._metrics, "index.")
        self._group_builds = counter("index.group_builds")
        self._signature_comparisons = counter("index.signature_comparisons")
        self._build_seconds = self._metrics.histogram(
            "index.group_build_seconds"
        )
        self._lock = threading.Lock()
        # The snapshot (see :meth:`_snapshot`), taken at the first build.
        # Bit b of every mask stands for ``_ranked[b]``.
        self._snapshot_registry: Optional[DatatypeRegistry] = None
        self._ranked: List[GrokPattern] = []
        self._length_masks: Dict[int, int] = {}
        self._position_masks: List[Dict[str, int]] = []
        self._wildcards: List[Tuple[int, Tuple[str, ...]]] = []

    def __len__(self) -> int:
        return len(self.patterns)

    # ------------------------------------------------------------------
    def lookup(
        self, log: TokenizedLog
    ) -> Optional[Tuple[GrokPattern, Dict[str, str]]]:
        """Parse ``log``; return ``(pattern, fields)`` or ``None``.

        ``None`` means no discovered pattern parses the log — the caller
        reports it as a stateless anomaly.
        """
        tally = ParseTally()
        hit = self._lookup(log, tally)
        tally.publish(self._counters)
        return hit

    def _lookup(
        self, log: TokenizedLog, tally: ParseTally
    ) -> Optional[Tuple[GrokPattern, Dict[str, str]]]:
        """:meth:`lookup`, counting into the caller's ``tally``."""
        tally.lookups += 1
        signature = log.signature
        group = self._groups.get(signature)
        if group is None:
            group = self._build_group(signature, tally)
        else:
            tally.group_hits += 1
        for scanned, pattern in enumerate(group, 1):
            fields = pattern.match(log)
            if fields is not None:
                tally.pattern_scans += scanned
                return pattern, fields
        tally.pattern_scans += len(group)
        return None

    def candidate_group(self, log: TokenizedLog) -> List[GrokPattern]:
        """The candidate-pattern-group for ``log`` (built if necessary)."""
        signature = log.signature
        group = self._groups.get(signature)
        if group is None:
            group = self._build_group(signature, ParseTally())
        return list(group)

    # ------------------------------------------------------------------
    def _build_group(
        self, signature: str, tally: ParseTally
    ) -> List[GrokPattern]:
        """Build and memoise ``signature``'s group.  The rare build is
        counted straight into the registry, under the lock."""
        with self._lock:
            # Double-checked: another worker may have built this group
            # while we waited for the lock; their build is our hit.
            group = self._groups.get(signature)
            if group is not None:
                tally.group_hits += 1
                return group
            self._group_builds.inc()
            with self._build_seconds.time():
                if self._snapshot_registry is None:
                    self._snapshot()
                parts = signature.split()
                # A signature longer than every pattern has a zero length
                # mask, so ``zip`` stopping at the last position is safe.
                mask = self._length_masks.get(len(parts), 0)
                for masks, datatype in zip(self._position_masks, parts):
                    if not mask:
                        break
                    mask &= masks.get(datatype, 0)
                registry = self._snapshot_registry
                for bit, tokens in self._wildcards:
                    if is_matched_tokens(parts, tokens, registry):
                        mask |= 1 << bit
                if self._wildcards:
                    self._signature_comparisons.inc(len(self._wildcards))
                ranked = self._ranked
                group = []
                while mask:
                    low = mask & -mask
                    group.append(ranked[low.bit_length() - 1])
                    mask ^= low
                # Empty groups are memoised too: a recurring unparseable
                # shape must not trigger a full rescan per log.
                self._groups[signature] = group
            return group

    def _snapshot(self) -> None:
        """Copy the registry, rank the patterns and precompute the masks.

        Called once, with ``_lock`` held.  Ranks follow the scan order so
        that ascending bits decode to a sorted group.
        """
        registry = copy.deepcopy(self.registry)
        patterns = self.patterns
        order = sorted(
            range(len(patterns)),
            key=lambda k: (
                patterns[k].generality_key(), patterns[k].has_wildcard, k
            ),
        )
        ranked = [patterns[k] for k in order]
        lengths: Dict[int, int] = {}
        # by_type[i][t]: wildcard-free patterns whose datatype at i is t.
        by_type: List[Dict[str, int]] = []
        wildcards: List[Tuple[int, Tuple[str, ...]]] = []
        for bit, pattern in enumerate(ranked):
            tokens = pattern.signature_tokens()
            if pattern.has_wildcard:
                wildcards.append((bit, tokens))
                continue
            if not tokens:
                # An empty log gets no wildcard-free candidate.
                continue
            flag = 1 << bit
            lengths[len(tokens)] = lengths.get(len(tokens), 0) | flag
            for i, datatype in enumerate(tokens):
                if i == len(by_type):
                    by_type.append({})
                by_type[i][datatype] = by_type[i].get(datatype, 0) | flag
        # A pattern datatype accepts every log datatype it equals or
        # covers; a name the registry does not know accepts only itself.
        pattern_types: Set[str] = set().union(*by_type)
        known = pattern_types.union(registry.names())
        accepts = {
            wide: [n for n in known if registry.is_covered(n, wide)]
            for wide in pattern_types
        }
        position_masks: List[Dict[str, int]] = []
        for masks in by_type:
            widened: Dict[str, int] = {}
            for wide, flags in masks.items():
                for narrow in accepts[wide]:
                    widened[narrow] = widened.get(narrow, 0) | flags
            position_masks.append(widened)
        self._ranked = ranked
        self._length_masks = lengths
        self._position_masks = position_masks
        self._wildcards = wildcards
        self._snapshot_registry = registry
