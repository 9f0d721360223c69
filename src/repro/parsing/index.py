"""The candidate-pattern-group hash index.

The naive parser compares every log against every pattern: O(m·n) for m
patterns and n logs.  LogLens reduces the amortised per-log cost to O(1)
with a hash index keyed by *log-signature* (paper, Section III-B):

1. **Finding** — compute the log's signature and probe the index.
2. **Building** — on a miss, compare the signature against every
   pattern-signature with Algorithm 1, collect all candidates, sort them
   most-specific-first (ascending datatype generality, then token length),
   and memoise the group — even when it is empty, so repeated unparseable
   shapes stay O(1).
3. **Scanning** — try the group's patterns in order until one parses the
   log.

Because distinct log *shapes* are few (thousands) while logs are many
(millions), almost every probe is a hit.

Group building itself is narrowed twice before Algorithm 1 runs: a
wildcard-free pattern of k tokens can never parse a log of a different
length (the by-length table), and its first signature datatype must cover
the log's first datatype (the first-token dispatch table), so lookups
skip non-candidate groups of patterns entirely.  Wildcard patterns match
any shape and are always checked.

Several threads may share one index through a shared parser, so group
building/memoisation is guarded by a lock.  The fast path — probing an
already-memoised group — stays lock-free: dict reads are atomic under the
GIL and published groups are never mutated afterwards.  Lookups count
into the caller's :class:`~repro.parsing.tokenizer.ParseTally`, which is
published once per call (or per batch, or per service step) with one
locked ``inc(n)`` per counter.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import MetricsRegistry, get_registry
from .datatypes import DatatypeRegistry, DEFAULT_REGISTRY
from .grok import GrokPattern
from .matcher import is_matched_tokens
from .tokenizer import ParseTally, TokenizedLog

__all__ = ["PatternIndex"]


class PatternIndex:
    """Signature-keyed index over a fixed set of GROK patterns.

    The index is cheap to construct (pattern signatures are computed
    lazily and groups are built on demand), so model updates simply build
    a fresh index — this is what gets rebroadcast to streaming workers.

    Thread-safety: concurrent lookups are safe.  Memoised-group probes
    never take the lock; group building is serialised by ``_lock`` so two
    workers racing on the same unseen signature build it once and the
    ``_by_length``/``_wildcards``/dispatch side tables are published
    exactly once.  Counts are exact at quiescence: :meth:`lookup` counts
    into its own tally and publishes it before returning, and a parser
    hands its own tally to :meth:`_lookup`.
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
        # Group building only needs to compare signatures of compatible
        # length and first datatype; see the module docstring.  Each
        # ``_by_length`` entry pairs the pattern with its first signature
        # datatype; ``_dispatch`` memoises the per-(length, first) pool.
        self._by_length: Optional[
            Dict[int, List[Tuple[GrokPattern, str]]]
        ] = None
        self._wildcards: List[GrokPattern] = []
        self._dispatch: Dict[Tuple[int, str], List[GrokPattern]] = {}

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
                if self._by_length is None:
                    self._index_by_length()
                assert self._by_length is not None
                parts = signature.split()
                candidates: List[GrokPattern] = []
                compared = 0
                registry = self.registry
                for pattern in self._dispatch_pool(parts):
                    compared += 1
                    if is_matched_tokens(
                        parts, pattern.signature_tokens(), registry
                    ):
                        candidates.append(pattern)
                for pattern in self._wildcards:
                    compared += 1
                    if is_matched_tokens(
                        parts, pattern.signature_tokens(), registry
                    ):
                        candidates.append(pattern)
                if compared:
                    self._signature_comparisons.inc(compared)
                candidates.sort(key=GrokPattern.generality_key)
                # Empty groups are memoised too: a recurring unparseable
                # shape must not trigger a full rescan per log.
                self._groups[signature] = candidates
            return candidates

    def _dispatch_pool(self, parts: List[str]) -> List[GrokPattern]:
        """Wildcard-free patterns whose shape could match ``parts``.

        Pools are memoised per ``(length, first datatype)``: a pattern
        survives the filter only when its first signature datatype equals
        or covers the log's first datatype, so Algorithm 1 never runs
        against patterns that cannot match (paper's "finding" step, made
        sub-linear in the pattern count).  Called with ``_lock`` held.
        """
        if not parts:
            return []
        assert self._by_length is not None
        length = len(parts)
        first = parts[0]
        key = (length, first)
        pool = self._dispatch.get(key)
        if pool is None:
            is_covered = self.registry.is_covered
            pool = [
                pattern
                for pattern, pattern_first in self._by_length.get(length, ())
                if first == pattern_first or is_covered(first, pattern_first)
            ]
            self._dispatch[key] = pool
        return pool

    def _index_by_length(self) -> None:
        by_length: Dict[int, List[Tuple[GrokPattern, str]]] = {}
        wildcards: List[GrokPattern] = []
        for pattern in self.patterns:
            if pattern.has_wildcard:
                wildcards.append(pattern)
            else:
                tokens = pattern.signature_tokens()
                first = tokens[0] if tokens else ""
                by_length.setdefault(len(tokens), []).append(
                    (pattern, first)
                )
        self._wildcards = wildcards
        self._by_length = by_length
