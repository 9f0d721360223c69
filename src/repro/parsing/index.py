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
building/memoisation is guarded by a lock and all counters are atomic
(:mod:`repro.obs`).  The fast path — probing an already-memoised group —
stays lock-free: dict reads are atomic under the GIL and published groups
are never mutated afterwards.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import Counter, MetricsRegistry, get_registry
from .datatypes import DatatypeRegistry, DEFAULT_REGISTRY
from .grok import GrokPattern
from .matcher import is_matched_tokens
from .tokenizer import TokenizedLog

__all__ = ["IndexStats", "PatternIndex"]


class IndexStats:
    """Operational counters (exposed for the scaling ablation bench).

    A thin façade over :mod:`repro.obs` counters: each instance keeps
    exact local counts (what the unit tests and benches assert on) while
    every increment also feeds the registry-level ``index.*`` families
    that dashboards and the ``loglens metrics`` command read.
    """

    _FIELDS = (
        "lookups",
        "group_hits",
        "group_builds",
        "signature_comparisons",
        "pattern_scans",
    )

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        metrics = metrics if metrics is not None else get_registry()
        for name in self._FIELDS:
            setattr(
                self,
                "_" + name,
                Counter(parent=metrics.counter("index." + name)),
            )

    @property
    def lookups(self) -> int:
        return self._lookups.value

    @property
    def group_hits(self) -> int:
        return self._group_hits.value

    @property
    def group_builds(self) -> int:
        return self._group_builds.value

    @property
    def signature_comparisons(self) -> int:
        return self._signature_comparisons.value

    @property
    def pattern_scans(self) -> int:
        return self._pattern_scans.value

    def reset(self) -> None:
        """Zero the local counts (registry families keep their totals)."""
        for name in self._FIELDS:
            getattr(self, "_" + name).reset()

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self._FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "IndexStats(%s)" % ", ".join(
            "%s=%d" % (name, getattr(self, name)) for name in self._FIELDS
        )


class PatternIndex:
    """Signature-keyed index over a fixed set of GROK patterns.

    The index is cheap to construct (pattern signatures are computed
    lazily and groups are built on demand), so model updates simply build
    a fresh index — this is what gets rebroadcast to streaming workers.

    Thread-safety: concurrent lookups are safe.  Memoised-group probes
    never take the lock; group building is serialised by ``_lock`` so two
    workers racing on the same unseen signature build it once and the
    ``_by_length``/``_wildcards``/dispatch side tables are published
    exactly once.  The deferred-metrics mode (:meth:`defer_metrics`) is
    the one exception: it accumulates hot-path counters in plain ints and
    must only be enabled on an index owned by a single thread (the
    service's per-worker parsers).
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
        self.stats = IndexStats(self._metrics)
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
        # Deferred-metrics accumulators (plain ints; see defer_metrics).
        self._deferred = False
        self._pend_lookups = 0
        self._pend_group_hits = 0
        self._pend_pattern_scans = 0

    def __len__(self) -> int:
        return len(self.patterns)

    # ------------------------------------------------------------------
    def defer_metrics(self, deferred: bool) -> None:
        """Toggle per-batch publication of the hot-path counters.

        Only the lock-free lookup counters are deferred; the rare
        group-build path keeps publishing exactly.  Enable only on an
        index driven by a single thread; leaving the mode flushes.
        """
        if self._deferred and not deferred:
            self.flush_metrics()
        self._deferred = deferred

    def flush_metrics(self) -> None:
        """Publish counter increments accumulated while deferred."""
        if self._pend_lookups:
            self.stats._lookups.inc(self._pend_lookups)
            self._pend_lookups = 0
        if self._pend_group_hits:
            self.stats._group_hits.inc(self._pend_group_hits)
            self._pend_group_hits = 0
        if self._pend_pattern_scans:
            self.stats._pattern_scans.inc(self._pend_pattern_scans)
            self._pend_pattern_scans = 0

    # ------------------------------------------------------------------
    def lookup(
        self, log: TokenizedLog
    ) -> Optional[Tuple[GrokPattern, Dict[str, str]]]:
        """Parse ``log``; return ``(pattern, fields)`` or ``None``.

        ``None`` means no discovered pattern parses the log — the caller
        reports it as a stateless anomaly.
        """
        deferred = self._deferred
        signature = log.signature
        group = self._groups.get(signature)
        if group is None:
            group = self._build_group(signature)
            if deferred:
                self._pend_lookups += 1
            else:
                self.stats._lookups.inc()
        elif deferred:
            self._pend_lookups += 1
            self._pend_group_hits += 1
        else:
            self.stats._lookups.inc()
            self.stats._group_hits.inc()
        # Count scans locally and publish once: a per-pattern ``inc()``
        # inside this loop is two lock acquisitions per candidate, which
        # dominates the parse hot path on large models.
        hit: Optional[Tuple[GrokPattern, Dict[str, str]]] = None
        scanned = 0
        for pattern in group:
            scanned += 1
            fields = pattern.match(log)
            if fields is not None:
                hit = (pattern, fields)
                break
        if scanned:
            if deferred:
                self._pend_pattern_scans += scanned
            else:
                self.stats._pattern_scans.inc(scanned)
        return hit

    def candidate_group(self, log: TokenizedLog) -> List[GrokPattern]:
        """The candidate-pattern-group for ``log`` (built if necessary)."""
        signature = log.signature
        group = self._groups.get(signature)
        if group is None:
            group = self._build_group(signature)
        return list(group)

    # ------------------------------------------------------------------
    def _build_group(self, signature: str) -> List[GrokPattern]:
        with self._lock:
            # Double-checked: another worker may have built this group
            # while we waited for the lock; their build is our hit.
            group = self._groups.get(signature)
            if group is not None:
                if self._deferred:
                    self._pend_group_hits += 1
                else:
                    self.stats._group_hits.inc()
                return group
            self.stats._group_builds.inc()
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
                    self.stats._signature_comparisons.inc(compared)
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
