"""Timestamp identification baselines (the Section VI-A ablation).

The paper measures timestamp identification with four strategies over the
same 89-format knowledge base: plain linear scan, caching only, filtering
only, and both (up to 22x faster, 19.4x contributed by caching).

:class:`LinearScanTimestampDetector` is the faithful naive baseline: for
every lookup it walks the knowledge base in declaration order, joining and
regex-matching a window per format — no cache, no filtering, no span
bucketing.  The factory functions name the optimised configurations of the
production detector (whose ``use_cache``/``use_filter`` switches are the
paper's two optimisations; span bucketing is always on there, which makes
the measured speedups conservative relative to the paper's).

The filter is a gate derived from the knowledge base, not a hand-written
guess: one regex over every format's head (its first whitespace chunk)
rejects a token that cannot open any format's window, and one gate per
token span skips doomed spans.  It only prunes what cannot match, so all
four configurations identify exactly the same timestamps.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..parsing.timestamps import TimestampDetector

__all__ = [
    "LinearScanTimestampDetector",
    "make_linear_scan_detector",
    "make_cache_only_detector",
    "make_filter_only_detector",
    "make_optimized_detector",
]


class LinearScanTimestampDetector(TimestampDetector):
    """The paper's naive baseline: flat scan of the whole knowledge base.

    Every :meth:`identify` call tries each format in knowledge-base order,
    building that format's window and running its regex, until one
    matches.  O(k) regex executions per lookup for a k-format base.
    """

    def __init__(self, formats: Optional[Sequence[str]] = None) -> None:
        super().__init__(formats, use_cache=False, use_filter=False)

    def identify(self, tokens, start: int = 0):
        self.stats.lookups += 1
        if start >= len(tokens):
            return None
        available = len(tokens) - start
        for fmt in self._formats:
            span = fmt.token_span
            if span > available:
                continue
            window = " ".join(tokens[start:start + span])
            self.stats.formats_tried += 1
            m = fmt.match(window)
            if m is None:
                continue
            result = self._convert(m, fmt, span)
            if result is None:
                continue
            self.stats.matches += 1
            return result
        return None


def make_linear_scan_detector(
    formats: Optional[Sequence[str]] = None,
) -> TimestampDetector:
    """The naive baseline: every lookup scans the whole knowledge base."""
    return LinearScanTimestampDetector(formats)


def make_cache_only_detector(
    formats: Optional[Sequence[str]] = None,
) -> TimestampDetector:
    """Matched-format caching only (the 19.4x contributor)."""
    return TimestampDetector(formats, use_cache=True, use_filter=False)


def make_filter_only_detector(
    formats: Optional[Sequence[str]] = None,
) -> TimestampDetector:
    """Gate filtering only."""
    return TimestampDetector(formats, use_cache=False, use_filter=True)


def make_optimized_detector(
    formats: Optional[Sequence[str]] = None,
) -> TimestampDetector:
    """Both optimisations — the production configuration (up to 22x)."""
    return TimestampDetector(formats, use_cache=True, use_filter=True)
