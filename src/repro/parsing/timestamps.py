"""Timestamp identification and unification.

LogLens unifies every timestamp it sees into a single canonical format,
``yyyy/MM/dd HH:mm:ss.SSS`` (paper, Section III-A2).  Timestamps are the
hardest tokens to identify because of format heterogeneity — the paper ships
a knowledge base of **89 predefined formats** and two optimisations that
together make identification up to 22x faster than a linear scan over the
knowledge base:

* **Caching matched formats** — logs from one source reuse the same few
  formats, so previously-matched formats are tried first (19.4x of the 22x).
  Dense logs also share clock ticks, so each cached format keeps one memo
  slot: the last window its regex matched and the result (``None`` for an
  impossible date).  A window equal to it costs one string comparison,
  with no regex and no conversion.  A failed regex leaves the slot alone,
  so interleaved sources in different formats keep their own slots.  The
  memo is part of the cache pass: a detector without the cache has none.
* **Filtering** — a *gate* derived from the knowledge base rejects tokens
  that cannot start a timestamp before any format regex runs.  Each format's
  *head* is the regex of its first whitespace chunk; a window can only
  fullmatch a format if its first token starts with that head, ending at
  whitespace or at the token's end.  One regex
  ``(?:head₁|head₂|…)(?=\\s|\\Z)`` over all formats is the gate, one per
  token span skips doomed spans of the sweep, and the characters that can
  start a head let the tokenizer reject most tokens with a set lookup.
  The gate is exact by construction, so user formats that open with a
  literal (``[``, ``T``) are found like any other.

Formats are written in Java ``SimpleDateFormat`` notation (the notation the
paper adopts) and compiled to Python regexes.  A timestamp may span several
whitespace-delimited tokens (``Feb 23, 2016 09:00:31``), so identification
works on a *window* of tokens.

:meth:`TimestampDetector.identify` checks bounds and the gate, then hands
the window to :meth:`TimestampDetector.lookup`, which does the rest.  The
tokenizer runs the start-character check and the gate itself, once per
token, and calls ``lookup`` directly, so a token pays the gate once.  A
subclass that changes how windows are matched (the naive baseline)
overrides ``lookup`` and is reached on both paths.  Converting a match
costs one dict lookup per civil date seen before: a bounded module-level
cache maps ``(year, month, day)`` to the day number since the epoch and
the date's canonical text, or to nothing for an impossible date.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple,
)

__all__ = [
    "TimestampFormat",
    "TimestampMatch",
    "TimestampDetector",
    "DetectorStats",
    "build_default_formats",
    "compiled_format",
    "CANONICAL_FORMAT",
    "format_epoch_millis",
    "parse_canonical",
]

#: The canonical unified format (paper Section III-A2), in SimpleDateFormat
#: notation.  All identified timestamps are rewritten into this format.
CANONICAL_FORMAT = "yyyy/MM/dd HH:mm:ss.SSS"

_MONTHS = [
    "january", "february", "march", "april", "may", "june",
    "july", "august", "september", "october", "november", "december",
]
_MONTH_ABBR = [m[:3] for m in _MONTHS]
_DAYS = [
    "monday", "tuesday", "wednesday", "thursday",
    "friday", "saturday", "sunday",
]
_DAY_ABBR = [d[:3] for d in _DAYS]

_MONTH_TO_NUM = {name: i + 1 for i, name in enumerate(_MONTHS)}
_MONTH_TO_NUM.update({name: i + 1 for i, name in enumerate(_MONTH_ABBR)})

#: Non-ASCII letters ``re.IGNORECASE`` folds onto ASCII ones, so a month
#: name that matched may contain them.
_NON_ASCII_FOLD = str.maketrans(
    {"\u0130": "i", "\u0131": "i", "\u017f": "s", "\u212a": "k"}
)

_DIGITS = frozenset("0123456789")


def _initials(names: Sequence[str]) -> FrozenSet[str]:
    return frozenset(n[0] for n in names) | frozenset(
        n[0].upper() for n in names
    )


# SimpleDateFormat token → (regex body, field group name, characters a
# match can start with).  An empty name is an unnamed group.  Ordered
# longest first so the tokenizer is greedy (``SSS`` before ``ss`` etc.).
_SDF_TOKENS: List[Tuple[str, str, str, FrozenSet[str]]] = [
    ("SSSSSS", "[0-9]{6}", "micro", _DIGITS),
    ("yyyy", "[0-9]{4}", "year", _DIGITS),
    ("SSS", "[0-9]{3}", "milli", _DIGITS),
    ("MMMM", "|".join(_MONTHS), "monthname", _initials(_MONTHS)),
    ("MMM", "|".join(_MONTH_ABBR), "monthabbr", _initials(_MONTHS)),
    ("EEEE", "|".join(_DAYS), "", _initials(_DAYS)),
    ("EEE", "|".join(_DAY_ABBR), "", _initials(_DAYS)),
    ("yy", "[0-9]{2}", "year2", _DIGITS),
    ("MM", "0[1-9]|1[0-2]", "month", _DIGITS),
    ("dd", "0[1-9]|[12][0-9]|3[01]", "day", _DIGITS),
    ("HH", "[01][0-9]|2[0-3]", "hour", _DIGITS),
    ("mm", "[0-5][0-9]", "minute", _DIGITS),
    ("ss", "[0-5][0-9]", "second", _DIGITS),
    ("M", "1[0-2]|0?[1-9]", "month1", _DIGITS),
    ("d", "3[01]|[12][0-9]|0?[1-9]", "day1", _DIGITS),
    ("H", "2[0-3]|1[0-9]|0?[0-9]", "hour1", _DIGITS),
]


class TimestampMatch(NamedTuple):
    """Result of identifying a timestamp inside a token window.

    An immutable tuple, so the tokenizer unpacks it in one step.
    """

    #: Canonical ``yyyy/MM/dd HH:mm:ss.SSS`` rendering.
    normalized: str
    #: Number of whitespace tokens the timestamp consumed.
    tokens_consumed: int
    #: The SimpleDateFormat string that matched.
    format: str
    #: Milliseconds since the epoch (UTC-naive), for ordering and rules.
    epoch_millis: int


@dataclass
class DetectorStats:
    """Counters exposed for the Section VI-A optimisation experiment.

    ``lookups`` counts :meth:`TimestampDetector.identify` calls and the
    tokenizer's direct :meth:`TimestampDetector.lookup` calls, one per
    window looked at; ``filtered_out`` counts the ``identify`` calls the
    gate rejected.  On a gated detector the tokenizer answers a token
    from its datatype memo, or rejects it by start character or gate,
    before any call, so such tokens are in neither count.  On a detector
    without a gate it calls ``identify`` for every token it visits.
    """

    lookups: int = 0
    cache_hits: int = 0
    filtered_out: int = 0
    formats_tried: int = 0
    matches: int = 0

    def reset(self) -> None:
        self.lookups = 0
        self.cache_hits = 0
        self.filtered_out = 0
        self.formats_tried = 0
        self.matches = 0


class TimestampFormat:
    """One SimpleDateFormat entry of the knowledge base, compiled to regex.

    Special format names ``EPOCH_SECONDS`` and ``EPOCH_MILLIS`` match raw
    10/13-digit Unix timestamps.
    """

    #: Separator characters used for the cheap containment pre-check.
    SEPARATORS = ":/-.,"

    def __init__(self, sdf: str) -> None:
        self.sdf = sdf
        #: Epoch unit in milliseconds for the ``EPOCH_*`` formats, else 0.
        self.epoch_scale = 0
        if sdf in ("EPOCH_SECONDS", "EPOCH_MILLIS"):
            digits = "1[0-9]{9}" if sdf == "EPOCH_SECONDS" else "1[0-9]{12}"
            regex, head, starts = "(%s)" % digits, digits, frozenset("1")
            self.epoch_scale = 1000 if sdf == "EPOCH_SECONDS" else 1
        else:
            regex, head, starts = _sdf_to_regex(sdf)
        compiled = re.compile(regex, re.IGNORECASE)
        #: Full-match a window: the ``re.Match`` or ``None``.
        self.match = compiled.fullmatch
        #: Regex of the first whitespace chunk, named groups dropped: a
        #: window's first token must start with it (the detector's gate).
        self.head = head
        #: ASCII characters a match can start with (``None``: any).
        self.start_chars = starts
        index = compiled.groupindex
        #: Group index of each field :meth:`TimestampDetector._convert`
        #: reads (0 when the format lacks it), in ``_FIELD_GROUPS`` order.
        self.fields = tuple(
            next((index[name] for name in names if name in index), 0)
            for names in _FIELD_GROUPS
        )
        #: Number of whitespace-separated chunks this format spans.
        self.token_span = len(sdf.replace("'T'", "T").split(" "))
        #: Separator characters every matching window must contain —
        #: a candidate window lacking one cannot match, so the regex is
        #: skipped entirely (fast-reject used by the detector).
        self.required_separators = frozenset(
            c for c in sdf if c in self.SEPARATORS
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TimestampFormat(%r)" % self.sdf


#: The fields :meth:`TimestampDetector._convert` reads, each as the group
#: names that can carry it, preferred first.
_FIELD_GROUPS = (
    ("year",), ("year2",), ("month", "month1"), ("monthname", "monthabbr"),
    ("day", "day1"), ("hour", "hour1"), ("minute",), ("second",),
    ("milli",), ("micro",),
)


#: Shared compiled-format cache.  A TimestampFormat is immutable after
#: construction (compiled regex, token span, separator set), but building
#: one compiles a regex — and every default detector builds 89 of them.
#: Per-worker tokenizers each own a detector, so without this cache a
#: service start (or a bench repeat) recompiles the whole knowledge base
#: per worker.  Plain dict ops are atomic under the GIL; a rare duplicate
#: build on a race is harmless.
_FORMAT_CACHE: Dict[str, "TimestampFormat"] = {}


def compiled_format(sdf: str) -> "TimestampFormat":
    """The shared compiled :class:`TimestampFormat` for ``sdf``."""
    fmt = _FORMAT_CACHE.get(sdf)
    if fmt is None:
        fmt = TimestampFormat(sdf)
        _FORMAT_CACHE[sdf] = fmt
    return fmt


#: ``gate(token)`` returns a match when ``token`` may begin a timestamp.
_Gate = Callable[[str], Optional["re.Match[str]"]]

#: Every ASCII character and the empty token: the start set of a
#: knowledge base holding a format whose start cannot be derived.
_ANY_START = frozenset(map(chr, range(128))) | {""}

#: Shared gate cache, keyed by a detector's tuple of formats — like
#: ``_FORMAT_CACHE``, so detectors built per worker or per model swap
#: compile their gates once per knowledge base.
_GATE_CACHE: Dict[
    Tuple[str, ...], Tuple[_Gate, Dict[int, _Gate], FrozenSet[str]]
] = {}


def _gates(
    formats: Sequence[TimestampFormat],
) -> Tuple[_Gate, Dict[int, _Gate], FrozenSet[str]]:
    """The overall gate, one gate per token span, and the start chars."""
    key = tuple(fmt.sdf for fmt in formats)
    gates = _GATE_CACHE.get(key)
    if gates is None:
        heads_by_span: Dict[int, List[str]] = {}
        starts: FrozenSet[str] = frozenset()
        for fmt in formats:
            heads_by_span.setdefault(fmt.token_span, []).append(fmt.head)
            starts |= _ANY_START if fmt.start_chars is None \
                else fmt.start_chars
        gates = (
            _gate([fmt.head for fmt in formats]),
            {span: _gate(heads) for span, heads in heads_by_span.items()},
            starts,
        )
        _GATE_CACHE[key] = gates
    return gates


def _gate(heads: Sequence[str]) -> _Gate:
    """Match a token that starts with one of ``heads`` ending at
    whitespace or at the token's end; a window whose first token fails
    cannot fullmatch any of the heads' formats."""
    alternatives = "|".join(dict.fromkeys(heads)) if heads else "(?!)"
    return re.compile(
        r"(?:%s)(?=\s|\Z)" % alternatives, re.IGNORECASE
    ).match


def _sdf_to_regex(
    sdf: str,
) -> Tuple[str, str, Optional[FrozenSet[str]]]:
    """Translate a SimpleDateFormat string into a Python regex source.

    Also returns the format's head — the regex of everything before the
    first whitespace character, named groups dropped — and the characters
    a match can start with.  Those are ``None`` (any) when the head is
    empty or opens with a non-ASCII literal, whose case-folding under
    ``IGNORECASE`` reaches beyond its own upper and lower case.
    """
    # One (sdf source, regex, head regex, start chars) per field or
    # literal character.
    units: List[Tuple[str, str, str, Optional[FrozenSet[str]]]] = []
    i = 0
    n = len(sdf)
    while i < n:
        if sdf[i] == "'":
            end = sdf.index("'", i + 1)
            units += [_literal_unit(c, re.escape(c)) for c in sdf[i + 1:end]]
            i = end + 1
            continue
        for token, body, name, starts in _SDF_TOKENS:
            if sdf.startswith(token, i):
                unnamed = "(?:%s)" % body
                named = "(?P<%s>%s)" % (name, body) if name else unnamed
                units.append((token, named, unnamed, starts))
                i += len(token)
                break
        else:
            c = sdf[i]
            regex = r"\s+" if c == " " else re.escape(c)
            units.append(_literal_unit(c, regex))
            i += 1
    cut = next(
        (k for k, unit in enumerate(units) if unit[0].isspace()), len(units)
    )
    regex = "".join(unit[1] for unit in units)
    head = "".join(unit[2] for unit in units[:cut])
    return regex, head, units[0][3] if cut else None


def _literal_unit(
    c: str, regex: str
) -> Tuple[str, str, str, Optional[FrozenSet[str]]]:
    starts = frozenset((c.lower(), c.upper())) if c.isascii() else None
    return c, regex, regex, starts


# Duplicate-group names break ``re`` if a format repeats a field; the
# knowledge base never repeats a field within one format, which
# ``_sdf_to_regex`` relies on.


def build_default_formats() -> List[str]:
    """Compose the 89-entry default knowledge base.

    The paper states LogLens ships 89 predefined formats; the exact list is
    not published, so this reconstruction covers the format families the
    paper names (Section III-A2) plus the ubiquitous industrial formats
    (ISO-8601, syslog, Apache CLF, ctime, RFC-822, epoch).  A unit test pins
    the count at 89.
    """
    formats: List[str] = []
    # 9 numeric date orders x 5 time shapes = 45.
    dates = [
        "yyyy/MM/dd", "yyyy-MM-dd", "yyyy.MM.dd",
        "MM/dd/yyyy", "MM-dd-yyyy", "MM.dd.yyyy",
        "dd/MM/yyyy", "dd-MM-yyyy", "dd.MM.yyyy",
    ]
    times = [
        "HH:mm:ss", "HH:mm:ss.SSS", "HH:mm:ss,SSS", "HH:mm:ss:SSS", "HH:mm",
    ]
    for d in dates:
        for t in times:
            formats.append("%s %s" % (d, t))
    # ISO-8601 'T' variants (4): 49.
    formats += [
        "yyyy-MM-dd'T'HH:mm:ss",
        "yyyy-MM-dd'T'HH:mm:ss.SSS",
        "yyyy-MM-dd'T'HH:mm:ss'Z'",
        "yyyy-MM-dd'T'HH:mm:ss.SSS'Z'",
    ]
    # Month-name dates x 3 time shapes (12): 61.
    name_dates = ["MMM dd yyyy", "MMM dd, yyyy", "dd MMM yyyy", "yyyy MMM dd"]
    name_times = ["HH:mm:ss", "HH:mm:ss.SSS", "HH:mm"]
    for d in name_dates:
        for t in name_times:
            formats.append("%s %s" % (d, t))
    # Year-less dates x 3 time shapes (9): 70.
    short_dates = ["MM/dd", "dd/MM", "MMM dd"]
    for d in short_dates:
        for t in name_times:
            formats.append("%s %s" % (d, t))
    # Time-only (5): 75.
    formats += times
    # Compact / epoch (4): 79.
    formats += [
        "yyyyMMddHHmmss",
        "yyyyMMdd-HH:mm:ss",
        "EPOCH_SECONDS",
        "EPOCH_MILLIS",
    ]
    # Industrial one-offs (10): 89.
    formats += [
        "EEE MMM dd HH:mm:ss yyyy",        # ctime (two-digit day)
        "EEE MMM d HH:mm:ss yyyy",         # ctime (single-digit day)
        "EEE, dd MMM yyyy HH:mm:ss",       # RFC-822
        "MMM d HH:mm:ss",                  # syslog
        "dd/MMM/yyyy:HH:mm:ss",            # Apache CLF
        "dd-MMM-yyyy HH:mm:ss",            # Oracle-style
        "yyyy-MM-dd HH:mm:ss.SSSSSS",      # Python logging w/ microseconds
        "MM-dd HH:mm:ss.SSS",              # Android logcat
        "yyyyMMdd HHmmss",
        "yyyyMMdd'T'HHmmss",               # ISO-8601 basic
    ]
    return formats


_DAYS_IN_MONTH = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_EPOCH_YEAR = 1970


def _days_from_civil(year: int, month: int, day: int) -> int:
    """Days since 1970-01-01 (proleptic Gregorian, Howard Hinnant's algo)."""
    year -= month <= 2
    era = (year if year >= 0 else year - 399) // 400
    yoe = year - era * 400
    doy = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def _to_epoch_millis(
    year: int, month: int, day: int,
    hour: int, minute: int, second: int, milli: int,
) -> int:
    days = _days_from_civil(year, month, day)
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 1000 + milli


def _from_epoch_millis(ms: int) -> Tuple[int, int, int, int, int, int, int]:
    milli = ms % 1000
    seconds = ms // 1000
    minutes, second = divmod(seconds, 60)
    hours, minute = divmod(minutes, 60)
    days, hour = divmod(hours, 24)
    # Invert _days_from_civil (civil_from_days).
    z = days + 719468
    era = (z if z >= 0 else z - 146096) // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    year = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + (3 if mp < 10 else -9)
    year += month <= 2
    return year, month, day, hour, minute, second, milli


class TimestampDetector:
    """Identify, validate and canonicalise timestamps in token streams.

    Parameters
    ----------
    formats:
        SimpleDateFormat strings to recognise; defaults to the 89-entry
        knowledge base of :func:`build_default_formats`.
    use_cache:
        Enable the matched-format cache optimisation.
    use_filter:
        Enable the filtering optimisation: the gate derived from the
        formats' heads, and the per-format separator check.
    default_year / default_date:
        Fallbacks for formats that omit the year or the whole date.
    """

    def __init__(
        self,
        formats: Optional[Sequence[str]] = None,
        *,
        use_cache: bool = True,
        use_filter: bool = True,
        default_year: int = 2016,
        default_date: Tuple[int, int, int] = (2016, 1, 1),
    ) -> None:
        sdf_list = list(formats) if formats is not None \
            else build_default_formats()
        self._formats = [compiled_format(s) for s in sdf_list]
        self.use_cache = use_cache
        self.use_filter = use_filter
        self.default_year = default_year
        self.default_date = default_date
        #: Indices of previously-matched formats, in match order.  A
        #: tuple, replaced (never edited) on a new match: one identify
        #: call reads it once, so its sweep skips exactly the formats its
        #: own cache pass tried even while another thread adds one.
        self._cache: Tuple[int, ...] = ()
        #: Window memo of the cache pass: format index → the last
        #: ``(window, result)`` its regex matched, ``result`` ``None`` for
        #: an impossible date.  One slot per cached format, each
        #: replaced whole (a tuple), so a reader never sees a torn pair.
        self._last: Dict[int, Tuple[str, Optional[TimestampMatch]]] = {}
        self.stats = DetectorStats()
        self._rebuild_span_index()

    def _rebuild_span_index(self) -> None:
        by_span: Dict[int, List[int]] = {}
        for idx, fmt in enumerate(self._formats):
            by_span.setdefault(fmt.token_span, []).append(idx)
        span_gates: Dict[int, _Gate] = {}
        #: ``gate(token)`` is ``None`` when no format can start at
        #: ``token``; ``start_chars`` holds every ASCII character such a
        #: token can start with (a non-ASCII one must go to the gate).
        #: Both are ``None`` with ``use_filter=False``.
        self.gate: Optional[_Gate] = None
        self.start_chars: Optional[FrozenSet[str]] = None
        if self.use_filter:
            self.gate, span_gates, self.start_chars = _gates(self._formats)
        # The sweep, widest span first: (span, format indices, span gate).
        self._sweep = [
            (span, by_span[span], span_gates.get(span))
            for span in sorted(by_span, reverse=True)
        ]

    # ------------------------------------------------------------------
    @property
    def formats(self) -> List[str]:
        """The knowledge base, as SimpleDateFormat strings."""
        return [f.sdf for f in self._formats]

    def add_format(self, sdf: str) -> None:
        """Append a user-provided format to the knowledge base."""
        self._formats.append(compiled_format(sdf))
        self._rebuild_span_index()

    def reset_cache(self) -> None:
        """Drop the matched-format cache and its window memo.

        ``add_format`` keeps both: format indices are append-only.
        """
        self._cache = ()
        self._last = {}

    # ------------------------------------------------------------------
    def identify(
        self, tokens: Sequence[str], start: int = 0
    ) -> Optional[TimestampMatch]:
        """Try to read a timestamp beginning at ``tokens[start]``.

        Windows of decreasing width (up to the widest format in the
        knowledge base) are joined with single spaces and matched.  Wider
        windows are preferred so ``2016/02/23 09:00:31`` is consumed as one
        timestamp rather than a date followed by an unrelated time.
        An out-of-range ``start`` and a first token the gate rejects
        count one lookup and return ``None``; anything else goes to
        :meth:`lookup`.
        """
        stats = self.stats
        if start >= len(tokens):
            stats.lookups += 1
            return None
        if self.gate is not None and self.gate(tokens[start]) is None:
            stats.lookups += 1
            stats.filtered_out += 1
            return None
        return self.lookup(tokens, start)

    def lookup(
        self, tokens: Sequence[str], start: int
    ) -> Optional[TimestampMatch]:
        """:meth:`identify` without the bounds check and the gate.

        The caller guarantees ``start < len(tokens)`` and, when the
        detector has a gate, that ``tokens[start]`` passed it.  Counts
        one lookup.  In the cache pass a window equal to the last one a
        cached format matched returns that format's stored answer; the
        counts are those of running its regex again.
        """
        stats = self.stats
        stats.lookups += 1
        first = tokens[start]
        available = len(tokens) - start
        cache = self._cache if self.use_cache else ()
        # Cache pass first (the paper's "find if there is a cache hit"):
        # sources reuse a handful of formats, so a warm cache resolves a
        # genuine timestamp with one regex match and one conversion, or
        # one string comparison for a repeated window, skipping the
        # whole span sweep below.
        if cache:
            formats = self._formats
            last = self._last
            window_span = 0
            window = first
            for idx in cache:
                fmt = formats[idx]
                span = fmt.token_span
                if span > available:
                    continue
                if span != window_span:
                    window = (
                        first
                        if span == 1
                        else " ".join(tokens[start:start + span])
                    )
                    window_span = span
                stats.formats_tried += 1
                # Dense logs share clock ticks: a window equal to the
                # last one this format matched gets that answer back.
                slot = last.get(idx)
                if slot is not None and slot[0] == window:
                    result = slot[1]
                else:
                    m = fmt.match(window)
                    if m is None:
                        continue
                    result = self._convert(m, fmt, span)
                    last[idx] = (window, result)
                if result is None:
                    continue
                stats.cache_hits += 1
                stats.matches += 1
                return result
        # Cache miss: sweep spans widest-first over non-cached formats,
        # skipping every span whose gate rejects the first token.
        for span, indices, span_gate in self._sweep:
            if span > available:
                continue
            if span_gate is not None and span_gate(first) is None:
                continue
            window = first if span == 1 else " ".join(
                tokens[start:start + span]
            )
            match = self._match_window(window, span, indices, cache)
            if match is not None:
                return match
        return None

    # ------------------------------------------------------------------
    def _match_window(
        self,
        window: str,
        span: int,
        indices: List[int],
        tried: Tuple[int, ...],
    ) -> Optional[TimestampMatch]:
        # The separator containment test is part of the *filtering*
        # optimisation (Section VI-A): windows lacking a format's required
        # separators cannot match it, so the regex is skipped.
        separators_present: Optional[frozenset] = None
        if self.use_filter:
            separators_present = frozenset(
                c for c in TimestampFormat.SEPARATORS if c in window
            )
        for idx in indices:
            if idx in tried:
                continue  # already tried via the cache pass
            fmt = self._formats[idx]
            if (
                separators_present is not None
                and not fmt.required_separators <= separators_present
            ):
                continue
            self.stats.formats_tried += 1
            m = fmt.match(window)
            if m is None:
                continue
            result = self._convert(m, fmt, span)
            if result is None:
                continue
            if self.use_cache and idx not in self._cache:
                self._cache += (idx,)
            self.stats.matches += 1
            return result
        return None

    def _convert(
        self, m: "re.Match[str]", fmt: TimestampFormat, span: int
    ) -> Optional[TimestampMatch]:
        """The :class:`TimestampMatch` for ``fmt``'s match ``m``.

        ``None`` when the civil date is impossible (the regex admits Feb
        31), so a later format may claim the window.
        """
        group = m.group
        if fmt.epoch_scale:
            epoch_ms = int(group(1)) * fmt.epoch_scale
            return TimestampMatch(
                format_epoch_millis(epoch_ms), span, fmt.sdf, epoch_ms
            )
        (year, year2, month, name, day,
         hour, minute, second, milli, micro) = fmt.fields
        if month:
            mo = int(group(month))
        elif name:
            text = group(name)
            mo = _MONTH_TO_NUM.get(text.lower()) or _MONTH_TO_NUM[
                text.translate(_NON_ASCII_FOLD).lower()
            ]
        else:
            mo = 0
        d = int(group(day)) if day else 0
        if not mo and not d:
            y, mo, d = self.default_date
        else:
            if year:
                y = int(group(year))
            elif year2:
                y = 2000 + int(group(year2))
            else:
                y = self.default_year
            mo = mo or 1
            d = d or 1
        h = int(group(hour)) if hour else 0
        mi = int(group(minute)) if minute else 0
        s = int(group(second)) if second else 0
        if milli:
            ms = int(group(milli))
        elif micro:
            ms = int(group(micro)) // 1000
        else:
            ms = 0
        key = (y, mo, d)
        civil = _CIVIL_DAYS.get(key)
        if civil is None:
            civil = _civil_day(key)
        if not civil:
            return None
        days, date_text = civil
        epoch_ms = (((days * 24 + h) * 60 + mi) * 60 + s) * 1000 + ms
        normalized = date_text + "%02d:%02d:%02d.%03d" % (h, mi, s, ms)
        return TimestampMatch(normalized, span, fmt.sdf, epoch_ms)


#: ``(year, month, day)`` → ``(days since 1970-01-01, canonical date text
#: with its trailing space)``, or ``()`` for an impossible date.  Shared by
#: every detector, like ``_FORMAT_CACHE``; it stops growing at
#: ``_CIVIL_DAYS_CAP`` entries (about 55 years of distinct days), after
#: which an unseen date is computed on every conversion.
_CIVIL_DAYS: Dict[Tuple[int, int, int], Tuple[int, str]] = {}
_CIVIL_DAYS_CAP = 20_000


def _civil_day(key: Tuple[int, int, int]) -> Tuple[int, str]:
    """Compute (and cache while there is room) ``_CIVIL_DAYS[key]``."""
    civil: Tuple[int, str] = ()  # type: ignore[assignment]
    if _valid_date(*key):
        civil = (_days_from_civil(*key), "%04d/%02d/%02d " % key)
    if len(_CIVIL_DAYS) < _CIVIL_DAYS_CAP:
        _CIVIL_DAYS[key] = civil
    return civil


def _valid_date(year: int, month: int, day: int) -> bool:
    if not 1 <= month <= 12 or day < 1:
        return False
    limit = _DAYS_IN_MONTH[month - 1]
    if month == 2 and not _is_leap(year):
        limit = 28
    return day <= limit


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def format_epoch_millis(ms: int) -> str:
    """Render epoch milliseconds in the canonical LogLens format."""
    y, mo, d, h, mi, s, milli = _from_epoch_millis(ms)
    return "%04d/%02d/%02d %02d:%02d:%02d.%03d" % (y, mo, d, h, mi, s, milli)


_CANONICAL_RE = re.compile(
    r"([0-9]{4})/([0-9]{2})/([0-9]{2}) "
    r"([0-9]{2}):([0-9]{2}):([0-9]{2})\.([0-9]{3})\Z"
)


def parse_canonical(text: str) -> int:
    """Epoch milliseconds of a canonical ``yyyy/MM/dd HH:mm:ss.SSS`` string.

    Raises
    ------
    ValueError
        If ``text`` is not in the canonical format.
    """
    m = _CANONICAL_RE.match(text)
    if m is None:
        raise ValueError("not a canonical timestamp: %r" % text)
    y, mo, d, h, mi, s, ms = (int(g) for g in m.groups())
    return _to_epoch_millis(y, mo, d, h, mi, s, ms)
