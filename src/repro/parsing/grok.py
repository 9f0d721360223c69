"""GROK pattern objects.

LogLens expresses every discovered log pattern as a GROK expression (paper,
Section III): a whitespace-joined sequence of *literal* tokens and *variable
fields* written ``%{DATATYPE:fieldName}``.  Parsing the log ``"Connect DB
127.0.0.1 user abc123"`` with the pattern ``"%{WORD:Action} DB %{IP:Server}
user %{NOTSPACE:UserName}"`` yields ``{"Action": "Connect", "Server":
"127.0.0.1", "UserName": "abc123"}``.

Two matching engines are provided:

* :meth:`GrokPattern.match` — token-aligned matching against a
  :class:`~repro.parsing.tokenizer.TokenizedLog`; the engine LogLens itself
  uses.  The ``ANYDATA`` wildcard may absorb any number of tokens
  (including zero), handled by dynamic programming.
* :meth:`GrokPattern.compile_regex` — a single anchored regex over the raw
  line, the strategy of the Logstash baseline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .datatypes import DEFAULT_REGISTRY, DatatypeRegistry, LITERAL_GENERALITY
from .tokenizer import TokenizedLog

__all__ = ["Literal", "Field", "GrokElement", "GrokPattern", "CompiledGrok"]

_FIELD_RE = re.compile(r"%\{(?P<type>[A-Z0-9_]+)(?::(?P<name>[^}]+))?\}\Z")


@dataclass(frozen=True)
class Literal:
    """A constant token that must appear verbatim in the log."""

    text: str

    def to_grok(self) -> str:
        return self.text


@dataclass(frozen=True)
class Field:
    """A variable field: a datatype plus a (possibly user-renamed) name."""

    datatype: str
    name: str

    def to_grok(self) -> str:
        return "%%{%s:%s}" % (self.datatype, self.name)


GrokElement = Union[Literal, Field]


class GrokPattern:
    """An immutable-by-convention GROK pattern with a numeric pattern id.

    Parameters
    ----------
    elements:
        Ordered :class:`Literal` / :class:`Field` elements.
    pattern_id:
        The 1-based id assigned at discovery time (the ``P<i>`` in field
        names such as ``P1F2``); ``0`` for ad-hoc patterns.
    registry:
        Datatype registry used for matching and signatures.
    """

    def __init__(
        self,
        elements: Sequence[GrokElement],
        pattern_id: int = 0,
        registry: Optional[DatatypeRegistry] = None,
    ) -> None:
        self.elements: List[GrokElement] = list(elements)
        self.pattern_id = pattern_id
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self._signature: Optional[str] = None
        self._signature_tokens: Optional[Tuple[str, ...]] = None
        self._has_wildcard = any(
            isinstance(e, Field) and e.datatype == "ANYDATA"
            for e in self.elements
        )

    # ------------------------------------------------------------------
    # Construction / rendering
    # ------------------------------------------------------------------
    @classmethod
    def from_string(
        cls,
        expression: str,
        pattern_id: int = 0,
        registry: Optional[DatatypeRegistry] = None,
    ) -> "GrokPattern":
        """Parse a whitespace-joined GROK expression string."""
        elements: List[GrokElement] = []
        for chunk in expression.split():
            m = _FIELD_RE.match(chunk)
            if m:
                name = m.group("name") or m.group("type")
                elements.append(Field(m.group("type"), name))
            else:
                elements.append(Literal(chunk))
        return cls(elements, pattern_id=pattern_id, registry=registry)

    def to_string(self) -> str:
        """Render back to a GROK expression string."""
        return " ".join(e.to_grok() for e in self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "GrokPattern(id=%d, %r)" % (self.pattern_id, self.to_string())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GrokPattern)
            and self.elements == other.elements
            and self.pattern_id == other.pattern_id
        )

    def __hash__(self) -> int:
        return hash((tuple(self.elements), self.pattern_id))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fields(self) -> List[Field]:
        """The variable fields, in order."""
        return [e for e in self.elements if isinstance(e, Field)]

    @property
    def has_wildcard(self) -> bool:
        """True when the pattern contains an ``ANYDATA`` field."""
        return self._has_wildcard

    def signature(self) -> str:
        """The pattern-signature (paper, Section III-B).

        Fields contribute their declared datatype; literal tokens contribute
        the datatype inferred from their present value.
        """
        if self._signature is None:
            parts = []
            for e in self.elements:
                if isinstance(e, Field):
                    parts.append(e.datatype)
                else:
                    parts.append(self.registry.infer(e.text))
            self._signature = " ".join(parts)
        return self._signature

    def signature_tokens(self) -> Tuple[str, ...]:
        """The pattern-signature pre-split into datatype names.

        Cached: the index compares this against every unseen log shape,
        and re-splitting the joined signature per comparison shows up in
        the group-build profile.
        """
        if self._signature_tokens is None:
            self._signature_tokens = tuple(self.signature().split())
        return self._signature_tokens

    def generality_key(self) -> Tuple[int, int]:
        """Sort key: (total generality, token length), both ascending.

        Candidate-pattern-groups are scanned in this order so that the most
        specific matching pattern claims a log (paper, Section III-B
        step 2).
        """
        total = 0
        for e in self.elements:
            if isinstance(e, Field):
                total += self.registry.generality(e.datatype)
            else:
                total += LITERAL_GENERALITY
        return (total, len(self.elements))

    # ------------------------------------------------------------------
    # Token-aligned matching (LogLens engine)
    # ------------------------------------------------------------------
    def match(self, log: TokenizedLog) -> Optional[Dict[str, str]]:
        """Match a tokenized log; return field values or ``None``.

        Fast path: patterns without wildcards are matched position by
        position.  Patterns with ``ANYDATA`` run a dynamic program in which
        the wildcard may absorb zero or more tokens; the *shortest* possible
        absorption is preferred so trailing structure still binds.
        """
        texts = log.texts
        if not self._has_wildcard:
            if len(texts) != len(self.elements):
                return None
            out: Dict[str, str] = {}
            for text, datatype, elem in zip(
                texts, log.datatypes, self.elements
            ):
                if isinstance(elem, Literal):
                    if text != elem.text:
                        return None
                else:
                    if not self._field_accepts(elem, text, datatype):
                        return None
                    out[elem.name] = text
            return out
        return self._match_wildcard(texts, log.datatypes)

    def _field_accepts(self, elem: Field, text: str, datatype: str) -> bool:
        if self.registry.is_covered(datatype, elem.datatype):
            return True
        # The token's inferred type is not in the declared lattice under
        # the field type; fall back to a direct regex check (covers custom
        # or user-edited datatypes).
        if elem.datatype in self.registry:
            return self.registry.matches(text, elem.datatype)
        return False

    def _match_wildcard(
        self, texts: Sequence[str], datatypes: Sequence[str]
    ) -> Optional[Dict[str, str]]:
        elements = self.elements
        n, m = len(texts), len(elements)
        # T[i][j]: tokens[:i] matched by elements[:j] (Algorithm 1 shape,
        # over concrete tokens rather than signatures).
        T = [[False] * (m + 1) for _ in range(n + 1)]
        T[0][0] = True
        for j in range(1, m + 1):
            elem = elements[j - 1]
            if isinstance(elem, Field) and elem.datatype == "ANYDATA":
                T[0][j] = T[0][j - 1]
            else:
                break
        for i in range(1, n + 1):
            text = texts[i - 1]
            datatype = datatypes[i - 1]
            for j in range(1, m + 1):
                elem = elements[j - 1]
                if isinstance(elem, Field) and elem.datatype == "ANYDATA":
                    T[i][j] = T[i - 1][j] or T[i][j - 1]
                elif isinstance(elem, Literal):
                    T[i][j] = T[i - 1][j - 1] and text == elem.text
                else:
                    T[i][j] = T[i - 1][j - 1] and self._field_accepts(
                        elem, text, datatype
                    )
        if not T[n][m]:
            return None
        return self._reconstruct(texts, T)

    def _reconstruct(
        self, texts: Sequence[str], T: List[List[bool]]
    ) -> Dict[str, str]:
        """Walk the DP table backwards, capturing field values.

        Walking backwards, each wildcard absorbs as much as it can
        (``T[i-1][j]`` preferred), which makes *earlier* wildcards capture
        as little as possible — the same assignment a lazy ``.*?`` regex
        produces, keeping both matching engines consistent.
        """
        out: Dict[str, str] = {}
        i, j = len(texts), len(self.elements)
        wildcard_bounds: Dict[int, List[int]] = {}
        while j > 0:
            elem = self.elements[j - 1]
            if isinstance(elem, Field) and elem.datatype == "ANYDATA":
                end = i
                while i > 0 and T[i - 1][j]:
                    i -= 1
                wildcard_bounds[j - 1] = [i, end]
                j -= 1
            else:
                if isinstance(elem, Field):
                    out[elem.name] = texts[i - 1]
                i -= 1
                j -= 1
        for idx, (start, end) in wildcard_bounds.items():
            elem = self.elements[idx]
            assert isinstance(elem, Field)
            out[elem.name] = " ".join(texts[start:end])
        return out

    # ------------------------------------------------------------------
    # Raw-regex compilation (Logstash-baseline engine)
    # ------------------------------------------------------------------
    def compile_regex(self) -> "CompiledGrok":
        """Compile the whole pattern into one anchored regex.

        Field names are mapped to synthetic group names (``g0``, ``g1``...)
        because user-renamed fields may not be valid regex group names; the
        returned :class:`CompiledGrok` carries the reverse mapping.
        """
        parts: List[str] = []
        group_map: Dict[str, str] = {}
        counter = 0
        for e in self.elements:
            if isinstance(e, Literal):
                parts.append(re.escape(e.text))
            else:
                gname = "g%d" % counter
                counter += 1
                group_map[gname] = e.name
                if e.datatype == "ANYDATA":
                    body = r".*?"
                elif e.datatype in self.registry:
                    body = self.registry[e.datatype].pattern
                else:
                    body = r"\S+"
                parts.append("(?P<%s>%s)" % (gname, body))
        source = r"\s+".join(parts)
        return CompiledGrok(re.compile(r"\s*%s\s*\Z" % source), group_map)


class CompiledGrok:
    """A GROK pattern compiled to one regex, with the field-name mapping."""

    __slots__ = ("regex", "groups")

    def __init__(
        self, regex: "re.Pattern[str]", groups: Dict[str, str]
    ) -> None:
        self.regex = regex
        self.groups = groups

    def match(self, text: str) -> Optional[Dict[str, str]]:
        """Full-match ``text``; return field values or ``None``."""
        m = self.regex.match(text)
        if m is None:
            return None
        return {
            self.groups[g]: v
            for g, v in m.groupdict().items()
            if v is not None
        }
