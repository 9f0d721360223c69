"""Datatype registry for LogLens tokens.

Every token in a log (and every variable field in a GROK pattern) carries a
*datatype* — a named regular-expression class such as ``WORD``, ``NUMBER`` or
``IP`` (paper, Table I).  Datatypes serve three purposes:

1. **Inference** — given a raw token, find the most specific datatype whose
   regex matches it (:func:`infer_datatype`).
2. **Coverage** — decide whether one datatype's language is contained in
   another's (:func:`is_covered`), which drives the dynamic-programming
   signature matcher (paper, Algorithm 1).
3. **Generality ordering** — candidate patterns in an index group are sorted
   most-specific-first (paper, Section III-B step 2), which requires a total
   generality score per datatype (:func:`generality`).

The built-in datatypes mirror Table I of the paper.  Users may register
additional datatypes with :meth:`DatatypeRegistry.register`.

Inference runs one regex per token: the registry compiles one alternation
of every datatype's regex in inference order, each alternative wrapped in
a capturing group that ends in ``\\Z``, and maps the index of the group
that matched back to its datatype.  Regex alternation is ordered, so the
first datatype that fully matches wins, exactly as a loop over the
inference order would find it.  The alternation embeds each regex
unchanged, so :meth:`DatatypeRegistry.register` rejects a regex it cannot
embed: one that refers to a group (its number would shift) or sets a
global inline flag (it would apply to every alternative).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

try:  # Python 3.11+
    from re import _parser as _sre_parse
except ImportError:  # pragma: no cover - Python 3.9 and 3.10
    import sre_parse as _sre_parse  # type: ignore[no-redef]

__all__ = [
    "Datatype",
    "DatatypeRegistry",
    "DEFAULT_REGISTRY",
    "infer_datatype",
    "is_covered",
    "generality",
    "LITERAL_GENERALITY",
]

#: Generality score assigned to literal (constant) tokens in a pattern.
#: Literals are the most specific thing a pattern can contain, so they sort
#: before any variable datatype.
LITERAL_GENERALITY = 0


@dataclass(frozen=True)
class Datatype:
    """A named regular-expression token class.

    Attributes
    ----------
    name:
        Upper-case datatype name used inside GROK expressions
        (``%{NAME:field}``).
    pattern:
        Python regex source the datatype matches (fully anchored when used
        for inference).
    generality:
        Larger means more general.  Used to order candidate patterns so the
        most specific pattern wins when several could parse a log.
    parents:
        Names of datatypes whose language strictly contains this datatype's
        language.  Coverage is the reflexive-transitive closure of this
        relation.
    """

    name: str
    pattern: str
    generality: int
    parents: Tuple[str, ...] = field(default_factory=tuple)

    def compiled(self) -> "re.Pattern[str]":
        """Return the anchored, compiled regex for full-token matching."""
        return re.compile(r"(?:%s)\Z" % self.pattern)


class DatatypeRegistry:
    """Mutable collection of datatypes with coverage and inference queries.

    The registry maintains:

    * an *inference plan* (:attr:`inference`) — one alternation of the
      datatypes sorted most-specific-first, so the first full match
      wins, rebuilt on every :meth:`register`;
    * a *coverage closure* — the reflexive-transitive closure of the
      ``parents`` relation, answering :meth:`is_covered` in O(1).
    """

    def __init__(self, datatypes: Optional[Iterable[Datatype]] = None) -> None:
        self._types: Dict[str, Datatype] = {}
        self._compiled: Dict[str, "re.Pattern[str]"] = {}
        self._closure: Dict[str, frozenset] = {}
        #: ``(alternation, datatype name per group index)``; replaced,
        #: never edited, by every :meth:`register`, so a holder of the
        #: old tuple (the tokenizer's memo) can tell inference changed.
        self.inference = _alternation([])
        for dt in datatypes if datatypes is not None else _builtin_datatypes():
            self.register(dt)

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, datatype: Datatype) -> None:
        """Add (or replace) a datatype and rebuild derived structures.

        Raises
        ------
        ValueError
            If a declared parent is unknown, or the regex does not compile
            or cannot join the inference alternation unchanged (a group
            reference, an inline global flag, a group name another
            datatype uses).  The registry is then left as it was.
        """
        for parent in datatype.parents:
            if parent not in self._types and parent != datatype.name:
                raise ValueError(
                    "datatype %r declares unknown parent %r"
                    % (datatype.name, parent)
                )
        compiled = _embeddable(datatype)
        types = dict(self._types)
        types[datatype.name] = datatype
        order = sorted(types.values(), key=lambda d: (d.generality, d.name))
        try:
            inference = _alternation(order)
        except re.error as exc:
            raise ValueError(
                "datatype %r cannot join the inference alternation: %s"
                % (datatype.name, exc)
            ) from None
        self._types = types
        self._compiled[datatype.name] = compiled
        self.inference = inference
        self._rebuild_closure()

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __getitem__(self, name: str) -> Datatype:
        return self._types[name]

    def names(self) -> List[str]:
        """All registered datatype names, most specific first."""
        return [name for name in self.inference[1] if name is not None]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def infer(self, token: str) -> str:
        """Return the most specific datatype fully matching ``token``.

        Falls back to ``ANYDATA`` (which matches anything, including the
        empty string) when no narrower class applies — in practice
        ``NOTSPACE`` matches any delimiter-split token, so ``ANYDATA`` is
        only reachable for tokens containing whitespace (e.g. merged
        timestamp candidates that failed format validation).
        """
        alternation, names = self.inference
        m = alternation.match(token)
        return names[m.lastindex] if m is not None else "ANYDATA"

    def matches(self, token: str, datatype: str) -> bool:
        """True when ``token`` is fully matched by ``datatype``'s regex."""
        try:
            return bool(self._compiled[datatype].match(token))
        except KeyError:
            raise KeyError("unknown datatype %r" % datatype) from None

    def is_covered(self, narrow: str, wide: str) -> bool:
        """True when every string of ``narrow`` is also in ``wide``.

        This is the ``isCovered`` predicate of Algorithm 1: reflexive, and
        follows declared ``parents`` edges transitively.  For example
        ``is_covered("WORD", "NOTSPACE")`` is true while the converse is
        false.
        """
        if narrow == wide:
            return True
        covered_by = self._closure.get(narrow)
        return covered_by is not None and wide in covered_by

    def generality(self, datatype: str) -> int:
        """Generality score; unknown names are treated as literals."""
        dt = self._types.get(datatype)
        return dt.generality if dt is not None else LITERAL_GENERALITY

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rebuild_closure(self) -> None:
        closure: Dict[str, set] = {name: set() for name in self._types}
        for name, dt in self._types.items():
            stack = list(dt.parents)
            seen = set()
            while stack:
                parent = stack.pop()
                if parent in seen or parent == name:
                    continue
                seen.add(parent)
                closure[name].add(parent)
                parent_dt = self._types.get(parent)
                if parent_dt is not None:
                    stack.extend(parent_dt.parents)
        self._closure = {k: frozenset(v) for k, v in closure.items()}


def _embeddable(datatype: Datatype) -> "re.Pattern[str]":
    """``datatype``'s compiled regex, once it is known to keep its
    meaning inside the inference alternation; else ``ValueError``."""
    try:
        bare = re.compile(datatype.pattern)
        if bare.flags != _DEFAULT_FLAGS:
            raise ValueError(
                "datatype %r sets an inline global flag; use a scoped one "
                "such as (?i:...)" % datatype.name
            )
        compiled = datatype.compiled()
    except re.error as exc:
        raise ValueError(
            "datatype %r has an invalid regex: %s" % (datatype.name, exc)
        ) from None
    if _refers_to_a_group(_sre_parse.parse(datatype.pattern)):
        raise ValueError(
            "datatype %r refers to a group, whose number would shift "
            "inside the inference alternation" % datatype.name
        )
    return compiled


_DEFAULT_FLAGS = re.compile("").flags
_GROUP_REFS = (_sre_parse.GROUPREF, _sre_parse.GROUPREF_EXISTS)


def _refers_to_a_group(node: object) -> bool:
    """True when the parse tree ``node`` holds a back-reference or a
    conditional on a group, named or numbered."""
    if isinstance(node, _sre_parse.SubPattern):
        return any(
            op in _GROUP_REFS or _refers_to_a_group(av) for op, av in node
        )
    if isinstance(node, (tuple, list)):
        return any(_refers_to_a_group(item) for item in node)
    return False


def _alternation(
    order: List[Datatype],
) -> Tuple["re.Pattern[str]", Tuple[Optional[str], ...]]:
    """One regex trying every datatype of ``order`` in turn, and the
    datatype name of each alternative's group index (``None`` for the
    datatypes' own inner groups)."""
    parts: List[str] = []
    names: List[Optional[str]] = [None]
    for dt in order:
        parts.append(r"((?:%s)\Z)" % dt.pattern)
        names.append(dt.name)
        names.extend([None] * re.compile(dt.pattern).groups)
    source = "|".join(parts) if parts else "(?!)"
    return re.compile(source), tuple(names)


def _builtin_datatypes() -> List[Datatype]:
    """The datatypes of paper Table I plus common extensions.

    Generality scores: literals are 0 (see :data:`LITERAL_GENERALITY`);
    tightly-structured classes (IP, DATETIME) score low; free-text classes
    (NOTSPACE, ANYDATA) score high.  Listed in dependency order (parents
    first) so sequential registration always succeeds.
    """
    return [
        Datatype("ANYDATA", r".*", 100),
        Datatype("NOTSPACE", r"\S+", 40, parents=("ANYDATA",)),
        Datatype("WORD", r"[a-zA-Z]+", 30, parents=("NOTSPACE",)),
        Datatype(
            "NUMBER", r"-?[0-9]+(\.[0-9]+)?", 20, parents=("NOTSPACE",)
        ),
        Datatype(
            "IP",
            r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}",
            10,
            parents=("NOTSPACE",),
        ),
        Datatype(
            "DATETIME",
            r"[0-9]{4}/[0-9]{2}/[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{3}",
            10,
            parents=("ANYDATA",),
        ),
        Datatype("HEX", r"0[xX][0-9a-fA-F]+", 15, parents=("NOTSPACE",)),
        Datatype(
            "UUID",
            r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}"
            r"-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}",
            15,
            parents=("NOTSPACE",),
        ),
    ]


#: Registry used throughout LogLens unless a component is handed its own.
DEFAULT_REGISTRY = DatatypeRegistry()


def infer_datatype(token: str) -> str:
    """Infer the most specific builtin datatype of ``token``."""
    return DEFAULT_REGISTRY.infer(token)


def is_covered(narrow: str, wide: str) -> bool:
    """Builtin-registry coverage query (see Algorithm 1 in the paper)."""
    return DEFAULT_REGISTRY.is_covered(narrow, wide)


def generality(datatype: str) -> int:
    """Builtin-registry generality score."""
    return DEFAULT_REGISTRY.generality(datatype)
