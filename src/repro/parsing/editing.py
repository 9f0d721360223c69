"""User editing operations over discovered patterns.

LogLens is unsupervised, but the paper's key lesson (Section VIII) is that
users must be able to fold domain knowledge into automatically generated
models.  Section III-A4 enumerates four editing operations, all implemented
here as pure functions returning new :class:`GrokPattern` objects:

* :func:`rename_field` — give a generic ``P1F1`` field a semantic name;
* :func:`specialize_field` — pin a variable field to a constant value;
* :func:`generalize_literal` — turn a constant token into a variable field;
* :func:`set_field_datatype` — change a field's datatype, including the
  ``ANYDATA`` wildcard which may swallow several tokens (adjacent elements
  can be merged into the wildcard with :func:`merge_into_anydata`).

:class:`PatternSetEditor` wraps a whole pattern set with add/delete/replace
operations plus an audit trail, which the model manager
(:mod:`repro.service.model_manager`) exposes to human experts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from .grok import Field, GrokPattern, Literal

__all__ = [
    "rename_field",
    "specialize_field",
    "generalize_literal",
    "set_field_datatype",
    "merge_into_anydata",
    "EditRecord",
    "PatternSetEditor",
]


class EditError(ValueError):
    """Raised when an editing operation does not apply to the pattern."""


def _replace(
    pattern: GrokPattern, index: int, element
) -> GrokPattern:
    elements = list(pattern.elements)
    elements[index] = element
    return GrokPattern(
        elements, pattern_id=pattern.pattern_id, registry=pattern.registry
    )


def _find_field(pattern: GrokPattern, name: str) -> int:
    for idx, elem in enumerate(pattern.elements):
        if isinstance(elem, Field) and elem.name == name:
            return idx
    raise EditError("pattern %d has no field %r" % (pattern.pattern_id, name))


def rename_field(
    pattern: GrokPattern, old_name: str, new_name: str
) -> GrokPattern:
    """Rename field ``old_name`` to ``new_name`` (e.g. ``P1F1``→``logTime``)."""
    if any(
        isinstance(e, Field) and e.name == new_name for e in pattern.elements
    ):
        raise EditError("field name %r already used" % new_name)
    idx = _find_field(pattern, old_name)
    old = pattern.elements[idx]
    assert isinstance(old, Field)
    return _replace(pattern, idx, Field(old.datatype, new_name))


def specialize_field(
    pattern: GrokPattern, name: str, value: str
) -> GrokPattern:
    """Replace a variable field by the constant ``value``.

    Example: specialize ``%{IP:P1F2}`` to the fixed value ``127.0.0.1``.
    """
    idx = _find_field(pattern, name)
    return _replace(pattern, idx, Literal(value))


def generalize_literal(
    pattern: GrokPattern,
    token_index: int,
    datatype: str,
    name: str,
) -> GrokPattern:
    """Turn the literal at ``token_index`` into a variable field.

    Example: generalize ``user1`` to ``%{NOTSPACE:userName}``.
    """
    if not 0 <= token_index < len(pattern.elements):
        raise EditError("token index %d out of range" % token_index)
    elem = pattern.elements[token_index]
    if not isinstance(elem, Literal):
        raise EditError("element %d is not a literal" % token_index)
    if datatype not in pattern.registry:
        raise EditError("unknown datatype %r" % datatype)
    if not pattern.registry.matches(elem.text, datatype) \
            and datatype != "ANYDATA":
        raise EditError(
            "literal %r is not matched by datatype %s" % (elem.text, datatype)
        )
    return _replace(pattern, token_index, Field(datatype, name))


def set_field_datatype(
    pattern: GrokPattern, name: str, datatype: str
) -> GrokPattern:
    """Change the datatype of an existing field (e.g. widen to ANYDATA)."""
    if datatype not in pattern.registry:
        raise EditError("unknown datatype %r" % datatype)
    idx = _find_field(pattern, name)
    old = pattern.elements[idx]
    assert isinstance(old, Field)
    return _replace(pattern, idx, Field(datatype, old.name))


def merge_into_anydata(
    pattern: GrokPattern, start: int, end: int, name: str
) -> GrokPattern:
    """Collapse elements ``start..end`` (inclusive) into one ANYDATA field.

    This is how a user tells LogLens that a variable-length region (a free
    text message, an SQL WHERE clause...) is a single semantic field.
    """
    if not 0 <= start <= end < len(pattern.elements):
        raise EditError("invalid element range [%d, %d]" % (start, end))
    elements = list(pattern.elements)
    elements[start:end + 1] = [Field("ANYDATA", name)]
    return GrokPattern(
        elements, pattern_id=pattern.pattern_id, registry=pattern.registry
    )


@dataclass(frozen=True)
class EditRecord:
    """One entry of the pattern-set audit trail."""

    operation: str
    pattern_id: int
    detail: str


class PatternSetEditor:
    """Stateful editor over a pattern set with an audit trail.

    The editor works on a copy of the pattern list; call :meth:`result` to
    obtain the edited set.  Pattern ids of surviving patterns are preserved
    (the sequence model references them), so deletions leave id gaps — this
    mirrors the paper's model-update semantics where deleting an automaton
    or pattern must not renumber the rest of a deployed model.
    """

    def __init__(self, patterns: Sequence[GrokPattern]) -> None:
        self._patterns: List[GrokPattern] = list(patterns)
        self.audit: List[EditRecord] = []
        # Monotonic id allocation: ids of deleted patterns are never
        # reused — a deployed sequence model may still reference them.
        self._next_id = max(
            (p.pattern_id for p in self._patterns), default=0
        ) + 1

    # ------------------------------------------------------------------
    def get(self, pattern_id: int) -> GrokPattern:
        for p in self._patterns:
            if p.pattern_id == pattern_id:
                return p
        raise EditError("no pattern with id %d" % pattern_id)

    def _swap(self, edited: GrokPattern) -> None:
        for idx, p in enumerate(self._patterns):
            if p.pattern_id == edited.pattern_id:
                self._patterns[idx] = edited
                return
        raise EditError("no pattern with id %d" % edited.pattern_id)

    # ------------------------------------------------------------------
    def rename_field(self, pattern_id: int, old: str, new: str) -> None:
        self._swap(rename_field(self.get(pattern_id), old, new))
        self.audit.append(
            EditRecord("rename", pattern_id, "%s -> %s" % (old, new))
        )

    def specialize_field(
        self, pattern_id: int, name: str, value: str
    ) -> None:
        self._swap(specialize_field(self.get(pattern_id), name, value))
        self.audit.append(
            EditRecord("specialize", pattern_id, "%s := %r" % (name, value))
        )

    def generalize_literal(
        self, pattern_id: int, token_index: int, datatype: str, name: str
    ) -> None:
        self._swap(
            generalize_literal(
                self.get(pattern_id), token_index, datatype, name
            )
        )
        self.audit.append(
            EditRecord(
                "generalize",
                pattern_id,
                "token %d -> %%{%s:%s}" % (token_index, datatype, name),
            )
        )

    def set_field_datatype(
        self, pattern_id: int, name: str, datatype: str
    ) -> None:
        self._swap(set_field_datatype(self.get(pattern_id), name, datatype))
        self.audit.append(
            EditRecord("retype", pattern_id, "%s :: %s" % (name, datatype))
        )

    def merge_into_anydata(
        self, pattern_id: int, start: int, end: int, name: str
    ) -> None:
        self._swap(
            merge_into_anydata(self.get(pattern_id), start, end, name)
        )
        self.audit.append(
            EditRecord(
                "merge", pattern_id, "[%d, %d] -> %s" % (start, end, name)
            )
        )

    def add_pattern(self, expression: str) -> GrokPattern:
        """Add a brand-new user pattern; a fresh id is allocated."""
        pattern = GrokPattern.from_string(
            expression, pattern_id=self._next_id
        )
        self._next_id += 1
        self._patterns.append(pattern)
        self.audit.append(EditRecord("add", pattern.pattern_id, expression))
        return pattern

    def delete_pattern(self, pattern_id: int) -> None:
        before = len(self._patterns)
        self._patterns = [
            p for p in self._patterns if p.pattern_id != pattern_id
        ]
        if len(self._patterns) == before:
            raise EditError("no pattern with id %d" % pattern_id)
        self.audit.append(EditRecord("delete", pattern_id, ""))

    # ------------------------------------------------------------------
    def result(self) -> List[GrokPattern]:
        """The edited pattern set (ids preserved, order preserved)."""
        return list(self._patterns)
