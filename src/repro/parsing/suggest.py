"""Pattern suggestions for unparsed logs.

The anomaly-review loop of the paper (Section II-B: users "take actions
to rebuild or edit models") repeatedly hits the same chore: an
``UNPARSED_LOG`` anomaly arrives and the operator must write a GROK
pattern for the new format by hand.  :func:`suggest_pattern` automates
the first draft — it generalises the raw line exactly the way discovery
would have (structured variable types become fields, literals stay
literal), so the operator only reviews instead of authoring.

With several examples of the new format, :func:`suggest_pattern_from_examples`
also generalises the positions whose *values* vary, matching what a full
re-discovery over those lines would learn.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .grok import Field, GrokPattern, Literal
from .logmine import STRUCTURED_VARIABLE_DATATYPES, join_datatypes
from .tokenizer import Tokenizer

__all__ = ["suggest_pattern", "suggest_pattern_from_examples"]


def suggest_pattern(
    raw: str,
    tokenizer: Optional[Tokenizer] = None,
    field_prefix: str = "f",
) -> GrokPattern:
    """Draft a GROK pattern for one unparsed log line.

    Structured variable datatypes (timestamps, IPs, numbers, hex, UUIDs)
    become fields named ``<prefix>1..<prefix>k``; everything else stays a
    literal the operator can generalise further with the editing
    operations.
    """
    tokenizer = tokenizer if tokenizer is not None else Tokenizer()
    log = tokenizer.tokenize(raw)
    elements = []
    field_idx = 0
    for text, datatype in zip(log.texts, log.datatypes):
        if datatype in STRUCTURED_VARIABLE_DATATYPES or (
            datatype == "DATETIME"
        ):
            field_idx += 1
            elements.append(
                Field(datatype, "%s%d" % (field_prefix, field_idx))
            )
        else:
            elements.append(Literal(text))
    return GrokPattern(elements, registry=tokenizer.registry)


def suggest_pattern_from_examples(
    raws: Sequence[str],
    tokenizer: Optional[Tokenizer] = None,
    field_prefix: str = "f",
) -> GrokPattern:
    """Draft a pattern from several same-format example lines.

    All examples must tokenize to the same length; positions whose text
    varies across examples become fields typed by the join of the
    observed datatypes — the same merge rule discovery applies inside a
    cluster.

    Raises
    ------
    ValueError
        With no examples, or when example shapes (lengths) disagree —
        mixed formats need one call per format.
    """
    if not raws:
        raise ValueError("need at least one example line")
    tokenizer = tokenizer if tokenizer is not None else Tokenizer()
    logs = [tokenizer.tokenize(raw) for raw in raws]
    length = len(logs[0])
    if any(len(log) != length for log in logs):
        raise ValueError(
            "example lines tokenize to different lengths; "
            "suggest one pattern per format"
        )
    registry = tokenizer.registry
    elements = []
    field_idx = 0
    for position in range(length):
        texts = {log.texts[position] for log in logs}
        datatype = logs[0].datatypes[position]
        for log in logs[1:]:
            datatype = join_datatypes(
                datatype, log.datatypes[position], registry
            )
        if (
            len(texts) > 1
            or datatype in STRUCTURED_VARIABLE_DATATYPES
            or datatype == "DATETIME"
        ):
            field_idx += 1
            elements.append(
                Field(datatype, "%s%d" % (field_prefix, field_idx))
            )
        else:
            elements.append(Literal(logs[0].texts[position]))
    return GrokPattern(elements, registry=registry)
