"""Stateless log parsing: discovery, indexing, and fast parsing.

This package implements Section III of the paper end to end:

* preprocessing — :class:`~repro.parsing.tokenizer.Tokenizer`,
  :class:`~repro.parsing.timestamps.TimestampDetector`;
* pattern discovery — :class:`~repro.parsing.logmine.PatternDiscoverer`;
* user editing — :mod:`repro.parsing.editing`;
* fast parsing — :class:`~repro.parsing.parser.FastLogParser` built on the
  :class:`~repro.parsing.index.PatternIndex` and the Algorithm-1 matcher.
"""

from .assembler import LineAssembler
from .datatypes import (
    DEFAULT_REGISTRY,
    Datatype,
    DatatypeRegistry,
    generality,
    infer_datatype,
    is_covered,
)
from .editing import (
    PatternSetEditor,
    generalize_literal,
    merge_into_anydata,
    rename_field,
    set_field_datatype,
    specialize_field,
)
from .fields import assign_field_ids, generic_field_name, heuristic_rename
from .grok import CompiledGrok, Field, GrokPattern, Literal
from .hierarchy import HierarchyDiscoverer, HierarchyLevel, PatternHierarchy
from .index import PatternIndex
from .logmine import LogCluster, PatternDiscoverer, join_datatypes, log_distance
from .matcher import is_matched_simple
from .parser import FastLogParser, ParsedLog, PatternModel
from .quality import PatternQualityReport, evaluate_pattern_model
from .suggest import suggest_pattern, suggest_pattern_from_examples
from .signature import log_signature, pattern_signature, split_signature
from .timestamps import (
    CANONICAL_FORMAT,
    TimestampDetector,
    TimestampFormat,
    TimestampMatch,
    build_default_formats,
)
from .tokenizer import SplitRule, Token, TokenizedLog, Tokenizer

__all__ = [
    "LineAssembler",
    "DEFAULT_REGISTRY",
    "Datatype",
    "DatatypeRegistry",
    "generality",
    "infer_datatype",
    "is_covered",
    "PatternSetEditor",
    "generalize_literal",
    "merge_into_anydata",
    "rename_field",
    "set_field_datatype",
    "specialize_field",
    "assign_field_ids",
    "generic_field_name",
    "heuristic_rename",
    "CompiledGrok",
    "Field",
    "GrokPattern",
    "Literal",
    "HierarchyDiscoverer",
    "HierarchyLevel",
    "PatternHierarchy",
    "PatternIndex",
    "LogCluster",
    "PatternDiscoverer",
    "join_datatypes",
    "log_distance",
    "is_matched_simple",
    "FastLogParser",
    "ParsedLog",
    "PatternModel",
    "PatternQualityReport",
    "evaluate_pattern_model",
    "suggest_pattern",
    "suggest_pattern_from_examples",
    "log_signature",
    "pattern_signature",
    "split_signature",
    "CANONICAL_FORMAT",
    "TimestampDetector",
    "TimestampFormat",
    "TimestampMatch",
    "build_default_formats",
    "SplitRule",
    "Token",
    "TokenizedLog",
    "Tokenizer",
]
