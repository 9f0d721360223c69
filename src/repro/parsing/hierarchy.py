"""Hierarchical pattern discovery (the full LogMine construction).

LogMine (Hamooni et al., CIKM'16 — the algorithm LogLens' phase-1 builds
on) does not stop at one pattern set: it iteratively relaxes the
clustering threshold, clustering the *patterns* of one level to form the
next, which yields a hierarchy from many very specific patterns (leaves)
to a few very general ones (roots).  Users then pick the granularity that
matches their monitoring needs — the same "meet user expectation" concern
Section III-A4 of the LogLens paper addresses with pattern editing.

:class:`HierarchyDiscoverer` reproduces that construction: level 0 is the
plain :class:`~repro.parsing.logmine.PatternDiscoverer` output; each
subsequent level re-clusters the previous level's patterns under a larger
``max_dist``, recording parent→children links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .datatypes import DEFAULT_REGISTRY, DatatypeRegistry
from .grok import Field, GrokPattern, Literal
from .logmine import (
    STRUCTURED_VARIABLE_DATATYPES,
    PatternDiscoverer,
    join_datatypes,
)
from .tokenizer import TokenizedLog

__all__ = ["HierarchyLevel", "PatternHierarchy", "HierarchyDiscoverer"]


@dataclass
class HierarchyLevel:
    """One level of the hierarchy: its patterns and their parents."""

    level: int
    max_dist: float
    patterns: List[GrokPattern]
    #: child pattern id (previous level) → parent pattern id (this level).
    parent_of: Dict[int, int] = field(default_factory=dict)


class PatternHierarchy:
    """The discovered multi-level pattern forest."""

    def __init__(self, levels: List[HierarchyLevel]) -> None:
        if not levels:
            raise ValueError("a hierarchy needs at least one level")
        self.levels = levels

    @property
    def leaves(self) -> List[GrokPattern]:
        """The most specific patterns (level 0)."""
        return self.levels[0].patterns

    @property
    def roots(self) -> List[GrokPattern]:
        """The most general patterns (top level)."""
        return self.levels[-1].patterns

    def patterns_at(self, level: int) -> List[GrokPattern]:
        return self.levels[level].patterns

    def parent(self, level: int, pattern_id: int) -> Optional[GrokPattern]:
        """The parent (at ``level + 1``) of a pattern at ``level``."""
        if level + 1 >= len(self.levels):
            return None
        parent_id = self.levels[level + 1].parent_of.get(pattern_id)
        if parent_id is None:
            return None
        for pattern in self.levels[level + 1].patterns:
            if pattern.pattern_id == parent_id:
                return pattern
        return None

    def children(self, level: int, pattern_id: int) -> List[GrokPattern]:
        """The children (at ``level - 1``) of a pattern at ``level``."""
        if level == 0:
            return []
        child_ids = [
            child
            for child, parent in self.levels[level].parent_of.items()
            if parent == pattern_id
        ]
        return [
            pattern
            for pattern in self.levels[level - 1].patterns
            if pattern.pattern_id in child_ids
        ]

    def __len__(self) -> int:
        return len(self.levels)


def _pattern_to_skeleton(
    pattern: GrokPattern,
) -> List[Tuple[Optional[str], str]]:
    out: List[Tuple[Optional[str], str]] = []
    for element in pattern.elements:
        if isinstance(element, Literal):
            out.append((element.text, pattern.registry.infer(element.text)))
        else:
            out.append((None, element.datatype))
    return out


def _pattern_distance(
    a: List[Tuple[Optional[str], str]],
    b: List[Tuple[Optional[str], str]],
    k1: float,
    k2: float,
    variable_datatypes: frozenset,
) -> float:
    """LogMine distance lifted to pattern skeletons."""
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 0.0
    score = 0.0
    for i in range(min(la, lb)):
        ta, da = a[i]
        tb, db = b[i]
        if ta is not None and ta == tb:
            score += k1
        elif da == db:
            score += k1 if da in variable_datatypes else k2
    return 1.0 - score / max(la, lb)


class HierarchyDiscoverer:
    """Build a LogMine-style pattern hierarchy from training logs.

    Parameters
    ----------
    level_max_dists:
        Ascending clustering thresholds, one per level (level 0 uses the
        first).  Defaults to the LogMine-style doubling schedule
        ``(0.1, 0.3, 0.6)``.
    k1 / k2 / registry:
        As for :class:`~repro.parsing.logmine.PatternDiscoverer`.
    """

    def __init__(
        self,
        level_max_dists: Sequence[float] = (0.1, 0.3, 0.6),
        k1: float = 1.0,
        k2: float = 0.5,
        registry: Optional[DatatypeRegistry] = None,
    ) -> None:
        if not level_max_dists:
            raise ValueError("need at least one level threshold")
        if list(level_max_dists) != sorted(level_max_dists):
            raise ValueError("level thresholds must be ascending")
        self.level_max_dists = list(level_max_dists)
        self.k1 = k1
        self.k2 = k2
        self.registry = registry if registry is not None else DEFAULT_REGISTRY

    # ------------------------------------------------------------------
    def discover(self, logs: Sequence[TokenizedLog]) -> PatternHierarchy:
        base = PatternDiscoverer(
            max_dist=self.level_max_dists[0],
            k1=self.k1,
            k2=self.k2,
            registry=self.registry,
        ).discover(logs)
        levels = [
            HierarchyLevel(
                level=0, max_dist=self.level_max_dists[0], patterns=base
            )
        ]
        for level_idx, max_dist in enumerate(
            self.level_max_dists[1:], start=1
        ):
            levels.append(
                self._merge_level(levels[-1], level_idx, max_dist)
            )
        return PatternHierarchy(levels)

    # ------------------------------------------------------------------
    def _merge_level(
        self,
        previous: HierarchyLevel,
        level_idx: int,
        max_dist: float,
    ) -> HierarchyLevel:
        skeletons = [
            (pattern.pattern_id, _pattern_to_skeleton(pattern))
            for pattern in previous.patterns
        ]
        clusters: List[List[int]] = []          # member pattern ids
        merged: List[List[Tuple[Optional[str], str]]] = []
        for pattern_id, skeleton in skeletons:
            placed = False
            for idx, representative in enumerate(merged):
                if len(representative) != len(skeleton):
                    continue
                distance = _pattern_distance(
                    representative,
                    skeleton,
                    self.k1,
                    self.k2,
                    STRUCTURED_VARIABLE_DATATYPES,
                )
                if distance <= max_dist:
                    clusters[idx].append(pattern_id)
                    merged[idx] = self._merge_skeletons(
                        representative, skeleton
                    )
                    placed = True
                    break
            if not placed:
                clusters.append([pattern_id])
                merged.append(list(skeleton))
        patterns: List[GrokPattern] = []
        parent_of: Dict[int, int] = {}
        for new_id, (members, skeleton) in enumerate(
            zip(clusters, merged), start=1
        ):
            elements = []
            field_idx = 0
            for text, dtype in skeleton:
                if text is not None:
                    elements.append(Literal(text))
                else:
                    field_idx += 1
                    elements.append(
                        Field(dtype, "L%dP%dF%d" % (
                            level_idx, new_id, field_idx
                        ))
                    )
            patterns.append(
                GrokPattern(
                    elements, pattern_id=new_id, registry=self.registry
                )
            )
            for member in members:
                parent_of[member] = new_id
        return HierarchyLevel(
            level=level_idx,
            max_dist=max_dist,
            patterns=patterns,
            parent_of=parent_of,
        )

    def _merge_skeletons(
        self,
        a: List[Tuple[Optional[str], str]],
        b: List[Tuple[Optional[str], str]],
    ) -> List[Tuple[Optional[str], str]]:
        out: List[Tuple[Optional[str], str]] = []
        for (ta, da), (tb, db) in zip(a, b):
            if ta is not None and ta == tb:
                out.append((ta, da))
            else:
                out.append((None, join_datatypes(da, db, self.registry)))
        return out
