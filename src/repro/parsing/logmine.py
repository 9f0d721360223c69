"""LogMine-style unsupervised pattern discovery.

Phase 1 of the LogLens parser (paper, Section III-A3) clusters similar
training logs and merges each cluster into one GROK pattern, following the
LogMine algorithm (Hamooni et al., CIKM'16) the paper builds on:

* **distance** — two logs are compared position-wise; identical tokens
  score ``k1``, tokens of the same datatype score ``k2``, anything else
  scores zero; the normalised complement is the distance
  (:func:`log_distance`).
* **one-pass max-distance clustering** — each log is compared against
  cluster *representatives* and joins the first cluster within
  ``max_dist``, else founds a new cluster.
* **merge** — all members of a cluster are folded into a single pattern;
  equal positions stay literal, differing positions become variable fields
  typed with the *join* (least general common ancestor) of the observed
  datatypes; when member lengths differ, sequence alignment inserts
  ``ANYDATA`` wildcards for the unmatched regions.

A practical optimisation (``bucketed=True``, the default) first groups logs
by their (length, signature) key: within a bucket datatypes align
position-wise, so distance and merging are simple scans.  This keeps
discovery near-linear in the number of logs while producing the same kind
of pattern set; ``bucketed=False`` runs the textbook one-pass algorithm
with alignment-based merging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .datatypes import DEFAULT_REGISTRY, DatatypeRegistry
from .fields import assign_field_ids, heuristic_rename
from .grok import Field, GrokPattern, Literal
from .tokenizer import TokenizedLog

__all__ = [
    "log_distance",
    "join_datatypes",
    "STRUCTURED_VARIABLE_DATATYPES",
    "LogCluster",
    "PatternDiscoverer",
]

#: Datatypes whose tokens are *inherently variable* — LogMine pre-detects
#: these structured types and compares them by type, not by value, so two
#: logs differing only in a timestamp or an IP address are identical for
#: clustering purposes.  Positions carrying these types always become
#: variable fields in the discovered pattern (this is why the paper's
#: example pattern keeps ``%{DATETIME:P1F1}`` and ``%{IP:P1F2}`` as fields
#: while the constant ``user1`` stays literal).
STRUCTURED_VARIABLE_DATATYPES = frozenset(
    {"DATETIME", "IP", "NUMBER", "HEX", "UUID"}
)


def log_distance(
    a: TokenizedLog,
    b: TokenizedLog,
    k1: float = 1.0,
    k2: float = 0.5,
    max_dist: Optional[float] = None,
    variable_datatypes: frozenset = STRUCTURED_VARIABLE_DATATYPES,
) -> float:
    """LogMine distance between two tokenized logs, in [0, 1].

    ``d(P, Q) = 1 - Σ score(p_i, q_i) / max(|P|, |Q|)`` with
    ``score = k1`` for identical tokens *or* same structured-variable
    datatype, and ``k2`` for other same-datatype tokens.  When ``max_dist``
    is given, computation abandons early once the distance provably
    exceeds it.
    """
    la, lb = len(a.texts), len(b.texts)
    if la == 0 and lb == 0:
        return 0.0
    longest = max(la, lb)
    best_remaining = float(min(la, lb)) * k1
    score = 0.0
    for x_text, y_text, x_type, y_type in zip(
        a.texts, b.texts, a.datatypes, b.datatypes
    ):
        if x_text == y_text:
            score += k1
        elif x_type == y_type:
            if x_type in variable_datatypes:
                score += k1
            else:
                score += k2
        best_remaining -= k1
        if max_dist is not None:
            # Even with a perfect remainder the distance stays above the
            # threshold: abandon.
            if 1.0 - (score + best_remaining) / longest > max_dist:
                return 1.0
    return 1.0 - score / longest


def join_datatypes(
    a: str, b: str, registry: Optional[DatatypeRegistry] = None
) -> str:
    """The narrowest datatype covering both ``a`` and ``b``.

    Uses the registry's coverage lattice; falls back to ``NOTSPACE`` when
    both types are word-like, and ``ANYDATA`` otherwise.
    """
    registry = registry if registry is not None else DEFAULT_REGISTRY
    if a == b:
        return a
    if registry.is_covered(a, b):
        return b
    if registry.is_covered(b, a):
        return a
    if registry.is_covered(a, "NOTSPACE") and registry.is_covered(
        b, "NOTSPACE"
    ):
        return "NOTSPACE"
    return "ANYDATA"


@dataclass
class LogCluster:
    """A cluster under construction: representative + merged skeleton.

    The skeleton is a list of ``(text_or_None, datatype)`` pairs — ``None``
    text marks a position already known to vary.  For variable-length
    clusters (non-bucketed mode) the skeleton is re-derived by alignment.
    """

    representative: TokenizedLog
    size: int = 1
    #: Position-wise merge state for fixed-length clusters.
    skeleton: List[Tuple[Optional[str], str]] = field(default_factory=list)
    #: Raw members; retained only in non-bucketed mode for alignment merge.
    members: List[TokenizedLog] = field(default_factory=list)


class PatternDiscoverer:
    """Discover a GROK pattern set from training logs.

    Parameters
    ----------
    max_dist:
        Clustering threshold; two logs within this distance share a
        cluster.
    k1 / k2:
        Token scores for identical / same-datatype tokens.
    bucketed:
        Pre-bucket logs by (length, signature) — fast path, default.
    registry:
        Datatype registry for joins and signatures.
    rename_heuristics:
        Apply ``key = value`` semantic renaming after id assignment.
    """

    def __init__(
        self,
        max_dist: float = 0.3,
        k1: float = 1.0,
        k2: float = 0.5,
        *,
        bucketed: bool = True,
        registry: Optional[DatatypeRegistry] = None,
        rename_heuristics: bool = True,
        variable_datatypes: frozenset = STRUCTURED_VARIABLE_DATATYPES,
    ) -> None:
        if not 0.0 <= max_dist <= 1.0:
            raise ValueError("max_dist must be within [0, 1]")
        self.max_dist = max_dist
        self.k1 = k1
        self.k2 = k2
        self.bucketed = bucketed
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self.rename_heuristics = rename_heuristics
        self.variable_datatypes = variable_datatypes

    # ------------------------------------------------------------------
    def discover(self, logs: Sequence[TokenizedLog]) -> List[GrokPattern]:
        """Cluster ``logs`` and return the discovered patterns.

        Patterns carry 1-based ids and ``P<i>F<j>`` field names (with
        semantic renames where the heuristics apply), ready for the
        :class:`~repro.parsing.index.PatternIndex`.
        """
        clusters = self.cluster(logs)
        raw_patterns = [self._cluster_to_pattern(c) for c in clusters]
        patterns = assign_field_ids(raw_patterns)
        if self.rename_heuristics:
            patterns = [heuristic_rename(p) for p in patterns]
        return patterns

    def cluster(self, logs: Sequence[TokenizedLog]) -> List[LogCluster]:
        """Run the clustering pass only (exposed for tests/inspection)."""
        if self.bucketed:
            return self._cluster_bucketed(logs)
        return self._cluster_onepass(logs)

    # ------------------------------------------------------------------
    # Bucketed fast path
    # ------------------------------------------------------------------
    def _cluster_bucketed(
        self, logs: Sequence[TokenizedLog]
    ) -> List[LogCluster]:
        buckets: Dict[str, List[LogCluster]] = {}
        order: List[LogCluster] = []
        for log in logs:
            key = log.signature
            clusters = buckets.setdefault(key, [])
            placed = False
            for cluster in clusters:
                if self._skeleton_distance(cluster, log) <= self.max_dist:
                    self._skeleton_absorb(cluster, log)
                    placed = True
                    break
            if not placed:
                cluster = LogCluster(
                    representative=log, skeleton=self._skeleton(log)
                )
                clusters.append(cluster)
                order.append(cluster)
        return order

    def _skeleton(self, log: TokenizedLog) -> List[Tuple[Optional[str], str]]:
        """A founding member's skeleton: structured-variable positions
        start out variable, every other position literal."""
        variable = self.variable_datatypes
        return [
            (None, dtype) if dtype in variable else (text, dtype)
            for text, dtype in zip(log.texts, log.datatypes)
        ]

    def _skeleton_distance(self, cluster: LogCluster, log: TokenizedLog) -> float:
        """Distance of ``log`` to the cluster's merged skeleton.

        Within a bucket lengths and datatypes agree, so only literal
        (in)equality matters; structured-variable positions match by type
        (``k1``); other generalised positions count as same-datatype
        matches (``k2``).
        """
        texts = log.texts
        n = len(texts)
        if n == 0:
            return 0.0
        score = 0.0
        for (text, dtype), log_text in zip(cluster.skeleton, texts):
            if text is not None and text == log_text:
                score += self.k1
            elif dtype in self.variable_datatypes:
                score += self.k1
            else:
                score += self.k2
        return 1.0 - score / n

    @staticmethod
    def _skeleton_absorb(cluster: LogCluster, log: TokenizedLog) -> None:
        skeleton = cluster.skeleton
        for i, log_text in enumerate(log.texts):
            text, dtype = skeleton[i]
            if text is not None and text != log_text:
                skeleton[i] = (None, dtype)
        cluster.size += 1

    # ------------------------------------------------------------------
    # Textbook one-pass path
    # ------------------------------------------------------------------
    def _cluster_onepass(
        self, logs: Sequence[TokenizedLog]
    ) -> List[LogCluster]:
        clusters: List[LogCluster] = []
        for log in logs:
            placed = False
            for cluster in clusters:
                d = log_distance(
                    cluster.representative,
                    log,
                    k1=self.k1,
                    k2=self.k2,
                    max_dist=self.max_dist,
                    variable_datatypes=self.variable_datatypes,
                )
                if d <= self.max_dist:
                    cluster.members.append(log)
                    cluster.size += 1
                    placed = True
                    break
            if not placed:
                clusters.append(
                    LogCluster(representative=log, members=[log])
                )
        return clusters

    # ------------------------------------------------------------------
    # Cluster → pattern
    # ------------------------------------------------------------------
    def _cluster_to_pattern(self, cluster: LogCluster) -> GrokPattern:
        if cluster.skeleton:
            elements = []
            for text, dtype in cluster.skeleton:
                if text is not None:
                    elements.append(Literal(text))
                else:
                    elements.append(Field(dtype, "f"))
            return GrokPattern(elements, registry=self.registry)
        merged = self._skeleton(cluster.members[0])
        for member in cluster.members[1:]:
            merged = self._align_merge(
                merged, list(zip(member.texts, member.datatypes))
            )
        elements = []
        for text, dtype in merged:
            if text is not None:
                elements.append(Literal(text))
            else:
                elements.append(Field(dtype, "f"))
        return GrokPattern(elements, registry=self.registry)

    def _align_merge(
        self,
        a: List[Tuple[Optional[str], str]],
        b: List[Tuple[Optional[str], str]],
    ) -> List[Tuple[Optional[str], str]]:
        """Merge two token skeletons by global alignment.

        Matched positions keep/extend their merge state; unmatched regions
        become ``ANYDATA`` wildcards (collapsed so adjacent gaps yield one
        wildcard).
        """
        na, nb = len(a), len(b)
        # Needleman-Wunsch style score: match 2, same-datatype 1, gap 0.
        score = [[0] * (nb + 1) for _ in range(na + 1)]
        for i in range(1, na + 1):
            for j in range(1, nb + 1):
                ta, da = a[i - 1]
                tb, db = b[j - 1]
                if ta is not None and ta == tb:
                    diag = score[i - 1][j - 1] + 2
                elif da == db:
                    diag = score[i - 1][j - 1] + 1
                else:
                    diag = -1
                score[i][j] = max(
                    diag, score[i - 1][j], score[i][j - 1]
                )
        merged_rev: List[Tuple[Optional[str], str]] = []
        i, j = na, nb
        gap_open = False
        while i > 0 or j > 0:
            if i > 0 and j > 0:
                ta, da = a[i - 1]
                tb, db = b[j - 1]
                if ta is not None and ta == tb:
                    diag = score[i - 1][j - 1] + 2
                elif da == db:
                    diag = score[i - 1][j - 1] + 1
                else:
                    diag = -1
                if score[i][j] == diag and diag >= 0:
                    if ta is not None and ta == tb:
                        merged_rev.append((ta, da))
                    else:
                        merged_rev.append(
                            (None, join_datatypes(da, db, self.registry))
                        )
                    i -= 1
                    j -= 1
                    gap_open = False
                    continue
            if i > 0 and (j == 0 or score[i][j] == score[i - 1][j]):
                if not gap_open:
                    merged_rev.append((None, "ANYDATA"))
                    gap_open = True
                i -= 1
                continue
            if not gap_open:
                merged_rev.append((None, "ANYDATA"))
                gap_open = True
            j -= 1
        merged_rev.reverse()
        # Collapse adjacent wildcards produced by alternating gap branches.
        collapsed: List[Tuple[Optional[str], str]] = []
        for item in merged_rev:
            if (
                item == (None, "ANYDATA")
                and collapsed
                and collapsed[-1] == (None, "ANYDATA")
            ):
                continue
            collapsed.append(item)
        return collapsed
