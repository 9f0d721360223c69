"""Algorithm 1: signature matching with wildcard support.

Deciding whether a log-signature can be parsed by a pattern-signature is
easy without wildcards (position-wise coverage check) and subtle with them,
because ``ANYDATA`` may absorb any number of signature tokens.  The paper
solves this with a bottom-up dynamic program over the boolean table::

    T[i][j] = True                                if i == 0 and j == 0
    T[i][j] = T[i-1][j-1]                         if l_i == p_j
                                                  or isCovered(l_i, p_j)
    T[i][j] = T[i-1][j] or T[i][j-1]              if p_j == ANYDATA

:func:`is_matched_tokens` is a faithful implementation over pre-split
signatures; :func:`is_matched_simple` is the wildcard-free fast path it
takes when the pattern-signature contains no ``ANYDATA``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .datatypes import DEFAULT_REGISTRY, DatatypeRegistry

__all__ = ["is_matched_simple", "is_matched_tokens"]

_WILDCARD = "ANYDATA"


def is_matched_simple(
    log_sig: Sequence[str],
    pattern_sig: Sequence[str],
    registry: Optional[DatatypeRegistry] = None,
) -> bool:
    """Wildcard-free signature match: equal length, position-wise coverage."""
    registry = registry if registry is not None else DEFAULT_REGISTRY
    if len(log_sig) != len(pattern_sig):
        return False
    for li, pj in zip(log_sig, pattern_sig):
        if li != pj and not registry.is_covered(li, pj):
            return False
    return True


def is_matched_tokens(
    L: Sequence[str],
    P: Sequence[str],
    registry: Optional[DatatypeRegistry] = None,
) -> bool:
    """Can log-signature ``L`` be parsed by pattern-signature ``P``?

    This is the paper's Algorithm 1 (``isMatched``), including the
    ``ANYDATA`` wildcard handling via dynamic programming, over
    signatures split into datatype names.  The pattern index compares
    one log-signature against many pattern-signatures; keeping both
    sides pre-split avoids re-splitting the pattern signature on every
    comparison (see
    :meth:`~repro.parsing.grok.GrokPattern.signature_tokens`).
    """
    registry = registry if registry is not None else DEFAULT_REGISTRY
    if _WILDCARD not in P:
        return is_matched_simple(L, P, registry)
    n, m = len(L), len(P)
    # T has (n+1) x (m+1) entries; row 0 handles leading wildcards which
    # may absorb zero tokens.
    prev: List[bool] = [False] * (m + 1)
    prev[0] = True
    for j in range(1, m + 1):
        prev[j] = prev[j - 1] and P[j - 1] == _WILDCARD
    for i in range(1, n + 1):
        li = L[i - 1]
        cur = [False] * (m + 1)
        for j in range(1, m + 1):
            pj = P[j - 1]
            if pj == _WILDCARD:
                cur[j] = prev[j] or cur[j - 1]
            elif li == pj or registry.is_covered(li, pj):
                cur[j] = prev[j - 1]
        prev = cur
    return prev[m]
