"""Unit + property tests for Algorithm 1 (signature matching)."""

from hypothesis import given, settings, strategies as st

from repro.parsing.datatypes import DEFAULT_REGISTRY
from repro.parsing.matcher import is_matched_simple, is_matched_tokens


def matched(log_sig, pattern_sig):
    """Algorithm 1 over whitespace-joined signatures."""
    return is_matched_tokens(log_sig.split(), pattern_sig.split())


class TestSimpleMatching:
    def test_exact_match(self):
        assert matched("DATETIME IP WORD", "DATETIME IP WORD")

    def test_coverage_match(self):
        assert matched("WORD NUMBER", "NOTSPACE NOTSPACE")

    def test_coverage_is_directional(self):
        assert not matched("NOTSPACE", "WORD")

    def test_length_mismatch(self):
        assert not matched("WORD WORD", "WORD")
        assert not matched("WORD", "WORD WORD")

    def test_empty_signatures(self):
        assert matched("", "")
        assert not matched("WORD", "")


class TestWildcardMatching:
    def test_wildcard_absorbs_run(self):
        assert matched("WORD WORD WORD", "WORD ANYDATA")

    def test_wildcard_absorbs_zero(self):
        assert matched("WORD", "WORD ANYDATA")
        assert matched("WORD", "ANYDATA WORD")
        assert matched("", "ANYDATA")

    def test_wildcard_in_middle(self):
        assert matched(
            "DATETIME WORD WORD NUMBER", "DATETIME ANYDATA NUMBER"
        )

    def test_wildcard_cannot_skip_required(self):
        assert not matched("WORD", "ANYDATA NUMBER")

    def test_multiple_wildcards(self):
        assert matched(
            "WORD NUMBER WORD NUMBER WORD",
            "ANYDATA NUMBER ANYDATA NUMBER ANYDATA",
        )

    def test_anydata_in_log_signature_needs_anydata_pattern(self):
        # A log token typed ANYDATA is only covered by ANYDATA.
        assert not matched("ANYDATA", "WORD")
        assert matched("ANYDATA", "ANYDATA")


def _brute_force(log_sig, pattern_sig, registry):
    """Exponential reference implementation of Algorithm 1."""
    L = log_sig.split()
    P = pattern_sig.split()

    def rec(i, j):
        if i == len(L) and j == len(P):
            return True
        if j == len(P):
            return False
        pj = P[j]
        if pj == "ANYDATA":
            # Absorb zero tokens, or absorb one and stay.
            if rec(i, j + 1):
                return True
            if i < len(L) and rec(i + 1, j):
                return True
            return False
        if i == len(L):
            return False
        li = L[i]
        if li == pj or registry.is_covered(li, pj):
            return rec(i + 1, j + 1)
        return False

    return rec(0, 0)


_TYPES = st.sampled_from(
    ["WORD", "NUMBER", "IP", "NOTSPACE", "DATETIME", "ANYDATA", "HEX"]
)


class TestPropertyBased:
    @given(
        log=st.lists(
            st.sampled_from(["WORD", "NUMBER", "IP", "NOTSPACE", "DATETIME"]),
            max_size=6,
        ),
        pattern=st.lists(_TYPES, max_size=6),
    )
    @settings(max_examples=400, deadline=None)
    def test_dp_equals_brute_force(self, log, pattern):
        log_sig = " ".join(log)
        pattern_sig = " ".join(pattern)
        assert is_matched_tokens(log, pattern) == _brute_force(
            log_sig, pattern_sig, DEFAULT_REGISTRY
        )

    @given(
        sig=st.lists(
            st.sampled_from(["WORD", "NUMBER", "IP", "NOTSPACE", "DATETIME"]),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_reflexivity(self, sig):
        assert is_matched_tokens(sig, sig)

    @given(
        sig=st.lists(
            st.sampled_from(["WORD", "NUMBER", "IP", "NOTSPACE"]),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_everything_matches_single_wildcard(self, sig):
        assert is_matched_tokens(sig, ["ANYDATA"])

    @given(
        log=st.lists(
            st.sampled_from(["WORD", "NUMBER", "IP"]), max_size=5
        ),
        pattern=st.lists(
            st.sampled_from(["WORD", "NUMBER", "IP", "NOTSPACE"]),
            max_size=5,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_simple_agrees_with_dp_without_wildcards(self, log, pattern):
        assert is_matched_simple(log, pattern) == is_matched_tokens(
            log, pattern
        )
