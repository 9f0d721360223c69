"""Integration: pattern discovery + parsing closure on the paper corpora.

The full Table-IV setup at test scale: discover patterns from each
corpus, then re-parse the same logs — a correct parser yields zero
anomalies, and discovered pattern counts track the corpus template
counts.
"""

from repro.datasets.corpora import generate_d3, generate_d5
from repro.datasets.sql_app import generate_sql_app
from repro.parsing.logmine import PatternDiscoverer
from repro.parsing.parser import FastLogParser, ParsedLog, PatternModel
from repro.parsing.tokenizer import Tokenizer


def _discover_and_verify(dataset, tolerance=0.15):
    tokenizer = Tokenizer()
    tokenized = tokenizer.tokenize_many(dataset.train)
    patterns = PatternDiscoverer().discover(tokenized)
    parser = FastLogParser(PatternModel(patterns), tokenizer=Tokenizer())
    unparsed = sum(
        1
        for result in parser.parse_all(dataset.test)
        if not isinstance(result, ParsedLog)
    )
    assert unparsed == 0, "%s: %d unparsed" % (dataset.name, unparsed)
    low = dataset.template_count * (1 - tolerance)
    high = dataset.template_count * (1 + tolerance)
    assert low <= len(patterns) <= high, (
        dataset.name, len(patterns), dataset.template_count
    )
    return patterns


class TestCorporaDiscovery:
    def test_d5_pcap_closure(self):
        _discover_and_verify(generate_d5(n_logs=3000))

    def test_d3_storage_closure(self):
        _discover_and_verify(generate_d3(n_logs=4000))

    def test_sql_case_study_closure(self):
        dataset = generate_sql_app(n_structures=80, logs_per_structure=3)
        tokenizer = Tokenizer()
        patterns = PatternDiscoverer().discover(
            tokenizer.tokenize_many(dataset.train)
        )
        parser = FastLogParser(PatternModel(patterns), tokenizer=Tokenizer())
        unparsed = sum(
            1
            for result in parser.parse_all(dataset.test)
            if not isinstance(result, ParsedLog)
        )
        assert unparsed == 0

    def test_fresh_values_still_parse(self):
        """Rendering the same templates with new variable values parses
        under the patterns discovered from the old values."""
        from repro.datasets.base import TemplateCorpus
        from repro.datasets.corpora import _PCAP_VOCAB

        corpus = TemplateCorpus(40, _PCAP_VOCAB, seed=3)
        train = corpus.render(800)
        fresh = corpus.render(400)  # rng advanced: new values
        tokenizer = Tokenizer()
        patterns = PatternDiscoverer().discover(
            tokenizer.tokenize_many(train)
        )
        parser = FastLogParser(PatternModel(patterns), tokenizer=Tokenizer())
        unparsed = sum(
            1
            for result in parser.parse_all(fresh)
            if not isinstance(result, ParsedLog)
        )
        assert unparsed == 0
